//! Per-dataset accountant shards.
//!
//! A serving process explains many datasets, each with its own ε cap — but
//! the original deployment funneled every dataset's accounting through one
//! `SharedAccountant` and one WAL file, so (a) unrelated datasets contended
//! on a single mutex and a single `fsync` stream, and (b) one dataset's
//! ledger corruption took every dataset down with it. [`AccountantShards`]
//! splits the spine: **one shard per dataset**, each a
//! [`SharedAccountant`] with its own mutex and (when durable) its own WAL
//! file, so datasets admit, fsync, checkpoint, and recover independently.
//!
//! Budget semantics are untouched by the split — ε caps were always
//! per-dataset, and charges against different datasets never composed (they
//! are different databases; there is nothing to compose). The shard map
//! only removes the accidental coupling.
//!
//! Durable shards live in one directory, one `<dataset>.wal` per dataset
//! (dataset names are percent-escaped into safe file names). Opening a
//! shard that already has a WAL *recovers* it — the spent ε survives the
//! process, which is the whole point — rather than resetting it.

use crate::budget::{AccountantProbe, Epsilon, GroupCommitPolicy, LedgerStats, SharedAccountant};
use crate::error::DpError;
use crate::ledger::LedgerWriter;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-shard policy applied when a shard is first opened.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardConfig {
    /// The shard's ε cap (`None`: uncapped bookkeeping).
    pub cap: Option<Epsilon>,
    /// Auto-checkpoint the shard's WAL after this many grants (`None`:
    /// never; ignored for in-memory shards, which have no WAL).
    pub checkpoint_every: Option<u64>,
    /// Group-commit window for the shard's grant spends (`None` — or a
    /// policy with `max_batch <= 1` — commits batches of one, one fsync per
    /// grant; ignored for in-memory shards, which have no fsync to amortize).
    pub group_commit: Option<GroupCommitPolicy>,
}

impl ShardConfig {
    /// A capped shard with no auto-checkpointing.
    pub fn capped(cap: Epsilon) -> Self {
        ShardConfig {
            cap: Some(cap),
            ..ShardConfig::default()
        }
    }
}

/// Where a shard's ledger lives.
#[derive(Debug)]
enum Backing {
    /// No durability: shards are plain in-memory accountants (tests, and
    /// serving without `--ledger-dir`).
    Memory,
    /// One `<escaped-dataset-name>.wal` per shard under this directory.
    Dir(PathBuf),
}

/// A map of per-dataset ε-accountant shards (see the module docs).
///
/// `open` is get-or-create: the first open of a dataset creates its shard
/// (recovering a durable WAL if one exists); later opens return the same
/// [`Arc`]'d shard. All shards share a backing, not state — after
/// `open` returns, operations on the shard touch only its own mutex and
/// its own file.
#[derive(Debug)]
pub struct AccountantShards {
    backing: Backing,
    shards: Mutex<BTreeMap<String, Arc<SharedAccountant>>>,
}

impl AccountantShards {
    /// Purely in-memory shards (no WAL, nothing survives the process).
    pub fn in_memory() -> Self {
        AccountantShards {
            backing: Backing::Memory,
            shards: Mutex::new(BTreeMap::new()),
        }
    }

    /// Durable shards: one WAL file per dataset under `dir` (created if
    /// missing).
    pub fn in_dir(dir: &Path) -> Result<Self, DpError> {
        std::fs::create_dir_all(dir).map_err(|e| DpError::LedgerWrite {
            message: format!("creating shard dir {}: {e}", dir.display()),
        })?;
        Ok(AccountantShards {
            backing: Backing::Dir(dir.to_path_buf()),
            shards: Mutex::new(BTreeMap::new()),
        })
    }

    /// The WAL path a durable backing assigns to `dataset` (`None` for
    /// in-memory backings). Exposed so harnesses can inspect shard files.
    pub fn wal_path(&self, dataset: &str) -> Option<PathBuf> {
        match &self.backing {
            Backing::Memory => None,
            Backing::Dir(dir) => Some(dir.join(format!("{}.wal", escape_name(dataset)))),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Arc<SharedAccountant>>> {
        // The map is only inserted into under the lock; recovering from a
        // poisoned map cannot observe a half-made shard.
        self.shards
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Gets `dataset`'s shard, creating (and for durable backings,
    /// recovering) it with `config` on first open. The config only applies
    /// at creation; reopening an existing shard returns it unchanged.
    pub fn open(
        &self,
        dataset: &str,
        config: ShardConfig,
    ) -> Result<Arc<SharedAccountant>, DpError> {
        let mut shards = self.lock();
        if let Some(shard) = shards.get(dataset) {
            return Ok(Arc::clone(shard));
        }
        let shard = match &self.backing {
            Backing::Memory => Arc::new(match config.cap {
                Some(cap) => SharedAccountant::with_cap(cap),
                None => SharedAccountant::new(),
            }),
            Backing::Dir(_) => {
                let path = self.wal_path(dataset).expect("durable backing has paths");
                let (writer, recovery) =
                    LedgerWriter::open(&path).map_err(|e| DpError::LedgerWrite {
                        message: format!("opening shard WAL {}: {e}", path.display()),
                    })?;
                let acc = SharedAccountant::recovered(config.cap, writer, &recovery);
                acc.set_checkpoint_every(config.checkpoint_every);
                acc.set_group_commit(config.group_commit);
                Arc::new(acc)
            }
        };
        shards.insert(dataset.to_string(), Arc::clone(&shard));
        Ok(shard)
    }

    /// The shard for `dataset`, if it has been opened.
    pub fn get(&self, dataset: &str) -> Option<Arc<SharedAccountant>> {
        self.lock().get(dataset).cloned()
    }

    /// Drops `dataset`'s shard from the map (its WAL file, if any, stays on
    /// disk — spent ε is history). Returns whether a shard was present.
    pub fn evict(&self, dataset: &str) -> bool {
        self.lock().remove(dataset).is_some()
    }

    /// Names of all opened shards, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Per-shard `(dataset, ledger stats)`, sorted by dataset — the
    /// serving summary's observability feed.
    pub fn stats(&self) -> Vec<(String, LedgerStats)> {
        self.lock()
            .iter()
            .map(|(name, shard)| (name.clone(), shard.ledger_stats()))
            .collect()
    }

    /// Whether this map writes WALs at all.
    pub fn is_durable(&self) -> bool {
        matches!(self.backing, Backing::Dir(_))
    }

    /// Per-shard `(dataset, invariant probe)`, sorted by dataset — each
    /// probe atomic within its shard (see [`SharedAccountant::probe`]). The
    /// abuse batteries sweep this across every tenant mid-storm: one
    /// tenant's hostile traffic must never surface as another shard's
    /// violation.
    pub fn probes(&self) -> Vec<(String, AccountantProbe)> {
        self.lock()
            .iter()
            .map(|(name, shard)| (name.clone(), shard.probe()))
            .collect()
    }

    /// Every invariant violation across all opened shards, tagged with the
    /// shard name. Empty means every tenant's accounting looked consistent.
    pub fn probe_violations(&self) -> Vec<String> {
        self.probes()
            .into_iter()
            .flat_map(|(name, probe)| {
                probe
                    .violations()
                    .into_iter()
                    .map(move |v| format!("shard '{name}': {v}"))
            })
            .collect()
    }
}

/// Escapes a dataset name into a safe, collision-free file stem:
/// alphanumerics, `-`, `_` and `.` pass through; every other byte becomes
/// `%XX`. The escaping is injective, so two distinct dataset names can
/// never share a WAL file.
fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for byte in name.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(byte as char),
            // Dots pass through except in the lead position, so a dataset
            // name can never become a hidden file or a `..` path segment.
            b'.' if !out.is_empty() => out.push('.'),
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    if out.is_empty() {
        out.push_str("%00empty");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::NO_REQUEST;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpx-shards-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn open_is_get_or_create_and_shards_are_independent() {
        let shards = AccountantShards::in_memory();
        let a = shards
            .open("census", ShardConfig::capped(eps(1.0)))
            .unwrap();
        let b = shards
            .open("diabetes", ShardConfig::capped(eps(2.0)))
            .unwrap();
        let a2 = shards
            .open("census", ShardConfig::capped(eps(99.0)))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2), "reopen returns the same shard");
        assert_eq!(a2.cap(), Some(1.0), "config only applies on creation");

        a.try_spend_grant_cancellable(NO_REQUEST, "x", eps(0.4), None)
            .unwrap();
        assert!((a.spent() - 0.4).abs() < 1e-12);
        assert_eq!(b.spent(), 0.0, "spends do not cross shards");
        assert_eq!(shards.names(), vec!["census", "diabetes"]);
    }

    #[test]
    fn durable_shards_get_separate_wals_and_recover() {
        let dir = tmp_dir("recover");
        {
            let shards = AccountantShards::in_dir(&dir).unwrap();
            assert!(shards.is_durable());
            let a = shards
                .open("census", ShardConfig::capped(eps(1.0)))
                .unwrap();
            let b = shards
                .open("so/2024", ShardConfig::capped(eps(1.0)))
                .unwrap();
            a.try_spend_grant_cancellable(1, "request/1", eps(0.3), None)
                .unwrap();
            b.try_spend_grant_cancellable(2, "request/2", eps(0.5), None)
                .unwrap();
            assert_ne!(
                shards.wal_path("census").unwrap(),
                shards.wal_path("so/2024").unwrap()
            );
            assert!(shards.wal_path("census").unwrap().exists());
        }
        // A fresh process: shards recover their own spends from their own
        // WALs, and only theirs.
        let shards = AccountantShards::in_dir(&dir).unwrap();
        let a = shards
            .open("census", ShardConfig::capped(eps(1.0)))
            .unwrap();
        let b = shards
            .open("so/2024", ShardConfig::capped(eps(1.0)))
            .unwrap();
        assert!((a.spent() - 0.3).abs() < 1e-12);
        assert!((b.spent() - 0.5).abs() < 1e-12);
        assert_eq!(a.granted_ids(), vec![1]);
        assert_eq!(b.granted_ids(), vec![2]);
    }

    #[test]
    fn checkpoint_policy_is_threaded_through_config() {
        let dir = tmp_dir("ckpt");
        let shards = AccountantShards::in_dir(&dir).unwrap();
        let shard = shards
            .open(
                "census",
                ShardConfig {
                    cap: Some(eps(10.0)),
                    checkpoint_every: Some(2),
                    ..ShardConfig::default()
                },
            )
            .unwrap();
        for id in 1..=5u64 {
            shard
                .try_spend_grant_cancellable(id, format!("request/{id}"), eps(0.1), None)
                .unwrap();
        }
        let stats = shards.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.checkpoints_written, 2);
        assert_eq!(stats[0].1.appends_since_checkpoint, 1);
    }

    #[test]
    fn escape_name_is_injective_on_tricky_names() {
        let names = [
            "census",
            "a/b",
            "a%2Fb",
            "a b",
            "..",
            ".",
            "",
            "ünïcode",
            "CON",
        ];
        let mut escaped: Vec<String> = names.iter().map(|n| escape_name(n)).collect();
        escaped.sort();
        escaped.dedup();
        assert_eq!(escaped.len(), names.len(), "no collisions");
        for e in &escaped {
            assert!(!e.contains('/'), "{e}");
            assert!(!e.starts_with('.'), "{e}");
        }
    }
}
