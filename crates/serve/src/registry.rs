//! The dataset registry: named datasets with their shared serving state.
//!
//! Registering a dataset creates one [`DatasetEntry`] holding everything
//! concurrent requests against that dataset must agree on:
//!
//! * the dataset itself behind an `Arc` (requests never copy the data);
//! * one [`SharedCountsCache`], so requests over the same clustering reuse
//!   each other's one-pass count tables;
//! * one [`SharedAccountant`], whose spend is a single atomic
//!   check-and-record — the per-dataset privacy cap holds under any
//!   interleaving of worker threads.
//!
//! Accountants come out of an [`AccountantShards`] map — one shard per
//! dataset, each with its own mutex and (for durable registries built with
//! [`DatasetRegistry::with_shards`]) its own WAL file. Datasets therefore
//! admit, fsync, and recover independently: a corrupt ledger or a hot lock
//! on one dataset never touches another.
//!
//! ## Appends and fingerprint chaining
//!
//! [`DatasetRegistry::append_rows`] grows a registered dataset without a
//! rebuild: the delta rows are validated against the schema, the new dataset
//! is the old columns plus the delta ([`Dataset::concat`] — the old
//! `Arc<Dataset>` is untouched, so in-flight requests keep a consistent
//! snapshot), and the entry is **replaced** by a successor sharing the same
//! accountant and counts cache. The successor's fingerprint is
//! [`chain_fingerprint`]`(parent, delta, total_rows)` — a lineage key
//! computed in O(|delta|) instead of a full rescan. Cached counts for every
//! clustering the entry has served are carried forward through
//! [`ClusteredCounts::apply_delta`] and re-keyed under the chained
//! fingerprint, so the first explain after an append is a cache *hit*, not a
//! million-row rebuild.

use dpclustx::counts::ScoreTable;
use dpclustx::engine::{CountedTables, CountsKey, SharedCountsCache};
use dpx_data::contingency::ClusteredCounts;
use dpx_data::{chain_fingerprint, hash_labels, Dataset};
use dpx_dp::budget::Epsilon;
use dpx_dp::shards::{AccountantShards, ShardConfig};
use dpx_dp::{DpError, SharedAccountant};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

/// Counts-cache bound for registry entries. Appends re-key the fingerprint,
/// so a resident process serving an append stream retires one cache
/// generation per append; the bound keeps the memo at the working set
/// (recent fingerprints × served clusterings) instead of the full history.
pub const COUNTS_CACHE_MAX_ENTRIES: usize = 256;

/// Derives the served per-row cluster labeling for a dataset: row `i` joins
/// cluster `data[cluster_by][i] mod n_clusters`.
///
/// Deterministic per row, which gives the append path its **prefix
/// property**: the labeling of `old ++ delta` is the labeling of `old`
/// followed by the labeling of `delta`, so cached counts can be carried
/// forward with [`ClusteredCounts::apply_delta`] instead of a rescan.
pub fn derive_labels(data: &Dataset, cluster_by: usize, n_clusters: usize) -> Vec<usize> {
    data.column(cluster_by)
        .iter()
        .map(|&v| v as usize % n_clusters)
        .collect()
}

/// What one append did: rows added, the dataset's new size, and how many
/// cached clusterings were delta-refreshed instead of dropped cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendSummary {
    /// Rows appended by this request.
    pub appended: u64,
    /// Total rows in the dataset after the append.
    pub total_rows: u64,
    /// Cached clusterings carried forward via `apply_delta`.
    pub refreshed_clusterings: u64,
}

/// One registered dataset and its shared serving state.
#[derive(Debug)]
pub struct DatasetEntry {
    name: String,
    data: Arc<Dataset>,
    /// Content (or, after appends, lineage) fingerprint — computed once at
    /// registration, chained on append, reused by every request instead of a
    /// per-request full scan.
    fingerprint: u64,
    cache: Arc<SharedCountsCache>,
    accountant: Arc<SharedAccountant>,
    /// Every `(cluster_by, n_clusters)` pair this entry has served, in a
    /// deterministic order — the clusterings worth carrying forward on
    /// append.
    clusterings: Mutex<BTreeSet<(usize, usize)>>,
}

impl DatasetEntry {
    /// Builds an entry around `data`, optionally capping its lifetime ε.
    pub fn new(name: impl Into<String>, data: Arc<Dataset>, cap: Option<Epsilon>) -> Self {
        let accountant = match cap {
            Some(cap) => SharedAccountant::with_cap(cap),
            None => SharedAccountant::new(),
        };
        Self::with_shared(name, data, Arc::new(accountant))
    }

    /// Builds an entry around `data` with a caller-provided accountant —
    /// the crash-safe serving path uses this to install an accountant
    /// rebuilt from a recovered write-ahead ledger.
    pub fn with_accountant(
        name: impl Into<String>,
        data: Arc<Dataset>,
        accountant: SharedAccountant,
    ) -> Self {
        Self::with_shared(name, data, Arc::new(accountant))
    }

    /// Builds an entry around an already-shared accountant — the handle a
    /// shard map hands out, so the entry and the shard map observe the very
    /// same budget.
    pub fn with_shared(
        name: impl Into<String>,
        data: Arc<Dataset>,
        accountant: Arc<SharedAccountant>,
    ) -> Self {
        let fingerprint = data.fingerprint();
        DatasetEntry {
            name: name.into(),
            data,
            fingerprint,
            // Bounded: every append re-keys the fingerprint, and a resident
            // daemon appends indefinitely — an unbounded memo would grow one
            // dead clustering per append forever.
            cache: Arc::new(SharedCountsCache::with_max_entries(
                COUNTS_CACHE_MAX_ENTRIES,
            )),
            accountant,
            clusterings: Mutex::new(BTreeSet::new()),
        }
    }

    /// The entry that replaces this one after an append: new data and
    /// chained fingerprint, same accountant, cache, and served-clustering
    /// history. Replacement (rather than interior mutation) keeps every
    /// in-flight holder of the old entry on a consistent snapshot.
    fn successor(&self, data: Arc<Dataset>, fingerprint: u64) -> Self {
        DatasetEntry {
            name: self.name.clone(),
            data,
            fingerprint,
            cache: Arc::clone(&self.cache),
            accountant: Arc::clone(&self.accountant),
            clusterings: Mutex::new(self.clusterings()),
        }
    }

    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dataset's fingerprint: [`Dataset::fingerprint`] at registration,
    /// [`chain_fingerprint`] after appends. This is the first half of every
    /// counts-cache key for this entry.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Records that a request clustered this dataset by `(cluster_by,
    /// n_clusters)` — the append path refreshes exactly these.
    pub fn note_clustering(&self, cluster_by: usize, n_clusters: usize) {
        self.clusterings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((cluster_by, n_clusters));
    }

    /// Every clustering this entry has served, deterministically ordered.
    pub fn clusterings(&self) -> BTreeSet<(usize, usize)> {
        self.clusterings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// A shared handle to the dataset.
    pub fn data_arc(&self) -> Arc<Dataset> {
        Arc::clone(&self.data)
    }

    /// The dataset's shared counts cache.
    pub fn cache(&self) -> Arc<SharedCountsCache> {
        Arc::clone(&self.cache)
    }

    /// The dataset's budget accountant.
    pub fn accountant(&self) -> &SharedAccountant {
        &self.accountant
    }
}

/// A name → [`DatasetEntry`] map, safe to share across worker threads,
/// backed by a per-dataset [`AccountantShards`] map.
#[derive(Debug)]
pub struct DatasetRegistry {
    shards: Arc<AccountantShards>,
    entries: Mutex<HashMap<String, Arc<DatasetEntry>>>,
}

impl Default for DatasetRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl DatasetRegistry {
    /// An empty registry with purely in-memory accountant shards.
    pub fn new() -> Self {
        Self::with_shards(Arc::new(AccountantShards::in_memory()))
    }

    /// An empty registry over a caller-provided shard map — pass an
    /// [`AccountantShards::in_dir`] map for per-dataset durable WALs.
    pub fn with_shards(shards: Arc<AccountantShards>) -> Self {
        DatasetRegistry {
            shards,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The accountant shard map backing this registry (per-shard stats,
    /// WAL paths).
    pub fn shards(&self) -> &Arc<AccountantShards> {
        &self.shards
    }

    /// Map operations either complete or leave the map unchanged, so
    /// recovering a poisoned lock cannot expose a half-applied update.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<DatasetEntry>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `data` under `name` with an optional lifetime ε cap,
    /// replacing any previous entry of that name (the old entry's
    /// accountant and cache are dropped with it — **reset** semantics, so
    /// the fresh accountant is always in-memory even on a durable-backed
    /// registry; durable budgets are history and have no reset, use
    /// [`DatasetRegistry::register_sharded`] for them). Returns the entry.
    pub fn register(
        &self,
        name: impl Into<String>,
        data: Arc<Dataset>,
        cap: Option<Epsilon>,
    ) -> Arc<DatasetEntry> {
        let name = name.into();
        // Keep the shard map coherent: the replaced entry's shard must not
        // be handed out for the re-registered dataset.
        self.shards.evict(&name);
        let entry = Arc::new(DatasetEntry::new(name.clone(), data, cap));
        self.lock().insert(name, Arc::clone(&entry));
        entry
    }

    /// Registers `data` under `name` on this registry's shard map: the
    /// dataset's accountant is its shard, created with `config` on first
    /// open — and for durable shard maps **recovered** from the dataset's
    /// own WAL file, spent ε and granted request ids included. Replaces any
    /// previous entry of that name (shared-state handles, not the budget:
    /// the shard is get-or-create).
    pub fn register_sharded(
        &self,
        name: impl Into<String>,
        data: Arc<Dataset>,
        config: ShardConfig,
    ) -> Result<Arc<DatasetEntry>, DpError> {
        let name = name.into();
        let shard = self.shards.open(&name, config)?;
        let entry = Arc::new(DatasetEntry::with_shared(name.clone(), data, shard));
        self.lock().insert(name, Arc::clone(&entry));
        Ok(entry)
    }

    /// Registers `data` under `name` with a caller-provided accountant (see
    /// [`DatasetEntry::with_accountant`]), replacing any previous entry.
    /// The accountant lives outside the shard map; prefer
    /// [`DatasetRegistry::register_sharded`] unless the accountant truly
    /// cannot come from a shard.
    pub fn register_with(
        &self,
        name: impl Into<String>,
        data: Arc<Dataset>,
        accountant: SharedAccountant,
    ) -> Arc<DatasetEntry> {
        let name = name.into();
        self.shards.evict(&name);
        let entry = Arc::new(DatasetEntry::with_accountant(
            name.clone(),
            data,
            accountant,
        ));
        self.lock().insert(name, Arc::clone(&entry));
        entry
    }

    /// The entry registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        self.lock().get(name).cloned()
    }

    /// Appends `rows` to the dataset registered under `name`, in
    /// O(|delta| · arity + cached clusterings) — never a full rescan:
    ///
    /// 1. the rows are validated against the schema (any bad row rejects the
    ///    whole append, mutating nothing);
    /// 2. for every `(cluster_by, n_clusters)` the entry has served whose
    ///    counts are cached, the cached [`ClusteredCounts`] are cloned,
    ///    delta-updated with [`ClusteredCounts::apply_delta`], given a fresh
    ///    score table, and re-inserted under the **chained** fingerprint
    ///    (labels keep their full hash — the label vector is the served
    ///    derivation over the grown dataset, old labels a prefix of new);
    /// 3. the entry is replaced by a successor around the concatenated
    ///    dataset and chained fingerprint, sharing the same accountant and
    ///    cache (appends spend no ε — the budget they affect is future
    ///    queries', which the accountant already meters per request).
    ///
    /// Errors (unknown dataset, schema violation) are returned as the wire
    /// error string; the registry is unchanged on any error.
    pub fn append_rows(&self, name: &str, rows: &[Vec<u32>]) -> Result<AppendSummary, String> {
        let entry = self
            .get(name)
            .ok_or_else(|| format!("unknown dataset '{name}'"))?;
        let old = entry.data_arc();
        let delta = Dataset::from_rows(old.schema().clone(), rows).map_err(|e| e.to_string())?;
        let new_data = old.concat(&delta).map_err(|e| e.to_string())?;
        let new_fingerprint = chain_fingerprint(
            entry.fingerprint(),
            delta.fingerprint(),
            new_data.n_rows() as u64,
        );
        let cache = entry.cache();
        let empty = Dataset::empty(old.schema().clone());
        let mut refreshed = 0u64;
        for (cluster_by, n_clusters) in entry.clusterings() {
            let old_labels = derive_labels(&old, cluster_by, n_clusters);
            let old_key = CountsKey {
                dataset_fingerprint: entry.fingerprint(),
                labels_hash: hash_labels(&old_labels, n_clusters),
            };
            let Some(hit) = cache.get(&old_key) else {
                continue;
            };
            let delta_labels = derive_labels(&delta, cluster_by, n_clusters);
            let mut new_labels = old_labels;
            new_labels.extend_from_slice(&delta_labels);
            let new_key = CountsKey {
                dataset_fingerprint: new_fingerprint,
                labels_hash: hash_labels(&new_labels, n_clusters),
            };
            // The re-key goes through the cache's single-flight discipline
            // like any other build: if a racing request is already building
            // (or has built) the chained key, its tables win and the
            // O(|delta|) refresh is skipped instead of overwriting them.
            let (_, was_cached) = cache.get_or_build(new_key, || {
                let mut counts: ClusteredCounts = hit.counts.clone();
                counts.apply_delta(&delta, &delta_labels, &empty, &[]);
                let table = ScoreTable::from_clustered_counts(&counts);
                CountedTables { counts, table }
            });
            if !was_cached {
                refreshed += 1;
            }
        }
        let total_rows = new_data.n_rows() as u64;
        let successor = Arc::new(entry.successor(Arc::new(new_data), new_fingerprint));
        self.lock().insert(name.to_string(), successor);
        Ok(AppendSummary {
            appended: rows.len() as u64,
            total_rows,
            refreshed_clusterings: refreshed,
        })
    }

    /// Removes the entry registered under `name`, returning it. The
    /// dataset's shard is evicted from the shard map too (a durable shard's
    /// WAL file stays on disk — spent ε is history).
    pub fn remove(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        self.shards.evict(name);
        self.lock().remove(name)
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_data::synth::diabetes;
    use dpx_dp::ledger::NO_REQUEST;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Arc<Dataset> {
        let mut rng = StdRng::seed_from_u64(7);
        Arc::new(diabetes::spec(2).generate(200, &mut rng).data)
    }

    #[test]
    fn register_get_remove_roundtrip() {
        let registry = DatasetRegistry::new();
        assert!(registry.is_empty());
        let entry = registry.register("patients", dataset(), Some(Epsilon::new(1.0).unwrap()));
        assert_eq!(entry.name(), "patients");
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["patients".to_string()]);
        let looked_up = registry.get("patients").expect("registered");
        assert!(Arc::ptr_eq(&entry, &looked_up));
        assert!(registry.get("absent").is_none());
        assert!(registry.remove("patients").is_some());
        assert!(registry.is_empty());
    }

    #[test]
    fn reregistering_resets_budget_and_cache() {
        let registry = DatasetRegistry::new();
        let first = registry.register("d", dataset(), Some(Epsilon::new(0.5).unwrap()));
        first
            .accountant()
            .try_spend_grant_cancellable(NO_REQUEST, "warmup", Epsilon::new(0.4).unwrap(), None)
            .unwrap();
        let second = registry.register("d", dataset(), Some(Epsilon::new(0.5).unwrap()));
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(second.accountant().spent(), 0.0);
        assert!(second.cache().is_empty());
    }

    #[test]
    fn sharded_registration_recovers_durable_budget() {
        let dir = std::env::temp_dir().join(format!("dpx-registry-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ShardConfig::capped(Epsilon::new(1.0).unwrap());
        {
            let shards = Arc::new(AccountantShards::in_dir(&dir).unwrap());
            let registry = DatasetRegistry::with_shards(shards);
            let entry = registry.register_sharded("d", dataset(), config).unwrap();
            entry
                .accountant()
                .try_spend_grant_cancellable(7, "request/7", Epsilon::new(0.25).unwrap(), None)
                .unwrap();
        }
        // A fresh registry over the same directory recovers the shard:
        // durable budgets have no reset.
        let shards = Arc::new(AccountantShards::in_dir(&dir).unwrap());
        let registry = DatasetRegistry::with_shards(shards);
        let entry = registry.register_sharded("d", dataset(), config).unwrap();
        assert!((entry.accountant().spent() - 0.25).abs() < 1e-12);
        assert_eq!(entry.accountant().granted_ids(), vec![7]);
        // Re-registering the same name is get-or-create on the shard: the
        // budget carries over within the process as well.
        let again = registry.register_sharded("d", dataset(), config).unwrap();
        assert!((again.accountant().spent() - 0.25).abs() < 1e-12);
        assert_eq!(registry.shards().stats().len(), 1);
    }

    #[test]
    fn append_replaces_entry_and_chains_fingerprint() {
        let registry = DatasetRegistry::new();
        let data = dataset();
        let entry = registry.register("d", Arc::clone(&data), None);
        assert_eq!(entry.fingerprint(), data.fingerprint());
        let row: Vec<u32> = (0..data.schema().arity()).map(|_| 0).collect();
        let summary = registry
            .append_rows("d", &[row.clone(), row.clone()])
            .unwrap();
        assert_eq!(summary.appended, 2);
        assert_eq!(summary.total_rows, data.n_rows() as u64 + 2);
        assert_eq!(summary.refreshed_clusterings, 0, "nothing cached yet");
        let grown = registry.get("d").unwrap();
        assert!(!Arc::ptr_eq(&entry, &grown), "entry replaced");
        assert_eq!(grown.data().n_rows(), data.n_rows() + 2);
        let delta = Dataset::from_rows(data.schema().clone(), &[row.clone(), row]).unwrap();
        assert_eq!(
            grown.fingerprint(),
            chain_fingerprint(
                data.fingerprint(),
                delta.fingerprint(),
                data.n_rows() as u64 + 2
            ),
            "fingerprint chains parent + delta + total"
        );
        // The accountant is shared across the replacement, not reset.
        assert!(Arc::ptr_eq(&entry.accountant, &grown.accountant));
        // Old holders still see the old snapshot.
        assert_eq!(entry.data().n_rows(), data.n_rows());
    }

    #[test]
    fn append_refreshes_cached_clusterings_without_rebuild() {
        use dpclustx::engine::CountsKey;
        use dpx_data::contingency::ClusteredCounts;
        use dpx_data::hash_labels;

        let registry = DatasetRegistry::new();
        let data = dataset();
        let entry = registry.register("d", Arc::clone(&data), None);
        let (cluster_by, n_clusters) = (0usize, 3usize);
        // Simulate a served explain: counts cached under the entry key.
        let labels = derive_labels(&data, cluster_by, n_clusters);
        let counts = ClusteredCounts::build(&data, &labels, n_clusters, 1);
        let table = ScoreTable::from_clustered_counts(&counts);
        entry.cache().insert(
            CountsKey {
                dataset_fingerprint: entry.fingerprint(),
                labels_hash: hash_labels(&labels, n_clusters),
            },
            CountedTables { counts, table },
        );
        entry.note_clustering(cluster_by, n_clusters);

        let rows: Vec<Vec<u32>> = (0..5)
            .map(|i| (0..data.schema().arity()).map(|_| i as u32 % 2).collect())
            .collect();
        let summary = registry.append_rows("d", &rows).unwrap();
        assert_eq!(summary.refreshed_clusterings, 1);

        // The refreshed cache entry must equal a cold one-shot build over
        // the grown dataset, bit for bit.
        let grown = registry.get("d").unwrap();
        let new_labels = derive_labels(grown.data(), cluster_by, n_clusters);
        let refreshed = grown
            .cache()
            .get(&CountsKey {
                dataset_fingerprint: grown.fingerprint(),
                labels_hash: hash_labels(&new_labels, n_clusters),
            })
            .expect("refreshed entry present under the chained key");
        let cold = ClusteredCounts::build(grown.data(), &new_labels, n_clusters, 1);
        assert_eq!(refreshed.counts.n_rows(), cold.n_rows());
        assert_eq!(refreshed.counts.cluster_sizes(), cold.cluster_sizes());
        for a in 0..cold.n_attributes() {
            assert_eq!(refreshed.counts.table(a).flat(), cold.table(a).flat());
            assert_eq!(
                refreshed.counts.table(a).marginal(),
                cold.table(a).marginal()
            );
        }
    }

    #[test]
    fn append_rejects_unknown_dataset_and_bad_rows() {
        let registry = DatasetRegistry::new();
        let data = dataset();
        registry.register("d", Arc::clone(&data), None);
        assert!(registry
            .append_rows("nope", &[])
            .unwrap_err()
            .contains("unknown dataset"));
        // Wrong arity mutates nothing.
        let err = registry.append_rows("d", &[vec![0]]).unwrap_err();
        assert!(!err.is_empty());
        assert_eq!(registry.get("d").unwrap().data().n_rows(), data.n_rows());
    }

    #[test]
    fn derive_labels_is_prefix_stable_under_concat() {
        let data = dataset();
        let row: Vec<u32> = (0..data.schema().arity()).map(|_| 1).collect();
        let delta = Dataset::from_rows(data.schema().clone(), &[row]).unwrap();
        let grown = data.concat(&delta).unwrap();
        let (old, ext) = (derive_labels(&data, 2, 4), derive_labels(&grown, 2, 4));
        assert_eq!(&ext[..old.len()], &old[..], "old labels are a prefix");
        assert_eq!(ext[old.len()..], derive_labels(&delta, 2, 4)[..]);
    }

    #[test]
    fn uncapped_entry_accepts_large_spends() {
        let entry = DatasetEntry::new("open", dataset(), None);
        entry
            .accountant()
            .try_spend_grant_cancellable(NO_REQUEST, "big", Epsilon::new(1e6).unwrap(), None)
            .unwrap();
        assert_eq!(entry.accountant().num_charges(), 1);
    }
}
