//! Property tests of the write-ahead ledger format.
//!
//! These are randomized-but-deterministic: every case is generated from a
//! seeded in-file PRNG (no proptest dependency — the offline build stubs it
//! out, and the format invariants need exhaustive byte-level control anyway):
//!
//! * random grant sequences round-trip write → recover exactly;
//! * truncating the file at **every** byte offset inside the tail record
//!   recovers precisely the preceding records (the torn-tail rule);
//! * a bit-flip anywhere inside an interior record surfaces the typed
//!   [`LedgerError::Corrupt`] — never a panic, never silent acceptance.

use dpx_dp::ledger::{recover, GrantRecord, LedgerError, LedgerWriter, MAGIC, NO_REQUEST};
use std::path::PathBuf;

/// SplitMix64 — tiny, seeded, and good enough to exercise the format.
struct Prng(u64);

impl Prng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn grant(&mut self) -> GrantRecord {
        let request_id = match self.below(4) {
            0 => NO_REQUEST,
            _ => self.below(1_000_000),
        };
        // ε in (0, ~20], never zero, always finite.
        let epsilon = (self.below(1_000_000) + 1) as f64 / 50_000.0;
        let label_len = self.below(40) as usize;
        let label: String = (0..label_len)
            .map(|_| {
                // Mix ASCII with multi-byte UTF-8 so lengths are byte-exact.
                const ALPHABET: [char; 8] = ['a', 'Z', '/', '_', '3', 'ε', 'λ', '·'];
                ALPHABET[self.below(8) as usize]
            })
            .collect();
        // A third of grants are parallel-composition members spread over a
        // few group names, so replay exercises the max-per-group rule.
        let group = match self.below(3) {
            0 => Some(format!("group/{}", self.below(4))),
            _ => None,
        };
        GrantRecord {
            request_id,
            epsilon,
            label,
            group,
        }
    }
}

/// The tight composition bound the recovered spend must equal: sequential
/// grants sum, grouped grants contribute their per-group maximum.
fn tight_spent(grants: &[GrantRecord]) -> f64 {
    let seq: f64 = grants
        .iter()
        .filter(|g| g.group.is_none())
        .map(|g| g.epsilon)
        .sum();
    let mut groups: Vec<(&str, f64)> = Vec::new();
    for g in grants {
        if let Some(name) = g.group.as_deref() {
            match groups.iter_mut().find(|(n, _)| *n == name) {
                Some((_, max)) => *max = max.max(g.epsilon),
                None => groups.push((name, g.epsilon)),
            }
        }
    }
    seq + groups.iter().map(|(_, m)| m).sum::<f64>()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpx-ledger-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn write_grants(path: &PathBuf, grants: &[GrantRecord]) {
    let _ = std::fs::remove_file(path);
    let (mut writer, recovery) = LedgerWriter::open(path).unwrap();
    assert!(recovery.grants.is_empty());
    writer.append(grants).unwrap();
}

#[test]
fn random_grant_sequences_roundtrip() {
    let mut rng = Prng(0xD5C1_05F1);
    for case in 0..64 {
        let grants: Vec<GrantRecord> = (0..rng.below(12)).map(|_| rng.grant()).collect();
        let path = tmp("roundtrip.wal");
        write_grants(&path, &grants);
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.grants, grants, "case {case}");
        assert_eq!(recovery.truncated_bytes, 0, "case {case}");
        let expected = tight_spent(&grants);
        assert!(
            (recovery.spent() - expected).abs() <= 1e-9 * expected.max(1.0),
            "case {case}"
        );
    }
}

#[test]
fn random_sequences_survive_reopen_append_cycles() {
    let mut rng = Prng(0xFEED_BEEF);
    for case in 0..16 {
        let path = tmp("cycles.wal");
        let _ = std::fs::remove_file(&path);
        let mut all: Vec<GrantRecord> = Vec::new();
        for _ in 0..4 {
            let (mut writer, recovery) = LedgerWriter::open(&path).unwrap();
            assert_eq!(recovery.grants, all, "case {case}: reopen sees history");
            for _ in 0..rng.below(5) {
                let g = rng.grant();
                writer.append(std::slice::from_ref(&g)).unwrap();
                all.push(g);
            }
        }
        assert_eq!(recover(&path).unwrap().grants, all, "case {case}");
    }
}

#[test]
fn truncation_at_every_tail_byte_recovers_the_prefix() {
    let mut rng = Prng(0x7041_1041);
    let grants: Vec<GrantRecord> = (0..4).map(|_| rng.grant()).collect();
    let path = tmp("torn.wal");
    write_grants(&path, &grants);
    let full = std::fs::read(&path).unwrap();

    // Locate the tail record's start by re-measuring the first three.
    let prefix_path = tmp("torn-prefix.wal");
    write_grants(&prefix_path, &grants[..3]);
    let tail_start = std::fs::read(&prefix_path).unwrap().len();
    assert!(tail_start < full.len());

    for cut in tail_start..full.len() {
        let torn_path = tmp("torn-cut.wal");
        std::fs::write(&torn_path, &full[..cut]).unwrap();
        let recovery = recover(&torn_path)
            .unwrap_or_else(|e| panic!("cut at byte {cut} must be a torn tail, not an error: {e}"));
        assert_eq!(recovery.grants, grants[..3], "cut at byte {cut}");
        assert_eq!(recovery.valid_len, tail_start as u64, "cut at byte {cut}");
        assert_eq!(
            recovery.truncated_bytes,
            (cut - tail_start) as u64,
            "cut at byte {cut}"
        );

        // Reopening after the cut truncates and accepts a fresh append.
        let (mut writer, _) = LedgerWriter::open(&torn_path).unwrap();
        writer.append(&grants[3..]).unwrap();
        assert_eq!(recover(&torn_path).unwrap().grants, grants, "cut {cut}");
    }
}

#[test]
fn bitflip_in_any_interior_byte_is_typed_corruption() {
    let mut rng = Prng(0xB17F_11B5);
    let grants: Vec<GrantRecord> = (0..3).map(|_| rng.grant()).collect();
    let path = tmp("flip.wal");
    write_grants(&path, &grants);
    let full = std::fs::read(&path).unwrap();

    let interior_path = tmp("flip-interior.wal");
    write_grants(&interior_path, &grants[..2]);
    let interior_end = std::fs::read(&interior_path).unwrap().len();

    for byte in MAGIC.len()..interior_end {
        for bit in [0usize, 3, 7] {
            let mut mutated = full.clone();
            mutated[byte] ^= 1 << bit;
            std::fs::write(&path, &mutated).unwrap();
            match recover(&path) {
                Err(LedgerError::Corrupt { .. }) => {}
                Err(other) => panic!("byte {byte} bit {bit}: wrong error {other:?}"),
                Ok(recovery) => {
                    // The only acceptable "ok" would be a flip recovery cannot
                    // distinguish from valid data — impossible here because
                    // both CRCs cover every interior byte.
                    panic!(
                        "byte {byte} bit {bit}: corruption accepted silently \
                         (recovered {} grants)",
                        recovery.grants.len()
                    );
                }
            }
        }
    }
}

#[test]
fn bitflip_in_magic_is_bad_magic() {
    let grants = vec![GrantRecord::for_request(1, 0.25)];
    let path = tmp("flip-magic.wal");
    write_grants(&path, &grants);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[3] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(recover(&path).unwrap_err(), LedgerError::BadMagic);
}
