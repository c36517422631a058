//! The three workloads, and the seeded request lines they send.
//!
//! Every request field is a pure function of `(seed, op index)`, so a seed
//! fixes the inputs whatever the thread interleaving; the daemon receives
//! only the generated JSONL lines.

use dpx_bench::DatasetKind;
use dpx_data::Dataset;
use dpx_serve::{ExplainRequest, RequestOp};

/// Clusters of the served labeling: `k^9` = 19,683 Stage-2 leaves at k=3.
pub const N_CLUSTERS: usize = 9;
/// `cluster_by` values warmed during set-up on `warm-1m` and `small-append`.
pub const WARM_CLUSTERINGS: usize = 4;
/// On `small-append`, client 0 sends an append in place of every this-many-th op.
pub const APPEND_EVERY: u64 = 32;
/// Rows per append.
pub const APPEND_ROWS: usize = 16;
/// Distinct append batches generated up front; later appends reuse them.
const APPEND_POOL_BATCHES: usize = 256;

/// Which traffic mix a run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Counts-cache hits at 10^6 rows.
    Warm,
    /// Counts-cache misses at 10^6 rows.
    Cold,
    /// Cache hits at 10^3 rows with appends beside the reads.
    SmallAppend,
}

/// One workload: its name, why it exists, and its dataset size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The traffic mix.
    pub kind: Kind,
    /// Name as `--workload` takes it.
    pub name: &'static str,
    /// Why the benchmark has this workload (printed with every run).
    pub why: &'static str,
    /// Rows of the registered dataset.
    pub rows: usize,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        kind: Kind::Warm,
        name: "warm-1m",
        why: "The path analysts hit most: every explain is a counts-cache hit at 10^6 rows, \
              so label derivation and cache keying dominate and the counts kernel barely runs. \
              Shows whether the warm path is O(1) in dataset size.",
        rows: 1_000_000,
    },
    Workload {
        kind: Kind::Cold,
        name: "cold-1m",
        why: "The exploration path: every explain names an unseen (cluster_by, n_clusters) of \
              204 (under the 256-entry cache bound, so no eviction), so each is a miss that scans \
              ~272 MB. Dominated by the counts kernel; warm-path keying is a minor share.",
        rows: 1_000_000,
    },
    Workload {
        kind: Kind::SmallAppend,
        name: "small-append",
        why: "10^3 rows with a 16-row append in place of every 32nd op of one client: \
              apply_delta and fingerprint re-keying run beside reads, and Stage 2, the ledger \
              fsync, wire parse/render and the daemon handoff dominate. Predicts no change for \
              warm-path fixes; exposes read caches that appends must invalidate.",
        rows: 1_000,
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64 over `(seed, stream, index)`: the benchmark's only source of
/// randomness.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_ENGINE_SEED: u64 = 1;
const STREAM_CLUSTER_PICK: u64 = 2;
const STREAM_WARM_SET: u64 = 3;
const STREAM_COLD_ORDER: u64 = 4;
const STREAM_DATA: u64 = 5;

/// The dataset of a workload plus, for `small-append`, the pool of rows
/// its appends send.
pub struct Inputs {
    /// The dataset registered at set-up.
    pub data: Dataset,
    /// Append batches of [`APPEND_ROWS`] rows each (empty unless appending).
    pub append_batches: Vec<Vec<Vec<u32>>>,
    /// The warmed `cluster_by` values.
    pub warm: Vec<usize>,
}

/// Generates the inputs of `workload` from `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let pool = if workload.kind == Kind::SmallAppend {
        APPEND_POOL_BATCHES * APPEND_ROWS
    } else {
        0
    };
    let synth =
        DatasetKind::Census.generate(workload.rows + pool, N_CLUSTERS, mix(seed, STREAM_DATA, 0));
    let all = synth.data;
    let arity = all.schema().arity();
    let append_batches = (0..APPEND_POOL_BATCHES * (pool > 0) as usize)
        .map(|b| {
            (0..APPEND_ROWS)
                .map(|r| {
                    let row = workload.rows + b * APPEND_ROWS + r;
                    (0..arity).map(|a| all.column(a)[row]).collect()
                })
                .collect()
        })
        .collect();
    let data = if pool == 0 {
        all
    } else {
        let columns = (0..arity)
            .map(|a| all.column(a)[..workload.rows].to_vec())
            .collect();
        Dataset::from_columns(all.schema().clone(), columns).expect("prefix of a valid dataset")
    };
    let mut warm = Vec::new();
    let mut i = 0;
    while warm.len() < WARM_CLUSTERINGS.min(arity) {
        let pick = (mix(seed, STREAM_WARM_SET, i) % arity as u64) as usize;
        if !warm.contains(&pick) {
            warm.push(pick);
        }
        i += 1;
    }
    Inputs {
        data,
        append_batches,
        warm,
    }
}

/// Engine seeds stay below 2^53: the wire carries numbers as JSON doubles,
/// so a larger seed would reach the daemon rounded.
const WIRE_SEED_MASK: u64 = (1 << 53) - 1;

fn engine_seed(seed: u64, index: u64) -> u64 {
    mix(seed, STREAM_ENGINE_SEED, index) & WIRE_SEED_MASK
}

/// The explain of op `index` over the warmed clusterings.
pub fn warm_explain(seed: u64, id: u64, index: u64, warm: &[usize]) -> ExplainRequest {
    let pick = warm[(mix(seed, STREAM_CLUSTER_PICK, index) % warm.len() as u64) as usize];
    explain(id, engine_seed(seed, index), pick, N_CLUSTERS)
}

/// Every `(cluster_by, n_clusters)` a `cold-1m` daemon serves once, in a
/// seeded order: 68 attributes × {7, 8, 9} = 204 keys.
pub fn cold_keys(seed: u64, arity: usize) -> Vec<(usize, usize)> {
    let mut keys: Vec<(usize, usize)> = (0..arity)
        .flat_map(|a| (7..=N_CLUSTERS).map(move |n| (a, n)))
        .collect();
    // Fisher–Yates with the benchmark's own generator.
    for i in (1..keys.len()).rev() {
        let j = (mix(seed, STREAM_COLD_ORDER, i as u64) % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    keys
}

/// The explain of op `index` naming clustering `(cluster_by, n)`.
pub fn cold_explain(seed: u64, id: u64, index: u64, key: (usize, usize)) -> ExplainRequest {
    explain(id, engine_seed(seed, index), key.0, key.1)
}

/// A default explain request (k=3, ε 0.1/0.1/0.1).
pub fn explain(id: u64, seed: u64, cluster_by: usize, n_clusters: usize) -> ExplainRequest {
    let mut request = ExplainRequest::new(id);
    request.seed = seed;
    request.cluster_by = cluster_by;
    request.n_clusters = n_clusters;
    request
}

/// An append of `rows` to the default dataset.
pub fn append(id: u64, rows: &[Vec<u32>]) -> ExplainRequest {
    let mut request = ExplainRequest::new(id);
    request.op = RequestOp::Append {
        rows: rows.to_vec(),
    };
    request
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_keys_are_204_distinct_and_seeded() {
        let keys = cold_keys(7, 68);
        assert_eq!(keys.len(), 204);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 204);
        assert_eq!(keys, cold_keys(7, 68));
        assert_ne!(keys, cold_keys(8, 68));
    }

    #[test]
    fn lines_round_trip_through_the_wire_parser() {
        for index in 0..64 {
            let sent = warm_explain(3, 42, index, &[1, 2, 3, 4]);
            let request =
                ExplainRequest::classify_json_line(&sent.to_json_line()).expect("valid line");
            assert_eq!(request, sent);
        }
        let append = append(43, &[vec![0; 3]]).to_json_line();
        assert!(ExplainRequest::classify_json_line(&append)
            .expect("valid line")
            .is_append());
    }
}
