//! One-pass (cluster × value) contingency tables.
//!
//! Every quality function in DPClustX — interestingness, sufficiency,
//! diversity, and their sensitive counterparts — is a function of the counts
//! `cnt_{A=a}(D_c)` and `cnt_{A=a}(D)`. Building these once per attribute
//! turns Stage-1's `O(|A|·|C|)` score evaluations and Stage-2's `O(k^|C|)`
//! global-score evaluations into pure arithmetic over cached vectors.
//!
//! ## Flat layout
//!
//! A [`ContingencyTable`] stores its per-cluster counts as **one contiguous,
//! stride-indexed `Vec<u64>`** in cluster-major order: the count
//! `cnt_{A=v}(D_c)` lives at index `c · |dom(A)| + v`. Compared to the
//! earlier `Vec<Vec<u64>>`-of-rows layout this removes one pointer
//! indirection per increment, keeps the whole table in a single allocation,
//! and makes chunk merging plain vector addition. The full-data marginal,
//! the per-cluster sizes, and the grand total are derived once at build time
//! (they are exact column/row sums of the flat table) and stored.
//!
//! ## One kernel
//!
//! [`ClusteredCounts::build`] is the only production path, built from what
//! the counts ablation actually measured on this workload (counting is
//! memory-bound; the tables are L1-resident, so wins come from fewer
//! increments per row and less streamed traffic, not cache blocking):
//!
//! * **Label narrowing once per build** — labels are narrowed to the
//!   smallest width `n_clusters` fits in (`u8`/`u16`/`u32`) in a single
//!   upfront pass shared by every chunk; the kernel is monomorphized per
//!   width.
//! * **Pair-fused joint counting** — where `n_clusters · |dom(A_i)| ·
//!   |dom(A_j)|` stays under [`JOINT_FUSION_MAX_CELLS`], adjacent attribute
//!   pairs are counted into a small *joint* table with one increment per
//!   pair (`joint[base[c] + v_i · |dom(A_j)| + v_j] += 1`, a branch-free
//!   indexed add off a per-cluster base lookup), then marginalized exactly
//!   into both per-attribute sub-tables. Two fused pairs share each row
//!   pass, halving table increments per row versus one increment per
//!   attribute. Attributes whose joint table would blow the threshold fall
//!   back to single-attribute counting — still through the per-cluster base
//!   lookup, which keeps the hot sub-table's base address out of the
//!   dependent multiply chain.
//! * **Worker-claimed chunks with per-thread table reuse** — rows are split
//!   into fixed [`PARALLEL_CHUNK_ROWS`]-row chunks claimed off an atomic
//!   counter ([`dpx_runtime::chunk_worker_reduce`], which never starts more
//!   workers than there are chunks); each worker folds every chunk it claims
//!   into one reusable accumulator (flat table + joint scratch), so table
//!   allocation is paid per worker, not per chunk, and the surviving worker
//!   tables merge through a pairwise tree ([`dpx_runtime::pairwise_merge`]).
//!
//! The frozen serial reference (four attributes per row pass, no fusion, no
//! chunking) and a per-attribute table build survive only in this module's
//! tests, as the oracles the kernel is checked against.
//!
//! All counting is exact integer addition — associative and commutative —
//! so every thread count and every chunk assignment produces
//! **bit-identical** tables; asserted against the oracles by the unit and
//! property tests below.
//!
//! ## Incremental updates
//!
//! [`ClusteredCounts::apply_delta`] folds appended and retired rows into an
//! existing build in `O(|delta| · arity)` — each delta row touches one cell,
//! one marginal entry, and one cluster size per attribute — instead of the
//! `O(n · arity)` full rescan. Retiring a row that was never counted panics
//! on the underflow rather than corrupting the tables. The serve layer uses
//! this to refresh a warm dataset's cached counts on append
//! (fingerprint-chained cache keys; see `dpx-serve`), and the bench crate
//! records the incremental-vs-rebuild ratio in `results/BENCH_fig9.json`.
//!
//! Labels are validated once up front ([`validate_labels`]), shared by all
//! builds, instead of a branch per row inside the counting loop.

use crate::dataset::Dataset;
use crate::histogram::Histogram;
use dpx_runtime::chunk_worker_reduce;
use std::ops::Range;

/// Fixed chunk granule (rows) for the worker-claimed parallel build.
///
/// Chunk size is decoupled from the thread count: workers claim
/// 64 Ki-row chunks off a shared counter, so stragglers self-balance while
/// the per-chunk cost stays one atomic increment plus one joint-table
/// marginalization per pass (the accumulators themselves are reused across
/// chunks). At the 1M-row headline point this yields 16 claims — enough to
/// balance, far too few for claim overhead to show up in the ablation.
pub const PARALLEL_CHUNK_ROWS: usize = 65_536;

/// Upper bound on `n_clusters · |dom(A_i)| · |dom(A_j)|` for an adjacent
/// attribute pair to be counted through a fused joint table.
///
/// The fusion trades one table increment per pair for a joint table that
/// must stay cache-resident and cheap to zero + marginalize per chunk;
/// 64 Ki cells (256 KiB of `u32`) is comfortably inside L2 and two orders
/// of magnitude below the per-chunk row work.
pub const JOINT_FUSION_MAX_CELLS: usize = 1 << 16;

/// Validates a cluster labeling in one upfront pass: one label per row, every
/// label `< n_clusters`.
///
/// # Panics
/// Panics with the counting kernels' documented messages when `labels` has
/// the wrong length or contains an out-of-range label.
pub fn validate_labels(labels: &[usize], n_rows: usize, n_clusters: usize) {
    assert_eq!(labels.len(), n_rows, "one cluster label per tuple required");
    if let Some(&c) = labels.iter().find(|&&c| c >= n_clusters) {
        panic!("label {c} out of range ({n_clusters})");
    }
}

/// Per-attribute contingency table: counts of each domain value inside each
/// cluster (flat, cluster-major) plus the full-data marginal, per-cluster
/// sizes, and total — all computed once at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContingencyTable {
    /// `flat[c * dom + v] = cnt_{A=v}(D_c)` — cluster-major rows.
    flat: Vec<u64>,
    /// Domain size `|dom(A)|` (the row stride of `flat`).
    dom: usize,
    /// Number of clusters (the row count of `flat`).
    n_clusters: usize,
    /// `marginal[v] = cnt_{A=v}(D) = Σ_c flat[c·dom + v]`.
    marginal: Vec<u64>,
    /// `|D_c|` per cluster.
    cluster_sizes: Vec<u64>,
    /// `|D|`.
    total: u64,
}

impl ContingencyTable {
    /// Finalizes a flat cluster-major count table: derives the marginal, the
    /// cluster sizes, and the total (exact `u64` sums, so the derived fields
    /// are identical however the flat table was accumulated).
    pub(crate) fn from_flat(flat: Vec<u64>, n_clusters: usize, dom: usize) -> Self {
        assert_eq!(flat.len(), n_clusters * dom, "flat table shape mismatch");
        let mut marginal = vec![0u64; dom];
        let mut cluster_sizes = vec![0u64; n_clusters];
        for (c, row) in flat.chunks_exact(dom.max(1)).enumerate().take(n_clusters) {
            let mut size = 0u64;
            for (m, &x) in marginal.iter_mut().zip(row) {
                *m += x;
                size += x;
            }
            cluster_sizes[c] = size;
        }
        let total = cluster_sizes.iter().sum();
        ContingencyTable {
            flat,
            dom,
            n_clusters,
            marginal,
            cluster_sizes,
            total,
        }
    }

    /// Folds appended rows of this table's attribute into the counts: one
    /// cell, one marginal entry, and one cluster size per row. Exact `u64`
    /// addition — identical to having counted the rows at build time.
    pub(crate) fn add_rows(&mut self, column: &[u32], labels: &[usize]) {
        for (&v, &c) in column.iter().zip(labels) {
            self.flat[c * self.dom + v as usize] += 1;
            self.marginal[v as usize] += 1;
            self.cluster_sizes[c] += 1;
        }
        self.total += column.len() as u64;
    }

    /// Removes retired rows of this table's attribute from the counts.
    ///
    /// # Panics
    /// Panics if a retired row was never counted (its cell would underflow) —
    /// the delta is rejected loudly instead of corrupting the table.
    pub(crate) fn retire_rows(&mut self, column: &[u32], labels: &[usize]) {
        for (&v, &c) in column.iter().zip(labels) {
            let cell = &mut self.flat[c * self.dom + v as usize];
            *cell = cell
                .checked_sub(1)
                .expect("retired row not present in counts");
            // The cell is a lower bound for its marginal / size / total
            // aggregates, so these cannot underflow once the cell held.
            self.marginal[v as usize] -= 1;
            self.cluster_sizes[c] -= 1;
            self.total -= 1;
        }
    }

    /// Number of clusters.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Domain size of the underlying attribute.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.dom
    }

    /// `cnt_{A=v}(D_c)`.
    #[inline]
    pub fn cluster_count(&self, c: usize, v: u32) -> u64 {
        self.flat[c * self.dom + v as usize]
    }

    /// All per-value counts of cluster `c` — a stride-indexed slice of the
    /// flat table.
    #[inline]
    pub fn cluster_row(&self, c: usize) -> &[u64] {
        &self.flat[c * self.dom..(c + 1) * self.dom]
    }

    /// The whole flat cluster-major table (`n_clusters · dom` entries).
    #[inline]
    pub fn flat(&self) -> &[u64] {
        &self.flat
    }

    /// `cnt_{A=v}(D)`.
    #[inline]
    pub fn marginal_count(&self, v: u32) -> u64 {
        self.marginal[v as usize]
    }

    /// The full-data marginal counts.
    #[inline]
    pub fn marginal(&self) -> &[u64] {
        &self.marginal
    }

    /// `|D_c|`.
    #[inline]
    pub fn cluster_size(&self, c: usize) -> u64 {
        self.cluster_sizes[c]
    }

    /// All cluster sizes (computed once at build time).
    #[inline]
    pub fn cluster_sizes(&self) -> &[u64] {
        &self.cluster_sizes
    }

    /// `|D|` (computed once at build time).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The in-cluster histogram `h_A(D_c)`.
    pub fn cluster_histogram(&self, c: usize) -> Histogram {
        Histogram::from_counts(self.cluster_row(c).to_vec())
    }

    /// The full-data histogram `h_A(D)`.
    pub fn marginal_histogram(&self) -> Histogram {
        Histogram::from_counts(self.marginal.clone())
    }

    /// The out-of-cluster histogram `h_A(D \ D_c)`.
    pub fn complement_histogram(&self, c: usize) -> Histogram {
        Histogram::from_counts(
            self.marginal
                .iter()
                .zip(self.cluster_row(c))
                .map(|(&m, &k)| m - k)
                .collect(),
        )
    }
}

/// Label storage width for the once-per-build narrowed label buffer. The
/// counting kernels are monomorphized over this, so the narrow widths pay no
/// per-row conversion.
trait LabelCode: Copy + Send + Sync {
    fn from_label(c: usize) -> Self;
    fn index(self) -> usize;
}

macro_rules! impl_label_code {
    ($($t:ty),*) => {$(
        impl LabelCode for $t {
            #[inline(always)]
            fn from_label(c: usize) -> Self {
                c as $t
            }
            #[inline(always)]
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
impl_label_code!(u8, u16, u32);

/// Labels narrowed once per build to the smallest width `n_clusters` fits in.
enum NarrowedLabels {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

fn narrow_labels(labels: &[usize], n_clusters: usize) -> NarrowedLabels {
    // Validated labels satisfy `c < n_clusters`, so `n_clusters <= 256`
    // guarantees every label fits u8, etc.
    if n_clusters <= 1 << 8 {
        NarrowedLabels::U8(labels.iter().map(|&c| LabelCode::from_label(c)).collect())
    } else if n_clusters <= 1 << 16 {
        NarrowedLabels::U16(labels.iter().map(|&c| LabelCode::from_label(c)).collect())
    } else {
        NarrowedLabels::U32(labels.iter().map(|&c| LabelCode::from_label(c)).collect())
    }
}

/// One row pass of the optimized kernel. Passes cover the attributes in
/// ascending order, each attribute exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Attributes `a..a+4`, both adjacent pairs fused into joint tables —
    /// two increments per row serve four attribute tables.
    TwoPairs { a: usize },
    /// Attributes `a..a+2` fused into one joint table.
    OnePair { a: usize },
    /// Attribute `a` counted directly (joint table would exceed
    /// [`JOINT_FUSION_MAX_CELLS`], or no partner attribute is left).
    Single { a: usize },
}

/// Plans the pass sequence for a schema: greedily fuse adjacent pairs where
/// the joint table stays small, fall back to single-attribute passes where
/// it would not. Pure function of `(doms, n_clusters)`, shared by every
/// worker.
fn plan_passes(doms: &[usize], n_clusters: usize) -> Vec<Pass> {
    let fusable = |a: usize| {
        n_clusters
            .saturating_mul(doms[a])
            .saturating_mul(doms[a + 1])
            <= JOINT_FUSION_MAX_CELLS
    };
    let mut passes = Vec::new();
    let mut a = 0;
    while a < doms.len() {
        if a + 4 <= doms.len() && fusable(a) && fusable(a + 2) {
            passes.push(Pass::TwoPairs { a });
            a += 4;
        } else if a + 2 <= doms.len() && fusable(a) {
            passes.push(Pass::OnePair { a });
            a += 2;
        } else {
            passes.push(Pass::Single { a });
            a += 1;
        }
    }
    passes
}

/// Per-worker scratch for the optimized kernel, reused across every pass and
/// every chunk the worker claims: two joint tables and two per-cluster base
/// lookups. Buffers grow to the largest pass once and stay allocated.
#[derive(Default)]
struct JointScratch {
    joint0: Vec<u32>,
    joint1: Vec<u32>,
    base0: Vec<u32>,
    base1: Vec<u32>,
}

/// Zeroes-and-sizes a scratch buffer for one pass.
#[inline]
fn reset(buf: &mut Vec<u32>, len: usize) {
    buf.clear();
    buf.resize(len, 0);
}

/// Fills `base[c] = c · stride` — the per-cluster row origin lookup that
/// keeps the hot index computation a single add off a table instead of a
/// dependent multiply.
#[inline]
fn fill_bases(base: &mut Vec<u32>, n_clusters: usize, stride: usize) {
    base.clear();
    base.extend((0..n_clusters).map(|c| (c * stride) as u32));
}

/// Marginalizes one fused joint table (layout `joint[c·d0·d1 + v0·d1 + v1]`)
/// exactly into the two per-attribute sub-tables `s0` (stride `d0`) and `s1`
/// (stride `d1`). Pure `u32` addition, so fusing is unobservable in the
/// output.
fn marginalize_pair(
    joint: &[u32],
    n_clusters: usize,
    d0: usize,
    d1: usize,
    s0: &mut [u32],
    s1: &mut [u32],
) {
    let dp = d0 * d1;
    for c in 0..n_clusters {
        let jrow = &joint[c * dp..(c + 1) * dp];
        let r0 = &mut s0[c * d0..(c + 1) * d0];
        let r1 = &mut s1[c * d1..(c + 1) * d1];
        for (v0, seg) in jrow.chunks_exact(d1.max(1)).enumerate().take(d0) {
            let mut sum = 0u32;
            for (t, &x) in r1.iter_mut().zip(seg) {
                *t += x;
                sum += x;
            }
            r0[v0] += sum;
        }
    }
}

/// Counts one fused pair of columns into `joint` over `range`.
#[inline]
fn count_pair_span<L: LabelCode>(
    lab: &[L],
    c0: &[u32],
    c1: &[u32],
    d1: usize,
    base: &[u32],
    joint: &mut [u32],
) {
    let d1w = d1 as u32;
    for ((&c, &v0), &v1) in lab.iter().zip(c0).zip(c1) {
        joint[(base[c.index()] + v0 * d1w + v1) as usize] += 1;
    }
}

/// One chunk of the optimized kernel: runs every planned pass over `range`,
/// accumulating into the worker's flat table (fused pairs detour through the
/// reusable joint scratch and are marginalized exactly).
#[allow(clippy::too_many_arguments)] // the chunk kernel's full working set
fn count_span<L: LabelCode>(
    data: &Dataset,
    lab: &[L],
    range: Range<usize>,
    n_clusters: usize,
    doms: &[usize],
    passes: &[Pass],
    flat: &mut [u32],
    scratch: &mut JointScratch,
) {
    let lab = &lab[range.clone()];
    let mut rest: &mut [u32] = flat;
    for &pass in passes {
        match pass {
            Pass::TwoPairs { a } => {
                let (d0, d1, d2, d3) = (doms[a], doms[a + 1], doms[a + 2], doms[a + 3]);
                let (dp0, dp1) = (d0 * d1, d2 * d3);
                let taken = rest;
                let (s0, tail) = taken.split_at_mut(n_clusters * d0);
                let (s1, tail) = tail.split_at_mut(n_clusters * d1);
                let (s2, tail) = tail.split_at_mut(n_clusters * d2);
                let (s3, tail) = tail.split_at_mut(n_clusters * d3);
                rest = tail;
                reset(&mut scratch.joint0, n_clusters * dp0);
                reset(&mut scratch.joint1, n_clusters * dp1);
                fill_bases(&mut scratch.base0, n_clusters, dp0);
                fill_bases(&mut scratch.base1, n_clusters, dp1);
                let c0 = &data.column(a)[range.clone()];
                let c1 = &data.column(a + 1)[range.clone()];
                let c2 = &data.column(a + 2)[range.clone()];
                let c3 = &data.column(a + 3)[range.clone()];
                let (d1w, d3w) = (d1 as u32, d3 as u32);
                let (joint0, joint1) = (&mut scratch.joint0[..], &mut scratch.joint1[..]);
                let (base0, base1) = (&scratch.base0[..], &scratch.base1[..]);
                for ((((&c, &v0), &v1), &v2), &v3) in lab.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
                    let c = c.index();
                    joint0[(base0[c] + v0 * d1w + v1) as usize] += 1;
                    joint1[(base1[c] + v2 * d3w + v3) as usize] += 1;
                }
                marginalize_pair(joint0, n_clusters, d0, d1, s0, s1);
                marginalize_pair(joint1, n_clusters, d2, d3, s2, s3);
            }
            Pass::OnePair { a } => {
                let (d0, d1) = (doms[a], doms[a + 1]);
                let dp = d0 * d1;
                let taken = rest;
                let (s0, tail) = taken.split_at_mut(n_clusters * d0);
                let (s1, tail) = tail.split_at_mut(n_clusters * d1);
                rest = tail;
                reset(&mut scratch.joint0, n_clusters * dp);
                fill_bases(&mut scratch.base0, n_clusters, dp);
                count_pair_span(
                    lab,
                    &data.column(a)[range.clone()],
                    &data.column(a + 1)[range.clone()],
                    d1,
                    &scratch.base0,
                    &mut scratch.joint0,
                );
                marginalize_pair(&scratch.joint0, n_clusters, d0, d1, s0, s1);
            }
            Pass::Single { a } => {
                let dom = doms[a];
                let taken = rest;
                let (sub, tail) = taken.split_at_mut(n_clusters * dom);
                rest = tail;
                fill_bases(&mut scratch.base0, n_clusters, dom);
                let base = &scratch.base0[..];
                for (&v, &c) in data.column(a)[range.clone()].iter().zip(lab) {
                    sub[(base[c.index()] + v) as usize] += 1;
                }
            }
        }
    }
}

/// Contingency tables for every attribute of a dataset — the shared input to
/// Stage-1, Stage-2, and all baselines. Built by the worker-claimed kernel
/// ([`Self::build`]), bit-identical at every thread count; updated in place
/// by [`Self::apply_delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusteredCounts {
    tables: Vec<ContingencyTable>,
    n_clusters: usize,
    n_rows: u64,
    /// `|D_c|` per cluster, shared across attributes (computed once).
    cluster_sizes: Vec<u64>,
}

/// Per-attribute domain sizes and flat sub-table offsets, shared by the
/// kernel and the test oracle.
fn table_layout(data: &Dataset, n_clusters: usize) -> (Vec<usize>, Vec<usize>, usize) {
    let arity = data.schema().arity();
    let doms: Vec<usize> = (0..arity)
        .map(|a| data.schema().attribute(a).domain.size())
        .collect();
    let mut offsets = Vec::with_capacity(arity + 1);
    let mut acc = 0usize;
    for &dom in &doms {
        offsets.push(acc);
        acc += n_clusters * dom;
    }
    offsets.push(acc);
    (doms, offsets, acc)
}

impl ClusteredCounts {
    /// Builds tables for all attributes: labels narrowed once to the
    /// smallest width that fits `n_clusters`, adjacent attribute pairs fused
    /// into joint tables where they stay under [`JOINT_FUSION_MAX_CELLS`],
    /// rows claimed in [`PARALLEL_CHUNK_ROWS`] chunks by `threads` workers
    /// that each reuse one accumulator, worker tables merged through a
    /// pairwise tree.
    ///
    /// `threads` is taken literally, except that no more workers start than
    /// there are chunks (so below one chunk the build runs on the calling
    /// thread). The output is **bit-identical** for every `threads` value and
    /// every chunk assignment: all counting is exact, commutative integer
    /// addition.
    ///
    /// # Panics
    /// Panics if `labels.len() != data.n_rows()` or a label is out of range
    /// (validated in one upfront pass, not per counted row).
    pub fn build(data: &Dataset, labels: &[usize], n_clusters: usize, threads: usize) -> Self {
        validate_labels(labels, data.n_rows(), n_clusters);
        let (doms, offsets, flat_len) = table_layout(data, n_clusters);
        // Worker counters are u32: no single count can exceed the row count,
        // which in-memory datasets keep far below `u32::MAX` (asserted), and
        // the halved table footprint keeps the hot counters cache-resident.
        // Counts widen to u64 only once, after the exact u32 merge.
        assert!(
            data.n_rows() < u32::MAX as usize,
            "dataset too large for u32 count chunks"
        );
        let passes = plan_passes(&doms, n_clusters);
        // Labels narrow once for the whole build (not per chunk): one pass,
        // and the narrow widths quarter/halve the per-pass label traffic.
        let flat = match narrow_labels(labels, n_clusters) {
            NarrowedLabels::U8(lab) => {
                Self::count_all(data, &lab, n_clusters, &doms, &passes, flat_len, threads)
            }
            NarrowedLabels::U16(lab) => {
                Self::count_all(data, &lab, n_clusters, &doms, &passes, flat_len, threads)
            }
            NarrowedLabels::U32(lab) => {
                Self::count_all(data, &lab, n_clusters, &doms, &passes, flat_len, threads)
            }
        };
        Self::assemble(flat, &doms, &offsets, n_clusters, data.n_rows())
    }

    /// Runs the monomorphized counting kernel over all rows: workers claim
    /// [`PARALLEL_CHUNK_ROWS`]-row chunks, fold each into a reusable
    /// `(flat table, joint scratch)` accumulator, and the per-worker tables
    /// merge through a pairwise tree.
    fn count_all<L: LabelCode>(
        data: &Dataset,
        lab: &[L],
        n_clusters: usize,
        doms: &[usize],
        passes: &[Pass],
        flat_len: usize,
        threads: usize,
    ) -> Vec<u32> {
        chunk_worker_reduce(
            data.n_rows(),
            PARALLEL_CHUNK_ROWS,
            threads,
            || (vec![0u32; flat_len], JointScratch::default()),
            |acc: &mut (Vec<u32>, JointScratch), range| {
                count_span(
                    data, lab, range, n_clusters, doms, passes, &mut acc.0, &mut acc.1,
                );
            },
            |acc, part| {
                for (a, b) in acc.0.iter_mut().zip(part.0) {
                    *a += b;
                }
            },
        )
        .map(|(flat, _)| flat)
        .unwrap_or_else(|| vec![0u32; flat_len])
    }

    /// Widens a merged flat all-attribute `u32` buffer to `u64` and splits it
    /// into per-attribute tables (back to front so each split is a cheap
    /// truncation). Shared with the test oracle, so the final table
    /// derivation is identical by construction.
    fn assemble(
        merged: Vec<u32>,
        doms: &[usize],
        offsets: &[usize],
        n_clusters: usize,
        n_rows: usize,
    ) -> Self {
        let mut merged: Vec<u64> = merged.into_iter().map(u64::from).collect();
        let arity = doms.len();
        let mut tables = Vec::with_capacity(arity);
        for a in (0..arity).rev() {
            let sub = merged.split_off(offsets[a]);
            tables.push(ContingencyTable::from_flat(sub, n_clusters, doms[a]));
        }
        tables.reverse();
        let cluster_sizes = tables
            .first()
            .map(|t| t.cluster_sizes().to_vec())
            .unwrap_or_else(|| vec![0u64; n_clusters]);
        ClusteredCounts {
            tables,
            n_clusters,
            n_rows: n_rows as u64,
            cluster_sizes,
        }
    }

    /// Folds a delta — `added` rows with `added_labels`, then `retired` rows
    /// with `retired_labels` — into the existing tables in
    /// `O(|delta| · arity)`: every table, its marginal, its cluster sizes,
    /// its total, and the shared `cluster_sizes`/`n_rows` are updated
    /// exactly, with no rescan of the already-counted rows.
    ///
    /// Because every update is exact integer addition, the result is
    /// **bit-identical** to a one-shot [`Self::build`] over the equivalent
    /// final dataset (original + added − retired), for any split into base
    /// and delta — property-tested in `tests/properties.rs`, including the
    /// empty-delta and all-rows-retired edges. Adds are applied before
    /// retires, so a row may appear in both sides of one delta.
    ///
    /// # Panics
    /// Panics if either delta dataset's schema shape (arity or domain
    /// sizes) differs from the tables, if a label slice is the wrong length
    /// or out of range, or if a retired row was never counted (underflow is
    /// rejected, not wrapped).
    pub fn apply_delta(
        &mut self,
        added: &Dataset,
        added_labels: &[usize],
        retired: &Dataset,
        retired_labels: &[usize],
    ) {
        for (name, delta) in [("added", added), ("retired", retired)] {
            assert_eq!(
                delta.schema().arity(),
                self.tables.len(),
                "{name} delta arity mismatch"
            );
            for (a, table) in self.tables.iter().enumerate() {
                assert_eq!(
                    delta.schema().attribute(a).domain.size(),
                    table.domain_size(),
                    "{name} delta domain mismatch at attribute {a}"
                );
            }
        }
        validate_labels(added_labels, added.n_rows(), self.n_clusters);
        validate_labels(retired_labels, retired.n_rows(), self.n_clusters);
        for (a, table) in self.tables.iter_mut().enumerate() {
            table.add_rows(added.column(a), added_labels);
            table.retire_rows(retired.column(a), retired_labels);
        }
        self.n_rows = self
            .n_rows
            .checked_add(added.n_rows() as u64)
            .and_then(|n| n.checked_sub(retired.n_rows() as u64))
            .expect("retired more rows than the counts hold");
        if let Some(first) = self.tables.first() {
            // Derived exactly as `assemble` does — from the first table —
            // so a delta-updated build stays field-for-field identical to a
            // one-shot build.
            self.cluster_sizes = first.cluster_sizes().to_vec();
        }
    }

    /// The table for attribute `a`.
    #[inline]
    pub fn table(&self, a: usize) -> &ContingencyTable {
        &self.tables[a]
    }

    /// Number of attributes covered.
    #[inline]
    pub fn n_attributes(&self) -> usize {
        self.tables.len()
    }

    /// Number of clusters.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// `|D|`.
    #[inline]
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// `|D_c]` for one cluster.
    #[inline]
    pub fn cluster_size(&self, c: usize) -> u64 {
        self.cluster_sizes[c]
    }

    /// All cluster sizes (identical across attributes; computed once at
    /// build time).
    #[inline]
    pub fn cluster_sizes(&self) -> &[u64] {
        &self.cluster_sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Domain, Schema};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Per-attribute oracle: one direct `u64` increment per row.
    fn oracle_table(
        data: &Dataset,
        attr: usize,
        labels: &[usize],
        n_clusters: usize,
    ) -> ContingencyTable {
        validate_labels(labels, data.n_rows(), n_clusters);
        let dom = data.schema().attribute(attr).domain.size();
        let mut flat = vec![0u64; n_clusters * dom];
        for (&v, &c) in data.column(attr).iter().zip(labels) {
            flat[c * dom + v as usize] += 1;
        }
        ContingencyTable::from_flat(flat, n_clusters, dom)
    }

    /// The frozen serial reference: one single-threaded scan, labels
    /// narrowed to `u32` once, four attributes per row pass into `u32`
    /// sub-tables — no fusion, no chunking, no narrow label widths.
    fn oracle_counts(data: &Dataset, labels: &[usize], n_clusters: usize) -> ClusteredCounts {
        validate_labels(labels, data.n_rows(), n_clusters);
        let (doms, offsets, flat_len) = table_layout(data, n_clusters);
        let arity = doms.len();
        let mut flat = vec![0u32; flat_len];
        let lab: Vec<u32> = labels.iter().map(|&c| c as u32).collect();
        let mut rest: &mut [u32] = &mut flat;
        let mut a = 0;
        while a + 4 <= arity {
            let (d0, d1, d2, d3) = (doms[a], doms[a + 1], doms[a + 2], doms[a + 3]);
            let taken = rest;
            let (s0, tail) = taken.split_at_mut(n_clusters * d0);
            let (s1, tail) = tail.split_at_mut(n_clusters * d1);
            let (s2, tail) = tail.split_at_mut(n_clusters * d2);
            let (s3, tail) = tail.split_at_mut(n_clusters * d3);
            rest = tail;
            let c0 = data.column(a);
            let c1 = data.column(a + 1);
            let c2 = data.column(a + 2);
            let c3 = data.column(a + 3);
            for ((((&c, &v0), &v1), &v2), &v3) in lab.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
                let c = c as usize;
                s0[c * d0 + v0 as usize] += 1;
                s1[c * d1 + v1 as usize] += 1;
                s2[c * d2 + v2 as usize] += 1;
                s3[c * d3 + v3 as usize] += 1;
            }
            a += 4;
        }
        while a < arity {
            let dom = doms[a];
            let taken = rest;
            let (sub, tail) = taken.split_at_mut(n_clusters * dom);
            rest = tail;
            for (&v, &c) in data.column(a).iter().zip(&lab) {
                sub[c as usize * dom + v as usize] += 1;
            }
            a += 1;
        }
        ClusteredCounts::assemble(flat, &doms, &offsets, n_clusters, data.n_rows())
    }

    /// Asserts `built` equals both oracles: the frozen serial reference as a
    /// whole, and the per-attribute oracle table by table.
    fn assert_matches_oracles(
        data: &Dataset,
        labels: &[usize],
        n_clusters: usize,
        built: &ClusteredCounts,
        tag: &str,
    ) {
        assert_counts_identical(&oracle_counts(data, labels, n_clusters), built, tag);
        for a in 0..data.schema().arity() {
            let oracle = oracle_table(data, a, labels, n_clusters);
            assert_eq!(built.table(a), &oracle, "{tag}: attr {a} vs table oracle");
        }
    }

    fn dataset_and_labels() -> (Dataset, Vec<usize>) {
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(3)).unwrap(),
            Attribute::new("y", Domain::indexed(2)).unwrap(),
        ])
        .unwrap();
        let rows = vec![
            vec![0, 0], // c0
            vec![0, 1], // c0
            vec![1, 1], // c1
            vec![2, 1], // c1
            vec![2, 0], // c0
        ];
        let data = Dataset::from_rows(schema, &rows).unwrap();
        (data, vec![0, 0, 1, 1, 0])
    }

    /// Attribute `attr`'s table of [`dataset_and_labels`] under `n_clusters`.
    fn small_table(attr: usize, n_clusters: usize) -> ContingencyTable {
        let (data, labels) = dataset_and_labels();
        ClusteredCounts::build(&data, &labels, n_clusters, 1)
            .table(attr)
            .clone()
    }

    #[test]
    fn counts_match_manual_tally() {
        let t = small_table(0, 2);
        assert_eq!(t.cluster_count(0, 0), 2);
        assert_eq!(t.cluster_count(0, 2), 1);
        assert_eq!(t.cluster_count(1, 1), 1);
        assert_eq!(t.cluster_count(1, 2), 1);
        assert_eq!(t.marginal_count(2), 2);
        assert_eq!(t.cluster_size(0), 3);
        assert_eq!(t.cluster_size(1), 2);
        assert_eq!(t.total(), 5);
    }

    #[test]
    fn flat_layout_is_cluster_major() {
        let t = small_table(0, 2);
        assert_eq!(t.flat().len(), 2 * 3);
        for c in 0..2 {
            for v in 0..3u32 {
                assert_eq!(t.flat()[c * 3 + v as usize], t.cluster_count(c, v));
            }
        }
        assert_eq!(t.cluster_row(1), &t.flat()[3..6]);
    }

    #[test]
    fn marginal_equals_sum_of_cluster_rows() {
        let t = small_table(0, 2);
        for v in 0..3u32 {
            let sum: u64 = (0..2).map(|c| t.cluster_count(c, v)).sum();
            assert_eq!(sum, t.marginal_count(v));
        }
    }

    #[test]
    fn histograms_are_consistent() {
        let t = small_table(1, 2);
        let h0 = t.cluster_histogram(0);
        let hc = t.complement_histogram(0);
        let hm = t.marginal_histogram();
        assert_eq!(h0.add(&hc), hm);
        assert_eq!(h0.total(), 3);
        assert_eq!(hc.total(), 2);
    }

    #[test]
    fn empty_cluster_allowed() {
        // Declare 3 clusters; cluster 2 is empty.
        let t = small_table(0, 3);
        assert_eq!(t.cluster_size(2), 0);
        assert_eq!(t.cluster_histogram(2).total(), 0);
    }

    #[test]
    #[should_panic(expected = "one cluster label per tuple")]
    fn wrong_label_count_panics() {
        let (data, _) = dataset_and_labels();
        ClusteredCounts::build(&data, &[0, 1], 2, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let (data, mut labels) = dataset_and_labels();
        labels[0] = 7;
        ClusteredCounts::build(&data, &labels, 2, 1);
    }

    #[test]
    #[should_panic(expected = "one cluster label per tuple")]
    fn parallel_wrong_label_count_panics() {
        let (data, _) = dataset_and_labels();
        ClusteredCounts::build(&data, &[0, 1], 2, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn parallel_out_of_range_label_panics() {
        let (data, mut labels) = dataset_and_labels();
        labels[3] = 9;
        ClusteredCounts::build(&data, &labels, 2, 4);
    }

    #[test]
    fn clustered_counts_covers_all_attributes() {
        let (data, labels) = dataset_and_labels();
        let cc = ClusteredCounts::build(&data, &labels, 2, 1);
        assert_eq!(cc.n_attributes(), 2);
        assert_eq!(cc.n_clusters(), 2);
        assert_eq!(cc.n_rows(), 5);
        assert_eq!(cc.cluster_sizes(), &[3, 2]);
        assert_eq!(cc.table(1).marginal_count(1), 3);
    }

    fn assert_counts_identical(a: &ClusteredCounts, b: &ClusteredCounts, tag: &str) {
        assert_eq!(a.n_attributes(), b.n_attributes(), "{tag}: arity");
        assert_eq!(a.n_clusters(), b.n_clusters(), "{tag}: clusters");
        assert_eq!(a.n_rows(), b.n_rows(), "{tag}: rows");
        assert_eq!(a.cluster_sizes(), b.cluster_sizes(), "{tag}: sizes");
        for at in 0..a.n_attributes() {
            let (ta, tb) = (a.table(at), b.table(at));
            assert_eq!(ta.flat(), tb.flat(), "{tag}: attr {at} flat counts");
            assert_eq!(ta.marginal(), tb.marginal(), "{tag}: attr {at} marginal");
            assert_eq!(
                ta.cluster_sizes(),
                tb.cluster_sizes(),
                "{tag}: attr {at} sizes"
            );
            assert_eq!(ta.total(), tb.total(), "{tag}: attr {at} total");
        }
    }

    fn random_case(rng: &mut StdRng, max_clusters: usize) -> (Dataset, Vec<usize>, usize) {
        let arity = rng.gen_range(1..=5usize);
        let n_clusters = rng.gen_range(1..=max_clusters);
        let n_rows = rng.gen_range(0..=40usize);
        let schema = Schema::new(
            (0..arity)
                .map(|a| {
                    let dom = rng.gen_range(1..=7usize);
                    Attribute::new(format!("a{a}"), Domain::indexed(dom)).unwrap()
                })
                .collect(),
        )
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..n_rows)
            .map(|_| {
                (0..arity)
                    .map(|a| {
                        let dom = schema.attribute(a).domain.size() as u32;
                        rng.gen_range(0..dom)
                    })
                    .collect()
            })
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        // Bias labels so some clusters stay empty in some cases.
        let labels: Vec<usize> = (0..n_rows)
            .map(|_| rng.gen_range(0..n_clusters.div_ceil(2).max(1)))
            .collect();
        (data, labels, n_clusters)
    }

    /// Seeded-random equivalence sweep: random shapes including empty
    /// clusters and single-row datasets, across `threads ∈ {1, 2, 7, 64}`.
    #[test]
    fn build_is_bit_identical_to_oracles() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for case in 0..25 {
            let (data, labels, n_clusters) = random_case(&mut rng, 6);
            for threads in [1usize, 2, 7, 64] {
                let built = ClusteredCounts::build(&data, &labels, n_clusters, threads);
                let tag = format!("case {case}, threads {threads}");
                assert_matches_oracles(&data, &labels, n_clusters, &built, &tag);
            }
        }
    }

    /// Row counts straddling the [`PARALLEL_CHUNK_ROWS`] granule, so builds
    /// split into several chunks: one worker folds several chunks into one
    /// reused accumulator, and several workers merge pairwise (odd worker
    /// counts carry a tail). Nine clusters narrow labels to `u8`, 300 to
    /// `u16`; five attributes plan a two-pair pass plus a single pass.
    #[test]
    fn chunk_boundaries_match_oracles_across_workers() {
        const CHUNK: usize = PARALLEL_CHUNK_ROWS;
        let doms = [3usize, 4, 2, 5, 6];
        let schema = Schema::new(
            doms.iter()
                .enumerate()
                .map(|(a, &d)| Attribute::new(format!("a{a}"), Domain::indexed(d)).unwrap())
                .collect(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(65_536);
        for n_rows in [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1] {
            let columns: Vec<Vec<u32>> = doms
                .iter()
                .map(|&d| (0..n_rows).map(|_| rng.gen_range(0..d as u32)).collect())
                .collect();
            let data = Dataset::from_columns(schema.clone(), columns).unwrap();
            for n_clusters in [9usize, 300] {
                let labels: Vec<usize> =
                    (0..n_rows).map(|_| rng.gen_range(0..n_clusters)).collect();
                let oracle = oracle_counts(&data, &labels, n_clusters);
                for threads in [1usize, 2, 3, 7] {
                    let built = ClusteredCounts::build(&data, &labels, n_clusters, threads);
                    let tag = format!("rows {n_rows}, clusters {n_clusters}, threads {threads}");
                    assert_counts_identical(&oracle, &built, &tag);
                }
            }
        }
    }

    /// The u16 and u32 label-narrowing paths (n_clusters above 2^8 / 2^16)
    /// produce the same tables as the oracles.
    #[test]
    fn wide_label_narrowing_paths_match_oracles() {
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(3)).unwrap(),
            Attribute::new("y", Domain::indexed(2)).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..12).map(|i| vec![i % 3, i % 2]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        for n_clusters in [300usize, 70_000] {
            let labels: Vec<usize> = (0..12).map(|i| (i * 97) % n_clusters).collect();
            let built = ClusteredCounts::build(&data, &labels, n_clusters, 3);
            let tag = format!("n_clusters {n_clusters}");
            assert_matches_oracles(&data, &labels, n_clusters, &built, &tag);
        }
    }

    /// Pass planning: fusable schemas fuse (two pairs per pass where
    /// possible), an oversized joint table forces a single-attribute pass,
    /// and the plan always covers every attribute exactly once in order.
    #[test]
    fn pass_plan_fuses_and_falls_back() {
        assert_eq!(
            plan_passes(&[3, 4, 5, 2, 6], 9),
            vec![Pass::TwoPairs { a: 0 }, Pass::Single { a: 4 }]
        );
        assert_eq!(
            plan_passes(&[3, 4, 5], 9),
            vec![Pass::OnePair { a: 0 }, Pass::Single { a: 2 }]
        );
        // 9 · 100 · 100 > 2^16: the first pair cannot fuse, the rest can.
        assert_eq!(
            plan_passes(&[100, 100, 5, 2], 9),
            vec![
                Pass::Single { a: 0 },
                Pass::OnePair { a: 1 },
                Pass::Single { a: 3 }
            ]
        );
        assert_eq!(plan_passes(&[], 9), vec![]);
    }

    /// A schema with an unfusably large domain still counts bit-identically
    /// (exercises the Single fallback next to fused passes).
    #[test]
    fn oversized_domains_fall_back_bit_identically() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let schema = Schema::new(vec![
            Attribute::new("big", Domain::indexed(9_000)).unwrap(),
            Attribute::new("a", Domain::indexed(4)).unwrap(),
            Attribute::new("b", Domain::indexed(3)).unwrap(),
            Attribute::new("huge", Domain::indexed(40_000)).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..200)
            .map(|_| {
                vec![
                    rng.gen_range(0..9_000),
                    rng.gen_range(0..4),
                    rng.gen_range(0..3),
                    rng.gen_range(0..40_000),
                ]
            })
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let labels: Vec<usize> = (0..200).map(|_| rng.gen_range(0..5)).collect();
        for threads in [1usize, 4] {
            let built = ClusteredCounts::build(&data, &labels, 5, threads);
            let tag = format!("threads {threads}");
            assert_matches_oracles(&data, &labels, 5, &built, &tag);
        }
    }

    /// Strategy: a random schema (1–4 attributes, domains of size 1–6) plus
    /// up to 60 rows.
    fn schema_and_rows() -> impl Strategy<Value = (Schema, Vec<Vec<u32>>)> {
        prop::collection::vec(1usize..=6, 1..=4).prop_flat_map(|domains| {
            let schema = Schema::new(
                domains
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| Attribute::new(format!("a{i}"), Domain::indexed(d)).unwrap())
                    .collect(),
            )
            .unwrap();
            let row_strategy: Vec<_> = domains.iter().map(|&d| 0u32..(d as u32)).collect();
            let rows = prop::collection::vec(row_strategy, 0..60);
            (Just(schema), rows)
        })
    }

    proptest! {
        #[test]
        fn build_matches_oracles_for_any_shape(
            (schema, rows) in schema_and_rows(),
            label_seed in prop::collection::vec(0usize..4, 0..60),
            n_clusters in 1usize..=4,
        ) {
            let data = Dataset::from_rows(schema, &rows).unwrap();
            // Biasing through `% n_clusters` leaves high clusters empty
            // whenever the drawn labels are small — empty clusters are part
            // of the space.
            let labels: Vec<usize> = (0..data.n_rows())
                .map(|i| label_seed.get(i).copied().unwrap_or(0) % n_clusters)
                .collect();
            let oracle = oracle_counts(&data, &labels, n_clusters);
            // Every input here fits in one chunk, so each thread count runs
            // one worker over a (possibly empty) single range; the multi-chunk
            // merge is covered by `chunk_boundaries_match_oracles_across_workers`.
            for threads in [1usize, 2, 7, data.n_rows() + 3] {
                let built = ClusteredCounts::build(&data, &labels, n_clusters, threads);
                prop_assert_eq!(&built, &oracle, "threads={}", threads);
                for a in 0..data.schema().arity() {
                    prop_assert_eq!(built.table(a), &oracle_table(&data, a, &labels, n_clusters));
                }
            }
        }
    }

    #[test]
    fn apply_delta_matches_one_shot_build() {
        let mut rng = StdRng::seed_from_u64(0xDE17A);
        for case in 0..25 {
            let (data, labels, n_clusters) = random_case(&mut rng, 6);
            let n = data.n_rows();
            let split = if n == 0 { 0 } else { rng.gen_range(0..=n) };
            let base = data.select_rows(&(0..split).collect::<Vec<_>>());
            let delta = data.select_rows(&(split..n).collect::<Vec<_>>());
            let mut counts = ClusteredCounts::build(&base, &labels[..split], n_clusters, 1);
            let empty = Dataset::empty(data.schema().clone());
            counts.apply_delta(&delta, &labels[split..], &empty, &[]);
            let one_shot = ClusteredCounts::build(&data, &labels, n_clusters, 1);
            assert_counts_identical(&one_shot, &counts, &format!("case {case} split {split}"));
        }
    }

    #[test]
    fn apply_delta_add_then_retire_round_trips() {
        let mut rng = StdRng::seed_from_u64(0x0DD5);
        for case in 0..25 {
            let (data, labels, n_clusters) = random_case(&mut rng, 6);
            let original = ClusteredCounts::build(&data, &labels, n_clusters, 1);
            let mut counts = original.clone();
            let n = data.n_rows();
            let picks: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..3u8) == 0).collect();
            let delta = data.select_rows(&picks);
            let delta_labels: Vec<usize> = picks.iter().map(|&i| labels[i]).collect();
            let empty = Dataset::empty(data.schema().clone());
            counts.apply_delta(&delta, &delta_labels, &empty, &[]);
            counts.apply_delta(&empty, &[], &delta, &delta_labels);
            assert_counts_identical(&original, &counts, &format!("case {case}"));
        }
    }

    #[test]
    fn apply_delta_retiring_all_rows_empties_the_counts() {
        let (data, labels) = dataset_and_labels();
        let mut counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let empty = Dataset::empty(data.schema().clone());
        counts.apply_delta(&empty, &[], &data, &labels);
        assert_eq!(counts.n_rows(), 0);
        assert_eq!(counts.cluster_sizes(), &[0, 0]);
        for a in 0..counts.n_attributes() {
            assert!(counts.table(a).flat().iter().all(|&x| x == 0));
            assert_eq!(counts.table(a).total(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "retired row not present")]
    fn apply_delta_retiring_absent_row_panics() {
        let (data, labels) = dataset_and_labels();
        let mut counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let empty = Dataset::empty(data.schema().clone());
        // Row [0,0] exists only in cluster 0; retiring it from cluster 1
        // must underflow loudly.
        let ghost = Dataset::from_rows(data.schema().clone(), &[vec![0, 0]]).unwrap();
        counts.apply_delta(&empty, &[], &ghost, &[1]);
    }

    #[test]
    #[should_panic(expected = "delta arity mismatch")]
    fn apply_delta_rejects_schema_shape_mismatch() {
        let (data, labels) = dataset_and_labels();
        let mut counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let other = Schema::new(vec![Attribute::new("z", Domain::indexed(2)).unwrap()]).unwrap();
        let delta = Dataset::from_rows(other, &[vec![0]]).unwrap();
        let empty = Dataset::empty(data.schema().clone());
        counts.apply_delta(&delta, &[0], &empty, &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_delta_rejects_out_of_range_delta_label() {
        let (data, labels) = dataset_and_labels();
        let mut counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let delta = Dataset::from_rows(data.schema().clone(), &[vec![0, 0]]).unwrap();
        let empty = Dataset::empty(data.schema().clone());
        counts.apply_delta(&delta, &[5], &empty, &[]);
    }
}
