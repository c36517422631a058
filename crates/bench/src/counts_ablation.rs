//! The `counts` ablation: the flat counting kernel at each swept worker
//! count vs the PR-1 naive serial build.
//!
//! Shared by the criterion `ablations` bench (group `counts`) and the
//! `fig9_time --mode bench` JSON emitter, so `results/bench_ablations.txt`
//! and `BENCH_fig9.json` measure exactly the same kernels:
//!
//! * **naive** — the historical (PR-1) counts build: one serial column scan
//!   per attribute into nested `Vec<Vec<u64>>`, with a label bounds-check per
//!   row and marginal/size increments inline. Re-implemented here verbatim
//!   as the ablation baseline.
//! * **parallel/N** — [`ClusteredCounts::build`] with `N` workers: labels
//!   narrowed once, adjacent attribute pairs fused into joint tables, chunks
//!   claimed off an atomic counter into per-worker reused accumulators,
//!   pairwise tree merge. `parallel/1` is the same kernel on the calling
//!   thread.
//!
//! All cells are timed as **one warmup + minimum over the timed runs**
//! ([`time_runs`]): the kernels are deterministic, so scheduler noise only
//! ever inflates a sample and the min is the reproducible estimator.
//!
//! [`run_incremental_ablation`] rides along for `BENCH_fig9.json`: the
//! O(delta) `apply_delta` path vs a full rebuild.

use dpx_data::contingency::ClusteredCounts;
use dpx_data::Dataset;
use std::time::Instant;

/// The PR-1 nested-layout contingency counts, kept only as the ablation
/// baseline. Deliberately preserves the historical inner loop: per-row label
/// assert, per-row marginal and cluster-size increments, one full column scan
/// per attribute.
pub struct NaiveCounts {
    /// `cluster_counts[a][c][v] = cnt_{A_a=v}(D_c)`.
    pub cluster_counts: Vec<Vec<Vec<u64>>>,
    /// `marginal[a][v] = cnt_{A_a=v}(D)`.
    pub marginal: Vec<Vec<u64>>,
    /// `cluster_sizes[a][c] = |D_c|` (recomputed per attribute, as PR-1 did).
    pub cluster_sizes: Vec<Vec<u64>>,
}

/// Builds [`NaiveCounts`] exactly the way the PR-1 serial build did.
pub fn naive_build(data: &Dataset, labels: &[usize], n_clusters: usize) -> NaiveCounts {
    let arity = data.schema().arity();
    let mut cluster_counts = Vec::with_capacity(arity);
    let mut marginal = Vec::with_capacity(arity);
    let mut cluster_sizes = Vec::with_capacity(arity);
    for a in 0..arity {
        assert_eq!(
            labels.len(),
            data.n_rows(),
            "one cluster label per tuple required"
        );
        let dom = data.schema().attribute(a).domain.size();
        let mut counts = vec![vec![0u64; dom]; n_clusters];
        let mut marg = vec![0u64; dom];
        let mut sizes = vec![0u64; n_clusters];
        for (&v, &c) in data.column(a).iter().zip(labels) {
            assert!(c < n_clusters, "label {c} out of range ({n_clusters})");
            counts[c][v as usize] += 1;
            marg[v as usize] += 1;
            sizes[c] += 1;
        }
        cluster_counts.push(counts);
        marginal.push(marg);
        cluster_sizes.push(sizes);
    }
    NaiveCounts {
        cluster_counts,
        marginal,
        cluster_sizes,
    }
}

/// One timed cell of the counts ablation.
#[derive(Debug, Clone)]
pub struct CountsTiming {
    /// Kernel label: `"naive"` or `"parallel/<threads>"`.
    pub kernel: String,
    /// Worker threads the kernel was asked for (the naive build is serial).
    pub threads: usize,
    /// Best (minimum) seconds per build over the timing runs.
    pub seconds: f64,
    /// Speedup of this kernel over the naive baseline.
    pub speedup_vs_naive: f64,
}

/// Results of one counts-ablation sweep on a fixed dataset.
#[derive(Debug, Clone)]
pub struct CountsAblation {
    /// Rows counted.
    pub rows: usize,
    /// Attributes counted.
    pub attributes: usize,
    /// Clusters counted into.
    pub clusters: usize,
    /// Timed kernels, naive first.
    pub timings: Vec<CountsTiming>,
}

/// Times `f`: one untimed warmup (page faults, cache fill), then the
/// **minimum** over `runs` timed calls. On a shared, noisy machine the
/// minimum is the robust estimator of a deterministic kernel's cost —
/// interference only ever adds time, so the mean drifts with load while the
/// min is reproducible to within ~1% run-to-run.
pub fn time_runs<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    f();
    (0..runs.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs the counts ablation: times the naive baseline and the flat kernel
/// at each entry of `threads`, and verifies on the way that every kernel
/// agrees with the naive build on every count (the correctness half of the
/// ablation — a kernel that is fast but wrong would fail here, not produce a
/// bogus speedup).
pub fn run_counts_ablation(
    data: &Dataset,
    labels: &[usize],
    n_clusters: usize,
    threads: &[usize],
    runs: usize,
) -> CountsAblation {
    // Cross-check the kernels before timing them.
    let naive = naive_build(data, labels, n_clusters);
    for &n in threads {
        let flat = ClusteredCounts::build(data, labels, n_clusters, n);
        for a in 0..flat.n_attributes() {
            let t = flat.table(a);
            for c in 0..n_clusters {
                assert_eq!(
                    t.cluster_row(c),
                    &naive.cluster_counts[a][c][..],
                    "parallel({n}) kernel disagrees with naive baseline (attr {a}, cluster {c})"
                );
            }
            assert_eq!(t.marginal(), &naive.marginal[a][..], "marginal (attr {a})");
        }
    }

    let naive_secs = time_runs(runs, || {
        std::hint::black_box(naive_build(data, labels, n_clusters));
    });
    let mut timings = vec![CountsTiming {
        kernel: "naive".into(),
        threads: 1,
        seconds: naive_secs,
        speedup_vs_naive: 1.0,
    }];
    for &n in threads {
        let secs = time_runs(runs, || {
            std::hint::black_box(ClusteredCounts::build(data, labels, n_clusters, n));
        });
        timings.push(CountsTiming {
            kernel: format!("parallel/{n}"),
            threads: n,
            seconds: secs,
            speedup_vs_naive: naive_secs / secs,
        });
    }
    CountsAblation {
        rows: data.n_rows(),
        attributes: data.schema().arity(),
        clusters: n_clusters,
        timings,
    }
}

/// Timing of the O(delta) incremental update against a full rebuild.
#[derive(Debug, Clone)]
pub struct IncrementalAblation {
    /// Total rows after the append.
    pub rows: usize,
    /// Rows in the appended delta.
    pub delta_rows: usize,
    /// Seconds to clone the warm counts and fold the delta in — the exact
    /// path the serve layer takes on a dataset append.
    pub apply_delta_seconds: f64,
    /// Seconds to rebuild the full counts from scratch
    /// ([`ClusteredCounts::build`] at the given worker count).
    pub rebuild_seconds: f64,
    /// `rebuild_seconds / apply_delta_seconds`.
    pub speedup_vs_rebuild: f64,
}

/// Measures [`ClusteredCounts::apply_delta`] on the last `delta_fraction` of
/// `data` against rebuilding all of it, asserting first that the incremental
/// result is bit-identical to the one-shot build.
pub fn run_incremental_ablation(
    data: &Dataset,
    labels: &[usize],
    n_clusters: usize,
    delta_fraction: f64,
    threads: usize,
    runs: usize,
) -> IncrementalAblation {
    let n = data.n_rows();
    let delta_rows = ((n as f64 * delta_fraction).round() as usize).clamp(1, n);
    let split = n - delta_rows;
    let base = data.select_rows(&(0..split).collect::<Vec<_>>());
    let delta = data.select_rows(&(split..n).collect::<Vec<_>>());
    let empty = Dataset::empty(data.schema().clone());

    let warm = ClusteredCounts::build(&base, &labels[..split], n_clusters, threads);
    let reference = ClusteredCounts::build(data, labels, n_clusters, threads);
    let mut check = warm.clone();
    check.apply_delta(&delta, &labels[split..], &empty, &[]);
    assert_eq!(
        check, reference,
        "incremental path not bit-identical to the one-shot build"
    );

    let apply_delta_seconds = time_runs(runs, || {
        // Clone-then-apply is the serve layer's append path: the cached
        // counts stay live under their old key while the refreshed copy is
        // inserted under the chained key.
        let mut counts = warm.clone();
        counts.apply_delta(&delta, &labels[split..], &empty, &[]);
        std::hint::black_box(counts);
    });
    let rebuild_seconds = time_runs(runs, || {
        std::hint::black_box(ClusteredCounts::build(data, labels, n_clusters, threads));
    });
    IncrementalAblation {
        rows: n,
        delta_rows,
        apply_delta_seconds,
        rebuild_seconds,
        speedup_vs_rebuild: rebuild_seconds / apply_delta_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKind;

    #[test]
    fn ablation_kernels_agree_and_report_timings() {
        let synth = DatasetKind::Diabetes.generate(2_000, 3, 11);
        let abl = run_counts_ablation(&synth.data, &synth.latent_groups, 3, &[2, 4], 1);
        assert_eq!(abl.rows, 2_000);
        assert_eq!(abl.attributes, 47);
        assert_eq!(abl.timings.len(), 3);
        assert_eq!(abl.timings[0].kernel, "naive");
        assert!(abl.timings.iter().all(|t| t.seconds > 0.0));
    }

    #[test]
    fn incremental_ablation_verifies_and_times_the_delta_path() {
        let synth = DatasetKind::Diabetes.generate(4_000, 3, 7);
        let inc = run_incremental_ablation(&synth.data, &synth.latent_groups, 3, 0.01, 2, 1);
        assert_eq!(inc.rows, 4_000);
        assert_eq!(inc.delta_rows, 40);
        assert!(inc.apply_delta_seconds > 0.0);
        assert!(inc.rebuild_seconds > 0.0);
        assert!(inc.speedup_vs_rebuild > 0.0);
    }
}
