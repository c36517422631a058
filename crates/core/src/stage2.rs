//! Stage 2 — global explanation (Algorithm 2 of the paper).
//!
//! Two private steps follow Stage-1's candidate sets:
//!
//! 1. **Combination selection** (line 5, [`select_combination`]): the
//!    exponential mechanism over all `k^|C|` attribute combinations drawn
//!    from the candidate sets, scored by the sensitivity-1 `GlScore_λ`.
//!    Sampling uses the Gumbel-max trick with counter-based per-leaf noise:
//!    one sweep over the combination space, with incremental partial scores
//!    and no `k^|C|`-sized allocation, and an exact branch-and-bound bound
//!    that skips every leaf that cannot win.
//! 2. **Histogram release** (lines 6–15, [`generate_histograms`]): noisy
//!    full-data histograms for the *distinct* selected attributes at
//!    `ε_Hist/(2|A'|)` each (sequential composition), noisy in-cluster
//!    histograms at `ε_Hist/2` each (parallel composition across disjoint
//!    clusters), and out-of-cluster histograms by clamped subtraction
//!    (post-processing, free).

use crate::counts::ScoreTable;
use crate::explanation::{AttributeCombination, GlobalExplanation};
use crate::quality::score::{GlScoreCache, Weights};
use dpx_data::contingency::ClusteredCounts;
use dpx_data::Schema;
use dpx_dp::budget::{Accountant, Epsilon};
use dpx_dp::consistency::enforce_partition_consistency;
use dpx_dp::counter::{gumbel_at, GUMBEL_UNIT_MAX};
use dpx_dp::histogram::{subtract_clamped, HistogramMechanism};
use dpx_dp::DpError;
use dpx_runtime::ordered_parallel_map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Accepted and ignored: Stage 2 has one kernel, the pruned counter sweep
/// of [`select_combination`]. The type exists only for the serving
/// benchmark's replay (`servebench/src/replay.rs`), which still passes
/// `ExplainRequest::stage2_kernel` to `ExplainEngine::with_stage2_kernel`;
/// nothing reads it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage2Kernel;

/// Selects the noisy-best attribute combination from the candidate sets with
/// the exponential mechanism at `eps_top_comb` (Algorithm 2, line 5).
///
/// Gumbel-max over the `k^|C|` combination space: leaf `i` (the mixed-radix
/// index of a choice vector, rightmost cluster fastest) scores
/// `ε/2 · GlScore + gumbel_at(seed, i)` with Δ = 1 (Proposition 4.9), and
/// the highest score wins, the earliest leaf on an exact tie. Exactly one
/// `u64`, the PRF `seed`, is drawn from `rng` whatever the leaf count, so
/// every leaf's noise is a pure function of its index and the sweep may skip
/// leaves whose draw it can prove irrelevant.
///
/// Returns the chosen attribute index per cluster and the number of
/// combination leaves in the space — the full `k^|C|` product, skipped
/// leaves included, which the engine observer reports.
///
/// # Errors
/// [`DpError::EmptyCandidateSet`] when a candidate set is empty and
/// [`DpError::CombinationSpaceOverflow`] when `k^|C|` does not fit in a
/// `u64`; neither draws from `rng`.
pub fn select_combination<R: Rng + ?Sized>(
    st: &ScoreTable,
    candidates: &[Vec<usize>],
    weights: Weights,
    eps_top_comb: Epsilon,
    rng: &mut R,
) -> Result<(AttributeCombination, u64), DpError> {
    if candidates.is_empty() || candidates.iter().any(Vec::is_empty) {
        return Err(DpError::EmptyCandidateSet);
    }
    let ks: Vec<usize> = candidates.iter().map(Vec::len).collect();
    let total = ks
        .iter()
        .try_fold(1u64, |acc, &k| acc.checked_mul(k as u64))
        .ok_or(DpError::CombinationSpaceOverflow)?;
    let cache = GlScoreCache::build(st, candidates, weights);
    let seed: u64 = rng.gen();
    let best = sweep_counter(&cache, &ks, eps_top_comb.get() / 2.0, seed);
    let sel = best
        .iter()
        .enumerate()
        .map(|(c, &i)| candidates[c][i])
        .collect();
    Ok((sel, total))
}

/// The Stage-2 enumerator state at one slice of leaves: the mixed-radix
/// choice vector, the per-level marginal-gain slices under the current
/// prefix, and their running left-fold prefix sums.
struct Odometer<'a> {
    cache: &'a GlScoreCache,
    ks: &'a [usize],
    choice: Vec<usize>,
    gains: Vec<Vec<f64>>,
    prefix_sum: Vec<f64>,
}

impl<'a> Odometer<'a> {
    /// The state at leaf 0 (every digit 0).
    fn new(cache: &'a GlScoreCache, ks: &'a [usize]) -> Self {
        let n = ks.len();
        let mut odo = Odometer {
            cache,
            ks,
            choice: vec![0; n],
            gains: ks.iter().map(|&k| vec![0.0; k]).collect(),
            prefix_sum: vec![0.0; n],
        };
        for i in 0..ks[0] {
            odo.gains[0][i] = cache.marginal_gain(&[], 0, i);
        }
        odo.refresh_from(0);
        odo
    }

    /// Rebuilds the gain slices and prefix sums of every level right of
    /// `pos` after the digit at `pos` changed — the invariant-restoring half
    /// of a carry. Levels `..=pos` are untouched: their gains and prefix
    /// sums depend only on digits left of `pos`.
    fn refresh_from(&mut self, pos: usize) {
        let n = self.ks.len();
        for c in pos + 1..n {
            for i in 0..self.ks[c] {
                self.gains[c][i] = self.cache.marginal_gain(&self.choice[..c], c, i);
            }
        }
        for c in pos + 1..n {
            self.prefix_sum[c] = self.prefix_sum[c - 1] + self.gains[c - 1][self.choice[c - 1]];
        }
    }
}

/// Sweeps the whole combination space with counter-based noise at
/// `factor = ε/2` and returns the argmax's choice vector (earliest leaf on
/// exact ties, via strict `>` updates).
///
/// Two levels of exact branch-and-bound pruning, both enabled by per-leaf
/// counter noise (a sequential stream must draw every leaf's Gumbel just to
/// keep later draws aligned):
///
/// * **Slice level** — a last-cluster slice whose best achievable noisy
///   value, `factor · (base + max gain) + GUMBEL_UNIT_MAX`, cannot exceed
///   the running best is skipped without computing any draw.
/// * **Subtree level** — at every carry, before the gain slices below the
///   carry position are refreshed, the whole `∏ ks[p+1..]`-leaf subtree is
///   bounded by folding `bounds[c]` (the prefix-independent
///   [`GlScoreCache::gain_upper_bound`] maxima) onto the fixed prefix sum in
///   the *same left-to-right order* the sweep itself accumulates gains; a
///   subtree that cannot beat the running best is skipped in O(1) — no gain
///   refresh, no draws — and the carry retries at the same position.
///
/// Both bounds are exact in floating point, not just in exact arithmetic:
/// each replaced term dominates its actual term, the folds run in identical
/// order, and IEEE addition and positive multiplication are monotone, so a
/// skipped leaf's noisy value could never have passed the strict `>` update.
/// The argmax is therefore bit-identical to the unpruned sweep (tested).
fn sweep_counter(cache: &GlScoreCache, ks: &[usize], factor: f64, seed: u64) -> Vec<usize> {
    let n = ks.len();
    let last = n - 1;
    // bounds[c]: the largest prefix-independent gain bound of cluster c;
    // subtree[c]: the leaves under a fixed prefix of length c.
    let bounds: Vec<f64> = (0..n)
        .map(|c| {
            (0..ks[c])
                .map(|i| cache.gain_upper_bound(c, i, ks))
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    let mut subtree = vec![1u64; n + 1];
    for c in (0..n).rev() {
        subtree[c] = subtree[c + 1] * ks[c] as u64;
    }
    let mut odo = Odometer::new(cache, ks);
    let mut best_val = f64::NEG_INFINITY;
    let mut best = odo.choice.clone();
    // The index of the current slice's first leaf.
    let mut leaf = 0u64;
    loop {
        let base = odo.prefix_sum[last];
        let gains = &odo.gains[last];
        let gmax = gains.iter().fold(f64::NEG_INFINITY, |m, &g| m.max(g));
        if factor * (base + gmax) + GUMBEL_UNIT_MAX > best_val {
            for (i, &gain) in gains.iter().enumerate() {
                let noisy = factor * (base + gain) + gumbel_at(seed, leaf + i as u64, 1.0);
                if noisy > best_val {
                    best_val = noisy;
                    best.copy_from_slice(&odo.choice);
                    best[last] = i;
                }
            }
        }
        leaf += subtree[last];
        // Carry with subtree pruning: find the next prefix whose subtree
        // could still contain a winner, skipping hopeless ones wholesale.
        let mut pos = last;
        loop {
            if pos == 0 {
                return best;
            }
            pos -= 1;
            odo.choice[pos] += 1;
            if odo.choice[pos] == ks[pos] {
                odo.choice[pos] = 0;
                continue; // cascade the carry one position left
            }
            // `gains[pos]` and `prefix_sum[pos]` depend only on digits left
            // of `pos`, which this carry has not touched — both still valid.
            let mut b = odo.prefix_sum[pos] + odo.gains[pos][odo.choice[pos]];
            for &m in &bounds[pos + 1..] {
                b += m;
            }
            if factor * b + GUMBEL_UNIT_MAX <= best_val {
                // `leaf` sits on the subtree's first leaf; skip all of it
                // and retry the increment at this same position.
                leaf += subtree[pos + 1];
                pos += 1;
                continue;
            }
            break;
        }
        // The surviving carry position: restore the invariants below it.
        odo.refresh_from(pos);
    }
}

/// Exhaustive non-private argmax over the combination space — the TabEE
/// baseline's Stage-2 and the reference for tests.
pub fn select_combination_exact(
    st: &ScoreTable,
    candidates: &[Vec<usize>],
    weights: Weights,
) -> AttributeCombination {
    assert!(!candidates.is_empty() && candidates.iter().all(|s| !s.is_empty()));
    let cache = GlScoreCache::build(st, candidates, weights);
    let n = candidates.len();
    let mut best_choice = vec![0usize; n];
    let mut best_val = f64::NEG_INFINITY;
    let mut choice = vec![0usize; n];
    loop {
        let score = cache.glscore_cached(&choice);
        if score > best_val {
            best_val = score;
            best_choice.copy_from_slice(&choice);
        }
        // Odometer increment.
        let mut pos = n;
        loop {
            if pos == 0 {
                return best_choice
                    .iter()
                    .enumerate()
                    .map(|(c, &i)| candidates[c][i])
                    .collect();
            }
            pos -= 1;
            choice[pos] += 1;
            if choice[pos] < candidates[pos].len() {
                break;
            }
            choice[pos] = 0;
        }
    }
}

/// Releases the noisy histograms for a selected combination (Algorithm 2,
/// lines 6–15) and assembles the global explanation. Spends exactly
/// `eps_hist`, recorded on `accountant`.
///
/// With `consistency` set, applies the Hay-et-al. partition-consistency
/// projection (free post-processing) whenever a single attribute explains
/// every cluster.
///
/// Releases fan out over up to `threads` workers. Noise draws are split from
/// `rng` up front (one seed per full-data histogram in distinct-attribute
/// order, then one per cluster histogram in cluster order), each noisy
/// release runs on its own `StdRng`, and the accountant is charged after the
/// map in the same deterministic order as a sequential loop — so the
/// released histograms and the audit trail are **bit-identical for every
/// `threads` value**.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's parameter list
pub fn generate_histograms<M: HistogramMechanism + Sync, R: Rng + ?Sized>(
    schema: &Schema,
    counts: &ClusteredCounts,
    assignment: &AttributeCombination,
    eps_hist: Epsilon,
    mechanism: &M,
    consistency: bool,
    accountant: &mut Accountant,
    threads: usize,
    rng: &mut R,
) -> Result<GlobalExplanation, DpError> {
    let n_clusters = counts.n_clusters();
    assert_eq!(assignment.len(), n_clusters);

    // Line 6: distinct attributes A'.
    let mut distinct: Vec<usize> = assignment.clone();
    distinct.sort_unstable();
    distinct.dedup();

    // Line 7: ε_{hist,all} = ε_Hist/(2|A'|), ε_{hist,cluster} = ε_Hist/2.
    let eps_all = eps_hist.split(2)?.split(distinct.len())?;
    let eps_cluster = eps_hist.split(2)?;

    // Lines 8–10: full-data noisy histograms (sequential composition). Seeds
    // are drawn in distinct-attribute order before the map; charges land in
    // the same order after it.
    let full_tasks: Vec<(usize, u64)> = distinct.iter().map(|&a| (a, rng.gen())).collect();
    let full_noisy: Vec<Vec<f64>> = ordered_parallel_map(full_tasks, threads, |&(a, seed)| {
        let h = counts.table(a).marginal_histogram();
        let mut task_rng = StdRng::seed_from_u64(seed);
        mechanism.privatize(h.counts(), eps_all, &mut task_rng)
    });
    let mut full: Vec<(usize, Vec<f64>)> = Vec::with_capacity(distinct.len());
    for (&a, noisy) in distinct.iter().zip(full_noisy) {
        accountant.charge(
            format!("stage2/hist-full/{}", schema.attribute(a).name),
            eps_all,
        )?;
        full.push((a, noisy));
    }

    // Lines 11–15: per-cluster noisy histograms (parallel composition —
    // in the privacy sense across disjoint clusters, and here also in the
    // wall-clock sense).
    let cluster_tasks: Vec<(usize, usize, u64)> = assignment
        .iter()
        .enumerate()
        .map(|(c, &a)| (c, a, rng.gen()))
        .collect();
    let mut cluster_noisy: Vec<Vec<f64>> =
        ordered_parallel_map(cluster_tasks, threads, |&(c, a, seed)| {
            let h_c = counts.table(a).cluster_histogram(c);
            let mut task_rng = StdRng::seed_from_u64(seed);
            mechanism.privatize(h_c.counts(), eps_cluster, &mut task_rng)
        });
    for c in 0..n_clusters {
        accountant.charge_parallel("stage2/hist-cluster", format!("c{c}"), eps_cluster)?;
    }

    // Optional consistency boost (Hay et al., cited by the paper): when one
    // attribute explains *every* cluster, the clusters partition the data and
    // Σ_c h^c = h_A holds for the true counts; projecting the noisy estimates
    // onto that constraint is free post-processing and reduces MSE.
    if consistency {
        for &a in &distinct {
            if !assignment.iter().all(|&aa| aa == a) {
                continue;
            }
            let mut children = std::mem::take(&mut cluster_noisy);
            let entry = full
                .iter_mut()
                .find(|(fa, _)| *fa == a)
                .expect("attribute is in the distinct set");
            entry.1 = enforce_partition_consistency(&entry.1, &mut children);
            cluster_noisy = children;
        }
    }

    // Clamped subtraction for the out-of-cluster histograms (post-processing).
    let mut hists = Vec::with_capacity(n_clusters);
    for (c, &a) in assignment.iter().enumerate() {
        let full_a = &full
            .iter()
            .find(|(fa, _)| *fa == a)
            .expect("assignment attributes are all in the distinct set")
            .1;
        let rest = subtract_clamped(full_a, &cluster_noisy[c]);
        let cluster: Vec<f64> = cluster_noisy[c].iter().map(|&v| v.max(0.0)).collect();
        hists.push((rest, cluster));
    }
    Ok(GlobalExplanation::from_histograms(
        schema, assignment, hists,
    ))
}

/// Exact (non-private) histograms for a combination — used by TabEE.
pub fn exact_histograms(
    schema: &Schema,
    counts: &ClusteredCounts,
    assignment: &AttributeCombination,
) -> GlobalExplanation {
    let hists = assignment
        .iter()
        .enumerate()
        .map(|(c, &a)| {
            let t = counts.table(a);
            let rest: Vec<f64> = t
                .complement_histogram(c)
                .counts()
                .iter()
                .map(|&x| x as f64)
                .collect();
            let cluster: Vec<f64> = t
                .cluster_histogram(c)
                .counts()
                .iter()
                .map(|&x| x as f64)
                .collect();
            (rest, cluster)
        })
        .collect();
    GlobalExplanation::from_histograms(schema, assignment, hists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::{AttrCounts, ScoreTable};
    use crate::quality::score::glscore;
    use dpx_data::schema::{Attribute, Domain};
    use dpx_data::Dataset;
    use dpx_dp::gumbel::sample_gumbel;
    use dpx_dp::histogram::GeometricHistogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The streaming Gumbel-max sampler: one [`sample_gumbel`] draw from
    /// `rng` per leaf, in leaf order, no pruning. The distribution reference
    /// for [`select_combination`], which realizes the same exponential
    /// mechanism from counter-based noise.
    fn select_combination_counted<R: Rng + ?Sized>(
        st: &ScoreTable,
        candidates: &[Vec<usize>],
        weights: Weights,
        eps_top_comb: Epsilon,
        rng: &mut R,
    ) -> (AttributeCombination, u64) {
        let cache = GlScoreCache::build(st, candidates, weights);
        let factor = eps_top_comb.get() / 2.0;
        let ks: Vec<usize> = candidates.iter().map(Vec::len).collect();
        let last = ks.len() - 1;
        let mut odo = Odometer::new(&cache, &ks);
        let mut best = odo.choice.clone();
        let mut best_val = f64::NEG_INFINITY;
        let mut leaves = 0u64;
        loop {
            let base = odo.prefix_sum[last];
            for (i, &gain) in odo.gains[last].iter().enumerate() {
                let noisy = factor * (base + gain) + sample_gumbel(1.0, rng);
                leaves += 1;
                if noisy > best_val {
                    best_val = noisy;
                    best.copy_from_slice(&odo.choice);
                    best[last] = i;
                }
            }
            let mut pos = last;
            loop {
                if pos == 0 {
                    let sel = best
                        .iter()
                        .enumerate()
                        .map(|(c, &i)| candidates[c][i])
                        .collect();
                    return (sel, leaves);
                }
                pos -= 1;
                odo.choice[pos] += 1;
                if odo.choice[pos] < ks[pos] {
                    break;
                }
                odo.choice[pos] = 0;
            }
            odo.refresh_from(pos);
        }
    }

    /// The unpruned counter sweep: every leaf scored directly as
    /// `factor · glscore_cached + gumbel_at(seed, i)`, its choice vector
    /// decoded from the leaf index, strict `>`, earliest leaf wins.
    fn sweep_counter_unpruned(
        cache: &GlScoreCache,
        ks: &[usize],
        factor: f64,
        seed: u64,
    ) -> Vec<usize> {
        let total: u64 = ks.iter().map(|&k| k as u64).product();
        let mut choice = vec![0usize; ks.len()];
        let mut best = choice.clone();
        let mut best_val = f64::NEG_INFINITY;
        for leaf in 0..total {
            let mut rem = leaf;
            for c in (0..ks.len()).rev() {
                choice[c] = (rem % ks[c] as u64) as usize;
                rem /= ks[c] as u64;
            }
            let noisy = factor * cache.glscore_cached(&choice) + gumbel_at(seed, leaf, 1.0);
            if noisy > best_val {
                best_val = noisy;
                best.copy_from_slice(&choice);
            }
        }
        best
    }

    fn table() -> ScoreTable {
        // Unequal cluster sizes (100 / 200); attributes 0 and 1 carry signal,
        // attribute 2 is flat. NOTE: with exactly two clusters, swapping the
        // two attributes of a combination provably preserves GlScore (the
        // per-cluster Int_p deviations are negatives of each other and the
        // Suf_p cross-sums differ by the constant |D_1| − |D_0|), so tests
        // compare *scores*, not combination identity.
        let a0 = AttrCounts::new(
            vec![vec![90.0, 10.0], vec![80.0, 120.0]],
            vec![170.0, 130.0],
        );
        let a1 = AttrCounts::new(vec![vec![30.0, 70.0], vec![10.0, 190.0]], vec![40.0, 260.0]);
        let a2 = AttrCounts::new(
            vec![vec![50.0, 50.0], vec![100.0, 100.0]],
            vec![150.0, 150.0],
        );
        ScoreTable::new(vec![a0, a1, a2])
    }

    fn three_cluster_table() -> ScoreTable {
        let a0 = AttrCounts::new(
            vec![vec![90.0, 10.0], vec![80.0, 120.0], vec![10.0, 40.0]],
            vec![180.0, 170.0],
        );
        let a1 = AttrCounts::new(
            vec![vec![30.0, 70.0], vec![10.0, 190.0], vec![45.0, 5.0]],
            vec![85.0, 265.0],
        );
        let a2 = AttrCounts::new(
            vec![vec![50.0, 50.0], vec![100.0, 100.0], vec![25.0, 25.0]],
            vec![175.0, 175.0],
        );
        ScoreTable::new(vec![a0, a1, a2])
    }

    /// `n_clusters` clusters over `n_attrs` ternary attributes with
    /// deterministic, irregular counts; with `identical` every attribute
    /// gets the same counts, so every combination ties on GlScore.
    fn synthetic_table(n_clusters: usize, n_attrs: usize, identical: bool) -> ScoreTable {
        let attrs = (0..n_attrs)
            .map(|a| {
                let a = if identical { 0 } else { a };
                let cluster: Vec<Vec<f64>> = (0..n_clusters)
                    .map(|c| {
                        (0..3)
                            .map(|v| ((a * 7 + c * 13 + v * 29 + a * c * v) % 50 + 1) as f64)
                            .collect()
                    })
                    .collect();
                let marginal = (0..3)
                    .map(|v| cluster.iter().map(|row| row[v]).sum())
                    .collect();
                AttrCounts::new(cluster, marginal)
            })
            .collect();
        ScoreTable::new(attrs)
    }

    #[test]
    fn exact_selection_maximizes_glscore() {
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2], vec![0, 1, 2]];
        let best = select_combination_exact(&st, &candidates, w);
        let best_score = glscore(&st, &best, w);
        for i in 0..3usize {
            for j in 0..3usize {
                assert!(
                    glscore(&st, &[i, j], w) <= best_score + 1e-12,
                    "({i},{j}) beats the reported best"
                );
            }
        }
        assert!(!best.contains(&2), "the flat attribute must lose: {best:?}");
    }

    #[test]
    fn private_selection_matches_exact_at_high_epsilon() {
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2], vec![0, 1, 2]];
        let mut r = StdRng::seed_from_u64(5);
        let eps = Epsilon::new(10_000.0).unwrap();
        let (sel, _) = select_combination(&st, &candidates, w, eps, &mut r).unwrap();
        // Tied optima (see table()) make combination identity fragile; the
        // achieved score must match the exact optimum.
        let exact = select_combination_exact(&st, &candidates, w);
        assert!(
            (glscore(&st, &sel, w) - glscore(&st, &exact, w)).abs() < 1e-9,
            "private pick {sel:?} is suboptimal vs {exact:?}"
        );
    }

    /// At overwhelming ε the pruned sweep must find the unique exact argmax
    /// — this exercises the skip paths hard (nearly every slice is skipped
    /// once the optimum has been seen) — and still report all k^|C| leaves.
    #[test]
    fn three_cluster_exact_selection_is_unique_argmax() {
        // With three clusters of distinct sizes the swap symmetry breaks and
        // the argmax is unique: verify identity, not just score.
        let st = three_cluster_table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2]; 3];
        let best = select_combination_exact(&st, &candidates, w);
        let best_score = glscore(&st, &best, w);
        let mut strictly_better = 0;
        for i in 0..3usize {
            for j in 0..3usize {
                for l in 0..3usize {
                    let s = glscore(&st, &[i, j, l], w);
                    assert!(s <= best_score + 1e-12);
                    if (s - best_score).abs() < 1e-12 {
                        strictly_better += 1;
                    }
                }
            }
        }
        assert_eq!(strictly_better, 1, "argmax should be unique here");
        for (seed, eps) in [(11u64, 1e5), (33, 1e7)] {
            let mut r = StdRng::seed_from_u64(seed);
            let (sel, leaves) =
                select_combination(&st, &candidates, w, Epsilon::new(eps).unwrap(), &mut r)
                    .unwrap();
            assert_eq!(sel, best, "seed {seed}");
            assert_eq!(leaves, 27, "k^|C| = 3^3 leaves");
        }
    }

    /// The counter kernel realizes the exponential-mechanism distribution:
    /// its empirical selection frequencies, and the streaming reference's,
    /// both match the closed-form softmax over GlScore.
    #[test]
    fn counter_kernel_distribution_matches_exponential_mechanism() {
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1], vec![0, 1]];
        let eps = Epsilon::new(0.2).unwrap();
        let cache = GlScoreCache::build(&st, &candidates, w);
        let mut logits = Vec::new();
        for i in 0..2usize {
            for j in 0..2usize {
                logits.push(eps.get() / 2.0 * cache.glscore_cached(&[i, j]));
            }
        }
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        let probs: Vec<f64> = exps.iter().map(|&e| e / z).collect();

        type Sampler = fn(&ScoreTable, &[Vec<usize>], Weights, Epsilon, &mut StdRng) -> Vec<usize>;
        let samplers: [(&str, Sampler); 2] = [
            ("counter", |st, cands, w, eps, r| {
                select_combination(st, cands, w, eps, r).unwrap().0
            }),
            ("streaming", |st, cands, w, eps, r| {
                select_combination_counted(st, cands, w, eps, r).0
            }),
        ];
        for (name, sample) in samplers {
            let n = 40_000;
            let mut hits = [0usize; 4];
            let mut r = StdRng::seed_from_u64(6);
            for _ in 0..n {
                let sel = sample(&st, &candidates, w, eps, &mut r);
                hits[sel[0] * 2 + sel[1]] += 1;
            }
            for (idx, &h) in hits.iter().enumerate() {
                let emp = h as f64 / n as f64;
                assert!(
                    (emp - probs[idx]).abs() < 0.015,
                    "{name}: combo {idx}: empirical {emp} vs softmax {}",
                    probs[idx]
                );
            }
        }
    }

    /// The branch-and-bound pruning is exact: the pruned sweep picks the
    /// same leaf as the unpruned oracle for every seed, across ε from
    /// noise-dominated to score-dominated, on 2-, 3- and 5-cluster tables,
    /// ragged candidate sets, and a table on which every combination ties.
    #[test]
    fn pruned_sweep_matches_unpruned_oracle() {
        let w = Weights::equal();
        let cases: Vec<(ScoreTable, Vec<Vec<usize>>)> = vec![
            (table(), vec![vec![0, 1, 2], vec![0, 1, 2]]),
            (table(), vec![vec![0, 1], vec![2, 0, 1]]),
            (table(), vec![vec![2, 0], vec![1]]),
            (three_cluster_table(), vec![vec![0, 1, 2]; 3]),
            (three_cluster_table(), vec![vec![2]; 3]),
            (synthetic_table(5, 4, false), vec![vec![0, 1, 2]; 5]),
            (
                synthetic_table(5, 4, false),
                vec![
                    vec![3, 1],
                    vec![0, 1, 2, 3],
                    vec![2],
                    vec![1, 0, 3],
                    vec![3, 2],
                ],
            ),
            (synthetic_table(5, 3, true), vec![vec![0, 1, 2]; 5]),
            (synthetic_table(3, 3, true), vec![vec![0, 1, 2]; 3]),
        ];
        for (st, candidates) in &cases {
            let cache = GlScoreCache::build(st, candidates, w);
            let ks: Vec<usize> = candidates.iter().map(Vec::len).collect();
            for eps in [0.01, 0.1, 1.0, 10.0] {
                let factor = eps / 2.0;
                for seed in 0..200u64 {
                    let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    assert_eq!(
                        sweep_counter(&cache, &ks, factor, seed),
                        sweep_counter_unpruned(&cache, &ks, factor, seed),
                        "ks={ks:?} eps={eps} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn counter_kernel_consumes_exactly_one_seed_draw() {
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2], vec![0, 1, 2]];
        let mut kernel_rng = StdRng::seed_from_u64(91);
        let mut twin = StdRng::seed_from_u64(91);
        let (_, leaves) = select_combination(
            &st,
            &candidates,
            w,
            Epsilon::new(0.5).unwrap(),
            &mut kernel_rng,
        )
        .unwrap();
        assert_eq!(leaves, 9, "k^|C| = 3^2");
        let _ = twin.gen::<u64>(); // the PRF seed
        assert_eq!(
            kernel_rng.gen::<u64>(),
            twin.gen::<u64>(),
            "the counter kernel must consume exactly one u64"
        );
    }

    #[test]
    fn bad_candidate_sets_are_errors_that_draw_nothing() {
        let st = synthetic_table(41, 3, false);
        let eps = Epsilon::new(1.0).unwrap();
        let mut r = StdRng::seed_from_u64(7);
        let mut twin = r.clone();
        let empty = select_combination(&table(), &[vec![0], vec![]], Weights::equal(), eps, &mut r);
        assert_eq!(empty, Err(DpError::EmptyCandidateSet));
        // 3^41 > u64::MAX: refused before any enumeration.
        let candidates = vec![vec![0usize, 1, 2]; 41];
        let overflow = select_combination(&st, &candidates, Weights::equal(), eps, &mut r);
        assert_eq!(overflow, Err(DpError::CombinationSpaceOverflow));
        assert_eq!(r.gen::<u64>(), twin.gen::<u64>());
    }

    fn small_dataset() -> (Dataset, Vec<usize>) {
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(2)).unwrap(),
            Attribute::new("y", Domain::indexed(3)).unwrap(),
        ])
        .unwrap();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            if i % 2 == 0 {
                rows.push(vec![0, (i % 3) as u32]);
                labels.push(0);
            } else {
                rows.push(vec![1, 2]);
                labels.push(1);
            }
        }
        (Dataset::from_rows(schema, &rows).unwrap(), labels)
    }

    #[test]
    fn histogram_stage_spends_exactly_eps_hist() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(8);
        let eps = Epsilon::new(0.4).unwrap();
        let expl = generate_histograms(
            data.schema(),
            &counts,
            &vec![0, 1],
            eps,
            &GeometricHistogram,
            false,
            &mut acc,
            1,
            &mut r,
        )
        .unwrap();
        assert_eq!(expl.per_cluster.len(), 2);
        // |A'| = 2 distinct attributes: 2 × ε/4 sequential + ε/2 parallel = ε.
        assert!(
            (acc.spent() - 0.4).abs() < 1e-9,
            "spent {} != 0.4",
            acc.spent()
        );
    }

    #[test]
    fn histogram_stage_repeated_attribute_shares_full_histogram() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(9);
        let eps = Epsilon::new(0.4).unwrap();
        generate_histograms(
            data.schema(),
            &counts,
            &vec![0, 0],
            eps,
            &GeometricHistogram,
            false,
            &mut acc,
            1,
            &mut r,
        )
        .unwrap();
        // |A'| = 1: full histogram at ε/2 once + cluster histograms ε/2 = ε.
        assert!((acc.spent() - 0.4).abs() < 1e-9, "spent {}", acc.spent());
        assert_eq!(acc.sequential_charges().count(), 1);
    }

    #[test]
    fn parallel_histogram_release_is_bit_identical_to_sequential() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let eps = Epsilon::new(0.4).unwrap();
        let release = |threads: usize, seed: u64| {
            let mut acc = Accountant::new();
            let mut r = StdRng::seed_from_u64(seed);
            let expl = generate_histograms(
                data.schema(),
                &counts,
                &vec![0, 1],
                eps,
                &GeometricHistogram,
                false,
                &mut acc,
                threads,
                &mut r,
            )
            .unwrap();
            (expl, acc.spent())
        };
        for seed in [8, 81, 82] {
            let (seq, seq_spent) = release(1, seed);
            for threads in [2, 4, 8] {
                let (par, par_spent) = release(threads, seed);
                assert_eq!(par_spent, seq_spent);
                for (p, s) in par.per_cluster.iter().zip(&seq.per_cluster) {
                    assert_eq!(p.attribute, s.attribute);
                    assert_eq!(p.hist_cluster, s.hist_cluster, "threads {threads}");
                    assert_eq!(p.hist_rest, s.hist_rest, "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn noisy_histograms_are_near_exact_at_high_epsilon() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(10);
        let noisy = generate_histograms(
            data.schema(),
            &counts,
            &vec![0, 1],
            Epsilon::new(1000.0).unwrap(),
            &GeometricHistogram,
            false,
            &mut acc,
            1,
            &mut r,
        )
        .unwrap();
        let exact = exact_histograms(data.schema(), &counts, &vec![0, 1]);
        for (n, e) in noisy.per_cluster.iter().zip(&exact.per_cluster) {
            for (a, b) in n.hist_cluster.iter().zip(&e.hist_cluster) {
                assert!((a - b).abs() <= 2.0, "cluster bin {a} vs exact {b}");
            }
            for (a, b) in n.hist_rest.iter().zip(&e.hist_rest) {
                assert!((a - b).abs() <= 4.0, "rest bin {a} vs exact {b}");
            }
        }
    }

    #[test]
    fn consistency_projection_makes_cluster_sums_match_full() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(12);
        // Both clusters explained by the same attribute → projection applies.
        let expl = generate_histograms(
            data.schema(),
            &counts,
            &vec![0, 0],
            Epsilon::new(0.5).unwrap(),
            &GeometricHistogram,
            true,
            &mut acc,
            1,
            &mut r,
        )
        .unwrap();
        // After the projection, rest + cluster reconstructs the adjusted full
        // histogram for every cluster, and both clusters agree on it (before
        // non-negativity clamping the identity is exact; with these counts no
        // clamping triggers at ε = 0.5 almost surely — assert with slack).
        for e in &expl.per_cluster {
            let recon: Vec<f64> = e
                .hist_rest
                .iter()
                .zip(&e.hist_cluster)
                .map(|(&a, &b)| a + b)
                .collect();
            let other = &expl.per_cluster[1 - e.cluster];
            let recon2: Vec<f64> = other
                .hist_rest
                .iter()
                .zip(&other.hist_cluster)
                .map(|(&a, &b)| a + b)
                .collect();
            for (x, y) in recon.iter().zip(&recon2) {
                assert!(
                    (x - y).abs() < 1e-6,
                    "full-histogram views disagree: {x} vs {y}"
                );
            }
        }
        // Budget unchanged by post-processing.
        assert!((acc.spent() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn consistency_reduces_error_on_shared_attribute() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let exact = exact_histograms(data.schema(), &counts, &vec![0, 0]);
        let error_of = |consistency: bool, seed: u64| -> f64 {
            let mut acc = Accountant::new();
            let mut r = StdRng::seed_from_u64(seed);
            let expl = generate_histograms(
                data.schema(),
                &counts,
                &vec![0, 0],
                Epsilon::new(0.3).unwrap(),
                &GeometricHistogram,
                consistency,
                &mut acc,
                1,
                &mut r,
            )
            .unwrap();
            expl.per_cluster
                .iter()
                .zip(&exact.per_cluster)
                .map(|(n, e)| {
                    n.hist_cluster
                        .iter()
                        .zip(&e.hist_cluster)
                        .map(|(&a, &b)| (a - b).powi(2))
                        .sum::<f64>()
                })
                .sum()
        };
        let runs = 300;
        let raw: f64 = (0..runs).map(|s| error_of(false, s)).sum();
        let adj: f64 = (0..runs).map(|s| error_of(true, s)).sum();
        assert!(
            adj < raw,
            "consistency should not hurt cluster-histogram MSE: {adj} vs {raw}"
        );
    }

    #[test]
    fn exact_histograms_match_contingency() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let expl = exact_histograms(data.schema(), &counts, &vec![0, 0]);
        // Cluster 0 is all x=0 (150 tuples), rest all x=1.
        assert_eq!(expl.per_cluster[0].hist_cluster, vec![150.0, 0.0]);
        assert_eq!(expl.per_cluster[0].hist_rest, vec![0.0, 150.0]);
    }
}
