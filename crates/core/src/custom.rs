//! Pluggable score functions (the paper's future-work §8: "the extension of
//! DPClustX to different score functions that emphasize different facets of
//! explainability").
//!
//! Both selection stages are, mechanically, private maximization over a
//! candidate space; any quality function with a *known sensitivity bound*
//! can drive them. This module exposes that generality: callers supply the
//! score and its sensitivity, and the mechanisms calibrate noise to it.
//! **The privacy guarantee is only as good as the supplied bound** — that
//! responsibility is the caller's, exactly as with the exponential mechanism
//! itself.

use crate::counts::ScoreTable;
use crate::explanation::AttributeCombination;
use dpx_dp::budget::{Epsilon, Sensitivity};
use dpx_dp::gumbel::sample_gumbel;
use dpx_dp::topk::one_shot_top_k;
use dpx_dp::DpError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A user-supplied single-cluster score: `(table, cluster, attribute) → ℝ`
/// with the stated sensitivity (Definition 2.6) under add/remove-one-tuple
/// neighbors.
pub struct SingleClusterScore<F: Fn(&ScoreTable, usize, usize) -> f64> {
    /// The score function.
    pub score: F,
    /// Its proven sensitivity bound.
    pub sensitivity: Sensitivity,
}

/// A user-supplied global score: `(table, assignment) → ℝ` with the stated
/// sensitivity.
pub struct GlobalScore<F: Fn(&ScoreTable, &[usize]) -> f64> {
    /// The score function.
    pub score: F,
    /// Its proven sensitivity bound.
    pub sensitivity: Sensitivity,
}

/// Stage-1 with a custom single-cluster score: per-cluster one-shot top-k at
/// `eps_cand_set / |C|` each, noise calibrated to the supplied sensitivity.
///
/// Follows the same per-cluster seed-splitting discipline as
/// [`crate::stage1::select_candidates`], so with the standard score and the
/// same master seed the two paths produce identical candidate sets.
pub fn select_candidates_custom<F, R>(
    st: &ScoreTable,
    score: &SingleClusterScore<F>,
    eps_cand_set: Epsilon,
    k: usize,
    rng: &mut R,
) -> Result<Vec<Vec<usize>>, DpError>
where
    F: Fn(&ScoreTable, usize, usize) -> f64,
    R: Rng + ?Sized,
{
    let n_clusters = st.n_clusters();
    let n_attrs = st.n_attributes();
    if k == 0 || k > n_attrs {
        return Err(DpError::NotEnoughCandidates {
            requested: k,
            available: n_attrs,
        });
    }
    let eps_topk = eps_cand_set.split(n_clusters)?;
    let seeds: Vec<u64> = (0..n_clusters).map(|_| rng.gen()).collect();
    let mut sets = Vec::with_capacity(n_clusters);
    for (c, seed) in seeds.into_iter().enumerate() {
        let scores: Vec<f64> = (0..n_attrs).map(|a| (score.score)(st, c, a)).collect();
        let mut task_rng = StdRng::seed_from_u64(seed);
        sets.push(one_shot_top_k(
            &scores,
            k,
            eps_topk,
            score.sensitivity,
            &mut task_rng,
        )?);
    }
    Ok(sets)
}

/// Stage-2 with a custom global score: exponential mechanism over the
/// candidate product space, noise calibrated to the supplied sensitivity.
pub fn select_combination_custom<F, R>(
    st: &ScoreTable,
    candidates: &[Vec<usize>],
    score: &GlobalScore<F>,
    eps_top_comb: Epsilon,
    rng: &mut R,
) -> Result<AttributeCombination, DpError>
where
    F: Fn(&ScoreTable, &[usize]) -> f64,
    R: Rng + ?Sized,
{
    if candidates.is_empty() || candidates.iter().any(Vec::is_empty) {
        return Err(DpError::EmptyCandidateSet);
    }
    let factor = eps_top_comb.get() / (2.0 * score.sensitivity.get());
    let n = candidates.len();
    let mut choice = vec![0usize; n];
    let mut combo: Vec<usize> = candidates.iter().map(|s| s[0]).collect();
    let mut best: Option<(f64, AttributeCombination)> = None;
    loop {
        let noisy = factor * (score.score)(st, &combo) + sample_gumbel(1.0, rng);
        if best.as_ref().is_none_or(|(bv, _)| noisy > *bv) {
            best = Some((noisy, combo.clone()));
        }
        let mut pos = n;
        loop {
            if pos == 0 {
                return Ok(best.expect("non-empty candidate space").1);
            }
            pos -= 1;
            choice[pos] += 1;
            if choice[pos] < candidates[pos].len() {
                combo[pos] = candidates[pos][choice[pos]];
                break;
            }
            choice[pos] = 0;
            combo[pos] = candidates[pos][0];
        }
    }
}

/// The paper's own functions expressed through the custom interface — used
/// to validate the plumbing and as a template for users.
pub fn standard_single_score(
    gamma: (f64, f64),
) -> SingleClusterScore<impl Fn(&ScoreTable, usize, usize) -> f64> {
    SingleClusterScore {
        score: move |st: &ScoreTable, c: usize, a: usize| {
            crate::quality::score::sscore(st, c, a, gamma)
        },
        sensitivity: Sensitivity::ONE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::AttrCounts;
    use crate::quality::score::{glscore, Weights};
    use crate::stage1::select_candidates;
    use crate::stage2::{select_combination, Stage2Kernel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> ScoreTable {
        let a0 = AttrCounts::new(
            vec![vec![90.0, 10.0], vec![80.0, 120.0]],
            vec![170.0, 130.0],
        );
        let a1 = AttrCounts::new(vec![vec![30.0, 70.0], vec![10.0, 190.0]], vec![40.0, 260.0]);
        ScoreTable::new(vec![a0, a1])
    }

    #[test]
    fn standard_score_through_custom_matches_stage1() {
        let st = table();
        let eps = Epsilon::new(0.4).unwrap();
        let score = standard_single_score((0.5, 0.5));
        let a =
            select_candidates_custom(&st, &score, eps, 2, &mut StdRng::seed_from_u64(9)).unwrap();
        let b =
            select_candidates(&st, (0.5, 0.5), eps, 2, 1, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b, "same seed, same scores → identical candidate sets");
    }

    #[test]
    fn custom_global_score_selects_its_own_optimum() {
        let st = table();
        // A contrarian score: prefer assignments using attribute 1 everywhere.
        let score = GlobalScore {
            score: |_: &ScoreTable, asg: &[usize]| asg.iter().filter(|&&a| a == 1).count() as f64,
            sensitivity: Sensitivity::ONE,
        };
        let candidates = vec![vec![0usize, 1], vec![0, 1]];
        let mut rng = StdRng::seed_from_u64(10);
        let sel = select_combination_custom(
            &st,
            &candidates,
            &score,
            Epsilon::new(1e6).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(sel, vec![1, 1]);
    }

    #[test]
    fn custom_glscore_reproduces_standard_stage2_scorewise() {
        let st = table();
        let w = Weights::equal();
        let score = GlobalScore {
            score: move |st: &ScoreTable, asg: &[usize]| glscore(st, asg, w),
            sensitivity: Sensitivity::ONE,
        };
        let candidates = vec![vec![0usize, 1], vec![0, 1]];
        let eps = Epsilon::new(1e6).unwrap();
        let a = select_combination_custom(
            &st,
            &candidates,
            &score,
            eps,
            &mut StdRng::seed_from_u64(11),
        )
        .unwrap();
        let kernel = Stage2Kernel::SequentialRng;
        let mut rng = StdRng::seed_from_u64(12);
        let (b, _) = select_combination(&st, &candidates, w, eps, kernel, &mut rng).unwrap();
        // Ties are possible; the achieved GlScore must coincide.
        assert!((glscore(&st, &a, w) - glscore(&st, &b, w)).abs() < 1e-9);
    }

    #[test]
    fn validation_errors_propagate() {
        let st = table();
        let score = standard_single_score((0.5, 0.5));
        let mut rng = StdRng::seed_from_u64(13);
        assert!(
            select_candidates_custom(&st, &score, Epsilon::new(1.0).unwrap(), 0, &mut rng).is_err()
        );
        let gscore = GlobalScore {
            score: |_: &ScoreTable, _: &[usize]| 0.0,
            sensitivity: Sensitivity::ONE,
        };
        assert!(select_combination_custom(
            &st,
            &[vec![], vec![0]],
            &gscore,
            Epsilon::new(1.0).unwrap(),
            &mut rng
        )
        .is_err());
    }
}
