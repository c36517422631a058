//! Empirical differential-privacy checks of the released pipeline.
//!
//! These tests estimate output distributions of the *selection* mechanisms on
//! neighboring datasets and verify the ε-DP inequality
//! `P[M(D) = x] ≤ e^ε · P[M(D') = x]` within sampling tolerance. They are
//! statistical smoke tests, not proofs — but they catch calibration mistakes
//! (wrong sensitivity, wrong noise scale, budget mis-splits) immediately.

use dpclustx::counts::ScoreTable;
use dpclustx::framework::{DpClustX, DpClustXConfig};
use dpclustx_suite::prelude::*;
use dpx_data::contingency::ClusteredCounts;
use dpx_data::schema::{Attribute, Domain, Schema};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A tiny two-attribute dataset plus a fixed (data-independent) clustering,
/// so the output space of the selection is small enough to estimate.
fn tiny_world() -> (Schema, Vec<Vec<u32>>, Vec<usize>) {
    let schema = Schema::new(vec![
        Attribute::new("a", Domain::indexed(2)).unwrap(),
        Attribute::new("b", Domain::indexed(2)).unwrap(),
    ])
    .unwrap();
    // 24 tuples; the fixed clustering function is "cluster = value of a".
    let mut rows = Vec::new();
    for i in 0..24u32 {
        rows.push(vec![i % 2, (i / 2) % 2]);
    }
    let labels: Vec<usize> = rows.iter().map(|r| r[0] as usize).collect();
    (schema, rows, labels)
}

fn selection_distribution(
    data: &Dataset,
    labels: &[usize],
    eps: f64,
    runs: u64,
) -> HashMap<Vec<usize>, f64> {
    let counts = ClusteredCounts::build(data, labels, 2, 1);
    let st = ScoreTable::from_clustered_counts(&counts);
    let cfg = DpClustXConfig::selection_only(eps, 2, Weights::equal());
    let explainer = DpClustX::new(cfg);
    let mut freq: HashMap<Vec<usize>, f64> = HashMap::new();
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed);
        let pick = explainer.select_attributes(&st, &mut rng).unwrap();
        *freq.entry(pick).or_default() += 1.0;
    }
    for v in freq.values_mut() {
        *v /= runs as f64;
    }
    freq
}

#[test]
fn selection_satisfies_epsilon_dp_empirically() {
    let (schema, rows, labels) = tiny_world();
    let data = Dataset::from_rows(schema.clone(), &rows).unwrap();

    // Neighbor: one extra tuple, assigned by the same fixed clustering
    // function (cluster = value of attribute a).
    let mut rows2 = rows.clone();
    rows2.push(vec![1, 0]);
    let mut labels2 = labels.clone();
    labels2.push(1);
    let data2 = Dataset::from_rows(schema, &rows2).unwrap();

    let eps = 1.0;
    let runs = 60_000;
    let p = selection_distribution(&data, &labels, eps, runs);
    let q = selection_distribution(&data2, &labels2, eps, runs);

    // Every outcome with non-trivial mass must satisfy the ε-DP ratio bound,
    // with slack for Monte Carlo error on 60k samples.
    let bound = eps.exp() * 1.25;
    for (outcome, &pp) in &p {
        let qq = *q.get(outcome).unwrap_or(&0.0);
        if pp < 0.01 && qq < 0.01 {
            continue; // too rare to estimate ratios reliably
        }
        let ratio = pp.max(1e-9) / qq.max(1e-9);
        assert!(
            ratio < bound && 1.0 / ratio < bound,
            "outcome {outcome:?}: P={pp:.4} vs Q={qq:.4} breaks e^ε bound"
        );
    }
}

#[test]
fn lower_epsilon_means_flatter_selection() {
    let (schema, rows, labels) = tiny_world();
    let data = Dataset::from_rows(schema, &rows).unwrap();
    let sharp = selection_distribution(&data, &labels, 200.0, 4_000);
    let flat = selection_distribution(&data, &labels, 0.001, 4_000);
    let max_sharp = sharp.values().cloned().fold(0.0, f64::max);
    let max_flat = flat.values().cloned().fold(0.0, f64::max);
    assert!(
        max_sharp > max_flat + 0.2,
        "sharp {max_sharp} should concentrate more than flat {max_flat}"
    );
    // Near-zero ε: close to uniform over the 4 combinations.
    assert!(max_flat < 0.35, "ε→0 distribution peak {max_flat}");
}

#[test]
fn accountant_rejects_overdrawn_pipelines() {
    let cap = Epsilon::new(0.2).unwrap();
    let mut acc = Accountant::with_cap(cap);
    acc.charge("stage1", Epsilon::new(0.1).unwrap()).unwrap();
    acc.charge("stage2", Epsilon::new(0.1).unwrap()).unwrap();
    assert!(acc.charge("extra", Epsilon::new(0.01).unwrap()).is_err());
}

#[test]
fn full_pipeline_budget_is_theorem_5_1() {
    // ε_CandSet + ε_TopComb + ε_Hist, whatever the (distinct) parts.
    let mut rng = StdRng::seed_from_u64(9);
    let synth = synth::diabetes::spec(3).generate(2_000, &mut rng);
    let labels = synth.latent_groups.clone();
    let cfg = DpClustXConfig {
        k: 2,
        eps_cand_set: 0.05,
        eps_top_comb: 0.2,
        eps_hist: Some(0.12),
        weights: Weights::equal(),
        consistency: false,
    };
    let outcome = DpClustX::new(cfg)
        .explain(&synth.data, &labels, 3, &mut rng)
        .unwrap();
    assert!((outcome.accountant.spent() - 0.37).abs() < 1e-9);
}

#[test]
fn histogram_noise_scales_with_budget() {
    // The released histograms at tight ε must be visibly noisier than at
    // loose ε (sanity on the ε_Hist plumbing).
    let mut rng = StdRng::seed_from_u64(10);
    let synth = synth::diabetes::spec(2).generate(5_000, &mut rng);
    let labels = synth.latent_groups.clone();
    let counts = ClusteredCounts::build(&synth.data, &labels, 2, 1);

    let err_at = |eps_hist: f64, rng: &mut StdRng| -> f64 {
        let cfg = DpClustXConfig {
            eps_cand_set: 100.0,
            eps_top_comb: 100.0,
            eps_hist: Some(eps_hist),
            ..Default::default()
        };
        let outcome = DpClustX::new(cfg)
            .explain(&synth.data, &labels, 2, rng)
            .unwrap();
        // Compare released cluster histograms to exact ones.
        outcome
            .explanation
            .per_cluster
            .iter()
            .map(|e| {
                let exact = counts.table(e.attribute).cluster_histogram(e.cluster);
                e.hist_cluster
                    .iter()
                    .zip(exact.counts())
                    .map(|(&n, &x)| (n - x as f64).abs())
                    .sum::<f64>()
            })
            .sum()
    };
    let tight: f64 = (0..10).map(|_| err_at(0.01, &mut rng)).sum();
    let loose: f64 = (0..10).map(|_| err_at(10.0, &mut rng)).sum();
    assert!(
        tight > 5.0 * loose.max(1.0),
        "tight-ε error {tight} should dwarf loose-ε error {loose}"
    );
}
