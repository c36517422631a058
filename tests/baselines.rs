//! Integration: the headline comparative claims of the evaluation, at small
//! scale — DPClustX ≥ the DP baselines, and convergence to TabEE as ε grows.

use dpclustx::counts::ScoreTable;
use dpclustx_suite::prelude::*;
use dpx_bench::Explainer;
use dpx_data::contingency::ClusteredCounts;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    counts: ClusteredCounts,
    st: ScoreTable,
}

fn world(rows: usize, n_clusters: usize, seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let synth = synth::diabetes::spec(n_clusters).generate(rows, &mut rng);
    let model = ClusteringMethod::KMeans.fit(&synth.data, n_clusters, &mut rng);
    let labels = model.assign_all(&synth.data);
    let counts = ClusteredCounts::build(&synth.data, &labels, n_clusters, 1);
    let st = ScoreTable::from_clustered_counts(&counts);
    World { counts, st }
}

fn mean_quality(w: &World, explainer: Explainer, eps: f64, runs: u64) -> f64 {
    let weights = Weights::equal();
    let evaluator = QualityEvaluator::new(&w.st, weights);
    let mut total = 0.0;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let pick = explainer.select(&w.st, &w.counts, eps, 3, weights, &mut rng);
        total += evaluator.quality(&pick);
    }
    total / runs as f64
}

#[test]
fn tabee_upper_bounds_dp_methods_on_a_clean_clustering() {
    let w = world(20_000, 3, 42);
    let q_tabee = mean_quality(&w, Explainer::TabEE, 1.0, 1);
    for explainer in [Explainer::DpClustX, Explainer::DpNaive, Explainer::DpTabEE] {
        let q = mean_quality(&w, explainer, 0.1, 5);
        assert!(
            q <= q_tabee + 0.02,
            "{} at ε=0.1 ({q:.4}) should not beat TabEE ({q_tabee:.4})",
            explainer.name()
        );
    }
}

#[test]
fn dpclustx_beats_dp_tabee_at_tight_epsilon() {
    // The paper's central comparison: at ε = 0.1, DPClustX is near TabEE
    // while DP-TabEE is far below.
    let w = world(20_000, 3, 42);
    let q_tabee = mean_quality(&w, Explainer::TabEE, 1.0, 1);
    let q_dpx = mean_quality(&w, Explainer::DpClustX, 0.1, 8);
    let q_dpt = mean_quality(&w, Explainer::DpTabEE, 0.1, 8);
    assert!(
        q_dpx > q_dpt + 0.02,
        "DPClustX {q_dpx:.4} should clearly beat DP-TabEE {q_dpt:.4}"
    );
    assert!(
        (q_tabee - q_dpx) / q_tabee < 0.15,
        "DPClustX {q_dpx:.4} should be within 15% of TabEE {q_tabee:.4}"
    );
}

#[test]
fn dpclustx_converges_to_tabee_with_epsilon() {
    let w = world(20_000, 3, 43);
    let q_tight = mean_quality(&w, Explainer::DpClustX, 0.01, 8);
    let q_loose = mean_quality(&w, Explainer::DpClustX, 10.0, 8);
    let q_tabee = mean_quality(&w, Explainer::TabEE, 1.0, 1);
    assert!(
        q_loose >= q_tight - 1e-9,
        "quality must not degrade with more budget: {q_tight:.4} -> {q_loose:.4}"
    );
    assert!(
        (q_tabee - q_loose).abs() / q_tabee < 0.02,
        "at ε=10 DPClustX ({q_loose:.4}) should match TabEE ({q_tabee:.4})"
    );
}

#[test]
fn dpclustx_mae_vanishes_at_generous_epsilon() {
    let w = world(20_000, 3, 44);
    let weights = Weights::equal();
    let reference = dpclustx::baselines::tabee::select(&w.st, 3, weights);
    let mut total_mae = 0.0;
    let runs = 5;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(7_000 + seed);
        let pick = Explainer::DpClustX.select(&w.st, &w.counts, 50.0, 3, weights, &mut rng);
        total_mae += mae(&pick, &reference);
    }
    // At ε=50 the selection is effectively exact; allow tie-induced slack.
    assert!(
        total_mae / runs as f64 <= 0.35,
        "MAE at ε=50 is {}",
        total_mae / runs as f64
    );
}

#[test]
fn small_clusters_degrade_dp_quality_but_not_tabee() {
    // Figure 8b's mechanism: shrink every cluster to 1% and watch the DP
    // methods fall while TabEE holds.
    let big = world(40_000, 3, 45);
    let mut rng = StdRng::seed_from_u64(46);
    let synth = synth::diabetes::spec(3).generate(40_000, &mut rng);
    let model = ClusteringMethod::KMeans.fit(&synth.data, 3, &mut rng);
    let labels = model.assign_all(&synth.data);
    let (small_data, small_labels) =
        dpx_data::sample::sample_per_cluster(&synth.data, &labels, 3, 0.005, &mut rng);
    let small = {
        let counts = ClusteredCounts::build(&small_data, &small_labels, 3, 1);
        let st = ScoreTable::from_clustered_counts(&counts);
        World { counts, st }
    };

    let q_big = mean_quality(&big, Explainer::DpClustX, 0.1, 5);
    let q_small = mean_quality(&small, Explainer::DpClustX, 0.1, 5);
    let t_big = mean_quality(&big, Explainer::TabEE, 1.0, 1);
    let t_small = mean_quality(&small, Explainer::TabEE, 1.0, 1);
    // TabEE stays within a few percent; DPClustX drops noticeably more.
    let tabee_drop = (t_big - t_small) / t_big;
    let dpx_drop = (q_big - q_small) / q_big;
    assert!(
        dpx_drop > tabee_drop + 0.05,
        "DPClustX drop {dpx_drop:.3} should exceed TabEE drop {tabee_drop:.3}"
    );
}
