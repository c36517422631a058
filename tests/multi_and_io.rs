//! Integration: the Appendix B multi-explanation extension end-to-end, and
//! dataset CSV round-trips feeding the pipeline.

use dpclustx::multi::{generate_multi_histograms, glscore_multi, select_multi_combination};
use dpclustx::stage1::select_candidates;
use dpclustx_suite::prelude::*;
use dpx_data::contingency::ClusteredCounts;
use dpx_data::csv::{read_csv, write_csv};
use dpx_dp::histogram::GeometricHistogram;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn multi_explanations_end_to_end() {
    let mut rng = StdRng::seed_from_u64(21);
    let synth = synth::diabetes::spec(3).generate(6_000, &mut rng);
    let labels = synth.latent_groups.clone();
    let counts = ClusteredCounts::build(&synth.data, &labels, 3, 1);
    let st = ScoreTable::from_clustered_counts(&counts);
    let weights = Weights::equal();

    let candidates = select_candidates(
        &st,
        weights.gamma(),
        Epsilon::new(0.2).unwrap(),
        4,
        1,
        &mut rng,
    )
    .unwrap();
    let assignment = select_multi_combination(
        &st,
        &candidates,
        2,
        weights,
        Epsilon::new(0.2).unwrap(),
        &mut rng,
    )
    .unwrap();
    assert_eq!(assignment.len(), 3);
    assert!(assignment.iter().all(|s| s.len() == 2));
    // The two attributes per cluster are distinct (they are subsets).
    for s in &assignment {
        assert_ne!(s[0], s[1]);
    }

    let mut acc = Accountant::new();
    let slots = generate_multi_histograms(
        synth.data.schema(),
        &counts,
        &assignment,
        Epsilon::new(0.2).unwrap(),
        &GeometricHistogram,
        &mut acc,
        1,
        &mut rng,
    )
    .unwrap();
    assert_eq!(slots.len(), 2);
    assert!(acc.spent() <= 0.2 + 1e-9, "spent {}", acc.spent());
    for slot in &slots {
        assert_eq!(slot.per_cluster.len(), 3);
    }
}

#[test]
fn multi_score_improves_or_matches_with_more_slots() {
    // Adding a second informative histogram per cluster should not hurt the
    // extended score when evaluated on its own terms at high ε.
    let mut rng = StdRng::seed_from_u64(22);
    let synth = synth::diabetes::spec(3).generate(6_000, &mut rng);
    let labels = synth.latent_groups.clone();
    let counts = ClusteredCounts::build(&synth.data, &labels, 3, 1);
    let st = ScoreTable::from_clustered_counts(&counts);
    let weights = Weights::equal();
    let candidates = select_candidates(
        &st,
        weights.gamma(),
        Epsilon::new(500.0).unwrap(),
        4,
        1,
        &mut rng,
    )
    .unwrap();
    let single = select_multi_combination(
        &st,
        &candidates,
        1,
        weights,
        Epsilon::new(500.0).unwrap(),
        &mut rng,
    )
    .unwrap();
    let double = select_multi_combination(
        &st,
        &candidates,
        2,
        weights,
        Epsilon::new(500.0).unwrap(),
        &mut rng,
    )
    .unwrap();
    let s1 = glscore_multi(&st, &single, weights);
    let s2 = glscore_multi(&st, &double, weights);
    // Not a theorem, but on well-separated synthetic data with 4 candidates
    // the doubled explanation keeps at least 70% of the single-slot score.
    assert!(s2 > 0.7 * s1, "ℓ=2 score {s2} vs ℓ=1 score {s1}");
}

#[test]
fn csv_roundtrip_feeds_the_pipeline() {
    let mut rng = StdRng::seed_from_u64(23);
    let synth = synth::stackoverflow::spec(2).generate(800, &mut rng);
    let mut buf = Vec::new();
    write_csv(&synth.data, &mut buf).unwrap();
    let restored = read_csv(synth.data.schema().clone(), buf.as_slice()).unwrap();
    assert_eq!(restored.n_rows(), synth.data.n_rows());

    let model = ClusteringMethod::KModes.fit(&restored, 2, &mut rng);
    let labels = model.assign_all(&restored);
    let outcome = dpclustx::framework::DpClustX::new(Default::default())
        .explain(&restored, &labels, 2, &mut rng)
        .unwrap();
    assert_eq!(outcome.explanation.per_cluster.len(), 2);
}
