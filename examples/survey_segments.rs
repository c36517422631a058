//! Developer-survey segmentation with **multiple explanations per cluster**
//! (the Appendix B extension) and custom quality weights.
//!
//! A product team segments Stack Overflow respondents with a Gaussian
//! mixture, then asks for *two* histograms per segment, weighting
//! interestingness over diversity.
//!
//! ```text
//! cargo run --release --example survey_segments
//! ```

use dpclustx::multi::{generate_multi_histograms, select_multi_combination};
use dpclustx::stage1::select_candidates;
use dpclustx_suite::prelude::*;
use dpx_dp::histogram::GeometricHistogram;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let n_clusters = 3;
    let ell = 2; // explanations per cluster
    let weights = Weights::new(0.5, 0.3, 0.2); // favour interestingness

    let synth = synth::stackoverflow::spec(n_clusters).generate(20_000, &mut rng);
    let data = synth.data;
    let model = ClusteringMethod::Gmm.fit(&data, n_clusters, &mut rng);
    let labels = model.assign_all(&data);

    let counts = ClusteredCounts::build(&data, &labels, n_clusters, 1);
    let st = ScoreTable::from_clustered_counts(&counts);

    // Stage 1 unchanged (Appendix B): top-k candidates per cluster, k ≥ ℓ.
    let eps_cand = Epsilon::new(0.1).expect("positive");
    let candidates = select_candidates(&st, weights.gamma(), eps_cand, 4, 1, &mut rng)
        .expect("valid configuration");

    // Stage 2: exponential mechanism over binom(k, ℓ)^|C| subset combinations.
    let eps_comb = Epsilon::new(0.1).expect("positive");
    let assignment = select_multi_combination(&st, &candidates, ell, weights, eps_comb, &mut rng)
        .expect("enough candidates per cluster");

    // Histogram release: ℓ slots sharing ε_Hist.
    let mut accountant = Accountant::new();
    let eps_hist = Epsilon::new(0.2).expect("positive");
    let slots = generate_multi_histograms(
        data.schema(),
        &counts,
        &assignment,
        eps_hist,
        &GeometricHistogram,
        &mut accountant,
        1,
        &mut rng,
    )
    .expect("valid configuration");

    println!(
        "total ε = {} (0.1 + 0.1 + 0.2)\n",
        0.1 + 0.1 + accountant.spent()
    );
    for c in 0..n_clusters {
        println!("──── Segment {c} ({} explanations) ────", ell);
        for slot in &slots {
            let e = &slot.per_cluster[c];
            println!("{}", e.render());
            println!("  {}\n", text::describe(e));
        }
    }
}
