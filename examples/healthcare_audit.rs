//! Healthcare scenario: the paper's running example (§1) end-to-end under a
//! **single composed privacy budget**.
//!
//! A hospital analyst clusters diabetic-patient records with DP-k-means
//! (ε_clust = 1) and explains the clusters with DPClustX (ε_exp = 0.3). By
//! sequential composition the whole session satisfies (ε_clust + ε_exp)-DP —
//! this example prints the full audit trail and compares the private
//! explanation against what a non-private analyst would have gotten.
//!
//! ```text
//! cargo run --release --example healthcare_audit
//! ```

use dpclustx_suite::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let n_clusters = 3;

    // The sensitive dataset: synthetic Diabetes 130-US stand-in.
    let synth = synth::diabetes::spec(n_clusters).generate(30_000, &mut rng);
    let data = synth.data;

    // --- Step 1: DP clustering (ε_clust = 1, the paper's setting). ---
    let eps_clust = 1.0;
    let model = ClusteringMethod::DpKMeans { epsilon: eps_clust }.fit(&data, n_clusters, &mut rng);
    let labels = model.assign_all(&data);
    let sizes: Vec<usize> = (0..n_clusters)
        .map(|c| labels.iter().filter(|&&l| l == c).count())
        .collect();
    println!("DP-k-means (ε = {eps_clust}) cluster sizes: {sizes:?}");

    // --- Step 2: DP explanation (ε_exp = 0.3). ---
    let config = DpClustXConfig {
        k: 3,
        eps_cand_set: 0.1,
        eps_top_comb: 0.1,
        eps_hist: Some(0.1),
        weights: Weights::equal(),
        consistency: false,
    };
    let outcome = DpClustX::new(config)
        .explain(&data, &labels, n_clusters, &mut rng)
        .expect("valid configuration");

    println!("\nDPClustX audit (ε_exp):\n{}", outcome.accountant.audit());
    println!(
        "overall session privacy: ε_clust + ε_exp = {} (sequential composition)\n",
        eps_clust + config.total_epsilon()
    );

    for e in &outcome.explanation.per_cluster {
        println!("{}", e.render());
        println!("  {}\n", text::describe(e));
    }

    // --- Offline comparison against the non-private explanation. ---
    let counts = ClusteredCounts::build(&data, &labels, n_clusters, 1);
    let st = ScoreTable::from_clustered_counts(&counts);
    let evaluator = QualityEvaluator::new(&st, Weights::equal());
    let reference = tabee::select(&st, 3, Weights::equal());
    let q_dp = evaluator.quality(&outcome.assignment);
    let q_ref = evaluator.quality(&reference);
    println!("Quality — DPClustX: {q_dp:.4}, non-private TabEE: {q_ref:.4}");
    println!("MAE vs TabEE: {:.2}", mae(&outcome.assignment, &reference));
}
