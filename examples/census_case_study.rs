//! The §6.3 case study at example scale: Census data, 3 clusters, k-means,
//! DPClustX vs TabEE side by side with textual descriptions.
//!
//! In the paper both explanations reveal the same story — a cluster of
//! currently-not-working adults, a cluster of under-16s with no work data,
//! and a cluster of working individuals — even when the selected attributes
//! differ (they are correlated).
//!
//! ```text
//! cargo run --release --example census_case_study
//! ```

use dpclustx::stage2::exact_histograms;
use dpclustx_suite::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(90);
    let n_clusters = 3;

    let synth = synth::census::spec(n_clusters).generate(40_000, &mut rng);
    let data = synth.data;
    let model = ClusteringMethod::KMeans.fit(&data, n_clusters, &mut rng);
    let labels = model.assign_all(&data);

    let outcome = DpClustX::new(DpClustXConfig::default())
        .explain(&data, &labels, n_clusters, &mut rng)
        .expect("valid configuration");

    let counts = ClusteredCounts::build(&data, &labels, n_clusters, 1);
    let st = ScoreTable::from_clustered_counts(&counts);
    let evaluator = QualityEvaluator::new(&st, Weights::equal());
    let reference = tabee::select(&st, 3, Weights::equal());
    let tabee_expl = exact_histograms(data.schema(), &counts, &reference);

    println!(
        "=== DPClustX (ε = {}) ===",
        DpClustXConfig::default().total_epsilon()
    );
    println!("attributes: {:?}\n", outcome.explanation.attribute_names());
    for e in &outcome.explanation.per_cluster {
        println!("{}", e.render());
        println!("  {}\n", text::describe(e));
    }

    println!("=== Non-private TabEE ===");
    println!("attributes: {:?}\n", tabee_expl.attribute_names());
    for e in &tabee_expl.per_cluster {
        println!("  {}", text::describe(e));
    }

    let q_dp = evaluator.quality(&outcome.assignment);
    let q_ref = evaluator.quality(&reference);
    println!(
        "\nMAE = {:.2}; Quality gap = {:+.2}% (DPClustX {q_dp:.4} vs TabEE {q_ref:.4})",
        mae(&outcome.assignment, &reference),
        if q_ref.abs() > 1e-12 {
            (q_dp - q_ref) / q_ref * 100.0
        } else {
            0.0
        }
    );
}
