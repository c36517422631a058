//! Quickstart: generate a small medical-records-style dataset, cluster it,
//! and produce a differentially private explanation of the clusters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dpclustx_suite::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. A sensitive dataset. Here: a synthetic stand-in for the Diabetes
    //    dataset (47 attributes, 3 latent patient groups).
    let synth = synth::diabetes::spec(3).generate(10_000, &mut rng);
    let data = synth.data;
    println!(
        "dataset: {} tuples × {} attributes",
        data.n_rows(),
        data.schema().arity()
    );

    // 2. A black-box clustering. Any total function dom(R) → C works; here,
    //    k-means over the paper's integer encoding of categorical values.
    let model = ClusteringMethod::KMeans.fit(&data, 3, &mut rng);
    let labels = model.assign_all(&data);

    // 3. Explain the clusters under differential privacy. The default
    //    configuration is the paper's: ε_CandSet = ε_TopComb = ε_Hist = 0.1
    //    (total ε = 0.3), k = 3 candidates per cluster, equal weights.
    let explainer = DpClustX::new(DpClustXConfig::default());
    let outcome = explainer
        .explain(&data, &labels, 3, &mut rng)
        .expect("valid configuration");

    println!(
        "\nselected attributes: {:?}",
        outcome.explanation.attribute_names()
    );
    println!("\nprivacy spend:\n{}", outcome.accountant.audit());

    // 4. Inspect the histogram-based explanation for each cluster, plus the
    //    generated textual description (the demo's Figure 3b).
    for e in &outcome.explanation.per_cluster {
        println!("{}", e.render());
        println!("  {}\n", text::describe(e));
    }

    // 5. How close is this to the non-private explanation? (Requires access
    //    to the raw data — this part is offline evaluation, not a release.)
    let counts = ClusteredCounts::build(&data, &labels, 3, 1);
    let st = ScoreTable::from_clustered_counts(&counts);
    let reference = tabee::select(&st, 3, Weights::equal());
    println!(
        "non-private TabEE would select clusters' attributes {:?} (MAE {:.2})",
        reference
            .iter()
            .map(|&a| data.schema().attribute(a).name.as_str())
            .collect::<Vec<_>>(),
        mae(&outcome.assignment, &reference)
    );
}
