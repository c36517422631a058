//! Figure 6 (and appendix Figure 12): MAE of the selected attribute
//! combination against the non-private TabEE reference, as ε varies.
//! Cells (dataset × method) run in parallel; per-cell seeding keeps results
//! identical to a single-threaded run.
//!
//! ```text
//! cargo run -p dpx-bench --release --bin fig6_mae -- --dataset all --clusters 5
//! ```

use dpclustx::eval::mae;
use dpclustx::quality::score::Weights;
use dpx_bench::table::{fmt4, mean, Table};
use dpx_bench::{methods_for, Args, DatasetKind, ExperimentContext, Explainer};
use dpx_clustering::ClusteringMethod;
use dpx_runtime::{default_threads, ordered_parallel_map};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Cell {
    kind: DatasetKind,
    method: ClusteringMethod,
    n_clusters: usize,
    rows: usize,
}

fn main() {
    let args = Args::parse();
    let datasets = DatasetKind::from_flag(&args.string("dataset", "all"));
    let cluster_counts = args.usize_list("clusters", &[5]);
    let runs = args.usize("runs", 10);
    let seed = args.u64("seed", 2025);
    let k = args.usize("k", 3);
    let epsilons = args.f64_list(
        "eps",
        &[0.001, 0.003_162, 0.01, 0.031_62, 0.1, 0.316_2, 1.0],
    );
    let weights = Weights::equal();

    let cells: Vec<Cell> = cluster_counts
        .iter()
        .flat_map(|&n_clusters| {
            datasets.iter().flat_map(move |&kind| {
                let rows = kind.default_rows();
                methods_for(kind).into_iter().map(move |method| Cell {
                    kind,
                    method,
                    n_clusters,
                    rows,
                })
            })
        })
        .map(|mut cell| {
            cell.rows = args.usize("rows", cell.rows);
            cell
        })
        .collect();
    let threads = args.usize("threads", default_threads(cells.len()));

    let tables = ordered_parallel_map(cells, threads, |cell| {
        eprintln!(
            "# fitting {} / {} ({} rows, {} clusters)",
            cell.kind.name(),
            cell.method.name(),
            cell.rows,
            cell.n_clusters
        );
        let ctx =
            ExperimentContext::build(cell.kind, cell.rows, cell.method, cell.n_clusters, seed);
        let reference = Explainer::TabEE.select(
            &ctx.st,
            &ctx.counts,
            1.0,
            k,
            weights,
            &mut StdRng::seed_from_u64(seed),
        );

        let mut table = Table::new(["dataset", "method", "eps", "explainer", "mae"]);
        for &eps in &epsilons {
            for explainer in [Explainer::DpClustX, Explainer::DpNaive, Explainer::DpTabEE] {
                let maes: Vec<f64> = (0..runs)
                    .map(|run| {
                        let mut rng = StdRng::seed_from_u64(
                            seed ^ (run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        let pick =
                            explainer.select(&ctx.st, &ctx.counts, eps, k, weights, &mut rng);
                        mae(&pick, &reference)
                    })
                    .collect();
                table.row([
                    cell.kind.name().to_string(),
                    cell.method.name().to_string(),
                    format!("{eps}"),
                    explainer.name().to_string(),
                    fmt4(mean(&maes)),
                ]);
            }
        }
        table.render()
    });
    for table in tables {
        println!("{table}");
    }
}
