//! The utility grid behind Figures 5 and 6: every explainer's selection
//! `Quality` and its MAE against the non-private TabEE pick, per dataset ×
//! clustering method × ε, averaged over seeded runs.
//!
//! `fig5_quality` and `fig6_mae` share this one grid (each run's pick feeds
//! both metrics), print their own column, and with `--out` write the same
//! machine-readable `BENCH_quality.json` that CI guards.

use crate::table::mean;
use crate::{methods_for, Args, DatasetKind, ExperimentContext, Explainer, Json};
use dpclustx::eval::{mae, QualityEvaluator};
use dpclustx::quality::score::Weights;
use dpx_clustering::ClusteringMethod;
use dpx_runtime::{default_threads, ordered_parallel_map};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One explainer at one ε: mean `Quality` and mean MAE over the runs.
#[derive(Debug, Clone)]
pub struct UtilityPoint {
    /// Total privacy budget of the run.
    pub eps: f64,
    /// The explainer measured.
    pub explainer: Explainer,
    /// Mean selection `Quality` over the runs.
    pub quality: f64,
    /// Mean MAE against the TabEE reference pick over the runs.
    pub mae: f64,
}

/// One dataset × clustering method cell of the grid.
#[derive(Debug, Clone)]
pub struct UtilityCell {
    /// The generated dataset.
    pub kind: DatasetKind,
    /// The clustering whose explanations are scored.
    pub method: ClusteringMethod,
    /// Number of clusters fitted.
    pub n_clusters: usize,
    /// Generated rows.
    pub rows: usize,
    /// Points in ε order; within one ε, in [`Explainer::all`] order.
    pub points: Vec<UtilityPoint>,
}

/// The grid's settings, parsed from the shared `fig5`/`fig6` flags.
#[derive(Debug, Clone)]
pub struct UtilityGrid {
    /// Master seed (per-run seeds derive from it).
    pub seed: u64,
    /// Runs averaged per point.
    pub runs: usize,
    /// Stage-1 candidate-set size.
    pub k: usize,
    /// Swept cluster counts.
    pub cluster_counts: Vec<usize>,
    /// Swept total ε values.
    pub epsilons: Vec<f64>,
    /// The measured cells.
    pub cells: Vec<UtilityCell>,
}

/// Runs the grid for `--dataset` (default `all`), `--clusters` (5), `--runs`
/// (10), `--seed` (2025), `--k` (3), `--eps` and `--rows`. Cells run on
/// `--threads` workers; per-cell seeding keeps the result identical to a
/// single-threaded run.
pub fn run_utility_grid(args: &Args) -> UtilityGrid {
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

    let specs: Vec<(DatasetKind, ClusteringMethod, usize, usize)> = cluster_counts
        .iter()
        .flat_map(|&n_clusters| {
            datasets.iter().flat_map(move |&kind| {
                methods_for(kind)
                    .into_iter()
                    .map(move |method| (kind, method, n_clusters, kind.default_rows()))
            })
        })
        .map(|(kind, method, n_clusters, rows)| {
            (kind, method, n_clusters, args.usize("rows", rows))
        })
        .collect();
    let threads = args.usize("threads", default_threads(specs.len()));

    let cells = ordered_parallel_map(specs, threads, |&(kind, method, n_clusters, rows)| {
        eprintln!(
            "# fitting {} / {} ({rows} rows, {n_clusters} clusters)",
            kind.name(),
            method.name(),
        );
        let ctx = ExperimentContext::build(kind, rows, method, n_clusters, seed);
        let evaluator = QualityEvaluator::new(&ctx.st, weights);
        // TabEE is deterministic and ε-independent: its pick is the MAE
        // reference and is evaluated once.
        let reference = Explainer::TabEE.select(
            &ctx.st,
            &ctx.counts,
            1.0,
            k,
            weights,
            &mut StdRng::seed_from_u64(seed),
        );
        let tabee_quality = evaluator.quality(&reference);
        let mut points = Vec::new();
        for &eps in &epsilons {
            points.push(UtilityPoint {
                eps,
                explainer: Explainer::TabEE,
                quality: tabee_quality,
                mae: 0.0,
            });
            for explainer in [Explainer::DpClustX, Explainer::DpNaive, Explainer::DpTabEE] {
                let (qs, maes): (Vec<f64>, Vec<f64>) = (0..runs)
                    .map(|run| {
                        let mut rng = StdRng::seed_from_u64(
                            seed ^ (run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        let pick =
                            explainer.select(&ctx.st, &ctx.counts, eps, k, weights, &mut rng);
                        (evaluator.quality(&pick), mae(&pick, &reference))
                    })
                    .unzip();
                points.push(UtilityPoint {
                    eps,
                    explainer,
                    quality: mean(&qs),
                    mae: mean(&maes),
                });
            }
        }
        UtilityCell {
            kind,
            method,
            n_clusters,
            rows,
            points,
        }
    });
    UtilityGrid {
        seed,
        runs,
        k,
        cluster_counts,
        epsilons,
        cells,
    }
}

impl UtilityGrid {
    /// The grid as the `BENCH_quality.json` document.
    pub fn to_json(&self) -> Json {
        let nums = |xs: &[f64]| xs.iter().map(|&x| Json::Num(x)).collect::<Vec<_>>();
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|cell| {
                let points: Vec<Json> = cell
                    .points
                    .iter()
                    .map(|p| {
                        Json::object()
                            .field("eps", p.eps)
                            .field("explainer", p.explainer.name())
                            .field("quality", p.quality)
                            .field("mae", p.mae)
                    })
                    .collect();
                Json::object()
                    .field("dataset", cell.kind.name())
                    .field("method", cell.method.name())
                    .field("clusters", cell.n_clusters)
                    .field("rows", cell.rows)
                    .field("points", points)
            })
            .collect();
        let clusters: Vec<f64> = self.cluster_counts.iter().map(|&c| c as f64).collect();
        Json::object()
            .field("bench", "quality")
            .field("seed", self.seed)
            .field("runs", self.runs)
            .field("k", self.k)
            .field("clusters", nums(&clusters))
            .field("eps", nums(&self.epsilons))
            .field("cells", cells)
    }

    /// Writes [`to_json`](Self::to_json) to `--out` when the flag is given.
    pub fn write_if_requested(&self, args: &Args) {
        let out = args.string("out", "");
        if out.is_empty() {
            return;
        }
        if let Some(parent) = std::path::Path::new(&out).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output directory");
            }
        }
        std::fs::write(&out, self.to_json().pretty()).expect("write BENCH json");
        eprintln!("# wrote {out}");
    }
}
