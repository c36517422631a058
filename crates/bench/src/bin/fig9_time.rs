//! Figure 9: execution-time trends of the full DPClustX pipeline (selection +
//! histogram generation), averaged over `--runs` runs.
//!
//! Modes (paper sub-figures):
//! * `clusters`   — 9a: time vs number of clusters (k-means + GMMs).
//! * `candidates` — 9b: time vs Stage-1 candidate-set size `k` at 9 clusters.
//! * `attributes` — 9c: time vs fraction of attributes used.
//! * `rows`       — 9d: time vs fraction of tuples used.
//! * `bench`      — machine-readable perf harness: emits `BENCH_fig9.json`
//!   (default `results/BENCH_fig9.json`, override with `--out`) containing
//!   the host's `available_parallelism`; the counts-kernel ablation (naive
//!   PR-1 build vs the flat kernel at each swept thread count, default
//!   `1,2,4,8`) over rows, attribute subsets, and cluster counts; the
//!   **incremental ablation** (`apply_delta` on a `--delta-fraction` tail vs
//!   a full rebuild, `incremental.speedup_vs_rebuild`); plus the Stage-2
//!   node rate: leaves/s of the pruned counter sweep at each `--k` and at
//!   ε 0.1 and 1. Every counts cell whose thread count exceeds the host's
//!   parallelism is marked `"oversubscribed": true`. Counts cells are timed
//!   as warmup + min-of-runs (see `counts_ablation::time_runs`).
//!
//! ```text
//! cargo run -p dpx-bench --release --bin fig9_time -- --mode clusters
//! cargo run -p dpx-bench --release --bin fig9_time -- --mode bench \
//!     --dataset diabetes --rows 1000000 --threads 4
//! ```

use dpclustx::engine::{ExplainEngine, NoopObserver};
use dpclustx::framework::DpClustXConfig;
use dpclustx::stage2::select_combination;
use dpclustx::Weights;
use dpx_bench::counts_ablation::{run_counts_ablation, run_incremental_ablation, CountsAblation};
use dpx_bench::table::{mean, Table};
use dpx_bench::{Args, DatasetKind, ExperimentContext, Json};
use dpx_clustering::ClusteringMethod;
use dpx_data::contingency::ClusteredCounts;
use dpx_data::sample::{sample_attributes, sample_rows};
use dpx_dp::budget::Epsilon;
use dpx_dp::histogram::GeometricHistogram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Times the pipeline (selection + histogram generation) from the context's
/// prepared counts: the one-pass contingency tables are built once per
/// setting by [`ExperimentContext`] and reused across every run and `k`, so
/// the measured time is the explanation pipeline itself, not repeated data
/// scans.
fn time_explain(ctx: &ExperimentContext, k: usize, runs: usize, seed: u64) -> f64 {
    let cfg = DpClustXConfig {
        k,
        ..Default::default()
    };
    let engine = ExplainEngine::new(cfg);
    let times: Vec<f64> = (0..runs)
        .map(|run| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let t0 = Instant::now();
            engine
                .explain_prepared(
                    ctx.data.schema(),
                    &ctx.counts,
                    &GeometricHistogram,
                    &mut rng,
                    &mut NoopObserver,
                )
                .expect("valid configuration");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    mean(&times)
}

fn main() {
    let args = Args::parse();
    let mode = args.string("mode", "clusters");
    let datasets = DatasetKind::from_flag(&args.string("dataset", "all"));
    let runs = args.usize("runs", 10);
    let seed = args.u64("seed", 2025);

    match mode.as_str() {
        "clusters" => {
            let cluster_counts = args.usize_list("clusters", &[3, 5, 7, 9, 11, 13, 15]);
            let k = args.usize("k", 3);
            let mut table = Table::new(["dataset", "method", "#clusters", "seconds"]);
            for kind in &datasets {
                let rows = args.usize("rows", kind.default_rows());
                // §6.3: only k-means and GMMs scale to many clusters.
                for method in [ClusteringMethod::KMeans, ClusteringMethod::Gmm] {
                    for &n_clusters in &cluster_counts {
                        eprintln!(
                            "# {} / {} / {} clusters",
                            kind.name(),
                            method.name(),
                            n_clusters
                        );
                        let ctx = ExperimentContext::build(*kind, rows, method, n_clusters, seed);
                        let secs = time_explain(&ctx, k, runs, seed);
                        table.row([
                            kind.name().to_string(),
                            method.name().to_string(),
                            n_clusters.to_string(),
                            format!("{secs:.4}"),
                        ]);
                    }
                }
            }
            table.print();
        }
        "candidates" => {
            let n_clusters = args.usize("clusters", 9);
            let ks = args.usize_list("k", &[1, 2, 3, 4, 5]);
            let mut table = Table::new(["dataset", "k", "seconds"]);
            for kind in &datasets {
                let rows = args.usize("rows", kind.default_rows());
                eprintln!("# {} k-means ({} clusters)", kind.name(), n_clusters);
                let ctx = ExperimentContext::build(
                    *kind,
                    rows,
                    ClusteringMethod::KMeans,
                    n_clusters,
                    seed,
                );
                for &k in &ks {
                    let secs = time_explain(&ctx, k, runs, seed);
                    table.row([kind.name().to_string(), k.to_string(), format!("{secs:.4}")]);
                }
            }
            table.print();
        }
        "attributes" => {
            let n_clusters = args.usize("clusters", 9);
            let k = args.usize("k", 3);
            let fractions = args.f64_list("fractions", &[0.2, 0.4, 0.6, 0.8, 1.0]);
            let mut table = Table::new(["dataset", "attr-frac", "#attrs", "seconds"]);
            for kind in &datasets {
                let rows = args.usize("rows", kind.default_rows());
                eprintln!("# {} k-means ({} clusters)", kind.name(), n_clusters);
                let full = ExperimentContext::build(
                    *kind,
                    rows,
                    ClusteringMethod::KMeans,
                    n_clusters,
                    seed,
                );
                for &frac in &fractions {
                    let mut srng = StdRng::seed_from_u64(seed ^ 0xA77);
                    let attrs = sample_attributes(full.data.schema().arity(), frac, &mut srng);
                    let data = full.data.select_attributes(&attrs);
                    let ctx = ExperimentContext::from_parts(data, full.labels.clone(), n_clusters);
                    let secs = time_explain(&ctx, k, runs, seed);
                    table.row([
                        kind.name().to_string(),
                        format!("{frac}"),
                        attrs.len().to_string(),
                        format!("{secs:.4}"),
                    ]);
                }
            }
            table.print();
        }
        "rows" => {
            let n_clusters = args.usize("clusters", 9);
            let k = args.usize("k", 3);
            let fractions = args.f64_list("fractions", &[0.2, 0.4, 0.6, 0.8, 1.0]);
            let mut table = Table::new(["dataset", "row-frac", "#rows", "seconds"]);
            for kind in &datasets {
                let rows = args.usize("rows", kind.default_rows());
                eprintln!("# {} k-means ({} clusters)", kind.name(), n_clusters);
                let full = ExperimentContext::build(
                    *kind,
                    rows,
                    ClusteringMethod::KMeans,
                    n_clusters,
                    seed,
                );
                for &frac in &fractions {
                    let mut srng = StdRng::seed_from_u64(seed ^ 0xB0B);
                    let keep = sample_rows(full.data.n_rows(), frac, &mut srng);
                    let data = full.data.select_rows(&keep);
                    let labels: Vec<usize> = keep.iter().map(|&r| full.labels[r]).collect();
                    let ctx = ExperimentContext::from_parts(data, labels, n_clusters);
                    let secs = time_explain(&ctx, k, runs, seed);
                    table.row([
                        kind.name().to_string(),
                        format!("{frac}"),
                        keep.len().to_string(),
                        format!("{secs:.4}"),
                    ]);
                }
            }
            table.print();
        }
        "bench" => {
            // Fewer timing runs by default here: every cell re-counts the full
            // dataset several times, and the cells are means already.
            let runs = args.usize("runs", 3);
            run_bench_mode(&args, &datasets, runs, seed);
        }
        other => panic!("unknown mode '{other}' (clusters|candidates|attributes|rows|bench)"),
    }
}

/// Renders one counts-ablation cell as a JSON object; kernels asked for more
/// threads than the host's `parallelism` are marked oversubscribed.
fn ablation_json(abl: &CountsAblation, parallelism: usize) -> Json {
    let kernels: Vec<Json> = abl
        .timings
        .iter()
        .map(|t| {
            Json::object()
                .field("kernel", t.kernel.as_str())
                .field("seconds", t.seconds)
                .field("speedup_vs_naive", t.speedup_vs_naive)
                .field("oversubscribed", t.threads > parallelism)
        })
        .collect();
    Json::object()
        .field("rows", abl.rows)
        .field("attributes", abl.attributes)
        .field("clusters", abl.clusters)
        .field("kernels", kernels)
}

/// The `--mode bench` harness: counts-kernel ablation sweeps plus the Stage-2
/// enumerator node rate, written to `--out` as pretty-printed JSON.
///
/// Labels come straight from the generator's latent groups — the harness
/// measures the counting and enumeration kernels, not clustering, so it skips
/// the (slow, irrelevant) model fit that the paper-figure modes pay for.
fn run_bench_mode(args: &Args, datasets: &[DatasetKind], runs: usize, seed: u64) {
    let kind = *datasets.first().expect("at least one dataset");
    let base_rows = args.usize("rows", 1_000_000);
    let n_clusters = args.usize("clusters", 9);
    let threads = args.usize_list("threads", &[1, 2, 4, 8]);
    let row_counts = args.usize_list("rows-sweep", &[base_rows / 4, base_rows / 2, base_rows]);
    let delta_fraction = args.f64("delta-fraction", 0.01);
    let attr_fractions = args.f64_list("attr-fractions", &[0.25, 0.5, 1.0]);
    let cluster_counts = args.usize_list("clusters-sweep", &[3, n_clusters]);
    let ks = args.usize_list("k", &[2, 3, 4]);
    let out = args.string("out", "results/BENCH_fig9.json");
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    // The widest swept thread count the host can run without
    // oversubscribing — the worker count the rebuild baselines use.
    let widest = threads
        .iter()
        .copied()
        .filter(|&t| t <= parallelism)
        .max()
        .unwrap_or(1)
        .max(1);

    eprintln!("# generating {} rows of {}", base_rows, kind.name());
    let synth = kind.generate(base_rows, n_clusters, seed);
    let data = synth.data;
    let labels = synth.latent_groups;

    // Rows sweep: prefixes of the generated dataset, full schema.
    let mut rows_cells = Vec::new();
    for &r in &row_counts {
        let r = r.min(base_rows).max(1);
        eprintln!("# counts ablation: {r} rows");
        let keep: Vec<usize> = (0..r).collect();
        let d = data.select_rows(&keep);
        let l = labels[..r].to_vec();
        rows_cells.push(run_counts_ablation(&d, &l, n_clusters, &threads, runs));
    }

    // Attributes sweep: deterministic attribute subsets at full rows.
    let mut attr_cells = Vec::new();
    for &frac in &attr_fractions {
        let mut srng = StdRng::seed_from_u64(seed ^ 0xA77);
        let attrs = sample_attributes(data.schema().arity(), frac, &mut srng);
        eprintln!("# counts ablation: {} attributes", attrs.len());
        let d = data.select_attributes(&attrs);
        attr_cells.push(run_counts_ablation(&d, &labels, n_clusters, &threads, runs));
    }

    // Clusters sweep: same data, labels folded into fewer/more clusters.
    let mut cluster_cells = Vec::new();
    for &c in &cluster_counts {
        let c = c.max(1);
        eprintln!("# counts ablation: {c} clusters");
        let l: Vec<usize> = labels.iter().map(|&g| g % c).collect();
        cluster_cells.push(run_counts_ablation(&data, &l, c, &threads, runs));
    }

    // Headline cell for the acceptance check: full rows, full schema.
    let headline = rows_cells
        .iter()
        .max_by_key(|a| a.rows)
        .expect("rows sweep is non-empty")
        .clone();

    // Incremental path: append the last `delta_fraction` of the rows to a
    // warm build and compare against rebuilding everything at `widest`.
    eprintln!("# incremental ablation: {delta_fraction} delta fraction");
    let incremental =
        run_incremental_ablation(&data, &labels, n_clusters, delta_fraction, widest, runs);

    // Stage-2 node rate on the real score table: the pruned counter sweep's
    // leaves/s at the serving default ε_TopComb = 0.1 and at ε = 1, where
    // the bound prunes more. Its wall time depends on the scores, not only
    // on k^|C|.
    let counts = ClusteredCounts::build(&data, &labels, n_clusters, widest);
    let st = dpclustx::ScoreTable::from_clustered_counts(&counts);
    let mut stage2_cells = Vec::new();
    let mut stage2_summary = Vec::new();
    for &k in &ks {
        let k = k.max(1).min(data.schema().arity());
        let candidates: Vec<Vec<usize>> = (0..n_clusters).map(|_| (0..k).collect()).collect();
        for eps_value in [0.1, 1.0] {
            eprintln!("# stage-2 sweep: k={k} ({n_clusters} clusters), eps={eps_value}");
            let eps = Epsilon::new(eps_value).expect("valid epsilon");
            let mut secs = 0.0f64;
            let mut leaves = 0u64;
            for run in 0..runs.max(1) {
                let run_seed = seed ^ (run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut rng = StdRng::seed_from_u64(run_seed);
                let t0 = Instant::now();
                let (_, n) =
                    select_combination(&st, &candidates, Weights::default(), eps, &mut rng)
                        .expect("non-empty candidate sets");
                secs += t0.elapsed().as_secs_f64();
                leaves = n;
            }
            assert_eq!(
                Some(leaves),
                (k as u64).checked_pow(n_clusters as u32),
                "the sweep must cover all k^|C| combinations"
            );
            let seconds = secs / runs.max(1) as f64;
            let rate = leaves as f64 / seconds;
            stage2_summary.push(format!("k={k} eps={eps_value}: {rate:.0} leaves/s"));
            stage2_cells.push(
                Json::object()
                    .field("clusters", n_clusters)
                    .field("k", k)
                    .field("eps", eps_value)
                    .field("leaves", leaves)
                    .field("seconds", seconds)
                    .field("leaves_per_sec", rate),
            );
        }
    }

    let cells_json = |cells: &[CountsAblation]| {
        cells
            .iter()
            .map(|c| ablation_json(c, parallelism))
            .collect::<Vec<_>>()
    };
    let doc = Json::object()
        .field("bench", "fig9")
        .field("dataset", kind.name())
        .field("seed", seed)
        .field("runs", runs)
        .field(
            "host",
            Json::object().field("available_parallelism", parallelism),
        )
        .field(
            "threads",
            threads
                .iter()
                .map(|&t| Json::Num(t as f64))
                .collect::<Vec<_>>(),
        )
        .field("headline", ablation_json(&headline, parallelism))
        .field(
            "sweeps",
            Json::object()
                .field("rows", cells_json(&rows_cells))
                .field("attributes", cells_json(&attr_cells))
                .field("clusters", cells_json(&cluster_cells)),
        )
        .field(
            "incremental",
            Json::object()
                .field("rows", incremental.rows)
                .field("delta_rows", incremental.delta_rows)
                .field("apply_delta_seconds", incremental.apply_delta_seconds)
                .field("rebuild_seconds", incremental.rebuild_seconds)
                .field("speedup_vs_rebuild", incremental.speedup_vs_rebuild),
        )
        .field("stage2_node_rate", stage2_cells);

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, doc.pretty()).expect("write BENCH json");
    eprintln!("# wrote {out}");

    // Human-readable summary of the headline cells on stdout.
    let mut table = Table::new(["kernel", "seconds", "speedup-vs-naive"]);
    for t in &headline.timings {
        table.row([
            t.kernel.clone(),
            format!("{:.4}", t.seconds),
            format!("{:.2}x", t.speedup_vs_naive),
        ]);
    }
    table.print();
    println!("host: available_parallelism = {parallelism}");
    println!(
        "incremental: apply_delta on {} rows = {:.4}s vs {:.4}s rebuild ({:.1}x)",
        incremental.delta_rows,
        incremental.apply_delta_seconds,
        incremental.rebuild_seconds,
        incremental.speedup_vs_rebuild
    );
    println!(
        "stage-2 sweep (c={n_clusters}): {}",
        stage2_summary.join(", ")
    );
}
