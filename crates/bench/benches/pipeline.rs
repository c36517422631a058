//! Criterion benchmarks of the DPClustX pipeline — the timing counterpart of
//! Figure 9 at statistically controlled iteration counts (the `fig9_time`
//! binary prints the paper-style tables; this bench gives regression-grade
//! numbers for the stages).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpclustx::counts::ScoreTable;
use dpclustx::framework::{DpClustX, DpClustXConfig};
use dpclustx::quality::score::Weights;
use dpclustx::stage1::select_candidates;
use dpclustx::stage2::select_combination;
use dpx_bench::{DatasetKind, ExperimentContext};
use dpx_clustering::ClusteringMethod;
use dpx_dp::budget::Epsilon;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small-but-realistic context: Diabetes schema, 10k rows.
fn context(n_clusters: usize) -> ExperimentContext {
    ExperimentContext::build(
        DatasetKind::Diabetes,
        10_000,
        ClusteringMethod::KMeans,
        n_clusters,
        42,
    )
}

fn bench_stage1(c: &mut Criterion) {
    let ctx = context(5);
    let eps = Epsilon::new(0.1).unwrap();
    c.bench_function("stage1/select_candidates/5-clusters", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| select_candidates(&ctx.st, (0.5, 0.5), eps, 3, 1, &mut rng).unwrap())
    });
}

fn bench_stage2(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage2/select_combination");
    g.sample_size(10);
    let eps = Epsilon::new(0.1).unwrap();
    for n_clusters in [3usize, 5, 7, 9] {
        let ctx = context(n_clusters);
        // Fixed candidate sets (first 3 attributes per cluster) isolate the
        // k^|C| enumeration cost.
        let candidates: Vec<Vec<usize>> = vec![vec![0, 1, 2]; n_clusters];
        g.bench_with_input(
            BenchmarkId::from_parameter(n_clusters),
            &n_clusters,
            |b, _| {
                let mut rng = StdRng::seed_from_u64(2);
                let w = Weights::equal();
                b.iter(|| select_combination(&ctx.st, &candidates, w, eps, &mut rng).unwrap())
            },
        );
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline/explain");
    g.sample_size(10);
    for n_clusters in [3usize, 5, 9] {
        let ctx = context(n_clusters);
        let explainer = DpClustX::new(DpClustXConfig::default());
        g.bench_with_input(
            BenchmarkId::from_parameter(n_clusters),
            &n_clusters,
            |b, _| {
                let mut rng = StdRng::seed_from_u64(3);
                b.iter(|| {
                    explainer
                        .explain(&ctx.data, &ctx.labels, ctx.n_clusters, &mut rng)
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

fn bench_counts_build(c: &mut Criterion) {
    let ctx = context(5);
    c.bench_function("counts/clustered_counts_build", |b| {
        b.iter(|| dpx_data::contingency::ClusteredCounts::build(&ctx.data, &ctx.labels, 5, 1))
    });
    c.bench_function("counts/score_table_from_counts", |b| {
        b.iter(|| ScoreTable::from_clustered_counts(&ctx.counts))
    });
}

fn bench_quality_functions(c: &mut Criterion) {
    use dpclustx::eval::QualityEvaluator;
    use dpclustx::quality::diversity::{div_p, perm_diversity};
    use dpclustx::quality::interestingness::int_p;
    use dpclustx::quality::score::glscore;
    use dpclustx::quality::sufficiency::suf_p;

    let ctx = context(5);
    let mut g = c.benchmark_group("quality");
    g.bench_function("int_p", |b| b.iter(|| int_p(ctx.st.attr(0), 2)));
    g.bench_function("suf_p", |b| b.iter(|| suf_p(ctx.st.attr(0), 2)));
    g.bench_function("div_p/5-clusters", |b| {
        b.iter(|| div_p(&ctx.st, &[0, 1, 2, 0, 1]))
    });
    g.bench_function("glscore/5-clusters", |b| {
        b.iter(|| glscore(&ctx.st, &[0, 1, 2, 0, 1], Weights::equal()))
    });
    g.bench_function("perm_diversity/group-of-5", |b| {
        b.iter(|| perm_diversity(ctx.st.attr(0), &[0, 1, 2, 3, 4]))
    });
    g.bench_function("quality_evaluator_build", |b| {
        b.iter(|| QualityEvaluator::new(&ctx.st, Weights::equal()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_stage1,
    bench_stage2,
    bench_end_to_end,
    bench_counts_build,
    bench_quality_functions
);
criterion_main!(benches);
