//! Criterion ablations for the design choices called out in DESIGN.md:
//! one-shot top-k vs iterated exponential mechanism, the contingency-count
//! cache vs naive per-candidate rescoring, the flat counting kernel vs the
//! naive nested-layout build, and geometric vs Laplace histogram mechanisms (their accuracy comparison
//! lives in `exp_hist_accuracy`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpclustx::quality::score::{glscore, GlScoreCache, Weights};
use dpx_bench::counts_ablation::naive_build;
use dpx_bench::{DatasetKind, ExperimentContext};
use dpx_clustering::ClusteringMethod;
use dpx_data::contingency::ClusteredCounts;
use dpx_dp::budget::{Epsilon, Sensitivity};
use dpx_dp::topk::{iterated_top_k, one_shot_top_k};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_topk_vs_iterated(c: &mut Criterion) {
    let mut g = c.benchmark_group("topk");
    let eps = Epsilon::new(0.1).unwrap();
    let scores: Vec<f64> = (0..68).map(|i| ((i * 31) % 97) as f64).collect();
    for k in [1usize, 3, 5] {
        g.bench_with_input(BenchmarkId::new("one_shot", k), &k, |b, &k| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| one_shot_top_k(&scores, k, eps, Sensitivity::ONE, &mut rng).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("iterated", k), &k, |b, &k| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| iterated_top_k(&scores, k, eps, Sensitivity::ONE, &mut rng).unwrap())
        });
    }
    g.finish();
}

fn bench_counts_cache(c: &mut Criterion) {
    let ctx = ExperimentContext::build(
        DatasetKind::Diabetes,
        10_000,
        ClusteringMethod::KMeans,
        5,
        42,
    );
    let w = Weights::equal();
    let candidates: Vec<Vec<usize>> = vec![vec![0, 1, 2]; 5];
    let cache = GlScoreCache::build(&ctx.st, &candidates, w);
    let mut g = c.benchmark_group("glscore");
    // Score all 3^5 = 243 combinations one way or the other.
    g.bench_function("cached", |b| {
        b.iter(|| {
            let mut total = 0.0;
            let mut choice = [0usize; 5];
            loop {
                total += cache.glscore_cached(&choice);
                let mut pos = 5;
                loop {
                    if pos == 0 {
                        return total;
                    }
                    pos -= 1;
                    choice[pos] += 1;
                    if choice[pos] < 3 {
                        break;
                    }
                    choice[pos] = 0;
                }
            }
        })
    });
    g.bench_function("direct", |b| {
        b.iter(|| {
            let mut total = 0.0;
            let mut choice = [0usize; 5];
            loop {
                let assignment: Vec<usize> = choice
                    .iter()
                    .enumerate()
                    .map(|(c, &i)| candidates[c][i])
                    .collect();
                total += glscore(&ctx.st, &assignment, w);
                let mut pos = 5;
                loop {
                    if pos == 0 {
                        return total;
                    }
                    pos -= 1;
                    choice[pos] += 1;
                    if choice[pos] < 3 {
                        break;
                    }
                    choice[pos] = 0;
                }
            }
        })
    });
    g.finish();
}

fn bench_counts_kernels(c: &mut Criterion) {
    // The same kernels fig9_time's bench mode times; criterion gives the
    // statistically careful version on a fixed mid-size input.
    let synth = DatasetKind::Diabetes.generate(100_000, 5, 42);
    let (data, labels) = (&synth.data, &synth.latent_groups);
    let mut g = c.benchmark_group("counts");
    g.bench_function("naive", |b| b.iter(|| naive_build(data, labels, 5)));
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("flat", threads),
            &threads,
            |b, &threads| b.iter(|| ClusteredCounts::build(data, labels, 5, threads)),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_topk_vs_iterated,
    bench_counts_cache,
    bench_counts_kernels
);
criterion_main!(benches);
