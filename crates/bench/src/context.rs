//! Shared experiment context: generate → cluster → count, once per setting.

use crate::datasets::DatasetKind;
use dpclustx::counts::ScoreTable;
use dpx_clustering::ClusteringMethod;
use dpx_data::contingency::ClusteredCounts;
use dpx_data::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything the explainers need for one (dataset, clustering) setting.
pub struct ExperimentContext {
    /// The generated dataset.
    pub data: Dataset,
    /// Cluster label per tuple, from the fitted model.
    pub labels: Vec<usize>,
    /// Number of clusters `|C|`.
    pub n_clusters: usize,
    /// One-pass contingency counts.
    pub counts: ClusteredCounts,
    /// Exact score table over those counts.
    pub st: ScoreTable,
}

impl ExperimentContext {
    /// Generates `rows` tuples of `kind` (with `n_clusters` latent groups),
    /// fits `method` with `n_clusters` clusters, and builds the count tables.
    pub fn build(
        kind: DatasetKind,
        rows: usize,
        method: ClusteringMethod,
        n_clusters: usize,
        seed: u64,
    ) -> Self {
        let synth = kind.generate(rows, n_clusters, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x517)); // clustering stream
        let model = method.fit(&synth.data, n_clusters, &mut rng);
        let labels = model.assign_all(&synth.data);
        Self::from_parts(synth.data, labels, n_clusters)
    }

    /// Builds a context from existing data and labels (used by the sampling
    /// and correlation experiments). Counts come from the chunked kernel —
    /// bit-identical at every thread count, so prepared-counts experiments
    /// are unaffected by the machine's core count.
    pub fn from_parts(data: Dataset, labels: Vec<usize>, n_clusters: usize) -> Self {
        let threads = dpx_runtime::default_threads(data.n_rows());
        let counts = ClusteredCounts::build(&data, &labels, n_clusters, threads);
        let st = ScoreTable::from_clustered_counts(&counts);
        ExperimentContext {
            data,
            labels,
            n_clusters,
            counts,
            st,
        }
    }

    /// Per-cluster sizes, for reporting.
    pub fn cluster_sizes(&self) -> Vec<u64> {
        self.counts.cluster_sizes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_consistent_context() {
        let ctx =
            ExperimentContext::build(DatasetKind::Diabetes, 1_000, ClusteringMethod::KMeans, 3, 7);
        assert_eq!(ctx.data.n_rows(), 1_000);
        assert_eq!(ctx.labels.len(), 1_000);
        assert_eq!(ctx.n_clusters, 3);
        assert_eq!(ctx.st.n_clusters(), 3);
        assert_eq!(ctx.cluster_sizes().iter().sum::<u64>(), 1_000);
    }
}
