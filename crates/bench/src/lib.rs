//! # dpx-bench — experiment harness for the DPClustX evaluation
//!
//! Shared plumbing for the binaries that regenerate every table and figure of
//! the paper (§6). Each binary prints the same rows/series the paper reports;
//! see DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abuse;
pub mod args;
pub mod context;
pub mod counts_ablation;
pub mod datasets;
pub mod explainers;
pub mod json;
pub mod table;
pub mod utility;

pub use args::Args;
pub use context::ExperimentContext;
pub use counts_ablation::{run_counts_ablation, CountsAblation, CountsTiming};
pub use datasets::DatasetKind;
pub use explainers::Explainer;
pub use json::Json;

/// Clustering methods for a dataset, honouring the paper's caveat that
/// agglomerative clustering is skipped on the (large) Census dataset.
pub fn methods_for(kind: DatasetKind) -> Vec<dpx_clustering::ClusteringMethod> {
    use dpx_clustering::ClusteringMethod as M;
    let mut methods = vec![
        M::KMeans,
        M::DpKMeans { epsilon: 1.0 },
        M::KModes,
        M::Agglomerative,
        M::Gmm,
    ];
    if kind == DatasetKind::Census {
        methods.retain(|m| *m != M::Agglomerative);
    }
    methods
}
