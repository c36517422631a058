//! # dpclustx — differentially private explanations for clusters
//!
//! A from-scratch Rust implementation of **DPClustX** (Gilad, Milo, Razmadze,
//! Zadicario; SIGMOD 2025): a framework that takes a sensitive dataset and a
//! privately computed black-box clustering function and produces a global
//! **histogram-based explanation** (one pair of noisy histograms per cluster,
//! over a privately selected attribute) under ε-differential privacy.
//!
//! ## The pipeline (Figure 2 of the paper)
//!
//! 1. **Stage 1** ([`stage1`], Algorithm 1): for each cluster, privately select
//!    the top-k candidate attributes with the *one-shot top-k mechanism* over
//!    the sensitivity-1 single-cluster score
//!    `SScore_γ = γ_Int·Int_p + γ_Suf·Suf_p`.
//! 2. **Stage 2** ([`stage2`], Algorithm 2): run the exponential mechanism
//!    over all `k^|C|` attribute combinations drawn from the candidate sets,
//!    scored by the sensitivity-1 global score
//!    `GlScore_λ = λ_Int·Int_p + λ_Suf·Suf_p + λ_Div·Div_p`,
//!    then release noisy histograms **only for the selected attributes**,
//!    exploiting parallel composition across disjoint clusters.
//!
//! The quality functions live in [`quality`]; the low-sensitivity variants
//! (Definitions 4.2, 4.4, 4.5–4.7) carry their proven sensitivity bounds as
//! tests. The sensitive originals (TVD interestingness, Dasgupta-style
//! sufficiency, TabEE permutation diversity) are implemented too — they drive
//! the [`baselines`] and the evaluation measure [`eval::quality`].
//!
//! ## Entry point
//!
//! [`framework::DpClustX`] wires the stages together, enforces the
//! `ε_CandSet + ε_TopComb + ε_Hist` budget of Theorem 5.1 through an
//! accountant, and returns a renderable [`explanation::GlobalExplanation`].
//!
//! ```
//! use dpclustx::framework::{DpClustX, DpClustXConfig};
//! use dpx_clustering::{ClusteringMethod};
//! use dpx_data::synth::diabetes;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let synth = diabetes::spec(3).generate(2_000, &mut rng);
//! let model = ClusteringMethod::KMeans.fit(&synth.data, 3, &mut rng);
//! let labels = model.assign_all(&synth.data);
//!
//! let explainer = DpClustX::new(DpClustXConfig::default());
//! let outcome = explainer.explain(&synth.data, &labels, 3, &mut rng).unwrap();
//! assert_eq!(outcome.explanation.per_cluster.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod counts;
pub mod custom;
pub mod engine;
pub mod eval;
pub mod explanation;
pub mod framework;
pub mod multi;
pub mod quality;
pub mod report;
pub mod session;
pub mod stage1;
pub mod stage2;
pub mod text;
pub mod twod;

pub use counts::{AttrCounts, ScoreTable};
pub use engine::{
    CollectingObserver, ExplainContext, ExplainEngine, NoopObserver, PipelineObserver,
    SharedCountsCache,
};
pub use explanation::{AttributeCombination, GlobalExplanation, SingleClusterExplanation};
pub use framework::{DpClustX, DpClustXConfig};
pub use quality::score::Weights;
