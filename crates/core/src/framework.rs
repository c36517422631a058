//! The DPClustX framework: configuration, budget enforcement, and the
//! end-to-end pipeline of Algorithm 2 / Theorem 5.1.

use crate::counts::ScoreTable;
use crate::engine::{ExplainEngine, NoopObserver};
use crate::explanation::{AttributeCombination, GlobalExplanation};
use crate::quality::score::Weights;
use crate::stage1::select_candidates;
use crate::stage2::{select_combination, Stage2Kernel};
use dpx_data::contingency::ClusteredCounts;
use dpx_data::Dataset;
use dpx_dp::budget::{Accountant, Epsilon};
use dpx_dp::histogram::{GeometricHistogram, HistogramMechanism};
use dpx_dp::DpError;
use rand::Rng;

/// Configuration of a DPClustX run. Defaults are the paper's (§6.1):
/// `ε_CandSet = ε_TopComb = ε_Hist = 0.1`, `k = 3`, equal weights.
#[derive(Debug, Clone, Copy)]
pub struct DpClustXConfig {
    /// Candidate attributes per cluster selected at Stage-1.
    pub k: usize,
    /// Budget for Stage-1 candidate selection.
    pub eps_cand_set: f64,
    /// Budget for Stage-2 combination selection.
    pub eps_top_comb: f64,
    /// Budget for histogram release, or `None` for a selection-only run that
    /// never releases histograms. A full `explain` with `None` fails with
    /// [`DpError::InvalidEpsilon`] at the release stage instead of silently
    /// poisoning `total_epsilon` (the old `f64::NAN` sentinel did exactly
    /// that).
    pub eps_hist: Option<f64>,
    /// Quality-measure weights λ.
    pub weights: Weights,
    /// Apply the Hay-et-al. partition-consistency projection to the released
    /// histograms when one attribute explains every cluster (free
    /// post-processing; see `dpx_dp::consistency`).
    pub consistency: bool,
}

impl Default for DpClustXConfig {
    fn default() -> Self {
        DpClustXConfig {
            k: 3,
            eps_cand_set: 0.1,
            eps_top_comb: 0.1,
            eps_hist: Some(0.1),
            weights: Weights::equal(),
            consistency: false,
        }
    }
}

impl DpClustXConfig {
    /// Total privacy budget `ε_CandSet + ε_TopComb + ε_Hist` (Theorem 5.1).
    /// A missing histogram budget contributes zero: a selection-only
    /// configuration's total is exactly what its two selection stages spend.
    pub fn total_epsilon(&self) -> f64 {
        self.eps_cand_set + self.eps_top_comb + self.eps_hist.unwrap_or(0.0)
    }

    /// A selection-only configuration splitting `eps` evenly between the two
    /// selection stages — the setting of the quality experiments (Figures
    /// 5–8), which evaluate the attribute choice and skip histograms.
    pub fn selection_only(eps: f64, k: usize, weights: Weights) -> Self {
        DpClustXConfig {
            k,
            eps_cand_set: eps / 2.0,
            eps_top_comb: eps / 2.0,
            eps_hist: None, // never used on the selection-only path
            weights,
            consistency: false,
        }
    }
}

/// The result of a full DPClustX run.
#[derive(Debug)]
pub struct Outcome {
    /// The released global explanation (noisy histograms).
    pub explanation: GlobalExplanation,
    /// The selected attribute combination.
    pub assignment: AttributeCombination,
    /// The audit trail of ε spend; `accountant.spent()` equals
    /// `config.total_epsilon()` up to float round-off.
    pub accountant: Accountant,
}

/// The DPClustX explainer.
#[derive(Debug, Clone, Copy)]
pub struct DpClustX {
    config: DpClustXConfig,
}

impl DpClustX {
    /// Creates an explainer with the given configuration.
    pub fn new(config: DpClustXConfig) -> Self {
        DpClustX { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DpClustXConfig {
        &self.config
    }

    /// Runs only the private attribute selection (Stages 1–2) and returns the
    /// chosen combination. Spends `eps_cand_set + eps_top_comb`.
    pub fn select_attributes<R: Rng + ?Sized>(
        &self,
        st: &ScoreTable,
        rng: &mut R,
    ) -> Result<AttributeCombination, DpError> {
        let eps_cand = Epsilon::new(self.config.eps_cand_set)?;
        let eps_comb = Epsilon::new(self.config.eps_top_comb)?;
        let gamma = self.config.weights.gamma();
        let candidates = select_candidates(st, gamma, eps_cand, self.config.k, 1, rng)?;
        let kernel = Stage2Kernel::SequentialRng;
        select_combination(st, &candidates, self.config.weights, eps_comb, kernel, rng)
            .map(|(sel, _)| sel)
    }

    /// Runs the full pipeline with the paper's default histogram mechanism
    /// (geometric noise). Spends `config.total_epsilon()` in total.
    pub fn explain<R: Rng + ?Sized>(
        &self,
        data: &Dataset,
        labels: &[usize],
        n_clusters: usize,
        rng: &mut R,
    ) -> Result<Outcome, DpError> {
        self.explain_with_mechanism(data, labels, n_clusters, &GeometricHistogram, rng)
    }

    /// Runs the full pipeline with a custom `ε`-DP histogram mechanism —
    /// DPClustX treats `M_hist` as a black box (§2.1). Delegates to the
    /// staged [`ExplainEngine`] (uncached, single-threaded, unobserved).
    pub fn explain_with_mechanism<M: HistogramMechanism + Sync, R: Rng + ?Sized>(
        &self,
        data: &Dataset,
        labels: &[usize],
        n_clusters: usize,
        mechanism: &M,
        rng: &mut R,
    ) -> Result<Outcome, DpError> {
        ExplainEngine::new(self.config).explain_uncached(
            data,
            labels,
            n_clusters,
            mechanism,
            rng,
            &mut NoopObserver,
        )
    }

    /// Runs the full pipeline from pre-built contingency counts (lets
    /// experiments reuse the one-pass count tables across explainers).
    pub fn explain_from_counts<M: HistogramMechanism + Sync, R: Rng + ?Sized>(
        &self,
        data: &Dataset,
        counts: &ClusteredCounts,
        mechanism: &M,
        rng: &mut R,
    ) -> Result<Outcome, DpError> {
        ExplainEngine::new(self.config).explain_prepared(
            data.schema(),
            counts,
            mechanism,
            rng,
            &mut NoopObserver,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_data::synth::diabetes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (Dataset, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(100);
        let synth = diabetes::spec(3).generate(n, &mut rng);
        // Use the ground-truth latent groups as a stand-in clustering — a
        // valid total function for the explainer's purposes in tests.
        let labels = synth.latent_groups.clone();
        (synth.data, labels)
    }

    #[test]
    fn full_pipeline_produces_explanation_and_audits_budget() {
        let (data, labels) = setup(3_000);
        let mut rng = StdRng::seed_from_u64(1);
        let explainer = DpClustX::new(DpClustXConfig::default());
        let outcome = explainer.explain(&data, &labels, 3, &mut rng).unwrap();
        assert_eq!(outcome.explanation.per_cluster.len(), 3);
        assert_eq!(outcome.assignment.len(), 3);
        let total = explainer.config().total_epsilon();
        assert!(
            (outcome.accountant.spent() - total).abs() < 1e-9,
            "spent {} != configured {total}",
            outcome.accountant.spent()
        );
    }

    #[test]
    fn generous_budget_selects_signal_attributes() {
        let (data, labels) = setup(8_000);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = DpClustXConfig {
            eps_cand_set: 100.0,
            eps_top_comb: 100.0,
            eps_hist: Some(1.0),
            ..Default::default()
        };
        let outcome = DpClustX::new(cfg)
            .explain(&data, &labels, 3, &mut rng)
            .unwrap();
        // The signal attributes of the diabetes spec are the first seven +
        // insulin; a near-noiseless run must pick from them.
        let signal_names = [
            "lab_proc",
            "time_in_hospital",
            "num_medications",
            "age",
            "diag_1",
            "discharge_disp",
            "A1Cresult",
            "insulin",
        ];
        for e in &outcome.explanation.per_cluster {
            assert!(
                signal_names.contains(&e.attribute_name.as_str()),
                "picked noise attribute {}",
                e.attribute_name
            );
        }
    }

    #[test]
    fn selection_only_config_arithmetic() {
        let cfg = DpClustXConfig::selection_only(0.2, 3, Weights::equal());
        assert!((cfg.eps_cand_set - 0.1).abs() < 1e-12);
        assert!((cfg.eps_top_comb - 0.1).abs() < 1e-12);
    }

    #[test]
    fn selection_only_total_epsilon_is_finite() {
        // Regression: `selection_only` used to store `eps_hist: f64::NAN`,
        // which made `total_epsilon()` silently NaN and corrupted any
        // downstream budget arithmetic. The histogram budget is now optional
        // and a missing one contributes zero.
        let cfg = DpClustXConfig::selection_only(0.2, 3, Weights::equal());
        assert_eq!(cfg.eps_hist, None);
        let total = cfg.total_epsilon();
        assert!(
            total.is_finite(),
            "total_epsilon must never be NaN: {total}"
        );
        assert!((total - 0.2).abs() < 1e-12);
    }

    #[test]
    fn full_explain_without_histogram_budget_is_rejected() {
        // A selection-only configuration cannot drive the full pipeline: the
        // release stage has no budget and must fail loudly (after the two
        // selection stages), not release histograms with NaN noise.
        let (data, labels) = setup(500);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = DpClustXConfig::selection_only(0.2, 3, Weights::equal());
        let err = DpClustX::new(cfg)
            .explain(&data, &labels, 3, &mut rng)
            .unwrap_err();
        assert!(
            matches!(err, DpError::InvalidEpsilon(e) if e.is_nan()),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn invalid_epsilon_is_reported() {
        let (data, labels) = setup(500);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = DpClustXConfig {
            eps_cand_set: 0.0,
            ..Default::default()
        };
        assert!(DpClustX::new(cfg)
            .explain(&data, &labels, 3, &mut rng)
            .is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let (data, labels) = setup(1_000);
        let explainer = DpClustX::new(DpClustXConfig::default());
        let a = explainer
            .explain(&data, &labels, 3, &mut StdRng::seed_from_u64(4))
            .unwrap();
        let b = explainer
            .explain(&data, &labels, 3, &mut StdRng::seed_from_u64(4))
            .unwrap();
        assert_eq!(a.assignment, b.assignment);
    }
}
