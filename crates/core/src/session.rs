//! Interactive analyst sessions with a hard privacy-budget cap.
//!
//! The demonstration system wraps DPClustX in an interactive loop: an analyst
//! loads a sensitive table, clusters it privately, asks for explanations,
//! pokes at individual noisy histograms — and every action draws from one
//! shared ε budget that must never overflow. [`Session`] is that loop's
//! backend:
//!
//! * the sensitive data is held privately inside the session;
//! * clusterings must be *privately computed* (DP-k-means, charged) or
//!   *data-independent* (a caller-supplied total function, free) — exactly
//!   the paper's deployment requirement (§6.1: "the clustering function must
//!   be either privately computed or data-independent";
//! * every mechanism invocation is routed through a capped
//!   [`Accountant`]; once the cap is reached, further requests fail with
//!   [`DpError::BudgetExceeded`] instead of silently degrading privacy.

use crate::engine::{ExplainContext, ExplainEngine, PipelineObserver};
use crate::explanation::GlobalExplanation;
use crate::framework::DpClustXConfig;
use dpx_clustering::dp_kmeans::{self, DpKMeansConfig};
use dpx_clustering::model::ClusterModel;
use dpx_data::Dataset;
use dpx_dp::budget::{Accountant, Epsilon, Sensitivity};
use dpx_dp::histogram::{clamp_non_negative, GeometricHistogram, HistogramMechanism};
use dpx_dp::sparse_vector::{above_threshold, SvtOutcome};
use dpx_dp::DpError;

/// A stateful, budget-capped analysis session over one sensitive dataset.
///
/// The dataset, the master RNG, and the memoized counts cache live in a
/// shared [`ExplainContext`]: asking for a second explanation of the same
/// clustering (e.g. at a different budget split) skips the data scan.
pub struct Session {
    ctx: ExplainContext,
    accountant: Accountant,
    /// Current clustering (labels + cluster count), if any.
    clustering: Option<(Vec<usize>, usize)>,
    charge_counter: usize,
}

impl Session {
    /// Opens a session over `data` with a total privacy cap and a seed for
    /// reproducibility.
    pub fn new(data: Dataset, budget_cap: Epsilon, seed: u64) -> Self {
        Session {
            ctx: ExplainContext::new(data, seed),
            accountant: Accountant::with_cap(budget_cap),
            clustering: None,
            charge_counter: 0,
        }
    }

    /// ε spent so far.
    pub fn spent(&self) -> f64 {
        self.accountant.spent()
    }

    /// The audit trail of every charge so far.
    pub fn audit(&self) -> String {
        self.accountant.audit()
    }

    /// Number of tuples in the session's dataset (metadata, not protected —
    /// the unbounded-DP model treats |D| as public only when released
    /// noisily; this accessor is for UI sizing and tests, mirroring how the
    /// demo shows table dimensions).
    pub fn n_rows(&self) -> usize {
        self.ctx.data().n_rows()
    }

    /// Number of clusterings whose count tables are memoized in the
    /// session's context (diagnostics; cache membership is derived from the
    /// data only through the already-installed clustering).
    pub fn counts_cache_len(&self) -> usize {
        self.ctx.cache_len()
    }

    fn next_label(&mut self, what: &str) -> String {
        self.charge_counter += 1;
        format!("session/{:03}/{}", self.charge_counter, what)
    }

    /// Privately clusters the data with DP-k-means, charging `epsilon`.
    /// The resulting labels become the session's current clustering.
    pub fn cluster_dp_kmeans(&mut self, k: usize, epsilon: Epsilon) -> Result<(), DpError> {
        // Check-then-spend: the accountant enforces the cap before the
        // mechanism touches the data.
        let label = self.next_label("dp-kmeans");
        self.accountant.charge(label, epsilon)?;
        let (data, rng) = self.ctx.data_and_rng();
        let model = dp_kmeans::fit(data, DpKMeansConfig::new(k, epsilon), rng);
        self.clustering = Some((model.assign_all(self.ctx.data()), k));
        Ok(())
    }

    /// Installs a *data-independent* clustering function (e.g. a user-defined
    /// predicate, or centers computed elsewhere under someone else's budget).
    /// Free of charge — the function may not depend on this session's data.
    pub fn set_clustering<M: ClusterModel + ?Sized>(&mut self, model: &M) {
        self.clustering = Some((model.assign_all(self.ctx.data()), model.n_clusters()));
    }

    /// Runs DPClustX on the current clustering, charging the configuration's
    /// total ε. Fails if no clustering is installed or the cap would be hit.
    pub fn explain(&mut self, config: DpClustXConfig) -> Result<GlobalExplanation, DpError> {
        self.explain_engine(config, None)
    }

    /// [`Self::explain`] with per-stage observation: wall time, ε charges,
    /// and stage metrics are reported to `observer` (the backend of the
    /// CLI's `explain --timings`).
    pub fn explain_observed(
        &mut self,
        config: DpClustXConfig,
        observer: &mut dyn PipelineObserver,
    ) -> Result<GlobalExplanation, DpError> {
        self.explain_engine(config, Some(observer))
    }

    fn explain_engine(
        &mut self,
        config: DpClustXConfig,
        observer: Option<&mut dyn PipelineObserver>,
    ) -> Result<GlobalExplanation, DpError> {
        let (labels, n_clusters) = self.clustering.clone().ok_or(DpError::EmptyCandidateSet)?;
        // Reserve the whole stage budget up front; the inner pipeline runs
        // its own accountant for the fine-grained audit.
        let total = Epsilon::new(config.total_epsilon())?;
        let label = self.next_label("dpclustx");
        self.accountant.charge(label, total)?;
        let engine = ExplainEngine::new(config);
        let outcome = match observer {
            Some(obs) => engine.explain_observed(&mut self.ctx, &labels, n_clusters, obs)?,
            None => engine.explain(&mut self.ctx, &labels, n_clusters)?,
        };
        Ok(outcome.explanation)
    }

    /// Releases one noisy histogram of attribute `attr` over the full data,
    /// charging `epsilon` (an ad-hoc EDA query).
    pub fn noisy_histogram(&mut self, attr: usize, epsilon: Epsilon) -> Result<Vec<f64>, DpError> {
        let label = self.next_label("histogram");
        self.accountant.charge(label, epsilon)?;
        let (data, rng) = self.ctx.data_and_rng();
        let h = data.histogram(attr);
        let mut noisy = GeometricHistogram.privatize(h.counts(), epsilon, rng);
        clamp_non_negative(&mut noisy);
        Ok(noisy)
    }

    /// Releases a noisy count of tuples matching a conjunctive predicate,
    /// charging `epsilon` (a PINQ-style ad-hoc query; sensitivity 1).
    pub fn noisy_count(
        &mut self,
        filter: &dpx_data::filter::Filter,
        epsilon: Epsilon,
    ) -> Result<f64, DpError> {
        let label = self.next_label("count");
        self.accountant.charge(label, epsilon)?;
        let (data, rng) = self.ctx.data_and_rng();
        let true_count = filter.count(data) as i64;
        let noisy =
            dpx_dp::geometric::geometric_mechanism(true_count, epsilon, Sensitivity::ONE, rng);
        Ok((noisy as f64).max(0.0))
    }

    /// Sparse-vector threshold probe: reports the first attribute (by index)
    /// whose count of `value` exceeds `threshold`, charging `epsilon` once
    /// for the whole scan.
    pub fn first_attribute_above(
        &mut self,
        value_per_attr: &[(usize, u32)],
        threshold: f64,
        epsilon: Epsilon,
    ) -> Result<SvtOutcome, DpError> {
        let label = self.next_label("above-threshold");
        self.accountant.charge(label, epsilon)?;
        let (data, rng) = self.ctx.data_and_rng();
        let counts: Vec<f64> = value_per_attr
            .iter()
            .map(|&(a, v)| data.count(a, v) as f64)
            .collect();
        above_threshold(&counts, threshold, epsilon, Sensitivity::ONE, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_clustering::model::PredicateModel;
    use dpx_data::schema::{Attribute, Domain, Schema};

    fn data() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(2)).unwrap(),
            Attribute::new("y", Domain::indexed(3)).unwrap(),
            Attribute::new("z", Domain::indexed(4)).unwrap(),
            Attribute::new("w", Domain::indexed(2)).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..600)
            .map(|i| {
                vec![
                    (i % 2) as u32,
                    (i % 3) as u32,
                    (i % 4) as u32,
                    ((i / 3) % 2) as u32,
                ]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn full_session_within_budget() {
        let mut s = Session::new(data(), Epsilon::new(2.0).unwrap(), 7);
        s.cluster_dp_kmeans(2, Epsilon::new(1.0).unwrap()).unwrap();
        let explanation = s.explain(DpClustXConfig::default()).unwrap();
        assert_eq!(explanation.per_cluster.len(), 2);
        let hist = s.noisy_histogram(1, Epsilon::new(0.2).unwrap()).unwrap();
        assert_eq!(hist.len(), 3);
        assert!(hist.iter().all(|&v| v >= 0.0));
        assert!(
            (s.spent() - (1.0 + 0.3 + 0.2)).abs() < 1e-9,
            "spent {}",
            s.spent()
        );
        let audit = s.audit();
        assert!(audit.contains("dp-kmeans"));
        assert!(audit.contains("dpclustx"));
        assert!(audit.contains("histogram"));
    }

    #[test]
    fn cap_blocks_overdraft_and_preserves_state() {
        let mut s = Session::new(data(), Epsilon::new(0.5).unwrap(), 7);
        s.cluster_dp_kmeans(2, Epsilon::new(0.4).unwrap()).unwrap();
        // Default explain needs 0.3 > remaining 0.1.
        let err = s.explain(DpClustXConfig::default()).unwrap_err();
        assert!(matches!(err, DpError::BudgetExceeded { .. }));
        // The failed request must not have consumed anything.
        assert!((s.spent() - 0.4).abs() < 1e-9);
        // A smaller request still fits.
        let small = DpClustXConfig {
            eps_cand_set: 0.03,
            eps_top_comb: 0.03,
            eps_hist: Some(0.03),
            ..Default::default()
        };
        s.explain(small).unwrap();
        assert!(s.spent() <= 0.5 + 1e-9);
    }

    #[test]
    fn predicate_clustering_is_free() {
        let mut s = Session::new(data(), Epsilon::new(0.35).unwrap(), 7);
        let model = PredicateModel::new(2, |row: &[u32]| row[0] as usize);
        s.set_clustering(&model);
        assert_eq!(s.spent(), 0.0, "data-independent clustering costs nothing");
        s.explain(DpClustXConfig::default()).unwrap();
        assert!((s.spent() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn repeated_explains_reuse_memoized_counts() {
        let mut s = Session::new(data(), Epsilon::new(2.0).unwrap(), 7);
        let model = PredicateModel::new(2, |row: &[u32]| row[0] as usize);
        s.set_clustering(&model);
        assert_eq!(s.counts_cache_len(), 0);
        s.explain(DpClustXConfig::default()).unwrap();
        assert_eq!(s.counts_cache_len(), 1);
        // Same clustering, different budget split: no new cache entry.
        let other = DpClustXConfig {
            eps_cand_set: 0.2,
            ..Default::default()
        };
        s.explain(other).unwrap();
        assert_eq!(s.counts_cache_len(), 1, "second explain must hit the cache");
        // A different clustering builds (and memoizes) fresh tables.
        let flipped = PredicateModel::new(2, |row: &[u32]| 1 - row[0] as usize);
        s.set_clustering(&flipped);
        s.explain(DpClustXConfig::default()).unwrap();
        assert_eq!(s.counts_cache_len(), 2);
    }

    #[test]
    fn explain_without_clustering_fails() {
        let mut s = Session::new(data(), Epsilon::new(1.0).unwrap(), 7);
        assert!(s.explain(DpClustXConfig::default()).is_err());
        assert_eq!(s.spent(), 0.0);
    }

    #[test]
    fn svt_probe_charges_once_for_the_scan() {
        let mut s = Session::new(data(), Epsilon::new(1.0).unwrap(), 7);
        // Counts: x=0 → 300; y=2 → 200. Threshold 250 → attribute 0 first.
        let probes = vec![(0usize, 0u32), (1usize, 2u32)];
        let outcome = s
            .first_attribute_above(&probes, 250.0, Epsilon::new(0.8).unwrap())
            .unwrap();
        assert_eq!(outcome, SvtOutcome::Above(0));
        assert!((s.spent() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn noisy_count_charges_and_is_near_truth_at_high_eps() {
        let mut s = Session::new(data(), Epsilon::new(10.0).unwrap(), 7);
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(2)).unwrap(),
            Attribute::new("y", Domain::indexed(3)).unwrap(),
            Attribute::new("z", Domain::indexed(4)).unwrap(),
            Attribute::new("w", Domain::indexed(2)).unwrap(),
        ])
        .unwrap();
        let f = dpx_data::filter::Filter::all().and(&schema, 0, 0).unwrap();
        let c = s.noisy_count(&f, Epsilon::new(8.0).unwrap()).unwrap();
        assert!((c - 300.0).abs() < 5.0, "count {c}");
        assert!((s.spent() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut s = Session::new(data(), Epsilon::new(1.0).unwrap(), seed);
            s.cluster_dp_kmeans(2, Epsilon::new(0.5).unwrap()).unwrap();
            s.explain(DpClustXConfig::default())
                .unwrap()
                .attribute_combination()
        };
        assert_eq!(run(42), run(42));
    }
}
