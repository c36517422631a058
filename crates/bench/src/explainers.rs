//! The four explainers compared throughout the evaluation.

use dpclustx::baselines::{dp_naive, dp_tabee, tabee};
use dpclustx::counts::ScoreTable;
use dpclustx::explanation::AttributeCombination;
use dpclustx::framework::{DpClustX, DpClustXConfig};
use dpclustx::quality::score::Weights;
use dpx_data::contingency::ClusteredCounts;
use dpx_dp::budget::Epsilon;
use dpx_dp::histogram::GeometricHistogram;
use rand::Rng;

/// One of the explainers of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Explainer {
    /// Non-private TabEE (the reference).
    TabEE,
    /// DPClustX (this paper).
    DpClustX,
    /// DP-Naive: all histograms privatized up front.
    DpNaive,
    /// DP-TabEE: sensitive quality functions + calibrated noise.
    DpTabEE,
}

impl Explainer {
    /// All four explainers in reporting order.
    pub fn all() -> [Explainer; 4] {
        [
            Explainer::TabEE,
            Explainer::DpClustX,
            Explainer::DpNaive,
            Explainer::DpTabEE,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Explainer::TabEE => "TabEE",
            Explainer::DpClustX => "DPClustX",
            Explainer::DpNaive => "DP-Naive",
            Explainer::DpTabEE => "DP-TabEE",
        }
    }

    /// Whether the explainer is randomized (TabEE is deterministic, so one
    /// run suffices).
    pub fn randomized(&self) -> bool {
        !matches!(self, Explainer::TabEE)
    }

    /// Runs the explainer's *attribute selection* at total privacy budget
    /// `eps_total` (split evenly across its selection stages, as in the
    /// paper's quality experiments) and returns the chosen combination.
    pub fn select<R: Rng + ?Sized>(
        &self,
        st: &ScoreTable,
        counts: &ClusteredCounts,
        eps_total: f64,
        k: usize,
        weights: Weights,
        rng: &mut R,
    ) -> AttributeCombination {
        match self {
            Explainer::TabEE => tabee::select(st, k, weights),
            Explainer::DpClustX => {
                let cfg = DpClustXConfig::selection_only(eps_total, k, weights);
                DpClustX::new(cfg)
                    .select_attributes(st, rng)
                    .expect("valid configuration")
            }
            Explainer::DpNaive => dp_naive::select(
                counts,
                k,
                weights,
                Epsilon::new(eps_total).expect("positive epsilon"),
                &GeometricHistogram,
                rng,
            )
            .expect("valid configuration"),
            Explainer::DpTabEE => {
                let half = Epsilon::new(eps_total / 2.0).expect("positive epsilon");
                dp_tabee::select(st, k, weights, half, half, rng).expect("valid configuration")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_data::schema::{Attribute, Domain, Schema};
    use dpx_data::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_explainer_returns_a_combination() {
        let schema = Schema::new(vec![
            Attribute::new("a", Domain::indexed(2)).unwrap(),
            Attribute::new("b", Domain::indexed(2)).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..400)
            .map(|i| vec![(i % 2) as u32, (i / 2 % 2) as u32])
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let labels: Vec<usize> = (0..400).map(|i| i % 2).collect();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let st = ScoreTable::from_clustered_counts(&counts);
        for e in Explainer::all() {
            let mut rng = StdRng::seed_from_u64(5);
            let ac = e.select(&st, &counts, 1.0, 2, Weights::equal(), &mut rng);
            assert_eq!(ac.len(), 2, "{}", e.name());
            assert!(ac.iter().all(|&a| a < 2));
        }
    }

    #[test]
    fn only_tabee_is_deterministic() {
        assert!(!Explainer::TabEE.randomized());
        assert!(Explainer::DpClustX.randomized());
    }
}
