//! DP-Naive: privatize everything first, select afterwards (§6.1).
//!
//! Given budget ε: every full-dataset histogram gets `ε/(2|A|)`, every
//! per-cluster histogram gets `ε/(2|A|)` per attribute (parallel composition
//! across disjoint clusters makes the per-cluster pass cost `ε/(2|A|)` per
//! attribute, `ε/2` total). TabEE then runs on the noisy counts — free
//! post-processing. The waste is structural: the budget is diluted over all
//! `|A|` attributes although only `|C|` histograms are ever shown.

use crate::baselines::tabee;
use crate::counts::{AttrCounts, ScoreTable};
use crate::explanation::AttributeCombination;
use crate::quality::score::Weights;
use dpx_data::contingency::ClusteredCounts;
use dpx_dp::budget::{Accountant, Epsilon};
use dpx_dp::histogram::HistogramMechanism;
use dpx_dp::DpError;
use rand::Rng;

/// Builds the all-noisy score table: every marginal and per-cluster histogram
/// privatized up front. Spends `eps` in total (recorded on `accountant`).
pub fn noisy_score_table<M: HistogramMechanism, R: Rng + ?Sized>(
    counts: &ClusteredCounts,
    eps: Epsilon,
    mechanism: &M,
    accountant: &mut Accountant,
    rng: &mut R,
) -> Result<ScoreTable, DpError> {
    let n_attrs = counts.n_attributes();
    let n_clusters = counts.n_clusters();
    let eps_each = eps.split(2)?.split(n_attrs)?;
    let mut attrs = Vec::with_capacity(n_attrs);
    for a in 0..n_attrs {
        let t = counts.table(a);
        let marginal = mechanism.privatize(t.marginal_histogram().counts(), eps_each, rng);
        accountant.charge(format!("dp-naive/full/{a}"), eps_each)?;
        let mut cluster = Vec::with_capacity(n_clusters);
        for c in 0..n_clusters {
            cluster.push(mechanism.privatize(t.cluster_histogram(c).counts(), eps_each, rng));
            accountant.charge_parallel(
                format!("dp-naive/cluster/{a}"),
                format!("c{c}"),
                eps_each,
            )?;
        }
        attrs.push(AttrCounts::new(cluster, marginal));
    }
    Ok(ScoreTable::new(attrs))
}

/// Runs DP-Naive: noisy histograms for everything at budget `eps`, then
/// TabEE's exact selection on the noisy counts.
pub fn select<M: HistogramMechanism, R: Rng + ?Sized>(
    counts: &ClusteredCounts,
    k: usize,
    weights: Weights,
    eps: Epsilon,
    mechanism: &M,
    rng: &mut R,
) -> Result<AttributeCombination, DpError> {
    let mut accountant = Accountant::new();
    let noisy = noisy_score_table(counts, eps, mechanism, &mut accountant, rng)?;
    debug_assert!(
        (accountant.spent() - eps.get()).abs() < 1e-9,
        "DP-Naive must spend exactly ε, spent {}",
        accountant.spent()
    );
    Ok(tabee::select(&noisy, k, weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_data::schema::{Attribute, Domain, Schema};
    use dpx_data::Dataset;
    use dpx_dp::histogram::GeometricHistogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> (Dataset, Vec<usize>) {
        let schema = Schema::new(vec![
            Attribute::new("signal", Domain::indexed(2)).unwrap(),
            Attribute::new("noise", Domain::indexed(2)).unwrap(),
        ])
        .unwrap();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2000 {
            let c = i % 2;
            rows.push(vec![c as u32, (i / 2 % 2) as u32]);
            labels.push(c);
        }
        (Dataset::from_rows(schema, &rows).unwrap(), labels)
    }

    #[test]
    fn budget_accounting_is_exact() {
        let (data, labels) = dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(1);
        let eps = Epsilon::new(0.8).unwrap();
        noisy_score_table(&counts, eps, &GeometricHistogram, &mut acc, &mut r).unwrap();
        assert!((acc.spent() - 0.8).abs() < 1e-9, "spent {}", acc.spent());
    }

    #[test]
    fn finds_signal_at_generous_epsilon() {
        let (data, labels) = dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let mut r = StdRng::seed_from_u64(2);
        let ac = select(
            &counts,
            2,
            Weights::equal(),
            Epsilon::new(100.0).unwrap(),
            &GeometricHistogram,
            &mut r,
        )
        .unwrap();
        assert_eq!(ac, vec![0, 0], "the signal attribute should explain both");
    }

    #[test]
    fn noisy_table_shape_matches_exact() {
        let (data, labels) = dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(3);
        let st = noisy_score_table(
            &counts,
            Epsilon::new(1.0).unwrap(),
            &GeometricHistogram,
            &mut acc,
            &mut r,
        )
        .unwrap();
        assert_eq!(st.n_attributes(), 2);
        assert_eq!(st.n_clusters(), 2);
        assert_eq!(st.attr(0).domain_size(), 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let (data, labels) = dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2, 1);
        let run = |seed: u64| {
            let mut r = StdRng::seed_from_u64(seed);
            select(
                &counts,
                2,
                Weights::equal(),
                Epsilon::new(0.5).unwrap(),
                &GeometricHistogram,
                &mut r,
            )
            .unwrap()
        };
        assert_eq!(run(9), run(9));
    }
}
