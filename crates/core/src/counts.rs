//! Count tables feeding the quality functions.
//!
//! Every quality function — private or sensitive — is arithmetic over the
//! counts `cnt_{A=v}(D_c)` and `cnt_{A=v}(D)`. [`ScoreTable`] caches those per
//! attribute as `f64` so the *same* scoring code serves two regimes:
//!
//! * **exact counts** from a [`dpx_data::contingency::ClusteredCounts`] (used
//!   by DPClustX itself, whose privacy comes from noisy *selection*, and by
//!   the non-private TabEE baseline), and
//! * **noisy counts** reconstructed from DP histograms (used by the DP-Naive
//!   baseline, which privatizes all histograms up front and then selects by
//!   post-processing).

use dpx_data::contingency::ClusteredCounts;

/// Per-attribute count table in `f64`.
#[derive(Debug, Clone)]
pub struct AttrCounts {
    /// `cluster[c][v] ≈ cnt_{A=v}(D_c)`.
    cluster: Vec<Vec<f64>>,
    /// `marginal[v] ≈ cnt_{A=v}(D)`.
    marginal: Vec<f64>,
    /// `cluster_sizes[c] = Σ_v cluster[c][v]`.
    cluster_sizes: Vec<f64>,
    /// `Σ_v marginal[v]`.
    total: f64,
}

impl AttrCounts {
    /// Builds from per-cluster counts and a marginal. Negative entries (from
    /// noise) are clamped at zero — post-processing, free under DP.
    pub fn new(cluster: Vec<Vec<f64>>, marginal: Vec<f64>) -> Self {
        let dom = marginal.len();
        assert!(
            cluster.iter().all(|row| row.len() == dom),
            "cluster rows must match the marginal's domain size"
        );
        let cluster: Vec<Vec<f64>> = cluster
            .into_iter()
            .map(|row| row.into_iter().map(|v| v.max(0.0)).collect())
            .collect();
        let marginal: Vec<f64> = marginal.into_iter().map(|v| v.max(0.0)).collect();
        let cluster_sizes = cluster.iter().map(|row| row.iter().sum()).collect();
        let total = marginal.iter().sum();
        AttrCounts {
            cluster,
            marginal,
            cluster_sizes,
            total,
        }
    }

    /// Builds exact counts from a contingency table.
    pub fn from_contingency(t: &dpx_data::ContingencyTable) -> Self {
        let cluster = (0..t.n_clusters())
            .map(|c| t.cluster_row(c).iter().map(|&x| x as f64).collect())
            .collect();
        let marginal = t.marginal().iter().map(|&x| x as f64).collect();
        AttrCounts::new(cluster, marginal)
    }

    /// Number of clusters.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.cluster.len()
    }

    /// Domain size.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.marginal.len()
    }

    /// `cnt_{A=v}(D_c)`.
    #[inline]
    pub fn cluster_count(&self, c: usize, v: usize) -> f64 {
        self.cluster[c][v]
    }

    /// Per-value counts of cluster `c`.
    #[inline]
    pub fn cluster_row(&self, c: usize) -> &[f64] {
        &self.cluster[c]
    }

    /// `cnt_{A=v}(D)`.
    #[inline]
    pub fn marginal_count(&self, v: usize) -> f64 {
        self.marginal[v]
    }

    /// Full-data per-value counts.
    #[inline]
    pub fn marginal(&self) -> &[f64] {
        &self.marginal
    }

    /// `|D_c|` as seen through this attribute's counts.
    #[inline]
    pub fn cluster_size(&self, c: usize) -> f64 {
        self.cluster_sizes[c]
    }

    /// `|D|` as seen through this attribute's counts.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// Count tables for all attributes under one clustering.
#[derive(Debug, Clone)]
pub struct ScoreTable {
    attrs: Vec<AttrCounts>,
    n_clusters: usize,
}

impl ScoreTable {
    /// Builds from per-attribute tables.
    ///
    /// # Panics
    /// Panics if the tables disagree on cluster count or none are given.
    pub fn new(attrs: Vec<AttrCounts>) -> Self {
        assert!(!attrs.is_empty(), "need at least one attribute");
        let n_clusters = attrs[0].n_clusters();
        assert!(
            attrs.iter().all(|a| a.n_clusters() == n_clusters),
            "all attributes must share the cluster count"
        );
        ScoreTable { attrs, n_clusters }
    }

    /// Builds exact tables from clustered counts.
    pub fn from_clustered_counts(cc: &ClusteredCounts) -> Self {
        ScoreTable::new(
            (0..cc.n_attributes())
                .map(|a| AttrCounts::from_contingency(cc.table(a)))
                .collect(),
        )
    }

    /// The table for attribute `a`.
    #[inline]
    pub fn attr(&self, a: usize) -> &AttrCounts {
        &self.attrs[a]
    }

    /// Number of attributes `|A|`.
    #[inline]
    pub fn n_attributes(&self) -> usize {
        self.attrs.len()
    }

    /// Number of clusters `|C|`.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_data::schema::{Attribute, Domain, Schema};
    use dpx_data::Dataset;

    fn table() -> ScoreTable {
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(3)).unwrap(),
            Attribute::new("y", Domain::indexed(2)).unwrap(),
        ])
        .unwrap();
        let rows = vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![2, 1], vec![2, 0]];
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let labels = vec![0usize, 0, 1, 1, 0];
        let cc = ClusteredCounts::build(&data, &labels, 2, 1);
        ScoreTable::from_clustered_counts(&cc)
    }

    #[test]
    fn exact_counts_roundtrip() {
        let st = table();
        assert_eq!(st.n_attributes(), 2);
        assert_eq!(st.n_clusters(), 2);
        let x = st.attr(0);
        assert_eq!(x.cluster_count(0, 0), 2.0);
        assert_eq!(x.marginal_count(2), 2.0);
        assert_eq!(x.cluster_size(0), 3.0);
        assert_eq!(x.total(), 5.0);
    }

    #[test]
    fn negative_noisy_counts_are_clamped() {
        let a = AttrCounts::new(vec![vec![-2.0, 3.0]], vec![1.5, -0.5]);
        assert_eq!(a.cluster_count(0, 0), 0.0);
        assert_eq!(a.marginal_count(1), 0.0);
        assert_eq!(a.cluster_size(0), 3.0);
        assert_eq!(a.total(), 1.5);
    }

    #[test]
    #[should_panic(expected = "domain size")]
    fn mismatched_domain_panics() {
        AttrCounts::new(vec![vec![1.0]], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "share the cluster count")]
    fn mismatched_cluster_count_panics() {
        let a = AttrCounts::new(vec![vec![1.0]], vec![1.0]);
        let b = AttrCounts::new(vec![vec![1.0], vec![2.0]], vec![3.0]);
        ScoreTable::new(vec![a, b]);
    }
}
