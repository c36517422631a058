//! Two-dimensional histogram explanations (the paper's future-work §8).
//!
//! The extension rides entirely on the 1-D machinery: each attribute *pair*
//! becomes a single attribute over the Cartesian-product domain
//! ([`dpx_data::product`]), which is still discrete, finite and
//! data-independent — so Stage-1, Stage-2, the sensitivity-1 quality
//! functions, and the DP histogram release apply verbatim. What changes is
//! interpretation (grid rendering) and, as the paper warns, utility: product
//! cells hold smaller counts, so the same ε buys noisier histograms.

use crate::explanation::GlobalExplanation;
use crate::framework::{DpClustX, DpClustXConfig, Outcome};
use dpx_data::product::{product_dataset, ProductColumn};
use dpx_data::{DataError, Dataset};
use dpx_dp::histogram::HistogramMechanism;
use dpx_dp::DpError;
use rand::Rng;

/// A 2-D explanation outcome: the standard outcome over the product space
/// plus the decoding metadata of each selected pair.
#[derive(Debug)]
pub struct PairOutcome {
    /// The standard pipeline outcome over the product dataset.
    pub outcome: Outcome,
    /// Decoders for the pair attributes, aligned with the product schema.
    pub products: Vec<ProductColumn>,
}

impl PairOutcome {
    /// The explanation over the product attributes.
    pub fn explanation(&self) -> &GlobalExplanation {
        &self.outcome.explanation
    }

    /// Renders cluster `c`'s selected 2-D histogram as a grid of percentage
    /// cells (rows = first attribute, columns = second).
    pub fn render_grid(&self, c: usize) -> String {
        let e = &self.outcome.explanation.per_cluster[c];
        let product = &self.products[e.attribute];
        let dom_b = product.dom_b;
        let dom_a = e.hist_cluster.len() / dom_b;
        let total: f64 = e.hist_cluster.iter().map(|&x| x.max(0.0)).sum();
        let mut out = format!(
            "Cluster {} — pair `{}` (cluster distribution, % per cell)\n",
            c, e.attribute_name
        );
        for va in 0..dom_a {
            out.push_str("  ");
            for vb in 0..dom_b {
                let count = e.hist_cluster[va * dom_b + vb].max(0.0);
                let pct = if total > 0.0 {
                    count / total * 100.0
                } else {
                    0.0
                };
                out.push_str(&format!("{pct:6.1}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Errors from the 2-D pipeline: either data composition or DP failures.
#[derive(Debug)]
pub enum PairError {
    /// Composing the product dataset failed.
    Data(DataError),
    /// The DP pipeline failed.
    Dp(DpError),
}

impl std::fmt::Display for PairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PairError::Data(e) => write!(f, "pair composition: {e}"),
            PairError::Dp(e) => write!(f, "dp pipeline: {e}"),
        }
    }
}

impl std::error::Error for PairError {}

/// Runs DPClustX over attribute-*pair* candidates: the candidate space is
/// the given `pairs`, each treated as one product attribute. Spends exactly
/// the budget of `config` (Theorem 5.1 applies unchanged).
pub fn explain_pairs<M: HistogramMechanism + Sync, R: Rng + ?Sized>(
    data: &Dataset,
    labels: &[usize],
    n_clusters: usize,
    pairs: &[(usize, usize)],
    config: DpClustXConfig,
    mechanism: &M,
    rng: &mut R,
) -> Result<PairOutcome, PairError> {
    let (product_data, products) = product_dataset(data, pairs).map_err(PairError::Data)?;
    let counts =
        dpx_data::contingency::ClusteredCounts::build(&product_data, labels, n_clusters, 1);
    let outcome = DpClustX::new(config)
        .explain_from_counts(&product_data, &counts, mechanism, rng)
        .map_err(PairError::Dp)?;
    Ok(PairOutcome { outcome, products })
}

/// All unordered attribute pairs `(a, b)` with `a < b` — the full 2-D
/// candidate space (quadratic; callers with many attributes should pre-select
/// a subset, e.g. the top 1-D candidates).
pub fn all_pairs(n_attributes: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n_attributes * (n_attributes - 1) / 2);
    for a in 0..n_attributes {
        for b in (a + 1)..n_attributes {
            pairs.push((a, b));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_data::schema::{Attribute, Domain, Schema};
    use dpx_dp::histogram::GeometricHistogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Cluster structure only visible jointly: within each (x, y) pair the
    /// cluster is determined by x == y, which no single attribute reveals.
    fn xor_world() -> (Dataset, Vec<usize>) {
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(2)).unwrap(),
            Attribute::new("y", Domain::indexed(2)).unwrap(),
            Attribute::new("noise", Domain::indexed(3)).unwrap(),
        ])
        .unwrap();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2000u32 {
            let x = i % 2;
            let y = (i / 2) % 2;
            rows.push(vec![x, y, i % 3]);
            labels.push(usize::from(x == y));
        }
        (Dataset::from_rows(schema, &rows).unwrap(), labels)
    }

    #[test]
    fn pair_explanation_finds_joint_structure() {
        let (data, labels) = xor_world();
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = all_pairs(3);
        let config = DpClustXConfig {
            k: 1,
            eps_cand_set: 100.0,
            eps_top_comb: 100.0,
            eps_hist: Some(10.0),
            ..Default::default()
        };
        let out = explain_pairs(
            &data,
            &labels,
            2,
            &pairs,
            config,
            &GeometricHistogram,
            &mut rng,
        )
        .unwrap();
        // XOR structure: only the (x, y) product perfectly explains the
        // clusters; a near-noiseless run must select it for both.
        for e in &out.outcome.explanation.per_cluster {
            assert_eq!(e.attribute_name, "x×y", "cluster {}", e.cluster);
        }
    }

    #[test]
    fn grid_rendering_has_product_shape() {
        let (data, labels) = xor_world();
        let mut rng = StdRng::seed_from_u64(4);
        let out = explain_pairs(
            &data,
            &labels,
            2,
            &[(0, 1)],
            DpClustXConfig {
                k: 1,
                eps_cand_set: 10.0,
                eps_top_comb: 10.0,
                eps_hist: Some(10.0),
                ..Default::default()
            },
            &GeometricHistogram,
            &mut rng,
        )
        .unwrap();
        let grid = out.render_grid(0);
        // 2×2 product → exactly two data rows (plus the header).
        assert_eq!(grid.lines().count(), 3, "grid:\n{grid}");
        assert!(grid.contains("x×y"));
    }

    #[test]
    fn budget_is_unchanged_by_the_extension() {
        let (data, labels) = xor_world();
        let mut rng = StdRng::seed_from_u64(5);
        let config = DpClustXConfig::default();
        let out = explain_pairs(
            &data,
            &labels,
            2,
            &all_pairs(3),
            config,
            &GeometricHistogram,
            &mut rng,
        )
        .unwrap();
        assert!(
            (out.outcome.accountant.spent() - config.total_epsilon()).abs() < 1e-9,
            "spent {}",
            out.outcome.accountant.spent()
        );
    }

    #[test]
    fn all_pairs_counts() {
        assert_eq!(all_pairs(4).len(), 6);
        assert_eq!(all_pairs(1).len(), 0);
        assert!(all_pairs(5).iter().all(|&(a, b)| a < b && b < 5));
    }
}
