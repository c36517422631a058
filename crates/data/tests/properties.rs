//! Property-based tests of the data substrate.

use dpx_data::binning::{bin_numeric, BinStrategy};
use dpx_data::contingency::ClusteredCounts;
use dpx_data::csv::{read_csv, write_csv};
use dpx_data::dataset::Dataset;
use dpx_data::histogram::Histogram;
use dpx_data::schema::{Attribute, Domain, Schema};
use dpx_data::stats::{chi_square, cramers_v, entropy};
use proptest::prelude::*;

/// Strategy: a random schema (1–4 attributes, domains of size 1–6) plus rows.
fn schema_and_rows() -> impl Strategy<Value = (Schema, Vec<Vec<u32>>)> {
    prop::collection::vec(1usize..=6, 1..=4).prop_flat_map(|domains| {
        let schema = Schema::new(
            domains
                .iter()
                .enumerate()
                .map(|(i, &d)| Attribute::new(format!("a{i}"), Domain::indexed(d)).unwrap())
                .collect(),
        )
        .unwrap();
        let row_strategy: Vec<_> = domains.iter().map(|&d| 0u32..(d as u32)).collect();
        let rows = prop::collection::vec(row_strategy, 0..60);
        (Just(schema), rows)
    })
}

proptest! {
    #[test]
    fn dataset_roundtrips_rows((schema, rows) in schema_and_rows()) {
        let data = Dataset::from_rows(schema, &rows).unwrap();
        prop_assert_eq!(data.n_rows(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(&data.row(i), row);
        }
    }

    #[test]
    fn histogram_total_equals_row_count((schema, rows) in schema_and_rows()) {
        let data = Dataset::from_rows(schema, &rows).unwrap();
        for a in 0..data.schema().arity() {
            prop_assert_eq!(data.histogram(a).total() as usize, rows.len());
        }
    }

    #[test]
    fn tvd_is_a_bounded_metric(
        x in prop::collection::vec(0u64..100, 1..10),
        y in prop::collection::vec(0u64..100, 1..10),
        z in prop::collection::vec(0u64..100, 1..10),
    ) {
        let n = x.len().min(y.len()).min(z.len());
        let a = Histogram::from_counts(x[..n].to_vec());
        let b = Histogram::from_counts(y[..n].to_vec());
        let c = Histogram::from_counts(z[..n].to_vec());
        let dab = a.tvd(&b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&dab));
        prop_assert!((dab - b.tvd(&a)).abs() < 1e-12);
        prop_assert!(a.tvd(&a) < 1e-12);
        // Triangle inequality holds for TVD.
        prop_assert!(dab <= a.tvd(&c) + c.tvd(&b) + 1e-9);
    }

    #[test]
    fn js_distance_is_bounded_symmetric(
        x in prop::collection::vec(0u64..100, 1..10),
        y in prop::collection::vec(0u64..100, 1..10),
    ) {
        let n = x.len().min(y.len());
        let a = Histogram::from_counts(x[..n].to_vec());
        let b = Histogram::from_counts(y[..n].to_vec());
        let d = a.js_distance(&b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d), "d = {d}");
        prop_assert!((d - b.js_distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn histogram_add_sub_inverse(
        x in prop::collection::vec(0u64..1000, 1..12),
        y in prop::collection::vec(0u64..1000, 1..12),
    ) {
        let n = x.len().min(y.len());
        let a = Histogram::from_counts(x[..n].to_vec());
        let b = Histogram::from_counts(y[..n].to_vec());
        // (a + b) − b == a bin-wise (no clamping kicks in).
        prop_assert_eq!(a.add(&b).saturating_sub(&b), a);
    }

    #[test]
    fn binning_codes_in_domain_and_monotone(
        values in prop::collection::vec(-1e6f64..1e6, 1..200),
        bins in 1usize..12,
    ) {
        for strat in [BinStrategy::EqualWidth(bins), BinStrategy::Quantile(bins)] {
            let b = bin_numeric(&values, strat);
            prop_assert_eq!(b.codes.len(), values.len());
            prop_assert!(b.codes.iter().all(|&c| (c as usize) < b.domain.size()));
            // Order-preservation: a smaller value never gets a larger code.
            for i in 0..values.len() {
                for j in 0..values.len() {
                    if values[i] < values[j] {
                        prop_assert!(b.codes[i] <= b.codes[j]);
                    }
                }
            }
            // Edges strictly increase.
            prop_assert!(b.edges.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn contingency_marginal_is_cluster_sum(
        (schema, rows) in schema_and_rows(),
        label_seed in prop::collection::vec(0usize..3, 0..60),
    ) {
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let labels: Vec<usize> = (0..data.n_rows()).map(|i| label_seed.get(i).copied().unwrap_or(0)).collect();
        let cc = ClusteredCounts::build(&data, &labels, 3, 1);
        for a in 0..data.schema().arity() {
            let t = cc.table(a);
            for v in 0..t.domain_size() as u32 {
                let sum: u64 = (0..3).map(|c| t.cluster_count(c, v)).sum();
                prop_assert_eq!(sum, t.marginal_count(v));
            }
            prop_assert_eq!(t.total() as usize, data.n_rows());
        }
    }

    #[test]
    fn any_base_delta_split_matches_one_shot_build(
        (schema, rows) in schema_and_rows(),
        label_seed in prop::collection::vec(0usize..4, 0..60),
        n_clusters in 1usize..=4,
        split_pct in 0usize..101,
    ) {
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let labels: Vec<usize> = (0..data.n_rows())
            .map(|i| label_seed.get(i).copied().unwrap_or(0) % n_clusters)
            .collect();
        let one_shot = ClusteredCounts::build(&data, &labels, n_clusters, 1);
        // Split anywhere — split 0 grows an empty base, split n applies an
        // empty delta — and the incremental path must land bit-exactly on
        // the one-shot build.
        let split = (data.n_rows() * split_pct / 100).min(data.n_rows());
        let base = data.select_rows(&(0..split).collect::<Vec<_>>());
        let delta = data.select_rows(&(split..data.n_rows()).collect::<Vec<_>>());
        let empty = Dataset::empty(data.schema().clone());
        let mut counts = ClusteredCounts::build(&base, &labels[..split], n_clusters, 1);
        counts.apply_delta(&delta, &labels[split..], &empty, &[]);
        prop_assert_eq!(&counts, &one_shot);
    }

    #[test]
    fn apply_delta_add_then_retire_round_trips(
        (schema, rows) in schema_and_rows(),
        label_seed in prop::collection::vec(0usize..4, 0..60),
        extra_seed in prop::collection::vec(0usize..40, 0..20),
        n_clusters in 1usize..=4,
    ) {
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let labels: Vec<usize> = (0..data.n_rows())
            .map(|i| label_seed.get(i).copied().unwrap_or(0) % n_clusters)
            .collect();
        let before = ClusteredCounts::build(&data, &labels, n_clusters, 1);
        let empty = Dataset::empty(data.schema().clone());
        // Duplicate some existing rows as the delta (valid by construction).
        prop_assume!(data.n_rows() > 0 || extra_seed.is_empty());
        let picks: Vec<usize> = extra_seed.iter().map(|&p| p % data.n_rows().max(1)).collect();
        let extra = data.select_rows(&picks);
        let extra_labels: Vec<usize> = picks.iter().map(|&p| labels[p]).collect();
        // Adding then retiring the same rows is a bit-exact no-op.
        let mut counts = before.clone();
        counts.apply_delta(&extra, &extra_labels, &empty, &[]);
        counts.apply_delta(&empty, &[], &extra, &extra_labels);
        prop_assert_eq!(&counts, &before);
        // Retiring every row empties the counts down to the freshly built
        // empty-dataset tables.
        let mut drained = before.clone();
        drained.apply_delta(&empty, &[], &data, &labels);
        prop_assert_eq!(drained.n_rows(), 0);
        prop_assert_eq!(&drained, &ClusteredCounts::build(&empty, &[], n_clusters, 1));
    }

    #[test]
    fn contingency_complement_adds_back(
        (schema, rows) in schema_and_rows(),
    ) {
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let labels: Vec<usize> = (0..data.n_rows()).map(|i| i % 2).collect();
        let cc = ClusteredCounts::build(&data, &labels, 2, 1);
        let t = cc.table(0);
        for c in 0..2 {
            prop_assert_eq!(
                t.cluster_histogram(c).add(&t.complement_histogram(c)),
                t.marginal_histogram()
            );
        }
    }

    #[test]
    fn cramers_v_bounded_and_reflexive(
        codes in prop::collection::vec(0u32..5, 1..100),
    ) {
        let v = cramers_v(&codes, &codes, 5, 5);
        prop_assert!((0.0..=1.0).contains(&v));
        let chi = chi_square(&codes, &codes, 5, 5);
        prop_assert!(chi >= -1e-9);
        let h = entropy(&codes, 5);
        prop_assert!((0.0..=5f64.ln() + 1e-12).contains(&h));
    }

    #[test]
    fn csv_roundtrip_arbitrary_labels(
        labels in prop::collection::vec("[a-zA-Z0-9 ,\"_.\\-]{1,12}", 2..6),
        picks in prop::collection::vec(0usize..100, 0..40),
    ) {
        // Deduplicate labels (domains require distinct values).
        let mut labels = labels;
        labels.sort();
        labels.dedup();
        prop_assume!(labels.len() >= 2);
        let dom = Domain::categorical(labels.clone());
        let schema = Schema::new(vec![Attribute::new("x", dom).unwrap()]).unwrap();
        let rows: Vec<Vec<u32>> = picks.iter().map(|&p| vec![(p % labels.len()) as u32]).collect();
        let data = Dataset::from_rows(schema.clone(), &rows).unwrap();
        let mut buf = Vec::new();
        write_csv(&data, &mut buf).unwrap();
        let back = read_csv(schema, buf.as_slice()).unwrap();
        prop_assert_eq!(back.n_rows(), data.n_rows());
        for i in 0..data.n_rows() {
            prop_assert_eq!(back.row(i), data.row(i));
        }
    }

    #[test]
    fn select_rows_and_attributes_consistent((schema, rows) in schema_and_rows()) {
        let data = Dataset::from_rows(schema, &rows).unwrap();
        prop_assume!(data.n_rows() >= 2);
        let sub = data.select_rows(&[0, data.n_rows() - 1, 0]);
        prop_assert_eq!(sub.n_rows(), 3);
        prop_assert_eq!(sub.row(0), data.row(0));
        prop_assert_eq!(sub.row(2), data.row(0));
        let proj = data.select_attributes(&[0]);
        prop_assert_eq!(proj.schema().arity(), 1);
        prop_assert_eq!(proj.column(0), data.column(0));
    }
}
