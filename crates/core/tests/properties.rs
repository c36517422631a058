//! Property-based verification of the paper's central claims: the
//! sensitivity-1 bounds of every low-sensitivity quality function
//! (Propositions 4.2, 4.4, 4.6, 4.8, 4.9) over *randomly generated
//! neighboring datasets*, and the ranking-preservation identities connecting
//! them to the sensitive originals.

use dpclustx::counts::ScoreTable;
use dpclustx::eval::QualityEvaluator;
use dpclustx::quality::diversity::{div_p, pair_d};
use dpclustx::quality::interestingness::{int_p, sensitive_tvd};
use dpclustx::quality::score::{glscore, sscore, GlScoreCache, Weights};
use dpclustx::quality::sufficiency::{sensitive_suf_global, suf_p};
use dpx_data::contingency::ClusteredCounts;
use dpx_data::schema::{Attribute, Domain, Schema};
use dpx_data::Dataset;
use proptest::prelude::*;

/// A random world: schema (2–3 attributes, domains 2–5), tuples with cluster
/// labels, and the neighbor obtained by appending one more labelled tuple.
#[derive(Debug, Clone)]
struct World {
    n_clusters: usize,
    st: ScoreTable,
    st_neighbor: ScoreTable,
}

fn world() -> impl Strategy<Value = World> {
    (
        prop::collection::vec(2usize..=5, 2..=3), // domains
        2usize..=3,                               // clusters
    )
        .prop_flat_map(|(domains, n_clusters)| {
            let row = domains
                .iter()
                .map(|&d| 0u32..(d as u32))
                .collect::<Vec<_>>();
            let rows = prop::collection::vec((row.clone(), 0usize..n_clusters), 1..40);
            let extra = (row, 0usize..n_clusters);
            (Just(domains), Just(n_clusters), rows, extra)
        })
        .prop_map(|(domains, n_clusters, rows, extra)| {
            let schema = Schema::new(
                domains
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| Attribute::new(format!("a{i}"), Domain::indexed(d)).unwrap())
                    .collect(),
            )
            .unwrap();
            let tuples: Vec<Vec<u32>> = rows.iter().map(|(t, _)| t.clone()).collect();
            let labels: Vec<usize> = rows.iter().map(|(_, c)| *c).collect();
            let data = Dataset::from_rows(schema.clone(), &tuples).unwrap();
            let st = ScoreTable::from_clustered_counts(&ClusteredCounts::build(
                &data, &labels, n_clusters, 1,
            ));
            let mut tuples2 = tuples;
            let mut labels2 = labels;
            tuples2.push(extra.0);
            labels2.push(extra.1);
            let data2 = Dataset::from_rows(schema, &tuples2).unwrap();
            let st_neighbor = ScoreTable::from_clustered_counts(&ClusteredCounts::build(
                &data2, &labels2, n_clusters, 1,
            ));
            World {
                n_clusters,
                st,
                st_neighbor,
            }
        })
}

proptest! {
    /// Proposition 4.2: |Int_p(D) − Int_p(D')| ≤ 1 for any neighbor.
    #[test]
    fn int_p_sensitivity_bounded_by_one(w in world()) {
        for a in 0..w.st.n_attributes() {
            for c in 0..w.n_clusters {
                let d = (int_p(w.st.attr(a), c) - int_p(w.st_neighbor.attr(a), c)).abs();
                prop_assert!(d <= 1.0 + 1e-9, "attr {a} cluster {c}: Δ = {d}");
            }
        }
    }

    /// Proposition 4.4(2): |Suf_p(D) − Suf_p(D')| ≤ 1.
    #[test]
    fn suf_p_sensitivity_bounded_by_one(w in world()) {
        for a in 0..w.st.n_attributes() {
            for c in 0..w.n_clusters {
                let d = (suf_p(w.st.attr(a), c) - suf_p(w.st_neighbor.attr(a), c)).abs();
                prop_assert!(d <= 1.0 + 1e-9, "attr {a} cluster {c}: Δ = {d}");
            }
        }
    }

    /// Proposition 4.8: SScore_γ has sensitivity ≤ 1 and range [0, |D_c|].
    #[test]
    fn sscore_sensitivity_and_range(w in world(), g in 0.0f64..1.0) {
        let gamma = (g, 1.0 - g);
        for a in 0..w.st.n_attributes() {
            for c in 0..w.n_clusters {
                let s = sscore(&w.st, c, a, gamma);
                prop_assert!(s >= -1e-9);
                prop_assert!(s <= w.st.attr(a).cluster_size(c) + 1e-9);
                let d = (s - sscore(&w.st_neighbor, c, a, gamma)).abs();
                prop_assert!(d <= 1.0 + 1e-9, "attr {a} cluster {c}: Δ = {d}");
            }
        }
    }

    /// Proposition 4.6: pairwise d and Div_p have sensitivity ≤ 1.
    #[test]
    fn diversity_sensitivity_bounded_by_one(w in world()) {
        let n_attrs = w.st.n_attributes();
        for a in 0..n_attrs {
            for a2 in 0..n_attrs {
                for c in 0..w.n_clusters {
                    for c2 in (c + 1)..w.n_clusters {
                        let d = (pair_d(&w.st, c, c2, a, a2)
                            - pair_d(&w.st_neighbor, c, c2, a, a2)).abs();
                        prop_assert!(d <= 1.0 + 1e-9, "pair ({c},{c2}) attrs ({a},{a2}): Δ = {d}");
                    }
                }
            }
        }
        // Global Div_p over a fixed assignment.
        let assignment: Vec<usize> = (0..w.n_clusters).map(|c| c % n_attrs).collect();
        let d = (div_p(&w.st, &assignment) - div_p(&w.st_neighbor, &assignment)).abs();
        prop_assert!(d <= 1.0 + 1e-9, "Div_p Δ = {d}");
    }

    /// Proposition 4.9: GlScore_λ has sensitivity ≤ 1 for every assignment
    /// and every weight vector.
    #[test]
    fn glscore_sensitivity_bounded_by_one(w in world(), wi in 0.0f64..1.0, ws in 0.0f64..1.0) {
        let total = wi + ws + 1.0; // implicit div weight 1.0 before normalizing
        let weights = Weights::new(wi / total, ws / total, 1.0 / total);
        let n_attrs = w.st.n_attributes();
        // A handful of assignments: constant and staggered.
        let assignments: Vec<Vec<usize>> = (0..n_attrs)
            .map(|a| vec![a; w.n_clusters])
            .chain(std::iter::once(
                (0..w.n_clusters).map(|c| c % n_attrs).collect(),
            ))
            .collect();
        for asg in &assignments {
            let d = (glscore(&w.st, asg, weights) - glscore(&w.st_neighbor, asg, weights)).abs();
            prop_assert!(d <= 1.0 + 1e-9, "assignment {asg:?}: Δ = {d}");
        }
    }

    /// The identity below Definition 4.2: Int_p = |D_c| · TVD, hence both
    /// rank attributes identically per cluster.
    #[test]
    fn int_p_is_cluster_size_times_tvd(w in world()) {
        for a in 0..w.st.n_attributes() {
            for c in 0..w.n_clusters {
                let attr = w.st.attr(a);
                let lhs = int_p(attr, c);
                let rhs = attr.cluster_size(c) * sensitive_tvd(attr, c);
                prop_assert!((lhs - rhs).abs() < 1e-6, "attr {a} cluster {c}: {lhs} vs {rhs}");
            }
        }
    }

    /// Proposition 4.4(1): |D| · Suf(D, f, AC) = Σ_c Suf_p(c, AC(c)), where
    /// Suf is computed from the *original tuple-level definition* (Eq. 3/4 of
    /// the paper) as an independent reference implementation.
    #[test]
    fn suf_identity_matches_tuple_level_reference(
        (domains, rows) in prop::collection::vec(2usize..=4, 1..=2).prop_flat_map(|domains| {
            let row = domains.iter().map(|&d| 0u32..(d as u32)).collect::<Vec<_>>();
            let rows = prop::collection::vec((row, 0usize..2), 1..25);
            (Just(domains), rows)
        })
    ) {
        let n_clusters = 2;
        let schema = Schema::new(
            domains.iter().enumerate()
                .map(|(i, &d)| Attribute::new(format!("a{i}"), Domain::indexed(d)).unwrap())
                .collect(),
        ).unwrap();
        let tuples: Vec<Vec<u32>> = rows.iter().map(|(t, _)| t.clone()).collect();
        let labels: Vec<usize> = rows.iter().map(|(_, c)| *c).collect();
        let data = Dataset::from_rows(schema, &tuples).unwrap();
        let st = ScoreTable::from_clustered_counts(
            &ClusteredCounts::build(&data, &labels, n_clusters, 1));

        // Explain both clusters with attribute 0.
        let attr = 0usize;

        // Reference: the tuple-level Suf of Eq. (3)/(4). For each tuple t,
        // m_s(t) = Σ_{t' in cluster(t)} r(t') / Σ_{t' in D} r(t'), with
        // r(t') = cnt_{A=t'[A]}(D_{f(t)}) / cnt_{A=t'[A]}(D); global Suf is
        // the average of m_s over tuples.
        let cnt = |value: u32, cluster: Option<usize>| -> f64 {
            tuples.iter().zip(&labels)
                .filter(|(t, &l)| t[attr] == value && cluster.is_none_or(|c| l == c))
                .count() as f64
        };
        let mut total_ms = 0.0;
        for (t, &c) in tuples.iter().zip(&labels) {
            let _ = t;
            let num: f64 = tuples.iter().zip(&labels)
                .filter(|(_, &l2)| l2 == c)
                .map(|(t2, _)| cnt(t2[attr], Some(c)) / cnt(t2[attr], None))
                .sum();
            let den: f64 = tuples.iter()
                .map(|t2| cnt(t2[attr], Some(c)) / cnt(t2[attr], None))
                .sum();
            if den > 0.0 {
                total_ms += num / den;
            }
        }
        let suf_reference = total_ms / tuples.len() as f64;

        // Implementation under test: identity-based global sufficiency.
        let t0 = st.attr(attr);
        let suf_ident = sensitive_suf_global(&[t0, t0], n_clusters);
        prop_assert!(
            (suf_reference - suf_ident).abs() < 1e-9,
            "reference {suf_reference} vs identity {suf_ident}"
        );
    }

    /// GlScoreCache must agree with direct glscore on every combination.
    #[test]
    fn glscore_cache_matches_direct(w in world()) {
        let n_attrs = w.st.n_attributes();
        let weights = Weights::equal();
        let candidates: Vec<Vec<usize>> = vec![(0..n_attrs).collect(); w.n_clusters];
        let cache = GlScoreCache::build(&w.st, &candidates, weights);
        // Exhaustive over the (small) combination space.
        let mut choice = vec![0usize; w.n_clusters];
        loop {
            let assignment: Vec<usize> = choice.clone();
            let a = cache.glscore_cached(&choice);
            let b = glscore(&w.st, &assignment, weights);
            prop_assert!((a - b).abs() < 1e-9, "{choice:?}: cached {a} vs direct {b}");
            let mut pos = w.n_clusters;
            let mut done = true;
            while pos > 0 {
                pos -= 1;
                choice[pos] += 1;
                if choice[pos] < n_attrs {
                    done = false;
                    break;
                }
                choice[pos] = 0;
            }
            if done {
                break;
            }
        }
    }

    /// Appendix B: the extended multi-explanation GlScore keeps sensitivity
    /// ≤ 1 over random neighbors (tested at ℓ = 2).
    #[test]
    fn glscore_multi_sensitivity_bounded_by_one(w in world()) {
        use dpclustx::multi::glscore_multi;
        let n_attrs = w.st.n_attributes();
        prop_assume!(n_attrs >= 2);
        let weights = Weights::equal();
        // ℓ = 2 assignments: first two attributes everywhere, and a staggered one.
        let uniform: Vec<Vec<usize>> = vec![vec![0, 1]; w.n_clusters];
        let staggered: Vec<Vec<usize>> = (0..w.n_clusters)
            .map(|c| vec![c % n_attrs, (c + 1) % n_attrs])
            .collect();
        for asg in [&uniform, &staggered] {
            // Skip degenerate staggered sets where a cluster repeats an attribute.
            if asg.iter().any(|s| s[0] == s[1]) {
                continue;
            }
            let d = (glscore_multi(&w.st, asg, weights)
                - glscore_multi(&w.st_neighbor, asg, weights))
            .abs();
            prop_assert!(d <= 1.0 + 1e-9, "multi assignment {asg:?}: Δ = {d}");
        }
    }

    /// Budget-capped sessions never overspend, for arbitrary request
    /// sequences.
    #[test]
    fn session_never_exceeds_cap(
        requests in prop::collection::vec((0u8..3, 1u32..40), 1..12),
        cap_centi in 10u32..200,
    ) {
        use dpclustx::framework::DpClustXConfig;
        use dpclustx::session::Session;
        use dpx_dp::budget::Epsilon;

        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(2)).unwrap(),
            Attribute::new("y", Domain::indexed(3)).unwrap(),
            Attribute::new("z", Domain::indexed(2)).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..120)
            .map(|i| vec![(i % 2) as u32, (i % 3) as u32, ((i / 2) % 2) as u32])
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let cap = cap_centi as f64 / 100.0;
        let mut session = Session::new(data, Epsilon::new(cap).unwrap(), 7);
        for (kind, eps_centi) in requests {
            let eps = Epsilon::new(eps_centi as f64 / 100.0).unwrap();
            // Ignore request outcomes; the invariant is the spend bound.
            let _ = match kind {
                0 => session.cluster_dp_kmeans(2, eps).err(),
                1 => session.noisy_histogram(0, eps).err().map(|_| dpx_dp::DpError::EmptyCandidateSet),
                _ => session
                    .explain(DpClustXConfig {
                        k: 2,
                        eps_cand_set: eps.get() / 3.0,
                        eps_top_comb: eps.get() / 3.0,
                        eps_hist: Some(eps.get() / 3.0),
                        weights: Weights::equal(),
                        consistency: false,
                    })
                    .err()
                    .map(|_| dpx_dp::DpError::EmptyCandidateSet),
            };
            prop_assert!(
                session.spent() <= cap * (1.0 + 1e-9),
                "spent {} over cap {cap}",
                session.spent()
            );
        }
    }

    /// The evaluation Quality is always within [0, 1].
    #[test]
    fn quality_is_in_unit_interval(w in world()) {
        let ev = QualityEvaluator::new(&w.st, Weights::equal());
        let n_attrs = w.st.n_attributes();
        for a in 0..n_attrs {
            let asg = vec![a; w.n_clusters];
            let q = ev.quality(&asg);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&q), "quality {q}");
        }
    }
}
