//! Order statistics, failure accounting and span arithmetic.
//!
//! Every timing the benchmark reports goes through [`percentile`]: the
//! nearest-rank definition, computed in integer per-mille so that p99 of
//! 1,000 samples is exactly rank 990 and never rank 991 by float round-off.

/// A percentile in per-mille: p50 is `500`, p99 is `990`.
pub type PerMille = u64;

/// Median.
pub const P50: PerMille = 500;
/// The tail percentile the benchmark reports.
pub const P99: PerMille = 990;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p / 1000 * n)`, clamped to `1..=n`.
pub fn nearest_rank(p: PerMille, n: usize) -> usize {
    let rank = (p as usize * n).div_ceil(1000);
    rank.clamp(1, n.max(1))
}

/// The smallest sample count for which percentile `p` has at least
/// `beyond` samples strictly above its nearest rank.
pub fn min_samples(p: PerMille, beyond: usize) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(p, n) >= beyond)
        .expect("every percentile below 1000 per-mille is reachable")
}

/// Nearest-rank percentile of `values` (any order). `None` when empty.
pub fn percentile(values: &[f64], p: PerMille) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(p, sorted.len()) - 1])
}

/// [`percentile`] that refuses to report a tail percentile with fewer than
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(values: &[f64], p: PerMille) -> Result<f64, String> {
    let need = min_samples(p, MIN_BEYOND);
    if values.len() < need {
        return Err(format!(
            "p{} needs at least {need} samples ({MIN_BEYOND} beyond it), got {}",
            p as f64 / 10.0,
            values.len()
        ));
    }
    Ok(percentile(values, p).expect("non-empty"))
}

/// The reported tail: `in_order` (samples in completion order) is cut into
/// consecutive windows of at least [`min_samples`]`(P99, MIN_BEYOND)`
/// samples, and the result is the median of the windows' p99s. Each window's
/// p99 has [`MIN_BEYOND`] samples beyond it; the median keeps one burst of
/// host interference in one window from setting the run's tail. With a
/// single window this is [`tail_percentile`].
pub fn windowed_p99(in_order: &[f64]) -> Result<f64, String> {
    let windows = in_order.len() / min_samples(P99, MIN_BEYOND);
    if windows <= 1 {
        return tail_percentile(in_order, P99);
    }
    let n = in_order.len();
    let p99s: Vec<f64> = (0..windows)
        .map(|w| percentile(&in_order[w * n / windows..(w + 1) * n / windows], P99))
        .collect::<Option<_>>()
        .expect("windows are non-empty");
    Ok(percentile(&p99s, P50).expect("at least two windows"))
}

/// Completions per second in `windows` consecutive windows, by completion
/// order, of one phase that began at `begin` (fewer windows when there are
/// fewer completions). `done` holds completion times in ns, sorted. Each
/// window runs from the previous window's last completion (or `begin`) to
/// its own.
pub fn window_rates(begin: u64, done: &[u64], windows: usize) -> Vec<f64> {
    let windows = windows.clamp(1, done.len().max(1));
    let n = done.len();
    let mut from = begin;
    (0..windows)
        .filter_map(|w| {
            let slice = &done[w * n / windows..(w + 1) * n / windows];
            let to = *slice.last()?;
            let rate = slice.len() as f64 / ((to - from) as f64 / 1e9);
            from = to;
            Some(rate)
        })
        .collect()
}

/// Medians of `windows` consecutive windows of `in_order` (fewer when there
/// are fewer samples).
pub fn window_medians(in_order: &[f64], windows: usize) -> Vec<f64> {
    let windows = windows.clamp(1, in_order.len().max(1));
    let n = in_order.len();
    (0..windows)
        .filter_map(|w| percentile(&in_order[w * n / windows..(w + 1) * n / windows], P50))
        .collect()
}

/// Median of `values`, `0.0` when empty (used for per-layer shares only).
pub fn median_or_zero(values: &[f64]) -> f64 {
    percentile(values, P50).unwrap_or(0.0)
}

/// How the ops of one run ended, as the client saw them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTally {
    /// Ops the clients sent.
    pub attempted: u64,
    /// Ops answered `ok: true`.
    pub ok: u64,
    /// Ops answered with an execution error.
    pub errors: u64,
    /// Ops refused by admission or the wire parser (typed rejects).
    pub rejects: u64,
    /// Ops that never got a reply.
    pub missing: u64,
}

impl OpTally {
    /// Ops that did not succeed: errors, rejects and missing replies.
    pub fn failed(&self) -> u64 {
        self.errors + self.rejects + self.missing
    }

    /// [`Self::failed`] as a share of the ops attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// One traced interval. Times are nanoseconds from the run's epoch; spans of
/// one request share `request`; `parent` indexes the enclosing span in the
/// same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the parent span, `None` for a request root.
    pub parent: Option<usize>,
    /// Request id the span belongs to.
    pub request: u64,
}

impl Span {
    /// Length in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its length minus the part of its interval that
/// the union of its children covers. Children that overlap one another are
/// counted once, and the parts of a child outside its parent are ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start.max(p.start), span.end.min(p.end));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.len() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_round_sizes() {
        assert_eq!(nearest_rank(P99, 1000), 990);
        assert_eq!(nearest_rank(P99, 100), 99);
        assert_eq!(nearest_rank(P50, 1), 1);
        assert_eq!(nearest_rank(P50, 2), 1);
        assert_eq!(nearest_rank(P50, 3), 2);
        assert_eq!(nearest_rank(1000, 7), 7);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(min_samples(P99, MIN_BEYOND), 1000);
        assert_eq!(min_samples(P50, MIN_BEYOND), 20);
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(tail_percentile(&values, P99).is_err());
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, P99), Ok(990.0));
    }

    #[test]
    fn windowed_p99_takes_the_median_window() {
        let calm: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_p99(&calm), tail_percentile(&calm, P99));
        assert!(windowed_p99(&calm[..999]).is_err());
        // Three windows; a burst of slow samples in the middle one moves
        // only that window's p99.
        let mut run = [calm.clone(), calm.clone(), calm].concat();
        for sample in &mut run[1000..1100] {
            *sample = 1e6;
        }
        assert_eq!(windowed_p99(&run), Ok(98.0));
        assert_eq!(tail_percentile(&run, P99), Ok(1e6));
    }

    #[test]
    fn windows_split_a_phase_by_completions() {
        // 3,000 completions 1 ms apart, then a 1 s stall before the last
        // window's final completion.
        let mut done: Vec<u64> = (1..=3000).map(|i| i * 1_000_000).collect();
        *done.last_mut().unwrap() += 1_000_000_000;
        let rates = window_rates(0, &done, 3);
        assert_eq!(rates.len(), 3);
        assert!((rates[0] - 1000.0).abs() < 1e-9);
        assert!((rates[1] - 1000.0).abs() < 1e-9);
        assert!((rates[2] - 500.0).abs() < 1e-9);
        assert_eq!(window_rates(0, &done[..2], 3).len(), 2);
        assert!(window_rates(0, &[], 3).is_empty());

        let latencies: Vec<f64> = (0..30).map(|i| f64::from(i / 10)).collect();
        assert_eq!(window_medians(&latencies, 3), vec![0.0, 1.0, 2.0]);
        assert!(window_medians(&[], 3).is_empty());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&values, P50), Some(3.0));
        assert_eq!(percentile(&[], P50), None);
    }

    #[test]
    fn failed_frac_counts_rejects_and_missing_replies() {
        let tally = OpTally {
            attempted: 200,
            ok: 190,
            errors: 2,
            rejects: 5,
            missing: 3,
        };
        assert_eq!(tally.failed(), 10);
        assert_eq!(tally.failed_frac(), 0.05);
        let clean = OpTally {
            attempted: 10,
            ok: 10,
            ..OpTally::default()
        };
        assert_eq!(clean.failed_frac(), 0.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 130, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        // Children of root cover [10, 60) and [90, 100): 60 ns.
        assert_eq!(self_times(&spans), vec![40, 25, 30, 40, 5]);
    }

    #[test]
    fn self_time_of_nested_identical_children_counts_once() {
        let spans = vec![
            span("root", 0, 50, None),
            span("a", 0, 50, Some(0)),
            span("b", 0, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 50, 50]);
    }
}
