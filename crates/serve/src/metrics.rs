//! Rolling serving metrics for the resident daemon.
//!
//! One [`MetricsRegistry`] rides alongside the daemon's queue and workers
//! and aggregates everything the operator needs to see a resident process
//! breathe: end-to-end latency percentiles over a bounded ring, per-stage
//! wall-clock means fed through the engine's `PipelineObserver` seam (via
//! [`crate::service::ExplainService::with_stage_tap`]), admission reject
//! counts by machine-readable reason, queue depth, and per-dataset ε burn.
//!
//! Two consumers read it:
//!
//! * the `{"op": "stats"}` control op and the `--metrics-out` periodic dump
//!   render [`MetricsRegistry::snapshot_json`] — a fixed key set in a fixed
//!   order (every reject class is always present, datasets sort by name), so
//!   a schema check can validate the output without scheduling luck;
//! * the daemon's *admission control* reads
//!   [`MetricsRegistry::rolling_request_ms`] to judge whether a request's
//!   deadline is feasible behind the current queue, and to price the
//!   `retry_after_ms` hint on `overloaded` rejects.
//!
//! Everything in here is scheduling-dependent by nature, which is exactly
//! why none of it is ever written to the durable response stream — stats
//! lines ride the transport only (see the `daemon` module docs).

use crate::json::Json;
use crate::request::reject_reason;
use crate::service::reason;
use dpclustx::engine::StageEvent;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Every reject class the daemon can emit, in the order the stats object
/// renders them. A fixed set (rather than "whatever happened so far") keeps
/// the snapshot schema-stable: a zero count renders as `0`, not as absence.
pub const REJECT_CLASSES: [&str; 8] = [
    reject_reason::OVERLOADED,
    reason::BUDGET_EXCEEDED,
    reason::DEADLINE_EXCEEDED,
    reason::DRAINING,
    reject_reason::DUPLICATE_ID,
    reject_reason::INVALID_EPSILON,
    reject_reason::BAD_LINE,
    reason::LEDGER_WRITE,
];

/// The catch-all bucket for error responses with no machine-readable class
/// (validation failures, worker panics).
const OTHER_CLASS: &str = "other";

#[derive(Debug, Default)]
struct StageStat {
    total_ms: f64,
    count: u64,
}

#[derive(Debug, Default)]
struct DatasetStat {
    served: u64,
    eps_spent: f64,
    first_spend: Option<Instant>,
    last_spend: Option<Instant>,
}

#[derive(Debug)]
struct Inner {
    /// End-to-end latencies of served requests, newest last, bounded.
    latencies_ms: VecDeque<f64>,
    /// Per-stage wall-clock accumulators, keyed by stage name.
    stages: BTreeMap<String, StageStat>,
    /// Admission/execution rejects by class (all classes pre-seeded).
    rejects: BTreeMap<&'static str, u64>,
    /// Per-dataset serve counts and ε burn, keyed by dataset name.
    datasets: BTreeMap<String, DatasetStat>,
    served: u64,
    shed: u64,
    queue_depth: usize,
}

/// A thread-safe rolling metrics registry (see the module docs).
#[derive(Debug)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
    window: usize,
}

impl MetricsRegistry {
    /// A registry whose latency ring holds the most recent `window` served
    /// requests (promoted to 1 if zero).
    pub fn new(window: usize) -> Self {
        let rejects = REJECT_CLASSES.iter().map(|&class| (class, 0)).collect();
        MetricsRegistry {
            inner: Mutex::new(Inner {
                latencies_ms: VecDeque::new(),
                stages: BTreeMap::new(),
                rejects,
                datasets: BTreeMap::new(),
                served: 0,
                shed: 0,
                queue_depth: 0,
            }),
            window: window.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one served request: its end-to-end latency (queue wait
    /// included) and the ε it spent against `dataset`.
    pub fn record_served(&self, dataset: &str, latency: Duration, eps_spent: f64) {
        let now = Instant::now();
        let mut inner = self.lock();
        inner.latencies_ms.push_back(latency.as_secs_f64() * 1e3);
        while inner.latencies_ms.len() > self.window {
            inner.latencies_ms.pop_front();
        }
        inner.served += 1;
        let stat = inner.datasets.entry(dataset.to_string()).or_default();
        stat.served += 1;
        stat.eps_spent += eps_spent;
        if eps_spent > 0.0 {
            stat.first_spend.get_or_insert(now);
            stat.last_spend = Some(now);
        }
    }

    /// Records one rejected request by machine-readable class. Unknown
    /// classes land in the `"other"` bucket rather than growing the schema.
    pub fn record_reject(&self, class: &str) {
        let mut inner = self.lock();
        let class = REJECT_CLASSES
            .iter()
            .copied()
            .find(|&known| known == class)
            .unwrap_or(OTHER_CLASS);
        *inner.rejects.entry(class).or_insert(0) += 1;
    }

    /// Records a queued request shed at the drain deadline (also counted
    /// under the `deadline_exceeded` reject class by the caller).
    pub fn record_shed(&self) {
        self.lock().shed += 1;
    }

    /// Feeds one engine [`StageEvent`] into the per-stage wall-clock
    /// estimate — the `PipelineObserver` seam's daemon endpoint.
    pub fn observe_stage(&self, event: &StageEvent) {
        let mut inner = self.lock();
        let stat = inner.stages.entry(event.stage.to_string()).or_default();
        stat.total_ms += event.wall.as_secs_f64() * 1e3;
        stat.count += 1;
    }

    /// Updates the queue-depth gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.lock().queue_depth = depth;
    }

    /// Mean end-to-end latency over the ring, in milliseconds; 0.0 before
    /// the first served request. Admission control uses this as its rolling
    /// per-request cost estimate.
    pub fn rolling_request_ms(&self) -> f64 {
        let inner = self.lock();
        if inner.latencies_ms.is_empty() {
            return 0.0;
        }
        inner.latencies_ms.iter().sum::<f64>() / inner.latencies_ms.len() as f64
    }

    /// Served / shed / rejected totals (rejected sums every class).
    pub fn totals(&self) -> (u64, u64, u64) {
        let inner = self.lock();
        let rejected = inner.rejects.values().sum();
        (inner.served, inner.shed, rejected)
    }

    /// The deterministic stats object (see the module docs for the shape).
    /// `eps_remaining` supplies each dataset's live headroom (`None` renders
    /// as JSON `null` — an uncapped dataset).
    pub fn snapshot_json(
        &self,
        draining: bool,
        workers: usize,
        eps_remaining: &dyn Fn(&str) -> Option<f64>,
    ) -> Json {
        let inner = self.lock();
        let (p50, p99) = percentiles(&inner.latencies_ms);
        let mut rejects = Json::object();
        for class in REJECT_CLASSES {
            rejects = rejects.field(class, inner.rejects.get(class).copied().unwrap_or(0));
        }
        rejects = rejects.field(
            OTHER_CLASS,
            inner.rejects.get(OTHER_CLASS).copied().unwrap_or(0),
        );
        let stages: Vec<Json> = inner
            .stages
            .iter()
            .map(|(stage, stat)| {
                Json::object()
                    .field("stage", stage.as_str())
                    .field("mean_ms", stat.total_ms / stat.count.max(1) as f64)
                    .field("count", stat.count)
            })
            .collect();
        let datasets: Vec<Json> = inner
            .datasets
            .iter()
            .map(|(name, stat)| {
                let burn = match (stat.first_spend, stat.last_spend) {
                    (Some(first), Some(last)) if last > first => {
                        stat.eps_spent / (last - first).as_secs_f64()
                    }
                    _ => 0.0,
                };
                let mut obj = Json::object()
                    .field("dataset", name.as_str())
                    .field("served", stat.served)
                    .field("eps_spent", stat.eps_spent)
                    .field("eps_burn_per_s", burn);
                obj = match eps_remaining(name) {
                    Some(remaining) => obj.field("eps_remaining", remaining),
                    None => obj.field("eps_remaining", Json::Null),
                };
                obj
            })
            .collect();
        let rejected: u64 = inner.rejects.values().sum();
        Json::object()
            .field("draining", draining)
            .field("workers", workers)
            .field("queue_depth", inner.queue_depth)
            .field("served", inner.served)
            .field("shed", inner.shed)
            .field("rejected", rejected)
            .field(
                "latency_ms",
                Json::object()
                    .field("count", inner.latencies_ms.len())
                    .field("mean", {
                        if inner.latencies_ms.is_empty() {
                            0.0
                        } else {
                            inner.latencies_ms.iter().sum::<f64>() / inner.latencies_ms.len() as f64
                        }
                    })
                    .field("p50", p50)
                    .field("p99", p99),
            )
            .field("rejects", rejects)
            .field("stages", stages)
            .field("datasets", datasets)
    }
}

/// Nearest-rank p50/p99 over the (unsorted) latency ring; `(0, 0)` when
/// empty.
fn percentiles(latencies_ms: &VecDeque<f64>) -> (f64, f64) {
    if latencies_ms.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted: Vec<f64> = latencies_ms.iter().copied().collect();
    sorted.sort_by(f64::total_cmp);
    let rank = |q: f64| {
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    };
    (rank(0.50), rank(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage_event(stage: &'static str, ms: u64) -> StageEvent {
        StageEvent {
            stage,
            wall: Duration::from_millis(ms),
            epsilon: 0.0,
            charges: Vec::new(),
            metrics: Vec::new(),
        }
    }

    #[test]
    fn latency_ring_is_bounded_and_percentiles_track_it() {
        let metrics = MetricsRegistry::new(4);
        for ms in [10u64, 20, 30, 40, 1000] {
            metrics.record_served("d", Duration::from_millis(ms), 0.1);
        }
        // The ring holds the newest 4: [20, 30, 40, 1000].
        assert!((metrics.rolling_request_ms() - 272.5).abs() < 1e-9);
        let (served, shed, rejected) = metrics.totals();
        assert_eq!((served, shed, rejected), (5, 0, 0));
    }

    #[test]
    fn snapshot_has_the_full_reject_schema_even_when_idle() {
        let metrics = MetricsRegistry::new(8);
        let snapshot = metrics.snapshot_json(false, 2, &|_| None);
        let rejects = snapshot.get("rejects").expect("rejects object");
        for class in REJECT_CLASSES {
            assert!(
                rejects.get(class).and_then(Json::as_f64).is_some(),
                "class {class} missing from an idle snapshot"
            );
        }
        assert!(rejects.get("other").is_some());
        let latency = snapshot.get("latency_ms").expect("latency object");
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn rejects_bucket_by_class_and_unknowns_fold_into_other() {
        let metrics = MetricsRegistry::new(8);
        metrics.record_reject(reject_reason::OVERLOADED);
        metrics.record_reject(reject_reason::OVERLOADED);
        metrics.record_reject(reason::BUDGET_EXCEEDED);
        metrics.record_reject("martian");
        let snapshot = metrics.snapshot_json(false, 1, &|_| None);
        let rejects = snapshot.get("rejects").expect("rejects object");
        assert_eq!(
            rejects.get("overloaded").and_then(Json::as_u64),
            Some(2),
            "{}",
            snapshot.render()
        );
        assert_eq!(
            rejects.get("budget_exceeded").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(rejects.get("other").and_then(Json::as_u64), Some(1));
        assert_eq!(snapshot.get("rejected").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn stage_taps_feed_per_stage_means_and_datasets_report_burn() {
        let metrics = MetricsRegistry::new(8);
        metrics.observe_stage(&stage_event("BuildCounts", 10));
        metrics.observe_stage(&stage_event("BuildCounts", 30));
        metrics.record_served("census", Duration::from_millis(42), 0.3);
        let snapshot = metrics.snapshot_json(false, 2, &|name| {
            assert_eq!(name, "census");
            Some(1.7)
        });
        let stages = match snapshot.get("stages") {
            Some(Json::Array(stages)) => stages,
            other => panic!("stages must be an array, got {other:?}"),
        };
        assert_eq!(stages.len(), 1);
        assert_eq!(
            stages[0].get("mean_ms").and_then(Json::as_f64),
            Some(20.0),
            "two taps of 10ms and 30ms average to 20ms"
        );
        let datasets = match snapshot.get("datasets") {
            Some(Json::Array(datasets)) => datasets,
            other => panic!("datasets must be an array, got {other:?}"),
        };
        assert_eq!(
            datasets[0].get("eps_remaining").and_then(Json::as_f64),
            Some(1.7)
        );
        assert_eq!(
            datasets[0].get("eps_spent").and_then(Json::as_f64),
            Some(0.3)
        );
    }
}
