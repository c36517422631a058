//! The traced replay: the service's per-request sequence, called from
//! public functions with a span around each layer.
//!
//! The daemon's worker runs `ExplainService::execute_tapped`, which cannot
//! be opened from outside. The replay calls the same public steps in the
//! same order — `registry.get`, `try_spend_grant_cancellable`,
//! `derive_labels`, `explain_with_mechanism` with a `CollectingObserver`,
//! `ServedExplanation::new`, `to_json_line` — so on a registry over the same
//! data it renders the daemon's bytes for the same request line, and the
//! observer's four stage walls split the engine span.

use crate::drive::{Clock, Op};
use crate::stats::Span;
use dpclustx::engine::{CollectingObserver, ExplainContext, ExplainEngine};
use dpx_data::{hash_labels, Dataset};
use dpx_dp::budget::Epsilon;
use dpx_dp::GeometricHistogram;
use dpx_serve::{
    derive_labels, AppendSummary, DatasetRegistry, ExplainRequest, ExplainResponse, RequestOp,
    ServedExplanation,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Span names of the engine's four stages, in pipeline order.
pub const STAGE_SPANS: [&str; 4] = [
    "counts",
    "engine.stage1",
    "engine.stage2",
    "engine.histograms",
];

/// One replayed op.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The op's id.
    pub id: u64,
    /// The rendered response line.
    pub line: String,
    /// The op's spans; index 0 is the request root, parents index this list.
    pub spans: Vec<Span>,
    /// The explain's `(cluster_by, n_clusters)` (explains only).
    pub clustering: Option<(usize, usize)>,
    /// The counts stage's `cache_hit` metric (explains only).
    pub cache_hit: Option<bool>,
    /// Stage-2 leaves enumerated (explains only).
    pub leaves: Option<f64>,
    /// The append's summary (appends only).
    pub append: Option<AppendSummary>,
}

impl Replayed {
    /// Length of the first span named `name`, ns.
    pub fn span_ns(&self, name: &str) -> Option<u64> {
        self.spans.iter().find(|s| s.name == name).map(Span::len)
    }
}

struct SpanList {
    spans: Vec<Span>,
    clock: Clock,
    request: u64,
}

impl SpanList {
    fn timed<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = self.clock.now();
        let out = f();
        let end = self.clock.now();
        self.push(name, start, end, Some(parent));
        out
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request: self.request,
        });
        self.spans.len() - 1
    }
}

/// Serves `op` against `registry` by the service's per-request sequence.
pub fn replay_op(registry: &DatasetRegistry, op: &Op, clock: Clock) -> Result<Replayed, String> {
    let mut list = SpanList {
        spans: Vec::with_capacity(12),
        clock,
        request: op.id,
    };
    let root = list.push("request", clock.now(), 0, None);
    let request = list
        .timed("request.parse", root, || {
            ExplainRequest::classify_json_line(&op.line)
        })
        .map_err(|reject| reject.message)?;
    let mut replayed = Replayed {
        id: request.id,
        line: String::new(),
        spans: Vec::new(),
        clustering: None,
        cache_hit: None,
        leaves: None,
        append: None,
    };
    let response = if let RequestOp::Append { rows } = &request.op {
        let summary = list.timed("append.apply", root, || {
            registry.append_rows(&request.dataset, rows)
        })?;
        replayed.append = Some(summary);
        ExplainResponse::appended(request.id, summary)
    } else {
        let entry = list
            .timed("registry.get", root, || registry.get(&request.dataset))
            .ok_or_else(|| format!("unknown dataset '{}'", request.dataset))?;
        let total = Epsilon::new(request.total_epsilon()).map_err(|e| e.to_string())?;
        list.timed("ledger.reserve", root, || {
            entry.accountant().try_spend_grant_cancellable(
                request.id,
                format!("request/{}", request.id),
                total,
                None,
            )
        })
        .map_err(|e| e.to_string())?;
        entry.note_clustering(request.cluster_by, request.n_clusters);
        let labels = list.timed("labels.derive", root, || {
            derive_labels(entry.data(), request.cluster_by, request.n_clusters)
        });
        let mut ctx = ExplainContext::with_fingerprint(
            entry.data_arc(),
            entry.fingerprint(),
            request.seed,
            entry.cache(),
        );
        let engine = ExplainEngine::new(request.config()).with_stage2_kernel(request.stage2_kernel);
        let mut observer = CollectingObserver::new();
        let engine_start = clock.now();
        let outcome = engine
            .explain_with_mechanism(
                &mut ctx,
                &labels,
                request.n_clusters,
                &GeometricHistogram,
                &mut observer,
            )
            .map_err(|e| e.to_string())?;
        let engine_end = clock.now();
        let engine_span = list.push("engine", engine_start, engine_end, Some(root));
        // The stages run back to back inside the engine span; lay their
        // walls end to end from its start.
        let mut at = engine_start;
        for (event, name) in observer.events().iter().zip(STAGE_SPANS) {
            let end = at + event.wall.as_nanos() as u64;
            list.push(name, at, end, Some(engine_span));
            at = end;
            for &(metric, value) in &event.metrics {
                match metric {
                    "cache_hit" => replayed.cache_hit = Some(value == 1.0),
                    "combinations_enumerated" => replayed.leaves = Some(value),
                    _ => {}
                }
            }
        }
        let served = list.timed("response.build", root, || {
            ServedExplanation::new(
                &outcome.explanation,
                outcome.accountant.spent(),
                observer.events(),
            )
        });
        replayed.clustering = Some((request.cluster_by, request.n_clusters));
        ExplainResponse::success(request.id, served)
    };
    replayed.line = list.timed("request.render", root, || response.to_json_line());
    list.spans[root].end = clock.now();
    replayed.spans = list.spans;
    Ok(replayed)
}

/// Replays `ops` with `clients` closed-loop threads.
pub fn replay_all(
    registry: &DatasetRegistry,
    ops: &[Op],
    clients: usize,
    clock: Clock,
) -> Result<Vec<Replayed>, String> {
    let cursor = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(ops.len()));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                while let Some(op) = ops.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let replayed = replay_op(registry, op, clock);
                    out.lock().expect("replay lock").push(replayed);
                }
            });
        }
    });
    out.into_inner().expect("replay lock").into_iter().collect()
}

/// `hash_labels` timings, ns, over the labelings of `clusterings` on
/// `data`, one at a time after the replay. The counts stage hashes the
/// labels again to key the cache, so this is a derived split of that stage
/// (`cache.key_ms`, with `counts.lookup_ms` the remainder), not a layer.
pub fn key_samples(data: &Dataset, clusterings: &[(usize, usize)]) -> Vec<f64> {
    clusterings
        .iter()
        .map(|&(cluster_by, n_clusters)| {
            let labels = derive_labels(data, cluster_by, n_clusters);
            let start = std::time::Instant::now();
            std::hint::black_box(hash_labels(&labels, n_clusters));
            start.elapsed().as_nanos() as f64
        })
        .collect()
}
