//! The batch executor: requests in, responses out, on a worker pool.
//!
//! [`ExplainService::run_batch`] is the serving loop. Its concurrency model
//! is the runtime crate's counter-claimed job queue
//! ([`ordered_parallel_map_catch`]): the batch *is* the bounded queue, worker
//! threads claim requests in input order, and each response lands in its
//! request's slot — so the response vector is a deterministic function of the
//! request vector for every worker count. A panicking request (a buggy
//! mechanism, a hostile input that trips an internal assertion) is isolated
//! to its own error response; the pool keeps draining the queue.
//!
//! Privacy ordering: a request's **entire** ε is reserved on the dataset's
//! [`SharedAccountant`](dpx_dp::SharedAccountant) in one atomic spend
//! *before* any mechanism runs. There is no check-then-spend window for two
//! workers to race through, so the per-dataset cap holds under any
//! interleaving. The reservation is deliberately not refunded if the pipeline
//! later fails — over-counting spend is privacy-safe, refunds after a partial
//! release are not.

pub use crate::registry::derive_labels;
use crate::registry::DatasetRegistry;
use crate::request::{
    reject_reason, ExplainRequest, ExplainResponse, RequestOp, ServedExplanation, WireReject,
};
use dpclustx::engine::{CollectingObserver, ExplainContext, ExplainEngine, StageEvent};
use dpx_dp::budget::Epsilon;
use dpx_dp::histogram::{GeometricHistogram, HistogramMechanism};
use dpx_dp::DpError;
use dpx_runtime::faultpoint::{self, SERVICE_POST_SPEND, SERVICE_PRE_SPEND};
use dpx_runtime::{default_threads, ordered_parallel_map_catch, CancelToken};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

/// A service-level failure: I/O on the request/response streams. (Hostile
/// request lines and per-request execution failures are *data*, not errors —
/// they become typed rejects and `"ok": false` response lines.)
#[derive(Debug)]
pub enum ServeError {
    /// Reading requests or writing responses failed.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The kind is rendered explicitly: recovery-path failures must
            // keep `NotFound` vs `PermissionDenied` (etc.) distinguishable in
            // logs even after the error is flattened to a string.
            ServeError::Io(e) => write!(f, "io error ({:?}): {e}", e.kind()),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Reads a JSONL request stream **leniently**: hostile lines reject
/// individually instead of failing the batch, and the read is byte-level so
/// even a line that is not valid UTF-8 becomes a typed [`WireReject`]
/// (`reader.lines()` would abort the whole stream with an `io::Error`
/// there). Blank lines and `#` comments are skipped; real I/O failures
/// still abort. Request ids must be unique within the stream: ids key the
/// sorted response stream and the durable ledger's resume-by-id logic.
///
/// Classification per line, in order:
/// * invalid UTF-8, malformed JSON, or ill-typed fields → reject with class
///   `bad_line` (id echoed when one was parseable);
/// * a decodable request whose ε split is non-finite or negative → reject
///   with class `invalid_epsilon`, id and dataset echoed;
/// * a decodable request re-using an id claimed earlier in the stream → the
///   **later** line rejects with class `duplicate_id` (the first claim
///   executes; a replayed id must never execute twice);
/// * everything else → an [`ExplainRequest`].
///
/// Every input line is accounted for in exactly one of the two returned
/// vectors — a hostile line is never silently dropped.
pub fn parse_requests_lenient<R: BufRead>(
    mut reader: R,
) -> Result<(Vec<ExplainRequest>, Vec<WireReject>), ServeError> {
    let mut requests = Vec::new();
    let mut rejects = Vec::new();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut raw = Vec::new();
    let mut line_no = 0usize;
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        line_no += 1;
        if raw.last() == Some(&b'\n') {
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
        }
        let Ok(text) = std::str::from_utf8(&raw) else {
            rejects.push(WireReject {
                line: line_no,
                ..WireReject::unparseable("request line is not valid UTF-8")
            });
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match ExplainRequest::classify_json_line(trimmed) {
            Ok(req) => {
                if let Some(first) = seen.insert(req.id, line_no) {
                    seen.insert(req.id, first); // the first claim keeps the id
                    rejects.push(WireReject {
                        line: line_no,
                        id: Some(req.id),
                        dataset: Some(req.dataset),
                        message: format!(
                            "duplicate request id {} (first used on line {first})",
                            req.id
                        ),
                        reason: reject_reason::DUPLICATE_ID,
                    });
                } else {
                    requests.push(req);
                }
            }
            Err(mut reject) => {
                reject.line = line_no;
                rejects.push(reject);
            }
        }
    }
    Ok((requests, rejects))
}

/// Renders a [`WireReject`] as the error response line answering it — `None`
/// when the line declared no id (there is nothing to key the response on;
/// the caller must surface it another way). The response matches the
/// `budget_exceeded` shape: the offending id echoed, the machine-readable
/// class in `reason`, and — for rejects naming a capped dataset — the
/// dataset's `eps_remaining` at synthesis time. Like every
/// accounting-failure line, the headroom reading depends on what was spent
/// before synthesis (recovered spend on a resume), so hostile lines are
/// answered deterministically only up to that documented caveat.
pub fn reject_response(reject: &WireReject, registry: &DatasetRegistry) -> Option<ExplainResponse> {
    let id = reject.id?;
    let mut response =
        ExplainResponse::error(id, reject.message.clone()).with_reason(reject.reason);
    if let Some(remaining) = reject
        .dataset
        .as_deref()
        .and_then(|dataset| registry.get(dataset))
        .and_then(|entry| entry.accountant().remaining())
    {
        response = response.with_eps_remaining(remaining);
    }
    Some(response)
}

/// Machine-readable failure classes attached to error responses.
pub mod reason {
    /// The request's deadline expired at a stage boundary.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The dataset's ε cap could not absorb the request.
    pub const BUDGET_EXCEEDED: &str = "budget_exceeded";
    /// The durable ledger could not persist the grant.
    pub const LEDGER_WRITE: &str = "ledger_write";
    /// The daemon has stopped admission (shutdown requested / transport
    /// closed); the request was turned away before queuing, at zero ε.
    pub const DRAINING: &str = "draining";
    /// A daemon control op (`stats` / `shutdown`) reached a one-shot batch,
    /// which has no daemon state to answer it with.
    pub const UNSUPPORTED_OP: &str = "unsupported_op";
}

/// Batch-level execution options: the deadline default and the resume sets.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Default per-request deadline in milliseconds, used by requests that
    /// carry no `deadline_ms` of their own. (A per-request bound, not a
    /// whole-batch wall clock: batch-relative deadlines would make which
    /// requests time out depend on scheduling.)
    pub deadline_ms: Option<u64>,
    /// Request ids whose ε is already reserved in a recovered ledger: the
    /// spend step is skipped (re-spending would double-charge the cap) and
    /// execution proceeds — the pipeline is deterministic, so re-running a
    /// granted request reproduces the crashed run's exact response.
    pub granted: HashSet<u64>,
}

/// A typed per-request failure: the human-readable message plus the optional
/// machine-readable class (see [`reason`]).
struct ServeFailure {
    message: String,
    reason: Option<String>,
}

impl ServeFailure {
    fn plain(message: impl Into<String>) -> Self {
        ServeFailure {
            message: message.into(),
            reason: None,
        }
    }
}

/// A stage tap: handed every [`StageEvent`] the pipeline reports for a
/// served request, in stage order, before the response is built.
pub type StageTap = Arc<dyn Fn(&StageEvent) + Send + Sync>;

/// The explanation service: a registry, a worker-pool width, and the
/// settings fixed when the service is built — the [`BatchOptions`], the
/// histogram mechanism (default [`GeometricHistogram`]) and an optional
/// [`StageTap`].
pub struct ExplainService<M = GeometricHistogram> {
    registry: Arc<DatasetRegistry>,
    workers: usize,
    opts: BatchOptions,
    mechanism: M,
    tap: Option<StageTap>,
}

impl ExplainService {
    /// A service over `registry` with one worker per available core (capped
    /// later by the batch size), default options and the geometric
    /// histogram mechanism.
    pub fn new(registry: Arc<DatasetRegistry>) -> Self {
        ExplainService {
            registry,
            workers: default_threads(usize::MAX),
            opts: BatchOptions::default(),
            mechanism: GeometricHistogram,
            tap: None,
        }
    }
}

impl<M: HistogramMechanism + Sync> ExplainService<M> {
    /// Sets the worker-pool width (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the deadline default, the recovered-grant set and the
    /// checkpoint policy every request is served under.
    pub fn with_options(mut self, opts: BatchOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Swaps the histogram mechanism.
    pub fn with_mechanism<N: HistogramMechanism + Sync>(self, mechanism: N) -> ExplainService<N> {
        ExplainService {
            registry: self.registry,
            workers: self.workers,
            opts: self.opts,
            mechanism,
            tap: self.tap,
        }
    }

    /// Installs a stage tap. The resident daemon feeds its rolling metrics
    /// registry through this seam; the response bytes are identical with or
    /// without a tap.
    pub fn with_stage_tap(mut self, tap: StageTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// The worker-pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The registry this service serves from.
    pub fn registry(&self) -> &DatasetRegistry {
        &self.registry
    }

    /// Serves one request. Never panics on bad request *data* — lookup,
    /// validation, budget, and pipeline failures all come back as error
    /// responses.
    pub fn execute(&self, request: &ExplainRequest) -> ExplainResponse {
        if request.is_control() {
            // Control ops only make sense against a resident daemon; a
            // one-shot batch answers them with a typed error rather than
            // silently treating them as explains.
            let op = match request.op {
                RequestOp::Stats => "stats",
                _ => "shutdown",
            };
            return ExplainResponse::error(
                request.id,
                format!("op '{op}' is only served by the resident daemon (serve-daemon)"),
            )
            .with_reason(reason::UNSUPPORTED_OP);
        }
        if let RequestOp::Append { rows } = &request.op {
            // Appends touch no private mechanism: they validate the rows,
            // grow the dataset, and refresh cached counts incrementally.
            // No ε is spent and no deadline applies — the work is O(|delta|)
            // public bookkeeping, so re-running an append (e.g. on resume)
            // is always free and deterministic.
            return match self.registry.append_rows(&request.dataset, rows) {
                Ok(summary) => ExplainResponse::appended(request.id, summary),
                Err(message) => ExplainResponse::error(request.id, message),
            };
        }
        match self.try_execute(request) {
            Ok(served) => ExplainResponse::success(request.id, served),
            Err(failure) => {
                let mut response = ExplainResponse::error(request.id, failure.message);
                let accounting_failure = failure.reason.is_some();
                if let Some(reason) = failure.reason {
                    response = response.with_reason(reason);
                }
                // Headroom is only attached where the failure is about the
                // budget or its reservation (a typed reason: rejection,
                // ledger write, deadline with ε kept) — those lines are
                // admission-order dependent by nature and documented as
                // such. Plain validation errors never touch the accountant,
                // so attaching a live headroom reading there would leak
                // scheduling into an otherwise deterministic stream.
                if accounting_failure {
                    if let Some(remaining) = self
                        .registry
                        .get(&request.dataset)
                        .and_then(|entry| entry.accountant().remaining())
                    {
                        response = response.with_eps_remaining(remaining);
                    }
                }
                response
            }
        }
    }

    fn try_execute(&self, request: &ExplainRequest) -> Result<ServedExplanation, ServeFailure> {
        let entry = self
            .registry
            .get(&request.dataset)
            .ok_or_else(|| ServeFailure::plain(format!("unknown dataset '{}'", request.dataset)))?;
        if request.n_clusters == 0 {
            return Err(ServeFailure::plain("n_clusters must be positive"));
        }
        // Stage 2 indexes the k^n_clusters combinations with a u64; refuse a
        // space that does not fit here, before the grant, at zero ε.
        if u32::try_from(request.n_clusters)
            .ok()
            .and_then(|n| (request.k as u64).checked_pow(n))
            .is_none()
        {
            return Err(ServeFailure::plain(format!(
                "k^n_clusters = {}^{}: {}",
                request.k,
                request.n_clusters,
                DpError::CombinationSpaceOverflow
            )));
        }
        if request.cluster_by >= entry.data().schema().arity() {
            return Err(ServeFailure::plain(format!(
                "cluster_by {} out of range (dataset has {} attributes)",
                request.cluster_by,
                entry.data().schema().arity()
            )));
        }
        let total = Epsilon::new(request.total_epsilon())
            .map_err(|e| ServeFailure::plain(e.to_string()))?;
        // A request whose fields the engine would reject takes no grant. It
        // still runs: the engine memoizes its clustering's counts (ε-free),
        // then fails with this same validation error before any mechanism
        // draws noise, so the request spends nothing.
        let valid = request
            .config()
            .validate(entry.data().schema().arity())
            .is_ok();
        // The deadline token is minted BEFORE the spend so that it bounds the
        // whole serving path: time queued behind a group-commit batch, time
        // blocked on another request's in-flight counts build, and the
        // pipeline's stage boundaries. A request whose deadline expires
        // before its grant commits answers `deadline_exceeded` with NO ε
        // spent; once the grant is durable the ε stays spent, refund-free.
        let cancel = request
            .deadline_ms
            .or(self.opts.deadline_ms)
            .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));
        // An id that already holds a durable grant from a crashed run skips
        // the spend: its ε is reserved, so spending again would
        // double-charge the cap. Re-execution is free — the pipeline is a
        // pure function of the request, so the response equals the one the
        // crash destroyed.
        if valid && !self.opts.granted.contains(&request.id) {
            faultpoint::hit(SERVICE_PRE_SPEND);
            // The whole request budget is reserved in ONE atomic operation
            // before any private computation starts (durably so when the
            // dataset's accountant has a ledger attached). If the cap cannot
            // absorb it, the request is rejected with nothing recorded.
            entry
                .accountant()
                .try_spend_grant_cancellable(
                    request.id,
                    format!("request/{}", request.id),
                    total,
                    cancel.as_ref(),
                )
                .map_err(|e| match e {
                    DpError::BudgetExceeded { .. } => ServeFailure {
                        message: format!("budget rejected: {e}"),
                        reason: Some(reason::BUDGET_EXCEEDED.to_string()),
                    },
                    DpError::LedgerWrite { .. } => ServeFailure {
                        message: e.to_string(),
                        reason: Some(reason::LEDGER_WRITE.to_string()),
                    },
                    // Cancelled pre-spend (or withdrawn from the commit
                    // queue): nothing was appended and nothing charged, so
                    // this failure costs the caller no ε.
                    DpError::Cancelled { ref reason } => ServeFailure {
                        reason: Some(reason.clone()),
                        message: e.to_string(),
                    },
                    other => ServeFailure::plain(format!("budget rejected: {other}")),
                })?;
            faultpoint::hit(SERVICE_POST_SPEND);
        }
        // Record the clustering on the entry (appends refresh exactly the
        // clusterings that have been served) and open the context with the
        // entry's precomputed fingerprint: requests never re-scan the data
        // for a cache key, which matters once datasets grow by appends.
        entry.note_clustering(request.cluster_by, request.n_clusters);
        let labels = derive_labels(entry.data(), request.cluster_by, request.n_clusters);
        let mut ctx = ExplainContext::with_fingerprint(
            entry.data_arc(),
            entry.fingerprint(),
            request.seed,
            entry.cache(),
        );
        let mut engine = ExplainEngine::new(request.config());
        if let Some(token) = cancel {
            engine = engine.with_cancel(token);
        }
        let mut observer = CollectingObserver::new();
        let outcome = engine
            .explain_with_mechanism(
                &mut ctx,
                &labels,
                request.n_clusters,
                &self.mechanism,
                &mut observer,
            )
            .map_err(|e| match e {
                // The reserved ε is deliberately NOT refunded: the stages
                // that ran before the boundary poll have already released
                // noise, and a refund would turn the cap into a function of
                // wall-clock timing.
                DpError::Cancelled { ref reason } => ServeFailure {
                    reason: Some(reason.clone()),
                    message: e.to_string(),
                },
                other => ServeFailure::plain(other.to_string()),
            })?;
        let events = observer.events();
        if let Some(tap) = &self.tap {
            for event in events {
                tap(event);
            }
        }
        Ok(ServedExplanation::new(
            &outcome.explanation,
            outcome.accountant.spent(),
            events,
        ))
    }

    /// Serves a whole batch on the worker pool. Responses come back in
    /// request order; sort them by id for a canonical stream. A request that panics mid-pipeline (e.g. a faulty mechanism)
    /// yields an error response carrying the panic message; every other
    /// request is served normally.
    ///
    /// The optional sink is invoked by the worker *as each response is
    /// produced* (in completion order, under whatever lock the sink takes
    /// internally) so a crash mid-batch loses at most the in-flight responses
    /// — the crash-safe CLI uses it to append-and-flush each line before the
    /// batch finishes.
    /// Responses for requests that panicked are synthesized afterwards and
    /// passed to the sink too; the returned vector is in request order as
    /// always.
    ///
    /// Append requests are **ordering barriers**: an append replaces the
    /// dataset entry that later requests must observe, so the batch is
    /// served as explain segments on the worker pool with each append
    /// executed alone between them, in input order. Explains racing an
    /// append would make *which dataset version a request sees* depend on
    /// scheduling, breaking the byte-identical-for-any-worker-count
    /// guarantee.
    pub fn run_batch(
        &self,
        requests: Vec<ExplainRequest>,
        sink: Option<&(dyn Fn(&ExplainResponse) + Sync)>,
    ) -> Vec<ExplainResponse> {
        let mut responses = Vec::with_capacity(requests.len());
        let mut segment: Vec<ExplainRequest> = Vec::new();
        for request in requests {
            if request.is_append() {
                responses.extend(self.run_segment(std::mem::take(&mut segment), sink));
                responses.extend(self.run_segment(vec![request], sink));
            } else {
                segment.push(request);
            }
        }
        responses.extend(self.run_segment(segment, sink));
        responses
    }

    /// Runs one append-free (or single-append) slice of a batch on the pool.
    fn run_segment(
        &self,
        requests: Vec<ExplainRequest>,
        sink: Option<&(dyn Fn(&ExplainResponse) + Sync)>,
    ) -> Vec<ExplainResponse> {
        if requests.is_empty() {
            return Vec::new();
        }
        let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
        ordered_parallel_map_catch(requests, self.workers, |request| {
            let response = self.execute(request);
            if let Some(sink) = sink {
                sink(&response);
            }
            response
        })
        .into_iter()
        .zip(ids)
        .map(|(slot, id)| match slot {
            Ok(response) => response,
            Err(panic_message) => {
                let response =
                    ExplainResponse::error(id, format!("worker panicked: {panic_message}"));
                if let Some(sink) = sink {
                    sink(&response);
                }
                response
            }
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_data::synth::diabetes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn registry_with(name: &str, cap: Option<f64>) -> Arc<DatasetRegistry> {
        let mut rng = StdRng::seed_from_u64(11);
        let data = Arc::new(diabetes::spec(2).generate(600, &mut rng).data);
        let registry = Arc::new(DatasetRegistry::new());
        registry.register(name, data, cap.map(|c| Epsilon::new(c).unwrap()));
        registry
    }

    #[test]
    fn serves_a_minimal_request() {
        let service = ExplainService::new(registry_with("default", None)).with_workers(2);
        let response = service.execute(&ExplainRequest::new(1));
        let served = response.explanation().expect("request served").clone();
        assert_eq!(served.attributes.len(), 2);
        assert_eq!(served.stages.len(), 4);
        assert!((served.eps_spent - 0.3).abs() < 1e-9);
        assert_eq!(served.clusters.len(), 2);
    }

    #[test]
    fn unknown_dataset_and_bad_fields_become_error_responses() {
        let registry = registry_with("default", None);
        let service = ExplainService::new(Arc::clone(&registry));
        let mut req = ExplainRequest::new(1);
        req.dataset = "elsewhere".to_string();
        let response = service.execute(&req);
        assert!(response.outcome.unwrap_err().contains("unknown dataset"));

        let mut req = ExplainRequest::new(2);
        req.cluster_by = 999;
        assert!(service
            .execute(&req)
            .outcome
            .unwrap_err()
            .contains("out of range"));

        let mut req = ExplainRequest::new(3);
        req.n_clusters = 0;
        assert!(service
            .execute(&req)
            .outcome
            .unwrap_err()
            .contains("positive"));

        // Requests bound to fail take no grant, so they spend zero ε: 3^41
        // Stage-2 combinations overflow u64, and the engine would reject
        // each of the other fields (a selection-only config cannot drive the
        // full pipeline).
        let spent = registry.get("default").unwrap().accountant().spent();
        let bad = [
            ExplainRequest {
                n_clusters: 41,
                ..ExplainRequest::new(4)
            },
            ExplainRequest {
                k: 0,
                ..ExplainRequest::new(5)
            },
            ExplainRequest {
                k: 99,
                ..ExplainRequest::new(6)
            },
            ExplainRequest {
                eps_cand: 0.0,
                ..ExplainRequest::new(7)
            },
            ExplainRequest {
                eps_comb: -0.05,
                ..ExplainRequest::new(8)
            },
            ExplainRequest {
                eps_hist: None,
                ..ExplainRequest::new(9)
            },
        ];
        let expected = [
            "exceeds u64",
            "requested top-0 from only",
            "requested top-99 from only",
            "epsilon must be finite and > 0, got 0",
            "got -0.05",
            "got NaN",
        ];
        for (req, expected) in bad.iter().zip(expected) {
            let err = service.execute(req).outcome.unwrap_err();
            assert!(err.contains(expected), "request {} got: {err}", req.id);
            assert_eq!(
                registry.get("default").unwrap().accountant().spent(),
                spent,
                "request {} spent ε",
                req.id
            );
        }
    }

    #[test]
    fn budget_cap_rejects_with_nothing_recorded() {
        let registry = registry_with("default", Some(0.5));
        let service = ExplainService::new(Arc::clone(&registry));
        let entry = registry.get("default").unwrap();
        // 0.3 each: first fits, second would breach 0.5.
        assert!(service.execute(&ExplainRequest::new(1)).is_ok());
        let rejected = service.execute(&ExplainRequest::new(2));
        assert!(rejected.outcome.unwrap_err().contains("budget rejected"));
        assert_eq!(entry.accountant().num_charges(), 1);
        assert!(entry.accountant().spent() <= 0.5 + 1e-9);
    }

    #[test]
    fn batch_responses_match_serial_execution() {
        let registry = registry_with("default", None);
        let serial = ExplainService::new(Arc::clone(&registry)).with_workers(1);
        let expected: Vec<String> = (0..6)
            .map(|id| serial.execute(&ExplainRequest::new(id)).to_json_line())
            .collect();
        // A fresh registry per worker count: the accountant must see the same
        // spends, and the cache starts cold each time.
        for workers in [1, 3, 8] {
            let registry = registry_with("default", None);
            let service = ExplainService::new(registry).with_workers(workers);
            let requests: Vec<ExplainRequest> = (0..6).map(ExplainRequest::new).collect();
            let got: Vec<String> = service
                .run_batch(requests, None)
                .iter()
                .map(ExplainResponse::to_json_line)
                .collect();
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn parse_skips_blanks_and_flags_bad_lines() {
        let text = "\n# comment\n{\"id\": 1}\n{\"id\": 2, \"seed\": 5}\nnot json\n";
        let (requests, rejects) = parse_requests_lenient(text.as_bytes()).unwrap();
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[1].seed, 5);
        assert_eq!(rejects.len(), 1);
        assert_eq!(rejects[0].line, 5);
    }

    #[test]
    fn parse_rejects_duplicate_ids() {
        let text = "{\"id\": 1}\n\n{\"id\": 2}\n{\"id\": 1}\n";
        let (requests, rejects) = parse_requests_lenient(text.as_bytes()).unwrap();
        assert_eq!(requests.len(), 2);
        assert_eq!(rejects[0].line, 4);
        let message = &rejects[0].message;
        assert!(message.contains("duplicate request id 1"), "{message}");
        assert!(message.contains("line 1"), "{message}");
    }

    #[test]
    fn io_error_display_preserves_kind() {
        let err = ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            "ledger file",
        ));
        let text = err.to_string();
        assert!(text.contains("PermissionDenied"), "{text}");
        assert!(text.contains("ledger file"), "{text}");
    }

    #[test]
    fn zero_deadline_times_out_before_spending_any_epsilon() {
        let registry = registry_with("default", Some(1.0));
        let service = ExplainService::new(Arc::clone(&registry)).with_workers(1);
        let mut req = ExplainRequest::new(1);
        req.deadline_ms = Some(0);
        let response = service.execute(&req);
        assert_eq!(response.reason.as_deref(), Some("deadline_exceeded"));
        let err = response.outcome.unwrap_err();
        assert!(err.contains("deadline_exceeded"), "{err}");
        // The token is checked before the grant commits: a request that is
        // already over its deadline is turned away with NO ε spent — the cap
        // keeps its full headroom for requests that can still be served.
        let entry = registry.get("default").unwrap();
        assert_eq!(entry.accountant().spent(), 0.0);
        assert_eq!(entry.accountant().num_charges(), 0);
        assert!((response.eps_remaining.unwrap() - 1.0).abs() < 1e-12);

        // The batch-level default applies to requests without their own.
        let service = service.with_options(BatchOptions {
            deadline_ms: Some(0),
            ..Default::default()
        });
        let response = service.execute(&ExplainRequest::new(2));
        assert_eq!(response.reason.as_deref(), Some("deadline_exceeded"));
        assert_eq!(entry.accountant().spent(), 0.0, "still nothing spent");
    }

    #[test]
    fn budget_rejection_carries_reason_and_headroom() {
        let registry = registry_with("default", Some(0.5));
        let service = ExplainService::new(Arc::clone(&registry)).with_workers(1);
        assert!(service.execute(&ExplainRequest::new(1)).is_ok());
        let rejected = service.execute(&ExplainRequest::new(2));
        assert_eq!(rejected.reason.as_deref(), Some("budget_exceeded"));
        assert!((rejected.eps_remaining.unwrap() - 0.2).abs() < 1e-12);
        // Uncapped datasets attach no headroom (it would be meaningless).
        let open = ExplainService::new(registry_with("default", None));
        let mut req = ExplainRequest::new(3);
        req.n_clusters = 0;
        assert_eq!(open.execute(&req).eps_remaining, None);
    }

    #[test]
    fn granted_requests_skip_the_spend_and_reproduce_the_response() {
        let registry = registry_with("default", Some(0.3));
        let service = ExplainService::new(Arc::clone(&registry)).with_workers(1);
        let baseline = service.execute(&ExplainRequest::new(7)).to_json_line();
        // The cap is now exhausted; a fresh spend for id 7 would be rejected,
        // but a granted id skips the spend and reproduces the response.
        let replay = service
            .with_options(BatchOptions {
                granted: [7].into_iter().collect(),
                ..Default::default()
            })
            .execute(&ExplainRequest::new(7))
            .to_json_line();
        assert_eq!(replay, baseline);
        let entry = registry.get("default").unwrap();
        assert_eq!(entry.accountant().num_charges(), 1, "no second charge");
    }

    #[test]
    fn streamed_batch_sinks_every_response() {
        let registry = registry_with("default", None);
        let service = ExplainService::new(registry).with_workers(3);
        let requests: Vec<ExplainRequest> = (0..5).map(ExplainRequest::new).collect();
        let seen = std::sync::Mutex::new(Vec::new());
        let sink = |r: &ExplainResponse| seen.lock().unwrap().push(r.id);
        let responses = service.run_batch(requests, Some(&sink));
        let mut sunk = seen.into_inner().unwrap();
        sunk.sort_unstable();
        assert_eq!(sunk, (0..5).collect::<Vec<u64>>());
        assert_eq!(responses.len(), 5);
    }

    #[test]
    fn derive_labels_is_total_and_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = diabetes::spec(2).generate(100, &mut rng).data;
        let labels = derive_labels(&data, 1, 3);
        assert_eq!(labels.len(), 100);
        assert!(labels.iter().all(|&l| l < 3));
    }

    fn append_request(id: u64, rows: Vec<Vec<u32>>) -> ExplainRequest {
        let mut req = ExplainRequest::new(id);
        req.op = RequestOp::Append { rows };
        req
    }

    fn sample_rows(registry: &DatasetRegistry, n: usize) -> Vec<Vec<u32>> {
        let entry = registry.get("default").unwrap();
        let data = entry.data();
        (0..n)
            .map(|r| {
                (0..data.schema().arity())
                    .map(|a| data.column(a)[r])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn append_requests_grow_the_dataset_and_spend_no_epsilon() {
        let registry = registry_with("default", Some(0.3));
        let service = ExplainService::new(Arc::clone(&registry)).with_workers(2);
        let rows = sample_rows(&registry, 3);
        let response = service.execute(&append_request(1, rows));
        let summary = *response.append().expect("append served");
        assert_eq!(summary.appended, 3);
        assert_eq!(summary.total_rows, 603);
        assert_eq!(registry.get("default").unwrap().data().n_rows(), 603);
        assert_eq!(
            registry.get("default").unwrap().accountant().num_charges(),
            0,
            "appends are free"
        );
        // Bad rows and unknown datasets come back as error responses.
        let response = service.execute(&append_request(2, vec![vec![1]]));
        let err = response.outcome.unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let mut req = append_request(3, vec![]);
        req.dataset = "elsewhere".to_string();
        let response = service.execute(&req);
        assert!(response.outcome.unwrap_err().contains("unknown dataset"));
    }

    #[test]
    fn batch_with_appends_is_deterministic_across_worker_counts() {
        let build_requests = |registry: &DatasetRegistry| {
            let rows = sample_rows(registry, 5);
            vec![
                ExplainRequest::new(0),
                ExplainRequest::new(1),
                append_request(2, rows.clone()),
                ExplainRequest::new(3),
                append_request(4, rows),
                ExplainRequest::new(5),
            ]
        };
        let registry = registry_with("default", None);
        let serial = ExplainService::new(Arc::clone(&registry)).with_workers(1);
        let expected: Vec<String> = serial
            .run_batch(build_requests(&registry), None)
            .iter()
            .map(ExplainResponse::to_json_line)
            .collect();
        assert!(expected[2].contains("\"op\":\"append\""), "{}", expected[2]);
        for workers in [2, 3, 8] {
            let registry = registry_with("default", None);
            let service = ExplainService::new(Arc::clone(&registry)).with_workers(workers);
            let got: Vec<String> = service
                .run_batch(build_requests(&registry), None)
                .iter()
                .map(ExplainResponse::to_json_line)
                .collect();
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn explains_after_an_append_observe_the_grown_dataset() {
        let registry = registry_with("default", None);
        let service = ExplainService::new(Arc::clone(&registry)).with_workers(3);
        let rows = sample_rows(&registry, 7);
        let responses = service.run_batch(
            vec![
                ExplainRequest::new(0),
                append_request(1, rows),
                ExplainRequest::new(2),
            ],
            None,
        );
        assert!(responses.iter().all(ExplainResponse::is_ok));
        assert_eq!(responses[1].append().unwrap().total_rows, 607);
        // The post-append explain ran against the grown dataset: its count
        // tables (and so its released stage metrics) cover 607 rows, and a
        // re-run against the final registry state reproduces it exactly.
        let replay = service.execute(&ExplainRequest::new(2));
        assert_eq!(replay.to_json_line(), responses[2].to_json_line());
        assert_eq!(registry.get("default").unwrap().data().n_rows(), 607);
    }
}
