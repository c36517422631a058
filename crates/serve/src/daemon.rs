//! The resident explanation daemon: admission control, per-tenant
//! backpressure, and graceful drain over the batch service.
//!
//! `ExplainService` serves one batch and exits; an interactive system needs
//! a process that *stays up*. [`Daemon`] wraps the service in a long-lived
//! request pipeline:
//!
//! ```text
//!   transport line ──► admit ──► queue (per-tenant, bounded, WRR)
//!                        │                      │
//!                        │ typed reject         ▼ worker pop
//!                        ▼                    spend ──► execute ──► respond
//!                   reply sink ◄──────────────────────────────────────┘
//! ```
//!
//! **Admission** rejects at enqueue time, before any ε is touched:
//!
//! * `budget_exceeded` + `eps_remaining` — the dataset's shard cannot cover
//!   the request's total ε (the authoritative atomic check still happens at
//!   spend time; admission just refuses work that is already hopeless);
//! * `deadline_exceeded` — the request's deadline is infeasible behind the
//!   current queue given the rolling per-request latency estimate;
//! * `overloaded` + `retry_after_ms` — the tenant's bounded queue is full
//!   ([`BoundedTenantQueue`]); the hint prices the wait from queue depth ×
//!   rolling latency;
//! * `draining` — shutdown has begun and admission is closed;
//! * `duplicate_id` — the id was already admitted this process lifetime
//!   (ids are the idempotency key; admission rejects do **not** consume the
//!   id, so a backpressured caller can retry the same request).
//!
//! **Drain** (`{"op": "shutdown"}` or transport EOF — the workspace forbids
//! `unsafe`, so a SIGTERM pipe is out of reach; `kill -TERM` a daemon via a
//! wrapper that closes stdin, which is semantically identical) stops
//! admission, lets workers finish the queue under the drain deadline —
//! queued-but-unstarted work past the deadline is *shed* at zero ε with
//! reason `deadline_exceeded`, and in-flight work has its
//! [`CancelToken`](dpx_runtime::cancel::CancelToken)
//! deadline capped by the time remaining — then checkpoints every shard
//! ledger and reports a [`DrainSummary`]. A kill anywhere in that sequence
//! is covered by the crash matrix: the WALs recover the exact spend and a
//! `--resume` run converges on byte-identical output.
//!
//! **Replies** are pushed, not returned: every admitted or rejected request
//! eventually invokes the [`ReplySink`] exactly once with a
//! [`DaemonReply::Response`]; control traffic (`stats`/`shutdown` acks,
//! id-less bad lines) arrives as [`DaemonReply::Control`] and must never be
//! written to the durable response stream — stats snapshots are
//! scheduling-dependent by nature, and keeping them off the canonical
//! stream is what preserves byte-identical resume.

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::registry::DatasetRegistry;
use crate::request::{reject_reason, ExplainRequest, ExplainResponse, RequestOp};
use crate::service::{reason, reject_response, BatchOptions, ExplainService};
use dpclustx::engine::StageEvent;
use dpx_runtime::faultpoint::{self, DAEMON_PRE_DRAIN_CHECKPOINT};
use dpx_runtime::queue::{BoundedTenantQueue, PushError};
use std::collections::HashSet;
use std::io::{self, BufRead, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One reply from the daemon, classified for the transport.
#[derive(Debug)]
pub enum DaemonReply<'a> {
    /// A per-request response line (serve, deterministic error, or typed
    /// admission reject) — belongs on the durable response stream.
    Response(&'a ExplainResponse),
    /// A control line (stats snapshot, shutdown ack, id-less bad-line
    /// error) — transport only, never durable.
    Control(&'a Json),
}

/// Where daemon replies go. Invoked from admission (rejects, control acks)
/// and from worker threads (served responses), so it must be `Send + Sync`;
/// the daemon clones it into each queued job.
pub type ReplySink = Arc<dyn Fn(DaemonReply<'_>) + Send + Sync>;

/// What [`Daemon::handle_line`] decided about one transport line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading the transport.
    Continue,
    /// The line was a shutdown op: admission is closed, stop reading and
    /// run [`Daemon::drain_and_join`].
    ShutdownRequested,
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads executing dequeued requests.
    pub workers: usize,
    /// Per-tenant queue bound; a full lane answers `overloaded`.
    pub queue_capacity: usize,
    /// Wall-clock budget of the drain phase, measured from the moment
    /// admission closes. Queued work that has not started by then is shed.
    pub drain_deadline_ms: u64,
    /// Default per-request deadline for requests that carry none.
    pub deadline_ms: Option<u64>,
    /// Request ids holding durable grants from a recovered ledger (resume):
    /// execution skips their spend exactly like `BatchOptions::granted`.
    pub granted: HashSet<u64>,
    /// Latency-ring window of the metrics registry.
    pub metrics_window: usize,
    /// Periodically overwrite this file with the deterministic stats
    /// snapshot (and once more at drain).
    pub metrics_out: Option<PathBuf>,
    /// How many completed requests between `metrics_out` dumps.
    pub metrics_every: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            queue_capacity: 32,
            drain_deadline_ms: 10_000,
            deadline_ms: None,
            granted: HashSet::new(),
            metrics_window: 512,
            metrics_out: None,
            metrics_every: 64,
        }
    }
}

/// One admitted request waiting for a worker.
struct Job {
    request: ExplainRequest,
    reply: ReplySink,
    enqueued: Instant,
}

/// How the drain ended, for the operator's exit summary.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// What closed admission (`"shutdown op"` or `"transport closed"`).
    pub drain_reason: String,
    /// Requests served successfully over the daemon's lifetime.
    pub served: u64,
    /// Queued requests shed unstarted at the drain deadline (zero ε).
    pub shed: u64,
    /// Requests answered with an error (admission + execution), sheds
    /// included.
    pub rejected: u64,
    /// Shards whose WAL was checkpointed at drain.
    pub checkpointed: usize,
    /// Checkpoint failures, `dataset: error` per line (empty on a clean
    /// drain).
    pub checkpoint_errors: Vec<String>,
    /// Per-dataset `(name, spent, remaining)` at exit.
    pub datasets: Vec<(String, f64, Option<f64>)>,
    /// Accounting probe violations across all shards (must be empty).
    pub probe_violations: Vec<String>,
}

impl DrainSummary {
    /// Whether the drain left the process in a clean state.
    pub fn clean(&self) -> bool {
        self.checkpoint_errors.is_empty() && self.probe_violations.is_empty()
    }

    /// The human-readable exit summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "daemon drained ({}): served {}, rejected {}, shed {}\n",
            self.drain_reason, self.served, self.rejected, self.shed
        );
        for (name, spent, remaining) in &self.datasets {
            match remaining {
                Some(remaining) => out.push_str(&format!(
                    "  dataset {name}: spent {spent:.6}, remaining {remaining:.6}\n"
                )),
                None => out.push_str(&format!("  dataset {name}: spent {spent:.6} (uncapped)\n")),
            }
        }
        out.push_str(&format!(
            "  checkpointed {} shard ledger(s)\n",
            self.checkpointed
        ));
        for error in &self.checkpoint_errors {
            out.push_str(&format!("  checkpoint FAILED: {error}\n"));
        }
        out.push_str(&format!(
            "  probe violations: {}\n",
            self.probe_violations.len()
        ));
        for violation in &self.probe_violations {
            out.push_str(&format!("  probe violation: {violation}\n"));
        }
        out
    }
}

/// The resident daemon (see the module docs).
pub struct Daemon {
    service: ExplainService,
    queue: BoundedTenantQueue<Job>,
    metrics: Arc<MetricsRegistry>,
    config: DaemonConfig,
    draining: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    drain_reason: Mutex<String>,
    /// Ids admitted this process lifetime (the idempotency key space).
    seen: Mutex<HashSet<u64>>,
    /// Completed requests (served + rejected), for `metrics_every` pacing.
    completed: AtomicU64,
}

impl Daemon {
    /// A daemon serving `registry` under `config`. Each shard's ledger
    /// policy is the one it was opened with (see [`crate::ShardConfig`]).
    pub fn new(registry: Arc<DatasetRegistry>, config: DaemonConfig) -> Arc<Self> {
        let workers = config.workers.max(1);
        let metrics = Arc::new(MetricsRegistry::new(config.metrics_window));
        let tap = Arc::clone(&metrics);
        let service = ExplainService::new(Arc::clone(&registry))
            .with_workers(workers)
            .with_options(BatchOptions {
                deadline_ms: config.deadline_ms,
                granted: config.granted.clone(),
            })
            .with_stage_tap(Arc::new(move |event: &StageEvent| tap.observe_stage(event)));
        Arc::new(Daemon {
            service,
            queue: BoundedTenantQueue::new(config.queue_capacity),
            metrics,
            config: DaemonConfig { workers, ..config },
            draining: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            drain_reason: Mutex::new(String::new()),
            seen: Mutex::new(HashSet::new()),
            completed: AtomicU64::new(0),
        })
    }

    /// The registry this daemon serves from.
    pub fn registry(&self) -> &DatasetRegistry {
        self.service.registry()
    }

    /// The rolling metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Whether admission is closed.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Spawns the worker pool. Threads exit once the queue is closed and
    /// fully drained; hand the handles to [`Self::drain_and_join`].
    pub fn start(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        (0..self.config.workers)
            .map(|_| {
                let daemon = Arc::clone(self);
                std::thread::spawn(move || daemon.worker_loop())
            })
            .collect()
    }

    fn lock_seen(&self) -> std::sync::MutexGuard<'_, HashSet<u64>> {
        self.seen.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn drain_deadline_instant(&self) -> Option<Instant> {
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Handles one transport line: classify, answer control ops, run
    /// admission, enqueue. Every line with a parseable id is answered
    /// exactly once through `reply`.
    pub fn handle_line(&self, line: &str, reply: &ReplySink) -> LineOutcome {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return LineOutcome::Continue;
        }
        match ExplainRequest::classify_json_line(trimmed) {
            Ok(request) => self.handle_request(request, reply),
            Err(reject) => {
                self.metrics.record_reject(reject.reason);
                self.completed.fetch_add(1, Ordering::Relaxed);
                match reject_response(&reject, self.registry()) {
                    Some(response) => reply(DaemonReply::Response(&response)),
                    None => {
                        // No id to answer on the response stream: surface the
                        // reject on the transport so the line is never
                        // silently dropped.
                        let control = Json::object()
                            .field("ok", false)
                            .field("error", reject.message.as_str())
                            .field("reason", reject.reason);
                        reply(DaemonReply::Control(&control));
                    }
                }
                LineOutcome::Continue
            }
        }
    }

    /// [`Self::handle_line`] after classification — the entry point for
    /// in-process callers (the abuse battery drives this directly).
    pub fn handle_request(&self, request: ExplainRequest, reply: &ReplySink) -> LineOutcome {
        match request.op {
            RequestOp::Stats => {
                let ack = Json::object()
                    .field("id", request.id)
                    .field("ok", true)
                    .field("op", "stats")
                    .field("stats", self.stats_json());
                reply(DaemonReply::Control(&ack));
                return LineOutcome::Continue;
            }
            RequestOp::Shutdown => {
                self.begin_drain("shutdown op");
                let ack = Json::object()
                    .field("id", request.id)
                    .field("ok", true)
                    .field("op", "shutdown")
                    .field("draining", true);
                reply(DaemonReply::Control(&ack));
                return LineOutcome::ShutdownRequested;
            }
            RequestOp::Explain | RequestOp::Append { .. } => {}
        }
        if let Some(response) = self.admission_reject(&request) {
            let class = response.reason.clone().unwrap_or_default();
            self.metrics.record_reject(&class);
            self.completed.fetch_add(1, Ordering::Relaxed);
            reply(DaemonReply::Response(&response));
            return LineOutcome::Continue;
        }
        let id = request.id;
        let tenant = request.dataset.clone();
        let job = Job {
            request,
            reply: Arc::clone(reply),
            enqueued: Instant::now(),
        };
        match self.queue.push(&tenant, job) {
            Ok(_) => {
                self.metrics.set_queue_depth(self.queue.len());
            }
            Err(error) => {
                // The push was refused, so the id was not consumed: the
                // caller may retry the identical request after the hint.
                self.lock_seen().remove(&id);
                let response = match error {
                    PushError::Full { depth, capacity } => {
                        let rolling = self.metrics.rolling_request_ms().max(1.0);
                        let retry_after =
                            ((depth as f64 / self.config.workers as f64) * rolling).ceil() as u64;
                        self.metrics.record_reject(reject_reason::OVERLOADED);
                        ExplainResponse::error(
                            id,
                            format!("tenant '{tenant}' queue is full ({depth}/{capacity} queued)"),
                        )
                        .with_reason(reject_reason::OVERLOADED)
                        .with_retry_after_ms(retry_after.max(1))
                    }
                    PushError::Closed => {
                        self.metrics.record_reject(reason::DRAINING);
                        ExplainResponse::error(id, "daemon is draining; admission is closed")
                            .with_reason(reason::DRAINING)
                    }
                };
                self.completed.fetch_add(1, Ordering::Relaxed);
                reply(DaemonReply::Response(&response));
            }
        }
        LineOutcome::Continue
    }

    /// The admission decision for an explain/append request: `Some(reject)`
    /// to refuse before queuing (no ε touched, id not consumed), `None` to
    /// admit. Queue-full is decided by the push itself.
    fn admission_reject(&self, request: &ExplainRequest) -> Option<ExplainResponse> {
        if self.is_draining() {
            return Some(
                ExplainResponse::error(request.id, "daemon is draining; admission is closed")
                    .with_reason(reason::DRAINING),
            );
        }
        if !self.lock_seen().insert(request.id) {
            return Some(
                ExplainResponse::error(
                    request.id,
                    format!("duplicate request id {} (already admitted)", request.id),
                )
                .with_reason(reject_reason::DUPLICATE_ID),
            );
        }
        // From here on a reject must release the id again.
        let release = |response: ExplainResponse| {
            self.lock_seen().remove(&request.id);
            Some(response)
        };
        if request.is_append() {
            // Appends spend no ε and carry no deadline: nothing to admit on.
            return None;
        }
        // Budget feasibility against the shard's live headroom. Recovered
        // grants (resume) already hold their ε — re-checking would refuse
        // work that is already paid for.
        if !self.config.granted.contains(&request.id) {
            if let Some(remaining) = self
                .registry()
                .get(&request.dataset)
                .and_then(|entry| entry.accountant().remaining())
            {
                let total = request.total_epsilon();
                if total > remaining {
                    return release(
                        ExplainResponse::error(
                            request.id,
                            format!(
                                "admission rejected: request ε {total:.6} exceeds dataset \
                                 headroom {remaining:.6}"
                            ),
                        )
                        .with_reason(reason::BUDGET_EXCEEDED)
                        .with_eps_remaining(remaining),
                    );
                }
            }
        }
        // Deadline feasibility behind the current queue, priced with the
        // rolling per-request latency (skipped before the first completion —
        // there is no estimate to price with).
        if let Some(deadline_ms) = request.deadline_ms.or(self.config.deadline_ms) {
            let rolling = self.metrics.rolling_request_ms();
            if rolling > 0.0 {
                let queued = self.queue.len();
                let est_wait_ms = (queued as f64 / self.config.workers as f64) * rolling;
                if est_wait_ms > deadline_ms as f64 {
                    return release(
                        ExplainResponse::error(
                            request.id,
                            format!(
                                "deadline {deadline_ms} ms infeasible: ~{est_wait_ms:.0} ms of \
                                 queued work ahead"
                            ),
                        )
                        .with_reason(reason::DEADLINE_EXCEEDED),
                    );
                }
            }
        }
        None
    }

    fn worker_loop(&self) {
        while let Some((_tenant, mut job)) = self.queue.pop_wait() {
            self.metrics.set_queue_depth(self.queue.len());
            let drain_deadline = self.drain_deadline_instant();
            if let Some(deadline) = drain_deadline {
                let now = Instant::now();
                if now >= deadline {
                    // Shed: queued but never started, so no ε was spent.
                    let response = ExplainResponse::error(
                        job.request.id,
                        "drain deadline passed before the request started",
                    )
                    .with_reason(reason::DEADLINE_EXCEEDED);
                    self.metrics.record_shed();
                    self.metrics.record_reject(reason::DEADLINE_EXCEEDED);
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    (job.reply)(DaemonReply::Response(&response));
                    continue;
                }
                // In-flight during drain: cap the request's cooperative
                // deadline by the drain time remaining, so the drain phase
                // ends when promised even if a request would have run long.
                let remaining_ms = (deadline - now).as_millis().max(1) as u64;
                job.request.deadline_ms = Some(
                    job.request
                        .deadline_ms
                        .or(self.config.deadline_ms)
                        .map_or(remaining_ms, |d| d.min(remaining_ms)),
                );
            }
            let response = self.service.execute(&job.request);
            let latency = job.enqueued.elapsed();
            if response.is_ok() {
                let eps_spent = response
                    .explanation()
                    .map_or(0.0, |served| served.eps_spent);
                self.metrics
                    .record_served(&job.request.dataset, latency, eps_spent);
            } else {
                let class = response.reason.as_deref().unwrap_or("other").to_string();
                self.metrics.record_reject(&class);
            }
            self.completed.fetch_add(1, Ordering::Relaxed);
            (job.reply)(DaemonReply::Response(&response));
            self.maybe_dump_metrics();
        }
    }

    /// Closes admission and starts the drain clock. Idempotent; the first
    /// reason wins.
    pub fn begin_drain(&self, why: &str) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner) =
            Some(Instant::now() + Duration::from_millis(self.config.drain_deadline_ms));
        *self
            .drain_reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = why.to_string();
        self.queue.close();
    }

    /// Drains the queue (closing admission first if the transport ended
    /// without a shutdown op), joins the workers, checkpoints every shard
    /// ledger, and reports the exit summary.
    pub fn drain_and_join(&self, workers: Vec<JoinHandle<()>>) -> DrainSummary {
        self.begin_drain("transport closed");
        for worker in workers {
            let _ = worker.join();
        }
        faultpoint::hit(DAEMON_PRE_DRAIN_CHECKPOINT);
        let shards = self.registry().shards();
        let mut checkpointed = 0usize;
        let mut checkpoint_errors = Vec::new();
        for name in shards.names() {
            if let Some(accountant) = shards.get(&name) {
                match accountant.checkpoint_now() {
                    Ok(()) => checkpointed += 1,
                    Err(error) => checkpoint_errors.push(format!("{name}: {error}")),
                }
            }
        }
        self.dump_metrics_now();
        let (served, shed, rejected) = self.metrics.totals();
        let datasets = self
            .registry()
            .names()
            .into_iter()
            .filter_map(|name| {
                self.registry().get(&name).map(|entry| {
                    let accountant = entry.accountant();
                    (name, accountant.spent(), accountant.remaining())
                })
            })
            .collect();
        DrainSummary {
            drain_reason: self
                .drain_reason
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            served,
            shed,
            rejected,
            checkpointed,
            checkpoint_errors,
            datasets,
            probe_violations: shards.probe_violations(),
        }
    }

    /// The deterministic stats snapshot (the `{"op": "stats"}` payload).
    pub fn stats_json(&self) -> Json {
        let registry = self.registry();
        self.metrics
            .snapshot_json(self.is_draining(), self.config.workers, &|name| {
                registry
                    .get(name)
                    .and_then(|entry| entry.accountant().remaining())
            })
    }

    fn maybe_dump_metrics(&self) {
        if self.config.metrics_out.is_none() {
            return;
        }
        let completed = self.completed.load(Ordering::Relaxed);
        if completed > 0 && completed.is_multiple_of(self.config.metrics_every.max(1)) {
            self.dump_metrics_now();
        }
    }

    fn dump_metrics_now(&self) {
        if let Some(path) = &self.config.metrics_out {
            let mut line = self.stats_json().render();
            line.push('\n');
            // Best effort: a failed dump must not take the daemon down.
            let _ = std::fs::write(path, line);
        }
    }
}

/// Reads JSONL request lines from `reader` until EOF or a shutdown op,
/// feeding each through [`Daemon::handle_line`]. Lines whose id is in
/// `skip_ids` (responses already kept from a resumed run) are skipped
/// without consuming the id. Invalid UTF-8 is answered as a `bad_line`
/// reject, like the batch parser.
pub fn serve_lines<R: BufRead>(
    daemon: &Daemon,
    mut reader: R,
    reply: &ReplySink,
    skip_ids: &HashSet<u64>,
) -> io::Result<()> {
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            return Ok(());
        }
        if raw.last() == Some(&b'\n') {
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
        }
        let Ok(text) = std::str::from_utf8(&raw) else {
            let control = Json::object()
                .field("ok", false)
                .field("error", "request line is not valid UTF-8")
                .field("reason", reject_reason::BAD_LINE);
            daemon.metrics().record_reject(reject_reason::BAD_LINE);
            reply(DaemonReply::Control(&control));
            continue;
        };
        if !skip_ids.is_empty() {
            if let Ok(request) = ExplainRequest::classify_json_line(text.trim()) {
                if !request.is_control() && skip_ids.contains(&request.id) {
                    continue;
                }
            }
        }
        if daemon.handle_line(text, reply) == LineOutcome::ShutdownRequested {
            return Ok(());
        }
    }
}

/// Serves the daemon over a Unix socket at `path` until some connection
/// sends `{"op": "shutdown"}`.
///
/// Each connection gets its own handler thread and its own reply stream:
/// every reply for a request admitted on that connection is written back to
/// it as one JSON line, and replies of the [`DaemonReply::Response`] class
/// are *also* forwarded to `durable` — the socket is a transport, the
/// durable sink is the canonical response stream, and control lines never
/// reach it. A connection closing only ends that connection; the daemon
/// keeps serving others. A pre-existing socket file at `path` is replaced.
pub fn serve_socket(daemon: &Daemon, path: &Path, durable: &ReplySink) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(error) if error.kind() == io::ErrorKind::NotFound => {}
        Err(error) => return Err(error),
    }
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    std::thread::scope(|scope| -> io::Result<()> {
        while !daemon.is_draining() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let durable = Arc::clone(durable);
                    scope.spawn(move || {
                        let _ = serve_connection(daemon, stream, &durable);
                    });
                }
                Err(error)
                    if error.kind() == io::ErrorKind::WouldBlock
                        || error.kind() == io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(error) => return Err(error),
            }
        }
        Ok(())
    })?;
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// One socket connection: read request lines, echo every reply back as a
/// JSON line, forward response-class replies to the durable sink.
fn serve_connection(daemon: &Daemon, stream: UnixStream, durable: &ReplySink) -> io::Result<()> {
    // Replies arrive asynchronously from worker threads, so the write half
    // is shared behind a mutex; a client that hung up just loses its echo.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let reply: ReplySink = {
        let writer = Arc::clone(&writer);
        let durable = Arc::clone(durable);
        Arc::new(move |inbound: DaemonReply<'_>| {
            let mut line = match &inbound {
                DaemonReply::Response(response) => response.to_json_line(),
                DaemonReply::Control(control) => control.render(),
            };
            line.push('\n');
            {
                let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = writer.write_all(line.as_bytes());
                let _ = writer.flush();
            }
            if matches!(inbound, DaemonReply::Response(_)) {
                durable(inbound);
            }
        })
    };

    let mut stream = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Drain every complete line currently buffered.
        while let Some(newline) = pending.iter().position(|&b| b == b'\n') {
            let mut raw: Vec<u8> = pending.drain(..=newline).collect();
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
            if handle_raw_line(daemon, &raw, &reply) == LineOutcome::ShutdownRequested {
                return Ok(());
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Connection EOF: a trailing unterminated line still counts.
                if !pending.is_empty()
                    && handle_raw_line(daemon, &pending, &reply) == LineOutcome::ShutdownRequested
                {
                    return Ok(());
                }
                return Ok(());
            }
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(error)
                if error.kind() == io::ErrorKind::WouldBlock
                    || error.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle poll: a *different* connection may have begun the
                // drain; this one must stop reading too.
                if daemon.is_draining() {
                    return Ok(());
                }
            }
            Err(error) => return Err(error),
        }
    }
}

/// Decodes one raw transport line (UTF-8 check included) and hands it to
/// [`Daemon::handle_line`].
fn handle_raw_line(daemon: &Daemon, raw: &[u8], reply: &ReplySink) -> LineOutcome {
    match std::str::from_utf8(raw) {
        Ok(text) => daemon.handle_line(text, reply),
        Err(_) => {
            let control = Json::object()
                .field("ok", false)
                .field("error", "request line is not valid UTF-8")
                .field("reason", reject_reason::BAD_LINE);
            daemon.metrics().record_reject(reject_reason::BAD_LINE);
            reply(DaemonReply::Control(&control));
            LineOutcome::Continue
        }
    }
}
