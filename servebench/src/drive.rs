//! Driving the resident daemon in process: set-up over a durable sharded
//! ledger, closed-loop clients feeding `Daemon::handle_line`, and drain.

use crate::stats::Span;
use dpx_data::Dataset;
use dpx_dp::budget::Epsilon;
use dpx_dp::GroupCommitPolicy;
use dpx_serve::{
    AccountantShards, Daemon, DaemonConfig, DaemonReply, DatasetRegistry, DrainSummary,
    ExplainRequest, ReplySink, ShardConfig,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Name every workload registers its dataset under (the wire default).
pub const DATASET: &str = "default";

/// How long a client waits for one reply before counting it missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// No id is expected (the client is between ops).
const NO_ID: u64 = u64::MAX;

/// The shard policy: a durable WAL with the group commit `BENCH_serve`
/// found best on this kind of filesystem, and a cap far above any run's
/// spend so that admission's budget check runs as in production.
pub fn shard_config() -> ShardConfig {
    ShardConfig {
        cap: Some(Epsilon::new(1e6).expect("positive cap")),
        checkpoint_every: None,
        group_commit: Some(GroupCommitPolicy {
            max_wait_us: 0,
            max_batch: 64,
        }),
    }
}

/// Whether request `id` records spans in a traced run. Even ids do; odd ids
/// run untraced beside them, which prices the tracing under the same load.
pub fn traced(id: u64) -> bool {
    id.is_multiple_of(2)
}

/// Nanoseconds since one fixed instant; spans of a run share it.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn now(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One op to send: its id, its wire line, and whether it is an append.
#[derive(Debug, Clone)]
pub struct Op {
    /// Request id.
    pub id: u64,
    /// The JSONL request line.
    pub line: String,
    /// Whether the op is an append (otherwise an explain).
    pub append: bool,
    /// The ε the request asks the ledger to grant (0 for appends).
    pub eps: f64,
    /// Whether the client keeps the explain's request and reply lines after
    /// the run (for byte comparisons); other explains drop them on receipt
    /// so that the benchmark's memory does not grow with the program's
    /// throughput. Appends always keep their rows.
    pub keep: bool,
}

impl Op {
    /// The op sending `request`.
    pub fn new(request: &ExplainRequest, keep: bool) -> Op {
        let append = request.is_append();
        Op {
            id: request.id,
            line: request.to_json_line(),
            append,
            eps: if append { 0.0 } else { request.total_epsilon() },
            keep: keep || append,
        }
    }
}

/// A reply as the sink saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The rendered line (`to_json_line` of the response, or the control
    /// object for an id-less reject); empty unless the op keeps it.
    pub line: String,
    /// The reply's `ok`.
    pub ok: bool,
    /// Whether the reply carries a typed reject `reason`.
    pub reason: bool,
    /// The reply's `eps_spent` (ok explains only).
    pub eps_spent: Option<f64>,
    /// Whether the daemon answered with a control line instead of a response.
    pub control: bool,
    /// Render start and end, clock ns.
    pub render: (u64, u64),
}

/// One op as the client saw it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// What was sent.
    pub op: Op,
    /// Before `handle_line`, clock ns.
    pub start: u64,
    /// After `handle_line` returned (admission and enqueue done), clock ns.
    pub admitted: u64,
    /// When the client had the reply, clock ns (`None`: never answered).
    pub done: Option<u64>,
    /// The reply.
    pub reply: Option<Reply>,
}

impl OpRecord {
    /// Client-perceived latency in ms, if answered.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|done| (done - self.start) as f64 / 1e6)
    }
}

/// The ops of one closed-loop phase and its wall time.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every op sent, in no particular order.
    pub ops: Vec<OpRecord>,
    /// When the first client started, clock ns.
    pub begin: u64,
    /// From the first send to the last reply, seconds.
    pub wall_s: f64,
    /// Spans of the traced ops.
    pub spans: Vec<Span>,
}

/// Set-up timings of one daemon.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// From handing over the dataset until the daemon is ready, seconds.
    pub total_s: f64,
    /// `AccountantShards::in_dir` plus `register_sharded` (which scans the
    /// data for its fingerprint), seconds.
    pub register_s: f64,
    /// The warm-up explains, seconds.
    pub warm_s: f64,
}

/// A running daemon over a fresh durable ledger directory.
pub struct Serving {
    /// The daemon.
    pub daemon: Arc<Daemon>,
    /// Its registry.
    pub registry: Arc<DatasetRegistry>,
    /// How long set-up took.
    pub setup: SetupTimes,
    /// The warm-up ops sent during set-up.
    pub warm: Phase,
    /// Counts-cache entries when set-up finished.
    pub cache_len_at_ready: usize,
    workers: Vec<JoinHandle<()>>,
    /// Replies no client was waiting for (must stay empty).
    strays: Arc<Mutex<Vec<String>>>,
}

impl Serving {
    /// Registers `data` on durable shards in `dir`, starts `workers` daemon
    /// workers, and sends `warm` through the daemon with as many clients.
    pub fn open(
        data: Arc<Dataset>,
        dir: &Path,
        workers: usize,
        warm: Vec<Op>,
        clock: Clock,
    ) -> Result<Serving, String> {
        let start = Instant::now();
        let shards = AccountantShards::in_dir(dir).map_err(|e| e.to_string())?;
        let registry = Arc::new(DatasetRegistry::with_shards(Arc::new(shards)));
        registry
            .register_sharded(DATASET, data, shard_config())
            .map_err(|e| e.to_string())?;
        let register_s = start.elapsed().as_secs_f64();
        let daemon = Daemon::new(
            Arc::clone(&registry),
            DaemonConfig {
                workers,
                ..DaemonConfig::default()
            },
        );
        let handles = daemon.start();
        let mut serving = Serving {
            daemon,
            registry,
            setup: SetupTimes::default(),
            warm: Phase::default(),
            cache_len_at_ready: 0,
            workers: handles,
            strays: Arc::default(),
        };
        let warm_start = Instant::now();
        serving.warm = serving.run_list(warm, workers, clock, false);
        serving.setup = SetupTimes {
            total_s: start.elapsed().as_secs_f64(),
            register_s,
            warm_s: warm_start.elapsed().as_secs_f64(),
        };
        serving.cache_len_at_ready = serving.cache_len();
        Ok(serving)
    }

    /// Counts-cache entries of the served dataset.
    pub fn cache_len(&self) -> usize {
        self.registry
            .get(DATASET)
            .map_or(0, |entry| entry.cache().len())
    }

    /// Sends a fixed list of ops with `clients` closed-loop clients.
    pub fn run_list(&self, ops: Vec<Op>, clients: usize, clock: Clock, trace: bool) -> Phase {
        let cursor = AtomicU64::new(0);
        self.run_clients(clients, clock, trace, &|_, _| {
            ops.get(cursor.fetch_add(1, Ordering::Relaxed) as usize)
                .cloned()
        })
    }

    /// Runs `clients` closed-loop clients. Client `c` asks `next(c, n)` for
    /// its `n`-th op and stops at `None`; each client sends one op, waits
    /// for its reply, and only then asks for the next. With `trace`, the
    /// ops [`traced`] picks record spans.
    pub fn run_clients(
        &self,
        clients: usize,
        clock: Clock,
        trace: bool,
        next: &(dyn Fn(usize, u64) -> Option<Op> + Sync),
    ) -> Phase {
        let spans = Mutex::new(Vec::new());
        let begin = clock.now();
        let ops: Vec<OpRecord> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let spans = &spans;
                    scope.spawn(move || self.client(c, clock, trace, next, spans))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let end = ops.iter().filter_map(|o| o.done).max().unwrap_or(begin);
        Phase {
            ops,
            begin,
            wall_s: (end - begin) as f64 / 1e9,
            spans: spans.into_inner().expect("span lock"),
        }
    }

    fn client(
        &self,
        c: usize,
        clock: Clock,
        trace: bool,
        next: &(dyn Fn(usize, u64) -> Option<Op> + Sync),
        spans: &Mutex<Vec<Span>>,
    ) -> Vec<OpRecord> {
        let (tx, rx) = mpsc::channel::<Reply>();
        let expected = Arc::new(AtomicU64::new(NO_ID));
        let sink: ReplySink = {
            let expected = Arc::clone(&expected);
            let strays = Arc::clone(&self.strays);
            Arc::new(move |reply: DaemonReply<'_>| {
                let (id, reply) = match reply {
                    DaemonReply::Response(response) => {
                        let r0 = clock.now();
                        let line = response.to_json_line();
                        let r1 = clock.now();
                        let reply = Reply {
                            line,
                            ok: response.is_ok(),
                            reason: response.reason.is_some(),
                            eps_spent: response.explanation().map(|served| served.eps_spent),
                            control: false,
                            render: (r0, r1),
                        };
                        (Some(response.id), reply)
                    }
                    DaemonReply::Control(json) => {
                        let reply = Reply {
                            line: json.render(),
                            ok: false,
                            reason: json.get("reason").is_some(),
                            eps_spent: None,
                            control: true,
                            render: (0, 0),
                        };
                        (None, reply)
                    }
                };
                // A response is delivered only to the client waiting for
                // exactly its id, and only once; a control line ends the
                // wait of whichever op is outstanding.
                let waiting = expected.load(Ordering::SeqCst);
                let claimed = waiting != NO_ID
                    && id.is_none_or(|id| id == waiting)
                    && expected
                        .compare_exchange(waiting, NO_ID, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok();
                if claimed {
                    let _ = tx.send(reply);
                } else {
                    strays
                        .lock()
                        .expect("stray lock")
                        .push(format!("unexpected reply {:?}: {}", id, reply.line));
                }
            })
        };
        let mut records = Vec::new();
        let mut n = 0;
        while let Some(op) = next(c, n) {
            n += 1;
            expected.store(op.id, Ordering::SeqCst);
            let start = clock.now();
            self.daemon.handle_line(&op.line, &sink);
            let admitted = clock.now();
            let mut reply = rx.recv_timeout(REPLY_TIMEOUT).ok();
            let done = reply.as_ref().map(|_| clock.now());
            let mut op = op;
            if !op.keep {
                op.line = String::new();
                if let Some(reply) = reply.as_mut() {
                    reply.line = String::new();
                }
            }
            if reply.is_none() {
                expected.store(NO_ID, Ordering::SeqCst);
            }
            let record = OpRecord {
                op,
                start,
                admitted,
                done,
                reply,
            };
            if trace && traced(record.op.id) {
                record_spans(&record, spans);
            }
            records.push(record);
        }
        records
    }

    /// Closes admission, drains, joins the workers and checkpoints the
    /// ledger. Returns the drain summary, the shard's spent ε, and every
    /// reply no client was waiting for.
    pub fn finish(self) -> (DrainSummary, f64, Vec<String>) {
        let summary = self.daemon.drain_and_join(self.workers);
        let spent = self
            .registry
            .get(DATASET)
            .map_or(f64::NAN, |entry| entry.accountant().spent());
        let strays = self.strays.lock().expect("stray lock").clone();
        (summary, spent, strays)
    }
}

/// Spans of one daemon-served op: the client-perceived request, admission
/// (`handle_line`), and the reply render in the sink.
fn record_spans(record: &OpRecord, spans: &Mutex<Vec<Span>>) {
    let (Some(done), Some(reply)) = (record.done, &record.reply) else {
        return;
    };
    let request = record.op.id;
    let mut spans = spans.lock().expect("span lock");
    let root = spans.len();
    spans.push(Span {
        name: "request",
        start: record.start,
        end: done,
        parent: None,
        request,
    });
    spans.push(Span {
        name: "daemon.admit",
        start: record.start,
        end: record.admitted,
        parent: Some(root),
        request,
    });
    if !reply.control {
        spans.push(Span {
            name: "request.render",
            start: reply.render.0,
            end: reply.render.1,
            parent: Some(root),
            request,
        });
    }
}
