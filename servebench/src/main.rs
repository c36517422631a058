//! Serving benchmark for DPClustX: drives the resident `dpx_serve::Daemon`
//! in process over a durable sharded ledger, with closed-loop clients (one
//! per core, against one daemon worker per core) feeding JSONL lines to
//! `Daemon::handle_line`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload warm-1m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with tracing off.
//! `--trace 1` serves the same workload with spans on every even request
//! id (odd ids stay untraced, which prices the tracing), then replays the
//! requests through the service's per-request sequence with a span per
//! layer, and reports the per-layer metrics. The last stdout line is the
//! result object; the line before it is the run's report (host record,
//! workload rationale, property shares, reconciliation).
//!
//! `BENCHMARK.json` gates on `warm-1m` and `cold-1m`. `small-append` runs
//! the same way, with its own checks, but is not gated: its figures follow
//! the build host's fsync and CPU weather (see the README).

mod checks;
mod drive;
mod host;
mod replay;
mod stats;
mod workload;

use checks::Failures;
use dpx_data::Dataset;
use dpx_dp::LedgerStats;
use dpx_serve::{AccountantShards, DatasetRegistry, ExplainRequest, ExplainService, Json};
use drive::{Clock, Op, OpRecord, Serving, SetupTimes, DATASET};
use replay::Replayed;
use stats::{median_or_zero, tail_percentile, Span, MIN_BEYOND, P99};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Kind, Workload, APPEND_EVERY, N_CLUSTERS};

/// Set-ups per run on workloads that keep one daemon; `setup_s` is their
/// median. The cheap 10^3-row set-up is repeated more to steady it.
const SETUPS_1M: usize = 3;
const SETUPS_SMALL: usize = 15;
/// Explains re-served by a fresh single-worker service per run.
const RESERVE_SAMPLES: usize = 8;
/// Beyond the first [`REPLAY_MAX`] ops, every this-many-th op keeps its
/// reply line, so re-serve samples spread over the whole run.
const KEEP_EVERY: u64 = 64;
/// Largest share of a replayed request its layers may leave unaccounted.
const RECONCILE_BOUND_PCT: f64 = 5.0;
/// 1,000-explain windows a `warm-1m` or `small-append` run fills at least,
/// so that `explain_p99_ms` (`stats::windowed_p99`) is a median of at least
/// three window p99s. A `cold-1m` explain costs ~80 ms, so a cold run fills
/// one window and its tail is the plain p99.
const TAIL_WINDOWS: usize = 3;
/// The end-to-end speed metrics are the best of this many consecutive
/// windows of a run's explains (a `cold-1m` round is one rate window): the
/// build host's shared disk and cores slow whole stretches of a run, and
/// the best window is what the code does when they do not.
const SPEED_WINDOWS: usize = 10;
/// Requests the traced replay serves at most.
const REPLAY_MAX: usize = 1000;
/// Labelings hashed after the replay to split the counts stage.
const KEY_SAMPLES: usize = 32;
/// Cache-hit probes replayed after a traced `cold-1m` run.
const HIT_PROBES: usize = 3;
/// Appends sent after the traced phase where the workload itself has
/// none. One is enough: at 10^6 rows with ~200 cached clusterings an
/// append takes seconds.
const APPEND_PROBES: usize = 1;
/// Rounds of a `cold-1m` run the traced replay serves again.
const COLD_REPLAY_ROUNDS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("servebench: {error}");
            eprintln!(
                "usage: servebench --workload <warm-1m|cold-1m|small-append> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let run_dir = out_dir.join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let result = Bench::new(&args, run_dir.clone()).and_then(|mut bench| bench.run());
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok((report, result)) => {
            println!("{}", report.render());
            println!("{}", result.render());
        }
        Err(error) => {
            eprintln!("servebench: {error}");
            std::process::exit(1);
        }
    }
}

/// One run's state.
struct Bench {
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    clients: usize,
    clock: Clock,
    dir: PathBuf,
    host: host::Host,
    data: Arc<Dataset>,
    append_batches: Vec<Vec<Vec<u32>>>,
    warm: Vec<usize>,
    next_id: u64,
    next_index: u64,
    failures: Failures,
    setups: Vec<SetupTimes>,
    /// Ops of the measured phase(s).
    measured: Vec<OpRecord>,
    measured_wall_s: f64,
    /// Explains per second in each window of the measured phases.
    rates: Vec<f64>,
    /// Daemon-path spans of the traced ops.
    spans: Vec<Span>,
    /// Appends sent after the traced phase on workloads without appends.
    append_probes: Vec<OpRecord>,
    rejects: u64,
    singleflight_joins: u64,
    ledger: LedgerStats,
    /// Ledger directories opened so far (each daemon gets a fresh one).
    opened: usize,
    /// Ok explains the ε check covered, and how many of their replies
    /// round `eps_spent` differently from their grant.
    eps_explains: usize,
    eps_rounding_mismatches: usize,
    /// Per-mille `ledger.reserve_p99_ms` stands for (traced runs).
    reserve_tail_permille: Option<f64>,
}

impl Bench {
    fn new(args: &Args, dir: PathBuf) -> Result<Bench, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let host = host::Host::probe(&dir).map_err(|e| format!("host probe: {e}"))?;
        let inputs = workload::inputs(args.workload, args.seed);
        Ok(Bench {
            w: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            clients: host.parallelism,
            clock: Clock::start(),
            dir,
            host,
            data: Arc::new(inputs.data),
            append_batches: inputs.append_batches,
            warm: inputs.warm,
            next_id: 0,
            next_index: 0,
            failures: Failures::default(),
            setups: Vec::new(),
            measured: Vec::new(),
            measured_wall_s: 0.0,
            rates: Vec::new(),
            spans: Vec::new(),
            append_probes: Vec::new(),
            rejects: 0,
            singleflight_joins: 0,
            ledger: LedgerStats::default(),
            opened: 0,
            eps_explains: 0,
            eps_rounding_mismatches: 0,
            reserve_tail_permille: None,
        })
    }

    fn run(&mut self) -> Result<(Json, Json), String> {
        let replays = match self.w.kind {
            Kind::Warm | Kind::SmallAppend => self.run_one_daemon()?,
            Kind::Cold => self.run_cold()?,
        };
        let metrics = if self.trace {
            if let Err(error) = self.write_spans(&replays) {
                eprintln!("servebench: writing spans: {error}");
            }
            self.layer_metrics(&replays)?
        } else {
            self.end_to_end_metrics()?
        };
        let tally = checks::tally(&self.measured);
        if tally.failed() > 0 {
            self.failures.0.push(format!(
                "{} of {} ops failed",
                tally.failed(),
                tally.attempted
            ));
        }
        let correct = self.failures.0.is_empty();
        for failure in &self.failures.0 {
            eprintln!("servebench: check failed: {failure}");
        }
        let report = self.report(&replays, correct);
        let result = Json::object()
            .field("correct", correct)
            .field("attempted", tally.attempted.max(1))
            .field("failed", tally.failed())
            .field("metrics", metrics);
        Ok((report, result))
    }

    fn fresh_dir(&mut self, what: &str) -> PathBuf {
        self.opened += 1;
        self.dir.join(format!("{what}-{}", self.opened))
    }

    fn take_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn warm_ops(&mut self) -> Vec<Op> {
        self.warm
            .clone()
            .into_iter()
            .map(|cluster_by| {
                let id = self.take_id();
                Op::new(&workload::explain(id, id, cluster_by, N_CLUSTERS), true)
            })
            .collect()
    }

    fn open(&mut self, warm: bool) -> Result<Serving, String> {
        let warm_ops = if warm { self.warm_ops() } else { Vec::new() };
        let dir = self.fresh_dir("ledger");
        let serving = Serving::open(
            Arc::clone(&self.data),
            &dir,
            self.clients,
            warm_ops,
            self.clock,
        )?;
        self.setups.push(serving.setup);
        Ok(serving)
    }

    /// Drains `serving` and checks its ledger against every op it answered.
    fn close(&mut self, serving: Serving, extra_ops: &[&[OpRecord]]) {
        self.rejects += serving
            .daemon
            .stats_json()
            .get("rejected")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if let Some(entry) = serving.registry.get(DATASET) {
            self.singleflight_joins += entry.cache().singleflight_hits();
            let stats = entry.accountant().ledger_stats();
            self.ledger.grants_appended += stats.grants_appended;
            self.ledger.append_batches += stats.append_batches;
        }
        let warm = serving.warm.ops.clone();
        let (summary, spent, strays) = serving.finish();
        let ops: Vec<&OpRecord> = warm
            .iter()
            .chain(extra_ops.iter().flat_map(|ops| ops.iter()))
            .collect();
        self.failures.check(checks::drain_clean(&summary));
        self.failures
            .check(checks::answered_once(ops.iter().copied(), &strays));
        match checks::eps_accounted(ops, spent) {
            Ok(audit) => {
                self.eps_explains += audit.explains;
                self.eps_rounding_mismatches += audit.rounding_mismatches;
            }
            Err(failure) => self.failures.0.push(failure),
        }
    }

    fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs(self.seconds)
    }

    /// `warm-1m` and `small-append`: several set-ups, then one measured
    /// phase on the last daemon.
    fn run_one_daemon(&mut self) -> Result<Vec<Replayed>, String> {
        let setups = if self.w.kind == Kind::Warm {
            SETUPS_1M
        } else {
            SETUPS_SMALL
        };
        for _ in 1..setups {
            let serving = self.open(true)?;
            self.close(serving, &[]);
        }
        let serving = self.open(true)?;
        let deadline = self.deadline();
        let base = self.next_id;
        let seed = self.seed;
        let warm = self.warm.clone();
        let batches = &self.append_batches;
        let cursor = AtomicU64::new(0);
        let explains = AtomicU64::new(0);
        let appends = AtomicU64::new(0);
        let appending = self.w.kind == Kind::SmallAppend;
        let min_explains = (TAIL_WINDOWS * stats::min_samples(P99, MIN_BEYOND)) as u64;
        let next = |client: usize, n: u64| -> Option<Op> {
            if Instant::now() >= deadline && explains.load(Ordering::Relaxed) >= min_explains {
                return None;
            }
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            let id = base + 1 + k;
            let keep = (k as usize) < REPLAY_MAX || k.is_multiple_of(KEEP_EVERY);
            if appending && client == 0 && (n + 1).is_multiple_of(APPEND_EVERY) {
                let j = appends.fetch_add(1, Ordering::Relaxed) as usize;
                let rows = &batches[j % batches.len()];
                return Some(Op::new(&workload::append(id, rows), keep));
            }
            explains.fetch_add(1, Ordering::Relaxed);
            Some(Op::new(&workload::warm_explain(seed, id, k, &warm), keep))
        };
        let phase = serving.run_clients(self.clients, self.clock, self.trace, &next);
        self.next_id = base + 1 + cursor.load(Ordering::Relaxed);
        self.measured_wall_s = phase.wall_s;
        self.note_rates(&phase);
        self.measured = phase.ops;
        self.spans = phase.spans;
        if self.w.kind == Kind::Warm {
            let grown = serving.cache_len();
            if grown != serving.cache_len_at_ready {
                self.failures.0.push(format!(
                    "warm-1m: counts cache grew from {} to {grown} entries",
                    serving.cache_len_at_ready
                ));
            }
        }
        let mut tail = Vec::new();
        if self.w.kind == Kind::SmallAppend {
            tail = self.check_grown_dataset(&serving)?;
        } else if self.trace {
            tail = self.append_probes(&serving);
        }
        let measured = std::mem::take(&mut self.measured);
        self.close(serving, &[&measured, &tail]);
        self.measured = measured;
        self.reserve_samples()?;
        if !self.trace {
            return Ok(Vec::new());
        }
        let registry = self.replay_registry()?;
        let warm_ops: Vec<Op> = self.warm_ops();
        let mut replays = self.replay(&registry, &warm_ops)?;
        let mut ops: Vec<Op> = self.measured.iter().map(|r| r.op.clone()).collect();
        ops.sort_by_key(|op| op.id);
        ops.truncate(REPLAY_MAX);
        let measured = self.replay(&registry, &ops)?;
        if self.w.kind == Kind::Warm {
            self.check_replay_bytes(&measured);
        }
        replays.extend(measured);
        if self.w.kind == Kind::Warm {
            replays.extend(self.replay_append_probes(&registry)?);
        }
        Ok(replays)
    }

    /// `cold-1m`: rounds of at most 204 explains, each on a fresh daemon
    /// whose counts cache starts empty, until the run has lasted
    /// `--seconds` and served enough explains for a p99.
    fn run_cold(&mut self) -> Result<Vec<Replayed>, String> {
        let keys = workload::cold_keys(self.seed, self.data.schema().arity());
        let min_ops = stats::min_samples(P99, MIN_BEYOND) as u64;
        let deadline = self.deadline();
        let mut rounds: Vec<Vec<OpRecord>> = Vec::new();
        let mut served = 0u64;
        loop {
            let serving = self.open(false)?;
            let base = self.next_id;
            let first_index = self.next_index;
            let seed = self.seed;
            let cursor = AtomicU64::new(0);
            let keys = &keys;
            let next = |_: usize, _: u64| -> Option<Op> {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let done = served + k;
                if k as usize >= keys.len() || (done >= min_ops && Instant::now() >= deadline) {
                    return None;
                }
                let id = base + 1 + k;
                let request = workload::cold_explain(seed, id, first_index + k, keys[k as usize]);
                Some(Op::new(&request, true))
            };
            let phase = serving.run_clients(self.clients, self.clock, self.trace, &next);
            let sent = phase.ops.len();
            self.next_id = base + sent as u64 + 1;
            self.next_index = first_index + sent as u64;
            self.measured_wall_s += phase.wall_s;
            self.note_rates(&phase);
            let offset = self.spans.len();
            self.spans.extend(phase.spans.into_iter().map(|mut span| {
                span.parent = span.parent.map(|p| p + offset);
                span
            }));
            let grown = serving.cache_len() - serving.cache_len_at_ready;
            if grown != sent {
                self.failures.0.push(format!(
                    "cold-1m: counts cache grew by {grown} over {sent} explains"
                ));
            }
            served += sent as u64;
            let finished = served >= min_ops && Instant::now() >= deadline;
            let tail = if finished && self.trace {
                self.append_probes(&serving)
            } else {
                Vec::new()
            };
            self.close(serving, &[&phase.ops, &tail]);
            rounds.push(phase.ops);
            if finished {
                break;
            }
        }
        self.measured = rounds.iter().flatten().cloned().collect();
        self.reserve_samples()?;
        if !self.trace {
            return Ok(Vec::new());
        }
        let mut replays = Vec::new();
        let mut last_registry = None;
        for round in rounds.iter().take(COLD_REPLAY_ROUNDS) {
            let registry = self.replay_registry()?;
            let mut ops: Vec<Op> = round.iter().map(|r| r.op.clone()).collect();
            ops.sort_by_key(|op| op.id);
            let replayed = self.replay(&registry, &ops)?;
            self.check_replay_bytes(&replayed);
            replays.extend(replayed);
            last_registry = Some((registry, ops));
        }
        if let Some((registry, ops)) = last_registry {
            // Counts-cache hits on keys this replay already built: the only
            // hits a cold run has, to price the lookup beside the build.
            let probes: Vec<Op> = ops
                .iter()
                .take(HIT_PROBES)
                .map(|op| {
                    let request = ExplainRequest::from_json_line(&op.line).expect("own line");
                    let id = self.take_id();
                    let probe = workload::explain(id, id, request.cluster_by, request.n_clusters);
                    Op::new(&probe, true)
                })
                .collect();
            replays.extend(self.replay(&registry, &probes)?);
            replays.extend(self.replay_append_probes(&registry)?);
        }
        Ok(replays)
    }
}

/// A fresh single-worker service over `data`, with an in-memory ledger.
fn fresh_service(data: Arc<Dataset>) -> ExplainService {
    let registry = DatasetRegistry::new();
    registry.register(DATASET, data, None);
    ExplainService::new(Arc::new(registry)).with_workers(1)
}

/// `{"value": v, "unit": u}`.
fn metric(value: f64, unit: &str) -> Json {
    Json::object().field("value", value).field("unit", unit)
}

/// The value with exactly [`MIN_BEYOND`] samples above it when there are
/// too few samples for p99, with the per-mille it stands for.
fn supported_tail(values: &[f64]) -> (f64, f64) {
    match tail_percentile(values, P99) {
        Ok(v) => (v, P99 as f64),
        Err(_) if values.len() > MIN_BEYOND => {
            let mut sorted = values.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = sorted.len() - MIN_BEYOND;
            (sorted[rank - 1], 1000.0 * rank as f64 / sorted.len() as f64)
        }
        Err(_) => (values.iter().copied().fold(0.0, f64::max), 1000.0),
    }
}

impl Bench {
    fn probe_rows(&self, p: usize) -> Vec<Vec<u32>> {
        let arity = self.data.schema().arity();
        (p * workload::APPEND_ROWS..(p + 1) * workload::APPEND_ROWS)
            .map(|row| (0..arity).map(|a| self.data.column(a)[row]).collect())
            .collect()
    }

    fn append_probe_ops(&mut self) -> Vec<Op> {
        (0..APPEND_PROBES)
            .map(|p| {
                let id = self.take_id();
                Op::new(&workload::append(id, &self.probe_rows(p)), true)
            })
            .collect()
    }

    /// Appends through the daemon after the traced phase, to time
    /// `append_p50_ms` on a workload that sends none.
    fn append_probes(&mut self, serving: &Serving) -> Vec<OpRecord> {
        let ops = self.append_probe_ops();
        let phase = serving.run_list(ops, 1, self.clock, false);
        self.append_probes = phase.ops.clone();
        phase.ops
    }

    fn replay_append_probes(
        &mut self,
        registry: &DatasetRegistry,
    ) -> Result<Vec<Replayed>, String> {
        let ops = self.append_probe_ops();
        replay::replay_all(registry, &ops, 1, self.clock)
    }

    fn replay_registry(&mut self) -> Result<DatasetRegistry, String> {
        let dir = self.fresh_dir("replay");
        let shards = AccountantShards::in_dir(&dir).map_err(|e| e.to_string())?;
        let registry = DatasetRegistry::with_shards(Arc::new(shards));
        registry
            .register_sharded(DATASET, Arc::clone(&self.data), drive::shard_config())
            .map_err(|e| e.to_string())?;
        Ok(registry)
    }

    fn replay(&self, registry: &DatasetRegistry, ops: &[Op]) -> Result<Vec<Replayed>, String> {
        replay::replay_all(registry, ops, self.clients, self.clock)
    }

    /// Each replayed line equals the daemon's line for the same id.
    fn check_replay_bytes(&mut self, replays: &[Replayed]) {
        for replayed in replays {
            let served = self
                .measured
                .iter()
                .find(|r| r.op.id == replayed.id)
                .and_then(|r| r.reply.as_ref());
            match served {
                Some(reply) => self.failures.check(checks::same_bytes(
                    &format!("replay of request {}", replayed.id),
                    &reply.line,
                    &replayed.line,
                )),
                None => self
                    .failures
                    .0
                    .push(format!("replayed request {} was not served", replayed.id)),
            }
        }
    }

    /// The measured ok appends, in the order they were applied.
    fn ok_appends(&self) -> Vec<&OpRecord> {
        let mut appends: Vec<&OpRecord> = self
            .measured
            .iter()
            .filter(|r| r.op.append && checks::reply_ok(r))
            .collect();
        appends.sort_by_key(|r| r.op.id);
        appends
    }

    /// The initial rows plus the rows of `appends`, in order.
    fn grown(&self, appends: &[&OpRecord]) -> Result<Dataset, String> {
        let arity = self.data.schema().arity();
        let mut columns: Vec<Vec<u32>> = (0..arity).map(|a| self.data.column(a).to_vec()).collect();
        for record in appends {
            let request = ExplainRequest::from_json_line(&record.op.line)?;
            if let dpx_serve::RequestOp::Append { rows } = request.op {
                for row in rows {
                    for (column, value) in columns.iter_mut().zip(row) {
                        column.push(value);
                    }
                }
            }
        }
        Dataset::from_columns(self.data.schema().clone(), columns).map_err(|e| e.to_string())
    }

    /// `small-append`: the served dataset holds the initial rows plus every
    /// appended row, and an explain on it equals the same explain on a
    /// fresh registration of those rows. Returns the explain's op.
    fn check_grown_dataset(&mut self, serving: &Serving) -> Result<Vec<OpRecord>, String> {
        let grown = self.grown(&self.ok_appends())?;
        let entry = serving
            .registry
            .get(DATASET)
            .ok_or("dataset vanished from the registry")?;
        let served = entry.data();
        let arity = grown.schema().arity();
        if served.n_rows() != grown.n_rows()
            || (0..arity).any(|a| served.column(a) != grown.column(a))
        {
            self.failures.0.push(format!(
                "small-append: served dataset has {} rows, initial plus appended is {}",
                served.n_rows(),
                grown.n_rows()
            ));
        }
        let id = self.take_id();
        let op = Op::new(&workload::warm_explain(self.seed, id, id, &self.warm), true);
        // Re-serve what the daemon received: the request as parsed from its line.
        let request = ExplainRequest::from_json_line(&op.line)?;
        let phase = serving.run_list(vec![op], 1, self.clock, false);
        let fresh = fresh_service(Arc::new(grown))
            .execute(&request)
            .to_json_line();
        match phase.ops.first().and_then(|r| r.reply.as_ref()) {
            Some(reply) => self.failures.check(checks::same_bytes(
                "explain on the grown dataset vs a fresh registration",
                &fresh,
                &reply.line,
            )),
            None => self
                .failures
                .0
                .push("grown-dataset explain unanswered".into()),
        }
        Ok(phase.ops)
    }

    /// A spread sample of explains re-served by a fresh single-worker
    /// `ExplainService::execute` must be byte-identical. On `small-append`
    /// an explain may have seen any dataset version between the appends
    /// acknowledged before it was sent and those sent before its reply.
    fn reserve_samples(&mut self) -> Result<(), String> {
        let mut explains: Vec<&OpRecord> = self
            .measured
            .iter()
            .filter(|r| !r.op.append && r.op.keep && r.reply.is_some())
            .collect();
        explains.sort_by_key(|r| r.op.id);
        let picks: Vec<&OpRecord> = (0..RESERVE_SAMPLES)
            .filter_map(|i| explains.get(i * explains.len() / RESERVE_SAMPLES).copied())
            .collect();
        let appends = self.ok_appends();
        let mut services: Vec<Option<ExplainService>> = (0..=appends.len()).map(|_| None).collect();
        let mut failures = Vec::new();
        for record in picks {
            let (Some(done), Some(reply)) = (record.done, &record.reply) else {
                continue;
            };
            let lo = appends
                .iter()
                .filter(|a| a.done.is_some_and(|d| d <= record.start))
                .count();
            let hi = appends.iter().filter(|a| a.start < done).count();
            let request = ExplainRequest::from_json_line(&record.op.line)?;
            let mut matched = false;
            for version in lo..=hi {
                if services[version].is_none() {
                    let data = if version == 0 {
                        Arc::clone(&self.data)
                    } else {
                        Arc::new(self.grown(&appends[..version])?)
                    };
                    services[version] = Some(fresh_service(data));
                }
                let service = services[version].as_ref().expect("just built");
                if service.execute(&request).to_json_line() == reply.line {
                    matched = true;
                    break;
                }
            }
            if !matched {
                failures.push(format!(
                    "request {} differs from its re-serve on every dataset version {lo}..={hi}",
                    record.op.id
                ));
            }
        }
        self.failures.0.extend(failures);
        Ok(())
    }

    fn explain_latencies(&self, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.measured
            .iter()
            .filter(|r| !r.op.append && keep(r.op.id))
            .filter_map(OpRecord::latency_ms)
            .collect()
    }

    fn setup_median(&self, pick: impl Fn(&SetupTimes) -> f64) -> f64 {
        let values: Vec<f64> = self.setups.iter().map(pick).collect();
        median_or_zero(&values)
    }

    /// Records the explain rate of each window of a measured phase.
    fn note_rates(&mut self, phase: &drive::Phase) {
        let mut done: Vec<u64> = phase
            .ops
            .iter()
            .filter(|r| !r.op.append)
            .filter_map(|r| r.done)
            .collect();
        done.sort_unstable();
        let windows = if self.w.kind == Kind::Cold {
            1
        } else {
            SPEED_WINDOWS
        };
        self.rates
            .extend(stats::window_rates(phase.begin, &done, windows));
    }

    /// Explain latencies in ms, in completion order.
    fn latencies_in_order(&self) -> Vec<f64> {
        let mut in_order: Vec<&OpRecord> = self.measured.iter().filter(|r| !r.op.append).collect();
        in_order.sort_by_key(|r| r.done);
        in_order.iter().filter_map(|r| r.latency_ms()).collect()
    }

    /// The explains' latency tail, windowed (see `stats::windowed_p99`).
    fn explain_p99_ms(&self) -> Result<f64, String> {
        stats::windowed_p99(&self.latencies_in_order())
    }

    fn end_to_end_metrics(&self) -> Result<Json, String> {
        let p50 = stats::window_medians(&self.latencies_in_order(), SPEED_WINDOWS)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let rps = self.rates.iter().copied().fold(0.0, f64::max);
        Ok(Json::object()
            .field("explain_p50_ms", metric(p50, "ms"))
            .field("explain_rps", metric(rps, "1/s"))
            .field("setup_s", metric(self.setup_median(|s| s.total_s), "s"))
            .field("peak_rss_mb", metric(host::peak_rss_mb(), "MiB")))
    }
}

/// Per-layer figures of the replayed explains, in ns unless named otherwise.
#[derive(Default)]
struct LayerSamples {
    parse: Vec<f64>,
    reserve: Vec<f64>,
    derive: Vec<f64>,
    /// The counts stage on a cache hit: keying plus lookup.
    hit_counts: Vec<f64>,
    build: Vec<f64>,
    stage1: Vec<f64>,
    stage2: Vec<f64>,
    histograms: Vec<f64>,
    leaves: Vec<f64>,
    apply: Vec<f64>,
    refreshed: Vec<f64>,
    /// Measured explains only: hit flags and request shares.
    hits: Vec<bool>,
    unattributed_pct: Vec<f64>,
    data_scaling_pct: Vec<f64>,
    stage2_pct: Vec<f64>,
    /// Request root minus parse and render: the work a daemon worker does.
    service_by_id: std::collections::HashMap<u64, u64>,
}

impl LayerSamples {
    fn new(replays: &[Replayed], measured: &std::collections::HashSet<u64>) -> Self {
        let mut s = LayerSamples::default();
        for r in replays {
            let span = |name: &str| r.span_ns(name).unwrap_or(0);
            let root = span("request");
            s.parse.push(span("request.parse") as f64);
            if let Some(summary) = r.append {
                s.apply.push(span("append.apply") as f64);
                s.refreshed.push(summary.refreshed_clusterings as f64);
                continue;
            }
            let counts = span("counts");
            s.reserve.push(span("ledger.reserve") as f64);
            s.derive.push(span("labels.derive") as f64);
            s.stage1.push(span("engine.stage1") as f64);
            s.stage2.push(span("engine.stage2") as f64);
            s.histograms.push(span("engine.histograms") as f64);
            s.leaves.extend(r.leaves);
            match r.cache_hit {
                Some(true) => s.hit_counts.push(counts as f64),
                _ => s.build.push(counts as f64),
            }
            s.service_by_id.insert(
                r.id,
                root.saturating_sub(span("request.parse") + span("request.render")),
            );
            if measured.contains(&r.id) && root > 0 {
                let pct = |ns: u64| 100.0 * ns as f64 / root as f64;
                s.hits.push(r.cache_hit == Some(true));
                s.unattributed_pct.push(pct(stats::self_times(&r.spans)[0]));
                s.data_scaling_pct.push(pct(span("labels.derive") + counts));
                s.stage2_pct.push(pct(span("engine.stage2")));
            }
        }
        s
    }
}

impl Bench {
    fn daemon_span_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.len() as f64)
            .collect()
    }

    /// Queue wait plus worker wake-up of each traced explain: the daemon
    /// request span minus admission, render, and the replayed service time
    /// of the same request.
    fn handoff_ns(&self, samples: &LayerSamples) -> Vec<f64> {
        let mut children: std::collections::HashMap<u64, u64> = Default::default();
        for span in self.spans.iter().filter(|s| s.parent.is_some()) {
            *children.entry(span.request).or_default() += span.len();
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .filter_map(|root| {
                let service = samples.service_by_id.get(&root.request)?;
                let own = children.get(&root.request).copied().unwrap_or(0);
                Some(root.len() as f64 - own as f64 - *service as f64)
            })
            .collect()
    }

    fn layer_metrics(&mut self, replays: &[Replayed]) -> Result<Json, String> {
        let measured: std::collections::HashSet<u64> =
            self.measured.iter().map(|r| r.op.id).collect();
        let s = LayerSamples::new(replays, &measured);
        let med = |values: &[f64]| median_or_zero(values);
        let unattributed = med(&s.unattributed_pct);
        if unattributed > RECONCILE_BOUND_PCT {
            self.failures.0.push(format!(
                "layer self times leave {unattributed:.2}% of the replayed request \
                 unaccounted (bound {RECONCILE_BOUND_PCT}%)"
            ));
        }
        let clusterings: Vec<(usize, usize)> = replays
            .iter()
            .filter(|r| measured.contains(&r.id))
            .filter_map(|r| r.clustering)
            .take(KEY_SAMPLES)
            .collect();
        let key_ms = med(&replay::key_samples(&self.data, &clusterings)) / 1e6;
        let traced = med(&self.explain_latencies(drive::traced));
        let untraced = med(&self.explain_latencies(|id| !drive::traced(id)));
        let (reserve_tail, permille) = supported_tail(&s.reserve);
        self.reserve_tail_permille = Some(permille);
        let build_ms = med(&s.build) / 1e6;
        let cells = (self.data.n_rows() * self.data.schema().arity()) as f64;
        let appends: Vec<f64> = self
            .measured
            .iter()
            .chain(&self.append_probes)
            .filter(|r| r.op.append)
            .filter_map(OpRecord::latency_ms)
            .collect();
        let hit_ratio = if s.hits.is_empty() {
            0.0
        } else {
            s.hits.iter().filter(|&&h| h).count() as f64 / s.hits.len() as f64
        };
        let ledger = self.ledger;
        let tally = checks::tally(&self.measured);
        let m = |v: f64, unit: &str| metric(v, unit);
        Ok(Json::object()
            .field("request.parse_us", m(med(&s.parse) / 1e3, "us"))
            .field(
                "request.render_us",
                m(med(&self.daemon_span_ns("request.render")) / 1e3, "us"),
            )
            .field(
                "daemon.admit_us",
                m(med(&self.daemon_span_ns("daemon.admit")) / 1e3, "us"),
            )
            .field(
                "daemon.handoff_ms",
                m(med(&self.handoff_ns(&s)) / 1e6, "ms"),
            )
            .field("explain_p99_ms", m(self.explain_p99_ms()?, "ms"))
            .field("daemon.rejects", m(self.rejects as f64, "count"))
            .field("ledger.reserve_ms", m(med(&s.reserve) / 1e6, "ms"))
            .field("ledger.reserve_p99_ms", m(reserve_tail / 1e6, "ms"))
            .field(
                "ledger.grants_per_fsync",
                m(
                    ledger.grants_appended as f64 / ledger.append_batches.max(1) as f64,
                    "count",
                ),
            )
            .field("ledger.fsyncs", m(ledger.append_batches as f64, "count"))
            .field("labels.derive_ms", m(med(&s.derive) / 1e6, "ms"))
            .field("cache.key_ms", m(key_ms, "ms"))
            .field(
                "counts.lookup_ms",
                m(med(&s.hit_counts) / 1e6 - key_ms, "ms"),
            )
            .field("counts.build_ms", m(build_ms, "ms"))
            .field(
                "counts.cells_per_us",
                m(cells / (build_ms * 1e3).max(f64::MIN_POSITIVE), "1/us"),
            )
            .field("cache.hit_ratio", m(hit_ratio, "ratio"))
            .field(
                "cache.singleflight_joins",
                m(self.singleflight_joins as f64, "count"),
            )
            .field("append.apply_ms", m(med(&s.apply) / 1e6, "ms"))
            .field("append.refreshed", m(med(&s.refreshed), "count"))
            .field("append_p50_ms", m(med(&appends), "ms"))
            .field("engine.stage1_ms", m(med(&s.stage1) / 1e6, "ms"))
            .field("engine.stage2_ms", m(med(&s.stage2) / 1e6, "ms"))
            .field("engine.histograms_ms", m(med(&s.histograms) / 1e6, "ms"))
            .field("engine.stage2_leaves", m(med(&s.leaves), "count"))
            .field(
                "setup.register_s",
                m(self.setup_median(|t| t.register_s), "s"),
            )
            .field("setup.warm_s", m(self.setup_median(|t| t.warm_s), "s"))
            .field(
                "trace.overhead_pct",
                m(100.0 * (traced / untraced - 1.0), "%"),
            )
            .field("trace.unattributed_pct", m(unattributed, "%"))
            .field("share.data_scaling_pct", m(med(&s.data_scaling_pct), "%"))
            .field("share.stage2_pct", m(med(&s.stage2_pct), "%"))
            .field("failed_frac", m(tally.failed_frac(), "ratio")))
    }

    /// The run's report line: what ran, on what host, and what it showed.
    fn report(&self, replays: &[Replayed], correct: bool) -> Json {
        let explains = self.measured.iter().filter(|r| !r.op.append).count();
        let mut report = Json::object()
            .field("workload", self.w.name)
            .field("why", self.w.why)
            .field("seed", self.seed)
            .field("trace", self.trace)
            .field("host", self.host.to_json())
            .field("clients", self.clients)
            .field("daemon_workers", self.clients)
            .field("rows", self.data.n_rows())
            .field("attributes", self.data.schema().arity())
            .field("explains", explains)
            .field("appends", self.measured.len() - explains)
            .field("measured_s", self.measured_wall_s)
            .field("explain_p99_ms", self.explain_p99_ms().unwrap_or(f64::NAN))
            .field("setups", self.setups.len())
            .field("correct", correct)
            .field("eps_checked_explains", self.eps_explains)
            .field(
                "eps_spent_rounding_mismatches",
                self.eps_rounding_mismatches,
            )
            .field(
                "failures",
                self.failures
                    .0
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            );
        if let Some(permille) = self.reserve_tail_permille {
            report = report
                .field("replayed", replays.len())
                .field("reserve_tail_permille", permille)
                .field(
                    "daemon_traced_p50_ms",
                    median_or_zero(&self.explain_latencies(drive::traced)),
                );
        }
        report
    }

    /// Writes every span of the run as JSONL under `.bench_out/`.
    fn write_spans(&self, replays: &[Replayed]) -> std::io::Result<()> {
        use std::io::Write;
        let path = PathBuf::from(".bench_out").join(format!("spans-{}.jsonl", self.w.name));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut write = |path: &str, spans: &[Span], offset: usize| -> std::io::Result<()> {
            for span in spans {
                let mut line = Json::object()
                    .field("path", path)
                    .field("name", span.name)
                    .field("request", span.request)
                    .field("start_ns", span.start)
                    .field("end_ns", span.end);
                if let Some(parent) = span.parent {
                    line = line.field("parent", offset + parent);
                }
                writeln!(out, "{}", line.render())?;
            }
            Ok(())
        };
        // Daemon-path parents already index `self.spans`; replay parents
        // index their request's own list.
        write("daemon", &self.spans, 0)?;
        let mut offset = self.spans.len();
        for replayed in replays {
            write("replay", &replayed.spans, offset)?;
            offset += replayed.spans.len();
        }
        out.flush()
    }
}
