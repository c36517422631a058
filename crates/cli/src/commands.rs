//! Subcommand implementations.

use crate::args::Cli;
use crate::CliError;
use dpclustx::baselines::tabee;
use dpclustx::counts::ScoreTable;
use dpclustx::engine::{CollectingObserver, ExplainEngine};
use dpclustx::eval::{mae, QualityEvaluator};
use dpclustx::framework::{DpClustX, DpClustXConfig};
use dpclustx::stage1::rank_attributes;
use dpclustx::text;
use dpx_clustering::ClusteringMethod;
use dpx_data::contingency::ClusteredCounts;
use dpx_data::csv::{read_csv, write_csv};
use dpx_data::schema_io::{read_schema, write_schema};
use dpx_data::synth;
use dpx_data::Dataset;
use dpx_runtime::default_threads;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// Dispatches a parsed command line. Output goes to `out` (stdout in main;
/// a buffer in tests).
pub fn run<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    match cli.command.as_str() {
        "generate" => generate(cli, out),
        "explain" => explain(cli, out, false),
        "evaluate" => explain(cli, out, true),
        "rank" => rank(cli, out),
        "report" => report(cli, out),
        "serve-batch" => serve_batch(cli, out),
        "serve-daemon" => serve_daemon(cli, out),
        "session" => {
            let stdin = std::io::stdin();
            crate::repl::run_session(cli, stdin.lock(), out)
        }
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", crate::USAGE)?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown subcommand '{other}' (try 'help')"
        ))),
    }
}

fn generate<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    let dataset = cli.required("dataset")?.to_string();
    let prefix = cli.required("out")?.to_string();
    let groups = cli.usize("groups", 3)?;
    let seed = cli.u64("seed", 2025)?;
    let spec = match dataset.as_str() {
        "diabetes" => synth::diabetes::spec(groups),
        "census" => synth::census::spec(groups),
        "stackoverflow" | "so" => synth::stackoverflow::spec(groups),
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset '{other}' (diabetes|census|stackoverflow)"
            )))
        }
    };
    let rows = cli.usize("rows", 20_000)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let data = spec.generate(rows, &mut rng).data;

    let csv_path = format!("{prefix}.csv");
    let schema_path = format!("{prefix}.schema");
    write_csv(&data, &mut BufWriter::new(File::create(&csv_path)?))?;
    write_schema(
        data.schema(),
        &mut BufWriter::new(File::create(&schema_path)?),
    )?;
    writeln!(
        out,
        "wrote {} tuples × {} attributes to {csv_path} (+ {schema_path})",
        data.n_rows(),
        data.schema().arity()
    )?;
    Ok(())
}

fn load(cli: &Cli) -> Result<Dataset, CliError> {
    let schema_path = cli.required("schema")?.to_string();
    let data_path = cli.required("data")?.to_string();
    let schema = read_schema(BufReader::new(File::open(&schema_path)?))?;
    Ok(read_csv(schema, BufReader::new(File::open(&data_path)?))?)
}

fn parse_method(cli: &Cli) -> Result<ClusteringMethod, CliError> {
    let clust_eps = cli.f64("clust-eps", 1.0)?;
    match cli.string("method", "kmeans").as_str() {
        "kmeans" => Ok(ClusteringMethod::KMeans),
        "dp-kmeans" => Ok(ClusteringMethod::DpKMeans { epsilon: clust_eps }),
        "kmodes" => Ok(ClusteringMethod::KModes),
        "agglomerative" => Ok(ClusteringMethod::Agglomerative),
        "gmm" => Ok(ClusteringMethod::Gmm),
        other => Err(CliError::Usage(format!(
            "unknown method '{other}' (kmeans|dp-kmeans|kmodes|agglomerative|gmm)"
        ))),
    }
}

fn explain<W: std::io::Write>(cli: &Cli, out: &mut W, evaluate: bool) -> Result<(), CliError> {
    let data = load(cli)?;
    let n_clusters = cli.required_usize("clusters")?;
    if n_clusters == 0 {
        return Err(CliError::Usage("--clusters must be positive".into()));
    }
    let method = parse_method(cli)?;
    let seed = cli.u64("seed", 2025)?;
    let config = DpClustXConfig {
        k: cli.usize("k", 3)?,
        eps_cand_set: cli.f64("eps-cand", 0.1)?,
        eps_top_comb: cli.f64("eps-comb", 0.1)?,
        eps_hist: Some(cli.f64("eps-hist", 0.1)?),
        weights: cli.weights()?,
        consistency: cli.string("consistency", "off") == "on",
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let model = method.fit(&data, n_clusters, &mut rng);
    let labels = model.assign_all(&data);
    writeln!(
        out,
        "clustered {} tuples with {} into {} clusters",
        data.n_rows(),
        method.name(),
        n_clusters
    )?;

    let mut observer = CollectingObserver::new();
    let outcome = ExplainEngine::new(config).explain_uncached(
        &data,
        &labels,
        n_clusters,
        &dpx_dp::histogram::GeometricHistogram,
        &mut rng,
        &mut observer,
    )?;
    writeln!(
        out,
        "\nselected attributes: {:?}",
        outcome.explanation.attribute_names()
    )?;
    if cli.bool("timings") {
        writeln!(out, "\nstage timings:\n{}", observer.report())?;
    }
    writeln!(out, "\nprivacy audit:\n{}", outcome.accountant.audit())?;
    for e in &outcome.explanation.per_cluster {
        writeln!(out, "{}", e.render())?;
        writeln!(out, "  {}\n", text::describe(e))?;
    }

    if evaluate {
        let counts =
            ClusteredCounts::build(&data, &labels, n_clusters, default_threads(data.n_rows()));
        let st = ScoreTable::from_clustered_counts(&counts);
        let evaluator = QualityEvaluator::new(&st, config.weights);
        let reference = tabee::select(&st, config.k, config.weights);
        let q_dp = evaluator.quality(&outcome.assignment);
        let q_ref = evaluator.quality(&reference);
        writeln!(out, "--- offline evaluation (uses raw data; not DP) ---")?;
        writeln!(
            out,
            "Quality: DPClustX {q_dp:.4}, TabEE {q_ref:.4}; MAE {:.4}",
            mae(&outcome.assignment, &reference)
        )?;
        writeln!(
            out,
            "TabEE attributes: {:?}",
            reference
                .iter()
                .map(|&a| data.schema().attribute(a).name.as_str())
                .collect::<Vec<_>>()
        )?;
    }
    Ok(())
}

fn report<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    use dpclustx::report::{markdown_report, ReportOptions};
    let data = load(cli)?;
    let n_clusters = cli.required_usize("clusters")?;
    if n_clusters == 0 {
        return Err(CliError::Usage("--clusters must be positive".into()));
    }
    let method = parse_method(cli)?;
    let seed = cli.u64("seed", 2025)?;
    let out_path = cli.required("report-out")?.to_string();
    let config = DpClustXConfig {
        k: cli.usize("k", 3)?,
        eps_cand_set: cli.f64("eps-cand", 0.1)?,
        eps_top_comb: cli.f64("eps-comb", 0.1)?,
        eps_hist: Some(cli.f64("eps-hist", 0.1)?),
        weights: cli.weights()?,
        consistency: cli.string("consistency", "off") == "on",
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let model = method.fit(&data, n_clusters, &mut rng);
    let labels = model.assign_all(&data);
    let outcome = DpClustX::new(config).explain(&data, &labels, n_clusters, &mut rng)?;
    let mut md = markdown_report(
        &cli.string("title", "DPClustX explanation"),
        &outcome.explanation,
        Some(&outcome.accountant),
        ReportOptions::default(),
    );
    let mut distinct = outcome.assignment.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if let Some(note) = dpclustx::report::accuracy_note(&config, distinct.len()) {
        md.push_str(&format!("\n*{note}*\n"));
    }
    std::fs::write(&out_path, md)?;
    writeln!(out, "wrote markdown report to {out_path}")?;
    Ok(())
}

/// Executes a JSONL request batch against one registered dataset on a worker
/// pool (see `dpx-serve`). Responses are written sorted by request id, and
/// every serialized field is deterministic, so the output file is
/// byte-identical for any `--workers` value.
///
/// `--ledger-dir` attaches a durable sharded ε ledger: each dataset gets its
/// own write-ahead file (`<dir>/<dataset>.wal`), every grant is fsynced
/// before its request runs, and a restarted invocation recovers each shard at
/// its exact spend. `--checkpoint-every N` compacts a shard's WAL to a
/// checkpoint record after every N grants, bounding recovery replay.
/// `--resume` (requires `--ledger-dir`) keeps the response lines an
/// interrupted run already flushed to `--out` and skips re-spending for
/// request ids that hold a recovered grant, so kill-and-rerun converges on
/// exactly the uninterrupted output without double-charging.
/// What the serving subcommands (`serve-batch`, `serve-daemon`) share:
/// ledger/durability flag validation, the loaded dataset, and the (possibly
/// durable) registry with its recovered grant set.
struct ServingSetup {
    registry: std::sync::Arc<dpx_serve::DatasetRegistry>,
    entry: std::sync::Arc<dpx_serve::DatasetEntry>,
    granted: std::collections::HashSet<u64>,
    ledger_dir: Option<String>,
    resume: bool,
    deadline_ms: Option<u64>,
}

/// Validates the shared durability flags, loads the dataset, and opens the
/// registry — recovering each shard's write-ahead ledger when --ledger-dir
/// is given.
fn open_serving_setup(cli: &Cli) -> Result<ServingSetup, CliError> {
    use dpx_serve::{AccountantShards, DatasetRegistry, ShardConfig};
    use std::sync::Arc;

    if cli.opt_string("ledger").is_some() {
        return Err(CliError::Usage(
            "--ledger <file> was replaced by --ledger-dir <dir> \
             (one write-ahead ledger per dataset: <dir>/<dataset>.wal)"
                .into(),
        ));
    }
    let ledger_dir = cli.opt_string("ledger-dir");
    let resume = cli.bool("resume");
    let deadline_ms = cli.opt_u64("deadline-ms")?;
    let checkpoint_every = cli.opt_u64("checkpoint-every")?;
    let group_wait_us = cli.opt_u64("group-commit-max-wait-us")?;
    let group_max_batch = cli.opt_u64("group-commit-max-batch")?;
    if resume && ledger_dir.is_none() {
        return Err(CliError::Usage(
            "--resume requires --ledger-dir (there is no grant log to resume from)".into(),
        ));
    }
    if let Some(every) = checkpoint_every {
        if ledger_dir.is_none() {
            return Err(CliError::Usage(
                "--checkpoint-every requires --ledger-dir (nothing to checkpoint in memory)".into(),
            ));
        }
        if every == 0 {
            return Err(CliError::Usage(
                "--checkpoint-every must be positive".into(),
            ));
        }
    }
    // Every durable grant commits through group commit; with neither flag
    // each commit is a batch of one. Either flag sets a window and the other
    // takes its default: no wait (grants batch only while a leader's fsync
    // is in flight) and at most 64 grants per fsync. A max batch of 0 or 1
    // keeps batches of one.
    let group_commit = match (group_wait_us, group_max_batch) {
        (None, None) => None,
        (wait, batch) => {
            if ledger_dir.is_none() {
                return Err(CliError::Usage(
                    "--group-commit-max-wait-us/--group-commit-max-batch require --ledger-dir \
                     (group commit batches durable fsyncs; there is none in memory)"
                        .into(),
                ));
            }
            Some(dpx_dp::GroupCommitPolicy {
                max_wait_us: wait.unwrap_or(0),
                max_batch: batch.unwrap_or(64),
            })
        }
    };

    let data = load(cli)?;
    let cap = match cli.f64("budget", f64::INFINITY)? {
        b if b.is_infinite() => None,
        b => Some(dpx_dp::budget::Epsilon::new(b)?),
    };

    let registry = match &ledger_dir {
        Some(dir) => Arc::new(DatasetRegistry::with_shards(Arc::new(
            AccountantShards::in_dir(std::path::Path::new(dir))?,
        ))),
        None => Arc::new(DatasetRegistry::new()),
    };
    let name = cli.string("name", "default");
    let entry = match &ledger_dir {
        Some(_) => {
            let config = ShardConfig {
                cap,
                checkpoint_every,
                group_commit,
            };
            registry.register_sharded(name, Arc::new(data), config)?
        }
        None => registry.register(name, Arc::new(data), cap),
    };
    let granted = entry.accountant().granted_ids().into_iter().collect();
    Ok(ServingSetup {
        registry,
        entry,
        granted,
        ledger_dir,
        resume,
        deadline_ms,
    })
}

/// Prints each durable shard's recovery/checkpoint/group-commit statistics
/// (shared by the serving subcommands' human summaries).
fn print_ledger_stats<W: std::io::Write>(
    out: &mut W,
    registry: &dpx_serve::DatasetRegistry,
) -> Result<(), CliError> {
    for (shard, stats) in registry.shards().stats() {
        let origin = if stats.recovered_from_checkpoint {
            format!(
                "from checkpoint (+{} tail records)",
                stats.checkpoint_age_at_recovery
            )
        } else {
            "full history".to_string()
        };
        writeln!(
            out,
            "ledger '{shard}': replayed {} records ({origin}), truncated {} torn bytes, \
             {} checkpoints written ({} failed), {} grants since last checkpoint",
            stats.records_replayed,
            stats.truncated_bytes,
            stats.checkpoints_written,
            stats.checkpoint_failures,
            stats.appends_since_checkpoint
        )?;
        if stats.append_batches > 0 {
            writeln!(
                out,
                "ledger '{shard}': {} grants over {} fsync batches ({:.2} grants/fsync)",
                stats.grants_appended,
                stats.append_batches,
                stats.grants_appended as f64 / stats.append_batches as f64
            )?;
        }
    }
    Ok(())
}

fn serve_batch<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    use dpx_runtime::faultpoint::{self, SERVICE_POST_RESPOND};
    use dpx_serve::{parse_requests_lenient, reject_response, BatchOptions, ExplainService};
    use std::collections::HashSet;
    use std::io::Write as _;
    use std::sync::{Arc, Mutex, PoisonError};

    let ServingSetup {
        registry,
        entry,
        granted,
        ledger_dir,
        resume,
        deadline_ms,
    } = open_serving_setup(cli)?;
    let requests_path = cli.required("requests")?.to_string();
    let out_path = cli.required("out")?.to_string();
    let workers = cli.usize("workers", default_threads(usize::MAX))?;
    // Lenient wire parsing: a hostile line that declares an id is answered
    // with a per-request error response echoing that id (shaped like a
    // budget rejection, eps_remaining included on capped datasets). A line
    // with no parseable id cannot be answered on the id-keyed response
    // stream, so it fails the batch like it always did.
    let (requests, rejects) = parse_requests_lenient(BufReader::new(File::open(&requests_path)?))
        .map_err(|e| CliError::Usage(e.to_string()))?;
    if let Some(bad) = rejects.iter().find(|r| r.id.is_none()) {
        return Err(CliError::Usage(format!(
            "bad request on line {}: {}",
            bad.line, bad.message
        )));
    }
    let n_requests = requests.len() + rejects.len();
    // Synthesized now — before any request runs — so the headroom a reject
    // echoes is the recovered pre-batch reading, not a mid-storm race.
    let reject_responses: Vec<dpx_serve::ExplainResponse> = rejects
        .iter()
        .filter_map(|reject| reject_response(reject, &registry))
        .collect();

    // --resume keeps whatever response lines the interrupted run already
    // flushed (a torn final line is dropped) and only re-runs the rest.
    // Append requests are the exception: their effect is in-memory dataset
    // state that every restart rebuilds from scratch, so they always
    // re-execute (free — no ε, deterministic) and any kept line for an
    // append id is discarded in favor of the fresh one.
    let append_ids: HashSet<u64> = requests
        .iter()
        .filter(|r| r.is_append())
        .map(|r| r.id)
        .collect();
    // Wire-reject answers are likewise dropped from the kept set: the
    // request file is their only source of truth and they are re-synthesized
    // on every run (a reject's id may collide with the request that
    // legitimately owns it, so resuming them by id would be ambiguous).
    let kept: Vec<(u64, String)> = if resume {
        read_kept_responses(&out_path)?
            .into_iter()
            .filter(|(id, _)| !append_ids.contains(id))
            .filter(|(_, line)| !is_wire_reject_line(line))
            .collect()
    } else {
        Vec::new()
    };
    let kept_ids: HashSet<u64> = kept.iter().map(|(id, _)| *id).collect();
    let to_run: Vec<_> = requests
        .into_iter()
        .filter(|r| !kept_ids.contains(&r.id))
        .collect();

    let service = ExplainService::new(Arc::clone(&registry))
        .with_workers(workers)
        .with_options(BatchOptions {
            deadline_ms,
            granted,
        });

    // Stream every response append-and-flush (kept lines re-written first) so
    // a crash loses at most the in-flight requests; the canonical sorted
    // rewrite happens once the batch completes.
    let mut stream = BufWriter::new(File::create(&out_path)?);
    for (_, line) in &kept {
        writeln!(stream, "{line}")?;
    }
    // Reject answers are durable before the batch starts: they depend only
    // on the request file and the recovered budget, not on the run.
    for response in &reject_responses {
        writeln!(stream, "{}", response.to_json_line())?;
    }
    stream.flush()?;
    let stream = Mutex::new(stream);
    let responses = service.run_batch(
        to_run,
        Some(&|response: &dpx_serve::ExplainResponse| {
            let mut w = stream.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writeln!(w, "{}", response.to_json_line());
            let _ = w.flush();
            faultpoint::hit(SERVICE_POST_RESPOND);
        }),
    );
    drop(stream);

    let ok = responses.iter().filter(|r| r.is_ok()).count()
        + kept
            .iter()
            .filter(|(_, line)| line.contains("\"ok\":true"))
            .count();

    let mut lines: Vec<(u64, String)> = kept;
    lines.extend(responses.iter().map(|r| (r.id, r.to_json_line())));
    // Rejects sort after the executed response when an id collides (a
    // duplicate-id reject shares its id with the request that owns it);
    // the sort is stable, so the order is deterministic.
    lines.extend(reject_responses.iter().map(|r| (r.id, r.to_json_line())));
    lines.sort_by_key(|&(id, _)| id);
    let mut writer = BufWriter::new(File::create(&out_path)?);
    for (_, line) in &lines {
        writeln!(writer, "{line}")?;
    }
    writer.flush()?;

    if resume {
        writeln!(
            out,
            "resumed: kept {} previously written responses, re-ran {}",
            kept_ids.len(),
            lines.len() - kept_ids.len()
        )?;
    }
    if !reject_responses.is_empty() {
        writeln!(
            out,
            "rejected {} hostile request lines at the wire (answered on the response stream)",
            reject_responses.len()
        )?;
    }
    writeln!(
        out,
        "served {n_requests} requests on {} workers: {ok} ok, {} failed",
        service.workers(),
        n_requests - ok
    )?;
    let headroom = match entry.accountant().remaining() {
        Some(rem) => format!(", ε remaining = {rem:.6}"),
        None => String::new(),
    };
    writeln!(
        out,
        "dataset '{}' spent ε = {:.6} over {} accepted requests{headroom} -> {out_path}",
        entry.name(),
        entry.accountant().spent(),
        entry.accountant().num_charges()
    )?;
    // Scheduling-dependent counters live here in the human summary, never in
    // the response stream (which must stay byte-identical across worker
    // counts).
    writeln!(
        out,
        "counts cache: {} single-flight waits joined an in-flight build",
        entry.cache().singleflight_hits()
    )?;
    if ledger_dir.is_some() {
        print_ledger_stats(out, &registry)?;
    }
    Ok(())
}

fn serve_daemon<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    use dpx_runtime::faultpoint::{self, SERVICE_POST_RESPOND};
    use dpx_serve::daemon::{serve_lines, serve_socket, Daemon, DaemonConfig, DaemonReply};
    use dpx_serve::parse_requests_lenient;
    use std::collections::HashSet;
    use std::io::Write as _;
    use std::sync::{Arc, Mutex, PoisonError};

    // Daemon-specific flag validation comes before the (expensive) dataset
    // load so a bad invocation fails fast.
    let requests_path = cli.opt_string("requests");
    let socket_path = cli.opt_string("socket");
    let workers = cli.usize("workers", 2)?.max(1);
    let queue_capacity = cli.usize("queue-capacity", 32)?;
    let drain_deadline_ms = cli.u64("drain-deadline-ms", 10_000)?;
    let metrics_out = cli.opt_string("metrics-out");
    let metrics_every = cli.u64("metrics-every", 64)?;
    if queue_capacity == 0 {
        return Err(CliError::Usage(
            "--queue-capacity must be positive (a zero-slot daemon can admit nothing)".into(),
        ));
    }
    if requests_path.is_some() && socket_path.is_some() {
        return Err(CliError::Usage(
            "--requests and --socket are mutually exclusive transports (pick one; \
             with neither, the daemon reads stdin)"
                .into(),
        ));
    }
    if cli.bool("resume") && requests_path.is_none() {
        return Err(CliError::Usage(
            "--resume requires --requests (the request file is replayed with already-served \
             ids skipped; a socket or stdin stream cannot be replayed)"
                .into(),
        ));
    }
    let setup = open_serving_setup(cli)?;
    let out_path = cli.required("out")?.to_string();

    // --resume keeps served (ok) response lines and skips their ids on the
    // replayed request stream. Error lines are never kept: admission
    // rejects depend on queue state, so re-running them is the only
    // deterministic choice (they spend no ε either way). Appends always
    // re-execute — their effect is in-memory dataset state.
    let append_ids: HashSet<u64> = match (&requests_path, setup.resume) {
        (Some(path), true) => {
            let (requests, _) = parse_requests_lenient(BufReader::new(File::open(path)?))
                .map_err(|e| CliError::Usage(e.to_string()))?;
            requests
                .iter()
                .filter(|r| r.is_append())
                .map(|r| r.id)
                .collect()
        }
        _ => HashSet::new(),
    };
    let kept: Vec<(u64, String)> = if setup.resume {
        read_kept_responses(&out_path)?
            .into_iter()
            .filter(|(id, _)| !append_ids.contains(id))
            .filter(|(_, line)| line.contains("\"ok\":true"))
            .collect()
    } else {
        Vec::new()
    };
    let skip_ids: HashSet<u64> = kept.iter().map(|(id, _)| *id).collect();

    let config = DaemonConfig {
        workers,
        queue_capacity,
        drain_deadline_ms,
        deadline_ms: setup.deadline_ms,
        granted: setup.granted.clone(),
        metrics_out: metrics_out.as_ref().map(std::path::PathBuf::from),
        metrics_every,
        ..Default::default()
    };
    let daemon = Daemon::new(Arc::clone(&setup.registry), config);
    let handles = daemon.start();

    // The durable response stream: kept lines are re-written first, then
    // every response-class reply is appended and flushed as it lands — a
    // crash loses at most the in-flight lines. Control replies (stats and
    // shutdown acks) are buffered for the human summary instead; they are
    // scheduling-dependent snapshots and must never touch this stream.
    let mut stream = BufWriter::new(File::create(&out_path)?);
    for (_, line) in &kept {
        writeln!(stream, "{line}")?;
    }
    stream.flush()?;
    let stream = Arc::new(Mutex::new(stream));
    let collected: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let controls: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let durable: dpx_serve::ReplySink = {
        let stream = Arc::clone(&stream);
        let collected = Arc::clone(&collected);
        let controls = Arc::clone(&controls);
        Arc::new(move |reply: DaemonReply<'_>| match reply {
            DaemonReply::Response(response) => {
                let line = response.to_json_line();
                {
                    let mut w = stream.lock().unwrap_or_else(PoisonError::into_inner);
                    let _ = writeln!(w, "{line}");
                    let _ = w.flush();
                }
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((response.id, line));
                faultpoint::hit(SERVICE_POST_RESPOND);
            }
            DaemonReply::Control(control) => controls
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(control.render()),
        })
    };

    match (&requests_path, &socket_path) {
        (Some(path), None) => {
            serve_lines(
                &daemon,
                BufReader::new(File::open(path)?),
                &durable,
                &skip_ids,
            )?;
        }
        (None, Some(path)) => {
            writeln!(
                out,
                "daemon listening on {path} (send {{\"op\":\"shutdown\"}} to drain)"
            )?;
            serve_socket(&daemon, std::path::Path::new(path), &durable)?;
        }
        (None, None) => {
            let stdin = std::io::stdin();
            serve_lines(&daemon, stdin.lock(), &durable, &skip_ids)?;
        }
        (Some(_), Some(_)) => unreachable!("rejected above"),
    }
    let summary = daemon.drain_and_join(handles);

    // Clean drain: rewrite the durable stream sorted by id — the canonical
    // form a resumed or batch run produces. (After a crash the appended
    // unsorted prefix is what survives, and --resume converges it.)
    let mut lines: Vec<(u64, String)> = kept;
    lines.extend(
        collected
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned(),
    );
    lines.sort_by_key(|&(id, _)| id);
    drop(stream);
    let mut writer = BufWriter::new(File::create(&out_path)?);
    for (_, line) in &lines {
        writeln!(writer, "{line}")?;
    }
    writer.flush()?;

    if setup.resume {
        writeln!(
            out,
            "resumed: kept {} previously served responses, re-ran {}",
            skip_ids.len(),
            lines.len() - skip_ids.len()
        )?;
    }
    for control in controls
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        writeln!(out, "control: {control}")?;
    }
    write!(out, "{}", summary.render())?;
    writeln!(
        out,
        "responses -> {out_path} ({} lines, sorted by id)",
        lines.len()
    )?;
    writeln!(
        out,
        "counts cache: {} single-flight waits joined an in-flight build",
        setup.entry.cache().singleflight_hits()
    )?;
    if setup.ledger_dir.is_some() {
        print_ledger_stats(out, &setup.registry)?;
    }
    if !summary.clean() {
        return Err(CliError::Usage(format!(
            "daemon drain was not clean: {} checkpoint failure(s), {} probe violation(s)",
            summary.checkpoint_errors.len(),
            summary.probe_violations.len()
        )));
    }
    Ok(())
}

/// Whether a kept response line is a synthesized wire-reject answer
/// (duplicate id, invalid ε, undecodable line). Those are never resumed:
/// the request file is their only source of truth, they cost no ε to
/// re-synthesize, and a duplicate-id reject shares its id with the request
/// that legitimately owns it — resuming by id would swallow the real one.
fn is_wire_reject_line(line: &str) -> bool {
    use dpx_serve::reject_reason;
    [
        reject_reason::DUPLICATE_ID,
        reject_reason::INVALID_EPSILON,
        reject_reason::BAD_LINE,
    ]
    .iter()
    .any(|class| line.contains(&format!("\"reason\":\"{class}\"")))
}

/// Reads the response lines an interrupted `serve-batch` already wrote to
/// `path` (missing file → nothing kept). A final line that is torn — no
/// trailing newline, or unparseable — is dropped: the crash landed mid-write
/// and its request will simply be re-served. An unparseable *interior* line
/// means the file is not a response stream at all, which is an error rather
/// than something to silently overwrite.
fn read_kept_responses(path: &str) -> Result<Vec<(u64, String)>, CliError> {
    use dpx_serve::Json;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(CliError::Io(e)),
    };
    let mut lines: Vec<&str> = text.lines().collect();
    if !text.ends_with('\n') {
        lines.pop();
    }
    let last = lines.len();
    let mut kept = Vec::with_capacity(lines.len());
    for (i, line) in lines.into_iter().enumerate() {
        let id = Json::parse(line)
            .ok()
            .and_then(|json| json.get("id").and_then(Json::as_u64));
        match id {
            Some(id) => kept.push((id, line.to_string())),
            None if i + 1 == last => {} // torn tail despite its newline
            None => {
                return Err(CliError::Usage(format!(
                    "--resume: line {} of {path} is not a response line; refusing to overwrite",
                    i + 1
                )))
            }
        }
    }
    Ok(kept)
}

fn rank<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    let data = load(cli)?;
    let n_clusters = cli.required_usize("clusters")?;
    let cluster = cli.required_usize("cluster")?;
    if cluster >= n_clusters {
        return Err(CliError::Usage(format!(
            "--cluster {cluster} out of range (clusters = {n_clusters})"
        )));
    }
    let method = parse_method(cli)?;
    let seed = cli.u64("seed", 2025)?;
    let top = cli.usize("top", 10)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let model = method.fit(&data, n_clusters, &mut rng);
    let labels = model.assign_all(&data);
    let counts = ClusteredCounts::build(&data, &labels, n_clusters, default_threads(data.n_rows()));
    let st = ScoreTable::from_clustered_counts(&counts);
    let gamma = cli.weights()?.gamma();

    writeln!(
        out,
        "⚠ exact scores computed from raw data (not DP) — diagnostics only\n"
    )?;
    writeln!(out, "ranked candidates for cluster {cluster}:")?;
    for (rank, (attr, score)) in rank_attributes(&st, cluster, gamma)
        .into_iter()
        .take(top)
        .enumerate()
    {
        writeln!(
            out,
            "  {:>2}. {:<24} SScore = {score:.2}",
            rank + 1,
            data.schema().attribute(attr).name
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let cli = Cli::parse(args.iter().map(|s| s.to_string()))?;
        let mut out = Vec::new();
        run(&cli, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpclustx-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_prints_usage() {
        let text = run_cli(&["help"]).unwrap();
        assert!(text.contains("generate"));
        assert!(text.contains("explain"));
    }

    #[test]
    fn unknown_subcommand_is_usage_error() {
        assert!(matches!(run_cli(&["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn generate_then_explain_then_evaluate_and_rank() {
        let dir = tmpdir();
        let prefix = dir.join("patients");
        let prefix_s = prefix.to_str().unwrap();
        let text = run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "1500",
            "--out",
            prefix_s,
        ])
        .unwrap();
        assert!(text.contains("1500 tuples"));
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");

        let text = run_cli(&[
            "explain",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--clusters",
            "3",
            "--method",
            "kmeans",
        ])
        .unwrap();
        assert!(text.contains("privacy audit"));
        assert!(text.contains("total ε = 0.3"));
        assert!(text.contains("Cluster 0"));

        let text = run_cli(&[
            "evaluate",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--clusters",
            "3",
        ])
        .unwrap();
        assert!(text.contains("Quality: DPClustX"));
        assert!(text.contains("TabEE"));

        let text = run_cli(&[
            "rank",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--clusters",
            "3",
            "--cluster",
            "1",
            "--top",
            "5",
        ])
        .unwrap();
        assert!(text.contains("ranked candidates for cluster 1"));
        assert_eq!(text.matches("SScore").count(), 5);
    }

    #[test]
    fn explain_timings_reports_all_four_stages() {
        let dir = tmpdir();
        let prefix = dir.join("timed");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "1000",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        let text = run_cli(&[
            "explain",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--clusters",
            "3",
            "--timings",
        ])
        .unwrap();
        assert!(text.contains("stage timings:"));
        for stage in [
            "build-counts",
            "candidate-selection",
            "combination-selection",
            "histogram-release",
        ] {
            assert!(text.contains(stage), "missing stage '{stage}' in:\n{text}");
        }
        assert!(text.contains("stage1/select-candidates"));
        assert!(text.contains("privacy audit"));
    }

    #[test]
    fn serve_batch_is_byte_identical_across_worker_counts() {
        let dir = tmpdir();
        let prefix = dir.join("served");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "900",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        let reqs = dir.join("served-reqs.jsonl");
        // Unsorted ids, a shared clustering (cache reuse), and one bad
        // request that must fail alone.
        std::fs::write(
            &reqs,
            concat!(
                "{\"id\": 7, \"seed\": 1, \"n_clusters\": 3}\n",
                "# comment line\n",
                "{\"id\": 2, \"seed\": 2, \"n_clusters\": 3}\n",
                "{\"id\": 5, \"seed\": 3, \"n_clusters\": 2}\n",
                "{\"id\": 1, \"seed\": 4, \"cluster_by\": 9999}\n",
            ),
        )
        .unwrap();
        let mut outputs = Vec::new();
        for workers in ["1", "2", "7"] {
            let resp = dir.join(format!("served-resp-{workers}.jsonl"));
            let resp_s = resp.to_str().unwrap();
            let text = run_cli(&[
                "serve-batch",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp_s,
                "--workers",
                workers,
            ])
            .unwrap();
            assert!(text.contains("served 4 requests"), "{text}");
            assert!(text.contains("3 ok, 1 failed"), "{text}");
            outputs.push(std::fs::read(&resp).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "workers 1 vs 2 diverged");
        assert_eq!(outputs[0], outputs[2], "workers 1 vs 7 diverged");
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        let ids: Vec<&str> = text.lines().map(|l| l.split(',').next().unwrap()).collect();
        assert_eq!(
            ids,
            vec!["{\"id\":1", "{\"id\":2", "{\"id\":5", "{\"id\":7"],
            "responses sorted by id"
        );
        assert!(text.lines().next().unwrap().contains("out of range"));
    }

    #[test]
    fn serve_daemon_drains_cleanly_and_matches_serve_batch_bytes() {
        let dir = tmpdir();
        let prefix = dir.join("daemon");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "700",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        let explains = concat!(
            "{\"id\": 7, \"seed\": 1, \"n_clusters\": 3}\n",
            "{\"id\": 2, \"seed\": 2, \"n_clusters\": 3}\n",
            "{\"id\": 5, \"seed\": 3, \"n_clusters\": 2}\n",
        );
        let daemon_reqs = dir.join("daemon-reqs.jsonl");
        std::fs::write(
            &daemon_reqs,
            format!(
                "{explains}{}\n{}\n",
                "{\"id\": 90, \"op\": \"stats\"}", "{\"id\": 91, \"op\": \"shutdown\"}"
            ),
        )
        .unwrap();
        let batch_reqs = dir.join("batch-reqs.jsonl");
        std::fs::write(&batch_reqs, explains).unwrap();

        let daemon_resp = dir.join("daemon-resp.jsonl");
        let metrics = dir.join("daemon-stats.json");
        let text = run_cli(&[
            "serve-daemon",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--requests",
            daemon_reqs.to_str().unwrap(),
            "--out",
            daemon_resp.to_str().unwrap(),
            "--workers",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("daemon drained (shutdown op)"), "{text}");
        assert!(text.contains("served 3, rejected 0, shed 0"), "{text}");
        assert!(text.contains("probe violations: 0"), "{text}");
        // Control acks surface in the human summary, never the stream.
        assert!(text.contains("\"op\":\"stats\""), "{text}");
        assert!(text.contains("\"queue_depth\":"), "{text}");

        // The daemon's durable stream is byte-identical to a serve-batch
        // run over the same explains: same responses, sorted by id.
        let batch_resp = dir.join("batch-resp.jsonl");
        run_cli(&[
            "serve-batch",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--requests",
            batch_reqs.to_str().unwrap(),
            "--out",
            batch_resp.to_str().unwrap(),
            "--workers",
            "1",
        ])
        .unwrap();
        assert_eq!(
            std::fs::read(&daemon_resp).unwrap(),
            std::fs::read(&batch_resp).unwrap(),
            "daemon and batch streams diverged"
        );
        let body = std::fs::read_to_string(&daemon_resp).unwrap();
        assert!(
            !body.contains("\"op\":"),
            "control lines leaked onto the durable stream:\n{body}"
        );

        // --metrics-out got the final deterministic snapshot at drain.
        let stats = std::fs::read_to_string(&metrics).unwrap();
        for key in [
            "\"served\":3",
            "\"queue_depth\":",
            "\"latency_ms\":",
            "\"rejects\":",
        ] {
            assert!(stats.contains(key), "stats file misses {key}: {stats}");
        }
    }

    #[test]
    fn serve_daemon_validates_its_transport_and_queue_flags() {
        let err = run_cli(&["serve-daemon", "--queue-capacity", "0"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--queue-capacity"), "{m}"),
            other => panic!("want usage error, got {other:?}"),
        }
        let err = run_cli(&[
            "serve-daemon",
            "--requests",
            "a.jsonl",
            "--socket",
            "b.sock",
        ])
        .unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("mutually exclusive"), "{m}"),
            other => panic!("want usage error, got {other:?}"),
        }
        let err = run_cli(&["serve-daemon", "--resume", "--ledger-dir", "x"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--resume requires --requests"), "{m}"),
            other => panic!("want usage error, got {other:?}"),
        }
    }

    #[test]
    fn serve_batch_budget_cap_limits_accepted_requests() {
        let dir = tmpdir();
        let prefix = dir.join("capped");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("capped-reqs.jsonl");
        std::fs::write(
            &reqs,
            "{\"id\": 1}\n{\"id\": 2}\n{\"id\": 3}\n{\"id\": 4}\n",
        )
        .unwrap();
        let resp = dir.join("capped-resp.jsonl");
        // Each default request costs ε = 0.3; a 0.65 cap admits exactly 2.
        let text = run_cli(&[
            "serve-batch",
            "--data",
            &format!("{prefix_s}.csv"),
            "--schema",
            &format!("{prefix_s}.schema"),
            "--requests",
            reqs.to_str().unwrap(),
            "--out",
            resp.to_str().unwrap(),
            "--workers",
            "1",
            "--budget",
            "0.65",
        ])
        .unwrap();
        assert!(text.contains("2 ok, 2 failed"), "{text}");
        assert!(text.contains("2 accepted requests"), "{text}");
        let body = std::fs::read_to_string(&resp).unwrap();
        assert_eq!(
            body.matches("budget rejected").count(),
            2,
            "rejections surface in responses:\n{body}"
        );
    }

    #[test]
    fn serve_batch_answers_duplicate_id_and_invalid_epsilon_lines() {
        let dir = tmpdir();
        let prefix = dir.join("hostile");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("hostile-reqs.jsonl");
        // id 1 is claimed, replayed (must reject, original still served),
        // and id 9 asks for a negative ε (must reject at the wire).
        std::fs::write(
            &reqs,
            concat!(
                "{\"id\": 1, \"seed\": 3}\n",
                "{\"id\": 2}\n",
                "{\"id\": 1, \"seed\": 99}\n",
                "{\"id\": 9, \"eps_cand\": -0.5}\n",
            ),
        )
        .unwrap();
        let resp = dir.join("hostile-resp.jsonl");
        let mut outputs = Vec::new();
        for workers in ["1", "3"] {
            let text = run_cli(&[
                "serve-batch",
                "--data",
                &format!("{prefix_s}.csv"),
                "--schema",
                &format!("{prefix_s}.schema"),
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp.to_str().unwrap(),
                "--workers",
                workers,
                "--budget",
                "2.0",
            ])
            .unwrap();
            assert!(text.contains("rejected 2 hostile request lines"), "{text}");
            assert!(text.contains("served 4 requests"), "{text}");
            assert!(text.contains("2 ok, 2 failed"), "{text}");
            outputs.push(std::fs::read(&resp).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "rejects broke worker determinism");
        let body = String::from_utf8(outputs[0].clone()).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4, "one answer per request line:\n{body}");
        // id 1: the original execution first, then the replay's reject —
        // echoing the id, the typed reason, and the capped headroom.
        assert!(
            lines[0].starts_with("{\"id\":1,\"ok\":true"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"id\":1,\"ok\":false"),
            "{}",
            lines[1]
        );
        assert!(
            lines[1].contains("\"reason\":\"duplicate_id\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"eps_remaining\":"), "{}", lines[1]);
        assert!(lines[1].contains("duplicate request id 1"), "{}", lines[1]);
        assert!(
            lines[2].starts_with("{\"id\":2,\"ok\":true"),
            "{}",
            lines[2]
        );
        assert!(
            lines[3].starts_with("{\"id\":9,\"ok\":false"),
            "{}",
            lines[3]
        );
        assert!(
            lines[3].contains("\"reason\":\"invalid_epsilon\""),
            "{}",
            lines[3]
        );
        assert!(lines[3].contains("\"eps_remaining\":2"), "{}", lines[3]);
    }

    #[test]
    fn serve_batch_appends_grow_the_dataset_and_always_rerun_on_resume() {
        let dir = tmpdir();
        let prefix = dir.join("grown");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        // A row of zeros is valid for every attribute (codes start at 0);
        // the CSV header tells us the arity.
        let header = std::fs::read_to_string(&csv)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_string();
        let arity = header.split(',').count();
        let row = format!("[{}]", vec!["0"; arity].join(","));
        let reqs = dir.join("grown-reqs.jsonl");
        std::fs::write(
            &reqs,
            format!(
                "{{\"id\": 1, \"n_clusters\": 3}}\n\
                 {{\"id\": 2, \"op\": \"append\", \"rows\": [{row}, {row}]}}\n\
                 {{\"id\": 3, \"n_clusters\": 3, \"seed\": 9}}\n"
            ),
        )
        .unwrap();
        // Byte-identical across worker counts, with the append as a barrier.
        let mut outputs = Vec::new();
        for workers in ["1", "3"] {
            let resp = dir.join(format!("grown-resp-{workers}.jsonl"));
            let text = run_cli(&[
                "serve-batch",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp.to_str().unwrap(),
                "--workers",
                workers,
            ])
            .unwrap();
            assert!(text.contains("3 ok, 0 failed"), "{text}");
            outputs.push(std::fs::read(&resp).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "workers 1 vs 3 diverged");
        let body = String::from_utf8(outputs[0].clone()).unwrap();
        let append_line = body.lines().find(|l| l.contains("\"id\":2")).unwrap();
        assert!(append_line.contains("\"op\":\"append\""), "{append_line}");
        assert!(append_line.contains("\"appended\":2"), "{append_line}");
        assert!(append_line.contains("\"total_rows\":402"), "{append_line}");

        // A resumed run keeps the explain lines but always re-executes the
        // append (the grown dataset lives in memory only), converging on the
        // same output without re-spending the kept explains' ε.
        let ledger = dir.join("grown-ledger");
        let resp = dir.join("grown-resp-durable.jsonl");
        let durable = |resume: bool| {
            let mut args = vec![
                "serve-batch",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp.to_str().unwrap(),
                "--workers",
                "2",
                "--ledger-dir",
                ledger.to_str().unwrap(),
            ];
            if resume {
                args.push("--resume");
            }
            run_cli(&args).unwrap()
        };
        durable(false);
        let first = std::fs::read(&resp).unwrap();
        let text = durable(true);
        assert!(
            text.contains("resumed: kept 2 previously written responses, re-ran 1"),
            "{text}"
        );
        assert!(text.contains("3 ok, 0 failed"), "{text}");
        assert_eq!(
            std::fs::read(&resp).unwrap(),
            first,
            "resume converged on the uninterrupted output"
        );
    }

    #[test]
    fn serve_batch_ledger_recovers_and_resume_completes_a_torn_run() {
        let dir = tmpdir();
        let prefix = dir.join("durable");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("durable-reqs.jsonl");
        std::fs::write(
            &reqs,
            "{\"id\": 1}\n{\"id\": 2}\n{\"id\": 3}\n{\"id\": 4}\n",
        )
        .unwrap();
        let resp = dir.join("durable-resp.jsonl");
        let ledger_dir = dir.join("durable-ledger");
        let args = |extra: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = [
                "serve-batch",
                "--data",
                &format!("{prefix_s}.csv"),
                "--schema",
                &format!("{prefix_s}.schema"),
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp.to_str().unwrap(),
                "--workers",
                "2",
                "--budget",
                "10",
                "--ledger-dir",
                ledger_dir.to_str().unwrap(),
                "--checkpoint-every",
                "3",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        let run = |extra: &[&str]| {
            let argv = args(extra);
            run_cli(&argv.iter().map(String::as_str).collect::<Vec<_>>())
        };

        let text = run(&[]).unwrap();
        assert!(text.contains("4 ok, 0 failed"), "{text}");
        assert!(text.contains("ε remaining = 8.800000"), "{text}");
        // Satellite: the summary reports per-shard ledger stats. A fresh run
        // replays nothing; with --checkpoint-every 3 one checkpoint lands.
        assert!(
            text.contains("ledger 'default': replayed 0 records (full history)"),
            "{text}"
        );
        assert!(text.contains("1 checkpoints written (0 failed)"), "{text}");
        assert!(
            ledger_dir.join("default.wal").is_file(),
            "per-dataset WAL lives under the ledger dir"
        );
        let reference = std::fs::read_to_string(&resp).unwrap();

        // Simulate a crash: keep two complete response lines plus a torn
        // third. The ledger still holds all four fsynced grants, so the
        // resumed run must reproduce the rest without any new spending.
        let mut torn: String = reference
            .lines()
            .take(2)
            .map(|l| format!("{l}\n"))
            .collect();
        torn.push_str("{\"id\":9"); // mid-write fragment, no newline
        std::fs::write(&resp, &torn).unwrap();

        let text = run(&["--resume"]).unwrap();
        assert!(
            text.contains("resumed: kept 2 previously written responses, re-ran 2"),
            "{text}"
        );
        assert!(text.contains("4 ok, 0 failed"), "{text}");
        // Replayed grants, no double-charging: spend is still 4 × 0.3.
        assert!(text.contains("spent ε = 1.200000"), "{text}");
        assert!(text.contains("ε remaining = 8.800000"), "{text}");
        // Satellite: resume output carries the ledger stats too — recovery
        // started from the checkpoint and replayed only the 1-grant tail.
        assert!(
            text.contains(
                "ledger 'default': replayed 2 records (from checkpoint (+1 tail records))"
            ),
            "{text}"
        );
        assert_eq!(
            std::fs::read_to_string(&resp).unwrap(),
            reference,
            "resume converged on the uninterrupted output"
        );
    }

    #[test]
    fn serve_batch_resume_requires_a_ledger() {
        let err = run_cli(&["serve-batch", "--resume"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--resume requires --ledger-dir"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn serve_batch_rejects_the_removed_single_file_ledger_flag() {
        let err = run_cli(&["serve-batch", "--ledger", "x.wal"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--ledger-dir"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn serve_batch_checkpoint_every_requires_a_ledger_dir() {
        let err = run_cli(&["serve-batch", "--checkpoint-every", "4"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("requires --ledger-dir"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn serve_batch_group_commit_flags_validate_and_preserve_output() {
        let dir = tmpdir();
        let prefix = dir.join("grouped");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("grouped-reqs.jsonl");
        let lines: String = (1..=6).map(|id| format!("{{\"id\": {id}}}\n")).collect();
        std::fs::write(&reqs, lines).unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        let serve = |resp: &str, ledger: &str, extra: &[&str]| {
            let mut args = vec![
                "serve-batch",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp,
                "--workers",
                "4",
                "--ledger-dir",
                ledger,
            ];
            args.extend_from_slice(extra);
            run_cli(&args).unwrap()
        };
        // Per-grant reference vs group-committed run: the response stream
        // must be byte-identical (batching changes fsync scheduling, never
        // results), and both recover to the same durable spend.
        let base_resp = dir.join("grouped-base.jsonl");
        let grouped_resp = dir.join("grouped-batched.jsonl");
        let text = serve(
            base_resp.to_str().unwrap(),
            dir.join("grouped-ledger-base").to_str().unwrap(),
            &[],
        );
        assert!(text.contains("6 ok, 0 failed"), "{text}");
        let text = serve(
            grouped_resp.to_str().unwrap(),
            dir.join("grouped-ledger-gc").to_str().unwrap(),
            &["--group-commit-max-wait-us", "2000"],
        );
        assert!(text.contains("6 ok, 0 failed"), "{text}");
        assert!(text.contains("grants/fsync"), "{text}");
        assert!(text.contains("single-flight waits"), "{text}");
        assert_eq!(
            std::fs::read(&base_resp).unwrap(),
            std::fs::read(&grouped_resp).unwrap(),
            "group commit must not change served bytes"
        );

        // The flags are durable-only.
        let err = run_cli(&["serve-batch", "--group-commit-max-batch", "8"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("require --ledger-dir"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn serve_batch_deadline_times_out_requests_without_spending() {
        let dir = tmpdir();
        let prefix = dir.join("deadline");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("deadline-reqs.jsonl");
        std::fs::write(&reqs, "{\"id\": 1}\n{\"id\": 2}\n").unwrap();
        let resp = dir.join("deadline-resp.jsonl");
        let text = run_cli(&[
            "serve-batch",
            "--data",
            &format!("{prefix_s}.csv"),
            "--schema",
            &format!("{prefix_s}.schema"),
            "--requests",
            reqs.to_str().unwrap(),
            "--out",
            resp.to_str().unwrap(),
            "--workers",
            "1",
            "--budget",
            "1.0",
            "--deadline-ms",
            "0",
        ])
        .unwrap();
        assert!(text.contains("0 ok, 2 failed"), "{text}");
        // An already-expired deadline is caught before the grant commits:
        // the requests are turned away with the cap's full headroom intact.
        assert!(text.contains("spent ε = 0.000000"), "{text}");
        assert!(text.contains("ε remaining = 1.000000"), "{text}");
        let body = std::fs::read_to_string(&resp).unwrap();
        assert_eq!(body.matches("\"reason\":\"deadline_exceeded\"").count(), 2);
        assert!(body.contains("\"eps_remaining\":"), "{body}");
    }

    #[test]
    fn serve_batch_rejects_malformed_request_files() {
        let dir = tmpdir();
        let prefix = dir.join("badreq");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "so",
            "--rows",
            "200",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("badreq.jsonl");
        std::fs::write(&reqs, "{\"id\": 1}\nnot json at all\n").unwrap();
        let err = run_cli(&[
            "serve-batch",
            "--data",
            &format!("{prefix_s}.csv"),
            "--schema",
            &format!("{prefix_s}.schema"),
            "--requests",
            reqs.to_str().unwrap(),
            "--out",
            dir.join("badreq-out.jsonl").to_str().unwrap(),
        ])
        .unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("line 2"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn report_writes_markdown_file() {
        let dir = tmpdir();
        let prefix = dir.join("rep");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "800",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        let md_path = dir.join("report.md");
        let md_path_s = md_path.to_str().unwrap();
        let text = run_cli(&[
            "report",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--clusters",
            "2",
            "--report-out",
            md_path_s,
            "--title",
            "Ward 7 clusters",
        ])
        .unwrap();
        assert!(text.contains("wrote markdown report"));
        let md = std::fs::read_to_string(md_path).unwrap();
        assert!(md.starts_with("# Ward 7 clusters"));
        assert!(md.contains("## Privacy audit"));
    }

    #[test]
    fn explain_rejects_bad_method_and_cluster_count() {
        let dir = tmpdir();
        let prefix = dir.join("tiny");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "so",
            "--rows",
            "200",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        assert!(matches!(
            run_cli(&[
                "explain",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--clusters",
                "2",
                "--method",
                "dbscan",
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli(&[
                "explain",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--clusters",
                "0"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_files_are_io_errors() {
        assert!(matches!(
            run_cli(&[
                "explain",
                "--data",
                "/nonexistent.csv",
                "--schema",
                "/nonexistent.schema",
                "--clusters",
                "2",
            ]),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        assert!(matches!(
            run_cli(&["generate", "--dataset", "mnist", "--out", "/tmp/x"]),
            Err(CliError::Usage(_))
        ));
    }
}
