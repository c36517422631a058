//! Lifecycle tests for the resident daemon: admission semantics, control
//! ops, reply classification, and graceful drain — all through the public
//! `dpx_serve::daemon` API.

use dpx_serve::daemon::{
    serve_lines, serve_socket, Daemon, DaemonConfig, DaemonReply, LineOutcome, ReplySink,
};
use dpx_serve::{reason, reject_reason, DatasetRegistry, ExplainRequest, ShardConfig};

use dpx_data::synth::diabetes;
use dpx_dp::budget::Epsilon;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, PoisonError};

/// A registry with one sharded dataset `name` capped at `cap`.
fn registry_with(name: &str, cap: f64) -> Arc<DatasetRegistry> {
    let mut rng = StdRng::seed_from_u64(7);
    let registry = Arc::new(DatasetRegistry::new());
    let data = Arc::new(diabetes::spec(2).generate(200, &mut rng).data);
    registry
        .register_sharded(
            name,
            data,
            ShardConfig::capped(Epsilon::new(cap).expect("cap")),
        )
        .expect("in-memory shard open cannot fail");
    registry
}

fn request(id: u64, dataset: &str) -> ExplainRequest {
    let mut req = ExplainRequest::new(id);
    req.dataset = dataset.to_string();
    req.seed = 11;
    req.eps_cand = 0.1;
    req.eps_comb = 0.1;
    req.eps_hist = Some(0.1);
    req
}

/// Captured reply streams, classified the way a transport would classify
/// them: durable response lines vs transport-only control lines.
#[derive(Default)]
struct Wire {
    responses: Mutex<Vec<String>>,
    controls: Mutex<Vec<String>>,
}

impl Wire {
    fn sink(self: &Arc<Self>) -> ReplySink {
        let wire = Arc::clone(self);
        Arc::new(move |reply: DaemonReply<'_>| match reply {
            DaemonReply::Response(response) => wire
                .responses
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(response.to_json_line()),
            DaemonReply::Control(control) => wire
                .controls
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(control.render()),
        })
    }

    fn responses(&self) -> Vec<String> {
        self.responses
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn controls(&self) -> Vec<String> {
        self.controls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[test]
fn overload_rejects_do_not_consume_the_request_id() {
    let registry = registry_with("d", 10.0);
    // No workers started: the single-slot lane fills deterministically.
    let daemon = Daemon::new(
        Arc::clone(&registry),
        DaemonConfig {
            workers: 1,
            queue_capacity: 1,
            ..Default::default()
        },
    );
    let wire = Arc::new(Wire::default());
    let sink = wire.sink();

    // id 1 is admitted and queued (its reply comes only after drain).
    daemon.handle_request(request(1, "d"), &sink);
    assert!(wire.responses().is_empty(), "id 1 is queued, not answered");

    // id 2 overflows the lane: overloaded + retry hint, id NOT consumed.
    daemon.handle_request(request(2, "d"), &sink);
    let first = wire.responses().pop().expect("overload reject");
    assert!(first.contains(r#""reason":"overloaded""#), "{first}");
    assert!(first.contains(r#""retry_after_ms":"#), "{first}");

    // Retrying id 2 is another overload, not a duplicate_id: the reject
    // released the id so the client may resubmit the identical request.
    daemon.handle_request(request(2, "d"), &sink);
    let retry = wire.responses().pop().expect("overload reject again");
    assert!(retry.contains(r#""reason":"overloaded""#), "{retry}");
    assert!(
        !retry.contains(reject_reason::DUPLICATE_ID),
        "a shed id must stay retryable: {retry}"
    );

    // id 1 however *was* admitted, so re-sending it is a duplicate.
    daemon.handle_request(request(1, "d"), &sink);
    let dup = wire.responses().pop().expect("duplicate reject");
    assert!(dup.contains(r#""reason":"duplicate_id""#), "{dup}");

    // Late workers drain the queued id 1; the summary agrees with the wire.
    let workers = daemon.start();
    let summary = daemon.drain_and_join(workers);
    assert_eq!(summary.served, 1, "only id 1 ever reached a worker");
    assert!(summary.clean(), "{summary:?}");
    let served = wire
        .responses()
        .iter()
        .filter(|line| line.contains(r#""ok":true"#))
        .count();
    assert_eq!(served, 1);

    // The contract holds under contention: more retrying submitters than
    // queue slots are all eventually served, each exactly once.
    every_retrying_submitter_is_eventually_served();
}

/// Eight submitters, two requests each, race a one-slot lane. Workers start
/// only once every submitter but the queued one has been shed, so the queue
/// bound provably bites; clients that honor `retry_after_ms` then converge,
/// each id is served exactly once, and ε is spent for exactly the served
/// requests.
fn every_retrying_submitter_is_eventually_served() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Condvar;
    use std::time::Duration;

    const SUBMITTERS: u64 = 8;
    const PER_SUBMITTER: u64 = 2;
    let registry = registry_with("d", 10.0);
    let daemon = Daemon::new(
        Arc::clone(&registry),
        DaemonConfig {
            workers: 2,
            queue_capacity: 1,
            ..Default::default()
        },
    );
    let sheds = AtomicU64::new(0);
    let served = Mutex::new(Vec::new());
    let submit = |id: u64| -> (bool, Option<u64>) {
        type Slot = (Mutex<Option<(bool, Option<u64>)>>, Condvar);
        let slot: Arc<Slot> = Arc::new((Mutex::new(None), Condvar::new()));
        let sink: ReplySink = {
            let slot = Arc::clone(&slot);
            Arc::new(move |reply: DaemonReply<'_>| {
                if let DaemonReply::Response(response) = reply {
                    *slot.0.lock().unwrap_or_else(PoisonError::into_inner) =
                        Some((response.is_ok(), response.retry_after_ms));
                    slot.1.notify_all();
                }
            })
        };
        daemon.handle_request(request(id, "d"), &sink);
        let mut reply = slot.0.lock().unwrap_or_else(PoisonError::into_inner);
        while reply.is_none() {
            reply = slot.1.wait(reply).unwrap_or_else(PoisonError::into_inner);
        }
        reply.take().expect("reply recorded before wake")
    };
    let workers = std::thread::scope(|scope| {
        for s in 0..SUBMITTERS {
            let (submit, sheds, served) = (&submit, &sheds, &served);
            scope.spawn(move || {
                for id in (0..PER_SUBMITTER).map(|r| 100 + s * PER_SUBMITTER + r) {
                    loop {
                        let (ok, retry_after_ms) = submit(id);
                        if ok {
                            served.lock().unwrap().push(id);
                            break;
                        }
                        let hint = retry_after_ms.expect("a shed reply carries a retry hint");
                        sheds.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(hint.min(5)));
                    }
                }
            });
        }
        while sheds.load(Ordering::SeqCst) < SUBMITTERS - 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        daemon.start()
    });
    let summary = daemon.drain_and_join(workers);
    let total = SUBMITTERS * PER_SUBMITTER;
    let mut served = served.into_inner().unwrap();
    served.sort_unstable();
    assert_eq!(served, (100..100 + total).collect::<Vec<u64>>());
    assert_eq!(summary.served, total);
    assert!(sheds.load(Ordering::SeqCst) >= SUBMITTERS - 1);
    assert!(summary.clean(), "{summary:?}");
    let spent = registry.get("d").expect("registered").accountant().spent();
    assert!((spent - 0.3 * total as f64).abs() < 1e-9, "spent {spent}");
}

#[test]
fn budget_infeasible_requests_are_refused_at_admission_with_headroom() {
    let registry = registry_with("d", 0.2);
    let daemon = Daemon::new(Arc::clone(&registry), DaemonConfig::default());
    let wire = Arc::new(Wire::default());
    let sink = wire.sink();

    // 0.3 total ε against a 0.2 cap: hopeless, refused before queuing.
    daemon.handle_request(request(1, "d"), &sink);
    let line = wire.responses().pop().expect("admission reject");
    assert!(line.contains(r#""reason":"budget_exceeded""#), "{line}");
    assert!(line.contains(r#""eps_remaining":"#), "{line}");

    // Nothing was spent and nothing queued: drain is a clean no-op.
    let workers = daemon.start();
    let summary = daemon.drain_and_join(workers);
    assert_eq!(summary.served, 0);
    let entry = registry.get("d").expect("registered");
    assert_eq!(entry.accountant().spent(), 0.0);
}

#[test]
fn serve_lines_classifies_control_traffic_off_the_durable_stream() {
    let registry = registry_with("d", 10.0);
    let daemon = Daemon::new(Arc::clone(&registry), DaemonConfig::default());
    let wire = Arc::new(Wire::default());
    let sink = wire.sink();
    let workers = daemon.start();

    let mut input = String::new();
    input.push('\n'); // blank: ignored
    input.push_str("this is not json\n"); // id-less bad line: control error
    input.push_str("{\"id\":5,\"op\":\"stats\"}\n");
    input.push_str(&request(1, "d").to_json_line());
    input.push('\n');
    input.push_str("{\"id\":9,\"op\":\"shutdown\"}\n");
    input.push_str(&request(2, "d").to_json_line()); // after shutdown: unread
    input.push('\n');

    serve_lines(&daemon, input.as_bytes(), &sink, &HashSet::new()).expect("in-memory transport");
    let summary = daemon.drain_and_join(workers);
    assert_eq!(summary.drain_reason, "shutdown op");
    assert!(summary.clean(), "{summary:?}");

    let responses = wire.responses();
    assert_eq!(
        responses.len(),
        1,
        "only id 1 belongs on the durable stream"
    );
    assert!(responses[0].contains(r#""id":1"#), "{:?}", responses);
    assert!(responses[0].contains(r#""ok":true"#), "{:?}", responses);

    let controls = wire.controls();
    assert_eq!(controls.len(), 3, "bad line, stats ack, shutdown ack");
    assert!(
        controls[0].contains(reject_reason::BAD_LINE),
        "{controls:?}"
    );
    let stats = controls
        .iter()
        .find(|c| c.contains(r#""op":"stats""#))
        .expect("stats ack");
    for key in [
        "\"draining\":",
        "\"workers\":",
        "\"queue_depth\":",
        "\"served\":",
        "\"shed\":",
        "\"rejected\":",
        "\"latency_ms\":",
        "\"rejects\":",
        "\"stages\":",
        "\"datasets\":",
    ] {
        assert!(stats.contains(key), "stats snapshot misses {key}: {stats}");
    }
    let shutdown = controls
        .iter()
        .find(|c| c.contains(r#""op":"shutdown""#))
        .expect("shutdown ack");
    assert!(shutdown.contains(r#""draining":true"#), "{shutdown}");
}

#[test]
fn draining_daemon_refuses_new_admissions_with_a_typed_reason() {
    let registry = registry_with("d", 10.0);
    let daemon = Daemon::new(Arc::clone(&registry), DaemonConfig::default());
    let wire = Arc::new(Wire::default());
    let sink = wire.sink();
    let workers = daemon.start();

    assert_eq!(
        daemon.handle_line("{\"id\":9,\"op\":\"shutdown\"}", &sink),
        LineOutcome::ShutdownRequested
    );
    daemon.handle_request(request(1, "d"), &sink);
    let line = wire.responses().pop().expect("draining reject");
    assert!(line.contains(reason::DRAINING), "{line}");

    let summary = daemon.drain_and_join(workers);
    assert_eq!(summary.served, 0);
    assert_eq!(summary.rejected, 1);
}

#[test]
fn socket_transport_round_trips_and_forwards_only_responses_durably() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("dpx-daemon-sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("daemon.sock");

    let registry = registry_with("d", 10.0);
    let daemon = Daemon::new(Arc::clone(&registry), DaemonConfig::default());
    let wire = Arc::new(Wire::default());
    let durable = wire.sink();
    let workers = daemon.start();

    let summary = std::thread::scope(|scope| {
        let acceptor = {
            let daemon = &daemon;
            let durable = durable.clone();
            let path = path.clone();
            scope.spawn(move || serve_socket(daemon, &path, &durable))
        };
        // The acceptor owns binding the socket; wait for the file to appear.
        for _ in 0..200 {
            if path.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let mut client = UnixStream::connect(&path).expect("connect");
        let mut lines = String::new();
        lines.push_str(&request(1, "d").to_json_line());
        lines.push('\n');
        lines.push_str("{\"id\":5,\"op\":\"stats\"}\n");
        lines.push_str("{\"id\":9,\"op\":\"shutdown\"}\n");
        client.write_all(lines.as_bytes()).expect("send");

        // The client's echo stream carries every reply class: the served
        // response for id 1, the stats snapshot, and the shutdown ack.
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        let mut echoed = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("echo line");
            echoed.push(line);
        }
        assert!(
            echoed
                .iter()
                .any(|l| l.contains(r#""id":1"#) && l.contains(r#""ok":true"#)),
            "{echoed:?}"
        );
        assert!(
            echoed.iter().any(|l| l.contains(r#""op":"stats""#)),
            "{echoed:?}"
        );
        assert!(
            echoed.iter().any(|l| l.contains(r#""op":"shutdown""#)),
            "{echoed:?}"
        );

        acceptor
            .join()
            .expect("acceptor thread")
            .expect("socket loop");
        daemon.drain_and_join(workers)
    });
    assert_eq!(summary.drain_reason, "shutdown op");
    assert_eq!(summary.served, 1);
    assert!(summary.clean(), "{summary:?}");
    assert!(!path.exists(), "socket file is removed on drain");

    // Only the served response reached the durable sink; both control acks
    // stayed on the transport.
    let responses = wire.responses();
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert!(responses[0].contains(r#""id":1"#));
    assert!(wire.controls().is_empty(), "{:?}", wire.controls());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_lines_skips_resumed_ids_without_consuming_them() {
    let registry = registry_with("d", 10.0);
    let daemon = Daemon::new(Arc::clone(&registry), DaemonConfig::default());
    let wire = Arc::new(Wire::default());
    let sink = wire.sink();
    let workers = daemon.start();

    let mut input = String::new();
    input.push_str(&request(1, "d").to_json_line());
    input.push('\n');
    input.push_str(&request(2, "d").to_json_line());
    input.push('\n');

    // id 1 was already answered by the previous (crashed) run: skip it.
    let skip: HashSet<u64> = [1].into_iter().collect();
    serve_lines(&daemon, input.as_bytes(), &sink, &skip).expect("in-memory transport");
    let summary = daemon.drain_and_join(workers);
    assert_eq!(summary.drain_reason, "transport closed", "EOF drains too");
    assert_eq!(summary.served, 1);

    let responses = wire.responses();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains(r#""id":2"#), "{:?}", responses);
}
