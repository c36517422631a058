//! # dpx-serve — the concurrent explanation service for DPClustX
//!
//! The demonstration paper presents DPClustX as an interactive *system*: many
//! analysts point sessions at shared sensitive datasets and ask for private
//! explanations. This crate is the serving layer behind that picture:
//!
//! * [`DatasetRegistry`] — named datasets, each with the state concurrent
//!   requests must share: the `Arc`'d data, one
//!   [`SharedCountsCache`](dpclustx::engine::SharedCountsCache) (requests
//!   over the same clustering reuse each other's one-pass count tables), and
//!   one [`SharedAccountant`](dpx_dp::SharedAccountant) whose check-and-spend
//!   is a single atomic operation — there is no TOCTOU window through which
//!   two racing requests could jointly breach the dataset's ε cap.
//! * [`ExplainRequest`] / [`ExplainResponse`] — the JSONL wire format. Each
//!   request carries its own seed, ε split, and weights; each response
//!   carries the explanation plus per-stage observer summaries, serialized
//!   so that sorted response lines are byte-identical for every worker
//!   count (wall-clock and scheduling-dependent fields are excluded).
//! * [`ExplainService`] — the batch executor on the runtime crate's
//!   counter-claimed job queue: requests are claimed in input order by up to
//!   N workers, responses land in input-order slots, and a panicking request
//!   fails alone while the pool keeps serving. `{"op": "append"}` requests
//!   grow a registered dataset in place — they spend no ε, refresh every
//!   served clustering's cached counts incrementally via
//!   [`ClusteredCounts::apply_delta`](dpx_data::contingency::ClusteredCounts::apply_delta)
//!   (O(|delta|), never a rebuild), and act as ordering barriers inside a
//!   batch so explains before/after an append see exactly the dataset
//!   version input order dictates.
//!
//! Crash safety rides on the DP crate's sharded write-ahead ledgers: a
//! durable registry ([`DatasetRegistry::with_shards`]) gives every dataset
//! its own accountant shard with its own WAL file and its own ledger policy
//! — cap, checkpoint cadence and group-commit window, set once in the
//! [`ShardConfig`] the shard is opened with. Each grant is fsynced before
//! the spend reports success, and each shard recovers independently on
//! restart. [`BatchOptions::granted`] lets a restarted batch skip
//! re-spending for recovered request ids, and [`ExplainService::run_batch`]
//! streams each response to an optional sink as it is produced so a crash
//! loses at most the in-flight lines. Every durable spend commits through
//! the ledger's one **group-commit** path: queued spenders' grants are
//! appended and fsynced as one batch by a leader thread, up to the
//! [`GroupCommitPolicy`](dpx_dp::GroupCommitPolicy)'s `max_batch` (a batch
//! of one without a policy), every spend still acking only after *its own*
//! record is durable. Requests are
//! deadline-bounded cooperatively: a [`CancelToken`](dpx_runtime::CancelToken)
//! minted before the spend bounds time queued in the commit window, time
//! blocked on another request's in-flight counts build, and the engine's
//! stage boundaries. A request that expires *before* its grant commits
//! answers `ok: false` with reason `deadline_exceeded` and spends no ε; one
//! that expires later keeps its reserved ε spent.
//!
//! The `dpclustx-cli serve-batch` subcommand wires this crate to files:
//! JSONL requests in, JSONL responses (sorted by id) out. For a process
//! that *stays up* — bounded per-tenant queues, typed admission rejects,
//! rolling metrics, and graceful drain — see the [`daemon`] module behind
//! `dpclustx-cli serve-daemon`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod request;
pub mod service;

pub use daemon::{
    serve_lines, serve_socket, Daemon, DaemonConfig, DaemonReply, DrainSummary, LineOutcome,
    ReplySink,
};
pub use dpx_dp::shards::{AccountantShards, ShardConfig};
pub use json::Json;
pub use metrics::MetricsRegistry;
pub use registry::{
    derive_labels, AppendSummary, DatasetEntry, DatasetRegistry, COUNTS_CACHE_MAX_ENTRIES,
};
pub use request::{
    reject_reason, ExplainRequest, ExplainResponse, RequestOp, ServedExplanation, ServedOutcome,
    StageSummary, WireReject,
};
pub use service::{
    parse_requests_lenient, reason, reject_response, BatchOptions, ExplainService, ServeError,
    StageTap,
};
