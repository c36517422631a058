//! # dpclustx-cli — the DPClustX demonstration front end
//!
//! The SIGMOD demo presents DPClustX as an interactive system: load a
//! sensitive table, pick a clustering method and a privacy budget, and read
//! the private explanation. This crate is that system as a CLI:
//!
//! ```text
//! dpclustx-cli generate --dataset diabetes --rows 20000 --out patients
//! dpclustx-cli explain  --data patients.csv --schema patients.schema \
//!                   --method dp-kmeans --clusters 3 --eps-hist 0.1
//! dpclustx-cli evaluate --data patients.csv --schema patients.schema --clusters 3
//! dpclustx-cli rank     --data patients.csv --schema patients.schema --clusters 3 --cluster 0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod repl;

use std::fmt;

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Bad command-line usage; the string is a user-facing message.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Data-layer failure (CSV/schema parsing, domain violations).
    Data(dpx_data::DataError),
    /// DP pipeline failure.
    Dp(dpx_dp::DpError),
    /// Durable ε ledger failure (corrupt file, wrong magic, failed fsync).
    Ledger(dpx_dp::LedgerError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            // The kind keeps NotFound vs PermissionDenied (etc.)
            // distinguishable once the error is flattened to a log line.
            CliError::Io(e) => write!(f, "io error ({:?}): {e}", e.kind()),
            CliError::Data(e) => write!(f, "data error: {e}"),
            CliError::Dp(e) => write!(f, "privacy error: {e}"),
            CliError::Ledger(e) => write!(f, "ledger error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<dpx_data::DataError> for CliError {
    fn from(e: dpx_data::DataError) -> Self {
        CliError::Data(e)
    }
}

impl From<dpx_dp::DpError> for CliError {
    fn from(e: dpx_dp::DpError) -> Self {
        CliError::Dp(e)
    }
}

impl From<dpx_dp::LedgerError> for CliError {
    fn from(e: dpx_dp::LedgerError) -> Self {
        CliError::Ledger(e)
    }
}

/// The usage text printed by `dpclustx-cli help`.
pub const USAGE: &str = "\
dpclustx — differentially private explanations for clusters

USAGE:
  dpclustx-cli generate --dataset <diabetes|census|stackoverflow> [--rows N]
                    [--groups K] [--seed S] --out <prefix>
      Writes <prefix>.csv and <prefix>.schema with synthetic data.

  dpclustx-cli explain  --data <file.csv> --schema <file.schema> --clusters K
                    [--method <kmeans|dp-kmeans|kmodes|agglomerative|gmm>]
                    [--clust-eps E] [--eps-cand E] [--eps-comb E] [--eps-hist E]
                    [--k N] [--weights INT,SUF,DIV] [--seed S] [--timings]
      Clusters the data and prints the DP explanation with a privacy audit.
      --timings additionally prints the staged-engine report: per-stage wall
      time, ε charged per ledger label, and stage metrics; the explanation
      itself is the same with or without it.

  dpclustx-cli evaluate ... (same flags as explain)
      Additionally compares against the non-private TabEE reference
      (requires raw data access; offline analysis only).

  dpclustx-cli session  --data <file.csv> --schema <file.schema> [--budget E]
      Interactive analyst session: every command spends one shared budget.

  dpclustx-cli report   ... --report-out <file.md> [--title T]
      Writes the explanation (+ audit) as a shareable markdown report.

  dpclustx-cli serve-batch --data <file.csv> --schema <file.schema>
                    --requests <reqs.jsonl> --out <resps.jsonl>
                    [--workers N] [--budget E] [--name NAME]
                    [--ledger-dir <dir>] [--checkpoint-every N] [--resume]
                    [--deadline-ms MS] [--group-commit-max-wait-us US]
                    [--group-commit-max-batch N]
      Executes a batch of explanation requests (one JSON object per line;
      'id' required, everything else defaulted: dataset, seed, cluster_by,
      n_clusters, k, eps_cand, eps_comb, eps_hist, weights, consistency,
      deadline_ms) against the loaded dataset on an N-worker pool. All
      requests share one counts cache and one atomically-charged privacy
      accountant (--budget caps the dataset's total ε; requests that
      would breach it are rejected with nothing recorded). Responses are
      written sorted by id and are byte-identical for every --workers value.
      --ledger-dir makes accounting durable and sharded: each dataset gets
      its own write-ahead ledger (<dir>/<dataset>.wal), every grant is
      fsynced before its request runs, and a restarted serve-batch with the
      same --ledger-dir recovers each shard at its exact spend instead of
      double-charging the cap. --checkpoint-every N (requires --ledger-dir)
      compacts a shard's ledger to a single checkpoint record after every N
      grants, so recovery replays at most N records instead of the full
      history. --resume (requires --ledger-dir) additionally keeps
      already-written response lines in --out and skips re-spending for
      request ids that hold a recovered grant. The summary reports each
      shard's ledger stats (records replayed, torn bytes truncated,
      checkpoint age) alongside the ε accounting.
      Every grant commits through group commit: the first spender to reach
      the ledger leads, waits up to US microseconds (or until N grants
      queue), appends the whole batch under a single fsync, and wakes the
      others — every request still acks only after its own grant is durable.
      With neither --group-commit-max-wait-us US nor --group-commit-max-batch
      N (both require --ledger-dir) every batch holds one grant; either flag
      sets a window and the other takes its default of 0us/64, so grants
      batch only while a leader's fsync is in flight. A max batch of 0 or 1
      keeps batches of one.
      --deadline-ms bounds each request's wall clock (per-request
      'deadline_ms' overrides it), covering admission too: a request whose
      deadline expires before its grant commits is rejected with reason
      deadline_exceeded and spends NO ε; once the grant is durable, a later
      timeout keeps the reserved ε spent. A request line with 'op':'append'
      and 'rows':[[..],..] appends coded rows to the named dataset instead
      of explaining: it spends no ε, refreshes every served clustering's
      cached count tables incrementally (O(delta), never a rebuild), and is
      an ordering barrier — explains after it in the input observe the grown
      dataset. On --resume, append requests are always re-executed (they
      rebuild in-memory dataset state deterministically and for free).

  dpclustx-cli serve-daemon --data <file.csv> --schema <file.schema>
                    --out <resps.jsonl> [--requests <reqs.jsonl> | --socket <path>]
                    [--workers N] [--queue-capacity N] [--drain-deadline-ms MS]
                    [--metrics-out <stats.json>] [--metrics-every N]
                    [--budget E] [--name NAME] [--ledger-dir <dir>]
                    [--checkpoint-every N] [--resume] [--deadline-ms MS]
                    [--group-commit-max-wait-us US] [--group-commit-max-batch N]
      Runs the explanation service as a resident daemon: requests stream in
      over stdin (default), a JSONL file (--requests), or a Unix socket
      (--socket, one handler per connection, replies echoed per line), are
      admitted into a bounded per-tenant queue (--queue-capacity slots per
      dataset, round-robin dequeue), and execute on --workers threads. The
      ledger flags (--ledger-dir, --checkpoint-every, --group-commit-*) mean
      what they mean for serve-batch. Admission rejects *before* any ε is touched, each reject
      typed on the response stream: budget_exceeded (+eps_remaining) when
      the request's ε exceeds the shard's live headroom, deadline_exceeded
      when the deadline is infeasible behind the current queue at the
      rolling latency estimate, overloaded (+retry_after_ms backpressure
      hint) when the tenant's lane is full, draining once shutdown began.
      A shed id is NOT consumed — retrying the identical request after the
      hint is the contract. Two control ops answer on the transport only
      (never the durable stream): {'id':N,'op':'stats'} returns the rolling
      metrics snapshot (queue depth, p50/p99 latency, per-stage means, per-
      dataset ε burn, rejects by class; --metrics-out dumps the same JSON
      every --metrics-every completions), {'id':N,'op':'shutdown'} — or
      transport EOF, the SIGTERM-equivalent for this no-unsafe binary —
      closes admission and drains: queued work finishes under
      --drain-deadline-ms (unstarted work past it is shed at zero ε,
      in-flight work has its deadline capped), every shard ledger is
      checkpointed, and the exit summary reports served/shed/rejected, per-
      dataset ε, and accounting probe violations. Responses append-and-
      flush as they land and are rewritten sorted by id on a clean drain;
      a kill anywhere mid-drain recovers with --resume byte-identically
      (--resume requires --requests and --ledger-dir).

  dpclustx-cli rank     ... --cluster C
      Prints the exact (non-private!) ranked candidate attributes of one
      cluster — the paper's Figure 4 view, for debugging and demos.

  dpclustx-cli help
      Prints this text.
";
