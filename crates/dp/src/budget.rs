//! Privacy parameters and budget accounting.
//!
//! The paper's Algorithm 2 composes three stages — candidate-set selection
//! (`ε_CandSet`), combination selection (`ε_TopComb`) and histogram release
//! (`ε_Hist`) — via *sequential composition*, while the per-cluster histograms
//! inside the last stage compose in *parallel* because clusters are disjoint
//! (Proposition 2.1). The [`Accountant`] here makes that arithmetic explicit
//! and auditable: every mechanism invocation records a labelled charge, and the
//! total is checked against a cap so an experiment can assert, at run time,
//! that it spent exactly the ε it claims (Theorem 5.1).

use crate::error::DpError;
use crate::ledger::{CheckpointRecord, GrantRecord, LedgerWriter, Recovery, NO_REQUEST};
use dpx_runtime::faultpoint::{self, SHARD_PRE_APPEND};
use dpx_runtime::{BatchWindow, Batcher, CancelToken, Submit};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// A validated privacy parameter `ε > 0`.
///
/// `Epsilon` is a unit-like newtype: it can only be constructed through
/// [`Epsilon::new`], which rejects non-finite and non-positive values, so any
/// `Epsilon` reaching a mechanism is known-good.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a new `Epsilon`, rejecting values that are not finite and `> 0`.
    pub fn new(value: f64) -> Result<Self, DpError> {
        if value.is_finite() && value > 0.0 {
            Ok(Epsilon(value))
        } else {
            Err(DpError::InvalidEpsilon(value))
        }
    }

    /// Returns the raw `f64` value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Splits this budget into `parts` equal shares (sequential composition in
    /// reverse: running `parts` mechanisms each with the returned ε composes
    /// back to `self`). `parts == 0` is a [`DpError::InvalidSplit`] — the
    /// split is a library-level precondition, not a caller bug to panic on.
    pub fn split(self, parts: usize) -> Result<Epsilon, DpError> {
        if parts == 0 {
            return Err(DpError::InvalidSplit { parts });
        }
        // Dividing a positive finite float by a positive integer stays positive
        // and finite, so the invariant is preserved without re-validation.
        Ok(Epsilon(self.0 / parts as f64))
    }

    /// Splits this budget by an arbitrary positive fraction in `(0, 1]`.
    pub fn fraction(self, frac: f64) -> Result<Epsilon, DpError> {
        if !(frac.is_finite() && frac > 0.0 && frac <= 1.0) {
            return Err(DpError::InvalidEpsilon(self.0 * frac));
        }
        Epsilon::new(self.0 * frac)
    }

    /// Sequentially composes two budgets: a mechanism spending `self` followed
    /// by one spending `other` spends `self + other` in total.
    pub fn compose(self, other: Epsilon) -> Epsilon {
        Epsilon(self.0 + other.0)
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// The global (L1) sensitivity of a query, per Definition 2.6 of the paper.
///
/// DPClustX's whole design revolves around driving this quantity down to `1`
/// for its quality functions; the mechanisms in this crate scale their noise by
/// it.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Sensitivity(f64);

impl Sensitivity {
    /// Sensitivity 1 — the bound proved for all of DPClustX's low-sensitivity
    /// quality functions (Propositions 4.2, 4.4, 4.6, 4.8, 4.9).
    pub const ONE: Sensitivity = Sensitivity(1.0);

    /// Creates a new `Sensitivity`, rejecting values not finite and `> 0`.
    pub fn new(value: f64) -> Result<Self, DpError> {
        if value.is_finite() && value > 0.0 {
            Ok(Sensitivity(value))
        } else {
            Err(DpError::InvalidSensitivity(value))
        }
    }

    /// Returns the raw `f64` value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

/// One recorded privacy charge.
#[derive(Debug, Clone, PartialEq)]
pub struct Charge {
    /// Human-readable label, e.g. `"stage1/topk/cluster-3"`.
    pub label: String,
    /// ε spent by this charge.
    pub epsilon: f64,
    /// How this charge composes with its siblings.
    pub kind: ChargeKind,
}

/// How a charge composes with other charges in the same accountant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// Sequential composition: ε adds up.
    Sequential,
    /// Parallel composition over disjoint data partitions: within one named
    /// parallel group only the *maximum* ε counts.
    Parallel,
}

/// A position in an [`Accountant`]'s ledger, captured with
/// [`Accountant::mark`]. Passing it back to [`Accountant::charges_since`] or
/// [`Accountant::spent_since`] isolates the charges recorded after the mark —
/// how the engine's observer attributes ε to individual pipeline stages
/// without the accountant having to know about stages.
#[derive(Debug, Clone)]
pub struct LedgerMark {
    /// Number of sequential charges at mark time.
    sequential_len: usize,
    /// Member count per parallel group at mark time (groups are append-only,
    /// so groups beyond this vector's length are entirely new).
    parallel_lens: Vec<usize>,
    /// Total ε spent at mark time.
    spent: f64,
}

/// A privacy-budget accountant with an optional hard cap.
///
/// Charges tagged [`ChargeKind::Sequential`] add up; charges recorded through
/// [`Accountant::charge_parallel`] with the same group name contribute only
/// their maximum (Proposition 2.1, parallel composition). Post-processing is
/// free and therefore simply never recorded.
///
/// # Example
/// ```
/// use dpx_dp::budget::{Accountant, Epsilon};
/// let mut acc = Accountant::with_cap(Epsilon::new(0.3).unwrap());
/// acc.charge("stage1", Epsilon::new(0.1).unwrap()).unwrap();
/// acc.charge_parallel("hist/cluster", "c0", Epsilon::new(0.05).unwrap()).unwrap();
/// acc.charge_parallel("hist/cluster", "c1", Epsilon::new(0.05).unwrap()).unwrap();
/// // Parallel group counts once: total is 0.1 + 0.05, not 0.1 + 0.10.
/// assert!((acc.spent() - 0.15).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Accountant {
    cap: Option<f64>,
    sequential: Vec<Charge>,
    /// `(group, max ε seen, members)`, in group-creation order.
    parallel: Vec<(String, f64, Vec<Charge>)>,
    /// Group name → index into `parallel`. Lookup used to be a linear scan
    /// per charge — O(#groups · #charges) across a per-cluster histogram
    /// release; the map makes each charge O(1) without disturbing the
    /// creation order that `parallel` preserves.
    parallel_index: HashMap<String, usize>,
}

impl Accountant {
    /// Creates an accountant with no cap (pure bookkeeping).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an accountant that rejects charges once the total would exceed
    /// `cap`.
    pub fn with_cap(cap: Epsilon) -> Self {
        Accountant {
            cap: Some(cap.get()),
            ..Self::default()
        }
    }

    /// Total ε spent so far (sequential sum + max of each parallel group).
    pub fn spent(&self) -> f64 {
        let seq: f64 = self.sequential.iter().map(|c| c.epsilon).sum();
        let par: f64 = self.parallel.iter().map(|(_, max, _)| *max).sum();
        // `Sum for f64` folds from an identity of -0.0, so an empty ledger
        // would render as "-0.000000". Adding +0.0 flips only that sign bit;
        // every non-zero total is unchanged.
        seq + par + 0.0
    }

    /// The configured cap, if any.
    pub fn cap(&self) -> Option<f64> {
        self.cap
    }

    /// Headroom under the cap: `cap - spent`, clamped at zero. `None` when
    /// the accountant is uncapped (headroom is unbounded, not zero).
    pub fn remaining(&self) -> Option<f64> {
        self.cap.map(|cap| (cap - self.spent()).max(0.0))
    }

    /// Records a charge replayed from a durable ledger, **bypassing the cap**:
    /// recovered grants are history — the ε is already spent, and refusing to
    /// count it would under-report the true privacy loss. A recovered total at
    /// or above the cap simply leaves [`Accountant::remaining`] at zero.
    fn charge_replayed(&mut self, label: impl Into<String>, epsilon: f64) {
        self.sequential.push(Charge {
            label: label.into(),
            epsilon,
            kind: ChargeKind::Sequential,
        });
    }

    /// Snapshots the sequential sum (plus the given granted request ids) as
    /// a checkpoint record: the exact `f64` the left fold in
    /// [`Accountant::spent`] reached, so replay continues it bit-exactly.
    /// Durable accountants only ever record sequential charges.
    fn checkpoint_record(&self, granted: &[u64]) -> CheckpointRecord {
        CheckpointRecord {
            seq_spent: self.sequential.iter().map(|c| c.epsilon).sum(),
            granted: granted.to_vec(),
        }
    }

    fn check_cap(&self, extra: f64) -> Result<(), DpError> {
        if let Some(cap) = self.cap {
            let spent = self.spent();
            // A tiny tolerance absorbs float round-off from repeated splits.
            if spent + extra > cap * (1.0 + 1e-9) {
                return Err(DpError::BudgetExceeded {
                    spent,
                    requested: extra,
                    cap,
                });
            }
        }
        Ok(())
    }

    /// Records a sequentially-composing charge.
    pub fn charge(&mut self, label: impl Into<String>, eps: Epsilon) -> Result<(), DpError> {
        self.check_cap(eps.get())?;
        self.sequential.push(Charge {
            label: label.into(),
            epsilon: eps.get(),
            kind: ChargeKind::Sequential,
        });
        Ok(())
    }

    /// Records a charge belonging to the parallel-composition group `group`.
    ///
    /// All members of a group must act on *disjoint* partitions of the data
    /// (e.g. per-cluster histograms); the group then costs only its maximum ε.
    pub fn charge_parallel(
        &mut self,
        group: impl Into<String>,
        member: impl Into<String>,
        eps: Epsilon,
    ) -> Result<(), DpError> {
        let group = group.into();
        let charge = Charge {
            label: member.into(),
            epsilon: eps.get(),
            kind: ChargeKind::Parallel,
        };
        match self.parallel_index.get(&group) {
            Some(&idx) => {
                let extra = (eps.get() - self.parallel[idx].1).max(0.0);
                self.check_cap(extra)?;
                let entry = &mut self.parallel[idx];
                entry.1 = entry.1.max(eps.get());
                entry.2.push(charge);
            }
            None => {
                self.check_cap(eps.get())?;
                self.parallel_index
                    .insert(group.clone(), self.parallel.len());
                self.parallel.push((group, eps.get(), vec![charge]));
            }
        }
        Ok(())
    }

    /// Number of individual charges recorded (for audit output).
    pub fn num_charges(&self) -> usize {
        self.sequential.len() + self.parallel.iter().map(|(_, _, m)| m.len()).sum::<usize>()
    }

    /// Iterates over all sequential charges (audit trail).
    pub fn sequential_charges(&self) -> impl Iterator<Item = &Charge> {
        self.sequential.iter()
    }

    /// Iterates over parallel groups as `(group name, effective ε, members)`.
    pub fn parallel_groups(&self) -> impl Iterator<Item = (&str, f64, &[Charge])> {
        self.parallel
            .iter()
            .map(|(g, max, m)| (g.as_str(), *max, m.as_slice()))
    }

    /// Captures the current ledger position for later delta queries.
    pub fn mark(&self) -> LedgerMark {
        LedgerMark {
            sequential_len: self.sequential.len(),
            parallel_lens: self.parallel.iter().map(|(_, _, m)| m.len()).collect(),
            spent: self.spent(),
        }
    }

    /// All individual charges recorded after `mark`, in recording order
    /// (sequential charges first, then new parallel-group members). Labels of
    /// parallel members are qualified as `group/member`.
    pub fn charges_since(&self, mark: &LedgerMark) -> Vec<Charge> {
        let mut out: Vec<Charge> = self
            .sequential
            .iter()
            .skip(mark.sequential_len)
            .cloned()
            .collect();
        for (i, (group, _, members)) in self.parallel.iter().enumerate() {
            let seen = mark.parallel_lens.get(i).copied().unwrap_or(0);
            for c in members.iter().skip(seen) {
                out.push(Charge {
                    label: format!("{group}/{}", c.label),
                    epsilon: c.epsilon,
                    kind: c.kind,
                });
            }
        }
        out
    }

    /// ε spent since `mark` (accounting for parallel-composition maxima, so
    /// deltas over all stages sum to [`Accountant::spent`]).
    pub fn spent_since(&self, mark: &LedgerMark) -> f64 {
        self.spent() - mark.spent
    }

    /// Renders a human-readable audit trail of the spend.
    pub fn audit(&self) -> String {
        let mut out = String::new();
        for c in &self.sequential {
            out.push_str(&format!("  seq  {:<40} ε={}\n", c.label, c.epsilon));
        }
        for (g, max, members) in &self.parallel {
            out.push_str(&format!(
                "  par  {:<40} ε={} (max over {} members)\n",
                g,
                max,
                members.len()
            ));
        }
        out.push_str(&format!("  total ε = {}\n", self.spent()));
        out
    }
}

/// A thread-safe [`Accountant`]: many sessions spending from one shared
/// budget, with **check-and-spend as a single atomic operation**.
///
/// Concurrency turns the accountant's cap check into a privacy hazard: two
/// requests that each observe `remaining ≥ ε` and *then* record their charge
/// can together push the total past the cap — a classic TOCTOU race that
/// silently breaks the ε-DP guarantee (the composition theorem bounds the
/// *actual* total spend, not what each racer believed it to be). Here every
/// [`try_spend_grant_cancellable`](SharedAccountant::try_spend_grant_cancellable)
/// checks the cap and records (or reserves) its ε under one ledger lock, so
/// there is no window in which a second spender can sneak past a stale
/// check: the sum of all accepted charges can never exceed the cap, for any
/// interleaving.
///
/// The inner ledger stays the audited, single-threaded [`Accountant`];
/// [`snapshot`](SharedAccountant::snapshot) clones it out for audit trails
/// and [`LedgerMark`]-based delta queries.
///
/// # Durability
///
/// A [`recovered`](SharedAccountant::recovered) accountant owns a write-ahead
/// sink (see [`crate::ledger`]), and every accepted spend follows the WAL
/// rule *reserve against the cap → append+fsync → record in memory* through
/// one group-commit path. A spend only reports success once its grant is on
/// stable storage, so a crash at any instant leaves the durable record a
/// superset of every spend any caller ever saw accepted — the restart can
/// only over-count (privacy-safe), never forget.
#[derive(Debug, Default)]
struct Ledgered {
    acc: Accountant,
    sink: Option<LedgerWriter>,
    /// Request ids holding durable grants (recovered + accepted this run) —
    /// the skip-set a checkpoint must carry for resume to stay correct.
    granted: Vec<u64>,
    /// Grants appended since the last checkpoint (or since recovery).
    appends_since_checkpoint: u64,
    /// Checkpoint after this many appends (`None`: never automatically).
    checkpoint_every: Option<u64>,
    /// ε admitted to the group-commit queue but not yet charged. Admission
    /// reserves against the cap under this same lock, so concurrent
    /// enqueuers cannot jointly breach it; the batch leader converts the
    /// reservation into real charges at commit (or releases it on failure
    /// or cancellation-withdrawal).
    pending_eps: f64,
    /// Group-commit window for grant spends (`None`: batches of one).
    group_commit: Option<GroupCommitPolicy>,
    stats: LedgerStats,
}

impl Ledgered {
    /// Compacts the attached WAL to `magic + checkpoint` capturing the
    /// current accountant state. A compaction failure is recorded in the
    /// stats but does not propagate: the pre-checkpoint WAL still holds the
    /// full history, so nothing is lost — the log just stays long.
    fn checkpoint(&mut self) {
        let record = self.acc.checkpoint_record(&self.granted);
        if let Some(sink) = self.sink.as_mut() {
            match sink.checkpoint(&record) {
                Ok(()) => {
                    self.appends_since_checkpoint = 0;
                    self.stats.checkpoints_written += 1;
                }
                Err(_) => self.stats.checkpoint_failures += 1,
            }
        }
    }

    /// Records `grants` grant records made durable by **one** fsync: bumps
    /// the per-fsync observability counters and applies the auto-checkpoint
    /// policy — at most one compaction per batch, however large the batch.
    fn note_batch(&mut self, grants: u64) {
        self.stats.grants_appended += grants;
        self.stats.append_batches += 1;
        self.appends_since_checkpoint += grants;
        if let Some(every) = self.checkpoint_every {
            if self.sink.is_some() && self.appends_since_checkpoint >= every {
                self.checkpoint();
            }
        }
    }

    /// Records an accepted grant in memory. Cap-bypassing: the caller has
    /// already checked (or reserved) the ε under this lock, and a durable
    /// grant must be counted unconditionally, as replay would count it.
    fn record(&mut self, request_id: u64, label: String, eps: f64) {
        self.acc.charge_replayed(label, eps);
        if request_id != NO_REQUEST {
            self.granted.push(request_id);
        }
    }

    /// Cap check that also counts ε reserved in the group-commit queue:
    /// whatever is pending will be charged, so new admissions must fit
    /// alongside it. Identical to the plain check when nothing is pending.
    fn check_cap(&self, extra: f64) -> Result<(), DpError> {
        self.acc.check_cap(self.pending_eps + extra)
    }
}

/// Group-commit window for a durable [`SharedAccountant`]'s spend path: how
/// long the batch leader holds the commit open for followers, and for how
/// many grants. `max_batch <= 1` makes every commit a batch of one — one
/// append+fsync per grant, on the same path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitPolicy {
    /// Longest time (µs) the leader waits for followers before committing.
    pub max_wait_us: u64,
    /// Commit as soon as this many grants are queued (`<= 1`: batches of one).
    pub max_batch: u64,
}

impl GroupCommitPolicy {
    fn window(self) -> BatchWindow {
        BatchWindow {
            max_wait: Duration::from_micros(self.max_wait_us),
            max_batch: self.max_batch as usize,
        }
    }
}

/// A grant admitted to the group-commit queue, awaiting its batch.
#[derive(Debug)]
struct PendingGrant {
    request_id: u64,
    label: String,
    eps: f64,
}

/// Observability counters for a [`SharedAccountant`]'s durable ledger: what
/// recovery had to do, and what the checkpoint policy has done since. All
/// zeros for purely in-memory accountants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Records decoded during recovery (a head checkpoint counts as one).
    pub records_replayed: u64,
    /// Torn-tail bytes recovery truncated.
    pub truncated_bytes: u64,
    /// Whether recovery started from a checkpoint record.
    pub recovered_from_checkpoint: bool,
    /// Grant records that postdated the checkpoint at recovery time (the
    /// checkpoint's age; equals `records_replayed` minus the checkpoint
    /// itself when one was present).
    pub checkpoint_age_at_recovery: u64,
    /// Grants appended since the last checkpoint (or recovery).
    pub appends_since_checkpoint: u64,
    /// Checkpoints successfully written by this accountant.
    pub checkpoints_written: u64,
    /// Checkpoint attempts that failed (the WAL keeps its full history; the
    /// failure costs log length, never ε).
    pub checkpoint_failures: u64,
    /// Grant records made durable by this accountant.
    pub grants_appended: u64,
    /// Fsynced append batches (a batch of one when the policy does not
    /// group), so `grants_appended / append_batches` is the grants-per-fsync
    /// amortization factor (checkpoint compactions excluded — they are
    /// policy, not spend).
    pub append_batches: u64,
}

/// See the type-level docs above; this is the shared, lockable shell.
#[derive(Debug, Default)]
pub struct SharedAccountant {
    inner: std::sync::Mutex<Ledgered>,
    /// Leader/follower queue every durable grant spend commits through (see
    /// [`SharedAccountant::try_spend_grant_cancellable`]). Idle for
    /// in-memory accountants.
    batcher: Batcher<PendingGrant, Result<(), DpError>>,
}

impl SharedAccountant {
    /// A shared accountant with no cap (pure concurrent bookkeeping).
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared accountant that atomically rejects charges once the total
    /// would exceed `cap`.
    pub fn with_cap(cap: Epsilon) -> Self {
        SharedAccountant {
            inner: std::sync::Mutex::new(Ledgered {
                acc: Accountant::with_cap(cap),
                ..Ledgered::default()
            }),
            batcher: Batcher::new(),
        }
    }

    /// Rebuilds an accountant from a recovered ledger and keeps the writer
    /// for further durable spends. Replayed grants **bypass the cap**
    /// — they are history, and under-reporting spent ε is the one direction
    /// accounting must never err in. A recovered spend at or above the cap
    /// leaves zero headroom; it does not fail recovery.
    ///
    /// Replay is a bit-exact sequential fold: a head checkpoint seeds it
    /// with the snapshotted partial sum, and tail grants then add on in file
    /// order, so the rebuilt [`SharedAccountant::spent`] equals the
    /// pre-crash in-memory value to the last bit.
    pub fn recovered(cap: Option<Epsilon>, writer: LedgerWriter, recovery: &Recovery) -> Self {
        let mut acc = match cap {
            Some(cap) => Accountant::with_cap(cap),
            None => Accountant::new(),
        };
        let mut granted = Vec::new();
        if let Some(ckpt) = &recovery.checkpoint {
            if ckpt.seq_spent > 0.0 {
                acc.charge_replayed("ledger/checkpoint", ckpt.seq_spent);
            }
            granted.extend_from_slice(&ckpt.granted);
        }
        for grant in &recovery.grants {
            acc.charge_replayed(grant.label.clone(), grant.epsilon);
            if grant.request_id != NO_REQUEST {
                granted.push(grant.request_id);
            }
        }
        SharedAccountant {
            inner: std::sync::Mutex::new(Ledgered {
                acc,
                sink: Some(writer),
                granted,
                appends_since_checkpoint: recovery.checkpoint_age(),
                checkpoint_every: None,
                pending_eps: 0.0,
                group_commit: None,
                stats: LedgerStats {
                    records_replayed: recovery.records_replayed(),
                    truncated_bytes: recovery.truncated_bytes,
                    recovered_from_checkpoint: recovery.checkpoint.is_some(),
                    checkpoint_age_at_recovery: recovery.checkpoint_age(),
                    ..LedgerStats::default()
                },
            }),
            batcher: Batcher::new(),
        }
    }

    /// Whether a durable sink is attached.
    pub fn is_durable(&self) -> bool {
        self.lock().sink.is_some()
    }

    /// Every [`Accountant`] mutation is a cap check followed by append-only
    /// recording with no panicking operation in between, so the ledger is
    /// consistent even if a holder's thread panicked elsewhere between
    /// operations; recovering from poisoning is therefore sound, and keeps
    /// one crashed worker from wedging every other session's budget.
    fn lock(&self) -> std::sync::MutexGuard<'_, Ledgered> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Atomically checks the cap **and** records a sequential charge for
    /// `request_id` ([`NO_REQUEST`] if the spend belongs to no request):
    /// either the charge is accepted and fully recorded, or nothing is
    /// recorded and [`DpError::BudgetExceeded`] is returned. No interleaving
    /// of concurrent spends can overdraw the cap.
    ///
    /// The token is consulted **before any ε is reserved**: an
    /// already-cancelled token (e.g. an expired deadline) returns
    /// [`DpError::Cancelled`] having spent nothing. An accountant without a
    /// sink then charges directly under its lock. A durable accountant
    /// *admits* the spend (its ε reserved against the cap under the lock —
    /// concurrent admissions cannot jointly breach it) and enqueues it; the
    /// first enqueuer becomes the batch leader and commits the queue, up to
    /// the [`GroupCommitPolicy`]'s `max_batch` grants (one without a policy),
    /// with **one** append+fsync. Every spend returns only after its own
    /// record is durable — success implies durable, and a failed fsync
    /// rejects with [`DpError::LedgerWrite`] — and the batch is charged in
    /// memory in exactly the order it sits in the file, keeping recovery
    /// bit-exact.
    ///
    /// A token that cancels while the grant is still **queued** withdraws it
    /// (reservation released, nothing spent). Once the leader has drained the
    /// grant the commit is in flight and can no longer be withdrawn; the call
    /// then reports the commit's outcome — a cancellation observed *after* a
    /// durable commit is the caller's to handle (the ε is spent; grants are
    /// never refunded).
    pub fn try_spend_grant_cancellable(
        &self,
        request_id: u64,
        label: impl Into<String>,
        eps: Epsilon,
        cancel: Option<&CancelToken>,
    ) -> Result<(), DpError> {
        if let Some(reason) = cancel.and_then(CancelToken::cancel_reason) {
            return Err(DpError::Cancelled { reason });
        }
        let label = label.into();
        // Admission: check the cap and reserve, all under the accountant
        // lock, then release it before queueing so the leader can take it
        // for the commit.
        let window = {
            let mut inner = self.lock();
            inner.check_cap(eps.get())?;
            if inner.sink.is_none() {
                inner.record(request_id, label, eps.get());
                return Ok(());
            }
            inner.pending_eps += eps.get();
            inner.group_commit.unwrap_or_default().window()
        };
        let pending = PendingGrant {
            request_id,
            label,
            eps: eps.get(),
        };
        match self
            .batcher
            .submit(pending, window, cancel, |batch| self.commit_batch(batch))
        {
            Submit::Done(result) => result,
            Submit::Cancelled { item, reason } => {
                // Withdrawn before the leader drained it: release the
                // reservation — nothing was appended, nothing spent.
                let mut inner = self.lock();
                inner.pending_eps = (inner.pending_eps - item.eps).max(0.0);
                drop(inner);
                Err(DpError::Cancelled { reason })
            }
        }
    }

    /// The batch leader's commit: one append+fsync for the whole batch, then
    /// in-memory charges in file order. Runs under the accountant lock, so
    /// checkpoints serialize against it.
    fn commit_batch(&self, batch: Vec<PendingGrant>) -> Vec<Result<(), DpError>> {
        let mut inner = self.lock();
        // The reservation resolves either way: into charges on success,
        // released on failure.
        let total: f64 = batch.iter().map(|g| g.eps).sum();
        inner.pending_eps = (inner.pending_eps - total).max(0.0);
        let records: Vec<GrantRecord> = batch
            .iter()
            .map(|g| GrantRecord {
                request_id: g.request_id,
                epsilon: g.eps,
                label: g.label.clone(),
            })
            .collect();
        faultpoint::hit(SHARD_PRE_APPEND);
        let sink = inner.sink.as_mut().expect("only durable spends enqueue");
        if let Err(e) = sink.append(&records) {
            let message = e.to_string();
            return batch
                .iter()
                .map(|_| {
                    Err(DpError::LedgerWrite {
                        message: message.clone(),
                    })
                })
                .collect();
        }
        let n = batch.len();
        for grant in batch {
            inner.record(grant.request_id, grant.label, grant.eps);
        }
        inner.note_batch(n as u64);
        (0..n).map(|_| Ok(())).collect()
    }

    /// Installs (or clears) the group-commit window for
    /// [`try_spend_grant_cancellable`](Self::try_spend_grant_cancellable).
    /// `None` — or any policy with `max_batch <= 1` — commits batches of one.
    pub(crate) fn set_group_commit(&self, policy: Option<GroupCommitPolicy>) {
        self.lock().group_commit = policy;
    }

    /// Total ε spent so far.
    pub fn spent(&self) -> f64 {
        self.lock().acc.spent()
    }

    /// Headroom under the cap, clamped at zero (`None` when uncapped).
    pub fn remaining(&self) -> Option<f64> {
        self.lock().acc.remaining()
    }

    /// The configured cap, if any.
    pub fn cap(&self) -> Option<f64> {
        self.lock().acc.cap()
    }

    /// Number of individual charges recorded.
    pub fn num_charges(&self) -> usize {
        self.lock().acc.num_charges()
    }

    /// A point-in-time clone of the inner ledger (audit trails, delta
    /// queries). The clone is consistent: it can never show a charge whose
    /// cap check had not already passed.
    pub fn snapshot(&self) -> Accountant {
        self.lock().acc.clone()
    }

    /// Request ids holding grants (recovered from the ledger plus accepted
    /// this run) — the resume skip-set.
    pub fn granted_ids(&self) -> Vec<u64> {
        self.lock().granted.clone()
    }

    /// Point-in-time ledger observability counters (see [`LedgerStats`]).
    pub fn ledger_stats(&self) -> LedgerStats {
        let inner = self.lock();
        LedgerStats {
            appends_since_checkpoint: inner.appends_since_checkpoint,
            ..inner.stats
        }
    }

    /// Sets the auto-checkpoint policy: after every `every` durable appends
    /// the WAL is compacted to a single checkpoint record (`None` disables).
    /// The compaction happens inside the spend's critical section, so the
    /// checkpoint always snapshots a consistent accountant state.
    pub(crate) fn set_checkpoint_every(&self, every: Option<u64>) {
        self.lock().checkpoint_every = every;
    }

    /// Compacts the attached WAL to a checkpoint of the current state right
    /// now, regardless of policy. Returns [`DpError::LedgerWrite`] if the
    /// compaction failed (the WAL then still holds its full history — a
    /// checkpoint failure costs log length, never ε). No-op without a sink.
    pub fn checkpoint_now(&self) -> Result<(), DpError> {
        let mut inner = self.lock();
        if inner.sink.is_none() {
            return Ok(());
        }
        let failures_before = inner.stats.checkpoint_failures;
        inner.checkpoint();
        if inner.stats.checkpoint_failures > failures_before {
            return Err(DpError::LedgerWrite {
                message: "checkpoint compaction failed; WAL keeps full history".to_string(),
            });
        }
        Ok(())
    }

    /// Renders the audit trail of the spend so far.
    pub fn audit(&self) -> String {
        self.lock().acc.audit()
    }

    /// A consistency probe of the accountant, read under **one** critical
    /// section — the adversarial harness's view. Reading `spent()` and
    /// `granted_ids()` as two calls can pair a spend total with the grant
    /// list of a different instant and report a phantom violation; the probe
    /// can't.
    pub fn probe(&self) -> AccountantProbe {
        let inner = self.lock();
        let mut sorted = inner.granted.clone();
        sorted.sort_unstable();
        let mut duplicate_grant_ids: Vec<u64> = sorted
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| w[0])
            .collect();
        duplicate_grant_ids.dedup();
        AccountantProbe {
            spent: inner.acc.spent(),
            cap: inner.acc.cap(),
            pending_eps: inner.pending_eps,
            num_charges: inner.acc.num_charges(),
            grants: inner.granted.len(),
            duplicate_grant_ids,
        }
    }
}

/// A point-in-time invariant snapshot of one [`SharedAccountant`], captured
/// atomically by [`SharedAccountant::probe`]. The abuse batteries call
/// [`AccountantProbe::violations`] mid-storm and after settling; any
/// non-empty result is a privacy-accounting bug, not load.
#[derive(Debug, Clone, PartialEq)]
pub struct AccountantProbe {
    /// Total ε charged.
    pub spent: f64,
    /// The configured cap, if any.
    pub cap: Option<f64>,
    /// ε reserved in the group-commit queue but not yet charged.
    pub pending_eps: f64,
    /// Individual charges recorded.
    pub num_charges: usize,
    /// Request-id grants recorded (recovered + this run).
    pub grants: usize,
    /// Request ids holding more than one grant — always a violation: a
    /// request's ε is reserved exactly once, and replays must ride the
    /// original grant.
    pub duplicate_grant_ids: Vec<u64>,
}

impl AccountantProbe {
    /// Whether the recorded spend (plus queued reservations) breaches the
    /// cap, beyond the accountant's own float tolerance.
    pub fn cap_exceeded(&self) -> bool {
        match self.cap {
            Some(cap) => self.spent + self.pending_eps > cap * (1.0 + 1e-9),
            None => false,
        }
    }

    /// Every invariant this snapshot violates, rendered for a failure
    /// report. Empty means the accountant looked consistent at the probed
    /// instant.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.cap_exceeded() {
            out.push(format!(
                "cap exceeded: spent {} + pending {} > cap {:?}",
                self.spent, self.pending_eps, self.cap
            ));
        }
        if !self.duplicate_grant_ids.is_empty() {
            out.push(format!(
                "duplicate WAL grants for request ids {:?}",
                self.duplicate_grant_ids
            ));
        }
        if self.spent < 0.0 || self.pending_eps < 0.0 {
            out.push(format!(
                "negative accounting: spent {} pending {}",
                self.spent, self.pending_eps
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_runtime::ScratchDir;
    use std::path::PathBuf;

    #[test]
    fn epsilon_rejects_bad_values() {
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-1.0).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::new(1e-12).is_ok());
    }

    #[test]
    fn epsilon_split_and_compose_roundtrip() {
        let e = Epsilon::new(0.9).unwrap();
        let part = e.split(3).unwrap();
        assert!((part.get() - 0.3).abs() < 1e-15);
        let back = part.compose(part).compose(part);
        assert!((back.get() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn epsilon_split_zero_is_typed_error() {
        // Regression: this used to `assert!` inside the library; a malformed
        // request could bring down a whole serving process instead of
        // surfacing a per-request error.
        let err = Epsilon::new(1.0).unwrap().split(0).unwrap_err();
        assert_eq!(err, DpError::InvalidSplit { parts: 0 });
        assert!(err.to_string().contains("0 parts"));
    }

    #[test]
    fn epsilon_fraction_validates() {
        let e = Epsilon::new(1.0).unwrap();
        assert!(e.fraction(0.5).is_ok());
        assert!(e.fraction(0.0).is_err());
        assert!(e.fraction(1.5).is_err());
        assert!(e.fraction(f64::NAN).is_err());
    }

    #[test]
    fn sensitivity_rejects_bad_values() {
        assert!(Sensitivity::new(0.0).is_err());
        assert!(Sensitivity::new(-3.0).is_err());
        assert!(Sensitivity::new(f64::NAN).is_err());
        assert_eq!(Sensitivity::ONE.get(), 1.0);
    }

    #[test]
    fn accountant_sequential_sums() {
        let mut acc = Accountant::new();
        acc.charge("a", Epsilon::new(0.1).unwrap()).unwrap();
        acc.charge("b", Epsilon::new(0.2).unwrap()).unwrap();
        assert!((acc.spent() - 0.3).abs() < 1e-12);
        assert_eq!(acc.num_charges(), 2);
    }

    #[test]
    fn accountant_parallel_takes_max() {
        let mut acc = Accountant::new();
        acc.charge_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        acc.charge_parallel("hist", "c1", Epsilon::new(0.07).unwrap())
            .unwrap();
        acc.charge_parallel("hist", "c2", Epsilon::new(0.02).unwrap())
            .unwrap();
        assert!((acc.spent() - 0.07).abs() < 1e-12);
        assert_eq!(acc.num_charges(), 3);
    }

    #[test]
    fn accountant_two_parallel_groups_are_sequential_between_them() {
        let mut acc = Accountant::new();
        acc.charge_parallel("g1", "a", Epsilon::new(0.1).unwrap())
            .unwrap();
        acc.charge_parallel("g2", "b", Epsilon::new(0.2).unwrap())
            .unwrap();
        assert!((acc.spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn accountant_enforces_cap() {
        let mut acc = Accountant::with_cap(Epsilon::new(0.3).unwrap());
        acc.charge("a", Epsilon::new(0.2).unwrap()).unwrap();
        let err = acc.charge("b", Epsilon::new(0.2).unwrap()).unwrap_err();
        match err {
            DpError::BudgetExceeded { spent, cap, .. } => {
                assert!((spent - 0.2).abs() < 1e-12);
                assert!((cap - 0.3).abs() < 1e-12);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // The failed charge must not have been recorded.
        assert!((acc.spent() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn accountant_cap_parallel_only_charges_increment() {
        let mut acc = Accountant::with_cap(Epsilon::new(0.1).unwrap());
        for i in 0..100 {
            // 100 parallel members at ε=0.1 fit exactly: only the max counts.
            acc.charge_parallel("h", format!("m{i}"), Epsilon::new(0.1).unwrap())
                .unwrap();
        }
        assert!((acc.spent() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn accountant_cap_tolerates_split_roundoff() {
        // ε/3 three times must re-compose to ε within the cap, despite float error.
        let cap = Epsilon::new(0.1).unwrap();
        let mut acc = Accountant::with_cap(cap);
        let part = cap.split(3).unwrap();
        for i in 0..3 {
            acc.charge(format!("p{i}"), part).unwrap();
        }
    }

    /// A spend with no cancel token (the serving path passes one).
    fn spend(acc: &SharedAccountant, id: u64, label: &str, eps: f64) -> Result<(), DpError> {
        acc.try_spend_grant_cancellable(id, label, Epsilon::new(eps).unwrap(), None)
    }

    #[test]
    fn shared_accountant_spends_atomically_across_threads() {
        // 16 threads race 0.1-charges against a 0.5 cap: exactly 5 must be
        // accepted, and the ledger must record each accepted spend in full.
        let acc = SharedAccountant::with_cap(Epsilon::new(0.5).unwrap());
        let accepted = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..16 {
                let acc = &acc;
                let accepted = &accepted;
                scope.spawn(move || {
                    if spend(acc, NO_REQUEST, &format!("t{t}"), 0.1).is_ok() {
                        accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        let n = accepted.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(n, 5, "cap 0.5 admits exactly five 0.1 spends");
        assert_eq!(acc.num_charges(), n);
        assert!((acc.spent() - 0.5).abs() < 1e-9);
        assert!(acc.audit().contains("total"));
    }

    #[test]
    fn shared_accountant_snapshot_is_consistent() {
        let acc = SharedAccountant::new();
        spend(&acc, NO_REQUEST, "a", 0.1).unwrap();
        spend(&acc, 7, "request/7", 0.05).unwrap();
        let ledger = acc.snapshot();
        assert!((ledger.spent() - 0.15).abs() < 1e-12);
        assert_eq!(ledger.num_charges(), 2);
        assert_eq!(acc.num_charges(), 2);
        assert_eq!(acc.granted_ids(), vec![7]);
    }

    #[test]
    fn shared_accountant_rejection_records_nothing() {
        let acc = SharedAccountant::with_cap(Epsilon::new(0.2).unwrap());
        spend(&acc, NO_REQUEST, "fits", 0.15).unwrap();
        let err = spend(&acc, NO_REQUEST, "overdraws", 0.15).unwrap_err();
        assert!(matches!(err, DpError::BudgetExceeded { .. }));
        assert_eq!(acc.num_charges(), 1);
        assert!((acc.spent() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn ledger_mark_isolates_stage_charges() {
        let mut acc = Accountant::new();
        acc.charge("stage1", Epsilon::new(0.1).unwrap()).unwrap();
        let mark = acc.mark();
        assert!(acc.charges_since(&mark).is_empty());
        assert_eq!(acc.spent_since(&mark), 0.0);

        acc.charge("stage2", Epsilon::new(0.2).unwrap()).unwrap();
        acc.charge_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        acc.charge_parallel("hist", "c1", Epsilon::new(0.05).unwrap())
            .unwrap();
        let delta = acc.charges_since(&mark);
        assert_eq!(delta.len(), 3);
        assert_eq!(delta[0].label, "stage2");
        assert_eq!(delta[1].label, "hist/c0");
        assert_eq!(delta[2].label, "hist/c1");
        // Parallel group counts once: 0.2 + max(0.05, 0.05).
        assert!((acc.spent_since(&mark) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ledger_mark_sees_new_members_of_old_parallel_groups() {
        let mut acc = Accountant::new();
        acc.charge_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        let mark = acc.mark();
        acc.charge_parallel("hist", "c1", Epsilon::new(0.07).unwrap())
            .unwrap();
        let delta = acc.charges_since(&mark);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].label, "hist/c1");
        // The max rose from 0.05 to 0.07 → delta is the increment only.
        assert!((acc.spent_since(&mark) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn stage_deltas_sum_to_total_spend() {
        let mut acc = Accountant::new();
        let m0 = acc.mark();
        acc.charge("a", Epsilon::new(0.1).unwrap()).unwrap();
        let m1 = acc.mark();
        acc.charge_parallel("g", "x", Epsilon::new(0.3).unwrap())
            .unwrap();
        let m2 = acc.mark();
        acc.charge("b", Epsilon::new(0.2).unwrap()).unwrap();
        let total = acc.spent_since(&m0);
        let parts = acc.spent_since(&m0) - acc.spent_since(&m1)
            + (acc.spent_since(&m1) - acc.spent_since(&m2))
            + acc.spent_since(&m2);
        assert!((parts - total).abs() < 1e-12);
        assert!((total - 0.6).abs() < 1e-12);
    }

    #[test]
    fn remaining_reports_headroom_and_clamps() {
        let acc = SharedAccountant::with_cap(Epsilon::new(0.5).unwrap());
        assert_eq!(acc.remaining(), Some(0.5));
        spend(&acc, NO_REQUEST, "a", 0.3).unwrap();
        assert!((acc.remaining().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(SharedAccountant::new().remaining(), None);
    }

    /// `name` inside a fresh scratch dir, which lives as long as the guard.
    fn wal_path(name: &str) -> (ScratchDir, PathBuf) {
        let dir = ScratchDir::new("budget-test");
        let path = dir.join(name);
        (dir, path)
    }

    /// A durable accountant over the WAL at `path`, recovered with `cap`.
    fn durable(path: &std::path::Path, cap: f64) -> SharedAccountant {
        let (writer, recovery) = LedgerWriter::open(path).unwrap();
        SharedAccountant::recovered(Some(Epsilon::new(cap).unwrap()), writer, &recovery)
    }

    #[test]
    fn durable_spends_survive_recovery_and_skip_by_request_id() {
        let (_dir, path) = wal_path("durable.wal");
        let acc = durable(&path, 0.5);
        assert!(acc.is_durable());
        spend(&acc, 1, "request/1", 0.3).unwrap();
        // Cap rejection appends nothing to the durable log.
        assert!(spend(&acc, 2, "request/2", 0.3).is_err());
        spend(&acc, NO_REQUEST, "session", 0.1).unwrap();
        drop(acc);

        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.grants.len(), 2);
        assert_eq!(recovery.grants[0].request_id, 1);
        assert_eq!(recovery.grants[1].request_id, NO_REQUEST);
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(0.5).unwrap()), writer, &recovery);
        assert!((resumed.spent() - 0.4).abs() < 1e-12);
        assert!((resumed.remaining().unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(resumed.granted_ids(), vec![1]);
        let stats = resumed.ledger_stats();
        assert_eq!(stats.records_replayed, 2);
        assert!(!stats.recovered_from_checkpoint);
        // The replayed spend still gates new grants against the cap.
        assert!(spend(&resumed, 3, "request/3", 0.2).is_err());
        spend(&resumed, 3, "request/3", 0.1).unwrap();
    }

    #[test]
    fn replay_bypasses_cap_but_blocks_new_spends() {
        let (_dir, path) = wal_path("overcap.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        writer
            .append(&[
                GrantRecord::for_request(1, 0.4),
                GrantRecord::for_request(2, 0.4),
            ])
            .unwrap();
        drop(writer);

        // Recovered spend 0.8 exceeds the 0.5 cap: replay must not fail, but
        // headroom is zero and any new spend is rejected.
        let acc = durable(&path, 0.5);
        assert!((acc.spent() - 0.8).abs() < 1e-12);
        assert_eq!(acc.remaining(), Some(0.0));
        assert!(spend(&acc, NO_REQUEST, "more", 0.01).is_err());
    }

    /// A crash+recover chain through checkpoints reproduces the live
    /// accountant's spend to the last bit.
    #[test]
    fn checkpointed_recovery_is_bit_exact_with_live_accountant() {
        // A deliberately round-off-prone history (0.1 and 0.3 are not
        // exactly representable), including a grant that belongs to no
        // request.
        let (_dir, path) = wal_path("bitexact.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        let history = vec![
            GrantRecord::for_request(1, 0.1),
            GrantRecord {
                request_id: NO_REQUEST,
                epsilon: 0.3,
                label: "session/explain".to_string(),
            },
            GrantRecord::for_request(2, 0.1),
        ];
        writer.append(&history).unwrap();
        drop(writer);
        let acc = durable(&path, 10.0);
        acc.checkpoint_now().unwrap();
        spend(&acc, 3, "request/3", 0.1).unwrap();
        spend(&acc, 4, "request/4", 0.7).unwrap();
        spend(&acc, 5, "request/5", 0.1).unwrap();
        let live_bits = acc.spent().to_bits();
        let stats = acc.ledger_stats();
        assert_eq!(stats.checkpoints_written, 1);
        assert_eq!(stats.appends_since_checkpoint, 3);
        drop(acc);

        // "Crash": recover from the checkpointed WAL.
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert!(recovery.checkpoint.is_some());
        assert_eq!(recovery.checkpoint_age(), 3);
        assert_eq!(recovery.spent().to_bits(), live_bits, "Recovery::spent");
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        assert_eq!(resumed.spent().to_bits(), live_bits, "replayed accountant");
        let mut ids = resumed.granted_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);

        // Checkpoint again post-recovery and recover once more: the chain of
        // checkpoints stays bit-exact.
        spend(&resumed, 6, "request/6", 0.1).unwrap();
        let live_bits = resumed.spent().to_bits();
        resumed.checkpoint_now().unwrap();
        drop(resumed);
        let (_, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.records_replayed(), 1, "fully compacted");
        assert_eq!(
            durable(&path, 10.0).spent().to_bits(),
            live_bits,
            "second generation"
        );
    }

    #[test]
    fn auto_checkpoint_policy_compacts_the_wal() {
        let (_dir, path) = wal_path("autockpt.wal");
        let acc = durable(&path, 10.0);
        acc.set_checkpoint_every(Some(3));
        for id in 1..=7u64 {
            spend(&acc, id, &format!("request/{id}"), 0.1).unwrap();
        }
        let stats = acc.ledger_stats();
        assert_eq!(stats.checkpoints_written, 2, "after the 3rd and 6th grant");
        assert_eq!(
            stats.appends_since_checkpoint, 1,
            "the 7th is post-compaction"
        );
        let spent_bits = acc.spent().to_bits();
        drop(acc);

        let (_, recovery) = LedgerWriter::open(&path).unwrap();
        // 1 checkpoint + the single post-checkpoint grant, not 7 records.
        assert_eq!(recovery.records_replayed(), 2);
        assert_eq!(recovery.spent().to_bits(), spent_bits);
        let mut ids: Vec<u64> = recovery.granted_ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=7).collect::<Vec<u64>>());
    }

    #[test]
    fn group_commit_batches_grants_under_one_fsync_and_recovers_bit_exact() {
        const N: u64 = 8;
        let (_dir, path) = wal_path("group-commit.wal");
        let acc = durable(&path, 10.0);
        acc.set_group_commit(Some(GroupCommitPolicy {
            max_wait_us: 100_000,
            max_batch: N,
        }));
        let barrier = std::sync::Barrier::new(N as usize);
        std::thread::scope(|scope| {
            for id in 1..=N {
                let acc = &acc;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    acc.try_spend_grant_cancellable(
                        id,
                        format!("request/{id}"),
                        Epsilon::new(0.1).unwrap(),
                        None,
                    )
                    .unwrap();
                });
            }
        });
        let stats = acc.ledger_stats();
        assert_eq!(stats.grants_appended, N);
        assert!(
            stats.append_batches < N,
            "barrier-aligned spends must share at least one fsync \
             (got {} batches for {N} grants)",
            stats.append_batches
        );
        let mut ids = acc.granted_ids();
        ids.sort_unstable();
        assert_eq!(ids, (1..=N).collect::<Vec<u64>>());
        let live_bits = acc.spent().to_bits();
        drop(acc);

        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.spent().to_bits(), live_bits, "Recovery::spent");
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        assert_eq!(resumed.spent().to_bits(), live_bits, "replayed accountant");
        let mut ids = resumed.granted_ids();
        ids.sort_unstable();
        assert_eq!(ids, (1..=N).collect::<Vec<u64>>());
    }

    #[test]
    fn group_commit_admission_holds_cap_under_concurrency() {
        // 16 racing 0.1-spends against a 0.5 cap through the grouped path:
        // exactly 5 admitted, and the WAL holds exactly the accepted grants.
        let (_dir, path) = wal_path("group-cap.wal");
        let acc = durable(&path, 0.5);
        acc.set_group_commit(Some(GroupCommitPolicy {
            max_wait_us: 50_000,
            max_batch: 16,
        }));
        let accepted = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(16);
        std::thread::scope(|scope| {
            for id in 1..=16u64 {
                let acc = &acc;
                let accepted = &accepted;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    if acc
                        .try_spend_grant_cancellable(
                            id,
                            format!("request/{id}"),
                            Epsilon::new(0.1).unwrap(),
                            None,
                        )
                        .is_ok()
                    {
                        accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(accepted.load(std::sync::atomic::Ordering::Relaxed), 5);
        assert!((acc.spent() - 0.5).abs() < 1e-9);
        assert_eq!(acc.granted_ids().len(), 5);
        drop(acc);
        let recovery = crate::ledger::recover(&path).unwrap();
        assert_eq!(recovery.grants.len(), 5, "rejections append nothing");
        assert!((recovery.spent() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cancellable_spend_pre_checks_token_without_spending() {
        let (_dir, path) = wal_path("group-cancel.wal");
        let acc = durable(&path, 1.0);
        acc.set_group_commit(Some(GroupCommitPolicy {
            max_wait_us: 1_000,
            max_batch: 4,
        }));
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = acc
            .try_spend_grant_cancellable(1, "request/1", Epsilon::new(0.3).unwrap(), Some(&token))
            .unwrap_err();
        assert!(matches!(err, DpError::Cancelled { ref reason }
            if reason == dpx_runtime::REASON_DEADLINE));
        assert_eq!(acc.spent(), 0.0, "nothing reserved, nothing spent");
        assert_eq!(acc.ledger_stats().grants_appended, 0);
        assert!(acc.granted_ids().is_empty());
    }

    #[test]
    fn disabled_group_commit_policy_keeps_per_grant_commits() {
        let (_dir, path) = wal_path("group-off.wal");
        let acc = durable(&path, 1.0);
        // No policy at all: every commit is a batch of one.
        spend(&acc, 1, "request/1", 0.1).unwrap();
        // max_batch <= 1 means "no batching", whatever the wait says.
        acc.set_group_commit(Some(GroupCommitPolicy {
            max_wait_us: 50_000,
            max_batch: 1,
        }));
        for id in 2..=3u64 {
            spend(&acc, id, &format!("request/{id}"), 0.1).unwrap();
        }
        let stats = acc.ledger_stats();
        assert_eq!(stats.grants_appended, 3);
        assert_eq!(stats.append_batches, 3, "one fsync per grant");
    }

    #[test]
    fn zero_window_never_delays_a_solo_spend() {
        // A zero window commits at once, however large max_batch is: three
        // sequential solo spends are three batches, none waiting for
        // followers that never come.
        let (_dir, path) = wal_path("group-solo.wal");
        let acc = durable(&path, 1.0);
        acc.set_group_commit(Some(GroupCommitPolicy {
            max_wait_us: 0,
            max_batch: 64,
        }));
        let t0 = std::time::Instant::now();
        for id in 1..=3u64 {
            spend(&acc, id, &format!("request/{id}"), 0.1).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "solo spends waited on a zero window ({:?})",
            t0.elapsed()
        );
        let stats = acc.ledger_stats();
        assert_eq!(stats.grants_appended, 3);
        assert_eq!(stats.append_batches, 3, "each solo spend is its own batch");

        // A configured window means what it says, even for a solo spender.
        acc.set_group_commit(Some(GroupCommitPolicy {
            max_wait_us: 20_000,
            max_batch: 64,
        }));
        let t0 = std::time::Instant::now();
        spend(&acc, 4, "request/4", 0.1).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn group_commit_auto_checkpoints_once_per_batch() {
        let (_dir, path) = wal_path("group-ckpt.wal");
        let acc = durable(&path, 10.0);
        acc.set_checkpoint_every(Some(2));
        acc.set_group_commit(Some(GroupCommitPolicy {
            max_wait_us: 100_000,
            max_batch: 6,
        }));
        let barrier = std::sync::Barrier::new(6);
        std::thread::scope(|scope| {
            for id in 1..=6u64 {
                let acc = &acc;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    acc.try_spend_grant_cancellable(
                        id,
                        format!("request/{id}"),
                        Epsilon::new(0.1).unwrap(),
                        None,
                    )
                    .unwrap();
                });
            }
        });
        let stats = acc.ledger_stats();
        // Accounting is per batch: each fsynced batch triggers at most one
        // compaction, so checkpoints never exceed batches even though six
        // grants crossed the every-2 threshold three times.
        assert!(stats.checkpoints_written >= 1);
        assert!(stats.checkpoints_written <= stats.append_batches);
        let spent_bits = acc.spent().to_bits();
        drop(acc);
        let (_, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.spent().to_bits(), spent_bits);
        let mut ids: Vec<u64> = recovery.granted_ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=6).collect::<Vec<u64>>());
    }

    #[test]
    fn audit_mentions_labels() {
        let mut acc = Accountant::new();
        acc.charge("stage1", Epsilon::new(0.1).unwrap()).unwrap();
        acc.charge_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        let audit = acc.audit();
        assert!(audit.contains("stage1"));
        assert!(audit.contains("hist"));
        assert!(audit.contains("total"));
    }
}
