//! Budget-race stress battery: many threads hammer one accountant with
//! mixed-size requests against a hard ε cap.
//!
//! The point of [`SharedAccountant::try_spend_grant_cancellable`] is that
//! check-and-record is
//! ONE atomic operation. To show the test has teeth, the same adversarial
//! harness first drives a deliberately naive check-*then*-spend gate — the
//! TOCTOU implementation a straightforward port of the single-threaded
//! accountant would produce — and demonstrates that it overspends the cap
//! under a maximally hostile interleaving. The shipped accountant then runs
//! under the identical workloads at 1, 2, 8, and 32 threads and must never
//! exceed the cap, while recording every accepted spend exactly.

use dpx_dp::budget::{Accountant, Epsilon};
use dpx_dp::ledger::NO_REQUEST;
use dpx_dp::SharedAccountant;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

/// The cap tolerance the accountant itself uses (`check_cap` allows
/// `cap * (1 + 1e-9)` of float round-off).
const CAP_TOL: f64 = 1e-9;

/// The deliberately broken gate: `check` and `spend` are separate critical
/// sections, so between a passing check and its spend another thread can
/// spend the same headroom. This is exactly the bug `SharedAccountant`'s
/// single-lock spend closes.
struct NaiveCheckThenSpend {
    ledger: Mutex<Vec<f64>>,
    cap: f64,
}

impl NaiveCheckThenSpend {
    fn new(cap: f64) -> Self {
        NaiveCheckThenSpend {
            ledger: Mutex::new(Vec::new()),
            cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<f64>> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// First half of the race: would `eps` fit right now?
    fn check(&self, eps: f64) -> bool {
        let spent: f64 = self.lock().iter().sum();
        spent + eps <= self.cap * (1.0 + CAP_TOL)
    }

    /// Second half: record unconditionally (the check already "passed").
    fn spend(&self, eps: f64) {
        self.lock().push(eps);
    }

    fn spent(&self) -> f64 {
        self.lock().iter().sum()
    }
}

#[test]
fn naive_check_then_spend_overspends_under_contention() {
    // 8 threads race one 0.3-sized request each against a 1.0 cap. The
    // barrier between every thread's check and its spend is the adversarial
    // scheduler: all checks observe spent = 0 and pass, then all spends
    // land — 2.4 ε against a 1.0 cap. Deterministic, not just likely.
    let threads = 8;
    let gate = NaiveCheckThenSpend::new(1.0);
    let aligned = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                aligned.wait();
                let ok = gate.check(0.3);
                aligned.wait(); // hold every spend until every check passed
                if ok {
                    gate.spend(0.3);
                }
            });
        }
    });
    assert!(
        gate.spent() > 1.0 + CAP_TOL,
        "the naive gate was expected to overspend (spent {}), so this \
         harness would not detect a TOCTOU accountant",
        gate.spent()
    );
}

#[test]
fn shared_accountant_never_overspends_under_the_same_race() {
    // The exact harness that breaks the naive gate: aligned threads, one
    // 0.3 request each, cap 1.0. With an atomic spend at most ⌊1.0/0.3⌋
    // requests can ever be accepted, whatever the interleaving.
    let threads = 8;
    let accountant = SharedAccountant::with_cap(Epsilon::new(1.0).unwrap());
    let aligned = Barrier::new(threads);
    let accepted = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let accountant = &accountant;
            let aligned = &aligned;
            let accepted = &accepted;
            scope.spawn(move || {
                aligned.wait();
                if accountant
                    .try_spend_grant_cancellable(
                        NO_REQUEST,
                        format!("race/{t}"),
                        Epsilon::new(0.3).unwrap(),
                        None,
                    )
                    .is_ok()
                {
                    accepted.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    assert_eq!(accepted.load(Ordering::SeqCst), 3, "⌊1.0 / 0.3⌋ fit");
    assert!(accountant.spent() <= 1.0 * (1.0 + CAP_TOL));
    assert_eq!(accountant.num_charges(), 3);
}

/// One stress round: `threads` workers each fire `attempts` mixed-size
/// requests at a capped accountant as fast as they can. Returns the total ε
/// the workers *believe* they were granted.
fn hammer(threads: usize, attempts: usize, cap: f64, accountant: &SharedAccountant) -> f64 {
    // Mixed request sizes, co-prime-ish with the cap so acceptance order
    // actually matters near the boundary.
    let sizes = [0.01, 0.07, 0.02, 0.25, 0.05, 0.11];
    let granted = Mutex::new(0.0f64);
    let start = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let accountant = &accountant;
            let granted = &granted;
            let start = &start;
            let sizes = &sizes;
            scope.spawn(move || {
                start.wait();
                let mut mine = 0.0;
                for a in 0..attempts {
                    let eps = sizes[(t + a) % sizes.len()];
                    if accountant
                        .try_spend_grant_cancellable(
                            NO_REQUEST,
                            format!("t{t}/a{a}"),
                            Epsilon::new(eps).unwrap(),
                            None,
                        )
                        .is_ok()
                    {
                        mine += eps;
                    }
                    if a % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
                *granted.lock().unwrap_or_else(PoisonError::into_inner) += mine;
            });
        }
    });
    let total = *granted.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = cap;
    total
}

#[test]
fn stress_total_spend_never_exceeds_cap_and_every_grant_is_recorded() {
    for threads in [1, 2, 8, 32] {
        let cap = 1.0;
        let accountant = SharedAccountant::with_cap(Epsilon::new(cap).unwrap());
        let granted = hammer(threads, 64, cap, &accountant);

        // Invariant 1: the ledger never exceeds the cap (up to the
        // accountant's own float tolerance).
        assert!(
            accountant.spent() <= cap * (1.0 + CAP_TOL),
            "threads={threads}: spent {} > cap {cap}",
            accountant.spent()
        );
        // Invariant 2: everything the workers were granted is in the ledger
        // — an accepted spend is fully recorded, never lost.
        assert!(
            (accountant.spent() - granted).abs() < 1e-9,
            "threads={threads}: ledger {} != granted {granted}",
            accountant.spent()
        );
        // Invariant 3: the ledger is internally consistent — the snapshot's
        // per-charge sum is the reported spend, one entry per grant.
        let snapshot: Accountant = accountant.snapshot();
        let ledger_sum: f64 = snapshot.sequential_charges().map(|c| c.epsilon).sum();
        assert!((ledger_sum - accountant.spent()).abs() < 1e-9);
        assert_eq!(snapshot.num_charges(), accountant.num_charges());
        // Invariant 4: the cap was actually contended — the workload offered
        // far more ε than the cap admits, so near-full utilization means the
        // races were real, not a workload that never reached the boundary.
        assert!(
            accountant.spent() > cap - 0.25,
            "threads={threads}: spent only {} of cap {cap}; workload too weak",
            accountant.spent()
        );
    }
}

#[test]
fn stress_rejections_record_nothing() {
    // A cap so small that almost everything is rejected: the ledger must
    // contain only the accepted spends, and audit() must stay renderable
    // while other threads are still spending.
    let accountant = SharedAccountant::with_cap(Epsilon::new(0.05).unwrap());
    let granted = hammer(16, 32, 0.05, &accountant);
    assert!((accountant.spent() - granted).abs() < 1e-9);
    assert!(accountant.spent() <= 0.05 * (1.0 + CAP_TOL));
    let audit = accountant.audit();
    assert!(
        audit.contains("total ε"),
        "audit must render after the storm:\n{audit}"
    );
}

#[test]
fn remaining_is_monotone_and_untorn_while_spenders_race_across_shards() {
    // Satellite invariant for the sharded accountant map: concurrent
    // `remaining()`/`cap()` reads race grant writers on several
    // shards at once, and every observation must be (a) monotone
    // non-increasing per dataset and (b) un-torn — an exact multiple of the
    // single grant size, never a half-applied update. ε = 1/128 keeps every
    // reachable remaining value exactly representable, so (b) is an equality
    // check on bits, not a tolerance.
    use dpx_dp::{AccountantShards, ShardConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const EPS: f64 = 1.0 / 128.0;
    const GRANTS_PER_THREAD: usize = 64;
    let cap = Epsilon::new(1.0).unwrap();
    let shards = AccountantShards::in_memory();
    let names = ["alpha", "beta", "gamma"];
    let accountants: Vec<_> = names
        .iter()
        .map(|n| shards.open(n, ShardConfig::capped(cap)).unwrap())
        .collect();

    let done = AtomicBool::new(false);
    let barrier = Barrier::new(names.len() * 2 + names.len() + 1);
    std::thread::scope(|scope| {
        // Two spender threads per shard: together they offer exactly the cap.
        for (s, accountant) in accountants.iter().enumerate() {
            for t in 0..2 {
                let accountant = Arc::clone(accountant);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..GRANTS_PER_THREAD {
                        let id = (s * 2 + t) as u64 * 1000 + i as u64;
                        accountant
                            .try_spend_grant_cancellable(
                                id,
                                "race",
                                Epsilon::new(EPS).unwrap(),
                                None,
                            )
                            .expect("within cap");
                        if i % 8 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        }
        // One reader per shard, polling until the spenders are done.
        for accountant in &accountants {
            let accountant = Arc::clone(accountant);
            let done = &done;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let mut last = f64::INFINITY;
                let mut observations = 0u64;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    assert_eq!(accountant.cap(), Some(1.0), "cap must read stable");
                    let rem = accountant.remaining().expect("capped accountant");
                    assert!(
                        rem <= last,
                        "remaining went up: {last} -> {rem} (torn or double-counted read)"
                    );
                    let steps = (rem * 128.0).round();
                    assert_eq!(
                        rem,
                        steps / 128.0,
                        "remaining {rem} is not a whole number of ε-steps: torn read"
                    );
                    last = rem;
                    observations += 1;
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
                assert!(observations > 0);
                assert_eq!(last, 0.0, "final read must see the exhausted cap");
            });
        }
        barrier.wait();
        // scope joins the spenders before `done` would drop — but the readers
        // need the flag, so wait for the spender count via the accountants.
        while accountants
            .iter()
            .any(|a| a.num_charges() < 2 * GRANTS_PER_THREAD)
        {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });

    for accountant in &accountants {
        assert_eq!(
            accountant.spent(),
            1.0,
            "every shard filled its cap exactly"
        );
        assert_eq!(accountant.num_charges(), 2 * GRANTS_PER_THREAD);
    }
    // The shard map saw independent budgets: names and stats line up.
    assert_eq!(shards.names(), vec!["alpha", "beta", "gamma"]);
}

#[test]
fn remaining_stays_monotone_while_replay_floods_race_fresh_spends_across_shards() {
    // The replay contract under contention: a duplicate-id request rides its
    // original grant and spends NOTHING, so while replay floods hammer the
    // read side (granted-set lookups, probes, `remaining()`) and fresh
    // spenders drain the cap on several shards at once, every `remaining()`
    // observation must stay monotone non-increasing and un-torn (an exact
    // multiple of the grant size — ε = 1/128 keeps every reachable value
    // exactly representable), the victims' grants must never disappear or
    // double, and the settled spend must count the fresh traffic only once
    // and the replays not at all.
    use dpx_dp::{AccountantShards, ShardConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const EPS: f64 = 1.0 / 128.0;
    const VICTIMS: u64 = 8;
    const FRESH_PER_THREAD: usize = 60; // 2 threads x 60 + 8 victims = the cap
    let cap = Epsilon::new(1.0).unwrap();
    let shards = AccountantShards::in_memory();
    let names = ["east", "west"];
    let accountants: Vec<_> = names
        .iter()
        .map(|n| shards.open(n, ShardConfig::capped(cap)).unwrap())
        .collect();

    // Phase 1: the victims claim their grants before the flood starts.
    for accountant in &accountants {
        for id in 1..=VICTIMS {
            accountant
                .try_spend_grant_cancellable(id, "victim", Epsilon::new(EPS).unwrap(), None)
                .expect("within cap");
        }
    }

    let done = AtomicBool::new(false);
    // Per shard: 2 fresh spenders + 2 replay-flood readers, plus this thread.
    let barrier = Barrier::new(names.len() * 4 + 1);
    std::thread::scope(|scope| {
        for (s, accountant) in accountants.iter().enumerate() {
            // Fresh spenders: together they offer exactly the remaining cap.
            for t in 0..2 {
                let accountant = Arc::clone(accountant);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..FRESH_PER_THREAD {
                        let id = 10_000 + (s * 2 + t) as u64 * 1000 + i as u64;
                        accountant
                            .try_spend_grant_cancellable(
                                id,
                                "fresh",
                                Epsilon::new(EPS).unwrap(),
                                None,
                            )
                            .expect("within cap");
                        if i % 8 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            // Replay floods: hammer the paths a duplicate-id request takes —
            // the granted-set lookup that routes it to the skip-spend branch,
            // the probe, and the headroom read — and assert every observation.
            for _ in 0..2 {
                let accountant = Arc::clone(accountant);
                let done = &done;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut last = f64::INFINITY;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let granted = accountant.granted_ids();
                        for id in 1..=VICTIMS {
                            assert!(
                                granted.contains(&id),
                                "victim grant {id} vanished mid-flood"
                            );
                        }
                        let probe = accountant.probe();
                        assert_eq!(
                            probe.violations(),
                            Vec::<String>::new(),
                            "probe violations mid-flood"
                        );
                        let rem = accountant.remaining().expect("capped accountant");
                        assert!(
                            rem <= last,
                            "remaining went up: {last} -> {rem} (a replay was charged?)"
                        );
                        let steps = (rem * 128.0).round();
                        assert_eq!(
                            rem,
                            steps / 128.0,
                            "remaining {rem} is not a whole number of ε-steps: torn read"
                        );
                        last = rem;
                        if finished {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    assert_eq!(last, 0.0, "final read must see the exhausted cap");
                });
            }
        }
        barrier.wait();
        let full = VICTIMS as usize + 2 * FRESH_PER_THREAD;
        while accountants.iter().any(|a| a.num_charges() < full) {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });

    for accountant in &accountants {
        // Replays were free: the spend is the victims' ε plus each fresh
        // grant exactly once, which fills the cap bit-exactly.
        assert_eq!(accountant.spent(), 1.0, "replays must not be charged");
        assert_eq!(
            accountant.num_charges(),
            VICTIMS as usize + 2 * FRESH_PER_THREAD
        );
        let probe = accountant.probe();
        assert_eq!(probe.violations(), Vec::<String>::new());
        assert_eq!(
            probe.grants,
            VICTIMS as usize + 2 * FRESH_PER_THREAD,
            "one WAL grant per distinct id, replays ride the original"
        );
    }
    assert_eq!(shards.names(), vec!["east", "west"]);
}

#[test]
fn concurrent_first_opens_of_one_shard_converge_on_a_single_recovered_accountant() {
    // The get-or-create race in `AccountantShards::open`: many threads hit
    // the map's cold path for the SAME durable dataset at the same instant
    // (barrier-aligned, so every thread is inside `open` when the shard does
    // not exist yet). Exactly one creation may win — every caller must walk
    // away holding the SAME accountant (pointer equality, not just equal
    // state), the WAL must be recovered once with the winning config, and a
    // spend performed through any handle must be visible through all of
    // them. A second wave re-opening after a process "restart" (a fresh map
    // over the same dir) must recover the durable spend exactly once, not
    // once per racer.
    use dpx_dp::{AccountantShards, ShardConfig};
    use std::sync::Arc;

    const RACERS: usize = 16;
    let dir =
        std::env::temp_dir().join(format!("dpx-serve-shard-open-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cap = Epsilon::new(1.0).unwrap();

    // Wave 1: cold map, cold disk. All racers open "contested" plus a
    // private per-racer dataset, so the map lock sees interleaved first
    // opens of many keys while the contested key's creation races.
    let shards = AccountantShards::in_dir(&dir).unwrap();
    let barrier = Barrier::new(RACERS);
    let handles: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..RACERS)
            .map(|r| {
                let shards = &shards;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let contested = shards.open("contested", ShardConfig::capped(cap)).unwrap();
                    let private = shards
                        .open(&format!("private-{r}"), ShardConfig::capped(cap))
                        .unwrap();
                    // Every racer charges through its own handle; the grants
                    // land on one shard iff the handles are one shard.
                    contested
                        .try_spend_grant_cancellable(
                            r as u64,
                            "open-race",
                            Epsilon::new(1.0 / 32.0).unwrap(),
                            None,
                        )
                        .expect("within cap");
                    (contested, private)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    // One creation won: every handle is the same Arc, and the map holds it.
    let canonical = shards.get("contested").expect("opened");
    for (contested, private) in &handles {
        assert!(
            Arc::ptr_eq(contested, &canonical),
            "a racer got a different shard instance for the same dataset"
        );
        assert!(
            !Arc::ptr_eq(private, &canonical),
            "a private dataset aliased the contested shard"
        );
    }
    // All racers' grants landed on that one shard — none were stranded on a
    // losing instance whose WAL handle was dropped.
    assert_eq!(canonical.num_charges(), RACERS);
    assert!((canonical.spent() - RACERS as f64 / 32.0).abs() < 1e-12);
    assert_eq!(shards.names().len(), RACERS + 1, "one shard per dataset");

    // Wave 2: a fresh map over the same dir (the restart path) races the
    // first RE-open. Recovery must happen once: the spend comes back exact,
    // never doubled by a second racing recovery.
    drop(handles);
    drop(shards);
    let reopened = AccountantShards::in_dir(&dir).unwrap();
    let barrier = Barrier::new(RACERS);
    let recovered: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..RACERS)
            .map(|_| {
                let reopened = &reopened;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    reopened
                        .open("contested", ShardConfig::capped(cap))
                        .unwrap()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let canonical = &recovered[0];
    for shard in &recovered {
        assert!(Arc::ptr_eq(shard, canonical));
    }
    assert!(
        (canonical.spent() - RACERS as f64 / 32.0).abs() < 1e-12,
        "recovered spend {} must match the durable history exactly (one recovery, not {})",
        canonical.spent(),
        RACERS
    );
    // The recovered grant ids are the wave-1 racers' — replay protection
    // survives the racing reopen.
    let mut ids = canonical.granted_ids();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..RACERS as u64).collect::<Vec<_>>(),
        "grants lost or invented across the racing reopen"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
