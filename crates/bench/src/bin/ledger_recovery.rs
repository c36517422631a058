//! Ledger-recovery harness: how long `open()`-to-serving takes on a grant
//! history of N records, full-history replay vs checkpointed recovery, with
//! the recovered spend asserted **bit-identical** between the two before any
//! timing is trusted (a faster recovery that lands on a different ε is not a
//! result — it is a correctness bug), and equal to a left fold of the
//! generated grants.
//!
//! Emits `BENCH_ledger.json` (default `results/BENCH_ledger.json`, override
//! with `--out`):
//!
//! ```text
//! cargo run -p dpx-bench --release --bin ledger_recovery -- \
//!     --grants 10000,100000 --checkpoint-every 1000
//! ```

use dpx_bench::{Args, Json};
use dpx_dp::ledger::{CheckpointRecord, GrantRecord, LedgerWriter};
use dpx_dp::SharedAccountant;
use std::path::Path;
use std::time::Instant;

/// The grant history: one grant per request. ε varies so replay order
/// matters and the bit-exactness assertion has teeth.
fn history(n: usize) -> Vec<GrantRecord> {
    (0..n)
        .map(|i| GrantRecord::for_request(i as u64 + 1, 0.001 + (i % 17) as f64 * 0.0001))
        .collect()
}

/// The left fold of `grants`' ε in order — the spend every recovery must
/// reproduce bit for bit.
fn fold_spent(grants: &[GrantRecord]) -> f64 {
    grants.iter().fold(0.0, |acc, g| acc + g.epsilon)
}

/// The checkpoint record a live accountant would have written after the
/// first `upto` grants: the left-fold partial sum and the granted ids —
/// exactly the state `Recovery::spent` seeds its fold with.
fn checkpoint_after(grants: &[GrantRecord], upto: usize) -> CheckpointRecord {
    let prefix = &grants[..upto];
    CheckpointRecord {
        seq_spent: fold_spent(prefix),
        granted: prefix.iter().map(|g| g.request_id).collect(),
    }
}

/// Best-of-`runs` wall time of a cold open-to-serving recovery: parse and
/// CRC-check the file, then rebuild the accountant at the recovered spend.
fn time_recovery(path: &Path, runs: usize) -> (f64, f64, u64) {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut replayed = 0;
    for _ in 0..runs {
        let t0 = Instant::now();
        let (writer, recovery) = LedgerWriter::open(path).expect("ledger opens");
        let accountant = SharedAccountant::recovered(None, writer, &recovery);
        best = best.min(t0.elapsed().as_secs_f64());
        spent = accountant.spent();
        replayed = recovery.records_replayed();
    }
    (best, spent, replayed)
}

fn main() {
    let args = Args::parse();
    let sizes = args.usize_list("grants", &[10_000, 100_000]);
    let checkpoint_every = args.usize("checkpoint-every", 1_000);
    let runs = args.usize("runs", 3);
    let out = args.string("out", "results/BENCH_ledger.json");
    let dir = std::env::temp_dir().join(format!("dpx-bench-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    eprintln!(
        "# ledger_recovery: grants {sizes:?}, checkpoint every {checkpoint_every}, {runs} runs"
    );

    let mut cells = Vec::new();
    for &n in &sizes {
        let grants = history(n);

        // Full-history ledger: every grant framed on disk, no checkpoint.
        let full_path = dir.join(format!("full-{n}.wal"));
        let _ = std::fs::remove_file(&full_path);
        let (mut writer, _) = LedgerWriter::open(&full_path).expect("create full ledger");
        writer.append(&grants).expect("append full history");
        drop(writer);

        // Checkpointed ledger: the same history, compacted the way a live
        // accountant with `checkpoint_every` would leave it — one checkpoint
        // record plus the post-checkpoint grant tail.
        let tail_start = n - n % checkpoint_every.max(1);
        let tail_start = if tail_start == n && n > 0 {
            n - checkpoint_every.min(n)
        } else {
            tail_start
        };
        let ckpt_path = dir.join(format!("ckpt-{n}.wal"));
        let _ = std::fs::remove_file(&ckpt_path);
        let (mut writer, _) = LedgerWriter::open(&ckpt_path).expect("create ckpt ledger");
        writer
            .checkpoint(&checkpoint_after(&grants, tail_start))
            .expect("write checkpoint");
        writer.append(&grants[tail_start..]).expect("append tail");
        drop(writer);

        let (full_s, full_spent, full_replayed) = time_recovery(&full_path, runs);
        let (ckpt_s, ckpt_spent, ckpt_replayed) = time_recovery(&ckpt_path, runs);

        // Correctness before timing: both recoveries land on the bits of a
        // left fold over the generated grants.
        let expected = fold_spent(&grants);
        assert_eq!(
            full_spent.to_bits(),
            expected.to_bits(),
            "n={n}: full-history replay diverged from the left fold"
        );
        assert_eq!(
            ckpt_spent.to_bits(),
            expected.to_bits(),
            "n={n}: checkpointed recovery diverged from the left fold"
        );

        let speedup = full_s / ckpt_s;
        eprintln!(
            "# {n:>7} grants: full {full_s:.4}s ({full_replayed} records) vs \
             checkpointed {ckpt_s:.4}s ({ckpt_replayed} records) — {speedup:.1}x"
        );
        if n >= 100_000 {
            assert!(
                ckpt_s < full_s,
                "n={n}: checkpointed recovery ({ckpt_s}s) must beat \
                 full-history replay ({full_s}s)"
            );
        }
        let full_bytes = std::fs::metadata(&full_path).expect("stat full").len();
        let ckpt_bytes = std::fs::metadata(&ckpt_path).expect("stat ckpt").len();
        cells.push(
            Json::object()
                .field("grants", n)
                .field("full_recover_s", full_s)
                .field("full_records_replayed", full_replayed as usize)
                .field("full_wal_bytes", full_bytes as usize)
                .field("checkpointed_recover_s", ckpt_s)
                .field("checkpointed_records_replayed", ckpt_replayed as usize)
                .field("checkpointed_wal_bytes", ckpt_bytes as usize)
                .field("speedup", speedup),
        );
    }

    let doc = Json::object()
        .field("bench", "ledger_recovery")
        .field("checkpoint_every", checkpoint_every)
        .field("runs", runs)
        .field("cells", cells);

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, doc.pretty()).expect("write BENCH json");
    eprintln!("# wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
}
