//! The host record every run carries, and the process's peak memory.

use crate::stats::{percentile, P50};
use dpx_serve::Json;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What the numbers of a run depend on besides the code.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Sequential read bandwidth over a buffer larger than the caches, GB/s.
    pub read_gbps: f64,
    /// Median latency of a 4 KiB write + `sync_data` in the ledger directory.
    pub fsync_p50_ms: f64,
}

impl Host {
    /// Probes the host. `ledger_dir` must exist; the probe file is removed.
    pub fn probe(ledger_dir: &Path) -> std::io::Result<Host> {
        Ok(Host {
            parallelism: parallelism(),
            read_gbps: read_gbps(),
            fsync_p50_ms: fsync_p50_ms(ledger_dir)?,
        })
    }

    /// The record as JSON.
    pub fn to_json(self) -> Json {
        Json::object()
            .field("available_parallelism", self.parallelism)
            .field("read_gbps", self.read_gbps)
            .field("fsync_p50_ms", self.fsync_p50_ms)
    }
}

/// Cores the process may use.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Best of five sums over 64 MiB of `u64`s.
fn read_gbps() -> f64 {
    let words: Vec<u64> = (0..(64usize << 20) / 8).map(|i| i as u64).collect();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let sum = words.iter().fold(0u64, |acc, &w| acc.wrapping_add(w));
        std::hint::black_box(sum);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (words.len() * 8) as f64 / best / 1e9
}

/// Median of 20 × (4 KiB write, `sync_data`).
fn fsync_p50_ms(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fsync-probe");
    let mut file = File::create(&path)?;
    let block = [0x5au8; 4096];
    let mut samples = Vec::with_capacity(20);
    for _ in 0..20 {
        let start = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(percentile(&samples, P50).expect("20 samples"))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
