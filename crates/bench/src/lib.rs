//! # awdit-bench — the experiment harness
//!
//! Regenerates every table and figure of the AWDIT paper's evaluation
//! (Section 5) against the workspace's simulator and baselines. One binary
//! per experiment:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig7` | Fig. 7 — small-scale comparison of all testers (CC) |
//! | `fig8` | Fig. 8 — large-scale AWDIT vs Plume across levels |
//! | `fig9` | Fig. 9 — scalability vs txns / sessions / txn size |
//! | `table1` | Table 1 — anomalies detected per history |
//! | `lower_bound` | Sec. 4 — adversarial triangle instances |
//!
//! Run e.g. `cargo run --release -p awdit-bench --bin fig7`. Every binary
//! accepts `--full` for paper-scale parameters (slower) and prints the
//! same rows/series the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::mpsc;
use std::time::{Duration, Instant};

use awdit_core::History;
use awdit_simdb::{collect_history, DbIsolation, SimConfig};
use awdit_workloads::Benchmark;

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` on a helper thread with a wall-clock budget. Returns `None` on
/// timeout (the thread is detached and its result discarded — acceptable
/// for a measurement harness).
pub fn run_with_timeout<T: Send + 'static>(
    budget: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<(T, Duration)> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let out = time(f);
        let _ = tx.send(out);
    });
    rx.recv_timeout(budget).ok()
}

/// Formats a duration like the paper's plots (seconds with ms precision).
pub fn fmt_duration(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Formats an optional duration, rendering `None` as `TIMEOUT`.
pub fn fmt_result(d: Option<Duration>) -> String {
    match d {
        Some(d) => fmt_duration(d),
        None => "TIMEOUT".to_string(),
    }
}

/// Geometric mean of a slice of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Generates a benchmark history on the simulated database — the "collect
/// a history from database X under workload Y" step of the paper's setup.
pub fn make_history(
    db: DbIsolation,
    bench: Benchmark,
    sessions: usize,
    txns: usize,
    seed: u64,
) -> History {
    let config = SimConfig::new(db, sessions, seed).with_max_lag(16);
    let mut workload = bench.build();
    collect_history(config, &mut *workload, txns).expect("simulator histories build")
}

/// Parses `--flag value`-style options shared by the harness binaries.
pub struct BenchArgs {
    /// Paper-scale parameters requested (`--full`).
    pub full: bool,
    /// Per-run timeout.
    pub timeout: Duration,
    /// Raw remaining arguments (binary-specific).
    pub rest: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        let mut full = false;
        let mut timeout = Duration::from_secs(10);
        let mut rest = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => full = true,
                "--timeout" => {
                    if let Some(v) = it.next().and_then(|s| s.parse::<u64>().ok()) {
                        timeout = Duration::from_secs(v);
                    }
                }
                other => rest.push(other.to_string()),
            }
        }
        BenchArgs {
            full,
            timeout,
            rest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values() {
        let g = geomean(&[2.0, 2.0, 2.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn timeout_machinery_works() {
        let ok = run_with_timeout(Duration::from_secs(5), || 42);
        assert_eq!(ok.map(|(v, _)| v), Some(42));
        let slow = run_with_timeout(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_secs(2));
            1
        });
        assert!(slow.is_none());
    }

    #[test]
    fn history_generation_is_deterministic() {
        let a = make_history(DbIsolation::Causal, Benchmark::Rubis, 4, 50, 9);
        let b = make_history(DbIsolation::Causal, Benchmark::Rubis, 4, 50, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(fmt_result(None), "TIMEOUT");
        assert!(fmt_result(Some(Duration::from_millis(1500))).starts_with("1.5"));
    }
}
