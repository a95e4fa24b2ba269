//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **CC strategy** — Algorithm 3 as written (precomputed clock table +
//!    pointer scans) vs the released tool's variant (on-the-fly clocks +
//!    binary search). The paper notes the tool uses the latter because it
//!    "performed better".
//! 2. **Minimality** — AWDIT's minimal saturation vs the Plume-style
//!    exhaustive saturation: same verdicts, vastly different edge counts
//!    (the quantity that drives the baseline's slowdown).
//!
//! Run: `cargo run --release -p awdit-bench --bin ablation [--full]`

use awdit_baselines::PlumeChecker;
use awdit_bench::{make_history, time, BenchArgs};
use awdit_core::{check, CcStrategy, Engine, EngineConfig, IsolationLevel};
use awdit_simdb::DbIsolation;
use awdit_workloads::Benchmark;

fn main() {
    let args = BenchArgs::parse();
    let txns = if args.full { 200_000 } else { 30_000 };

    println!("Ablation 1 — CC visible-writer lookup strategy ({txns} txns)\n");
    println!(
        "{:<10} {:>5} | {:>14} {:>14}",
        "workload", "sess", "pointer-scan", "binary-search"
    );
    for bench in Benchmark::ALL {
        for sessions in [25usize, 100] {
            let h = make_history(DbIsolation::Causal, bench, sessions, txns, 0xAB1A);
            let mut cells = Vec::new();
            for strategy in [CcStrategy::PointerScan, CcStrategy::BinarySearch] {
                let cfg = EngineConfig {
                    cc_strategy: strategy,
                    ..EngineConfig::default()
                };
                let (out, d) =
                    time(|| Engine::with_config(cfg).check_level(&h, IsolationLevel::Causal));
                assert!(out.is_consistent());
                cells.push(format!("{:>13.3}s", d.as_secs_f64()));
            }
            println!(
                "{:<10} {:>5} | {} {}",
                bench.name(),
                sessions,
                cells[0],
                cells[1]
            );
        }
    }

    println!("\nAblation 2 — minimal vs exhaustive saturation (edge counts)\n");
    println!(
        "{:<10} {:<4} | {:>12} {:>12} {:>8} | {:>10} {:>10}",
        "workload", "lvl", "AWDIT edges", "Plume edges", "ratio", "AWDIT t", "Plume t"
    );
    let txns2 = txns / 4;
    for bench in Benchmark::ALL {
        let h = make_history(DbIsolation::Causal, bench, 50, txns2, 0xAB1B);
        for level in IsolationLevel::ALL {
            let (out, d_a) = time(|| check(&h, level));
            assert!(out.is_consistent());
            // Construction + solve, like a real end-to-end run.
            let ((ok, stats), d_p) = time(|| PlumeChecker::construct(&h).solve_with_stats(level));
            assert!(ok);
            println!(
                "{:<10} {:<4} | {:>12} {:>12} {:>7.1}x | {:>9.3}s {:>9.3}s",
                bench.name(),
                level.short_name(),
                out.stats().graph_edges,
                stats.edges,
                stats.edges as f64 / out.stats().graph_edges.max(1) as f64,
                d_a.as_secs_f64(),
                d_p.as_secs_f64(),
            );
        }
    }
    println!(
        "\nExpected shape: both strategies agree (binary-search usually wins \
         at high session counts); exhaustive saturation inflates the edge \
         count by the factor that explains Fig. 8's gap."
    );
}
