//! Profile a batched check with the observability layer: attach an
//! [`Obs`] handle carrying a Chrome `trace_event` recorder to an
//! [`Engine`], stream a simulated fleet through `check_source`, then
//! write the trace and a Prometheus metrics snapshot to disk and print
//! the phase-level profile.
//!
//! Open the trace in `chrome://tracing` or <https://ui.perfetto.dev> to
//! see the span forest: `ingest`, then `check` wrapping
//! `read_consistency`, `index_rebuild`, `saturate_cc` (with its `cc_*`
//! sub-passes), and `cycle_extraction`, with sharded stages spread
//! across the pool's `pool_worker` threads.
//!
//! Run with: `cargo run --release --example trace_check`

use std::sync::Arc;

use awdit::obs::chrome::ChromeTraceRecorder;
use awdit::obs::Obs;
use awdit::workloads::Uniform;
use awdit::{DbIsolation, Engine, EngineConfig, IsolationLevel, SimConfig, SimSource};

fn main() {
    // 1. A fleet of Causal-tier store runs, one history per seed,
    //    generated as the engine asks for it.
    let base = SimConfig::new(DbIsolation::Causal, 8, 0).with_max_lag(8);
    let mut fleet = SimSource::new(base, 300, 0..16, |_seed| Uniform::default());

    // 2. One engine, fully instrumented: trace recorder + metrics +
    //    phase table. The pool workers inherit the handle, so the trace
    //    shows the sharded stages' parallelism.
    let recorder = Arc::new(ChromeTraceRecorder::new());
    let obs = Obs::builder().recorder_arc(recorder.clone()).build();
    let mut engine = Engine::with_config(EngineConfig {
        threads: 0, // all cores
        ..EngineConfig::default()
    });
    engine.set_obs(obs.clone());

    let started = std::time::Instant::now();
    let (mut histories, mut consistent, mut txns) = (0, 0, 0);
    engine
        .check_source(
            &mut fleet,
            Some(IsolationLevel::Causal),
            |_, history, outcomes| {
                histories += 1;
                txns += history.num_txns();
                consistent += usize::from(outcomes[0].is_consistent());
            },
        )
        .expect("fleet generates");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    println!(
        "checked {} histories ({} txns) in {:.2} ms: {} consistent, {} violating",
        histories,
        txns,
        wall_ms,
        consistent,
        histories - consistent
    );

    // 3. Ship the artifacts.
    let dir = std::env::temp_dir();
    let trace_path = dir.join("awdit_trace_check.json");
    let metrics_path = dir.join("awdit_trace_check.prom");
    recorder.write_json(&trace_path).expect("write trace");
    std::fs::write(&metrics_path, obs.export_prometheus()).expect("write metrics");
    println!("trace:   {}", trace_path.display());
    println!("metrics: {}", metrics_path.display());

    // 4. The phase profile, straight from the handle: where did the
    //    wall-clock go? (Totals sum across workers, so they can exceed
    //    wall time on a multi-core run.)
    let mut phases = obs.phase_timings();
    phases.sort_by_key(|t| std::cmp::Reverse(t.total_us));
    println!("\ntop phases by total time:");
    for t in phases.iter().take(3) {
        println!(
            "  {:<18} {:>10.3} ms across {} spans",
            t.name,
            t.total_ms(),
            t.count
        );
    }
}
