//! A miniature batch checking service: generate a fleet of simulated
//! histories (directed-test-generation style), drop them in a directory
//! as an external producer would, then check the whole directory through
//! **one reusable [`Engine`]** and emit the machine-readable JSON report.
//!
//! This is the embedding recipe for CI sweeps and CLOTHO-style test
//! generation: `HistorySource` in (files here, but any source works),
//! `check_source` streaming each history into recycled arenas, `Report`
//! out.
//!
//! Run with: `cargo run --example batch_service`

use awdit::formats::DirSource;
use awdit::workloads::Uniform;
use awdit::{
    collect_source, write_awb, write_history, AnomalyRates, DbIsolation, Engine, Format,
    HistoryReport, IsolationLevel, Report, SimConfig, SimSource,
};
use std::time::Instant;

fn main() {
    // 1. A producer fills a directory with histories. Here: an RA-tier
    //    store fleet with occasional injected stale-causal snapshots, so
    //    some histories violate Causal Consistency while others pass.
    let dir = std::env::temp_dir().join(format!("awdit-batch-service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fleet directory");

    let base = SimConfig::new(DbIsolation::Causal, 6, 0).with_anomalies(AnomalyRates {
        stale_causal: 0.008,
        ..AnomalyRates::none()
    });
    let mut producer = SimSource::new(base, 150, 0..8, |_seed| Uniform::new(48, 4, 0.5));
    let fleet = collect_source(&mut producer).expect("fleet generates");
    for (i, s) in fleet.iter().enumerate() {
        // Mix text and binary producers: every other history lands as a
        // mmap-loadable `.awb` columnar file. The engine's format
        // dispatch sniffs content, so one directory can hold both.
        if i % 2 == 0 {
            let path = dir.join(format!("{}.awdit", s.name));
            std::fs::write(&path, write_history(&s.history, Format::Native))
                .expect("write history");
        } else {
            let path = dir.join(format!("{}.awb", s.name));
            std::fs::write(&path, write_awb(&s.history)).expect("write history");
        }
    }
    println!("produced {} histories in {}", fleet.len(), dir.display());

    // 2. The checking service: one engine, one directory source, one
    //    streaming pass. Each file loads straight into the engine's
    //    recycled arenas and is checked before the next is read; a
    //    `threads` knob above 1 would shard each history's parse and
    //    saturation.
    let mut engine = Engine::new();
    let mut source = DirSource::new(&dir).expect("read fleet directory");
    let started = Instant::now();
    let mut last = started;

    // 3. The report: one HistoryReport per input, built from the history
    //    the engine just ingested, serialized to the versioned JSON
    //    schema any pipeline can consume.
    let mut reports: Vec<HistoryReport> = Vec::new();
    engine
        .check_source(
            &mut source,
            Some(IsolationLevel::Causal),
            |name, history, outcomes| {
                let ms = last.elapsed().as_secs_f64() * 1e3;
                reports.push(HistoryReport::new(&name, history, &outcomes, ms));
                last = Instant::now();
            },
        )
        .expect("fleet checks");
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let report = Report::new(reports);

    let failed = report
        .histories
        .iter()
        .filter(|h| !h.is_consistent())
        .count();
    println!(
        "checked {} histories in {:.2} ms through one engine: {} consistent, {} violating",
        report.histories.len(),
        ms,
        report.histories.len() - failed,
        failed
    );
    println!(
        "engine stats: {} checks, {} arena growth events, {} KiB resident arenas",
        engine.stats().checks,
        engine.stats().arena_growths,
        engine.stats().arena_bytes / 1024
    );

    println!("\nJSON report (schema v{}):", report.schema_version);
    let json = report.to_json();
    // Print the document head; a service would ship the whole thing.
    for line in json.lines().take(24) {
        println!("{line}");
    }
    println!("...");

    let _ = std::fs::remove_dir_all(&dir);
}
