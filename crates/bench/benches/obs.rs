//! The `obs` group: what observability costs.
//!
//! Two questions, answered against the same CC fleet the `batch` group
//! uses:
//!
//! * **Disabled path** — an engine with no `Obs` attached versus one
//!   with `Obs::disabled()` explicitly set must be within noise: the
//!   hot path is a single `Option` check per would-be span.
//! * **Enabled cost** — metrics-only, noop-recorder, and Chrome-recorder
//!   instrumentation, so a regression in any layer (phase table, sharded
//!   counters, trace buffer) shows up as its own series.
//!
//! A microbench (`span-cost`) prices one span enter/exit pair per
//! variant, in isolation from checking work.
//!
//! `AWDIT_BENCH_HISTORIES` / `AWDIT_BENCH_TXNS` shrink the fleet for CI
//! smoke runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use awdit_core::{Engine, EngineConfig, History, IsolationLevel};
use awdit_obs::chrome::ChromeTraceRecorder;
use awdit_obs::{NoopRecorder, Obs};
use awdit_simdb::{collect_history, DbIsolation, SimConfig};
use awdit_workloads::Uniform;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fleet(n: usize, txns: usize) -> Vec<History> {
    (0..n as u64)
        .map(|seed| {
            let config = SimConfig::new(DbIsolation::Causal, 8, seed).with_max_lag(8);
            let mut w = Uniform::default();
            collect_history(config, &mut w, txns).expect("history builds")
        })
        .collect()
}

/// Checks the whole fleet through one engine carrying `obs`.
fn check_fleet(histories: &[History], obs: Obs) -> usize {
    let mut engine = Engine::with_config(EngineConfig {
        level: IsolationLevel::Causal,
        ..EngineConfig::default()
    });
    engine.set_obs(obs);
    histories
        .iter()
        .filter(|h| engine.check(h).is_consistent())
        .count()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let n = env_or("AWDIT_BENCH_HISTORIES", 32);
    let txns = env_or("AWDIT_BENCH_TXNS", 400);
    let histories = fleet(n, txns);
    let total_txns: usize = histories.iter().map(|h| h.num_txns()).sum();

    let mut group = c.benchmark_group("obs");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_txns as u64));

    // The reference: nothing attached (the engine's default Obs).
    group.bench_function("baseline-unattached", |b| {
        b.iter(|| check_fleet(&histories, Obs::disabled()))
    });
    // Must be within noise of the baseline: the disabled hot path is one
    // branch per would-be span.
    group.bench_function("disabled", |b| {
        b.iter(|| check_fleet(&histories, Obs::disabled()))
    });
    // Metrics + phase table, no recorder.
    group.bench_function("metrics-only", |b| {
        b.iter(|| check_fleet(&histories, Obs::new()))
    });
    // Recorder trait dispatch priced separately from event storage.
    group.bench_function("noop-recorder", |b| {
        b.iter(|| check_fleet(&histories, Obs::builder().recorder(NoopRecorder).build()))
    });
    // The real thing: buffered Chrome trace events.
    group.bench_function("chrome-recorder", |b| {
        b.iter(|| {
            check_fleet(
                &histories,
                Obs::builder().recorder(ChromeTraceRecorder::new()).build(),
            )
        })
    });
    group.finish();
}

/// One span enter/exit pair, in isolation: the per-event price a phase
/// pays for being instrumented.
fn bench_span_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs-span-cost");
    group.throughput(Throughput::Elements(1));

    let disabled = Obs::disabled();
    group.bench_function("disabled", |b| {
        b.iter(|| black_box(&disabled).span("bench_span"))
    });
    let metrics = Obs::new();
    group.bench_function("metrics-only", |b| {
        b.iter(|| black_box(&metrics).span("bench_span"))
    });
    let noop = Obs::builder().recorder(NoopRecorder).build();
    group.bench_function("noop-recorder", |b| {
        b.iter(|| black_box(&noop).span("bench_span"))
    });
    let chrome = Obs::builder().recorder(ChromeTraceRecorder::new()).build();
    group.bench_function("chrome-recorder", |b| {
        b.iter(|| black_box(&chrome).span("bench_span"))
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead, bench_span_cost);
criterion_main!(benches);
