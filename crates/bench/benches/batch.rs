//! The `batch` group: a fleet of independent histories checked through
//! **one reusable [`Engine`]** (recycled index/graph arenas, one
//! fork–join pool) versus N **fresh per-check setups** (the stateless
//! [`check`] free function, which re-allocates everything per history) —
//! the amortization the engine API exists for.
//!
//! `AWDIT_BENCH_HISTORIES` and `AWDIT_BENCH_TXNS` (optional) override
//! the fleet size and per-history length, so CI can smoke-run the path
//! with a tiny budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use awdit_core::{check, Engine, History, IsolationLevel};
use awdit_simdb::{collect_history, DbIsolation, SimConfig};
use awdit_workloads::Uniform;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A fleet of same-shape causal histories (distinct seeds), the
/// directed-test-generation profile the batch entry point targets.
fn fleet(n: usize, txns: usize) -> Vec<History> {
    (0..n as u64)
        .map(|seed| {
            let config = SimConfig::new(DbIsolation::Causal, 8, seed).with_max_lag(8);
            let mut w = Uniform::default();
            collect_history(config, &mut w, txns).expect("history builds")
        })
        .collect()
}

fn bench_batch(c: &mut Criterion) {
    let n = env_or("AWDIT_BENCH_HISTORIES", 64);
    let txns = env_or("AWDIT_BENCH_TXNS", 400);
    let histories = fleet(n, txns);
    let total_txns: usize = histories.iter().map(|h| h.num_txns()).sum();

    let mut group = c.benchmark_group("batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_txns as u64));

    for level in [IsolationLevel::ReadCommitted, IsolationLevel::Causal] {
        // One engine for the whole fleet: arenas grown once, then recycled
        // across histories; `check_many` runs them through one pool.
        group.bench_with_input(
            BenchmarkId::new(format!("engine-reuse-{}", level.short_name()), n),
            &histories,
            |b, histories| {
                let mut engine = Engine::builder().level(level).build();
                b.iter(|| {
                    engine
                        .check_many(histories.iter())
                        .iter()
                        .filter(|o| o.is_consistent())
                        .count()
                })
            },
        );
        // The strawman: a cold free-function call per history.
        group.bench_with_input(
            BenchmarkId::new(format!("fresh-setup-{}", level.short_name()), n),
            &histories,
            |b, histories| {
                b.iter(|| {
                    histories
                        .iter()
                        .filter(|h| check(h, level).is_consistent())
                        .count()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
