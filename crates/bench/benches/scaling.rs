//! Criterion benches for the Fig. 9 scaling axes (transactions, sessions,
//! transaction size) at micro scale, plus thread scaling of CC saturation
//! and of the worker pool's dispatch.
//!
//! `AWDIT_BENCH_TXNS` (optional) overrides the thread-scaling history
//! size, and `AWDIT_BENCH_THREADS` (comma-separated, default `1,2,4,8`)
//! the swept thread counts, so CI can smoke-run the perf path with a tiny
//! budget. CC saturation is bit-identical across thread counts — only
//! wall-clock should move.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use awdit_bench::make_history;
use awdit_core::parallel::{map_shards, Pool};
use awdit_core::{check, saturate_cc_into, ClockTable, CommitGraph, HistoryIndex, IsolationLevel};
use awdit_simdb::{collect_history, DbIsolation, SimConfig};
use awdit_workloads::{Benchmark, Uniform};

/// Thread counts for the per-stage sweeps: `AWDIT_BENCH_THREADS=1,2,8`.
fn thread_counts() -> Vec<usize> {
    std::env::var("AWDIT_BENCH_THREADS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

fn scaling_txns(default: usize) -> usize {
    std::env::var("AWDIT_BENCH_TXNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn bench_txn_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale-txns-cc");
    group.sample_size(10);
    for txns in [1024usize, 2048, 4096, 8192] {
        let h = make_history(DbIsolation::Causal, Benchmark::CTwitter, 50, txns, 7);
        group.throughput(Throughput::Elements(h.size() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(txns), &h, |b, h| {
            b.iter(|| check(h, IsolationLevel::Causal).is_consistent())
        });
    }
    group.finish();
}

fn bench_session_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale-sessions");
    group.sample_size(10);
    for sessions in [10usize, 25, 50, 100] {
        let h = make_history(DbIsolation::Causal, Benchmark::CTwitter, sessions, 4096, 8);
        for level in [IsolationLevel::ReadAtomic, IsolationLevel::Causal] {
            group.bench_with_input(
                BenchmarkId::new(level.short_name(), sessions),
                &h,
                |b, h| b.iter(|| check(h, level).is_consistent()),
            );
        }
    }
    group.finish();
}

fn bench_txn_size_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale-txnsize-fixed-ops");
    group.sample_size(10);
    let total_ops = 65_536usize;
    for size in [8usize, 16, 32, 64] {
        let config = SimConfig::new(DbIsolation::Causal, 50, 9).with_max_lag(16);
        let mut w = Uniform::new(2_000, size, 0.5);
        let h = collect_history(config, &mut w, total_ops / size).expect("history builds");
        group.bench_with_input(BenchmarkId::from_parameter(size), &h, |b, h| {
            b.iter(|| check(h, IsolationLevel::ReadAtomic).is_consistent())
        });
    }
    group.finish();
}

/// Thread scaling of the CC saturation on a wide 64-session uniform
/// history: 1/2/4/8 worker threads over the identical index, with the
/// graph and clock arenas recycled across iterations as the engine does
/// (the outputs are bit-identical; only wall-clock should move).
fn bench_cc_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale-threads-cc-saturation");
    group.sample_size(10);
    let txns = scaling_txns(20_000);
    let config = SimConfig::new(DbIsolation::Causal, 64, 11).with_max_lag(16);
    let mut w = Uniform::default();
    let h = collect_history(config, &mut w, txns).expect("history builds");
    let index = HistoryIndex::new(&h);
    group.throughput(Throughput::Elements(index.num_committed() as u64));
    for threads in thread_counts() {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &index, |b, index| {
            let mut g = CommitGraph::new(0);
            let mut clocks = ClockTable::new();
            b.iter(|| {
                saturate_cc_into(&pool, index, threads, &mut g, &mut clocks).expect("acyclic base");
                g.num_emitted_edges()
            })
        });
    }
    group.finish();
}

/// Pure dispatch overhead: forking and joining a trivial shard set via a
/// fresh `std::thread::scope` spawn per iteration versus a single warm
/// [`Pool`]. The shard work is near-zero on purpose — the measurement is
/// the fork–join machinery itself, which is what every narrow pipeline
/// stage pays per call. The warm pool should win by well over the 5×
/// the roadmap asks for once `threads > 1` (at `threads = 1` both paths
/// degenerate to an inline loop).
fn bench_dispatch_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch-overhead");
    let shards: Vec<u64> = (0..64).collect();
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::new("scoped-spawn", threads),
            &shards,
            |b, shards| {
                b.iter(|| {
                    // What every stage used to do: spawn, deal, join.
                    let workers = threads.min(shards.len()).max(1);
                    if workers <= 1 {
                        return shards.iter().map(|&x| x ^ 1).sum::<u64>();
                    }
                    let next = std::sync::atomic::AtomicUsize::new(0);
                    let total = std::sync::atomic::AtomicU64::new(0);
                    std::thread::scope(|s| {
                        for _ in 0..workers {
                            s.spawn(|| {
                                let mut sum = 0u64;
                                loop {
                                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                    let Some(&x) = shards.get(i) else { break };
                                    sum += x ^ 1;
                                }
                                total.fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
                            });
                        }
                    });
                    total.load(std::sync::atomic::Ordering::Relaxed)
                })
            },
        );
        let pool = Pool::new(threads);
        group.bench_with_input(
            BenchmarkId::new("warm-pool", threads),
            &shards,
            |b, shards| {
                b.iter(|| {
                    map_shards(&pool, threads, "test_stage", shards, |_, &x| x ^ 1)
                        .iter()
                        .sum::<u64>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch_overhead,
    bench_txn_scaling,
    bench_session_scaling,
    bench_txn_size_scaling,
    bench_cc_thread_scaling
);
criterion_main!(benches);
