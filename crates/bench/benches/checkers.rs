//! Criterion benches for the three AWDIT checkers on benchmark histories
//! (the micro-scale companion to the fig8/fig9 harness binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use awdit_bench::make_history;
use awdit_core::{check, IsolationLevel};
use awdit_simdb::DbIsolation;
use awdit_workloads::Benchmark;

fn bench_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("check");
    group.sample_size(10);
    let h = make_history(DbIsolation::Causal, Benchmark::CTwitter, 50, 4096, 1);
    for level in IsolationLevel::ALL {
        group.bench_with_input(
            BenchmarkId::new("ctwitter-4096", level.short_name()),
            &level,
            |b, &level| b.iter(|| check(&h, level).is_consistent()),
        );
    }
    group.finish();
}

fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload-rc");
    group.sample_size(10);
    for bench in Benchmark::ALL {
        let h = make_history(DbIsolation::Serializable, bench, 50, 2048, 3);
        group.bench_function(bench.name(), |b| {
            b.iter(|| check(&h, IsolationLevel::ReadCommitted).is_consistent())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_levels, bench_workloads);
criterion_main!(benches);
