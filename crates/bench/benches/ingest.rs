//! The `ingest` group: the load stage in isolation — parsing history
//! files into checkable form — for every supported format, comparing:
//!
//! * **string-parse** — the pre-refactor shape: read the whole file into
//!   a `String`, then parse (peak memory = input text + output history);
//! * **stream-fresh** — the incremental reader over a `BufReader`
//!   emitting into a *fresh* columnar builder per file;
//! * **stream-reuse** — the same reader emitting into a *recycled*
//!   builder + history arena (`HistoryBuilder::finish_into`), the
//!   machinery behind `Engine::check_source`'s fast path.
//!
//! * **binary-load** — the `.awb` columnar file mmap-loaded straight
//!   into a recycled arena (no parsing, no read resolution).
//!
//! Throughput is operations per second of the parsed history.
//! `AWDIT_BENCH_TXNS` overrides the history length so CI can smoke-run
//! the whole path with a tiny budget.
//!
//! The bench binary also carries the **writer-allocation regression
//! guard**: a counting global allocator asserts that streaming a
//! 100k-operation history out in the native format performs no
//! per-operation heap churn (the old writer `format!`-ed every op).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use awdit_core::{Engine, History, HistoryBuilder, HistorySink, IsolationLevel, SessionId};
use awdit_formats::{
    parse_history, read_awb_path_into, read_history, write_awb, write_history, write_native_to,
    FilesSource, Format,
};
use awdit_simdb::{collect_history, DbIsolation, SimConfig};
use awdit_workloads::Uniform;

/// Counts allocation events (alloc + realloc), so tests can assert a
/// code path performs O(1) rather than O(n) heap operations.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

// Safety: defers every operation to `System`; the counter is a relaxed
// atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A sink that hands the `.awb` loader a recycled arena, so the bench
/// measures the bulk-load path the engine takes (no event replay).
struct ArenaOnly(History);

impl HistorySink for ArenaOnly {
    fn session(&mut self) -> SessionId {
        unreachable!("bulk loads never replay")
    }
    fn num_sessions(&self) -> usize {
        0
    }
    fn begin(&mut self, _: SessionId) {}
    fn write(&mut self, _: SessionId, _: u64, _: u64) {}
    fn read(&mut self, _: SessionId, _: u64, _: u64) {}
    fn commit(&mut self, _: SessionId) {}
    fn abort(&mut self, _: SessionId) {}
    fn load_resolved(&mut self) -> Option<&mut History> {
        Some(&mut self.0)
    }
}

fn big_history(txns: usize) -> History {
    let config = SimConfig::new(DbIsolation::Causal, 8, 7).with_max_lag(8);
    let mut w = Uniform::default();
    collect_history(config, &mut w, txns).expect("history builds")
}

/// The writer micro-assertion: streaming a ≥100k-op history into a
/// preallocated buffer must cost a constant number of allocation events,
/// not one per operation.
fn assert_writer_allocation_free() {
    let mut txns = 30_000;
    let mut h = big_history(txns);
    while h.size() < 100_000 {
        txns *= 2;
        h = big_history(txns);
    }
    let mut out: Vec<u8> = Vec::with_capacity(h.size() * 32 + 4096);
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    write_native_to(&h, &mut out).expect("writing to a Vec cannot fail");
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
    assert!(
        events <= 16,
        "write_native_to performed {events} allocation events for {} ops — per-op churn is back",
        h.size()
    );
    eprintln!(
        "writer-allocation guard: {} ops, {} bytes, {events} allocation events",
        h.size(),
        out.len()
    );
}

fn bench_ingest(c: &mut Criterion) {
    assert_writer_allocation_free();

    let txns = env_or("AWDIT_BENCH_TXNS", 20_000);
    let h = big_history(txns);
    let ops = h.size();

    // One file per format in a temp dir, written once.
    let mut dir = std::env::temp_dir();
    dir.push(format!("awdit-ingest-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let files: Vec<(Format, std::path::PathBuf)> = Format::ALL
        .iter()
        .map(|&format| {
            let path = dir.join(format!("history.{}", format.extension()));
            std::fs::write(&path, write_history(&h, format)).expect("write fixture");
            (format, path)
        })
        .collect();

    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ops as u64));

    for (format, path) in &files {
        // Pre-refactor shape: whole-file String, then parse.
        group.bench_with_input(
            BenchmarkId::new(format!("string-parse-{format}"), ops),
            path,
            |b, path| {
                b.iter(|| {
                    let text = std::fs::read_to_string(path).expect("read");
                    parse_history(&text, *format).expect("parse").size()
                })
            },
        );
        // Incremental reader into a fresh columnar builder.
        group.bench_with_input(
            BenchmarkId::new(format!("stream-fresh-{format}"), ops),
            path,
            |b, path| {
                b.iter(|| {
                    let file = std::fs::File::open(path).expect("open");
                    let mut builder = HistoryBuilder::new();
                    read_history(BufReader::new(file), *format, &mut builder).expect("read");
                    builder.finish().expect("finish").size()
                })
            },
        );
        // Incremental reader into recycled arenas (the engine fast path).
        group.bench_with_input(
            BenchmarkId::new(format!("stream-reuse-{format}"), ops),
            path,
            |b, path| {
                let mut builder = HistoryBuilder::new();
                let mut arena = History::default();
                b.iter(|| {
                    let file = std::fs::File::open(path).expect("open");
                    read_history(BufReader::new(file), *format, &mut builder).expect("read");
                    builder.finish_into(&mut arena).expect("finish");
                    arena.size()
                })
            },
        );
    }

    // The binary columnar format, mmap-loaded into a recycled arena —
    // the "ingest at I/O speed" headline number to hold against the
    // fastest text parse above.
    let awb = dir.join("history.awb");
    std::fs::write(&awb, write_awb(&h)).expect("write awb fixture");
    group.bench_with_input(BenchmarkId::new("binary-load", ops), &awb, |b, path| {
        let mut sink = ArenaOnly(History::default());
        b.iter(|| {
            read_awb_path_into(path, &mut sink).expect("load");
            sink.0.size()
        })
    });

    // End-to-end load+check: one reused engine streaming files from a
    // source versus a cold parse + cold check per file.
    let native = files[0].1.clone();
    group.bench_with_input(
        BenchmarkId::new("engine-source-stream-rc", ops),
        &native,
        |b, path| {
            let mut engine = Engine::new();
            b.iter(|| {
                let mut src = FilesSource::new([path.clone()]);
                let mut checked = 0usize;
                engine
                    .check_source(&mut src, Some(IsolationLevel::ReadCommitted), |_, _, _| {
                        checked += 1;
                    })
                    .expect("check");
                checked
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("cold-parse-check-rc", ops),
        &native,
        |b, path| {
            b.iter(|| {
                let text = std::fs::read_to_string(path).expect("read");
                let h = parse_history(&text, Format::Native).expect("parse");
                usize::from(awdit_core::check(&h, IsolationLevel::ReadCommitted).is_consistent())
            })
        },
    );

    group.finish();
    let _ = std::fs::remove_dir_all(dir);
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
