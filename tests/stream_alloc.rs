//! The stream checker's per-transaction path allocates nothing once warm.
//!
//! A counting global allocator counts the heap allocations (and
//! reallocations) made by the measuring thread only, so the test harness's
//! other threads cannot disturb the count. A checker is warmed on a seeded
//! serial stream of the benchmark's shape (8 sessions, 64 keys, 3
//! operations per transaction, reads of each key's latest value), and the
//! next stretch of the same stream must cost well under one allocation per
//! processed transaction at every level.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use awdit::core::IsolationLevel;
use awdit::stream::{Event, OnlineChecker};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SESSIONS: u64 = 8;
const KEYS: u64 = 64;
const OPS_PER_TXN: usize = 3;

/// `txns` transactions, sessions in round robin; each operation reads the
/// latest value of a random key (if it has one) or writes a fresh value.
fn bench_shaped_stream(seed: u64, txns: u64) -> Vec<Event> {
    let mut x = seed;
    let mut rand = move |n: u64| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % n
    };
    let mut latest = [None; KEYS as usize];
    let mut next_value = 1u64;
    let mut events = Vec::new();
    for t in 0..txns {
        let session = t % SESSIONS;
        events.push(Event::Begin { session });
        for _ in 0..OPS_PER_TXN {
            let key = rand(KEYS);
            if rand(2) == 0 {
                if let Some(value) = latest[key as usize] {
                    events.push(Event::Read {
                        session,
                        key,
                        value,
                    });
                }
            } else {
                events.push(Event::Write {
                    session,
                    key,
                    value: next_value,
                });
                latest[key as usize] = Some(next_value);
                next_value += 1;
            }
        }
        events.push(Event::Commit { session });
    }
    events
}

#[test]
fn warm_stream_intake_does_not_allocate() {
    const WARM: u64 = 20_000;
    const MEASURED: u64 = 20_000;
    let events = bench_shaped_stream(1, WARM + MEASURED);
    let split = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Commit { .. }))
        .nth(WARM as usize - 1)
        .map(|(i, _)| i + 1)
        .unwrap();
    for level in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::ReadAtomic,
        IsolationLevel::Causal,
    ] {
        let mut c = OnlineChecker::new(level);
        for e in &events[..split] {
            c.apply(e).unwrap();
        }
        let processed = c.stats().processed;
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.with(|f| f.set(true));
        for e in &events[split..] {
            c.apply(e).unwrap();
        }
        COUNTING.with(|f| f.set(false));
        let allocs = ALLOCS.load(Ordering::Relaxed);
        let processed = c.stats().processed - processed;
        assert!(
            processed >= MEASURED - 1,
            "{level:?}: {processed} processed"
        );
        assert!(c.stats().retired_txns > WARM, "{level:?}: nothing retired");
        let per_txn = allocs as f64 / processed as f64;
        assert!(
            per_txn < 0.5,
            "{level:?}: {allocs} allocations over {processed} transactions ({per_txn:.2} each)"
        );
        assert!(c.finish().unwrap().is_consistent(), "{level:?}");
    }
}
