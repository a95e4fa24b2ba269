//! Lifecycle contract for the persistent worker pool
//! (`awdit_core::parallel::Pool`): panics propagate to the dispatcher
//! without deadlocking or leaking workers, `Drop` joins every thread, a
//! width-1 pool never spawns, and the pool survives thousands of tiny
//! dispatches without growing its thread set.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use awdit::core::parallel::{map_shards, Pool};

/// A worker (or caller) panic inside `scope` must reach the dispatcher
/// as a panic — not a deadlock — and the pool must stay usable after.
#[test]
fn panic_in_scope_propagates_and_pool_survives() {
    let pool = Pool::new(4);
    let hits = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.scope(4, |p| {
            hits.fetch_add(1, Ordering::Relaxed);
            if p == 0 {
                panic!("dispatcher panic under test");
            }
        });
    }));
    assert!(result.is_err(), "the panic must cross the scope boundary");
    assert!(hits.load(Ordering::Relaxed) >= 1);

    // The pool is not poisoned: the next dispatch works and covers every
    // shard exactly once.
    let out = map_shards(&pool, 4, "test_stage", &[1u64, 2, 3, 4, 5], |_, &x| x * 10);
    assert_eq!(out, vec![10, 20, 30, 40, 50]);
}

/// Same contract when the panic happens in work a pool worker may have
/// claimed (any participant index, not just the caller).
#[test]
fn panic_on_any_participant_propagates() {
    let pool = Pool::new(4);
    for victim in 0..4usize {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(4, |p| {
                if p == victim {
                    panic!("participant {p} panic under test");
                }
            });
        }));
        // Participant `victim` may never have been scheduled (workers race
        // the caller for tickets), so only victim 0 is guaranteed to fire.
        if victim == 0 {
            assert!(result.is_err());
        }
        // Usable either way.
        let out = map_shards(&pool, 2, "test_stage", &[7u64, 8], |_, &x| x + 1);
        assert_eq!(out, vec![8, 9]);
    }
}

/// Dropping the pool joins its workers: the pool's own live-worker count
/// (decremented as each worker thread exits) is back to 0 when `drop`
/// returns. The count belongs to this pool alone, so tests running
/// alongside in the same process cannot disturb it.
#[test]
fn drop_joins_workers() {
    let pool = Pool::new(4);
    // Force workers into existence.
    pool.scope(4, |_| {});
    assert_eq!(pool.spawned_threads(), 3);
    let live = pool.live_workers();
    assert_eq!(live.get(), 3);
    drop(pool);
    assert_eq!(live.get(), 0, "workers outlived the pool's drop");
}

/// A width-1 pool is a pass-through: zero worker threads ever, and every
/// dispatch runs inline on the caller.
#[test]
fn width_one_pool_spawns_nothing() {
    let pool = Pool::new(1);
    for _ in 0..100 {
        let out = map_shards(&pool, 8, "test_stage", &[1u64, 2, 3], |_, &x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }
    assert_eq!(pool.spawned_threads(), 0);
    assert_eq!(pool.stats(), Default::default());
}

/// A thousand tiny dispatches reuse the same parked workers instead of
/// spawning per dispatch — the whole point of the pool.
#[test]
fn thousand_tiny_dispatches_reuse_workers() {
    let pool = Arc::new(Pool::new(4));
    let shards: Vec<u64> = (0..32).collect();
    for round in 0..1000u64 {
        let out = map_shards(&pool, 4, "test_stage", &shards, |_, &x| x + round);
        let want: Vec<u64> = shards.iter().map(|&x| x + round).collect();
        assert_eq!(out, want);
    }
    // Lazy spawn caps the thread set at width - 1; a replacement or two
    // would still be fine, a thread per dispatch would not.
    assert!(
        pool.spawned_threads() <= 3,
        "spawned {} threads over 1000 dispatches",
        pool.spawned_threads()
    );
}

/// Nested dispatch (a shard body dispatching on the same pool) must not
/// deadlock: the inner caller always participates in its own scope.
#[test]
fn nested_dispatch_does_not_deadlock() {
    let pool = Arc::new(Pool::new(2));
    let inner_pool = Arc::clone(&pool);
    let out = map_shards(&pool, 2, "test_stage", &[10u64, 20, 30], move |_, &x| {
        let inner = map_shards(&inner_pool, 2, "test_stage", &[1u64, 2], |_, &y| y);
        x + inner.iter().sum::<u64>()
    });
    assert_eq!(out, vec![13, 23, 33]);
}
