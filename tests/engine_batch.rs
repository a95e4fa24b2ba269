//! Differential suite for the engine API's batch path:
//! [`Engine::check_many`] must return outcomes **in input order** that
//! are identical — verdict, violation list, witness cycles, commit
//! order, stats — to checking each history on a fresh [`Engine`] with
//! the same config, across all three isolation levels × threads {1, 2, 8}; plus
//! the allocation-reuse regression guard (a second same-shape check
//! through one engine performs no arena growth, observed via
//! [`EngineStats::arena_growths`]).

use awdit::baselines::{random_noisy_history, random_plausible_history, GenParams};
use awdit::core::cc::CcStrategy;
use awdit::{
    check, collect_history, DbIsolation, Engine, EngineConfig, History, IsolationLevel, Outcome,
    SimConfig,
};
use awdit_workloads::Uniform;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Everything observable about an [`Outcome`], as one comparable string.
fn fingerprint(o: &Outcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        o.verdict(),
        o.violations(),
        o.commit_order(),
        o.stats()
    )
}

/// A mixed batch: small plausible/noisy generated histories (both
/// consistent and violating) plus wide simulator histories large enough
/// to clear the saturators' sequential cutoff.
fn mixed_batch() -> Vec<History> {
    let mut batch = Vec::new();
    for seed in 0..8u64 {
        let params = GenParams {
            sessions: 1 + (seed as usize % 4),
            txns: 8 + (seed as usize % 17),
            keys: 2 + seed % 5,
            max_txn_ops: 2 + (seed as usize % 4),
            read_ratio: 0.3 + 0.1 * ((seed % 4) as f64),
            staleness: 0.25 * ((seed % 4) as f64),
        };
        batch.push(random_plausible_history(seed, params));
        batch.push(random_noisy_history(seed, params));
    }
    for (seed, db) in [
        (1u64, DbIsolation::Causal),
        (2, DbIsolation::ReadAtomic),
        (3, DbIsolation::ReadCommitted),
    ] {
        let config = SimConfig::new(db, 16, seed).with_max_lag(8);
        let mut w = Uniform::default();
        batch.push(collect_history(config, &mut w, 700).expect("history builds"));
    }
    batch
}

#[test]
fn check_many_is_identical_to_per_history_checks() {
    let batch = mixed_batch();
    for level in IsolationLevel::ALL {
        for threads in THREAD_COUNTS {
            let cfg = EngineConfig {
                level,
                want_commit_order: true,
                threads,
                ..EngineConfig::default()
            };
            let reference: Vec<String> = batch
                .iter()
                .map(|h| fingerprint(&Engine::with_config(cfg).check_level(h, level)))
                .collect();
            let mut engine = Engine::with_config(cfg);
            let got: Vec<String> = engine
                .check_many(batch.iter())
                .iter()
                .map(fingerprint)
                .collect();
            assert_eq!(
                reference, got,
                "check_many diverged from per-history checks \
                 (level {level}, threads {threads})"
            );
        }
    }
}

#[test]
fn check_many_agrees_across_cc_strategies_and_threads() {
    let batch = mixed_batch();
    let reference: Vec<String> = {
        let mut engine = Engine::builder()
            .level(IsolationLevel::Causal)
            .want_commit_order(true)
            .threads(1)
            .build();
        engine
            .check_many(batch.iter())
            .iter()
            .map(fingerprint)
            .collect()
    };
    for strategy in [CcStrategy::PointerScan, CcStrategy::BinarySearch] {
        for threads in THREAD_COUNTS {
            let mut engine = Engine::builder()
                .level(IsolationLevel::Causal)
                .cc_strategy(strategy)
                .want_commit_order(true)
                .threads(threads)
                .build();
            let got: Vec<String> = engine
                .check_many(batch.iter())
                .iter()
                .map(fingerprint)
                .collect();
            // Verdicts (and for the default strategy, full outcomes) are
            // invariant; witness *edges* may differ across strategies, so
            // compare verdict prefixes for the non-default one.
            if strategy == CcStrategy::default() {
                assert_eq!(reference, got, "threads {threads}");
            } else {
                for (r, g) in reference.iter().zip(&got) {
                    assert_eq!(
                        r.split('|').next(),
                        g.split('|').next(),
                        "verdict diverged (strategy {strategy:?}, threads {threads})"
                    );
                }
            }
        }
    }
}

#[test]
fn check_many_preserves_input_order_on_distinct_shapes() {
    // Histories of visibly different sizes: outcome i must describe
    // history i even when the pool reorders execution.
    let mut batch = Vec::new();
    for n in [5usize, 17, 2, 29, 11, 23, 3, 13] {
        let config = SimConfig::new(DbIsolation::Causal, 3, n as u64);
        let mut w = Uniform::default();
        batch.push(collect_history(config, &mut w, n).expect("history builds"));
    }
    let mut engine = Engine::builder().threads(8).build();
    let outcomes = engine.check_many(batch.iter());
    assert_eq!(outcomes.len(), batch.len());
    for (i, (h, o)) in batch.iter().zip(&outcomes).enumerate() {
        let expected = check(h, IsolationLevel::Causal);
        assert_eq!(
            o.stats().committed_txns,
            expected.stats().committed_txns,
            "outcome {i} does not describe history {i}"
        );
        assert_eq!(fingerprint(o), fingerprint(&expected), "history {i}");
    }
}

/// The allocation-reuse regression guard: the first check grows the
/// engine's arenas from empty; every further check of a same-shape
/// history must recycle them (no growth events), across single checks
/// and all-levels sweeps.
#[test]
fn second_same_shape_check_performs_no_arena_growth() {
    let config = SimConfig::new(DbIsolation::Causal, 16, 42).with_max_lag(8);
    let mut w = Uniform::default();
    let h = collect_history(config, &mut w, 1500).expect("history builds");

    let mut engine = Engine::builder().level(IsolationLevel::Causal).build();
    engine.check(&h);
    let first = engine.stats();
    assert_eq!(first.arena_growths, 1, "first check grows from empty");
    assert!(first.arena_bytes > 0);

    for _ in 0..3 {
        engine.check(&h);
    }
    let after = engine.stats();
    assert_eq!(
        after.arena_growths, 1,
        "repeat checks of a same-shape history must not grow any arena"
    );
    assert_eq!(after.arena_bytes, first.arena_bytes);
    assert_eq!(after.histories, 4);

    // The multi-level sweep reuses the same arenas; RA/RC graphs are no
    // larger than CC's for this history shape, so no growth either way
    // is required once the big level has run.
    engine.check_all_levels(&h);
    let sweep = engine.stats();
    engine.check_all_levels(&h);
    assert_eq!(
        engine.stats().arena_growths,
        sweep.arena_growths,
        "repeat all-levels sweeps must not grow arenas"
    );
}

/// The CC happens-before clock table is one of the engine's recycled
/// arenas (the PR-3 follow-up: index and graph recycled, clocks were
/// still per-check): its bytes show up in the accounting, the first
/// causal check grows it, and repeats recycle it — under both lookup
/// strategies.
#[test]
fn cc_clock_table_is_a_recycled_engine_arena() {
    let config = SimConfig::new(DbIsolation::Causal, 16, 77).with_max_lag(8);
    let mut w = Uniform::default();
    let h = collect_history(config, &mut w, 1200).expect("history builds");

    // Reference footprint: the same engine shape with the clock table
    // still empty (read-committed checks never touch it).
    let mut rc = Engine::builder()
        .level(IsolationLevel::ReadCommitted)
        .build();
    rc.check(&h);
    let rc_bytes = rc.stats().arena_bytes;

    for strategy in [CcStrategy::PointerScan, CcStrategy::BinarySearch] {
        let mut engine = Engine::builder()
            .level(IsolationLevel::Causal)
            .cc_strategy(strategy)
            .build();
        engine.check(&h);
        let first = engine.stats();
        assert_eq!(first.arena_growths, 1, "{strategy}: first check grows");
        for _ in 0..3 {
            engine.check(&h);
        }
        let after = engine.stats();
        assert_eq!(
            after.arena_growths, 1,
            "{strategy}: same-shape causal checks must recycle the clock table"
        );
        assert_eq!(after.arena_bytes, first.arena_bytes, "{strategy}");
        if strategy == CcStrategy::PointerScan {
            // Pointer-scan materializes the full m×k table — its bytes
            // must be visible in the arena accounting.
            assert!(
                first.arena_bytes > rc_bytes,
                "clock table bytes missing from accounting: CC {} <= RC {}",
                first.arena_bytes,
                rc_bytes
            );
        }
    }
}

/// Checking through a fresh-per-call wrapper and through a reused engine
/// must agree even when histories alternate shapes (arena resets are not
/// allowed to leak state between checks).
#[test]
fn alternating_shapes_do_not_leak_state() {
    let mut histories = Vec::new();
    for (sessions, txns, seed) in [
        (2usize, 40usize, 1u64),
        (12, 900, 2),
        (3, 25, 3),
        (8, 600, 4),
    ] {
        let config = SimConfig::new(DbIsolation::ReadCommitted, sessions, seed);
        let mut w = Uniform::default();
        histories.push(collect_history(config, &mut w, txns).expect("history builds"));
    }
    let mut engine = Engine::builder()
        .level(IsolationLevel::ReadAtomic)
        .want_commit_order(true)
        .build();
    let mut growths_after_first_round = 0;
    for round in 0..3 {
        for (i, h) in histories.iter().enumerate() {
            let fresh = Engine::with_config(EngineConfig {
                want_commit_order: true,
                ..EngineConfig::default()
            })
            .check_level(h, IsolationLevel::ReadAtomic);
            let reused = engine.check(h);
            assert_eq!(
                fingerprint(&fresh),
                fingerprint(&reused),
                "round {round}, history {i}"
            );
        }
        if round == 0 {
            growths_after_first_round = engine.stats().arena_growths;
        }
    }
    // After one full round the arenas have seen every shape (shrinking
    // resets keep the large history's buffers), so later rounds of the
    // same alternation must not grow anything.
    assert_eq!(
        engine.stats().arena_growths,
        growths_after_first_round,
        "alternating small/large shapes must recycle, not re-grow, arenas"
    );
}
