//! End-to-end pipeline tests: workload → simulated database → file format
//! round trip → checker → witness, spanning every crate in the workspace.

use awdit::baselines::{random_plausible_history, GenParams};
use awdit::core::witness::WitnessCycle;
use awdit::core::{check, Key, TxnId};
use awdit::simdb::Harness;
use awdit::workloads::{CTwitter, CTwitterConfig, Rubis, RubisConfig, Tpcc, TpccConfig};
use awdit::{
    collect_history, parse_history, validate_commit_order, write_history, DbIsolation, Engine,
    EngineConfig, Format, History, HistoryStats, IsolationLevel, SimConfig, Verdict,
};

/// The guarantee ladder: a database configured for tier X must produce
/// histories satisfying X and everything weaker, across all benchmarks.
#[test]
fn database_tiers_guarantee_their_levels() {
    let cases: &[(DbIsolation, &[IsolationLevel])] = &[
        (DbIsolation::Serializable, &IsolationLevel::ALL),
        (DbIsolation::Causal, &IsolationLevel::ALL),
        (
            DbIsolation::ReadAtomic,
            &[IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic],
        ),
        (DbIsolation::ReadCommitted, &[IsolationLevel::ReadCommitted]),
    ];
    for &(db, levels) in cases {
        for seed in [1u64, 2, 3] {
            let config = SimConfig::new(db, 8, seed).with_max_lag(16);
            let mut workload = Tpcc::new(TpccConfig::default());
            let h = collect_history(config, &mut workload, 250).unwrap();
            for &level in levels {
                let out = check(&h, level);
                assert_eq!(
                    out.verdict(),
                    Verdict::Consistent,
                    "db {db} seed {seed} must satisfy {level}: {:?}",
                    out.violations().first()
                );
            }
        }
    }
}

/// Histories survive every file format with verdicts intact.
#[test]
fn formats_preserve_verdicts_end_to_end() {
    let config = SimConfig::new(DbIsolation::ReadCommitted, 6, 7);
    let mut workload = Rubis::new(RubisConfig::default());
    let h = collect_history(config, &mut workload, 300).unwrap();
    let reference: Vec<bool> = IsolationLevel::ALL
        .iter()
        .map(|&l| check(&h, l).is_consistent())
        .collect();
    for format in Format::ALL {
        let text = write_history(&h, format);
        let parsed = parse_history(&text, format).unwrap();
        let verdicts: Vec<bool> = IsolationLevel::ALL
            .iter()
            .map(|&l| check(&parsed, l).is_consistent())
            .collect();
        assert_eq!(verdicts, reference, "format {format}");
    }
}

/// Consistent outcomes produce commit orders that independently validate.
#[test]
fn commit_orders_validate_against_the_axioms() {
    let config = SimConfig::new(DbIsolation::Causal, 10, 31).with_max_lag(8);
    let mut workload = CTwitter::new(CTwitterConfig {
        users: 80,
        ..CTwitterConfig::default()
    });
    let h = collect_history(config, &mut workload, 400).unwrap();
    let mut engine = Engine::with_config(EngineConfig {
        want_commit_order: true,
        ..EngineConfig::default()
    });
    for level in IsolationLevel::ALL {
        let out = engine.check_level(&h, level);
        assert!(out.is_consistent(), "causal store satisfies {level}");
        let order = out.commit_order().expect("consistent => commit order");
        validate_commit_order(&h, level, order)
            .unwrap_or_else(|e| panic!("{level}: invalid commit order: {e}"));
    }
}

/// Injected causality cycles are reported by every level's checker.
#[test]
fn injected_causality_cycle_is_caught_everywhere() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let config = SimConfig::new(DbIsolation::Serializable, 5, 17);
    let mut workload = Tpcc::new(TpccConfig::default());
    let mut harness = Harness::new(config);
    harness.drive(&mut workload, 200);
    let mut rng = SmallRng::seed_from_u64(5);
    assert!(harness.db_mut().inject_causality_cycle(&mut rng));
    let h = harness.finish().unwrap();
    for level in IsolationLevel::ALL {
        assert!(
            !check(&h, level).is_consistent(),
            "causality cycle must violate {level}"
        );
    }
}

/// Every violation witness refers to real transactions of the history,
/// witness cycles are closed walks, and every edge label is true of the
/// history: a `WriteRead(k)` target reads `k` from the source, and both
/// endpoints of an `Inferred(k)` edge write `k`. The labels are re-derived
/// after cycle search (the graph keeps one provenance bit per edge), so
/// this pins that derivation at RC, RA and CC, at one and two threads —
/// whose witnesses must also agree exactly.
#[test]
fn witnesses_are_well_formed() {
    // An RC-tier store violates CC (Rubis) and RA (TPC-C); rare stale
    // reads in generated histories violate RC as well, and their 700
    // transactions clear the cutoff below which saturation stays
    // sequential.
    let config = SimConfig::new(DbIsolation::ReadCommitted, 6, 53);
    let mut histories = vec![
        collect_history(config, &mut Rubis::new(RubisConfig::default()), 400).unwrap(),
        collect_history(config, &mut Tpcc::new(TpccConfig::default()), 400).unwrap(),
    ];
    for seed in [2u64, 53] {
        histories.push(random_plausible_history(
            seed,
            GenParams {
                sessions: 6,
                txns: 700,
                keys: 40,
                max_txn_ops: 3,
                read_ratio: 0.5,
                staleness: 0.05,
            },
        ));
    }
    for level in IsolationLevel::ALL {
        let mut checked_cycles = 0;
        for h in &histories {
            let [one, two] = [1usize, 2].map(|threads| {
                Engine::with_config(EngineConfig {
                    max_cycles: 64,
                    threads,
                    ..EngineConfig::default()
                })
                .check_level(h, level)
            });
            assert_eq!(
                one.violations(),
                two.violations(),
                "{level}: witnesses differ between 1 and 2 threads"
            );
            for v in one.violations() {
                if let awdit::Violation::CommitOrderCycle { cycle, .. } = v {
                    checked_cycles += 1;
                    assert_witness_labels_hold(h, cycle);
                }
            }
        }
        assert!(checked_cycles >= 1, "expected a {level} cycle witness");
    }
}

fn assert_witness_labels_hold(h: &History, cycle: &WitnessCycle) {
    use awdit::core::{EdgeKind, Op, ReadSource};
    assert!(!cycle.is_empty());
    // Closed walk.
    for (e, next) in cycle.edges.iter().zip(cycle.edges.iter().cycle().skip(1)) {
        assert_eq!(e.to, next.from, "cycle must be a closed walk");
    }
    let writes = |t: TxnId, k: Key| {
        h.txn(t)
            .ops()
            .iter()
            .any(|op| matches!(*op, Op::Write { key, .. } if key == k))
    };
    for e in &cycle.edges {
        // Transactions exist and are committed.
        assert!(h.txn(e.from).is_committed());
        assert!(h.txn(e.to).is_committed());
        match e.kind {
            EdgeKind::SessionOrder => {
                assert_eq!(e.from.session, e.to.session);
                assert!(e.from.index < e.to.index);
            }
            EdgeKind::WriteRead(k) => {
                let reads_k_from_source = h.txn(e.to).ops().iter().any(|op| {
                    matches!(
                        *op,
                        Op::Read { key, source: ReadSource::External { txn, .. }, .. }
                            if key == k && txn == e.from
                    )
                });
                assert!(
                    reads_k_from_source,
                    "{e}: target does not read {k} from source"
                );
            }
            EdgeKind::Inferred(k) => {
                assert!(writes(e.from, k), "{e}: source does not write {k}");
                assert!(writes(e.to, k), "{e}: target does not write {k}");
            }
            // Condensed edges only arise from streaming pruning, never in
            // batch witnesses.
            EdgeKind::Condensed => panic!("batch witness contains a condensed edge"),
        }
    }
    // At least one inferred edge (otherwise it would have been a causality
    // cycle).
    assert!(cycle.inferred_count() >= 1);
}

/// The checkers scale to six-digit histories in debug-test time.
#[test]
fn moderately_large_history_checks_quickly() {
    let config = SimConfig::new(DbIsolation::Causal, 16, 1001);
    let mut workload = CTwitter::new(CTwitterConfig::default());
    let h = collect_history(config, &mut workload, 3_000).unwrap();
    let stats = HistoryStats::of(&h);
    assert!(stats.ops > 10_000, "workload too small: {stats}");
    for level in IsolationLevel::ALL {
        assert!(check(&h, level).is_consistent());
    }
}
