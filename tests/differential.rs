//! Large-scale differential testing: every checker in the workspace —
//! AWDIT's three algorithms, the Plume-, DBCop-, and SAT-style baselines,
//! the exhaustive-saturation oracle, and (on tiny histories) the
//! brute-force permutation oracle — must agree on every history, and every
//! CC commit order AWDIT produces must validate against the axioms.

use awdit::baselines::{
    check_bruteforce, check_dbcop_cc, check_naive, check_plume, check_sat, random_noisy_history,
    random_plausible_history, GenParams,
};
use awdit::workloads::Uniform;
use awdit::{
    check, collect_history, validate_commit_order, DbIsolation, Engine, EngineConfig,
    IsolationLevel, SimConfig,
};

fn all_checkers_agree(h: &awdit::History, ctx: &str) {
    for level in IsolationLevel::ALL {
        let awdit_verdict = check(h, level).is_consistent();
        let naive = check_naive(h, level);
        assert_eq!(awdit_verdict, naive, "{ctx}: {level} awdit vs naive");
        let plume = check_plume(h, level);
        assert_eq!(awdit_verdict, plume, "{ctx}: {level} awdit vs plume");
        if let Some(sat) = check_sat(h, level, 64) {
            assert_eq!(awdit_verdict, sat, "{ctx}: {level} awdit vs sat");
        }
        if let Some(brute) = check_bruteforce(h, level) {
            assert_eq!(awdit_verdict, brute, "{ctx}: {level} awdit vs brute");
        }
        if level == IsolationLevel::Causal {
            assert_eq!(
                awdit_verdict,
                check_dbcop_cc(h),
                "{ctx}: awdit vs dbcop (CC)"
            );
            let out = Engine::with_config(EngineConfig {
                want_commit_order: true,
                ..EngineConfig::default()
            })
            .check_level(h, level);
            assert_eq!(awdit_verdict, out.is_consistent(), "{ctx}: engine (CC)");
            if let Some(order) = out.commit_order() {
                validate_commit_order(h, level, order)
                    .unwrap_or_else(|e| panic!("{ctx}: CC commit order: {e}"));
            }
        }
    }
}

#[test]
fn agreement_on_plausible_random_histories() {
    for seed in 0..80 {
        let h = random_plausible_history(
            seed,
            GenParams {
                sessions: 3,
                txns: 8,
                keys: 3,
                ..GenParams::default()
            },
        );
        all_checkers_agree(&h, &format!("plausible seed {seed}"));
    }
}

#[test]
fn agreement_on_noisy_random_histories() {
    for seed in 0..50 {
        let h = random_noisy_history(seed, GenParams::default());
        all_checkers_agree(&h, &format!("noisy seed {seed}"));
    }
}

#[test]
fn agreement_on_larger_plausible_histories() {
    // Beyond brute-force reach, but naive/plume/dbcop/sat still apply.
    for seed in 0..12 {
        let h = random_plausible_history(
            seed,
            GenParams {
                sessions: 5,
                txns: 40,
                keys: 6,
                max_txn_ops: 6,
                staleness: 0.4,
                ..GenParams::default()
            },
        );
        all_checkers_agree(&h, &format!("larger seed {seed}"));
    }
}

#[test]
fn agreement_on_simulator_histories() {
    for (db, seed) in [
        (DbIsolation::Serializable, 11u64),
        (DbIsolation::Causal, 12),
        (DbIsolation::ReadAtomic, 13),
        (DbIsolation::ReadCommitted, 14),
    ] {
        let config = SimConfig::new(db, 4, seed).with_max_lag(24);
        let mut w = Uniform::new(8, 4, 0.5);
        let h = collect_history(config, &mut w, 60).unwrap();
        all_checkers_agree(&h, &format!("simdb {db} seed {seed}"));
    }
}

/// Verdict monotonicity across levels: CC-consistent ⇒ RA-consistent ⇒
/// RC-consistent, on every generated history.
#[test]
fn level_monotonicity_holds() {
    for seed in 0..100 {
        let h = random_plausible_history(
            seed,
            GenParams {
                sessions: 4,
                txns: 15,
                keys: 4,
                ..GenParams::default()
            },
        );
        let rc = check(&h, IsolationLevel::ReadCommitted).is_consistent();
        let ra = check(&h, IsolationLevel::ReadAtomic).is_consistent();
        let cc = check(&h, IsolationLevel::Causal).is_consistent();
        assert!(!cc || ra, "seed {seed}: CC ⊑ RA violated");
        assert!(!ra || rc, "seed {seed}: RA ⊑ RC violated");
    }
}
