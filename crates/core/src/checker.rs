//! The top-level consistency checker: Read Consistency first, then the
//! level-specific saturation, then acyclicity with witness extraction.
//!
//! The free functions here are **thin wrappers over a default
//! [`Engine`]** (one fresh engine per call); embedders
//! checking more than one history should hold an engine instead, which
//! recycles its scratch arenas across checks and streams whole sources
//! of histories through them
//! ([`Engine::check_source`](crate::Engine::check_source)).

use crate::engine::Engine;
use crate::history::History;
use crate::isolation::IsolationLevel;
use crate::types::TxnId;
use crate::witness::Violation;

/// Whether a history satisfies the isolation level.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The history satisfies the level; a witnessing commit order exists.
    Consistent,
    /// The history violates the level; see the outcome's violations.
    Inconsistent,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Consistent => f.write_str("consistent"),
            Verdict::Inconsistent => f.write_str("inconsistent"),
        }
    }
}

/// Statistics about one check, for reports and benchmarks.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CheckStats {
    /// Committed transactions analyzed.
    pub committed_txns: usize,
    /// Edges saturation emitted into the commit graph, duplicates counted
    /// — the work the level's inference did. For CC, an inferred pair that
    /// its shard already emitted is dropped before it counts (see
    /// [`CommitGraph::num_emitted_edges`](crate::CommitGraph::num_emitted_edges)).
    pub emitted_edges: usize,
    /// Distinct edges kept in the saturated commit graph
    /// (`so ∪ wr ∪ inferred`).
    pub graph_edges: usize,
    /// Distinct inferred (non-`so ∪ wr`) edges kept; a pair that is also
    /// a base edge counts as base.
    pub inferred_edges: usize,
}

/// The result of checking one history against one isolation level.
#[derive(Clone, Debug)]
pub struct Outcome {
    level: IsolationLevel,
    violations: Vec<Violation>,
    commit_order: Option<Vec<TxnId>>,
    stats: CheckStats,
}

impl Outcome {
    /// Assembles an outcome from the engine's check results.
    pub(crate) fn from_parts(
        level: IsolationLevel,
        violations: Vec<Violation>,
        commit_order: Option<Vec<TxnId>>,
        stats: CheckStats,
    ) -> Self {
        Outcome {
            level,
            violations,
            commit_order,
            stats,
        }
    }

    /// The verdict: consistent iff no violation was found.
    pub fn verdict(&self) -> Verdict {
        if self.violations.is_empty() {
            Verdict::Consistent
        } else {
            Verdict::Inconsistent
        }
    }

    /// Shorthand for `verdict() == Verdict::Consistent`.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The level that was checked.
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// All violations found (empty iff consistent).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// A witnessing commit order, when the history is consistent and
    /// [`EngineConfig::want_commit_order`](crate::EngineConfig::want_commit_order)
    /// was set.
    pub fn commit_order(&self) -> Option<&[TxnId]> {
        self.commit_order.as_deref()
    }

    /// Statistics about the check.
    pub fn stats(&self) -> CheckStats {
        self.stats
    }
}

/// Checks `history` against `level` with a default [`Engine`]; build one
/// with [`Engine::with_config`] for any other
/// [`EngineConfig`](crate::EngineConfig).
///
/// # Examples
///
/// ```
/// use awdit_core::{check, HistoryBuilder, IsolationLevel, Verdict};
///
/// # fn main() -> Result<(), awdit_core::BuildError> {
/// let mut b = HistoryBuilder::new();
/// let s0 = b.session();
/// let s1 = b.session();
/// b.begin(s0);
/// b.write(s0, 1, 10);
/// b.commit(s0);
/// b.begin(s1);
/// b.read(s1, 1, 10);
/// b.commit(s1);
/// let history = b.finish()?;
/// let outcome = check(&history, IsolationLevel::Causal);
/// assert_eq!(outcome.verdict(), Verdict::Consistent);
/// # Ok(())
/// # }
/// ```
pub fn check(history: &History, level: IsolationLevel) -> Outcome {
    Engine::new().check_level(history, level)
}

/// Checks a history against all three levels at once, weakest first.
///
/// Handy for reports: by monotonicity (`CC ⊑ RA ⊑ RC`), the verdict
/// sequence is anti-monotone — once a level fails, all stronger levels
/// fail. The underlying [`Engine`] builds the history index — and checks
/// Read Consistency — **once**, shared across the three per-level checks.
pub fn check_all_levels(history: &History) -> [Outcome; 3] {
    Engine::new().check_all_levels(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::history::HistoryBuilder;
    use crate::linearize::{some_commit_order_validates, validate_commit_order};
    use crate::witness::ViolationKind;

    fn level_separating_history() -> History {
        // Fig. 4b: RC-consistent, RA-inconsistent.
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let (x, y) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1);
        b.commit(s1);
        b.begin(s1);
        b.write(s1, x, 2);
        b.write(s1, y, 2);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, x, 1);
        b.read(s2, y, 2);
        b.commit(s2);
        b.finish().unwrap()
    }

    #[test]
    fn verdicts_are_anti_monotone_in_strength() {
        let h = level_separating_history();
        let [rc, ra, cc] = check_all_levels(&h);
        assert!(rc.is_consistent());
        assert!(!ra.is_consistent());
        assert!(!cc.is_consistent());
    }

    #[test]
    fn commit_order_is_produced_and_validates() {
        let h = level_separating_history();
        let cfg = EngineConfig {
            want_commit_order: true,
            ..EngineConfig::default()
        };
        let out = Engine::with_config(cfg).check_level(&h, IsolationLevel::ReadCommitted);
        let order = out.commit_order().expect("consistent => order");
        validate_commit_order(&h, IsolationLevel::ReadCommitted, order).unwrap();
    }

    #[test]
    fn read_consistency_violations_flow_through() {
        let mut b = HistoryBuilder::new();
        let s = b.session();
        b.begin(s);
        b.read(s, 0, 42);
        b.commit(s);
        let h = b.finish().unwrap();
        for level in IsolationLevel::ALL {
            let out = check(&h, level);
            assert_eq!(out.verdict(), Verdict::Inconsistent);
            assert_eq!(out.violations()[0].kind(), ViolationKind::ThinAirRead);
        }
    }

    #[test]
    fn single_session_ra_uses_fast_path_and_emits_order() {
        let mut b = HistoryBuilder::new();
        let s = b.session();
        b.begin(s);
        b.write(s, 0, 1);
        b.commit(s);
        b.begin(s);
        b.read(s, 0, 1);
        b.commit(s);
        let h = b.finish().unwrap();
        let cfg = EngineConfig {
            want_commit_order: true,
            ..EngineConfig::default()
        };
        let out = Engine::with_config(cfg).check_level(&h, IsolationLevel::ReadAtomic);
        assert!(out.is_consistent());
        let order = out.commit_order().unwrap();
        validate_commit_order(&h, IsolationLevel::ReadAtomic, order).unwrap();
    }

    #[test]
    fn max_cycles_caps_witnesses() {
        // Two independent RA violations in separate SCCs.
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        for (base, sess_pair) in [(0u64, (s1, s2)), (10, (s2, s1))] {
            let (sa, sb) = sess_pair;
            let x = base;
            let y = base + 1;
            b.begin(sa);
            b.write(sa, x, base + 1);
            b.commit(sa);
            b.begin(sa);
            b.write(sa, x, base + 2);
            b.write(sa, y, base + 2);
            b.commit(sa);
            b.begin(sb);
            b.read(sb, x, base + 1);
            b.read(sb, y, base + 2);
            b.commit(sb);
        }
        let h = b.finish().unwrap();
        let cfg = EngineConfig {
            max_cycles: 1,
            ..EngineConfig::default()
        };
        let out = Engine::with_config(cfg).check_level(&h, IsolationLevel::ReadAtomic);
        assert_eq!(out.violations().len(), 1);
        let cfg = EngineConfig {
            max_cycles: 10,
            ..EngineConfig::default()
        };
        let out = Engine::with_config(cfg).check_level(&h, IsolationLevel::ReadAtomic);
        assert!(out.violations().len() >= 2);
    }

    #[test]
    fn stats_count_inferred_edges() {
        let h = level_separating_history();
        let out = check(&h, IsolationLevel::ReadAtomic);
        assert!(out.stats().inferred_edges >= 1);
        assert!(out.stats().graph_edges > out.stats().inferred_edges);
        assert_eq!(out.stats().committed_txns, 3);
    }

    /// Every level's verdict on Fig. 4b agrees with the brute-force
    /// oracle: some permutation of the transactions is a valid commit order
    /// exactly when the check finds the history consistent.
    #[test]
    fn verdicts_match_the_brute_force_oracle() {
        let h = level_separating_history();
        for level in IsolationLevel::ALL {
            assert_eq!(
                check(&h, level).is_consistent(),
                some_commit_order_validates(&h, level),
                "{level}"
            );
        }
    }

    #[test]
    fn empty_history_consistent_everywhere() {
        let h = HistoryBuilder::new().finish().unwrap();
        for level in IsolationLevel::ALL {
            assert!(check(&h, level).is_consistent());
        }
    }
}
