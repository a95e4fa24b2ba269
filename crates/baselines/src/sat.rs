//! A SAT-encoded isolation checker — the stand-in for the MonoSAT-backed
//! baselines (CausalC+, TCC-Mono, PolySI).
//!
//! The existence of a witnessing commit order is encoded propositionally:
//! one variable per unordered transaction pair (`before(i, j)`), `O(m³)`
//! transitivity clauses, unit clauses for `so ∪ wr`, and unit clauses for
//! every axiom-implied ordering (the premises are fixed relations, so all
//! axiom constraints are units — the hardness is entirely in the eager
//! transitivity encoding, which is precisely why these tools scale poorly
//! in the paper's Fig. 7).

use awdit_core::{
    base_commit_graph, check_read_consistency, EdgeKind, History, HistoryIndex, IsolationLevel,
    SessionId,
};
use awdit_sat::{Lit, Solver, Var};

/// Default cap on committed transactions before the encoder refuses (the
/// `O(m³)` clause count dominates memory beyond this).
pub const DEFAULT_MAX_TXNS: usize = 220;

/// SAT-based consistency check. Returns `None` if the history exceeds
/// `max_txns` committed transactions (modeling the baselines' timeouts) —
/// otherwise `Some(consistent)`.
pub fn check_sat(history: &History, level: IsolationLevel, max_txns: usize) -> Option<bool> {
    let m = history.num_committed();
    if m > max_txns {
        return None;
    }
    if !check_read_consistency(history).is_empty() {
        return Some(false);
    }
    let index = HistoryIndex::new(history);
    let mut solver = Solver::new();

    // before(i, j) for i < j; before(j, i) = ¬before(i, j).
    let mut vars: Vec<Var> = Vec::with_capacity(m * (m.saturating_sub(1)) / 2);
    for _ in 0..m * m.saturating_sub(1) / 2 {
        vars.push(solver.new_var());
    }
    let pair = |i: u32, j: u32| -> usize {
        let (i, j) = (i as usize, j as usize);
        debug_assert!(i < j);
        // Index into the upper-triangle enumeration.
        i * m - i * (i + 1) / 2 + (j - i - 1)
    };
    let before = |i: u32, j: u32| -> Lit {
        if i < j {
            Lit::pos(vars[pair(i, j)])
        } else {
            Lit::neg(vars[pair(j, i)])
        }
    };

    // Transitivity: before(a,b) ∧ before(b,c) → before(a,c), for all
    // ordered triples of distinct transactions.
    for a in 0..m as u32 {
        for b in 0..m as u32 {
            if b == a {
                continue;
            }
            for c in 0..m as u32 {
                if c == a || c == b {
                    continue;
                }
                solver.add_clause([before(a, b).negate(), before(b, c).negate(), before(a, c)]);
            }
        }
    }

    // so ∪ wr as unit clauses.
    let base = base_commit_graph(&index);
    for v in 0..m as u32 {
        for &e in base.successors(v) {
            let w = awdit_core::graph::target(e);
            if v != w {
                solver.add_clause([before(v, w)]);
            }
        }
    }

    // Axiom-implied orderings as units (premises are fixed).
    let mut add_unit = |t2: u32, t1: u32| {
        if t2 != t1 {
            solver.add_clause([before(t2, t1)]);
        }
    };
    match level {
        IsolationLevel::ReadCommitted => {
            for t3 in 0..m as u32 {
                let reads = index.ext_reads(t3);
                for (i, r) in reads.iter().enumerate() {
                    let t2 = r.writer;
                    for rx in &reads[i + 1..] {
                        if rx.writer != t2 && index.writes_key(t2, rx.key) {
                            add_unit(t2, rx.writer);
                        }
                    }
                }
            }
        }
        IsolationLevel::ReadAtomic => {
            for t3 in 0..m as u32 {
                let list = index.session_committed(SessionId(index.session_of(t3)));
                let pos = index.committed_pos(t3) as usize;
                let mut visible: Vec<u32> = list[..pos].to_vec();
                visible.extend(index.ext_reads(t3).iter().map(|r| r.writer));
                visible.sort_unstable();
                visible.dedup();
                for &(x, t1) in index.read_pairs(t3) {
                    for &t2 in &visible {
                        if t2 != t1 && index.writes_key(t2, x) {
                            add_unit(t2, t1);
                        }
                    }
                }
            }
        }
        IsolationLevel::Causal => {
            // hb reachability by per-node DFS over predecessors.
            let mut preds: Vec<Vec<u32>> = vec![Vec::new(); m];
            for s in 0..index.num_sessions() {
                let list = index.session_committed(SessionId(s as u32));
                for w in list.windows(2) {
                    preds[w[1] as usize].push(w[0]);
                }
            }
            for t in 0..m as u32 {
                for r in index.ext_reads(t) {
                    preds[t as usize].push(r.writer);
                }
            }
            for t3 in 0..m as u32 {
                let mut seen = vec![false; m];
                let mut stack = preds[t3 as usize].clone();
                let mut visible = Vec::new();
                while let Some(v) = stack.pop() {
                    if seen[v as usize] || v == t3 {
                        continue;
                    }
                    seen[v as usize] = true;
                    visible.push(v);
                    stack.extend_from_slice(&preds[v as usize]);
                }
                for &(x, t1) in index.read_pairs(t3) {
                    for &t2 in &visible {
                        if t2 != t1 && index.writes_key(t2, x) {
                            add_unit(t2, t1);
                        }
                    }
                }
            }
        }
    }
    let _ = EdgeKind::SessionOrder; // (edge labels unused by the encoding)
    Some(solver.solve())
}

/// SAT-based **serializability** check — the paper's conclusion points at
/// stronger levels as future work; testing them is NP-complete
/// (Papadimitriou 1979), which is exactly where a CDCL solver earns its
/// keep: unlike the weak levels above, the axiom constraints here are real
/// clauses, not units.
///
/// A history is serializable iff there is a total order `co ⊇ so ∪ wr`
/// such that every external read of `x` observes the `co`-latest write of
/// `x` before it: for a read `t1 →wr_x→ t3` and any other writer `t2` of
/// `x`, forbid `t1 <co t2 <co t3` — the clause
/// `¬before(t1,t2) ∨ ¬before(t2,t3)`.
///
/// Returns `None` above `max_txns` committed transactions.
pub fn check_serializable_sat(history: &History, max_txns: usize) -> Option<bool> {
    let m = history.num_committed();
    if m > max_txns {
        return None;
    }
    if !check_read_consistency(history).is_empty() {
        return Some(false);
    }
    let index = HistoryIndex::new(history);
    let mut solver = Solver::new();
    let mut vars: Vec<Var> = Vec::with_capacity(m * m.saturating_sub(1) / 2);
    for _ in 0..m * m.saturating_sub(1) / 2 {
        vars.push(solver.new_var());
    }
    let pair = |i: u32, j: u32| -> usize {
        let (i, j) = (i as usize, j as usize);
        i * m - i * (i + 1) / 2 + (j - i - 1)
    };
    let before = |i: u32, j: u32| -> Lit {
        if i < j {
            Lit::pos(vars[pair(i, j)])
        } else {
            Lit::neg(vars[pair(j, i)])
        }
    };
    for a in 0..m as u32 {
        for b in 0..m as u32 {
            if b == a {
                continue;
            }
            for c in 0..m as u32 {
                if c == a || c == b {
                    continue;
                }
                solver.add_clause([before(a, b).negate(), before(b, c).negate(), before(a, c)]);
            }
        }
    }
    let base = base_commit_graph(&index);
    for v in 0..m as u32 {
        for &e in base.successors(v) {
            let w = awdit_core::graph::target(e);
            if v != w {
                solver.add_clause([before(v, w)]);
            }
        }
    }
    // Read freshness: no other writer of x may fall between the read's
    // writer and the reader.
    for t3 in 0..m as u32 {
        for &(x, t1) in index.read_pairs(t3) {
            for (_, _, writers) in index.key_writes(x) {
                for &t2 in writers {
                    if t2 != t1 && t2 != t3 {
                        solver.add_clause([before(t1, t2).negate(), before(t2, t3).negate()]);
                    }
                }
            }
        }
    }
    Some(solver.solve())
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_core::{check, HistoryBuilder};

    #[test]
    fn agrees_with_awdit_on_random_histories() {
        use crate::testgen::{random_plausible_history, GenParams};
        for seed in 0..25 {
            let h = random_plausible_history(
                seed,
                GenParams {
                    txns: 8,
                    ..GenParams::default()
                },
            );
            for level in IsolationLevel::ALL {
                let expected = check(&h, level).is_consistent();
                assert_eq!(
                    check_sat(&h, level, DEFAULT_MAX_TXNS),
                    Some(expected),
                    "seed {seed} level {level}"
                );
            }
        }
    }

    #[test]
    fn respects_txn_cap() {
        let mut b = HistoryBuilder::new();
        let s = b.session();
        for i in 0..5u64 {
            b.begin(s);
            b.write(s, i, i);
            b.commit(s);
        }
        let h = b.finish().unwrap();
        assert_eq!(check_sat(&h, IsolationLevel::Causal, 3), None);
        assert_eq!(check_sat(&h, IsolationLevel::Causal, 5), Some(true));
    }

    #[test]
    fn serializable_accepts_serial_history() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 1);
        b.write(s2, 0, 2);
        b.commit(s2);
        b.begin(s1);
        b.read(s1, 0, 2);
        b.commit(s1);
        let h = b.finish().unwrap();
        assert_eq!(check_serializable_sat(&h, 100), Some(true));
    }

    #[test]
    fn write_skew_is_not_serializable_but_causal() {
        // Classic write skew: both transactions read both keys' initial
        // versions and each overwrites one of them.
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s0);
        b.write(s0, 0, 10);
        b.write(s0, 1, 20);
        b.commit(s0);
        b.begin(s1);
        b.read(s1, 0, 10);
        b.read(s1, 1, 20);
        b.write(s1, 0, 11);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 10);
        b.read(s2, 1, 20);
        b.write(s2, 1, 21);
        b.commit(s2);
        let h = b.finish().unwrap();
        assert_eq!(check_serializable_sat(&h, 100), Some(false));
        // ... yet causally consistent (and hence RA/RC too).
        assert!(check(&h, IsolationLevel::Causal).is_consistent());
    }

    #[test]
    fn fig4d_is_causal_but_not_serializable() {
        // Example 2.9 notes Fig. 4d is CC-consistent yet non-serializable.
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let x = 0;
        b.begin(s1);
        b.write(s1, x, 1);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, x, 1);
        b.write(s2, x, 2);
        b.commit(s2);
        b.begin(s1);
        b.read(s1, x, 2);
        b.commit(s1);
        b.begin(s3);
        b.read(s3, x, 1);
        b.write(s3, x, 3);
        b.commit(s3);
        b.begin(s3);
        b.read(s3, x, 3);
        b.commit(s3);
        let h = b.finish().unwrap();
        assert!(check(&h, IsolationLevel::Causal).is_consistent());
        assert_eq!(check_serializable_sat(&h, 100), Some(false));
    }

    #[test]
    fn serializability_implies_all_weak_levels() {
        use crate::testgen::{random_plausible_history, GenParams};
        for seed in 0..30 {
            let h = random_plausible_history(
                seed,
                GenParams {
                    txns: 7,
                    ..GenParams::default()
                },
            );
            if check_serializable_sat(&h, 64) == Some(true) {
                for level in IsolationLevel::ALL {
                    assert!(
                        check(&h, level).is_consistent(),
                        "seed {seed}: serializable history violates {level}"
                    );
                }
            }
        }
    }
}
