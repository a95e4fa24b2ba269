//! A Plume-style baseline checker (after Liu et al., OOPSLA 2024).
//!
//! Plume checks weak isolation levels by enumerating *Transactional
//! Anomalous Patterns* over an eagerly constructed dependency graph, using
//! vector clocks for happens-before. It is sound and complete but — unlike
//! AWDIT — performs **no minimality pruning**: every instance of an axiom
//! premise becomes an explicit edge, and its up-front construction phase
//! dominates on easy inputs (both effects are visible in the paper's
//! Figs. 7–8).
//!
//! This reimplementation preserves exactly those characteristics:
//!
//! * a construction phase that materializes the full dependency state
//!   (indexes, per-transaction key sets, the complete happens-before
//!   clock table for CC);
//! * exhaustive saturation — `O(Σ|t|²)` read pairs for RC, all session
//!   predecessors for RA's `so` case, every visible writer (not just the
//!   latest) for CC;
//! * a final monolithic cycle check.

use awdit_core::{
    base_commit_graph, check_read_consistency, compute_hb_into, ClockTable, CommitGraph, EdgeKind,
    History, HistoryIndex, IsolationLevel, SessionId,
};

/// Statistics from a Plume-style run, for the benchmark harness.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PlumeStats {
    /// Edges in the saturated dependency graph.
    pub edges: usize,
    /// Committed transactions processed.
    pub txns: usize,
}

/// The Plume-style checker. Holds the constructed dependency state so the
/// construction and solving phases can be timed separately (the paper's
/// Fig. 8 discussion).
#[derive(Debug)]
pub struct PlumeChecker<'h> {
    history: &'h History,
    index: HistoryIndex,
    read_consistent: bool,
    /// Topological order of `so ∪ wr`, or `None` if cyclic.
    topo: Option<Vec<u32>>,
    /// The full happens-before clock table — Plume's pipeline materializes
    /// its dependency graph (vector/tree clocks included) for *every*
    /// level, which is why its construction phase dominates on easy inputs
    /// (the paper's Fig. 8 discussion).
    clocks: ClockTable,
}

impl<'h> PlumeChecker<'h> {
    /// Construction phase: build all dependency state eagerly — indexes,
    /// the base dependency graph, and the happens-before clock table.
    pub fn construct(history: &'h History) -> Self {
        let read_consistent = check_read_consistency(history).is_empty();
        let index = HistoryIndex::new(history);
        let g = base_commit_graph(&index);
        let topo = g.topological_order();
        let mut clocks = ClockTable::new();
        if let Some(t) = &topo {
            compute_hb_into(&index, t, &mut clocks);
        }
        PlumeChecker {
            history,
            index,
            read_consistent,
            topo,
            clocks,
        }
    }

    /// Solving phase: saturate exhaustively and check for cycles.
    pub fn solve(&self, level: IsolationLevel) -> bool {
        self.solve_with_stats(level).0
    }

    /// Solving phase, also reporting graph statistics.
    pub fn solve_with_stats(&self, level: IsolationLevel) -> (bool, PlumeStats) {
        let mut stats = PlumeStats {
            txns: self.index.num_committed(),
            ..PlumeStats::default()
        };
        if !self.read_consistent {
            return (false, stats);
        }
        let index = &self.index;
        let mut g = base_commit_graph(index);
        let m = index.num_committed();

        match level {
            IsolationLevel::ReadCommitted => {
                for t3 in 0..m as u32 {
                    let reads = index.ext_reads(t3);
                    for (i, r) in reads.iter().enumerate() {
                        let t2 = r.writer;
                        for rx in &reads[i + 1..] {
                            let t1 = rx.writer;
                            if t1 != t2 && index.writes_key(t2, rx.key) {
                                g.add_edge(t2, t1, EdgeKind::Inferred(rx.key));
                            }
                        }
                    }
                }
            }
            IsolationLevel::ReadAtomic => {
                for t3 in 0..m as u32 {
                    // so case, exhaustively over *all* session predecessors.
                    let tid = index.txn_id(t3);
                    let list = index.session_committed(SessionId(tid.session));
                    let pos = index.committed_pos(t3) as usize;
                    for &t2 in &list[..pos] {
                        self.infer_all_keys(&mut g, t2, t3);
                    }
                    // wr case, without writer deduplication.
                    for r in index.ext_reads(t3) {
                        self.infer_all_keys(&mut g, r.writer, t3);
                    }
                }
            }
            IsolationLevel::Causal => {
                if self.topo.is_none() {
                    return (false, stats);
                }
                let clocks = &self.clocks;
                let k = index.num_sessions();
                for t3 in 0..m as u32 {
                    let clock = clocks.row(t3);
                    let own = index.txn_id(t3).session;
                    for &(x, t1) in index.read_pairs(t3) {
                        for s in 0..k as u32 {
                            let bound = if s == own {
                                clock[s as usize].saturating_sub(1)
                            } else {
                                clock[s as usize]
                            };
                            // Every visible writer gets an edge — no
                            // latest-writer minimality.
                            for &t2 in index.session_writes(s, x) {
                                if index.committed_pos(t2) >= bound {
                                    break;
                                }
                                if t2 != t1 {
                                    g.add_edge(t2, t1, EdgeKind::Inferred(x));
                                }
                            }
                        }
                    }
                }
            }
        }
        stats.edges = g.num_emitted_edges();
        g.freeze();
        (g.is_acyclic(), stats)
    }

    fn infer_all_keys(&self, g: &mut CommitGraph, t2: u32, t3: u32) {
        // Full scan of KeysWt(t2) against *all* (key, writer) read pairs —
        // no smaller-set selection, and complete even when t3 reads a key
        // from several writers (a repeatable-reads violation then closes a
        // cycle between the writers).
        let pairs = self.index.read_pairs(t3);
        for &x in self.index.keys_written(t2) {
            let lo = pairs.partition_point(|&(k, _)| k < x);
            for &(k, t1) in &pairs[lo..] {
                if k != x {
                    break;
                }
                if t1 != t2 {
                    g.add_edge(t2, t1, EdgeKind::Inferred(x));
                }
            }
        }
    }

    /// The history being checked.
    pub fn history(&self) -> &History {
        self.history
    }
}

/// One-shot convenience: construct + solve.
pub fn check_plume(history: &History, level: IsolationLevel) -> bool {
    PlumeChecker::construct(history).solve(level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::check_naive;
    use crate::testgen::{random_plausible_history, GenParams};
    use awdit_core::check;

    #[test]
    fn plume_agrees_with_awdit_and_naive_on_random_histories() {
        for seed in 0..40 {
            let h = random_plausible_history(seed, GenParams::default());
            for level in IsolationLevel::ALL {
                let awdit = check(&h, level).is_consistent();
                let plume = check_plume(&h, level);
                let naive = check_naive(&h, level);
                assert_eq!(awdit, plume, "seed {seed} level {level} (plume)");
                assert_eq!(awdit, naive, "seed {seed} level {level} (naive)");
            }
        }
    }

    #[test]
    fn construction_and_solve_phases_are_separable() {
        let h = random_plausible_history(
            1,
            GenParams {
                sessions: 4,
                txns: 20,
                keys: 6,
                ..GenParams::default()
            },
        );
        let checker = PlumeChecker::construct(&h);
        for level in IsolationLevel::ALL {
            let (ok, stats) = checker.solve_with_stats(level);
            assert_eq!(ok, check(&h, level).is_consistent());
            assert!(stats.edges > 0);
            assert_eq!(stats.txns, h.num_committed());
        }
    }

    #[test]
    fn plume_adds_at_least_as_many_edges_as_awdit() {
        // Non-minimal saturation must produce at least as many edges.
        let h = random_plausible_history(
            7,
            GenParams {
                sessions: 4,
                txns: 40,
                keys: 3,
                staleness: 0.0, // keep it consistent so both saturate fully
                ..GenParams::default()
            },
        );
        let checker = PlumeChecker::construct(&h);
        let (_, stats) = checker.solve_with_stats(IsolationLevel::Causal);
        let awdit_stats = check(&h, IsolationLevel::Causal).stats();
        assert!(
            stats.edges >= awdit_stats.graph_edges,
            "plume {} < awdit {}",
            stats.edges,
            awdit_stats.graph_edges
        );
    }
}
