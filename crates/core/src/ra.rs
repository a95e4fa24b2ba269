//! Read Atomic (Algorithm 2): saturation of the minimal commit relation for
//! the RA axiom in `O(n^{3/2})` time, plus the repeatable-reads pre-check
//! and the linear-time single-session special case (Theorem 1.6).
//!
//! The RA axiom (Definition 2.6, Figure 3b): if `t3` reads `x` from `t1`,
//! and `t2 ≠ t1` writes `x` with `t2 →(so ∪ wr)→ t3` (one step), then `t2`
//! must commit before `t1`. The two kinds of `so ∪ wr` steps are saturated
//! separately:
//!
//! * **so**: only the session-latest prior writer of `x` needs an edge; all
//!   earlier session writers are ordered transitively through it.
//! * **wr**: for each transaction `t2` that `t3` directly reads from, every
//!   key in `KeysWt(t2) ∩ KeysRd(t3)` whose (unique, by repeatable reads)
//!   writer differs from `t2` yields an edge — iterating the smaller set
//!   gives the `O(n^{3/2})` bound (Lemma 3.6).

use crate::graph::{CommitGraph, EdgeKind};
use crate::index::{DenseId, HistoryIndex, NONE};
use crate::types::SessionId;
use crate::witness::{Violation, WitnessCycle, WitnessEdge};

/// Checks the repeatable-reads property: no committed transaction reads the
/// same key from two different transactions. Implied by the RA axiom, and a
/// precondition for [`saturate_ra`]'s uniqueness assumption.
///
/// A loop over the per-transaction
/// [`RepeatableReads`](crate::incremental::RepeatableReads) step, which the
/// streaming checker runs too. Returns every offending read, in dense order
/// and then program order, as [`Violation::NonRepeatableRead`] values
/// naming the key's first writer in the transaction.
pub fn check_repeatable_reads(index: &HistoryIndex) -> Vec<Violation> {
    let mut step = crate::incremental::RepeatableReads::default();
    let mut violations = Vec::new();
    for t in 0..index.num_committed() as u32 {
        let txn = index.txn_id(t);
        let reads = index.ext_reads(t).iter();
        step.check_txn(
            reads.map(|r| (r.key, index.txn_id(r.writer))),
            |key, first_writer, second_writer| {
                violations.push(Violation::NonRepeatableRead {
                    txn,
                    key,
                    first_writer,
                    second_writer,
                })
            },
        );
    }
    violations
}

/// Saturates the minimal commit relation for Read Atomic.
///
/// Requires the history to satisfy repeatable reads (check with
/// [`check_repeatable_reads`] first); otherwise the per-key writer of a
/// transaction is ambiguous and the inferred edges may be incomplete.
///
/// Implemented as a loop over the per-transaction
/// [`RaKernel`](crate::incremental::RaKernel), the same inference body the
/// streaming checker drives one commit at a time (the kernel only requires
/// session order *within* each session, which the session-major sweep
/// trivially provides).
pub fn saturate_ra(index: &HistoryIndex) -> CommitGraph {
    let mut g = CommitGraph::new(0);
    saturate_ra_into(&crate::parallel::Pool::new(1), index, 1, &mut g);
    g
}

/// [`saturate_ra`] into a caller-owned graph arena (reset and refilled;
/// see [`CommitGraph::reset`]) on up to `threads` participants of `pool`
/// (`0` = all cores) — the [`Engine`](crate::Engine)'s
/// allocation-recycling path.
///
/// The RA kernel only consults the reading transaction's own session
/// state, so *sessions* are sharded into contiguous groups (weighted by
/// their committed-transaction counts); each worker sweeps its sessions in
/// order with its own kernel into one of the graph's pair buffers, adopted
/// in group order — bit-identical to the sequential session-major sweep
/// for every thread count.
pub fn saturate_ra_into(
    pool: &crate::parallel::Pool,
    index: &HistoryIndex,
    threads: usize,
    g: &mut CommitGraph,
) {
    crate::graph::base_commit_graph_into(index, g);
    let k = index.num_sessions();
    let threads = crate::parallel::effective_threads(threads);
    if threads <= 1 || index.num_committed() < crate::parallel::SEQUENTIAL_CUTOFF || k <= 1 {
        let mut kernel = crate::incremental::RaKernel::new();
        for s in 0..k as u32 {
            for &t3 in index.session_committed(SessionId(s)) {
                kernel.process(index, t3, g);
            }
        }
        return;
    }
    let groups = crate::parallel::session_groups(index, threads * 2);
    g.fill_shards(pool, threads, "saturate_ra", &groups, |sessions, sink| {
        let mut kernel = crate::incremental::RaKernel::new();
        for s in sessions.clone() {
            for &t3 in index.session_committed(SessionId(s as u32)) {
                kernel.process(index, t3, sink);
            }
        }
    });
}

/// Theorem 1.6: RA with a single session in `O(n)` time.
///
/// With one session the commit order must equal the session order, so it
/// suffices to scan once, keeping the latest writer of each key: a read of
/// `x` from anything but the latest prior writer of `x` is a violation.
/// Returns all violations as two-edge witness cycles (plus causality-cycle
/// witnesses for reads from `so`-later transactions).
pub fn check_ra_single_session(index: &HistoryIndex) -> Vec<Violation> {
    debug_assert!(index.num_sessions() <= 1);
    let num_keys = index.num_keys();
    let mut last_write: Vec<DenseId> = vec![NONE; num_keys];
    let mut violations = Vec::new();

    let committed = if index.num_sessions() == 0 {
        &[][..]
    } else {
        index.session_committed(SessionId(0))
    };
    for &t3 in committed {
        for r in index.ext_reads(t3) {
            let t1 = r.writer;
            // so ∪ wr acyclicity: the writer must be so-before the reader.
            if index.committed_pos(t1) >= index.committed_pos(t3) {
                violations.push(Violation::CausalityCycle(WitnessCycle {
                    edges: vec![
                        WitnessEdge {
                            from: index.txn_id(t1),
                            to: index.txn_id(t3),
                            kind: EdgeKind::WriteRead(r.key),
                        },
                        WitnessEdge {
                            from: index.txn_id(t3),
                            to: index.txn_id(t1),
                            kind: EdgeKind::SessionOrder,
                        },
                    ],
                }));
                continue;
            }
            let t2 = last_write[r.key.index()];
            if t2 != NONE && t2 != t1 {
                // t2 is the latest writer of x before t3 and t1 wrote x
                // strictly earlier: the RA axiom forces t2 -> t1 against
                // t1 -so-> t2.
                violations.push(Violation::CommitOrderCycle {
                    level: crate::isolation::IsolationLevel::ReadAtomic,
                    cycle: WitnessCycle {
                        edges: vec![
                            WitnessEdge {
                                from: index.txn_id(t2),
                                to: index.txn_id(t1),
                                kind: EdgeKind::Inferred(r.key),
                            },
                            WitnessEdge {
                                from: index.txn_id(t1),
                                to: index.txn_id(t2),
                                kind: EdgeKind::SessionOrder,
                            },
                        ],
                    },
                });
            }
        }
        for &x in index.keys_written(t3) {
            last_write[x.index()] = t3;
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{is_inferred, target};
    use crate::history::{History, HistoryBuilder};
    use crate::rc::saturate_rc;
    use crate::types::TxnId;

    fn frozen(mut g: CommitGraph) -> CommitGraph {
        g.freeze();
        g
    }

    fn ra_consistent(h: &History) -> bool {
        let index = HistoryIndex::new(h);
        check_repeatable_reads(&index).is_empty() && frozen(saturate_ra(&index)).is_acyclic()
    }

    /// Figure 4b violates RA: t3 reads y from t2 but x from the older t1.
    #[test]
    fn fig4b_ra_inconsistent() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let (x, y) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1); // t1
        b.commit(s1);
        b.begin(s1);
        b.write(s1, x, 2);
        b.write(s1, y, 2); // t2
        b.commit(s1);
        b.begin(s2);
        b.read(s2, x, 1);
        b.read(s2, y, 2); // t3: fractured read of t2
        b.commit(s2);
        let h = b.finish().unwrap();
        assert!(!ra_consistent(&h));
        // ... while satisfying RC (Example 2.5).
        let index = HistoryIndex::new(&h);
        assert!(frozen(saturate_rc(&index)).is_acyclic());
    }

    /// Figure 4c satisfies RA (t4 reads all of what it observes).
    #[test]
    fn fig4c_ra_consistent() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let (x, y) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1); // t1
        b.commit(s1);
        b.begin(s1);
        b.write(s1, x, 2); // t2
        b.commit(s1);
        b.begin(s2);
        b.read(s2, x, 2);
        b.write(s2, y, 3); // t3
        b.commit(s2);
        b.begin(s3);
        b.read(s3, y, 3);
        b.read(s3, x, 1); // t4
        b.commit(s3);
        let h = b.finish().unwrap();
        assert!(ra_consistent(&h));
    }

    #[test]
    fn non_repeatable_read_detected() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s2);
        b.write(s2, 0, 2);
        b.commit(s2);
        b.begin(s3);
        b.read(s3, 0, 1);
        b.read(s3, 0, 2); // same key, different writer
        b.commit(s3);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let v = check_repeatable_reads(&index);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::NonRepeatableRead { .. }));
    }

    #[test]
    fn repeated_read_from_same_writer_is_repeatable() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 1);
        b.read(s2, 0, 1);
        b.commit(s2);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        assert!(check_repeatable_reads(&index).is_empty());
        assert!(ra_consistent(&h));
    }

    /// The so-case of the RA axiom: t2 -so-> t3 forces t2 -co-> t1, which
    /// closes a cycle because t2 also reads from t1 (so t1 -wr-> t2).
    #[test]
    fn so_case_violation() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let (x, y) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1); // t1 writes x and y
        b.write(s1, y, 1);
        b.commit(s1);
        // session 2: t2 observes t1 (via y) and overwrites x; t3 then reads
        // the stale x from t1 although its own session's t2 wrote x.
        b.begin(s2);
        b.read(s2, y, 1);
        b.write(s2, x, 2); // t2
        b.commit(s2);
        b.begin(s2);
        b.read(s2, x, 1); // t3
        b.commit(s2);
        let h = b.finish().unwrap();
        assert!(!ra_consistent(&h));
    }

    /// Without a constraint pinning t1 before t2, the same shape is
    /// satisfiable: co = t2 < t1 < t3 reorders the concurrent writers.
    #[test]
    fn stale_session_read_of_concurrent_writer_is_ra_consistent() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let x = 0;
        b.begin(s1);
        b.write(s1, x, 1); // t1 (concurrent with t2)
        b.commit(s1);
        b.begin(s2);
        b.write(s2, x, 2); // t2
        b.commit(s2);
        b.begin(s2);
        b.read(s2, x, 1); // t3: fine, commit order t2 < t1 < t3 witnesses
        b.commit(s2);
        let h = b.finish().unwrap();
        assert!(ra_consistent(&h));
    }

    /// Only the session-latest prior writer gets a direct edge; earlier
    /// session writers are ordered transitively (minimality).
    #[test]
    fn so_case_uses_latest_writer_only() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let x = 0;
        b.begin(s1);
        b.write(s1, x, 1); // t1
        b.commit(s1);
        b.begin(s2);
        b.write(s2, x, 2); // t2a
        b.commit(s2);
        b.begin(s2);
        b.write(s2, x, 3); // t2b
        b.commit(s2);
        b.begin(s2);
        b.read(s2, x, 1); // t3 reads t1 (consistent: co = t2a,t2b,t1,t3)
        b.commit(s2);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let g = frozen(saturate_ra(&index));
        assert!(g.is_acyclic());
        let t1 = index.dense_id(TxnId::new(0, 0));
        let t2a = index.dense_id(TxnId::new(1, 0));
        let t2b = index.dense_id(TxnId::new(1, 1));
        let inferred: Vec<(u32, u32)> = (0..index.num_committed() as u32)
            .flat_map(|v| {
                g.successors(v)
                    .iter()
                    .filter(|&&e| is_inferred(e))
                    .map(move |&e| (v, target(e)))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(inferred.contains(&(t2b, t1)));
        assert!(!inferred.contains(&(t2a, t1)), "non-minimal edge added");
    }

    #[test]
    fn single_session_ra_linear_check() {
        let mut b = HistoryBuilder::new();
        let s = b.session();
        let x = 0;
        b.begin(s);
        b.write(s, x, 1); // t0
        b.commit(s);
        b.begin(s);
        b.write(s, x, 2); // t1
        b.commit(s);
        b.begin(s);
        b.read(s, x, 1); // t2 reads stale value
        b.commit(s);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let v = check_ra_single_session(&index);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::CommitOrderCycle { .. }));

        // And the general algorithm agrees.
        assert!(!ra_consistent(&h));
    }

    #[test]
    fn single_session_ra_consistent() {
        let mut b = HistoryBuilder::new();
        let s = b.session();
        b.begin(s);
        b.write(s, 0, 1);
        b.write(s, 1, 1);
        b.commit(s);
        b.begin(s);
        b.read(s, 0, 1);
        b.write(s, 0, 2);
        b.commit(s);
        b.begin(s);
        b.read(s, 0, 2);
        b.read(s, 1, 1);
        b.commit(s);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        assert!(check_ra_single_session(&index).is_empty());
        assert!(ra_consistent(&h));
    }

    #[test]
    fn single_session_future_wr_is_causality_cycle() {
        let mut b = HistoryBuilder::new();
        let s = b.session();
        b.begin(s);
        b.read(s, 0, 1); // reads a write from the so-future
        b.commit(s);
        b.begin(s);
        b.write(s, 0, 1);
        b.commit(s);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let v = check_ra_single_session(&index);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::CausalityCycle(_)));
    }

    /// RA ⊑ RC on these examples: every RA-consistent test history above is
    /// also RC-consistent.
    #[test]
    fn fig4c_also_rc_consistent() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let (x, y) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1);
        b.commit(s1);
        b.begin(s1);
        b.write(s1, x, 2);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, x, 2);
        b.write(s2, y, 3);
        b.commit(s2);
        b.begin(s3);
        b.read(s3, y, 3);
        b.read(s3, x, 1);
        b.commit(s3);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        assert!(frozen(saturate_rc(&index)).is_acyclic());
    }
}
