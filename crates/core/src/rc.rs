//! Read Committed (Algorithm 1): saturation of the minimal commit relation
//! for the RC axiom, in `O(n^{3/2})` time.
//!
//! The RC axiom (Definition 2.4, Figure 3a): if transaction `t3` reads some
//! key from `t2` at read `r`, and a `po`-later read `r_x` of `t3` reads key
//! `x` from `t1 ≠ t2` while `t2` also writes `x`, then `t2` must commit
//! before `t1`.
//!
//! Algorithm 1 adds only the edges a *minimal* saturation needs:
//!
//! * only the `po`-first read from each observed transaction `t2` triggers
//!   an intersection (`firstTxnReads`), and
//! * for each key `x` in `KeysWt(t2) ∩ readKeys`, the inferred edge targets
//!   only the *earliest* future writer of `x` — later writers are ordered
//!   transitively because consecutive distinct writers of `x` observed by
//!   `t3` are themselves chained by inferred edges.
//!
//! The two-slot `earliestWts` stack handles the case where the earliest
//! future writer *is* `t2` itself, in which case the second-earliest
//! distinct writer must be used (see the discussion below Algorithm 1 in
//! the paper).
//!
//! Iterating each intersection over the smaller of the two sets yields the
//! `O(n^{3/2})` bound (Lemma 3.4); for histories whose transactions have
//! `O(1)` size this collapses to `O(n)`.

use crate::graph::{base_commit_graph_into, CommitGraph};
use crate::incremental::RcKernel;
use crate::index::HistoryIndex;
use crate::parallel::{self, SEQUENTIAL_CUTOFF};

/// Saturates the minimal commit relation for Read Committed.
///
/// Returns the commit graph `co′ = so ∪ wr ∪ inferred`, not yet
/// [frozen](CommitGraph::freeze); the history satisfies RC iff the graph
/// is acyclic (given Read Consistency, which is checked separately by
/// [`check`](crate::check)).
///
/// Implemented as a loop over the per-transaction
/// [`RcKernel`], the same inference body the
/// streaming checker drives one commit at a time.
pub fn saturate_rc(index: &HistoryIndex) -> CommitGraph {
    let mut g = CommitGraph::new(0);
    saturate_rc_into(&parallel::Pool::new(1), index, 1, &mut g);
    g
}

/// [`saturate_rc`] into a caller-owned graph arena (reset and refilled;
/// see [`CommitGraph::reset`]) on up to `threads` participants of `pool`
/// (`0` = all cores) — the [`Engine`](crate::Engine)'s
/// allocation-recycling path.
///
/// The RC inference body is transaction-local, so the dense-id range is
/// sharded into contiguous chunks, each worker runs its own kernel into
/// one of the graph's pair buffers, and the graph adopts the buffers in
/// chunk order — the resulting graph is bit-identical to the sequential
/// one for every thread count.
pub fn saturate_rc_into(
    pool: &parallel::Pool,
    index: &HistoryIndex,
    threads: usize,
    g: &mut CommitGraph,
) {
    base_commit_graph_into(index, g);
    let m = index.num_committed();
    let threads = parallel::effective_threads(threads);
    if threads <= 1 || m < SEQUENTIAL_CUTOFF {
        let mut kernel = RcKernel::new();
        for t3 in 0..m as u32 {
            kernel.process(index, t3, g);
        }
        return;
    }
    let shards = parallel::split_even(m, threads * 4);
    g.fill_shards(pool, threads, "saturate_rc", &shards, |range, sink| {
        let mut kernel = RcKernel::new();
        for t3 in range.clone() {
            kernel.process(index, t3, sink);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{is_inferred, target};
    use crate::history::{History, HistoryBuilder};

    fn frozen(mut g: CommitGraph) -> CommitGraph {
        g.freeze();
        g
    }

    /// Whether `g` holds the inferred edge `from -> to`.
    fn has_inferred(g: &CommitGraph, from: u32, to: u32) -> bool {
        g.successors(from)
            .iter()
            .any(|&e| target(e) == to && is_inferred(e))
    }

    fn rc_consistent(h: &History) -> bool {
        let index = HistoryIndex::new(h);
        frozen(saturate_rc(&index)).is_acyclic()
    }

    /// Figure 1a: the motivating RC-inconsistent history.
    #[test]
    fn fig1a_rc_inconsistent() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let s4 = b.session();
        let (x, y, z) = (0, 1, 2);
        // t1: W(x,1) W(y,1)
        b.begin(s1);
        b.write(s1, x, 1);
        b.write(s1, y, 1);
        b.commit(s1);
        // t2: W(x,2)
        b.begin(s2);
        b.write(s2, x, 2);
        b.commit(s2);
        // t3: W(x,3), then t4: W(z,1) W(y,2) in the same session
        b.begin(s3);
        b.write(s3, x, 3);
        b.commit(s3);
        b.begin(s3);
        b.write(s3, z, 1);
        b.write(s3, y, 2);
        b.commit(s3);
        // t5: R(x,1) R(x,2) R(x,3)
        b.begin(s4);
        b.read(s4, x, 1);
        b.read(s4, x, 2);
        b.read(s4, x, 3);
        b.commit(s4);
        // t6: R(z,1) R(y,1)
        b.begin(s4);
        b.read(s4, z, 1);
        b.read(s4, y, 1);
        b.commit(s4);
        let h = b.finish().unwrap();
        assert!(!rc_consistent(&h), "Fig. 1a must violate RC");
    }

    /// Figure 4a: RC-inconsistent (t3 reads x=2 then the older x=1).
    #[test]
    fn fig4a_rc_inconsistent() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1); // t1: W(x,1)
        b.commit(s1);
        b.begin(s1);
        b.write(s1, 0, 2); // t2: W(x,2)
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 2);
        b.read(s2, 0, 1); // t3
        b.commit(s2);
        let h = b.finish().unwrap();
        assert!(!rc_consistent(&h));
    }

    /// Figure 4b: RC-consistent (t1 observed before t2's y).
    #[test]
    fn fig4b_rc_consistent() {
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
        b.read(s2, y, 2); // t3
        b.commit(s2);
        let h = b.finish().unwrap();
        assert!(rc_consistent(&h));
    }

    /// Reading x from t2, then x from t1, forces t2 -> t1 even when both
    /// reads are from the same pair of transactions (the two-slot stack
    /// case: the earliest future writer of x *is* t2).
    #[test]
    fn two_slot_stack_case() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let x = 0;
        b.begin(s1);
        b.write(s1, x, 1); // t1
        b.commit(s1);
        b.begin(s2);
        b.write(s2, x, 2); // t2
        b.commit(s2);
        // t3 reads x from t2, then x from t1: infers t2 -> t1.
        b.begin(s3);
        b.read(s3, x, 2);
        b.read(s3, x, 1);
        b.commit(s3);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let g = frozen(saturate_rc(&index));
        assert!(g.is_acyclic()); // consistent: t2 before t1 is satisfiable
        let t1 = index.dense_id(crate::types::TxnId::new(0, 0));
        let t2 = index.dense_id(crate::types::TxnId::new(1, 0));
        assert!(has_inferred(&g, t2, t1), "expected inferred edge t2 -> t1");
    }

    /// r and r_x read from the same transaction t2 with another read in
    /// between: the paper's motivation for the two-element stack. Here t3
    /// reads x from t2, then x from t2 again, then x from t1. The edge
    /// t2 -> t1 must still be inferred.
    #[test]
    fn repeated_reads_from_same_txn_still_infer() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let (x, y) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1); // t1 writes x
        b.commit(s1);
        b.begin(s2);
        b.write(s2, x, 2); // t2 writes x and y
        b.write(s2, y, 2);
        b.commit(s2);
        b.begin(s3);
        b.read(s3, y, 2); // first read of t2 (via y)
        b.read(s3, x, 2); // second read of t2 (via x)
        b.read(s3, x, 1); // read of t1
        b.commit(s3);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let g = frozen(saturate_rc(&index));
        let t1 = index.dense_id(crate::types::TxnId::new(0, 0));
        let t2 = index.dense_id(crate::types::TxnId::new(1, 0));
        assert!(
            has_inferred(&g, t2, t1),
            "expected inferred edge t2 -> t1 despite intervening same-txn read"
        );
    }

    #[test]
    fn empty_and_write_only_histories_are_consistent() {
        let h = HistoryBuilder::new().finish().unwrap();
        assert!(rc_consistent(&h));

        let mut b = HistoryBuilder::new();
        let s = b.session();
        for i in 0..10 {
            b.begin(s);
            b.write(s, i, i);
            b.commit(s);
        }
        let h = b.finish().unwrap();
        assert!(rc_consistent(&h));
    }

    /// RC violation with a single session (the Theorem 1.5 shape):
    /// session order alone plus observation monotonicity conflict.
    #[test]
    fn single_session_rc_violation() {
        let mut b = HistoryBuilder::new();
        let s = b.session();
        let (x, y) = (0, 1);
        // tA writes x=1, y=1. tB writes x=2. tC reads y from tA then x from
        // tB... consistent. Instead: tC reads x from tB (later) then x from
        // tA (earlier): infers tB -> tA, but tA -so-> tB.
        b.begin(s);
        b.write(s, x, 1);
        b.write(s, y, 1);
        b.commit(s);
        b.begin(s);
        b.write(s, x, 2);
        b.commit(s);
        b.begin(s);
        b.read(s, x, 2);
        b.read(s, x, 1);
        b.commit(s);
        let h = b.finish().unwrap();
        assert!(!rc_consistent(&h));
    }

    /// Observing t2 via key y and later reading x from t1 where t2 also
    /// writes x infers t2 -> t1 (the general axiom shape, r != r_x).
    #[test]
    fn cross_key_observation_infers_edge() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let (x, y) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1); // t1
        b.commit(s1);
        b.begin(s2);
        b.write(s2, x, 2);
        b.write(s2, y, 2); // t2
        b.commit(s2);
        b.begin(s3);
        b.read(s3, y, 2); // observe t2
        b.read(s3, x, 1); // then read x from t1
        b.commit(s3);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let g = frozen(saturate_rc(&index));
        let t1 = index.dense_id(crate::types::TxnId::new(0, 0));
        let t2 = index.dense_id(crate::types::TxnId::new(1, 0));
        assert!(has_inferred(&g, t2, t1));
        assert!(g.is_acyclic());
    }

    /// Fig. 4a violates Definition 2.4's RC but satisfies the weaker Adya
    /// G1 reading (footnote 2): so ∪ wr is acyclic.
    #[test]
    fn g1_is_weaker_than_rc() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s1);
        b.write(s1, 0, 2);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 2);
        b.read(s2, 0, 1);
        b.commit(s2);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        assert!(
            crate::cc::causality_cycles(&index).is_empty(),
            "G1 accepts Fig. 4a"
        );
        assert!(
            !frozen(saturate_rc(&index)).is_acyclic(),
            "full RC rejects it"
        );
    }

    #[test]
    fn g1_rejects_causality_cycles() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.read(s1, 1, 2);
        b.commit(s1);
        b.begin(s2);
        b.write(s2, 1, 2);
        b.read(s2, 0, 1);
        b.commit(s2);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let cycles = crate::cc::causality_cycles(&index);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].is_closed());
    }
}
