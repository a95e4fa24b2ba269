//! Extracting commit orders from acyclic saturations, and independently
//! validating a given commit order against the axioms.
//!
//! [`validate_commit_order`] implements Definitions 2.4/2.6/2.8 *directly*
//! (quantifying over transaction triples), with no saturation or minimality
//! tricks. It is quadratic and meant as a test oracle: Lemma 3.2 says the
//! checkers' verdicts must agree with "some linearization of `co′`
//! validates", which the test suites exercise on every consistent history.

use std::fmt;

use crate::graph::CommitGraph;
use crate::history::History;
use crate::index::{DenseId, HistoryIndex, NONE};
use crate::isolation::IsolationLevel;
use crate::types::{Key, TxnId};

/// A total commit order extracted from an acyclic commit graph, as
/// transaction ids in commit order.
pub fn commit_order_from_graph(index: &HistoryIndex, graph: &CommitGraph) -> Option<Vec<TxnId>> {
    graph
        .topological_order()
        .map(|topo| topo.into_iter().map(|d| index.txn_id(d)).collect())
}

/// Why a proposed commit order is not a valid witness.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CommitOrderError {
    /// The sequence is not a permutation of the committed transactions.
    NotAPermutation,
    /// Two transactions of one session appear out of session order.
    ViolatesSessionOrder {
        /// Earlier transaction in `so` placed later in the order.
        earlier: TxnId,
        /// Later transaction in `so` placed earlier in the order.
        later: TxnId,
    },
    /// A reader is ordered before its writer.
    ViolatesWriteRead {
        /// The writing transaction.
        writer: TxnId,
        /// The reading transaction placed before it.
        reader: TxnId,
    },
    /// The level's axiom fails for the triple `(t1, t2, t3)` on `key`:
    /// `t3` reads `key` from `t1` while `t2` writes `key`, is visible to
    /// `t3` per the level, and is ordered after `t1`.
    AxiomViolated {
        /// The isolation level checked.
        level: IsolationLevel,
        /// The transaction read from.
        t1: TxnId,
        /// The intervening writer.
        t2: TxnId,
        /// The reading transaction.
        t3: TxnId,
        /// The key involved.
        key: Key,
    },
}

impl fmt::Display for CommitOrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitOrderError::NotAPermutation => {
                write!(
                    f,
                    "order is not a permutation of the committed transactions"
                )
            }
            CommitOrderError::ViolatesSessionOrder { earlier, later } => {
                write!(
                    f,
                    "order places {later} before its session predecessor {earlier}"
                )
            }
            CommitOrderError::ViolatesWriteRead { writer, reader } => {
                write!(f, "order places reader {reader} before its writer {writer}")
            }
            CommitOrderError::AxiomViolated {
                level,
                t1,
                t2,
                t3,
                key,
            } => write!(
                f,
                "{level} axiom fails: {t3} reads {key} from {t1}, but visible {t2} \
                 writes {key} and is ordered after {t1}"
            ),
        }
    }
}

impl std::error::Error for CommitOrderError {}

/// Validates that `order` is a commit order witnessing `history`'s
/// conformance to `level` (Read Consistency is *not* re-checked here).
///
/// # Errors
///
/// Returns the first discrepancy found; see [`CommitOrderError`].
pub fn validate_commit_order(
    history: &History,
    level: IsolationLevel,
    order: &[TxnId],
) -> Result<(), CommitOrderError> {
    let index = HistoryIndex::new(history);
    let m = index.num_committed();
    if order.len() != m {
        return Err(CommitOrderError::NotAPermutation);
    }
    let mut pos: Vec<u32> = vec![NONE; m];
    for (i, &tid) in order.iter().enumerate() {
        let d = index.dense_id(tid);
        if d == NONE || pos[d as usize] != NONE {
            return Err(CommitOrderError::NotAPermutation);
        }
        pos[d as usize] = i as u32;
    }

    // so ∪ wr ⊆ co.
    for s in 0..index.num_sessions() {
        let list = index.session_committed(crate::types::SessionId(s as u32));
        for w in list.windows(2) {
            if pos[w[0] as usize] > pos[w[1] as usize] {
                return Err(CommitOrderError::ViolatesSessionOrder {
                    earlier: index.txn_id(w[0]),
                    later: index.txn_id(w[1]),
                });
            }
        }
    }
    for t in 0..m as u32 {
        for r in index.ext_reads(t) {
            if pos[r.writer as usize] > pos[t as usize] {
                return Err(CommitOrderError::ViolatesWriteRead {
                    writer: index.txn_id(r.writer),
                    reader: index.txn_id(t),
                });
            }
        }
    }

    match level {
        IsolationLevel::ReadCommitted => validate_rc(&index, &pos),
        IsolationLevel::ReadAtomic => validate_visibility(&index, &pos, level, &ra_visible(&index)),
        IsolationLevel::Causal => validate_visibility(&index, &pos, level, &cc_visible(&index)),
    }
}

/// RC axiom, direct form: for reads `r` (from `t2`) po-before `r_x` (from
/// `t1`) in `t3`, with `t2 ≠ t1` writing `r_x`'s key, require
/// `pos(t2) < pos(t1)`.
fn validate_rc(index: &HistoryIndex, pos: &[u32]) -> Result<(), CommitOrderError> {
    for t3 in 0..index.num_committed() as u32 {
        let reads = index.ext_reads(t3);
        for (i, r) in reads.iter().enumerate() {
            let t2 = r.writer;
            for rx in &reads[i + 1..] {
                let t1 = rx.writer;
                if t1 != t2 && index.writes_key(t2, rx.key) && pos[t2 as usize] > pos[t1 as usize] {
                    return Err(CommitOrderError::AxiomViolated {
                        level: IsolationLevel::ReadCommitted,
                        t1: index.txn_id(t1),
                        t2: index.txn_id(t2),
                        t3: index.txn_id(t3),
                        key: rx.key,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Visibility sets for RA: one `so ∪ wr` step.
fn ra_visible(index: &HistoryIndex) -> Vec<Vec<DenseId>> {
    let m = index.num_committed();
    let mut vis = vec![Vec::new(); m];
    for s in 0..index.num_sessions() {
        let list = index.session_committed(crate::types::SessionId(s as u32));
        for (i, &t) in list.iter().enumerate() {
            // All session predecessors (so is transitive).
            vis[t as usize].extend_from_slice(&list[..i]);
        }
    }
    for t in 0..m as u32 {
        for r in index.ext_reads(t) {
            vis[t as usize].push(r.writer);
        }
        vis[t as usize].sort_unstable();
        vis[t as usize].dedup();
    }
    vis
}

/// Visibility sets for CC: full happens-before `(so ∪ wr)+`, by reverse BFS
/// over predecessors. Quadratic; test oracle only.
fn cc_visible(index: &HistoryIndex) -> Vec<Vec<DenseId>> {
    let m = index.num_committed();
    // Predecessor lists: session predecessor + distinct writers.
    let mut preds: Vec<Vec<DenseId>> = vec![Vec::new(); m];
    for s in 0..index.num_sessions() {
        let list = index.session_committed(crate::types::SessionId(s as u32));
        for w in list.windows(2) {
            preds[w[1] as usize].push(w[0]);
        }
    }
    for t in 0..m as u32 {
        for r in index.ext_reads(t) {
            preds[t as usize].push(r.writer);
        }
    }
    let mut vis = vec![Vec::new(); m];
    let mut seen = vec![false; m];
    for t in 0..m {
        let mut stack: Vec<DenseId> = preds[t].clone();
        let mut reach = Vec::new();
        for x in seen.iter_mut() {
            *x = false;
        }
        while let Some(v) = stack.pop() {
            if seen[v as usize] || v as usize == t {
                continue;
            }
            seen[v as usize] = true;
            reach.push(v);
            stack.extend_from_slice(&preds[v as usize]);
        }
        vis[t] = reach;
    }
    vis
}

/// Shared RA/CC axiom check over precomputed visibility sets: for each read
/// `(x, t1)` of `t3` and each visible `t2 ≠ t1` writing `x`, require
/// `pos(t2) < pos(t1)`.
fn validate_visibility(
    index: &HistoryIndex,
    pos: &[u32],
    level: IsolationLevel,
    vis: &[Vec<DenseId>],
) -> Result<(), CommitOrderError> {
    for t3 in 0..index.num_committed() as u32 {
        for &(x, t1) in index.read_pairs(t3) {
            for &t2 in &vis[t3 as usize] {
                if t2 != t1 && index.writes_key(t2, x) && pos[t2 as usize] > pos[t1 as usize] {
                    return Err(CommitOrderError::AxiomViolated {
                        level,
                        t1: index.txn_id(t1),
                        t2: index.txn_id(t2),
                        t3: index.txn_id(t3),
                        key: x,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Whether some permutation of `history`'s committed transactions is a
/// commit order witnessing `level`: the brute-force oracle for small
/// histories' verdicts.
#[cfg(test)]
pub(crate) fn some_commit_order_validates(history: &History, level: IsolationLevel) -> bool {
    fn search(h: &History, level: IsolationLevel, ids: &mut [TxnId], k: usize) -> bool {
        if k == ids.len() {
            return validate_commit_order(h, level, ids).is_ok();
        }
        for i in k..ids.len() {
            ids.swap(k, i);
            if search(h, level, ids, k + 1) {
                return true;
            }
            ids.swap(k, i);
        }
        false
    }
    let mut ids = HistoryIndex::new(history).txn_ids().to_vec();
    search(history, level, &mut ids, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{saturate_cc, CcStrategy};
    use crate::history::HistoryBuilder;
    use crate::rc::saturate_rc;

    fn fig4b() -> History {
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
        b.finish().unwrap()
    }

    #[test]
    fn linearization_of_rc_saturation_validates() {
        let h = fig4b();
        let index = HistoryIndex::new(&h);
        let mut g = saturate_rc(&index);
        g.freeze();
        let order = commit_order_from_graph(&index, &g).expect("consistent");
        validate_commit_order(&h, IsolationLevel::ReadCommitted, &order)
            .expect("linearization must witness RC");
    }

    #[test]
    fn no_order_witnesses_ra_for_fig4b() {
        // Fig. 4b is RA-inconsistent; every permutation must fail.
        let h = fig4b();
        let ids: Vec<TxnId> = h.committed_txns().map(|(t, _)| t).collect();
        let mut perms = Vec::new();
        permute(
            &ids,
            &mut Vec::new(),
            &mut vec![false; ids.len()],
            &mut perms,
        );
        for p in perms {
            assert!(
                validate_commit_order(&h, IsolationLevel::ReadAtomic, &p).is_err(),
                "order {p:?} unexpectedly witnesses RA"
            );
        }
    }

    fn permute(
        ids: &[TxnId],
        cur: &mut Vec<TxnId>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<TxnId>>,
    ) {
        if cur.len() == ids.len() {
            out.push(cur.clone());
            return;
        }
        for i in 0..ids.len() {
            if !used[i] {
                used[i] = true;
                cur.push(ids[i]);
                permute(ids, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }

    #[test]
    fn permutation_check_catches_bad_orders() {
        let h = fig4b();
        let err = validate_commit_order(&h, IsolationLevel::ReadCommitted, &[]);
        assert_eq!(err, Err(CommitOrderError::NotAPermutation));

        let t0 = TxnId::new(0, 0);
        let err = validate_commit_order(&h, IsolationLevel::ReadCommitted, &[t0, t0, t0]);
        assert_eq!(err, Err(CommitOrderError::NotAPermutation));
    }

    #[test]
    fn session_order_violations_detected() {
        let h = fig4b();
        // Swap the two session-1 transactions.
        let order = vec![TxnId::new(0, 1), TxnId::new(0, 0), TxnId::new(1, 0)];
        assert!(matches!(
            validate_commit_order(&h, IsolationLevel::ReadCommitted, &order),
            Err(CommitOrderError::ViolatesSessionOrder { .. })
        ));
    }

    #[test]
    fn write_read_violations_detected() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 1);
        b.commit(s2);
        let h = b.finish().unwrap();
        let order = vec![TxnId::new(1, 0), TxnId::new(0, 0)];
        assert!(matches!(
            validate_commit_order(&h, IsolationLevel::ReadCommitted, &order),
            Err(CommitOrderError::ViolatesWriteRead { .. })
        ));
    }

    #[test]
    fn cc_linearization_validates_on_fig4d() {
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
        let index = HistoryIndex::new(&h);
        let mut g = saturate_cc(&index, CcStrategy::default()).expect("no causality cycle");
        g.freeze();
        let order = commit_order_from_graph(&index, &g).expect("consistent");
        validate_commit_order(&h, IsolationLevel::Causal, &order)
            .expect("linearization must witness CC");
    }
}
