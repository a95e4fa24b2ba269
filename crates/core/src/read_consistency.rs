//! Read Consistency (Algorithm 4): the five basic axioms every isolation
//! level requires (Definition 2.3, Figure 2).
//!
//! Every read of a committed transaction must observe
//! (a) a value that was actually written (*no thin-air reads*),
//! (b) from a committed transaction (*no aborted reads*),
//! (c) not from its own `po`-future (*no future reads*),
//! (d) its own transaction's write if one precedes it (*observe own
//!     writes*), and
//! (e) the latest such write — for external reads, the writer's final write
//!     of the key (*observe latest write*).
//!
//! Each read is checked independently in `O(1)` time, so the whole pass is
//! `O(n)` and reports *all* offending reads, letting the downstream checkers
//! proceed on the remaining clean reads (Section 3.4).
//!
//! The axioms themselves are the per-transaction [`ReadCheck`] step, which
//! the streaming checker runs too. For axiom (e)'s external case this pass
//! first sets a per-op bit, "overwritten later in its transaction", over
//! [`History::flat_ops`] with one stamped reverse scan per transaction; a
//! read from write `op` of `w` then looks up the bit at
//! `txn_op_offsets[global(w)] + op`.

use crate::history::History;
use crate::incremental::{ReadCheck, ReadFinding, ReadFrom, TxnOp};
use crate::op::{Op, ReadSource};
use crate::types::{OpLoc, TxnId};
use crate::witness::ReadConsistencyViolation;

/// Checks the five Read Consistency axioms, returning all violations in
/// session-major, program order.
///
/// # Examples
///
/// ```
/// use awdit_core::{check_read_consistency, HistoryBuilder};
///
/// # fn main() -> Result<(), awdit_core::BuildError> {
/// let mut b = HistoryBuilder::new();
/// let s = b.session();
/// b.begin(s);
/// b.read(s, 1, 99); // nobody wrote 99
/// b.commit(s);
/// let h = b.finish()?;
/// let violations = check_read_consistency(&h);
/// assert_eq!(violations.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn check_read_consistency(history: &History) -> Vec<ReadConsistencyViolation> {
    let ops = history.flat_ops();
    let op_offsets = history.txn_op_offsets();
    let committed = history.committed_flags();
    let session_offsets = history.session_offsets();
    let global = |t: TxnId| session_offsets[t.session as usize] as usize + t.index as usize;

    // Per op: whether a later write of the same key in its transaction
    // overwrites it. Keys are dense, so a stamped array avoids clearing
    // between transactions.
    let mut overwritten = vec![false; ops.len()];
    let mut stamp: Vec<u32> = vec![0; history.num_keys()];
    for g in 0..committed.len() {
        let round = g as u32 + 1;
        for i in (op_offsets[g] as usize..op_offsets[g + 1] as usize).rev() {
            if let Op::Write { key, .. } = ops[i] {
                overwritten[i] = stamp[key.index()] == round;
                stamp[key.index()] = round;
            }
        }
    }

    let mut violations = Vec::new();
    let mut step = ReadCheck::default();
    for (tid, txn) in history.committed_txns() {
        let txn_ops = txn.ops().iter().map(|op| match *op {
            Op::Write { key, value } => TxnOp::Write(key, value),
            Op::Read { key, value, source } => TxnOp::Read(
                key,
                value,
                match source {
                    ReadSource::ThinAir => ReadFrom::ThinAir,
                    ReadSource::Internal { op } => ReadFrom::Own(op),
                    ReadSource::External { txn, op } if committed[global(txn)] => {
                        ReadFrom::External(OpLoc::new(txn, op))
                    }
                    ReadSource::External { txn, op } => ReadFrom::Aborted(OpLoc::new(txn, op)),
                },
            ),
        });
        step.check_txn(
            tid,
            txn_ops,
            |w, _| !overwritten[op_offsets[global(w.txn)] as usize + w.op as usize],
            |f| {
                if let ReadFinding::Violation(v) = f {
                    violations.push(v);
                }
            },
        );
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::types::Value;

    fn violations_of(build: impl FnOnce(&mut HistoryBuilder)) -> Vec<ReadConsistencyViolation> {
        let mut b = HistoryBuilder::new();
        build(&mut b);
        check_read_consistency(&b_finish(b))
    }

    fn b_finish(b: HistoryBuilder) -> History {
        b.finish().expect("history must build")
    }

    #[test]
    fn clean_history_has_no_violations() {
        let vs = violations_of(|b| {
            let s0 = b.session();
            let s1 = b.session();
            b.begin(s0);
            b.write(s0, 1, 10);
            b.commit(s0);
            b.begin(s1);
            b.read(s1, 1, 10);
            b.commit(s1);
        });
        assert!(vs.is_empty());
    }

    #[test]
    fn thin_air_read_fig2a() {
        let vs = violations_of(|b| {
            let s = b.session();
            b.begin(s);
            b.read(s, 1, 7);
            b.commit(s);
        });
        assert_eq!(vs.len(), 1);
        assert!(matches!(
            vs[0],
            ReadConsistencyViolation::ThinAirRead {
                value: Value(7),
                ..
            }
        ));
    }

    #[test]
    fn aborted_read_fig2b() {
        let vs = violations_of(|b| {
            let s0 = b.session();
            let s1 = b.session();
            b.begin(s0);
            b.write(s0, 1, 1);
            b.abort(s0);
            b.begin(s1);
            b.read(s1, 1, 1);
            b.commit(s1);
        });
        assert_eq!(vs.len(), 1);
        assert!(matches!(
            vs[0],
            ReadConsistencyViolation::AbortedRead { .. }
        ));
    }

    #[test]
    fn future_read_fig2c() {
        let vs = violations_of(|b| {
            let s = b.session();
            b.begin(s);
            b.read(s, 1, 1);
            b.write(s, 1, 1);
            b.commit(s);
        });
        assert_eq!(vs.len(), 1);
        assert!(matches!(vs[0], ReadConsistencyViolation::FutureRead { .. }));
    }

    #[test]
    fn observe_own_writes_fig2d() {
        // t writes x=2; a read of x then observes an older external x=1.
        let vs = violations_of(|b| {
            let s0 = b.session();
            let s1 = b.session();
            b.begin(s0);
            b.write(s0, 1, 1);
            b.commit(s0);
            b.begin(s1);
            b.write(s1, 1, 2);
            b.read(s1, 1, 1);
            b.commit(s1);
        });
        assert_eq!(vs.len(), 1);
        assert!(matches!(
            vs[0],
            ReadConsistencyViolation::NotOwnWrite { .. }
        ));
    }

    #[test]
    fn observe_latest_own_write_fig2e() {
        let vs = violations_of(|b| {
            let s = b.session();
            b.begin(s);
            b.write(s, 1, 1);
            b.write(s, 1, 2);
            b.read(s, 1, 1); // stale: should observe value 2
            b.commit(s);
        });
        assert_eq!(vs.len(), 1);
        assert!(matches!(
            vs[0],
            ReadConsistencyViolation::StaleOwnWrite { .. }
        ));
    }

    #[test]
    fn observe_final_external_write() {
        // Writer commits x=1 then x=2; a reader observing x=1 saw a
        // non-final write.
        let vs = violations_of(|b| {
            let s0 = b.session();
            let s1 = b.session();
            b.begin(s0);
            b.write(s0, 1, 1);
            b.write(s0, 1, 2);
            b.commit(s0);
            b.begin(s1);
            b.read(s1, 1, 1);
            b.commit(s1);
        });
        assert_eq!(vs.len(), 1);
        assert!(matches!(
            vs[0],
            ReadConsistencyViolation::NotFinalWrite { .. }
        ));
    }

    #[test]
    fn reading_own_latest_write_is_fine() {
        let vs = violations_of(|b| {
            let s = b.session();
            b.begin(s);
            b.write(s, 1, 1);
            b.write(s, 1, 2);
            b.read(s, 1, 2);
            b.commit(s);
        });
        assert!(vs.is_empty());
    }

    #[test]
    fn reads_in_aborted_transactions_are_not_checked() {
        let vs = violations_of(|b| {
            let s = b.session();
            b.begin(s);
            b.read(s, 1, 99); // thin air, but the txn aborts
            b.abort(s);
        });
        assert!(vs.is_empty());
    }

    #[test]
    fn all_violations_are_reported() {
        // Two independent thin-air reads -> two reports.
        let vs = violations_of(|b| {
            let s = b.session();
            b.begin(s);
            b.read(s, 1, 98);
            b.read(s, 2, 99);
            b.commit(s);
        });
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn own_write_then_external_read_of_other_key_ok() {
        let vs = violations_of(|b| {
            let s0 = b.session();
            let s1 = b.session();
            b.begin(s0);
            b.write(s0, 2, 5);
            b.commit(s0);
            b.begin(s1);
            b.write(s1, 1, 1);
            b.read(s1, 2, 5); // different key: no own-write conflict
            b.commit(s1);
        });
        assert!(vs.is_empty());
    }
}
