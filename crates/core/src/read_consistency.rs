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
//! the streaming checker runs too. The batch pass that drives it is part
//! of the index build, [`HistoryIndex::rebuild`]: one walk over the
//! committed transactions' operations checks the reads and fills the index
//! rows, and the [`Engine`](crate::Engine) reads the violations off its
//! index ([`HistoryIndex::read_violations`]). This module's function is
//! that pass on its own.
//!
//! [`ReadCheck`]: crate::incremental::ReadCheck

use crate::history::History;
use crate::index::HistoryIndex;
use crate::witness::ReadConsistencyViolation;

/// Checks the five Read Consistency axioms, returning all violations in
/// session-major, program order: the index build's pass on the calling
/// thread, keeping only its violations.
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
    HistoryIndex::new(history).take_read_violations()
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
