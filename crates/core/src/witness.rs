//! Violation witnesses (Section 3.4).
//!
//! Rather than a bare yes/no verdict, every checker reports *witnesses*:
//! individual reads failing Read Consistency, non-repeatable reads, and —
//! for the commit-order axioms — cycles of the saturated relation `co′`,
//! one per strongly connected component, annotated with the provenance of
//! every edge.

use std::fmt;

use crate::graph::{Cycle, EdgeKind};
use crate::index::HistoryIndex;
use crate::isolation::IsolationLevel;
use crate::types::{Key, OpLoc, TxnId, Value};

/// A violation of one of the five Read Consistency axioms (Figure 2).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReadConsistencyViolation {
    /// Axiom (a): the read's value was never written.
    ThinAirRead {
        /// The offending read.
        read: OpLoc,
        /// Key read.
        key: Key,
        /// The unwritten value observed.
        value: Value,
    },
    /// Axiom (b): the read observes a write of an aborted transaction.
    AbortedRead {
        /// The offending read.
        read: OpLoc,
        /// The aborted write it observes.
        write: OpLoc,
        /// Key read.
        key: Key,
    },
    /// Axiom (c): the read observes a write that is `po`-after it in the
    /// same transaction.
    FutureRead {
        /// The offending read.
        read: OpLoc,
        /// The later write it observes.
        write: OpLoc,
        /// Key read.
        key: Key,
    },
    /// Axiom (d): the read observes another transaction although its own
    /// transaction wrote the key earlier.
    NotOwnWrite {
        /// The offending read.
        read: OpLoc,
        /// The overlooked own write.
        own_write: OpLoc,
        /// The external write actually observed.
        observed: OpLoc,
        /// Key read.
        key: Key,
    },
    /// Axiom (e), internal case: the read observes an own write that was
    /// later overwritten in the same transaction.
    StaleOwnWrite {
        /// The offending read.
        read: OpLoc,
        /// The stale own write observed.
        observed: OpLoc,
        /// The later own write that should have been observed.
        later_write: OpLoc,
        /// Key read.
        key: Key,
    },
    /// Axiom (e), external case: the read observes a non-final write of
    /// another transaction.
    NotFinalWrite {
        /// The offending read.
        read: OpLoc,
        /// The non-final write observed.
        observed: OpLoc,
        /// Key read.
        key: Key,
    },
}

impl ReadConsistencyViolation {
    /// The location of the offending read.
    pub fn read(&self) -> OpLoc {
        match *self {
            ReadConsistencyViolation::ThinAirRead { read, .. }
            | ReadConsistencyViolation::AbortedRead { read, .. }
            | ReadConsistencyViolation::FutureRead { read, .. }
            | ReadConsistencyViolation::NotOwnWrite { read, .. }
            | ReadConsistencyViolation::StaleOwnWrite { read, .. }
            | ReadConsistencyViolation::NotFinalWrite { read, .. } => read,
        }
    }

    /// The key involved.
    pub fn key(&self) -> Key {
        match *self {
            ReadConsistencyViolation::ThinAirRead { key, .. }
            | ReadConsistencyViolation::AbortedRead { key, .. }
            | ReadConsistencyViolation::FutureRead { key, .. }
            | ReadConsistencyViolation::NotOwnWrite { key, .. }
            | ReadConsistencyViolation::StaleOwnWrite { key, .. }
            | ReadConsistencyViolation::NotFinalWrite { key, .. } => key,
        }
    }
}

impl fmt::Display for ReadConsistencyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ReadConsistencyViolation::ThinAirRead { read, key, value } => {
                write!(
                    f,
                    "thin-air read at {read}: R({key}, {value}) has no writer"
                )
            }
            ReadConsistencyViolation::AbortedRead { read, write, key } => {
                write!(
                    f,
                    "aborted read at {read}: observes aborted write {write} on {key}"
                )
            }
            ReadConsistencyViolation::FutureRead { read, write, key } => {
                write!(
                    f,
                    "future read at {read}: observes later write {write} on {key}"
                )
            }
            ReadConsistencyViolation::NotOwnWrite {
                read,
                own_write,
                observed,
                key,
            } => write!(
                f,
                "read at {read} observes external write {observed} on {key} \
                 despite earlier own write {own_write}"
            ),
            ReadConsistencyViolation::StaleOwnWrite {
                read,
                observed,
                later_write,
                key,
            } => write!(
                f,
                "read at {read} observes stale own write {observed} on {key}; \
                 later write {later_write} exists"
            ),
            ReadConsistencyViolation::NotFinalWrite {
                read,
                observed,
                key,
            } => write!(
                f,
                "read at {read} observes non-final write {observed} of another transaction on {key}"
            ),
        }
    }
}

/// An edge of a witness cycle, expressed in user-facing [`TxnId`]s.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct WitnessEdge {
    /// Source transaction.
    pub from: TxnId,
    /// Target transaction.
    pub to: TxnId,
    /// How the edge arose.
    pub kind: EdgeKind,
}

impl fmt::Display for WitnessEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self.kind {
            EdgeKind::SessionOrder => "so".to_string(),
            EdgeKind::WriteRead(k) => format!("wr[{k}]"),
            EdgeKind::Inferred(k) => format!("co[{k}]"),
            EdgeKind::Condensed => "co*".to_string(),
        };
        write!(f, "{} --{label}--> {}", self.from, self.to)
    }
}

/// A cycle of the saturated commit relation, witnessing a violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WitnessCycle {
    /// The cycle's edges, in order (each edge's target is the next edge's
    /// source, wrapping around).
    pub edges: Vec<WitnessEdge>,
}

impl WitnessCycle {
    /// Translates a dense-id [`Cycle`] of `level`'s saturated commit
    /// graph over `index` into transaction ids, re-deriving each edge's
    /// full provenance: session order or write–read for base edges, and
    /// for inferred edges the key of the pair's first emission by the
    /// level's kernel, in the saturation's sequential order (see the
    /// `provenance` module source for the derivation). A cycle of
    /// `so ∪ wr` alone labels under any level.
    ///
    /// # Panics
    ///
    /// Panics if an edge marked inferred is not one that `level`'s
    /// saturation infers for this history.
    pub fn from_cycle(cycle: &Cycle, index: &HistoryIndex, level: IsolationLevel) -> Self {
        crate::provenance::witness_cycles(std::slice::from_ref(cycle), index, level)
            .pop()
            .expect("one witness per cycle")
    }

    /// Number of inferred (non-`so ∪ wr`) edges.
    pub fn inferred_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.kind.is_base()).count()
    }

    /// Number of edges in the cycle.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the cycle has no edges (never produced by the checkers).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

impl fmt::Display for WitnessCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Any violation reported by a checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// A read failing one of the Read Consistency axioms.
    ReadConsistency(ReadConsistencyViolation),
    /// A transaction reading the same key from two different transactions
    /// (precludes Read Atomic).
    NonRepeatableRead {
        /// The reading transaction.
        txn: TxnId,
        /// The key read twice.
        key: Key,
        /// Writer observed first.
        first_writer: TxnId,
        /// Different writer observed later.
        second_writer: TxnId,
    },
    /// A cycle in `so ∪ wr` itself (violates every level's requirement that
    /// the commit order respect `so ∪ wr`).
    CausalityCycle(WitnessCycle),
    /// A cycle in the saturated commit relation for the given level.
    CommitOrderCycle {
        /// The level whose axiom produced the inferred edges.
        level: IsolationLevel,
        /// The witnessing cycle.
        cycle: WitnessCycle,
    },
}

impl Violation {
    /// A coarse classification, used by tests and reports.
    pub fn kind(&self) -> ViolationKind {
        match self {
            Violation::ReadConsistency(v) => match v {
                ReadConsistencyViolation::ThinAirRead { .. } => ViolationKind::ThinAirRead,
                ReadConsistencyViolation::AbortedRead { .. } => ViolationKind::AbortedRead,
                ReadConsistencyViolation::FutureRead { .. } => ViolationKind::FutureRead,
                ReadConsistencyViolation::NotOwnWrite { .. }
                | ReadConsistencyViolation::StaleOwnWrite { .. }
                | ReadConsistencyViolation::NotFinalWrite { .. } => ViolationKind::NotLatestWrite,
            },
            Violation::NonRepeatableRead { .. } => ViolationKind::NonRepeatableRead,
            Violation::CausalityCycle(_) => ViolationKind::CausalityCycle,
            Violation::CommitOrderCycle { .. } => ViolationKind::CommitOrderCycle,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ReadConsistency(v) => write!(f, "{v}"),
            Violation::NonRepeatableRead {
                txn,
                key,
                first_writer,
                second_writer,
            } => write!(
                f,
                "non-repeatable read: {txn} reads {key} from both {first_writer} and {second_writer}"
            ),
            Violation::CausalityCycle(c) => write!(f, "causality cycle: {c}"),
            Violation::CommitOrderCycle { level, cycle } => {
                write!(f, "{level} violation, commit-order cycle: {cycle}")
            }
        }
    }
}

/// Coarse violation classification.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ViolationKind {
    /// Read of a value nobody wrote.
    ThinAirRead,
    /// Read of an aborted transaction's write.
    AbortedRead,
    /// Read of a `po`-later write of the same transaction.
    FutureRead,
    /// Read skipping an own or final write (axioms d/e).
    NotLatestWrite,
    /// Same key read from two transactions within one transaction.
    NonRepeatableRead,
    /// Cycle in `so ∪ wr`.
    CausalityCycle,
    /// Cycle in the level-saturated commit relation.
    CommitOrderCycle,
}

impl ViolationKind {
    /// The stable kebab-case wire name, shared by the JSON report schema
    /// and the serve API (e.g. `commit-order-cycle`).
    pub fn wire_name(&self) -> &'static str {
        match self {
            ViolationKind::ThinAirRead => "thin-air-read",
            ViolationKind::AbortedRead => "aborted-read",
            ViolationKind::FutureRead => "future-read",
            ViolationKind::NotLatestWrite => "not-latest-write",
            ViolationKind::NonRepeatableRead => "non-repeatable-read",
            ViolationKind::CausalityCycle => "causality-cycle",
            ViolationKind::CommitOrderCycle => "commit-order-cycle",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::ThinAirRead => "thin-air read",
            ViolationKind::AbortedRead => "aborted read",
            ViolationKind::FutureRead => "future read",
            ViolationKind::NotLatestWrite => "not-latest write",
            ViolationKind::NonRepeatableRead => "non-repeatable read",
            ViolationKind::CausalityCycle => "causality cycle",
            ViolationKind::CommitOrderCycle => "commit-order cycle",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(s: u32, t: u32, o: u32) -> OpLoc {
        OpLoc::new(TxnId::new(s, t), o)
    }

    #[test]
    fn read_consistency_accessors() {
        let v = ReadConsistencyViolation::ThinAirRead {
            read: loc(0, 1, 2),
            key: Key(3),
            value: Value(9),
        };
        assert_eq!(v.read(), loc(0, 1, 2));
        assert_eq!(v.key(), Key(3));
        assert!(v.to_string().contains("thin-air"));
    }

    #[test]
    fn violation_kinds() {
        let v = Violation::ReadConsistency(ReadConsistencyViolation::FutureRead {
            read: loc(0, 0, 0),
            write: loc(0, 0, 1),
            key: Key(0),
        });
        assert_eq!(v.kind(), ViolationKind::FutureRead);
        let v = Violation::NonRepeatableRead {
            txn: TxnId::new(0, 0),
            key: Key(0),
            first_writer: TxnId::new(1, 0),
            second_writer: TxnId::new(2, 0),
        };
        assert_eq!(v.kind(), ViolationKind::NonRepeatableRead);
    }

    #[test]
    fn witness_cycle_display_and_counts() {
        let cycle = WitnessCycle {
            edges: vec![
                WitnessEdge {
                    from: TxnId::new(0, 0),
                    to: TxnId::new(1, 0),
                    kind: EdgeKind::WriteRead(Key(0)),
                },
                WitnessEdge {
                    from: TxnId::new(1, 0),
                    to: TxnId::new(0, 0),
                    kind: EdgeKind::Inferred(Key(1)),
                },
            ],
        };
        assert_eq!(cycle.len(), 2);
        assert_eq!(cycle.inferred_count(), 1);
        let s = cycle.to_string();
        assert!(s.contains("wr[k0]"), "{s}");
        assert!(s.contains("co[k1]"), "{s}");
    }
}
