//! # awdit-core — optimal weak database isolation testing
//!
//! A from-scratch reproduction of the algorithms behind **AWDIT** (Møldrup &
//! Pavlogiannis, *AWDIT: An Optimal Weak Database Isolation Tester*, PLDI
//! 2025): black-box checking of database transaction histories against the
//! weak isolation levels **Read Committed** (RC), **Read Atomic** (RA), and
//! **Causal Consistency** (CC), with provably optimal asymptotics —
//! `O(n^{3/2})` for RC and RA, `O(n·k)` for CC on histories of size `n` with
//! `k` sessions.
//!
//! ## How it works
//!
//! Each check builds a *saturated, minimal* partial commit relation `co′ ⊇
//! so ∪ wr` whose acyclicity exactly characterizes consistency (Lemma 3.2):
//! a cycle is a violation witness, and any topological order of an acyclic
//! `co′` is a witnessing commit order. Minimality — adding only orderings
//! that are not already implied transitively — is what makes the saturation
//! cheap.
//!
//! ## Quick start
//!
//! ```
//! use awdit_core::{check, HistoryBuilder, IsolationLevel};
//!
//! # fn main() -> Result<(), awdit_core::BuildError> {
//! let mut b = HistoryBuilder::new();
//! let s0 = b.session();
//! let s1 = b.session();
//! b.begin(s0);
//! b.write(s0, 100, 1); // W(k=100, v=1)
//! b.commit(s0);
//! b.begin(s1);
//! b.read(s1, 100, 1); // R(k=100) observes v=1
//! b.commit(s1);
//! let history = b.finish()?;
//!
//! let outcome = check(&history, IsolationLevel::Causal);
//! assert!(outcome.is_consistent());
//! # Ok(())
//! # }
//! ```
//!
//! On inconsistent histories, [`Outcome::violations`] reports fine-grained
//! witnesses: individual reads failing the Read Consistency axioms,
//! non-repeatable reads, and commit-order cycles with per-edge provenance
//! (one per strongly connected component of `co′`).
//!
//! ## Module map
//!
//! | Paper artifact | Module |
//! |---|---|
//! | histories, `so`, `wr` (Def. 2.2) | [`history`], [`types`], [`op`] |
//! | Read Consistency, Alg. 4 | [`read_consistency`] |
//! | RC checker, Alg. 1 | [`rc`] |
//! | RA checker, Alg. 2 + Thm. 1.6 | [`ra`] |
//! | CC checker, Alg. 3 | [`cc`] |
//! | `co′`, cycles, witnesses (Sec. 3.4) | [`graph`], [`witness`] |
//! | commit orders & the axiom oracle | [`linearize`] |
//! | incremental saturation kernels | [`incremental`] |
//! | reusable checker handle, batching | [`engine`] |
//!
//! ## Incremental APIs
//!
//! The per-level inference bodies are exposed as reusable kernels in
//! [`incremental`] ([`RcKernel`], [`RaKernel`], [`infer_cc_edges`] over
//! [`ClockTable`] rows) behind the [`CommitView`]/[`EdgeSink`] traits, next
//! to the per-transaction read steps (`ReadCheck`, `RepeatableReads`). The
//! batch saturators and read checks are loops over these; the
//! `awdit-stream` crate drives the same code one commit at a time to check
//! histories online with bounded memory.

#![deny(unsafe_code)] // sole exception: the lifetime-erased task island in `parallel`
#![warn(missing_docs)]

pub mod cc;
pub mod checker;
pub mod csr;
pub mod engine;
pub mod graph;
pub mod history;
pub mod incremental;
pub mod index;
pub mod isolation;
pub mod linearize;
pub mod op;
pub mod parallel;
mod provenance;
pub mod ra;
pub mod rc;
pub mod read_consistency;
pub mod shrink;
pub mod stats;
pub mod types;
pub mod witness;

pub use cc::{
    causality_cycles, compute_hb_into, saturate_cc, saturate_cc_into, CcStrategy, ClockTable,
};
pub use checker::{check, check_all_levels, CheckStats, Outcome, Verdict};
pub use csr::{Csr, CsrBuilder, ReadCols};
pub use engine::{
    collect_source, Engine, EngineConfig, EngineStats, HistorySource, SourceError, SourcedHistory,
};
pub use graph::{base_commit_graph, CommitGraph, Cycle, Edge, EdgeKind};
pub use history::{
    replay_history, BuildError, ColumnsError, History, HistoryBuilder, HistoryColumns, HistorySink,
    SessionIter, SessionView, TxnView,
};
pub use incremental::{infer_cc_edges, CommitView, EdgeSink, RaKernel, RcKernel, WriterSearch};
pub use index::{DenseId, ExtRead, HistoryIndex, NONE};
pub use isolation::{IsolationLevel, ParseIsolationLevelError};
pub use linearize::{commit_order_from_graph, validate_commit_order, CommitOrderError};
pub use op::{Op, ReadSource};
pub use parallel::{Pool, PoolStats};
pub use ra::{check_ra_single_session, check_repeatable_reads, saturate_ra, saturate_ra_into};
pub use rc::{saturate_rc, saturate_rc_into};
pub use read_consistency::check_read_consistency;
pub use shrink::shrink_history;
pub use stats::HistoryStats;
pub use types::{Key, OpLoc, SessionId, TxnId, Value};
pub use witness::{ReadConsistencyViolation, Violation, ViolationKind, WitnessCycle, WitnessEdge};
