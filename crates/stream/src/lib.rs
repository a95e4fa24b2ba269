//! # awdit-stream — online, incremental isolation checking
//!
//! The batch pipeline in `awdit-core` checks a *complete* history in
//! optimal time. This crate turns it into an **online monitor**: an
//! [`OnlineChecker`] accepts transaction [`Event`]s as they happen —
//! `begin`/`write`/`read`/`commit`/`abort` per session, mirroring
//! [`HistoryBuilder`](awdit_core::HistoryBuilder) — maintains the
//! saturated commit relation `co′` incrementally for the chosen isolation
//! level, and reports every [`StreamViolation`] the moment it becomes
//! detectable rather than at end-of-history.
//!
//! Three pieces make that work:
//!
//! * the **same saturation kernels** the batch checkers run
//!   ([`awdit_core::incremental`]), driven one commit at a time over a
//!   growing [`StreamIndex`];
//! * an **incrementally maintained DAG** ([`IncrementalDag`],
//!   Pearce–Kelly dynamic topological order) that flags the first edge
//!   closing a cycle, with full per-edge provenance;
//! * **watermark pruning**: once every session's frontier has advanced
//!   past a transaction, its settled state (non-latest writes per key,
//!   graph node, clock, value-map entries) is retired and its slot
//!   recycled, so memory tracks the watermark lag instead of the stream
//!   length ([`StreamStats`] exposes `live_txns` vs `retired_txns`).
//!
//! With pruning disabled the checker is *exact*: it reaches the same
//! verdict as the batch [`check`](awdit_core::check) on every history
//! (property-tested across RC/RA/CC in `tests/streaming.rs`). With
//! pruning enabled, reads older than the retained window are surfaced as
//! explicit beyond-horizon violations instead of being misclassified.
//!
//! ```
//! use awdit_core::IsolationLevel;
//! use awdit_stream::OnlineChecker;
//!
//! let mut c = OnlineChecker::new(IsolationLevel::ReadAtomic);
//! c.begin(0).unwrap();
//! c.write(0, 1, 10).unwrap();
//! c.write(0, 2, 10).unwrap();
//! c.commit(0).unwrap();
//! c.begin(1).unwrap();
//! c.read(1, 1, 10).unwrap();
//! c.commit(1).unwrap();
//! assert!(c.drain_violations().is_empty());
//! assert!(c.finish().unwrap().is_consistent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod dag;
pub mod event;
pub mod index;
pub mod shutdown;
pub mod stats;

pub use checker::{
    OnlineChecker, StreamConfig, StreamError, StreamOutcome, StreamViolation, MAX_SESSIONS,
};
pub use dag::{DagEdge, IncrementalDag};
pub use event::{events_of_history, for_each_event, Event};
pub use index::{StreamIndex, TxnMeta};
pub use shutdown::ShutdownToken;
pub use stats::StreamStats;
