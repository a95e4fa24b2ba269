//! # awdit — reproduction of "AWDIT: An Optimal Weak Database Isolation
//! Tester" (PLDI 2025)
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`core`] — the paper's contribution: optimal checkers for
//!   Read Committed, Read Atomic, and Causal Consistency
//!   (`O(n^{3/2})`, `O(n^{3/2})`, `O(n·k)`), with witness reporting, and
//!   the reusable [`Engine`] handle for embedded/batched checking.
//! * [`formats`] — history file formats (native, Plume-,
//!   DBCop-, Cobra-style, and the binary columnar `.awb`), history
//!   sources, and machine-readable reports.
//! * [`simdb`] — a deterministic transactional KV-store
//!   simulator with pluggable isolation semantics and anomaly injection
//!   (the reproduction's stand-in for PostgreSQL/CockroachDB/RocksDB).
//! * [`workloads`] — TPC-C-, C-Twitter-, and RUBiS-style
//!   workload generators.
//! * [`reductions`] — the triangle-freeness reductions
//!   behind the paper's lower bounds.
//! * [`baselines`] — Plume-, DBCop-, and SAT-style
//!   competitor checkers plus reference oracles.
//! * [`sat`] — a CDCL SAT solver (substrate for the SAT-based
//!   baselines).
//! * [`stream`] — the online checker: incremental
//!   saturation over transaction event streams with watermark-based
//!   pruning and bounded memory.
//! * [`serve`] — a multi-tenant network daemon over the online checker:
//!   a std-only HTTP/1.1 layer, per-tenant sessions with staging-budget
//!   backpressure and warm checker pooling, batch uploads, and
//!   Prometheus metrics (`awdit serve`).
//! * [`obs`] — zero-dependency observability: tracing spans
//!   with Chrome `trace_event` export, a sharded metrics registry with
//!   Prometheus text export, and phase-level profiling hooks wired
//!   through the engine, the parallel pool, and the stream checker.
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use awdit::{check, HistoryBuilder, IsolationLevel};
//!
//! # fn main() -> Result<(), awdit::BuildError> {
//! let mut b = HistoryBuilder::new();
//! let s0 = b.session();
//! let s1 = b.session();
//! b.begin(s0);
//! b.write(s0, 1, 10);
//! b.commit(s0);
//! b.begin(s1);
//! b.read(s1, 1, 10);
//! b.commit(s1);
//! let history = b.finish()?;
//! assert!(check(&history, IsolationLevel::Causal).is_consistent());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use awdit_baselines as baselines;
pub use awdit_core as core;
pub use awdit_formats as formats;
pub use awdit_obs as obs;
pub use awdit_reductions as reductions;
pub use awdit_sat as sat;
pub use awdit_serve as serve;
pub use awdit_simdb as simdb;
pub use awdit_stream as stream;
pub use awdit_workloads as workloads;

pub use awdit_core::{
    check, check_all_levels, collect_source, replay_history, validate_commit_order, BuildError,
    Engine, EngineConfig, EngineStats, History, HistoryBuilder, HistorySink, HistorySource,
    HistoryStats, IsolationLevel, Outcome, SourceError, SourcedHistory, Verdict, Violation,
    ViolationKind,
};
pub use awdit_formats::{
    parse_auto, parse_awb, parse_history, read_auto, read_awb_path_into, read_history, write_awb,
    write_awb_to, write_history, write_history_to, Detected, DirSource, FilesSource, Format,
    HistoryReport, JsonSink, LevelReport, Report, ReportSink, TextSink,
};
pub use awdit_simdb::{collect_history, AnomalyRates, DbIsolation, SimConfig, SimSource};
pub use awdit_stream::{Event, OnlineChecker, StreamConfig, StreamOutcome, StreamStats};
pub use awdit_workloads::Benchmark;
