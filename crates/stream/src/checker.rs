//! The online checker: event intake, dependency staging, incremental
//! saturation, online cycle detection, and watermark pruning.
//!
//! # Pipeline
//!
//! Events arrive per session in session order (sessions interleave freely).
//! A committed transaction is **staged** until its dependencies are
//! available: its session's previous committed transaction must be
//! processed, and every external read must resolve to a *closed* writer
//! (committed writers additionally to a *processed* one). Once ready it is
//! **processed**: its reads are checked (Read Consistency, and repeatable
//! reads under RA, by the per-transaction steps batch runs), the
//! transaction joins the [`StreamIndex`], base `so`/`wr` edges and the
//! level's inferred edges (produced by the same kernels the batch checkers
//! run) are inserted into an incrementally-maintained DAG, and any edge
//! closing a cycle is reported immediately as a violation with full
//! provenance.
//!
//! Reads of values nobody has written yet stay pending — they become
//! thin-air violations at [`finish`](OnlineChecker::finish); transactions
//! deadlocked on each other (a `so ∪ wr` cycle) are detected at `finish`
//! too, mirroring the batch classification.
//!
//! A warm checker processes a transaction without heap allocation:
//!
//! - the last session looked up is remembered, so the events of one
//!   transaction look its session up once;
//! - the per-key tables (the index's write lists, the pruned-write counts)
//!   are vectors indexed by the interned [`Key`];
//! - a retired index slot keeps its [`TxnMeta`](crate::TxnMeta) buffers
//!   for the next transaction placed there, whose arrival hands the slot's
//!   old operation buffer to the next transaction to open;
//! - edges, `wr` deduplication and pruning sweeps use scratch the checker
//!   owns, and the DAG pools retired nodes' adjacency lists for the lists
//!   that grow next.
//!
//! Maps keyed by values from the stream itself (session names, key names,
//! `(key, value)` pairs) keep std's randomly seeded hashing, so a hostile
//! stream cannot flood them. A stream may name at most [`MAX_SESSIONS`]
//! sessions.
//!
//! # Watermark pruning
//!
//! The per-session frontier clocks induce a *watermark*: the pointwise
//! minimum clock that every future transaction is guaranteed to dominate.
//! A processed transaction retires once (1) it is below the watermark,
//! (2) it is not the latest retained writer of any of its keys (a
//! *boundary* writer is kept per `(session, key)` so CC lookups below the
//! watermark still find their visible writer), and (3) no staged reader
//! holds a reference to it. Retiring removes its clock, graph node,
//! value-map entries, and index slot — the slot is recycled, so live
//! memory tracks the watermark lag, not the stream length.
//!
//! Commit-order constraints threaded *through* a retired transaction are
//! condensed onto the session chains (see
//! [`EdgeKind::Condensed`](awdit_core::graph::EdgeKind) and the
//! [`dag`](crate::dag) module): every live transaction keeps a *link* edge
//! to the next live transaction of its session, and retiring a transaction
//! joins the latest in-neighbour of each session to the earliest link
//! successor of each session, so each retirement adds at most one edge per
//! (source session, target session) pair. Constraints into a retired
//! transaction's one-off readers are considered settled at the horizon.
//! A later read of a pruned write misses the retained window and is
//! reported as a [`StreamViolation::BeyondHorizon`] (counted in
//! [`StreamStats::horizon_misses`]) rather than misclassified. With
//! pruning disabled the checker is exact and agrees with the batch
//! pipeline on every history.
//!
//! A pruned stream must carry each write before the reads of its value. A
//! read of a value nobody has written yet is a beyond-horizon read as soon
//! as its key has any pruned write, even if the write arrives later:
//! waiting for it instead would stall the reader's session until
//! [`finish`](OnlineChecker::finish) whenever the write really was pruned.
//! [`for_each_event`](crate::for_each_event) emits histories in such an
//! order.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

use awdit_core::graph::{CommitGraph, EdgeKind};
use awdit_core::incremental::{
    infer_cc_edges, RaKernel, RcKernel, ReadCheck, ReadFinding, ReadFrom, RepeatableReads, TxnOp,
    WriterSearch,
};
use awdit_core::witness::{Violation, ViolationKind, WitnessCycle, WitnessEdge};
use awdit_core::{ClockTable, IsolationLevel, Key, OpLoc, TxnId, Value};
use awdit_obs::metrics::{Counter, Gauge};
use awdit_obs::Obs;
use std::sync::Arc;

use crate::dag::{DagEdge, IncrementalDag};
use crate::event::Event;
use crate::index::StreamIndex;
use crate::shutdown::ShutdownToken;
use crate::stats::StreamStats;

/// Errors that poison a stream (mirroring
/// [`BuildError`](awdit_core::BuildError)): once one occurs, every further
/// [`apply`](OnlineChecker::apply) and the final
/// [`finish`](OnlineChecker::finish) report it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StreamError {
    /// Two writes carry the same `(key, value)` pair, breaking the
    /// unique-value assumption.
    ///
    /// Under watermark pruning this is enforced within the retained window
    /// only: a collision with a write retired past the horizon cannot be
    /// distinguished from a fresh unique value with bounded memory, so it
    /// is not detected (exact mode detects every collision).
    DuplicateWrite {
        /// The key written twice with the same value.
        key: u64,
        /// The duplicated value.
        value: u64,
        /// The first write.
        first: OpLoc,
        /// The offending second write.
        second: OpLoc,
    },
    /// An operation or close event arrived with no open transaction.
    NoOpenTransaction {
        /// The offending session name.
        session: u64,
    },
    /// `begin` arrived while the session already had an open transaction.
    NestedTransaction {
        /// The offending session name.
        session: u64,
    },
    /// An event named a new session while the stream already had
    /// [`MAX_SESSIONS`] of them.
    TooManySessions {
        /// The cap, [`MAX_SESSIONS`].
        limit: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::DuplicateWrite {
                key,
                value,
                first,
                second,
            } => write!(
                f,
                "duplicate write of value {value} to key {key} at {second} (first at {first})"
            ),
            StreamError::NoOpenTransaction { session } => {
                write!(f, "event on session {session} with no open transaction")
            }
            StreamError::NestedTransaction { session } => {
                write!(f, "begin on session {session} while a transaction is open")
            }
            StreamError::TooManySessions { limit } => {
                write!(f, "more than {limit} sessions in one stream")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Distinct session names one [`OnlineChecker`] accepts; the next new name
/// is a [`StreamError::TooManySessions`].
///
/// Every session widens the happens-before frontier, a `k × k` table of
/// `u32`s, so an untrusted stream of one-transaction sessions would
/// otherwise grow it without bound (8,000 sessions already take about
/// 0.5 GB). At the cap the frontier is 4 MiB.
pub const MAX_SESSIONS: usize = 1024;

/// A violation reported by the online checker: either one of the batch
/// pipeline's violations, or the stream-specific beyond-horizon read.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StreamViolation {
    /// A violation with a batch-pipeline analog.
    Core(Violation),
    /// A read of a value whose key had writes pruned past the watermark:
    /// the checker cannot distinguish a stale read of a pruned write from a
    /// thin-air read, so it reports the miss explicitly.
    BeyondHorizon {
        /// The reading transaction.
        txn: TxnId,
        /// Position of the read in program order.
        op: u32,
        /// Key name read.
        key: u64,
        /// Value observed.
        value: u64,
    },
}

impl StreamViolation {
    /// The batch classification, if one exists (`None` for beyond-horizon).
    pub fn kind(&self) -> Option<ViolationKind> {
        match self {
            StreamViolation::Core(v) => Some(v.kind()),
            StreamViolation::BeyondHorizon { .. } => None,
        }
    }
}

impl std::fmt::Display for StreamViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamViolation::Core(v) => write!(f, "{v}"),
            StreamViolation::BeyondHorizon {
                txn,
                op,
                key,
                value,
            } => write!(
                f,
                "beyond-horizon read at {txn}[{op}]: R({key}, {value}) precedes the retained window"
            ),
        }
    }
}

/// Configuration of an [`OnlineChecker`].
#[derive(Copy, Clone, Debug)]
pub struct StreamConfig {
    /// The isolation level to check.
    pub level: IsolationLevel,
    /// Whether watermark pruning runs (off = exact batch agreement, memory
    /// grows with the stream).
    pub prune: bool,
    /// Processed transactions between pruning sweeps.
    pub prune_interval: u64,
    /// Maximum number of cycle violations reported (the verdict is
    /// unaffected; this caps witness extraction work, like
    /// [`EngineConfig::max_cycles`](awdit_core::EngineConfig::max_cycles)).
    pub max_cycle_reports: usize,
    /// Ignored: the online checker runs on the calling thread. The field
    /// stays so that existing struct literals keep compiling.
    pub threads: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            level: IsolationLevel::Causal,
            prune: true,
            prune_interval: 256,
            max_cycle_reports: 64,
            threads: 1,
        }
    }
}

/// Cached metric handles so per-event recording never takes the registry
/// lock. Counter totals reconcile exactly with the matching
/// [`StreamStats`] fields when the handle is attached before the first
/// event.
#[derive(Debug)]
struct StreamMetrics {
    events: Arc<Counter>,
    processed: Arc<Counter>,
    retired: Arc<Counter>,
    condensed: Arc<Counter>,
    violations: Arc<Counter>,
    horizon_misses: Arc<Counter>,
    gcs: Arc<Counter>,
    staged: Arc<Gauge>,
    live: Arc<Gauge>,
    live_edges: Arc<Gauge>,
}

impl StreamMetrics {
    fn from_obs(obs: &Obs) -> Option<Self> {
        let m = obs.metrics()?;
        Some(StreamMetrics {
            events: m.counter("awdit_stream_events_total"),
            processed: m.counter("awdit_stream_processed_total"),
            retired: m.counter("awdit_stream_retired_total"),
            condensed: m.counter("awdit_stream_condensed_edges_total"),
            violations: m.counter("awdit_stream_violations_total"),
            horizon_misses: m.counter("awdit_stream_horizon_misses_total"),
            gcs: m.counter("awdit_stream_gcs_total"),
            staged: m.gauge("awdit_stream_staged_txns"),
            live: m.gauge("awdit_stream_live_txns"),
            live_edges: m.gauge("awdit_stream_live_edges"),
        })
    }
}

/// The final result of a stream check.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    level: IsolationLevel,
    violations: Vec<StreamViolation>,
    stats: StreamStats,
}

impl StreamOutcome {
    /// Shorthand for "no violation was found" over the whole stream,
    /// including violations already handed out via
    /// [`OnlineChecker::drain_violations`].
    pub fn is_consistent(&self) -> bool {
        self.stats.violations == 0
    }

    /// The level that was checked.
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// The violations not already drained during the stream, in emission
    /// order ([`StreamStats::violations`] counts all of them).
    pub fn violations(&self) -> &[StreamViolation] {
        &self.violations
    }

    /// Final stream statistics.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }
}

#[derive(Debug)]
struct OpenTxn {
    id: TxnId,
    /// Reads are resolved at commit (until then, [`ReadFrom::ThinAir`]).
    ops: Vec<TxnOp>,
}

#[derive(Debug)]
struct StagedTxn {
    session: u32,
    committed_pos: u32,
    /// A read's source is [`ReadFrom::ThinAir`] while its value has no
    /// writer yet, [`ReadFrom::External`] until the writer aborts, and
    /// [`ReadFrom::Unjudged`] when its key had writes pruned (a
    /// beyond-horizon read).
    ops: Vec<TxnOp>,
    deps: usize,
}

#[derive(Debug)]
struct SessionState {
    open: Option<OpenTxn>,
    next_txn_index: u32,
    committed_count: u32,
    /// Most recent committed transaction (staged or processed) — the `so`
    /// dependency of the next commit.
    last_committed: Option<TxnId>,
    /// Slot of the most recently processed committed transaction (`None`
    /// after it retires; the `so` edge to a retired predecessor is implied
    /// and safely droppable — nothing can order back into the pruned
    /// prefix).
    last_processed_slot: Option<u32>,
    /// Writes of aborted transactions, for value-map cleanup at pruning:
    /// `(transaction index in session, key, value)`.
    aborted_writes: Vec<(u32, Key, Value)>,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TxnState {
    Staged,
    Processed { slot: u32 },
    Aborted,
}

#[derive(Copy, Clone, Debug)]
enum Waiter {
    /// A staged reader waiting for this writer to close/process (one entry
    /// per read operation).
    Read(TxnId),
    /// The session successor waiting for this transaction to process.
    So(TxnId),
}

/// Checks a stream of transaction events against one isolation level,
/// incrementally and with bounded memory (see the module docs).
///
/// # Examples
///
/// ```
/// use awdit_core::IsolationLevel;
/// use awdit_stream::{Event, OnlineChecker};
///
/// let mut c = OnlineChecker::new(IsolationLevel::Causal);
/// for ev in [
///     Event::Begin { session: 0 },
///     Event::Write { session: 0, key: 1, value: 10 },
///     Event::Commit { session: 0 },
///     Event::Begin { session: 1 },
///     Event::Read { session: 1, key: 1, value: 10 },
///     Event::Commit { session: 1 },
/// ] {
///     c.apply(&ev).unwrap();
/// }
/// let outcome = c.finish().unwrap();
/// assert!(outcome.is_consistent());
/// ```
#[derive(Debug)]
pub struct OnlineChecker {
    cfg: StreamConfig,
    error: Option<StreamError>,

    session_ids: HashMap<u64, u32>,
    /// The last session name looked up and its id: one transaction's
    /// events arrive back to back, so most events skip `session_ids`.
    last_session: Option<(u64, u32)>,
    sessions: Vec<SessionState>,
    key_ids: HashMap<u64, Key>,
    key_names: Vec<u64>,

    /// The unique-value write map: `(key, value) → (writer, op)`.
    writes: HashMap<(Key, Value), (TxnId, u32)>,
    /// Per key (indexed by the interned [`Key`]): number of writes whose
    /// map entries were pruned.
    pruned_writes: Vec<u64>,
    txn_states: HashMap<TxnId, TxnState>,

    staged: HashMap<TxnId, StagedTxn>,
    waiting_value: HashMap<(Key, Value), Vec<(TxnId, u32)>>,
    waiting_txn: HashMap<TxnId, Vec<Waiter>>,
    ready: VecDeque<TxnId>,

    index: StreamIndex,
    clocks: ClockTable,
    rc: RcKernel,
    ra: RaKernel,
    /// The CC kernel's search state: one cursor, which the stream index's
    /// search ignores.
    cc_search: WriterSearch,
    /// The shared per-transaction read steps (repeatable reads run under
    /// RA only, as in batch).
    read_steps: (ReadCheck, RepeatableReads),
    dag: IncrementalDag,
    /// Operation buffers handed back by recycled index slots and aborted
    /// transactions, for the next transactions to open.
    spare_ops: Vec<Vec<TxnOp>>,
    /// The edges of the transaction being processed.
    edges: Vec<(u32, u32, EdgeKind)>,
    /// Per slot: the round in which the transaction being processed got
    /// its `wr` edge from that writer (one edge per writer).
    wr_stamp: Vec<u64>,
    wr_round: u64,
    /// Pruning sweep scratch: the candidates in DAG order, then the ones
    /// that retire.
    prune_scratch: (Vec<(u64, u32)>, Vec<u32>),
    reported_cycles: HashSet<(TxnId, TxnId)>,
    cycle_reports: usize,

    violations: Vec<StreamViolation>,
    processed_since_gc: u64,
    stats: StreamStats,
    obs: Obs,
    metrics: Option<StreamMetrics>,
    shutdown: ShutdownToken,
}

impl OnlineChecker {
    /// A checker for `level` with default configuration (pruning on).
    pub fn new(level: IsolationLevel) -> Self {
        Self::with_config(StreamConfig {
            level,
            ..StreamConfig::default()
        })
    }

    /// A checker with explicit configuration.
    pub fn with_config(cfg: StreamConfig) -> Self {
        OnlineChecker {
            cfg,
            error: None,
            session_ids: HashMap::new(),
            last_session: None,
            sessions: Vec::new(),
            key_ids: HashMap::new(),
            key_names: Vec::new(),
            writes: HashMap::new(),
            pruned_writes: Vec::new(),
            txn_states: HashMap::new(),
            staged: HashMap::new(),
            waiting_value: HashMap::new(),
            waiting_txn: HashMap::new(),
            ready: VecDeque::new(),
            index: StreamIndex::new(),
            clocks: ClockTable::new(),
            rc: RcKernel::new(),
            ra: RaKernel::new(),
            cc_search: WriterSearch::new(0),
            read_steps: Default::default(),
            dag: IncrementalDag::new(),
            spare_ops: Vec::new(),
            edges: Vec::new(),
            wr_stamp: Vec::new(),
            wr_round: 0,
            prune_scratch: Default::default(),
            reported_cycles: HashSet::new(),
            cycle_reports: 0,
            violations: Vec::new(),
            processed_since_gc: 0,
            stats: StreamStats::default(),
            obs: Obs::disabled(),
            metrics: None,
            shutdown: ShutdownToken::new(),
        }
    }

    /// Attaches an observability handle: stream metrics
    /// (`awdit_stream_*` counters and gauges) and GC spans flow into it.
    /// Counter totals reconcile exactly with [`stats`](Self::stats) when
    /// attached before the first event.
    pub fn set_obs(&mut self, obs: Obs) {
        self.metrics = StreamMetrics::from_obs(&obs);
        self.obs = obs;
    }

    /// The checker's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The level being checked.
    pub fn level(&self) -> IsolationLevel {
        self.cfg.level
    }

    /// Current statistics.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The current watermark: the pointwise minimum of the session
    /// frontier clocks, one entry per session (see
    /// [`ClockTable::watermark`]).
    pub fn watermark(&self) -> Vec<u32> {
        self.clocks.watermark()
    }

    /// Takes the violations emitted since the last drain (for live
    /// reporting). Draining keeps a long-running monitor's memory bounded:
    /// drained violations are handed to the caller and no longer retained,
    /// so the final [`StreamOutcome`] lists only the undrained ones (its
    /// verdict still accounts for all of them via
    /// [`StreamStats::violations`]).
    pub fn drain_violations(&mut self) -> Vec<StreamViolation> {
        std::mem::take(&mut self.violations)
    }

    /// The checker's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Attaches a shared [`ShutdownToken`]: feed loops poll
    /// [`shutdown_requested`](Self::shutdown_requested) at their batch
    /// boundaries and finalize through [`drain`](Self::drain) when it
    /// trips. The checker itself never stops early — violations detected
    /// between the trigger and the drain are still reported.
    pub fn set_shutdown(&mut self, token: ShutdownToken) {
        self.shutdown = token;
    }

    /// The attached shutdown token (untriggered and unshared by default).
    pub fn shutdown_token(&self) -> &ShutdownToken {
        &self.shutdown
    }

    /// Whether the attached [`ShutdownToken`] has been triggered.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.is_triggered()
    }

    /// Applies one event. Errors are sticky: the stream is poisoned after
    /// the first protocol or unique-value failure.
    pub fn apply(&mut self, event: &Event) -> Result<(), StreamError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let result = self.apply_inner(event);
        if let Err(e) = &result {
            self.error = Some(e.clone());
        }
        result
    }

    fn apply_inner(&mut self, event: &Event) -> Result<(), StreamError> {
        self.stats.events += 1;
        if let Some(m) = &self.metrics {
            m.events.inc();
        }
        match *event {
            Event::Begin { session } => {
                let s = self.ensure_session(session)?;
                let st = &mut self.sessions[s as usize];
                if st.open.is_some() {
                    return Err(StreamError::NestedTransaction { session });
                }
                let id = TxnId::new(s, st.next_txn_index);
                st.next_txn_index += 1;
                st.open = Some(OpenTxn {
                    id,
                    ops: self.spare_ops.pop().unwrap_or_default(),
                });
                self.stats.begins += 1;
                Ok(())
            }
            Event::Write {
                session,
                key,
                value,
            } => {
                let s = self.ensure_session(session)?;
                let k = self.ensure_key(key);
                let v = Value(value);
                let st = &mut self.sessions[s as usize];
                let Some(open) = st.open.as_mut() else {
                    return Err(StreamError::NoOpenTransaction { session });
                };
                let loc = OpLoc::new(open.id, open.ops.len() as u32);
                match self.writes.entry((k, v)) {
                    Entry::Occupied(first) => {
                        let &(first_txn, first_op) = first.get();
                        return Err(StreamError::DuplicateWrite {
                            key,
                            value,
                            first: OpLoc::new(first_txn, first_op),
                            second: loc,
                        });
                    }
                    Entry::Vacant(slot) => {
                        slot.insert((loc.txn, loc.op));
                    }
                }
                open.ops.push(TxnOp::Write(k, v));
                // Resolve readers that were waiting for this value.
                if self.waiting_value.is_empty() {
                    return Ok(());
                }
                if let Some(waiters) = self.waiting_value.remove(&(k, v)) {
                    for (reader, op) in waiters {
                        if let Some(TxnOp::Read(_, _, from)) = self
                            .staged
                            .get_mut(&reader)
                            .and_then(|st| st.ops.get_mut(op as usize))
                        {
                            *from = ReadFrom::External(loc);
                        }
                        self.waiting_txn
                            .entry(loc.txn)
                            .or_default()
                            .push(Waiter::Read(reader));
                    }
                }
                Ok(())
            }
            Event::Read {
                session,
                key,
                value,
            } => {
                let s = self.ensure_session(session)?;
                let k = self.ensure_key(key);
                let st = &mut self.sessions[s as usize];
                let Some(open) = st.open.as_mut() else {
                    return Err(StreamError::NoOpenTransaction { session });
                };
                open.ops
                    .push(TxnOp::Read(k, Value(value), ReadFrom::ThinAir));
                Ok(())
            }
            Event::Commit { session } => {
                let s = self.ensure_session(session)?;
                if self.sessions[s as usize].open.is_none() {
                    return Err(StreamError::NoOpenTransaction { session });
                }
                self.commit_open(s);
                self.drain_ready();
                Ok(())
            }
            Event::Abort { session } => {
                let s = self.ensure_session(session)?;
                if self.sessions[s as usize].open.is_none() {
                    return Err(StreamError::NoOpenTransaction { session });
                }
                self.abort_open(s);
                self.drain_ready();
                Ok(())
            }
        }
    }

    /// Convenience wrappers mirroring [`HistoryBuilder`](awdit_core::HistoryBuilder).
    pub fn begin(&mut self, session: u64) -> Result<(), StreamError> {
        self.apply(&Event::Begin { session })
    }
    /// Applies a write event.
    pub fn write(&mut self, session: u64, key: u64, value: u64) -> Result<(), StreamError> {
        self.apply(&Event::Write {
            session,
            key,
            value,
        })
    }
    /// Applies a read event.
    pub fn read(&mut self, session: u64, key: u64, value: u64) -> Result<(), StreamError> {
        self.apply(&Event::Read {
            session,
            key,
            value,
        })
    }
    /// Applies a commit event.
    pub fn commit(&mut self, session: u64) -> Result<(), StreamError> {
        self.apply(&Event::Commit { session })
    }
    /// Applies an abort event.
    pub fn abort(&mut self, session: u64) -> Result<(), StreamError> {
        self.apply(&Event::Abort { session })
    }

    /// The id of session `name`, interning it if it is new (refused past
    /// [`MAX_SESSIONS`]).
    fn ensure_session(&mut self, name: u64) -> Result<u32, StreamError> {
        if let Some((last, s)) = self.last_session {
            if last == name {
                return Ok(s);
            }
        }
        if let Some(&s) = self.session_ids.get(&name) {
            self.last_session = Some((name, s));
            return Ok(s);
        }
        if self.sessions.len() >= MAX_SESSIONS {
            return Err(StreamError::TooManySessions {
                limit: MAX_SESSIONS,
            });
        }
        let s = self.sessions.len() as u32;
        self.session_ids.insert(name, s);
        self.last_session = Some((name, s));
        self.sessions.push(SessionState {
            open: None,
            next_txn_index: 0,
            committed_count: 0,
            last_committed: None,
            last_processed_slot: None,
            aborted_writes: Vec::new(),
        });
        self.index.ensure_sessions(self.sessions.len());
        self.clocks.ensure_sessions(self.sessions.len());
        Ok(s)
    }

    fn ensure_key(&mut self, name: u64) -> Key {
        if let Some(&k) = self.key_ids.get(&name) {
            return k;
        }
        let k = Key(self.key_names.len() as u32);
        self.key_ids.insert(name, k);
        self.key_names.push(name);
        self.pruned_writes.push(0);
        k
    }

    /// The user-facing name of an interned key.
    fn key_name(&self, k: Key) -> u64 {
        self.key_names[k.index()]
    }

    fn commit_open(&mut self, s: u32) {
        let open = self.sessions[s as usize].open.take().expect("open txn");
        let id = open.id;
        let committed_pos = self.sessions[s as usize].committed_count;
        self.sessions[s as usize].committed_count += 1;
        self.stats.commits += 1;

        let mut ops = open.ops;
        let mut deps = 0usize;
        for (p, op) in ops.iter_mut().enumerate() {
            let TxnOp::Read(key, value, from) = op else {
                continue;
            };
            let (key, value) = (*key, *value);
            *from = match self.writes.get(&(key, value)) {
                Some(&(wtxn, wop)) if wtxn == id => ReadFrom::Own(wop),
                Some(&(wtxn, wop)) => match self.txn_states.get(&wtxn) {
                    Some(TxnState::Aborted) => ReadFrom::Aborted(OpLoc::new(wtxn, wop)),
                    Some(TxnState::Processed { slot }) => {
                        self.index.meta_mut(*slot).pending_readers += 1;
                        ReadFrom::External(OpLoc::new(wtxn, wop))
                    }
                    Some(TxnState::Staged) | None => {
                        // Staged, or the writer transaction is still open.
                        deps += 1;
                        self.waiting_txn
                            .entry(wtxn)
                            .or_default()
                            .push(Waiter::Read(id));
                        ReadFrom::External(OpLoc::new(wtxn, wop))
                    }
                },
                None => {
                    if self.pruned_writes[key.index()] > 0 {
                        ReadFrom::Unjudged
                    } else {
                        deps += 1;
                        self.waiting_value
                            .entry((key, value))
                            .or_default()
                            .push((id, p as u32));
                        ReadFrom::ThinAir
                    }
                }
            };
        }

        // so dependency: the session's previous committed transaction must
        // be processed first.
        if let Some(prev) = self.sessions[s as usize].last_committed {
            if matches!(self.txn_states.get(&prev), Some(TxnState::Staged)) {
                deps += 1;
                self.waiting_txn
                    .entry(prev)
                    .or_default()
                    .push(Waiter::So(id));
            }
        }
        self.sessions[s as usize].last_committed = Some(id);

        self.txn_states.insert(id, TxnState::Staged);
        self.staged.insert(
            id,
            StagedTxn {
                session: s,
                committed_pos,
                ops,
                deps,
            },
        );
        self.stats.staged_txns += 1;
        self.stats.peak_staged_txns = self.stats.peak_staged_txns.max(self.stats.staged_txns);
        if let Some(m) = &self.metrics {
            m.staged.set(self.stats.staged_txns as f64);
        }
        if deps == 0 {
            self.ready.push_back(id);
        }
    }

    fn abort_open(&mut self, s: u32) {
        let mut open = self.sessions[s as usize].open.take().expect("open txn");
        let id = open.id;
        self.stats.aborts += 1;
        self.txn_states.insert(id, TxnState::Aborted);
        for op in &open.ops {
            if let TxnOp::Write(key, value) = *op {
                self.sessions[s as usize]
                    .aborted_writes
                    .push((id.index, key, value));
            }
        }
        if open.ops.capacity() > 0 {
            open.ops.clear();
            self.spare_ops.push(open.ops);
        }
        // Readers waiting on this writer observe an aborted write: resolve
        // them without a wr edge.
        if let Some(waiters) = self.waiting_txn.remove(&id) {
            for w in waiters {
                let Waiter::Read(reader) = w else {
                    unreachable!("so waiters only wait on committed transactions")
                };
                if let Some(st) = self.staged.get_mut(&reader) {
                    for op in &mut st.ops {
                        if let TxnOp::Read(k, v, ReadFrom::External(w)) = *op {
                            if w.txn == id {
                                *op = TxnOp::Read(k, v, ReadFrom::Aborted(w));
                            }
                        }
                    }
                    st.deps -= 1;
                    if st.deps == 0 {
                        self.ready.push_back(reader);
                    }
                }
            }
        }
    }

    fn drain_ready(&mut self) {
        while let Some(id) = self.ready.pop_front() {
            self.process_txn(id);
        }
    }

    fn emit(&mut self, v: StreamViolation) {
        let horizon = matches!(v, StreamViolation::BeyondHorizon { .. }) as u64;
        self.stats.violations += 1;
        self.stats.horizon_misses += horizon;
        if let Some(m) = &self.metrics {
            m.violations.inc();
            m.horizon_misses.add(horizon);
        }
        self.violations.push(v);
    }

    fn emit_core(&mut self, v: Violation) {
        self.emit(StreamViolation::Core(v));
    }

    /// Runs the shared read steps over committed transaction `id` and
    /// pushes their findings to `out`, each step's in op order. Only the
    /// beyond-horizon read is the stream's own: the read-consistency step
    /// hands it back unjudged, in its place.
    fn read_findings(
        &self,
        (step, repeatable): &mut (ReadCheck, RepeatableReads),
        id: TxnId,
        ops: &[TxnOp],
        out: &mut Vec<StreamViolation>,
    ) {
        step.check_txn(
            id,
            ops.iter().copied(),
            |w, key| self.is_final_write(w, key),
            |f| {
                out.push(match f {
                    ReadFinding::Violation(v) => {
                        StreamViolation::Core(Violation::ReadConsistency(v))
                    }
                    ReadFinding::Unjudged(op, key, value) => StreamViolation::BeyondHorizon {
                        txn: id,
                        op,
                        key: self.key_name(key),
                        value: value.0,
                    },
                })
            },
        );
        if self.cfg.level == IsolationLevel::ReadAtomic {
            let reads = ops.iter().filter_map(|op| match *op {
                TxnOp::Read(key, _, ReadFrom::External(w)) => Some((key, w.txn)),
                _ => None,
            });
            repeatable.check_txn(reads, |key, first_writer, second_writer| {
                out.push(StreamViolation::Core(Violation::NonRepeatableRead {
                    txn: id,
                    key,
                    first_writer,
                    second_writer,
                }))
            });
        }
    }

    /// Whether `w` is its transaction's final write of `key`. A reader is
    /// checked once its committed writers are processed, or at `finish`
    /// while they are still staged behind a `so ∪ wr` cycle.
    fn is_final_write(&self, w: OpLoc, key: Key) -> bool {
        match self.txn_states.get(&w.txn) {
            Some(TxnState::Processed { slot }) => {
                let finals = &self.index.meta(*slot).final_writes;
                finals.binary_search(&(key, w.op)).is_ok()
            }
            _ => self.staged.get(&w.txn).is_some_and(|st| {
                let mut later = st.ops.iter().skip(w.op as usize + 1);
                !later.any(|o| matches!(*o, TxnOp::Write(k, _) if k == key))
            }),
        }
    }

    fn process_txn(&mut self, id: TxnId) {
        // Only a staged transaction whose dependencies are met is queued,
        // once.
        let Some(st) = self.staged.remove(&id) else {
            debug_assert!(false, "ready transaction {id} is staged");
            return;
        };
        self.stats.staged_txns -= 1;
        let (session, committed_pos, mut ops) = (st.session, st.committed_pos, st.ops);

        // 1. Read Consistency and, under RA, repeatable reads, through the
        // steps batch runs. External writers are processed by now, so
        // their final writes come from the index.
        let mut steps = std::mem::take(&mut self.read_steps);
        let mut found = Vec::new();
        self.read_findings(&mut steps, id, &ops, &mut found);
        self.read_steps = steps;
        for v in found {
            self.emit(v);
        }

        // 2. Derived per-transaction index data (the streaming analog of
        // `HistoryIndex`'s per-transaction pass), written over a recycled
        // slot's buffers; the slot's old operation buffer comes back in
        // `ops`.
        let txn_states = &self.txn_states;
        let slot = self.index.insert(|meta| {
            meta.refill(id, session, committed_pos, &mut ops, |w| {
                // A reader is processed only after its committed writers
                // are.
                match txn_states.get(&w) {
                    Some(&TxnState::Processed { slot }) => Some(slot),
                    _ => {
                        debug_assert!(false, "external writer {w} is processed");
                        None
                    }
                }
            })
        });
        if ops.capacity() > 0 {
            self.spare_ops.push(ops);
        }
        self.dag.ensure_node(slot, session, committed_pos);

        // 3. Base edges plus the level's inferred edges, from the shared
        // kernels. A writer read more than once gives one `wr` edge, with
        // the key of its first read.
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        if let Some(prev) = self.sessions[session as usize].last_processed_slot {
            edges.push((prev, slot, EdgeKind::SessionOrder));
        }
        self.wr_round += 1;
        for r in &self.index.meta(slot).ext_reads {
            let w = r.writer as usize;
            if self.wr_stamp.len() <= w {
                self.wr_stamp.resize(w + 1, 0);
            }
            if self.wr_stamp[w] != self.wr_round {
                self.wr_stamp[w] = self.wr_round;
                edges.push((r.writer, slot, EdgeKind::WriteRead(r.key)));
            }
        }
        self.clocks.observe(&self.index, slot);
        match self.cfg.level {
            IsolationLevel::ReadCommitted => self.rc.process(&self.index, slot, &mut edges),
            IsolationLevel::ReadAtomic => self.ra.process(&self.index, slot, &mut edges),
            IsolationLevel::Causal => self.infer_cc(slot, &mut edges),
        }

        // 4. Insert; every edge closing a cycle is a violation, reported
        // immediately with provenance and then dropped so checking
        // continues.
        for &(from, to, kind) in &edges {
            match self.dag.insert_edge(from, to, kind) {
                Ok(()) => {}
                Err(cycle) => self.report_cycle(&cycle),
            }
        }
        self.edges = edges;
        self.stats.live_edges = self.dag.num_edges();

        // 5. Publish and wake dependents.
        self.txn_states.insert(id, TxnState::Processed { slot });
        self.sessions[session as usize].last_processed_slot = Some(slot);
        if let Some(waiters) = self.waiting_txn.remove(&id) {
            for w in waiters {
                let reader = match w {
                    Waiter::Read(r) => {
                        self.index.meta_mut(slot).pending_readers += 1;
                        r
                    }
                    Waiter::So(r) => r,
                };
                if let Some(st) = self.staged.get_mut(&reader) {
                    st.deps -= 1;
                    if st.deps == 0 {
                        self.ready.push_back(reader);
                    }
                }
            }
        }

        // 6. Release the references this transaction held on its writers.
        for i in 0..self.index.meta(slot).ext_reads.len() {
            let w = self.index.meta(slot).ext_reads[i].writer;
            if w != slot {
                let m = self.index.meta_mut(w);
                m.pending_readers = m.pending_readers.saturating_sub(1);
            }
        }

        self.stats.processed += 1;
        self.stats.live_txns = self.index.num_live() as u64;
        self.stats.peak_live_txns = self.stats.peak_live_txns.max(self.stats.live_txns);
        if let Some(m) = &self.metrics {
            m.processed.inc();
            m.staged.set(self.stats.staged_txns as f64);
            m.live.set(self.stats.live_txns as f64);
            m.live_edges.set(self.stats.live_edges as f64);
        }

        self.processed_since_gc += 1;
        if self.cfg.prune && self.processed_since_gc >= self.cfg.prune_interval {
            self.processed_since_gc = 0;
            self.prune();
        }
    }

    /// The per-commit CC inference.
    ///
    /// Unlike the batch saturators, the kernel gets no writer rows
    /// (`|_| &[]`), so edges that happens-before already implies are kept.
    /// Dropping one is sound only while the `so ∪ wr` path behind it stays
    /// in the live DAG, and watermark pruning does not guarantee that:
    /// `retire()` condenses only through a retired node's link out-edges,
    /// so a path `t2 →* t1` through a retired transaction's `wr` edge can
    /// leave no live edge behind, and the inferred edge would be the DAG's
    /// only record of that order.
    fn infer_cc(&mut self, slot: u32, edges: &mut Vec<(u32, u32, EdgeKind)>) {
        let row = self.clocks.row(slot);
        infer_cc_edges(&self.index, slot, row, |_| &[], &mut self.cc_search, edges);
    }

    fn report_cycle(&mut self, cycle: &[DagEdge]) {
        let head = (
            self.index.meta(cycle[0].from).txn_id,
            self.index.meta(cycle[0].to).txn_id,
        );
        if self.cycle_reports >= self.cfg.max_cycle_reports || !self.reported_cycles.insert(head) {
            // Over the cap or already reported: the verdict is already
            // inconsistent; count it and move on.
            return;
        }
        self.cycle_reports += 1;
        let witness = WitnessCycle {
            edges: cycle
                .iter()
                .map(|e| WitnessEdge {
                    from: self.index.meta(e.from).txn_id,
                    to: self.index.meta(e.to).txn_id,
                    kind: e.kind,
                })
                .collect(),
        };
        self.emit_core(Violation::CommitOrderCycle {
            level: self.cfg.level,
            cycle: witness,
        });
    }

    /// Watermark pruning: retire settled transactions (see module docs).
    fn prune(&mut self) {
        let _span = self.obs.span("stream_gc");
        if let Some(m) = &self.metrics {
            m.gcs.inc();
        }
        let wm = self.clocks.watermark();
        let (mut candidates, mut retirable) = std::mem::take(&mut self.prune_scratch);
        candidates.clear();
        candidates.extend(
            self.index
                .live_slots()
                .filter(|&(slot, m)| {
                    (m.session as usize) < wm.len()
                    && m.committed_pos < wm[m.session as usize]
                    && m.pending_readers == 0
                    // The session's latest processed txn must stay until its
                    // so-successor is processed: the successor's link edge
                    // is what condensation threads cross-horizon
                    // constraints onto.
                    && self.sessions[m.session as usize].last_processed_slot != Some(slot)
                })
                .map(|(slot, _)| (self.dag.order_of(slot), slot)),
        );
        candidates.sort_unstable();

        // Keep boundary writers: the latest retained writer of each
        // (session, key) must survive so later CC lookups below the
        // watermark still find their visible writer. Every verdict is
        // taken before the first retire; that matches deciding each
        // candidate just before retiring it, because candidates run in
        // DAG order, which within one (session, key) writer list is
        // session-position order, so a retire only ever removes writers
        // *before* a later candidate in its list — the successor entry
        // its check reads is untouched, and boundary writers themselves
        // are never retired.
        let index = &self.index;
        let is_boundary = |slot: u32| -> bool {
            let m = index.meta(slot);
            let bound = wm[m.session as usize];
            debug_assert!(m.committed_pos < bound);
            m.keys_written.iter().any(|&key| {
                let list = index.session_key_writers(m.session, key);
                let i = list
                    .iter()
                    .position(|&w| w == slot)
                    .expect("writer listed for its key");
                match list.get(i + 1) {
                    Some(&next) => index.meta(next).committed_pos >= bound,
                    None => true,
                }
            })
        };
        retirable.clear();
        retirable.extend(
            candidates
                .iter()
                .map(|&(_, slot)| slot)
                .filter(|&slot| !is_boundary(slot)),
        );
        for &slot in &retirable {
            self.retire(slot);
        }
        self.prune_scratch = (candidates, retirable);
    }

    fn retire(&mut self, slot: u32) {
        // Condense orderings that flow through this node along the session
        // chains: the latest in-neighbor of each session gets a link edge
        // to the node's earliest link successor of each session, and the
        // session chains carry every other (in-neighbor, link successor)
        // pair, so commit-order constraints threaded through the retired
        // chain still participate in cycle detection. (Shortcutting through
        // *every* out-edge would keep full cross-horizon precision but
        // funnels unbounded degree onto long-lived boundary writers;
        // orderings through a retired transaction into its one-off readers
        // are settled at the horizon instead — `exact` mode keeps
        // everything.) A condensed edge follows a path that already exists,
        // so it never closes a cycle or moves the topological order.
        let condensed = self.dag.retire_node(slot);
        self.clocks.release(slot);
        let meta = self.index.retire(slot);
        for op in &meta.ops {
            if let TxnOp::Write(k, v) = *op {
                self.writes.remove(&(k, v));
                self.pruned_writes[k.index()] += 1;
            }
        }
        self.txn_states.remove(&meta.txn_id);
        let s = meta.session;
        let state = &mut self.sessions[s as usize];
        if state.last_processed_slot == Some(slot) {
            state.last_processed_slot = None;
        }
        // Aborted transactions older than this one can no longer be read
        // within the retained window either.
        let cutoff = meta.txn_id.index;
        let (writes, pruned_writes, txn_states) = (
            &mut self.writes,
            &mut self.pruned_writes,
            &mut self.txn_states,
        );
        state.aborted_writes.retain(|&(idx, k, v)| {
            if idx >= cutoff {
                return true;
            }
            writes.remove(&(k, v));
            pruned_writes[k.index()] += 1;
            txn_states.remove(&TxnId::new(s, idx));
            false
        });

        self.stats.retired_txns += 1;
        self.stats.condensed_edges += condensed;
        self.stats.live_txns = self.index.num_live() as u64;
        self.stats.live_edges = self.dag.num_edges();
        if let Some(m) = &self.metrics {
            m.retired.inc();
            m.condensed.add(condensed);
            m.live.set(self.stats.live_txns as f64);
            m.live_edges.set(self.stats.live_edges as f64);
        }
    }

    /// Ends the stream: force-aborts open transactions, resolves pending
    /// reads as thin-air, surfaces `so ∪ wr` deadlocks as cycle violations,
    /// and returns the overall outcome.
    pub fn finish(mut self) -> Result<StreamOutcome, StreamError> {
        self.finish_in_place()
    }

    /// [`finish`](Self::finish), then [`reset`](Self::reset): finalizes the
    /// stream in place and leaves the checker empty but *warm* — the big
    /// hash maps, index slabs, and graph adjacency keep their capacity, so
    /// the next stream fed through the same checker allocates almost
    /// nothing. This is the drain hook long-running hosts use (`awdit
    /// serve` tenant pools, `watch --follow` on a [`ShutdownToken`]): the
    /// terminal summary comes out, the allocations stay in.
    pub fn drain(&mut self) -> Result<StreamOutcome, StreamError> {
        let outcome = self.finish_in_place();
        self.reset();
        outcome
    }

    /// Clears all per-stream state — transactions, value maps, index,
    /// clocks, DAG, violations, statistics, any sticky error — while
    /// retaining allocation capacity where the underlying structures allow
    /// it. The configuration and observability handles survive.
    pub fn reset(&mut self) {
        self.error = None;
        self.session_ids.clear();
        self.last_session = None;
        self.sessions.clear();
        self.key_ids.clear();
        self.key_names.clear();
        self.writes.clear();
        self.pruned_writes.clear();
        self.txn_states.clear();
        self.staged.clear();
        self.waiting_value.clear();
        self.waiting_txn.clear();
        self.ready.clear();
        self.index.clear();
        self.clocks.begin(0, 0);
        // The RC kernel's scratch is round-stamped per reader and carries
        // no cross-transaction state, so it is reusable as-is; the RA
        // kernel's per-session latest-writer table is not.
        self.ra.reset();
        self.dag.clear();
        self.reported_cycles.clear();
        self.cycle_reports = 0;
        self.violations.clear();
        self.processed_since_gc = 0;
        self.stats = StreamStats::default();
        if let Some(m) = &self.metrics {
            m.staged.set(0.0);
            m.live.set(0.0);
            m.live_edges.set(0.0);
        }
    }

    /// [`reset`](Self::reset) with a new configuration — how a pooled
    /// checker is re-issued to a tenant with different tuning, keeping
    /// its warm allocations.
    pub fn reconfigure(&mut self, cfg: StreamConfig) {
        self.reset();
        self.cfg = cfg;
    }

    fn finish_in_place(&mut self) -> Result<StreamOutcome, StreamError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }

        // A transaction still open when the stream ends never committed:
        // treat it as aborted (its writes were never confirmed).
        for s in 0..self.sessions.len() as u32 {
            if self.sessions[s as usize].open.is_some() {
                self.abort_open(s);
                self.stats.implicit_aborts += 1;
            }
        }
        self.drain_ready();

        // Reads whose value nobody ever wrote stay thin-air: release their
        // readers, in read order (the map's own order changes per process).
        let mut waiting: Vec<_> = self.waiting_value.drain().flat_map(|(_, e)| e).collect();
        waiting.sort_unstable();
        for (reader, _) in waiting {
            if let Some(st) = self.staged.get_mut(&reader) {
                st.deps -= 1;
                if st.deps == 0 {
                    self.ready.push_back(reader);
                }
            }
        }
        self.drain_ready();

        // Whatever is still staged is deadlocked on a `so ∪ wr` cycle.
        self.finish_deadlocked();

        self.stats.staged_txns = self.staged.len() as u64;
        if let Some(m) = &self.metrics {
            m.staged.set(self.stats.staged_txns as f64);
        }
        Ok(StreamOutcome {
            level: self.cfg.level,
            violations: std::mem::take(&mut self.violations),
            stats: self.stats,
        })
    }

    /// Reports the violations of transactions stuck in a `so ∪ wr` cycle:
    /// their reads are still checked, as at processing (a staged writer's
    /// final writes come from its ops), and one witness cycle per strongly
    /// connected component is extracted — classified as a causality cycle
    /// for CC (mirroring the batch early return) and as a commit-order
    /// cycle for RC/RA (where the batch graph simply contains the base
    /// cycle).
    ///
    /// Linear in the stuck transactions' operations, up to the sort and
    /// the binary searches that find a writer's place among them: a stuck
    /// transaction's session successor is the next stuck one.
    fn finish_deadlocked(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let mut stuck: Vec<(TxnId, &StagedTxn)> =
            self.staged.iter().map(|(&id, st)| (id, st)).collect();
        stuck.sort_unstable_by_key(|&(id, _)| id);

        // Per-transaction checks first (the batch pipeline checks every
        // committed transaction regardless of cycles).
        let mut found = Vec::new();
        let mut steps = std::mem::take(&mut self.read_steps);
        for &(id, st) in &stuck {
            self.read_findings(&mut steps, id, &st.ops, &mut found);
        }
        self.read_steps = steps;

        // One witness cycle per SCC of the deadlocked base relation. The
        // graph keeps one provenance bit per edge, so each pair's label
        // (its first emission, as the cycle search would have kept) is
        // tracked beside it.
        let mut g = CommitGraph::new(stuck.len());
        let mut kinds: HashMap<(u32, u32), EdgeKind> = HashMap::new();
        let mut add = |g: &mut CommitGraph, from: usize, to: usize, kind: EdgeKind| {
            kinds.entry((from as u32, to as u32)).or_insert(kind);
            g.add_edge(from as u32, to as u32, kind);
        };
        for (li, &(id, st)) in stuck.iter().enumerate() {
            // so edge to the session successor: staged transactions form a
            // suffix of their session's committed ones, so it is the next
            // stuck transaction when that has the same session.
            if let Some(&(_, next)) = stuck.get(li + 1).filter(|(t, _)| t.session == id.session) {
                debug_assert_eq!(next.committed_pos, st.committed_pos + 1);
                add(&mut g, li, li + 1, EdgeKind::SessionOrder);
            }
            // A writer read twice gives one edge: `freeze` keeps the first.
            for op in &st.ops {
                if let TxnOp::Read(key, _, ReadFrom::External(w)) = *op {
                    if let Ok(wl) = stuck.binary_search_by_key(&w.txn, |&(t, _)| t) {
                        add(&mut g, wl, li, EdgeKind::WriteRead(key));
                    }
                }
            }
        }
        let budget = self
            .cfg
            .max_cycle_reports
            .saturating_sub(self.cycle_reports)
            .max(1);
        g.freeze();
        for cycle in g.find_cycles(budget) {
            let witness = WitnessCycle {
                edges: cycle
                    .edges
                    .iter()
                    .map(|e| WitnessEdge {
                        from: stuck[e.from as usize].0,
                        to: stuck[e.to as usize].0,
                        // Every graph edge came through `add`, which
                        // labelled it.
                        kind: kinds[&(e.from, e.to)],
                    })
                    .collect(),
            };
            found.push(StreamViolation::Core(match self.cfg.level {
                IsolationLevel::Causal => Violation::CausalityCycle(witness),
                level => Violation::CommitOrderCycle {
                    level,
                    cycle: witness,
                },
            }));
        }
        for v in found {
            self.emit(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TxnMeta;
    use awdit_core::{base_commit_graph, compute_hb_into, History, HistoryBuilder, HistoryIndex};

    /// The batch history of `events`, its sessions numbered in order of
    /// first appearance as the checker numbers them, so the two agree on
    /// every `TxnId` and on the meaning of every clock entry.
    fn history_of(events: &[Event]) -> History {
        let mut b = HistoryBuilder::new();
        let mut ids = HashMap::new();
        for e in events {
            let s = *ids.entry(e.session()).or_insert_with(|| b.session());
            match *e {
                Event::Begin { .. } => b.begin(s),
                Event::Write { key, value, .. } => b.write(s, key, value),
                Event::Read { key, value, .. } => b.read(s, key, value),
                Event::Commit { .. } => b.commit(s),
                Event::Abort { .. } => b.abort(s),
            }
        }
        b.finish().unwrap()
    }

    /// A seeded serial stream over six keys: each transaction reads the
    /// latest values of two random keys and writes a fresh value, so every
    /// write precedes the reads of its value. `sessions` sessions run from
    /// the start; `late` more open only after half of the `txns`.
    fn serial_stream(seed: u64, sessions: u64, late: u64, txns: u64) -> Vec<Event> {
        let mut x = seed;
        let mut rand = move |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        let mut latest: [Option<u64>; 6] = [None; 6];
        let mut events = Vec::new();
        for i in 0..txns {
            let open = if i < txns / 2 {
                sessions
            } else {
                sessions + late
            };
            let session = rand(open);
            events.push(Event::Begin { session });
            for _ in 0..2 {
                let key = rand(6);
                if let Some(value) = latest[key as usize] {
                    events.push(Event::Read {
                        session,
                        key,
                        value,
                    });
                }
            }
            let key = rand(6);
            events.push(Event::Write {
                session,
                key,
                value: i,
            });
            latest[key as usize] = Some(i);
            events.push(Event::Commit { session });
        }
        events
    }

    /// Every clock row a pruned checker holds equals the batch
    /// `compute_hb_into` row of the same transaction, on streams that
    /// reuse retired slots and open sessions after retirements began.
    #[test]
    fn stream_clocks_match_batch_clocks() {
        for (seed, sessions, late) in [(1, 3, 0), (2, 3, 2), (3, 1, 3), (4, 2, 5)] {
            let events = serial_stream(seed, sessions, late, 400);
            let h = history_of(&events);
            let index = HistoryIndex::new(&h);
            let topo = base_commit_graph(&index).topological_order().unwrap();
            let mut batch = ClockTable::new();
            compute_hb_into(&index, &topo, &mut batch);

            let mut c = OnlineChecker::with_config(StreamConfig {
                prune: true,
                prune_interval: 2,
                ..StreamConfig::default()
            });
            let mut seen = HashSet::new();
            for e in &events {
                c.apply(e).unwrap();
                for (slot, m) in c.index.live_slots() {
                    let online = c.clocks.row(slot);
                    let offline = batch.row(index.dense_id(m.txn_id));
                    let (head, tail) = offline.split_at(online.len());
                    assert_eq!(online, head, "seed {seed}: clock of {}", m.txn_id);
                    assert!(tail.iter().all(|&v| v == 0), "seed {seed}: {}", m.txn_id);
                    seen.insert(m.txn_id);
                }
            }
            let stats = *c.stats();
            assert_eq!(seen.len(), index.num_committed(), "seed {seed}");
            assert!(stats.retired_txns > 0, "seed {seed}: nothing retired");
            assert!(
                stats.processed > stats.peak_live_txns,
                "seed {seed}: no slot reused"
            );
            assert!(c.finish().unwrap().is_consistent(), "seed {seed}");
        }
    }

    /// `MAX_SESSIONS` distinct session names are accepted; the next new
    /// one poisons the stream, while known names were fine up to then.
    #[test]
    fn sessions_past_the_cap_are_refused() {
        let mut c = OnlineChecker::new(IsolationLevel::Causal);
        for s in 0..MAX_SESSIONS as u64 {
            c.begin(s * 7).unwrap();
            c.write(s * 7, 1, s).unwrap();
            c.commit(s * 7).unwrap();
        }
        c.begin(0).unwrap();
        c.commit(0).unwrap();
        let refused = StreamError::TooManySessions {
            limit: MAX_SESSIONS,
        };
        assert_eq!(c.begin(1), Err(refused.clone()));
        assert_eq!(c.begin(0), Err(refused.clone()), "the error is sticky");
        assert_eq!(c.finish().unwrap_err(), refused);
    }

    /// The metadata of transaction `m` derived from scratch: its ops as
    /// committed, its external readers' writers resolved through
    /// `slot_of` (the slot each writer held while live), and everything
    /// else recomputed with plain maps.
    fn meta_from_scratch(m: &TxnMeta, slot_of: &HashMap<TxnId, u32>) -> TxnMeta {
        use awdit_core::{ExtRead, ReadCols};
        use std::collections::BTreeMap;
        let mut ext_reads = Vec::new();
        let mut last_write = BTreeMap::new();
        for (p, op) in m.ops.iter().enumerate() {
            match *op {
                TxnOp::Write(key, _) => {
                    last_write.insert(key, p as u32);
                }
                TxnOp::Read(key, _, ReadFrom::External(w)) => ext_reads.push(ExtRead {
                    key,
                    writer: slot_of[&w.txn],
                    op: p as u32,
                }),
                TxnOp::Read(..) => {}
            }
        }
        TxnMeta {
            txn_id: m.txn_id,
            session: m.txn_id.session,
            committed_pos: m.committed_pos,
            keys_written: last_write.keys().copied().collect(),
            reads: ReadCols::from_ext_reads(&ext_reads),
            ext_reads,
            ops: m.ops.clone(),
            final_writes: last_write.into_iter().collect(),
            pending_readers: m.pending_readers,
        }
    }

    /// Per transaction, its operations as `(is_write, key, value)`.
    type TxnOps = HashMap<TxnId, Vec<(bool, u64, u64)>>;

    /// A seeded serial stream in which every eighth transaction is large
    /// (20–40 operations) and the rest small, with own reads, reads of
    /// aborted writes, aborts, and, near the end, thin-air reads (each the
    /// only operation of a session of its own, so it stalls nothing else).
    /// Returns the events and each transaction's operations, numbered as
    /// the checker numbers them.
    fn recycling_stream(seed: u64) -> (Vec<Event>, TxnOps) {
        let mut x = seed;
        let mut rand = move |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        const KEYS: u64 = 6;
        let mut latest: [Option<u64>; KEYS as usize] = [None; KEYS as usize];
        let mut aborted_values: Vec<(u64, u64)> = Vec::new();
        let mut next_value = 1u64;
        let mut events = Vec::new();
        let mut txns = HashMap::new();
        // Dense session ids by first appearance, and begins per session.
        let mut dense: HashMap<u64, u32> = HashMap::new();
        let mut begun: Vec<u32> = Vec::new();
        let mut lone = 1000u64;
        for i in 0..600u64 {
            // A session that stops advancing holds the watermark back, so
            // the thin-air readers come at the end.
            let thin_air = i >= 560 && rand(4) == 0;
            let session = if thin_air {
                lone += 1;
                lone
            } else {
                rand(4)
            };
            let next = dense.len() as u32;
            let s = *dense.entry(session).or_insert(next);
            if begun.len() <= s as usize {
                begun.push(0);
            }
            let id = TxnId::new(s, begun[s as usize]);
            begun[s as usize] += 1;
            events.push(Event::Begin { session });
            let mut ops = Vec::new();
            let mut written = Vec::new();
            let len = match (thin_air, i % 8) {
                (true, _) => 0,
                (false, 0) => 20 + rand(21),
                (false, _) => 1 + rand(3),
            };
            for _ in 0..len {
                let key = rand(KEYS);
                let (is_write, key, value) = match rand(8) {
                    0 if !written.is_empty() => {
                        let &(k, v) = &written[rand(written.len() as u64) as usize];
                        (false, k, v)
                    }
                    1 if !aborted_values.is_empty() => {
                        let &(k, v) = &aborted_values[rand(aborted_values.len() as u64) as usize];
                        (false, k, v)
                    }
                    2..=4 if latest[key as usize].is_some() => {
                        (false, key, latest[key as usize].unwrap())
                    }
                    _ => {
                        next_value += 1;
                        written.push((key, next_value));
                        (true, key, next_value)
                    }
                };
                ops.push((is_write, key, value));
                events.push(match is_write {
                    true => Event::Write {
                        session,
                        key,
                        value,
                    },
                    false => Event::Read {
                        session,
                        key,
                        value,
                    },
                });
            }
            if thin_air {
                // A key with pruned writes (an unjudged read) or a fresh
                // one (a read that waits for the stream's end).
                let key = [rand(KEYS), KEYS + i][rand(2) as usize];
                ops.push((false, key, u64::MAX - i));
                events.push(Event::Read {
                    session,
                    key,
                    value: u64::MAX - i,
                });
            }
            if !thin_air && rand(10) == 0 {
                aborted_values.extend(written);
                events.push(Event::Abort { session });
            } else {
                for (k, v) in written {
                    latest[k as usize] = Some(v);
                }
                events.push(Event::Commit { session });
            }
            txns.insert(id, ops);
        }
        (events, txns)
    }

    /// Large transactions retire and small ones take over their slots:
    /// after every event, every live slot's metadata equals one derived
    /// from scratch, and its operations are the transaction's own.
    #[test]
    fn recycled_slots_match_metadata_derived_from_scratch() {
        for seed in 1..=4 {
            let (events, txns) = recycling_stream(seed);
            let mut c = OnlineChecker::with_config(StreamConfig {
                prune: true,
                prune_interval: 2,
                ..StreamConfig::default()
            });
            let mut slot_of: HashMap<TxnId, u32> = HashMap::new();
            let mut expected: HashMap<TxnId, TxnMeta> = HashMap::new();
            // Per slot, the longest transaction it has held so far.
            let mut longest: HashMap<u32, usize> = HashMap::new();
            let mut shrunk = 0;
            let mut check_live = |c: &OnlineChecker| {
                // Writers first: a reader may be new in the same event.
                for (slot, m) in c.index.live_slots() {
                    if slot_of.insert(m.txn_id, slot).is_none() {
                        let held = longest.entry(slot).or_insert(0);
                        shrunk += usize::from(*held >= 20 && m.ops.len() <= 3);
                        *held = (*held).max(m.ops.len());
                    }
                }
                for (slot, m) in c.index.live_slots() {
                    let want = expected
                        .entry(m.txn_id)
                        .or_insert_with(|| meta_from_scratch(m, &slot_of));
                    want.pending_readers = m.pending_readers;
                    assert_eq!(m, want, "seed {seed}: slot {slot}");
                    let ops: Vec<(bool, u64, u64)> = m
                        .ops
                        .iter()
                        .map(|op| match *op {
                            TxnOp::Write(k, v) => (true, c.key_name(k), v.0),
                            TxnOp::Read(k, v, _) => (false, c.key_name(k), v.0),
                        })
                        .collect();
                    assert_eq!(ops, txns[&m.txn_id], "seed {seed}: ops of {}", m.txn_id);
                }
            };
            for e in &events {
                c.apply(e).unwrap();
                check_live(&c);
            }
            let outcome = c.finish_in_place().unwrap();
            check_live(&c);
            assert!(outcome.stats().retired_txns > 300, "seed {seed}");
            assert!(outcome.stats().peak_staged_txns > 1, "seed {seed}");
            assert!(
                shrunk > 10,
                "seed {seed}: {shrunk} large slots reused by small"
            );
            let kinds = |f: fn(&ReadFrom) -> bool| {
                expected
                    .values()
                    .flat_map(|m| &m.ops)
                    .filter(|op| matches!(op, TxnOp::Read(_, _, from) if f(from)))
                    .count()
            };
            assert!(kinds(|f| matches!(f, ReadFrom::Own(_))) > 0, "seed {seed}");
            assert!(
                kinds(|f| matches!(f, ReadFrom::Aborted(_))) > 0,
                "seed {seed}"
            );
            assert!(
                kinds(|f| matches!(f, ReadFrom::External(_))) > 0,
                "seed {seed}"
            );
            assert!(kinds(|f| matches!(f, ReadFrom::ThinAir)) > 0, "seed {seed}");
            assert!(
                kinds(|f| matches!(f, ReadFrom::Unjudged)) > 0,
                "seed {seed}"
            );
        }
    }
}
