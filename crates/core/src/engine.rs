//! The reusable checker engine: one configured handle, many checks.
//!
//! The free functions ([`check`](crate::check),
//! [`check_all_levels`](crate::check_all_levels)) are convenient but
//! stateless — every call re-allocates the history index, the commit
//! graph, and all scratch buffers from cold. Embedded testers check *fleets* of
//! histories (directed test generation, CI sweeps, long-running
//! monitoring services), where that setup cost is pure overhead. An
//! [`Engine`] is the amortized form:
//!
//! * **One config.** [`EngineConfig`] holds the batch knobs — isolation
//!   level, worker threads, witness budget, commit-order production —
//!   shared by single checks and sourced fleets. Online monitors take
//!   their own `awdit_stream::StreamConfig`.
//! * **Recycled arenas.** The handle owns a [`HistoryIndex`] and a
//!   [`CommitGraph`] arena; `engine.check(&history)` rebuilds them in
//!   place ([`HistoryIndex::rebuild`], [`CommitGraph::reset`]), so a
//!   second check of a same-shape history performs **zero arena growth**
//!   — observable via [`EngineStats::arena_growths`].
//! * **Batching.** [`Engine::check_source`] is the one batch loop: it
//!   streams each history of a [`HistorySource`] into the recycled ingest
//!   arenas (`.awb` files bulk-load) and checks it before reading the
//!   next, so peak memory is bounded by the largest single history. Text
//!   parses line by line at every thread count. The `threads` knob
//!   parallelizes *within* a history — the sharded index build, which
//!   checks Read Consistency in the same pass, and sharded saturation —
//!   never across histories; outcomes are bit-identical at every thread
//!   count.
//! * **Pluggable edges.** [`HistorySource`] abstracts where histories
//!   come from (files, directories, NDJSON streams in `awdit-formats`;
//!   simulator fleets in `awdit-simdb`).
//!
//! ```
//! use awdit_core::{Engine, EngineConfig, HistoryBuilder, IsolationLevel};
//!
//! # fn main() -> Result<(), awdit_core::BuildError> {
//! let mut engine = Engine::with_config(EngineConfig {
//!     level: IsolationLevel::Causal,
//!     ..EngineConfig::default()
//! });
//! let mut b = HistoryBuilder::new();
//! let s = b.session();
//! b.begin(s);
//! b.write(s, 1, 10);
//! b.commit(s);
//! let history = b.finish()?;
//! assert!(engine.check(&history).is_consistent());
//! // A second check recycles every arena the first one grew.
//! assert!(engine.check(&history).is_consistent());
//! assert_eq!(engine.stats().arena_growths, 1);
//! # Ok(())
//! # }
//! ```

use crate::cc::{saturate_cc_into, ClockTable};
use crate::checker::{CheckStats, Outcome};
use crate::graph::CommitGraph;
use crate::history::{replay_history, BuildError, History, HistoryBuilder, HistorySink};
use crate::index::HistoryIndex;
use crate::isolation::IsolationLevel;
use crate::linearize::commit_order_from_graph;
use crate::parallel;
use crate::ra::{check_ra_single_session, check_repeatable_reads, saturate_ra_into};
use crate::rc::saturate_rc_into;
use crate::types::{SessionId, TxnId};
use crate::witness::{Violation, WitnessCycle};
use awdit_obs::Obs;

/// The tuning knobs shared by every engine entry point — single checks
/// and sourced fleets ([`Engine::check_source`]).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct EngineConfig {
    /// The isolation level checked by [`Engine::check`] and
    /// [`Engine::finish_ingest`] (explicit-level entry points ignore it).
    pub level: IsolationLevel,
    /// Produce a witnessing commit order on consistent histories
    /// (an extra `O(n)` topological sort).
    pub want_commit_order: bool,
    /// Maximum number of commit-order/causality cycles extracted per
    /// check.
    pub max_cycles: usize,
    /// Worker threads (`1` = sequential, `0` = all cores) for the work
    /// inside one history: the sharded index build (with its Read
    /// Consistency pass, [`HistoryIndex::rebuild`]) and the sharded
    /// saturators. Parsing is sequential, and histories of a source are
    /// checked one after another at every value; outcomes are identical
    /// for every value. At `1` the engine spawns no thread.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            level: IsolationLevel::Causal,
            want_commit_order: false,
            max_cycles: 16,
            threads: 1,
        }
    }
}

/// Counters describing how an [`Engine`] handle has been used — in
/// particular whether its scratch arenas are actually being recycled.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct EngineStats {
    /// Histories checked through this handle (batch entry points count
    /// every history).
    pub histories: u64,
    /// Per-level checks run (a [`check_all_levels`](Engine::check_all_levels)
    /// call counts three).
    pub checks: u64,
    /// Checks on this handle's own arenas whose footprint **grew**
    /// (reallocated) — covering the index, the commit graph, the CC clock
    /// table, and the streaming-ingest builder/history arenas. The first
    /// check always grows from empty; a subsequent check of a same-shape
    /// history must not — the regression guard for the
    /// allocation-recycling path. Every check runs on these arenas, so a
    /// second [`check_source`](Engine::check_source) pass over a
    /// same-shape source grows nothing at any thread count.
    pub arena_growths: u64,
    /// Current heap footprint of the handle's arenas (index + graph +
    /// clock table + ingest), in bytes (capacities, not lengths). The
    /// metrics registry splits it by arena: the gauges
    /// `awdit_engine_arena_bytes{arena="history"|"ingest"|"index"|"graph"|"clocks"}`
    /// sum to the unlabeled `awdit_engine_arena_bytes`. The `index` arena
    /// is the same at every thread count, and after a CC check so is the
    /// total.
    pub arena_bytes: usize,
    /// The resolved worker-thread count this engine runs with. A config
    /// of `0` ("all cores") is resolved against the machine's available
    /// parallelism when the engine is built, so this is always concrete
    /// (≥ 1) — what `/healthz` and capacity dashboards report.
    pub threads: usize,
}

/// A reusable, configured checker handle. See the [module docs](self).
///
/// Besides the per-check scratch arenas, the engine owns a recycled
/// **ingest arena** (a columnar [`HistoryBuilder`] plus the [`History`]
/// it finishes into): the engine itself is a [`HistorySink`], so
/// streaming producers — the format readers in `awdit-formats`, the
/// simulator, any event source — push events straight into it and
/// [`finish_ingest`](Engine::finish_ingest) checks the result without
/// materializing a nested intermediate representation anywhere.
/// [`check_source`](Engine::check_source) drives that loop for a whole
/// [`HistorySource`].
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    /// The per-check scratch arenas, rebuilt in place check after check:
    /// the history index, the commit graph, and the CC happens-before
    /// clock table.
    index: HistoryIndex,
    graph: CommitGraph,
    clocks: ClockTable,
    /// Streaming ingest sink, recycled across histories.
    ingest: HistoryBuilder,
    /// The history arena `ingest` finishes into, recycled likewise.
    ingested: History,
    /// Set when a producer bulk-loaded a resolved history straight into
    /// `ingested` via [`HistorySink::load_resolved`]:
    /// [`seal_ingest`](Self::seal_ingest) must then skip the (empty)
    /// builder.
    direct_loaded: bool,
    /// `ingested`'s heap footprint, cached at seal time — the arena is
    /// temporarily `mem::take`n while a check borrows it, so accounting
    /// must not read `ingested.heap_bytes()` directly.
    ingested_bytes: usize,
    stats: EngineStats,
    /// Observability handle; disabled by default.
    obs: Obs,
    /// The persistent worker pool every parallel stage dispatches on —
    /// created once at build, workers parked between forks. Width 1 owns
    /// no threads at all.
    pool: parallel::Pool,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the default [`EngineConfig`].
    pub fn new() -> Self {
        Engine::with_config(EngineConfig::default())
    }

    /// An engine with an explicit config.
    ///
    /// A `threads` knob of `0` ("use all cores") is resolved here, once,
    /// against [`parallel::available_threads`] — every later fork–join
    /// sees the concrete count, and [`stats`](Self::stats) reports it.
    pub fn with_config(mut cfg: EngineConfig) -> Self {
        cfg.threads = parallel::effective_threads(cfg.threads);
        Engine {
            cfg,
            index: HistoryIndex::empty(),
            graph: CommitGraph::new(0),
            clocks: ClockTable::new(),
            ingest: HistoryBuilder::new(),
            ingested: History::default(),
            direct_loaded: false,
            ingested_bytes: 0,
            stats: EngineStats::default(),
            obs: Obs::disabled(),
            pool: parallel::Pool::new(cfg.threads),
        }
    }

    /// The engine's worker pool (its [`stats`](parallel::Pool::stats)
    /// count wakes, steals and parks).
    pub fn pool(&self) -> &parallel::Pool {
        &self.pool
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Usage counters, including the arena-growth accounting and the
    /// resolved thread count.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            threads: self.cfg.threads,
            ..self.stats
        }
    }

    /// The engine's observability handle ([`Obs::disabled`] unless one
    /// was attached).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attaches an observability handle: phase spans, engine metrics, and
    /// arena-growth events flow into it from every check this engine runs
    /// (the default, [`Obs::disabled`], costs one branch per phase).
    /// Metric counters record only activity from this point on; attach
    /// before the first check if they should reconcile with
    /// [`stats`](Self::stats) exactly.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Checks one history against the configured level, recycling the
    /// handle's scratch arenas.
    pub fn check(&mut self, history: &History) -> Outcome {
        self.check_level(history, self.cfg.level)
    }

    /// [`check`](Self::check) at an explicit isolation level.
    pub fn check_level(&mut self, history: &History, level: IsolationLevel) -> Outcome {
        let [out] = self.check_levels(history, [level]);
        out
    }

    /// Checks one history against all three levels, weakest first,
    /// building the index — and checking Read Consistency with it — once.
    pub fn check_all_levels(&mut self, history: &History) -> [Outcome; 3] {
        self.check_levels(history, IsolationLevel::ALL)
    }

    /// One full check — the index rebuild, which checks Read Consistency
    /// in the same pass, then per-level saturation — on the handle's
    /// recycled arenas: the shared body of every check entry point.
    fn check_levels<const N: usize>(
        &mut self,
        history: &History,
        levels: [IsolationLevel; N],
    ) -> [Outcome; N] {
        let obs = self.obs.clone();
        let _ctx = awdit_obs::set_current(&obs);
        let _check = obs.span("check");
        {
            let _s = obs.span("index_rebuild");
            self.index.rebuild(&self.pool, self.cfg.threads, history);
        }
        let out = levels.map(|level| {
            check_prepared_into(
                &self.pool,
                &self.cfg,
                &self.index,
                level,
                &mut self.graph,
                &mut self.clocks,
            )
        });
        self.account(1, N as u64);
        out
    }

    /// Drains a [`HistorySource`], checking every history it yields in
    /// source order and handing each one to `each` as
    /// `(name, history, outcomes)` — the one batch drive loop.
    ///
    /// `level` picks what to check: `Some(level)` yields one outcome,
    /// `None` all three levels (weakest first) over one shared index and
    /// Read Consistency pass. Each history's events are pushed straight
    /// into the engine's recycled ingest arenas via
    /// [`HistorySource::next_into`] (`.awb` files bulk-load through
    /// [`HistorySink::load_resolved`]) and checked before the next
    /// history is read, so nothing is materialized outside the engine and
    /// peak memory is bounded by the largest single history. The history
    /// passed to `each` is the engine's ingest arena, valid for the call.
    ///
    /// Sources parse on the calling thread; the engine's workers shard
    /// the index build and saturation inside one history at a time, and
    /// outcomes are bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// Fails fast on the first source error (unreadable file, parse
    /// error, generator failure). Histories yielded *before* the error
    /// have already been checked and handed to `each`.
    pub fn check_source<S, F>(
        &mut self,
        source: &mut S,
        level: Option<IsolationLevel>,
        mut each: F,
    ) -> Result<(), SourceError>
    where
        S: HistorySource + ?Sized,
        F: FnMut(String, &History, Vec<Outcome>),
    {
        // Parsers report ingest metrics through the thread-current handle.
        let obs = self.obs.clone();
        let _ctx = awdit_obs::set_current(&obs);
        loop {
            let next = {
                let _s = obs.span("ingest");
                source.next_into(self)
            };
            let name = match next {
                None => return Ok(()),
                Some(Ok(name)) => name,
                Some(Err(e)) => {
                    // The sink may hold a partial history: discard it.
                    self.ingest.reset();
                    self.direct_loaded = false;
                    return Err(e);
                }
            };
            let outcomes = match level {
                Some(level) => self.finish_ingest_level(level).map(|o| vec![o]),
                None => self.finish_ingest_all_levels().map(Vec::from),
            };
            match outcomes {
                Ok(outcomes) => each(name, &self.ingested, outcomes),
                Err(e) => {
                    return Err(SourceError {
                        origin: name,
                        message: e.to_string(),
                    })
                }
            }
        }
    }

    /// Finishes the history streamed in through the engine's
    /// [`HistorySink`] methods and checks it at the configured level,
    /// recycling the ingest *and* check arenas. The finished history
    /// stays available via [`ingested`](Self::ingested) until the next
    /// ingest begins.
    ///
    /// ```
    /// use awdit_core::{Engine, HistorySink};
    ///
    /// # fn main() -> Result<(), awdit_core::BuildError> {
    /// let mut engine = Engine::new();
    /// let s = engine.session();
    /// engine.begin(s);
    /// engine.write(s, 1, 10);
    /// engine.commit(s);
    /// assert!(engine.finish_ingest()?.is_consistent());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] for malformed event sequences; the
    /// ingest arenas are reset either way.
    pub fn finish_ingest(&mut self) -> Result<Outcome, BuildError> {
        self.finish_ingest_level(self.cfg.level)
    }

    /// [`finish_ingest`](Self::finish_ingest) at an explicit isolation
    /// level.
    ///
    /// # Errors
    ///
    /// As [`finish_ingest`](Self::finish_ingest).
    pub fn finish_ingest_level(&mut self, level: IsolationLevel) -> Result<Outcome, BuildError> {
        self.seal_ingest()?;
        let h = std::mem::take(&mut self.ingested);
        let out = self.check_level(&h, level);
        self.ingested = h;
        Ok(out)
    }

    /// [`finish_ingest`](Self::finish_ingest) against all three levels,
    /// building the index once.
    ///
    /// # Errors
    ///
    /// As [`finish_ingest`](Self::finish_ingest).
    pub fn finish_ingest_all_levels(&mut self) -> Result<[Outcome; 3], BuildError> {
        self.seal_ingest()?;
        let h = std::mem::take(&mut self.ingested);
        let out = self.check_all_levels(&h);
        self.ingested = h;
        Ok(out)
    }

    /// Finishes the streamed-in events into the recycled history arena.
    fn seal_ingest(&mut self) -> Result<(), BuildError> {
        let _s = self.obs.span("ingest_seal");
        if std::mem::take(&mut self.direct_loaded) && self.ingest.num_sessions() == 0 {
            // A producer bulk-loaded a resolved history straight into the
            // arena (see `HistorySink::load_resolved`): nothing to build.
            self.ingested_bytes = self.ingested.heap_bytes();
            return Ok(());
        }
        let mut h = std::mem::take(&mut self.ingested);
        let result = self.ingest.finish_into(&mut h);
        self.ingested = h;
        self.ingested_bytes = self.ingested.heap_bytes();
        result
    }

    /// The most recently ingested history (empty until the first
    /// [`finish_ingest`](Self::finish_ingest); valid until the next one).
    pub fn ingested(&self) -> &History {
        &self.ingested
    }

    fn account(&mut self, histories: u64, checks: u64) {
        self.stats.histories += histories;
        self.stats.checks += checks;
        let arenas = [
            ("history", self.ingested_bytes),
            ("ingest", self.ingest.heap_bytes()),
            ("index", self.index.heap_bytes()),
            ("graph", self.graph.heap_bytes()),
            ("clocks", self.clocks.heap_bytes()),
        ];
        let bytes = arenas.iter().map(|&(_, b)| b).sum();
        let grew = bytes > self.stats.arena_bytes;
        if grew {
            self.stats.arena_growths += 1;
            self.obs.instant("arena_growth");
        }
        self.stats.arena_bytes = bytes;
        if let Some(metrics) = self.obs.metrics() {
            metrics
                .counter("awdit_engine_histories_total")
                .add(histories);
            metrics.counter("awdit_engine_checks_total").add(checks);
            if grew {
                metrics.counter("awdit_engine_arena_growths_total").inc();
            }
            metrics.gauge("awdit_engine_arena_bytes").set(bytes as f64);
            for (arena, b) in arenas {
                metrics
                    .gauge(&format!("awdit_engine_arena_bytes{{arena=\"{arena}\"}}"))
                    .set(b as f64);
            }
        }
    }
}

/// The engine is itself a [`HistorySink`]: producers push history events
/// straight into its recycled ingest arenas, then
/// [`finish_ingest`](Engine::finish_ingest) checks the result — the
/// zero-materialization ingest path of
/// [`check_source`](Engine::check_source).
impl HistorySink for Engine {
    fn session(&mut self) -> SessionId {
        self.ingest.session()
    }
    fn num_sessions(&self) -> usize {
        self.ingest.num_sessions()
    }
    fn begin(&mut self, session: SessionId) {
        self.ingest.begin(session);
    }
    fn write(&mut self, session: SessionId, key: u64, value: u64) {
        self.ingest.write(session, key, value);
    }
    fn read(&mut self, session: SessionId, key: u64, value: u64) {
        self.ingest.read(session, key, value);
    }
    fn commit(&mut self, session: SessionId) {
        self.ingest.commit(session);
    }
    fn abort(&mut self, session: SessionId) {
        self.ingest.abort(session);
    }
    fn load_resolved(&mut self) -> Option<&mut History> {
        // Binary loaders deposit a fully resolved history straight into
        // the recycled arena, skipping the builder's event replay and
        // read-resolution pass entirely.
        self.ingest.reset();
        self.direct_loaded = true;
        Some(&mut self.ingested)
    }
}

/// The per-level check over a pre-built index (which holds the Read
/// Consistency violations), saturating into the caller's graph arena —
/// the single code path behind every engine entry point.
fn check_prepared_into(
    pool: &parallel::Pool,
    cfg: &EngineConfig,
    index: &HistoryIndex,
    level: IsolationLevel,
    graph: &mut CommitGraph,
    clocks: &mut ClockTable,
) -> Outcome {
    let obs = awdit_obs::current();
    let mut violations: Vec<Violation> = index
        .read_violations()
        .iter()
        .map(|v| Violation::ReadConsistency(*v))
        .collect();

    let mut stats = CheckStats {
        committed_txns: index.num_committed(),
        ..CheckStats::default()
    };
    let mut commit_order = None;

    match level {
        IsolationLevel::ReadCommitted => {
            {
                let _s = obs.span("saturate_rc");
                saturate_rc_into(pool, index, cfg.threads, graph);
            }
            finish_graph(
                index,
                graph,
                level,
                cfg,
                &mut violations,
                &mut commit_order,
                &mut stats,
            );
        }
        IsolationLevel::ReadAtomic => {
            if index.num_history_sessions() <= 1 {
                // Theorem 1.6: linear-time single-session special case.
                let vs = check_ra_single_session(index);
                let ok = vs.is_empty();
                violations.extend(vs);
                if ok && cfg.want_commit_order {
                    // With one session the commit order is the session order.
                    commit_order = Some(index.txn_ids().to_vec());
                }
            } else {
                let rr = check_repeatable_reads(index);
                if rr.is_empty() {
                    {
                        let _s = obs.span("saturate_ra");
                        saturate_ra_into(pool, index, cfg.threads, graph);
                    }
                    finish_graph(
                        index,
                        graph,
                        level,
                        cfg,
                        &mut violations,
                        &mut commit_order,
                        &mut stats,
                    );
                } else {
                    violations.extend(rr);
                }
            }
        }
        IsolationLevel::Causal => {
            let sat = {
                let _s = obs.span("saturate_cc");
                saturate_cc_into(pool, index, cfg.threads, graph, clocks)
            };
            match sat {
                Ok(()) => finish_graph(
                    index,
                    graph,
                    level,
                    cfg,
                    &mut violations,
                    &mut commit_order,
                    &mut stats,
                ),
                Err(cycles) => {
                    for c in cycles.iter().take(cfg.max_cycles) {
                        violations.push(Violation::CausalityCycle(WitnessCycle::from_cycle(
                            c, index, level,
                        )));
                    }
                }
            }
        }
    }

    Outcome::from_parts(level, violations, commit_order, stats)
}

/// Builds the saturated graph's CSR, extracts witness cycles, and labels
/// their edges.
fn finish_graph(
    index: &HistoryIndex,
    g: &mut CommitGraph,
    level: IsolationLevel,
    cfg: &EngineConfig,
    violations: &mut Vec<Violation>,
    commit_order: &mut Option<Vec<TxnId>>,
    stats: &mut CheckStats,
) {
    let obs = awdit_obs::current();
    {
        // The one build step: emitted pairs into a deduplicated CSR.
        let _s = obs.span("graph_freeze");
        g.freeze();
    }
    stats.emitted_edges = g.num_emitted_edges();
    stats.graph_edges = g.num_edges();
    stats.inferred_edges = g.num_inferred_edges();
    if let Some(metrics) = obs.metrics() {
        metrics
            .counter("awdit_engine_edges_emitted_total")
            .add(stats.emitted_edges as u64);
        metrics
            .counter("awdit_engine_edges_kept_total")
            .add(stats.graph_edges as u64);
    }
    let cycles = {
        let _s = obs.span("cycle_extraction");
        g.find_cycles(cfg.max_cycles)
    };
    if cycles.is_empty() {
        if cfg.want_commit_order {
            let _s = obs.span("commit_order");
            *commit_order = commit_order_from_graph(index, g);
        }
    } else {
        let _s = obs.span("witness_provenance");
        let witnesses = crate::provenance::witness_cycles(&cycles, index, level);
        violations.extend(
            witnesses
                .into_iter()
                .map(|cycle| Violation::CommitOrderCycle { level, cycle }),
        );
    }
}

/// A history paired with a human-meaningful origin (file path, stream
/// name, generator seed), as yielded by a [`HistorySource`].
#[derive(Clone, Debug)]
pub struct SourcedHistory {
    /// Where the history came from — file reports key on this.
    pub name: String,
    /// The history itself.
    pub history: History,
}

/// A failure while producing histories: an unreadable file, a parse
/// error, a generator fault. Carries the origin so batch reports can
/// point at the offending input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceError {
    /// The input that failed (file path, stream name, seed).
    pub origin: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.origin, self.message)
    }
}

impl std::error::Error for SourceError {}

/// Anything that yields named histories for batch checking: files, whole
/// directories, NDJSON event streams (`awdit-formats`), simulator fleets
/// (`awdit-simdb`), or any in-memory iterator (via the blanket impl).
pub trait HistorySource {
    /// The next history, `None` when exhausted, `Err` on a bad input.
    fn next_history(&mut self) -> Option<Result<SourcedHistory, SourceError>>;

    /// Streams the next history's events into `sink` instead of
    /// materializing a [`History`], returning the history's name —
    /// the allocation-free edge of [`Engine::check_source`].
    ///
    /// The default implementation materializes via
    /// [`next_history`](Self::next_history) and replays; streaming
    /// sources (the file readers in `awdit-formats`, the simulator
    /// fleet) override it to push events as they are produced. On `Err`,
    /// the sink may hold a partial event sequence — the caller must
    /// discard it (e.g. [`HistoryBuilder::reset`]).
    ///
    /// [`HistoryBuilder::reset`]: crate::HistoryBuilder::reset
    fn next_into(&mut self, sink: &mut dyn HistorySink) -> Option<Result<String, SourceError>> {
        match self.next_history()? {
            Ok(s) => {
                replay_history(&s.history, sink);
                Some(Ok(s.name))
            }
            Err(e) => Some(Err(e)),
        }
    }
}

/// Every iterator of `Result<SourcedHistory, SourceError>` is a source —
/// the zero-cost adapter for in-memory fleets.
impl<I> HistorySource for I
where
    I: Iterator<Item = Result<SourcedHistory, SourceError>>,
{
    fn next_history(&mut self) -> Option<Result<SourcedHistory, SourceError>> {
        self.next()
    }
}

/// Drains a source into a vector, failing fast on the first error.
///
/// # Errors
///
/// Propagates the first [`SourceError`] the source yields.
pub fn collect_source<S: HistorySource + ?Sized>(
    source: &mut S,
) -> Result<Vec<SourcedHistory>, SourceError> {
    let mut out = Vec::new();
    while let Some(item) = source.next_history() {
        out.push(item?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Verdict;
    use crate::history::HistoryBuilder;

    fn two_session_history(keys: u64) -> History {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        for k in 0..keys {
            b.begin(s0);
            b.write(s0, k, k + 1);
            b.commit(s0);
            b.begin(s1);
            b.read(s1, k, k + 1);
            b.commit(s1);
        }
        b.finish().unwrap()
    }

    #[test]
    fn repeated_checks_recycle_arenas() {
        let h = two_session_history(32);
        let mut e = Engine::new();
        assert!(e.check(&h).is_consistent());
        let after_first = e.stats();
        assert_eq!(after_first.arena_growths, 1);
        assert!(after_first.arena_bytes > 0);
        for _ in 0..4 {
            assert!(e.check(&h).is_consistent());
        }
        let after = e.stats();
        assert_eq!(after.arena_growths, 1, "same-shape checks must not grow");
        assert_eq!(after.arena_bytes, after_first.arena_bytes);
        assert_eq!(after.histories, 5);
        assert_eq!(after.checks, 5);
    }

    #[test]
    fn engine_matches_free_functions() {
        let h = two_session_history(8);
        let mut e = Engine::new();
        for level in IsolationLevel::ALL {
            let a = e.check_level(&h, level);
            let b = crate::checker::check(&h, level);
            assert_eq!(a.verdict(), b.verdict());
            assert_eq!(a.violations(), b.violations());
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn check_all_levels_counts_three_checks() {
        let h = two_session_history(4);
        let mut e = Engine::new();
        let [rc, ra, cc] = e.check_all_levels(&h);
        assert!(rc.is_consistent() && ra.is_consistent() && cc.is_consistent());
        assert_eq!(e.stats().checks, 3);
        assert_eq!(e.stats().histories, 1);
    }

    #[test]
    fn interleaved_ingest_and_direct_checks_share_stable_accounting() {
        // The ingest arena is `mem::take`n while its check runs; the
        // cached-bytes accounting must keep arena_growths flat when the
        // two entry points alternate on same-shape histories.
        let h = two_session_history(16);
        let mut e = Engine::new();
        replay_history(&h, &mut e);
        e.finish_ingest().unwrap();
        e.check(&h);
        let growths = e.stats().arena_growths;
        for _ in 0..3 {
            replay_history(&h, &mut e);
            e.finish_ingest().unwrap();
            e.check(&h);
        }
        assert_eq!(
            e.stats().arena_growths,
            growths,
            "alternating finish_ingest/check on same shapes must not grow"
        );
    }

    #[test]
    fn iterator_sources_check_in_source_order() {
        let hs: Vec<History> = (1..4).map(two_session_history).collect();
        let mut src = hs.iter().enumerate().map(|(i, h)| {
            Ok(SourcedHistory {
                name: format!("h{i}"),
                history: h.clone(),
            })
        });
        let mut e = Engine::new();
        let mut seen = Vec::new();
        e.check_source(&mut src, Some(IsolationLevel::Causal), |name, h, outs| {
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].verdict(), Verdict::Consistent);
            seen.push((name, h.num_txns()));
        })
        .unwrap();
        let expected: Vec<(String, usize)> = hs
            .iter()
            .enumerate()
            .map(|(i, h)| (format!("h{i}"), h.num_txns()))
            .collect();
        assert_eq!(seen, expected);
        // `None` checks all three levels over one index.
        let mut src = hs.iter().map(|h| {
            Ok(SourcedHistory {
                name: String::new(),
                history: h.clone(),
            })
        });
        e.check_source(&mut src, None, |_, _, outs| {
            assert_eq!(outs.len(), 3);
            assert!(outs.iter().all(Outcome::is_consistent));
        })
        .unwrap();
        assert_eq!(e.stats().histories, 6);
        assert_eq!(e.stats().checks, 3 + 9);
    }

    #[test]
    fn source_errors_fail_fast() {
        let mut src = std::iter::once(Err(SourceError {
            origin: "bad.awdit".to_string(),
            message: "nope".to_string(),
        }));
        let mut e = Engine::new();
        let err = e
            .check_source(&mut src, None, |_, _, _| panic!("nothing to check"))
            .unwrap_err();
        assert_eq!(err.origin, "bad.awdit");
        assert_eq!(e.stats().histories, 0);
    }
}
