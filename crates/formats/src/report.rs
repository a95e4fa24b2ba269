//! Machine-readable check reports: a versioned, dependency-free JSON
//! schema plus pluggable [`ReportSink`]s.
//!
//! Production testers are embedded in pipelines — Jepsen consumes Elle's
//! structured anomaly output, CI fleets aggregate verdicts across many
//! histories — so a stable, parseable report format matters as much as
//! the verdict itself. This module defines one:
//!
//! * [`Report`] → [`HistoryReport`] → [`LevelReport`] →
//!   [`ViolationReport`] mirror the engine's outcomes: verdicts,
//!   violations **with per-edge cycle provenance**, check statistics, and
//!   wall-clock timings, for any number of histories and levels.
//! * [`Report::to_json`] / [`Report::from_json`] serialize without any
//!   external dependency and **round-trip exactly** (property-tested
//!   below); [`SCHEMA_VERSION`] is embedded so consumers can detect
//!   incompatible changes.
//! * [`ReportSink`] abstracts the output side: [`JsonSink`] writes the
//!   JSON document, [`TextSink`] renders the human format the `awdit`
//!   CLI prints.
//!
//! The JSON shape (see the README for a worked example):
//!
//! ```text
//! { "schema_version": 2, "tool": "awdit",
//!   "histories": [ { "name", "sessions", "txns", "ops", "keys", "time_ms",
//!     "levels": [ { "level", "verdict", "committed_txns", "graph_edges",
//!       "inferred_edges",
//!       "violations": [ { "kind", "message",
//!         "cycle": [ { "from", "to", "edge", "key"? } ] } ] } ],
//!     "timings"?: [ { "phase", "spans", "total_ms" } ] } ],
//!   "engine"?: { "histories", "checks", "arena_growths", "arena_bytes" } }
//! ```
//!
//! `graph_edges` and `inferred_edges` count **distinct** edges of the
//! saturated commit graph: a pair emitted by several readers counts once,
//! and a pair that is also a `so ∪ wr` edge counts as base, not inferred.
//! (Before the commit graph deduplicated its edges, both fields counted
//! every emission; the field names and types are unchanged, so the schema
//! version is too.)

use std::io::Write;

use awdit_core::stats::HistoryStats;
use awdit_core::{EdgeKind, History, Outcome, Verdict, Violation, WitnessCycle};

/// Version of the JSON report schema emitted by [`Report::to_json`].
/// Bumped on any incompatible change of field names or meanings.
///
/// Version history: **1** — the original shape; **2** — adds the optional
/// per-history `timings` block (phase-level profiling from `awdit-obs`)
/// and the optional top-level `engine` stats block. Both additions are
/// optional fields, so v1 documents still parse
/// ([`MIN_SCHEMA_VERSION`]).
pub const SCHEMA_VERSION: u64 = 2;

/// Oldest schema version [`Report::from_json`] still accepts.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// One edge of a witness cycle, in wire form: transactions are
/// `"s<session>.t<index>"` strings (the same spelling the text output
/// uses), `edge` is the provenance label (`so`, `wr`, `co`, `co*`), and
/// `key` carries the interned key index for keyed edges.
#[derive(Clone, PartialEq, Debug)]
pub struct EdgeReport {
    /// Source transaction, `"s<session>.t<index>"`.
    pub from: String,
    /// Target transaction, `"s<session>.t<index>"`.
    pub to: String,
    /// Provenance label: `so`, `wr`, `co`, or `co*` (condensed).
    pub edge: String,
    /// Interned key index for `wr`/`co` edges, absent for `so`/`co*`.
    pub key: Option<u64>,
}

impl EdgeReport {
    fn from_cycle(cycle: &WitnessCycle) -> Vec<EdgeReport> {
        cycle
            .edges
            .iter()
            .map(|e| {
                let (edge, key) = match e.kind {
                    EdgeKind::SessionOrder => ("so", None),
                    EdgeKind::WriteRead(k) => ("wr", Some(u64::from(k.0))),
                    EdgeKind::Inferred(k) => ("co", Some(u64::from(k.0))),
                    EdgeKind::Condensed => ("co*", None),
                };
                EdgeReport {
                    from: e.from.to_string(),
                    to: e.to.to_string(),
                    edge: edge.to_string(),
                    key,
                }
            })
            .collect()
    }
}

/// One violation: its coarse kind, the human-readable message, and — for
/// cycle-shaped violations — the witness cycle with per-edge provenance.
#[derive(Clone, PartialEq, Debug)]
pub struct ViolationReport {
    /// Coarse classification (kebab-case of
    /// [`ViolationKind`](awdit_core::ViolationKind), e.g.
    /// `commit-order-cycle`).
    pub kind: String,
    /// The full human-readable description.
    pub message: String,
    /// The witness cycle, for causality/commit-order cycle violations.
    pub cycle: Option<Vec<EdgeReport>>,
}

impl ViolationReport {
    /// Builds the wire form of one checker violation.
    pub fn from_violation(v: &Violation) -> Self {
        let kind = v.kind().wire_name();
        let cycle = match v {
            Violation::CausalityCycle(c) => Some(EdgeReport::from_cycle(c)),
            Violation::CommitOrderCycle { cycle, .. } => Some(EdgeReport::from_cycle(cycle)),
            _ => None,
        };
        ViolationReport {
            kind: kind.to_string(),
            message: v.to_string(),
            cycle,
        }
    }
}

/// The result of checking one history against one isolation level.
#[derive(Clone, PartialEq, Debug)]
pub struct LevelReport {
    /// Level short name: `rc`, `ra`, or `cc`.
    pub level: String,
    /// `consistent` or `inconsistent`.
    pub verdict: String,
    /// Committed transactions analyzed.
    pub committed_txns: u64,
    /// Distinct edges of the saturated commit graph.
    pub graph_edges: u64,
    /// Distinct inferred (non-`so ∪ wr`) edges of the saturated commit
    /// graph.
    pub inferred_edges: u64,
    /// All violations found (empty iff consistent).
    pub violations: Vec<ViolationReport>,
}

impl LevelReport {
    /// Builds the wire form of one check outcome.
    pub fn from_outcome(outcome: &Outcome) -> Self {
        LevelReport {
            level: outcome.level().short_name().to_string(),
            verdict: outcome.verdict().to_string(),
            committed_txns: outcome.stats().committed_txns as u64,
            graph_edges: outcome.stats().graph_edges as u64,
            inferred_edges: outcome.stats().inferred_edges as u64,
            violations: outcome
                .violations()
                .iter()
                .map(ViolationReport::from_violation)
                .collect(),
        }
    }

    /// Whether this level's verdict is `consistent`.
    pub fn is_consistent(&self) -> bool {
        self.verdict == Verdict::Consistent.to_string()
    }
}

/// One aggregated engine phase attributed to a history: how many spans
/// of this phase closed while it was checked, and their total duration.
/// Produced from `awdit_obs::PhaseTiming` snapshots (schema v2+).
#[derive(Clone, PartialEq, Debug)]
pub struct PhaseTimingReport {
    /// Phase (span) name, e.g. `saturate_cc`, `index_rebuild`.
    pub phase: String,
    /// Spans of this phase that closed.
    pub spans: u64,
    /// Total wall-clock duration, milliseconds.
    pub total_ms: f64,
}

impl PhaseTimingReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.field_str("phase", &self.phase);
            w.field_u64("spans", self.spans);
            w.field_f64("total_ms", self.total_ms);
        });
    }

    fn parse(v: &json::Value) -> Result<Self, String> {
        Ok(PhaseTimingReport {
            phase: v.get_str("phase")?,
            spans: v.get_u64("spans")?,
            total_ms: v.get_f64("total_ms")?,
        })
    }
}

/// The engine's usage counters in wire form — the report analog of
/// `awdit_core::EngineStats`, including the arena accounting (schema
/// v2+).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineStatsReport {
    /// Histories checked through the engine handle.
    pub histories: u64,
    /// Per-level checks run.
    pub checks: u64,
    /// Checks whose arena footprint grew.
    pub arena_growths: u64,
    /// Current arena heap footprint, bytes.
    pub arena_bytes: u64,
}

impl EngineStatsReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.field_u64("histories", self.histories);
            w.field_u64("checks", self.checks);
            w.field_u64("arena_growths", self.arena_growths);
            w.field_u64("arena_bytes", self.arena_bytes);
        });
    }

    fn parse(v: &json::Value) -> Result<Self, String> {
        Ok(EngineStatsReport {
            histories: v.get_u64("histories")?,
            checks: v.get_u64("checks")?,
            arena_growths: v.get_u64("arena_growths")?,
            arena_bytes: v.get_u64("arena_bytes")?,
        })
    }
}

/// All levels checked for one history, with its shape and timing.
#[derive(Clone, PartialEq, Debug)]
pub struct HistoryReport {
    /// Where the history came from (file path, stream, generator seed).
    pub name: String,
    /// Session count.
    pub sessions: u64,
    /// Transaction count (committed and aborted).
    pub txns: u64,
    /// Operation count.
    pub ops: u64,
    /// Distinct keys.
    pub keys: u64,
    /// Wall-clock check time for this history, milliseconds.
    pub time_ms: f64,
    /// One entry per level checked, in check order (weakest first when
    /// several).
    pub levels: Vec<LevelReport>,
    /// Phase-level profiling for this history (schema v2+). Empty when
    /// the producer ran without an observability recorder; omitted from
    /// the JSON document in that case.
    pub timings: Vec<PhaseTimingReport>,
}

impl HistoryReport {
    /// Builds the wire form for one history's outcomes.
    pub fn new(name: &str, history: &History, outcomes: &[Outcome], time_ms: f64) -> Self {
        let stats = HistoryStats::of(history);
        HistoryReport {
            name: name.to_string(),
            sessions: stats.sessions as u64,
            txns: stats.txns as u64,
            ops: stats.ops as u64,
            keys: stats.keys as u64,
            time_ms,
            levels: outcomes.iter().map(LevelReport::from_outcome).collect(),
            timings: Vec::new(),
        }
    }

    /// Attaches phase-level timings (builder style).
    #[must_use]
    pub fn with_timings(mut self, timings: Vec<PhaseTimingReport>) -> Self {
        self.timings = timings;
        self
    }

    /// Whether every checked level is consistent.
    pub fn is_consistent(&self) -> bool {
        self.levels.iter().all(LevelReport::is_consistent)
    }
}

/// The top-level report document: a batch of history reports plus the
/// schema version.
#[derive(Clone, PartialEq, Debug)]
pub struct Report {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// One entry per checked history, in input order.
    pub histories: Vec<HistoryReport>,
    /// Engine-wide usage counters over the whole batch (schema v2+);
    /// omitted from the JSON document when absent.
    pub engine: Option<EngineStatsReport>,
}

impl Report {
    /// A report over the given histories, stamped with the current
    /// schema version.
    pub fn new(histories: Vec<HistoryReport>) -> Self {
        Report {
            schema_version: SCHEMA_VERSION,
            histories,
            engine: None,
        }
    }

    /// Attaches engine-wide stats (builder style).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineStatsReport) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Whether **any** history failed any checked level — the CLI's
    /// exit-code-1 condition in multi-file mode.
    pub fn any_inconsistent(&self) -> bool {
        self.histories.iter().any(|h| !h.is_consistent())
    }

    /// Serializes to the versioned JSON document (2-space indented).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_u64("schema_version", self.schema_version);
            w.field_str("tool", "awdit");
            w.field("histories", |w| {
                w.arr(self.histories.iter(), |w, h| h.write_json(w));
            });
            if let Some(engine) = &self.engine {
                w.field("engine", |w| engine.write_json(w));
            }
        });
        w.finish()
    }

    /// Parses a document produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a missing field, or an
    /// unsupported `schema_version`.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let value = json::parse(text)?;
        let schema_version = value.get_u64("schema_version")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema_version) {
            return Err(format!(
                "unsupported schema_version {schema_version} \
                 (expected {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        let histories = value
            .get_arr("histories")?
            .iter()
            .map(HistoryReport::parse)
            .collect::<Result<Vec<_>, _>>()?;
        let engine = match value.get_opt("engine") {
            Some(e) => Some(EngineStatsReport::parse(e)?),
            None => None,
        };
        Ok(Report {
            schema_version,
            histories,
            engine,
        })
    }
}

impl HistoryReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.field_str("name", &self.name);
            w.field_u64("sessions", self.sessions);
            w.field_u64("txns", self.txns);
            w.field_u64("ops", self.ops);
            w.field_u64("keys", self.keys);
            w.field_f64("time_ms", self.time_ms);
            w.field("levels", |w| {
                w.arr(self.levels.iter(), |w, l| l.write_json(w));
            });
            if !self.timings.is_empty() {
                w.field("timings", |w| {
                    w.arr(self.timings.iter(), |w, t| t.write_json(w));
                });
            }
        });
    }

    fn parse(v: &json::Value) -> Result<Self, String> {
        let timings = match v.get_opt("timings") {
            Some(t) => t
                .as_arr()?
                .iter()
                .map(PhaseTimingReport::parse)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(HistoryReport {
            name: v.get_str("name")?,
            sessions: v.get_u64("sessions")?,
            txns: v.get_u64("txns")?,
            ops: v.get_u64("ops")?,
            keys: v.get_u64("keys")?,
            time_ms: v.get_f64("time_ms")?,
            levels: v
                .get_arr("levels")?
                .iter()
                .map(LevelReport::parse)
                .collect::<Result<Vec<_>, _>>()?,
            timings,
        })
    }
}

impl LevelReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.field_str("level", &self.level);
            w.field_str("verdict", &self.verdict);
            w.field_u64("committed_txns", self.committed_txns);
            w.field_u64("graph_edges", self.graph_edges);
            w.field_u64("inferred_edges", self.inferred_edges);
            w.field("violations", |w| {
                w.arr(self.violations.iter(), |w, v| v.write_json(w));
            });
        });
    }

    fn parse(v: &json::Value) -> Result<Self, String> {
        Ok(LevelReport {
            level: v.get_str("level")?,
            verdict: v.get_str("verdict")?,
            committed_txns: v.get_u64("committed_txns")?,
            graph_edges: v.get_u64("graph_edges")?,
            inferred_edges: v.get_u64("inferred_edges")?,
            violations: v
                .get_arr("violations")?
                .iter()
                .map(ViolationReport::parse)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

impl ViolationReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.field_str("kind", &self.kind);
            w.field_str("message", &self.message);
            if let Some(cycle) = &self.cycle {
                w.field("cycle", |w| {
                    w.arr(cycle.iter(), |w, e| e.write_json(w));
                });
            }
        });
    }

    fn parse(v: &json::Value) -> Result<Self, String> {
        let cycle = match v.get_opt("cycle") {
            Some(c) => Some(
                c.as_arr()?
                    .iter()
                    .map(EdgeReport::parse)
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            None => None,
        };
        Ok(ViolationReport {
            kind: v.get_str("kind")?,
            message: v.get_str("message")?,
            cycle,
        })
    }
}

impl EdgeReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.field_str("from", &self.from);
            w.field_str("to", &self.to);
            w.field_str("edge", &self.edge);
            if let Some(k) = self.key {
                w.field_u64("key", k);
            }
        });
    }

    fn parse(v: &json::Value) -> Result<Self, String> {
        let key = match v.get_opt("key") {
            Some(k) => Some(k.as_u64()?),
            None => None,
        };
        Ok(EdgeReport {
            from: v.get_str("from")?,
            to: v.get_str("to")?,
            edge: v.get_str("edge")?,
            key,
        })
    }
}

/// Where finished reports go: a trait so embedders can fan reports out to
/// files, sockets, or aggregation services; [`JsonSink`] and [`TextSink`]
/// cover the CLI's two modes.
pub trait ReportSink {
    /// Emits one finished report.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the underlying writer.
    fn emit(&mut self, report: &Report) -> std::io::Result<()>;
}

/// Writes the versioned JSON document to the underlying writer.
#[derive(Debug)]
pub struct JsonSink<W: Write>(pub W);

impl<W: Write> ReportSink for JsonSink<W> {
    fn emit(&mut self, report: &Report) -> std::io::Result<()> {
        self.0.write_all(report.to_json().as_bytes())?;
        self.0.write_all(b"\n")
    }
}

/// Renders the human-readable format the `awdit` CLI prints: one block
/// per history with shape, timing, per-level verdicts, and violations.
#[derive(Debug)]
pub struct TextSink<W: Write>(pub W);

impl<W: Write> ReportSink for TextSink<W> {
    fn emit(&mut self, report: &Report) -> std::io::Result<()> {
        let w = &mut self.0;
        for h in &report.histories {
            writeln!(
                w,
                "history:  {} ({} sessions, {} txns, {} ops, {} keys)",
                h.name, h.sessions, h.txns, h.ops, h.keys
            )?;
            if h.levels.len() > 1 {
                let names: Vec<&str> = h.levels.iter().map(|l| l.level.as_str()).collect();
                writeln!(w, "levels:   {} (shared index)", names.join(", "))?;
            }
            writeln!(w, "time:     {:.3} ms", h.time_ms)?;
            for t in &h.timings {
                writeln!(
                    w,
                    "phase:    {:<18} {:>8.3} ms  ({} spans)",
                    t.phase, t.total_ms, t.spans
                )?;
            }
            for l in &h.levels {
                if h.levels.len() > 1 {
                    writeln!(w, "verdict:  {} [{}]", l.verdict, l.level)?;
                } else {
                    writeln!(w, "verdict:  {}", l.verdict)?;
                }
                if !l.violations.is_empty() {
                    writeln!(w, "violations ({} shown):", l.violations.len())?;
                    for v in &l.violations {
                        writeln!(w, "  - {}", v.message)?;
                    }
                }
            }
        }
        if let Some(e) = &report.engine {
            writeln!(
                w,
                "engine:   {} histories, {} checks, {} arena growths, {} arena bytes",
                e.histories, e.checks, e.arena_growths, e.arena_bytes
            )?;
        }
        Ok(())
    }
}

/// Serializes a [`HistoryStats`] to a small standalone JSON object (the
/// `awdit stats --report json` payload): every field of the stats
/// struct under its own name, plus an optional `arena_bytes` entry for
/// the columnar heap footprint of the loaded history.
pub fn history_stats_json(stats: &HistoryStats, arena_bytes: Option<u64>) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_u64("sessions", stats.sessions as u64);
        w.field_u64("txns", stats.txns as u64);
        w.field_u64("committed", stats.committed as u64);
        w.field_u64("aborted", stats.aborted as u64);
        w.field_u64("ops", stats.ops as u64);
        w.field_u64("reads", stats.reads as u64);
        w.field_u64("writes", stats.writes as u64);
        w.field_u64("keys", stats.keys as u64);
        w.field_u64("max_txn_size", stats.max_txn_size as u64);
        w.field_u64("internal_reads", stats.internal_reads as u64);
        w.field_u64("thin_air_reads", stats.thin_air_reads as u64);
        if let Some(bytes) = arena_bytes {
            w.field_u64("arena_bytes", bytes);
        }
    });
    w.finish()
}

/// A tiny JSON writer: 2-space indentation, correct string escaping, no
/// dependencies.
struct JsonWriter {
    out: String,
    indent: usize,
    /// Whether the current container already has an entry (comma control).
    has_entry: Vec<bool>,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            out: String::new(),
            indent: 0,
            has_entry: Vec::new(),
        }
    }

    fn finish(self) -> String {
        self.out
    }

    fn newline_entry(&mut self) {
        if let Some(has) = self.has_entry.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.out.push('{');
        self.indent += 1;
        self.has_entry.push(false);
        body(self);
        let empty = !self.has_entry.pop().unwrap_or(false);
        self.indent -= 1;
        if !empty {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
        self.out.push('}');
    }

    fn arr<T>(&mut self, items: impl Iterator<Item = T>, mut each: impl FnMut(&mut Self, T)) {
        self.out.push('[');
        self.indent += 1;
        self.has_entry.push(false);
        for item in items {
            self.newline_entry();
            each(self, item);
        }
        let empty = !self.has_entry.pop().unwrap_or(false);
        self.indent -= 1;
        if !empty {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
        self.out.push(']');
    }

    fn field(&mut self, name: &str, value: impl FnOnce(&mut Self)) {
        self.newline_entry();
        self.push_string(name);
        self.out.push_str(": ");
        value(self);
    }

    fn field_str(&mut self, name: &str, v: &str) {
        self.field(name, |w| w.push_string(v));
    }

    fn field_u64(&mut self, name: &str, v: u64) {
        self.field(name, |w| w.out.push_str(&v.to_string()));
    }

    fn field_f64(&mut self, name: &str, v: f64) {
        // Rust's shortest-round-trip float formatting: parses back to the
        // identical f64, which is what keeps `from_json ∘ to_json == id`.
        self.field(name, |w| {
            if v.is_finite() {
                w.out.push_str(&format!("{v:?}"))
            } else {
                w.out.push_str("0.0")
            }
        });
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A minimal recursive-descent JSON parser — just enough to read back
/// what [`JsonWriter`] produces (and any equivalent document).
mod json {
    /// A parsed JSON value. Numbers keep their source spelling so integer
    /// precision is never routed through `f64`.
    #[derive(Clone, PartialEq, Debug)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true`/`false`.
        Bool(bool),
        /// A number, by source text.
        Num(String),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, fields in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get_opt(&self, name: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
                _ => None,
            }
        }

        fn get(&self, name: &str) -> Result<&Value, String> {
            self.get_opt(name)
                .ok_or_else(|| format!("missing field `{name}`"))
        }

        pub fn get_str(&self, name: &str) -> Result<String, String> {
            match self.get(name)? {
                Value::Str(s) => Ok(s.clone()),
                other => Err(format!("field `{name}`: expected string, got {other:?}")),
            }
        }

        pub fn as_u64(&self) -> Result<u64, String> {
            match self {
                Value::Num(n) => n.parse().map_err(|_| format!("bad integer `{n}`")),
                other => Err(format!("expected number, got {other:?}")),
            }
        }

        pub fn as_f64(&self) -> Result<f64, String> {
            match self {
                Value::Num(n) => n.parse().map_err(|_| format!("bad number `{n}`")),
                other => Err(format!("expected number, got {other:?}")),
            }
        }

        pub fn get_u64(&self, name: &str) -> Result<u64, String> {
            self.get(name)?
                .as_u64()
                .map_err(|e| format!("field `{name}`: {e}"))
        }

        pub fn get_f64(&self, name: &str) -> Result<f64, String> {
            self.get(name)?
                .as_f64()
                .map_err(|e| format!("field `{name}`: {e}"))
        }

        pub fn as_arr(&self) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                other => Err(format!("expected array, got {other:?}")),
            }
        }

        pub fn get_arr(&self, name: &str) -> Result<&[Value], String> {
            self.get(name)?
                .as_arr()
                .map_err(|e| format!("field `{name}`: {e}"))
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < bytes.len() && bytes[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", c as char))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_obj(bytes, pos),
            Some(b'[') => parse_arr(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
            Some(_) => parse_num(bytes, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        if *pos == start {
            return Err(format!("expected value at byte {start}"));
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
        // Validate now so `Num` always holds a parseable spelling.
        text.parse::<f64>()
            .map_err(|_| format!("bad number `{text}`"))?;
        Ok(Value::Num(text.to_string()))
    }

    fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
        let hex = bytes
            .get(*pos..*pos + 4)
            .ok_or("truncated \\u escape".to_string())?;
        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        *pos += 4;
        Ok(code)
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(*pos) else {
                return Err("unterminated string".to_string());
            };
            *pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = bytes.get(*pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = parse_hex4(bytes, pos)?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // High surrogate: a standard ASCII-safe JSON
                                // writer encodes non-BMP chars as a pair.
                                if bytes.get(*pos..*pos + 2) != Some(b"\\u") {
                                    return Err("unpaired high surrogate".to_string());
                                }
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u escape U+{code:04X}"))?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = *pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = bytes
                        .get(start..end)
                        .ok_or("truncated UTF-8 sequence".to_string())?;
                    let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    *pos = end;
                }
            }
        }
    }

    fn utf8_len(b: u8) -> usize {
        match b {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }

    fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let name = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            fields.push((name, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
            }
        }
    }

    fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_core::{check, check_all_levels, HistoryBuilder, IsolationLevel};

    fn violating_history() -> History {
        // Fig. 4b shape: RC-consistent, RA/CC-inconsistent.
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s1);
        b.write(s1, 0, 2);
        b.write(s1, 1, 2);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 1);
        b.read(s2, 1, 2);
        b.commit(s2);
        b.finish().unwrap()
    }

    fn sample_report() -> Report {
        let h = violating_history();
        let outcomes = check_all_levels(&h);
        Report::new(vec![HistoryReport::new(
            "histories/fig4b.awdit",
            &h,
            &outcomes,
            1.25,
        )])
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample_report();
        let json = report.to_json();
        let back = Report::from_json(&json).expect("parses");
        assert_eq!(report, back);
        // And a second generation is byte-stable.
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn report_carries_cycles_and_stats() {
        let report = sample_report();
        assert!(report.any_inconsistent());
        let h = &report.histories[0];
        assert_eq!(h.levels.len(), 3);
        assert_eq!(h.levels[0].level, "rc");
        assert!(h.levels[0].is_consistent());
        let ra = &h.levels[1];
        assert_eq!(ra.verdict, "inconsistent");
        assert!(ra.graph_edges > 0);
        let cyclic: Vec<_> = ra.violations.iter().filter(|v| v.cycle.is_some()).collect();
        assert!(!cyclic.is_empty(), "RA violation must carry a cycle");
        let cycle = cyclic[0].cycle.as_ref().unwrap();
        assert!(cycle.len() >= 2);
        assert!(cycle.iter().any(|e| e.edge == "co"));
        assert!(cycle[0].from.starts_with('s'));
    }

    #[test]
    fn consistent_single_level_report() {
        let h = violating_history();
        let out = check(&h, IsolationLevel::ReadCommitted);
        let report = Report::new(vec![HistoryReport::new("one.awdit", &h, &[out], 0.5)]);
        assert!(!report.any_inconsistent());
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut report = sample_report();
        report.histories[0].name = "weird \"name\"\n\twith\\stuff\u{1}and 🦀".to_string();
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn foreign_ascii_escaped_documents_parse() {
        // A standard ASCII-safe JSON writer (Python's json.dumps default,
        // serde_json with escape_ascii) encodes non-BMP characters as
        // surrogate pairs: the parser must combine them, not corrupt them.
        let mut report = sample_report();
        report.histories[0].name = "crab \u{1f980}".to_string();
        let json = report.to_json().replace('\u{1f980}', "\\ud83e\\udd80");
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back, report);
        // Lone or malformed surrogates are rejected, not silently replaced.
        let lone = report.to_json().replace('\u{1f980}', "\\ud83e");
        assert!(Report::from_json(&lone).is_err());
        let bad_low = report.to_json().replace('\u{1f980}', "\\ud83e\\u0041");
        assert!(Report::from_json(&bad_low).is_err());
    }

    #[test]
    fn schema_version_is_enforced() {
        let json = sample_report()
            .to_json()
            .replace("\"schema_version\": 2", "\"schema_version\": 999");
        assert!(Report::from_json(&json).unwrap_err().contains("schema"));
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{}").is_err());
    }

    #[test]
    fn v1_documents_still_parse() {
        // A v1 producer writes no `timings`/`engine` blocks; the v2
        // parser must accept the document and default them.
        let json = sample_report()
            .to_json()
            .replace("\"schema_version\": 2", "\"schema_version\": 1");
        let back = Report::from_json(&json).expect("v1 parses");
        assert_eq!(back.schema_version, 1);
        assert!(back.engine.is_none());
        assert!(back.histories.iter().all(|h| h.timings.is_empty()));
        // Version 0 is below the supported floor.
        let too_old = json.replace("\"schema_version\": 1", "\"schema_version\": 0");
        assert!(Report::from_json(&too_old).unwrap_err().contains("schema"));
    }

    #[test]
    fn timings_and_engine_blocks_round_trip() {
        let mut report = sample_report().with_engine(EngineStatsReport {
            histories: 1,
            checks: 3,
            arena_growths: 1,
            arena_bytes: 4096,
        });
        report.histories[0].timings = vec![
            PhaseTimingReport {
                phase: "index_rebuild".to_string(),
                spans: 1,
                total_ms: 0.25,
            },
            PhaseTimingReport {
                phase: "saturate_cc".to_string(),
                spans: 2,
                total_ms: 1.5,
            },
        ];
        let json = report.to_json();
        assert!(json.contains("\"timings\""), "{json}");
        assert!(json.contains("\"engine\""), "{json}");
        let back = Report::from_json(&json).expect("parses");
        assert_eq!(report, back);
        assert_eq!(json, back.to_json());

        let mut text_out = Vec::new();
        TextSink(&mut text_out).emit(&report).unwrap();
        let text = String::from_utf8(text_out).unwrap();
        assert!(text.contains("phase:    saturate_cc"), "{text}");
        assert!(text.contains("engine:   1 histories, 3 checks"), "{text}");
    }

    #[test]
    fn history_stats_serialize_standalone() {
        let stats = HistoryStats::of(&violating_history());
        let json = history_stats_json(&stats, Some(2048));
        let value = json::parse(&json).expect("valid json");
        assert_eq!(value.get_u64("arena_bytes").unwrap(), 2048);
        assert!(!history_stats_json(&stats, None).contains("arena_bytes"));
        assert_eq!(value.get_u64("sessions").unwrap(), stats.sessions as u64);
        assert_eq!(value.get_u64("txns").unwrap(), stats.txns as u64);
        assert_eq!(value.get_u64("ops").unwrap(), stats.ops as u64);
        assert_eq!(value.get_u64("writes").unwrap(), stats.writes as u64);
        assert_eq!(
            value.get_u64("max_txn_size").unwrap(),
            stats.max_txn_size as u64
        );
    }

    #[test]
    fn sinks_render_both_modes() {
        let report = sample_report();
        let mut json_out = Vec::new();
        JsonSink(&mut json_out).emit(&report).unwrap();
        assert!(String::from_utf8(json_out)
            .unwrap()
            .contains("\"schema_version\": 2"));

        let mut text_out = Vec::new();
        TextSink(&mut text_out).emit(&report).unwrap();
        let text = String::from_utf8(text_out).unwrap();
        assert!(text.contains("verdict:  consistent [rc]"), "{text}");
        assert!(text.contains("verdict:  inconsistent [ra]"), "{text}");
        assert!(text.contains("violations"), "{text}");
        assert!(text.contains("shared index"), "{text}");
    }
}
