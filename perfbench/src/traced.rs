//! The traced run: each workload replayed in-process through the public
//! function of every layer it exercises — `awdit-formats` loaders and
//! parsers, `awdit-core`'s stages, `awdit-stream`'s online checker, and
//! the serve intake path without HTTP. Spans are recorded only here,
//! around those calls, kept in memory and written out at the end; each
//! layer's self time is derived from them.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::time::{Duration, Instant};

use awdit_core::{
    check_read_consistency, check_repeatable_reads, saturate_cc, saturate_ra, saturate_rc,
    CcStrategy, CommitGraph, Engine, EngineConfig, History, HistoryBuilder, HistoryIndex,
    HistorySink, IsolationLevel, SessionId,
};
use awdit_formats::{history_of_events, parse_event, read_awb_path_into, read_native};
use awdit_stream::{OnlineChecker, StreamConfig, StreamStats};

use crate::gen::{Expect, ExpectedHistory, Inputs, Workload, PLANTED_PER_STREAM};

/// One recorded span. Times are offsets from the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub thread: usize,
}

/// Records the spans of one thread; a disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    on: bool,
    thread: usize,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

/// The root span of every replay; its self time is the benchmark's own
/// glue, not any layer's.
pub const ROOT: &str = "replay";

impl Tracer {
    pub fn new(origin: Instant, on: bool, thread: usize) -> Tracer {
        Tracer {
            origin,
            on,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            thread: self.thread,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if let Some(i) = self.stack.pop() {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }
}

/// Self time per span name, and the summed duration of the root spans.
pub fn self_times(tracers: &[Tracer]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut roots = 0.0;
    for t in tracers {
        // Spans of one tracer nest without overlap, so the part of a
        // span its children cover is the sum of their durations.
        let mut covered = vec![0.0f64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                covered[p] += (s.end - s.start).as_secs_f64();
            }
        }
        for (s, c) in t.spans.iter().zip(covered) {
            let dur = (s.end - s.start).as_secs_f64();
            *by_name.entry(s.name).or_default() += dur - c;
            if s.parent.is_none() {
                roots += dur;
            }
        }
    }
    (by_name, roots)
}

/// Counters read at the layer boundaries during one replay.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub text_bytes: u64,
    pub graph_edges: u64,
    pub inferred_edges: u64,
    /// Committed transactions summed over every saturated graph.
    pub graph_txns: u64,
    pub arena_bytes: u64,
    pub pool_wakes: u64,
    pub pool_steals: u64,
    pub pool_parks: u64,
    pub stream: Vec<StreamStats>,
}

/// Replays a check workload: load, then every stage of every level the
/// CLI checks, then one whole `Engine` check at the CLI's thread count.
pub fn replay_check(
    workload: Workload,
    inputs: &Inputs,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<(), String> {
    let Expect::Check { levels, histories } = &inputs.expect else {
        return Err("not a check workload".into());
    };
    let threads = if workload == Workload::CcLargeAwb {
        2
    } else {
        1
    };
    t.enter(ROOT);
    for (path, want) in inputs.files.iter().zip(histories) {
        let history = if workload == Workload::CcLargeAwb {
            let mut sink = ArenaOnly(History::default());
            t.time("formats.awb_load", || read_awb_path_into(path, &mut sink))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            sink.0
        } else {
            let mut builder = HistoryBuilder::new();
            t.time("formats.text_parse", || {
                let file = File::open(path)?;
                c.text_bytes += file.metadata()?.len();
                read_native(BufReader::with_capacity(1 << 16, file), &mut builder)
                    .map_err(|e| std::io::Error::other(e.to_string()))
            })
            .map_err(|e| format!("{}: {e}", path.display()))?;
            t.time("core.seal", || builder.finish())
                .map_err(|e| format!("{}: {e}", path.display()))?
        };
        check_stages(&history, levels, want, t, c)?;

        let mut engine = Engine::with_config(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        let verdicts: Vec<bool> = t.time("core.engine_check", || {
            if levels.len() == 1 {
                vec![engine
                    .check_level(&history, IsolationLevel::Causal)
                    .is_consistent()]
            } else {
                engine
                    .check_all_levels(&history)
                    .iter()
                    .map(|o| o.is_consistent())
                    .collect()
            }
        });
        if verdicts.iter().any(|&v| v != want.consistent) {
            return Err(format!("{}: engine verdicts {verdicts:?}", want.file));
        }
        c.arena_bytes = c.arena_bytes.max(engine.stats().arena_bytes as u64);
        let pool = engine.pool().stats();
        c.pool_wakes += pool.wakes;
        c.pool_steals += pool.steals;
        c.pool_parks += pool.parks;
    }
    t.exit();
    Ok(())
}

/// Read Consistency, the index, and each level's saturation, freeze and
/// cycle search — the plainest public form of each stage.
fn check_stages(
    h: &History,
    levels: &[&str],
    want: &ExpectedHistory,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<(), String> {
    let read_consistency = t.time("core.read_consistency", || check_read_consistency(h));
    let index = t.time("core.index", || HistoryIndex::new(h));
    for &level in levels {
        let acyclic = match level {
            "rc" => {
                let g = t.time("core.saturate_rc", || saturate_rc(&index));
                finish_graph(g, &index, t, c)
            }
            "ra" => {
                let rr = t.time("core.repeatable_reads", || check_repeatable_reads(&index));
                if rr.is_empty() {
                    let g = t.time("core.saturate_ra", || saturate_ra(&index));
                    finish_graph(g, &index, t, c)
                } else {
                    false
                }
            }
            _ => match t.time("core.saturate_cc", || {
                saturate_cc(&index, CcStrategy::default())
            }) {
                Ok(g) => finish_graph(g, &index, t, c),
                Err(_) => false,
            },
        };
        let consistent = acyclic && read_consistency.is_empty();
        if consistent != want.consistent {
            return Err(format!(
                "{} at {level}: consistent = {consistent}, expected {}",
                want.file, want.consistent
            ));
        }
    }
    Ok(())
}

fn finish_graph(mut g: CommitGraph, index: &HistoryIndex, t: &mut Tracer, c: &mut Counts) -> bool {
    t.time("core.graph_freeze", || g.freeze());
    c.graph_edges += g.num_edges() as u64;
    c.inferred_edges += g.num_inferred_edges() as u64;
    c.graph_txns += index.num_committed() as u64;
    t.time("core.find_cycles", || g.find_cycles(16)).is_empty()
}

/// A sink that takes the `.awb` loader's resolved columns directly, the
/// bulk-load path `awdit check` takes (no event replay, no seal).
struct ArenaOnly(History);

impl HistorySink for ArenaOnly {
    fn session(&mut self) -> SessionId {
        unreachable!("bulk loads never replay events")
    }
    fn num_sessions(&self) -> usize {
        0
    }
    fn begin(&mut self, _: SessionId) {}
    fn write(&mut self, _: SessionId, _: u64, _: u64) {}
    fn read(&mut self, _: SessionId, _: u64, _: u64) {}
    fn commit(&mut self, _: SessionId) {}
    fn abort(&mut self, _: SessionId) {}
    fn load_resolved(&mut self) -> Option<&mut History> {
        Some(&mut self.0)
    }
}

/// The online checker configured as `awdit watch --isolation cc` and
/// `awdit serve --isolation cc` configure it.
pub fn stream_config(prune: bool) -> StreamConfig {
    StreamConfig {
        level: IsolationLevel::Causal,
        prune,
        prune_interval: 256,
        max_cycle_reports: 64,
        threads: 1,
    }
}

/// Replays one stream, body by body: parse every line of a body, then
/// apply its events, then finish; the stream must show exactly the
/// planted violations.
pub fn replay_stream(bodies: &[Vec<u8>], t: &mut Tracer, c: &mut Counts) -> Result<(), String> {
    t.enter(ROOT);
    let mut checker = OnlineChecker::with_config(stream_config(true));
    let mut batch = Vec::with_capacity(crate::e2e::EVENTS_PER_BODY);
    let mut line_no = 0usize;
    for body in bodies {
        batch.clear();
        t.time("formats.ndjson_parse", || -> Result<(), String> {
            let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            for line in text.lines() {
                line_no += 1;
                batch.push(parse_event(line, line_no).map_err(|e| e.to_string())?);
            }
            Ok(())
        })?;
        t.time("stream.apply", || -> Result<(), String> {
            for e in &batch {
                checker.apply(e).map_err(|e| e.to_string())?;
            }
            checker.drain_violations();
            Ok(())
        })?;
    }
    let before = *checker.stats();
    let outcome = t
        .time("stream.finish", || checker.finish())
        .map_err(|e| e.to_string())?;
    t.exit();
    let stats = outcome.stats();
    if stats.violations != PLANTED_PER_STREAM || stats.horizon_misses != 0 {
        return Err(format!(
            "stream replay: {} violations, {} beyond the horizon; {PLANTED_PER_STREAM} planted",
            stats.violations, stats.horizon_misses
        ));
    }
    c.stream.push(StreamStats {
        live_edges: before.live_edges,
        ..stats
    });
    Ok(())
}

/// The batch-vs-stream agreement check: the online checker without
/// pruning must reach the same verdict, with the same violation count,
/// as `Engine::check_level` on the history the stream describes — and
/// both must find exactly the planted violations.
pub fn batch_stream_agreement(inputs: &Inputs) -> Result<(), String> {
    let Expect::Streams { violations_each } = inputs.expect else {
        return Err("not a stream workload".into());
    };
    let text = std::fs::read_to_string(&inputs.files[0]).map_err(|e| e.to_string())?;
    let events = awdit_formats::parse_events(&text).map_err(|e| e.to_string())?;
    let mut checker = OnlineChecker::with_config(stream_config(false));
    for e in &events {
        checker.apply(e).map_err(|e| e.to_string())?;
    }
    let stream = checker
        .finish()
        .map_err(|e| e.to_string())?
        .stats()
        .violations;
    let history = history_of_events(&events)?;
    let batch = Engine::new().check_level(&history, IsolationLevel::Causal);
    let batch_count = batch.violations().len() as u64;
    if stream != violations_each || batch_count != violations_each {
        return Err(format!(
            "unpruned stream found {stream} violations, batch check {batch_count}; \
             {violations_each} planted"
        ));
    }
    Ok(())
}
