//! `awdit` — command-line interface to the AWDIT isolation tester
//! reproduction.
//!
//! ```text
//! awdit check [--isolation rc|ra|cc|all] [--threads N]
//!             [--format auto|native|plume|dbcop|cobra] [--report text|json]
//!             [--trace FILE] [--metrics FILE|-]
//!             [--output FILE] FILE... | DIR
//! awdit watch [--isolation rc|ra|cc] [--interval N] [--witnesses N]
//!             [--no-prune] [--follow] [--trace FILE] [--metrics FILE|-]
//!             [--stats-interval SECS] FILE|-
//! awdit serve [--addr HOST:PORT] [--threads N] [--isolation rc|ra|cc]
//!             [--no-prune] [--interval N] [--staging-budget N]
//! awdit stats [--report text|json] FILE
//! awdit convert [--to FORMAT] IN [OUT]
//! awdit generate --benchmark tpcc|ctwitter|rubis|uniform --db ser|causal|ra|rc
//!                --sessions K --txns N --seed S [-o OUT] [--format FORMAT]
//! ```
//!
//! Every `check`/`watch`/`shrink` invocation runs through one
//! [`Engine`]: the CLI is a thin shell around the embedding API.
//!
//! # Exit codes
//!
//! * `0` — every checked history satisfies its level(s);
//! * `1` — at least one history is inconsistent (any file of a
//!   multi-file batch, any level of `--isolation all`);
//! * `2` — usage or input error (unknown flags, unreadable files, parse
//!   failures).

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use awdit_core::{
    Engine, EngineConfig, History, HistoryBuilder, HistorySource, HistoryStats, IsolationLevel,
};
use awdit_formats::{
    detect_bytes, detect_path, history_stats_json, looks_binary, read_auto, read_history,
    write_history_events_to, write_history_to, Detected, DirSource, EngineStatsReport, FilesSource,
    Format, HistoryReport, JsonSink, PhaseTimingReport, Report, ReportSink, TextSink,
};
use awdit_obs::chrome::ChromeTraceRecorder;
use awdit_obs::{phase_delta, Obs, PhaseTiming};
use awdit_serve::{install_signal_handlers, HttpLimits, ServeConfig, Server};
use awdit_simdb::{collect_history, DbIsolation, SimConfig};
use awdit_stream::{OnlineChecker, ShutdownToken, StreamConfig};
use awdit_workloads::{Benchmark, Uniform};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("awdit: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(ExitCode::from(2));
    };
    match cmd.as_str() {
        "check" => cmd_check(&args[1..]),
        "watch" => cmd_watch(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "shrink" => cmd_shrink(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "convert" => cmd_convert(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}` (try `awdit help`)")),
    }
}

fn print_usage() {
    eprintln!(
        "AWDIT — a weak database isolation tester (reproduction)

USAGE:
    awdit check [--isolation rc|ra|cc|all] [--threads N] [--format FMT]
                [--witnesses N] [--report text|json]
                [--stable-report] [--trace FILE] [--metrics FILE|-]
                [--output FILE] FILE... | DIR
    awdit watch [--isolation rc|ra|cc] [--interval N] [--witnesses N]
                [--no-prune] [--trace FILE] [--metrics FILE|-]
                [--stats-interval SECS] [--follow] FILE|-
                (NDJSON event stream, one event per line of at most 64 KiB)
    awdit serve [--addr HOST:PORT] [--threads N] [--check-threads N]
                [--isolation rc|ra|cc] [--no-prune] [--interval N]
                [--staging-budget N] [--warm-pool N] [--max-body BYTES]
                [--timeout SECS] [--trace FILE] [--metrics FILE|-]
    awdit shrink [--isolation rc|ra|cc] [--format FMT] [-o OUT] FILE
    awdit stats [--report text|json] FILE
    awdit convert [--format FMT] [--to FMT] IN [OUT]
    awdit generate --benchmark NAME --db MODE --sessions K --txns N
                   [--seed S] [--format FMT] [-o OUT]

FORMATS: native (default), plume, dbcop, cobra, auto (check/stats only);
         check and convert also auto-detect NDJSON event logs and the
         binary columnar .awb form (magic-sniffed, mmap-loaded)
BENCHMARKS: tpcc, ctwitter, rubis, uniform
DB MODES: ser, causal, ra, rc
THREADS: `check` worker threads within one history (1 = sequential,
         0 = auto: all available cores, resolved once when the engine
         starts and reported in stats//healthz); the verdict and
         witnesses are identical for every value;
         `check` streams each file straight into the engine's recycled
         ingest arenas and checks it before reading the next, at every
         thread count (peak memory is one history's); text files
         parse line by line on one thread; above 1 thread saturation
         runs sharded, while files are still checked one after another;
         `watch` and serve's tenants check each stream on one thread
CHECK: accepts several FILEs and/or a DIR (every file inside, sorted);
         --report json emits the versioned machine-readable report
         (schema v2: per-phase timings + engine stats when traced),
         --output writes the report to a file; --stable-report zeroes
         timings and omits engine stats so identical inputs give
         byte-identical JSON
OBSERVABILITY: --trace FILE writes a Chrome trace_event JSON of every
         engine phase (open in chrome://tracing or Perfetto); --metrics
         writes a Prometheus text snapshot to FILE (`-` = stdout);
         `watch --stats-interval SECS` prints a [stats] heartbeat on
         stderr while following a stream
SERVE: a multi-tenant daemon over the online checker — stream NDJSON
         into named sessions (POST /v1/sessions/ID/events), upload whole
         histories for a batch verdict (POST /v1/check), poll violations
         (GET /v1/sessions/ID/violations), scrape GET /metrics and
         /healthz; --threads sets the accept/worker threads and
         --check-threads the batch-check engine behind POST /v1/check
         (both 0 = all cores); --warm-pool caps the finished checkers
         parked for tenant reuse (default 32, surfaced in /healthz);
         port 0 picks an ephemeral port (printed on stdout);
         SIGINT/SIGTERM drains every open session and prints its final
         summary; exits 1 if any drained session was inconsistent
CONVERT: streams IN (any supported format, auto-detected) to OUT via the
         incremental reader/writer pairs; the output format comes from
         --to (native|plume|dbcop|cobra|events|awb) or OUT's extension
         (.awdit/.plume/.dbcop/.cobra/.ndjson/.awb); `-o OUT` also
         works, and omitting OUT writes to stdout (--to required)
GENERATE: writes --format (any of convert's --to values), else the
         format OUT's extension names as for convert, else native text
EXIT CODES: 0 = consistent, 1 = any history inconsistent,
         2 = usage or parse error (an unknown flag included)"
    );
}

/// Pulls `--flag value` pairs out of an argument list; returns positionals.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses `cmd`'s arguments against its flags, each list
    /// space-separated: `valued` flags take a value, `switches` do not,
    /// and `-o` is short for `--out` where `out` is valued. Any other flag
    /// is a usage error that names it.
    fn parse(cmd: &str, args: &[String], valued: &str, switches: &str) -> Result<Self, String> {
        let known = |list: &str, name: &str| list.split_whitespace().any(|f| f == name);
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = match (a.strip_prefix("--"), a.as_str()) {
                (Some(name), _) => name,
                (None, "-o") => "out",
                _ => {
                    positional.push(a.clone());
                    continue;
                }
            };
            if known(switches, name) {
                pairs.push((name.to_string(), "true".to_string()));
            } else if known(valued, name) {
                let value = it.next().ok_or_else(|| format!("flag {a} needs a value"))?;
                pairs.push((name.to_string(), value.clone()));
            } else {
                return Err(format!("{cmd}: unknown flag {a} (try `awdit help`)"));
            }
        }
        Ok(Flags { pairs, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Streams one history file into a fresh builder — line by line, no
/// full-file `String` (the `check` path goes further and streams into the
/// engine's recycled arenas).
fn load_history(path: &str, format: Option<&str>) -> Result<History, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let reader = std::io::BufReader::new(file);
    let mut b = HistoryBuilder::new();
    match format {
        None | Some("auto") => {
            read_auto(reader, &mut b).map_err(|e| format!("{path}: {e}"))?;
        }
        Some(f) => {
            let fmt: Format = f.parse()?;
            read_history(reader, fmt, &mut b).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    b.finish().map_err(|e| format!("{path}: {e}"))
}

fn parse_threads(flags: &Flags) -> Result<usize, String> {
    flags
        .get("threads")
        .map(|w| w.parse().map_err(|_| "bad --threads value".to_string()))
        .transpose()
        .map(|t| t.unwrap_or(1))
}

fn parse_witnesses(flags: &Flags, default: usize) -> Result<usize, String> {
    flags
        .get("witnesses")
        .map(|w| w.parse().map_err(|_| "bad --witnesses value".to_string()))
        .transpose()
        .map(|w| w.unwrap_or(default))
}

/// The observability side of `check`/`watch`: `--trace FILE` records a
/// Chrome `trace_event` JSON of every engine phase, `--metrics FILE|-`
/// exports the Prometheus text snapshot when the command finishes.
/// Either flag switches the engine's [`Obs`] handle on; with neither the
/// run pays only the disabled-path check per would-be span.
struct ObsSetup {
    obs: Obs,
    trace: Option<(String, Arc<ChromeTraceRecorder>)>,
    metrics: Option<String>,
}

impl ObsSetup {
    fn from_flags(flags: &Flags) -> Self {
        let trace_path = flags.get("trace").map(str::to_string);
        let metrics = flags.get("metrics").map(str::to_string);
        if trace_path.is_none() && metrics.is_none() {
            return ObsSetup {
                obs: Obs::disabled(),
                trace: None,
                metrics: None,
            };
        }
        let trace = trace_path.map(|p| (p, Arc::new(ChromeTraceRecorder::new())));
        let mut builder = Obs::builder();
        if let Some((_, rec)) = &trace {
            builder = builder.recorder_arc(rec.clone());
        }
        ObsSetup {
            obs: builder.build(),
            trace,
            metrics,
        }
    }

    /// Snapshot of the phase aggregates, for per-history deltas.
    fn phases(&self) -> Vec<PhaseTiming> {
        self.obs.phase_timings()
    }

    /// The phases closed since `before`, in report wire form.
    fn timings_since(&self, before: &[PhaseTiming]) -> Vec<PhaseTimingReport> {
        phase_delta(before, &self.phases())
            .iter()
            .map(|t| PhaseTimingReport {
                phase: t.name.to_string(),
                spans: t.count,
                total_ms: t.total_ms(),
            })
            .collect()
    }

    /// Writes the trace and metrics outputs (called once, at the end).
    fn finish(&self) -> Result<(), String> {
        if let Some((path, rec)) = &self.trace {
            rec.write_json(std::path::Path::new(path))
                .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
            eprintln!("trace:    wrote {} ({} events)", path, rec.events().len());
        }
        if let Some(dest) = &self.metrics {
            let text = self.obs.export_prometheus();
            if dest == "-" {
                let mut out = std::io::stdout().lock();
                out.write_all(text.as_bytes())
                    .and_then(|()| out.flush())
                    .map_err(|e| format!("cannot write metrics: {e}"))?;
            } else {
                std::fs::write(dest, text)
                    .map_err(|e| format!("cannot write metrics `{dest}`: {e}"))?;
            }
        }
        Ok(())
    }
}

/// The optional `--format` pin shared by `check`/`convert`.
fn parse_format_flag(flags: &Flags) -> Result<Option<Format>, String> {
    match flags.get("format") {
        None | Some("auto") => Ok(None),
        Some(f) => Ok(Some(f.parse()?)),
    }
}

/// Resolves one `check` positional — a file or a directory — into a
/// history source.
fn make_source(path: &str, format: Option<Format>) -> Result<Box<dyn HistorySource>, String> {
    if std::path::Path::new(path).is_dir() {
        let mut src = DirSource::new(path).map_err(|e| e.to_string())?;
        if let Some(f) = format {
            src = src.with_format(f);
        }
        if src.is_empty() {
            return Err(format!("{path}: directory holds no history files"));
        }
        Ok(Box::new(src))
    } else {
        let mut src = FilesSource::new([path]);
        if let Some(f) = format {
            src = src.with_format(f);
        }
        Ok(Box::new(src))
    }
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        "check",
        args,
        "isolation threads format witnesses report trace metrics output out",
        "stable-report",
    )?;
    if flags.positional.is_empty() {
        return Err("check: missing history file(s) or directory".to_string());
    }
    let report_mode = flags.get("report").unwrap_or("text");
    if !matches!(report_mode, "text" | "json") {
        return Err(format!("bad --report value `{report_mode}` (text|json)"));
    }
    let stable = flags.get("stable-report").is_some();
    let cfg = EngineConfig {
        max_cycles: parse_witnesses(&flags, 16)?,
        threads: parse_threads(&flags)?,
        ..EngineConfig::default()
    };
    // `None` checks all three levels over one shared index.
    let level: Option<IsolationLevel> = match flags.get("isolation").unwrap_or("cc") {
        "all" => None,
        l => Some(l.parse().map_err(|e| format!("{e}"))?),
    };
    let format = parse_format_flag(&flags)?;

    let setup = ObsSetup::from_flags(&flags);
    let mut engine = Engine::with_config(cfg);
    engine.set_obs(setup.obs.clone());
    let mut reports: Vec<HistoryReport> = Vec::new();
    // Each file streams into the engine's recycled ingest arenas and is
    // checked before the next is read; the reported per-history time
    // covers its load + check.
    let mut phases_before = setup.phases();
    let mut started = std::time::Instant::now();
    for p in &flags.positional {
        let mut src = make_source(p, format)?;
        engine
            .check_source(src.as_mut(), level, |name, history, outcomes| {
                let ms = if stable {
                    0.0
                } else {
                    started.elapsed().as_secs_f64() * 1e3
                };
                reports.push(
                    HistoryReport::new(&name, history, &outcomes, ms)
                        .with_timings(setup.timings_since(&phases_before)),
                );
                phases_before = setup.phases();
                started = std::time::Instant::now();
            })
            .map_err(|e| e.to_string())?;
    }

    let stats = engine.stats();
    let mut report = Report::new(reports);
    if !stable {
        // `--stable-report` omits the run-specific engine stats (and
        // zeroes every timing) so identical inputs produce byte-identical
        // JSON across runs and ingest paths.
        report = report.with_engine(EngineStatsReport {
            histories: stats.histories,
            checks: stats.checks,
            arena_growths: stats.arena_growths,
            arena_bytes: stats.arena_bytes as u64,
        });
    }
    emit_report(
        &report,
        report_mode,
        flags.get("output").or(flags.get("out")),
    )?;
    setup.finish()?;
    if report.any_inconsistent() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Routes a finished report to stdout or `--output`, as text or JSON.
fn emit_report(report: &Report, mode: &str, output: Option<&str>) -> Result<(), String> {
    fn to<W: std::io::Write>(w: W, mode: &str, report: &Report) -> std::io::Result<()> {
        if mode == "json" {
            JsonSink(w).emit(report)
        } else {
            TextSink(w).emit(report)
        }
    }
    let result = match output {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            to(file, mode, report)
        }
        None => to(std::io::stdout().lock(), mode, report),
    };
    result.map_err(|e| format!("cannot emit report: {e}"))
}

fn cmd_shrink(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse("shrink", args, "isolation format out", "")?;
    let path = flags
        .positional
        .first()
        .ok_or("shrink: missing history file")?;
    let level: IsolationLevel = flags
        .get("isolation")
        .unwrap_or("cc")
        .parse()
        .map_err(|e| format!("{e}"))?;
    let history = load_history(path, flags.get("format"))?;
    let Some(small) = awdit_core::shrink_history(&history, level) else {
        println!("history satisfies {level}; nothing to shrink");
        return Ok(ExitCode::SUCCESS);
    };
    eprintln!(
        "shrunk {} -> {} transactions ({} -> {} ops)",
        history.num_txns(),
        small.num_txns(),
        history.size(),
        small.size()
    );
    match flags.get("out") {
        Some(out) => {
            let file =
                std::fs::File::create(out).map_err(|e| format!("cannot write `{out}`: {e}"))?;
            let mut w = std::io::BufWriter::new(file);
            write_history_to(&small, Format::Native, &mut w)
                .and_then(|()| w.flush())
                .map_err(|e| format!("cannot write `{out}`: {e}"))?;
        }
        None => {
            let mut out = std::io::stdout().lock();
            write_history_to(&small, Format::Native, &mut out)
                .and_then(|()| out.flush())
                .map_err(|e| format!("cannot write shrunk history: {e}"))?;
        }
    }
    // Show the witness on the shrunk history (through the engine, like
    // every other check the CLI runs).
    let outcome = Engine::with_config(EngineConfig {
        level,
        ..EngineConfig::default()
    })
    .check(&small);
    for v in outcome.violations().iter().take(3) {
        eprintln!("witness: {v}");
    }
    Ok(ExitCode::FAILURE)
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse("stats", args, "format report", "")?;
    let path = flags
        .positional
        .first()
        .ok_or("stats: missing history file")?;
    let history = load_history(path, flags.get("format"))?;
    match flags.get("report").unwrap_or("text") {
        "text" => println!("{}", HistoryStats::of(&history)),
        "json" => {
            // `arena_bytes` is the columnar heap footprint of the loaded
            // history — what an engine's ingest arena would hold for it.
            let json = history_stats_json(
                &HistoryStats::of(&history),
                Some(history.heap_bytes() as u64),
            );
            println!("{json}");
        }
        other => return Err(format!("bad --report value `{other}` (text|json)")),
    }
    Ok(ExitCode::SUCCESS)
}

/// What `convert` writes: a history file format, the NDJSON event
/// stream `awdit watch` consumes, or the binary columnar `.awb` form.
enum ConvertTarget {
    History(Format),
    Events,
    Binary,
}

/// Resolves the output format of `convert`: an explicit `--to`, or the
/// output path's extension (`.ndjson`/`.jsonl` mean events, `.awb` the
/// binary columnar form).
fn convert_target(to: Option<&str>, out_path: Option<&str>) -> Result<ConvertTarget, String> {
    if let Some(to) = to {
        if matches!(to, "events" | "ndjson") {
            return Ok(ConvertTarget::Events);
        }
        if to == "awb" || to == "binary" {
            return Ok(ConvertTarget::Binary);
        }
        return Ok(ConvertTarget::History(to.parse()?));
    }
    let Some(path) = out_path else {
        return Err("convert: missing --to FORMAT (required when writing to stdout)".to_string());
    };
    let ext = std::path::Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    if matches!(ext, "ndjson" | "jsonl") {
        return Ok(ConvertTarget::Events);
    }
    if ext.eq_ignore_ascii_case("awb") {
        return Ok(ConvertTarget::Binary);
    }
    ext.parse()
        .map(ConvertTarget::History)
        .map_err(|_| format!("convert: cannot infer a format from `{path}` (use --to FORMAT)"))
}

fn cmd_convert(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse("convert", args, "format to out", "")?;
    let input = flags
        .positional
        .first()
        .ok_or("convert: missing input history file")?;
    // `awdit convert IN OUT`, or the flag spelling `-o OUT`.
    let out_path = flags
        .positional
        .get(1)
        .map(String::as_str)
        .or(flags.get("out"));
    let target = convert_target(flags.get("to"), out_path)?;

    // Input side: stream-parse (auto-detected, NDJSON event logs
    // included) into one columnar history; `--format` pins the reader.
    let format = parse_format_flag(&flags)?;
    let mut src = FilesSource::new([input.as_str()]);
    if let Some(f) = format {
        src = src.with_format(f);
    }
    let sourced = src
        .next_history()
        .expect("one input path")
        .map_err(|e| e.to_string())?;

    write_target(&sourced.history, &target, out_path).map_err(|e| format!("convert: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// Writes `history` as `target` to `out_path`, or to stdout without one,
/// through the streaming writers: records go to the (buffered) sink as
/// they are produced, with no output `String`.
fn write_target(
    history: &History,
    target: &ConvertTarget,
    out_path: Option<&str>,
) -> Result<(), String> {
    fn emit<W: std::io::Write>(
        history: &History,
        target: &ConvertTarget,
        mut out: W,
    ) -> std::io::Result<()> {
        match target {
            ConvertTarget::History(f) => write_history_to(history, *f, &mut out)?,
            ConvertTarget::Events => write_history_events_to(history, &mut out)?,
            ConvertTarget::Binary => awdit_formats::write_awb_to(history, &mut out)?,
        }
        out.flush()
    }
    match out_path {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            emit(history, target, std::io::BufWriter::new(file))
                .map_err(|e| format!("cannot write `{path}`: {e}"))
        }
        None => emit(history, target, std::io::stdout().lock())
            .map_err(|e| format!("cannot write history: {e}")),
    }
}

fn cmd_generate(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        "generate",
        args,
        "benchmark db sessions txns seed format out",
        "",
    )?;
    let sessions: usize = flags
        .get("sessions")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "bad --sessions value".to_string())?;
    let txns: usize = flags
        .get("txns")
        .unwrap_or("1000")
        .parse()
        .map_err(|_| "bad --txns value".to_string())?;
    let seed: u64 = flags
        .get("seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --seed value".to_string())?;
    let db = match flags.get("db").unwrap_or("causal") {
        "ser" | "serializable" => DbIsolation::Serializable,
        "causal" | "cc" => DbIsolation::Causal,
        "ra" => DbIsolation::ReadAtomic,
        "rc" => DbIsolation::ReadCommitted,
        other => return Err(format!("unknown db mode `{other}`")),
    };
    let config = SimConfig::new(db, sessions, seed);
    let bench_name = flags.get("benchmark").unwrap_or("uniform");
    let history = if bench_name == "uniform" {
        let mut w = Uniform::default();
        collect_history(config, &mut w, txns)
    } else {
        let bench: Benchmark = bench_name.parse()?;
        let mut w = bench.build();
        collect_history(config, &mut *w, txns)
    }
    .map_err(|e| format!("generation failed: {e}"))?;

    // `--format`, else the output's extension as `convert` reads it, else
    // native text.
    let out = flags.get("out");
    let target = match flags.get("format") {
        Some(format) => convert_target(Some(format), None)?,
        None => convert_target(None, out).unwrap_or(ConvertTarget::History(Format::Native)),
    };
    write_target(&history, &target, out)?;
    if let Some(out) = out {
        eprintln!("wrote {} ({})", out, HistoryStats::of(&history));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_watch(args: &[String]) -> Result<ExitCode, String> {
    use std::io::{BufRead, Read};

    let flags = Flags::parse(
        "watch",
        args,
        "isolation interval witnesses trace metrics stats-interval",
        "no-prune follow",
    )?;
    let path = flags
        .positional
        .first()
        .ok_or("watch: missing event file (or `-` for stdin)")?;
    let level: IsolationLevel = flags
        .get("isolation")
        .unwrap_or("cc")
        .parse()
        .map_err(|e| format!("{e}"))?;
    let prune = flags.get("no-prune").is_none();
    let follow = flags.get("follow").is_some();
    let prune_interval: u64 = flags
        .get("interval")
        .map(|w| w.parse().map_err(|_| "bad --interval value".to_string()))
        .transpose()?
        .unwrap_or(256);
    let stats_interval: Option<u64> = flags
        .get("stats-interval")
        .map(|w| {
            w.parse()
                .map_err(|_| "bad --stats-interval value".to_string())
        })
        .transpose()?;

    let setup = ObsSetup::from_flags(&flags);
    let mut checker = OnlineChecker::with_config(StreamConfig {
        level,
        prune,
        prune_interval,
        max_cycle_reports: parse_witnesses(&flags, 64)?,
        ..StreamConfig::default()
    });
    checker.set_obs(setup.obs.clone());

    // Long-lived invocations (`--follow`, stdin pipes) finalize cleanly
    // on SIGINT/SIGTERM instead of dying mid-stream: the handler trips
    // the token, the read loop notices, and the terminal summary below
    // still runs.
    let shutdown = ShutdownToken::new();
    if follow || path == "-" {
        install_signal_handlers(shutdown.clone());
    }
    checker.set_shutdown(shutdown.clone());
    eprintln!(
        "watching {path} for {level} violations (pruning {})",
        if prune { "on" } else { "off" }
    );

    let feed = |checker: &mut OnlineChecker, line: &[u8], line_no: usize| -> Result<(), String> {
        let line =
            std::str::from_utf8(line).map_err(|e| format!("line {line_no}: invalid UTF-8: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(());
        }
        let event = awdit_formats::parse_event(trimmed, line_no).map_err(|e| e.to_string())?;
        checker
            .apply(&event)
            .map_err(|e| format!("line {line_no}: {e}"))?;
        let mut printed = false;
        for v in checker.drain_violations() {
            println!("[event {}] VIOLATION: {v}", checker.stats().events);
            printed = true;
        }
        // Downstream monitors tailing a pipe must see each violation as
        // it happens, not when the block buffer fills.
        if printed {
            std::io::stdout()
                .flush()
                .map_err(|e| format!("stdout: {e}"))?;
        }
        Ok(())
    };

    // `--stats-interval N`: a periodic heartbeat on stderr, so a
    // long-running `--follow` session shows progress between violations.
    let mut last_stats = std::time::Instant::now();
    fn maybe_heartbeat(last: &mut std::time::Instant, every: Option<u64>, checker: &OnlineChecker) {
        let Some(secs) = every else { return };
        if last.elapsed().as_secs() >= secs {
            let s = checker.stats();
            eprintln!(
                "[stats] events={} processed={} staged={} live={} retired={} violations={}",
                s.events, s.processed, s.staged_txns, s.live_txns, s.retired_txns, s.violations
            );
            *last = std::time::Instant::now();
        }
    }

    // Feeding a history file (or arbitrary binary junk) into the event
    // stream parser would drown the user in per-line parse errors; sniff
    // the input and fail once, cleanly, with the right exit code (2).
    fn reject_non_events(what: &str, detected: Option<Detected>) -> Result<(), String> {
        match detected {
            None | Some(Detected::Events) => Ok(()),
            Some(Detected::Binary) => Err(format!(
                "{what}: binary input is not an NDJSON event stream \
                 (use `awdit check` for .awb histories)"
            )),
            Some(Detected::History(fmt)) => Err(format!(
                "{what}: detected a {fmt} history, not an NDJSON event stream \
                 (use `awdit check`, or `awdit convert --to events`)"
            )),
        }
    }

    let (what, mut input): (&str, Box<dyn Read>) = if path == "-" {
        let mut lock = std::io::stdin().lock();
        let prefix = lock.fill_buf().map_err(|e| format!("stdin: {e}"))?;
        if looks_binary(prefix) {
            return Err("stdin: binary input is not an NDJSON event stream \
                 (use `awdit check` for .awb histories)"
                .to_string());
        }
        reject_non_events("stdin", detect_bytes(prefix))?;
        ("stdin", Box::new(lock))
    } else {
        let detected = detect_path(std::path::Path::new(path))
            .map_err(|e| format!("cannot open `{path}`: {e}"))?;
        reject_non_events(path, detected)?;
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
        (path, Box::new(file))
    };
    // Fixed-size reads: each whole line is fed as soon as its newline
    // arrives, and only the partial last line is carried into the next
    // read, so memory does not grow with the stream. An event line is a
    // few dozen bytes; one longer than `MAX_LINE` is rejected as soon as
    // the carry would pass the cap, so a newline-free input cannot grow
    // it. At end of input `--follow` polls a file for appended lines;
    // otherwise the unterminated tail is the last line.
    const MAX_LINE: usize = 64 * 1024;
    let too_long =
        |line_no: usize| format!("line {line_no}: event line longer than {MAX_LINE} bytes");
    let poll = follow && path != "-";
    let mut chunk = vec![0u8; MAX_LINE];
    let mut carry: Vec<u8> = Vec::new();
    let mut line_no = 0usize;
    loop {
        if shutdown.is_triggered() {
            eprintln!("shutdown requested; finalizing");
            break;
        }
        let n = match input.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("{what}: {e}")),
        };
        if n == 0 {
            if !poll {
                if !carry.is_empty() {
                    feed(&mut checker, &carry, line_no + 1)?;
                }
                break;
            }
            maybe_heartbeat(&mut last_stats, stats_interval, &checker);
            std::thread::sleep(std::time::Duration::from_millis(200));
            continue;
        }
        let mut rest = &chunk[..n];
        while let Some(i) = rest.iter().position(|&b| b == b'\n') {
            line_no += 1;
            if carry.is_empty() {
                feed(&mut checker, &rest[..i], line_no)?;
            } else {
                if carry.len() + i > MAX_LINE {
                    return Err(too_long(line_no));
                }
                carry.extend_from_slice(&rest[..i]);
                feed(&mut checker, &carry, line_no)?;
                carry.clear();
            }
            rest = &rest[i + 1..];
        }
        if carry.len() + rest.len() > MAX_LINE {
            return Err(too_long(line_no + 1));
        }
        carry.extend_from_slice(rest);
        maybe_heartbeat(&mut last_stats, stats_interval, &checker);
    }

    let outcome = checker.finish().map_err(|e| format!("{e}"))?;
    let stats = outcome.stats();
    // Violations found while streaming were already printed live; only the
    // ones surfaced by finish (thin-air reads, so∪wr deadlocks) are new.
    for v in outcome.violations() {
        println!("[finish] VIOLATION: {v}");
    }
    println!(
        "processed {} events / {} txns ({} live, {} retired, peak live {})",
        stats.events, stats.processed, stats.live_txns, stats.retired_txns, stats.peak_live_txns
    );
    println!(
        "verdict:  {} ({} violations)",
        if outcome.is_consistent() {
            "consistent"
        } else {
            "inconsistent"
        },
        stats.violations
    );
    setup.finish()?;
    if !outcome.is_consistent() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        "serve",
        args,
        "addr threads check-threads isolation interval staging-budget warm-pool \
         max-body timeout witnesses trace metrics",
        "no-prune",
    )?;
    if let Some(extra) = flags.positional.first() {
        return Err(format!("serve: unexpected argument `{extra}`"));
    }
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let level: IsolationLevel = flags
        .get("isolation")
        .unwrap_or("cc")
        .parse()
        .map_err(|e| format!("{e}"))?;
    let prune = flags.get("no-prune").is_none();
    let prune_interval: u64 = flags
        .get("interval")
        .map(|w| w.parse().map_err(|_| "bad --interval value".to_string()))
        .transpose()?
        .unwrap_or(256);
    let staging_budget: u64 = flags
        .get("staging-budget")
        .map(|w| {
            w.parse()
                .map_err(|_| "bad --staging-budget value".to_string())
        })
        .transpose()?
        .unwrap_or(4096);
    let max_body_bytes: u64 = flags
        .get("max-body")
        .map(|w| w.parse().map_err(|_| "bad --max-body value".to_string()))
        .transpose()?
        .unwrap_or(64 * 1024 * 1024);
    let timeout_secs: u64 = flags
        .get("timeout")
        .map(|w| w.parse().map_err(|_| "bad --timeout value".to_string()))
        .transpose()?
        .unwrap_or(10);
    let threads = flags
        .get("threads")
        .map(|w| w.parse().map_err(|_| "bad --threads value".to_string()))
        .transpose()?
        .unwrap_or(0usize);
    let check_threads = flags
        .get("check-threads")
        .map(|w| {
            w.parse()
                .map_err(|_| "bad --check-threads value".to_string())
        })
        .transpose()?
        .unwrap_or(0usize);
    let warm_pool = flags
        .get("warm-pool")
        .map(|w| w.parse().map_err(|_| "bad --warm-pool value".to_string()))
        .transpose()?
        .unwrap_or(32usize);

    // The /metrics endpoint is the point of running a daemon, so metrics
    // stay on even without --metrics; --trace/--metrics additionally get
    // their usual end-of-run exports.
    let setup = ObsSetup::from_flags(&flags);
    let obs = if setup.obs.enabled() {
        setup.obs.clone()
    } else {
        Obs::new()
    };
    let stream = StreamConfig {
        level,
        prune,
        prune_interval: prune_interval.max(1),
        max_cycle_reports: parse_witnesses(&flags, 64)?,
        ..StreamConfig::default()
    };
    let server = Server::bind(ServeConfig {
        addr,
        threads,
        check_threads,
        stream,
        staging_budget,
        warm_pool,
        limits: HttpLimits {
            max_body_bytes,
            read_timeout: std::time::Duration::from_secs(timeout_secs.max(1)),
        },
        obs,
    })
    .map_err(|e| format!("serve: cannot bind: {e}"))?;
    install_signal_handlers(server.shutdown_token());

    // The bound address goes to stdout (scripts bind port 0 and scrape
    // it); everything chatty stays on stderr.
    println!("awdit serve listening on {}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    eprintln!(
        "level {level}, pruning {}, staging budget {staging_budget}; ctrl-c drains",
        if prune { "on" } else { "off" },
    );

    let summary = server.run().map_err(|e| format!("serve: {e}"))?;
    let mut inconsistent = false;
    for s in &summary.sessions {
        inconsistent |= !s.consistent;
        let verdict = match (&s.error, s.consistent) {
            (Some(e), _) => format!("error ({e})"),
            (None, true) => "consistent".to_string(),
            (None, false) => "inconsistent".to_string(),
        };
        println!(
            "session {}: {} ({} events, {} violations)",
            s.id, verdict, s.stats.events, s.stats.violations
        );
    }
    setup.finish()?;
    if inconsistent {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
