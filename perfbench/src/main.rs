//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --smoke
//! perfbench compare OLD.json NEW.json
//! ```
//!
//! Run from the repository root. A run builds the release `awdit`
//! binary, generates the workload's inputs from the seed (several times,
//! timing each: `setup_s`), then measures for `--seconds`:
//!
//! * `--trace 0` runs `awdit` the way a user does — one process per
//!   run, on the generated files — and reports the end-to-end metrics;
//! * `--trace 1` replays the workload in-process through each layer's
//!   public functions, with spans around every call, and reports the
//!   per-layer metrics. It fails when the layers cover less than 90% of
//!   the traced time.
//!
//! Every run checks the program's verdicts against the workload's known
//! answer and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A record of the run —
//! environment, input digest and shape, and the spans of a traced run —
//! goes to `.bench_data/records/`; `compare` flags two records of one
//! workload and seed whose input digests differ.

mod e2e;
mod env;
mod gen;
mod http;
mod proc;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use gen::{Inputs, Scale, Workload};
use stats::{median, quantile};
use traced::{Counts, Tracer};

/// The seed a gain is tuned on, and the one it is checked on.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

/// Where inputs, logs and records go, relative to the repository root.
const DATA_DIR: &str = ".bench_data";

/// Input generations per run for `setup_s`: at least the minimum, and
/// more while they take less than the budget.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("formats.awb_load_s", "s"),
    ("formats.text_parse_s", "s"),
    ("formats.text_parse_mb_per_s", "MB/s"),
    ("formats.ndjson_parse_s", "s"),
    ("core.seal_s", "s"),
    ("core.read_consistency_s", "s"),
    ("core.index_s", "s"),
    ("core.saturate_rc_s", "s"),
    ("core.repeatable_reads_s", "s"),
    ("core.saturate_ra_s", "s"),
    ("core.saturate_cc_s", "s"),
    ("core.graph_freeze_s", "s"),
    ("core.find_cycles_s", "s"),
    ("core.engine_check_s", "s"),
    ("core.graph_edges", "count"),
    ("core.inferred_edges", "count"),
    ("core.inferred_per_txn", "count"),
    ("core.arena_mb", "MB"),
    ("pool.wakes", "count"),
    ("pool.steals", "count"),
    ("pool.parks", "count"),
    ("stream.apply_s", "s"),
    ("stream.finish_s", "s"),
    ("stream.peak_live_txns", "count"),
    ("stream.retired_frac", "fraction"),
    ("stream.peak_staged_txns", "count"),
    ("stream.live_edges", "count"),
    ("stream.horizon_misses", "count"),
    ("stream.violations", "count"),
    ("serve.replay_s", "s"),
    ("serve.http_frac", "fraction"),
    ("serve.request_p50_ms", "ms"),
    ("serve.request_p99_ms", "ms"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// The traced run fails below this share of layer time.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("--smoke") => smoke(),
        _ => parse_args(&args).and_then(|a| {
            let line = run(&a, Scale::Full)?;
            println!("{line}");
            Ok(())
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = match value.as_str() {
                    "default" => DEFAULT_SEED,
                    "held-out" => HELD_OUT_SEED,
                    n => n.parse().map_err(|_| format!("bad --seed `{n}`"))?,
                }
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

/// One run; returns the result line.
fn run(a: &Args, scale: Scale) -> Result<String, String> {
    let root = Path::new(".");
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
        return Err("run from the repository root (no crates/cli here)".into());
    }
    let awdit = build_awdit()?;
    let env = env::capture(root);
    let name = a.workload.name();
    let data = Path::new(DATA_DIR).join(name);
    let logs = data.join("logs");
    std::fs::create_dir_all(&logs).map_err(|e| format!("{}: {e}", logs.display()))?;

    // Setup: generate the inputs several times; every generation must
    // give the same bytes.
    let (min_reps, max_reps) = if a.trace {
        (1, 1)
    } else {
        (SETUP_MIN_REPS, SETUP_MAX_REPS)
    };
    let mut setup = Vec::new();
    let mut inputs: Option<Inputs> = None;
    let setup_started = Instant::now();
    while setup.len() < min_reps
        || (setup.len() < max_reps && setup_started.elapsed() < SETUP_BUDGET)
    {
        let started = Instant::now();
        let fresh = gen::generate(a.workload, a.seed, scale, &data.join("inputs"))?;
        setup.push(started.elapsed().as_secs_f64());
        if let Some(prev) = &inputs {
            if prev.digest != fresh.digest {
                return Err(format!(
                    "{name}: seed {} generated different inputs",
                    a.seed
                ));
            }
        }
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one setup");
    eprintln!(
        "perfbench: {name} seed {} — {} bytes, {} txns, {} ops, {} sessions, {} keys, {} events, digest {:016x}",
        a.seed, inputs.bytes, inputs.txns, inputs.ops, inputs.sessions, inputs.keys, inputs.events, inputs.digest
    );
    if a.workload == Workload::WatchCcFresh {
        traced::batch_stream_agreement(&inputs)?;
    }

    let ctx = e2e::Ctx {
        awdit,
        logs: logs.clone(),
    };
    let budget = Duration::from_secs(a.seconds);
    let (correct, attempted, failed, metrics, spans) = if a.trace {
        let t = traced_run(&ctx, a.workload, &inputs, budget)?;
        (true, t.passes, 0, t.metrics, t.spans)
    } else {
        let m = e2e::measure(&ctx, a.workload, &inputs, budget)?;
        for e in &m.errors {
            eprintln!("perfbench: FAILED {e}");
        }
        let wall = m.wall_s();
        let metrics = BTreeMap::from([
            ("setup_s", median(&setup)),
            ("wall_s", wall),
            ("events_per_s", inputs.events as f64 / wall),
            ("peak_rss_mb", median(&m.rss_mb)),
        ]);
        eprintln!(
            "perfbench: {} samples, walls {:?}",
            m.walls.len(),
            m.walls
                .iter()
                .map(|w| (w * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        );
        (m.failed == 0, m.attempted, m.failed, metrics, String::new())
    };

    let units: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let line = result_line(correct, attempted, failed, &metrics, units);
    write_record(a, &env, &inputs, &line, &spans)?;
    Ok(line)
}

/// Builds the release `awdit` binary; returns its path.
fn build_awdit() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "awdit-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building awdit failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("awdit");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

struct TracedResult {
    passes: u64,
    metrics: BTreeMap<&'static str, f64>,
    spans: String,
}

/// Alternates untraced and traced replays for the budget; per-layer
/// metrics are medians over the traced passes.
fn traced_run(
    ctx: &e2e::Ctx,
    workload: Workload,
    inputs: &Inputs,
    budget: Duration,
) -> Result<TracedResult, String> {
    let server = match workload {
        Workload::ServeTwoTenants => Some(e2e::Server::start(ctx)?),
        _ => None,
    };
    let result = traced_passes(workload, inputs, budget, server.as_ref());
    if let Some(server) = server {
        server.stop()?;
    }
    result
}

fn traced_passes(
    workload: Workload,
    inputs: &Inputs,
    budget: Duration,
    server: Option<&e2e::Server>,
) -> Result<TracedResult, String> {
    let bodies = match workload {
        Workload::WatchCcFresh | Workload::ServeTwoTenants => e2e::tenant_bodies(inputs)?,
        _ => Vec::new(),
    };
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last_spans;
    let started = Instant::now();
    let mut passes = 0u64;
    loop {
        let mut http_wall = None;
        if let Some(server) = server {
            // The same bodies through HTTP, for latency and the HTTP share.
            let mut m = e2e::Measured::default();
            e2e::serve_pass(&server.addr, &bodies, passes as usize, inputs, &mut m)?;
            if m.failed > 0 {
                return Err(format!("serve: {:?}", m.errors));
            }
            http_wall = Some(m.wall_s());
            for (name, q) in [
                ("serve.request_p50_ms", 0.50),
                ("serve.request_p99_ms", 0.99),
            ] {
                samples
                    .entry(name)
                    .or_default()
                    .push(quantile(&m.latencies_ms, q));
            }
        }
        let (wall, _, _) = replay(workload, inputs, &bodies, false)?;
        untraced.push(wall);
        let (wall, tracers, counts) = replay(workload, inputs, &bodies, true)?;
        traced.push(wall);
        let mut pass = layer_metrics(&tracers, &counts);
        if let Some(http_wall) = http_wall {
            pass.push(("serve.replay_s", wall));
            pass.push(("serve.http_frac", 1.0 - wall / http_wall));
        }
        for (name, value) in pass {
            samples.entry(name).or_default().push(value);
        }
        last_spans = tracers;
        passes += 1;
        let elapsed = started.elapsed();
        if elapsed + elapsed / passes as u32 > budget {
            break;
        }
    }
    let mut metrics: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|(name, _)| (*name, samples.get(name).map_or(0.0, |v| median(v))))
        .collect();
    metrics.insert("trace.overhead_frac", median(&traced) / median(&untraced));
    let coverage = metrics["trace.coverage"];
    if coverage < MIN_COVERAGE {
        return Err(format!(
            "{}: layers cover only {:.1}% of the traced time (need {:.0}%)",
            workload.name(),
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    Ok(TracedResult {
        passes,
        metrics,
        spans: spans_json(&last_spans),
    })
}

/// One in-process replay of the workload; returns its wall time, the
/// tracers (one per replay thread) and the counters.
fn replay(
    workload: Workload,
    inputs: &Inputs,
    bodies: &[e2e::TenantBodies],
    on: bool,
) -> Result<(f64, Vec<Tracer>, Counts), String> {
    let origin = Instant::now();
    let mut counts = Counts::default();
    let tracers = match workload {
        Workload::CcLargeAwb | Workload::FleetTextAll => {
            let mut t = Tracer::new(origin, on, 0);
            traced::replay_check(workload, inputs, &mut t, &mut counts)?;
            vec![t]
        }
        // One replay thread per tenant, as the server runs one worker
        // per connection.
        Workload::WatchCcFresh | Workload::ServeTwoTenants => {
            let results: Vec<Result<(Tracer, Counts), String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = bodies
                    .iter()
                    .enumerate()
                    .map(|(i, tenant)| {
                        scope.spawn(move || {
                            let mut t = Tracer::new(origin, on, i);
                            let mut c = Counts::default();
                            traced::replay_stream(&tenant.bodies, &mut t, &mut c)?;
                            Ok((t, c))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("replay thread panicked".into()))
                    })
                    .collect()
            });
            let mut tracers = Vec::new();
            for r in results {
                let (t, c) = r?;
                tracers.push(t);
                counts.stream.extend(c.stream);
            }
            tracers
        }
    };
    Ok((origin.elapsed().as_secs_f64(), tracers, counts))
}

/// The per-layer metrics of one traced replay.
fn layer_metrics(tracers: &[Tracer], c: &Counts) -> Vec<(&'static str, f64)> {
    let (self_times, total) = traced::self_times(tracers);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut layer_total = 0.0;
    for (name, secs) in &self_times {
        if *name == traced::ROOT {
            continue;
        }
        layer_total += secs;
        if let Some((metric, _)) = PER_LAYER
            .iter()
            .find(|(m, _)| m.strip_suffix("_s") == Some(name))
        {
            out.push((metric, *secs));
        }
    }
    out.push(("trace.coverage", ratio(layer_total, total)));
    let parse_s = self_times.get("formats.text_parse").copied().unwrap_or(0.0);
    out.push((
        "formats.text_parse_mb_per_s",
        ratio(c.text_bytes as f64 / (1 << 20) as f64, parse_s),
    ));
    out.push(("core.graph_edges", c.graph_edges as f64));
    out.push(("core.inferred_edges", c.inferred_edges as f64));
    out.push((
        "core.inferred_per_txn",
        ratio(c.inferred_edges as f64, c.graph_txns as f64),
    ));
    out.push(("core.arena_mb", c.arena_bytes as f64 / (1 << 20) as f64));
    out.push(("pool.wakes", c.pool_wakes as f64));
    out.push(("pool.steals", c.pool_steals as f64));
    out.push(("pool.parks", c.pool_parks as f64));
    let s = &c.stream;
    let sum = |f: fn(&awdit_stream::StreamStats) -> u64| s.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&awdit_stream::StreamStats) -> u64| s.iter().map(f).max().unwrap_or(0) as f64;
    out.push(("stream.peak_live_txns", max(|x| x.peak_live_txns)));
    out.push((
        "stream.retired_frac",
        ratio(sum(|x| x.retired_txns), sum(|x| x.processed)),
    ));
    out.push(("stream.peak_staged_txns", max(|x| x.peak_staged_txns)));
    out.push(("stream.live_edges", sum(|x| x.live_edges)));
    out.push(("stream.horizon_misses", sum(|x| x.horizon_misses)));
    out.push(("stream.violations", sum(|x| x.violations)));
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit)) in units.iter().enumerate() {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn spans_json(tracers: &[Tracer]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for t in tracers {
        for s in &t.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"thread\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
                s.name,
                s.thread,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
    }
    out.push_str("\n  ]");
    out
}

/// Writes `.bench_data/records/<workload>-seed<N>-trace<T>.json`: one
/// field per line, so `compare` can read it back without a JSON parser.
fn write_record(
    a: &Args,
    env: &env::Env,
    inputs: &Inputs,
    line: &str,
    spans: &str,
) -> Result<(), String> {
    let dir = Path::new(DATA_DIR).join("records");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    ));
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", a.workload.name());
    let _ = writeln!(out, "  \"seed\": {},", a.seed);
    let _ = writeln!(out, "  \"trace\": {},", u8::from(a.trace));
    let _ = writeln!(out, "  \"seconds\": {},", a.seconds);
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", env.git_rev);
    let _ = writeln!(out, "  \"nproc\": {},", env.nproc);
    let _ = writeln!(out, "  \"rustc\": \"{}\",", env.rustc);
    let _ = writeln!(out, "  \"digest\": \"{:016x}\",", inputs.digest);
    for (key, value) in [
        ("input_bytes", inputs.bytes),
        ("txns", inputs.txns),
        ("ops", inputs.ops),
        ("sessions", inputs.sessions),
        ("keys", inputs.keys),
        ("events", inputs.events),
    ] {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    let lines: Vec<String> = env
        .lines
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let _ = writeln!(out, "  \"non_test_lines\": {{{}}},", lines.join(", "));
    let _ = writeln!(out, "  \"result\": {line},");
    let _ = writeln!(
        out,
        "  \"spans\": {}",
        if spans.is_empty() { "[]" } else { spans }
    );
    out.push_str("}\n");
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare OLD NEW`: prints each metric's ratio, and flags (exit 1) a
/// pair of records of one workload and seed whose inputs differ — a
/// change to the generators, not to the checker.
fn compare(args: &[String]) -> Result<(), String> {
    let [old, new] = args else {
        return Err("usage: perfbench compare OLD.json NEW.json".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (old, new) = (read(old)?, read(new)?);
    let field = |text: &str, key: &str| -> String {
        let prefix = format!("  \"{key}\": ");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .map(|v| v.trim_end_matches(',').trim_matches('"').to_string())
            .unwrap_or_default()
    };
    for key in ["workload", "seed", "trace"] {
        if field(&old, key) != field(&new, key) {
            return Err(format!("records differ in {key}; nothing to compare"));
        }
    }
    let (old_m, new_m) = (
        record_metrics(&field(&old, "result")),
        record_metrics(&field(&new, "result")),
    );
    for (name, o) in &old_m {
        if let Some(n) = new_m.get(name) {
            println!(
                "{name:<32} {o:>14.6} -> {n:>14.6}  ({:+.2}%)",
                ratio(n - o, *o) * 100.0
            );
        }
    }
    if field(&old, "digest") != field(&new, "digest") {
        println!(
            "FLAG: input digests differ ({} vs {}): the generators changed, so these numbers compare different inputs",
            field(&old, "digest"),
            field(&new, "digest")
        );
        return Err("inputs differ".into());
    }
    Ok(())
}

/// `name -> value` from a result line.
fn record_metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut rest = line;
    while let Some(at) = rest.find(": {\"value\": ") {
        let name = rest[..at].rsplit('"').nth(1).unwrap_or("").to_string();
        rest = &rest[at + ": {\"value\": ".len()..];
        let end = rest.find(',').unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse() {
            out.insert(name, v);
        }
    }
    out
}

/// Every workload at a tiny size, traced and untraced: known answers
/// hold, nothing fails, and every metric `BENCHMARK.json` names is
/// printed with its unit.
fn smoke() -> Result<(), String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = Args {
                workload: w,
                seed: DEFAULT_SEED,
                seconds: 1,
                trace,
            };
            let line = run(&a, Scale::Smoke)?;
            let section = if trace { "per_layer" } else { "end_to_end" };
            for (name, unit) in spec_metrics(&spec, section) {
                let unit_field = format!("\"unit\": \"{unit}\"");
                let entry = line
                    .split_once(&format!("\"{name}\": {{\"value\": "))
                    .and_then(|(_, rest)| rest.split('}').next());
                if !entry.is_some_and(|e| e.ends_with(&unit_field)) {
                    return Err(format!("{}: {name} not printed in {unit}", w.name()));
                }
            }
            if !line.starts_with("{\"correct\": true,") || !line.contains("\"failed\": 0,") {
                return Err(format!("{} failed: {line}", w.name()));
            }
            println!("smoke {} trace={}: ok", w.name(), u8::from(trace));
        }
    }
    Ok(())
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn spec_metrics(spec: &str, section: &str) -> Vec<(String, String)> {
    let Some(start) = spec.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &spec[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let string_after = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\""))? + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((string_after(obj, "name")?, string_after(obj, "unit")?)))
        .collect()
}
