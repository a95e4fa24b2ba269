//! End-to-end tests of the `awdit` binary: generate → stats → convert →
//! check → shrink, via real process invocations.

use std::path::PathBuf;
use std::process::Command;

fn awdit() -> Command {
    Command::new(env!("CARGO_BIN_EXE_awdit"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("awdit-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_check_roundtrip() {
    let file = tmp("gen.awdit");
    let out = awdit()
        .args(["generate", "--benchmark", "rubis", "--db", "causal"])
        .args(["--sessions", "6", "--txns", "200", "--seed", "9"])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A causal store's history passes CC.
    let out = awdit()
        .args(["check", "--isolation", "cc", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict:  consistent"), "{stdout}");

    // Stats prints the session count.
    let out = awdit()
        .args(["stats", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("6 sessions"));
    let _ = std::fs::remove_file(file);
}

#[test]
fn convert_between_formats() {
    let src = tmp("conv.awdit");
    let dst = tmp("conv.cobra");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "ser"])
        .args(["--sessions", "3", "--txns", "50", "--seed", "1"])
        .args(["-o", src.to_str().unwrap()])
        .output()
        .unwrap();
    let out = awdit()
        .args(["convert", "--to", "cobra", "-o", dst.to_str().unwrap()])
        .arg(src.to_str().unwrap())
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&dst).unwrap();
    assert!(text.starts_with("cobra-log"));
    // Auto-detection parses the converted file.
    let out = awdit()
        .args(["stats", dst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(dst);
}

#[test]
fn check_reports_violations_with_nonzero_exit() {
    let file = tmp("bad.awdit");
    // rc-tier store checked at RA: inconsistent with this seed (fractured
    // reads appear quickly under interleaving).
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "rc"])
        .args(["--sessions", "6", "--txns", "400", "--seed", "5"])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .unwrap();
    let out = awdit()
        .args(["check", "--isolation", "ra", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inconsistent"), "{stdout}");
    assert!(stdout.contains("violations"), "{stdout}");

    // Shrink produces a small repro on stdout.
    let out = awdit()
        .args(["shrink", "--isolation", "ra", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("shrunk"), "{stderr}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn check_all_levels_and_threads() {
    let file = tmp("all.awdit");
    // rc-tier store: RC passes, RA and CC fail — `--isolation all` must
    // print one verdict per level and exit 1.
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "rc"])
        .args(["--sessions", "6", "--txns", "400", "--seed", "5"])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .unwrap();
    let out = awdit()
        .args(["check", "--isolation", "all", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[rc]"), "{stdout}");
    assert!(stdout.contains("[ra]"), "{stdout}");
    assert!(stdout.contains("[cc]"), "{stdout}");
    assert!(stdout.contains("shared index"), "{stdout}");

    // Thread count is a perf knob only: the printed verdicts are identical.
    let verdicts = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("verdict:") || l.trim_start().starts_with("- "))
            .map(str::to_string)
            .collect()
    };
    let out8 = awdit()
        .args(["check", "--isolation", "all", "--threads", "8"])
        .arg(file.to_str().unwrap())
        .output()
        .unwrap();
    assert_eq!(out8.status.code(), Some(1));
    assert_eq!(
        verdicts(&stdout),
        verdicts(&String::from_utf8_lossy(&out8.stdout))
    );
    let _ = std::fs::remove_file(file);
}

#[test]
fn bad_arguments_exit_2() {
    let out = awdit().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = awdit()
        .args(["check", "--isolation", "nonsense", "/nonexistent"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// The documented exit-code contract: 0 consistent, 1 inconsistent,
/// 2 usage/parse error — including the multi-file batch mode (1 if *any*
/// history is inconsistent) and directory inputs.
#[test]
fn exit_code_contract_multi_file() {
    let good = tmp("contract-good.awdit");
    let bad = tmp("contract-bad.awdit");
    // A causal store passes RA; an rc-tier store violates it.
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "causal"])
        .args(["--sessions", "4", "--txns", "150", "--seed", "3"])
        .args(["-o", good.to_str().unwrap()])
        .output()
        .unwrap();
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "rc"])
        .args(["--sessions", "6", "--txns", "400", "--seed", "5"])
        .args(["-o", bad.to_str().unwrap()])
        .output()
        .unwrap();

    // 0: all histories consistent.
    let out = awdit()
        .args(["check", "--isolation", "ra"])
        .args([good.to_str().unwrap(), good.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("verdict:").count(), 2, "{stdout}");

    // 1: any history inconsistent fails the whole batch.
    let out = awdit()
        .args(["check", "--isolation", "ra"])
        .args([good.to_str().unwrap(), bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict:  consistent"), "{stdout}");
    assert!(stdout.contains("verdict:  inconsistent"), "{stdout}");

    // 2: parse errors (one bad file poisons the batch before checking).
    let garbage = tmp("contract-garbage.awdit");
    std::fs::write(&garbage, "not a history\n").unwrap();
    let out = awdit()
        .args(["check", good.to_str().unwrap(), garbage.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // 2: missing positional / unknown flag value.
    let out = awdit().args(["check"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = awdit()
        .args(["check", "--report", "xml", good.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    for f in [good, bad, garbage] {
        let _ = std::fs::remove_file(f);
    }
}

/// A directory positional checks every file inside it (sorted), and the
/// batch verdict aggregates across them.
#[test]
fn check_a_directory_of_histories() {
    let dir = {
        let mut d = std::env::temp_dir();
        d.push(format!("awdit-cli-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    };
    for seed in 0..3 {
        awdit()
            .args(["generate", "--benchmark", "uniform", "--db", "causal"])
            .args(["--sessions", "4", "--txns", "120"])
            .args(["--seed", &seed.to_string()])
            .args(["-o", dir.join(format!("h{seed}.awdit")).to_str().unwrap()])
            .output()
            .unwrap();
    }
    let out = awdit()
        .args(["check", "--isolation", "cc", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("history:").count(), 3, "{stdout}");
    assert_eq!(
        stdout.matches("verdict:  consistent").count(),
        3,
        "{stdout}"
    );

    // An empty directory is a usage error.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = awdit()
        .args(["check", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(dir);
}

/// `--report json` emits the versioned schema and parses back through
/// `awdit_formats::Report::from_json` (round-trip), both to stdout and
/// through `--output FILE`.
#[test]
fn json_report_round_trips() {
    let file = tmp("json.awdit");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "rc"])
        .args(["--sessions", "6", "--txns", "400", "--seed", "5"])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .unwrap();
    let out = awdit()
        .args(["check", "--isolation", "all", "--report", "json"])
        .arg(file.to_str().unwrap())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1)); // rc store fails ra/cc
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = awdit_formats::Report::from_json(&stdout).expect("stdout parses as the schema");
    assert_eq!(report.schema_version, awdit_formats::SCHEMA_VERSION);
    assert!(report.any_inconsistent());
    assert_eq!(report.histories.len(), 1);
    assert_eq!(report.histories[0].levels.len(), 3);
    assert!(report.histories[0].levels[0].is_consistent()); // rc
    assert!(!report.histories[0].levels[2].is_consistent()); // cc
                                                             // Inconsistent levels carry violations with cycle provenance.
    assert!(report.histories[0].levels[2]
        .violations
        .iter()
        .any(|v| v.cycle.is_some() || !v.message.is_empty()));
    // Round-trip: parse(to_json) == parsed.
    assert_eq!(
        awdit_formats::Report::from_json(&report.to_json()).unwrap(),
        report
    );

    // --output writes the same document to a file.
    let json_path = tmp("report.json");
    let out = awdit()
        .args(["check", "--isolation", "all", "--report", "json"])
        .args(["--output", json_path.to_str().unwrap()])
        .arg(file.to_str().unwrap())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = std::fs::read_to_string(&json_path).unwrap();
    let from_file = awdit_formats::Report::from_json(&text).unwrap();
    assert_eq!(from_file.histories[0].levels.len(), 3);
    let _ = std::fs::remove_file(file);
    let _ = std::fs::remove_file(json_path);
}

/// `check` and exact-mode `watch` reach the same CC verdict on a history
/// and on its event-stream form: a consistent causal history and an
/// RC-mode one.
#[test]
fn check_and_watch_agree_on_cc() {
    for db in ["causal", "rc"] {
        let file = tmp(&format!("agree-{db}.awdit"));
        let events = tmp(&format!("agree-{db}.ndjson"));
        awdit()
            .args(["generate", "--benchmark", "uniform", "--db", db])
            .args(["--sessions", "4", "--txns", "200", "--seed", "11"])
            .args(["-o", file.to_str().unwrap()])
            .output()
            .unwrap();
        awdit()
            .args(["convert", "--to", "events"])
            .args(["-o", events.to_str().unwrap()])
            .arg(file.to_str().unwrap())
            .output()
            .unwrap();
        let check = awdit()
            .args(["check", "--isolation", "cc"])
            .arg(file.to_str().unwrap())
            .output()
            .unwrap();
        let watch = awdit()
            .args(["watch", "--isolation", "cc", "--no-prune"])
            .arg(events.to_str().unwrap())
            .output()
            .unwrap();
        assert!(matches!(check.status.code(), Some(0 | 1)), "{db}: check");
        assert_eq!(check.status.code(), watch.status.code(), "{db}");
        if db == "causal" {
            assert_eq!(check.status.code(), Some(0));
            assert!(String::from_utf8_lossy(&check.stdout).contains("verdict:  consistent"));
        }
        let _ = std::fs::remove_file(file);
        let _ = std::fs::remove_file(events);
    }
}

/// An NDJSON event log checks batch-style straight through `awdit check`
/// (auto-detected, replayed into a history).
#[test]
fn check_accepts_ndjson_event_logs() {
    let file = tmp("ndj.awdit");
    let events = tmp("ndj.ndjson");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "causal"])
        .args(["--sessions", "3", "--txns", "80", "--seed", "2"])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .unwrap();
    awdit()
        .args(["convert", "--to", "events"])
        .args(["-o", events.to_str().unwrap()])
        .arg(file.to_str().unwrap())
        .output()
        .unwrap();
    let out = awdit()
        .args(["check", "--isolation", "cc", events.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict:  consistent"));
    let _ = std::fs::remove_file(file);
    let _ = std::fs::remove_file(events);
}

/// The positional `convert IN OUT` form: the output format is inferred
/// from OUT's extension, chaining a history through every supported
/// format (and the NDJSON event form) and back without changing its
/// verdicts.
#[test]
fn convert_positional_chains_all_formats() {
    let src = tmp("chain.awdit");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "ser"])
        .args(["--sessions", "3", "--txns", "60", "--seed", "5"])
        .args(["-o", src.to_str().unwrap()])
        .output()
        .unwrap();

    // native -> dbcop -> cobra -> plume -> events -> native, each leg
    // inferring the target format from the output path's extension.
    let mut files = vec![src.clone()];
    for ext in ["dbcop", "cobra", "plume", "ndjson", "awdit"] {
        let prev = files.last().unwrap().clone();
        let next = tmp(&format!("chain2.{ext}"));
        let out = awdit()
            .args(["convert", prev.to_str().unwrap(), next.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "convert -> {ext}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        files.push(next);
    }

    // The fully chained file still checks consistent at every level.
    let last = files.last().unwrap();
    let out = awdit()
        .args(["check", "--isolation", "all", last.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // ...and is byte-identical to converting the original directly
    // (the chain loses nothing: ser histories are fully committed).
    let direct = tmp("chain-direct.awdit");
    awdit()
        .args(["convert", src.to_str().unwrap(), direct.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        std::fs::read_to_string(last).unwrap(),
        std::fs::read_to_string(&direct).unwrap()
    );

    for f in files {
        let _ = std::fs::remove_file(f);
    }
    let _ = std::fs::remove_file(direct);
}

/// `check --trace --metrics` writes a well-formed Chrome trace covering
/// the engine's phases and a Prometheus snapshot that reconciles with
/// the JSON report's engine-stats block; the report carries per-phase
/// timings (schema v2).
#[test]
fn trace_and_metrics_outputs_validate() {
    let file = tmp("obs.awdit");
    let trace = tmp("obs-trace.json");
    let metrics = tmp("obs-metrics.prom");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "causal"])
        .args(["--sessions", "4", "--txns", "200", "--seed", "7"])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .unwrap();
    let out = awdit()
        .args(["check", "--isolation", "all", "--report", "json"])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--metrics", metrics.to_str().unwrap()])
        .arg(file.to_str().unwrap())
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The JSON report carries the v2 timings + engine blocks.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = awdit_formats::Report::from_json(&stdout).expect("schema v2 parses");
    let timings = &report.histories[0].timings;
    for phase in ["ingest", "index_rebuild", "saturate_cc", "cycle_extraction"] {
        assert!(
            timings.iter().any(|t| t.phase == phase && t.spans > 0),
            "missing phase `{phase}` in {timings:?}"
        );
    }
    let engine = report.engine.expect("engine stats block");
    assert_eq!(engine.histories, 1);
    assert_eq!(engine.checks, 3);
    assert!(engine.arena_bytes > 0);

    // The trace file is valid Chrome trace_event JSON with nested,
    // balanced spans (`check` wraps the per-level phases).
    let text = std::fs::read_to_string(&trace).unwrap();
    let summary = awdit_obs::chrome::validate_trace(&text).expect("trace validates");
    assert!(summary.complete_spans >= 10, "{summary:?}");
    assert!(summary.max_depth >= 2, "{summary:?}");
    for phase in ["check", "saturate_cc", "cycle_extraction"] {
        assert!(
            summary.phase_names.contains(&phase.to_string()),
            "{summary:?}"
        );
    }

    // The Prometheus snapshot parses and reconciles with the report.
    let prom = std::fs::read_to_string(&metrics).unwrap();
    let series = awdit_obs::metrics::parse_prometheus(&prom).expect("prometheus parses");
    let get = |name: &str| {
        series
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing series `{name}`"))
            .1
    };
    assert_eq!(get("awdit_engine_histories_total"), engine.histories as f64);
    assert_eq!(get("awdit_engine_checks_total"), engine.checks as f64);
    assert_eq!(get("awdit_engine_arena_bytes"), engine.arena_bytes as f64);

    for f in [file, trace, metrics] {
        let _ = std::fs::remove_file(f);
    }
}

/// `watch --metrics` exports the stream-side gauges/counters, and GC
/// activity shows up as `stream_gc` spans in the trace.
#[test]
fn watch_exports_stream_metrics_and_gc_spans() {
    let file = tmp("wobs.awdit");
    let events = tmp("wobs.ndjson");
    let trace = tmp("wobs-trace.json");
    let metrics = tmp("wobs-metrics.prom");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "causal"])
        .args(["--sessions", "4", "--txns", "200", "--seed", "7"])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .unwrap();
    awdit()
        .args(["convert", "--to", "events"])
        .args(["-o", events.to_str().unwrap()])
        .arg(file.to_str().unwrap())
        .output()
        .unwrap();
    let out = awdit()
        .args(["watch", "--isolation", "cc", "--interval", "16"])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--metrics", metrics.to_str().unwrap()])
        .arg(events.to_str().unwrap())
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let prom = std::fs::read_to_string(&metrics).unwrap();
    let series = awdit_obs::metrics::parse_prometheus(&prom).expect("prometheus parses");
    let get = |name: &str| {
        series
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing series `{name}`"))
            .1
    };
    assert!(get("awdit_stream_events_total") > 0.0);
    assert!(get("awdit_stream_processed_total") > 0.0);
    assert!(get("awdit_stream_gcs_total") >= 1.0, "prune every 16 txns");

    let text = std::fs::read_to_string(&trace).unwrap();
    let summary = awdit_obs::chrome::validate_trace(&text).expect("trace validates");
    assert!(
        summary.phase_names.contains(&"stream_gc".to_string()),
        "{summary:?}"
    );

    for f in [file, events, trace, metrics] {
        let _ = std::fs::remove_file(f);
    }
}

/// `stats --report json` emits a standalone machine-readable stats
/// object, arena footprint included.
#[test]
fn stats_report_json_is_machine_readable() {
    let file = tmp("sjson.awdit");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "causal"])
        .args(["--sessions", "6", "--txns", "100", "--seed", "4"])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .unwrap();
    let out = awdit()
        .args(["stats", "--report", "json", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = awdit_obs::chrome::json_lint(&stdout).expect("valid json");
    let awdit_obs::chrome::Json::Object(fields) = value else {
        panic!("stats json is not an object: {stdout}");
    };
    for key in ["sessions", "txns", "ops", "keys", "arena_bytes"] {
        assert!(fields.iter().any(|(n, _)| n == key), "missing `{key}`");
    }
    let _ = std::fs::remove_file(file);
}

/// Convert usage errors keep the exit-code contract: code 2, nothing
/// written.
#[test]
fn convert_usage_errors_exit_2() {
    let src = tmp("cerr.awdit");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "ser"])
        .args(["--sessions", "2", "--txns", "20", "--seed", "8"])
        .args(["-o", src.to_str().unwrap()])
        .output()
        .unwrap();
    // No --to and no output path: cannot infer a format.
    let out = awdit()
        .args(["convert", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Unknown extension without --to.
    let out = awdit()
        .args(["convert", src.to_str().unwrap(), "/tmp/x.unknownext"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Missing input file.
    let out = awdit()
        .args(["convert", "/nonexistent.awdit", "--to", "cobra"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_file(src);
}

#[test]
fn convert_to_awb_and_back_checks_identically() {
    let src = tmp("awb.awdit");
    let bin = tmp("awb.awb");
    let back = tmp("awb-back.plume");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "causal"])
        .args(["--sessions", "4", "--txns", "120", "--seed", "11"])
        .args(["-o", src.to_str().unwrap()])
        .output()
        .unwrap();

    // Text -> binary: the output must carry the magic.
    let out = awdit()
        .args(["convert", src.to_str().unwrap(), bin.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&bin).unwrap();
    assert!(bytes.starts_with(b"AWBHIST\0"), "missing .awb magic");

    // Binary -> text again (input format is magic-sniffed).
    let out = awdit()
        .args(["convert", bin.to_str().unwrap(), back.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Stable JSON reports of the text and binary runs agree except for
    // the history name.
    let report = |path: &PathBuf| {
        let out = awdit()
            .args([
                "check",
                "--isolation",
                "all",
                "--stable-report",
                "--report",
                "json",
            ])
            .arg(path.to_str().unwrap())
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let text_json = report(&src).replace(src.file_name().unwrap().to_str().unwrap(), "H");
    let bin_json = report(&bin).replace(bin.file_name().unwrap().to_str().unwrap(), "H");
    assert_eq!(text_json, bin_json, "stable reports diverged");

    for f in [&src, &bin, &back] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn check_threads_flag_agrees() {
    let file = tmp("flags.awdit");
    awdit()
        .args(["generate", "--benchmark", "uniform", "--db", "causal"])
        .args(["--sessions", "4", "--txns", "150", "--seed", "3"])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .unwrap();
    let run = |extra: &[&str]| {
        let out = awdit()
            .args([
                "check",
                "--isolation",
                "all",
                "--stable-report",
                "--report",
                "json",
            ])
            .args(extra)
            .arg(file.to_str().unwrap())
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let reference = run(&[]);
    assert_eq!(reference, run(&["--threads", "8"]));
    assert_eq!(reference, run(&["--threads", "2"]));
    let _ = std::fs::remove_file(file);
}

/// A directory holding one malformed file between two good ones fails
/// the same way at every thread count: exit 2, and stderr byte for byte.
#[test]
fn malformed_file_in_a_directory_fails_identically_at_every_thread_count() {
    let dir = tmp("malformed-dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["a.awdit", "c.awdit"] {
        awdit()
            .args(["generate", "--benchmark", "uniform", "--db", "causal"])
            .args(["--sessions", "3", "--txns", "60", "--seed", "5"])
            .args(["-o", dir.join(name).to_str().unwrap()])
            .output()
            .unwrap();
    }
    std::fs::write(dir.join("b.awdit"), "definitely not a history\n").unwrap();
    let run = |threads: &str| {
        let out = awdit()
            .args(["check", "--isolation", "all", "--threads", threads])
            .arg(dir.to_str().unwrap())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "threads {threads}");
        assert!(
            out.stdout.is_empty(),
            "threads {threads}: no report on error"
        );
        String::from_utf8(out.stderr).unwrap()
    };
    let stderr = run("1");
    assert!(stderr.contains("b.awdit"), "unexpected stderr: {stderr}");
    assert_eq!(stderr, run("2"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unrecognized_binary_input_exits_2_with_clean_error() {
    let junk = tmp("junk.awdit");
    let bytes: Vec<u8> = (0..512u32).map(|i| (i * 7 % 256) as u8).collect();
    std::fs::write(&junk, bytes).unwrap();
    let out = awdit()
        .args(["check", junk.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unrecognized binary data"),
        "unexpected stderr: {stderr}"
    );
    let _ = std::fs::remove_file(junk);
}

/// Fig. 4b as an event stream: session 0 commits `W(x,1)` and then
/// `W(x,2) W(y,2)`; session 1 reads `x = 1, y = 2` — one fractured read.
/// Two writes carry 40,000-byte padding fields, so the second straddles
/// `watch`'s 64 KiB read boundary; one line ends in CRLF, and the last
/// has no newline.
fn fractured_read_stream() -> String {
    let pad = "p".repeat(40_000);
    [
        r#"{"type":"begin","session":0}"#.to_string(),
        format!(r#"{{"type":"write","session":0,"key":0,"value":1,"pad":"{pad}"}}"#),
        r#"{"type":"commit","session":0}"#.to_string() + "\r",
        r#"{"type":"begin","session":0}"#.to_string(),
        format!(r#"{{"type":"write","session":0,"key":0,"value":2,"pad":"{pad}"}}"#),
        r#"{"type":"write","session":0,"key":1,"value":2}"#.to_string(),
        r#"{"type":"commit","session":0}"#.to_string(),
        r#"{"type":"begin","session":1}"#.to_string(),
        r#"{"type":"read","session":1,"key":0,"value":1}"#.to_string(),
        r#"{"type":"read","session":1,"key":1,"value":2}"#.to_string(),
        r#"{"type":"commit","session":1}"#.to_string(),
    ]
    .join("\n")
}

/// `watch` reads a file and stdin in fixed-size chunks, carrying partial
/// lines between reads: both see the same lines, long and unterminated
/// ones included, and print the same report. Invalid UTF-8 is an input
/// error (exit 2) naming its line.
#[test]
fn watch_file_and_stdin_intake_agree() {
    let events = tmp("intake.ndjson");
    std::fs::write(&events, fractured_read_stream()).unwrap();
    let from_file = awdit()
        .args(["watch", "--isolation", "ra"])
        .arg(&events)
        .output()
        .unwrap();
    let from_stdin = awdit()
        .args(["watch", "--isolation", "ra", "-"])
        .stdin(std::fs::File::open(&events).unwrap())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&from_file.stdout);
    assert_eq!(from_file.status.code(), Some(1), "{stdout}");
    assert_eq!(from_stdin.status.code(), Some(1));
    assert_eq!(from_file.stdout, from_stdin.stdout);
    assert!(stdout.contains("processed 11 events / 3 txns"), "{stdout}");
    assert_eq!(stdout.matches("VIOLATION").count(), 1, "{stdout}");

    let mut bytes = fractured_read_stream().into_bytes();
    let at = bytes.len() - 3;
    bytes.insert(at, 0xff);
    std::fs::write(&events, bytes).unwrap();
    let out = awdit().arg("watch").arg(&events).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 11: invalid UTF-8"), "{stderr}");
    let _ = std::fs::remove_file(events);
}

/// `watch --follow` carries a partial last line across polls: the
/// violation is reported once the line's rest is appended, and SIGTERM
/// then ends the run with the usual summary.
#[cfg(unix)]
#[test]
fn watch_follow_completes_a_partial_line() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let events = tmp("follow.ndjson");
    let text = fractured_read_stream() + "\n";
    let split = text.len() - 10;
    std::fs::write(&events, &text[..split]).unwrap();
    let mut child = awdit()
        .args(["watch", "--isolation", "ra", "--follow"])
        .arg(&events)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Give the watcher time to read the partial line first; the outcome
    // is the same either way.
    std::thread::sleep(std::time::Duration::from_millis(500));
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&events)
        .unwrap();
    file.write_all(&text.as_bytes()[split..]).unwrap();
    drop(file);

    // Wait (bounded) for the live violation line, then stop the watcher.
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.unwrap();
            if line.contains("VIOLATION") {
                let _ = tx.send(());
            }
            lines.push(line);
        }
        lines
    });
    let seen = rx.recv_timeout(std::time::Duration::from_secs(60));
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    let status = child.wait().unwrap();
    let lines = reader.join().unwrap();
    assert!(seen.is_ok(), "no violation reported: {lines:?}");
    assert_eq!(status.code(), Some(1), "{lines:?}");
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("processed 11 events / 3 txns")),
        "{lines:?}"
    );
    let _ = std::fs::remove_file(events);
}

/// `watch` caps an event line at 64 KiB: a longer line, even one with no
/// newline at all, is an input error (exit 2) naming its line, from a
/// file and from stdin.
#[test]
fn watch_rejects_an_overlong_line() {
    let events = tmp("overlong.ndjson");
    let begin = r#"{"type":"begin","session":0}"#;
    let write = r#"{"type":"write","session":0,"key":5,"value":5}"#;
    let long = format!(
        r#"{{"type":"write","session":0,"key":0,"value":1,"pad":"{}"#,
        "p".repeat(200_000)
    );
    for (text, line) in [
        (long.clone(), 1),
        (format!("{begin}\n{write}\n{long}"), 3),
        (format!("{begin}\n{long}\n{write}\n"), 2),
    ] {
        std::fs::write(&events, &text).unwrap();
        let from_file = awdit().arg("watch").arg(&events).output().unwrap();
        let from_stdin = awdit()
            .args(["watch", "-"])
            .stdin(std::fs::File::open(&events).unwrap())
            .output()
            .unwrap();
        for out in [from_file, from_stdin] {
            assert_eq!(out.status.code(), Some(2));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("line {line}: event line longer than 65536 bytes")),
                "{stderr}"
            );
        }
    }
    let _ = std::fs::remove_file(events);
}

/// Every subcommand rejects a flag it does not know with exit 2 and names
/// it, instead of reading it as a value pair. A misspelt `--isolation`
/// would otherwise check the default level (CC) on a history that only
/// claims RC: exit 1 instead of 0.
#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    let history = tmp("flags-fig4b.ndjson");
    let fig4b = [
        r#"{"type":"begin","session":0}"#,
        r#"{"type":"write","session":0,"key":0,"value":1}"#,
        r#"{"type":"commit","session":0}"#,
        r#"{"type":"begin","session":0}"#,
        r#"{"type":"write","session":0,"key":0,"value":2}"#,
        r#"{"type":"write","session":0,"key":1,"value":2}"#,
        r#"{"type":"commit","session":0}"#,
        r#"{"type":"begin","session":1}"#,
        r#"{"type":"read","session":1,"key":0,"value":1}"#,
        r#"{"type":"read","session":1,"key":1,"value":2}"#,
        r#"{"type":"commit","session":1}"#,
    ];
    std::fs::write(&history, fig4b.join("\n") + "\n").unwrap();
    let h = history.to_str().unwrap();
    let code = |args: &[&str]| awdit().args(args).output().unwrap().status.code();
    assert_eq!(code(&["check", "--isolation", "rc", h]), Some(0));
    assert_eq!(code(&["check", h]), Some(1));

    for (args, flag) in [
        (vec!["check", "--isolaton", "rc", h], "--isolaton"),
        (vec!["check", "--no-overlap", h], "--no-overlap"),
        (vec!["watch", "--threads", "2", h], "--threads"),
        (
            vec!["watch", "--cc-strategy", "pointer-scan", h],
            "--cc-strategy",
        ),
        (
            vec!["check", "--cc-strategy", "binary-search", h],
            "--cc-strategy",
        ),
        (
            vec!["shrink", "--cc-strategy", "binary-search", h],
            "--cc-strategy",
        ),
        (
            vec!["serve", "--addr", "127.0.0.1:0", "--stream-threads", "2"],
            "--stream-threads",
        ),
        (
            vec!["shrink", "--isolation", "ra", "--witnesses", "3", h],
            "--witnesses",
        ),
        (vec!["stats", "--to", "awb", h], "--to"),
        (vec!["convert", "--report", "json", h], "--report"),
        (vec!["generate", "--txns", "10", "--follow"], "--follow"),
    ] {
        let out = awdit().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(history);
}

/// `generate -o h.awb` writes the binary form, as `convert` does for an
/// `.awb` output: the file starts with the `.awb` magic, and checking it
/// gives the same stable report as the `convert --to awb` twin of the
/// native text.
#[test]
fn generate_picks_the_format_from_the_extension() {
    let dir = tmp("gen-ext");
    let _ = std::fs::remove_dir_all(&dir);
    for side in ["generated", "converted"] {
        std::fs::create_dir_all(dir.join(side)).unwrap();
    }
    let generated = dir.join("generated").join("h.awb");
    let converted = dir.join("converted").join("h.awb");
    let text = dir.join("h.awdit");
    for out in [&generated, &text] {
        let run = awdit()
            .args(["generate", "--benchmark", "uniform", "--db", "rc"])
            .args(["--sessions", "4", "--txns", "300", "--seed", "5"])
            .args(["-o", out.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    let run = awdit()
        .args(["convert", "--to", "awb"])
        .args([text.to_str().unwrap(), converted.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(std::fs::read(&generated).unwrap().starts_with(b"AWBHIST"));
    let report = |side: &str| {
        let out = awdit()
            .current_dir(dir.join(side))
            .args(["check", "--isolation", "all", "--stable-report"])
            .args(["--report", "json", "h.awb"])
            .output()
            .unwrap();
        (out.status.code(), out.stdout)
    };
    let generated_report = report("generated");
    assert_eq!(
        generated_report.0,
        Some(1),
        "an RC store's history breaks CC"
    );
    assert_eq!(generated_report, report("converted"));
    let _ = std::fs::remove_dir_all(dir);
}

/// A 43-byte history naming session 1,000,000 holds one transaction.
/// Per-session check state covers only sessions with a committed
/// transaction, so `check --isolation cc` (whose clock frontiers are
/// `k × k`) finishes under a 4 GB address-space cap, as text and as an
/// `.awb` whose session-offset section lists a million empty sessions.
#[test]
fn a_million_empty_sessions_check_under_a_memory_cap() {
    let text = tmp("million-sessions.awdit");
    let text_bytes = "awdit-history v1\nsession 1000000\nc: w(0,1)\n";
    assert_eq!(text_bytes.len(), 43);
    std::fs::write(&text, text_bytes).unwrap();
    let awb = tmp("million-sessions.awb");
    let out = awdit()
        .args(["convert", "--to", "awb"])
        .arg(&text)
        .arg("-o")
        .arg(&awb)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // 1,000,002 session offsets of 4 bytes each.
    assert!(std::fs::metadata(&awb).unwrap().len() > 4_000_000);
    for file in [&text, &awb] {
        for level in ["cc", "all"] {
            let out = Command::new("sh")
                .arg("-c")
                .arg(r#"ulimit -v 4000000 && exec "$0" check --isolation "$1" "$2""#)
                .arg(env!("CARGO_BIN_EXE_awdit"))
                .arg(level)
                .arg(file)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{} --isolation {level}: {stdout}{}",
                file.display(),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.contains("1000001 sessions"), "{stdout}");
            assert!(stdout.contains("consistent"), "{stdout}");
            assert!(!stdout.contains("inconsistent"), "{stdout}");
        }
    }
    let _ = std::fs::remove_file(text);
    let _ = std::fs::remove_file(awb);
}
