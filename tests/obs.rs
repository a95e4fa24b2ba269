//! Observability must be a read-only lens on the checkers: attaching a
//! recorder and metrics registry cannot change any verdict, violation,
//! or statistic, and what the lens reports must reconcile exactly with
//! the engine's own counters.
//!
//! Four contracts are pinned here:
//!
//! 1. **Differential transparency** — instrumented and uninstrumented
//!    runs produce identical outcomes (verdict, violations in order,
//!    check stats) across all three isolation levels and thread counts
//!    1 and 8.
//! 2. **Trace well-formedness** — the Chrome `trace_event` export is
//!    valid JSON with balanced, properly nested `B`/`E` spans and
//!    monotone timestamps per thread.
//! 3. **Prometheus golden output** — the text exposition format is
//!    byte-stable for a known registry.
//! 4. **Metric/stat reconciliation** — engine and stream counters equal
//!    the corresponding `EngineStats`/`StreamStats` fields (and the edge
//!    counters the summed `CheckStats`) when the `Obs` handle is attached
//!    before the first event; the CC search counters match a hand count
//!    and are the same at every thread count.

use awdit::baselines::{random_noisy_history, random_plausible_history, GenParams};
use awdit::obs::chrome::{json_lint, validate_trace, ChromeTraceRecorder};
use awdit::obs::Obs;
use awdit::stream::{events_of_history, StreamConfig};
use awdit::workloads::Uniform;
use awdit::{
    collect_history, DbIsolation, Engine, EngineConfig, History, HistoryBuilder, IsolationLevel,
    SimConfig,
};
use std::sync::Arc;

fn gen_histories() -> Vec<(String, History)> {
    let params = GenParams {
        sessions: 4,
        txns: 60,
        keys: 8,
        max_txn_ops: 6,
        ..GenParams::default()
    };
    let mut out = Vec::new();
    for seed in 0..4u64 {
        out.push((
            format!("plausible-{seed}"),
            random_plausible_history(seed, params),
        ));
        out.push((format!("noisy-{seed}"), random_noisy_history(seed, params)));
    }
    out
}

/// Everything observable about an outcome, as one comparable string.
fn fingerprint(h: &History, level: IsolationLevel, threads: usize, obs: Option<&Obs>) -> String {
    let mut engine = Engine::with_config(EngineConfig {
        level,
        threads,
        ..EngineConfig::default()
    });
    if let Some(obs) = obs {
        engine.set_obs(obs.clone());
    }
    let o = engine.check(h);
    format!("{:?}|{:?}|{:?}", o.verdict(), o.violations(), o.stats())
}

#[test]
fn instrumentation_never_changes_outcomes() {
    for (name, h) in gen_histories() {
        for level in IsolationLevel::ALL {
            for threads in [1usize, 8] {
                let plain = fingerprint(&h, level, threads, None);
                // Full instrumentation: recorder + metrics + phases.
                let obs = Obs::builder().recorder(ChromeTraceRecorder::new()).build();
                let traced = fingerprint(&h, level, threads, Some(&obs));
                assert_eq!(
                    plain, traced,
                    "outcome drift on {name} at {level:?} threads={threads}"
                );
                // Metrics-only instrumentation (no recorder) too.
                let obs = Obs::new();
                let metered = fingerprint(&h, level, threads, Some(&obs));
                assert_eq!(
                    plain, metered,
                    "metrics-only drift on {name} at {level:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn traces_are_well_formed() {
    let recorder = Arc::new(ChromeTraceRecorder::new());
    let obs = Obs::builder().recorder_arc(recorder.clone()).build();
    let mut engine = Engine::with_config(EngineConfig {
        level: IsolationLevel::Causal,
        threads: 8,
        ..EngineConfig::default()
    });
    engine.set_obs(obs);
    for (_, h) in gen_histories() {
        engine.check(&h);
        let all = engine.check_all_levels(&h);
        assert_eq!(all.len(), 3);
    }
    let json = recorder.to_json();
    // Valid JSON at all (own parser, no serde anywhere in the tree)...
    json_lint(&json).expect("trace is valid JSON");
    // ...and a well-formed trace: balanced nested spans, monotone per-tid
    // timestamps, the engine's phase names present.
    let summary = validate_trace(&json).expect("trace validates");
    assert!(summary.complete_spans > 0);
    assert!(summary.max_depth >= 2, "spans must nest: {summary:?}");
    for phase in [
        "check",
        "index_rebuild",
        "index_rows",
        "index_by_key",
        "saturate_cc",
    ] {
        assert!(
            summary.phase_names.contains(&phase.to_string()),
            "missing {phase} in {summary:?}"
        );
    }
}

#[test]
fn prometheus_export_is_byte_stable() {
    let obs = Obs::new();
    let m = obs.metrics().expect("enabled obs has a registry");
    m.counter("awdit_requests_total").add(3);
    m.counter("awdit_errors_total{kind=\"parse\"}").add(1);
    m.counter("awdit_errors_total{kind=\"io\"}").add(2);
    m.gauge("awdit_pool_utilization").set(0.75);
    m.gauge("awdit_live_txns").set(12.0);
    let h = m.histogram("awdit_batch_us");
    h.observe(1);
    h.observe(3);
    h.observe(100);
    // Counters, then gauges, then histograms — each alphabetically,
    // labeled series grouped under one `# TYPE` line, histogram buckets
    // cumulative with log2-boundaries (1, 3, ..., 2^i - 1) and `+Inf`.
    let golden = "\
# TYPE awdit_errors_total counter
awdit_errors_total{kind=\"io\"} 2
awdit_errors_total{kind=\"parse\"} 1
# TYPE awdit_requests_total counter
awdit_requests_total 3
# TYPE awdit_live_txns gauge
awdit_live_txns 12
# TYPE awdit_pool_utilization gauge
awdit_pool_utilization 0.75
# TYPE awdit_batch_us histogram
awdit_batch_us_bucket{le=\"1\"} 1
awdit_batch_us_bucket{le=\"3\"} 2
awdit_batch_us_bucket{le=\"127\"} 3
awdit_batch_us_bucket{le=\"+Inf\"} 3
awdit_batch_us_sum 104
awdit_batch_us_count 3
";
    assert_eq!(obs.export_prometheus(), golden);
    // And the export stays parseable by the scrape-side helper.
    let series = awdit::obs::metrics::parse_prometheus(&obs.export_prometheus()).unwrap();
    assert!(series
        .iter()
        .any(|(n, v)| n == "awdit_requests_total" && *v == 3.0));
}

#[test]
fn engine_metrics_reconcile_with_engine_stats() {
    let obs = Obs::new();
    let mut engine = Engine::with_config(EngineConfig {
        level: IsolationLevel::Causal,
        ..EngineConfig::default()
    });
    engine.set_obs(obs.clone());
    let histories = gen_histories();
    let mut outcomes: Vec<_> = histories.iter().map(|(_, h)| engine.check(h)).collect();
    outcomes.extend(engine.check_all_levels(&histories[0].1));

    let stats = engine.stats();
    let snap = obs.metrics().unwrap().snapshot();
    // Edge counters: emitted (duplicates counted) and kept (distinct), per
    // check, summed over every outcome.
    let emitted: usize = outcomes.iter().map(|o| o.stats().emitted_edges).sum();
    let kept: usize = outcomes.iter().map(|o| o.stats().graph_edges).sum();
    assert!(
        kept > 0 && emitted >= kept,
        "emitted {emitted}, kept {kept}"
    );
    assert_eq!(
        snap.counter("awdit_engine_edges_emitted_total"),
        Some(emitted as u64)
    );
    assert_eq!(
        snap.counter("awdit_engine_edges_kept_total"),
        Some(kept as u64)
    );
    assert_eq!(
        snap.counter("awdit_engine_histories_total"),
        Some(stats.histories)
    );
    assert_eq!(
        snap.counter("awdit_engine_checks_total"),
        Some(stats.checks)
    );
    assert_eq!(
        snap.counter("awdit_engine_arena_growths_total"),
        Some(stats.arena_growths)
    );
    assert_eq!(
        snap.gauge("awdit_engine_arena_bytes"),
        Some(stats.arena_bytes as f64)
    );
    // The per-arena gauges split the total exactly.
    let per_arena: f64 = ["history", "ingest", "index", "graph", "clocks"]
        .iter()
        .map(|arena| {
            snap.gauge(&format!("awdit_engine_arena_bytes{{arena=\"{arena}\"}}"))
                .unwrap_or_else(|| panic!("missing arena gauge {arena}"))
        })
        .sum();
    assert_eq!(per_arena, stats.arena_bytes as f64);
    // Phase aggregates exist for every span the engine claims to emit.
    let phases = obs.phase_timings();
    for p in [
        "check",
        "index_rebuild",
        "index_rows",
        "index_by_key",
        "saturate_cc",
    ] {
        assert!(
            phases.iter().any(|t| t.name == p && t.count > 0),
            "missing phase {p}"
        );
    }
}

/// The per-stage pool series must partition the aggregate pool counters:
/// every fork is attributed to exactly one named stage, and the labeled
/// busy-time counters sum to `awdit_pool_busy_ns_total` exactly.
/// The CC kernel's work counters after one causal check of `h`:
/// `(awdit_cc_writer_searches_total, awdit_cc_search_probes_total)`.
fn cc_search_counters(h: &History, threads: usize) -> (u64, u64) {
    let obs = Obs::new();
    let mut engine = Engine::with_config(EngineConfig {
        level: IsolationLevel::Causal,
        threads,
        ..EngineConfig::default()
    });
    engine.set_obs(obs.clone());
    engine.check(h);
    let snap = obs.metrics().unwrap().snapshot();
    let get = |name| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    (
        get("awdit_cc_writer_searches_total"),
        get("awdit_cc_search_probes_total"),
    )
}

/// The CC search counters are exact and do not depend on `--threads`.
///
/// By hand: `t1, t2` write `x` in session 0; `t3` reads `t2`'s `x` and
/// writes `y`; `t4` reads `t3`'s `y`, then `t1`'s `x`, and `t5` reads
/// `t1`'s `x` again. Only `t4` and `t5` search (every other pair's writer
/// already sees what the reader sees), both in session 0's list
/// `[t1, t2]` for the writers before position 2: `t4` finds no cursor for
/// the list and binary searches it (two compares), leaving the cursor at
/// 2, where `t5` confirms the answer with one compare.
#[test]
fn cc_search_counters_are_exact_and_thread_invariant() {
    let mut b = HistoryBuilder::new();
    let (s0, s1, s2) = (b.session(), b.session(), b.session());
    let (x, y) = (0, 1);
    for v in [1, 2] {
        b.begin(s0);
        b.write(s0, x, v);
        b.commit(s0);
    }
    b.begin(s1);
    b.read(s1, x, 2);
    b.write(s1, y, 3);
    b.commit(s1);
    b.begin(s2);
    b.read(s2, y, 3);
    b.read(s2, x, 1);
    b.commit(s2);
    b.begin(s2);
    b.read(s2, x, 1);
    b.commit(s2);
    let hand = b.finish().unwrap();
    for threads in [1, 2, 8] {
        assert_eq!(cc_search_counters(&hand, threads), (2, 3), "t{threads}");
    }

    let h = collect_history(
        SimConfig::new(DbIsolation::Causal, 16, 7),
        &mut Uniform::default(),
        20_000,
    )
    .unwrap();
    let (searches, probes) = cc_search_counters(&h, 1);
    assert!(
        searches > 0 && probes >= searches,
        "{searches} searches, {probes} probes"
    );
    for threads in [2, 8] {
        assert_eq!(
            cc_search_counters(&h, threads),
            (searches, probes),
            "t{threads}"
        );
    }
}

#[test]
fn pool_stage_series_partition_the_aggregates() {
    let obs = Obs::new();
    let mut engine = Engine::with_config(EngineConfig {
        level: IsolationLevel::Causal,
        threads: 8,
        ..EngineConfig::default()
    });
    engine.set_obs(obs.clone());
    // Big enough to clear the sequential cutoff so the sharded stages
    // actually fork; staleness 0 keeps the
    // history repeatable-read-clean, so the RA level reaches saturation
    // instead of stopping at the precheck.
    let h = random_plausible_history(
        5,
        GenParams {
            sessions: 8,
            txns: 2000,
            keys: 24,
            max_txn_ops: 4,
            staleness: 0.0,
            ..GenParams::default()
        },
    );
    engine.check_all_levels(&h);

    let series = awdit::obs::metrics::parse_prometheus(&obs.export_prometheus()).unwrap();
    let sum_of = |name: &str| -> f64 {
        series
            .iter()
            .filter(|(n, _)| n.starts_with(&format!("{name}{{stage=\"")))
            .map(|(_, v)| v)
            .sum()
    };
    let total = |name: &str| -> f64 {
        series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .expect("aggregate series present")
    };
    for stage in ["saturate_rc", "saturate_ra", "cc_binary_search"] {
        let name = format!("awdit_pool_stage_forks_total{{stage=\"{stage}\"}}");
        assert!(
            series.iter().any(|(n, v)| *n == name && *v > 0.0),
            "missing stage series {name}"
        );
    }
    // The clock pass runs on the calling thread: a phase, not a fork.
    assert!(
        obs.phase_timings()
            .iter()
            .any(|t| t.name == "cc_clock_pass" && t.count > 0),
        "missing phase cc_clock_pass"
    );
    assert_eq!(
        sum_of("awdit_pool_stage_forks_total"),
        total("awdit_pool_forks_total"),
        "stage forks must partition the aggregate"
    );
    assert_eq!(
        sum_of("awdit_pool_stage_busy_ns_total"),
        total("awdit_pool_busy_ns_total"),
        "stage busy time must partition the aggregate"
    );
}

#[test]
fn stream_metrics_reconcile_with_stream_stats() {
    let mut condensed = 0;
    for (name, h) in gen_histories() {
        let obs = Obs::new();
        let mut checker = awdit::OnlineChecker::with_config(StreamConfig {
            level: IsolationLevel::Causal,
            prune_interval: 8,
            ..StreamConfig::default()
        });
        checker.set_obs(obs.clone());
        for e in events_of_history(&h) {
            checker.apply(&e).unwrap();
        }
        let outcome = checker.finish().unwrap();
        let s = outcome.stats();
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(
            snap.counter("awdit_stream_events_total"),
            Some(s.events),
            "{name}"
        );
        assert_eq!(
            snap.counter("awdit_stream_processed_total"),
            Some(s.processed),
            "{name}"
        );
        assert_eq!(
            snap.counter("awdit_stream_retired_total"),
            Some(s.retired_txns),
            "{name}"
        );
        assert_eq!(
            snap.counter("awdit_stream_condensed_edges_total"),
            Some(s.condensed_edges),
            "{name}"
        );
        assert_eq!(
            snap.counter("awdit_stream_violations_total"),
            Some(s.violations),
            "{name}"
        );
        assert_eq!(
            snap.counter("awdit_stream_horizon_misses_total"),
            Some(s.horizon_misses),
            "{name}"
        );
        assert_eq!(
            snap.gauge("awdit_stream_live_txns"),
            Some(s.live_txns as f64),
            "{name}"
        );
        assert_eq!(
            snap.gauge("awdit_stream_staged_txns"),
            Some(s.staged_txns as f64),
            "{name}"
        );
        condensed += s.condensed_edges;
    }
    assert!(condensed > 0, "no history condensed an edge");
}
