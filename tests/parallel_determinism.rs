//! Differential property suite for the sharded saturation engine: for
//! generated histories, `threads ∈ {1, 2, 8}` must produce **identical**
//! outcomes — verdict, violation list order, witness cycles, commit order,
//! and stats — because the engine merges thread-local edge sinks in a
//! canonical shard order (see `awdit_core::parallel`).
//!
//! Histories come from the same generators the streaming differential
//! suite uses (`awdit::baselines`), plus simulator-backed wide histories
//! (64 sessions) that are large enough to clear the engine's sequential
//! cutoff and genuinely exercise the multi-threaded path.

use awdit::baselines::{random_noisy_history, random_plausible_history, GenParams};
use awdit::core::cc::CcStrategy;
use awdit::core::parallel::SEQUENTIAL_CUTOFF;
use awdit::core::{
    base_commit_graph, compute_hb_into, compute_hb_wavefront_into, saturate_cc_with, ClockTable,
    CommitGraph, EdgeKind, HistoryIndex,
};
use awdit::{check_with, CheckOptions, DbIsolation, History, IsolationLevel};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Everything observable about an [`awdit::Outcome`], as one comparable
/// string: verdict, violations (in order), witness cycles, commit order,
/// and stats.
fn fingerprint(h: &History, level: IsolationLevel, opts: &CheckOptions) -> String {
    let o = check_with(h, level, opts);
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        o.verdict(),
        o.violations(),
        o.commit_order(),
        o.stats()
    )
}

fn assert_thread_invariant(h: &History, label: &str) {
    for level in IsolationLevel::ALL {
        for strategy in [CcStrategy::PointerScan, CcStrategy::BinarySearch] {
            let base = CheckOptions {
                cc_strategy: strategy,
                want_commit_order: true,
                threads: 1,
                ..CheckOptions::default()
            };
            let reference = fingerprint(h, level, &base);
            for threads in &THREAD_COUNTS[1..] {
                let opts = CheckOptions {
                    threads: *threads,
                    ..base
                };
                let got = fingerprint(h, level, &opts);
                assert_eq!(
                    reference, got,
                    "outcome diverged [{label}] level {level} strategy {strategy:?} \
                     threads {threads}"
                );
            }
        }
    }
}

/// Small generated histories across the parameter grid (these mostly run
/// below the sequential cutoff — the invariant must hold there too).
#[test]
fn generated_histories_are_thread_invariant() {
    for seed in 0..30u64 {
        let params = GenParams {
            sessions: 1 + (seed as usize % 5),
            txns: 10 + (seed as usize % 23),
            keys: 2 + seed % 5,
            max_txn_ops: 2 + (seed as usize % 5),
            read_ratio: 0.3 + 0.1 * ((seed % 5) as f64),
            staleness: 0.2 * ((seed % 5) as f64),
        };
        assert_thread_invariant(
            &random_plausible_history(seed, params),
            &format!("plausible/{seed}"),
        );
        assert_thread_invariant(
            &random_noisy_history(seed, params),
            &format!("noisy/{seed}"),
        );
    }
}

/// Histories big enough to clear [`SEQUENTIAL_CUTOFF`], so the sharded
/// multi-thread path actually runs (both consistent and violating ones).
#[test]
fn large_histories_are_thread_invariant() {
    for (seed, staleness) in [(1u64, 0.0), (2, 0.4), (3, 0.9)] {
        let params = GenParams {
            sessions: 8,
            txns: SEQUENTIAL_CUTOFF + 300,
            keys: 24,
            max_txn_ops: 4,
            read_ratio: 0.5,
            staleness,
        };
        let h = random_plausible_history(seed, params);
        assert!(h.num_txns() > SEQUENTIAL_CUTOFF);
        assert_thread_invariant(&h, &format!("large/{seed}"));
    }
}

/// A wide 64-session simulator history (the scaling-bench workload shape):
/// the parallel CC saturation must emit the exact same edges as the
/// sequential one, so the built graph matches packed successor for packed
/// successor, in the same per-node order.
#[test]
fn wide_history_cc_graph_is_edge_identical() {
    let h = wide_uniform_history(64, 1600, 42);
    let index = HistoryIndex::new(&h);
    assert!(index.num_committed() > SEQUENTIAL_CUTOFF);
    for strategy in [CcStrategy::PointerScan, CcStrategy::BinarySearch] {
        let mut sequential = saturate_cc_with(&index, strategy, 1).expect("acyclic base");
        sequential.freeze();
        for threads in [2usize, 8] {
            let mut parallel = saturate_cc_with(&index, strategy, threads).expect("acyclic base");
            parallel.freeze();
            assert_eq!(sequential.num_emitted_edges(), parallel.num_emitted_edges());
            assert_eq!(sequential.num_edges(), parallel.num_edges());
            assert_eq!(
                sequential.num_inferred_edges(),
                parallel.num_inferred_edges()
            );
            for v in 0..index.num_committed() as u32 {
                assert_eq!(
                    sequential.successors(v),
                    parallel.successors(v),
                    "successor list of {v} diverged ({strategy:?}, {threads} threads)"
                );
            }
        }
    }
    assert_thread_invariant(&h, "wide-uniform");
}

/// The online checker's sharded per-commit CC inference: a stream with
/// very wide read sets must produce identical violations and stats at
/// every thread count.
#[test]
fn online_checker_is_thread_invariant_on_wide_commits() {
    use awdit::stream::{OnlineChecker, StreamConfig};

    let run = |threads: usize| {
        let mut c = OnlineChecker::with_config(StreamConfig {
            level: IsolationLevel::Causal,
            prune: false,
            threads,
            ..StreamConfig::default()
        });
        // 4 writer sessions × 96 keys, then readers with wide (fractured)
        // read sets touching every key.
        let keys = 96u64;
        for w in 0..4u64 {
            c.begin(w).unwrap();
            for k in 0..keys {
                c.write(w, k, w * keys + k + 1).unwrap();
            }
            c.commit(w).unwrap();
        }
        for r in 0..3u64 {
            let reader = 10 + r;
            c.begin(reader).unwrap();
            for k in 0..keys {
                // Mix writers per key: stale reads that CC must order.
                let w = (k + r) % 4;
                c.read(reader, k, w * keys + k + 1).unwrap();
            }
            c.commit(reader).unwrap();
        }
        let outcome = c.finish().unwrap();
        format!("{:?}|{:?}", outcome.violations(), outcome.stats())
    };

    let reference = run(1);
    for threads in [2usize, 8] {
        assert_eq!(
            reference,
            run(threads),
            "stream diverged at {threads} threads"
        );
    }
}

/// Per-stage differential: the wavefront clock pass must produce the
/// exact clock table of the sequential `ComputeHB`, row for row (rows
/// land in different *slots* — identity vs allocation order — so the
/// comparison goes through [`ClockTable::row`], never raw buffers).
#[test]
fn wavefront_clock_pass_matches_sequential_rows() {
    let mut cases = vec![
        ("wide", wide_uniform_history(64, 1600, 7)),
        (
            "noisy",
            random_noisy_history(
                11,
                GenParams {
                    sessions: 8,
                    txns: SEQUENTIAL_CUTOFF + 400,
                    keys: 16,
                    ..GenParams::default()
                },
            ),
        ),
    ];
    // One session: the wavefront has no width — the fallback must still
    // produce identical rows.
    cases.push((
        "one-session",
        random_plausible_history(
            3,
            GenParams {
                sessions: 1,
                txns: SEQUENTIAL_CUTOFF + 100,
                keys: 8,
                ..GenParams::default()
            },
        ),
    ));
    for (label, h) in &cases {
        let index = HistoryIndex::new(h);
        let g = base_commit_graph(&index);
        let Some(topo) = g.topological_order() else {
            panic!("[{label}] base graph must be acyclic");
        };
        let mut seq = ClockTable::new();
        compute_hb_into(&index, &topo, &mut seq);
        for threads in [2usize, 8] {
            let mut par = ClockTable::new();
            compute_hb_wavefront_into(&index, &topo, threads, &mut par);
            for &t in &topo {
                assert_eq!(
                    seq.row(t),
                    par.row(t),
                    "clock row of t{t} diverged [{label}] at {threads} threads"
                );
            }
        }
    }
}

/// Per-stage differential: the forward–backward SCC decomposition must
/// produce the same canonical partition *and* the same witness cycles as
/// single-threaded Tarjan, on graph shapes chosen to stress it: one
/// giant SCC (trim peels nothing), a pure path (trim peels everything),
/// and a deterministic random mix of small SCCs inside a DAG.
#[test]
fn parallel_sccs_and_cycles_match_tarjan() {
    let giant = {
        // A 3000-cycle plus deterministic chords: one SCC spanning every
        // node, well above the FW-BW engagement cutoff.
        let n = 3000u32;
        let mut g = CommitGraph::new(n as usize);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, EdgeKind::SessionOrder);
        }
        for v in (0..n).step_by(7) {
            g.add_edge(v, (v + 997) % n, EdgeKind::Inferred(awdit::core::Key(0)));
        }
        g.freeze();
        g
    };
    let path = {
        let n = 2500u32;
        let mut g = CommitGraph::new(n as usize);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1, EdgeKind::SessionOrder);
        }
        g.freeze();
        g
    };
    let mixed = {
        // Forward DAG edges (v -> v + step) keep it mostly acyclic; every
        // 16th node gets a short back edge, closing a small local SCC.
        let n = 4000u32;
        let mut g = CommitGraph::new(n as usize);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for v in 0..n {
            for _ in 0..2 {
                let step = 1 + rng() % 40;
                if v + step < n {
                    g.add_edge(v, v + step, EdgeKind::WriteRead(awdit::core::Key(0)));
                }
            }
            if v % 16 == 0 && v >= 8 {
                g.add_edge(v, v - 8, EdgeKind::Inferred(awdit::core::Key(1)));
            }
        }
        g.freeze();
        g
    };
    for (label, g) in [("giant", &giant), ("path", &path), ("mixed", &mixed)] {
        let sccs_ref = g.sccs_with(1);
        let cycles_ref = g.find_cycles_with(usize::MAX, 1);
        let n: usize = sccs_ref.iter().map(Vec::len).sum();
        assert_eq!(n, g.num_nodes(), "[{label}] partition must cover the graph");
        for threads in [2usize, 8] {
            assert_eq!(
                sccs_ref,
                g.sccs_with(threads),
                "[{label}] SCC partition diverged at {threads} threads"
            );
            assert_eq!(
                cycles_ref,
                g.find_cycles_with(usize::MAX, threads),
                "[{label}] witness cycles diverged at {threads} threads"
            );
        }
    }
}

/// Per-stage differential: the parallel watermark-GC boundary scan must
/// retire the exact transactions the sequential sweep retires — checked
/// through the retained live set and the full stream stats, on an
/// all-retirable workload (every write overwritten, watermark chasing
/// the stream) and a single-session one.
#[test]
fn parallel_stream_gc_matches_sequential_live_set() {
    use awdit::stream::{OnlineChecker, StreamConfig};

    // Every session overwrites the same tiny key set round after round
    // and reads its peers' latest values, so the watermark advances and
    // each sweep sees hundreds of retirable candidates.
    let run_all_retirable = |threads: usize| {
        let mut c = OnlineChecker::with_config(StreamConfig {
            level: IsolationLevel::Causal,
            prune: true,
            prune_interval: 256,
            threads,
            ..StreamConfig::default()
        });
        let sessions = 4u64;
        let keys = 3u64;
        for round in 0..200u64 {
            for s in 0..sessions {
                c.begin(s).unwrap();
                for k in 0..keys {
                    c.write(s, k, (round * sessions + s) * keys + k + 1)
                        .unwrap();
                }
                c.commit(s).unwrap();
            }
        }
        let live = c.live_txn_ids();
        let outcome = c.finish().unwrap();
        (
            live,
            format!("{:?}|{:?}", outcome.violations(), outcome.stats()),
        )
    };
    // One session: every write is its own session's latest until
    // overwritten; the candidate list is long and entirely local.
    let run_one_session = |threads: usize| {
        let mut c = OnlineChecker::with_config(StreamConfig {
            level: IsolationLevel::Causal,
            prune: true,
            prune_interval: 128,
            threads,
            ..StreamConfig::default()
        });
        for i in 0..1200u64 {
            c.begin(0).unwrap();
            c.write(0, i % 5, i + 1).unwrap();
            c.commit(0).unwrap();
        }
        let live = c.live_txn_ids();
        let outcome = c.finish().unwrap();
        (
            live,
            format!("{:?}|{:?}", outcome.violations(), outcome.stats()),
        )
    };
    for (label, run) in [
        ("all-retirable", &run_all_retirable as &dyn Fn(usize) -> _),
        ("one-session", &run_one_session),
    ] {
        let reference = run(1);
        for threads in [2usize, 8] {
            assert_eq!(
                reference,
                run(threads),
                "[{label}] GC diverged at {threads} threads"
            );
        }
    }
}

/// Generates a wide uniform-workload history on the simulated causal
/// store, mirroring the `scaling` bench's 64-session shape.
fn wide_uniform_history(sessions: usize, txns: usize, seed: u64) -> History {
    use awdit::workloads::Uniform;
    use awdit::{collect_history, SimConfig};
    let config = SimConfig::new(DbIsolation::Causal, sessions, seed).with_max_lag(16);
    let mut w = Uniform::default();
    collect_history(config, &mut w, txns).expect("simulator history builds")
}
