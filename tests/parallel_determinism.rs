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
use awdit::core::graph::target;
use awdit::core::parallel::{Pool, SEQUENTIAL_CUTOFF};
use awdit::core::{saturate_cc_into, ClockTable, CommitGraph, EdgeKind, HistoryIndex};
use awdit::{DbIsolation, Engine, EngineConfig, History, IsolationLevel};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Everything observable about an [`awdit::Outcome`], as one comparable
/// string: verdict, violations (in order), witness cycles, commit order,
/// and stats.
fn fingerprint(h: &History, level: IsolationLevel, cfg: EngineConfig) -> String {
    let o = Engine::with_config(cfg).check_level(h, level);
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
        let base = EngineConfig {
            want_commit_order: true,
            threads: 1,
            ..EngineConfig::default()
        };
        let reference = fingerprint(h, level, base);
        for threads in &THREAD_COUNTS[1..] {
            let cfg = EngineConfig {
                threads: *threads,
                ..base
            };
            let got = fingerprint(h, level, cfg);
            assert_eq!(
                reference, got,
                "outcome diverged [{label}] level {level} threads {threads}"
            );
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
    let saturate = |threads: usize| {
        let mut g = CommitGraph::new(0);
        saturate_cc_into(
            &Pool::new(threads),
            &index,
            threads,
            &mut g,
            &mut ClockTable::new(),
        )
        .expect("acyclic base");
        g.freeze();
        g
    };
    let sequential = saturate(1);
    for threads in [2usize, 8] {
        let parallel = saturate(threads);
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
                "successor list of {v} diverged ({threads} threads)"
            );
        }
    }
    assert_thread_invariant(&h, "wide-uniform");
}

/// The canonical SCC presentation witnesses depend on, pinned on three
/// shapes: one giant SCC, a pure path (every node its own SCC), and a
/// deterministic random mix of small SCCs inside a DAG. Nodes ascend
/// within each component, and components come in reverse topological
/// order of the condensation, the smallest-minimum-node ready component
/// first; on the mixed graph the partition also matches brute-force
/// mutual reachability.
#[test]
fn sccs_have_the_canonical_presentation() {
    let giant = {
        // A 3000-cycle plus deterministic chords: one SCC spanning every
        // node.
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
        let sccs = g.sccs();
        let n = g.num_nodes();
        let mut comp_of = vec![usize::MAX; n];
        for (c, comp) in sccs.iter().enumerate() {
            assert!(
                comp.windows(2).all(|w| w[0] < w[1]),
                "[{label}] nodes must ascend within component {c}"
            );
            for &v in comp {
                assert_eq!(comp_of[v as usize], usize::MAX, "[{label}] node {v} twice");
                comp_of[v as usize] = c;
            }
        }
        assert!(
            comp_of.iter().all(|&c| c != usize::MAX),
            "[{label}] partition must cover the graph"
        );
        // Reversed, the components must be the Kahn order of the
        // condensation that always emits the ready component with the
        // smallest minimum node.
        let mut preds_left = vec![0usize; sccs.len()];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); sccs.len()];
        for v in 0..n as u32 {
            for &e in g.successors(v) {
                let (cv, cw) = (comp_of[v as usize], comp_of[target(e) as usize]);
                if cv != cw {
                    succs[cv].push(cw);
                    preds_left[cw] += 1;
                }
            }
        }
        let mut ready: std::collections::BTreeSet<(u32, usize)> = (0..sccs.len())
            .filter(|&c| preds_left[c] == 0)
            .map(|c| (sccs[c][0], c))
            .collect();
        for c in (0..sccs.len()).rev() {
            let first = ready.pop_first();
            assert_eq!(
                first,
                Some((sccs[c][0], c)),
                "[{label}] component {c} is out of canonical order"
            );
            for &w in &succs[c] {
                preds_left[w] -= 1;
                if preds_left[w] == 0 {
                    ready.insert((sccs[w][0], w));
                }
            }
        }
        // One witness cycle per non-trivial SCC, each inside its SCC.
        let cycles = g.find_cycles(usize::MAX);
        let nontrivial = sccs.iter().filter(|c| c.len() > 1).count();
        assert_eq!(cycles.len(), nontrivial, "[{label}] one cycle per SCC");
        for cycle in &cycles {
            assert!(cycle.is_closed(), "[{label}] cycle must be closed");
            let c = comp_of[cycle.edges[0].from as usize];
            assert!(cycle.nodes().iter().all(|&v| comp_of[v as usize] == c));
        }
    }
    // Brute force on the mixed graph: u and v share a component iff each
    // reaches the other.
    let n = mixed.num_nodes();
    let reach: Vec<Vec<bool>> = (0..n as u32)
        .map(|src| {
            let mut seen = vec![false; n];
            let mut stack = vec![src];
            seen[src as usize] = true;
            while let Some(v) = stack.pop() {
                for &e in mixed.successors(v) {
                    let w = target(e);
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            seen
        })
        .collect();
    let mut comp_of = vec![0usize; n];
    for (c, comp) in mixed.sccs().iter().enumerate() {
        for &v in comp {
            comp_of[v as usize] = c;
        }
    }
    for u in 0..n {
        for v in 0..n {
            assert_eq!(
                comp_of[u] == comp_of[v],
                reach[u][v] && reach[v][u],
                "[mixed] SCC membership of {u} and {v} disagrees with reachability"
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
