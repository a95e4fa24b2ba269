//! Property-based tests (proptest) over randomly generated histories,
//! exercising the cross-crate invariants that the unit suites check only
//! pointwise.

use std::collections::HashSet;

use awdit::baselines::{check_dbcop_cc, check_naive};
use awdit::core::graph::{is_inferred, target};
use awdit::core::parallel::SEQUENTIAL_CUTOFF;
use awdit::core::{
    base_commit_graph, compute_hb_into, infer_cc_edges, saturate_cc_into, ClockTable, CommitGraph,
    CommitView, DenseId, EdgeKind, ExtRead, HistoryIndex, Key, Pool, WriterSearch,
};
use awdit::reductions::{general_reduction, UndirectedGraph};
use awdit::workloads::{Tpcc, TpccConfig, Uniform};
use awdit::{
    check, collect_history, parse_history, validate_commit_order, write_history, DbIsolation,
    Engine, EngineConfig, Format, HistoryBuilder, HistoryStats, IsolationLevel, SimConfig,
};
use proptest::prelude::*;

/// A compact program describing a random history.
#[derive(Clone, Debug)]
#[allow(clippy::type_complexity)]
struct HistoryProgram {
    sessions: usize,
    /// Per transaction: (session, ops), op = (key, is_read, stale_rank).
    txns: Vec<(usize, Vec<(u64, bool, usize)>)>,
    abort_mask: u64,
}

fn history_program() -> impl Strategy<Value = HistoryProgram> {
    let op = (0u64..4, any::<bool>(), 0usize..4);
    let txn = (0usize..3, proptest::collection::vec(op, 1..5));
    (proptest::collection::vec(txn, 1..12), any::<u64>()).prop_map(|(txns, abort_mask)| {
        HistoryProgram {
            sessions: 3,
            txns,
            abort_mask,
        }
    })
}

/// Materializes a program into a history whose reads observe real written
/// values (so Read Consistency mostly holds and verdicts vary).
fn build(program: &HistoryProgram) -> awdit::History {
    let mut b = HistoryBuilder::new();
    let sessions: Vec<_> = (0..program.sessions).map(|_| b.session()).collect();
    let mut committed: Vec<Vec<u64>> = vec![Vec::new(); 4];
    let mut next_value = 1u64;
    for (i, (s, ops)) in program.txns.iter().enumerate() {
        let sid = sessions[*s];
        b.begin(sid);
        let mut pending: Vec<(u64, u64)> = Vec::new();
        for &(key, is_read, stale) in ops {
            if is_read {
                if let Some(&(_, v)) = pending.iter().rev().find(|(k, _)| *k == key) {
                    b.read(sid, key, v);
                } else {
                    let vs = &committed[key as usize];
                    if !vs.is_empty() {
                        let idx = vs.len().saturating_sub(1 + stale % vs.len());
                        b.read(sid, key, vs[idx]);
                    }
                }
            } else if !pending.iter().any(|(k, _)| *k == key) {
                let v = next_value;
                next_value += 1;
                b.write(sid, key, v);
                pending.push((key, v));
            }
        }
        if program.abort_mask >> (i % 64) & 1 == 1 {
            b.abort(sid);
        } else {
            b.commit(sid);
            for (k, v) in pending {
                committed[k as usize].push(v);
            }
        }
    }
    b.finish().expect("program produces unique values")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// AWDIT agrees with the exhaustive-saturation oracle on every level.
    #[test]
    fn awdit_matches_naive_oracle(program in history_program()) {
        let h = build(&program);
        for level in IsolationLevel::ALL {
            prop_assert_eq!(
                check(&h, level).is_consistent(),
                check_naive(&h, level),
                "level {}", level
            );
        }
    }

    /// Level strength is monotone: CC ⊑ RA ⊑ RC.
    #[test]
    fn verdicts_are_monotone(program in history_program()) {
        let h = build(&program);
        let rc = check(&h, IsolationLevel::ReadCommitted).is_consistent();
        let ra = check(&h, IsolationLevel::ReadAtomic).is_consistent();
        let cc = check(&h, IsolationLevel::Causal).is_consistent();
        prop_assert!(!cc || ra);
        prop_assert!(!ra || rc);
    }

    /// CC verdicts agree with the DBCop-style oracle, and consistent
    /// checks yield commit orders that validate against the axioms.
    #[test]
    fn cc_verdicts_match_dbcop_and_orders_validate(program in history_program()) {
        let h = build(&program);
        let out = Engine::with_config(EngineConfig {
            want_commit_order: true,
            ..EngineConfig::default()
        })
        .check_level(&h, IsolationLevel::Causal);
        prop_assert_eq!(out.is_consistent(), check_dbcop_cc(&h));
        if let Some(order) = out.commit_order() {
            prop_assert!(validate_commit_order(&h, IsolationLevel::Causal, order).is_ok());
        }
    }

    /// All formats round-trip: operation counts and verdicts survive.
    #[test]
    fn formats_round_trip(program in history_program()) {
        let h = build(&program);
        for format in Format::ALL {
            let text = write_history(&h, format);
            let h2 = parse_history(&text, format).expect("round trip");
            if format == Format::Plume {
                // Plume drops aborted transactions (and cannot represent
                // empty ones), but preserves all committed operations.
                let committed_ops = |h: &awdit::History| -> usize {
                    h.committed_txns().map(|(_, t)| t.len()).sum()
                };
                prop_assert_eq!(committed_ops(&h), committed_ops(&h2));
            } else {
                prop_assert_eq!(HistoryStats::of(&h).ops, HistoryStats::of(&h2).ops);
            }
            for level in IsolationLevel::ALL {
                prop_assert_eq!(
                    check(&h, level).is_consistent(),
                    check(&h2, level).is_consistent(),
                    "format {} level {}", format, level
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reduction equivalence on arbitrary random graphs: the history of a
    /// graph is consistent (at every level) iff the graph is triangle-free.
    #[test]
    fn reduction_matches_triangle_freeness(
        n in 3usize..14,
        edges in proptest::collection::vec((0u32..14, 0u32..14), 0..30),
    ) {
        let mut g = UndirectedGraph::new(n);
        for (a, b) in edges {
            if (a as usize) < n && (b as usize) < n {
                g.add_edge(a, b);
            }
        }
        let triangle_free = !g.has_triangle();
        let h = general_reduction(&g);
        for level in IsolationLevel::ALL {
            prop_assert_eq!(
                check(&h, level).is_consistent(),
                triangle_free,
                "level {}", level
            );
        }
    }
}

/// The distinct inferred `(from, to)` pairs of a frozen graph.
fn inferred_edges(g: &CommitGraph) -> HashSet<(u32, u32)> {
    (0..g.num_nodes() as u32)
        .flat_map(|v| g.successors(v).iter().map(move |&e| (v, e)))
        .filter(|&(_, e)| is_inferred(e))
        .map(|(v, e)| (v, target(e)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// CC saturation drops only edges that happens-before already implies:
    /// against the unfiltered kernel (no writer rows), the kept inferred
    /// edges are a subset, every dropped `t2 → t1` has a `so ∪ wr` path,
    /// and the SCC partition is unchanged — on the sequential and the
    /// sharded path.
    #[test]
    fn hb_filter_preserves_the_closure(seed in 0u64..1_000_000) {
        for db in [DbIsolation::Causal, DbIsolation::ReadCommitted, DbIsolation::ReadAtomic] {
            let config = SimConfig::new(db, 8, seed).with_max_lag(16);
            let h = collect_history(config, &mut Uniform::new(24, 6, 0.5), 600).unwrap();
            let index = HistoryIndex::new(&h);
            let n = index.num_committed();
            prop_assert!(n >= SEQUENTIAL_CUTOFF, "threads 2 must take the sharded path");
            let mut base = base_commit_graph(&index);
            base.freeze();
            let topo = base.topological_order().expect("a simulated history has an acyclic base");
            let mut table = ClockTable::new();
            compute_hb_into(&index, &topo, &mut table);
            let mut unfiltered = base_commit_graph(&index);
            let mut emitted: Vec<(u32, u32, EdgeKind)> = Vec::new();
            let mut search = WriterSearch::new(0);
            for &t3 in &topo {
                infer_cc_edges(&index, t3, table.row(t3), |_| &[], &mut search, &mut emitted);
            }
            for &(from, to, kind) in &emitted {
                unfiltered.add_edge(from, to, kind);
            }
            unfiltered.freeze();
            let all = inferred_edges(&unfiltered);
            let sccs = unfiltered.sccs();

            // reach[v]: the transactions v reaches through so ∪ wr.
            let mut reach = vec![Vec::new(); n];
            for &v in topo.iter().rev() {
                let mut r = vec![false; n];
                for &e in base.successors(v) {
                    let w = target(e) as usize;
                    r[w] = true;
                    for (a, &b) in r.iter_mut().zip(&reach[w]) {
                        *a |= b;
                    }
                }
                reach[v as usize] = r;
            }

            for threads in [1, 2] {
                let mut g = CommitGraph::new(0);
                let mut clocks = ClockTable::new();
                let pool = Pool::new(threads);
                saturate_cc_into(&pool, &index, threads, &mut g, &mut clocks)
                    .expect("acyclic base");
                g.freeze();
                let kept = inferred_edges(&g);
                let at = format!("{db:?} seed {seed} t{threads}");
                prop_assert!(kept.is_subset(&all), "{}: an edge the kernel never emits", at);
                prop_assert!(kept.len() < all.len(), "{}: nothing was filtered", at);
                for &(t2, t1) in all.difference(&kept) {
                    prop_assert!(
                        reach[t2 as usize][t1 as usize],
                        "{}: dropped t{} -> t{} without a so ∪ wr path", at, t2, t1
                    );
                }
                prop_assert_eq!(&g.sccs(), &sccs, "{}", at);
            }
        }
    }
}

/// A [`HistoryIndex`] whose visible-writer search ignores the hint and
/// searches committed positions, and whose visibility test loads the
/// writer's position — the stream index's way, independent of dense-id
/// arithmetic and cursors.
struct Unhinted<'a>(&'a HistoryIndex);

impl CommitView for Unhinted<'_> {
    fn num_sessions(&self) -> usize {
        self.0.num_sessions()
    }
    fn session_of(&self, d: DenseId) -> u32 {
        self.0.session_of(d)
    }
    fn committed_pos(&self, d: DenseId) -> u32 {
        self.0.committed_pos(d)
    }
    fn ext_reads(&self, d: DenseId) -> &[ExtRead] {
        self.0.ext_reads(d)
    }
    fn keys_written(&self, d: DenseId) -> &[Key] {
        self.0.keys_written(d)
    }
    fn keys_read(&self, d: DenseId) -> &[Key] {
        self.0.keys_read(d)
    }
    fn first_writers(&self, d: DenseId) -> &[DenseId] {
        self.0.first_writers(d)
    }
    fn writes_key(&self, d: DenseId, key: Key) -> bool {
        self.0.writes_key(d, key)
    }
    fn read_pairs(&self, d: DenseId) -> &[(Key, DenseId)] {
        self.0.read_pairs(d)
    }
    fn for_each_key_writes(&self, key: Key, mut f: impl FnMut(u32, u32, &[DenseId])) {
        for (s, _, writes) in self.0.key_writes(key) {
            f(s, 0, writes);
        }
    }
    fn writers_before(
        &self,
        _: u32,
        writes: &[DenseId],
        bound: u32,
        _: Option<u32>,
    ) -> (usize, u32) {
        (
            writes.partition_point(|&w| self.0.committed_pos(w) < bound),
            0,
        )
    }
}

/// CC saturation's shortcuts are exact: the per-shard repeat filter, the
/// write-list cursors and the dense-id visibility test. The frozen
/// graph's packed successors at threads 1, 2 and 8 equal a reference that
/// keeps every pair and uses none of them — the full `compute_hb_into`
/// table, `infer_cc_edges` over [`Unhinted`] along the topological order
/// with the hb filter into a plain `Vec`, then `freeze`. The histories: a
/// wide 64-session uniform one, a TPC-C one long enough to span more than
/// one saturation block, and a 20k-key 4-session uniform one with more
/// write lists than a shard has cursors, so lists share cursors.
#[test]
fn cc_repeat_filter_keeps_the_frozen_graph() {
    let wide = collect_history(
        SimConfig::new(DbIsolation::Causal, 64, 42).with_max_lag(16),
        &mut Uniform::default(),
        1600,
    )
    .unwrap();
    let tpcc = collect_history(
        SimConfig::new(DbIsolation::Causal, 8, 3),
        &mut Tpcc::new(TpccConfig::default()),
        20_000,
    )
    .unwrap();
    let many_keys = collect_history(
        SimConfig::new(DbIsolation::Causal, 4, 5),
        &mut Uniform::new(20_000, 8, 0.5),
        20_000,
    )
    .unwrap();
    let many_keys_lists = HistoryIndex::new(&many_keys).session_write_lists().count();
    assert!(
        many_keys_lists > 1 << 14,
        "{many_keys_lists} write lists share no cursor"
    );
    for (name, h) in [
        ("wide-uniform", wide),
        ("tpcc", tpcc),
        ("many-keys", many_keys),
    ] {
        let index = HistoryIndex::new(&h);
        let mut reference = base_commit_graph(&index);
        let topo = reference.topological_order().expect("acyclic base");
        let mut table = ClockTable::new();
        compute_hb_into(&index, &topo, &mut table);
        let mut emitted: Vec<(u32, u32, EdgeKind)> = Vec::new();
        let (view, mut search) = (Unhinted(&index), WriterSearch::new(0));
        for &t3 in &topo {
            infer_cc_edges(
                &view,
                t3,
                table.row(t3),
                |w| table.row(w),
                &mut search,
                &mut emitted,
            );
        }
        for &(from, to, kind) in &emitted {
            reference.add_edge(from, to, kind);
        }
        reference.freeze();
        for threads in [1, 2, 8] {
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
            assert!(
                g.num_emitted_edges() < reference.num_emitted_edges(),
                "{name} t{threads}: no repeat was dropped"
            );
            assert_eq!(g.num_edges(), reference.num_edges(), "{name} t{threads}");
            for v in 0..index.num_committed() as u32 {
                assert_eq!(
                    g.successors(v),
                    reference.successors(v),
                    "{name} t{threads}: successors of {v}"
                );
            }
        }
    }
}
