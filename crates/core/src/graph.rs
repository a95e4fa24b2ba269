//! The partial commit relation `co′` as a graph, plus cycle machinery.
//!
//! Each checker initializes `co′ = so ∪ wr` and saturates it with
//! level-specific inferred edges (Definition 3.1). Consistency then reduces
//! to acyclicity (Lemma 3.2):
//!
//! * if `co′` is acyclic, any topological order is a witnessing commit
//!   order;
//! * otherwise, every non-trivial strongly connected component yields a
//!   cycle witnessing the violation (Section 3.4). Cycle extraction prefers
//!   cycles with as few inferred (non-`so ∪ wr`) edges as possible, which
//!   tends to surface the weakest — and therefore most serious — anomalies.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Mutex;

use crate::incremental::EdgeSink;
use crate::index::HistoryIndex;
use crate::parallel;
use crate::types::{Key, SessionId};

/// Label of a `co′` edge: how the ordering was established.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Session order: consecutive committed transactions of one session.
    SessionOrder,
    /// Write–read order on `key`: the target reads the source's write.
    WriteRead(Key),
    /// An ordering inferred by the isolation level's axiom, on `key`.
    Inferred(Key),
    /// A transitive ordering preserved through transactions retired by
    /// streaming watermark pruning (`awdit-stream`): the source was ordered
    /// before the target via one or more now-pruned transactions.
    Condensed,
}

impl EdgeKind {
    /// Whether the edge is part of `so ∪ wr` (as opposed to inferred or
    /// condensed).
    #[inline]
    pub fn is_base(self) -> bool {
        matches!(self, EdgeKind::SessionOrder | EdgeKind::WriteRead(_))
    }
}

/// Bit 31 of a packed successor entry (see [`CommitGraph::successors`]):
/// set when the edge is inferred rather than part of `so ∪ wr`. Node ids
/// therefore fit in 31 bits.
pub const INFERRED_BIT: u32 = 1 << 31;

/// The successor node of a packed successor entry.
#[inline]
pub fn target(packed: u32) -> u32 {
    packed & !INFERRED_BIT
}

/// Whether a packed successor entry is an inferred edge.
#[inline]
pub fn is_inferred(packed: u32) -> bool {
    packed & INFERRED_BIT != 0
}

/// Packs an edge target with the one provenance bit the graph keeps.
#[inline]
fn pack(to: u32, kind: EdgeKind) -> u32 {
    debug_assert!(to < INFERRED_BIT, "node ids must fit in 31 bits");
    if kind.is_base() {
        to
    } else {
        to | INFERRED_BIT
    }
}

/// A directed edge of the commit graph, in dense-transaction-id space.
///
/// The graph keeps one bit of provenance per edge; the full label (session
/// order, write–read or inferred, and on which key) is re-derived for
/// witness edges only, by
/// [`WitnessCycle::from_cycle`](crate::witness::WitnessCycle::from_cycle).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source transaction (dense id).
    pub from: u32,
    /// Target transaction (dense id).
    pub to: u32,
    /// Whether the edge is inferred (not part of `so ∪ wr`).
    pub inferred: bool,
}

/// A cycle in the commit graph: a closed walk of edges
/// (`edges[i].to == edges[i + 1].from`, wrapping around).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cycle {
    /// The edges of the cycle, in order.
    pub edges: Vec<Edge>,
}

impl Cycle {
    /// Number of inferred (non-`so ∪ wr`) edges in the cycle.
    pub fn inferred_count(&self) -> usize {
        self.edges.iter().filter(|e| e.inferred).count()
    }

    /// Transactions on the cycle, in order.
    pub fn nodes(&self) -> Vec<u32> {
        self.edges.iter().map(|e| e.from).collect()
    }

    /// Checks the closed-walk invariant (used by tests and witnesses).
    pub fn is_closed(&self) -> bool {
        !self.edges.is_empty()
            && self
                .edges
                .iter()
                .zip(self.edges.iter().cycle().skip(1))
                .all(|(a, b)| a.to == b.from)
    }
}

/// One saturation shard's output: `(from, to)` pairs in emission order,
/// with [`INFERRED_BIT`] set in `to` for inferred edges.
#[derive(Debug, Default)]
pub(crate) struct PairBuf(Vec<(u32, u32)>);

impl EdgeSink for PairBuf {
    #[inline]
    fn add_edge(&mut self, from: u32, to: u32, kind: EdgeKind) {
        self.0.push((from, pack(to, kind)));
    }
}

/// The partial commit relation `co′` over the committed transactions, in
/// dense-id space.
///
/// Saturation appends bare `(from, to)` pairs — 8 bytes each, bit 31 of
/// `to` marking an inferred edge — to flat buffers, one per parallel shard
/// in shard order. [`freeze`](Self::freeze) is the one build step: a
/// stable counting sort by source into a CSR (`offsets` plus 4-byte
/// packed `targets`) that keeps each distinct edge once. The analysis
/// phases ([`sccs`](Self::sccs), [`find_cycles`](Self::find_cycles),
/// [`topological_order`](Self::topological_order)) and
/// [`successors`](Self::successors) read the CSR and require a frozen
/// graph. Adding an edge after `freeze` discards the CSR; the next
/// `freeze` rebuilds it from every pair emitted since the last
/// [`reset`](Self::reset).
#[derive(Clone, Debug)]
pub struct CommitGraph {
    n: usize,
    /// Emitted pairs, one buffer per saturation shard, in emission order.
    /// Never empty: edges added directly go to the last buffer.
    shards: Vec<Vec<(u32, u32)>>,
    /// Cleared shard buffers kept for the next parallel saturation.
    spare: Vec<Vec<(u32, u32)>>,
    /// `targets[offsets[v]..offsets[v + 1]]` are `v`'s packed successors;
    /// both are empty while the graph is not frozen.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    inferred_edges: usize,
}

impl CommitGraph {
    /// Creates a graph over `n` transactions with no edges.
    pub fn new(n: usize) -> Self {
        let mut g = CommitGraph {
            n: 0,
            shards: vec![Vec::new()],
            spare: Vec::new(),
            offsets: Vec::new(),
            targets: Vec::new(),
            inferred_edges: 0,
        };
        g.reset(n);
        g
    }

    /// Number of nodes (committed transactions).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of distinct edges, as of the last [`freeze`](Self::freeze)
    /// (0 while the graph is not frozen).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Number of distinct inferred (non-`so ∪ wr`) edges, as of the last
    /// [`freeze`](Self::freeze). A pair emitted both as a base and as an
    /// inferred edge counts as base.
    #[inline]
    pub fn num_inferred_edges(&self) -> usize {
        self.inferred_edges
    }

    /// Number of edges emitted since the last [`reset`](Self::reset),
    /// duplicates counted. CC saturation drops a repeated inferred pair
    /// within each of its fixed shards before it is emitted
    /// ([`saturate_cc_into`](crate::saturate_cc_into)), so for CC this
    /// counts the pairs left after that per-shard filter.
    pub fn num_emitted_edges(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Adds the edge `from → to`. Only whether `kind` is base or inferred
    /// is stored.
    #[inline]
    pub fn add_edge(&mut self, from: u32, to: u32, kind: EdgeKind) {
        self.thaw();
        let last = self
            .shards
            .last_mut()
            .expect("a graph always has a pair buffer");
        last.push((from, pack(to, kind)));
    }

    /// Runs `emit` once per shard on up to `threads` pool participants,
    /// each into a recycled pair buffer, and adopts the buffers after the
    /// existing ones in shard order — so the emission order equals the
    /// sequential loop over the shards.
    pub(crate) fn fill_shards<S, F>(
        &mut self,
        pool: &parallel::Pool,
        threads: usize,
        stage: &'static str,
        shards: &[S],
        emit: F,
    ) where
        S: Sync,
        F: Fn(&S, &mut PairBuf) + Sync,
    {
        self.thaw();
        let bufs: Vec<Mutex<Vec<(u32, u32)>>> = shards
            .iter()
            .map(|_| Mutex::new(self.spare.pop().unwrap_or_default()))
            .collect();
        let filled = parallel::map_shards(pool, threads, stage, shards, |i, s| {
            let lent = &mut *bufs[i].lock().expect("each buffer is taken by one shard");
            let mut sink = PairBuf(std::mem::take(lent));
            let recycled = sink.0.capacity();
            emit(s, &mut sink);
            // A buffer that had to grow keeps no doubling headroom: a
            // same-shape saturation fills it exactly next time.
            if sink.0.capacity() > recycled {
                sink.0.shrink_to_fit();
            }
            sink.0
        });
        self.shards.extend(filled);
    }

    /// Drops the CSR so new pairs can be added; the next
    /// [`freeze`](Self::freeze) rebuilds it.
    #[inline]
    fn thaw(&mut self) {
        if !self.offsets.is_empty() {
            self.offsets.clear();
            self.targets.clear();
            self.inferred_edges = 0;
        }
    }

    /// Builds the CSR from every pair emitted since the last
    /// [`reset`](Self::reset): a stable counting sort by source, then one
    /// pass per source that keeps the first occurrence of each target (a
    /// stamp array remembers where). When a pair was emitted both as a
    /// base and as an inferred edge, the kept entry is base — the edge the
    /// cycle search's 0–1 BFS prefers anyway. The pair buffers keep their
    /// contents and capacity. Idempotent.
    pub fn freeze(&mut self) {
        if self.is_frozen() {
            return;
        }
        let n = self.n;
        let emitted = self.num_emitted_edges();
        assert!(
            emitted < u32::MAX as usize,
            "commit graph exceeds 2^32 - 1 emitted edges"
        );
        self.offsets.resize(n + 1, 0);
        for &(from, _) in self.shards.iter().flatten() {
            self.offsets[from as usize + 1] += 1;
        }
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v];
        }
        // Scatter, with `slot` as each source's write cursor. The scatter
        // needs a slot per emitted pair; the headroom above the recycled
        // capacity is handed back once the dedup has compacted the runs.
        let mut slot: Vec<u32> = self.offsets[..n].to_vec();
        let recycled = self.targets.capacity();
        self.targets.resize(emitted, 0);
        for &(from, to) in self.shards.iter().flatten() {
            let cursor = &mut slot[from as usize];
            self.targets[*cursor as usize] = to;
            *cursor += 1;
        }
        // Compact each source's run in place, with `slot` now holding the
        // kept position of each target (positions only grow, so a stamp
        // below the run's start belongs to an earlier source).
        slot.fill(u32::MAX);
        let mut kept = 0usize;
        let mut raw_start = 0usize;
        for v in 0..n {
            let raw_end = self.offsets[v + 1] as usize;
            let run_start = kept;
            self.offsets[v] = kept as u32;
            for i in raw_start..raw_end {
                let e = self.targets[i];
                let w = target(e) as usize;
                let p = slot[w];
                if p != u32::MAX && p as usize >= run_start {
                    if !is_inferred(e) {
                        self.targets[p as usize] &= !INFERRED_BIT;
                    }
                } else {
                    slot[w] = kept as u32;
                    self.targets[kept] = e;
                    kept += 1;
                }
            }
            raw_start = raw_end;
        }
        self.offsets[n] = kept as u32;
        self.targets.truncate(kept);
        self.targets.shrink_to(recycled.max(kept));
        self.inferred_edges = self.targets.iter().filter(|&&e| is_inferred(e)).count();
    }

    /// Clears the graph back to `n` nodes and no edges, keeping every
    /// buffer's capacity — the arena-reuse path of the
    /// [`Engine`](crate::Engine), where repeated checks of same-shape
    /// histories must not reallocate. Parallel shard buffers go back to
    /// the spare list in order, so a same-shape saturation hands each
    /// shard the buffer it filled last time.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in 31 bits.
    pub fn reset(&mut self, n: usize) {
        assert!(n <= INFERRED_BIT as usize, "node ids must fit in 31 bits");
        for mut buf in self.shards.drain(1..).rev() {
            buf.clear();
            self.spare.push(buf);
        }
        self.shards[0].clear();
        self.offsets.clear();
        self.targets.clear();
        self.inferred_edges = 0;
        self.n = n;
    }

    /// Heap footprint in bytes (capacities, not lengths) of the pair
    /// buffers and the CSR — the quantity tracked by the engine's
    /// arena-growth accounting.
    pub fn heap_bytes(&self) -> usize {
        let pair = std::mem::size_of::<(u32, u32)>();
        let bufs = std::mem::size_of::<Vec<(u32, u32)>>() * (self.shards.len() + self.spare.len());
        let pairs: usize = self
            .shards
            .iter()
            .chain(&self.spare)
            .map(|b| b.capacity() * pair)
            .sum();
        bufs + pairs + (self.offsets.capacity() + self.targets.capacity()) * 4
    }

    /// Whether the CSR is built (by [`freeze`](Self::freeze), and not
    /// discarded by a later [`add_edge`](Self::add_edge) or
    /// [`reset`](Self::reset)).
    #[inline]
    pub fn is_frozen(&self) -> bool {
        !self.offsets.is_empty()
    }

    fn assert_frozen(&self) {
        assert!(
            self.is_frozen(),
            "CommitGraph::freeze must run before the graph is traversed"
        );
    }

    /// Packed successors of a node: decode each entry with [`target`] and
    /// [`is_inferred`]. Each distinct successor appears once, in first
    /// emission order.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not [frozen](Self::freeze).
    #[inline]
    pub fn successors(&self, node: u32) -> &[u32] {
        let v = node as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Computes strongly connected components with iterative Tarjan.
    /// Returns one `Vec` of nodes per component, in a canonical
    /// presentation that witness extraction depends on: nodes ascend
    /// within each component, and components come in reverse topological
    /// order of the condensation, breaking ties by emitting the ready
    /// component with the smallest minimum node first.
    pub fn sccs(&self) -> Vec<Vec<u32>> {
        self.assert_frozen();
        let comp_of = self.tarjan();
        self.canonical_sccs(&comp_of)
    }

    /// Iterative Tarjan: the component label of every node.
    fn tarjan(&self) -> Vec<u32> {
        let n = self.n;
        let mut comp_of = vec![u32::MAX; n];
        let mut next_comp = 0u32;
        let mut index = vec![u32::MAX; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;

        // Explicit DFS stack: (node, next-successor-position).
        let mut call_stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..n as u32 {
            if index[start as usize] != u32::MAX {
                continue;
            }
            call_stack.push((start, 0));
            while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
                let vu = v as usize;
                if *pos == 0 {
                    index[vu] = next_index;
                    lowlink[vu] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[vu] = true;
                }
                let mut recursed = false;
                while *pos < self.successors(v).len() {
                    let w = target(self.successors(v)[*pos]);
                    *pos += 1;
                    let wu = w as usize;
                    if index[wu] == u32::MAX {
                        call_stack.push((w, 0));
                        recursed = true;
                        break;
                    } else if on_stack[wu] {
                        lowlink[vu] = lowlink[vu].min(index[wu]);
                    }
                }
                if recursed {
                    continue;
                }
                // v is finished.
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    let pu = parent as usize;
                    lowlink[pu] = lowlink[pu].min(lowlink[vu]);
                }
                if lowlink[vu] == index[vu] {
                    let label = next_comp;
                    next_comp += 1;
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = label;
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
        comp_of
    }

    /// The canonical presentation of an SCC partition: nodes ascend within
    /// each component (the grouping scan visits nodes in order), and
    /// components come in the reverse of a deterministic topological order
    /// of the condensation (Kahn's algorithm emitting the ready component
    /// with the smallest minimum node first). Depends only on the
    /// partition, never on how it was computed.
    fn canonical_sccs(&self, comp_of: &[u32]) -> Vec<Vec<u32>> {
        let n = self.n;
        let num_comps = comp_of.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let mut nodes_of: Vec<Vec<u32>> = vec![Vec::new(); num_comps];
        for v in 0..n as u32 {
            nodes_of[comp_of[v as usize] as usize].push(v);
        }
        let mut indeg = vec![0u32; num_comps];
        for v in 0..n as u32 {
            let cv = comp_of[v as usize];
            for &e in self.successors(v) {
                let cw = comp_of[target(e) as usize];
                if cw != cv {
                    indeg[cw as usize] += 1;
                }
            }
        }
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = (0..num_comps)
            .filter(|&c| indeg[c] == 0)
            .map(|c| Reverse((nodes_of[c][0], c as u32)))
            .collect();
        let mut order: Vec<u32> = Vec::with_capacity(num_comps);
        while let Some(Reverse((_, c))) = heap.pop() {
            order.push(c);
            for &v in &nodes_of[c as usize] {
                for &e in self.successors(v) {
                    let cw = comp_of[target(e) as usize];
                    if cw != c {
                        indeg[cw as usize] -= 1;
                        if indeg[cw as usize] == 0 {
                            heap.push(Reverse((nodes_of[cw as usize][0], cw)));
                        }
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), num_comps, "condensation must be acyclic");
        let mut out: Vec<Vec<u32>> = Vec::with_capacity(num_comps);
        for &c in order.iter().rev() {
            out.push(std::mem::take(&mut nodes_of[c as usize]));
        }
        out
    }

    /// Returns `true` if the graph has no cycle (self-loops included).
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// A topological order of the nodes, or `None` if the graph is cyclic.
    pub fn topological_order(&self) -> Option<Vec<u32>> {
        self.assert_frozen();
        let n = self.n;
        let mut indeg = vec![0u32; n];
        for v in 0..n as u32 {
            for &e in self.successors(v) {
                indeg[target(e) as usize] += 1;
            }
        }
        let mut queue: VecDeque<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &e in self.successors(v) {
                let w = target(e);
                indeg[w as usize] -= 1;
                if indeg[w as usize] == 0 {
                    queue.push_back(w);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Extracts up to `max` witness cycles, one per non-trivial SCC
    /// (Section 3.4). Within each SCC the cycle is chosen to pass through an
    /// inferred edge if one exists, closing it with a path that minimizes
    /// the number of further inferred edges (0–1 BFS with `so ∪ wr` edges at
    /// weight 0). An acyclic graph — the common consistent-history case —
    /// is dismissed by one linear Kahn pass before any SCC work.
    pub fn find_cycles(&self, max: usize) -> Vec<Cycle> {
        if max == 0 || self.is_acyclic() {
            return Vec::new();
        }
        let n = self.n;
        let mut comp_of = vec![u32::MAX; n];
        let sccs = self.sccs();
        let mut cycles = Vec::new();
        for (ci, comp) in sccs.iter().enumerate() {
            for &v in comp {
                comp_of[v as usize] = ci as u32;
            }
        }
        for (ci, comp) in sccs.iter().enumerate() {
            if cycles.len() >= max {
                break;
            }
            let trivial = comp.len() == 1 && {
                let v = comp[0];
                !self.successors(v).iter().any(|&e| target(e) == v)
            };
            if trivial {
                continue;
            }
            // Collect candidate seed edges inside the component, preferring
            // inferred edges (cycles must normally contain one, and seeding
            // there lets the closing path minimize further inferred edges).
            const MAX_SEEDS: usize = 16;
            let mut seeds: Vec<Edge> = Vec::new();
            let mut fallback: Option<Edge> = None;
            'outer: for &v in comp {
                for &e in self.successors(v) {
                    let w = target(e);
                    if comp_of[w as usize] == ci as u32 {
                        let edge = Edge {
                            from: v,
                            to: w,
                            inferred: is_inferred(e),
                        };
                        if edge.inferred {
                            seeds.push(edge);
                            if seeds.len() >= MAX_SEEDS {
                                break 'outer;
                            }
                        } else if fallback.is_none() {
                            fallback = Some(edge);
                        }
                    }
                }
            }
            if seeds.is_empty() {
                seeds.push(fallback.expect("non-trivial SCC must contain an edge"));
            }
            // Evaluate each seed; keep the cycle with the fewest inferred
            // edges (ties broken by length).
            let mut best: Option<Vec<Edge>> = None;
            let mut best_cost = (usize::MAX, usize::MAX);
            for seed in seeds {
                if seed.from == seed.to {
                    best = Some(vec![seed]);
                    break;
                }
                let path = self
                    .cheapest_path_within(seed.to, seed.from, ci as u32, &comp_of)
                    .expect("SCC nodes must be mutually reachable");
                let mut edges = path;
                edges.push(seed);
                let cost = (edges.iter().filter(|e| e.inferred).count(), edges.len());
                if cost < best_cost {
                    best_cost = cost;
                    best = Some(edges);
                }
            }
            let mut edges = best.expect("at least one seed evaluated");
            // Rotate so the cycle starts at its smallest node: deterministic
            // output for tests and stable reports.
            let min_pos = edges
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.from)
                .map(|(i, _)| i)
                .unwrap_or(0);
            edges.rotate_left(min_pos);
            cycles.push(Cycle { edges });
        }
        cycles
    }

    /// 0–1 BFS from `src` to `dst` staying inside component `ci`; inferred
    /// edges cost 1, base edges cost 0. Returns the edge path.
    fn cheapest_path_within(
        &self,
        src: u32,
        dst: u32,
        ci: u32,
        comp_of: &[u32],
    ) -> Option<Vec<Edge>> {
        let n = self.n;
        let mut dist = vec![u32::MAX; n];
        let mut pred: Vec<Option<Edge>> = vec![None; n];
        let mut dq: VecDeque<u32> = VecDeque::new();
        dist[src as usize] = 0;
        dq.push_front(src);
        while let Some(v) = dq.pop_front() {
            if v == dst {
                break;
            }
            let dv = dist[v as usize];
            for &e in self.successors(v) {
                let w = target(e);
                if comp_of[w as usize] != ci {
                    continue;
                }
                let inferred = is_inferred(e);
                let nd = dv + u32::from(inferred);
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                    pred[w as usize] = Some(Edge {
                        from: v,
                        to: w,
                        inferred,
                    });
                    if !inferred {
                        dq.push_front(w);
                    } else {
                        dq.push_back(w);
                    }
                }
            }
        }
        if dist[dst as usize] == u32::MAX {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != src {
            let e = pred[cur as usize]?;
            cur = e.from;
            edges.push(e);
        }
        edges.reverse();
        Some(edges)
    }
}

/// Builds the base commit relation `so ∪ wr` over the committed
/// transactions: session-order edges between consecutive committed
/// transactions of each session, plus one write–read edge per distinct
/// `(writer, reader)` pair. The graph comes back frozen, ready to
/// traverse.
pub fn base_commit_graph(index: &HistoryIndex) -> CommitGraph {
    let mut g = CommitGraph::new(0);
    base_commit_graph_into(index, &mut g);
    g.freeze();
    g
}

/// [`base_commit_graph`] into a caller-owned graph arena: the graph is
/// [`reset`](CommitGraph::reset) to the right node count (reusing its
/// buffers) and refilled with the `so ∪ wr` edges, left unfrozen so
/// saturation can append to it.
pub fn base_commit_graph_into(index: &HistoryIndex, g: &mut CommitGraph) {
    let m = index.num_committed();
    g.reset(m);
    for s in 0..index.num_sessions() {
        let list = index.session_committed(SessionId(s as u32));
        for w in list.windows(2) {
            g.add_edge(w[0], w[1], EdgeKind::SessionOrder);
        }
    }
    // Deduplicate wr edges per (writer, reader) with a stamp array.
    let mut stamp = vec![u32::MAX; m];
    for d in 0..m as u32 {
        for r in index.ext_reads(d) {
            if stamp[r.writer as usize] != d {
                stamp[r.writer as usize] = d;
                g.add_edge(r.writer, d, EdgeKind::WriteRead(r.key));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u32) -> EdgeKind {
        EdgeKind::Inferred(Key(i))
    }

    /// A frozen graph over `n` nodes with the given edges.
    fn graph(n: usize, edges: &[(u32, u32, EdgeKind)]) -> CommitGraph {
        let mut g = CommitGraph::new(n);
        for &(from, to, kind) in edges {
            g.add_edge(from, to, kind);
        }
        g.freeze();
        g
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g = graph(0, &[]);
        assert!(g.is_acyclic());
        assert_eq!(g.topological_order(), Some(vec![]));
    }

    #[test]
    fn chain_is_acyclic_with_topo_order() {
        let g = graph(
            4,
            &[
                (0, 1, EdgeKind::SessionOrder),
                (1, 2, EdgeKind::WriteRead(Key(0))),
                (2, 3, k(1)),
            ],
        );
        assert!(g.is_acyclic());
        assert_eq!(g.topological_order(), Some(vec![0, 1, 2, 3]));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_inferred_edges(), 1);
    }

    #[test]
    fn two_cycle_is_detected() {
        let g = graph(2, &[(0, 1, EdgeKind::SessionOrder), (1, 0, k(0))]);
        assert!(!g.is_acyclic());
        assert_eq!(g.topological_order(), None);
        let cycles = g.find_cycles(10);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].is_closed());
        assert_eq!(cycles[0].edges.len(), 2);
        assert_eq!(cycles[0].inferred_count(), 1);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = graph(1, &[(0, 0, k(0))]);
        assert!(!g.is_acyclic());
        let cycles = g.find_cycles(10);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].edges.len(), 1);
        assert!(cycles[0].is_closed());
    }

    #[test]
    fn one_cycle_per_scc() {
        // SCC 1: 0 <-> 1; SCC 2: 2 -> 3 -> 4 -> 2; node 5 isolated.
        let g = graph(
            6,
            &[
                (0, 1, EdgeKind::SessionOrder),
                (1, 0, k(0)),
                (2, 3, EdgeKind::SessionOrder),
                (3, 4, EdgeKind::WriteRead(Key(0))),
                (4, 2, k(1)),
                (5, 0, EdgeKind::SessionOrder),
            ],
        );
        let cycles = g.find_cycles(10);
        assert_eq!(cycles.len(), 2);
        for c in &cycles {
            assert!(c.is_closed());
        }
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = cycles.iter().map(|c| c.edges.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn cycle_extraction_prefers_few_inferred_edges() {
        // Two ways back from 1 to 0: direct inferred edge, or an inferred
        // path 1 -> 2 -> 3 -> 0. The best cycle is base edge 0 -> 1 plus
        // inferred 1 -> 0 (one inferred edge).
        let g = graph(
            4,
            &[
                (0, 1, EdgeKind::SessionOrder),
                (1, 0, k(9)),
                (1, 2, k(1)),
                (2, 3, k(2)),
                (3, 0, k(3)),
            ],
        );
        let cycles = g.find_cycles(1);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].inferred_count(), 1);
        assert_eq!(cycles[0].edges.len(), 2);
    }

    #[test]
    fn max_limits_cycle_count() {
        let g = graph(4, &[(0, 1, k(0)), (1, 0, k(0)), (2, 3, k(0)), (3, 2, k(0))]);
        assert_eq!(g.find_cycles(1).len(), 1);
        assert_eq!(g.find_cycles(0).len(), 0);
        assert_eq!(g.find_cycles(5).len(), 2);
    }

    #[test]
    fn sccs_cover_all_nodes() {
        let g = graph(5, &[(0, 1, k(0)), (1, 2, k(0)), (2, 0, k(0)), (3, 4, k(0))]);
        let sccs = g.sccs();
        let mut all: Vec<u32> = sccs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_pairs_are_stored_once() {
        let mut g = CommitGraph::new(3);
        for key in 0..4 {
            g.add_edge(0, 2, k(key));
        }
        g.add_edge(0, 1, EdgeKind::SessionOrder);
        g.add_edge(0, 2, k(7));
        g.add_edge(1, 2, k(0));
        g.freeze();
        assert_eq!(g.num_emitted_edges(), 7);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_inferred_edges(), 2);
        // First-emission order within a source survives the dedup.
        assert_eq!(g.successors(0), &[2 | INFERRED_BIT, 1]);
        assert_eq!(g.successors(1), &[2 | INFERRED_BIT]);
        assert!(g.successors(2).is_empty());
    }

    #[test]
    fn base_and_inferred_pair_keeps_the_base_bit() {
        // Inferred first, base later: the kept entry turns base in place.
        let mut g = CommitGraph::new(2);
        g.add_edge(0, 1, k(3));
        g.add_edge(0, 1, EdgeKind::WriteRead(Key(3)));
        g.add_edge(0, 1, k(4));
        g.freeze();
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.num_inferred_edges(), 0);
        // Base first (as saturation always emits it).
        let g = graph(2, &[(1, 0, EdgeKind::SessionOrder), (1, 0, k(0))]);
        assert_eq!(g.successors(1), &[0]);
        assert!(!is_inferred(g.successors(1)[0]));
        assert_eq!(target(g.successors(1)[0]), 0);
    }

    #[test]
    fn frozen_graph_costs_four_bytes_per_distinct_edge() {
        let n = 1000u32;
        let mut g = CommitGraph::new(n as usize);
        for v in 0..n {
            for d in 1..=5 {
                // Every pair emitted twice, once inferred.
                g.add_edge(v, (v + d) % n, EdgeKind::SessionOrder);
                g.add_edge(v, (v + d) % n, k(d));
            }
        }
        g.freeze();
        assert_eq!(g.num_edges(), 5 * n as usize);
        let pair_bytes: usize = g
            .shards
            .iter()
            .chain(&g.spare)
            .map(|b| b.capacity() * 8)
            .sum::<usize>()
            + (g.shards.len() + g.spare.len()) * std::mem::size_of::<Vec<(u32, u32)>>();
        assert!(
            g.heap_bytes() <= 4 * g.num_edges() + 4 * (n as usize + 1) + pair_bytes,
            "heap {} for {} distinct edges",
            g.heap_bytes(),
            g.num_edges()
        );
    }

    #[test]
    fn adding_after_freeze_rebuilds_from_every_pair() {
        let mut g = graph(3, &[(0, 1, EdgeKind::SessionOrder)]);
        assert!(g.is_frozen());
        g.add_edge(1, 2, k(0));
        assert!(!g.is_frozen());
        g.freeze();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.topological_order(), Some(vec![0, 1, 2]));
    }

    #[test]
    fn reset_recycles_across_shrinking_and_growing() {
        let mut g = graph(3, &[(0, 1, EdgeKind::SessionOrder), (1, 2, k(0))]);
        let grown = g.heap_bytes();

        // Shrink: buffers are kept, only cleared.
        g.reset(1);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_emitted_edges(), 0);
        g.freeze();
        assert!(g.successors(0).is_empty());
        assert!(g.is_acyclic());
        assert!(
            g.heap_bytes() >= grown - 64,
            "shrinking reset must not free the large history's buffers"
        );

        // Grow back: same shape as the first build — no arena growth.
        g.reset(3);
        g.add_edge(0, 1, EdgeKind::SessionOrder);
        g.add_edge(1, 2, k(0));
        g.freeze();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.successors(1), &[2 | INFERRED_BIT]);
        assert!(g.heap_bytes() <= grown, "regrow must reuse, not grow");
    }

    #[test]
    fn parallel_shards_are_adopted_in_shard_order() {
        let pool = parallel::Pool::new(4);
        let shards: Vec<u32> = (0..8).collect();
        let mut g = CommitGraph::new(9);
        g.add_edge(8, 0, EdgeKind::SessionOrder);
        g.fill_shards(&pool, 4, "test_stage", &shards, |&s, sink| {
            sink.add_edge(8, s, k(s));
        });
        g.freeze();
        let order: Vec<u32> = g.successors(8).iter().map(|&e| target(e)).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
        let bytes = g.heap_bytes();
        // A same-shape refill reuses every shard buffer.
        g.reset(9);
        g.add_edge(8, 0, EdgeKind::SessionOrder);
        g.fill_shards(&pool, 4, "test_stage", &shards, |&s, sink| {
            sink.add_edge(8, s, k(s));
        });
        g.freeze();
        assert_eq!(g.heap_bytes(), bytes);
    }

    #[test]
    fn large_path_graph_does_not_overflow_stack() {
        // Iterative Tarjan must handle deep graphs.
        let n = 200_000;
        let mut g = CommitGraph::new(n);
        for i in 0..(n as u32 - 1) {
            g.add_edge(i, i + 1, EdgeKind::SessionOrder);
        }
        g.freeze();
        assert!(g.is_acyclic());
        assert_eq!(g.sccs().len(), n);
    }
}
