//! An incrementally maintained DAG over live transactions.
//!
//! The batch pipeline saturates the whole commit relation and then runs
//! Tarjan once; an online checker instead needs to know *at every edge
//! insertion* whether the relation just became cyclic. This module
//! implements the Pearce–Kelly algorithm for dynamic topological order
//! maintenance: each node carries an order value, in-order insertions are
//! `O(1)`, and an out-of-order insertion triggers a localized search of the
//! affected region — returning the offending path when the new edge closes
//! a cycle.
//!
//! Nodes are slab slots: they can be removed (watermark pruning) and their
//! ids reused; order values are drawn from a monotone `u64` counter and are
//! never reused, so a recycled slot cannot alias a stale order.
//!
//! Retiring a node ([`IncrementalDag::retire_node`]) condenses it away in
//! `O(Σ out(a) + Σ in(b) + in(v)·s)` for in-neighbors `a`, out-neighbors
//! `b` and the `s` session-order/condensed successors of `v`: one unlink
//! scan per neighbor list, and one stamping pass over each successor's
//! in-list, in place of a duplicate scan of `out(a)` for every condensed
//! pair. Long-lived boundary writers collect hundreds of in-neighbors, so
//! the difference is large: on the `watch_cc_fresh` benchmark stream
//! (100,020 transactions, 99,366 retired) retirement touches 0.17G list
//! entries, where per-pair duplicate scans and per-neighbor `retain`s
//! touch 1.19G.

use std::collections::HashMap;

use awdit_core::graph::EdgeKind;

/// An edge of a cycle returned by [`IncrementalDag::insert_edge`], in slot
/// space.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DagEdge {
    /// Source slot.
    pub from: u32,
    /// Target slot.
    pub to: u32,
    /// Provenance of the ordering.
    pub kind: EdgeKind,
}

/// Dynamic DAG with online cycle detection (Pearce–Kelly).
#[derive(Debug, Default)]
pub struct IncrementalDag {
    out: Vec<Vec<(u32, EdgeKind)>>,
    inn: Vec<Vec<u32>>,
    ord: Vec<u64>,
    alive: Vec<bool>,
    next_ord: u64,
    edges: u64,
    // DFS scratch, stamped to avoid clearing.
    visit_stamp: Vec<u64>,
    round: u64,
}

impl IncrementalDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every node and edge for a fresh stream. The slot arrays and
    /// their adjacency lists keep their capacity; order values stay
    /// monotone across the clear (the no-alias guarantee extends across
    /// streams for free).
    pub fn clear(&mut self) {
        for v in &mut self.out {
            v.clear();
        }
        for v in &mut self.inn {
            v.clear();
        }
        self.alive.iter_mut().for_each(|a| *a = false);
        self.edges = 0;
    }

    /// Registers slot `v` as a fresh node at the end of the current order.
    /// Must be called before `v` appears in any edge; reuses freed slots.
    pub fn ensure_node(&mut self, v: u32) {
        let i = v as usize;
        if self.out.len() <= i {
            self.out.resize_with(i + 1, Vec::new);
            self.inn.resize_with(i + 1, Vec::new);
            self.ord.resize(i + 1, 0);
            self.alive.resize(i + 1, false);
            self.visit_stamp.resize(i + 1, 0);
        }
        debug_assert!(!self.alive[i], "slot {v} already live");
        self.out[i].clear();
        self.inn[i].clear();
        self.alive[i] = true;
        self.ord[i] = self.next_ord;
        self.next_ord += 1;
    }

    /// Whether `v` is currently a live node.
    pub fn is_live(&self, v: u32) -> bool {
        self.alive.get(v as usize).copied().unwrap_or(false)
    }

    /// Number of live in-edges of `v`.
    pub fn in_degree(&self, v: u32) -> usize {
        self.inn[v as usize].len()
    }

    /// Total live edges.
    pub fn num_edges(&self) -> u64 {
        self.edges
    }

    /// The topological order value of `v` (for pruning sweeps).
    pub fn order_of(&self, v: u32) -> u64 {
        self.ord[v as usize]
    }

    /// Whether the edge `x → y` is already present.
    pub fn has_edge(&self, x: u32, y: u32) -> bool {
        self.out[x as usize].iter().any(|&(w, _)| w == y)
    }

    /// Inserts `x → y`. Returns `Err(cycle)` — a closed walk starting with
    /// the new edge — if the insertion would create a cycle; the edge is
    /// **not** added in that case, so the structure stays acyclic and
    /// checking can continue.
    ///
    /// Duplicate `(x, y)` pairs are ignored (first kind wins), mirroring the
    /// batch graph where duplicates never affect acyclicity.
    pub fn insert_edge(&mut self, x: u32, y: u32, kind: EdgeKind) -> Result<(), Vec<DagEdge>> {
        debug_assert!(self.is_live(x) && self.is_live(y));
        if x == y {
            return Err(vec![DagEdge {
                from: x,
                to: y,
                kind,
            }]);
        }
        if self.has_edge(x, y) {
            return Ok(());
        }
        if self.ord[x as usize] > self.ord[y as usize] {
            // Affected region: does y reach x through nodes ordered ≤ ord[x]?
            self.round += 1;
            let ub = self.ord[x as usize];
            let mut parent: HashMap<u32, (u32, EdgeKind)> = HashMap::new();
            let mut delta_f: Vec<u32> = Vec::new();
            let mut stack = vec![y];
            self.visit_stamp[y as usize] = self.round;
            let mut reached = false;
            while let Some(v) = stack.pop() {
                delta_f.push(v);
                if v == x {
                    reached = true;
                    break;
                }
                for &(w, k) in &self.out[v as usize] {
                    let wi = w as usize;
                    if self.ord[wi] <= ub && self.visit_stamp[wi] != self.round {
                        self.visit_stamp[wi] = self.round;
                        parent.insert(w, (v, k));
                        stack.push(w);
                    }
                }
            }
            if reached {
                // Reconstruct y →* x, then close with the new edge x → y.
                let mut path_rev: Vec<DagEdge> = Vec::new();
                let mut cur = x;
                while cur != y {
                    let &(p, k) = parent.get(&cur).expect("parent chain reaches y");
                    path_rev.push(DagEdge {
                        from: p,
                        to: cur,
                        kind: k,
                    });
                    cur = p;
                }
                path_rev.reverse();
                let mut cycle = vec![DagEdge {
                    from: x,
                    to: y,
                    kind,
                }];
                cycle.extend(path_rev);
                return Err(cycle);
            }

            // No cycle: reorder the affected region. δF = forward from y
            // (ord ≤ ord[x]), δB = backward from x (ord ≥ ord[y]).
            self.round += 1;
            let lb = self.ord[y as usize];
            let mut delta_b: Vec<u32> = Vec::new();
            let mut stack = vec![x];
            self.visit_stamp[x as usize] = self.round;
            while let Some(v) = stack.pop() {
                delta_b.push(v);
                for &w in &self.inn[v as usize] {
                    let wi = w as usize;
                    if self.ord[wi] >= lb && self.visit_stamp[wi] != self.round {
                        self.visit_stamp[wi] = self.round;
                        stack.push(w);
                    }
                }
            }
            // Pool the order values, reassign: δB (in old order) first,
            // then δF (in old order).
            delta_b.sort_by_key(|&v| self.ord[v as usize]);
            delta_f.sort_by_key(|&v| self.ord[v as usize]);
            let mut pool: Vec<u64> = delta_b
                .iter()
                .chain(delta_f.iter())
                .map(|&v| self.ord[v as usize])
                .collect();
            pool.sort_unstable();
            for (slot, &v) in delta_b.iter().chain(delta_f.iter()).enumerate() {
                self.ord[v as usize] = pool[slot];
            }
        }
        self.out[x as usize].push((y, kind));
        self.inn[y as usize].push(x);
        self.edges += 1;
        Ok(())
    }

    /// Retires node `v`: removes it with all its edges and condenses the
    /// orderings that ran through it onto the session-order backbone.
    /// Every live in-neighbor `a` gains a [`EdgeKind::Condensed`] edge
    /// `a → b` to each `so`/condensed successor `b` of `v` unless `a → b`
    /// is already present. Returns the number of edges added. The slot may
    /// be reused via [`ensure_node`](Self::ensure_node).
    ///
    /// The added edges never close a cycle or need a reorder, because
    /// `a → v → b` already orders `ord[a] < ord[v] < ord[b]`; they are
    /// appended directly. Each list keeps its relative order, and appends
    /// land in in-neighbor order on `inn[b]` and in successor order on
    /// `out[a]`, exactly as inserting the pairs one by one would.
    pub fn retire_node(&mut self, v: u32) -> u64 {
        let vi = v as usize;
        debug_assert!(self.alive[vi]);
        // Take (not clear) the lists: a hub's capacity must not stay
        // parked on the recycled slot.
        let ins = std::mem::take(&mut self.inn[vi]);
        let outs = std::mem::take(&mut self.out[vi]);
        self.alive[vi] = false;
        self.edges -= (ins.len() + outs.len()) as u64;
        for &a in &ins {
            let list = &mut self.out[a as usize];
            let at = list.iter().position(|&(w, _)| w == v);
            debug_assert!(at.is_some(), "edge {a} → {v} missing from out[{a}]");
            if let Some(p) = at {
                list.remove(p);
            }
        }
        let mut added = 0;
        for &(b, kind) in &outs {
            let bi = b as usize;
            if !matches!(kind, EdgeKind::SessionOrder | EdgeKind::Condensed) {
                let list = &mut self.inn[bi];
                let at = list.iter().position(|&u| u == v);
                debug_assert!(at.is_some(), "edge {v} → {b} missing from inn[{b}]");
                if let Some(p) = at {
                    list.remove(p);
                }
                continue;
            }
            // One pass over inn[b] drops v and stamps the in-neighbors b
            // already has; the unstamped in-neighbors of v are the new
            // edges.
            self.round += 1;
            let round = self.round;
            let stamp = &mut self.visit_stamp;
            self.inn[bi].retain(|&u| {
                stamp[u as usize] = round;
                u != v
            });
            for &a in &ins {
                let ai = a as usize;
                if self.visit_stamp[ai] != round {
                    debug_assert!(self.ord[ai] < self.ord[bi]);
                    self.out[ai].push((b, EdgeKind::Condensed));
                    self.inn[bi].push(a);
                    added += 1;
                }
            }
        }
        self.edges += added;
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_core::Key;

    fn k() -> EdgeKind {
        EdgeKind::SessionOrder
    }

    /// The reference for `retire_node`: unlink with one `retain` per
    /// neighbor list, then insert every (in-neighbor, `so`/condensed
    /// successor) pair through `insert_edge`, which skips duplicates by
    /// scanning `out[a]`. Returns the edges added.
    fn reference_retire(d: &mut IncrementalDag, v: u32) -> u64 {
        let vi = v as usize;
        let ins = d.inn[vi].clone();
        let outs: Vec<u32> = d.out[vi]
            .iter()
            .filter(|&&(_, kind)| matches!(kind, EdgeKind::SessionOrder | EdgeKind::Condensed))
            .map(|&(w, _)| w)
            .collect();
        for (w, _) in std::mem::take(&mut d.out[vi]) {
            d.inn[w as usize].retain(|&u| u != v);
            d.edges -= 1;
        }
        for w in std::mem::take(&mut d.inn[vi]) {
            d.out[w as usize].retain(|&(u, _)| u != v);
            d.edges -= 1;
        }
        d.alive[vi] = false;
        let before = d.edges;
        for &a in &ins {
            for &b in &outs {
                if a != b {
                    d.insert_edge(a, b, EdgeKind::Condensed).unwrap();
                }
            }
        }
        d.edges - before
    }

    fn assert_same(d: &IncrementalDag, r: &IncrementalDag, step: usize) {
        assert_eq!(d.out, r.out, "out lists at step {step}");
        assert_eq!(d.inn, r.inn, "in lists at step {step}");
        assert_eq!(d.ord, r.ord, "order at step {step}");
        assert_eq!(d.alive, r.alive, "liveness at step {step}");
        assert_eq!(d.num_edges(), r.num_edges(), "edge count at step {step}");
    }

    #[test]
    fn retire_node_matches_pairwise_condensation() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move |n: u32| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % n as u64) as u32
        };
        const SLOTS: u32 = 300;
        const SESSIONS: usize = 8;
        let mut d = IncrementalDag::new();
        let mut r = IncrementalDag::new();
        // Per session, its newest live node: the next node's so-predecessor.
        let mut tail: Vec<Option<u32>> = vec![None; SESSIONS];
        let mut free: Vec<u32> = (0..SLOTS).rev().collect();
        let mut live: Vec<u32> = Vec::new();
        let mut hubs: Vec<u32> = Vec::new();
        let mut condensed = 0;
        for step in 0..6000 {
            match next(10) {
                // A new node, reusing freed slots: so-edge from its
                // session's tail, forward edges from earlier live nodes
                // (many into the current hubs).
                0..=3 if !free.is_empty() => {
                    let v = free.pop().unwrap();
                    d.ensure_node(v);
                    r.ensure_node(v);
                    let s = next(SESSIONS as u32) as usize;
                    if let Some(p) = tail[s] {
                        assert_eq!(
                            d.insert_edge(p, v, EdgeKind::SessionOrder),
                            r.insert_edge(p, v, EdgeKind::SessionOrder)
                        );
                    }
                    tail[s] = Some(v);
                    for _ in 0..next(4) {
                        if let Some(&u) = live.get(next(live.len().max(1) as u32) as usize) {
                            let kind = EdgeKind::WriteRead(Key(next(4)));
                            assert_eq!(d.insert_edge(u, v, kind), r.insert_edge(u, v, kind));
                        }
                    }
                    for &h in &hubs {
                        if next(3) == 0 {
                            let kind = EdgeKind::Inferred(Key(next(4)));
                            assert_eq!(d.insert_edge(v, h, kind), r.insert_edge(v, h, kind));
                        }
                    }
                    live.push(v);
                    if next(40) == 0 {
                        hubs.push(v);
                        if hubs.len() > 3 {
                            hubs.remove(0);
                        }
                    }
                }
                // A random edge between live nodes, either direction:
                // reorders and rejected cycles must match, paths included.
                4..=6 if live.len() >= 2 => {
                    let x = live[next(live.len() as u32) as usize];
                    let y = live[next(live.len() as u32) as usize];
                    let kind = match next(3) {
                        0 => EdgeKind::SessionOrder,
                        1 => EdgeKind::Condensed,
                        _ => EdgeKind::Inferred(Key(next(4))),
                    };
                    assert_eq!(d.insert_edge(x, y, kind), r.insert_edge(x, y, kind));
                }
                // Retire a live node (hubs and tails included).
                _ if !live.is_empty() => {
                    let v = live.swap_remove(next(live.len() as u32) as usize);
                    let added = d.retire_node(v);
                    assert_eq!(added, reference_retire(&mut r, v), "step {step}");
                    condensed += added;
                    if let Some(t) = tail.iter_mut().find(|t| **t == Some(v)) {
                        *t = None;
                    }
                    hubs.retain(|&h| h != v);
                    free.push(v);
                }
                _ => {}
            }
            assert_same(&d, &r, step);
        }
        assert!(condensed > 1000, "only {condensed} condensed edges");
    }

    #[test]
    fn retire_node_skips_edges_already_present() {
        // a_0..a_63 → hub → b, where a_0..a_2 already point at b: retiring
        // the hub condenses exactly the 61 missing edges.
        let mut d = IncrementalDag::new();
        let (hub, b) = (64, 65);
        for v in 0..=65 {
            d.ensure_node(v);
        }
        for a in 0..64 {
            d.insert_edge(a, hub, EdgeKind::Inferred(Key(0))).unwrap();
        }
        d.insert_edge(hub, b, EdgeKind::SessionOrder).unwrap();
        for a in 0..3 {
            d.insert_edge(a, b, EdgeKind::WriteRead(Key(1))).unwrap();
        }
        assert_eq!(d.num_edges(), 68);
        assert_eq!(d.retire_node(hub), 61);
        assert_eq!(d.num_edges(), 64);
        assert_eq!(d.in_degree(b), 64);
        let inn: Vec<u32> = (0..64).collect();
        assert_eq!(d.inn[b as usize], inn);
        assert_eq!(d.out[0], vec![(b, EdgeKind::WriteRead(Key(1)))]);
        assert_eq!(d.out[3], vec![(b, EdgeKind::Condensed)]);
    }

    #[test]
    fn in_order_insertions_are_accepted() {
        let mut d = IncrementalDag::new();
        for v in 0..5 {
            d.ensure_node(v);
        }
        for v in 0..4 {
            assert!(d.insert_edge(v, v + 1, k()).is_ok());
        }
        assert_eq!(d.num_edges(), 4);
    }

    #[test]
    fn out_of_order_insertion_reorders() {
        let mut d = IncrementalDag::new();
        for v in 0..3 {
            d.ensure_node(v);
        }
        // 2 → 1 → 0 is fine, just reversed relative to insertion order.
        assert!(d.insert_edge(2, 1, k()).is_ok());
        assert!(d.insert_edge(1, 0, k()).is_ok());
        assert!(d.ord[2] < d.ord[1] && d.ord[1] < d.ord[0]);
    }

    #[test]
    fn cycle_is_detected_with_path() {
        let mut d = IncrementalDag::new();
        for v in 0..3 {
            d.ensure_node(v);
        }
        assert!(d.insert_edge(0, 1, k()).is_ok());
        assert!(d.insert_edge(1, 2, k()).is_ok());
        let err = d.insert_edge(2, 0, k()).unwrap_err();
        // Closed walk: 2 → 0 → 1 → 2.
        assert_eq!(err.len(), 3);
        assert_eq!(err[0].from, 2);
        assert_eq!(err[0].to, 0);
        assert_eq!(err.last().unwrap().to, 2);
        for w in err.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
        // The offending edge was not added; the DAG stays usable.
        assert_eq!(d.num_edges(), 2);
        assert!(d.insert_edge(0, 2, k()).is_ok());
    }

    #[test]
    fn removal_frees_slots_for_reuse() {
        let mut d = IncrementalDag::new();
        for v in 0..3 {
            d.ensure_node(v);
        }
        d.insert_edge(0, 1, k()).unwrap();
        d.insert_edge(1, 2, k()).unwrap();
        assert_eq!(d.retire_node(0), 0);
        assert_eq!(d.num_edges(), 1);
        assert_eq!(d.in_degree(1), 0);
        d.ensure_node(0);
        // The recycled slot starts fresh at the end of the order.
        assert!(d.insert_edge(2, 0, k()).is_ok());
        assert!(d.insert_edge(0, 1, k()).unwrap_err().len() >= 2);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut d = IncrementalDag::new();
        for v in 0..2 {
            d.ensure_node(v);
        }
        assert!(d.insert_edge(0, 1, k()).is_ok());
        assert!(d.insert_edge(0, 1, k()).is_ok());
        assert_eq!(d.num_edges(), 1);
    }

    #[test]
    fn long_random_stress_stays_consistent() {
        // Insert a few hundred random edges; every Ok insertion must keep
        // ord a valid topological order.
        let mut d = IncrementalDag::new();
        let n = 60u32;
        for v in 0..n {
            d.ensure_node(v);
        }
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for _ in 0..600 {
            let a = next() % n;
            let b = next() % n;
            if a == b {
                continue;
            }
            let _ = d.insert_edge(a, b, k());
            for v in 0..n {
                for &(w, _) in &d.out[v as usize] {
                    assert!(d.ord[v as usize] < d.ord[w as usize], "order invariant");
                }
            }
        }
    }
}
