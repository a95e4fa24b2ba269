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
//! # Retirement and link edges
//!
//! Every node records its session and its position in that session. Every
//! out-edge carries a **link bit**: set when the edge is inserted as
//! [`EdgeKind::SessionOrder`] or [`EdgeKind::Condensed`], and set on an
//! existing edge whenever a condensation asks for that pair (the edge's
//! witness label stays the kind it was first inserted with). Retiring a
//! node ([`IncrementalDag::retire_node`]) condenses through its link
//! out-edges only. (Condensing by edge kind instead would lose an ordering
//! whenever the pair a condensation needs already exists as a `wr` or
//! inferred edge: that edge is dropped as a one-off when its source
//! retires.)
//!
//! The caller keeps the **link invariant**: each live node has a link edge
//! to the next live node of its session, if that node has been added. A
//! new node's session-order edge comes from its session's newest node, and
//! a session's newest node is never retired. Given the invariant,
//! retirement keeps only the *latest* in-neighbour of each session and the
//! *earliest* link successor of each session: any other in-neighbour `a`
//! reaches the kept `a*` of its session along the session chain, and the
//! kept `b*` reaches any other link successor `b` of its session the same
//! way, so `a →link* a* → b* →link* b` stands in for the skipped pair. The
//! retired node's own session predecessor and successor are among the kept
//! pair, so the chain survives the retirement.
//!
//! A retirement costs `O(in(v) + out(v) + Σ out(a) + Σ in(b) + s_in·s_out)`
//! for in-neighbours `a`, out-neighbours `b`, and `s_in` and `s_out`
//! sessions among the in-neighbours and link successors: one scan per
//! neighbour list to unlink the node, the kept in-neighbours' scans also
//! marking the pairs already present, and at most one new edge per
//! (source session, target session) pair. On the
//! `watch_cc_fresh` benchmark stream (100,020 transactions, 99,366 retired)
//! retirement adds 937,068 edges and leaves 5,470 live, where condensing
//! every (in-neighbour, successor) pair adds 3,064,544 and leaves 9,498.

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

/// One out-edge: the target slot, the kind it was first inserted with, and
/// whether retirement condenses through it (see the module docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct OutEdge {
    to: u32,
    kind: EdgeKind,
    link: bool,
}

/// Whether inserting an edge of `kind` makes it a link edge.
fn is_link(kind: EdgeKind) -> bool {
    matches!(kind, EdgeKind::SessionOrder | EdgeKind::Condensed)
}

/// Per-session retirement scratch, stamped with the retirement's round so
/// it never needs clearing.
#[derive(Copy, Clone, Debug, Default)]
struct SessionPick {
    /// Round in which `latest_in` was picked.
    in_round: u64,
    /// The session's latest in-neighbour of the node being retired.
    latest_in: u32,
    /// Round in which `first_out` was picked.
    out_round: u64,
    /// The session's earliest link successor of the node being retired.
    first_out: u32,
}

/// Spare adjacency-list buffers, by capacity: 4, 8, 16, 32 and 64 entries.
///
/// A retired node's lists come here cleared, and a list that is full
/// trades its buffer for a spare of twice the capacity before growing, so
/// a warm DAG's lists grow without allocating while each list holds only
/// the capacity its own node needed. (Handing a retired node's lists back
/// to its slot instead lets a slot's capacity ratchet up to the largest
/// its nodes ever needed: keeping lists of up to 64 entries that way raised
/// `awdit watch`'s peak RSS on the `watch_cc_fresh` benchmark stream from
/// 4.5 to 5.1 MB.) Longer, hub-sized lists are dropped.
#[derive(Debug)]
struct ListPool<T> {
    classes: [Vec<Vec<T>>; 5],
}

impl<T> Default for ListPool<T> {
    fn default() -> Self {
        ListPool {
            classes: Default::default(),
        }
    }
}

impl<T> ListPool<T> {
    /// The class of buffers with `capacity` entries, if pooled.
    fn class(capacity: usize) -> Option<usize> {
        let c = capacity.trailing_zeros() as usize;
        (capacity.is_power_of_two() && (2..=6).contains(&c)).then(|| c - 2)
    }

    /// Appends `item` to `list`, moving the list into a spare buffer of
    /// twice its capacity first when it is full and one is pooled.
    fn push(&mut self, list: &mut Vec<T>, item: T) {
        if list.len() == list.capacity() {
            let grown = Self::class((2 * list.capacity()).max(4));
            if let Some(mut spare) = grown.and_then(|c| self.classes[c].pop()) {
                spare.append(list);
                self.give(std::mem::replace(list, spare));
            }
        }
        list.push(item);
    }

    /// Takes a list's buffer back, cleared, if its capacity is pooled.
    fn give(&mut self, mut list: Vec<T>) {
        if let Some(c) = Self::class(list.capacity()) {
            list.clear();
            self.classes[c].push(list);
        }
    }
}

/// Dynamic DAG with online cycle detection (Pearce–Kelly).
#[derive(Debug, Default)]
pub struct IncrementalDag {
    out: Vec<Vec<OutEdge>>,
    inn: Vec<Vec<u32>>,
    ord: Vec<u64>,
    alive: Vec<bool>,
    /// Per slot: its session and its position in that session.
    session: Vec<u32>,
    pos: Vec<u32>,
    next_ord: u64,
    edges: u64,
    // DFS and retirement scratch, stamped to avoid clearing.
    visit_stamp: Vec<u64>,
    round: u64,
    picks: Vec<SessionPick>,
    targets: Vec<u32>,
    /// Per slot: the retirement round in which it is a condensation
    /// target, then the mark of the last kept source already pointing at
    /// it (marks of one retirement exceed its round).
    target_stamp: Vec<u64>,
    out_pool: ListPool<OutEdge>,
    in_pool: ListPool<u32>,
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

    /// Registers slot `v` as a fresh node at the end of the current order,
    /// at position `pos` of `session` (positions increase along a session).
    /// Must be called before `v` appears in any edge; reuses freed slots.
    pub fn ensure_node(&mut self, v: u32, session: u32, pos: u32) {
        let i = v as usize;
        if self.out.len() <= i {
            self.out.resize_with(i + 1, Vec::new);
            self.inn.resize_with(i + 1, Vec::new);
            self.ord.resize(i + 1, 0);
            self.alive.resize(i + 1, false);
            self.session.resize(i + 1, 0);
            self.pos.resize(i + 1, 0);
            self.visit_stamp.resize(i + 1, 0);
            self.target_stamp.resize(i + 1, 0);
        }
        if self.picks.len() <= session as usize {
            self.picks
                .resize(session as usize + 1, SessionPick::default());
        }
        debug_assert!(!self.alive[i], "slot {v} already live");
        self.out[i].clear();
        self.inn[i].clear();
        self.alive[i] = true;
        self.session[i] = session;
        self.pos[i] = pos;
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
        self.out[x as usize].iter().any(|e| e.to == y)
    }

    /// Inserts `x → y`. Returns `Err(cycle)` — a closed walk starting with
    /// the new edge — if the insertion would create a cycle; the edge is
    /// **not** added in that case, so the structure stays acyclic and
    /// checking can continue.
    ///
    /// Duplicate `(x, y)` pairs are ignored (first kind wins), mirroring the
    /// batch graph where duplicates never affect acyclicity; a duplicate
    /// inserted as a link kind still sets the edge's link bit.
    pub fn insert_edge(&mut self, x: u32, y: u32, kind: EdgeKind) -> Result<(), Vec<DagEdge>> {
        debug_assert!(self.is_live(x) && self.is_live(y));
        if x == y {
            return Err(vec![DagEdge {
                from: x,
                to: y,
                kind,
            }]);
        }
        if let Some(e) = self.out[x as usize].iter_mut().find(|e| e.to == y) {
            e.link |= is_link(kind);
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
                for &OutEdge { to: w, kind: k, .. } in &self.out[v as usize] {
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
        let edge = OutEdge {
            to: y,
            kind,
            link: is_link(kind),
        };
        self.out_pool.push(&mut self.out[x as usize], edge);
        self.in_pool.push(&mut self.inn[y as usize], x);
        self.edges += 1;
        Ok(())
    }

    /// Retires node `v`: removes it with all its edges and condenses the
    /// orderings that ran through it onto the session chains (see the
    /// module docs). The latest in-neighbour `a` of each session gains a
    /// link edge `a → b` ([`EdgeKind::Condensed`]) to the earliest link
    /// successor `b` of each session; where `a → b` is already present it
    /// keeps its kind and gains the link bit instead. Returns the number
    /// of edges added. The slot may be reused via
    /// [`ensure_node`](Self::ensure_node); `v`'s own lists become spares
    /// that full lists trade up into.
    ///
    /// The added edges never close a cycle or need a reorder, because
    /// `a → v → b` already orders `ord[a] < ord[v] < ord[b]`; they are
    /// appended directly.
    pub fn retire_node(&mut self, v: u32) -> u64 {
        let vi = v as usize;
        debug_assert!(self.alive[vi]);
        let ins = std::mem::take(&mut self.inn[vi]);
        let outs = std::mem::take(&mut self.out[vi]);
        self.alive[vi] = false;
        self.edges -= (ins.len() + outs.len()) as u64;
        self.round += 1;
        let round = self.round;
        let mut mark = round;
        let Self {
            out,
            inn,
            ord,
            session,
            pos,
            picks,
            targets,
            target_stamp,
            out_pool,
            in_pool,
            ..
        } = self;
        for &a in &ins {
            let ai = a as usize;
            let p = &mut picks[session[ai] as usize];
            if p.in_round != round || pos[ai] > pos[p.latest_in as usize] {
                p.in_round = round;
                p.latest_in = a;
            }
        }
        for e in &outs {
            let bi = e.to as usize;
            let list = &mut inn[bi];
            let at = list.iter().position(|&u| u == v);
            debug_assert!(at.is_some(), "edge {v} → {bi} missing from inn[{bi}]");
            if let Some(p) = at {
                list.remove(p);
            }
            let p = &mut picks[session[bi] as usize];
            if e.link && (p.out_round != round || pos[bi] < pos[p.first_out as usize]) {
                p.out_round = round;
                p.first_out = e.to;
            }
        }
        targets.clear();
        for e in &outs {
            if e.link && picks[session[e.to as usize] as usize].first_out == e.to {
                targets.push(e.to);
                target_stamp[e.to as usize] = round;
            }
        }
        let mut added = 0;
        for &a in &ins {
            let ai = a as usize;
            let list = &mut out[ai];
            if picks[session[ai] as usize].latest_in != a {
                let at = list.iter().position(|e| e.to == v);
                debug_assert!(at.is_some(), "edge {a} → {v} missing from out[{a}]");
                if let Some(p) = at {
                    list.remove(p);
                }
                continue;
            }
            // A kept source: one pass drops v and marks the kept targets
            // `a` already points at; the unmarked ones are the new edges.
            mark += 1;
            list.retain_mut(|e| {
                if e.to == v {
                    return false;
                }
                let stamp = &mut target_stamp[e.to as usize];
                if *stamp >= round {
                    e.link = true;
                    *stamp = mark;
                }
                true
            });
            for &b in targets.iter() {
                let bi = b as usize;
                if target_stamp[bi] != mark {
                    debug_assert!(ord[ai] < ord[bi]);
                    let edge = OutEdge {
                        to: b,
                        kind: EdgeKind::Condensed,
                        link: true,
                    };
                    out_pool.push(list, edge);
                    in_pool.push(&mut inn[bi], a);
                    added += 1;
                }
            }
        }
        self.round = mark;
        self.edges += added;
        self.in_pool.give(ins);
        self.out_pool.give(outs);
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

    /// `n` nodes, each alone in its own session.
    fn dag_of(n: u32) -> IncrementalDag {
        let mut d = IncrementalDag::new();
        for v in 0..n {
            d.ensure_node(v, v, 0);
        }
        d
    }

    /// The pairwise reference for `retire_node`: unlink `v`, then insert
    /// every (in-neighbour, successor) pair through `insert_edge`, for the
    /// successors whose out-edge passes `through`. Returns the edges added.
    fn pairwise_retire(d: &mut IncrementalDag, v: u32, through: fn(&OutEdge) -> bool) -> u64 {
        let vi = v as usize;
        let ins = d.inn[vi].clone();
        let outs: Vec<u32> = d.out[vi]
            .iter()
            .filter(|e| through(e))
            .map(|e| e.to)
            .collect();
        for e in std::mem::take(&mut d.out[vi]) {
            d.inn[e.to as usize].retain(|&u| u != v);
            d.edges -= 1;
        }
        for w in std::mem::take(&mut d.inn[vi]) {
            d.out[w as usize].retain(|e| e.to != v);
            d.edges -= 1;
        }
        d.alive[vi] = false;
        let before = d.edges;
        for &a in &ins {
            for &b in &outs {
                d.insert_edge(a, b, EdgeKind::Condensed).unwrap();
            }
        }
        d.edges - before
    }

    /// Per live slot, the set of slots it reaches (a bitset), computed in
    /// reverse topological order; dead slots reach nothing.
    fn closure(d: &IncrementalDag) -> Vec<Vec<u64>> {
        let words = d.out.len().div_ceil(64);
        let mut reach = vec![vec![0u64; words]; d.out.len()];
        let mut live: Vec<u32> = (0..d.out.len() as u32).filter(|&v| d.is_live(v)).collect();
        live.sort_by_key(|&v| std::cmp::Reverse(d.ord[v as usize]));
        for v in live {
            let mut row = vec![0u64; words];
            for e in &d.out[v as usize] {
                let w = e.to as usize;
                assert!(d.ord[v as usize] < d.ord[w], "order invariant");
                row[w / 64] |= 1 << (w % 64);
                for (r, x) in row.iter_mut().zip(&reach[w]) {
                    *r |= x;
                }
            }
            reach[v as usize] = row;
        }
        reach
    }

    /// Inserts `x → y` into the change (`d`) and its reference (`r`),
    /// which must agree on acceptance and on the closing edge of a
    /// rejected cycle; an edge both accept goes into the no-link-bit
    /// reference (`h`) too, which must accept it.
    fn insert3(
        [d, r, h]: [&mut IncrementalDag; 3],
        x: u32,
        y: u32,
        kind: EdgeKind,
        step: usize,
    ) -> bool {
        let got = d.insert_edge(x, y, kind);
        let want = r.insert_edge(x, y, kind);
        let closing = |res: &Result<(), Vec<DagEdge>>| res.as_ref().map_err(|c| c[0]).copied();
        assert_eq!(
            closing(&got),
            closing(&want),
            "insert {x} → {y} at step {step}"
        );
        match got {
            Ok(()) => {
                assert!(h.insert_edge(x, y, kind).is_ok(), "step {step}");
                true
            }
            Err(cycle) => {
                assert_eq!(cycle.last().map(|e| e.to), Some(x));
                for w in cycle.windows(2) {
                    assert_eq!(w[0].to, w[1].from);
                    assert!(d.has_edge(w[1].from, w[1].to));
                }
                false
            }
        }
    }

    #[test]
    fn retire_node_matches_pairwise_reachability() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move |n: u32| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % n as u64) as u32
        };
        const SLOTS: u32 = 200;
        const SESSIONS: usize = 8;
        // The change, the pairwise reference with the link bit, and the
        // pairwise reference that condenses through session-order and
        // condensed *kinds* instead.
        let mut d = IncrementalDag::new();
        let mut r = IncrementalDag::new();
        let mut h = IncrementalDag::new();
        // Per session, its newest node (the next node's so-predecessor,
        // never retired) and its next position.
        let mut tail: Vec<Option<u32>> = vec![None; SESSIONS];
        let mut next_pos = [0u32; SESSIONS];
        let mut free: Vec<u32> = (0..SLOTS).rev().collect();
        let mut live: Vec<u32> = Vec::new();
        let mut hubs: Vec<u32> = Vec::new();
        let (mut condensed, mut condensed_pairwise, mut rejected) = (0, 0, 0);
        for step in 0..3000 {
            match next(10) {
                // A new node, reusing freed slots: so-edge from its
                // session's tail, forward edges from earlier live nodes
                // (many into the current hubs).
                0..=3 if !free.is_empty() => {
                    let v = free.pop().unwrap();
                    let s = next(SESSIONS as u32) as usize;
                    for g in [&mut d, &mut r, &mut h] {
                        g.ensure_node(v, s as u32, next_pos[s]);
                    }
                    next_pos[s] += 1;
                    if let Some(p) = tail[s] {
                        assert!(insert3([&mut d, &mut r, &mut h], p, v, k(), step));
                    }
                    tail[s] = Some(v);
                    for _ in 0..next(4) {
                        if let Some(&u) = live.get(next(live.len().max(1) as u32) as usize) {
                            let kind = EdgeKind::WriteRead(Key(next(4)));
                            insert3([&mut d, &mut r, &mut h], u, v, kind, step);
                        }
                    }
                    for &hub in &hubs {
                        if next(3) == 0 {
                            let kind = EdgeKind::Inferred(Key(next(4)));
                            insert3([&mut d, &mut r, &mut h], v, hub, kind, step);
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
                // acceptance and closing edges must match.
                4..=6 if live.len() >= 2 => {
                    let x = live[next(live.len() as u32) as usize];
                    let y = live[next(live.len() as u32) as usize];
                    let kind = match next(2) {
                        0 => EdgeKind::WriteRead(Key(next(4))),
                        _ => EdgeKind::Inferred(Key(next(4))),
                    };
                    if !insert3([&mut d, &mut r, &mut h], x, y, kind, step) {
                        rejected += 1;
                    }
                }
                // Retire a live node other than a session's tail (hubs
                // included).
                _ if !live.is_empty() => {
                    let i = next(live.len() as u32) as usize;
                    let v = live[i];
                    if tail.contains(&Some(v)) {
                        continue;
                    }
                    live.swap_remove(i);
                    condensed += d.retire_node(v);
                    condensed_pairwise += pairwise_retire(&mut r, v, |e| e.link);
                    pairwise_retire(&mut h, v, |e| is_link(e.kind));
                    hubs.retain(|&x| x != v);
                    free.push(v);
                }
                _ => {}
            }
            let (cd, ch) = (closure(&d), closure(&h));
            assert_eq!(cd, closure(&r), "closure at step {step}");
            for (v, (row, old)) in cd.iter().zip(&ch).enumerate() {
                for (w, (a, b)) in row.iter().zip(old).enumerate() {
                    assert_eq!(a & b, *b, "slot {v} lost reach (word {w}) at step {step}");
                }
            }
        }
        assert!(condensed > 500, "only {condensed} condensed edges");
        assert!(
            condensed < condensed_pairwise,
            "{condensed} vs {condensed_pairwise}"
        );
        assert!(rejected > 100, "only {rejected} rejected edges");
    }

    #[test]
    fn link_bit_keeps_a_session_link_recorded_as_wr() {
        // p → v → n in session 0, x in session 1: x →co p, and p →wr n
        // duplicates the link that retiring v asks for.
        let (p, v, n, x) = (0, 1, 2, 3);
        let mut d = IncrementalDag::new();
        d.ensure_node(p, 0, 0);
        d.ensure_node(v, 0, 1);
        d.ensure_node(n, 0, 2);
        d.ensure_node(x, 1, 0);
        d.insert_edge(x, p, EdgeKind::Inferred(Key(0))).unwrap();
        d.insert_edge(p, v, EdgeKind::SessionOrder).unwrap();
        d.insert_edge(v, n, EdgeKind::SessionOrder).unwrap();
        d.insert_edge(p, n, EdgeKind::WriteRead(Key(1))).unwrap();
        assert_eq!(d.retire_node(v), 0);
        assert_eq!(d.retire_node(p), 1);
        // x → p → v → n → x is a real cycle.
        let cycle = d.insert_edge(n, x, EdgeKind::Inferred(Key(2))).unwrap_err();
        assert_eq!(
            cycle[1],
            DagEdge {
                from: x,
                to: n,
                kind: EdgeKind::Condensed
            }
        );
    }

    #[test]
    fn link_bit_keeps_a_cross_session_link_recorded_as_co() {
        // Session A: a1 → v → a2; b in session B, x in session C.
        // x →co a1, v →cond b, and a1 →co b duplicates the pair that
        // retiring v asks for.
        let (a1, v, a2, b, x) = (0, 1, 2, 3, 4);
        let mut d = IncrementalDag::new();
        d.ensure_node(a1, 0, 0);
        d.ensure_node(v, 0, 1);
        d.ensure_node(a2, 0, 2);
        d.ensure_node(b, 1, 0);
        d.ensure_node(x, 2, 0);
        d.insert_edge(x, a1, EdgeKind::Inferred(Key(0))).unwrap();
        d.insert_edge(a1, v, EdgeKind::SessionOrder).unwrap();
        d.insert_edge(v, a2, EdgeKind::SessionOrder).unwrap();
        d.insert_edge(v, b, EdgeKind::Condensed).unwrap();
        d.insert_edge(a1, b, EdgeKind::Inferred(Key(1))).unwrap();
        assert_eq!(d.retire_node(v), 1); // a1 → a2
        assert_eq!(d.retire_node(a1), 2); // x → a2, x → b
                                          // x → a1 → v → b → x is a real cycle.
        assert!(d.insert_edge(b, x, EdgeKind::Inferred(Key(2))).is_err());
    }

    #[test]
    fn retire_node_keeps_one_pair_per_session_pair() {
        // Session 0: a0 → a1 → a2, all into the hub; session 1: b0 → b1,
        // both link successors of the hub; session 2: c, the hub's
        // session successor. Only a2 → b0 and a2 → c are added.
        let (a0, a1, a2, hub, b0, b1, c) = (0, 1, 2, 3, 4, 5, 6);
        let mut d = IncrementalDag::new();
        for (i, &a) in [a0, a1, a2].iter().enumerate() {
            d.ensure_node(a, 0, i as u32);
        }
        d.ensure_node(hub, 2, 0);
        d.ensure_node(b0, 1, 0);
        d.ensure_node(b1, 1, 1);
        d.ensure_node(c, 2, 1);
        d.insert_edge(a0, a1, k()).unwrap();
        d.insert_edge(a1, a2, k()).unwrap();
        for a in [a0, a1, a2] {
            d.insert_edge(a, hub, EdgeKind::WriteRead(Key(0))).unwrap();
        }
        d.insert_edge(b0, b1, k()).unwrap();
        d.insert_edge(hub, b1, EdgeKind::Condensed).unwrap();
        d.insert_edge(hub, b0, EdgeKind::Condensed).unwrap();
        d.insert_edge(hub, c, k()).unwrap();
        assert_eq!(d.retire_node(hub), 2);
        assert_eq!(d.num_edges(), 5);
        let b0_link = OutEdge {
            to: b0,
            kind: EdgeKind::Condensed,
            link: true,
        };
        let c_link = OutEdge { to: c, ..b0_link };
        assert_eq!(d.out[a2 as usize], vec![b0_link, c_link]);
        assert_eq!(d.inn[b1 as usize], vec![b0]);
    }

    #[test]
    fn retire_node_skips_edges_already_present() {
        // a_0..a_63 (one session each) → hub → b, where a_0..a_2 already
        // point at b: retiring the hub condenses exactly the 61 missing
        // edges and marks the 3 present ones as links.
        let (hub, b) = (64, 65);
        let mut d = dag_of(66);
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
        let wr = OutEdge {
            to: b,
            kind: EdgeKind::WriteRead(Key(1)),
            link: true,
        };
        assert_eq!(d.out[0], vec![wr]);
        let condensed = OutEdge {
            kind: EdgeKind::Condensed,
            ..wr
        };
        assert_eq!(d.out[3], vec![condensed]);
    }

    #[test]
    fn full_lists_trade_up_into_pooled_buffers() {
        let mut pool = ListPool::<u32>::default();
        pool.give(Vec::with_capacity(8));
        pool.give(Vec::with_capacity(4));
        pool.give(Vec::with_capacity(128)); // hub-sized: dropped
        let mut list = Vec::new();
        for x in 0..6 {
            pool.push(&mut list, x);
        }
        assert_eq!(list, [0, 1, 2, 3, 4, 5]);
        assert_eq!(list.capacity(), 8);
        // The 4-entry buffer went back: it is the only spare left.
        let spares: Vec<usize> = pool
            .classes
            .iter()
            .flat_map(|c| c.iter().map(|b| b.capacity()))
            .collect();
        assert_eq!(spares, [4]);
    }

    #[test]
    fn in_order_insertions_are_accepted() {
        let mut d = dag_of(5);
        for v in 0..4 {
            assert!(d.insert_edge(v, v + 1, k()).is_ok());
        }
        assert_eq!(d.num_edges(), 4);
    }

    #[test]
    fn out_of_order_insertion_reorders() {
        let mut d = dag_of(3);
        // 2 → 1 → 0 is fine, just reversed relative to insertion order.
        assert!(d.insert_edge(2, 1, k()).is_ok());
        assert!(d.insert_edge(1, 0, k()).is_ok());
        assert!(d.ord[2] < d.ord[1] && d.ord[1] < d.ord[0]);
    }

    #[test]
    fn cycle_is_detected_with_path() {
        let mut d = dag_of(3);
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
            d.ensure_node(v, 0, v);
        }
        d.insert_edge(0, 1, k()).unwrap();
        d.insert_edge(1, 2, k()).unwrap();
        assert_eq!(d.retire_node(0), 0);
        assert_eq!(d.num_edges(), 1);
        assert_eq!(d.in_degree(1), 0);
        d.ensure_node(0, 1, 0);
        // The recycled slot starts fresh at the end of the order.
        assert!(d.insert_edge(2, 0, k()).is_ok());
        assert!(d.insert_edge(0, 1, k()).unwrap_err().len() >= 2);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut d = dag_of(2);
        assert!(d.insert_edge(0, 1, EdgeKind::WriteRead(Key(0))).is_ok());
        assert!(d.insert_edge(0, 1, k()).is_ok());
        assert_eq!(d.num_edges(), 1);
        // First kind wins; the link insertion still marks the edge.
        let e = d.out[0][0];
        assert_eq!((e.kind, e.link), (EdgeKind::WriteRead(Key(0)), true));
    }

    #[test]
    fn long_random_stress_stays_consistent() {
        // Insert a few hundred random edges; every Ok insertion must keep
        // ord a valid topological order.
        let n = 60u32;
        let mut d = dag_of(n);
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
                for e in &d.out[v as usize] {
                    assert!(d.ord[v as usize] < d.ord[e.to as usize], "order invariant");
                }
            }
        }
    }
}
