//! Causal Consistency (Algorithm 3): saturation of the minimal commit
//! relation for the CC axiom in `O(n·k)` time.
//!
//! The CC axiom (Definition 2.8, Figure 3c): if `t3` reads `x` from `t1`,
//! and `t2 ≠ t1` writes `x` with `t2 →(so ∪ wr)+→ t3` (happens-before),
//! then `t2` must commit before `t1`. Only the *session-latest*
//! happens-before writer of `x` per session needs a direct edge — earlier
//! ones are ordered transitively through it (minimality). The edge is also
//! skipped when `t2` already happens before `t1`: a `so ∪ wr` path orders
//! them, so the transitive closure, the SCCs and the valid commit orders
//! are the same without it (see [`infer_cc_edges`]).
//!
//! Happens-before is represented by per-transaction clock rows of a
//! [`ClockTable`] (`ComputeHB`): entry `s` of `t`'s row counts the committed
//! transactions of session `s` that happen before `t` (inclusive of `t`
//! itself in its own session), which is exact because happens-before
//! restricted to a session is prefix-closed.
//!
//! The saturation is the released AWDIT tool's variant (Section 5): clocks
//! are computed on the fly along a topological order of `so ∪ wr` and
//! freed once their last reader is processed, so only live clocks take
//! memory. One loop serves every thread count ([`saturate_cc_into`]): it
//! walks the order in fixed blocks, stores a block's rows, infers its
//! edges on fixed shards in parallel, then frees the rows nothing later
//! reads, so the table holds the live clocks plus one block. Each shard
//! drops an inferred pair it already emitted before it reaches the graph.
//! Each session's latest visible writer is found by searching its
//! `Writes_s'[x]` list ([`HistoryIndex::writers_before`]). The index numbers
//! committed transactions session-major, so a session's writers are
//! ascending dense ids whose offset from the session's first id *is* their
//! committed position: the search, and the test whether the observed writer
//! already sees the writer found, compare ids directly and exactly. Each
//! shard keeps a cursor per write list ([`WriterSearch`]) and gallops from
//! where the list's last search ended, which readers close in the order
//! make a near miss. `O(n·(k + log n))` time in the worst case.

use crate::graph::{base_commit_graph, base_commit_graph_into, CommitGraph, Cycle, EdgeKind};
use crate::incremental::{infer_cc_edges, CommitView, EdgeSink, WriterSearch};
use crate::index::{HistoryIndex, NONE};
use crate::parallel;

/// The CC saturation kernel. It has a single variant and stays only as
/// [`saturate_cc`]'s second parameter, which the benchmark harness under
/// `perfbench/` still passes; both go at the next change to the benchmark.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum CcStrategy {
    /// On-the-fly clocks and a dense-id search for visible writers.
    #[default]
    BinarySearch,
}

/// The happens-before clock store (`ComputeHB`) of batch CC, witness
/// provenance, the Plume baseline and the online checker: one row per
/// live transaction in a single flat buffer, plus the per-session
/// frontier clocks.
///
/// The table is an **arena**: [`begin`](Self::begin) re-arms it without
/// freeing, so the [`Engine`](crate::Engine) recycles the clock storage
/// across checks like its index and graph arenas (the
/// [`EngineStats::arena_growths`](crate::EngineStats) accounting covers
/// it). Rows are allocated through a free list as clocks become live and
/// released after their last reader, so the high-water mark is the peak
/// live-clock count, not the number of transactions: batch CC holds the
/// live rows plus one block of [`saturate_cc_into`]'s loop. Provenance
/// keeps all rows ([`compute_hb_into`]).
///
/// Entry `s` of a row counts session `s`'s committed transactions the
/// row's transaction has seen. Because batch dense ids are session-major,
/// that count added to the session's first dense id is the id of its first
/// unseen transaction, so the CC kernel compares an entry with writer ids
/// directly ([`HistoryIndex::writers_before`],
/// [`HistoryIndex::is_at_or_after`]).
///
/// The online checker drives the same table through
/// [`observe`](Self::observe), [`release`](Self::release) and
/// [`watermark`](Self::watermark). Two stream conditions shape it: dense
/// ids are reused once released, so join deduplication stamps writers with
/// a per-row round counter rather than the reader's id; and sessions appear
/// mid-stream, so rows and frontiers widen by doubling their stride, which
/// keeps a stream that opens sessions one at a time at amortized
/// `O(live·k)`.
#[derive(Clone, Debug, Default)]
pub struct ClockTable {
    /// Sessions tracked: the length of a row as [`row`](Self::row) returns it.
    k: usize,
    /// Entries per stored row and frontier (`≥ k`; entries past `k` are 0).
    stride: usize,
    /// Slot rows: `slot * stride .. (slot + 1) * stride`.
    rows: Vec<u32>,
    /// Released slot ids, reused before growing `rows`.
    free: Vec<u32>,
    /// Per-transaction slot id ([`NONE`] when absent/released).
    slot_of: Vec<u32>,
    /// Session frontier clocks: `s * stride .. (s + 1) * stride`.
    session: Vec<u32>,
    /// The row being assembled for the current transaction.
    cur: Vec<u32>,
    /// Per-writer join stamp: the round that last joined its row.
    stamp: Vec<u32>,
    /// Rows computed since the stamps were last cleared.
    round: u32,
    /// Per-writer stamp (batch liveness counting pass).
    stamp_a: Vec<u32>,
    /// Per-writer remaining-reader counts (batch liveness mode).
    readers_left: Vec<u32>,
}

impl ClockTable {
    /// An empty table, ready for [`begin`](Self::begin) or
    /// [`observe`](Self::observe).
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-arms the table for a history with `k` sessions and `m` committed
    /// transactions, keeping every buffer's capacity. `begin(0, 0)` empties
    /// it for a fresh stream.
    pub fn begin(&mut self, k: usize, m: usize) {
        self.k = k;
        self.stride = k;
        self.rows.clear();
        self.free.clear();
        self.slot_of.clear();
        self.slot_of.resize(m, NONE);
        self.session.clear();
        self.session.resize(k * k, 0);
        self.cur.clear();
        self.cur.resize(k, 0);
        self.stamp.clear();
        self.stamp.resize(m, 0);
        self.round = 0;
        self.stamp_a.clear();
        self.stamp_a.resize(m, u32::MAX);
        self.readers_left.clear();
        self.readers_left.resize(m, 0);
    }

    /// Tracks at least `k` sessions, widening the stride by doubling when
    /// `k` outgrows it. A new session's frontier is zero, and so is its
    /// entry in every stored row: no transaction has seen it yet.
    pub fn ensure_sessions(&mut self, k: usize) {
        if k <= self.k {
            return;
        }
        if k > self.stride {
            let stride = k.max(2 * self.stride);
            restride(&mut self.rows, self.stride, stride);
            restride(&mut self.session, self.stride, stride);
            self.cur.resize(stride, 0);
            self.stride = stride;
        }
        self.session.resize(k * self.stride, 0);
        self.k = k;
    }

    /// Allocates a slot (free list first) whose row contents are
    /// unspecified until written.
    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = (self.rows.len() / self.stride.max(1)) as u32;
        self.rows.resize(self.rows.len() + self.stride, 0);
        slot
    }

    /// Stores the current row as transaction `d`'s clock.
    fn store(&mut self, d: u32) {
        debug_assert!(self.slot_of[d as usize] == NONE, "t{d} already holds a row");
        let slot = self.alloc();
        self.slot_of[d as usize] = slot;
        let r = slot as usize * self.stride;
        self.rows[r..r + self.stride].copy_from_slice(&self.cur);
    }

    /// Releases transaction `d`'s row back to the free list; `d` may then
    /// be observed again as a new transaction.
    pub fn release(&mut self, d: u32) {
        let slot = std::mem::replace(&mut self.slot_of[d as usize], NONE);
        if slot != NONE {
            self.free.push(slot);
        }
    }

    /// The stored clock row of transaction `d`, one entry per session.
    ///
    /// # Panics
    ///
    /// Panics if `d`'s clock was never stored or was already released.
    #[inline]
    pub fn row(&self, d: u32) -> &[u32] {
        let slot = self.slot_of[d as usize];
        assert!(slot != NONE, "clock of t{d} is not live");
        let r = slot as usize * self.stride;
        &self.rows[r..r + self.k]
    }

    /// Computes and stores the inclusive clock row of `d`, growing the
    /// table to `view`'s sessions and to `d` first — the online checker's
    /// entry point. The writers of `d`'s external reads must hold live rows
    /// (the processing-order contract of [`incremental`](crate::incremental)).
    pub fn observe<V: CommitView>(&mut self, view: &V, d: u32) {
        self.ensure_sessions(view.num_sessions());
        if self.slot_of.len() <= d as usize {
            self.slot_of.resize(d as usize + 1, NONE);
            self.stamp.resize(d as usize + 1, 0);
        }
        self.compute_row(view, d);
        self.store(d);
    }

    /// The watermark: the pointwise minimum of the session frontiers.
    /// Entry `j` is a count `w` such that every future transaction's clock
    /// has entry `j ≥ w`, i.e. the first `w` committed transactions of
    /// session `j` happen before everything still to come.
    pub fn watermark(&self) -> Vec<u32> {
        let mut w = vec![u32::MAX; self.k];
        for frontier in self.session.chunks_exact(self.stride.max(1)) {
            for (m, &v) in w.iter_mut().zip(frontier) {
                *m = (*m).min(v);
            }
        }
        w
    }

    /// Heap footprint in bytes (capacities, not lengths) — the quantity
    /// tracked by the engine's arena-growth accounting.
    pub fn heap_bytes(&self) -> usize {
        (self.rows.capacity()
            + self.free.capacity()
            + self.slot_of.capacity()
            + self.session.capacity()
            + self.cur.capacity()
            + self.stamp.capacity()
            + self.stamp_a.capacity()
            + self.readers_left.capacity())
            * std::mem::size_of::<u32>()
    }

    /// Joins the writers' clocks of `d`'s external reads into the current
    /// row (seeded from `d`'s session frontier) and advances `d`'s own
    /// entry, then publishes the row as the new session frontier.
    fn compute_row<V: CommitView>(&mut self, view: &V, d: u32) {
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            self.stamp.fill(0);
            self.round = 1;
        }
        let s = view.session_of(d) as usize;
        let w = self.stride;
        self.cur.copy_from_slice(&self.session[s * w..(s + 1) * w]);
        for r in view.ext_reads(d) {
            let t = r.writer as usize;
            if self.stamp[t] != self.round {
                self.stamp[t] = self.round;
                let slot = self.slot_of[t];
                debug_assert!(slot != NONE, "writer processed before reader");
                let row = &self.rows[slot as usize * w..(slot as usize + 1) * w];
                for (c, &v) in self.cur.iter_mut().zip(row) {
                    if *c < v {
                        *c = v;
                    }
                }
            }
        }
        let pos = view.committed_pos(d) + 1;
        if self.cur[s] < pos {
            self.cur[s] = pos;
        }
        self.session[s * w..(s + 1) * w].copy_from_slice(&self.cur);
    }
}

/// Re-lays `buf`'s rows from stride `old` to the wider `new` in place,
/// zeroing each row's new tail.
fn restride(buf: &mut Vec<u32>, old: usize, new: usize) {
    let n = buf.len().checked_div(old).unwrap_or(0);
    buf.resize(n * new, 0);
    for i in (0..n).rev() {
        buf.copy_within(i * old..(i + 1) * old, i * new);
        buf[i * new + old..(i + 1) * new].fill(0);
    }
}

/// `ComputeHB` into a recycled [`ClockTable`]: the full clock table, one
/// row per committed transaction, computed along a topological order of
/// `so ∪ wr`. Entry `s` of row `t` is the number of committed transactions
/// of session `s` that happen before `t` — counting `t` itself for its own
/// session, i.e. the *inclusive* clock.
pub fn compute_hb_into(index: &HistoryIndex, topo: &[u32], table: &mut ClockTable) {
    let obs = awdit_obs::current();
    let _span = obs.span("cc_clock_pass");
    let (k, m) = (index.num_sessions(), index.num_committed());
    table.begin(k, m);
    // Every transaction keeps its row: size the arena once.
    table.rows.reserve_exact(k * m);
    for &t in topo {
        table.compute_row(index, t);
        table.store(t);
    }
}

/// Saturates the minimal commit relation for Causal Consistency.
///
/// # Errors
///
/// If `so ∪ wr` itself is cyclic, happens-before is not well defined; the
/// offending cycles (one per strongly connected component) are returned
/// instead.
pub fn saturate_cc(index: &HistoryIndex, _: CcStrategy) -> Result<CommitGraph, Vec<Cycle>> {
    let mut g = CommitGraph::new(0);
    let mut clocks = ClockTable::new();
    saturate_cc_into(&parallel::Pool::new(1), index, 1, &mut g, &mut clocks).map(|()| g)
}

/// Transactions per block of the topological order: a block's clock rows
/// are stored together before its inference runs, so the table holds the
/// live rows plus at most one block. Each block ends in a barrier, so
/// smaller blocks cost wall time: on a 100k-txn, 32-session history at 2
/// threads, 8,192-txn blocks ran about 7% slower than 16,384.
const BLOCK_TXNS: usize = 16384;

/// Transactions per inference shard. Shards are fixed slices of a block,
/// so their boundaries, and with them the pairs each shard's
/// [`RepeatFilter`] lets through, do not depend on the thread count.
const SHARD_TXNS: usize = 1024;

/// `log2` of the entries of a shard's [`RepeatFilter`] cache (128 KiB).
const REPEAT_CACHE_BITS: u32 = 14;

/// `log2` of a shard's write-list cursor slots ([`WriterSearch`], 128 KiB).
const CURSOR_BITS: u32 = 14;

/// [`saturate_cc`] into a caller-owned graph and [`ClockTable`], on up to
/// `threads` participants of `pool` (`0` = all cores) — the
/// [`Engine`](crate::Engine)'s path: both arenas are re-armed in place,
/// so a same-shape check grows neither (only [`CommitGraph::freeze`]'s
/// scatter scratch and each shard's repeat cache and cursors are transient).
///
/// One loop at every thread count walks the topological order of
/// `so ∪ wr` in blocks of 16,384 transactions:
///
/// 1. the block's clock rows are computed and stored on the calling
///    thread, the released AWDIT tool's on-the-fly `ComputeHB`;
/// 2. [`infer_cc_edges`] runs over the block in shards of 1,024
///    transactions, read-only on the table, each shard into one of the
///    graph's pair buffers, adopted in shard order. Each shard drops an
///    inferred pair it already emitted (a 16,384-entry direct-mapped
///    cache of whole `(from, to)` keys), which leaves the frozen graph
///    unchanged: [`CommitGraph::freeze`] keeps only first occurrences.
///    Each shard also starts a fresh [`WriterSearch`] (16,384 empty
///    write-list cursor slots) and adds its counts to the
///    `awdit_cc_writer_searches_total` and `awdit_cc_search_probes_total`
///    counters once it is done;
/// 3. every row whose last reader is now done is released to the table's
///    free list, and so is each of the block's rows that nobody reads.
///
/// So the clock memory is the live clocks plus one block, and the
/// emitted pairs, their order, the frozen graph and the search counters
/// are the same at every thread count.
///
/// # Errors
///
/// As [`saturate_cc`]: if `so ∪ wr` is cyclic the offending cycles are
/// returned and the graph is left holding only the base edges, frozen.
pub fn saturate_cc_into(
    pool: &parallel::Pool,
    index: &HistoryIndex,
    threads: usize,
    g: &mut CommitGraph,
    clocks: &mut ClockTable,
) -> Result<(), Vec<Cycle>> {
    let obs = awdit_obs::current();
    {
        let _span = obs.span("cc_base_graph");
        base_commit_graph_into(index, g);
    }
    let topo_span = obs.span("cc_topo_order");
    // The topological order needs the base edges traversable: a CSR over
    // `so ∪ wr` only, discarded once inference appends to the graph.
    g.freeze();
    let topo = match g.topological_order() {
        Some(t) => t,
        None => return Err(g.find_cycles(usize::MAX)),
    };
    drop(topo_span);
    let threads = parallel::effective_threads(threads);
    let m = index.num_committed();
    clocks.begin(index.num_sessions(), m);
    let counters = obs.metrics().map(|metrics| {
        (
            metrics.counter("awdit_cc_writer_searches_total"),
            metrics.counter("awdit_cc_search_probes_total"),
        )
    });

    // Number of distinct reader transactions per writer, so clocks can be
    // released eagerly.
    for t in 0..m as u32 {
        for r in index.ext_reads(t) {
            if clocks.stamp_a[r.writer as usize] != t {
                clocks.stamp_a[r.writer as usize] = t;
                clocks.readers_left[r.writer as usize] += 1;
            }
        }
    }

    for block in topo.chunks(BLOCK_TXNS) {
        {
            let _span = obs.span("cc_clock_pass");
            for &t in block {
                clocks.compute_row(index, t);
                clocks.store(t);
            }
        }
        let table = &*clocks;
        let shards: Vec<&[u32]> = block.chunks(SHARD_TXNS).collect();
        g.fill_shards(pool, threads, "cc_binary_search", &shards, |shard, sink| {
            let mut sink = RepeatFilter::new(sink);
            let mut search = WriterSearch::new(CURSOR_BITS);
            for &t3 in *shard {
                infer_cc_edges(
                    index,
                    t3,
                    table.row(t3),
                    |w| table.row(w),
                    &mut search,
                    &mut sink,
                );
            }
            if let Some((searches, probes)) = &counters {
                searches.add(search.searches);
                probes.add(search.probes);
            }
        });
        for &t3 in block {
            for r in index.ext_reads(t3) {
                let w = r.writer as usize;
                // Dedup repeated reads of one writer by stamping `stamp_a`
                // with `!t3`: the counting pass above stamped with plain
                // reader ids (`< m`), so complements (`> u32::MAX - m`)
                // cannot collide with them for any m < 2^31.
                if clocks.stamp_a[w] != !t3 {
                    clocks.stamp_a[w] = !t3;
                    clocks.readers_left[w] -= 1;
                    if clocks.readers_left[w] == 0 {
                        clocks.release(r.writer);
                    }
                }
            }
            // Readers follow their writers in the order, so a row still
            // unread here has no reader at all.
            if clocks.readers_left[t3 as usize] == 0 {
                clocks.release(t3);
            }
        }
    }
    Ok(())
}

/// A CC shard's sink: drops an inferred `(from, to)` pair that the same
/// shard already emitted, remembered in a direct-mapped cache of packed
/// `u64` keys. A pair is dropped only when its full key is in its slot;
/// a colliding pair evicts the slot and is emitted. Base pairs pass
/// untouched and are never cached.
///
/// Exact: [`CommitGraph::freeze`] keeps each source's first occurrence of
/// a target, marked base if any occurrence is base; a dropped repeat is
/// inferred and comes after the occurrence it repeats, so the frozen
/// graph is the one the unfiltered pairs build. Repeats come from
/// a reader that reads several keys of one writer, and from several
/// readers of one writer that see the same other writer: on a 32-session
/// causal `uniform` history a third of the kernel's pairs repeat.
struct RepeatFilter<'a, S> {
    sink: &'a mut S,
    /// `(from << 32) | to` per slot; `u64::MAX` (ids are 31-bit) is empty.
    seen: Vec<u64>,
}

impl<'a, S: EdgeSink> RepeatFilter<'a, S> {
    fn new(sink: &'a mut S) -> Self {
        RepeatFilter {
            sink,
            seen: vec![u64::MAX; 1 << REPEAT_CACHE_BITS],
        }
    }
}

impl<S: EdgeSink> EdgeSink for RepeatFilter<'_, S> {
    #[inline]
    fn add_edge(&mut self, from: u32, to: u32, kind: EdgeKind) {
        if !kind.is_base() {
            let key = (u64::from(from) << 32) | u64::from(to);
            // Fibonacci hashing: the top bits of the product index the slot.
            let slot =
                (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - REPEAT_CACHE_BITS)) as usize;
            if self.seen[slot] == key {
                return;
            }
            self.seen[slot] = key;
        }
        self.sink.add_edge(from, to, kind);
    }
}

/// The cycles of the history's `so ∪ wr` relation, one per strongly
/// connected component (empty when it is acyclic, as every isolation
/// level requires).
///
/// This is also the weaker *Adya G1* reading of Read Committed (footnote 2
/// of the paper): Read Consistency plus acyclicity of `so ∪ wr`, checkable
/// in `O(n)` time. Some literature (e.g. Crooks et al. 2017) interprets RC
/// this way; the paper's Definition 2.4 is strictly stronger. An empty
/// result means the history satisfies G1-style RC — *given* Read
/// Consistency, which the caller checks separately with
/// [`check_read_consistency`](crate::check_read_consistency).
pub fn causality_cycles(index: &HistoryIndex) -> Vec<Cycle> {
    base_commit_graph(index).find_cycles(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, HistoryBuilder};
    use crate::isolation::IsolationLevel;
    use crate::linearize::{
        commit_order_from_graph, some_commit_order_validates, validate_commit_order,
    };
    use crate::ra::{check_repeatable_reads, saturate_ra};

    /// The saturation's CC verdict, checked against the axioms directly: a
    /// consistent verdict's linearization must validate, and an
    /// inconsistent one must leave no permutation of the committed
    /// transactions that validates.
    fn cc_consistent(h: &History) -> bool {
        let index = HistoryIndex::new(h);
        let order = saturate_cc(&index, CcStrategy::default())
            .ok()
            .and_then(|mut g| {
                g.freeze();
                commit_order_from_graph(&index, &g)
            });
        match order {
            Some(order) => {
                validate_commit_order(h, IsolationLevel::Causal, &order)
                    .expect("the saturation's linearization must witness CC");
                true
            }
            None => {
                assert!(
                    !some_commit_order_validates(h, IsolationLevel::Causal),
                    "inconsistent verdict, but a commit order witnesses CC"
                );
                false
            }
        }
    }

    /// Figure 1b: the motivating CC-inconsistent history.
    fn fig1b() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let s4 = b.session();
        let (x, y, z) = (0, 1, 2);
        // s1: t1 = W(x,1); t2 = W(x,2); t3 = W(y,1) R(z,2)
        b.begin(s1);
        b.write(s1, x, 1);
        b.commit(s1);
        b.begin(s1);
        b.write(s1, x, 2);
        b.commit(s1);
        b.begin(s1);
        b.write(s1, y, 1);
        b.read(s1, z, 2);
        b.commit(s1);
        // s2: t4 = W(x,3); t5 = W(z,1)
        b.begin(s2);
        b.write(s2, x, 3);
        b.commit(s2);
        b.begin(s2);
        b.write(s2, z, 1);
        b.commit(s2);
        // s3: t6 = W(x,4) R(z,1) W(z,2)
        b.begin(s3);
        b.write(s3, x, 4);
        b.read(s3, z, 1);
        b.write(s3, z, 2);
        b.commit(s3);
        // s4: t7 = R(x,3) R(y,1)
        b.begin(s4);
        b.read(s4, x, 3);
        b.read(s4, y, 1);
        b.commit(s4);
        b.finish().unwrap()
    }

    #[test]
    fn fig1b_cc_inconsistent() {
        assert!(!cc_consistent(&fig1b()), "Fig. 1b must violate CC");
    }

    /// Figure 4c violates CC: t4 observes t2 (via y written by t3 which
    /// read x=2) but reads the older x=1.
    fn fig4c() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let (x, y) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1); // t1
        b.commit(s1);
        b.begin(s1);
        b.write(s1, x, 2); // t2
        b.commit(s1);
        b.begin(s2);
        b.read(s2, x, 2);
        b.write(s2, y, 3); // t3
        b.commit(s2);
        b.begin(s3);
        b.read(s3, y, 3);
        b.read(s3, x, 1); // t4
        b.commit(s3);
        b.finish().unwrap()
    }

    #[test]
    fn fig4c_cc_inconsistent() {
        let h = fig4c();
        assert!(!cc_consistent(&h));
        // ... while satisfying RA (Example 2.7).
        let index = HistoryIndex::new(&h);
        assert!(check_repeatable_reads(&index).is_empty());
        let mut ra = saturate_ra(&index);
        ra.freeze();
        assert!(ra.is_acyclic());
    }

    /// Figure 4d satisfies CC (despite being non-serializable).
    #[test]
    fn fig4d_cc_consistent() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let x = 0;
        // s1: t1 = W(x,1); t3 = R(x,2)
        // s2: t2 = R(x,1) W(x,2)
        // s3: t4 = R(x,1) W(x,3); t5 = R(x,3)
        b.begin(s1);
        b.write(s1, x, 1); // t1
        b.commit(s1);
        b.begin(s2);
        b.read(s2, x, 1);
        b.write(s2, x, 2); // t2
        b.commit(s2);
        b.begin(s1);
        b.read(s1, x, 2); // t3
        b.commit(s1);
        b.begin(s3);
        b.read(s3, x, 1);
        b.write(s3, x, 3); // t4
        b.commit(s3);
        b.begin(s3);
        b.read(s3, x, 3); // t5
        b.commit(s3);
        let h = b.finish().unwrap();
        assert!(cc_consistent(&h));
    }

    /// One candidate edge is hb-implied: `t2 →so t2' →wr t1` already orders
    /// `t2` before `t1`, so when `t3` reads `x` from `t1` and sees `t2`, the
    /// inferred `t2 → t1` is dropped. The concurrent writer `t5`, which `t3`
    /// also sees, still gets its edge `t5 → t1`.
    #[test]
    fn hb_implied_edge_is_dropped() {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let (x, y, z) = (0, 1, 2);
        b.begin(s0); // t2
        b.write(s0, x, 2);
        b.commit(s0);
        b.begin(s0); // t2'
        b.write(s0, y, 1);
        b.commit(s0);
        b.begin(s1); // t1
        b.read(s1, y, 1);
        b.write(s1, x, 1);
        b.commit(s1);
        b.begin(s3); // t5
        b.write(s3, x, 5);
        b.write(s3, z, 1);
        b.commit(s3);
        b.begin(s2); // t3
        b.read(s2, z, 1);
        b.read(s2, x, 1);
        b.commit(s2);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let t1 = index.dense_id(crate::types::TxnId::new(1, 0));
        let t2 = index.dense_id(crate::types::TxnId::new(0, 0));
        let t3 = index.dense_id(crate::types::TxnId::new(2, 0));
        let t5 = index.dense_id(crate::types::TxnId::new(3, 0));

        // Without writer rows the kernel emits both candidates.
        let topo = base_commit_graph(&index).topological_order().unwrap();
        let mut table = ClockTable::new();
        compute_hb_into(&index, &topo, &mut table);
        let mut emitted: Vec<(u32, u32, EdgeKind)> = Vec::new();
        infer_cc_edges(
            &index,
            t3,
            table.row(t3),
            |_| &[],
            &mut WriterSearch::new(0),
            &mut emitted,
        );
        let pairs: Vec<(u32, u32)> = emitted.iter().map(|&(f, t, _)| (f, t)).collect();
        assert_eq!(pairs, [(t2, t1), (t5, t1)]);

        let mut g = saturate_cc(&index, CcStrategy::default()).unwrap();
        g.freeze();
        assert_eq!(g.num_inferred_edges(), 1);
        assert!(g
            .successors(t5)
            .contains(&(t1 | crate::graph::INFERRED_BIT)));
        assert!(g.is_acyclic());
    }

    /// Provenance re-derives a label for every inferred edge of a witness
    /// with the same hb filter the saturators use.
    #[test]
    fn provenance_labels_every_co_edge() {
        for (name, h) in [("fig1b", fig1b()), ("fig4c", fig4c())] {
            let out = crate::check(&h, IsolationLevel::Causal);
            let mut co = 0;
            for v in out.violations() {
                let crate::Violation::CommitOrderCycle { cycle, .. } = v else {
                    panic!("{name}: unexpected violation {v:?}");
                };
                for e in &cycle.edges {
                    if let EdgeKind::Inferred(k) = e.kind {
                        assert_eq!(h.key_name(k), 0, "{name}: co on x");
                        co += 1;
                    }
                }
            }
            assert!(co > 0, "{name}: a witness with a co edge");
        }
    }

    #[test]
    fn causality_cycle_is_reported() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        // t1 reads t2's write; t2 reads t1's write: wr cycle.
        b.begin(s1);
        b.write(s1, 0, 1);
        b.read(s1, 1, 2);
        b.commit(s1);
        b.begin(s2);
        b.write(s2, 1, 2);
        b.read(s2, 0, 1);
        b.commit(s2);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let cycles = causality_cycles(&index);
        assert_eq!(cycles.len(), 1);
        assert!(saturate_cc(&index, CcStrategy::default()).is_err());
    }

    #[test]
    fn hb_clocks_are_monotone_along_sessions() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 1);
        b.commit(s2);
        b.begin(s2);
        b.write(s2, 1, 1);
        b.commit(s2);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let g = base_commit_graph(&index);
        let topo = g.topological_order().unwrap();
        let mut table = ClockTable::new();
        compute_hb_into(&index, &topo, &mut table);
        let reader = table.row(index.dense_id(crate::types::TxnId::new(1, 0)));
        let next = table.row(index.dense_id(crate::types::TxnId::new(1, 1)));
        // The reader saw s1's first txn; its session successor inherits it.
        assert_eq!(reader[0], 1);
        assert_eq!(next[0], 1);
        assert!(reader.iter().zip(next).all(|(a, b)| a <= b));
    }

    /// The online path (`observe` on a fresh table, sessions widened on
    /// demand) computes the batch pass's rows.
    #[test]
    fn observe_matches_compute_hb_into() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 1);
        b.write(s2, 1, 1);
        b.commit(s2);
        b.begin(s1);
        b.read(s1, 1, 1);
        b.commit(s1);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let topo = base_commit_graph(&index).topological_order().unwrap();
        let mut batch = ClockTable::new();
        compute_hb_into(&index, &topo, &mut batch);
        let mut online = ClockTable::new();
        for &t in &topo {
            online.observe(&index, t);
        }
        for t in 0..index.num_committed() as u32 {
            assert_eq!(online.row(t), batch.row(t), "clock of {t}");
        }
    }

    #[test]
    fn watermark_is_pointwise_min() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 1);
        b.commit(s2);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let topo = base_commit_graph(&index).topological_order().unwrap();
        let mut table = ClockTable::new();
        for &t in &topo {
            table.observe(&index, t);
        }
        // Session 0's first txn is seen by both frontiers; session 1's is
        // seen only by its own.
        assert_eq!(table.watermark(), [1, 0]);
    }

    /// The clock table is an arena: a second same-shape saturation reuses
    /// every buffer, growing nothing.
    #[test]
    fn clock_table_recycles_across_saturations() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        for k in 0..32u64 {
            b.begin(s1);
            b.write(s1, k, k + 1);
            b.commit(s1);
            b.begin(s2);
            b.read(s2, k, k + 1);
            b.commit(s2);
        }
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let pool = parallel::Pool::new(1);
        let mut table = ClockTable::new();
        let mut g = CommitGraph::new(0);
        saturate_cc_into(&pool, &index, 1, &mut g, &mut table).unwrap();
        g.freeze();
        let edges = g.num_edges();
        let graph_bytes = g.heap_bytes();
        let bytes = table.heap_bytes();
        assert!(bytes > 0, "table must hold clock storage");
        for _ in 0..3 {
            g.reset(0);
            saturate_cc_into(&pool, &index, 1, &mut g, &mut table).unwrap();
            g.freeze();
            assert_eq!(g.num_edges(), edges);
            assert_eq!(
                g.heap_bytes(),
                graph_bytes,
                "same-shape saturation must not grow the graph arena"
            );
            assert_eq!(
                table.heap_bytes(),
                bytes,
                "same-shape saturation must not grow the clock arena"
            );
        }
    }

    /// The live-clock bound carries over to the arena at every thread
    /// count: a long chain of single-reader transactions keeps the row
    /// high-water mark at about one block instead of one row per
    /// transaction.
    #[test]
    fn binary_search_arena_stays_live_bounded() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        // s2's txn i reads s1's txn i: each writer clock is released as
        // soon as its single reader's block is done.
        for k in 0..3 * BLOCK_TXNS as u64 {
            b.begin(s1);
            b.write(s1, k, k + 1);
            b.commit(s1);
            b.begin(s2);
            b.read(s2, k, k + 1);
            b.commit(s2);
        }
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let m = index.num_committed();
        let k = index.num_sessions();

        let mut rows = Vec::new();
        for threads in [1, 2, 8] {
            let mut table = ClockTable::new();
            let mut g = CommitGraph::new(0);
            saturate_cc_into(
                &parallel::Pool::new(threads),
                &index,
                threads,
                &mut g,
                &mut table,
            )
            .unwrap();
            assert!(
                table.rows.len() * 4 < m * k,
                "live-bounded rows ({}) should be a fraction of the full table ({}) at {threads} threads",
                table.rows.len(),
                m * k
            );
            rows.push(table.rows.len());
        }
        assert!(
            rows.iter().all(|&r| r == rows[0]),
            "row high-water marks {rows:?}"
        );
    }

    /// Transitive causality through a chain of sessions is caught: a reader
    /// two wr-hops downstream of t_new must not read the value t_new
    /// overwrote (t_old is pinned co-before t_new by t_old -wr-> t_new).
    #[test]
    fn transitive_causality_violation() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let s4 = b.session();
        let (x, a, c) = (0, 1, 2);
        b.begin(s1);
        b.write(s1, x, 1); // t_old: x=1
        b.commit(s1);
        b.begin(s2);
        b.read(s2, x, 1); // t_new observes t_old, so t_old -co-> t_new
        b.write(s2, x, 2);
        b.write(s2, a, 1);
        b.commit(s2);
        b.begin(s3);
        b.read(s3, a, 1); // observes t_new
        b.write(s3, c, 1);
        b.commit(s3);
        b.begin(s4);
        b.read(s4, c, 1); // hb-chain: t_new -> s3 -> here
        b.read(s4, x, 1); // stale read of x: CC infers t_new -co-> t_old
        b.commit(s4);
        let h = b.finish().unwrap();
        assert!(!cc_consistent(&h));
        // RA can't see the two-hop chain: it accepts this history.
        let index = HistoryIndex::new(&h);
        assert!(check_repeatable_reads(&index).is_empty());
        let mut ra = saturate_ra(&index);
        ra.freeze();
        assert!(ra.is_acyclic());
    }

    /// If the overwritten value's writer is merely concurrent with t_new
    /// (no wr edge pinning it earlier), the commit order may reorder them
    /// and the stale read is CC-consistent.
    #[test]
    fn concurrent_writers_may_be_reordered() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let (x, a) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1); // t_old, concurrent with t_new
        b.commit(s1);
        b.begin(s2);
        b.write(s2, x, 2); // t_new
        b.write(s2, a, 1);
        b.commit(s2);
        b.begin(s3);
        b.read(s3, a, 1); // observes t_new
        b.read(s3, x, 1); // reads t_old: co = t_new < t_old < ... witnesses
        b.commit(s3);
        let h = b.finish().unwrap();
        assert!(cc_consistent(&h));
    }

    /// One-hop visibility is fine under CC when the read is the latest
    /// causally visible write.
    #[test]
    fn latest_visible_writer_is_accepted() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, 0, 1);
        b.write(s2, 0, 2);
        b.commit(s2);
        b.begin(s1);
        b.read(s1, 0, 2);
        b.commit(s1);
        let h = b.finish().unwrap();
        assert!(cc_consistent(&h));
    }

    #[test]
    fn empty_history_is_cc_consistent() {
        let h = HistoryBuilder::new().finish().unwrap();
        assert!(cc_consistent(&h));
    }
}
