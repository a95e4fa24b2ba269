//! Incremental saturation entry points.
//!
//! The batch checkers ([`saturate_rc`](crate::saturate_rc),
//! [`saturate_ra`](crate::saturate_ra), [`saturate_cc`](crate::saturate_cc))
//! process every committed transaction of a finished history in one sweep.
//! This module factors their per-transaction inference bodies into reusable
//! *kernels* so that an online checker (the `awdit-stream` crate) can feed
//! transactions one at a time and obtain exactly the same inferred edges:
//!
//! * [`CommitView`] abstracts the derived index the kernels read
//!   ([`HistoryIndex`] implements it, as does `awdit-stream`'s growing
//!   index);
//! * [`EdgeSink`] abstracts where inferred edges go ([`CommitGraph`] for
//!   batch, an incremental cycle-detecting DAG for streaming);
//! * [`RcKernel`] / [`RaKernel`] carry the per-level scratch state across
//!   calls, and [`infer_cc_edges`] is the CC axiom's inference body over
//!   the happens-before rows of a [`ClockTable`](crate::ClockTable), which
//!   the batch pass fills along a topological order and the online
//!   checker one [`observe`](crate::ClockTable::observe) at a time;
//! * [`ReadCheck`] (the five Read Consistency axioms) and
//!   [`RepeatableReads`] are the per-transaction read steps every level
//!   runs first, over a transaction's [`TxnOp`]s with resolved sources.
//!
//! The batch saturators and read checks are implemented as straight loops
//! over these kernels and steps (see `rc.rs`, `ra.rs`, `cc.rs`,
//! `read_consistency.rs`), so batch/stream agreement is structural rather
//! than coincidental.
//!
//! # Processing-order contract
//!
//! Kernels must see transactions in an order compatible with `so ∪ wr`:
//! within a session in session order, and a reader only after every
//! committed transaction it reads from. Any such order yields the same
//! edges — the RC body is transaction-local, the RA body only consults
//! state of the reader's own session, and clock-row joins are
//! order-independent across valid topological orders.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::graph::{CommitGraph, EdgeKind};
use crate::index::{DenseId, ExtRead, HistoryIndex, NONE};
use crate::types::{Key, OpLoc, TxnId, Value};
use crate::witness::ReadConsistencyViolation;

/// Read access to the derived per-transaction indexes the saturation
/// kernels need. Implemented by [`HistoryIndex`] (batch) and by the
/// streaming index in `awdit-stream`.
///
/// The CC kernel's two position questions — how many of a session's
/// writers precede a clock entry ([`writers_before`](Self::writers_before)),
/// and whether a writer is past another clock entry
/// ([`is_at_or_after`](Self::is_at_or_after)) — are asked of the view, so
/// each index answers them its own way: [`HistoryIndex`] compares
/// session-major dense ids and gallops from a cursor, while the stream's
/// slab index, whose reused slot ids carry no order, searches committed
/// positions from scratch. The visitor and the kernel's `writer_row` are
/// generic, so each view gets its own monomorphized kernel.
pub trait CommitView {
    /// Number of sessions seen so far. Sessions are numbered densely:
    /// [`HistoryIndex`] counts only those holding a committed
    /// transaction, so per-session state is never spent on empty ones.
    fn num_sessions(&self) -> usize;
    /// Session of dense transaction `d`, in `0..num_sessions()`.
    fn session_of(&self, d: DenseId) -> u32;
    /// Position of `d` within its session, counting committed transactions.
    fn committed_pos(&self, d: DenseId) -> u32;
    /// External reads of `d` (committed writers only), in program order.
    fn ext_reads(&self, d: DenseId) -> &[ExtRead];
    /// Sorted, deduplicated keys written by `d`.
    fn keys_written(&self, d: DenseId) -> &[Key];
    /// Sorted, deduplicated keys read externally by `d`.
    fn keys_read(&self, d: DenseId) -> &[Key];
    /// Writers of the `po`-first external read per key, parallel to
    /// [`keys_read`](Self::keys_read).
    fn first_writers(&self, d: DenseId) -> &[DenseId];
    /// Whether `d` writes `key`.
    fn writes_key(&self, d: DenseId, key: Key) -> bool;
    /// Distinct `(key, writer)` pairs read externally by `d`, sorted.
    fn read_pairs(&self, d: DenseId) -> &[(Key, DenseId)];
    /// Visits the sessions writing `key` (ascending), each with its
    /// committed writers in session order: `f(session, list, writers)`,
    /// where `list` names the write list for
    /// [`WriterSearch`]'s cursors (any value, reused or not, is correct;
    /// distinct ones let searches resume where they stopped). A visitor
    /// rather than a returned slice so implementations are free to store
    /// the lists in flat CSR form ([`HistoryIndex`]) or per-session
    /// vectors (`awdit-stream`'s slab index).
    fn for_each_key_writes(&self, key: Key, f: impl FnMut(u32, u32, &[DenseId]));
    /// The number of leading entries of `writes` — session `session`'s
    /// writers of a key as [`for_each_key_writes`](Self::for_each_key_writes)
    /// visits them — whose committed position is below `bound`, and the
    /// entries compared to find it: the CC kernel's visible-writer search.
    /// `hint`, when given, is where the list's previous search ended, which
    /// an implementation may start from or ignore.
    fn writers_before(
        &self,
        session: u32,
        writes: &[DenseId],
        bound: u32,
        hint: Option<u32>,
    ) -> (usize, u32);
    /// Whether `w`, a committed transaction of session `session`, has
    /// committed position `pos` or later.
    fn is_at_or_after(&self, _session: u32, w: DenseId, pos: u32) -> bool {
        self.committed_pos(w) >= pos
    }
}

impl CommitView for HistoryIndex {
    fn num_sessions(&self) -> usize {
        HistoryIndex::num_sessions(self)
    }
    fn session_of(&self, d: DenseId) -> u32 {
        HistoryIndex::session_of(self, d)
    }
    fn committed_pos(&self, d: DenseId) -> u32 {
        HistoryIndex::committed_pos(self, d)
    }
    fn ext_reads(&self, d: DenseId) -> &[ExtRead] {
        HistoryIndex::ext_reads(self, d)
    }
    fn keys_written(&self, d: DenseId) -> &[Key] {
        HistoryIndex::keys_written(self, d)
    }
    fn keys_read(&self, d: DenseId) -> &[Key] {
        HistoryIndex::keys_read(self, d)
    }
    fn first_writers(&self, d: DenseId) -> &[DenseId] {
        HistoryIndex::first_writers(self, d)
    }
    fn writes_key(&self, d: DenseId, key: Key) -> bool {
        HistoryIndex::writes_key(self, d, key)
    }
    fn read_pairs(&self, d: DenseId) -> &[(Key, DenseId)] {
        HistoryIndex::read_pairs(self, d)
    }
    fn for_each_key_writes(&self, key: Key, mut f: impl FnMut(u32, u32, &[DenseId])) {
        for (s, list, writes) in HistoryIndex::key_writes(self, key) {
            f(s, list, writes);
        }
    }
    fn writers_before(
        &self,
        session: u32,
        writes: &[DenseId],
        bound: u32,
        hint: Option<u32>,
    ) -> (usize, u32) {
        HistoryIndex::writers_before(self, session, writes, bound, hint)
    }
    fn is_at_or_after(&self, session: u32, w: DenseId, pos: u32) -> bool {
        HistoryIndex::is_at_or_after(self, session, w, pos)
    }
}

/// Receiver of saturation edges.
pub trait EdgeSink {
    /// Records the edge `from → to` with its provenance.
    fn add_edge(&mut self, from: DenseId, to: DenseId, kind: EdgeKind);
}

impl EdgeSink for CommitGraph {
    fn add_edge(&mut self, from: DenseId, to: DenseId, kind: EdgeKind) {
        CommitGraph::add_edge(self, from, to, kind);
    }
}

impl EdgeSink for Vec<(DenseId, DenseId, EdgeKind)> {
    fn add_edge(&mut self, from: DenseId, to: DenseId, kind: EdgeKind) {
        self.push((from, to, kind));
    }
}

/// FNV-1a — the keys hashed on the kernels' hot paths are tiny
/// `(session, key)` pairs, where SipHash's per-call overhead dominates;
/// FNV keeps the batch `saturate_ra` loop close to the stamped-array code
/// it replaced.
#[derive(Default)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }
}

/// A `HashMap` using [`FnvHasher`].
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Grows a vector so that `idx` is addressable, filling with `fill`.
fn ensure<T: Clone>(v: &mut Vec<T>, idx: usize, fill: T) {
    if v.len() <= idx {
        v.resize(idx + 1, fill);
    }
}

/// The Read Committed inference body (Algorithm 1), one reading
/// transaction at a time.
///
/// The scratch arrays are stamped per call, so a kernel can be reused for
/// an entire history (batch) or a whole stream. The RC body is
/// transaction-local: the edges emitted for `t3` depend only on `t3`'s
/// external reads and the write sets of the transactions it reads from.
#[derive(Debug, Default)]
pub struct RcKernel {
    round: u64,
    /// Per writer: round in which it was first seen by the current reader.
    writer_stamp: Vec<u64>,
    /// Per writer: index of the reader's `po`-first read from it.
    first_read_idx: Vec<u32>,
    /// Per key: round stamp for the `earliestWts` slots.
    key_stamp: Vec<u64>,
    ew_top: Vec<DenseId>,
    ew_second: Vec<DenseId>,
    read_keys: Vec<u32>,
}

impl RcKernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Algorithm 1's per-reader passes for `t3`, emitting inferred
    /// edges into `g`.
    pub fn process<V: CommitView, G: EdgeSink>(&mut self, view: &V, t3: DenseId, g: &mut G) {
        let reads = view.ext_reads(t3);
        if reads.is_empty() {
            return;
        }
        self.round += 1;
        let round = self.round;

        // Pass 1 (po order): record the po-first read from each observed
        // transaction (`firstTxnReads`).
        for (i, r) in reads.iter().enumerate() {
            let w = r.writer as usize;
            ensure(&mut self.writer_stamp, w, 0);
            ensure(&mut self.first_read_idx, w, 0);
            if self.writer_stamp[w] != round {
                self.writer_stamp[w] = round;
                self.first_read_idx[w] = i as u32;
            }
        }

        // Pass 2 (reverse po order): maintain `earliestWts` (two po-earliest
        // distinct future writers per key) and `readKeys`, inferring edges
        // at first-txn-reads.
        self.read_keys.clear();
        for (i, r) in reads.iter().enumerate().rev() {
            let t2 = r.writer;
            if self.first_read_idx[t2 as usize] == i as u32 {
                // Intersect KeysWt(t2) with readKeys, iterating the smaller
                // set.
                let wt = view.keys_written(t2);
                if wt.len() <= self.read_keys.len() {
                    for &x in wt {
                        let xi = x.index();
                        if xi < self.key_stamp.len() && self.key_stamp[xi] == round {
                            infer_rc(g, t2, self.ew_top[xi], self.ew_second[xi], x);
                        }
                    }
                } else {
                    for &xi in &self.read_keys {
                        let x = Key(xi);
                        if view.writes_key(t2, x) {
                            infer_rc(
                                g,
                                t2,
                                self.ew_top[xi as usize],
                                self.ew_second[xi as usize],
                                x,
                            );
                        }
                    }
                }
            }

            // Update earliestWts[y] and readKeys with the current read.
            let y = r.key.index();
            ensure(&mut self.key_stamp, y, 0);
            ensure(&mut self.ew_top, y, NONE);
            ensure(&mut self.ew_second, y, NONE);
            if self.key_stamp[y] != round {
                self.key_stamp[y] = round;
                self.ew_top[y] = NONE;
                self.ew_second[y] = NONE;
                self.read_keys.push(y as u32);
            }
            if self.ew_top[y] != t2 {
                self.ew_second[y] = self.ew_top[y];
                self.ew_top[y] = t2;
            }
        }
    }
}

/// The RC inference for key `x`: the earliest future writer (falling back
/// to the second slot when the top equals `t2`) is ordered after `t2`.
#[inline]
fn infer_rc<G: EdgeSink>(g: &mut G, t2: DenseId, top: DenseId, second: DenseId, x: Key) {
    let t1 = if top == t2 { second } else { top };
    if t1 != NONE && t1 != t2 {
        g.add_edge(t2, t1, EdgeKind::Inferred(x));
    }
}

/// The Read Atomic inference body (Algorithm 2), one transaction at a time.
///
/// Carries each session's latest-prior-writer-per-key table across calls,
/// so transactions of one session **must** be processed in session order
/// (transactions of different sessions may interleave arbitrarily — the RA
/// body only consults the reader's own session's state).
#[derive(Debug, Default)]
pub struct RaKernel {
    round: u64,
    /// Per `(session, key)`: the session-latest processed writer of the key.
    last_write: FnvMap<(u32, Key), DenseId>,
    /// Per writer: dedup stamp for the current reader's wr case.
    writer_stamp: Vec<u64>,
}

impl RaKernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the per-session latest-writer tables so the kernel can
    /// start a fresh stream, retaining map capacity. The dedup stamps are
    /// round-guarded and need no clearing (the round counter keeps
    /// increasing across resets, so stale stamps can never match).
    pub fn reset(&mut self) {
        self.last_write.clear();
    }

    /// Runs Algorithm 2's per-transaction body for `t3`, emitting inferred
    /// edges into `g` and updating the session's latest-writer table.
    pub fn process<V: CommitView, G: EdgeSink>(&mut self, view: &V, t3: DenseId, g: &mut G) {
        self.round += 1;
        let round = self.round;
        let s = view.session_of(t3);

        // so case: for each key x read (from its unique writer t1), the
        // latest prior writer of x in this session must order before t1.
        let keys_read = view.keys_read(t3);
        let first_writers = view.first_writers(t3);
        for (i, &x) in keys_read.iter().enumerate() {
            let t1 = first_writers[i];
            if let Some(&t2) = self.last_write.get(&(s, x)) {
                if t2 != t1 {
                    g.add_edge(t2, t1, EdgeKind::Inferred(x));
                }
            }
        }

        // wr case: for each distinct transaction t2 read by t3, intersect
        // KeysWt(t2) ∩ KeysRd(t3), iterating the smaller set.
        for r in view.ext_reads(t3) {
            let t2 = r.writer;
            ensure(&mut self.writer_stamp, t2 as usize, 0);
            if self.writer_stamp[t2 as usize] == round {
                continue;
            }
            self.writer_stamp[t2 as usize] = round;
            let wt = view.keys_written(t2);
            let rd = view.keys_read(t3);
            if wt.len() <= rd.len() {
                for &x in wt {
                    if let Ok(i) = rd.binary_search(&x) {
                        let t1 = first_writers[i];
                        if t1 != t2 {
                            g.add_edge(t2, t1, EdgeKind::Inferred(x));
                        }
                    }
                }
            } else {
                for (i, &x) in rd.iter().enumerate() {
                    if view.writes_key(t2, x) {
                        let t1 = first_writers[i];
                        if t1 != t2 {
                            g.add_edge(t2, t1, EdgeKind::Inferred(x));
                        }
                    }
                }
            }
        }

        // Update the session's latest-writer table with t3's writes.
        for &x in view.keys_written(t3) {
            self.last_write.insert((s, x), t3);
        }
    }
}

/// Where a read's value came from, as [`ReadCheck`] judges it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReadFrom {
    /// No write produced the value (in a stream: none so far).
    ThinAir,
    /// The reader's own write at this position.
    Own(u32),
    /// Another transaction's write, which committed (in a stream: which
    /// has not aborted).
    External(OpLoc),
    /// An aborted transaction's write.
    Aborted(OpLoc),
    /// A read the step does not judge (a stream's read of a pruned write):
    /// it comes back as [`ReadFinding::Unjudged`] in op order.
    Unjudged,
}

/// One operation of the transaction [`ReadCheck::check_txn`] checks.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TxnOp {
    /// A write of a value to a key.
    Write(Key, Value),
    /// A read of a value from a key, and where the value came from.
    Read(Key, Value, ReadFrom),
}

/// What [`ReadCheck::check_txn`] reports, in op order.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReadFinding {
    /// A read breaking one of the five axioms.
    Violation(ReadConsistencyViolation),
    /// The [`ReadFrom::Unjudged`] read at this position, with its key and
    /// value.
    Unjudged(u32, Key, Value),
}

/// The Read Consistency step (Algorithm 4), one committed transaction at a
/// time: [`check_read_consistency`](crate::check_read_consistency) is a
/// loop over it, and the streaming checker runs it at each commit.
///
/// The latest own write per key lives in a stamped per-key array that
/// grows when a key id is past its end, so one step serves a whole history
/// or a stream that interns keys as they arrive.
#[derive(Debug, Default)]
pub struct ReadCheck {
    round: u64,
    /// Per key: the round in which the current transaction last wrote it,
    /// and that write's position.
    latest_own: Vec<(u64, u32)>,
}

impl ReadCheck {
    /// Checks the reads of committed transaction `txn`, whose operations
    /// `ops` yields in program order, and passes each finding to `sink` in
    /// op order. `is_final(write, key)` tells whether an
    /// [`External`](ReadFrom::External) `write` is its transaction's final
    /// write of `key`.
    pub fn check_txn(
        &mut self,
        txn: TxnId,
        ops: impl IntoIterator<Item = TxnOp>,
        is_final: impl Fn(OpLoc, Key) -> bool,
        mut sink: impl FnMut(ReadFinding),
    ) {
        use ReadConsistencyViolation as V;
        self.round += 1;
        for (p, op) in ops.into_iter().enumerate() {
            let p = p as u32;
            let (key, value, from) = match op {
                TxnOp::Write(key, _) => {
                    ensure(&mut self.latest_own, key.index(), (0, 0));
                    self.latest_own[key.index()] = (self.round, p);
                    continue;
                }
                TxnOp::Read(key, value, from) => (key, value, from),
            };
            let read = OpLoc::new(txn, p);
            let own = match self.latest_own.get(key.index()) {
                Some(&(round, w)) if round == self.round => Some(OpLoc::new(txn, w)),
                _ => None,
            };
            if from == ReadFrom::Unjudged {
                sink(ReadFinding::Unjudged(p, key, value));
                continue;
            }
            if let (ReadFrom::External(observed) | ReadFrom::Aborted(observed), Some(own_write)) =
                (from, own)
            {
                // Axiom (d): should have read the own write.
                sink(ReadFinding::Violation(V::NotOwnWrite {
                    read,
                    own_write,
                    observed,
                    key,
                }));
            }
            sink(ReadFinding::Violation(match from {
                ReadFrom::ThinAir => V::ThinAirRead { read, key, value },
                // Axiom (c): the observed own write is po-after the read.
                ReadFrom::Own(w) if w > p => {
                    let write = OpLoc::new(txn, w);
                    V::FutureRead { read, write, key }
                }
                // Axiom (e), internal: a later own write sits between the
                // observed write and the read. (`own` is never `None` here:
                // the forward scan saw the write at `w < p`.)
                ReadFrom::Own(w) => match own {
                    Some(later_write) if later_write.op != w => {
                        let observed = OpLoc::new(txn, w);
                        V::StaleOwnWrite {
                            read,
                            observed,
                            later_write,
                            key,
                        }
                    }
                    _ => continue,
                },
                // Axiom (b).
                ReadFrom::Aborted(write) => V::AbortedRead { read, write, key },
                // Axiom (e), external: the writer overwrote this value before
                // committing.
                ReadFrom::External(observed) if !is_final(observed, key) => V::NotFinalWrite {
                    read,
                    observed,
                    key,
                },
                ReadFrom::External(_) | ReadFrom::Unjudged => continue,
            }));
        }
    }
}

/// The repeatable-reads step, one committed transaction at a time: no
/// transaction reads one key from two writers.
/// [`check_repeatable_reads`](crate::check_repeatable_reads) is a loop
/// over it, and the streaming checker runs it at each commit.
///
/// The first writer per key lives in a stamped per-key array that grows
/// when a key id is past its end.
#[derive(Debug, Default)]
pub struct RepeatableReads {
    round: u64,
    /// Per key: the round in which the current transaction first read it,
    /// and that read's writer.
    first: Vec<(u64, TxnId)>,
}

impl RepeatableReads {
    /// Checks one transaction's external reads, `(key, writer)` in program
    /// order, calling `sink(key, first_writer, writer)` in op order for
    /// each read of a key from a writer other than its first read's.
    pub fn check_txn(
        &mut self,
        reads: impl IntoIterator<Item = (Key, TxnId)>,
        mut sink: impl FnMut(Key, TxnId, TxnId),
    ) {
        self.round += 1;
        for (key, w) in reads {
            ensure(&mut self.first, key.index(), (0, w));
            let (round, first) = &mut self.first[key.index()];
            if *round != self.round {
                (*round, *first) = (self.round, w);
            } else if *first != w {
                sink(key, *first, w);
            }
        }
    }
}

/// Entry `s` of a clock row, reading 0 past the row's end (a clock that
/// predates session `s` has seen none of it).
#[inline]
fn clock_entry(row: &[u32], s: u32) -> u32 {
    row.get(s as usize).copied().unwrap_or(0)
}

/// The CC kernel's search state across [`infer_cc_edges`] calls: a
/// direct-mapped table of write-list cursors and two work counters.
///
/// Slot `list mod len` holds the list that last searched there and where
/// that search ended. The next search of the same list gallops from that
/// position ([`CommitView::writers_before`]); readers close in a
/// topological order see similar clocks, so the answer is usually at or
/// next to it. A list that finds another list in its slot searches
/// without a hint, as a list searched for the first time does. Either
/// way the search is exact, so a stale cursor or two lists sharing a slot
/// cost compares, never a different answer.
#[derive(Clone, Debug)]
pub struct WriterSearch {
    /// `2^bits` slots of `(list, position)`; `u32::MAX` marks an empty
    /// slot (no list id is that large).
    cursors: Vec<(u32, u32)>,
    /// Visible-writer searches run.
    pub searches: u64,
    /// Write-list entries those searches compared.
    pub probes: u64,
}

impl WriterSearch {
    /// A search with `2^bits` empty cursor slots and zeroed counters;
    /// `bits = 0` gives one slot that every list shares.
    pub fn new(bits: u32) -> Self {
        WriterSearch {
            cursors: vec![(u32::MAX, 0); 1 << bits],
            searches: 0,
            probes: 0,
        }
    }
}

/// The Causal Consistency inference body (Algorithm 3's main loop, shared
/// by the batch saturator, witness provenance and the streaming checker):
/// given `t3`'s inclusive happens-before clock — a
/// [`ClockTable`](crate::cc::ClockTable) row — orders each session's latest
/// visible writer of every read key before the observed writer.
///
/// Each session's latest visible writer is found by
/// [`CommitView::writers_before`], starting from the list's `search`
/// cursor if its slot holds one, and leaving the answer there.
///
/// `writer_row(t1)` is the inclusive clock row of the writer `t1` a pair
/// reads from. An edge `t2 → t1` is skipped when `t2` already happens
/// before `t1` — its committed position is below `t1`'s entry for `t2`'s
/// session — because a `so ∪ wr` path then orders the two, and the edge
/// would change neither the transitive closure nor the SCCs. A session
/// whose every visible writer `t1` already sees is skipped without a
/// search. A row of `&[]` reads as all zeros and filters nothing.
pub fn infer_cc_edges<'r, V: CommitView, G: EdgeSink>(
    view: &V,
    t3: DenseId,
    clock: &[u32],
    writer_row: impl Fn(DenseId) -> &'r [u32],
    search: &mut WriterSearch,
    g: &mut G,
) {
    let s = view.session_of(t3);
    let mask = search.cursors.len() - 1;
    for &(x, t1) in view.read_pairs(t3) {
        let row1 = writer_row(t1);
        view.for_each_key_writes(x, |s_prime, list, writes| {
            // Strict happens-before: the reader's own inclusive entry counts
            // the reader itself, so subtract it.
            let entry = clock_entry(clock, s_prime);
            let bound = if s_prime == s {
                entry.saturating_sub(1)
            } else {
                entry
            };
            // t1 already sees every writer of this session t3 sees.
            let hb1 = clock_entry(row1, s_prime);
            if hb1 >= bound {
                return;
            }
            // Latest writer with committed position < bound.
            let cursor = &mut search.cursors[list as usize & mask];
            let hint = (cursor.0 == list).then_some(cursor.1);
            let (cnt, probes) = view.writers_before(s_prime, writes, bound, hint);
            *cursor = (list, cnt as u32);
            search.searches += 1;
            search.probes += u64::from(probes);
            if cnt > 0 {
                let t2 = writes[cnt - 1];
                if t2 != t1 && view.is_at_or_after(s_prime, t2, hb1) {
                    g.add_edge(t2, t1, EdgeKind::Inferred(x));
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    /// The kernels, fed in dense order, must reproduce the batch
    /// saturators' edges exactly (they *are* the batch saturators now, but
    /// this pins the per-call reuse with stamped state across rounds).
    #[test]
    fn rc_kernel_is_reusable_across_transactions() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        b.begin(s1);
        b.write(s1, 0, 1);
        b.commit(s1);
        b.begin(s2);
        b.write(s2, 0, 2);
        b.commit(s2);
        b.begin(s3);
        b.read(s3, 0, 2);
        b.read(s3, 0, 1);
        b.commit(s3);
        b.begin(s3);
        b.read(s3, 0, 2);
        b.read(s3, 0, 1);
        b.commit(s3);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let mut emitted: Vec<(DenseId, DenseId, EdgeKind)> = Vec::new();
        let mut k = RcKernel::new();
        for t in 0..index.num_committed() as u32 {
            k.process(&index, t, &mut emitted);
        }
        // Both readers must infer t2 -> t1 (stamps from round 1 must not
        // leak into round 2).
        let t1 = index.dense_id(crate::types::TxnId::new(0, 0));
        let t2 = index.dense_id(crate::types::TxnId::new(1, 0));
        let inferred = emitted
            .iter()
            .filter(|&&(from, to, kind)| from == t2 && to == t1 && !kind.is_base())
            .count();
        assert_eq!(inferred, 2);
    }
}
