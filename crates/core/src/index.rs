//! Derived indexes over a history, shared by all checkers, and the Read
//! Consistency pass that builds them.
//!
//! The checkers in this crate never walk the raw [`History`] on their hot
//! paths. Instead, a [`HistoryIndex`] is built once in `O(n log n)` time and
//! provides:
//!
//! * a dense numbering `0..m` of the committed transactions (so that the
//!   commit-relation graph and stamp arrays can use plain vectors),
//! * a dense numbering `0..k` of the sessions that hold a committed
//!   transaction, in the history's session order (so that per-session
//!   state — CC clocks, RA shards — costs nothing for empty sessions),
//! * per-transaction sorted key sets `KeysWt(t)` / `KeysRd(t)`,
//! * the operation-level external reads of every transaction in program
//!   order (the `wr` relation, pre-filtered to committed writers),
//! * per-`(session, key)` write lists in session order (the `Writes_s'[x]`
//!   arrays of Algorithm 3),
//! * every Read Consistency violation (Algorithm 4), in session-major
//!   program order.
//!
//! # One pass
//!
//! [`rebuild`](HistoryIndex::rebuild) walks the operations of the
//! committed transactions once, in dense order: each operation feeds the
//! shared [`ReadCheck`] step (the five axioms, which the streaming checker
//! runs too) and the transaction's index rows in the same loop. The walk
//! is split into contiguous dense-id ranges on the engine's pool. Axiom
//! (e) asks whether an external read saw its writer's final write of the
//! key, and the writer may lie in any range, so a first sharded sweep sets
//! a per-op "overwritten later in its transaction" bit with a stamped
//! reverse scan per transaction, and counts each range's writes and
//! reads, which bound the room every row column needs. The first range
//! then builds its rows straight into the recycled columns, reserved for
//! the whole history, and each later range into its own builders; their
//! rows and violation lists are appended in dense order, so the index and
//! the violations are identical at every thread count, and at one thread
//! nothing is copied. The by-key write lists are one sequential counting
//! sort over the `keys_written` rows.
//!
//! # Layout
//!
//! Every structure is **columnar**: variable-length per-row data lives in
//! [`Csr`] containers (one flat values buffer plus an offsets table) rather
//! than nested `Vec<Vec<…>>`, and the by-key write lists exploit the
//! density of interned [`Key`]s to use a two-level CSR instead of a hash
//! map — row lookup is arithmetic, iteration is a linear scan, and the
//! whole index is a handful of allocations regardless of history size.
//! The same layout also makes the index trivially `Sync`-shareable across
//! the sharded saturation workers of [`parallel`].

use std::ops::Range;
use std::sync::Mutex;

use crate::csr::{Csr, CsrBuilder, ReadCols};
use crate::history::History;
use crate::incremental::{ReadCheck, ReadFinding, ReadFrom, TxnOp};
use crate::op::{Op, ReadSource};
use crate::parallel::{self, Pool};
use crate::types::{Key, OpLoc, SessionId, TxnId};
use crate::witness::ReadConsistencyViolation;

/// Dense identifier of a committed transaction (index into
/// [`HistoryIndex::txn_ids`]).
pub type DenseId = u32;

/// Sentinel for "no transaction" in stamp/slot arrays.
pub const NONE: DenseId = u32::MAX;

/// An external read of a transaction: the reading op's position, the key,
/// and the (dense id of the) committed writer transaction.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ExtRead {
    /// Key being read.
    pub key: Key,
    /// Dense id of the writing transaction (committed, distinct from the
    /// reader).
    pub writer: DenseId,
    /// Position of the read in the reader's program order.
    pub op: u32,
}

/// Immutable derived indexes for one history. See the module docs.
///
/// Sessions come in two numberings. A [`TxnId`] — what
/// [`txn_id`](Self::txn_id) returns and [`dense_id`](Self::dense_id)
/// takes, and what reports print — carries the history's own session id.
/// Every other session argument or result of the index is an *index
/// session*: the sessions holding at least one committed transaction,
/// numbered `0..num_sessions()` in the history's order. A history without
/// empty or all-aborted sessions numbers both alike.
#[derive(Clone, Debug)]
pub struct HistoryIndex {
    /// `txn_ids[d]` is the [`TxnId`] of dense transaction `d`.
    txn_ids: Vec<TxnId>,
    /// Row `s` (the history's session `s`), position `i`: the dense id of
    /// that session's transaction at position `i` (counting aborted ones),
    /// or [`NONE`] if that transaction aborted.
    dense: Csr<DenseId>,
    /// The index session of each dense transaction.
    txn_session: Vec<u32>,
    /// Row `s` (index session `s`): dense ids of its committed
    /// transactions in session order. Dense ids are session-major, so a
    /// row is the consecutive ids from its offset on.
    session_committed: Csr<DenseId>,
    /// Row `d`: sorted, deduplicated keys written by `d`.
    keys_written: Csr<Key>,
    /// Row `d`: sorted, deduplicated keys read externally by `d` from
    /// committed writers.
    keys_read: Csr<Key>,
    /// Row `d`, parallel to `keys_read`: the writer of the `po`-first
    /// external read of `keys_read.row(d)[i]`.
    first_writers: Csr<DenseId>,
    /// Row `d`: external reads (committed writers only) in program order.
    ext_reads: Csr<ExtRead>,
    /// Row `d`: all distinct `(key, writer)` pairs read externally, sorted.
    /// Unlike `first_writers`, a key appears once per distinct writer
    /// (histories violating repeatable reads have several).
    read_pairs: Csr<(Key, DenseId)>,
    /// Two-level by-key write lists. Level 1 (`key_sessions`, rows are
    /// keys): the index sessions writing the key, ascending — only sessions
    /// with at least one write appear. Level 2 (`key_session_writers`, rows
    /// are level-1 *entries*): that `(key, session)`'s committed writers in
    /// session order.
    key_sessions: Csr<u32>,
    key_session_writers: Csr<DenseId>,
    /// Counting-sort cursors of the by-key build, one per key plus one
    /// (scratch, recycled with the index).
    key_cursor: Vec<u32>,
    /// Every Read Consistency violation, in session-major program order.
    read_violations: Vec<ReadConsistencyViolation>,
    num_keys: usize,
}

impl Default for HistoryIndex {
    fn default() -> Self {
        Self::empty()
    }
}

/// The writes and reads of a range's transactions.
#[derive(Clone, Copy, Default)]
struct OpCounts {
    writes: usize,
    reads: usize,
}

/// The five row columns of consecutive dense transactions, as the rows
/// pass builds them.
struct RowBuilders {
    keys_written: CsrBuilder<Key>,
    keys_read: CsrBuilder<Key>,
    first_writers: CsrBuilder<DenseId>,
    ext_reads: CsrBuilder<ExtRead>,
    read_pairs: CsrBuilder<(Key, DenseId)>,
}

impl RowBuilders {
    /// `ix`'s row columns as empty builders with room for `rows` rows and
    /// the values of `counts`' operations: at most one key written per
    /// write, and one entry of each read column per read. Room reserved up
    /// front means the columns never reallocate.
    fn take(ix: &mut HistoryIndex, rows: usize, counts: OpCounts) -> Self {
        let (w, r) = (counts.writes, counts.reads);
        RowBuilders {
            keys_written: take_builder(&mut ix.keys_written, rows, w),
            keys_read: take_builder(&mut ix.keys_read, rows, r),
            first_writers: take_builder(&mut ix.first_writers, rows, r),
            ext_reads: take_builder(&mut ix.ext_reads, rows, r),
            read_pairs: take_builder(&mut ix.read_pairs, rows, r),
        }
    }

    /// Appends the rows of `next`.
    fn append(&mut self, next: &RowBuilders) {
        self.keys_written.append(&next.keys_written);
        self.keys_read.append(&next.keys_read);
        self.first_writers.append(&next.first_writers);
        self.ext_reads.append(&next.ext_reads);
        self.read_pairs.append(&next.read_pairs);
    }
}

/// `csr`'s buffers as an empty builder with room for `rows` rows and
/// `values` values.
fn take_builder<T>(csr: &mut Csr<T>, rows: usize, values: usize) -> CsrBuilder<T> {
    let mut builder = std::mem::take(csr).into_builder();
    builder.reserve_exact(rows, values);
    builder
}

impl HistoryIndex {
    /// Builds the index for `history` on the calling thread.
    pub fn new(history: &History) -> Self {
        let mut index = Self::empty();
        index.rebuild(&Pool::new(1), 1, history);
        index
    }

    /// An index over the empty history (no sessions, no transactions).
    /// Mainly useful as the starting arena for [`rebuild`](Self::rebuild).
    pub fn empty() -> Self {
        HistoryIndex {
            txn_ids: Vec::new(),
            dense: Csr::new(),
            txn_session: Vec::new(),
            session_committed: Csr::new(),
            keys_written: Csr::new(),
            keys_read: Csr::new(),
            first_writers: Csr::new(),
            ext_reads: Csr::new(),
            read_pairs: Csr::new(),
            key_sessions: Csr::new(),
            key_session_writers: Csr::new(),
            key_cursor: Vec::new(),
            read_violations: Vec::new(),
            num_keys: 0,
        }
    }

    /// Rebuilds the index for `history` **in place** and checks Read
    /// Consistency on the way (see the module docs), on up to `threads`
    /// participants of `pool` (`0` = all cores). Every CSR and vector
    /// buffer is recycled (capacities are kept; see
    /// [`Csr::into_builder`]), so a rebuild over a history of the same
    /// shape performs no heap growth — the property the
    /// [`Engine`](crate::Engine)'s arena accounting asserts. The row
    /// columns' capacity is a bound computed from the history alone, so
    /// the footprint does not depend on `threads`; the per-op bits and the
    /// builders of ranges after the first are transient.
    pub fn rebuild(&mut self, pool: &Pool, threads: usize, history: &History) {
        let obs = awdit_obs::current();
        self.number_transactions(history);
        self.num_keys = history.num_keys();

        let m = self.txn_ids.len();
        let parts = if m < parallel::SEQUENTIAL_CUTOFF {
            1
        } else {
            parallel::effective_threads(threads)
        };
        let mut ranges = parallel::split_even(m, parts);
        if ranges.is_empty() {
            // One range even for an empty history, so the columns reset.
            ranges.push(0..0);
        }
        let rows_span = obs.span("index_rows");
        let (overwritten, counts) = self.overwritten_bits(pool, history, &ranges);
        // The first range builds straight into the recycled columns, sized
        // for the whole history, and the others into their own builders,
        // appended in range order. At one thread nothing is copied, and at
        // any count the columns' capacity is a bound computed from the
        // history alone.
        let total = counts.iter().fold(OpCounts::default(), |a, c| OpCounts {
            writes: a.writes + c.writes,
            reads: a.reads + c.reads,
        });
        let first = Mutex::new(Some(RowBuilders::take(self, m, total)));
        let this = &*self;
        let built = parallel::map_shards(pool, parts, "index_rows", &ranges, |i, range| {
            let mut rows = match i {
                0 => first.lock().expect("only range 0 takes the columns").take(),
                _ => None,
            }
            .unwrap_or_else(|| {
                RowBuilders::take(&mut HistoryIndex::empty(), range.len(), counts[i])
            });
            let violations = this.fill_rows(history, &overwritten, range.clone(), &mut rows);
            (rows, violations)
        });
        self.read_violations.clear();
        self.read_violations
            .reserve_exact(built.iter().map(|(_, v)| v.len()).sum());
        let mut built = built.into_iter();
        let (mut rows, violations) = built.next().expect("one range at least");
        self.read_violations.extend_from_slice(&violations);
        for (next, violations) in built {
            rows.append(&next);
            self.read_violations.extend_from_slice(&violations);
        }
        self.keys_written = rows.keys_written.finish();
        self.keys_read = rows.keys_read.finish();
        self.first_writers = rows.first_writers.finish();
        self.ext_reads = rows.ext_reads.finish();
        self.read_pairs = rows.read_pairs.finish();
        drop(rows_span);

        let _s = obs.span("index_by_key");
        self.build_key_writes();
    }

    /// Numbers the committed transactions densely, session-major, and the
    /// sessions holding one of them likewise.
    fn number_transactions(&mut self, history: &History) {
        let committed = history.committed_flags();
        let session_offsets = history.session_offsets();
        self.txn_ids.clear();
        self.txn_session.clear();
        let mut dense = std::mem::take(&mut self.dense).into_builder();
        let mut session_committed = std::mem::take(&mut self.session_committed).into_builder();
        let mut sessions = 0u32;
        for s in 0..history.num_sessions() {
            let first = session_offsets[s] as usize;
            let before = self.txn_ids.len();
            for (i, &c) in committed[first..session_offsets[s + 1] as usize]
                .iter()
                .enumerate()
            {
                if c {
                    let d = self.txn_ids.len() as DenseId;
                    self.txn_ids.push(TxnId::new(s as u32, i as u32));
                    self.txn_session.push(sessions);
                    session_committed.push_value(d);
                    dense.push_value(d);
                } else {
                    dense.push_value(NONE);
                }
            }
            dense.close_row();
            if self.txn_ids.len() > before {
                session_committed.close_row();
                sessions += 1;
            }
        }
        self.dense = dense.finish();
        self.session_committed = session_committed.finish();
    }

    /// The index of the first operation of dense transaction `d` (or, for
    /// `d = m`, one past the last committed transaction's operations) in
    /// [`History::flat_ops`].
    fn op_start(&self, history: &History, d: usize) -> usize {
        let op_offsets = history.txn_op_offsets();
        match self.txn_ids.get(d) {
            Some(&t) => op_offsets[global_txn(history, t)] as usize,
            None => self
                .txn_ids
                .last()
                .map_or(0, |&t| op_offsets[global_txn(history, t) + 1] as usize),
        }
    }

    /// Per operation of [`History::flat_ops`]: whether a later write of the
    /// same key in its (committed) transaction overwrites it; and per range
    /// of `ranges`, its transactions' writes and reads. Each range sets the
    /// bits of its own transactions' operations, with one stamped reverse
    /// scan per transaction.
    fn overwritten_bits(
        &self,
        pool: &Pool,
        history: &History,
        ranges: &[Range<u32>],
    ) -> (Vec<bool>, Vec<OpCounts>) {
        let ops = history.flat_ops();
        let op_offsets = history.txn_op_offsets();
        let mut overwritten = vec![false; ops.len()];
        // Carve the bit vector into the ranges' disjoint op spans.
        let mut spans = Vec::with_capacity(ranges.len());
        let mut rest = &mut overwritten[..];
        let mut consumed = 0;
        for r in ranges {
            let (lo, hi) = (
                self.op_start(history, r.start as usize),
                self.op_start(history, r.end as usize),
            );
            let (mine, tail) = std::mem::take(&mut rest)[lo - consumed..].split_at_mut(hi - lo);
            rest = tail;
            consumed = hi;
            spans.push((r.clone(), lo, Mutex::new(mine)));
        }
        let num_keys = history.num_keys();
        let counts =
            parallel::map_shards(pool, ranges.len(), "index_overwrites", &spans, |_, span| {
                let (range, base, bits) = span;
                let mut bits = bits.lock().expect("only this range's shard locks its span");
                let mut counts = OpCounts::default();
                let mut stamp = vec![0u32; num_keys];
                for (round, &t) in
                    (1u32..).zip(&self.txn_ids[range.start as usize..range.end as usize])
                {
                    let g = global_txn(history, t);
                    for i in (op_offsets[g] as usize..op_offsets[g + 1] as usize).rev() {
                        if let Op::Write { key, .. } = ops[i] {
                            counts.writes += 1;
                            bits[i - base] = stamp[key.index()] == round;
                            stamp[key.index()] = round;
                        } else {
                            counts.reads += 1;
                        }
                    }
                }
                counts
            });
        (overwritten, counts)
    }

    /// The rows pass over the dense transactions `range`: one walk over
    /// each transaction's operations feeds [`ReadCheck`] and collects the
    /// writes and external reads its rows derive from. Returns the range's
    /// Read Consistency violations.
    fn fill_rows(
        &self,
        history: &History,
        overwritten: &[bool],
        range: Range<u32>,
        rows: &mut RowBuilders,
    ) -> Vec<ReadConsistencyViolation> {
        let ops = history.flat_ops();
        let op_offsets = history.txn_op_offsets();
        let mut violations = Vec::new();
        let mut check = ReadCheck::default();
        let mut written: Vec<Key> = Vec::new();
        let mut reads: Vec<ExtRead> = Vec::new();
        let mut cols = ReadCols::default();
        for &tid in &self.txn_ids[range.start as usize..range.end as usize] {
            let g = global_txn(history, tid);
            written.clear();
            reads.clear();
            // The one walk: ReadCheck pulls the operations in program
            // order, and each pull also records what the rows need.
            let steps = ops[op_offsets[g] as usize..op_offsets[g + 1] as usize]
                .iter()
                .enumerate()
                .map(|(p, op)| match *op {
                    Op::Write { key, value } => {
                        written.push(key);
                        TxnOp::Write(key, value)
                    }
                    Op::Read { key, value, source } => TxnOp::Read(
                        key,
                        value,
                        match source {
                            ReadSource::ThinAir => ReadFrom::ThinAir,
                            ReadSource::Internal { op } => ReadFrom::Own(op),
                            ReadSource::External { txn, op } => {
                                let writer = self.dense_id(txn);
                                if writer == NONE {
                                    ReadFrom::Aborted(OpLoc::new(txn, op))
                                } else {
                                    reads.push(ExtRead {
                                        key,
                                        writer,
                                        op: p as u32,
                                    });
                                    ReadFrom::External(OpLoc::new(txn, op))
                                }
                            }
                        },
                    ),
                });
            check.check_txn(
                tid,
                steps,
                |w, _| {
                    !overwritten[op_offsets[global_txn(history, w.txn)] as usize + w.op as usize]
                },
                |f| {
                    if let ReadFinding::Violation(v) = f {
                        violations.push(v);
                    }
                },
            );

            written.sort_unstable();
            written.dedup();
            rows.keys_written.push_row(written.iter().copied());
            cols.fill(&reads);
            rows.keys_read.push_row(cols.keys_read.iter().copied());
            rows.first_writers
                .push_row(cols.first_writers.iter().copied());
            rows.read_pairs.push_row(cols.read_pairs.iter().copied());
            rows.ext_reads.push_row(reads.iter().copied());
        }
        violations
    }

    /// The two-level by-key write lists, counting-sorted straight from the
    /// `keys_written` rows: dense ids are session-major, so each key's
    /// writers land in session order, grouped by session.
    fn build_key_writes(&mut self) {
        let num_keys = self.num_keys;
        let cursor = &mut self.key_cursor;
        cursor.clear();
        cursor.resize(num_keys + 1, 0);
        for &k in self.keys_written.values() {
            cursor[k.index() + 1] += 1;
        }
        for k in 1..=num_keys {
            cursor[k] += cursor[k - 1];
        }
        // `cursor[k]` is now key `k`'s first slot; scattering advances it
        // to the slot after its last, i.e. key `k + 1`'s first.
        let (mut offsets, mut writers) =
            std::mem::take(&mut self.key_session_writers).into_raw_parts();
        writers.clear();
        writers.reserve_exact(self.keys_written.num_values());
        writers.resize(self.keys_written.num_values(), 0);
        for (d, keys) in self.keys_written.iter_rows() {
            for &k in keys {
                writers[cursor[k.index()] as usize] = d as DenseId;
                cursor[k.index()] += 1;
            }
        }
        let mut key_sessions = std::mem::take(&mut self.key_sessions).into_builder();
        offsets.clear();
        offsets.push(0);
        let mut start = 0;
        for &end in &cursor[..num_keys] {
            let end = end as usize;
            let mut i = start;
            while i < end {
                let s = self.txn_session[writers[i] as usize];
                key_sessions.push_value(s);
                while i < end && self.txn_session[writers[i] as usize] == s {
                    i += 1;
                }
                offsets.push(i as u32);
            }
            key_sessions.close_row();
            start = end;
        }
        if offsets.len() == 1 {
            offsets.clear();
        }
        self.key_sessions = key_sessions.finish();
        self.key_session_writers = Csr::from_raw_parts(offsets, writers);
        debug_assert_eq!(
            self.key_session_writers.num_rows(),
            self.key_sessions.num_values()
        );
    }

    /// Heap footprint of the index's retained buffers in bytes
    /// (capacities, not lengths) — the quantity tracked by the engine's
    /// arena-growth accounting. Build-time temporaries are excluded.
    pub fn heap_bytes(&self) -> usize {
        self.txn_ids.capacity() * std::mem::size_of::<TxnId>()
            + self.txn_session.capacity() * std::mem::size_of::<u32>()
            + self.dense.heap_bytes()
            + self.session_committed.heap_bytes()
            + self.keys_written.heap_bytes()
            + self.keys_read.heap_bytes()
            + self.first_writers.heap_bytes()
            + self.ext_reads.heap_bytes()
            + self.read_pairs.heap_bytes()
            + self.key_sessions.heap_bytes()
            + self.key_session_writers.heap_bytes()
            + self.key_cursor.capacity() * std::mem::size_of::<u32>()
            + self.read_violations.capacity() * std::mem::size_of::<ReadConsistencyViolation>()
    }

    /// Every Read Consistency violation of the history (the five axioms of
    /// Algorithm 4), in session-major program order — what
    /// [`check_read_consistency`](crate::check_read_consistency) returns.
    #[inline]
    pub fn read_violations(&self) -> &[ReadConsistencyViolation] {
        &self.read_violations
    }

    /// Takes the Read Consistency violations out of the index.
    pub(crate) fn take_read_violations(&mut self) -> Vec<ReadConsistencyViolation> {
        std::mem::take(&mut self.read_violations)
    }

    /// Number of committed transactions, `m`.
    #[inline]
    pub fn num_committed(&self) -> usize {
        self.txn_ids.len()
    }

    /// Number of index sessions, `k`: the sessions holding at least one
    /// committed transaction (see [`HistoryIndex`]).
    #[inline]
    pub fn num_sessions(&self) -> usize {
        self.session_committed.num_rows()
    }

    /// Number of sessions of the indexed history, empty and all-aborted
    /// ones included.
    #[inline]
    pub fn num_history_sessions(&self) -> usize {
        self.dense.num_rows()
    }

    /// Number of distinct keys in the history.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.num_keys
    }

    /// Total number of external-read records across all transactions.
    #[inline]
    pub fn num_ext_reads(&self) -> usize {
        self.ext_reads.num_values()
    }

    /// The [`TxnId`] of a dense transaction.
    #[inline]
    pub fn txn_id(&self, d: DenseId) -> TxnId {
        self.txn_ids[d as usize]
    }

    /// All dense-to-[`TxnId`] mappings, dense-id order.
    #[inline]
    pub fn txn_ids(&self) -> &[TxnId] {
        &self.txn_ids
    }

    /// The dense id of a committed transaction, or [`NONE`] if it aborted
    /// (`t` carries the history's session id).
    #[inline]
    pub fn dense_id(&self, t: TxnId) -> DenseId {
        self.dense.row(t.session as usize)[t.index as usize]
    }

    /// Position of dense transaction `d` within its session, counting
    /// committed transactions only.
    #[inline]
    pub fn committed_pos(&self, d: DenseId) -> u32 {
        d - self.session_base(self.session_of(d))
    }

    /// Index session of dense transaction `d` (its history session is
    /// [`txn_id(d)`](Self::txn_id)`.session`).
    #[inline]
    pub fn session_of(&self, d: DenseId) -> u32 {
        self.txn_session[d as usize]
    }

    /// Dense ids of index session `s`'s committed transactions, in session
    /// order.
    #[inline]
    pub fn session_committed(&self, s: SessionId) -> &[DenseId] {
        self.session_committed.row(s.index())
    }

    /// Sorted, deduplicated keys written by dense transaction `d`.
    #[inline]
    pub fn keys_written(&self, d: DenseId) -> &[Key] {
        self.keys_written.row(d as usize)
    }

    /// Sorted, deduplicated keys read externally by dense transaction `d`.
    #[inline]
    pub fn keys_read(&self, d: DenseId) -> &[Key] {
        self.keys_read.row(d as usize)
    }

    /// Whether dense transaction `d` writes `key`.
    #[inline]
    pub fn writes_key(&self, d: DenseId, key: Key) -> bool {
        self.keys_written
            .row(d as usize)
            .binary_search(&key)
            .is_ok()
    }

    /// External reads of dense transaction `d`, in program order.
    #[inline]
    pub fn ext_reads(&self, d: DenseId) -> &[ExtRead] {
        self.ext_reads.row(d as usize)
    }

    /// Writers of the `po`-first external read of each key in
    /// [`keys_read`](Self::keys_read), as a parallel array.
    #[inline]
    pub fn first_writers(&self, d: DenseId) -> &[DenseId] {
        self.first_writers.row(d as usize)
    }

    /// The writer of the `po`-first external read of `key` by `d`, if any.
    #[inline]
    pub fn first_writer_of(&self, d: DenseId, key: Key) -> Option<DenseId> {
        self.keys_read
            .row(d as usize)
            .binary_search(&key)
            .ok()
            .map(|i| self.first_writers.row(d as usize)[i])
    }

    /// All distinct `(key, writer)` pairs read externally by `d`, sorted by
    /// key then writer. A key occurs once per distinct writer, so this is
    /// exactly the set `{(x, t1) | t1 →wr_x→ d}` iterated by Algorithm 3.
    #[inline]
    pub fn read_pairs(&self, d: DenseId) -> &[(Key, DenseId)] {
        self.read_pairs.row(d as usize)
    }

    /// Committed writers of `key` in index session `s`, in session order
    /// (the `Writes_s[x]` array of Algorithm 3).
    #[inline]
    pub fn session_writes(&self, s: u32, key: Key) -> &[DenseId] {
        if key.index() >= self.num_keys {
            return &[];
        }
        let entries = self.key_sessions.row_range(key.index());
        let sessions = &self.key_sessions.values()[entries.clone()];
        match sessions.binary_search(&s) {
            Ok(i) => self.key_session_writers.row(entries.start + i),
            Err(_) => &[],
        }
    }

    /// The index sessions writing `key` (ascending), each with its write list's
    /// row id in the two-level CSR and its committed writers in session
    /// order — only sessions with at least one write appear, which is what
    /// keeps Algorithm 3's per-read work proportional to the writers that
    /// exist rather than to `k`. Row ids are distinct across all keys'
    /// lists.
    #[inline]
    pub fn key_writes(&self, key: Key) -> impl Iterator<Item = (u32, u32, &[DenseId])> {
        let entries = if key.index() < self.num_keys {
            self.key_sessions.row_range(key.index())
        } else {
            0..0
        };
        entries.map(move |e| {
            (
                self.key_sessions.values()[e],
                e as u32,
                self.key_session_writers.row(e),
            )
        })
    }

    /// The number of leading entries of `writes` — session `session`'s
    /// committed writers of a key in session order, as
    /// [`key_writes`](Self::key_writes) yields them — whose committed
    /// position is below `bound`, and the number of entries the search
    /// compared. The count equals
    /// `writes.partition_point(|&w| self.committed_pos(w) < bound)`.
    ///
    /// Dense ids are session-major, so the session's committed
    /// transactions are the consecutive ids `base..base + len` and
    /// `committed_pos(w) = w − base`. Hence `committed_pos(w) < bound ⇔
    /// w < base + bound`: the search compares ids and loads no position.
    /// With a `hint` it gallops outward from that entry (any value: past
    /// the end means the end), so a hint at or near the answer costs one
    /// or two compares, and a stale one only `O(log distance)` more;
    /// without one it binary searches the whole list.
    #[inline]
    pub fn writers_before(
        &self,
        session: u32,
        writes: &[DenseId],
        bound: u32,
        hint: Option<u32>,
    ) -> (usize, u32) {
        search_below(writes, self.session_base(session) + bound, hint)
    }

    /// Whether `w`, a committed transaction of session `session`, has
    /// committed position `pos` or later: `w ≥ base + pos`, with the
    /// session-major `base` of [`writers_before`](Self::writers_before).
    #[inline]
    pub fn is_at_or_after(&self, session: u32, w: DenseId, pos: u32) -> bool {
        w >= self.session_base(session) + pos
    }

    /// The dense id of session `session`'s first committed transaction
    /// (dense ids are session-major).
    #[inline]
    fn session_base(&self, session: u32) -> u32 {
        self.session_committed.offsets()[session as usize]
    }

    /// Iterates over every `(session, key)` pair with at least one committed
    /// write, along with its writer list.
    pub fn session_write_lists(&self) -> impl Iterator<Item = (u32, Key, &[DenseId])> {
        (0..self.num_keys).flat_map(move |k| {
            self.key_writes(Key(k as u32))
                .map(move |(s, _, ws)| (s, Key(k as u32), ws))
        })
    }
}

/// The position of `t` in the history's per-transaction columns.
#[inline]
fn global_txn(history: &History, t: TxnId) -> usize {
    history.session_offsets()[t.session as usize] as usize + t.index as usize
}

/// The number of entries of the ascending `ids` below `target`, and the
/// entries compared to find it. With a hint the search gallops outward
/// from `min(hint, len)` — offsets 1, 2, 4, … — until the answer is
/// bracketed, then binary searches the bracket, so it is exact from any
/// hint; without one the bracket is the whole list.
fn search_below(ids: &[u32], target: u32, hint: Option<u32>) -> (usize, u32) {
    let n = ids.len();
    let mut probes = 0;
    let mut below = |i: usize| {
        probes += 1;
        ids[i] < target
    };
    // Bracket the answer: it lies in lo..=hi.
    let (mut lo, mut hi) = (0, n);
    if let Some(hint) = hint {
        let h = (hint as usize).min(n);
        let mut step = 1;
        if h < n && below(h) {
            lo = h + 1;
            while h + step < n {
                if !below(h + step) {
                    hi = h + step;
                    break;
                }
                lo = h + step + 1;
                step *= 2;
            }
        } else {
            hi = h;
            while step <= h {
                if below(h - step) {
                    lo = h - step + 1;
                    break;
                }
                hi = h - step;
                step *= 2;
            }
        }
    }
    // Branch-free binary search of lo..hi, as `partition_point` does.
    let mut size = hi - lo;
    if size == 0 {
        return (lo, probes);
    }
    while size > 1 {
        let half = size / 2;
        if below(lo + half) {
            lo += half;
        }
        size -= half;
    }
    (lo + usize::from(below(lo)), probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    fn build() -> (History, HistoryIndex) {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        // s0: t0 writes x=1, y=2; t1 (aborted) writes x=9; t2 writes x=3.
        b.begin(s0);
        b.write(s0, 100, 1);
        b.write(s0, 200, 2);
        b.commit(s0);
        b.begin(s0);
        b.write(s0, 100, 9);
        b.abort(s0);
        b.begin(s0);
        b.write(s0, 100, 3);
        b.commit(s0);
        // s1: reads x twice (from t0 then t2), y once, and the aborted write.
        b.begin(s1);
        b.read(s1, 100, 1);
        b.read(s1, 200, 2);
        b.read(s1, 100, 3);
        b.read(s1, 100, 9); // from aborted txn: excluded from ext reads
        b.commit(s1);
        let h = b.finish().unwrap();
        let idx = HistoryIndex::new(&h);
        (h, idx)
    }

    #[test]
    fn dense_numbering_skips_aborted() {
        let (h, idx) = build();
        assert_eq!(h.num_txns(), 4);
        assert_eq!(idx.num_committed(), 3);
        assert_eq!(idx.dense_id(TxnId::new(0, 1)), NONE);
        let d2 = idx.dense_id(TxnId::new(0, 2));
        assert_ne!(d2, NONE);
        assert_eq!(idx.committed_pos(d2), 1); // second *committed* txn of s0
        assert_eq!(idx.txn_id(d2), TxnId::new(0, 2));
    }

    #[test]
    fn ext_reads_exclude_aborted_writers() {
        let (_, idx) = build();
        let reader = idx.dense_id(TxnId::new(1, 0));
        let reads = idx.ext_reads(reader);
        assert_eq!(reads.len(), 3); // the aborted-writer read is dropped
        assert_eq!(reads[0].op, 0);
        assert_eq!(reads[2].op, 2);
    }

    #[test]
    fn key_sets_are_sorted_and_deduped() {
        let (_, idx) = build();
        let reader = idx.dense_id(TxnId::new(1, 0));
        let keys = idx.keys_read(reader);
        assert_eq!(keys.len(), 2);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let writer = idx.dense_id(TxnId::new(0, 0));
        assert_eq!(idx.keys_written(writer).len(), 2);
        assert!(idx.writes_key(writer, keys[0]));
    }

    #[test]
    fn first_writer_per_key_is_po_first() {
        let (_, idx) = build();
        let reader = idx.dense_id(TxnId::new(1, 0));
        let t0 = idx.dense_id(TxnId::new(0, 0));
        let x = idx.ext_reads(reader)[0].key;
        assert_eq!(idx.first_writer_of(reader, x), Some(t0));
    }

    #[test]
    fn session_writes_in_session_order() {
        let (_, idx) = build();
        let t0 = idx.dense_id(TxnId::new(0, 0));
        let t2 = idx.dense_id(TxnId::new(0, 2));
        let x = idx.keys_written(t0)[0];
        // Both t0 and t2 write key x (= key id 0); the aborted txn is absent.
        assert_eq!(idx.session_writes(0, x), &[t0, t2]);
        assert!(idx.session_writes(1, x).is_empty());
    }

    #[test]
    fn session_committed_lists() {
        let (_, idx) = build();
        assert_eq!(idx.session_committed(SessionId(0)).len(), 2);
        assert_eq!(idx.session_committed(SessionId(1)).len(), 1);
    }

    #[test]
    fn key_writes_groups_by_session() {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let s2 = b.session();
        for (i, s) in [s0, s2, s1, s2].into_iter().enumerate() {
            b.begin(s);
            b.write(s, 7, i as u64 + 1);
            b.commit(s);
        }
        let h = b.finish().unwrap();
        let idx = HistoryIndex::new(&h);
        let x = idx.keys_written(0)[0];
        let groups: Vec<(u32, Vec<DenseId>)> = idx
            .key_writes(x)
            .map(|(s, _, ws)| (s, ws.to_vec()))
            .collect();
        // Sessions ascending, each with its writers in session order.
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[1].0, 1);
        assert_eq!(groups[2].0, 2);
        assert_eq!(groups[2].1.len(), 2);
        let all: usize = idx.session_write_lists().map(|(_, _, ws)| ws.len()).sum();
        assert_eq!(all, 4);
    }

    /// `writers_before` must count exactly what a search over committed
    /// positions counts, for every bound from 0 to one past the session's
    /// end and from every hint — the list's start, middle, last entry and
    /// end, `u32::MAX`, the answer itself, and none — in at most two
    /// compares from the answer, `2·log₂ d + 4` from a hint `d` entries
    /// away and `⌈log₂ len⌉ + 1` from none, on write lists of every shape:
    /// one entry, every entry at the start or the end of the session,
    /// TPC-C-like bursts, skewed spacing (so the gallop runs to either
    /// end), and uniform lists of 1,000 entries and more. Aborted
    /// transactions are interleaved, and every session but the first
    /// starts at a nonzero dense id.
    #[test]
    fn writers_before_matches_a_search_over_positions() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut coin = |p: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % 100 < p
        };
        let n = 2_500usize;
        let shapes: Vec<Vec<bool>> = vec![
            (0..n).map(|i| i == n / 2).collect(),
            (0..n).map(|i| i < 40).collect(),
            (0..n).map(|i| i >= n - 200).collect(),
            (0..n).map(|i| i % 500 < 20).collect(),
            (0..n).map(|i| i < 600 || i % 97 == 0).collect(),
            (0..n).map(|i| i == 0 || i >= n - 200).collect(),
            (0..n).map(|i| i < 200 || i == n - 1).collect(),
            (0..n).map(|_| coin(50)).collect(),
            (0..n).map(|_| coin(90)).collect(),
            (0..n).map(|_| coin(3)).collect(),
        ];
        let mut b = HistoryBuilder::new();
        let mut value = 0;
        for shape in &shapes {
            let s = b.session();
            for &writes_x in shape {
                value += 1;
                if coin(10) {
                    b.begin(s);
                    b.write(s, 0, value);
                    b.abort(s);
                    value += 1;
                }
                b.begin(s);
                b.write(s, if writes_x { 0 } else { 1 }, value);
                b.commit(s);
            }
        }
        let h = b.finish().unwrap();
        let idx = HistoryIndex::new(&h);
        let x = (0..h.num_keys() as u32)
            .map(Key)
            .find(|&k| h.key_name(k) == 0)
            .unwrap();
        let lists: Vec<(u32, &[DenseId])> = idx.key_writes(x).map(|(s, _, ws)| (s, ws)).collect();
        assert_eq!(lists.len(), shapes.len());
        let lens: Vec<usize> = lists.iter().map(|(_, ws)| ws.len()).collect();
        assert!(lens.contains(&1));
        assert!(lens.iter().filter(|&&l| l >= 1_000).count() >= 2);
        for hint in [None, Some(0), Some(1), Some(u32::MAX)] {
            assert_eq!(idx.writers_before(0, &[], 0, hint), (0, 0));
        }
        for (s, writes) in lists {
            let len = idx.session_committed(SessionId(s)).len() as u32;
            let n = writes.len() as u32;
            for bound in 0..=len + 1 {
                let expected = writes.partition_point(|&w| idx.committed_pos(w) < bound);
                let hints = [0, n / 2, n - 1, n, u32::MAX, expected as u32];
                for hint in hints.map(Some).into_iter().chain([None]) {
                    let (count, probes) = idx.writers_before(s, writes, bound, hint);
                    assert_eq!(
                        count, expected,
                        "session {s} ({n} writers), bound {bound}, hint {hint:?}"
                    );
                    // A finger search's cost grows with the log of the
                    // hint's distance from the answer; a cold search's with
                    // the log of the list's length.
                    let limit = match hint {
                        Some(h) => match expected.abs_diff((h as usize).min(writes.len())) {
                            0 => 2,
                            d => 2 * d.ilog2() + 4,
                        },
                        None => writes.len().next_power_of_two().ilog2() + 1,
                    };
                    assert!(
                        probes <= limit,
                        "{probes} compares: session {s}, bound {bound}, hint {hint:?}"
                    );
                }
            }
        }
    }
}
