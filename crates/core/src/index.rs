//! Derived indexes over a history, shared by all checkers.
//!
//! The checkers in this crate never walk the raw [`History`] on their hot
//! paths. Instead, a [`HistoryIndex`] is built once in `O(n log n)` time and
//! provides:
//!
//! * a dense numbering `0..m` of the committed transactions (so that the
//!   commit-relation graph and stamp arrays can use plain vectors),
//! * per-transaction sorted key sets `KeysWt(t)` / `KeysRd(t)`,
//! * the operation-level external reads of every transaction in program
//!   order (the `wr` relation, pre-filtered to committed writers),
//! * per-`(session, key)` write lists in session order (the `Writes_s'[x]`
//!   arrays of Algorithm 3).
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
//! the sharded saturation workers of [`parallel`](crate::parallel).

use crate::csr::{Csr, ReadCols};
use crate::history::History;
use crate::op::{Op, ReadSource};
use crate::types::{Key, SessionId, TxnId};

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
#[derive(Clone, Debug)]
pub struct HistoryIndex {
    /// `txn_ids[d]` is the [`TxnId`] of dense transaction `d`.
    txn_ids: Vec<TxnId>,
    /// Row `s`, position `i`: the dense id of session `s`'s transaction at
    /// session position `i` (counting aborted ones), or [`NONE`] if that
    /// transaction aborted.
    dense: Csr<DenseId>,
    /// Session-local position of each dense transaction, counting committed
    /// transactions only.
    committed_pos: Vec<u32>,
    /// Row `s`: dense ids of session `s`'s committed transactions in
    /// session order.
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
    /// keys): the sessions writing the key, ascending — only sessions with
    /// at least one write appear. Level 2 (`key_session_writers`, rows are
    /// level-1 *entries*): that `(key, session)`'s committed writers in
    /// session order.
    key_sessions: Csr<u32>,
    key_session_writers: Csr<DenseId>,
    num_keys: usize,
    num_sessions: usize,
    /// Total number of external-read records (ops, not deduplicated).
    num_ext_reads: usize,
}

impl Default for HistoryIndex {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistoryIndex {
    /// Builds the index for `history`.
    pub fn new(history: &History) -> Self {
        let mut index = Self::empty();
        index.rebuild(history);
        index
    }

    /// An index over the empty history (no sessions, no transactions).
    /// Mainly useful as the starting arena for [`rebuild`](Self::rebuild).
    pub fn empty() -> Self {
        HistoryIndex {
            txn_ids: Vec::new(),
            dense: Csr::new(),
            committed_pos: Vec::new(),
            session_committed: Csr::new(),
            keys_written: Csr::new(),
            keys_read: Csr::new(),
            first_writers: Csr::new(),
            ext_reads: Csr::new(),
            read_pairs: Csr::new(),
            key_sessions: Csr::new(),
            key_session_writers: Csr::new(),
            num_keys: 0,
            num_sessions: 0,
            num_ext_reads: 0,
        }
    }

    /// Rebuilds the index for `history` **in place**, recycling every CSR
    /// and vector buffer (capacities are kept; see
    /// [`Csr::into_builder`]). A rebuild over a history of the same shape
    /// performs no heap growth — the property the
    /// [`Engine`](crate::Engine)'s arena accounting asserts.
    pub fn rebuild(&mut self, history: &History) {
        let num_sessions = history.num_sessions();
        let num_keys = history.num_keys();

        // Dense numbering of committed transactions, session-major.
        let mut txn_ids = std::mem::take(&mut self.txn_ids);
        txn_ids.clear();
        let mut dense = std::mem::take(&mut self.dense).into_builder();
        let mut committed_pos = std::mem::take(&mut self.committed_pos);
        committed_pos.clear();
        let mut session_committed = std::mem::take(&mut self.session_committed).into_builder();
        for (sid, txns) in history.sessions() {
            let mut committed_in_session = 0u32;
            for (i, t) in txns.iter().enumerate() {
                if t.is_committed() {
                    let d = txn_ids.len() as DenseId;
                    txn_ids.push(TxnId::new(sid.0, i as u32));
                    committed_pos.push(committed_in_session);
                    committed_in_session += 1;
                    session_committed.push_value(d);
                    dense.push_value(d);
                } else {
                    dense.push_value(NONE);
                }
            }
            dense.close_row();
            session_committed.close_row();
        }
        let dense = dense.finish();
        let session_committed = session_committed.finish();

        let mut keys_written = std::mem::take(&mut self.keys_written).into_builder();
        let mut keys_read = std::mem::take(&mut self.keys_read).into_builder();
        let mut first_writers = std::mem::take(&mut self.first_writers).into_builder();
        let mut ext_reads = std::mem::take(&mut self.ext_reads).into_builder();
        let mut read_pairs = std::mem::take(&mut self.read_pairs).into_builder();
        // Unordered (key, writer) pairs for the two-level by-key CSR; dense
        // ids are session-major, so within one key the writers arrive
        // grouped by session, sessions ascending, session order inside.
        let mut write_pairs: Vec<(u32, DenseId)> = Vec::new();
        let mut num_ext_reads = 0usize;

        let mut wt_scratch: Vec<Key> = Vec::new();
        let mut er_scratch: Vec<ExtRead> = Vec::new();
        let mut cols = ReadCols::default();
        for (d, &tid) in txn_ids.iter().enumerate() {
            let txn = history.txn(tid);
            wt_scratch.clear();
            er_scratch.clear();
            for (p, op) in txn.ops().iter().enumerate() {
                match *op {
                    Op::Write { key, .. } => {
                        wt_scratch.push(key);
                    }
                    Op::Read { key, source, .. } => {
                        if let ReadSource::External { txn: wtxn, .. } = source {
                            let wd = dense.row(wtxn.session as usize)[wtxn.index as usize];
                            if wd != NONE {
                                er_scratch.push(ExtRead {
                                    key,
                                    writer: wd,
                                    op: p as u32,
                                });
                            }
                        }
                    }
                }
            }
            wt_scratch.sort_unstable();
            wt_scratch.dedup();
            num_ext_reads += er_scratch.len();

            cols.fill(&er_scratch);
            keys_read.push_row(cols.keys_read.iter().copied());
            first_writers.push_row(cols.first_writers.iter().copied());
            read_pairs.push_row(cols.read_pairs.iter().copied());
            ext_reads.push_row(er_scratch.iter().copied());

            for &k in &wt_scratch {
                write_pairs.push((k.0, d as DenseId));
            }
            keys_written.push_row(wt_scratch.iter().copied());
        }

        // Two-level by-key CSR: group each key's writers (already in dense
        // order within the key after the counting sort) by session.
        let by_key = Csr::from_pairs(num_keys, &write_pairs);
        let mut key_sessions = std::mem::take(&mut self.key_sessions).into_builder();
        let mut key_session_writers = std::mem::take(&mut self.key_session_writers).into_builder();
        for k in 0..num_keys {
            let writers = by_key.row(k);
            let mut i = 0;
            while i < writers.len() {
                let s = txn_ids[writers[i] as usize].session;
                key_sessions.push_value(s);
                while i < writers.len() && txn_ids[writers[i] as usize].session == s {
                    key_session_writers.push_value(writers[i]);
                    i += 1;
                }
                key_session_writers.close_row();
            }
            key_sessions.close_row();
        }
        let key_sessions = key_sessions.finish();
        let key_session_writers = key_session_writers.finish();
        debug_assert_eq!(key_session_writers.num_rows(), key_sessions.num_values());

        self.txn_ids = txn_ids;
        self.dense = dense;
        self.committed_pos = committed_pos;
        self.session_committed = session_committed;
        self.keys_written = keys_written.finish();
        self.keys_read = keys_read.finish();
        self.first_writers = first_writers.finish();
        self.ext_reads = ext_reads.finish();
        self.read_pairs = read_pairs.finish();
        self.key_sessions = key_sessions;
        self.key_session_writers = key_session_writers;
        self.num_keys = num_keys;
        self.num_sessions = num_sessions;
        self.num_ext_reads = num_ext_reads;
    }

    /// Heap footprint of the index's retained buffers in bytes
    /// (capacities, not lengths) — the quantity tracked by the engine's
    /// arena-growth accounting. Build-time temporaries are excluded.
    pub fn heap_bytes(&self) -> usize {
        self.txn_ids.capacity() * std::mem::size_of::<TxnId>()
            + self.committed_pos.capacity() * std::mem::size_of::<u32>()
            + self.dense.heap_bytes()
            + self.session_committed.heap_bytes()
            + self.keys_written.heap_bytes()
            + self.keys_read.heap_bytes()
            + self.first_writers.heap_bytes()
            + self.ext_reads.heap_bytes()
            + self.read_pairs.heap_bytes()
            + self.key_sessions.heap_bytes()
            + self.key_session_writers.heap_bytes()
    }

    /// Number of committed transactions, `m`.
    #[inline]
    pub fn num_committed(&self) -> usize {
        self.txn_ids.len()
    }

    /// Number of sessions, `k`.
    #[inline]
    pub fn num_sessions(&self) -> usize {
        self.num_sessions
    }

    /// Number of distinct keys in the history.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.num_keys
    }

    /// Total number of external-read records across all transactions.
    #[inline]
    pub fn num_ext_reads(&self) -> usize {
        self.num_ext_reads
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

    /// The dense id of a committed transaction, or [`NONE`] if it aborted.
    #[inline]
    pub fn dense_id(&self, t: TxnId) -> DenseId {
        self.dense.row(t.session as usize)[t.index as usize]
    }

    /// Position of dense transaction `d` within its session, counting
    /// committed transactions only.
    #[inline]
    pub fn committed_pos(&self, d: DenseId) -> u32 {
        self.committed_pos[d as usize]
    }

    /// Session of dense transaction `d`.
    #[inline]
    pub fn session_of(&self, d: DenseId) -> u32 {
        self.txn_ids[d as usize].session
    }

    /// Dense ids of session `s`'s committed transactions, in session order.
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

    /// Committed writers of `key` in session `s`, in session order
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

    /// The sessions writing `key` (ascending), each with its write list's
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
