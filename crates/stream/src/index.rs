//! The growing (and, under pruning, shrinking) per-transaction index behind
//! [`OnlineChecker`](crate::OnlineChecker).
//!
//! A `StreamIndex` is the streaming mirror of
//! [`awdit_core::HistoryIndex`]: it implements
//! [`CommitView`] so the saturation
//! kernels cannot tell batch and stream apart. Dense ids are *slab slots*:
//! watermark pruning retires a transaction, frees its slot, and a later
//! transaction may reuse it — keeping memory proportional to the number of
//! *live* transactions rather than the length of the stream.

use awdit_core::incremental::{CommitView, ReadFrom, TxnOp};
use awdit_core::{DenseId, ExtRead, Key, ReadCols, TxnId};

/// Per-transaction derived data, mirroring the batch index's layout.
///
/// A slot keeps its metadata's buffers when its transaction retires, and
/// the next transaction placed there refills them
/// ([`refill`](Self::refill)), so a warm stream derives each transaction's
/// metadata without allocating.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxnMeta {
    /// User-facing transaction id.
    pub txn_id: TxnId,
    /// Dense session index.
    pub session: u32,
    /// Position within the session, counting committed transactions.
    pub committed_pos: u32,
    /// Sorted, deduplicated keys written.
    pub keys_written: Vec<Key>,
    /// Sorted keys read externally (committed writers), the writer of the
    /// `po`-first read of each, and the distinct `(key, writer)` pairs.
    pub reads: ReadCols,
    /// External reads in program order.
    pub ext_reads: Vec<ExtRead>,
    /// The transaction's operations in program order (its writes leave
    /// the value map at pruning).
    pub ops: Vec<TxnOp>,
    /// The `po`-last write position of each key written, sorted by key.
    pub final_writes: Vec<(Key, u32)>,
    /// Staged readers currently holding a resolved reference to this
    /// transaction (blocks pruning).
    pub pending_readers: u32,
}

impl Default for TxnMeta {
    fn default() -> Self {
        TxnMeta {
            txn_id: TxnId::new(0, 0),
            session: 0,
            committed_pos: 0,
            keys_written: Vec::new(),
            reads: ReadCols::default(),
            ext_reads: Vec::new(),
            ops: Vec::new(),
            final_writes: Vec::new(),
            pending_readers: 0,
        }
    }
}

impl TxnMeta {
    /// Re-derives the metadata for committed transaction `txn_id` at
    /// `committed_pos` of `session`, reusing this metadata's buffers. The
    /// operations are swapped in: `ops` gets back the previous buffer,
    /// cleared. `writer_slot` gives the slot of an external read's writer
    /// (the streaming analog of `HistoryIndex`'s dense numbering); a read
    /// whose writer has none is not an external read.
    pub fn refill(
        &mut self,
        txn_id: TxnId,
        session: u32,
        committed_pos: u32,
        ops: &mut Vec<TxnOp>,
        mut writer_slot: impl FnMut(TxnId) -> Option<DenseId>,
    ) {
        std::mem::swap(&mut self.ops, ops);
        ops.clear();
        self.txn_id = txn_id;
        self.session = session;
        self.committed_pos = committed_pos;
        self.pending_readers = 0;
        self.ext_reads.clear();
        self.final_writes.clear();
        for (p, op) in self.ops.iter().enumerate() {
            match *op {
                TxnOp::Write(key, _) => self.final_writes.push((key, p as u32)),
                TxnOp::Read(key, _, ReadFrom::External(w)) => {
                    if let Some(writer) = writer_slot(w.txn) {
                        self.ext_reads.push(ExtRead {
                            key,
                            writer,
                            op: p as u32,
                        });
                    }
                }
                TxnOp::Read(..) => {}
            }
        }
        // The po-last write of each key, by key.
        self.final_writes
            .sort_unstable_by_key(|&(k, p)| (k, std::cmp::Reverse(p)));
        self.final_writes.dedup_by_key(|w| w.0);
        self.keys_written.clear();
        self.keys_written
            .extend(self.final_writes.iter().map(|w| w.0));
        // The same read-column derivation the batch `HistoryIndex` runs, so
        // the two sides cannot drift.
        self.reads.fill(&self.ext_reads);
    }
}

/// One slab slot: its metadata stays in place (buffers and all) while the
/// slot is free.
#[derive(Debug, Default)]
struct Slot {
    live: bool,
    meta: TxnMeta,
}

/// Slab-backed streaming index over the live committed transactions.
///
/// A free slot keeps its [`TxnMeta`] buffers for the next transaction
/// placed there, and [`clear`](Self::clear) keeps every slot's, while
/// handing slots out again in the order a fresh index would.
#[derive(Debug, Default)]
pub struct StreamIndex {
    slots: Vec<Slot>,
    /// Slots handed out since the last clear: `slots[used..]` are warm
    /// buffers from an earlier stream.
    used: usize,
    free: Vec<u32>,
    live: usize,
    num_sessions: usize,
    /// Per key (indexed by the interned [`Key`]): sessions writing it
    /// (ascending), each with its live committed writers in session order
    /// — the `Writes_s'[x]` arrays.
    writes_by_key: Vec<Vec<(u32, Vec<DenseId>)>>,
}

impl StreamIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (processed, unretired) transactions.
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Empties the index for a fresh stream, retaining the slab's and the
    /// write lists' allocation capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.slots[..self.used] {
            slot.live = false;
        }
        self.used = 0;
        self.free.clear();
        self.live = 0;
        self.num_sessions = 0;
        for per_session in &mut self.writes_by_key {
            per_session.clear();
        }
    }

    /// Tracks that `k` sessions exist.
    pub fn ensure_sessions(&mut self, k: usize) {
        self.num_sessions = self.num_sessions.max(k);
    }

    /// Inserts a processed transaction, returning its slot: `fill` writes
    /// the transaction's metadata over the slot's previous one (see
    /// [`TxnMeta::refill`]), and the transaction joins the write lists of
    /// the keys it writes.
    pub fn insert(&mut self, fill: impl FnOnce(&mut TxnMeta)) -> DenseId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                if self.used == self.slots.len() {
                    self.slots.push(Slot::default());
                }
                self.used += 1;
                (self.used - 1) as u32
            }
        };
        let Self {
            slots,
            writes_by_key,
            ..
        } = self;
        let entry = &mut slots[slot as usize];
        debug_assert!(!entry.live, "slot {slot} already live");
        fill(&mut entry.meta);
        entry.live = true;
        self.live += 1;
        let m = &slots[slot as usize].meta;
        for &key in &m.keys_written {
            if writes_by_key.len() <= key.index() {
                writes_by_key.resize_with(key.index() + 1, Vec::new);
            }
            let per_session = &mut writes_by_key[key.index()];
            let i = match per_session.binary_search_by_key(&m.session, |&(s, _)| s) {
                Ok(i) => i,
                Err(i) => {
                    per_session.insert(i, (m.session, Vec::new()));
                    i
                }
            };
            // Transactions of one session are processed in session order, so
            // pushing keeps the list sorted by committed position.
            debug_assert!(per_session[i]
                .1
                .last()
                .is_none_or(|&w| slots[w as usize].meta.committed_pos < m.committed_pos));
            per_session[i].1.push(slot);
        }
        slot
    }

    /// The metadata of a live slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn meta(&self, d: DenseId) -> &TxnMeta {
        let slot = &self.slots[d as usize];
        assert!(slot.live, "live slot");
        &slot.meta
    }

    /// Mutable metadata of a live slot.
    pub fn meta_mut(&mut self, d: DenseId) -> &mut TxnMeta {
        let slot = &mut self.slots[d as usize];
        assert!(slot.live, "live slot");
        &mut slot.meta
    }

    /// Iterates over the live slots.
    pub fn live_slots(&self) -> impl Iterator<Item = (DenseId, &TxnMeta)> {
        self.slots[..self.used]
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, s)| (i as u32, &s.meta))
    }

    /// The live writers of `key` in session `s`, in session order.
    pub fn session_key_writers(&self, s: u32, key: Key) -> &[DenseId] {
        self.writes_by_key
            .get(key.index())
            .and_then(|per_session| {
                per_session
                    .binary_search_by_key(&s, |&(sess, _)| sess)
                    .ok()
                    .map(|i| per_session[i].1.as_slice())
            })
            .unwrap_or(&[])
    }

    /// Retires a slot: removes it from the write lists and frees it for
    /// reuse. Returns the retired metadata (for value-map cleanup), which
    /// stays in the slot until the slot is reused.
    pub fn retire(&mut self, d: DenseId) -> &TxnMeta {
        let slot = &mut self.slots[d as usize];
        assert!(slot.live, "live slot");
        slot.live = false;
        self.live -= 1;
        let meta = &slot.meta;
        for &key in &meta.keys_written {
            let per_session = &mut self.writes_by_key[key.index()];
            if let Ok(i) = per_session.binary_search_by_key(&meta.session, |&(s, _)| s) {
                per_session[i].1.retain(|&w| w != d);
                if per_session[i].1.is_empty() {
                    per_session.remove(i);
                }
            }
        }
        self.free.push(d);
        meta
    }
}

impl CommitView for StreamIndex {
    fn num_sessions(&self) -> usize {
        self.num_sessions
    }
    fn session_of(&self, d: DenseId) -> u32 {
        self.meta(d).session
    }
    fn committed_pos(&self, d: DenseId) -> u32 {
        self.meta(d).committed_pos
    }
    fn ext_reads(&self, d: DenseId) -> &[ExtRead] {
        &self.meta(d).ext_reads
    }
    fn keys_written(&self, d: DenseId) -> &[Key] {
        &self.meta(d).keys_written
    }
    fn keys_read(&self, d: DenseId) -> &[Key] {
        &self.meta(d).reads.keys_read
    }
    fn first_writers(&self, d: DenseId) -> &[DenseId] {
        &self.meta(d).reads.first_writers
    }
    fn writes_key(&self, d: DenseId, key: Key) -> bool {
        self.meta(d).keys_written.binary_search(&key).is_ok()
    }
    fn read_pairs(&self, d: DenseId) -> &[(Key, DenseId)] {
        &self.meta(d).reads.read_pairs
    }
    fn for_each_key_writes(&self, key: Key, mut f: impl FnMut(u32, u32, &[DenseId])) {
        if let Some(per_session) = self.writes_by_key.get(key.index()) {
            for (s, writers) in per_session {
                f(*s, 0, writers);
            }
        }
    }
    fn writers_before(
        &self,
        _: u32,
        writes: &[DenseId],
        bound: u32,
        _: Option<u32>,
    ) -> (usize, u32) {
        // Slab slots are reused, so ids carry no order: search positions
        // from scratch.
        let mut probes = 0;
        let count = writes.partition_point(|&w| {
            probes += 1;
            self.meta(w).committed_pos < bound
        });
        (count, probes)
    }
}
