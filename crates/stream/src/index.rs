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

use std::collections::HashMap;

use awdit_core::incremental::{CommitView, TxnOp};
use awdit_core::{DenseId, ExtRead, Key, TxnId};

/// Per-transaction derived data, mirroring the batch index's layout.
#[derive(Clone, Debug)]
pub struct TxnMeta {
    /// User-facing transaction id.
    pub txn_id: TxnId,
    /// Dense session index.
    pub session: u32,
    /// Position within the session, counting committed transactions.
    pub committed_pos: u32,
    /// Sorted, deduplicated keys written.
    pub keys_written: Vec<Key>,
    /// Sorted, deduplicated keys read externally (committed writers).
    pub keys_read: Vec<Key>,
    /// Writer of the `po`-first external read per key (parallel to
    /// `keys_read`).
    pub first_writer_per_key: Vec<DenseId>,
    /// External reads in program order.
    pub ext_reads: Vec<ExtRead>,
    /// Distinct `(key, writer)` pairs, sorted.
    pub read_pairs: Vec<(Key, DenseId)>,
    /// The transaction's operations in program order (its writes leave
    /// the value map at pruning).
    pub ops: Vec<TxnOp>,
    /// The `po`-last write position of each key written, sorted by key.
    pub final_writes: Vec<(Key, u32)>,
    /// Staged readers currently holding a resolved reference to this
    /// transaction (blocks pruning).
    pub pending_readers: u32,
}

/// Slab-backed streaming index over the live committed transactions.
#[derive(Debug, Default)]
pub struct StreamIndex {
    slots: Vec<Option<TxnMeta>>,
    free: Vec<u32>,
    live: usize,
    num_sessions: usize,
    /// Per key: sessions writing it (ascending), each with its live
    /// committed writers in session order — the `Writes_s'[x]` arrays.
    writes_by_key: HashMap<Key, Vec<(u32, Vec<DenseId>)>>,
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
    /// write map's allocation capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.num_sessions = 0;
        self.writes_by_key.clear();
    }

    /// Tracks that `k` sessions exist.
    pub fn ensure_sessions(&mut self, k: usize) {
        self.num_sessions = self.num_sessions.max(k);
    }

    /// Inserts a processed transaction, returning its slot.
    pub fn insert(&mut self, meta: TxnMeta) -> DenseId {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(meta);
                s
            }
            None => {
                self.slots.push(Some(meta));
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        let m = self.slots[slot as usize].as_ref().unwrap();
        let (session, pos, keys) = (m.session, m.committed_pos, m.keys_written.clone());
        for key in keys {
            let per_session = self.writes_by_key.entry(key).or_default();
            let i = match per_session.binary_search_by_key(&session, |&(s, _)| s) {
                Ok(i) => i,
                Err(i) => {
                    per_session.insert(i, (session, Vec::new()));
                    i
                }
            };
            // Transactions of one session are processed in session order, so
            // pushing keeps the list sorted by committed position.
            debug_assert!(per_session[i]
                .1
                .last()
                .is_none_or(|&w| self.slots[w as usize].as_ref().unwrap().committed_pos < pos));
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
        self.slots[d as usize].as_ref().expect("live slot")
    }

    /// Mutable metadata of a live slot.
    pub fn meta_mut(&mut self, d: DenseId) -> &mut TxnMeta {
        self.slots[d as usize].as_mut().expect("live slot")
    }

    /// Iterates over the live slots.
    pub fn live_slots(&self) -> impl Iterator<Item = (DenseId, &TxnMeta)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (i as u32, m)))
    }

    /// The live writers of `key` in session `s`, in session order.
    pub fn session_key_writers(&self, s: u32, key: Key) -> &[DenseId] {
        self.writes_by_key
            .get(&key)
            .and_then(|per_session| {
                per_session
                    .binary_search_by_key(&s, |&(sess, _)| sess)
                    .ok()
                    .map(|i| per_session[i].1.as_slice())
            })
            .unwrap_or(&[])
    }

    /// Retires a slot: removes it from the write lists and frees it for
    /// reuse. Returns the retired metadata (for value-map cleanup).
    pub fn retire(&mut self, d: DenseId) -> TxnMeta {
        let meta = self.slots[d as usize].take().expect("live slot");
        self.live -= 1;
        for &key in &meta.keys_written {
            if let Some(per_session) = self.writes_by_key.get_mut(&key) {
                if let Ok(i) = per_session.binary_search_by_key(&meta.session, |&(s, _)| s) {
                    per_session[i].1.retain(|&w| w != d);
                    if per_session[i].1.is_empty() {
                        per_session.remove(i);
                    }
                }
                if per_session.is_empty() {
                    self.writes_by_key.remove(&key);
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
        &self.meta(d).keys_read
    }
    fn first_writers(&self, d: DenseId) -> &[DenseId] {
        &self.meta(d).first_writer_per_key
    }
    fn writes_key(&self, d: DenseId, key: Key) -> bool {
        self.meta(d).keys_written.binary_search(&key).is_ok()
    }
    fn read_pairs(&self, d: DenseId) -> &[(Key, DenseId)] {
        &self.meta(d).read_pairs
    }
    fn for_each_key_writes(&self, key: Key, mut f: impl FnMut(u32, u32, &[DenseId])) {
        if let Some(per_session) = self.writes_by_key.get(&key) {
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
