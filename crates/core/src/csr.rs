//! Flat, cache-friendly columnar storage (CSR — compressed sparse rows).
//!
//! The hot indexes of this crate group variable-length per-row data (keys
//! written per transaction, writers per key, successors per graph node).
//! Storing each row as its own `Vec` scatters the rows across the heap and
//! costs a pointer chase — plus allocator metadata — per row. A [`Csr`]
//! packs all rows into **one** values buffer with an offsets table, so
//! iterating rows in order is a linear scan and random row access is two
//! array reads.
//!
//! Two builders cover the construction patterns in this crate:
//!
//! * [`CsrBuilder`] — rows are produced **in row order** (the
//!   [`HistoryIndex`](crate::HistoryIndex) per-transaction sweep): append
//!   values, close the row, repeat.
//! * [`Csr::from_pairs`] — rows are produced **out of order** as
//!   `(row, value)` pairs (the by-key write lists): counting sort into
//!   place, preserving the relative order of values within a row.
//!
//! The module also hosts [`ReadCols`], the shared derivation of the
//! per-transaction read columns (`keys_read`, first writer per key, distinct
//! `(key, writer)` pairs) from the program-ordered external reads — used by
//! both the batch [`HistoryIndex`](crate::HistoryIndex) and the streaming
//! slab index in `awdit-stream`, so the two sides cannot drift.

use crate::index::{DenseId, ExtRead};
use crate::types::Key;

/// A compressed-sparse-rows container: `rows` variable-length rows packed
/// into one values buffer.
///
/// # Examples
///
/// ```
/// use awdit_core::csr::CsrBuilder;
///
/// let mut b = CsrBuilder::new();
/// b.push_row([1u32, 2, 3]);
/// b.push_row([]);
/// b.push_row([9]);
/// let csr = b.finish();
/// assert_eq!(csr.num_rows(), 3);
/// assert_eq!(csr.row(0), &[1, 2, 3]);
/// assert_eq!(csr.row(1), &[] as &[u32]);
/// assert_eq!(csr.row(2), &[9]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Csr<T> {
    /// `offsets[r]..offsets[r + 1]` is row `r`'s range in `values`.
    /// Either `rows + 1` entries starting at 0, or empty — the
    /// no-allocation form of the zero-row container, so
    /// [`Csr::new`]/`default` (and `mem::take` of a CSR-backed arena)
    /// touch the heap not at all.
    offsets: Vec<u32>,
    values: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Csr<T> {
    /// An empty container with zero rows (performs no heap allocation).
    pub fn new() -> Self {
        Csr {
            offsets: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of values across all rows.
    #[inline]
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// The values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.values[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// The half-open value range of row `r`.
    #[inline]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    /// The whole values buffer (rows concatenated in order).
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The raw offsets table: either `rows + 1` entries starting at 0, or
    /// empty (the canonical zero-row form). This is the serialization view
    /// used by the binary on-disk history format.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Decomposes into the raw `(offsets, values)` buffers.
    pub(crate) fn into_raw_parts(self) -> (Vec<u32>, Vec<T>) {
        (self.offsets, self.values)
    }

    /// Reassembles from raw parts. The caller must have validated the CSR
    /// invariants (monotonic offsets starting at 0 and ending at
    /// `values.len()`, or an empty offsets table with no values).
    pub(crate) fn from_raw_parts(offsets: Vec<u32>, values: Vec<T>) -> Self {
        debug_assert!(offsets.is_empty() || offsets[0] == 0);
        debug_assert!(offsets.is_empty() || *offsets.last().unwrap() as usize == values.len());
        debug_assert!(!offsets.is_empty() || values.is_empty());
        Csr { offsets, values }
    }

    /// Iterates `(row, row values)` in row order.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[T])> {
        (0..self.num_rows()).map(move |r| (r, self.row(r)))
    }

    /// Recycles the container into an empty [`CsrBuilder`] that keeps both
    /// underlying buffers' capacity — the arena-reuse path of
    /// [`HistoryIndex::rebuild`](crate::HistoryIndex::rebuild), where a
    /// second build of a same-shape structure must not reallocate.
    pub fn into_builder(mut self) -> CsrBuilder<T> {
        self.offsets.clear();
        self.offsets.push(0);
        self.values.clear();
        CsrBuilder {
            offsets: self.offsets,
            values: self.values,
        }
    }

    /// Heap footprint in bytes (capacities, not lengths) — the quantity
    /// tracked by the engine's arena-growth accounting.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Clone + Default> Csr<T> {
    /// Builds a CSR with `rows` rows from unordered `(row, value)` pairs,
    /// preserving the relative order of the pairs within each row
    /// (counting sort; `O(pairs + rows)`).
    pub fn from_pairs(rows: usize, pairs: &[(u32, T)]) -> Self {
        let mut offsets = vec![0u32; rows + 1];
        for &(r, _) in pairs {
            offsets[r as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut values = vec![T::default(); pairs.len()];
        for (r, v) in pairs {
            let c = &mut cursor[*r as usize];
            values[*c as usize] = v.clone();
            *c += 1;
        }
        Csr { offsets, values }
    }
}

/// Builds a [`Csr`] whose rows are produced in row order.
#[derive(Clone, Debug)]
pub struct CsrBuilder<T> {
    offsets: Vec<u32>,
    values: Vec<T>,
}

impl<T> Default for CsrBuilder<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CsrBuilder<T> {
    /// An empty builder.
    pub fn new() -> Self {
        CsrBuilder {
            offsets: vec![0],
            values: Vec::new(),
        }
    }

    /// Appends one value to the row currently being built.
    #[inline]
    pub fn push_value(&mut self, v: T) {
        self.values.push(v);
    }

    /// Closes the current row (possibly empty).
    #[inline]
    pub fn close_row(&mut self) {
        self.offsets.push(self.values.len() as u32);
    }

    /// Appends a whole row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.values.extend(row);
        self.close_row();
    }

    /// Finishes into the immutable CSR form. A zero-row build yields the
    /// canonical empty container (equal to [`Csr::new`], capacity kept).
    pub fn finish(mut self) -> Csr<T> {
        if self.offsets.len() == 1 {
            self.offsets.clear();
        }
        Csr {
            offsets: self.offsets,
            values: self.values,
        }
    }
}

/// The derived read columns of one transaction, shared between the batch
/// and streaming indexes: sorted distinct keys read, the writer of the
/// `po`-first read per key (parallel to `keys_read`), and all distinct
/// `(key, writer)` pairs.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ReadCols {
    /// Sorted, deduplicated keys read externally.
    pub keys_read: Vec<Key>,
    /// Writer of the `po`-first external read per key (parallel array).
    pub first_writers: Vec<DenseId>,
    /// All distinct `(key, writer)` pairs, sorted.
    pub read_pairs: Vec<(Key, DenseId)>,
}

impl ReadCols {
    /// Derives the columns from the program-ordered external reads.
    pub fn from_ext_reads(ext_reads: &[ExtRead]) -> Self {
        let mut cols = ReadCols::default();
        cols.fill(ext_reads);
        cols
    }

    /// Re-derives the columns from `ext_reads` in place, reusing the three
    /// vectors' capacity: once they have held a transaction's columns, a
    /// transaction with no more reads refills them without allocating.
    pub fn fill(&mut self, ext_reads: &[ExtRead]) {
        let pairs = &mut self.read_pairs;
        pairs.clear();
        pairs.extend(ext_reads.iter().map(|r| (r.key, r.writer)));
        // Stable sort keeps po order within equal keys, so the first entry
        // per key is the po-first read of that key.
        pairs.sort_by_key(|&(k, _)| k);
        self.keys_read.clear();
        self.first_writers.clear();
        for &(k, w) in pairs.iter() {
            if self.keys_read.last() != Some(&k) {
                self.keys_read.push(k);
                self.first_writers.push(w);
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_rows() {
        let mut b = CsrBuilder::new();
        b.push_row(vec![3u64, 1, 4]);
        b.push_row(vec![]);
        b.push_value(1);
        b.push_value(5);
        b.close_row();
        let c = b.finish();
        assert_eq!(c.num_rows(), 3);
        assert_eq!(c.num_values(), 5);
        assert_eq!(c.row(0), &[3, 1, 4]);
        assert!(c.row(1).is_empty());
        assert_eq!(c.row(2), &[1, 5]);
        let rows: Vec<_> = c.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], (2, &[1u64, 5][..]));
    }

    #[test]
    fn default_is_a_valid_empty_csr() {
        let c: Csr<u32> = Csr::default();
        assert_eq!(c.num_rows(), 0);
        assert_eq!(c.num_values(), 0);
        assert_eq!(c.iter_rows().count(), 0);
    }

    #[test]
    fn from_pairs_is_stable_within_rows() {
        // Row 1 receives 30 then 10: insertion order must be preserved.
        let pairs = [(1u32, 30u32), (0, 7), (1, 10), (2, 5)];
        let c = Csr::from_pairs(4, &pairs);
        assert_eq!(c.row(0), &[7]);
        assert_eq!(c.row(1), &[30, 10]);
        assert_eq!(c.row(2), &[5]);
        assert!(c.row(3).is_empty());
    }

    #[test]
    fn read_cols_pick_po_first_writer() {
        let reads = [
            ExtRead {
                key: Key(2),
                writer: 9,
                op: 0,
            },
            ExtRead {
                key: Key(1),
                writer: 4,
                op: 1,
            },
            ExtRead {
                key: Key(2),
                writer: 3,
                op: 2,
            },
        ];
        let cols = ReadCols::from_ext_reads(&reads);
        assert_eq!(cols.keys_read, vec![Key(1), Key(2)]);
        assert_eq!(cols.first_writers, vec![4, 9]);
        assert_eq!(cols.read_pairs, vec![(Key(1), 4), (Key(2), 3), (Key(2), 9)]);
    }

    /// The in-place fill equals the allocating derivation and a naive
    /// reference, also when the columns last held more reads.
    #[test]
    fn read_cols_fill_in_place_matches_a_fresh_derivation() {
        let mut x = 7u64;
        let mut rand = move |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        let mut cols = ReadCols::default();
        for round in 0..400 {
            // Lengths shrink and grow, so most fills reuse longer columns.
            let len = rand(if round % 2 == 0 { 40 } else { 6 }) as usize;
            let reads: Vec<ExtRead> = (0..len)
                .map(|op| ExtRead {
                    key: Key(rand(8) as u32),
                    writer: rand(5) as DenseId,
                    op: op as u32,
                })
                .collect();
            cols.fill(&reads);
            assert_eq!(cols, ReadCols::from_ext_reads(&reads), "round {round}");

            let mut first = std::collections::BTreeMap::new();
            let mut pairs = std::collections::BTreeSet::new();
            for r in &reads {
                first.entry(r.key).or_insert(r.writer);
                pairs.insert((r.key, r.writer));
            }
            assert_eq!(cols.keys_read, first.keys().copied().collect::<Vec<_>>());
            assert_eq!(
                cols.first_writers,
                first.values().copied().collect::<Vec<_>>()
            );
            assert_eq!(cols.read_pairs, pairs.into_iter().collect::<Vec<_>>());
        }
    }
}
