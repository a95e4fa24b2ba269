//! The binary columnar history format (`.awb`).
//!
//! An `.awb` file is the CSR [`History`] serialized almost verbatim: the
//! offset tables and op columns the checker works on, little-endian, in
//! length-prefixed sections, so loading is a checksum sweep, a bounds
//! check, and a column copy — no tokenizing, no key interning, no
//! write–read resolution. On unix hosts the loader `mmap`s the file
//! (behind a tiny std-only wrapper) so the page cache is the only copy
//! until the columns land in the recycled arena.
//!
//! # Layout (version 2)
//!
//! ```text
//! magic      8  bytes   "AWBHIST\0"
//! version    u32 LE     2
//! sections   u32 LE     5
//! 5 × section:
//!   tag      u32 LE     1..=5, strictly in order
//!   length   u64 LE     payload bytes
//!   payload  ...        see below
//! checksum   u64 LE     the word-lane sum (below) of every preceding byte
//! ```
//!
//! | tag | section | payload |
//! |---|---|---|
//! | 1 | session offsets | `u32` per entry (`k + 1` entries, or none) |
//! | 2 | txn op offsets | `u32` per entry (`t + 1` entries, or none) |
//! | 3 | ops | 28-byte records (below) |
//! | 4 | commit flags | 1 byte per transaction (`0`/`1`) |
//! | 5 | key names | `u64` per interned key |
//!
//! An op record is `kind: u32, key: u32, value: u64, a: u32, b: u32,
//! c: u32` where `kind` 0 is a write, 1 a read from `(session a, txn b,
//! op c)`, 2 an internal read from own op `c`, and 3 a thin-air read;
//! unused fields are written as zero.
//!
//! # Checksum
//!
//! The body is read as consecutive 32-byte blocks of four little-endian
//! `u64` words. Lane `i` starts at `LANE_SEEDS[i]` and folds word `i` of
//! every block as `lane = (lane ^ word) * MUL` (wrapping, `MUL` odd).
//! The sum then starts at `SUM_SEED` and folds, with the same step, the
//! four lanes in order, each byte of the final partial block (fewer than
//! 32), and the body's length in bytes. Every step is a bijection of the
//! running value, so a change confined to one word or one tail byte —
//! in particular any one-byte change — always changes the sum. The
//! lanes are independent, so the sweep runs four multiplies in parallel
//! where byte-wise FNV-1a (version 1) ran one per byte.
//!
//! # Versioning policy
//!
//! The magic never changes. Any layout change bumps `version`; readers
//! reject versions they do not know ([`AwbError::UnsupportedVersion`])
//! rather than guessing. Version 2 changed only the checksum; version 1
//! files are rejected, so regenerate them with `awdit convert --to awb`.
//! Version 2 readers require exactly the five sections above, in tag
//! order, with nothing after the checksum.
//!
//! # Trust model
//!
//! The checksum catches accidental corruption; structural validation
//! ([`History::from_columns`]) guarantees a decoded history can never
//! panic the accessors, over-read, or index out of bounds, even for an
//! adversarial file with a freshly computed checksum. Cross-op semantic
//! invariants (the unique-value write assumption) are trusted to the
//! encoder, exactly as they are trusted to a text file's producer.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use awdit_core::{
    replay_history, ColumnsError, History, HistoryColumns, HistorySink, Key, Op, ReadSource, TxnId,
    Value,
};

/// The 8-byte magic opening every `.awb` file.
pub const AWB_MAGIC: [u8; 8] = *b"AWBHIST\0";
/// Current format version.
pub const AWB_VERSION: u32 = 2;
/// Conventional file extension.
pub const AWB_EXTENSION: &str = "awb";

const SECTION_COUNT: u32 = 5;
const OP_RECORD_BYTES: usize = 28;
const HEADER_BYTES: usize = 8 + 4 + 4;
const CHECKSUM_BYTES: usize = 8;

/// The checksum's odd multiplier (the 64-bit golden ratio).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Starting values of the checksum's four lanes (hex digits of pi).
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// Starting value of the final fold (the FNV-1a 64 offset basis).
const SUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Bytes per checksum block: one `u64` word per lane.
const BLOCK_BYTES: usize = 32;

/// Errors reading an `.awb` file.
#[derive(Debug)]
pub enum AwbError {
    /// The underlying file could not be read.
    Io(std::io::Error),
    /// The input ends before the declared structure does.
    Truncated,
    /// The file does not start with [`AWB_MAGIC`].
    BadMagic,
    /// The file declares a version this reader does not understand.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// The section structure is malformed (wrong tags, lengths, or
    /// trailing bytes).
    Malformed(String),
    /// The decoded columns violate a [`History`] structural invariant.
    Invalid(ColumnsError),
}

impl std::fmt::Display for AwbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AwbError::Io(e) => write!(f, "cannot read: {e}"),
            AwbError::Truncated => write!(f, "truncated .awb file"),
            AwbError::BadMagic => write!(f, "not an .awb file (bad magic)"),
            AwbError::UnsupportedVersion(v) => write!(f, "unsupported .awb version {v}"),
            AwbError::ChecksumMismatch => write!(f, "checksum mismatch (corrupt .awb file)"),
            AwbError::Malformed(m) => write!(f, "malformed .awb file: {m}"),
            AwbError::Invalid(e) => write!(f, "invalid history columns: {e}"),
        }
    }
}

impl std::error::Error for AwbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AwbError::Io(e) => Some(e),
            AwbError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AwbError {
    fn from(e: std::io::Error) -> Self {
        AwbError::Io(e)
    }
}

impl From<ColumnsError> for AwbError {
    fn from(e: ColumnsError) -> Self {
        AwbError::Invalid(e)
    }
}

/// Returns `true` if `prefix` begins with the `.awb` magic (the sniffing
/// primitive used by [`detect`](crate::detect)).
pub fn sniff_awb(prefix: &[u8]) -> bool {
    prefix.len() >= AWB_MAGIC.len() && prefix[..AWB_MAGIC.len()] == AWB_MAGIC
}

/// The running `.awb` checksum (see the module docs). Bytes may arrive in
/// any chunking: a partial block waits in `pending` until it fills, so
/// the sum depends only on the byte sequence.
#[derive(Clone)]
struct Checksum {
    lanes: [u64; 4],
    pending: [u8; BLOCK_BYTES],
    pending_len: usize,
    len: u64,
}

impl Checksum {
    fn new() -> Self {
        Checksum {
            lanes: LANE_SEEDS,
            pending: [0; BLOCK_BYTES],
            pending_len: 0,
            len: 0,
        }
    }

    /// The sum of `bytes` in one call.
    fn of(bytes: &[u8]) -> u64 {
        let mut sum = Checksum::new();
        sum.update(bytes);
        sum.finish()
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (BLOCK_BYTES - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < BLOCK_BYTES {
                return;
            }
            let block = self.pending;
            self.fold_block(&block);
            self.pending_len = 0;
        }
        let mut blocks = bytes.chunks_exact(BLOCK_BYTES);
        for block in &mut blocks {
            self.fold_block(block);
        }
        let tail = blocks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    #[inline]
    fn fold_block(&mut self, block: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, le_u64(word));
        }
    }

    fn finish(&self) -> u64 {
        let mut sum = SUM_SEED;
        for &lane in &self.lanes {
            sum = step(sum, lane);
        }
        for &b in &self.pending[..self.pending_len] {
            sum = step(sum, u64::from(b));
        }
        step(sum, self.len)
    }
}

/// One xor-then-multiply step: a bijection of `acc` for every `word`.
#[inline]
fn step(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(MUL)
}

/// A writer shim that folds every byte into the running [`Checksum`] on
/// its way through, so encoding streams in one pass with the checksum
/// ready at the end.
struct HashingWriter<'a, W: ?Sized> {
    inner: &'a mut W,
    sum: Checksum,
}

impl<W: Write + ?Sized> HashingWriter<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.sum.update(bytes);
        self.inner.write_all(bytes)
    }
}

/// Streams `history` out as an `.awb` file (wrap files in a `BufWriter`).
///
/// The encoding is deterministic: equal histories produce byte-identical
/// files.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_awb_to<W: Write + ?Sized>(history: &History, out: &mut W) -> std::io::Result<()> {
    let mut w = HashingWriter {
        inner: out,
        sum: Checksum::new(),
    };
    w.put(&AWB_MAGIC)?;
    w.put(&AWB_VERSION.to_le_bytes())?;
    w.put(&SECTION_COUNT.to_le_bytes())?;

    let session_offsets = history.session_offsets();
    w.put(&1u32.to_le_bytes())?;
    w.put(&(session_offsets.len() as u64 * 4).to_le_bytes())?;
    for &v in session_offsets {
        w.put(&v.to_le_bytes())?;
    }

    let txn_offsets = history.txn_op_offsets();
    w.put(&2u32.to_le_bytes())?;
    w.put(&(txn_offsets.len() as u64 * 4).to_le_bytes())?;
    for &v in txn_offsets {
        w.put(&v.to_le_bytes())?;
    }

    let ops = history.flat_ops();
    w.put(&3u32.to_le_bytes())?;
    w.put(&(ops.len() as u64 * OP_RECORD_BYTES as u64).to_le_bytes())?;
    for op in ops {
        w.put(&encode_op(op))?;
    }

    let committed = history.committed_flags();
    w.put(&4u32.to_le_bytes())?;
    w.put(&(committed.len() as u64).to_le_bytes())?;
    for &c in committed {
        w.put(&[u8::from(c)])?;
    }

    let key_names = history.key_names();
    w.put(&5u32.to_le_bytes())?;
    w.put(&(key_names.len() as u64 * 8).to_le_bytes())?;
    for &k in key_names {
        w.put(&k.to_le_bytes())?;
    }

    let checksum = w.sum.finish();
    w.inner.write_all(&checksum.to_le_bytes())
}

/// Serializes `history` as `.awb` bytes.
pub fn write_awb(history: &History) -> Vec<u8> {
    let mut out = Vec::new();
    write_awb_to(history, &mut out).expect("writing to a Vec cannot fail");
    out
}

fn encode_op(op: &Op) -> [u8; OP_RECORD_BYTES] {
    let (kind, a, b, c) = match *op {
        Op::Write { .. } => (0u32, 0u32, 0u32, 0u32),
        Op::Read { source, .. } => match source {
            ReadSource::External { txn, op } => (1, txn.session, txn.index, op),
            ReadSource::Internal { op } => (2, 0, 0, op),
            ReadSource::ThinAir => (3, 0, 0, 0),
        },
    };
    let mut rec = [0u8; OP_RECORD_BYTES];
    rec[0..4].copy_from_slice(&kind.to_le_bytes());
    rec[4..8].copy_from_slice(&op.key().0.to_le_bytes());
    rec[8..16].copy_from_slice(&op.value().0.to_le_bytes());
    rec[16..20].copy_from_slice(&a.to_le_bytes());
    rec[20..24].copy_from_slice(&b.to_le_bytes());
    rec[24..28].copy_from_slice(&c.to_le_bytes());
    rec
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().unwrap())
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().unwrap())
}

/// Decodes `.awb` bytes into a caller-owned history arena, recycling its
/// column buffers (capacity kept across loads).
///
/// # Errors
///
/// Returns an [`AwbError`] naming the failure; `arena` is left empty then.
pub fn decode_awb_into(bytes: &[u8], arena: &mut History) -> Result<(), AwbError> {
    let mut cols = arena.recycle_columns();

    if bytes.len() < AWB_MAGIC.len() {
        return Err(if AWB_MAGIC.starts_with(bytes) {
            AwbError::Truncated
        } else {
            AwbError::BadMagic
        });
    }
    if bytes[..AWB_MAGIC.len()] != AWB_MAGIC {
        return Err(AwbError::BadMagic);
    }
    if bytes.len() < HEADER_BYTES {
        return Err(AwbError::Truncated);
    }
    let version = le_u32(&bytes[8..12]);
    if version != AWB_VERSION {
        return Err(AwbError::UnsupportedVersion(version));
    }
    if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES {
        return Err(AwbError::Truncated);
    }
    let body_end = bytes.len() - CHECKSUM_BYTES;
    if Checksum::of(&bytes[..body_end]) != le_u64(&bytes[body_end..]) {
        return Err(AwbError::ChecksumMismatch);
    }

    let section_count = le_u32(&bytes[12..16]);
    if section_count != SECTION_COUNT {
        return Err(AwbError::Malformed(format!(
            "expected {SECTION_COUNT} sections, found {section_count}"
        )));
    }

    let mut cursor = HEADER_BYTES;
    for expected_tag in 1..=SECTION_COUNT {
        if body_end - cursor < 12 {
            return Err(AwbError::Truncated);
        }
        let tag = le_u32(&bytes[cursor..cursor + 4]);
        if tag != expected_tag {
            return Err(AwbError::Malformed(format!(
                "expected section {expected_tag}, found {tag}"
            )));
        }
        let len = le_u64(&bytes[cursor + 4..cursor + 12]);
        cursor += 12;
        if len > (body_end - cursor) as u64 {
            return Err(AwbError::Truncated);
        }
        let payload = &bytes[cursor..cursor + len as usize];
        cursor += len as usize;
        decode_section(tag, payload, &mut cols)?;
    }
    if cursor != body_end {
        return Err(AwbError::Malformed(format!(
            "{} trailing bytes after the last section",
            body_end - cursor
        )));
    }

    *arena = History::from_columns(cols)?;
    Ok(())
}

fn decode_section(tag: u32, payload: &[u8], cols: &mut HistoryColumns) -> Result<(), AwbError> {
    let exact = |width: usize| -> Result<(), AwbError> {
        if !payload.len().is_multiple_of(width) {
            return Err(AwbError::Malformed(format!(
                "section {tag} length {} is not a multiple of {width}",
                payload.len()
            )));
        }
        Ok(())
    };
    match tag {
        1 => {
            exact(4)?;
            cols.session_offsets
                .extend(payload.chunks_exact(4).map(le_u32));
        }
        2 => {
            exact(4)?;
            cols.txn_offsets.extend(payload.chunks_exact(4).map(le_u32));
        }
        3 => {
            exact(OP_RECORD_BYTES)?;
            cols.ops.reserve(payload.len() / OP_RECORD_BYTES);
            for rec in payload.chunks_exact(OP_RECORD_BYTES) {
                cols.ops.push(decode_op(rec)?);
            }
        }
        4 => {
            cols.committed.reserve(payload.len());
            for &b in payload {
                match b {
                    0 => cols.committed.push(false),
                    1 => cols.committed.push(true),
                    other => {
                        return Err(AwbError::Malformed(format!(
                            "commit flag byte {other} is neither 0 nor 1"
                        )))
                    }
                }
            }
        }
        5 => {
            exact(8)?;
            cols.key_names.extend(payload.chunks_exact(8).map(le_u64));
        }
        _ => unreachable!("tags are matched against the expected sequence"),
    }
    Ok(())
}

fn decode_op(rec: &[u8]) -> Result<Op, AwbError> {
    let kind = le_u32(&rec[0..4]);
    let key = Key(le_u32(&rec[4..8]));
    let value = Value(le_u64(&rec[8..16]));
    let (a, b, c) = (
        le_u32(&rec[16..20]),
        le_u32(&rec[20..24]),
        le_u32(&rec[24..28]),
    );
    Ok(match kind {
        0 => Op::Write { key, value },
        1 => Op::Read {
            key,
            value,
            source: ReadSource::External {
                txn: TxnId::new(a, b),
                op: c,
            },
        },
        2 => Op::Read {
            key,
            value,
            source: ReadSource::Internal { op: c },
        },
        3 => Op::Read {
            key,
            value,
            source: ReadSource::ThinAir,
        },
        other => return Err(AwbError::Malformed(format!("unknown op kind {other}"))),
    })
}

/// Decodes `.awb` bytes into any [`HistorySink`]. Sinks that expose a
/// resolved arena ([`HistorySink::load_resolved`]) receive the columns
/// directly; others get the history replayed as events.
///
/// # Errors
///
/// As [`decode_awb_into`].
pub fn decode_awb_into_sink<S: HistorySink + ?Sized>(
    bytes: &[u8],
    sink: &mut S,
) -> Result<(), AwbError> {
    if let Some(arena) = sink.load_resolved() {
        decode_awb_into(bytes, arena)
    } else {
        let mut h = History::default();
        decode_awb_into(bytes, &mut h)?;
        replay_history(&h, sink);
        Ok(())
    }
}

/// Loads an `.awb` file into `sink`, mmap-ing it where the platform
/// supports that and bulk-reading otherwise.
///
/// # Errors
///
/// As [`decode_awb_into`], plus I/O errors opening or reading the file.
pub fn read_awb_path_into<S: HistorySink + ?Sized>(
    path: &Path,
    sink: &mut S,
) -> Result<(), AwbError> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    #[cfg(any(target_os = "linux", target_os = "macos", target_os = "android"))]
    if len > 0 && usize::try_from(len).is_ok() {
        if let Ok(map) = mmap::Mapping::of(&file, len as usize) {
            return decode_awb_into_sink(map.bytes(), sink);
        }
    }
    let mut buf = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
    file.read_to_end(&mut buf)?;
    decode_awb_into_sink(&buf, sink)
}

/// Parses `.awb` bytes into a fresh history.
///
/// # Errors
///
/// As [`decode_awb_into`].
pub fn parse_awb(bytes: &[u8]) -> Result<History, AwbError> {
    let mut h = History::default();
    decode_awb_into(bytes, &mut h)?;
    Ok(h)
}

/// A read-only private file mapping — the whole `unsafe` surface of the
/// workspace, kept to two syscalls behind a safe slice view. The fallback
/// bulk-read path covers every platform this module is not compiled for.
#[cfg(any(target_os = "linux", target_os = "macos", target_os = "android"))]
#[allow(unsafe_code)]
mod mmap {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    /// `MADV_WILLNEED` — same value on Linux, macOS, and Android.
    const MADV_WILLNEED: c_int = 3;
    /// `POSIX_FADV_SEQUENTIAL` (Linux/Android; macOS has no
    /// `posix_fadvise`).
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const POSIX_FADV_SEQUENTIAL: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        #[cfg(any(target_os = "linux", target_os = "android"))]
        fn posix_fadvise(fd: c_int, offset: i64, len: i64, advice: c_int) -> c_int;
    }

    pub(crate) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    impl Mapping {
        /// Maps the first `len` bytes of `file` read-only. `len` must be
        /// positive and no larger than the file (a shrunken file would
        /// fault on access).
        pub(crate) fn of(file: &File, len: usize) -> io::Result<Mapping> {
            assert!(len > 0, "cannot map an empty file");
            // SAFETY: a fresh private read-only mapping of a file we hold
            // open; the kernel picks the address. The result is checked
            // against MAP_FAILED before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            // Readahead hints: the decoder walks the file front to back
            // exactly once, so tell the kernel to start faulting pages in
            // now rather than on first touch. Purely advisory — a failure
            // changes nothing about correctness, so both results are
            // ignored.
            // SAFETY: `ptr..ptr+len` is the live mapping created above;
            // madvise only tunes paging for that region.
            unsafe {
                let _ = madvise(ptr, len, MADV_WILLNEED);
            }
            #[cfg(any(target_os = "linux", target_os = "android"))]
            // SAFETY: plain fd-based advisory syscall on the open file.
            unsafe {
                let _ = posix_fadvise(file.as_raw_fd(), 0, len as i64, POSIX_FADV_SEQUENTIAL);
            }
            Ok(Mapping { ptr, len })
        }

        pub(crate) fn bytes(&self) -> &[u8] {
            // SAFETY: the mapping is live for `self`'s lifetime, `len`
            // bytes long, and read-only (MAP_PRIVATE: no writer can change
            // our view's identity requirements — the underlying pages are
            // ours on first touch).
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region returned by mmap.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_core::HistoryBuilder;

    fn sample() -> History {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        b.begin(s0);
        b.write(s0, 100, 2);
        b.write(s0, 200, 4);
        b.commit(s0);
        b.begin(s1);
        b.read(s1, 100, 2);
        b.read(s1, 200, 4);
        b.write(s1, 100, 9);
        b.read(s1, 100, 9);
        b.read(s1, 300, 77); // thin air
        b.abort(s1);
        b.finish().unwrap()
    }

    #[test]
    fn round_trips_bytes_and_history() {
        let h = sample();
        let bytes = write_awb(&h);
        assert!(sniff_awb(&bytes));
        let h2 = parse_awb(&bytes).unwrap();
        assert_eq!(h2, h);
        // Deterministic encode: re-encoding is byte-identical.
        assert_eq!(write_awb(&h2), bytes);
    }

    #[test]
    fn empty_history_round_trips() {
        let h = History::default();
        let bytes = write_awb(&h);
        assert_eq!(parse_awb(&bytes).unwrap(), h);
    }

    #[test]
    fn decode_recycles_the_arena() {
        let h = sample();
        let bytes = write_awb(&h);
        let mut arena = History::default();
        decode_awb_into(&bytes, &mut arena).unwrap();
        let first_bytes = arena.heap_bytes();
        decode_awb_into(&bytes, &mut arena).unwrap();
        assert_eq!(arena, h);
        assert_eq!(arena.heap_bytes(), first_bytes, "second load must not grow");
    }

    #[test]
    fn file_round_trip_via_mmap_path() {
        let h = sample();
        let dir = std::env::temp_dir().join("awdit_binary_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.awb");
        std::fs::write(&path, write_awb(&h)).unwrap();
        let mut b = HistoryBuilder::new();
        read_awb_path_into(&path, &mut b).unwrap();
        assert_eq!(b.finish().unwrap(), h);
        std::fs::remove_file(&path).unwrap();
    }

    /// The hinted mmap load and the plain bulk-read decode must produce
    /// byte-identical histories — madvise/fadvise are advisory only.
    #[test]
    fn mmap_load_matches_bulk_read() {
        let h = sample();
        let bytes = write_awb(&h);
        let dir = std::env::temp_dir().join("awdit_binary_hint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hinted.awb");
        std::fs::write(&path, &bytes).unwrap();

        let mut via_path = HistoryBuilder::new();
        read_awb_path_into(&path, &mut via_path).unwrap();
        let mut via_bytes = HistoryBuilder::new();
        decode_awb_into_sink(&bytes, &mut via_bytes).unwrap();

        let via_path = via_path.finish().unwrap();
        let via_bytes = via_bytes.finish().unwrap();
        assert_eq!(via_path, via_bytes);
        assert_eq!(write_awb(&via_path), write_awb(&via_bytes));
        std::fs::remove_file(&path).unwrap();
    }

    /// The sum depends on the bytes only, not on how they are chunked:
    /// every split of a 200-byte body into pieces of 1 to 70 bytes gives
    /// the one-call sum.
    #[test]
    fn checksum_ignores_chunking() {
        let body: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in [0, 1, 31, 32, 33, 64, 95, 200] {
            let whole = Checksum::of(&body[..len]);
            for piece in 1..=70 {
                let mut sum = Checksum::new();
                for chunk in body[..len].chunks(piece) {
                    sum.update(chunk);
                }
                assert_eq!(sum.finish(), whole, "len {len}, pieces of {piece}");
            }
        }
        // The length is folded in: a zero-filled body differs from a
        // shorter one.
        assert_ne!(Checksum::of(&[0; 32]), Checksum::of(&[0; 31]));
        assert_ne!(Checksum::of(&[]), Checksum::of(&[0]));
    }

    /// A version 1 file — byte-wise FNV-1a — is refused by its version
    /// field before any checksum is computed.
    #[test]
    fn version_1_is_unsupported() {
        let mut v1 = write_awb(&sample());
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            parse_awb(&v1),
            Err(AwbError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn corruption_is_rejected_cleanly() {
        let h = sample();
        let good = write_awb(&h);

        assert!(matches!(parse_awb(b""), Err(AwbError::Truncated)));
        assert!(matches!(parse_awb(b"AWBH"), Err(AwbError::Truncated)));
        assert!(matches!(parse_awb(b"NOTHIST\0"), Err(AwbError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 9; // version
        assert!(matches!(
            parse_awb(&bad),
            Err(AwbError::UnsupportedVersion(9))
        ));

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert!(matches!(parse_awb(&bad), Err(AwbError::ChecksumMismatch)));

        // Truncation at every boundary stays a clean error.
        for cut in [10, HEADER_BYTES, HEADER_BYTES + 5, good.len() - 1] {
            assert!(parse_awb(&good[..cut]).is_err(), "cut at {cut}");
        }
    }
}
