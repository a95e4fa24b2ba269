//! Integration suite for the `.awb` binary columnar history format:
//! round-trips against every text format, loader equivalence across the
//! mmap / bulk-read / streaming entry points, and corruption robustness
//! (truncation sweep, header tampering, and a byte-flip property — a
//! damaged file must produce a clean [`AwbError`], never a panic or an
//! over-read).

use std::io::BufReader;

use awdit::core::{HistorySink, SessionId};
use awdit::formats::{
    detect_bytes, detect_path, looks_binary, parse_awb, read_auto, read_awb_path_into, sniff_awb,
    write_awb, Detected, AWB_MAGIC, AWB_VERSION,
};
use awdit::{
    check, parse_history, replay_history, write_history, DirSource, Engine, FilesSource, Format,
    History, HistoryBuilder, HistorySource, IsolationLevel, Outcome, SourceError,
};
use proptest::prelude::*;

/// Checks every history of `source` at Causal through `engine`, pairing
/// each outcome with its source name.
fn check_named<S: HistorySource + ?Sized>(
    engine: &mut Engine,
    source: &mut S,
) -> Result<Vec<(String, Outcome)>, SourceError> {
    let mut named = Vec::new();
    engine.check_source(source, Some(IsolationLevel::Causal), |name, _, mut outs| {
        named.push((name, outs.remove(0)));
    })?;
    Ok(named)
}

/// Deterministic committed-only history every text format can represent:
/// non-empty transactions, reads observe really-written values.
fn sample_history(sessions: usize, txns: usize) -> History {
    let mut b = HistoryBuilder::new();
    let sids: Vec<_> = (0..sessions).map(|_| b.session()).collect();
    let mut committed: Vec<Vec<u64>> = vec![Vec::new(); 8];
    let mut next = 1u64;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..txns {
        let sid = sids[i % sessions];
        b.begin(sid);
        let mut pending: Vec<(u64, u64)> = Vec::new();
        for _ in 0..1 + (rand() % 4) {
            let key = rand() % 8;
            let unwritten =
                committed[key as usize].is_empty() && pending.iter().all(|(k, _)| *k != key);
            if unwritten || rand() % 2 == 0 {
                b.write(sid, key, next);
                pending.push((key, next));
                next += 1;
            } else if let Some(&(_, v)) = pending.iter().rev().find(|(k, _)| *k == key) {
                b.read(sid, key, v);
            } else {
                let vs = &committed[key as usize];
                b.read(sid, key, vs[rand() as usize % vs.len()]);
            }
        }
        b.commit(sid);
        for (k, v) in pending {
            committed[k as usize].push(v);
        }
    }
    b.finish().unwrap()
}

/// Session-major replay, matching the key-interning order of any format
/// reader.
fn canonical(h: &History) -> History {
    let mut b = HistoryBuilder::new();
    replay_history(h, &mut b);
    b.finish().unwrap()
}

fn fingerprint(o: &Outcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        o.verdict(),
        o.violations(),
        o.commit_order(),
        o.stats()
    )
}

/// Mirror of the codec's FNV-1a 64, for re-sealing deliberately corrupted
/// bodies so tampering reaches the structural validators.
fn refresh_checksum(bytes: &mut [u8]) {
    let body_end = bytes.len() - 8;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[..body_end] {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[body_end..].copy_from_slice(&hash.to_le_bytes());
}

#[test]
fn native_to_awb_to_native_is_byte_identical() {
    let h = canonical(&sample_history(5, 60));
    let text = write_history(&h, Format::Native);
    let reloaded = parse_awb(&write_awb(&h)).unwrap();
    assert_eq!(reloaded, h);
    assert_eq!(write_history(&reloaded, Format::Native), text);
    // The encoding itself is deterministic too.
    assert_eq!(write_awb(&reloaded), write_awb(&h));
}

#[test]
fn awb_load_matches_text_parse_for_every_format() {
    let h = canonical(&sample_history(4, 48));
    for format in Format::ALL {
        let parsed = parse_history(&write_history(&h, format), format).unwrap();
        let loaded = parse_awb(&write_awb(&parsed)).unwrap();
        assert_eq!(loaded, parsed, "{format}");
        for level in IsolationLevel::ALL {
            assert_eq!(
                fingerprint(&check(&loaded, level)),
                fingerprint(&check(&parsed, level)),
                "{format} at {level}"
            );
        }
    }
}

#[test]
fn read_auto_sniffs_awb_from_a_stream() {
    let h = canonical(&sample_history(3, 20));
    let bytes = write_awb(&h);
    // A tiny buffer forces the sniffer to refill past the magic.
    let mut b = HistoryBuilder::new();
    let detected = read_auto(BufReader::with_capacity(2, bytes.as_slice()), &mut b).unwrap();
    assert_eq!(detected, Detected::Binary);
    assert_eq!(b.finish().unwrap(), h);
}

#[test]
fn path_loader_matches_in_memory_decode() {
    let dir = scratch_dir("awb-path");
    let h = canonical(&sample_history(4, 32));
    let path = dir.join("h.awb");
    std::fs::write(&path, write_awb(&h)).unwrap();

    let mut b = HistoryBuilder::new();
    read_awb_path_into(&path, &mut b).unwrap();
    assert_eq!(b.finish().unwrap(), h);

    // Resolved-arena sinks take the bulk-load path; the result must be
    // identical to the replayed one.
    let mut arena = History::default();
    let mut direct = DirectSink(&mut arena);
    read_awb_path_into(&path, &mut direct).unwrap();
    assert_eq!(arena, h);

    assert_eq!(detect_path(&path).unwrap(), Some(Detected::Binary));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Minimal sink exposing a resolved arena, so the loader's direct
/// (replay-free) path is exercised outside the engine.
struct DirectSink<'a>(&'a mut History);

impl HistorySink for DirectSink<'_> {
    fn session(&mut self) -> SessionId {
        unreachable!("bulk loads never replay")
    }
    fn num_sessions(&self) -> usize {
        0
    }
    fn begin(&mut self, _: SessionId) {}
    fn write(&mut self, _: SessionId, _: u64, _: u64) {}
    fn read(&mut self, _: SessionId, _: u64, _: u64) {}
    fn commit(&mut self, _: SessionId) {}
    fn abort(&mut self, _: SessionId) {}
    fn load_resolved(&mut self) -> Option<&mut History> {
        Some(self.0)
    }
}

#[test]
fn engine_checks_awb_files_identically_to_text() {
    let dir = scratch_dir("awb-engine");
    let h = canonical(&sample_history(4, 40));
    std::fs::write(dir.join("h.awdit"), write_history(&h, Format::Native)).unwrap();
    std::fs::write(dir.join("h.awb"), write_awb(&h)).unwrap();

    let mut engine = Engine::new();
    let named = check_named(&mut engine, &mut DirSource::new(&dir).unwrap()).unwrap();
    assert_eq!(named.len(), 2);
    let reference = fingerprint(&check(&h, IsolationLevel::Causal));
    for (name, out) in &named {
        assert_eq!(fingerprint(out), reference, "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn content_sniff_beats_a_misleading_extension() {
    let dir = scratch_dir("awb-sniff");
    let h = canonical(&sample_history(3, 16));
    // Binary payload behind a text extension: the magic must win.
    let path = dir.join("h.awdit");
    std::fs::write(&path, write_awb(&h)).unwrap();
    let mut source = FilesSource::new([&path]);
    let mut engine = Engine::new();
    let named = check_named(&mut engine, &mut source).unwrap();
    assert_eq!(named.len(), 1);
    assert_eq!(
        fingerprint(&named[0].1),
        fingerprint(&check(&h, IsolationLevel::Causal))
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_binary_data_is_rejected_cleanly() {
    let dir = scratch_dir("awb-junk");
    let path = dir.join("junk.awdit");
    let junk: Vec<u8> = (0..512u32).map(|i| (i * 7 % 256) as u8).collect();
    assert!(junk.contains(&0));
    assert!(looks_binary(&junk));
    assert_eq!(detect_bytes(&junk), None);
    std::fs::write(&path, &junk).unwrap();

    let mut engine = Engine::new();
    let err = check_named(&mut engine, &mut FilesSource::new([&path])).unwrap_err();
    assert!(
        err.to_string().contains("unrecognized binary data"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_at_every_length_is_a_clean_error() {
    let bytes = write_awb(&sample_history(3, 24));
    for len in 0..bytes.len() {
        let err = parse_awb(&bytes[..len]).unwrap_err();
        // Displayable and descriptive — no panic, no partial history.
        assert!(!err.to_string().is_empty(), "truncated at {len}");
    }
}

#[test]
fn header_tampering_is_diagnosed_precisely() {
    let good = write_awb(&sample_history(3, 24));

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert!(!sniff_awb(&bad_magic));
    assert_eq!(
        parse_awb(&bad_magic).unwrap_err().to_string(),
        "not an .awb file (bad magic)"
    );

    let mut bad_version = good.clone();
    bad_version[8..12].copy_from_slice(&(AWB_VERSION + 1).to_le_bytes());
    refresh_checksum(&mut bad_version);
    assert_eq!(
        parse_awb(&bad_version).unwrap_err().to_string(),
        format!("unsupported .awb version {}", AWB_VERSION + 1)
    );

    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert_eq!(
        parse_awb(&flipped).unwrap_err().to_string(),
        "checksum mismatch (corrupt .awb file)"
    );

    // Out-of-bounds session offset, re-sealed so it reaches the column
    // validators rather than the checksum gate.
    let mut oob = good.clone();
    let first_offset = AWB_MAGIC.len() + 4 + 4 + 12;
    oob[first_offset..first_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    refresh_checksum(&mut oob);
    let msg = parse_awb(&oob).unwrap_err().to_string();
    assert!(
        msg.starts_with("invalid history columns:") || msg.starts_with("malformed .awb file:"),
        "unexpected error: {msg}"
    );

    // A section length pointing past the end of the body.
    let mut overrun = good.clone();
    let len_at = AWB_MAGIC.len() + 4 + 4 + 4;
    overrun[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    refresh_checksum(&mut overrun);
    assert_eq!(
        parse_awb(&overrun).unwrap_err().to_string(),
        "truncated .awb file"
    );

    // Control: the pristine bytes still load.
    parse_awb(&good).unwrap();
}

proptest! {
    /// Any single flipped byte is caught (FNV-1a folds every body byte, so
    /// a one-byte change always lands on the checksum gate or earlier) and
    /// never panics or over-reads.
    #[test]
    fn any_single_byte_flip_is_a_clean_error(pos in 0usize..4096, bit in 0u8..8) {
        let bytes = write_awb(&sample_history(3, 24));
        let mut mutated = bytes.clone();
        let pos = pos % mutated.len();
        mutated[pos] ^= 1 << bit;
        prop_assert!(parse_awb(&mutated).is_err(), "flip at {pos} slipped through");
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("awdit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
