//! The native AWDIT history format.
//!
//! One session per block, one transaction per line:
//!
//! ```text
//! awdit-history v1
//! session 0
//! c: w(100,2) r(200,4)
//! a: w(300,6)
//! session 1
//! c: r(100,2)
//! ```
//!
//! `c:` marks a committed transaction, `a:` an aborted one; operations are
//! `w(key,value)` / `r(key,value)` in program order. Blank lines and `#`
//! comments are ignored.
//!
//! [`read_native`] is the incremental reader (any [`BufRead`] into any
//! [`HistorySink`]); [`write_native_to`] the symmetric streaming writer
//! (no per-operation allocation). [`parse_native`]/[`write_native`] are
//! the whole-`str`/`String` conveniences on top.

use std::io::{BufRead, Write};

use awdit_core::{History, HistoryBuilder, HistorySink, Op, SessionId};

use crate::error::ParseError;
use crate::reader::{open_session, LineReader};

/// The first line of every native-format file.
pub const NATIVE_HEADER: &str = "awdit-history v1";

/// Streams `history` out in the native format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_native_to<W: Write + ?Sized>(history: &History, out: &mut W) -> std::io::Result<()> {
    out.write_all(NATIVE_HEADER.as_bytes())?;
    out.write_all(b"\n")?;
    for (sid, txns) in history.sessions() {
        writeln!(out, "session {}", sid.0)?;
        for t in txns.iter() {
            out.write_all(if t.is_committed() { b"c:" } else { b"a:" })?;
            for op in t.ops() {
                match *op {
                    Op::Write { key, value } => {
                        write!(out, " w({},{})", history.key_name(key), value.0)?;
                    }
                    Op::Read { key, value, .. } => {
                        write!(out, " r({},{})", history.key_name(key), value.0)?;
                    }
                }
            }
            out.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Serializes a history in the native format.
pub fn write_native(history: &History) -> String {
    let mut out = Vec::with_capacity(history.size() * 12 + 64);
    write_native_to(history, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("native format is ASCII")
}

/// Incrementally reads a native-format history from `input`, emitting
/// events into `sink` as lines are consumed.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input or
/// I/O failure. The sink may have received a partial history by then;
/// discard it (e.g. [`HistoryBuilder::reset`]).
pub fn read_native<R: BufRead, S: HistorySink + ?Sized>(
    input: R,
    sink: &mut S,
) -> Result<(), ParseError> {
    read_native_lines(&mut LineReader::new(input), sink)
}

pub(crate) fn read_native_lines<R: BufRead, S: HistorySink + ?Sized>(
    lines: &mut LineReader<R>,
    sink: &mut S,
) -> Result<(), ParseError> {
    crate::reader::expect_header(lines, NATIVE_HEADER)?;

    let mut current: Option<SessionId> = None;
    while let Some((raw, lineno)) = lines.next_line()? {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("session") {
            let id: usize = rest.trim().parse().map_err(|_| {
                ParseError::new(lineno, format!("bad session id `{}`", rest.trim()))
            })?;
            current = Some(open_session(sink, id, lineno)?);
            continue;
        }
        let (committed, rest) = if let Some(rest) = line.strip_prefix("c:") {
            (true, rest)
        } else if let Some(rest) = line.strip_prefix("a:") {
            (false, rest)
        } else {
            return Err(ParseError::new(
                lineno,
                format!("expected `session N`, `c:`, or `a:`, found `{line}`"),
            ));
        };
        let session =
            current.ok_or_else(|| ParseError::new(lineno, "transaction before any session"))?;
        sink.begin(session);
        for tok in rest.split_whitespace() {
            let (kind, args) = parse_op_token(tok, lineno)?;
            match kind {
                b'w' => sink.write(session, args.0, args.1),
                _ => sink.read(session, args.0, args.1),
            }
        }
        if committed {
            sink.commit(session);
        } else {
            sink.abort(session);
        }
    }
    Ok(())
}

/// Parses a native-format history.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input, or
/// a wrapped [`BuildError`](awdit_core::BuildError) if the operations form
/// an invalid history (e.g. duplicate writes).
pub fn parse_native(text: &str) -> Result<History, ParseError> {
    let mut b = HistoryBuilder::new();
    read_native(text.as_bytes(), &mut b)?;
    b.finish().map_err(ParseError::from)
}

/// Parses `w(key,value)` / `r(key,value)`.
fn parse_op_token(tok: &str, lineno: usize) -> Result<(u8, (u64, u64)), ParseError> {
    let err = || ParseError::new(lineno, format!("malformed operation `{tok}`"));
    let kind = match tok.as_bytes().first() {
        Some(b'w') => b'w',
        Some(b'r') => b'r',
        _ => return Err(err()),
    };
    let inner = tok[1..]
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(err)?;
    let (k, v) = inner.split_once(',').ok_or_else(err)?;
    let key: u64 = k.trim().parse().map_err(|_| err())?;
    let value: u64 = v.trim().parse().map_err(|_| err())?;
    Ok((kind, (key, value)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_core::HistoryStats;

    fn sample() -> History {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        b.begin(s0);
        b.write(s0, 100, 2);
        b.read(s0, 200, 99); // thin air, still serializes
        b.commit(s0);
        b.begin(s0);
        b.write(s0, 300, 6);
        b.abort(s0);
        b.begin(s1);
        b.read(s1, 100, 2);
        b.commit(s1);
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let h = sample();
        let text = write_native(&h);
        let h2 = parse_native(&text).unwrap();
        assert_eq!(HistoryStats::of(&h), HistoryStats::of(&h2));
        // Serialization is a fixed point — and the round trip is exact.
        assert_eq!(write_native(&h2), text);
        assert_eq!(h2, h);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "awdit-history v1\n# a comment\nsession 0\n\nc: w(1,1) # trailing\n";
        let h = parse_native(text).unwrap();
        assert_eq!(h.size(), 1);
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = parse_native("session 0\nc: w(1,1)\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("header"));
    }

    #[test]
    fn malformed_ops_are_located() {
        let err = parse_native("awdit-history v1\nsession 0\nc: w(1;2)\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("malformed"));
    }

    #[test]
    fn txn_before_session_is_an_error() {
        let err = parse_native("awdit-history v1\nc: w(1,1)\n").unwrap_err();
        assert!(err.message.contains("before any session"));
    }

    #[test]
    fn empty_history_round_trips() {
        let h = HistoryBuilder::new().finish().unwrap();
        let h2 = parse_native(&write_native(&h)).unwrap();
        assert_eq!(h2.size(), 0);
    }

    #[test]
    fn sparse_session_ids_create_intermediate_sessions() {
        let text = "awdit-history v1\nsession 2\nc: w(1,1)\n";
        let h = parse_native(text).unwrap();
        assert_eq!(h.num_sessions(), 3);
    }

    #[test]
    fn streaming_reader_matches_whole_string_parse() {
        let h = sample();
        let text = write_native(&h);
        // A 1-byte buffer forces the reader through every refill path.
        let mut b = HistoryBuilder::new();
        read_native(
            std::io::BufReader::with_capacity(1, text.as_bytes()),
            &mut b,
        )
        .unwrap();
        assert_eq!(b.finish().unwrap(), parse_native(&text).unwrap());
    }
}
