//! A DBCop-style history format (a text rendition of the structure DBCop
//! serializes with bincode: sessions of transactions of operations, with
//! explicit counts and commit flags).
//!
//! ```text
//! dbcop-history
//! sessions 2
//! session 0 txns 2
//! txn committed 2
//! W 100 2
//! R 200 4
//! txn aborted 1
//! W 300 6
//! session 1 txns 1
//! txn committed 1
//! R 100 2
//! ```

use std::io::{BufRead, Write};

use awdit_core::{History, HistoryBuilder, HistorySink, Op};

use crate::error::ParseError;
use crate::reader::{open_session, LineReader};

/// The first line of every DBCop-style file.
pub const DBCOP_HEADER: &str = "dbcop-history";

/// Streams `history` out in the DBCop style.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_dbcop_to<W: Write + ?Sized>(history: &History, out: &mut W) -> std::io::Result<()> {
    out.write_all(DBCOP_HEADER.as_bytes())?;
    out.write_all(b"\n")?;
    writeln!(out, "sessions {}", history.num_sessions())?;
    for (sid, txns) in history.sessions() {
        writeln!(out, "session {} txns {}", sid.0, txns.len())?;
        for t in txns.iter() {
            writeln!(
                out,
                "txn {} {}",
                if t.is_committed() {
                    "committed"
                } else {
                    "aborted"
                },
                t.len()
            )?;
            for op in t.ops() {
                match *op {
                    Op::Write { key, value } => {
                        writeln!(out, "W {} {}", history.key_name(key), value.0)?;
                    }
                    Op::Read { key, value, .. } => {
                        writeln!(out, "R {} {}", history.key_name(key), value.0)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Serializes a history in the DBCop style.
pub fn write_dbcop(history: &History) -> String {
    let mut out = Vec::with_capacity(history.size() * 12 + 64);
    write_dbcop_to(history, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("dbcop format is ASCII")
}

/// Consumes the next non-blank line and applies `f` to it (trimmed, with
/// its number) — parsing in place, so counted records cost no per-line
/// allocation.
fn expect_line<R: BufRead, T>(
    lines: &mut LineReader<R>,
    f: impl FnOnce(&str, usize) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    loop {
        match lines.next_line()? {
            None => {
                return Err(ParseError::new(
                    lines.line_no().max(1),
                    "unexpected end of file",
                ))
            }
            Some((raw, lineno)) => {
                let line = raw.trim();
                if !line.is_empty() {
                    return f(line, lineno);
                }
            }
        }
    }
}

/// Incrementally reads a DBCop-style history from `input`, emitting events
/// into `sink` as records are consumed.
///
/// # Errors
///
/// Returns a [`ParseError`] when counts do not match the data, lines are
/// malformed, or I/O fails; the sink may hold a partial history by then.
pub fn read_dbcop<R: BufRead, S: HistorySink + ?Sized>(
    input: R,
    sink: &mut S,
) -> Result<(), ParseError> {
    read_dbcop_lines(&mut LineReader::new(input), sink)
}

pub(crate) fn read_dbcop_lines<R: BufRead, S: HistorySink + ?Sized>(
    lines: &mut LineReader<R>,
    sink: &mut S,
) -> Result<(), ParseError> {
    expect_line(lines, |line, lineno| {
        if line != DBCOP_HEADER {
            return Err(ParseError::new(
                lineno,
                format!("expected header `{DBCOP_HEADER}`"),
            ));
        }
        Ok(())
    })?;
    let num_sessions: usize = expect_line(lines, |line, lineno| {
        line.strip_prefix("sessions ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ParseError::new(lineno, "expected `sessions N`"))
    })?;

    // Each session is created when its block opens, so a huge count with
    // no blocks behind it allocates nothing before the missing block
    // fails the parse.
    for expected_sid in 0..num_sessions {
        let (session, num_txns) = expect_line(lines, |line, lineno| {
            let mut parts = line.split_whitespace();
            let ok = parts.next() == Some("session");
            let sid = parts.next().and_then(|p| p.parse::<usize>().ok());
            let ok = ok && parts.next() == Some("txns");
            let txns = parts.next().and_then(|p| p.parse::<usize>().ok());
            if !ok || sid.is_none() || txns.is_none() || parts.next().is_some() {
                return Err(ParseError::new(lineno, "expected `session N txns M`"));
            }
            if sid != Some(expected_sid) {
                return Err(ParseError::new(
                    lineno,
                    format!("expected session {expected_sid}, found {}", sid.unwrap()),
                ));
            }
            Ok((open_session(sink, expected_sid, lineno)?, txns.unwrap()))
        })?;
        for _ in 0..num_txns {
            let (committed, num_ops) = expect_line(lines, |line, lineno| {
                let mut parts = line.split_whitespace();
                if parts.next() != Some("txn") {
                    return Err(ParseError::new(
                        lineno,
                        "expected `txn committed|aborted N`",
                    ));
                }
                let committed = match parts.next() {
                    Some("committed") => true,
                    Some("aborted") => false,
                    other => {
                        return Err(ParseError::new(
                            lineno,
                            format!(
                                "expected committed|aborted, found `{}`",
                                other.unwrap_or("")
                            ),
                        ))
                    }
                };
                let ops: usize = parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| ParseError::new(lineno, "bad op count"))?;
                if parts.next().is_some() {
                    return Err(ParseError::new(
                        lineno,
                        "expected `txn committed|aborted N`",
                    ));
                }
                Ok((committed, ops))
            })?;
            sink.begin(session);
            for _ in 0..num_ops {
                let (is_write, key, value) = expect_line(lines, |line, lineno| {
                    let mut parts = line.split_whitespace();
                    let tag = parts.next();
                    let key: Option<u64> = parts.next().and_then(|p| p.parse().ok());
                    let value: Option<u64> = parts.next().and_then(|p| p.parse().ok());
                    if parts.next().is_some() || key.is_none() || value.is_none() {
                        return Err(ParseError::new(lineno, "expected `W|R key value`"));
                    }
                    let is_write = match tag {
                        Some("W") => true,
                        Some("R") => false,
                        other => {
                            return Err(ParseError::new(
                                lineno,
                                format!("expected W or R, found `{}`", other.unwrap_or("")),
                            ))
                        }
                    };
                    Ok((is_write, key.unwrap(), value.unwrap()))
                })?;
                if is_write {
                    sink.write(session, key, value);
                } else {
                    sink.read(session, key, value);
                }
            }
            if committed {
                sink.commit(session);
            } else {
                sink.abort(session);
            }
        }
    }
    Ok(())
}

/// Parses a DBCop-style history.
///
/// # Errors
///
/// Returns a [`ParseError`] when counts do not match the data or lines are
/// malformed.
pub fn parse_dbcop(text: &str) -> Result<History, ParseError> {
    let mut b = HistoryBuilder::new();
    read_dbcop(text.as_bytes(), &mut b)?;
    b.finish().map_err(ParseError::from)
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
        b.read(s0, 200, 4);
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
    fn round_trip() {
        let h = sample();
        let text = write_dbcop(&h);
        let h2 = parse_dbcop(&text).unwrap();
        assert_eq!(HistoryStats::of(&h), HistoryStats::of(&h2));
        assert_eq!(write_dbcop(&h2), text);
        assert_eq!(h2, h);
    }

    #[test]
    fn count_mismatches_are_errors() {
        // Claims 2 ops but provides 1.
        let text = "dbcop-history\nsessions 1\nsession 0 txns 1\ntxn committed 2\nW 1 1\n";
        assert!(parse_dbcop(text).is_err());
    }

    #[test]
    fn header_required() {
        assert!(parse_dbcop("sessions 1\n").is_err());
    }

    #[test]
    fn session_order_enforced() {
        let text = "dbcop-history\nsessions 2\nsession 1 txns 0\nsession 0 txns 0\n";
        let err = parse_dbcop(text).unwrap_err();
        assert!(err.message.contains("expected session 0"));
    }

    #[test]
    fn empty_sessions_allowed() {
        let text = "dbcop-history\nsessions 2\nsession 0 txns 0\nsession 1 txns 0\n";
        let h = parse_dbcop(text).unwrap();
        assert_eq!(h.num_sessions(), 2);
        assert_eq!(h.num_txns(), 0);
    }
}
