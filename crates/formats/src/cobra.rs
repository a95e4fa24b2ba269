//! A Cobra-style history format (a text rendition of Cobra's per-session
//! operation logs, Tan et al. OSDI 2020).
//!
//! Record-per-line with single-letter tags, sessions interleaved freely:
//!
//! ```text
//! cobra-log
//! T 0            # begin a transaction on session 0
//! W 0 100 2      # session 0 writes key 100 := 2
//! R 0 200 4      # session 0 reads key 200 -> 4
//! C 0            # session 0 commits
//! A 1            # session 1 aborts its open transaction
//! ```

use std::io::{BufRead, Write};

use awdit_core::{History, HistoryBuilder, HistorySink, Op};

use crate::error::ParseError;
use crate::reader::{open_session, LineReader};

/// The first line of every Cobra-style file.
pub const COBRA_HEADER: &str = "cobra-log";

/// Streams `history` out in the Cobra style (sessions emitted in order,
/// transactions not interleaved — any interleaving parses back to the same
/// history, since session order alone matters).
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_cobra_to<W: Write + ?Sized>(history: &History, out: &mut W) -> std::io::Result<()> {
    out.write_all(COBRA_HEADER.as_bytes())?;
    out.write_all(b"\n")?;
    for (sid, txns) in history.sessions() {
        for t in txns.iter() {
            writeln!(out, "T {}", sid.0)?;
            for op in t.ops() {
                match *op {
                    Op::Write { key, value } => {
                        writeln!(out, "W {} {} {}", sid.0, history.key_name(key), value.0)?;
                    }
                    Op::Read { key, value, .. } => {
                        writeln!(out, "R {} {} {}", sid.0, history.key_name(key), value.0)?;
                    }
                }
            }
            writeln!(
                out,
                "{} {}",
                if t.is_committed() { "C" } else { "A" },
                sid.0
            )?;
        }
    }
    Ok(())
}

/// Serializes a history in the Cobra style.
pub fn write_cobra(history: &History) -> String {
    let mut out = Vec::with_capacity(history.size() * 12 + 64);
    write_cobra_to(history, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("cobra format is ASCII")
}

/// Incrementally reads a Cobra-style history from `input`, emitting events
/// into `sink` as records are consumed.
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed records or I/O failure; the
/// sink may hold a partial history by then. (Transactions left open at
/// end of file surface when the sink is finished.)
pub fn read_cobra<R: BufRead, S: HistorySink + ?Sized>(
    input: R,
    sink: &mut S,
) -> Result<(), ParseError> {
    read_cobra_lines(&mut LineReader::new(input), sink)
}

pub(crate) fn read_cobra_lines<R: BufRead, S: HistorySink + ?Sized>(
    lines: &mut LineReader<R>,
    sink: &mut S,
) -> Result<(), ParseError> {
    crate::reader::expect_header(lines, COBRA_HEADER)?;
    while let Some((raw, lineno)) = lines.next_line()? {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap_or("");
        let err = |msg: &str| ParseError::new(lineno, format!("{msg}: `{line}`"));
        let session: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("missing session id"))?;
        let sid = open_session(sink, session, lineno)?;
        match tag {
            "T" | "C" | "A" => {
                if parts.next().is_some() {
                    return Err(err(match tag {
                        "T" => "malformed begin record",
                        "C" => "malformed commit record",
                        _ => "malformed abort record",
                    }));
                }
                match tag {
                    "T" => sink.begin(sid),
                    "C" => sink.commit(sid),
                    _ => sink.abort(sid),
                }
            }
            "W" | "R" => {
                let key: Option<u64> = parts.next().and_then(|s| s.parse().ok());
                let value: Option<u64> = parts.next().and_then(|s| s.parse().ok());
                if parts.next().is_some() || key.is_none() || value.is_none() {
                    return Err(err("malformed operation record"));
                }
                if tag == "W" {
                    sink.write(sid, key.unwrap(), value.unwrap());
                } else {
                    sink.read(sid, key.unwrap(), value.unwrap());
                }
            }
            other => return Err(ParseError::new(lineno, format!("unknown record `{other}`"))),
        }
    }
    Ok(())
}

/// Parses a Cobra-style history.
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed records or transactions left
/// open at end of file.
pub fn parse_cobra(text: &str) -> Result<History, ParseError> {
    let mut b = HistoryBuilder::new();
    read_cobra(text.as_bytes(), &mut b)?;
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
        b.commit(s0);
        b.begin(s1);
        b.read(s1, 100, 2);
        b.abort(s1);
        b.finish().unwrap()
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let text = write_cobra(&h);
        let h2 = parse_cobra(&text).unwrap();
        assert_eq!(HistoryStats::of(&h), HistoryStats::of(&h2));
        assert_eq!(write_cobra(&h2), text);
        assert_eq!(h2, h);
    }

    #[test]
    fn interleaved_sessions_parse() {
        let text = "cobra-log\nT 0\nT 1\nW 0 1 1\nR 1 1 1\nC 0\nC 1\n";
        let h = parse_cobra(text).unwrap();
        assert_eq!(h.num_sessions(), 2);
        assert_eq!(h.num_txns(), 2);
    }

    #[test]
    fn unclosed_transaction_is_an_error() {
        let text = "cobra-log\nT 0\nW 0 1 1\n";
        assert!(parse_cobra(text).is_err());
    }

    #[test]
    fn op_outside_transaction_is_an_error() {
        let text = "cobra-log\nW 0 1 1\n";
        assert!(parse_cobra(text).is_err());
    }

    #[test]
    fn unknown_records_rejected() {
        let text = "cobra-log\nX 0\n";
        let err = parse_cobra(text).unwrap_err();
        assert!(err.message.contains("unknown record"));
    }
}
