//! A Plume-style history format (after the text format of the Plume
//! artifact, Liu et al. 2024).
//!
//! One operation per line, annotated with its session and transaction id:
//!
//! ```text
//! w(100,2,0,0)
//! r(100,2,1,1)
//! ```
//!
//! reads as `op(key, value, session, txn)`. Transactions are assembled
//! from the `(session, txn)` pairs; within a transaction, line order is
//! program order. Transaction ids must be non-decreasing per session.
//! Aborted transactions are not representable (Plume histories contain
//! committed transactions only).

use std::io::{BufRead, Write};

use awdit_core::{History, HistoryBuilder, HistorySink, Op, SessionId};

use crate::error::ParseError;
use crate::reader::{open_session, LineReader};

/// Streams `history` out in the Plume style.
///
/// Aborted transactions are skipped (with their operations), matching the
/// format's committed-only data model.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_plume_to<W: Write + ?Sized>(history: &History, out: &mut W) -> std::io::Result<()> {
    for (sid, txns) in history.sessions() {
        let mut txn_id = 0usize;
        for t in txns.iter() {
            if !t.is_committed() {
                continue;
            }
            for op in t.ops() {
                let (c, key, value) = match *op {
                    Op::Write { key, value } => ('w', key, value),
                    Op::Read { key, value, .. } => ('r', key, value),
                };
                writeln!(
                    out,
                    "{c}({},{},{},{txn_id})",
                    history.key_name(key),
                    value.0,
                    sid.0
                )?;
            }
            txn_id += 1;
        }
    }
    Ok(())
}

/// Serializes a history in the Plume style.
pub fn write_plume(history: &History) -> String {
    let mut out = Vec::with_capacity(history.size() * 16);
    write_plume_to(history, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("plume format is ASCII")
}

/// Incrementally reads a Plume-style history from `input`, emitting events
/// into `sink` as lines are consumed.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed lines, out-of-order transaction
/// ids, or I/O failure; the sink may hold a partial history by then.
pub fn read_plume<R: BufRead, S: HistorySink + ?Sized>(
    input: R,
    sink: &mut S,
) -> Result<(), ParseError> {
    read_plume_lines(&mut LineReader::new(input), sink)
}

pub(crate) fn read_plume_lines<R: BufRead, S: HistorySink + ?Sized>(
    lines: &mut LineReader<R>,
    sink: &mut S,
) -> Result<(), ParseError> {
    // Per session: the current open transaction id.
    let mut open: Vec<Option<u64>> = Vec::new();

    while let Some((raw, lineno)) = lines.next_line()? {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = || ParseError::new(lineno, format!("malformed operation `{line}`"));
        let kind = match line.as_bytes().first() {
            Some(b'w') => b'w',
            Some(b'r') => b'r',
            _ => return Err(err()),
        };
        let inner = line[1..]
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(err)?;
        let mut parts = inner.split(',').map(str::trim);
        let mut field = || parts.next().ok_or_else(err);
        let key: u64 = field()?.parse().map_err(|_| err())?;
        let value: u64 = field()?.parse().map_err(|_| err())?;
        let session: usize = field()?.parse().map_err(|_| err())?;
        let txn: u64 = field()?.parse().map_err(|_| err())?;
        if parts.next().is_some() {
            return Err(err());
        }

        let sid = open_session(sink, session, lineno)?;
        while open.len() <= session {
            open.push(None);
        }
        match open[session] {
            Some(cur) if cur == txn => {}
            Some(cur) if txn > cur => {
                sink.commit(sid);
                sink.begin(sid);
                open[session] = Some(txn);
            }
            Some(cur) => {
                return Err(ParseError::new(
                    lineno,
                    format!("transaction id went backwards on session {session}: {cur} -> {txn}"),
                ));
            }
            None => {
                sink.begin(sid);
                open[session] = Some(txn);
            }
        }
        if kind == b'w' {
            sink.write(sid, key, value);
        } else {
            sink.read(sid, key, value);
        }
    }
    // Close all open transactions.
    for (s, o) in open.iter().enumerate() {
        if o.is_some() {
            sink.commit(SessionId(s as u32));
        }
    }
    Ok(())
}

/// Parses a Plume-style history.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed lines, out-of-order transaction
/// ids, or invalid histories.
pub fn parse_plume(text: &str) -> Result<History, ParseError> {
    let mut b = HistoryBuilder::new();
    read_plume(text.as_bytes(), &mut b)?;
    b.finish().map_err(ParseError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_core::{check, HistoryStats, IsolationLevel};

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
        b.commit(s1);
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_verdicts() {
        let h = sample();
        let text = write_plume(&h);
        let h2 = parse_plume(&text).unwrap();
        assert_eq!(HistoryStats::of(&h).ops, HistoryStats::of(&h2).ops);
        for level in IsolationLevel::ALL {
            assert_eq!(
                check(&h, level).is_consistent(),
                check(&h2, level).is_consistent()
            );
        }
        assert_eq!(write_plume(&h2), text);
        // Fully-committed histories round-trip exactly.
        assert_eq!(h2, h);
    }

    #[test]
    fn aborted_transactions_are_dropped() {
        let mut b = HistoryBuilder::new();
        let s = b.session();
        b.begin(s);
        b.write(s, 1, 1);
        b.abort(s);
        b.begin(s);
        b.write(s, 2, 2);
        b.commit(s);
        let h = b.finish().unwrap();
        let h2 = parse_plume(&write_plume(&h)).unwrap();
        assert_eq!(h2.num_txns(), 1);
        assert_eq!(h2.size(), 1);
    }

    #[test]
    fn backwards_txn_ids_rejected() {
        let text = "w(1,1,0,1)\nw(2,2,0,0)\n";
        let err = parse_plume(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("backwards"));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_plume("x(1,1,0,0)\n").is_err());
        assert!(parse_plume("w(1,1,0)\n").is_err());
        assert!(parse_plume("w(1,1,0,0,9)\n").is_err());
        assert!(parse_plume("w 1 1 0 0\n").is_err());
    }

    #[test]
    fn interleaved_sessions_parse() {
        let text = "w(1,1,0,0)\nw(2,2,1,0)\nr(1,1,1,0)\nw(3,3,0,1)\n";
        let h = parse_plume(text).unwrap();
        assert_eq!(h.num_sessions(), 2);
        assert_eq!(h.num_txns(), 3);
    }
}
