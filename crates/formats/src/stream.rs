//! Streaming NDJSON event format: one JSON object per line, one
//! transaction event each — the wire format consumed by `awdit watch` and
//! produced by collection agents.
//!
//! ```text
//! {"type":"begin","session":0}
//! {"type":"write","session":0,"key":10,"value":1}
//! {"type":"read","session":1,"key":10,"value":1}
//! {"type":"commit","session":0}
//! {"type":"abort","session":2}
//! ```
//!
//! The parser is deliberately small and dependency-free: objects must be
//! flat (no nesting), fields may appear in any order, unknown fields are
//! ignored, and blank lines and `#` comment lines are skipped — so logs
//! with occasional annotations still parse.

use std::io::{BufRead, Write};

use awdit_core::{HistorySink, SessionId};
use awdit_stream::Event;

use crate::error::ParseError;
use crate::reader::LineReader;

/// Streams one event as a canonical NDJSON line (no trailing newline)
/// into `out` — no intermediate `String`.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_event_to<W: Write + ?Sized>(event: &Event, out: &mut W) -> std::io::Result<()> {
    match *event {
        Event::Begin { session } => {
            write!(out, "{{\"type\":\"begin\",\"session\":{session}}}")
        }
        Event::Write {
            session,
            key,
            value,
        } => write!(
            out,
            "{{\"type\":\"write\",\"session\":{session},\"key\":{key},\"value\":{value}}}"
        ),
        Event::Read {
            session,
            key,
            value,
        } => write!(
            out,
            "{{\"type\":\"read\",\"session\":{session},\"key\":{key},\"value\":{value}}}"
        ),
        Event::Commit { session } => {
            write!(out, "{{\"type\":\"commit\",\"session\":{session}}}")
        }
        Event::Abort { session } => {
            write!(out, "{{\"type\":\"abort\",\"session\":{session}}}")
        }
    }
}

/// Streams a sequence of events, one NDJSON line each.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_events_to<'a, W: Write + ?Sized>(
    events: impl IntoIterator<Item = &'a Event>,
    out: &mut W,
) -> std::io::Result<()> {
    for e in events {
        write_event_to(e, out)?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Streams a whole history's event-stream form (the round-robin
/// interleaving of [`events_of_history`](awdit_stream::events_of_history))
/// as NDJSON lines, one event at a time — no materialized `Vec<Event>`,
/// so converting a history to an event log holds only the columnar
/// history itself.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_history_events_to<W: Write + ?Sized>(
    history: &awdit_core::History,
    out: &mut W,
) -> std::io::Result<()> {
    let mut result = Ok(());
    awdit_stream::for_each_event(history, |e| {
        if result.is_ok() {
            result = write_event_to(e, out).and_then(|()| out.write_all(b"\n"));
        }
    });
    result
}

/// Serializes one event as a canonical NDJSON line (no trailing newline).
pub fn write_event(event: &Event) -> String {
    let mut out = Vec::with_capacity(64);
    write_event_to(event, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("NDJSON events are ASCII")
}

/// Serializes a sequence of events, one line each.
pub fn write_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let mut out = Vec::new();
    write_events_to(events, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("NDJSON events are ASCII")
}

/// Replays transaction events into a [`HistorySink`], numbering sessions
/// by first appearance and validating begin/commit bracketing — the
/// shared core of [`read_events`] and
/// [`history_of_events`](crate::history_of_events).
#[derive(Debug, Default)]
pub(crate) struct EventReplayer {
    sessions: Vec<(u64, SessionId)>,
    open: Vec<u64>,
}

impl EventReplayer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Applies one event to `sink`; errors describe the protocol fault
    /// without positional context (the caller adds line/event numbers).
    pub(crate) fn apply<S: HistorySink + ?Sized>(
        &mut self,
        sink: &mut S,
        event: &Event,
    ) -> Result<(), String> {
        let name = event.session();
        let sid = match self.sessions.iter().find(|(n, _)| *n == name) {
            Some(&(_, sid)) => sid,
            None => {
                let sid = sink.session();
                self.sessions.push((name, sid));
                sid
            }
        };
        let is_open = self.open.contains(&name);
        match *event {
            Event::Begin { .. } => {
                if is_open {
                    return Err(format!("nested begin on session {name}"));
                }
                self.open.push(name);
                sink.begin(sid);
            }
            Event::Write { key, value, .. } => {
                if !is_open {
                    return Err(format!("write outside transaction on {name}"));
                }
                sink.write(sid, key, value);
            }
            Event::Read { key, value, .. } => {
                if !is_open {
                    return Err(format!("read outside transaction on {name}"));
                }
                sink.read(sid, key, value);
            }
            Event::Commit { .. } => {
                if !is_open {
                    return Err(format!("commit with no open transaction on {name}"));
                }
                self.open.retain(|&n| n != name);
                sink.commit(sid);
            }
            Event::Abort { .. } => {
                if !is_open {
                    return Err(format!("abort with no open transaction on {name}"));
                }
                self.open.retain(|&n| n != name);
                sink.abort(sid);
            }
        }
        Ok(())
    }

    /// End-of-stream check: every session must have closed its last
    /// transaction.
    pub(crate) fn finish(&self) -> Result<(), String> {
        if let Some(name) = self.open.first() {
            return Err(format!("stream ends with session {name} still open"));
        }
        Ok(())
    }
}

/// Incrementally reads an NDJSON event log from `input`, replaying the
/// events into `sink` (sessions numbered by first appearance) — the
/// streaming form of
/// [`history_of_events`](crate::history_of_events). Blank lines and `#`
/// comment lines are skipped.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed JSON, protocol faults (events
/// outside an open transaction, nested `begin`s, a stream ending with an
/// open transaction), or I/O failure.
pub fn read_events<R: BufRead, S: HistorySink + ?Sized>(
    input: R,
    sink: &mut S,
) -> Result<(), ParseError> {
    read_events_lines(&mut LineReader::new(input), sink)
}

pub(crate) fn read_events_lines<R: BufRead, S: HistorySink + ?Sized>(
    lines: &mut LineReader<R>,
    sink: &mut S,
) -> Result<(), ParseError> {
    let mut replay = EventReplayer::new();
    while let Some((raw, lineno)) = lines.next_line()? {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let event = parse_event(trimmed, lineno)?;
        replay
            .apply(sink, &event)
            .map_err(|m| ParseError::new(lineno, m))?;
    }
    replay
        .finish()
        .map_err(|m| ParseError::new(lines.line_no().max(1), m))
}

/// Parses one NDJSON line into an event. `line_no` is used for error
/// reporting (1-based).
///
/// One pass over the line, borrowing every field from it: the first
/// `type`, `session`, `key` and `value` fields are kept, any other field is
/// syntax-checked and skipped, and nothing is allocated unless the line is
/// rejected.
pub fn parse_event(line: &str, line_no: usize) -> Result<Event, ParseError> {
    let (mut typ, mut session, mut key, mut value) = (None, None, None, None);
    parse_flat_object(line, |name, v| {
        let slot = match name {
            "type" => &mut typ,
            "session" => &mut session,
            "key" => &mut key,
            "value" => &mut value,
            _ => return,
        };
        slot.get_or_insert(v);
    })
    .map_err(|msg| ParseError::new(line_no, msg))?;
    let typ = match typ {
        Some(JsonValue::Str(t)) => t,
        Some(_) => return Err(ParseError::new(line_no, "\"type\" must be a string")),
        None => return Err(ParseError::new(line_no, "missing \"type\" field")),
    };
    let num = |name: &str, v: Option<JsonValue>| -> Result<u64, ParseError> {
        match v {
            Some(JsonValue::Num(n)) => Ok(n),
            Some(_) => Err(ParseError::new(
                line_no,
                format!("\"{name}\" must be a number"),
            )),
            None => Err(ParseError::new(
                line_no,
                format!("missing \"{name}\" field"),
            )),
        }
    };
    let session = num("session", session)?;
    // No type name contains `"` or `\`, so the raw string body matches
    // exactly when its unescaped form does.
    match typ {
        "begin" => Ok(Event::Begin { session }),
        "commit" => Ok(Event::Commit { session }),
        "abort" => Ok(Event::Abort { session }),
        "write" => Ok(Event::Write {
            session,
            key: num("key", key)?,
            value: num("value", value)?,
        }),
        "read" => Ok(Event::Read {
            session,
            key: num("key", key)?,
            value: num("value", value)?,
        }),
        other => Err(ParseError::new(
            line_no,
            format!(
                "unknown event type \"{}\"",
                other.replace("\\\"", "\"").replace("\\\\", "\\")
            ),
        )),
    }
}

/// Parses a whole NDJSON document (blank and `#` lines skipped).
pub fn parse_events(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        events.push(parse_event(trimmed, i + 1)?);
    }
    Ok(events)
}

/// A field value, borrowed from the line.
enum JsonValue<'a> {
    Num(u64),
    /// A string body, still escaped.
    Str(&'a str),
    /// Any other scalar in an ignored field (bool, null, float, negative
    /// number): tolerated, never used by an event field.
    Other,
}

/// Walks a flat JSON object of string/number fields, handing each field
/// name and value to `field` in order; the error is the first syntax
/// fault.
fn parse_flat_object<'a>(
    line: &'a str,
    mut field: impl FnMut(&'a str, JsonValue<'a>),
) -> Result<(), &'static str> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected a JSON object")?;
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // "key"
        let r = rest
            .strip_prefix('"')
            .ok_or("expected a quoted field name")?;
        let end = r.find('"').ok_or("unterminated field name")?;
        let name = &r[..end];
        let r = r[end + 1..].trim_start();
        // :
        let r = r
            .strip_prefix(':')
            .ok_or("expected ':' after field name")?
            .trim_start();
        // value: quoted string, unsigned integer, or any other scalar
        // (tolerated in ignored fields).
        let (value, r) = if let Some(r) = r.strip_prefix('"') {
            let end = string_end(r).ok_or("unterminated string value")?;
            (JsonValue::Str(&r[..end]), r[end + 1..].trim_start())
        } else {
            let end = r
                .find(|c: char| c == ',' || c.is_whitespace())
                .unwrap_or(r.len());
            if end == 0 {
                return Err("expected a value");
            }
            let value = match r[..end].parse::<u64>() {
                Ok(n) => JsonValue::Num(n),
                // Bools, null, floats, negatives: legal JSON scalars that no
                // event field uses; keep them skippable.
                Err(_) => JsonValue::Other,
            };
            (value, r[end..].trim_start())
        };
        field(name, value);
        rest = rest_after_comma(r)?;
    }
    Ok(())
}

/// Index of the closing quote of a JSON string body (handles `\\"` and
/// `\\\\` escapes), or `None` if unterminated.
fn string_end(r: &str) -> Option<usize> {
    let bytes = r.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some(i),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    None
}

fn rest_after_comma(r: &str) -> Result<&str, &'static str> {
    let r = r.trim_start();
    if r.is_empty() {
        Ok(r)
    } else if let Some(next) = r.strip_prefix(',') {
        let next = next.trim_start();
        if next.is_empty() {
            Err("trailing comma")
        } else {
            Ok(next)
        }
    } else {
        Err("expected ',' between fields")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating parser `parse_event` replaced, kept verbatim as the
    /// reference for the differential test below.
    mod reference {
        use super::*;

        #[derive(Debug, PartialEq)]
        enum JsonValue {
            Num(u64),
            Str(String),
            Other,
        }

        pub fn parse_event(line: &str, line_no: usize) -> Result<Event, ParseError> {
            let fields = parse_flat_object(line, line_no)?;
            let typ = fields
                .iter()
                .find(|(k, _)| k == "type")
                .ok_or_else(|| ParseError::new(line_no, "missing \"type\" field"))?;
            let JsonValue::Str(typ) = &typ.1 else {
                return Err(ParseError::new(line_no, "\"type\" must be a string"));
            };
            let get_num = |name: &str| -> Result<u64, ParseError> {
                match fields.iter().find(|(k, _)| k == name) {
                    Some((_, JsonValue::Num(n))) => Ok(*n),
                    Some(_) => Err(ParseError::new(
                        line_no,
                        format!("\"{name}\" must be a number"),
                    )),
                    None => Err(ParseError::new(
                        line_no,
                        format!("missing \"{name}\" field"),
                    )),
                }
            };
            let session = get_num("session")?;
            match typ.as_str() {
                "begin" => Ok(Event::Begin { session }),
                "commit" => Ok(Event::Commit { session }),
                "abort" => Ok(Event::Abort { session }),
                "write" => Ok(Event::Write {
                    session,
                    key: get_num("key")?,
                    value: get_num("value")?,
                }),
                "read" => Ok(Event::Read {
                    session,
                    key: get_num("key")?,
                    value: get_num("value")?,
                }),
                other => Err(ParseError::new(
                    line_no,
                    format!("unknown event type \"{other}\""),
                )),
            }
        }

        fn parse_flat_object(
            line: &str,
            line_no: usize,
        ) -> Result<Vec<(String, JsonValue)>, ParseError> {
            let s = line.trim();
            let inner = s
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
                .ok_or_else(|| ParseError::new(line_no, "expected a JSON object"))?;
            let mut fields = Vec::new();
            let mut rest = inner.trim();
            while !rest.is_empty() {
                let r = rest
                    .strip_prefix('"')
                    .ok_or_else(|| ParseError::new(line_no, "expected a quoted field name"))?;
                let end = r
                    .find('"')
                    .ok_or_else(|| ParseError::new(line_no, "unterminated field name"))?;
                let name = r[..end].to_string();
                let r = r[end + 1..].trim_start();
                let r = r
                    .strip_prefix(':')
                    .ok_or_else(|| ParseError::new(line_no, "expected ':' after field name"))?
                    .trim_start();
                let (value, r) = if let Some(r) = r.strip_prefix('"') {
                    let end = string_end(r)
                        .ok_or_else(|| ParseError::new(line_no, "unterminated string value"))?;
                    (
                        JsonValue::Str(r[..end].replace("\\\"", "\"").replace("\\\\", "\\")),
                        r[end + 1..].trim_start(),
                    )
                } else {
                    let end = r
                        .find(|c: char| c == ',' || c.is_whitespace())
                        .unwrap_or(r.len());
                    if end == 0 {
                        return Err(ParseError::new(line_no, "expected a value"));
                    }
                    let token = &r[..end];
                    let value = match token.parse::<u64>() {
                        Ok(n) => JsonValue::Num(n),
                        Err(_) => JsonValue::Other,
                    };
                    (value, r[end..].trim_start())
                };
                fields.push((name, value));
                rest = match rest_after_comma(r) {
                    Ok(next) => next,
                    Err(msg) => return Err(ParseError::new(line_no, msg)),
                };
            }
            Ok(fields)
        }
    }

    /// Bench-shaped lines with reordered, duplicated and unknown fields,
    /// every scalar kind, `u64` overflow and negatives, then byte
    /// deletions and insertions of JSON's structural characters and
    /// whitespace: the borrowing parser must return exactly what the
    /// allocating one does, errors included.
    #[test]
    fn parse_event_matches_the_allocating_parser() {
        let mut seed = 0x243f6a8885a308d3u64;
        let mut next = move |n: usize| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % n as u64) as usize
        };
        const TYPES: [&str; 10] = [
            "begin",
            "commit",
            "abort",
            "write",
            "read",
            "warp",
            "Begin",
            "be\\\"gin",
            "beg\\\\in",
            "",
        ];
        const SCALARS: [&str; 16] = [
            "0",
            "7",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "-3",
            "1.5",
            "1e3",
            "true",
            "false",
            "null",
            "\"\"",
            "\"x\"",
            "\"a\\\"b\"",
            "\"c\\\\\"",
            "+4",
        ];
        const NAMES: [&str; 6] = ["type", "session", "key", "value", "agent", "lag"];
        const INSERTS: [&str; 8] = ["\"", "\\", ",", ":", " ", "\t", "\u{2003}", "}"];
        let mut lines: Vec<String> = Vec::new();
        for _ in 0..4000 {
            let mut fields: Vec<String> = Vec::new();
            let typ = if next(4) == 0 {
                SCALARS[next(SCALARS.len())].to_string()
            } else {
                format!("\"{}\"", TYPES[next(TYPES.len())])
            };
            fields.push(format!("\"type\":{typ}"));
            for name in &NAMES[1..] {
                for _ in 0..[1, 1, 1, 2][next(4)] {
                    if next(8) != 0 {
                        let v = if next(3) == 0 {
                            SCALARS[next(SCALARS.len())].to_string()
                        } else {
                            next(1 << 20).to_string()
                        };
                        fields.push(format!("\"{name}\":{v}"));
                    }
                }
            }
            // Reorder by a few random swaps.
            for _ in 0..next(4) {
                let (i, j) = (next(fields.len()), next(fields.len()));
                fields.swap(i, j);
            }
            let seps = [",", ", ", " ,", ",\t"];
            let mut line = String::from(["{", "{ ", " {"][next(3)]);
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    line.push_str(seps[next(seps.len())]);
                }
                line.push_str(f);
            }
            line.push_str(["}", " }", "} "][next(3)]);
            lines.push(line.clone());
            // Mutants: each a few byte deletions and insertions.
            for _ in 0..4 {
                let mut bytes = line.clone().into_bytes();
                for _ in 0..1 + next(3) {
                    let at = next(bytes.len() + 1);
                    if next(2) == 0 && at < bytes.len() {
                        bytes.remove(at);
                    } else {
                        let ins = INSERTS[next(INSERTS.len())].as_bytes();
                        bytes.splice(at..at, ins.iter().copied());
                    }
                }
                if let Ok(m) = String::from_utf8(bytes) {
                    lines.push(m);
                }
            }
        }
        let (mut ok, mut err) = (0, 0);
        for (i, line) in lines.iter().enumerate() {
            let got = parse_event(line, i + 1);
            assert_eq!(got, reference::parse_event(line, i + 1), "line {line:?}");
            if got.is_ok() {
                ok += 1;
            } else {
                err += 1;
            }
        }
        assert!(ok > 1000 && err > 10000, "{ok} parsed, {err} rejected");
    }

    #[test]
    fn round_trips_every_event_kind() {
        let events = vec![
            Event::Begin { session: 3 },
            Event::Write {
                session: 3,
                key: 10,
                value: 7,
            },
            Event::Read {
                session: 3,
                key: 10,
                value: 7,
            },
            Event::Commit { session: 3 },
            Event::Abort { session: 4 },
        ];
        let text = write_events(&events);
        assert_eq!(parse_events(&text).unwrap(), events);
    }

    #[test]
    fn tolerates_field_order_whitespace_and_comments() {
        let text = r#"
# a collection agent comment
{ "key": 1, "value": 2, "type": "write", "session": 0 }

{"session":1,"type":"read","key":1,"value":2,"agent":"shard-7"}
"#;
        let events = parse_events(text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            Event::Write {
                session: 0,
                key: 1,
                value: 2
            }
        );
        assert_eq!(
            events[1],
            Event::Read {
                session: 1,
                key: 1,
                value: 2
            }
        );
    }

    #[test]
    fn ignored_fields_may_hold_any_scalar() {
        let text = r#"{"type":"begin","session":0,"durable":true,"lag":-3,"rate":0.5,"note":null,"agent":"a\"b"}"#;
        let events = parse_events(text).unwrap();
        assert_eq!(events, vec![Event::Begin { session: 0 }]);
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let err = parse_events("{\"type\":\"begin\",\"session\":0}\nnot json").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_events("{\"type\":\"warp\",\"session\":0}").unwrap_err();
        assert!(err.message.contains("unknown event type"));
        let err = parse_events("{\"type\":\"write\",\"session\":0}").unwrap_err();
        assert!(err.message.contains("key"));
    }

    #[test]
    fn history_round_trips_through_the_event_stream() {
        use awdit_core::{check, HistoryBuilder, IsolationLevel};
        use awdit_stream::{events_of_history, OnlineChecker};

        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        b.begin(s0);
        b.write(s0, 0, 1);
        b.write(s0, 1, 1);
        b.commit(s0);
        b.begin(s1);
        b.read(s1, 0, 1);
        b.commit(s1);
        let h = b.finish().unwrap();

        let text = write_events(&events_of_history(&h));
        let events = parse_events(&text).unwrap();
        let mut checker = OnlineChecker::new(IsolationLevel::Causal);
        for e in &events {
            checker.apply(e).unwrap();
        }
        let outcome = checker.finish().unwrap();
        assert_eq!(
            outcome.is_consistent(),
            check(&h, IsolationLevel::Causal).is_consistent()
        );
    }
}
