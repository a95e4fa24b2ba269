//! # awdit-formats — history file formats
//!
//! The AWDIT tool "parses database transaction histories in various
//! formats also used by other isolation testers such as Plume, PolySI,
//! DBCop, and Cobra" (Section 5). This crate provides writers and parsers
//! for four text formats:
//!
//! | Format | Module | Shape |
//! |---|---|---|
//! | native | [`native`] | session blocks, one transaction per line |
//! | Plume-style | [`plume`] | one `op(key,value,session,txn)` per line |
//! | DBCop-style | [`dbcop`] | counted sessions/transactions/operations |
//! | Cobra-style | [`cobra`] | tagged per-session log records |
//! | streaming NDJSON | [`stream`] | one transaction event per line (for `awdit watch`) |
//!
//! Every text format has one parser: an incremental reader that pulls
//! one line at a time through a [`LineReader`] (see [`reader`]), at every
//! thread count. Beyond the text formats, [`binary`] defines the
//! mmap-able binary columnar `.awb` format, and [`detect`] centralizes
//! content-sniff-then-extension dispatch across every kind of input.
//! [`detect_format`] sniffs a text header, and [`parse_auto`] parses
//! whichever format it finds.
//!
//! Two further modules form the edges of the engine API: [`source`]
//! implements [`HistorySource`](awdit_core::HistorySource) over file
//! lists, directories, and NDJSON event logs, and [`report`] defines the
//! versioned machine-readable JSON [`Report`] schema with pluggable
//! [`ReportSink`]s.
//!
//! ```
//! use awdit_formats::{parse_auto, write_history, Format};
//! use awdit_core::HistoryBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HistoryBuilder::new();
//! let s = b.session();
//! b.begin(s);
//! b.write(s, 1, 1);
//! b.commit(s);
//! let history = b.finish()?;
//!
//! let text = write_history(&history, Format::Native);
//! let parsed = parse_auto(&text)?;
//! assert_eq!(parsed.size(), 1);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the one `#[allow(unsafe_code)]` island is
// the tiny mmap wrapper in [`binary`].
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod cobra;
pub mod dbcop;
pub mod detect;
pub mod error;
pub mod native;
pub mod plume;
pub mod reader;
pub mod report;
pub mod source;
pub mod stream;

pub use binary::{
    decode_awb_into, decode_awb_into_sink, parse_awb, read_awb_path_into, sniff_awb, write_awb,
    write_awb_to, AwbError, AWB_EXTENSION, AWB_MAGIC, AWB_VERSION,
};
pub use cobra::{parse_cobra, read_cobra, write_cobra, write_cobra_to, COBRA_HEADER};
pub use dbcop::{parse_dbcop, read_dbcop, write_dbcop, write_dbcop_to, DBCOP_HEADER};
pub use detect::{
    detect_bytes, detect_extension, detect_path, looks_binary, Detected, SNIFF_BYTES,
};
pub use error::ParseError;
pub use native::{parse_native, read_native, write_native, write_native_to, NATIVE_HEADER};
pub use plume::{parse_plume, read_plume, write_plume, write_plume_to};
pub use reader::LineReader;
pub use report::{
    history_stats_json, EdgeReport, EngineStatsReport, HistoryReport, JsonSink, LevelReport,
    PhaseTimingReport, Report, ReportSink, TextSink, ViolationReport, MIN_SCHEMA_VERSION,
    SCHEMA_VERSION,
};
pub use source::{events_into_sink, history_of_events, DirSource, FilesSource};
pub use stream::{
    parse_event, parse_events, read_events, write_event, write_event_to, write_events,
    write_events_to, write_history_events_to,
};

use std::io::{BufRead, Write};

use awdit_core::{History, HistorySink};

/// The supported history file formats.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Format {
    /// The native AWDIT format.
    Native,
    /// Plume-style one-op-per-line.
    Plume,
    /// DBCop-style counted records.
    Dbcop,
    /// Cobra-style tagged log.
    Cobra,
}

impl Format {
    /// All formats.
    pub const ALL: [Format; 4] = [Format::Native, Format::Plume, Format::Dbcop, Format::Cobra];

    /// Conventional file extension.
    pub fn extension(self) -> &'static str {
        match self {
            Format::Native => "awdit",
            Format::Plume => "plume",
            Format::Dbcop => "dbcop",
            Format::Cobra => "cobra",
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.extension())
    }
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "native" | "awdit" => Ok(Format::Native),
            "plume" => Ok(Format::Plume),
            "dbcop" => Ok(Format::Dbcop),
            "cobra" => Ok(Format::Cobra),
            _ => Err(format!("unknown format `{s}`")),
        }
    }
}

/// Sniffs the format from the first non-empty line. Headerless input is
/// assumed Plume-style (the only format without a header) when its first
/// line looks like an operation.
pub fn detect_format(text: &str) -> Option<Format> {
    let first = text.lines().find(|l| !l.trim().is_empty())?.trim();
    classify_first_line(first)
}

/// Streams `history` out in the chosen format (the allocation-free form
/// of [`write_history`]; wrap files in a `BufWriter`).
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_history_to<W: Write + ?Sized>(
    history: &History,
    format: Format,
    out: &mut W,
) -> std::io::Result<()> {
    match format {
        Format::Native => write_native_to(history, out),
        Format::Plume => write_plume_to(history, out),
        Format::Dbcop => write_dbcop_to(history, out),
        Format::Cobra => write_cobra_to(history, out),
    }
}

/// Serializes `history` in the chosen format.
pub fn write_history(history: &History, format: Format) -> String {
    match format {
        Format::Native => write_native(history),
        Format::Plume => write_plume(history),
        Format::Dbcop => write_dbcop(history),
        Format::Cobra => write_cobra(history),
    }
}

/// Incrementally reads a history in the chosen format from any
/// [`BufRead`], emitting events into `sink` as records are consumed — no
/// full-input buffering anywhere.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or I/O failure; the sink
/// may hold a partial history by then (discard it, e.g. with
/// [`HistoryBuilder::reset`](awdit_core::HistoryBuilder::reset)).
pub fn read_history<R: BufRead, S: HistorySink + ?Sized>(
    input: R,
    format: Format,
    sink: &mut S,
) -> Result<(), ParseError> {
    read_history_lines(&mut LineReader::new(input), format, sink)
}

pub(crate) fn read_history_lines<R: BufRead, S: HistorySink + ?Sized>(
    lines: &mut LineReader<R>,
    format: Format,
    sink: &mut S,
) -> Result<(), ParseError> {
    match format {
        Format::Native => native::read_native_lines(lines, sink),
        Format::Plume => plume::read_plume_lines(lines, sink),
        Format::Dbcop => dbcop::read_dbcop_lines(lines, sink),
        Format::Cobra => cobra::read_cobra_lines(lines, sink),
    }
}

/// [`detect_format`]'s per-line core.
pub(crate) fn classify_first_line(first: &str) -> Option<Format> {
    if first == NATIVE_HEADER {
        Some(Format::Native)
    } else if first == DBCOP_HEADER {
        Some(Format::Dbcop)
    } else if first == COBRA_HEADER {
        Some(Format::Cobra)
    } else if first.starts_with("w(") || first.starts_with("r(") {
        Some(Format::Plume)
    } else {
        None
    }
}

/// Detects the kind of input from any [`BufRead`] and reads into `sink`,
/// returning what was detected — the streaming form of [`parse_auto`]
/// that additionally understands binary `.awb` histories and NDJSON
/// event logs.
///
/// # Errors
///
/// Returns a [`ParseError`] if the input cannot be classified, on
/// malformed input, or on I/O failure.
pub fn read_auto<R: BufRead, S: HistorySink + ?Sized>(
    mut input: R,
    sink: &mut S,
) -> Result<Detected, ParseError> {
    use std::io::Read;

    // Pull just enough bytes to check for the `.awb` magic without
    // assuming the input is text.
    let mut prefix = Vec::with_capacity(AWB_MAGIC.len());
    (&mut input)
        .take(AWB_MAGIC.len() as u64)
        .read_to_end(&mut prefix)
        .map_err(|e| ParseError::new(0, format!("cannot read: {e}")))?;
    if sniff_awb(&prefix) {
        let mut bytes = prefix;
        input
            .read_to_end(&mut bytes)
            .map_err(|e| ParseError::new(0, format!("cannot read: {e}")))?;
        decode_awb_into_sink(&bytes, sink).map_err(|e| ParseError::new(0, e.to_string()))?;
        return Ok(Detected::Binary);
    }

    let mut lines = LineReader::new(prefix.as_slice().chain(input));
    let unrecognized = |lines: &LineReader<_>| {
        ParseError::new(lines.line_no().max(1), "unrecognized history format")
    };
    if !lines.skip_blank_lines()? {
        return Err(unrecognized(&lines));
    }
    let Some((line, _)) = lines.peek_line()? else {
        return Err(unrecognized(&lines));
    };
    if line.trim_start().starts_with('{') {
        stream::read_events_lines(&mut lines, sink)?;
        return Ok(Detected::Events);
    }
    let format = classify_first_line(line.trim()).ok_or_else(|| unrecognized(&lines))?;
    read_history_lines(&mut lines, format, sink)?;
    Ok(Detected::History(format))
}

/// Parses `text` in the chosen format.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_history(text: &str, format: Format) -> Result<History, ParseError> {
    match format {
        Format::Native => parse_native(text),
        Format::Plume => parse_plume(text),
        Format::Dbcop => parse_dbcop(text),
        Format::Cobra => parse_cobra(text),
    }
}

/// Detects the format and parses.
///
/// # Errors
///
/// Returns a [`ParseError`] if the format cannot be detected or the input
/// is malformed.
pub fn parse_auto(text: &str) -> Result<History, ParseError> {
    let format = detect_format(text)
        .ok_or_else(|| ParseError::new(1, "unrecognized history format".to_string()))?;
    parse_history(text, format)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_core::{check, HistoryBuilder, HistoryStats, IsolationLevel};

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
    fn detection_round_trips_all_formats() {
        let h = sample();
        for format in Format::ALL {
            let text = write_history(&h, format);
            assert_eq!(detect_format(&text), Some(format), "{format}");
            let h2 = parse_auto(&text).unwrap();
            assert_eq!(
                HistoryStats::of(&h).ops,
                HistoryStats::of(&h2).ops,
                "{format}"
            );
            for level in IsolationLevel::ALL {
                assert_eq!(
                    check(&h, level).is_consistent(),
                    check(&h2, level).is_consistent(),
                    "{format} {level}"
                );
            }
        }
    }

    #[test]
    fn format_names_parse() {
        for f in Format::ALL {
            let parsed: Format = f.extension().parse().unwrap();
            assert_eq!(parsed, f);
        }
        assert!("json".parse::<Format>().is_err());
    }

    #[test]
    fn unknown_input_is_rejected() {
        assert_eq!(detect_format("hello world\n"), None);
        assert!(parse_auto("hello world\n").is_err());
        assert_eq!(detect_format(""), None);
    }
}
