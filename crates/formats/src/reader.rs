//! Incremental line reading shared by the streaming format readers.
//!
//! Every parser in this crate is an *incremental reader*: it pulls one
//! line at a time from any [`BufRead`] through a [`LineReader`] and emits
//! history events into a [`HistorySink`] as it goes — no full-file
//! `String`, no intermediate nested representation.
//! The reader tracks absolute line numbers (for [`ParseError`]s) and
//! offers single-line lookahead, which is what format sniffing needs:
//! peek the first meaningful line, pick a parser, and hand it the same
//! reader with the line still unconsumed.

use std::io::BufRead;

use awdit_core::{HistorySink, SessionId};

use crate::error::ParseError;

/// A line-at-a-time reader over any [`BufRead`] with 1-based line
/// numbers, single-line lookahead, and I/O errors surfaced as
/// [`ParseError`]s.
#[derive(Debug)]
pub struct LineReader<R> {
    input: R,
    buf: String,
    line_no: usize,
    /// `buf` holds a line that was peeked but not yet consumed.
    peeked: bool,
}

impl<R: BufRead> LineReader<R> {
    /// A reader starting at line 1.
    pub fn new(input: R) -> Self {
        LineReader {
            input,
            buf: String::new(),
            line_no: 0,
            peeked: false,
        }
    }

    /// Reads the next raw line into `buf` (without the trailing newline).
    /// Returns `false` at end of input.
    fn fill(&mut self) -> Result<bool, ParseError> {
        self.buf.clear();
        let n = self
            .input
            .read_line(&mut self.buf)
            .map_err(|e| ParseError::new(self.line_no + 1, format!("read error: {e}")))?;
        if n == 0 {
            return Ok(false);
        }
        if self.buf.ends_with('\n') {
            self.buf.pop();
            if self.buf.ends_with('\r') {
                self.buf.pop();
            }
        }
        self.line_no += 1;
        Ok(true)
    }

    /// Consumes and returns the next line with its 1-based number, or
    /// `None` at end of input.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`ParseError`]s.
    pub fn next_line(&mut self) -> Result<Option<(&str, usize)>, ParseError> {
        if self.peeked {
            self.peeked = false;
            return Ok(Some((&self.buf, self.line_no)));
        }
        if self.fill()? {
            Ok(Some((&self.buf, self.line_no)))
        } else {
            Ok(None)
        }
    }

    /// Returns the next line without consuming it (a subsequent
    /// [`next_line`](Self::next_line) yields the same line), or `None` at
    /// end of input.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`ParseError`]s.
    pub fn peek_line(&mut self) -> Result<Option<(&str, usize)>, ParseError> {
        if !self.peeked {
            if !self.fill()? {
                return Ok(None);
            }
            self.peeked = true;
        }
        Ok(Some((&self.buf, self.line_no)))
    }

    /// Consumes blank lines, leaving the first non-blank line peeked.
    /// Returns `true` if such a line exists.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`ParseError`]s.
    pub fn skip_blank_lines(&mut self) -> Result<bool, ParseError> {
        loop {
            match self.peek_line()? {
                None => return Ok(false),
                Some((line, _)) if line.trim().is_empty() => {
                    self.peeked = false;
                }
                Some(_) => return Ok(true),
            }
        }
    }

    /// The number of the most recently read line (0 before the first).
    pub fn line_no(&self) -> usize {
        self.line_no
    }
}

/// Consumes lines until the first that is non-empty after `#`-comment
/// stripping, which must equal `header` — the shared header scan of the
/// native and Cobra readers.
pub(crate) fn expect_header<R: BufRead>(
    lines: &mut LineReader<R>,
    header: &str,
) -> Result<(), ParseError> {
    loop {
        match lines.next_line()? {
            None => {
                return Err(ParseError::new(
                    lines.line_no().max(1),
                    format!("expected header `{header}`"),
                ))
            }
            Some((raw, lineno)) => {
                let line = raw.split('#').next().unwrap_or("").trim();
                if line.is_empty() {
                    continue;
                }
                if line != header {
                    return Err(ParseError::new(
                        lineno,
                        format!("expected header `{header}`, found `{line}`"),
                    ));
                }
                return Ok(());
            }
        }
    }
}

/// Creates sessions `0..=id` in `sink` and returns session `id` — the
/// shared session step of the text readers. An id that does not fit a
/// [`SessionId`] (`u32::MAX` and up) is an error at line `lineno`, so an
/// untrusted file cannot wrap `id + 1` or overflow the id.
pub(crate) fn open_session<S: HistorySink + ?Sized>(
    sink: &mut S,
    id: usize,
    lineno: usize,
) -> Result<SessionId, ParseError> {
    if id >= u32::MAX as usize {
        return Err(ParseError::new(
            lineno,
            format!("session id {id} out of range (at most {})", u32::MAX - 1),
        ));
    }
    sink.ensure_sessions(id + 1);
    Ok(SessionId(id as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_numbered_and_peekable() {
        let mut r = LineReader::new("a\nb\r\n\nc".as_bytes());
        assert_eq!(r.peek_line().unwrap(), Some(("a", 1)));
        assert_eq!(r.next_line().unwrap(), Some(("a", 1)));
        assert_eq!(r.next_line().unwrap(), Some(("b", 2)));
        assert!(r.skip_blank_lines().unwrap());
        assert_eq!(r.next_line().unwrap(), Some(("c", 4)));
        assert_eq!(r.next_line().unwrap(), None);
        assert!(!r.skip_blank_lines().unwrap());
    }

    #[test]
    fn empty_input_is_clean_eof() {
        let mut r = LineReader::new("".as_bytes());
        assert_eq!(r.peek_line().unwrap(), None);
        assert_eq!(r.next_line().unwrap(), None);
    }
}
