//! [`HistorySource`] implementations over the file formats: explicit file
//! lists, whole directories, and streaming NDJSON event logs.
//!
//! These are the "input edge" of the engine's one batch loop
//! ([`Engine::check_source`](awdit_core::Engine::check_source)): every
//! `awdit check` argument becomes a [`FilesSource`] or [`DirSource`] whose
//! files stream, one at a time, into the engine's recycled ingest arenas
//! (`.awb` files bulk-load, text files parse line by line at every thread
//! count), and a recorded `awdit watch` event log checks batch-style
//! through the same entry point (each NDJSON file replays into one
//! [`History`]).

use std::io::BufReader;
use std::path::{Path, PathBuf};

use awdit_core::{
    History, HistoryBuilder, HistorySink, HistorySource, SourceError, SourcedHistory,
};
use awdit_stream::Event;

use crate::binary::read_awb_path_into;
use crate::detect::{detect_bytes, detect_extension, looks_binary, read_prefix, Detected};
use crate::reader::LineReader;
use crate::stream::{read_events_lines, EventReplayer};
use crate::{read_history_lines, Format, ParseError};

/// Replays a transaction event stream into any [`HistorySink`] (sessions
/// numbered by first appearance) — the slice-based sibling of
/// [`read_events`](crate::read_events).
///
/// # Errors
///
/// Returns a message when the stream is ill-formed (events outside an
/// open transaction, nested `begin`s, or a stream ending with an open
/// transaction), prefixed with the offending event's index.
pub fn events_into_sink<S: HistorySink + ?Sized>(
    events: &[Event],
    sink: &mut S,
) -> Result<(), String> {
    let mut replay = EventReplayer::new();
    for (i, event) in events.iter().enumerate() {
        replay
            .apply(sink, event)
            .map_err(|m| format!("event {i}: {m}"))?;
    }
    replay.finish()
}

/// Replays a transaction event stream into a complete [`History`]
/// (sessions are numbered by first appearance).
///
/// The inverse of [`events_of_history`](awdit_stream::events_of_history):
/// per-session event order becomes session order, and the builder
/// resolves read sources exactly as any other parser would.
///
/// # Errors
///
/// Returns a message when the stream is ill-formed (events outside an
/// open transaction, nested `begin`s, or a history that fails to build).
pub fn history_of_events(events: &[Event]) -> Result<History, String> {
    let mut b = HistoryBuilder::new();
    events_into_sink(events, &mut b)?;
    b.finish().map_err(|e| e.to_string())
}

/// Streams one history file into `sink`, dispatching on
/// [`detect`](crate::detect) (content sniff first, extension fallback)
/// unless a [`Format`] is pinned: binary `.awb` files bulk-load (mmap
/// where available), while NDJSON event logs and text histories stream
/// line by line with no full-file buffer anywhere.
fn read_path_into(
    path: &Path,
    format: Option<Format>,
    sink: &mut (impl HistorySink + ?Sized),
) -> Result<(), String> {
    use std::io::{Seek, SeekFrom};

    let mut file = std::fs::File::open(path).map_err(|e| format!("cannot read: {e}"))?;
    let detected = match format {
        Some(f) => Detected::History(f),
        None => {
            let prefix = read_prefix(&mut file).map_err(|e| format!("cannot read: {e}"))?;
            // Content sniffing wins; binary-looking data must never fall
            // back to a *text* extension (it would misparse as UTF-8).
            let sniffed = match detect_bytes(&prefix) {
                Some(d) => Some(d),
                None if looks_binary(&prefix) => {
                    return Err("unrecognized binary data (not an .awb history)".to_string());
                }
                None => detect_extension(path),
            };
            match sniffed {
                Some(d) => {
                    file.seek(SeekFrom::Start(0))
                        .map_err(|e| format!("cannot read: {e}"))?;
                    d
                }
                None => {
                    return Err(ParseError::new(1, "unrecognized history format").to_string());
                }
            }
        }
    };
    match detected {
        Detected::Binary => {
            drop(file);
            read_awb_path_into(path, sink).map_err(|e| e.to_string())?;
        }
        Detected::Events => {
            let mut lines = LineReader::new(BufReader::new(file));
            read_events_lines(&mut lines, sink).map_err(|e| e.to_string())?;
        }
        Detected::History(f) => {
            let mut lines = LineReader::new(BufReader::new(file));
            read_history_lines(&mut lines, f, sink).map_err(|e| e.to_string())?;
        }
    }
    if let Some(metrics) = awdit_obs::current().metrics() {
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        metrics.counter("awdit_ingest_bytes_total").add(bytes);
    }
    Ok(())
}

/// A [`HistorySource`] over an explicit list of history files, yielded in
/// list order. Each file's kind — text format, binary `.awb`, NDJSON
/// event log — is auto-detected via [`detect`](crate::detect) unless
/// pinned with [`with_format`](Self::with_format).
#[derive(Clone, Debug)]
pub struct FilesSource {
    paths: Vec<PathBuf>,
    format: Option<Format>,
    pos: usize,
}

impl FilesSource {
    /// A source over the given paths, in order.
    pub fn new<I, P>(paths: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: Into<PathBuf>,
    {
        FilesSource {
            paths: paths.into_iter().map(Into::into).collect(),
            format: None,
            pos: 0,
        }
    }

    /// Pins every file to one explicit format instead of auto-detecting.
    pub fn with_format(mut self, format: Format) -> Self {
        self.format = Some(format);
        self
    }

    /// Number of files remaining.
    pub fn remaining(&self) -> usize {
        self.paths.len() - self.pos
    }

    /// Streams the file at `path` into `sink`, returning its display name.
    fn load_into(
        &mut self,
        path: &Path,
        sink: &mut (impl HistorySink + ?Sized),
    ) -> Result<String, SourceError> {
        let origin = path.display().to_string();
        read_path_into(path, self.format, sink).map_err(|message| SourceError {
            origin: origin.clone(),
            message,
        })?;
        Ok(origin)
    }

    fn load(&mut self, path: &Path) -> Result<SourcedHistory, SourceError> {
        let mut b = HistoryBuilder::new();
        let name = self.load_into(path, &mut b)?;
        let history = b.finish().map_err(|e| SourceError {
            origin: name.clone(),
            message: e.to_string(),
        })?;
        Ok(SourcedHistory { name, history })
    }
}

impl HistorySource for FilesSource {
    fn next_history(&mut self) -> Option<Result<SourcedHistory, SourceError>> {
        let path = self.paths.get(self.pos)?.clone();
        self.pos += 1;
        Some(self.load(&path))
    }

    /// The streaming edge: the file's records are pushed into `sink` as
    /// they are read — never materializing a [`History`], which is what
    /// lets [`Engine::check_source`](awdit_core::Engine::check_source)
    /// ingest straight into its recycled arenas.
    fn next_into(
        &mut self,
        sink: &mut dyn awdit_core::HistorySink,
    ) -> Option<Result<String, SourceError>> {
        let path = self.paths.get(self.pos)?.clone();
        self.pos += 1;
        Some(self.load_into(&path, sink))
    }
}

/// A [`HistorySource`] over every regular file of a directory, sorted by
/// file name for deterministic batch order (subdirectories are skipped).
#[derive(Clone, Debug)]
pub struct DirSource {
    inner: FilesSource,
}

impl DirSource {
    /// Scans `dir` and builds the sorted file list eagerly.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be read.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, SourceError> {
        let dir = dir.as_ref();
        let origin = dir.display().to_string();
        let entries = std::fs::read_dir(dir).map_err(|e| SourceError {
            origin: origin.clone(),
            message: format!("cannot read directory: {e}"),
        })?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| SourceError {
                origin: origin.clone(),
                message: format!("cannot read directory entry: {e}"),
            })?;
            let path = entry.path();
            if path.is_file() {
                paths.push(path);
            }
        }
        paths.sort();
        Ok(DirSource {
            inner: FilesSource::new(paths),
        })
    }

    /// Pins every file to one explicit format instead of auto-detecting.
    pub fn with_format(mut self, format: Format) -> Self {
        self.inner = self.inner.with_format(format);
        self
    }

    /// Number of files found.
    pub fn len(&self) -> usize {
        self.inner.remaining()
    }

    /// Whether the directory held no regular files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl HistorySource for DirSource {
    fn next_history(&mut self) -> Option<Result<SourcedHistory, SourceError>> {
        self.inner.next_history()
    }

    fn next_into(
        &mut self,
        sink: &mut dyn awdit_core::HistorySink,
    ) -> Option<Result<String, SourceError>> {
        self.inner.next_into(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_core::{check, collect_source, Engine, IsolationLevel};
    use awdit_stream::events_of_history;

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
        b.abort(s1);
        b.finish().unwrap()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("awdit-source-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn events_round_trip_to_history() {
        let h = sample();
        let events = events_of_history(&h);
        let h2 = history_of_events(&events).unwrap();
        assert_eq!(h.num_txns(), h2.num_txns());
        assert_eq!(h.size(), h2.size());
        for level in IsolationLevel::ALL {
            assert_eq!(
                check(&h, level).is_consistent(),
                check(&h2, level).is_consistent()
            );
        }
    }

    #[test]
    fn malformed_event_streams_are_rejected() {
        let bad = [Event::Commit { session: 0 }];
        assert!(history_of_events(&bad).is_err());
        let bad = [Event::Begin { session: 0 }, Event::Begin { session: 0 }];
        assert!(history_of_events(&bad).is_err());
        let bad = [Event::Begin { session: 0 }];
        assert!(history_of_events(&bad).is_err());
    }

    fn committed_sample() -> History {
        // Plume-style files drop aborted transactions, so the cross-format
        // directory test uses a fully-committed history.
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
    fn dir_source_finds_files_sorted_and_mixed_formats() {
        let dir = tmpdir("dir");
        let h = committed_sample();
        std::fs::write(
            dir.join("b.awdit"),
            crate::write_history(&h, Format::Native),
        )
        .unwrap();
        std::fs::write(dir.join("a.plume"), crate::write_history(&h, Format::Plume)).unwrap();
        std::fs::write(
            dir.join("c.ndjson"),
            crate::write_events(&events_of_history(&h)),
        )
        .unwrap();
        let mut src = DirSource::new(&dir).unwrap();
        assert_eq!(src.len(), 3);
        let all = collect_source(&mut src).unwrap();
        assert_eq!(all.len(), 3);
        assert!(all[0].name.ends_with("a.plume"));
        assert!(all[1].name.ends_with("b.awdit"));
        assert!(all[2].name.ends_with("c.ndjson"));
        for s in &all {
            assert_eq!(s.history.size(), h.size(), "{}", s.name);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn files_source_reports_errors_with_origin() {
        let dir = tmpdir("err");
        let bad = dir.join("bad.awdit");
        std::fs::write(&bad, "definitely not a history\n").unwrap();
        let missing = dir.join("missing.awdit");
        let mut src = FilesSource::new([bad.clone(), missing.clone()]);
        let err = src.next_history().unwrap().unwrap_err();
        assert!(err.origin.ends_with("bad.awdit"));
        let err = src.next_history().unwrap().unwrap_err();
        assert!(err.message.contains("cannot read"), "{err}");
        assert!(src.next_history().is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn engine_checks_a_directory_source() {
        let dir = tmpdir("engine");
        let h = sample();
        for i in 0..3 {
            std::fs::write(
                dir.join(format!("h{i}.awdit")),
                crate::write_history(&h, Format::Native),
            )
            .unwrap();
        }
        let mut engine = Engine::new();
        let mut src = DirSource::new(&dir).unwrap();
        let mut names = Vec::new();
        engine
            .check_source(&mut src, Some(IsolationLevel::Causal), |name, _, outs| {
                assert!(outs[0].is_consistent(), "{name}");
                names.push(name);
            })
            .unwrap();
        assert_eq!(names.len(), 3);
        assert!(names[0].ends_with("h0.awdit"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
