//! Differential suite for the streaming ingest pipeline.
//!
//! The refactor onto columnar storage + `HistorySink` readers must be
//! **observationally invisible**: for every format, the streaming reader
//! feeding any sink yields a `History` bit-identical to the whole-string
//! parser, round trips are exact (`parse ∘ write == id` on histories the
//! format can represent, after canonical session-major key interning),
//! checker verdicts agree at all three levels, and the engine's
//! `check_source` fast path recycles its ingest arenas instead of
//! materializing anything per history.

use std::io::BufReader;

use awdit::core::HistorySink;
use awdit::formats::{
    events_into_sink, history_of_events, parse_events, read_auto, read_events, write_events,
    write_events_to, write_history_to, Detected,
};
use awdit::stream::events_of_history;
use awdit::{
    check, collect_source, parse_history, replay_history, write_awb, write_history, DirSource,
    Engine, EngineConfig, Format, History, HistoryBuilder, IsolationLevel, Outcome, SimConfig,
    SimSource,
};
use awdit_simdb::DbIsolation;
use proptest::prelude::*;

/// A compact program describing a random history; every session is
/// guaranteed at least one transaction (so Cobra-style logs, which only
/// mention sessions carrying records, represent it exactly).
#[derive(Clone, Debug)]
#[allow(clippy::type_complexity)]
struct Program {
    sessions: usize,
    /// Per transaction: (session, ops), op = (key, is_read, stale_rank).
    txns: Vec<(usize, Vec<(u64, bool, usize)>)>,
    abort_mask: u64,
}

fn program(sessions: usize, committed_only: bool) -> impl Strategy<Value = Program> {
    let op = (0u64..5, any::<bool>(), 0usize..4);
    let txn = (0usize..sessions, proptest::collection::vec(op, 1..5));
    (proptest::collection::vec(txn, sessions..14), any::<u64>()).prop_map(
        move |(mut txns, mask)| {
            // The first `sessions` transactions cover every session.
            for (i, t) in txns.iter_mut().take(sessions).enumerate() {
                t.0 = i;
            }
            Program {
                sessions,
                txns,
                abort_mask: if committed_only { 0 } else { mask },
            }
        },
    )
}

/// Materializes a program, reads observing really-written values.
fn build(p: &Program) -> History {
    let mut b = HistoryBuilder::new();
    let sessions: Vec<_> = (0..p.sessions).map(|_| b.session()).collect();
    let mut committed: Vec<Vec<u64>> = vec![Vec::new(); 5];
    let mut next_value = 1u64;
    for (i, (s, ops)) in p.txns.iter().enumerate() {
        let sid = sessions[*s];
        b.begin(sid);
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut emitted = 0usize;
        for &(key, is_read, stale) in ops {
            if is_read {
                if let Some(&(_, v)) = pending.iter().rev().find(|(k, _)| *k == key) {
                    b.read(sid, key, v);
                    emitted += 1;
                } else {
                    let vs = &committed[key as usize];
                    if !vs.is_empty() {
                        let idx = vs.len().saturating_sub(1 + stale % vs.len());
                        b.read(sid, key, vs[idx]);
                        emitted += 1;
                    }
                }
            } else {
                let v = next_value;
                next_value += 1;
                b.write(sid, key, v);
                pending.push((key, v));
                emitted += 1;
            }
        }
        if emitted == 0 {
            // Plume cannot represent op-less transactions; keep every
            // generated transaction non-empty (dedicated unit tests cover
            // empty transactions for the formats that allow them).
            let v = next_value;
            next_value += 1;
            b.write(sid, 0, v);
            pending.push((0, v));
        }
        if p.abort_mask & (1 << (i % 64)) == 0 {
            b.commit(sid);
            for (k, v) in pending {
                committed[k as usize].push(v);
            }
        } else {
            b.abort(sid);
        }
    }
    b.finish().unwrap()
}

/// Canonical form: session-major replay, so key interning order matches
/// what any file format reader produces.
fn canonical(h: &History) -> History {
    let mut b = HistoryBuilder::new();
    replay_history(h, &mut b);
    b.finish().unwrap()
}

/// Everything observable about an outcome.
fn fingerprint(o: &Outcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        o.verdict(),
        o.violations(),
        o.commit_order(),
        o.stats()
    )
}

fn verdicts(h: &History) -> [bool; 3] {
    IsolationLevel::ALL.map(|l| check(h, l).is_consistent())
}

/// Streams `text` through the incremental reader with a pathological
/// 3-byte buffer, into a fresh builder.
fn stream_parse(text: &str, format: Format) -> History {
    let mut b = HistoryBuilder::new();
    let reader = BufReader::with_capacity(3, text.as_bytes());
    match format {
        Format::Native => awdit::formats::read_native(reader, &mut b).unwrap(),
        Format::Plume => awdit::formats::read_plume(reader, &mut b).unwrap(),
        Format::Dbcop => awdit::formats::read_dbcop(reader, &mut b).unwrap(),
        Format::Cobra => awdit::formats::read_cobra(reader, &mut b).unwrap(),
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `parse ∘ write == id` for the formats that represent aborted
    /// transactions (native, dbcop, cobra), plus serialization fixpoint
    /// and verdict agreement.
    #[test]
    fn round_trip_is_identity_with_aborts(p in program(3, false)) {
        let h = canonical(&build(&p));
        for format in [Format::Native, Format::Dbcop, Format::Cobra] {
            let text = write_history(&h, format);
            let h2 = parse_history(&text, format).unwrap();
            prop_assert_eq!(&h2, &h, "{} round trip", format);
            prop_assert_eq!(write_history(&h2, format), text, "{} fixpoint", format);
            prop_assert_eq!(verdicts(&h2), verdicts(&h), "{} verdicts", format);
        }
    }

    /// Plume cannot represent aborts: on fully-committed histories the
    /// round trip is exact there too.
    #[test]
    fn plume_round_trip_is_identity_when_committed_only(p in program(3, true)) {
        let h = canonical(&build(&p));
        let text = write_history(&h, Format::Plume);
        let h2 = parse_history(&text, Format::Plume).unwrap();
        prop_assert_eq!(&h2, &h);
        prop_assert_eq!(write_history(&h2, Format::Plume), text);
    }

    /// The streaming readers (tiny 3-byte buffers, any `BufRead`) are
    /// bit-identical to the whole-string parsers — and so is the engine's
    /// sink-ingest path, outcomes included.
    #[test]
    fn streaming_readers_match_string_parsers(p in program(3, false)) {
        let h = canonical(&build(&p));
        let mut engine = Engine::new();
        for format in [Format::Native, Format::Dbcop, Format::Cobra] {
            let text = write_history(&h, format);
            let from_str = parse_history(&text, format).unwrap();
            let from_stream = stream_parse(&text, format);
            prop_assert_eq!(&from_stream, &from_str, "{} stream vs string", format);

            // Engine as sink: same history lands in the recycled arena,
            // and the check outcome matches a cold check of the string
            // parse, at every level.
            for level in IsolationLevel::ALL {
                awdit::formats::read_history(text.as_bytes(), format, &mut engine).unwrap();
                let out = engine.finish_ingest_level(level).unwrap();
                prop_assert_eq!(engine.ingested(), &from_str, "{} ingest arena", format);
                prop_assert_eq!(
                    fingerprint(&out),
                    fingerprint(&check(&from_str, level)),
                    "{} outcome at {}", format, level
                );
            }
        }
    }

    /// NDJSON event streams: slice replay, incremental reader, and the
    /// history that produced the events all agree.
    #[test]
    fn event_streams_replay_exactly(p in program(3, false)) {
        let h = canonical(&build(&p));
        let events = events_of_history(&h);
        let text = write_events(&events);

        // Slice-based replay (the legacy entry point).
        let via_slice = history_of_events(&parse_events(&text).unwrap()).unwrap();
        // Incremental reader from a tiny-buffered BufRead.
        let mut b = HistoryBuilder::new();
        read_events(BufReader::with_capacity(3, text.as_bytes()), &mut b).unwrap();
        let via_reader = b.finish().unwrap();

        prop_assert_eq!(&via_reader, &via_slice);
        prop_assert_eq!(via_slice.size(), h.size());
        prop_assert_eq!(verdicts(&via_reader), verdicts(&h));

        // Streaming writer == string writer.
        let mut streamed = Vec::new();
        write_events_to(&events, &mut streamed).unwrap();
        prop_assert_eq!(String::from_utf8(streamed).unwrap(), text);
    }
}

/// Session ids from untrusted text end in a line-numbered `ParseError`
/// into either sink: an id that does not fit a `SessionId` would wrap
/// `id + 1` or allocate per id, and a DBCop session count creates no
/// session before its block is read.
#[test]
fn hostile_session_ids_are_parse_errors() {
    let inputs = [
        (
            "awdit-history v1\nsession 18446744073709551615\nc: w(1,1)\n",
            2,
        ),
        ("cobra-log\nT 18446744073709551615\n", 2),
        ("w(0,2,18446744073709551615,0)\n", 1),
        ("dbcop-history\nsessions 4000000000\n", 2),
    ];
    for (text, line) in inputs {
        let err = read_auto(text.as_bytes(), &mut HistoryBuilder::new()).unwrap_err();
        assert_eq!(err.line, line, "{text:?}: {err}");
        let mut engine = Engine::new();
        let err = read_auto(text.as_bytes(), &mut engine).unwrap_err();
        assert_eq!(err.line, line, "{text:?} into the engine: {err}");
    }
}

/// Empty transactions (representable everywhere except Plume) round-trip
/// exactly, including through the streaming readers.
#[test]
fn empty_transactions_round_trip() {
    let mut b = HistoryBuilder::new();
    let s0 = b.session();
    let s1 = b.session();
    b.begin(s0);
    b.commit(s0);
    b.begin(s1);
    b.write(s1, 1, 1);
    b.commit(s1);
    b.begin(s1);
    b.abort(s1);
    let h = b.finish().unwrap();
    for format in [Format::Native, Format::Dbcop, Format::Cobra] {
        let text = write_history(&h, format);
        assert_eq!(parse_history(&text, format).unwrap(), h, "{format}");
        assert_eq!(stream_parse(&text, format), h, "{format} streamed");
    }
}

/// `read_auto` sniffs every headered format (and plume) from a stream.
#[test]
fn read_auto_detects_all_formats() {
    let p = Program {
        sessions: 2,
        txns: vec![
            (0, vec![(1, false, 0), (2, false, 0)]),
            (1, vec![(1, true, 0)]),
        ],
        abort_mask: 0,
    };
    let h = canonical(&build(&p));
    for format in Format::ALL {
        let text = write_history(&h, format);
        let mut b = HistoryBuilder::new();
        let detected = read_auto(BufReader::with_capacity(2, text.as_bytes()), &mut b).unwrap();
        assert_eq!(detected, Detected::History(format), "{format}");
        assert_eq!(b.finish().unwrap(), h, "{format}");
    }
}

/// Streaming writers match the `String` writers byte for byte.
#[test]
fn streaming_writers_match_string_writers() {
    let config = SimConfig::new(DbIsolation::Causal, 6, 11).with_max_lag(4);
    let mut w = awdit_workloads::Uniform::default();
    let h = awdit::collect_history(config, &mut w, 300).unwrap();
    for format in Format::ALL {
        let mut streamed = Vec::new();
        write_history_to(&h, format, &mut streamed).unwrap();
        assert_eq!(
            String::from_utf8(streamed).unwrap(),
            write_history(&h, format),
            "{format}"
        );
    }
}

/// The `check_source` loop: a mixed-format directory — text files, an
/// NDJSON log, and the `.awb` twin that bulk-loads — checks to the same
/// verdicts as materialized per-history checks, every file is ingested identically
/// at 1 and 2 threads, and a second identical pass performs **zero**
/// arena growth: there is no per-history materialization left to
/// allocate.
#[test]
fn check_source_streams_with_zero_rework() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("awdit-ingest-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let config = SimConfig::new(DbIsolation::Causal, 4, 7).with_max_lag(4);
    let mut w = awdit_workloads::Uniform::default();
    let h = awdit::collect_history(config, &mut w, 2500).unwrap();
    std::fs::write(dir.join("a.awdit"), write_history(&h, Format::Native)).unwrap();
    std::fs::write(dir.join("b.dbcop"), write_history(&h, Format::Dbcop)).unwrap();
    std::fs::write(dir.join("c.cobra"), write_history(&h, Format::Cobra)).unwrap();
    std::fs::write(dir.join("d.ndjson"), write_events(&events_of_history(&h))).unwrap();
    std::fs::write(dir.join("e.awb"), write_awb(&h)).unwrap();

    let canon = canonical(&h);
    let expected = fingerprint(&check(&canon, IsolationLevel::Causal));
    let mut ingested_at_one: Vec<(String, History)> = Vec::new();
    for threads in [1, 2] {
        let mut engine = Engine::with_config(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        let mut ingested = Vec::new();
        engine
            .check_source(
                &mut DirSource::new(&dir).unwrap(),
                Some(IsolationLevel::Causal),
                |name, history, outs| {
                    assert_eq!(
                        fingerprint(&outs[0]),
                        expected,
                        "{name} at {threads} threads"
                    );
                    ingested.push((name, history.clone()));
                },
            )
            .unwrap();
        assert_eq!(ingested.len(), 5);
        if threads == 1 {
            ingested_at_one = ingested;
        } else {
            assert_eq!(
                ingested, ingested_at_one,
                "ingest diverged at {threads} threads"
            );
        }
        let growths = engine.stats().arena_growths;

        // Second identical pass: every arena (index, graph, clocks,
        // ingest builder, ingested history) must recycle.
        let mut checked = 0;
        engine
            .check_source(
                &mut DirSource::new(&dir).unwrap(),
                Some(IsolationLevel::Causal),
                |_, _, _| checked += 1,
            )
            .unwrap();
        assert_eq!(checked, 5);
        assert_eq!(
            engine.stats().arena_growths,
            growths,
            "same-shape check_source pass must not grow any arena at {threads} threads"
        );
    }

    let _ = std::fs::remove_dir_all(dir);
}

/// The simulator fleet's streaming edge produces the same named outcomes
/// as the materializing edge.
#[test]
fn sim_source_streaming_matches_materialized() {
    let base = SimConfig::new(DbIsolation::ReadAtomic, 4, 0).with_max_lag(6);
    let make = |_seed: u64| {
        let mut i = 0u64;
        move |_s: usize, _r: &mut rand::rngs::SmallRng| {
            i += 1;
            awdit_simdb::TxnSpec::new(vec![
                awdit_simdb::OpSpec::Write(i % 12),
                awdit_simdb::OpSpec::Read((i + 5) % 12),
            ])
        }
    };
    let mats = collect_source(&mut SimSource::new(base, 60, 3..7, make)).unwrap();

    let mut engine = Engine::new();
    let mut checked = 0;
    engine
        .check_source(
            &mut SimSource::new(base, 60, 3..7, make),
            Some(IsolationLevel::Causal),
            |name, _, outs| {
                let s = &mats[checked];
                assert_eq!(name, s.name);
                assert_eq!(
                    fingerprint(&outs[0]),
                    fingerprint(&check(&s.history, IsolationLevel::Causal)),
                    "{name}"
                );
                checked += 1;
            },
        )
        .unwrap();
    assert_eq!(checked, mats.len());
}

/// `events_into_sink` feeds any sink — including the engine directly.
#[test]
fn events_into_engine_sink() {
    let p = Program {
        sessions: 2,
        txns: vec![(0, vec![(0, false, 0)]), (1, vec![(0, true, 0)])],
        abort_mask: 0,
    };
    let h = canonical(&build(&p));
    let events = events_of_history(&h);
    let mut engine = Engine::new();
    events_into_sink(&events, &mut engine).unwrap();
    let out = engine.finish_ingest().unwrap();
    assert_eq!(engine.ingested(), &h);
    assert!(out.is_consistent());
}

/// Sessions created directly on the engine sink behave like the builder.
#[test]
fn engine_sink_builds_like_builder() {
    let mut engine = Engine::new();
    let s0 = HistorySink::session(&mut engine);
    let s1 = HistorySink::session(&mut engine);
    engine.begin(s0);
    engine.write(s0, 9, 1);
    engine.commit(s0);
    engine.begin(s1);
    engine.read(s1, 9, 1);
    engine.commit(s1);
    let out = engine.finish_ingest().unwrap();
    assert!(out.is_consistent());
    assert_eq!(engine.ingested().num_sessions(), 2);
    assert_eq!(engine.ingested().size(), 2);

    // Malformed ingest reports the builder's error and resets cleanly.
    let s = HistorySink::session(&mut engine);
    engine.begin(s);
    engine.write(s, 1, 1);
    assert!(engine.finish_ingest().is_err());
    let s = HistorySink::session(&mut engine);
    engine.begin(s);
    engine.write(s, 1, 1);
    engine.commit(s);
    assert!(engine.finish_ingest().unwrap().is_consistent());
}
