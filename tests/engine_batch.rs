//! Differential suite for the engine API's batch path:
//! [`Engine::check_source`] must report outcomes **in source order** that
//! are identical — verdict, violation list, witness cycles, commit
//! order, stats — to checking each history on a fresh [`Engine`] with
//! the same config, across all three isolation levels (one at a time and
//! all together) × threads {1, 2, 8}; plus
//! the allocation-reuse regression guard (a second same-shape check
//! through one engine performs no arena growth, observed via
//! [`EngineStats::arena_growths`]); plus the file edge: every text format
//! and parse errors come out of `check_source` the same at every thread
//! count.

use awdit::baselines::{check_naive, random_noisy_history, random_plausible_history, GenParams};
use awdit::core::parallel::{Pool, SEQUENTIAL_CUTOFF};
use awdit::core::HistoryIndex;
use awdit::{
    check, collect_history, read_history, replay_history, validate_commit_order, write_history,
    DbIsolation, DirSource, Engine, EngineConfig, FilesSource, Format, History, HistoryBuilder,
    IsolationLevel, Outcome, SimConfig, SourceError, SourcedHistory,
};
use awdit_workloads::Uniform;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Everything observable about an [`Outcome`], as one comparable string.
fn fingerprint(o: &Outcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        o.verdict(),
        o.violations(),
        o.commit_order(),
        o.stats()
    )
}

/// A mixed batch: small plausible/noisy generated histories (both
/// consistent and violating) plus wide simulator histories large enough
/// to clear the saturators' sequential cutoff.
fn mixed_batch() -> Vec<History> {
    let mut batch = Vec::new();
    for seed in 0..8u64 {
        let params = GenParams {
            sessions: 1 + (seed as usize % 4),
            txns: 8 + (seed as usize % 17),
            keys: 2 + seed % 5,
            max_txn_ops: 2 + (seed as usize % 4),
            read_ratio: 0.3 + 0.1 * ((seed % 4) as f64),
            staleness: 0.25 * ((seed % 4) as f64),
        };
        batch.push(random_plausible_history(seed, params));
        batch.push(random_noisy_history(seed, params));
    }
    for (seed, db) in [
        (1u64, DbIsolation::Causal),
        (2, DbIsolation::ReadAtomic),
        (3, DbIsolation::ReadCommitted),
    ] {
        let config = SimConfig::new(db, 16, seed).with_max_lag(8);
        let mut w = Uniform::default();
        batch.push(collect_history(config, &mut w, 700).expect("history builds"));
    }
    batch
}

/// The batch as an in-memory [`HistorySource`], named by position.
fn source(batch: &[History]) -> impl Iterator<Item = Result<SourcedHistory, SourceError>> + '_ {
    batch.iter().enumerate().map(|(i, h)| {
        Ok(SourcedHistory {
            name: format!("h{i}"),
            history: h.clone(),
        })
    })
}

/// Every outcome fingerprint `check_source` reports for `batch`, one
/// inner list per history, after checking that histories arrive in
/// source order and are ingested exactly.
fn check_batch(
    engine: &mut Engine,
    batch: &[History],
    level: Option<IsolationLevel>,
) -> Vec<Vec<String>> {
    let mut got = Vec::new();
    engine
        .check_source(&mut source(batch), level, |name, h, outs| {
            let i = got.len();
            assert_eq!(name, format!("h{i}"), "source order");
            assert_eq!(h, &canonical(&batch[i]), "history {i} ingested exactly");
            got.push(outs.iter().map(fingerprint).collect());
        })
        .expect("in-memory sources cannot fail");
    got
}

/// The history the engine's ingest arena holds after replaying `h`.
fn canonical(h: &History) -> History {
    let mut b = HistoryBuilder::new();
    replay_history(h, &mut b);
    b.finish().unwrap()
}

#[test]
fn check_source_is_identical_to_per_history_checks() {
    let batch = mixed_batch();
    for threads in THREAD_COUNTS {
        let cfg = EngineConfig {
            want_commit_order: true,
            threads,
            ..EngineConfig::default()
        };
        let mut per_level = Vec::new();
        for level in IsolationLevel::ALL {
            let reference: Vec<Vec<String>> = batch
                .iter()
                .map(|h| {
                    vec![fingerprint(
                        &Engine::with_config(cfg).check_level(&canonical(h), level),
                    )]
                })
                .collect();
            let got = check_batch(&mut Engine::with_config(cfg), &batch, Some(level));
            assert_eq!(
                reference, got,
                "check_source diverged from per-history checks \
                 (level {level}, threads {threads})"
            );
            per_level.push(got);
        }
        // All three levels over one shared index agree with the
        // per-level passes.
        let all = check_batch(&mut Engine::with_config(cfg), &batch, None);
        for (i, outs) in all.iter().enumerate() {
            let expected: Vec<String> = per_level.iter().map(|l| l[i][0].clone()).collect();
            assert_eq!(
                outs, &expected,
                "history {i}, all levels, threads {threads}"
            );
        }
    }
}

/// Causal checks through `check_source` are identical at every thread
/// count, and agree with the independent oracles: each verdict with
/// `check_naive`, each commit order with the axiom validator.
#[test]
fn check_source_cc_agrees_across_threads_and_with_oracles() {
    let batch = mixed_batch();
    let cfg = EngineConfig {
        want_commit_order: true,
        ..EngineConfig::default()
    };
    let causal = IsolationLevel::Causal;
    let reference = check_batch(&mut Engine::with_config(cfg), &batch, Some(causal));
    for threads in THREAD_COUNTS {
        let mut engine = Engine::with_config(EngineConfig { threads, ..cfg });
        let got = check_batch(&mut engine, &batch, Some(causal));
        assert_eq!(reference, got, "threads {threads}");
    }
    for (i, h) in batch.iter().map(canonical).enumerate() {
        let out = Engine::with_config(cfg).check_level(&h, causal);
        assert_eq!(reference[i], [fingerprint(&out)], "history {i}");
        assert_eq!(
            out.is_consistent(),
            check_naive(&h, causal),
            "history {i}: naive"
        );
        if let Some(order) = out.commit_order() {
            validate_commit_order(&h, causal, order)
                .unwrap_or_else(|e| panic!("history {i}: commit order: {e}"));
        }
    }
}

#[test]
fn check_source_preserves_source_order_on_distinct_shapes() {
    // Histories of visibly different sizes: outcome i must describe
    // history i.
    let mut batch = Vec::new();
    for n in [5usize, 17, 2, 29, 11, 23, 3, 13] {
        let config = SimConfig::new(DbIsolation::Causal, 3, n as u64);
        let mut w = Uniform::default();
        batch.push(collect_history(config, &mut w, n).expect("history builds"));
    }
    let mut engine = Engine::with_config(EngineConfig {
        threads: 8,
        ..EngineConfig::default()
    });
    let outcomes = check_batch(&mut engine, &batch, Some(IsolationLevel::Causal));
    assert_eq!(outcomes.len(), batch.len());
    for (i, (h, o)) in batch.iter().zip(&outcomes).enumerate() {
        let expected = check(&canonical(h), IsolationLevel::Causal);
        assert_eq!(o, &vec![fingerprint(&expected)], "history {i}");
    }
    assert_eq!(engine.stats().histories, batch.len() as u64);
}

/// The allocation-reuse regression guard: the first check grows the
/// engine's arenas from empty; every further check of a same-shape
/// history must recycle them (no growth events), across single checks
/// and all-levels sweeps.
#[test]
fn second_same_shape_check_performs_no_arena_growth() {
    let config = SimConfig::new(DbIsolation::Causal, 16, 42).with_max_lag(8);
    let mut w = Uniform::default();
    let h = collect_history(config, &mut w, 1500).expect("history builds");

    let mut engine = Engine::new();
    engine.check(&h);
    let first = engine.stats();
    assert_eq!(first.arena_growths, 1, "first check grows from empty");
    assert!(first.arena_bytes > 0);

    for _ in 0..3 {
        engine.check(&h);
    }
    let after = engine.stats();
    assert_eq!(
        after.arena_growths, 1,
        "repeat checks of a same-shape history must not grow any arena"
    );
    assert_eq!(after.arena_bytes, first.arena_bytes);
    assert_eq!(after.histories, 4);

    // The multi-level sweep reuses the same arenas; RA/RC graphs are no
    // larger than CC's for this history shape, so no growth either way
    // is required once the big level has run.
    engine.check_all_levels(&h);
    let sweep = engine.stats();
    engine.check_all_levels(&h);
    assert_eq!(
        engine.stats().arena_growths,
        sweep.arena_growths,
        "repeat all-levels sweeps must not grow arenas"
    );
}

/// The CC happens-before clock table is one of the engine's recycled
/// arenas: its bytes show up in the accounting, the first causal check
/// grows it, and repeats recycle it.
#[test]
fn cc_clock_table_is_a_recycled_engine_arena() {
    let config = SimConfig::new(DbIsolation::Causal, 16, 77).with_max_lag(8);
    let mut w = Uniform::default();
    let h = collect_history(config, &mut w, 1200).expect("history builds");

    // Reference footprint: the same engine shape with the clock table
    // still empty (read-committed checks never touch it).
    let mut rc = Engine::with_config(EngineConfig {
        level: IsolationLevel::ReadCommitted,
        ..EngineConfig::default()
    });
    rc.check(&h);
    let rc_bytes = rc.stats().arena_bytes;

    let mut engine = Engine::new();
    engine.check(&h);
    let first = engine.stats();
    assert_eq!(first.arena_growths, 1, "first check grows");
    for _ in 0..3 {
        engine.check(&h);
    }
    let after = engine.stats();
    assert_eq!(
        after.arena_growths, 1,
        "same-shape causal checks must recycle the clock table"
    );
    assert_eq!(after.arena_bytes, first.arena_bytes);
    // The clock table's live rows and per-transaction counters must be
    // visible in the arena accounting.
    assert!(
        first.arena_bytes > rc_bytes,
        "clock table bytes missing from accounting: CC {} <= RC {}",
        first.arena_bytes,
        rc_bytes
    );
}

/// After a CC check the arena footprint is the same at every thread
/// count: the clock rows are bounded by the same blocks, and the fixed
/// inference shards fill the same pair buffers.
#[test]
fn cc_arena_bytes_are_thread_invariant() {
    let config = SimConfig::new(DbIsolation::Causal, 16, 5).with_max_lag(8);
    let h = collect_history(config, &mut Uniform::default(), 20_000).expect("history builds");
    let bytes: Vec<usize> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mut engine = Engine::with_config(EngineConfig {
                level: IsolationLevel::Causal,
                threads,
                ..EngineConfig::default()
            });
            assert!(engine.check(&h).is_consistent());
            engine.stats().arena_bytes
        })
        .collect();
    assert!(
        bytes.iter().all(|&b| b == bytes[0]),
        "arena bytes at threads {THREAD_COUNTS:?}: {bytes:?}"
    );
}

/// The index pass — every row, the by-key write lists, the Read
/// Consistency violations — and its footprint are the same at every
/// thread count, also when one index is rebuilt across thread counts and
/// shapes: the per-range rows are joined in dense order into buffers of
/// exactly the joined length.
#[test]
fn index_pass_is_thread_invariant() {
    let mut histories: Vec<History> = (0..3u64)
        .map(|seed| {
            random_noisy_history(
                seed,
                GenParams {
                    sessions: 6,
                    txns: 2_000,
                    keys: 16,
                    max_txn_ops: 5,
                    read_ratio: 0.5,
                    staleness: 0.4,
                },
            )
        })
        .collect();
    let config = SimConfig::new(DbIsolation::Causal, 16, 9).with_max_lag(8);
    histories
        .push(collect_history(config, &mut Uniform::default(), 4_000).expect("history builds"));
    let pools: Vec<(usize, Pool)> = THREAD_COUNTS.iter().map(|&t| (t, Pool::new(t))).collect();
    let mut recycled = HistoryIndex::empty();
    for (i, h) in histories.iter().enumerate() {
        assert!(
            h.num_committed() > 2 * SEQUENTIAL_CUTOFF,
            "history {i}: {}",
            h.num_committed()
        );
        let fresh = HistoryIndex::new(h);
        let reference = format!("{fresh:?}");
        if i < 3 {
            assert!(
                !fresh.read_violations().is_empty(),
                "history {i} has read violations"
            );
        }
        for (threads, pool) in &pools {
            let mut index = HistoryIndex::empty();
            index.rebuild(pool, *threads, h);
            assert_eq!(
                format!("{index:?}"),
                reference,
                "history {i}, {threads} threads"
            );
            assert_eq!(
                index.heap_bytes(),
                fresh.heap_bytes(),
                "history {i}, {threads} threads"
            );
            recycled.rebuild(pool, *threads, h);
            assert_eq!(
                format!("{recycled:?}"),
                reference,
                "history {i}, {threads} threads, recycled"
            );
        }
    }
}

/// Copies `h`, putting an empty session and a session with one aborted
/// transaction before each of its sessions (`h` must have a key).
fn with_empty_sessions(h: &History) -> History {
    let mut b = HistoryBuilder::new();
    for (_, txns) in h.sessions() {
        b.session();
        let aborted = b.session();
        b.begin(aborted);
        // The history's first key, so key ids are interned alike.
        b.write(
            aborted,
            h.key_name(awdit::core::Key(0)),
            u64::MAX - u64::from(aborted.0),
        );
        b.abort(aborted);
        let s = b.session();
        for t in txns.iter() {
            b.begin(s);
            for op in t.ops() {
                match *op {
                    awdit::core::Op::Write { key, value } => b.write(s, h.key_name(key), value.0),
                    awdit::core::Op::Read { key, value, .. } => b.read(s, h.key_name(key), value.0),
                }
            }
            if t.is_committed() {
                b.commit(s);
            } else {
                b.abort(s);
            }
        }
    }
    b.finish().expect("padded history builds")
}

/// Sessions without a committed transaction get no index session: the
/// index, and so every clock row, RA shard and CC search, is the one of
/// the history without them — only `TxnId`s keep the file's session ids.
#[test]
fn empty_sessions_get_no_index_session() {
    let config = SimConfig::new(DbIsolation::ReadCommitted, 6, 4).with_max_lag(8);
    let h = collect_history(config, &mut Uniform::default(), 900).expect("history builds");
    let padded = with_empty_sessions(&h);
    assert_eq!(padded.num_sessions(), 3 * h.num_sessions());
    let (plain, index) = (HistoryIndex::new(&h), HistoryIndex::new(&padded));
    assert_eq!(index.num_sessions(), plain.num_sessions());
    assert_eq!(index.num_history_sessions(), padded.num_sessions());
    assert_eq!(index.num_committed(), plain.num_committed());
    for d in 0..plain.num_committed() as u32 {
        let (t, u) = (plain.txn_id(d), index.txn_id(d));
        assert_eq!((u.session, u.index), (3 * t.session + 2, t.index));
        assert_eq!(index.session_of(d), plain.session_of(d));
        assert_eq!(index.committed_pos(d), plain.committed_pos(d));
        assert_eq!(index.ext_reads(d), plain.ext_reads(d));
        assert_eq!(index.read_pairs(d), plain.read_pairs(d));
        assert_eq!(index.dense_id(u), d);
    }
    let lists = |ix: &HistoryIndex| -> Vec<String> {
        ix.session_write_lists().map(|l| format!("{l:?}")).collect()
    };
    assert_eq!(lists(&index), lists(&plain));
    for level in IsolationLevel::ALL {
        for threads in THREAD_COUNTS {
            let cfg = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            let (a, b) = (
                Engine::with_config(cfg).check_level(&h, level),
                Engine::with_config(cfg).check_level(&padded, level),
            );
            assert_eq!(a.verdict(), b.verdict(), "{level}, {threads} threads");
            assert_eq!(a.stats(), b.stats(), "{level}, {threads} threads");
            assert_eq!(a.violations().len(), b.violations().len());
        }
    }

    // RA's single-session shortcut keys on the history's sessions, as it
    // did before index sessions: one session with a non-repeatable read
    // takes it, and reports a cycle; with an empty session added the
    // general path runs and reports the non-repeatable read.
    let mut b = HistoryBuilder::new();
    let s = b.session();
    for v in [1, 2] {
        b.begin(s);
        b.write(s, 7, v);
        b.commit(s);
    }
    b.begin(s);
    b.read(s, 7, 1);
    b.read(s, 7, 2);
    b.commit(s);
    let single = b.finish().unwrap();
    let kinds = |h: &History| -> Vec<String> {
        check(h, IsolationLevel::ReadAtomic)
            .violations()
            .iter()
            .map(|v| format!("{:?}", v.kind()))
            .collect()
    };
    assert!(!kinds(&single).contains(&"NonRepeatableRead".to_string()));
    assert_eq!(kinds(&with_empty_sessions(&single)), ["NonRepeatableRead"]);
}

/// Checking through a fresh-per-call wrapper and through a reused engine
/// must agree even when histories alternate shapes (arena resets are not
/// allowed to leak state between checks).
#[test]
fn alternating_shapes_do_not_leak_state() {
    let mut histories = Vec::new();
    for (sessions, txns, seed) in [
        (2usize, 40usize, 1u64),
        (12, 900, 2),
        (3, 25, 3),
        (8, 600, 4),
    ] {
        let config = SimConfig::new(DbIsolation::ReadCommitted, sessions, seed);
        let mut w = Uniform::default();
        histories.push(collect_history(config, &mut w, txns).expect("history builds"));
    }
    let mut engine = Engine::with_config(EngineConfig {
        level: IsolationLevel::ReadAtomic,
        want_commit_order: true,
        ..EngineConfig::default()
    });
    let mut growths_after_first_round = 0;
    for round in 0..3 {
        for (i, h) in histories.iter().enumerate() {
            let fresh = Engine::with_config(EngineConfig {
                want_commit_order: true,
                ..EngineConfig::default()
            })
            .check_level(h, IsolationLevel::ReadAtomic);
            let reused = engine.check(h);
            assert_eq!(
                fingerprint(&fresh),
                fingerprint(&reused),
                "round {round}, history {i}"
            );
        }
        if round == 0 {
            growths_after_first_round = engine.stats().arena_growths;
        }
    }
    // After one full round the arenas have seen every shape (shrinking
    // resets keep the large history's buffers), so later rounds of the
    // same alternation must not grow anything.
    assert_eq!(
        engine.stats().arena_growths,
        growths_after_first_round,
        "alternating small/large shapes must recycle, not re-grow, arenas"
    );
}

/// Deterministic committed-only history every text format can represent.
fn sample_history(sessions: usize, txns: usize) -> History {
    let mut b = HistoryBuilder::new();
    let sids: Vec<_> = (0..sessions).map(|_| b.session()).collect();
    let mut committed: Vec<Vec<u64>> = vec![Vec::new(); 8];
    let mut next = 1u64;
    let mut state = 0x2545_f491_4f6c_dd1du64;
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

/// The engine path end-to-end: a directory of large files checked at
/// threads ∈ {1, 2, 8} produces identical named outcomes.
#[test]
fn engine_check_source_is_thread_invariant() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("awdit-shard-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let h = canonical(&sample_history(6, 6000));
    std::fs::write(dir.join("a.awdit"), write_history(&h, Format::Native)).unwrap();
    std::fs::write(dir.join("b.plume"), write_history(&h, Format::Plume)).unwrap();
    std::fs::write(dir.join("c.dbcop"), write_history(&h, Format::Dbcop)).unwrap();
    std::fs::write(dir.join("d.cobra"), write_history(&h, Format::Cobra)).unwrap();

    let run = |threads: usize| {
        let mut engine = Engine::with_config(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        let mut lines = Vec::new();
        engine
            .check_source(
                &mut DirSource::new(&dir).unwrap(),
                Some(IsolationLevel::Causal),
                |name, _, outs| lines.push(format!("{name}: {}", fingerprint(&outs[0]))),
            )
            .unwrap();
        lines.join("\n")
    };
    let reference = run(1);
    assert!(reference.contains("a.awdit"), "all four files checked");
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(reference, run(*threads), "diverged at {threads} threads");
    }
    // And all of them agree with a direct in-memory check.
    let direct = fingerprint(&check(&h, IsolationLevel::Causal));
    for line in reference.lines() {
        let (name, fp) = line.split_once(": ").unwrap();
        assert_eq!(fp, direct, "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A parse error mid-file surfaces from `check_source` as the same
/// [`SourceError`] at every thread count — the reader's own message,
/// line number included — and leaves the engine able to check the next
/// source.
#[test]
fn check_source_parse_errors_are_thread_invariant() {
    let h = canonical(&sample_history(4, 1200));
    let mut text = write_history(&h, Format::Native);
    let poison = text.len() / 2;
    let line_start = text[..poison].rfind('\n').map_or(0, |p| p + 1);
    let line_end = text[line_start..]
        .find('\n')
        .map_or(text.len(), |p| line_start + p);
    text.replace_range(line_start..line_end, "not a history line");
    let mut path = std::env::temp_dir();
    path.push(format!("awdit-parse-error-{}.awdit", std::process::id()));
    std::fs::write(&path, &text).unwrap();

    let parse_err =
        read_history(text.as_bytes(), Format::Native, &mut HistoryBuilder::new()).unwrap_err();
    assert!(parse_err.line > 1, "{parse_err}");
    let expected = SourceError {
        origin: path.display().to_string(),
        message: parse_err.to_string(),
    };
    for threads in THREAD_COUNTS {
        let mut engine = Engine::with_config(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        let err = engine
            .check_source(&mut FilesSource::new([&path]), None, |name, _, _| {
                panic!("{name} must not check")
            })
            .unwrap_err();
        assert_eq!(err, expected, "error diverged at {threads} threads");
        assert_eq!(
            fingerprint(&engine.check(&h)),
            fingerprint(&check(&h, IsolationLevel::Causal)),
            "engine after the error at {threads} threads"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
