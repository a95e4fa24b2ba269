//! Differential suite for parallel sharded ingest: the sharded parser
//! must be **bit-identical to sequential at every thread count**, with
//! shard boundaries forced mid-line, mid-transaction, and mid-session,
//! and `Engine::check_source` must produce the same outcomes on its
//! sequential streaming path and through the thread pool.

use std::sync::Arc;

use awdit::core::parallel::{Pool, SEQUENTIAL_CUTOFF};
use awdit::formats::{read_history, read_sharded, read_sharded_at, SHARD_MIN_BYTES};
use awdit::{
    check, collect_source, replay_history, write_history, DirSource, Engine, EngineConfig,
    FilesSource, Format, History, HistoryBuilder, HistorySource, IsolationLevel, Outcome,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

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

fn canonical(h: &History) -> History {
    let mut b = HistoryBuilder::new();
    replay_history(h, &mut b);
    b.finish().unwrap()
}

fn fingerprint(o: &Outcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        o.verdict(),
        o.violations(),
        o.commit_order(),
        o.stats()
    )
}

fn parse_sharded(text: &str, format: Format, threads: usize) -> History {
    let mut b = HistoryBuilder::new();
    read_sharded(text.as_bytes(), format, threads, &mut b).unwrap();
    b.finish().unwrap()
}

/// Texts large enough to clear the sharding cutoff parse bit-identically
/// at every thread count, for every format.
#[test]
fn large_files_parse_identically_at_every_thread_count() {
    // ~6k transactions puts every format's text comfortably past the
    // 2 × SHARD_MIN_BYTES cutoff, so shards genuinely form.
    let h = canonical(&sample_history(6, 6000));
    for format in Format::ALL {
        let text = write_history(&h, format);
        assert!(
            text.len() >= 2 * SHARD_MIN_BYTES,
            "{format}: grow the sample ({} bytes)",
            text.len()
        );
        let sequential = {
            let mut b = HistoryBuilder::new();
            read_history(text.as_bytes(), format, &mut b).unwrap();
            b.finish().unwrap()
        };
        assert_eq!(sequential, h, "{format}: text round-trip");
        for threads in THREAD_COUNTS {
            assert_eq!(
                parse_sharded(&text, format, threads),
                sequential,
                "{format} diverged at {threads} threads"
            );
        }
    }
}

/// Forced boundaries in the nastiest places — mid-line, mid-transaction,
/// and mid-session — still merge into the sequential result.
#[test]
fn forced_awkward_boundaries_match_sequential() {
    let h = canonical(&sample_history(4, 60));
    for format in Format::ALL {
        let text = write_history(&h, format);
        let expected = {
            let mut b = HistoryBuilder::new();
            read_history(text.as_bytes(), format, &mut b).unwrap();
            b.finish().unwrap()
        };
        let bytes = text.as_bytes();
        // Mid-line: the middle of some line's content.
        let mid_line = text.len() / 2;
        // Mid-transaction: just after a transaction-opening line.
        let mid_txn = match format {
            Format::Native | Format::Cobra | Format::Dbcop => {
                find_nth_line_start(bytes, bytes.len() / 3).map(|p| p + 1)
            }
            // Plume has no transaction brackets; any op boundary is
            // "mid-transaction" for a multi-op transaction.
            Format::Plume => find_nth_line_start(bytes, bytes.len() / 3),
        }
        .unwrap();
        // Mid-session: inside the back half, between two lines of the
        // same session's run of transactions.
        let mid_session = find_nth_line_start(bytes, 2 * bytes.len() / 3).unwrap();
        for cuts in [
            vec![mid_line],
            vec![mid_txn],
            vec![mid_session],
            vec![mid_line, mid_txn, mid_session],
        ] {
            let mut cuts = cuts;
            cuts.sort_unstable();
            cuts.dedup();
            for threads in THREAD_COUNTS {
                let mut b = HistoryBuilder::new();
                read_sharded_at(bytes, format, &cuts, threads, &mut b).unwrap();
                assert_eq!(
                    b.finish().unwrap(),
                    expected,
                    "{format} diverged with cuts {cuts:?} at {threads} threads"
                );
            }
        }
    }
}

/// First line-start at or after `from` (so cuts land inside real content).
fn find_nth_line_start(bytes: &[u8], from: usize) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| from + p + 1)
        .filter(|&p| p < bytes.len())
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

/// `FilesSource::set_pool` shards its parses without changing the
/// loaded history (the sharded source-level path, no engine involved).
#[test]
fn files_source_sharded_load_is_identical() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("awdit-shard-files-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let h = canonical(&sample_history(5, 6000));
    let path = dir.join("h.awdit");
    std::fs::write(&path, write_history(&h, Format::Native)).unwrap();

    for threads in THREAD_COUNTS {
        let mut source = FilesSource::new([&path]);
        source.set_pool(Arc::new(Pool::new(threads)));
        let loaded = collect_source(&mut source).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].history, h, "diverged at {threads} threads");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `Engine::check_source` hands file sources the engine's own pool: a
/// text file big enough to shard, with too few transactions for any
/// saturator to shard, spawns its parse workers on `engine.pool()`. A
/// source-private pool would leave the engine's idle.
#[test]
fn sharded_parse_runs_on_the_engine_pool() {
    let mut b = HistoryBuilder::new();
    let sids = [b.session(), b.session()];
    let mut value = 0;
    for i in 0..96 {
        let sid = sids[i % 2];
        b.begin(sid);
        for key in 0..400 {
            value += 1;
            b.write(sid, key, value);
        }
        b.commit(sid);
    }
    let h = canonical(&b.finish().unwrap());
    let text = write_history(&h, Format::Native);
    assert!(text.len() >= 2 * SHARD_MIN_BYTES);
    assert!(h.num_txns() < SEQUENTIAL_CUTOFF);
    let mut path = std::env::temp_dir();
    path.push(format!("awdit-shard-pool-{}.awdit", std::process::id()));
    std::fs::write(&path, text).unwrap();

    let mut engine = Engine::with_config(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    assert_eq!(engine.pool().spawned_threads(), 0);
    let mut checked = 0;
    engine
        .check_source(
            &mut FilesSource::new([&path]),
            Some(IsolationLevel::Causal),
            |_, got, outs| {
                assert_eq!(got, &h);
                assert!(outs[0].is_consistent());
                checked += 1;
            },
        )
        .unwrap();
    assert_eq!(checked, 1);
    assert!(
        engine.pool().spawned_threads() > 0,
        "the shard parse must run on the engine's pool"
    );
    std::fs::remove_file(&path).unwrap();
}

/// A parse error in a sharded file surfaces the same message sequential
/// parsing reports (the merge falls back to sequential on any anomaly, so
/// error text — line numbers included — is in exact parity).
#[test]
fn sharded_parse_errors_match_sequential() {
    let h = canonical(&sample_history(4, 1200));
    let mut text = write_history(&h, Format::Native);
    let poison = text.len() / 2;
    let line_start = text[..poison].rfind('\n').map_or(0, |p| p + 1);
    let line_end = text[line_start..]
        .find('\n')
        .map_or(text.len(), |p| line_start + p);
    text.replace_range(line_start..line_end, "not a history line");

    let sequential_err = {
        let mut b = HistoryBuilder::new();
        read_history(text.as_bytes(), Format::Native, &mut b).unwrap_err()
    };
    for threads in THREAD_COUNTS {
        let mut b = HistoryBuilder::new();
        let err = read_sharded(text.as_bytes(), Format::Native, threads, &mut b).unwrap_err();
        assert_eq!(err, sequential_err, "error diverged at {threads} threads");
    }
}
