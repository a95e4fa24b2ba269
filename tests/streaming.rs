//! Differential tests: the online checker must agree with the batch
//! pipeline on every history, for all three isolation levels.
//!
//! Histories come from `awdit-baselines`' generators (plausible and
//! noisy), are replayed as event streams in a *round-robin arrival order*
//! (one transaction per session per round — deliberately different from
//! the batch session-major order, to exercise cross-session interleaving
//! and the staging machinery), and checked both ways.
//!
//! ## What "agree" means
//!
//! * **Verdicts match exactly** — the headline property.
//! * **Violation kinds**: the batch kinds must be a subset of the online
//!   kinds after merging the two cycle classifications
//!   (`CausalityCycle`/`CommitOrderCycle`) into one class. The batch
//!   dispatcher takes early returns the streaming checker cannot (it stops
//!   at repeatable-read violations before saturating RA, and reports
//!   *only* causality cycles when `so ∪ wr` is cyclic under CC), so the
//!   online checker may report strictly more; and the single-session RA
//!   fast path labels its cycles `CausalityCycle` where the general
//!   algorithm says `CommitOrderCycle` — hence the merged cycle class.
//! * **Read violations match exactly**: batch and stream run the same
//!   per-transaction read-consistency and repeatable-read steps, so the
//!   sorted lists of `ReadConsistency` violations (and, under RA, of
//!   `NonRepeatableRead` ones) are equal. The single-session RA fast path
//!   emits no `NonRepeatableRead`, so that case compares read-consistency
//!   violations only.

use std::collections::BTreeSet;

use awdit::baselines::{random_noisy_history, random_plausible_history, GenParams};
use awdit::core::witness::{Violation, ViolationKind};
use awdit::formats::history_of_events;
use awdit::stream::{Event, OnlineChecker, StreamConfig, StreamViolation};
use awdit::{check, Engine, History, IsolationLevel};
use awdit_core::Op;

/// A finished history as an event stream in round-robin arrival order,
/// one whole transaction at a time.
fn arrival_events(h: &History) -> Vec<Event> {
    let k = h.num_sessions();
    let mut next = vec![0usize; k];
    let mut events = Vec::new();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (s, pos) in next.iter_mut().enumerate() {
            let txns = h.session(awdit_core::SessionId(s as u32));
            if *pos >= txns.len() {
                continue;
            }
            progressed = true;
            let t = txns.txn(*pos);
            *pos += 1;
            let session = s as u64;
            events.push(Event::Begin { session });
            for op in t.ops() {
                events.push(match *op {
                    Op::Write { key, value } => Event::Write {
                        session,
                        key: h.key_name(key),
                        value: value.0,
                    },
                    Op::Read { key, value, .. } => Event::Read {
                        session,
                        key: h.key_name(key),
                        value: value.0,
                    },
                });
            }
            events.push(if t.is_committed() {
                Event::Commit { session }
            } else {
                Event::Abort { session }
            });
        }
    }
    events
}

/// Collapses the two cycle kinds into one class (see module docs).
fn normalize(kind: ViolationKind) -> ViolationKind {
    match kind {
        ViolationKind::CausalityCycle => ViolationKind::CommitOrderCycle,
        k => k,
    }
}

fn check_agreement(h: &History, label: &str) {
    let events = arrival_events(h);
    // The history as the stream saw it: keys and sessions interned in
    // arrival order, so dense ids in violations line up.
    let arrived = history_of_events(&events).expect("replayed history is well-formed");
    for level in IsolationLevel::ALL {
        let batch = check(h, level);
        let outcome = run_events(
            &events,
            StreamConfig {
                level,
                prune: false,
                ..StreamConfig::default()
            },
        );
        assert_eq!(
            batch.is_consistent(),
            outcome.is_consistent(),
            "verdict mismatch [{label}] level {level}:\nbatch: {:?}\nonline: {:?}\nhistory:\n{h}",
            batch.violations(),
            outcome.violations(),
        );
        // The single-session RA fast path (Theorem 1.6) reports stale reads
        // as cycles read-by-read and never emits NonRepeatableRead; the
        // general algorithm gates on repeatable reads instead. Same
        // verdicts, different labels — merge them for that case only.
        let single_session_ra = h.num_sessions() <= 1 && level == IsolationLevel::ReadAtomic;
        let norm = |k: ViolationKind| {
            if single_session_ra && k == ViolationKind::NonRepeatableRead {
                ViolationKind::CommitOrderCycle
            } else {
                normalize(k)
            }
        };
        // The exact read violations, sorted.
        let read_violations = |vs: &mut dyn Iterator<Item = &Violation>| {
            let mut out: Vec<String> = vs
                .filter(|v| match v {
                    Violation::ReadConsistency(_) => true,
                    Violation::NonRepeatableRead { .. } => {
                        arrived.num_sessions() > 1 || level != IsolationLevel::ReadAtomic
                    }
                    _ => false,
                })
                .map(|v| format!("{v:?}"))
                .collect();
            out.sort();
            out
        };
        assert_eq!(
            read_violations(&mut check(&arrived, level).violations().iter()),
            read_violations(&mut outcome.violations().iter().filter_map(|v| match v {
                StreamViolation::Core(v) => Some(v),
                StreamViolation::BeyondHorizon { .. } => None,
            })),
            "read violation mismatch [{label}] level {level}\nhistory:\n{h}"
        );
        let batch_kinds: BTreeSet<String> = batch
            .violations()
            .iter()
            .map(|v| format!("{:?}", norm(v.kind())))
            .collect();
        let online_kinds: BTreeSet<String> = outcome
            .violations()
            .iter()
            .filter_map(|v| v.kind())
            .map(|k| format!("{:?}", norm(k)))
            .collect();
        assert!(
            batch_kinds.is_subset(&online_kinds),
            "kind mismatch [{label}] level {level}: batch {batch_kinds:?} vs online \
             {online_kinds:?}\nhistory:\n{h}"
        );
    }
}

/// ≥ 500 generated histories across RC/RA/CC (the acceptance bar), mixing
/// session counts, contention, staleness, and noise.
#[test]
fn online_matches_batch_on_generated_histories() {
    let mut checked = 0usize;
    for seed in 0..180u64 {
        let params = GenParams {
            sessions: 1 + (seed as usize % 4),
            txns: 8 + (seed as usize % 17),
            keys: 2 + seed % 4,
            max_txn_ops: 2 + (seed as usize % 4),
            read_ratio: 0.3 + 0.1 * ((seed % 5) as f64),
            staleness: 0.15 * ((seed % 7) as f64),
        };
        check_agreement(
            &random_plausible_history(seed, params),
            &format!("plausible/{seed}"),
        );
        checked += 1;
        check_agreement(
            &random_noisy_history(seed, params),
            &format!("noisy/{seed}"),
        );
        checked += 1;
    }
    // Larger, more contended histories.
    for seed in 1000..1160u64 {
        let params = GenParams {
            sessions: 2 + (seed as usize % 5),
            txns: 30,
            keys: 3,
            max_txn_ops: 5,
            read_ratio: 0.55,
            staleness: 0.8,
        };
        check_agreement(
            &random_plausible_history(seed, params),
            &format!("contended/{seed}"),
        );
        checked += 1;
    }
    assert!(checked >= 500, "only {checked} histories checked");
}

/// One planted history per Read Consistency axiom, one non-repeatable
/// read, and the same reads inside transactions deadlocked on a `so ∪ wr`
/// cycle (checked at `finish`): stream and batch report the same read
/// violations.
#[test]
fn planted_read_violations_agree() {
    use awdit::HistoryBuilder;
    type Plant = fn(&mut HistoryBuilder, awdit_core::SessionId, awdit_core::SessionId);
    let plants: [(&str, Plant); 7] = [
        ("thin-air", |b, _, s1| {
            b.begin(s1);
            b.read(s1, 1, 99);
            b.commit(s1);
        }),
        ("aborted", |b, s0, s1| {
            b.begin(s0);
            b.write(s0, 1, 1);
            b.abort(s0);
            b.begin(s1);
            b.read(s1, 1, 1);
            b.commit(s1);
        }),
        ("future", |b, _, s1| {
            b.begin(s1);
            b.read(s1, 1, 1);
            b.write(s1, 1, 1);
            b.commit(s1);
        }),
        ("not-own", |b, s0, s1| {
            b.begin(s0);
            b.write(s0, 1, 1);
            b.commit(s0);
            b.begin(s1);
            b.write(s1, 1, 2);
            b.read(s1, 1, 1);
            b.commit(s1);
        }),
        ("stale-own", |b, _, s1| {
            b.begin(s1);
            b.write(s1, 1, 1);
            b.write(s1, 1, 2);
            b.read(s1, 1, 1);
            b.commit(s1);
        }),
        ("not-final", |b, s0, s1| {
            b.begin(s0);
            b.write(s0, 1, 1);
            b.write(s0, 1, 2);
            b.commit(s0);
            b.begin(s1);
            b.read(s1, 1, 1);
            b.commit(s1);
        }),
        ("non-repeatable", |b, s0, s1| {
            b.begin(s0);
            b.write(s0, 1, 1);
            b.commit(s0);
            b.begin(s0);
            b.write(s0, 1, 2);
            b.commit(s0);
            b.begin(s1);
            b.read(s1, 1, 1);
            b.read(s1, 1, 2);
            b.commit(s1);
        }),
    ];
    for (name, plant) in plants {
        for deadlocked in [false, true] {
            let mut b = HistoryBuilder::new();
            let s0 = b.session();
            let s1 = b.session();
            if deadlocked {
                // s1's first transaction reads what its second writes, so
                // every later transaction of s1 stays staged to the end.
                b.begin(s1);
                b.read(s1, 7, 70);
                b.commit(s1);
                b.begin(s1);
                b.write(s1, 7, 70);
                b.commit(s1);
            }
            plant(&mut b, s0, s1);
            let h = b.finish().expect("planted history builds");
            let label = format!("planted/{name}/deadlocked={deadlocked}");
            assert!(
                check(&h, IsolationLevel::ReadAtomic)
                    .violations()
                    .iter()
                    .any(|v| matches!(
                        v,
                        Violation::ReadConsistency(_) | Violation::NonRepeatableRead { .. }
                    )),
                "[{label}] plants a read violation"
            );
            check_agreement(&h, &label);
        }
    }
}

/// Two interleaved sessions, each deadlocked on a `so ∪ wr` cycle through
/// an aborted transaction: each session's first transaction reads what a
/// later one writes. `finish` reports one witness per session, and its
/// `so` steps skip the aborted transactions.
#[test]
fn interleaved_deadlocks_report_their_exact_cycles() {
    let (begin, commit, abort) = (
        |session| Event::Begin { session },
        |session| Event::Commit { session },
        |session| Event::Abort { session },
    );
    let write = |session, key, value| Event::Write {
        session,
        key,
        value,
    };
    let read = |session, key, value| Event::Read {
        session,
        key,
        value,
    };
    let events = [
        // A.t0 reads what A.t3 writes; B.t0 reads what B.t2 writes.
        begin(10),
        read(10, 1, 13),
        commit(10),
        begin(20),
        read(20, 2, 22),
        commit(20),
        begin(10),
        write(10, 3, 11),
        commit(10),
        begin(20),
        write(20, 4, 21),
        abort(20),
        begin(10),
        write(10, 3, 12),
        abort(10),
        begin(20),
        write(20, 2, 22),
        commit(20),
        begin(10),
        write(10, 1, 13),
        commit(10),
        begin(20),
        write(20, 4, 23),
        commit(20),
        begin(10),
        write(10, 3, 14),
        commit(10),
    ];
    for prune in [true, false] {
        let outcome = run_events(
            &events,
            StreamConfig {
                level: IsolationLevel::Causal,
                prune,
                prune_interval: 1,
                ..StreamConfig::default()
            },
        );
        let got: Vec<String> = outcome.violations().iter().map(|v| v.to_string()).collect();
        assert_eq!(
            got,
            [
                "causality cycle: s1.t0 --so--> s1.t2; s1.t2 --wr[k1]--> s1.t0",
                "causality cycle: s0.t0 --so--> s0.t1; s0.t1 --so--> s0.t3; s0.t3 --wr[k0]--> s0.t0",
            ],
            "prune={prune}"
        );
    }
}

/// A reader that commits while its writer is still open has read an
/// aborted write once the writer aborts, explicitly or by the stream
/// ending; batch says the same of the explicit case's events.
#[test]
fn read_of_a_writer_that_aborts_later_is_an_aborted_read() {
    let mut events = vec![
        Event::Begin { session: 0 },
        Event::Write {
            session: 0,
            key: 1,
            value: 1,
        },
        Event::Begin { session: 1 },
        Event::Read {
            session: 1,
            key: 1,
            value: 1,
        },
        Event::Commit { session: 1 },
        Event::Abort { session: 0 },
    ];
    let cfg = StreamConfig {
        level: IsolationLevel::ReadCommitted,
        ..StreamConfig::default()
    };
    let batch = check(
        &history_of_events(&events).expect("well-formed"),
        IsolationLevel::ReadCommitted,
    );
    assert_eq!(batch.violations().len(), 1);
    for explicit in [true, false] {
        if !explicit {
            events.pop();
        }
        let online = run_events(&events, cfg);
        assert_eq!(
            online.violations(),
            [StreamViolation::Core(batch.violations()[0].clone())],
            "explicit abort: {explicit}"
        );
        assert_eq!(
            online.violations()[0].kind(),
            Some(ViolationKind::AbortedRead)
        );
    }
}

/// With pruning *enabled* and reads that stay fresh *in arrival order*,
/// verdicts still match batch. Events and the reference history are
/// generated in lockstep so both sides see the same interleaving.
#[test]
fn pruned_online_matches_batch_on_fresh_reads() {
    use awdit::HistoryBuilder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    for seed in 0..40u64 {
        for level in IsolationLevel::ALL {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut online = OnlineChecker::with_config(StreamConfig {
                level,
                prune: true,
                prune_interval: 4,
                ..StreamConfig::default()
            });
            let mut b = HistoryBuilder::new();
            let sessions: Vec<_> = (0..3).map(|_| b.session()).collect();
            let mut latest: Vec<Option<u64>> = vec![None; 4];
            let mut next_value = 1u64;
            for round in 0..20 {
                for (si, &s) in sessions.iter().enumerate() {
                    let _ = round;
                    let sid = si as u64;
                    b.begin(s);
                    online.begin(sid).unwrap();
                    for _ in 0..rng.gen_range(1..4) {
                        let key = rng.gen_range(0..4u64);
                        if rng.gen_bool(0.5) {
                            if let Some(v) = latest[key as usize] {
                                b.read(s, key, v);
                                online.read(sid, key, v).unwrap();
                            }
                        } else {
                            let v = next_value;
                            next_value += 1;
                            b.write(s, key, v);
                            online.write(sid, key, v).unwrap();
                            latest[key as usize] = Some(v);
                        }
                    }
                    b.commit(s);
                    online.commit(sid).unwrap();
                }
            }
            let h = b.finish().unwrap();
            let batch = check(&h, level);
            let outcome = online.finish().unwrap();
            assert_eq!(
                batch.is_consistent(),
                outcome.is_consistent(),
                "pruned verdict mismatch seed {seed} level {level}\nonline: {:?}\nhistory:\n{h}",
                outcome.violations(),
            );
        }
    }
}

/// The acceptance-bar run: a ≥100k-event stream with pruning on; the live
/// transaction count must stay bounded (far below the total processed)
/// while the whole stream is checked.
#[test]
fn sustained_stream_keeps_live_set_bounded() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const SESSIONS: u64 = 8;
    const KEYS: u64 = 64;
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let mut checker = OnlineChecker::with_config(StreamConfig {
        level: IsolationLevel::Causal,
        prune: true,
        prune_interval: 64,
        ..StreamConfig::default()
    });
    let mut latest: Vec<Option<u64>> = vec![None; KEYS as usize];
    let mut next_value = 1u64;
    let mut events = 0u64;
    while events < 100_000 {
        for s in 0..SESSIONS {
            checker.begin(s).unwrap();
            events += 1;
            for _ in 0..3 {
                let key = rng.gen_range(0..KEYS);
                if rng.gen_bool(0.5) {
                    if let Some(v) = latest[key as usize] {
                        checker.read(s, key, v).unwrap();
                        events += 1;
                    }
                } else {
                    let v = next_value;
                    next_value += 1;
                    checker.write(s, key, v).unwrap();
                    latest[key as usize] = Some(v);
                    events += 1;
                }
            }
            checker.commit(s).unwrap();
            events += 1;
        }
    }
    let stats = *checker.stats();
    let outcome = checker.finish().unwrap();
    let final_stats = outcome.stats();
    assert!(final_stats.events >= 100_000);
    assert!(
        final_stats.processed > 10_000,
        "expected tens of thousands of processed txns, got {}",
        final_stats.processed
    );
    // The memory bound: the live set must be a small fraction of the
    // processed total — bounded by watermark lag + boundary writers, not
    // by stream length.
    assert!(
        stats.peak_live_txns < 2_000,
        "live set unbounded: peak {} of {} processed",
        stats.peak_live_txns,
        final_stats.processed
    );
    assert!(final_stats.retired_txns > final_stats.processed / 2);
}

/// Retirement's condensation count on one small seeded stream, pinned:
/// `condensed_edges` counts only the `Condensed` edges a retirement
/// actually adds — at most one per (source session, target session) pair
/// — never the orderings a live edge already carries.
#[test]
fn condensed_edge_count_is_pinned() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const SESSIONS: u64 = 4;
    const KEYS: u64 = 16;
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut checker = OnlineChecker::with_config(StreamConfig {
        level: IsolationLevel::Causal,
        prune_interval: 16,
        ..StreamConfig::default()
    });
    let mut latest: Vec<Option<u64>> = vec![None; KEYS as usize];
    let mut next_value = 1u64;
    for _ in 0..250 {
        for s in 0..SESSIONS {
            checker.begin(s).unwrap();
            for _ in 0..3 {
                let key = rng.gen_range(0..KEYS);
                match latest[key as usize] {
                    Some(v) if rng.gen_bool(0.5) => checker.read(s, key, v).unwrap(),
                    _ => {
                        checker.write(s, key, next_value).unwrap();
                        latest[key as usize] = Some(next_value);
                        next_value += 1;
                    }
                }
            }
            checker.commit(s).unwrap();
        }
    }
    let outcome = checker.finish().unwrap();
    assert!(outcome.is_consistent());
    let s = outcome.stats();
    assert_eq!(
        (s.processed, s.retired_txns, s.condensed_edges, s.live_edges),
        (1000, 916, 2953, 342)
    );
}

/// Violations are emitted as soon as they become detectable, not at
/// `finish`: a fractured read (RA) surfaces at the reader's commit.
#[test]
fn violations_are_emitted_eagerly() {
    let mut c = OnlineChecker::new(IsolationLevel::ReadAtomic);
    // Fig. 4b: t1 writes x; t2 writes x and y; t3 reads old x and new y.
    c.begin(0).unwrap();
    c.write(0, 0, 1).unwrap();
    c.commit(0).unwrap();
    c.begin(0).unwrap();
    c.write(0, 0, 2).unwrap();
    c.write(0, 1, 2).unwrap();
    c.commit(0).unwrap();
    assert!(c.drain_violations().is_empty());
    c.begin(1).unwrap();
    c.read(1, 0, 1).unwrap();
    c.read(1, 1, 2).unwrap();
    c.commit(1).unwrap();
    let now = c.drain_violations();
    assert!(
        !now.is_empty(),
        "fractured read must be reported at the offending commit"
    );
    assert!(!c.finish().unwrap().is_consistent());
}

/// Applies `events` to a fresh checker and finishes it.
fn run_events(events: &[Event], cfg: StreamConfig) -> awdit::StreamOutcome {
    let mut c = OnlineChecker::with_config(cfg);
    for e in events {
        c.apply(e).unwrap();
    }
    c.finish().unwrap()
}

/// Commits with very wide read sets: four writers cover 96 keys, then
/// three readers each read every key from a mix of writers (stale reads
/// that CC must order). The exact online checker must give the batch
/// engine's verdict on the history the stream describes, and report the
/// batch witness among its own.
#[test]
fn wide_commit_stream_matches_batch_check() {
    let keys = 96u64;
    let mut events = Vec::new();
    for w in 0..4u64 {
        events.push(Event::Begin { session: w });
        for k in 0..keys {
            events.push(Event::Write {
                session: w,
                key: k,
                value: w * keys + k + 1,
            });
        }
        events.push(Event::Commit { session: w });
    }
    for r in 0..3u64 {
        let reader = 10 + r;
        events.push(Event::Begin { session: reader });
        for k in 0..keys {
            let w = (k + r) % 4;
            events.push(Event::Read {
                session: reader,
                key: k,
                value: w * keys + k + 1,
            });
        }
        events.push(Event::Commit { session: reader });
    }
    let online = run_events(
        &events,
        StreamConfig {
            level: IsolationLevel::Causal,
            prune: false,
            ..StreamConfig::default()
        },
    );
    let history = history_of_events(&events).unwrap();
    let batch = Engine::new().check_level(&history, IsolationLevel::Causal);
    assert!(!batch.is_consistent());
    assert_eq!(online.is_consistent(), batch.is_consistent());
    // The batch engine extracts one cycle per strongly connected
    // component; the online checker reports each edge that closes a
    // cycle. Here every pair of the four writers closes one: C(4, 2) = 6.
    let online_cycles: Vec<String> = online.violations().iter().map(|v| v.to_string()).collect();
    assert_eq!(online.stats().violations, 6, "{online_cycles:#?}");
    for v in batch.violations() {
        assert!(
            online_cycles.contains(&v.to_string()),
            "batch witness {v} missing online: {online_cycles:#?}"
        );
    }
}

/// Watermark pruning retires transactions on an all-retirable stream
/// (every session overwrites the same three keys round after round and
/// reads the previous transaction's write, so the watermark chases the
/// stream) and on a one-session stream (a long candidate list that is
/// entirely local), and agrees with the exact checker's verdict on both.
#[test]
fn pruning_retires_and_keeps_the_verdict() {
    let mut all_retirable = Vec::new();
    let (sessions, keys) = (4u64, 3u64);
    let mut latest = None;
    for round in 0..200u64 {
        for s in 0..sessions {
            all_retirable.push(Event::Begin { session: s });
            // Reading the previous transaction's write carries every
            // session's clock forward, so the watermark advances.
            if let Some(value) = latest {
                all_retirable.push(Event::Read {
                    session: s,
                    key: 0,
                    value,
                });
            }
            latest = Some((round * sessions + s) * keys + 1);
            for k in 0..keys {
                all_retirable.push(Event::Write {
                    session: s,
                    key: k,
                    value: (round * sessions + s) * keys + k + 1,
                });
            }
            all_retirable.push(Event::Commit { session: s });
        }
    }
    let mut one_session = Vec::new();
    for i in 0..1200u64 {
        one_session.push(Event::Begin { session: 0 });
        one_session.push(Event::Write {
            session: 0,
            key: i % 5,
            value: i + 1,
        });
        one_session.push(Event::Commit { session: 0 });
    }
    for (label, events, prune_interval) in [
        ("all-retirable", &all_retirable, 256),
        ("one-session", &one_session, 128),
    ] {
        let run = |prune: bool| {
            run_events(
                events,
                StreamConfig {
                    level: IsolationLevel::Causal,
                    prune,
                    prune_interval,
                    ..StreamConfig::default()
                },
            )
        };
        let (pruned, exact) = (run(true), run(false));
        assert!(
            pruned.stats().retired_txns > 0,
            "[{label}] pruning retired nothing"
        );
        assert_eq!(
            (pruned.is_consistent(), pruned.stats().violations),
            (exact.is_consistent(), exact.stats().violations),
            "[{label}] pruning changed the verdict"
        );
    }
}

/// `events_of_history` carries every write before the reads of its value,
/// so a pruned checker never mistakes a read that arrives ahead of its
/// write for a read of a pruned write: a consistent causal-store history
/// stays consistent, with no beyond-horizon read.
#[test]
fn converted_stream_reads_follow_their_writes_under_pruning() {
    use awdit::workloads::Uniform;
    use awdit::{collect_history, DbIsolation, SimConfig};
    use std::collections::HashSet;

    let h = collect_history(
        SimConfig::new(DbIsolation::Causal, 8, 2),
        &mut Uniform::default(),
        4000,
    )
    .unwrap();
    let events = awdit::stream::events_of_history(&h);
    let mut written = HashSet::new();
    for e in &events {
        match *e {
            Event::Write { key, value, .. } => {
                written.insert((key, value));
            }
            Event::Read { key, value, .. } => {
                assert!(
                    written.contains(&(key, value)),
                    "R({key}, {value}) ahead of its write"
                )
            }
            _ => {}
        }
    }
    let outcome = run_events(
        &events,
        StreamConfig {
            level: IsolationLevel::Causal,
            ..StreamConfig::default()
        },
    );
    assert!(outcome.stats().retired_txns > 0, "pruning retired nothing");
    assert_eq!(outcome.stats().horizon_misses, 0);
    assert!(outcome.is_consistent(), "{:?}", outcome.violations());
}

/// A checker reused through `drain` (how `awdit serve` recycles a tenant's
/// checker) keeps its warm buffers, index slots and graph lists, yet
/// reports exactly what a fresh checker reports on the next stream: the
/// same violations in the same order and the same statistics, pruned and
/// exact, at every level.
#[test]
fn drained_checker_matches_a_fresh_one_on_the_next_stream() {
    let params = GenParams {
        sessions: 5,
        txns: 400,
        keys: 6,
        max_txn_ops: 6,
        read_ratio: 0.5,
        staleness: 0.4,
    };
    let streams: Vec<Vec<Event>> = (0..4u64)
        .map(|seed| match seed % 2 {
            0 => arrival_events(&random_noisy_history(seed, params)),
            _ => arrival_events(&random_plausible_history(seed, params)),
        })
        .collect();
    let (mut inconsistent, mut retired) = (0, 0);
    for level in IsolationLevel::ALL {
        for prune in [true, false] {
            let cfg = StreamConfig {
                level,
                prune,
                prune_interval: 4,
                ..StreamConfig::default()
            };
            let mut reused = OnlineChecker::with_config(cfg);
            for (i, events) in streams.iter().enumerate() {
                for e in events {
                    reused.apply(e).unwrap();
                }
                let warm = reused.drain().unwrap();
                let fresh = run_events(events, cfg);
                let label = format!("stream {i}, {level}, prune {prune}");
                assert_eq!(warm.violations(), fresh.violations(), "{label}");
                assert_eq!(warm.stats(), fresh.stats(), "{label}");
                inconsistent += usize::from(!fresh.is_consistent());
                retired += fresh.stats().retired_txns;
            }
        }
    }
    assert!(inconsistent > 6, "only {inconsistent} inconsistent runs");
    assert!(retired > 1000, "only {retired} retirements");
}
