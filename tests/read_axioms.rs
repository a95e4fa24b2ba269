//! Five-axiom planted-violation differential: seeded histories with
//! planted reads of every Read Consistency kind — thin-air, aborted,
//! future, missed own write, stale own write and not-latest external
//! write — checked four ways.
//!
//! * The [`Engine`]'s read violations at `threads` 1, 2 and 8 (the
//!   histories clear the sequential cutoff, so the index pass really
//!   shards) are one list, in order.
//! * [`check_read_consistency`] returns exactly that list.
//! * An axiom oracle written here from Definition 2.3 — it resolves every
//!   read by value over the raw operations and shares no code with the
//!   checker — returns exactly that list too.
//! * The exact online checker reports the same read violations (sorted:
//!   it emits each at its transaction's commit).
//!
//! Where the engine also returns a commit order, the `linearize` axiom
//! oracle ([`validate_commit_order`]) accepts it: the planted reads leave
//! the commit-order axioms to saturation.

use std::collections::HashMap;
use std::ops::Range;

use awdit::core::witness::{ReadConsistencyViolation as V, Violation};
use awdit::core::{check_read_consistency, validate_commit_order, Op, OpLoc, TxnId};
use awdit::formats::history_of_events;
use awdit::stream::{Event, OnlineChecker, StreamConfig, StreamViolation};
use awdit::{Engine, EngineConfig, History, IsolationLevel};

/// A xorshift stream, so the histories are fixed by their seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn pick<T: Copy>(&mut self, v: &[T]) -> Option<T> {
        (!v.is_empty()).then(|| v[self.below(v.len() as u64) as usize])
    }
}

/// A seeded history as an arrival-order event stream: whole transactions,
/// sessions interleaved at random, 3% of them aborted. Reads observe a
/// committed final write or the transaction's own latest write, except
/// for the planted ones (one read in six), which cover every axiom.
fn planted_events(seed: u64, txns: usize) -> Vec<Event> {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let (sessions, keys) = (6u64, 12u64);
    let mut next_value = 1u64;
    // Per key: committed final writes, committed overwritten writes, and
    // aborted writes.
    let mut finals: Vec<Vec<u64>> = vec![Vec::new(); keys as usize];
    let mut overwritten: Vec<Vec<u64>> = vec![Vec::new(); keys as usize];
    let mut aborted: Vec<Vec<u64>> = vec![Vec::new(); keys as usize];
    let mut events = Vec::new();
    for _ in 0..txns {
        let session = rng.below(sessions);
        let commits = rng.below(100) >= 3;
        events.push(Event::Begin { session });
        // This transaction's writes per key, in order.
        let mut own: Vec<Vec<u64>> = vec![Vec::new(); keys as usize];
        for _ in 0..1 + rng.below(6) {
            let key = rng.below(keys);
            let k = key as usize;
            let read = |value| Event::Read {
                session,
                key,
                value,
            };
            if rng.below(2) == 0 {
                // A write; sometimes two of the same key.
                for _ in 0..1 + u64::from(rng.below(6) == 0) {
                    own[k].push(next_value);
                    events.push(Event::Write {
                        session,
                        key,
                        value: next_value,
                    });
                    next_value += 1;
                }
                continue;
            }
            let mut write = |own: &mut Vec<u64>, events: &mut Vec<Event>| {
                own.push(next_value);
                events.push(Event::Write {
                    session,
                    key,
                    value: next_value,
                });
                next_value += 1;
            };
            let planted = match rng.below(36) {
                // Thin air: nobody writes this value.
                0 => Some(u64::MAX - rng.below(1 << 20)),
                // Aborted writer.
                1 => rng.pick(&aborted[k]),
                // Future read: the value is written later in this
                // transaction.
                2 => {
                    write(&mut own[k], &mut events);
                    events.push(read(own[k][own[k].len() - 1]));
                    let n = events.len();
                    events.swap(n - 2, n - 1);
                    continue;
                }
                // Missed own write: an external value after writing the key.
                3 => {
                    write(&mut own[k], &mut events);
                    rng.pick(&finals[k])
                }
                // Stale own write: an own write the transaction overwrote.
                4 => {
                    write(&mut own[k], &mut events);
                    write(&mut own[k], &mut events);
                    Some(own[k][own[k].len() - 2])
                }
                // Not-latest: another transaction's overwritten write.
                5 => rng.pick(&overwritten[k]),
                _ => None,
            };
            let value = planted.or_else(|| {
                if let Some(&latest) = own[k].last() {
                    Some(latest)
                } else {
                    rng.pick(&finals[k])
                }
            });
            if let Some(value) = value {
                events.push(read(value));
            }
        }
        for (k, writes) in own.iter().enumerate() {
            if let Some((&last, earlier)) = writes.split_last() {
                if commits {
                    finals[k].push(last);
                    overwritten[k].extend_from_slice(earlier);
                } else {
                    aborted[k].extend_from_slice(writes);
                }
            }
        }
        events.push(if commits {
            Event::Commit { session }
        } else {
            Event::Abort { session }
        });
    }
    events
}

/// Read Consistency from Definition 2.3 over the raw operations: every
/// read of a committed transaction, in session-major program order, is
/// resolved by its value and judged against the five axioms.
fn axiom_oracle(h: &History) -> Vec<V> {
    let mut writes: HashMap<(u32, u64), OpLoc> = HashMap::new();
    for (t, txn) in h.txns() {
        for (p, op) in txn.ops().iter().enumerate() {
            if let Op::Write { key, value } = *op {
                writes.insert((key.0, value.0), OpLoc::new(t, p as u32));
            }
        }
    }
    // The position of the last write of `key` in `t` within `ops`.
    let last_write = |t: TxnId, key, ops: Range<u32>| {
        let txn = h.txn(t).ops();
        ops.rev()
            .find(|&q| matches!(txn[q as usize], Op::Write { key: k, .. } if k == key))
    };
    let mut out = Vec::new();
    for (t, txn) in h.committed_txns() {
        let ops = txn.ops();
        for (p, op) in ops.iter().enumerate() {
            let Op::Read { key, value, .. } = *op else {
                continue;
            };
            let p = p as u32;
            let read = OpLoc::new(t, p);
            let Some(&w) = writes.get(&(key.0, value.0)) else {
                out.push(V::ThinAirRead { read, key, value });
                continue;
            };
            if w.txn == t {
                if w.op > p {
                    out.push(V::FutureRead {
                        read,
                        write: w,
                        key,
                    });
                } else if let Some(later) = last_write(t, key, w.op + 1..p) {
                    out.push(V::StaleOwnWrite {
                        read,
                        observed: w,
                        later_write: OpLoc::new(t, later),
                        key,
                    });
                }
                continue;
            }
            if let Some(own) = last_write(t, key, 0..p) {
                out.push(V::NotOwnWrite {
                    read,
                    own_write: OpLoc::new(t, own),
                    observed: w,
                    key,
                });
            }
            if !h.txn(w.txn).is_committed() {
                out.push(V::AbortedRead {
                    read,
                    write: w,
                    key,
                });
            } else if last_write(w.txn, key, w.op + 1..h.txn(w.txn).len() as u32).is_some() {
                out.push(V::NotFinalWrite {
                    read,
                    observed: w,
                    key,
                });
            }
        }
    }
    out
}

fn read_violations(vs: &[Violation]) -> Vec<V> {
    vs.iter()
        .filter_map(|v| match v {
            Violation::ReadConsistency(v) => Some(*v),
            _ => None,
        })
        .collect()
}

#[test]
fn planted_read_violations_agree_across_threads_oracles_and_the_stream() {
    for seed in 1..=4u64 {
        let events = planted_events(seed, 1_500);
        let h = history_of_events(&events).expect("planted history builds");
        assert!(h.num_committed() > 2 * awdit::core::parallel::SEQUENTIAL_CUTOFF);
        let expected = check_read_consistency(&h);
        // Every kind is planted.
        for kind in 0..6 {
            assert!(
                expected.iter().any(|v| kind
                    == match v {
                        V::ThinAirRead { .. } => 0,
                        V::AbortedRead { .. } => 1,
                        V::FutureRead { .. } => 2,
                        V::NotOwnWrite { .. } => 3,
                        V::StaleOwnWrite { .. } => 4,
                        V::NotFinalWrite { .. } => 5,
                    }),
                "seed {seed}: no violation of kind {kind}"
            );
        }
        assert_eq!(axiom_oracle(&h), expected, "seed {seed}: axiom oracle");

        for level in IsolationLevel::ALL {
            for threads in [1, 2, 8] {
                let out = Engine::with_config(EngineConfig {
                    threads,
                    want_commit_order: true,
                    ..EngineConfig::default()
                })
                .check_level(&h, level);
                assert_eq!(
                    read_violations(out.violations()),
                    expected,
                    "seed {seed}, {level}, {threads} threads"
                );
                if let Some(order) = out.commit_order() {
                    validate_commit_order(&h, level, order)
                        .unwrap_or_else(|e| panic!("seed {seed}, {level}: {e}"));
                }
            }

            let mut online = OnlineChecker::with_config(StreamConfig {
                level,
                prune: false,
                ..StreamConfig::default()
            });
            for e in &events {
                online.apply(e).unwrap();
            }
            let mut streamed: Vec<String> = online
                .finish()
                .unwrap()
                .violations()
                .iter()
                .filter_map(|v| match v {
                    StreamViolation::Core(Violation::ReadConsistency(v)) => Some(format!("{v:?}")),
                    _ => None,
                })
                .collect();
            streamed.sort();
            let mut batch: Vec<String> = expected.iter().map(|v| format!("{v:?}")).collect();
            batch.sort();
            assert_eq!(streamed, batch, "seed {seed}, {level}: stream");
        }
    }
}
