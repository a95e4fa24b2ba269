//! Transaction stream events — the wire vocabulary of the online checker.
//!
//! Events mirror the [`HistoryBuilder`](awdit_core::HistoryBuilder) mutator
//! calls one-for-one: sessions are named by arbitrary `u64` ids, and events
//! of one session must arrive in that session's real-time order (events of
//! different sessions may interleave arbitrarily).

use std::fmt;

use awdit_core::{History, Op, ReadSource, SessionId, TxnView};

/// One event of a transaction stream.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// A session opens a transaction.
    Begin {
        /// Session name.
        session: u64,
    },
    /// The open transaction writes `value` to `key`.
    Write {
        /// Session name.
        session: u64,
        /// Key written.
        key: u64,
        /// Value written (unique per key, as in the batch pipeline).
        value: u64,
    },
    /// The open transaction reads `value` from `key`.
    Read {
        /// Session name.
        session: u64,
        /// Key read.
        key: u64,
        /// Value observed.
        value: u64,
    },
    /// The open transaction commits.
    Commit {
        /// Session name.
        session: u64,
    },
    /// The open transaction aborts.
    Abort {
        /// Session name.
        session: u64,
    },
}

impl Event {
    /// The session the event belongs to.
    pub fn session(&self) -> u64 {
        match *self {
            Event::Begin { session }
            | Event::Write { session, .. }
            | Event::Read { session, .. }
            | Event::Commit { session }
            | Event::Abort { session } => session,
        }
    }
}

/// Visits a finished [`History`]'s event-stream form one event at a
/// time — the streaming core of [`events_of_history`], for writers that
/// need no materialized `Vec<Event>`.
///
/// Sessions take turns round-robin, one whole transaction per turn, so
/// each session's events keep its session order, as the online checker
/// requires. A session skips its turn while its next transaction reads a
/// value written by a transaction not yet emitted, so every write comes
/// before the reads of its value, as a pruned
/// [`OnlineChecker`](crate::OnlineChecker) needs. When every session with
/// transactions left is blocked (a `so ∪ wr` cycle), the lowest-numbered
/// one goes anyway. The verdict is the same for every arrival order; only
/// pruning depends on it.
pub fn for_each_event(h: &History, mut f: impl FnMut(&Event)) {
    let sessions: Vec<_> = (0..h.num_sessions())
        .map(|s| h.session(SessionId(s as u32)))
        .collect();
    let mut next = vec![0usize; sessions.len()];
    let mut left: usize = sessions.iter().map(|v| v.len()).sum();
    // Whether every external write `t` reads has been emitted.
    let ready = |t: TxnView<'_>, next: &[usize]| {
        t.ops().iter().all(|op| match *op {
            Op::Read {
                source: ReadSource::External { txn, .. },
                ..
            } => next[txn.session as usize] > txn.index as usize,
            _ => true,
        })
    };
    while left > 0 {
        let mut progressed = false;
        for s in 0..sessions.len() {
            if next[s] < sessions[s].len() && ready(sessions[s].txn(next[s]), &next) {
                emit_txn(h, s, sessions[s].txn(next[s]), &mut f);
                next[s] += 1;
                left -= 1;
                progressed = true;
            }
        }
        if !progressed {
            let s = (0..sessions.len())
                .find(|&s| next[s] < sessions[s].len())
                .expect("a session has transactions left");
            emit_txn(h, s, sessions[s].txn(next[s]), &mut f);
            next[s] += 1;
            left -= 1;
        }
    }
}

/// Visits the events of transaction `t` of session `s`.
fn emit_txn(h: &History, s: usize, t: TxnView<'_>, f: &mut impl FnMut(&Event)) {
    let session = s as u64;
    f(&Event::Begin { session });
    for op in t.ops() {
        f(&match *op {
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
    f(&if t.is_committed() {
        Event::Commit { session }
    } else {
        Event::Abort { session }
    });
}

/// Flattens a finished [`History`] into an event stream — the
/// materialized form of [`for_each_event`].
pub fn events_of_history(h: &History) -> Vec<Event> {
    let mut events = Vec::with_capacity(h.size() + 2 * h.num_txns());
    for_each_event(h, |e| events.push(*e));
    events
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Begin { session } => write!(f, "s{session}: begin"),
            Event::Write {
                session,
                key,
                value,
            } => write!(f, "s{session}: W({key}, {value})"),
            Event::Read {
                session,
                key,
                value,
            } => write!(f, "s{session}: R({key}, {value})"),
            Event::Commit { session } => write!(f, "s{session}: commit"),
            Event::Abort { session } => write!(f, "s{session}: abort"),
        }
    }
}
