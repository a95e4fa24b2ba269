//! Multi-tenant session multiplexing: one [`OnlineChecker`] per tenant,
//! drawn from a shared warm pool.
//!
//! A *tenant* is a named event stream (`/v1/sessions/{id}/…`). Each
//! tenant owns its own checker — watermark GC bounds its live set
//! independently of every other tenant — plus an append-only violation
//! log with monotone sequence numbers for retrieval and long-polling.
//! Connections are not sessions: any number of connections may feed or
//! poll one tenant (its state sits behind a per-tenant mutex), and a
//! tenant outlives the connections that created it until it is finished.
//!
//! Finishing a tenant runs the checker's terminal pass
//! ([`OnlineChecker::drain`]) — thin-air reads, `so ∪ wr` deadlocks —
//! and returns the emptied-but-warm checker to the hub's pool, so the
//! next tenant (a reconnect, a new client) starts with pre-grown hash
//! maps, index slabs, and graph adjacency instead of cold allocations.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use awdit_core::IsolationLevel;
use awdit_obs::Obs;
use awdit_stream::{OnlineChecker, StreamConfig, StreamStats, StreamViolation};

/// Tenant ids are path segments; keep them boring.
pub fn valid_session_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// One retrievable violation, with its position in the tenant's log.
#[derive(Clone, Debug)]
pub struct ViolationRecord {
    /// 1-based position in the tenant's violation log.
    pub seq: u64,
    /// Kebab-case batch classification (`None` for beyond-horizon reads).
    pub kind: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl ViolationRecord {
    fn from_violation(seq: u64, v: &StreamViolation) -> Self {
        ViolationRecord {
            seq,
            kind: v.kind().map(|k| k.wire_name().to_string()),
            message: v.to_string(),
        }
    }
}

/// The terminal summary of a finished tenant.
#[derive(Clone, Debug)]
pub struct SessionSummary {
    /// Tenant id.
    pub id: String,
    /// Level the stream was checked at.
    pub level: IsolationLevel,
    /// Whether the whole stream was consistent.
    pub consistent: bool,
    /// Final stream statistics.
    pub stats: StreamStats,
    /// Sticky stream error, if the stream was poisoned.
    pub error: Option<String>,
}

/// Mutable per-tenant state, behind the tenant mutex.
struct TenantState {
    checker: Option<OnlineChecker>,
    log: Vec<ViolationRecord>,
    next_seq: u64,
    finished: Option<SessionSummary>,
    staging_budget: u64,
}

/// A live tenant: state plus a condvar for violation long-polling.
pub struct Tenant {
    state: Mutex<TenantState>,
    new_violations: Condvar,
}

/// What one intake batch did to a tenant.
#[derive(Clone, Debug)]
pub enum IntakeOutcome {
    /// All offered events were applied.
    Accepted(IntakeStats),
    /// Intake stopped early: the staging set hit the tenant's budget.
    /// The client should retry the unaccepted suffix after a pause.
    Backpressure(IntakeStats),
    /// The stream is poisoned (protocol or unique-value error); applies
    /// stopped at the offending event.
    StreamError {
        /// Progress up to the error.
        stats: IntakeStats,
        /// The sticky error, rendered.
        message: String,
    },
    /// The tenant was already finished.
    Finished,
}

/// Progress counters returned with every intake response.
#[derive(Copy, Clone, Debug, Default)]
pub struct IntakeStats {
    /// Events applied by this request.
    pub accepted: u64,
    /// Tenant-lifetime events applied.
    pub events: u64,
    /// Transactions currently staged (waiting on dependencies).
    pub staged: u64,
    /// Transactions currently live (processed, unretired).
    pub live: u64,
    /// Tenant-lifetime violations detected.
    pub violations: u64,
}

impl Tenant {
    fn intake_stats(checker: &OnlineChecker, accepted: u64) -> IntakeStats {
        let s = checker.stats();
        IntakeStats {
            accepted,
            events: s.events,
            staged: s.staged_txns,
            live: s.live_txns,
            violations: s.violations,
        }
    }

    /// Applies a batch of events under the tenant lock, enforcing the
    /// staging budget between events. Newly detected violations move to
    /// the retrieval log and wake long-pollers.
    pub fn apply_events(&self, events: &[awdit_stream::Event]) -> IntakeOutcome {
        let mut st = self.state.lock().unwrap();
        if st.finished.is_some() {
            return IntakeOutcome::Finished;
        }
        let budget = st.staging_budget;
        let checker = st.checker.as_mut().expect("unfinished tenant has checker");
        let mut accepted = 0u64;
        let mut error = None;
        let mut backpressure = false;
        for event in events {
            if checker.stats().staged_txns >= budget {
                backpressure = true;
                break;
            }
            match checker.apply(event) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    error = Some(e.to_string());
                    break;
                }
            }
        }
        let stats = Self::intake_stats(checker, accepted);
        let fresh = checker.drain_violations();
        if !fresh.is_empty() {
            for v in &fresh {
                st.next_seq += 1;
                let seq = st.next_seq;
                st.log.push(ViolationRecord::from_violation(seq, v));
            }
            self.new_violations.notify_all();
        }
        match error {
            Some(message) => IntakeOutcome::StreamError { stats, message },
            None if backpressure => IntakeOutcome::Backpressure(stats),
            None => IntakeOutcome::Accepted(stats),
        }
    }

    /// Violations with `seq > since`, waiting up to `wait` for new ones
    /// when the log is already drained past `since`. Returns the records
    /// plus whether the tenant is finished.
    pub fn violations_since(&self, since: u64, wait: Duration) -> (Vec<ViolationRecord>, bool) {
        let mut st = self.state.lock().unwrap();
        if !wait.is_zero() {
            let deadline = std::time::Instant::now() + wait;
            while st.next_seq <= since && st.finished.is_none() {
                let now = std::time::Instant::now();
                let Some(left) = deadline.checked_duration_since(now) else {
                    break;
                };
                if left.is_zero() {
                    break;
                }
                let (guard, _) = self.new_violations.wait_timeout(st, left).unwrap();
                st = guard;
                if st.next_seq > since {
                    break;
                }
                if std::time::Instant::now() >= deadline {
                    break;
                }
            }
        }
        let records = st.log.iter().filter(|r| r.seq > since).cloned().collect();
        (records, st.finished.is_some())
    }

    /// Point-in-time statistics (for `/healthz`).
    pub fn stats(&self) -> (StreamStats, bool) {
        let st = self.state.lock().unwrap();
        match (&st.checker, &st.finished) {
            (Some(c), _) => (*c.stats(), st.finished.is_some()),
            (None, Some(s)) => (s.stats, true),
            (None, None) => (StreamStats::default(), false),
        }
    }
}

/// The hub: tenant registry plus the warm checker pool.
pub struct SessionHub {
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    pool: Mutex<Vec<OnlineChecker>>,
    defaults: StreamConfig,
    default_budget: u64,
    /// Cap on pooled warm checkers (beyond it, finished checkers are
    /// simply dropped).
    warm_cap: usize,
    obs: Obs,
}

impl SessionHub {
    /// A hub whose tenants default to `defaults` and `staging_budget`,
    /// and that parks at most `warm_cap` finished checkers for reuse.
    pub fn new(defaults: StreamConfig, staging_budget: u64, warm_cap: usize, obs: Obs) -> Self {
        SessionHub {
            tenants: Mutex::new(HashMap::new()),
            pool: Mutex::new(Vec::new()),
            defaults,
            default_budget: staging_budget,
            warm_cap,
            obs,
        }
    }

    /// The hub-wide default stream configuration.
    pub fn defaults(&self) -> StreamConfig {
        self.defaults
    }

    /// The hub-wide default staging budget.
    pub fn default_budget(&self) -> u64 {
        self.default_budget
    }

    /// Number of checkers currently parked in the warm pool.
    pub fn pooled(&self) -> usize {
        self.pool.lock().unwrap().len()
    }

    /// The warm-pool cap this hub was configured with.
    pub fn warm_cap(&self) -> usize {
        self.warm_cap
    }

    /// A warm checker from the pool (reconfigured for `cfg`), or a fresh
    /// one.
    fn checker_for(&self, cfg: StreamConfig) -> OnlineChecker {
        match self.pool.lock().unwrap().pop() {
            Some(mut c) => {
                c.reconfigure(cfg);
                c
            }
            None => {
                let mut c = OnlineChecker::with_config(cfg);
                c.set_obs(self.obs.clone());
                c
            }
        }
    }

    /// The tenant under `id`, creating it with `cfg`/`budget` (falling
    /// back to the hub defaults) on first contact; the boolean reports
    /// whether this call created it. Configuration overrides on an
    /// *existing* tenant are ignored — the stream is already underway.
    pub fn tenant(
        &self,
        id: &str,
        cfg: Option<StreamConfig>,
        budget: Option<u64>,
    ) -> (Arc<Tenant>, bool) {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(t) = tenants.get(id) {
            return (t.clone(), false);
        }
        let checker = self.checker_for(cfg.unwrap_or(self.defaults));
        let tenant = Arc::new(Tenant {
            state: Mutex::new(TenantState {
                checker: Some(checker),
                log: Vec::new(),
                next_seq: 0,
                finished: None,
                staging_budget: budget.unwrap_or(self.default_budget).max(1),
            }),
            new_violations: Condvar::new(),
        });
        tenants.insert(id.to_string(), tenant.clone());
        (tenant, true)
    }

    /// The tenant under `id`, if it exists.
    pub fn get(&self, id: &str) -> Option<Arc<Tenant>> {
        self.tenants.lock().unwrap().get(id).cloned()
    }

    /// Ids of all known tenants, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.tenants.lock().unwrap().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Finalizes tenant `id`: runs the checker's terminal pass, moves its
    /// last violations into the log, stores the summary, and parks the
    /// warm checker in the pool. Idempotent — finishing a finished tenant
    /// returns the stored summary.
    pub fn finish(&self, id: &str) -> Option<SessionSummary> {
        let tenant = self.get(id)?;
        let mut st = tenant.state.lock().unwrap();
        if let Some(done) = &st.finished {
            return Some(done.clone());
        }
        let mut checker = st.checker.take().expect("unfinished tenant has checker");
        let level = checker.level();
        let summary = match checker.drain() {
            Ok(outcome) => {
                for v in outcome.violations() {
                    st.next_seq += 1;
                    let seq = st.next_seq;
                    st.log.push(ViolationRecord::from_violation(seq, v));
                }
                SessionSummary {
                    id: id.to_string(),
                    level: outcome.level(),
                    consistent: outcome.is_consistent(),
                    stats: outcome.stats(),
                    error: None,
                }
            }
            Err(e) => SessionSummary {
                id: id.to_string(),
                level,
                consistent: false,
                stats: StreamStats::default(),
                error: Some(e.to_string()),
            },
        };
        {
            let mut pool = self.pool.lock().unwrap();
            if pool.len() < self.warm_cap {
                pool.push(checker);
            }
        }
        st.finished = Some(summary.clone());
        tenant.new_violations.notify_all();
        Some(summary)
    }

    /// Finalizes every unfinished tenant (graceful shutdown) and returns
    /// all terminal summaries, sorted by id.
    pub fn drain_all(&self) -> Vec<SessionSummary> {
        let ids = self.ids();
        ids.iter().filter_map(|id| self.finish(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_stream::Event;

    fn hub() -> SessionHub {
        SessionHub::new(StreamConfig::default(), 1024, 32, Obs::disabled())
    }

    #[test]
    fn session_ids_are_validated() {
        assert!(valid_session_id("tenant-1.a_b"));
        assert!(!valid_session_id(""));
        assert!(!valid_session_id("a/b"));
        assert!(!valid_session_id(&"x".repeat(65)));
    }

    #[test]
    fn intake_logs_violations_and_finish_is_idempotent() {
        let hub = hub();
        let (t, _) = hub.tenant("a", None, None);
        // A committed read of a never-written value stays pending until
        // finish, where it surfaces as thin-air.
        let events = [
            Event::Begin { session: 0 },
            Event::Read {
                session: 0,
                key: 1,
                value: 99,
            },
            Event::Commit { session: 0 },
        ];
        match t.apply_events(&events) {
            IntakeOutcome::Accepted(s) => assert_eq!(s.accepted, 3),
            other => panic!("unexpected outcome {other:?}"),
        }
        let s1 = hub.finish("a").unwrap();
        assert!(!s1.consistent);
        let s2 = hub.finish("a").unwrap();
        assert_eq!(s1.consistent, s2.consistent);
        let (records, finished) = t.violations_since(0, Duration::ZERO);
        assert!(finished);
        assert_eq!(records.len(), 1);
        assert!(records[0].message.contains("thin-air"));
        // The warm checker went back to the pool and gets reused.
        assert_eq!(hub.pooled(), 1);
        let (_b, created) = hub.tenant("b", None, None);
        assert!(created);
        assert_eq!(hub.pooled(), 0);
    }

    #[test]
    fn staging_budget_stops_intake() {
        let hub = hub();
        let (t, _) = hub.tenant("a", None, Some(2));
        // Each transaction reads a value nobody wrote: all stay staged.
        let mut events = Vec::new();
        for i in 0..10u64 {
            events.push(Event::Begin { session: i });
            events.push(Event::Read {
                session: i,
                key: 7,
                value: 1000 + i,
            });
            events.push(Event::Commit { session: i });
        }
        match t.apply_events(&events) {
            IntakeOutcome::Backpressure(s) => {
                assert!(s.accepted < events.len() as u64);
                assert!(s.staged >= 2);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
    }

    #[test]
    fn events_after_finish_are_rejected() {
        let hub = hub();
        let (t, _) = hub.tenant("a", None, None);
        hub.finish("a").unwrap();
        match t.apply_events(&[Event::Begin { session: 0 }]) {
            IntakeOutcome::Finished => {}
            other => panic!("expected Finished, got {other:?}"),
        }
    }
}
