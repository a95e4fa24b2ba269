//! The daemon itself: a thread-per-core accept pool in front of the
//! [`SessionHub`], speaking the minimal HTTP layer from [`crate::http`].
//!
//! Workers share one non-blocking listener (each holds a `try_clone`
//! handle) and poll it with a short sleep so a [`ShutdownToken`] trigger
//! is observed within tens of milliseconds without any self-pipe
//! machinery. Accepted sockets are switched back to blocking reads with a
//! timeout, so a stalled client costs one worker at most
//! [`HttpLimits::read_timeout`] before the connection is shed with `408`.
//!
//! Routes:
//!
//! | Method & path                     | Purpose                                  |
//! |-----------------------------------|------------------------------------------|
//! | `POST /v1/sessions/{id}/events`   | stream NDJSON events into a tenant       |
//! | `POST /v1/sessions/{id}/finish`   | finalize a tenant, get its summary       |
//! | `GET /v1/sessions/{id}/violations`| retrieve/long-poll the violation log     |
//! | `POST /v1/check`                  | one-shot batch check of an uploaded file |
//! | `GET /healthz`                    | liveness + per-tenant stream statistics  |
//! | `GET /metrics`                    | Prometheus text exposition               |

use std::io::{self, BufRead, BufReader, BufWriter, Cursor, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use awdit_core::{parallel, Engine, EngineConfig, IsolationLevel, Outcome};
use awdit_formats::{parse_event, read_auto, HistoryReport, Report};
use awdit_obs::metrics::{Counter, Histogram};
use awdit_obs::Obs;
use awdit_stream::{Event, ShutdownToken, StreamConfig, StreamStats};

use crate::http::{
    body_kind, json_escape, read_request, write_response, BodyKind, BodyLines, BodyReader,
    HttpError, HttpLimits, Request,
};
use crate::session::{valid_session_id, IntakeOutcome, IntakeStats, SessionHub, SessionSummary};

/// Events buffered from the wire before they are applied under the
/// tenant lock — bounds lock hold time per batch without a syscall per
/// event.
const EVENT_BATCH: usize = 512;

/// How long a worker sleeps when the listener has nothing to accept.
const ACCEPT_IDLE: Duration = Duration::from_millis(20);

/// Longest honored `wait_ms` on the violations long-poll.
const MAX_POLL: Duration = Duration::from_secs(30);

/// Everything `Server::bind` needs to stand up a daemon.
#[derive(Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Accept/worker threads (`0` = all cores).
    pub threads: usize,
    /// Worker threads for the shared batch-check engine behind
    /// `POST /v1/check` (`0` = all cores). Independent of the accept
    /// threads: a one-shot batch check can saturate the box while each
    /// online tenant's checker runs on the connection thread feeding it.
    pub check_threads: usize,
    /// Default per-tenant stream configuration (level, pruning, …).
    pub stream: StreamConfig,
    /// Default per-tenant staging budget: intake returns `429` while a
    /// tenant holds this many staged (dependency-blocked) transactions.
    pub staging_budget: u64,
    /// Cap on warm checkers parked for tenant reuse (beyond it, finished
    /// checkers are dropped).
    pub warm_pool: usize,
    /// HTTP framing limits (body cap, read timeout).
    pub limits: HttpLimits,
    /// Observability handle; `/metrics` serves its Prometheus export.
    pub obs: Obs,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: 0,
            check_threads: 0,
            stream: StreamConfig::default(),
            staging_budget: 4096,
            warm_pool: 32,
            limits: HttpLimits::default(),
            obs: Obs::new(),
        }
    }
}

/// What a drained server hands back: the terminal summary of every
/// tenant that was still open when shutdown hit, plus the ones already
/// finished.
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Terminal summaries, sorted by tenant id.
    pub sessions: Vec<SessionSummary>,
}

/// Cached metric handles so the hot path never takes the registry lock.
struct ServeMetrics {
    handles: Option<Handles>,
}

struct Handles {
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    http_errors: Arc<Counter>,
    events: Arc<Counter>,
    backpressure: Arc<Counter>,
    sessions_opened: Arc<Counter>,
    sessions_finished: Arc<Counter>,
    intake_micros: Arc<Histogram>,
}

impl ServeMetrics {
    fn new(obs: &Obs) -> Self {
        let handles = obs.metrics().map(|m| Handles {
            connections: m.counter("awdit_serve_connections_total"),
            requests: m.counter("awdit_serve_requests_total"),
            http_errors: m.counter("awdit_serve_http_errors_total"),
            events: m.counter("awdit_serve_events_total"),
            backpressure: m.counter("awdit_serve_backpressure_total"),
            sessions_opened: m.counter("awdit_serve_sessions_opened_total"),
            sessions_finished: m.counter("awdit_serve_sessions_finished_total"),
            intake_micros: m.histogram("awdit_serve_intake_micros"),
        });
        ServeMetrics { handles }
    }

    fn connection(&self) {
        if let Some(h) = &self.handles {
            h.connections.inc();
        }
    }
    fn request(&self) {
        if let Some(h) = &self.handles {
            h.requests.inc();
        }
    }
    fn http_error(&self) {
        if let Some(h) = &self.handles {
            h.http_errors.inc();
        }
    }
    fn events(&self, n: u64) {
        if let Some(h) = &self.handles {
            h.events.add(n);
        }
    }
    fn backpressure(&self) {
        if let Some(h) = &self.handles {
            h.backpressure.inc();
        }
    }
    fn session_opened(&self) {
        if let Some(h) = &self.handles {
            h.sessions_opened.inc();
        }
    }
    fn session_finished(&self) {
        if let Some(h) = &self.handles {
            h.sessions_finished.inc();
        }
    }
    fn intake(&self, micros: u64) {
        if let Some(h) = &self.handles {
            h.intake_micros.observe(micros);
        }
    }
}

/// A bound-but-not-yet-running daemon. [`run`](Server::run) blocks until
/// the [`ShutdownToken`] fires, then drains every tenant and returns the
/// terminal summaries.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    hub: SessionHub,
    engine: Mutex<Engine>,
    shutdown: ShutdownToken,
    threads: usize,
    limits: HttpLimits,
    obs: Obs,
    metrics: ServeMetrics,
}

impl Server {
    /// Binds the listen socket and builds the hub. Nothing runs yet.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let threads = parallel::effective_threads(cfg.threads);
        let mut engine = Engine::with_config(EngineConfig {
            level: cfg.stream.level,
            threads: cfg.check_threads,
            ..EngineConfig::default()
        });
        engine.set_obs(cfg.obs.clone());
        let metrics = ServeMetrics::new(&cfg.obs);
        Ok(Server {
            listener,
            local_addr,
            hub: SessionHub::new(
                cfg.stream,
                cfg.staging_budget.max(1),
                cfg.warm_pool,
                cfg.obs.clone(),
            ),
            engine: Mutex::new(engine),
            shutdown: ShutdownToken::new(),
            threads,
            limits: cfg.limits,
            obs: cfg.obs,
            metrics,
        })
    }

    /// The bound address — the source of truth when `addr` asked for an
    /// ephemeral port.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The token that stops [`run`](Server::run); clone it into signal
    /// handlers or test harnesses.
    pub fn shutdown_token(&self) -> ShutdownToken {
        self.shutdown.clone()
    }

    /// Serves until the shutdown token triggers, then finalizes every
    /// open tenant and returns all terminal summaries.
    ///
    /// # Errors
    ///
    /// Propagates listener-cloning I/O errors; per-connection errors are
    /// absorbed (the offending connection is dropped).
    pub fn run(&self) -> io::Result<ServeSummary> {
        let mut handles = Vec::with_capacity(self.threads);
        for _ in 0..self.threads {
            handles.push(self.listener.try_clone()?);
        }
        std::thread::scope(|s| {
            for listener in handles {
                s.spawn(move || self.worker(listener));
            }
        });
        Ok(ServeSummary {
            sessions: self.hub.drain_all(),
        })
    }

    fn worker(&self, listener: TcpListener) {
        loop {
            if self.shutdown.is_triggered() {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    self.metrics.connection();
                    let _ = self.handle_connection(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_IDLE);
                }
                Err(_) => std::thread::sleep(ACCEPT_IDLE),
            }
        }
    }

    fn handle_connection(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(self.limits.read_timeout))?;
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        loop {
            let req = match read_request(&mut reader) {
                Ok(r) => r,
                Err(HttpError::Closed) => return Ok(()),
                Err(e) => {
                    self.metrics.http_error();
                    let _ = framing_error_response(&mut writer, &e);
                    return Ok(());
                }
            };
            self.metrics.request();
            let keep = self.dispatch(&req, &mut reader, &mut writer)?;
            writer.flush()?;
            if !keep || req.wants_close() || self.shutdown.is_triggered() {
                return Ok(());
            }
        }
    }

    fn dispatch<R: BufRead, W: Write>(
        &self,
        req: &Request,
        reader: &mut R,
        writer: &mut W,
    ) -> io::Result<bool> {
        let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segs.as_slice()) {
            ("GET", ["healthz"]) => self.get_healthz(req, reader, writer),
            ("GET", ["metrics"]) => self.get_metrics(req, reader, writer),
            ("POST", ["v1", "check"]) => self.post_check(req, reader, writer),
            ("POST", ["v1", "sessions", id, "events"]) => self.post_events(req, id, reader, writer),
            ("POST", ["v1", "sessions", id, "finish"]) => self.post_finish(req, id, reader, writer),
            ("GET", ["v1", "sessions", id, "violations"]) => {
                let id = id.to_string();
                if !self.consume_body(req, reader, writer)? {
                    return Ok(false);
                }
                self.get_violations(req, &id, writer)
            }
            (_, ["healthz" | "metrics"]) | (_, ["v1", ..]) => {
                json_error(writer, 405, "method not allowed")?;
                Ok(false)
            }
            _ => {
                json_error(writer, 404, "not found")?;
                Ok(false)
            }
        }
    }

    /// Discards any request body (GET endpoints and `finish`, which take
    /// none) so keep-alive stays framed; responds and closes on framing
    /// errors.
    fn consume_body<R: BufRead, W: Write>(
        &self,
        req: &Request,
        reader: &mut R,
        writer: &mut W,
    ) -> io::Result<bool> {
        let kind = match body_kind(req) {
            Ok(k) => k,
            Err(e) => {
                self.metrics.http_error();
                framing_error_response(writer, &e)?;
                return Ok(false);
            }
        };
        if matches!(kind, BodyKind::Empty) {
            return Ok(true);
        }
        let mut body = BodyReader::new(reader, kind, &self.limits);
        match body.discard_rest() {
            Ok(()) => Ok(true),
            Err(e) => {
                self.metrics.http_error();
                framing_error_response(writer, &e)?;
                Ok(false)
            }
        }
    }

    fn get_metrics<R: BufRead, W: Write>(
        &self,
        req: &Request,
        reader: &mut R,
        writer: &mut W,
    ) -> io::Result<bool> {
        if !self.consume_body(req, reader, writer)? {
            return Ok(false);
        }
        let text = self.obs.export_prometheus();
        write_response(
            writer,
            200,
            "text/plain; version=0.0.4",
            text.as_bytes(),
            &[],
            true,
        )?;
        Ok(true)
    }

    fn get_healthz<R: BufRead, W: Write>(
        &self,
        req: &Request,
        reader: &mut R,
        writer: &mut W,
    ) -> io::Result<bool> {
        if !self.consume_body(req, reader, writer)? {
            return Ok(false);
        }
        let status = if self.shutdown.is_triggered() {
            "draining"
        } else {
            "ok"
        };
        let ids = self.hub.ids();
        let mut open = 0usize;
        let mut finished = 0usize;
        let mut agg = StreamStats::default();
        let mut tenants = String::new();
        for id in &ids {
            let Some(t) = self.hub.get(id) else { continue };
            let (s, done) = t.stats();
            if done {
                finished += 1;
            } else {
                open += 1;
            }
            agg.events += s.events;
            agg.processed += s.processed;
            agg.retired_txns += s.retired_txns;
            agg.live_txns += s.live_txns;
            agg.peak_live_txns = agg.peak_live_txns.max(s.peak_live_txns);
            agg.staged_txns += s.staged_txns;
            agg.peak_staged_txns = agg.peak_staged_txns.max(s.peak_staged_txns);
            agg.live_edges += s.live_edges;
            agg.violations += s.violations;
            agg.horizon_misses += s.horizon_misses;
            if !tenants.is_empty() {
                tenants.push(',');
            }
            tenants.push_str(&format!(
                "{{\"id\":\"{}\",\"finished\":{},{}}}",
                json_escape(id),
                done,
                stream_stats_json(&s)
            ));
        }
        let es = self.engine().stats();
        let body = format!(
            "{{\"status\":\"{}\",\"sessions\":{{\"open\":{},\"finished\":{},\"pooled\":{},\
             \"warm_cap\":{}}},\
             \"stream\":{{{}}},\
             \"engine\":{{\"histories\":{},\"checks\":{},\"arena_growths\":{},\"arena_bytes\":{},\
             \"threads\":{}}},\
             \"tenants\":[{}]}}",
            status,
            open,
            finished,
            self.hub.pooled(),
            self.hub.warm_cap(),
            stream_stats_json(&agg),
            es.histories,
            es.checks,
            es.arena_growths,
            es.arena_bytes,
            es.threads,
            tenants,
        );
        write_response(writer, 200, "application/json", body.as_bytes(), &[], true)?;
        Ok(true)
    }

    /// The shared batch engine. A lock poisoned by a panic under it holds
    /// an engine in an unknown state: it is replaced by a fresh engine of
    /// the same config, and the poison is cleared.
    fn engine(&self) -> MutexGuard<'_, Engine> {
        self.engine.lock().unwrap_or_else(|poisoned| {
            let mut engine = poisoned.into_inner();
            *engine = self.fresh_engine(*engine.config());
            self.engine.clear_poison();
            engine
        })
    }

    /// A new engine with `cfg` and the daemon's observability handle.
    fn fresh_engine(&self, cfg: EngineConfig) -> Engine {
        let mut engine = Engine::with_config(cfg);
        engine.set_obs(self.obs.clone());
        engine
    }

    fn post_check<R: BufRead, W: Write>(
        &self,
        req: &Request,
        reader: &mut R,
        writer: &mut W,
    ) -> io::Result<bool> {
        let kind = match body_kind(req) {
            Ok(k) => k,
            Err(e) => {
                self.metrics.http_error();
                framing_error_response(writer, &e)?;
                return Ok(false);
            }
        };
        let mut body = BodyReader::new(reader, kind, &self.limits);
        let bytes = match body.read_all() {
            Ok(b) => b,
            Err(e) => {
                self.metrics.http_error();
                framing_error_response(writer, &e)?;
                return Ok(false);
            }
        };
        let iso = req.query_param("isolation").unwrap_or("");
        let all = iso.eq_ignore_ascii_case("all");
        let level = if iso.is_empty() || all {
            self.hub.defaults().level
        } else {
            match iso.parse::<IsolationLevel>() {
                Ok(l) => l,
                Err(e) => {
                    json_error(writer, 400, &e.to_string())?;
                    return Ok(false);
                }
            }
        };
        let name = req.query_param("name").unwrap_or("upload").to_string();
        let started = Instant::now();
        // A panic while parsing or checking must not take the daemon down:
        // it answers 500, and the engine, whose arenas it may have left
        // half-built, is replaced.
        let checked = {
            let mut engine = self.engine();
            let checked = panic::catch_unwind(AssertUnwindSafe(|| {
                check_upload(&mut engine, &bytes, level, all, &name, started)
            }));
            if checked.is_err() {
                *engine = self.fresh_engine(*engine.config());
            }
            checked
        };
        let report = match checked {
            Ok(Ok(report)) => report,
            Ok(Err(message)) => {
                json_error(writer, 400, &message)?;
                return Ok(false);
            }
            Err(_) => {
                json_error(writer, 500, "internal error while checking the history")?;
                return Ok(false);
            }
        };
        let json = report.to_json();
        write_response(writer, 200, "application/json", json.as_bytes(), &[], true)?;
        Ok(true)
    }

    /// Per-tenant stream configuration from query parameters, honored
    /// only when this request creates the tenant.
    fn stream_overrides(&self, req: &Request) -> Result<Option<StreamConfig>, String> {
        let mut cfg = self.hub.defaults();
        let mut touched = false;
        if let Some(v) = req.query_param("isolation") {
            cfg.level = v
                .parse::<IsolationLevel>()
                .map_err(|e| format!("isolation: {e}"))?;
            touched = true;
        }
        if let Some(v) = req.query_param("prune") {
            cfg.prune = match v {
                "true" | "1" | "on" => true,
                "false" | "0" | "off" => false,
                other => return Err(format!("prune: expected true/false, got {other:?}")),
            };
            touched = true;
        }
        if let Some(v) = req.query_param("interval") {
            cfg.prune_interval = v
                .parse::<u64>()
                .map_err(|_| format!("interval: not a number: {v:?}"))?
                .max(1);
            touched = true;
        }
        Ok(if touched { Some(cfg) } else { None })
    }

    fn post_events<R: BufRead, W: Write>(
        &self,
        req: &Request,
        id: &str,
        reader: &mut R,
        writer: &mut W,
    ) -> io::Result<bool> {
        if !valid_session_id(id) {
            json_error(writer, 400, "invalid session id")?;
            return Ok(false);
        }
        let cfg = match self.stream_overrides(req) {
            Ok(c) => c,
            Err(msg) => {
                json_error(writer, 400, &msg)?;
                return Ok(false);
            }
        };
        let budget = match req.query_param("budget") {
            None => None,
            Some(v) => match v.parse::<u64>() {
                Ok(n) => Some(n.max(1)),
                Err(_) => {
                    json_error(writer, 400, &format!("budget: not a number: {v:?}"))?;
                    return Ok(false);
                }
            },
        };
        let kind = match body_kind(req) {
            Ok(k) => k,
            Err(e) => {
                self.metrics.http_error();
                framing_error_response(writer, &e)?;
                return Ok(false);
            }
        };
        let (tenant, created) = self.hub.tenant(id, cfg, budget);
        if created {
            self.metrics.session_opened();
        }
        let started = Instant::now();
        let body = BodyReader::new(reader, kind, &self.limits);
        let mut lines = BodyLines::new(body);
        let mut batch: Vec<Event> = Vec::with_capacity(EVENT_BATCH);
        let mut line_no = 0usize;
        let mut accepted = 0u64;
        let mut last = IntakeStats::default();
        loop {
            let line = match lines.next_line() {
                Ok(l) => l,
                Err(e) => {
                    self.metrics.http_error();
                    self.metrics.events(accepted);
                    framing_error_response(writer, &e)?;
                    return Ok(false);
                }
            };
            if let Some(l) = &line {
                line_no += 1;
                let trimmed = l.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                match parse_event(trimmed, line_no) {
                    Ok(ev) => batch.push(ev),
                    Err(e) => {
                        self.metrics.events(accepted);
                        json_error(writer, 400, &format!("bad event: {e}"))?;
                        return Ok(false);
                    }
                }
            }
            let at_end = line.is_none();
            if (at_end || batch.len() >= EVENT_BATCH) && !batch.is_empty() {
                match tenant.apply_events(&batch) {
                    IntakeOutcome::Accepted(st) => {
                        accepted += st.accepted;
                        last = st;
                        batch.clear();
                    }
                    IntakeOutcome::Backpressure(st) => {
                        accepted += st.accepted;
                        self.metrics.backpressure();
                        self.metrics.events(accepted);
                        let body = format!(
                            "{{\"error\":\"staging budget exhausted\",\"session\":\"{}\",\
                             \"accepted\":{},{}}}",
                            json_escape(id),
                            accepted,
                            intake_stats_json(&st),
                        );
                        write_response(
                            writer,
                            429,
                            "application/json",
                            body.as_bytes(),
                            &[("Retry-After", "1".to_string())],
                            false,
                        )?;
                        return Ok(false);
                    }
                    IntakeOutcome::StreamError { stats, message } => {
                        accepted += stats.accepted;
                        self.metrics.events(accepted);
                        let body = format!(
                            "{{\"error\":\"{}\",\"session\":\"{}\",\"accepted\":{},{}}}",
                            json_escape(&message),
                            json_escape(id),
                            accepted,
                            intake_stats_json(&stats),
                        );
                        write_response(
                            writer,
                            409,
                            "application/json",
                            body.as_bytes(),
                            &[],
                            false,
                        )?;
                        return Ok(false);
                    }
                    IntakeOutcome::Finished => {
                        json_error(writer, 409, "session already finished")?;
                        return Ok(false);
                    }
                }
            }
            if at_end {
                break;
            }
        }
        self.metrics.events(accepted);
        self.metrics.intake(started.elapsed().as_micros() as u64);
        let body = format!(
            "{{\"session\":\"{}\",\"accepted\":{},{}}}",
            json_escape(id),
            accepted,
            intake_stats_json(&last),
        );
        write_response(writer, 200, "application/json", body.as_bytes(), &[], true)?;
        Ok(true)
    }

    fn post_finish<R: BufRead, W: Write>(
        &self,
        req: &Request,
        id: &str,
        reader: &mut R,
        writer: &mut W,
    ) -> io::Result<bool> {
        let id = id.to_string();
        if !self.consume_body(req, reader, writer)? {
            return Ok(false);
        }
        let was_open = match self.hub.get(&id) {
            Some(t) => !t.stats().1,
            None => {
                json_error(writer, 404, "unknown session")?;
                return Ok(false);
            }
        };
        let Some(summary) = self.hub.finish(&id) else {
            json_error(writer, 404, "unknown session")?;
            return Ok(false);
        };
        if was_open {
            self.metrics.session_finished();
        }
        let body = summary_json(&summary);
        write_response(writer, 200, "application/json", body.as_bytes(), &[], true)?;
        Ok(true)
    }

    fn get_violations<W: Write>(
        &self,
        req: &Request,
        id: &str,
        writer: &mut W,
    ) -> io::Result<bool> {
        let Some(tenant) = self.hub.get(id) else {
            json_error(writer, 404, "unknown session")?;
            return Ok(false);
        };
        let since = match req.query_param("since") {
            None => 0,
            Some(v) => match v.parse::<u64>() {
                Ok(n) => n,
                Err(_) => {
                    json_error(writer, 400, &format!("since: not a number: {v:?}"))?;
                    return Ok(false);
                }
            },
        };
        let wait = match req.query_param("wait_ms") {
            None => Duration::ZERO,
            Some(v) => match v.parse::<u64>() {
                Ok(ms) => Duration::from_millis(ms).min(MAX_POLL),
                Err(_) => {
                    json_error(writer, 400, &format!("wait_ms: not a number: {v:?}"))?;
                    return Ok(false);
                }
            },
        };
        let (records, finished) = tenant.violations_since(since, wait);
        let mut items = String::new();
        for r in &records {
            if !items.is_empty() {
                items.push(',');
            }
            let kind = match &r.kind {
                Some(k) => format!("\"{}\"", json_escape(k)),
                None => "null".to_string(),
            };
            items.push_str(&format!(
                "{{\"seq\":{},\"kind\":{},\"message\":\"{}\"}}",
                r.seq,
                kind,
                json_escape(&r.message)
            ));
        }
        let body = format!(
            "{{\"session\":\"{}\",\"finished\":{},\"violations\":[{}]}}",
            json_escape(id),
            finished,
            items
        );
        write_response(writer, 200, "application/json", body.as_bytes(), &[], true)?;
        Ok(true)
    }
}

/// Maps a framing error to its status and closes the exchange;
/// [`HttpError::Closed`] and raw I/O errors get no response (the peer is
/// gone or the socket is unusable).
fn framing_error_response<W: Write>(writer: &mut W, e: &HttpError) -> io::Result<()> {
    let (status, msg) = match e {
        HttpError::Closed | HttpError::Io(_) => return Ok(()),
        HttpError::Malformed(m) => (400, m.clone()),
        HttpError::TooLarge("request head") => (431, "request head too large".to_string()),
        HttpError::TooLarge(what) => (413, format!("{what} too large")),
        HttpError::Timeout => (408, "read timed out".to_string()),
    };
    json_error(writer, status, &msg)
}

/// Parses an uploaded history into `engine` and checks it at `level`, or
/// at every level when `all` is set; `Err` is the 400 message.
fn check_upload(
    engine: &mut Engine,
    bytes: &[u8],
    level: IsolationLevel,
    all: bool,
    name: &str,
    started: Instant,
) -> Result<Report, String> {
    if let Err(e) = read_auto(Cursor::new(bytes), &mut *engine) {
        // Seal-and-discard resets the ingest arenas after the torn
        // upload; the outcome of the partial history is irrelevant.
        let _ = engine.finish_ingest_level(level);
        return Err(format!("cannot parse history: {e}"));
    }
    let outcomes: Vec<Outcome> = if all {
        engine.finish_ingest_all_levels().map(|arr| arr.to_vec())
    } else {
        engine.finish_ingest_level(level).map(|out| vec![out])
    }
    .map_err(|e| format!("malformed history: {e}"))?;
    let time_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(Report::new(vec![HistoryReport::new(
        name,
        engine.ingested(),
        &outcomes,
        time_ms,
    )]))
}

/// Writes a one-field JSON error body and marks the connection closed.
fn json_error<W: Write>(writer: &mut W, status: u16, message: &str) -> io::Result<()> {
    let body = format!("{{\"error\":\"{}\"}}", json_escape(message));
    write_response(
        writer,
        status,
        "application/json",
        body.as_bytes(),
        &[],
        false,
    )
}

fn intake_stats_json(st: &IntakeStats) -> String {
    format!(
        "\"events\":{},\"staged\":{},\"live\":{},\"violations\":{}",
        st.events, st.staged, st.live, st.violations
    )
}

fn stream_stats_json(s: &StreamStats) -> String {
    format!(
        "\"events\":{},\"processed\":{},\"retired_txns\":{},\"live_txns\":{},\
         \"peak_live_txns\":{},\"staged_txns\":{},\"peak_staged_txns\":{},\
         \"live_edges\":{},\"violations\":{},\"horizon_misses\":{},\"implicit_aborts\":{}",
        s.events,
        s.processed,
        s.retired_txns,
        s.live_txns,
        s.peak_live_txns,
        s.staged_txns,
        s.peak_staged_txns,
        s.live_edges,
        s.violations,
        s.horizon_misses,
        s.implicit_aborts
    )
}

/// The terminal summary of a finished tenant, as JSON.
pub fn summary_json(s: &SessionSummary) -> String {
    let error = match &s.error {
        Some(e) => format!("\"{}\"", json_escape(e)),
        None => "null".to_string(),
    };
    format!(
        "{{\"session\":\"{}\",\"level\":\"{}\",\"consistent\":{},\"error\":{},\"stats\":{{{}}}}}",
        json_escape(&s.id),
        s.level.short_name(),
        s.consistent,
        error,
        stream_stats_json(&s.stats)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn server() -> Server {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            obs: Obs::disabled(),
            ..ServeConfig::default()
        };
        Server::bind(cfg).expect("bind ephemeral")
    }

    fn roundtrip(server: &Server, raw: &str) -> String {
        let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
        sock.write_all(raw.as_bytes()).expect("send");
        let _ = sock.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        sock.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn healthz_and_shutdown() {
        let server = server();
        let token = server.shutdown_token();
        std::thread::scope(|s| {
            let handle = s.spawn(|| server.run().expect("run"));
            let resp = roundtrip(
                &server,
                "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            );
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("\"status\":\"ok\""), "{resp}");
            let resp = roundtrip(&server, "BOGUS nonsense\r\n\r\n");
            assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
            token.trigger();
            let summary = handle.join().expect("join");
            assert!(summary.sessions.is_empty());
        });
    }

    /// A panic under the engine lock poisons it; the next upload gets a
    /// fresh engine and a 200, not a panicking worker.
    #[test]
    fn poisoned_engine_is_replaced() {
        let server = server();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _engine = server.engine.lock().unwrap();
                panic!("poison the engine lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(server.engine.is_poisoned());
        let token = server.shutdown_token();
        // The daemon is stopped before any assertion, so a failed upload
        // fails the test instead of leaving `run` to wait forever.
        let resp = std::thread::scope(|s| {
            let handle = s.spawn(|| server.run());
            let history = "awdit-history v1\nsession 0\nc: w(1,1)\n";
            let resp = roundtrip(
                &server,
                &format!(
                    "POST /v1/check?isolation=cc HTTP/1.1\r\nHost: x\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                    history.len(),
                    history
                ),
            );
            token.trigger();
            assert!(handle.join().is_ok_and(|r| r.is_ok()), "the daemon failed");
            resp
        });
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"consistent\""), "{resp}");
        assert!(!server.engine.is_poisoned());
        assert_eq!(server.engine().stats().histories, 1);
    }

    #[test]
    fn event_intake_and_finish() {
        let server = server();
        let token = server.shutdown_token();
        std::thread::scope(|s| {
            let handle = s.spawn(|| server.run().expect("run"));
            let ndjson = "{\"type\":\"begin\",\"session\":1}\n\
                          {\"type\":\"write\",\"session\":1,\"key\":10,\"value\":100}\n\
                          {\"type\":\"commit\",\"session\":1}\n";
            let resp = roundtrip(
                &server,
                &format!(
                    "POST /v1/sessions/t1/events HTTP/1.1\r\nHost: x\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                    ndjson.len(),
                    ndjson
                ),
            );
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("\"accepted\":3"), "{resp}");
            let resp = roundtrip(
                &server,
                "POST /v1/sessions/t1/finish HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            );
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("\"consistent\":true"), "{resp}");
            token.trigger();
            handle.join().expect("join");
        });
    }
}
