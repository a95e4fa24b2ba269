//! End-to-end tests for `awdit serve`: real TCP sockets against an
//! in-process [`Server`], concurrent tenants, differential agreement
//! with the batch engine, backpressure, torn-frame fuzzing, and the
//! bounded-memory guarantee surfaced through `/healthz`.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use awdit::baselines::{random_noisy_history, GenParams};
use awdit::core::witness::ViolationKind;
use awdit::formats::write_events;
use awdit::obs::metrics::parse_prometheus;
use awdit::obs::Obs;
use awdit::serve::{HttpLimits, ServeConfig, Server};
use awdit::stream::{events_of_history, Event, StreamConfig};
use awdit::{check, History, IsolationLevel};

/// Binds an ephemeral-port server and runs it on a background thread;
/// the returned guard drains it on drop.
struct TestServer {
    server: Arc<Server>,
    addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(mut cfg: ServeConfig) -> TestServer {
        cfg.addr = "127.0.0.1:0".to_string();
        let server = Arc::new(Server::bind(cfg).expect("bind ephemeral port"));
        let addr = server.local_addr();
        let runner = server.clone();
        let handle = std::thread::spawn(move || {
            runner.run().expect("server run");
        });
        TestServer {
            server,
            addr,
            handle: Some(handle),
        }
    }

    fn stop(mut self) {
        self.server.shutdown_token().trigger();
        if let Some(h) = self.handle.take() {
            h.join().expect("server thread");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.server.shutdown_token().trigger();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One raw HTTP exchange: write `raw`, half-close, read everything.
fn raw_exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.write_all(raw).expect("send");
    let _ = sock.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    sock.read_to_end(&mut out).expect("read");
    out
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let resp = raw_exchange(addr, raw.as_bytes());
    let text = String::from_utf8_lossy(&resp).to_string();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    (status, body)
}

/// Pulls `"field":<number>` out of a flat JSON response.
fn json_u64(body: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\":");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {field} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

fn ndjson(events: &[Event]) -> String {
    write_events(events)
}

/// All `"kind":"…"` strings in a violations response, with the two cycle
/// classes merged (see tests/streaming.rs for why).
fn violation_kinds(body: &str) -> BTreeSet<String> {
    let mut kinds = BTreeSet::new();
    let mut rest = body;
    while let Some(at) = rest.find("\"kind\":\"") {
        let tail = &rest[at + 8..];
        let end = tail.find('"').expect("closing quote");
        let k = &tail[..end];
        kinds.insert(
            if k == "causality-cycle" {
                "commit-order-cycle"
            } else {
                k
            }
            .to_string(),
        );
        rest = &tail[end..];
    }
    kinds
}

fn normalize(kind: ViolationKind) -> &'static str {
    match kind {
        ViolationKind::CausalityCycle => ViolationKind::CommitOrderCycle.wire_name(),
        k => k.wire_name(),
    }
}

fn exact_causal_config() -> ServeConfig {
    ServeConfig {
        stream: StreamConfig {
            level: IsolationLevel::Causal,
            prune: false, // exact mode: verdicts must be bit-identical to batch
            ..StreamConfig::default()
        },
        obs: Obs::disabled(),
        ..ServeConfig::default()
    }
}

/// The headline differential: two tenants stream interleaved NDJSON
/// concurrently; each verdict and violation-kind set must match the
/// batch engine on the same history — at 1 and 8 server threads.
#[test]
fn concurrent_tenants_match_batch_verdicts() {
    let histories: Vec<(String, History)> = (0..2)
        .map(|i| {
            let h = random_noisy_history(
                0xA11CE + i,
                GenParams {
                    sessions: 4,
                    txns: 96,
                    keys: 6,
                    ..GenParams::default()
                },
            );
            (format!("tenant-{i}"), h)
        })
        .collect();

    for server_threads in [1usize, 8] {
        let ts = TestServer::start(ServeConfig {
            threads: server_threads,
            ..exact_causal_config()
        });

        // Each tenant streams from its own thread, in small chunks, so
        // the two event streams interleave on the wire.
        std::thread::scope(|scope| {
            for (id, h) in &histories {
                let addr = ts.addr;
                scope.spawn(move || {
                    let events = events_of_history(h);
                    for chunk in events.chunks(64) {
                        let (status, body) = request(
                            addr,
                            "POST",
                            &format!("/v1/sessions/{id}/events"),
                            &ndjson(chunk),
                        );
                        assert_eq!(status, 200, "intake failed: {body}");
                    }
                });
            }
        });

        for (id, h) in &histories {
            let batch = check(h, IsolationLevel::Causal);
            let (status, finish) =
                request(ts.addr, "POST", &format!("/v1/sessions/{id}/finish"), "");
            assert_eq!(status, 200, "{finish}");
            let consistent = finish.contains("\"consistent\":true");
            assert_eq!(
                consistent,
                batch.is_consistent(),
                "verdict mismatch for {id} at {server_threads} threads: {finish}"
            );
            let (status, violations) =
                request(ts.addr, "GET", &format!("/v1/sessions/{id}/violations"), "");
            assert_eq!(status, 200);
            assert!(violations.contains("\"finished\":true"));
            let online_kinds = violation_kinds(&violations);
            let batch_kinds: BTreeSet<String> = batch
                .violations()
                .iter()
                .map(|v| normalize(v.kind()).to_string())
                .collect();
            // The batch dispatcher early-returns where the stream keeps
            // going, so batch kinds are a subset of online kinds.
            for k in &batch_kinds {
                assert!(
                    online_kinds.contains(k),
                    "{id}: batch kind {k} missing online; online={online_kinds:?}"
                );
            }
            if !batch.is_consistent() {
                assert!(!online_kinds.is_empty());
            }
        }
        ts.stop();
    }
}

/// Reads of never-written values stage forever; a tiny staging budget
/// must surface as `429` + `Retry-After`, not unbounded growth.
#[test]
fn staging_overflow_returns_429() {
    let ts = TestServer::start(ServeConfig {
        staging_budget: 2,
        ..exact_causal_config()
    });
    let mut events = Vec::new();
    for s in 0..16u64 {
        events.push(Event::Begin { session: s });
        events.push(Event::Read {
            session: s,
            key: 1,
            value: 1_000_000 + s, // never written: stages the txn
        });
        events.push(Event::Commit { session: s });
    }
    let body = ndjson(&events);
    let raw = format!(
        "POST /v1/sessions/stuck/events HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let resp = String::from_utf8_lossy(&raw_exchange(ts.addr, raw.as_bytes())).to_string();
    assert!(resp.starts_with("HTTP/1.1 429"), "{resp}");
    assert!(resp.contains("Retry-After"), "{resp}");
    assert!(resp.contains("staging budget exhausted"), "{resp}");

    // The tenant survives; a finish drains it and reports the thin-air
    // reads that were staged.
    let (status, finish) = request(ts.addr, "POST", "/v1/sessions/stuck/finish", "");
    assert_eq!(status, 200, "{finish}");
    assert!(finish.contains("\"consistent\":false"), "{finish}");
    ts.stop();
}

/// `--max-body` bounds a chunked events body even when it is one
/// newline-free line: the body budget trips (413) before the line could
/// reach the per-line cap, and the tenant keeps accepting valid bodies.
#[test]
fn oversized_newline_free_chunked_body_returns_413() {
    const MAX_BODY: u64 = 16 * 1024;
    let ts = TestServer::start(ServeConfig {
        limits: HttpLimits {
            max_body_bytes: MAX_BODY,
            ..HttpLimits::default()
        },
        ..exact_causal_config()
    });
    // Four 10 KiB chunks of one line: 40 KiB, past the body budget but
    // under the 64 KiB line cap.
    let piece = "x".repeat(10 * 1024);
    let mut raw = String::from(
        "POST /v1/sessions/big/events HTTP/1.1\r\nHost: t\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    );
    for _ in 0..4 {
        raw.push_str(&format!("{:x}\r\n{piece}\r\n", piece.len()));
    }
    raw.push_str("0\r\n\r\n");
    assert!(raw.len() as u64 > MAX_BODY);
    // The server answers as soon as the budget trips and closes without
    // reading the rest, so read whatever arrives before any reset.
    let mut sock = TcpStream::connect(ts.addr).expect("connect");
    let _ = sock.write_all(raw.as_bytes());
    let _ = sock.shutdown(std::net::Shutdown::Write);
    let mut resp = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = sock.read(&mut buf) {
        resp.extend_from_slice(&buf[..n]);
    }
    let resp = String::from_utf8_lossy(&resp).to_string();
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
    assert!(resp.contains("request body too large"), "{resp}");

    // The same tenant then accepts a valid body and finishes cleanly.
    let body = "{\"type\":\"begin\",\"session\":1}\n\
                {\"type\":\"write\",\"session\":1,\"key\":1,\"value\":1}\n\
                {\"type\":\"commit\",\"session\":1}\n";
    let (status, resp) = request(ts.addr, "POST", "/v1/sessions/big/events", body);
    assert_eq!(status, 200, "{resp}");
    let (status, finish) = request(ts.addr, "POST", "/v1/sessions/big/finish", "");
    assert_eq!(status, 200, "{finish}");
    assert!(finish.contains("\"consistent\":true"), "{finish}");
    ts.stop();
}

/// Torn HTTP frames, flipped bytes, truncated NDJSON, wrong
/// content-lengths: every mutation must yield a clean 4xx or a dropped
/// connection — never a panic, and the server must stay serviceable.
#[test]
fn mutated_requests_never_kill_the_server() {
    let ts = TestServer::start(exact_causal_config());
    let body = "{\"type\":\"begin\",\"session\":1}\n{\"type\":\"commit\",\"session\":1}\n";
    let valid = format!(
        "POST /v1/sessions/fuzz/events HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let bytes = valid.as_bytes();

    // Truncations at a spread of cut points (torn frames, short bodies).
    for cut in (1..bytes.len()).step_by(13) {
        let resp = raw_exchange(ts.addr, &bytes[..cut]);
        let text = String::from_utf8_lossy(&resp);
        assert!(
            text.is_empty() || text.starts_with("HTTP/1.1 4"),
            "truncation at {cut} produced {text:?}"
        );
    }
    // Single-byte corruptions (bad methods, broken headers, junk JSON).
    for pos in (0..bytes.len()).step_by(7) {
        let mut mutated = bytes.to_vec();
        mutated[pos] ^= 0x5A;
        let resp = raw_exchange(ts.addr, &mutated);
        let text = String::from_utf8_lossy(&resp);
        assert!(
            text.is_empty() || text.starts_with("HTTP/1.1 4") || text.starts_with("HTTP/1.1 2"),
            "flip at {pos} produced {text:?}"
        );
    }
    // Wrong content-length: promises more bytes than it sends.
    let lying = format!(
        "POST /v1/sessions/fuzz/events HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len() + 100,
        body
    );
    let resp = String::from_utf8_lossy(&raw_exchange(ts.addr, lying.as_bytes())).to_string();
    assert!(resp.is_empty() || resp.starts_with("HTTP/1.1 4"), "{resp}");

    // Chunked framing works, and a torn chunk does not.
    let chunked = format!(
        "POST /v1/sessions/fuzz/events HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n{:x}\r\n{}\r\n0\r\n\r\n",
        body.len(),
        body
    );
    let resp = String::from_utf8_lossy(&raw_exchange(ts.addr, chunked.as_bytes())).to_string();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let torn = format!(
        "POST /v1/sessions/fuzz/events HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\nffff\r\n{}",
        &body[..10]
    );
    let resp = String::from_utf8_lossy(&raw_exchange(ts.addr, torn.as_bytes())).to_string();
    assert!(resp.is_empty() || resp.starts_with("HTTP/1.1 4"), "{resp}");

    // After all of that, the server still answers.
    let (status, health) = request(ts.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""));
    ts.stop();
}

/// A 100k+ event stream with pruning on keeps the live set bounded —
/// asserted through the `/healthz` stream statistics, which is how an
/// operator would watch it.
#[test]
fn long_stream_stays_bounded_via_healthz() {
    let ts = TestServer::start(ServeConfig {
        stream: StreamConfig {
            level: IsolationLevel::Causal,
            prune: true,
            prune_interval: 64,
            ..StreamConfig::default()
        },
        obs: Obs::new(),
        ..ServeConfig::default()
    });

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const SESSIONS: u64 = 8;
    const KEYS: u64 = 64;
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let mut latest: Vec<Option<u64>> = vec![None; KEYS as usize];
    let mut next_value = 1u64;
    let mut events: Vec<Event> = Vec::new();
    let mut total = 0u64;
    while total < 110_000 {
        for s in 0..SESSIONS {
            events.push(Event::Begin { session: s });
            total += 1;
            for _ in 0..3 {
                let key = rng.gen_range(0..KEYS);
                if rng.gen_bool(0.5) {
                    if let Some(v) = latest[key as usize] {
                        events.push(Event::Read {
                            session: s,
                            key,
                            value: v,
                        });
                        total += 1;
                    }
                } else {
                    let v = next_value;
                    next_value += 1;
                    events.push(Event::Write {
                        session: s,
                        key,
                        value: v,
                    });
                    latest[key as usize] = Some(v);
                    total += 1;
                }
            }
            events.push(Event::Commit { session: s });
            total += 1;
        }
        if events.len() >= 9_000 {
            let (status, body) =
                request(ts.addr, "POST", "/v1/sessions/big/events", &ndjson(&events));
            assert_eq!(status, 200, "{body}");
            events.clear();
        }
    }
    if !events.is_empty() {
        let (status, body) = request(ts.addr, "POST", "/v1/sessions/big/events", &ndjson(&events));
        assert_eq!(status, 200, "{body}");
    }

    let (status, health) = request(ts.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let events_seen = json_u64(&health, "events");
    let peak_live = json_u64(&health, "peak_live_txns");
    let retired = json_u64(&health, "retired_txns");
    assert!(events_seen >= 110_000, "{health}");
    assert!(
        peak_live < 2_000,
        "live set unbounded: peak {peak_live} ({health})"
    );
    assert!(retired > 10_000, "{health}");

    let (status, finish) = request(ts.addr, "POST", "/v1/sessions/big/finish", "");
    assert_eq!(status, 200);
    assert!(finish.contains("\"consistent\":true"), "{finish}");

    // The Prometheus exposition must parse and carry the serve counters.
    let (status, metrics) = request(ts.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let parsed = parse_prometheus(&metrics).expect("metrics parse");
    let get = |name: &str| {
        parsed
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing {name} in:\n{metrics}"))
            .1
    };
    assert!(get("awdit_serve_events_total") >= 110_000.0);
    assert!(get("awdit_serve_requests_total") >= 3.0);
    assert_eq!(get("awdit_serve_sessions_opened_total"), 1.0);
    assert_eq!(get("awdit_serve_sessions_finished_total"), 1.0);
    ts.stop();
}

/// The batch upload endpoint returns the versioned JSON report and
/// recycles the shared engine between uploads.
#[test]
fn batch_check_endpoint_round_trips_reports() {
    use awdit::formats::Report;

    let ts = TestServer::start(exact_causal_config());
    let h = random_noisy_history(
        77,
        GenParams {
            sessions: 3,
            txns: 36,
            keys: 4,
            ..GenParams::default()
        },
    );
    let body = ndjson(&events_of_history(&h));
    for _ in 0..2 {
        let (status, json) = request(ts.addr, "POST", "/v1/check?isolation=cc", &body);
        assert_eq!(status, 200, "{json}");
        let report = Report::from_json(&json).expect("valid report schema");
        assert_eq!(report.histories.len(), 1);
        let batch = check(&h, IsolationLevel::Causal);
        let verdict = &report.histories[0].levels[0].verdict;
        assert_eq!(verdict == "consistent", batch.is_consistent());
    }
    // Garbage uploads get a clean 400 and do not poison the engine.
    let (status, err) = request(ts.addr, "POST", "/v1/check", "\x00\x01\x02garbage");
    assert_eq!(status, 400, "{err}");
    let (status, json) = request(ts.addr, "POST", "/v1/check?isolation=cc", &body);
    assert_eq!(status, 200, "{json}");
    ts.stop();
}

/// A text upload whose session id does not fit a `SessionId` gets a 400
/// naming the line, and the shared engine answers the next valid upload:
/// the parse fails before anything can panic under the engine lock.
#[test]
fn hostile_session_id_upload_returns_400() {
    let ts = TestServer::start(exact_causal_config());
    let hostile = "awdit-history v1\nsession 18446744073709551615\nc: w(1,1)\n";
    let (status, err) = request(ts.addr, "POST", "/v1/check?isolation=cc", hostile);
    assert_eq!(status, 400, "{err}");
    assert!(err.contains("line 2"), "{err}");
    let h = random_noisy_history(5, GenParams::default());
    let body = ndjson(&events_of_history(&h));
    let (status, json) = request(ts.addr, "POST", "/v1/check?isolation=cc", &body);
    assert_eq!(status, 200, "{json}");
    ts.stop();
}

/// A 43-byte upload naming session 1,000,000 holds one transaction. A
/// failed allocation aborts the process rather than unwinding, so no
/// `catch_unwind` could save the daemon from `k × k` CC frontiers over a
/// million sessions; per-session check state covers only the sessions
/// holding a committed transaction, so the upload is checked, the daemon
/// stays up, and a second upload succeeds.
#[test]
fn million_session_upload_leaves_the_daemon_up() {
    use awdit::formats::Report;

    let ts = TestServer::start(exact_causal_config());
    let body = "awdit-history v1\nsession 1000000\nc: w(0,1)\n";
    assert_eq!(body.len(), 43);
    let (status, json) = request(ts.addr, "POST", "/v1/check?isolation=cc", body);
    assert_eq!(status, 200, "{json}");
    let report = Report::from_json(&json).expect("valid report schema");
    assert_eq!(report.histories[0].levels[0].verdict, "consistent");
    let (status, health) = request(ts.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    let h = random_noisy_history(5, GenParams::default());
    let (status, json) = request(
        ts.addr,
        "POST",
        "/v1/check?isolation=cc",
        &ndjson(&events_of_history(&h)),
    );
    assert_eq!(status, 200, "{json}");
    ts.stop();
}

/// `check_threads` tunes the shared batch engine behind `POST /v1/check`
/// independently of the accept threads: verdicts are identical across
/// engine thread counts, and `/healthz` reports the resolved count
/// (`0` = auto resolves to the machine's available parallelism).
#[test]
fn batch_check_engine_honors_check_threads() {
    use awdit::formats::Report;

    let h = random_noisy_history(
        0xBEEF,
        GenParams {
            sessions: 3,
            txns: 48,
            keys: 4,
            ..GenParams::default()
        },
    );
    let body = ndjson(&events_of_history(&h));
    let batch = check(&h, IsolationLevel::Causal);
    for check_threads in [1usize, 4] {
        let ts = TestServer::start(ServeConfig {
            check_threads,
            ..exact_causal_config()
        });
        let (status, json) = request(ts.addr, "POST", "/v1/check?isolation=cc", &body);
        assert_eq!(status, 200, "{json}");
        let report = Report::from_json(&json).expect("valid report schema");
        let verdict = &report.histories[0].levels[0].verdict;
        assert_eq!(verdict == "consistent", batch.is_consistent());
        let (status, health) = request(ts.addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert_eq!(json_u64(&health, "threads"), check_threads as u64);
        ts.stop();
    }
    // The auto default resolves to a concrete count (≥ 1) at bind time.
    let ts = TestServer::start(exact_causal_config());
    let (status, health) = request(ts.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(json_u64(&health, "threads") >= 1, "{health}");
    ts.stop();
}

/// Violation retrieval: `since` pages through the log and long-polling
/// wakes on new violations.
#[test]
fn violations_endpoint_pages_and_long_polls() {
    // Long-polls pin a worker for their whole wait; give the server a
    // second worker so the concurrent finish can still be served.
    let ts = TestServer::start(ServeConfig {
        threads: 4,
        ..exact_causal_config()
    });
    // An aborted-read violation: reader sees a value whose writer aborted.
    let events = [
        Event::Begin { session: 0 },
        Event::Write {
            session: 0,
            key: 1,
            value: 10,
        },
        Event::Abort { session: 0 },
        Event::Begin { session: 1 },
        Event::Read {
            session: 1,
            key: 1,
            value: 10,
        },
        Event::Commit { session: 1 },
    ];
    let (status, body) = request(ts.addr, "POST", "/v1/sessions/v/events", &ndjson(&events));
    assert_eq!(status, 200, "{body}");
    let (status, v1) = request(ts.addr, "GET", "/v1/sessions/v/violations", "");
    assert_eq!(status, 200);
    assert!(v1.contains("\"seq\":1"), "{v1}");
    assert!(v1.contains("aborted-read"), "{v1}");
    // Paging past the end returns an empty set immediately…
    let (status, v2) = request(ts.addr, "GET", "/v1/sessions/v/violations?since=1", "");
    assert_eq!(status, 200);
    assert!(v2.contains("\"violations\":[]"), "{v2}");
    // …and a long-poll wakes when finish surfaces nothing new but marks
    // the tenant finished.
    let addr = ts.addr;
    let poller = std::thread::spawn(move || {
        request(
            addr,
            "GET",
            "/v1/sessions/v/violations?since=1&wait_ms=5000",
            "",
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    let (status, _) = request(ts.addr, "POST", "/v1/sessions/v/finish", "");
    assert_eq!(status, 200);
    let (status, polled) = poller.join().expect("poller");
    assert_eq!(status, 200);
    assert!(polled.contains("\"finished\":true"), "{polled}");
    ts.stop();
}

/// A tenant that names more sessions than one stream checker accepts is
/// refused with 409 and the typed message, after the events before the
/// offending one were applied; another tenant on the same server still
/// streams and finishes consistent.
#[test]
fn too_many_stream_sessions_return_409() {
    use awdit::stream::MAX_SESSIONS;

    let ts = TestServer::start(exact_causal_config());
    let mut events = Vec::new();
    for s in 0..=MAX_SESSIONS as u64 {
        events.push(Event::Begin { session: s });
        events.push(Event::Write {
            session: s,
            key: 1,
            value: s,
        });
        events.push(Event::Commit { session: s });
    }
    let (status, body) = request(
        ts.addr,
        "POST",
        "/v1/sessions/wide/events",
        &ndjson(&events),
    );
    assert_eq!(status, 409, "{body}");
    assert!(
        body.contains(&format!("more than {MAX_SESSIONS} sessions in one stream")),
        "{body}"
    );
    assert_eq!(
        json_u64(&body, "accepted"),
        3 * MAX_SESSIONS as u64,
        "{body}"
    );

    // A serial stream: each transaction reads the previous one's write.
    let mut calm = Vec::new();
    for t in 0..200u64 {
        let session = t % 4;
        calm.push(Event::Begin { session });
        if t > 0 {
            calm.push(Event::Read {
                session,
                key: t % 3,
                value: t - 1,
            });
        }
        calm.push(Event::Write {
            session,
            key: (t + 1) % 3,
            value: t,
        });
        calm.push(Event::Commit { session });
    }
    let (status, body) = request(ts.addr, "POST", "/v1/sessions/calm/events", &ndjson(&calm));
    assert_eq!(status, 200, "{body}");
    let (status, finish) = request(ts.addr, "POST", "/v1/sessions/calm/finish", "");
    assert_eq!(status, 200, "{finish}");
    assert!(finish.contains("\"consistent\":true"), "{finish}");
    ts.stop();
}
