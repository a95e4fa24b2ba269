//! End-to-end runs: the release `awdit` binary, one process per run, on
//! the pre-generated inputs, with its own tracing off. Every run's
//! verdicts are compared with the workload's known answer.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::gen::{Expect, Inputs, Workload};
use crate::http::{json_u64, Conn};
use crate::proc::{self, Running};

/// Where a run finds the binary and writes its logs.
pub struct Ctx {
    pub awdit: PathBuf,
    pub logs: PathBuf,
}

/// The measured samples of one run.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each sample: one check or watch process, or one
    /// closed-loop pass of every tenant through the server.
    pub walls: Vec<f64>,
    /// Peak RSS of each process under test.
    pub rss_mb: Vec<f64>,
    /// Client-side latency of every intake request (serve only).
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure failed (the first few are reported).
    pub errors: Vec<String>,
}

impl Measured {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// The fastest sample's wall time in seconds. On a shared host the
    /// processor's speed drifts by a quarter over tens of seconds; the
    /// least-disturbed sample varies half as much from run to run as the
    /// median does.
    pub fn wall_s(&self) -> f64 {
        self.walls.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Runs `workload` repeatedly for about `budget`; at least one sample.
pub fn measure(
    ctx: &Ctx,
    workload: Workload,
    inputs: &Inputs,
    budget: Duration,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    match workload {
        Workload::CcLargeAwb | Workload::FleetTextAll => {
            repeat(budget, || check_once(ctx, workload, inputs, &mut m))?
        }
        Workload::WatchCcFresh => repeat(budget, || watch_once(ctx, inputs, &mut m))?,
        Workload::ServeTwoTenants => {
            let server = Server::start(ctx)?;
            let bodies = tenant_bodies(inputs)?;
            let mut pass = 0usize;
            let result = repeat(budget, || {
                pass += 1;
                serve_pass(&server.addr, &bodies, pass, inputs, &mut m)
            });
            let rss = server.stop();
            result?;
            m.rss_mb.push(rss?);
        }
    }
    Ok(m)
}

/// Calls `once` until the next call would likely overrun `budget`.
fn repeat(budget: Duration, mut once: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let started = Instant::now();
    let mut runs = 0u32;
    loop {
        once()?;
        runs += 1;
        let elapsed = started.elapsed();
        if elapsed + elapsed / runs > budget {
            return Ok(());
        }
    }
}

fn check_once(
    ctx: &Ctx,
    workload: Workload,
    inputs: &Inputs,
    m: &mut Measured,
) -> Result<(), String> {
    let mut cmd = Command::new(&ctx.awdit);
    match workload {
        Workload::CcLargeAwb => cmd.args(["check", "--isolation", "cc", "--threads", "2"]),
        _ => cmd.args(["check", "--isolation", "all", "--threads", "1"]),
    };
    let input_dir = inputs.files[0]
        .parent()
        .expect("inputs live in a directory");
    if inputs.files.len() == 1 {
        cmd.arg(&inputs.files[0]);
    } else {
        cmd.arg(input_dir);
    }
    let done = proc::run(&mut cmd, &ctx.logs.join("check.stderr"))?;
    m.attempted += 1;
    m.walls.push(done.wall.as_secs_f64());
    m.rss_mb.push(done.peak_rss_mb);
    if let Err(why) = verify_check_report(&done.stdout, done.code, &inputs.expect) {
        m.fail(format!("awdit check: {why}"));
    }
    Ok(())
}

/// Compares `awdit check`'s text report and exit code with the known
/// answer: every history present with its transaction and operation
/// counts, and every level's verdict.
pub fn verify_check_report(stdout: &str, code: Option<i32>, expect: &Expect) -> Result<(), String> {
    let Expect::Check { levels, histories } = expect else {
        return Err("not a check workload".into());
    };
    let mut reported: Vec<(String, Vec<bool>)> = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("history:") {
            reported.push((rest.trim().to_string(), Vec::new()));
        } else if let Some(rest) = line.strip_prefix("verdict:") {
            let last = reported.last_mut().ok_or("verdict before any history")?;
            last.1.push(rest.trim().starts_with("consistent"));
        }
    }
    if reported.len() != histories.len() {
        return Err(format!(
            "{} histories reported, {} expected",
            reported.len(),
            histories.len()
        ));
    }
    let mut any_inconsistent = false;
    for want in histories {
        let shape = format!("{} txns, {} ops", want.txns, want.ops);
        let (head, verdicts) = reported
            .iter()
            .find(|(head, _)| {
                head.split(" (")
                    .next()
                    .is_some_and(|n| n.ends_with(&want.file))
            })
            .ok_or_else(|| format!("{} missing from the report", want.file))?;
        if !head.contains(&shape) {
            return Err(format!(
                "{}: reported `{head}`, expected {shape}",
                want.file
            ));
        }
        if verdicts.len() != levels.len() || verdicts.iter().any(|&c| c != want.consistent) {
            return Err(format!(
                "{}: verdicts {verdicts:?} at {levels:?}, expected consistent = {}",
                want.file, want.consistent
            ));
        }
        any_inconsistent |= !want.consistent;
    }
    let want_code = i32::from(any_inconsistent);
    if code != Some(want_code) {
        return Err(format!("exit code {code:?}, expected {want_code}"));
    }
    Ok(())
}

fn watch_once(ctx: &Ctx, inputs: &Inputs, m: &mut Measured) -> Result<(), String> {
    let mut cmd = Command::new(&ctx.awdit);
    cmd.args(["watch", "--isolation", "cc"])
        .arg(&inputs.files[0]);
    let done = proc::run(&mut cmd, &ctx.logs.join("watch.stderr"))?;
    m.attempted += 1;
    m.walls.push(done.wall.as_secs_f64());
    m.rss_mb.push(done.peak_rss_mb);
    if let Err(why) = verify_watch_output(&done.stdout, done.code, inputs) {
        m.fail(format!("awdit watch: {why}"));
    }
    Ok(())
}

/// Compares `awdit watch`'s output with the known answer: every event
/// processed, exactly the planted violations, no beyond-horizon read.
pub fn verify_watch_output(stdout: &str, code: Option<i32>, inputs: &Inputs) -> Result<(), String> {
    let Expect::Streams { violations_each } = inputs.expect else {
        return Err("not a stream workload".into());
    };
    if stdout.contains("beyond-horizon") {
        return Err("a read missed the retained window".into());
    }
    let processed = format!("processed {} events /", inputs.events);
    if !stdout.lines().any(|l| l.starts_with(&processed)) {
        return Err(format!("expected `{processed}` in the output"));
    }
    let verdict = format!("verdict:  inconsistent ({violations_each} violations)");
    if !stdout.lines().any(|l| l == verdict) {
        return Err(format!("expected `{verdict}` in the output"));
    }
    let shown = stdout.lines().filter(|l| l.contains("VIOLATION:")).count() as u64;
    if shown != violations_each {
        return Err(format!(
            "{shown} violations printed, {violations_each} planted"
        ));
    }
    if code != Some(1) {
        return Err(format!("exit code {code:?}, expected 1"));
    }
    Ok(())
}

/// An `awdit serve` child on an ephemeral port.
pub struct Server {
    running: Running,
    pub addr: String,
}

impl Server {
    pub fn start(ctx: &Ctx) -> Result<Server, String> {
        let mut cmd = Command::new(&ctx.awdit);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--isolation",
            "cc",
        ]);
        let mut running = Running::spawn(&mut cmd, &ctx.logs.join("serve.stderr"))?;
        match read_listen_addr(running.stdout()) {
            Ok(addr) => Ok(Server { running, addr }),
            Err(e) => {
                let _ = running.terminate();
                let _ = running.wait();
                Err(e)
            }
        }
    }

    /// Stops the server (it drains on `SIGTERM`) and returns its peak RSS.
    pub fn stop(self) -> Result<f64, String> {
        self.running.terminate()?;
        let done = self.running.wait()?;
        Ok(done.peak_rss_mb)
    }
}

/// Reads `awdit serve listening on ADDR` byte by byte, so nothing after
/// the line is consumed.
fn read_listen_addr(out: &mut impl std::io::Read) -> Result<String, String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        match out.read(&mut byte) {
            Ok(1) => line.push(byte[0]),
            _ => return Err("awdit serve exited before listening".into()),
        }
    }
    let line = String::from_utf8_lossy(&line);
    line.trim()
        .rsplit(' ')
        .next()
        .filter(|a| a.contains(':'))
        .map(str::to_string)
        .ok_or_else(|| format!("unexpected serve banner {line:?}"))
}

/// Each tenant's stream, cut into request bodies.
pub struct TenantBodies {
    pub bodies: Vec<Vec<u8>>,
    pub events: u64,
}

/// Events per intake request.
pub const EVENTS_PER_BODY: usize = 256;

pub fn tenant_bodies(inputs: &Inputs) -> Result<Vec<TenantBodies>, String> {
    inputs
        .files
        .iter()
        .map(|path| {
            let text = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
            Ok(TenantBodies {
                bodies: lines.chunks(EVENTS_PER_BODY).map(<[_]>::concat).collect(),
                events: lines.len() as u64,
            })
        })
        .collect()
}

/// One closed-loop pass: one client thread holds one connection per
/// tenant and, round by round, posts each tenant its next body and
/// waits for every reply; then it finishes every session. One thread
/// keeps the client off the server's two cores as much as it can be.
pub fn serve_pass(
    addr: &str,
    tenants: &[TenantBodies],
    pass: usize,
    inputs: &Inputs,
    m: &mut Measured,
) -> Result<(), String> {
    let Expect::Streams { violations_each } = inputs.expect else {
        return Err("not a stream workload".into());
    };
    let mut conns = tenants
        .iter()
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let ids: Vec<String> = (0..tenants.len()).map(|t| format!("p{pass}t{t}")).collect();
    let rounds = tenants.iter().map(|t| t.bodies.len()).max().unwrap_or(0);
    let mut sent = vec![Instant::now(); tenants.len()];
    let started = Instant::now();
    for round in 0..=rounds {
        for (t, tenant) in tenants.iter().enumerate() {
            let id = &ids[t];
            match tenant.bodies.get(round) {
                Some(body) => conns[t].send(&format!("/v1/sessions/{id}/events"), body)?,
                None if round == rounds => {
                    conns[t].send(&format!("/v1/sessions/{id}/finish"), b"")?
                }
                None => continue,
            }
            sent[t] = Instant::now();
        }
        for (t, tenant) in tenants.iter().enumerate() {
            let body = tenant.bodies.get(round);
            if body.is_none() && round < rounds {
                continue;
            }
            let reply = conns[t].read_reply()?;
            m.attempted += 1;
            let id = &ids[t];
            let b = &reply.body;
            let right = match body {
                Some(body) => {
                    m.latencies_ms.push(sent[t].elapsed().as_secs_f64() * 1e3);
                    let lines = body.iter().filter(|&&c| c == b'\n').count() as u64;
                    reply.status == 200 && json_u64(b, "accepted") == Some(lines)
                }
                None => {
                    reply.status == 200
                        && b.contains("\"consistent\":false")
                        && b.contains("\"error\":null")
                        && json_u64(b, "events") == Some(tenant.events)
                        && json_u64(b, "violations") == Some(violations_each)
                        && json_u64(b, "horizon_misses") == Some(0)
                }
            };
            if !right {
                m.fail(format!("{id}: {} {b}", reply.status));
            }
        }
    }
    m.walls.push(started.elapsed().as_secs_f64());
    Ok(())
}
