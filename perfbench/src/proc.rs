//! Child processes under test: spawn, wait while sampling peak memory,
//! stop.
//!
//! Peak resident set comes from the child's own `VmHWM` in
//! `/proc/PID/status`, polled until it exits. (`wait4`'s `ru_maxrss`
//! would not do: Linux folds the parent's high-water mark into a child
//! at `exec`, so a child of this large process would read large.)

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often a running child's `VmHWM` is read.
const POLL: Duration = Duration::from_millis(10);

/// How one child process ended.
#[derive(Debug)]
pub struct Finished {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// From spawn to exit.
    pub wall: Duration,
    pub peak_rss_mb: f64,
    pub stdout: String,
}

/// A running child whose stdout is piped back and whose stderr goes to
/// a log file.
pub struct Running {
    child: Child,
    started: Instant,
}

impl Running {
    pub fn spawn(cmd: &mut Command, stderr_log: &std::path::Path) -> Result<Running, String> {
        let log = std::fs::File::create(stderr_log)
            .map_err(|e| format!("{}: {e}", stderr_log.display()))?;
        let started = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
        Ok(Running { child, started })
    }

    pub fn stdout(&mut self) -> &mut std::process::ChildStdout {
        self.child.stdout.as_mut().expect("stdout is piped")
    }

    /// Asks the child to stop (`awdit serve` drains and exits on
    /// `SIGTERM`).
    pub fn terminate(&self) -> Result<(), String> {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .map_err(|e| format!("cannot run kill: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("kill -TERM {} failed", self.child.id()))
        }
    }

    /// Reads the rest of stdout and waits for the child to exit, sampling
    /// its peak memory meanwhile.
    pub fn wait(mut self) -> Result<Finished, String> {
        let pid = self.child.id();
        let stdout = self.child.stdout.take();
        let exited = AtomicBool::new(false);
        let child = &mut self.child;
        let started = self.started;
        let (text, status, wall, peak_kb) = std::thread::scope(|scope| {
            let reader = scope.spawn(move || {
                let mut text = String::new();
                match stdout {
                    Some(mut out) => out.read_to_string(&mut text).map(|_| text),
                    None => Ok(text),
                }
            });
            let waiter = scope.spawn(|| {
                let status = child.wait();
                let wall = started.elapsed();
                exited.store(true, Ordering::SeqCst);
                (status, wall)
            });
            let mut peak_kb = 0u64;
            while !exited.load(Ordering::SeqCst) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak_kb = peak_kb.max(kb);
                }
                std::thread::sleep(POLL);
            }
            let (status, wall) = waiter.join().expect("waiter thread");
            let text = reader.join().expect("reader thread");
            (text, status, wall, peak_kb)
        });
        let status = status.map_err(|e| format!("wait: {e}"))?;
        let stdout = text.map_err(|e| format!("reading child stdout: {e}"))?;
        Ok(Finished {
            code: status.code(),
            wall,
            peak_rss_mb: peak_kb as f64 / 1024.0,
            stdout,
        })
    }
}

/// Runs `cmd` to completion.
pub fn run(cmd: &mut Command, stderr_log: &std::path::Path) -> Result<Finished, String> {
    Running::spawn(cmd, stderr_log)?.wait()
}

/// The `VmHWM` of a live process, in KiB.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
