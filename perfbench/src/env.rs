//! The environment a run was measured in: revision, cores, compiler, and
//! the non-test line count of every crate (the code-size budget is
//! tracked next to the speed numbers).

use std::path::Path;
use std::process::Command;

pub struct Env {
    pub git_rev: String,
    pub nproc: usize,
    pub rustc: String,
    /// `(crate directory, non-test lines)`, sorted by name.
    pub lines: Vec<(String, u64)>,
}

pub fn capture(root: &Path) -> Env {
    Env {
        // A checkout without `.git` has no revision (and must not pick up
        // that of a repository it happens to sit in).
        git_rev: root
            .join(".git")
            .exists()
            .then(|| {
                command_line(
                    Command::new("git")
                        .args(["rev-parse", "HEAD"])
                        .current_dir(root),
                )
            })
            .flatten()
            .unwrap_or_else(|| "unknown".to_string()),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: command_line(Command::new("rustc").arg("--version"))
            .unwrap_or_else(|| "unknown".to_string()),
        lines: crate_lines(root),
    }
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(std::process::Stdio::null()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string())
}

/// Lines of `crates/*/src/**/*.rs` (and the facade's `src/`), each file
/// counted up to its first top-level `#[cfg(test)]`.
fn crate_lines(root: &Path) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            out.push((name, rust_lines(&entry.path().join("src"))));
        }
    }
    out.push(("facade".to_string(), rust_lines(&root.join("src"))));
    out.sort();
    out
}

fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += rust_lines(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                total += text
                    .lines()
                    .take_while(|l| !l.starts_with("#[cfg(test)]"))
                    .count() as u64;
            }
        }
    }
    total
}
