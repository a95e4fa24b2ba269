//! Smoke test: every workload at a tiny size, untraced and traced. The
//! binary asserts the known answers, that nothing failed, and that every
//! metric `BENCHMARK.json` names is printed with its unit.

use std::process::Command;

#[test]
fn every_workload_meets_its_known_answer_and_prints_every_metric() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .current_dir(root)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.lines().filter(|l| l.ends_with(": ok")).count(), 8);
}
