//! The gate binaries refuse bad input instead of shrinking the gate:
//! a mistyped flag, a numeric flag that does not parse, or a `--check`
//! baseline that cannot be read, exits non-zero and says why before any
//! campaign runs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], dir: Option<&PathBuf>) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    cmd.output().expect("spawn gate binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A directory without `ci/bench_baseline.json`, removed on drop.
struct EmptyDir(PathBuf);

impl EmptyDir {
    fn new(tag: &str) -> EmptyDir {
        let dir = std::env::temp_dir().join(format!("tt-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        EmptyDir(dir)
    }
}

impl Drop for EmptyDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_gate_rejects_a_mistyped_flag_before_any_work() {
    for (bin, argv, named) in [
        (
            env!("CARGO_BIN_EXE_e_fleet"),
            &["--runs", "200", "--chek", "ci/bench_baseline.json"][..],
            "--chek",
        ),
        (
            env!("CARGO_BIN_EXE_e_explore"),
            &["--chek", "/no/such.json"][..],
            "--chek",
        ),
        (
            env!("CARGO_BIN_EXE_e61_differential"),
            &["--jsno", "x.json"][..],
            "--jsno",
        ),
        (
            env!("CARGO_BIN_EXE_e62_memory_usage"),
            &["--jsno", "y.json"][..],
            "--jsno",
        ),
        (
            env!("CARGO_BIN_EXE_fig11_cycles"),
            &["--json", "--chek"][..],
            "--chek",
        ),
        (
            env!("CARGO_BIN_EXE_verify_all"),
            &["--quick", "--chek"][..],
            "--chek",
        ),
    ] {
        let out = run(bin, argv, None);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {argv:?}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains(named), "{bin}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{bin} {argv:?}: work ran");
    }
}

#[test]
fn fig11_cycles_bare_check_defaults_to_the_committed_baseline() {
    let dir = EmptyDir::new("fig11");
    let out = run(
        env!("CARGO_BIN_EXE_fig11_cycles"),
        &["--check"],
        Some(&dir.0),
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("failed to read baseline ci/bench_baseline.json"),
        "{}",
        stderr(&out)
    );
    assert!(
        out.stdout.is_empty(),
        "cycles were measured without a baseline"
    );
}

#[test]
fn trace_diff_usage_errors_exit_2_with_the_usage_text() {
    for argv in [
        &["--dupm", "sensors"][..],
        &["sensors", "--chip", "no-such-chip"],
        &["sensors", "--chip"],
        &["sensors", "c_hello"],
        &["no_such_test"],
        &[],
    ] {
        let out = run(env!("CARGO_BIN_EXE_trace_diff"), argv, None);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage: trace_diff"), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}: a replay ran");
    }
}

#[test]
fn e_fleet_rejects_malformed_numbers_naming_the_flag() {
    for (flag, value) in [("--runs", "1e6"), ("--budget-ms", "1s")] {
        let out = run(
            env!("CARGO_BIN_EXE_e_fleet"),
            &[flag, value, "--check"],
            None,
        );
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains(flag) && stderr(&out).contains(value),
            "{}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "a campaign ran despite the bad flag");
    }
}

#[test]
fn e_explore_rejects_malformed_numbers_naming_the_flag() {
    let out = run(env!("CARGO_BIN_EXE_e_explore"), &["--seeds", "two"], None);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--seeds"), "{}", stderr(&out));
}

#[test]
fn e_explore_check_fails_when_the_baseline_cannot_be_read() {
    // The default baseline path, from a directory that does not have it.
    let dir = EmptyDir::new("explore");
    let out = run(env!("CARGO_BIN_EXE_e_explore"), &["--check"], Some(&dir.0));
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("failed to read baseline ci/bench_baseline.json"),
        "{}",
        stderr(&out)
    );
    // An explicit path that does not exist fails the same way.
    let out = run(
        env!("CARGO_BIN_EXE_e_explore"),
        &["--check", "no/such/baseline.json", "--json"],
        None,
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("no/such/baseline.json"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn verify_all_rejects_missing_values_and_unknown_arguments() {
    for (argv, named) in [
        (&["--quick", "--cache"][..], "--cache"),
        (&["--quick", "--json"][..], "--json"),
        (&["--json", "--cold"][..], "--json"),
        (&["--quick", "stray"][..], "stray"),
    ] {
        let out = run(env!("CARGO_BIN_EXE_verify_all"), argv, None);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(named), "{argv:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{argv:?}: verification ran");
    }
}

#[test]
fn verify_all_check_defaults_to_the_committed_baseline() {
    // From a directory without `ci/bench_baseline.json`, a bare --check
    // fails before anything is verified.
    let dir = EmptyDir::new("verify");
    let out = run(
        env!("CARGO_BIN_EXE_verify_all"),
        &["--quick", "--check"],
        Some(&dir.0),
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("failed to read baseline ci/bench_baseline.json"),
        "{}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "verification ran without a baseline");

    // From the workspace root, the bare --check reads the committed
    // baseline, and the warm gate fails a cold run instead of skipping.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cache = std::env::temp_dir().join(format!("tt-cli-verify-{}.bin", std::process::id()));
    let cache_arg = cache.to_str().unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_verify_all"),
        &["--quick", "--cold", "--cache", cache_arg, "--check"],
        Some(&root),
    );
    let _ = std::fs::remove_file(&cache);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}{}", stderr(&out));
    assert!(
        stdout.contains("warm gate ran against a non-warm cache"),
        "{stdout}"
    );
}
