//! The gate binaries refuse bad input instead of shrinking the gate:
//! a numeric flag that does not parse, or a `--check` baseline that
//! cannot be read, exits non-zero and says why before any campaign runs.

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
    let dir = std::env::temp_dir().join(format!("tt-cli-nobaseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = run(env!("CARGO_BIN_EXE_e_explore"), &["--check"], Some(&dir));
    std::fs::remove_dir_all(&dir).unwrap();
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
        (&["--quick", "--chek"][..], "--chek"),
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
    let dir = std::env::temp_dir().join(format!("tt-cli-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_verify_all"),
        &["--quick", "--check"],
        Some(&dir),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("could not read baseline ci/bench_baseline.json"),
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
