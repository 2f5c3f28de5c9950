//! Command-line helpers shared by the gate binaries.
//!
//! A gate that misreads its own arguments is worse than one that refuses
//! to start: `--runs 1e6` silently falling back to the default runs a
//! thousand-run campaign and passes. [`number`] therefore exits non-zero,
//! naming the flag, when a value is missing or does not parse.

use std::str::FromStr;

/// Parses the value following `flag`: `Ok(None)` when the flag is
/// absent, an error naming the flag when its value is missing or does
/// not parse as `T`.
fn parse_number<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

/// The value following `flag`, parsed as `T` (`None` when the flag is
/// absent). A missing or unparsable value prints an error naming the
/// flag and exits with status 2.
pub fn number<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    parse_number(args, flag).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The optional path following `flag` (`--json [path]`, `--check
/// [baseline]`): `None` when the flag is absent, `default` when it is the
/// last argument or followed by another flag.
pub fn path(args: &[String], flag: &str, default: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    Some(
        args.get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| default.into()),
    )
}

/// The baseline named by `--check [baseline]` (default
/// `ci/bench_baseline.json`), read up front: `None` without `--check`. A
/// baseline that cannot be read prints an error naming the path and exits
/// with status 1, so a gate asked to check never runs its whole workload
/// and then skips the check for want of a file.
pub fn baseline(args: &[String]) -> Option<String> {
    let path = path(args, "--check", "ci/bench_baseline.json")?;
    match std::fs::read_to_string(&path) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("failed to read baseline {path}: {e}");
            std::process::exit(1)
        }
    }
}

/// The value following `flag`: `None` when the flag is absent. A flag
/// given as the last argument or followed by another flag prints an
/// error naming the flag and exits with status 2.
pub fn value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1).filter(|v| !v.starts_with("--")) {
        Some(v) => Some(v.clone()),
        None => {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2)
        }
    }
}

/// The first argument that is neither one of `switches` or `valued`, nor
/// the value right after a `valued` flag.
fn first_unknown<'a>(args: &'a [String], switches: &[&str], valued: &[&str]) -> Option<&'a str> {
    let mut after_valued = false;
    for a in args {
        let is_value = after_valued && !a.starts_with("--");
        after_valued = valued.contains(&a.as_str());
        if !is_value && !after_valued && !switches.contains(&a.as_str()) {
            return Some(a);
        }
    }
    None
}

/// Exits with status 2, naming the argument, when `args` holds anything
/// but the `switches`, the `valued` flags and the values right after
/// them: a mistyped flag must not silently fall back to a default.
pub fn only(args: &[String], switches: &[&str], valued: &[&str]) {
    if let Some(a) = first_unknown(args, switches, valued) {
        eprintln!("error: unknown argument {a:?}");
        std::process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_number_reads_absent_and_valid_values() {
        let args = argv("--runs 1000 --budget-ms 2.5");
        assert_eq!(parse_number::<u64>(&args, "--runs"), Ok(Some(1000)));
        assert_eq!(parse_number::<f64>(&args, "--budget-ms"), Ok(Some(2.5)));
        assert_eq!(parse_number::<u64>(&args, "--seeds"), Ok(None));
    }

    #[test]
    fn parse_number_names_the_flag_on_bad_or_missing_values() {
        let err = parse_number::<u64>(&argv("--runs 1e6"), "--runs").unwrap_err();
        assert!(err.contains("--runs") && err.contains("1e6"), "{err}");
        let err = parse_number::<f64>(&argv("--budget-ms 1s"), "--budget-ms").unwrap_err();
        assert!(err.contains("--budget-ms") && err.contains("1s"), "{err}");
        // A following flag is not a value.
        let err = parse_number::<u64>(&argv("--runs --check"), "--runs").unwrap_err();
        assert!(err.contains("--runs"), "{err}");
        let err = parse_number::<u64>(&argv("--check --runs"), "--runs").unwrap_err();
        assert_eq!(err, "--runs needs a value");
    }

    #[test]
    fn path_falls_back_to_the_default_only_when_the_flag_is_bare() {
        let args = argv("--json --check ci/b.json --corpus");
        assert_eq!(path(&args, "--json", "B.json").as_deref(), Some("B.json"));
        assert_eq!(path(&args, "--check", "x").as_deref(), Some("ci/b.json"));
        assert_eq!(path(&args, "--corpus", "c").as_deref(), Some("c"));
        assert_eq!(path(&args, "--profile", "p"), None);
    }

    #[test]
    fn first_unknown_accepts_switches_flags_and_their_values_only() {
        let (switches, valued) = (&["--quick", "--cold"][..], &["--json", "--check"][..]);
        let ok = argv("--quick --json out.json --check --cold");
        assert_eq!(first_unknown(&ok, switches, valued), None);
        let typo = argv("--quick --chek ci/b.json");
        assert_eq!(first_unknown(&typo, switches, valued), Some("--chek"));
        // A bare word is a value only right after a valued flag.
        let stray = argv("--cold stray");
        assert_eq!(first_unknown(&stray, switches, valued), Some("stray"));
    }
}
