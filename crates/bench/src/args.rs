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
}
