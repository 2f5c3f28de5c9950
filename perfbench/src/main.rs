//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet|explore|verify --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures one workload for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` runs the traced legs of all three
//! workloads and reports the per-layer metrics, the tracing overhead and
//! the unattributed remainders. Every metric is printed as a
//! `name value unit` line; the last line is the result object. Any oracle
//! failure, finding, refutation, audit finding or drift in a
//! deterministic count makes the result `"correct": false` and the exit
//! code 1. Metric meanings and the layer-to-metric map are in
//! `perfbench/METRICS.md`.

mod explore;
mod fleet;
mod fold;
mod sheet;
mod stats;
mod verify;

use std::process::ExitCode;

use sheet::{result_json, Sheet, END_TO_END};

/// What a leg attempted, what failed, and every correctness error.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the `failed_frac` denominator).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failure and drift messages; any entry fails the run.
    pub errors: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, o: Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
    }
}

/// Seconds → milliseconds.
pub fn ms(s: f64) -> f64 {
    s * 1e3
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fleet,
    Explore,
    Verify,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload fleet|explore|verify --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "fleet" => Workload::Fleet,
        "explore" => Workload::Explore,
        "verify" => Workload::Verify,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {:?}, seed {}, {} s, trace {}, {threads} hardware threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut sheet = Sheet::default();
    let mut out = Outcome::default();
    if args.trace {
        out.absorb(fleet::traced(threads, &mut sheet));
        out.absorb(explore::traced(args.seed, &mut sheet));
        out.absorb(verify::traced(&mut sheet));
    } else {
        out.absorb(match args.workload {
            Workload::Fleet => fleet::run(args.seconds, threads, &mut sheet),
            Workload::Explore => explore::run(args.seed, args.seconds, &mut sheet),
            Workload::Verify => verify::run(args.seconds, &mut sheet),
        });
        match peak_rss_mb() {
            Ok(mb) => sheet.put("peak_rss_mb", mb, "MB", "VmHWM"),
            Err(e) => out.errors.push(e),
        }
    }
    let attempted = out.attempted.max(1);
    sheet.put(
        "failed_frac",
        stats::failed_frac(out.failed, attempted),
        "frac",
        format!("{} of {attempted}", out.failed),
    );
    sheet.print();

    let wanted: Vec<(String, &'static str)> = if args.trace {
        sheet::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics = match sheet.select(&wanted, !args.trace) {
        Ok(m) => m,
        Err(e) => {
            out.errors.push(e);
            Vec::new()
        }
    };
    for e in &out.errors {
        eprintln!("FAIL: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    println!("{}", result_json(correct, attempted, out.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload explore --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(a.workload, Workload::Explore);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fleet --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn failed_frac_denominators_per_workload() {
        // fleet: oracle-failed runs over injected runs.
        let fleet = Outcome {
            attempted: 14_000,
            failed: 14,
            errors: Vec::new(),
        };
        assert_eq!(stats::failed_frac(fleet.failed, fleet.attempted), 0.001);
        // explore: findings over executed schedules.
        let explore = Outcome {
            attempted: 5_000,
            failed: 0,
            errors: Vec::new(),
        };
        assert_eq!(stats::failed_frac(explore.failed, explore.attempted), 0.0);
        // verify: refuted functions + audit findings over checked
        // functions + audit runs; legs add up through `absorb`.
        let mut verify = Outcome {
            attempted: 300,
            failed: 2,
            errors: Vec::new(),
        };
        verify.absorb(Outcome {
            attempted: 4,
            failed: 2,
            errors: vec!["audit: x".into()],
        });
        assert_eq!(
            (verify.attempted, verify.failed, verify.errors.len()),
            (304, 4, 1)
        );
        assert_eq!(
            stats::failed_frac(verify.failed, verify.attempted),
            4.0 / 304.0
        );
    }
}
