//! Replays a single release test on two kernel flavors and dumps both
//! event traces plus the first divergence — the debugging companion to
//! `e61_differential`.
//!
//! Usage:
//!
//! ```text
//! trace_diff <test-name> [--chip <name>] [--buggy] [--full] [--dump]
//! ```
//!
//! * default: compares Tock (`Legacy(Fixed)`) vs TickTock (`Granular`)
//!   under the *observable* trace scope (register values are
//!   flavor-dependent by design and excluded).
//! * `--buggy`: compares `Legacy(Buggy)` vs `Legacy(Fixed)` — same
//!   backend, so the *full* scope applies and a register-value divergence
//!   pinpoints the injected allocator bug.
//! * `--full`: force full scope for the default comparison.
//! * `--dump`: print both complete traces, not just the divergence.
//! * `--chip`: one of the `tt_hw::platform` profiles (default
//!   `nrf52840dk`).
//!
//! Exits 0 when the traces are equivalent and 1 when they diverge. A usage
//! error — an unknown flag, a missing, second or unknown test name, or an
//! unknown chip — exits 2 with the usage text, so a script can tell it
//! from a finding.

use std::process::ExitCode;

use tt_hw::platform::{ChipProfile, ALL_CHIPS, NRF52840DK};
use tt_kernel::apps::{release_tests, ReleaseTest};
use tt_kernel::differential::run_one_on;
use tt_kernel::process::Flavor;
use tt_kernel::trace::{diff_traces, render_divergence, render_trace, TraceScope};
use tt_legacy::BugVariant;

/// Prints `error` and the usage text, and returns the usage exit code.
fn usage(error: &str, tests: &[ReleaseTest]) -> ExitCode {
    eprintln!("error: {error}");
    eprintln!("usage: trace_diff <test-name> [--chip <name>] [--buggy] [--full] [--dump]");
    eprintln!(
        "release tests: {:?}",
        tests.iter().map(|t| t.spec.name).collect::<Vec<_>>()
    );
    eprintln!("chips: {:?}", ALL_CHIPS.map(|c| c.name));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let tests = release_tests();
    let mut test: Option<&ReleaseTest> = None;
    let mut chip: ChipProfile = NRF52840DK;
    let (mut buggy, mut full, mut dump) = (false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--chip" => {
                let name = args.next().unwrap_or_default();
                match ALL_CHIPS.into_iter().find(|c| c.name == name) {
                    Some(c) => chip = c,
                    None => return usage(&format!("unknown chip {name:?}"), &tests),
                }
            }
            "--buggy" => buggy = true,
            "--full" => full = true,
            "--dump" => dump = true,
            flag if flag.starts_with("--") => {
                return usage(&format!("unknown argument {flag:?}"), &tests)
            }
            name if test.is_some() => {
                return usage(&format!("a second test name {name:?}"), &tests)
            }
            name => match tests.iter().find(|t| t.spec.name == name) {
                Some(t) => test = Some(t),
                None => return usage(&format!("unknown test {name:?}"), &tests),
            },
        }
    }
    let Some(test) = test else {
        return usage("no test name given", &tests);
    };

    let ((left_name, left_flavor), (right_name, right_flavor), scope) = if buggy {
        (
            ("buggy", Flavor::Legacy(BugVariant::Buggy)),
            ("fixed", Flavor::Legacy(BugVariant::Fixed)),
            TraceScope::Full,
        )
    } else {
        (
            ("tock", Flavor::Legacy(BugVariant::Fixed)),
            ("ticktock", Flavor::Granular),
            if full {
                TraceScope::Full
            } else {
                TraceScope::Observable
            },
        )
    };

    println!(
        "replaying `{}` on {} ({left_name} vs {right_name}, {scope:?} scope)",
        test.spec.name, chip.name
    );
    let left = run_one_on(test, left_flavor, &chip);
    let right = run_one_on(test, right_flavor, &chip);
    println!(
        "{left_name:>9}: {} events, console {:?}",
        left.trace.events.len(),
        left.console
    );
    println!(
        "{right_name:>9}: {} events, console {:?}",
        right.trace.events.len(),
        right.console
    );
    if dump {
        println!("\n===== {left_name} trace =====");
        print!("{}", render_trace(&left.trace));
        println!("\n===== {right_name} trace =====");
        print!("{}", render_trace(&right.trace));
    }
    match diff_traces(&left.trace, &right.trace, scope) {
        Some(d) => {
            println!();
            print!("{}", render_divergence(&d, left_name, right_name));
            ExitCode::FAILURE
        }
        None => {
            println!("\ntraces are equivalent under {scope:?} scope");
            ExitCode::SUCCESS
        }
    }
}
