//! Fleet campaign gate: snapshot/restore mass fault injection.
//!
//! Runs a `--runs N` (default 1000) fleet campaign across all chips on
//! the snapshot/restore path — boot once per `(chip, cache-mode)` per
//! worker, dirty-page restore per seed, mid-run (post-first-tick)
//! resume for every plan that doesn't fire inside tick 1 — with the
//! bystander oracle and contract checks enabled on every run, and
//! prints per-chip tallies, runs/sec and the measured reset costs.
//!
//! Seeds recorded in the failure corpus (`<--corpus>/failures.bin`)
//! from a previous campaign are scheduled *first*, so known-bad inputs
//! report in the opening seconds of a million-run job.
//!
//! With `--profile`, prints the per-phase (restore/run/collect/
//! validate) p50/p99/mean table and capture amortization. The same
//! breakdown always lands in the `--json` document.
//!
//! The campaign runs twice, as a thread ladder: once on one worker, then
//! on `TT_BENCH_THREADS` (default: the host core count) workers — once
//! in all on a 1-worker host. The full-worker rung feeds everything
//! below; the serial rung is kept only as its rendered report and
//! throughput.
//!
//! With `--json [path]`, writes `BENCH_fleet.json` (experiment
//! `e_fleet`, including `fleet_runs_per_sec`, `serial_runs_per_sec`,
//! `parallel_speedup`, `deterministic`, `restore_speedup`,
//! `midrun_restore_speedup`, the `phases` object and per-chip recovery
//! latency, warm vs cold commit cache).
//! With `--check [baseline]` (default `ci/bench_baseline.json`, read
//! before the campaign runs, so an unreadable one fails at once), exits
//! non-zero if any restored run is not byte-identical to its fresh-boot
//! twin, if any campaign run fails the oracle, if the two rungs' reports
//! are not byte-identical, or if a measured speedup misses its baseline
//! floor (`min_restore_speedup`, `min_midrun_restore_speedup`, the
//! serial rung's throughput floor `fleet_runs_per_sec_prev` x
//! `min_fleet_speedup`, or the ladder's `min_parallel_speedup`, capped
//! at 0.75x the core count). The throughput floors engage at 50,000+
//! runs.
//! With `--budget-ms N`, exits non-zero if the full-worker rung's
//! wall-clock exceeded `N` milliseconds — the CI knob that keeps raising
//! `--runs` toward 10^6 honest.
//!
//! Failing runs persist as 32-byte corpus records under `--corpus`
//! (default `ci/corpus/`), and the first few failing seeds are shrunk to
//! 1-minimal injection schedules for the report.
//!
//! A numeric flag whose value does not parse (`--runs 1e6`) or an unknown
//! argument (`--chek`) exits 2, naming it, instead of silently falling
//! back to a default or skipping a gate.

use std::path::Path;
use std::process::ExitCode;

use tt_bench::args;
use tt_bench::fleet::{
    check, equivalence_failures, failing_records, host_cores, measure_reset_cost,
    priority_from_corpus, profile, render, render_json, render_profile, run_ladder,
    shrink_failures,
};
use tt_contracts::pool;
use tt_kernel::corpus::write_corpus;

/// Reset-cost probe iterations per chip.
const RESET_COST_ITERS: u32 = 50;
/// Maximum failing seeds shrunk for the report.
const SHRINK_LIMIT: usize = 10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args::only(
        &args,
        &["--profile"],
        &["--runs", "--budget-ms", "--json", "--check", "--corpus"],
    );
    let runs: u64 = args::number(&args, "--runs").unwrap_or(1000);
    let budget_ms: Option<f64> = args::number(&args, "--budget-ms");
    let json_path = args::path(&args, "--json", "BENCH_fleet.json");
    let baseline = args::baseline(&args);
    let corpus_dir =
        args::path(&args, "--corpus", "ci/corpus").unwrap_or_else(|| "ci/corpus".into());
    let want_profile = args.iter().any(|a| a == "--profile");

    let threads = pool::default_threads();
    let cores = host_cores();
    println!("Fleet campaign: --runs {runs}, serial then {threads} worker(s) ({cores} core(s))");

    println!("restore-equivalence gate: replaying fresh-boot vs restored runs...");
    let equivalence = equivalence_failures();
    for f in &equivalence {
        eprintln!("EQUIVALENCE FAILED: {f}");
    }

    // Corpus-guided scheduling: front the units a previous campaign
    // recorded as failing.
    let failures_path = Path::new(&corpus_dir).join("failures.bin");
    let priority = match priority_from_corpus(&failures_path) {
        Ok(units) => {
            if !units.is_empty() {
                println!(
                    "corpus-guided scheduling: {} previously failing unit(s) run first",
                    units.len()
                );
            }
            units
        }
        Err(e) => {
            eprintln!("corrupt corpus {}: {e}", failures_path.display());
            return ExitCode::FAILURE;
        }
    };

    let ladder = run_ladder(runs, threads, &priority);
    let result = &ladder.fleet;
    let cost = measure_reset_cost(RESET_COST_ITERS);
    let prof = profile(result);
    print!("{}", render(&ladder, &cost));
    if want_profile {
        print!("{}", render_profile(result, &prof));
    }

    let failing = failing_records(&result.outcomes);
    if !failing.is_empty() {
        match write_corpus(&failures_path, &failing) {
            Ok(()) => println!(
                "wrote {} failing record(s) to {}",
                failing.len(),
                failures_path.display()
            ),
            Err(e) => eprintln!("failed to write corpus {}: {e}", failures_path.display()),
        }
        for line in shrink_failures(&result.outcomes, SHRINK_LIMIT) {
            println!("shrunk: {line}");
        }
    }

    if let Some(path) = json_path {
        let doc = render_json(&ladder, &cost, &prof, &equivalence, cores);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    let mut failed = false;
    if let Some(budget) = budget_ms {
        if result.wall_ms > budget {
            eprintln!(
                "FLEET GATE FAILED: campaign took {:.0} ms, over the {budget:.0} ms budget",
                result.wall_ms
            );
            failed = true;
        } else {
            println!(
                "check: wall-clock {:.0} ms within the {budget:.0} ms budget",
                result.wall_ms
            );
        }
    }

    if let Some(baseline) = baseline {
        let (notes, failures) = check(&ladder, &cost, &equivalence, &baseline, cores);
        for note in notes {
            println!("check: {note}");
        }
        for f in &failures {
            eprintln!("FLEET GATE FAILED: {f}");
        }
        failed |= !failures.is_empty();
    } else if !equivalence.is_empty() {
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
