//! CI entry point: verify the whole project, exactly as §6.3 envisions
//! ("it takes around three minutes to verify the entire project, making
//! verification feasible as part of a CI pipeline").
//!
//! Runs every registered obligation — monolithic (fixed), granular, and
//! interrupts — plus the trusted-lemma exhaustive discharge, and exits
//! non-zero if anything is refuted.
//!
//! Incremental mode (the default) persists per-function verdicts in
//! `ci/verify_cache.bin`: a warm re-run on an unchanged tree skips every
//! discharge and finishes sub-second. Cache misses are discharged on the
//! work-stealing pool, `TT_BENCH_THREADS` workers (default: every core).
//! Flags:
//!
//! * `--quick`            — reduced effort densities (tier-1 CI)
//! * `--cold`             — discard any existing cache first (records the
//!   cold wall the warm speedup gate divides against)
//! * `--no-cache`         — non-incremental run, no cache I/O
//! * `--cache <path>`     — cache file location (default `ci/verify_cache.bin`)
//! * `--json <path>`      — write the `BENCH_fig12.json` artifact
//! * `--check [baseline]` — enforce the warm-run floors from the baseline
//!   (default `ci/bench_baseline.json`: hit rate, wall ceiling, speedup)
//!
//! A missing `--cache`/`--json` value or an unknown argument exits 2,
//! and an unreadable baseline exits 1, before anything is verified.
//!
//! The printed table and the JSON artifact are Figure 12. The figure is
//! defined on one worker, so it is regenerated with
//! `TT_BENCH_THREADS=1 verify_all --cold --json BENCH_fig12.json`.

use std::process::ExitCode;
use tt_bench::args;
use tt_bench::fig12::{build_registry, Effort};
use tt_bench::incremental;
use tt_contracts::vcache::LoadOutcome;
use tt_contracts::verifier::{fmt_duration, Verifier};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args::only(
        &args,
        &["--quick", "--cold", "--no-cache"],
        &["--cache", "--json", "--check"],
    );
    let quick = args.iter().any(|a| a == "--quick");
    let cold = args.iter().any(|a| a == "--cold");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let json_path = args::value(&args, "--json");
    let cache_arg = args::value(&args, "--cache");
    let effort = if quick { Effort::QUICK } else { Effort::FULL };
    let effort_name = if quick { "quick" } else { "full" };
    let check = args.iter().any(|a| a == "--check");
    if no_cache && (json_path.is_some() || check) {
        eprintln!("error: --json/--check require the incremental cache (drop --no-cache)");
        return ExitCode::FAILURE;
    }
    let baseline = args::baseline(&args);

    // The Lean stand-in: exhaustive structural discharge of the lemmas.
    // Lemmas are axioms of everything else, so they are re-discharged on
    // every run, warm or cold — they are cheap and must never go stale.
    let lemma_cases = tt_contracts::lemmas::discharge_all_exhaustively();
    println!("lemmas: {lemma_cases} cases discharged exhaustively");

    let (report, run) = if no_cache {
        let registry = build_registry(effort);
        (Verifier::new().verify(&registry), None)
    } else {
        let path = incremental::cache_path(cache_arg.as_deref());
        let run = incremental::run(effort, &path, cold);
        if let LoadOutcome::Corrupt(e) = &run.outcome {
            eprintln!(
                "warning: verdict cache {} is corrupt ({e}); falling back to a full cold run",
                path.display()
            );
        }
        (run.report.clone(), Some(run))
    };

    println!("Figure 12: Time taken to verify TickTock ({effort_name} effort)");
    print!("{}", report.render_fig12());
    if let Some(run) = &run {
        let mode = if run.outcome.is_warm() {
            "warm"
        } else {
            "cold"
        };
        println!(
            "incremental: {mode} run on {} worker{}, hit rate {:.1}%, wall {} (scan {}, cold {}), speedup {:.1}x",
            run.threads,
            if run.threads == 1 { "" } else { "s" },
            run.hit_rate * 100.0,
            fmt_duration(run.wall),
            fmt_duration(run.scan),
            fmt_duration(run.cold_wall),
            run.speedup()
        );
        if let Some(path) = &json_path {
            let doc = incremental::to_json(run, effort_name);
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        if let Some(baseline) = &baseline {
            let violations = incremental::check(run, baseline);
            if !violations.is_empty() {
                println!("INCREMENTAL GATE FAILED:");
                for v in &violations {
                    println!("  {v}");
                }
                return ExitCode::FAILURE;
            }
            println!("incremental gate: warm floors hold");
        }
    }

    if report.all_verified() {
        println!("VERIFIED: the entire project checks");
        ExitCode::SUCCESS
    } else {
        println!("REFUTED:");
        for f in report.refuted() {
            println!("  {} :: {}", f.component, f.function);
            for r in &f.refutations {
                println!("    {r}");
            }
        }
        ExitCode::FAILURE
    }
}
