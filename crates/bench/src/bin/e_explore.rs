//! The schedule-exploration gate: systematic interrupt interleaving
//! with DPOR-style pruning.
//!
//! Explores every interrupt-arrival commuting class of the campaign
//! scenario — all seven chips, the clean baseline plus `--seeds`
//! injected ones each — executing one representative per class through
//! the fleet's snapshot/restore machinery and oracle-checking it.
//! Previously-found schedules persisted under `<--corpus>/schedules.bin`
//! replay first; new findings are written back as version-2 corpus
//! records (the 64-bit schedule ID is the whole repro).
//!
//! Alongside the sweep, the planted commit-window bug demonstration
//! proves detector power: `--planted-seeds` seeded runs on the buggy
//! kernel must stay green, exploration must find the bug, and the
//! minimized schedule must be harmless on the correct kernel.
//!
//! With `--check [baseline]` (default `ci/bench_baseline.json`), exits
//! non-zero on any finding, a replayed schedule still failing, a pruning
//! ratio under the baseline's `min_explore_prune_ratio` floor, or lost
//! detector power; a baseline that cannot be read fails before any
//! exploration runs. With
//! `--json [path]`, writes `BENCH_explore.json`. `--budget-ms N` bounds
//! fleet wall clock (late units report truncated, and the gate refuses
//! to pass on truncation alone).

use std::path::Path;
use std::process::ExitCode;

use tt_bench::args;
use tt_bench::explore::{
    check, explore_json, explore_records, planted_demo, render, replay_schedule_records,
    run_explore_fleet, schedule_corpus,
};
use tt_hw::platform::{ALL_CHIPS, NRF52840DK};
use tt_kernel::corpus::write_corpus;
use tt_kernel::pool;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds: u64 = args::number(&args, "--seeds").unwrap_or(2);
    let planted_seeds: u64 = args::number(&args, "--planted-seeds").unwrap_or(25);
    let cap: Option<usize> = args::number(&args, "--cap");
    let budget_ms: Option<f64> = args::number(&args, "--budget-ms");
    let threads: usize = args::number(&args, "--threads").unwrap_or_else(pool::default_threads);
    let corpus_dir =
        args::path(&args, "--corpus", "ci/corpus").unwrap_or_else(|| "ci/corpus".into());
    let json_path = args::path(&args, "--json", "BENCH_explore.json");
    // Read the baseline up front: a gate asked to check must not run its
    // whole sweep and then skip the floor for want of a file.
    let baseline = match args::path(&args, "--check", "ci/bench_baseline.json") {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // Replay the persisted schedule corpus first — a previously-failing
    // schedule reporting in the opening seconds beats rediscovering it.
    let corpus = match schedule_corpus(Path::new(&corpus_dir)) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("corrupt schedule corpus under {corpus_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let replayed = replay_schedule_records(&corpus);
    if !corpus.is_empty() {
        println!(
            "schedule corpus: {} record(s) replayed, {} still failing",
            corpus.len(),
            replayed.len()
        );
    }

    let fleet = run_explore_fleet(&ALL_CHIPS, seeds, cap, threads, budget_ms);
    let demo = planted_demo(&NRF52840DK, planted_seeds);
    print!("{}", render(&fleet, &demo));
    println!("wall clock: {:.0} ms", fleet.wall_ms);

    // Persist new campaign findings (the planted demo is a self-check,
    // not a campaign result — its schedules stay out of the corpus).
    let records = explore_records(&fleet.outcomes);
    if !records.is_empty() {
        let path = Path::new(&corpus_dir).join("schedules.bin");
        match write_corpus(&path, &records) {
            Ok(()) => println!(
                "wrote {} schedule record(s) to {}",
                records.len(),
                path.display()
            ),
            Err(e) => eprintln!("failed to write schedule corpus {}: {e}", path.display()),
        }
    }

    if let Some(path) = json_path {
        let doc = explore_json(&fleet, &demo);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if let Some(baseline) = baseline {
        match check(&fleet, &demo, &replayed, &baseline) {
            Ok(notes) => {
                for n in notes {
                    println!("gate: {n}");
                }
            }
            Err(failures) => {
                for f in &failures {
                    eprintln!("gate FAILED: {f}");
                }
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
