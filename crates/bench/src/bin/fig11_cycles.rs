//! Regenerates Figure 11: average CPU cycles for process tasks.
//!
//! Runs the 21 release tests plus the memory-stress workload on both
//! kernels, three times each (as in §6.2), under cycle instrumentation.
//!
//! `--json [path]` additionally writes `BENCH_fig11.json` (per-method
//! cycles plus the PR 2 context-switch hit/miss/baseline split per chip).
//! `--check [baseline]` (default `ci/bench_baseline.json`) compares the
//! cache-hit context-switch cycles and the pinned per-method cycles
//! against the baseline and exits non-zero on a >10% regression — the CI
//! gate for the commit cache. The baseline is read before anything runs,
//! so an unreadable one fails at once; an unknown argument exits 2.

use std::process::ExitCode;

use tt_bench::fig11::{render, run, Fig11Row};
use tt_bench::switch::{measure_all, SwitchCost};
use tt_bench::{args, json, pct_diff};

fn render_json(rows: &[Fig11Row], switches: &[SwitchCost], wall_ms: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"figure\": \"fig11\",\n  \"runs\": 3,\n");
    out.push_str(&format!("  \"wall_clock_ms\": {},\n", json::num(wall_ms)));
    out.push_str("  \"methods\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"method\": \"{}\", \"ticktock_cycles\": {}, \"tock_cycles\": {}, \"pct_diff\": {}}}{}\n",
            json::escape(row.method),
            json::num(row.ticktock),
            json::num(row.tock),
            json::num(row.pct()),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"context_switch\": [\n");
    for (i, s) in switches.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"chip\": \"{}\", \"arch\": \"{}\", \"hit_cycles\": {}, \"miss_cycles\": {}, \"baseline_cycles\": {}, \"hit_reduction_pct\": {}}}{}\n",
            json::escape(s.chip),
            s.arch,
            s.hit,
            s.miss,
            s.baseline,
            json::num(s.hit_reduction_pct()),
            if i + 1 < switches.len() { "," } else { "" }
        ));
    }
    let arch_hit = |arch: &str| {
        switches
            .iter()
            .filter(|s| s.arch == arch)
            .map(|s| s.hit)
            .max()
            .unwrap_or(0)
    };
    out.push_str("  ],\n");
    out.push_str(&format!("  \"arm_hit\": {},\n", arch_hit("arm")));
    out.push_str(&format!("  \"riscv_hit\": {}\n}}\n", arch_hit("riscv")));
    out
}

/// Fails (returns an error message) if either arch's cache-hit cycles
/// regressed more than 10% against the committed baseline, or if any
/// per-method TickTock cycle mean pinned in the baseline drifted more
/// than 10% in either direction. The cycle model is deterministic, so a
/// drift means the accounting itself changed — the gate that keeps the
/// hot-path fast lane from silently altering what `cycles::charge`
/// records.
fn check_against(baseline: &str, rows: &[Fig11Row], switches: &[SwitchCost]) -> Result<(), String> {
    for arch in ["arm", "riscv"] {
        let key = format!("{arch}_hit");
        let allowed = json::read_number(baseline, &key)
            .ok_or_else(|| format!("baseline is missing \"{key}\""))?;
        let current = switches
            .iter()
            .filter(|s| s.arch == arch)
            .map(|s| s.hit)
            .max()
            .unwrap_or(0) as f64;
        // >10% regression fails; a baseline of 0 admits no regression.
        if current > allowed * 1.1 && current > allowed {
            return Err(format!(
                "{arch} cache-hit context switch regressed: {current} cycles vs baseline {allowed} (>10%)"
            ));
        }
    }
    for row in rows {
        let key = format!("ticktock_{}", row.method);
        // Only methods the baseline pins are checked, so the baseline
        // can grow one method at a time.
        let Some(pinned) = json::read_number(baseline, &key) else {
            continue;
        };
        if (row.ticktock - pinned).abs() > pinned * 0.1 {
            return Err(format!(
                "{} cycle accounting drifted: {:.2} cycles vs baseline {pinned} (>10%)",
                row.method, row.ticktock
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args::only(&args, &[], &["--json", "--check"]);
    let json_path = args::path(&args, "--json", "BENCH_fig11.json");
    let baseline = args::baseline(&args);

    let started = std::time::Instant::now();
    let rows = run(3);
    let switches = measure_all();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    println!("Figure 11: Average CPU cycles for process tasks (3 runs, 21 tests + stress)");
    println!("{}", render(&rows));
    println!("(paper: allocate_grant -50%, brk -22%, build_ro -20%, build_rw -34%, create +0.7%, setup_mpu +8%)");
    println!();
    println!("Context switch-in (PR 2 commit cache), cycles per switch:");
    for s in &switches {
        println!(
            "  {:<12} {:<5} hit {:>4}  miss {:>4}  baseline {:>4}  ({} vs baseline)",
            s.chip,
            s.arch,
            s.hit,
            s.miss,
            s.baseline,
            pct_diff(s.hit as f64, s.baseline as f64)
        );
    }

    if let Some(path) = json_path {
        let doc = render_json(&rows, &switches, wall_ms);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(baseline) = baseline {
        if let Err(msg) = check_against(&baseline, &rows, &switches) {
            eprintln!("REGRESSION: {msg}");
            return ExitCode::FAILURE;
        }
        println!("cache-hit context-switch cycles within 10% of the baseline");
    }
    ExitCode::SUCCESS
}
