//! The `verify` workload: a cold then warm `tt_bench::incremental::run`,
//! then a cold then warm `tt_analysis::audit::run_cached`, against verdict
//! caches of the benchmark's own (never `ci/verify_cache.bin` or
//! `ci/audit_cache.bin`). The traced leg calls the steps those two entry
//! points are built from, with a span around each.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tt_analysis::audit::{self, load_workspace, run_cached, run_passes, workspace_root};
use tt_analysis::config::AuditConfig;
use tt_analysis::findings::Pass;
use tt_bench::fig12::{build_registry, Effort};
use tt_bench::incremental::{self, config_hash, source_index};
use tt_contracts::vcache::VerdictCache;
use tt_contracts::verifier::{VerificationReport, Verifier};

use crate::sheet::{Sheet, COMPONENTS};
use crate::stats::{median, slug};
use crate::{ms, Outcome};

/// The effort `verify_all` runs at by default.
const EFFORT: Effort = Effort::FULL;

/// Every audit pass, as `tt-audit --check` runs them.
const PASSES: [Pass; 4] = [Pass::Tcb, Pass::Coverage, Pass::Crosscheck, Pass::Staleness];

/// Warm repetitions after each cold run.
const WARM_REPS: usize = 3;

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 5;

/// The benchmark's own cache files, next to its executable (inside the
/// build directory), removed again when the run ends.
struct Caches {
    verify: PathBuf,
    audit: PathBuf,
}

impl Caches {
    fn new() -> Result<Caches, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("verify: locating the executable: {e}"))?;
        let dir = exe.parent().ok_or("verify: executable has no directory")?;
        Ok(Caches {
            verify: dir.join("perfbench-verify-cache.bin"),
            audit: dir.join("perfbench-audit-cache.bin"),
        })
    }
}

impl Drop for Caches {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.verify);
        let _ = std::fs::remove_file(&self.audit);
    }
}

fn config(root: &Path) -> Result<AuditConfig, String> {
    let path = root.join(audit::DEFAULT_CONFIG);
    AuditConfig::load(&path).map_err(|e| format!("verify: {}: {e}", path.display()))
}

/// Source index plus registry build, `SETUP_REPS` times; median seconds.
fn setup(root: &Path) -> f64 {
    let samples: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let index = source_index(root);
            let registry = build_registry(EFFORT);
            let s = t0.elapsed().as_secs_f64();
            drop((index, registry));
            s
        })
        .collect();
    median(&samples).expect("set-up samples")
}

fn cases(report: &VerificationReport) -> u64 {
    report.functions.iter().map(|f| f.cases).sum()
}

/// Refuted functions of a report → failures.
fn refutations(report: &VerificationReport, out: &mut Outcome) {
    out.attempted += report.functions.len() as u64;
    for f in report.refuted() {
        out.failed += 1;
        out.errors.push(format!(
            "verify: {} refuted: {}",
            f.function,
            f.refutations.join("; ")
        ));
    }
}

/// One audit run (one operation) and its findings.
fn findings(report: &tt_analysis::AuditReport, out: &mut Outcome) {
    out.attempted += 1;
    out.failed += report.findings.len() as u64;
    out.errors.extend(
        report
            .findings
            .iter()
            .take(3)
            .map(|f| format!("audit: {f}")),
    );
}

/// The untraced `verify` run: set-up, then cold/warm cycles for
/// `seconds`, on one spawned thread. On the main thread the cold
/// `verify_all` time differed between processes by up to 6% while each
/// process's own samples agreed to 0.1%; on spawned threads processes
/// agreed to 0.4%. One thread for the whole loop, not one per cycle, so
/// the allocator does not add an arena per cycle to the peak RSS.
pub fn run(seconds: f64, sheet: &mut Sheet) -> Outcome {
    std::thread::scope(|s| s.spawn(|| measure(seconds, sheet)).join())
        .expect("verify measurement thread")
}

fn measure(seconds: f64, sheet: &mut Sheet) -> Outcome {
    let mut out = Outcome::default();
    let root = workspace_root();
    let (caches, config) = match (Caches::new(), config(&root)) {
        (Ok(c), Ok(cfg)) => (c, cfg),
        (Err(e), _) | (_, Err(e)) => {
            out.errors.push(e);
            return out;
        }
    };
    let setup_s = setup(&root);
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut vcold, mut vwarm, mut acold, mut awarm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_cases = None;
    while vcold.len() < 3 || Instant::now() < t_end {
        let cold = incremental::run(EFFORT, &caches.verify, true);
        refutations(&cold.report, &mut out);
        let c = cases(&cold.report);
        match first_cases {
            None => first_cases = Some(c),
            Some(f) if f != c => out.errors.push(format!(
                "verify: verifier.cases drifted between cold runs: {c} vs {f}"
            )),
            Some(_) => {}
        }
        vcold.push(cold.wall.as_secs_f64());
        let t0 = Instant::now();
        let a = run_cached(&root, &config, &PASSES, &caches.audit, true);
        acold.push(t0.elapsed().as_secs_f64());
        findings(&a, &mut out);
        for _ in 0..WARM_REPS {
            let warm = incremental::run(EFFORT, &caches.verify, false);
            refutations(&warm.report, &mut out);
            if !warm.outcome.is_warm() {
                out.errors
                    .push("verify: the warm run did not load the verdict cache".into());
            }
            let t0 = Instant::now();
            let a = run_cached(&root, &config, &PASSES, &caches.audit, false);
            let a_s = t0.elapsed().as_secs_f64();
            findings(&a, &mut out);
            if !a.cache.as_ref().is_some_and(|c| c.warm) {
                out.errors
                    .push("verify: the warm audit did not load the audit cache".into());
            }
            vwarm.push(warm.wall.as_secs_f64());
            awarm.push(a_s);
        }
        if !out.errors.is_empty() {
            return out;
        }
    }
    let cold_cycle: Vec<f64> = vcold
        .iter()
        .zip(&acold)
        .map(|(v, a)| 1.0 / (v + a))
        .collect();
    let warm_pair: Vec<f64> = vwarm.iter().zip(&awarm).map(|(v, a)| ms(v + a)).collect();
    let m = |v: &[f64]| median(v).expect("samples");
    let cycles = vcold.len();
    sheet.put(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUP_REPS} set-ups: source index + registry build"),
    );
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        format!("range {lo:.4}..{hi:.4}")
    };
    sheet.put(
        "verify_cold_s",
        m(&vcold),
        "s",
        format!(
            "median of {cycles} cold incremental::run, {}",
            range(&vcold)
        ),
    );
    sheet.put(
        "verify_warm_ms",
        ms(m(&vwarm)),
        "ms",
        format!("median of {} warm incremental::run", vwarm.len()),
    );
    sheet.put(
        "audit_cold_ms",
        ms(m(&acold)),
        "ms",
        format!("median of {cycles} cold run_cached, {}", range(&acold)),
    );
    sheet.put(
        "audit_warm_ms",
        ms(m(&awarm)),
        "ms",
        format!("median of {} warm run_cached", awarm.len()),
    );
    sheet.put(
        "work_per_s",
        m(&cold_cycle),
        "1/s",
        "cold verify_all + tt-audit per second",
    );
    sheet.put(
        "latency_ms",
        m(&warm_pair),
        "ms",
        format!(
            "median of {} warm verify_all + tt-audit pairs",
            warm_pair.len()
        ),
    );
    out
}

/// The traced `verify` leg: one untraced cold/warm cycle for the overhead
/// base, then the same work step by step with spans.
pub fn traced(sheet: &mut Sheet) -> Outcome {
    let mut out = Outcome::default();
    let root = workspace_root();
    let (caches, config) = match (Caches::new(), config(&root)) {
        (Ok(c), Ok(cfg)) => (c, cfg),
        (Err(e), _) | (_, Err(e)) => {
            out.errors.push(e);
            return out;
        }
    };
    let untraced = incremental::run(EFFORT, &caches.verify, true);
    refutations(&untraced.report, &mut out);
    let untraced_cases = cases(&untraced.report);
    let cold_audit = run_cached(&root, &config, &PASSES, &caches.audit, true);
    findings(&cold_audit, &mut out);
    let warm_audit = run_cached(&root, &config, &PASSES, &caches.audit, false);
    findings(&warm_audit, &mut out);
    let audit_hit = warm_audit.cache.as_ref().map_or(0.0, |c| c.hit_rate);

    // Cold, then warm, through the pieces of `incremental::run`.
    let cfg = config_hash(EFFORT);
    let mut spans = [0.0f64; 5];
    let mut cold_cases = 0;
    let mut warm_hit = 0.0;
    let mut cold_wall = 0.0;
    let _ = std::fs::remove_file(&caches.verify);
    for pass in 0..2 {
        let t_pass = Instant::now();
        let t = Instant::now();
        let (mut cache, _) = VerdictCache::load_or_cold(&caches.verify, cfg);
        let load = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let index = source_index(&root);
        let index_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let registry = build_registry(EFFORT);
        let registry_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = Verifier::new().verify_incremental(&registry, &mut cache, &index);
        let verify_s = t.elapsed().as_secs_f64();
        refutations(&report, &mut out);
        let t = Instant::now();
        if let Err(e) = cache.save(&caches.verify) {
            out.errors
                .push(format!("verify: saving the verdict cache: {e}"));
        }
        let save = t.elapsed().as_secs_f64();
        if pass == 0 {
            cold_cases = cases(&report);
            cold_wall = t_pass.elapsed().as_secs_f64();
            spans = [load, index_s, registry_s, verify_s, save];
            for (component, stats) in report.by_component() {
                let name = format!("verifier.{}_ms", slug(component));
                if !COMPONENTS
                    .iter()
                    .any(|c| name == format!("verifier.{c}_ms"))
                {
                    out.errors
                        .push(format!("verify: unlisted Fig. 12 component {component:?}"));
                    continue;
                }
                sheet.put(
                    name,
                    ms(stats.total.as_secs_f64()),
                    "ms",
                    format!("{} fns, cold", stats.fns),
                );
            }
        } else {
            warm_hit = cache.hit_rate();
            sheet.put("span.index_ms", ms(index_s), "ms", "warm pass");
            sheet.put("vcache.load_ms", ms(load), "ms", "warm pass");
        }
    }
    if cold_cases != untraced_cases {
        out.errors.push(format!(
            "verify: verifier.cases drifted (traced vs untraced): {cold_cases} vs {untraced_cases}"
        ));
    }
    let [_, _, registry_s, verify_s, save_s] = spans;
    let span_sum: f64 = spans.iter().sum();
    sheet.put("verifier.registry_ms", ms(registry_s), "ms", "cold pass");
    sheet.put(
        "verifier.cases",
        cold_cases as f64,
        "count",
        "concrete cases, cold pass",
    );
    sheet.put(
        "vcache.save_ms",
        ms(save_s),
        "ms",
        "cold pass (writes every verdict)",
    );
    sheet.put("vcache.hit_rate", warm_hit, "frac", "warm pass");
    sheet.put(
        "verify.trace_overhead_frac",
        cold_wall / untraced.wall.as_secs_f64() - 1.0,
        "frac",
        "traced cold pass vs incremental::run cold",
    );
    sheet.put(
        "verify.unattributed_frac",
        (cold_wall - span_sum) / cold_wall,
        "frac",
        format!("cold pass outside its spans; verify {:.0} ms", ms(verify_s)),
    );

    let t = Instant::now();
    let lemma_cases = tt_contracts::lemmas::discharge_all_exhaustively();
    sheet.put(
        "verifier.lemmas_ms",
        ms(t.elapsed().as_secs_f64()),
        "ms",
        format!("{lemma_cases} cases"),
    );

    let t = Instant::now();
    let files = load_workspace(&root);
    sheet.put(
        "audit.load_ms",
        ms(t.elapsed().as_secs_f64()),
        "ms",
        format!("{} files", files.len()),
    );
    for (pass, name) in PASSES.iter().zip([
        "audit.tcb_ms",
        "audit.coverage_ms",
        "audit.crosscheck_ms",
        "audit.staleness_ms",
    ]) {
        let t = Instant::now();
        let fs = run_passes(&files, &config, std::slice::from_ref(pass));
        sheet.put(
            name,
            ms(t.elapsed().as_secs_f64()),
            "ms",
            "one run_passes call",
        );
        out.attempted += 1;
        out.failed += fs.len() as u64;
        out.errors
            .extend(fs.iter().take(3).map(|f| format!("audit: {f}")));
    }
    sheet.put("audit.hit_rate", audit_hit, "frac", "warm run_cached");
    out
}
