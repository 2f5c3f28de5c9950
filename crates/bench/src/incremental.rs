//! Incremental verification wiring for `verify_all` / Fig. 12.
//!
//! Reproduces the verification economics §6.3 leans on: Flux "checks each
//! function in isolation", so after one cold run only *changed* functions
//! are re-solved. Here the cold run discharges every obligation and
//! persists one verdict per function in `ci/verify_cache.bin`
//! ([`tt_contracts::vcache`]); a warm run re-scans the workspace sources
//! ([`tt_contracts::span::SourceIndex`]), and every function whose content
//! hash and obligation-domain hash are unchanged is served from the cache.
//! The CI gate (`--check`) requires the warm run on an unchanged tree to
//! be sub-second, ≥10x faster than the recorded cold wall, with ≥95% hit
//! rate — the floors live in `ci/bench_baseline.json`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::fig12::Effort;
use crate::json;
use tt_contracts::span::{Fnv, SourceIndex};
use tt_contracts::vcache::{LoadOutcome, VerdictCache};
use tt_contracts::verifier::{VerificationReport, Verifier};

/// Default on-disk location of the verdict cache (workspace-relative,
/// gitignored — the cache is a build product, not a source of truth).
pub const DEFAULT_CACHE: &str = "ci/verify_cache.bin";

/// The cache schema generation for `verify_all`; bump to force a cold run
/// when the meaning of a verdict changes.
const SCHEMA: u64 = 1;

/// The toolchain/config hash: compiler + crate version, build profile,
/// cache schema, and the effort densities. Any of these changing makes
/// every cached verdict unreachable (a full cold run) — the "toolchain
/// hash" leg of the staleness model.
pub fn config_hash(effort: Effort) -> u64 {
    let mut h = Fnv::new();
    h.mix_u64(SCHEMA);
    h.mix_u64(tt_contracts::vcache::VERSION as u64);
    h.mix_str(env!("CARGO_PKG_VERSION"));
    h.mix_str(option_env!("CARGO_PKG_RUST_VERSION").unwrap_or(""));
    h.mix_u64(cfg!(debug_assertions) as u64);
    h.mix_u64(effort.monolithic_density as u64);
    h.mix_u64(effort.granular_density as u64);
    h.mix_u64(effort.interrupt_depth as u64);
    h.finish()
}

/// Scans the audited workspace sources into a content-hash index, with
/// the same parallel scan `tt-audit` uses.
pub fn source_index(root: &Path) -> SourceIndex {
    SourceIndex::from_files(&tt_analysis::audit::load_workspace(root))
}

/// Resolves the cache path: absolute stays as given, relative is anchored
/// at the workspace root (so `verify_all` works from any cwd).
pub fn cache_path(arg: Option<&str>) -> PathBuf {
    let p = PathBuf::from(arg.unwrap_or(DEFAULT_CACHE));
    if p.is_absolute() {
        p
    } else {
        tt_analysis::audit::workspace_root().join(p)
    }
}

/// One incremental `verify_all` run: everything the JSON artifact and the
/// CI gate need.
pub struct IncrementalRun {
    /// The verification report (per-function results, cached flags set).
    pub report: VerificationReport,
    /// How the cache load resolved ([`LoadOutcome::Warm`] only when the
    /// file was valid and config-matched).
    pub outcome: LoadOutcome,
    /// Wall-clock of source indexing + verification for *this* run.
    pub wall: Duration,
    /// The workspace scan's share of `wall`: reading and lexing every
    /// source file once, before the index and the cache lookups.
    pub scan: Duration,
    /// The cold-run wall recorded in the cache header (this run's own wall
    /// if this run was cold).
    pub cold_wall: Duration,
    /// Cache lookup hit rate for this run.
    pub hit_rate: f64,
    /// Workers the cache misses were discharged on. Walls measured at
    /// different worker counts are not comparable.
    pub threads: usize,
}

impl IncrementalRun {
    /// Warm-over-cold speedup (1.0 for the cold run itself).
    pub fn speedup(&self) -> f64 {
        let warm = self.wall.as_secs_f64();
        if warm <= 0.0 {
            return f64::INFINITY;
        }
        self.cold_wall.as_secs_f64() / warm
    }
}

/// Runs the verifier incrementally against the cache at `path`.
///
/// `force_cold` discards any existing cache first (the `--cold` leg of the
/// CI job). A missing, corrupt, or config-mismatched cache degrades to
/// exactly the same cold run — corruption is reported in the outcome so
/// the caller can warn, and never causes partial reuse. The (updated)
/// cache is saved back unless the run had refutations that should stay
/// un-cached anyway (refuted verdicts are never stored either way).
pub fn run(effort: Effort, path: &Path, force_cold: bool) -> IncrementalRun {
    let cfg = config_hash(effort);
    let (mut cache, outcome) = if force_cold {
        let _ = std::fs::remove_file(path);
        (VerdictCache::new(cfg), LoadOutcome::NoFile)
    } else {
        VerdictCache::load_or_cold(path, cfg)
    };

    let start = Instant::now();
    let files = tt_analysis::audit::load_workspace(&tt_analysis::audit::workspace_root());
    let scan = start.elapsed();
    let index = SourceIndex::from_files(&files);
    drop(files);
    let registry = crate::fig12::build_registry(effort);
    let verifier = Verifier::new();
    let report = verifier.verify_incremental(&registry, &mut cache, &index);
    let wall = start.elapsed();

    let hit_rate = cache.hit_rate();
    if !outcome.is_warm() {
        // This run *was* the cold baseline: record its wall for warm gates.
        cache.set_cold_wall_ns(wall.as_nanos().min(u64::MAX as u128) as u64);
    }
    let cold_wall = Duration::from_nanos(cache.cold_wall_ns());
    if let Err(e) = cache.save(path) {
        eprintln!(
            "warning: could not save verdict cache {}: {e}",
            path.display()
        );
    }
    IncrementalRun {
        report,
        outcome,
        wall,
        scan,
        cold_wall,
        hit_rate,
        threads: verifier.threads(),
    }
}

/// Renders BENCH_fig12.json: per-component Fig. 12 stats plus the
/// incremental-cache section (`cache_hit_rate`, cold/warm wall, per-
/// component skip counts).
pub fn to_json(run: &IncrementalRun, effort_name: &str) -> String {
    let ms = |d: Duration| json::num(d.as_secs_f64() * 1000.0);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"generator\": \"verify_all\",\n");
    out.push_str(&format!(
        "  \"effort\": \"{}\",\n",
        json::escape(effort_name)
    ));
    let mode = if run.outcome.is_warm() {
        "warm"
    } else {
        "cold"
    };
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"threads\": {},\n", run.threads));
    out.push_str(&format!(
        "  \"cache_hit_rate\": {},\n",
        format_args!("{:.4}", run.hit_rate)
    ));
    out.push_str(&format!("  \"wall_ms\": {},\n", ms(run.wall)));
    out.push_str(&format!("  \"scan_ms\": {},\n", ms(run.scan)));
    out.push_str(&format!("  \"cold_wall_ms\": {},\n", ms(run.cold_wall)));
    out.push_str(&format!("  \"speedup\": {},\n", json::num(run.speedup())));
    let all = run.report.component_stats("");
    out.push_str(&format!("  \"fns\": {},\n", all.fns));
    out.push_str(&format!("  \"skipped_fns\": {},\n", all.cached_fns));
    out.push_str(&format!("  \"refuted_fns\": {},\n", all.refuted_fns));
    out.push_str("  \"components\": {\n");
    let by = run.report.by_component();
    let last = by.len().saturating_sub(1);
    for (i, (component, stats)) in by.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"fns\": {}, \"total_ms\": {}, \"max_ms\": {}, \"mean_ms\": {}, \
             \"stddev_ms\": {}, \"cached_fns\": {}, \"refuted_fns\": {}}}{}\n",
            json::escape(component),
            stats.fns,
            ms(stats.total),
            ms(stats.max),
            ms(stats.mean),
            ms(stats.stddev),
            stats.cached_fns,
            stats.refuted_fns,
            if i == last { "" } else { "," },
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Applies the warm-run CI floors from `ci/bench_baseline.json`:
/// `min_warm_hit_rate`, `max_warm_verify_ms`, `min_incremental_speedup`.
/// Returns the violated gates (empty = pass). A non-warm run fails
/// outright: the gate certifies the *incremental* path, so running it
/// against a cold cache means the job is miswired.
pub fn check(run: &IncrementalRun, baseline: &str) -> Vec<String> {
    let mut violations = Vec::new();
    if !run.outcome.is_warm() {
        violations.push(format!(
            "warm gate ran against a non-warm cache ({:?}); run a cold pass first",
            run.outcome
        ));
        return violations;
    }
    let min_hit = json::read_number(baseline, "min_warm_hit_rate").unwrap_or(0.95);
    let max_ms = json::read_number(baseline, "max_warm_verify_ms").unwrap_or(1000.0);
    let min_speedup = json::read_number(baseline, "min_incremental_speedup").unwrap_or(10.0);
    if run.hit_rate < min_hit {
        violations.push(format!(
            "cache_hit_rate {:.4} below floor {min_hit} on an unchanged tree",
            run.hit_rate
        ));
    }
    let wall_ms = run.wall.as_secs_f64() * 1000.0;
    if wall_ms > max_ms {
        violations.push(format!(
            "warm re-verify took {wall_ms:.1} ms, above the {max_ms} ms ceiling"
        ));
    }
    if run.speedup() < min_speedup {
        violations.push(format!(
            "warm speedup {:.1}x below the {min_speedup}x floor (cold {:.1} ms, warm {wall_ms:.1} ms)",
            run.speedup(),
            run.cold_wall.as_secs_f64() * 1000.0,
        ));
    }
    if run.report.component_stats("").refuted_fns > 0 {
        violations.push("refutations present in the gated run".into());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ttvc-inc-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn cold_then_warm_hits_everything_on_an_unchanged_tree() {
        let path = temp_cache("warm");
        let cold = run(Effort::QUICK, &path, true);
        assert!(cold.report.all_verified());
        assert!(!cold.outcome.is_warm());
        assert_eq!(cold.hit_rate, 0.0);
        assert!(cold.cold_wall == cold.wall);

        let warm = run(Effort::QUICK, &path, false);
        assert!(warm.report.all_verified());
        assert!(warm.outcome.is_warm(), "{:?}", warm.outcome);
        assert!(
            warm.hit_rate >= 0.95,
            "hit rate {:.4} on an unchanged tree",
            warm.hit_rate
        );
        assert_eq!(
            warm.report.component_stats("").cached_fns,
            warm.report.component_stats("").fns
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn different_effort_means_different_config_hash() {
        assert_ne!(config_hash(Effort::QUICK), config_hash(Effort::FULL));
    }

    #[test]
    fn json_artifact_has_the_gated_fields() {
        let path = temp_cache("json");
        let cold = run(Effort::QUICK, &path, true);
        let doc = to_json(&cold, "quick");
        for key in [
            "cache_hit_rate",
            "threads",
            "wall_ms",
            "scan_ms",
            "cold_wall_ms",
            "speedup",
            "skipped_fns",
            "components",
            "TickTock (Monolithic)",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert_eq!(json::read_number(&doc, "cache_hit_rate"), Some(0.0));
        assert_eq!(
            json::read_number(&doc, "threads"),
            Some(cold.threads as f64)
        );
        let scan_ms = json::read_number(&doc, "scan_ms").expect("scan_ms");
        assert!(scan_ms > 0.0 && scan_ms <= json::read_number(&doc, "wall_ms").unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_fails_a_cold_run_and_passes_a_warm_one() {
        let path = temp_cache("check");
        let baseline = r#"{"min_warm_hit_rate": 0.95, "max_warm_verify_ms": 60000.0, "min_incremental_speedup": 0.0}"#;
        let cold = run(Effort::QUICK, &path, true);
        assert!(
            !check(&cold, baseline).is_empty(),
            "cold run must not pass the warm gate"
        );
        let warm = run(Effort::QUICK, &path, false);
        let violations = check(&warm, baseline);
        assert!(violations.is_empty(), "{violations:?}");
        let _ = std::fs::remove_file(&path);
    }
}
