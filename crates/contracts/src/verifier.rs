//! The verification driver: discharges obligations and reports statistics.
//!
//! Mirrors how the paper runs `flux` over TickTock: modular, per-function
//! checking with wall-clock timing, summarized per component as in Figure 12
//! (`Fns`, `Total`, `Max`, `Mean`, `StdDev`).

use crate::obligation::{CheckResult, Obligation, Registry};
use crate::pool;
use crate::span::SourceIndex;
use crate::vcache::{verdict_key, Verdict, VerdictCache};
use crate::{with_mode, Mode};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Verdict-key tag for whole-function verification verdicts (audit passes
/// use their own tags so the namespaces never collide in one cache file).
pub const TAG_VERIFY: u8 = 0;

/// The result of verifying one function (all its obligations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionResult {
    /// Component the function belongs to.
    pub component: &'static str,
    /// Fully qualified function name.
    pub function: String,
    /// Wall-clock time spent discharging the function's obligations: the
    /// sum of their discharge times, each measured on the worker that ran
    /// it (the cache lookup time for a cached result). With several
    /// workers sharing cores each discharge reads longer than it would
    /// alone, so sums across a component can exceed the run's wall time.
    pub duration: Duration,
    /// Total concrete cases explored across obligations.
    pub cases: u64,
    /// Counterexamples found, if any (empty means verified).
    pub refutations: Vec<String>,
    /// Whether any obligation was trusted (assumed).
    pub trusted: bool,
    /// Whether this result was served from the incremental cache.
    pub cached: bool,
}

impl FunctionResult {
    /// Returns `true` if the function verified (no refutations).
    pub fn verified(&self) -> bool {
        self.refutations.is_empty()
    }
}

/// Per-component timing summary: one row of Figure 12.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentStats {
    /// Number of functions checked.
    pub fns: usize,
    /// Total verification time.
    pub total: Duration,
    /// Maximum single-function verification time.
    pub max: Duration,
    /// Mean per-function verification time.
    pub mean: Duration,
    /// Standard deviation of per-function verification time.
    pub stddev: Duration,
    /// Functions with at least one refuted obligation.
    pub refuted_fns: usize,
    /// Functions whose result was served from the incremental cache.
    /// Their (near-zero) durations still enter the timing summary, so a
    /// warm run shows the incremental speedup directly in `total`.
    pub cached_fns: usize,
}

/// A full verification run over a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerificationReport {
    /// Per-function results, in registration order.
    pub functions: Vec<FunctionResult>,
}

impl VerificationReport {
    /// Returns `true` if every function verified.
    pub fn all_verified(&self) -> bool {
        self.functions.iter().all(FunctionResult::verified)
    }

    /// This report with every duration zeroed: the verdicts, which must
    /// not depend on the worker count or the order of discharge.
    pub fn without_timings(&self) -> VerificationReport {
        let mut out = self.clone();
        for f in &mut out.functions {
            f.duration = Duration::ZERO;
        }
        out
    }

    /// Returns the functions that failed verification.
    pub fn refuted(&self) -> Vec<&FunctionResult> {
        self.functions.iter().filter(|f| !f.verified()).collect()
    }

    /// Summarizes one component; `component = ""` summarizes everything.
    pub fn component_stats(&self, component: &str) -> ComponentStats {
        let durations: Vec<Duration> = self
            .functions
            .iter()
            .filter(|f| component.is_empty() || f.component == component)
            .map(|f| f.duration)
            .collect();
        let refuted_fns = self
            .functions
            .iter()
            .filter(|f| (component.is_empty() || f.component == component) && !f.verified())
            .count();
        let cached_fns = self
            .functions
            .iter()
            .filter(|f| (component.is_empty() || f.component == component) && f.cached)
            .count();
        let fns = durations.len();
        let total: Duration = durations.iter().sum();
        let max = durations.iter().max().copied().unwrap_or_default();
        let mean = if fns == 0 {
            Duration::ZERO
        } else {
            total / fns as u32
        };
        let mean_s = mean.as_secs_f64();
        let var = if fns == 0 {
            0.0
        } else {
            durations
                .iter()
                .map(|d| {
                    let diff = d.as_secs_f64() - mean_s;
                    diff * diff
                })
                .sum::<f64>()
                / fns as f64
        };
        ComponentStats {
            fns,
            total,
            max,
            mean,
            stddev: Duration::from_secs_f64(var.sqrt()),
            refuted_fns,
            cached_fns,
        }
    }

    /// Fraction of functions served from the incremental cache (0.0 when
    /// the report is empty): the `cache_hit_rate` of BENCH_fig12.json.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.functions.is_empty() {
            return 0.0;
        }
        let cached = self.functions.iter().filter(|f| f.cached).count();
        cached as f64 / self.functions.len() as f64
    }

    /// Groups results per component, sorted by component name.
    pub fn by_component(&self) -> BTreeMap<&'static str, ComponentStats> {
        let mut components: Vec<&'static str> =
            self.functions.iter().map(|f| f.component).collect();
        components.sort_unstable();
        components.dedup();
        components
            .into_iter()
            .map(|c| (c, self.component_stats(c)))
            .collect()
    }

    /// Renders the Figure 12 table.
    pub fn render_fig12(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>6} {:>10} {:>10} {:>10} {:>10}\n",
            "Component", "Fns.", "Total", "Max", "Mean", "StdDev."
        ));
        for (component, stats) in self.by_component() {
            out.push_str(&format!(
                "{:<24} {:>6} {:>10} {:>10} {:>10} {:>10}\n",
                component,
                stats.fns,
                fmt_duration(stats.total),
                fmt_duration(stats.max),
                fmt_duration(stats.mean),
                fmt_duration(stats.stddev),
            ));
        }
        out
    }
}

/// Formats a duration like the paper: `5m19s`, `36s`, `0.05s`.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        let m = (secs / 60.0).floor() as u64;
        let s = (secs - m as f64 * 60.0).round() as u64;
        format!("{m}m{s}s")
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{secs:.3}s")
    }
}

/// What discharging one obligation produced: the result of one pool unit.
#[derive(Debug, Clone)]
pub struct Discharge {
    /// Concrete cases explored (0 when refuted or trusted).
    pub cases: u64,
    /// Contract violations raised by the code under check, then the
    /// obligation's own counterexample, if any.
    pub refutations: Vec<String>,
    /// Whether the obligation was trusted (assumed).
    pub trusted: bool,
    /// Wall-clock time of this discharge on the thread that ran it.
    pub duration: Duration,
}

/// Discharges one obligation on the calling thread.
///
/// The check runs in [`Mode::Observe`] so that contract failures inside
/// checked code surface as refutations rather than panics — matching
/// Flux, which reports errors instead of crashing the build. Every
/// per-thread input the check sees (the contract mode, the violation log)
/// is set up and drained here, so the result does not depend on which
/// thread runs it or what ran there before.
pub fn discharge(obligation: &Obligation) -> Discharge {
    let start = Instant::now();
    let result = with_mode(Mode::Observe, || (obligation.check)());
    let mut refutations: Vec<String> = crate::take_violations()
        .iter()
        .map(ToString::to_string)
        .collect();
    let (cases, trusted) = match result {
        CheckResult::Verified { cases } => (cases, false),
        CheckResult::Refuted { counterexample } => {
            refutations.push(counterexample);
            (0, false)
        }
        CheckResult::Trusted => (0, true),
    };
    Discharge {
        cases,
        refutations,
        trusted,
        duration: start.elapsed(),
    }
}

/// The verification driver.
///
/// Every obligation is checked in isolation, as Flux checks each function
/// in isolation, so the obligations a run has to discharge are
/// independent units: the verifier runs them on the work-stealing
/// [`pool`] and merges the results per function in registration order.
/// The report is the same at any worker count.
#[derive(Debug, Clone)]
pub struct Verifier {
    threads: usize,
}

impl Default for Verifier {
    fn default() -> Self {
        Self::with_threads(pool::default_threads())
    }
}

impl Verifier {
    /// A verifier on [`pool::default_threads`] workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// A verifier on `threads` workers (1 discharges on the calling thread).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count this verifier discharges on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Discharges every obligation in `registry`, grouped per function.
    pub fn verify(&self, registry: &Registry) -> VerificationReport {
        self.run(registry, None)
    }

    /// Persistent incremental verification: functions whose source content
    /// hash *and* obligation-domain hash both match a verdict in `cache`
    /// are skipped; everything else is discharged and (if verified) stored.
    ///
    /// This is the workflow §6.3 highlights: "Flux is a modular verifier
    /// that checks each function in isolation … allow\[ing\] for incremental
    /// and interactive verification during code development".
    ///
    /// Staleness gates, in the cache key itself:
    /// * a changed function body → different [`SourceIndex::anchor_hash`];
    /// * a changed spec (obligation added/removed/re-kinded/re-trusted) →
    ///   a different obligation-domain signature;
    /// * a toolchain/config change → the caller loads the cache under a
    ///   different config hash, which discards every verdict.
    ///
    /// Refuted functions are never stored, so a failure is always
    /// re-discharged. Obligations whose name cannot be anchored to a
    /// scanned `fn` span fall back to the whole-workspace hash: they stay
    /// cacheable on an unchanged tree but go stale on *any* source edit.
    pub fn verify_incremental(
        &self,
        registry: &Registry,
        cache: &mut VerdictCache,
        index: &SourceIndex,
    ) -> VerificationReport {
        self.run(registry, Some((cache, index)))
    }

    fn run(
        &self,
        registry: &Registry,
        cache: Option<(&mut VerdictCache, &SourceIndex)>,
    ) -> VerificationReport {
        // Verifier runs in one process take turns, so no run's
        // per-obligation times include another run's discharges
        // competing for the same cores.
        static TURN: Mutex<()> = Mutex::new(());
        let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
        let obligations = registry.obligations();
        verify_by(registry, cache, |units| {
            pool::run_indexed(units, self.threads, |_, &i| discharge(&obligations[i]))
        })
    }
}

/// The verifier with a caller-chosen discharge step: plans the functions
/// `cache` misses (every function when `cache` is `None`), hands their
/// obligation indices to `run` in registration order, and merges the
/// [`Discharge`]s `run` returns — one per index, in the same order — per
/// function in registration order:
///
/// * cases are summed, refutations keep obligation order;
/// * `duration` is the sum of the function's discharge times, so a
///   Figure 12 row stays "effort per function" at any worker count;
/// * a function is trusted if any of its obligations is.
///
/// [`Verifier`] passes the work-stealing pool as `run`; any other order
/// of discharge must produce the same report.
pub fn verify_by(
    registry: &Registry,
    mut cache: Option<(&mut VerdictCache, &SourceIndex)>,
    run: impl FnOnce(&[usize]) -> Vec<Discharge>,
) -> VerificationReport {
    let obligations = registry.obligations();
    let functions = group_by_function(registry);

    // Plan: serve hits from the cache, queue every obligation of a miss.
    let mut results: Vec<Option<FunctionResult>> = Vec::with_capacity(functions.len());
    let mut keys = Vec::with_capacity(functions.len());
    let mut units = Vec::new();
    for group in &functions {
        let first = &obligations[group[0]];
        let (component, function) = (first.component, first.function.as_str());
        let key = cache.as_ref().map(|(_, index)| {
            let domain_hash = obligation_signature(group.iter().map(|&i| &obligations[i]));
            let fn_hash = index.anchor_hash(function);
            (
                verdict_key(TAG_VERIFY, component, function),
                fn_hash,
                domain_hash,
            )
        });
        let lookup_start = Instant::now();
        let hit = match (&mut cache, key) {
            (Some((cache, _)), Some((key_hash, fn_hash, domain_hash))) => {
                cache.lookup(key_hash, fn_hash, domain_hash)
            }
            _ => None,
        };
        results.push(hit.map(|v| FunctionResult {
            component,
            function: function.to_string(),
            // The honest warm cost: the lookup itself, not the original
            // discharge — so Figure 12 totals show the incremental
            // speedup directly.
            duration: lookup_start.elapsed(),
            cases: v.cases,
            refutations: Vec::new(),
            trusted: v.trusted,
            cached: true,
        }));
        if hit.is_none() {
            units.extend_from_slice(group);
        }
        keys.push(key);
    }
    units.sort_unstable();

    let discharged = run(&units);
    assert_eq!(discharged.len(), units.len(), "one discharge per unit");
    let mut by_obligation: Vec<Option<Discharge>> = vec![None; obligations.len()];
    for (&i, d) in units.iter().zip(discharged) {
        by_obligation[i] = Some(d);
    }

    // Merge per function, in registration order.
    let mut report = VerificationReport::default();
    for ((group, result), key) in functions.iter().zip(results).zip(keys) {
        if let Some(hit) = result {
            report.functions.push(hit);
            continue;
        }
        let first = &obligations[group[0]];
        let mut merged = FunctionResult {
            component: first.component,
            function: first.function.clone(),
            duration: Duration::ZERO,
            cases: 0,
            refutations: Vec::new(),
            trusted: false,
            cached: false,
        };
        for &i in group {
            let d = by_obligation[i]
                .take()
                .expect("planned obligation discharged");
            merged.cases += d.cases;
            merged.refutations.extend(d.refutations);
            merged.trusted |= d.trusted;
            merged.duration += d.duration;
        }
        if let (Some((cache, _)), Some((key_hash, fn_hash, domain_hash))) = (&mut cache, key) {
            if merged.verified() {
                cache.store(Verdict {
                    key_hash,
                    fn_hash,
                    domain_hash,
                    cases: merged.cases,
                    duration_ns: merged.duration.as_nanos().min(u64::MAX as u128) as u64,
                    trusted: merged.trusted,
                    kind: obligations[*group.last().expect("non-empty group")].kind as u8,
                });
            }
        }
        report.functions.push(merged);
    }
    report
}

/// The registry's obligation indices grouped per `(component, function)`,
/// groups in first-registration order, indices ascending.
fn group_by_function(registry: &Registry) -> Vec<Vec<usize>> {
    let mut slot: HashMap<(&str, &str), usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, o) in registry.obligations().iter().enumerate() {
        let g = *slot
            .entry((o.component, o.function.as_str()))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[g].push(i);
    }
    groups
}

/// The obligation-domain signature of one function: a fingerprint of its
/// registered contract set (kind, trust, name per obligation). A changed
/// spec — an obligation added, removed, re-kinded or re-trusted — changes
/// the signature, the analogue of Flux re-checking a function whose
/// refinement annotations changed. This is the `domain_hash` half of every
/// persistent verdict key.
fn obligation_signature<'a>(obligations: impl Iterator<Item = &'a Obligation>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    };
    for o in obligations {
        mix(o.kind as u64 + 1);
        mix(o.trusted as u64 + 11);
        for b in o.function.bytes() {
            mix(b as u64);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligation::Registry;
    use crate::ContractKind;

    fn registry_with(pass: bool) -> Registry {
        let mut r = Registry::new();
        r.add_fn("c1", "f", ContractKind::Post, move || {
            if pass {
                CheckResult::Verified { cases: 3 }
            } else {
                CheckResult::Refuted {
                    counterexample: "x = 7".into(),
                }
            }
        });
        r
    }

    #[test]
    fn verified_registry_reports_all_verified() {
        let report = Verifier::new().verify(&registry_with(true));
        assert!(report.all_verified());
        assert_eq!(report.functions.len(), 1);
        assert_eq!(report.functions[0].cases, 3);
    }

    #[test]
    fn refuted_registry_reports_counterexample() {
        let report = Verifier::new().verify(&registry_with(false));
        assert!(!report.all_verified());
        let refuted = report.refuted();
        assert_eq!(refuted.len(), 1);
        assert_eq!(refuted[0].refutations, vec!["x = 7".to_string()]);
    }

    #[test]
    fn obligations_grouped_per_function() {
        let mut r = Registry::new();
        r.add_fn("c", "f", ContractKind::Pre, || CheckResult::Verified {
            cases: 1,
        });
        r.add_fn("c", "f", ContractKind::Post, || CheckResult::Verified {
            cases: 2,
        });
        r.add_fn("c", "g", ContractKind::Post, || CheckResult::Verified {
            cases: 4,
        });
        let report = Verifier::new().verify(&r);
        assert_eq!(report.functions.len(), 2);
        assert_eq!(report.functions[0].cases, 3);
        assert_eq!(report.functions[1].cases, 4);
    }

    #[test]
    fn in_code_contract_violations_become_refutations() {
        let mut r = Registry::new();
        r.add_fn("c", "violates", ContractKind::Invariant, || {
            // Code under check trips a contract while running in Observe mode.
            crate::invariant!("inner", 1 == 2);
            CheckResult::Verified { cases: 1 }
        });
        let report = Verifier::new().verify(&r);
        assert!(!report.all_verified());
        assert!(report.functions[0].refutations[0].contains("inner"));
    }

    #[test]
    fn component_stats_computes_totals() {
        let mut r = Registry::new();
        for name in ["a", "b", "c"] {
            r.add_fn("k", name, ContractKind::Post, || CheckResult::Verified {
                cases: 1,
            });
        }
        let report = Verifier::new().verify(&r);
        let stats = report.component_stats("k");
        assert_eq!(stats.fns, 3);
        assert!(stats.total >= stats.max);
        assert_eq!(stats.refuted_fns, 0);
        let all = report.component_stats("");
        assert_eq!(all.fns, 3);
    }

    #[test]
    fn single_function_component_has_zero_stddev() {
        let report = Verifier::new().verify(&registry_with(true));
        let stats = report.component_stats("c1");
        assert_eq!(stats.fns, 1);
        assert_eq!(stats.stddev, Duration::ZERO);
        assert_eq!(stats.total, stats.max);
        assert_eq!(stats.total, stats.mean);
    }

    #[test]
    fn empty_component_stats_are_all_zero() {
        let report = Verifier::new().verify(&registry_with(true));
        let stats = report.component_stats("no-such-component");
        assert_eq!(stats.fns, 0);
        assert_eq!(stats.total, Duration::ZERO);
        assert_eq!(stats.max, Duration::ZERO);
        assert_eq!(stats.mean, Duration::ZERO);
        assert_eq!(stats.stddev, Duration::ZERO);
        assert_eq!(stats.refuted_fns, 0);
        assert_eq!(stats.cached_fns, 0);
    }

    #[test]
    fn all_trusted_component_verifies_with_zero_cases() {
        let mut r = Registry::new();
        r.add_trusted("k", "axiom_a", ContractKind::Lemma);
        r.add_trusted("k", "axiom_b", ContractKind::Post);
        let report = Verifier::new().verify(&r);
        assert!(report.all_verified());
        assert!(report.functions.iter().all(|f| f.trusted));
        assert!(report.functions.iter().all(|f| f.cases == 0));
        let stats = report.component_stats("k");
        assert_eq!(stats.fns, 2);
        assert_eq!(stats.refuted_fns, 0);
    }

    #[test]
    fn cached_results_are_counted_in_component_stats() {
        let mut r = Registry::new();
        r.add_fn("k", "f", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        r.add_fn("k", "g", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        let idx = index_of("pub fn unrelated() {}\n");
        let cold = verifier.verify_incremental(&r, &mut cache, &idx);
        assert_eq!(cold.component_stats("k").cached_fns, 0);
        // Add a third function: the warm run re-checks only it.
        r.add_fn("k", "h", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        let warm = verifier.verify_incremental(&r, &mut cache, &idx);
        let stats = warm.component_stats("k");
        assert_eq!(stats.fns, 3);
        assert_eq!(stats.cached_fns, 2);
        assert_eq!(warm.component_stats("").cached_fns, 2);
    }

    #[test]
    fn trusted_obligations_are_marked() {
        let mut r = Registry::new();
        r.add_trusted("k", "lemma", ContractKind::Lemma);
        let report = Verifier::new().verify(&r);
        assert!(report.functions[0].trusted);
        assert!(report.all_verified());
    }

    #[test]
    fn fig12_rendering_contains_components() {
        let report = Verifier::new().verify(&registry_with(true));
        let table = report.render_fig12();
        assert!(table.contains("Component"));
        assert!(table.contains("c1"));
    }

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(fmt_duration(Duration::from_secs(319)), "5m19s");
        assert_eq!(fmt_duration(Duration::from_secs(36)), "36.0s");
        assert_eq!(fmt_duration(Duration::from_millis(50)), "0.050s");
    }

    fn index_of(src: &str) -> SourceIndex {
        SourceIndex::from_files(&[crate::span::scan_text("crates/x/src/lib.rs", src)])
    }

    #[test]
    fn incremental_hits_on_unchanged_fn_and_spec() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let runs = Arc::new(AtomicUsize::new(0));
        let runs2 = Arc::clone(&runs);
        let mut r = Registry::new();
        r.add_fn("c", "anchored_fn", ContractKind::Post, move || {
            runs2.fetch_add(1, Ordering::SeqCst);
            CheckResult::Verified { cases: 5 }
        });
        let idx = index_of("pub fn anchored_fn() {\n    body();\n}\n");
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        let cold = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(cold.all_verified());
        assert!(!cold.functions[0].cached);
        assert_eq!(cold.cache_hit_rate(), 0.0);
        let warm = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(warm.functions[0].cached);
        assert_eq!(warm.functions[0].cases, 5);
        assert_eq!(warm.cache_hit_rate(), 1.0);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "discharged only once");
    }

    #[test]
    fn incremental_rechecks_on_changed_fn_body() {
        let mut r = Registry::new();
        r.add_fn("c", "anchored_fn", ContractKind::Post, || {
            CheckResult::Verified { cases: 1 }
        });
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        let idx = index_of("pub fn anchored_fn() {\n    body();\n}\n");
        verifier.verify_incremental(&r, &mut cache, &idx);
        let edited = index_of("pub fn anchored_fn() {\n    EDITED();\n}\n");
        let warm = verifier.verify_incremental(&r, &mut cache, &edited);
        assert!(!warm.functions[0].cached, "edited fn must re-discharge");
    }

    #[test]
    fn incremental_rechecks_on_changed_spec() {
        let mut r = Registry::new();
        r.add_fn("c", "anchored_fn", ContractKind::Post, || {
            CheckResult::Verified { cases: 1 }
        });
        let idx = index_of("pub fn anchored_fn() {\n    body();\n}\n");
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        verifier.verify_incremental(&r, &mut cache, &idx);
        // Same source, one more obligation: the spec changed.
        r.add_fn("c", "anchored_fn", ContractKind::Pre, || {
            CheckResult::Verified { cases: 1 }
        });
        let warm = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(!warm.functions[0].cached, "changed spec must re-discharge");
        assert_eq!(warm.functions[0].cases, 2);
    }

    #[test]
    fn incremental_never_caches_refutations() {
        let mut r = Registry::new();
        r.add_fn("c", "bad_fn", ContractKind::Post, || CheckResult::Refuted {
            counterexample: "x".into(),
        });
        let idx = index_of("pub fn bad_fn() {\n    body();\n}\n");
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(cache.is_empty());
        let again = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(!again.functions[0].cached);
        assert!(!again.all_verified());
    }

    #[test]
    fn unanchored_obligations_go_stale_on_any_source_change() {
        let mut r = Registry::new();
        r.add_fn("c", "not_in_source", ContractKind::Post, || {
            CheckResult::Verified { cases: 1 }
        });
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        let idx = index_of("pub fn unrelated() {\n    a();\n}\n");
        verifier.verify_incremental(&r, &mut cache, &idx);
        // Unchanged tree: still a hit via the workspace-hash anchor.
        let warm = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(warm.functions[0].cached);
        // ANY file change (even an unrelated fn) invalidates it.
        let edited = index_of("pub fn unrelated() {\n    b();\n}\n");
        let stale = verifier.verify_incremental(&r, &mut cache, &edited);
        assert!(!stale.functions[0].cached);
    }

    #[test]
    fn incremental_round_trips_through_the_file_format() {
        let mut r = Registry::new();
        r.add_fn("c", "anchored_fn", ContractKind::Invariant, || {
            CheckResult::Verified { cases: 9 }
        });
        r.add_trusted("c", "axiom", ContractKind::Lemma);
        let idx = index_of("pub fn anchored_fn() {\n    body();\n}\n");
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(7);
        verifier.verify_incremental(&r, &mut cache, &idx);
        let reloaded = VerdictCache::decode(&cache.encode()).unwrap();
        let mut reloaded = reloaded;
        let warm = verifier.verify_incremental(&r, &mut reloaded, &idx);
        assert!(warm.functions.iter().all(|f| f.cached));
        assert!(warm.functions.iter().any(|f| f.trusted));
        assert_eq!(warm.functions[0].cases, 9);
    }

    /// Interleaved functions with violations, refutations and trust.
    fn mixed_registry() -> Registry {
        let mut r = Registry::new();
        for round in 0..3u64 {
            for f in ["f", "g", "h"] {
                r.add_fn("c", f, ContractKind::Post, move || {
                    if f == "g" && round == 1 {
                        crate::invariant!("g-inner", round == 0);
                        CheckResult::Refuted {
                            counterexample: format!("g round {round}"),
                        }
                    } else {
                        CheckResult::Verified { cases: round + 1 }
                    }
                });
            }
        }
        r.add_trusted("c", "h", ContractKind::Lemma);
        r.add_trusted("d", "axiom", ContractKind::Lemma);
        r
    }

    #[test]
    fn report_is_the_same_at_any_worker_count_and_order() {
        let r = mixed_registry();
        let serial = Verifier::with_threads(1).verify(&r).without_timings();
        let row = |f: &FunctionResult| (f.function.clone(), f.cases, f.trusted);
        assert_eq!(
            serial.functions.iter().map(row).collect::<Vec<_>>(),
            vec![
                ("f".into(), 6, false),
                ("g".into(), 4, false),
                ("h".into(), 6, true),
                ("axiom".into(), 0, true),
            ]
        );
        // The in-code violation comes before its obligation's own
        // counterexample.
        assert_eq!(
            serial.functions[1].refutations,
            vec![
                "contract violation [Invariant] at g-inner: round == 0".to_string(),
                "g round 1".to_string(),
            ]
        );
        for threads in [2, 8] {
            let parallel = Verifier::with_threads(threads).verify(&r);
            assert_eq!(parallel.without_timings(), serial, "threads = {threads}");
        }
        let reversed = verify_by(&r, None, |units| {
            let mut out: Vec<Discharge> = units
                .iter()
                .rev()
                .map(|&i| discharge(&r.obligations()[i]))
                .collect();
            out.reverse();
            out
        });
        assert_eq!(reversed.without_timings(), serial);
    }

    #[test]
    fn merge_sums_discharge_times_per_function() {
        let r = mixed_registry();
        let report = verify_by(&r, None, |units| {
            units
                .iter()
                .map(|&i| Discharge {
                    cases: 1,
                    refutations: Vec::new(),
                    trusted: false,
                    duration: Duration::from_millis(i as u64 + 1),
                })
                .collect()
        });
        // f is registered at indices 0, 3 and 6: 1 + 4 + 7 ms.
        assert_eq!(report.functions[0].duration, Duration::from_millis(12));
        assert_eq!(report.functions[0].cases, 3);
        // h has a fourth, trusted obligation at index 9.
        assert_eq!(
            report.functions[2].duration,
            Duration::from_millis(3 + 6 + 9 + 10)
        );
    }

    #[test]
    fn only_cache_misses_are_planned() {
        let r = mixed_registry();
        let idx = index_of("pub fn unrelated() {}\n");
        let mut cache = VerdictCache::new(1);
        let verifier = Verifier::with_threads(2);
        verifier.verify_incremental(&r, &mut cache, &idx);
        let mut planned = Vec::new();
        let warm = verify_by(&r, Some((&mut cache, &idx)), |units| {
            planned = units.to_vec();
            units
                .iter()
                .map(|&i| discharge(&r.obligations()[i]))
                .collect()
        });
        // Only g was refuted, so only g's obligations are re-discharged.
        assert_eq!(planned, vec![1, 4, 7]);
        assert_eq!(
            warm.functions.iter().filter(|f| f.cached).count(),
            3,
            "f, h and axiom are served from the cache"
        );
        let cold = Verifier::new().verify(&r).without_timings();
        assert_eq!(warm.without_timings().functions[1], cold.functions[1]);
    }
}
