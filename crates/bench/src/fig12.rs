//! Figure 12: verification time per component.
//!
//! Builds the obligation registry — `TickTock (Monolithic)`,
//! `TickTock (Granular)`, `Interrupts` and the reproduction's own
//! components — that `verify_all` discharges. The figure is that gate's
//! one-worker cold run: `TT_BENCH_THREADS=1 verify_all --cold --json
//! BENCH_fig12.json` prints `Fns / Total / Max / Mean / StdDev` exactly as
//! Fig. 12 does and writes the same columns per component.
//!
//! The densities below set how hard each domain is explored. They are
//! chosen so a laptop run finishes in tens of seconds while preserving the
//! paper's structure: at *equal* effort per point, the monolithic kernel's
//! entangled allocation spec dominates everything (the paper's 5m19s vs
//! 36s), and the interrupt semantics have the highest per-function cost.

use tt_contracts::obligation::Registry;
use tt_legacy::BugVariant;

/// Verification effort configuration.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Parameter-grid density for the monolithic allocator spec.
    pub monolithic_density: usize,
    /// Domain density for the granular obligations.
    pub granular_density: usize,
    /// Bit-pattern depth for the interrupt obligations.
    pub interrupt_depth: usize,
}

impl Effort {
    /// The quick configuration used by tests and CI.
    pub const QUICK: Effort = Effort {
        monolithic_density: 2,
        granular_density: 2,
        interrupt_depth: 4,
    };

    /// The full configuration, `verify_all` without `--quick`: every
    /// component explores its domains at the same per-point density (20),
    /// and the interrupt bit-vector domains at depth 100. Fig. 12 is this
    /// effort's cold run on one worker.
    pub const FULL: Effort = Effort {
        monolithic_density: 20,
        granular_density: 20,
        interrupt_depth: 100,
    };
}

/// Builds the full Fig. 12 registry: the paper's three components plus
/// the reproduction's own additions (the PR 2 commit-cache soundness
/// obligation and the refined-pointer obligations of the hardware model).
pub fn build_registry(effort: Effort) -> Registry {
    registry_with(effort, BugVariant::Fixed)
}

/// [`build_registry`] with the monolithic kernel's obligations for
/// `monolithic`.
fn registry_with(effort: Effort, monolithic: BugVariant) -> Registry {
    let mut registry = Registry::new();
    tt_legacy::obligations::register_obligations(
        &mut registry,
        monolithic,
        effort.monolithic_density,
    );
    ticktock::obligations::register_obligations(&mut registry, effort.granular_density);
    tt_fluxarm::contracts::register_obligations(&mut registry, effort.interrupt_depth);
    tt_kernel::obligations::register_obligations(&mut registry, effort.granular_density);
    tt_kernel::recovery::register_obligations(&mut registry, effort.granular_density);
    tt_kernel::explore::register_obligations(&mut registry, effort.granular_density);
    tt_hw::obligations::register_obligations(&mut registry, effort.granular_density);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticktock::obligations::COMPONENT as GRANULAR;
    use tt_contracts::verifier::{VerificationReport, Verifier};
    use tt_fluxarm::contracts::COMPONENT as INTERRUPTS;
    use tt_legacy::obligations::COMPONENT as MONOLITHIC;

    /// Runs the verifier over the registry on one worker, as Fig. 12 is
    /// measured: a discharge that shares a core with another one reads
    /// longer than it is.
    fn run(effort: Effort) -> VerificationReport {
        Verifier::with_threads(1).verify(&build_registry(effort))
    }

    #[test]
    fn everything_verifies_at_quick_effort() {
        let report = run(Effort::QUICK);
        assert!(
            report.all_verified(),
            "refuted: {:?}",
            report
                .refuted()
                .iter()
                .map(|f| (&f.function, &f.refutations))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fig12_shape_holds() {
        let report = run(Effort::QUICK);
        let mono = report.component_stats(MONOLITHIC);
        let gran = report.component_stats(GRANULAR);
        let intr = report.component_stats(INTERRUPTS);

        // Headline: the monolithic kernel takes several times longer than
        // the granular one (5m19s vs 36s in the paper).
        assert!(
            mono.total.as_secs_f64() > gran.total.as_secs_f64() * 3.0,
            "monolithic {:?} vs granular {:?}",
            mono.total,
            gran.total
        );
        // >90% of monolithic time goes to allocate_app_mem_region.
        let alloc = report
            .functions
            .iter()
            .find(|f| f.function == "CortexM::allocate_app_mem_region")
            .unwrap();
        assert!(
            alloc.duration.as_secs_f64() > mono.total.as_secs_f64() * 0.5,
            "alloc {:?} of mono total {:?}",
            alloc.duration,
            mono.total
        );
        // Interrupts: fewer functions, but the highest mean per function
        // (1.63s vs 0.05s in the paper).
        assert!(intr.fns < gran.fns);
        assert!(
            intr.mean.as_secs_f64() > gran.mean.as_secs_f64() * 3.0,
            "interrupt mean {:?} vs granular mean {:?}",
            intr.mean,
            gran.mean
        );
    }

    #[test]
    fn report_is_the_same_at_any_worker_count_and_in_reverse_order() {
        use tt_contracts::verifier::{discharge, verify_by, Discharge};
        let registry = registry_with(Effort::QUICK, BugVariant::Buggy);
        let serial = Verifier::with_threads(1)
            .verify(&registry)
            .without_timings();
        assert!(!serial.all_verified(), "the Buggy variant must be refuted");
        for threads in [2, 8] {
            let parallel = Verifier::with_threads(threads).verify(&registry);
            assert_eq!(parallel.without_timings(), serial, "threads = {threads}");
        }
        // One thread, last obligation first: a verdict that depended on
        // what ran earlier on the same thread would differ here.
        let reversed = verify_by(&registry, None, |units| {
            let mut out: Vec<Discharge> = units
                .iter()
                .rev()
                .map(|&i| discharge(&registry.obligations()[i]))
                .collect();
            out.reverse();
            out
        });
        assert_eq!(reversed.without_timings(), serial, "reverse order");
    }

    #[test]
    fn rendered_table_has_all_components() {
        let report = run(Effort::QUICK);
        let table = report.render_fig12();
        for c in [
            MONOLITHIC,
            GRANULAR,
            INTERRUPTS,
            tt_kernel::obligations::COMPONENT,
            tt_kernel::recovery::COMPONENT,
            tt_hw::obligations::COMPONENT,
        ] {
            assert!(table.contains(c), "missing {c}");
        }
    }
}
