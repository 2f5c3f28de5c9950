//! Verification obligations for the monolithic kernel — the
//! "TickTock (Monolithic)" row of Figure 12.
//!
//! The paper reports that verifying the original monolithic abstraction
//! took over five minutes, with more than 90% of the time spent checking
//! `allocate_app_mem_region` (§6.3). The cause is structural: the
//! entangled spec quantifies over the whole allocation parameter space at
//! once. This module reproduces that shape — the allocation spec walks a
//! dense parameter grid end to end through the hardware model, while
//! every other function carries only cheap builtin obligations. The walk
//! is registered as one obligation per `unalloc_start` row of the grid,
//! all under the one function name, so the verifier can discharge the
//! rows on separate workers while Figs. 10 and 12 still count one
//! function whose time is the sum of its rows.

use crate::cortexm::{CortexMConfig, LegacyCortexM};
use crate::mpu_trait::{BugVariant, LegacyMpu};
use crate::process::{check_disagreement, recompute_breaks};
use tt_contracts::domain::{alloc_param_grid, alloc_param_row, alloc_param_rows, brk_param_grid};
use tt_contracts::obligation::{CheckResult, Registry};
use tt_contracts::ContractKind;
use tt_hw::mem::{AccessType, Privilege, ProtectionUnit};
use tt_hw::{Permissions, PtrU8};

/// Component name for the Figure 12 grouping.
pub const COMPONENT: &str = "TickTock (Monolithic)";

const RAM_BASE: usize = 0x2000_0000;
const RAM_SIZE: usize = 0x4_0000;

/// Checks the §3.4 postcondition of `allocate_app_mem_region` for one
/// parameter point, end to end: run the allocator, configure the modelled
/// MPU, and probe that no grant byte is user-accessible.
fn check_alloc_point(
    mpu: &LegacyCortexM,
    p: &tt_contracts::domain::AllocParams,
) -> Result<u64, String> {
    let layout = mpu.compute_alloc_layout(p.unalloc_start, p.min_size, p.app_size, p.kernel_size);
    let mut config = CortexMConfig::default();
    let Some((start, size)) = mpu.allocate_app_mem_region(
        PtrU8::new(p.unalloc_start),
        p.unalloc_size,
        p.min_size,
        p.app_size,
        p.kernel_size,
        Permissions::ReadWriteOnly,
        &mut config,
    ) else {
        return Ok(1); // Refusing the allocation is always safe.
    };

    // Specification-level postcondition (the explicated contract).
    if !layout.isolation_holds() {
        return Err(format!(
            "postcondition: subregs_enabled_end {:#x} > kernel_mem_break {:#x} for {p:?}",
            layout.subregs_enabled_end, layout.kernel_mem_break
        ));
    }

    // Hardware-level check: probe the grant region and beyond.
    mpu.configure_mpu(&config);
    let hw = mpu.hardware();
    let hw = hw.borrow();
    let mut cases = 1u64;
    let grant_lo = layout.kernel_mem_break;
    let grant_hi = start.as_usize() + size;
    let mut probe = grant_lo;
    while probe < grant_hi {
        if hw
            .check(probe, 1, AccessType::Write, Privilege::Unprivileged)
            .allowed()
        {
            return Err(format!("grant byte {probe:#x} user-writable for {p:?}"));
        }
        probe += 32;
        cases += 1;
    }
    // Bytes below the block must be inaccessible too.
    for below in [
        start.as_usize().saturating_sub(4),
        RAM_BASE.saturating_sub(0),
    ] {
        if below < start.as_usize()
            && hw
                .check(below, 1, AccessType::Read, Privilege::Unprivileged)
                .allowed()
        {
            return Err(format!(
                "byte below block {below:#x} user-readable for {p:?}"
            ));
        }
        cases += 1;
    }
    Ok(cases)
}

/// Registers the monolithic-kernel obligations for the given variant.
///
/// With [`BugVariant::Fixed`] everything verifies (slowly — the point of
/// the Fig. 12 comparison); with [`BugVariant::Buggy`] the allocation and
/// brk obligations are refuted, reproducing the paper's bug discoveries.
pub fn register_obligations(registry: &mut Registry, variant: BugVariant, density: usize) {
    let d = density.max(1);

    // The monster spec: the entangled allocate_app_mem_region
    // postcondition, one obligation per row of the parameter grid.
    for row in 0..alloc_param_rows(d) {
        registry.add_fn(
            COMPONENT,
            "CortexM::allocate_app_mem_region",
            ContractKind::Post,
            move || {
                let mpu = LegacyCortexM::with_fresh_hardware(variant);
                let mut cases = 0u64;
                for p in alloc_param_row(RAM_BASE, RAM_SIZE, d, row) {
                    match check_alloc_point(&mpu, &p) {
                        Ok(c) => cases += c,
                        Err(counterexample) => return CheckResult::Refuted { counterexample },
                    }
                }
                CheckResult::Verified { cases }
            },
        );
    }

    // update_app_mem_region: precondition (no underflow) and postcondition
    // (never exposes grant memory) over the brk domain.
    registry.add_fn(
        COMPONENT,
        "CortexM::update_app_mem_region",
        ContractKind::Post,
        move || {
            let mpu = LegacyCortexM::with_fresh_hardware(variant);
            let mut config = CortexMConfig::default();
            let (start, size) = mpu
                .allocate_app_mem_region(
                    PtrU8::new(RAM_BASE),
                    RAM_SIZE,
                    4096,
                    2048,
                    1024,
                    Permissions::ReadWriteOnly,
                    &mut config,
                )
                .expect("baseline allocation");
            let kernel_break = PtrU8::new(start.as_usize() + size - 1024);
            let mut cases = 0u64;
            for brk in brk_param_grid(start.as_usize(), size, d) {
                let saved = config.clone();
                let result = mpu.update_app_mem_region(
                    PtrU8::new(brk),
                    kernel_break,
                    Permissions::ReadWriteOnly,
                    &mut config,
                );
                // Flux's implicit obligation: the arithmetic inside must not
                // underflow regardless of the (attacker-controlled) input.
                let violations = tt_contracts::take_violations();
                if let Some(v) = violations.first() {
                    return CheckResult::Refuted {
                        counterexample: format!("brk = {brk:#x}: {v}"),
                    };
                }
                if result.is_ok() {
                    mpu.configure_mpu(&config);
                    let hw = mpu.hardware();
                    let hw = hw.borrow();
                    if hw
                        .check(
                            kernel_break.as_usize(),
                            1,
                            AccessType::Write,
                            Privilege::Unprivileged,
                        )
                        .allowed()
                    {
                        return CheckResult::Refuted {
                            counterexample: format!("brk = {brk:#x} exposed grant start"),
                        };
                    }
                } else {
                    config = saved;
                }
                cases += 1;
            }
            CheckResult::Verified { cases }
        },
    );

    // Disagreement audit: in the fixed monolithic kernel the loader's
    // recomputation must at least stay within hardware-accessible bounds
    // (app_break <= hardware end); the granular kernel removes the
    // recomputation entirely.
    registry.add_fn(
        COMPONENT,
        "process_loader::recompute_breaks",
        ContractKind::Invariant,
        move || {
            let mpu = LegacyCortexM::with_fresh_hardware(variant);
            let mut cases = 0u64;
            for p in alloc_param_grid(RAM_BASE, RAM_SIZE, 1) {
                let layout = mpu.compute_alloc_layout(
                    p.unalloc_start,
                    p.min_size,
                    p.app_size,
                    p.kernel_size,
                );
                let rec = recompute_breaks(
                    layout.region_start,
                    layout.mem_size_po2,
                    p.app_size,
                    p.kernel_size,
                );
                if let Some(d) = check_disagreement(&layout, &rec) {
                    // Divergence is tolerable only while it stays below the
                    // kernel break; otherwise the loader has lost track of
                    // what the MPU exposes.
                    if d.hw_accessible_end > layout.kernel_mem_break {
                        return CheckResult::Refuted {
                            counterexample: format!(
                                "loader believes app ends at {:#x} but MPU admits up to {:#x}, \
                                 past the grant start {:#x}",
                                d.loader_app_break, d.hw_accessible_end, layout.kernel_mem_break
                            ),
                        };
                    }
                }
                cases += 1;
            }
            CheckResult::Verified { cases }
        },
    );

    // The rest of the monolithic kernel's functions: builtin safety only.
    registry.add_builtin_safety(
        COMPONENT,
        &[
            "CortexM::allocate_flash_region",
            "CortexM::configure_mpu",
            "CortexM::srd_masks_loop",
            "CortexM::write_ram_regions",
            "CortexMConfig::ram_region_geometry",
            "CortexMConfig::default",
            "LegacyRegion::default",
            "Riscv::allocate_app_mem_region",
            "Riscv::update_app_mem_region",
            "Riscv::allocate_flash_region",
            "Riscv::configure_mpu",
            "Riscv::stage_tor",
            "PmpConfig::default",
            "encode_permissions(arm)",
            "encode_permissions(pmp)",
            "recompute_breaks",
            "check_disagreement",
            "AllocLayout::isolation_holds",
            "legacy_process::create",
            "legacy_process::restart_process",
            "Grant::ensure",
            "Grant::enter",
            "legacy_process::brk",
            "legacy_process::sbrk",
            "legacy_process::build_readonly_buffer",
            "legacy_process::build_readwrite_buffer",
            "legacy_process::setup_mpu",
            "legacy_process::allocate_grant",
            // The checked-arithmetic contract sites of the monolithic
            // allocator (`legacy::alloc` / `legacy::update` in cortexm.rs,
            // `legacy-pmp::alloc` in riscv.rs), registered under their
            // site names so the `tt-audit` cross-check sees them
            // discharged.
            "legacy::alloc",
            "legacy::update",
            "legacy-pmp::alloc",
        ],
    );

    // Trusted functions (Fig. 10 reports 14 kernel + driver functions
    // trusted in this era's code; representative entries).
    for f in ["fault_fmt", "panic_print", "debug_writer"] {
        registry.add_trusted(COMPONENT, f, ContractKind::Post);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_contracts::verifier::Verifier;

    #[test]
    fn fixed_monolithic_verifies() {
        let mut r = Registry::new();
        register_obligations(&mut r, BugVariant::Fixed, 1);
        let report = Verifier::new().verify(&r);
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
    fn buggy_monolithic_is_refuted_on_alloc_and_update() {
        let mut r = Registry::new();
        register_obligations(&mut r, BugVariant::Buggy, 1);
        let report = Verifier::new().verify(&r);
        let refuted: Vec<&str> = report
            .refuted()
            .iter()
            .map(|f| f.function.as_str())
            .collect();
        assert!(
            refuted.contains(&"CortexM::allocate_app_mem_region"),
            "got {refuted:?}"
        );
        assert!(
            refuted.contains(&"CortexM::update_app_mem_region"),
            "got {refuted:?}"
        );
    }

    #[test]
    fn buggy_alloc_counterexample_is_the_first_refuting_grid_point() {
        // The first refuting point of the whole grid lies in row 0, so the
        // per-row split reports it first, as the one-obligation spec did.
        let mut r = Registry::new();
        register_obligations(&mut r, BugVariant::Buggy, 2);
        assert_eq!(
            r.obligations()
                .iter()
                .filter(|o| o.function == "CortexM::allocate_app_mem_region")
                .count(),
            alloc_param_rows(2)
        );
        let report = Verifier::new().verify(&r);
        let alloc = report
            .functions
            .iter()
            .find(|f| f.function == "CortexM::allocate_app_mem_region")
            .unwrap();
        assert_eq!(
            alloc.refutations[0],
            "postcondition: subregs_enabled_end 0x20000280 > kernel_mem_break 0x20000228 for \
             AllocParams { unalloc_start: 536870912, unalloc_size: 262144, min_size: 728, \
             app_size: 512, kernel_size: 472 }"
        );
    }

    #[test]
    fn alloc_obligation_dominates_verification_time() {
        // The paper: "Over 90% of the time verifying the original Tock code
        // was spent checking allocate_app_mem_region". Reproduce the shape:
        // the alloc obligation is the slowest function in the component.
        let mut r = Registry::new();
        register_obligations(&mut r, BugVariant::Fixed, 1);
        let report = Verifier::new().verify(&r);
        let stats = report.component_stats(COMPONENT);
        let alloc = report
            .functions
            .iter()
            .find(|f| f.function == "CortexM::allocate_app_mem_region")
            .unwrap();
        assert_eq!(alloc.duration, stats.max);
        assert!(stats.total >= alloc.duration);
    }
}
