//! The Cortex-M MPU decodes each region's RBAR/RASR pair into a
//! comparator when the pair is written, and `check` scans only the
//! comparators. These tests pin that fast path to the register-level
//! specification: a priority scan over `RegionRegs::hit`/`permits`
//! evaluated directly on the stored registers.

use proptest::prelude::*;
use tt_hw::cortexm::mpu::{RegionAttributes, RegionBaseAddress, NUM_REGIONS};
use tt_hw::cortexm::CortexMpu;
use tt_hw::injection::{self, Injection, InjectionKind, InjectionPlan, InjectionPoint};
use tt_hw::mem::{AccessDecision, AccessType, FaultKind, Privilege, ProtectionUnit};

const ACCESSES: [AccessType; 3] = [AccessType::Read, AccessType::Write, AccessType::Execute];
const PRIVS: [Privilege; 2] = [Privilege::Privileged, Privilege::Unprivileged];

/// The register-level specification of one byte check: the highest
/// numbered region whose enabled subregion holds `addr` decides.
fn spec_byte(mpu: &CortexMpu, addr: usize, access: AccessType, priv_: Privilege) -> AccessDecision {
    if !mpu.enable {
        return AccessDecision::Allowed;
    }
    for i in (0..NUM_REGIONS).rev() {
        let r = mpu.region(i);
        if r.hit(addr) == Some(true) {
            return if r.permits(access, priv_) {
                AccessDecision::Allowed
            } else {
                AccessDecision::Fault(FaultKind::PermissionDenied)
            };
        }
    }
    if priv_ == Privilege::Privileged && mpu.privdefena {
        AccessDecision::Allowed
    } else {
        AccessDecision::Fault(FaultKind::NoRegionMatch)
    }
}

/// The specification of a multi-byte check: the first faulting byte.
fn spec_check(
    mpu: &CortexMpu,
    addr: usize,
    size: usize,
    access: AccessType,
    priv_: Privilege,
) -> AccessDecision {
    (0..size.max(1))
        .map(|off| spec_byte(mpu, addr.wrapping_add(off), access, priv_))
        .find(|d| !d.allowed())
        .unwrap_or(AccessDecision::Allowed)
}

/// Asserts the unit agrees with the specification at `addr` for every
/// access type, privilege and size in `sizes`.
fn assert_agrees(mpu: &CortexMpu, addr: usize, sizes: &[usize]) {
    for &size in sizes {
        for access in ACCESSES {
            for priv_ in PRIVS {
                assert_eq!(
                    mpu.check(addr, size, access, priv_),
                    spec_check(mpu, addr, size, access, priv_),
                    "addr {addr:#x} size {size} {access:?} {priv_:?} regions {:x?}",
                    (0..NUM_REGIONS).map(|i| mpu.region(i)).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// Every address where a decision can change: each region's base, top
/// and subregion edges, one byte either side.
fn edge_probes(mpu: &CortexMpu) -> Vec<usize> {
    let mut probes = Vec::new();
    for i in 0..NUM_REGIONS {
        let r = mpu.region(i);
        let size = r.size();
        let base = r.base() & !(size - 1);
        for k in 0..=8 {
            let edge = base.wrapping_add(size / 8 * k);
            probes.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(1)]);
        }
    }
    probes
}

fn rasr(enable: u32, size_field: u32, srd: u32, ap: u32, xn: u32) -> u32 {
    (RegionAttributes::ENABLE.val(enable)
        + RegionAttributes::SIZE.val(size_field)
        + RegionAttributes::SRD.val(srd)
        + RegionAttributes::AP.val(ap)
        + RegionAttributes::XN.val(xn))
    .value()
}

/// Whether an unprivileged one-byte access at `addr` is allowed.
fn user_allowed(mpu: &CortexMpu, addr: usize, access: AccessType) -> bool {
    mpu.check(addr, 1, access, Privilege::Unprivileged)
        .allowed()
}

/// A unit with one enabled region in slot 0.
fn one_region(rbar: u32, rasr: u32) -> CortexMpu {
    let mut mpu = CortexMpu::new();
    mpu.write_ctrl(true, false);
    mpu.write_region(0, rbar, rasr);
    mpu
}

#[test]
fn every_size_and_srd_mask_matches_the_spec() {
    for size_field in 0..32 {
        for srd in 0..256 {
            let mpu = one_region(0x2000_0000, rasr(1, size_field, srd, 0b011, 0));
            for addr in edge_probes(&mpu) {
                assert_agrees(&mpu, addr, &[1]);
            }
        }
    }
}

#[test]
fn every_ap_and_xn_value_matches_the_spec() {
    for ap in 0..8 {
        for xn in 0..2 {
            for privdefena in [false, true] {
                let mut mpu = one_region(0x2000_0400, rasr(1, 9, 0b0100_0010, ap, xn));
                mpu.write_ctrl(true, privdefena);
                for addr in edge_probes(&mpu) {
                    assert_agrees(&mpu, addr, &[1, 4]);
                }
            }
        }
    }
}

#[test]
fn disabled_regions_and_a_disabled_mpu_match_the_spec() {
    let mut mpu = one_region(0x2000_0000, rasr(0, 11, 0, 0b011, 0));
    for addr in edge_probes(&mpu) {
        assert_agrees(&mpu, addr, &[1]);
    }
    mpu.write_region(1, 0x2000_0000, rasr(1, 11, 0, 0b000, 1));
    mpu.write_ctrl(false, false);
    for addr in edge_probes(&mpu) {
        assert_agrees(&mpu, addr, &[1, 8]);
    }
}

#[test]
fn accesses_wrapping_the_address_space_match_the_spec() {
    // A SIZE = 31 region spans the whole 32-bit space.
    let mut mpu = one_region(0, rasr(1, 31, 0b1000_0000, 0b010, 0));
    mpu.write_region(5, 0xFFFF_FF00, rasr(1, 7, 0b0000_0001, 0b011, 0));
    for addr in [
        0xFFFF_FFF0,
        0xFFFF_FFFC,
        0xFFFF_FEFE,
        usize::MAX - 2,
        usize::MAX,
    ] {
        assert_agrees(&mpu, addr, &[1, 2, 4, 8, 16]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Eight random, mostly overlapping regions with arbitrary field
    /// values (reserved AP encodings, sizes under 256 B, stray RASR bits):
    /// the comparators decide exactly like the register-level scan at
    /// every region and subregion edge, for accesses of 1–8 bytes.
    #[test]
    fn comparators_match_the_register_scan(
        enables in prop::array::uniform8(0u32..4),
        size_fields in prop::array::uniform8(0u32..32),
        srds in prop::array::uniform8(0u32..256),
        aps in prop::array::uniform8(0u32..8),
        xns in prop::array::uniform8(0u32..2),
        bases in prop::array::uniform8(0u32..0x800),
        noise in prop::array::uniform8(any::<u32>()),
        ctrl in 0u8..4,
        via_rnr in any::<bool>(),
    ) {
        let field_bits = rasr(1, 0x1F, 0xFF, 0x7, 1);
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(ctrl & 1 != 0, ctrl & 2 != 0);
        for i in 0..NUM_REGIONS {
            // Three in four regions enabled; bases within one 64 KiB
            // window so regions overlap.
            let value = rasr(u32::from(enables[i] != 0), size_fields[i], srds[i], aps[i], xns[i])
                | (noise[i] & !field_bits);
            let rbar = 0x2000_0000 + (bases[i] << 5);
            if via_rnr {
                mpu.write_rnr(i);
                mpu.write_rbar(rbar);
                mpu.write_rasr(value);
            } else {
                mpu.write_region(i, rbar, value);
            }
        }
        for addr in edge_probes(&mpu) {
            for size in [1usize, 2, 4, 8] {
                for access in ACCESSES {
                    for priv_ in PRIVS {
                        prop_assert_eq!(
                            mpu.check(addr, size, access, priv_),
                            spec_check(&mpu, addr, size, access, priv_),
                            "addr {:#x} size {} {:?} {:?}", addr, size, access, priv_
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn rbar_only_and_rasr_only_rewrites_relatch() {
    let mut mpu = one_region(0x2000_0000, rasr(1, 9, 0, 0b011, 1));
    assert!(user_allowed(&mpu, 0x2000_0000, AccessType::Write));
    // Move the region with an RBAR write alone (RNR path, VALID clear).
    mpu.write_rnr(0);
    mpu.write_rbar(0x2000_4000);
    assert!(!user_allowed(&mpu, 0x2000_0000, AccessType::Write));
    assert!(user_allowed(&mpu, 0x2000_4000, AccessType::Write));
    // Make it read-only and carve a subregion with an RASR write alone.
    mpu.write_rasr(rasr(1, 9, 0b0000_0010, 0b110, 1));
    assert!(!user_allowed(&mpu, 0x2000_4000, AccessType::Write));
    assert!(user_allowed(&mpu, 0x2000_4000, AccessType::Read));
    assert_eq!(
        mpu.check(0x2000_4080, 1, AccessType::Read, Privilege::Unprivileged),
        AccessDecision::Fault(FaultKind::NoRegionMatch)
    );
    for addr in edge_probes(&mpu) {
        assert_agrees(&mpu, addr, &[1]);
    }
}

#[test]
fn elided_region_writes_leave_the_comparators_untouched() {
    tt_hw::commit_cache::set_enabled(true);
    let mut mpu = one_region(0x2000_0000, rasr(1, 10, 0b1000_0000, 0b011, 1));
    let before = mpu.clone();
    tt_hw::commit_cache::reset_elided();
    mpu.write_region(0, 0x2000_0000, rasr(1, 10, 0b1000_0000, 0b011, 1));
    assert_eq!(
        tt_hw::commit_cache::elided(),
        2,
        "the rewrite must be elided"
    );
    // Equality covers the decoded comparators as well as the registers.
    assert_eq!(mpu, before);
    for addr in edge_probes(&mpu) {
        assert_agrees(&mpu, addr, &[1]);
    }
}

/// Writes region 0 with `point` armed to flip `bit` on its first
/// occurrence in process 1's context.
fn flipped_region(point: InjectionPoint, bit: u8, rbar: u32, value: u32) -> CortexMpu {
    let mut mpu = CortexMpu::new();
    mpu.write_ctrl(true, false);
    tt_hw::trace::set_current_pid(1);
    injection::arm(InjectionPlan {
        seed: 0,
        target_pid: 1,
        injections: vec![Injection {
            point,
            at: 0,
            kind: InjectionKind::BitFlip { bit },
        }],
    });
    mpu.write_region(0, rbar, value);
    assert_eq!(injection::disarm(), 1, "the flip must fire");
    tt_hw::trace::set_current_pid(tt_hw::trace::NO_PID);
    mpu
}

#[test]
fn injected_rbar_flip_is_enforced_as_stored() {
    // Bit 13 of the base: the 1 KiB region lands 8 KiB higher.
    let mpu = flipped_region(
        InjectionPoint::ArmRbar,
        13,
        0x2000_0000,
        rasr(1, 9, 0, 0b011, 1),
    );
    assert_eq!(mpu.region(0).base(), 0x2000_2000);
    assert!(!user_allowed(&mpu, 0x2000_0000, AccessType::Read));
    assert!(user_allowed(&mpu, 0x2000_2000, AccessType::Read));
    for addr in edge_probes(&mpu) {
        assert_agrees(&mpu, addr, &[1]);
    }
    // A flip of REGION bit 1 stores the whole pair in region 2 instead.
    let mpu = flipped_region(
        InjectionPoint::ArmRbar,
        1,
        0x2000_0000,
        rasr(1, 9, 0, 0b011, 1),
    );
    assert_eq!(RegionBaseAddress::REGION.read(mpu.region(2).rbar), 2);
    assert!(mpu.region(2).enabled());
    assert!(user_allowed(&mpu, 0x2000_0000, AccessType::Read));
    for addr in edge_probes(&mpu) {
        assert_agrees(&mpu, addr, &[1]);
    }
}

#[test]
fn injected_rasr_flip_is_enforced_as_stored() {
    // Bit 15 is SRD bit 7: the region's top subregion stops matching.
    let mpu = flipped_region(
        InjectionPoint::ArmRasr,
        15,
        0x2000_0000,
        rasr(1, 10, 0, 0b011, 1),
    );
    assert_eq!(mpu.region(0).srd(), 0b1000_0000);
    assert!(user_allowed(&mpu, 0x2000_0000, AccessType::Write));
    assert!(!user_allowed(&mpu, 0x2000_07FF, AccessType::Write));
    // Bit 26 is AP bit 2: RW-for-all becomes read-only-for-all.
    let mpu = flipped_region(
        InjectionPoint::ArmRasr,
        26,
        0x2000_0000,
        rasr(1, 10, 0, 0b011, 1),
    );
    assert!(user_allowed(&mpu, 0x2000_0000, AccessType::Read));
    assert!(!user_allowed(&mpu, 0x2000_0000, AccessType::Write));
    for addr in edge_probes(&mpu) {
        assert_agrees(&mpu, addr, &[1, 4]);
    }
}
