//! The pool's determinism contract, end to end: every artifact the
//! parallel runners produce — the campaign's rendered report and raw
//! per-chip tallies, `BENCH_e61.json` — must be byte-identical to the
//! serial runner's, at any worker count and across repeated invocations
//! of the same seeds.
//!
//! This is the property that makes the work-stealing pool safe to gate
//! CI on: scheduling order may vary freely, observable output may not.
//! Wall-clock fields are pinned to 0 via the `reports` renderers so the
//! comparison covers simulation results only.

use proptest::prelude::*;
use tt_bench::reports;
use tt_hw::platform::{ChipProfile, ALL_CHIPS, HIFIVE1, NRF52840DK};
use tt_kernel::campaign::{render_report as render_campaign, run_campaign_profiled};
use tt_kernel::differential::{
    render_report as render_diff, run_release_suite_all_chips_with_threads,
    run_release_suite_on_with_threads,
};

/// A campaign's artifacts: the rendered report, then the raw per-chip
/// tallies (exact recovery-cycle sums included, which the report only
/// prints as rounded means).
fn campaign_artifact(chips: &[ChipProfile], seeds: u64, threads: usize) -> String {
    let reports = run_campaign_profiled(chips, seeds, threads, &[]).reports;
    format!("{}{reports:#?}", render_campaign(&reports, seeds))
}

#[test]
fn campaign_artifacts_are_byte_identical_serial_vs_parallel() {
    let chips = [NRF52840DK, HIFIVE1];
    let serial = campaign_artifact(&chips, 3, 1);
    for threads in [2, 8] {
        assert_eq!(
            serial,
            campaign_artifact(&chips, 3, threads),
            "threads = {threads}"
        );
    }
}

#[test]
fn e61_artifacts_are_byte_identical_serial_vs_parallel() {
    let serial_chip = render_diff(&run_release_suite_on_with_threads(&NRF52840DK, 1));
    assert_eq!(
        serial_chip,
        render_diff(&run_release_suite_on_with_threads(&NRF52840DK, 8))
    );
    let serial_all = reports::e61_json(&run_release_suite_all_chips_with_threads(1), 0.0);
    assert_eq!(
        serial_all,
        reports::e61_json(&run_release_suite_all_chips_with_threads(8), 0.0)
    );
}

#[test]
fn same_seed_invocations_are_byte_identical() {
    // Two full runs of the same workload at a parallel worker count:
    // scheduling differs between invocations, artifacts may not.
    let a = run_campaign_profiled(&ALL_CHIPS, 2, 4, &[]);
    let b = run_campaign_profiled(&ALL_CHIPS, 2, 4, &[]);
    assert_eq!(
        format!("{}{:#?}", render_campaign(&a.reports, 2), a.reports),
        format!("{}{:#?}", render_campaign(&b.reports, 2), b.reports)
    );
    // 7 chips × 2 seeds × 2 cache modes.
    assert_eq!(a.outcomes.len(), 28);
    assert_eq!(b.outcomes.len(), 28);
    let diff_a = run_release_suite_all_chips_with_threads(4);
    let diff_b = run_release_suite_all_chips_with_threads(4);
    assert_eq!(
        reports::e61_json(&diff_a, 0.0),
        reports::e61_json(&diff_b, 0.0)
    );
    // 7 chips × 21 tests, each booting both kernels.
    let tests: usize = diff_a.iter().map(|(_, results)| results.len()).sum();
    assert_eq!(tests, 7 * 21);
}

proptest! {
    // Shrunk case count: each case boots dozens of simulated kernels.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn campaign_report_is_thread_count_invariant(
        seeds in 1u64..4,
        threads in 2usize..10,
    ) {
        let chips = [NRF52840DK];
        prop_assert_eq!(
            campaign_artifact(&chips, seeds, 1),
            campaign_artifact(&chips, seeds, threads)
        );
    }
}
