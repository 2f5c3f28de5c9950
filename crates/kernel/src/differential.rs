//! Differential testing of Tock vs TickTock (§6.1).
//!
//! Boots one kernel per flavour per release test (fresh chip, fresh cycle
//! counter — the differential rig the paper runs on NRF52840dk + QEMU),
//! runs the app to completion, and diffs the console outputs. The §6.1
//! expectation: 21 tests, 5 differing, and every difference confined to
//! the layout/sensor category.

use crate::apps::{release_tests, ReleaseTest};
use crate::kernel::{App, Kernel};
use crate::loader::flash_app;
use crate::process::{Flavor, ProcessState};
use crate::trace::{self, diff_traces, render_divergence, Trace, TraceDivergence, TraceScope};
use tt_contracts::pool;
use tt_hw::platform::{ChipProfile, NRF52840DK};
use tt_legacy::BugVariant;

/// Ring capacity used for per-run traces: a 200-tick release-test run
/// records a few thousand events, so this never wraps in practice.
pub const TRACE_CAPACITY: usize = 65_536;

/// Flash address where the differential rig places each app image.
pub fn app_flash_base(chip: &ChipProfile) -> usize {
    chip.map.flash.start + 0x4_0000
}

/// Outcome of one app run on one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Console output.
    pub console: String,
    /// Terminal process state.
    pub state: ProcessState,
    /// Whether the kernel logged a fault for the process.
    pub faulted: bool,
    /// Full event trace of the run (empty if tracing was disabled by the
    /// caller; [`run_one_on`] always records one).
    pub trace: Trace,
}

/// Runs one release test on one kernel flavour on the NRF52840dk.
pub fn run_one(test: &ReleaseTest, flavor: Flavor) -> RunOutcome {
    run_one_on(test, flavor, &NRF52840DK)
}

/// Runs one release test on one kernel flavour on any chip (the paper's
/// QEMU RISC-V runs use the same rig on the PMP chips).
pub fn run_one_on(test: &ReleaseTest, flavor: Flavor, chip: &ChipProfile) -> RunOutcome {
    // Fresh counters per run: readings and layouts must depend only on
    // this kernel's own behaviour.
    tt_hw::cycles::reset();
    // Fresh trace per run. Tracing stays out of the cycle model, so the
    // Fig. 11/12 numbers are identical with or without it.
    trace::enable(TRACE_CAPACITY);
    let mut kernel = Kernel::boot(flavor, chip);
    let image = flash_app(
        &mut kernel.mem,
        app_flash_base(chip),
        test.spec.name,
        test.spec.flash_size,
        test.spec.min_ram,
        test.spec.kernel_reserved,
    )
    .expect("flash image");
    let pid = kernel.load_process(&image).expect("load process");
    // The console_recv test needs input queued before the app runs.
    kernel.capsules.queue_console_input(pid, b"hi!\r\n");
    let mut apps: Vec<Box<dyn App>> = vec![(test.make)()];
    kernel.run(&mut apps, 200);
    let trace = trace::take();
    trace::disable();
    let process = &kernel.processes[pid];
    RunOutcome {
        console: process.console.clone(),
        state: process.state.clone(),
        faulted: kernel.fault_log.iter().any(|(p, _)| *p == pid),
        trace,
    }
}

/// Result of diffing one test across the two kernels.
#[derive(Debug, Clone)]
pub struct DiffResult {
    /// Test name.
    pub name: &'static str,
    /// Whether §6.1 expects a difference.
    pub expect_differs: bool,
    /// Output on the legacy (Tock) kernel.
    pub tock: RunOutcome,
    /// Output on the granular (TickTock) kernel.
    pub ticktock: RunOutcome,
    /// First divergence between the two runs' traces under
    /// [`TraceScope::Observable`], if any.
    pub trace_divergence: Option<TraceDivergence>,
}

impl DiffResult {
    /// Builds a result from the two runs, computing the trace divergence.
    pub fn from_runs(
        name: &'static str,
        expect_differs: bool,
        tock: RunOutcome,
        ticktock: RunOutcome,
    ) -> Self {
        let trace_divergence = diff_traces(&tock.trace, &ticktock.trace, TraceScope::Observable);
        Self {
            name,
            expect_differs,
            tock,
            ticktock,
            trace_divergence,
        }
    }

    /// Whether the two kernels behaved the same: matching console output
    /// *and* observably-equivalent traces. The trace check is the
    /// stronger oracle — two runs can print the same text while diverging
    /// mid-run (a missed fault, a mis-ordered upcall), and this catches
    /// it.
    pub fn matches(&self) -> bool {
        self.tock.console == self.ticktock.console && self.trace_divergence.is_none()
    }
}

/// Runs the whole release suite on both kernels (NRF52840dk).
pub fn run_release_suite() -> Vec<DiffResult> {
    run_release_suite_on(&NRF52840DK)
}

/// Worker count for the parallel suite runners: `TT_BENCH_THREADS` if set
/// to a positive integer, otherwise the machine's available parallelism.
pub fn suite_threads() -> usize {
    pool::default_threads()
}

fn diff_one(test: &ReleaseTest, chip: &ChipProfile) -> DiffResult {
    DiffResult::from_runs(
        test.spec.name,
        test.spec.expect_differs,
        run_one_on(test, Flavor::Legacy(BugVariant::Fixed), chip),
        run_one_on(test, Flavor::Granular, chip),
    )
}

/// Runs the whole release suite on both kernels on any chip, spreading
/// the per-test loop over [`suite_threads`] scoped threads.
pub fn run_release_suite_on(chip: &ChipProfile) -> Vec<DiffResult> {
    run_release_suite_on_with_threads(chip, suite_threads())
}

/// Runs the release suite on a work-stealing pool of `threads` workers
/// (1 = the serial path); see [`pool::run_indexed`]. Every
/// cycle/trace/cache sink is thread-local by design, so each worker's
/// runs are bit-identical to a serial run of the same tests, and results
/// are reassembled in test order — the parallel runner's report is
/// byte-identical to the serial one.
pub fn run_release_suite_on_with_threads(chip: &ChipProfile, threads: usize) -> Vec<DiffResult> {
    let tests = release_tests();
    pool::run_indexed(&tests, threads, |_, test| diff_one(test, chip))
}

/// Runs the release suite on every supported chip profile over the
/// work-stealing pool sized by [`suite_threads`]. Returns
/// `(chip, results)` in [`tt_hw::platform::ALL_CHIPS`] order.
pub fn run_release_suite_all_chips() -> Vec<(&'static ChipProfile, Vec<DiffResult>)> {
    run_release_suite_all_chips_with_threads(suite_threads())
}

/// [`run_release_suite_all_chips`] with an explicit worker count. The
/// unit of work is a single `(chip, test)` diff — not a whole chip — so
/// the tail of the suite keeps every core busy; results are chunked back
/// into per-chip vectors in test order, byte-identical to serial.
pub fn run_release_suite_all_chips_with_threads(
    threads: usize,
) -> Vec<(&'static ChipProfile, Vec<DiffResult>)> {
    let chips = &tt_hw::platform::ALL_CHIPS;
    let tests = release_tests();
    let units: Vec<(usize, usize)> = (0..chips.len())
        .flat_map(|c| (0..tests.len()).map(move |t| (c, t)))
        .collect();
    let tests = &tests;
    let mut results =
        pool::run_indexed(&units, threads, |_, &(c, t)| diff_one(&tests[t], &chips[c]));
    let mut out = Vec::with_capacity(chips.len());
    for chip in chips.iter().rev() {
        let rest = results.split_off(results.len() - tests.len());
        out.push((chip, rest));
    }
    out.reverse();
    out
}

/// Renders the §6.1 summary table.
pub fn render_report(results: &[DiffResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>8} {:>10} {:>10}\n",
        "Test", "Match", "Expected", "Verdict"
    ));
    let mut differing = 0;
    let mut unexpected = 0;
    for r in results {
        let matches = r.matches();
        if !matches {
            differing += 1;
        }
        let verdict = if matches != r.expect_differs {
            "ok"
        } else {
            unexpected += 1;
            "UNEXPECTED"
        };
        out.push_str(&format!(
            "{:<22} {:>8} {:>10} {:>10}\n",
            r.name,
            if matches { "yes" } else { "DIFFERS" },
            if r.expect_differs { "differs" } else { "same" },
            verdict
        ));
    }
    out.push_str(&format!(
        "\n{} tests, {} differing ({} unexpected)\n",
        results.len(),
        differing,
        unexpected
    ));
    let divergent: Vec<&DiffResult> = results
        .iter()
        .filter(|r| r.trace_divergence.is_some())
        .collect();
    if !divergent.is_empty() {
        out.push_str("\nFirst trace divergences (observable scope):\n");
        for r in divergent {
            let d = r.trace_divergence.as_ref().unwrap();
            out.push_str(&format!("* {}: ", r.name));
            out.push_str(&render_divergence(d, "tock", "ticktock"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_reproduces_the_21_and_5_of_section_6_1() {
        let results = run_release_suite();
        assert_eq!(results.len(), 21);
        let differing: Vec<&str> = results
            .iter()
            .filter(|r| !r.matches())
            .map(|r| r.name)
            .collect();
        assert_eq!(differing.len(), 5, "differing tests: {differing:?}");
        for r in &results {
            assert_eq!(
                !r.matches(),
                r.expect_differs,
                "{}: tock={:?} ticktock={:?}",
                r.name,
                r.tock.console,
                r.ticktock.console
            );
        }
    }

    #[test]
    fn parallel_suite_report_is_byte_identical_to_serial() {
        let serial = run_release_suite_on_with_threads(&NRF52840DK, 1);
        let parallel = run_release_suite_on_with_threads(&NRF52840DK, 4);
        assert_eq!(parallel.len(), serial.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.matches(), p.matches(), "{}", s.name);
            assert_eq!(s.tock.console, p.tock.console, "{}", s.name);
            assert_eq!(s.ticktock.console, p.ticktock.console, "{}", s.name);
        }
        assert_eq!(
            render_report(&serial),
            render_report(&parallel),
            "parallel report must be byte-identical to serial"
        );
    }

    #[test]
    fn suite_threads_reads_the_env_var() {
        // Serialised against other env readers by running in this one test.
        std::env::set_var("TT_BENCH_THREADS", "3");
        assert_eq!(suite_threads(), 3);
        std::env::set_var("TT_BENCH_THREADS", "0");
        assert!(
            suite_threads() >= 1,
            "0 falls back to available parallelism"
        );
        std::env::set_var("TT_BENCH_THREADS", "nope");
        assert!(suite_threads() >= 1);
        std::env::remove_var("TT_BENCH_THREADS");
        assert!(suite_threads() >= 1);
    }

    #[test]
    fn all_chips_runner_covers_every_profile_with_the_same_shape() {
        let per_chip = run_release_suite_all_chips();
        assert_eq!(per_chip.len(), tt_hw::platform::ALL_CHIPS.len());
        for (chip, results) in &per_chip {
            assert_eq!(results.len(), 21, "{}", chip.name);
            let differing = results.iter().filter(|r| !r.matches()).count();
            assert_eq!(differing, 5, "{}", chip.name);
        }
    }

    #[test]
    fn crash_tests_fault_on_both_kernels() {
        let results = run_release_suite();
        for name in ["crash_dummy", "stack_growth", "mpu_stack_growth"] {
            let r = results.iter().find(|r| r.name == name).unwrap();
            assert!(r.tock.faulted, "{name} should fault on tock");
            assert!(r.ticktock.faulted, "{name} should fault on ticktock");
            // The paper: "the application still correctly faulted when it
            // tried to read/write to a location in memory it should not be
            // able to access."
            assert!(matches!(r.tock.state, ProcessState::Faulted(_)));
            assert!(matches!(r.ticktock.state, ProcessState::Faulted(_)));
        }
    }

    #[test]
    fn non_crash_tests_exit_cleanly_on_both_kernels() {
        let results = run_release_suite();
        for r in &results {
            if ["crash_dummy", "stack_growth", "mpu_stack_growth"].contains(&r.name) {
                continue;
            }
            assert_eq!(r.tock.state, ProcessState::Exited, "{} on tock", r.name);
            assert_eq!(
                r.ticktock.state,
                ProcessState::Exited,
                "{} on ticktock",
                r.name
            );
            assert!(!r.tock.faulted, "{} faulted on tock", r.name);
            assert!(!r.ticktock.faulted, "{} faulted on ticktock", r.name);
        }
    }

    #[test]
    fn riscv_chips_reproduce_the_same_differential_shape() {
        // The paper ran the RISC-V differential tests under QEMU; the same
        // 21/5 shape must hold on the PMP chips.
        for chip in [tt_hw::platform::ESP32_C3, tt_hw::platform::EARLGREY] {
            let results = run_release_suite_on(&chip);
            assert_eq!(results.len(), 21, "{}", chip.name);
            for r in &results {
                assert_eq!(
                    !r.matches(),
                    r.expect_differs,
                    "{} on {}: tock={:?} ticktock={:?}",
                    r.name,
                    chip.name,
                    r.tock.console,
                    r.ticktock.console
                );
            }
        }
    }

    #[test]
    fn report_renders_summary() {
        let results = run_release_suite();
        let report = render_report(&results);
        assert!(report.contains("21 tests, 5 differing (0 unexpected)"));
    }
}
