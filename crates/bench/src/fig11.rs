//! Figure 11: average CPU cycles for process tasks, Tock vs TickTock.
//!
//! Methodology mirrors §6.2: the six key process-abstraction methods are
//! instrumented with a cycle counter; both kernels run the 21 release
//! tests plus memory-stress workloads; the table reports per-method means
//! over three runs and the percentage difference.

use std::collections::BTreeMap;
use tt_contracts::pool;
use tt_hw::cycles::{self, CycleStats};
use tt_kernel::apps::release_tests;
use tt_kernel::differential::run_one;
use tt_kernel::loader::flash_app;
use tt_kernel::process::Flavor;
use tt_kernel::Kernel;
use tt_legacy::BugVariant;

/// The six methods of Fig. 11, in the paper's row order.
pub const METHODS: [&str; 6] = [
    "allocate_grant",
    "brk",
    "build_readonly_buffer",
    "build_readwrite_buffer",
    "create",
    "setup_mpu",
];

/// A memory-stress workload: repeated brk/sbrk traffic, grant churn and
/// buffer validation ("new benchmarks designed to stress the memory
/// allocating code", §6.2).
pub fn stress_workload(flavor: Flavor) {
    let mut kernel = Kernel::boot(flavor, &tt_hw::platform::NRF52840DK);
    let image = flash_app(&mut kernel.mem, 0x0004_0000, "stress", 0x1000, 4096, 2048).unwrap();
    let pid = kernel.load_process(&image).unwrap();
    kernel.processes[pid].setup_mpu();
    let ms = kernel.processes[pid].memory_start();
    for round in 0..24usize {
        let delta = if round % 2 == 0 { 256 } else { -192 };
        let _ = kernel.sys_sbrk(pid, delta);
        let _ = kernel.sys_allow_rw(pid, ms + 64 + (round % 4) * 32, 64);
        let _ = kernel.sys_allow_ro(pid, ms + 64, 32);
        if round % 6 == 0 {
            let _ = kernel.processes[pid].allocate_grant(100 + round, 64);
        }
    }
}

/// Runs the 21 release tests plus the stress workload under cycle
/// recording and returns per-method statistics, fanned over the
/// work-stealing pool sized by [`pool::default_threads`].
pub fn collect(flavor: Flavor, runs: usize) -> BTreeMap<&'static str, CycleStats> {
    collect_with_threads(flavor, runs, pool::default_threads())
}

/// [`collect`] with an explicit worker count (1 = serial). The unit of
/// work is one release test (or the stress workload) of one run; each
/// unit records its own method spans and the per-unit record lists merge
/// in unit order, so the resulting statistics — and the Fig. 11 cycle
/// numbers derived from them — are identical at any thread count.
pub fn collect_with_threads(
    flavor: Flavor,
    runs: usize,
    threads: usize,
) -> BTreeMap<&'static str, CycleStats> {
    let tests = release_tests();
    // `Some(test)` units in test order, then the stress workload, per run
    // — the serial execution order.
    let mut units: Vec<Option<usize>> = Vec::with_capacity(runs * (tests.len() + 1));
    for _ in 0..runs {
        units.extend((0..tests.len()).map(Some));
        units.push(None);
    }
    // The commit-cache flag is thread-local: propagate the caller's mode
    // (e.g. a `with_disabled` scope around this call) into the workers.
    let cache_on = tt_hw::commit_cache::enabled();
    let tests = &tests;
    let per_unit = pool::run_indexed(&units, threads, |_, &unit| {
        let prev_cache = tt_hw::commit_cache::set_enabled(cache_on);
        cycles::reset();
        let prev = cycles::set_recording(true);
        match unit {
            Some(t) => {
                let _ = run_one(&tests[t], flavor);
            }
            None => stress_workload(flavor),
        }
        cycles::set_recording(prev);
        tt_hw::commit_cache::set_enabled(prev_cache);
        cycles::take_method_records()
    });
    let mut stats: BTreeMap<&'static str, CycleStats> = BTreeMap::new();
    for records in per_unit {
        for (name, span) in records {
            stats.entry(name).or_default().record(span);
        }
    }
    stats
}

/// One row of the rendered Fig. 11 table.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Method name.
    pub method: &'static str,
    /// Mean cycles on TickTock.
    pub ticktock: f64,
    /// Mean cycles on Tock.
    pub tock: f64,
}

impl Fig11Row {
    /// Percentage difference (TickTock relative to Tock).
    pub fn pct(&self) -> f64 {
        (self.ticktock - self.tock) / self.tock * 100.0
    }
}

/// Collects both kernels and builds the Fig. 11 rows.
pub fn run(runs: usize) -> Vec<Fig11Row> {
    let tock = collect(Flavor::Legacy(BugVariant::Fixed), runs);
    let ticktock = collect(Flavor::Granular, runs);
    METHODS
        .iter()
        .filter_map(|m| {
            let t = tock.get(m)?;
            let tt = ticktock.get(m)?;
            Some(Fig11Row {
                method: m,
                ticktock: tt.mean(),
                tock: t.mean(),
            })
        })
        .collect()
}

/// Renders the Fig. 11 table.
pub fn render(rows: &[Fig11Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>12} {:>12} {:>10}\n",
        "Method", "TickTock", "Tock", "Pct. Diff"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<26} {:>12.2} {:>12.2} {:>9.2}%\n",
            row.method,
            row.ticktock,
            row.tock,
            row.pct()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_methods_are_exercised_by_the_workload() {
        let rows = run(1);
        let names: Vec<&str> = rows.iter().map(|r| r.method).collect();
        assert_eq!(names, METHODS.to_vec(), "missing methods: {names:?}");
    }

    #[test]
    fn fig11_shape_holds() {
        // The paper's headline comparisons (§6.2): TickTock wins big on
        // allocate_grant (-50%) and brk (-22%), wins on both buffer
        // builds, is within noise on create, and pays a small setup_mpu
        // regression (+8%).
        let rows = run(3);
        let get = |m: &str| rows.iter().find(|r| r.method == m).unwrap();
        let grant = get("allocate_grant");
        assert!(
            grant.pct() < -30.0,
            "allocate_grant should be much cheaper: {:+.1}%",
            grant.pct()
        );
        let brk = get("brk");
        assert!(
            brk.pct() < -10.0,
            "brk should be cheaper: {:+.1}%",
            brk.pct()
        );
        let ro = get("build_readonly_buffer");
        assert!(ro.pct() < 0.0, "ro buffer: {:+.1}%", ro.pct());
        let rw = get("build_readwrite_buffer");
        assert!(rw.pct() < 0.0, "rw buffer: {:+.1}%", rw.pct());
        let create = get("create");
        assert!(
            create.pct().abs() < 10.0,
            "create should be near parity: {:+.1}%",
            create.pct()
        );
        let setup = get("setup_mpu");
        // Pre-cache this was the paper's small +8% regression. With the
        // PR 2 commit cache, most granular switch-ins are hits (a single
        // MPU_CTRL write), while legacy commits carry no generation and
        // always re-commit — setup_mpu flips to a large win.
        assert!(
            setup.pct() < -50.0,
            "setup_mpu should be a large win with the commit cache: {:+.1}%",
            setup.pct()
        );
        // With the cache forced off the paper's original shape returns:
        // a positive (but bounded) setup_mpu regression.
        let before = tt_hw::commit_cache::with_disabled(|| run(1));
        let setup_before = before.iter().find(|r| r.method == "setup_mpu").unwrap();
        assert!(
            setup_before.pct() > 0.0 && setup_before.pct() < 25.0,
            "setup_mpu without the cache should match the paper: {:+.1}%",
            setup_before.pct()
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = run(1);
        let table = render(&rows);
        for m in METHODS {
            assert!(table.contains(m), "missing {m} in table");
        }
    }
}
