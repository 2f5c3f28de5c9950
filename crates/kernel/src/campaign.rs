//! The §6-style fault-injection campaign: isolation under fire.
//!
//! One campaign run boots a three-process TickTock kernel, arms a seeded
//! [`InjectionPlan`] against the *victim* (pid 0), and runs to
//! completion under the [`FaultPolicy::RestartWithBackoff`] recovery
//! policy. The two *bystander* processes never see an injection; the
//! oracle is that their [`TraceScope::Observable`] event streams are
//! **byte-identical** to an uninjected reference run of the same chip —
//! faults stay contained to the process they were injected into, no
//! matter what the fault corrupted.
//!
//! Every run also checks that no contract site was violated (the runs
//! execute under [`Mode::Observe`] so violations are collected, not
//! panicked), and that recovery converged: bystanders exit, the victim
//! ends [`ProcessState::Exited`] or — restart cap exhausted —
//! [`ProcessState::Killed`], never a livelock.

use crate::capsules::driver;
use crate::kernel::{App, AppFactory, FaultPolicy, Kernel, Step};
use crate::loader::flash_app;
use crate::process::{Flavor, ProcessState};
use crate::shrink;
use crate::snapshot::MachineSnapshot;
use crate::trace::{
    event_pid, normalize, normalize_for_pid, observable_event, render_event, Trace, TraceEvent,
    TraceScope,
};
use tt_contracts::pool;
use tt_contracts::{take_violations, with_mode, Mode};
use tt_hw::injection::{self, InjectionPlan};
use tt_hw::platform::ChipProfile;
use tt_hw::sched::{self, InterruptSchedule, ALL_ARRIVAL_POINTS};
use tt_hw::trace;

/// Pid the injection plans target.
pub const VICTIM: usize = 0;
/// Number of bystander processes riding along.
pub const BYSTANDERS: usize = 2;

const TRACE_CAPACITY: usize = 65_536;
const MAX_TICKS: u64 = 400;
pub(crate) const MAX_RESTARTS: u32 = 5;
const BASE_DELAY: u64 = 2;
const MAX_DELAY: u64 = 16;

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/// The victim: a syscall-rich workload that exercises every injection
/// point — register commits (brk/sbrk re-stage regions), syscall
/// arguments, user-mode accesses, grant allocation.
#[derive(Clone)]
struct Victim {
    step_no: u32,
}

impl App for Victim {
    fn name(&self) -> &'static str {
        "victim"
    }
    fn clone_app(&self) -> Option<Box<dyn App>> {
        Some(Box::new(self.clone()))
    }
    fn step(&mut self, k: &mut Kernel, pid: usize) -> Step {
        let ms = k.processes[pid].memory_start();
        let i = self.step_no;
        self.step_no += 1;
        match i % 8 {
            0 => {
                let _ = k.sys_print(pid, "v\r\n");
            }
            1 => {
                let _ = k.sys_sbrk(pid, 64);
            }
            2 => {
                let _ = k.user_write_u32(pid, ms + 128, i);
            }
            3 => {
                let _ = k.sys_memop(pid, 1);
            }
            4 => {
                let _ = k.sys_allow_rw(pid, ms + 256, 16);
            }
            5 => {
                let _ = k.sys_command(pid, driver::ALARM, 1, 50);
            }
            6 => {
                let _ = k.user_read_u32(pid, ms + 128);
            }
            _ => {
                let _ = k.sys_sbrk(pid, -64);
            }
        }
        if self.step_no >= 64 {
            Step::Exit
        } else {
            Step::Continue
        }
    }
}

/// A bystander: deterministic work that never touches cycle-dependent
/// capsules (sensor/ADC) or alarms, so its observable trace depends only
/// on its own behaviour.
#[derive(Clone)]
struct Bystander {
    id: u32,
    step_no: u32,
}

impl App for Bystander {
    fn name(&self) -> &'static str {
        "bystander"
    }
    fn clone_app(&self) -> Option<Box<dyn App>> {
        Some(Box::new(self.clone()))
    }
    fn step(&mut self, k: &mut Kernel, pid: usize) -> Step {
        let ms = k.processes[pid].memory_start();
        let i = self.step_no;
        self.step_no += 1;
        match i % 4 {
            0 => {
                let _ = k.sys_print(pid, "b\r\n");
            }
            1 => {
                let _ = k.user_write_u32(pid, ms + 512 + 4 * (i as usize % 8), i ^ self.id);
            }
            2 => {
                let _ = k.sys_command(pid, driver::LED, 0, self.id);
            }
            _ => {
                let _ = k.user_read_u32(pid, ms + 512);
            }
        }
        if self.step_no >= 32 {
            Step::Exit
        } else {
            Step::Continue
        }
    }
}

fn mk_victim() -> Box<dyn App> {
    Box::new(Victim { step_no: 0 })
}
fn mk_bystander_1() -> Box<dyn App> {
    Box::new(Bystander { id: 1, step_no: 0 })
}
fn mk_bystander_2() -> Box<dyn App> {
    Box::new(Bystander { id: 2, step_no: 0 })
}

/// Restart factories for the three campaign workloads, in pid order.
pub(crate) const CAMPAIGN_FACTORIES: [AppFactory; 3] = [mk_victim, mk_bystander_1, mk_bystander_2];

/// Fresh program state for the three campaign workloads, in pid order.
fn campaign_apps() -> Vec<Box<dyn App>> {
    CAMPAIGN_FACTORIES.iter().map(|mk| mk()).collect()
}

// ---------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------

/// Outcome of one campaign run (injected or reference).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The seed, or `None` for the uninjected reference run.
    pub seed: Option<u64>,
    /// Number of injections that actually fired.
    pub fired: u64,
    /// Number of scheduled interrupt arrivals that fired (0 for runs
    /// without an armed [`InterruptSchedule`]).
    pub irq_fired: u64,
    /// Contract violations observed during the run (rendered).
    pub violations: Vec<String>,
    /// Terminal state per pid.
    pub states: Vec<ProcessState>,
    /// Victim restart count.
    pub restarts: u32,
    /// Victim recovery count.
    pub recoveries: u32,
    /// Cycles the kernel spent recovering the victim.
    pub recovery_cycles: u64,
    /// Commit-cache hits accumulated by the end of the run (boot
    /// included). Part of the restore-equivalence surface: a restored
    /// run must land on exactly the fresh-boot counters.
    pub cache_hits: u64,
    /// Commit-cache misses, likewise.
    pub cache_misses: u64,
    /// The full event trace.
    pub trace: Trace,
}

/// Boots the campaign kernel on `chip`: TickTock flavour, backoff
/// restart policy, MPU scrub, three processes flashed and loaded. This
/// is the exact state [`MachineSnapshot::capture`] freezes for the fleet
/// path — [`run_one`] and [`FleetRunner`] share it so a restored run has
/// the same starting point as a fresh boot.
pub(crate) fn boot_campaign_kernel(chip: &ChipProfile) -> Kernel {
    let mut k = Kernel::boot(Flavor::Granular, chip);
    k.fault_policy = FaultPolicy::RestartWithBackoff {
        max_restarts: MAX_RESTARTS,
        base_delay: BASE_DELAY,
        max_delay: MAX_DELAY,
    };
    k.mpu_scrub = true;
    let base = chip.map.flash.start + 0x4_0000;
    for (slot, name) in [(0usize, "victim"), (1, "bys1"), (2, "bys2")] {
        let img = flash_app(&mut k.mem, base + slot * 0x1000, name, 0x1000, 3000, 1024)
            .expect("flash image");
        k.load_process(&img).expect("load process");
    }
    k
}

/// Drives the three campaign workloads to completion on a booted (or
/// restored) kernel.
fn run_apps(k: &mut Kernel) {
    let mut apps = campaign_apps();
    k.run_with_factories(&mut apps, Some(&CAMPAIGN_FACTORIES), MAX_TICKS);
}

/// Drains the per-run sinks (violations, trace) into a [`RunRecord`] and
/// stops tracing.
fn collect_record(kernel: &Kernel, seed: Option<u64>, fired: u64) -> RunRecord {
    let trace = trace::take();
    trace::disable();
    collect_record_with(kernel, seed, fired, trace)
}

/// [`collect_record`] with the trace supplied by the caller — the
/// oracle fast path passes an empty one after validating the ring in
/// place, every other path passes the drained ring.
fn collect_record_with(kernel: &Kernel, seed: Option<u64>, fired: u64, trace: Trace) -> RunRecord {
    let violations = take_violations().iter().map(|v| format!("{v:?}")).collect();
    RunRecord {
        seed,
        fired,
        irq_fired: 0,
        violations,
        states: kernel.processes.iter().map(|p| p.state.clone()).collect(),
        restarts: kernel.restarts[VICTIM],
        recoveries: kernel.recoveries[VICTIM],
        recovery_cycles: kernel.recovery_cycles[VICTIM],
        cache_hits: kernel.machine.cache().hits(),
        cache_misses: kernel.machine.cache().misses(),
        trace,
    }
}

/// Executes one three-process run on `chip`, with the injection plan for
/// `seed` armed against the victim (or no plan for the reference run).
///
/// This is the fresh-boot path: every run pays a full [`Kernel::boot`]
/// plus three flash/load cycles. Fleet campaigns use [`FleetRunner`],
/// which boots once and [`MachineSnapshot::restore`]s per run; the two
/// must produce byte-identical [`RunRecord`]s (the injection engine only
/// counts occurrences in the victim's context, and no process context
/// exists during boot, so arming before boot and arming after restore
/// see the same occurrence stream).
pub fn run_one(chip: &ChipProfile, seed: Option<u64>) -> RunRecord {
    run_one_scheduled(chip, seed, None)
}

/// [`run_one`] with an optional [`InterruptSchedule`] armed alongside
/// the injection plan — the fresh-boot anchor the scheduled fleet path
/// is tested against. Boot passes no arrival-point hooks, so arming
/// before boot (here) and arming after a post-boot restore
/// ([`FleetRunner`]) count boundary occurrences identically.
pub fn run_one_scheduled(
    chip: &ChipProfile,
    seed: Option<u64>,
    schedule: Option<&InterruptSchedule>,
) -> RunRecord {
    tt_hw::cycles::reset();
    trace::enable(TRACE_CAPACITY);
    if let Some(s) = seed {
        injection::arm(InjectionPlan::from_seed(s, VICTIM as u32));
    }
    if let Some(s) = schedule {
        sched::arm(s.clone());
    }
    let kernel = with_mode(Mode::Observe, || {
        let mut k = boot_campaign_kernel(chip);
        run_apps(&mut k);
        k
    });
    let fired = if seed.is_some() {
        injection::disarm()
    } else {
        0
    };
    let irq_fired = if schedule.is_some() {
        sched::disarm()
    } else {
        0
    };
    let mut record = collect_record(&kernel, seed, fired);
    record.irq_fired = irq_fired;
    record
}

// ---------------------------------------------------------------------
// The fleet path: boot once, restore per run.
// ---------------------------------------------------------------------

/// Per-run wall-clock phase breakdown from
/// [`FleetRunner::run_plan_phased`], in nanoseconds. Timing never feeds
/// back into run behaviour or report text — it rides alongside the
/// (deterministic) [`RunRecord`] for the fleet profiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPhases {
    /// Restoring the machine snapshot (and arming the plan).
    pub restore_ns: u64,
    /// Executing the run body to completion.
    pub run_ns: u64,
    /// Draining the per-run sinks into the record.
    pub collect_ns: u64,
    /// In-place streaming oracle comparison over the undrained ring
    /// ([`FleetRunner`]'s oracle path only; zero for the paths that
    /// drain first and validate from the record).
    pub oracle_ns: u64,
    /// Whether the run resumed from the mid-run snapshot.
    pub midrun: bool,
}

/// The post-first-tick half of a [`FleetRunner`]: the machine frozen
/// after scheduler tick 1 (apps loaded, grants allocated, capsules
/// initialized, first-tick MPU churn done) plus everything needed to
/// resume a run from there as if the prefix had executed live.
struct Midrun {
    snapshot: MachineSnapshot,
    /// Program state at the snapshot point; cloned per run.
    apps: Vec<Box<dyn App>>,
    /// Injection-point occurrence counts the victim accumulated during
    /// the prefix — replayed into `injection::arm_with_seen` so resumed
    /// plans count occurrences exactly like full runs.
    seen: [u32; tt_hw::injection::ALL_POINTS.len()],
    /// Arrival-point occurrence counts the prefix tick passed — the
    /// schedule analogue of `seen`, captured with a trace-neutral empty
    /// schedule armed and replayed into `sched::arm_with_seen` so
    /// resumed schedules count boundary occurrences exactly like full
    /// runs.
    sched_seen: [u32; ALL_ARRIVAL_POINTS.len()],
    /// RAM pages (and the flash flag) the prefix dirtied relative to the
    /// boot snapshot. Merged into live tracking whenever the runner
    /// switches restore targets, so incremental restore never skips a
    /// page that differs between the two snapshots.
    prefix_dirty: (Vec<u64>, bool),
    /// Violations the prefix tick produced (none, for a healthy
    /// kernel), prepended after the boot violations.
    prefix_violations: Vec<String>,
}

/// Which snapshot the live machine state currently derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RestorePoint {
    Boot,
    Midrun,
}

/// A reusable campaign machine for one chip: boots once, snapshots, and
/// replays any number of seeds by restoring the snapshot instead of
/// re-booting.
///
/// The runner keeps **two** snapshots: the post-boot state and the
/// post-first-tick (`Midrun`) state. Runs whose injection plan does
/// not fire inside the first tick resume from the mid-run snapshot —
/// skipping app-factory allocation and first-tick grant/MPU churn —
/// and are byte-identical to fresh-boot runs (gated by the equivalence
/// proptest). Plans that do fire in the prefix fall back to the
/// post-boot snapshot and a full run.
///
/// A runner is thread-affine (the snapshot holds `Rc` hardware handles
/// and replays into this thread's trace ring); the fleet pool builds one
/// per `(chip, cache-mode)` per worker via [`pool::run_indexed_ctx`].
/// For cold-cache runners, both [`FleetRunner::new`] and every run must
/// execute under `tt_hw::commit_cache::with_disabled` — the commit cache
/// changes which `RegWrite` events boot emits, so a cold run restored
/// from a warm boot snapshot would diverge from a cold fresh boot.
pub struct FleetRunner {
    chip: ChipProfile,
    kernel: Kernel,
    /// Restart factories for the scenario's workloads, in pid order —
    /// also the source of each run's fresh program state.
    factories: &'static [AppFactory],
    snapshot: MachineSnapshot,
    /// Violations the boot itself produced (none, for a healthy kernel),
    /// drained at capture time; prepended to every run's record so a
    /// restored run reports exactly what a fresh-boot run would.
    boot_violations: Vec<String>,
    midrun: Option<Midrun>,
    last_restored: RestorePoint,
    /// Wall-clock nanoseconds spent booting and capturing both
    /// snapshots, for the profiler's amortization line.
    capture_ns: u64,
    /// Reference-stream cursor offsets for the post-boot prefix,
    /// computed on the oracle path's first boot-restored run.
    boot_skip: Option<PrefixSkip>,
    /// Likewise for the mid-run prefix.
    midrun_skip: Option<PrefixSkip>,
}

impl FleetRunner {
    /// Boots the campaign kernel on `chip`, captures the post-boot
    /// snapshot, then runs one scheduler tick and captures the mid-run
    /// snapshot. The boot executes under [`Mode::Observe`] with tracing
    /// enabled, exactly like [`run_one`]'s prelude.
    pub fn new(chip: &ChipProfile) -> Self {
        Self::with_scenario(chip, boot_campaign_kernel, &CAMPAIGN_FACTORIES)
    }

    /// [`FleetRunner::new`] over a custom scenario: `boot` builds the
    /// kernel (flavor, fault policy, knobs, processes flashed and
    /// loaded) and `factories` supply each pid's program, in pid order.
    /// The schedule explorer uses this to run planted-bug kernels and
    /// asymmetric workloads through the exact snapshot/restore machinery
    /// the campaign uses.
    pub fn with_scenario(
        chip: &ChipProfile,
        boot: fn(&ChipProfile) -> Kernel,
        factories: &'static [AppFactory],
    ) -> Self {
        let t0 = std::time::Instant::now();
        tt_hw::cycles::reset();
        trace::enable(TRACE_CAPACITY);
        let mut kernel = with_mode(Mode::Observe, || boot(chip));
        assert_eq!(
            kernel.processes.len(),
            factories.len(),
            "one factory per loaded process"
        );
        let snapshot = MachineSnapshot::capture(&mut kernel);
        let boot_violations: Vec<String> =
            take_violations().iter().map(|v| format!("{v:?}")).collect();
        let midrun = Self::capture_midrun(&mut kernel, &snapshot, factories);
        trace::disable();
        Self {
            chip: *chip,
            kernel,
            factories,
            snapshot,
            boot_violations,
            midrun: Some(midrun),
            // capture_midrun leaves the live state exactly at the
            // mid-run capture point with a clean dirty bitmap.
            last_restored: RestorePoint::Midrun,
            capture_ns: t0.elapsed().as_nanos() as u64,
            boot_skip: None,
            midrun_skip: None,
        }
    }

    /// Freezes the post-first-tick state: restore the boot snapshot, run
    /// exactly one scheduler tick with an *empty* counting plan armed
    /// (trace-neutral — its hooks stay identity and it records no
    /// events, but the engine counts the victim's injection-point
    /// occurrences), and capture. An empty [`InterruptSchedule`] rides
    /// along — equally trace-neutral — so the prefix's arrival-point
    /// occurrence counts are captured too.
    fn capture_midrun(
        kernel: &mut Kernel,
        boot: &MachineSnapshot,
        factories: &'static [AppFactory],
    ) -> Midrun {
        boot.restore(kernel);
        injection::arm(InjectionPlan {
            seed: 0,
            target_pid: VICTIM as u32,
            injections: Vec::new(),
        });
        sched::arm(InterruptSchedule::empty());
        let mut apps: Vec<Box<dyn App>> = factories.iter().map(|mk| mk()).collect();
        with_mode(Mode::Observe, || {
            kernel.run_with_factories(&mut apps, Some(factories), 1);
        });
        let seen = injection::seen_counts().expect("counting plan armed");
        injection::disarm();
        let sched_seen = sched::seen_counts().expect("counting schedule armed");
        sched::disarm();
        // Order matters: the prefix dirty state must be read *before*
        // capture re-arms (and clears) tracking.
        let prefix_dirty = kernel.mem.dirty_state();
        let snapshot = MachineSnapshot::capture(kernel);
        let prefix_violations = take_violations().iter().map(|v| format!("{v:?}")).collect();
        Midrun {
            snapshot,
            apps,
            seen,
            sched_seen,
            prefix_dirty,
            prefix_violations,
        }
    }

    /// Raw events in the installed post-boot snapshot prefix — the
    /// offset from which a drained full-run trace starts counting
    /// arrival-point occurrences (boot passes no hooks, so event index
    /// `boot_events()` is boundary occurrence 0 for every point).
    pub fn boot_events(&self) -> usize {
        self.snapshot.boot_events()
    }

    /// The chip this runner was booted for.
    pub fn chip(&self) -> &ChipProfile {
        &self.chip
    }

    /// Wall-clock nanoseconds this runner spent booting and capturing
    /// its snapshots (amortized over every run it serves).
    pub fn capture_ns(&self) -> u64 {
        self.capture_ns
    }

    /// Restores the post-boot snapshot, merging the prefix dirty state
    /// first when the live machine derives from the mid-run snapshot.
    fn restore_boot(&mut self) {
        if self.last_restored == RestorePoint::Midrun {
            if let Some(m) = &self.midrun {
                self.kernel
                    .mem
                    .merge_dirty_state(&m.prefix_dirty.0, m.prefix_dirty.1);
            }
        }
        self.snapshot.restore(&mut self.kernel);
        self.last_restored = RestorePoint::Boot;
    }

    /// Restores the mid-run snapshot (symmetric merge rule: switching
    /// *to* the mid-run target from a boot-derived state also needs the
    /// prefix pages forced dirty — a fallback run need not rewrite every
    /// page the first tick touched).
    fn restore_midrun(&mut self) {
        let m = self.midrun.as_ref().expect("mid-run snapshot captured");
        if self.last_restored == RestorePoint::Boot {
            self.kernel
                .mem
                .merge_dirty_state(&m.prefix_dirty.0, m.prefix_dirty.1);
        }
        m.snapshot.restore(&mut self.kernel);
        self.last_restored = RestorePoint::Midrun;
    }

    /// Restores the best eligible snapshot and executes one run with
    /// `plan` armed against the victim (or no plan for a
    /// reference-shaped run).
    pub fn run_plan(&mut self, plan: Option<InjectionPlan>) -> RunRecord {
        self.run_plan_phased(plan).0
    }

    /// [`FleetRunner::run_plan`] with an [`InterruptSchedule`] armed
    /// alongside the plan: each scheduled arrival fires the timer
    /// interrupt at its boundary occurrence. Mid-run eligibility
    /// requires *both* engines to stay clear of the first tick; a
    /// schedule (or plan) firing inside the prefix falls back to the
    /// post-boot snapshot and a full run. The returned record carries
    /// the arrival count in [`RunRecord::irq_fired`].
    pub fn run_scheduled(
        &mut self,
        plan: Option<InjectionPlan>,
        schedule: &InterruptSchedule,
    ) -> RunRecord {
        let (seed, fired, irq_fired, use_midrun, _, _) = self.execute_plan(plan, Some(schedule));
        let mut record = collect_record(&self.kernel, seed, fired);
        record.irq_fired = irq_fired;
        self.merge_prefix_violations(record, use_midrun)
    }

    /// Restores the best eligible snapshot, arms `plan` (and
    /// `schedule`), and executes the run body: the shared front half of
    /// [`FleetRunner::run_plan_phased`], the oracle path, and
    /// [`FleetRunner::run_scheduled`]. Returns `(seed, fired,
    /// irq_fired, midrun, restore_ns, run_ns)`; the per-run sinks
    /// (trace ring, violations) are still live and undrained on return.
    fn execute_plan(
        &mut self,
        plan: Option<InjectionPlan>,
        schedule: Option<&InterruptSchedule>,
    ) -> (Option<u64>, u64, u64, bool, u64, u64) {
        let seed = plan.as_ref().map(|p| p.seed);
        let armed = plan.is_some();
        let sched_armed = schedule.is_some();
        let t0 = std::time::Instant::now();
        // Mid-run eligibility: a plan scheduling an injection — or a
        // schedule placing an arrival — inside the first tick must
        // execute the prefix live.
        let use_midrun = match &self.midrun {
            Some(m) => {
                plan.as_ref().is_none_or(|p| !p.fires_within(&m.seen))
                    && schedule.is_none_or(|s| !s.fires_within(&m.sched_seen))
            }
            None => false,
        };
        let mut apps: Vec<Box<dyn App>> = if use_midrun {
            self.restore_midrun();
            let m = self.midrun.as_ref().expect("mid-run snapshot captured");
            if let Some(p) = plan {
                injection::arm_with_seen(p, m.seen);
            }
            if let Some(s) = schedule {
                sched::arm_with_seen(s.clone(), m.sched_seen);
            }
            m.apps
                .iter()
                .map(|a| a.clone_app().expect("campaign apps are mid-run cloneable"))
                .collect()
        } else {
            self.restore_boot();
            if let Some(p) = plan {
                injection::arm(p);
            }
            if let Some(s) = schedule {
                sched::arm(s.clone());
            }
            self.factories.iter().map(|mk| mk()).collect()
        };
        let t1 = std::time::Instant::now();
        with_mode(Mode::Observe, || {
            self.kernel
                .run_with_factories(&mut apps, Some(self.factories), MAX_TICKS);
        });
        let fired = if armed { injection::disarm() } else { 0 };
        let irq_fired = if sched_armed { sched::disarm() } else { 0 };
        let restore_ns = (t1 - t0).as_nanos() as u64;
        let run_ns = t1.elapsed().as_nanos() as u64;
        (seed, fired, irq_fired, use_midrun, restore_ns, run_ns)
    }

    /// Prepends the boot (and, for mid-run resumes, prefix) violations
    /// so a restored run reports exactly what the equivalent fresh run
    /// would.
    fn merge_prefix_violations(&self, mut record: RunRecord, use_midrun: bool) -> RunRecord {
        let mut prefix = self.boot_violations.clone();
        if use_midrun {
            if let Some(m) = &self.midrun {
                prefix.extend(m.prefix_violations.iter().cloned());
            }
        }
        if !prefix.is_empty() {
            prefix.append(&mut record.violations);
            record.violations = prefix;
        }
        record
    }

    /// [`FleetRunner::run_plan`] with the per-phase wall-clock breakdown.
    pub fn run_plan_phased(&mut self, plan: Option<InjectionPlan>) -> (RunRecord, RunPhases) {
        let (seed, fired, _, use_midrun, restore_ns, run_ns) = self.execute_plan(plan, None);
        let t2 = std::time::Instant::now();
        let record = collect_record(&self.kernel, seed, fired);
        let record = self.merge_prefix_violations(record, use_midrun);
        let phases = RunPhases {
            restore_ns,
            run_ns,
            collect_ns: t2.elapsed().as_nanos() as u64,
            oracle_ns: 0,
            midrun: use_midrun,
        };
        (record, phases)
    }

    /// [`FleetRunner::run_plan_phased`], with the oracle's streaming
    /// trace comparison run *in place* over the undrained ring. When the
    /// comparison passes (the overwhelmingly common case) the per-run
    /// event copy is skipped entirely — [`trace::disable`] clears the
    /// ring without draining it — and the returned record carries an
    /// empty trace. On any discrepancy the trace is drained as usual so
    /// [`validate_run`] can re-render byte-identical failure messages
    /// from the allocating path.
    fn run_plan_oracle(
        &mut self,
        plan: Option<InjectionPlan>,
        reference: &ChipReference,
    ) -> (RunRecord, RunPhases, OracleCheck) {
        let (seed, fired, _, use_midrun, restore_ns, run_ns) = self.execute_plan(plan, None);
        let t2 = std::time::Instant::now();
        let skip = if use_midrun {
            let len = self.midrun.as_ref().map_or(0, |m| m.snapshot.boot_events());
            *self
                .midrun_skip
                .get_or_insert_with(|| prefix_skip(&reference.raw, len))
        } else {
            let len = self.snapshot.boot_events();
            *self
                .boot_skip
                .get_or_insert_with(|| prefix_skip(&reference.raw, len))
        };
        let check = trace::with_events(|head, tail, dropped| OracleCheck {
            clean: dropped == 0 && streams_match(head, tail, fired, reference, skip),
            trace_len: head.len() + tail.len(),
        });
        let t3 = std::time::Instant::now();
        let record = if check.clean {
            trace::disable();
            collect_record_with(&self.kernel, seed, fired, Trace::default())
        } else {
            collect_record(&self.kernel, seed, fired)
        };
        let record = self.merge_prefix_violations(record, use_midrun);
        let phases = RunPhases {
            restore_ns,
            run_ns,
            collect_ns: t3.elapsed().as_nanos() as u64,
            oracle_ns: (t3 - t2).as_nanos() as u64,
            midrun: use_midrun,
        };
        (record, phases, check)
    }

    /// [`FleetRunner::run_plan`] with the plan derived from `seed`
    /// (`None` = uninjected reference-shaped run).
    pub fn run_seed(&mut self, seed: Option<u64>) -> RunRecord {
        self.run_plan(seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32)))
    }

    /// [`FleetRunner::run_seed`] with the per-phase breakdown.
    pub fn run_seed_phased(&mut self, seed: Option<u64>) -> (RunRecord, RunPhases) {
        self.run_plan_phased(seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32)))
    }

    /// Pays one post-boot restore and discards the result: the per-run
    /// reset cost the fleet benchmark compares against [`boot_probe`].
    pub fn restore_probe(&mut self) {
        self.restore_boot();
        trace::recycle(trace::take());
        trace::disable();
    }

    /// Pays one mid-run restore and discards the result.
    pub fn midrun_probe(&mut self) {
        self.restore_midrun();
        trace::recycle(trace::take());
        trace::disable();
    }

    /// Pays what resuming mid-run *skips*: a post-boot restore plus the
    /// first scheduler tick. The ratio of this to
    /// [`FleetRunner::midrun_probe`] is the `min_midrun_restore_speedup`
    /// gate in `ci/bench_baseline.json`.
    pub fn first_tick_probe(&mut self) {
        self.restore_boot();
        let mut apps: Vec<Box<dyn App>> = self.factories.iter().map(|mk| mk()).collect();
        with_mode(Mode::Observe, || {
            self.kernel
                .run_with_factories(&mut apps, Some(self.factories), 1);
        });
        drop(take_violations());
        trace::recycle(trace::take());
        trace::disable();
    }
}

/// Pays one fresh campaign boot on `chip` and discards the kernel: the
/// per-run reset cost of the pre-fleet campaign, measured for the
/// restore-vs-boot speedup gate.
pub fn boot_probe(chip: &ChipProfile) {
    tt_hw::cycles::reset();
    trace::enable(TRACE_CAPACITY);
    let kernel = with_mode(Mode::Observe, || boot_campaign_kernel(chip));
    drop(take_violations());
    trace::recycle(trace::take());
    trace::disable();
    drop(kernel);
}

// ---------------------------------------------------------------------
// The per-chip campaign.
// ---------------------------------------------------------------------

/// Aggregated campaign result for one chip.
#[derive(Debug, Clone)]
pub struct ChipReport {
    /// Chip name.
    pub chip: &'static str,
    /// Seeded injection runs executed (warm; the cold pass doubles this).
    pub runs: u64,
    /// Injections that fired across all runs.
    pub fired: u64,
    /// Failed oracle checks, rendered for the report. Empty on success.
    pub failures: Vec<String>,
    /// Victim recoveries across all warm runs.
    pub recoveries: u64,
    /// Victim restarts across all warm runs.
    pub restarts: u64,
    /// Runs that ended with the victim permanently killed.
    pub killed: u64,
    /// Total victim recovery cycles, commit cache enabled.
    pub warm_cycles: u64,
    /// Victim recoveries in the warm pass (divisor for the mean).
    pub warm_recoveries: u64,
    /// Total victim recovery cycles with the commit cache disabled.
    pub cold_cycles: u64,
    /// Victim recoveries in the cold pass.
    pub cold_recoveries: u64,
}

impl ChipReport {
    /// Mean recovery latency in cycles, commit cache enabled.
    pub fn warm_mean(&self) -> f64 {
        self.warm_cycles as f64 / (self.warm_recoveries.max(1)) as f64
    }
    /// Mean recovery latency in cycles, commit cache disabled.
    pub fn cold_mean(&self) -> f64 {
        self.cold_cycles as f64 / (self.cold_recoveries.max(1)) as f64
    }
}

fn first_injected_event(trace: &Trace) -> String {
    trace
        .events
        .iter()
        .find(|e| matches!(e, TraceEvent::FaultInjected { .. }))
        .map(render_event)
        .unwrap_or_else(|| "<no injection fired>".into())
}

/// One pass over the raw trace that answers "would checks 2 and 4
/// pass?" without allocating: each event's observable form is computed
/// once and compared cursor-wise against the per-bystander and full
/// reference streams. Exact by construction — `Observable` scope is a
/// pure per-event `filter_map` (no reordering), so cursor equality plus
/// final length equality is precisely `normalize[_for_pid] == reference`.
///
/// Returns `false` at the first discrepancy; the caller then falls back
/// to the allocating path to produce byte-identical failure messages.
fn traces_match_streaming(run: &RunRecord, reference: &ChipReference) -> bool {
    streams_match(
        &run.trace.events,
        &[],
        run.fired,
        reference,
        PrefixSkip::default(),
    )
}

/// What the oracle's in-place comparison learned before the ring was
/// cleared: whether trace checks 2 and 4 pass, and the length the
/// drained trace would have had (for the fleet profiler).
struct OracleCheck {
    clean: bool,
    trace_len: usize,
}

/// Reference-stream cursor offsets contributed by an installed snapshot
/// prefix: how many raw events the prefix holds and how far into the
/// full and per-bystander observable streams those events reach.
/// Computed once per runner from the reference trace, and *verified*
/// per run with one raw slice compare before being trusted —
/// [`streams_match`] degrades to a full walk when the bytes differ.
#[derive(Clone, Copy, Default)]
struct PrefixSkip {
    /// Raw events in the installed prefix.
    raw: usize,
    /// Observable events among them (full-stream cursor offset).
    full: usize,
    /// Observable bystander events among them (per-bystander offsets).
    by: [usize; BYSTANDERS],
}

/// Walks the first `prefix_len` raw reference events and tallies the
/// observable cursor offsets a matching prefix accounts for.
fn prefix_skip(reference_raw: &[TraceEvent], prefix_len: usize) -> PrefixSkip {
    let raw = prefix_len.min(reference_raw.len());
    let mut skip = PrefixSkip {
        raw,
        ..PrefixSkip::default()
    };
    for ev in &reference_raw[..raw] {
        let Some(_) = observable_event(ev) else {
            continue;
        };
        skip.full += 1;
        if let Some(pid) = event_pid(ev) {
            let pid = pid as usize;
            if (VICTIM + 1..VICTIM + 1 + BYSTANDERS).contains(&pid) {
                skip.by[pid - VICTIM - 1] += 1;
            }
        }
    }
    skip
}

/// Cursor walk over the full observable stream, starting `start` events
/// into the reference (the verified prefix's contribution).
fn full_stream_matches<'a>(
    events: impl Iterator<Item = &'a TraceEvent>,
    reference_full: &[TraceEvent],
    start: usize,
) -> bool {
    let mut full_cursor = start;
    for ev in events {
        let Some(obs) = observable_event(ev) else {
            continue;
        };
        if reference_full.get(full_cursor) != Some(&obs) {
            return false;
        }
        full_cursor += 1;
    }
    full_cursor == reference_full.len()
}

/// Cursor walk over the per-bystander observable streams. The victim's
/// events are the bulk of a fired trace: filter on the raw event's pid
/// (the observable projection masks values, never pids) before paying
/// for the projection itself.
pub(crate) fn bystander_streams_match<'a>(
    events: impl Iterator<Item = &'a TraceEvent>,
    reference_by_pid: &[Vec<TraceEvent>],
    start: [usize; BYSTANDERS],
) -> bool {
    let mut by_cursor = start;
    for ev in events {
        let Some(pid) = event_pid(ev) else {
            continue;
        };
        let pid = pid as usize;
        if !(VICTIM + 1..VICTIM + 1 + BYSTANDERS).contains(&pid) {
            continue;
        }
        let Some(obs) = observable_event(ev) else {
            continue;
        };
        let b = pid - VICTIM - 1;
        if reference_by_pid[b].get(by_cursor[b]) != Some(&obs) {
            return false;
        }
        by_cursor[b] += 1;
    }
    by_cursor
        .iter()
        .zip(reference_by_pid)
        .all(|(&c, r)| c == r.len())
}

/// [`traces_match_streaming`] over a trace presented as two contiguous
/// slices — the shape [`trace::with_events`] lends the ring's live
/// region — so the fleet path can run the comparison before (and, on a
/// pass, instead of) draining.
///
/// Two fast paths, both exact:
/// - An unfired run whose **raw** trace equals the reference's raw
///   trace outright is clean — raw equality implies observable equality
///   (the projection is a pure per-event function). One slice compare
///   instead of a projection walk; inequality implies nothing and falls
///   through.
/// - A run whose first `skip.raw` raw events equal the reference's (one
///   slice compare — the installed snapshot prefix, by construction)
///   starts its walk after them, with the cursors pre-advanced by the
///   prefix's precomputed contribution.
fn streams_match(
    head: &[TraceEvent],
    tail: &[TraceEvent],
    fired: u64,
    reference: &ChipReference,
    skip: PrefixSkip,
) -> bool {
    if fired == 0
        && head.len() + tail.len() == reference.raw.len()
        && *head == reference.raw[..head.len()]
        && *tail == reference.raw[head.len()..]
    {
        return true;
    }
    let skip = if skip.raw <= head.len() && head[..skip.raw] == reference.raw[..skip.raw] {
        skip
    } else {
        PrefixSkip::default()
    };
    let head = &head[skip.raw..];
    if fired == 0 {
        // Clean runs compare the whole observable stream. The bystander
        // streams are pure pid-filters of that stream (both sides derive
        // from the same reference events), so full equality subsumes the
        // per-bystander check — no second set of cursors needed. The
        // tail is empty unless the ring wrapped: keep the common case on
        // a plain slice iterator.
        return if tail.is_empty() {
            full_stream_matches(head.iter(), &reference.full, skip.full)
        } else {
            full_stream_matches(head.iter().chain(tail), &reference.full, skip.full)
        };
    }
    if tail.is_empty() {
        bystander_streams_match(head.iter(), &reference.by_pid, skip.by)
    } else {
        bystander_streams_match(head.iter().chain(tail), &reference.by_pid, skip.by)
    }
}

/// Checks one injected run against the reference. Appends rendered
/// failures (empty = run passed).
fn validate_run(
    chip: &ChipProfile,
    run: &RunRecord,
    reference_by_pid: &[Vec<TraceEvent>],
    reference_full: &[TraceEvent],
    traces_clean: bool,
    failures: &mut Vec<String>,
) {
    let seed = run.seed.unwrap_or(0);
    let tag = |what: &str| format!("{} seed {seed}: {what}", chip.name);
    // 1. Contract sites all held, at every step of recovery.
    for v in &run.violations {
        failures.push(tag(&format!("contract violation: {v}")));
    }
    // `traces_clean` is the verdict of one non-allocating streaming pass
    // over checks 2 and 4 — computed in place over the ring by the fleet
    // oracle path, or via [`traces_match_streaming`] by callers holding
    // a drained trace. On any discrepancy, the allocating comparisons
    // below re-run so the rendered failure messages stay byte-identical
    // to what the oracle has always produced. (Checks run in 2, 3, 4
    // order either way — passing checks contribute no messages.)
    // 2. Bystander isolation: observable traces byte-identical to the
    //    uninjected reference.
    for (b, reference) in reference_by_pid.iter().enumerate() {
        if traces_clean {
            break;
        }
        let pid = (VICTIM + 1 + b) as u32;
        let got = normalize_for_pid(&run.trace.events, TraceScope::Observable, pid);
        if got != *reference {
            let at = got
                .iter()
                .zip(reference.iter())
                .position(|(g, r)| g != r)
                .unwrap_or_else(|| got.len().min(reference.len()));
            let render = |events: &[TraceEvent], i: usize| {
                events
                    .get(i)
                    .map(render_event)
                    .unwrap_or_else(|| "<end of trace>".into())
            };
            failures.push(tag(&format!(
                "bystander pid{pid} trace diverged at event #{at}: reference `{}` vs injected \
                 `{}`; first injected fault: {}",
                render(reference, at),
                render(&got, at),
                first_injected_event(&run.trace),
            )));
        }
    }
    // 3. Convergence: bystanders ran to completion, the victim either
    //    finished or was permanently killed within the restart cap.
    for b in 0..BYSTANDERS {
        let pid = VICTIM + 1 + b;
        if run.states[pid] != ProcessState::Exited {
            failures.push(tag(&format!(
                "bystander pid{pid} did not exit: {:?}",
                run.states[pid]
            )));
        }
    }
    if !matches!(
        run.states[VICTIM],
        ProcessState::Exited | ProcessState::Killed
    ) {
        failures.push(tag(&format!(
            "victim did not converge: {:?} after {} restarts",
            run.states[VICTIM], run.restarts
        )));
    }
    if run.restarts > MAX_RESTARTS {
        failures.push(tag(&format!("restart cap exceeded: {}", run.restarts)));
    }
    // 4. A plan whose injections never fired must replay the reference
    //    exactly — the engine itself is observable-trace-neutral.
    if run.fired == 0 && !traces_clean {
        let got = normalize(&run.trace.events, TraceScope::Observable);
        if got != reference_full {
            failures.push(tag("zero-fired run diverged from the reference"));
        }
    }
}

/// The uninjected reference for one chip, reduced to what the oracle
/// needs: the normalized observable traces (shared read-only by every
/// unit of that chip) plus the reference run's own health checks. One
/// reference serves both cache modes — observable traces are
/// cache-independent, so the warm and cold passes validate against the
/// same baseline (as the serial campaign always has).
struct ChipReference {
    violations: Vec<String>,
    states: Vec<ProcessState>,
    by_pid: Vec<Vec<TraceEvent>>,
    full: Vec<TraceEvent>,
    /// The reference run's raw (unprojected) trace. Raw equality implies
    /// observable equality — the projection is a pure per-event function
    /// — so an unfired run that matches this outright needs no
    /// projection walk at all.
    raw: Vec<TraceEvent>,
}

fn chip_reference(chip: &ChipProfile) -> ChipReference {
    let reference = run_one(chip, None);
    let by_pid = (0..BYSTANDERS)
        .map(|b| {
            normalize_for_pid(
                &reference.trace.events,
                TraceScope::Observable,
                (VICTIM + 1 + b) as u32,
            )
        })
        .collect();
    let full = normalize(&reference.trace.events, TraceScope::Observable);
    ChipReference {
        violations: reference.violations,
        states: reference.states,
        by_pid,
        full,
        raw: reference.trace.events,
    }
}

/// One scheduled unit of campaign work: chip index, seed, cache mode
/// (`true` = commit cache disabled).
pub type Unit = (usize, u64, bool);

/// What one injected run reduces to before the ordered merge: the
/// fixed-size summary a fleet campaign keeps per run (everything
/// [`crate::corpus::CorpusRecord`] needs, plus the rendered failures).
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Index of the chip in the campaign's chip slice.
    pub chip: usize,
    /// The injection seed.
    pub seed: u64,
    /// `true` for the commit-cache-disabled pass.
    pub cold: bool,
    /// Rendered oracle failures (empty = run passed).
    pub failures: Vec<String>,
    /// Injections that fired.
    pub fired: u64,
    /// Victim recoveries.
    pub recoveries: u32,
    /// Victim restarts.
    pub restarts: u32,
    /// Whether the victim ended permanently killed.
    pub killed: bool,
    /// Cycles spent recovering the victim.
    pub recovery_cycles: u64,
    /// Events in the run's trace.
    pub trace_len: usize,
    /// Wall-clock nanoseconds restoring the snapshot (and arming).
    ///
    /// Timing fields feed the fleet profiler only — they never enter the
    /// compared report text, so byte-identical determinism holds.
    pub restore_ns: u64,
    /// Wall-clock nanoseconds executing the run body.
    pub run_ns: u64,
    /// Wall-clock nanoseconds draining sinks into the record.
    pub collect_ns: u64,
    /// Wall-clock nanoseconds validating against the reference.
    pub validate_ns: u64,
    /// Whether the run resumed from the mid-run snapshot.
    pub midrun: bool,
}

/// Snapshot-capture amortization tallies, shared across the fleet
/// pool's workers (each worker boots its own runners; the campaign sums
/// them here for the profiler).
#[derive(Debug, Default)]
pub struct CaptureStats {
    /// Fresh `FleetRunner` boots (one per worker per `(chip, mode)`
    /// slot the worker drew work for).
    pub boots: std::sync::atomic::AtomicU64,
    /// Total wall-clock nanoseconds those boots + snapshot captures took.
    pub capture_ns: std::sync::atomic::AtomicU64,
}

/// A worker-local cache of booted [`FleetRunner`]s, one slot per
/// `(chip, cache-mode)`. Runners are built lazily the first time a
/// worker draws a unit for that slot, then reused — every subsequent run
/// on the slot is a restore, not a boot.
struct SnapshotCache<'a> {
    runners: Vec<Option<FleetRunner>>,
    stats: &'a CaptureStats,
}

impl<'a> SnapshotCache<'a> {
    fn new(chips: usize, stats: &'a CaptureStats) -> Self {
        Self {
            runners: (0..chips * 2).map(|_| None).collect(),
            stats,
        }
    }

    fn boot(chips: &[ChipProfile], c: usize, stats: &CaptureStats) -> FleetRunner {
        let runner = FleetRunner::new(&chips[c]);
        stats
            .boots
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        stats
            .capture_ns
            .fetch_add(runner.capture_ns(), std::sync::atomic::Ordering::Relaxed);
        runner
    }

    fn run(
        &mut self,
        chips: &[ChipProfile],
        c: usize,
        cold: bool,
        seed: u64,
        reference: &ChipReference,
    ) -> (RunRecord, RunPhases, OracleCheck) {
        let slot = c * 2 + usize::from(cold);
        let stats = self.stats;
        let plan = Some(InjectionPlan::from_seed(seed, VICTIM as u32));
        if cold {
            // Cold pass: boot *and* run with the commit cache disabled —
            // the cache changes which RegWrite events boot emits, so the
            // cold snapshot must come from a cold boot.
            tt_hw::commit_cache::with_disabled(|| {
                let runner = self.runners[slot].get_or_insert_with(|| Self::boot(chips, c, stats));
                runner.run_plan_oracle(plan, reference)
            })
        } else {
            // Warm pass: commit cache enabled (the production config).
            let runner = self.runners[slot].get_or_insert_with(|| Self::boot(chips, c, stats));
            runner.run_plan_oracle(plan, reference)
        }
    }
}

fn run_unit(
    cache: &mut SnapshotCache,
    chips: &[ChipProfile],
    unit: Unit,
    reference: &ChipReference,
) -> UnitOutcome {
    let (c, seed, cold) = unit;
    let (run, phases, check) = cache.run(chips, c, cold, seed, reference);
    let t0 = std::time::Instant::now();
    let mut failures = Vec::new();
    validate_run(
        &chips[c],
        &run,
        &reference.by_pid,
        &reference.full,
        check.clean,
        &mut failures,
    );
    // The streaming trace comparison already ran in place over the ring
    // (`phases.oracle_ns`); count it where it belongs.
    let validate_ns = phases.oracle_ns + t0.elapsed().as_nanos() as u64;
    let outcome = UnitOutcome {
        chip: c,
        seed,
        cold,
        failures,
        fired: run.fired,
        recoveries: run.recoveries,
        restarts: run.restarts,
        killed: run.states[VICTIM] == ProcessState::Killed,
        recovery_cycles: run.recovery_cycles,
        trace_len: check.trace_len,
        restore_ns: phases.restore_ns,
        run_ns: phases.run_ns,
        collect_ns: phases.collect_ns,
        validate_ns,
        midrun: phases.midrun,
    };
    // Hand the drained event buffer back to this worker's ring: the next
    // run on this thread then records without allocating.
    trace::recycle(run.trace);
    outcome
}

fn reference_report(chip: &ChipProfile, reference: &ChipReference) -> ChipReport {
    let mut report = ChipReport {
        chip: chip.name,
        runs: 0,
        fired: 0,
        failures: Vec::new(),
        recoveries: 0,
        restarts: 0,
        killed: 0,
        warm_cycles: 0,
        warm_recoveries: 0,
        cold_cycles: 0,
        cold_recoveries: 0,
    };
    for v in &reference.violations {
        report
            .failures
            .push(format!("{} reference: contract violation: {v}", chip.name));
    }
    if reference.states.iter().any(|s| *s != ProcessState::Exited) {
        report.failures.push(format!(
            "{} reference: processes did not all exit: {:?}",
            chip.name, reference.states
        ));
    }
    report
}

/// Everything one profiled fleet campaign produces: the per-chip
/// reports, the per-unit outcomes (with wall-clock phase timings), and
/// the snapshot-capture amortization tallies.
#[derive(Debug)]
pub struct CampaignResult {
    /// Aggregated per-chip reports, byte-identical across thread counts.
    pub reports: Vec<ChipReport>,
    /// Per-unit outcomes in schedule order.
    pub outcomes: Vec<UnitOutcome>,
    /// Fresh runner boots across all workers.
    pub boots: u64,
    /// Total nanoseconds spent booting + capturing snapshots.
    pub capture_ns: u64,
}

/// Runs the campaign — one reference per chip, then every `(chip, seed,
/// cache-mode)` injected run for `seeds` seeds — on a work-stealing pool
/// of `threads` workers (1 = serial), returning the per-chip reports,
/// the per-unit outcomes (the raw material for `ci/corpus/` persistence
/// and the fleet benchmark) and the capture amortization tallies.
///
/// The unit of work is a single run, not a whole chip, so cores stay
/// busy through the tail of the campaign. Each worker lazily boots one
/// [`FleetRunner`] per `(chip, cache-mode)` slot it draws work for, and
/// every unit after the first on a slot is a [`MachineSnapshot::restore`]
/// instead of a [`Kernel::boot`]. Results merge in unit order, and
/// restored runs are byte-identical to fresh boots, so the reports —
/// failure strings included — are byte-identical for any thread count.
///
/// Corpus-guided scheduling: units listed in `priority` (previously
/// failing `(chip, seed, cold)` triples, typically decoded from
/// `ci/corpus/failures.bin`) are scheduled *first*, so regressions
/// surface in the opening seconds of a million-run campaign instead of
/// wherever the default order happens to place them.
///
/// Unknown or out-of-range priority entries are ignored; duplicates run
/// once. An empty `priority` preserves the exact historical schedule
/// (chip-major, then seed, warm before cold). A non-empty one reorders
/// outcomes — and therefore the order (not the content) of failure
/// strings — by design: fail fast.
pub fn run_campaign_profiled(
    chips: &[ChipProfile],
    seeds: u64,
    threads: usize,
    priority: &[Unit],
) -> CampaignResult {
    // Phase 1: one uninjected reference per chip, computed once and
    // shared read-only by every unit of that chip. References stay on
    // the fresh-boot path: the oracle is anchored to a boot that never
    // went through snapshot/restore.
    let references: Vec<ChipReference> =
        pool::run_indexed(chips, threads, |_, chip| chip_reference(chip));
    // Phase 2: every (chip, seed, cache-mode) run as its own unit —
    // prioritized units first, then the default order minus those.
    let in_range = |&(c, seed, _): &Unit| c < chips.len() && seed < seeds;
    let mut front: Vec<Unit> = Vec::new();
    let mut fronted: std::collections::HashSet<Unit> = std::collections::HashSet::new();
    for unit in priority.iter().filter(|u| in_range(u)) {
        if fronted.insert(*unit) {
            front.push(*unit);
        }
    }
    let mut units: Vec<Unit> = front;
    units.reserve(chips.len() * (seeds as usize) * 2);
    for c in 0..chips.len() {
        for seed in 0..seeds {
            for cold in [false, true] {
                let unit = (c, seed, cold);
                if fronted.is_empty() || !fronted.contains(&unit) {
                    units.push(unit);
                }
            }
        }
    }
    let stats = CaptureStats::default();
    let refs = &references;
    let stats_ref = &stats;
    let outcomes = pool::run_indexed_ctx(
        &units,
        threads,
        || SnapshotCache::new(chips.len(), stats_ref),
        |cache, _, &unit| run_unit(cache, chips, unit, &refs[unit.0]),
    );
    // Ordered merge: reference checks first (as the serial runner
    // reported them), then each unit's failures and tallies in schedule
    // order.
    let mut reports: Vec<ChipReport> = chips
        .iter()
        .zip(refs)
        .map(|(chip, r)| reference_report(chip, r))
        .collect();
    for unit in &outcomes {
        let report = &mut reports[unit.chip];
        report.failures.extend(unit.failures.iter().cloned());
        if unit.cold {
            report.cold_cycles += unit.recovery_cycles;
            report.cold_recoveries += u64::from(unit.recoveries);
        } else {
            report.runs += 1;
            report.fired += unit.fired;
            report.recoveries += u64::from(unit.recoveries);
            report.restarts += u64::from(unit.restarts);
            report.killed += u64::from(unit.killed);
            report.warm_cycles += unit.recovery_cycles;
            report.warm_recoveries += u64::from(unit.recoveries);
        }
    }
    CampaignResult {
        reports,
        outcomes,
        boots: stats.boots.load(std::sync::atomic::Ordering::Relaxed),
        capture_ns: stats.capture_ns.load(std::sync::atomic::Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Shrinking a failing seed.
// ---------------------------------------------------------------------

/// Shrinks the plan behind a failing `(chip, seed, cache-mode)` run to a
/// 1-minimal schedule that still fails the campaign oracle, replaying
/// candidate plans on one serial [`FleetRunner`].
///
/// The reference is recomputed from a fresh boot and the predicate runs
/// serially on the calling thread, so the minimized schedule is a pure
/// function of `(chip, seed, cold)` — identical across re-invocations
/// and across whatever thread count the campaign that *found* the seed
/// was using.
pub fn shrink_failing_seed(chip: &ChipProfile, seed: u64, cold: bool) -> InjectionPlan {
    let reference = if cold {
        tt_hw::commit_cache::with_disabled(|| chip_reference(chip))
    } else {
        chip_reference(chip)
    };
    let mut runner = if cold {
        tt_hw::commit_cache::with_disabled(|| FleetRunner::new(chip))
    } else {
        FleetRunner::new(chip)
    };
    let plan = InjectionPlan::from_seed(seed, VICTIM as u32);
    shrink::shrink_plan(&plan, |candidate| {
        let run = if cold {
            tt_hw::commit_cache::with_disabled(|| runner.run_plan(Some(candidate.clone())))
        } else {
            runner.run_plan(Some(candidate.clone()))
        };
        let mut failures = Vec::new();
        let traces_clean = traces_match_streaming(&run, &reference);
        validate_run(
            chip,
            &run,
            &reference.by_pid,
            &reference.full,
            traces_clean,
            &mut failures,
        );
        trace::recycle(run.trace);
        !failures.is_empty()
    })
}

/// Renders the campaign table plus any failures.
pub fn render_report(reports: &[ChipReport], seeds: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fault campaign: {} seeds x {} chips (warm+cold) = {} injected runs\n",
        seeds,
        reports.len(),
        reports.iter().map(|r| r.runs * 2).sum::<u64>(),
    ));
    out.push_str(&format!(
        "{:<14} {:>6} {:>6} {:>9} {:>8} {:>7} {:>12} {:>12}\n",
        "chip", "runs", "fired", "recovers", "restarts", "killed", "warm cyc", "cold cyc"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<14} {:>6} {:>6} {:>9} {:>8} {:>7} {:>12.0} {:>12.0}\n",
            r.chip,
            r.runs * 2,
            r.fired,
            r.recoveries,
            r.restarts,
            r.killed,
            r.warm_mean(),
            r.cold_mean(),
        ));
    }
    let failures: Vec<&String> = reports.iter().flat_map(|r| &r.failures).collect();
    if failures.is_empty() {
        out.push_str("all runs: bystander traces identical, zero violations, converged\n");
    } else {
        out.push_str(&format!("{} FAILURES:\n", failures.len()));
        for f in failures {
            out.push_str(&format!("  {f}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::proptest;
    use tt_hw::platform::{ALL_CHIPS, HIFIVE1, NRF52840DK};

    #[test]
    fn reference_run_is_clean_and_deterministic() {
        let a = run_one(&NRF52840DK, None);
        let b = run_one(&NRF52840DK, None);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.states.iter().all(|s| *s == ProcessState::Exited));
        assert_eq!(a.fired, 0);
        assert_eq!(
            normalize(&a.trace.events, TraceScope::Observable),
            normalize(&b.trace.events, TraceScope::Observable),
        );
    }

    /// One chip's serial campaign report.
    fn chip_report(chip: ChipProfile, seeds: u64) -> ChipReport {
        run_campaign_profiled(&[chip], seeds, 1, &[])
            .reports
            .pop()
            .expect("one chip, one report")
    }

    #[test]
    fn arm_campaign_smoke_holds_the_oracle() {
        let report = chip_report(NRF52840DK, 4);
        assert_eq!(report.runs, 4);
        assert!(report.failures.is_empty(), "{:#?}", report.failures);
    }

    #[test]
    fn pmp_campaign_smoke_holds_the_oracle() {
        let report = chip_report(HIFIVE1, 3);
        assert!(report.failures.is_empty(), "{:#?}", report.failures);
    }

    #[test]
    fn parallel_campaign_report_is_byte_identical_to_serial() {
        let chips = [NRF52840DK, HIFIVE1];
        let serial = run_campaign_profiled(&chips, 3, 1, &[]).reports;
        for threads in [2, 8] {
            let parallel = run_campaign_profiled(&chips, 3, threads, &[]).reports;
            assert_eq!(
                render_report(&serial, 3),
                render_report(&parallel, 3),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn injected_runs_do_fire_against_the_victim() {
        // Across a handful of seeds at least one plan must actually fire
        // on each architecture — otherwise the campaign tests nothing.
        let fired: u64 = (0..6).map(|s| run_one(&NRF52840DK, Some(s)).fired).sum();
        assert!(fired > 0, "no ARM injection fired in 6 seeds");
        let fired: u64 = (0..6).map(|s| run_one(&HIFIVE1, Some(s)).fired).sum();
        assert!(fired > 0, "no PMP injection fired in 6 seeds");
    }

    /// Asserts a restored-machine run equals a fresh-boot run in every
    /// observable dimension: raw Full-scope trace, violations, terminal
    /// states, fired count, and recovery tallies.
    fn assert_run_equivalent(chip: &ChipProfile, seed: Option<u64>, cold: bool, what: &str) {
        let (fresh, restored) = if cold {
            let fresh = tt_hw::commit_cache::with_disabled(|| run_one(chip, seed));
            let restored = tt_hw::commit_cache::with_disabled(|| {
                let mut runner = FleetRunner::new(chip);
                runner.run_seed(seed)
            });
            (fresh, restored)
        } else {
            let fresh = run_one(chip, seed);
            let mut runner = FleetRunner::new(chip);
            (fresh, runner.run_seed(seed))
        };
        let ctx = format!("{what}: {} seed {seed:?} cold {cold}", chip.name);
        assert_eq!(
            fresh.trace.events, restored.trace.events,
            "{ctx}: Full-scope trace diverged"
        );
        assert_eq!(
            fresh.trace.dropped, restored.trace.dropped,
            "{ctx}: dropped"
        );
        assert_eq!(fresh.violations, restored.violations, "{ctx}: violations");
        assert_eq!(fresh.states, restored.states, "{ctx}: states");
        assert_eq!(fresh.fired, restored.fired, "{ctx}: fired");
        assert_eq!(fresh.restarts, restored.restarts, "{ctx}: restarts");
        assert_eq!(fresh.recoveries, restored.recoveries, "{ctx}: recoveries");
        assert_eq!(
            fresh.recovery_cycles, restored.recovery_cycles,
            "{ctx}: recovery_cycles"
        );
        // Commit-cache counters are restore-equivalence surface too: a
        // restore that resurrected stale hit/miss tallies (or missed a
        // reset_stats interaction) shows up here even when the trace
        // doesn't diverge.
        assert_eq!(fresh.cache_hits, restored.cache_hits, "{ctx}: cache_hits");
        assert_eq!(
            fresh.cache_misses, restored.cache_misses,
            "{ctx}: cache_misses"
        );
        trace::recycle(fresh.trace);
        trace::recycle(restored.trace);
    }

    #[test]
    fn restored_runs_match_fresh_boots_on_all_chips_and_modes() {
        for chip in &ALL_CHIPS {
            for cold in [false, true] {
                for seed in [None, Some(3)] {
                    assert_run_equivalent(chip, seed, cold, "restore-equivalence");
                }
            }
        }
    }

    #[test]
    fn snapshot_run_restore_run_round_trips_byte_identically() {
        // The PR 6 drift gate: run → restore → run the *same* runner and
        // demand byte-identity — any per-run state restore() misses
        // (commit-cache entries, kernel counters, backoff state,
        // injection cursors, TLS buffers) shows up as a diff here.
        for chip in [&NRF52840DK, &HIFIVE1] {
            let mut runner = FleetRunner::new(chip);
            for seed in 0..8u64 {
                let first = runner.run_seed(Some(seed));
                let second = runner.run_seed(Some(seed));
                assert_eq!(
                    first.trace.events, second.trace.events,
                    "{} seed {seed}: second run on a restored machine diverged",
                    chip.name
                );
                assert_eq!(first.violations, second.violations);
                assert_eq!(first.states, second.states);
                assert_eq!(first.fired, second.fired);
                assert_eq!(first.restarts, second.restarts);
                assert_eq!(first.recovery_cycles, second.recovery_cycles);
                trace::recycle(first.trace);
                trace::recycle(second.trace);
            }
        }
    }

    #[test]
    fn midrun_and_fallback_runs_interleave_byte_identically() {
        // Alternating restore targets on one runner exercises the
        // dirty-state merge both ways: a mid-run restore followed by a
        // post-boot restore (and back) must not leave pages from the
        // other snapshot behind. Seeds are picked so one plan fires
        // inside the first tick (forcing the post-boot fallback) and one
        // does not (taking the mid-run path).
        for chip in [&NRF52840DK, &HIFIVE1] {
            let mut runner = FleetRunner::new(chip);
            assert!(runner.capture_ns() > 0);
            let seen = runner.midrun.as_ref().unwrap().seen;
            let fallback_seed = (0..500u64)
                .find(|&s| InjectionPlan::from_seed(s, VICTIM as u32).fires_within(&seen))
                .expect("some seed schedules an injection inside tick 1");
            let midrun_seed = (0..500u64)
                .find(|&s| !InjectionPlan::from_seed(s, VICTIM as u32).fires_within(&seen))
                .expect("some seed stays clear of tick 1");
            let expect_fallback = run_one(chip, Some(fallback_seed));
            let expect_midrun = run_one(chip, Some(midrun_seed));
            let expect_ref = run_one(chip, None);
            for round in 0..3 {
                let (got, phases) = runner.run_seed_phased(Some(midrun_seed));
                assert!(phases.midrun, "{}: eligible plan skipped midrun", chip.name);
                assert_eq!(
                    expect_midrun.trace.events, got.trace.events,
                    "{} round {round}: midrun-path run diverged",
                    chip.name
                );
                assert_eq!(expect_midrun.violations, got.violations);
                assert_eq!(expect_midrun.fired, got.fired);
                trace::recycle(got.trace);
                let (got, phases) = runner.run_seed_phased(Some(fallback_seed));
                assert!(
                    !phases.midrun,
                    "{}: prefix-firing plan took the midrun path",
                    chip.name
                );
                assert_eq!(
                    expect_fallback.trace.events, got.trace.events,
                    "{} round {round}: fallback-path run diverged after a midrun restore",
                    chip.name
                );
                assert_eq!(expect_fallback.violations, got.violations);
                assert_eq!(expect_fallback.fired, got.fired);
                trace::recycle(got.trace);
                let (got, phases) = runner.run_seed_phased(None);
                assert!(phases.midrun, "{}: reference run skipped midrun", chip.name);
                assert_eq!(
                    expect_ref.trace.events, got.trace.events,
                    "{} round {round}: reference-shaped run diverged",
                    chip.name
                );
                trace::recycle(got.trace);
            }
            trace::recycle(expect_fallback.trace);
            trace::recycle(expect_midrun.trace);
            trace::recycle(expect_ref.trace);
        }
    }

    #[test]
    fn corpus_guided_priority_fronts_units_without_changing_content() {
        let chips = [NRF52840DK, HIFIVE1];
        // Priority list: one valid duplicate pair, one out-of-range chip,
        // one out-of-range seed — only (1, 1, true) and (0, 0, false)
        // should be fronted, once each.
        let priority = [
            (1, 1, true),
            (9, 0, false),
            (1, 1, true),
            (0, 0, false),
            (0, 7, true),
        ];
        let result = run_campaign_profiled(&chips, 2, 1, &priority);
        let schedule: Vec<Unit> = result
            .outcomes
            .iter()
            .map(|o| (o.chip, o.seed, o.cold))
            .collect();
        assert_eq!(schedule[..2], [(1, 1, true), (0, 0, false)]);
        assert_eq!(schedule.len(), chips.len() * 2 * 2, "units ran once each");
        let mut sorted = schedule.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), schedule.len(), "a unit ran twice");
        // Same campaign without priority: identical aggregate reports
        // (failure order could differ by design, but these runs pass).
        let baseline = run_campaign_profiled(&chips, 2, 1, &[]).reports;
        assert_eq!(
            render_report(&baseline, 2),
            render_report(&result.reports, 2)
        );
        assert!(result.boots > 0);
        assert!(result.capture_ns > 0);
        // Phase timings populated, and at least one unit resumed midrun.
        assert!(result.outcomes.iter().any(|o| o.midrun));
        assert!(result.outcomes.iter().all(|o| o.run_ns > 0));
    }

    #[test]
    fn interleaved_runners_do_not_leak_thread_local_state() {
        // Two chips alternating on one worker thread, with deliberate
        // TLS pollution between runs: stale cycle counts, a stale
        // process context, a dirty method-record buffer. restore() must
        // make every run start from its own boot state regardless.
        let mut arm = FleetRunner::new(&NRF52840DK);
        let mut rv = FleetRunner::new(&HIFIVE1);
        let expect_arm = run_one(&NRF52840DK, Some(2));
        let expect_rv = run_one(&HIFIVE1, Some(2));
        for round in 0..3 {
            // Pollute the thread-local run context.
            tt_hw::cycles::charge_n(tt_hw::cycles::Cost::Alu, 10_000 + round);
            tt_hw::cycles::set_recording(true);
            tt_hw::cycles::record_method("polluter", 99);
            trace::set_current_pid(42);
            let got_arm = arm.run_seed(Some(2));
            let got_rv = rv.run_seed(Some(2));
            assert_eq!(
                expect_arm.trace.events, got_arm.trace.events,
                "round {round}: ARM trace polluted by interleaving"
            );
            assert_eq!(
                expect_rv.trace.events, got_rv.trace.events,
                "round {round}: RISC-V trace polluted by interleaving"
            );
            assert_eq!(expect_arm.violations, got_arm.violations);
            assert_eq!(expect_rv.violations, got_rv.violations);
            trace::recycle(got_arm.trace);
            trace::recycle(got_rv.trace);
        }
        trace::recycle(expect_arm.trace);
        trace::recycle(expect_rv.trace);
    }

    #[test]
    fn campaign_outcomes_match_schedule_order() {
        let chips = [NRF52840DK, HIFIVE1];
        let CampaignResult {
            reports, outcomes, ..
        } = run_campaign_profiled(&chips, 2, 1, &[]);
        assert_eq!(outcomes.len(), chips.len() * 2 * 2);
        let schedule: Vec<(usize, u64, bool)> =
            outcomes.iter().map(|o| (o.chip, o.seed, o.cold)).collect();
        assert_eq!(
            schedule,
            vec![
                (0, 0, false),
                (0, 0, true),
                (0, 1, false),
                (0, 1, true),
                (1, 0, false),
                (1, 0, true),
                (1, 1, false),
                (1, 1, true),
            ]
        );
        assert!(outcomes.iter().all(|o| o.failures.is_empty()));
        assert!(outcomes.iter().all(|o| o.trace_len > 0));
        // Tallies in the reports are exactly the outcome sums.
        let fired: u64 = outcomes.iter().filter(|o| !o.cold).map(|o| o.fired).sum();
        assert_eq!(reports.iter().map(|r| r.fired).sum::<u64>(), fired);
    }

    #[test]
    fn shrinking_a_seed_is_deterministic_across_invocations() {
        // The campaign oracle holds on every seed, so shrink_failing_seed
        // returns the full plan unchanged — still a determinism check.
        let a = shrink_failing_seed(&NRF52840DK, 5, false);
        let b = shrink_failing_seed(&NRF52840DK, 5, false);
        assert_eq!(a, b);
        assert_eq!(a, InjectionPlan::from_seed(5, VICTIM as u32));
        // A predicate that *does* reproduce (injections fired) exercises
        // the real shrink loop on restored machines: the minimized plan
        // must be identical across invocations and runner instances.
        let shrink_fired = || {
            let mut runner = FleetRunner::new(&NRF52840DK);
            let plan = InjectionPlan::from_seed(11, VICTIM as u32);
            crate::shrink::shrink_plan(&plan, |p| {
                let run = runner.run_plan(Some(p.clone()));
                let fired = run.fired;
                trace::recycle(run.trace);
                fired > 0
            })
        };
        let first = shrink_fired();
        let second = shrink_fired();
        assert_eq!(
            first, second,
            "minimized schedule differs across re-invocations"
        );
    }

    #[test]
    fn scheduled_runs_on_restored_machines_match_fresh_boots() {
        use tt_hw::sched::ArrivalPoint;
        // An early arrival (fires inside tick 1, forcing the post-boot
        // fallback), a late one (mid-run eligible), and the empty
        // schedule (pure occurrence counting) — each must make the
        // fleet path byte-identical to a fresh boot with the same
        // schedule armed.
        let schedules = [
            InterruptSchedule::single(ArrivalPoint::SyscallEnter, 0),
            InterruptSchedule::single(ArrivalPoint::SchedulerDecision, 8),
            InterruptSchedule::single(ArrivalPoint::MpuCommit, 12),
            InterruptSchedule::empty(),
        ];
        for chip in [&NRF52840DK, &HIFIVE1] {
            let mut runner = FleetRunner::new(chip);
            for schedule in &schedules {
                for seed in [None, Some(7)] {
                    let fresh = run_one_scheduled(chip, seed, Some(schedule));
                    let restored = runner.run_scheduled(
                        seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32)),
                        schedule,
                    );
                    let ctx = format!("{} seed {seed:?} schedule {:#x}", chip.name, schedule.id());
                    assert_eq!(
                        fresh.trace.events, restored.trace.events,
                        "{ctx}: Full-scope trace diverged"
                    );
                    assert_eq!(fresh.violations, restored.violations, "{ctx}: violations");
                    assert_eq!(fresh.states, restored.states, "{ctx}: states");
                    assert_eq!(fresh.fired, restored.fired, "{ctx}: fired");
                    assert_eq!(fresh.irq_fired, restored.irq_fired, "{ctx}: irq_fired");
                    trace::recycle(fresh.trace);
                    trace::recycle(restored.trace);
                }
            }
        }
    }

    #[test]
    fn empty_schedule_is_trace_neutral() {
        // An armed-but-empty schedule exercises every arrival-point
        // hook's counting path; the run must stay byte-identical to one
        // with no schedule armed at all.
        let plain = run_one(&NRF52840DK, Some(3));
        let counted = run_one_scheduled(&NRF52840DK, Some(3), Some(&InterruptSchedule::empty()));
        assert_eq!(plain.trace.events, counted.trace.events);
        assert_eq!(plain.violations, counted.violations);
        assert_eq!(counted.irq_fired, 0);
        trace::recycle(plain.trace);
        trace::recycle(counted.trace);
    }

    #[test]
    fn scheduled_arrivals_fire_and_perturb_only_nonobservably_on_a_correct_kernel() {
        use tt_hw::sched::ArrivalPoint;
        // On the correct kernel an arrival that fires must leave IRQ
        // markers in the Full trace while every bystander's Observable
        // stream stays byte-identical to the reference.
        let reference = chip_reference(&NRF52840DK);
        let mut runner = FleetRunner::new(&NRF52840DK);
        let mut fired_somewhere = false;
        for at in [0, 5, 17] {
            let run = runner.run_scheduled(
                None,
                &InterruptSchedule::single(ArrivalPoint::SyscallExit, at),
            );
            if run.irq_fired > 0 {
                fired_somewhere = true;
                assert!(
                    run.trace
                        .events
                        .iter()
                        .any(|e| matches!(e, TraceEvent::IrqEnter { .. })),
                    "fired arrival left no IrqEnter marker"
                );
            }
            assert!(run.violations.is_empty(), "{:?}", run.violations);
            assert!(
                bystander_streams_match(
                    run.trace.events.iter(),
                    &reference.by_pid,
                    [0; BYSTANDERS]
                ),
                "at {at}: bystander stream diverged under a scheduled arrival"
            );
            trace::recycle(run.trace);
        }
        assert!(fired_somewhere, "no scheduled arrival fired at all");
    }

    proptest! {
        #[test]
        fn restored_runs_match_fresh_boots_for_arbitrary_units(
            chip_idx in 0usize..ALL_CHIPS.len(),
            seed in proptest::prelude::any::<u64>(),
            cold in proptest::prelude::any::<bool>(),
        ) {
            let chip = &ALL_CHIPS[chip_idx];
            assert_run_equivalent(chip, Some(seed), cold, "proptest");
        }
    }
}
