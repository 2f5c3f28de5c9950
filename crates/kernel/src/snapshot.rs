//! Machine snapshots: boot once, restore a run in microseconds.
//!
//! The fault campaign's scale was bounded by `Kernel::boot`: every run
//! paid a fresh memory allocation, process loading and MPU staging. A
//! [`MachineSnapshot`] freezes a booted kernel — memory, staged and live
//! protection registers, commit cache, process table, scheduler state —
//! and [`MachineSnapshot::restore`] rewinds the same kernel to that
//! point for the next seed. The memory half is copy-on-write in the
//! simulation sense: the capture is one full copy, after which
//! `tt_hw::mem` tracks dirty pages and restore copies back only what a
//! run actually wrote (see `DESIGN.md` §12).
//!
//! Restore also rewinds every piece of *thread-local* run state the
//! drift audit found leaking between runs: the cycle counter (rewound to
//! its capture value, so cycle-derived sensor readings replay), the
//! trace ring (re-armed and re-seeded with the boot-trace prefix, so a
//! restored run's trace is byte-identical to a fresh boot's), contract
//! violations, stale §6.2 method records, the recording/current-pid
//! flags, and any injection plan left armed by a previous run.
//!
//! ## Restore invariants
//!
//! * The kernel passed to [`MachineSnapshot::restore`] must be the one
//!   [`MachineSnapshot::capture`] ran on: hardware state is written back
//!   through the kernel's existing `Rc` machine handles (the process
//!   backends share them), and the dirty-page tracking armed at capture
//!   lives in that kernel's memory. Snapshots are therefore per-thread
//!   values — `Rc` keeps them `!Send` by construction.
//! * Capture happens with no DMA transfer in flight (asserted): the DMA
//!   cell and engine are rebuilt at boot state on restore.
//! * PMP locked entries are restored wholesale, bypassing the lock
//!   semantics `write_cfg` enforces — exactly what a power cycle does on
//!   real silicon, which is the event a restore models.

use crate::capsules::{Capsules, PendingAlarm};
use crate::kernel::{FaultPolicy, Kernel, Upcall};
use crate::machine::{CommitCacheSnapshot, MachineKind};
use crate::process::Process;
use tt_hw::cortexm::CortexMpu;
use tt_hw::mem::MemSnapshot;
use tt_hw::riscv::RiscvPmp;
use tt_hw::trace::{self, TraceEvent};

/// The protection-register half of a snapshot, matching the machine's
/// architecture.
#[derive(Debug, Clone)]
enum HwSnapshot {
    /// Full ARMv7-M MPU register file (CTRL, RNR, per-region RBAR/RASR).
    CortexM(CortexMpu),
    /// Full PMP CSR file, locked entries included.
    Pmp(RiscvPmp),
}

/// A frozen post-boot machine: everything [`MachineSnapshot::restore`]
/// needs to rewind a [`Kernel`] (and the thread-local simulator state
/// around it) to the capture point.
#[derive(Debug)]
pub struct MachineSnapshot {
    mem: MemSnapshot,
    hw: HwSnapshot,
    cache: CommitCacheSnapshot,
    processes: Vec<Process>,
    // Capsule state (the DMA cell/engine are rebuilt fresh; capture
    // asserts no transfer is in flight).
    leds: crate::capsules::Leds,
    alarms: Vec<PendingAlarm>,
    console_input: Vec<(usize, Vec<u8>)>,
    // Kernel scheduler and accounting state.
    ticks: u64,
    fault_log: Vec<(usize, String)>,
    ipc_services: Vec<usize>,
    fault_policy: FaultPolicy,
    restarts: Vec<u32>,
    recoveries: Vec<u32>,
    recovery_cycles: Vec<u64>,
    mpu_scrub: bool,
    commit_window_bug: bool,
    restart_due: Vec<Option<u64>>,
    pending_respawn: Vec<bool>,
    upcalls: Vec<Option<Upcall>>,
    subscriptions: Vec<Vec<usize>>,
    ram_cursor: usize,
    ram_end: usize,
    // Thread-local run context at capture.
    boot_cycles: u64,
    /// Events recorded up to capture (drained from the ring), replayed
    /// on restore so restored traces are byte-identical to fresh boots.
    boot_trace: Vec<TraceEvent>,
    /// Ring capacity to re-arm on restore; `None` if tracing was off at
    /// capture (restore then leaves tracing off).
    trace_capacity: Option<usize>,
}

impl MachineSnapshot {
    /// Captures the kernel's state after boot (typically: `Kernel::boot`
    /// plus process loading, before any app work).
    ///
    /// If tracing is enabled, the events recorded so far are drained out
    /// of the ring into the snapshot as the boot prefix — from the
    /// caller's point of view the ring is empty afterwards, and every
    /// run (including the first) starts with a [`Self::restore`] that
    /// replays the prefix.
    pub fn capture(kernel: &mut Kernel) -> Self {
        assert!(
            !kernel.capsules.dma_cell.busy(),
            "cannot snapshot with a DMA transfer in flight"
        );
        let (boot_trace, trace_capacity) = if trace::is_enabled() {
            let cap = trace::capacity();
            let t = trace::take();
            assert_eq!(t.dropped, 0, "boot overflowed the trace ring");
            (t.events, Some(cap))
        } else {
            (Vec::new(), None)
        };
        let hw = match kernel.machine.kind() {
            MachineKind::CortexM(mpu) => HwSnapshot::CortexM(mpu.borrow().clone()),
            MachineKind::Pmp(pmp) => HwSnapshot::Pmp(pmp.borrow().clone()),
        };
        Self {
            mem: kernel.mem.snapshot(),
            hw,
            cache: kernel.machine.cache().snapshot(),
            processes: kernel.processes.clone(),
            leds: kernel.capsules.leds.clone(),
            alarms: kernel.capsules.alarms.clone(),
            console_input: kernel.capsules.console_input.clone(),
            ticks: kernel.ticks,
            fault_log: kernel.fault_log.clone(),
            ipc_services: kernel.ipc_services.clone(),
            fault_policy: kernel.fault_policy,
            restarts: kernel.restarts.clone(),
            recoveries: kernel.recoveries.clone(),
            recovery_cycles: kernel.recovery_cycles.clone(),
            mpu_scrub: kernel.mpu_scrub,
            commit_window_bug: kernel.commit_window_bug,
            restart_due: kernel.restart_due.clone(),
            pending_respawn: kernel.pending_respawn.clone(),
            upcalls: kernel.upcalls.clone(),
            subscriptions: kernel.subscriptions.clone(),
            ram_cursor: kernel.ram_cursor,
            ram_end: kernel.ram_end,
            boot_cycles: tt_hw::cycles::now(),
            boot_trace,
            trace_capacity,
        }
    }

    /// Rewinds `kernel` — and this thread's simulator context — to the
    /// capture point. See the module docs for the restore invariants.
    pub fn restore(&self, kernel: &mut Kernel) {
        // Memory: dirty pages only (full copy if tracking was never
        // armed on this instance).
        kernel.mem.restore(&self.mem);
        // Protection hardware, written back through the existing shared
        // handles so every process backend sees the restored registers.
        match (&self.hw, kernel.machine.kind()) {
            (HwSnapshot::CortexM(saved), MachineKind::CortexM(mpu)) => {
                *mpu.borrow_mut() = saved.clone();
            }
            (HwSnapshot::Pmp(saved), MachineKind::Pmp(pmp)) => {
                *pmp.borrow_mut() = saved.clone();
            }
            _ => unreachable!("snapshot architecture does not match the kernel's machine"),
        }
        // Commit cache: key AND counters (drift audit: `reset_stats`
        // keeps the key and the counters accumulate across runs).
        kernel.machine.cache().restore(self.cache);
        // Process table: deep clones sharing the restored machine.
        kernel.processes.clear();
        kernel.processes.extend(self.processes.iter().cloned());
        // Capsules: boot state, DMA rebuilt fresh.
        kernel.capsules = Capsules::new();
        kernel.capsules.leds = self.leds.clone();
        kernel.capsules.alarms = self.alarms.clone();
        kernel.capsules.console_input = self.console_input.clone();
        // Scheduler and accounting state.
        kernel.ticks = self.ticks;
        kernel.fault_log.clone_from(&self.fault_log);
        kernel.ipc_services.clone_from(&self.ipc_services);
        kernel.fault_policy = self.fault_policy;
        kernel.restarts.clone_from(&self.restarts);
        kernel.recoveries.clone_from(&self.recoveries);
        kernel.recovery_cycles.clone_from(&self.recovery_cycles);
        kernel.mpu_scrub = self.mpu_scrub;
        kernel.commit_window_bug = self.commit_window_bug;
        kernel.restart_due.clone_from(&self.restart_due);
        kernel.pending_respawn.clone_from(&self.pending_respawn);
        kernel.upcalls.clone_from(&self.upcalls);
        kernel.subscriptions.clone_from(&self.subscriptions);
        kernel.ram_cursor = self.ram_cursor;
        kernel.ram_end = self.ram_end;
        // Thread-local run context: drop anything a previous run (on
        // this pool worker) may have leaked, then rewind the clock and
        // re-arm tracing with the boot prefix.
        if tt_hw::injection::is_armed() {
            let _ = tt_hw::injection::disarm();
        }
        if tt_hw::sched::is_armed() {
            let _ = tt_hw::sched::disarm();
        }
        let _ = tt_contracts::take_violations();
        let _ = tt_hw::cycles::take_method_records();
        tt_contracts::simctx::reset_run_state();
        tt_hw::cycles::set_now(self.boot_cycles);
        match self.trace_capacity {
            Some(cap) => {
                // Zero-copy prefix replay: one memcpy behind the write
                // cursor instead of a per-event `record` round-trip.
                trace::enable(cap);
                trace::install_prefix(&self.boot_trace);
            }
            None => trace::disable(),
        }
    }

    /// Number of events in the captured boot-trace prefix.
    pub fn boot_events(&self) -> usize {
        self.boot_trace.len()
    }

    /// Bytes held by the memory copy (the dominant snapshot cost).
    pub fn mem_bytes(&self) -> usize {
        self.mem.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::flash_app;
    use crate::process::{Flavor, ProcessState};
    use tt_hw::platform::{ChipProfile, EARLGREY, NRF52840DK};

    fn boot_two(chip: &ChipProfile) -> Kernel {
        let mut k = Kernel::boot(Flavor::Granular, chip);
        k.fault_policy = FaultPolicy::RestartWithBackoff {
            max_restarts: 3,
            base_delay: 2,
            max_delay: 8,
        };
        let base = chip.map.flash.start + 0x4_0000;
        for (slot, name) in [(0usize, "a"), (1, "b")] {
            let img = flash_app(&mut k.mem, base + slot * 0x1000, name, 0x1000, 3000, 1024)
                .expect("flash image");
            k.load_process(&img).expect("load process");
        }
        k
    }

    /// Drives the kernel through state a run would dirty: syscalls, RAM
    /// writes, grants, an upcall subscription, a fault + recovery.
    fn dirty_the_kernel(k: &mut Kernel) {
        let ms = k.processes[0].memory_start();
        let _ = k.sys_sbrk(0, 128);
        let _ = k.user_write_u32(0, ms + 64, 0xDEAD);
        let _ = k.sys_command(0, crate::capsules::driver::LED, 0, 1);
        let _ = k.sys_print(1, "hello\r\n");
        k.processes[0].fault("test fault");
        k.ticks += 10;
    }

    #[test]
    fn restore_rewinds_kernel_state_on_both_architectures() {
        for chip in [NRF52840DK, EARLGREY] {
            tt_hw::cycles::reset();
            let mut k = boot_two(&chip);
            let snap = MachineSnapshot::capture(&mut k);
            let boot_states: Vec<ProcessState> =
                k.processes.iter().map(|p| p.state.clone()).collect();
            let boot_break = k.processes[0].app_break();
            dirty_the_kernel(&mut k);
            assert_ne!(k.processes[0].state, boot_states[0]);
            snap.restore(&mut k);
            let got: Vec<ProcessState> = k.processes.iter().map(|p| p.state.clone()).collect();
            assert_eq!(got, boot_states, "{}", chip.name);
            assert_eq!(k.processes[0].app_break(), boot_break);
            assert_eq!(k.ticks, 0);
            assert!(k.fault_log.is_empty());
            assert_eq!(k.processes[1].console, "");
            assert_eq!(k.capsules.leds.toggles, 0);
            // The restored kernel runs again: same syscalls succeed.
            dirty_the_kernel(&mut k);
            snap.restore(&mut k);
            assert_eq!(k.ticks, 0);
        }
    }

    #[test]
    fn restore_rewinds_thread_local_run_context() {
        tt_hw::cycles::reset();
        trace::enable(1024);
        let mut k = boot_two(&NRF52840DK);
        let snap = MachineSnapshot::capture(&mut k);
        assert!(snap.boot_events() > 0, "boot must have recorded events");
        assert!(snap.mem_bytes() > 0);
        // Pollute everything restore claims to rewind.
        tt_hw::cycles::charge_n(tt_hw::cycles::Cost::Alu, 999);
        tt_hw::cycles::set_recording(true);
        tt_hw::cycles::record_method("stale", 1);
        trace::set_current_pid(7);
        tt_hw::injection::arm(tt_hw::injection::InjectionPlan::from_seed(1, 0));
        snap.restore(&mut k);
        assert!(!tt_hw::injection::is_armed());
        assert_eq!(tt_hw::cycles::now(), snap.boot_cycles);
        assert!(tt_hw::cycles::take_method_records().is_empty());
        assert_eq!(trace::current_pid(), tt_hw::trace::NO_PID);
        // The ring holds exactly the boot prefix again.
        let t = trace::take();
        assert_eq!(t.events, snap.boot_trace);
        trace::disable();
        tt_hw::cycles::set_recording(false);
    }

    /// A minimal app driving enough syscalls to move the commit cache.
    struct Chatty {
        n: u32,
    }
    impl crate::kernel::App for Chatty {
        fn name(&self) -> &'static str {
            "chatty"
        }
        fn step(&mut self, k: &mut Kernel, pid: usize) -> crate::kernel::Step {
            self.n += 1;
            let _ = k.sys_print(pid, "x\r\n");
            if self.n >= 4 {
                crate::kernel::Step::Exit
            } else {
                crate::kernel::Step::Continue
            }
        }
    }

    #[test]
    fn commit_cache_and_counters_round_trip_through_restore() {
        tt_hw::cycles::reset();
        let mut k = boot_two(&NRF52840DK);
        let snap = MachineSnapshot::capture(&mut k);
        let boot_cache = k.machine.cache().snapshot();
        // Run real work that moves the cache and the recovery counters.
        let mut apps: Vec<Box<dyn crate::kernel::App>> =
            vec![Box::new(Chatty { n: 0 }), Box::new(Chatty { n: 0 })];
        k.run_with_factories(&mut apps, None, 50);
        assert_ne!(k.machine.cache().snapshot(), boot_cache);
        snap.restore(&mut k);
        assert_eq!(k.machine.cache().snapshot(), boot_cache);
        assert!(k.restarts.iter().all(|&r| r == 0));
        assert!(k.recoveries.iter().all(|&r| r == 0));
        assert!(k.recovery_cycles.iter().all(|&c| c == 0));
    }

    #[test]
    fn restored_mpu_decides_like_one_rebuilt_from_its_registers() {
        use tt_hw::cortexm::mpu::NUM_REGIONS;
        use tt_hw::cortexm::CortexMpu;
        use tt_hw::mem::{AccessType, Privilege, ProtectionUnit};

        tt_hw::cycles::reset();
        let mut k = boot_two(&NRF52840DK);
        k.processes[0].setup_mpu();
        let snap = MachineSnapshot::capture(&mut k);
        let MachineKind::CortexM(mpu) = k.machine.kind().clone() else {
            unreachable!("nRF52840 is a Cortex-M chip")
        };
        // Move the regions away from the captured configuration, and
        // open region 7: 256 KiB of RAM, read-write for everyone.
        k.processes[1].setup_mpu();
        mpu.borrow_mut()
            .write_region(7, 0x2000_0000, 0x0300_0000 | (17 << 1) | 1);
        let scribbled = mpu.borrow().clone();
        snap.restore(&mut k);
        assert_ne!(*mpu.borrow(), scribbled);

        // Force the unit on: the kernel leaves it disabled between runs.
        let mut live = mpu.borrow().clone();
        live.enable = true;
        let mut rebuilt = CortexMpu::new();
        rebuilt.write_ctrl(true, live.privdefena);
        for i in 0..NUM_REGIONS {
            let r = live.region(i);
            rebuilt.write_rnr(i);
            rebuilt.write_rbar(r.rbar);
            rebuilt.write_rasr(r.rasr);
            assert_eq!(rebuilt.region(i), r);
        }
        let p0 = &k.processes[0];
        let (lo, hi) = (p0.memory_start(), p0.memory_start() + p0.memory_size());
        let flash = NRF52840DK.map.flash.start + 0x4_0000;
        let probes = (lo - 64..hi + 64)
            .step_by(8)
            .chain((flash - 64..flash + 0x2000).step_by(8))
            .chain([0x2000_0000, 0x2000_0100]);
        let mut allowed = 0;
        for addr in probes {
            for access in [AccessType::Read, AccessType::Write, AccessType::Execute] {
                for priv_ in [Privilege::Privileged, Privilege::Unprivileged] {
                    let d = live.check(addr, 1, access, priv_);
                    assert_eq!(d, rebuilt.check(addr, 1, access, priv_), "{addr:#x}");
                    allowed += usize::from(d.allowed() && priv_ == Privilege::Unprivileged);
                }
            }
        }
        assert!(allowed > 0, "process 0's regions must admit user accesses");
    }

    #[test]
    fn reset_stats_between_runs_cannot_survive_a_restore() {
        // `reset_stats` zeroes the hit/miss counters without touching the
        // cached key; a restore must overwrite *both* with the capture
        // values, whichever order a caller interleaves them in.
        tt_hw::cycles::reset();
        let mut k = boot_two(&NRF52840DK);
        let snap = MachineSnapshot::capture(&mut k);
        let at_capture = (k.machine.cache().hits(), k.machine.cache().misses());
        let mut apps: Vec<Box<dyn crate::kernel::App>> =
            vec![Box::new(Chatty { n: 0 }), Box::new(Chatty { n: 0 })];
        k.run_with_factories(&mut apps, None, 50);
        k.machine.cache().reset_stats();
        assert_eq!(
            (k.machine.cache().hits(), k.machine.cache().misses()),
            (0, 0)
        );
        snap.restore(&mut k);
        assert_eq!(
            (k.machine.cache().hits(), k.machine.cache().misses()),
            at_capture,
            "restore must rewind counters past an interleaved reset_stats"
        );
        // And the other order: restore, then a stray reset, then another
        // restore still converges on the capture counters.
        k.machine.cache().reset_stats();
        snap.restore(&mut k);
        assert_eq!(
            (k.machine.cache().hits(), k.machine.cache().misses()),
            at_capture
        );
    }
}
