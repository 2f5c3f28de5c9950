//! Folds drained traces into per-run work counts by [`TraceEvent`] kind.
//!
//! The trace ring is the simulator's own record of what each layer did,
//! so the per-layer counts of the traced pass come from here rather than
//! from new hooks inside the program.

use tt_hw::trace::TraceEvent;

/// Work counts summed over any number of runs' events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Events folded.
    pub events: u64,
    /// Syscall handler entries (`kernel` layer).
    pub syscalls: u64,
    /// Scheduler switches, in and out (`kernel` layer).
    pub context_switches: u64,
    /// Accesses denied by the protection unit (`kernel` / `hw`).
    pub bus_faults: u64,
    /// Processes restarted by fault recovery (`recovery` layer).
    pub restarts: u64,
    /// Granular allocator commits (`ticktock` layer).
    pub allocator_commits: u64,
    /// Whole-process MPU/PMP configuration commits (`hw` layer).
    pub mpu_commits: u64,
    /// Protection-unit register writes that reached the register file.
    pub reg_writes: u64,
    /// Injections the fault engine fired (`injection` layer).
    pub injections: u64,
    /// Scheduled timer-interrupt arrivals serviced (`sched` layer).
    pub irq_enters: u64,
}

impl Counts {
    /// Adds one event.
    pub fn add(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match ev {
            TraceEvent::SyscallEnter { .. } => self.syscalls += 1,
            TraceEvent::ContextSwitch { .. } => self.context_switches += 1,
            TraceEvent::BusFault { .. } => self.bus_faults += 1,
            TraceEvent::ProcessRestart { .. } => self.restarts += 1,
            TraceEvent::AllocatorCommit { .. } => self.allocator_commits += 1,
            TraceEvent::MpuCommit { .. } => self.mpu_commits += 1,
            TraceEvent::RegWrite { .. } => self.reg_writes += 1,
            TraceEvent::FaultInjected { .. } => self.injections += 1,
            TraceEvent::IrqEnter { .. } => self.irq_enters += 1,
            _ => {}
        }
    }

    /// Folds a slice of events.
    pub fn of(events: &[TraceEvent]) -> Counts {
        let mut c = Counts::default();
        for ev in events {
            c.add(ev);
        }
        c
    }

    /// Field-wise sum.
    pub fn merge(&mut self, o: &Counts) {
        self.events += o.events;
        self.syscalls += o.syscalls;
        self.context_switches += o.context_switches;
        self.bus_faults += o.bus_faults;
        self.restarts += o.restarts;
        self.allocator_commits += o.allocator_commits;
        self.mpu_commits += o.mpu_commits;
        self.reg_writes += o.reg_writes;
        self.injections += o.injections;
        self.irq_enters += o.irq_enters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_hw::trace::{RegName, SwitchDir, SyscallKind};

    #[test]
    fn folds_a_hand_built_slice_by_kind() {
        let events = [
            TraceEvent::ProcessLoad { pid: 0 },
            TraceEvent::SyscallEnter {
                pid: 0,
                call: SyscallKind::Brk,
                arg0: 1,
                arg1: 0,
                arg2: 0,
            },
            TraceEvent::SyscallExit {
                pid: 0,
                call: SyscallKind::Brk,
                ok: true,
                value: 0,
            },
            TraceEvent::AllocatorCommit { regions: 2 },
            TraceEvent::MpuCommit { pid: 0 },
            TraceEvent::RegWrite {
                reg: RegName::Rnr,
                index: 0,
                value: 0,
            },
            TraceEvent::RegWrite {
                reg: RegName::Ctrl,
                index: 0,
                value: 5,
            },
            TraceEvent::ContextSwitch {
                pid: 0,
                dir: SwitchDir::In,
            },
            TraceEvent::ContextSwitch {
                pid: 0,
                dir: SwitchDir::Out,
            },
            TraceEvent::BusFault {
                pid: 1,
                addr: 0x2000_0000,
                write: true,
            },
            TraceEvent::ProcessFault { pid: 1 },
            TraceEvent::ProcessRestart { pid: 1 },
            TraceEvent::IdleExit,
        ];
        let c = Counts::of(&events);
        assert_eq!(
            c,
            Counts {
                events: 13,
                syscalls: 1,
                context_switches: 2,
                bus_faults: 1,
                restarts: 1,
                allocator_commits: 1,
                mpu_commits: 1,
                reg_writes: 2,
                injections: 0,
                irq_enters: 0,
            }
        );
        let mut twice = c;
        twice.merge(&c);
        assert_eq!(twice.events, 26);
        assert_eq!(twice.reg_writes, 4);
        assert_eq!(Counts::of(&[]), Counts::default());
    }
}
