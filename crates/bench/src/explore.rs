//! Fleet-scale schedule exploration: the `e_explore` engine and gate.
//!
//! Wraps `tt_kernel::explore` in the same shape as the fault-campaign
//! machinery: a pool of thread-affine [`FleetRunner`]s walks every
//! `(chip, baseline)` unit — the clean baseline plus `--seeds` injected
//! ones per chip — and explores one interrupt-arrival representative per
//! commuting class. The gate demands a schedule-clean campaign, a DPOR
//! pruning ratio above the `min_explore_prune_ratio` floor in
//! `ci/bench_baseline.json`, and detector power: the planted
//! commit-window bug ([`tt_kernel::explore::planted`]) must be invisible
//! to a seed sweep, found by exploration, and absent on the control
//! kernel when its minimized schedule is replayed.
//!
//! Findings persist as version-2 [`CorpusRecord`]s (`ci/corpus/
//! schedules.bin`): the 64-bit schedule ID plus baseline seed (or the
//! `clean` flag) are the whole input, so a later run replays them first.

use std::path::Path;
use std::time::Instant;

use tt_contracts::pool;
use tt_hw::injection::InjectionPlan;
use tt_hw::platform::{ChipProfile, ALL_CHIPS};
use tt_hw::sched::InterruptSchedule;
use tt_kernel::campaign::{FleetRunner, VICTIM};
use tt_kernel::corpus::{read_corpus, CorpusRecord};
use tt_kernel::explore::{
    bystander_reference, explore, planted, validate_scheduled, ExploreOutcome, Finding,
};

use crate::json;

/// One fleet-scale exploration: every chip, clean + seeded baselines.
#[derive(Debug)]
pub struct ExploreFleet {
    /// Injected baselines explored per chip (the clean one rides free).
    pub seeds_per_chip: u64,
    /// Worker count.
    pub threads: usize,
    /// Wall clock, milliseconds.
    pub wall_ms: f64,
    /// Per-unit outcomes in `(chip, baseline)` order.
    pub outcomes: Vec<ExploreOutcome>,
}

impl ExploreFleet {
    /// Candidate arrivals enumerated across all units.
    pub fn candidates(&self) -> usize {
        self.outcomes.iter().map(|o| o.candidates).sum()
    }

    /// Representatives actually executed.
    pub fn explored(&self) -> usize {
        self.outcomes.iter().map(|o| o.explored).sum()
    }

    /// Candidates pruned as commuting with an executed representative.
    pub fn pruned(&self) -> usize {
        self.outcomes.iter().map(|o| o.pruned).sum()
    }

    /// Units a wall-clock budget or cap stopped early.
    pub fn truncated_units(&self) -> usize {
        self.outcomes.iter().filter(|o| o.truncated).count()
    }

    /// All findings across units.
    pub fn findings(&self) -> Vec<&Finding> {
        self.outcomes.iter().flat_map(|o| &o.findings).collect()
    }

    /// Rendered oracle failures across all findings.
    pub fn failures(&self) -> Vec<&String> {
        self.outcomes
            .iter()
            .flat_map(|o| &o.findings)
            .flat_map(|f| &f.failures)
            .collect()
    }

    /// Aggregate candidates-per-executed-run over *complete* units only.
    /// Truncated units would inflate the ratio (their candidates count
    /// but their runs were cut short), so they are excluded — the CI
    /// floor gates honest pruning, not budget exhaustion.
    pub fn prune_ratio(&self) -> f64 {
        let (cand, expl) = self
            .outcomes
            .iter()
            .filter(|o| !o.truncated)
            .fold((0usize, 0usize), |(c, e), o| {
                (c + o.candidates, e + o.explored)
            });
        if expl == 0 {
            0.0
        } else {
            cand as f64 / expl as f64
        }
    }
}

/// Explores every `(chip, baseline)` unit on a work-stealing pool.
///
/// Baselines per chip: clean (`None`) plus seeds `0..seeds`. Each worker
/// keeps one [`FleetRunner`] per chip it touches (runners are
/// thread-affine), so outcomes are a pure function of the unit —
/// byte-identical across thread counts. `cap` bounds representatives per
/// unit; `budget_ms` is a fleet-wide wall-clock budget — units starting
/// past it report `truncated` with zero work instead of running (the one
/// deliberately nondeterministic knob, for CI).
pub fn run_explore_fleet(
    chips: &[ChipProfile],
    seeds: u64,
    cap: Option<usize>,
    threads: usize,
    budget_ms: Option<f64>,
) -> ExploreFleet {
    let t0 = Instant::now();
    let units: Vec<(usize, Option<u64>)> = (0..chips.len())
        .flat_map(|c| std::iter::once((c, None)).chain((0..seeds).map(move |s| (c, Some(s)))))
        .collect();
    let outcomes = pool::run_indexed_ctx(
        &units,
        threads,
        Vec::new,
        |runners: &mut Vec<Option<FleetRunner>>, _, &(c, seed)| {
            if budget_ms.is_some_and(|ms| t0.elapsed().as_secs_f64() * 1e3 >= ms) {
                return ExploreOutcome {
                    chip: chips[c].name.to_string(),
                    seed,
                    candidates: 0,
                    classes: 0,
                    explored: 0,
                    pruned: 0,
                    truncated: true,
                    findings: Vec::new(),
                };
            }
            if runners.len() < chips.len() {
                runners.resize_with(chips.len(), || None);
            }
            let runner = runners[c].get_or_insert_with(|| FleetRunner::new(&chips[c]));
            explore(runner, seed, cap)
        },
    );
    ExploreFleet {
        seeds_per_chip: seeds,
        threads,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        outcomes,
    }
}

/// The detector-power demonstration on one chip: the planted
/// commit-window bug must slip past a seed sweep and fall to the
/// explorer, whose minimized schedule must be harmless on the control
/// kernel.
#[derive(Debug)]
pub struct PlantedDemo {
    /// Chip the demonstration ran on.
    pub chip: String,
    /// Seeded (uninterrupted) campaign runs swept on the buggy kernel.
    pub campaign_seeds: u64,
    /// Seeds whose run failed the oracle — expected 0 (the bug only
    /// bites when an interrupt lands inside the commit window).
    pub seed_failures: usize,
    /// Exploration of the buggy kernel's clean baseline — expected to
    /// carry at least one finding.
    pub outcome: ExploreOutcome,
    /// Oracle failures when each finding's minimized schedule replays on
    /// the *correct* kernel — expected 0 (the schedule exposes the bug,
    /// not a broken oracle).
    pub control_failures: usize,
}

/// Runs the planted-bug demonstration: `campaign_seeds` seeded runs on
/// the buggy kernel (all expected green), one full exploration (expected
/// to find the bug), and a control replay of every minimized schedule.
pub fn planted_demo(chip: &ChipProfile, campaign_seeds: u64) -> PlantedDemo {
    let mut runner = planted::runner(chip);
    let reference = bystander_reference(&runner.run_plan(None));
    let mut seed_failures = 0;
    for s in 0..campaign_seeds {
        let run = runner.run_seed(Some(s));
        seed_failures += usize::from(!validate_scheduled(chip, &run, 0, &reference).is_empty());
    }
    let outcome = explore(&mut runner, None, None);
    let mut control = planted::control_runner(chip);
    let control_reference = bystander_reference(&control.run_plan(None));
    let mut control_failures = 0;
    for f in &outcome.findings {
        let schedule = InterruptSchedule::from_id(f.minimized);
        let run = control.run_scheduled(None, &schedule);
        control_failures += validate_scheduled(chip, &run, f.minimized, &control_reference).len();
    }
    PlantedDemo {
        chip: chip.name.to_string(),
        campaign_seeds,
        seed_failures,
        outcome,
        control_failures,
    }
}

/// Reduces a fleet's findings to version-2 corpus records: the minimized
/// schedule ID plus its baseline (seed, or the `clean` flag) re-drive
/// the failing run exactly.
pub fn explore_records(outcomes: &[ExploreOutcome]) -> Vec<CorpusRecord> {
    outcomes
        .iter()
        .flat_map(|o| {
            let chip = ALL_CHIPS
                .iter()
                .position(|c| c.name == o.chip)
                .unwrap_or(u8::MAX as usize) as u8;
            o.findings.iter().map(move |f| CorpusRecord {
                chip,
                cold: false,
                killed: false,
                clean: o.seed.is_none(),
                seed: o.seed.unwrap_or(0),
                schedule: f.minimized,
                fired: f.irq_fired.min(u64::from(u16::MAX)) as u16,
                restarts: 0,
                recoveries: 0,
                failures: f.failures.len().min(u16::MAX as usize) as u16,
                trace_len: 0,
                recovery_cycles: 0,
            })
        })
        .collect()
}

/// Replays persisted schedule records against the standard campaign
/// scenario, returning every oracle failure that still reproduces (a
/// previously-found schedule that now passes contributes nothing).
pub fn replay_schedule_records(records: &[CorpusRecord]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut runners: Vec<Option<(FleetRunner, Vec<Vec<tt_hw::trace::TraceEvent>>)>> =
        std::iter::repeat_with(|| None)
            .take(ALL_CHIPS.len())
            .collect();
    for r in records.iter().filter(|r| r.schedule != 0) {
        let idx = r.chip as usize;
        if idx >= ALL_CHIPS.len() {
            failures.push(format!("corpus chip index {} out of range", r.chip));
            continue;
        }
        let (runner, reference) = runners[idx].get_or_insert_with(|| {
            let mut runner = FleetRunner::new(&ALL_CHIPS[idx]);
            let reference = bystander_reference(&runner.run_plan(None));
            (runner, reference)
        });
        let plan = (!r.clean).then(|| InjectionPlan::from_seed(r.seed, VICTIM as u32));
        let run = runner.run_scheduled(plan, &InterruptSchedule::from_id(r.schedule));
        failures.extend(validate_scheduled(
            &ALL_CHIPS[idx],
            &run,
            r.schedule,
            reference,
        ));
    }
    failures
}

/// Reads `<dir>/schedules.bin` into replayable records. A missing file
/// is an empty corpus; a malformed one is a real error.
pub fn schedule_corpus(dir: &Path) -> std::io::Result<Vec<CorpusRecord>> {
    let path = dir.join("schedules.bin");
    if !path.exists() {
        return Ok(Vec::new());
    }
    read_corpus(&path)
}

/// Renders the per-chip exploration table plus the planted-bug summary.
pub fn render(fleet: &ExploreFleet, demo: &PlantedDemo) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "schedule exploration: {} chips x (1 clean + {} seeded) baselines, {} threads\n",
        fleet.outcomes.len() / (fleet.seeds_per_chip as usize + 1).max(1),
        fleet.seeds_per_chip,
        fleet.threads,
    ));
    out.push_str(&format!(
        "{:<14} {:>6} {:>10} {:>8} {:>9} {:>8} {:>7} {:>9} {:>6}\n",
        "chip",
        "units",
        "candidates",
        "classes",
        "explored",
        "pruned",
        "ratio",
        "findings",
        "trunc"
    ));
    for chip in &ALL_CHIPS {
        let rows: Vec<&ExploreOutcome> = fleet
            .outcomes
            .iter()
            .filter(|o| o.chip == chip.name)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let cand: usize = rows.iter().map(|o| o.candidates).sum();
        let explored: usize = rows.iter().map(|o| o.explored).sum();
        out.push_str(&format!(
            "{:<14} {:>6} {:>10} {:>8} {:>9} {:>8} {:>7} {:>9} {:>6}\n",
            chip.name,
            rows.len(),
            cand,
            rows.iter().map(|o| o.classes).sum::<usize>(),
            explored,
            rows.iter().map(|o| o.pruned).sum::<usize>(),
            if explored == 0 {
                "-".to_string()
            } else {
                format!("{:.2}x", cand as f64 / explored as f64)
            },
            rows.iter().map(|o| o.findings.len()).sum::<usize>(),
            rows.iter().filter(|o| o.truncated).count(),
        ));
    }
    out.push_str(&format!(
        "total: {} candidates -> {} executed ({} pruned, {:.2}x), {} finding(s)\n",
        fleet.candidates(),
        fleet.explored(),
        fleet.pruned(),
        fleet.prune_ratio(),
        fleet.findings().len(),
    ));
    for f in fleet.failures() {
        out.push_str(&format!("  FINDING {f}\n"));
    }
    out.push_str(&format!(
        "planted commit-window bug ({}): {} seeds -> {} failure(s); explorer: {} \
         finding(s) in {} runs; control replay failures: {}\n",
        demo.chip,
        demo.campaign_seeds,
        demo.seed_failures,
        demo.outcome.findings.len(),
        demo.outcome.explored,
        demo.control_failures,
    ));
    for f in &demo.outcome.findings {
        out.push_str(&format!(
            "  planted repro: schedule {:#x} -> minimized {:#x} ({} arrival(s) fired)\n",
            f.schedule, f.minimized, f.irq_fired
        ));
    }
    out
}

/// Renders the `BENCH_explore.json` document. Wall-clock lives inside
/// `fleet`; determinism tests pin it and compare whole documents.
pub fn explore_json(fleet: &ExploreFleet, demo: &PlantedDemo) -> String {
    let mut doc = String::new();
    doc.push_str("{\n  \"experiment\": \"e_explore\",\n");
    doc.push_str(&format!(
        "  \"seeds_per_chip\": {},\n  \"threads\": {},\n",
        fleet.seeds_per_chip, fleet.threads
    ));
    doc.push_str(&format!(
        "  \"candidates\": {},\n  \"explored\": {},\n  \"pruned\": {},\n",
        fleet.candidates(),
        fleet.explored(),
        fleet.pruned()
    ));
    doc.push_str(&format!(
        "  \"prune_ratio\": {},\n  \"findings\": {},\n  \"truncated_units\": {},\n",
        json::num(fleet.prune_ratio()),
        fleet.findings().len(),
        fleet.truncated_units()
    ));
    doc.push_str(&format!(
        "  \"wall_clock_ms\": {},\n",
        json::num(fleet.wall_ms)
    ));
    doc.push_str("  \"chips\": [\n");
    let chips: Vec<&ChipProfile> = ALL_CHIPS
        .iter()
        .filter(|c| fleet.outcomes.iter().any(|o| o.chip == c.name))
        .collect();
    for (i, chip) in chips.iter().enumerate() {
        let rows: Vec<&ExploreOutcome> = fleet
            .outcomes
            .iter()
            .filter(|o| o.chip == chip.name)
            .collect();
        let cand: usize = rows.iter().map(|o| o.candidates).sum();
        let explored: usize = rows.iter().map(|o| o.explored).sum();
        doc.push_str(&format!(
            "    {{\"chip\": \"{}\", \"units\": {}, \"candidates\": {}, \"classes\": {}, \
             \"explored\": {}, \"pruned\": {}, \"prune_ratio\": {}, \"findings\": {}, \
             \"truncated\": {}}}{}\n",
            json::escape(chip.name),
            rows.len(),
            cand,
            rows.iter().map(|o| o.classes).sum::<usize>(),
            explored,
            rows.iter().map(|o| o.pruned).sum::<usize>(),
            if explored == 0 {
                "null".to_string()
            } else {
                json::num(cand as f64 / explored as f64)
            },
            rows.iter().map(|o| o.findings.len()).sum::<usize>(),
            rows.iter().filter(|o| o.truncated).count(),
            if i + 1 < chips.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!(
        "  \"planted\": {{\"chip\": \"{}\", \"campaign_seeds\": {}, \"seed_failures\": {}, \
         \"explorer_findings\": {}, \"explorer_runs\": {}, \"minimized\": [{}], \
         \"control_failures\": {}}}\n",
        json::escape(&demo.chip),
        demo.campaign_seeds,
        demo.seed_failures,
        demo.outcome.findings.len(),
        demo.outcome.explored,
        demo.outcome
            .findings
            .iter()
            .map(|f| format!("\"{:#x}\"", f.minimized))
            .collect::<Vec<_>>()
            .join(", "),
        demo.control_failures,
    ));
    doc.push_str("}\n");
    doc
}

/// The CI gate. Fails on: any schedule finding on the real campaign
/// scenario, a replayed corpus schedule still failing, a pruning ratio
/// under the baseline's `min_explore_prune_ratio` floor (complete units
/// only — and at least one unit must have completed), or a planted-bug
/// demonstration that lost detector power.
pub fn check(
    fleet: &ExploreFleet,
    demo: &PlantedDemo,
    replayed: &[String],
    baseline: &str,
) -> Result<Vec<String>, Vec<String>> {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    for f in fleet.failures() {
        failures.push(format!("campaign schedule: {f}"));
    }
    if fleet.failures().is_empty() {
        notes.push(format!(
            "campaign schedules: {} representatives clean ({} candidates, {} pruned)",
            fleet.explored(),
            fleet.candidates(),
            fleet.pruned()
        ));
    }
    for f in replayed {
        failures.push(format!("corpus replay: {f}"));
    }
    if fleet.outcomes.iter().all(|o| o.truncated) {
        failures.push("every exploration unit was truncated; raise the budget".into());
    } else {
        match json::read_number(baseline, "min_explore_prune_ratio") {
            Some(floor) => {
                let ratio = fleet.prune_ratio();
                if ratio < floor {
                    failures.push(format!(
                        "prune ratio {ratio:.2}x below floor {floor:.2}x \
                         ({} candidates / {} executed over complete units)",
                        fleet.candidates(),
                        fleet.explored()
                    ));
                } else {
                    notes.push(format!("prune ratio: {ratio:.2}x >= floor {floor:.2}x"));
                }
            }
            None => notes.push("baseline has no min_explore_prune_ratio; floor skipped".into()),
        }
    }
    if demo.seed_failures > 0 {
        failures.push(format!(
            "planted bug: {} of {} seeded runs failed — the bug is not \
             schedule-only, the demonstration is broken",
            demo.seed_failures, demo.campaign_seeds
        ));
    }
    if demo.outcome.findings.is_empty() {
        failures.push("planted bug: the explorer found nothing — detector power lost".into());
    }
    if demo.control_failures > 0 {
        failures.push(format!(
            "planted bug: minimized schedule fails {} check(s) on the correct \
             kernel — the oracle, not the bug, is tripping",
            demo.control_failures
        ));
    }
    if demo.seed_failures == 0 && !demo.outcome.findings.is_empty() && demo.control_failures == 0 {
        notes.push(format!(
            "planted bug: {} seeds green, explorer found {} schedule(s), control clean",
            demo.campaign_seeds,
            demo.outcome.findings.len()
        ));
    }
    if failures.is_empty() {
        Ok(notes)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_hw::platform::NRF52840DK;
    use tt_hw::sched::ArrivalPoint;

    // Pins the two honestly-varying fields (wall clock, worker count) so
    // whole documents can be compared for determinism.
    fn pinned(mut fleet: ExploreFleet) -> ExploreFleet {
        fleet.wall_ms = 1.0;
        fleet.threads = 1;
        fleet
    }

    #[test]
    fn fleet_is_deterministic_across_thread_counts_and_json_round_trips() {
        let serial = pinned(run_explore_fleet(&ALL_CHIPS[..1], 1, Some(6), 1, None));
        let pooled = pinned(run_explore_fleet(&ALL_CHIPS[..1], 1, Some(6), 3, None));
        let demo = planted_demo(&NRF52840DK, 3);
        let a = explore_json(&serial, &demo);
        let b = explore_json(&pooled, &demo);
        assert_eq!(a, b, "exploration must not depend on the thread count");
        assert_eq!(json::read_number(&a, "seeds_per_chip"), Some(1.0));
        assert_eq!(
            json::read_number(&a, "explored"),
            Some(serial.explored() as f64)
        );
        assert!(json::read_number(&a, "prune_ratio").is_some());
        // Both units ran under the cap: 6 representatives each, max.
        assert!(serial.explored() <= 12);
        assert_eq!(serial.truncated_units(), 2);
    }

    #[test]
    fn gate_passes_clean_runs_and_fails_weak_pruning_or_lost_detector_power() {
        let fleet = pinned(run_explore_fleet(&ALL_CHIPS[..1], 0, None, 1, None));
        let demo = planted_demo(&NRF52840DK, 3);
        assert!(fleet.failures().is_empty());
        let notes = check(&fleet, &demo, &[], "{\"min_explore_prune_ratio\": 2.0}").unwrap();
        assert!(notes.iter().any(|n| n.contains("prune ratio")));
        // An absurd floor fails the gate.
        let err = check(&fleet, &demo, &[], "{\"min_explore_prune_ratio\": 999.0}").unwrap_err();
        assert!(err.iter().any(|f| f.contains("below floor")));
        // A still-reproducing corpus replay fails the gate.
        let err = check(&fleet, &demo, &["chip X schedule 0x123: boom".into()], "{}").unwrap_err();
        assert!(err.iter().any(|f| f.contains("corpus replay")));
        // A demo whose explorer found nothing fails the gate.
        let blind = PlantedDemo {
            chip: demo.chip.clone(),
            campaign_seeds: demo.campaign_seeds,
            seed_failures: 0,
            outcome: ExploreOutcome {
                findings: Vec::new(),
                ..demo.outcome.clone()
            },
            control_failures: 0,
        };
        let err = check(&fleet, &blind, &[], "{}").unwrap_err();
        assert!(err.iter().any(|f| f.contains("detector power")));
    }

    #[test]
    fn planted_demo_has_detector_power() {
        let demo = planted_demo(&NRF52840DK, 5);
        assert_eq!(demo.seed_failures, 0, "seeds must miss the planted bug");
        assert!(
            !demo.outcome.findings.is_empty(),
            "the explorer must find the planted bug"
        );
        assert_eq!(demo.control_failures, 0, "control kernel must survive");
    }

    #[test]
    fn findings_round_trip_through_the_schedule_corpus() {
        let demo = planted_demo(&NRF52840DK, 0);
        let records = explore_records(std::slice::from_ref(&demo.outcome));
        assert_eq!(records.len(), demo.outcome.findings.len());
        assert!(records.iter().all(|r| r.schedule != 0 && r.clean));
        let dir = std::env::temp_dir().join(format!("tt-explore-corpus-{}", std::process::id()));
        tt_kernel::corpus::write_corpus(&dir.join("schedules.bin"), &records).unwrap();
        assert_eq!(schedule_corpus(&dir).unwrap(), records);
        std::fs::remove_dir_all(&dir).unwrap();
        // Replaying a schedule the standard campaign survives yields no
        // failures; an out-of-range chip index is a loud error.
        let survivor = CorpusRecord {
            chip: 0,
            schedule: InterruptSchedule::single(ArrivalPoint::SyscallEnter, 1).id(),
            clean: true,
            ..records[0]
        };
        assert!(replay_schedule_records(&[survivor]).is_empty());
        let bogus = CorpusRecord {
            chip: u8::MAX,
            ..survivor
        };
        assert_eq!(replay_schedule_records(&[bogus]).len(), 1);
    }
}
