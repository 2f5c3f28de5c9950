//! The `explore` workload: DPOR interrupt-schedule exploration over all
//! 7 chips through `tt_kernel::explore::explore`, one call per
//! (chip, baseline). The traced leg re-drives the same steps through the
//! explorer's public pieces with a span around each.

use std::time::Instant;

use tt_hw::injection::InjectionPlan;
use tt_hw::platform::ALL_CHIPS;
use tt_kernel::campaign::{FleetRunner, VICTIM};
use tt_kernel::explore::{
    bystander_reference, commuting_classes, enumerate_candidates, explore, validate_scheduled,
    ExploreOutcome,
};

use crate::fold::Counts;
use crate::sheet::Sheet;
use crate::stats::{mean, median, Dist};
use crate::Outcome;

/// Injection seeds per chip in one batch (plus the clean baseline).
pub const WINDOW: u64 = 120;

/// First seed of the window for workload seed 0. Seeds below it are the
/// ones the CI explorer (`e_explore`) sweeps, so the benchmark's windows
/// stay held out from them.
const BASE: u64 = 1_000;

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 15;

/// The batch's (chip index, baseline) units: per chip the clean run, then
/// the window of injection seeds picked by the workload seed.
pub fn units(seed: u64) -> Vec<(usize, Option<u64>)> {
    let first = BASE + seed * WINDOW;
    (0..ALL_CHIPS.len())
        .flat_map(|c| {
            std::iter::once((c, None)).chain((first..first + WINDOW).map(move |s| (c, Some(s))))
        })
        .collect()
}

/// `FleetRunner::new` per chip, `SETUP_REPS` times; returns the last set
/// and the median seconds.
fn setup() -> (Vec<FleetRunner>, f64) {
    let mut samples = Vec::new();
    let mut runners = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(runners);
        let t0 = Instant::now();
        runners = ALL_CHIPS.iter().map(FleetRunner::new).collect();
        samples.push(t0.elapsed().as_secs_f64());
    }
    (runners, median(&samples).expect("set-up samples"))
}

/// The deterministic shape of one unit's exploration.
type Shape = (usize, usize, usize, usize);

fn shape(o: &ExploreOutcome) -> Shape {
    (o.candidates, o.classes, o.explored, o.pruned)
}

/// Names the first count of `a` that differs from `b`.
fn drift(a: &[Shape], b: &[Shape], what: &str) -> Option<String> {
    let sum = |v: &[Shape], f: fn(&Shape) -> usize| -> usize { v.iter().map(f).sum() };
    type Field = (&'static str, fn(&Shape) -> usize);
    let fields: [Field; 4] = [
        ("candidates", |s| s.0),
        ("classes", |s| s.1),
        ("executed", |s| s.2),
        ("pruned", |s| s.3),
    ];
    for (name, f) in fields {
        let (x, y) = (sum(a, f), sum(b, f));
        if x != y {
            return Some(format!("explore: {name} drifted ({what}): {x} vs {y}"));
        }
    }
    (a != b).then(|| format!("explore: per-unit shape drifted ({what})"))
}

/// One untraced batch: `explore` per unit with a span around each call.
struct Batch {
    wall: f64,
    unit_ms: Vec<f64>,
    shapes: Vec<Shape>,
    findings: Vec<String>,
}

fn batch(runners: &mut [FleetRunner], units: &[(usize, Option<u64>)]) -> Batch {
    let t0 = Instant::now();
    let mut b = Batch {
        wall: 0.0,
        unit_ms: Vec::new(),
        shapes: Vec::new(),
        findings: Vec::new(),
    };
    for &(c, seed) in units {
        let t = Instant::now();
        let o = explore(&mut runners[c], seed, None);
        b.unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        b.shapes.push(shape(&o));
        b.findings.extend(o.findings.iter().map(|f| {
            format!(
                "explore: {} seed {seed:?} schedule {:#x}: {}",
                o.chip,
                f.minimized,
                f.failures.join("; ")
            )
        }));
    }
    b.wall = t0.elapsed().as_secs_f64();
    b
}

/// Executed schedules and findings → attempted and failed.
fn tally(b: &Batch, out: &mut Outcome) {
    out.attempted += b.shapes.iter().map(|s| s.2 as u64).sum::<u64>();
    out.failed += b.findings.len() as u64;
    out.errors.extend(b.findings.iter().take(3).cloned());
}

/// The untraced `explore` run: set-up, then repeated batches over the
/// seed's window for `seconds`.
pub fn run(seed: u64, seconds: f64, sheet: &mut Sheet) -> Outcome {
    let mut out = Outcome::default();
    let units = units(seed);
    let (mut runners, setup_s) = setup();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut rates = Vec::new();
    let mut per_run_ms = Vec::new();
    let mut unit_ms = Vec::new();
    let mut first: Option<Vec<Shape>> = None;
    while rates.len() < 3 || Instant::now() < t_end {
        let b = batch(&mut runners, &units);
        tally(&b, &mut out);
        match &first {
            None => first = Some(b.shapes.clone()),
            Some(f) => out.errors.extend(drift(&b.shapes, f, "between batches")),
        }
        let covered: usize = b.shapes.iter().map(|s| s.0).sum();
        let executed: usize = b.shapes.iter().map(|s| s.2).sum();
        rates.push(covered as f64 / b.wall);
        per_run_ms.push(b.wall * 1e3 / executed.max(1) as f64);
        unit_ms.extend(b.unit_ms);
        if !out.errors.is_empty() {
            return out;
        }
    }
    let shapes = first.expect("one batch");
    let candidates: usize = shapes.iter().map(|s| s.0).sum();
    let executed: usize = shapes.iter().map(|s| s.2).sum();
    let rate = median(&rates).expect("batches");
    let lat = Dist::of(&unit_ms).expect("unit samples");
    let window = format!(
        "{} units: 7 chips x (clean + seeds {}..{})",
        units.len(),
        units[1].1.unwrap_or(0),
        units[1].1.unwrap_or(0) + WINDOW
    );
    sheet.put(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUP_REPS} set-ups: FleetRunner::new x 7"),
    );
    sheet.put(
        "candidates_per_s",
        rate,
        "1/s",
        format!(
            "median of {} batches; {window}; {candidates} candidates, {executed} executed",
            rates.len()
        ),
    );
    sheet.put("work_per_s", rate, "1/s", "= candidates_per_s");
    sheet.put(
        "latency_ms",
        median(&per_run_ms).expect("batches"),
        "ms",
        "batch wall per executed schedule, median over batches",
    );
    sheet.put(
        "unit_ms.p50",
        lat.p50,
        "ms",
        format!("one explore() call, n={}", lat.n),
    );
    sheet.put(
        format!("unit_ms.p{}", lat.tail_pct),
        lat.tail,
        "ms",
        format!("highest percentile with >=10 of {} samples beyond", lat.n),
    );
    out
}

/// The traced `explore` leg: one untraced batch, then the same units
/// re-driven step by step with spans, checked against the untraced shapes.
pub fn traced(seed: u64, sheet: &mut Sheet) -> Outcome {
    let mut out = Outcome::default();
    let units = units(seed);
    let (mut runners, _) = setup();
    let untraced = batch(&mut runners, &units);
    tally(&untraced, &mut out);

    let t0 = Instant::now();
    let mut baseline_us = Vec::new();
    let mut enumerate_us = Vec::new();
    let mut classes_us = Vec::new();
    let mut run_us = Vec::new();
    let mut validate_us = Vec::new();
    let mut span_total = 0.0;
    let mut shapes = Vec::new();
    let mut irq_fired = 0u64;
    let mut counts = Counts::default();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for &(c, seed) in &units {
        let chip = ALL_CHIPS[c];
        let runner = &mut runners[c];
        let plan = seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
        let prefix = runner.boot_events();

        let t = Instant::now();
        let baseline = runner.run_plan(plan.clone());
        let reference = match seed {
            Some(_) => bystander_reference(&runner.run_plan(None)),
            None => bystander_reference(&baseline),
        };
        baseline_us.push(us(t));

        let t = Instant::now();
        let candidates = enumerate_candidates(&baseline.trace.events, prefix);
        enumerate_us.push(us(t));

        let t = Instant::now();
        let classes = commuting_classes(&baseline.trace.events, &candidates);
        classes_us.push(us(t));

        let mut pruned = 0;
        for class in &classes {
            pruned += class.len() - 1;
            let schedule = class[0].schedule();
            let t = Instant::now();
            let run = runner.run_scheduled(plan.clone(), &schedule);
            run_us.push(us(t));
            irq_fired += run.irq_fired;
            counts.merge(&Counts::of(
                &run.trace.events[prefix.min(run.trace.events.len())..],
            ));
            let t = Instant::now();
            let failures = validate_scheduled(&chip, &run, schedule.id(), &reference);
            validate_us.push(us(t));
            if !failures.is_empty() {
                out.failed += 1;
                out.errors.push(format!(
                    "explore (traced): {} schedule {:#x}: {}",
                    chip.name,
                    schedule.id(),
                    failures.join("; ")
                ));
            }
        }
        shapes.push((candidates.len(), classes.len(), classes.len(), pruned));
    }
    let traced_wall = t0.elapsed().as_secs_f64();
    for v in [
        &baseline_us,
        &enumerate_us,
        &classes_us,
        &run_us,
        &validate_us,
    ] {
        span_total += v.iter().sum::<f64>() / 1e6;
    }
    out.errors
        .extend(drift(&shapes, &untraced.shapes, "traced vs untraced pass"));
    if counts.irq_enters != irq_fired {
        out.errors.push(format!(
            "explore: IrqEnter events {} vs irq_fired {irq_fired}",
            counts.irq_enters
        ));
    }

    let runs = run_us.len() as f64;
    let candidates: usize = shapes.iter().map(|s| s.0).sum();
    let sched = Dist::of(&run_us).expect("scheduled runs");
    let per_unit = format!("mean per unit, {} units", units.len());
    sheet.put(
        "explore.candidates",
        candidates as f64,
        "count",
        "per batch",
    );
    sheet.put(
        "explore.baseline_us",
        mean(&baseline_us),
        "us",
        format!("{per_unit}; baseline + reference run"),
    );
    sheet.put(
        "explore.enumerate_us",
        mean(&enumerate_us),
        "us",
        per_unit.clone(),
    );
    sheet.put("explore.classes_us", mean(&classes_us), "us", per_unit);
    sheet.put(
        "explore.scheduled_run_us.p50",
        sched.p50,
        "us",
        format!("n={}", sched.n),
    );
    sheet.put(
        "explore.scheduled_run_us.p99",
        sched.tail,
        "us",
        format!("n={}, tail at p{}", sched.n, sched.tail_pct),
    );
    sheet.put(
        "explore.validate_us",
        mean(&validate_us),
        "us",
        "mean per scheduled run",
    );
    sheet.put(
        "explore.prune_ratio",
        candidates as f64 / runs,
        "x",
        "candidates per executed schedule",
    );
    sheet.put("explore.executed", runs, "count", "per batch");
    sheet.put(
        "explore.unattributed_frac",
        (traced_wall - span_total) / traced_wall,
        "frac",
        "traced wall outside the step spans",
    );
    sheet.put(
        "explore.trace_overhead_frac",
        traced_wall / untraced.wall - 1.0,
        "frac",
        "traced re-drive vs explore() batch",
    );
    sheet.put(
        "sched.irq_fired_per_run",
        irq_fired as f64 / runs,
        "count",
        "arrivals per scheduled run",
    );
    out
}
