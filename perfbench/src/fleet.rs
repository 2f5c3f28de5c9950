//! The `fleet` workload: the fault-injection fleet campaign through
//! `run_campaign_profiled`, serially and at `nproc` workers, plus the
//! count pass and the traced pass that drive `FleetRunner` directly in
//! the campaign's (chip, seed, mode) order.

use std::collections::BTreeMap;
use std::time::Instant;

use tt_hw::commit_cache;
use tt_hw::cycles;
use tt_hw::platform::{ChipProfile, ALL_CHIPS};
use tt_kernel::campaign::{self, CampaignResult, FleetRunner, UnitOutcome, VICTIM};
use tt_kernel::ProcessState;

use crate::fold::Counts;
use crate::sheet::{Sheet, METHODS};
use crate::stats::{median, Dist};
use crate::{ms, Outcome};

/// Seeds per chip in one campaign batch: 7 chips × 1000 seeds × 2 cache
/// modes = 14,000 injected runs. `run_campaign_profiled` takes no seed
/// offset, so every batch runs seeds `0..SEEDS` whatever `--seed` says.
pub const SEEDS: u64 = 1000;

/// Seeds per chip read back through the Fig. 11 method recorder.
const METHOD_SEEDS: u64 = 40;

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 15;

/// Probe calls per chip and path.
const PROBE_ITERS: usize = 200;

/// Runs `f` with the commit cache off for the cold half, on for the warm.
fn in_mode<T>(cold: bool, f: impl FnOnce() -> T) -> T {
    if cold {
        commit_cache::with_disabled(f)
    } else {
        f()
    }
}

/// One chip's runner pair, indexed by `usize::from(cold)`.
fn runners(chip: &ChipProfile) -> [FleetRunner; 2] {
    [
        FleetRunner::new(chip),
        commit_cache::with_disabled(|| FleetRunner::new(chip)),
    ]
}

/// The campaign's set-up, driven through public calls: one fresh-boot
/// reference per chip plus a warm and a cold runner (boot and both
/// snapshot captures). Returns the median seconds and the median
/// reference-run seconds (the attribution check's stand-in for the
/// campaign's private reference phase).
fn setup() -> (f64, f64) {
    let mut totals = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for chip in &ALL_CHIPS {
            let reference = campaign::run_one(chip, None);
            tt_hw::trace::recycle(reference.trace);
        }
        let t1 = Instant::now();
        for chip in &ALL_CHIPS {
            drop(runners(chip));
        }
        refs.push((t1 - t0).as_secs_f64());
        totals.push(t0.elapsed().as_secs_f64());
    }
    (
        median(&totals).expect("set-up samples"),
        median(&refs).expect("reference samples"),
    )
}

/// Deterministic totals of a batch, compared across batches and passes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Tally {
    runs: u64,
    fired: u64,
    recoveries: u64,
    restarts: u64,
    killed: u64,
    recovery_cycles: u64,
    trace_events: u64,
    /// Order-sensitive digest of the per-run tuple above.
    digest: u64,
}

impl Tally {
    fn add(
        &mut self,
        fired: u64,
        recoveries: u32,
        restarts: u32,
        killed: bool,
        rc: u64,
        events: usize,
    ) {
        self.runs += 1;
        self.fired += fired;
        self.recoveries += u64::from(recoveries);
        self.restarts += u64::from(restarts);
        self.killed += u64::from(killed);
        self.recovery_cycles += rc;
        self.trace_events += events as u64;
        for v in [
            fired,
            u64::from(recoveries),
            u64::from(restarts),
            u64::from(killed),
            rc,
            events as u64,
        ] {
            self.digest = (self.digest ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn of(outcomes: &[UnitOutcome]) -> Tally {
        let mut t = Tally::default();
        for o in outcomes {
            t.add(
                o.fired,
                o.recoveries,
                o.restarts,
                o.killed,
                o.recovery_cycles,
                o.trace_len,
            );
        }
        t
    }

    /// Names the first count that differs from `other`.
    fn drift(&self, other: &Tally, what: &str) -> Option<String> {
        let pairs = [
            ("runs", self.runs, other.runs),
            ("fired injections", self.fired, other.fired),
            ("recoveries", self.recoveries, other.recoveries),
            ("restarts", self.restarts, other.restarts),
            ("killed victims", self.killed, other.killed),
            (
                "recovery cycles",
                self.recovery_cycles,
                other.recovery_cycles,
            ),
            ("trace events", self.trace_events, other.trace_events),
            ("per-run outcome digest", self.digest, other.digest),
        ];
        pairs
            .iter()
            .find(|(_, a, b)| a != b)
            .map(|(name, a, b)| format!("fleet: {name} drifted ({what}): {a} vs {b}"))
    }
}

/// Oracle failures of a campaign, one per failing run or reference.
fn failures(result: &CampaignResult) -> (u64, Vec<String>) {
    let failed_runs = result
        .outcomes
        .iter()
        .filter(|o| !o.failures.is_empty())
        .count() as u64;
    let messages: Vec<String> = result
        .reports
        .iter()
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    (failed_runs, messages)
}

/// Wall-clock sum of the four per-run phases the campaign returns.
fn unit_ns(o: &UnitOutcome) -> u64 {
    o.restore_ns + o.run_ns + o.collect_ns + o.validate_ns
}

/// Simulated-statistics totals of the count and traced passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SimTotals {
    tally: Tally,
    sim_cycles: u64,
    warm_hits: u64,
    warm_misses: u64,
}

/// The count pass: every (chip, seed, mode) of one batch replayed through
/// `FleetRunner::run_seed` with no timers, reading the simulated cycle
/// counter and the commit-cache counters after each run. Returns the
/// totals and the pass's wall seconds.
fn count_pass() -> (SimTotals, f64) {
    let t0 = Instant::now();
    let mut s = SimTotals::default();
    for chip in &ALL_CHIPS {
        let mut pair = runners(chip);
        for seed in 0..SEEDS {
            for cold in [false, true] {
                let runner = &mut pair[usize::from(cold)];
                let (rec, end) = in_mode(cold, || {
                    let rec = runner.run_seed(Some(seed));
                    (rec, cycles::now())
                });
                s.sim_cycles += end;
                if !cold {
                    s.warm_hits += rec.cache_hits;
                    s.warm_misses += rec.cache_misses;
                }
                let killed = rec.states[VICTIM] == ProcessState::Killed;
                s.tally.add(
                    rec.fired,
                    rec.recoveries,
                    rec.restarts,
                    killed,
                    rec.recovery_cycles,
                    rec.trace.events.len(),
                );
                tt_hw::trace::recycle(rec.trace);
            }
        }
    }
    (s, t0.elapsed().as_secs_f64())
}

/// Cycles and calls per Fig. 11 method, summed over runs.
type MethodSpans = BTreeMap<&'static str, (u64, u64)>;

/// Fig. 11 method spans over fresh-boot runs (boot included): the
/// snapshot restore clears the recorder, so the fresh-boot `run_one` path
/// is the one that can carry `cycles::set_recording` through a run.
/// Returns `(cycles, calls)` per method summed over the runs, and the
/// run count.
fn method_spans() -> Result<(MethodSpans, u64), String> {
    let mut spans = MethodSpans::new();
    let mut runs = 0;
    for chip in &ALL_CHIPS {
        for seed in 0..METHOD_SEEDS {
            cycles::set_recording(true);
            let rec = campaign::run_one(chip, Some(seed));
            let records = cycles::take_method_records();
            cycles::set_recording(false);
            tt_hw::trace::recycle(rec.trace);
            if records.is_empty() {
                return Err("fleet: the Fig. 11 method recorder captured nothing".into());
            }
            for (name, c) in records {
                let e = spans.entry(name).or_default();
                e.0 += c;
                e.1 += 1;
            }
            runs += 1;
        }
    }
    Ok((spans, runs))
}

/// The untraced `fleet` run: set-up, then alternating serial and
/// `nproc`-worker campaign batches for `seconds`, then the count pass.
pub fn run(seconds: f64, threads: usize, sheet: &mut Sheet) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, _) = setup();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut serial_rates = Vec::new();
    let mut par_rates = Vec::new();
    let mut unit_ms = Vec::new();
    let mut first: Option<Tally> = None;
    while serial_rates.len() < 3 || par_rates.len() < 3 || Instant::now() < t_end {
        for workers in [1, threads] {
            let t0 = Instant::now();
            let result = campaign::run_campaign_profiled(&ALL_CHIPS, SEEDS, workers, &[]);
            let wall = t0.elapsed().as_secs_f64();
            let runs = result.outcomes.len() as u64;
            let (failed, messages) = failures(&result);
            out.attempted += runs;
            out.failed += failed;
            out.errors.extend(messages.into_iter().take(3));
            let tally = Tally::of(&result.outcomes);
            match &first {
                None => first = Some(tally),
                Some(f) => out
                    .errors
                    .extend(tally.drift(f, "between campaign batches")),
            }
            let rate = runs as f64 / wall;
            if workers == 1 {
                serial_rates.push(rate);
                unit_ms.extend(result.outcomes.iter().map(|o| unit_ns(o) as f64 / 1e6));
            } else {
                par_rates.push(rate);
            }
        }
        if !out.errors.is_empty() {
            return out;
        }
    }
    let (sim, _) = count_pass();
    if let Some(f) = &first {
        out.errors
            .extend(sim.tally.drift(f, "count pass vs campaign"));
    }
    let runs_per_s = median(&serial_rates).expect("serial batches");
    let runs_per_s_par = median(&par_rates).expect("parallel batches");
    let lat = Dist::of(&unit_ms).expect("run samples");
    let batches = serial_rates.len();
    sheet.put(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUP_REPS} set-ups: 7 references + 14 runner boots and captures"),
    );
    sheet.put(
        "runs_per_s",
        runs_per_s,
        "1/s",
        format!(
            "median of {batches} batches of {} runs, 1 worker, range {:.0}..{:.0}",
            14 * SEEDS,
            serial_rates.iter().copied().fold(f64::INFINITY, f64::min),
            serial_rates.iter().copied().fold(0.0, f64::max)
        ),
    );
    sheet.put(
        "runs_per_s_par",
        runs_per_s_par,
        "1/s",
        format!("median of {} batches, {threads} workers", par_rates.len()),
    );
    sheet.put(
        "sim_cycles_per_run",
        sim.sim_cycles as f64 / sim.tally.runs as f64,
        "cycles",
        "simulated, count pass, boot included",
    );
    sheet.put("work_per_s", runs_per_s, "1/s", "= runs_per_s");
    sheet.put(
        "latency_ms",
        lat.p50,
        "ms",
        format!("p50 of {} runs' restore+run+collect+validate", lat.n),
    );
    sheet.put(
        format!("latency_ms.p{}", lat.tail_pct),
        lat.tail,
        "ms",
        format!("highest percentile with >=10 of {} samples beyond", lat.n),
    );
    out
}

/// The traced `fleet` leg: one serial and one parallel campaign batch for
/// the returned phase splits, the count pass, the traced pass over
/// `FleetRunner::run_seed_phased`, the reset probes and the Fig. 11
/// method spans.
pub fn traced(threads: usize, sheet: &mut Sheet) -> Outcome {
    let mut out = Outcome::default();
    let (_, reference_s) = setup();

    // Untraced campaign batches: the phase split comes back in each
    // `UnitOutcome`.
    let t0 = Instant::now();
    let serial = campaign::run_campaign_profiled(&ALL_CHIPS, SEEDS, 1, &[]);
    let serial_wall = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let par = campaign::run_campaign_profiled(&ALL_CHIPS, SEEDS, threads, &[]);
    let par_wall = t1.elapsed().as_secs_f64();
    for result in [&serial, &par] {
        let (failed, messages) = failures(result);
        out.attempted += result.outcomes.len() as u64;
        out.failed += failed;
        out.errors.extend(messages.into_iter().take(3));
    }
    let campaign_tally = Tally::of(&serial.outcomes);
    out.errors
        .extend(Tally::of(&par.outcomes).drift(&campaign_tally, "serial vs parallel"));

    let us = |v: Vec<u64>| -> Vec<f64> { v.into_iter().map(|ns| ns as f64 / 1e3).collect() };
    let pick = |f: fn(&UnitOutcome) -> u64, cold: Option<bool>| -> Vec<f64> {
        us(serial
            .outcomes
            .iter()
            .filter(|o| cold.is_none_or(|c| o.cold == c))
            .map(f)
            .collect())
    };
    let restore = Dist::of(&pick(|o| o.restore_ns, None)).expect("samples");
    let warm_run = Dist::of(&pick(|o| o.run_ns, Some(false))).expect("samples");
    let cold_run = Dist::of(&pick(|o| o.run_ns, Some(true))).expect("samples");
    let validate = Dist::of(&pick(|o| o.validate_ns, None)).expect("samples");
    let collect = pick(|o| o.collect_ns, None);
    let n = serial.outcomes.len() as f64;
    let midrun = serial.outcomes.iter().filter(|o| o.midrun).count() as f64;
    let phase_sum_s: f64 = serial
        .outcomes
        .iter()
        .map(|o| unit_ns(o) as f64)
        .sum::<f64>()
        / 1e9;
    let capture_s = serial.capture_ns as f64 / 1e9;
    let par_busy_s: f64 = par.outcomes.iter().map(|o| unit_ns(o) as f64).sum::<f64>() / 1e9;
    let workers = threads.max(1) as f64;

    let note = |d: &Dist| format!("n={}, tail at p{}", d.n, d.tail_pct);
    sheet.put(
        "pool.par_speedup",
        serial_wall / par_wall,
        "x",
        format!("{threads} workers vs 1"),
    );
    sheet.put(
        "pool.worker_busy_frac",
        par_busy_s / (par_wall * workers),
        "frac",
        "phase time over wall x workers",
    );
    sheet.put("snapshot.restore_us.p50", restore.p50, "us", note(&restore));
    sheet.put(
        "snapshot.restore_us.p99",
        restore.tail,
        "us",
        note(&restore),
    );
    sheet.put(
        "snapshot.midrun_share",
        midrun / n,
        "frac",
        "runs resumed from the post-first-tick snapshot",
    );
    sheet.put(
        "kernel.run_us.warm.p50",
        warm_run.p50,
        "us",
        note(&warm_run),
    );
    sheet.put(
        "kernel.run_us.warm.p99",
        warm_run.tail,
        "us",
        note(&warm_run),
    );
    sheet.put(
        "kernel.run_us.cold.p50",
        cold_run.p50,
        "us",
        note(&cold_run),
    );
    sheet.put(
        "kernel.run_us.cold.p99",
        cold_run.tail,
        "us",
        note(&cold_run),
    );
    sheet.put(
        "campaign.collect_us",
        crate::stats::mean(&collect),
        "us",
        "mean",
    );
    sheet.put(
        "campaign.validate_us.p50",
        validate.p50,
        "us",
        note(&validate),
    );
    sheet.put(
        "campaign.validate_us.p99",
        validate.tail,
        "us",
        note(&validate),
    );
    sheet.put(
        "campaign.unattributed_frac",
        (serial_wall - phase_sum_s - capture_s - reference_s) / serial_wall,
        "frac",
        format!(
            "wall {:.1} ms minus phases, captures and references",
            ms(serial_wall)
        ),
    );

    // Count pass (no timers) and traced pass, same runner calls, same order.
    let (sim, count_wall) = count_pass();
    out.errors
        .extend(sim.tally.drift(&campaign_tally, "count pass vs campaign"));
    let traced = traced_pass();
    out.errors.extend(
        traced
            .sim
            .tally
            .drift(&sim.tally, "traced vs untraced pass"),
    );
    for (name, a, b) in [
        ("sim_cycles_per_run", traced.sim.sim_cycles, sim.sim_cycles),
        ("commit-cache hits", traced.sim.warm_hits, sim.warm_hits),
        (
            "commit-cache misses",
            traced.sim.warm_misses,
            sim.warm_misses,
        ),
        (
            "fired injections (trace fold)",
            traced.counts.injections,
            sim.tally.fired,
        ),
    ] {
        if a != b {
            out.errors.push(format!(
                "fleet: {name} drifted (traced vs untraced pass): {a} vs {b}"
            ));
        }
    }
    let runs = traced.sim.tally.runs as f64;
    let c = &traced.counts;
    sheet.put(
        "fleet.trace_overhead_frac",
        traced.wall / count_wall - 1.0,
        "frac",
        "traced pass vs count pass, same runner calls",
    );
    sheet.put(
        "snapshot.capture_ms",
        traced.capture_ms,
        "ms",
        "mean per runner: boot + both snapshot captures",
    );
    sheet.put(
        "kernel.host_ns_per_sim_cycle",
        traced.run_ns as f64 / traced.run_cycles as f64,
        "ns",
        "run phase host ns over run-phase simulated cycles",
    );
    sheet.put(
        "kernel.host_ns_per_event",
        traced.boot_run_ns as f64 / traced.boot_run_events as f64,
        "ns",
        "runs restored from the post-boot snapshot",
    );
    sheet.put(
        "kernel.syscalls",
        c.syscalls as f64 / runs,
        "count",
        "per run, after the boot prefix",
    );
    sheet.put(
        "kernel.context_switches",
        c.context_switches as f64 / runs,
        "count",
        "per run",
    );
    sheet.put(
        "kernel.bus_faults",
        c.bus_faults as f64 / runs,
        "count",
        "per run",
    );
    sheet.put(
        "recovery.restarts",
        c.restarts as f64 / runs,
        "count",
        "per run",
    );
    sheet.put(
        "sim_cycles_per_run",
        traced.sim.sim_cycles as f64 / runs,
        "cycles",
        "simulated, boot included",
    );
    sheet.put(
        "ticktock.allocator_commits",
        c.allocator_commits as f64 / runs,
        "count",
        "per run",
    );
    sheet.put(
        "hw.mpu_commits",
        c.mpu_commits as f64 / runs,
        "count",
        "per run",
    );
    sheet.put(
        "hw.reg_writes",
        c.reg_writes as f64 / runs,
        "count",
        "per run",
    );
    let lookups = (traced.sim.warm_hits + traced.sim.warm_misses).max(1);
    sheet.put(
        "commit_cache.hit_ratio",
        traced.sim.warm_hits as f64 / lookups as f64,
        "frac",
        "warm half, boot included",
    );
    sheet.put(
        "commit_cache.elided_per_run",
        traced.elided as f64 / runs,
        "count",
        "register writes elided per run",
    );
    sheet.put(
        "trace.events_per_run",
        c.events as f64 / runs,
        "count",
        "after the boot prefix",
    );
    sheet.put(
        "injection.fired_per_run",
        c.injections as f64 / runs,
        "count",
        "FaultInjected events per run",
    );

    // Reset probes, one timed call at a time.
    let mut boot = Vec::new();
    let mut restore_p = Vec::new();
    let mut midrun_p = Vec::new();
    let mut first_tick = Vec::new();
    for chip in &ALL_CHIPS {
        let mut runner = FleetRunner::new(chip);
        campaign::boot_probe(chip);
        runner.restore_probe();
        runner.midrun_probe();
        runner.first_tick_probe();
        for _ in 0..PROBE_ITERS {
            let t = Instant::now();
            campaign::boot_probe(chip);
            boot.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            runner.restore_probe();
            restore_p.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            runner.midrun_probe();
            midrun_p.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            runner.first_tick_probe();
            first_tick.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let probes = format!("median of {} calls", boot.len());
    sheet.put(
        "kernel.boot_us",
        median(&boot).expect("probes"),
        "us",
        probes.clone(),
    );
    sheet.put(
        "snapshot.restore_probe_us",
        median(&restore_p).expect("probes"),
        "us",
        probes.clone(),
    );
    sheet.put(
        "snapshot.midrun_probe_us",
        median(&midrun_p).expect("probes"),
        "us",
        probes.clone(),
    );
    sheet.put(
        "snapshot.first_tick_probe_us",
        median(&first_tick).expect("probes"),
        "us",
        probes,
    );

    match (method_spans(), method_spans()) {
        (Ok((a, runs)), Ok((b, _))) => {
            if a != b {
                out.errors.push(
                    "fleet: Fig. 11 method cycles drifted between two identical passes".into(),
                );
            }
            for m in METHODS {
                let (cyc, calls) = a.get(m).copied().unwrap_or_default();
                let note = format!("per fresh-boot run, {runs} runs");
                sheet.put(
                    format!("ticktock.{m}.cycles"),
                    cyc as f64 / runs as f64,
                    "cycles",
                    note.clone(),
                );
                sheet.put(
                    format!("ticktock.{m}.calls"),
                    calls as f64 / runs as f64,
                    "count",
                    note,
                );
            }
        }
        (Err(e), _) | (_, Err(e)) => out.errors.push(e),
    }
    out
}

/// What the traced pass measured.
struct Traced {
    sim: SimTotals,
    counts: Counts,
    elided: u64,
    run_ns: u64,
    run_cycles: u64,
    boot_run_ns: u64,
    boot_run_events: u64,
    capture_ms: f64,
    wall: f64,
}

/// Drives `run_seed_phased` over the batch with a span around each call,
/// folding each drained trace (after the boot prefix) into [`Counts`].
fn traced_pass() -> Traced {
    let t0 = Instant::now();
    let mut t = Traced {
        sim: SimTotals::default(),
        counts: Counts::default(),
        elided: 0,
        run_ns: 0,
        run_cycles: 0,
        boot_run_ns: 0,
        boot_run_events: 0,
        capture_ms: 0.0,
        wall: 0.0,
    };
    let mut captures = Vec::new();
    for chip in &ALL_CHIPS {
        let mut pair = runners(chip);
        // The simulated clock each restore point rewinds to.
        let mut start_cycles = [[0u64; 2]; 2];
        for cold in [false, true] {
            let runner = &mut pair[usize::from(cold)];
            captures.push(runner.capture_ns() as f64 / 1e6);
            start_cycles[usize::from(cold)] = in_mode(cold, || {
                runner.restore_probe();
                let boot = cycles::now();
                runner.midrun_probe();
                [boot, cycles::now()]
            });
        }
        for seed in 0..SEEDS {
            for cold in [false, true] {
                let runner = &mut pair[usize::from(cold)];
                let prefix = runner.boot_events();
                let e0 = commit_cache::elided();
                let (rec, phases, end) = in_mode(cold, || {
                    let (rec, phases) = runner.run_seed_phased(Some(seed));
                    (rec, phases, cycles::now())
                });
                t.elided += commit_cache::elided() - e0;
                let start = start_cycles[usize::from(cold)][usize::from(phases.midrun)];
                t.run_ns += phases.run_ns;
                t.run_cycles += end - start;
                let run_events = &rec.trace.events[prefix.min(rec.trace.events.len())..];
                if !phases.midrun {
                    t.boot_run_ns += phases.run_ns;
                    t.boot_run_events += run_events.len() as u64;
                }
                t.counts.merge(&Counts::of(run_events));
                t.sim.sim_cycles += end;
                if !cold {
                    t.sim.warm_hits += rec.cache_hits;
                    t.sim.warm_misses += rec.cache_misses;
                }
                let killed = rec.states[VICTIM] == ProcessState::Killed;
                t.sim.tally.add(
                    rec.fired,
                    rec.recoveries,
                    rec.restarts,
                    killed,
                    rec.recovery_cycles,
                    rec.trace.events.len(),
                );
                tt_hw::trace::recycle(rec.trace);
            }
        }
    }
    t.capture_ms = crate::stats::mean(&captures);
    t.wall = t0.elapsed().as_secs_f64();
    t
}
