//! The metric sheet: every named value a run produces, printed one per
//! line with its unit, and the result object built from it.

use crate::stats::valid_name;

/// The end-to-end metrics of `BENCHMARK.json`, reported by every
/// workload (each workload's meaning is in `perfbench/METRICS.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Fig. 11 methods whose cycle spans the traced run reads back.
pub const METHODS: [&str; 6] = [
    "setup_mpu",
    "brk",
    "allocate_grant",
    "create",
    "build_readwrite_buffer",
    "build_readonly_buffer",
];

/// Fig. 12 components, as `verifier.<slug>_ms` metrics.
pub const COMPONENTS: [&str; 7] = [
    "hardware_model",
    "interrupts",
    "kernel_commit_cache",
    "kernel_fault_recovery",
    "kernel_schedule_explorer",
    "ticktock_granular",
    "ticktock_monolithic",
];

/// Fixed per-layer metrics of the traced run (the method and component
/// families are appended by [`per_layer`]).
const PER_LAYER_FIXED: [(&str, &str); 60] = [
    ("pool.par_speedup", "x"),
    ("pool.worker_busy_frac", "frac"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.restore_us.p50", "us"),
    ("snapshot.restore_us.p99", "us"),
    ("snapshot.midrun_share", "frac"),
    ("snapshot.restore_probe_us", "us"),
    ("snapshot.midrun_probe_us", "us"),
    ("snapshot.first_tick_probe_us", "us"),
    ("kernel.boot_us", "us"),
    ("kernel.run_us.warm.p50", "us"),
    ("kernel.run_us.warm.p99", "us"),
    ("kernel.run_us.cold.p50", "us"),
    ("kernel.run_us.cold.p99", "us"),
    ("kernel.host_ns_per_sim_cycle", "ns"),
    ("kernel.host_ns_per_event", "ns"),
    ("kernel.syscalls", "count"),
    ("kernel.context_switches", "count"),
    ("kernel.bus_faults", "count"),
    ("recovery.restarts", "count"),
    ("sim_cycles_per_run", "cycles"),
    ("ticktock.allocator_commits", "count"),
    ("hw.mpu_commits", "count"),
    ("hw.reg_writes", "count"),
    ("commit_cache.hit_ratio", "frac"),
    ("commit_cache.elided_per_run", "count"),
    ("trace.events_per_run", "count"),
    ("injection.fired_per_run", "count"),
    ("campaign.collect_us", "us"),
    ("campaign.validate_us.p50", "us"),
    ("campaign.validate_us.p99", "us"),
    ("campaign.unattributed_frac", "frac"),
    ("fleet.trace_overhead_frac", "frac"),
    ("explore.candidates", "count"),
    ("explore.baseline_us", "us"),
    ("explore.enumerate_us", "us"),
    ("explore.classes_us", "us"),
    ("explore.scheduled_run_us.p50", "us"),
    ("explore.scheduled_run_us.p99", "us"),
    ("explore.validate_us", "us"),
    ("explore.prune_ratio", "x"),
    ("explore.executed", "count"),
    ("explore.unattributed_frac", "frac"),
    ("explore.trace_overhead_frac", "frac"),
    ("sched.irq_fired_per_run", "count"),
    ("span.index_ms", "ms"),
    ("verifier.registry_ms", "ms"),
    ("verifier.cases", "count"),
    ("verifier.lemmas_ms", "ms"),
    ("vcache.load_ms", "ms"),
    ("vcache.save_ms", "ms"),
    ("vcache.hit_rate", "frac"),
    ("audit.load_ms", "ms"),
    ("audit.tcb_ms", "ms"),
    ("audit.coverage_ms", "ms"),
    ("audit.crosscheck_ms", "ms"),
    ("audit.staleness_ms", "ms"),
    ("audit.hit_rate", "frac"),
    ("verify.trace_overhead_frac", "frac"),
    ("verify.unattributed_frac", "frac"),
];

/// Every per-layer metric of `BENCHMARK.json`, in order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for m in METHODS {
        out.push((format!("ticktock.{m}.cycles"), "cycles"));
        out.push((format!("ticktock.{m}.calls"), "count"));
    }
    for c in COMPONENTS {
        out.push((format!("verifier.{c}_ms"), "ms"));
    }
    out
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name (checked against the grammar on insert).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was measured: sample count, percentile, source.
    pub note: String,
}

/// Every named value of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Sheet {
    rows: Vec<Row>,
}

impl Sheet {
    /// Records a value. Panics on a name outside the grammar or a
    /// repeated name — both are bugs in this benchmark.
    pub fn put(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?} breaks the grammar");
        assert!(self.get(&name).is_none(), "metric {name} recorded twice");
        self.rows.push(Row {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Looks a value up by name.
    pub fn get(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Prints every row as `name value unit  (note)`.
    pub fn print(&self) {
        for r in &self.rows {
            if r.note.is_empty() {
                println!("{} {} {}", r.name, r.value, r.unit);
            } else {
                println!("{} {} {}  ({})", r.name, r.value, r.unit, r.note);
            }
        }
    }

    /// Selects `wanted` from the sheet for the result object. Errors name
    /// a missing or non-finite metric, a unit mismatch, or (with
    /// `nonzero`) a zero value.
    pub fn select(
        &self,
        wanted: &[(String, &'static str)],
        nonzero: bool,
    ) -> Result<Vec<Row>, String> {
        wanted
            .iter()
            .map(|(name, unit)| {
                let row = self
                    .get(name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                if row.unit != *unit {
                    return Err(format!("metric {name} has unit {} not {unit}", row.unit));
                }
                if !row.value.is_finite() || (nonzero && row.value == 0.0) {
                    return Err(format!("metric {name} read {}", row.value));
                }
                Ok(row.clone())
            })
            .collect()
    }
}

/// Renders the result object (the last line of standard output).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Row]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_name_fits_the_grammar_and_is_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn names_and_units_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &obj[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layer);
    }

    #[test]
    fn select_rejects_missing_zero_and_mismatched_metrics() {
        let mut s = Sheet::default();
        s.put("a", 1.5, "s", "");
        s.put("z", 0.0, "s", "");
        let want = |n: &str, u: &'static str| vec![(n.to_string(), u)];
        assert_eq!(
            s.select(&want("a", "s"), true).expect("present")[0].value,
            1.5
        );
        assert!(s.select(&want("b", "s"), true).is_err());
        assert!(s.select(&want("a", "ms"), true).is_err());
        assert!(s.select(&want("z", "s"), true).is_err());
        assert!(s.select(&want("z", "s"), false).is_ok());
    }

    #[test]
    #[should_panic(expected = "breaks the grammar")]
    fn put_rejects_a_bad_name() {
        Sheet::default().put("bad name", 1.0, "s", "");
    }

    #[test]
    fn result_json_has_exactly_the_four_keys() {
        let rows = vec![Row {
            name: "setup_s".into(),
            value: 0.25,
            unit: "s",
            note: String::new(),
        }];
        assert_eq!(
            result_json(true, 10, 0, &rows),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
