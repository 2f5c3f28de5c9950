//! Shared report/JSON rendering for the differential bin.
//!
//! `e61_differential` renders its `BENCH_e61.json` document from library
//! code so the determinism tests can assert that a parallel run's
//! artifact is byte-identical to a serial run's. Wall-clock time is the
//! one legitimately nondeterministic field, so it is a parameter: the
//! tests pass a fixed value and compare whole documents.

use crate::json;
use tt_hw::platform::ChipProfile;
use tt_kernel::differential::DiffResult;

/// Renders the `BENCH_e61.json` document for an all-chips differential
/// run.
pub fn e61_json(per_chip: &[(&ChipProfile, Vec<DiffResult>)], wall_ms: f64) -> String {
    let mut doc = String::new();
    doc.push_str("{\n  \"experiment\": \"e61_differential\",\n");
    doc.push_str(&format!("  \"wall_clock_ms\": {},\n", json::num(wall_ms)));
    doc.push_str("  \"chips\": [\n");
    for (i, (chip, results)) in per_chip.iter().enumerate() {
        let differing = results.iter().filter(|r| !r.matches()).count();
        let unexpected = results
            .iter()
            .filter(|r| r.matches() == r.expect_differs)
            .count();
        // matches() requires observable-trace equivalence, so this
        // counts divergences only among the expected console diffs.
        let divergent = results
            .iter()
            .filter(|r| r.trace_divergence.is_some())
            .count();
        doc.push_str(&format!(
            "    {{\"chip\": \"{}\", \"tests\": {}, \"differing\": {}, \"unexpected\": {}, \"observable_divergences\": {}}}{}\n",
            json::escape(chip.name),
            results.len(),
            differing,
            unexpected,
            divergent,
            if i + 1 < per_chip.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ]\n}\n");
    doc
}

/// Tests whose verdict is UNEXPECTED across an all-chips run, as
/// `chip:test` strings (the e61 CI gate's failure list).
pub fn e61_unexpected(per_chip: &[(&ChipProfile, Vec<DiffResult>)]) -> Vec<String> {
    per_chip
        .iter()
        .flat_map(|(chip, results)| {
            results
                .iter()
                .filter(|r| r.matches() == r.expect_differs)
                .map(|r| format!("{}:{}", chip.name, r.name))
        })
        .collect()
}
