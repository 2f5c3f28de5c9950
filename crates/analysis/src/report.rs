//! The Fig.-10-style audit report.
//!
//! The paper's Figure 10 counts, per component, source LOC, functions
//! (trusted subset) and spec LOC (trusted subset). `tt_contracts::effort`
//! holds the line rules for those; this module applies them to the files
//! the audit already scanned, and adds the number the audit is really
//! about — **trusted LOC**, the lines inside the declared TCB (allowlisted
//! files/functions plus `// TRUSTED:`-marked functions) — and emits the
//! whole table as `BENCH_fig10.json`, so the benchmark figures are
//! *generated from the audit* rather than hand-maintained.

use std::path::Path;

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::source::ScannedFile;
use crate::staleness::StaleEntry;
use tt_contracts::effort::{default_components, scan_lines, EffortCounts};

/// Incremental-cache statistics for one cached audit run
/// ([`crate::audit::run_cached`]); serialized into `BENCH_fig10.json`.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Whether the verdict cache loaded warm (valid file, matching
    /// toolchain/config hash).
    pub warm: bool,
    /// Cache lookup hit rate for this run.
    pub hit_rate: f64,
    /// Wall-clock of scan + passes for this run, in milliseconds.
    pub wall_ms: f64,
    /// The workspace scan's share of `wall_ms`: reading and lexing every
    /// file once.
    pub scan_ms: f64,
    /// The cold-run wall recorded in the cache header, in milliseconds.
    pub cold_wall_ms: f64,
    /// Files served from cache in the TCB pass.
    pub skipped_tcb: usize,
    /// Files served from cache in the coverage pass.
    pub skipped_coverage: usize,
    /// 1 if the whole-workspace cross-check verdict hit, else 0.
    pub skipped_crosscheck: usize,
    /// Set when a cache file existed but failed validation (the run then
    /// degraded to cold — never partial reuse).
    pub corrupt: Option<String>,
}

/// One component row: the classic Fig. 10 counters plus TCB accounting.
#[derive(Debug, Clone)]
pub struct ComponentRow {
    /// Component name (`"Kernel"`, `"ARM MPU"`, ...).
    pub name: &'static str,
    /// The Fig. 10 counters, computed by `tt_contracts::effort`.
    pub counts: EffortCounts,
    /// Lines inside the declared TCB: whole allowlisted files, plus
    /// allowlisted or `// TRUSTED:`-marked functions elsewhere.
    pub trusted_loc: usize,
}

/// The complete audit report: table rows plus the pass results.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Per-component rows.
    pub rows: Vec<ComponentRow>,
    /// Workspace totals of the Fig. 10 counters.
    pub total: EffortCounts,
    /// Workspace total trusted LOC.
    pub total_trusted_loc: usize,
    /// All findings from the executed passes.
    pub findings: Vec<Finding>,
    /// Stale allowlist entries from the staleness pass (duplicated as
    /// findings; kept structured for the `--fix`-style removal listing).
    pub stale_entries: Vec<StaleEntry>,
    /// Verdict-cache statistics when the audit ran incrementally.
    pub cache: Option<CacheStats>,
}

impl AuditReport {
    /// Whether the audit is clean (gates CI with `--check`).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings from one pass.
    pub fn count(&self, pass: Pass) -> usize {
        self.findings.iter().filter(|f| f.pass == pass).count()
    }
}

/// Trusted LOC contributed by one scanned file under the allowlist.
fn trusted_loc_of(file: &ScannedFile, config: &AuditConfig) -> usize {
    if config.is_trusted_file(&file.rel_path) {
        // Whole file in the TCB: count its non-blank lines.
        return file.raw.iter().filter(|l| !l.trim().is_empty()).count();
    }
    file.fns
        .iter()
        .filter(|f| f.trusted || config.is_trusted(&file.rel_path, Some(&f.name)))
        .map(|f| f.loc)
        .sum()
}

/// Computes the component rows from the scanned files: the Fig. 10
/// counters by `tt_contracts::effort`'s line rules over each file's lines
/// (so the numbers stay comparable with earlier PRs), plus trusted LOC
/// from the allowlist. No file is read twice.
pub fn component_rows(
    root: &Path,
    files: &[ScannedFile],
    config: &AuditConfig,
) -> (Vec<ComponentRow>, EffortCounts, usize) {
    let mut rows = Vec::new();
    let mut total = EffortCounts::default();
    let mut total_trusted = 0usize;
    for spec in default_components(root) {
        let mut counts = EffortCounts::default();
        let mut trusted_loc = 0usize;
        for p in &spec.paths {
            // Workspace-relative prefix of this component path.
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            let dir = format!("{}/", rel.trim_end_matches('/'));
            for file in files
                .iter()
                .filter(|f| f.rel_path == rel || f.rel_path.starts_with(&dir))
            {
                counts += scan_lines(file.raw.iter().map(String::as_str));
                trusted_loc += trusted_loc_of(file, config);
            }
        }
        total += counts;
        total_trusted += trusted_loc;
        rows.push(ComponentRow {
            name: spec.name,
            counts,
            trusted_loc,
        });
    }
    (rows, total, total_trusted)
}

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn row_json(name: &str, c: &EffortCounts, trusted_loc: usize) -> String {
    format!(
        "{{\"name\": \"{}\", \"source_loc\": {}, \"fns\": {}, \"trusted_fns\": {}, \
         \"spec_loc\": {}, \"trusted_spec_loc\": {}, \"trusted_loc\": {}}}",
        escape(name),
        c.source_loc,
        c.fns,
        c.trusted_fns,
        c.spec_loc,
        c.trusted_spec_loc,
        trusted_loc
    )
}

/// Renders the report as the `BENCH_fig10.json` document.
pub fn to_json(report: &AuditReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"fig10_proof_effort\",\n");
    out.push_str("  \"generator\": \"tt-audit\",\n");
    out.push_str("  \"components\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&row_json(row.name, &row.counts, row.trusted_loc));
        out.push_str(if i + 1 < report.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"total\": ");
    out.push_str(&row_json("Total", &report.total, report.total_trusted_loc));
    out.push_str(",\n  \"audit\": {");
    out.push_str(&format!(
        "\"findings\": {}, \"tcb\": {}, \"coverage\": {}, \"crosscheck\": {}, \
         \"staleness\": {}, \"clean\": {}",
        report.findings.len(),
        report.count(Pass::Tcb),
        report.count(Pass::Coverage),
        report.count(Pass::Crosscheck),
        report.count(Pass::Staleness),
        report.clean()
    ));
    out.push('}');
    if let Some(c) = &report.cache {
        out.push_str(&format!(
            ",\n  \"cache\": {{\"mode\": \"{}\", \"cache_hit_rate\": {:.4}, \
             \"wall_ms\": {:.3}, \"scan_ms\": {:.3}, \"cold_wall_ms\": {:.3}, \
             \"skipped\": {{\"tcb\": {}, \"coverage\": {}, \"crosscheck\": {}}}}}",
            if c.warm { "warm" } else { "cold" },
            c.hit_rate,
            c.wall_ms,
            c.scan_ms,
            c.cold_wall_ms,
            c.skipped_tcb,
            c.skipped_coverage,
            c.skipped_crosscheck,
        ));
    }
    out.push_str("\n}\n");
    out
}

/// Renders the report as a human-readable table (the `tt-audit` default).
pub fn render_table(report: &AuditReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>8} {:>14} {:>16} {:>12}\n",
        "Component", "Source", "Fns(Trusted)", "Specs(Trusted)", "TrustedLOC"
    ));
    let fmt_row = |name: &str, c: &EffortCounts, t: usize| {
        format!(
            "{:<12} {:>8} {:>9} ({:>2}) {:>11} ({:>2}) {:>12}\n",
            name, c.source_loc, c.fns, c.trusted_fns, c.spec_loc, c.trusted_spec_loc, t
        )
    };
    for row in &report.rows {
        out.push_str(&fmt_row(row.name, &row.counts, row.trusted_loc));
    }
    out.push_str(&fmt_row("Total", &report.total, report.total_trusted_loc));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_text;

    fn sample_report() -> AuditReport {
        AuditReport {
            rows: vec![ComponentRow {
                name: "Kernel",
                counts: EffortCounts {
                    source_loc: 100,
                    fns: 10,
                    trusted_fns: 1,
                    spec_loc: 20,
                    trusted_spec_loc: 2,
                },
                trusted_loc: 15,
            }],
            total: EffortCounts {
                source_loc: 100,
                fns: 10,
                trusted_fns: 1,
                spec_loc: 20,
                trusted_spec_loc: 2,
            },
            total_trusted_loc: 15,
            findings: Vec::new(),
            stale_entries: Vec::new(),
            cache: None,
        }
    }

    #[test]
    fn json_has_component_rows_and_audit_summary() {
        let doc = to_json(&sample_report());
        assert!(doc.contains("\"name\": \"Kernel\""));
        assert!(doc.contains("\"trusted_loc\": 15"));
        assert!(doc.contains("\"clean\": true"));
        assert!(doc.contains("\"bench\": \"fig10_proof_effort\""));
        // Balanced braces — a cheap well-formedness check.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
    }

    #[test]
    fn findings_flip_the_clean_flag() {
        let mut r = sample_report();
        r.findings.push(Finding {
            pass: Pass::Tcb,
            span: None,
            message: "x".into(),
        });
        assert!(!r.clean());
        assert_eq!(r.count(Pass::Tcb), 1);
        assert!(to_json(&r).contains("\"clean\": false"));
    }

    #[test]
    fn trusted_loc_counts_files_and_marked_fns() {
        let src = "pub fn a() {\n    work();\n}\n\n// TRUSTED: commit path.\npub fn b() {\n    raw();\n}\n";
        let file = scan_text("crates/x/src/lib.rs", src);
        // Marker only: just fn b (3 non-blank lines incl. signature+brace).
        let cfg = AuditConfig::default();
        assert_eq!(trusted_loc_of(&file, &cfg), 3);
        // Whole file allowlisted: every non-blank line (marker line too).
        let cfg = AuditConfig {
            trusted: vec!["crates/x/src/lib.rs".into()],
            ..Default::default()
        };
        assert_eq!(trusted_loc_of(&file, &cfg), 7);
        // Fn-level allowlist adds fn a.
        let cfg = AuditConfig {
            trusted: vec!["crates/x/src/lib.rs::a".into()],
            ..Default::default()
        };
        assert_eq!(trusted_loc_of(&file, &cfg), 6);
    }

    #[test]
    fn cache_section_appears_only_for_cached_runs() {
        let mut r = sample_report();
        assert!(!to_json(&r).contains("\"cache\""));
        r.cache = Some(CacheStats {
            warm: true,
            hit_rate: 1.0,
            wall_ms: 12.5,
            scan_ms: 8.25,
            cold_wall_ms: 250.0,
            skipped_tcb: 40,
            skipped_coverage: 40,
            skipped_crosscheck: 1,
            corrupt: None,
        });
        let doc = to_json(&r);
        assert!(doc.contains("\"mode\": \"warm\""));
        assert!(doc.contains("\"cache_hit_rate\": 1.0000"));
        assert!(doc.contains("\"scan_ms\": 8.250"));
        assert!(doc.contains("\"skipped\": {\"tcb\": 40, \"coverage\": 40, \"crosscheck\": 1}"));
        assert!(doc.contains("\"staleness\": 0"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
    }

    /// Every `.rs` file under `path` (or `path` itself), as Fig. 10
    /// counted them when it read each component directory from disk.
    fn component_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
        if path.is_file() {
            if path.extension().is_some_and(|e| e == "rs") {
                out.push(path.to_path_buf());
            }
            return;
        }
        for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
            component_files(&entry.path(), out);
        }
    }

    #[test]
    fn rows_from_loaded_files_match_scanning_each_file_from_disk() {
        use tt_contracts::effort::scan_source;
        let root = crate::audit::workspace_root();
        let files = crate::audit::load_workspace(&root);
        let (rows, total, _) = component_rows(&root, &files, &AuditConfig::default());
        let mut disk_total = EffortCounts::default();
        for (spec, row) in default_components(&root).iter().zip(&rows) {
            let mut paths = Vec::new();
            for p in &spec.paths {
                component_files(p, &mut paths);
            }
            let mut counts = EffortCounts::default();
            for p in &paths {
                let text = std::fs::read_to_string(p).expect("readable source");
                let from_disk = scan_source(&text);
                let rel = p.strip_prefix(&root).unwrap().to_string_lossy();
                let loaded = files
                    .iter()
                    .find(|f| f.rel_path == rel)
                    .unwrap_or_else(|| panic!("{rel} was not loaded"));
                assert_eq!(
                    scan_lines(loaded.raw.iter().map(String::as_str)),
                    from_disk,
                    "{rel}"
                );
                counts += from_disk;
            }
            assert_eq!(row.counts, counts, "{}", row.name);
            disk_total += counts;
        }
        assert_eq!(total, disk_total);
    }

    #[test]
    fn table_lists_trusted_loc_column() {
        let t = render_table(&sample_report());
        assert!(t.contains("TrustedLOC"));
        assert!(t.contains("Total"));
    }

    #[test]
    fn fig10_on_the_real_tree_has_the_paper_shape() {
        let root = crate::audit::workspace_root();
        let config = AuditConfig::load(&root.join(crate::audit::DEFAULT_CONFIG))
            .expect("ci/tcb_allowlist.toml parses");
        let report = crate::audit::run(
            &root,
            &config,
            &[Pass::Tcb, Pass::Coverage, Pass::Crosscheck, Pass::Staleness],
        );
        assert_eq!(report.rows.len(), 5);
        for row in &report.rows {
            assert!(
                row.counts.source_loc > 100,
                "{} too small: {:?}",
                row.name,
                row.counts
            );
            assert!(row.counts.fns > 5, "{}: {:?}", row.name, row.counts);
        }
        // The headline ratio: a modest annotation overhead (the paper has
        // 3.6 KLOC of specs for 22 KLOC of source, ~16%; ours should be in
        // the same regime, well under 1:1).
        let total = &report.total;
        assert!(total.spec_loc * 2 < total.source_loc);
        assert!(total.spec_loc > 100, "specs too sparse: {total:?}");
        // The declared TCB is small relative to the verified surface.
        assert!(report.total_trusted_loc > 0);
        assert!(report.total_trusted_loc * 4 < total.source_loc);

        let table = render_table(&report);
        for name in [
            "Kernel",
            "ARM MPU",
            "Risc-V MPU",
            "Flux-Std",
            "FluxArm",
            "Total",
            "TrustedLOC",
        ] {
            assert!(table.contains(name), "missing {name}");
        }
    }
}
