//! Pass 1: the TCB audit.
//!
//! Everything that can widen the trusted computing base must be *declared*
//! trusted in `ci/tcb_allowlist.toml`, or the audit fails:
//!
//! * `unsafe` blocks and functions — the classic Rust escape hatch. This
//!   workspace is a simulator and has none today; the rule keeps it that
//!   way unless a future PR consciously allowlists one.
//! * Raw MPU/PMP register stores (`write_rbar`/`write_rasr`/`write_rnr`/
//!   `write_ctrl`/`write_region` on ARM, `write_cfg`/`write_addr` on
//!   RISC-V) — the commit paths whose correctness the §4.3 invariant
//!   assumes. Only the simulated register files and the declared driver
//!   commit functions may touch them.
//! * Raw pointer (DMA-shaped) operations: `*mut`/`*const` types,
//!   `transmute`, volatile/`ptr::` reads and writes. The paper's DMA story
//!   (§4.4) wraps these behind checked abstractions; a bare one is TCB.

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::source::{find_token, ScannedFile, Span};

/// Raw register-store methods: calling one commits protection state.
pub(crate) const REGISTER_STORES: &[&str] = &[
    "write_rbar",
    "write_rasr",
    "write_rnr",
    "write_ctrl",
    "write_region",
    "write_cfg",
    "write_addr",
];

/// Raw pointer / DMA operation tokens.
pub(crate) const RAW_POINTER_OPS: &[&str] = &["transmute", "read_volatile", "write_volatile"];

/// Whether one stripped code line holds a TCB construct: an identifier
/// that is `unsafe` or one of the tokens above, or a `*mut`/`*const`
/// type. One pass over the line's identifiers instead of a search per
/// token; an identifier matches exactly where [`find_token`] would. The
/// audit below uses it to skip lines; the staleness lint uses it as is,
/// so a defining `fn write_rbar` counts there (that definition is what a
/// trusted register file's entry covers).
pub(crate) fn line_has_construct(code: &str) -> bool {
    code.contains("*mut ")
        || code.contains("*const ")
        || code
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .any(|w| w == "unsafe" || REGISTER_STORES.contains(&w) || RAW_POINTER_OPS.contains(&w))
}

/// Scans one file for TCB surface outside the allowlist.
pub fn audit_file(file: &ScannedFile, config: &AuditConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Every other pass trusts the scanner's code view; a view that does
    // not close its braces means a literal or comment was mis-lexed.
    if let Some(open) = file.imbalance() {
        findings.push(Finding {
            pass: Pass::Tcb,
            span: Some(Span {
                file: file.rel_path.clone(),
                line: open.line,
            }),
            message: format!(
                "the scanner's code view ends at brace depth {} (it last left depth 0 on \
                 this line): a literal or comment was mis-lexed, so no pass can trust this file",
                open.depth
            ),
        });
    }
    if config.is_trusted_file(&file.rel_path) {
        return findings; // The whole file is declared TCB.
    }
    let mut report = |line: usize, message: String| {
        // A hit inside an allowlisted function is declared trust.
        let enclosing = file
            .fns
            .iter()
            .find(|f| f.start <= line && line <= f.end)
            .map(|f| f.name.as_str());
        if !config.is_trusted(&file.rel_path, enclosing) {
            findings.push(Finding {
                pass: Pass::Tcb,
                span: Some(Span {
                    file: file.rel_path.clone(),
                    line,
                }),
                message,
            });
        }
    };
    for (idx, code) in file.code.iter().enumerate() {
        if !line_has_construct(code) {
            continue;
        }
        let line = idx + 1;
        if find_token(code, "unsafe").is_some() {
            report(
                line,
                "`unsafe` outside the allowlisted TCB (declare it in ci/tcb_allowlist.toml or remove it)".into(),
            );
        }
        for store in REGISTER_STORES {
            // A *call* (`.write_rbar(` / `hw.write_region(`) is a raw
            // commit; the defining `fn write_rbar` lives in the (fully
            // trusted) register-file modules.
            if let Some(at) = find_token(code, store) {
                let is_call = code[at + store.len()..].trim_start().starts_with('(')
                    && at > 0
                    && code[..at].trim_end().ends_with('.');
                if is_call {
                    report(
                        line,
                        format!(
                            "raw protection-register store `{store}` outside the allowlisted TCB"
                        ),
                    );
                }
            }
        }
        for op in RAW_POINTER_OPS {
            if find_token(code, op).is_some() {
                report(
                    line,
                    format!("raw pointer operation `{op}` outside the allowlisted TCB"),
                );
            }
        }
        if code.contains("*mut ") || code.contains("*const ") {
            report(
                line,
                "raw pointer type (`*mut`/`*const`) outside the allowlisted TCB".into(),
            );
        }
    }
    findings
}

/// Runs the TCB audit over a set of scanned files.
pub fn audit(files: &[ScannedFile], config: &AuditConfig) -> Vec<Finding> {
    files.iter().flat_map(|f| audit_file(f, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_text;

    fn cfg(trusted: &[&str]) -> AuditConfig {
        AuditConfig {
            trusted: trusted.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn stray_unsafe_is_flagged_with_span() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "pub fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n",
        );
        let findings = audit_file(&f, &cfg(&[]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].span.as_ref().unwrap().line, 2);
        assert!(findings[0].message.contains("unsafe"));
    }

    #[test]
    fn unsafe_in_doc_or_string_is_not_flagged() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "/// This fn is not unsafe.\npub fn f() {\n    let _ = \"unsafe\";\n}\n",
        );
        assert!(audit_file(&f, &cfg(&[])).is_empty());
    }

    #[test]
    fn register_store_calls_are_flagged_but_definitions_are_not() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "pub fn write_rbar(v: u32) {}\npub fn g(hw: &mut Hw) {\n    hw.write_rbar(0);\n}\n",
        );
        let findings = audit_file(&f, &cfg(&[]));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].span.as_ref().unwrap().line, 3);
    }

    #[test]
    fn allowlisted_file_and_fn_suppress_findings() {
        let src = "pub fn commit(hw: &mut Hw) {\n    hw.write_region(0, 1, 2);\n}\npub fn other(hw: &mut Hw) {\n    hw.write_cfg(0, 1);\n}\n";
        let f = scan_text("crates/x/src/lib.rs", src);
        assert!(audit_file(&f, &cfg(&["crates/x/src/lib.rs"])).is_empty());
        let fn_level = audit_file(&f, &cfg(&["crates/x/src/lib.rs::commit"]));
        assert_eq!(fn_level.len(), 1);
        assert_eq!(fn_level[0].span.as_ref().unwrap().line, 5);
    }

    #[test]
    fn a_mis_lexed_file_is_flagged_even_when_trusted() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "pub fn ok() {}\n\npub fn open() {\n    work();\n",
        );
        for config in [cfg(&[]), cfg(&["crates/x/src/lib.rs"])] {
            let findings = audit_file(&f, &config);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].span.as_ref().unwrap().line, 3);
            assert!(findings[0].message.contains("brace depth 1"));
        }
    }

    #[test]
    fn the_line_prefilter_agrees_with_the_token_search() {
        let tokens: Vec<&str> = ["unsafe"]
            .iter()
            .chain(REGISTER_STORES)
            .chain(RAW_POINTER_OPS)
            .copied()
            .collect();
        for line in [
            "unsafe {",
            "hw.write_rbar(0);",
            "let t = transmute(x);",
            "p: *mut u8",
            "p: *const u8",
            "*x = 1;",
            "unsafe_marker();",
            "my_write_rbar();",
            "write_rbar2()",
            "é transmute é",
            "let x = 1;",
            "",
        ] {
            let slow = tokens.iter().any(|t| find_token(line, t).is_some())
                || line.contains("*mut ")
                || line.contains("*const ");
            assert_eq!(line_has_construct(line), slow, "{line:?}");
        }
    }

    #[test]
    fn raw_pointer_ops_are_flagged() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "pub fn dma(p: *mut u8) {\n    let _ = p;\n}\n",
        );
        let findings = audit_file(&f, &cfg(&[]));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("raw pointer type"));
    }
}
