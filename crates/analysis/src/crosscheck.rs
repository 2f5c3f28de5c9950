//! Pass 3: the obligation cross-check.
//!
//! The runtime contract engine (`tt-contracts`) has two halves that can
//! silently drift apart: the *sites* in kernel code (`requires!` /
//! `ensures!` / `invariant!` macros and `checked_*` arithmetic) and the
//! *obligations* registered for the Fig. 10/12 verifier. A site with no
//! obligation is a contract the verifier never discharges; an obligation
//! with no live code is a dead spec inflating the proof-effort numbers.
//! This pass diffs the two:
//!
//! * every contract site found in source must match a registered
//!   obligation (by full name, type, or method), or be allowlisted under
//!   `[crosscheck] allow_unregistered`;
//! * every registered, non-`#[trusted]` obligation must anchor to live
//!   code (its method named by a `fn`, or its type appearing as an
//!   identifier), or be allowlisted under `[crosscheck] allow_dead`.

use std::collections::BTreeSet;

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::source::{find_token, ScannedFile, Span};
use tt_contracts::obligation::Registry;
use tt_legacy::BugVariant;

/// Tokens that open a contract site whose first string argument names it.
const SITE_MARKERS: &[&str] = &[
    "requires!",
    "ensures!",
    "invariant!",
    "checked_add",
    "checked_sub",
    "checked_mul",
];

/// Crates whose sources are outside the cross-check: the contract engine
/// itself (its docs and tests exercise the macros with synthetic sites)
/// and this tool.
const EXEMPT_PREFIXES: &[&str] = &["crates/contracts/", "crates/analysis/"];

/// One contract site recovered from source.
#[derive(Debug, Clone)]
pub struct Site {
    /// The site name: the macro's (or `checked_*` call's) first string
    /// argument, e.g. `"AppBreaks"` or `"Process::setup_mpu cache hit"`.
    pub name: String,
    /// Where the marker appears.
    pub span: Span,
}

/// Builds the whole-workspace obligation registry the runtime verifier
/// uses — every crate's registrations at minimal density (the cross-check
/// only needs the *names*, not the discharge work).
pub fn workspace_registry() -> Registry {
    let mut registry = Registry::new();
    tt_legacy::obligations::register_obligations(&mut registry, BugVariant::Fixed, 1);
    ticktock::obligations::register_obligations(&mut registry, 1);
    tt_fluxarm::contracts::register_obligations(&mut registry, 1);
    tt_kernel::obligations::register_obligations(&mut registry, 1);
    tt_kernel::recovery::register_obligations(&mut registry, 1);
    tt_kernel::explore::register_obligations(&mut registry, 1);
    tt_hw::obligations::register_obligations(&mut registry, 1);
    registry
}

/// Reads the first string literal at or after `col` on raw line `idx`,
/// scanning forward a few lines (macro arguments often wrap).
fn first_string_literal(raw: &[String], idx: usize, col: usize) -> Option<String> {
    for (n, line) in raw.iter().enumerate().skip(idx).take(6) {
        let start = if n == idx { col } else { 0 };
        let bytes = line.as_bytes();
        let mut i = start;
        while i < bytes.len() {
            if bytes[i] == b'"' {
                let mut j = i + 1;
                let mut out = String::new();
                while j < bytes.len() {
                    match bytes[j] {
                        b'\\' => {
                            if j + 1 < bytes.len() {
                                out.push(bytes[j + 1] as char);
                            }
                            j += 2;
                        }
                        b'"' => return Some(out),
                        c => {
                            out.push(c as char);
                            j += 1;
                        }
                    }
                }
                return None; // Unterminated on this line: give up.
            }
            i += 1;
        }
    }
    None
}

/// Extracts the contract sites from one scanned file.
pub fn extract_sites(file: &ScannedFile) -> Vec<Site> {
    let mut sites = Vec::new();
    if EXEMPT_PREFIXES.iter().any(|p| file.rel_path.starts_with(p)) {
        return sites;
    }
    for (idx, code) in file.code.iter().enumerate() {
        // Every marker holds a `!` or `checked_`: other lines cannot match.
        if !code.contains('!') && !code.contains("checked_") {
            continue;
        }
        for marker in SITE_MARKERS {
            let mut from = 0;
            while let Some(rel) = code[from..].find(marker) {
                let at = from + rel;
                from = at + marker.len();
                // Identifier boundary on the left; a call `(` on the right;
                // not the marker's own definition (`fn checked_add(`).
                let before_ok = at == 0 || {
                    let c = code.as_bytes()[at - 1];
                    !(c.is_ascii_alphanumeric() || c == b'_')
                };
                let after_ok = code[at + marker.len()..].trim_start().starts_with('(');
                if !before_ok || !after_ok || find_token(code, "fn").is_some() {
                    continue;
                }
                // The code view's columns match the raw line up to the first
                // string literal, and the marker precedes its argument.
                let raw_col = file.raw[idx].find(marker).unwrap_or(0);
                if let Some(name) = first_string_literal(&file.raw, idx, raw_col) {
                    sites.push(Site {
                        name,
                        span: Span {
                            file: file.rel_path.clone(),
                            line: idx + 1,
                        },
                    });
                }
            }
        }
    }
    sites
}

/// The comparable forms of a site name: the full first token, plus its
/// `Type` / `method` halves when path-qualified. (Site names may carry a
/// human-readable tail — `"Process::setup_mpu cache hit: ..."` — which the
/// first-token split discards.)
pub(crate) fn site_candidates(name: &str) -> Vec<&str> {
    let first = name.split_whitespace().next().unwrap_or(name);
    let mut out = vec![first];
    if let Some((ty, method)) = first.split_once("::") {
        out.push(ty);
        out.push(method);
    }
    out
}

/// The comparable forms of a registered obligation's function name:
/// full, parenthesis-stripped (`encode_permissions(arm)` →
/// `encode_permissions`), and the `Type` / `method` halves.
pub(crate) fn obligation_keys(function: &str) -> Vec<&str> {
    let stripped = function.split('(').next().unwrap_or(function);
    let mut out = vec![function, stripped];
    if let Some((ty, method)) = stripped.split_once("::") {
        out.push(ty);
        out.push(method);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Runs the cross-check: sources vs. the given registry.
pub fn audit_against(
    files: &[ScannedFile],
    registry: &Registry,
    config: &AuditConfig,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Key index over the registry.
    let mut keys: BTreeSet<&str> = BTreeSet::new();
    for o in registry.obligations() {
        keys.extend(obligation_keys(&o.function));
    }

    // Direction 1: every site must be registered. While walking, remember
    // every site candidate — an obligation matched by a live site is, by
    // the same token, alive for direction 2.
    let sites: Vec<Site> = files.iter().flat_map(extract_sites).collect();
    let mut site_cands: BTreeSet<String> = BTreeSet::new();
    for site in &sites {
        let cands = site_candidates(&site.name);
        site_cands.extend(cands.iter().map(|c| c.to_string()));
        if cands.iter().any(|c| keys.contains(c)) {
            continue;
        }
        if config
            .allow_unregistered
            .iter()
            .any(|a| cands.contains(&a.as_str()) || a == &site.name)
        {
            continue;
        }
        findings.push(Finding {
            pass: Pass::Crosscheck,
            span: Some(site.span.clone()),
            message: format!(
                "contract site `{}` has no registered obligation \
                 (register it in the component's obligations module or \
                 allowlist it under [crosscheck] allow_unregistered)",
                site.name
            ),
        });
    }

    // Identifier index over the code view, for the liveness test.
    let mut idents: BTreeSet<String> = BTreeSet::new();
    let mut fn_names: BTreeSet<&str> = BTreeSet::new();
    for file in files {
        for f in &file.fns {
            fn_names.insert(&f.name);
        }
        for code in &file.code {
            let mut cur = String::new();
            for c in code.chars() {
                if c.is_alphanumeric() || c == '_' {
                    cur.push(c);
                } else if !cur.is_empty() {
                    idents.insert(std::mem::take(&mut cur));
                }
            }
            if !cur.is_empty() {
                idents.insert(cur);
            }
        }
    }

    // Direction 2: every non-trusted obligation must anchor to live code.
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for o in registry.obligations() {
        if o.trusted || !reported.insert(&o.function) {
            continue;
        }
        let stripped = o.function.split('(').next().unwrap_or(&o.function);
        let (ty, method) = match stripped.split_once("::") {
            Some((t, m)) => (Some(t), m),
            None => (None, stripped),
        };
        let alive = fn_names.contains(method)
            || fn_names.contains(stripped)
            || ty.is_some_and(|t| idents.contains(t))
            // Named by a live contract site (e.g. the `legacy::alloc`
            // checked-arithmetic obligations, whose names are site names).
            || obligation_keys(&o.function)
                .iter()
                .any(|k| site_cands.contains(*k));
        if alive {
            continue;
        }
        if config
            .allow_dead
            .iter()
            .any(|a| a == &o.function || a == stripped)
        {
            continue;
        }
        findings.push(Finding {
            pass: Pass::Crosscheck,
            span: None,
            message: format!(
                "registered obligation `{}` (component `{}`) matches no live \
                 code — dead spec (remove it or allowlist it under \
                 [crosscheck] allow_dead)",
                o.function, o.component
            ),
        });
    }

    findings
}

/// Runs the cross-check against the full workspace registry.
pub fn audit(files: &[ScannedFile], config: &AuditConfig) -> Vec<Finding> {
    audit_against(files, &workspace_registry(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_text;
    use tt_contracts::obligation::CheckResult;
    use tt_contracts::ContractKind;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.add_fn("k", "AppBreaks::invariant", ContractKind::Invariant, || {
            CheckResult::Verified { cases: 1 }
        });
        r.add_fn("k", "Arm7::adds_reg", ContractKind::Post, || {
            CheckResult::Verified { cases: 1 }
        });
        r.add_builtin_safety("k", &["encode_permissions(arm)"]);
        r
    }

    const SRC: &str = "\
pub struct AppBreaks;\n\
impl AppBreaks {\n\
    fn check(&self) {\n\
        tt_contracts::invariant!(\"AppBreaks\", self.ok());\n\
    }\n\
}\n\
pub fn adds_reg(a: u32) {\n\
    tt_contracts::requires!(\n\
        \"adds_reg\",\n\
        a < 16,\n\
    );\n\
}\n\
pub fn encode_permissions(x: u8) -> u8 {\n\
    tt_contracts::checked_add(\"encode_permissions\", x, 1)\n\
}\n";

    #[test]
    fn sites_are_extracted_across_wrapped_lines() {
        let f = scan_text("crates/k/src/lib.rs", SRC);
        let names: Vec<String> = extract_sites(&f).into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["AppBreaks", "adds_reg", "encode_permissions"]);
    }

    #[test]
    fn registered_sites_pass_via_full_type_or_method_match() {
        let f = scan_text("crates/k/src/lib.rs", SRC);
        let findings = audit_against(&[f], &registry(), &AuditConfig::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unregistered_site_is_flagged_with_span() {
        let f = scan_text(
            "crates/k/src/lib.rs",
            "pub fn ghost() {\n    tt_contracts::ensures!(\"ghost_site\", true);\n}\n",
        );
        let findings = audit_against(&[f], &registry(), &AuditConfig::default());
        // The registry's own obligations are dead in this one-fn tree;
        // the site finding is the one with a span.
        let sited: Vec<&Finding> = findings.iter().filter(|x| x.span.is_some()).collect();
        assert_eq!(sited.len(), 1, "{findings:?}");
        assert!(sited[0].message.contains("ghost_site"));
        assert_eq!(sited[0].span.as_ref().unwrap().line, 2);
    }

    #[test]
    fn allow_unregistered_suppresses_the_site() {
        let f = scan_text(
            "crates/k/src/lib.rs",
            "pub fn buggy() {\n    tt_contracts::ensures!(\"sys_tick_isr_buggy\", true);\n}\n",
        );
        let cfg = AuditConfig {
            allow_unregistered: vec!["sys_tick_isr_buggy".into()],
            ..Default::default()
        };
        let findings = audit_against(&[f], &registry(), &cfg);
        assert!(
            findings.iter().all(|x| x.span.is_none()),
            "site still flagged: {findings:?}"
        );
    }

    #[test]
    fn dead_obligation_is_flagged_and_allowlist_works() {
        let f = scan_text("crates/k/src/lib.rs", "pub fn unrelated() {}\n");
        let findings = audit_against(
            std::slice::from_ref(&f),
            &registry(),
            &AuditConfig::default(),
        );
        // All three registered functions are dead in this tiny tree.
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|x| x.span.is_none()));
        let cfg = AuditConfig {
            allow_dead: vec![
                "AppBreaks::invariant".into(),
                "Arm7::adds_reg".into(),
                "encode_permissions".into(),
            ],
            ..Default::default()
        };
        assert!(audit_against(&[f], &registry(), &cfg).is_empty());
    }

    #[test]
    fn trusted_obligations_are_exempt_from_the_dead_check() {
        let mut r = Registry::new();
        r.add_trusted("k", "Memory::refined_get", ContractKind::Post);
        let f = scan_text("crates/k/src/lib.rs", "pub fn unrelated() {}\n");
        assert!(audit_against(&[f], &r, &AuditConfig::default()).is_empty());
    }

    #[test]
    fn contracts_crate_sources_are_exempt_from_site_extraction() {
        let f = scan_text(
            "crates/contracts/src/lib.rs",
            "pub fn demo() {\n    invariant!(\"synthetic\", true);\n}\n",
        );
        assert!(extract_sites(&f).is_empty());
    }
}
