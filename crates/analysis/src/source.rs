//! Lexical Rust source scanning: the substrate every audit pass runs on.
//!
//! The scanner itself (comment/string stripping, `fn` span recovery,
//! content hashing) lives in [`tt_contracts::span`] so that the incremental
//! verifier and the audit passes share one span/hash layer — a cached
//! verdict and an audit finding must agree on what "this function's text"
//! means. This module re-exports those types and adds the filesystem side:
//! loading files and walking the audited workspace source set.

use std::fs;
use std::path::{Path, PathBuf};

pub use tt_contracts::span::{find_token, scan_text, FnSpan, ScannedFile, SourceIndex, Span};

/// Loads and scans one file, returning `None` on read failure.
pub fn scan_file(root: &Path, path: &Path) -> Option<ScannedFile> {
    let text = fs::read_to_string(path).ok()?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Some(scan_text(&rel, &text))
}

/// Walks the audited source set: `crates/*/src/**/*.rs` plus the top-level
/// `src/`. Vendored shims, `tests/`, `benches/`, `examples/` and build
/// output are outside the audit (they are not kernel code).
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut out);
        }
    }
    collect_rs(&root.join("src"), &mut out);
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_walk_finds_kernel_sources_sorted() {
        let root = crate::audit::workspace_root();
        let paths = workspace_sources(&root);
        assert!(paths.iter().any(|p| p.ends_with("src/machine.rs")));
        assert!(paths
            .iter()
            .all(|p| p.extension().is_some_and(|e| e == "rs")));
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        // Vendored shims are outside the audit.
        assert!(paths
            .iter()
            .all(|p| !p.to_string_lossy().contains("shims/")));
    }

    #[test]
    fn stored_hashes_are_fnv_over_the_raw_lines_on_the_real_tree() {
        let files = crate::audit::load_workspace(&crate::audit::workspace_root());
        assert!(files.len() > 20);
        for f in &files {
            let mut h = tt_contracts::span::Fnv::new();
            for line in &f.raw {
                h.mix_str(line);
            }
            assert_eq!(f.content_hash(), h.finish(), "{}", f.rel_path);
            assert_eq!(f.imbalance(), None, "{}", f.rel_path);
        }
    }

    #[test]
    fn scan_file_produces_workspace_relative_paths() {
        let root = crate::audit::workspace_root();
        let path = root.join("crates/contracts/src/lib.rs");
        let f = scan_file(&root, &path).expect("readable");
        assert_eq!(f.rel_path, "crates/contracts/src/lib.rs");
        assert!(!f.fns.is_empty());
    }
}
