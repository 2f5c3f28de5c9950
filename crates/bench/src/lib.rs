//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation (§5, §6). Each figure comes from the CI gate that
//! already computes it, so the artifact and the check are one run.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Fig. 10 proof effort | `tt_analysis` | `tt-audit --json` |
//! | Fig. 11 CPU cycles | [`fig11`] | `fig11_cycles` |
//! | Fig. 12 verification time | [`fig12`], [`incremental`] | `TT_BENCH_THREADS=1 verify_all --cold --json` |
//! | §6.1 differential testing | `tt_kernel::differential` | `e61_differential` |
//! | §6.2 memory usage | [`e62`] | `e62_memory_usage` |
//!
//! Absolute numbers are not expected to match the paper (the substrate is
//! a simulator, not an NRF52840dk + Flux/z3); the *shape* — who wins, by
//! roughly what factor, where the crossovers fall — is the reproduction
//! target, recorded in `EXPERIMENTS.md`.

pub mod args;
pub mod e62;
pub mod explore;
pub mod fig11;
pub mod fig12;
pub mod fleet;
pub mod incremental;
pub mod json;
pub mod reports;
pub mod switch;

/// Formats a `±x.xx%` difference the way Fig. 11 prints it.
pub fn pct_diff(ticktock: f64, tock: f64) -> String {
    if tock == 0.0 {
        return "n/a".into();
    }
    let diff = (ticktock - tock) / tock * 100.0;
    format!("{diff:+.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_diff_formats_both_signs() {
        assert_eq!(pct_diff(50.0, 100.0), "-50.00%");
        assert_eq!(pct_diff(108.0, 100.0), "+8.00%");
        assert_eq!(pct_diff(1.0, 0.0), "n/a");
    }
}
