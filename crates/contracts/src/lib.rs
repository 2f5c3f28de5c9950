//! Runtime refinement-contract engine — the reproduction's analogue of Flux.
//!
//! The TickTock paper verifies isolation with [Flux], an SMT-backed refinement
//! type checker for Rust. Flux is an external static tool; this crate
//! reproduces its *role* in the artifact with an executable design:
//!
//! * **Contracts** — [`requires!`], [`ensures!`] and [`invariant!`] attach
//!   preconditions, postconditions and data-structure invariants to real
//!   kernel code. In [`Mode::Enforce`] a violated contract aborts the
//!   offending computation exactly where Flux would have rejected the code.
//! * **Obligations** — each verified function registers the same contract as a
//!   standalone [`obligation::Obligation`]: a closure that *discharges* the
//!   contract over an input [`domain`] (bounded-exhaustive or randomized),
//!   standing in for the SMT search.
//! * **Verifier** — [`verifier::Verifier`] plays the role of `flux` the CLI:
//!   it checks every obligation modularly, times each function, and produces
//!   the per-component statistics of the paper's Figure 12.
//! * **Lemmas** — [`lemmas`] reproduces the paper's trusted Lean lemmas
//!   (§5): facts about powers of two and alignment that SMT solvers choke on,
//!   here discharged by exhaustive structural checking.
//! * **Effort accounting** — [`effort`] scans the repository and produces the
//!   proof-effort table of Figure 10 (source LOC, functions, spec LOC,
//!   trusted subsets).
//!
//! The engine genuinely distinguishes correct from buggy code: pointed at the
//! faithful reimplementation of Tock's original allocator (`tt-legacy`), it
//! rediscovers all the isolation bugs described in §2.2 and §3.4 of the
//! paper.
//!
//! [Flux]: https://flux-rs.github.io/flux/

#![warn(missing_docs)]

pub mod domain;
pub mod effort;
pub mod lemmas;
pub mod math;
pub mod obligation;
pub mod pool;
pub mod simctx;
pub mod span;
pub mod vcache;
pub mod verifier;

use std::fmt;

/// How contract checks behave at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Check every contract and panic with [`ContractViolation`] on failure.
    ///
    /// This is the default and corresponds to code that Flux has verified:
    /// a violation is a verification failure, not a recoverable error.
    #[default]
    Enforce,
    /// Check every contract but only record failures in the violation log.
    ///
    /// The verifier harness uses this to *search* for violations without
    /// unwinding, mirroring how Flux reports all errors in one run.
    Observe,
    /// Skip contract checks entirely (used by performance benchmarks to
    /// measure the unverified fast path).
    Off,
}

thread_local! {
    // The violation log is rare-path (a push only on contract failure),
    // so it stays out of the scalar-only `simctx::SimContext` fast lane.
    static VIOLATIONS: std::cell::RefCell<Vec<ContractViolation>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A failed contract: the runtime analogue of a Flux type error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractViolation {
    /// Which kind of contract failed.
    pub kind: ContractKind,
    /// The function or type the contract is attached to.
    pub site: &'static str,
    /// The contract expression, as written.
    pub predicate: &'static str,
}

/// The kinds of contract Flux (and this engine) checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContractKind {
    /// A `requires` precondition at a call boundary.
    Pre,
    /// An `ensures` postcondition at function exit.
    Post,
    /// A struct invariant, checked at construction and mutation.
    Invariant,
    /// An implicit arithmetic-overflow obligation (Flux checks these with no
    /// annotation overhead; see §2.4 "Built-in Safety Checks").
    Overflow,
    /// A trusted lemma whose statement is discharged externally (Lean in the
    /// paper, exhaustive checking here).
    Lemma,
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "contract violation [{:?}] at {}: {}",
            self.kind, self.site, self.predicate
        )
    }
}

impl std::error::Error for ContractViolation {}

/// Returns the current contract-checking mode for this thread.
///
/// A single [`simctx::SimContext`] access — this is on the hot path of
/// every `requires!`/`ensures!`/`invariant!` check.
#[inline]
pub fn mode() -> Mode {
    simctx::with(|c| c.mode.get())
}

/// Sets the contract-checking mode for this thread, returning the old mode.
pub fn set_mode(mode: Mode) -> Mode {
    simctx::with(|c| c.mode.replace(mode))
}

/// Runs `f` with the given mode, restoring the previous mode afterwards.
pub fn with_mode<T>(mode: Mode, f: impl FnOnce() -> T) -> T {
    struct Restore(Mode);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_mode(self.0);
        }
    }
    let _restore = Restore(set_mode(mode));
    f()
}

/// Records a violation according to the current [`Mode`].
///
/// In [`Mode::Enforce`] this panics with the violation message so the
/// verifier (and tests) can recover it via `catch_unwind`.
#[track_caller]
pub fn report(violation: ContractViolation) {
    match mode() {
        Mode::Enforce => {
            let msg = violation.to_string();
            VIOLATIONS.with(|v| v.borrow_mut().push(violation));
            panic!("{msg}");
        }
        Mode::Observe => VIOLATIONS.with(|v| v.borrow_mut().push(violation)),
        Mode::Off => {}
    }
}

/// Drains and returns the violations recorded on this thread.
pub fn take_violations() -> Vec<ContractViolation> {
    VIOLATIONS.with(|v| std::mem::take(&mut *v.borrow_mut()))
}

/// Returns the number of violations currently recorded on this thread.
pub fn violation_count() -> usize {
    VIOLATIONS.with(|v| v.borrow().len())
}

/// Checks a precondition (Flux `requires`).
///
/// # Examples
///
/// ```
/// use tt_contracts::requires;
/// fn update_end(start: usize, end: usize) {
///     requires!("NonEmptyRange::update_end", end > start);
/// }
/// update_end(0, 8);
/// ```
#[macro_export]
macro_rules! requires {
    ($site:expr, $cond:expr) => {
        if $crate::mode() != $crate::Mode::Off && !($cond) {
            $crate::report($crate::ContractViolation {
                kind: $crate::ContractKind::Pre,
                site: $site,
                predicate: stringify!($cond),
            });
        }
    };
}

/// Checks a postcondition (Flux `ensures`).
#[macro_export]
macro_rules! ensures {
    ($site:expr, $cond:expr) => {
        if $crate::mode() != $crate::Mode::Off && !($cond) {
            $crate::report($crate::ContractViolation {
                kind: $crate::ContractKind::Post,
                site: $site,
                predicate: stringify!($cond),
            });
        }
    };
}

/// Checks a struct invariant (Flux `invariant`).
#[macro_export]
macro_rules! invariant {
    ($site:expr, $cond:expr) => {
        if $crate::mode() != $crate::Mode::Off && !($cond) {
            $crate::report($crate::ContractViolation {
                kind: $crate::ContractKind::Invariant,
                site: $site,
                predicate: stringify!($cond),
            });
        }
    };
}

/// Checked addition standing in for Flux's implicit overflow obligation.
///
/// Flux rejects code whose arithmetic may overflow; here an overflow in
/// [`Mode::Enforce`] reports a [`ContractKind::Overflow`] violation and
/// saturates so execution can continue under [`Mode::Observe`].
pub fn checked_add(site: &'static str, a: usize, b: usize) -> usize {
    match a.checked_add(b) {
        Some(v) => v,
        None => {
            report(ContractViolation {
                kind: ContractKind::Overflow,
                site,
                predicate: "a + b overflows usize",
            });
            usize::MAX
        }
    }
}

/// Checked subtraction standing in for Flux's implicit underflow obligation.
///
/// This is exactly the class of bug Flux flagged in Tock's
/// `update_app_mem_region` (`num_enabled_subregions0 - 1` underflowing to
/// `usize::MAX`, §2.2).
pub fn checked_sub(site: &'static str, a: usize, b: usize) -> usize {
    match a.checked_sub(b) {
        Some(v) => v,
        None => {
            report(ContractViolation {
                kind: ContractKind::Overflow,
                site,
                predicate: "a - b underflows usize",
            });
            0
        }
    }
}

/// Checked multiplication standing in for Flux's implicit overflow obligation.
pub fn checked_mul(site: &'static str, a: usize, b: usize) -> usize {
    match a.checked_mul(b) {
        Some(v) => v,
        None => {
            report(ContractViolation {
                kind: ContractKind::Overflow,
                site,
                predicate: "a * b overflows usize",
            });
            usize::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enforce_mode_panics_on_violation() {
        let err = std::panic::catch_unwind(|| {
            requires!("test_site", 1 > 2);
        });
        assert!(err.is_err());
        // The violation is also logged before the panic.
        let violations = take_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ContractKind::Pre);
        assert_eq!(violations[0].site, "test_site");
    }

    #[test]
    fn observe_mode_records_without_panicking() {
        with_mode(Mode::Observe, || {
            ensures!("obs", false);
            invariant!("obs", false);
        });
        let violations = take_violations();
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].kind, ContractKind::Post);
        assert_eq!(violations[1].kind, ContractKind::Invariant);
    }

    #[test]
    fn off_mode_skips_checks() {
        with_mode(Mode::Off, || {
            requires!("off", false);
        });
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn mode_is_restored_after_with_mode() {
        assert_eq!(mode(), Mode::Enforce);
        with_mode(Mode::Off, || assert_eq!(mode(), Mode::Off));
        assert_eq!(mode(), Mode::Enforce);
    }

    #[test]
    fn mode_restored_even_on_panic() {
        let _ = std::panic::catch_unwind(|| {
            with_mode(Mode::Observe, || panic!("boom"));
        });
        assert_eq!(mode(), Mode::Enforce);
        let _ = take_violations();
    }

    #[test]
    fn passing_contracts_are_silent() {
        requires!("ok", 2 > 1);
        ensures!("ok", 1 + 1 == 2);
        invariant!("ok", true);
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn checked_arith_reports_overflow_kind() {
        with_mode(Mode::Observe, || {
            assert_eq!(checked_add("t", usize::MAX, 1), usize::MAX);
            assert_eq!(checked_sub("t", 0, 1), 0);
            assert_eq!(checked_mul("t", usize::MAX, 2), usize::MAX);
        });
        let violations = take_violations();
        assert_eq!(violations.len(), 3);
        assert!(violations.iter().all(|v| v.kind == ContractKind::Overflow));
    }

    #[test]
    fn checked_arith_passes_through_valid_values() {
        assert_eq!(checked_add("t", 2, 3), 5);
        assert_eq!(checked_sub("t", 3, 2), 1);
        assert_eq!(checked_mul("t", 4, 8), 32);
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn display_formats_violation() {
        let v = ContractViolation {
            kind: ContractKind::Post,
            site: "f",
            predicate: "x > 0",
        };
        let s = v.to_string();
        assert!(s.contains("Post"));
        assert!(s.contains("f"));
        assert!(s.contains("x > 0"));
    }
}
