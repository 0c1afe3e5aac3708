//! Structural invariant auditing for the hybrid-store workspace.
//!
//! The paper's correctness story rests on stateful invariants (RB validity
//! bitmaps agreeing with IREN counts, block-state machines only cycling
//! free → normal → replaceable → normal, 128 KB-aligned SSD writes, mutually
//! consistent mapping tables) that until now were only guarded indirectly by
//! end-to-end bit-identity tests. This crate provides the common vocabulary
//! for checking them mechanically:
//!
//! * [`Validate`] — implemented by each stateful structure (caches, queues,
//!   the FTL). An implementation scans the structure and reports every
//!   violated invariant as a [`Violation`].
//! * [`audit`] / [`audit_enabled`] — the debug-gated trigger. Audits compile
//!   to nothing in release builds (`cfg(debug_assertions)`) and are skipped
//!   in debug builds unless the `INVARIANT_AUDIT` environment variable is
//!   set (or a test opts in via [`force_enable`]), so the default developer
//!   loop stays fast while CI can run every equivalence suite fully audited.
//!
//! Validators themselves are compiled unconditionally — corruption tests
//! exercise them in release builds too; only the *call sites* are gated.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// A single violated invariant, as reported by a [`Validate`] implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which structure reported it, e.g. `"ResultStore"`.
    pub subject: &'static str,
    /// Short machine-greppable invariant name, e.g. `"iren-bitmap-agree"`.
    pub invariant: &'static str,
    /// Human-readable detail: what was expected vs. what was found.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violates `{}`: {}",
            self.subject, self.invariant, self.detail
        )
    }
}

/// Accumulates [`Violation`]s during a validation pass.
///
/// A report is handed to [`Validate::validate`]; callers then inspect it or
/// let [`audit_panic_on_violations`] turn a non-empty report into a panic
/// that lists every violation at once (more useful than failing on the
/// first, since corruption usually breaks several invariants together).
#[derive(Debug, Default)]
pub struct Report {
    violations: Vec<Violation>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a violation.
    pub fn violation(
        &mut self,
        subject: &'static str,
        invariant: &'static str,
        detail: impl Into<String>,
    ) {
        self.violations.push(Violation {
            subject,
            invariant,
            detail: detail.into(),
        });
    }

    /// Records a violation unless `ok` holds. Returns `ok` so checks can be
    /// chained or used to guard dependent checks.
    pub fn check(
        &mut self,
        ok: bool,
        subject: &'static str,
        invariant: &'static str,
        detail: impl FnOnce() -> String,
    ) -> bool {
        if !ok {
            self.violation(subject, invariant, detail());
        }
        ok
    }

    /// Folds another report's violations into this one (used when a
    /// composite — a cluster of shards, a cache over a device — gathers
    /// per-component reports into a single verdict).
    pub fn absorb(&mut self, other: Report) {
        self.violations.extend(other.violations);
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders every violation, one per line.
    pub fn summary(&self) -> String {
        self.violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A structure whose internal invariants can be checked by scanning it.
///
/// Implementations must be *pure observers*: a validation pass may rebuild
/// counts from first principles (e.g. recount a validity bitmap and compare
/// with the incrementally maintained IREN) but must never mutate the
/// structure.
pub trait Validate {
    /// Scans `self` and records every violated invariant into `report`.
    fn validate(&self, report: &mut Report);

    /// Convenience wrapper: runs [`Validate::validate`] into a fresh report.
    fn validation_report(&self) -> Report {
        let mut report = Report::new();
        self.validate(&mut report);
        report
    }
}

/// Audit switch state, cached after the first environment read.
/// 0 = not yet resolved, 1 = disabled, 2 = enabled.
static AUDIT_STATE: AtomicU8 = AtomicU8::new(0);

/// Returns whether audits requested via [`audit`] should actually run.
///
/// Resolution order: a programmatic [`force_enable`] wins; otherwise the
/// `INVARIANT_AUDIT` environment variable is read once (any non-empty value
/// other than `0` enables) and the answer is cached for the process
/// lifetime. Reading the environment on every mutation would dominate the
/// hot paths the audits are meant to observe.
pub fn audit_enabled() -> bool {
    match AUDIT_STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = std::env::var("INVARIANT_AUDIT")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            AUDIT_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatically turns auditing on for the rest of the process.
///
/// Tests use this instead of mutating `INVARIANT_AUDIT`: environment
/// mutation is process-global and racy under the multi-threaded test
/// harness, while this is an atomic store.
pub fn force_enable() {
    AUDIT_STATE.store(2, Ordering::Relaxed);
}

/// Validates `value` and panics with a full violation listing if anything
/// is wrong. This is the common terminal step of an audit; exposed as a
/// function so the [`audit`] macro stays tiny.
pub fn audit_panic_on_violations<T: Validate + ?Sized>(value: &T, context: &str) {
    let report = value.validation_report();
    if !report.is_clean() {
        panic!(
            "invariant audit failed at {context} ({} violation(s)):\n{}",
            report.violations().len(),
            report.summary()
        );
    }
}

/// Audits a [`Validate`] value at a mutation boundary.
///
/// `audit!(&store, "offer")` validates `store` and panics with the full
/// violation list if any invariant is broken — but only in debug builds
/// (`cfg(debug_assertions)`) and only when [`audit_enabled`] says so.
/// Release builds compile the whole call away, so instrumented hot paths
/// carry no cost in what the benchmark times.
#[macro_export]
macro_rules! audit {
    ($value:expr, $context:expr) => {
        #[cfg(debug_assertions)]
        {
            if $crate::audit_enabled() {
                $crate::audit_panic_on_violations($value, $context);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(Vec<(&'static str, &'static str, &'static str)>);

    impl Validate for Fixed {
        fn validate(&self, report: &mut Report) {
            for (subject, invariant, detail) in &self.0 {
                report.violation(subject, invariant, *detail);
            }
        }
    }

    #[test]
    fn clean_report_is_clean() {
        let report = Fixed(vec![]).validation_report();
        assert!(report.is_clean());
        assert!(report.summary().is_empty());
    }

    #[test]
    fn violations_are_collected_and_rendered() {
        let fixed = Fixed(vec![
            ("Store", "map-agree", "entry 7 missing"),
            ("Store", "counter", "expected 3, found 4"),
        ]);
        let report = fixed.validation_report();
        assert_eq!(report.violations().len(), 2);
        assert!(!report.is_clean());
        let text = report.summary();
        assert!(text.contains("Store violates `map-agree`: entry 7 missing"));
        assert!(text.contains("expected 3, found 4"));
    }

    #[test]
    fn check_records_only_on_failure() {
        let mut report = Report::new();
        assert!(report.check(true, "S", "ok", || unreachable!()));
        assert!(!report.check(false, "S", "bad", || "detail".to_string()));
        assert_eq!(report.violations().len(), 1);
        assert_eq!(report.violations()[0].invariant, "bad");
    }

    #[test]
    #[should_panic(expected = "invariant audit failed at unit-test")]
    fn audit_panics_on_violation() {
        let fixed = Fixed(vec![("S", "bad", "boom")]);
        audit_panic_on_violations(&fixed, "unit-test");
    }

    #[test]
    fn force_enable_turns_audits_on() {
        force_enable();
        assert!(audit_enabled());
    }

    #[test]
    fn audit_macro_is_a_no_op_for_clean_values() {
        force_enable();
        let fixed = Fixed(vec![]);
        audit!(&fixed, "clean");
    }
}
