//! Structured, deterministic lint diagnostics.
//!
//! Every certifier run produces one [`LintReport`]: a serialisable record of the
//! schedule's identity, the diagnostics that fired (deny first, then warn, each
//! group sorted by lint id then message) and which lints were suppressed.  The
//! ordering is part of the format — reports for the same schedule are
//! byte-identical across runs, which is what lets `results/lint_report.json` sit
//! in the golden byte-identity suite next to the figure artifacts.

use serde::{Deserialize, Serialize};

/// How severe a lint finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// A quality observation; never fails certification.
    Warn,
    /// A broken invariant; the schedule is not certified.
    Deny,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable lint id (see [`crate::lints`]).
    pub lint: String,
    /// The lint's severity.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
}

/// The outcome of statically certifying one schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// Name of the checked loop.
    pub loop_name: String,
    /// Name of the machine the schedule targets.
    pub machine: String,
    /// The schedule's initiation interval.
    pub ii: u32,
    /// The schedule's minimum initiation interval.
    pub mii: u32,
    /// Stage count (statically re-derived).
    pub stage_count: u32,
    /// Iteration count the `NCYCLES` window was checked for.
    pub iterations: u64,
    /// Findings: deny first, then warn; each group sorted by (lint, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Lint ids suppressed for this run, sorted.
    pub suppressed: Vec<String>,
}

impl LintReport {
    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Whether the schedule is statically certified (no deny-level findings).
    pub fn is_certified(&self) -> bool {
        self.deny_count() == 0
    }

    /// Sorted, deduplicated ids of the deny-level lints that fired.
    pub fn deny_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .map(|d| d.lint.clone())
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Sorted, deduplicated ids of the warn-level lints that fired.
    pub fn warn_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .map(|d| d.lint.clone())
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Canonical ordering: deny before warn, then by lint id, then message.
    pub(crate) fn sort_diagnostics(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.lint.cmp(&b.lint))
                .then_with(|| a.message.cmp(&b.message))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(lint: &str, severity: Severity, message: &str) -> Diagnostic {
        Diagnostic {
            lint: lint.into(),
            severity,
            message: message.into(),
        }
    }

    #[test]
    fn counting_and_certification() {
        let mut report = LintReport {
            loop_name: "l".into(),
            machine: "m".into(),
            ii: 2,
            mii: 2,
            stage_count: 1,
            iterations: 4,
            diagnostics: vec![
                diag("ii-slack", Severity::Warn, "w"),
                diag("fu-conflict", Severity::Deny, "b"),
                diag("fu-conflict", Severity::Deny, "a"),
            ],
            suppressed: vec![],
        };
        assert_eq!(report.deny_count(), 2);
        assert!(!report.is_certified());
        assert_eq!(report.deny_ids(), vec!["fu-conflict".to_string()]);
        report.sort_diagnostics();
        let order: Vec<&str> = report
            .diagnostics
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(order, vec!["a", "b", "w"], "deny first, then message order");
    }

    #[test]
    fn reports_roundtrip_through_json() {
        let report = LintReport {
            loop_name: "l".into(),
            machine: "m".into(),
            ii: 3,
            mii: 2,
            stage_count: 2,
            iterations: 8,
            diagnostics: vec![diag("dead-value", Severity::Warn, "x")],
            suppressed: vec!["ii-slack".into()],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: LintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
