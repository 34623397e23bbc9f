//! # vliw-lint — static schedule certification
//!
//! Proves a modulo schedule legal without executing it, from re-derivations
//! written independently of the scheduler, and bounds its II against the
//! optimum:
//!
//! * [`liveness`] — modulo liveness: per-value live intervals folded into an
//!   independent recomputation of the per-cluster `MaxLive` register pressure;
//! * [`makespan`] — closed-form makespan / `NCYCLES` re-derivation and the IPC
//!   drift window;
//! * [`lints`] / [`diagnostics`] — the lint registry (stable ids, fixed
//!   severities, per-lint suppression) and deterministic structured reports;
//! * [`certify`] — the deny-level certifier proving the dynamic verifier's four
//!   invariants without execution, plus warn-level schedule-quality lints;
//! * [`optimal`] — the budgeted branch-and-bound exact modulo scheduler whose
//!   certificates bound how far a schedule's II sits from the true optimum;
//! * [`reportio`] — the report-writing/exit-code tail shared by the gate bins.
//!
//! The certifier is the static half of `vliw_sim::check_schedule`, so every
//! fuzz case of `vliw-verify` and every schedule behind the committed figure
//! artifacts is certified next to its replay; the `lint` binary of
//! `vliw-bench` runs the figure audit into `results/lint_report.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod certify;
pub mod diagnostics;
pub mod lints;
pub mod liveness;
pub mod makespan;
pub mod optimal;
pub mod reportio;

pub use certify::{Certifier, CLIFF_MARGIN, IMBALANCE_GAP};
pub use diagnostics::{Diagnostic, LintReport, Severity};
pub use liveness::{ModuloLiveness, ValueInterval};
pub use makespan::{ncycles_drift_ok, static_makespan, static_ncycles, static_stage_count};
pub use optimal::{OptCertificate, OptVerdict, OptimalSolver, DEFAULT_SOLVER_PROBES};
