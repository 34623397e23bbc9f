//! # vliw-lint — static schedule certification and dataflow lints
//!
//! A gen/kill dataflow framework over the `II` rows of a modulo-scheduled kernel
//! (in the style of rustc's MIR dataflow layer), plus the analyses and lints built
//! on it:
//!
//! * [`domain`] / [`engine`] — bit lattices and the backward fixpoint driver
//!   across the II wraparound (loop-carried facts propagate around the kernel
//!   ring);
//! * [`liveness`] — modulo liveness: per-cluster live sets and an independent
//!   recomputation of the `MaxLive` register-pressure numbers;
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
//! fuzz case of `vliw-verify` and every `VERIFY_CELLS=1` figure cell of
//! `vliw_bench::Sweep` is certified next to its replay; the `lint` binary audits
//! every schedule behind the committed figure artifacts into
//! `results/lint_report.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod certify;
pub mod diagnostics;
pub mod domain;
pub mod engine;
pub mod lints;
pub mod liveness;
pub mod makespan;
pub mod optimal;
pub mod reportio;

pub use certify::{Certifier, CLIFF_MARGIN, IMBALANCE_GAP};
pub use diagnostics::{Diagnostic, LintReport, Severity};
pub use domain::BitSet;
pub use engine::{fixpoint, KernelAnalysis};
pub use liveness::{ModuloLiveness, ValueInterval};
pub use makespan::{ncycles_drift_ok, static_makespan, static_ncycles, static_stage_count};
pub use optimal::{OptCertificate, OptVerdict, OptimalSolver, DEFAULT_SOLVER_PROBES};
