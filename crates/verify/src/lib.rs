//! # vliw-verify — coverage-directed differential verification
//!
//! The paper's conclusions rest on the schedulers being *correct* across a wide
//! space of clustered machine descriptions, yet the figure pipelines only ever
//! schedule — they never execute.  This crate closes that gap with fuzz campaigns:
//!
//! 1. [`case`] draws a seeded random `(machine, loop)` pair per case — machine
//!    configurations from [`vliw_arch::MachineSampler`], loop bodies from
//!    [`vliw_workloads::LoopGenerator`] under a fuzzed
//!    [`vliw_workloads::GeneratorProfile`], with the loop's edge latencies matching
//!    the sampled machine's (possibly perturbed) latency model;
//! 2. [`oracle`] runs every one of the five scheduling policies (unified SMS, BSA,
//!    N&E, round-robin, load-balanced) on each pair through the shared engine and
//!    audits every produced schedule with [`vliw_sim::check_schedule`] — static
//!    certification, cycle-level replay, and the closed-form cycle cross-checks; every
//!    case additionally draws a sampled unroll factor (2–8) and pushes its
//!    exactly-unrolled kernel ([`vliw_ddg::unroll_exact`], scheduled with BSA)
//!    through the same four oracles, so the unroll path is execution-validated too;
//! 3. [`shrink`] reduces any failing pair to a minimal reproducer by deleting nodes
//!    and edges, clamping iteration counts and simplifying the machine, re-checking
//!    the failure after every candidate step;
//! 4. [`campaign`] runs a case budget rayon-parallel from a single campaign seed,
//!    folds per-case results into coverage counters (machines explored, IIs hit,
//!    policy × limiting-resource histogram) and emits a deterministic JSON
//!    [`report::CampaignReport`] — same seed, same bytes.
//!
//! The `verify` binary drives a campaign from the command line and writes
//! `results/verify_campaign.json`; CI runs a small fixed-seed campaign on every PR
//! (the `verify-smoke` job).  [`check_case_with`] runs the same case audit under
//! a caller's solver; `vliw_bench`'s `fig_optgap` pipeline is built on it.
//!
//! [`fault`] turns the campaign machinery against the robustness layer itself: a
//! [`FaultyPolicy`] injects a sampled misbehaviour (dropped bus reservations,
//! fabricated trials, burned fuel, panics) into the primary rung of
//! [`cvliw_core::ResilientScheduler`] and the campaign asserts that every fault is
//! contained — no uncertified schedule escapes, the ladder always terminates with
//! a typed outcome, and every containment is on record.  The `fault` binary writes
//! the golden-tested `results/fault_campaign.json`; CI gates on it in the
//! `fault-smoke` job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod case;
pub mod fault;
pub mod oracle;
pub mod report;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig};
pub use case::{generate_case, FuzzCase};
pub use fault::{
    run_fault_campaign, FaultCampaignConfig, FaultCampaignReport, FaultCoverage, FaultKind,
    FaultPlan, FaultyPolicy, UncontainedFault,
};
pub use oracle::{
    audit_scheduled, check_case, check_case_with, check_policy, check_unrolled, solve_certificate,
    CaseOutcome, Policy, PolicyOutcome, UnrollAudit,
};
pub use report::{CampaignReport, Coverage, ShrunkRepro, ViolationReport};
pub use shrink::{induced_subgraph, shrink_case, ShrinkResult};
