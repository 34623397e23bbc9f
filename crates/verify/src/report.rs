//! Deterministic, serialisable campaign reports.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_sim::Finding;

/// Coverage counters accumulated over a whole campaign.  All maps are ordered
/// (`BTreeMap`), so serialisation is byte-deterministic for a given seed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Coverage {
    /// Distinct machine *structures* explored (names ignored).
    pub machines_explored: u64,
    /// Loops generated (one per case).
    pub loops_generated: u64,
    /// Schedules produced and differentially audited.
    pub schedules_checked: u64,
    /// Audited schedules that achieved their minimum II (`II == MII`).
    pub schedules_at_mii: u64,
    /// `(policy, case)` pairs whose II search exhausted its budget.
    pub unschedulable: u64,
    /// Distinct initiation intervals achieved across all schedules.
    pub distinct_iis: u64,
    /// The largest II achieved.
    pub max_ii: u32,
    /// Schedules whose II exceeded 64 — exercising the reservation table's
    /// multi-word rows.
    pub ii_over_64: u64,
    /// Exactly-unrolled kernels (one sampled factor per case, scheduled with BSA)
    /// produced and differentially audited.
    pub unrolled_schedules_checked: u64,
    /// Unroll audits whose II search exhausted its budget (coverage, not failure —
    /// unrolled bodies are the fastest way to overflow a tiny register file).
    pub unrolled_unschedulable: u64,
    /// Histogram over the sampled unroll factors of every audited kernel
    /// (`"x<factor>"` keys).
    pub unroll_factors: BTreeMap<String, u64>,
    /// Histogram over `"<policy>/<limiting-resource>"` of the engine's diagnosis for
    /// every produced schedule.
    pub limiting_by_policy: BTreeMap<String, u64>,
    /// Histogram over cluster counts of the sampled machines.
    pub cluster_counts: BTreeMap<String, u64>,
    /// Schedules the static certifier (the fifth oracle) certified: no
    /// `StaticViolation` finding.  In a passing campaign this equals
    /// `schedules_checked + unrolled_schedules_checked`.
    pub statically_certified: u64,
    /// Histogram over warn-level lint ids the static certifier raised across all
    /// audited schedules.
    pub lint_warnings: BTreeMap<String, u64>,
    /// Schedules carrying a sixth-oracle optimality certificate.  In a passing
    /// campaign this equals `schedules_checked + unrolled_schedules_checked`:
    /// every audited schedule is solved.
    pub solver_certified: u64,
    /// Certificates that pinned the exact optimal II (verdict `Optimal`).
    pub solver_exact: u64,
    /// Certificates that only bounded the optimum from below (verdict
    /// `LowerBound`).
    pub solver_lower_bounds: u64,
    /// Certificates whose per-loop solver fuel budget ran out before the search
    /// concluded.
    pub solver_fuel_exhausted: u64,
    /// Histogram over the certified II gap `achieved − lower_bound` of every
    /// audited schedule (`"gap<k>"` keys).  Zero `achieved < lower_bound`
    /// violations means no negative keys ever appear here.
    pub optimality_gaps: BTreeMap<String, u64>,
}

/// A shrunk, self-contained reproducer of one violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShrunkRepro {
    /// The reduced machine.
    pub machine: MachineConfig,
    /// The reduced loop.
    pub graph: DepGraph,
    /// Nodes in the reduced loop.
    pub n_nodes: usize,
    /// Edges in the reduced loop.
    pub n_edges: usize,
    /// Failure-predicate evaluations the shrink spent.
    pub shrink_checks: usize,
}

/// One verified violation: the failing case, the policy, the findings, and the
/// shrunk reproducer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViolationReport {
    /// Campaign position of the failing case.
    pub case_index: u64,
    /// The case seed (regenerates the original machine and loop exactly).
    pub case_seed: u64,
    /// The policy whose schedule failed the audit.
    pub policy: String,
    /// The original sampled machine.
    pub machine: MachineConfig,
    /// Name of the original generated loop.
    pub loop_name: String,
    /// The oracle findings on the original case (empty for a pre-scheduling
    /// rejection, see `rejected`).
    pub findings: Vec<Finding>,
    /// Set when the scheduler rejected the generated graph before searching —
    /// a violation of the generation pipeline rather than of a schedule, kept
    /// distinct from the oracle findings so report consumers can triage by kind.
    pub rejected: Option<String>,
    /// The minimal reproducer (still failing after reduction).
    pub shrunk: ShrunkRepro,
}

/// The full, deterministic output of one campaign — written to
/// `results/verify_campaign.json` by the `verify` binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The campaign seed every case derives from.
    pub campaign_seed: u64,
    /// The case budget that was run.
    pub cases: u64,
    /// Labels of the policies exercised, in order.
    pub policies: Vec<String>,
    /// Aggregate coverage counters.
    pub coverage: Coverage,
    /// Every violation found, in case order (empty = campaign passed).
    pub violations: Vec<ViolationReport>,
}

impl CampaignReport {
    /// Whether the campaign found no violations.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}
