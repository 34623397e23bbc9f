//! The campaign runner: a seeded, rayon-parallel sweep over fuzz cases.

use crate::case::generate_case;
use crate::oracle::{check_case, check_policy, check_unrolled, CaseOutcome, Policy, PolicyOutcome};
use crate::report::{CampaignReport, Coverage, ShrunkRepro, ViolationReport};
use crate::shrink::shrink_case;
use rayon::prelude::*;
use std::collections::BTreeSet;
use vliw_arch::{MachineConfig, MachineSpace};

/// Configuration of one verification campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The campaign seed; every case derives deterministically from it.
    pub seed: u64,
    /// Case budget: how many `(machine, loop)` pairs to generate and audit.
    pub cases: u64,
    /// The machine space to sample from.
    pub space: MachineSpace,
    /// Failure-predicate evaluations the shrinker may spend per violation.
    pub shrink_budget: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0xC1B0,
            cases: 512,
            space: MachineSpace::default(),
            shrink_budget: 2_000,
        }
    }
}

/// Structural key of a machine: the configuration with the name stripped, so two
/// identically shaped machines count as one explored point.
fn structural_key(machine: &MachineConfig) -> String {
    serde_json::to_string(&(
        machine.n_clusters,
        &machine.cluster,
        &machine.buses,
        &machine.latencies,
    ))
    .expect("machine structure serializes")
}

/// Run a campaign: generate and audit `config.cases` cases in parallel, shrink every
/// violation, and fold everything into a deterministic [`CampaignReport`].
///
/// Cases are independent (each derives from the campaign seed and its index alone)
/// and results are folded in case order, so the report — including the JSON bytes it
/// serialises to — is identical across runs and thread counts.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let indices: Vec<u64> = (0..config.cases).collect();
    let outcomes: Vec<CaseOutcome> = indices
        .par_iter()
        .map(|&index| check_case(generate_case(config.seed, index, &config.space)))
        .collect();

    let mut coverage = Coverage::default();
    let mut machines = BTreeSet::new();
    let mut iis = BTreeSet::new();
    let mut violations = Vec::new();

    for outcome in &outcomes {
        let case = &outcome.case;
        machines.insert(structural_key(&case.machine));
        coverage.loops_generated += 1;
        *coverage
            .cluster_counts
            .entry(format!("{}", case.machine.n_clusters))
            .or_insert(0) += 1;

        for (policy, result) in &outcome.outcomes {
            match result {
                PolicyOutcome::Scheduled {
                    ii,
                    mii,
                    limiting,
                    findings,
                    lint_warnings,
                    certificate,
                } => {
                    coverage.schedules_checked += 1;
                    if ii == mii {
                        coverage.schedules_at_mii += 1;
                    }
                    iis.insert(*ii);
                    coverage.max_ii = coverage.max_ii.max(*ii);
                    if *ii > 64 {
                        coverage.ii_over_64 += 1;
                    }
                    *coverage
                        .limiting_by_policy
                        .entry(format!("{}/{limiting}", policy.label()))
                        .or_insert(0) += 1;
                    fold_lint_coverage(&mut coverage, findings, lint_warnings);
                    fold_solver_coverage(&mut coverage, *ii, certificate);
                    if !findings.is_empty() {
                        violations.push(build_violation(config, outcome, *policy, findings));
                    }
                }
                PolicyOutcome::Unschedulable => coverage.unschedulable += 1,
                PolicyOutcome::Rejected { error } => {
                    violations.push(rejection_report(outcome, policy.label().to_string(), error));
                }
            }
        }

        // The per-case unroll audit: the sampled factor's exactly-unrolled kernel
        // through BSA and the same five oracles.
        if let Some(audit) = &outcome.unrolled {
            let label = format!("bsa/unroll-x{}", audit.factor);
            match &audit.outcome {
                PolicyOutcome::Scheduled {
                    ii,
                    findings,
                    lint_warnings,
                    certificate,
                    ..
                } => {
                    coverage.unrolled_schedules_checked += 1;
                    *coverage
                        .unroll_factors
                        .entry(format!("x{}", audit.factor))
                        .or_insert(0) += 1;
                    fold_lint_coverage(&mut coverage, findings, lint_warnings);
                    fold_solver_coverage(&mut coverage, *ii, certificate);
                    if !findings.is_empty() {
                        violations.push(build_unroll_violation(
                            config,
                            outcome,
                            audit.factor,
                            label,
                            findings,
                        ));
                    }
                }
                PolicyOutcome::Unschedulable => coverage.unrolled_unschedulable += 1,
                PolicyOutcome::Rejected { error } => {
                    violations.push(rejection_report(outcome, label, error));
                }
            }
        }
    }
    coverage.machines_explored = machines.len() as u64;
    coverage.distinct_iis = iis.len() as u64;

    CampaignReport {
        campaign_seed: config.seed,
        cases: config.cases,
        policies: Policy::ALL.iter().map(|p| p.label().to_string()).collect(),
        coverage,
        violations,
    }
}

/// Fold one audited schedule's static-oracle outcome into the coverage: the
/// certified counter (the certifier raised no deny lint, i.e. there is no
/// [`vliw_sim::Finding::StaticViolation`]) and the warn-lint histogram.
fn fold_lint_coverage(
    coverage: &mut Coverage,
    findings: &[vliw_sim::Finding],
    warnings: &[String],
) {
    let certified = !findings
        .iter()
        .any(|f| matches!(f, vliw_sim::Finding::StaticViolation { .. }));
    if certified {
        coverage.statically_certified += 1;
    }
    for id in warnings {
        *coverage.lint_warnings.entry(id.clone()).or_insert(0) += 1;
    }
}

/// Fold one audited schedule's sixth-oracle certificate into the coverage:
/// verdict class counters, fuel accounting and the certified-gap histogram.
fn fold_solver_coverage(coverage: &mut Coverage, ii: u32, certificate: &vliw_lint::OptCertificate) {
    coverage.solver_certified += 1;
    if certificate.is_exact() {
        coverage.solver_exact += 1;
    } else if certificate.lower_bound().is_some() {
        coverage.solver_lower_bounds += 1;
    }
    if certificate.exhausted {
        coverage.solver_fuel_exhausted += 1;
    }
    if let Some(gap) = certificate.gap_to(ii) {
        *coverage
            .optimality_gaps
            .entry(format!("gap{gap}"))
            .or_insert(0) += 1;
    }
}

/// A pre-scheduling rejection, packaged without shrinking (there is no schedule to
/// re-check against).
fn rejection_report(outcome: &CaseOutcome, policy_label: String, error: &str) -> ViolationReport {
    let case = &outcome.case;
    ViolationReport {
        case_index: case.index,
        case_seed: case.seed,
        policy: policy_label,
        machine: case.machine.clone(),
        loop_name: case.graph.name.clone(),
        findings: Vec::new(),
        rejected: Some(error.to_string()),
        shrunk: ShrunkRepro {
            machine: case.machine.clone(),
            graph: case.graph.clone(),
            n_nodes: case.graph.n_nodes(),
            n_edges: case.graph.n_edges(),
            shrink_checks: 0,
        },
    }
}

/// Shrink one violating case against `still_fails` and package it.
fn shrunk_violation(
    config: &CampaignConfig,
    outcome: &CaseOutcome,
    policy_label: String,
    findings: &[vliw_sim::Finding],
    still_fails: impl Fn(&MachineConfig, &vliw_ddg::DepGraph) -> bool,
) -> ViolationReport {
    let case = &outcome.case;
    let shrunk = shrink_case(
        &case.machine,
        &case.graph,
        still_fails,
        config.shrink_budget,
    );
    ViolationReport {
        case_index: case.index,
        case_seed: case.seed,
        policy: policy_label,
        machine: case.machine.clone(),
        loop_name: case.graph.name.clone(),
        findings: findings.to_vec(),
        rejected: None,
        shrunk: ShrunkRepro {
            n_nodes: shrunk.graph.n_nodes(),
            n_edges: shrunk.graph.n_edges(),
            machine: shrunk.machine,
            graph: shrunk.graph,
            shrink_checks: shrunk.checks,
        },
    }
}

/// Shrink one violating policy case and package it as a [`ViolationReport`].
fn build_violation(
    config: &CampaignConfig,
    outcome: &CaseOutcome,
    policy: Policy,
    findings: &[vliw_sim::Finding],
) -> ViolationReport {
    shrunk_violation(
        config,
        outcome,
        policy.label().to_string(),
        findings,
        |machine, graph| {
            graph.validate().is_ok() && check_policy(policy, machine, graph).is_violation()
        },
    )
}

/// Shrink one violating unroll audit.  The shrinker mutates the *original* loop; the
/// failure predicate re-unrolls every candidate at the **same** factor the report
/// names before re-checking, so the reproducer stays expressed in pre-unrolling
/// terms and still fails at exactly the labeled factor.  (`check_unrolled` returns
/// `None` — candidate rejected — when a shrink step clamps the trip count below
/// the factor, so iteration clamping can never silently re-target the repro to a
/// different factor.)
fn build_unroll_violation(
    config: &CampaignConfig,
    outcome: &CaseOutcome,
    factor: u32,
    policy_label: String,
    findings: &[vliw_sim::Finding],
) -> ViolationReport {
    shrunk_violation(
        config,
        outcome,
        policy_label,
        findings,
        move |machine, graph| {
            graph.validate().is_ok()
                && check_unrolled(machine, graph, factor).is_some_and(|a| a.outcome.is_violation())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            seed: 2026,
            cases: 24,
            space: MachineSpace::default(),
            shrink_budget: 200,
        }
    }

    #[test]
    fn a_small_campaign_passes_and_counts_consistently() {
        let report = run_campaign(&small_config());
        assert!(
            report.passed(),
            "violations on a stock build: {:?}",
            report.violations
        );
        let c = &report.coverage;
        assert_eq!(c.loops_generated, 24);
        assert_eq!(
            c.schedules_checked + c.unschedulable,
            24 * Policy::ALL.len() as u64
        );
        assert!(c.schedules_at_mii >= 1);
        assert!(c.schedules_at_mii <= c.schedules_checked);
        assert!(c.machines_explored >= 10, "{c:?}");
        assert!(c.distinct_iis >= 3, "{c:?}");
        assert!(c.max_ii >= 1);
        let limiting_total: u64 = c.limiting_by_policy.values().sum();
        assert_eq!(limiting_total, c.schedules_checked);
        let cluster_total: u64 = c.cluster_counts.values().sum();
        assert_eq!(cluster_total, 24);
        // Every case also attempts one sampled-factor unroll audit.
        assert_eq!(c.unrolled_schedules_checked + c.unrolled_unschedulable, 24);
        assert!(c.unrolled_schedules_checked >= 1, "{c:?}");
        let factor_total: u64 = c.unroll_factors.values().sum();
        assert_eq!(factor_total, c.unrolled_schedules_checked);
        // The fifth (static) oracle certified every schedule: a passing
        // campaign has no `StaticViolation` finding.
        assert_eq!(
            c.statically_certified,
            c.schedules_checked + c.unrolled_schedules_checked
        );
        // The sixth (optimality) oracle solved every audited schedule, and a
        // passing campaign means no achieved II ever undercut a certified
        // lower bound: every gap key is non-negative.
        assert_eq!(
            c.solver_certified,
            c.schedules_checked + c.unrolled_schedules_checked
        );
        assert!(c.solver_exact >= 1, "{c:?}");
        let gap_total: u64 = c.optimality_gaps.values().sum();
        assert_eq!(gap_total, c.solver_certified);
        assert!(
            c.optimality_gaps.keys().all(|k| !k.starts_with("gap-")),
            "negative certified gap: {:?}",
            c.optimality_gaps
        );
    }

    #[test]
    fn campaigns_are_bitwise_deterministic() {
        let a = run_campaign(&small_config());
        let b = run_campaign(&small_config());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn reports_roundtrip_through_json() {
        let report = run_campaign(&CampaignConfig {
            cases: 6,
            ..small_config()
        });
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
