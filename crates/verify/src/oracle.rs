//! The differential oracle: run every policy on a fuzz case, audit every schedule.

use crate::case::FuzzCase;
pub use cvliw_core::Policy;
use serde::{Deserialize, Serialize};
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_lint::{Certifier, OptCertificate, OptimalSolver};
use vliw_sim::{check_schedule_with, verification_iterations, Finding};
use vliw_sms::{ScheduleError, ScheduledLoop};

/// What happened when one policy met one fuzz case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyOutcome {
    /// A schedule was produced and audited.
    Scheduled {
        /// The achieved initiation interval.
        ii: u32,
        /// The minimum II of the loop on the target machine.
        mii: u32,
        /// What bounded the II (the engine's diagnosis, as a label).
        limiting: String,
        /// Every oracle disagreement (empty = verified).  The static certifier's
        /// deny lints appear as [`Finding::StaticViolation`].
        findings: Vec<Finding>,
        /// Warn-level lint ids the static certifier raised (sorted, deduplicated).
        lint_warnings: Vec<String>,
        /// The sixth oracle's optimality certificate for this loop on the
        /// policy's target machine: `ii` must sit at or above its lower bound.
        certificate: OptCertificate,
    },
    /// The II search exhausted its budget — a legitimate outcome on harsh random
    /// machines (tiny register files, saturated buses), counted by the coverage but
    /// not a correctness violation.
    Unschedulable,
    /// The scheduler rejected the graph before searching — never expected for
    /// generated loops, so this *is* a violation (of the generator or the
    /// validation pipeline).
    Rejected {
        /// The scheduler's error message.
        error: String,
    },
}

impl PolicyOutcome {
    /// Whether this outcome demonstrates a correctness violation.
    pub fn is_violation(&self) -> bool {
        match self {
            PolicyOutcome::Scheduled { findings, .. } => !findings.is_empty(),
            PolicyOutcome::Unschedulable => false,
            PolicyOutcome::Rejected { .. } => true,
        }
    }
}

/// The audited outcome of the per-case unroll audit: the case's sampled factor was
/// applied with [`vliw_ddg::unroll_exact`] and the kernel scheduled with BSA, then
/// run through the same five oracles as every other schedule.
#[derive(Debug, Clone)]
pub struct UnrollAudit {
    /// The unroll factor that was applied.
    pub factor: u32,
    /// What happened when BSA met the unrolled kernel.
    pub outcome: PolicyOutcome,
}

/// The audited outcome of one case across all five policies, plus the sampled
/// unroll-factor audit.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The case that was checked.
    pub case: FuzzCase,
    /// One outcome per [`Policy::ALL`] entry, in that order.
    pub outcomes: Vec<(Policy, PolicyOutcome)>,
    /// The unroll audit (`None` when the case's trip count is too small to unroll).
    pub unrolled: Option<UnrollAudit>,
}

/// Run `policy` on one `(machine, graph)` pair and audit the result.
///
/// The scheduler call runs behind [`vliw_sms::contain_schedule`]: a panic in any
/// policy is converted into [`ScheduleError::PolicyPanic`] and recorded as a
/// [`PolicyOutcome::Rejected`] violation of that one case, instead of unwinding
/// through the rayon pool and killing the whole campaign.
pub fn check_policy(policy: Policy, machine: &MachineConfig, graph: &DepGraph) -> PolicyOutcome {
    solve_and_audit(policy, machine, graph, &OptimalSolver::default())
}

/// [`check_policy`] with the caller's solver for the optimality certificate.
fn solve_and_audit(
    policy: Policy,
    machine: &MachineConfig,
    graph: &DepGraph,
    solver: &OptimalSolver,
) -> PolicyOutcome {
    match vliw_sms::contain_schedule(|| policy.schedule(machine, graph)) {
        Ok(out) => {
            // The achieved II seeds the solve as its incumbent: the schedule
            // the dynamic oracles are about to validate is itself a witness,
            // so the solver only has to close the range below it.
            let certificate = solver.certify_with_incumbent(
                graph,
                &policy.target_machine(machine),
                Some(out.diagnostics.ii),
            );
            audit_scheduled(policy, machine, graph, &out, &certificate)
        }
        Err(e) => error_outcome(e),
    }
}

/// The sixth oracle's certificate for `graph` on `machine` (the *target* machine
/// a policy schedules for): a budgeted exact branch-and-bound solve of the
/// optimal II, seeded with the best validated achieved II as the incumbent.
/// Deterministic for a given input, so re-running it inside shrink predicates
/// reproduces the original findings.
pub fn solve_certificate(
    machine: &MachineConfig,
    graph: &DepGraph,
    incumbent: Option<u32>,
) -> OptCertificate {
    OptimalSolver::default().certify_with_incumbent(graph, machine, incumbent)
}

/// Run the five audit oracles over one already-produced schedule.  Split out of
/// [`check_policy`] so callers that need the achieved IIs *before* solving (to
/// seed the solver's incumbent, as [`check_case`] does) can schedule first and
/// audit second without scheduling twice.
pub fn audit_scheduled(
    policy: Policy,
    machine: &MachineConfig,
    graph: &DepGraph,
    out: &ScheduledLoop,
    certificate: &OptCertificate,
) -> PolicyOutcome {
    // One pass certifies (the static oracle, carrying the optimality certificate
    // so its warn-level lints measure slack against the solver's bound) and
    // replays the schedule; deny lints arrive as `StaticViolation` findings.
    let certifier =
        Certifier::new(&policy.target_machine(machine)).with_certificate(certificate.clone());
    let (report, lint) = check_schedule_with(
        &certifier,
        graph,
        &out.schedule,
        verification_iterations(graph),
    );
    let mut findings = report.findings;
    // The sixth, *optimality* oracle: an achieved II below the solver's
    // certified lower bound (or any schedule for a loop the solver
    // proved unschedulable) means one of the two is unsound — a hard
    // violation that shrinks like any other finding.
    if certificate.violated_by(out.diagnostics.ii) {
        findings.push(Finding::IiBelowCertifiedBound {
            achieved: out.diagnostics.ii,
            lower_bound: certificate.lower_bound(),
        });
    }
    PolicyOutcome::Scheduled {
        ii: out.diagnostics.ii,
        mii: out.diagnostics.mii,
        limiting: out.diagnostics.limiting.to_string(),
        findings,
        lint_warnings: lint.warn_ids(),
        certificate: certificate.clone(),
    }
}

/// Map a scheduler error to its outcome: budget exhaustion is legitimate
/// coverage; everything else — malformed inputs, degenerate graphs, impossible
/// machines, contained panics, rogue policies — is a *typed rejection*: the
/// scheduler refused (or was unable) to produce a schedule and said why, which
/// the campaign records verbatim.
fn error_outcome(e: ScheduleError) -> PolicyOutcome {
    match e {
        ScheduleError::MaxIiExceeded { .. } => PolicyOutcome::Unschedulable,
        e => PolicyOutcome::Rejected {
            error: e.to_string(),
        },
    }
}

/// Audit the exactly-unrolled kernel of `graph` at `factor` under BSA: unroll with
/// [`vliw_ddg::unroll_exact`], schedule, and run the result through the five
/// oracles.  Returns `None` for factors below 2 or above the trip count (the
/// kernel would cover no iterations).
pub fn check_unrolled(
    machine: &MachineConfig,
    graph: &DepGraph,
    factor: u32,
) -> Option<UnrollAudit> {
    unroll_and_audit(machine, graph, factor, &OptimalSolver::default())
}

/// [`check_unrolled`] with the caller's solver.  An unroll kernel that cannot be
/// scheduled is not solved.
fn unroll_and_audit(
    machine: &MachineConfig,
    graph: &DepGraph,
    factor: u32,
    solver: &OptimalSolver,
) -> Option<UnrollAudit> {
    if factor < 2 || factor as u64 > graph.iterations {
        return None;
    }
    let kernel = vliw_ddg::unroll_exact(graph, factor).kernel;
    Some(UnrollAudit {
        factor,
        outcome: solve_and_audit(Policy::Bsa, machine, &kernel, solver),
    })
}

/// Run all five policies on `case` and audit every produced schedule, plus the
/// case's sampled unroll factor through BSA.
///
/// Two passes: first schedule every policy, then solve one certificate per
/// distinct target machine — seeded with the *best* achieved II among the
/// policies that target it, so the solver starts from a validated incumbent —
/// and finally audit each schedule against its machine's certificate.
pub fn check_case(case: FuzzCase) -> CaseOutcome {
    check_case_with(case, &OptimalSolver::default())
}

/// [`check_case`] with the caller's solver for every optimality certificate
/// (the `fig_optgap` pipeline gives it a deeper fuel budget).
pub fn check_case_with(case: FuzzCase, solver: &OptimalSolver) -> CaseOutcome {
    let schedules: Vec<(Policy, Result<ScheduledLoop, ScheduleError>)> = Policy::ALL
        .iter()
        .map(|&policy| {
            (
                policy,
                vliw_sms::contain_schedule(|| policy.schedule(&case.machine, &case.graph)),
            )
        })
        .collect();
    // One solver run per distinct target machine: the clustered policies share
    // the case machine, the SMS reference targets its unified counterpart.
    let unified_target = Policy::UnifiedSms.target_machine(&case.machine);
    let best_ii = |target: &MachineConfig| {
        schedules
            .iter()
            .filter(|(p, _)| p.target_machine(&case.machine) == *target)
            .filter_map(|(_, r)| r.as_ref().ok().map(|out| out.diagnostics.ii))
            .min()
    };
    let base_cert =
        solver.certify_with_incumbent(&case.graph, &case.machine, best_ii(&case.machine));
    let unified_cert = if unified_target == case.machine {
        base_cert.clone()
    } else {
        solver.certify_with_incumbent(&case.graph, &unified_target, best_ii(&unified_target))
    };
    let outcomes = schedules
        .into_iter()
        .map(|(policy, result)| {
            let cert = match policy {
                Policy::UnifiedSms => &unified_cert,
                _ => &base_cert,
            };
            let outcome = match result {
                Ok(out) => audit_scheduled(policy, &case.machine, &case.graph, &out, cert),
                Err(e) => error_outcome(e),
            };
            (policy, outcome)
        })
        .collect();
    let unrolled = unroll_and_audit(&case.machine, &case.graph, case.unroll_factor, solver);
    CaseOutcome {
        case,
        outcomes,
        unrolled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::generate_case;
    use vliw_arch::MachineSpace;

    #[test]
    fn every_policy_on_a_paper_machine_verifies_clean() {
        let case = generate_case(1234, 0, &MachineSpace::table1());
        let outcome = check_case(case);
        assert_eq!(outcome.outcomes.len(), Policy::ALL.len());
        for (policy, o) in &outcome.outcomes {
            assert!(
                !o.is_violation(),
                "{}: unexpected violation {:?}",
                policy.label(),
                o
            );
        }
        let unrolled = outcome
            .unrolled
            .expect("generated trip counts allow unrolling");
        assert!(unrolled.factor >= 2);
        assert!(
            !unrolled.outcome.is_violation(),
            "unroll x{}: unexpected violation {:?}",
            unrolled.factor,
            unrolled.outcome
        );
    }

    #[test]
    fn unroll_audits_run_clean_across_sampled_cases() {
        let space = MachineSpace::default();
        let mut audited = 0;
        for index in 0..24 {
            let case = generate_case(77, index, &space);
            if let Some(audit) = check_unrolled(&case.machine, &case.graph, case.unroll_factor) {
                assert!(
                    !audit.outcome.is_violation(),
                    "case {index} x{}: {:?}",
                    audit.factor,
                    audit.outcome
                );
                audited += 1;
            }
        }
        assert!(audited >= 12, "only {audited}/24 cases were unroll-audited");
    }

    #[test]
    fn degenerate_unroll_factors_are_skipped() {
        let case = generate_case(1234, 0, &MachineSpace::table1());
        assert!(check_unrolled(&case.machine, &case.graph, 1).is_none());
        assert!(
            check_unrolled(&case.machine, &case.graph, case.graph.iterations as u32 + 1).is_none()
        );
    }

    #[test]
    fn unified_sms_targets_the_counterpart_machine() {
        let clustered = vliw_arch::MachineConfig::four_cluster(1, 2);
        let target = Policy::UnifiedSms.target_machine(&clustered);
        assert_eq!(target.n_clusters, 1);
        assert_eq!(target.total_issue_width(), clustered.total_issue_width());
        for p in [Policy::Bsa, Policy::RoundRobin] {
            assert_eq!(p.target_machine(&clustered), clustered);
        }
    }

    #[test]
    fn policy_labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> = Policy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Policy::ALL.len());
    }
}
