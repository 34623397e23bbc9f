//! `audit_campaign`: seeded fuzz cases through `vliw_verify::check_case` —
//! five policies, six oracles and the exactly-unrolled BSA kernel, with the
//! exact solver certifying every schedule.
//!
//! The untraced passes call `check_case` itself.  The traced pass makes the
//! same public calls `check_case` makes, one span around each, so the solver,
//! the unroller, each policy and the audit oracles are timed separately; the
//! runner's fingerprint comparison proves on every run that the spelled-out
//! sequence returns exactly what `check_case` returns.

use crate::runner::{fingerprint, Workload};
use crate::tally::Tally;
use crate::trace::Tracer;
use vliw_arch::{MachineConfig, MachineSpace};
use vliw_ddg::DepGraph;
use vliw_metrics::CodeSizeModel;
use vliw_sms::{contain_schedule, ScheduleError, ScheduledLoop};
use vliw_verify::{
    audit_scheduled, check_case, generate_case, solve_certificate, CaseOutcome, FuzzCase, Policy,
    PolicyOutcome, UnrollAudit,
};

/// Cases in one pass.
pub const CASES: usize = 1_650;

/// Campaign seed of the warm-up cases, the same for every run.
const WARM_UP_SEED: u64 = 0x0A0D_17ED;

/// Warm-up cases checked during set-up.
const WARM_UP_CASES: u64 = 4;

/// The workload's inputs.
pub struct Audit {
    cases: Vec<FuzzCase>,
}

fn sched_span(policy: Policy) -> &'static str {
    match policy {
        Policy::UnifiedSms => "sched.unified",
        Policy::Bsa => "sched.bsa",
        Policy::NystromEichenberger => "sched.ne",
        Policy::RoundRobin => "sched.rr",
        Policy::LoadBalanced => "sched.lb",
    }
}

/// `vliw_verify`'s mapping of a scheduler error to an outcome.
fn error_outcome(e: ScheduleError) -> PolicyOutcome {
    match e {
        ScheduleError::MaxIiExceeded { .. } => PolicyOutcome::Unschedulable,
        e => PolicyOutcome::Rejected {
            error: e.to_string(),
        },
    }
}

fn schedule(
    tr: &mut Tracer,
    policy: Policy,
    machine: &MachineConfig,
    graph: &DepGraph,
) -> Result<ScheduledLoop, ScheduleError> {
    tr.span(sched_span(policy), || {
        contain_schedule(|| policy.schedule(machine, graph))
    })
}

/// `check_case` spelled out as its public calls, with a span around each.
pub fn traced_check_case(case: FuzzCase, tr: &mut Tracer) -> CaseOutcome {
    let (machine, graph) = (&case.machine, &case.graph);
    let schedules: Vec<(Policy, Result<ScheduledLoop, ScheduleError>)> = Policy::ALL
        .iter()
        .map(|&policy| (policy, schedule(tr, policy, machine, graph)))
        .collect();
    let unified_target = Policy::UnifiedSms.target_machine(machine);
    let best_ii = |target: &MachineConfig| {
        schedules
            .iter()
            .filter(|(p, _)| p.target_machine(machine) == *target)
            .filter_map(|(_, r)| r.as_ref().ok().map(|out| out.diagnostics.ii))
            .min()
    };
    let (base_best, unified_best) = (best_ii(machine), best_ii(&unified_target));
    let base_cert = tr.span("lint.solve", || {
        solve_certificate(machine, graph, base_best)
    });
    let unified_cert = if unified_target == *machine {
        base_cert.clone()
    } else {
        tr.span("lint.solve", || {
            solve_certificate(&unified_target, graph, unified_best)
        })
    };
    let outcomes = schedules
        .into_iter()
        .map(|(policy, result)| {
            let cert = match policy {
                Policy::UnifiedSms => &unified_cert,
                _ => &base_cert,
            };
            let outcome = match result {
                Ok(out) => tr.span("verify.audit", || {
                    audit_scheduled(policy, machine, graph, &out, cert)
                }),
                Err(e) => error_outcome(e),
            };
            (policy, outcome)
        })
        .collect();

    // `check_unrolled`, spelled out.
    let factor = case.unroll_factor;
    let unrolled = (factor >= 2 && u64::from(factor) <= graph.iterations).then(|| {
        let kernel = tr.span("ddg.unroll", || {
            vliw_ddg::unroll_exact(graph, factor).kernel
        });
        let outcome = match schedule(tr, Policy::Bsa, machine, &kernel) {
            Ok(out) => {
                let target = Policy::Bsa.target_machine(machine);
                let ii = out.diagnostics.ii;
                let cert = tr.span("lint.solve", || {
                    solve_certificate(&target, &kernel, Some(ii))
                });
                tr.span("verify.audit", || {
                    audit_scheduled(Policy::Bsa, machine, &kernel, &out, &cert)
                })
            }
            Err(e) => error_outcome(e),
        };
        UnrollAudit { factor, outcome }
    });
    CaseOutcome {
        case,
        outcomes,
        unrolled,
    }
}

impl Audit {
    /// Generate `cases` cases from `seed`.  Returns the inputs and the time
    /// spent generating them, milliseconds.
    pub fn setup(seed: u64, cases: usize) -> (Self, f64) {
        let space = MachineSpace::default();
        let start = std::time::Instant::now();
        let cases = (0..cases as u64)
            .map(|i| generate_case(seed, i, &space))
            .collect();
        let generate_ms = start.elapsed().as_secs_f64() * 1e3;
        for i in 0..WARM_UP_CASES {
            std::hint::black_box(check_case(generate_case(WARM_UP_SEED, i, &space)));
        }
        (Self { cases }, generate_ms)
    }
}

/// Account one policy outcome for a body of `ops` operations.
fn account(outcome: &PolicyOutcome, ops: usize, tally: &mut Tally) -> Result<(), String> {
    tally.jobs += 1;
    match outcome {
        PolicyOutcome::Scheduled {
            ii,
            mii,
            findings,
            certificate,
            ..
        } => {
            tally.schedule_ii(ops, *ii, *mii);
            tally.certificates += 1;
            tally.exact += u64::from(certificate.is_exact());
            if !findings.is_empty() {
                return Err(format!("oracle findings {findings:?}"));
            }
            tally.ok += 1;
            Ok(())
        }
        PolicyOutcome::Unschedulable => Ok(()),
        PolicyOutcome::Rejected { error } => Err(format!("rejected: {error}")),
    }
}

impl Workload for Audit {
    type Input = FuzzCase;
    type Output = CaseOutcome;

    fn jobs(&self) -> usize {
        self.cases.len()
    }

    fn input(&self, job: usize) -> FuzzCase {
        self.cases[job].clone()
    }

    fn run(&self, case: FuzzCase, tr: &mut Tracer) -> CaseOutcome {
        if tr.enabled() {
            traced_check_case(case, tr)
        } else {
            check_case(case)
        }
    }

    fn check(&self, job: usize, out: &CaseOutcome, tally: &mut Tally) -> Result<(), String> {
        let case = &self.cases[job];
        let name = &case.graph.name;
        let n = case.graph.n_nodes();
        let mut certificates = Vec::new();
        for (policy, outcome) in &out.outcomes {
            account(outcome, n, tally).map_err(|e| format!("{name} {}: {e}", policy.label()))?;
            if let PolicyOutcome::Scheduled { certificate, .. } = outcome {
                certificates.push(certificate);
            }
        }
        if let Some(u) = &out.unrolled {
            let kernel = vliw_ddg::unroll_exact(&case.graph, u.factor).kernel;
            account(&u.outcome, kernel.n_nodes(), tally)
                .map_err(|e| format!("{name} x{}: {e}", u.factor))?;
            tally.unrolled += 1;
            if let PolicyOutcome::Scheduled { certificate, .. } = &u.outcome {
                certificates.push(certificate);
            }
        }
        // Policies on one target machine share one solve.
        let mut distinct: Vec<_> = Vec::new();
        for c in certificates {
            if !distinct.contains(&c) {
                tally.solver_probes += c.spent.probes;
                distinct.push(c);
            }
        }
        // Code size of the BSA schedule, re-derived outside the timed call
        // (`check_case` reports IIs, not schedules).
        let bsa = out.outcomes.iter().find(|(p, _)| *p == Policy::Bsa);
        if let Some((_, PolicyOutcome::Scheduled { ii, .. })) = bsa {
            let again = Policy::Bsa
                .schedule(&case.machine, &case.graph)
                .map_err(|e| format!("{name}: BSA failed on re-run: {e}"))?;
            if again.diagnostics.ii != *ii {
                return Err(format!("{name}: BSA re-run reached a different II"));
            }
            tally.code_size(CodeSizeModel::new(&case.machine).loop_size(&again.schedule, n));
        }
        Ok(())
    }

    fn fingerprint(&self, out: &CaseOutcome) -> u64 {
        fingerprint(&(&out.outcomes, &out.unrolled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spelled_out_case_check_matches_check_case() {
        let space = MachineSpace::default();
        for i in 0..6 {
            let case = generate_case(11, i, &space);
            let mut tr = Tracer::new(true);
            let traced = traced_check_case(case.clone(), &mut tr);
            let plain = check_case(case);
            assert_eq!(traced.outcomes, plain.outcomes, "case {i}");
            assert_eq!(
                fingerprint(&traced.unrolled),
                fingerprint(&plain.unrolled),
                "case {i}"
            );
            assert!(tr.spans().iter().any(|s| s.name == "lint.solve"));
        }
    }
}
