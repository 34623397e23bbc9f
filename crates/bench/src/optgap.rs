//! The optimality-gap pipeline (`fig_optgap`) — how far the heuristic schedulers
//! sit from the *certified* optimum.
//!
//! The paper (and every figure pipeline in this crate) evaluates the schedulers
//! against each other and against MII; the branch-and-bound solver in
//! [`vliw_lint::OptimalSolver`] turns that relative picture into an absolute one.
//! This pipeline runs a fixed-seed fuzz corpus through all five scheduling
//! policies (plus one exactly-unrolled kernel per case) on both Table-1 clustered
//! machines, certifies every `(loop, target machine)` pair with the solver, and
//! reports the certified gap `achieved II − certified lower bound` of every
//! schedule, histogrammed along four axes: policy, machine structure, limiting
//! resource and unroll factor.
//!
//! Everything is deterministic — the corpus is derived from a pinned seed, the
//! schedulers and the solver are deterministic, and every aggregate is folded in
//! case order over `BTreeMap`s — so `results/fig_optgap.json` is byte-stable and
//! golden-tested like every other committed artifact.  The `fig_optgap` binary
//! exits non-zero iff any schedule lands *below* its certified lower bound, which
//! would mean the solver or a scheduler is unsound (the sixth oracle's hard
//! invariant, here gating CI via the `optgap-smoke` job).

use rayon::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;
use vliw_arch::{MachineConfig, MachineSpace};
use vliw_lint::{OptVerdict, OptimalSolver};
use vliw_sms::FuelBudget;
use vliw_verify::{check_case_with, generate_case, FuzzCase, Policy, PolicyOutcome};

/// The pinned campaign seed the corpus derives from.
pub const OPTGAP_SEED: u64 = 20_260_809;

/// Cases in the reduced corpus.  Each case contributes up to
/// `2 machines × (5 policies + 1 unrolled kernel)` audited schedules, so the
/// pipeline stays cheap enough for the CI smoke job while still covering every
/// policy × machine × factor combination.
pub const OPTGAP_CASES: u64 = 24;

/// Body-size cap of the reduced corpus: fuzz cases with more nodes are skipped
/// (they still get certified — as lower bounds — by the `verify` campaign; this
/// figure focuses on the region where *exact* certification is tractable, so
/// the headline exact-rate measures solver power rather than corpus size).
pub const OPTGAP_MAX_NODES: usize = 16;

/// Solver fuel for the pipeline: a deeper budget than the fuzz campaign's
/// default, because the report's headline number is the *exact*-certification
/// rate — the deeper search converts `LowerBound` verdicts into `Optimal` ones
/// on the mid-sized loops the campaign budget gives up on.
pub const OPTGAP_SOLVER_PROBES: u64 = 1_000_000;

/// One audited schedule: the achieved II next to its certificate.
#[derive(Debug, Serialize)]
pub struct OptGapRow {
    /// Position of the loop's case in the corpus.
    pub case: u64,
    /// Name of the scheduled loop (the unrolled kernel's name for unroll rows).
    pub loop_name: String,
    /// The Table-1 machine the case targets.
    pub machine: String,
    /// The scheduling policy.
    pub policy: String,
    /// The unroll factor of the scheduled body (1 = the original loop).
    pub unroll_factor: u32,
    /// The achieved initiation interval.
    pub ii: u32,
    /// The loop's MII on the policy's target machine.
    pub mii: u32,
    /// What bounded the II (the engine's diagnosis).
    pub limiting: String,
    /// The solver's verdict for this loop on the target machine.
    pub verdict: String,
    /// The certified lower bound (`None` = the solver claims infeasibility,
    /// which an achieved schedule immediately refutes).
    pub lower_bound: Option<u32>,
    /// `ii − lower_bound` (`None` when no bound was certified).
    pub gap: Option<i64>,
    /// Whether the verdict pins the exact optimum.
    pub exact: bool,
    /// Whether the solver's fuel ran out before the search concluded.
    pub fuel_exhausted: bool,
}

/// Aggregate counters of one pipeline run.
#[derive(Debug, Default, Serialize)]
pub struct OptGapSummary {
    /// Corpus cases audited.
    pub cases: u64,
    /// Schedules produced, certified and gap-measured.
    pub schedules_audited: u64,
    /// `(policy, machine)` pairs whose II search exhausted its budget — counted,
    /// not gap-measured.
    pub unschedulable: u64,
    /// Certificates that pinned the exact optimal II.
    pub solver_exact: u64,
    /// Certificates that only bounded the optimum from below.
    pub solver_lower_bounds: u64,
    /// Certificates whose solver fuel ran out.
    pub solver_fuel_exhausted: u64,
    /// Fraction of audited schedules with an exact certificate.
    pub exact_rate: f64,
    /// Schedules whose achieved II sits at the certified optimum.
    pub at_certified_optimum: u64,
    /// Schedules whose achieved II undercut the certified lower bound — any
    /// value but zero means the solver or a scheduler is unsound, and the
    /// `fig_optgap` binary exits non-zero.
    pub lower_bound_violations: u64,
}

/// The full pipeline output, serialized to `results/fig_optgap.json`.
#[derive(Debug, Serialize)]
pub struct OptGapReport {
    /// The corpus seed.
    pub seed: u64,
    /// Aggregate counters.
    pub summary: OptGapSummary,
    /// Gap histogram (`"gap<k>"` keys) per scheduling policy.
    pub gaps_by_policy: BTreeMap<String, BTreeMap<String, u64>>,
    /// Gap histogram per machine structure.
    pub gaps_by_machine: BTreeMap<String, BTreeMap<String, u64>>,
    /// Gap histogram per limiting resource.
    pub gaps_by_limiting: BTreeMap<String, BTreeMap<String, u64>>,
    /// Gap histogram per unroll factor (`"x<factor>"` keys; `x1` = not unrolled).
    pub gaps_by_unroll: BTreeMap<String, BTreeMap<String, u64>>,
    /// Every audited schedule, in case order.
    pub rows: Vec<OptGapRow>,
}

/// The reduced corpus: the first [`OPTGAP_CASES`] fuzz cases (drawn with the
/// Table-1 machine space, so edge latencies follow the paper's latency model)
/// whose bodies fit [`OPTGAP_MAX_NODES`], scheduled on the *fixed* Table-1
/// machines rather than each case's sampled one.  Deterministic: the scan order
/// over fuzz indices is fixed, so the kept case set is pinned by the seed.
pub fn reduced_corpus() -> Vec<FuzzCase> {
    let space = MachineSpace::table1();
    let mut cases = Vec::new();
    let mut index = 0u64;
    while cases.len() < OPTGAP_CASES as usize {
        let case = generate_case(OPTGAP_SEED, index, &space);
        if case.graph.n_nodes() <= OPTGAP_MAX_NODES {
            cases.push(case);
        }
        index += 1;
    }
    cases
}

fn verdict_label(v: &OptVerdict) -> &'static str {
    match v {
        OptVerdict::Optimal { .. } => "optimal",
        OptVerdict::LowerBound { .. } => "lower-bound",
        OptVerdict::Infeasible => "infeasible",
    }
}

/// One audited schedule's row, and whether its achieved II undercut the
/// certified lower bound (the [`vliw_sim::Finding::IiBelowCertifiedBound`] that
/// [`check_case_with`] reports).
#[derive(Debug)]
struct Audited {
    row: OptGapRow,
    below_bound: bool,
}

/// The audit of one `(case, machine)` pair: [`check_case_with`] on the case's
/// loop retargeted to `machine` — every policy on the original loop, plus the
/// case's sampled exactly-unrolled kernel under BSA — mapped to rows in that
/// order.  `None` entries are budget-exhausted II searches (counted as
/// `unschedulable`).
fn audit_case(
    case: &FuzzCase,
    machine: &MachineConfig,
    solver: &OptimalSolver,
) -> Vec<Option<Audited>> {
    let outcome = check_case_with(
        FuzzCase {
            machine: machine.clone(),
            ..case.clone()
        },
        solver,
    );
    let mut rows: Vec<_> = outcome
        .outcomes
        .iter()
        .map(|(policy, o)| row_of(case.index, machine, policy.label(), 1, o))
        .collect();
    rows.extend(outcome.unrolled.map(|u| {
        row_of(
            case.index,
            machine,
            Policy::Bsa.label(),
            u.factor,
            &u.outcome,
        )
    }));
    rows
}

fn row_of(
    case_index: u64,
    machine: &MachineConfig,
    policy: &str,
    unroll_factor: u32,
    outcome: &PolicyOutcome,
) -> Option<Audited> {
    match outcome {
        PolicyOutcome::Scheduled {
            ii,
            mii,
            limiting,
            findings,
            certificate,
            ..
        } => {
            // The pipeline is an audit: any oracle disagreement on a committed
            // figure artifact is a hard failure, exactly like in the `lint` bin.
            assert!(
                findings.is_empty()
                    || findings
                        .iter()
                        .all(|f| matches!(f, vliw_sim::Finding::IiBelowCertifiedBound { .. })),
                "fig_optgap: case {case_index} on {}: non-optimality findings {findings:?}",
                machine.name
            );
            let below_bound = findings
                .iter()
                .any(|f| matches!(f, vliw_sim::Finding::IiBelowCertifiedBound { .. }));
            let row = OptGapRow {
                case: case_index,
                loop_name: certificate.loop_name.clone(),
                machine: machine.name.clone(),
                policy: policy.to_string(),
                unroll_factor,
                ii: *ii,
                mii: *mii,
                limiting: limiting.clone(),
                verdict: verdict_label(&certificate.verdict).to_string(),
                lower_bound: certificate.lower_bound(),
                gap: certificate.gap_to(*ii),
                exact: certificate.is_exact(),
                fuel_exhausted: certificate.exhausted,
            };
            Some(Audited { row, below_bound })
        }
        PolicyOutcome::Unschedulable => None,
        PolicyOutcome::Rejected { error } => {
            panic!("fig_optgap: case {case_index} on {}: scheduler rejected the generated loop: {error}", machine.name)
        }
    }
}

/// Run the whole pipeline: generate the corpus, audit every
/// `(case, machine, policy)` cell rayon-parallel, and fold the deterministic
/// report.
pub fn fig_optgap() -> OptGapReport {
    let machines = [
        MachineConfig::two_cluster(1, 1),
        MachineConfig::four_cluster(1, 1),
    ];
    let solver = OptimalSolver::new(FuelBudget::probes(OPTGAP_SOLVER_PROBES));
    let corpus = reduced_corpus();
    let jobs: Vec<(&FuzzCase, &MachineConfig)> = corpus
        .iter()
        .flat_map(|case| machines.iter().map(move |m| (case, m)))
        .collect();
    let audited: Vec<Vec<Option<Audited>>> = jobs
        .par_iter()
        .map(|&(case, machine)| audit_case(case, machine, &solver))
        .collect();

    let mut report = OptGapReport {
        seed: OPTGAP_SEED,
        summary: OptGapSummary {
            cases: OPTGAP_CASES,
            ..OptGapSummary::default()
        },
        gaps_by_policy: BTreeMap::new(),
        gaps_by_machine: BTreeMap::new(),
        gaps_by_limiting: BTreeMap::new(),
        gaps_by_unroll: BTreeMap::new(),
        rows: Vec::new(),
    };
    for audited in audited.into_iter().flatten() {
        let Some(Audited { row, below_bound }) = audited else {
            report.summary.unschedulable += 1;
            continue;
        };
        let s = &mut report.summary;
        s.schedules_audited += 1;
        if row.exact {
            s.solver_exact += 1;
        } else if row.lower_bound.is_some() {
            s.solver_lower_bounds += 1;
        }
        if row.fuel_exhausted {
            s.solver_fuel_exhausted += 1;
        }
        if below_bound {
            s.lower_bound_violations += 1;
        }
        if row.exact && Some(row.ii) == row.lower_bound {
            s.at_certified_optimum += 1;
        }
        if let Some(gap) = row.gap {
            let key = format!("gap{gap}");
            for (axis, label) in [
                (&mut report.gaps_by_policy, row.policy.clone()),
                (&mut report.gaps_by_machine, row.machine.clone()),
                (&mut report.gaps_by_limiting, row.limiting.clone()),
                (
                    &mut report.gaps_by_unroll,
                    format!("x{}", row.unroll_factor),
                ),
            ] {
                *axis
                    .entry(label)
                    .or_default()
                    .entry(key.clone())
                    .or_insert(0) += 1;
            }
        }
        report.rows.push(row);
    }
    report.summary.exact_rate = if report.summary.schedules_audited == 0 {
        0.0
    } else {
        report.summary.solver_exact as f64 / report.summary.schedules_audited as f64
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pipeline_is_deterministic_and_sound_on_a_slice() {
        // Two cases × one machine keeps the debug-mode solve affordable while
        // still exercising certificate sharing, the unroll row and the fold.
        let machine = MachineConfig::two_cluster(1, 1);
        let solver = OptimalSolver::new(FuelBudget::probes(20_000));
        for index in 0..2 {
            let case = generate_case(OPTGAP_SEED, index, &MachineSpace::table1());
            let a = audit_case(&case, &machine, &solver);
            let b = audit_case(&case, &machine, &solver);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                match (x, y) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        let (x, y, below_bound) = (&x.row, &y.row, x.below_bound);
                        assert_eq!((x.ii, x.lower_bound, x.gap), (y.ii, y.lower_bound, y.gap));
                        assert!(!below_bound, "{x:?}");
                    }
                    _ => panic!("determinism violated at case {index}"),
                }
            }
        }
    }
}
