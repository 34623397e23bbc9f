//! Differential checking of one scheduled loop.
//!
//! The schedulers, the static certifier, the cycle-level simulator and the analytic
//! cycle model are independent implementations of the same contract.  This module
//! cross-checks them on one `(machine, graph, schedule)` triple and reports every
//! disagreement as a serialisable [`Finding`]:
//!
//! 1. **Static audit** — every deny diagnostic of [`vliw_lint::Certifier`], the
//!    repository's one static legality checker (dependence slack, reservation
//!    conflicts, missing communications, register overflow, the `NCYCLES` window,
//!    the code-size clamp);
//! 2. **Execution audit** — every [`crate::KernelSimulator`] error from replaying the
//!    pipelined loop cycle by cycle;
//! 3. **Makespan cross-check** — the simulator derives the execution makespan by
//!    replaying every event of every iteration; [`static_makespan`] derives the
//!    same quantity in closed form from the schedule and the latency model.  The two
//!    must agree *exactly* — any drift means the replay and the cycle arithmetic
//!    have diverged;
//! 4. **IPC-model consistency** — the analytic `NCYCLES = (NITER + SC − 1)·II` that
//!    the IPC accounting divides by measures kernel slots, while the simulated
//!    makespan measures issue-to-completion.  They are provably within a tight
//!    window of each other ([`ncycles_drift_ok`]): `makespan < NCYCLES +
//!    max_latency` and `NCYCLES < makespan + 2·II`.  A schedule outside that window
//!    would make the paper's IPC numbers lie about the executed loop.
//!
//! The `vliw-verify` fuzzing campaigns run this check over randomly sampled
//! machines × loops × policies; the `lint` binary of `vliw-bench` runs it over
//! every schedule behind the committed figures.

use crate::executor::KernelSimulator;
use crate::validate::static_findings;
use serde::{Deserialize, Serialize};
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_lint::{ncycles_drift_ok, static_makespan, Certifier, LintReport};
use vliw_sms::ModuloSchedule;

/// Iteration count used by the differential checks when the caller has no opinion:
/// enough iterations to exercise every loop-carried distance and the whole pipeline
/// fill/drain, capped so replaying a corpus stays cheap.
pub fn verification_iterations(graph: &DepGraph) -> u64 {
    graph.iterations.clamp(4, 40)
}

/// One disagreement between the oracles (see the module docs for the catalogue).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Finding {
    /// The static certifier raised a deny-level diagnostic.
    StaticViolation {
        /// The deny lint's stable id (see `vliw_lint::lints`).
        lint: String,
        /// The certifier's description of the defect.
        message: String,
    },
    /// The cycle-level replay hit an ordering/overlap error.
    ExecutionError {
        /// The simulator's description of the error.
        error: String,
    },
    /// The simulated makespan disagrees with the closed-form makespan.
    MakespanMismatch {
        /// Cycles measured by the replay.
        simulated: u64,
        /// Cycles predicted by [`static_makespan`].
        analytic: u64,
    },
    /// The achieved II sits below the exact solver's certified lower bound (or
    /// the solver proved the loop unschedulable outright) — one of the two
    /// claims is unsound.  Not produced by [`check_schedule`] itself — the
    /// `vliw-verify` campaign's sixth (optimality) oracle records it when
    /// cross-checking `vliw_lint::OptimalSolver` certificates against achieved
    /// schedules.
    IiBelowCertifiedBound {
        /// The II the heuristic scheduler achieved.
        achieved: u32,
        /// The solver's certified lower bound (`None` = the solver claimed the
        /// loop is infeasible at every II).
        lower_bound: Option<u32>,
    },
    /// `NCYCLES` (the IPC denominator) drifted outside its provable window around
    /// the simulated makespan.
    IpcModelDrift {
        /// Cycles measured by the replay.
        simulated: u64,
        /// The analytic `NCYCLES` for the same iteration count.
        ncycles: u64,
        /// The schedule's initiation interval.
        ii: u32,
        /// The machine's largest operation latency.
        max_latency: u32,
    },
}

/// The outcome of differentially checking one scheduled loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DifferentialReport {
    /// Name of the checked loop.
    pub loop_name: String,
    /// Name of the machine the schedule targets.
    pub machine: String,
    /// Iterations replayed.
    pub iterations: u64,
    /// The schedule's initiation interval.
    pub ii: u32,
    /// Simulated makespan in cycles.
    pub simulated_cycles: u64,
    /// Analytic `NCYCLES` for the same iteration count.
    pub ncycles: u64,
    /// Every disagreement found (empty = all four oracles agree).
    pub findings: Vec<Finding>,
}

impl DifferentialReport {
    /// Whether every oracle agreed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Differentially check one scheduled loop (see the module docs for the four
/// oracles).  `iterations` must be at least 1; use [`verification_iterations`] for a
/// sensible default.
pub fn check_schedule(
    machine: &MachineConfig,
    graph: &DepGraph,
    sched: &ModuloSchedule,
    iterations: u64,
) -> DifferentialReport {
    check_schedule_with(&Certifier::new(machine), graph, sched, iterations).0
}

/// [`check_schedule`] with the caller's certifier (for its machine), also
/// returning the certifier's full report — warn-level lints included — so a
/// caller that needs both certifies each schedule once.
pub fn check_schedule_with(
    certifier: &Certifier,
    graph: &DepGraph,
    sched: &ModuloSchedule,
    iterations: u64,
) -> (DifferentialReport, LintReport) {
    let machine = certifier.machine();
    let lint = certifier.check(graph, sched, iterations);
    let mut findings = static_findings(&lint);
    let report = KernelSimulator::new(machine).run(graph, sched, iterations);
    for error in &report.errors {
        findings.push(Finding::ExecutionError {
            error: error.clone(),
        });
    }

    // A replay that already failed reports a truncated cycle count; only cross-check
    // the cycle models when the execution itself was clean.
    if report.is_clean() {
        let analytic = static_makespan(graph, sched, machine, iterations);
        if report.cycles != analytic {
            findings.push(Finding::MakespanMismatch {
                simulated: report.cycles,
                analytic,
            });
        }
        let max_latency = machine.latencies.max_latency();
        let drift = report.analytic_cycles as i128 - report.cycles as i128;
        if !ncycles_drift_ok(drift, sched.ii(), max_latency) {
            findings.push(Finding::IpcModelDrift {
                simulated: report.cycles,
                ncycles: report.analytic_cycles,
                ii: sched.ii(),
                max_latency,
            });
        }
    }

    let differential = DifferentialReport {
        loop_name: sched.loop_name.clone(),
        machine: machine.name.clone(),
        iterations,
        ii: sched.ii(),
        simulated_cycles: report.cycles,
        ncycles: report.analytic_cycles,
        findings,
    };
    (differential, lint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::{FuKind, OpClass, ResourcePool};
    use vliw_ddg::{DepKind, GraphBuilder};
    use vliw_sms::{IiSearchDriver, PlacedOp};

    /// The unified-machine SMS reference schedule of `g`.
    fn sms(machine: &MachineConfig, g: &DepGraph) -> ModuloSchedule {
        IiSearchDriver::new(machine)
            .schedule_unified(g)
            .unwrap()
            .schedule
    }

    fn saxpy() -> DepGraph {
        GraphBuilder::new("saxpy")
            .iterations(64)
            .node("lx", OpClass::Load)
            .node("ly", OpClass::Load)
            .node("mul", OpClass::FpMul)
            .node("add", OpClass::FpAdd)
            .node("st", OpClass::Store)
            .flow("lx", "mul")
            .flow("mul", "add")
            .flow("ly", "add")
            .flow("add", "st")
            .build()
    }

    /// Place `node` at `cycle` on the first `kind` unit of cluster 0.
    fn place(
        sched: &mut ModuloSchedule,
        machine: &MachineConfig,
        node: u32,
        cycle: i64,
        kind: FuKind,
    ) {
        let fu = ResourcePool::new(machine).fus(0, kind).next().unwrap();
        sched.place(PlacedOp {
            node: vliw_ddg::NodeId(node),
            cycle,
            cluster: 0,
            fu,
        });
    }

    /// The deny lint ids among `report`'s findings.
    fn static_lints(report: &DifferentialReport) -> Vec<&str> {
        report
            .findings
            .iter()
            .filter_map(|f| match f {
                Finding::StaticViolation { lint, .. } => Some(lint.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_correct_schedule_checks_clean() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g);
        let report = check_schedule(&machine, &g, &sched, verification_iterations(&g));
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.loop_name, "saxpy");
        assert!(report.simulated_cycles > 0);
    }

    #[test]
    fn static_makespan_matches_the_replay_across_iteration_counts() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g);
        let sim = KernelSimulator::new(&machine);
        for iterations in [1u64, 2, 3, 7, 64, 200] {
            let replayed = sim.run(&g, &sched, iterations);
            assert!(replayed.is_clean());
            assert_eq!(
                replayed.cycles,
                static_makespan(&g, &sched, &machine, iterations),
                "iterations = {iterations}"
            );
        }
    }

    #[test]
    fn empty_schedules_have_a_one_cycle_makespan() {
        let machine = MachineConfig::unified();
        let g = DepGraph::new("empty");
        let sched = ModuloSchedule::new("empty", 0, 1, 1);
        assert_eq!(static_makespan(&g, &sched, &machine, 10), 1);
        // The replay agrees, so no makespan mismatch is reported (the degenerate
        // NCYCLES = 10 of an empty kernel still drifts outside its window).
        let report = check_schedule(&machine, &g, &sched, 10);
        assert_eq!(report.simulated_cycles, 1);
        assert!(
            !report.findings.iter().any(|f| matches!(
                f,
                Finding::ExecutionError { .. } | Finding::MakespanMismatch { .. }
            )),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn a_dependence_violation_is_reported_as_both_static_and_execution_findings() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("broken");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut sched = ModuloSchedule::new("broken", 2, 2, 1);
        place(&mut sched, &machine, 0, 0, FuKind::Mem);
        place(&mut sched, &machine, 1, 1, FuKind::Fp); // needs cycle >= 2
        let report = check_schedule(&machine, &g, &sched, 4);
        assert_eq!(static_lints(&report), ["dependence-violated"]);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::ExecutionError { .. })));
    }

    #[test]
    fn register_overflow_is_detected() {
        // 20 values live across ~100 cycles at II = 20 overflow a 16-register
        // cluster; every FU row is distinct, so the replay has nothing to object to.
        let machine = MachineConfig::four_cluster(1, 1);
        let mut g = DepGraph::new("pressure");
        let consumer = g.add_node(OpClass::FpAdd);
        let mut sched = ModuloSchedule::new("pressure", 21, 20, 1);
        for i in 0..20 {
            let p = g.add_node(OpClass::IntAlu);
            g.add_edge(p, consumer, 1, 0, DepKind::Flow);
            place(&mut sched, &machine, p.0, i as i64, FuKind::Int);
        }
        place(&mut sched, &machine, consumer.0, 100, FuKind::Fp);
        let report = check_schedule(&machine, &g, &sched, 4);
        assert_eq!(static_lints(&report), ["register-pressure"]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    }

    #[test]
    fn wrong_fu_kind_is_detected() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("kind");
        g.add_node(OpClass::FpMul);
        let mut sched = ModuloSchedule::new("kind", 1, 1, 1);
        place(&mut sched, &machine, 0, 0, FuKind::Int);
        let report = check_schedule(&machine, &g, &sched, 4);
        assert_eq!(static_lints(&report), ["bad-placement"]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    }

    #[test]
    fn a_schedule_sized_for_a_smaller_graph_is_reported_not_a_panic() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("mismatch");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        let c = g.add_node(OpClass::Store);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(b, c, 3, 0, DepKind::Flow);
        let mut sched = ModuloSchedule::new("mismatch", 2, 2, 1);
        place(&mut sched, &machine, 0, 0, FuKind::Mem);
        place(&mut sched, &machine, 1, 2, FuKind::Fp);
        let report = check_schedule(&machine, &g, &sched, 4);
        assert!(static_lints(&report).contains(&"unscheduled-node"));
    }

    #[test]
    fn reports_serialize_and_roundtrip() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g);
        let report = check_schedule(&machine, &g, &sched, 8);
        let json = serde_json::to_string(&report).unwrap();
        let back: DifferentialReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
