//! The static half of the differential audit.
//!
//! [`vliw_lint::Certifier`] is the repository's one static legality checker.  This
//! module turns its deny diagnostics into [`Finding::StaticViolation`]s, the form in
//! which [`crate::check_schedule`] reports them next to the replay's findings.

use crate::differential::Finding;
use vliw_lint::{LintReport, Severity};

/// Every deny-level diagnostic of `lint` as a [`Finding::StaticViolation`], in report
/// order.  Warn-level lints describe schedule quality, not legality, and are skipped.
pub(crate) fn static_findings(lint: &LintReport) -> Vec<Finding> {
    lint.diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .map(|d| Finding::StaticViolation {
            lint: d.lint.clone(),
            message: d.message.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::{FuKind, MachineConfig, OpClass, ResourcePool};
    use vliw_ddg::{DepGraph, DepKind, GraphBuilder};
    use vliw_lint::Certifier;
    use vliw_sms::{IiSearchDriver, ModuloSchedule, PlacedOp};

    fn saxpy() -> DepGraph {
        GraphBuilder::new("saxpy")
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

    /// Place `node` at `cycle` on the first `kind` unit of `cluster`.
    fn place(
        sched: &mut ModuloSchedule,
        machine: &MachineConfig,
        node: u32,
        cycle: i64,
        cluster: usize,
        kind: FuKind,
    ) {
        let fu = ResourcePool::new(machine)
            .fus(cluster, kind)
            .next()
            .unwrap();
        sched.place(PlacedOp {
            node: vliw_ddg::NodeId(node),
            cycle,
            cluster,
            fu,
        });
    }

    /// The static findings of certifying `sched` on `machine` over 4 iterations.
    fn findings(machine: &MachineConfig, g: &DepGraph, sched: &ModuloSchedule) -> Vec<Finding> {
        static_findings(&Certifier::new(machine).check(g, sched, 4))
    }

    /// Whether `findings` holds a static violation of `lint`.
    fn flags(findings: &[Finding], lint: &str) -> bool {
        findings
            .iter()
            .any(|f| matches!(f, Finding::StaticViolation { lint: l, .. } if l == lint))
    }

    #[test]
    fn a_correct_schedule_validates() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = IiSearchDriver::new(&machine)
            .schedule_unified(&g)
            .unwrap()
            .schedule;
        let found = findings(&machine, &g, &sched);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn incomplete_schedules_are_flagged() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = ModuloSchedule::new("saxpy", g.n_nodes(), 2, 1);
        assert!(flags(&findings(&machine, &g, &sched), "unscheduled-node"));
    }

    #[test]
    fn dependence_violations_are_detected() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("dep");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut sched = ModuloSchedule::new("dep", 2, 2, 1);
        place(&mut sched, &machine, a.0, 0, 0, FuKind::Mem);
        // Consumer placed too early (needs cycle >= 2).
        place(&mut sched, &machine, b.0, 1, 0, FuKind::Fp);
        let found = findings(&machine, &g, &sched);
        assert!(
            found.iter().any(|f| matches!(
                f,
                Finding::StaticViolation { lint, message }
                    if lint == "dependence-violated" && message.contains("slack -1")
            )),
            "{found:?}"
        );
    }

    #[test]
    fn fu_conflicts_are_detected() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("conflict");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::Load);
        let mut sched = ModuloSchedule::new("conflict", 2, 2, 1);
        place(&mut sched, &machine, a.0, 0, 0, FuKind::Mem);
        place(&mut sched, &machine, b.0, 2, 0, FuKind::Mem); // same row mod 2
        assert!(flags(&findings(&machine, &g, &sched), "fu-conflict"));
    }

    #[test]
    fn missing_communication_is_detected() {
        let machine = MachineConfig::two_cluster(1, 1);
        let mut g = DepGraph::new("comm");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut sched = ModuloSchedule::new("comm", 2, 3, 1);
        place(&mut sched, &machine, a.0, 0, 0, FuKind::Mem);
        place(&mut sched, &machine, b.0, 10, 1, FuKind::Fp);
        assert!(flags(
            &findings(&machine, &g, &sched),
            "missing-communication"
        ));
    }
}
