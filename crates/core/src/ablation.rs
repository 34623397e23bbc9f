//! Ablation assignments: strip individual heuristics out of the cluster-assignment
//! problem to quantify how much each one contributes.
//!
//! `DESIGN.md` calls out two design choices of the paper's scheduler whose value is
//! worth measuring separately:
//!
//! 1. doing assignment and scheduling **in a single pass** (vs. any two-phase split) —
//!    measured by comparing [`crate::Policy::Bsa`] against
//!    [`crate::Policy::NystromEichenberger`];
//! 2. choosing clusters by the **communication-profit heuristic** (vs. ignoring the
//!    dependence structure entirely) — measured by two deliberately naive
//!    assignments, each forced onto its clusters by a
//!    [`vliw_sms::FixedAssignmentPolicy`] on the same engine:
//!
//! * `round_robin_assignment` ([`crate::Policy::RoundRobin`]) — node *i* goes to
//!   cluster `i mod n`, spreading work evenly but cutting almost every dependence
//!   edge;
//! * [`load_balanced_assignment`] ([`crate::Policy::LoadBalanced`]) — each node goes
//!   to the cluster with the lowest load of its functional-unit kind, the classic
//!   "balance-only" policy.
//!
//! Both usually need far more inter-cluster communications than BSA or N&E; the
//! integration tests quantify the gap.

use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;

/// The round-robin cluster assignment: node `i` goes to cluster `i mod n_clusters`.
/// On a zero-cluster machine (rejected by the engine before any policy runs) every
/// node maps to cluster 0.
pub(crate) fn round_robin_assignment(machine: &MachineConfig, graph: &DepGraph) -> Vec<usize> {
    let n = machine.n_clusters.max(1);
    (0..graph.n_nodes()).map(|i| i % n).collect()
}

/// The balance-only cluster assignment: each node goes to the cluster currently
/// holding the fewest operations of its functional-unit kind (total load, then the
/// lowest index, as tie-breaks).  On a zero-cluster machine (rejected by the engine before any policy runs) every node
/// maps to cluster 0.
pub fn load_balanced_assignment(machine: &MachineConfig, graph: &DepGraph) -> Vec<usize> {
    let n = machine.n_clusters;
    let mut load = vec![[0usize; 3]; n];
    let mut assignment = Vec::with_capacity(graph.n_nodes());
    for node in graph.nodes() {
        let k = node.class.fu_kind().index();
        let cluster = (0..n)
            .min_by_key(|&c| (load[c][k], load[c].iter().sum::<usize>(), c))
            .unwrap_or(0);
        if let Some(l) = load.get_mut(cluster) {
            l[k] += 1;
        }
        assignment.push(cluster);
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoopScheduler, Policy, Scheduler};
    use vliw_arch::OpClass;
    use vliw_ddg::GraphBuilder;
    use vliw_sms::ModuloSchedule;

    fn chain_loop() -> DepGraph {
        GraphBuilder::new("chain")
            .iterations(200)
            .node("ld", OpClass::Load)
            .node("m0", OpClass::FpMul)
            .node("a0", OpClass::FpAdd)
            .node("a1", OpClass::FpAdd)
            .node("st", OpClass::Store)
            .flow("ld", "m0")
            .flow("m0", "a0")
            .flow("a0", "a1")
            .flow("a1", "st")
            .build()
    }

    fn schedule(policy: Policy, machine: &MachineConfig, g: &DepGraph) -> ModuloSchedule {
        Scheduler::new(policy, machine).schedule(g).unwrap()
    }

    #[test]
    fn round_robin_schedules_legally_but_needs_more_communication() {
        let machine = MachineConfig::two_cluster(2, 1);
        let g = chain_loop();
        let rr = schedule(Policy::RoundRobin, &machine, &g);
        let bsa = schedule(Policy::Bsa, &machine, &g);
        assert!(rr.is_complete());
        // Round-robin cuts the chain at every edge; BSA keeps it in one cluster.
        assert!(rr.comms().len() >= bsa.comms().len());
        assert!(rr.ii() >= bsa.ii());
        for node in g.node_ids() {
            assert_eq!(rr.cluster_of(node), Some(node.index() % 2));
        }
    }

    #[test]
    fn load_balanced_respects_fu_kinds() {
        let machine = MachineConfig::four_cluster(2, 1);
        let g = chain_loop();
        let sched = schedule(Policy::LoadBalanced, &machine, &g);
        assert!(sched.is_complete());
    }

    #[test]
    fn ablation_schedulers_expose_the_loop_scheduler_interface() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = chain_loop();
        for policy in [Policy::RoundRobin, Policy::LoadBalanced] {
            let scheduler: &dyn LoopScheduler = &Scheduler::new(policy, &machine);
            assert_eq!(scheduler.machine(), &machine);
            assert!(scheduler.schedule_loop(&g).is_ok(), "{}", policy.label());
        }
    }

    #[test]
    fn bsa_is_at_least_as_good_as_both_ablations_on_a_bus_poor_machine() {
        let machine = MachineConfig::four_cluster(1, 2);
        let g = chain_loop();
        let bsa = schedule(Policy::Bsa, &machine, &g);
        let rr = schedule(Policy::RoundRobin, &machine, &g);
        let lb = schedule(Policy::LoadBalanced, &machine, &g);
        assert!(bsa.ii() <= rr.ii());
        assert!(bsa.ii() <= lb.ii());
    }
}
