//! Ablation schedulers: strip individual heuristics out of the cluster-assignment
//! problem to quantify how much each one contributes.
//!
//! `DESIGN.md` calls out two design choices of the paper's scheduler whose value is
//! worth measuring separately:
//!
//! 1. doing assignment and scheduling **in a single pass** (vs. any two-phase split) —
//!    measured by comparing [`crate::BsaScheduler`] against [`crate::NeScheduler`];
//! 2. choosing clusters by the **communication-profit heuristic** (vs. ignoring the
//!    dependence structure entirely) — measured here by two deliberately naive
//!    assignment policies plugged into the same phase-2 scheduling machinery:
//!
//! * [`RoundRobinScheduler`] — node *i* goes to cluster `i mod n`, spreading work
//!   evenly but cutting almost every dependence edge;
//! * [`LoadBalancedScheduler`] — each node goes to the cluster with the lowest load of
//!   its functional-unit kind, the classic "balance-only" policy.
//!
//! Both usually need far more inter-cluster communications than BSA or N&E; the
//! integration tests quantify the gap.

use crate::ne::NeScheduler;
use crate::result::LoopScheduler;
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_sms::{ModuloSchedule, ScheduleError, ScheduledLoop};

/// Ablation: assign node `i` to cluster `i mod n_clusters`, then schedule.
#[derive(Debug, Clone)]
pub struct RoundRobinScheduler {
    inner: NeScheduler,
}

impl RoundRobinScheduler {
    /// A round-robin-assignment scheduler for `machine`.
    pub fn new(machine: &MachineConfig) -> Self {
        Self {
            inner: NeScheduler::new(machine),
        }
    }

    /// Schedule `graph` with the round-robin assignment.
    pub fn schedule(&self, graph: &DepGraph) -> Result<ModuloSchedule, ScheduleError> {
        self.schedule_diag(graph).map(|out| out.schedule)
    }

    /// Like [`RoundRobinScheduler::schedule`], but also return the engine's
    /// [`vliw_sms::ScheduleDiagnostics`].
    pub fn schedule_diag(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
        let n = self.inner.machine().n_clusters;
        let assignment: Vec<usize> = (0..graph.n_nodes()).map(|i| i % n).collect();
        self.inner.schedule_with_assignment(graph, &assignment)
    }
}

impl LoopScheduler for RoundRobinScheduler {
    fn machine(&self) -> &MachineConfig {
        self.inner.machine()
    }

    fn schedule_loop(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
        self.schedule_diag(graph)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Ablation: assign every node to the cluster currently holding the fewest operations
/// of its functional-unit kind (pure load balancing, no communication awareness).
#[derive(Debug, Clone)]
pub struct LoadBalancedScheduler {
    inner: NeScheduler,
}

impl LoadBalancedScheduler {
    /// A balance-only-assignment scheduler for `machine`.
    pub fn new(machine: &MachineConfig) -> Self {
        Self {
            inner: NeScheduler::new(machine),
        }
    }

    /// Schedule `graph` with the balance-only assignment.
    pub fn schedule(&self, graph: &DepGraph) -> Result<ModuloSchedule, ScheduleError> {
        self.schedule_diag(graph).map(|out| out.schedule)
    }

    /// Like [`LoadBalancedScheduler::schedule`], but also return the engine's
    /// [`vliw_sms::ScheduleDiagnostics`].
    pub fn schedule_diag(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
        let assignment = load_balanced_assignment(self.inner.machine(), graph);
        self.inner.schedule_with_assignment(graph, &assignment)
    }
}

/// The balance-only cluster assignment: each node goes to the cluster currently
/// holding the fewest operations of its functional-unit kind (total load, then the
/// lowest index, as tie-breaks).  Exposed as a free function because the resilient
/// degradation ladder reuses it as a communication-blind fallback rung.  On a
/// zero-cluster machine (rejected by the engine before any policy runs) every node
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

impl LoopScheduler for LoadBalancedScheduler {
    fn machine(&self) -> &MachineConfig {
        self.inner.machine()
    }

    fn schedule_loop(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
        self.schedule_diag(graph)
    }

    fn name(&self) -> &'static str {
        "load-balanced"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BsaScheduler;
    use vliw_arch::OpClass;
    use vliw_ddg::GraphBuilder;

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

    #[test]
    fn round_robin_schedules_legally_but_needs_more_communication() {
        let machine = MachineConfig::two_cluster(2, 1);
        let g = chain_loop();
        let rr = RoundRobinScheduler::new(&machine).schedule(&g).unwrap();
        let bsa = BsaScheduler::new(&machine).schedule(&g).unwrap();
        assert!(rr.is_complete());
        // Round-robin cuts the chain at every edge; BSA keeps it in one cluster.
        assert!(rr.comms().len() >= bsa.comms().len());
        assert!(rr.ii() >= bsa.ii());
    }

    #[test]
    fn load_balanced_respects_fu_kinds() {
        let machine = MachineConfig::four_cluster(2, 1);
        let g = chain_loop();
        let sched = LoadBalancedScheduler::new(&machine).schedule(&g).unwrap();
        assert!(sched.is_complete());
    }

    #[test]
    fn ablation_schedulers_expose_the_loop_scheduler_interface() {
        let machine = MachineConfig::two_cluster(1, 1);
        let rr: &dyn LoopScheduler = &RoundRobinScheduler::new(&machine);
        let lb: &dyn LoopScheduler = &LoadBalancedScheduler::new(&machine);
        assert_eq!(rr.name(), "round-robin");
        assert_eq!(lb.name(), "load-balanced");
        let g = chain_loop();
        assert!(rr.schedule_loop(&g).is_ok());
        assert!(lb.schedule_loop(&g).is_ok());
    }

    #[test]
    fn bsa_is_at_least_as_good_as_both_ablations_on_a_bus_poor_machine() {
        let machine = MachineConfig::four_cluster(1, 2);
        let g = chain_loop();
        let bsa = BsaScheduler::new(&machine).schedule(&g).unwrap();
        let rr = RoundRobinScheduler::new(&machine).schedule(&g).unwrap();
        let lb = LoadBalancedScheduler::new(&machine).schedule(&g).unwrap();
        assert!(bsa.ii() <= rr.ii());
        assert!(bsa.ii() <= lb.ii());
    }

    #[test]
    fn wrong_assignment_length_is_a_typed_error_not_a_panic() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = chain_loop();
        let err = NeScheduler::new(&machine)
            .schedule_with_assignment(&g, &[0, 1])
            .unwrap_err();
        assert!(matches!(err, ScheduleError::RoguePolicy(_)), "{err}");
    }

    #[test]
    fn out_of_range_assignment_is_a_typed_error_not_a_panic() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = chain_loop();
        let assignment = vec![7; g.n_nodes()];
        let err = NeScheduler::new(&machine)
            .schedule_with_assignment(&g, &assignment)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::RoguePolicy(_)), "{err}");
    }
}
