//! The one front door to the schedulers: a [`Policy`] names one of the five
//! cluster-assignment strategies and a [`Scheduler`] runs it on the shared
//! [`IiSearchDriver`].
//!
//! The five differ in a single decision, the cluster each node goes to, so
//! [`Scheduler::schedule_diag`] is the only place that maps a [`Policy`] to its
//! [`vliw_sms::ClusterPolicy`] and its register check.

use crate::ablation::{load_balanced_assignment, round_robin_assignment};
use crate::bsa::BsaPolicy;
use crate::ne::NePolicy;
use crate::result::LoopScheduler;
use serde::{Deserialize, Serialize};
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_sms::{
    FixedAssignmentPolicy, FuelBudget, IiSearchDriver, ModuloSchedule, ScheduleError, ScheduledLoop,
};

/// The five scheduling policies of the repository, all thin strategies on the shared
/// `IiSearchDriver` engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// The unified-machine SMS reference (scheduled on the case machine's unified
    /// counterpart — SMS is a single-cluster scheduler).
    UnifiedSms,
    /// The paper's single-pass cluster scheduler (Figure 5).
    Bsa,
    /// The two-phase Nystrom & Eichenberger-style baseline.
    NystromEichenberger,
    /// Ablation: fixed round-robin cluster assignment.
    RoundRobin,
    /// Ablation: fixed load-balanced cluster assignment.
    LoadBalanced,
}

impl Policy {
    /// Every policy, in reporting order.
    pub const ALL: [Policy; 5] = [
        Policy::UnifiedSms,
        Policy::Bsa,
        Policy::NystromEichenberger,
        Policy::RoundRobin,
        Policy::LoadBalanced,
    ];

    /// Short label used in reports and coverage counters.
    pub fn label(self) -> &'static str {
        match self {
            Policy::UnifiedSms => "unified-sms",
            Policy::Bsa => "bsa",
            Policy::NystromEichenberger => "ne",
            Policy::RoundRobin => "round-robin",
            Policy::LoadBalanced => "load-balanced",
        }
    }

    /// The machine this policy actually schedules `machine`'s loops for: the machine
    /// itself for the cluster schedulers, its unified counterpart for the SMS
    /// reference.
    pub fn target_machine(self, machine: &MachineConfig) -> MachineConfig {
        match self {
            Policy::UnifiedSms if machine.is_clustered() => machine.unified_counterpart(),
            _ => machine.clone(),
        }
    }

    /// Schedule `graph` for `machine` under this policy (on its
    /// [`Policy::target_machine`]).
    pub fn schedule(
        self,
        machine: &MachineConfig,
        graph: &DepGraph,
    ) -> Result<ScheduledLoop, ScheduleError> {
        Scheduler::new(self, &self.target_machine(machine)).schedule_diag(graph)
    }
}

/// A [`Policy`] bound to the machine it schedules for, optionally under a fuel
/// budget.
///
/// Unlike [`Policy::schedule`], a `Scheduler` schedules on exactly the machine it is
/// given: [`Policy::UnifiedSms`] on a clustered machine puts every node on cluster 0
/// and leaves the other clusters empty.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: Policy,
    machine: MachineConfig,
    /// `None` (the default) runs the unbudgeted search, so committed figure
    /// artifacts are unaffected.
    fuel: Option<FuelBudget>,
}

impl Scheduler {
    /// A scheduler running `policy` on `machine`.
    pub fn new(policy: Policy, machine: &MachineConfig) -> Self {
        Self {
            policy,
            machine: machine.clone(),
            fuel: None,
        }
    }

    /// Run the II search under a deterministic [`FuelBudget`].  When the budget is
    /// exhausted the search stops with [`ScheduleError::BudgetExhausted`] instead of
    /// continuing toward `max_ii`.
    #[must_use]
    pub fn with_fuel(mut self, budget: FuelBudget) -> Self {
        self.fuel = Some(budget);
        self
    }

    /// The policy this scheduler runs.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The machine being scheduled for.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Modulo schedule `graph`.
    pub fn schedule(&self, graph: &DepGraph) -> Result<ModuloSchedule, ScheduleError> {
        self.schedule_diag(graph).map(|out| out.schedule)
    }

    /// Like [`Scheduler::schedule`], but also return the engine's
    /// [`vliw_sms::ScheduleDiagnostics`].
    pub fn schedule_diag(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
        let mut driver = IiSearchDriver::new(&self.machine);
        if let Some(fuel) = self.fuel {
            driver = driver.with_fuel(fuel);
        }
        match self.policy {
            Policy::UnifiedSms => driver.schedule_unified(graph),
            Policy::Bsa => driver.schedule(graph, &mut BsaPolicy::new()),
            Policy::NystromEichenberger => driver.schedule(graph, &mut NePolicy::new(graph)),
            Policy::RoundRobin => {
                let assignment = round_robin_assignment(&self.machine, graph);
                driver.schedule(graph, &mut FixedAssignmentPolicy::new(assignment))
            }
            Policy::LoadBalanced => {
                let assignment = load_balanced_assignment(&self.machine, graph);
                driver.schedule(graph, &mut FixedAssignmentPolicy::new(assignment))
            }
        }
    }
}

impl LoopScheduler for Scheduler {
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    fn schedule_loop(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
        self.schedule_diag(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::OpClass;
    use vliw_ddg::GraphBuilder;

    fn pair() -> DepGraph {
        GraphBuilder::new("pair")
            .node("ld", OpClass::Load)
            .node("add", OpClass::FpAdd)
            .flow("ld", "add")
            .build()
    }

    #[test]
    fn a_scheduler_keeps_its_machine_while_policy_schedule_retargets() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = pair();
        let here = Scheduler::new(Policy::UnifiedSms, &machine)
            .schedule_diag(&g)
            .unwrap();
        assert_eq!(here.diagnostics.max_live_per_cluster.len(), 2);
        assert!(g.node_ids().all(|n| here.schedule.cluster_of(n) == Some(0)));
        let retargeted = Policy::UnifiedSms.schedule(&machine, &g).unwrap();
        assert_eq!(retargeted.diagnostics.max_live_per_cluster.len(), 1);
    }

    #[test]
    fn every_policy_honours_fuel_and_rejects_a_clusterless_machine() {
        let machine = MachineConfig::two_cluster(1, 1);
        let mut clusterless = machine.clone();
        clusterless.n_clusters = 0;
        for policy in Policy::ALL {
            let out = Scheduler::new(policy, &machine)
                .with_fuel(FuelBudget::probes(1 << 20))
                .schedule_diag(&pair())
                .unwrap();
            assert!(out.diagnostics.fuel.is_some(), "{}", policy.label());
            let err = Scheduler::new(policy, &clusterless)
                .schedule(&pair())
                .unwrap_err();
            assert!(matches!(err, ScheduleError::InvalidMachine(_)), "{err}");
        }
    }
}
