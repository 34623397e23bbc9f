//! Result types shared by the clustered schedulers and the unrolling policies.

use serde::{Deserialize, Serialize};
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_metrics::{CodeSizeModel, CodeSizeReport};
use vliw_sms::{ModuloSchedule, ScheduleDiagnostics, ScheduleError, ScheduledLoop};

/// The epilogue that drains the `NITER mod U` iterations an exactly-unrolled kernel
/// does not cover: one invocation of the *original* body's modulo schedule, run
/// `iterations` times (see [`vliw_ddg::unroll_exact`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemainderEpilogue {
    /// The original (non-unrolled) body's schedule.
    pub schedule: ModuloSchedule,
    /// `NITER mod U` — how many iterations the epilogue executes.
    pub iterations: u64,
}

impl RemainderEpilogue {
    /// Cycles the epilogue invocation takes: `(r + SC − 1) · II` of the original
    /// body's schedule.
    pub fn cycles(&self) -> u64 {
        self.schedule.cycles_for(self.iterations)
    }
}

/// The outcome of scheduling one loop (possibly after unrolling).
///
/// Keeps the graph that was actually scheduled (which is the unrolled graph when an
/// unrolling policy kicked in) together with enough provenance to account IPC and code
/// size in terms of the *original* loop: the paper's IPC numbers always count original
/// useful operations, so unrolling can never inflate the numerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSchedule {
    /// The modulo schedule of `scheduled_graph`.
    pub schedule: ModuloSchedule,
    /// The engine's account of the II search that produced `schedule` (limiting
    /// resource, II trajectory, communication counts, per-cluster pressure).
    pub diagnostics: ScheduleDiagnostics,
    /// The graph that was scheduled (original or unrolled).
    pub scheduled_graph: DepGraph,
    /// The unroll factor applied (1 = not unrolled).
    pub unroll_factor: u32,
    /// Number of operations in the original (pre-unrolling) loop body.
    pub original_ops: usize,
    /// Iteration count of the original loop (`NITER`).
    pub original_iterations: u64,
    /// Number of invocations of the loop per program run.
    pub invocations: u64,
    /// Exact-model remainder epilogue: present only when the loop was unrolled under
    /// the exact iteration model (`UnrollPolicy::Fixed` / `UnrollPolicy::Explore`)
    /// and the factor does not divide `NITER`.  The paper-model policies
    /// (`ByClusters` / `Selective`) charge the kernel for the overshoot instead and
    /// leave this `None`.
    pub remainder: Option<RemainderEpilogue>,
}

impl ClusterSchedule {
    /// Wrap a schedule of the original (non-unrolled) graph.
    pub fn from_original(graph: &DepGraph, scheduled: ScheduledLoop) -> Self {
        Self {
            schedule: scheduled.schedule,
            diagnostics: scheduled.diagnostics,
            scheduled_graph: graph.clone(),
            unroll_factor: 1,
            original_ops: graph.n_nodes(),
            original_iterations: graph.iterations,
            invocations: graph.invocations,
            remainder: None,
        }
    }

    /// Wrap a schedule of an unrolled copy of `original` under the paper's
    /// iteration model (`⌈NITER/U⌉` kernel iterations, overshoot charged to the
    /// kernel; see [`vliw_ddg::unroll`](fn@vliw_ddg::unroll)).
    pub fn from_unrolled(
        original: &DepGraph,
        unrolled: DepGraph,
        scheduled: ScheduledLoop,
        factor: u32,
    ) -> Self {
        Self {
            schedule: scheduled.schedule,
            diagnostics: scheduled.diagnostics,
            scheduled_graph: unrolled,
            unroll_factor: factor,
            original_ops: original.n_nodes(),
            original_iterations: original.iterations,
            invocations: original.invocations,
            remainder: None,
        }
    }

    /// Wrap a schedule of an exactly-unrolled kernel of `original`
    /// ([`vliw_ddg::unroll_exact`]): the kernel covers `⌊NITER/U⌋` iterations and
    /// `remainder` (the original body's schedule, `NITER mod U` iterations) drains
    /// the leftover — `None` when the factor divides `NITER`.
    pub fn from_unrolled_exact(
        original: &DepGraph,
        kernel: DepGraph,
        scheduled: ScheduledLoop,
        factor: u32,
        remainder: Option<RemainderEpilogue>,
    ) -> Self {
        debug_assert_eq!(
            kernel.iterations * factor as u64 + remainder.as_ref().map_or(0, |r| r.iterations),
            original.iterations,
            "exact unrolling must cover NITER exactly"
        );
        Self {
            schedule: scheduled.schedule,
            diagnostics: scheduled.diagnostics,
            scheduled_graph: kernel,
            unroll_factor: factor,
            original_ops: original.n_nodes(),
            original_iterations: original.iterations,
            invocations: original.invocations,
            remainder,
        }
    }

    /// Cycles for one invocation of the loop: `NCYCLES = (NITER + SC − 1)·II` of the
    /// *scheduled* (possibly unrolled) graph, plus the remainder epilogue's cycles
    /// when the exact unrolling model left one.
    pub fn cycles_per_invocation(&self) -> u64 {
        self.schedule.cycles_for(self.scheduled_graph.iterations)
            + self.epilogue_cycles_per_invocation()
    }

    /// Cycles per invocation spent in the remainder epilogue (0 without one).
    pub fn epilogue_cycles_per_invocation(&self) -> u64 {
        self.remainder.as_ref().map_or(0, RemainderEpilogue::cycles)
    }

    /// Static code size of this loop's generated code: the pipelined kernel code
    /// plus, under the exact unrolling model, the remainder loop's own pipelined
    /// code (prologue + kernel + epilogue of the original body's schedule).
    pub fn code_size(&self, model: &CodeSizeModel) -> CodeSizeReport {
        let mut size = model.loop_size(&self.schedule, self.scheduled_graph.n_nodes());
        if let Some(rem) = &self.remainder {
            size.accumulate(model.loop_size(&rem.schedule, self.original_ops));
        }
        size
    }

    /// Total cycles over all invocations.
    pub fn total_cycles(&self) -> u64 {
        self.cycles_per_invocation() * self.invocations
    }

    /// Useful (original) operations executed over all invocations.
    pub fn total_useful_ops(&self) -> u64 {
        self.original_ops as u64 * self.original_iterations * self.invocations
    }

    /// Instructions-per-cycle of this loop alone.
    pub fn ipc(&self) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.total_useful_ops() as f64 / cycles as f64
    }
}

/// Anything that can modulo-schedule a loop for a fixed machine.
///
/// Implemented by [`crate::Scheduler`] — every [`crate::Policy`], all of them thin
/// strategies on the shared [`vliw_sms::IiSearchDriver`] — so that unrolling
/// policies and the experiment harness can be written once.  Scheduling returns a [`ScheduledLoop`]: the schedule
/// plus the engine's [`ScheduleDiagnostics`].
pub trait LoopScheduler {
    /// The machine being scheduled for.
    fn machine(&self) -> &MachineConfig;

    /// Produce a modulo schedule of `graph`, with diagnostics.
    fn schedule_loop(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Policy, Scheduler};
    use vliw_arch::OpClass;
    use vliw_ddg::GraphBuilder;

    fn sms(machine: &MachineConfig) -> Scheduler {
        Scheduler::new(Policy::UnifiedSms, machine)
    }

    fn small_loop() -> DepGraph {
        GraphBuilder::new("small")
            .iterations(100)
            .invocations(3)
            .node("l", OpClass::Load)
            .node("a", OpClass::FpAdd)
            .node("s", OpClass::Store)
            .flow("l", "a")
            .flow("a", "s")
            .build()
    }

    #[test]
    fn ipc_accounts_original_ops_only() {
        let machine = MachineConfig::unified();
        let g = small_loop();
        let sched = sms(&machine).schedule_diag(&g).unwrap();
        let cs = ClusterSchedule::from_original(&g, sched);
        assert_eq!(cs.unroll_factor, 1);
        assert_eq!(cs.total_useful_ops(), 3 * 100 * 3);
        assert!(cs.ipc() > 0.0);
        assert!(cs.ipc() <= machine.total_issue_width() as f64);
    }

    #[test]
    fn unrolled_wrapper_keeps_original_accounting() {
        let machine = MachineConfig::unified();
        let g = small_loop();
        let unrolled = vliw_ddg::unroll(&g, 2);
        let sched = sms(&machine).schedule_diag(&unrolled).unwrap();
        let cs = ClusterSchedule::from_unrolled(&g, unrolled, sched, 2);
        assert_eq!(cs.unroll_factor, 2);
        // Useful work is unchanged by unrolling.
        assert_eq!(cs.total_useful_ops(), 3 * 100 * 3);
        // The scheduled graph runs half the iterations.
        assert_eq!(cs.scheduled_graph.iterations, 50);
    }

    #[test]
    fn scheduler_trait_is_object_safe() {
        let machine = MachineConfig::unified();
        let sms = sms(&machine);
        let as_dyn: &dyn LoopScheduler = &sms;
        assert_eq!(as_dyn.machine(), &machine);
        let g = small_loop();
        assert!(as_dyn.schedule_loop(&g).is_ok());
    }

    #[test]
    fn cluster_schedule_carries_the_engine_diagnostics() {
        let machine = MachineConfig::unified();
        let g = small_loop();
        let sched = sms(&machine).schedule_diag(&g).unwrap();
        let cs = ClusterSchedule::from_original(&g, sched);
        assert_eq!(cs.diagnostics.ii, cs.schedule.ii());
        assert_eq!(cs.diagnostics.n_comms, cs.schedule.comms().len());
    }
}
