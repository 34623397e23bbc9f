//! The result of modulo scheduling a loop.

use serde::{Deserialize, Serialize};
use std::fmt;
use vliw_arch::{
    ClusterInstruction, FuSlot, InBusField, MachineConfig, Operation, OutBusField, ResourceIndex,
    ResourceKind, ResourcePool, VliwInstruction, VliwProgram,
};
use vliw_ddg::{DepGraph, NodeId};

/// Why a loop could not be scheduled — the full failure taxonomy of the scheduling
/// path.  Every variant is a *typed* outcome: the engine and the schedulers built on
/// it never panic on reachable inputs, they return one of these.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleError {
    /// No legal schedule was found up to the maximum initiation interval explored.
    MaxIiExceeded {
        /// The minimum II the search started from.
        mii: u32,
        /// The last II that was attempted.
        max_ii_tried: u32,
    },
    /// The graph failed validation before scheduling was attempted.
    InvalidGraph(String),
    /// The graph passed validation but a structural analysis (node ordering) could
    /// not process it — a defensive error for inputs outside every analysed shape.
    DegenerateGraph(String),
    /// The machine configuration cannot execute this graph at all (e.g. the graph
    /// uses a functional-unit kind the machine has zero units of).
    InvalidMachine(String),
    /// The fuel budget ran out before a schedule was found (see
    /// [`crate::fuel::FuelBudget`]); carries the exact counters at exhaustion.
    BudgetExhausted {
        /// The minimum II the search started from.
        mii: u32,
        /// The II being explored when the budget ran out.
        at_ii: u32,
        /// Fuel consumed up to the stop.
        spent: crate::fuel::FuelSpent,
    },
    /// The optional wall-clock deadline expired before a schedule was found (service
    /// use; unlike [`ScheduleError::BudgetExhausted`] this is not deterministic).
    DeadlineExpired {
        /// The II being explored when the deadline fired.
        at_ii: u32,
    },
    /// A cluster policy panicked and the panic was contained at a scheduling
    /// boundary (see [`crate::containment::contain`]).
    PolicyPanic {
        /// The contained panic message.
        message: String,
    },
    /// A policy returned a trial the engine could prove malformed (wrong node, a
    /// cluster or resource row outside the machine) — the engine refuses to commit
    /// fabricated placements instead of corrupting the reservation table.
    RoguePolicy(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::MaxIiExceeded { mii, max_ii_tried } => write!(
                f,
                "no schedule found: started at MII={mii}, gave up after II={max_ii_tried}"
            ),
            ScheduleError::InvalidGraph(msg) => write!(f, "invalid dependence graph: {msg}"),
            ScheduleError::DegenerateGraph(msg) => write!(f, "degenerate graph: {msg}"),
            ScheduleError::InvalidMachine(msg) => write!(f, "invalid machine: {msg}"),
            ScheduleError::BudgetExhausted { mii, at_ii, spent } => write!(
                f,
                "fuel budget exhausted at II={at_ii} (MII={mii}) after {} probes, {} attempts, {} II steps",
                spent.probes, spent.attempts, spent.ii_steps
            ),
            ScheduleError::DeadlineExpired { at_ii } => {
                write!(f, "wall-clock deadline expired at II={at_ii}")
            }
            ScheduleError::PolicyPanic { message } => {
                write!(f, "cluster policy panicked (contained): {message}")
            }
            ScheduleError::RoguePolicy(msg) => {
                write!(f, "policy returned a malformed trial: {msg}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Placement of one dependence-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedOp {
    /// The node.
    pub node: NodeId,
    /// Issue cycle within the flat (un-pipelined) schedule of one iteration.  May be
    /// any integer during construction; [`ModuloSchedule::normalize`] shifts the whole
    /// schedule so the earliest operation starts in cycle `[0, II)`.
    pub cycle: i64,
    /// The cluster the node executes in (always 0 on a unified machine).
    pub cluster: usize,
    /// The functional-unit row reserved for the node.
    pub fu: ResourceIndex,
}

/// Placement of one inter-cluster value communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommPlacement {
    /// The node whose value is transferred.
    pub src_node: NodeId,
    /// The node that consumes the value in another cluster.
    pub dst_node: NodeId,
    /// Cluster driving the bus.
    pub from_cluster: usize,
    /// Cluster reading the bus.
    pub to_cluster: usize,
    /// Which bus row was reserved.
    pub bus: ResourceIndex,
    /// Cycle at which the transfer starts (the bus stays busy for the whole bus
    /// latency starting here).
    pub start_cycle: i64,
    /// Duration of the transfer (the machine's bus latency).
    pub duration: u32,
}

/// A lightweight marker of a schedule's state, taken before a tentative placement and
/// handed back to [`ModuloSchedule::rollback`] to undo everything recorded since.
///
/// Checkpoints are plain counters into the schedule's append-only state (the
/// communication list and the placement journal), so taking one allocates nothing and
/// rolling back only pops — this is what lets the cluster schedulers trial a node on
/// every cluster without deep-cloning the schedule per trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleCheckpoint {
    n_comms: usize,
    n_placed: usize,
}

/// A complete modulo schedule of one loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuloSchedule {
    /// Name of the scheduled loop (copied from the graph).
    pub loop_name: String,
    ii: u32,
    ops: Vec<Option<PlacedOp>>,
    comms: Vec<CommPlacement>,
    /// Journal of placements in the order they were made; [`ModuloSchedule::rollback`]
    /// pops it to undo tentative placements without cloning the schedule.
    placed_log: Vec<NodeId>,
    /// The minimum II (max of ResMII and RecMII) of the loop on the target machine.
    pub mii: u32,
}

impl ModuloSchedule {
    /// An empty schedule with the given II for a graph of `n_nodes` nodes.
    pub fn new(loop_name: impl Into<String>, n_nodes: usize, ii: u32, mii: u32) -> Self {
        assert!(ii >= 1);
        Self {
            loop_name: loop_name.into(),
            ii,
            ops: vec![None; n_nodes],
            comms: Vec::new(),
            placed_log: Vec::with_capacity(n_nodes),
            mii,
        }
    }

    /// The initiation interval.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Record the placement of a node.
    pub fn place(&mut self, op: PlacedOp) {
        let idx = op.node.index();
        debug_assert!(self.ops[idx].is_none(), "node {} placed twice", op.node);
        self.ops[idx] = Some(op);
        self.placed_log.push(op.node);
    }

    /// Capture the current state so a tentative placement (any number of
    /// [`ModuloSchedule::place`] and [`ModuloSchedule::add_comm`] calls) can be undone
    /// with [`ModuloSchedule::rollback`].  Allocation-free.
    #[inline]
    pub fn checkpoint(&self) -> ScheduleCheckpoint {
        ScheduleCheckpoint {
            n_comms: self.comms.len(),
            n_placed: self.placed_log.len(),
        }
    }

    /// Undo every placement and communication recorded since `cp` was taken, leaving
    /// the schedule exactly as it was at the checkpoint (including the journal, so a
    /// rolled-back schedule compares equal to a clone taken at checkpoint time).
    pub fn rollback(&mut self, cp: ScheduleCheckpoint) {
        debug_assert!(
            cp.n_comms <= self.comms.len() && cp.n_placed <= self.placed_log.len(),
            "rollback to a checkpoint from the future"
        );
        self.comms.truncate(cp.n_comms);
        while self.placed_log.len() > cp.n_placed {
            let node = self.placed_log.pop().expect("journal length checked");
            self.ops[node.index()] = None;
        }
    }

    /// Record an inter-cluster communication.
    pub fn add_comm(&mut self, comm: CommPlacement) {
        self.comms.push(comm);
    }

    /// Number of communications recorded so far.
    pub fn n_comms(&self) -> usize {
        self.comms.len()
    }

    /// The placement of `node`, if it has been scheduled (`None` also for a node
    /// beyond the graph this schedule was sized for).
    #[inline]
    pub fn placement(&self, node: NodeId) -> Option<&PlacedOp> {
        self.ops.get(node.index()).and_then(Option::as_ref)
    }

    /// Whether every node has been placed.
    pub fn is_complete(&self) -> bool {
        self.ops.iter().all(std::option::Option::is_some)
    }

    /// All placements, in node order.
    pub fn placements(&self) -> impl Iterator<Item = &PlacedOp> {
        self.ops.iter().flatten()
    }

    /// All communications.
    pub fn comms(&self) -> &[CommPlacement] {
        &self.comms
    }

    /// The cluster of `node`, if placed.
    pub fn cluster_of(&self, node: NodeId) -> Option<usize> {
        self.placement(node).map(|p| p.cluster)
    }

    /// Shift all cycles so the earliest placed operation (or communication) starts in
    /// `[0, II)`.  Keeps relative distances — and therefore legality — intact.
    pub fn normalize(&mut self) {
        let min_cycle = self
            .placements()
            .map(|p| p.cycle)
            .chain(self.comms.iter().map(|c| c.start_cycle))
            .min();
        let Some(min_cycle) = min_cycle else { return };
        let shift = min_cycle.div_euclid(self.ii as i64) * self.ii as i64;
        if shift == 0 {
            return;
        }
        for op in self.ops.iter_mut().flatten() {
            op.cycle -= shift;
        }
        for c in &mut self.comms {
            c.start_cycle -= shift;
        }
    }

    /// The stage count (`SC`): how many kernel iterations overlap, i.e. how many stages
    /// of `II` cycles the flat schedule of one iteration spans.
    ///
    /// The schedule must be normalized (all cycles ≥ 0); `stage_count` normalizes a
    /// copy if needed so it can be called on any complete schedule.
    pub fn stage_count(&self) -> u32 {
        let (min, max) = self.cycle_span();
        if max < min {
            return 1;
        }
        // All cycles shifted so min lands at stage 0.
        let span_end = max - min.div_euclid(self.ii as i64) * self.ii as i64;
        (span_end.div_euclid(self.ii as i64) + 1) as u32
    }

    /// Smallest and largest cycle used by any placement or communication completion.
    fn cycle_span(&self) -> (i64, i64) {
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        for p in self.placements() {
            min = min.min(p.cycle);
            max = max.max(p.cycle);
        }
        for c in &self.comms {
            min = min.min(c.start_cycle);
            max = max.max(c.start_cycle + c.duration as i64 - 1);
        }
        if min == i64::MAX {
            (0, -1)
        } else {
            (min, max)
        }
    }

    /// Total cycles to execute the loop once, following Section 4 of the paper:
    /// `NCYCLES = (NITER + SC − 1) · II` (no stall term: the memory hierarchy is
    /// perfect in the evaluated configurations).
    pub fn cycles_for(&self, iterations: u64) -> u64 {
        let sc = self.stage_count() as u64;
        (iterations + sc - 1) * self.ii as u64
    }

    /// The stage (`cycle div II`) of a placed node, after normalization.
    pub fn stage_of(&self, node: NodeId) -> Option<u32> {
        let (min, _) = self.cycle_span();
        let base = min.div_euclid(self.ii as i64) * self.ii as i64;
        self.placement(node)
            .map(|p| ((p.cycle - base).div_euclid(self.ii as i64)) as u32)
    }

    /// Kernel row (`cycle mod II`) of a placed node.
    pub fn row_of(&self, node: NodeId) -> Option<u32> {
        self.placement(node)
            .map(|p| p.cycle.rem_euclid(self.ii as i64) as u32)
    }

    /// Emit the kernel as a [`VliwProgram`] of `II` instructions.
    ///
    /// Every placed node appears once, in the row `cycle mod II`, in the FU slot its
    /// reservation named; communications fill the `OUT BUS` field of the sending
    /// cluster at the transfer start row and the `IN BUS` field of the receiving
    /// cluster at the arrival row.
    pub fn kernel_program(&self, graph: &DepGraph, machine: &MachineConfig) -> VliwProgram {
        let pool = ResourcePool::new(machine);
        let slot_of = SlotMap::new(&pool, machine);
        let ii = self.ii as usize;
        let mut instrs: Vec<VliwInstruction> =
            (0..ii).map(|_| VliwInstruction::nops(machine)).collect();
        for p in self.placements() {
            let row = p.cycle.rem_euclid(self.ii as i64) as usize;
            let stage = self.stage_of(p.node).unwrap_or(0);
            let slot = slot_of.slot(p.fu);
            let class = graph.node(p.node).class;
            instrs[row].clusters[p.cluster].slots[slot] =
                FuSlot::Op(Operation::new(p.node.0, class, stage));
        }
        for c in &self.comms {
            let bus_no = match pool.kind(c.bus) {
                ResourceKind::Bus { bus } => bus,
                ResourceKind::Fu { .. } => continue,
            };
            let start_row = c.start_cycle.rem_euclid(self.ii as i64) as usize;
            let arrive_row =
                (c.start_cycle + c.duration as i64).rem_euclid(self.ii as i64) as usize;
            let stage = self.stage_of(c.src_node).unwrap_or(0);
            let sender: &mut ClusterInstruction = &mut instrs[start_row].clusters[c.from_cluster];
            if sender.out_bus.is_none() {
                sender.out_bus = Some(OutBusField {
                    bus: bus_no,
                    node: c.src_node.0,
                    stage,
                });
            }
            let receiver: &mut ClusterInstruction = &mut instrs[arrive_row].clusters[c.to_cluster];
            if receiver.in_bus.is_none() {
                receiver.in_bus = Some(InBusField {
                    bus: bus_no,
                    node: c.src_node.0,
                });
            }
        }
        VliwProgram {
            instructions: instrs,
        }
    }

    /// Emit the complete software-pipelined code (prologue, kernel, epilogue) for a
    /// loop that runs `iterations` times, as a flat [`VliwProgram`].
    ///
    /// The expansion simply replays the flat one-iteration schedule `iterations` times,
    /// offset by `II` cycles each, which is exactly what the hardware executes; it is
    /// used by the code-size model (prologue and epilogue are `(SC − 1) · II` cycles
    /// each) and by tests that cross-check cycle counts.
    pub fn expanded_program(
        &self,
        graph: &DepGraph,
        machine: &MachineConfig,
        iterations: u64,
    ) -> VliwProgram {
        let pool = ResourcePool::new(machine);
        let slot_of = SlotMap::new(&pool, machine);
        let (min_cycle, max_cycle) = self.cycle_span();
        if max_cycle < min_cycle {
            return VliwProgram::new();
        }
        let span = (max_cycle - min_cycle + 1) as u64;
        let total_cycles = span + (iterations.saturating_sub(1)) * self.ii as u64;
        let mut prog = VliwProgram::nops(machine, total_cycles as usize);
        for iter in 0..iterations {
            let offset = iter as i64 * self.ii as i64 - min_cycle;
            for p in self.placements() {
                let cycle = (p.cycle + offset) as usize;
                let slot = slot_of.slot(p.fu);
                let class = graph.node(p.node).class;
                let stage = self.stage_of(p.node).unwrap_or(0);
                let slot_ref = &mut prog.instructions[cycle].clusters[p.cluster].slots[slot];
                debug_assert!(
                    !slot_ref.is_useful(),
                    "expanded schedule overlaps itself at cycle {cycle}"
                );
                *slot_ref = FuSlot::Op(Operation::new(p.node.0, class, stage));
            }
        }
        prog
    }

    /// A short human-readable summary (II, SC, #comms).
    pub fn summary(&self) -> String {
        format!(
            "{}: II={} (MII={}), SC={}, comms={}",
            self.loop_name,
            self.ii,
            self.mii,
            self.stage_count(),
            self.comms.len()
        )
    }
}

/// Dense map from a functional-unit resource row to its slot index within its
/// cluster's instruction (`ClusterInstruction::slots` layout).
///
/// Resource rows are contiguous small integers, so a `Vec` indexed by
/// [`ResourceIndex`] replaces the former per-emission `HashMap`: one bounds-checked
/// load per placed operation instead of a hash per lookup.  Build it once per machine
/// configuration and reuse it across emissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMap {
    /// `slots[resource]` = slot index; `usize::MAX` for rows that are not functional
    /// units (buses never carry an FU slot).
    slots: Vec<usize>,
}

impl SlotMap {
    /// The slot map of `machine` (whose resource rows are enumerated by `pool`).
    pub fn new(pool: &ResourcePool, machine: &MachineConfig) -> Self {
        let mut slots = vec![usize::MAX; pool.len()];
        for cluster in machine.clusters() {
            let mut slot = 0usize;
            for kind in vliw_arch::FuKind::ALL {
                for idx in pool.fus(cluster, kind) {
                    slots[idx.0] = slot;
                    slot += 1;
                }
            }
        }
        Self { slots }
    }

    /// The slot index of functional-unit row `fu`; panics if `fu` is not an FU row.
    #[inline]
    pub fn slot(&self, fu: ResourceIndex) -> usize {
        let s = self.slots[fu.0];
        debug_assert!(s != usize::MAX, "{fu} is not a functional-unit row");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::{FuKind, OpClass};
    use vliw_ddg::DepKind;

    fn tiny_graph() -> DepGraph {
        let mut g = DepGraph::new("tiny");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g
    }

    fn place_tiny(machine: &MachineConfig) -> ModuloSchedule {
        let pool = ResourcePool::new(machine);
        let mut s = ModuloSchedule::new("tiny", 2, 2, 2);
        s.place(PlacedOp {
            node: NodeId(0),
            cycle: 0,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
        s.place(PlacedOp {
            node: NodeId(1),
            cycle: 2,
            cluster: 0,
            fu: pool.fus(0, FuKind::Fp).next().unwrap(),
        });
        s
    }

    #[test]
    fn stage_count_and_cycles() {
        let machine = MachineConfig::unified();
        let s = place_tiny(&machine);
        // cycles 0 and 2 with II=2 -> 2 stages
        assert_eq!(s.stage_count(), 2);
        // NCYCLES = (100 + 2 - 1) * 2
        assert_eq!(s.cycles_for(100), 202);
        assert_eq!(s.stage_of(NodeId(0)), Some(0));
        assert_eq!(s.stage_of(NodeId(1)), Some(1));
        assert_eq!(s.row_of(NodeId(1)), Some(0));
    }

    #[test]
    fn normalize_shifts_negative_cycles_into_range() {
        let machine = MachineConfig::unified();
        let pool = ResourcePool::new(&machine);
        let mut s = ModuloSchedule::new("neg", 2, 3, 1);
        s.place(PlacedOp {
            node: NodeId(0),
            cycle: -5,
            cluster: 0,
            fu: pool.fus(0, FuKind::Int).next().unwrap(),
        });
        s.place(PlacedOp {
            node: NodeId(1),
            cycle: -2,
            cluster: 0,
            fu: pool.fus(0, FuKind::Fp).next().unwrap(),
        });
        s.normalize();
        let c0 = s.placement(NodeId(0)).unwrap().cycle;
        let c1 = s.placement(NodeId(1)).unwrap().cycle;
        assert!((0..3).contains(&c0), "c0 = {c0}");
        assert_eq!(c1 - c0, 3); // relative distance preserved
    }

    #[test]
    fn kernel_program_has_ii_rows_and_all_ops() {
        let machine = MachineConfig::unified();
        let g = tiny_graph();
        let s = place_tiny(&machine);
        let kernel = s.kernel_program(&g, &machine);
        assert_eq!(kernel.len(), 2);
        assert_eq!(kernel.useful_ops(), 2);
    }

    #[test]
    fn kernel_program_emits_bus_fields() {
        let machine = MachineConfig::two_cluster(1, 1);
        let pool = ResourcePool::new(&machine);
        let g = tiny_graph();
        let mut s = ModuloSchedule::new("comm", 2, 2, 2);
        s.place(PlacedOp {
            node: NodeId(0),
            cycle: 0,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
        s.place(PlacedOp {
            node: NodeId(1),
            cycle: 3,
            cluster: 1,
            fu: pool.fus(1, FuKind::Fp).next().unwrap(),
        });
        s.add_comm(CommPlacement {
            src_node: NodeId(0),
            dst_node: NodeId(1),
            from_cluster: 0,
            to_cluster: 1,
            bus: pool.buses().next().unwrap(),
            start_cycle: 2,
            duration: 1,
        });
        let kernel = s.kernel_program(&g, &machine);
        let senders: Vec<_> = kernel
            .instructions
            .iter()
            .flat_map(|i| i.clusters.iter())
            .filter(|c| c.out_bus.is_some())
            .collect();
        assert_eq!(senders.len(), 1);
        let receivers: Vec<_> = kernel
            .instructions
            .iter()
            .flat_map(|i| i.clusters.iter())
            .filter(|c| c.in_bus.is_some())
            .collect();
        assert_eq!(receivers.len(), 1);
    }

    #[test]
    fn expanded_program_counts_iterations() {
        let machine = MachineConfig::unified();
        let g = tiny_graph();
        let s = place_tiny(&machine);
        let iterations = 10u64;
        let prog = s.expanded_program(&g, &machine, iterations);
        // Every node issued once per iteration.
        assert_eq!(prog.useful_ops() as u64, 2 * iterations);
        // Length: span (3 cycles: 0..=2) + (niter-1)*II
        assert_eq!(prog.len() as u64, 3 + 9 * 2);
    }

    #[test]
    fn checkpoint_rollback_restores_the_exact_schedule() {
        let machine = MachineConfig::two_cluster(1, 1);
        let pool = ResourcePool::new(&machine);
        // Node 0 committed, node 1 still open — exactly the state BSA trials from.
        let mut s = ModuloSchedule::new("rb", 2, 2, 2);
        s.place(PlacedOp {
            node: NodeId(0),
            cycle: 0,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
        let before = s.clone();
        let cp = s.checkpoint();
        // A tentative trial: one comm plus the placement of node 1.
        s.add_comm(CommPlacement {
            src_node: NodeId(0),
            dst_node: NodeId(1),
            from_cluster: 0,
            to_cluster: 1,
            bus: pool.buses().next().unwrap(),
            start_cycle: 1,
            duration: 1,
        });
        s.place(PlacedOp {
            node: NodeId(1),
            cycle: 5,
            cluster: 1,
            fu: pool.fus(1, FuKind::Fp).next().unwrap(),
        });
        assert_ne!(s, before);
        assert!(s.is_complete());
        // Rollback restores the pre-trial state bit-for-bit...
        s.rollback(cp);
        assert!(s.placement(NodeId(1)).is_none());
        assert!(!s.is_complete());
        assert_eq!(s, before);
        // ...and nested checkpoints unwind independently.
        let outer = s.checkpoint();
        s.place(PlacedOp {
            node: NodeId(1),
            cycle: 2,
            cluster: 0,
            fu: pool.fus(0, FuKind::Fp).next().unwrap(),
        });
        let inner = s.checkpoint();
        s.add_comm(CommPlacement {
            src_node: NodeId(1),
            dst_node: NodeId(0),
            from_cluster: 0,
            to_cluster: 1,
            bus: pool.buses().next().unwrap(),
            start_cycle: 3,
            duration: 1,
        });
        s.rollback(inner);
        assert!(s.placement(NodeId(1)).is_some());
        assert_eq!(s.n_comms(), 0);
        s.rollback(outer);
        assert_eq!(s, before);
    }

    #[test]
    fn rollback_across_multiple_placements_pops_in_order() {
        let machine = MachineConfig::unified();
        let pool = ResourcePool::new(&machine);
        let mut s = ModuloSchedule::new("multi", 3, 2, 1);
        let cp = s.checkpoint();
        for (i, kind) in [(0u32, FuKind::Int), (1, FuKind::Fp), (2, FuKind::Mem)] {
            s.place(PlacedOp {
                node: NodeId(i),
                cycle: i as i64,
                cluster: 0,
                fu: pool.fus(0, kind).next().unwrap(),
            });
        }
        assert!(s.is_complete());
        s.rollback(cp);
        assert!(!s.is_complete());
        assert_eq!(s.placements().count(), 0);
        assert_eq!(s, ModuloSchedule::new("multi", 3, 2, 1));
    }

    #[test]
    fn slot_map_matches_cluster_slot_layout() {
        let machine = MachineConfig::two_cluster(1, 1);
        let pool = ResourcePool::new(&machine);
        let map = SlotMap::new(&pool, &machine);
        for cluster in machine.clusters() {
            let mut expected = 0usize;
            for kind in vliw_arch::FuKind::ALL {
                for fu in pool.fus(cluster, kind) {
                    assert_eq!(map.slot(fu), expected);
                    expected += 1;
                }
            }
            assert_eq!(expected, machine.cluster.issue_width());
        }
    }

    #[test]
    fn incomplete_schedule_reports_incomplete() {
        let s = ModuloSchedule::new("inc", 3, 2, 2);
        assert!(!s.is_complete());
        assert_eq!(s.stage_count(), 1);
        assert_eq!(s.cycles_for(10), (10 + 1 - 1) * 2);
    }

    #[test]
    fn error_display() {
        let e = ScheduleError::MaxIiExceeded {
            mii: 4,
            max_ii_tried: 64,
        };
        assert!(e.to_string().contains("MII=4"));
        let e2 = ScheduleError::InvalidGraph("bad".into());
        assert!(e2.to_string().contains("bad"));
    }

    #[test]
    fn summary_names_ii_mii_stage_count_and_comms() {
        let machine = MachineConfig::unified();
        let s = place_tiny(&machine);
        let expected = format!(
            "{}: II={} (MII={}), SC={}, comms={}",
            s.loop_name,
            s.ii(),
            s.mii,
            s.stage_count(),
            s.comms().len()
        );
        assert_eq!(s.summary(), expected);
    }
}
