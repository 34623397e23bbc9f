//! The shared modulo-scheduling engine.
//!
//! Every scheduler in this repository — the paper's single-pass BSA, the two-phase
//! Nystrom & Eichenberger baseline, the unified-machine SMS reference and the two
//! ablation schedulers — runs the *same* scheduling discipline: search initiation
//! intervals upward from MII, try the Swing Modulo Scheduling node order and then a
//! topological fallback, place one node at a time against a shared reservation table,
//! and restart at a larger II when a node cannot be placed.  What distinguishes the
//! algorithms is a single decision: *which cluster (and therefore which concrete
//! placement) each node gets*.
//!
//! This module factors that split into two pieces:
//!
//! * [`IiSearchDriver`] owns everything that is common — the MII→max-II retry loop,
//!   the ordering fallbacks, the scratch reuse (the reservation table is `reset`
//!   instead of reallocated, tentative placements are undone through the schedule's
//!   checkpoint/rollback transaction), register checking and the bookkeeping that
//!   feeds [`ScheduleDiagnostics`];
//! * [`ClusterPolicy`] encapsulates only the strategy difference: given the next node
//!   and an [`EngineView`] of the partial schedule, return the [`Trial`] to commit
//!   (policies evaluate candidates with [`EngineView::probe`], which leaves the
//!   schedule and the reservation table untouched regardless of outcome).
//!
//! A new cluster-assignment strategy is therefore a ~50-line policy, not a fork of the
//! ~700-line scheduler: implement [`ClusterPolicy::select_placement`] and hand it to
//! the driver.  See `DESIGN.md` for the architecture notes and the catalogue of
//! policies built on this engine.
//!
//! ## The register check
//!
//! No spill code is generated, so a schedule whose `MaxLive` exceeds a register file
//! is never accepted.  The driver has two entry points, and each fixes when the check
//! runs:
//!
//! * [`IiSearchDriver::schedule`] (the clustered schedulers) probes every tentative
//!   placement against the register files through the incremental
//!   [`PressureTracker`]; a placement that overflows is not a candidate;
//! * [`IiSearchDriver::schedule_unified`] (the unified-machine SMS reference) puts
//!   every node on cluster 0 with a [`FixedAssignmentPolicy`] and folds each
//!   completed attempt into the tracker once; an overflow fails the attempt.

use crate::comm::{allocate_uncovered_comms, CommAllocation, ProbeComms};
use crate::fuel::{FuelBudget, FuelMeter, FuelSpent, FuelStop};
use crate::max_ii;
use crate::mrt::ModuloReservationTable;
use crate::ordering::{self, NodeOrders};
use crate::pressure::PressureTracker;
use crate::schedule::{CommPlacement, ModuloSchedule, PlacedOp, ScheduleCheckpoint, ScheduleError};
use crate::slots::{early_start, late_start, SlotScan};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use vliw_arch::{MachineConfig, ResourceIndex, ResourceKind, ResourcePool};
use vliw_ddg::{missing_fu_kind, rec_mii, res_mii, DepGraph, GraphAnalysis, NodeId};

/// A fully evaluated candidate placement of one node on one cluster, produced by
/// [`EngineView::probe`] and committed by the driver when the policy selects it.
///
/// A trial is feasible on every count — functional unit, buses and register files
/// — but carries no register-pressure figure: the probe checks that the register
/// files fit and computes no `MaxLive`.  A policy that ranks candidates by
/// pressure asks [`EngineView::max_live`] for the trials it compares.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The node being placed.
    pub node: NodeId,
    /// The cluster the node would execute in.
    pub cluster: usize,
    /// The issue cycle.
    pub cycle: i64,
    /// The functional-unit row found free at `cycle`.
    pub fu: ResourceIndex,
    /// The bus transfers this placement needs (already proven allocatable).
    pub comms: Vec<CommPlacement>,
}

/// What [`EngineView::probe`] learned about one (node, cluster) combination.
///
/// Beyond the feasible placement itself, the probe reports *why* it stopped — the
/// cluster schedulers interpret the flags differently when accounting bus pressure
/// (BSA counts a cluster as bus-blocked only when the whole cycle scan failed with a
/// bus saturation; N&E counts every saturated cycle, even for nodes that eventually
/// place), so the translation into [`EngineView::record_bus_failure`] is left to the
/// policy.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The feasible placement, if any cycle of the scan admitted one.
    pub trial: Option<Trial>,
    /// Some probed cycle had a free functional unit but no bus slot for the required
    /// communications — the signature of a bus-limited loop.
    pub saw_bus_block: bool,
    /// The scan stopped because the register file would overflow at the first
    /// otherwise-feasible cycle.
    pub register_blocked: bool,
}

/// The engine's view of one in-progress scheduling attempt, handed to
/// [`ClusterPolicy::select_placement`].
///
/// The view exposes read access to the partial schedule and the bookkeeping a policy
/// needs (the per-node cluster assignment so far), plus two queries that leave
/// every observable state as they found it: the [`EngineView::probe`] primitive
/// that evaluates a candidate placement, and [`EngineView::max_live`], the
/// register pressure of a probed candidate, which a probe does not compute.
pub struct EngineView<'a> {
    graph: &'a DepGraph,
    /// The graph analysis of the current II (the ASAP default start).
    analysis: &'a GraphAnalysis,
    machine: &'a MachineConfig,
    pool: &'a ResourcePool,
    sched: &'a mut ModuloSchedule,
    mrt: &'a mut ModuloReservationTable,
    assignment: &'a [Option<usize>],
    fuel: &'a mut FuelMeter,
    tracker: &'a mut PressureTracker,
    comm_scratch: &'a mut ProbeComms,
    ii: u32,
    per_placement_registers: bool,
    bus_failed: bool,
    register_failed: bool,
    rogue_cluster: Option<usize>,
}

impl<'a> EngineView<'a> {
    /// The dependence graph being scheduled.
    pub fn graph(&self) -> &'a DepGraph {
        self.graph
    }

    /// The machine being scheduled for.
    pub fn machine(&self) -> &'a MachineConfig {
        self.machine
    }

    /// The candidate initiation interval of this attempt.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The partial schedule built so far (read-only; tentative state never leaks).
    pub fn schedule(&self) -> &ModuloSchedule {
        self.sched
    }

    /// Cluster each already-committed node was placed in (`None` = not yet placed),
    /// indexed by node.  This is the engine-maintained bookkeeping BSA's profit
    /// heuristic reads.
    pub fn assignment(&self) -> &'a [Option<usize>] {
        self.assignment
    }

    /// Whether `node` starts a new connected subgraph in the order (no direct
    /// neighbour already scheduled) — the trigger for BSA's default-cluster rotation.
    pub fn starts_new_subgraph(&self, node: NodeId) -> bool {
        ordering::starts_new_subgraph(self.graph, self.sched, node)
    }

    /// Record that the current node failed (at least partly) because the buses were
    /// saturated.  Feeds the `LimitedByBus` predicate of the selective unroller and
    /// the [`ScheduleDiagnostics`]; policies decide when a [`Probe`] counts (see
    /// [`Probe`]).  Register-pressure rejections need no counterpart hook: the
    /// engine records them inside [`EngineView::probe`] itself.
    pub fn record_bus_failure(&mut self) {
        self.bus_failed = true;
    }

    /// Evaluate placing `node` on `cluster`: scan the candidate cycles for a free
    /// functional unit whose communications fit on the buses and (under
    /// [`IiSearchDriver::schedule`]'s per-placement register check) whose lifetimes
    /// fit the register files.
    ///
    /// The reservation table *and the schedule* are left unchanged regardless of
    /// outcome — tentative state is applied in place and undone through the
    /// checkpoint/rollback transaction, never by cloning the schedule.  A `cluster`
    /// outside the machine is infeasible, and the driver fails the search with
    /// [`ScheduleError::RoguePolicy`].
    ///
    /// A probe answers feasibility only: the `MaxLive` of a candidate is computed
    /// on request by [`EngineView::max_live`].
    pub fn probe(&mut self, node: NodeId, cluster: usize) -> Probe {
        // Rogue clusters are refused before any table row is indexed.  Fuel gate:
        // past the probe budget every probe reports infeasible, which fails the
        // attempt; the driver then surfaces `BudgetExhausted`.
        let refused = if cluster >= self.machine.n_clusters {
            self.rogue_cluster.get_or_insert(cluster);
            true
        } else {
            !self.fuel.spend_probe()
        };
        if refused {
            return Probe {
                trial: None,
                saw_bus_block: false,
                register_blocked: false,
            };
        }
        // Communication requirements are analysed once per probe; each scanned
        // cycle only shifts the affine window bounds (see `ProbeComms`).  The
        // buffers are moved out for the duration of the scan so the probe body
        // can borrow the rest of the view mutably.
        let mut comm_probe = std::mem::take(self.comm_scratch);
        comm_probe.collect(self.graph, self.sched, node, cluster);
        // Likewise the register-pressure affected set is fixed for the whole
        // probe, and for the probes of the node's other clusters — the tracker
        // collects it once instead of once per scanned cycle.
        if self.per_placement_registers {
            self.tracker.prepare_probe(self.graph, self.sched, node);
        }
        let out = self.probe_with(node, cluster, &mut comm_probe);
        *self.comm_scratch = comm_probe;
        out
    }

    fn probe_with(&mut self, node: NodeId, cluster: usize, comm_probe: &mut ProbeComms) -> Probe {
        let machine = self.machine;
        let bus_latency = machine.buses.latency;
        let kind = self.graph.node(node).class.fu_kind();
        let early = early_start(self.graph, self.sched, node, self.ii, cluster, bus_latency);
        let late = late_start(self.graph, self.sched, node, self.ii, cluster, bus_latency);
        let default_start = self.analysis.asap(node);
        let scan = SlotScan::new(early, late, self.ii, default_start);

        let mut saw_bus_block = false;
        for cycle in scan {
            let Some(fu) = self.mrt.find_free(self.pool.fus(cluster, kind), cycle) else {
                continue;
            };
            let comms = if comm_probe.is_empty() {
                // No placed value neighbour on another cluster: the placement needs
                // no transfer at any cycle, so the bus allocator is skipped.
                debug_assert!(
                    crate::comm::required_comms(self.graph, self.sched, node, cluster, cycle)
                        .is_empty(),
                    "ProbeComms found no transfer placing {node} on cluster {cluster} at \
                     cycle {cycle}, required_comms did"
                );
                Vec::new()
            } else {
                // Tentatively reserve the FU so the bus allocator sees a consistent
                // table; the bus reservations of a satisfied allocation are released
                // once the register check is done.
                let fu_reservation = self.mrt.reserve(fu, cycle);
                let requests = comm_probe.requests_at(cycle);
                #[cfg(debug_assertions)]
                {
                    // The affine materialization must equal the from-scratch
                    // derivation minus the requests a committed transfer covers.
                    let reference: Vec<_> =
                        crate::comm::required_comms(self.graph, self.sched, node, cluster, cycle)
                            .into_iter()
                            .filter(|r| {
                                !self.sched.comms().iter().any(|c| {
                                    c.src_node == r.src_node
                                        && c.to_cluster == r.to_cluster
                                        && c.start_cycle >= r.ready
                                        && c.start_cycle + c.duration as i64 <= r.deadline
                                })
                            })
                            .collect();
                    debug_assert_eq!(
                        requests,
                        &reference[..],
                        "ProbeComms diverged from required_comms placing {node} on \
                         cluster {cluster} at cycle {cycle}"
                    );
                }
                let allocation = allocate_uncovered_comms(requests, self.pool, self.mrt, machine);
                self.mrt.release(fu_reservation);
                match allocation {
                    CommAllocation::Satisfied(comms) => comms,
                    CommAllocation::BusUnavailable => {
                        saw_bus_block = true;
                        continue;
                    }
                    CommAllocation::WindowTooSmall => continue,
                }
            };
            // Register-pressure check on the schedule itself: apply the trial,
            // evaluate, roll back to the checkpoint.
            let fits = !self.per_placement_registers || {
                let cp = self.apply(node, cluster, cycle, fu, &comms);
                let fits = self.tracker.evaluate(self.graph, self.sched, node);
                debug_assert_eq!(
                    fits,
                    PressureTracker::of_schedule(self.graph, self.sched, machine).fits(),
                    "incremental pressure diverged from the from-scratch fold placing \
                     {node} on cluster {cluster} at cycle {cycle}"
                );
                self.sched.rollback(cp);
                fits
            };
            // Release the tentative bus reservations: the driver re-applies the
            // chosen trial once the policy has decided.
            for c in &comms {
                self.mrt.unreserve_for(c.bus, c.start_cycle, c.duration);
            }
            if !fits {
                // The register file would overflow at this cycle; later cycles
                // (longer lifetimes) will not help, so this cluster is out.
                self.register_failed = true;
                return Probe {
                    trial: None,
                    saw_bus_block,
                    register_blocked: true,
                };
            }
            return Probe {
                trial: Some(Trial {
                    node,
                    cluster,
                    cycle,
                    fu,
                    comms,
                }),
                saw_bus_block,
                register_blocked: false,
            };
        }
        Probe {
            trial: None,
            saw_bus_block,
            register_blocked: false,
        }
    }

    /// Apply a tentative placement and its transfers to the schedule; the caller
    /// rolls back to the returned checkpoint.
    fn apply(
        &mut self,
        node: NodeId,
        cluster: usize,
        cycle: i64,
        fu: ResourceIndex,
        comms: &[CommPlacement],
    ) -> ScheduleCheckpoint {
        let cp = self.sched.checkpoint();
        for c in comms {
            self.sched.add_comm(*c);
        }
        self.sched.place(PlacedOp {
            node,
            cycle,
            cluster,
            fu,
        });
        cp
    }

    /// `MaxLive` of `trial`'s cluster with `trial` applied — the register
    /// requirement Figure 5's last tie-break (step 9) compares.  Computed on
    /// request, since so few candidates reach that step: apply the trial to the
    /// schedule, evaluate, roll back.  `trial` must be a [`EngineView::probe`]
    /// result for the node being placed.  Reads 0 when the register check is
    /// deferred to the whole schedule ([`IiSearchDriver::schedule_unified`]).
    pub fn max_live(&mut self, trial: &Trial) -> u32 {
        if !self.per_placement_registers {
            return 0;
        }
        let Trial {
            node,
            cluster,
            cycle,
            fu,
            ref comms,
        } = *trial;
        let cp = self.apply(node, cluster, cycle, fu, comms);
        let max_live = self
            .tracker
            .trial_max_live(self.graph, self.sched, node, cluster);
        debug_assert_eq!(
            max_live,
            PressureTracker::of_schedule(self.graph, self.sched, self.machine).max_live()[cluster],
            "incremental MaxLive diverged from the from-scratch fold placing {node} on \
             cluster {cluster} at cycle {cycle}"
        );
        self.sched.rollback(cp);
        max_live
    }
}

/// A cluster-assignment strategy plugged into the [`IiSearchDriver`].
///
/// The engine calls [`ClusterPolicy::select_placement`] once per node (in scheduling
/// order); the policy evaluates candidates through the [`EngineView`] and returns the
/// trial to commit, or `None` to fail the attempt (the driver then falls back to the
/// next ordering or the next II).
pub trait ClusterPolicy {
    /// Called once per candidate II, before the ordering attempts at that II.
    /// Two-phase policies recompute their cluster assignment here.
    fn begin_ii(&mut self, graph: &DepGraph, machine: &MachineConfig, ii: u32) {
        let _ = (graph, machine, ii);
    }

    /// Called at the start of every scheduling attempt (once per ordering fallback);
    /// per-attempt state such as BSA's default-cluster rotation resets here.
    fn begin_attempt(&mut self, graph: &DepGraph, machine: &MachineConfig, ii: u32) {
        let _ = (graph, machine, ii);
    }

    /// Choose the placement of `node`, or `None` when no cluster can take it at this
    /// II (the attempt fails and the II search continues).
    fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial>;

    /// A copy of this policy for a helper thread of the pipelined II search (see
    /// [`IiSearchDriver`]), or `None` — the default — to keep every search with
    /// this policy sequential.
    ///
    /// **Contract:** a policy may fork only if [`ClusterPolicy::begin_ii`] and
    /// [`ClusterPolicy::begin_attempt`] reset every piece of state that
    /// [`ClusterPolicy::select_placement`] reads, so that an attempt depends only on
    /// (graph, machine, II, node order) and never on the attempts the instance ran
    /// before.  The pipelined search runs different IIs on different copies, out of
    /// order, and folds their outcomes in II order; this contract is what makes its
    /// result byte-identical to the sequential search's.  A policy that keeps state
    /// across attempts (a log, a learned bias) must not fork.
    fn fork(&self) -> Option<Box<dyn ClusterPolicy + Send>> {
        None
    }
}

/// A policy that schedules every node on a pre-computed cluster (the building block
/// of the two-phase baseline, the ablation schedulers and the unified-machine
/// reference).
///
/// N&E-style bus accounting: every bus-saturated probe cycle counts as a bus failure,
/// even when the node eventually places at a later cycle.  A node the assignment
/// does not cover, or a cluster outside the machine, fails the search with
/// [`ScheduleError::RoguePolicy`].
#[derive(Debug, Clone)]
pub struct FixedAssignmentPolicy {
    assignment: Vec<usize>,
}

impl FixedAssignmentPolicy {
    /// A policy forcing node `i` onto `assignment[i]`.
    pub fn new(assignment: Vec<usize>) -> Self {
        Self { assignment }
    }

    /// Replace the assignment (used by policies that recompute per II).
    pub fn set_assignment(&mut self, assignment: Vec<usize>) {
        self.assignment = assignment;
    }
}

impl ClusterPolicy for FixedAssignmentPolicy {
    fn fork(&self) -> Option<Box<dyn ClusterPolicy + Send>> {
        // The assignment is fixed and the policy keeps no per-attempt state.
        Some(Box::new(self.clone()))
    }

    fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
        // A node past the end of the assignment probes no real cluster, which the
        // engine refuses like any other out-of-range cluster.
        let cluster = self.assignment.get(node.index()).copied();
        let probe = view.probe(node, cluster.unwrap_or(usize::MAX));
        if probe.saw_bus_block {
            view.record_bus_failure();
        }
        probe.trial
    }
}

/// One step of the II search, recorded in [`ScheduleDiagnostics::ii_trajectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IiStep {
    /// The initiation interval attempted.
    pub ii: u32,
    /// How many node orderings were tried at this II (the SMS order, then the
    /// topological fallback).
    pub orders_tried: u32,
    /// A failure at this II involved a bus-saturated placement.
    pub bus_blocked: bool,
    /// A failure at this II involved a register-file overflow.
    pub register_blocked: bool,
}

/// The resource that ultimately bounded the initiation interval of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LimitingResource {
    /// The schedule reached MII and MII was set by a dependence recurrence.
    Recurrence,
    /// The schedule reached MII and MII was set by functional-unit counts, or the II
    /// had to grow for reasons other than buses or registers (no free slot in any
    /// scan window).
    FunctionalUnits,
    /// The II had to grow beyond MII because the communication buses were saturated —
    /// the `LimitedByBus` predicate of the selective-unrolling algorithm (Figure 6).
    Bus,
    /// The II had to grow beyond MII because a register file overflowed.
    Registers,
}

impl LimitingResource {
    /// Stable lower-case label, used by coverage counters and reports (the
    /// `vliw-verify` campaigns key their policy × limiting-resource histograms on
    /// it).
    pub fn label(self) -> &'static str {
        match self {
            LimitingResource::Recurrence => "recurrence",
            LimitingResource::FunctionalUnits => "fu",
            LimitingResource::Bus => "bus",
            LimitingResource::Registers => "registers",
        }
    }
}

impl std::fmt::Display for LimitingResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Structured account of how a schedule came to be, produced by the
/// [`IiSearchDriver`] alongside every [`ModuloSchedule`] and carried through
/// `ClusterSchedule` and the experiment results.
/// The optional fields are omitted when `None` (older reports still read back).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleDiagnostics {
    /// The achieved initiation interval.
    pub ii: u32,
    /// The minimum II (`max(ResMII, RecMII)`).
    pub mii: u32,
    /// The resource-constrained component of MII.
    pub res_mii: u32,
    /// The recurrence-constrained component of MII.
    pub rec_mii: u32,
    /// What bounded the II (see [`LimitingResource`]).
    pub limiting: LimitingResource,
    /// Every II with at least one failed ordering attempt, in order (empty when the
    /// loop scheduled at MII on the first ordering).  The last entry may carry the
    /// *final* II when its SMS ordering failed and the topological fallback
    /// succeeded.
    pub ii_trajectory: Vec<IiStep>,
    /// Inter-cluster value transfers in the final schedule.
    pub n_comms: usize,
    /// Per-cluster `MaxLive` register pressure of the final schedule.
    pub max_live_per_cluster: Vec<u32>,
    /// Fuel consumed by the search — present only when the driver ran under a
    /// [`FuelBudget`] (unbudgeted runs serialize byte-identically to older reports).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fuel: Option<FuelSpent>,
    /// The degradation-ladder rung that produced this schedule — present only when a
    /// resilient scheduler set it (plain engine runs leave it `None`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rung: Option<String>,
}

impl ScheduleDiagnostics {
    /// Whether the II was raised above MII because of bus saturation — exactly the
    /// predicate the selective unroller keys on.
    pub fn limited_by_bus(&self) -> bool {
        matches!(self.limiting, LimitingResource::Bus)
    }

    /// Total scheduling attempts (orderings tried across all IIs, including the
    /// successful one).
    pub fn attempts(&self) -> u32 {
        self.ii_trajectory
            .iter()
            .map(|s| s.orders_tried)
            .sum::<u32>()
            + 1
    }
}

/// A schedule together with the engine's account of how it was found.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledLoop {
    /// The modulo schedule.
    pub schedule: ModuloSchedule,
    /// How the II search went and what limited it.
    pub diagnostics: ScheduleDiagnostics,
}

/// Why one scheduling attempt failed (internal to the driver).
struct AttemptFailure {
    bus: bool,
    register: bool,
}

/// Outcome of one failed attempt: a retryable failure (next ordering / next II), a
/// fatal error that must abort the whole search, or an attempt the pipelined search
/// abandoned because a lower II already ended it (internal to the driver).
enum AttemptError {
    Failed(AttemptFailure),
    Fatal(ScheduleError),
    Abandoned,
}

/// What one II step ([`IiSearchDriver::ii_step`]) came to (internal to the driver).
enum StepOutcome {
    /// An ordering scheduled the loop: the normalized schedule, its per-cluster
    /// `MaxLive`, and the step's record (`orders_tried` counts the orderings that
    /// failed before the successful one).
    Scheduled(ModuloSchedule, Vec<u32>, IiStep),
    /// Every ordering failed at this II.
    Failed(IiStep),
    /// An error that ends the whole search.
    Fatal(ScheduleError),
    /// The fuel meter stopped, or the pipelined search abandoned the step because
    /// a lower II already ended the search.
    Stopped,
}

/// Reusable state of the II search: the reservation table survives `reset`, the
/// per-node assignment keeps its allocation across retries, and the node orders
/// of the last step are reused while the graph analysis stays the same (one set
/// per thread on the pipelined path).
struct EngineScratch {
    mrt: ModuloReservationTable,
    assignment: Vec<Option<usize>>,
    tracker: PressureTracker,
    comm_scratch: ProbeComms,
    orders: NodeOrders,
}

impl EngineScratch {
    fn new(inputs: &StepInputs<'_>) -> Self {
        Self {
            mrt: ModuloReservationTable::new(&inputs.pool, inputs.mii.max(1)),
            assignment: vec![None; inputs.graph.n_nodes()],
            tracker: PressureTracker::new(),
            comm_scratch: ProbeComms::default(),
            orders: NodeOrders::default(),
        }
    }
}

/// The loop-invariant inputs of one search, shared by all of its II steps (and by
/// every thread of the pipelined path).
struct StepInputs<'g> {
    graph: &'g DepGraph,
    pool: ResourcePool,
    /// The SMS node-set partition depends only on the graph structure, never on
    /// the candidate II: it is computed once for the whole search.
    node_sets: Vec<Vec<NodeId>>,
    mii: u32,
    /// When the register check runs (see [`IiSearchDriver::schedule_unified`]).
    per_placement: bool,
}

/// The in-order fold of II-step outcomes into the search's result.
struct Fold {
    res: u32,
    rec: u32,
    mii: u32,
    /// The last II the search tries (`max_ii(mii)`).
    limit: u32,
    /// The II whose outcome is folded next.
    next: u32,
    metered: bool,
    /// Every II with at least one failed ordering, in II order.
    trajectory: Vec<IiStep>,
}

impl Fold {
    /// Fold the outcome of the step at II `self.next`; `Break` carries the
    /// search's result.
    fn fold(
        &mut self,
        outcome: StepOutcome,
        meter: &FuelMeter,
    ) -> ControlFlow<Result<ScheduledLoop, ScheduleError>> {
        let ii = self.next;
        match outcome {
            StepOutcome::Scheduled(schedule, max_live_per_cluster, step) => {
                // A failed ordering at the *successful* II (the SMS order failed,
                // the topological fallback succeeded) still belongs to the
                // trajectory.
                if step.orders_tried > 0 {
                    self.trajectory.push(step);
                }
                let fuel = self.metered.then(|| meter.spent());
                let diagnostics = self.diagnostics(&schedule, max_live_per_cluster, fuel);
                ControlFlow::Break(Ok(ScheduledLoop {
                    schedule,
                    diagnostics,
                }))
            }
            StepOutcome::Failed(step) => {
                self.trajectory.push(step);
                if ii == self.limit {
                    return ControlFlow::Break(Err(ScheduleError::MaxIiExceeded {
                        mii: self.mii,
                        max_ii_tried: self.limit,
                    }));
                }
                self.next += 1;
                ControlFlow::Continue(())
            }
            StepOutcome::Fatal(e) => ControlFlow::Break(Err(e)),
            StepOutcome::Stopped => {
                ControlFlow::Break(Err(IiSearchDriver::fuel_error(meter, self.mii, ii)))
            }
        }
    }

    /// Build the diagnostics of a successful schedule.  The paper's `LimitedByBus`
    /// predicate is "some failed attempt saw bus saturation, and II > MII".
    fn diagnostics(
        &mut self,
        sched: &ModuloSchedule,
        max_live_per_cluster: Vec<u32>,
        fuel: Option<FuelSpent>,
    ) -> ScheduleDiagnostics {
        let (res, rec, mii) = (self.res, self.rec, self.mii);
        let limiting = if sched.ii() == mii {
            if rec >= res {
                LimitingResource::Recurrence
            } else {
                LimitingResource::FunctionalUnits
            }
        } else if self.trajectory.iter().any(|s| s.bus_blocked) {
            LimitingResource::Bus
        } else if self.trajectory.iter().any(|s| s.register_blocked) {
            LimitingResource::Registers
        } else {
            LimitingResource::FunctionalUnits
        };
        ScheduleDiagnostics {
            ii: sched.ii(),
            mii,
            res_mii: res,
            rec_mii: rec,
            limiting,
            ii_trajectory: std::mem::take(&mut self.trajectory),
            n_comms: sched.comms().len(),
            max_live_per_cluster,
            fuel,
            rung: None,
        }
    }
}

/// Probes the folded steps of an unmetered search must have spent before it may
/// switch to the pipelined path, about a millisecond of search.  Starting and
/// joining the helpers costs tens of microseconds and steals time from the
/// calling thread when the other cores are busy, so the gate keeps that cost a
/// few percent of the time the search has already spent: short searches, the
/// bulk of all searches, stay sequential, and the long failing ones pipeline.  A
/// probe count, not a clock, so whether a search switches is deterministic.
const PIPELINE_GATE_PROBES: u64 = 4096;

/// Stops the pipelined search's helpers when the folding thread leaves the scope,
/// by return or by unwind: every step still running is then above the cutoff.
struct StopHelpers<'a>(&'a AtomicU32);

impl Drop for StopHelpers<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// The shared II-search driver (see module docs).
///
/// Borrow a machine, then [`IiSearchDriver::schedule`] any graph with any
/// [`ClusterPolicy`].
///
/// # Incremental II search
///
/// The search reuses work across II retries and placements wherever the result is
/// provably unchanged:
///
/// * the SMS node-set partition is computed once per loop (it depends only on
///   graph structure);
/// * the per-II graph analysis is shared between the SMS ordering and its
///   topological fallback (built only when an SMS attempt actually fails), and
///   both orders are reused from the previous step while the analysis's ASAP,
///   ALAP and critical path stay the same — which, as II grows, they soon do
///   (ASAP never rises with II and is bounded below by the distance-0 analysis);
/// * the per-placement register check is answered by an incremental
///   [`PressureTracker`] that moves only the affected producers' rows, by row
///   deltas, instead of rebuilding every lifetime per probe;
/// * a probe answers `fits` only: a candidate's `MaxLive` is computed on request
///   ([`EngineView::max_live`]) by the one tie-break that reads it;
/// * a probe with no transfer to make (no placed value neighbour on another
///   cluster) skips the bus allocator.
///
/// # Pipelined II search
///
/// Each II step is a pure function of (graph, machine, II, policy) — the policy's
/// state is reset by [`ClusterPolicy::begin_ii`] and
/// [`ClusterPolicy::begin_attempt`] — so the steps after the current one can run
/// ahead on idle cores.  Once the steps folded so far have spent 4096 probes (a
/// count, not a clock, so the switch is deterministic), an unmetered search that
/// is not itself on a rayon pool worker, with more than one rayon thread and a
/// policy that [forks](ClusterPolicy::fork), starts `current_num_threads() − 1`
/// helper threads.  Every thread claims the next unclaimed II and runs its step
/// with its own scratch; the calling thread folds the outcomes strictly in II
/// order.  A step that ends the search lowers a shared cutoff, and steps above it
/// are abandoned.  Metered searches (a [`FuelBudget`]) never leave the sequential
/// path, so their fuel receipts count exactly the steps a sequential search makes.
///
/// **Equivalence guarantee:** all of this is a pure optimization — schedules,
/// [`ScheduleDiagnostics`] (including the II trajectory) and fuel receipts are those
/// of the from-scratch sequential search, at every thread count.  Debug builds
/// cross-check every incremental pressure answer against the tracker's from-scratch
/// fold ([`PressureTracker::of_schedule`]) and every reused node order against a
/// fresh one;
/// `crates/verify/tests/incremental_equiv.rs` certifies the schedules of all five
/// policies on random machines against the independent `vliw_lint` analyses; and
/// `tests/pipelined_search.rs` requires byte-identical schedules of all five
/// policies at `RAYON_NUM_THREADS` 1, 2 and 4 on loops that cross the pipelining
/// gate.
///
/// The register constraint is part of the model, never an option: a placement that
/// overflows a register file is not a candidate.  A machine without a practical
/// register limit is expressed as a large register file.
#[derive(Debug, Clone)]
pub struct IiSearchDriver<'m> {
    machine: &'m MachineConfig,
    fuel: Option<FuelBudget>,
    /// Threads the pipelined path may use; `None` asks rayon.  Only unit tests pin
    /// it, so that they exercise the pipelined path on any host.
    threads: Option<usize>,
}

impl<'m> IiSearchDriver<'m> {
    /// A driver for `machine`.
    pub fn new(machine: &'m MachineConfig) -> Self {
        Self {
            machine,
            fuel: None,
            threads: None,
        }
    }

    /// Run the search under a deterministic fuel budget (see
    /// [`crate::fuel::FuelBudget`]).  Budgeted runs record their [`FuelSpent`] in
    /// [`ScheduleDiagnostics::fuel`] and fail with
    /// [`ScheduleError::BudgetExhausted`] when the budget runs out.
    pub fn with_fuel(mut self, budget: FuelBudget) -> Self {
        self.fuel = Some(budget);
        self
    }

    /// Pin the pipelined path's thread count (tests only; see `threads`).
    #[cfg(test)]
    pub(crate) fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Reject machines that cannot execute `graph` at all, *before* any search work:
    /// a machine with no clusters, or with zero functional units of a kind the graph
    /// uses.  (Full [`MachineConfig::validate`] is deliberately not required — e.g.
    /// the Figure-7 machine legitimately has no FP units because its loop is
    /// all-integer.)
    fn check_machine(&self, graph: &DepGraph) -> Result<(), ScheduleError> {
        if self.machine.n_clusters == 0 {
            return Err(ScheduleError::InvalidMachine(
                "machine has no clusters".to_string(),
            ));
        }
        if let Some(kind) = missing_fu_kind(graph, self.machine) {
            return Err(ScheduleError::InvalidMachine(format!(
                "graph uses {kind} units but the machine has none"
            )));
        }
        Ok(())
    }

    /// Modulo schedule `graph` under `policy`: search initiation intervals upward
    /// from MII, trying the SMS node order and then the topological fallback at each
    /// II, and restarting whenever a node cannot be placed.
    ///
    /// Every tentative placement is checked against the register files: a
    /// placement whose lifetimes overflow one is rejected and the cluster is
    /// abandoned for this node (later cycles only lengthen lifetimes).
    pub fn schedule<P: ClusterPolicy + ?Sized>(
        &self,
        graph: &DepGraph,
        policy: &mut P,
    ) -> Result<ScheduledLoop, ScheduleError> {
        self.search(graph, policy, true)
    }

    /// The unified-machine SMS reference: modulo schedule `graph` with every node
    /// on cluster 0 (so no communication is ever needed) and check `MaxLive` once
    /// per completed attempt, not per placement — an overflow fails the whole
    /// attempt and the search moves on.  On a clustered machine the other clusters
    /// simply stay empty.
    pub fn schedule_unified(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
        let mut all_on_zero = FixedAssignmentPolicy::new(vec![0; graph.n_nodes()]);
        self.search(graph, &mut all_on_zero, false)
    }

    /// The II search behind both entry points; `per_placement` selects when the
    /// register check runs.  Sequentially: compute the next II step, fold it; past
    /// the gate, possibly pipelined (see the type docs).
    fn search<P: ClusterPolicy + ?Sized>(
        &self,
        graph: &DepGraph,
        policy: &mut P,
        per_placement: bool,
    ) -> Result<ScheduledLoop, ScheduleError> {
        graph.validate().map_err(ScheduleError::InvalidGraph)?;
        self.check_machine(graph)?;
        let res = res_mii(graph, self.machine);
        let rec = rec_mii(graph);
        // `mii()` is `max(res_mii, rec_mii)`; computing the components once serves
        // both the search and the diagnostics.
        let mii = res.max(rec);
        let inputs = StepInputs {
            graph,
            pool: ResourcePool::new(self.machine),
            node_sets: ordering::node_sets(graph),
            mii,
            per_placement,
        };
        let mut scratch = EngineScratch::new(&inputs);
        // The meter is always threaded (unlimited when no budget was set); only a
        // budgeted run reports its counters in the diagnostics, so unbudgeted runs
        // keep their serialized form byte-identical.
        let mut meter = FuelMeter::new(self.fuel.unwrap_or_default());
        let mut fold = Fold {
            res,
            rec,
            mii,
            limit: max_ii(mii),
            next: mii,
            metered: self.fuel.is_some(),
            trajectory: Vec::new(),
        };
        let mut may_pipeline = self.fuel.is_none();
        loop {
            let outcome = self.ii_step(&inputs, fold.next, policy, &mut scratch, &mut meter, None);
            if let ControlFlow::Break(result) = fold.fold(outcome, &meter) {
                return result;
            }
            if may_pipeline && meter.spent().probes >= PIPELINE_GATE_PROBES {
                may_pipeline = false;
                if let Some(helpers) = self.helper_policies(&*policy, fold.limit - fold.next + 1) {
                    return self.search_pipelined(
                        &inputs,
                        fold,
                        policy,
                        &mut scratch,
                        &mut meter,
                        helpers,
                    );
                }
            }
        }
    }

    /// The policies of the pipelined path's helper threads (at most `remaining`),
    /// or `None` when the search stays sequential: on a rayon pool worker (the pool
    /// already keeps every core busy), with a single thread, or with a policy that
    /// does not fork.
    fn helper_policies<P: ClusterPolicy + ?Sized>(
        &self,
        policy: &P,
        remaining: u32,
    ) -> Option<Vec<Box<dyn ClusterPolicy + Send>>> {
        if rayon::current_thread_index().is_some() {
            return None;
        }
        let threads = self.threads.unwrap_or_else(rayon::current_num_threads);
        let helpers = (threads.saturating_sub(1)).min(remaining as usize);
        if helpers == 0 {
            return None;
        }
        (0..helpers).map(|_| policy.fork()).collect()
    }

    /// The pipelined II search from `fold.next` on (see the type docs): the
    /// calling thread and one thread per helper policy claim IIs from a shared
    /// counter, and the calling thread folds their outcomes strictly in II order.
    fn search_pipelined<P: ClusterPolicy + ?Sized>(
        &self,
        inputs: &StepInputs<'_>,
        mut fold: Fold,
        policy: &mut P,
        scratch: &mut EngineScratch,
        meter: &mut FuelMeter,
        helpers: Vec<Box<dyn ClusterPolicy + Send>>,
    ) -> Result<ScheduledLoop, ScheduleError> {
        let limit = fold.limit;
        let next = AtomicU32::new(fold.next);
        // The lowest II whose step ended the search; steps above it are abandoned.
        let cutoff = AtomicU32::new(u32::MAX);
        let claim = || {
            let ii = next.fetch_add(1, Ordering::Relaxed);
            (ii <= limit && ii <= cutoff.load(Ordering::Relaxed)).then_some(ii)
        };
        std::thread::scope(|scope| {
            let _stop = StopHelpers(&cutoff);
            let (sender, outcomes) = mpsc::channel();
            for mut helper in helpers {
                let sender = sender.clone();
                let (claim, cutoff) = (&claim, &cutoff);
                scope.spawn(move || {
                    let mut scratch = EngineScratch::new(inputs);
                    let mut meter = FuelMeter::new(FuelBudget::unlimited());
                    while let Some(ii) = claim() {
                        let outcome = self.ii_step(
                            inputs,
                            ii,
                            &mut *helper,
                            &mut scratch,
                            &mut meter,
                            Some(cutoff),
                        );
                        if sender.send((ii, outcome)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(sender);
            let mut ready = BTreeMap::new();
            loop {
                if let Some(outcome) = ready.remove(&fold.next) {
                    if let ControlFlow::Break(result) = fold.fold(outcome, meter) {
                        return result;
                    }
                    continue;
                }
                ready.extend(outcomes.try_iter());
                if ready.contains_key(&fold.next) {
                    continue;
                }
                // The next outcome to fold is not in: run an unclaimed II meanwhile,
                // or wait for the helper that claimed it.  Every II at or below the
                // cutoff was claimed, and its claimant always reports it.
                let (ii, outcome) = match claim() {
                    Some(ii) => (
                        ii,
                        self.ii_step(inputs, ii, policy, scratch, meter, Some(&cutoff)),
                    ),
                    None => outcomes
                        .recv()
                        .expect("a helper exited without reporting its II step"),
                };
                ready.insert(ii, outcome);
            }
        })
    }

    /// The error for a stopped fuel meter (budget or deadline).
    fn fuel_error(meter: &FuelMeter, mii: u32, at_ii: u32) -> ScheduleError {
        match meter.stopped() {
            Some(FuelStop::DeadlineExpired) => ScheduleError::DeadlineExpired { at_ii },
            _ => ScheduleError::BudgetExhausted {
                mii,
                at_ii,
                spent: meter.spent(),
            },
        }
    }

    /// One II step: [`ClusterPolicy::begin_ii`], the SMS order, then the
    /// topological fallback.  On the pipelined path `cutoff` is the lowest II that
    /// ended the search so far: a step above it is abandoned, and a step that ends
    /// the search lowers it.
    fn ii_step<P: ClusterPolicy + ?Sized>(
        &self,
        inputs: &StepInputs<'_>,
        ii: u32,
        policy: &mut P,
        scratch: &mut EngineScratch,
        meter: &mut FuelMeter,
        cutoff: Option<&AtomicU32>,
    ) -> StepOutcome {
        let outcome = self.run_ii_step(inputs, ii, policy, scratch, meter, cutoff);
        let ends_search = matches!(outcome, StepOutcome::Scheduled(..) | StepOutcome::Fatal(_));
        if let Some(cutoff) = cutoff.filter(|_| ends_search) {
            cutoff.fetch_min(ii, Ordering::Relaxed);
        }
        outcome
    }

    fn run_ii_step<P: ClusterPolicy + ?Sized>(
        &self,
        inputs: &StepInputs<'_>,
        ii: u32,
        policy: &mut P,
        scratch: &mut EngineScratch,
        meter: &mut FuelMeter,
        cutoff: Option<&AtomicU32>,
    ) -> StepOutcome {
        let graph = inputs.graph;
        if !meter.spend_ii_step() {
            return StepOutcome::Stopped;
        }
        policy.begin_ii(graph, self.machine, ii);
        // The SMS order gives the best schedules; the topological fallback
        // guarantees progress on graphs where the SMS order sandwiches a node
        // between already-placed predecessors and successors.  Both orderings
        // share one graph analysis per II and are reused from the previous step
        // while that analysis does not change; the fallback order is built only
        // if an SMS attempt actually fails (`graph.validate()` already ruled out
        // the zero-distance cycles that could make it error).
        let analysis = GraphAnalysis::new(graph, ii);
        if let Err(e) = scratch.orders.refresh(graph, &inputs.node_sets, analysis) {
            return StepOutcome::Fatal(ScheduleError::DegenerateGraph(e));
        }
        let mut step = IiStep {
            ii,
            orders_tried: 0,
            bus_blocked: false,
            register_blocked: false,
        };
        for pass in 0..2 {
            if !meter.spend_attempt() {
                return StepOutcome::Stopped;
            }
            policy.begin_attempt(graph, self.machine, ii);
            let fallback = pass == 1;
            match self.try_schedule(inputs, fallback, scratch, policy, ii, meter, cutoff) {
                Ok(mut sched) => {
                    // Normalizing shifts every cycle by a multiple of II, so the
                    // committed pressure rows describe the final schedule too.
                    sched.normalize();
                    let max_live_per_cluster = scratch.tracker.max_live();
                    debug_assert_eq!(
                        max_live_per_cluster,
                        PressureTracker::of_schedule(graph, &sched, self.machine).max_live(),
                        "committed pressure diverged from the from-scratch fold"
                    );
                    return StepOutcome::Scheduled(sched, max_live_per_cluster, step);
                }
                Err(AttemptError::Fatal(e)) => return StepOutcome::Fatal(e),
                Err(AttemptError::Abandoned) => return StepOutcome::Stopped,
                Err(AttemptError::Failed(failure)) => {
                    step.orders_tried += 1;
                    step.bus_blocked |= failure.bus;
                    step.register_blocked |= failure.register;
                    // A probe budget that ran out mid-attempt made the failure
                    // above inevitable: stop the search here instead of letting
                    // every remaining II fail on refused probes.
                    if meter.stopped().is_some() {
                        return StepOutcome::Stopped;
                    }
                    if !fallback {
                        if let Err(e) = scratch.orders.build_topological(graph) {
                            return StepOutcome::Fatal(ScheduleError::DegenerateGraph(e));
                        }
                    }
                }
            }
        }
        StepOutcome::Failed(step)
    }

    /// Refuse to commit a trial the policy fabricated outside the machine: the
    /// engine's reservation table indexes rows by trial contents, so a malformed
    /// trial must become a typed error before it corrupts anything.
    fn validate_trial(
        &self,
        graph: &DepGraph,
        trial: &Trial,
        node: NodeId,
        pool: &ResourcePool,
    ) -> Result<(), ScheduleError> {
        if trial.node != node {
            return Err(ScheduleError::RoguePolicy(format!(
                "policy committed node {} while scheduling node {node}",
                trial.node
            )));
        }
        if trial.cluster >= self.machine.n_clusters {
            return Err(ScheduleError::RoguePolicy(format!(
                "trial names cluster {} of a {}-cluster machine",
                trial.cluster, self.machine.n_clusters
            )));
        }
        let fu_ok = trial.fu.0 < pool.len()
            && matches!(pool.kind(trial.fu), ResourceKind::Fu { cluster, .. } if cluster == trial.cluster);
        if !fu_ok {
            return Err(ScheduleError::RoguePolicy(format!(
                "trial reserves resource row {} which is not a functional unit of cluster {}",
                trial.fu.0, trial.cluster
            )));
        }
        for comm in &trial.comms {
            let bus_ok =
                comm.bus.0 < pool.len() && matches!(pool.kind(comm.bus), ResourceKind::Bus { .. });
            if !bus_ok
                || comm.from_cluster >= self.machine.n_clusters
                || comm.to_cluster >= self.machine.n_clusters
            {
                return Err(ScheduleError::RoguePolicy(format!(
                    "trial carries a malformed communication (bus row {}, clusters {}->{})",
                    comm.bus.0, comm.from_cluster, comm.to_cluster
                )));
            }
            // Every transfer a placement needs carries a value out of `node` or into
            // it; the register tracker's commit relies on that to stay exact.
            let feeds_node = comm.src_node == node
                || graph
                    .in_edges(node)
                    .any(|e| e.kind.carries_value() && e.src == comm.src_node);
            if !feeds_node {
                return Err(ScheduleError::RoguePolicy(format!(
                    "trial carries a transfer of node {}'s value, which placing node {node} \
                     neither produces nor reads",
                    comm.src_node
                )));
            }
        }
        Ok(())
    }

    /// One scheduling attempt at a fixed II with the SMS order, or with the
    /// topological order when `fallback`.
    #[allow(clippy::too_many_arguments)]
    fn try_schedule<P: ClusterPolicy + ?Sized>(
        &self,
        inputs: &StepInputs<'_>,
        fallback: bool,
        scratch: &mut EngineScratch,
        policy: &mut P,
        ii: u32,
        meter: &mut FuelMeter,
        cutoff: Option<&AtomicU32>,
    ) -> Result<ModuloSchedule, AttemptError> {
        let StepInputs {
            graph,
            ref pool,
            mii,
            per_placement,
            ..
        } = *inputs;
        let mut sched = ModuloSchedule::new(&graph.name, graph.n_nodes(), ii, mii);
        scratch.mrt.reset(ii);
        scratch.assignment.fill(None);
        scratch.tracker.reset(self.machine, graph.n_nodes(), ii);
        let EngineScratch {
            mrt,
            assignment,
            tracker,
            comm_scratch,
            orders,
        } = scratch;
        let analysis = orders.analysis();
        let order = if fallback {
            orders.topological()
        } else {
            orders.sms()
        };
        let mut bus_failed = false;
        let mut register_failed = false;

        for &node in order {
            if cutoff.is_some_and(|c| ii > c.load(Ordering::Relaxed)) {
                return Err(AttemptError::Abandoned);
            }
            let mut view = EngineView {
                graph,
                analysis,
                machine: self.machine,
                pool,
                sched: &mut sched,
                mrt,
                assignment,
                fuel: meter,
                tracker,
                comm_scratch,
                ii,
                per_placement_registers: per_placement,
                bus_failed: false,
                register_failed: false,
                rogue_cluster: None,
            };
            let chosen = policy.select_placement(node, &mut view);
            bus_failed |= view.bus_failed;
            register_failed |= view.register_failed;
            if let Some(cluster) = view.rogue_cluster {
                return Err(AttemptError::Fatal(ScheduleError::RoguePolicy(format!(
                    "policy probed cluster {cluster} of a {}-cluster machine for node {node}",
                    self.machine.n_clusters
                ))));
            }
            match chosen {
                Some(trial) => {
                    self.validate_trial(graph, &trial, node, pool)
                        .map_err(AttemptError::Fatal)?;
                    // Commit: reserve the functional unit and the buses, record the
                    // node.
                    mrt.reserve(trial.fu, trial.cycle);
                    for comm in &trial.comms {
                        mrt.reserve_for(comm.bus, comm.start_cycle, comm.duration);
                        sched.add_comm(*comm);
                    }
                    sched.place(PlacedOp {
                        node,
                        cycle: trial.cycle,
                        cluster: trial.cluster,
                        fu: trial.fu,
                    });
                    assignment[node.index()] = Some(trial.cluster);
                    if per_placement {
                        tracker.commit(graph, &sched, node);
                    }
                }
                None => {
                    return Err(AttemptError::Failed(AttemptFailure {
                        bus: bus_failed,
                        register: register_failed,
                    }))
                }
            }
        }

        // The whole-schedule check folds a completed attempt into the tracker once,
        // so the attempts that fail before it cost no pressure work at all.
        if !per_placement {
            tracker.commit_placed(graph, &sched);
            if !tracker.fits() {
                return Err(AttemptError::Failed(AttemptFailure {
                    bus: bus_failed,
                    register: true,
                }));
            }
        }
        Ok(sched)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vliw_arch::{BusConfig, ClusterConfig, LatencyModel, OpClass};
    use vliw_ddg::GraphBuilder;

    fn saxpy() -> DepGraph {
        GraphBuilder::new("saxpy")
            .iterations(1000)
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

    /// The Figure-7 machine: two 2-wide clusters, a single 1-cycle bus — saturates
    /// its bus on the Figure-7 loop.
    fn fig7() -> (MachineConfig, DepGraph) {
        let machine = MachineConfig::new(
            "fig7",
            2,
            ClusterConfig::new(2, 0, 0, 32),
            BusConfig::new(1, 1),
            LatencyModel::unit(),
        );
        let g = GraphBuilder::new("fig7")
            .with_latencies(LatencyModel::unit())
            .iterations(100)
            .node("A", OpClass::IntAlu)
            .node("B", OpClass::IntAlu)
            .node("C", OpClass::IntAlu)
            .node("D", OpClass::IntAlu)
            .node("E", OpClass::IntAlu)
            .node("F", OpClass::IntAlu)
            .flow("A", "C")
            .flow("B", "C")
            .flow("C", "E")
            .flow("A", "E")
            .flow("D", "F")
            .flow("A", "F")
            .flow_at("E", "D", 1)
            .flow_at("D", "A", 1)
            .build();
        (machine, g)
    }

    /// saxpy unrolled ×16 with its nodes dealt alternately to the two clusters of
    /// a one-bus, 2-cycle-latency machine: the transfers saturate the bus, so the
    /// II climbs well past MII and the failed steps cross the pipelining gate.
    pub(crate) fn gated_loop() -> (MachineConfig, DepGraph, Vec<usize>) {
        let machine = MachineConfig::two_cluster(1, 2);
        let g = vliw_ddg::unroll(&saxpy(), 16);
        let assignment = (0..g.n_nodes()).map(|i| i % 2).collect();
        (machine, g, assignment)
    }

    #[test]
    fn the_gated_loop_crosses_the_pipelining_gate() {
        let (machine, g, assignment) = gated_loop();
        let out = IiSearchDriver::new(&machine)
            .with_fuel(FuelBudget::unlimited())
            .schedule(&g, &mut FixedAssignmentPolicy::new(assignment))
            .unwrap();
        // A fixed assignment probes each node once per attempt, so a step costs
        // at most two attempts of n probes: the gate falls at least two steps
        // before the successful one.
        let step_probes = 2 * g.n_nodes() as u64;
        let probes = out.diagnostics.fuel.unwrap().probes;
        assert!(
            probes >= PIPELINE_GATE_PROBES + 2 * step_probes,
            "{probes} probes"
        );
    }

    #[test]
    fn pipelined_searches_match_the_sequential_search() {
        let (machine, g, assignment) = gated_loop();
        let run = |threads: usize| {
            let out = IiSearchDriver::new(&machine)
                .with_threads(threads)
                .schedule(&g, &mut FixedAssignmentPolicy::new(assignment.clone()));
            serde_json::to_string(&out.unwrap()).unwrap()
        };
        let sequential = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), sequential, "{threads} threads");
        }
    }

    /// Fails every attempt after probing every node, so the search runs to
    /// `max_ii`.
    #[derive(Clone)]
    struct NeverPlaces;
    impl ClusterPolicy for NeverPlaces {
        fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
            view.probe(node, 0);
            None
        }
        fn fork(&self) -> Option<Box<dyn ClusterPolicy + Send>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn a_pipelined_search_that_never_places_exhausts_max_ii_like_a_sequential_one() {
        let (machine, g, _) = gated_loop();
        let sequential = IiSearchDriver::new(&machine)
            .with_threads(1)
            .schedule(&g, &mut NeverPlaces)
            .unwrap_err();
        assert!(matches!(sequential, ScheduleError::MaxIiExceeded { .. }));
        for threads in [2, 4] {
            let pipelined = IiSearchDriver::new(&machine)
                .with_threads(threads)
                .schedule(&g, &mut NeverPlaces)
                .unwrap_err();
            assert_eq!(pipelined, sequential);
        }
    }

    /// The log of `SlowAtTarget`'s `begin_ii` calls, as (forked, II), shared by the
    /// original and its forks.
    #[derive(Default)]
    struct Rendezvous {
        log: std::sync::Mutex<Vec<(bool, u32)>>,
        changed: std::sync::Condvar,
        forked: std::sync::atomic::AtomicBool,
    }

    impl Rendezvous {
        /// Block until `done` holds for the log (or a generous timeout passes, after
        /// which the test's assertions report what happened).
        fn wait_until(&self, done: impl Fn(&[(bool, u32)]) -> bool) {
            let log = self.log.lock().unwrap();
            let timeout = std::time::Duration::from_secs(10);
            drop(
                self.changed
                    .wait_timeout_while(log, timeout, |log| !done(log)),
            );
        }
    }

    /// Fails every II below `target` (on its last node) and schedules at and above
    /// it.  Once forked, the original waits (at an II below `target`) until a fork
    /// has begun `target`, and that fork waits until the original has begun an II
    /// above it — so a helper succeeds below the calling thread's current step.
    #[derive(Clone)]
    struct SlowAtTarget {
        inner: FixedAssignmentPolicy,
        target: u32,
        forked: bool,
        shared: std::sync::Arc<Rendezvous>,
    }
    impl ClusterPolicy for SlowAtTarget {
        fn begin_ii(&mut self, _: &DepGraph, _: &MachineConfig, ii: u32) {
            let (r, target) = (&*self.shared, self.target);
            r.log.lock().unwrap().push((self.forked, ii));
            r.changed.notify_all();
            if self.forked && ii == target {
                r.wait_until(|log| log.iter().any(|&(forked, i)| !forked && i > target));
            } else if !self.forked && ii < target && r.forked.load(Ordering::Relaxed) {
                r.wait_until(|log| log.contains(&(true, target)));
            }
        }
        fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
            let placed = view.assignment().iter().flatten().count();
            let last = placed + 1 == view.graph().n_nodes();
            let trial = self.inner.select_placement(node, view);
            trial.filter(|_| !last || view.ii() >= self.target)
        }
        fn fork(&self) -> Option<Box<dyn ClusterPolicy + Send>> {
            self.shared.forked.store(true, Ordering::Relaxed);
            Some(Box::new(Self {
                forked: true,
                ..self.clone()
            }))
        }
    }

    #[test]
    fn a_helper_success_below_the_calling_threads_step_wins() {
        let (machine, g, _) = gated_loop();
        let target = vliw_ddg::mii(&g, &machine) + 40;
        let run = |threads: usize| {
            let shared = std::sync::Arc::<Rendezvous>::default();
            let mut policy = SlowAtTarget {
                inner: FixedAssignmentPolicy::new(vec![0; g.n_nodes()]),
                target,
                forked: false,
                shared: std::sync::Arc::clone(&shared),
            };
            let out = IiSearchDriver::new(&machine)
                .with_threads(threads)
                .schedule(&g, &mut policy)
                .unwrap();
            let log = shared.log.lock().unwrap().clone();
            (out, log)
        };
        let (sequential, _) = run(1);
        assert_eq!(sequential.diagnostics.ii, target);
        let (pipelined, log) = run(2);
        assert!(
            log.contains(&(true, target)),
            "a helper ran the target II: {log:?}"
        );
        assert!(
            log.iter().any(|&(forked, ii)| !forked && ii > target),
            "the calling thread moved past the target II: {log:?}"
        );
        assert_eq!(pipelined, sequential);
    }

    #[test]
    fn fixed_assignment_policy_schedules_on_forced_clusters() {
        let machine = MachineConfig::two_cluster(2, 1);
        let g = saxpy();
        let assignment = vec![0, 0, 0, 0, 0];
        let mut policy = FixedAssignmentPolicy::new(assignment);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        assert!(out.schedule.is_complete());
        for node in g.node_ids() {
            assert_eq!(out.schedule.cluster_of(node), Some(0));
        }
        assert_eq!(out.diagnostics.n_comms, 0);
        assert_eq!(out.diagnostics.ii, out.schedule.ii());
    }

    #[test]
    fn diagnostics_classify_a_recurrence_bound_loop() {
        let machine = MachineConfig::unified();
        let g = GraphBuilder::new("acc")
            .node("ld", OpClass::Load)
            .node("add", OpClass::FpAdd)
            .flow("ld", "add")
            .flow_at("add", "add", 1)
            .build();
        let mut policy = FixedAssignmentPolicy::new(vec![0, 0]);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        assert_eq!(out.diagnostics.limiting, LimitingResource::Recurrence);
        assert!(out.diagnostics.rec_mii >= out.diagnostics.res_mii);
        assert!(out.diagnostics.ii_trajectory.is_empty());
        assert_eq!(out.diagnostics.attempts(), 1);
        assert!(!out.diagnostics.limited_by_bus());
    }

    #[test]
    fn diagnostics_classify_a_bus_bound_loop() {
        // Forcing the Figure-7 recurrence across the clusters saturates the single
        // bus, driving the II above MII with bus failures on the way.
        let (machine, g) = fig7();
        let mut policy = FixedAssignmentPolicy::new(vec![0, 1, 0, 1, 0, 1]);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        assert!(out.schedule.ii() > out.diagnostics.mii);
        assert_eq!(out.diagnostics.limiting, LimitingResource::Bus);
        assert!(out.diagnostics.limited_by_bus());
        assert!(!out.diagnostics.ii_trajectory.is_empty());
        assert!(out
            .diagnostics
            .ii_trajectory
            .iter()
            .any(|step| step.bus_blocked));
        assert!(out.diagnostics.n_comms > 0);
    }

    #[test]
    fn trajectory_iis_are_consecutive_from_mii() {
        let (machine, g) = fig7();
        let mut policy = FixedAssignmentPolicy::new(vec![0, 1, 0, 1, 0, 1]);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        for (i, step) in out.diagnostics.ii_trajectory.iter().enumerate() {
            assert_eq!(step.ii, out.diagnostics.mii + i as u32);
            assert!(step.orders_tried >= 1);
        }
        // Every II below the achieved one failed completely; the achieved II itself
        // appears as a final step only when its SMS ordering failed first.
        let len = out.diagnostics.ii_trajectory.len() as u32;
        assert!(
            out.diagnostics.ii == out.diagnostics.mii + len
                || out.diagnostics.ii == out.diagnostics.mii + len - 1,
            "ii {} vs mii {} + {len}",
            out.diagnostics.ii,
            out.diagnostics.mii
        );
    }

    #[test]
    fn iis_beyond_64_schedule_on_multi_word_reservation_rows() {
        // A 70-cycle recurrence forces MII = 70 > 64: the engine's reused
        // reservation table must grow past one word per row (the fuzzing campaigns
        // hit this regularly; II = 65 is the exact boundary, covered in mrt.rs).
        let machine = MachineConfig::two_cluster(1, 1);
        let mut g = GraphBuilder::new("deep-rec")
            .node("div", OpClass::FpDiv)
            .node("use", OpClass::FpAdd)
            .flow("div", "use")
            .build();
        g.add_edge(
            vliw_ddg::NodeId(0),
            vliw_ddg::NodeId(0),
            70,
            1,
            vliw_ddg::DepKind::Flow,
        );
        let mut policy = FixedAssignmentPolicy::new(vec![0, 1]);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        assert_eq!(out.diagnostics.rec_mii, 70);
        assert!(out.schedule.ii() >= 70);
        assert!(out.schedule.is_complete());
        assert_eq!(out.diagnostics.limiting, LimitingResource::Recurrence);
        // The cross-cluster edge still got its transfer at the wide II.
        assert_eq!(out.diagnostics.n_comms, 1);
    }

    #[test]
    fn diagnostics_roundtrip_through_json() {
        let (machine, g) = fig7();
        let mut policy = FixedAssignmentPolicy::new(vec![0, 1, 0, 1, 0, 1]);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        // A diagnostics value with every interesting field populated: a non-empty
        // trajectory, bus-limited classification, comms and per-cluster pressure.
        let d = out.diagnostics;
        assert!(!d.ii_trajectory.is_empty());
        let json = serde_json::to_string(&d).unwrap();
        let back: ScheduleDiagnostics = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
        assert_eq!(back.limiting, LimitingResource::Bus);
        assert_eq!(back.ii_trajectory, d.ii_trajectory);
        // And the pretty form too (the campaign reports use pretty JSON).
        let pretty = serde_json::to_string_pretty(&d).unwrap();
        let back2: ScheduleDiagnostics = serde_json::from_str(&pretty).unwrap();
        assert_eq!(d, back2);
    }

    #[test]
    fn limiting_resource_labels_are_stable_and_distinct() {
        let all = [
            LimitingResource::Recurrence,
            LimitingResource::FunctionalUnits,
            LimitingResource::Bus,
            LimitingResource::Registers,
        ];
        let labels: Vec<_> = all.iter().map(|l| l.label()).collect();
        assert_eq!(labels, ["recurrence", "fu", "bus", "registers"]);
        for l in all {
            assert_eq!(l.to_string(), l.label());
            let json = serde_json::to_string(&l).unwrap();
            let back: LimitingResource = serde_json::from_str(&json).unwrap();
            assert_eq!(l, back);
        }
    }

    #[test]
    fn a_recurrence_fu_tie_at_mii_classifies_as_recurrence() {
        // rec_mii == res_mii == achieved II: the engine resolves the tie in favour
        // of the recurrence (`rec >= res`), matching the paper's reading that a
        // loop at its recurrence bound cannot be helped by more resources.
        let machine = MachineConfig::unified();
        // 4 memory ops on 4 mem units -> ResMII 1; RecMII 1 via a unit self-edge.
        let g = GraphBuilder::new("tie")
            .node("l0", OpClass::Load)
            .node("l1", OpClass::Load)
            .node("l2", OpClass::Load)
            .node("acc", OpClass::Store)
            .flow_at("acc", "acc", 1)
            .build();
        let mut policy = FixedAssignmentPolicy::new(vec![0; 4]);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        assert_eq!(out.diagnostics.res_mii, out.diagnostics.rec_mii);
        assert_eq!(out.diagnostics.ii, out.diagnostics.mii);
        assert_eq!(out.diagnostics.limiting, LimitingResource::Recurrence);
    }

    #[test]
    fn a_bus_blocked_search_that_ends_at_mii_classifies_by_mii_components() {
        // Bus-vs-FU disambiguation above MII: when the II had to grow and *any*
        // failed attempt saw bus saturation, the loop counts as bus-limited even
        // though the final failing attempt may have been FU-bound — exactly the
        // accounting behind Figure 6's LimitedByBus predicate.
        let (machine, g) = fig7();
        let mut policy = FixedAssignmentPolicy::new(vec![0, 1, 0, 1, 0, 1]);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        assert!(out.schedule.ii() > out.diagnostics.mii);
        assert!(out
            .diagnostics
            .ii_trajectory
            .iter()
            .any(|step| step.bus_blocked));
        assert_eq!(out.diagnostics.limiting, LimitingResource::Bus);
        assert_eq!(out.diagnostics.limiting.label(), "bus");
        // Whereas the same machine scheduling everything on one cluster never
        // touches the bus: II at MII, classified by the MII components.
        let mut local = FixedAssignmentPolicy::new(vec![0; 6]);
        let out_local = IiSearchDriver::new(&machine)
            .schedule(&g, &mut local)
            .unwrap();
        assert_ne!(out_local.diagnostics.limiting, LimitingResource::Bus);
        assert!(!out_local.diagnostics.limited_by_bus());
    }

    #[test]
    fn whole_schedule_register_mode_rejects_overflowing_attempts() {
        let tiny = MachineConfig::new(
            "tiny-regs",
            1,
            ClusterConfig::new(4, 4, 4, 2),
            BusConfig::none(),
            LatencyModel::table1(),
        );
        let g = saxpy();
        let mut roomy = tiny.clone();
        roomy.cluster.registers = 1 << 20;
        let relaxed = IiSearchDriver::new(&roomy).schedule_unified(&g).unwrap();
        match IiSearchDriver::new(&tiny).schedule_unified(&g) {
            Ok(strict) => {
                assert!(strict.schedule.ii() >= relaxed.schedule.ii());
                if strict.schedule.ii() > strict.diagnostics.mii {
                    assert_eq!(strict.diagnostics.limiting, LimitingResource::Registers);
                }
            }
            Err(ScheduleError::MaxIiExceeded { .. }) => {} // also acceptable: never fits
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn max_live_per_cluster_has_one_entry_per_cluster() {
        let machine = MachineConfig::four_cluster(2, 1);
        let g = saxpy();
        let mut policy = FixedAssignmentPolicy::new(vec![0, 1, 2, 3, 0]);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        assert_eq!(
            out.diagnostics.max_live_per_cluster.len(),
            machine.n_clusters
        );
    }

    #[test]
    fn invalid_graphs_are_rejected_before_scheduling() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("bad");
        let a = g.add_node(OpClass::IntAlu);
        g.add_edge(a, a, 1, 0, vliw_ddg::DepKind::Flow);
        let err = IiSearchDriver::new(&machine)
            .schedule(&g, &mut FixedAssignmentPolicy::new(vec![0]))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidGraph(_)));
    }

    #[test]
    fn empty_graph_schedules_trivially() {
        let machine = MachineConfig::unified();
        let out = IiSearchDriver::new(&machine)
            .schedule(
                &DepGraph::new("empty"),
                &mut FixedAssignmentPolicy::new(vec![]),
            )
            .unwrap();
        assert!(out.schedule.is_complete());
        assert_eq!(out.diagnostics.n_comms, 0);
    }

    #[test]
    fn single_node_graph_schedules_at_mii_one() {
        let machine = MachineConfig::two_cluster(1, 1);
        let mut g = DepGraph::new("one");
        g.add_node(OpClass::IntAlu);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut FixedAssignmentPolicy::new(vec![0]))
            .unwrap();
        assert!(out.schedule.is_complete());
        assert_eq!(out.diagnostics.ii, 1);
    }

    #[test]
    fn machine_without_needed_fu_kind_is_invalid_machine_not_a_panic() {
        // One FP op on a machine with zero FP units used to trip the `res_mii`
        // assert; the engine now front-checks and reports InvalidMachine.
        let machine = MachineConfig::new(
            "no-fp",
            2,
            ClusterConfig::new(1, 0, 1, 32),
            BusConfig::new(1, 1),
            LatencyModel::table1(),
        );
        let mut g = DepGraph::new("fp");
        g.add_node(OpClass::FpMul);
        let err = IiSearchDriver::new(&machine)
            .schedule(&g, &mut FixedAssignmentPolicy::new(vec![0]))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidMachine(_)), "{err}");
        assert!(err.to_string().to_lowercase().contains("fp"), "{err}");
    }

    #[test]
    fn wrong_assignment_length_is_a_typed_error_not_a_panic() {
        let machine = MachineConfig::two_cluster(1, 1);
        let err = IiSearchDriver::new(&machine)
            .schedule(&saxpy(), &mut FixedAssignmentPolicy::new(vec![0, 1]))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::RoguePolicy(_)), "{err}");
    }

    #[test]
    fn out_of_range_assignment_is_a_typed_error_not_a_panic() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = saxpy();
        for assignment in [vec![7; g.n_nodes()], vec![0, 0, 0, 0, 7]] {
            let err = IiSearchDriver::new(&machine)
                .schedule(&g, &mut FixedAssignmentPolicy::new(assignment))
                .unwrap_err();
            assert!(matches!(err, ScheduleError::RoguePolicy(_)), "{err}");
            assert!(err.to_string().contains("cluster 7"), "{err}");
        }
    }

    /// A policy that fabricates a trial pointing at another node's placement.
    struct ForgingPolicy;
    impl ClusterPolicy for ForgingPolicy {
        fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
            let mut trial = view.probe(node, 0).trial?;
            trial.cluster = usize::MAX; // row outside the machine
            Some(trial)
        }
    }

    #[test]
    fn fabricated_trials_are_refused_as_rogue_policy() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = saxpy();
        let err = IiSearchDriver::new(&machine)
            .schedule(&g, &mut ForgingPolicy)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::RoguePolicy(_)), "{err}");
    }

    /// A policy that smuggles a transfer of an unrelated producer's value into the
    /// store's trial (the store reads only `add`; `lx` feeds `mul`).
    struct SmugglingPolicy {
        bus: ResourceIndex,
    }
    impl ClusterPolicy for SmugglingPolicy {
        fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
            let mut trial = view.probe(node, 0).trial?;
            if node == NodeId(4) {
                trial.comms.push(CommPlacement {
                    src_node: NodeId(0),
                    dst_node: node,
                    from_cluster: 0,
                    to_cluster: 1,
                    bus: self.bus,
                    start_cycle: trial.cycle,
                    duration: 1,
                });
            }
            Some(trial)
        }
    }

    #[test]
    fn transfers_of_values_the_node_neither_produces_nor_reads_are_refused() {
        let machine = MachineConfig::two_cluster(1, 1);
        let bus = ResourcePool::new(&machine).buses().next().unwrap();
        let err = IiSearchDriver::new(&machine)
            .schedule(&saxpy(), &mut SmugglingPolicy { bus })
            .unwrap_err();
        assert!(matches!(err, ScheduleError::RoguePolicy(_)), "{err}");
        assert!(err.to_string().contains("node n0's value"), "{err}");
    }

    #[test]
    fn unbudgeted_runs_leave_fuel_unset_and_serialize_without_new_keys() {
        let (machine, g) = fig7();
        let mut policy = FixedAssignmentPolicy::new(vec![0, 1, 0, 1, 0, 1]);
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        assert!(out.diagnostics.fuel.is_none());
        assert!(out.diagnostics.rung.is_none());
        // Byte-identity of the committed golden reports depends on the optional
        // fields being *absent* (not null) when unset.
        let json = serde_json::to_string(&out.diagnostics).unwrap();
        assert!(!json.contains("\"fuel\""), "{json}");
        assert!(!json.contains("\"rung\""), "{json}");
    }

    #[test]
    fn budgeted_success_records_fuel_and_roundtrips() {
        let (machine, g) = fig7();
        let mut policy = FixedAssignmentPolicy::new(vec![0, 1, 0, 1, 0, 1]);
        let unbudgeted = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy.clone())
            .unwrap();
        let out = IiSearchDriver::new(&machine)
            .with_fuel(FuelBudget::probes(1_000_000))
            .schedule(&g, &mut policy)
            .unwrap();
        let fuel = out.diagnostics.fuel.expect("budgeted run records fuel");
        assert!(fuel.probes > 0);
        assert!(fuel.attempts > 0);
        assert!(fuel.ii_steps > 0);
        // Fuel metering must not change the schedule itself.
        assert_eq!(out.schedule, unbudgeted.schedule);
        let json = serde_json::to_string(&out.diagnostics).unwrap();
        assert!(json.contains("\"fuel\""));
        let back: ScheduleDiagnostics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fuel, out.diagnostics.fuel);
    }

    #[test]
    fn exhausted_probe_budget_is_a_deterministic_typed_error() {
        let (machine, g) = fig7();
        let run = || {
            IiSearchDriver::new(&machine)
                .with_fuel(FuelBudget::probes(3))
                .schedule(&g, &mut FixedAssignmentPolicy::new(vec![0, 1, 0, 1, 0, 1]))
                .unwrap_err()
        };
        let err = run();
        match &err {
            ScheduleError::BudgetExhausted { mii, at_ii, spent } => {
                assert!(*at_ii >= *mii);
                assert!(spent.probes <= 3);
            }
            other => panic!("expected BudgetExhausted, got {other}"),
        }
        // Same budget, same graph, same machine: byte-identical failure.
        assert_eq!(err, run());
    }

    #[test]
    fn expired_deadline_reports_deadline_error() {
        let (machine, g) = fig7();
        let err = IiSearchDriver::new(&machine)
            .with_fuel(FuelBudget::unlimited().with_deadline(std::time::Duration::ZERO))
            .schedule(&g, &mut FixedAssignmentPolicy::new(vec![0, 1, 0, 1, 0, 1]))
            .unwrap_err();
        assert!(
            matches!(err, ScheduleError::DeadlineExpired { .. }),
            "{err}"
        );
    }

    #[test]
    fn a_generous_budget_behaves_like_no_budget_at_all() {
        let (machine, g) = fig7();
        let mut policy = FixedAssignmentPolicy::new(vec![0, 1, 0, 1, 0, 1]);
        let budgeted = IiSearchDriver::new(&machine)
            .with_fuel(FuelBudget::unlimited())
            .schedule(&g, &mut policy.clone())
            .unwrap();
        let free = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        assert_eq!(budgeted.schedule, free.schedule);
        assert_eq!(budgeted.diagnostics.ii, free.diagnostics.ii);
        // Budgeted run reports its (unlimited) fuel; the free run reports none.
        assert!(budgeted.diagnostics.fuel.is_some());
        assert!(free.diagnostics.fuel.is_none());
    }
}
