//! The optimality certifier: a budgeted branch-and-bound exact modulo scheduler.
//!
//! The rest of this crate proves schedules are *legal*; this module bounds how
//! *good* they can be.  [`OptimalSolver::certify`] searches initiation intervals
//! upward from `MII = max(ResMII, RecMII)` and, at each II, runs a depth-first
//! search over per-node `(cluster, cycle, functional unit)` placements against
//! the exact same feasibility primitives the production engine uses — the
//! [`vliw_sms::ModuloReservationTable`], the bus requests
//! ([`vliw_sms::required_comms`], assigned to bus slots exhaustively), the
//! dependence windows ([`vliw_sms::early_start`] / [`vliw_sms::late_start`]) and
//! the incremental register-pressure check ([`vliw_sms::PressureTracker`],
//! committed per placement and re-committed after each backtrack) — so the
//! solver and the engine can never disagree about what a feasible placement is.
//!
//! ## Verdict soundness
//!
//! The searched placement space is restricted (II-wide windows for half-bounded
//! nodes, greedy bus-start selection, register pruning), so exhausting it does
//! not by itself prove an II infeasible.  The search therefore tracks
//! *completeness caveats* and only advances the certified lower bound past an II
//! whose search exhausted **cleanly**:
//!
//! * **Window clamping.** A node whose dependence window is bounded on both
//!   sides is scanned in full, so no caveat.  A node with only an early bound is
//!   scanned over `II` consecutive cycles; by modulo-II periodicity any feasible
//!   placement further out can be shifted back into the scanned range *unless*
//!   the node still has an unplaced predecessor (the shift tightens that
//!   predecessor's future window) or a placed cross-cluster value predecessor
//!   (the shift narrows the incoming bus window).  The symmetric rule covers
//!   late-only windows, and a node with no placed neighbour is complete iff
//!   nothing else of its weakly-connected component is placed (then the whole
//!   component shifts by multiples of II).  Violating placements set the caveat.
//! * **Register rejections.** Shifting a placement changes value lifetimes, so
//!   any trial rejected by the register files marks the search incomplete.
//! * **Bus rows.** Unlike the production engine's greedy bus allocator, the
//!   solver branches over *every* start
//!   cycle in each transfer's window (with cross-request and cross-placement
//!   backtracking), so bus allocation is exact on the common configurations:
//!   single-cycle transfers occupy one MRT column (any free row is as good as
//!   any other) and a single bus offers no row choice.  Only multi-cycle
//!   transfers over several buses make first-free row selection a real choice,
//!   and that case sets the caveat.
//!
//! Functional units of the same kind are interchangeable rows, so first-free
//! unit selection and trying only already-used clusters plus one fresh cluster
//! (clusters are identical by construction of [`vliw_arch::MachineConfig`])
//! are exact symmetry reductions, never caveats.
//!
//! The verdict is then:
//!
//! * [`OptVerdict::Optimal`] — a witness schedule exists at the certified
//!   lower bound (every smaller II ≥ MII was cleanly exhausted).  The witness
//!   is either the solver's own — re-validated through the [`crate::Certifier`]
//!   before the claim is made — or, in incumbent-seeded solves
//!   ([`OptimalSolver::certify_with_incumbent`]), a schedule the caller holds
//!   and has validated through the other oracles.
//! * [`OptVerdict::LowerBound`] — every II below the bound is proven
//!   infeasible, the bound itself is unresolved (fuel ran out, or a caveat made
//!   exhaustion inconclusive).  `feasible` carries a validated witness II when
//!   the upward search still found one.
//! * [`OptVerdict::Infeasible`] — every II up to [`vliw_sms::max_ii`] was
//!   cleanly exhausted.  A heuristic that nevertheless schedules such a loop
//!   exposes a solver soundness bug, which is exactly why the sixth oracle
//!   treats it as a hard violation.
//!
//! The search is metered through the PR-7 [`FuelBudget`] machinery: every probed
//! cycle spends a probe, every node expansion an attempt, every II step an II
//! step.  Fuel exhaustion aborts the search and downgrades the verdict to the
//! lower bound proven so far — never to an unsound claim — so certificates are
//! deterministic for a given budget regardless of wall clock.

use crate::certify::Certifier;
use serde::{Deserialize, Serialize};
use vliw_arch::{FuKind, MachineConfig, ResourcePool};
use vliw_ddg::{missing_fu_kind, rec_mii, res_mii, sccs, DepGraph, GraphAnalysis, NodeId};
use vliw_sms::{
    early_start, late_start, max_ii, required_comms, CommPlacement, CommRequest, FuelBudget,
    FuelMeter, FuelSpent, ModuloReservationTable, ModuloSchedule, PlacedOp, PressureTracker,
};

/// What the solver proved about a loop's minimum achievable II on a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptVerdict {
    /// The exact optimum: `ii` is feasible (validated witness) and every
    /// smaller II down to MII is proven infeasible.
    Optimal {
        /// The optimal initiation interval.
        ii: u32,
    },
    /// Every II below `ii` is proven infeasible; `ii` itself is unresolved.
    LowerBound {
        /// The certified lower bound (optimal II is `>= ii`).
        ii: u32,
        /// A feasible II found above the bound, if any — a validated upper
        /// bound on the optimum.
        feasible: Option<u32>,
    },
    /// No II up to [`vliw_sms::max_ii`] admits a schedule (cleanly proven).
    Infeasible,
}

/// The solver's certificate for one (loop, machine) pair — the object attached
/// to lint reports and campaign findings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptCertificate {
    /// The loop the certificate speaks about.
    pub loop_name: String,
    /// The machine the loop was solved for.
    pub machine: String,
    /// Resource-constrained component of the MII (`u32::MAX`: a unit kind is missing).
    pub res_mii: u32,
    /// Recurrence-constrained component of the MII.
    pub rec_mii: u32,
    /// `max(res_mii, rec_mii)` — the theory lower bound the search starts from
    /// (`u32::MAX`, verdict [`OptVerdict::Infeasible`]: a unit kind is missing).
    pub mii: u32,
    /// What the search proved.
    pub verdict: OptVerdict,
    /// The externally-known feasible II the solve was seeded with (see
    /// [`OptimalSolver::certify_with_incumbent`]); `None` for a cold solve.
    pub incumbent: Option<u32>,
    /// Fuel consumed by the search (probes, attempts, II steps).
    pub spent: FuelSpent,
    /// Whether the fuel budget ran out before the search concluded.
    pub exhausted: bool,
}

impl OptCertificate {
    /// The certified lower bound on the achievable II, if the loop is
    /// schedulable at all (`None` for [`OptVerdict::Infeasible`]).
    pub fn lower_bound(&self) -> Option<u32> {
        match self.verdict {
            OptVerdict::Optimal { ii } | OptVerdict::LowerBound { ii, .. } => Some(ii),
            OptVerdict::Infeasible => None,
        }
    }

    /// The exact optimal II, when certified.
    pub fn optimal_ii(&self) -> Option<u32> {
        match self.verdict {
            OptVerdict::Optimal { ii } => Some(ii),
            _ => None,
        }
    }

    /// Whether the certificate pins the optimum exactly.
    pub fn is_exact(&self) -> bool {
        matches!(self.verdict, OptVerdict::Optimal { .. })
    }

    /// Certified slack of an achieved II: `achieved − lower_bound`.  `None`
    /// when the verdict is [`OptVerdict::Infeasible`] (no bound exists — but
    /// see [`OptCertificate::violated_by`]).
    pub fn gap_to(&self, achieved: u32) -> Option<i64> {
        self.lower_bound()
            .map(|lb| i64::from(achieved) - i64::from(lb))
    }

    /// The hard sixth-oracle invariant: an achieved schedule must sit at or
    /// above the certified lower bound, and a loop the solver proved
    /// unschedulable must not have been scheduled at all.
    pub fn violated_by(&self, achieved: u32) -> bool {
        match self.lower_bound() {
            Some(lb) => achieved < lb,
            None => true,
        }
    }
}

/// Outcome of one fixed-II depth-first search.
enum Search {
    /// A complete schedule was found (left in place in the DFS state).
    Found,
    /// The searched space is empty; `clean` says whether that proves the II
    /// infeasible (no completeness caveat was hit).
    Exhausted {
        /// No caveat fired: exhaustion is a proof of infeasibility.
        clean: bool,
    },
    /// The fuel budget stopped the search mid-way.
    FuelOut,
}

/// The budgeted exact solver.  Construct once, reuse across loops.
#[derive(Debug, Clone)]
pub struct OptimalSolver {
    budget: FuelBudget,
}

/// Default per-loop fuel: enough to settle the vast majority of fuzz-corpus
/// loops (measured: >80% certified exact) while keeping a 512-case campaign in
/// seconds.  Callers with more patience pass their own budget.
pub const DEFAULT_SOLVER_PROBES: u64 = 40_000;

impl Default for OptimalSolver {
    fn default() -> Self {
        Self::new(FuelBudget::probes(DEFAULT_SOLVER_PROBES))
    }
}

impl OptimalSolver {
    /// A solver spending at most `budget` fuel per certified loop.
    pub fn new(budget: FuelBudget) -> Self {
        Self { budget }
    }

    /// Solve `graph` on `machine`: search II upward from MII, prove what the
    /// budget allows, and return the certificate.
    pub fn certify(&self, graph: &DepGraph, machine: &MachineConfig) -> OptCertificate {
        self.certify_with_incumbent(graph, machine, None)
    }

    /// [`OptimalSolver::certify`] seeded with an *incumbent*: an II the caller
    /// already holds a schedule for.  This is the classic branch-and-bound
    /// upper bound — the search never probes above it, and closing the range
    /// `MII..incumbent` cleanly certifies the incumbent as the exact optimum
    /// without the solver having to reconstruct a witness of its own.
    ///
    /// Soundness: the incumbent's feasibility is the *caller's* claim, so an
    /// incumbent-assisted [`OptVerdict::Optimal`] is exact **conditional on
    /// that schedule being legal** — which the sixth-oracle wiring guarantees
    /// by only passing IIs of schedules the other five oracles validate.  The
    /// solver still cross-checks the claim where it can: when the search
    /// *cleanly* refutes the incumbent II itself, the certified lower bound
    /// comes out above the incumbent and
    /// [`OptCertificate::violated_by`]`(incumbent)` reports the contradiction
    /// as a hard violation instead of papering over it.
    pub fn certify_with_incumbent(
        &self,
        graph: &DepGraph,
        machine: &MachineConfig,
        incumbent: Option<u32>,
    ) -> OptCertificate {
        let rec = rec_mii(graph);
        // A loop using a unit kind the machine lacks fits no II: skip `res_mii`
        // (which asserts the kinds exist) and the search, and certify it
        // infeasible with both bounds at `u32::MAX`.
        let runnable = missing_fu_kind(graph, machine).is_none();
        let res = if runnable {
            res_mii(graph, machine)
        } else {
            u32::MAX
        };
        let lo = res.max(rec).max(1);
        let mut fuel = FuelMeter::new(self.budget);
        let mut dfs = Dfs::new(graph, machine);

        let mut lower_bound = lo;
        let mut feasible = None;
        let mut all_clean = true;
        let mut exhausted = false;
        let mut ii = lo;
        let limit = max_ii(lo);
        // With an incumbent the upward search stops at it: a witness above it
        // would be no improvement, and exhausting the incumbent's own II still
        // runs (the contradiction cross-check above).
        let cap = incumbent.map_or(limit, |inc| inc.min(limit));
        while runnable && ii <= cap {
            if !fuel.spend_ii_step() {
                exhausted = true;
                break;
            }
            // The partition relaxation first: a clean infeasibility proof that
            // needs no placement search at all, and the only way to advance the
            // bound past an II whose placement search carries caveats.
            let outcome = match partition_refutes(graph, machine, &dfs.pool, ii, &mut fuel) {
                PartitionCheck::Refuted => Search::Exhausted { clean: true },
                PartitionCheck::FuelOut => Search::FuelOut,
                PartitionCheck::Feasible => dfs.search(ii, &mut fuel),
            };
            match outcome {
                Search::Found => {
                    debug_assert!(dfs.sched.is_complete());
                    feasible = Some(ii);
                    break;
                }
                Search::Exhausted { clean } => {
                    if clean && all_clean && lower_bound == ii {
                        lower_bound = ii + 1;
                    } else {
                        all_clean = false;
                    }
                }
                Search::FuelOut => {
                    exhausted = true;
                    break;
                }
            }
            ii += 1;
        }

        let verdict = match (feasible, incumbent) {
            _ if !runnable => OptVerdict::Infeasible,
            // The solver found its own witness: fully self-contained claim.
            (Some(w), _) => {
                self.validate_witness(graph, machine, &mut dfs.sched);
                if w == lower_bound {
                    OptVerdict::Optimal { ii: w }
                } else {
                    OptVerdict::LowerBound {
                        ii: lower_bound,
                        feasible: Some(w),
                    }
                }
            }
            // No solver witness, but the caller holds one at `inc`.  The
            // certified floor meeting it pins the optimum; a floor *above* it
            // is the contradiction case (reported as a plain lower bound, so
            // `violated_by(inc)` fires); a floor below leaves a gap.
            (None, Some(inc)) => {
                if lower_bound == inc {
                    OptVerdict::Optimal { ii: inc }
                } else {
                    OptVerdict::LowerBound {
                        ii: lower_bound,
                        feasible: (lower_bound < inc).then_some(inc),
                    }
                }
            }
            (None, None) if lower_bound > limit => OptVerdict::Infeasible,
            (None, None) => OptVerdict::LowerBound {
                ii: lower_bound,
                feasible: None,
            },
        };
        OptCertificate {
            loop_name: graph.name.clone(),
            machine: machine.name.clone(),
            res_mii: res,
            rec_mii: rec,
            mii: lo,
            verdict,
            incumbent,
            spent: fuel.spent(),
            exhausted,
        }
    }

    /// Every feasibility claim is constructive: re-certify the witness through
    /// the full static lint stack before letting it into a verdict.
    fn validate_witness(
        &self,
        graph: &DepGraph,
        machine: &MachineConfig,
        sched: &mut ModuloSchedule,
    ) {
        sched.normalize();
        let iterations = graph.iterations.clamp(4, 40);
        let report = Certifier::new(machine).check(graph, sched, iterations);
        assert_eq!(
            report.deny_ids(),
            Vec::<String>::new(),
            "solver witness for {} on {} failed static certification",
            graph.name,
            machine.name
        );
    }
}

/// The fixed-II DFS state.  One instance is reused across the II loop so the
/// order, component labels and scratch buffers are computed once per loop.
struct Dfs<'a> {
    graph: &'a DepGraph,
    machine: &'a MachineConfig,
    pool: ResourcePool,
    /// Node expansion order: weak components in first-node order, SCCs in
    /// topological order within each component, SCC members in ASAP order.
    order: Vec<NodeId>,
    component_of: Vec<usize>,
    sched: ModuloSchedule,
    mrt: ModuloReservationTable,
    /// Register pressure of `sched`, committed per placement.
    pressure: PressureTracker,
    analysis: GraphAnalysis,
    ii: u32,
    /// Placements per cluster (drives the used-plus-one-fresh symmetry rule).
    cluster_load: Vec<u32>,
    /// Placements per weak component (drives the free-shift window rule).
    component_load: Vec<u32>,
    /// A completeness caveat fired somewhere in the current II's search.
    unclean: bool,
}

impl<'a> Dfs<'a> {
    fn new(graph: &'a DepGraph, machine: &'a MachineConfig) -> Self {
        let pool = ResourcePool::new(machine);
        let component_of = weak_components(graph);
        let order = expansion_order(graph, &component_of);
        let n_components = component_of.iter().copied().max().map_or(0, |m| m + 1);
        // Placeholder II for the scratch state; `search` rebuilds at the real
        // II (which is always >= RecMII, the smallest II the analysis accepts).
        let scratch_ii = rec_mii(graph).max(1);
        Self {
            graph,
            machine,
            mrt: ModuloReservationTable::new(&pool, scratch_ii),
            pool,
            order,
            component_of,
            sched: ModuloSchedule::new(graph.name.clone(), graph.n_nodes(), scratch_ii, scratch_ii),
            pressure: PressureTracker::new(),
            analysis: GraphAnalysis::new(graph, scratch_ii),
            ii: scratch_ii,
            cluster_load: vec![0; machine.n_clusters],
            component_load: vec![0; n_components],
            unclean: false,
        }
    }

    /// Run the DFS at `ii`.  On [`Search::Found`] the complete schedule is left
    /// in `self.sched`.
    fn search(&mut self, ii: u32, fuel: &mut FuelMeter) -> Search {
        self.ii = ii;
        self.sched = ModuloSchedule::new(self.graph.name.clone(), self.graph.n_nodes(), ii, ii);
        self.mrt.reset(ii);
        self.pressure.reset(self.machine, self.graph.n_nodes(), ii);
        self.analysis = GraphAnalysis::new(self.graph, ii);
        self.cluster_load.iter_mut().for_each(|c| *c = 0);
        self.component_load.iter_mut().for_each(|c| *c = 0);
        self.unclean = false;
        let out = self.expand(0, fuel);
        match out {
            Search::Found => Search::Found,
            Search::FuelOut => Search::FuelOut,
            Search::Exhausted { .. } => Search::Exhausted {
                clean: !self.unclean,
            },
        }
    }

    /// Place `self.order[depth..]`, backtracking over (cluster, cycle, FU).
    fn expand(&mut self, depth: usize, fuel: &mut FuelMeter) -> Search {
        if depth == self.order.len() {
            return Search::Found;
        }
        if !fuel.spend_attempt() {
            return Search::FuelOut;
        }
        let node = self.order[depth];
        let kind = self.graph.node(node).class.fu_kind();
        let bus_latency = self.machine.buses.latency;

        // Cluster symmetry: identical clusters, so only the clusters already
        // holding a placement plus the first empty one are distinguishable.
        let mut tried_fresh = false;
        for cluster in 0..self.machine.n_clusters {
            if self.cluster_load[cluster] == 0 {
                if tried_fresh {
                    break;
                }
                tried_fresh = true;
            }
            let early = early_start(self.graph, &self.sched, node, self.ii, cluster, bus_latency);
            let late = late_start(self.graph, &self.sched, node, self.ii, cluster, bus_latency);
            let (lo, hi) = match (early, late) {
                // Fully bounded: scan the whole dependence window — complete.
                (Some(e), Some(l)) => (e, l),
                // Early-only: II consecutive cycles; periodicity makes this
                // complete unless a future or cross-cluster constraint could
                // have used a later slot (see module docs).
                (Some(e), None) => {
                    if self.half_window_caveat(node, cluster, true) {
                        self.unclean = true;
                    }
                    (e, e + i64::from(self.ii) - 1)
                }
                (None, Some(l)) => {
                    if self.half_window_caveat(node, cluster, false) {
                        self.unclean = true;
                    }
                    (l - i64::from(self.ii) + 1, l)
                }
                // Unconstrained: anchor at ASAP; complete iff the node's whole
                // component is still unplaced (then any schedule shifts into
                // this window by a multiple of II).
                (None, None) => {
                    if self.component_load[self.component_of[node.index()]] > 0 {
                        self.unclean = true;
                    }
                    let d = self.analysis.asap(node);
                    (d, d + i64::from(self.ii) - 1)
                }
            };
            // Scan backward windows from the late end so witnesses appear fast
            // in both directions; order does not affect completeness.
            let backward = early.is_none() && late.is_some();
            let mut offset = 0i64;
            while lo + offset <= hi {
                let cycle = if backward { hi - offset } else { lo + offset };
                offset += 1;
                if !fuel.spend_probe() {
                    return Search::FuelOut;
                }
                let Some(fu) = self.mrt.find_free(self.pool.fus(cluster, kind), cycle) else {
                    continue;
                };
                let fu_reservation = self.mrt.reserve(fu, cycle);
                let requests = required_comms(self.graph, &self.sched, node, cluster, cycle);
                let mut chosen = Vec::new();
                match self.assign_comms(
                    depth,
                    node,
                    cluster,
                    cycle,
                    fu,
                    &requests,
                    0,
                    &mut chosen,
                    fuel,
                ) {
                    Search::Found => return Search::Found,
                    Search::FuelOut => return Search::FuelOut,
                    Search::Exhausted { .. } => {}
                }
                self.mrt.release(fu_reservation);
            }
        }
        Search::Exhausted {
            clean: !self.unclean,
        }
    }

    /// Assign bus slots to `requests[idx..]` for the pending placement of
    /// `node` at `(cluster, cycle, fu)`, then commit the placement and expand
    /// the next node.  Every start cycle in a request's window is a branch
    /// point, so exhausting the assignments (in concert with the placement
    /// backtracking above) is exact — unlike the production engine's bus
    /// allocator, which greedily takes the first free start per transfer and
    /// cannot revisit the choice.
    ///
    /// Two reductions keep this exact without branching:
    ///
    /// * **Reuse-first.**  A committed transfer of the same value to the same
    ///   cluster inside the window is always taken over sending a fresh copy:
    ///   reuse leaves strictly more bus slots free, and any later placement
    ///   that would have reused the fresh copy can allocate an identical
    ///   transfer in the slot reuse left open.
    /// * **First-free bus.**  Single-cycle transfers occupy one MRT column, so
    ///   per-column free-bus *counts* fully determine feasibility and any free
    ///   row is as good as any other; likewise a single bus offers no choice at
    ///   all.  Only multi-cycle transfers across several buses are a genuine
    ///   row choice, and that case sets the completeness caveat.
    #[allow(clippy::too_many_arguments)]
    fn assign_comms(
        &mut self,
        depth: usize,
        node: NodeId,
        cluster: usize,
        cycle: i64,
        fu: vliw_arch::ResourceIndex,
        requests: &[CommRequest],
        idx: usize,
        chosen: &mut Vec<CommPlacement>,
        fuel: &mut FuelMeter,
    ) -> Search {
        let Some(req) = requests.get(idx) else {
            // Every request has a slot: commit the placement and recurse.
            let cp = self.sched.checkpoint();
            for c in chosen.iter() {
                self.sched.add_comm(*c);
            }
            self.sched.place(PlacedOp {
                node,
                cycle,
                cluster,
                fu,
            });
            self.pressure.commit(self.graph, &self.sched, node);
            debug_assert_eq!(
                self.pressure.max_live(),
                PressureTracker::of_schedule(self.graph, &self.sched, self.machine).max_live(),
                "solver pressure diverged from the from-scratch fold"
            );
            let out = if self.pressure.fits() {
                self.cluster_load[cluster] += 1;
                self.component_load[self.component_of[node.index()]] += 1;
                let out = self.expand(depth + 1, fuel);
                self.cluster_load[cluster] -= 1;
                self.component_load[self.component_of[node.index()]] -= 1;
                out
            } else {
                // The register files constrained the search; the shift
                // arguments no longer apply.
                self.unclean = true;
                Search::Exhausted { clean: false }
            };
            match out {
                Search::Found => return Search::Found,
                Search::FuelOut => return Search::FuelOut,
                Search::Exhausted { .. } => {}
            }
            self.sched.rollback(cp);
            // Re-committing `node` on the rolled-back schedule drops its ranges
            // and restores its predecessors': exactly the state before the
            // placement.
            self.pressure.commit(self.graph, &self.sched, node);
            return Search::Exhausted {
                clean: !self.unclean,
            };
        };
        let latency = self.machine.buses.latency;
        let reused = self.sched.comms().iter().chain(chosen.iter()).any(|c| {
            c.src_node == req.src_node
                && c.to_cluster == req.to_cluster
                && c.start_cycle >= req.ready
                && c.start_cycle + c.duration as i64 <= req.deadline
        });
        if reused {
            return self.assign_comms(
                depth,
                node,
                cluster,
                cycle,
                fu,
                requests,
                idx + 1,
                chosen,
                fuel,
            );
        }
        if req.deadline - req.ready < latency as i64 {
            // Empty window: the placement cycle itself is infeasible — a clean
            // prune, exactly like the engine's `WindowTooSmall`.
            return Search::Exhausted {
                clean: !self.unclean,
            };
        }
        // At most II distinct MRT columns exist, so scanning more starts would
        // only revisit them (same clamp as the production allocator).
        let last_start = (req.deadline - latency as i64).min(req.ready + i64::from(self.ii) - 1);
        for start in req.ready..=last_start {
            if !fuel.spend_probe() {
                return Search::FuelOut;
            }
            let Some(bus) = self.mrt.find_free_for(self.pool.buses(), start, latency) else {
                continue;
            };
            if latency > 1 && self.machine.buses.count > 1 {
                self.unclean = true;
            }
            let reservation = self.mrt.reserve_for(bus, start, latency);
            chosen.push(CommPlacement {
                src_node: req.src_node,
                dst_node: req.dst_node,
                from_cluster: req.from_cluster,
                to_cluster: req.to_cluster,
                bus,
                start_cycle: start,
                duration: latency,
            });
            match self.assign_comms(
                depth,
                node,
                cluster,
                cycle,
                fu,
                requests,
                idx + 1,
                chosen,
                fuel,
            ) {
                Search::Found => return Search::Found,
                Search::FuelOut => return Search::FuelOut,
                Search::Exhausted { .. } => {}
            }
            chosen.pop();
            self.mrt.release(reservation);
        }
        Search::Exhausted {
            clean: !self.unclean,
        }
    }

    /// Whether an II-clamped half-window on `node` (forward scan when
    /// `forward`, else backward) breaks the shift-completeness argument: a
    /// not-yet-placed dependence neighbour on the shifted side, or a placed
    /// cross-cluster value neighbour whose bus window the shift narrows.
    fn half_window_caveat(&self, node: NodeId, cluster: usize, forward: bool) -> bool {
        if forward {
            self.graph.in_edges(node).any(|e| {
                e.src != node
                    && match self.sched.placement(e.src) {
                        None => true,
                        Some(p) => e.kind.carries_value() && p.cluster != cluster,
                    }
            })
        } else {
            self.graph.out_edges(node).any(|e| {
                e.dst != node
                    && match self.sched.placement(e.dst) {
                        None => true,
                        Some(p) => e.kind.carries_value() && p.cluster != cluster,
                    }
            })
        }
    }
}

/// Outcome of the partition-relaxation infeasibility check.
enum PartitionCheck {
    /// No node→cluster assignment meets the capacity conditions: the II is
    /// cleanly infeasible.
    Refuted,
    /// Some assignment meets them.  The relaxation is a necessary condition,
    /// not a sufficient one — the placement search still has to run.
    Feasible,
    /// The fuel budget ran out mid-enumeration.
    FuelOut,
}

/// The partition relaxation: any legal modulo schedule at `ii` induces an
/// assignment of nodes to clusters in which
///
/// * each cluster issues at most `fus(kind) · ii` operations per FU kind (every
///   op occupies one column of one FU row of its kind), and
/// * each value consumed in a cluster other than its producer's crosses a bus
///   at least once per iteration, so the distinct `(value, consuming cluster)`
///   pairs cost at least `bus_latency` columns each out of the `buses · ii`
///   available.
///
/// Exhausting every assignment (up to cluster permutation — clusters are
/// identical) without satisfying both conditions is therefore a *clean* proof
/// that no schedule at `ii` exists, independent of every window and ordering
/// restriction of the placement search.  This is what lets the certified lower
/// bound climb past an II whose placement search carries completeness caveats —
/// on bus-bound clustered loops, usually all of them.
fn partition_refutes(
    graph: &DepGraph,
    machine: &MachineConfig,
    pool: &ResourcePool,
    ii: u32,
    fuel: &mut FuelMeter,
) -> PartitionCheck {
    let n_clusters = machine.n_clusters;
    if n_clusters <= 1 {
        // One cluster: condition (a) is ResMII (already below every probed II)
        // and no transfers exist — nothing to refute.
        return PartitionCheck::Feasible;
    }
    let n = graph.n_nodes();
    let mut fu_cap = vec![0u64; FuKind::ALL.len()];
    for &k in &FuKind::ALL {
        fu_cap[k.index()] = pool.fus(0, k).count() as u64 * u64::from(ii);
    }
    let bus_cap = machine.buses.count as u64 * u64::from(ii);
    let bus_lat = u64::from(machine.buses.latency);
    let kind_of: Vec<usize> = (0..n)
        .map(|i| graph.node(NodeId(i as u32)).class.fu_kind().index())
        .collect();

    struct Enum<'g> {
        graph: &'g DepGraph,
        kind_of: Vec<usize>,
        fu_cap: Vec<u64>,
        bus_cap: u64,
        bus_lat: u64,
        n_clusters: usize,
        assign: Vec<usize>,
        counts: Vec<[u64; 3]>,
        transfers: Vec<(NodeId, usize)>,
    }
    impl Enum<'_> {
        fn go(&mut self, idx: usize, used: usize, fuel: &mut FuelMeter) -> PartitionCheck {
            if idx == self.graph.n_nodes() {
                return PartitionCheck::Feasible;
            }
            let node = NodeId(idx as u32);
            let kind = self.kind_of[idx];
            // Identical clusters: only the ones already holding a node plus
            // one fresh cluster are distinguishable.
            for cluster in 0..self.n_clusters.min(used + 1) {
                if !fuel.spend_probe() {
                    return PartitionCheck::FuelOut;
                }
                if self.counts[cluster][kind] + 1 > self.fu_cap[kind] {
                    continue;
                }
                // Record the new cross-cluster value transfers this choice
                // creates, deduplicated per (value, consuming cluster).
                let mark = self.transfers.len();
                for e in self.graph.in_edges(node).filter(|e| e.kind.carries_value()) {
                    if e.src == node || self.assign[e.src.index()] == usize::MAX {
                        continue;
                    }
                    if self.assign[e.src.index()] != cluster
                        && !self.transfers.contains(&(e.src, cluster))
                    {
                        self.transfers.push((e.src, cluster));
                    }
                }
                for e in self
                    .graph
                    .out_edges(node)
                    .filter(|e| e.kind.carries_value())
                {
                    let dst = self
                        .assign
                        .get(e.dst.index())
                        .copied()
                        .unwrap_or(usize::MAX);
                    if e.dst == node || dst == usize::MAX {
                        continue;
                    }
                    if dst != cluster && !self.transfers.contains(&(node, dst)) {
                        self.transfers.push((node, dst));
                    }
                }
                if self.transfers.len() as u64 * self.bus_lat <= self.bus_cap {
                    self.assign[idx] = cluster;
                    self.counts[cluster][kind] += 1;
                    let next_used = used.max(cluster + 1);
                    match self.go(idx + 1, next_used, fuel) {
                        PartitionCheck::Feasible => return PartitionCheck::Feasible,
                        PartitionCheck::FuelOut => return PartitionCheck::FuelOut,
                        PartitionCheck::Refuted => {}
                    }
                    self.counts[cluster][kind] -= 1;
                    self.assign[idx] = usize::MAX;
                }
                self.transfers.truncate(mark);
            }
            PartitionCheck::Refuted
        }
    }
    let mut e = Enum {
        graph,
        kind_of,
        fu_cap,
        bus_cap,
        bus_lat,
        n_clusters,
        assign: vec![usize::MAX; n],
        counts: vec![[0; 3]; n_clusters],
        transfers: Vec::new(),
    };
    e.go(0, 0, fuel)
}

/// Label each node with its weakly-connected component (edges taken both ways).
fn weak_components(graph: &DepGraph) -> Vec<usize> {
    let n = graph.n_nodes();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for e in graph.edges() {
        let (a, b) = (
            find(&mut parent, e.src.index()),
            find(&mut parent, e.dst.index()),
        );
        if a != b {
            parent[a.max(b)] = a.min(b);
        }
    }
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    for i in 0..n {
        let r = find(&mut parent, i);
        if label[r] == usize::MAX {
            label[r] = next;
            next += 1;
        }
        label[i] = label[r];
    }
    label
}

/// Deterministic node-expansion order: weak components by first node id, SCCs
/// of each component in topological order of the condensation, SCC members by
/// smallest node id.  Topological processing maximizes the number of nodes
/// whose predecessors are all placed at expansion time — exactly the nodes the
/// half-window completeness argument covers.
fn expansion_order(graph: &DepGraph, component_of: &[usize]) -> Vec<NodeId> {
    let comps = sccs(graph);
    let n_sccs = comps.len();
    let mut scc_of = vec![0usize; graph.n_nodes()];
    for (i, scc) in comps.iter().enumerate() {
        for &v in scc {
            scc_of[v.index()] = i;
        }
    }
    // Kahn over the condensation, smallest-first-node SCC first for determinism.
    let mut indeg = vec![0u32; n_sccs];
    for e in graph.edges() {
        let (a, b) = (scc_of[e.src.index()], scc_of[e.dst.index()]);
        if a != b {
            indeg[b] += 1;
        }
    }
    let scc_key = |i: usize| {
        let first = comps[i].iter().map(|v| v.index()).min().unwrap_or(0);
        (component_of[first], first)
    };
    let mut ready: Vec<usize> = (0..n_sccs).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(graph.n_nodes());
    while !ready.is_empty() {
        ready.sort_by_key(|&i| scc_key(i));
        let i = ready.remove(0);
        let mut members = comps[i].clone();
        members.sort_by_key(|v| v.index());
        order.extend(members);
        for e in graph.edges() {
            let (a, b) = (scc_of[e.src.index()], scc_of[e.dst.index()]);
            if a == i && b != i {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    ready.push(b);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), graph.n_nodes());
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::OpClass;
    use vliw_ddg::{mii, DepKind};

    fn chain(n: usize, latency: u32) -> DepGraph {
        let mut g = DepGraph::new("chain");
        let mut prev = None;
        for _ in 0..n {
            let v = g.add_node(OpClass::IntAlu);
            if let Some(p) = prev {
                g.add_edge(p, v, latency, 0, DepKind::Flow);
            }
            prev = Some(v);
        }
        g
    }

    #[test]
    fn a_chain_is_optimal_at_res_mii() {
        let machine = MachineConfig::unified();
        let g = chain(8, 1);
        let cert = OptimalSolver::default().certify(&g, &machine);
        assert_eq!(cert.verdict, OptVerdict::Optimal { ii: cert.mii });
        assert!(cert.is_exact());
        assert_eq!(cert.gap_to(cert.mii), Some(0));
    }

    #[test]
    fn recurrence_pins_the_optimum_to_rec_mii() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("rec");
        let a = g.add_node(OpClass::IntAlu);
        let b = g.add_node(OpClass::IntAlu);
        g.add_edge(a, b, 1, 0, DepKind::Flow);
        g.add_edge(b, a, 1, 1, DepKind::Flow);
        let cert = OptimalSolver::default().certify(&g, &machine);
        assert_eq!(cert.rec_mii, 2);
        assert_eq!(cert.verdict, OptVerdict::Optimal { ii: 2 });
    }

    /// A loop needing a unit kind the machine lacks is infeasible at every II: a
    /// typed certificate with no fuel spent, not a panic in `res_mii`.
    #[test]
    fn a_machine_without_a_needed_unit_kind_is_infeasible_not_a_panic() {
        let mut machine = MachineConfig::two_cluster(1, 1);
        machine.cluster.fus[FuKind::Fp.index()] = 0;
        let mut g = DepGraph::new("no-fp");
        let ld = g.add_node(OpClass::Load);
        let add = g.add_node(OpClass::FpAdd);
        g.add_edge(ld, add, 2, 0, DepKind::Flow);
        let cert = OptimalSolver::default().certify(&g, &machine);
        assert_eq!(cert.verdict, OptVerdict::Infeasible);
        assert_eq!((cert.res_mii, cert.mii), (u32::MAX, u32::MAX));
        assert_eq!(cert.spent, FuelSpent::default());
        assert!(!cert.exhausted);
        assert!(cert.violated_by(1));
    }

    #[test]
    fn fuel_starvation_degrades_to_the_mii_lower_bound() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = chain(12, 2);
        let cert = OptimalSolver::new(FuelBudget::probes(3)).certify(&g, &machine);
        assert!(cert.exhausted);
        assert_eq!(
            cert.verdict,
            OptVerdict::LowerBound {
                ii: cert.mii,
                feasible: None
            }
        );
        assert!(!cert.violated_by(cert.mii));
        assert!(cert.violated_by(cert.mii - 1));
    }

    #[test]
    fn an_incumbent_at_mii_is_certified_optimal_even_under_starved_fuel() {
        // The incumbent IS the witness: with the floor already at MII, no
        // search is needed to pin the optimum, so even a 1-probe budget
        // certifies exactly — the common case that carries the fuzz corpus.
        let machine = MachineConfig::two_cluster(1, 1);
        let g = chain(12, 2);
        let cert = OptimalSolver::new(FuelBudget::probes(1)).certify_with_incumbent(
            &g,
            &machine,
            Some(mii(&g, &machine)),
        );
        assert_eq!(cert.verdict, OptVerdict::Optimal { ii: cert.mii });
        assert_eq!(cert.incumbent, Some(cert.mii));
    }

    #[test]
    fn an_incumbent_below_mii_is_reported_as_a_violation() {
        // A caller claiming an II below the theory floor is contradicted: the
        // certificate keeps the floor and `violated_by` fires.
        let machine = MachineConfig::unified();
        let g = chain(8, 1);
        let below = mii(&g, &machine) - 1;
        let cert = OptimalSolver::default().certify_with_incumbent(&g, &machine, Some(below));
        assert_eq!(
            cert.verdict,
            OptVerdict::LowerBound {
                ii: cert.mii,
                feasible: None
            }
        );
        assert!(cert.violated_by(below));
    }

    #[test]
    fn incumbent_and_cold_solves_agree_on_the_optimum() {
        let machine = MachineConfig::unified();
        let g = chain(8, 1);
        let cold = OptimalSolver::default().certify(&g, &machine);
        let opt = cold.optimal_ii().expect("chain solves exactly");
        let seeded = OptimalSolver::default().certify_with_incumbent(&g, &machine, Some(opt));
        assert_eq!(seeded.verdict, cold.verdict);
    }

    #[test]
    fn bus_bandwidth_refutes_the_mii_via_the_partition_relaxation() {
        // One producer broadcasting to 7 consumers on the 4-cluster machine:
        // ResMII = 2 (8 int ops over 4 ALUs), but at II = 2 every cluster is
        // packed with exactly 2 ops, so the value must reach 3 foreign
        // clusters over the single bus's 2 columns — the partition relaxation
        // refutes II = 2 outright and the solver pins the optimum at 3.
        let machine = MachineConfig::four_cluster(1, 1);
        let mut g = DepGraph::new("broadcast");
        let a = g.add_node(OpClass::IntAlu);
        for _ in 0..7 {
            let b = g.add_node(OpClass::IntAlu);
            g.add_edge(a, b, 1, 0, DepKind::Flow);
        }
        let cert = OptimalSolver::default().certify(&g, &machine);
        assert_eq!(cert.mii, 2);
        assert_eq!(cert.verdict, OptVerdict::Optimal { ii: 3 });
        assert_eq!(cert.gap_to(3), Some(0));
        assert!(
            cert.violated_by(2),
            "an II below the refuted range must violate"
        );
    }

    #[test]
    fn certificates_roundtrip_through_json() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = chain(5, 1);
        let cert = OptimalSolver::default().certify(&g, &machine);
        let json = serde_json::to_string(&cert).unwrap();
        let back: OptCertificate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cert);
    }
}
