//! The Basic Scheduling Algorithm (BSA) — Figure 5 of the paper.
//!
//! BSA is a *unified assign-and-schedule* modulo scheduler: for every node (visited in
//! Swing Modulo Scheduling order) the algorithm tries every cluster, measures how many
//! outgoing cross-cluster edges the cluster would be left with, and commits the node to
//! the most profitable feasible cluster together with its cycle, functional unit and
//! any bus transfers the placement needs.  Cluster choice and cycle choice therefore
//! inform each other, which is the paper's key difference from the earlier two-phase
//! (assign, then schedule) approaches.
//!
//! Since the engine refactor the II search, ordering fallbacks, scratch reuse and
//! register checking all live in the shared [`vliw_sms::IiSearchDriver`]; this module only
//! contains [`BsaPolicy`] — the cluster-selection strategy of Figure 5:
//!
//! 1. nodes that start a new connected subgraph rotate the *default cluster*;
//! 2. every cluster with a free slot (functional unit + buses + registers) is tried
//!    (via [`EngineView::probe`]) and its **profit** computed — the reduction in
//!    outgoing edges of that cluster;
//! 3. among the clusters with the best profit: a single candidate wins outright; then a
//!    candidate already holding a predecessor or successor of the node; then the
//!    default cluster; finally the candidate with the lowest register requirements;
//! 4. if no cluster is feasible the engine increases the initiation interval and
//!    restarts the whole schedule.

use vliw_arch::MachineConfig;
use vliw_ddg::{DepGraph, NodeId};
use vliw_sms::{ClusterPolicy, EngineView, Trial};

/// One feasible trial together with its communication profit.
#[derive(Debug, Clone)]
struct ScoredTrial {
    trial: Trial,
    /// Profit: outgoing cross-cluster edges saved by placing the node here.
    profit: i64,
}

/// The cluster-selection strategy of Figure 5, as a [`ClusterPolicy`] on the shared
/// engine.
#[derive(Debug, Clone)]
pub struct BsaPolicy {
    /// The rotating default cluster (Figure 5, step 2).
    defcluster: usize,
    /// Feasible per-cluster trials of the node currently being placed (buffer reused
    /// across nodes).
    trials: Vec<ScoredTrial>,
    /// Cluster count of the machine of the current attempt.
    n_clusters: usize,
    /// Memoized `profit_of(graph, assignment, n, c)` for every (node, cluster),
    /// flat `[node × n_clusters]`.  The assignment only ever changes by one node
    /// per engine commit, so the table is delta-updated in O(degree of the
    /// committed node) instead of recomputed per trial: committing `m` to `c`
    /// raises by one the profit on `c` of every value neighbour of `m` (an
    /// incoming edge from `m` stops leaving `c`, an outgoing edge to `m` stops
    /// being cross-cluster).  Initial value: −(out value degree), since nothing
    /// is assigned yet.
    profit: Vec<i64>,
    /// The trial returned by the previous `select_placement`, folded into the
    /// table once the engine's commit shows up in `view.assignment()`.
    pending: Option<(NodeId, usize)>,
}

impl BsaPolicy {
    /// A fresh policy (state resets at every attempt anyway).
    pub fn new() -> Self {
        Self {
            defcluster: 0,
            trials: Vec::new(),
            n_clusters: 0,
            profit: Vec::new(),
            pending: None,
        }
    }

    /// Fold the engine's commit of node `m` to cluster `c` into the profit table.
    fn fold_commit(&mut self, graph: &DepGraph, m: NodeId, c: usize) {
        let k = self.n_clusters;
        for e in graph.out_edges(m) {
            if e.kind.carries_value() && e.dst != m {
                self.profit[e.dst.index() * k + c] += 1;
            }
        }
        for e in graph.in_edges(m) {
            if e.kind.carries_value() && e.src != m {
                self.profit[e.src.index() * k + c] += 1;
            }
        }
    }
}

impl Default for BsaPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterPolicy for BsaPolicy {
    fn fork(&self) -> Option<Box<dyn ClusterPolicy + Send>> {
        // `begin_attempt` resets the rotation, the profit table and the pending
        // commit, and `trials` is cleared per node.
        Some(Box::new(self.clone()))
    }

    fn begin_attempt(&mut self, graph: &DepGraph, machine: &MachineConfig, _ii: u32) {
        // Figure 5 initialises the default cluster before the loop; starting at the
        // last cluster makes the first new subgraph use cluster 0.
        self.defcluster = machine.n_clusters - 1;
        // Rebuild the profit table for the empty assignment: every out value edge
        // of a node is cross-cluster wherever the node goes, nothing is saved yet.
        self.n_clusters = machine.n_clusters;
        self.pending = None;
        self.profit.clear();
        self.profit.resize(graph.n_nodes() * machine.n_clusters, 0);
        for node in graph.node_ids() {
            let outs = graph
                .out_edges(node)
                .filter(|e| e.kind.carries_value() && e.dst != node)
                .count() as i64;
            if outs != 0 {
                let row = &mut self.profit
                    [node.index() * machine.n_clusters..(node.index() + 1) * machine.n_clusters];
                row.fill(-outs);
            }
        }
    }

    fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
        let n_clusters = view.machine().n_clusters;

        // Catch up with the engine: the trial returned last time is committed by
        // now (visible in the assignment); fold it into the profit table.
        if let Some((m, c)) = self.pending.take() {
            if view.assignment()[m.index()] == Some(c) {
                self.fold_commit(view.graph(), m, c);
            }
        }

        // (2) New subgraph: rotate the default cluster.
        if view.starts_new_subgraph(node) {
            self.defcluster = (self.defcluster + 1) % n_clusters;
        }

        // (3) Try the node on every cluster.
        self.trials.clear();
        let mut node_bus_blocked = false;
        for cluster in 0..n_clusters {
            let probe = view.probe(node, cluster);
            match probe.trial {
                Some(trial) => {
                    let profit = self.profit[node.index() * n_clusters + cluster];
                    debug_assert_eq!(
                        profit,
                        profit_of(view.graph(), view.assignment(), node, cluster),
                        "memoized profit diverged for {node} on cluster {cluster}"
                    );
                    self.trials.push(ScoredTrial { trial, profit });
                }
                // A cluster counts as bus-blocked only when its whole cycle scan
                // failed with a bus saturation (a register rejection wins over an
                // earlier bus rejection, exactly as in Figure 5's accounting).
                None if !probe.register_blocked && probe.saw_bus_block => node_bus_blocked = true,
                None => {}
            }
        }
        if node_bus_blocked {
            view.record_bus_failure();
        }

        // (4) Keep only the clusters with the best profit.
        let best_profit = self.trials.iter().map(|t| t.profit).max()?;
        let is_best = |t: &ScoredTrial| t.profit == best_profit;
        let n_best = self.trials.iter().filter(|t| is_best(t)).count();

        // (6)-(9) Choose among the candidates (all with the best profit): a single
        // candidate wins outright; then one already holding a neighbour of the
        // node; then the default cluster; finally the lowest register pressure,
        // which the engine computes only for the candidates that get this far.
        let chosen_idx = if n_best == 1 {
            self.trials.iter().position(is_best).expect("n_best == 1")
        } else if let Some(i) = self.trials.iter().position(|t| {
            is_best(t)
                && cluster_holds_neighbour(view.graph(), view.assignment(), node, t.trial.cluster)
        }) {
            i
        } else if let Some(i) = self
            .trials
            .iter()
            .position(|t| is_best(t) && t.trial.cluster == self.defcluster)
        {
            i
        } else {
            self.trials
                .iter()
                .enumerate()
                .filter(|(_, t)| is_best(t))
                .min_by_key(|(_, t)| (view.max_live(&t.trial), t.trial.cluster))
                .expect("candidates non-empty")
                .0
        };

        // (10) The engine commits the chosen trial; fold it into the profit table
        // at the next call, once the commit is visible in the assignment.
        let trial = self.trials.swap_remove(chosen_idx).trial;
        self.pending = Some((node, trial.cluster));
        Some(trial)
    }
}

/// Profit of putting `node` on `cluster` (Figure 5, fragment 3): the outgoing
/// cross-cluster edge count of the cluster *before* minus *after* the hypothetical
/// placement.  Higher is better; the value is usually ≤ 0 for nodes with no
/// neighbours in the cluster and > −(out-degree) when neighbours are present.
///
/// Only edges incident to `node` change between the two counts (the node is the
/// only assignment that differs), so the difference is computed directly from the
/// node's adjacency in O(degree) instead of scanning the whole edge list twice:
/// every value edge arriving from a node already in `cluster` stops leaving the
/// cluster (+1), and every value edge towards a node *not* in `cluster` — placed
/// elsewhere or still unscheduled, exactly as the paper counts "the rest of the
/// nodes" — starts leaving it (−1).
fn profit_of(graph: &DepGraph, assignment: &[Option<usize>], node: NodeId, cluster: usize) -> i64 {
    let saved = graph
        .in_edges(node)
        .filter(|e| e.kind.carries_value() && e.src != node)
        .filter(|e| assignment[e.src.index()] == Some(cluster))
        .count() as i64;
    let added = graph
        .out_edges(node)
        .filter(|e| e.kind.carries_value() && e.dst != node)
        .filter(|e| assignment[e.dst.index()] != Some(cluster))
        .count() as i64;
    saved - added
}

/// Whether `cluster` already holds a direct predecessor or successor of `node`.
fn cluster_holds_neighbour(
    graph: &DepGraph,
    assignment: &[Option<usize>],
    node: NodeId,
    cluster: usize,
) -> bool {
    graph
        .predecessors(node)
        .chain(graph.successors(node))
        .filter(|&n| n != node)
        .any(|n| assignment[n.index()] == Some(cluster))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoopScheduler, Policy, Scheduler};
    use vliw_arch::{BusConfig, ClusterConfig, LatencyModel, OpClass};
    use vliw_ddg::{DepKind, GraphBuilder};
    use vliw_sms::{ModuloSchedule, ScheduleError};

    fn bsa(machine: &MachineConfig) -> Scheduler {
        Scheduler::new(Policy::Bsa, machine)
    }

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

    /// A wider loop body: two independent computation strands plus a reduction.
    fn wide_loop() -> DepGraph {
        GraphBuilder::new("wide")
            .iterations(500)
            .node("l0", OpClass::Load)
            .node("l1", OpClass::Load)
            .node("l2", OpClass::Load)
            .node("l3", OpClass::Load)
            .node("m0", OpClass::FpMul)
            .node("m1", OpClass::FpMul)
            .node("a0", OpClass::FpAdd)
            .node("a1", OpClass::FpAdd)
            .node("acc", OpClass::FpAdd)
            .node("s0", OpClass::Store)
            .node("s1", OpClass::Store)
            .flow("l0", "m0")
            .flow("l1", "m0")
            .flow("l2", "m1")
            .flow("l3", "m1")
            .flow("m0", "a0")
            .flow("m1", "a1")
            .flow("a0", "s0")
            .flow("a1", "s1")
            .flow("m0", "acc")
            .flow_at("acc", "acc", 1)
            .build()
    }

    fn assert_valid(graph: &DepGraph, sched: &ModuloSchedule, machine: &MachineConfig) {
        use std::collections::HashSet;
        assert!(sched.is_complete());
        // Dependences (with bus latency for cross-cluster value edges).
        for e in graph.edges() {
            let pu = sched.placement(e.src).unwrap();
            let pv = sched.placement(e.dst).unwrap();
            let mut lat = e.latency as i64;
            if e.kind.carries_value() && e.src != e.dst && pu.cluster != pv.cluster {
                lat += machine.buses.latency as i64;
            }
            assert!(
                pv.cycle >= pu.cycle + lat - sched.ii() as i64 * e.distance as i64,
                "edge {}->{} violated (II={})",
                graph.node(e.src).label(),
                graph.node(e.dst).label(),
                sched.ii()
            );
        }
        // FU conflicts.
        let mut used = HashSet::new();
        for p in sched.placements() {
            assert!(used.insert((p.fu, p.cycle.rem_euclid(sched.ii() as i64))));
        }
        // Bus conflicts: each (bus, column) used at most once.
        let mut bus_used = HashSet::new();
        for c in sched.comms() {
            for d in 0..c.duration {
                let col = (c.start_cycle + d as i64).rem_euclid(sched.ii() as i64);
                assert!(
                    bus_used.insert((c.bus, col)),
                    "bus {:?} double-booked at column {col}",
                    c.bus
                );
            }
        }
        // A cross-cluster flow edge must be backed by a communication of its value to
        // the consumer's cluster.
        for e in graph
            .edges()
            .filter(|e| e.kind.carries_value() && e.src != e.dst)
        {
            let pu = sched.placement(e.src).unwrap();
            let pv = sched.placement(e.dst).unwrap();
            if pu.cluster != pv.cluster {
                assert!(
                    sched
                        .comms()
                        .iter()
                        .any(|c| c.src_node == e.src && c.to_cluster == pv.cluster),
                    "missing communication for {}->{}",
                    graph.node(e.src).label(),
                    graph.node(e.dst).label()
                );
            }
        }
    }

    #[test]
    fn saxpy_on_two_clusters_matches_unified_ii() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = saxpy();
        let sched = bsa(&machine).schedule(&g).unwrap();
        assert_valid(&g, &sched, &machine);
        let unified = Policy::UnifiedSms.schedule(&machine, &g).unwrap().schedule;
        assert_eq!(
            sched.ii(),
            unified.ii(),
            "clustered II should match unified"
        );
    }

    #[test]
    fn wide_loop_schedules_on_every_paper_configuration() {
        let g = wide_loop();
        for machine in [
            MachineConfig::two_cluster(1, 1),
            MachineConfig::two_cluster(2, 1),
            MachineConfig::two_cluster(1, 2),
            MachineConfig::four_cluster(1, 1),
            MachineConfig::four_cluster(2, 2),
            MachineConfig::four_cluster(1, 4),
        ] {
            let sched = bsa(&machine).schedule(&g).unwrap();
            assert_valid(&g, &sched, &machine);
        }
    }

    #[test]
    fn connected_nodes_prefer_the_same_cluster() {
        // The profit heuristic keeps neighbours together: the 5-op saxpy chain reaches
        // the unified II (here 1, bounded by the 3 memory ops on 4 memory units) with
        // at most one value crossing clusters (the body has 4 value edges, so a naive
        // assignment could easily need 2 or more).
        let machine = MachineConfig::two_cluster(2, 1);
        let g = saxpy();
        let sched = bsa(&machine).schedule(&g).unwrap();
        assert_valid(&g, &sched, &machine);
        let unified = Policy::UnifiedSms.schedule(&machine, &g).unwrap().schedule;
        assert_eq!(sched.ii(), unified.ii());
        assert!(
            sched.comms().len() <= 1,
            "expected at most one communication, got {}",
            sched.comms().len()
        );
    }

    #[test]
    fn disconnected_subgraphs_rotate_clusters() {
        // Two independent chains on a 2-cluster machine: the default-cluster rotation
        // sends them to different clusters, and no communication is needed.
        let machine = MachineConfig::two_cluster(1, 1);
        let g = GraphBuilder::new("two-chains")
            .node("a1", OpClass::Load)
            .node("a2", OpClass::FpMul)
            .node("a3", OpClass::Store)
            .node("b1", OpClass::Load)
            .node("b2", OpClass::FpMul)
            .node("b3", OpClass::Store)
            .flow("a1", "a2")
            .flow("a2", "a3")
            .flow("b1", "b2")
            .flow("b2", "b3")
            .build();
        let sched = bsa(&machine).schedule(&g).unwrap();
        assert_valid(&g, &sched, &machine);
        let cluster_a = sched.cluster_of(g.node_ids().next().unwrap()).unwrap();
        let cluster_b = sched.cluster_of(vliw_ddg::NodeId(3)).unwrap();
        assert_ne!(cluster_a, cluster_b);
        assert_eq!(sched.comms().len(), 0);
    }

    #[test]
    fn unrolled_iterations_land_on_different_clusters() {
        // The behaviour the paper builds on: unrolling a dependence-free body by the
        // number of clusters lets BSA put each copy on its own cluster.
        let machine = MachineConfig::two_cluster(1, 1);
        let g = saxpy();
        let unrolled = vliw_ddg::unroll(&g, 2);
        let sched = bsa(&machine).schedule(&unrolled).unwrap();
        assert_valid(&unrolled, &sched, &machine);
        let copy0_cluster = sched.cluster_of(vliw_ddg::NodeId(0)).unwrap();
        let copy1_cluster = sched
            .cluster_of(vliw_ddg::NodeId(g.n_nodes() as u32))
            .unwrap();
        assert_ne!(copy0_cluster, copy1_cluster);
        assert_eq!(sched.comms().len(), 0);
    }

    #[test]
    fn figure7_example_unrolling_hides_communications() {
        // The worked example of Figure 7: 6 unit-latency ops, 2 clusters with two
        // general-purpose (modelled as integer) units each, one 1-cycle bus.
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
        // MII is 2 (ResMII = 6/4, RecMII = 3/2); the paper shows the non-unrolled loop
        // needs II = 3 on this machine while the unrolled-by-2 loop reaches its minimum
        // II of 4 (i.e. 2 per original iteration).
        let scheduler = bsa(&machine);
        let plain = scheduler.schedule(&g).unwrap();
        assert_valid(&g, &plain, &machine);
        assert!(plain.ii() >= 2);
        let unrolled = vliw_ddg::unroll(&g, 2);
        let unrolled_sched = scheduler.schedule(&unrolled).unwrap();
        assert_valid(&unrolled, &unrolled_sched, &machine);
        // Per original iteration the unrolled schedule must be at least as good.
        assert!(
            (unrolled_sched.ii() as f64) / 2.0 <= plain.ii() as f64 + 1e-9,
            "unrolled II {} vs plain II {}",
            unrolled_sched.ii(),
            plain.ii()
        );
    }

    #[test]
    fn bus_latency_hurts_only_when_communication_is_needed() {
        // A loop too wide for one cluster (forces communication): higher bus latency
        // must never *reduce* the II.
        let g = wide_loop();
        let fast = bsa(&MachineConfig::four_cluster(1, 1))
            .schedule(&g)
            .unwrap();
        let slow = bsa(&MachineConfig::four_cluster(1, 4))
            .schedule(&g)
            .unwrap();
        assert!(slow.ii() >= fast.ii());
    }

    #[test]
    fn more_buses_never_hurt() {
        let g = wide_loop();
        let one_bus = bsa(&MachineConfig::four_cluster(1, 2))
            .schedule(&g)
            .unwrap();
        let two_bus = bsa(&MachineConfig::four_cluster(2, 2))
            .schedule(&g)
            .unwrap();
        assert!(two_bus.ii() <= one_bus.ii());
    }

    #[test]
    fn back_off_path_leaves_no_tentative_state_behind() {
        // The Figure-7 machine (two 2-wide clusters, a single 1-cycle bus) saturates
        // its bus on the Figure-7 loop: the II search fails at MII because placements
        // that find a free functional unit cannot get their communications onto the
        // bus, driving the trial loop through its back-off path.  Since the clone-free
        // rewrite the trial works on the *live* schedule via checkpoint/rollback, so
        // any leak would corrupt later placements (or the next II attempt, which
        // reuses the same reservation table).
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
        let scheduler = bsa(&machine);
        let out = scheduler.schedule_diag(&g).unwrap();
        let first = out.schedule;
        assert_valid(&g, &first, &machine);
        // The back-off path was genuinely taken: the II had to be raised above MII
        // *because of the bus*, which is exactly the `LimitedByBus` predicate.
        assert!(first.ii() > first.mii);
        assert!(out.diagnostics.limited_by_bus());
        // Re-scheduling with the same scheduler and with a fresh one must agree —
        // this catches state leaking across the reused scratch buffers.
        let second = scheduler.schedule(&g).unwrap();
        assert_eq!(first, second);
        let fresh = bsa(&machine).schedule(&g).unwrap();
        assert_eq!(first, fresh);
        // And a trial that *does* commit communications still rolls back cleanly on
        // the clusters it rejects: the unrolled body schedules with real transfers.
        let unrolled = vliw_ddg::unroll(&g, 2);
        let usched = scheduler.schedule(&unrolled).unwrap();
        assert_valid(&unrolled, &usched, &machine);
    }

    #[test]
    fn a_roomier_register_file_never_raises_ii() {
        let machine = MachineConfig::four_cluster(1, 1);
        let g = wide_loop();
        let mut roomy = machine.clone();
        roomy.cluster.registers = 1 << 20;
        let relaxed = bsa(&roomy);
        let strict = bsa(&machine);
        let r = relaxed.schedule(&g).unwrap();
        let s = strict.schedule(&g).unwrap();
        assert!(s.ii() >= r.ii());
    }

    /// What the target node's placement looked like in the last attempt: per
    /// feasible cluster its profit, whether it holds a neighbour and its
    /// `MaxLive`, plus the default cluster and the cluster BSA chose.
    #[derive(Debug, Default)]
    struct Decision {
        feasible: Vec<(usize, i64, bool, u32)>,
        defcluster: usize,
        chosen: usize,
    }

    /// Runs [`BsaPolicy`] and, for `target`, re-probes every cluster after BSA
    /// decided (probes leave no trace) to record what step 9 saw.
    struct Step9Spy {
        inner: BsaPolicy,
        target: NodeId,
        decision: Option<Decision>,
    }

    impl ClusterPolicy for Step9Spy {
        fn begin_attempt(&mut self, graph: &DepGraph, machine: &MachineConfig, ii: u32) {
            self.decision = None;
            self.inner.begin_attempt(graph, machine, ii);
        }

        fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
            let trial = self.inner.select_placement(node, view)?;
            if node == self.target {
                let (graph, assignment) = (view.graph(), view.assignment());
                let feasible = (0..view.machine().n_clusters)
                    .filter_map(|c| {
                        let t = view.probe(node, c).trial?;
                        let profit = profit_of(graph, assignment, node, c);
                        let neighbour = cluster_holds_neighbour(graph, assignment, node, c);
                        Some((c, profit, neighbour, view.max_live(&t)))
                    })
                    .collect();
                self.decision = Some(Decision {
                    feasible,
                    defcluster: self.inner.defcluster,
                    chosen: trial.cluster,
                });
            }
            Some(trial)
        }
    }

    /// Figure 5's last tie-break decides: `p` feeds `x`, which BSA put on cluster
    /// 1 (the default cluster of their subgraph), and at II 1 cluster 1 has no
    /// integer unit left for `p`.  Clusters 0 and 2 tie on profit, neither holds
    /// a neighbour of `p` and neither is the default cluster, so the lower
    /// `MaxLive` wins: cluster 2, although cluster order alone would pick the
    /// cluster 0 that already holds the load's long-lived value.
    #[test]
    fn the_lower_register_requirement_breaks_the_last_tie() {
        let machine = MachineConfig::new(
            "step9",
            3,
            ClusterConfig::new(1, 1, 1, 32),
            BusConfig::new(1, 1),
            LatencyModel::table1(),
        );
        let g = GraphBuilder::new("step9")
            .node("ld", OpClass::Load)
            .node("add", OpClass::FpAdd)
            .node("p", OpClass::IntAlu)
            .node("x", OpClass::IntAlu)
            .flow("ld", "add")
            .flow("p", "x")
            .build();
        let mut spy = Step9Spy {
            inner: BsaPolicy::new(),
            target: NodeId(2),
            decision: None,
        };
        let out = vliw_sms::IiSearchDriver::new(&machine)
            .schedule(&g, &mut spy)
            .unwrap();
        assert_eq!(out.schedule.ii(), 1);
        assert_eq!(out.schedule.cluster_of(NodeId(0)), Some(0));
        assert_eq!(out.schedule.cluster_of(NodeId(3)), Some(1));
        let d = spy.decision.expect("p was placed");
        let best = d.feasible.iter().map(|f| f.1).max().unwrap();
        let tied: Vec<_> = d.feasible.iter().filter(|f| f.1 == best).collect();
        assert_eq!(
            tied.iter().map(|f| f.0).collect::<Vec<_>>(),
            [0, 2],
            "{d:?}"
        );
        assert!(
            tied.iter().all(|f| !f.2),
            "a tied cluster holds a neighbour: {d:?}"
        );
        assert!(tied.iter().all(|f| f.0 != d.defcluster), "{d:?}");
        assert!(tied[1].3 < tied[0].3, "{d:?}");
        assert_eq!(d.chosen, 2, "{d:?}");
        assert_eq!(out.schedule.cluster_of(NodeId(2)), Some(2));
    }

    #[test]
    fn invalid_graph_is_rejected() {
        let machine = MachineConfig::two_cluster(1, 1);
        let mut g = DepGraph::new("bad");
        let a = g.add_node(OpClass::IntAlu);
        g.add_edge(a, a, 1, 0, DepKind::Flow);
        assert!(matches!(
            bsa(&machine).schedule(&g),
            Err(ScheduleError::InvalidGraph(_))
        ));
    }

    #[test]
    fn empty_graph_schedules() {
        let machine = MachineConfig::four_cluster(1, 1);
        let sched = bsa(&machine).schedule(&DepGraph::new("empty")).unwrap();
        assert!(sched.is_complete());
    }

    #[test]
    fn loop_scheduler_trait_name() {
        let machine = MachineConfig::two_cluster(1, 1);
        let scheduler = bsa(&machine);
        assert_eq!(scheduler.policy(), Policy::Bsa);
        assert_eq!(LoopScheduler::machine(&scheduler), &machine);
    }
}
