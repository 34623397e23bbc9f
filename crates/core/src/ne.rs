//! The two-phase baseline: cluster assignment first, scheduling second.
//!
//! This reproduces the approach of Nystrom & Eichenberger (MICRO'98) that the paper
//! compares against in Figure 4: a first phase partitions the dependence graph across
//! the clusters, and a second phase modulo-schedules every node on its pre-assigned
//! cluster.  If the second phase fails, the initiation interval is incremented and
//! *both* phases are redone ("If any of them fails, the algorithm is re-started by
//! incrementing the initiation interval").
//!
//! The assignment phase follows the published heuristics at the level of detail the
//! paper relies on:
//!
//! * nodes of a recurrence are assigned **as a unit**, so loop-carried dependences
//!   never cross clusters (the aspect N&E emphasise);
//! * super-nodes (recurrences and remaining single nodes) are visited in topological
//!   order of the condensation and placed on the cluster that maximises the number of
//!   value edges to already-assigned nodes in that cluster (minimising the cut), with
//!   the least-loaded cluster as tie-break;
//! * a cluster is only eligible while its estimated functional-unit usage stays within
//!   `fu_count × II` slots per kind ("the negative impact of aggressively filling
//!   clusters" is avoided by capping the load at a fraction of the capacity, as N&E
//!   do); the cap is relaxed if no cluster is eligible.
//!
//! The scheduling phase is the shared engine ([`vliw_sms::IiSearchDriver`]) with the cluster
//! forced through [`NePolicy`] (a [`FixedAssignmentPolicy`] whose assignment is
//! recomputed at every candidate II, since the fill cap depends on the II); the
//! crucial difference — and the one responsible for the Figure 4 gap — is that the
//! assignment was made without seeing the partial schedule or the bus occupancy.

use vliw_arch::{FuKind, MachineConfig};
use vliw_ddg::{sccs, DepGraph, NodeId};
use vliw_sms::{ClusterPolicy, EngineView, FixedAssignmentPolicy, Trial};

/// Fraction of a cluster's capacity the assignment phase is willing to fill before
/// looking at other clusters (N&E avoid aggressively filling clusters).
const FILL_CAP: f64 = 0.85;

/// The [`ClusterPolicy`] of the two-phase baseline: recompute the phase-1 assignment
/// at every candidate II, then force each node onto its assigned cluster.
/// Per-cluster register pressure is checked during scheduling, as in BSA.
#[derive(Debug, Clone)]
pub struct NePolicy {
    /// The SCC condensation in topological order: it depends only on the graph, so
    /// it is computed once per loop, not once per II.
    components: Vec<Vec<NodeId>>,
    fixed: FixedAssignmentPolicy,
}

impl NePolicy {
    /// The two-phase policy for scheduling `graph`.
    pub fn new(graph: &DepGraph) -> Self {
        Self {
            components: topological_components(graph),
            fixed: FixedAssignmentPolicy::new(Vec::new()),
        }
    }
}

impl ClusterPolicy for NePolicy {
    fn begin_ii(&mut self, graph: &DepGraph, machine: &MachineConfig, ii: u32) {
        // Phase 1 is redone at every II, exactly as N&E restart both phases when
        // scheduling fails (the fill cap depends on the II; the condensation does not).
        self.fixed
            .set_assignment(assign_components(machine, graph, &self.components, ii));
    }

    fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
        self.fixed.select_placement(node, view)
    }

    fn fork(&self) -> Option<Box<dyn ClusterPolicy + Send>> {
        // The condensation depends only on the graph, and `begin_ii` recomputes
        // the assignment.
        Some(Box::new(self.clone()))
    }
}

/// Phase 1: partition the nodes of `graph` across the clusters of `machine` at
/// initiation interval `ii` (see module docs).
pub fn assign_clusters(machine: &MachineConfig, graph: &DepGraph, ii: u32) -> Vec<usize> {
    assign_components(machine, graph, &topological_components(graph), ii)
}

/// [`assign_clusters`] over a precomputed condensation (the SCCs in topological
/// order), so an II search derives it once instead of per retry.
fn assign_components(
    machine: &MachineConfig,
    graph: &DepGraph,
    components: &[Vec<NodeId>],
    ii: u32,
) -> Vec<usize> {
    let n_clusters = machine.n_clusters;
    let mut assignment = vec![usize::MAX; graph.n_nodes()];
    if n_clusters <= 1 {
        // Zero clusters is rejected by the engine before any policy runs; one
        // cluster has a single possible assignment.  Either way there is nothing
        // to partition (and the affinity selection below would have no candidate).
        return vec![0; graph.n_nodes()];
    }

    // Per-cluster, per-kind load (in reservation slots) and capacity.
    let mut load = vec![[0usize; 3]; n_clusters];
    let capacity: [usize; 3] = [
        machine.cluster.fu_count(FuKind::Int) * ii as usize,
        machine.cluster.fu_count(FuKind::Fp) * ii as usize,
        machine.cluster.fu_count(FuKind::Mem) * ii as usize,
    ];
    let mut affinity = vec![0i64; n_clusters];

    for component in components {
        // Demand of the whole component.
        let mut demand = [0usize; 3];
        for &n in component {
            demand[graph.node(n).class.fu_kind().index()] += 1;
        }

        // Affinity: value edges between the component and nodes already assigned to
        // each cluster (either direction).  The component's own nodes are still
        // unassigned, so edges inside it never count.
        affinity.fill(0);
        for &n in component {
            let outgoing = graph.out_edges(n).map(|e| (e, e.dst));
            let incoming = graph.in_edges(n).map(|e| (e, e.src));
            for (e, other) in outgoing.chain(incoming) {
                let c = assignment[other.index()];
                if e.kind.carries_value() && c != usize::MAX {
                    affinity[c] += 1;
                }
            }
        }

        // Eligible clusters: those that stay under the fill cap for every kind.
        let eligible = |c: usize, relaxed: bool| {
            (0..3).all(|k| {
                if capacity[k] == 0 {
                    return demand[k] == 0;
                }
                let cap = if relaxed {
                    capacity[k]
                } else {
                    (((capacity[k] as f64) * FILL_CAP).floor() as usize).max(1)
                };
                load[c][k] + demand[k] <= cap
            })
        };
        let best = |filter: &dyn Fn(usize) -> bool| {
            (0..n_clusters).filter(|&c| filter(c)).max_by_key(|&c| {
                let total_load: i64 = load[c].iter().sum::<usize>() as i64;
                (affinity[c], -total_load, -(c as i64))
            })
        };
        let chosen = best(&|c| eligible(c, false))
            .or_else(|| best(&|c| eligible(c, true)))
            .or_else(|| best(&|_| true))
            .expect("at least two clusters");

        for &n in component {
            assignment[n.index()] = chosen;
            load[chosen][graph.node(n).class.fu_kind().index()] += 1;
        }
    }
    assignment
}

/// Super-nodes: the SCCs in topological order of the condensation (sources first), so
/// most value producers are assigned before their consumers.
fn topological_components(graph: &DepGraph) -> Vec<Vec<NodeId>> {
    let mut components = sccs(graph);
    components.reverse();
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoopScheduler, Policy, Scheduler};
    use vliw_arch::OpClass;
    use vliw_ddg::GraphBuilder;

    /// The original phase-1 partition, kept as the reference the adjacency-indexed
    /// one must equal: its affinity step scans every graph edge per candidate
    /// cluster.
    fn naive_assign_clusters(machine: &MachineConfig, graph: &DepGraph, ii: u32) -> Vec<usize> {
        let n_clusters = machine.n_clusters;
        let mut assignment = vec![usize::MAX; graph.n_nodes()];
        if n_clusters <= 1 {
            return vec![0; graph.n_nodes()];
        }
        let mut components = sccs(graph);
        components.reverse();
        let mut load = vec![[0usize; 3]; n_clusters];
        let capacity: [usize; 3] = [
            machine.cluster.fu_count(FuKind::Int) * ii as usize,
            machine.cluster.fu_count(FuKind::Fp) * ii as usize,
            machine.cluster.fu_count(FuKind::Mem) * ii as usize,
        ];
        for component in components {
            let mut demand = [0usize; 3];
            for &n in &component {
                demand[graph.node(n).class.fu_kind().index()] += 1;
            }
            let eligible = |relaxed: bool| -> Vec<usize> {
                (0..n_clusters)
                    .filter(|&c| {
                        (0..3).all(|k| {
                            if capacity[k] == 0 {
                                return demand[k] == 0;
                            }
                            let cap = if relaxed {
                                capacity[k]
                            } else {
                                (((capacity[k] as f64) * FILL_CAP).floor() as usize).max(1)
                            };
                            load[c][k] + demand[k] <= cap
                        })
                    })
                    .collect()
            };
            let mut candidates = eligible(false);
            if candidates.is_empty() {
                candidates = eligible(true);
            }
            if candidates.is_empty() {
                candidates = (0..n_clusters).collect();
            }
            let chosen = candidates
                .iter()
                .copied()
                .max_by_key(|&c| {
                    let affinity: i64 = graph
                        .edges()
                        .filter(|e| e.kind.carries_value())
                        .filter(|e| {
                            let src_in = component.contains(&e.src);
                            let dst_in = component.contains(&e.dst);
                            (src_in && assignment[e.dst.index()] == c)
                                || (dst_in && assignment[e.src.index()] == c)
                        })
                        .count() as i64;
                    let total_load: i64 = load[c].iter().sum::<usize>() as i64;
                    (affinity, -total_load, -(c as i64))
                })
                .expect("candidates non-empty");
            for &n in &component {
                assignment[n.index()] = chosen;
                load[chosen][graph.node(n).class.fu_kind().index()] += 1;
            }
        }
        assignment
    }

    /// The adjacency-indexed partition equals the edge-scan reference on every corpus
    /// loop, raw and unrolled by the cluster count (the bodies the `ByClusters` and
    /// `Selective` policies schedule), across IIs from fully saturated to roomy.
    #[test]
    fn partition_matches_the_edge_scan_reference_on_the_corpus() {
        let corpora = vliw_workloads::LoopCorpus::all();
        let mut checked = 0;
        for machine in [
            MachineConfig::two_cluster(1, 1),
            MachineConfig::four_cluster(2, 2),
        ] {
            for graph in corpora.iter().flat_map(|c| &c.loops) {
                let unrolled = vliw_ddg::unroll(graph, machine.n_clusters as u32);
                for g in [graph, &unrolled] {
                    for ii in [1, 2, 3, 5, 8, 13, 21, 34, 65, 135] {
                        assert_eq!(
                            assign_clusters(&machine, g, ii),
                            naive_assign_clusters(&machine, g, ii),
                            "{} ({} nodes) on {} clusters at II {ii}",
                            g.name,
                            g.n_nodes(),
                            machine.n_clusters
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} partitions compared");
    }

    fn two_independent_chains() -> DepGraph {
        GraphBuilder::new("chains")
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
            .build()
    }

    #[test]
    fn assignment_keeps_recurrences_together() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = GraphBuilder::new("rec")
            .node("a", OpClass::FpAdd)
            .node("b", OpClass::FpMul)
            .node("c", OpClass::Load)
            .flow("a", "b")
            .flow_at("b", "a", 1)
            .flow("c", "a")
            .build();
        let assignment = assign_clusters(&machine, &g, 7);
        // a and b form a recurrence: same cluster.
        assert_eq!(assignment[0], assignment[1]);
    }

    #[test]
    fn assignment_covers_every_node_with_a_valid_cluster() {
        let machine = MachineConfig::four_cluster(1, 1);
        let g = two_independent_chains();
        let assignment = assign_clusters(&machine, &g, 2);
        assert_eq!(assignment.len(), g.n_nodes());
        assert!(assignment.iter().all(|&c| c < machine.n_clusters));
    }

    #[test]
    fn single_cluster_machine_assigns_everything_to_cluster_zero() {
        let machine = MachineConfig::unified();
        let g = two_independent_chains();
        let assignment = assign_clusters(&machine, &g, 1);
        assert!(assignment.iter().all(|&c| c == 0));
    }

    #[test]
    fn connected_nodes_attract_each_other() {
        let machine = MachineConfig::two_cluster(2, 1);
        let g = two_independent_chains();
        let assignment = assign_clusters(&machine, &g, 3);
        // Each chain should stay within one cluster (affinity beats balance for these
        // tiny loads).
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[1], assignment[2]);
        assert_eq!(assignment[3], assignment[4]);
        assert_eq!(assignment[4], assignment[5]);
    }

    #[test]
    fn schedules_respect_dependences_and_assignment() {
        let machine = MachineConfig::two_cluster(2, 1);
        let g = two_independent_chains();
        let sched = Policy::NystromEichenberger
            .schedule(&machine, &g)
            .unwrap()
            .schedule;
        assert!(sched.is_complete());
        for e in g.edges() {
            let tu = sched.placement(e.src).unwrap().cycle;
            let tv = sched.placement(e.dst).unwrap().cycle;
            assert!(tv >= tu + e.latency as i64 - sched.ii() as i64 * e.distance as i64);
        }
    }

    #[test]
    fn unified_machine_matches_sms_behaviour() {
        let machine = MachineConfig::unified();
        let g = two_independent_chains();
        let ne_sched = Scheduler::new(Policy::NystromEichenberger, &machine)
            .schedule(&g)
            .unwrap();
        let sms_sched = Scheduler::new(Policy::UnifiedSms, &machine)
            .schedule(&g)
            .unwrap();
        assert_eq!(ne_sched.ii(), sms_sched.ii());
    }

    #[test]
    fn loop_scheduler_trait_name() {
        let machine = MachineConfig::two_cluster(1, 1);
        let ne = Scheduler::new(Policy::NystromEichenberger, &machine);
        assert_eq!(ne.policy(), Policy::NystromEichenberger);
        assert_eq!(LoopScheduler::machine(&ne), &machine);
    }
}
