//! Lower bounds on the initiation interval.
//!
//! * `ResMII` — the resource-constrained minimum II: for every functional-unit kind,
//!   the number of operations of that kind divided by the number of units of that kind
//!   available in the whole machine, rounded up.  Buses are *not* part of `ResMII`
//!   (the paper accounts for them through the scheduling itself).
//! * `RecMII` — the recurrence-constrained minimum II: the smallest II for which no
//!   dependence cycle requires more latency than `II ×` (its total distance).
//!
//! `MII = max(ResMII, RecMII)` is the starting II of every modulo scheduler in this
//! repository, exactly as in the paper ("The minimum II is computed as
//! `max(ResMII, RecMII)`", Section 5.2 example).

use crate::graph::DepGraph;
use vliw_arch::{FuKind, MachineConfig};

/// The first functional-unit kind `graph` uses but `machine` has no unit of, if any.
/// Such a loop fits no II; schedulers turn it into a typed error before searching.
pub fn missing_fu_kind(graph: &DepGraph, machine: &MachineConfig) -> Option<FuKind> {
    let counts = graph.ops_per_fu_kind();
    FuKind::ALL
        .into_iter()
        .find(|&kind| counts[kind.index()] > 0 && machine.total_fus(kind) == 0)
}

/// Resource-constrained minimum initiation interval for `graph` on `machine`.
///
/// The machine-wide number of units of each kind is used (i.e. cluster boundaries are
/// ignored); this matches the paper, where the clustered machine is expected to reach
/// the *same* II as the unified machine whenever communication does not interfere.
///
/// # Panics
///
/// When the graph uses a unit kind the machine lacks (see [`missing_fu_kind`]).
pub fn res_mii(graph: &DepGraph, machine: &MachineConfig) -> u32 {
    if let Some(kind) = missing_fu_kind(graph, machine) {
        panic!("graph uses {kind} units but the machine has none");
    }
    let counts = graph.ops_per_fu_kind();
    let mut best = 1u32;
    for kind in FuKind::ALL {
        let ops = counts[kind.index()];
        if ops > 0 {
            best = best.max(ops.div_ceil(machine.total_fus(kind)) as u32);
        }
    }
    best
}

/// Recurrence-constrained minimum initiation interval.
///
/// Uses a binary search over candidate IIs.  For a candidate II, an edge `u → v`
/// contributes weight `latency − II · distance`; the II is feasible iff the graph has
/// no positive-weight cycle, which is detected with a Bellman-Ford-style longest-path
/// relaxation (n·m work per check).
pub fn rec_mii(graph: &DepGraph) -> u32 {
    if graph.n_nodes() == 0 {
        return 1;
    }
    // Upper bound: the sum of all edge latencies is always feasible (any cycle has
    // distance >= 1, so weight <= sum(lat) - II <= 0 once II reaches that sum).
    let hi_bound: u64 = graph.edges().map(|e| e.latency as u64).sum::<u64>().max(1);
    let mut lo = 1u64;
    let mut hi = hi_bound;
    // Quick exit: acyclic graphs (no loop-carried edge can close a cycle) => RecMII 1.
    if !has_positive_cycle(graph, 1) {
        return 1;
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if has_positive_cycle(graph, mid as u32) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo as u32
}

/// The minimum initiation interval: `max(ResMII, RecMII)`.
pub fn mii(graph: &DepGraph, machine: &MachineConfig) -> u32 {
    res_mii(graph, machine).max(rec_mii(graph))
}

/// Whether `graph` has a dependence cycle with positive total weight
/// `Σ latency − II · Σ distance` under the candidate initiation interval `ii`.
fn has_positive_cycle(graph: &DepGraph, ii: u32) -> bool {
    let n = graph.n_nodes();
    if n == 0 {
        return false;
    }
    // Longest-path Bellman-Ford from a virtual source connected to every node with
    // weight 0.  If any distance still improves after n iterations there is a positive
    // cycle.
    let mut dist = vec![0i64; n];
    for _ in 0..n {
        let mut changed = false;
        for e in graph.edges() {
            let w = e.latency as i64 - (ii as i64) * (e.distance as i64);
            let cand = dist[e.src.index()] + w;
            if cand > dist[e.dst.index()] {
                dist[e.dst.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    // One more relaxation round: any further improvement proves a positive cycle.
    for e in graph.edges() {
        let w = e.latency as i64 - (ii as i64) * (e.distance as i64);
        if dist[e.src.index()] + w > dist[e.dst.index()] {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepGraph, DepKind};
    use vliw_arch::{MachineConfig, OpClass};

    /// The worked example of Figure 7: 6 single-cycle operations, RecMII = ceil(3/2),
    /// ResMII on a 2x2-FU machine = ceil(6/4) = 2.
    fn figure7_graph() -> DepGraph {
        let mut g = DepGraph::new("fig7");
        let a = g.add_named_node(OpClass::IntAlu, Some("A"));
        let b = g.add_named_node(OpClass::IntAlu, Some("B"));
        let c = g.add_named_node(OpClass::IntAlu, Some("C"));
        let d = g.add_named_node(OpClass::IntAlu, Some("D"));
        let e = g.add_named_node(OpClass::IntAlu, Some("E"));
        let f = g.add_named_node(OpClass::IntAlu, Some("F"));
        for (s, t) in [(a, c), (b, c), (c, e), (a, e), (d, f), (a, f)] {
            g.add_edge(s, t, 1, 0, DepKind::Flow);
        }
        // recurrence of length 3 latency over distance 2
        g.add_edge(e, d, 1, 1, DepKind::Flow);
        g.add_edge(d, a, 1, 1, DepKind::Flow);
        g.add_edge(a, e, 1, 0, DepKind::Flow);
        g
    }

    #[test]
    fn res_mii_of_figure7_on_paper_machine() {
        // "two general-purpose functional units per cluster" and 2 clusters: model it
        // as a 4-int-unit unified machine.
        let machine = MachineConfig::new(
            "fig7-machine",
            1,
            vliw_arch::ClusterConfig::new(4, 0, 0, 64),
            vliw_arch::BusConfig::none(),
            vliw_arch::LatencyModel::unit(),
        );
        let g = figure7_graph();
        assert_eq!(res_mii(&g, &machine), 2); // ceil(6/4)
    }

    #[test]
    fn rec_mii_of_figure7_is_two() {
        let g = figure7_graph();
        // cycle E -> D -> A -> E: latency 3 over distance 2 => ceil(3/2) = 2
        assert_eq!(rec_mii(&g), 2);
    }

    #[test]
    fn acyclic_graph_has_rec_mii_one() {
        let mut g = DepGraph::new("chain");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpMul);
        let c = g.add_node(OpClass::Store);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(b, c, 4, 0, DepKind::Flow);
        assert_eq!(rec_mii(&g), 1);
    }

    #[test]
    fn self_recurrence_bound() {
        // An accumulator a += x with fadd latency 3 at distance 1 forces RecMII 3.
        let mut g = DepGraph::new("acc");
        let a = g.add_node(OpClass::FpAdd);
        g.add_edge(a, a, 3, 1, DepKind::Flow);
        assert_eq!(rec_mii(&g), 3);
    }

    #[test]
    fn distance_two_recurrence_halves_the_bound() {
        let mut g = DepGraph::new("acc2");
        let a = g.add_node(OpClass::FpAdd);
        g.add_edge(a, a, 3, 2, DepKind::Flow);
        assert_eq!(rec_mii(&g), 2); // ceil(3/2)
    }

    #[test]
    fn res_mii_uses_the_busiest_fu_kind() {
        let machine = MachineConfig::unified(); // 4 of each kind
        let mut g = DepGraph::new("membound");
        for _ in 0..9 {
            g.add_node(OpClass::Load);
        }
        g.add_node(OpClass::FpAdd);
        assert_eq!(res_mii(&g, &machine), 3); // ceil(9/4)
        assert_eq!(mii(&g, &machine), 3);
    }

    #[test]
    fn mii_takes_the_max_of_both_bounds() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("recbound");
        let a = g.add_node(OpClass::FpDiv);
        g.add_edge(a, a, 17, 1, DepKind::Flow);
        assert_eq!(res_mii(&g, &machine), 1);
        assert_eq!(rec_mii(&g), 17);
        assert_eq!(mii(&g, &machine), 17);
    }

    #[test]
    fn empty_graph_bounds_are_one() {
        let g = DepGraph::new("empty");
        assert_eq!(rec_mii(&g), 1);
        assert_eq!(res_mii(&g, &MachineConfig::unified()), 1);
    }

    #[test]
    fn rec_mii_on_multi_node_recurrence_with_long_latencies() {
        let mut g = DepGraph::new("long");
        let a = g.add_node(OpClass::FpMul); // 4
        let b = g.add_node(OpClass::FpAdd); // 3
        let c = g.add_node(OpClass::FpAdd); // 3
        g.add_edge(a, b, 4, 0, DepKind::Flow);
        g.add_edge(b, c, 3, 0, DepKind::Flow);
        g.add_edge(c, a, 3, 1, DepKind::Flow);
        // total latency 10 over distance 1
        assert_eq!(rec_mii(&g), 10);
    }
}
