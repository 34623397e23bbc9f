//! Scheduling-priority metrics: ASAP, ALAP, mobility, depth and height.
//!
//! These are the per-node quantities the Swing Modulo Scheduling ordering and slot
//! selection use.  They are computed for a *candidate initiation interval* `II`: every
//! edge `u → v` contributes the constraint `t(v) ≥ t(u) + latency − II·distance`, and
//! as long as `II ≥ RecMII` the constraint system has a (finite) least solution, found
//! here with a longest-path fixed-point iteration.

use crate::graph::{DepGraph, NodeId};
use serde::{Deserialize, Serialize};

/// Per-node scheduling metrics for a given candidate II.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphAnalysis {
    /// The candidate initiation interval the metrics were computed for.
    pub ii: u32,
    /// Earliest legal start cycle of each node (`ASAP`).
    pub asap: Vec<i64>,
    /// Latest start cycle of each node that does not stretch the critical path
    /// (`ALAP`).
    pub alap: Vec<i64>,
    /// Length of the critical path (`max ASAP + 1` over all nodes); the schedule of one
    /// iteration cannot be shorter than this.
    pub critical_path: i64,
}

impl GraphAnalysis {
    /// Compute the metrics of `graph` for candidate initiation interval `ii`.
    ///
    /// `ii` must be at least `RecMII`, otherwise the constraint system diverges; in
    /// that case the iteration is cut off and the routine panics, pointing at the
    /// scheduling bug that passed an infeasible II.
    pub fn new(graph: &DepGraph, ii: u32) -> Self {
        let n = graph.n_nodes();
        let mut asap = vec![0i64; n];
        // Longest path from virtual source (all nodes start at 0).
        let mut iterations = 0usize;
        loop {
            let mut changed = false;
            for e in graph.edges() {
                let w = e.latency as i64 - ii as i64 * e.distance as i64;
                let cand = asap[e.src.index()] + w;
                if cand > asap[e.dst.index()] {
                    asap[e.dst.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            iterations += 1;
            assert!(
                iterations <= n + 1,
                "ASAP computation diverged: II={ii} is below RecMII for loop '{}'",
                graph.name
            );
        }
        let critical_path = asap.iter().copied().max().unwrap_or(0) + 1;
        // ALAP: longest path *to* the virtual sink, i.e. run the same relaxation on the
        // reversed graph starting from `critical_path - 1`.
        let mut alap = vec![critical_path - 1; n];
        let mut iterations = 0usize;
        loop {
            let mut changed = false;
            for e in graph.edges() {
                let w = e.latency as i64 - ii as i64 * e.distance as i64;
                let cand = alap[e.dst.index()] - w;
                if cand < alap[e.src.index()] {
                    alap[e.src.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            iterations += 1;
            assert!(
                iterations <= n + 1,
                "ALAP computation diverged: II={ii} is below RecMII for loop '{}'",
                graph.name
            );
        }
        Self {
            ii,
            asap,
            alap,
            critical_path,
        }
    }

    /// Earliest start of `node`.
    #[inline]
    pub fn asap(&self, node: NodeId) -> i64 {
        self.asap[node.index()]
    }

    /// Latest start of `node`.
    #[inline]
    pub fn alap(&self, node: NodeId) -> i64 {
        self.alap[node.index()]
    }

    /// Mobility (slack) of `node`: `ALAP − ASAP`.  Critical nodes have mobility 0.
    #[inline]
    pub fn mobility(&self, node: NodeId) -> i64 {
        self.alap(node) - self.asap(node)
    }

    /// Depth of `node`: its ASAP time (distance from the graph sources).
    #[inline]
    pub fn depth(&self, node: NodeId) -> i64 {
        self.asap(node)
    }

    /// Height of `node`: distance from the graph sinks, `critical_path − 1 − ALAP`.
    #[inline]
    pub fn height(&self, node: NodeId) -> i64 {
        self.critical_path - 1 - self.alap(node)
    }

    /// Whether `node` lies on a critical path (zero mobility).
    #[inline]
    pub fn is_critical(&self, node: NodeId) -> bool {
        self.mobility(node) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepGraph, DepKind};
    use vliw_arch::OpClass;

    fn chain() -> DepGraph {
        // load(2) -> fmul(4) -> fadd(3) -> store
        let mut g = DepGraph::new("chain");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpMul);
        let c = g.add_node(OpClass::FpAdd);
        let d = g.add_node(OpClass::Store);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(b, c, 4, 0, DepKind::Flow);
        g.add_edge(c, d, 3, 0, DepKind::Flow);
        g
    }

    #[test]
    fn asap_follows_latencies_on_a_chain() {
        let g = chain();
        let a = GraphAnalysis::new(&g, 1);
        assert_eq!(a.asap, vec![0, 2, 6, 9]);
        assert_eq!(a.critical_path, 10);
    }

    #[test]
    fn alap_equals_asap_on_a_pure_chain() {
        let g = chain();
        let a = GraphAnalysis::new(&g, 1);
        for n in g.node_ids() {
            assert_eq!(a.asap(n), a.alap(n));
            assert!(a.is_critical(n));
            assert_eq!(a.mobility(n), 0);
        }
    }

    #[test]
    fn mobility_appears_on_off_critical_branches() {
        // a -> b(slow) -> d ; a -> c(fast) -> d
        let mut g = DepGraph::new("diamond");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpDiv); // 17
        let c = g.add_node(OpClass::FpAdd); // 3
        let d = g.add_node(OpClass::Store);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(a, c, 2, 0, DepKind::Flow);
        g.add_edge(b, d, 17, 0, DepKind::Flow);
        g.add_edge(c, d, 3, 0, DepKind::Flow);
        let an = GraphAnalysis::new(&g, 1);
        assert!(an.is_critical(a));
        assert!(an.is_critical(b));
        assert!(an.is_critical(d));
        assert!(!an.is_critical(c));
        assert_eq!(an.mobility(c), 14); // can slide by 17 - 3

        // heights decrease towards the sinks
        assert!(an.height(a) > an.height(b));
        assert_eq!(an.height(d), 0);
    }

    #[test]
    fn loop_carried_edges_relax_with_larger_ii() {
        // recurrence a -> b -> a (distance 1), latencies 3 + 4 = 7, so RecMII = 7.
        let mut g = DepGraph::new("rec");
        let a = g.add_node(OpClass::FpAdd);
        let b = g.add_node(OpClass::FpMul);
        g.add_edge(a, b, 3, 0, DepKind::Flow);
        g.add_edge(b, a, 4, 1, DepKind::Flow);
        let an7 = GraphAnalysis::new(&g, 7);
        assert_eq!(an7.asap(a), 0);
        assert_eq!(an7.asap(b), 3);
        // With a larger II the back edge is even less constraining; ASAP stays put.
        let an10 = GraphAnalysis::new(&g, 10);
        assert_eq!(an10.asap(b), 3);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn infeasible_ii_is_detected() {
        let mut g = DepGraph::new("bad");
        let a = g.add_node(OpClass::FpDiv);
        g.add_edge(a, a, 17, 1, DepKind::Flow);
        let _ = GraphAnalysis::new(&g, 3); // RecMII is 17
    }

    #[test]
    fn empty_graph_has_trivial_analysis() {
        let g = DepGraph::new("empty");
        let a = GraphAnalysis::new(&g, 1);
        assert_eq!(a.critical_path, 1);
        assert!(a.asap.is_empty());
    }
}
