//! The dependence-graph representation.

use serde::{Deserialize, Serialize};
use std::fmt;
use vliw_arch::OpClass;

/// Identifier of a node (operation) within a [`DepGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge within a [`DepGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepKind {
    /// True (flow / read-after-write) data dependence: the consumer reads the register
    /// value produced by the producer.  Only flow dependences require an inter-cluster
    /// communication when producer and consumer land in different clusters.
    Flow,
    /// Anti (write-after-read) dependence; pure ordering constraint.
    Anti,
    /// Output (write-after-write) dependence; pure ordering constraint.
    Output,
    /// Memory ordering dependence (store→load, store→store, …).
    Memory,
}

impl DepKind {
    /// Whether the edge carries a register value (and therefore may need a bus
    /// transfer on a clustered machine).
    #[inline]
    pub fn carries_value(self) -> bool {
        matches!(self, DepKind::Flow)
    }
}

/// A node: one operation of the loop body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// This node's identifier (equal to its position in the node vector).
    pub id: NodeId,
    /// Operation class (determines functional-unit kind and latency).
    pub class: OpClass,
    /// Optional symbolic name (used by hand-written kernels and DOT dumps).
    pub name: Option<String>,
    /// Which unrolled copy of the original loop body this node belongs to (0 when the
    /// loop has not been unrolled).  Kept so schedulers and metrics can reason about
    /// iterations of an unrolled body.
    pub copy: u32,
    /// The node id in the *original* (pre-unrolling) graph.
    pub original: NodeId,
}

impl Node {
    /// The display name of the node (`name` if set, otherwise `n<id>`).
    pub fn label(&self) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => self.id.to_string(),
        }
    }
}

/// A dependence edge `src → dst`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// This edge's identifier.
    pub id: EdgeId,
    /// Producer node.
    pub src: NodeId,
    /// Consumer node.
    pub dst: NodeId,
    /// Minimum issue-to-issue latency in cycles.
    pub latency: u32,
    /// Iteration distance (0 = same iteration).
    pub distance: u32,
    /// Dependence kind.
    pub kind: DepKind,
}

/// A data dependence graph of an innermost loop body.
///
/// Nodes and edges are stored in dense vectors; adjacency lists are maintained
/// incrementally so predecessor/successor queries are O(degree).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepGraph {
    /// Loop name (used in reports).
    pub name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    succs: Vec<Vec<EdgeId>>,
    preds: Vec<Vec<EdgeId>>,
    /// Number of iterations the loop executes per invocation (NITER in the paper's
    /// cycle-count formula).  Innermost SPECfp95 loops with fewer than 4 iterations are
    /// excluded by the paper; the corpus generator respects that.
    pub iterations: u64,
    /// How many times the loop is invoked during the whole program run; used to weight
    /// per-loop results when aggregating IPC over a benchmark.
    pub invocations: u64,
}

impl DepGraph {
    /// Create an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            iterations: 100,
            invocations: 1,
        }
    }

    /// Add a node of the given class; returns its id.
    pub fn add_node(&mut self, class: OpClass) -> NodeId {
        self.add_named_node(class, None::<String>)
    }

    /// Add a node with a symbolic name.
    pub fn add_named_node(&mut self, class: OpClass, name: Option<impl Into<String>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            class,
            name: name.map(Into::into),
            copy: 0,
            original: id,
        });
        self.ensure_adjacency();
        id
    }

    /// Grow the adjacency vectors to match the node count, unless
    /// [`DepGraph::arena_prepare`] already installed (recycled) rows for this node.
    #[inline]
    fn ensure_adjacency(&mut self) {
        if self.succs.len() < self.nodes.len() {
            self.succs.push(Vec::new());
            self.preds.push(Vec::new());
        }
    }

    /// Reserve storage for `n_nodes` nodes and `n_edges` edges, installing adjacency
    /// rows recycled from `pool` (cleared rows donated by retired graphs via
    /// [`DepGraph::recycle_into`]).  Arena primitive of `unroll::UnrollScratch`: the
    /// factor-exploration path re-unrolls the same loop once per candidate factor,
    /// and without reuse every attempt pays two heap allocations per copied node for
    /// adjacency alone.  Callable only on an empty graph; the caller must then add
    /// exactly `n_nodes` nodes so the installed rows line up with the node vector
    /// (the unroller knows both counts up front).
    pub(crate) fn arena_prepare(
        &mut self,
        n_nodes: usize,
        n_edges: usize,
        pool: &mut Vec<Vec<EdgeId>>,
    ) {
        assert!(self.nodes.is_empty(), "arena_prepare on a non-empty graph");
        self.nodes.reserve(n_nodes);
        self.edges.reserve(n_edges);
        self.succs.reserve(n_nodes);
        self.preds.reserve(n_nodes);
        for _ in 0..n_nodes {
            self.succs.push(pool.pop().unwrap_or_default());
            self.preds.push(pool.pop().unwrap_or_default());
        }
    }

    /// Dismantle the graph, donating its (cleared) adjacency vectors to `pool` for a
    /// later [`DepGraph::arena_prepare`] to reuse.
    pub(crate) fn recycle_into(mut self, pool: &mut Vec<Vec<EdgeId>>) {
        for mut v in self.succs.drain(..).chain(self.preds.drain(..)) {
            v.clear();
            pool.push(v);
        }
    }

    /// Add a node copied from `node` (used by the unroller), preserving class and
    /// recording provenance **relative to the root graph**: `copy` is the flat
    /// root-relative copy index and `original` composes through `node.original`, so
    /// unrolling an already-unrolled graph keeps attributing every node to the
    /// pre-unrolling loop body (useful-op accounting depends on this).
    ///
    /// The display name is derived from the node's *base* name (its own copy suffix,
    /// which this function produced, is stripped first), so copy 3 of `a` is named
    /// `a'3` no matter how many unrolling steps created it.
    pub fn add_copy_of(&mut self, node: &Node, copy: u32) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let base_name = node.name.as_deref().map(|n| {
            if node.copy == 0 {
                n
            } else {
                // Copies are only ever named by this function, so the suffix is
                // exactly `'<copy>`.
                n.strip_suffix(&format!("'{}", node.copy)).unwrap_or(n)
            }
        });
        self.nodes.push(Node {
            id,
            class: node.class,
            name: base_name.map(|n| {
                if copy == 0 {
                    n.to_string()
                } else {
                    format!("{n}'{copy}")
                }
            }),
            copy,
            original: node.original,
        });
        self.ensure_adjacency();
        id
    }

    /// How many copies of the original loop body this graph holds: 1 for a graph that
    /// was never unrolled, the cumulative unroll factor otherwise.  Unrolling copies
    /// every node uniformly, so the largest flat copy index determines the count.
    pub fn copies_per_original(&self) -> u32 {
        self.nodes.iter().map(|n| n.copy).max().unwrap_or(0) + 1
    }

    /// Add a dependence edge.  Panics if either endpoint does not exist.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        latency: u32,
        distance: u32,
        kind: DepKind,
    ) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "unknown source node {src}");
        assert!(
            dst.index() < self.nodes.len(),
            "unknown destination node {dst}"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            id,
            src,
            dst,
            latency,
            distance,
            kind,
        });
        self.succs[src.index()].push(id);
        self.preds[dst.index()].push(id);
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node with the given id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edges, in id order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Outgoing edges of `node`.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> {
        self.succs[node.index()].iter().map(|&e| self.edge(e))
    }

    /// Incoming edges of `node`.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> {
        self.preds[node.index()].iter().map(|&e| self.edge(e))
    }

    /// Successor nodes of `node` (one entry per edge; may repeat).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(node).map(|e| e.dst)
    }

    /// Predecessor nodes of `node` (one entry per edge; may repeat).
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(node).map(|e| e.src)
    }

    /// Number of operations of each functional-unit kind, indexed by
    /// [`vliw_arch::FuKind::index`].
    pub fn ops_per_fu_kind(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for node in &self.nodes {
            counts[node.class.fu_kind().index()] += 1;
        }
        counts
    }

    /// Number of loop-carried dependences (edges with distance > 0).
    pub fn loop_carried_edges(&self) -> usize {
        self.edges.iter().filter(|e| e.distance > 0).count()
    }

    /// Number of loop-carried **flow** dependences whose distance is not a multiple of
    /// `factor`.  This is `NDepsNotMult` in the selective-unrolling algorithm
    /// (Figure 6): those are the dependences that will still cross iteration copies —
    /// and therefore clusters — after unrolling by `factor`.
    pub fn deps_not_multiple_of(&self, factor: u32) -> usize {
        assert!(factor >= 1);
        self.edges
            .iter()
            .filter(|e| e.kind.carries_value() && e.distance > 0 && e.distance % factor != 0)
            .count()
    }

    /// Set the iteration count (NITER) of the loop.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Set how many times the loop is invoked per program run.
    pub fn with_invocations(mut self, invocations: u64) -> Self {
        self.invocations = invocations;
        self
    }

    /// Basic structural sanity checks; returns a description of the first violation.
    ///
    /// * every edge endpoint exists (enforced at construction, re-checked here);
    /// * no zero-distance self loop (an operation cannot depend on itself within the
    ///   same iteration);
    /// * no cycle consisting solely of zero-distance edges (such a loop body could not
    ///   be executed at all).
    pub fn validate(&self) -> Result<(), String> {
        for e in &self.edges {
            if e.src.index() >= self.nodes.len() || e.dst.index() >= self.nodes.len() {
                return Err(format!("edge {:?} references a missing node", e.id));
            }
            if e.src == e.dst && e.distance == 0 {
                return Err(format!(
                    "node {} has a zero-distance self dependence",
                    self.node(e.src).label()
                ));
            }
        }
        if self.has_zero_distance_cycle() {
            return Err("graph has a cycle of zero-distance edges".to_string());
        }
        Ok(())
    }

    /// Whether the subgraph of zero-distance edges contains a cycle.
    fn has_zero_distance_cycle(&self) -> bool {
        // Kahn's algorithm on the zero-distance subgraph.
        let n = self.n_nodes();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.distance == 0 {
                indeg[e.dst.index()] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(u) = stack.pop() {
            visited += 1;
            for e in self.out_edges(NodeId(u as u32)) {
                if e.distance == 0 {
                    indeg[e.dst.index()] -= 1;
                    if indeg[e.dst.index()] == 0 {
                        stack.push(e.dst.index());
                    }
                }
            }
        }
        visited != n
    }
}

impl fmt::Display for DepGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loop '{}': {} nodes, {} edges ({} loop-carried), {} iterations",
            self.name,
            self.n_nodes(),
            self.n_edges(),
            self.loop_carried_edges(),
            self.iterations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DepGraph {
        // a -> b, a -> c, b -> d, c -> d
        let mut g = DepGraph::new("diamond");
        let a = g.add_named_node(OpClass::Load, Some("a"));
        let b = g.add_named_node(OpClass::FpMul, Some("b"));
        let c = g.add_named_node(OpClass::FpAdd, Some("c"));
        let d = g.add_named_node(OpClass::Store, Some("d"));
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(a, c, 2, 0, DepKind::Flow);
        g.add_edge(b, d, 4, 0, DepKind::Flow);
        g.add_edge(c, d, 3, 0, DepKind::Flow);
        g
    }

    #[test]
    fn node_and_edge_counts() {
        let g = diamond();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.loop_carried_edges(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = diamond();
        let a = NodeId(0);
        let d = NodeId(3);
        assert_eq!(g.successors(a).count(), 2);
        assert_eq!(g.predecessors(a).count(), 0);
        assert_eq!(g.predecessors(d).count(), 2);
        assert_eq!(g.successors(d).count(), 0);
        // every out edge of a appears as an in edge of its destination
        for e in g.out_edges(a) {
            assert!(g.in_edges(e.dst).any(|e2| e2.id == e.id));
        }
    }

    #[test]
    fn ops_per_fu_kind_counts_kinds() {
        let g = diamond();
        let counts = g.ops_per_fu_kind();
        // load + store on MEM, fmul + fadd on FP, nothing on INT
        assert_eq!(counts, [0, 2, 2]);
    }

    #[test]
    fn deps_not_multiple_counts_only_carried_flow_edges() {
        let mut g = diamond();
        let a = NodeId(0);
        let d = NodeId(3);
        g.add_edge(d, a, 1, 1, DepKind::Flow); // distance 1
        g.add_edge(d, a, 1, 2, DepKind::Flow); // distance 2
        g.add_edge(d, a, 1, 2, DepKind::Memory); // memory edges never count
        assert_eq!(g.deps_not_multiple_of(2), 1);
        assert_eq!(g.deps_not_multiple_of(1), 0);
        assert_eq!(g.deps_not_multiple_of(3), 2);
    }

    #[test]
    fn zero_distance_self_loop_is_invalid() {
        let mut g = DepGraph::new("bad");
        let a = g.add_node(OpClass::IntAlu);
        g.add_edge(a, a, 1, 0, DepKind::Flow);
        assert!(g.validate().is_err());
    }

    #[test]
    fn positive_distance_self_loop_is_valid() {
        let mut g = DepGraph::new("acc");
        let a = g.add_node(OpClass::FpAdd);
        g.add_edge(a, a, 3, 1, DepKind::Flow);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_distance_cycle_is_invalid() {
        let mut g = DepGraph::new("cycle");
        let a = g.add_node(OpClass::IntAlu);
        let b = g.add_node(OpClass::IntAlu);
        g.add_edge(a, b, 1, 0, DepKind::Flow);
        g.add_edge(b, a, 1, 0, DepKind::Flow);
        assert!(g.validate().is_err());
    }

    #[test]
    fn recurrence_through_distance_is_valid() {
        let mut g = DepGraph::new("rec");
        let a = g.add_node(OpClass::FpAdd);
        let b = g.add_node(OpClass::FpMul);
        g.add_edge(a, b, 3, 0, DepKind::Flow);
        g.add_edge(b, a, 4, 1, DepKind::Flow);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn builder_style_setters() {
        let g = DepGraph::new("x").with_iterations(250).with_invocations(7);
        assert_eq!(g.iterations, 250);
        assert_eq!(g.invocations, 7);
    }

    #[test]
    #[should_panic(expected = "unknown destination node")]
    fn edge_to_missing_node_panics() {
        let mut g = DepGraph::new("bad");
        let a = g.add_node(OpClass::IntAlu);
        g.add_edge(a, NodeId(42), 1, 0, DepKind::Flow);
    }
}
