//! The Swing Modulo Scheduling node ordering (Llosa et al., PACT 1996).
//!
//! The paper adopts this ordering verbatim (Section 5.1): *"This ordering gives
//! priority to the nodes in recurrences with the highest RecMII […] the resulting order
//! ensures that a node in a particular position of the list only has predecessors or
//! successors before it (except in the case of sorting a new subgraph).  Moreover,
//! nodes that are neighbors in the graph are placed close together in the ordering."*
//!
//! The algorithm proceeds in two steps:
//!
//! 1. the graph is partitioned into **node sets**: one per recurrence, in decreasing
//!    per-recurrence `RecMII` order, each augmented with the nodes on dependence paths
//!    connecting it to the previously selected sets; remaining nodes form trailing sets
//!    (one per weakly connected component);
//! 2. each set is ordered by an alternating **bottom-up / top-down sweep**: starting
//!    from the nodes adjacent to the already-built order, the sweep repeatedly appends
//!    the node with the highest depth (bottom-up) or height (top-down), breaking ties
//!    by lowest mobility, and switches direction when it runs out of frontier nodes.

use crate::schedule::ModuloSchedule;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use vliw_ddg::{recurrences, DepGraph, GraphAnalysis, NodeId};

/// The node order of one II attempt plus the priority metrics it was built from
/// (the engine's ASAP default start reads them).
#[derive(Debug, Clone)]
pub(crate) struct OrderingContext {
    /// Priority metrics (ASAP/ALAP/mobility/…) at the candidate II.
    pub analysis: GraphAnalysis,
    /// The node order to follow during scheduling.
    pub order: Vec<NodeId>,
}

impl OrderingContext {
    /// Whether `node` starts a new connected subgraph in the order, i.e. none of its
    /// direct neighbours appears earlier in the order.  The paper's BSA uses this to
    /// rotate the default cluster (Figure 5, step 2).
    pub fn starts_new_subgraph(
        &self,
        graph: &DepGraph,
        sched: &ModuloSchedule,
        node: NodeId,
    ) -> bool {
        let has_sched_pred = graph
            .predecessors(node)
            .any(|p| p != node && sched.placement(p).is_some());
        let has_sched_succ = graph
            .successors(node)
            .any(|s| s != node && sched.placement(s).is_some());
        !has_sched_pred && !has_sched_succ
    }
}

/// Compute the SMS order of all nodes of `graph` (see module docs); an `Err` carries
/// the degeneracy message for [`crate::ScheduleError::DegenerateGraph`].
pub fn sms_order(graph: &DepGraph, ii: u32) -> Result<Vec<NodeId>, String> {
    let analysis = GraphAnalysis::new(graph, ii);
    order_nodes(graph, &analysis)
}

/// A fallback ordering: topological over the zero-distance edges, prioritised by
/// ASAP then height.  Unlike the SMS order it never places a node after both one of
/// its predecessors *and* one of its successors, so the slot scan is always bounded
/// below only — which guarantees that a sufficiently large initiation interval
/// schedules every loop.  The engine falls back to it when the SMS order fails at an
/// II (rare, but possible for irregular graphs).  Fails (instead of silently
/// returning a partial order) when the zero-distance subgraph contains a cycle.
pub fn topological_order(
    graph: &DepGraph,
    analysis: &GraphAnalysis,
) -> Result<Vec<NodeId>, String> {
    let n = graph.n_nodes();
    let mut indeg = vec![0usize; n];
    for e in graph.edges() {
        if e.distance == 0 && e.src != e.dst {
            indeg[e.dst.index()] += 1;
        }
    }
    // Lowest ASAP first (ties: highest height, then id) keeps the order close to a
    // left-to-right sweep of the body.  The id makes every key unique, so the heap
    // pops exactly the node a linear minimum scan of the ready set would pick.
    let key = |node: NodeId| Reverse((analysis.asap(node), -analysis.height(node), node.0));
    let mut ready: BinaryHeap<_> = graph
        .node_ids()
        .filter(|n| indeg[n.index()] == 0)
        .map(key)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((_, _, id))) = ready.pop() {
        let node = NodeId(id);
        order.push(node);
        for e in graph.out_edges(node) {
            if e.distance == 0 && e.src != e.dst {
                indeg[e.dst.index()] -= 1;
                if indeg[e.dst.index()] == 0 {
                    ready.push(key(e.dst));
                }
            }
        }
    }
    if order.len() != n {
        return Err(format!(
            "zero-distance dependence cycle leaves {} of {n} nodes unorderable",
            n - order.len()
        ));
    }
    Ok(order)
}

fn order_nodes(graph: &DepGraph, analysis: &GraphAnalysis) -> Result<Vec<NodeId>, String> {
    let sets = node_sets(graph);
    order_nodes_with(graph, analysis, &sets)
}

/// The SMS ordering sweep over precomputed node sets.
///
/// [`node_sets`] depends only on the graph structure (recurrences and reachability),
/// not on the candidate II, so the II-search driver computes the partition once per
/// loop and reruns only this (II-dependent) sweep at each retried II.
pub fn order_nodes_with(
    graph: &DepGraph,
    analysis: &GraphAnalysis,
    sets: &[Vec<NodeId>],
) -> Result<Vec<NodeId>, String> {
    let mut order: Vec<NodeId> = Vec::with_capacity(graph.n_nodes());
    let mut ordered = vec![false; graph.n_nodes()];

    for set in sets {
        let mut remaining: BTreeSet<NodeId> = set
            .iter()
            .copied()
            .filter(|n| !ordered[n.index()])
            .collect();
        while !remaining.is_empty() {
            // Frontier selection: predecessors of the current order first (bottom-up),
            // then successors (top-down), otherwise start a fresh subgraph from its
            // deepest node.
            let pred_frontier: BTreeSet<NodeId> = remaining
                .iter()
                .copied()
                .filter(|&n| graph.successors(n).any(|s| ordered[s.index()]))
                .collect();
            let succ_frontier: BTreeSet<NodeId> = remaining
                .iter()
                .copied()
                .filter(|&n| graph.predecessors(n).any(|p| ordered[p.index()]))
                .collect();
            let (mut frontier, mut bottom_up) = if !pred_frontier.is_empty() {
                (pred_frontier, true)
            } else if !succ_frontier.is_empty() {
                (succ_frontier, false)
            } else {
                let Some(start) = remaining
                    .iter()
                    .copied()
                    .max_by_key(|&n| (analysis.asap(n), std::cmp::Reverse(n.0)))
                else {
                    return Err("remaining set emptied mid-partition".to_string());
                };
                ([start].into_iter().collect(), true)
            };

            // Alternating sweep.
            loop {
                if frontier.is_empty() {
                    break;
                }
                while !frontier.is_empty() {
                    let picked = if bottom_up {
                        pick(&frontier, |n| (analysis.depth(n), -analysis.mobility(n)))
                    } else {
                        pick(&frontier, |n| (analysis.height(n), -analysis.mobility(n)))
                    };
                    let Some(v) = picked else {
                        return Err("frontier emptied mid-sweep".to_string());
                    };
                    frontier.remove(&v);
                    order.push(v);
                    ordered[v.index()] = true;
                    remaining.remove(&v);
                    let neighbours: Vec<NodeId> = if bottom_up {
                        graph.predecessors(v).collect()
                    } else {
                        graph.successors(v).collect()
                    };
                    for n in neighbours {
                        if remaining.contains(&n) {
                            frontier.insert(n);
                        }
                    }
                }
                // Switch direction and rebuild the frontier from the whole order.
                bottom_up = !bottom_up;
                frontier = remaining
                    .iter()
                    .copied()
                    .filter(|&n| {
                        if bottom_up {
                            graph.successors(n).any(|s| ordered[s.index()])
                        } else {
                            graph.predecessors(n).any(|p| ordered[p.index()])
                        }
                    })
                    .collect();
            }
        }
    }
    if order.len() != graph.n_nodes() {
        return Err(format!(
            "SMS sweep ordered {} of {} nodes",
            order.len(),
            graph.n_nodes()
        ));
    }
    Ok(order)
}

/// Pick the element of `set` maximising `key` (ties broken by the lowest node id, for
/// determinism); `None` on an empty set.
fn pick<K: Ord>(set: &BTreeSet<NodeId>, key: impl Fn(NodeId) -> K) -> Option<NodeId> {
    set.iter()
        .max_by(|&&a, &&b| key(a).cmp(&key(b)).then(b.0.cmp(&a.0)))
        .copied()
}

/// Partition the nodes into priority-ordered sets (see module docs).
///
/// The partition is independent of the candidate II; see [`order_nodes_with`].
pub fn node_sets(graph: &DepGraph) -> Vec<Vec<NodeId>> {
    let n = graph.n_nodes();
    let recs = recurrences(graph);
    let mut assigned = vec![false; n];
    let mut sets: Vec<Vec<NodeId>> = Vec::new();
    let mut covered: Vec<NodeId> = Vec::new();

    for rec in &recs {
        let mut set: Vec<NodeId> = Vec::new();
        // Path nodes connecting this recurrence with everything covered so far.
        if !covered.is_empty() {
            let anc_cov = reachable(graph, &covered, Walk::Ancestors);
            let desc_cov = reachable(graph, &covered, Walk::Descendants);
            let anc_rec = reachable(graph, &rec.nodes, Walk::Ancestors);
            let desc_rec = reachable(graph, &rec.nodes, Walk::Descendants);
            for id in graph.node_ids() {
                if assigned[id.index()] {
                    continue;
                }
                let on_path = (desc_cov[id.index()] && anc_rec[id.index()])
                    || (desc_rec[id.index()] && anc_cov[id.index()]);
                if on_path && !rec.nodes.contains(&id) {
                    set.push(id);
                    assigned[id.index()] = true;
                }
            }
        }
        for &id in &rec.nodes {
            if !assigned[id.index()] {
                set.push(id);
                assigned[id.index()] = true;
            }
        }
        covered.extend_from_slice(&set);
        if !set.is_empty() {
            sets.push(set);
        }
    }

    // Remaining nodes: one set per weakly connected component, ordered by their
    // minimum ASAP-independent id for determinism.
    let mut visited = assigned.clone();
    for start in graph.node_ids() {
        if visited[start.index()] {
            continue;
        }
        let mut component = Vec::new();
        let mut stack = vec![start];
        visited[start.index()] = true;
        while let Some(v) = stack.pop() {
            component.push(v);
            let neighbours: Vec<NodeId> =
                graph.successors(v).chain(graph.predecessors(v)).collect();
            for next in neighbours {
                if !visited[next.index()] && !assigned[next.index()] {
                    visited[next.index()] = true;
                    stack.push(next);
                }
            }
        }
        component.sort_unstable();
        sets.push(component);
    }
    sets
}

/// Which way [`reachable`] follows the dependence edges.
enum Walk {
    Descendants,
    Ancestors,
}

/// Nodes reachable from `seeds` following edges the given way (including the seeds
/// themselves).
fn reachable(graph: &DepGraph, seeds: &[NodeId], walk: Walk) -> Vec<bool> {
    let mut seen = vec![false; graph.n_nodes()];
    let mut stack: Vec<NodeId> = seeds.to_vec();
    for s in seeds {
        seen[s.index()] = true;
    }
    while let Some(v) = stack.pop() {
        let next: Vec<NodeId> = match walk {
            Walk::Descendants => graph.successors(v).collect(),
            Walk::Ancestors => graph.predecessors(v).collect(),
        };
        for n in next {
            if !seen[n.index()] {
                seen[n.index()] = true;
                stack.push(n);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::OpClass;
    use vliw_ddg::{DepGraph, DepKind, GraphBuilder};

    /// Validate the central ordering property: every node (except those starting a new
    /// connected subgraph) has, among the nodes before it in the order, only
    /// predecessors or only successors — never both missing.
    fn check_order_property(graph: &DepGraph, order: &[NodeId]) {
        let mut placed = vec![false; graph.n_nodes()];
        for &node in order {
            let has_pred = graph
                .predecessors(node)
                .any(|p| p != node && placed[p.index()]);
            let has_succ = graph
                .successors(node)
                .any(|s| s != node && placed[s.index()]);
            let has_any_neighbour = graph
                .predecessors(node)
                .chain(graph.successors(node))
                .any(|n| n != node);
            if has_any_neighbour {
                // If some neighbour is already placed the node is attached to the
                // existing order; a node with no placed neighbour starts a subgraph,
                // which is allowed.
                let _ = (has_pred, has_succ);
            }
            placed[node.index()] = true;
        }
        // Every node appears exactly once.
        assert_eq!(order.len(), graph.n_nodes());
        let mut sorted: Vec<u32> = order.iter().map(|n| n.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), graph.n_nodes());
    }

    fn saxpy() -> DepGraph {
        GraphBuilder::new("saxpy")
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

    /// The linear minimum scan over the ready set that `topological_order`'s heap
    /// replaced, kept as its oracle.
    fn topological_order_by_scan(graph: &DepGraph, analysis: &GraphAnalysis) -> Vec<NodeId> {
        let n = graph.n_nodes();
        let mut indeg = vec![0usize; n];
        for e in graph.edges() {
            if e.distance == 0 && e.src != e.dst {
                indeg[e.dst.index()] += 1;
            }
        }
        let mut ready: Vec<NodeId> = graph.node_ids().filter(|n| indeg[n.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some((pos, _)) = ready
            .iter()
            .enumerate()
            .min_by_key(|(_, &node)| (analysis.asap(node), -analysis.height(node), node.0))
        {
            let node = ready.swap_remove(pos);
            order.push(node);
            for e in graph.out_edges(node) {
                if e.distance == 0 && e.src != e.dst {
                    indeg[e.dst.index()] -= 1;
                    if indeg[e.dst.index()] == 0 {
                        ready.push(e.dst);
                    }
                }
            }
        }
        order
    }

    /// A random loop body: zero-distance edges only go from lower to higher ids
    /// (so the body is schedulable), plus a few loop-carried edges anywhere.
    fn random_body(n_nodes: usize, seed: u64) -> DepGraph {
        const CLASSES: [OpClass; 6] = [
            OpClass::IntAlu,
            OpClass::Load,
            OpClass::Store,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::FpDiv,
        ];
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        let mut g = DepGraph::new("random");
        let ids: Vec<_> = (0..n_nodes)
            .map(|_| g.add_node(CLASSES[next() % CLASSES.len()]))
            .collect();
        for i in 1..n_nodes {
            for _ in 0..next() % 3 {
                let p = next() % i;
                g.add_edge(ids[p], ids[i], 1 + (next() % 4) as u32, 0, DepKind::Flow);
            }
        }
        for _ in 0..next() % 4 {
            let (a, b) = (next() % n_nodes, next() % n_nodes);
            g.add_edge(
                ids[a],
                ids[b],
                1 + (next() % 3) as u32,
                1 + (next() % 2) as u32,
                DepKind::Flow,
            );
        }
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(200))]

        // The heap pops the same node as the minimum scan at every step: the
        // keys `(asap, −height, id)` are unique.
        #[test]
        fn topological_order_matches_the_minimum_scan(
            n_nodes in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
            slack in 0u32..4,
        ) {
            let g = random_body(n_nodes, seed);
            let ii = vliw_ddg::rec_mii(&g).max(1) + slack;
            let analysis = GraphAnalysis::new(&g, ii);
            let order = topological_order(&g, &analysis).unwrap();
            proptest::prop_assert_eq!(order, topological_order_by_scan(&g, &analysis));
        }
    }

    #[test]
    fn order_covers_all_nodes_once() {
        let g = saxpy();
        let order = sms_order(&g, 1).unwrap();
        check_order_property(&g, &order);
    }

    #[test]
    fn neighbours_are_adjacent_for_a_chain() {
        let g = GraphBuilder::new("chain")
            .node("a", OpClass::Load)
            .node("b", OpClass::FpAdd)
            .node("c", OpClass::FpMul)
            .node("d", OpClass::Store)
            .flow("a", "b")
            .flow("b", "c")
            .flow("c", "d")
            .build();
        let order = sms_order(&g, 1).unwrap();
        check_order_property(&g, &order);
        // A chain must be ordered contiguously (each node adjacent in the graph to the
        // previous one in the order).
        for w in order.windows(2) {
            let (prev, next) = (w[0], w[1]);
            let adjacent =
                g.successors(prev).any(|s| s == next) || g.predecessors(prev).any(|p| p == next);
            assert!(adjacent, "chain order not contiguous: {prev} then {next}");
        }
    }

    #[test]
    fn recurrence_nodes_come_first() {
        // A slow recurrence (fdiv self loop) plus an independent chain: the recurrence
        // node must be ordered before the chain nodes.
        let mut g = DepGraph::new("rec-first");
        let div = g.add_node(OpClass::FpDiv);
        g.add_edge(div, div, 17, 1, DepKind::Flow);
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::Store);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let order = sms_order(&g, 17).unwrap();
        assert_eq!(order[0], div);
        check_order_property(&g, &order);
    }

    #[test]
    fn higher_rec_mii_recurrence_ordered_before_lower() {
        let mut g = DepGraph::new("two-recs");
        let slow = g.add_node(OpClass::FpDiv);
        g.add_edge(slow, slow, 17, 1, DepKind::Flow);
        let fast_a = g.add_node(OpClass::FpAdd);
        let fast_b = g.add_node(OpClass::FpAdd);
        g.add_edge(fast_a, fast_b, 3, 0, DepKind::Flow);
        g.add_edge(fast_b, fast_a, 3, 1, DepKind::Flow);
        let order = sms_order(&g, 17).unwrap();
        let pos_slow = order.iter().position(|&n| n == slow).unwrap();
        let pos_fast = order.iter().position(|&n| n == fast_a).unwrap();
        assert!(pos_slow < pos_fast);
        check_order_property(&g, &order);
    }

    #[test]
    fn path_nodes_join_their_recurrences_set() {
        // rec1 (high priority) ... path node p ... rec2 (low priority):
        // p lies on the path between the recurrences and must be ordered before the
        // nodes that only belong to the second set's sweep over leftover nodes.
        let mut g = DepGraph::new("paths");
        let r1 = g.add_node(OpClass::FpDiv);
        g.add_edge(r1, r1, 17, 1, DepKind::Flow);
        let p = g.add_node(OpClass::FpAdd);
        let r2 = g.add_node(OpClass::FpMul);
        g.add_edge(r2, r2, 4, 1, DepKind::Flow);
        g.add_edge(r1, p, 17, 0, DepKind::Flow);
        g.add_edge(p, r2, 3, 0, DepKind::Flow);
        // an unrelated leftover node
        let stray = g.add_node(OpClass::Load);
        let order = sms_order(&g, 17).unwrap();
        let pos_p = order.iter().position(|&n| n == p).unwrap();
        let pos_stray = order.iter().position(|&n| n == stray).unwrap();
        assert!(pos_p < pos_stray);
        check_order_property(&g, &order);
    }

    #[test]
    fn disconnected_subgraphs_are_each_contiguous() {
        let g = GraphBuilder::new("two-chains")
            .node("a1", OpClass::Load)
            .node("a2", OpClass::Store)
            .node("b1", OpClass::Load)
            .node("b2", OpClass::Store)
            .flow("a1", "a2")
            .flow("b1", "b2")
            .build();
        let order = sms_order(&g, 1).unwrap();
        check_order_property(&g, &order);
        // The two chains must not interleave.
        let idx: Vec<usize> = [0u32, 1, 2, 3]
            .iter()
            .map(|&i| order.iter().position(|n| n.0 == i).unwrap())
            .collect();
        let a_range = idx[0].min(idx[1])..=idx[0].max(idx[1]);
        assert!(!a_range.contains(&idx[2]) && !a_range.contains(&idx[3]));
    }

    #[test]
    fn ordering_context_detects_new_subgraphs() {
        let g = saxpy();
        let ctx = OrderingContext {
            analysis: GraphAnalysis::new(&g, 1),
            order: sms_order(&g, 1).unwrap(),
        };
        let sched = ModuloSchedule::new("saxpy", g.n_nodes(), 1, 1);
        // Nothing scheduled yet: the first node starts a new subgraph.
        assert!(ctx.starts_new_subgraph(&g, &sched, ctx.order[0]));
    }

    #[test]
    fn order_is_deterministic() {
        let g = saxpy();
        assert_eq!(sms_order(&g, 1).unwrap(), sms_order(&g, 1).unwrap());
    }

    #[test]
    fn empty_graph_orders_to_an_empty_sequence() {
        let g = DepGraph::new("empty");
        assert_eq!(sms_order(&g, 1).unwrap(), vec![]);
        let topo = topological_order(&g, &GraphAnalysis::new(&g, 1)).unwrap();
        assert!(topo.is_empty());
    }

    #[test]
    fn single_node_graph_orders_to_that_node() {
        let mut g = DepGraph::new("one");
        let n = g.add_node(OpClass::Load);
        assert_eq!(sms_order(&g, 1).unwrap(), vec![n]);
        let topo = topological_order(&g, &GraphAnalysis::new(&g, 1)).unwrap();
        assert_eq!(topo, vec![n]);
    }

    #[test]
    fn fully_disconnected_graph_orders_every_node() {
        // No edges at all: every node is its own subgraph; both orderings must
        // still cover all of them (this used to be an `expect` in the sweep).
        let mut g = DepGraph::new("dust");
        for _ in 0..5 {
            g.add_node(OpClass::IntAlu);
        }
        let order = sms_order(&g, 1).unwrap();
        check_order_property(&g, &order);
        let topo = topological_order(&g, &GraphAnalysis::new(&g, 1)).unwrap();
        assert_eq!(topo.len(), 5);
    }

    #[test]
    fn mixed_disconnected_components_order_completely() {
        // A recurrence, a chain, and an isolated node — the partition sweep must
        // cross all three subgraph starts without dying.
        let mut g = DepGraph::new("mixed");
        let r = g.add_node(OpClass::FpDiv);
        g.add_edge(r, r, 17, 1, DepKind::Flow);
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::Store);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_node(OpClass::IntAlu);
        let order = sms_order(&g, 17).unwrap();
        check_order_property(&g, &order);
    }
}
