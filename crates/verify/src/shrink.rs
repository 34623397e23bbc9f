//! Shrinking a failing `(machine, loop)` pair to a minimal reproducer.
//!
//! When a campaign case fails, the raw reproducer is a random machine plus a random
//! loop body of potentially dozens of nodes — far more than the bug needs.  The
//! shrinker greedily applies structure-preserving reductions, keeping each candidate
//! only if the caller's failure predicate still holds on it:
//!
//! * drop one node (and every incident edge) at a time;
//! * drop one edge at a time;
//! * clamp the iteration count;
//! * simplify the machine: fewer clusters, one bus, unit bus latency, single
//!   functional units, a roomy register file.
//!
//! The passes repeat until none shrinks the case, under a predicate-evaluation
//! budget, so shrinking always terminates even on expensive predicates.
//! Everything is deterministic: reductions are attempted in a fixed order.

use vliw_arch::{BusConfig, ClusterConfig, MachineConfig};
use vliw_ddg::DepGraph;

/// The outcome of [`shrink_case`].
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The reduced machine (still failing).
    pub machine: MachineConfig,
    /// The reduced loop (still failing).
    pub graph: DepGraph,
    /// How many times the failure predicate was evaluated.
    pub checks: usize,
}

/// The subgraph of `graph` induced by the nodes with `keep[node] == true`.
///
/// Node order (and therefore the id remapping) follows the original order; edges are
/// kept iff both endpoints survive.  `iterations`, `invocations` and the name carry
/// over.  Unroll provenance (`copy`/`original`) is reset — shrunk reproducers stand
/// on their own.
pub fn induced_subgraph(graph: &DepGraph, keep: &[bool]) -> DepGraph {
    assert_eq!(keep.len(), graph.n_nodes());
    let mut out = DepGraph::new(graph.name.clone());
    out.iterations = graph.iterations;
    out.invocations = graph.invocations;
    let mut remap = vec![None; graph.n_nodes()];
    for node in graph.nodes() {
        if keep[node.id.index()] {
            remap[node.id.index()] = Some(out.add_named_node(node.class, node.name.clone()));
        }
    }
    for e in graph.edges() {
        if let (Some(src), Some(dst)) = (remap[e.src.index()], remap[e.dst.index()]) {
            out.add_edge(src, dst, e.latency, e.distance, e.kind);
        }
    }
    out
}

/// A copy of `graph` without its `drop`-th edge (by edge-list position).
fn without_edge(graph: &DepGraph, drop: usize) -> DepGraph {
    let mut out = DepGraph::new(graph.name.clone());
    out.iterations = graph.iterations;
    out.invocations = graph.invocations;
    for node in graph.nodes() {
        out.add_named_node(node.class, node.name.clone());
    }
    for (i, e) in graph.edges().enumerate() {
        if i != drop {
            out.add_edge(e.src, e.dst, e.latency, e.distance, e.kind);
        }
    }
    out
}

/// Candidate machine simplifications, most aggressive first.  Each either returns a
/// *different* valid machine or `None` when the reduction does not apply.
fn machine_reductions(machine: &MachineConfig) -> Vec<MachineConfig> {
    let mut candidates = Vec::new();
    let mut push = |m: MachineConfig| {
        if m != *machine && m.validate().is_ok() {
            candidates.push(m);
        }
    };
    if machine.n_clusters > 2 {
        let mut m = machine.clone();
        m.n_clusters = 2;
        m.name = format!("{}-2c", machine.name);
        push(m);
    }
    if machine.buses.count > 1 {
        let mut m = machine.clone();
        m.buses = BusConfig::new(1, machine.buses.latency);
        push(m);
    }
    if machine.buses.count > 0 && machine.buses.latency > 1 {
        let mut m = machine.clone();
        m.buses = BusConfig::new(machine.buses.count, 1);
        push(m);
    }
    let c = &machine.cluster;
    if c.fus != [1, 1, 1] {
        let mut m = machine.clone();
        m.cluster = ClusterConfig::new(1, 1, 1, c.registers);
        push(m);
    }
    if c.registers < 64 {
        // A roomy register file removes the register dimension from the reproducer
        // when pressure is irrelevant to the bug.
        let mut m = machine.clone();
        m.cluster = ClusterConfig::new(c.fus[0], c.fus[1], c.fus[2], 64);
        push(m);
    }
    candidates
}

/// Greedily reduce a failing `(machine, graph)` pair, re-checking `fails` after
/// every candidate reduction and keeping only reductions that preserve the failure.
/// At most `budget` predicate evaluations are spent; the pair returned always still
/// fails (the inputs are required to fail — debug-asserted).
pub fn shrink_case(
    machine: &MachineConfig,
    graph: &DepGraph,
    mut fails: impl FnMut(&MachineConfig, &DepGraph) -> bool,
    budget: usize,
) -> ShrinkResult {
    let mut machine = machine.clone();
    let mut graph = graph.clone();
    debug_assert!(fails(&machine, &graph), "shrink_case needs a failing input");
    let mut checks = 0usize;
    // Evaluate `fails` on a candidate, first returning the current best pair when
    // the evaluation budget is already spent — `checks` counts only evaluations
    // that actually ran, so it never exceeds `budget`.
    macro_rules! try_candidate {
        ($m:expr, $g:expr) => {{
            if checks >= budget {
                return ShrinkResult {
                    machine,
                    graph,
                    checks,
                };
            }
            checks += 1;
            fails($m, $g)
        }};
    }

    loop {
        let mut reduced = false;

        // 1. Node deletion, one at a time (later nodes first: they are leaves more
        // often, so early passes shed the expression trees quickly).
        let mut idx = graph.n_nodes();
        while idx > 0 {
            idx -= 1;
            if graph.n_nodes() <= 1 {
                break;
            }
            let mut keep = vec![true; graph.n_nodes()];
            keep[idx] = false;
            let candidate = induced_subgraph(&graph, &keep);
            if try_candidate!(&machine, &candidate) {
                graph = candidate;
                reduced = true;
                // Deleting node `idx` shifts later ids down; `idx` now names the
                // next-lower candidate, which the loop decrement handles.
            }
        }

        // 2. Edge deletion.
        let mut e = graph.n_edges();
        while e > 0 {
            e -= 1;
            let candidate = without_edge(&graph, e);
            if try_candidate!(&machine, &candidate) {
                graph = candidate;
                reduced = true;
            }
        }

        // 3. Iteration clamp (the simulator replays every iteration, so small
        // iteration counts also make the reproducer cheap to re-run).
        if graph.iterations > 8 {
            let mut candidate = graph.clone();
            candidate.iterations = 8;
            if try_candidate!(&machine, &candidate) {
                graph = candidate;
                reduced = true;
            }
        }

        // 4. Machine simplification.
        for candidate in machine_reductions(&machine) {
            if try_candidate!(&candidate, &graph) {
                machine = candidate;
                reduced = true;
            }
        }

        if !reduced {
            return ShrinkResult {
                machine,
                graph,
                checks,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::OpClass;
    use vliw_ddg::DepKind;

    fn chain(n: usize) -> DepGraph {
        let mut g = DepGraph::new("chain");
        let ids: Vec<_> = (0..n).map(|_| g.add_node(OpClass::IntAlu)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1, 0, DepKind::Flow);
        }
        g
    }

    #[test]
    fn induced_subgraph_remaps_edges() {
        let g = chain(4);
        let sub = induced_subgraph(&g, &[true, false, true, true]);
        assert_eq!(sub.n_nodes(), 3);
        // Only the 2->3 edge survives (0->1 and 1->2 lose an endpoint).
        assert_eq!(sub.n_edges(), 1);
        let e = sub.edges().next().unwrap();
        assert_eq!((e.src.index(), e.dst.index()), (1, 2));
        assert!(sub.validate().is_ok());
    }

    #[test]
    fn shrinks_to_the_two_nodes_the_failure_needs() {
        // "Fails" whenever a Store consumes a Load — everything else is noise that
        // the shrinker must strip.
        let mut g = chain(6);
        let ld = g.add_node(OpClass::Load);
        let st = g.add_node(OpClass::Store);
        g.add_edge(ld, st, 2, 0, DepKind::Flow);
        let machine = MachineConfig::four_cluster(2, 4);
        let fails = |_: &MachineConfig, g: &DepGraph| {
            g.edges().any(|e| {
                g.node(e.src).class == OpClass::Load && g.node(e.dst).class == OpClass::Store
            })
        };
        let result = shrink_case(&machine, &g, fails, 10_000);
        assert_eq!(result.graph.n_nodes(), 2);
        assert_eq!(result.graph.n_edges(), 1);
        assert!(fails(&result.machine, &result.graph));
        // The machine collapsed to the simplest valid one still failing.
        assert_eq!(result.machine.n_clusters, 2);
        assert_eq!(result.machine.buses.count, 1);
        assert_eq!(result.machine.buses.latency, 1);
        assert_eq!(result.machine.cluster.fus, [1, 1, 1]);
    }

    #[test]
    fn budget_bounds_the_predicate_evaluations() {
        let g = chain(30);
        let machine = MachineConfig::two_cluster(1, 1);
        let mut evals = 0usize;
        let result = shrink_case(
            &machine,
            &g,
            |_, _| {
                evals += 1;
                true
            },
            25,
        );
        // `checks` counts exactly the evaluations that ran, and never exceeds the
        // budget (the debug-assert on the failing input is not budgeted).
        assert_eq!(result.checks, 25);
        assert!(evals <= 26);
    }

    #[test]
    fn iteration_counts_are_clamped_when_irrelevant() {
        let mut g = chain(3);
        g.iterations = 500;
        let machine = MachineConfig::two_cluster(1, 1);
        let result = shrink_case(&machine, &g, |_, _| true, 10_000);
        assert_eq!(result.graph.iterations, 8);
    }
}
