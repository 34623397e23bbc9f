//! Slot-selection helpers shared by the unified and the clustered schedulers.
//!
//! For a node `n` being placed while part of the graph is already scheduled, modulo
//! scheduling computes
//!
//! * `EarlyStart(n)` — the earliest cycle compatible with every *scheduled
//!   predecessor*: `max over edges p→n of  t(p) + latency − II·distance`, and
//! * `LateStart(n)` — the latest cycle compatible with every *scheduled successor*:
//!   `min over edges n→s of  t(s) − latency + II·distance`.
//!
//! On a clustered machine a value that crosses clusters additionally pays the bus
//! latency, so both bounds take the *target cluster*: edges whose already-placed
//! endpoint sits in a different cluster are penalised by the machine's bus latency
//! (this is how the paper's scheduler "hides" the communication latency — it simply
//! becomes part of the dependence distance being scheduled around).
//!
//! The scan order over candidate cycles follows Swing Modulo Scheduling:
//! only-predecessors-placed nodes scan forward from `EarlyStart`, only-successors
//! nodes scan backward from `LateStart`, nodes with both scan the (possibly empty)
//! window `[EarlyStart, LateStart]`, and free nodes scan forward from their ASAP time.
//! In every case at most `II` cycles need to be examined: beyond that the reservation
//! table repeats itself.

use crate::schedule::ModuloSchedule;
use vliw_ddg::{DepGraph, NodeId};

/// The earliest start cycle of `node` implied by its already-scheduled predecessors.
///
/// `cluster` is the cluster the node is being tried on; `bus_latency` is added
/// for value-carrying edges arriving from another cluster.  Returns `None` when no
/// predecessor has been scheduled yet.
pub fn early_start(
    graph: &DepGraph,
    sched: &ModuloSchedule,
    node: NodeId,
    ii: u32,
    cluster: usize,
    bus_latency: u32,
) -> Option<i64> {
    let mut bound: Option<i64> = None;
    for e in graph.in_edges(node) {
        if e.src == node {
            // A self edge constrains the node against its own previous iterations;
            // with distance >= 1 it is satisfied whenever II >= RecMII, so it never
            // constrains the placement cycle itself.
            continue;
        }
        let Some(p) = sched.placement(e.src) else {
            continue;
        };
        let mut lat = e.latency as i64;
        if e.kind.carries_value() && p.cluster != cluster {
            lat += bus_latency as i64;
        }
        let t = p.cycle + lat - ii as i64 * e.distance as i64;
        bound = Some(bound.map_or(t, |b: i64| b.max(t)));
    }
    bound
}

/// The latest start cycle of `node` implied by its already-scheduled successors.
///
/// Symmetric to [`early_start`]; `bus_latency` is added for value-carrying edges
/// leaving towards another cluster.  Returns `None` when no successor has been
/// scheduled yet.
pub fn late_start(
    graph: &DepGraph,
    sched: &ModuloSchedule,
    node: NodeId,
    ii: u32,
    cluster: usize,
    bus_latency: u32,
) -> Option<i64> {
    let mut bound: Option<i64> = None;
    for e in graph.out_edges(node) {
        if e.dst == node {
            continue;
        }
        let Some(s) = sched.placement(e.dst) else {
            continue;
        };
        let mut lat = e.latency as i64;
        if e.kind.carries_value() && s.cluster != cluster {
            lat += bus_latency as i64;
        }
        let t = s.cycle - lat + ii as i64 * e.distance as i64;
        bound = Some(bound.map_or(t, |b: i64| b.min(t)));
    }
    bound
}

/// The sequence of candidate cycles to try for a node, given its (optional) early and
/// late bounds.  At most `II` candidates are produced.
///
/// The scan is a plain counting iterator (start, direction, length) — it allocates
/// nothing, which matters because one is built per (node, cluster, II-attempt) in the
/// schedulers' innermost loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotScan {
    next: i64,
    /// Candidates still to be produced.
    remaining: u64,
    /// `+1` for forward scans, `-1` for backward (only-successors) scans.
    step: i64,
}

impl SlotScan {
    /// Build the scan for a node with the given bounds.  `default_start` is used when
    /// neither bound exists (typically the node's ASAP time, or 0).
    pub fn new(early: Option<i64>, late: Option<i64>, ii: u32, default_start: i64) -> Self {
        let ii = ii as i64;
        match (early, late) {
            (Some(e), Some(l)) => {
                // Window [e, min(l, e + II - 1)], forward.  May be empty, in which case
                // the node is unschedulable at this II in this cluster.
                let hi = l.min(e + ii - 1);
                Self {
                    next: e,
                    remaining: (hi - e + 1).max(0) as u64,
                    step: 1,
                }
            }
            (Some(e), None) => Self {
                next: e,
                remaining: ii as u64,
                step: 1,
            },
            (None, Some(l)) => Self {
                next: l,
                remaining: ii as u64,
                step: -1,
            },
            (None, None) => Self {
                next: default_start,
                remaining: ii as u64,
                step: 1,
            },
        }
    }

    /// The candidate cycles, in the order they will be produced (test/debug helper;
    /// the schedulers iterate the scan directly).
    pub fn cycles(&self) -> Vec<i64> {
        (*self).collect()
    }

    /// Whether the scan window is empty (placement impossible at this II).
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl Iterator for SlotScan {
    type Item = i64;
    fn next(&mut self) -> Option<i64> {
        if self.remaining == 0 {
            return None;
        }
        let cycle = self.next;
        self.next += self.step;
        self.remaining -= 1;
        Some(cycle)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for SlotScan {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::PlacedOp;
    use vliw_arch::{FuKind, MachineConfig, OpClass, ResourcePool};
    use vliw_ddg::{DepGraph, DepKind};

    fn setup() -> (DepGraph, ModuloSchedule, ResourcePool) {
        // a -> b -> c, a: load(2), b: fmul(4)
        let mut g = DepGraph::new("chain");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpMul);
        let c = g.add_node(OpClass::Store);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(b, c, 4, 0, DepKind::Flow);
        let machine = MachineConfig::two_cluster(1, 2);
        let pool = ResourcePool::new(&machine);
        let sched = ModuloSchedule::new("chain", 3, 4, 2);
        (g, sched, pool)
    }

    #[test]
    fn no_scheduled_neighbours_gives_no_bounds() {
        let (g, sched, _) = setup();
        assert_eq!(early_start(&g, &sched, NodeId(1), 4, 0, 0), None);
        assert_eq!(late_start(&g, &sched, NodeId(1), 4, 0, 0), None);
    }

    #[test]
    fn early_start_from_scheduled_predecessor() {
        let (g, mut sched, pool) = setup();
        sched.place(PlacedOp {
            node: NodeId(0),
            cycle: 5,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
        // b must start at or after 5 + 2
        assert_eq!(early_start(&g, &sched, NodeId(1), 4, 0, 0), Some(7));
        // On another cluster the bus latency (say 2) is added.
        assert_eq!(early_start(&g, &sched, NodeId(1), 4, 1, 2), Some(9));
        // Same cluster: no penalty.
        assert_eq!(early_start(&g, &sched, NodeId(1), 4, 0, 2), Some(7));
    }

    #[test]
    fn late_start_from_scheduled_successor() {
        let (g, mut sched, pool) = setup();
        sched.place(PlacedOp {
            node: NodeId(2),
            cycle: 10,
            cluster: 1,
            fu: pool.fus(1, FuKind::Mem).next().unwrap(),
        });
        // b must start at or before 10 - 4
        assert_eq!(late_start(&g, &sched, NodeId(1), 4, 0, 0), Some(6));
        // If b is tried on cluster 0, the value to c (cluster 1) pays the bus.
        assert_eq!(late_start(&g, &sched, NodeId(1), 4, 0, 2), Some(4));
        assert_eq!(late_start(&g, &sched, NodeId(1), 4, 1, 2), Some(6));
    }

    #[test]
    fn loop_carried_edges_relax_bounds_by_ii() {
        let mut g = DepGraph::new("rec");
        let a = g.add_node(OpClass::FpAdd);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 3, 0, DepKind::Flow);
        g.add_edge(b, a, 3, 1, DepKind::Flow);
        let machine = MachineConfig::unified();
        let pool = ResourcePool::new(&machine);
        let mut sched = ModuloSchedule::new("rec", 2, 6, 6);
        sched.place(PlacedOp {
            node: NodeId(1),
            cycle: 3,
            cluster: 0,
            fu: pool.fus(0, FuKind::Fp).next().unwrap(),
        });
        // a as successor of b through the back edge: early = 3 + 3 - 6*1 = 0
        assert_eq!(early_start(&g, &sched, NodeId(0), 6, 0, 0), Some(0));
        // a as predecessor of b through the forward edge: late = 3 - 3 + 0 = 0
        assert_eq!(late_start(&g, &sched, NodeId(0), 6, 0, 0), Some(0));
    }

    #[test]
    fn self_edges_do_not_constrain_placement() {
        let mut g = DepGraph::new("self");
        let a = g.add_node(OpClass::FpAdd);
        g.add_edge(a, a, 3, 1, DepKind::Flow);
        let sched = ModuloSchedule::new("self", 1, 3, 3);
        assert_eq!(early_start(&g, &sched, NodeId(0), 3, 0, 0), None);
        assert_eq!(late_start(&g, &sched, NodeId(0), 3, 0, 0), None);
    }

    #[test]
    fn scan_orders() {
        // both bounds: forward window clipped to II
        let s = SlotScan::new(Some(4), Some(20), 3, 0);
        assert_eq!(s.cycles(), vec![4, 5, 6]);
        // both bounds, tight window
        let s = SlotScan::new(Some(4), Some(5), 3, 0);
        assert_eq!(s.cycles(), vec![4, 5]);
        // empty window
        let s = SlotScan::new(Some(6), Some(4), 3, 0);
        assert!(s.is_empty());
        // preds only: forward II candidates
        let s = SlotScan::new(Some(2), None, 4, 0);
        assert_eq!(s.cycles(), vec![2, 3, 4, 5]);
        // succs only: backward II candidates
        let s = SlotScan::new(None, Some(9), 3, 0);
        assert_eq!(s.cycles(), vec![9, 8, 7]);
        // free node: forward from the default
        let s = SlotScan::new(None, None, 2, 7);
        assert_eq!(s.cycles(), vec![7, 8]);
    }

    #[test]
    fn scan_is_an_exact_size_iterator() {
        let s = SlotScan::new(Some(0), None, 2, 0);
        assert_eq!(s.len(), 2);
        let v: Vec<i64> = s.collect();
        assert_eq!(v, vec![0, 1]);
        // `cycles()` does not consume the scan (it is `Copy`).
        let s = SlotScan::new(None, Some(3), 2, 0);
        assert_eq!(s.cycles(), vec![3, 2]);
        assert_eq!(s.cycles(), vec![3, 2]);
    }
}
