//! Inter-cluster communication allocation.
//!
//! When a node is placed in a cluster different from one of its (already scheduled)
//! flow-dependence neighbours, the value has to cross a bus.  The architecture of
//! Section 3 makes the bus an ordinary reservation-table resource that stays busy for
//! the whole bus latency, so allocating a communication means finding a start cycle
//! inside the window
//!
//! ```text
//!   [ value-ready cycle , consumer-issue cycle − bus latency ]
//! ```
//!
//! where some bus is free for `bus latency` consecutive cycles.  A value already
//! transferred to a cluster is *not* transferred again (the paper's Figure 7 walks
//! through exactly this case: "value from D − value from A was previously brought"),
//! so a probe drops every request a recorded communication already covers before
//! the allocator looks for a bus.

use crate::mrt::ModuloReservationTable;
use crate::schedule::{CommPlacement, ModuloSchedule};
use vliw_arch::{MachineConfig, ResourcePool};
use vliw_ddg::{DepGraph, NodeId};

/// One communication that a tentative placement needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommRequest {
    /// The node whose value crosses the bus.
    pub src_node: NodeId,
    /// The consumer on the other side.
    pub dst_node: NodeId,
    /// Sending cluster.
    pub from_cluster: usize,
    /// Receiving cluster.
    pub to_cluster: usize,
    /// First cycle the value is available for sending.
    pub ready: i64,
    /// Latest cycle the value must have *arrived* (the consumer's issue cycle in the
    /// producer's time frame).
    pub deadline: i64,
}

/// The set of communications required to place `node` on `cluster` at `cycle`, given
/// the partial schedule `sched`.
///
/// Covers both directions: values arriving from already-placed predecessors in other
/// clusters, and values leaving towards already-placed successors in other clusters.
/// Requests are deduplicated per (source value, destination cluster) with the tightest
/// deadline and latest ready time.
pub fn required_comms(
    graph: &DepGraph,
    sched: &ModuloSchedule,
    node: NodeId,
    cluster: usize,
    cycle: i64,
) -> Vec<CommRequest> {
    let ii = sched.ii() as i64;
    let mut requests: Vec<CommRequest> = Vec::new();
    let mut push = |req: CommRequest| {
        if let Some(existing) = requests
            .iter_mut()
            .find(|r| r.src_node == req.src_node && r.to_cluster == req.to_cluster)
        {
            existing.ready = existing.ready.max(req.ready);
            existing.deadline = existing.deadline.min(req.deadline);
        } else {
            requests.push(req);
        }
    };

    // Incoming values: predecessor placed in another cluster.
    for e in graph.in_edges(node).filter(|e| e.kind.carries_value()) {
        if e.src == node {
            continue;
        }
        let Some(p) = sched.placement(e.src) else {
            continue;
        };
        if p.cluster == cluster {
            continue;
        }
        // In the consumer's time frame the producer issued at p.cycle − d·II.
        let ready = p.cycle + e.latency as i64 - e.distance as i64 * ii;
        push(CommRequest {
            src_node: e.src,
            dst_node: node,
            from_cluster: p.cluster,
            to_cluster: cluster,
            ready,
            deadline: cycle,
        });
    }

    // Outgoing values: successor already placed in another cluster.
    for e in graph.out_edges(node).filter(|e| e.kind.carries_value()) {
        if e.dst == node {
            continue;
        }
        let Some(s) = sched.placement(e.dst) else {
            continue;
        };
        if s.cluster == cluster {
            continue;
        }
        let ready = cycle + e.latency as i64;
        let deadline = s.cycle + e.distance as i64 * ii;
        push(CommRequest {
            src_node: node,
            dst_node: e.dst,
            from_cluster: cluster,
            to_cluster: s.cluster,
            ready,
            deadline,
        });
    }
    requests
}

/// One communication requirement of a `(node, cluster)` probe with the probed cycle
/// left symbolic.  Both window bounds are affine in the cycle: an incoming transfer
/// has a fixed `ready` and `deadline = cycle`, an outgoing transfer has
/// `ready = cycle + latency` and a fixed `deadline`.
#[derive(Debug, Clone, Copy)]
struct CommTemplate {
    src_node: NodeId,
    dst_node: NodeId,
    from_cluster: usize,
    to_cluster: usize,
    /// Fixed part of `ready`: absolute for incoming, cycle-relative for outgoing.
    ready: i64,
    /// Fixed part of `deadline`: absolute for outgoing, unused for incoming (the
    /// deadline of an incoming transfer is the probed cycle itself).
    deadline: i64,
    outgoing: bool,
    /// Cycle threshold at which an already-committed transfer of the same value to
    /// the same cluster covers this request (incoming: covered iff `cycle >= t`;
    /// outgoing: covered iff `cycle <= t`).
    covered_at: Option<i64>,
}

/// The cycle-independent communication analysis of one `(node, cluster)` probe.
///
/// [`required_comms`] re-derives the request set from the graph and the partial
/// schedule for every probed cycle, but within one probe only the cycle changes —
/// the remote neighbours, the merge structure and the committed transfers are all
/// fixed.  `ProbeComms` computes them once ([`ProbeComms::collect`]) and then
/// materializes the per-cycle requests ([`ProbeComms::requests_at`]) by shifting the
/// affine window bounds, dropping requests a committed transfer already covers, so
/// the bus allocator never re-scans the comm list.  The engine debug-asserts every
/// materialization against the from-scratch derivation.
#[derive(Debug, Default)]
pub(crate) struct ProbeComms {
    templates: Vec<CommTemplate>,
    requests: Vec<CommRequest>,
}

impl ProbeComms {
    /// Analyse placing `node` on `cluster`: record the requirement templates and
    /// their committed-coverage thresholds.  Mirrors [`required_comms`]'s edge
    /// iteration and merge order exactly.
    pub(crate) fn collect(
        &mut self,
        graph: &DepGraph,
        sched: &ModuloSchedule,
        node: NodeId,
        cluster: usize,
    ) {
        let ii = sched.ii() as i64;
        self.templates.clear();
        for e in graph.in_edges(node).filter(|e| e.kind.carries_value()) {
            if e.src == node {
                continue;
            }
            let Some(p) = sched.placement(e.src) else {
                continue;
            };
            if p.cluster == cluster {
                continue;
            }
            let ready = p.cycle + e.latency as i64 - e.distance as i64 * ii;
            if let Some(t) = self
                .templates
                .iter_mut()
                .find(|t| t.src_node == e.src && t.to_cluster == cluster)
            {
                t.ready = t.ready.max(ready);
            } else {
                self.templates.push(CommTemplate {
                    src_node: e.src,
                    dst_node: node,
                    from_cluster: p.cluster,
                    to_cluster: cluster,
                    ready,
                    deadline: 0,
                    outgoing: false,
                    covered_at: None,
                });
            }
        }
        for e in graph.out_edges(node).filter(|e| e.kind.carries_value()) {
            if e.dst == node {
                continue;
            }
            let Some(s) = sched.placement(e.dst) else {
                continue;
            };
            if s.cluster == cluster {
                continue;
            }
            let ready = e.latency as i64;
            let deadline = s.cycle + e.distance as i64 * ii;
            if let Some(t) = self
                .templates
                .iter_mut()
                .find(|t| t.src_node == node && t.to_cluster == s.cluster)
            {
                t.ready = t.ready.max(ready);
                t.deadline = t.deadline.min(deadline);
            } else {
                self.templates.push(CommTemplate {
                    src_node: node,
                    dst_node: e.dst,
                    from_cluster: cluster,
                    to_cluster: s.cluster,
                    ready,
                    deadline,
                    outgoing: true,
                    covered_at: None,
                });
            }
        }
        // Committed-coverage thresholds: one scan of the comm list per probe instead
        // of one per probed cycle.  A committed transfer `c` covers an incoming
        // request iff `c.start >= ready && c.end <= cycle` — i.e. from cycle
        // `min(c.end)` on — and an outgoing request iff
        // `c.start >= cycle + ready_rel && c.end <= deadline` — i.e. up to cycle
        // `max(c.start - ready_rel)`.
        if !self.templates.is_empty() {
            for c in sched.comms() {
                let end = c.start_cycle + c.duration as i64;
                for t in &mut self.templates {
                    if c.src_node != t.src_node || c.to_cluster != t.to_cluster {
                        continue;
                    }
                    if t.outgoing {
                        if end <= t.deadline {
                            let at = c.start_cycle - t.ready;
                            t.covered_at = Some(t.covered_at.map_or(at, |v| v.max(at)));
                        }
                    } else if c.start_cycle >= t.ready {
                        t.covered_at = Some(t.covered_at.map_or(end, |v| v.min(end)));
                    }
                }
            }
        }
    }

    /// Materialize the requests of this probe at `cycle` — [`required_comms`] output
    /// minus the requests a committed transfer already covers — into a reused buffer.
    pub(crate) fn requests_at(&mut self, cycle: i64) -> &[CommRequest] {
        self.requests.clear();
        for t in &self.templates {
            let covered = match t.covered_at {
                None => false,
                Some(at) if t.outgoing => cycle <= at,
                Some(at) => cycle >= at,
            };
            if covered {
                continue;
            }
            let (ready, deadline) = if t.outgoing {
                (cycle + t.ready, t.deadline)
            } else {
                (t.ready, cycle)
            };
            self.requests.push(CommRequest {
                src_node: t.src_node,
                dst_node: t.dst_node,
                from_cluster: t.from_cluster,
                to_cluster: t.to_cluster,
                ready,
                deadline,
            });
        }
        &self.requests
    }
}

/// Outcome of trying to allocate a set of communication requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CommAllocation {
    /// All requests satisfied; the new communications (already reserved in the MRT
    /// passed to [`allocate_uncovered_comms`]) are listed.
    Satisfied(Vec<CommPlacement>),
    /// At least one request could not be satisfied because no bus slot fits the
    /// window.  The MRT is left unchanged.
    BusUnavailable,
    /// At least one request has an empty window (deadline earlier than ready + bus
    /// latency); the placement cycle itself is infeasible.  The MRT is left unchanged.
    WindowTooSmall,
}

/// Try to allocate buses for all `requests`, reserving slots in `mrt`.
///
/// The caller guarantees no request is covered by a committed transfer
/// ([`ProbeComms::requests_at`] dropped those), so only reuse between the requests
/// of this call is checked.  On failure every reservation made for this call is
/// rolled back and the MRT is unchanged.
pub(crate) fn allocate_uncovered_comms(
    requests: &[CommRequest],
    pool: &ResourcePool,
    mrt: &mut ModuloReservationTable,
    machine: &MachineConfig,
) -> CommAllocation {
    let latency = machine.buses.latency;
    let ii = mrt.ii() as i64;
    let mut new_comms: Vec<CommPlacement> = Vec::new();

    // Every tentative reservation is one entry of `new_comms`.
    let rollback = |mrt: &mut ModuloReservationTable, new_comms: &[CommPlacement]| {
        for c in new_comms {
            mrt.unreserve_for(c.bus, c.start_cycle, c.duration);
        }
    };

    for req in requests {
        // Re-use a transfer of the same value to the same cluster made for an
        // earlier request of this call if it arrives in time and was not sent
        // before the value was ready (modulo-II periodicity makes any earlier
        // compatible transfer usable every iteration).
        let reused = new_comms.iter().any(|c| {
            c.src_node == req.src_node
                && c.to_cluster == req.to_cluster
                && c.start_cycle >= req.ready
                && c.start_cycle + c.duration as i64 <= req.deadline
        });
        if reused {
            continue;
        }
        if req.deadline - req.ready < latency as i64 {
            rollback(mrt, &new_comms);
            return CommAllocation::WindowTooSmall;
        }
        // The earliest start in the window with a free bus; at most II distinct
        // columns exist.
        let last_start = (req.deadline - latency as i64).min(req.ready + ii - 1);
        let found = mrt.first_free_start(pool.buses(), req.ready, last_start, latency);
        #[cfg(debug_assertions)]
        {
            // The run-skipping query must equal probing every start in turn.
            let linear = (req.ready..=last_start).find_map(|start| {
                mrt.find_free_for(pool.buses(), start, latency)
                    .map(|bus| (start, bus))
            });
            debug_assert_eq!(
                found, linear,
                "first_free_start diverged from the linear bus scan over [{}, {last_start}]",
                req.ready
            );
        }
        let Some((start, bus)) = found else {
            rollback(mrt, &new_comms);
            return CommAllocation::BusUnavailable;
        };
        mrt.reserve_for(bus, start, latency);
        new_comms.push(CommPlacement {
            src_node: req.src_node,
            dst_node: req.dst_node,
            from_cluster: req.from_cluster,
            to_cluster: req.to_cluster,
            bus,
            start_cycle: start,
            duration: latency,
        });
    }
    CommAllocation::Satisfied(new_comms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::PlacedOp;
    use vliw_arch::{FuKind, MachineConfig, OpClass};
    use vliw_ddg::{DepGraph, DepKind};

    fn two_cluster() -> (MachineConfig, ResourcePool) {
        let m = MachineConfig::two_cluster(1, 1);
        let p = ResourcePool::new(&m);
        (m, p)
    }

    fn graph_pair() -> DepGraph {
        let mut g = DepGraph::new("pair");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g
    }

    #[test]
    fn no_comms_needed_within_one_cluster() {
        let (_, pool) = two_cluster();
        let g = graph_pair();
        let mut sched = ModuloSchedule::new("pair", 2, 4, 1);
        sched.place(PlacedOp {
            node: NodeId(0),
            cycle: 0,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
        let reqs = required_comms(&g, &sched, NodeId(1), 0, 3);
        assert!(reqs.is_empty());
    }

    #[test]
    fn incoming_value_from_other_cluster_requires_a_transfer() {
        let (_, pool) = two_cluster();
        let g = graph_pair();
        let mut sched = ModuloSchedule::new("pair", 2, 4, 1);
        sched.place(PlacedOp {
            node: NodeId(0),
            cycle: 0,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
        let reqs = required_comms(&g, &sched, NodeId(1), 1, 5);
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert_eq!(r.src_node, NodeId(0));
        assert_eq!((r.from_cluster, r.to_cluster), (0, 1));
        assert_eq!(r.ready, 2); // load issues at 0, latency 2
        assert_eq!(r.deadline, 5);
    }

    #[test]
    fn outgoing_value_to_scheduled_successor() {
        let (_, pool) = two_cluster();
        let g = graph_pair();
        let mut sched = ModuloSchedule::new("pair", 2, 4, 1);
        // The consumer is already placed on cluster 1; we now try the producer on 0.
        sched.place(PlacedOp {
            node: NodeId(1),
            cycle: 6,
            cluster: 1,
            fu: pool.fus(1, FuKind::Fp).next().unwrap(),
        });
        let reqs = required_comms(&g, &sched, NodeId(0), 0, 1);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].ready, 3); // issue 1 + latency 2
        assert_eq!(reqs[0].deadline, 6);
    }

    #[test]
    fn allocation_reserves_a_bus_and_rolls_back_on_failure() {
        let (machine, pool) = two_cluster();
        let mut mrt = ModuloReservationTable::new(&pool, 2);
        let req = CommRequest {
            src_node: NodeId(0),
            dst_node: NodeId(1),
            from_cluster: 0,
            to_cluster: 1,
            ready: 2,
            deadline: 5,
        };
        let result = allocate_uncovered_comms(&[req], &pool, &mut mrt, &machine);
        let CommAllocation::Satisfied(comms) = result else {
            panic!("expected success")
        };
        assert_eq!(comms.len(), 1);
        let bus = pool.buses().next().unwrap();
        assert_eq!(mrt.row_occupancy(bus), 1);

        // The single bus (II = 2, one slot left) cannot take two more transfers.
        let req2 = CommRequest {
            ready: 3,
            deadline: 6,
            ..req
        };
        let req3 = CommRequest {
            ready: 4,
            deadline: 7,
            ..req
        };
        let before = mrt.row_occupancy(bus);
        let result = allocate_uncovered_comms(&[req2, req3], &pool, &mut mrt, &machine);
        assert_eq!(result, CommAllocation::BusUnavailable);
        // rollback left the table untouched
        assert_eq!(mrt.row_occupancy(bus), before);
    }

    #[test]
    fn window_smaller_than_bus_latency_is_rejected() {
        let machine = MachineConfig::two_cluster(1, 4); // 4-cycle buses
        let pool = ResourcePool::new(&machine);
        let mut mrt = ModuloReservationTable::new(&pool, 8);
        let req = CommRequest {
            src_node: NodeId(0),
            dst_node: NodeId(1),
            from_cluster: 0,
            to_cluster: 1,
            ready: 2,
            deadline: 4, // only 2 cycles of slack, bus needs 4
        };
        let result = allocate_uncovered_comms(&[req], &pool, &mut mrt, &machine);
        assert_eq!(result, CommAllocation::WindowTooSmall);
    }

    #[test]
    fn existing_transfer_is_reused() {
        let (_, pool) = two_cluster();
        // Node 0 (a load on cluster 0) feeds two consumers on cluster 1.
        let mut g = DepGraph::new("fanout");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        let c = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(a, c, 2, 0, DepKind::Flow);
        let mut sched = ModuloSchedule::new("fanout", 3, 4, 1);
        sched.place(PlacedOp {
            node: a,
            cycle: 0,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
        // A transfer of node 0's value to cluster 1 already exists (cycles 2..3).
        sched.add_comm(CommPlacement {
            src_node: a,
            dst_node: b,
            from_cluster: 0,
            to_cluster: 1,
            bus: pool.buses().next().unwrap(),
            start_cycle: 2,
            duration: 1,
        });
        // A second consumer of the same value on cluster 1, later in time: no new
        // transfer is needed.  Too early for the committed transfer, it still is.
        let mut probe = ProbeComms::default();
        probe.collect(&g, &sched, c, 1);
        assert!(probe.requests_at(5).is_empty());
        let early = probe.requests_at(2).to_vec();
        assert_eq!(early.len(), 1);
        assert_eq!((early[0].src_node, early[0].dst_node), (a, c));
        assert_eq!((early[0].ready, early[0].deadline), (2, 2));
    }

    #[test]
    fn duplicate_requests_are_merged() {
        let (_, pool) = two_cluster();
        let mut g = DepGraph::new("fanin");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        // two flow edges from the same producer to the same consumer (e.g. x*x)
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut sched = ModuloSchedule::new("fanin", 2, 4, 1);
        sched.place(PlacedOp {
            node: a,
            cycle: 0,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
        let reqs = required_comms(&g, &sched, b, 1, 5);
        assert_eq!(reqs.len(), 1);
    }
}
