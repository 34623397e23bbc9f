//! Value lifetimes and register pressure (`MaxLive`), kept incrementally.
//!
//! The paper's schedulers generate no spill code; instead, a cluster whose register
//! file would overflow is simply not a candidate for the node being placed ("those
//! clusters for which the insertion of this node would increase the register
//! requirements above the number of available registers are discarded", Section 5.1).
//! The register requirement of a cluster is estimated with the standard `MaxLive`
//! measure: the maximum, over the `II` rows of the kernel, of the number of
//! simultaneously live values the cluster's register file must hold.
//!
//! Lifetime model (documented assumptions):
//!
//! * a value produced by node `p` placed at cycle `t_p` is live from `t_p` (the
//!   register is conservatively considered allocated at issue) until the issue cycle of
//!   its last consumer, where a consumer at distance `d` reads at `t_c + d·II`;
//! * a consumer placed in a *different* cluster reads the value at the start cycle of
//!   the corresponding bus transfer (after which the value lives in the bus / in the
//!   consumer's incoming-value register, not in the producer's register file);
//! * a value received over a bus is written to the receiving cluster's register file
//!   only if it is not consumed exactly at its arrival cycle (otherwise it is read
//!   directly from the incoming-value register, as the architecture of Figure 2
//!   allows); when written, it is live from arrival until its last local use;
//! * values with no consumer occupy a register for a single cycle.
//!
//! [`PressureTracker`] is the one implementation of this model.  Placing node `n`
//! can only change the ranges of `n` and of its placed value predecessors, so the
//! tracker re-derives just those against the trial schedule and applies the
//! difference — O(degree × II) per probe.  `fits` counts over-capacity
//! (cluster, row) entries as rows cross the register-file size, which keeps it
//! equal to a from-scratch check even for the tampered trials a hostile
//! [`crate::engine::ClusterPolicy`] may commit (the fault-injection campaigns do).
//!
//! The from-scratch view is a fold of the same commits:
//! [`PressureTracker::of_schedule`] re-arms a tracker and derives every placed
//! producer's ranges once (none of the incremental shortcuts), and
//! [`cluster_max_live`] reads its `MaxLive`.  Debug builds cross-check
//! the incremental answers against that fold; the schedules the tracker admits
//! are property-tested against the independent `vliw_lint` analyses.

use crate::schedule::ModuloSchedule;
use std::ops::Range;
use vliw_arch::MachineConfig;
use vliw_ddg::{DepGraph, NodeId};

/// One live range contributing register pressure to a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LiveRange {
    /// The node whose value this range belongs to.
    pub node: NodeId,
    /// The cluster whose register file holds the value.
    pub cluster: usize,
    /// First cycle (inclusive) the value occupies a register.
    pub start: i64,
    /// Last cycle (exclusive).
    pub end: i64,
}

/// Append the live ranges contributed by one producer `node` to `out`.
///
/// Pushes nothing when `node` defines no value or is not placed. `remote_last_read`
/// is caller-provided scratch sized to the cluster count (contents are overwritten).
fn push_producer_ranges(
    graph: &DepGraph,
    sched: &ModuloSchedule,
    node: NodeId,
    remote_last_read: &mut [Option<(i64, i64)>],
    out: &mut Vec<LiveRange>,
) {
    let ii = sched.ii();
    if !graph.node(node).class.defines_value() {
        return;
    }
    let Some(prod) = sched.placement(node) else {
        return;
    };

    // Producer-side range: from issue until the last read performed from this
    // cluster's register file (local consumers, or the bus transfer start for
    // remote consumers).
    let mut last_local_read = prod.cycle + 1; // minimum 1-cycle occupancy

    remote_last_read.fill(None);

    for e in graph.out_edges(node).filter(|e| e.kind.carries_value()) {
        let Some(cons) = sched.placement(e.dst) else {
            continue;
        };
        let read_cycle = cons.cycle + e.distance as i64 * ii as i64;
        if cons.cluster == prod.cluster {
            last_local_read = last_local_read.max(read_cycle);
        } else {
            // The producer's register feeds the bus transfer.
            let transfer = sched
                .comms()
                .iter()
                .find(|c| c.src_node == node && c.to_cluster == cons.cluster);
            let (send, arrive) = match transfer {
                Some(c) => (c.start_cycle, c.start_cycle + c.duration as i64),
                // No transfer recorded (e.g. mid-construction): fall back to
                // the consumer's read cycle.
                None => (read_cycle, read_cycle),
            };
            last_local_read = last_local_read.max(send);
            let entry = &mut remote_last_read[cons.cluster];
            let (arr, last) = entry.unwrap_or((arrive, arrive));
            *entry = Some((arr.min(arrive), last.max(read_cycle)));
        }
    }

    out.push(LiveRange {
        node,
        cluster: prod.cluster,
        start: prod.cycle,
        end: last_local_read,
    });
    for (cluster, entry) in remote_last_read.iter().enumerate() {
        if let Some((arrive, last_read)) = entry {
            // Read straight from the incoming-value register when consumed on
            // arrival; otherwise it occupies a register until its last use.
            if last_read > arrive {
                out.push(LiveRange {
                    node,
                    cluster,
                    start: *arrive,
                    end: *last_read,
                });
            }
        }
    }
}

/// Apply one live range to a cluster's `II` pressure rows via `f` (used with `+=`
/// to add a range and `-=` to retract one).
///
/// A range of `len` cycles contributes ceil-style coverage of kernel rows:
/// row (start + k) mod II for k in 0..len — i.e. `len div II` instances in
/// every row plus one more in the `len mod II` rows starting at the range's
/// start row (a contiguous wrapped interval, since (start + (len div
/// II)·II) mod II == start mod II).
#[inline]
fn apply_range_rows(rows: &mut [u32], ii: u32, r: &LiveRange, mut f: impl FnMut(&mut u32, u32)) {
    let len = (r.end - r.start).max(1);
    let full = (len / ii as i64) as u32;
    let rem = (len % ii as i64) as usize;
    if full > 0 {
        for slot in rows.iter_mut() {
            f(slot, full);
        }
    }
    let row0 = r.start.rem_euclid(ii as i64) as usize;
    let wrap = (row0 + rem).saturating_sub(ii as usize);
    for slot in &mut rows[row0..(row0 + rem - wrap)] {
        f(slot, 1);
    }
    for slot in &mut rows[..wrap] {
        f(slot, 1);
    }
}

/// Delta-maintained `[cluster × II]` live-value counts plus the per-producer
/// ranges they came from.  The engine re-arms one per scheduling attempt, the
/// exact solver in `vliw_lint` one per candidate II.
#[derive(Debug, Default)]
pub struct PressureTracker {
    ii: u32,
    registers: u32,
    /// Row-major `[cluster × II]` live-value counts for the *committed* schedule.
    pressure: Vec<u32>,
    /// How many (cluster, row) entries currently exceed the register-file size.
    overflow: u32,
    /// Committed live ranges, grouped by producer node (indexed by `NodeId`).
    ranges_of: Vec<Vec<LiveRange>>,
    // Scratch buffers, reused across probes.
    affected: Vec<NodeId>,
    /// Node whose affected set is already in `affected` (hoisted once per probe
    /// via [`PressureTracker::prepare_probe`]; the set depends only on which
    /// *predecessors* are placed, so it is invariant across the probe's cycle
    /// scan).
    prepared: Option<NodeId>,
    new_ranges: Vec<LiveRange>,
    /// The affected producers whose ranges over the current schedule differ from
    /// their committed ranges, each with the span of its new ranges in
    /// `new_ranges` (equal ranges are not swapped at all — the add and the retract
    /// would cancel exactly).
    swapped: Vec<(NodeId, Range<usize>)>,
    remote: Vec<Option<(i64, i64)>>,
}

/// Apply `ranges` to the flat pressure array, keeping the over-capacity row count
/// in sync. `ADD` selects add vs. retract (a const generic so the hot closure
/// stays branch-free after monomorphization).
fn apply_ranges<const ADD: bool>(
    pressure: &mut [u32],
    overflow: &mut u32,
    registers: u32,
    ii: u32,
    ranges: &[LiveRange],
) {
    for r in ranges {
        let rows = &mut pressure[r.cluster * ii as usize..(r.cluster + 1) * ii as usize];
        apply_range_rows(rows, ii, r, |slot, v| {
            let was_over = *slot > registers;
            if ADD {
                *slot += v;
                if !was_over && *slot > registers {
                    *overflow += 1;
                }
            } else {
                *slot -= v;
                if was_over && *slot <= registers {
                    *overflow -= 1;
                }
            }
        });
    }
}

impl PressureTracker {
    /// A tracker with no capacity; [`PressureTracker::reset`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The from-scratch fold over `sched`: a tracker re-armed at `sched`'s II with
    /// every placed producer's ranges derived.  Works on partial schedules too
    /// (only placed producers and consumers contribute).
    pub fn of_schedule(graph: &DepGraph, sched: &ModuloSchedule, machine: &MachineConfig) -> Self {
        let mut tracker = Self::new();
        tracker.reset(machine, graph.n_nodes(), sched.ii());
        tracker.commit_placed(graph, sched);
        tracker
    }

    /// Fold every node placed in `sched` into a freshly reset tracker: the state
    /// committing them all would reach.  A producer's ranges depend on `sched`
    /// alone, so each is derived once and added to the grid.  The engine's
    /// whole-schedule register check runs this once per completed attempt.
    pub(crate) fn commit_placed(&mut self, graph: &DepGraph, sched: &ModuloSchedule) {
        self.prepared = None;
        for op in sched.placements() {
            let committed = &mut self.ranges_of[op.node.index()];
            debug_assert!(committed.is_empty(), "commit_placed needs a reset tracker");
            push_producer_ranges(graph, sched, op.node, &mut self.remote, committed);
            apply_ranges::<true>(
                &mut self.pressure,
                &mut self.overflow,
                self.registers,
                self.ii,
                committed,
            );
        }
    }

    /// Whether every cluster's committed pressure fits its register file.
    pub fn fits(&self) -> bool {
        self.overflow == 0
    }

    /// Committed `MaxLive` per cluster: the largest live-value count over the
    /// cluster's `II` rows.
    pub fn max_live(&self) -> Vec<u32> {
        self.pressure
            .chunks_exact(self.ii.max(1) as usize)
            .map(|rows| rows.iter().copied().max().unwrap_or(0))
            .collect()
    }

    /// Every committed range, producer by producer.
    #[cfg(test)]
    pub(crate) fn ranges(&self) -> Vec<LiveRange> {
        self.ranges_of.iter().flatten().copied().collect()
    }

    /// Re-arm for a fresh (empty) scheduling attempt at `ii`.
    pub fn reset(&mut self, machine: &MachineConfig, n_nodes: usize, ii: u32) {
        self.ii = ii;
        // Pressure counts are `u32`, so a register file at least that large can
        // never overflow: saturate instead of truncating.
        self.registers = u32::try_from(machine.cluster.registers).unwrap_or(u32::MAX);
        self.pressure.clear();
        self.pressure.resize(machine.n_clusters * ii as usize, 0);
        self.overflow = 0;
        if self.ranges_of.len() < n_nodes {
            self.ranges_of.resize_with(n_nodes, Vec::new);
        }
        for ranges in &mut self.ranges_of {
            ranges.clear();
        }
        self.remote.clear();
        self.remote.resize(machine.n_clusters, None);
        self.prepared = None;
    }

    /// Collect the affected set for a whole probe of `node` up front, so the
    /// per-cycle [`PressureTracker::evaluate`] calls skip the edge traversal.
    ///
    /// Sound because the set depends only on `node`'s class and on which of its
    /// *predecessors* are placed — neither changes while the probe scans cycles
    /// (only `node` itself is tentatively placed and rolled back).  Call with
    /// the committed schedule (the trial not yet applied); the preparation is
    /// invalidated by [`PressureTracker::commit`] and [`PressureTracker::reset`].
    pub fn prepare_probe(&mut self, graph: &DepGraph, sched: &ModuloSchedule, node: NodeId) {
        self.collect_affected(graph, sched, node);
        self.prepared = Some(node);
    }

    /// The producers whose live ranges placing `node` can affect: `node` itself
    /// (if it defines a value) plus every already-placed producer feeding a value
    /// into `node`.
    fn collect_affected(&mut self, graph: &DepGraph, sched: &ModuloSchedule, node: NodeId) {
        self.affected.clear();
        if graph.node(node).class.defines_value() {
            self.affected.push(node);
        }
        for e in graph.in_edges(node) {
            if e.kind.carries_value()
                && e.src != node
                && sched.placement(e.src).is_some()
                && !self.affected.contains(&e.src)
            {
                self.affected.push(e.src);
            }
        }
    }

    /// Whether placing `node` provably leaves producer `p`'s committed ranges
    /// untouched, *without* recomputing them: `node` sits in `p`'s own cluster (so
    /// the trial added no transfer out of `p`) and every value `node` reads from
    /// `p` is read no later than `p`'s current last local read.  `node`'s
    /// placement in `sched` is the trial one.
    fn pred_unchanged(
        &self,
        graph: &DepGraph,
        sched: &ModuloSchedule,
        node: NodeId,
        p: NodeId,
    ) -> bool {
        let (Some(np), Some(pp)) = (sched.placement(node), sched.placement(p)) else {
            return false;
        };
        if pp.cluster != np.cluster {
            return false;
        }
        let Some(prod) = self.ranges_of[p.index()].first() else {
            // No committed ranges: stays empty iff `p` defines no value.
            return !graph.node(p).class.defines_value();
        };
        let ii = self.ii as i64;
        graph
            .in_edges(node)
            .filter(|e| e.kind.carries_value() && e.src == p)
            .all(|e| np.cycle + e.distance as i64 * ii <= prod.end)
    }

    /// Swap the affected producers' committed ranges out of the grid and their
    /// ranges over `sched` in, recording each changed producer in `swapped`.
    /// `affected` must hold `node`'s affected set; `ranges_of` is left as is.
    fn swap_in(&mut self, graph: &DepGraph, sched: &ModuloSchedule, node: NodeId) {
        let ii = self.ii;
        self.new_ranges.clear();
        self.swapped.clear();
        for idx in 0..self.affected.len() {
            let p = self.affected[idx];
            // The common case — a local consumer that reads before the producer's
            // current last read — leaves the producer's ranges provably unchanged.
            if p != node && self.pred_unchanged(graph, sched, node, p) {
                continue;
            }
            let start = self.new_ranges.len();
            push_producer_ranges(graph, sched, p, &mut self.remote, &mut self.new_ranges);
            let Self {
                pressure,
                overflow,
                ranges_of,
                new_ranges,
                registers,
                swapped,
                ..
            } = self;
            if new_ranges[start..] == ranges_of[p.index()][..] {
                new_ranges.truncate(start);
                continue;
            }
            swapped.push((p, start..new_ranges.len()));
            apply_ranges::<false>(pressure, overflow, *registers, ii, &ranges_of[p.index()]);
            apply_ranges::<true>(pressure, overflow, *registers, ii, &new_ranges[start..]);
        }
    }

    /// Register feasibility of a trial placement of `node` on `cluster`.
    ///
    /// `sched` must already hold the trial (node placed, transfers added).
    /// Returns `(fits, MaxLive of cluster)` exactly as
    /// [`PressureTracker::of_schedule`] over the trial schedule would, then
    /// restores the tracker to the committed state.
    pub fn evaluate(
        &mut self,
        graph: &DepGraph,
        sched: &ModuloSchedule,
        node: NodeId,
        cluster: usize,
    ) -> (bool, u32) {
        debug_assert_eq!(sched.ii(), self.ii);
        let ii = self.ii;
        if self.prepared != Some(node) {
            self.collect_affected(graph, sched, node);
        }
        self.swap_in(graph, sched, node);
        let fits = self.overflow == 0;
        let max_live = self.pressure[cluster * ii as usize..(cluster + 1) * ii as usize]
            .iter()
            .copied()
            .max()
            .unwrap_or(0);

        // Undo: the trial is not committed yet.
        let Self {
            pressure,
            overflow,
            ranges_of,
            new_ranges,
            registers,
            swapped,
            ..
        } = self;
        apply_ranges::<false>(pressure, overflow, *registers, ii, new_ranges);
        for (p, _) in swapped.iter() {
            apply_ranges::<true>(pressure, overflow, *registers, ii, &ranges_of[p.index()]);
        }
        (fits, max_live)
    }

    /// Fold a placement just committed into the tracked state.
    ///
    /// `sched` holds the committed schedule (trial applied for real).  The call
    /// recomputes the ranges of `node` and of its placed value predecessors against
    /// `sched`, so it also resynchronizes after `node`'s placement is rolled back:
    /// on the rolled-back schedule it drops `node`'s ranges and restores its
    /// predecessors' (every transfer a placement adds leaves `node` or one of
    /// them).
    pub fn commit(&mut self, graph: &DepGraph, sched: &ModuloSchedule, node: NodeId) {
        self.prepared = None;
        self.collect_affected(graph, sched, node);
        self.swap_in(graph, sched, node);
        for (p, span) in &self.swapped {
            let committed = &mut self.ranges_of[p.index()];
            committed.clear();
            committed.extend_from_slice(&self.new_ranges[span.clone()]);
        }
    }
}

/// The per-cluster `MaxLive` of a schedule (see [`PressureTracker::of_schedule`]).
pub fn cluster_max_live(
    graph: &DepGraph,
    sched: &ModuloSchedule,
    machine: &MachineConfig,
) -> Vec<u32> {
    PressureTracker::of_schedule(graph, sched, machine).max_live()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ClusterPolicy, EngineView, FixedAssignmentPolicy, IiSearchDriver, Trial};
    use crate::schedule::{CommPlacement, PlacedOp};
    use vliw_arch::{FuKind, MachineConfig, OpClass, ResourcePool};
    use vliw_ddg::{DepGraph, DepKind};

    fn place(
        sched: &mut ModuloSchedule,
        pool: &ResourcePool,
        node: u32,
        cycle: i64,
        cluster: usize,
        kind: FuKind,
    ) {
        sched.place(PlacedOp {
            node: NodeId(node),
            cycle,
            cluster,
            fu: pool.fus(cluster, kind).next().unwrap(),
        });
    }

    /// The committed state two trackers must share to be interchangeable.
    fn state(tracker: &PressureTracker) -> (Vec<u32>, u32, Vec<LiveRange>) {
        (tracker.pressure.clone(), tracker.overflow, tracker.ranges())
    }

    /// Drive the tracker through a hand-built placement sequence and check every
    /// evaluate() and every commit against the from-scratch fold.
    #[test]
    fn tracker_matches_full_lifetime_map_across_commits() {
        let machine = MachineConfig::two_cluster(1, 2);
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("chain");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        let c = g.add_node(OpClass::FpMul);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(b, c, 3, 1, DepKind::Flow);
        g.add_edge(a, c, 2, 0, DepKind::Flow);

        let ii = 6;
        let mut sched = ModuloSchedule::new("chain", 3, ii, 1);
        let mut tracker = PressureTracker::new();
        tracker.reset(&machine, g.n_nodes(), ii);

        let plan = [
            (a, 0i64, 0usize, FuKind::Mem, None),
            (b, 4, 1, FuKind::Fp, Some((a, 2i64, 2u32))),
            (c, 5, 0, FuKind::Fp, Some((b, 8, 1))),
        ];
        for (node, cycle, cluster, kind, comm) in plan {
            let apply = |sched: &mut ModuloSchedule| {
                if let Some((src, start, dur)) = comm {
                    sched.add_comm(CommPlacement {
                        src_node: src,
                        dst_node: node,
                        from_cluster: sched.placement(src).unwrap().cluster,
                        to_cluster: cluster,
                        bus: pool.buses().next().unwrap(),
                        start_cycle: start,
                        duration: dur,
                    });
                }
                sched.place(PlacedOp {
                    node,
                    cycle,
                    cluster,
                    fu: pool.fus(cluster, kind).next().unwrap(),
                });
            };
            // Trial: apply, evaluate, compare, roll back.
            let cp = sched.checkpoint();
            apply(&mut sched);
            let (fits, max_live) = tracker.evaluate(&g, &sched, node, cluster);
            let full = PressureTracker::of_schedule(&g, &sched, &machine);
            assert_eq!(fits, full.fits(), "fits mismatch placing {node:?}");
            assert_eq!(
                max_live,
                full.max_live()[cluster],
                "max_live mismatch placing {node:?}"
            );
            sched.rollback(cp);

            // Now commit the same placement for real.
            apply(&mut sched);
            tracker.commit(&g, &sched, node);
            let full = PressureTracker::of_schedule(&g, &sched, &machine);
            assert_eq!(state(&tracker), state(&full), "commit of {node:?}");
        }
        assert!(tracker.fits());
    }

    /// Committing a node again after its placement was rolled back restores the
    /// tracker to the fold of the rolled-back schedule — including a predecessor
    /// whose value the placement had sent over a bus.  The exact solver relies on
    /// this to backtrack.
    #[test]
    fn recommit_after_rollback_drops_the_placement() {
        let machine = MachineConfig::two_cluster(1, 2);
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("resync");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        let c = g.add_node(OpClass::FpMul);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(a, c, 2, 0, DepKind::Flow);

        let ii = 4;
        let mut sched = ModuloSchedule::new("resync", 3, ii, 1);
        let mut tracker = PressureTracker::new();
        tracker.reset(&machine, g.n_nodes(), ii);
        place(&mut sched, &pool, 0, 0, 0, FuKind::Mem);
        tracker.commit(&g, &sched, a);
        place(&mut sched, &pool, 2, 3, 0, FuKind::Fp);
        tracker.commit(&g, &sched, c);
        let before = state(&tracker);

        // b in the other cluster: a's value crosses the bus at 2, arrives at 3 and
        // waits in a cluster-1 register until b reads it at 6.
        let cp = sched.checkpoint();
        sched.add_comm(CommPlacement {
            src_node: a,
            dst_node: b,
            from_cluster: 0,
            to_cluster: 1,
            bus: pool.buses().next().unwrap(),
            start_cycle: 2,
            duration: 1,
        });
        place(&mut sched, &pool, 1, 6, 1, FuKind::Fp);
        tracker.commit(&g, &sched, b);
        assert!(tracker
            .ranges()
            .iter()
            .any(|r| r.node == a && r.cluster == 1));
        assert_ne!(state(&tracker), before);

        sched.rollback(cp);
        tracker.commit(&g, &sched, b);
        let full = PressureTracker::of_schedule(&g, &sched, &machine);
        assert_eq!(state(&tracker), state(&full));
        assert_eq!(state(&tracker), before);
        assert!(!tracker.ranges().iter().any(|r| r.cluster == 1));
    }

    /// A [`FixedAssignmentPolicy`] that records the order the engine asks for
    /// nodes in its last attempt.
    struct Recording {
        inner: FixedAssignmentPolicy,
        order: Vec<NodeId>,
    }

    impl ClusterPolicy for Recording {
        fn begin_attempt(&mut self, _: &DepGraph, _: &MachineConfig, _: u32) {
            self.order.clear();
        }

        fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
            self.order.push(node);
            self.inner.select_placement(node, view)
        }
    }

    /// The fold (which commits in node order) equals the state reached by
    /// committing in the engine's own placement order, at every prefix — with
    /// each placement's transfers added alongside it, as the engine does.
    #[test]
    fn fold_matches_commits_in_engine_order() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = vliw_ddg::GraphBuilder::new("fanout")
            .node("l0", OpClass::Load)
            .node("l1", OpClass::Load)
            .node("m", OpClass::FpMul)
            .node("a", OpClass::FpAdd)
            .node("s", OpClass::Store)
            .node("x", OpClass::FpAdd)
            .flow("l0", "m")
            .flow("l1", "m")
            .flow("l0", "a")
            .flow("m", "a")
            .flow("a", "s")
            .flow("m", "x")
            .flow_at("x", "m", 1)
            .build();
        let mut policy = Recording {
            inner: FixedAssignmentPolicy::new(vec![0, 1, 1, 0, 1, 0]),
            order: Vec::new(),
        };
        let out = IiSearchDriver::new(&machine)
            .schedule(&g, &mut policy)
            .unwrap();
        let fin = out.schedule;
        assert!(fin.n_comms() > 0, "the fixture must cross the bus");
        assert_eq!(policy.order.len(), g.n_nodes());

        let mut partial = ModuloSchedule::new("fanout", g.n_nodes(), fin.ii(), fin.ii());
        let mut tracker = PressureTracker::new();
        tracker.reset(&machine, g.n_nodes(), fin.ii());
        for &node in &policy.order {
            partial.place(*fin.placement(node).unwrap());
            for c in fin.comms() {
                let ends = [c.src_node, c.dst_node];
                if ends.contains(&node) && ends.iter().all(|&n| partial.placement(n).is_some()) {
                    partial.add_comm(*c);
                }
            }
            tracker.commit(&g, &partial, node);
            let full = PressureTracker::of_schedule(&g, &partial, &machine);
            assert_eq!(state(&tracker), state(&full), "after committing {node:?}");
        }
        assert_eq!(partial.n_comms(), fin.n_comms());
        assert_eq!(tracker.max_live(), out.diagnostics.max_live_per_cluster);
    }

    /// `Recording` does not fork, so past the pipelining gate the search stays
    /// sequential: the schedule and the recorded order of the last attempt are
    /// the same at any thread count.
    #[test]
    fn a_policy_that_does_not_fork_gets_identical_results() {
        let (machine, g, assignment) = crate::engine::tests::gated_loop();
        let run = |threads: usize| {
            let mut policy = Recording {
                inner: FixedAssignmentPolicy::new(assignment.clone()),
                order: Vec::new(),
            };
            let out = IiSearchDriver::new(&machine)
                .with_threads(threads)
                .schedule(&g, &mut policy)
                .unwrap();
            (out, policy.order)
        };
        let sequential = run(1);
        assert!(sequential.0.diagnostics.ii_trajectory.len() > 2);
        assert_eq!(run(4), sequential);
    }

    /// A register file too large for `u32` (still a valid machine) must never
    /// report an overflow: the count saturates instead of wrapping to zero.
    #[test]
    fn huge_register_files_saturate_instead_of_truncating() {
        let mut machine = MachineConfig::two_cluster(1, 1);
        machine.cluster.registers = 1 << 32;
        assert!(machine.validate().is_ok());
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("huge");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);

        let ii = 2;
        let mut sched = ModuloSchedule::new("huge", g.n_nodes(), ii, 1);
        let mut tracker = PressureTracker::new();
        tracker.reset(&machine, g.n_nodes(), ii);
        sched.place(PlacedOp {
            node: a,
            cycle: 0,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
        tracker.commit(&g, &sched, a);
        sched.place(PlacedOp {
            node: b,
            cycle: 2,
            cluster: 0,
            fu: pool.fus(0, FuKind::Fp).next().unwrap(),
        });
        let got = tracker.evaluate(&g, &sched, b, 0);
        let full = PressureTracker::of_schedule(&g, &sched, &machine);
        assert_eq!(got, (full.fits(), full.max_live()[0]));
        assert!(got.0);
    }

    /// evaluate() must leave the committed state untouched even when the trial
    /// does not fit.
    #[test]
    fn evaluate_is_side_effect_free() {
        let machine = MachineConfig::four_cluster(1, 1);
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("undo");
        let consumer = g.add_node(OpClass::FpAdd);
        let mut producers = Vec::new();
        for _ in 0..20 {
            let p = g.add_node(OpClass::Load);
            g.add_edge(p, consumer, 2, 0, DepKind::Flow);
            producers.push(p);
        }

        let ii = 1;
        let mut sched = ModuloSchedule::new("undo", g.n_nodes(), ii, 1);
        let mut tracker = PressureTracker::new();
        tracker.reset(&machine, g.n_nodes(), ii);
        for (i, &p) in producers.iter().enumerate() {
            sched.place(PlacedOp {
                node: p,
                cycle: i as i64 + 1,
                cluster: 0,
                fu: pool.fus(0, FuKind::Mem).next().unwrap(),
            });
            tracker.commit(&g, &sched, p);
        }
        let before = tracker.pressure.clone();
        let overflow_before = tracker.overflow;

        // Trial placing the consumer far out keeps all 20 producers live at once:
        // more than the 16 registers of a four_cluster machine.
        let cp = sched.checkpoint();
        sched.place(PlacedOp {
            node: consumer,
            cycle: 100,
            cluster: 0,
            fu: pool.fus(0, FuKind::Fp).next().unwrap(),
        });
        let (fits, _) = tracker.evaluate(&g, &sched, consumer, 0);
        sched.rollback(cp);
        assert!(!fits);
        assert_eq!(tracker.pressure, before);
        assert_eq!(tracker.overflow, overflow_before);
    }

    /// A committed state that itself overflows (possible only via tampered trials,
    /// which the fault-injection campaigns exercise) must still evaluate exactly
    /// like the from-scratch fold.
    #[test]
    fn overflowing_committed_state_still_matches_the_full_map() {
        let machine = MachineConfig::four_cluster(1, 1); // 16 registers
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("hostile");
        let consumer = g.add_node(OpClass::FpAdd);
        let mut producers = Vec::new();
        for _ in 0..20 {
            let p = g.add_node(OpClass::Load);
            g.add_edge(p, consumer, 2, 0, DepKind::Flow);
            producers.push(p);
        }
        let tail = g.add_node(OpClass::Store);
        g.add_edge(consumer, tail, 1, 0, DepKind::Flow);

        // Commit everything including the overflowing consumer placement — the
        // engine would normally have rejected it, a tampering policy would not.
        let ii = 1;
        let mut sched = ModuloSchedule::new("hostile", g.n_nodes(), ii, 1);
        let mut tracker = PressureTracker::new();
        tracker.reset(&machine, g.n_nodes(), ii);
        for (i, &p) in producers.iter().enumerate() {
            sched.place(PlacedOp {
                node: p,
                cycle: i as i64 + 1,
                cluster: 0,
                fu: pool.fus(0, FuKind::Mem).next().unwrap(),
            });
            tracker.commit(&g, &sched, p);
        }
        sched.place(PlacedOp {
            node: consumer,
            cycle: 100,
            cluster: 0,
            fu: pool.fus(0, FuKind::Fp).next().unwrap(),
        });
        tracker.commit(&g, &sched, consumer);
        assert!(tracker.overflow > 0);

        // A later trial in a *different* cluster must still report the overflow,
        // exactly as the whole-map check would.
        let cp = sched.checkpoint();
        sched.place(PlacedOp {
            node: tail,
            cycle: 101,
            cluster: 1,
            fu: pool.fus(1, FuKind::Mem).next().unwrap(),
        });
        let (fits, max_live) = tracker.evaluate(&g, &sched, tail, 1);
        let full = PressureTracker::of_schedule(&g, &sched, &machine);
        assert_eq!(fits, full.fits());
        assert!(!fits);
        assert_eq!(max_live, full.max_live()[1]);
        sched.rollback(cp);
    }
}
