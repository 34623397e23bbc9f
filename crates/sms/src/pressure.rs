//! Incremental register-pressure tracking for the per-placement feasibility check.
//!
//! The cluster schedulers ask "does this trial placement overflow a register
//! file?" once per probed cycle, and [`crate::lifetime::LifetimeMap`] answers by
//! rebuilding every live range of the partial schedule — O(placed nodes × edges)
//! per probe, which profiling shows dominates BSA's per-loop time. The
//! [`PressureTracker`] answers the same question incrementally: placing node `n`
//! can only change the live ranges of `n` itself and of `n`'s already-placed
//! value predecessors (the producers whose values `n` consumes, whose last-read
//! cycles and bus-transfer splits may move). Everything else is untouched, so the
//! tracker retracts the affected producers' stored ranges, recomputes them
//! against the trial schedule through the exact same
//! `push_producer_ranges` helper the full map uses, and applies the
//! difference — O(degree × II) per probe instead of a full rebuild.
//!
//! `fits` is answered from a running count of over-capacity (cluster, row)
//! entries, updated as each row crosses the register-file size in either
//! direction. Counting transitions instead of re-scanning keeps the answer
//! *unconditionally* equal to the whole-map check — even mid-trial states that
//! a hostile [`crate::engine::ClusterPolicy`] could produce by committing
//! tampered trials (the fault-injection campaigns do exactly that) evaluate
//! identically to a from-scratch [`crate::lifetime::LifetimeMap`].
//!
//! The tracker is a pure optimization: debug builds cross-check every answer
//! against a freshly built `LifetimeMap`, and the schedules it admits are
//! property-tested against the independent `vliw_lint` certifier and liveness
//! analysis.

use crate::lifetime::{apply_range_rows, push_producer_ranges, LiveRange};
use crate::schedule::ModuloSchedule;
use vliw_arch::MachineConfig;
use vliw_ddg::{DepGraph, NodeId};

/// Delta-maintained `[cluster × II]` live-value counts plus the per-producer
/// ranges they came from. One instance lives in the engine scratch and is
/// re-armed per scheduling attempt.
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
    /// Per-`affected` flag: whether the producer's trial ranges differ from its
    /// committed ranges (equal ranges are not swapped at all — the add and the
    /// retract would cancel exactly).
    swapped: Vec<bool>,
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

    /// Register feasibility of a trial placement of `node` on `cluster`.
    ///
    /// `sched` must already hold the trial (node placed, transfers added) — the
    /// same convention as building a `LifetimeMap` over the trial schedule.
    /// Returns `(fits, max_live_in(cluster))` exactly as the full map would, then
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
        self.new_ranges.clear();
        self.swapped.clear();

        // Swap the affected producers' old ranges out, trial ranges in.  A producer
        // whose trial ranges equal its committed ranges (the common case: a local
        // consumer that reads before the producer's current last read) is skipped —
        // retract and re-add would cancel exactly.
        for idx in 0..self.affected.len() {
            let p = self.affected[idx];
            if p != node && self.pred_unchanged(graph, sched, node, p) {
                self.swapped.push(false);
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
                ..
            } = self;
            if new_ranges[start..] == ranges_of[p.index()][..] {
                new_ranges.truncate(start);
                self.swapped.push(false);
                continue;
            }
            self.swapped.push(true);
            apply_ranges::<false>(pressure, overflow, *registers, ii, &ranges_of[p.index()]);
            apply_ranges::<true>(pressure, overflow, *registers, ii, &new_ranges[start..]);
        }

        let fits = self.overflow == 0;
        let max_live = self.pressure[cluster * ii as usize..(cluster + 1) * ii as usize]
            .iter()
            .copied()
            .max()
            .unwrap_or(0);

        // Undo: the trial is not committed yet.
        {
            let Self {
                pressure,
                overflow,
                new_ranges,
                registers,
                ..
            } = self;
            apply_ranges::<false>(pressure, overflow, *registers, ii, new_ranges);
        }
        for idx in 0..self.affected.len() {
            if !self.swapped[idx] {
                continue;
            }
            let p = self.affected[idx];
            let Self {
                pressure,
                overflow,
                ranges_of,
                registers,
                ..
            } = self;
            apply_ranges::<true>(pressure, overflow, *registers, ii, &ranges_of[p.index()]);
        }

        (fits, max_live)
    }

    /// Fold a placement the engine just committed into the tracked state.
    ///
    /// `sched` holds the committed schedule (trial applied for real).
    pub fn commit(&mut self, graph: &DepGraph, sched: &ModuloSchedule, node: NodeId) {
        let ii = self.ii;
        self.prepared = None;
        self.collect_affected(graph, sched, node);
        for idx in 0..self.affected.len() {
            let p = self.affected[idx];
            if p != node && self.pred_unchanged(graph, sched, node, p) {
                continue;
            }
            self.new_ranges.clear();
            {
                let Self {
                    new_ranges, remote, ..
                } = self;
                push_producer_ranges(graph, sched, p, remote, new_ranges);
            }
            if self.new_ranges[..] == self.ranges_of[p.index()][..] {
                continue;
            }
            let Self {
                pressure,
                overflow,
                ranges_of,
                new_ranges,
                registers,
                ..
            } = self;
            apply_ranges::<false>(pressure, overflow, *registers, ii, &ranges_of[p.index()]);
            apply_ranges::<true>(pressure, overflow, *registers, ii, new_ranges);
            ranges_of[p.index()].clear();
            ranges_of[p.index()].extend_from_slice(new_ranges);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::LifetimeMap;
    use crate::schedule::{CommPlacement, PlacedOp};
    use vliw_arch::{FuKind, MachineConfig, OpClass, ResourcePool};
    use vliw_ddg::{DepGraph, DepKind};

    /// Drive the tracker through a hand-built placement sequence and check every
    /// evaluate() against a from-scratch LifetimeMap.
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
            // Trial: apply, evaluate, compare, roll back.
            let cp = sched.checkpoint();
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
            let (fits, max_live) = tracker.evaluate(&g, &sched, node, cluster);
            let lt = LifetimeMap::new(&g, &sched, &machine);
            assert_eq!(fits, lt.fits(&machine), "fits mismatch placing {node:?}");
            assert_eq!(
                max_live,
                lt.max_live_in(cluster),
                "max_live mismatch placing {node:?}"
            );
            sched.rollback(cp);

            // Now commit the same placement for real.
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
            tracker.commit(&g, &sched, node);
        }

        // After all commits the tracked pressure equals the full map's.
        let lt = LifetimeMap::new(&g, &sched, &machine);
        for cl in 0..machine.n_clusters {
            assert_eq!(
                &tracker.pressure[cl * ii as usize..(cl + 1) * ii as usize],
                lt.pressure_of(cl),
                "committed pressure mismatch in cluster {cl}"
            );
        }
        assert_eq!(tracker.overflow, 0);
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
        let lt = LifetimeMap::new(&g, &sched, &machine);
        assert_eq!(got, (lt.fits(&machine), lt.max_live_in(0)));
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
    /// like a from-scratch LifetimeMap.
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
        let lt = LifetimeMap::new(&g, &sched, &machine);
        assert_eq!(fits, lt.fits(&machine));
        assert!(!fits);
        assert_eq!(max_live, lt.max_live_in(1));
        sched.rollback(cp);
    }
}
