//! Modulo liveness: per-cluster live values and register pressure, recomputed
//! independently of `vliw_sms::PressureTracker` and its from-scratch fold.
//!
//! Two views of the same lifetimes are built here:
//!
//! 1. **Intervals + pressure.**  Each value's live ranges (producer-side and
//!    receiver-side, following the lifetime model of `vliw_sms::pressure`) are
//!    re-derived and folded into per-row pressure counts by *walking the covered
//!    rows* — `row = (start + k) mod II` for each covered cycle `k` — instead of
//!    the tracker's closed-form full-wraps-plus-split-remainder arithmetic.  The
//!    two folds must agree bit for bit on `MaxLive`; the certifier's
//!    register-pressure lint uses *this* fold, so it checks the scheduler's
//!    (tracker-based) register constraint through different arithmetic.
//!
//! 2. **Dataflow live sets.**  A backward [`KernelAnalysis`] per cluster (gen at a
//!    value's last-read row, kill at its definition row) solved to fixpoint across
//!    the II wraparound.  Bit sets cannot count multiplicity — a value whose
//!    lifetime exceeds `II` is live several times per row but sets one bit — which
//!    is exactly why the pressure numbers come from the interval fold and the live
//!    sets only answer membership queries (the dead-value lint, debugging).

use crate::domain::BitSet;
use crate::engine::{fixpoint, KernelAnalysis};
use std::collections::BTreeMap;
use vliw_arch::MachineConfig;
use vliw_ddg::{DepGraph, NodeId};
use vliw_sms::ModuloSchedule;

/// One re-derived live range: `node`'s value occupies a register of `cluster` from
/// cycle `start` (inclusive) to `end` (exclusive, clamped to one cycle minimum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueInterval {
    /// The producing node.
    pub node: NodeId,
    /// The cluster whose register file holds the value.
    pub cluster: usize,
    /// First occupied cycle.
    pub start: i64,
    /// One past the last occupied cycle.
    pub end: i64,
}

impl ValueInterval {
    /// Occupied cycles (at least 1: a value with no reader still holds a register
    /// for its definition cycle).
    pub fn len(&self) -> i64 {
        (self.end - self.start).max(1)
    }

    /// Whether the range was clamped to the one-cycle minimum.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Backward liveness over one cluster's kernel rows.
struct ClusterLiveness {
    rows: usize,
    universe: usize,
    /// `defs[row]` = bits whose value is defined (issued / arrives) at `row`.
    defs: Vec<Vec<usize>>,
    /// `uses[row]` = bits whose value is last read from this register file at `row`.
    uses: Vec<Vec<usize>>,
}

impl KernelAnalysis for ClusterLiveness {
    fn rows(&self) -> usize {
        self.rows
    }
    fn universe(&self) -> usize {
        self.universe
    }
    fn transfer(&self, row: usize, state: &mut BitSet) {
        // live-in = (live-out − defs) ∪ uses
        for &d in &self.defs[row] {
            state.remove(d);
        }
        for &u in &self.uses[row] {
            state.insert(u);
        }
    }
}

/// Liveness and register pressure of one modulo schedule.
#[derive(Debug, Clone)]
pub struct ModuloLiveness {
    ii: u32,
    intervals: Vec<ValueInterval>,
    /// `pressure[cluster][row]` = simultaneously live values.
    pressure: Vec<Vec<u32>>,
    /// `live_in[cluster][row]` = dataflow live-in sets over the dense value bits.
    live_in: Vec<Vec<BitSet>>,
    /// Dense bit index of each value-defining node.
    value_bits: BTreeMap<u32, usize>,
}

impl ModuloLiveness {
    /// Analyse `sched` for `graph` on `machine`.  Partial schedules are fine: only
    /// placed producers and consumers contribute, mirroring `cluster_max_live`.
    pub fn new(graph: &DepGraph, sched: &ModuloSchedule, machine: &MachineConfig) -> Self {
        let ii = sched.ii();
        let intervals = derive_intervals(graph, sched, ii);

        // Fold pressure by walking each interval's covered rows: `len div II` wraps
        // cover every row, and the remaining `len mod II` cycles cover one wrapped
        // row each, indexed directly with rem_euclid (no slice splitting).
        let mut pressure = vec![vec![0u32; ii as usize]; machine.n_clusters];
        for iv in &intervals {
            let rows = &mut pressure[iv.cluster];
            let len = iv.len();
            let full = (len / ii as i64) as u32;
            if full > 0 {
                for slot in rows.iter_mut() {
                    *slot += full;
                }
            }
            for k in 0..(len % ii as i64) {
                rows[(iv.start + k).rem_euclid(ii as i64) as usize] += 1;
            }
        }

        // Dense bit universe: every value-defining node that got an interval.
        let mut value_bits = BTreeMap::new();
        for iv in &intervals {
            let next = value_bits.len();
            value_bits.entry(iv.node.0).or_insert(next);
        }
        let universe = value_bits.len();

        let mut live_in = Vec::with_capacity(machine.n_clusters);
        for cluster in 0..machine.n_clusters {
            let mut analysis = ClusterLiveness {
                rows: ii as usize,
                universe,
                defs: vec![Vec::new(); ii as usize],
                uses: vec![Vec::new(); ii as usize],
            };
            for iv in intervals.iter().filter(|iv| iv.cluster == cluster) {
                let bit = value_bits[&iv.node.0];
                let def_row = iv.start.rem_euclid(ii as i64) as usize;
                let use_row = (iv.start + iv.len() - 1).rem_euclid(ii as i64) as usize;
                analysis.defs[def_row].push(bit);
                analysis.uses[use_row].push(bit);
            }
            // fixpoint() returns live-out per row; one extra transfer application
            // turns each into the live-in set.
            let live_out = fixpoint(&analysis);
            let ins = live_out
                .into_iter()
                .enumerate()
                .map(|(row, mut s)| {
                    analysis.transfer(row, &mut s);
                    s
                })
                .collect();
            live_in.push(ins);
        }

        Self {
            ii,
            intervals,
            pressure,
            live_in,
            value_bits,
        }
    }

    /// The schedule's initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// All re-derived live ranges.
    pub fn intervals(&self) -> &[ValueInterval] {
        &self.intervals
    }

    /// Per-row live-value counts of one cluster.
    pub fn pressure_of(&self, cluster: usize) -> &[u32] {
        &self.pressure[cluster]
    }

    /// Maximum simultaneously live values per cluster — must equal
    /// `vliw_sms::cluster_max_live` on any schedule (property-tested).
    pub fn max_live(&self) -> Vec<u32> {
        self.pressure
            .iter()
            .map(|rows| rows.iter().copied().max().unwrap_or(0))
            .collect()
    }

    /// The dataflow live-in set of `cluster` at kernel row `row`.
    pub fn live_in(&self, cluster: usize, row: usize) -> &BitSet {
        &self.live_in[cluster][row]
    }

    /// Whether `node`'s value is live entering `row` of `cluster`.
    pub fn is_live(&self, cluster: usize, row: usize, node: NodeId) -> bool {
        self.value_bits
            .get(&node.0)
            .is_some_and(|&bit| self.live_in[cluster][row].contains(bit))
    }

    /// The dense bit assigned to `node`'s value, if it defines one.
    pub fn bit_of(&self, node: NodeId) -> Option<usize> {
        self.value_bits.get(&node.0).copied()
    }
}

/// Re-derive every live range of `sched` under the documented lifetime model: a
/// value is allocated at issue and held until its last read from each register file
/// — local consumers read at `cycle + distance·II`, remote consumers read the
/// producer's copy at the bus-transfer start, and a transferred value occupies the
/// receiving file from arrival to its last local use unless consumed on arrival.
fn derive_intervals(graph: &DepGraph, sched: &ModuloSchedule, ii: u32) -> Vec<ValueInterval> {
    let ii = ii as i64;
    let mut intervals = Vec::new();
    for node in graph.nodes() {
        if !node.class.defines_value() {
            continue;
        }
        let Some(prod) = sched.placement(node.id) else {
            continue;
        };
        let mut last_local_read = prod.cycle + 1;
        let mut remote: BTreeMap<usize, (i64, i64)> = BTreeMap::new();
        for e in graph.out_edges(node.id).filter(|e| e.kind.carries_value()) {
            let Some(cons) = sched.placement(e.dst) else {
                continue;
            };
            let read_cycle = cons.cycle + e.distance as i64 * ii;
            if cons.cluster == prod.cluster {
                last_local_read = last_local_read.max(read_cycle);
            } else {
                let transfer = sched
                    .comms()
                    .iter()
                    .find(|c| c.src_node == node.id && c.to_cluster == cons.cluster);
                let (send, arrive) = match transfer {
                    Some(c) => (c.start_cycle, c.start_cycle + c.duration as i64),
                    None => (read_cycle, read_cycle),
                };
                last_local_read = last_local_read.max(send);
                let entry = remote.entry(cons.cluster).or_insert((arrive, arrive));
                entry.0 = entry.0.min(arrive);
                entry.1 = entry.1.max(read_cycle);
            }
        }
        intervals.push(ValueInterval {
            node: node.id,
            cluster: prod.cluster,
            start: prod.cycle,
            end: last_local_read,
        });
        for (cluster, (arrive, last_read)) in remote {
            // Consumed exactly on arrival → read from the incoming-value register,
            // no register-file occupancy in the receiving cluster.
            if last_read > arrive {
                intervals.push(ValueInterval {
                    node: node.id,
                    cluster,
                    start: arrive,
                    end: last_read,
                });
            }
        }
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::{FuKind, OpClass, ResourcePool};
    use vliw_ddg::DepKind;
    use vliw_sms::{cluster_max_live, CommPlacement, PlacedOp};

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

    #[test]
    fn matches_lifetime_map_on_a_wrapping_lifetime() {
        let machine = MachineConfig::unified();
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("wrap");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut s = ModuloSchedule::new("wrap", 2, 4, 1);
        place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
        place(&mut s, &pool, 1, 9, 0, FuKind::Fp);
        let live = ModuloLiveness::new(&g, &s, &machine);
        assert_eq!(live.max_live(), cluster_max_live(&g, &s, &machine));
        assert_eq!(live.max_live()[0], 3); // 9-cycle lifetime over II=4
    }

    #[test]
    fn matches_lifetime_map_with_a_bus_transfer() {
        let machine = MachineConfig::two_cluster(1, 2);
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("remote");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut s = ModuloSchedule::new("remote", 2, 6, 1);
        place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
        place(&mut s, &pool, 1, 5, 1, FuKind::Fp);
        s.add_comm(CommPlacement {
            src_node: a,
            dst_node: b,
            from_cluster: 0,
            to_cluster: 1,
            bus: pool.buses().next().unwrap(),
            start_cycle: 2,
            duration: 2,
        });
        let live = ModuloLiveness::new(&g, &s, &machine);
        assert_eq!(live.max_live(), cluster_max_live(&g, &s, &machine));
        // Producer side 0..2, receiver side 4..5.
        assert!(live
            .intervals()
            .iter()
            .any(|iv| iv.cluster == 0 && (iv.start, iv.end) == (0, 2)));
        assert!(live
            .intervals()
            .iter()
            .any(|iv| iv.cluster == 1 && (iv.start, iv.end) == (4, 5)));
    }

    #[test]
    fn live_sets_cover_the_interval_rows() {
        // Value defined at cycle 1, last read at cycle 3, II = 6: the interval is
        // [1, 3) (the register frees at the read).  The value is not live *entering*
        // its definition row, so the live-in sets flag row 2 only.
        let machine = MachineConfig::unified();
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("rows");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut s = ModuloSchedule::new("rows", 2, 6, 1);
        place(&mut s, &pool, 0, 1, 0, FuKind::Mem);
        place(&mut s, &pool, 1, 3, 0, FuKind::Fp);
        let live = ModuloLiveness::new(&g, &s, &machine);
        let live_rows: Vec<usize> = (0..6).filter(|&r| live.is_live(0, r, a)).collect();
        assert_eq!(live_rows, vec![2]);
    }

    #[test]
    fn unplaced_producers_contribute_nothing() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("partial");
        let _a = g.add_node(OpClass::Load);
        let s = ModuloSchedule::new("partial", 1, 2, 1);
        let live = ModuloLiveness::new(&g, &s, &machine);
        assert!(live.intervals().is_empty());
        assert_eq!(live.max_live(), vec![0]);
    }
}
