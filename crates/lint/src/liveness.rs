//! Modulo liveness: per-cluster register pressure, recomputed independently of
//! `vliw_sms::PressureTracker` and its from-scratch fold.
//!
//! Each value's live ranges (producer-side and receiver-side, following the
//! lifetime model of `vliw_sms::pressure`) are re-derived and folded into per-row
//! pressure counts by *walking the covered rows* — `row = (start + k) mod II` for
//! each covered cycle `k` — instead of the tracker's closed-form
//! full-wraps-plus-split-remainder arithmetic.  The two folds must agree bit for
//! bit on `MaxLive`; the certifier's register-pressure lint uses *this* fold, so it
//! checks the scheduler's (tracker-based) register constraint through different
//! arithmetic.

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

/// Live intervals and register pressure of one modulo schedule.
#[derive(Debug, Clone)]
pub struct ModuloLiveness {
    intervals: Vec<ValueInterval>,
    /// `pressure[cluster][row]` = simultaneously live values.
    pressure: Vec<Vec<u32>>,
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

        Self {
            intervals,
            pressure,
        }
    }

    /// All re-derived live ranges.
    pub fn intervals(&self) -> &[ValueInterval] {
        &self.intervals
    }

    /// Maximum simultaneously live values per cluster — must equal
    /// `vliw_sms::cluster_max_live` on any schedule (property-tested).
    pub fn max_live(&self) -> Vec<u32> {
        self.pressure
            .iter()
            .map(|rows| rows.iter().copied().max().unwrap_or(0))
            .collect()
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
    fn interval_rules_match_the_tracker() {
        // Each row is a load `a` (node 0) feeding an add `b` (node 1): the machine,
        // II, `a` and `b` as (cycle, cluster), the edge distance, the bus transfer
        // as (start, duration), then the expected intervals as
        // (node, cluster, start, end) and MaxLive per cluster.
        type Row = (
            &'static str,
            MachineConfig,
            u32,
            (i64, usize),
            (i64, usize),
            u32,
            Option<(i64, u32)>,
            Vec<(u32, usize, i64, i64)>,
            Vec<u32>,
        );
        let table: Vec<Row> = vec![
            // Defined at cycle 1, read at cycle 3: the register frees at the read,
            // so the interval is the half-open [1, 3).
            (
                "half-open",
                MachineConfig::unified(),
                6,
                (1, 0),
                (3, 0),
                0,
                None,
                vec![(0, 0, 1, 3), (1, 0, 3, 4)],
                vec![1],
            ),
            // Distance 1: the read is at 3 + II = 7, so `a` holds its register for
            // 7 cycles at II 4 and overlaps itself in rows 0..3.
            (
                "loop-carried",
                MachineConfig::unified(),
                4,
                (0, 0),
                (3, 0),
                1,
                None,
                vec![(0, 0, 0, 7), (1, 0, 3, 4)],
                vec![2],
            ),
            // `b` issues on the transfer's arrival (2 + 2): it reads the incoming
            // value directly, so cluster 1 holds no copy of `a`.
            (
                "read-on-arrival",
                MachineConfig::two_cluster(1, 2),
                6,
                (0, 0),
                (4, 1),
                0,
                Some((2, 2)),
                vec![(0, 0, 0, 2), (1, 1, 4, 5)],
                vec![1, 1],
            ),
        ];
        for (name, machine, ii, at_a, at_b, distance, transfer, expected, max_live) in table {
            let pool = ResourcePool::new(&machine);
            let mut g = DepGraph::new(name);
            let a = g.add_node(OpClass::Load);
            let b = g.add_node(OpClass::FpAdd);
            g.add_edge(a, b, 2, distance, DepKind::Flow);
            let mut s = ModuloSchedule::new(name, 2, ii, 1);
            place(&mut s, &pool, 0, at_a.0, at_a.1, FuKind::Mem);
            place(&mut s, &pool, 1, at_b.0, at_b.1, FuKind::Fp);
            if let Some((start_cycle, duration)) = transfer {
                s.add_comm(CommPlacement {
                    src_node: a,
                    dst_node: b,
                    from_cluster: at_a.1,
                    to_cluster: at_b.1,
                    bus: pool.buses().next().unwrap(),
                    start_cycle,
                    duration,
                });
            }
            let live = ModuloLiveness::new(&g, &s, &machine);
            let intervals: Vec<_> = live
                .intervals()
                .iter()
                .map(|iv| (iv.node.0, iv.cluster, iv.start, iv.end))
                .collect();
            assert_eq!(intervals, expected, "{name}: intervals");
            assert_eq!(live.max_live(), max_live, "{name}: MaxLive");
            assert_eq!(
                live.max_live(),
                cluster_max_live(&g, &s, &machine),
                "{name}: the tracker's fold disagrees"
            );
        }
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
