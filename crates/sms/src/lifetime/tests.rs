//! The Section-5.1 lifetime model's own tests (the model is documented and
//! implemented in [`crate::pressure`]), pinned on the tracker's from-scratch fold.

use crate::pressure::PressureTracker;
use crate::schedule::{CommPlacement, ModuloSchedule, PlacedOp};
use vliw_arch::{FuKind, MachineConfig, OpClass, ResourcePool};
use vliw_ddg::{DepGraph, DepKind, NodeId};

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
fn single_local_consumer_lifetime() {
    // load (cycle 0) -> fadd (cycle 5), same cluster: value live 0..5 => covers
    // rows 0..5 with II 8, MaxLive 1.
    let machine = MachineConfig::unified();
    let pool = ResourcePool::new(&machine);
    let mut g = DepGraph::new("t");
    let a = g.add_node(OpClass::Load);
    let b = g.add_node(OpClass::FpAdd);
    g.add_edge(a, b, 2, 0, DepKind::Flow);
    let mut s = ModuloSchedule::new("t", 2, 8, 1);
    place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
    place(&mut s, &pool, 1, 5, 0, FuKind::Fp);
    let lt = PressureTracker::of_schedule(&g, &s, &machine);
    assert_eq!(lt.max_live()[0], 1);
    assert_eq!(lt.ranges().len(), 2); // load's value + fadd's (unused) value
    let load_range = lt.ranges().into_iter().find(|r| r.node == a).unwrap();
    assert_eq!((load_range.start, load_range.end), (0, 5));
    assert!(lt.fits());
}

#[test]
fn long_lifetime_wraps_around_the_kernel() {
    // Value live for 2*II + 1 cycles: every row holds at least 2 instances.
    let machine = MachineConfig::unified();
    let pool = ResourcePool::new(&machine);
    let mut g = DepGraph::new("wrap");
    let a = g.add_node(OpClass::Load);
    let b = g.add_node(OpClass::FpAdd);
    g.add_edge(a, b, 2, 0, DepKind::Flow);
    let mut s = ModuloSchedule::new("wrap", 2, 4, 1);
    place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
    place(&mut s, &pool, 1, 9, 0, FuKind::Fp);
    let lt = PressureTracker::of_schedule(&g, &s, &machine);
    // lifetime 0..9 = 9 cycles, II=4 -> 2 full wraps + 1 extra row
    assert_eq!(lt.max_live()[0], 3);
    assert!(lt.ranges().iter().any(|r| r.end - r.start == 9));
}

#[test]
fn remote_consumer_splits_the_lifetime() {
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
    let lt = PressureTracker::of_schedule(&g, &s, &machine);
    // Producer-side range ends at the transfer start (cycle 2), receiver-side
    // range spans arrival (4) to the consumer read (5).
    let all = lt.ranges();
    let prod_range = all.iter().find(|r| r.node == a && r.cluster == 0).unwrap();
    assert_eq!((prod_range.start, prod_range.end), (0, 2));
    let recv_range = all.iter().find(|r| r.node == a && r.cluster == 1).unwrap();
    assert_eq!((recv_range.start, recv_range.end), (4, 5));
}

#[test]
fn value_consumed_on_arrival_needs_no_receiver_register() {
    let machine = MachineConfig::two_cluster(1, 1);
    let pool = ResourcePool::new(&machine);
    let mut g = DepGraph::new("irv");
    let a = g.add_node(OpClass::Load);
    let b = g.add_node(OpClass::FpAdd);
    g.add_edge(a, b, 2, 0, DepKind::Flow);
    let mut s = ModuloSchedule::new("irv", 2, 6, 1);
    place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
    place(&mut s, &pool, 1, 3, 1, FuKind::Fp);
    s.add_comm(CommPlacement {
        src_node: a,
        dst_node: b,
        from_cluster: 0,
        to_cluster: 1,
        bus: pool.buses().next().unwrap(),
        start_cycle: 2,
        duration: 1,
    });
    let lt = PressureTracker::of_schedule(&g, &s, &machine);
    // Arrival cycle 3 == consumer cycle 3: read from the IRV, no register range in
    // cluster 1 for node a.
    assert!(!lt.ranges().iter().any(|r| r.node == a && r.cluster == 1));
}

#[test]
fn loop_carried_consumer_extends_lifetime_by_ii() {
    let machine = MachineConfig::unified();
    let pool = ResourcePool::new(&machine);
    let mut g = DepGraph::new("carried");
    let a = g.add_node(OpClass::FpAdd);
    let b = g.add_node(OpClass::FpMul);
    g.add_edge(a, b, 3, 1, DepKind::Flow); // consumed one iteration later
    let mut s = ModuloSchedule::new("carried", 2, 5, 1);
    place(&mut s, &pool, 0, 0, 0, FuKind::Fp);
    place(&mut s, &pool, 1, 1, 0, FuKind::Fp);
    let lt = PressureTracker::of_schedule(&g, &s, &machine);
    let r = lt.ranges().into_iter().find(|r| r.node == a).unwrap();
    // read at 1 + 1*5 = 6
    assert_eq!((r.start, r.end), (0, 6));
    assert_eq!(lt.max_live()[0], 2); // the range wraps past II once
}

#[test]
fn store_defines_no_value() {
    let machine = MachineConfig::unified();
    let pool = ResourcePool::new(&machine);
    let mut g = DepGraph::new("store");
    let _st = g.add_node(OpClass::Store);
    let mut s = ModuloSchedule::new("store", 1, 2, 1);
    place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
    let lt = PressureTracker::of_schedule(&g, &s, &machine);
    assert!(lt.ranges().is_empty());
    assert_eq!(lt.max_live()[0], 0);
}

#[test]
fn total_lifetime_sums_ranges() {
    let machine = MachineConfig::unified();
    let pool = ResourcePool::new(&machine);
    let mut g = DepGraph::new("sum");
    let a = g.add_node(OpClass::Load);
    let b = g.add_node(OpClass::FpAdd);
    g.add_edge(a, b, 2, 0, DepKind::Flow);
    let mut s = ModuloSchedule::new("sum", 2, 4, 1);
    place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
    place(&mut s, &pool, 1, 3, 0, FuKind::Fp);
    let lt = PressureTracker::of_schedule(&g, &s, &machine);
    // a: 0..3 (3 cycles), b: unused -> 1 cycle; 4 register-cycles over II 4
    // put exactly one value in every row.
    let spans: Vec<_> = lt
        .ranges()
        .iter()
        .map(|r| (r.node, r.start, r.end))
        .collect();
    assert_eq!(spans, vec![(a, 0, 3), (b, 3, 4)]);
    assert_eq!(lt.max_live(), vec![1]);
}

#[test]
fn fits_reflects_register_file_size() {
    // A tiny machine with 16 registers per cluster: 20 simultaneously live values
    // must not fit.
    let machine = MachineConfig::four_cluster(1, 1);
    let pool = ResourcePool::new(&machine);
    let mut g = DepGraph::new("pressure");
    let mut s = ModuloSchedule::new("pressure", 21, 1, 1);
    let consumer = g.add_node(OpClass::FpAdd);
    // 20 producers all alive until the consumer reads them far in the future.
    for i in 1..=20u32 {
        let p = g.add_node(OpClass::Load);
        g.add_edge(p, consumer, 2, 0, DepKind::Flow);
        s.place(PlacedOp {
            node: p,
            cycle: i as i64,
            cluster: 0,
            fu: pool.fus(0, FuKind::Mem).next().unwrap(),
        });
    }
    s.place(PlacedOp {
        node: consumer,
        cycle: 100,
        cluster: 0,
        fu: pool.fus(0, FuKind::Fp).next().unwrap(),
    });
    let lt = PressureTracker::of_schedule(&g, &s, &machine);
    assert!(lt.max_live()[0] >= 20);
    assert!(!lt.fits());
}
