//! Property-based tests (proptest) on the core data structures and schedulers:
//! randomly generated loop bodies must always produce legal schedules, unrolling must
//! preserve structure, the reservation table must never be oversubscribed, and the
//! checkpoint/rollback transaction must restore schedules bit-for-bit.

use clustered_vliw::core::{SelectiveUnroller, UnrollPolicy};
use clustered_vliw::lint::Certifier;
use clustered_vliw::prelude::*;
use proptest::prelude::*;
use vliw_arch::OpClass;
use vliw_ddg::{mii, rec_mii, unroll, DepGraph, DepKind};

/// Strategy: a random but well-formed loop body.
///
/// Nodes are generated first; intra-iteration edges only go from lower to higher node
/// indices (guaranteeing the zero-distance subgraph is acyclic), and a few loop-carried
/// edges with distance 1–3 are sprinkled anywhere.
fn arb_loop() -> impl Strategy<Value = DepGraph> {
    let classes = prop_oneof![
        Just(OpClass::IntAlu),
        Just(OpClass::Load),
        Just(OpClass::Load),
        Just(OpClass::Store),
        Just(OpClass::FpAdd),
        Just(OpClass::FpAdd),
        Just(OpClass::FpMul),
        Just(OpClass::FpMul),
        Just(OpClass::FpDiv),
    ];
    (
        2usize..18,
        proptest::collection::vec(classes, 18),
        any::<u64>(),
    )
        .prop_map(|(n_nodes, classes, seed)| {
            let mut g = DepGraph::new(format!("prop_{seed:x}"));
            g.iterations = 8 + (seed % 200);
            let ids: Vec<_> = (0..n_nodes).map(|i| g.add_node(classes[i])).collect();
            // Deterministic pseudo-random edge pattern derived from the seed.
            let mut state = seed | 1;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for i in 1..n_nodes {
                // Every node gets at least one predecessor among the earlier nodes so
                // the graph stays connected-ish.
                let p = (next() as usize) % i;
                let latency = 1 + (next() % 4) as u32;
                g.add_edge(ids[p], ids[i], latency, 0, DepKind::Flow);
                if next() % 3 == 0 {
                    let q = (next() as usize) % i;
                    g.add_edge(ids[q], ids[i], 1 + (next() % 4) as u32, 0, DepKind::Flow);
                }
            }
            // A few loop-carried edges.
            let carried = (next() % 3) as usize;
            for _ in 0..carried {
                let a = (next() as usize) % n_nodes;
                let b = (next() as usize) % n_nodes;
                let distance = 1 + (next() % 3) as u32;
                g.add_edge(
                    ids[a],
                    ids[b],
                    1 + (next() % 4) as u32,
                    distance,
                    DepKind::Flow,
                );
            }
            g
        })
}

fn assert_legal(
    graph: &DepGraph,
    sched: &clustered_vliw::sms::ModuloSchedule,
    machine: &MachineConfig,
) {
    let iterations = vliw_sim::verification_iterations(graph);
    let report = Certifier::new(machine).check(graph, sched, iterations);
    assert!(
        report.is_certified(),
        "violations: {:?}",
        report.diagnostics
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_loops_validate_and_schedule_on_the_unified_machine(graph in arb_loop()) {
        prop_assume!(graph.validate().is_ok());
        let machine = MachineConfig::unified();
        let sched = Scheduler::new(Policy::UnifiedSms, &machine).schedule(&graph).unwrap();
        prop_assert!(sched.ii() >= mii(&graph, &machine));
        assert_legal(&graph, &sched, &machine);
    }

    #[test]
    fn random_loops_schedule_legally_with_bsa_on_clustered_machines(graph in arb_loop()) {
        prop_assume!(graph.validate().is_ok());
        for machine in [MachineConfig::two_cluster(1, 1), MachineConfig::four_cluster(1, 2)] {
            let sched = Scheduler::new(Policy::Bsa, &machine).schedule(&graph).unwrap();
            prop_assert!(sched.ii() >= mii(&graph, &machine));
            assert_legal(&graph, &sched, &machine);
            // The simulator agrees.
            let report = KernelSimulator::new(&machine).run(&graph, &sched, 8);
            prop_assert!(report.is_clean(), "{:?}", report.errors);
        }
    }

    #[test]
    fn random_loops_schedule_legally_with_the_two_phase_baseline(graph in arb_loop()) {
        prop_assume!(graph.validate().is_ok());
        let machine = MachineConfig::two_cluster(2, 1);
        let sched = Scheduler::new(Policy::NystromEichenberger, &machine).schedule(&graph).unwrap();
        assert_legal(&graph, &sched, &machine);
    }

    // Every cluster policy — BSA, N&E, round-robin, load-balanced and the unified
    // reference — runs through the same IiSearchDriver engine; whatever strategy a
    // policy picks, the resulting schedule must satisfy the dependence and
    // resource-conflict invariants, and the engine's diagnostics must agree with the
    // schedule.  (Before this test the ablation schedulers had no property coverage.)
    #[test]
    fn all_five_policies_produce_legal_schedules_through_the_shared_engine(graph in arb_loop()) {
        prop_assume!(graph.validate().is_ok());
        let machine = MachineConfig::two_cluster(2, 1);
        for policy in Policy::ALL {
            let label = policy.label();
            let out = policy
                .schedule(&machine, &graph)
                .unwrap_or_else(|e| panic!("{label} failed on {}: {e}", graph.name));
            let target = &policy.target_machine(&machine);
            prop_assert!(out.schedule.ii() >= mii(&graph, target), "{label}");
            assert_legal(&graph, &out.schedule, target);
            // The diagnostics describe the schedule they came with.
            prop_assert_eq!(out.diagnostics.ii, out.schedule.ii());
            prop_assert!(out.diagnostics.ii >= out.diagnostics.mii);
            prop_assert_eq!(out.diagnostics.n_comms, out.schedule.comms().len());
            prop_assert_eq!(out.diagnostics.max_live_per_cluster.len(), target.n_clusters);
            prop_assert_eq!(
                out.diagnostics.mii,
                out.diagnostics.res_mii.max(out.diagnostics.rec_mii)
            );
        }
    }

    // The executor oracle, property-style: whatever schedule any of the five
    // policies produces on a random graph must replay cleanly in the cycle-level
    // simulator, its simulated makespan must equal the closed-form makespan
    // exactly, and the analytic NCYCLES used by the IPC accounting must sit inside
    // its provable window of the measured makespan — i.e. the full differential
    // audit of `vliw_sim::check_schedule` finds nothing.
    #[test]
    fn all_five_policies_replay_cleanly_with_consistent_cycle_models(graph in arb_loop()) {
        prop_assume!(graph.validate().is_ok());
        let machine = MachineConfig::two_cluster(1, 2);
        for policy in Policy::ALL {
            let label = policy.label();
            let out = policy
                .schedule(&machine, &graph)
                .unwrap_or_else(|e| panic!("{label} failed on {}: {e}", graph.name));
            let target = &policy.target_machine(&machine);
            let iterations = vliw_sim::verification_iterations(&graph);
            let sim = KernelSimulator::new(target).run(&graph, &out.schedule, iterations);
            prop_assert!(sim.is_clean(), "{label}: {:?}", sim.errors);
            prop_assert_eq!(
                sim.cycles,
                clustered_vliw::lint::static_makespan(&graph, &out.schedule, target, iterations),
                "{label}: replayed and closed-form makespans diverge"
            );
            prop_assert_eq!(sim.analytic_cycles, out.schedule.cycles_for(iterations));
            let report = vliw_sim::check_schedule(target, &graph, &out.schedule, iterations);
            prop_assert!(report.is_clean(), "{label}: {:?}", report.findings);
        }
    }

    #[test]
    fn unrolling_preserves_structure(graph in arb_loop(), factor in 2u32..5) {
        prop_assume!(graph.validate().is_ok());
        let unrolled = unroll(&graph, factor);
        prop_assert!(unrolled.validate().is_ok());
        prop_assert_eq!(unrolled.n_nodes(), graph.n_nodes() * factor as usize);
        prop_assert_eq!(unrolled.n_edges(), graph.n_edges() * factor as usize);
        prop_assert_eq!(unrolled.iterations, graph.iterations.div_ceil(factor as u64));
        // Operation mix is preserved per copy.
        let orig = graph.ops_per_fu_kind();
        let unro = unrolled.ops_per_fu_kind();
        for k in 0..3 {
            prop_assert_eq!(unro[k], orig[k] * factor as usize);
        }
        // The per-original-iteration recurrence bound never gets worse.
        prop_assert!(rec_mii(&unrolled) <= rec_mii(&graph) * factor);
    }

    #[test]
    fn bus_rich_machines_never_schedule_worse_than_bus_poor_ones(graph in arb_loop()) {
        prop_assume!(graph.validate().is_ok());
        let poor = MachineConfig::four_cluster(1, 2);
        let rich = MachineConfig::four_cluster(2, 1);
        let sched_poor = Scheduler::new(Policy::Bsa, &poor).schedule(&graph).unwrap();
        let sched_rich = Scheduler::new(Policy::Bsa, &rich).schedule(&graph).unwrap();
        prop_assert!(sched_rich.ii() <= sched_poor.ii(),
            "rich {} > poor {}", sched_rich.ii(), sched_poor.ii());
    }

    #[test]
    fn mii_is_monotone_in_machine_width(graph in arb_loop()) {
        prop_assume!(graph.validate().is_ok());
        // The unified 12-wide machine can never have a larger MII than a 6-wide one.
        let wide = MachineConfig::unified();
        let narrow = MachineConfig::new(
            "narrow",
            1,
            vliw_arch::ClusterConfig::new(2, 2, 2, 64),
            vliw_arch::BusConfig::none(),
            vliw_arch::LatencyModel::table1(),
        );
        prop_assert!(mii(&graph, &wide) <= mii(&graph, &narrow));
    }
}

/// Drive a schedule + reservation-table pair through `seed`-derived random bursts of
/// legal placements and bus reservations, half of them rolled back, asserting after
/// every rollback that both structures are bit-identical to the deep copies taken at
/// the checkpoint.  This is the invariant that lets BSA trial clusters on the live
/// schedule instead of cloning it per trial.
fn check_transaction_roundtrip(graph: &DepGraph, seed: u64) {
    use clustered_vliw::sms::{CommPlacement, ModuloReservationTable, ModuloSchedule, PlacedOp};
    let machine = MachineConfig::two_cluster(1, 2);
    let pool = vliw_arch::ResourcePool::new(&machine);
    let ii = 4 + (seed % 5) as u32;
    let mut sched = ModuloSchedule::new(&graph.name, graph.n_nodes(), ii, ii);
    let mut mrt = ModuloReservationTable::new(&pool, ii);
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };

    // Interleave committed bursts with rolled-back trial bursts.
    let mut unplaced: Vec<vliw_ddg::NodeId> = graph.node_ids().collect();
    for _ in 0..24 {
        let trial = next() % 2 == 0;
        let snapshot = trial.then(|| (sched.clone(), mrt.clone()));
        let cp = sched.checkpoint();
        let mut trial_reservations = Vec::new();

        for _ in 0..(1 + next() % 3) {
            if !unplaced.is_empty() && next() % 3 != 0 {
                let idx = (next() as usize) % unplaced.len();
                let node = unplaced[idx];
                let cluster = (next() as usize) % machine.n_clusters;
                let cycle = (next() % (3 * ii as u64)) as i64 - ii as i64;
                let kind = graph.node(node).class.fu_kind();
                if let Some(fu) = mrt.find_free(pool.fus(cluster, kind), cycle) {
                    trial_reservations.push(mrt.reserve(fu, cycle));
                    sched.place(PlacedOp {
                        node,
                        cycle,
                        cluster,
                        fu,
                    });
                    unplaced.swap_remove(idx);
                }
            } else if graph.n_nodes() >= 2 {
                // A bus transfer of random duration (may wrap column II-1 -> 0).
                let duration = 1 + (next() % ii as u64) as u32;
                let start = (next() % (2 * ii as u64)) as i64 - ii as i64;
                if let Some(bus) = mrt.find_free_for(pool.buses(), start, duration) {
                    trial_reservations.push(mrt.reserve_for(bus, start, duration));
                    sched.add_comm(CommPlacement {
                        src_node: vliw_ddg::NodeId(0),
                        dst_node: vliw_ddg::NodeId(1),
                        from_cluster: 0,
                        to_cluster: 1,
                        bus,
                        start_cycle: start,
                        duration,
                    });
                }
            }
        }

        if let Some((sched_before, mrt_before)) = snapshot {
            // Roll the whole burst back: the pair must be bit-identical.
            sched.rollback(cp);
            for r in trial_reservations.drain(..).rev() {
                mrt.release(r);
            }
            assert_eq!(sched, sched_before);
            assert_eq!(mrt, mrt_before);
            // Re-mark the burst's nodes as unplaced for later rounds.
            unplaced = graph
                .node_ids()
                .filter(|&n| sched.placement(n).is_none())
                .collect();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The checkpoint/rollback transaction must leave the schedule *and* the
    // reservation table bit-identical to a deep copy taken before the trial, for any
    // randomized sequence of placements, communications and releases.
    #[test]
    fn checkpoint_rollback_is_bit_identical_to_a_pre_trial_clone(
        graph in arb_loop(),
        seed in any::<u64>(),
    ) {
        prop_assume!(graph.validate().is_ok());
        check_transaction_roundtrip(&graph, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The factor-exploration policy's contract: the factor-1 schedule is always a
    // candidate and the winner must beat it to be selected, so `Explore` can never
    // return a schedule with lower IPC than `UnrollPolicy::None` on the same
    // machine — for any loop, including trip counts the factors do not divide
    // (exact remainder accounting).
    #[test]
    fn explore_never_loses_to_no_unrolling(graph in arb_loop()) {
        prop_assume!(graph.validate().is_ok());
        for machine in [MachineConfig::two_cluster(1, 1), MachineConfig::four_cluster(1, 2)] {
            let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
            let none = driver.schedule_with_policy(&graph, UnrollPolicy::None).unwrap();
            let explored = driver
                .schedule_with_policy(&graph, UnrollPolicy::Explore { max_factor: 4 })
                .unwrap();
            prop_assert!(
                explored.ipc() >= none.ipc(),
                "{}: explore {} < none {} (factor {})",
                machine.name,
                explored.ipc(),
                none.ipc(),
                explored.unroll_factor
            );
            // Exact accounting: kernel iterations + epilogue iterations cover NITER.
            let covered = explored.scheduled_graph.iterations * explored.unroll_factor as u64
                + explored.remainder.as_ref().map_or(0, |r| r.iterations);
            prop_assert_eq!(covered, graph.iterations);
        }
    }

    // Unrolling composes: unroll(unroll(g, 2), 2) must be structurally identical to
    // unroll(g, 4) — root-relative provenance (original, flat copy index) and the
    // remapped edges alike.  (The flat copy index is what keeps useful-op
    // accounting honest when Explore revisits factors.)
    #[test]
    fn double_unrolling_equals_unrolling_by_the_product(graph in arb_loop()) {
        prop_assume!(graph.validate().is_ok());
        let composed = unroll(&unroll(&graph, 2), 2);
        let direct = unroll(&graph, 4);
        prop_assert_eq!(composed.iterations, direct.iterations);
        prop_assert_eq!(composed.n_nodes(), direct.n_nodes());
        for (a, b) in composed.nodes().zip(direct.nodes()) {
            prop_assert_eq!(a.original, b.original);
            prop_assert_eq!(a.copy, b.copy);
            prop_assert_eq!(a.class, b.class);
        }
        for (a, b) in composed.edges().zip(direct.edges()) {
            prop_assert_eq!((a.src, a.dst, a.latency, a.distance, a.kind),
                            (b.src, b.dst, b.latency, b.distance, b.kind));
        }
    }
}
