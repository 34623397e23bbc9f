//! Cross-crate integration tests: schedule real kernels and corpus loops on every
//! machine configuration of the paper with every scheduler, then certify each schedule
//! with the static certifier and replay it in the cycle-level simulator.

use clustered_vliw::core::{SelectiveUnroller, UnrollPolicy};
use clustered_vliw::lint::Certifier;
use clustered_vliw::prelude::*;
use clustered_vliw::sim::verification_iterations;
use clustered_vliw::workloads::kernels;
use vliw_ddg::mii;

/// The clustered configurations exercised by the paper's evaluation.
fn paper_machines() -> Vec<MachineConfig> {
    let mut machines = vec![MachineConfig::unified()];
    for clusters in [2usize, 4] {
        for buses in [1usize, 2] {
            for latency in [1u32, 2, 4] {
                machines.push(MachineConfig::clustered(clusters, buses, latency));
            }
        }
    }
    machines
}

#[test]
fn every_kernel_schedules_validates_and_simulates_everywhere() {
    for machine in paper_machines() {
        let certifier = Certifier::new(&machine);
        let simulator = KernelSimulator::new(&machine);
        for (name, graph) in kernels::named_kernels() {
            // The BSA scheduler is the paper's contribution; run it on the clustered
            // machines and the plain SMS scheduler on the unified one.
            let policy = if machine.is_clustered() {
                Policy::Bsa
            } else {
                Policy::UnifiedSms
            };
            let sched = Scheduler::new(policy, &machine)
                .schedule(&graph)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", machine.name));

            assert!(
                sched.ii() >= mii(&graph, &machine),
                "{name} on {}",
                machine.name
            );
            let lint = certifier.check(&graph, &sched, 20);
            assert!(
                lint.is_certified(),
                "{name} on {}: {:?}",
                machine.name,
                lint.diagnostics
            );
            let report = simulator.run(&graph, &sched, 20);
            assert!(
                report.is_clean(),
                "{name} on {}: {:?}",
                machine.name,
                report.errors
            );
            assert_eq!(report.ops_issued, 20 * graph.n_nodes() as u64);
        }
    }
}

#[test]
fn both_cluster_schedulers_validate_on_a_spec_corpus() {
    let corpus = LoopCorpus::generate(SpecFp95::Su2cor);
    let machine = MachineConfig::four_cluster(2, 2);
    let certifier = Certifier::new(&machine);
    for graph in corpus.loops.iter().take(10) {
        for policy in [Policy::Bsa, Policy::NystromEichenberger] {
            let label = policy.label();
            let sched = Scheduler::new(policy, &machine)
                .schedule(graph)
                .unwrap_or_else(|e| panic!("{label} failed on {}: {e}", graph.name));
            let lint = certifier.check(graph, &sched, verification_iterations(graph));
            assert!(
                lint.is_certified(),
                "{label} on {}: {:?}",
                graph.name,
                lint.diagnostics
            );
        }
    }
}

#[test]
fn clustered_ipc_never_beats_unified_by_much_without_unrolling() {
    // Without unrolling, the clustered machine can only lose IPC with respect to the
    // unified machine with the same resources (small wins are possible because the
    // unified heuristic is not optimal, hence the 10% tolerance).
    let corpus = LoopCorpus::generate(SpecFp95::Wave5);
    let clustered = MachineConfig::four_cluster(1, 1);
    let unified = clustered.unified_counterpart();
    for graph in corpus.loops.iter().take(10) {
        let c = Scheduler::new(Policy::Bsa, &clustered)
            .schedule(graph)
            .unwrap();
        let u = Scheduler::new(Policy::UnifiedSms, &unified)
            .schedule(graph)
            .unwrap();
        assert!(
            c.ii() as f64 >= u.ii() as f64 * 0.9,
            "{}: clustered II {} suspiciously better than unified II {}",
            graph.name,
            c.ii(),
            u.ii()
        );
    }
}

#[test]
fn selective_unrolling_tracks_full_unrolling_ipc_on_bus_starved_machines() {
    // The headline property of Section 6.2: the selective policy is close to the
    // full-unrolling policy in IPC (here per-loop cycle counts) while unrolling fewer
    // loops.
    let corpus = LoopCorpus::generate(SpecFp95::Hydro2d);
    let machine = MachineConfig::four_cluster(1, 2);
    let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
    let mut unrolled_all = 0usize;
    let mut unrolled_selective = 0usize;
    let mut cycles_all = 0u64;
    let mut cycles_selective = 0u64;
    let mut cycles_none = 0u64;
    for graph in corpus.loops.iter().take(12) {
        let all = driver
            .schedule_with_policy(graph, UnrollPolicy::ByClusters)
            .unwrap();
        let sel = driver
            .schedule_with_policy(graph, UnrollPolicy::Selective)
            .unwrap();
        let none = driver
            .schedule_with_policy(graph, UnrollPolicy::None)
            .unwrap();
        unrolled_all += (all.unroll_factor > 1) as usize;
        unrolled_selective += (sel.unroll_factor > 1) as usize;
        cycles_all += all.total_cycles();
        cycles_selective += sel.total_cycles();
        cycles_none += none.total_cycles();
    }
    assert!(unrolled_selective <= unrolled_all);
    // Selective must not be slower than no unrolling, and must stay within 25% of
    // unrolling everything.
    assert!(cycles_selective <= cycles_none);
    assert!(
        (cycles_selective as f64) <= cycles_all as f64 * 1.25,
        "selective {cycles_selective} vs all {cycles_all}"
    );
}

#[test]
fn simulated_cycles_match_the_analytic_model_on_clustered_machines() {
    let machine = MachineConfig::two_cluster(1, 2);
    let simulator = KernelSimulator::new(&machine);
    for (name, graph) in kernels::named_kernels() {
        let sched = Scheduler::new(Policy::Bsa, &machine)
            .schedule(&graph)
            .unwrap();
        let iters = 50;
        let report = simulator.run(&graph, &sched, iters);
        assert!(report.is_clean(), "{name}: {:?}", report.errors);
        let slack = (report.analytic_cycles as i64 - report.cycles as i64).abs();
        assert!(
            slack <= (sched.ii() + machine.latencies.max_latency() + machine.buses.latency) as i64,
            "{name}: analytic {} vs simulated {}",
            report.analytic_cycles,
            report.cycles
        );
    }
}

#[test]
fn unrolling_preserves_total_work_in_the_simulator() {
    let machine = MachineConfig::two_cluster(2, 1);
    let graph = kernels::stencil3(64);
    let bsa = Scheduler::new(Policy::Bsa, &machine);
    let plain = bsa.schedule(&graph).unwrap();
    let unrolled_graph = clustered_vliw::ddg::unroll(&graph, 2);
    let unrolled = bsa.schedule(&unrolled_graph).unwrap();
    let sim = KernelSimulator::new(&machine);
    let plain_report = sim.run(&graph, &plain, 64);
    let unrolled_report = sim.run(&unrolled_graph, &unrolled, 32);
    assert!(plain_report.is_clean() && unrolled_report.is_clean());
    // 64 original iterations == 32 unrolled-by-2 iterations of double the body.
    assert_eq!(plain_report.ops_issued, unrolled_report.ops_issued);
}

#[test]
fn figure7_numbers_reproduce() {
    // The papers' worked example: ResMII 2, RecMII 2 on the example machine; the
    // unrolled graph has minimum II 4 and needs only 2 communications per unrolled
    // iteration when scheduled by BSA.
    let graph = paper_example_loop();
    let machine = MachineConfig::new(
        "fig7",
        2,
        vliw_arch::ClusterConfig::new(2, 0, 0, 32),
        vliw_arch::BusConfig::new(1, 1),
        vliw_arch::LatencyModel::unit(),
    );
    assert_eq!(mii(&graph, &machine), 2);
    let unrolled = clustered_vliw::ddg::unroll(&graph, 2);
    assert_eq!(mii(&unrolled, &machine), 4);
    let sched = Scheduler::new(Policy::Bsa, &machine)
        .schedule(&unrolled)
        .unwrap();
    assert!(sched.ii() >= 4);
    assert!(
        sched.comms().len() <= 2,
        "expected at most 2 communications, got {}",
        sched.comms().len()
    );
}
