//! The worked example of Figure 7 of the paper: how unrolling a loop by the number of
//! clusters hides the inter-cluster communication latency.
//!
//! The loop has six unit-latency operations A..F and a recurrence of latency 3 over
//! distance 2 (RecMII 2); the machine has two clusters of two general-purpose units
//! each and a single 1-cycle bus.  Without unrolling, the communications cannot all be
//! placed at the minimum II; after unrolling by 2, each iteration runs on its own
//! cluster and only two transfers per (unrolled) iteration remain.
//!
//! Run with: `cargo run --release --example paper_example`

use clustered_vliw::prelude::*;
use vliw_arch::{BusConfig, ClusterConfig, LatencyModel};
use vliw_ddg::{mii, unroll};

fn figure7_machine(bus_latency: u32) -> MachineConfig {
    MachineConfig::new(
        format!("fig7-2cluster-L{bus_latency}"),
        2,
        ClusterConfig::new(2, 0, 0, 32),
        BusConfig::new(1, bus_latency),
        LatencyModel::unit(),
    )
}

fn main() {
    let graph = paper_example_loop();
    println!("{graph}");

    for bus_latency in [1u32, 2] {
        let machine = figure7_machine(bus_latency);
        println!("=== {machine} ===");
        let bsa = Scheduler::new(Policy::Bsa, &machine);

        // Non-unrolled loop.
        let plain = bsa.schedule(&graph).expect("schedulable");
        println!(
            "  no unrolling       : MII={} -> II={} SC={} comms/iter={}",
            mii(&graph, &machine),
            plain.ii(),
            plain.stage_count(),
            plain.comms().len()
        );

        // Unrolled by the number of clusters.
        let unrolled = unroll(&graph, 2);
        let unrolled_sched = bsa.schedule(&unrolled).expect("schedulable");
        println!(
            "  unrolled by 2      : MII={} -> II={} SC={} comms/unrolled-iter={}  (II per original iteration: {:.1})",
            mii(&unrolled, &machine),
            unrolled_sched.ii(),
            unrolled_sched.stage_count(),
            unrolled_sched.comms().len(),
            unrolled_sched.ii() as f64 / 2.0
        );

        // Which cluster did each copy land on?
        for copy in 0..2u32 {
            let clusters: Vec<usize> = unrolled
                .nodes()
                .filter(|n| n.copy == copy)
                .filter_map(|n| unrolled_sched.cluster_of(n.id))
                .collect();
            println!("    iteration copy {copy} runs on clusters {clusters:?}");
        }

        // Effective throughput comparison in cycles per original iteration.
        let per_iter_plain = plain.ii() as f64;
        let per_iter_unrolled = unrolled_sched.ii() as f64 / 2.0;
        println!(
            "  unrolling gains {:.0}% throughput on this machine\n",
            (per_iter_plain / per_iter_unrolled - 1.0) * 100.0
        );
    }
}
