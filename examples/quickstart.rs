//! Quickstart: build a loop, modulo-schedule it on a clustered VLIW machine with the
//! paper's BSA scheduler, and inspect the result.
//!
//! Run with: `cargo run --release --example quickstart`

use clustered_vliw::prelude::*;
use clustered_vliw::{core::UnrollPolicy, ddg};
use vliw_arch::OpClass;

fn main() {
    // 1. Describe the machine: the 4-cluster configuration of Table 1 with one
    //    1-cycle bus (1 INT + 1 FP + 1 MEM unit and 16 registers per cluster).
    let machine = MachineConfig::four_cluster(1, 1);
    println!("Machine: {machine}\n");

    // 2. Build the dependence graph of an innermost loop:
    //    for i { y[i] = a*x[i] + y[i] }  (saxpy), 1000 iterations.
    let graph = ddg::GraphBuilder::new("saxpy")
        .iterations(1000)
        .node("addr", OpClass::IntAlu)
        .node("lx", OpClass::Load)
        .node("ly", OpClass::Load)
        .node("mul", OpClass::FpMul)
        .node("add", OpClass::FpAdd)
        .node("st", OpClass::Store)
        .flow_at("addr", "addr", 1) // induction variable
        .flow("addr", "lx")
        .flow("addr", "ly")
        .flow("addr", "st")
        .flow("lx", "mul")
        .flow("mul", "add")
        .flow("ly", "add")
        .flow("add", "st")
        .build();
    println!("{graph}");
    println!(
        "MII = {} (ResMII {} / RecMII {})\n",
        ddg::mii(&graph, &machine),
        ddg::res_mii(&graph, &machine),
        ddg::rec_mii(&graph)
    );

    // 3. Schedule it: cluster assignment and cycle assignment in a single pass, with
    //    the selective unrolling policy of the paper.
    let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
    let result = driver
        .schedule_with_policy(&graph, UnrollPolicy::Selective)
        .expect("saxpy is schedulable");
    println!("Schedule: {}", result.schedule.summary());
    println!("Bus-limited: {}", result.diagnostics.limited_by_bus());
    println!("Unroll factor: {}", result.unroll_factor);
    println!("IPC of this loop: {:.2}\n", result.ipc());

    // 4. Show the kernel as VLIW instructions.
    let kernel = result
        .schedule
        .kernel_program(&result.scheduled_graph, &machine);
    println!("Kernel ({} instruction(s)):\n{kernel}", kernel.len());

    // 5. Cross-check by replaying the schedule cycle by cycle in the simulator.
    let report = KernelSimulator::new(&machine).run(
        &result.scheduled_graph,
        &result.schedule,
        result.scheduled_graph.iterations,
    );
    println!(
        "Simulated {} iterations: {} cycles (analytic {}), {} bus transfers, {:.1}% FU utilisation, clean = {}",
        report.iterations,
        report.cycles,
        report.analytic_cycles,
        report.bus_transfers,
        report.fu_utilization * 100.0,
        report.is_clean()
    );

    // 6. Compare against the unified machine with the same total resources.
    let unified = machine.unified_counterpart();
    let unified_sched = Scheduler::new(Policy::UnifiedSms, &unified)
        .schedule(&graph)
        .unwrap();
    println!(
        "\nUnified machine reaches II = {}; clustered II = {} -> relative IPC ≈ {:.2}",
        unified_sched.ii(),
        result.schedule.ii(),
        unified_sched.ii() as f64 / result.schedule.ii() as f64 * result.unroll_factor as f64
    );
}
