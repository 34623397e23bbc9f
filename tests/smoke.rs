//! Workspace-level smoke test: the paper's worked example must schedule on the
//! 4-cluster Table 1 machine under both the BSA cluster scheduler and the unified
//! SMS scheduler, with an initiation interval no smaller than the analytic lower
//! bound `mii`.

use clustered_vliw::prelude::*;
use vliw_ddg::mii;

#[test]
fn paper_example_schedules_on_the_table1_machine_with_bsa() {
    let machine = MachineConfig::clustered(4, 1, 1);
    let graph = paper_example_loop();

    let schedule = Scheduler::new(Policy::Bsa, &machine)
        .schedule(&graph)
        .expect("paper example must be schedulable with BSA");
    assert!(
        schedule.ii() >= mii(&graph, &machine),
        "BSA II {} below MII {}",
        schedule.ii(),
        mii(&graph, &machine)
    );
}

#[test]
fn paper_example_schedules_on_the_table1_machine_with_sms() {
    let machine = MachineConfig::clustered(4, 1, 1);
    let graph = paper_example_loop();

    // The unified SMS scheduler is the IPC reference; run it on the unified
    // counterpart of the same machine (same total resources, no clustering).
    let unified = machine.unified_counterpart();
    let schedule = Scheduler::new(Policy::UnifiedSms, &unified)
        .schedule(&graph)
        .expect("paper example must be schedulable with SMS");
    assert!(
        schedule.ii() >= mii(&graph, &unified),
        "SMS II {} below MII {}",
        schedule.ii(),
        mii(&graph, &unified)
    );

    // The clustered machine can never have a *smaller* MII than its unified
    // counterpart: clustering only adds bus constraints.
    assert!(mii(&graph, &machine) >= mii(&graph, &unified));
}

#[test]
fn bsa_schedule_of_the_paper_example_passes_the_validator_and_simulator() {
    let machine = MachineConfig::clustered(4, 1, 1);
    let graph = paper_example_loop();
    let schedule = Scheduler::new(Policy::Bsa, &machine)
        .schedule(&graph)
        .unwrap();

    let lint = clustered_vliw::lint::Certifier::new(&machine).check(&graph, &schedule, 16);
    assert!(lint.is_certified(), "violations: {:?}", lint.diagnostics);

    let report = KernelSimulator::new(&machine).run(&graph, &schedule, 16);
    assert!(report.is_clean(), "simulator errors: {:?}", report.errors);
}
