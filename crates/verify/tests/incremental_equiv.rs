//! Property test of the engine's incremental II search: for every policy, on random
//! machines and random loops, the schedules the incremental register-pressure
//! tracker admits must pass the independent static analyses of `vliw_lint` — the
//! [`vliw_lint::Certifier`] accepts them and [`vliw_lint::ModuloLiveness`]
//! re-derives exactly the `MaxLive` the engine reports — and a fuel budget may only
//! add a receipt to a search it lets finish, never change it.
//!
//! The sampled machine space includes harsh configurations (tiny register files,
//! saturated buses), so the cases exercise deep II retry chains, ordering fallbacks
//! and register-limited failures, not just first-try successes.  In debug builds the
//! engine additionally cross-checks the tracker against its from-scratch fold
//! (`PressureTracker::of_schedule`) on every probe, so a divergence would pinpoint
//! the exact placement.

use cvliw_core::Scheduler;
use vliw_arch::MachineSpace;
use vliw_lint::{Certifier, ModuloLiveness};
use vliw_sim::verification_iterations;
use vliw_sms::{FuelBudget, ScheduleError};
use vliw_verify::{generate_case, Policy};

#[test]
fn incremental_search_is_byte_identical_across_policies() {
    let space = MachineSpace::default();
    let mut scheduled = 0usize;
    let mut retried = 0usize;
    for index in 0..24 {
        let case = generate_case(0xE9_01, index, &space);
        for policy in Policy::ALL {
            let label = policy.label();
            let Ok(out) = policy.schedule(&case.machine, &case.graph) else {
                continue;
            };
            let target = policy.target_machine(&case.machine);
            let report = Certifier::new(&target).check(
                &case.graph,
                &out.schedule,
                verification_iterations(&case.graph),
            );
            assert!(
                report.is_certified(),
                "case {index}, policy {label}: schedule not certified: {:?}",
                report.deny_ids()
            );
            assert_eq!(
                ModuloLiveness::new(&case.graph, &out.schedule, &target).max_live(),
                out.diagnostics.max_live_per_cluster,
                "case {index}, policy {label}: static MaxLive diverged from the diagnostics"
            );
            scheduled += 1;
            if !out.diagnostics.ii_trajectory.is_empty() {
                retried += 1;
            }
        }
    }
    // The property is vacuous unless the cases actually schedule and actually retry
    // (II retries are where stale reuse would show up).
    assert!(scheduled >= 40, "only {scheduled} schedules produced");
    assert!(retried >= 8, "only {retried} searches took an II retry");
}

#[test]
fn incremental_search_preserves_fuel_receipts() {
    let space = MachineSpace::default();
    let mut exhausted = 0usize;
    let mut receipts = 0usize;
    for index in 0..24 {
        let case = generate_case(0xF0E1, index, &space);
        let unbudgeted = Scheduler::new(Policy::Bsa, &case.machine).schedule_diag(&case.graph);
        // A tight budget so some searches exhaust mid-II (the receipt then records
        // the partial spend) and the rest finish with a full receipt.
        for probes in [400u64, 1 << 40] {
            let budgeted = Scheduler::new(Policy::Bsa, &case.machine)
                .with_fuel(FuelBudget::probes(probes))
                .schedule_diag(&case.graph);
            match budgeted {
                Ok(mut out) => {
                    assert!(
                        out.diagnostics.fuel.take().is_some(),
                        "budgeted run lost its receipt"
                    );
                    assert_eq!(
                        Ok(out),
                        unbudgeted,
                        "budget changed a finished search: case {index}, budget {probes}"
                    );
                    receipts += 1;
                }
                Err(ScheduleError::BudgetExhausted { .. }) => exhausted += 1,
                Err(_) => {}
            }
        }
    }
    assert!(
        receipts >= 12,
        "only {receipts} budgeted schedules succeeded"
    );
    assert!(
        exhausted >= 4,
        "only {exhausted} searches exhausted the budget"
    );
}
