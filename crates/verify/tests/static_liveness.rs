//! Property test of the static analysis layer against the scheduling engine: the
//! lint crate's modulo-liveness analysis recomputes the per-cluster `MaxLive`
//! register-pressure numbers **independently** of `vliw_sms::PressureTracker` (its
//! own interval derivation, its own pressure fold over the kernel rows), and it
//! must agree exactly with the tracker's from-scratch fold
//! (`vliw_sms::cluster_max_live`) on every schedule any policy produces — across random
//! machines, random loops and all five scheduling policies of the repository.
//!
//! This is the agreement that lets the certifier's `register-pressure` deny lint
//! check the scheduler's register constraint independently: same numbers,
//! derived two different ways.

use vliw_lint::ModuloLiveness;
use vliw_sms::cluster_max_live;
use vliw_verify::{generate_case, Policy};

#[test]
fn static_max_live_matches_lifetime_map_across_policies_and_cases() {
    let space = vliw_arch::MachineSpace::default();
    let mut schedules_checked = 0usize;
    for index in 0..32u64 {
        let case = generate_case(0x11FE, index, &space);
        for policy in Policy::ALL {
            let Ok(out) = policy.schedule(&case.machine, &case.graph) else {
                continue; // unschedulable on a harsh random machine: nothing to compare
            };
            let target = policy.target_machine(&case.machine);
            let liveness = ModuloLiveness::new(&case.graph, &out.schedule, &target);
            let reference = cluster_max_live(&case.graph, &out.schedule, &target);
            assert_eq!(
                liveness.max_live(),
                reference,
                "case {index} ({}) policy {} on {}: static MaxLive diverged from the tracker's fold",
                case.graph.name,
                policy.label(),
                target
            );
            schedules_checked += 1;
        }
    }
    assert!(
        schedules_checked >= 100,
        "only {schedules_checked} schedules compared — the space got too harsh"
    );
}

#[test]
fn static_max_live_matches_on_the_paper_machines() {
    // The Table-1 space: the machines the figures actually run on.
    let space = vliw_arch::MachineSpace::table1();
    for index in 0..12u64 {
        let case = generate_case(0xA11, index, &space);
        for policy in Policy::ALL {
            let Ok(out) = policy.schedule(&case.machine, &case.graph) else {
                continue;
            };
            let target = policy.target_machine(&case.machine);
            assert_eq!(
                ModuloLiveness::new(&case.graph, &out.schedule, &target).max_live(),
                cluster_max_live(&case.graph, &out.schedule, &target),
                "case {index} policy {}",
                policy.label()
            );
        }
    }
}
