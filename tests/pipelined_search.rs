//! Pipelined II search determinism: an unmetered search that crosses the
//! pipelining gate runs its next initiation intervals on helper threads, and
//! its schedules and diagnostics must serialize byte-identically at every
//! rayon thread count.
//!
//! The vendored rayon shim reads `RAYON_NUM_THREADS` per call, and the search
//! asks it once per search, at the gate; this is the only test of this binary,
//! so no other test races it over the environment.

use cvliw_core::{Policy, Scheduler};
use vliw_arch::MachineConfig;
use vliw_sms::{FuelBudget, ScheduleError};

/// The Figure-7 loop and jacobi5 unrolled ×8.  On the 4-cluster, one-bus,
/// 4-cycle machine BSA schedules both well above MII, and the other policies
/// search up to `max_ii` on at least one of them.
fn bodies() -> Vec<vliw_ddg::DepGraph> {
    vliw_workloads::named_kernels()
        .into_iter()
        .filter(|(name, _)| matches!(*name, "figure7" | "jacobi5"))
        .map(|(_, g)| vliw_ddg::unroll(&g, 8))
        .collect()
}

#[test]
fn unmetered_schedules_are_byte_identical_across_thread_counts() {
    let machine = MachineConfig::four_cluster(1, 4);
    let bodies = bodies();

    // Every policy must have loops that run past the gate (4096 probes of
    // failed steps) with steps left to pipeline, or the sweep below would only
    // compare the sequential search with itself.  A search that exhausts a
    // budget half again as large has done so.
    for policy in Policy::ALL {
        let heavy = bodies
            .iter()
            .filter(|g| {
                let out = Scheduler::new(policy, &machine)
                    .with_fuel(FuelBudget::probes(6144))
                    .schedule_diag(g);
                matches!(out, Err(ScheduleError::BudgetExhausted { .. }))
            })
            .count();
        assert!(heavy > 0, "no {} loop crosses the gate", policy.label());
    }

    let mut renders: Vec<String> = Vec::new();
    for threads in ["1", "2", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let mut render = String::new();
        for policy in Policy::ALL {
            for g in &bodies {
                match Scheduler::new(policy, &machine).schedule_diag(g) {
                    Ok(out) => render.push_str(&serde_json::to_string(&out).unwrap()),
                    Err(e) => render.push_str(&format!("error={e}")),
                }
                render.push('\n');
            }
        }
        renders.push(render);
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    for (i, render) in renders.iter().enumerate().skip(1) {
        assert_eq!(
            render, &renders[0],
            "unmetered scheduling diverged between thread-count runs 0 and {i}"
        );
    }
}
