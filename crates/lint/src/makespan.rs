//! Closed-form makespan and `NCYCLES` derivation, recomputed from the placements.
//!
//! The dynamic verifier cross-checks three cycle models: the replayed makespan, the
//! closed-form [`static_makespan`] and the paper's IPC denominator
//! `NCYCLES = (NITER + SC − 1)·II` (`ModuloSchedule::cycles_for`).  The static
//! certifier cannot replay, but it can re-derive both closed forms from the raw
//! placements — including the stage count — and prove the same drift window
//! ([`ncycles_drift_ok`]) the dynamic `IpcModelDrift` oracle enforces: on a clean
//! replay the simulated makespan equals the closed form, so checking the window
//! against the *static* makespan is exactly the dynamic check, minus the execution.

use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_sms::ModuloSchedule;

/// The event span of one kernel iteration: earliest issue (or transfer start) and
/// latest completion (an operation completes `latency` cycles after issue, a
/// transfer occupies its bus until `start + duration`).  `None` for an empty loop.
fn event_span(
    graph: &DepGraph,
    sched: &ModuloSchedule,
    machine: &MachineConfig,
) -> Option<(i64, i64)> {
    let mut min_event = i64::MAX;
    let mut max_event = i64::MIN;
    for p in sched.placements() {
        let latency = machine.latency(graph.node(p.node).class) as i64;
        min_event = min_event.min(p.cycle);
        max_event = max_event.max(p.cycle + latency - 1);
    }
    for c in sched.comms() {
        min_event = min_event.min(c.start_cycle);
        max_event = max_event.max(c.start_cycle + c.duration as i64 - 1);
    }
    (min_event != i64::MAX).then_some((min_event, max_event))
}

/// Execution makespan of `iterations` iterations, in closed form: the event span
/// of one iteration plus `(iterations − 1)·II`.  Mirrors the simulator contract of
/// an empty loop (or zero iterations) reporting a 1-cycle run.
pub fn static_makespan(
    graph: &DepGraph,
    sched: &ModuloSchedule,
    machine: &MachineConfig,
    iterations: u64,
) -> u64 {
    let Some((min_event, max_event)) = event_span(graph, sched, machine) else {
        return 1;
    };
    if iterations == 0 {
        return 1;
    }
    let span = (max_event - min_event + 1) as u64;
    span + (iterations - 1) * sched.ii() as u64
}

/// Stage count re-derived from the raw placements (cycles spanned by issues and
/// bus occupancy, in units of `II`) — must equal `ModuloSchedule::stage_count`.
pub fn static_stage_count(sched: &ModuloSchedule) -> u32 {
    let ii = sched.ii() as i64;
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for p in sched.placements() {
        min = min.min(p.cycle);
        max = max.max(p.cycle);
    }
    for c in sched.comms() {
        min = min.min(c.start_cycle);
        max = max.max(c.start_cycle + c.duration as i64 - 1);
    }
    if min == i64::MAX || max < min {
        return 1;
    }
    let span_end = max - min.div_euclid(ii) * ii;
    (span_end.div_euclid(ii) + 1) as u32
}

/// The paper's `NCYCLES = (NITER + SC − 1)·II`, with `SC` re-derived statically.
pub fn static_ncycles(sched: &ModuloSchedule, iterations: u64) -> u64 {
    (iterations + static_stage_count(sched) as u64 - 1) * sched.ii() as u64
}

/// The provable window between `NCYCLES` and the makespan: `drift = NCYCLES −
/// makespan` must satisfy `−max_latency < drift < 2·II`.  Outside it the IPC
/// accounting would lie about the executed loop.
pub fn ncycles_drift_ok(drift: i128, ii: u32, max_latency: u32) -> bool {
    -(max_latency as i128) < drift && drift < 2 * ii as i128
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::OpClass;
    use vliw_sms::IiSearchDriver;

    fn saxpy() -> DepGraph {
        use vliw_ddg::GraphBuilder;
        GraphBuilder::new("saxpy")
            .iterations(64)
            .node("lx", OpClass::Load)
            .node("ly", OpClass::Load)
            .node("mul", OpClass::FpMul)
            .node("add", OpClass::FpAdd)
            .node("st", OpClass::Store)
            .flow("lx", "mul")
            .flow("mul", "add")
            .flow("ly", "add")
            .flow("add", "st")
            .build()
    }

    #[test]
    fn stage_count_matches_the_schedule_derivation() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = IiSearchDriver::new(&machine)
            .schedule_unified(&g)
            .unwrap()
            .schedule;
        assert_eq!(static_stage_count(&sched), sched.stage_count());
    }

    #[test]
    fn ncycles_matches_cycles_for() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = IiSearchDriver::new(&machine)
            .schedule_unified(&g)
            .unwrap()
            .schedule;
        for iters in [1u64, 4, 40, 64] {
            assert_eq!(static_ncycles(&sched, iters), sched.cycles_for(iters));
        }
    }

    #[test]
    fn empty_schedules_have_unit_makespan_and_one_stage() {
        let machine = MachineConfig::unified();
        let g = DepGraph::new("empty");
        let sched = ModuloSchedule::new("empty", 0, 3, 1);
        assert_eq!(static_makespan(&g, &sched, &machine, 10), 1);
        assert_eq!(static_stage_count(&sched), 1);
    }

    #[test]
    fn drift_window_bounds_are_strict() {
        assert!(ncycles_drift_ok(0, 4, 2));
        assert!(ncycles_drift_ok(7, 4, 2)); // < 2·II = 8
        assert!(!ncycles_drift_ok(8, 4, 2));
        assert!(ncycles_drift_ok(-1, 4, 2)); // > −max_latency = −2
        assert!(!ncycles_drift_ok(-2, 4, 2));
    }
}
