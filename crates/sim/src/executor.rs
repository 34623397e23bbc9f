//! Cycle-level replay of a software-pipelined loop.
//!
//! The simulator executes the loop exactly as the VLIW hardware of Section 3 would:
//! the flat schedule of iteration `i` issues at offset `i · II`, every functional unit
//! issues at most one operation per cycle, every bus carries at most one transfer at a
//! time, and a value can only be consumed after it has been produced (and, for
//! cross-cluster consumers, after its bus transfer has completed).  The simulator is
//! deliberately independent from the scheduler code paths — it re-derives every event
//! from the placements — so it serves as an executable cross-check of both the
//! schedulers and the analytic cycle/IPC model.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_sms::ModuloSchedule;

/// Outcome of simulating a scheduled loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Number of loop iterations simulated.
    pub iterations: u64,
    /// Total cycles from the issue of the first operation to the completion of the
    /// last (inclusive), i.e. the makespan of the simulated execution.
    pub cycles: u64,
    /// The analytic cycle count `(NITER + SC − 1) · II` for the same iteration count.
    pub analytic_cycles: u64,
    /// Useful operations issued.
    pub ops_issued: u64,
    /// Bus transfers performed.
    pub bus_transfers: u64,
    /// Fraction of functional-unit issue slots used during the simulated execution.
    pub fu_utilization: f64,
    /// Ordering/overlap errors found while executing (empty = clean run).
    pub errors: Vec<String>,
}

impl SimulationReport {
    /// Whether the run completed without any error.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Measured IPC of the simulated execution.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ops_issued as f64 / self.cycles as f64
    }
}

/// Cycle-level simulator of modulo-scheduled loops.
#[derive(Debug, Clone)]
pub struct KernelSimulator {
    machine: MachineConfig,
}

impl KernelSimulator {
    /// A simulator for `machine`.
    pub fn new(machine: &MachineConfig) -> Self {
        Self {
            machine: machine.clone(),
        }
    }

    /// Execute `iterations` iterations of the scheduled loop.
    ///
    /// The schedule must be complete; incomplete schedules produce a report whose
    /// `errors` explain the problem.
    pub fn run(
        &self,
        graph: &DepGraph,
        sched: &ModuloSchedule,
        iterations: u64,
    ) -> SimulationReport {
        let ii = sched.ii() as i64;
        let mut errors: Vec<String> = Vec::new();

        if !sched.is_complete() {
            errors.push("schedule is incomplete".to_string());
        }
        if iterations == 0 {
            errors.push("nothing to simulate: zero iterations".to_string());
        }
        if !errors.is_empty() {
            return SimulationReport {
                iterations,
                cycles: 0,
                analytic_cycles: sched.cycles_for(iterations),
                ops_issued: 0,
                bus_transfers: 0,
                fu_utilization: 0.0,
                errors,
            };
        }

        // Normalised base so iteration 0 starts at cycle 0.
        let min_cycle = sched
            .placements()
            .map(|p| p.cycle)
            .chain(sched.comms().iter().map(|c| c.start_cycle))
            .min()
            .unwrap_or(0);

        // Issue cycle of every (node, iteration) instance; per-edge value-ready times
        // are derived from these using the edge latencies (the dependence graph is the
        // source of truth the schedulers worked against).
        let mut issued: HashMap<(u32, u64), i64> = HashMap::new();

        // Resource usage audit: (fu, absolute cycle) and (bus, absolute cycle).
        let mut fu_busy: HashMap<(usize, i64), u32> = HashMap::new();
        let mut bus_busy: HashMap<(usize, i64), u32> = HashMap::new();

        let mut ops_issued: u64 = 0;
        let mut bus_transfers: u64 = 0;
        let mut last_event: i64 = 0;

        for iter in 0..iterations {
            let offset = iter as i64 * ii - min_cycle;
            for p in sched.placements() {
                let issue = p.cycle + offset;
                let node = graph.node(p.node);
                let latency = self.machine.latency(node.class) as i64;
                issued.insert((p.node.0, iter), issue);
                ops_issued += 1;
                last_event = last_event.max(issue + latency - 1).max(issue);
                let slot = fu_busy.entry((p.fu.0, issue)).or_insert(0);
                *slot += 1;
                if *slot > 1 {
                    errors.push(format!(
                        "functional unit {:?} issues two operations at cycle {issue}",
                        p.fu
                    ));
                }
            }
            for c in sched.comms() {
                let start = c.start_cycle + offset;
                bus_transfers += 1;
                for d in 0..c.duration as i64 {
                    let slot = bus_busy.entry((c.bus.0, start + d)).or_insert(0);
                    *slot += 1;
                    if *slot > 1 {
                        errors.push(format!(
                            "bus {:?} carries two transfers at cycle {}",
                            c.bus,
                            start + d
                        ));
                    }
                }
                // The transfer replayed in this iteration drives the bus at `start`;
                // which producer iteration it carries is checked edge-by-edge below
                // (loop-carried values are sent from a previous iteration's producer).
                last_event = last_event.max(start + c.duration as i64 - 1);
            }
        }

        // Consumption checks: every operand must be produced (and transported) before
        // its consumer issues.
        for iter in 0..iterations {
            let offset = iter as i64 * ii - min_cycle;
            for e in graph.edges().filter(|e| e.kind.carries_value()) {
                if e.src == e.dst && e.distance == 0 {
                    continue;
                }
                if e.distance as u64 > iter {
                    continue; // the producing iteration precedes the simulated window
                }
                let producer_iter = iter - e.distance as u64;
                // `is_complete()` was checked above, but a schedule built for a
                // *different* (smaller) graph can still pass it; degrade to a
                // reported error instead of panicking inside a replay job.
                let (Some(consumer), Some(producer)) =
                    (sched.placement(e.dst), sched.placement(e.src))
                else {
                    let msg = format!(
                        "edge {} -> {} references a node the schedule never placed \
                         (schedule/graph mismatch)",
                        graph.node(e.src).label(),
                        graph.node(e.dst).label()
                    );
                    if !errors.contains(&msg) {
                        errors.push(msg);
                    }
                    continue;
                };
                let consume_at = consumer.cycle + offset;
                let ready = issued
                    .get(&(e.src.0, producer_iter))
                    .map(|issue| issue + e.latency as i64);
                let available = if producer.cluster == consumer.cluster {
                    ready
                } else {
                    // Transfers repeat every II cycles: the value produced by
                    // `producer_iter` reaches the consumer's cluster with the earliest
                    // transfer instance that starts at or after its production.
                    ready.and_then(|ready| {
                        sched
                            .comms()
                            .iter()
                            .filter(|c| c.src_node == e.src && c.to_cluster == consumer.cluster)
                            .map(|c| {
                                let base = c.start_cycle - min_cycle;
                                let k = (ready - base + ii - 1).div_euclid(ii);
                                base + k.max(0) * ii + c.duration as i64
                            })
                            .min()
                    })
                };
                match available {
                    None => errors.push(format!(
                        "value of {} never reaches cluster {} for consumer {} (iteration {iter})",
                        graph.node(e.src).label(),
                        consumer.cluster,
                        graph.node(e.dst).label()
                    )),
                    Some(t) if t > consume_at => errors.push(format!(
                        "consumer {} (iteration {iter}) issues at {consume_at} but its operand from {} is only available at {t}",
                        graph.node(e.dst).label(),
                        graph.node(e.src).label()
                    )),
                    Some(_) => {}
                }
            }
        }

        let cycles = (last_event + 1).max(0) as u64;
        let issue_slots = cycles * self.machine.total_issue_width() as u64;
        SimulationReport {
            iterations,
            cycles,
            analytic_cycles: sched.cycles_for(iterations),
            ops_issued,
            bus_transfers,
            fu_utilization: if issue_slots == 0 {
                0.0
            } else {
                ops_issued as f64 / issue_slots as f64
            },
            errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::OpClass;
    use vliw_ddg::GraphBuilder;
    use vliw_sms::IiSearchDriver;

    /// The unified-machine SMS reference schedule of `g`.
    fn sms(machine: &MachineConfig, g: &DepGraph) -> ModuloSchedule {
        IiSearchDriver::new(machine)
            .schedule_unified(g)
            .unwrap()
            .schedule
    }

    fn saxpy() -> DepGraph {
        GraphBuilder::new("saxpy")
            .iterations(64)
            .node("addr", OpClass::IntAlu)
            .node("lx", OpClass::Load)
            .node("ly", OpClass::Load)
            .node("mul", OpClass::FpMul)
            .node("add", OpClass::FpAdd)
            .node("st", OpClass::Store)
            .flow_at("addr", "addr", 1)
            .flow("addr", "lx")
            .flow("addr", "ly")
            .flow("addr", "st")
            .flow("lx", "mul")
            .flow("mul", "add")
            .flow("ly", "add")
            .flow("add", "st")
            .build()
    }

    #[test]
    fn unified_schedule_replays_cleanly() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g);
        let report = KernelSimulator::new(&machine).run(&g, &sched, 64);
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.ops_issued, 64 * g.n_nodes() as u64);
        assert!(report.ipc() > 0.0);
        assert!(report.fu_utilization > 0.0 && report.fu_utilization <= 1.0);
    }

    #[test]
    fn measured_cycles_track_the_analytic_formula() {
        // The analytic NCYCLES counts from the first kernel slot to the end of the last
        // stage; the simulated makespan measures issue-to-completion.  They agree up to
        // the completion latency of the last operations (< II + max latency).
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g);
        let report = KernelSimulator::new(&machine).run(&g, &sched, 64);
        let slack = (report.analytic_cycles as i64 - report.cycles as i64).abs();
        assert!(
            slack <= (sched.ii() + machine.latencies.max_latency()) as i64,
            "analytic {} vs simulated {}",
            report.analytic_cycles,
            report.cycles
        );
    }

    #[test]
    fn incomplete_schedule_reports_an_error() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = vliw_sms::ModuloSchedule::new("saxpy", g.n_nodes(), 2, 1);
        let report = KernelSimulator::new(&machine).run(&g, &sched, 10);
        assert!(!report.is_clean());
    }

    #[test]
    fn zero_iterations_is_rejected() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g);
        let report = KernelSimulator::new(&machine).run(&g, &sched, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn more_iterations_amortise_the_pipeline_fill() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g);
        let short = KernelSimulator::new(&machine).run(&g, &sched, 4);
        let long = KernelSimulator::new(&machine).run(&g, &sched, 256);
        assert!(long.ipc() > short.ipc());
    }
}
