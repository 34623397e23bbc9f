//! `fig8_sweep`: (loop, cell) jobs of the paper's Figure-8 grid.
//!
//! The grid is the ten SPECfp95 corpora × {BSA, N&E} × {None, ByClusters,
//! Selective} × {2, 4 clusters} × {1, 2 buses} × {1, 2, 4-cycle bus latency}:
//! 72 cells × 192 loops.  One pass is a fixed systematic sample of it — every
//! [`STRIDE`]-th job in loop-major order, which visits every loop and every
//! cell, the 4-cluster unrolled cells included.  The sample does not depend on
//! the seed: a few large unrolled bodies dominate the grid's time, and a
//! seeded draw moves throughput by more than any bound worth setting.  The
//! seed fixes the order in which the jobs run.

use crate::runner::{fingerprint, Workload};
use crate::tally::Tally;
use crate::trace::Tracer;
use crate::SplitMix;
use cvliw_core::{ClusterSchedule, UnrollPolicy};
use vliw_arch::MachineConfig;
use vliw_bench::{schedule_loop, Algorithm};
use vliw_ddg::DepGraph;
use vliw_metrics::{CodeSizeModel, CodeSizeReport, LoopContribution};
use vliw_sms::ScheduleError;
use vliw_workloads::LoopCorpus;

/// Sampling stride over the loop-major grid; coprime to the 72 cells, so
/// consecutive loops land in different cells.
pub const STRIDE: usize = 7;

/// Probe budget of the trace-mode counting pass: large enough that no search
/// in the grid stops on it, so the counted schedules are the plain ones.
const COUNTING_PROBES: u64 = 1 << 60;

/// One cell of the grid.
#[derive(Debug, Clone, Copy)]
struct Cell {
    machine: usize,
    algorithm: Algorithm,
    policy: UnrollPolicy,
}

/// One (loop, cell) job.
#[derive(Debug, Clone, Copy)]
struct Job {
    corpus: usize,
    graph: usize,
    cell: usize,
}

/// The workload's inputs: corpora, machines, code-size models and the jobs.
pub struct Fig8 {
    corpora: Vec<LoopCorpus>,
    machines: Vec<MachineConfig>,
    models: Vec<CodeSizeModel>,
    cells: Vec<Cell>,
    jobs: Vec<Job>,
}

/// A job's output: the schedule with its paper accounting.
pub type Fig8Out = Result<(ClusterSchedule, LoopContribution, CodeSizeReport), ScheduleError>;

impl Fig8 {
    /// Build the inputs; `limit` caps the pass length (for tests).  Returns
    /// the inputs and the time spent generating corpora, milliseconds.
    pub fn setup(seed: u64, limit: Option<usize>) -> (Self, f64) {
        let start = std::time::Instant::now();
        let corpora = LoopCorpus::all();
        let generate_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut machines = Vec::new();
        let mut cells = Vec::new();
        for clusters in [2usize, 4] {
            for buses in [1usize, 2] {
                for latency in [1u32, 2, 4] {
                    let machine = machines.len();
                    machines.push(MachineConfig::clustered(clusters, buses, latency));
                    for algorithm in [Algorithm::Bsa, Algorithm::NystromEichenberger] {
                        for policy in UnrollPolicy::ALL {
                            cells.push(Cell {
                                machine,
                                algorithm,
                                policy,
                            });
                        }
                    }
                }
            }
        }
        let models = machines.iter().map(CodeSizeModel::new).collect();

        let mut jobs = Vec::new();
        let mut index = 0;
        for (corpus, c) in corpora.iter().enumerate() {
            for graph in 0..c.loops.len() {
                for cell in 0..cells.len() {
                    if index % STRIDE == 0 {
                        jobs.push(Job {
                            corpus,
                            graph,
                            cell,
                        });
                    }
                    index += 1;
                }
            }
        }
        SplitMix::new(seed).shuffle(&mut jobs);
        if let Some(limit) = limit {
            jobs.truncate(limit);
        }
        let fig8 = Self {
            corpora,
            machines,
            models,
            cells,
            jobs,
        };
        fig8.warm_up();
        (fig8, generate_ms)
    }

    /// Schedule the named kernels once in every cell: the same work for
    /// every seed.
    fn warm_up(&self) {
        for (_, graph) in vliw_workloads::named_kernels() {
            for cell in &self.cells {
                let machine = &self.machines[cell.machine];
                let out = schedule_loop(&graph, machine, cell.algorithm, cell.policy);
                std::hint::black_box(out.expect("named kernels schedule"));
            }
        }
    }

    fn graph(&self, job: &Job) -> &DepGraph {
        &self.corpora[job.corpus].loops[job.graph]
    }
}

impl Workload for Fig8 {
    type Input = usize;
    type Output = Fig8Out;

    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn input(&self, job: usize) -> usize {
        job
    }

    fn run(&self, job: usize, tr: &mut Tracer) -> Fig8Out {
        let job = &self.jobs[job];
        let cell = self.cells[job.cell];
        let graph = self.graph(job);
        let machine = &self.machines[cell.machine];
        let layer = match cell.algorithm {
            Algorithm::Bsa => "sched.bsa",
            _ => "sched.ne",
        };
        let cs = tr.span(layer, || {
            schedule_loop(graph, machine, cell.algorithm, cell.policy)
        })?;
        let model = &self.models[cell.machine];
        let (contribution, size) = tr.span("metrics.account", || {
            let contribution = LoopContribution::new(
                &cs.schedule,
                cs.scheduled_graph.iterations,
                cs.original_ops,
                cs.original_iterations,
                cs.invocations,
                cs.unroll_factor,
            )
            .with_epilogue_cycles(cs.epilogue_cycles_per_invocation());
            (contribution, cs.code_size(model))
        });
        Ok((cs, contribution, size))
    }

    fn check(&self, job: usize, out: &Fig8Out, tally: &mut Tally) -> Result<(), String> {
        let job = &self.jobs[job];
        let cell = self.cells[job.cell];
        let graph = self.graph(job);
        let machine = &self.machines[cell.machine];
        tally.jobs += 1;
        let (cs, contribution, size) = out.as_ref().map_err(|e| {
            format!(
                "{} failed on {} ({}, {}): {e}",
                graph.name,
                machine.name,
                cell.algorithm.label(),
                cell.policy
            )
        })?;
        let body = &cs.scheduled_graph;
        let report = vliw_sim::check_schedule(
            machine,
            body,
            &cs.schedule,
            vliw_sim::verification_iterations(body),
        );
        if !report.is_clean() {
            return Err(format!(
                "{}: replay findings {:?}",
                body.name, report.findings
            ));
        }
        if contribution.ii != cs.schedule.ii() || size.useful_ops == 0 {
            return Err(format!(
                "{}: accounting disagrees with the schedule",
                body.name
            ));
        }
        tally.ok += 1;
        tally.schedule(body.n_nodes(), &cs.diagnostics);
        tally.code_size(*size);
        tally.unrolled += u64::from(cs.unroll_factor > 1);
        Ok(())
    }

    fn fingerprint(&self, out: &Fig8Out) -> u64 {
        match out {
            Ok((cs, contribution, size)) => {
                fingerprint(&(&cs.schedule, cs.unroll_factor, contribution, size))
            }
            Err(e) => fingerprint(e),
        }
    }

    /// Probe counts come from fuel receipts, which only a budgeted search
    /// writes: re-run the BSA jobs through `schedule_loop`'s fuel hook.
    fn trace_counts(&self, tally: &mut Tally) {
        std::env::set_var("FUEL_BUDGET_PROBES", COUNTING_PROBES.to_string());
        for job in &self.jobs {
            let cell = self.cells[job.cell];
            if cell.algorithm != Algorithm::Bsa {
                continue;
            }
            let machine = &self.machines[cell.machine];
            if let Ok(cs) = schedule_loop(self.graph(job), machine, cell.algorithm, cell.policy) {
                tally.probes += cs.diagnostics.fuel.map_or(0, |f| f.probes);
            }
        }
        std::env::remove_var("FUEL_BUDGET_PROBES");
    }
}
