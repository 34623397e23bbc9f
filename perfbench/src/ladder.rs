//! `ladder_stream`: seeded fuzz (machine, loop) cases through the
//! degradation ladder under a tight per-rung fuel budget, each schedule
//! replayed by `vliw_sim::check_schedule` inside the timed call.
//!
//! Small bodies on random machines, so per-loop fixed costs dominate:
//! construction, allocation, certification and replay.  A tenth of the cases
//! leave the first rung, and a few end in a typed `invalid machine` error;
//! those count against `ok_frac` and are not filtered out.

use crate::runner::{fingerprint, Workload};
use crate::tally::Tally;
use crate::trace::Tracer;
use cvliw_core::{LadderFailure, ResilientOutcome, ResilientScheduler};
use vliw_arch::MachineSpace;
use vliw_metrics::CodeSizeModel;
use vliw_sim::DifferentialReport;
use vliw_sms::{FuelBudget, ScheduleError};
use vliw_verify::{generate_case, FuzzCase};

/// Cases in one pass.
pub const CASES: usize = 20_000;

/// Probes each searching rung may spend.
pub const RUNG_PROBES: u64 = 2_000;

/// Campaign seed of the warm-up cases, the same for every run.
const WARM_UP_SEED: u64 = 0x005E_ED0F_1ADD;

/// Warm-up cases scheduled during set-up.
const WARM_UP_CASES: u64 = 64;

/// The workload's inputs.
pub struct Ladder {
    cases: Vec<FuzzCase>,
}

/// A case's output: the ladder's answer and, for a schedule, its replay.
pub type LadderOut = (
    Result<ResilientOutcome, LadderFailure>,
    Option<DifferentialReport>,
);

fn ladder(case: &FuzzCase) -> Result<ResilientOutcome, LadderFailure> {
    ResilientScheduler::new(&case.machine)
        .with_rung_fuel(FuelBudget::probes(RUNG_PROBES))
        .schedule(&case.graph)
}

fn replay(case: &FuzzCase, out: &ResilientOutcome) -> DifferentialReport {
    vliw_sim::check_schedule(
        &case.machine,
        &case.graph,
        &out.result.schedule,
        vliw_sim::verification_iterations(&case.graph),
    )
}

impl Ladder {
    /// Generate `cases` cases from `seed`.  Returns the inputs and the time
    /// spent generating them, milliseconds.
    pub fn setup(seed: u64, cases: usize) -> (Self, f64) {
        let space = MachineSpace::default();
        let start = std::time::Instant::now();
        let cases = (0..cases as u64)
            .map(|i| generate_case(seed, i, &space))
            .collect();
        let generate_ms = start.elapsed().as_secs_f64() * 1e3;
        for i in 0..WARM_UP_CASES {
            let case = generate_case(WARM_UP_SEED, i, &space);
            if let Ok(out) = ladder(&case) {
                std::hint::black_box(replay(&case, &out));
            }
        }
        (Self { cases }, generate_ms)
    }
}

impl Workload for Ladder {
    type Input = usize;
    type Output = LadderOut;

    fn jobs(&self) -> usize {
        self.cases.len()
    }

    fn input(&self, job: usize) -> usize {
        job
    }

    fn run(&self, job: usize, tr: &mut Tracer) -> LadderOut {
        let case = &self.cases[job];
        let outcome = tr.span("sched.ladder", || ladder(case));
        let report = match &outcome {
            Ok(out) => Some(tr.span("sim.replay", || replay(case, out))),
            Err(_) => None,
        };
        (outcome, report)
    }

    fn check(&self, job: usize, out: &LadderOut, tally: &mut Tally) -> Result<(), String> {
        let case = &self.cases[job];
        tally.jobs += 1;
        match out {
            (Ok(outcome), Some(report)) => {
                tally.descents += u64::from(!outcome.failures.is_empty());
                *tally.rungs.entry(outcome.rung().to_string()).or_default() += 1;
                if let Some(f) = outcome
                    .failures
                    .iter()
                    .find(|f| f.error.is_contained_panic())
                {
                    return Err(format!("{}: rung {} panicked", case.graph.name, f.rung));
                }
                if !report.is_clean() {
                    return Err(format!(
                        "{}: replay findings {:?}",
                        case.graph.name, report.findings
                    ));
                }
                let sched = &outcome.result;
                tally.ok += 1;
                tally.schedule(case.graph.n_nodes(), &sched.diagnostics);
                tally.code_size(
                    CodeSizeModel::new(&case.machine)
                        .loop_size(&sched.schedule, case.graph.n_nodes()),
                );
                Ok(())
            }
            (Err(failure), None) => {
                tally.descents += 1;
                tally.typed_failures += 1;
                // A typed input error is the ladder's correct answer for a
                // machine that cannot hold the loop; anything else is a fault.
                match failure.error {
                    ScheduleError::InvalidMachine(_) | ScheduleError::InvalidGraph(_)
                        if !failure
                            .failures
                            .iter()
                            .any(|f| f.error.is_contained_panic()) =>
                    {
                        Ok(())
                    }
                    _ => Err(format!("{}: ladder failed: {failure}", case.graph.name)),
                }
            }
            _ => Err(format!("{}: replay missing or unexpected", case.graph.name)),
        }
    }

    fn fingerprint(&self, out: &LadderOut) -> u64 {
        match &out.0 {
            Ok(outcome) => fingerprint(&(&outcome.result, &outcome.failures, &out.1)),
            Err(failure) => fingerprint(failure),
        }
    }
}
