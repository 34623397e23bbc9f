//! # vliw-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `DESIGN.md` for the index):
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — machine configurations and operation latencies |
//! | `fig4`   | Figure 4 — relative IPC vs. number of buses, BSA vs. the two-phase baseline |
//! | `fig8`   | Figure 8 — per-benchmark IPC for the three unrolling policies |
//! | `table2` | Table 2 — cycle times from the Palacharla model |
//! | `fig9`   | Figure 9 — cycle-time-aware speed-up over the unified machine |
//! | `fig10`  | Figure 10 — code-size impact of unrolling |
//! | `fig_unroll` | beyond the paper: IPC and code size across unroll factors `U ∈ 1..=8` |
//! | `fig_optgap` | beyond the paper: certified optimality gaps of every policy on the Table-1 machines |
//!
//! The repo's only timing harness, with interleaved repeats and per-layer
//! scheduler timings, is the separate `perfbench/` package.
//!
//! The library is layered:
//!
//! * [`run_corpus`] schedules one whole [`LoopCorpus`] on one machine with one
//!   algorithm and unrolling policy, in parallel over loops, and aggregates IPC,
//!   code size and the engine's [`ScheduleDiagnostics`] into a [`CorpusResult`];
//! * [`sweep`] is the declarative runner on top: declare the cells of a
//!   `machines × algorithms × policies` cross-product once, and [`sweep::Sweep::run`]
//!   executes every `(cell, corpus)` job rayon-parallel with unified-machine
//!   baselines memoized per (corpus, machine, policy) — the figure binaries all
//!   drive it through [`figures`];
//! * [`figures`] holds the figure pipelines themselves (`fig4`, `fig8`, `fig9`,
//!   `fig10`) as plain functions from corpora to the serialisable rows the binaries
//!   print and write, which is also what the golden-output regression test calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod lint_audit;
pub mod optgap;
pub mod sweep;

use cvliw_core::{ClusterSchedule, Policy, Scheduler, SelectiveUnroller, UnrollPolicy};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_metrics::{CodeSizeModel, CodeSizeReport, IpcView, LoopContribution};
use vliw_sms::{LimitingResource, ScheduleDiagnostics, ScheduleError};
use vliw_workloads::LoopCorpus;

pub use sweep::{Baseline, CellId, CellOutcome, Sweep, SweepJob, SweepResults};

/// Which scheduling algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// The unified-machine Swing Modulo Scheduler (reference).
    UnifiedSms,
    /// The paper's single-pass cluster scheduler (Figure 5).
    Bsa,
    /// The two-phase Nystrom & Eichenberger-style baseline.
    NystromEichenberger,
}

impl Algorithm {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::UnifiedSms => "unified",
            Algorithm::Bsa => "BSA",
            Algorithm::NystromEichenberger => "N&E",
        }
    }
}

/// Schedule one loop with the given algorithm and policy.
///
/// Measurement hook: when `FUEL_BUDGET_PROBES` is set in the environment the BSA
/// path runs under a [`vliw_sms::FuelBudget`] of that many probes, so its
/// diagnostics carry the fuel receipt.  The benchmark's traced `fig8_sweep` sets
/// it to count BSA probes; the experiment binaries never set it, so committed
/// artifacts are produced by the unbudgeted search.
pub fn schedule_loop(
    graph: &DepGraph,
    machine: &MachineConfig,
    algorithm: Algorithm,
    policy: UnrollPolicy,
) -> Result<ClusterSchedule, ScheduleError> {
    let mut scheduler = match algorithm {
        Algorithm::UnifiedSms => Scheduler::new(Policy::UnifiedSms, machine),
        Algorithm::Bsa => Scheduler::new(Policy::Bsa, machine),
        Algorithm::NystromEichenberger => Scheduler::new(Policy::NystromEichenberger, machine),
    };
    if algorithm == Algorithm::Bsa {
        if let Some(probes) = std::env::var("FUEL_BUDGET_PROBES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            scheduler = scheduler.with_fuel(vliw_sms::FuelBudget::probes(probes));
        }
    }
    SelectiveUnroller::new(scheduler).schedule_with_policy(graph, policy)
}

/// Aggregated engine diagnostics over every loop of a corpus run: how many loops each
/// resource limited, communication totals and search effort.  Serialized into every
/// [`CorpusResult`], so any result JSON carries the per-resource breakdown.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorpusDiagnostics {
    /// Loops that scheduled at their minimum II.
    pub at_mii: usize,
    /// Loops bounded by a dependence recurrence.
    pub recurrence_limited: usize,
    /// Loops bounded by functional-unit counts (at MII or above).
    pub fu_limited: usize,
    /// Loops whose II was pushed above MII by bus saturation (the selective
    /// unroller's candidates).
    pub bus_limited: usize,
    /// Loops whose II was pushed above MII by register pressure.
    pub register_limited: usize,
    /// Inter-cluster value transfers across all scheduled loops.
    pub total_comms: u64,
    /// Scheduling attempts (orderings tried) summed over all loops — the II-search
    /// effort behind the corpus.
    pub total_attempts: u64,
    /// The largest per-cluster `MaxLive` seen in any schedule.
    pub max_register_pressure: u32,
}

impl CorpusDiagnostics {
    /// Fold one loop's engine diagnostics into the aggregate.
    pub fn absorb(&mut self, d: &ScheduleDiagnostics) {
        if d.ii == d.mii {
            self.at_mii += 1;
        }
        match d.limiting {
            LimitingResource::Recurrence => self.recurrence_limited += 1,
            LimitingResource::FunctionalUnits => self.fu_limited += 1,
            LimitingResource::Bus => self.bus_limited += 1,
            LimitingResource::Registers => self.register_limited += 1,
        }
        self.total_comms += d.n_comms as u64;
        self.total_attempts += d.attempts() as u64;
        self.max_register_pressure = self
            .max_register_pressure
            .max(d.max_live_per_cluster.iter().copied().max().unwrap_or(0));
    }
}

/// The aggregate result of scheduling a whole corpus on one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Machine name.
    pub machine: String,
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// Unrolling policy used.
    pub policy: String,
    /// Aggregate IPC.
    pub ipc: f64,
    /// Number of loops that were unrolled.
    pub unrolled_loops: usize,
    /// Number of loops that could not be scheduled (counted, not silently dropped).
    pub failed_loops: usize,
    /// Static code size (useful ops and total slots) summed over all loops.
    pub code_size: CodeSizeReport,
    /// Per-loop IPC contributions (kept for drill-down output).
    pub contributions: Vec<LoopContribution>,
    /// Aggregated engine diagnostics (limiting resources, comms, search effort).
    pub diagnostics: CorpusDiagnostics,
}

impl CorpusResult {
    /// A borrowed IPC view over the stored contributions, for the aggregate
    /// queries without cloning a single contribution.
    pub fn ipc_view(&self) -> IpcView<'_> {
        IpcView::new(&self.contributions)
    }
}

/// Schedule every loop of `corpus` on `machine` with `algorithm` and `policy`,
/// in parallel, and aggregate IPC and code size.
///
/// The expensive per-loop post-processing (the IPC contribution and the code-size
/// model, which expands the pipelined program) happens *inside* the parallel map —
/// each job returns its `(contribution, code size, unrolled?, diagnostics)` tuple and
/// the serial tail merely folds those small values together.
pub fn run_corpus(
    corpus: &LoopCorpus,
    machine: &MachineConfig,
    algorithm: Algorithm,
    policy: UnrollPolicy,
) -> CorpusResult {
    let code_model = CodeSizeModel::new(machine);
    type PerLoop = (LoopContribution, CodeSizeReport, bool, ScheduleDiagnostics);
    let per_loop: Vec<Option<PerLoop>> = corpus
        .loops
        .par_iter()
        .map(|graph| {
            // The per-loop job boundary: a panic anywhere in the scheduling stack is
            // contained into `ScheduleError::PolicyPanic` instead of unwinding
            // through the rayon pool and killing the entire sweep; the loop is then
            // counted in `failed_loops` (visible in the result JSON).  The `lint`
            // bin is where every schedule behind the figures is audited.
            let cs =
                vliw_sms::contain_schedule(|| schedule_loop(graph, machine, algorithm, policy))
                    .ok()?;
            let contribution = LoopContribution::new(
                &cs.schedule,
                cs.scheduled_graph.iterations,
                cs.original_ops,
                cs.original_iterations,
                cs.invocations,
                cs.unroll_factor,
            )
            .with_epilogue_cycles(cs.epilogue_cycles_per_invocation());
            let size = cs.code_size(&code_model);
            Some((contribution, size, cs.unroll_factor > 1, cs.diagnostics))
        })
        .collect();

    let mut contributions = Vec::with_capacity(per_loop.len());
    let mut code = CodeSizeReport::zero();
    let mut diagnostics = CorpusDiagnostics::default();
    let mut unrolled_loops = 0usize;
    let mut failed_loops = 0usize;
    for entry in per_loop {
        match entry {
            None => failed_loops += 1,
            Some((contribution, size, unrolled, diag)) => {
                if unrolled {
                    unrolled_loops += 1;
                }
                contributions.push(contribution);
                code.accumulate(size);
                diagnostics.absorb(&diag);
            }
        }
    }
    CorpusResult {
        benchmark: corpus.benchmark.name().to_string(),
        machine: machine.name.clone(),
        algorithm,
        policy: policy.label(),
        ipc: IpcView::new(&contributions).ipc(),
        unrolled_loops,
        failed_loops,
        code_size: code,
        contributions,
        diagnostics,
    }
}

/// Average of a slice of f64 values (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Write a serialisable experiment result as pretty JSON under `results/<name>.json`
/// (creating the directory), returning the path.  Experiment binaries call this so
/// every figure has a machine-readable artifact next to the printed table.  One
/// report-writing policy for the whole workspace: this delegates to
/// [`vliw_lint::reportio`], which the `verify` and `lint` gate bins also use.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<std::path::PathBuf> {
    vliw_lint::reportio::write_results_json(name, value)
}

/// Whether an environment flag's value turns it on: unset or `0` means off, any
/// other value means on.
fn flag_on(value: Option<&str>) -> bool {
    value.is_some_and(|v| v != "0")
}

/// Whether the experiment binaries run on shrunk corpora, from the
/// `FAST_EXPERIMENTS` environment variable (set it to anything but `0`).
fn fast_from_env() -> bool {
    flag_on(std::env::var("FAST_EXPERIMENTS").ok().as_deref())
}

/// The standard corpus used by all experiment binaries, optionally shrunk by the
/// `FAST_EXPERIMENTS` environment variable (useful in CI; set it to anything but
/// `0`).
pub fn standard_corpora() -> Vec<LoopCorpus> {
    let mut corpora = LoopCorpus::all();
    if fast_from_env() {
        for corpus in &mut corpora {
            corpus.loops.truncate(4);
        }
        corpora.truncate(4);
    }
    corpora
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_workloads::SpecFp95;

    #[test]
    fn unset_or_zero_flags_are_off() {
        assert!(!flag_on(None));
        assert!(!flag_on(Some("0")));
        assert!(flag_on(Some("1")));
        assert!(flag_on(Some("")));
        assert!(flag_on(Some("yes")));
    }

    fn small_corpus() -> LoopCorpus {
        let mut c = LoopCorpus::generate(SpecFp95::Swim);
        c.loops.truncate(4);
        c
    }

    #[test]
    fn run_corpus_produces_positive_ipc_and_no_failures() {
        let corpus = small_corpus();
        let machine = MachineConfig::two_cluster(1, 1);
        let result = run_corpus(&corpus, &machine, Algorithm::Bsa, UnrollPolicy::None);
        assert_eq!(result.failed_loops, 0);
        assert!(result.ipc > 0.0);
        assert!(result.ipc <= machine.total_issue_width() as f64);
        assert_eq!(result.contributions.len(), corpus.len());
    }

    #[test]
    fn corpus_diagnostics_cover_every_scheduled_loop() {
        let corpus = small_corpus();
        let machine = MachineConfig::two_cluster(1, 1);
        let result = run_corpus(&corpus, &machine, Algorithm::Bsa, UnrollPolicy::None);
        let d = &result.diagnostics;
        let classified = d.recurrence_limited + d.fu_limited + d.bus_limited + d.register_limited;
        assert_eq!(classified, corpus.len() - result.failed_loops);
        assert!(d.total_attempts >= classified as u64);
        assert!(d.max_register_pressure > 0);
    }

    #[test]
    fn ipc_view_agrees_with_the_stored_aggregate() {
        let corpus = small_corpus();
        let machine = MachineConfig::two_cluster(2, 1);
        let result = run_corpus(&corpus, &machine, Algorithm::Bsa, UnrollPolicy::None);
        let view = result.ipc_view();
        assert_eq!(view.len(), result.contributions.len());
        assert!((view.ipc() - result.ipc).abs() < 1e-12);
    }

    #[test]
    fn bsa_beats_or_matches_ne_on_a_bus_starved_machine() {
        let corpus = small_corpus();
        let machine = MachineConfig::four_cluster(1, 2);
        let bsa = run_corpus(&corpus, &machine, Algorithm::Bsa, UnrollPolicy::None);
        let ne = run_corpus(
            &corpus,
            &machine,
            Algorithm::NystromEichenberger,
            UnrollPolicy::None,
        );
        assert!(
            bsa.ipc >= ne.ipc * 0.98,
            "BSA {} should not lose to N&E {}",
            bsa.ipc,
            ne.ipc
        );
    }

    #[test]
    fn unrolling_policy_is_tracked() {
        let corpus = small_corpus();
        let machine = MachineConfig::four_cluster(1, 1);
        let all = run_corpus(&corpus, &machine, Algorithm::Bsa, UnrollPolicy::ByClusters);
        // The ByClusters policy unrolls every loop it can still schedule afterwards
        // (the 16-register clusters reject a few very wide unrolled bodies, which then
        // fall back to their original schedule).
        assert!(all.unrolled_loops >= 1);
        assert_eq!(all.failed_loops, 0);
        let none = run_corpus(&corpus, &machine, Algorithm::Bsa, UnrollPolicy::None);
        assert_eq!(none.unrolled_loops, 0);
        assert_eq!(none.failed_loops, 0);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
