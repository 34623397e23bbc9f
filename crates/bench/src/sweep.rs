//! The declarative sweep runner.
//!
//! Every figure of the paper is a cross-product of experiment *cells* — a machine
//! configuration, a scheduling algorithm and an unrolling policy, each evaluated over
//! every benchmark corpus and usually divided by a unified-machine baseline.  Before
//! this runner existed each figure binary hand-rolled those loops and rescheduled the
//! unified baseline from scratch for every cell that needed it (Figure 4 re-ran the
//! identical unified sweep once per `(algorithm, latency, bus-count)` combination —
//! 28 times per corpus).
//!
//! A [`Sweep`] instead *declares* the cells; [`Sweep::run`] then
//!
//! 1. deduplicates every `(machine, algorithm, policy)` job — machines compare by
//!    *structure*, not name, so the unified counterparts of `2-cluster/1-bus` and
//!    `2-cluster/2-bus` (identical total resources) collapse into one baseline job;
//! 2. executes the unique `(job, corpus)` pairs rayon-parallel (the nested per-loop
//!    parallelism inside [`crate::run_corpus`] automatically degrades to sequential on pool
//!    workers, so the machine is never oversubscribed);
//! 3. reassembles per-cell outcomes in declaration order, attaching the memoized
//!    baseline and the relative IPC.
//!
//! Scheduling is deterministic, so memoization is invisible in the output: the figure
//! JSONs are byte-identical to the pre-sweep implementation (guarded by the golden
//! test in `tests/golden.rs`).
//!
//! A sweep only schedules and measures.  Every schedule behind the committed
//! figures is certified and replayed by the `lint` bin ([`crate::lint_audit`]),
//! which enumerates the same deduplicated jobs through [`Sweep::jobs`].

use crate::{Algorithm, CorpusResult};
use cvliw_core::UnrollPolicy;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use vliw_arch::MachineConfig;
use vliw_workloads::LoopCorpus;

/// Identifier of one declared cell, returned by [`Sweep::cell`] and accepted by
/// [`SweepResults::cell`].
pub type CellId = usize;

/// The unified-machine reference a cell's relative IPC is computed against.
#[derive(Debug, Clone, PartialEq)]
pub enum Baseline {
    /// No baseline: the cell stands alone (e.g. the code-size sweep of Figure 10).
    None,
    /// The unified counterpart of the cell's machine (same total resources, one
    /// cluster) scheduled with unified SMS under the cell's unrolling policy — the
    /// reference of Figure 4.
    UnifiedCounterpart,
    /// An explicit machine scheduled with unified SMS under the cell's policy — the
    /// reference of Figures 8 and 9 (the paper's fixed `unified` configuration).
    Machine(MachineConfig),
}

/// One declared experiment cell.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The machine to schedule for.
    pub machine: MachineConfig,
    /// The scheduling algorithm.
    pub algorithm: Algorithm,
    /// The unrolling policy.
    pub policy: UnrollPolicy,
    /// The reference the cell's relative IPC is computed against.
    pub baseline: Baseline,
}

/// The outcome of one cell on one corpus.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's own corpus result.
    pub result: Arc<CorpusResult>,
    /// The memoized baseline result; for cells declared with [`Baseline::None`] this
    /// is the cell's own result.
    pub baseline: Arc<CorpusResult>,
    /// `result.ipc / baseline.ipc` (0 when the baseline IPC is 0; 1 for cells
    /// without a baseline).
    pub relative_ipc: f64,
}

/// One deduplicated scheduling job of a sweep: a machine structure, an algorithm
/// and an unrolling policy, evaluated over every corpus.
pub type SweepJob = (MachineConfig, Algorithm, UnrollPolicy);

/// A declarative `machines × algorithms × policies` sweep (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    cells: Vec<CellSpec>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a cell with no baseline.
    pub fn cell(
        &mut self,
        machine: MachineConfig,
        algorithm: Algorithm,
        policy: UnrollPolicy,
    ) -> CellId {
        self.cell_vs(machine, algorithm, policy, Baseline::None)
    }

    /// Declare a cell with an explicit [`Baseline`].
    pub fn cell_vs(
        &mut self,
        machine: MachineConfig,
        algorithm: Algorithm,
        policy: UnrollPolicy,
        baseline: Baseline,
    ) -> CellId {
        self.cells.push(CellSpec {
            machine,
            algorithm,
            policy,
            baseline,
        });
        self.cells.len() - 1
    }

    /// The declared cells, in declaration order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Deduplicate the declared cells into the unique `(machine, algorithm, policy)`
    /// jobs (structural machine identity, first-declaration order, baseline jobs
    /// included) plus each cell's `(main, baseline)` job indices.
    fn dedup_jobs(&self) -> (Vec<SweepJob>, Vec<(usize, Option<usize>)>) {
        let mut job_index: HashMap<String, usize> = HashMap::new();
        let mut jobs: Vec<SweepJob> = Vec::new();
        let mut intern = |machine: &MachineConfig, algorithm: Algorithm, policy: UnrollPolicy| {
            let key = job_key(machine, algorithm, policy);
            *job_index.entry(key).or_insert_with(|| {
                jobs.push((machine.clone(), algorithm, policy));
                jobs.len() - 1
            })
        };
        let mut cell_jobs: Vec<(usize, Option<usize>)> = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let main = intern(&cell.machine, cell.algorithm, cell.policy);
            let base = match &cell.baseline {
                Baseline::None => None,
                Baseline::UnifiedCounterpart => Some(intern(
                    &cell.machine.unified_counterpart(),
                    Algorithm::UnifiedSms,
                    cell.policy,
                )),
                Baseline::Machine(machine) => {
                    Some(intern(machine, Algorithm::UnifiedSms, cell.policy))
                }
            };
            cell_jobs.push((main, base));
        }
        (jobs, cell_jobs)
    }

    /// The deduplicated jobs behind the declared cells, in first-declaration order
    /// and including every baseline job — the exact scheduling work [`Sweep::run`]
    /// would execute.  [`crate::lint_audit`] uses this to enumerate every schedule
    /// behind the committed figure artifacts without running the figures.
    pub fn jobs(&self) -> Vec<SweepJob> {
        self.dedup_jobs().0
    }

    /// Execute every `(cell, corpus)` job (rayon-parallel over the deduplicated job
    /// list) and assemble the outcomes.
    pub fn run(&self, corpora: &[LoopCorpus]) -> SweepResults {
        // 1. Deduplicate (machine, algorithm, policy) jobs structurally.  Job order —
        // and therefore execution order — follows first declaration, keeping runs
        // deterministic.
        let (jobs, cell_jobs) = self.dedup_jobs();

        // 2. Run the unique (job, corpus) pairs in parallel.  One flat list gives the
        // chunked scheduler enough cells to balance the very uneven job costs.
        let pairs: Vec<(usize, usize)> = (0..jobs.len())
            .flat_map(|j| (0..corpora.len()).map(move |c| (j, c)))
            .collect();
        let flat: Vec<Arc<CorpusResult>> = pairs
            .par_iter()
            .map(|&(j, c)| {
                let (machine, algorithm, policy) = &jobs[j];
                Arc::new(crate::run_corpus(&corpora[c], machine, *algorithm, *policy))
            })
            .collect();
        let result_of = |job: usize, corpus: usize| flat[job * corpora.len() + corpus].clone();

        // 3. Assemble the per-cell outcomes in declaration order.
        let cells = cell_jobs
            .iter()
            .map(|&(main, base)| {
                (0..corpora.len())
                    .map(|c| {
                        let result = result_of(main, c);
                        let baseline = result_of(base.unwrap_or(main), c);
                        let relative_ipc = if base.is_some() && baseline.ipc > 0.0 {
                            result.ipc / baseline.ipc
                        } else if base.is_some() {
                            0.0
                        } else {
                            1.0
                        };
                        CellOutcome {
                            result,
                            baseline,
                            relative_ipc,
                        }
                    })
                    .collect()
            })
            .collect();
        SweepResults { cells }
    }
}

/// Structural job key: the machine *configuration* (name excluded — two differently
/// named but identical machines schedule identically), the algorithm and the policy.
fn job_key(machine: &MachineConfig, algorithm: Algorithm, policy: UnrollPolicy) -> String {
    let structure = serde_json::to_string(&(
        machine.n_clusters,
        &machine.cluster,
        &machine.buses,
        &machine.latencies,
    ))
    .expect("machine structure serializes");
    format!("{algorithm:?}|{policy:?}|{structure}")
}

/// The outcomes of a [`Sweep::run`], indexed by [`CellId`] and corpus position.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// `cells[cell][corpus]`, both in declaration/input order.
    cells: Vec<Vec<CellOutcome>>,
}

impl SweepResults {
    /// The outcomes of `cell`, one per corpus in input order.
    pub fn cell(&self, id: CellId) -> &[CellOutcome] {
        &self.cells[id]
    }

    /// The per-corpus relative IPCs of `cell`, *skipping* corpora whose baseline IPC
    /// was 0 (Figure 9's historical guard against a degenerate division; Figure 4
    /// instead keeps those corpora as 0.0 — see
    /// [`SweepResults::mean_relative_ipc`]).
    pub fn relative_ipcs(&self, id: CellId) -> Vec<f64> {
        self.cells[id]
            .iter()
            .filter(|o| o.baseline.ipc > 0.0)
            .map(|o| o.relative_ipc)
            .collect()
    }

    /// Mean relative IPC of `cell` over **all** corpora, counting a corpus with a
    /// zero-IPC baseline as 0.0 — exactly how Figure 4 has always averaged (the
    /// deleted `relative_ipc` helper returned 0.0 for that case and the mean
    /// included it).
    pub fn mean_relative_ipc(&self, id: CellId) -> f64 {
        let rels: Vec<f64> = self.cells[id].iter().map(|o| o.relative_ipc).collect();
        crate::mean(&rels)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sweep had no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_corpus;
    use vliw_workloads::SpecFp95;

    fn small_corpora() -> Vec<LoopCorpus> {
        let mut a = LoopCorpus::generate(SpecFp95::Swim);
        a.loops.truncate(3);
        let mut b = LoopCorpus::generate(SpecFp95::Tomcatv);
        b.loops.truncate(3);
        vec![a, b]
    }

    #[test]
    fn sweep_outcomes_match_direct_run_corpus_calls() {
        let corpora = small_corpora();
        let machine = MachineConfig::two_cluster(2, 1);
        let mut sweep = Sweep::new();
        let id = sweep.cell_vs(
            machine.clone(),
            Algorithm::Bsa,
            UnrollPolicy::None,
            Baseline::UnifiedCounterpart,
        );
        let results = sweep.run(&corpora);
        for (corpus, outcome) in corpora.iter().zip(results.cell(id)) {
            let direct = run_corpus(corpus, &machine, Algorithm::Bsa, UnrollPolicy::None);
            assert_eq!(outcome.result.ipc, direct.ipc);
            let unified = run_corpus(
                corpus,
                &machine.unified_counterpart(),
                Algorithm::UnifiedSms,
                UnrollPolicy::None,
            );
            assert_eq!(outcome.baseline.ipc, unified.ipc);
            assert_eq!(outcome.relative_ipc, direct.ipc / unified.ipc);
        }
    }

    #[test]
    fn relative_ipc_is_at_most_slightly_above_one() {
        let corpora = small_corpora();
        let mut sweep = Sweep::new();
        let id = sweep.cell_vs(
            MachineConfig::two_cluster(2, 1),
            Algorithm::Bsa,
            UnrollPolicy::None,
            Baseline::UnifiedCounterpart,
        );
        let rel = sweep.run(&corpora).mean_relative_ipc(id);
        assert!(rel > 0.3, "relative IPC suspiciously low: {rel}");
        assert!(rel < 1.3, "relative IPC suspiciously high: {rel}");
    }

    #[test]
    fn structurally_identical_baselines_are_shared() {
        // The unified counterparts of every 2-cluster bus variant (and of the
        // 4-cluster ones) have identical total resources, so the whole sweep needs
        // exactly one baseline job; sharing must not change any outcome.
        let corpora = small_corpora();
        let mut sweep = Sweep::new();
        let a = sweep.cell_vs(
            MachineConfig::two_cluster(1, 1),
            Algorithm::Bsa,
            UnrollPolicy::None,
            Baseline::UnifiedCounterpart,
        );
        let b = sweep.cell_vs(
            MachineConfig::two_cluster(2, 4),
            Algorithm::NystromEichenberger,
            UnrollPolicy::None,
            Baseline::UnifiedCounterpart,
        );
        let c = sweep.cell_vs(
            MachineConfig::four_cluster(1, 2),
            Algorithm::Bsa,
            UnrollPolicy::None,
            Baseline::Machine(MachineConfig::unified()),
        );
        let results = sweep.run(&corpora);
        for corpus_idx in 0..corpora.len() {
            let base_a = &results.cell(a)[corpus_idx].baseline;
            let base_b = &results.cell(b)[corpus_idx].baseline;
            let base_c = &results.cell(c)[corpus_idx].baseline;
            // Same Arc: the job was deduplicated, not recomputed.
            assert!(Arc::ptr_eq(base_a, base_b));
            assert!(Arc::ptr_eq(base_a, base_c));
            assert!(base_a.ipc > 0.0);
        }
    }

    #[test]
    fn jobs_enumerates_the_deduplicated_work_list() {
        let mut sweep = Sweep::new();
        sweep.cell_vs(
            MachineConfig::two_cluster(1, 1),
            Algorithm::Bsa,
            UnrollPolicy::None,
            Baseline::UnifiedCounterpart,
        );
        sweep.cell_vs(
            MachineConfig::two_cluster(2, 4),
            Algorithm::Bsa,
            UnrollPolicy::None,
            Baseline::UnifiedCounterpart,
        );
        let jobs = sweep.jobs();
        // Two mains plus ONE shared baseline (the unified counterparts of the two
        // bus variants are structurally identical).  First-declaration order: the
        // first cell interns its main, then its baseline.
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].1, Algorithm::Bsa);
        assert_eq!(jobs[1].1, Algorithm::UnifiedSms);
        assert_eq!(jobs[2].1, Algorithm::Bsa);
    }

    #[test]
    fn cells_without_baseline_report_neutral_relative_ipc() {
        let corpora = small_corpora();
        let mut sweep = Sweep::new();
        let id = sweep.cell(
            MachineConfig::two_cluster(1, 1),
            Algorithm::Bsa,
            UnrollPolicy::None,
        );
        let results = sweep.run(&corpora);
        for outcome in results.cell(id) {
            assert_eq!(outcome.relative_ipc, 1.0);
            // Without a baseline the slot holds the cell's own result.
            assert!(Arc::ptr_eq(&outcome.result, &outcome.baseline));
        }
    }
}
