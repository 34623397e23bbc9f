//! The figure-artifact lint audit behind the `lint` binary.
//!
//! The committed `results/*.json` artifacts are each backed by a sweep of
//! scheduling jobs ([`crate::figures`] declares them).  This module enumerates
//! every deduplicated job behind all five figure pipelines ([`figure_jobs`]) and
//! audits every schedule those jobs produce — kernel and exact-unroll remainder
//! alike — with [`vliw_sim::check_schedule_with`]: `vliw_lint`'s [`Certifier`],
//! the cycle-level replay and the closed-form cycle cross-checks.  The outcome
//! folds into one deterministic [`LintAuditReport`] written to
//! `results/lint_report.json`; a clean replay adds nothing to it.  This is the
//! one audit path behind the figures: every figure job is scheduled, certified
//! and replayed here, and an unschedulable loop fails the audit like a finding.
//!
//! Everything is ordered (jobs in first-declaration order, corpora and loops in
//! input order, histograms in `BTreeMap`s), so the report is byte-identical across
//! runs and thread counts and sits in the golden byte-identity suite next to the
//! figure artifacts themselves.

use crate::sweep::{Sweep, SweepJob};
use crate::{figures, schedule_loop, Algorithm};
use cvliw_core::UnrollPolicy;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_lint::{Certifier, LintReport};
use vliw_sim::{check_schedule_with, verification_iterations, DifferentialReport, Finding};
use vliw_sms::ModuloSchedule;
use vliw_workloads::LoopCorpus;

/// Every deduplicated `(machine, algorithm, policy)` job behind the five committed
/// figure pipelines (`fig4`, `fig8`, `fig9`, `fig10`, `fig_unroll`), baselines
/// included.  Declaring all figures on one [`Sweep`] deduplicates *across* figures
/// too (Figures 8 and 10 share their whole clustered grid), so this is exactly the
/// distinct scheduling work behind the committed artifacts.
pub fn figure_jobs() -> Vec<SweepJob> {
    let mut sweep = Sweep::new();
    figures::declare_fig4(&mut sweep);
    figures::declare_fig8(&mut sweep);
    figures::declare_fig9(&mut sweep);
    figures::declare_fig10(&mut sweep);
    figures::declare_fig_unroll(&mut sweep);
    sweep.jobs()
}

/// The lint audit of one scheduling job over every corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobAudit {
    /// Machine name.
    pub machine: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Unrolling-policy label.
    pub policy: String,
    /// Schedules certified (kernels plus exact-unroll remainder epilogues).
    pub schedules: u64,
    /// Schedules with zero deny-level diagnostics.
    pub certified: u64,
    /// Loops the scheduler could not schedule (no schedule to certify).
    pub unschedulable: u64,
    /// Histogram over warn-level lint ids across all certified schedules.
    pub warnings: BTreeMap<String, u64>,
    /// Full lint reports of every uncertified schedule (empty = job clean).
    pub deny_reports: Vec<LintReport>,
    /// Differential reports of every schedule whose cycle-level replay or
    /// closed-form cycle cross-checks disagreed.  Static findings are stripped
    /// (they are in `deny_reports`); omitted from the JSON when empty.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub replay_failures: Vec<DifferentialReport>,
}

impl JobAudit {
    /// An empty audit of one job.
    fn new(machine: &MachineConfig, algorithm: Algorithm, policy: UnrollPolicy) -> Self {
        Self {
            machine: machine.name.clone(),
            algorithm: algorithm.label().to_string(),
            policy: policy.label(),
            schedules: 0,
            certified: 0,
            unschedulable: 0,
            warnings: BTreeMap::new(),
            deny_reports: Vec::new(),
            replay_failures: Vec::new(),
        }
    }

    /// Certify and replay one schedule with `vliw_sim`'s differential oracle and
    /// fold the outcome in: the certifier's report feeds the counts, the warn
    /// histogram and `deny_reports`; any replay or cycle finding lands in
    /// `replay_failures`.
    fn check(&mut self, certifier: &Certifier, graph: &DepGraph, sched: &ModuloSchedule) {
        let (mut replay, lint) =
            check_schedule_with(certifier, graph, sched, verification_iterations(graph));
        self.schedules += 1;
        for id in lint.warn_ids() {
            *self.warnings.entry(id).or_insert(0) += 1;
        }
        if lint.is_certified() {
            self.certified += 1;
        } else {
            self.deny_reports.push(lint);
        }
        replay
            .findings
            .retain(|f| !matches!(f, Finding::StaticViolation { .. }));
        if !replay.is_clean() {
            self.replay_failures.push(replay);
        }
    }
}

/// The full, deterministic output of the figure-artifact lint audit — written to
/// `results/lint_report.json` by the `lint` binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintAuditReport {
    /// Names of the audited corpora, in input order.
    pub corpora: Vec<String>,
    /// One audit per deduplicated figure job, in declaration order.
    pub jobs: Vec<JobAudit>,
    /// Total schedules certified.
    pub schedules_audited: u64,
    /// Total schedules with zero deny-level diagnostics.
    pub certified: u64,
    /// Total uncertified schedules.
    pub deny_schedules: u64,
    /// Aggregate warn-lint histogram over all jobs.
    pub warnings: BTreeMap<String, u64>,
}

impl LintAuditReport {
    /// Fold per-job audits (in job order) into the report and its totals.
    fn new(corpora: Vec<String>, jobs: Vec<JobAudit>) -> Self {
        let mut report = LintAuditReport {
            corpora,
            jobs,
            schedules_audited: 0,
            certified: 0,
            deny_schedules: 0,
            warnings: BTreeMap::new(),
        };
        for job in &report.jobs {
            report.schedules_audited += job.schedules;
            report.certified += job.certified;
            report.deny_schedules += job.schedules - job.certified;
            for (id, n) in &job.warnings {
                *report.warnings.entry(id.clone()).or_insert(0) += n;
            }
        }
        report
    }

    /// Uncertified schedules, schedules with a replay or cycle finding, and
    /// unschedulable loops, summed (the `lint` binary exits non-zero iff > 0).
    pub fn violations(&self) -> u64 {
        self.deny_schedules
            + self
                .jobs
                .iter()
                .map(|j| j.replay_failures.len() as u64 + j.unschedulable)
                .sum::<u64>()
    }

    /// Whether every loop scheduled and every schedule was certified and
    /// replayed clean.
    pub fn passed(&self) -> bool {
        self.violations() == 0
    }
}

/// Audit `jobs` over `corpora`: schedule every loop of every corpus under each job
/// and certify and replay every produced schedule (kernel and remainder).  Jobs run
/// rayon-parallel; the fold is in job order, so the report is deterministic.
pub fn audit_jobs(jobs: &[SweepJob], corpora: &[LoopCorpus]) -> LintAuditReport {
    let job_audits: Vec<JobAudit> = jobs
        .par_iter()
        .map(|(machine, algorithm, policy)| {
            let certifier = Certifier::new(machine);
            let mut audit = JobAudit::new(machine, *algorithm, *policy);
            for corpus in corpora {
                for graph in &corpus.loops {
                    match schedule_loop(graph, machine, *algorithm, *policy) {
                        Err(_) => audit.unschedulable += 1,
                        Ok(cs) => {
                            audit.check(&certifier, &cs.scheduled_graph, &cs.schedule);
                            if let Some(rem) = &cs.remainder {
                                audit.check(&certifier, graph, &rem.schedule);
                            }
                        }
                    }
                }
            }
            audit
        })
        .collect();
    let corpora = corpora
        .iter()
        .map(|c| c.benchmark.name().to_string())
        .collect();
    LintAuditReport::new(corpora, job_audits)
}

/// Audit every schedule behind the committed figure artifacts ([`figure_jobs`])
/// over `corpora`.
pub fn audit_figures(corpora: &[LoopCorpus]) -> LintAuditReport {
    audit_jobs(&figure_jobs(), corpora)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::{FuKind, OpClass, ResourcePool};
    use vliw_ddg::DepKind;
    use vliw_sms::PlacedOp;
    use vliw_workloads::SpecFp95;

    fn small_corpus() -> Vec<LoopCorpus> {
        let mut c = LoopCorpus::generate(SpecFp95::Swim);
        c.loops.truncate(3);
        vec![c]
    }

    #[test]
    fn figure_jobs_cover_every_figure_without_duplicates() {
        let jobs = figure_jobs();
        // The five figures declare hundreds of cells; the deduplicated job list is
        // far smaller but still substantial (fig4's grid alone has 56 clustered
        // machines), and every entry is structurally unique.
        assert!(jobs.len() >= 60, "only {} jobs", jobs.len());
        let keys: std::collections::BTreeSet<String> = jobs
            .iter()
            .map(|(m, a, p)| {
                format!(
                    "{a:?}|{p:?}|{}",
                    serde_json::to_string(&(m.n_clusters, &m.cluster, &m.buses, &m.latencies))
                        .unwrap()
                )
            })
            .collect();
        assert_eq!(
            keys.len(),
            jobs.len(),
            "duplicate job escaped deduplication"
        );
    }

    #[test]
    fn a_small_audit_certifies_everything_and_is_deterministic() {
        let corpora = small_corpus();
        let jobs = &figure_jobs()[..4];
        let report = audit_jobs(jobs, &corpora);
        assert!(report.passed(), "{:?}", report.jobs);
        assert_eq!(report.certified, report.schedules_audited);
        assert!(
            report.schedules_audited >= 4 * 3 // every job schedules each of the 3 loops (remainders may add more)
        );
        let again = audit_jobs(jobs, &corpora);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn a_missing_communication_fails_certification_and_replay() {
        // A producer on cluster 0 feeds a consumer on cluster 1 with no bus
        // transfer scheduled between them.
        let machine = MachineConfig::two_cluster(1, 1);
        let mut g = DepGraph::new("comm");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut sched = ModuloSchedule::new("comm", 2, 3, 1);
        let pool = ResourcePool::new(&machine);
        for (node, cycle, cluster, kind) in [(a, 0, 0, FuKind::Mem), (b, 10, 1, FuKind::Fp)] {
            sched.place(PlacedOp {
                node,
                cycle,
                cluster,
                fu: pool.fus(cluster, kind).next().unwrap(),
            });
        }
        let mut audit = JobAudit::new(&machine, Algorithm::Bsa, UnrollPolicy::None);
        audit.check(&Certifier::new(&machine), &g, &sched);
        assert_eq!((audit.schedules, audit.certified), (1, 0));
        assert_eq!(audit.deny_reports.len(), 1);
        assert!(audit.deny_reports[0]
            .deny_ids()
            .contains(&"missing-communication".to_string()));
        let [replay] = &audit.replay_failures[..] else {
            panic!("expected one replay failure: {:?}", audit.replay_failures);
        };
        assert!(
            replay
                .findings
                .iter()
                .any(|f| matches!(f, Finding::ExecutionError { .. })),
            "{:?}",
            replay.findings
        );
        let report = LintAuditReport::new(Vec::new(), vec![audit]);
        assert!(!report.passed());
        assert_eq!(report.violations(), 2);
    }

    #[test]
    fn an_unschedulable_loop_fails_the_audit() {
        let machine = MachineConfig::two_cluster(1, 1);
        let mut audit = JobAudit::new(&machine, Algorithm::Bsa, UnrollPolicy::None);
        let clean = LintAuditReport::new(Vec::new(), vec![audit.clone()]);
        assert!(clean.passed());
        audit.unschedulable = 1;
        let report = LintAuditReport::new(Vec::new(), vec![audit]);
        assert_eq!(report.deny_schedules, 0);
        assert!(!report.passed());
    }

    #[test]
    fn audit_reports_roundtrip_through_json() {
        let report = audit_jobs(&figure_jobs()[..1], &small_corpus());
        let json = serde_json::to_string_pretty(&report).unwrap();
        // A clean replay leaves the committed report's bytes alone.
        assert!(!json.contains("replay_failures"), "{json}");
        let back: LintAuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
