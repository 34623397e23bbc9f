//! The `lint` gate binary: certify and replay every schedule behind the
//! committed figure artifacts.
//!
//! ```text
//! cargo run --release -p vliw-bench --bin lint
//! ```
//!
//! Enumerates every deduplicated scheduling job of the five figure pipelines
//! ([`vliw_bench::lint_audit::figure_jobs`]), schedules every corpus loop under
//! each, and runs `vliw_sim`'s differential check over every produced schedule —
//! kernels and exact-unroll remainder epilogues alike: the static certifier, the
//! cycle-level replay and the closed-form cycle cross-checks.  Writes the
//! deterministic `results/lint_report.json` (part of the golden byte-identity
//! suite) and exits non-zero when any schedule has a deny-level diagnostic or a
//! replay finding, or any loop fails to schedule, so CI can gate on it.
//! `FAST_EXPERIMENTS=1` audits the reduced corpora.

use vliw_bench::{lint_audit, standard_corpora};
use vliw_metrics::TextTable;

fn main() {
    let corpora = standard_corpora();
    let jobs = lint_audit::figure_jobs();
    println!(
        "lint: certifying and replaying the schedules of {} figure jobs over {} corpora",
        jobs.len(),
        corpora.len()
    );

    let report = lint_audit::audit_jobs(&jobs, &corpora);

    let mut table = TextTable::new([
        "machine",
        "algorithm",
        "policy",
        "schedules",
        "certified",
        "warns",
    ]);
    for j in &report.jobs {
        let warns: u64 = j.warnings.values().sum();
        table.row([
            j.machine.clone(),
            j.algorithm.clone(),
            j.policy.clone(),
            format!("{}", j.schedules),
            format!("{}", j.certified),
            format!("{warns}"),
        ]);
    }
    println!("{table}");
    println!("warn-lint histogram:");
    for (id, count) in &report.warnings {
        println!("  {id:<20} {count}");
    }
    let unschedulable: u64 = report.jobs.iter().map(|j| j.unschedulable).sum();
    println!(
        "{} schedules audited, {} certified, {} denied, {unschedulable} unschedulable loop(s)",
        report.schedules_audited, report.certified, report.deny_schedules
    );
    for job in &report.jobs {
        for deny in &job.deny_reports {
            println!(
                "  DENY {} on {} (II {}): {:?}",
                deny.loop_name, deny.machine, deny.ii, deny.diagnostics
            );
        }
        for replay in &job.replay_failures {
            println!(
                "  REPLAY {} on {} (II {}): {:?}",
                replay.loop_name, replay.machine, replay.ii, replay.findings
            );
        }
        if job.unschedulable > 0 {
            println!(
                "  UNSCHEDULABLE {} loop(s) on {} ({}, policy {})",
                job.unschedulable, job.machine, job.algorithm, job.policy
            );
        }
    }

    let path =
        vliw_lint::reportio::write_results_json("lint_report", &report).expect("write report");
    vliw_lint::reportio::exit_on_violations(
        &path,
        report.violations() as usize,
        &format!(
            "all {} schedules certified and replayed clean",
            report.schedules_audited
        ),
        &format!(
            "{} violation(s): uncertified or replay-failing schedules, unschedulable loops",
            report.violations()
        ),
    );
}
