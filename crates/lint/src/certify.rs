//! The static schedule certifier.
//!
//! [`Certifier::check`] is the repository's one static legality checker: it
//! proves, without executing anything, the invariants the `vliw_sim` replay
//! establishes by execution.  `vliw_sim::check_schedule` runs it next to that
//! replay and reports every deny diagnostic as a `StaticViolation`:
//!
//! * **dependence legality** — per-edge slack `t_dst + d·II − (t_src + latency)`,
//!   with cross-cluster value edges routed through the earliest bus-transfer
//!   instance `start + k·II` that does not start before the value exists (after
//!   an early return on unscheduled nodes; self edges are skipped);
//! * **MRT/bus conflict freedom** — at most one reservation per `(resource, row)`;
//! * **register-pressure bounds** — per-cluster MaxLive vs the register file, via
//!   [`ModuloLiveness`]'s fold, written independently of the scheduler's
//!   `PressureTracker` (and property-tested equal to its from-scratch fold);
//! * **`NCYCLES` window** — the dynamic `IpcModelDrift` check against the
//!   closed-form makespan, which equals the replayed makespan whenever the replay
//!   is clean.
//!
//! Plus the code-size clamp (`ops·SC ≤ (2(SC−1)+1)·II·width`) promoted from a
//! `debug_assert!` to a deny lint: by pigeonhole a kernel with more operations
//! than `II·width` slots also has an FU conflict, so this lint can never disagree
//! with the dynamic oracles — it only fails faster, and on release builds too.
//!
//! Warn-level quality lints (dead values, II slack, cluster imbalance, register
//! cliff) ride along in the same report; they never affect certification.
//!
//! Every check is one pass over the graph, the placements or the reservations,
//! or a closed form ([`ModuloLiveness`]'s interval fold, the `makespan`
//! re-derivations): nothing iterates to convergence.  A dead value is a producer
//! with no placed value-reading successor, read straight off the graph.

use crate::diagnostics::{Diagnostic, LintReport};
use crate::lints::{self, LintDescriptor};
use crate::liveness::ModuloLiveness;
use crate::makespan::{ncycles_drift_ok, static_makespan, static_ncycles, static_stage_count};
use crate::optimal::OptCertificate;
use std::collections::{BTreeMap, BTreeSet};
use vliw_arch::{MachineConfig, ResourceIndex, ResourceKind, ResourcePool};
use vliw_ddg::DepGraph;
use vliw_sms::ModuloSchedule;

/// How close (in registers) MaxLive may come to the file size before the
/// register-cliff warning fires — the regime where the next unroll copy tips a
/// schedulable loop into rejection (the `fig_unroll` U = 8 collapse).
pub const CLIFF_MARGIN: usize = 2;

/// Cluster-occupancy imbalance thresholds: warn when the busiest cluster holds at
/// least [`IMBALANCE_GAP`] more operations than the idlest *and* at least twice as
/// many.
pub const IMBALANCE_GAP: usize = 4;

/// Statically certifies modulo schedules against one machine.
#[derive(Debug, Clone)]
pub struct Certifier {
    machine: MachineConfig,
    suppressed: BTreeSet<String>,
    certificate: Option<OptCertificate>,
}

impl Certifier {
    /// A certifier for `machine`.
    pub fn new(machine: &MachineConfig) -> Self {
        Self {
            machine: machine.clone(),
            suppressed: BTreeSet::new(),
            certificate: None,
        }
    }

    /// The machine this certifier checks schedules against.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Attach an optimality certificate from [`crate::optimal::OptimalSolver`].
    /// When the certified loop matches the schedule under check, the heuristic
    /// `ii-slack` warning is upgraded to `certified-ii-gap`: slack is measured
    /// against the solver's lower bound instead of the MII.
    #[must_use]
    pub fn with_certificate(mut self, certificate: OptCertificate) -> Self {
        self.certificate = Some(certificate);
        self
    }

    /// Suppress `lint_id` for this certifier's runs.  Panics on an unknown id so a
    /// typo cannot silently suppress nothing.
    #[must_use]
    pub fn allow(mut self, lint_id: &str) -> Self {
        assert!(
            lints::find(lint_id).is_some(),
            "unknown lint id {lint_id:?}; known lints: {:?}",
            lints::ALL.map(|l| l.id)
        );
        self.suppressed.insert(lint_id.to_string());
        self
    }

    /// Certify `sched` against `graph`, checking the `NCYCLES` window for
    /// `iterations` iterations (use `vliw_sim::verification_iterations` to match
    /// the dynamic oracles).
    pub fn check(&self, graph: &DepGraph, sched: &ModuloSchedule, iterations: u64) -> LintReport {
        let pool = ResourcePool::new(&self.machine);
        let ii = sched.ii() as i64;
        let mut diags: Vec<Diagnostic> = Vec::new();
        let emit = |diags: &mut Vec<Diagnostic>, lint: LintDescriptor, message: String| {
            if !self.suppressed.contains(lint.id) {
                diags.push(Diagnostic {
                    lint: lint.id.to_string(),
                    severity: lint.severity,
                    message,
                });
            }
        };

        // Completeness and placement sanity, with an early return: nothing else is
        // provable about a schedule with holes in it.
        let mut incomplete = false;
        for node in graph.nodes() {
            match sched.placement(node.id) {
                None => {
                    incomplete = true;
                    emit(
                        &mut diags,
                        lints::UNSCHEDULED_NODE,
                        format!("node {} has no placement", node.label()),
                    );
                }
                Some(p) => {
                    if p.cluster >= self.machine.n_clusters {
                        emit(
                            &mut diags,
                            lints::BAD_PLACEMENT,
                            format!(
                                "node {}: cluster {} does not exist",
                                node.label(),
                                p.cluster
                            ),
                        );
                        continue;
                    }
                    match pool.kind(p.fu) {
                        ResourceKind::Fu { cluster, kind, .. } => {
                            if cluster != p.cluster {
                                emit(
                                    &mut diags,
                                    lints::BAD_PLACEMENT,
                                    format!(
                                        "node {}: functional unit belongs to cluster {cluster}, \
                                         node placed on {}",
                                        node.label(),
                                        p.cluster
                                    ),
                                );
                            }
                            if kind != node.class.fu_kind() {
                                emit(
                                    &mut diags,
                                    lints::BAD_PLACEMENT,
                                    format!(
                                        "node {}: operation of kind {} placed on a {} unit",
                                        node.label(),
                                        node.class.fu_kind(),
                                        kind
                                    ),
                                );
                            }
                        }
                        ResourceKind::Bus { .. } => emit(
                            &mut diags,
                            lints::BAD_PLACEMENT,
                            format!("node {}: operation placed on a bus row", node.label()),
                        ),
                    }
                }
            }
        }
        if incomplete {
            return self.finish(graph, sched, iterations, diags);
        }

        // Dependence legality (cross-cluster value edges must ride a transfer).
        for e in graph.edges() {
            let pu = sched.placement(e.src).expect("checked above");
            let pv = sched.placement(e.dst).expect("checked above");
            if e.src == e.dst {
                // Self edges constrain II (RecMII), not individual placements.
                continue;
            }
            if e.kind.carries_value() && pu.cluster != pv.cluster {
                let comms: Vec<_> = sched
                    .comms()
                    .iter()
                    .filter(|c| c.src_node == e.src && c.to_cluster == pv.cluster)
                    .collect();
                if comms.is_empty() {
                    emit(
                        &mut diags,
                        lints::MISSING_COMMUNICATION,
                        format!(
                            "value {} → {} crosses clusters without a communication",
                            graph.node(e.src).label(),
                            graph.node(e.dst).label()
                        ),
                    );
                } else {
                    // Transfers repeat every II: the edge holds iff some instance
                    // `start + k·II` fits between production and consumption.
                    let mut best_slack = i64::MIN;
                    for c in &comms {
                        let produced_at = pu.cycle + e.latency as i64;
                        let consumed_at = pv.cycle + e.distance as i64 * ii;
                        let k = (produced_at - c.start_cycle + ii - 1).div_euclid(ii);
                        let start = c.start_cycle + k * ii;
                        let slack = consumed_at - (start + c.duration as i64);
                        best_slack = best_slack.max(slack);
                    }
                    if best_slack < 0 {
                        emit(
                            &mut diags,
                            lints::DEPENDENCE,
                            format!(
                                "edge {} → {} missed through every transfer instance \
                                 (best slack {best_slack})",
                                graph.node(e.src).label(),
                                graph.node(e.dst).label()
                            ),
                        );
                    }
                }
            } else {
                let slack = pv.cycle + e.distance as i64 * ii - (pu.cycle + e.latency as i64);
                if slack < 0 {
                    emit(
                        &mut diags,
                        lints::DEPENDENCE,
                        format!(
                            "edge {} → {} violated (slack {slack})",
                            graph.node(e.src).label(),
                            graph.node(e.dst).label()
                        ),
                    );
                }
            }
        }

        // Reservation-table conflict freedom (BTreeMaps for deterministic output).
        let mut fu_rows: BTreeMap<(usize, i64), usize> = BTreeMap::new();
        for p in sched.placements() {
            *fu_rows.entry((p.fu.0, p.cycle.rem_euclid(ii))).or_insert(0) += 1;
        }
        for ((fu, row), count) in &fu_rows {
            if *count > 1 {
                emit(
                    &mut diags,
                    lints::FU_CONFLICT,
                    format!(
                        "{} reserved {count} times in kernel row {row}",
                        pool.kind(ResourceIndex(*fu))
                    ),
                );
            }
        }
        let mut bus_rows: BTreeMap<(usize, i64), usize> = BTreeMap::new();
        for c in sched.comms() {
            for d in 0..c.duration {
                *bus_rows
                    .entry((c.bus.0, (c.start_cycle + d as i64).rem_euclid(ii)))
                    .or_insert(0) += 1;
            }
        }
        for ((bus, row), count) in &bus_rows {
            if *count > 1 {
                emit(
                    &mut diags,
                    lints::BUS_CONFLICT,
                    format!(
                        "{} reserved {count} times in kernel row {row}",
                        pool.kind(ResourceIndex(*bus))
                    ),
                );
            }
        }

        // Register-pressure bounds, via the independent liveness fold.
        let live = ModuloLiveness::new(graph, sched, &self.machine);
        for (cluster, &max_live) in live.max_live().iter().enumerate() {
            let capacity = self.machine.cluster.registers;
            if max_live as usize > capacity {
                emit(
                    &mut diags,
                    lints::REGISTER_PRESSURE,
                    format!("cluster {cluster}: MaxLive {max_live} exceeds {capacity} registers"),
                );
            } else if max_live as usize + CLIFF_MARGIN >= capacity {
                emit(
                    &mut diags,
                    lints::REGISTER_CLIFF,
                    format!(
                        "cluster {cluster}: MaxLive {max_live} within {CLIFF_MARGIN} of the \
                         {capacity}-register file"
                    ),
                );
            }
        }

        // NCYCLES window: statically the closed-form makespan stands in for the
        // replayed one (they are equal whenever the replay is clean).
        let makespan = static_makespan(graph, sched, &self.machine, iterations);
        let ncycles = static_ncycles(sched, iterations);
        let max_latency = self.machine.latencies.max_latency();
        let drift = ncycles as i128 - makespan as i128;
        if !ncycles_drift_ok(drift, sched.ii(), max_latency) {
            emit(
                &mut diags,
                lints::NCYCLES_WINDOW,
                format!(
                    "NCYCLES {ncycles} drifted {drift} from the makespan {makespan} \
                     (window −{max_latency} < drift < {})",
                    2 * ii
                ),
            );
        }

        // Code-size clamp, checked in release builds too.
        let sc = static_stage_count(sched) as u64;
        let width = self.machine.total_issue_width() as u64;
        let ops = sched.placements().count() as u64;
        let useful_ops = ops * sc;
        let total_slots = (2 * (sc - 1) + 1) * sched.ii() as u64 * width;
        if useful_ops > total_slots {
            emit(
                &mut diags,
                lints::CODE_SIZE_CLAMP,
                format!(
                    "useful slots {useful_ops} exceed total slots {total_slots} \
                     ({ops} ops do not fit the II·width = {} kernel)",
                    sched.ii() as u64 * width
                ),
            );
        }

        // Quality lints.
        for node in graph.nodes() {
            if !node.class.defines_value() {
                continue;
            }
            let read = graph
                .out_edges(node.id)
                .any(|e| e.kind.carries_value() && sched.placement(e.dst).is_some());
            if !read {
                emit(
                    &mut diags,
                    lints::DEAD_VALUE,
                    format!("value of {} is never read", node.label()),
                );
            }
        }
        let certified_bound = self
            .certificate
            .as_ref()
            .filter(|c| c.loop_name == sched.loop_name && c.machine == self.machine.name)
            .and_then(|c| c.lower_bound().map(|lb| (lb, c.is_exact())));
        if let Some((lower_bound, exact)) = certified_bound {
            if sched.ii() > lower_bound {
                emit(
                    &mut diags,
                    lints::CERTIFIED_II_GAP,
                    format!(
                        "II {} is {} above the certified {} {}",
                        sched.ii(),
                        sched.ii() - lower_bound,
                        if exact { "optimum" } else { "lower bound" },
                        lower_bound
                    ),
                );
            }
        } else if sched.ii() > sched.mii {
            emit(
                &mut diags,
                lints::II_SLACK,
                format!(
                    "II {} is {} above the MII lower bound {}",
                    sched.ii(),
                    sched.ii() - sched.mii,
                    sched.mii
                ),
            );
        }
        if self.machine.is_clustered() {
            let mut per_cluster = vec![0usize; self.machine.n_clusters];
            for p in sched.placements() {
                if p.cluster < per_cluster.len() {
                    per_cluster[p.cluster] += 1;
                }
            }
            let max = per_cluster.iter().copied().max().unwrap_or(0);
            let min = per_cluster.iter().copied().min().unwrap_or(0);
            if max - min >= IMBALANCE_GAP && max >= 2 * min.max(1) {
                emit(
                    &mut diags,
                    lints::CLUSTER_IMBALANCE,
                    format!("cluster occupancy spread {per_cluster:?}"),
                );
            }
        }

        self.finish(graph, sched, iterations, diags)
    }

    /// Convenience: whether `sched` is free of deny-level findings.
    pub fn is_certified(&self, graph: &DepGraph, sched: &ModuloSchedule, iterations: u64) -> bool {
        self.check(graph, sched, iterations).is_certified()
    }

    fn finish(
        &self,
        _graph: &DepGraph,
        sched: &ModuloSchedule,
        iterations: u64,
        diagnostics: Vec<Diagnostic>,
    ) -> LintReport {
        let mut report = LintReport {
            loop_name: sched.loop_name.clone(),
            machine: self.machine.name.clone(),
            ii: sched.ii(),
            mii: sched.mii,
            stage_count: static_stage_count(sched),
            iterations,
            diagnostics,
            suppressed: self.suppressed.iter().cloned().collect(),
        };
        report.sort_diagnostics();
        report
    }
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
    fn a_correct_schedule_is_certified() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = IiSearchDriver::new(&machine)
            .schedule_unified(&g)
            .unwrap()
            .schedule;
        let report = Certifier::new(&machine).check(&g, &sched, 8);
        assert!(report.is_certified(), "{:?}", report.diagnostics);
        assert_eq!(report.loop_name, "saxpy");
        assert_eq!(report.stage_count, sched.stage_count());
    }

    #[test]
    fn suppression_silences_a_lint() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = vliw_sms::ModuloSchedule::new("saxpy", g.n_nodes(), 2, 1);
        let certifier = Certifier::new(&machine).allow("unscheduled-node");
        let report = certifier.check(&g, &sched, 8);
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.lint == "unscheduled-node"),
            "suppressed lint still fired"
        );
        assert_eq!(report.suppressed, vec!["unscheduled-node".to_string()]);
    }

    #[test]
    #[should_panic(expected = "unknown lint id")]
    fn unknown_suppression_panics() {
        let _ = Certifier::new(&MachineConfig::unified()).allow("no-such-lint");
    }
}
