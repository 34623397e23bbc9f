//! The robustness layer: a degradation ladder over the scheduling stack.
//!
//! [`ResilientScheduler`] wraps the whole scheduler catalogue into a service-grade
//! contract: *every call terminates with either a certified schedule or a typed
//! error, never a panic and never an uncertified schedule*.  It tries a ladder of
//! strategies from best to safest, each rung isolated behind
//! [`vliw_sms::contain`] (so a panicking policy is converted into
//! [`ScheduleError::PolicyPanic`] and merely fails its rung) and each rung's output
//! gated by the static certifier of `vliw-lint` (so a rung that *claims* success
//! with an illegal schedule is refused and the ladder descends):
//!
//! 1. **primary** — the paper's BSA by default; the fault-injection campaign in
//!    `vliw-verify` substitutes deliberately sabotaged policies here;
//! 2. **`unified-sms`** — [`Policy::UnifiedSms`] on the ladder's own machine: every
//!    node on cluster 0 with the unified scheduler's whole-schedule register check,
//!    trading all cluster parallelism for the certainty that no inter-cluster
//!    communication is needed;
//! 3. **`load-balanced`** — [`Policy::LoadBalanced`], the communication-blind
//!    balance-only assignment from [`crate::ablation`], which survives pathologies
//!    in the communication-aware heuristics;
//! 4. **`sequential`** — a directly *constructed* (not searched) non-pipelined
//!    schedule: one operation per cycle on cluster 0 in dependence order.  No search
//!    can fail and no policy code runs, so this rung succeeds whenever the machine
//!    can execute the graph at all.
//!
//! Rungs are named by [`Policy::label`] (the primary's name is caller-chosen; the
//! bottom rung is `sequential`).  Every rung runs under its own deterministic
//! [`FuelBudget`] slice (when one is configured), the winning rung and its fuel are
//! recorded in
//! [`ScheduleDiagnostics::rung`] / [`ScheduleDiagnostics::fuel`], and every failed
//! rung — including every contained panic — is reported in the outcome so a
//! campaign can assert that no fault escaped silently.

use crate::bsa::BsaPolicy;
use crate::scheduler::{Policy, Scheduler};
use std::collections::BTreeSet;
use std::fmt;
use vliw_arch::{MachineConfig, ResourcePool};
use vliw_ddg::{rec_mii, res_mii, DepGraph, NodeId};
use vliw_sms::{
    cluster_max_live, contain_schedule, ClusterPolicy, FuelBudget, IiSearchDriver,
    LimitingResource, ModuloSchedule, PlacedOp, ScheduleDiagnostics, ScheduleError, ScheduledLoop,
};

/// Why one rung of the ladder was passed over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RungError {
    /// The rung's scheduler returned a typed error (this includes contained panics,
    /// exhausted fuel slices and rogue-trial refusals).
    Schedule(ScheduleError),
    /// The rung produced a schedule but the static certifier refused it — the rung's
    /// claim of success was a lie and the ladder does not forward it.
    NotCertified {
        /// The deny-level lints that fired.
        denies: Vec<String>,
    },
}

impl fmt::Display for RungError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RungError::Schedule(e) => write!(f, "{e}"),
            RungError::NotCertified { denies } => {
                write!(f, "schedule refused by the certifier: {denies:?}")
            }
        }
    }
}

impl RungError {
    /// Whether this failure was a contained panic.
    pub fn is_contained_panic(&self) -> bool {
        matches!(self, RungError::Schedule(ScheduleError::PolicyPanic { .. }))
    }
}

/// One failed rung, in descent order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungFailure {
    /// The rung that failed.
    pub rung: String,
    /// Why.
    pub error: RungError,
}

/// A certified schedule plus the ladder's account of how it was reached.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientOutcome {
    /// The certified schedule; `diagnostics.rung` names the winning rung and
    /// `diagnostics.fuel` carries the winning rung's fuel (when budgeted).
    pub result: ScheduledLoop,
    /// Every rung that was tried and failed before the winner, in order.
    pub failures: Vec<RungFailure>,
}

impl ResilientOutcome {
    /// The rung that produced the schedule.
    pub fn rung(&self) -> &str {
        self.result.diagnostics.rung.as_deref().unwrap_or("unknown")
    }

    /// How many of the failed rungs were contained panics.
    pub fn contained_panics(&self) -> usize {
        self.failures
            .iter()
            .filter(|f| f.error.is_contained_panic())
            .count()
    }
}

/// The whole ladder failed: a hard input error, or every rung exhausted.
///
/// The per-rung record is preserved so callers (the fault campaign in particular)
/// can still verify that every failure along the way was typed and contained.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderFailure {
    /// The error that stopped the ladder: an input error that no rung can repair
    /// (invalid graph / invalid machine), or the sequential rung's own failure.
    pub error: ScheduleError,
    /// Rungs attempted before the stop, in order.
    pub failures: Vec<RungFailure>,
}

impl fmt::Display for LadderFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} rungs failed before)",
            self.error,
            self.failures.len()
        )
    }
}

impl std::error::Error for LadderFailure {}

/// The degradation-ladder scheduler (see module docs).
#[derive(Debug, Clone)]
pub struct ResilientScheduler {
    machine: MachineConfig,
    rung_fuel: Option<FuelBudget>,
}

impl ResilientScheduler {
    /// A ladder over `machine` with unlimited fuel per rung.
    pub fn new(machine: &MachineConfig) -> Self {
        Self {
            machine: machine.clone(),
            rung_fuel: None,
        }
    }

    /// Give every searching rung its own copy of `budget` (the sequential rung is a
    /// direct construction and consumes no fuel).  Identical budgets make the whole
    /// ladder deterministic: same inputs, same winning rung, same schedule.
    #[must_use]
    pub fn with_rung_fuel(mut self, budget: FuelBudget) -> Self {
        self.rung_fuel = Some(budget);
        self
    }

    /// Run the ladder with BSA as the primary rung.
    pub fn schedule(&self, graph: &DepGraph) -> Result<ResilientOutcome, LadderFailure> {
        self.schedule_with_primary(&mut BsaPolicy::new(), Policy::Bsa.label(), graph)
    }

    /// Run the ladder with a caller-supplied primary policy (the fault-injection
    /// campaign wires sabotaged policies in here; `primary_rung` names the rung in
    /// diagnostics and failure records).
    pub fn schedule_with_primary<P: ClusterPolicy + ?Sized>(
        &self,
        primary: &mut P,
        primary_rung: &str,
        graph: &DepGraph,
    ) -> Result<ResilientOutcome, LadderFailure> {
        let certifier = vliw_lint::Certifier::new(&self.machine);
        let mut failures: Vec<RungFailure> = Vec::new();

        // Rung 1: the primary policy on the full clustered engine.
        let mut driver = IiSearchDriver::new(&self.machine);
        if let Some(fuel) = self.rung_fuel {
            driver = driver.with_fuel(fuel);
        }
        match Self::engine_rung(graph, &certifier, || driver.schedule(graph, primary)) {
            Ok(out) => {
                return Ok(ResilientOutcome {
                    result: Self::stamp(out, primary_rung),
                    failures,
                })
            }
            Err(RungError::Schedule(e)) if Self::is_input_error(&e) => {
                // No rung can repair a malformed graph or an impossible machine —
                // descending would just repeat the same rejection.
                return Err(LadderFailure { error: e, failures });
            }
            Err(error) => failures.push(RungFailure {
                rung: primary_rung.to_string(),
                error,
            }),
        }

        // Rungs 2 and 3: everything on cluster 0 (no communications can be needed),
        // then the communication-blind balance-only assignment.
        for policy in [Policy::UnifiedSms, Policy::LoadBalanced] {
            let mut scheduler = Scheduler::new(policy, &self.machine);
            if let Some(fuel) = self.rung_fuel {
                scheduler = scheduler.with_fuel(fuel);
            }
            match Self::engine_rung(graph, &certifier, || scheduler.schedule_diag(graph)) {
                Ok(out) => {
                    return Ok(ResilientOutcome {
                        result: Self::stamp(out, policy.label()),
                        failures,
                    })
                }
                Err(error) => failures.push(RungFailure {
                    rung: policy.label().to_string(),
                    error,
                }),
            }
        }

        // Rung 4: the constructed sequential schedule.  `contain` is kept around it
        // anyway — the guarantee is "no panic escapes", not "this code is perfect".
        let out = match contain_schedule(|| self.sequential_fallback(graph)) {
            Ok(out) => out,
            Err(e) => return Err(LadderFailure { error: e, failures }),
        };
        match Self::certify(&certifier, graph, &out.schedule) {
            Ok(()) => Ok(ResilientOutcome {
                result: Self::stamp(out, "sequential"),
                failures,
            }),
            // By construction this is unreachable for machines that can execute the
            // graph; surfaced as a typed error rather than an uncertified schedule.
            Err(denies) => Err(LadderFailure {
                error: ScheduleError::InvalidMachine(format!(
                    "sequential fallback refused by the certifier: {denies:?}"
                )),
                failures,
            }),
        }
    }

    /// Input errors stop the ladder: every rung would reject them identically.
    fn is_input_error(e: &ScheduleError) -> bool {
        matches!(
            e,
            ScheduleError::InvalidGraph(_) | ScheduleError::InvalidMachine(_)
        )
    }

    fn stamp(mut out: ScheduledLoop, rung: &str) -> ScheduledLoop {
        out.diagnostics.rung = Some(rung.to_string());
        out
    }

    /// One searching rung, already under this ladder's fuel slice: panic
    /// containment and the certifier gate.
    fn engine_rung(
        graph: &DepGraph,
        certifier: &vliw_lint::Certifier,
        run: impl FnOnce() -> Result<ScheduledLoop, ScheduleError>,
    ) -> Result<ScheduledLoop, RungError> {
        let out = contain_schedule(run).map_err(RungError::Schedule)?;
        match Self::certify(certifier, graph, &out.schedule) {
            Ok(()) => Ok(out),
            Err(denies) => Err(RungError::NotCertified { denies }),
        }
    }

    /// The certifier gate.  An empty graph is trivially certified: its schedule has
    /// no events, so the lints' makespan model (and nothing else) degenerates.
    fn certify(
        certifier: &vliw_lint::Certifier,
        graph: &DepGraph,
        sched: &ModuloSchedule,
    ) -> Result<(), Vec<String>> {
        if graph.n_nodes() == 0 {
            return Ok(());
        }
        let report = certifier.check(graph, sched, graph.iterations);
        if report.is_certified() {
            Ok(())
        } else {
            Err(report.deny_ids())
        }
    }

    /// The bottom rung: construct (don't search) a non-pipelined schedule — every
    /// operation on cluster 0, one per cycle in dependence order, II wide enough
    /// that nothing overlaps and every loop-carried dependence is slack.
    fn sequential_fallback(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
        graph.validate().map_err(ScheduleError::InvalidGraph)?;
        if self.machine.n_clusters == 0 {
            return Err(ScheduleError::InvalidMachine(
                "machine has no clusters".to_string(),
            ));
        }
        let n = graph.n_nodes();

        // Dependence order over the zero-distance subgraph (Kahn's algorithm, lowest
        // node id first for determinism), one strictly increasing cycle per node.
        let mut indeg = vec![0usize; n];
        for e in graph.edges() {
            if e.distance == 0 {
                indeg[e.dst.index()] += 1;
            }
        }
        let mut ready: BTreeSet<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut cycle = vec![0i64; n];
        let mut placed = 0usize;
        let mut next_cycle = 0i64;
        while let Some(&u) = ready.iter().next() {
            ready.remove(&u);
            let node = NodeId(u);
            let mut t = next_cycle;
            for e in graph.in_edges(node) {
                if e.distance == 0 {
                    t = t.max(cycle[e.src.index()] + e.latency as i64);
                }
            }
            cycle[u as usize] = t;
            next_cycle = t + 1;
            placed += 1;
            for e in graph.out_edges(node) {
                if e.distance == 0 {
                    indeg[e.dst.index()] -= 1;
                    if indeg[e.dst.index()] == 0 {
                        ready.insert(e.dst.0);
                    }
                }
            }
        }
        if placed != n {
            return Err(ScheduleError::DegenerateGraph(format!(
                "sequential order covered {placed} of {n} nodes"
            )));
        }

        // II: at least the span (so each op owns its kernel row) and enough slack
        // for every loop-carried dependence:  t(dst) + II·d  ≥  t(src) + latency.
        let mut ii = next_cycle.max(1);
        for e in graph.edges() {
            if e.distance > 0 {
                let need = cycle[e.src.index()] + e.latency as i64 - cycle[e.dst.index()];
                if need > 0 {
                    ii = ii.max((need + e.distance as i64 - 1) / e.distance as i64);
                }
            }
        }
        let ii = u32::try_from(ii).map_err(|_| {
            ScheduleError::DegenerateGraph("sequential schedule span overflows u32".to_string())
        })?;

        let res = res_mii(graph, &self.machine);
        let rec = rec_mii(graph);
        let mii = res.max(rec).max(1);
        let pool = ResourcePool::new(&self.machine);
        let mut sched = ModuloSchedule::new(&graph.name, n, ii, mii);
        for node in graph.nodes() {
            let kind = node.class.fu_kind();
            let Some(fu) = pool.fus(0, kind).next() else {
                return Err(ScheduleError::InvalidMachine(format!(
                    "graph uses {kind} units but the machine has none"
                )));
            };
            sched.place(PlacedOp {
                node: node.id,
                cycle: cycle[node.id.index()],
                cluster: 0,
                fu,
            });
        }

        // No spill code exists in this model: a register overflow here means the
        // machine cannot hold the loop's values at all.
        let max_live = cluster_max_live(graph, &sched, &self.machine);
        if max_live.first().copied().unwrap_or(0) as usize > self.machine.cluster.registers {
            return Err(ScheduleError::InvalidMachine(format!(
                "sequential fallback needs {} live values on cluster 0 but the register \
                 file holds {}",
                max_live[0], self.machine.cluster.registers
            )));
        }

        let limiting = if ii == mii && rec >= res {
            LimitingResource::Recurrence
        } else {
            LimitingResource::FunctionalUnits
        };
        Ok(ScheduledLoop {
            schedule: sched,
            diagnostics: ScheduleDiagnostics {
                ii,
                mii,
                res_mii: res,
                rec_mii: rec,
                limiting,
                ii_trajectory: Vec::new(),
                n_comms: 0,
                max_live_per_cluster: max_live,
                fuel: None,
                rung: None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vliw_arch::OpClass;
    use vliw_ddg::GraphBuilder;
    use vliw_sms::{EngineView, Trial};

    fn saxpy() -> DepGraph {
        GraphBuilder::new("saxpy")
            .iterations(100)
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
    fn healthy_primary_wins_the_top_rung() {
        let machine = MachineConfig::four_cluster(1, 1);
        let out = ResilientScheduler::new(&machine)
            .schedule(&saxpy())
            .unwrap();
        assert_eq!(out.rung(), Policy::Bsa.label());
        assert!(out.failures.is_empty());
        assert!(out.result.schedule.is_complete());
    }

    struct PanickingPolicy;
    impl ClusterPolicy for PanickingPolicy {
        fn select_placement(&mut self, _node: NodeId, _view: &mut EngineView<'_>) -> Option<Trial> {
            panic!("injected policy bug")
        }
    }

    #[test]
    fn panicking_primary_is_contained_and_the_ladder_descends() {
        let machine = MachineConfig::four_cluster(1, 1);
        let g = saxpy();
        let out = ResilientScheduler::new(&machine)
            .schedule_with_primary(&mut PanickingPolicy, "sabotaged", &g)
            .unwrap();
        assert_eq!(out.rung(), Policy::UnifiedSms.label());
        assert_eq!(out.contained_panics(), 1);
        assert_eq!(out.failures[0].rung, "sabotaged");
        assert!(matches!(
            out.failures[0].error,
            RungError::Schedule(ScheduleError::PolicyPanic { .. })
        ));
    }

    struct RefusingPolicy;
    impl ClusterPolicy for RefusingPolicy {
        fn select_placement(&mut self, _node: NodeId, _view: &mut EngineView<'_>) -> Option<Trial> {
            None
        }
    }

    #[test]
    fn exhausted_primary_falls_through_with_a_typed_error() {
        let machine = MachineConfig::four_cluster(1, 1);
        let g = saxpy();
        let out = ResilientScheduler::new(&machine)
            .schedule_with_primary(&mut RefusingPolicy, "refuser", &g)
            .unwrap();
        assert_eq!(out.rung(), Policy::UnifiedSms.label());
        assert!(matches!(
            out.failures[0].error,
            RungError::Schedule(ScheduleError::MaxIiExceeded { .. })
        ));
    }

    #[test]
    fn sequential_fallback_is_legal_and_certified() {
        let machine = MachineConfig::four_cluster(1, 1);
        let g = GraphBuilder::new("carried")
            .iterations(50)
            .node("a", OpClass::FpAdd)
            .node("b", OpClass::FpMul)
            .node("c", OpClass::Store)
            .flow("a", "b")
            .flow("b", "c")
            .flow_at("b", "a", 1)
            .build();
        let out = ResilientScheduler::new(&machine)
            .sequential_fallback(&g)
            .unwrap();
        assert!(out.schedule.is_complete());
        assert_eq!(out.diagnostics.n_comms, 0);
        let report = vliw_lint::Certifier::new(&machine).check(&g, &out.schedule, g.iterations);
        assert!(report.is_certified(), "{:?}", report.deny_ids());
        // Non-pipelined: a single stage.
        assert_eq!(out.schedule.stage_count(), 1);
    }

    #[test]
    fn empty_graph_takes_the_top_rung() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = DepGraph::new("empty");
        let out = ResilientScheduler::new(&machine).schedule(&g).unwrap();
        assert_eq!(out.rung(), Policy::Bsa.label());
    }

    #[test]
    fn invalid_graph_is_a_hard_error_not_a_descent() {
        use vliw_ddg::DepKind;
        let machine = MachineConfig::two_cluster(1, 1);
        let mut g = DepGraph::new("bad");
        let a = g.add_node(OpClass::IntAlu);
        g.add_edge(a, a, 1, 0, DepKind::Flow);
        let fail = ResilientScheduler::new(&machine).schedule(&g).unwrap_err();
        assert!(matches!(fail.error, ScheduleError::InvalidGraph(_)));
        assert!(fail.failures.is_empty());
    }

    #[test]
    fn tiny_fuel_exhausts_every_searching_rung_down_to_sequential() {
        let machine = MachineConfig::four_cluster(1, 1);
        let g = saxpy();
        let out = ResilientScheduler::new(&machine)
            .with_rung_fuel(FuelBudget::probes(1))
            .schedule(&g)
            .unwrap();
        assert_eq!(out.rung(), "sequential");
        // All three searching rungs failed on fuel.
        assert_eq!(out.failures.len(), 3);
        for f in &out.failures {
            assert!(
                matches!(
                    f.error,
                    RungError::Schedule(ScheduleError::BudgetExhausted { .. })
                ),
                "{}: {}",
                f.rung,
                f.error
            );
        }
        // The certified sequential result is flagged as such.
        assert_eq!(out.result.diagnostics.rung.as_deref(), Some("sequential"));
        let report =
            vliw_lint::Certifier::new(&machine).check(&g, &out.result.schedule, g.iterations);
        assert!(report.is_certified());
    }

    #[test]
    fn an_expired_deadline_descends_every_searching_rung_to_sequential() {
        // A generous probe budget, so only the wall-clock deadline can stop a rung.
        let machine = MachineConfig::four_cluster(1, 1);
        let g = saxpy();
        let out = ResilientScheduler::new(&machine)
            .with_rung_fuel(FuelBudget::probes(1 << 20).with_deadline(Duration::ZERO))
            .schedule(&g)
            .unwrap();
        assert_eq!(out.rung(), "sequential");
        let rungs: Vec<&str> = out.failures.iter().map(|f| f.rung.as_str()).collect();
        assert_eq!(
            rungs,
            [
                Policy::Bsa.label(),
                Policy::UnifiedSms.label(),
                Policy::LoadBalanced.label()
            ]
        );
        for f in &out.failures {
            assert!(
                matches!(
                    f.error,
                    RungError::Schedule(ScheduleError::DeadlineExpired { .. })
                ),
                "{}: {}",
                f.rung,
                f.error
            );
        }
        let report =
            vliw_lint::Certifier::new(&machine).check(&g, &out.result.schedule, g.iterations);
        assert!(report.is_certified(), "{:?}", report.deny_ids());
    }
}
