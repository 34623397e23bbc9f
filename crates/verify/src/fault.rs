//! Fault-injection campaigns over the degradation ladder.
//!
//! The differential campaign ([`crate::campaign`]) asks *does the healthy stack
//! produce correct schedules?*  This module asks the complementary robustness
//! question: *when a scheduling policy misbehaves — drops its bus reservations,
//! lies about probe feasibility, burns the fuel budget, or outright panics — does
//! anything escape?*  A [`FaultyPolicy`] wraps the paper's BSA policy and injects
//! one sampled [`FaultPlan`] at a sampled placement step; the wrapped policy is
//! then wired into [`cvliw_core::ResilientScheduler`] as the primary rung, and the
//! campaign asserts the robustness layer's contract on every case:
//!
//! 1. **no fault escapes as an uncertified schedule** — every ladder output is
//!    re-certified here, *independently* of the certifier gate inside the ladder;
//! 2. **the ladder always terminates** with either a certified schedule or a typed
//!    error — never a panic, never silence;
//! 3. **every containment is reported** — a fault that fired must show up either
//!    as a recorded primary-rung failure or as a provably benign no-op.
//!
//! Any case violating one of these lands in
//! [`FaultCampaignReport::uncontained`], which a passing campaign requires to be
//! empty.  Cases derive deterministically from the campaign seed (same machines
//! and loops as the differential campaign, via [`generate_case`]), results fold in
//! case order, and the report serialises to byte-identical JSON across runs and
//! thread counts — `results/fault_campaign.json` is golden-tested like the figure
//! artifacts.

use crate::case::{generate_case, mix};
use cvliw_core::bsa::BsaPolicy;
use cvliw_core::{ResilientScheduler, RungError};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vliw_arch::MachineSpace;
use vliw_ddg::NodeId;
use vliw_sms::{ClusterPolicy, EngineView, FuelBudget, ScheduleError, Trial};

/// Rung name the sabotaged primary policy is reported under.
pub const PRIMARY_RUNG: &str = "faulty-bsa";

/// Probes a [`FaultKind::BurnFuel`] fault wastes in one burst.  Campaign budgets
/// must stay below this (see [`FaultCampaignConfig::rung_fuel_probes`]) so the
/// burst provably exhausts the rung's fuel slice.
pub const FUEL_TO_BURN: u64 = 65_536;

/// The four ways a sabotaged policy misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return the honest placement but with its bus reservations deleted: the
    /// schedule silently loses the communications it depends on.  Caught by the
    /// certifier gate (`missing-communication` / `dependence-violated`) — or
    /// provably benign when a later consumer re-requests the same transfer.
    DropComms,
    /// Lie about probe feasibility: claim the node places in a cluster the machine
    /// does not have.  Caught by the engine's trial validation
    /// ([`ScheduleError::RoguePolicy`]).
    FabricateTrial,
    /// Spend [`FUEL_TO_BURN`] probes on one node, exhausting the rung's fuel
    /// slice.  Caught by the fuel meter ([`ScheduleError::BudgetExhausted`]).
    BurnFuel,
    /// Panic mid-placement.  Caught by the ladder's panic containment
    /// ([`ScheduleError::PolicyPanic`]).
    Panic,
}

impl FaultKind {
    /// All kinds, in sampling order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::DropComms,
        FaultKind::FabricateTrial,
        FaultKind::BurnFuel,
        FaultKind::Panic,
    ];

    /// Stable label used in reports and coverage keys.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DropComms => "drop-comms",
            FaultKind::FabricateTrial => "fabricate-trial",
            FaultKind::BurnFuel => "burn-fuel",
            FaultKind::Panic => "panic",
        }
    }
}

/// One injection: which fault, and the placement step it arms at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The misbehaviour to inject.
    pub kind: FaultKind,
    /// The `select_placement` call (counted across the whole II search) at which
    /// the fault arms.  Kinds that need the inner policy's cooperation (a trial to
    /// corrupt) stay armed until a suitable step arrives.
    pub at_step: u64,
}

impl FaultPlan {
    /// Sample the plan for one case from its seed: kind uniform over
    /// [`FaultKind::ALL`], arming step in `0..8` (early enough to fire on
    /// virtually every generated loop).  The case generator's SplitMix64 mixer
    /// with fault-specific salts keeps plans independent of the case streams
    /// they ride on.
    pub fn sample(case_seed: u64) -> Self {
        let kind = FaultKind::ALL[(mix(case_seed ^ 0x00FA_0175) % 4) as usize];
        let at_step = mix(case_seed ^ 0x0057_E900) % 8;
        Self { kind, at_step }
    }
}

/// A [`ClusterPolicy`] wrapper that injects its [`FaultPlan`] exactly once and
/// otherwise delegates every call to the wrapped policy.
#[derive(Debug)]
pub struct FaultyPolicy<P> {
    inner: P,
    plan: FaultPlan,
    step: u64,
    fired: bool,
}

impl<P: ClusterPolicy> FaultyPolicy<P> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: P, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            step: 0,
            fired: false,
        }
    }

    /// Whether the fault actually fired (a plan armed past the last placement
    /// step, or waiting on a trial that never came, stays unfired).
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl<P: ClusterPolicy> ClusterPolicy for FaultyPolicy<P> {
    fn begin_ii(
        &mut self,
        graph: &vliw_ddg::DepGraph,
        machine: &vliw_arch::MachineConfig,
        ii: u32,
    ) {
        self.inner.begin_ii(graph, machine, ii);
    }

    fn begin_attempt(
        &mut self,
        graph: &vliw_ddg::DepGraph,
        machine: &vliw_arch::MachineConfig,
        ii: u32,
    ) {
        self.inner.begin_attempt(graph, machine, ii);
    }

    fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
        let step = self.step;
        self.step += 1;
        let armed = !self.fired && step >= self.plan.at_step;
        match self.plan.kind {
            FaultKind::Panic if armed => {
                self.fired = true;
                panic!("injected fault: policy panic at placement step {step}");
            }
            FaultKind::BurnFuel if armed => {
                self.fired = true;
                for _ in 0..FUEL_TO_BURN {
                    let _ = view.probe(node, 0);
                }
                self.inner.select_placement(node, view)
            }
            FaultKind::FabricateTrial if armed => {
                // Corrupt the honest trial into a placement on a cluster the
                // machine does not have; stay armed until the inner policy
                // actually produces a trial to corrupt.
                let trial = self.inner.select_placement(node, view)?;
                self.fired = true;
                Some(Trial {
                    cluster: view.machine().n_clusters,
                    ..trial
                })
            }
            FaultKind::DropComms if armed => {
                // Stay armed until a trial actually carries bus reservations.
                let mut trial = self.inner.select_placement(node, view)?;
                if !trial.comms.is_empty() {
                    self.fired = true;
                    trial.comms.clear();
                }
                Some(trial)
            }
            _ => self.inner.select_placement(node, view),
        }
    }
}

/// Configuration of one fault campaign.
#[derive(Debug, Clone)]
pub struct FaultCampaignConfig {
    /// The campaign seed; cases and fault plans derive deterministically from it.
    pub seed: u64,
    /// How many cases to inject and audit.
    pub cases: u64,
    /// The machine space to sample from.
    pub space: MachineSpace,
    /// Probe budget of every searching rung's fuel slice.  Must stay below
    /// [`FUEL_TO_BURN`] so a burn-fuel fault provably exhausts its rung.
    pub rung_fuel_probes: u64,
}

impl Default for FaultCampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0xFA17,
            cases: 256,
            space: MachineSpace::default(),
            rung_fuel_probes: 4_096,
        }
    }
}

/// One case whose fault was *not* contained — a passing campaign has none.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UncontainedFault {
    /// Campaign position of the case.
    pub case_index: u64,
    /// The case seed (regenerates machine, loop and fault plan exactly).
    pub case_seed: u64,
    /// Label of the injected fault kind.
    pub kind: String,
    /// What escaped.
    pub detail: String,
}

/// Coverage counters of one fault campaign.  All maps are ordered, so
/// serialisation is byte-deterministic for a given seed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultCoverage {
    /// Cases per injected fault kind.
    pub injected_by_kind: BTreeMap<String, u64>,
    /// Cases whose fault actually fired, per kind.
    pub fired_by_kind: BTreeMap<String, u64>,
    /// Histogram over `"<kind>/<containment>"` of how each case's fault was
    /// absorbed.
    pub containment_by_kind: BTreeMap<String, u64>,
    /// Histogram over the rung that produced each certified schedule.
    pub rungs_won: BTreeMap<String, u64>,
    /// Cases that ended in a certified schedule (ladder success).
    pub certified_results: u64,
    /// Certified schedules produced by the constructed sequential rung.
    pub sequential_fallbacks: u64,
    /// Contained panics reported across all rung failures.
    pub contained_panics: u64,
    /// Cases where the whole ladder failed with a typed error (machines that
    /// cannot execute the loop at all; never a panic, never an uncertified
    /// schedule).
    pub ladder_failures_typed: u64,
}

/// The full, deterministic output of one fault campaign — written to
/// `results/fault_campaign.json` by the `fault` binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaignReport {
    /// The campaign seed every case derives from.
    pub campaign_seed: u64,
    /// The case budget that was run.
    pub cases: u64,
    /// Probe budget of every searching rung.
    pub rung_fuel_probes: u64,
    /// Rung name the sabotaged policy ran under.
    pub primary_rung: String,
    /// Aggregate coverage counters.
    pub coverage: FaultCoverage,
    /// Every escape, in case order (empty = campaign passed).
    pub uncontained: Vec<UncontainedFault>,
}

impl FaultCampaignReport {
    /// Whether every injected fault was contained.
    pub fn passed(&self) -> bool {
        self.uncontained.is_empty()
    }
}

/// Per-case audit record, folded into the report in case order.
struct CaseRecord {
    kind: &'static str,
    fired: bool,
    containment: String,
    rung_won: Option<String>,
    contained_panics: u64,
    ladder_failed: bool,
    uncontained: Option<UncontainedFault>,
}

/// The containment channel a rung failure was absorbed through.
fn classify(error: &RungError) -> &'static str {
    match error {
        RungError::NotCertified { .. } => "caught-by-certifier",
        RungError::Schedule(ScheduleError::PolicyPanic { .. }) => "contained-panic",
        RungError::Schedule(
            ScheduleError::BudgetExhausted { .. } | ScheduleError::DeadlineExpired { .. },
        ) => "fuel-exhausted",
        RungError::Schedule(ScheduleError::RoguePolicy(_)) => "refused-rogue-trial",
        RungError::Schedule(ScheduleError::MaxIiExceeded { .. }) => "search-failed",
        RungError::Schedule(_) => "typed-error",
    }
}

/// Inject one case's fault and audit the ladder's response.
fn run_fault_case(config: &FaultCampaignConfig, index: u64) -> CaseRecord {
    let case = generate_case(config.seed, index, &config.space);
    let plan = FaultPlan::sample(case.seed);
    let kind = plan.kind.label();
    let mut policy = FaultyPolicy::new(BsaPolicy::new(), plan);
    let ladder = ResilientScheduler::new(&case.machine)
        .with_rung_fuel(FuelBudget::probes(config.rung_fuel_probes));
    let outcome = ladder.schedule_with_primary(&mut policy, PRIMARY_RUNG, &case.graph);
    let fired = policy.fired();

    let escape = |detail: String| UncontainedFault {
        case_index: index,
        case_seed: case.seed,
        kind: kind.to_string(),
        detail,
    };
    let mut record = CaseRecord {
        kind,
        fired,
        containment: String::new(),
        rung_won: None,
        contained_panics: 0,
        ladder_failed: false,
        uncontained: None,
    };

    match outcome {
        Ok(out) => {
            record.rung_won = Some(out.rung().to_string());
            record.contained_panics = out.contained_panics() as u64;

            // Invariant 1 — re-certify the winning schedule *independently* of the
            // ladder's own gate; a fault that slipped through both rungs and gate
            // would surface here.  (The empty graph is the one case the lints'
            // makespan model degenerates on; the ladder documents the same carve-out.)
            if case.graph.n_nodes() > 0 {
                let report = vliw_lint::Certifier::new(&case.machine).check(
                    &case.graph,
                    &out.result.schedule,
                    case.graph.iterations,
                );
                if !report.is_certified() {
                    record.uncontained = Some(escape(format!(
                        "final schedule failed independent recertification: {:?}",
                        report.deny_ids()
                    )));
                }
            }

            // Invariant 3 — a fired fault must be accounted for: either the primary
            // rung's failure is on record, or the fault was provably benign (only
            // drop-comms can heal — a later consumer re-requests the transfer).
            record.containment = if !fired {
                "not-fired".to_string()
            } else if out.rung() == PRIMARY_RUNG {
                if record.uncontained.is_none() && plan.kind != FaultKind::DropComms {
                    record.uncontained = Some(escape(
                        "fault fired at the primary rung yet the primary rung won".to_string(),
                    ));
                }
                "fired-benign".to_string()
            } else {
                match out.failures.iter().find(|f| f.rung == PRIMARY_RUNG) {
                    Some(failure) => classify(&failure.error).to_string(),
                    None => {
                        record.uncontained = Some(escape(
                            "fault fired but no primary-rung failure was recorded".to_string(),
                        ));
                        "unreported".to_string()
                    }
                }
            };

            // Each kind must be absorbed through its designed channel.  Drop-comms
            // is the one kind whose effect can be masked by unrelated failures
            // (a fuel- or search-limited primary), so any typed containment counts.
            if fired && record.uncontained.is_none() {
                let expected = match plan.kind {
                    FaultKind::Panic => record.containment == "contained-panic",
                    FaultKind::FabricateTrial => record.containment == "refused-rogue-trial",
                    FaultKind::BurnFuel => record.containment == "fuel-exhausted",
                    FaultKind::DropComms => true,
                };
                if !expected {
                    record.uncontained = Some(escape(format!(
                        "{kind} fault was absorbed as '{}' instead of its designed channel",
                        record.containment
                    )));
                }
            }
        }
        Err(fail) => {
            // Invariant 2 — a full-ladder failure is still a *typed* terminal
            // outcome (by construction every `LadderFailure.error` is a
            // `ScheduleError`); record it without calling it an escape.
            record.ladder_failed = true;
            record.containment = "ladder-failed-typed".to_string();
            record.contained_panics = fail
                .failures
                .iter()
                .filter(|f| f.error.is_contained_panic())
                .count() as u64;
        }
    }
    record
}

/// Run a fault campaign: inject one sampled fault per case, rayon-parallel, and
/// fold the audits into a deterministic [`FaultCampaignReport`].
///
/// Cases are independent (each derives from the campaign seed and its index
/// alone) and results are folded in case order, so the report — including the
/// JSON bytes it serialises to — is identical across runs and thread counts.
pub fn run_fault_campaign(config: &FaultCampaignConfig) -> FaultCampaignReport {
    assert!(
        config.rung_fuel_probes < FUEL_TO_BURN,
        "rung fuel must stay below FUEL_TO_BURN for burn-fuel faults to exhaust their rung"
    );
    let indices: Vec<u64> = (0..config.cases).collect();
    let records: Vec<CaseRecord> = indices
        .par_iter()
        .map(|&index| run_fault_case(config, index))
        .collect();

    let mut coverage = FaultCoverage::default();
    let mut uncontained = Vec::new();
    for record in records {
        *coverage
            .injected_by_kind
            .entry(record.kind.to_string())
            .or_insert(0) += 1;
        if record.fired {
            *coverage
                .fired_by_kind
                .entry(record.kind.to_string())
                .or_insert(0) += 1;
        }
        *coverage
            .containment_by_kind
            .entry(format!("{}/{}", record.kind, record.containment))
            .or_insert(0) += 1;
        if let Some(rung) = &record.rung_won {
            coverage.certified_results += 1;
            if rung == "sequential" {
                coverage.sequential_fallbacks += 1;
            }
            *coverage.rungs_won.entry(rung.clone()).or_insert(0) += 1;
        }
        coverage.contained_panics += record.contained_panics;
        if record.ladder_failed {
            coverage.ladder_failures_typed += 1;
        }
        if let Some(u) = record.uncontained {
            uncontained.push(u);
        }
    }

    FaultCampaignReport {
        campaign_seed: config.seed,
        cases: config.cases,
        rung_fuel_probes: config.rung_fuel_probes,
        primary_rung: PRIMARY_RUNG.to_string(),
        coverage,
        uncontained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::{MachineConfig, OpClass};
    use vliw_ddg::{DepGraph, GraphBuilder};

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

    fn inject(
        kind: FaultKind,
        ladder: &ResilientScheduler,
        graph: &DepGraph,
    ) -> (
        bool,
        Result<cvliw_core::ResilientOutcome, cvliw_core::LadderFailure>,
    ) {
        let mut policy = FaultyPolicy::new(BsaPolicy::new(), FaultPlan { kind, at_step: 0 });
        let outcome = ladder.schedule_with_primary(&mut policy, PRIMARY_RUNG, graph);
        (policy.fired(), outcome)
    }

    #[test]
    fn injected_panic_is_contained_and_the_ladder_recovers() {
        let machine = MachineConfig::four_cluster(1, 1);
        let (fired, outcome) = inject(
            FaultKind::Panic,
            &ResilientScheduler::new(&machine),
            &saxpy(),
        );
        let out = outcome.unwrap();
        assert!(fired);
        assert_ne!(out.rung(), PRIMARY_RUNG);
        assert_eq!(out.contained_panics(), 1);
        let primary = &out.failures[0];
        assert_eq!(primary.rung, PRIMARY_RUNG);
        assert_eq!(classify(&primary.error), "contained-panic");
    }

    #[test]
    fn fabricated_trial_is_refused_as_a_rogue_policy() {
        let machine = MachineConfig::four_cluster(1, 1);
        let (fired, outcome) = inject(
            FaultKind::FabricateTrial,
            &ResilientScheduler::new(&machine),
            &saxpy(),
        );
        let out = outcome.unwrap();
        assert!(fired);
        assert_ne!(out.rung(), PRIMARY_RUNG);
        assert_eq!(classify(&out.failures[0].error), "refused-rogue-trial");
    }

    #[test]
    fn burned_fuel_exhausts_only_the_primary_rungs_slice() {
        let machine = MachineConfig::four_cluster(1, 1);
        let ladder = ResilientScheduler::new(&machine).with_rung_fuel(FuelBudget::probes(256));
        let (fired, outcome) = inject(FaultKind::BurnFuel, &ladder, &saxpy());
        let out = outcome.unwrap();
        assert!(fired);
        assert_eq!(classify(&out.failures[0].error), "fuel-exhausted");
        // The fallback rung ran under its own fresh slice and succeeded.
        assert_ne!(out.rung(), PRIMARY_RUNG);
        assert!(out.result.schedule.is_complete());
    }

    #[test]
    fn dropped_comms_are_caught_before_any_schedule_escapes() {
        // Force cross-cluster traffic: four single-FU clusters cannot hold saxpy
        // on one cluster at its MII, so BSA's trials carry bus reservations.
        let machine = MachineConfig::four_cluster(1, 1);
        let (fired, outcome) = inject(
            FaultKind::DropComms,
            &ResilientScheduler::new(&machine),
            &saxpy(),
        );
        let out = outcome.unwrap();
        assert!(fired, "no trial ever carried a communication to drop");
        // Whatever won, it must re-certify cleanly.
        let report = vliw_lint::Certifier::new(&machine).check(
            &saxpy(),
            &out.result.schedule,
            saxpy().iterations,
        );
        assert!(report.is_certified(), "{:?}", report.deny_ids());
        // And if the corrupted attempt made it to the gate, the certifier refused it.
        if out.rung() != PRIMARY_RUNG {
            assert_eq!(classify(&out.failures[0].error), "caught-by-certifier");
        }
    }

    #[test]
    fn a_small_fault_campaign_contains_every_fault() {
        let config = FaultCampaignConfig {
            cases: 48,
            ..FaultCampaignConfig::default()
        };
        let report = run_fault_campaign(&config);
        assert!(report.passed(), "escapes: {:?}", report.uncontained);
        let c = &report.coverage;
        assert_eq!(c.injected_by_kind.values().sum::<u64>(), 48);
        // All four kinds sampled, and most faults actually fire.
        assert_eq!(c.injected_by_kind.len(), 4, "{c:?}");
        assert!(c.fired_by_kind.len() >= 3, "{c:?}");
        assert_eq!(
            c.certified_results + c.ladder_failures_typed,
            48,
            "every case must terminate in a certified schedule or a typed error"
        );
        assert!(c.certified_results > 0);
    }

    #[test]
    fn fault_campaigns_are_bitwise_deterministic() {
        let config = FaultCampaignConfig {
            cases: 24,
            ..FaultCampaignConfig::default()
        };
        let a = run_fault_campaign(&config);
        let b = run_fault_campaign(&config);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn reports_roundtrip_through_json() {
        let report = run_fault_campaign(&FaultCampaignConfig {
            cases: 8,
            ..FaultCampaignConfig::default()
        });
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: FaultCampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
