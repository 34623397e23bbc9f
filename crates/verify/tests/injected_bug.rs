//! End-to-end check of the verification subsystem's detection power: inject a
//! scheduler bug — a dropped bus reservation, the classic clustered-scheduling
//! mistake — and assert that the differential oracle catches it and that the
//! shrinker reduces the failing case to a minimal reproducer.
//!
//! The faulty policy wraps the real BSA policy and silently discards one of the bus
//! transfers each placement requested.  The engine then neither reserves the bus nor
//! records the communication, so the produced schedule has a value crossing clusters
//! with no transfer carrying it — statically a `missing-communication` lint, dynamically an
//! operand that is never available in the consumer's cluster.

use cvliw_core::bsa::BsaPolicy;
use vliw_arch::MachineConfig;
use vliw_ddg::{DepGraph, NodeId};
use vliw_sim::{check_schedule, verification_iterations, Finding};
use vliw_sms::{ClusterPolicy, EngineView, IiSearchDriver, ScheduledLoop, Trial};
use vliw_verify::{generate_case, shrink_case, ShrunkRepro, ViolationReport};
use vliw_workloads::{GeneratorProfile, LoopGenerator};

/// BSA with an injected bug: the last bus transfer of every committed placement is
/// silently dropped.
struct DroppedBusReservation(BsaPolicy);

impl DroppedBusReservation {
    fn new() -> Self {
        Self(BsaPolicy::new())
    }
}

impl ClusterPolicy for DroppedBusReservation {
    fn begin_ii(&mut self, graph: &DepGraph, machine: &MachineConfig, ii: u32) {
        self.0.begin_ii(graph, machine, ii);
    }

    fn begin_attempt(&mut self, graph: &DepGraph, machine: &MachineConfig, ii: u32) {
        self.0.begin_attempt(graph, machine, ii);
    }

    fn select_placement(&mut self, node: NodeId, view: &mut EngineView<'_>) -> Option<Trial> {
        let mut trial = self.0.select_placement(node, view)?;
        trial.comms.pop(); // the bug: one requested transfer never reaches the engine
        Some(trial)
    }
}

fn faulty_schedule(machine: &MachineConfig, graph: &DepGraph) -> Option<ScheduledLoop> {
    IiSearchDriver::new(machine)
        .schedule(graph, &mut DroppedBusReservation::new())
        .ok()
}

/// The failure predicate the shrinker re-evaluates: the faulty scheduler still
/// produces a schedule that fails the differential audit.
fn faulty_still_fails(machine: &MachineConfig, graph: &DepGraph) -> bool {
    if graph.validate().is_err() {
        return false;
    }
    match faulty_schedule(machine, graph) {
        Some(out) => !check_schedule(
            machine,
            graph,
            &out.schedule,
            verification_iterations(graph),
        )
        .is_clean(),
        None => false,
    }
}

/// A deterministic (machine, loop) pair on which correct BSA needs bus transfers —
/// scanned from seeded generator output so the test does not depend on hand-tuned
/// structure.
fn failing_pair() -> (MachineConfig, DepGraph) {
    let machine = MachineConfig::two_cluster(2, 1);
    for seed in 0..64u64 {
        let graph = LoopGenerator::new(GeneratorProfile::default(), seed).generate("inj");
        if faulty_still_fails(&machine, &graph) {
            return (machine, graph);
        }
    }
    panic!("no generated loop triggered the injected bug on {machine}");
}

#[test]
fn the_injected_bug_is_caught_by_the_differential_oracle() {
    let (machine, graph) = failing_pair();

    // Sanity: the *correct* scheduler verifies clean on the same pair.
    let good = IiSearchDriver::new(&machine)
        .schedule(&graph, &mut BsaPolicy::new())
        .expect("correct BSA schedules the loop");
    let clean = check_schedule(
        &machine,
        &graph,
        &good.schedule,
        verification_iterations(&graph),
    );
    assert!(clean.is_clean(), "{:?}", clean.findings);

    // The faulty scheduler produces a schedule the oracle rejects, with the
    // signature findings of a dropped transfer.
    let bad = faulty_schedule(&machine, &graph).expect("faulty BSA still schedules");
    let report = check_schedule(
        &machine,
        &graph,
        &bad.schedule,
        verification_iterations(&graph),
    );
    assert!(!report.is_clean());
    assert!(
        report.findings.iter().any(|f| matches!(
            f,
            Finding::StaticViolation { lint, .. } if lint == "missing-communication"
        )),
        "expected a missing-communication, got {:?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::ExecutionError { .. })),
        "the replay must also notice the operand never arriving: {:?}",
        report.findings
    );
}

#[test]
fn the_injected_bug_shrinks_to_a_minimal_reproducer() {
    let (machine, graph) = failing_pair();
    let original_nodes = graph.n_nodes();

    let result = shrink_case(&machine, &graph, faulty_still_fails, 4_000);

    // Still failing, and strictly smaller than the raw case.
    assert!(faulty_still_fails(&result.machine, &result.graph));
    assert!(
        result.graph.n_nodes() < original_nodes,
        "shrinker removed nothing ({original_nodes} nodes)"
    );
    // A dropped-transfer bug needs very little structure: a producer, a consumer
    // that the scheduler splits across clusters, and the edge between them.
    assert!(
        result.graph.n_nodes() <= 6,
        "reproducer still has {} nodes",
        result.graph.n_nodes()
    );
    assert!(result.graph.n_edges() <= result.graph.n_nodes() + 2);

    // The reproducer is a self-contained, serialisable artifact.
    let repro = ViolationReport {
        case_index: 0,
        case_seed: 0,
        policy: "bsa-dropped-bus".to_string(),
        machine,
        loop_name: result.graph.name.clone(),
        findings: Vec::new(),
        rejected: None,
        shrunk: ShrunkRepro {
            n_nodes: result.graph.n_nodes(),
            n_edges: result.graph.n_edges(),
            machine: result.machine.clone(),
            graph: result.graph.clone(),
            shrink_checks: result.checks,
        },
    };
    let json = serde_json::to_string_pretty(&repro).unwrap();
    let back: ViolationReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.shrunk.graph, result.graph);
    assert_eq!(back.shrunk.machine, result.machine);
}

#[test]
fn fuzz_cases_also_trigger_the_injected_bug() {
    // The campaign's own case generator (not just the corpus generator) produces
    // cases that expose the bug — i.e. the sampled space genuinely exercises the
    // bus machinery.
    let space = vliw_arch::MachineSpace::default();
    let mut hits = 0usize;
    for index in 0..48 {
        let case = generate_case(0xB06, index, &space);
        if case.machine.is_clustered() && faulty_still_fails(&case.machine, &case.graph) {
            hits += 1;
        }
    }
    assert!(
        hits >= 3,
        "only {hits}/48 fuzz cases exercised the dropped bus reservation"
    );
}
