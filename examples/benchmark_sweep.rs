//! Schedule a whole SPECfp95-like benchmark corpus across the paper's machine
//! configurations and unrolling policies, and print the relative-IPC summary — a
//! miniature of Figure 8 for one benchmark.
//!
//! Run with: `cargo run --release --example benchmark_sweep [benchmark]`
//! where `benchmark` is one of tomcatv, swim, su2cor, hydro2d, mgrid, applu, turb3d,
//! apsi, fpppp, wave5 (default: hydro2d).

use clustered_vliw::core::{LoopScheduler, SelectiveUnroller, UnrollPolicy};
use clustered_vliw::metrics::{IpcView, LoopContribution, TextTable};
use clustered_vliw::prelude::*;

fn corpus_ipc<S: LoopScheduler>(corpus: &LoopCorpus, scheduler: S, policy: UnrollPolicy) -> f64 {
    let driver = SelectiveUnroller::new(scheduler);
    let mut contributions = Vec::new();
    for graph in &corpus.loops {
        let result = driver
            .schedule_with_policy(graph, policy)
            .expect("corpus loops are schedulable");
        contributions.push(LoopContribution::new(
            &result.schedule,
            result.scheduled_graph.iterations,
            result.original_ops,
            result.original_iterations,
            result.invocations,
            result.unroll_factor,
        ));
    }
    IpcView::new(&contributions).ipc()
}

fn main() {
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "hydro2d".to_string());
    let benchmark = SpecFp95::ALL
        .into_iter()
        .find(|b| b.name() == which)
        .unwrap_or_else(|| panic!("unknown benchmark '{which}'"));
    let corpus = LoopCorpus::generate(benchmark);
    println!(
        "Benchmark {} — {} innermost loops, {} dynamic operations\n",
        benchmark,
        corpus.len(),
        corpus.total_dynamic_ops()
    );

    let unified = MachineConfig::unified();
    let unified_ipc = corpus_ipc(
        &corpus,
        Scheduler::new(Policy::UnifiedSms, &unified),
        UnrollPolicy::None,
    );
    println!("Unified 12-wide machine IPC: {unified_ipc:.2}\n");

    let mut table = TextTable::new(["configuration", "policy", "IPC", "relative to unified"]);
    for clusters in [2usize, 4] {
        for buses in [1usize, 2] {
            for latency in [1u32, 2, 4] {
                let machine = MachineConfig::clustered(clusters, buses, latency);
                for policy in UnrollPolicy::ALL {
                    let ipc = corpus_ipc(&corpus, Scheduler::new(Policy::Bsa, &machine), policy);
                    table.row([
                        format!("{clusters}c/{buses}b/L{latency}"),
                        policy.label().to_string(),
                        format!("{ipc:.2}"),
                        format!("{:.3}", ipc / unified_ipc),
                    ]);
                }
            }
        }
    }
    println!("{table}");
}
