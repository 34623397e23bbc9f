//! The IPC / code-size trade-off of the unrolling policies (the tension Figures 8 and
//! 10 of the paper explore): full unrolling recovers the unified IPC but inflates the
//! code, while selective unrolling keeps most of the IPC for a fraction of the growth.
//!
//! Run with: `cargo run --release --example codesize_tradeoff`

use clustered_vliw::core::{SelectiveUnroller, UnrollPolicy};
use clustered_vliw::metrics::{
    CodeSizeModel, CodeSizeReport, IpcView, LoopContribution, TextTable,
};
use clustered_vliw::prelude::*;

fn main() {
    // A bus-starved machine where unrolling matters most: 4 clusters, one 2-cycle bus.
    let machine = MachineConfig::four_cluster(1, 2);
    println!("Machine: {machine}\n");

    let corpora = [SpecFp95::Swim, SpecFp95::Hydro2d, SpecFp95::Tomcatv].map(LoopCorpus::generate);

    let mut table = TextTable::new([
        "benchmark",
        "policy",
        "IPC",
        "unrolled loops",
        "useful ops",
        "total slots (incl. NOPs)",
    ]);
    for corpus in &corpora {
        for policy in UnrollPolicy::ALL {
            let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
            let code_model = CodeSizeModel::new(&machine);
            let mut contributions = Vec::new();
            let mut code = CodeSizeReport::zero();
            let mut unrolled = 0usize;
            for graph in &corpus.loops {
                let result = driver.schedule_with_policy(graph, policy).unwrap();
                if result.unroll_factor > 1 {
                    unrolled += 1;
                }
                contributions.push(LoopContribution::new(
                    &result.schedule,
                    result.scheduled_graph.iterations,
                    result.original_ops,
                    result.original_iterations,
                    result.invocations,
                    result.unroll_factor,
                ));
                code.accumulate(
                    code_model.loop_size(&result.schedule, result.scheduled_graph.n_nodes()),
                );
            }
            table.row([
                corpus.benchmark.name().to_string(),
                policy.label().to_string(),
                format!("{:.2}", IpcView::new(&contributions).ipc()),
                format!("{unrolled}/{}", corpus.len()),
                code.useful_ops.to_string(),
                code.total_slots.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!(
        "Selective unrolling only unrolls the bus-limited loops, so it tracks the IPC of\n\
         full unrolling while its static code size stays close to the non-unrolled code\n\
         (compare the 'total slots' column across policies)."
    );
}
