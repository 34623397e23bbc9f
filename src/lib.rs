//! # clustered-vliw
//!
//! Umbrella crate for the reproduction of *"The Effectiveness of Loop Unrolling for
//! Modulo Scheduling in Clustered VLIW Architectures"* (J. Sánchez and A. González,
//! ICPP 2000).
//!
//! The individual subsystems live in their own crates; this crate simply re-exports
//! them under stable names so that examples, integration tests and downstream users
//! can depend on a single entry point.
//!
//! ```
//! use clustered_vliw::prelude::*;
//!
//! // Build the 4-cluster machine of Table 1 with one 1-cycle bus.
//! let machine = MachineConfig::clustered(4, 1, 1);
//! // Schedule the worked example of Figure 7 of the paper.
//! let graph = paper_example_loop();
//! let schedule = Scheduler::new(Policy::Bsa, &machine)
//!     .schedule(&graph)
//!     .expect("schedulable");
//! assert!(schedule.ii() >= clustered_vliw::ddg::mii(&graph, &machine));
//! ```

#![forbid(unsafe_code)]

pub use cvliw_core as core;
pub use vliw_arch as arch;
pub use vliw_ddg as ddg;
pub use vliw_lint as lint;
pub use vliw_metrics as metrics;
pub use vliw_sim as sim;
pub use vliw_sms as sms;
pub use vliw_timing as timing;
pub use vliw_verify as verify;
pub use vliw_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use cvliw_core::{ClusterSchedule, Policy, Scheduler, SelectiveUnroller, UnrollPolicy};
    pub use vliw_arch::{BusConfig, FuKind, MachineConfig, Operation};
    pub use vliw_ddg::{DepGraph, DepKind, Edge, Node, NodeId};
    pub use vliw_metrics::{CodeSizeModel, IpcView};
    pub use vliw_sim::KernelSimulator;
    pub use vliw_sms::ModuloSchedule;
    pub use vliw_timing::{CycleTimeModel, PalacharlaModel};
    pub use vliw_workloads::{paper_example_loop, LoopCorpus, SpecFp95};
}
