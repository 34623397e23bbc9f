//! # cvliw-core — cluster-oriented modulo scheduling with selective loop unrolling
//!
//! This crate implements the contribution of *"The Effectiveness of Loop Unrolling for
//! Modulo Scheduling in Clustered VLIW Architectures"* (Sánchez & González, ICPP 2000):
//!
//! * [`Policy`] / [`Scheduler`] — the one way to name and run a scheduler.  The five
//!   policies share the II search of [`vliw_sms::IiSearchDriver`] and differ only in
//!   the cluster each node goes to:
//!   * [`Policy::Bsa`] — the **Basic Scheduling Algorithm** of Figure 5
//!     ([`bsa::BsaPolicy`]), which performs cluster assignment and instruction
//!     scheduling in a single pass, choosing for every node the cluster that
//!     minimises the outgoing communication edges while a functional-unit slot, the
//!     needed bus transfers and the register file all fit;
//!   * [`Policy::NystromEichenberger`] — the two-phase (cluster assignment, then
//!     scheduling) baseline in the style of Nystrom & Eichenberger used for the
//!     comparison in Figure 4 ([`ne::NePolicy`]);
//!   * [`Policy::UnifiedSms`] — the unified-machine SMS reference every IPC is
//!     measured against;
//!   * [`Policy::RoundRobin`] / [`Policy::LoadBalanced`] — the ablations of
//!     [`ablation`];
//! * [`SelectiveUnroller`] / [`UnrollPolicy`] — the loop-unrolling policies of
//!   Section 5.2, including the **selective unrolling** heuristic of Figure 6 that
//!   unrolls (by the number of clusters) only the loops whose schedule is limited by
//!   the communication buses, generalized to a factor-parameterized space
//!   (`Fixed(u)` with exact remainder accounting, and `Explore { max_factor }`,
//!   which schedules candidate factors and keeps the best one under a code-size
//!   budget);
//! * [`ResilientScheduler`] — a degradation ladder over the policies that always
//!   returns a certified schedule or a typed error;
//! * [`ClusterSchedule`] / [`LoopScheduler`] — result type and scheduler abstraction
//!   shared by the experiment harness.
//!
//! ## Quick example
//!
//! ```
//! use cvliw_core::{Policy, Scheduler, SelectiveUnroller, UnrollPolicy};
//! use vliw_arch::{MachineConfig, OpClass};
//! use vliw_ddg::GraphBuilder;
//!
//! // The 4-cluster machine of Table 1 with one 1-cycle bus.
//! let machine = MachineConfig::four_cluster(1, 1);
//!
//! // A small dependence graph: y[i] = a*x[i] + y[i].
//! let graph = GraphBuilder::new("saxpy")
//!     .iterations(1000)
//!     .node("lx", OpClass::Load)
//!     .node("ly", OpClass::Load)
//!     .node("mul", OpClass::FpMul)
//!     .node("add", OpClass::FpAdd)
//!     .node("st", OpClass::Store)
//!     .flow("lx", "mul")
//!     .flow("mul", "add")
//!     .flow("ly", "add")
//!     .flow("add", "st")
//!     .build();
//!
//! let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
//! let result = driver.schedule_with_policy(&graph, UnrollPolicy::Selective).unwrap();
//! assert!(result.schedule.is_complete());
//! assert!(result.ipc() > 0.0);
//!
//! // The unified-machine reference, on the machine's unified counterpart.
//! let unified = Policy::UnifiedSms.schedule(&machine, &graph).unwrap();
//! assert!(unified.schedule.is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod bsa;
pub mod ne;
pub mod resilient;
pub mod result;
pub mod scheduler;
pub mod unroll_policy;

pub use ablation::load_balanced_assignment;
pub use resilient::{LadderFailure, ResilientOutcome, ResilientScheduler, RungError, RungFailure};
pub use result::{ClusterSchedule, LoopScheduler, RemainderEpilogue};
pub use scheduler::{Policy, Scheduler};
pub use unroll_policy::{SelectiveUnroller, UnrollPolicy, DEFAULT_EXPLORE_CODE_GROWTH};
