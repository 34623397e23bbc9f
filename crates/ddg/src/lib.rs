//! # vliw-ddg — data dependence graphs for innermost loops
//!
//! Modulo scheduling consumes a *data dependence graph* (DDG) of the loop body: one
//! node per operation, one edge per dependence.  Every edge carries
//!
//! * a **latency** — the minimum number of cycles that must elapse between the issue of
//!   the producer and the issue of the consumer, and
//! * a **distance** — the number of loop iterations separating producer and consumer
//!   (0 for intra-iteration dependences, ≥ 1 for loop-carried ones).
//!
//! Under an initiation interval `II` a schedule `σ` is legal iff, for every edge
//! `u → v`, `σ(v) ≥ σ(u) + latency(u→v) − II · distance(u→v)`.
//!
//! This crate provides:
//!
//! * the graph representation itself ([`DepGraph`], [`Node`], [`Edge`], [`DepKind`])
//!   with a fluent [`builder::GraphBuilder`];
//! * lower bounds on the initiation interval ([`mii()`]): the resource-constrained
//!   `ResMII` and the recurrence-constrained `RecMII`;
//! * strongly-connected-component / recurrence analysis ([`scc`]);
//! * scheduling-priority metrics (ASAP/ALAP/depth/height, [`analysis`]);
//! * the **loop unrolling** transform used by the paper's selective-unrolling policy
//!   ([`unroll()`]);
//! * Graphviz export for debugging ([`dot`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod builder;
pub mod dot;
pub mod graph;
pub mod mii;
pub mod scc;
pub mod unroll;

pub use analysis::GraphAnalysis;
pub use builder::GraphBuilder;
pub use graph::{DepGraph, DepKind, Edge, EdgeId, Node, NodeId};
pub use mii::{mii, missing_fu_kind, rec_mii, res_mii};
pub use scc::{recurrences, sccs, Recurrence};
pub use unroll::{unroll, unroll_exact, unroll_exact_with, UnrollScratch, UnrolledLoop};
