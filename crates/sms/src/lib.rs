//! # vliw-sms — Swing Modulo Scheduling substrate
//!
//! This crate implements the machinery shared by every modulo scheduler in the
//! repository:
//!
//! * [`mrt::ModuloReservationTable`] — the II-column reservation table (functional
//!   units *and* buses are rows, exactly as the paper treats them);
//! * [`ordering`] — the Swing Modulo Scheduling node ordering (Llosa et al., PACT'96),
//!   which the paper reuses verbatim: nodes of the most constraining recurrences first,
//!   neighbours kept close, and every node preceded in the order only by its
//!   predecessors or only by its successors (except when a new disconnected subgraph
//!   starts);
//! * [`pressure`] — value lifetimes and the `MaxLive` register-pressure estimate used
//!   to discard clusters whose register file would overflow (no spill code is
//!   generated, as in the paper), kept incrementally by the
//!   [`pressure::PressureTracker`]; its from-scratch fold
//!   ([`pressure::PressureTracker::of_schedule`]) backs [`cluster_max_live`];
//! * [`schedule::ModuloSchedule`] — the result type: per-node placement (cycle,
//!   cluster, functional unit), inter-cluster communications (bus, cycle), initiation
//!   interval, stage count, kernel emission as a [`vliw_arch::VliwProgram`] and the
//!   `NCYCLES = (NITER + SC − 1)·II` cycle model of Section 4;
//! * [`comm`] — inter-cluster communication requests and the bus allocator;
//! * [`engine`] — the shared scheduling engine: the [`engine::IiSearchDriver`] owns
//!   the MII→max-II retry loop, ordering fallbacks, scratch reuse and register
//!   checking, parameterized by a [`engine::ClusterPolicy`] that encapsulates only
//!   the cluster-assignment strategy.  Every scheduler in the repository (BSA, N&E
//!   and the ablations) is a thin policy on this engine; the unified-machine SMS
//!   reference, the IPC baseline of every experiment, is
//!   [`engine::IiSearchDriver::schedule_unified`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod comm;
pub mod containment;
pub mod engine;
pub mod fuel;
pub mod mrt;
pub mod ordering;
pub mod pressure;
pub mod schedule;
pub mod slots;

pub use comm::{required_comms, CommRequest};
pub use containment::{contain, contain_schedule};
pub use engine::{
    ClusterPolicy, EngineView, FixedAssignmentPolicy, IiSearchDriver, IiStep, LimitingResource,
    Probe, ScheduleDiagnostics, ScheduledLoop, Trial,
};
pub use fuel::{Deadline, FuelBudget, FuelMeter, FuelSpent, FuelStop};
pub use mrt::{ModuloReservationTable, Reservation};
pub use ordering::sms_order;
pub use pressure::{cluster_max_live, PressureTracker};
pub use schedule::{
    CommPlacement, ModuloSchedule, PlacedOp, ScheduleCheckpoint, ScheduleError, SlotMap,
};
pub use slots::{early_start, late_start, SlotScan};

/// Hard cap on the initiation interval explored by the schedulers: `MAX_II_FACTOR ×
/// MII + MAX_II_SLACK`.  A loop that cannot be scheduled within this budget is reported
/// as a [`ScheduleError`] instead of looping forever.
pub const MAX_II_FACTOR: u32 = 8;
/// Additive slack applied on top of [`MAX_II_FACTOR`].
pub const MAX_II_SLACK: u32 = 32;

/// The maximum II the schedulers will try for a loop with the given minimum II.
pub fn max_ii(mii: u32) -> u32 {
    mii.saturating_mul(MAX_II_FACTOR)
        .saturating_add(MAX_II_SLACK)
}

/// Tests of the unified-machine SMS reference,
/// [`IiSearchDriver::schedule_unified`].
#[cfg(test)]
mod unified;

/// Tests of the Section-5.1 lifetime model itself (see [`pressure`]), run on the
/// tracker's from-scratch fold.
#[cfg(test)]
mod lifetime {
    mod tests;
}
