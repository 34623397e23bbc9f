//! # vliw-sim — cycle-level validation and execution of modulo schedules
//!
//! The schedulers in this repository produce [`vliw_sms::ModuloSchedule`]s; this crate
//! is the executable oracle that checks them:
//!
//! * [`executor::KernelSimulator`] replays the software-pipelined loop cycle by cycle
//!   for a configurable number of iterations, verifying at *execution* time that every
//!   operand has actually been produced (and transported) before it is consumed, and
//!   reporting cycle counts, functional-unit utilisation and bus traffic;
//! * [`differential::check_schedule`] runs that replay next to the static
//!   [`vliw_lint::Certifier`] (dependence distances including bus latency, FU and bus
//!   reservation conflicts, missing communications, register-file capacity) and the
//!   closed-form cycle cross-checks, as one differential audit of a scheduled loop:
//!   the simulated makespan must equal [`vliw_lint::static_makespan`] exactly, and the
//!   analytic `NCYCLES = (NITER + SC − 1)·II` used by the IPC accounting must sit
//!   within its provable window of the measured makespan.  The fuzzing campaigns of
//!   `vliw-verify` and the figure audit of `vliw-bench`'s `lint` binary are built
//!   on this audit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod differential;
pub mod executor;
mod validate;

pub use differential::{
    check_schedule, check_schedule_with, verification_iterations, DifferentialReport, Finding,
};
pub use executor::{KernelSimulator, SimulationReport};
