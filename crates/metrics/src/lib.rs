//! # vliw-metrics — IPC accounting, code-size modelling and result aggregation
//!
//! The paper reports three families of numbers, all computed here:
//!
//! * **IPC** (Figures 4 and 8): useful operations committed per cycle, accumulated over
//!   every innermost loop of a benchmark, weighted by iteration and invocation counts,
//!   and including prologue and epilogue overhead through the
//!   `NCYCLES = (NITER + SC − 1)·II` model ([`ipc`]);
//! * **relative IPC**: the IPC of a clustered configuration divided by the IPC of the
//!   unified configuration with the same total resources;
//! * **code size** (Figure 10): static operation slots of the emitted code — useful
//!   operations and NOPs — for the prologue, kernel and epilogue of every scheduled
//!   loop, normalised to the unified/no-unrolling configuration ([`codesize`]).
//!
//! A small text-table renderer ([`table`]) is shared by the experiment binaries so
//! every figure/table of the paper prints in a uniform format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codesize;
pub mod ipc;
pub mod table;

pub use codesize::{CodeSizeModel, CodeSizeReport};
pub use ipc::{IpcView, LoopContribution};
pub use table::TextTable;
