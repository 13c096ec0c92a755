//! # gals-workload
//!
//! Synthetic benchmark workloads standing in for the paper's SPEC95 and
//! MediaBench binaries (see DESIGN.md §2 for why a statistically matched
//! synthetic stream preserves the paper's effects).
//!
//! Each [`Benchmark`] carries a [`WorkloadProfile`] — instruction mix,
//! branch density and predictability, memory footprint and locality,
//! dependence structure — and [`generate`] synthesises a deterministic
//! [`gals_isa::Program`] from it. The same `(benchmark, seed)` pair always
//! yields the same program, so the synchronous baseline and the GALS
//! processor are compared on identical "binaries" exactly as in the paper.
//!
//! ```
//! use gals_workload::{generate, Benchmark};
//! use gals_isa::DynStream;
//!
//! let program = generate(Benchmark::Fpppp, 42);
//! let branches = DynStream::new(&program)
//!     .take(10_000)
//!     .filter(|d| d.op.is_branch())
//!     .count();
//! // fpppp: roughly one branch per 67 instructions.
//! assert!(branches < 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod kernels;
pub mod micro;
mod profile;

/// The program type [`generate_workload`] returns.
pub use gals_isa::Program;
pub use gen::{generate, generate_profile};
pub use kernels::{generate_workload, ProgramKernel, Workload};
pub use profile::{Benchmark, Suite, WorkloadProfile};
