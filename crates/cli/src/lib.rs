//! The command-line front ends of the loramesher-rs simulator, built
//! as two binaries:
//!
//! - `meshsim` declaratively builds a network, runs a workload, and
//!   prints the delivery/latency/airtime report plus per-node protocol
//!   statistics;
//! - `exp_all` prints the tables of the evaluation (E1–E13, A1–A4), or
//!   the ones named by id.
//!
//! Both take `--seed`, `--seeds`, `--jobs` and `--protocol`, parsed by
//! one function, [`args::SharedFlag::parse`]. The argument parser and
//! the scenario execution live in this library crate so they are
//! unit-testable; the binaries are thin shells.
//!
//! ```text
//! meshsim --topology line --nodes 5 --protocol mesh \
//!         --traffic pair:0:4:10 --duration 600 --seed 7
//! exp_all --quick --seeds 4 --jobs 2 e5 a2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod run;

pub use args::{Cli, ParseError, SharedFlag, Topology, Traffic};
pub use run::{execute, RunError};
