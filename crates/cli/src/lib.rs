//! `meshsim` — command-line driver for the loramesher-rs simulator.
//!
//! Declaratively builds a network, runs a workload, and prints the
//! delivery/latency/airtime report plus per-node protocol statistics.
//! The argument parser and the scenario execution live in this library
//! crate so they are unit-testable; `main.rs` is a thin shell.
//!
//! ```text
//! meshsim --topology line --nodes 5 --protocol mesh \
//!         --traffic pair:0:4:10 --duration 600 --seed 7
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod run;

pub use args::{Cli, ParseError, Topology, Traffic};
pub use run::{execute, RunError};
