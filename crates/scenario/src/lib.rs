//! Experiment scenarios for the LoRaMesher reproduction.
//!
//! This crate is the glue between the protocol implementations
//! (`loramesher`, `mesh-baselines`) and the `radio-sim` simulator, plus
//! the experiment definitions every table and figure of the evaluation is
//! generated from:
//!
//! * [`adapter`] — hosts any [`loramesher::driver::NodeProtocol`] as
//!   simulator firmware, logging application events with timestamps.
//! * [`workload`] — traffic generators (periodic sensors, Poisson
//!   arrivals, bulk transfers).
//! * [`runner`] — builds a network, injects traffic, and produces a
//!   [`runner::TrafficReport`] with delivery/latency/airtime statistics.
//! * [`experiments`] — the parameter sweeps E1–E13 and ablations A1–A4
//!   from DESIGN.md, each
//!   returning a printable [`report::ExpTable`].
//! * [`report`] — table formatting (text, markdown, CSV) shared by
//!   `exp_all` and EXPERIMENTS.md.
//! * [`sweep`] — the parallel multi-seed sweep engine: shards a
//!   parameter grid × seed set across a worker pool and reduces each
//!   cell to mean / stddev / min / max / 95 % CI, independent of the
//!   thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A narrowing `as` cast wraps silently; addresses, lengths, seqs and
// trace values go through `try_from` or checked helpers instead.
#![deny(clippy::cast_possible_truncation)]

pub mod adapter;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod summary;
pub mod sweep;
pub mod workload;

pub use adapter::{AppEvent, HostedProtocol, ProtocolFirmware, ProtocolNode};
pub use report::ExpTable;
pub use runner::{NetworkBuilder, ProtocolChoice, Runner, TrafficReport};
pub use summary::Summary;
pub use sweep::{run_parallel, seed_list, CellStats};
pub use workload::{Target, TrafficEvent};
