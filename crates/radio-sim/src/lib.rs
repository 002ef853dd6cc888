//! Deterministic discrete-event simulator for LoRa radio networks.
//!
//! This crate replaces the physical testbed of the LoRaMesher demo paper:
//! instead of TTGO boards on rooftops, protocol firmware runs against a
//! simulated shared radio medium with propagation loss, collisions,
//! capture effect and regulatory duty cycles, under a virtual clock.
//!
//! The design goals, in order:
//!
//! 1. **Determinism** — a simulation is a pure function of its
//!    configuration and seed. Every run with the same inputs produces the
//!    same event sequence, making experiments replayable bit-for-bit.
//! 2. **Fidelity where it matters** — time-on-air, sensitivity, SNR
//!    floors, same-SF capture and half-duplex radios are modelled exactly,
//!    because they determine mesh behaviour. RF minutiae that do not
//!    change protocol outcomes (frequency error, antenna patterns) are not.
//! 3. **Protocol neutrality** — anything implementing [`Firmware`] can be
//!    hosted, which is how the LoRaMesher core and the baseline protocols
//!    run on identical physics.
//!
//! # Architecture
//!
//! * [`time`] — the virtual clock ([`SimTime`]).
//! * [`rng`] — a seedable, forkable xoshiro256++ PRNG ([`SimRng`]).
//! * [`event`] — the deterministic event queue.
//! * [`medium`] — the shared channel: who hears whom, collisions, capture.
//! * [`link_cache`] — each node's audible set with its link budgets,
//!   filled lazily and refilled in place (the hot-path accelerator).
//! * [`grid`] — uniform spatial grid bounding each node's audibility
//!   candidates (flattens link-row fills from O(n) to local density).
//! * [`shard`] — spatial partitioning for the sharded event engine.
//! * [`par`] — deterministic fork-join helper for the worker-thread
//!   regions (`SimConfig::threads`).
//! * [`radio`] — per-node half-duplex radio state machine.
//! * [`firmware`] — the [`Firmware`] trait protocol implementations adapt to.
//! * [`topology`] — node placement generators.
//! * [`mobility`] — optional node movement models.
//! * [`sim`] — the [`Simulator`] tying it all together.
//! * [`metrics`] — PHY-level counters collected during a run.
//! * [`trace`] — a bounded structured event trace for debugging.
//!
//! # Example
//!
//! ```
//! use radio_sim::{Simulator, SimConfig, firmware::Firmware, firmware::Context};
//! use lora_phy::link::SignalQuality;
//! use lora_phy::propagation::Position;
//! use std::time::Duration;
//!
//! /// A firmware that broadcasts one frame at start-up.
//! struct Beacon;
//! impl Firmware for Beacon {
//!     fn on_start(&mut self, ctx: &mut Context) { ctx.transmit(vec![0xAB; 10]); }
//!     fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {}
//!     fn next_wake(&self) -> Option<Duration> { None }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default(), 42);
//! // Out of range of each other: both broadcasts go out unimpeded.
//! sim.add_node(Beacon, Position::new(0.0, 0.0));
//! sim.add_node(Beacon, Position::new(5000.0, 0.0));
//! sim.run_for(Duration::from_secs(1));
//! assert_eq!(sim.metrics().frames_transmitted, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A narrowing `as` cast wraps silently; addresses, lengths, seqs and
// trace values go through `try_from` or checked helpers instead.
#![deny(clippy::cast_possible_truncation)]

pub mod event;
pub mod firmware;
pub mod grid;
pub mod link_cache;
pub mod medium;
pub mod metrics;
pub mod mobility;
pub mod par;
pub mod radio;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;

pub use firmware::{Context, Firmware, NodeId};
pub use rng::SimRng;
pub use sim::{SimConfig, Simulator};
pub use time::SimTime;
