//! Baseline LoRa network protocols for comparison against LoRaMesher.
//!
//! The demo paper motivates mesh networking against the standard LoRaWAN
//! deployment model, so the evaluation needs the non-mesh reference
//! point, implemented against the same sans-IO
//! [`loramesher::driver::NodeProtocol`] interface and reusing the same
//! CSMA MAC so every measured difference comes from the protocol design
//! and not the plumbing:
//!
//! * [`star`] — single-gateway star (LoRaWAN-style): end nodes talk
//!   directly to a gateway; nodes out of gateway range are simply
//!   unreachable.
//!
//! The managed-flooding baseline that used to live here graduated into
//! a first-class stack: see [`loramesher::flood`]. All three stacks
//! share the substrate contract of [`loramesher::driver`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod star;

pub use star::{StarConfig, StarNode};
