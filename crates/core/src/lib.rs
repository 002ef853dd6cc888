//! `loramesher` — a Rust implementation of the LoRaMesher mesh protocol.
//!
//! LoRaMesher (Solé, Miralles, Centelles, Freitag — ICDCS 2022 demo) is a
//! library that runs on LoRa IoT nodes and forms a mesh network among
//! them: every node periodically broadcasts its routing table, a
//! distance-vector protocol builds multi-hop routes from those broadcasts,
//! and data packets are forwarded hop by hop with every node acting as a
//! router. On top of the datagram service a reliable transfer protocol
//! moves payloads larger than a single LoRa frame.
//!
//! This crate is **sans-IO**: [`MeshNode`] is a pure state machine driven
//! through the [`driver::NodeProtocol`] interface — feed it received
//! frames, timer expirations and radio completions via callbacks; it
//! pushes radio requests (transmit / channel-activity-detection) into
//! the per-callback [`driver::RadioIo`] context. The same state machine
//! runs unchanged under the `radio-sim` discrete-event simulator and
//! could be dropped onto real SX127x hardware behind a thin shim — the
//! crate builds without `std` (`--no-default-features`, requires
//! `alloc`).
//!
//! # Module map
//!
//! * [`addr`] — 16-bit node addresses.
//! * [`cast`] — checked narrowing conversions (no truncating `as`).
//! * [`packet`] — the packet types of the protocol.
//! * [`codec`] — the compact wire format (7–12 byte headers).
//! * [`routing`] — the distance-vector routing table and its hop-count
//!   [`routing::RoutingPolicy`].
//! * [`config`] — [`MeshConfig`] and its builder.
//! * [`queue`] — the prioritised transmit queue.
//! * [`mac`] — CAD-based listen-before-talk with exponential backoff,
//!   duty-cycle and dwell gating, and frame emission: the one
//!   channel-access type every stack owns.
//! * [`reliable`] — the large-payload transfer state machines.
//! * [`stack`] — [`MeshNode`]: the MAC/routing/transport/app layers tied
//!   together over the intra-node bus.
//! * [`flood`] — [`FloodNode`]: Meshtastic-style managed flooding as a
//!   second first-class stack over the same bus and MAC.
//! * [`driver`] — the sans-IO host interface every stack implements,
//!   and the substrate contract they share.
//! * [`stats`] — per-node protocol counters.
//! * [`error`] — error types.
//!
//! # Example
//!
//! ```
//! use loramesher::{Address, MeshConfig, MeshNode};
//! use loramesher::driver::{NodeProtocol, RadioIo};
//! use std::time::Duration;
//!
//! let config = MeshConfig::builder(Address::new(0x0001)).build();
//! let mut node = MeshNode::new(config);
//! // Starting the node schedules its first routing broadcast.
//! let mut io = RadioIo::new(Duration::ZERO);
//! node.on_start(&mut io);
//! assert!(io.take_requests().is_empty());
//! assert!(node.next_wake().is_some());
//! ```

#![cfg_attr(not(feature = "std"), no_std)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// A narrowing `as` cast wraps silently; addresses, lengths, seqs and
// trace values go through `try_from` or checked helpers instead.
#![deny(clippy::cast_possible_truncation)]
// Over-the-air input must never panic the node: decode and dispatch
// return `Err` or drop the frame instead.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

extern crate alloc;

pub mod addr;
pub mod cast;
pub mod codec;
pub mod config;
pub mod driver;
pub mod error;
pub mod flood;
pub mod mac;
pub mod packet;
pub mod queue;
pub mod reliable;
pub mod rng;
pub mod role;
pub mod routing;
pub mod stack;
pub mod stats;

pub use addr::Address;
pub use config::{MeshConfig, MeshConfigBuilder};
pub use driver::{NodeProtocol, RadioIo, RadioRequest};
pub use error::{CodecError, SendError};
pub use flood::{FloodConfig, FloodMessage, FloodNode, FloodStats};
pub use packet::{Packet, PacketKind};
pub use role::Role;
pub use routing::{Route, RoutingTable};
pub use stack::{MeshEvent, MeshNode};
pub use stats::NodeStats;
