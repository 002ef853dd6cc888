//! The cross-layer protocol abstraction: one trait that names a
//! complete, swappable stack.
//!
//! The crate now ships two first-class protocols over the same shared
//! substrate:
//!
//! * [`LoraMesher`] — the distance-vector stack of the source paper
//!   ([`crate::stack`]): hello broadcasts, routed unicast forwarding
//!   and the reliable large-payload transport.
//! * [`Flooding`] — Meshtastic-style managed flooding
//!   ([`crate::flood`]): no routing state, duplicate-suppressed
//!   rebroadcast with a decrementing hop limit.
//!
//! A [`Protocol`] implementation is the *composition choice*: which
//! routing daemon (or none), which forwarding policy, which transport
//! and which application codec run above the shared MAC. What the
//! protocols may NOT vary is the substrate contract:
//!
//! # The substrate contract
//!
//! Every protocol stack is a sans-IO [`NodeProtocol`] state machine and
//! must preserve the properties the simulator's determinism proofs
//! (`tests/shard_diff.rs`, `tests/protocol_refactor_diff.rs`) rest on:
//!
//! 1. **Shared channel access.** All frame emission goes through
//!    [`crate::mac::Mac`], built from the region by one constructor —
//!    CAD/backoff/duty-cycle/dwell behaviour is identical across
//!    protocols (the star baseline included), so cross-protocol
//!    experiments measure protocol overhead, not MAC drift.
//! 2. **One RNG per node.** Every random draw comes from the node's
//!    single [`crate::rng::ProtocolRng`] (owned by the bus), in an
//!    order fixed by the dispatch rules below — a seed fully determines
//!    a node's behaviour.
//! 3. **Frozen dispatch order.** Each stack documents a fixed
//!    `process_due` order (see [`crate::stack`] and [`crate::flood`]
//!    module docs) and dispatches host callbacks the same way every
//!    time. No ambient time, no ambient randomness (meshlint rule D2),
//!    no iteration over hashed collections (rule D1).
//! 4. **Panic-free on hostile input.** `on_frame` consumes
//!    over-the-air bytes; decode failures are counted, never unwrapped
//!    (rule R1).
//!
//! Hosts that are generic over the stack (the simulator's firmware
//! adapter, the CLI) pick a protocol by [`Protocol::NAME`] and build
//! nodes through [`Protocol::build`], never touching concrete types.

use core::fmt::Debug;

use crate::config::MeshConfig;
use crate::driver::NodeProtocol;
use crate::flood::{FloodConfig, FloodNode};
use crate::stack::MeshNode;

/// A complete protocol stack: the per-layer composition a host can
/// instantiate nodes from. See the [module docs](self) for the contract
/// every implementation must honour.
pub trait Protocol {
    /// The stack's node configuration.
    type Config;
    /// The node state machine the host drives.
    type Node: NodeProtocol + Send + Debug;

    /// The stack's canonical name, as accepted by `meshsim --protocol`
    /// and printed in experiment reports.
    const NAME: &'static str;

    /// Builds one node of this protocol from its configuration.
    fn build(config: Self::Config) -> Self::Node;
}

/// The LoRaMesher distance-vector stack (the paper's protocol).
#[derive(Clone, Copy, Debug, Default)]
pub struct LoraMesher;

impl Protocol for LoraMesher {
    type Config = MeshConfig;
    type Node = MeshNode;

    const NAME: &'static str = "loramesher";

    fn build(config: MeshConfig) -> MeshNode {
        MeshNode::new(config)
    }
}

/// The managed-flooding stack (Meshtastic-style).
#[derive(Clone, Copy, Debug, Default)]
pub struct Flooding;

impl Protocol for Flooding {
    type Config = FloodConfig;
    type Node = FloodNode;

    const NAME: &'static str = "flooding";

    fn build(config: FloodConfig) -> FloodNode {
        FloodNode::new(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;
    use crate::driver::RadioIo;
    use core::time::Duration;
    use lora_phy::region::Region;

    /// Generic host code compiles and runs against both stacks.
    fn boot<P: Protocol>(config: P::Config) -> P::Node {
        let mut node = P::build(config);
        let mut io = RadioIo::new(Duration::ZERO);
        node.on_start(&mut io);
        node
    }

    #[test]
    fn both_stacks_build_through_the_trait() {
        let mesh = boot::<LoraMesher>(
            MeshConfig::builder(Address::new(1))
                .region(Region::Unlimited)
                .build(),
        );
        assert!(mesh.next_wake().is_some(), "mesh schedules its hello");
        let flood = boot::<Flooding>({
            let mut c = FloodConfig::new(Address::new(2));
            c.region = Region::Unlimited;
            c
        });
        assert!(flood.next_wake().is_none(), "flooding is purely reactive");
    }

    #[test]
    fn names_are_the_cli_spellings() {
        assert_eq!(LoraMesher::NAME, "loramesher");
        assert_eq!(Flooding::NAME, "flooding");
    }
}
