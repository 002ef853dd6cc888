//! Protocol networks, untraced and traced, behind one interface.
//!
//! Untraced runs use `scenario`'s own [`NetworkBuilder`] and [`Runner`]
//! — what every experiment pays. The simulator type inside a `Runner`
//! is fixed, so a traced run cannot wrap its nodes; [`TracedNet`]
//! therefore builds the same network through the same public
//! constructors with [`SpanFw`] and [`SpanNode`] in place, and repeats
//! the runner's marker-payload traffic accounting. The fingerprint
//! check (traced child against untraced children) is what keeps the
//! two in step: if `NetworkBuilder::build` or `Runner::report` change
//! behaviour, the traced fingerprint stops matching and the run fails.

use std::collections::BTreeSet;
use std::time::Duration;

use lora_phy::propagation::Position;
use lora_phy::region::Region;
use loramesher::routing::RoutingPolicy;
use loramesher::{Address, FloodConfig, FloodNode, MeshConfig, MeshNode};
use mesh_baselines::star::{StarConfig, StarNode};
use radio_sim::firmware::{Firmware, NodeId};
use radio_sim::{SimConfig, Simulator};
use scenario::adapter::{AppAction, AppEvent, ProtocolFirmware, ProtocolNode};
use scenario::runner::{NetworkBuilder, ProtocolChoice, Runner};
use scenario::workload::{Target, TrafficEvent};

use crate::span::{SpanFw, SpanNode};

/// The application-level outcome of a run: the `TrafficReport` fields
/// the fingerprint and the sweep aggregates are made of.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Traffic {
    pub sent: usize,
    pub delivered: usize,
    pub duplicates: u64,
    pub send_errors: u64,
    pub latencies: Vec<Duration>,
}

impl Traffic {
    pub fn pdr(&self) -> Option<f64> {
        (self.sent > 0).then(|| self.delivered as f64 / self.sent as f64)
    }

    /// Mean latency, by the arithmetic of `TrafficReport::mean_latency`.
    pub fn mean_latency(&self) -> Option<Duration> {
        let total: Duration = self.latencies.iter().sum();
        (!self.latencies.is_empty()).then(|| total / self.latencies.len() as u32)
    }
}

/// What the workloads need of a network, traced or not.
pub trait Net {
    /// Whether the nodes are wrapped in the timing shims.
    const TRACED: bool;
    type Fw: Firmware + Send;
    fn build(positions: Vec<Position>, protocol: ProtocolChoice, sim: SimConfig, seed: u64)
        -> Self;
    fn sim_mut(&mut self) -> &mut Simulator<Self::Fw>;
    fn apply(&mut self, events: &[TrafficEvent]);
    fn traffic(&self) -> Traffic;
    /// Σ duplicates suppressed over flooding nodes (0 on other stacks).
    fn flood_duplicates(&self) -> u64;
}

impl Net for Runner {
    const TRACED: bool = false;
    type Fw = ProtocolFirmware<ProtocolNode>;

    fn build(
        positions: Vec<Position>,
        protocol: ProtocolChoice,
        sim: SimConfig,
        seed: u64,
    ) -> Runner {
        NetworkBuilder::mesh(positions, seed)
            .sim_config(sim)
            .protocol(protocol)
            .build()
    }

    fn sim_mut(&mut self) -> &mut Simulator<Self::Fw> {
        Runner::sim_mut(self)
    }

    fn apply(&mut self, events: &[TrafficEvent]) {
        Runner::apply(self, events);
    }

    fn traffic(&self) -> Traffic {
        let r = self.report();
        Traffic {
            sent: r.sent,
            delivered: r.delivered,
            duplicates: r.duplicates,
            send_errors: r.send_errors,
            latencies: r.latencies,
        }
    }

    fn flood_duplicates(&self) -> u64 {
        (0..self.len())
            .filter_map(|i| self.flood_node(i))
            .map(|n| n.stats().duplicates_suppressed)
            .sum()
    }
}

pub type TracedFw = SpanFw<ProtocolFirmware<SpanNode>>;

/// A datagram send awaiting its deliveries (the runner's `SentRecord`).
struct Sent {
    from: usize,
    to: Target,
    at: Duration,
}

/// The traced twin of [`Runner`]; see the module docs.
pub struct TracedNet {
    sim: Simulator<TracedFw>,
    ids: Vec<NodeId>,
    sent: Vec<Sent>,
}

impl Net for TracedNet {
    const TRACED: bool = true;
    type Fw = TracedFw;

    /// `NetworkBuilder::mesh(positions, seed).sim_config(sim)
    /// .protocol(protocol).build()`, node for node.
    fn build(
        positions: Vec<Position>,
        protocol: ProtocolChoice,
        sim: SimConfig,
        seed: u64,
    ) -> TracedNet {
        let modulation = sim.rf.modulation;
        let mut sim = Simulator::new(sim, seed);
        let mut ids = Vec::with_capacity(positions.len());
        for (i, pos) in positions.iter().enumerate() {
            let address = Runner::address_of(i);
            let node_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9);
            let node = match protocol {
                ProtocolChoice::Mesh {
                    hello_interval,
                    route_timeout,
                } => ProtocolNode::Mesh(MeshNode::new(
                    MeshConfig::builder(address)
                        .modulation(modulation)
                        .role(0)
                        .region(Region::Unlimited)
                        .hello_interval(hello_interval)
                        .route_timeout(route_timeout)
                        .csma(true)
                        .hello_jitter(true)
                        .routing_policy(RoutingPolicy::default())
                        .seed(node_seed)
                        .build(),
                )),
                ProtocolChoice::Flooding { ttl } => {
                    let mut cfg = FloodConfig::new(address);
                    cfg.modulation = modulation;
                    cfg.region = Region::Unlimited;
                    cfg.hop_limit = ttl;
                    cfg.csma = true;
                    cfg.seed = node_seed;
                    ProtocolNode::Flooding(FloodNode::new(cfg))
                }
                ProtocolChoice::Star { gateway } => {
                    let mut cfg = StarConfig::new(address, Runner::address_of(gateway));
                    cfg.modulation = modulation;
                    cfg.region = Region::Unlimited;
                    cfg.seed = node_seed;
                    ProtocolNode::Star(StarNode::new(cfg))
                }
            };
            let firmware = SpanFw(ProtocolFirmware::new(SpanNode(node)));
            ids.push(sim.add_node(firmware, *pos));
        }
        TracedNet {
            sim,
            ids,
            sent: Vec::new(),
        }
    }

    fn sim_mut(&mut self) -> &mut Simulator<TracedFw> {
        &mut self.sim
    }

    /// `Runner::apply` for datagrams: a 4-byte little-endian marker
    /// (the send's index) in front of `0xA5` padding.
    fn apply(&mut self, events: &[TrafficEvent]) {
        for e in events {
            assert!(!e.reliable, "the benchmark sends datagrams only");
            let marker = self.sent.len() as u32;
            let mut payload = vec![0xA5; e.payload_len.max(4)];
            payload[..4].copy_from_slice(&marker.to_le_bytes());
            let dst = match e.to {
                Target::Node(i) => Runner::address_of(i),
                Target::Broadcast => Address::BROADCAST,
            };
            self.sent.push(Sent {
                from: e.from,
                to: e.to,
                at: e.at,
            });
            let id = self.ids[e.from];
            let tag = self.sim.with_node(id, |fw, _| {
                fw.0.add_action(AppAction::SendDatagram { dst, payload })
            });
            self.sim.schedule_app(e.at, id, tag);
        }
    }

    /// `Runner::report`, datagram part.
    fn traffic(&self) -> Traffic {
        let now = self.sim.now();
        let mut out = Traffic::default();
        let mut delivered: BTreeSet<(u32, usize)> = BTreeSet::new();
        for (j, &id) in self.ids.iter().enumerate() {
            let fw = &self.sim.node(id).0;
            out.send_errors += fw.send_errors;
            for (t, event) in &fw.event_log {
                let AppEvent::Received { src, payload, .. } = event else {
                    continue;
                };
                let Some(bytes) = payload.first_chunk::<4>() else {
                    continue;
                };
                let marker = u32::from_le_bytes(*bytes);
                let Some(rec) = self.sent.get(marker as usize) else {
                    continue;
                };
                let counted = match rec.to {
                    Target::Node(k) => k == j,
                    Target::Broadcast => true,
                };
                if Runner::address_of(rec.from) != *src || !counted {
                    continue;
                }
                if delivered.insert((marker, j)) {
                    out.latencies.push(t.saturating_sub(rec.at));
                } else {
                    out.duplicates += 1;
                }
            }
        }
        out.sent = self.sent.iter().filter(|r| r.at <= now).count();
        out.delivered = delivered.len();
        out
    }

    fn flood_duplicates(&self) -> u64 {
        self.ids
            .iter()
            .filter_map(|&id| self.sim.node(id).0.node.0.as_flood())
            .map(|n| n.stats().duplicates_suppressed)
            .sum()
    }
}
