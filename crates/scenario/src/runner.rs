//! Building networks, injecting traffic and collecting results.
//!
//! [`NetworkBuilder`] assembles a simulated network running one of the
//! three protocols; [`Runner`] drives it, schedules [`TrafficEvent`]s and
//! matches every delivered payload back to its send record (a 4-byte
//! marker embedded in each payload), yielding a [`TrafficReport`] with
//! packet-delivery ratio, end-to-end latencies and airtime cost.

use std::collections::BTreeSet;
use std::time::Duration;

use lora_phy::propagation::Position;
use lora_phy::region::Region;

use loramesher::addr::Address;
use loramesher::config::MeshConfig;
use loramesher::flood::{FloodConfig, FloodNode};
use loramesher::node::MeshNode;
use mesh_baselines::star::{StarConfig, StarNode};
use radio_sim::firmware::NodeId;
use radio_sim::metrics::Metrics;
use radio_sim::mobility::Mobility;
use radio_sim::sim::{SimConfig, Simulator};

use crate::adapter::{AppAction, AppEvent, ProtocolFirmware, ProtocolNode};
use crate::workload::{Target, TrafficEvent};

/// Which protocol a network runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// LoRaMesher with the given routing timers.
    Mesh {
        /// Interval between routing broadcasts.
        hello_interval: Duration,
        /// Route expiry timeout.
        route_timeout: Duration,
    },
    /// Managed flooding with the given TTL.
    Flooding {
        /// Flood radius.
        ttl: u8,
    },
    /// Single-gateway star; the gateway is the node at this index.
    Star {
        /// Index of the gateway node.
        gateway: usize,
    },
}

impl ProtocolChoice {
    /// LoRaMesher with experiment-friendly timers (20 s hellos, 120 s
    /// route timeout — scaled-down versions of the firmware's 120 s /
    /// 600 s so experiments converge in simulated minutes, preserving the
    /// 1:6 ratio).
    #[must_use]
    pub fn mesh_fast() -> Self {
        ProtocolChoice::Mesh {
            hello_interval: Duration::from_secs(20),
            route_timeout: Duration::from_secs(120),
        }
    }
}

/// Declarative description of a simulated network.
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    /// Node positions; one node is created per entry.
    pub positions: Vec<Position>,
    /// The protocol to run.
    pub protocol: ProtocolChoice,
    /// Simulator configuration (RF parameters, CAD length, tracing).
    pub sim: SimConfig,
    /// Regulatory region applied to every node's MAC.
    pub region: Region,
    /// Master seed.
    pub seed: u64,
    /// Listen-before-talk on mesh nodes (ablation A1 disables it).
    pub csma: bool,
    /// Hello timing jitter on mesh nodes (ablation A3 disables it).
    pub hello_jitter: bool,
    /// Per-node mobility models; empty = every node static. When
    /// non-empty it must have one entry per position.
    pub mobility: Vec<Mobility>,
    /// SNR tie-breaking in the mesh routing policy (extension A4).
    pub snr_tiebreak: bool,
    /// Per-node role bytes advertised in hellos; empty = all plain nodes.
    /// When non-empty it must have one entry per position.
    pub roles: Vec<u8>,
    /// Record every received frame's header per node (path tracing).
    pub log_frames: bool,
}

impl NetworkBuilder {
    /// A network of LoRaMesher nodes at the given positions, with the
    /// default urban RF profile and no regulatory duty limit (so protocol
    /// behaviour, not regulation, dominates unless an experiment opts in).
    #[must_use]
    pub fn mesh(positions: Vec<Position>, seed: u64) -> Self {
        NetworkBuilder {
            positions,
            protocol: ProtocolChoice::mesh_fast(),
            sim: SimConfig::default(),
            region: Region::Unlimited,
            seed,
            csma: true,
            hello_jitter: true,
            mobility: Vec::new(),
            snr_tiebreak: false,
            roles: Vec::new(),
            log_frames: false,
        }
    }

    /// Switches the protocol.
    #[must_use]
    pub fn protocol(mut self, p: ProtocolChoice) -> Self {
        self.protocol = p;
        self
    }

    /// Sets the regulatory region for every node's MAC.
    #[must_use]
    pub fn region(mut self, r: Region) -> Self {
        self.region = r;
        self
    }

    /// Replaces the simulator configuration.
    #[must_use]
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Number of spatial bands the world is partitioned into
    /// (behaviourally transparent; `1` — the default — has no
    /// partition, larger values scope link-row invalidation on moves
    /// and, with `threads > 1`, give each band a queue to drain).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.sim.shards = shards;
        self
    }

    /// Number of worker threads for the simulator's parallel evaluate
    /// regions (behaviourally transparent; `1` — the default — never
    /// touches thread machinery).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.sim.threads = threads;
        self
    }

    /// Selects the per-node RNG stream family (PR 9). Required whenever
    /// `threads > 1`: band workers mint node streams independently, so
    /// the fork-chain derivation of the default family cannot serve
    /// them. Changing the family changes individual run trajectories
    /// (every stochastic draw comes from a different stream) but not
    /// the statistics — and it is deterministic for a given seed, so
    /// sweeps stay reproducible and engine-invariant as long as every
    /// leg of a comparison uses the same setting.
    #[must_use]
    pub fn rng_streams(mut self, on: bool) -> Self {
        self.sim.rng_streams = on;
        self
    }

    /// Enables or disables listen-before-talk on mesh nodes (ablation).
    #[must_use]
    pub fn csma(mut self, on: bool) -> Self {
        self.csma = on;
        self
    }

    /// Enables or disables hello jitter on mesh nodes (ablation).
    #[must_use]
    pub fn hello_jitter(mut self, on: bool) -> Self {
        self.hello_jitter = on;
        self
    }

    /// Enables SNR tie-breaking in the mesh routing policy.
    #[must_use]
    pub fn snr_tiebreak(mut self, on: bool) -> Self {
        self.snr_tiebreak = on;
        self
    }

    /// Enables per-node frame logging (path tracing in tests).
    #[must_use]
    pub fn log_frames(mut self, on: bool) -> Self {
        self.log_frames = on;
        self
    }

    /// Sets per-node role bytes (one per position).
    ///
    /// # Panics
    ///
    /// `build` panics if the length does not match the positions.
    #[must_use]
    pub fn roles(mut self, roles: Vec<u8>) -> Self {
        self.roles = roles;
        self
    }

    /// Sets per-node mobility models (one per position).
    ///
    /// # Panics
    ///
    /// `build` panics if the length does not match the positions.
    #[must_use]
    pub fn mobility(mut self, models: Vec<Mobility>) -> Self {
        self.mobility = models;
        self
    }

    /// Builds the runner.
    ///
    /// # Panics
    ///
    /// Panics if a mobility list was supplied with the wrong length.
    #[must_use]
    pub fn build(self) -> Runner {
        assert!(
            self.mobility.is_empty() || self.mobility.len() == self.positions.len(),
            "mobility list must match positions ({} vs {})",
            self.mobility.len(),
            self.positions.len()
        );
        assert!(
            self.roles.is_empty() || self.roles.len() == self.positions.len(),
            "role list must match positions ({} vs {})",
            self.roles.len(),
            self.positions.len()
        );
        let modulation = self.sim.rf.modulation;
        let mut sim = Simulator::new(self.sim, self.seed);
        let mut ids = Vec::with_capacity(self.positions.len());
        for (i, pos) in self.positions.iter().enumerate() {
            let address = Runner::address_of(i);
            let node = match &self.protocol {
                ProtocolChoice::Mesh {
                    hello_interval,
                    route_timeout,
                } => {
                    let cfg = MeshConfig::builder(address)
                        .modulation(modulation)
                        .role(self.roles.get(i).copied().unwrap_or(0))
                        .region(self.region)
                        .hello_interval(*hello_interval)
                        .route_timeout(*route_timeout)
                        .csma(self.csma)
                        .hello_jitter(self.hello_jitter)
                        .routing_policy(loramesher::routing::RoutingPolicy {
                            snr_tiebreak: self.snr_tiebreak,
                            ..loramesher::routing::RoutingPolicy::default()
                        })
                        .seed(self.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9))
                        .build();
                    ProtocolNode::Mesh(MeshNode::new(cfg))
                }
                ProtocolChoice::Flooding { ttl } => {
                    let mut cfg = FloodConfig::new(address);
                    cfg.modulation = modulation;
                    cfg.region = self.region;
                    cfg.hop_limit = *ttl;
                    cfg.csma = self.csma;
                    cfg.seed = self.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9);
                    ProtocolNode::Flooding(FloodNode::new(cfg))
                }
                ProtocolChoice::Star { gateway } => {
                    let mut cfg = StarConfig::new(address, Runner::address_of(*gateway));
                    cfg.modulation = modulation;
                    cfg.region = self.region;
                    cfg.seed = self.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9);
                    ProtocolNode::Star(StarNode::new(cfg))
                }
            };
            let mobility = self.mobility.get(i).cloned().unwrap_or(Mobility::Static);
            let mut firmware = ProtocolFirmware::new(node);
            firmware.log_frames = self.log_frames;
            ids.push(sim.add_mobile_node(firmware, *pos, mobility));
        }
        Runner {
            sim,
            ids,
            sent: Vec::new(),
            reliable: Vec::new(),
            next_marker: 0,
        }
    }
}

/// A datagram send record awaiting its deliveries.
#[derive(Clone, Copy, Debug)]
struct SentRecord {
    marker: u32,
    from: usize,
    to: Target,
    at: Duration,
}

/// A reliable-transfer send record.
#[derive(Clone, Copy, Debug)]
struct ReliableRecord {
    from: usize,
    to: usize,
    len: usize,
    at: Duration,
}

/// A running simulated network with traffic accounting.
pub struct Runner {
    sim: Simulator<ProtocolFirmware<ProtocolNode>>,
    ids: Vec<NodeId>,
    sent: Vec<SentRecord>,
    reliable: Vec<ReliableRecord>,
    next_marker: u32,
}

impl Runner {
    /// The protocol address of node index `i`.
    #[must_use]
    pub fn address_of(i: usize) -> Address {
        Address::new(u16::try_from(i + 1).expect("too many nodes"))
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The underlying simulator.
    #[must_use]
    pub fn sim(&self) -> &Simulator<ProtocolFirmware<ProtocolNode>> {
        &self.sim
    }

    /// Mutable access to the simulator (fault injection, custom events).
    pub fn sim_mut(&mut self) -> &mut Simulator<ProtocolFirmware<ProtocolNode>> {
        &mut self.sim
    }

    /// The simulator node id of index `i`.
    #[must_use]
    pub fn id(&self, i: usize) -> NodeId {
        self.ids[i]
    }

    /// The mesh state of node `i` (None when running a baseline).
    #[must_use]
    pub fn mesh_node(&self, i: usize) -> Option<&MeshNode> {
        self.sim.node(self.ids[i]).node.as_mesh()
    }

    /// The flooding state of node `i` (None under any other protocol).
    #[must_use]
    pub fn flood_node(&self, i: usize) -> Option<&FloodNode> {
        self.sim.node(self.ids[i]).node.as_flood()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Duration {
        self.sim.now()
    }

    /// Advances the simulation to `t`.
    pub fn run_until(&mut self, t: Duration) {
        self.sim.run_until(t);
    }

    /// Advances the simulation by `d`.
    pub fn run_for(&mut self, d: Duration) {
        self.sim.run_for(d);
    }

    fn marker_payload(&mut self, len: usize) -> (u32, Vec<u8>) {
        let marker = self.next_marker;
        self.next_marker += 1;
        let len = len.max(4);
        let mut payload = vec![0xA5; len];
        payload[..4].copy_from_slice(&marker.to_le_bytes());
        (marker, payload)
    }

    fn resolve(&self, to: Target) -> Address {
        match to {
            Target::Node(i) => Self::address_of(i),
            Target::Broadcast => Address::BROADCAST,
        }
    }

    /// Schedules a whole workload.
    pub fn apply(&mut self, events: &[TrafficEvent]) {
        for e in events {
            self.schedule(*e);
        }
    }

    /// Schedules one traffic event.
    pub fn schedule(&mut self, e: TrafficEvent) {
        let dst = self.resolve(e.to);
        if e.reliable {
            let Target::Node(to) = e.to else {
                panic!("reliable transfers cannot be broadcast");
            };
            let (_, payload) = self.marker_payload(e.payload_len);
            self.reliable.push(ReliableRecord {
                from: e.from,
                to,
                len: payload.len(),
                at: e.at,
            });
            let id = self.ids[e.from];
            let tag = self.sim.with_node(id, |fw, _| {
                fw.add_action(AppAction::SendReliable { dst, payload })
            });
            self.sim.schedule_app(e.at, id, tag);
        } else {
            let (marker, payload) = self.marker_payload(e.payload_len);
            self.sent.push(SentRecord {
                marker,
                from: e.from,
                to: e.to,
                at: e.at,
            });
            let id = self.ids[e.from];
            let tag = self.sim.with_node(id, |fw, _| {
                fw.add_action(AppAction::SendDatagram { dst, payload })
            });
            self.sim.schedule_app(e.at, id, tag);
        }
    }

    /// Whether every mesh node has a usable route to every other node.
    /// Always `false` for baseline protocols (they have no tables).
    #[must_use]
    pub fn mesh_converged(&self) -> bool {
        let n = self.len();
        (0..n).all(|i| {
            let Some(mesh) = self.mesh_node(i) else {
                return false;
            };
            (0..n)
                .filter(|&j| j != i)
                .all(|j| mesh.routing_table().next_hop(Self::address_of(j)).is_some())
        })
    }

    /// Runs until the mesh is fully converged, checking every `step`.
    /// Returns the convergence time, or `None` if `deadline` passes first.
    pub fn run_until_converged(&mut self, step: Duration, deadline: Duration) -> Option<Duration> {
        loop {
            if self.mesh_converged() {
                return Some(self.now());
            }
            if self.now() >= deadline {
                return None;
            }
            let next = (self.now() + step).min(deadline);
            self.run_until(next);
        }
    }

    /// PHY-level metrics from the simulator.
    #[must_use]
    pub fn phy_metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Builds the traffic report for everything scheduled so far.
    #[must_use]
    pub fn report(&self) -> TrafficReport {
        let now = self.now();
        let mut latencies = Vec::new();
        // BTreeSet (meshlint rule D1): membership-only today, but a
        // deterministic order keeps any future iteration replay-safe.
        let mut delivered_keys: BTreeSet<(u32, usize)> = BTreeSet::new();
        let mut duplicates = 0u64;
        let mut send_errors = 0u64;
        let mut reliable_completed = 0usize;
        let mut reliable_failed = 0usize;
        let mut reliable_latencies = Vec::new();

        for (j, &id) in self.ids.iter().enumerate() {
            let fw = self.sim.node(id);
            send_errors += fw.send_errors;
            for (t, event) in &fw.event_log {
                match event {
                    AppEvent::Received { src, payload, .. } => {
                        if payload.len() < 4 {
                            continue;
                        }
                        let marker =
                            u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
                        let Some(rec) = self.sent.get(marker as usize) else {
                            continue;
                        };
                        if rec.marker != marker || Self::address_of(rec.from) != *src {
                            continue;
                        }
                        let counted = match rec.to {
                            Target::Node(k) => k == j,
                            Target::Broadcast => true,
                        };
                        if !counted {
                            continue;
                        }
                        if delivered_keys.insert((marker, j)) {
                            latencies.push(t.saturating_sub(rec.at));
                        } else {
                            duplicates += 1;
                        }
                    }
                    AppEvent::ReliableReceived { src, payload } => {
                        if let Some(rec) = self.reliable.iter().find(|r| {
                            Self::address_of(r.from) == *src && r.to == j && r.len == payload.len()
                        }) {
                            reliable_completed += 1;
                            reliable_latencies.push(t.saturating_sub(rec.at));
                        }
                    }
                    AppEvent::ReliableFailed { .. } => reliable_failed += 1,
                    AppEvent::ReliableDelivered { .. } => {}
                }
            }
        }

        // Only sends whose time has passed count as attempted.
        let attempted = self.sent.iter().filter(|r| r.at <= now).count();
        let metrics = self.sim.metrics();
        TrafficReport {
            sent: attempted,
            delivered: delivered_keys.len(),
            duplicates,
            send_errors,
            latencies,
            reliable_attempted: self.reliable.iter().filter(|r| r.at <= now).count(),
            reliable_completed,
            reliable_failed,
            reliable_latencies,
            total_airtime: metrics.total_airtime,
            frames_transmitted: metrics.frames_transmitted,
            collisions: metrics.lost_collision,
            elapsed: now,
        }
    }
}

/// End-to-end results of a traffic run.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Datagram sends attempted (scheduled and due).
    pub sent: usize,
    /// Unique datagram deliveries.
    pub delivered: usize,
    /// Duplicate deliveries (same datagram, same receiver).
    pub duplicates: u64,
    /// Application submissions the protocol refused.
    pub send_errors: u64,
    /// End-to-end datagram latencies.
    pub latencies: Vec<Duration>,
    /// Reliable transfers attempted.
    pub reliable_attempted: usize,
    /// Reliable transfers completed at the receiver.
    pub reliable_completed: usize,
    /// Reliable transfers reported failed by the sender.
    pub reliable_failed: usize,
    /// Reliable transfer completion latencies.
    pub reliable_latencies: Vec<Duration>,
    /// Total airtime across the network.
    pub total_airtime: Duration,
    /// Total frames put on the air.
    pub frames_transmitted: u64,
    /// PHY reception attempts destroyed by collisions.
    pub collisions: u64,
    /// Simulated time covered by this report.
    pub elapsed: Duration,
}

impl TrafficReport {
    /// Packet delivery ratio (unicast: delivered/sent). `None` when no
    /// datagrams were attempted.
    #[must_use]
    pub fn pdr(&self) -> Option<f64> {
        if self.sent == 0 {
            None
        } else {
            Some(self.delivered as f64 / self.sent as f64)
        }
    }

    /// Mean end-to-end latency.
    #[must_use]
    pub fn mean_latency(&self) -> Option<Duration> {
        if self.latencies.is_empty() {
            return None;
        }
        let total: Duration = self.latencies.iter().sum();
        Some(total / self.latencies.len() as u32)
    }

    /// A latency percentile (0.0–1.0).
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut v = self.latencies.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        Some(v[idx])
    }

    /// Fraction of simulated time the channel carried transmissions.
    #[must_use]
    pub fn channel_utilisation(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.total_airtime.as_secs_f64() / self.elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use radio_sim::topology;

    fn line_mesh(n: usize, spacing: f64, seed: u64) -> Runner {
        NetworkBuilder::mesh(topology::line(n, spacing), seed).build()
    }

    /// The sweep engine builds and runs one Runner per worker thread;
    /// this fails to compile if the whole stack stops being Send.
    #[test]
    fn runner_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Runner>();
        assert_send::<TrafficReport>();
    }

    #[test]
    fn two_node_mesh_converges() {
        let mut r = line_mesh(2, 80.0, 1);
        let t = r
            .run_until_converged(Duration::from_secs(5), Duration::from_secs(120))
            .expect("should converge");
        assert!(t <= Duration::from_secs(120));
        assert!(r.mesh_converged());
    }

    #[test]
    fn line_of_four_converges_multi_hop() {
        let mut r = line_mesh(4, 100.0, 2);
        r.run_until_converged(Duration::from_secs(5), Duration::from_secs(600))
            .expect("should converge");
        // End-to-end route goes through the chain.
        let mesh = r.mesh_node(0).unwrap();
        let route = mesh.routing_table().route(Runner::address_of(3)).unwrap();
        assert_eq!(route.metric, 3);
        assert_eq!(route.via, Runner::address_of(1));
    }

    #[test]
    fn traffic_is_delivered_and_reported() {
        let mut r = line_mesh(3, 100.0, 3);
        r.run_until_converged(Duration::from_secs(5), Duration::from_secs(600))
            .expect("converged");
        let start = r.now() + Duration::from_secs(5);
        let events = workload::periodic(0, Target::Node(2), 16, start, Duration::from_secs(15), 4);
        r.apply(&events);
        r.run_until(start + Duration::from_secs(120));
        let report = r.report();
        assert_eq!(report.sent, 4);
        assert_eq!(report.delivered, 4);
        assert_eq!(report.pdr(), Some(1.0));
        assert_eq!(report.duplicates, 0);
        assert!(report.mean_latency().unwrap() > Duration::ZERO);
        assert!(report.latency_percentile(1.0) >= report.latency_percentile(0.0));
        assert!(report.total_airtime > Duration::ZERO);
        assert!(report.channel_utilisation() > 0.0);
    }

    #[test]
    fn flooding_network_delivers() {
        let mut r = NetworkBuilder::mesh(topology::line(3, 100.0), 4)
            .protocol(ProtocolChoice::Flooding { ttl: 5 })
            .build();
        let events = workload::periodic(
            0,
            Target::Node(2),
            16,
            Duration::from_secs(1),
            Duration::from_secs(10),
            3,
        );
        r.apply(&events);
        r.run_until(Duration::from_secs(60));
        let report = r.report();
        assert_eq!(report.delivered, 3, "flooding should reach across 2 hops");
    }

    #[test]
    fn star_cannot_reach_beyond_gateway_range() {
        // Gateway at node 0; node 2 is two "hops" away -> unreachable.
        let mut r = NetworkBuilder::mesh(topology::line(3, 100.0), 5)
            .protocol(ProtocolChoice::Star { gateway: 0 })
            .build();
        let events = [
            workload::periodic(
                1,
                Target::Node(0),
                16,
                Duration::from_secs(1),
                Duration::from_secs(5),
                2,
            ),
            workload::periodic(
                2,
                Target::Node(0),
                16,
                Duration::from_secs(2),
                Duration::from_secs(5),
                2,
            ),
        ]
        .concat();
        r.apply(&events);
        r.run_until(Duration::from_secs(60));
        let report = r.report();
        // Only node 1's packets arrive.
        assert_eq!(report.sent, 4);
        assert_eq!(report.delivered, 2);
    }

    #[test]
    fn reliable_transfer_reported() {
        let mut r = line_mesh(2, 80.0, 6);
        r.run_until_converged(Duration::from_secs(5), Duration::from_secs(300))
            .expect("converged");
        let at = r.now() + Duration::from_secs(1);
        r.schedule(workload::bulk(0, 1, 1000, at));
        r.run_until(at + Duration::from_secs(120));
        let report = r.report();
        assert_eq!(report.reliable_attempted, 1);
        assert_eq!(report.reliable_completed, 1);
        assert_eq!(report.reliable_failed, 0);
        assert_eq!(report.reliable_latencies.len(), 1);
    }

    #[test]
    fn report_before_traffic_is_empty() {
        let r = line_mesh(2, 80.0, 7);
        let report = r.report();
        assert_eq!(report.sent, 0);
        assert_eq!(report.pdr(), None);
        assert_eq!(report.mean_latency(), None);
        assert_eq!(report.latency_percentile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "mobility list must match")]
    fn mismatched_mobility_list_rejected() {
        use radio_sim::mobility::Mobility;
        let _ = NetworkBuilder::mesh(topology::line(3, 80.0), 1)
            .mobility(vec![Mobility::Static])
            .build();
    }

    #[test]
    #[should_panic(expected = "role list must match")]
    fn mismatched_role_list_rejected() {
        let _ = NetworkBuilder::mesh(topology::line(3, 80.0), 1)
            .roles(vec![1])
            .build();
    }

    #[test]
    fn broadcast_counts_all_receivers() {
        let mut r = line_mesh(2, 80.0, 8);
        r.run_until_converged(Duration::from_secs(5), Duration::from_secs(300))
            .expect("converged");
        let at = r.now() + Duration::from_secs(1);
        r.schedule(TrafficEvent {
            at,
            from: 0,
            to: Target::Broadcast,
            payload_len: 8,
            reliable: false,
        });
        r.run_until(at + Duration::from_secs(30));
        let report = r.report();
        assert_eq!(report.sent, 1);
        assert_eq!(report.delivered, 1); // one other node heard it
    }
}
