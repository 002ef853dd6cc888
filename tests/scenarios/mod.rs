//! Every scenario the golden table ([`table`]) pins, and what a run of
//! one shows at a checkpoint. `tests/shard_diff.rs` runs the
//! engine-level ones across shard and thread counts.
//!
//! Two kinds of network run here:
//!
//! * **engine-level**: a [`Simulator`] of [`Chatty`] nodes, which churn
//!   timers and the channel with no protocol on top, so an engine
//!   change shows without a stack's behaviour in the way;
//! * **`Runner`-level**: a whole network of one protocol stack
//!   (LoRaMesher, managed flooding or the star) with scheduled traffic.
//!
//! A scenario is a [`Script`]: the built network, what the scenario does
//! to it at fixed simulated times, and when it ends. [`Net`] reads the
//! four sections a checkpoint keeps — the trace, the PHY metrics, the
//! per-node state and the report — from either kind.

use std::fmt::Write as _;
use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::modulation::LoRaModulation;
use lora_phy::propagation::{Position, Shadowing};
use lora_phy::region::Region;
use radio_sim::firmware::{Context, Firmware};
use radio_sim::metrics::Metrics;
use radio_sim::mobility::Mobility;
use radio_sim::trace::Trace;
use radio_sim::{topology, NodeId, SimConfig, SimRng, Simulator};
use scenario::workload::{self, Target, TrafficEvent};
use scenario::{NetworkBuilder, ProtocolChoice, ProtocolNode, Runner};

pub mod table;

/// Timer- and channel-churning firmware: every CAD-busy verdict moves
/// the next wake by an RNG-jittered delay, so the engine keeps
/// invalidating and rescheduling timers, and any engine divergence —
/// event order, CAD verdicts, interference sums — snowballs into a
/// different timeline. The payload bytes are never read.
pub struct Chatty {
    next: Duration,
    /// Time between transmission attempts.
    pub interval: Duration,
    len: usize,
    heard: u64,
    rng: SimRng,
}

impl Chatty {
    /// First attempt at `phase_ms`, `len`-byte frames; the backoff RNG
    /// is seeded with `phase_ms ^ salt`.
    pub fn new(phase_ms: u64, len: usize, salt: u64) -> Self {
        Chatty {
            next: Duration::from_millis(phase_ms),
            interval: Duration::from_millis(800),
            len,
            heard: 0,
            rng: SimRng::new(phase_ms ^ salt),
        }
    }
}

impl Firmware for Chatty {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            self.next += self.interval;
            ctx.start_cad();
        }
    }
    fn on_cad_done(&mut self, busy: bool, ctx: &mut Context) {
        if busy {
            self.next = ctx.now() + Duration::from_millis(20 + self.rng.gen_range(60));
        } else {
            ctx.transmit(vec![0x6D; self.len]);
        }
    }
    fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {
        self.heard += 1;
    }
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

/// What a guard asks of a finished run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Facts {
    /// Frames put on the air.
    pub transmitted: u64,
    /// Unique datagram deliveries (`Runner`), or frame deliveries.
    pub delivered: u64,
    /// Reliable transfers completed at their receiver.
    pub reliable_completed: usize,
    /// Frames mesh nodes forwarded for others.
    pub forwarded: u64,
    /// CAD scans the medium ran.
    pub cad_scans: u64,
    /// Frames mesh MACs held back for the duty budget.
    pub duty_deferrals: u64,
    /// Superseded timers the event queue dropped.
    pub stale_dropped: u64,
}

/// A network a checkpoint can observe.
pub trait Net {
    /// Advances the simulation to `t`.
    fn run_until(&mut self, t: Duration);
    /// Closes radio-state accounting; call once, after the last slice.
    fn finish(&mut self);
    /// The medium's trace.
    fn trace(&self) -> &Trace;
    /// The PHY metrics.
    fn phy(&self) -> &Metrics;
    /// Every node's state, one line per item.
    fn nodes(&self) -> String;
    /// The run's summary: the traffic report, or the engine's counters.
    fn report(&self) -> String;
    /// What the guards check.
    fn facts(&self) -> Facts;
}

fn cad_scans(m: &Metrics) -> u64 {
    m.per_node.iter().map(|n| n.cad_scans).sum()
}

impl Net for Simulator<Chatty> {
    fn run_until(&mut self, t: Duration) {
        Simulator::run_until(self, t);
    }
    fn finish(&mut self) {
        Simulator::finish(self);
    }
    fn trace(&self) -> &Trace {
        Simulator::trace(self)
    }
    fn phy(&self) -> &Metrics {
        self.metrics()
    }
    fn nodes(&self) -> String {
        let heard: Vec<u64> = (0..self.node_count())
            .map(|i| self.node(NodeId(i)).heard)
            .collect();
        format!("heard {heard:?}")
    }
    fn report(&self) -> String {
        format!("events {}", self.events_processed())
    }
    fn facts(&self) -> Facts {
        let m = self.metrics();
        Facts {
            transmitted: m.frames_transmitted,
            delivered: m.frames_delivered,
            cad_scans: cad_scans(m),
            stale_dropped: m.stale_timers_dropped,
            ..Facts::default()
        }
    }
}

impl Net for Runner {
    fn run_until(&mut self, t: Duration) {
        Runner::run_until(self, t);
    }
    fn finish(&mut self) {
        self.sim_mut().finish();
    }
    fn trace(&self) -> &Trace {
        self.sim().trace()
    }
    fn phy(&self) -> &Metrics {
        self.phy_metrics()
    }
    /// Each node's app-level log and send errors, then its stack's
    /// state: mesh stats, queue, transfers and routing table; flood
    /// stats, queue, pending relays and seen cache; or the whole star
    /// node.
    fn nodes(&self) -> String {
        let mut out = String::new();
        for i in 0..self.len() {
            let fw = self.sim().node(self.id(i));
            let _ = writeln!(out, "node {i} send_errors {}", fw.send_errors);
            for (t, event) in &fw.event_log {
                let _ = writeln!(out, "node {i} app {t:?} {event:?}");
            }
            match &fw.node {
                ProtocolNode::Mesh(mesh) => {
                    let _ = writeln!(out, "node {i} stats {:?}", mesh.stats());
                    let _ = writeln!(out, "node {i} txq {}", mesh.tx_queue_len());
                    let _ = writeln!(
                        out,
                        "node {i} transfers out={:?} in={:?}",
                        mesh.outbound_transfers(),
                        mesh.inbound_transfers()
                    );
                    let _ = write!(out, "node {i} routes\n{}", mesh.routing_table());
                }
                ProtocolNode::Flooding(flood) => {
                    let _ = writeln!(
                        out,
                        "node {i} flood {:?} txq={} pending={} seen={}/{}",
                        flood.stats(),
                        flood.tx_queue_len(),
                        flood.pending_relays(),
                        flood.seen_len(),
                        flood.seen_capacity(),
                    );
                }
                ProtocolNode::Star(star) => {
                    let _ = writeln!(out, "node {i} star {star:?}");
                }
            }
        }
        out
    }
    fn report(&self) -> String {
        format!("{:?}", Runner::report(self))
    }
    fn facts(&self) -> Facts {
        let report = Runner::report(self);
        let mesh = (0..self.len()).filter_map(|i| self.mesh_node(i));
        let (forwarded, duty_deferrals) = mesh.fold((0, 0), |(f, d), m| {
            (f + m.stats().forwarded, d + m.stats().duty_cycle_deferrals)
        });
        let m = self.phy_metrics();
        Facts {
            transmitted: m.frames_transmitted,
            delivered: report.delivered as u64,
            reliable_completed: report.reliable_latencies.len(),
            forwarded,
            cad_scans: cad_scans(m),
            duty_deferrals,
            stale_dropped: m.stale_timers_dropped,
        }
    }
}

/// Something a scenario does to its network mid-run.
type Step<N> = Box<dyn FnOnce(&mut N)>;

/// A built network, what the scenario does to it at fixed simulated
/// times, and when the scenario ends.
pub struct Script<N> {
    /// The network.
    pub net: N,
    /// Ascending by time: run to the time, then act.
    steps: Vec<(Duration, Step<N>)>,
    /// When the scenario ends.
    pub end: Duration,
}

impl<N: Net> Script<N> {
    fn new(net: N, end: Duration) -> Self {
        Script {
            net,
            steps: Vec::new(),
            end,
        }
    }

    fn then(mut self, at: Duration, step: impl FnOnce(&mut N) + 'static) -> Self {
        self.steps.push((at, Box::new(step)));
        self
    }

    /// Runs to `t`, taking every step due on the way.
    pub fn run_to(&mut self, t: Duration) {
        while self.steps.first().is_some_and(|(at, _)| *at <= t) {
            let (at, step) = self.steps.remove(0);
            self.net.run_until(at);
            step(&mut self.net);
        }
        self.net.run_until(t);
    }
}

/// Shadowing and grey-zone reception keep the simulator RNG hot, so the
/// fork and stream RNG families genuinely diverge.
pub fn grey_config() -> SimConfig {
    let mut cfg = traced_config();
    cfg.rf.grey_zone = true;
    cfg.rf.shadowing = Shadowing::new(4.0, 7);
    cfg
}

/// The default RF profile with the trace on.
pub fn traced_config() -> SimConfig {
    SimConfig {
        trace_capacity: 1 << 16,
        ..SimConfig::default()
    }
}

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// `factor` times the default profile's radio range.
fn spacing(factor: f64) -> f64 {
    topology::radio_range_m(&SimConfig::default().rf) * factor
}

// ---------------------------------------------------------------------
// Engine-level scenarios
// ---------------------------------------------------------------------

/// Static line with churn: the kill truncates a frame that may be in
/// flight and cancels the victim's timers, and the revive restarts its
/// timer generation mid-run.
pub fn churn(seed: u64, cfg: SimConfig, salt: u64) -> Script<Simulator<Chatty>> {
    let mut s = Simulator::new(cfg, seed);
    for k in 0..10u64 {
        s.add_node(
            Chatty::new(40 * k + 5, 10 + k as usize, salt),
            Position::new(k as f64 * 95.0, (k % 3) as f64 * 40.0),
        );
    }
    s.schedule_kill(secs(3), NodeId(4));
    s.schedule_revive(secs(7), NodeId(4));
    Script::new(s, secs(12))
}

/// Every node walks: mobility ticks interleave with timer churn, link
/// rows are invalidated every tick, frames outlive their sender's
/// position, and a node added at 2 s grows the per-node tables.
pub fn walk(seed: u64, cfg: SimConfig, salt: u64) -> Script<Simulator<Chatty>> {
    let mut s = Simulator::new(cfg, seed);
    let waypoint = Mobility::RandomWaypoint {
        width_m: 600.0,
        height_m: 600.0,
        min_speed: 10.0,
        max_speed: 30.0,
        pause: Duration::ZERO,
    };
    for k in 0..8u64 {
        s.add_mobile_node(
            Chatty::new(37 * k + 3, 60, salt),
            Position::new(k as f64 * 70.0, k as f64 * 50.0),
            waypoint.clone(),
        );
    }
    Script::new(s, secs(12)).then(secs(2), move |s| {
        s.add_node(Chatty::new(11, 24, salt), Position::new(300.0, 300.0));
    })
}

/// A 4×3 cluster where every node hears every other, so interference
/// sums have many terms and any float-ordering difference shows.
pub fn dense(seed: u64, cfg: SimConfig, salt: u64) -> Script<Simulator<Chatty>> {
    let mut s = Simulator::new(cfg, seed);
    for k in 0..12u64 {
        s.add_node(
            Chatty::new(29 * k + 7, 20, salt),
            Position::new((k % 4) as f64 * 30.0, (k / 4) as f64 * 30.0),
        );
    }
    Script::new(s, secs(8))
}

/// 72 nodes, every third walking: above the simulator's parallel-region
/// threshold, so worker threads run the start-of-run row prefetch, the
/// mobility step and the post-tick prefetch.
pub fn wide(seed: u64, cfg: SimConfig, salt: u64) -> Script<Simulator<Chatty>> {
    let mut s = Simulator::new(cfg, seed);
    let walk = Mobility::RandomWaypoint {
        width_m: 900.0,
        height_m: 500.0,
        min_speed: 5.0,
        max_speed: 20.0,
        pause: Duration::ZERO,
    };
    for k in 0..72u64 {
        let pos = Position::new((k % 12) as f64 * 80.0, (k / 12) as f64 * 70.0);
        let chatty = Chatty::new(23 * k + 5, 14, salt);
        if k % 3 == 0 {
            s.add_mobile_node(chatty, pos, walk.clone());
        } else {
            s.add_node(chatty, pos);
        }
    }
    Script::new(s, secs(6))
}

// ---------------------------------------------------------------------
// Runner-level scenarios
// ---------------------------------------------------------------------

/// A mesh line of six: multi-hop streams both ways, a fragmented
/// reliable transfer across the outage of relay 2 (150–260 s), route
/// expiry and re-convergence.
pub fn line_churn(seed: u64, cfg: SimConfig) -> Script<Runner> {
    let mut runner = NetworkBuilder::mesh(topology::line(6, spacing(0.8)), seed)
        .sim_config(cfg)
        .build();
    runner.apply(&periodic(0, Target::Node(5), 12, 60, 15, 12));
    runner.apply(&periodic(5, Target::Node(0), 16, 75, 30, 5));
    runner.schedule(reliable(90, 1, 4, 200));
    runner.sim_mut().schedule_kill(secs(150), NodeId(2));
    runner.sim_mut().schedule_revive(secs(260), NodeId(2));
    Script::new(runner, secs(420))
}

/// A 3×2 mesh whose every node wanders a 500 m square, so routes and
/// hello adjacency churn through the whole run.
pub fn waypoint(seed: u64, cfg: SimConfig) -> Script<Runner> {
    let waypoint = Mobility::RandomWaypoint {
        width_m: 500.0,
        height_m: 500.0,
        min_speed: 5.0,
        max_speed: 15.0,
        pause: secs(10),
    };
    let mut runner = NetworkBuilder::mesh(topology::grid(3, 2, spacing(0.6)), seed)
        .sim_config(cfg)
        .mobility(vec![waypoint; 6])
        .build();
    runner.apply(&periodic(0, Target::Node(5), 12, 50, 25, 8));
    runner.apply(&periodic(3, Target::Broadcast, 10, 70, 40, 4));
    Script::new(runner, secs(300))
}

/// A mesh line of five that all hear each other: hello caching, CSMA
/// contention and one-hop routes, crossing unicast streams and a
/// reliable transfer.
pub fn full_line(seed: u64, cfg: SimConfig) -> Script<Runner> {
    let mut runner = NetworkBuilder::mesh(topology::line(5, spacing(0.2)), seed)
        .sim_config(cfg)
        .build();
    runner.apply(&periodic(0, Target::Node(4), 12, 45, 20, 8));
    runner.apply(&periodic(2, Target::Node(1), 14, 55, 35, 4));
    runner.schedule(reliable(80, 4, 0, 150));
    Script::new(runner, secs(300))
}

/// A line of four that all hear each other, on any stack. Without
/// `csma` the nodes transmit with no CAD scan (the ALOHA ablation),
/// held back only by the duty cycle.
pub fn shared_line(
    seed: u64,
    cfg: SimConfig,
    protocol: ProtocolChoice,
    csma: bool,
) -> Script<Runner> {
    let mut runner = NetworkBuilder::mesh(topology::line(4, spacing(0.2)), seed)
        .protocol(protocol)
        .csma(csma)
        .sim_config(cfg)
        .build();
    runner.apply(&periodic(1, Target::Node(0), 12, 30, 20, 6));
    runner.apply(&periodic(3, Target::Broadcast, 10, 40, 45, 3));
    Script::new(runner, secs(200))
}

/// A three-node mesh on the slow preset under EU868's 1 % duty cycle,
/// loaded past its 36 s hourly budget so the MAC defers frames.
pub fn duty(seed: u64, mut cfg: SimConfig) -> Script<Runner> {
    cfg.rf.modulation = LoRaModulation::long_slow();
    let mut runner = NetworkBuilder::mesh(topology::line(3, spacing(0.2)), seed)
        .region(Region::Eu868)
        .sim_config(cfg)
        .build();
    runner.apply(&periodic(0, Target::Node(2), 20, 60, 10, 30));
    Script::new(runner, secs(600))
}

/// A 3×2 mesh grid: a multi-hop unicast stream, a broadcast stream, a
/// fragmented reliable transfer and relay 2 down from 150 s to 230 s,
/// so the routing daemon, transport, app codec and MAC all leave a
/// mark.
pub fn grid_churn(seed: u64, cfg: SimConfig) -> Script<Runner> {
    let mut runner = NetworkBuilder::mesh(topology::grid(3, 2, spacing(0.8)), seed)
        .sim_config(cfg)
        .build();
    runner.apply(&periodic(0, Target::Node(5), 12, 60, 15, 10));
    runner.apply(&periodic(5, Target::Broadcast, 10, 75, 30, 4));
    runner.schedule(reliable(90, 1, 4, 200));
    runner.sim_mut().schedule_kill(secs(150), NodeId(2));
    runner.sim_mut().schedule_revive(secs(230), NodeId(2));
    Script::new(runner, secs(360))
}

/// [`grid_churn`]'s grid on managed flooding (TTL 5), with relay 2 down
/// from 80 s to 160 s: dedup, hop-limit decrements, the SNR- and
/// contention-weighted relay delay and the seen-cache FIFO.
pub fn grid_flood(seed: u64, cfg: SimConfig) -> Script<Runner> {
    let mut runner = NetworkBuilder::mesh(topology::grid(3, 2, spacing(0.8)), seed)
        .protocol(ProtocolChoice::Flooding { ttl: 5 })
        .sim_config(cfg)
        .build();
    runner.apply(&periodic(0, Target::Node(5), 12, 10, 15, 10));
    runner.apply(&periodic(5, Target::Broadcast, 10, 18, 30, 4));
    runner.sim_mut().schedule_kill(secs(80), NodeId(2));
    runner.sim_mut().schedule_revive(secs(160), NodeId(2));
    Script::new(runner, secs(280))
}

/// A 3×2 mesh grid that forms for 120 s before any traffic is scheduled;
/// then all-to-one datagrams, a 900-byte reliable transfer and relay 2
/// down from 185 s to 305 s.
pub fn late_traffic(seed: u64, cfg: SimConfig) -> Script<Runner> {
    let runner = NetworkBuilder::mesh(topology::grid(3, 2, spacing(0.8)), seed)
        .sim_config(cfg)
        .build();
    Script::new(runner, secs(525)).then(secs(120), |net| {
        let start = secs(125);
        net.apply(&workload::all_to_one(6, 0, 16, start, secs(30), 4));
        net.schedule(workload::bulk(1, 5, 900, start + secs(10)));
        let victim = net.id(2);
        net.sim_mut().schedule_kill(start + secs(60), victim);
        net.sim_mut().schedule_revive(start + secs(180), victim);
    })
}

/// Managed flooding (TTL 5) on a 100 m line of four: every relay
/// consults the duplicate-suppression cache.
pub fn flood_line(seed: u64, cfg: SimConfig) -> Script<Runner> {
    let mut runner = NetworkBuilder::mesh(topology::line(4, 100.0), seed)
        .protocol(ProtocolChoice::Flooding { ttl: 5 })
        .sim_config(cfg)
        .build();
    runner.apply(&periodic(0, Target::Node(3), 16, 5, 10, 6));
    runner.apply(&periodic(3, Target::Broadcast, 12, 8, 15, 4));
    Script::new(runner, secs(180))
}

/// `count` datagrams of `len` bytes, the first at `start` seconds, then
/// one every `every` seconds.
fn periodic(
    from: usize,
    to: Target,
    len: usize,
    start: u64,
    every: u64,
    count: usize,
) -> Vec<TrafficEvent> {
    workload::periodic(from, to, len, secs(start), secs(every), count)
}

fn reliable(at: u64, from: usize, to: usize, payload_len: usize) -> TrafficEvent {
    TrafficEvent {
        at: secs(at),
        from,
        to: Target::Node(to),
        payload_len,
        reliable: true,
    }
}
