//! Per-layer kernels: medians of timed batches of one public function
//! each, at the sizes of the workload that owns them. They say what a
//! layer's unit of work costs in isolation; the traced budget says how
//! much of a run the layer is.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lora_phy::link::SignalQuality;
use lora_phy::modulation::LoRaModulation;
use lora_phy::power::Dbm;
use lora_phy::propagation::Position;
use loramesher::codec;
use loramesher::driver::{NodeProtocol, RadioIo};
use loramesher::packet::{Forwarding, Packet, RouteEntry};
use loramesher::{Address, FloodConfig, FloodNode, MeshConfig, MeshNode, RoutingTable};
use radio_sim::event::{EventQueue, FrameId, SimEvent};
use radio_sim::grid::Grid;
use radio_sim::link_cache::{Link, LinkCache};
use radio_sim::medium::{Medium, RfConfig};
use radio_sim::radio::Reception;
use radio_sim::shard::max_audible_range;
use radio_sim::{NodeId, SimRng, SimTime};

use crate::record::Layers;
use crate::stats::median_of;

/// How long one timed batch lasts and how many are timed.
#[derive(Clone, Copy)]
pub struct Effort {
    pub batch: Duration,
    pub batches: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        batch: Duration::from_millis(5),
        batches: 7,
    };
    pub const SMOKE: Effort = Effort {
        batch: Duration::from_micros(200),
        batches: 3,
    };
}

/// Median ns per call of `f`: the batch size doubles until one batch
/// lasts `effort.batch`, then `effort.batches` batches are timed.
fn time<R>(effort: Effort, mut f: impl FnMut() -> R) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if start.elapsed() >= effort.batch || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..effort.batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_of(&samples)
}

/// `event`: the calendar queue at a 4096-node run's fill level, and the
/// reschedule-then-pop path that leaves a timer tombstone behind.
pub fn event(e: Effort, out: &mut Layers) {
    const STEP_NS: u64 = 11_311;
    let mut q = EventQueue::new();
    let mut t = 0u64;
    for i in 0..4096 {
        t += STEP_NS;
        q.schedule(SimTime::from_micros(t / 1000), SimEvent::App(NodeId(i), 0));
    }
    out.put(
        "event.schedule_pop_ns",
        time(e, || {
            t += STEP_NS;
            q.schedule(SimTime::from_micros(t / 1000), SimEvent::MobilityTick);
            q.pop()
        }),
    );
    let mut q = EventQueue::new();
    let mut now_us = 0u64;
    out.put(
        "event.timer_reschedule_pop_ns",
        time(e, || {
            now_us += 500;
            q.schedule_timer(SimTime::from_micros(now_us), NodeId(0));
            q.schedule_timer(SimTime::from_micros(now_us + 100), NodeId(0));
            q.pop()
        }),
    );
}

/// `medium`: registering and retiring a transmission among 64 in
/// flight, the CAD predicate over those 64, and the reception verdict
/// against 4 interferers.
pub fn medium(e: Effort, out: &mut Layers) {
    let mut medium = Medium::new(RfConfig::default());
    let payload: std::sync::Arc<[u8]> = vec![0xB3; 16].into();
    // Far apart and far from the listener, so the CAD predicate scans
    // all 64 without finding one audible.
    for i in 0..64 {
        let origin = Position::new(1.0e5 + 1.0e4 * i as f64, 0.0);
        let _ = medium.begin_tx(NodeId(i), origin, SimTime::ZERO, payload.clone());
    }
    let here = Position::new(0.0, 0.0);
    out.put(
        "medium.channel_busy_ns",
        time(e, || {
            medium.channel_busy_at(black_box(&here), NodeId(1000), None)
        }),
    );
    out.put(
        "medium.begin_end_tx_ns",
        time(e, || {
            let tx = medium.begin_tx(NodeId(1000), here, SimTime::ZERO, payload.clone());
            medium.end_tx(tx.frame)
        }),
    );
    let power = medium.received_power(&here, &Position::new(90.0, 0.0), NodeId(0), NodeId(1));
    let mut reception = Reception::new(
        FrameId(0),
        NodeId(0),
        medium.quality(power),
        power.to_milliwatts().value(),
        payload.clone(),
    );
    for k in 1..=4 {
        reception.add_interferer(FrameId(k), 1.0e-12 * k as f64);
    }
    let mut rng = SimRng::new(1);
    out.put(
        "medium.judge_ns",
        time(e, || medium.judge(black_box(&reception), &mut rng)),
    );
}

/// `phy`: the three pure functions a link-row fill is made of.
pub fn phy(e: Effort, out: &mut Layers) {
    let modulation = LoRaModulation::default();
    out.put(
        "phy.time_on_air_ns",
        time(e, || modulation.time_on_air(black_box(16))),
    );
    out.put(
        "phy.dbm_to_mw_ns",
        time(e, || black_box(Dbm::new(-87.3)).to_milliwatts()),
    );
    let medium = Medium::new(RfConfig::default());
    let (a, b) = (Position::new(0.0, 0.0), Position::new(250.0, 100.0));
    out.put(
        "phy.link_budget_ns",
        time(e, || {
            medium.received_power(black_box(&a), black_box(&b), NodeId(0), NodeId(1))
        }),
    );
}

/// The simulator's link-row fill function, from public parts.
fn link_between(medium: &Medium, positions: &[Position], i: usize, j: usize) -> Link {
    let power = medium.received_power(&positions[i], &positions[j], NodeId(i), NodeId(j));
    Link {
        power,
        power_mw: power.to_milliwatts().value(),
        audible: medium.audible(power),
    }
}

/// A placement indexed the way the simulator indexes it.
struct Placement<'a> {
    positions: &'a [Position],
    medium: Medium,
    grid: Grid,
    r_max: f64,
}

impl<'a> Placement<'a> {
    fn new(positions: &'a [Position]) -> Self {
        let rf = RfConfig::default();
        let r_max = max_audible_range(&rf);
        let mut grid = Grid::new();
        grid.rebuild(positions, r_max);
        Placement {
            positions,
            medium: Medium::new(rf),
            grid,
            r_max,
        }
    }

    /// Mean candidate-set size over every node: exact, so it repeats.
    fn candidates_per_query(&self) -> f64 {
        let mut cands = Vec::new();
        let total: usize = self
            .positions
            .iter()
            .map(|&p| {
                self.grid.candidates_into(p, &mut cands);
                cands.len()
            })
            .sum();
        total as f64 / self.positions.len() as f64
    }

    /// A cold row fill: candidate query plus one link budget per
    /// candidate (nothing cached, so nothing is reused by symmetry).
    fn row_fill_ns(&self, e: Effort) -> f64 {
        let cold = LinkCache::new();
        let mut cands = Vec::new();
        let mut i = 0;
        time(e, || {
            i = (i + 1) % self.positions.len();
            self.grid.candidates_into(self.positions[i], &mut cands);
            cold.compute_row(i, &cands, |j| {
                link_between(&self.medium, self.positions, i, j)
            })
        })
    }
}

/// `grid` and `link_cache` over the workload's own placement: grid
/// rebuild, candidate query, a cold row fill and a warm row read.
pub fn grid_and_rows(e: Effort, positions: &[Position], out: &mut Layers) {
    let mut place = Placement::new(positions);
    let n = positions.len();
    let r_max = place.r_max;
    out.put(
        "grid.rebuild_ns_per_node",
        time(e, || place.grid.rebuild(black_box(positions), r_max)) / n as f64,
    );
    let mut cands = Vec::new();
    let mut i = 0;
    out.put(
        "grid.candidates_ns",
        time(e, || {
            i = (i + 1) % n;
            place.grid.candidates_into(positions[i], &mut cands);
            cands.len()
        }),
    );
    out.put("grid.candidates_per_query", place.candidates_per_query());
    out.put("link_cache.row_fill_ns", place.row_fill_ns(e));
    let mut warm = LinkCache::new();
    warm.resize(n);
    for i in 0..n {
        place.grid.candidates_into(positions[i], &mut cands);
        let _ = warm.row(i, &cands, |j| link_between(&place.medium, positions, i, j));
    }
    out.put(
        "link_cache.row_hit_ns",
        time(e, || {
            i = (i + 1) % n;
            let row = warm.cached(i).expect("row filled above");
            row.get(black_box((i + 1) % n)).power_mw + row.audible.len() as f64
        }),
    );
}

/// The two numbers that explain the clustered placement: how many
/// candidates the capped grid hands each row fill, and what a fill
/// then costs.
pub fn clustered_rows(e: Effort, positions: &[Position], out: &mut Layers) {
    let place = Placement::new(positions);
    out.put(
        "grid.candidates_per_query.clustered",
        place.candidates_per_query(),
    );
    out.put("link_cache.row_fill_ns.clustered", place.row_fill_ns(e));
}

fn hello(src: u16, entries: usize) -> Packet {
    Packet::Hello {
        src: Address::new(src),
        id: 7,
        role: 0,
        entries: (0..entries)
            .map(|i| RouteEntry {
                address: Address::new(100 + i as u16),
                metric: (i % 14) as u8 + 1,
                role: 0,
            })
            .collect(),
    }
}

fn data(src: u16, dst: u16, via: u16, id: u8) -> Packet {
    Packet::Data {
        dst: Address::new(dst),
        src: Address::new(src),
        id,
        fwd: Forwarding {
            via: Address::new(via),
            ttl: 10,
        },
        payload: vec![0xA5; 24],
    }
}

fn mesh_node(address: u16) -> MeshNode {
    let mut node = MeshNode::new(
        MeshConfig::builder(Address::new(address))
            .region(lora_phy::region::Region::Unlimited)
            .build(),
    );
    node.on_start(&mut RadioIo::new(Duration::ZERO));
    node
}

/// `codec`, `routing`, `stack`: a maximum-size hello (61 entries) and a
/// 24-byte datagram through the codec, into a 256-entry table, and
/// through `MeshNode::on_frame` as a whole.
pub fn mesh(e: Effort, out: &mut Layers) {
    let hello61 = hello(2, codec::MAX_HELLO_ENTRIES);
    let hello_wire = codec::encode(&hello61).expect("a 61-entry hello fits a frame");
    let data24 = data(2, 1, 1, 7);
    let data_wire = codec::encode(&data24).expect("a 24-byte datagram fits a frame");
    out.put(
        "codec.encode_hello61_ns",
        time(e, || codec::encode(black_box(&hello61))),
    );
    out.put(
        "codec.decode_hello61_ns",
        time(e, || codec::decode(black_box(&hello_wire))),
    );
    out.put(
        "codec.encode_data24_ns",
        time(e, || codec::encode(black_box(&data24))),
    );
    out.put(
        "codec.decode_data24_ns",
        time(e, || codec::decode(black_box(&data_wire))),
    );

    // A table of 256 routes learnt from five neighbours' hellos; the
    // timed hello then refreshes 61 of them.
    let me = Address::new(1);
    let mut table = RoutingTable::new();
    let now = Duration::from_secs(1);
    for neighbour in 0..5u16 {
        let entries: Vec<RouteEntry> = (0..61u16)
            .map(|i| RouteEntry {
                address: Address::new(100 + neighbour * 61 + i),
                metric: (i % 14) as u8 + 1,
                role: 0,
            })
            .collect();
        table.apply_hello(me, Address::new(2 + neighbour), 0, &entries, 5.0, now);
    }
    let Packet::Hello { entries, .. } = &hello61 else {
        unreachable!("built as a hello above");
    };
    out.put(
        "routing.apply_hello61_ns",
        time(e, || {
            table.apply_hello(me, Address::new(2), 0, black_box(entries), 5.0, now)
        }),
    );
    out.put(
        "routing.next_hop_ns",
        time(e, || table.next_hop(black_box(Address::new(230)))),
    );

    let quality = SignalQuality::ideal();
    let mut node = mesh_node(1);
    let mut io = RadioIo::new(now);
    out.put(
        "stack.on_frame_hello61_ns",
        time(e, || {
            node.on_frame(black_box(&hello_wire), quality, &mut io)
        }),
    );
    // Forwarding: node 1 learns a route to 160 via 2 from the hello,
    // then relays datagrams 3 → 160 that name it as next hop. The
    // transmit queue is bounded, so a full queue refuses the relay
    // after the same decode, lookup and re-encode work.
    let forward_wire = codec::encode(&data(3, 160, 1, 9)).expect("fits a frame");
    out.put(
        "stack.on_frame_forward_ns",
        time(e, || {
            node.on_frame(black_box(&forward_wire), quality, &mut io)
        }),
    );
}

fn flood_node() -> FloodNode {
    let mut cfg = FloodConfig::new(Address::new(1));
    cfg.region = lora_phy::region::Region::Unlimited;
    let mut node = FloodNode::new(cfg);
    node.on_start(&mut RadioIo::new(Duration::ZERO));
    node
}

/// `flood`: `FloodNode::on_frame` on a packet never seen (dedup miss,
/// relay scheduled) and on one already seen (dedup hit, dropped).
pub fn flood(e: Effort, out: &mut Layers) {
    // A flood frame is a datagram whose next hop is the broadcast
    // address; 256 distinct (origin, id) pairs, twice the seen-cache.
    let frames: Vec<Vec<u8>> = (0..256u16)
        .map(|k| {
            let mut packet = data(100 + k, 9, Address::BROADCAST.value(), k as u8);
            if let Some(fwd) = packet.forwarding_mut() {
                fwd.ttl = 7;
            }
            codec::encode(&packet).expect("a 24-byte datagram fits a frame")
        })
        .collect();
    let quality = SignalQuality::ideal();
    let mut io = RadioIo::new(Duration::from_secs(1));
    let mut node = flood_node();
    node.on_frame(&frames[0], quality, &mut io);
    out.put(
        "flood.on_frame_dup_ns",
        time(e, || node.on_frame(black_box(&frames[0]), quality, &mut io)),
    );
    // Every new packet leaves a pending relay behind, so the node is
    // replaced each time the frame list wraps; that cost is spread
    // over 256 calls and is the same on both sides of a comparison.
    let mut k = 0;
    out.put(
        "flood.on_frame_new_ns",
        time(e, || {
            k += 1;
            if k == frames.len() {
                k = 0;
                node = flood_node();
            }
            node.on_frame(black_box(&frames[k]), quality, &mut io)
        }),
    );
}
