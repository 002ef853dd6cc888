//! Allocation regression tests for the event-engine hot path, with
//! **per-thread accounting** (PR 7): a counting `#[global_allocator]`
//! keeps one thread-local counter per thread, so the coordinator's
//! allocation behaviour can be pinned exactly even when worker threads
//! are allocating on purpose.
//!
//! Three regimes are pinned:
//!
//! * **Static steady state** (PR 4/PR 6 invariant, unchanged): after a
//!   warm-up phase grows every buffer — calendar buckets, fan-out and
//!   command scratch, dense metrics, medium registry, link-cache rows —
//!   a long measured window performs **exactly zero** allocations on
//!   the coordinator thread, at every shard and thread count. (With a
//!   static topology the parallel prefetch regions only run during
//!   `start`, so worker threads never even spin up in the window.)
//! * **Mobile steady state, single-threaded**: mobility ticks
//!   invalidate link-cache rows and transmissions refill them, into
//!   the buffers the rows kept. A refill allocates only when a node's
//!   audible set outgrows every set it held before, so allocations are
//!   a small fraction of *row rebuilds* and independent of events.
//! * **Mobile steady state, threaded**: the coordinator additionally
//!   pays a few allocations per fork-join (thread spawns, chunk
//!   handles) — a constant per parallel region, nothing per event or
//!   per rebuild.
//!
//! The firmware transmits a pre-built `Arc<[u8]>` frame each beacon,
//! mirroring how `bench::scaling` exercises the simulator hot path. A
//! long-frame leg repeats the static steady state at SF12, where each
//! frame's ends are one queued burst re-filed from the wheel's level 1.
//!
//! A dense-overlap static leg pins the one allocation the radio state
//! machine does make — a reception's interferer list, once per
//! reception that meets interference — and that pruning it at each add
//! costs nothing on top.
//!
//! A many-frames-in-flight leg pins the per-transmission gather of the
//! registry: with hundreds of frames on the air it reuses one scratch
//! list, and `shards = 4` on one thread allocates exactly what
//! `shards = 1` does — they are the same loop over the same queue.
//!
//! A last leg hosts the real LoRaMesher stack instead of the beacon:
//! in a converged mesh with no application traffic the only recurring
//! work is the hello round, and a node may allocate for the hello it
//! *sends* (its queued `Packet` carries the entry list) but not for the
//! several it *hears* — those are applied to the routing table straight
//! from the frame bytes. Its formation counterpart pins what learning
//! routes costs: the table is one vector, so 255 routes are a handful of
//! doublings, not an allocation per few routes.
//!
//! The event queue on its own gets the same treatment: its pending
//! events live in one slab, so a second fill to the same depth reuses
//! the nodes the first one freed.
//!
//! Counting allocations cannot see a buffer that doubles ever more
//! rarely, so the last legs count *bytes*: a protocol node's memory is
//! bounded by its configuration, not by how long it has run — hour 3
//! of a converged mesh or a flood allocates what hour 1 did — and the
//! duty-cycle tracker underneath holds one window (nothing at all when
//! unregulated) and answers a saturated MAC without allocating. A
//! flooding node copies a payload only for a frame it will act on.
//!
//! Outside the engine, `topology::connected_random` keeps one scratch
//! (placement, candidate grid, DFS state) across its draws, so a draw
//! after the first allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::modulation::LoRaModulation;
use lora_phy::propagation::Position;
use lora_phy::region::{DutyCycleTracker, Region};
use loramesher::packet::{Forwarding, RouteEntry};
use loramesher::RoutingTable;
use loramesher::{codec, Address, FloodConfig, FloodNode, NodeProtocol, Packet, RadioIo};
use radio_sim::event::{EventQueue, SimEvent};
use radio_sim::firmware::{Context, Firmware};
use radio_sim::mobility::Mobility;
use radio_sim::radio::RadioState;
use radio_sim::time::SimTime;
use radio_sim::{topology, NodeId, SimConfig, Simulator};
use scenario::experiments::default_spacing;
use scenario::runner::{NetworkBuilder, ProtocolChoice, Runner};
use scenario::workload;

struct CountingAlloc;

thread_local! {
    /// Per-thread allocation count. `const` init keeps the TLS access
    /// itself allocation-free; `try_with` below tolerates TLS teardown
    /// (allocations during thread destruction are simply not counted).
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Per-thread bytes requested (a `realloc` counts its new size).
    static LOCAL_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LOCAL_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Allocations performed by *the calling thread* so far.
fn local_allocs() -> u64 {
    LOCAL_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes requested by *the calling thread* so far.
fn local_bytes() -> u64 {
    LOCAL_BYTES.try_with(Cell::get).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Beacons a cached frame every `period` (3 s unless set); the `Arc`
/// clone bumps a refcount instead of copying, so steady-state
/// transmission is allocation-free end to end.
struct Beacon {
    next: Duration,
    period: Duration,
    frame: Arc<[u8]>,
    heard: u64,
}

impl Beacon {
    fn new(phase: Duration) -> Self {
        Beacon {
            next: phase,
            period: Duration::from_secs(3),
            frame: vec![0xB3; 16].into(),
            heard: 0,
        }
    }
}

impl Firmware for Beacon {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            self.next += self.period;
            ctx.transmit(self.frame.clone());
        }
    }
    fn on_frame(&mut self, _bytes: &[u8], _q: SignalQuality, _ctx: &mut Context) {
        self.heard += 1;
    }
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

fn assert_steady_state_alloc_free(mut config: SimConfig, shards: usize, threads: usize) {
    config.shards = shards;
    config.threads = threads;
    // Threaded runs require the per-node stream family (PR 9).
    config.rng_streams = threads > 1;
    let mut sim = Simulator::new(config, 42);
    // A tight grid, everyone in range of everyone. Beacon phases are
    // spaced 180 ms apart — far wider than a 16-byte frame's airtime —
    // so transmissions never overlap and every event type except
    // interference fires repeatedly.
    for k in 0..16u64 {
        let phase = Duration::from_millis(200 + 180 * k);
        let x = (k % 4) as f64 * 60.0;
        let y = (k / 4) as f64 * 60.0;
        sim.add_node(Beacon::new(phase), Position::new(x, y));
    }

    // Warm-up: every beacon slot cycles through the calendar ring many
    // times, growing each bucket heap, the scratch buffers and the
    // per-node metrics to their steady-state capacities. (A threaded
    // sharded run's per-band queues are built at `start` and grow
    // through the same warm-up.)
    sim.run_for(Duration::from_secs(500));
    let events_before = sim.events_processed();

    let allocs_before = local_allocs();
    sim.run_for(Duration::from_secs(300));
    let allocs = local_allocs() - allocs_before;
    let events = sim.events_processed() - events_before;

    assert!(
        events > 10_000,
        "only {events} events in the measured window — not a steady-state workload"
    );
    // Deliveries must actually be happening, or "no allocations" would
    // be vacuous.
    let delivered = sim.metrics().frames_delivered;
    assert!(delivered > 1_000, "only {delivered} deliveries");
    assert_eq!(
        allocs, 0,
        "steady state ({shards} shards, {threads} threads) allocated \
         {allocs} times on the coordinator over {events} events"
    );
}

#[test]
fn steady_state_event_processing_does_not_allocate() {
    assert_steady_state_alloc_free(SimConfig::default(), 1, 1);
}

/// The band-queue engine's hot path — k-way merge, batch draining and
/// the range-gated gather — must be just as allocation-free as the
/// sequential reference.
#[test]
fn sharded_steady_state_does_not_allocate() {
    assert_steady_state_alloc_free(SimConfig::default(), 4, 2);
}

/// Long-range frames: sixteen beacons of 120–165 bytes at SF12 / 125 kHz
/// stay on the air 7–9 s, past the event wheel's ≈ 4.3 s level 0, so a
/// frame's end and its fifteen receivers' — one burst on one thread,
/// single events in band queues on two — are re-filed from level 1
/// before they pop. Spaced 10 s apart, no two overlap. A burst's ends
/// take the slab nodes single events would, so nothing allocates.
#[test]
fn long_frame_steady_state_does_not_allocate() {
    for (shards, threads) in [(1, 1), (4, 2)] {
        let mut config = SimConfig {
            shards,
            threads,
            rng_streams: threads > 1,
            ..SimConfig::default()
        };
        config.rf.modulation = LoRaModulation::long_slow();
        let mut sim = Simulator::new(config, 42);
        for k in 0..16u64 {
            let beacon = Beacon {
                period: Duration::from_secs(160),
                frame: vec![0xB3; 120 + 3 * k as usize].into(),
                ..Beacon::new(Duration::from_secs(1 + 10 * k))
            };
            let pos = Position::new((k % 4) as f64 * 60.0, (k / 4) as f64 * 60.0);
            sim.add_node(beacon, pos);
        }
        sim.run_for(Duration::from_secs(3 * 160));
        let (events_before, delivered_before) =
            (sim.events_processed(), sim.metrics().frames_delivered);
        let allocs_before = local_allocs();
        sim.run_for(Duration::from_secs(5 * 160));
        let allocs = local_allocs() - allocs_before;
        let events = sim.events_processed() - events_before;
        let delivered = sim.metrics().frames_delivered - delivered_before;
        assert!(
            events > 1_000 && delivered > 1_000,
            "{events} events, {delivered} delivered"
        );
        assert_eq!(
            allocs, 0,
            "long frames ({shards} shards, {threads} threads) allocated {allocs} \
             times on the coordinator over {events} events"
        );
    }
}

/// Dense overlap: the same sixteen beacons, phases 15 ms apart against
/// a ~46 ms airtime, so every burst keeps three or four frames on the
/// air at once and receptions sit through interferers that start *and
/// end* while they last. A reception allocates its interferer list once,
/// on the first entry (the per-collision cost the mesh leg below also
/// budgets for); nothing else may allocate — not the prune-at-add that
/// replaced the per-`TxEnd` sweeps (`retain` shrinks in place), and not
/// a list regrown because ended frames piled up in it: with at most
/// three live interferers an unpruned list outgrows its first
/// allocation, a pruned one never does.
#[test]
fn dense_overlap_allocates_one_interferer_list_per_reception_and_nothing_else() {
    let window = |shards: usize| {
        let config = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(config, 42);
        for k in 0..16u64 {
            let phase = Duration::from_millis(200 + 15 * k);
            let pos = Position::new((k % 4) as f64 * 60.0, (k / 4) as f64 * 60.0);
            sim.add_node(Beacon::new(phase), pos);
        }
        // A long warm-up: the sharded engine's four calendars take
        // longer to grow every bucket heap under bursty load.
        sim.run_for(Duration::from_secs(3_000));
        // Receptions concluded so far, however they ended.
        let receptions = |sim: &Simulator<Beacon>| {
            let m = sim.metrics();
            m.frames_delivered + m.total_losses() + m.rx_aborted_by_tx
        };
        let (events_before, receptions_before) = (sim.events_processed(), receptions(&sim));
        let collisions_before = sim.metrics().lost_collision;
        let allocs_before = local_allocs();
        sim.run_for(Duration::from_secs(300));
        let allocs = local_allocs() - allocs_before;
        let events = sim.events_processed() - events_before;
        let collisions = sim.metrics().lost_collision - collisions_before;
        assert!(events > 5_000, "only {events} events in the window");
        // Or the interferer lists were empty and the leg proves nothing.
        assert!(collisions > 1_000, "only {collisions} collisions");
        let receptions = receptions(&sim) - receptions_before;
        assert!(
            allocs <= receptions,
            "{shards} shards: {allocs} allocations for {receptions} receptions \
             ({collisions} collided) over {events} events: more than one \
             interferer list per reception"
        );
    };
    window(1);
    window(4);
}

/// The gather a transmission makes of the frames already on the air
/// reuses one scratch list: a 32×32 grid whose beacons go out in five
/// slots, the senders of a slot a knight's move apart — so over two
/// hundred frames are on the air together, each gather holds the four
/// nearest of them, and no receiver hears two (no interferer list, the
/// one allocation a reception may make) — allocates nothing at all per
/// event. And since one thread runs one queue whatever the shard count,
/// `shards = 4` counts exactly what `shards = 1` counts.
#[test]
fn gather_of_many_frames_in_flight_does_not_allocate_at_any_shard_count() {
    let window = |shards: usize| {
        let config = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let spacing = topology::radio_range_m(&config.rf) * 0.8;
        let mut sim = Simulator::new(config, 42);
        for (k, pos) in topology::grid(32, 32, spacing).into_iter().enumerate() {
            // Closed 4-neighbourhoods of the cells with equal
            // `x + 2y mod 5` tile the grid: every other cell hears
            // exactly one sender of the slot.
            let slot = (k % 32 + 2 * (k / 32)) % 5;
            let phase = Duration::from_millis(200 + 500 * slot as u64)
                + Duration::from_micros(10 * k as u64);
            sim.add_node(Beacon::new(phase), pos);
        }
        sim.run_for(Duration::from_secs(60));
        let events_before = sim.events_processed();
        let allocs_before = local_allocs();
        sim.run_for(Duration::from_secs(60));
        let allocs = local_allocs() - allocs_before;
        let events = sim.events_processed() - events_before;
        assert!(events > 100_000, "only {events} events in the window");
        assert_eq!(sim.metrics().lost_collision, 0, "slots interfere");
        // Into the next slot: its frames are all on the air.
        sim.run_for(Duration::from_millis(230));
        let in_flight = (0..sim.node_count())
            .filter(|&i| matches!(sim.radio(NodeId(i)).state(), RadioState::Tx { .. }))
            .count();
        assert!(in_flight >= 20, "only {in_flight} frames in flight");
        allocs
    };
    let (sharded, sequential) = (window(4), window(1));
    assert_eq!(
        sharded, sequential,
        "shards = 4 on one thread is not the sequential loop"
    );
    assert_eq!(sequential, 0, "the gather allocates in steady state");
}

/// What the coordinator did over a measured steady-state window.
struct Window {
    allocs: u64,
    events: u64,
    rebuilds: u64,
    /// Parallel regions entered: one per mobility tick when threaded
    /// (the position step; 72 rows are below the prefetch gate) plus
    /// one per committed batch.
    fork_joins: u64,
}

/// Mobile workload, above the parallel region threshold so the position
/// step genuinely forks when threaded. Frames are 4 bytes — 31 ms on
/// the air against 40 ms between beacons — so no reception meets an
/// interferer and the one allocation the radio state machine makes (an
/// interferer list) stays out of the count.
fn mobile_window(threads: usize) -> Window {
    // Both legs use the per-node stream family: the threaded leg needs
    // it (PR 9), and the sequential reference must share it so the two
    // event streams compare equal.
    let config = SimConfig {
        shards: 4,
        threads,
        rng_streams: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(config, 42);
    let walk = Mobility::RandomWaypoint {
        width_m: 1_200.0,
        height_m: 600.0,
        min_speed: 2.0,
        max_speed: 12.0,
        pause: Duration::from_secs(1),
    };
    for k in 0..72u64 {
        let phase = Duration::from_millis(40 * k + 11);
        let pos = Position::new((k % 12) as f64 * 100.0, (k / 12) as f64 * 100.0);
        let beacon = Beacon {
            frame: vec![0xB3; 4].into(),
            ..Beacon::new(phase)
        };
        if k % 3 == 0 {
            sim.add_mobile_node(beacon, pos, walk.clone());
        } else {
            sim.add_node(beacon, pos);
        }
    }
    let window = Duration::from_secs(120);
    sim.run_for(window);
    let events_before = sim.events_processed();
    let rebuilds_before = sim.link_rebuilds();
    let batches_before = sim.commit_batches();
    let allocs_before = local_allocs();
    sim.run_for(window);
    let ticks = if threads > 1 { window.as_secs() } else { 0 };
    Window {
        allocs: local_allocs() - allocs_before,
        events: sim.events_processed() - events_before,
        rebuilds: sim.link_rebuilds() - rebuilds_before,
        fork_joins: ticks + sim.commit_batches() - batches_before,
    }
}

/// Allocations a steady-state window of `rebuilds` refills may make:
/// rows refill in place, so only a row outgrowing its buffer allocates.
/// (The grid reuses its buffers across rebuilds too.) Before rows kept
/// their buffers this workload made 3–4 allocations *per rebuild*.
fn refill_budget(rebuilds: u64) -> u64 {
    rebuilds / 8 + 64
}

/// Refilling a row allocates nothing unless the row grew: allocation
/// traffic is a small fraction of the rebuild count and independent of
/// the event count.
#[test]
fn mobile_steady_state_allocations_scale_with_rebuilds_not_events() {
    let w = mobile_window(1);
    assert!(
        w.events > 10_000,
        "only {} events — not a steady-state workload",
        w.events
    );
    assert!(w.rebuilds > 1_000, "only {} row rebuilds", w.rebuilds);
    assert!(
        w.allocs <= refill_budget(w.rebuilds),
        "{} allocations over {} rebuilds ({} events): row refills no \
         longer reuse their buffers",
        w.allocs,
        w.rebuilds,
        w.events
    );
}

/// With worker threads, the coordinator still runs chunk 0 of every
/// region itself and pays a few allocations per fork-join (thread
/// spawns, chunk handles, result buffers) — 8 to 10 measured, 16
/// allowed. That scaffolding is all threads may add to the sequential
/// engine's budget: nothing per event, nothing per rebuild. (The
/// sequential count itself is now too close to zero to be the yardstick.)
#[test]
fn threaded_mobile_coordinator_allocates_no_more_than_sequential() {
    let serial = mobile_window(1);
    let threaded = mobile_window(2);
    assert_eq!(
        serial.events, threaded.events,
        "thread count changed the event stream — determinism bug"
    );
    assert!(threaded.fork_joins >= 100, "no parallel regions ran");
    assert!(
        threaded.allocs <= refill_budget(threaded.rebuilds) + 16 * threaded.fork_joins,
        "coordinator allocated {} times over {} fork-joins and {} rebuilds",
        threaded.allocs,
        threaded.fork_joins,
        threaded.rebuilds
    );
}

/// Converged 3×3 LoRaMesher grid, no application traffic: over a
/// steady-state window the allocation count is bounded by the hellos
/// *sent*, although every node hears two to four hellos per hello it
/// sends. Two per hello sent: the entry list cloned into the queued
/// packet, and (debug builds only, which is what `cargo test` runs) the
/// encode inside the MAC's wire-cache cross-check. The eighth on top
/// covers what the simulator allocates per collision (a reception's
/// interferer list). A receive path that materialises the decoded entry
/// list allocates once per hello heard and lands at four to five per
/// hello sent.
#[test]
fn mesh_steady_state_allocates_per_hello_sent_not_per_hello_heard() {
    let mut net = NetworkBuilder::mesh(topology::grid(3, 3, default_spacing()), 7).build();
    net.run_until_converged(Duration::from_secs(2), Duration::from_secs(1200))
        .expect("grid-9 converges");
    // Two more hours with the final tables: hello caches, transmit
    // queues and (the slowest) the calendar's bucket heaps reach their
    // steady-state capacities.
    net.run_for(Duration::from_secs(7200));
    let hellos = |net: &Runner| {
        (0..net.len())
            .filter_map(|i| net.mesh_node(i))
            .map(|n| n.stats())
            .fold((0, 0), |(sent, heard), s| {
                (sent + s.hellos_sent, heard + s.hellos_received)
            })
    };
    let (sent_before, heard_before) = hellos(&net);
    let allocs_before = local_allocs();
    net.run_for(Duration::from_secs(1800));
    let allocs = local_allocs() - allocs_before;
    let (sent, heard) = hellos(&net);
    let (sent, heard) = (sent - sent_before, heard - heard_before);

    assert!(sent > 100, "only {sent} hellos sent in the window");
    // Or the bound below would not tell the two receive paths apart.
    assert!(
        heard > 2 * sent,
        "{heard} hellos heard for {sent} sent: not a mesh"
    );
    assert!(
        allocs <= 2 * sent + sent / 8,
        "{allocs} allocations for {sent} hellos sent ({heard} heard): \
         the receive path allocates per hello heard"
    );
}

/// Formation: a node learning a 256-node mesh from full hellos — the
/// sender's own route plus 254 advertised ones, arriving interleaved so
/// most land *between* routes already held — allocates only when the
/// table's one vector doubles: at most ⌈log₂ 255⌉ + 1 times.
#[test]
fn learning_255_routes_allocates_only_to_double_the_table() {
    let (me, neighbour) = (Address::new(1), Address::new(2));
    let hello = |residue: u16| -> Vec<RouteEntry> {
        (3..=256)
            .filter(|a| a % 5 == residue)
            .map(|a| RouteEntry {
                address: Address::new(a),
                metric: 2,
                role: 0,
            })
            .collect()
    };
    let hellos: Vec<Vec<RouteEntry>> = (0..5).map(hello).collect();
    let mut table = RoutingTable::new();
    let allocs_before = local_allocs();
    for (i, entries) in hellos.iter().enumerate() {
        assert!(entries.len() <= 61, "{} entries", entries.len());
        let now = Duration::from_secs(i as u64);
        table.apply_hello(me, neighbour, 0, entries, 0.0, now);
    }
    let allocs = local_allocs() - allocs_before;
    assert_eq!(table.len(), 255);
    let doublings = 9; // ⌈log₂ 255⌉ + 1
    assert!(
        allocs <= doublings,
        "{allocs} allocations to learn 255 routes: more than {doublings} vector doublings"
    );
}

/// Steady state: a neighbour's full hello, heard again and again, is a
/// repeat the table applies in one pass. The second hearing stores the
/// record (the first learned routes, so it was no repeat to remember);
/// from then on 1 000 repeats, heard at varying SNR and times beside a
/// second neighbour's, allocate nothing.
#[test]
fn repeated_hellos_apply_without_allocating() {
    let me = Address::new(1);
    let (n2, n3) = (Address::new(2), Address::new(3));
    let hello = |first: u16| -> Vec<RouteEntry> {
        (first..first + 61)
            .map(|a| RouteEntry {
                address: Address::new(a),
                metric: 1 + (a % 3) as u8,
                role: (a % 2) as u8,
            })
            .collect()
    };
    let (from_n2, from_n3) = (hello(10), hello(40));
    let mut table = RoutingTable::new();
    for s in 0..2 {
        let now = Duration::from_secs(s);
        table.apply_hello(me, n2, 0, &from_n2, 1.0, now);
        table.apply_hello(me, n3, 0, &from_n3, 2.0, now);
    }
    let allocs_before = local_allocs();
    for s in 2..1_002u64 {
        let now = Duration::from_secs(s);
        let snr = (s % 7) as f64 - 3.0;
        assert_eq!(table.apply_hello(me, n2, 0, &from_n2, snr, now), 0);
        assert_eq!(table.apply_hello(me, n3, 0, &from_n3, snr, now), 0);
    }
    let allocs = local_allocs() - allocs_before;
    assert_eq!(allocs, 0, "{allocs} allocations over 2 000 repeated hellos");
    assert_eq!(
        table.route(Address::new(10)).map(|r| r.heard_count),
        Some(1_002)
    );
}

/// A connected random placement reuses one scratch across its draws:
/// 2 000 draws of 300 nodes at the CLI's density (none connected)
/// allocate what the first draw does.
#[test]
fn unconnected_random_draws_reuse_one_scratch() {
    let spacing = default_spacing();
    let side = spacing * 300f64.sqrt() * 0.85;
    let allocs = |draws: usize| {
        let mut rng = radio_sim::rng::SimRng::new(1);
        let before = local_allocs();
        let placement = topology::connected_random(300, side, side, spacing, &mut rng, draws);
        assert!(placement.is_none());
        local_allocs() - before
    };
    let (first, all) = (allocs(1), allocs(2_000));
    assert_eq!(
        all, first,
        "2 000 draws allocate {all} times, one draw {first}"
    );
}

/// The queue's memory follows its peak depth, not its traffic: filling
/// it with 100 k events — most in level 0, a tail in level 1, timers that
/// tombstone each other — and draining it grows the slab (and the timer
/// table) once; a second, identical round allocates nothing.
#[test]
fn refilling_a_drained_queue_reuses_the_slab() {
    let mut q = EventQueue::new();
    let round = |q: &mut EventQueue, start_ms: u64| -> u64 {
        let (before, dropped_before) = (local_allocs(), q.stale_timers_dropped());
        for i in 0..100_000u64 {
            let at = SimTime::from_micros(start_ms * 1_000 + (i * 7_919) % 9_000_000);
            if i % 10 == 0 {
                q.schedule_timer(at, NodeId((i % 64) as usize));
            } else {
                q.schedule(at, SimEvent::App(NodeId(0), i));
            }
        }
        assert_eq!(q.len(), 100_000);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped + q.stale_timers_dropped() - dropped_before, 100_000);
        local_allocs() - before
    };
    let first = round(&mut q, 0);
    assert!(first > 0, "the first fill must have grown the slab");
    let second = round(&mut q, 10_000);
    assert_eq!(second, 0, "{second} allocations refilling a drained queue");
}

/// Bytes the calling thread allocates while `net` runs each of three
/// consecutive simulated hours. The adapter's delivery log is the
/// host's to drain, so it is emptied (capacity kept) between hours.
fn bytes_per_hour(net: &mut Runner) -> [u64; 3] {
    std::array::from_fn(|_| {
        for i in 0..net.len() {
            let id = net.id(i);
            net.sim_mut().with_node(id, |fw, _| fw.event_log.clear());
        }
        let before = local_bytes();
        net.run_for(Duration::from_secs(3600));
        local_bytes() - before
    })
}

fn assert_hour_3_allocates_like_hour_1(what: &str, hours: [u64; 3]) {
    let [first, _, third] = hours;
    assert!(first > 0, "{what}: nothing allocated — not a live network");
    assert!(
        third <= first + first / 20,
        "{what}: {third} bytes allocated in hour 3 against {first} in hour 1 \
         ({hours:?}): something grows with the length of the run"
    );
}

/// Converged 3×3 LoRaMesher grid, hellos only: the bytes a simulated
/// hour allocates do not grow with the hours before it. (Every node
/// runs `Region::Unlimited`; a duty-cycle history that kept every frame
/// doubled to 32 KiB per node in hour 3.)
#[test]
fn mesh_hour_3_allocates_no_more_bytes_than_hour_1() {
    let mut net = NetworkBuilder::mesh(topology::grid(3, 3, default_spacing()), 7).build();
    net.run_until_converged(Duration::from_secs(2), Duration::from_secs(1200))
        .expect("grid-9 converges");
    let hours = bytes_per_hour(&mut net);
    assert_hour_3_allocates_like_hour_1("mesh", hours);
}

/// The same for nine flooding nodes under a steady all-to-one load
/// (scheduled up front, so the window sees the protocol and the engine
/// only).
#[test]
fn flood_hour_3_allocates_no_more_bytes_than_hour_1() {
    let mut net = NetworkBuilder::mesh(topology::grid(3, 3, default_spacing()), 7)
        .protocol(ProtocolChoice::Flooding { ttl: 5 })
        .build();
    let interval = Duration::from_secs(120);
    let start = Duration::from_secs(600);
    net.apply(&workload::all_to_one(9, 0, 16, start, interval, 3 * 30));
    net.run_until(start);
    let hours = bytes_per_hour(&mut net);
    assert_hour_3_allocates_like_hour_1("flood", hours);
    let relayed: u64 = (0..net.len())
        .filter_map(|i| net.flood_node(i))
        .map(|n| n.stats().relayed)
        .sum();
    assert!(relayed > 1_000, "only {relayed} relays in three hours");
}

/// Under EU868 at E13's offered duty every attempt is deferred: a 1 %
/// tracker driven at ~2.8 % answers 10 000 `try_transmit`/`next_allowed`
/// pairs over ten windows, and once the first window has sized its
/// history none of them allocates.
#[test]
fn saturated_tracker_defers_without_allocating() {
    let mut tracker = DutyCycleTracker::eu868_one_percent();
    let airtime = Duration::from_millis(100);
    let (mut deferred, mut sent, mut allocs_before) = (0u64, 0u64, 0);
    for i in 0..10_000u64 {
        if i == 1_000 {
            allocs_before = local_allocs(); // one window in
        }
        let now = Duration::from_millis(i * 3_600);
        if tracker.try_transmit(now, airtime) {
            sent += 1;
        } else {
            let when = tracker.next_allowed(now, airtime).expect("fits the budget");
            assert!(when > now && when <= now + Duration::from_secs(3_601));
            deferred += 1;
        }
    }
    let allocs = local_allocs() - allocs_before;
    assert!(
        sent >= 3_600 && deferred > 5_000,
        "{sent} sent, {deferred} deferred"
    );
    assert!(
        tracker.history_len() <= 360,
        "{} held",
        tracker.history_len()
    );
    assert_eq!(allocs, 0, "{allocs} allocations answering a saturated MAC");
}

/// An unregulated tracker keeps no history: 100 000 frames, no
/// allocation, and the total is still right.
#[test]
fn unregulated_tracker_records_without_allocating() {
    let mut tracker = DutyCycleTracker::unlimited();
    let allocs_before = local_allocs();
    for i in 0..100_000u64 {
        assert!(tracker.try_transmit(Duration::from_millis(i * 10), Duration::from_millis(5)));
    }
    let allocs = local_allocs() - allocs_before;
    assert_eq!(
        allocs, 0,
        "{allocs} allocations recording unregulated frames"
    );
    assert_eq!(tracker.total_airtime(), Duration::from_secs(500));
}

/// A flooding node that hears the same frame 1 000 times allocates for
/// the first — the payload it will relay — and for no duplicate.
#[test]
fn flood_duplicates_are_dropped_without_allocating() {
    let mut cfg = FloodConfig::new(Address::new(2));
    cfg.region = Region::Unlimited;
    let mut node = FloodNode::new(cfg);
    node.on_start(&mut RadioIo::new(Duration::ZERO));
    let frame = codec::encode(&Packet::Data {
        dst: Address::new(3),
        src: Address::new(1),
        id: 9,
        fwd: Forwarding {
            via: Address::BROADCAST,
            ttl: 5,
        },
        payload: vec![0xA5; 24],
    })
    .expect("encodes");
    let hear = |node: &mut FloodNode| {
        let before = local_allocs();
        let mut io = RadioIo::new(Duration::from_secs(1));
        node.on_frame(&frame, SignalQuality::ideal(), &mut io);
        local_allocs() - before
    };
    let first = hear(&mut node);
    assert!(first > 0, "the first copy is kept for the relay");
    let duplicates: u64 = (0..999).map(|_| hear(&mut node)).sum();
    assert_eq!(
        duplicates, 0,
        "{duplicates} allocations over 999 duplicates"
    );
    assert_eq!(node.stats().duplicates_suppressed, 999);
    assert_eq!(node.pending_relays(), 1);
}
