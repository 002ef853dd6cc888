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
//!   command scratch, dense metrics, medium roster, link-cache rows —
//!   a long measured window performs **exactly zero** allocations on
//!   the coordinator thread, at every shard and thread count. (With a
//!   static topology the parallel prefetch regions only run during
//!   `start`, so worker threads never even spin up in the window.)
//! * **Mobile steady state, single-threaded**: mobility ticks
//!   invalidate and rebuild link-cache rows, and each rebuilt sparse
//!   row costs a bounded handful of allocations (its candidate and
//!   link vectors). Allocations must scale with *row rebuilds*, never
//!   with events — this measured per-rebuild constant is the
//!   documented per-worker bound, since workers run exactly this row
//!   construction and nothing else.
//! * **Mobile steady state, threaded**: with workers doing the row
//!   prefetch, the coordinator's own allocation count must not exceed
//!   the single-threaded engine's total — threads offload work, they
//!   never add coordinator-side churn beyond the per-region fork-join
//!   constants.
//!
//! The firmware transmits a pre-built `Arc<[u8]>` frame each beacon,
//! mirroring how `bench::scaling` exercises the simulator hot path.
//!
//! A dense-overlap static leg pins the one allocation the radio state
//! machine does make — a reception's interferer list, once per
//! reception that meets interference — and that pruning it at each add
//! costs nothing on top.
//!
//! A last leg hosts the real LoRaMesher stack instead of the beacon:
//! in a converged mesh with no application traffic the only recurring
//! work is the hello round, and a node may allocate for the hello it
//! *sends* (its queued `Packet` carries the entry list) but not for the
//! several it *hears* — those are applied to the routing table straight
//! from the frame bytes. Its formation counterpart pins what learning
//! routes costs: the table is one vector, so 255 routes are a handful of
//! doublings, not an allocation per few routes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::Position;
use loramesher::packet::RouteEntry;
use loramesher::{Address, RoutingTable};
use radio_sim::firmware::{Context, Firmware};
use radio_sim::mobility::Mobility;
use radio_sim::{topology, SimConfig, Simulator};
use scenario::experiments::default_spacing;
use scenario::runner::{NetworkBuilder, Runner};

struct CountingAlloc;

thread_local! {
    /// Per-thread allocation count. `const` init keeps the TLS access
    /// itself allocation-free; `try_with` below tolerates TLS teardown
    /// (allocations during thread destruction are simply not counted).
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations performed by *the calling thread* so far.
fn local_allocs() -> u64 {
    LOCAL_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Beacons a cached frame every 3 s; the `Arc` clone bumps a refcount
/// instead of copying, so steady-state transmission is allocation-free
/// end to end.
struct Beacon {
    next: Duration,
    frame: Arc<[u8]>,
    heard: u64,
}

impl Beacon {
    fn new(phase: Duration) -> Self {
        Beacon {
            next: phase,
            frame: vec![0xB3; 16].into(),
            heard: 0,
        }
    }
}

impl Firmware for Beacon {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            self.next += Duration::from_secs(3);
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
    // per-node metrics to their steady-state capacities. (The sharded
    // engine's per-band queues and rosters are built at `start` and
    // grow through the same warm-up.)
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

/// PR 6: the sharded engine's hot path — k-way merge, batch draining,
/// roster registration and range-scoped sweeps — must be just as
/// allocation-free as the sequential reference.
#[test]
fn sharded_steady_state_does_not_allocate() {
    assert_steady_state_alloc_free(SimConfig::default(), 4, 2);
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

/// Mobile workload (above the parallel region threshold so prefetch
/// regions genuinely fire when threaded): returns the coordinator's
/// allocation count, the event count and the row-rebuild count over a
/// measured steady-state window.
fn mobile_window(threads: usize) -> (u64, u64, u64) {
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
        if k % 3 == 0 {
            sim.add_mobile_node(Beacon::new(phase), pos, walk.clone());
        } else {
            sim.add_node(Beacon::new(phase), pos);
        }
    }
    sim.run_for(Duration::from_secs(120));
    let events_before = sim.events_processed();
    let rebuilds_before = sim.link_rebuilds();
    let allocs_before = local_allocs();
    sim.run_for(Duration::from_secs(120));
    (
        local_allocs() - allocs_before,
        sim.events_processed() - events_before,
        sim.link_rebuilds() - rebuilds_before,
    )
}

/// A rebuilt sparse row allocates its candidate and link vectors and
/// nothing more: a small measured constant per rebuild, independent of
/// the event count. This is the documented per-worker allocation bound
/// — a worker thread runs exactly this row construction.
#[test]
fn mobile_steady_state_allocations_scale_with_rebuilds_not_events() {
    let (allocs, events, rebuilds) = mobile_window(1);
    assert!(
        events > 10_000,
        "only {events} events — not a steady-state workload"
    );
    assert!(rebuilds > 0, "mobility produced no row rebuilds");
    // Sparse row construction: candidate scratch + the row's two
    // vectors, each possibly reallocated a few times while growing.
    // 8 allocations per rebuild is the documented ceiling; the grid
    // itself reuses its buffers across rebuilds.
    assert!(
        allocs <= 8 * rebuilds + 64,
        "{allocs} allocations over {rebuilds} rebuilds ({events} events): \
         allocation traffic no longer scales with row rebuilds"
    );
}

/// With worker threads doing the prefetch, the coordinator still runs
/// chunk 0 of every region itself and pays a few allocations per
/// fork-join (thread spawns, chunk handles, result buffers). That
/// scaffolding must stay marginal: the coordinator's count is pinned
/// to within 12.5% of the single-threaded engine's total — workers may
/// shift row builds around, never multiply coordinator-side churn.
#[test]
fn threaded_mobile_coordinator_allocates_no_more_than_sequential() {
    let (serial_allocs, serial_events, _) = mobile_window(1);
    let (threaded_allocs, threaded_events, _) = mobile_window(2);
    assert_eq!(
        serial_events, threaded_events,
        "thread count changed the event stream — determinism bug"
    );
    assert!(
        threaded_allocs <= serial_allocs + serial_allocs / 8 + 256,
        "coordinator allocated {threaded_allocs} times with workers vs \
         {serial_allocs} single-threaded"
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
