//! The simulator: event loop, node hosting and fault injection.
//!
//! [`Simulator`] owns the nodes (each a [`Firmware`] plus a [`Radio`] and a
//! position), the shared [`Medium`] and the event queue, and advances
//! virtual time event by event. See the crate-level docs for the overall
//! model; this module implements the mechanics:
//!
//! * **Transmission** — a `Transmit` command registers an [`ActiveTx`] on
//!   the medium and immediately decides which other nodes lock onto it
//!   (listening + audible) or suffer it as interference; its end and
//!   every locked receiver's are then queued as one burst
//!   ([`EventQueue::schedule_burst`]) and still dispatched one by one.
//!   The frames already on the air are gathered from the
//!   medium's registry once per transmission, within twice the audible
//!   range of its origin, and each locked receiver filters that list.
//! * **Queues** — one event queue, popped in `(time, seq)` order. Only a
//!   run with band workers (`shards > 1` and `threads > 1`) also builds
//!   one queue per spatial band and merges them in the same order.
//! * **Reception** — at the frame's end each locked receiver asks the
//!   medium to judge the attempt against noise and the worst interference
//!   overlap; winners get `on_frame`, losers are counted by reason.
//! * **Capture** — a ≥6 dB stronger frame arriving during the preamble of
//!   the currently locked frame steals the receiver.
//! * **Timers** — firmware exposes `next_wake()`; the simulator keeps at
//!   most one live timer per node and ignores stale ones.
//! * **Faults** — nodes can be killed (radio off, mid-frame transmissions
//!   truncated) and revived at scheduled instants.
//!
//! [`ActiveTx`]: crate::medium::ActiveTx

use std::time::Duration;

use lora_phy::modulation::LoRaModulation;
use lora_phy::power::Dbm;
use lora_phy::propagation::Position;

use crate::event::{EventQueue, FrameId, SimEvent};
use crate::firmware::{Context, Firmware, NodeId, RadioCommand};
use crate::grid::Grid;
use crate::link_cache::{Link, LinkCache, LinkRow};
use crate::medium::{Medium, RfConfig, RxOutcome};
use crate::metrics::Metrics;
use crate::mobility::{Mobility, MobilityState};
use crate::par;
use crate::radio::{Radio, RadioState, Reception};
use crate::rng::SimRng;
use crate::shard::{self, Partitioner};
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

mod commit;

/// Worker regions are only spun up when at least this many independent
/// items are queued; below it, spawn overhead dwarfs the work.
const PAR_MIN_ITEMS: usize = 64;

/// Minimum link-row prefetch items *per worker* before the fork-join
/// pays for itself. A compile-time constant measured offline on the
/// 4 096-node mobile grid (runtime timing is banned in this crate — lint
/// `d2` — and would make the gate nondeterministic across hosts): row
/// fills are ~1 µs each, thread park/unpark costs tens of µs, so a
/// worker needs on the order of a hundred rows to win. Below the
/// threshold the coordinator fills rows inline, which is what fixed the
/// mobile 4096-node `threads > 1` throughput regression: its wake-gated
/// prefetch batches are usually far smaller than the node count.
const PREFETCH_MIN_PER_WORKER: usize = 128;

/// How far from its origin, per axis and in units of the audible range
/// `r_max`, a starting transmission gathers the in-flight frames that
/// can interfere at the receivers it locks. Two obligations make `2`
/// enough: a receiver is locked only if the new frame is audible there,
/// so it is within `r_max` of the origin; and a frame is seeded as an
/// interferer only if audible at that receiver, so it originates within
/// `r_max` of it ([`shard::max_audible_range`] bounds both). The slack
/// covers the rounding of the coordinate differences, as in the row
/// fill's gate.
const GATHER_REACH: f64 = 2.0 * (1.0 + 1e-9);

/// Simulation-wide configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RF parameters shared by all nodes.
    pub rf: RfConfig,
    /// Duration of a CAD scan, in symbol times (SX127x: ~2).
    pub cad_symbols: u32,
    /// Capacity of the debug trace (0 disables tracing).
    pub trace_capacity: usize,
    /// Interval between mobility position updates.
    pub mobility_tick: Duration,
    /// Number of spatial bands the world is partitioned into along the
    /// x-axis (see [`crate::shard`]). `1` (the default) has no partition.
    /// More scope link-cache invalidation on mobility ticks to the bands
    /// a mover can reach, and — only with more than one of
    /// [`SimConfig::threads`] — give each band its own event queue for
    /// a band worker to drain, merged under a conservative lookahead
    /// window. On one thread every shard count runs the same loop over
    /// the same single queue. Behaviourally transparent — traces,
    /// metrics, RNG draws and firmware callbacks are byte-identical for
    /// every shard count; with band queues only the stale-timer drop
    /// *timing* differs (tests/shard_diff.rs) — so `shards = 1` remains
    /// the differential reference.
    pub shards: usize,
    /// Number of worker threads for the parallel regions: the evaluate
    /// regions (mobility stepping and link-row prefetch; see
    /// [`crate::par`]) and — when [`SimConfig::shards`] > 1 — the
    /// parallel *commit* of per-band lookahead batches (see
    /// [`crate::sim::commit`]), for which the band queues and their
    /// k-way merge are built. `1` (the default) runs everything on the
    /// coordinator thread, from one queue, and never touches thread
    /// machinery.
    /// Behaviourally transparent for every value — a parallel batch
    /// replays exactly the global `(time, seq)` order through a
    /// deterministic merge, and evaluate results merge in item order —
    /// so traces, metrics and RNG draws are byte-identical across
    /// thread counts (tests/shard_diff.rs). Values above `1` require
    /// [`SimConfig::rng_streams`]: band workers must mint per-node
    /// streams without touching a shared root generator, and making
    /// the requirement explicit keeps a misconfiguration a startup
    /// error instead of silent nondeterminism.
    pub threads: usize,
    /// Minimum number of queued events (summed over the candidate
    /// bands) before the sharded engine commits a lookahead batch on
    /// worker threads instead of draining it on the coordinator.
    /// Parallel batches buffer per-band outputs and therefore allocate;
    /// below this threshold the sequential drain is both faster and
    /// allocation-free, preserving the steady-state 0-allocs/event
    /// coordinator invariant for small simulations
    /// (tests/alloc_regression.rs).
    pub commit_batch_min_events: usize,
    /// Derive per-node RNG streams with the counter-keyed
    /// [`SimRng::stream`] derivation (pure in `(master seed, node id)`,
    /// mintable on any worker without a shared root generator) instead
    /// of the classic [`SimRng::fork`] from the root generator's state.
    /// Both derivations are engine-invariant — per-*node* streams are
    /// untouched by shard or thread counts — but they produce different
    /// draws. The fork derivation stays the default because every golden
    /// fingerprint is pinned on it; tests/shard_diff.rs runs the whole
    /// battery under both and pins one reference run of each.
    pub rng_streams: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rf: RfConfig::default(),
            cad_symbols: 2,
            trace_capacity: 0,
            mobility_tick: Duration::from_secs(1),
            shards: 1,
            threads: 1,
            rng_streams: false,
            commit_batch_min_events: 256,
        }
    }
}

/// The dispatch half of a node: firmware, radio state machine and timer
/// bookkeeping. Owned by the coordinator between batches; during a
/// parallel commit batch ([`commit`]) the slots of a band worker's zone
/// move to that worker thread, which is why the run methods require
/// `F: Send`.
struct NodeSlot<F> {
    firmware: F,
    radio: Radio,
    /// The firmware wake time for which a timer event is pending.
    scheduled_wake: Option<SimTime>,
}

/// What `start_tx` knows about the frame it is fanning out, handed to
/// every `lock_receiver` call instead of looked up again per receiver.
struct Lock<'a> {
    frame: FrameId,
    sender: NodeId,
    payload: &'a std::sync::Arc<[u8]>,
    end: SimTime,
}

/// The per-node state every parallel region reads *shared* during a
/// batch (positions for link math, liveness for dispatch gates), split
/// out of [`NodeSlot`] so it can cross worker threads by `&` reference:
/// kills, revives and mobility ticks are coordinator-only events, so
/// nothing here changes inside a batch window. The fan-out reads one of
/// these per receiver, so a mover's state sits behind a pointer and a
/// static node carries none: 32 bytes instead of 120.
struct NodeState {
    position: Position,
    mobility: Option<Box<MobilityState>>,
    alive: bool,
}

/// Runtime state of the sharded engine, built at [`Simulator::start`]
/// when [`SimConfig::shards`] > 1.
///
/// What is spatial about it exists for every thread count: the fixed
/// band partition, which scopes link-row invalidation on mobility ticks
/// to the bands a mover can reach. Band *queues* exist only for band
/// workers to drain, so they are built when [`SimConfig::threads`] > 1
/// and `queues` is empty otherwise — the run then goes through the one
/// coordinator queue and the loop `shards = 1` runs.
///
/// With band queues, each holds the *internal* events (timers,
/// `TxEnd`/`RxEnd`/CAD) of the nodes homed in its band; externally
/// injected events (app traffic, faults, mobility ticks) stay on the
/// coordinator queue ([`Simulator::queue`]), which also allocates every
/// sequence number so `(time, seq)` remains one global total order. The
/// run loop merges all queues in exactly that order — which is why the
/// merge is byte-identical to the single queue — and uses the lookahead
/// window to drain one band's queue in batches (see [`crate::shard`]
/// for the partitioning and lookahead arguments).
struct ShardState {
    /// The fixed spatial partition (band edges never move).
    parts: Partitioner,
    /// Each node's home queue: its band at the moment it was added.
    /// Fixed for the node's lifetime even if it migrates across band
    /// edges — routing is a pure load-balancing choice (the merge is
    /// global), and a fixed home keeps each queue's timer-generation
    /// table authoritative for its nodes.
    home: Vec<usize>,
    /// One event queue per band when band workers exist
    /// ([`SimConfig::threads`] > 1), none otherwise.
    queues: Vec<EventQueue>,
    /// δ: the conservative lookahead window (one preamble airtime).
    lookahead: Duration,
    /// Scratch: bands touched by the current mobility tick.
    touched: Vec<bool>,
    /// Pooled scratch for the parallel commit planner and its band
    /// workers ([`commit`]), reused batch to batch.
    commit: commit::CommitScratch,
}

/// A deterministic discrete-event simulation of a LoRa network.
///
/// Generic over the hosted [`Firmware`] type; a run mixes protocols by
/// using an enum or trait-object firmware.
pub struct Simulator<F: Firmware> {
    config: SimConfig,
    medium: Medium,
    nodes: Vec<NodeSlot<F>>,
    /// Worker-visible per-node state, parallel to `nodes`.
    state: Vec<NodeState>,
    /// Per-node RNG streams, parallel to `nodes`. Split out of
    /// [`NodeState`] so a batch can hand each band worker `&mut` access
    /// to exactly its owned nodes' generators while every worker shares
    /// the rest of the state by `&` reference.
    rngs: Vec<SimRng>,
    queue: EventQueue,
    now: SimTime,
    metrics: Metrics,
    trace: Trace,
    root_rng: SimRng,
    started: bool,
    mobility_scheduled: bool,
    /// Injected per-link loss probabilities, keyed by unordered pair.
    /// A `BTreeMap` (meshlint rule D1): deterministic iteration order,
    /// so no observable behaviour can ever depend on hasher state.
    link_loss: std::collections::BTreeMap<(usize, usize), f64>,
    /// Each node's audible set at the current positions, filled lazily.
    link_cache: LinkCache,
    /// Reused fan-out buffer: `(node index, link)` pairs a transmission
    /// must visit, ascending (avoids a per-transmission alloc).
    fanout_scratch: Vec<(usize, Link)>,
    /// Reused firmware-command buffer for [`Simulator::fire`] (avoids a
    /// per-callback alloc).
    command_scratch: Vec<RadioCommand>,
    /// Reused in-flight-transmission snapshot: `start_tx`'s gather for
    /// the receivers it locks, and `channel_busy` (never nested).
    roster_scratch: Vec<(FrameId, NodeId, Position)>,
    /// Events processed so far (throughput accounting for benches).
    events_processed: u64,
    /// Parallel batch commits performed ([`commit`]): lets tests and
    /// benches assert the threaded path genuinely ran, not just that
    /// its gates declined everywhere.
    commit_batches: u64,
    /// Sharded-engine state ([`SimConfig::shards`] > 1), built at start.
    shard: Option<ShardState>,
    /// The master seed (stream derivation for [`SimConfig::rng_streams`]).
    seed: u64,
    /// Audibility bound the grid and partitioner are built with.
    audible_range: f64,
    /// Length of a CAD scan: [`SimConfig::cad_symbols`] symbol times of
    /// the shared modulation, fixed for the run.
    cad_duration: Duration,
    /// Spatial candidate index for row fills and band weights
    /// ([`crate::grid`]).
    grid: Grid,
    /// Whether `grid` must be rebuilt before its next use (positions
    /// changed: mobility tick, `set_position`, node addition).
    grid_dirty: bool,
    /// Reused row-index buffer for parallel prefetch planning.
    prefetch_scratch: Vec<usize>,
    /// Reused old-x snapshot for mobility ticks.
    xs_scratch: Vec<f64>,
}

impl<F: Firmware> Simulator<F> {
    /// Creates an empty simulation with the given configuration and seed.
    ///
    /// # Panics
    ///
    /// Panics if [`SimConfig::mobility_tick`] is zero.
    #[must_use]
    pub fn new(config: SimConfig, seed: u64) -> Self {
        assert!(
            !config.mobility_tick.is_zero(),
            "SimConfig::mobility_tick must be positive: a zero tick re-arms the \
             mobility event at the same instant forever and the run never advances"
        );
        let trace = Trace::new(config.trace_capacity);
        let audible_range = shard::max_audible_range(&config.rf);
        let symbol_time = config.rf.modulation.symbol_time();
        let cad_duration = symbol_time.mul_f64(f64::from(config.cad_symbols));
        Simulator {
            medium: Medium::new(config.rf.clone()),
            trace,
            config,
            nodes: Vec::new(),
            state: Vec::new(),
            rngs: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            metrics: Metrics::new(),
            root_rng: SimRng::new(seed),
            started: false,
            mobility_scheduled: false,
            link_loss: std::collections::BTreeMap::new(),
            link_cache: LinkCache::new(),
            fanout_scratch: Vec::new(),
            command_scratch: Vec::new(),
            roster_scratch: Vec::new(),
            events_processed: 0,
            commit_batches: 0,
            shard: None,
            seed,
            audible_range,
            cad_duration,
            grid: Grid::new(),
            grid_dirty: true,
            prefetch_scratch: Vec::new(),
            xs_scratch: Vec::new(),
        }
    }

    /// Adds a stationary node running `firmware` at `position`.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate of `position` is not finite.
    pub fn add_node(&mut self, firmware: F, position: Position) -> NodeId {
        self.add_mobile_node(firmware, position, Mobility::Static)
    }

    /// Adds a node with the given mobility model.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate of `position` is not finite, or if a
    /// [`Mobility::RandomWaypoint`] has a non-finite parameter or a
    /// negative speed.
    pub fn add_mobile_node(
        &mut self,
        firmware: F,
        position: Position,
        mobility: Mobility,
    ) -> NodeId {
        assert_finite(position);
        assert!(
            mobility.is_valid(),
            "RandomWaypoint needs finite parameters and non-negative speeds, got {mobility:?}"
        );
        let id = NodeId(self.nodes.len());
        let mobility = match mobility {
            Mobility::Static => None,
            model => Some(Box::new(MobilityState::new(model))),
        };
        let mobile = mobility.is_some();
        // Both derivations are pure in (seed, node id), so adding a node
        // never perturbs another's stream; see `SimConfig::rng_streams`
        // for why two exist.
        let rng = if self.config.rng_streams {
            SimRng::stream(self.seed, id.0 as u64 + 1)
        } else {
            self.root_rng.fork(id.0 as u64 + 1)
        };
        self.nodes.push(NodeSlot {
            firmware,
            radio: Radio::new(),
            scheduled_wake: None,
        });
        self.state.push(NodeState {
            position,
            mobility,
            alive: true,
        });
        self.rngs.push(rng);
        self.link_cache.resize(self.nodes.len());
        self.grid_dirty = true;
        if let Some(sh) = &mut self.shard {
            // Late joiner: home it in the band it appears in.
            sh.home.push(sh.parts.band_of(position.x));
        }
        if self.started {
            self.fire(id.0, |fw, ctx| fw.on_start(ctx));
        }
        // Only the node being added can make the world mobile: the first
        // mover arms the tick, and nothing scans the others.
        if mobile && !self.mobility_scheduled {
            self.mobility_scheduled = true;
            self.queue
                .schedule(self.now + self.config.mobility_tick, SimEvent::MobilityTick);
        }
        id
    }

    /// Number of nodes in the simulation.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's firmware (for assertions/reports).
    #[must_use]
    pub fn node(&self, id: NodeId) -> &F {
        &self.nodes[id.0].firmware
    }

    /// Runs a closure against a node's firmware inside a proper callback
    /// context, processing any commands it issues — the way applications
    /// "call into" their protocol stack (e.g. to submit a datagram).
    pub fn with_node<R>(&mut self, id: NodeId, f: impl FnOnce(&mut F, &mut Context) -> R) -> R {
        self.fire(id.0, f)
    }

    /// A node's current position.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Position {
        self.state[id.0].position
    }

    /// Moves a node instantly (tests and custom scenarios).
    ///
    /// # Panics
    ///
    /// Panics if a coordinate of `position` is not finite.
    pub fn set_position(&mut self, id: NodeId, position: Position) {
        assert_finite(position);
        self.state[id.0].position = position;
        self.link_cache.invalidate_all();
        self.grid_dirty = true;
    }

    /// A node's radio (state durations feed the energy model).
    #[must_use]
    pub fn radio(&self, id: NodeId) -> &Radio {
        &self.nodes[id.0].radio
    }

    /// Whether a node is currently alive.
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.state[id.0].alive
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> Duration {
        self.now.as_duration()
    }

    /// PHY metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of events the simulator has processed (bench throughput).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of parallel batch commits performed so far. Zero on
    /// single-threaded runs and on threaded runs whose windows never
    /// cleared the planner's gates ([`SimConfig::commit_batch_min_events`],
    /// two zone-disjoint candidate bands).
    #[must_use]
    pub fn commit_batches(&self) -> u64 {
        self.commit_batches
    }

    /// Number of link-cache row (re)builds so far — regression
    /// accounting for the sharded engine's scoped invalidation.
    #[must_use]
    pub fn link_rebuilds(&self) -> u64 {
        self.link_cache.rebuilds()
    }

    /// Node `id`'s audible set, if its link row is currently valid
    /// (introspection for `tests/row_model.rs`).
    #[must_use]
    pub fn cached_row(&self, id: NodeId) -> Option<&LinkRow> {
        self.link_cache.cached(id.0)
    }

    /// The debug trace (empty unless [`SimConfig::trace_capacity`] > 0).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The shared modulation.
    #[must_use]
    pub fn modulation(&self) -> &LoRaModulation {
        &self.medium.config().modulation
    }

    /// Transmit power configured for all nodes.
    #[must_use]
    pub fn tx_power(&self) -> Dbm {
        self.medium.config().tx_power
    }

    /// Injects a loss probability on the (bidirectional) link between
    /// `a` and `b`: each otherwise-successful reception over that link is
    /// additionally dropped with probability `p`. Set `p = 0.0` to clear.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn set_link_loss(&mut self, a: NodeId, b: NodeId, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in 0..=1, got {p}"
        );
        let key = (a.0.min(b.0), a.0.max(b.0));
        if p == 0.0 {
            self.link_loss.remove(&key);
        } else {
            self.link_loss.insert(key, p);
        }
    }

    /// Schedules an application (workload) event for `node` at `at`, or
    /// now if the clock has already passed `at`.
    pub fn schedule_app(&mut self, at: Duration, node: NodeId, tag: u64) {
        self.schedule_external(at, SimEvent::App(node, tag));
    }

    /// Schedules `node` to fail at `at`, or now if `at` has passed.
    pub fn schedule_kill(&mut self, at: Duration, node: NodeId) {
        self.schedule_external(at, SimEvent::Kill(node));
    }

    /// Schedules `node` to restart at `at`, or now if `at` has passed.
    pub fn schedule_revive(&mut self, at: Duration, node: NodeId) {
        self.schedule_external(at, SimEvent::Revive(node));
    }

    /// Enqueues an externally injected event on the coordinator queue,
    /// clamped to `now` like a wake-up: the queue pops a past event with
    /// its own time, and `dispatch` would run the clock backwards.
    fn schedule_external(&mut self, at: Duration, event: SimEvent) {
        self.queue.schedule(SimTime::from(at).max(self.now), event);
    }

    /// Calls `on_start` on every node. Idempotent; run methods call this
    /// automatically.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        assert!(
            self.config.threads <= 1 || self.config.rng_streams,
            "SimConfig::threads > 1 requires SimConfig::rng_streams: band workers \
             must mint per-node RNG streams without a shared root generator, and \
             the fork-chain derivation cannot provide that (see DESIGN.md, \
             \"Parallel commit\")"
        );
        self.started = true;
        if self.config.shards > 1 && self.shard.is_none() {
            let xs: Vec<f64> = self.state.iter().map(|s| s.position.x).collect();
            let r_max = self.audible_range;
            // Band edges balance expected *work*, not node count: a
            // node's weight is its audible-degree bound from the grid
            // (fan-out, interferer sums and row fills all scale with
            // it). Edge placement is pure load balancing — the merge
            // stays in global (time, seq) order either way.
            self.ensure_grid();
            let weights: Vec<usize> = self
                .state
                .iter()
                .map(|s| self.grid.degree(s.position))
                .collect();
            let parts = Partitioner::weighted(&xs, &weights, self.config.shards, r_max);
            let bands = parts.bands();
            // Band queues exist for band workers to drain; one thread
            // has none and keeps the single coordinator queue.
            let queues = if self.config.threads > 1 { bands } else { 0 };
            self.shard = Some(ShardState {
                home: self
                    .state
                    .iter()
                    .map(|s| parts.band_of(s.position.x))
                    .collect(),
                queues: (0..queues).map(|_| EventQueue::new()).collect(),
                lookahead: shard::min_lookahead(self.medium.config()),
                touched: vec![false; bands],
                commit: commit::CommitScratch::default(),
                parts,
            });
        }
        // Warm the link cache in parallel before the on_start storm:
        // every alive node's row is a pure function of positions, so
        // workers can build them all while the coordinator waits.
        if self.config.threads > 1 {
            let mut rows = std::mem::take(&mut self.prefetch_scratch);
            rows.clear();
            rows.extend((0..self.state.len()).filter(|&i| self.state[i].alive));
            self.prefetch_rows(&rows);
            self.prefetch_scratch = rows;
        }
        for i in 0..self.nodes.len() {
            self.fire(i, |fw, ctx| fw.on_start(ctx));
        }
    }

    /// Advances the clock to `at` and handles one event.
    fn dispatch(&mut self, at: SimTime, event: SimEvent) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        match event {
            SimEvent::Timer(node, _) => self.handle_timer(node),
            SimEvent::TxEnd(node, frame) => self.handle_tx_end(node, frame),
            SimEvent::RxEnd(node, frame) => self.handle_rx_end(node, frame),
            SimEvent::CadEnd(node) => self.handle_cad_end(node),
            SimEvent::CadBusyReport(node) => {
                if self.state[node.0].alive {
                    self.metrics.record_cad(node, true);
                    self.fire(node.0, |fw, ctx| fw.on_cad_done(true, ctx));
                }
            }
            SimEvent::App(node, tag) => {
                if self.state[node.0].alive {
                    self.fire(node.0, |fw, ctx| fw.on_app(tag, ctx));
                }
            }
            SimEvent::Kill(node) => self.kill(node),
            SimEvent::Revive(node) => self.revive(node),
            SimEvent::MobilityTick => self.mobility_tick(),
        }
    }

    /// Pops the globally next event across the coordinator queue and
    /// every shard queue — the single-step form of the sharded merge.
    fn pop_next_merged(&mut self) -> Option<(SimTime, SimEvent)> {
        let mut best = self.queue.peek_key();
        let mut from = usize::MAX;
        let sh = self.shard.as_mut().expect("sharded engine");
        for (qi, q) in sh.queues.iter_mut().enumerate() {
            let Some(k) = q.peek_key() else { continue };
            if best.is_none_or(|b| k < b) {
                best = Some(k);
                from = qi;
            }
        }
        best?;
        if from == usize::MAX {
            self.queue.pop()
        } else {
            sh.queues[from].pop()
        }
    }

    /// Whether band queues exist, i.e. the run loop is the k-way merge.
    fn has_band_queues(&self) -> bool {
        self.shard.as_ref().is_some_and(|sh| !sh.queues.is_empty())
    }

    /// Stale-timer tombstone drops across every queue.
    fn stale_dropped_total(&self) -> u64 {
        let mut total = self.queue.stale_timers_dropped();
        if let Some(sh) = &self.shard {
            total += sh
                .queues
                .iter()
                .map(EventQueue::stale_timers_dropped)
                .sum::<u64>();
        }
        total
    }

    /// Finalises per-node radio accounting (call before reading state
    /// durations / energy at the end of a run).
    pub fn finish(&mut self) {
        for slot in &mut self.nodes {
            slot.radio.finish(self.now);
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Runs a firmware callback, then processes its commands and re-syncs
    /// its wake-up timer.
    fn fire<R>(&mut self, i: usize, f: impl FnOnce(&mut F, &mut Context) -> R) -> R {
        let now = self.now;
        let scratch = std::mem::take(&mut self.command_scratch);
        let slot = &mut self.nodes[i];
        let mut ctx = Context::with_buffer(now.as_duration(), scratch);
        let result = f(&mut slot.firmware, &mut ctx);
        let mut commands = ctx.take_requests();
        for cmd in commands.drain(..) {
            match cmd {
                RadioCommand::Transmit(bytes) => self.start_tx(i, bytes),
                RadioCommand::StartCad => self.start_cad(i),
            }
        }
        self.command_scratch = commands;
        self.sync_wake(i);
        result
    }

    /// The queue holding `node`'s internal events: its home band's when
    /// band queues exist ([`ShardState::queues`]), else the coordinator
    /// queue. Sequence numbers always come from the coordinator queue,
    /// so `(time, seq)` is one global order either way.
    fn home_queue(&mut self, node: usize) -> &mut EventQueue {
        match &mut self.shard {
            Some(sh) if !sh.queues.is_empty() => &mut sh.queues[sh.home[node]],
            _ => &mut self.queue,
        }
    }

    /// Schedules an internal event owned by `node`.
    fn schedule_for(&mut self, at: SimTime, node: usize, event: SimEvent) {
        let seq = self.queue.alloc_seq();
        self.home_queue(node).schedule_at_seq(at, seq, event);
    }

    /// Tombstones any queued timer for `node` and schedules a fresh one.
    fn schedule_wake(&mut self, at: SimTime, node: NodeId) {
        let seq = self.queue.alloc_seq();
        self.home_queue(node.0).schedule_timer_seq(at, node, seq);
    }

    /// Keeps exactly one pending timer event aligned with the firmware's
    /// requested wake time.
    fn sync_wake(&mut self, i: usize) {
        if !self.state[i].alive {
            return;
        }
        let slot = &mut self.nodes[i];
        let wake = slot.firmware.next_wake().map(SimTime::from);
        if let Some(t) = wake {
            if slot.scheduled_wake != Some(t) {
                slot.scheduled_wake = Some(t);
                // Tombstones any previously queued timer for this node
                // and stamps the new one with a fresh generation.
                self.schedule_wake(t.max(self.now), NodeId(i));
            }
        } else {
            if slot.scheduled_wake.is_some() {
                self.home_queue(i).cancel_timer(NodeId(i));
            }
            self.nodes[i].scheduled_wake = None;
        }
    }

    fn handle_timer(&mut self, node: NodeId) {
        if !self.state[node.0].alive {
            return;
        }
        // Every firmware mutation funnels through `fire` → `sync_wake`
        // (or `kill` → `cancel_timer`), so a timer that survived
        // tombstoning still matches the firmware's latest wake request
        // and is due by construction.
        debug_assert!(
            self.nodes[node.0]
                .firmware
                .next_wake()
                .is_some_and(|t| SimTime::from(t) <= self.now),
            "live timer fired before its firmware wake time"
        );
        self.nodes[node.0].scheduled_wake = None;
        self.fire(node.0, |fw, ctx| fw.on_timer(ctx));
    }

    /// Rebuilds the spatial grid over the current positions if any have
    /// changed since the last build.
    fn ensure_grid(&mut self) {
        if self.grid_dirty {
            self.grid_dirty = false;
            let r_max = self.audible_range;
            let Self { grid, state, .. } = self;
            grid.rebuild_from(state.iter().map(|s| s.position), r_max);
        }
    }

    /// Node `i`'s link row, filled first if something invalidated it.
    fn ensure_row(&mut self, i: usize) -> &LinkRow {
        if !self.link_cache.has_row(i) {
            self.ensure_grid();
        }
        let (state, medium, r_max) = (&self.state, &self.medium, self.audible_range);
        let grid = Some(&self.grid);
        let at = |k: usize| state[k].position;
        self.link_cache
            .ensure(i, |row| row.fill(i, state.len(), at, medium, grid, r_max))
    }

    /// Received power (mW) at node `rx` of an active transmission by
    /// `sender` that started at `origin`, if it is audible there. Uses
    /// the cache only when the sender has not moved since transmission
    /// start — after a mobility tick the cached (current-position) power
    /// would be wrong for a frame already on the air.
    fn active_tx_mw(&mut self, sender: usize, origin: Position, rx: usize) -> Option<f64> {
        if self.state[sender].position == origin {
            self.ensure_row(sender).heard(rx).map(|n| n.power_mw)
        } else {
            audible_mw(&self.medium, origin, self.state[rx].position, sender, rx)
        }
    }

    /// Visits, ascending by frame id, the medium's in-flight
    /// transmissions minus whatever the range gate
    /// ([`shard::beyond_range`]) proves farther than `range` from `at`.
    /// The registry ascends by frame id and the gate only skips, so an
    /// audibility filter over the visited frames yields the same set in
    /// the same order — bit-identical float sums — as a scan of the
    /// whole registry. The debug cross-check passes infinity to see
    /// everything.
    fn in_flight_near(
        &self,
        at: Position,
        range: f64,
        mut visit: impl FnMut(FrameId, NodeId, Position),
    ) {
        for tx in self.medium.active() {
            if !shard::beyond_range(range, tx.origin, at) {
                visit(tx.frame, tx.sender, tx.origin);
            }
        }
    }

    /// The CAD predicate: any other node's in-flight transmission
    /// audible at node `i`?
    fn channel_busy(&mut self, i: usize) -> bool {
        let mut roster = std::mem::take(&mut self.roster_scratch);
        roster.clear();
        let (at, range) = (self.state[i].position, self.audible_range);
        self.in_flight_near(at, range, |f, s, origin| {
            if s.0 != i {
                roster.push((f, s, origin));
            }
        });
        let busy = roster
            .iter()
            .any(|&(_, s, origin)| self.active_tx_mw(s.0, origin, i).is_some());
        self.roster_scratch = roster;
        busy
    }

    /// Builds the given link-cache rows on worker threads and installs
    /// them in row order ([`crate::par`]). Purely a warm-up: a row is a
    /// pure function of the positions ([`LinkRow::fill`]), so thread
    /// count and scheduling stay invisible to the simulation.
    fn prefetch_rows(&mut self, rows: &[usize]) {
        // Adaptive inline gate: prefetching is purely a warm-up, so the
        // only question is whether the fork-join is *profitable*. Cap
        // the worker count by the hardware (on a single-core host a
        // spawned worker just timeslices against the coordinator) and
        // require a measured minimum of rows per worker; otherwise let
        // the coordinator fill rows lazily inline. Never affects
        // outcomes — only where the identical row values are computed.
        let threads = self
            .config
            .threads
            .min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
        if threads <= 1 || rows.len() < PREFETCH_MIN_PER_WORKER * threads {
            return;
        }
        self.ensure_grid();
        let (state, medium, r_max) = (&self.state, &self.medium, self.audible_range);
        let grid = Some(&self.grid);
        let computed: Vec<(usize, LinkRow)> = par::map_chunks(threads, rows, |_, &i| {
            let mut row = LinkRow::default();
            row.fill(i, state.len(), |k| state[k].position, medium, grid, r_max);
            (i, row)
        });
        for (i, row) in computed {
            self.link_cache.install(i, row);
        }
    }

    fn start_tx(&mut self, i: usize, bytes: std::sync::Arc<[u8]>) {
        if bytes.len() > LoRaModulation::MAX_PHY_PAYLOAD {
            self.metrics.tx_oversized += 1;
            return;
        }
        if !self.state[i].alive {
            self.metrics.tx_while_dead += 1;
            return;
        }
        match self.nodes[i].radio.state() {
            RadioState::Idle => {}
            RadioState::Rx { .. } => {
                // Real transceivers abort an ongoing reception when
                // commanded to transmit (ALOHA-style protocols rely on
                // this). The pending RxEnd event goes stale.
                self.metrics.rx_aborted_by_tx += 1;
                self.nodes[i].radio.to_idle(self.now);
            }
            RadioState::Tx { .. } | RadioState::Cad { .. } | RadioState::Off => {
                self.metrics.tx_while_busy += 1;
                return;
            }
        }
        let sender = NodeId(i);
        let origin = self.state[i].position;
        let tx = self
            .medium
            .begin_tx(sender, origin, self.now, bytes.clone());
        let frame = tx.frame;
        let end = self.now + tx.airtime;
        let lock = Lock {
            frame,
            sender,
            payload: &bytes,
            end,
        };
        self.nodes[i].radio.begin_tx(self.now, frame, end);
        self.metrics.record_tx(sender, tx.airtime);
        self.trace.push(
            self.now,
            TraceEvent::TxStart {
                node: sender,
                frame,
                len: tx.len,
            },
        );

        // Decide how every other node experiences this frame. The
        // fan-out is `i`'s audible-neighbour row: a node outside it
        // would be a no-op (inaudible ⇒ no lock, no CAD note, and —
        // since interference sums are audibility-gated — no
        // interference entry either).
        let mut fanout = std::mem::take(&mut self.fanout_scratch);
        fanout.clear();
        let row = self.ensure_row(i);
        fanout.extend(row.audible.iter().map(|n| (n.node as usize, n.link())));
        // One gather of the registry per transmission, which every
        // receiver locked below filters ([`GATHER_REACH`]).
        let mut near = std::mem::take(&mut self.roster_scratch);
        near.clear();
        self.in_flight_near(origin, GATHER_REACH * self.audible_range, |f, s, at| {
            if f != frame {
                near.push((f, s, at));
            }
        });
        // Receivers that lock on are compacted into `fanout[..locked]`.
        let mut locked = 0;
        for n in 0..fanout.len() {
            let (j, link) = fanout[n];
            if j == i || !self.state[j].alive {
                continue;
            }
            let receiver = NodeId(j);

            let lock_on = match *self.nodes[j].radio.state() {
                RadioState::Idle => link.audible,
                RadioState::Rx { frame: current, .. } => {
                    // The new frame interferes with the ongoing reception
                    // — when audible. Sub-sensitivity power is orders of
                    // magnitude below both the noise floor already inside
                    // `judge` and any signal worth locking onto, so
                    // gating it out of the sum cannot move a judgement
                    // that matters; it is what makes the range-gated
                    // gather and scoped cache invalidation exact
                    // (DESIGN.md, "Sharded engine").
                    let steal = link.audible && {
                        let medium = &self.medium;
                        let rec = self.nodes[j]
                            .radio
                            .reception
                            .as_mut()
                            .expect("Rx state implies a reception");
                        rec.prune_interferers(|f| medium.get(f).is_some());
                        debug_assert!(
                            rec.interferers
                                .iter()
                                .all(|&(f, _)| medium.active().any(|tx| tx.frame == f)),
                            "an ended frame survived the prune at node {j}"
                        );
                        rec.add_interferer(frame, link.power_mw);
                        link.power_mw >= rec.signal_mw * self.medium.capture_ratio_linear()
                            && self
                                .medium
                                .get(current)
                                .is_some_and(|tx| self.medium.in_preamble(tx, self.now))
                    };
                    if steal {
                        // The stronger late frame wins the receiver.
                        self.metrics
                            .record_loss(receiver, crate::medium::LossReason::Truncated);
                        self.trace.push(
                            self.now,
                            TraceEvent::Lost {
                                node: receiver,
                                frame: current,
                                reason: crate::medium::LossReason::Truncated,
                            },
                        );
                    }
                    steal
                }
                RadioState::Cad { .. } => {
                    if link.audible {
                        self.nodes[j].radio.note_cad_activity();
                    }
                    false
                }
                RadioState::Tx { .. } | RadioState::Off => false,
            };
            if lock_on {
                self.lock_receiver(j, &lock, link, &near);
                fanout[locked] = (j, link);
                locked += 1;
            }
        }
        // Nothing above draws a seq, so the frame's ends take the next ones
        // in fan-out order: as one burst, or singly into band queues.
        let rx_ends = fanout[..locked]
            .iter()
            .map(|&(j, _)| SimEvent::RxEnd(NodeId(j), frame));
        let ends = std::iter::once(SimEvent::TxEnd(sender, frame)).chain(rx_ends);
        if self.has_band_queues() {
            for event in ends {
                if let SimEvent::TxEnd(node, _) | SimEvent::RxEnd(node, _) = event {
                    self.schedule_for(end, node.0, event);
                }
            }
        } else {
            self.queue.schedule_burst(end, ends);
        }
        self.fanout_scratch = fanout;
        self.roster_scratch = near;
    }

    /// Locks receiver `j` onto the frame `start_tx` is fanning out,
    /// seeding its interference set with every other transmission
    /// already on the air and audible at `j`. `link` is the budget
    /// `start_tx` already holds for this pair and `near` its gather of
    /// the registry, which the per-receiver range gate narrows before
    /// any link-cache lookup.
    fn lock_receiver(
        &mut self,
        j: usize,
        lock: &Lock,
        link: Link,
        near: &[(FrameId, NodeId, Position)],
    ) {
        let receiver = NodeId(j);
        let mut reception = Reception::new(
            lock.frame,
            lock.sender,
            self.medium.quality(link.power),
            link.power_mw,
            lock.payload.clone(), // Arc bump, not a byte copy
        );
        let (at, range) = (self.state[j].position, self.audible_range);
        for &(f, s, origin) in near {
            if s != receiver && !shard::beyond_range(range, origin, at) {
                if let Some(p) = self.active_tx_mw(s.0, origin, j) {
                    reception.add_interferer(f, p);
                }
            }
        }
        debug_assert!(
            self.seeded_like_ungated_scan(j, &reception),
            "range gate or link cache changed node {j}'s interferer set"
        );
        self.nodes[j].radio.begin_rx(self.now, reception, lock.end);
    }

    /// Debug cross-check making the whole suite the gate's oracle: the
    /// frames `lock_receiver` seeded are exactly those an ungated scan
    /// selects judging audibility straight from the link budget (no
    /// gate, no cache), in the same order.
    fn seeded_like_ungated_scan(&self, j: usize, reception: &Reception) -> bool {
        let (receiver, at) = (NodeId(j), self.state[j].position);
        let mut seeded = reception.interferers.iter().map(|&(f, _)| f);
        let mut same = true;
        self.in_flight_near(at, f64::INFINITY, |f, s, origin| {
            if f != reception.frame
                && s != receiver
                && self
                    .medium
                    .audible(self.medium.received_power(&origin, &at, s, receiver))
            {
                same &= seeded.next() == Some(f);
            }
        });
        same && seeded.next().is_none()
    }

    fn handle_tx_end(&mut self, node: NodeId, frame: FrameId) {
        let Some(tx) = self.medium.end_tx(frame) else {
            // Aborted earlier (sender killed mid-frame).
            return;
        };
        debug_assert_eq!(tx.sender, node);
        // Nothing to tell the receivers: a reception drops interferers
        // that left the air the next time it sums them (see
        // `Reception::prune_interferers`).
        self.trace.push(self.now, TraceEvent::TxEnd { node, frame });
        let slot = &self.nodes[node.0];
        if self.state[node.0].alive
            && matches!(slot.radio.state(), RadioState::Tx { frame: f, .. } if *f == frame)
        {
            self.nodes[node.0].radio.to_idle(self.now);
            self.fire(node.0, |fw, ctx| fw.on_tx_done(ctx));
        }
    }

    fn handle_rx_end(&mut self, node: NodeId, frame: FrameId) {
        let slot = &mut self.nodes[node.0];
        if !self.state[node.0].alive
            || !matches!(slot.radio.state(), RadioState::Rx { frame: f, .. } if *f == frame)
        {
            return; // stale: the lock moved on
        }
        let reception = slot
            .radio
            .reception
            .take()
            .expect("Rx state implies a reception");
        slot.radio.to_idle(self.now);
        let Self {
            rngs,
            medium,
            link_loss,
            ..
        } = &mut *self;
        let rng = &mut rngs[node.0];
        let mut outcome = medium.judge(&reception, rng);
        if matches!(outcome, RxOutcome::Delivered(_)) {
            let key = (
                reception.sender.0.min(node.0),
                reception.sender.0.max(node.0),
            );
            if let Some(&p) = link_loss.get(&key) {
                if rng.gen_bool(p) {
                    outcome = RxOutcome::Lost(crate::medium::LossReason::Injected);
                }
            }
        }
        match outcome {
            RxOutcome::Delivered(quality) => {
                self.metrics.record_delivery(node);
                self.trace
                    .push(self.now, TraceEvent::Delivered { node, frame });
                let payload = reception.payload;
                self.fire(node.0, |fw, ctx| fw.on_frame(&payload, quality, ctx));
            }
            RxOutcome::Lost(reason) => {
                self.metrics.record_loss(node, reason);
                self.trace.push(
                    self.now,
                    TraceEvent::Lost {
                        node,
                        frame,
                        reason,
                    },
                );
            }
        }
    }

    fn start_cad(&mut self, i: usize) {
        if !self.state[i].alive {
            return;
        }
        if !self.nodes[i].radio.is_idle() {
            // The radio is receiving or transmitting: the scan cannot run,
            // but the protocol still needs an answer — real CAD during
            // channel activity reports "busy". Keep the radio state
            // untouched and deliver the result after the scan duration.
            let at = self.now + self.cad_duration;
            self.schedule_for(at, i, SimEvent::CadBusyReport(NodeId(i)));
            return;
        }
        let node = NodeId(i);
        let busy_now = self.channel_busy(i);
        let until = self.now + self.cad_duration;
        self.nodes[i].radio.begin_cad(self.now, until, busy_now);
        self.schedule_for(until, i, SimEvent::CadEnd(node));
    }

    fn handle_cad_end(&mut self, node: NodeId) {
        if !self.state[node.0].alive {
            return;
        }
        let slot = &self.nodes[node.0];
        let RadioState::Cad { until, busy_seen } = *slot.radio.state() else {
            return; // stale (killed+revived mid-scan)
        };
        if until != self.now {
            return;
        }
        let busy = busy_seen || self.channel_busy(node.0);
        self.nodes[node.0].radio.to_idle(self.now);
        self.metrics.record_cad(node, busy);
        self.fire(node.0, |fw, ctx| fw.on_cad_done(busy, ctx));
    }

    fn kill(&mut self, node: NodeId) {
        let i = node.0;
        if !self.state[i].alive {
            return;
        }
        self.state[i].alive = false;
        // A transmission in progress is truncated: receivers locked to it
        // can no longer decode it, and it stops interfering (it leaves
        // the air here, so interferer sets prune it like any ended frame).
        if let RadioState::Tx { frame, .. } = *self.nodes[i].radio.state() {
            self.medium.end_tx(frame);
            for slot in &mut self.nodes {
                if let Some(rec) = slot.radio.reception.as_mut() {
                    rec.corrupted |= rec.frame == frame;
                }
            }
        }
        self.nodes[i].radio.power_off(self.now);
        self.nodes[i].scheduled_wake = None;
        self.home_queue(i).cancel_timer(node);
        self.trace.push(self.now, TraceEvent::Killed { node });
    }

    fn revive(&mut self, node: NodeId) {
        let i = node.0;
        if self.state[i].alive {
            return;
        }
        self.state[i].alive = true;
        self.nodes[i].radio.power_on(self.now);
        self.trace.push(self.now, TraceEvent::Revived { node });
        self.fire(i, |fw, ctx| fw.on_start(ctx));
    }

    /// Advances every mobile node by `dt` — on worker threads when
    /// configured. Thread-count invisible: each node's step is a pure
    /// function of its own mobility state and its own RNG stream, and
    /// [`par::run_chunks`] partitions deterministically.
    fn step_positions(&mut self, dt: Duration) {
        let threads = if self.state.len() >= PAR_MIN_ITEMS {
            self.config.threads
        } else {
            1
        };
        par::run_chunks_zip(
            threads,
            &mut self.state,
            &mut self.rngs,
            |_, chunk, rngs| {
                for (s, rng) in chunk.iter_mut().zip(rngs) {
                    let Some(mobility) = &mut s.mobility else {
                        continue;
                    };
                    if s.alive {
                        s.position = mobility.step(s.position, dt, rng);
                    }
                }
            },
        );
    }

    fn mobility_tick(&mut self) {
        let dt = self.config.mobility_tick;
        if let Some(mut sh) = self.shard.take() {
            // Scoped invalidation: a move can only change links touching
            // nodes within audible range of the mover's old or new
            // position. A node outside every such interval was farther
            // than r_max from each mover before *and* after the move
            // (distance ≥ |Δx|), so no mover is or was in its audible
            // set: its row is still exact.
            for t in &mut sh.touched {
                *t = false;
            }
            let mut xs = std::mem::take(&mut self.xs_scratch);
            xs.clear();
            xs.extend(self.state.iter().map(|s| s.position.x));
            self.step_positions(dt);
            for (i, &old_x) in xs.iter().enumerate() {
                let s = &self.state[i];
                if s.alive && s.mobility.is_some() {
                    let (lo, hi) = sh
                        .parts
                        .reach_interval(old_x.min(s.position.x), old_x.max(s.position.x));
                    for band in lo..=hi {
                        sh.touched[band] = true;
                    }
                }
            }
            for i in 0..self.state.len() {
                if sh.touched[sh.parts.band_of(self.state[i].position.x)] {
                    self.link_cache.invalidate_row(i);
                }
            }
            self.xs_scratch = xs;
            self.shard = Some(sh);
        } else {
            self.step_positions(dt);
            // Positions changed: every cached link budget is now stale.
            self.link_cache.invalidate_all();
        }
        self.grid_dirty = true;
        // Wake-gated warm-up: refill, on worker threads, the rows of
        // nodes whose firmware will act before the next tick (their
        // transmissions/CADs would fill those rows on the coordinator
        // otherwise). Purely a prefetch — see `prefetch_rows`.
        if self.config.threads > 1 {
            let horizon = self.now + dt;
            let mut rows = std::mem::take(&mut self.prefetch_scratch);
            rows.clear();
            rows.extend((0..self.state.len()).filter(|&i| {
                self.state[i].alive
                    && !self.link_cache.has_row(i)
                    && self.nodes[i].scheduled_wake.is_some_and(|w| w <= horizon)
            }));
            self.prefetch_rows(&rows);
            self.prefetch_scratch = rows;
        }
        self.queue.schedule(self.now + dt, SimEvent::MobilityTick);
    }
}

/// The run methods live in an `F: Send` impl because a parallel commit
/// batch ([`commit`]) moves each band worker's `&mut NodeSlot<F>` onto a
/// scoped worker thread. Every real firmware is `Send` (they own plain
/// data), so the bound costs callers nothing; it simply makes "firmware
/// crosses threads" part of the run-loop contract.
impl<F: Firmware + Send> Simulator<F> {
    /// Runs until simulated time `until` (an offset from the start),
    /// processing every event scheduled before it.
    pub fn run_until(&mut self, until: Duration) {
        self.start();
        let until = SimTime::from(until);
        if self.has_band_queues() {
            self.run_merged(until);
        } else {
            while let Some((at, event)) = self.queue.pop_until(until) {
                self.dispatch(at, event);
            }
        }
        // Published once per run, not per event; settling may also have
        // discarded stale tombstones after the last dispatch.
        self.metrics.stale_timers_dropped = self.stale_dropped_total();
        if until > self.now {
            self.now = until;
        }
    }

    /// Runs for `d` more simulated time; `Duration::MAX` runs until the
    /// queue drains (the end saturates at the clock's horizon).
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now.as_duration().saturating_add(d));
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let popped = if self.has_band_queues() {
            self.pop_next_merged()
        } else {
            self.queue.pop()
        };
        let Some((at, event)) = popped else {
            return false;
        };
        self.dispatch(at, event);
        self.metrics.stale_timers_dropped = self.stale_dropped_total();
        true
    }

    /// The run loop when band queues exist ([`SimConfig::threads`] > 1):
    /// a k-way merge of the coordinator queue and every band queue by
    /// `(time, seq)` — exactly the order a single queue pops, which is
    /// why both are byte-identical. The winning band queue is drained in
    /// a *batch* while its head is provably still the global minimum:
    ///
    /// * internal events only create cross-queue work (an `RxEnd` at a
    ///   receiver homed elsewhere) at `now + airtime ≥ t0 + lookahead`
    ///   (see [`crate::shard`]), bounding the batch by the lookahead
    ///   horizon;
    /// * nothing in a batch inserts into the coordinator queue (faults,
    ///   app traffic and mobility ticks are injected externally), and
    ///   coordinator events are processed one at a time because they
    ///   *can* create immediate work anywhere (a revive fires
    ///   `on_start` now);
    /// * same-queue insertions (timers clamped to now, CAD endings) are
    ///   handled by re-peeking the head every iteration;
    /// * the pre-batch second-best head caps the batch from the side of
    ///   the *existing* contents of the other queues.
    ///
    /// The loop first offers the window to the parallel commit planner
    /// ([`Self::commit_batch`]), which executes several *zone-disjoint*
    /// band batches concurrently and replays their buffered outputs in
    /// the same global `(time, seq)` order. When the planner declines
    /// (conflicting zones, too little queued work, a coordinator event
    /// up next) the sequential single-band drain below is the fallback.
    fn run_merged(&mut self, until: SimTime) {
        loop {
            let mut best = self.queue.peek_key();
            let mut from = usize::MAX;
            let mut second: Option<(SimTime, u64)> = None;
            {
                let sh = self.shard.as_mut().expect("sharded engine");
                for (qi, q) in sh.queues.iter_mut().enumerate() {
                    let Some(k) = q.peek_key() else { continue };
                    if best.is_none_or(|b| k < b) {
                        second = best;
                        best = Some(k);
                        from = qi;
                    } else if second.is_none_or(|s| k < s) {
                        second = Some(k);
                    }
                }
            }
            let Some((t0, _)) = best else { return };
            if t0 > until {
                return;
            }
            if from == usize::MAX {
                let (at, event) = self.queue.pop().expect("peeked");
                self.dispatch(at, event);
                continue;
            }
            if self.config.threads > 1 && self.commit_batch(t0, until) {
                continue;
            }
            let horizon = t0 + self.shard.as_ref().expect("sharded engine").lookahead;
            loop {
                let sh = self.shard.as_mut().expect("sharded engine");
                let Some(k) = sh.queues[from].peek_key() else {
                    break;
                };
                if k.0 > until || k.0 >= horizon || second.is_some_and(|s| k >= s) {
                    break;
                }
                let (at, event) = sh.queues[from].pop().expect("peeked");
                self.dispatch(at, event);
            }
        }
    }
}

/// Refuses what the link math cannot place: `NaN.max(d0)` is `d0`, so a
/// NaN coordinate would hear every sender at the reference distance.
fn assert_finite(p: Position) {
    assert!(
        p.x.is_finite() && p.y.is_finite(),
        "node position must be finite, got {p:?}"
    );
}

/// Received power (mW) at `at` (node `rx`) of a transmission by `sender`
/// from `origin`, if audible there — straight from the link budget.
fn audible_mw(
    medium: &Medium,
    origin: Position,
    at: Position,
    sender: usize,
    rx: usize,
) -> Option<f64> {
    let power = medium.received_power(&origin, &at, NodeId(sender), NodeId(rx));
    medium.audible(power).then(|| power.to_milliwatts().value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::link::SignalQuality;

    /// The sweep engine runs one simulator per worker thread, so the
    /// simulator (with any Send firmware) must stay Send. Compile-time
    /// check: fails to build if someone introduces Rc/RefCell state.
    #[test]
    fn simulator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimConfig>();
        assert_send::<Simulator<Probe>>();
    }

    /// The parallel evaluate regions share these by reference across
    /// worker threads; none may grow interior mutability. Compile-time
    /// check, like `simulator_is_send`.
    #[test]
    fn worker_shared_state_is_sync() {
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<Medium>();
        assert_sync::<LinkCache>();
        assert_sync::<Grid>();
        assert_sync::<NodeState>();
        assert_send::<NodeState>();
        assert_send::<Metrics>();
    }

    /// What `start_tx` reads once per receiver stays two to a cache line.
    #[test]
    fn the_per_receiver_record_fits_32_bytes() {
        assert!(std::mem::size_of::<NodeState>() <= 32);
    }

    /// Test firmware: transmits a configured frame at a scheduled time and
    /// records everything it observes.
    #[derive(Default)]
    struct Probe {
        tx_at: Option<(Duration, Vec<u8>)>,
        sent: bool,
        received: Vec<(Vec<u8>, f64)>, // payload, rssi
        tx_done: u32,
        cad_results: Vec<bool>,
        start_cad_at: Option<Duration>,
        cad_done_time: Option<Duration>,
    }

    impl Firmware for Probe {
        fn on_timer(&mut self, ctx: &mut Context) {
            let now = ctx.now();
            if let Some((at, bytes)) = &self.tx_at {
                if !self.sent && now >= *at {
                    self.sent = true;
                    ctx.transmit(bytes.clone());
                    return;
                }
            }
            if let Some(at) = self.start_cad_at.take() {
                if now >= at {
                    ctx.start_cad();
                }
            }
        }
        fn on_frame(&mut self, bytes: &[u8], q: SignalQuality, _ctx: &mut Context) {
            self.received.push((bytes.to_vec(), q.rssi.value()));
        }
        fn on_tx_done(&mut self, _ctx: &mut Context) {
            self.tx_done += 1;
        }
        fn on_cad_done(&mut self, busy: bool, ctx: &mut Context) {
            self.cad_results.push(busy);
            self.cad_done_time = Some(ctx.now());
        }
        fn next_wake(&self) -> Option<Duration> {
            if self.sent {
                self.start_cad_at
            } else {
                match (&self.tx_at, self.start_cad_at) {
                    (Some((t, _)), Some(c)) => Some((*t).min(c)),
                    (Some((t, _)), None) => Some(*t),
                    (None, c) => c,
                }
            }
        }
    }

    fn sender_at(at: Duration, payload: Vec<u8>) -> Probe {
        Probe {
            tx_at: Some((at, payload)),
            ..Probe::default()
        }
    }

    fn sim() -> Simulator<Probe> {
        Simulator::new(SimConfig::default(), 1)
    }

    #[test]
    fn frame_delivered_to_near_listener() {
        let mut s = sim();
        let a = s.add_node(
            sender_at(Duration::from_millis(10), vec![1, 2, 3]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(a).tx_done, 1);
        assert_eq!(s.node(b).received.len(), 1);
        assert_eq!(s.node(b).received[0].0, vec![1, 2, 3]);
        assert_eq!(s.metrics().frames_transmitted, 1);
        assert_eq!(s.metrics().frames_delivered, 1);
    }

    #[test]
    fn far_listener_hears_nothing() {
        let mut s = sim();
        s.add_node(
            sender_at(Duration::from_millis(10), vec![9]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100_000.0, 0.0));
        s.run_for(Duration::from_secs(1));
        assert!(s.node(b).received.is_empty());
        // Not even counted as a loss: the node never locked on.
        assert_eq!(s.metrics().total_losses(), 0);
    }

    #[test]
    fn concurrent_equal_frames_collide() {
        let mut s = sim();
        // Two senders equidistant from the listener transmit simultaneously.
        s.add_node(
            sender_at(Duration::from_millis(10), vec![1; 20]),
            Position::new(-100.0, 0.0),
        );
        s.add_node(
            sender_at(Duration::from_millis(10), vec![2; 20]),
            Position::new(100.0, 0.0),
        );
        let c = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.run_for(Duration::from_secs(1));
        assert!(s.node(c).received.is_empty());
        assert_eq!(s.metrics().lost_collision, 1);
    }

    #[test]
    fn capture_lets_much_stronger_frame_steal_the_lock() {
        let mut s = sim();
        // Weak sender A (110 m from the listener, ~-123.6 dBm) starts
        // first; strong sender B (30 m, ~-113.4 dBm) starts 5 ms later,
        // inside A's 12.5 ms preamble, 10 dB stronger. A and B are 140 m
        // apart so they cannot hear (and thus lock onto) each other.
        s.add_node(
            sender_at(Duration::from_millis(10), vec![1; 20]),
            Position::new(110.0, 0.0),
        );
        s.add_node(
            sender_at(Duration::from_millis(15), vec![2; 20]),
            Position::new(-30.0, 0.0),
        );
        let c = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.run_for(Duration::from_secs(1));
        // The strong frame steals the lock and survives A's interference.
        assert_eq!(s.node(c).received.len(), 1);
        assert_eq!(s.node(c).received[0].0, vec![2; 20]);
        assert_eq!(s.metrics().lost_truncated, 1);
    }

    #[test]
    fn half_duplex_sender_misses_other_frame() {
        let mut s = sim();
        // Both transmit at the same time; they are out of range of each
        // other anyway, so neither hears the other's frame.
        let a = s.add_node(
            sender_at(Duration::from_millis(10), vec![1; 30]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(
            sender_at(Duration::from_millis(10), vec![2; 30]),
            Position::new(5000.0, 0.0),
        );
        s.run_for(Duration::from_secs(1));
        assert!(s.node(a).received.is_empty());
        assert!(s.node(b).received.is_empty());
        assert_eq!(s.node(a).tx_done, 1);
        assert_eq!(s.node(b).tx_done, 1);
    }

    #[test]
    fn cad_detects_ongoing_transmission() {
        let mut s = sim();
        // B starts its CAD scan just before A's frame begins, so the frame
        // appears during the scan window (a listening B would otherwise
        // lock onto the frame instead of scanning).
        s.add_node(
            sender_at(Duration::from_millis(10), vec![0; 200]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(
            Probe {
                start_cad_at: Some(Duration::from_micros(9500)),
                ..Probe::default()
            },
            Position::new(100.0, 0.0),
        );
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(b).cad_results, vec![true]);
    }

    #[test]
    fn cad_reports_clear_channel() {
        let mut s = sim();
        let b = s.add_node(
            Probe {
                start_cad_at: Some(Duration::from_millis(50)),
                ..Probe::default()
            },
            Position::new(100.0, 0.0),
        );
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(b).cad_results, vec![false]);
        // CAD takes 2 symbol times (SF7: 2.048 ms).
        let done = s.node(b).cad_done_time.unwrap();
        assert_eq!(
            done,
            Duration::from_millis(50) + Duration::from_micros(2048)
        );
    }

    #[test]
    fn cad_requested_while_receiving_reports_busy() {
        let mut s = sim();
        // A long frame starts at t=10ms; b locks onto it. At t=50ms b's
        // timer asks for a CAD: the radio is mid-reception, so the scan
        // cannot run — but the firmware still gets on_cad_done(true).
        s.add_node(
            sender_at(Duration::from_millis(10), vec![0; 200]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(
            Probe {
                start_cad_at: Some(Duration::from_millis(50)),
                ..Probe::default()
            },
            Position::new(100.0, 0.0),
        );
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(b).cad_results, vec![true]);
        // The reception itself still completed.
        assert_eq!(s.node(b).received.len(), 1);
        // The busy report arrived one CAD duration after the request.
        assert_eq!(
            s.node(b).cad_done_time.unwrap(),
            Duration::from_millis(50) + Duration::from_micros(2048)
        );
    }

    #[test]
    fn transmit_preempts_ongoing_reception() {
        let mut s = sim();
        // A long frame from node 0 starts at t=10ms; node 1 locks on.
        // At t=50ms node 1 transmits (ALOHA-style): its reception is
        // aborted, its own frame goes out and is heard by node 2.
        s.add_node(
            sender_at(Duration::from_millis(10), vec![0; 200]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(
            sender_at(Duration::from_millis(50), vec![7; 10]),
            Position::new(100.0, 0.0),
        );
        let _c = s.add_node(Probe::default(), Position::new(190.0, 0.0));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.metrics().rx_aborted_by_tx, 1);
        assert!(
            s.node(b).received.is_empty(),
            "aborted reception must not deliver"
        );
        assert_eq!(
            s.node(b).tx_done,
            1,
            "the preempting transmission completes"
        );
        // Node 2 is out of range of node 0 (190 m) but in range of node 1
        // (90 m): it hears exactly the preempting frame... unless node
        // 0's continuing transmission interferes. Either way the frame
        // was sent and judged.
        assert_eq!(s.metrics().frames_transmitted, 2);
    }

    #[test]
    fn injected_link_loss_drops_fraction_of_frames() {
        let mut s = sim();
        // 50 senders' worth of traffic approximated by one sender firing
        // repeatedly via app events would need protocol logic; instead
        // run many single-frame sims... simpler: one sim where the sender
        // transmits once per second via repeated probes.
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.set_link_loss(a, b, 0.5);
        s.start();
        for k in 0..200u64 {
            s.run_until(Duration::from_secs(k));
            s.with_node(a, |_fw, ctx| ctx.transmit(vec![k as u8; 4]));
        }
        s.run_for(Duration::from_secs(2));
        let delivered = s.node(b).received.len();
        assert!((60..140).contains(&delivered), "got {delivered}/200");
        assert_eq!(s.metrics().lost_injected, 200 - delivered as u64);
        // Clearing restores full delivery.
        s.set_link_loss(a, b, 0.0);
        let before = s.node(b).received.len();
        for k in 0..20u64 {
            s.run_until(Duration::from_secs(300 + k));
            s.with_node(a, |_fw, ctx| ctx.transmit(vec![k as u8; 4]));
        }
        s.run_for(Duration::from_secs(2));
        assert_eq!(s.node(b).received.len(), before + 20);
    }

    #[test]
    fn link_loss_is_directionless_and_per_pair() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        let c = s.add_node(Probe::default(), Position::new(-100.0, 0.0));
        // Kill the a<->b link entirely; a<->c stays perfect.
        s.set_link_loss(b, a, 1.0);
        s.start();
        s.with_node(a, |_fw, ctx| ctx.transmit(vec![1; 4]));
        s.run_for(Duration::from_secs(1));
        s.with_node(b, |_fw, ctx| ctx.transmit(vec![2; 4]));
        s.run_for(Duration::from_secs(1));
        assert!(s.node(b).received.is_empty(), "a->b must be dead");
        assert!(s.node(a).received.is_empty(), "b->a must be dead");
        assert_eq!(s.node(c).received.len(), 1, "a->c unaffected");
    }

    #[test]
    fn killed_sender_truncates_frame() {
        let mut s = sim();
        let a = s.add_node(
            sender_at(Duration::from_millis(10), vec![0; 200]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        // Kill A mid-frame (a 200-byte SF7 frame lasts ~290 ms).
        s.schedule_kill(Duration::from_millis(100), a);
        s.run_for(Duration::from_secs(1));
        assert!(s.node(b).received.is_empty());
        assert_eq!(s.metrics().lost_truncated, 1);
        assert!(!s.is_alive(a));
    }

    #[test]
    fn revived_node_hears_again() {
        let mut s = sim();
        let a = s.add_node(
            sender_at(Duration::from_secs(10), vec![7; 5]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.schedule_kill(Duration::from_secs(1), b);
        s.schedule_revive(Duration::from_secs(5), b);
        s.run_for(Duration::from_secs(20));
        assert_eq!(s.node(b).received.len(), 1);
        assert_eq!(s.node(a).tx_done, 1);
    }

    /// Records the clock at every `on_start` and `on_app`.
    #[derive(Default)]
    struct Clocked(Vec<Duration>);

    impl Firmware for Clocked {
        fn on_start(&mut self, ctx: &mut Context) {
            self.0.push(ctx.now());
        }
        fn on_frame(&mut self, _: &[u8], _: SignalQuality, _: &mut Context) {}
        fn on_app(&mut self, _tag: u64, ctx: &mut Context) {
            self.0.push(ctx.now());
        }
        fn next_wake(&self) -> Option<Duration> {
            None
        }
    }

    /// An app event, kill or revive scheduled for an instant the clock
    /// has already passed happens now; the clock never runs backwards.
    #[test]
    fn external_events_in_the_past_are_clamped_to_now() {
        for shards in [1, 4] {
            let config = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let mut s: Simulator<Clocked> = Simulator::new(config, 1);
            let n = s.add_node(Clocked::default(), Position::new(0.0, 0.0));
            let (past, now) = (Duration::from_secs(5), Duration::from_secs(10));
            s.run_until(now);
            s.schedule_app(past, n, 7);
            assert!(s.step());
            assert_eq!(s.now(), now, "app, shards {shards}");
            s.schedule_kill(past, n);
            assert!(s.step());
            assert_eq!(s.now(), now, "kill, shards {shards}");
            assert!(!s.is_alive(n));
            s.schedule_revive(past, n);
            assert!(s.step());
            assert_eq!(s.now(), now, "revive, shards {shards}");
            assert_eq!(s.node(n).0, [Duration::ZERO, now, now], "shards {shards}");
        }
    }

    #[test]
    fn dead_node_hears_nothing() {
        let mut s = sim();
        s.add_node(
            sender_at(Duration::from_secs(2), vec![7; 5]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.schedule_kill(Duration::from_secs(1), b);
        s.run_for(Duration::from_secs(20));
        assert!(s.node(b).received.is_empty());
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let mut cfg = SimConfig::default();
            cfg.rf.grey_zone = true;
            cfg.trace_capacity = 4096;
            let mut s = Simulator::new(cfg, seed);
            for k in 0..6 {
                s.add_node(
                    sender_at(Duration::from_millis(10 * k as u64), vec![k; 10]),
                    Position::new(f64::from(k) * 100.0, 0.0),
                );
            }
            s.run_for(Duration::from_secs(2));
            let trace: Vec<_> = s.trace().entries().cloned().collect();
            (
                s.metrics().frames_delivered,
                s.metrics().total_losses(),
                trace,
            )
        };
        let a = run(77);
        let b = run(77);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        let c = run(78);
        // Different seed may differ (grey zone coin flips); at minimum the
        // run must still complete and produce trace activity. (Deliveries
        // can legitimately be zero: a node that starts transmitting
        // aborts its own ongoing reception.)
        assert!(!c.2.is_empty());
    }

    #[test]
    fn with_node_processes_commands() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.start();
        s.with_node(a, |_fw, ctx| ctx.transmit(vec![5; 4]));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(b).received.len(), 1);
        assert_eq!(s.node(b).received[0].0, vec![5; 4]);
    }

    #[test]
    fn oversized_frame_is_refused() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.start();
        s.with_node(a, |_fw, ctx| ctx.transmit(vec![0; 300]));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.metrics().tx_oversized, 1);
        assert_eq!(s.metrics().frames_transmitted, 0);
    }

    #[test]
    fn tx_while_busy_is_counted() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.start();
        s.with_node(a, |_fw, ctx| {
            ctx.transmit(vec![0; 10]);
            ctx.transmit(vec![1; 10]); // radio already transmitting
        });
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.metrics().tx_while_busy, 1);
        assert_eq!(s.metrics().tx_while_dead, 0);
        assert_eq!(s.metrics().frames_transmitted, 1);
    }

    #[test]
    fn tx_while_dead_is_counted_separately() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.schedule_kill(Duration::from_millis(10), a);
        s.run_for(Duration::from_secs(1));
        s.with_node(a, |_fw, ctx| ctx.transmit(vec![0; 10]));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.metrics().tx_while_dead, 1);
        assert_eq!(s.metrics().tx_while_busy, 0);
        assert_eq!(s.metrics().frames_transmitted, 0);
    }

    #[test]
    fn events_processed_counts_steps() {
        let mut s = sim();
        s.add_node(
            sender_at(Duration::from_millis(10), vec![1, 2, 3]),
            Position::new(0.0, 0.0),
        );
        s.add_node(Probe::default(), Position::new(100.0, 0.0));
        assert_eq!(s.events_processed(), 0);
        s.run_for(Duration::from_secs(1));
        // At least: sender timer, TxEnd, RxEnd.
        assert!(s.events_processed() >= 3, "{}", s.events_processed());
    }

    /// A mobile, chatty 80-node run — large enough (> `PAR_MIN_ITEMS`)
    /// that the parallel stepping and prefetch regions genuinely fire.
    fn mobile_fingerprint(mut cfg: SimConfig) -> (Metrics, Vec<(SimTime, TraceEvent)>) {
        cfg.rf.grey_zone = true;
        cfg.trace_capacity = 1 << 14;
        let mut s = Simulator::new(cfg, 4242);
        for k in 0..80u8 {
            let mobility = if k % 3 == 0 {
                Mobility::RandomWaypoint {
                    width_m: 800.0,
                    height_m: 500.0,
                    min_speed: 1.0,
                    max_speed: 8.0,
                    pause: Duration::from_secs(1),
                }
            } else {
                Mobility::Static
            };
            s.add_mobile_node(
                sender_at(Duration::from_millis(13 * u64::from(k)), vec![k; 12]),
                Position::new(f64::from(k % 10) * 85.0, f64::from(k / 10) * 60.0),
                mobility,
            );
        }
        s.run_for(Duration::from_secs(6));
        let mut m = s.metrics().clone();
        // Tombstone drop timing differs across engines by design.
        m.stale_timers_dropped = 0;
        (m, s.trace().entries().cloned().collect())
    }

    /// Spot check: thread count is behaviourally invisible (the
    /// exhaustive battery lives in tests/shard_diff.rs). Threaded runs
    /// require per-node RNG streams, so the invariance is pinned within
    /// the stream family.
    #[test]
    fn threads_do_not_change_outcomes() {
        let seq = SimConfig {
            rng_streams: true,
            ..SimConfig::default()
        };
        let base = mobile_fingerprint(seq.clone());
        for threads in [2usize, 4] {
            let cfg = SimConfig {
                threads,
                ..seq.clone()
            };
            assert_eq!(mobile_fingerprint(cfg), base, "threads = {threads}");
        }
    }

    /// Threaded batch commit without per-node RNG streams would have to
    /// share the fork-chain root generator across workers — a
    /// configuration error, refused at startup.
    #[test]
    #[should_panic(expected = "requires SimConfig::rng_streams")]
    fn threads_without_rng_streams_refuse_to_start() {
        let cfg = SimConfig {
            threads: 2,
            ..SimConfig::default()
        };
        mobile_fingerprint(cfg);
    }

    /// A zero mobility tick would re-arm `MobilityTick` at the same
    /// instant forever — with one mobile node `run_for` never returned —
    /// so the configuration is refused where it enters.
    #[test]
    #[should_panic(expected = "SimConfig::mobility_tick must be positive")]
    fn zero_mobility_tick_is_refused() {
        let cfg = SimConfig {
            mobility_tick: Duration::ZERO,
            ..SimConfig::default()
        };
        let _ = Simulator::<Probe>::new(cfg, 1);
    }

    /// Per-node stream derivation is engine-invariant — shard and thread
    /// counts cannot perturb any node's draws — while still producing
    /// different draws than the fork derivation (it is a genuinely
    /// distinct stream family, which is why the fork stays the pinned
    /// differential reference).
    #[test]
    fn rng_streams_are_engine_invariant() {
        let cfg = SimConfig {
            rng_streams: true,
            ..SimConfig::default()
        };
        let seq = mobile_fingerprint(cfg.clone());
        let sharded = SimConfig {
            shards: 2,
            threads: 2,
            ..cfg
        };
        assert_eq!(mobile_fingerprint(sharded), seq);
        let forked = mobile_fingerprint(SimConfig::default());
        assert_ne!(seq.1, forked.1, "stream derivation must change draws");
    }

    #[test]
    fn radio_durations_account_airtime() {
        let mut s = sim();
        let a = s.add_node(
            sender_at(Duration::from_millis(0), vec![0; 100]),
            Position::new(0.0, 0.0),
        );
        s.run_for(Duration::from_secs(10));
        s.finish();
        let expected = s.modulation().time_on_air(100);
        assert_eq!(s.radio(a).durations().tx, expected);
        assert_eq!(
            s.radio(a).durations().tx + s.radio(a).durations().rx,
            Duration::from_secs(10)
        );
    }

    /// "Run until the queue drains": the end of the run saturates at the
    /// clock's horizon instead of overflowing `now + d`.
    #[test]
    fn run_for_the_rest_of_time_on_an_advanced_clock_completes() {
        let mut s = sim();
        s.add_node(
            sender_at(Duration::from_secs(2), vec![1; 4]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.run_for(Duration::from_secs(1));
        s.run_for(Duration::MAX);
        assert_eq!(s.node(b).received.len(), 1);
        assert_eq!(s.now(), Duration::MAX);
    }

    /// A wake at `Duration::MAX` is *never* for every finite run; run to
    /// the end of time it fires with a clock that has reached it, and the
    /// frame it sends ends there too instead of overflowing `now + airtime`.
    #[test]
    fn a_transmission_at_the_end_of_time_completes() {
        let mut s = sim();
        let a = s.add_node(
            sender_at(Duration::MAX, vec![1; 4]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.run_until(Duration::from_secs(3600));
        assert!(!s.node(a).sent);
        s.run_until(Duration::MAX);
        assert_eq!((s.node(a).sent, s.node(a).tx_done), (true, 1));
        assert_eq!(s.node(b).received.len(), 1);
        s.finish();
        assert_eq!(s.radio(a).durations().tx, Duration::ZERO);
    }

    #[test]
    fn mobile_node_moves_during_run() {
        let mut s = sim();
        let m = s.add_mobile_node(
            Probe::default(),
            Position::new(0.0, 0.0),
            Mobility::RandomWaypoint {
                width_m: 1000.0,
                height_m: 1000.0,
                min_speed: 5.0,
                max_speed: 10.0,
                pause: Duration::ZERO,
            },
        );
        let before = s.position(m);
        s.run_for(Duration::from_secs(30));
        let after = s.position(m);
        assert!(before.distance(&after) > 1.0, "node did not move");
    }

    /// Adding a node asks only that node whether the world became mobile:
    /// static nodes arm nothing, the first mover arms the tick one
    /// `mobility_tick` from now, later movers do not arm a second one.
    #[test]
    fn only_the_first_mobile_node_arms_the_mobility_tick() {
        let mut s: Simulator<Clocked> = Simulator::new(SimConfig::default(), 1);
        for k in 0..3 {
            s.add_node(Clocked::default(), Position::new(f64::from(k), 0.0));
        }
        assert!(!s.step(), "a static world has nothing to do");
        s.run_until(Duration::from_millis(1500));
        for _ in 0..2 {
            let walk = Mobility::RandomWaypoint {
                width_m: 100.0,
                height_m: 100.0,
                min_speed: 1.0,
                max_speed: 2.0,
                pause: Duration::ZERO,
            };
            s.add_mobile_node(Clocked::default(), Position::new(5.0, 5.0), walk);
        }
        for tick in [2500, 3500, 4500] {
            assert!(s.step());
            assert_eq!(s.now(), Duration::from_millis(tick));
        }
    }

    /// A frame's end and its three receivers' are one queue entry, but
    /// `step()` still hands out one event per call: four steps at the
    /// frame's end instant, each counted.
    #[test]
    fn step_serves_a_frame_end_burst_one_event_per_call() {
        let mut s = sim();
        s.add_node(
            sender_at(Duration::from_millis(10), vec![7; 8]),
            Position::new(0.0, 0.0),
        );
        for k in 1..=3 {
            s.add_node(Probe::default(), Position::new(40.0 * f64::from(k), 0.0));
        }
        while s.metrics().frames_transmitted == 0 {
            assert!(s.step());
        }
        let end = s.queue.peek_time().expect("the frame's end is queued");
        assert_eq!(s.queue.len(), 4);
        for k in 0..4 {
            let before = s.events_processed();
            assert!(s.step());
            assert_eq!(s.events_processed(), before + 1);
            assert_eq!((s.now, s.queue.len()), (end, 3 - k));
        }
        assert_eq!(s.node(NodeId(0)).tx_done, 1);
        assert!((1..=3).all(|k| s.node(NodeId(k)).received.len() == 1));
        assert!(!s.step(), "nothing but the frame was queued");
    }

    /// A NaN coordinate heard every sender at the reference distance
    /// (`NaN.max(d0)` is `d0`) and sat in grid cell (0, 0): a node at
    /// `(NaN, 5)` decoded beacons from senders 2 000 km apart, one with
    /// the link cache and two without. Every way a position enters
    /// refuses it instead.
    #[test]
    #[should_panic(expected = "node position must be finite")]
    fn a_nan_position_is_refused() {
        sim().add_node(Probe::default(), Position::new(f64::NAN, 5.0));
    }

    #[test]
    #[should_panic(expected = "node position must be finite")]
    fn an_infinite_mobile_start_is_refused() {
        let at = Position::new(0.0, f64::INFINITY);
        sim().add_mobile_node(Probe::default(), at, Mobility::Static);
    }

    #[test]
    #[should_panic(expected = "node position must be finite")]
    fn moving_a_node_to_nan_is_refused() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.set_position(a, Position::new(1.0, f64::NAN));
    }

    fn waypoint(width_m: f64, min_speed: f64, max_speed: f64) -> Mobility {
        Mobility::RandomWaypoint {
            width_m,
            height_m: 100.0,
            min_speed,
            max_speed,
            pause: Duration::ZERO,
        }
    }

    /// A negative speed walks the node away from its waypoint forever.
    #[test]
    #[should_panic(expected = "RandomWaypoint needs finite parameters")]
    fn a_negative_waypoint_speed_is_refused() {
        let walk = waypoint(100.0, -3.0, 2.0);
        sim().add_mobile_node(Probe::default(), Position::new(0.0, 0.0), walk);
    }

    #[test]
    #[should_panic(expected = "RandomWaypoint needs finite parameters")]
    fn a_non_finite_waypoint_parameter_is_refused() {
        let walk = waypoint(f64::NAN, 1.0, 2.0);
        sim().add_mobile_node(Probe::default(), Position::new(0.0, 0.0), walk);
    }

    #[test]
    #[should_panic(expected = "RandomWaypoint needs finite parameters")]
    fn an_infinite_waypoint_speed_is_refused() {
        let walk = waypoint(100.0, 1.0, f64::INFINITY);
        sim().add_mobile_node(Probe::default(), Position::new(0.0, 0.0), walk);
    }

    #[test]
    fn late_added_node_is_started() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.run_for(Duration::from_secs(1));
        let b = s.add_node(
            sender_at(Duration::from_secs(2), vec![3; 3]),
            Position::new(100.0, 0.0),
        );
        s.run_for(Duration::from_secs(5));
        assert_eq!(s.node(a).received.len(), 1);
        assert_eq!(s.node(b).tx_done, 1);
    }
}
