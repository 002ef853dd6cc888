//! One measured run of one workload, in a process of its own.
//!
//! A child generates its inputs from the seed, builds, starts and
//! warms the simulation (set-up), then times the steady-state window.
//! It prints one JSON record; the parent aggregates records. A traced
//! child runs the same inputs with the timing shims, the allocation
//! counter and the workload's kernels, and must reproduce the untraced
//! fingerprint.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lora_phy::link::SignalQuality;
use lora_phy::modulation::LoRaModulation;
use lora_phy::propagation::Position;
use radio_sim::firmware::{Context, Firmware};
use radio_sim::mobility::Mobility;
use radio_sim::{topology, SimConfig, SimRng, Simulator};
use scenario::runner::{ProtocolChoice, Runner};
use scenario::sweep::{seed_list, sweep, CellStats, Observation};
use scenario::workload::{self, Target};

use crate::calib::HostSpeed;
use crate::kernels::{self, Effort};
use crate::metrics::unit_of;
use crate::net::{Net, TracedNet};
use crate::record::{peak_rss_mib, Fingerprint, Layers, Record};
use crate::span::{self, Cb, SpanFw};
use crate::workloads::{Kind, Plan, Workload};

// ---------------------------------------------------------------------
// The measured window of one simulator
// ---------------------------------------------------------------------

/// The scalar state of a simulator the per-layer counts are deltas of.
#[derive(Clone, Copy, Default)]
struct Counts {
    events: u64,
    commit_batches: u64,
    link_rebuilds: u64,
    stale_dropped: u64,
    frames_tx: u64,
    delivered: u64,
    lost: u64,
    lost_collision: u64,
    cad_scans: u64,
    cad_busy: u64,
    airtime: Duration,
}

impl Counts {
    fn of<F: Firmware>(sim: &Simulator<F>) -> Counts {
        let m = sim.metrics();
        Counts {
            events: sim.events_processed(),
            commit_batches: sim.commit_batches(),
            link_rebuilds: sim.link_rebuilds(),
            stale_dropped: m.stale_timers_dropped,
            frames_tx: m.frames_transmitted,
            delivered: m.frames_delivered,
            lost: m.total_losses(),
            lost_collision: m.lost_collision,
            cad_scans: m.per_node.iter().map(|n| n.cad_scans).sum(),
            cad_busy: m.per_node.iter().map(|n| n.cad_busy).sum(),
            airtime: m.total_airtime,
        }
    }
}

/// Timings and count deltas of one start → warm-up → window sequence.
struct Window {
    start_s: f64,
    setup_s: f64,
    run_s: f64,
    host_speed: f64,
    before: Counts,
    after: Counts,
    allocs: (u64, u64),
}

impl Window {
    fn events(&self) -> u64 {
        self.after.events - self.before.events
    }

    /// The window's host seconds at nominal host speed.
    fn norm_run_s(&self) -> f64 {
        self.run_s * self.host_speed
    }

    /// The child's record, if the run did anything at all.
    fn into_record(self, fingerprint: u64, layers: Layers) -> Result<Record, String> {
        if self.after.delivered == 0 {
            return Err("no frame was delivered".into());
        }
        Ok(Record {
            setup_s: self.setup_s,
            run_s: self.run_s,
            host_speed: self.host_speed,
            events: self.events(),
            peak_rss_mib: peak_rss_mib(),
            fingerprint,
            layers,
        })
    }
}

/// The window is simulated in this many slices with a host-speed sample
/// between them ([`crate::calib`]).
const SLICES: u64 = 24;

/// Starts `sim`, simulates the warm-up (the end of set-up, timed from
/// `origin`), then times the window. With `traced`, the spans and the
/// allocation counter cover exactly the window.
fn measure<F: Firmware + Send>(
    sim: &mut Simulator<F>,
    plan: &Plan,
    origin: Instant,
    traced: bool,
) -> Window {
    let warmup = Duration::from_secs(plan.warmup_s);
    let t = Instant::now();
    sim.start();
    let start_s = t.elapsed().as_secs_f64();
    sim.run_until(warmup);
    let setup_s = origin.elapsed().as_secs_f64();
    let before = Counts::of(sim);
    if traced {
        span::reset();
        crate::alloc::start();
    }
    let speed = HostSpeed::default();
    speed.sample();
    let mut run = Duration::ZERO;
    for k in 1..=SLICES {
        let until = warmup + Duration::from_millis(plan.window_s * 1000 * k / SLICES);
        let t = Instant::now();
        sim.run_until(until);
        run += t.elapsed();
        speed.sample();
    }
    let allocs = if traced { crate::alloc::stop() } else { (0, 0) };
    Window {
        start_s,
        setup_s,
        run_s: run.as_secs_f64(),
        host_speed: speed.factor(),
        before,
        after: Counts::of(sim),
        allocs,
    }
}

/// The per-layer values every simulator run yields: phase times and
/// exact counts always, the span budget and allocations when traced.
fn window_layers(w: &Window, traced: bool, out: &mut Layers) {
    let (a, b) = (&w.after, &w.before);
    let events = w.events();
    out.put("sim.start_s", w.start_s);
    let batches = a.commit_batches - b.commit_batches;
    out.count("sim.commit_batches", batches);
    out.ratio("sim.events_per_batch", events as f64, batches as f64);
    let stale = a.stale_dropped - b.stale_dropped;
    out.count("event.stale_timers_dropped", stale);
    out.ratio("event.stale_share", stale as f64, (events + stale) as f64);
    let rebuilds = a.link_rebuilds - b.link_rebuilds;
    out.count("link_cache.rebuilds", rebuilds);
    out.ratio(
        "link_cache.rebuilds_per_event",
        rebuilds as f64,
        events as f64,
    );
    let delivered = a.delivered - b.delivered;
    let attempts = delivered + (a.lost - b.lost);
    let scans = a.cad_scans - b.cad_scans;
    out.count("medium.frames_tx", a.frames_tx - b.frames_tx);
    out.count("medium.rx_attempts", attempts);
    out.ratio(
        "medium.rx_delivered_share",
        delivered as f64,
        attempts as f64,
    );
    out.count("medium.lost_collision", a.lost_collision - b.lost_collision);
    out.count("medium.cad_scans", scans);
    out.ratio(
        "medium.cad_busy_share",
        (a.cad_busy - b.cad_busy) as f64,
        scans as f64,
    );
    out.put("medium.airtime_s", (a.airtime - b.airtime).as_secs_f64());
    if traced {
        budget_layers(w.run_s * 1e9, events, w.allocs, w.host_speed, out);
    }
}

/// The outside-in budget of the window that just closed, read from the
/// spans: run = engine self + adapter self + protocol self, by
/// subtraction, so the three shares sum to 1. The cost of the timing
/// itself is calibrated and taken out first ([`span::Overhead`]):
/// `trace.spans_share` is the part of the traced run it was, to be
/// read against the raw `trace.overhead_share` the parent computes
/// from the untraced runs.
fn budget_layers(run_ns: f64, events: u64, allocs: (u64, u64), host_speed: f64, out: &mut Layers) {
    let cost = span::calibrate(host_speed);
    let t = span::totals();
    let events = events.max(1) as f64;
    let run = run_ns - (t.fw_calls + t.node_calls) as f64 * cost.total_ns;
    let node = (t.node_ns - t.node_calls as f64 * cost.inside_ns).max(0.0);
    let fw = (t.fw_ns - t.fw_calls as f64 * cost.inside_ns - t.node_calls as f64 * cost.total_ns)
        .max(node);
    out.put("sim.self_ns_per_event", (run - fw) / events);
    out.ratio("sim.self_share", run - fw, run);
    out.put("sim.allocs_per_event", allocs.0 as f64 / events);
    out.put("sim.alloc_bytes_per_event", allocs.1 as f64 / events);
    let callbacks = span::FW_CALLBACKS.calls();
    out.count("adapter.calls", callbacks);
    out.put(
        "adapter.self_ns_per_call",
        (fw - node) / callbacks.max(1) as f64,
    );
    out.ratio("adapter.self_share", fw - node, run);
    out.put("proto.self_ns_per_event", node / events);
    out.ratio("proto.self_share", node, run);
    for cb in Cb::ALL {
        let s = span::node(cb);
        out.count(&format!("proto.{}.calls", cb.name()), s.calls());
        out.put(
            &format!("proto.{}.ns_per_call", cb.name()),
            (s.ns_per_call() - cost.inside_ns).max(0.0),
        );
    }
    out.put("trace.span_cost_ns", cost.total_ns);
    out.ratio("trace.spans_share", run_ns - run, run_ns);
}

// ---------------------------------------------------------------------
// Beacon workloads: engine only
// ---------------------------------------------------------------------

const BEACON_INTERVAL: Duration = Duration::from_secs(3);
const BEACON_LEN: usize = 16;

/// PHY-only firmware: a 16-byte broadcast every 3 s from a seeded
/// phase. The frame is built once, so the steady state allocates
/// nothing and the engine does all the work.
struct Beacon {
    next: Duration,
    frame: Arc<[u8]>,
}

impl Firmware for Beacon {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            ctx.transmit(self.frame.clone());
            self.next += BEACON_INTERVAL;
        }
    }
    fn on_frame(&mut self, _: &[u8], _: SignalQuality, _: &mut Context) {}
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

/// Generated inputs of a beacon workload.
struct BeaconInput {
    cfg: SimConfig,
    positions: Vec<Position>,
    phases: Vec<Duration>,
    /// The walk of every third node (`beacon_mobile` only).
    walk: Option<Mobility>,
}

/// Distance between cluster origins beyond the clusters' own extent:
/// far outside audible range, so the batch planner sees one
/// span-disjoint group per cluster.
const CLUSTER_GAP_M: f64 = 1.0e5;

fn beacon_input(kind: Kind, plan: &Plan, seed: u64) -> BeaconInput {
    let cfg = SimConfig {
        shards: plan.shards,
        threads: plan.threads,
        rng_streams: plan.threads > 1,
        ..SimConfig::default()
    };
    let spacing = topology::radio_range_m(&cfg.rf) * 0.8;
    let (clusters, per) = match kind {
        Kind::ClusterCommit => (8, plan.nodes / 8),
        _ => (1, plan.nodes),
    };
    let side = (per as f64).sqrt().ceil() as usize;
    let pitch = side as f64 * spacing + CLUSTER_GAP_M;
    let positions: Vec<Position> = (0..clusters)
        .flat_map(|c| {
            topology::grid(side, side, spacing)
                .into_iter()
                .take(per)
                .map(move |p| Position::new(p.x + c as f64 * pitch, p.y))
        })
        .collect();
    let mut rng = SimRng::new(seed ^ 0xbeac_0000);
    let phases = positions
        .iter()
        .map(|_| Duration::from_millis(rng.gen_range(3000)))
        .collect();
    let extent = side as f64 * spacing;
    let walk = (kind == Kind::BeaconMobile).then_some(Mobility::RandomWaypoint {
        width_m: extent,
        height_m: extent,
        min_speed: 2.0,
        max_speed: 14.0,
        pause: Duration::from_secs(2),
    });
    BeaconInput {
        cfg,
        positions,
        phases,
        walk,
    }
}

fn build_beacons<F: Firmware>(
    input: &BeaconInput,
    cfg: SimConfig,
    seed: u64,
    wrap: fn(Beacon) -> F,
) -> Simulator<F> {
    let mut sim = Simulator::new(cfg, seed);
    for (i, (&pos, &phase)) in input.positions.iter().zip(&input.phases).enumerate() {
        let beacon = wrap(Beacon {
            next: phase,
            frame: vec![0xB3; BEACON_LEN].into(),
        });
        match &input.walk {
            Some(walk) if i % 3 == 0 => sim.add_mobile_node(beacon, pos, walk.clone()),
            _ => sim.add_node(beacon, pos),
        };
    }
    sim
}

/// Builds and measures one beacon simulation; returns the window and
/// the fingerprint of the whole run.
fn beacon_run<F: Firmware + Send>(
    input: &BeaconInput,
    cfg: SimConfig,
    plan: &Plan,
    seed: u64,
    traced: bool,
    wrap: fn(Beacon) -> F,
) -> (Window, u64) {
    let origin = Instant::now();
    let mut sim = build_beacons(input, cfg, seed, wrap);
    let window = measure(&mut sim, plan, origin, traced);
    let mut fp = Fingerprint::new();
    fp.metrics(sim.metrics());
    fp.word(sim.events_processed());
    (window, fp.value())
}

fn run_beacons(
    w: &Workload,
    plan: &Plan,
    seed: u64,
    traced: bool,
    effort: Effort,
) -> Result<Record, String> {
    let input = beacon_input(w.kind, plan, seed);
    let cfg = input.cfg.clone();
    let (window, fingerprint) = if traced {
        beacon_run(&input, cfg, plan, seed, true, SpanFw)
    } else {
        beacon_run(&input, cfg, plan, seed, false, |b| b)
    };
    let mut layers = Layers::default();
    window_layers(&window, traced, &mut layers);
    if w.kind == Kind::ClusterCommit && window.after.commit_batches == 0 {
        return Err("cluster_commit committed no parallel batch".into());
    }
    if traced {
        match w.kind {
            Kind::BeaconStatic => {
                kernels::event(effort, &mut layers);
                kernels::medium(effort, &mut layers);
                kernels::phy(effort, &mut layers);
            }
            Kind::BeaconMobile => kernels::grid_and_rows(effort, &input.positions, &mut layers),
            Kind::ClusterCommit => {
                kernels::clustered_rows(effort, &input.positions, &mut layers);
                // The same input on one thread: what the parallel
                // commit path buys or costs.
                let cfg = SimConfig {
                    threads: 1,
                    ..input.cfg.clone()
                };
                let (single, fp) = beacon_run(&input, cfg, plan, seed, true, SpanFw);
                if fp != fingerprint {
                    return Err("threads=1 and threads=2 fingerprints differ".into());
                }
                layers.ratio(
                    "sim.threads_speedup",
                    single.norm_run_s(),
                    window.norm_run_s(),
                );
            }
            _ => unreachable!("not a beacon workload"),
        }
    }
    window.into_record(fingerprint, layers)
}

// ---------------------------------------------------------------------
// Protocol workloads: one network, all-to-one traffic
// ---------------------------------------------------------------------

/// `flood_random`'s placement: uniform over a square of side 7.7× the
/// radio range, resampled until connected at 0.8× range.
fn random_positions(n: usize, seed: u64) -> Vec<Position> {
    let range = topology::radio_range_m(&SimConfig::default().rf);
    // The side scales with √n so smoke sizes keep the density.
    let side = 7.7 * range * (n as f64 / 256.0).sqrt();
    let mut rng = SimRng::new(seed ^ 0xf100_d000);
    topology::connected_random(n, side, side, range * 0.8, &mut rng, 2000)
        .expect("a connected placement within 2000 draws")
}

/// Host time of the four runner phases around a run.
#[derive(Default)]
struct Phases {
    topology_s: f64,
    build_s: f64,
    apply_s: f64,
    report_s: f64,
}

impl Phases {
    fn layers(&self, out: &mut Layers) {
        out.put("runner.topology_s", self.topology_s);
        out.put("runner.build_s", self.build_s);
        out.put("runner.apply_s", self.apply_s);
        out.put("runner.report_s", self.report_s);
    }
}

fn app_layers(sent: usize, delivered: usize, latencies: &mut [Duration], out: &mut Layers) {
    out.count("app.sent", sent as u64);
    out.count("app.delivered", delivered as u64);
    out.ratio("app.pdr", delivered as f64, sent as f64);
    latencies.sort_unstable();
    let p95 = latencies
        .get(((latencies.len().max(1) - 1) as f64 * 0.95).round() as usize)
        .map_or(0.0, |d| d.as_secs_f64() * 1e3);
    out.put("app.latency_p95_ms", p95);
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed().as_secs_f64();
    r
}

fn run_net<N: Net>(w: &Workload, plan: &Plan, seed: u64, effort: Effort) -> Result<Record, String> {
    let traced = N::TRACED;
    let mut phases = Phases::default();
    let (positions, protocol) = timed(&mut phases.topology_s, || match w.kind {
        Kind::MeshGrid => {
            let side = (plan.nodes as f64).sqrt().ceil() as usize;
            let spacing = topology::radio_range_m(&SimConfig::default().rf) * 0.8;
            let mut grid = topology::grid(side, side, spacing);
            grid.truncate(plan.nodes);
            (grid, ProtocolChoice::mesh_fast())
        }
        _ => (
            random_positions(plan.nodes, seed),
            ProtocolChoice::Flooding { ttl: 7 },
        ),
    });
    let n = positions.len();
    // All-to-one 24-byte datagrams to node 0 every 60 s, from a seeded
    // instant within a second of t = 60 s to the end of the window. The
    // sink is fixed, and the start all but fixed, because where the
    // sink sits and how much of the first round falls into the warm-up
    // decide the size of the work, and a seed must not.
    let first = Duration::from_millis(60_000 + SimRng::new(seed ^ 0x51ec).gen_range(1000));
    let rounds = (plan.warmup_s + plan.window_s).saturating_sub(120) / 60;
    let traffic = workload::all_to_one(n, 0, 24, first, Duration::from_secs(60), rounds as usize);
    // Set-up starts where the program first sees the inputs.
    let origin = Instant::now();
    let mut net = timed(&mut phases.build_s, || {
        N::build(positions, protocol, SimConfig::default(), seed)
    });
    timed(&mut phases.apply_s, || net.apply(&traffic));
    let window = measure(net.sim_mut(), plan, origin, traced);
    let mut report = timed(&mut phases.report_s, || net.traffic());

    let mut fp = Fingerprint::new();
    fp.metrics(net.sim_mut().metrics());
    fp.word(net.sim_mut().events_processed());
    fp.traffic(&report);

    let mut layers = Layers::default();
    window_layers(&window, traced, &mut layers);
    phases.layers(&mut layers);
    app_layers(
        report.sent,
        report.delivered,
        &mut report.latencies,
        &mut layers,
    );
    if w.kind == Kind::FloodRandom {
        layers.ratio(
            "flood.dup_share",
            net.flood_duplicates() as f64,
            window.after.delivered as f64,
        );
    }
    if traced {
        match w.kind {
            Kind::MeshGrid => kernels::mesh(effort, &mut layers),
            _ => kernels::flood(effort, &mut layers),
        }
    }
    window.into_record(fp.value(), layers)
}

// ---------------------------------------------------------------------
// sweep_small: many tiny runs through scenario::sweep
// ---------------------------------------------------------------------

/// One cell of the sweep grid.
#[derive(Clone, Copy)]
struct Cell {
    protocol: ProtocolChoice,
    nodes: usize,
    modulation: LoRaModulation,
}

/// Host-side notes the sweep closure leaves beside its observations,
/// summed over the runs.
#[derive(Default)]
struct SweepNotes {
    phases: Phases,
    run_walls_ms: Vec<f64>,
    latencies: Vec<Duration>,
    sent: usize,
    delivered: usize,
    /// Σ host time inside `run_until`, over all runs.
    run_ns: f64,
    events: u64,
}

/// E13's recipe on one cell and seed: a degree-normalised connected
/// random placement, a warm-up, then 8 sampled unicast flows.
fn sweep_run<N: Net>(
    cell: &Cell,
    seed: u64,
    plan: &Plan,
    notes: &Mutex<SweepNotes>,
    speed: &HostSpeed,
) -> Vec<Observation> {
    let started = Instant::now();
    let mut phases = Phases::default();
    let mut sim = SimConfig::default();
    sim.rf.modulation = cell.modulation;
    let n = cell.nodes;
    let positions = timed(&mut phases.topology_s, || {
        let spacing = topology::radio_range_m(&sim.rf) * 0.8;
        let degree = (n as f64).ln() + 3.0;
        let area = spacing * (n as f64 * std::f64::consts::PI / degree).sqrt();
        let mut rng = SimRng::new(seed ^ (n as u64) << 8);
        topology::connected_random(n, area, area, spacing, &mut rng, 2000)
            .expect("a connected placement within 2000 draws")
    });
    let mut net = timed(&mut phases.build_s, || {
        N::build(positions, cell.protocol, sim, seed)
    });
    let warmup = Duration::from_secs(plan.warmup_s);
    let messages = plan.window_s / 60;
    let flows = 8.min(n / 2);
    timed(&mut phases.apply_s, || {
        for f in 0..flows {
            let src = f * n / flows;
            net.apply(&workload::periodic(
                src,
                Target::Node((src + n / 2) % n),
                16,
                warmup + Duration::from_secs(7 * f as u64),
                Duration::from_secs(60),
                messages as usize,
            ));
        }
    });
    let t = Instant::now();
    net.sim_mut()
        .run_until(warmup + Duration::from_secs(60 * messages + 240));
    let run_ns = t.elapsed().as_nanos() as f64;
    let report = timed(&mut phases.report_s, || net.traffic());
    let sim = net.sim_mut();
    let (metrics, events) = (sim.metrics(), sim.events_processed());

    {
        let mut notes = notes.lock().expect("no run panics holding the notes");
        notes.phases.topology_s += phases.topology_s;
        notes.phases.build_s += phases.build_s;
        notes.phases.apply_s += phases.apply_s;
        notes.phases.report_s += phases.report_s;
        notes.sent += report.sent;
        notes.delivered += report.delivered;
        notes.run_ns += run_ns;
        notes.events += events;
        notes.latencies.extend(&report.latencies);
        notes
            .run_walls_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
    }
    // One host-speed sample per run, from whichever worker ran it.
    speed.sample();
    vec![
        ("sent", Some(report.sent as f64)),
        ("pdr", report.pdr()),
        ("latency", report.mean_latency().map(|d| d.as_secs_f64())),
        ("airtime", Some(metrics.total_airtime.as_secs_f64())),
        ("frames", Some(metrics.frames_transmitted as f64)),
        ("delivered", Some(metrics.frames_delivered as f64)),
        ("events", Some(events as f64)),
    ]
}

/// One whole sweep: its wall time, notes and aggregates' fingerprint.
struct SweepOutcome {
    /// Wall time of the whole sweep, host-speed samples taken out.
    wall_s: f64,
    host_speed: f64,
    notes: SweepNotes,
    fingerprint: u64,
    frames_delivered: f64,
    runs: usize,
}

fn sweep_once<N: Net>(plan: &Plan, seed: u64, jobs: usize) -> SweepOutcome {
    let protocols = [
        ProtocolChoice::mesh_fast(),
        ProtocolChoice::Flooding { ttl: 7 },
        ProtocolChoice::Star { gateway: 0 },
    ];
    let presets = [LoRaModulation::default(), LoRaModulation::long_fast()];
    let cells: Vec<Cell> = protocols
        .iter()
        .flat_map(|&protocol| {
            plan.sweep_sizes.iter().flat_map(move |&nodes| {
                presets.map(|modulation| Cell {
                    protocol,
                    nodes,
                    modulation,
                })
            })
        })
        .collect();
    let seeds = seed_list(seed, plan.sweep_seeds);
    let notes = Mutex::new(SweepNotes::default());
    let speed = HostSpeed::default();
    let t = Instant::now();
    let stats: Vec<CellStats> = sweep(&cells, &seeds, jobs, |cell, seed| {
        sweep_run::<N>(cell, seed, plan, &notes, &speed)
    });
    // The samples were taken inside the sweep, spread over its workers.
    let wall_s = t.elapsed().as_secs_f64() - speed.seconds() / jobs as f64;
    let mut fp = Fingerprint::new();
    for cell in &stats {
        for (_, summary) in &cell.metrics {
            let s = summary.as_ref();
            fp.word(s.map_or(0, |s| s.n as u64));
            for x in [s.map(|s| s.mean), s.map(|s| s.min), s.map(|s| s.max)] {
                fp.word(x.map_or(u64::MAX, f64::to_bits));
            }
        }
    }
    SweepOutcome {
        wall_s,
        host_speed: speed.factor(),
        fingerprint: fp.value(),
        frames_delivered: stats.iter().map(|c| c.total("delivered")).sum(),
        runs: cells.len() * seeds.len(),
        notes: notes.into_inner().expect("sweep workers have joined"),
    }
}

fn run_sweep<N: Net>(plan: &Plan, seed: u64) -> Result<Record, String> {
    let traced = N::TRACED;
    if traced {
        span::reset();
        crate::alloc::start();
    }
    let out = sweep_once::<N>(plan, seed, plan.jobs);
    let allocs = if traced { crate::alloc::stop() } else { (0, 0) };
    let mut notes = out.notes;
    let mut layers = Layers::default();
    notes.phases.layers(&mut layers);
    app_layers(
        notes.sent,
        notes.delivered,
        &mut notes.latencies,
        &mut layers,
    );
    notes.run_walls_ms.sort_by(f64::total_cmp);
    layers.count("sweep.runs", out.runs as u64);
    layers.put(
        "sweep.run_wall_p50_ms",
        crate::stats::median(&notes.run_walls_ms),
    );
    layers.put(
        "sweep.run_wall_max_ms",
        notes.run_walls_ms.last().copied().unwrap_or(0.0),
    );
    if traced {
        // Spans sum over sweep workers, so the budget's whole is the
        // summed simulation time of the runs, not the sweep's wall.
        budget_layers(
            notes.run_ns,
            notes.events,
            allocs,
            out.host_speed,
            &mut layers,
        );
        let single = sweep_once::<N>(plan, seed, 1);
        if single.fingerprint != out.fingerprint {
            return Err("sweep aggregates differ between jobs=1 and jobs=2".into());
        }
        layers.ratio(
            "sweep.jobs_speedup",
            single.wall_s * single.host_speed,
            out.wall_s * out.host_speed,
        );
    }
    if out.frames_delivered == 0.0 {
        return Err("no frame was delivered".into());
    }
    Ok(Record {
        // What the runs paid before simulating, summed over runs.
        setup_s: notes.phases.topology_s + notes.phases.build_s + notes.phases.apply_s,
        run_s: out.wall_s,
        host_speed: out.host_speed,
        events: notes.events,
        peak_rss_mib: peak_rss_mib(),
        fingerprint: out.fingerprint,
        layers,
    })
}

/// Runs `workload` once in this process.
pub fn run(w: &Workload, seed: u64, smoke: bool, traced: bool) -> Result<Record, String> {
    let plan = w.plan(smoke);
    let effort = if smoke { Effort::SMOKE } else { Effort::FULL };
    let mut record = match (w.kind, traced) {
        (Kind::BeaconStatic | Kind::BeaconMobile | Kind::ClusterCommit, _) => {
            run_beacons(w, &plan, seed, traced, effort)
        }
        (Kind::MeshGrid | Kind::FloodRandom, false) => run_net::<Runner>(w, &plan, seed, effort),
        (Kind::MeshGrid | Kind::FloodRandom, true) => run_net::<TracedNet>(w, &plan, seed, effort),
        (Kind::SweepSmall, false) => run_sweep::<Runner>(&plan, seed),
        (Kind::SweepSmall, true) => run_sweep::<TracedNet>(&plan, seed),
    }?;
    if record.events == 0 {
        return Err("no event was processed".into());
    }
    // Host times (not simulated ones, `sim_s`/`sim_ms`) at nominal speed.
    for (name, value) in &mut record.layers.0 {
        let unit = unit_of(name).ok_or_else(|| format!("'{name}' is not in the metric table"))?;
        if matches!(unit, "ns" | "ms" | "s") {
            *value *= record.host_speed;
        }
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::by_name;

    fn workload(name: &str) -> &'static Workload {
        by_name(name).expect("a workload of the table")
    }

    /// Same workload and seed: the same fingerprint and event count,
    /// whatever the host did meanwhile; another seed: other inputs.
    #[test]
    fn fingerprint_repeats_for_a_seed_and_moves_with_it() {
        for name in ["beacon_static", "beacon_mobile"] {
            let w = workload(name);
            let plan = Plan::of(64, 3, 12).engine(4, 1);
            let run = |seed| run_beacons(w, &plan, seed, false, Effort::SMOKE).unwrap();
            let (a, b, other) = (run(7), run(7), run(8));
            assert_eq!(
                (a.fingerprint, a.events),
                (b.fingerprint, b.events),
                "{name}"
            );
            assert_ne!(a.fingerprint, other.fingerprint, "{name}");
            assert!(a.events > 0 && a.host_speed > 0.0);
        }
    }

    /// `SpanFw` and `SpanNode` only watch: a 16-node mesh and a 16-node
    /// flood simulate the same thing with and without them, and the
    /// traced twin of the runner accounts traffic like the runner.
    #[test]
    fn shims_do_not_change_what_is_simulated() {
        for name in ["mesh_grid", "flood_random"] {
            let w = workload(name);
            let plan = Plan::of(16, 120, 360);
            let plain = run_net::<Runner>(w, &plan, 7, Effort::SMOKE).unwrap();
            let traced = run_net::<TracedNet>(w, &plan, 7, Effort::SMOKE).unwrap();
            assert_eq!(
                (plain.fingerprint, plain.events),
                (traced.fingerprint, traced.events),
                "{name}"
            );
            for layer in ["app.sent", "app.delivered", "medium.frames_tx"] {
                assert_eq!(
                    plain.layers.get(layer),
                    traced.layers.get(layer),
                    "{name} {layer}"
                );
                assert!(plain.layers.get(layer).unwrap() > 0.0, "{name} {layer}");
            }
            let shares: f64 = ["sim", "adapter", "proto"]
                .iter()
                .map(|l| traced.layers.get(&format!("{l}.self_share")).unwrap())
                .sum();
            assert!(
                (shares - 1.0).abs() < 1e-9,
                "{name}: shares sum to {shares}"
            );
        }
    }

    /// The same for all three stacks through the sweep, whose traced leg
    /// also compares `jobs=1` with `jobs=2`.
    #[test]
    fn traced_sweep_aggregates_like_the_untraced_one() {
        let plan = Plan {
            jobs: 2,
            sweep_sizes: &[8],
            sweep_seeds: 2,
            ..Plan::of(8, 120, 120)
        };
        let plain = run_sweep::<Runner>(&plan, 7).unwrap();
        let traced = run_sweep::<TracedNet>(&plan, 7).unwrap();
        assert_eq!(
            (plain.fingerprint, plain.events),
            (traced.fingerprint, traced.events)
        );
        assert_eq!(plain.layers.get("sweep.runs"), Some(12.0));
    }

    #[test]
    fn records_survive_the_pipe() {
        let w = workload("beacon_static");
        let plan = Plan::of(16, 3, 6).engine(4, 1);
        let record = run_beacons(w, &plan, 1, false, Effort::SMOKE).unwrap();
        let back = Record::from_json(&Json::parse(&record.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.fingerprint, record.fingerprint);
        assert_eq!(back.events, record.events);
        assert_eq!(back.run_s, record.run_s);
        assert_eq!(back.layers.0, record.layers.0);
    }
}
