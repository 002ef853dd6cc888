//! Differential tests proving the link cache is behaviourally
//! transparent: with `SimConfig::link_cache` on or off, a simulation
//! produces byte-identical traces, identical metrics (including RNG-fed
//! grey-zone outcomes, so the draw sequences must match too) and
//! identical sweep aggregates — across multiple seeds, under CAD
//! traffic, node churn and mobility (the cache-invalidation paths).

use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::{Position, Shadowing};
use radio_sim::firmware::{Context, Firmware};
use radio_sim::metrics::Metrics;
use radio_sim::mobility::Mobility;
use radio_sim::time::SimTime;
use radio_sim::trace::TraceEvent;
use radio_sim::{SimConfig, Simulator};
use scenario::workload;
use scenario::{seed_list, NetworkBuilder, Target};

/// PHY-exercising firmware: periodically runs a CAD scan and transmits
/// when the channel is clear (with an RNG backoff when busy), so a run
/// covers fan-out, receiver locking, interference seeding, CAD scans
/// and grey-zone RNG draws.
struct Chatty {
    next: Duration,
    interval: Duration,
    len: usize,
    heard: u64,
    rng: radio_sim::SimRng,
}

impl Chatty {
    fn new(phase_ms: u64, len: usize) -> Self {
        Chatty {
            next: Duration::from_millis(phase_ms),
            interval: Duration::from_millis(800),
            len,
            heard: 0,
            rng: radio_sim::SimRng::new(phase_ms ^ 0xC4A7),
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
            // RNG-jittered retry: cached and uncached runs must make
            // the very same draw here for the timelines to stay equal.
            self.next = ctx.now() + Duration::from_millis(20 + self.rng.gen_range(60));
        } else {
            ctx.transmit(vec![0xC7; self.len]);
        }
    }
    fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {
        self.heard += 1;
    }
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

/// Everything observable about a finished run.
type Fingerprint = (Vec<(SimTime, TraceEvent)>, Metrics, Vec<u64>, u64);

fn fingerprint(s: &Simulator<Chatty>) -> Fingerprint {
    (
        s.trace().entries().cloned().collect(),
        s.metrics().clone(),
        (0..s.node_count())
            .map(|i| s.node(radio_sim::NodeId(i)).heard)
            .collect(),
        s.events_processed(),
    )
}

fn config(link_cache: bool) -> SimConfig {
    config_grid(link_cache, true)
}

fn config_grid(link_cache: bool, spatial_grid: bool) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.rf.grey_zone = true;
    cfg.rf.shadowing = Shadowing::new(4.0, 7);
    cfg.trace_capacity = 1 << 16;
    cfg.link_cache = link_cache;
    cfg.spatial_grid = spatial_grid;
    cfg
}

/// Static line + churn: kills and revives hit the truncated-frame
/// handling and the Off/Idle fan-out paths.
fn run_static(seed: u64, link_cache: bool) -> Fingerprint {
    run_static_cfg(seed, config(link_cache))
}

fn run_static_cfg(seed: u64, cfg: SimConfig) -> Fingerprint {
    let mut s = Simulator::new(cfg, seed);
    for k in 0..10u64 {
        s.add_node(
            Chatty::new(40 * k + 5, 10 + k as usize),
            Position::new(k as f64 * 95.0, (k % 3) as f64 * 40.0),
        );
    }
    s.schedule_kill(Duration::from_secs(3), radio_sim::NodeId(4));
    s.schedule_revive(Duration::from_secs(7), radio_sim::NodeId(4));
    s.run_for(Duration::from_secs(12));
    fingerprint(&s)
}

/// Mobile scenario: RandomWaypoint nodes force a cache invalidation on
/// every mobility tick, and frames regularly span ticks (sender moved
/// since transmission start), exercising the origin-vs-position
/// fallback in interference seeding and CAD.
fn run_mobile(seed: u64, link_cache: bool) -> Fingerprint {
    run_mobile_cfg(seed, config(link_cache))
}

fn run_mobile_cfg(seed: u64, cfg: SimConfig) -> Fingerprint {
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
            Chatty::new(37 * k + 3, 60),
            Position::new(k as f64 * 70.0, k as f64 * 50.0),
            waypoint.clone(),
        );
    }
    // A late-added node resizes (and thus invalidates) the cache.
    s.run_for(Duration::from_secs(2));
    s.add_node(Chatty::new(11, 24), Position::new(300.0, 300.0));
    s.run_for(Duration::from_secs(10));
    fingerprint(&s)
}

#[test]
fn static_runs_identical_across_seeds() {
    for seed in [1u64, 2, 3, 999] {
        let cached = run_static(seed, true);
        let uncached = run_static(seed, false);
        assert_eq!(cached, uncached, "divergence at seed {seed}");
        assert!(
            cached.1.frames_transmitted > 0 && cached.1.frames_delivered > 0,
            "seed {seed} produced no traffic — the test proves nothing"
        );
    }
}

#[test]
fn mobile_runs_identical_across_seeds() {
    for seed in [5u64, 6, 7] {
        let cached = run_mobile(seed, true);
        let uncached = run_mobile(seed, false);
        assert_eq!(cached, uncached, "divergence at seed {seed}");
        assert!(
            cached.1.frames_transmitted > 0,
            "seed {seed} produced no traffic"
        );
    }
}

/// Full-stack check: a LoRaMesher network with unicast traffic yields
/// the same traffic report and PHY metrics either way.
#[test]
fn mesh_scenario_identical() {
    let run = |link_cache: bool| {
        let spacing = radio_sim::topology::radio_range_m(&SimConfig::default().rf) * 0.8;
        let mut runner = NetworkBuilder::mesh(radio_sim::topology::line(5, spacing), 31)
            .link_cache(link_cache)
            .build();
        runner.apply(&workload::periodic(
            0,
            Target::Node(4),
            12,
            Duration::from_secs(60),
            Duration::from_secs(20),
            10,
        ));
        runner.run_until(Duration::from_secs(400));
        let r = runner.report();
        (
            runner.phy_metrics().clone(),
            r.sent,
            r.delivered,
            r.latencies,
            r.frames_transmitted,
            r.collisions,
        )
    };
    assert_eq!(run(true), run(false));
}

/// PR 1's sweep engine on top: aggregate tables (mean/min/max over the
/// seed set) must be bit-identical with the cache on or off, for any
/// jobs count.
#[test]
fn sweep_aggregates_identical() {
    let aggregate = |link_cache: bool, jobs: usize| {
        let seeds = seed_list(42, 4);
        scenario::run_parallel(&seeds, jobs, |&seed| {
            let f = run_static(seed, link_cache);
            (
                f.1.frames_delivered,
                f.1.total_losses(),
                f.1.frames_transmitted,
                f.3,
            )
        })
    };
    let cached = aggregate(true, 1);
    assert_eq!(cached, aggregate(false, 1));
    // Jobs-invariance (PR 1) must survive the cache: sharding the cached
    // runs over threads changes nothing.
    assert_eq!(cached, aggregate(true, 4));
}

/// PR 7: the spatial candidate grid must be exactly as invisible as the
/// cache itself — toggling `spatial_grid` (which switches sparse rows
/// back to full O(n) row fills and disables the weighted partitioner)
/// changes nothing, in every combination with the `link_cache` toggle,
/// on static-churn and mobile scenarios alike.
#[test]
fn spatial_grid_toggle_is_invisible() {
    for seed in [2u64, 7] {
        let reference = run_static_cfg(seed, config_grid(true, true));
        assert!(reference.1.frames_delivered > 0, "seed {seed}: no traffic");
        for (link_cache, spatial_grid) in [(true, false), (false, true), (false, false)] {
            assert_eq!(
                reference,
                run_static_cfg(seed, config_grid(link_cache, spatial_grid)),
                "static divergence at seed {seed},                  link_cache={link_cache}, spatial_grid={spatial_grid}"
            );
        }
        let mobile_ref = run_mobile_cfg(seed, config_grid(true, true));
        assert_eq!(
            mobile_ref,
            run_mobile_cfg(seed, config_grid(true, false)),
            "mobile divergence at seed {seed} with the grid off"
        );
    }
}
