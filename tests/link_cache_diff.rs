//! Differential tests proving the link cache is behaviourally
//! transparent: the cached fan-out produces the byte-identical traces,
//! identical metrics (including RNG-fed grey-zone outcomes, so the draw
//! sequences must match too) and identical event counts that the
//! uncached fan-out produced — across multiple seeds, under CAD traffic,
//! node churn and mobility (the cache-invalidation paths).
//!
//! The uncached fan-out is gone, so its side of the comparison is
//! pinned as golden digests ([`GOLDEN`]), recorded while both paths
//! still ran and agreed on every run below.

use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::{Position, Shadowing};
use radio_sim::firmware::{Context, Firmware};
use radio_sim::metrics::Metrics;
use radio_sim::mobility::Mobility;
use radio_sim::time::SimTime;
use radio_sim::trace::TraceEvent;
use radio_sim::{SimConfig, Simulator};
use testkit::fnv1a;

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
            // RNG-jittered retry: cached and uncached runs had to make
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

/// Golden digests (FNV-1a of the fingerprint's `Debug` text) of the
/// uncached fan-out's runs, which the cached fan-out matched on every
/// entry. To regenerate after an *intentional* behaviour change:
///
/// ```text
/// LINK_CACHE_DIFF_REGEN=1 cargo test --test link_cache_diff -- --nocapture
/// ```
///
/// and paste the printed lines, with a review of why the behaviour
/// moved. Regen history: none.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("static churn", 1, 0xe0825a396a81fa9f),
    ("static churn", 2, 0xb297ced5b82edad7),
    ("static churn", 3, 0xe76dac9e8600f02f),
    ("static churn", 999, 0x3b24c700f908e788),
    ("mobile", 5, 0xa1a14dd4ccdd86a9),
    ("mobile", 6, 0xfcb57acf05917236),
    ("mobile", 7, 0xb3e008934d736477),
];

/// Asserts `fp` matches the uncached fan-out's pinned run, or prints
/// its table line under `LINK_CACHE_DIFF_REGEN`.
fn assert_golden(name: &str, seed: u64, fp: &Fingerprint) {
    let actual = fnv1a(format!("{fp:?}").as_bytes());
    if std::env::var_os("LINK_CACHE_DIFF_REGEN").is_some() {
        println!("    (\"{name}\", {seed}, {actual:#018x}),");
        return;
    }
    let expected = GOLDEN
        .iter()
        .find(|&&(n, k, _)| n == name && k == seed)
        .map(|&(_, _, h)| h)
        .unwrap_or_else(|| panic!("no golden entry for {name}/{seed}"));
    assert_eq!(
        actual, expected,
        "divergence from the uncached fan-out's run ({name}, seed {seed})"
    );
}

fn config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.rf.grey_zone = true;
    cfg.rf.shadowing = Shadowing::new(4.0, 7);
    cfg.trace_capacity = 1 << 16;
    cfg
}

/// Static line + churn: kills and revives hit the truncated-frame
/// handling and the Off/Idle fan-out paths.
fn run_static(seed: u64) -> Fingerprint {
    let mut s = Simulator::new(config(), seed);
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
fn run_mobile(seed: u64) -> Fingerprint {
    let mut s = Simulator::new(config(), seed);
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
        let run = run_static(seed);
        assert_golden("static churn", seed, &run);
        assert!(
            run.1.frames_transmitted > 0 && run.1.frames_delivered > 0,
            "seed {seed} produced no traffic — the test proves nothing"
        );
    }
}

#[test]
fn mobile_runs_identical_across_seeds() {
    for seed in [5u64, 6, 7] {
        let run = run_mobile(seed);
        assert_golden("mobile", seed, &run);
        assert!(
            run.1.frames_transmitted > 0,
            "seed {seed} produced no traffic"
        );
    }
}
