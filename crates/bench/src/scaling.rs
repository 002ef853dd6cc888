//! The static-grid beacon scenario behind the simulator micro-benches.
//!
//! N nodes on a square grid, spaced at 0.8× the radio range (so each
//! node hears only its 4-neighborhood — the regime the link cache's
//! audible-neighbor culling targets), every node broadcasting a short
//! beacon on a fixed period with a deterministic per-node phase. The
//! scenario is pure PHY (no routing) so the measurement isolates the
//! simulator hot path: `start_tx` fan-out, receiver locking and
//! interference seeding.
//!
//! Used by `benches/micro.rs` (sequential and sharded hot-path benches).

use std::sync::Arc;
use std::time::Duration;

use lora_phy::link::SignalQuality;
use radio_sim::firmware::{Context, Firmware};
use radio_sim::metrics::Metrics;
use radio_sim::topology;
use radio_sim::{SimConfig, Simulator};

/// Beacon period of every node.
pub const BEACON_INTERVAL: Duration = Duration::from_secs(3);
/// Beacon payload length in bytes.
pub const BEACON_LEN: usize = 16;

/// Fires a fixed-length broadcast every [`BEACON_INTERVAL`], phase-offset
/// per node; counts the beacons it hears.
pub struct Beacon {
    next: Duration,
    /// The beacon frame, built once: each transmission clones the `Arc`
    /// (a refcount bump), keeping the steady-state loop allocation-free
    /// — see `tests/alloc_regression.rs`.
    frame: Arc<[u8]>,
    /// Frames this node decoded.
    pub heard: u64,
}

impl Beacon {
    /// A beacon whose first transmission happens at `phase`.
    #[must_use]
    pub fn with_phase(phase: Duration) -> Self {
        Beacon {
            next: phase,
            frame: vec![0xB3; BEACON_LEN].into(),
            heard: 0,
        }
    }
}

impl Firmware for Beacon {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            ctx.transmit(self.frame.clone());
            self.next += BEACON_INTERVAL;
        }
    }
    fn on_frame(&mut self, _bytes: &[u8], _q: SignalQuality, _ctx: &mut Context) {
        self.heard += 1;
    }
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

/// Runs the n-node static-grid beacon simulation (n is rounded up to the
/// next perfect square) for `sim_secs` simulated seconds and returns the
/// final PHY metrics plus the number of events processed. `shards` = 1
/// is the sequential engine; larger values partition the world into
/// bands (behaviourally transparent, see `tests/shard_diff.rs`).
#[must_use]
pub fn run(n: usize, shards: usize, sim_secs: u64, seed: u64) -> (Metrics, u64) {
    let cfg = SimConfig {
        shards,
        ..SimConfig::default()
    };
    let spacing = topology::radio_range_m(&cfg.rf) * 0.8;
    let side = (n as f64).sqrt().ceil() as usize;
    let mut sim: Simulator<Beacon> = Simulator::new(cfg, seed);
    for (i, pos) in topology::grid(side, side, spacing).into_iter().enumerate() {
        // Deterministic pseudo-random phase spreads transmissions over
        // the beacon period without consuming simulator RNG draws.
        let phase = Duration::from_millis((i as u64).wrapping_mul(2971) % 3000);
        sim.add_node(Beacon::with_phase(phase), pos);
    }
    sim.run_for(Duration::from_secs(sim_secs));
    (sim.metrics().clone(), sim.events_processed())
}
