//! Differential tests proving the spatial partition and the worker
//! threads are behaviourally transparent: with `SimConfig::shards` at 1
//! (no partition) or any larger value (scoped link-cache invalidation;
//! with threads, per-band event queues under a lookahead-batched k-way
//! merge), and with `SimConfig::threads` at 1 (coordinator only, one
//! queue) or any larger value (worker-thread mobility stepping and
//! link-row prefetch, band queues and parallel batch commit), a
//! simulation produces byte-identical traces, identical metrics,
//! identical firmware state and identical routing tables — across
//! seeds, shard counts, thread counts, node churn, mobility and a full
//! LoRaMesher mesh. The `SimConfig::rng_streams` derivation gets the
//! same battery: engine-invariant under every (shards, threads) pair,
//! while remaining a genuinely different stream family than the pinned
//! fork derivation. The `shards = 1, threads = 1` reference runs are
//! themselves pinned in the golden table (`tests/scenarios/table.rs`),
//! which shares this battery's scenarios and `Chatty` firmware
//! (`tests/scenarios/mod.rs`); `reference_runs_match_golden` checks
//! them.
//!
//! The only allowed difference is the bookkeeping counter
//! `stale_timers_dropped`, and only where band queues exist
//! (`threads > 1`): the merge settles queue heads at slightly different
//! moments, so a superseded timer may be discarded before or after the
//! run's horizon. The fingerprint deliberately zeroes it; the golden
//! table and the last test keep it, where one thread makes it exact.

mod scenarios;

use std::time::Duration;

use lora_phy::modulation::LoRaModulation;
use lora_phy::propagation::Position;
use radio_sim::metrics::Metrics;
use radio_sim::mobility::Mobility;
use radio_sim::time::SimTime;
use radio_sim::trace::TraceEvent;
use radio_sim::{SimConfig, Simulator};
use scenario::workload;
use scenario::{seed_list, NetworkBuilder, Target};
use scenarios::{churn, dense, grey_config, walk, wide, Chatty, Net, Script};

/// Shard counts every scenario is checked at. 1 is the sequential
/// reference; 2/4/8 exercise narrow bands (including bands narrower
/// than the audible range, where reaches overlap heavily).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Worker-thread counts the parallel evaluate regions are checked at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// The shard reference runs' [`Chatty`] RNG salt.
const SALT: u64 = 0x54A8;

/// Everything observable about a finished run, minus the one counter
/// the sharded engine is allowed to time differently.
type Fingerprint = (Vec<(SimTime, TraceEvent)>, Metrics, String);

fn fingerprint(s: &Simulator<Chatty>) -> Fingerprint {
    let mut metrics = s.metrics().clone();
    metrics.stale_timers_dropped = 0;
    (s.trace().entries().cloned().collect(), metrics, s.nodes())
}

fn config(shards: usize) -> SimConfig {
    config_with(shards, 1, false)
}

fn config_with(shards: usize, threads: usize, rng_streams: bool) -> SimConfig {
    SimConfig {
        shards,
        threads,
        rng_streams,
        ..grey_config()
    }
}

/// An engine-level scenario of `tests/scenarios/mod.rs`.
type Scenario = fn(u64, SimConfig, u64) -> Script<Simulator<Chatty>>;

/// Runs `scenario` to its end with the shard reference salt.
fn sim(scenario: Scenario, seed: u64, cfg: SimConfig) -> Simulator<Chatty> {
    let mut script = scenario(seed, cfg, SALT);
    script.run_to(script.end);
    script.net
}

/// A scenario's fingerprint and event count.
fn run(scenario: Scenario, seed: u64, cfg: SimConfig) -> (Fingerprint, u64) {
    let s = sim(scenario, seed, cfg);
    (fingerprint(&s), s.events_processed())
}

#[test]
fn static_churn_runs_identical_for_every_shard_count() {
    for seed in [1u64, 2, 3, 999] {
        let (reference, ref_events) = run(churn, seed, config(1));
        assert!(
            reference.1.frames_transmitted > 0 && reference.1.frames_delivered > 0,
            "seed {seed} produced no traffic — the test proves nothing"
        );
        for shards in &SHARD_COUNTS[1..] {
            let (sharded, events) = run(churn, seed, config(*shards));
            assert_eq!(
                reference, sharded,
                "divergence at seed {seed}, {shards} shards"
            );
            assert_eq!(
                ref_events, events,
                "event count drift at seed {seed}, {shards} shards"
            );
        }
    }
}

#[test]
fn mobile_runs_identical_for_every_shard_count() {
    for seed in [5u64, 6, 7] {
        let (reference, ref_events) = run(walk, seed, config(1));
        assert!(
            reference.1.frames_transmitted > 0,
            "seed {seed} produced no traffic"
        );
        for shards in &SHARD_COUNTS[1..] {
            let (sharded, events) = run(walk, seed, config(*shards));
            assert_eq!(
                reference, sharded,
                "divergence at seed {seed}, {shards} shards"
            );
            assert_eq!(ref_events, events, "event count drift at seed {seed}");
        }
    }
}

#[test]
fn full_mesh_runs_identical_for_every_shard_count() {
    for seed in [21u64, 22] {
        let (reference, ref_events) = run(dense, seed, config(1));
        assert!(
            reference.1.frames_delivered > 0,
            "seed {seed} delivered nothing"
        );
        for shards in &SHARD_COUNTS[1..] {
            let (sharded, events) = run(dense, seed, config(*shards));
            assert_eq!(
                reference, sharded,
                "divergence at seed {seed}, {shards} shards"
            );
            assert_eq!(ref_events, events, "event count drift at seed {seed}");
        }
    }
}

/// Scoped invalidation must actually be scoped: a mobile run on several
/// shards must rebuild strictly fewer link-cache rows than the
/// sequential engine's wholesale invalidation — while producing the
/// same output (asserted above; re-asserted here on the same runs).
#[test]
fn scoped_invalidation_rebuilds_fewer_rows() {
    let run = |shards: usize| {
        let mut s = Simulator::new(config(shards), 5);
        let walk = Mobility::RandomWaypoint {
            width_m: 150.0,
            height_m: 150.0,
            min_speed: 5.0,
            max_speed: 15.0,
            pause: Duration::ZERO,
        };
        // Two clusters far outside audible range of each other: moves in
        // one cluster must not invalidate the other's rows.
        for k in 0..6u64 {
            s.add_mobile_node(
                Chatty::new(31 * k + 3, 16, SALT),
                Position::new(k as f64 * 20.0, k as f64 * 15.0),
                walk.clone(),
            );
        }
        for k in 0..6u64 {
            s.add_node(
                Chatty::new(41 * k + 9, 16, SALT),
                Position::new(1.0e6 + k as f64 * 20.0, k as f64 * 15.0),
            );
        }
        s.run_for(Duration::from_secs(10));
        (fingerprint(&s), s.link_rebuilds())
    };
    let (reference, seq_rebuilds) = run(1);
    let (sharded, shard_rebuilds) = run(4);
    assert_eq!(reference, sharded, "scoped invalidation changed behaviour");
    assert!(
        shard_rebuilds < seq_rebuilds,
        "scoped invalidation saved nothing: {shard_rebuilds} vs {seq_rebuilds} rebuilds"
    );
}

/// Full-stack check: a LoRaMesher network (hello cache, routing tables,
/// reliable transfers) yields the same traffic report, PHY metrics and
/// per-node routing state at every shard count.
#[test]
fn mesh_scenario_identical_for_every_shard_count() {
    let run = |shards: usize| {
        let cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let spacing = radio_sim::topology::radio_range_m(&cfg.rf) * 0.8;
        let mut runner = NetworkBuilder::mesh(radio_sim::topology::line(5, spacing), 31)
            .sim_config(cfg)
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
        let mut metrics = runner.phy_metrics().clone();
        metrics.stale_timers_dropped = 0;
        let routes: Vec<String> = (0..runner.len())
            .filter_map(|i| runner.mesh_node(i))
            .map(|m| format!("{}", m.routing_table()))
            .collect();
        (
            metrics,
            r.sent,
            r.delivered,
            r.latencies,
            r.frames_transmitted,
            r.collisions,
            routes,
        )
    };
    let reference = run(1);
    for shards in &SHARD_COUNTS[1..] {
        assert_eq!(
            reference,
            run(*shards),
            "mesh divergence at {shards} shards"
        );
    }
}

/// Sweep aggregates must be bit-identical for any (jobs, shards) pair:
/// parallel workers and spatial shards are orthogonal and neither may
/// leak into results.
#[test]
fn sweep_aggregates_identical_across_jobs_and_shards() {
    let aggregate = |shards: usize, jobs: usize| {
        let seeds = seed_list(42, 4);
        scenario::run_parallel(&seeds, jobs, |&seed| {
            let (f, _) = run(churn, seed, config(shards));
            (
                f.1.frames_delivered,
                f.1.total_losses(),
                f.1.frames_transmitted,
                f.2,
            )
        })
    };
    let reference = aggregate(1, 1);
    for (shards, jobs) in [(4, 1), (1, 4), (4, 4), (8, 2)] {
        assert_eq!(
            reference,
            aggregate(shards, jobs),
            "sweep drift at shards={shards}, jobs={jobs}"
        );
    }
}

/// The tentpole invariance, in two halves. The fork-chain RNG family is
/// inherently sequential (each node's generator is split off a shared
/// root), so threaded commit refuses it at startup; its battery covers
/// every shard count at `threads = 1`. The per-node stream family — the
/// only one the parallel batch commit accepts — gets the full
/// (shards, threads) matrix, including thread counts beyond the host's
/// core count, and must reproduce its own sequential single-threaded
/// run byte for byte.
#[test]
fn wide_runs_identical_for_every_shard_and_thread_count() {
    // Fork family: shard transparency at threads = 1.
    let (fork_ref, fork_events) = run(wide, 11, config_with(1, 1, false));
    assert!(
        fork_ref.1.frames_transmitted > 0 && fork_ref.1.frames_delivered > 0,
        "wide scenario produced no traffic — the test proves nothing"
    );
    for &shards in &SHARD_COUNTS[1..] {
        let (other, events) = run(wide, 11, config_with(shards, 1, false));
        assert_eq!(fork_ref, other, "fork divergence at shards={shards}");
        assert_eq!(fork_events, events, "fork event drift at shards={shards}");
    }
    // Stream family: the full matrix, parallel batch commit included.
    let (reference, ref_events) = run(wide, 11, config_with(1, 1, true));
    assert!(
        reference.1.frames_transmitted > 0 && reference.1.frames_delivered > 0,
        "stream scenario produced no traffic — the test proves nothing"
    );
    for &shards in &SHARD_COUNTS {
        for &threads in &THREAD_COUNTS {
            if (shards, threads) == (1, 1) {
                continue;
            }
            let (other, events) = run(wide, 11, config_with(shards, threads, true));
            assert_eq!(
                reference, other,
                "divergence at shards={shards}, threads={threads}"
            );
            assert_eq!(
                ref_events, events,
                "event count drift at shards={shards}, threads={threads}"
            );
        }
    }
}

/// Thread counts must also be invisible on scenarios *below* the
/// parallel thresholds (the gates themselves must not change
/// behaviour), with and without sharding. Stream family throughout:
/// threaded runs accept nothing else.
#[test]
fn small_runs_identical_for_every_thread_count() {
    for seed in [1u64, 5] {
        let (st_ref, _) = run(churn, seed, config_with(1, 1, true));
        let (mo_ref, _) = run(walk, seed, config_with(1, 1, true));
        for &threads in &THREAD_COUNTS[1..] {
            for shards in [1usize, 4] {
                let (st, _) = run(churn, seed, config_with(shards, threads, true));
                assert_eq!(
                    st_ref, st,
                    "static divergence at seed {seed}, shards={shards}, threads={threads}"
                );
                let (mo, _) = run(walk, seed, config_with(shards, threads, true));
                assert_eq!(
                    mo_ref, mo,
                    "mobile divergence at seed {seed}, shards={shards}, threads={threads}"
                );
            }
        }
    }
}

/// The counter-keyed per-node stream derivation must be exactly as
/// engine-invariant as the fork derivation — and genuinely different
/// from it (otherwise it would not be a new stream family and the
/// pinned fork reference would be redundant).
#[test]
fn rng_stream_runs_identical_across_engines() {
    let (reference, ref_events) = run(wide, 13, config_with(1, 1, true));
    assert!(
        reference.1.frames_transmitted > 0,
        "stream battery produced no traffic"
    );
    for &(shards, threads) in &[(2usize, 1usize), (4, 2), (8, 4)] {
        let (other, events) = run(wide, 13, config_with(shards, threads, true));
        assert_eq!(
            reference, other,
            "stream divergence at shards={shards}, threads={threads}"
        );
        assert_eq!(ref_events, events, "stream event count drift");
    }
    let (forked, _) = run(wide, 13, config_with(1, 1, false));
    assert_ne!(
        reference.0, forked.0,
        "stream derivation must draw differently than fork"
    );
}

/// Long-range frames: SF12 at 125 kHz (Meshtastic's LongSlow) keeps a
/// 120–165-byte frame on the air 7–9 s, longer than the event wheel's
/// ≈ 4.3 s level 0, so every frame's end and its receivers' — one burst
/// on one thread — waits in level 1 and is re-filed before it pops. Node
/// 3 is killed 3 s into its first frame and revived later; one transmits
/// every 9 s after a CAD, so frames overlap and collide too.
fn sim_long_frames(seed: u64, mut cfg: SimConfig) -> Simulator<Chatty> {
    cfg.rf.modulation = LoRaModulation::long_slow();
    let mut s = Simulator::new(cfg, seed);
    for k in 0..8u64 {
        let mut chatty = Chatty::new(4_000 * k + 100, 120 + 6 * k as usize, SALT);
        chatty.interval = Duration::from_secs(9);
        s.add_node(
            chatty,
            Position::new(k as f64 * 250.0, (k % 2) as f64 * 150.0),
        );
    }
    s.schedule_kill(Duration::from_millis(15_100), radio_sim::NodeId(3));
    s.schedule_revive(Duration::from_secs(40), radio_sim::NodeId(3));
    s.run_for(Duration::from_secs(240));
    s
}

/// One thread queues each frame's ends as one burst in one queue; band
/// queues (`threads = 2, 4`) file every end singly in its node's home
/// queue. Across level-1 re-filing and a sender killed mid-frame the two
/// agree byte for byte — trace, metrics, firmware state and
/// `events_processed`.
#[test]
fn long_frames_end_alike_as_bursts_and_as_band_queue_events() {
    let airtime = LoRaModulation::long_slow().time_on_air(120);
    assert!(
        airtime > Duration::from_millis(4_400),
        "{airtime:?} fits level 0"
    );
    for seed in [3u64, 4] {
        let reference = sim_long_frames(seed, config_with(1, 1, true));
        let trace: Vec<_> = reference
            .trace()
            .entries()
            .map(|(_, e)| e.clone())
            .collect();
        let truncated = trace.iter().any(|e| match *e {
            TraceEvent::TxStart { node, frame, .. } => {
                node.0 == 3 && !trace.contains(&TraceEvent::TxEnd { node, frame })
            }
            _ => false,
        });
        assert!(truncated, "seed {seed}: the kill did not cut a frame short");
        assert!(reference.metrics().frames_delivered > 20, "seed {seed}");
        let expected = (fingerprint(&reference), reference.events_processed());
        for (shards, threads) in [(4, 1), (4, 2), (4, 4), (2, 2)] {
            let other = sim_long_frames(seed, config_with(shards, threads, true));
            assert_eq!(
                expected,
                (fingerprint(&other), other.events_processed()),
                "seed {seed}: divergence at shards={shards}, threads={threads}"
            );
        }
    }
}

/// Two things only this pairing of runs can show. **One thread, any
/// shard count, is the sequential engine:** `threads = 1` builds no band
/// queues, so a sharded run pops the same single queue in the same loop
/// and even the bookkeeping the fingerprint has to zero elsewhere —
/// `stale_timers_dropped`, next to `events_processed` — is equal
/// exactly. **The k-way merge and its lookahead drain, on their own:**
/// they run only when band workers exist, where the planner takes every
/// window it can; with `commit_batch_min_events = usize::MAX` it
/// declines them all, so a `threads = 2` run is the pure coordinator
/// merge — which must reproduce the single queue with no parallel batch
/// to hide behind.
#[test]
fn one_thread_is_sequential_and_the_declined_planner_merge_drain_agrees() {
    let scenarios: [(&str, Scenario, u64); 4] = [
        ("static churn", churn, 2),
        ("mobile", walk, 6),
        ("full mesh", dense, 21),
        ("wide", wide, 11),
    ];
    for (name, scenario, seed) in scenarios {
        let reference = sim(scenario, seed, config_with(1, 1, true));
        assert!(
            reference.metrics().frames_transmitted > 0,
            "{name} produced no traffic — the test proves nothing"
        );
        let expected = fingerprint(&reference);
        for &shards in &SHARD_COUNTS[1..] {
            let one = sim(scenario, seed, config_with(shards, 1, true));
            assert_eq!(
                expected,
                fingerprint(&one),
                "{name}: divergence at shards={shards}, threads=1"
            );
            assert_eq!(
                (
                    reference.events_processed(),
                    reference.metrics().stale_timers_dropped
                ),
                (one.events_processed(), one.metrics().stale_timers_dropped),
                "{name}: shards={shards} on one thread is not the sequential loop"
            );
            assert_eq!(one.commit_batches(), 0);

            let declined = sim(
                scenario,
                seed,
                SimConfig {
                    commit_batch_min_events: usize::MAX,
                    ..config_with(shards, 2, true)
                },
            );
            assert_eq!(
                declined.commit_batches(),
                0,
                "{name}: the planner accepted a window at shards={shards}"
            );
            assert_eq!(
                expected,
                fingerprint(&declined),
                "{name}: merge drain diverged at shards={shards}"
            );
            assert_eq!(
                reference.events_processed(),
                declined.events_processed(),
                "{name}: merge drain event count drift at shards={shards}"
            );
        }
    }
}

scenarios::table::golden_tests!(reference_runs_match_golden);
