//! Golden-fingerprint tests pinning the behaviour of the protocol stack
//! across the PR 5 layered-stack refactor (`MeshNode` split into
//! `core::stack::{mac, routing, transport, app}`, host traits unified).
//!
//! The refactor has no runtime toggle to diff against, so these tests
//! pin *constants*: each scenario's full
//! observable state — simulator trace, PHY metrics, per-node protocol
//! stats, routing tables, queue/transfer occupancy, app event logs and
//! traffic reports — is serialised to a canonical dump and FNV-1a
//! hashed. The hashes below were captured on the pre-split monolith;
//! the refactored stack must reproduce every one of them bit-for-bit.
//!
//! To regenerate after an *intentional* behaviour change, run:
//!
//! ```text
//! STACK_DIFF_REGEN=1 cargo test --test stack_refactor_diff -- --nocapture
//! ```
//!
//! and paste the printed table, with a review of why the behaviour
//! moved.
//!
//! Regen history:
//!
//! * PR 6 ("mobile" rows 11 and 13): interference sums became
//!   audibility-gated — sub-sensitivity power no longer enters a
//!   receiver's interference total (required for the sharded engine's
//!   range-scoped rosters and scoped link-cache invalidation to be
//!   exact; see DESIGN.md "Sharded engine"). Only mobile scenarios
//!   moved: with shadowing and movement, a handful of marginal-SIR
//!   judgements sat close enough to the capture threshold for the
//!   vanishing sub-floor terms to flip them.

use std::fmt::Write as _;
use std::time::Duration;

use lora_phy::modulation::LoRaModulation;
use lora_phy::region::Region;
use radio_sim::mobility::Mobility;
use radio_sim::{topology, NodeId, SimConfig};
use scenario::workload::{self, Target, TrafficEvent};
use scenario::{seed_list, NetworkBuilder, ProtocolChoice, Runner};
use testkit::fnv1a;

/// Serialises everything observable about a finished run: the wire-level
/// timeline, the PHY metrics, and each node's full protocol-visible
/// state (stats counters, routing table, queue and transfer occupancy,
/// delivered app events, send errors) plus the traffic report.
fn dump(runner: &mut Runner) -> String {
    runner.sim_mut().finish();
    let mut out = String::new();
    for entry in runner.sim().trace().entries() {
        let _ = writeln!(out, "trace {entry:?}");
    }
    let _ = writeln!(out, "metrics {:?}", runner.phy_metrics());
    for i in 0..runner.len() {
        let fw = runner.sim().node(runner.id(i));
        let _ = writeln!(out, "node {i} send_errors {}", fw.send_errors);
        for (t, event) in &fw.event_log {
            let _ = writeln!(out, "node {i} app {t:?} {event:?}");
        }
        if let Some(mesh) = runner.mesh_node(i) {
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
    }
    let report = runner.report();
    let _ = writeln!(
        out,
        "report sent={} delivered={} latencies={:?} frames={} collisions={} \
         reliable_attempted={} reliable_latencies={:?}",
        report.sent,
        report.delivered,
        report.latencies,
        report.frames_transmitted,
        report.collisions,
        report.reliable_attempted,
        report.reliable_latencies,
    );
    out
}

fn traced_config() -> SimConfig {
    SimConfig {
        trace_capacity: 1 << 16,
        ..SimConfig::default()
    }
}

/// Scenario 1 — static line with node churn: multi-hop forwarding,
/// route expiry when the middle relay dies, re-convergence when it
/// returns, plus a fragmented reliable transfer crossing the outage.
fn run_static_churn(seed: u64) -> Runner {
    let spacing = topology::radio_range_m(&SimConfig::default().rf) * 0.8;
    let mut runner = NetworkBuilder::mesh(topology::line(6, spacing), seed)
        .sim_config(traced_config())
        .build();
    runner.apply(&workload::periodic(
        0,
        Target::Node(5),
        12,
        Duration::from_secs(60),
        Duration::from_secs(15),
        12,
    ));
    runner.apply(&workload::periodic(
        5,
        Target::Node(0),
        16,
        Duration::from_secs(75),
        Duration::from_secs(30),
        5,
    ));
    runner.schedule(TrafficEvent {
        at: Duration::from_secs(90),
        from: 1,
        to: Target::Node(4),
        payload_len: 200,
        reliable: true,
    });
    runner
        .sim_mut()
        .schedule_kill(Duration::from_secs(150), NodeId(2));
    runner
        .sim_mut()
        .schedule_revive(Duration::from_secs(260), NodeId(2));
    runner.run_until(Duration::from_secs(420));
    runner
}

/// Scenario 2 — mobility: every node wanders a 500 m square, so routes
/// keep churning and hello adjacency changes through the whole run.
fn run_mobile(seed: u64) -> Runner {
    let spacing = topology::radio_range_m(&SimConfig::default().rf) * 0.6;
    let waypoint = Mobility::RandomWaypoint {
        width_m: 500.0,
        height_m: 500.0,
        min_speed: 5.0,
        max_speed: 15.0,
        pause: Duration::from_secs(10),
    };
    let positions = topology::grid(3, 2, spacing);
    let n = positions.len();
    let mut runner = NetworkBuilder::mesh(positions, seed)
        .sim_config(traced_config())
        .mobility(vec![waypoint; n])
        .build();
    runner.apply(&workload::periodic(
        0,
        Target::Node(5),
        12,
        Duration::from_secs(50),
        Duration::from_secs(25),
        8,
    ));
    runner.apply(&workload::periodic(
        3,
        Target::Broadcast,
        10,
        Duration::from_secs(70),
        Duration::from_secs(40),
        4,
    ));
    runner.run_until(Duration::from_secs(300));
    runner
}

/// Scenario 3 — full mesh: everyone hears everyone, so hello caching,
/// CSMA contention and one-hop routes dominate; includes a reliable
/// transfer and crossing unicast streams.
fn run_full_mesh(seed: u64) -> Runner {
    let spacing = topology::radio_range_m(&SimConfig::default().rf) * 0.2;
    let mut runner = NetworkBuilder::mesh(topology::line(5, spacing), seed)
        .sim_config(traced_config())
        .build();
    runner.apply(&workload::periodic(
        0,
        Target::Node(4),
        12,
        Duration::from_secs(45),
        Duration::from_secs(20),
        8,
    ));
    runner.apply(&workload::periodic(
        2,
        Target::Node(1),
        14,
        Duration::from_secs(55),
        Duration::from_secs(35),
        4,
    ));
    runner.schedule(TrafficEvent {
        at: Duration::from_secs(80),
        from: 4,
        to: Target::Node(0),
        payload_len: 150,
        reliable: true,
    });
    runner.run_until(Duration::from_secs(300));
    runner
}

/// Scenario 4 — the same full-mesh layout on the baseline protocols,
/// pinning the flooding and star reimplementations on the unified
/// host trait. With `csma` off the nodes transmit without a CAD scan
/// (the ALOHA ablation), subject only to the duty cycle.
fn run_baseline(seed: u64, protocol: ProtocolChoice, csma: bool) -> Runner {
    let spacing = topology::radio_range_m(&SimConfig::default().rf) * 0.2;
    let mut runner = NetworkBuilder::mesh(topology::line(4, spacing), seed)
        .protocol(protocol)
        .csma(csma)
        .sim_config(traced_config())
        .build();
    runner.apply(&workload::periodic(
        1,
        Target::Node(0),
        12,
        Duration::from_secs(30),
        Duration::from_secs(20),
        6,
    ));
    runner.apply(&workload::periodic(
        3,
        Target::Broadcast,
        10,
        Duration::from_secs(40),
        Duration::from_secs(45),
        3,
    ));
    runner.run_until(Duration::from_secs(200));
    runner
}

/// Scenario 5 — regulated airtime: a three-node mesh on the slow modem
/// preset under EU868's 1 % duty cycle, loaded past its 36 s hourly
/// budget so the MAC defers frames until the window frees airtime.
fn run_duty_limited(seed: u64) -> Runner {
    let spacing = topology::radio_range_m(&SimConfig::default().rf) * 0.2;
    let mut sim = traced_config();
    sim.rf.modulation = LoRaModulation::long_slow();
    let mut runner = NetworkBuilder::mesh(topology::line(3, spacing), seed)
        .region(Region::Eu868)
        .sim_config(sim)
        .build();
    runner.apply(&workload::periodic(
        0,
        Target::Node(2),
        20,
        Duration::from_secs(60),
        Duration::from_secs(10),
        30,
    ));
    runner.run_until(Duration::from_secs(600));
    runner
}

/// Golden hashes captured on the pre-split `MeshNode` monolith.
///
/// Regen history: the "flooding" row was re-pinned when the
/// mesh-baselines flooder was retired in favour of the first-class
/// `loramesher::flood` stack (SNR/contention-weighted rebroadcast delay
/// and the shared-bus MAC make the traces intentionally different); all
/// mesh/star/sweep rows are the original monolith recordings and must
/// never move. The "aloha-*" and "duty" rows were recorded before the
/// channel-access code of the three stacks became one `Mac`, and pin
/// that fold.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("static", 11, 0x1ac234958047f884),
    ("static", 12, 0x0dfa3239f693301b),
    ("static", 13, 0xb2887df902538bb9),
    ("mobile", 11, 0xb60b03110289d79f),
    ("mobile", 12, 0xf38a48772c227c46),
    ("mobile", 13, 0xf0c57fd85d2d4c7f),
    ("full", 11, 0xa1df7cbd03bd3898),
    ("full", 12, 0x41ac1d1b60bbeb07),
    ("full", 13, 0x68812fdf7845c4ce),
    ("flooding", 11, 0x0035e4932ff05a73),
    ("star", 11, 0xc7fd375da09ac3d3),
    ("sweep", 29, 0x967778a70f116a33),
    ("aloha-mesh", 11, 0xdcd37b4ce85455da),
    ("aloha-flooding", 11, 0xbc4e00e383b200ee),
    ("duty", 11, 0xc91335478acc7fe2),
];

fn check(scenario: &str, seed: u64, actual: u64) {
    if std::env::var_os("STACK_DIFF_REGEN").is_some() {
        println!("    (\"{scenario}\", {seed}, {actual:#018x}),");
        return;
    }
    let expected = GOLDEN
        .iter()
        .find(|(s, n, _)| *s == scenario && *n == seed)
        .map(|(_, _, h)| *h)
        .unwrap_or_else(|| panic!("no golden entry for {scenario}/{seed}"));
    assert_eq!(
        actual, expected,
        "stack behaviour diverged from the pre-split golden fingerprint \
         ({scenario}, seed {seed})"
    );
}

#[test]
fn static_churn_matches_golden() {
    for seed in [11u64, 12, 13] {
        let mut runner = run_static_churn(seed);
        let text = dump(&mut runner);
        // The run must actually exercise the stack, or the hash proves
        // nothing: multi-hop delivery, forwarding and a completed
        // reliable transfer.
        let report = runner.report();
        assert!(report.delivered > 0, "seed {seed}: nothing delivered");
        assert!(
            !report.reliable_latencies.is_empty(),
            "seed {seed}: reliable transfer never completed"
        );
        let forwarded: u64 = (0..runner.len())
            .filter_map(|i| runner.mesh_node(i))
            .map(|m| m.stats().forwarded)
            .sum();
        assert!(forwarded > 0, "seed {seed}: no multi-hop forwarding");
        check("static", seed, fnv1a(text.as_bytes()));
    }
}

#[test]
fn mobile_matches_golden() {
    for seed in [11u64, 12, 13] {
        let mut runner = run_mobile(seed);
        let text = dump(&mut runner);
        assert!(
            runner.phy_metrics().frames_transmitted > 0,
            "seed {seed}: no traffic"
        );
        check("mobile", seed, fnv1a(text.as_bytes()));
    }
}

#[test]
fn full_mesh_matches_golden() {
    for seed in [11u64, 12, 13] {
        let mut runner = run_full_mesh(seed);
        let text = dump(&mut runner);
        let report = runner.report();
        assert!(report.delivered > 0, "seed {seed}: nothing delivered");
        assert!(
            !report.reliable_latencies.is_empty(),
            "seed {seed}: reliable transfer never completed"
        );
        check("full", seed, fnv1a(text.as_bytes()));
    }
}

#[test]
fn baselines_match_golden() {
    let mut flooding = run_baseline(11, ProtocolChoice::Flooding { ttl: 3 }, true);
    let text = dump(&mut flooding);
    assert!(
        flooding.report().delivered > 0,
        "flooding delivered nothing"
    );
    check("flooding", 11, fnv1a(text.as_bytes()));

    let mut star = run_baseline(11, ProtocolChoice::Star { gateway: 0 }, true);
    let text = dump(&mut star);
    assert!(star.report().delivered > 0, "star delivered nothing");
    check("star", 11, fnv1a(text.as_bytes()));
}

/// Total CAD scans the medium performed over a run.
fn cad_scans(runner: &Runner) -> u64 {
    runner
        .phy_metrics()
        .per_node
        .iter()
        .map(|n| n.cad_scans)
        .sum()
}

#[test]
fn aloha_matches_golden() {
    for (name, protocol) in [
        ("aloha-mesh", ProtocolChoice::mesh_fast()),
        ("aloha-flooding", ProtocolChoice::Flooding { ttl: 3 }),
    ] {
        let mut runner = run_baseline(11, protocol, false);
        let text = dump(&mut runner);
        assert!(runner.report().delivered > 0, "{name} delivered nothing");
        assert_eq!(cad_scans(&runner), 0, "{name}: ALOHA must never scan");
        check(name, 11, fnv1a(text.as_bytes()));
    }
}

#[test]
fn duty_limited_matches_golden() {
    let mut runner = run_duty_limited(11);
    let text = dump(&mut runner);
    let deferrals: u64 = (0..runner.len())
        .filter_map(|i| runner.mesh_node(i))
        .map(|m| m.stats().duty_cycle_deferrals)
        .sum();
    assert!(deferrals > 0, "the duty budget never ran out");
    assert!(runner.report().delivered > 0, "nothing delivered");
    check("duty", 11, fnv1a(text.as_bytes()));
}

/// PR 1's parallel sweep on top of scenario 1: per-seed hashes and the
/// aggregate must be identical for any jobs count *and* match the
/// pinned pre-split aggregate.
#[test]
fn sweep_aggregates_match_golden() {
    let aggregate = |jobs: usize| -> Vec<(u64, usize)> {
        let seeds = seed_list(29, 3);
        scenario::run_parallel(&seeds, jobs, |&seed| {
            let mut runner = run_static_churn(seed);
            (
                fnv1a(dump(&mut runner).as_bytes()),
                runner.report().delivered,
            )
        })
    };
    let serial = aggregate(1);
    assert_eq!(
        serial,
        aggregate(3),
        "sweep aggregates depend on jobs count"
    );
    let mut text = String::new();
    for (hash, delivered) in &serial {
        let _ = writeln!(text, "{hash:#018x} {delivered}");
    }
    check("sweep", 29, fnv1a(text.as_bytes()));
}
