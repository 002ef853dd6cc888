//! Full-stack integration tests: datagram and reliable traffic through
//! the simulated mesh, including lossy links and failures.

use std::time::Duration;

use loramesher_repro::radio_sim::sim::SimConfig;
use loramesher_repro::radio_sim::topology;
use loramesher_repro::scenario::experiments::default_spacing;
use loramesher_repro::scenario::runner::{NetworkBuilder, ProtocolChoice};
use loramesher_repro::scenario::workload::{self, Target, TrafficEvent};

fn converged_line(n: usize, seed: u64) -> loramesher_repro::scenario::Runner {
    let spacing = default_spacing();
    let mut net = NetworkBuilder::mesh(topology::line(n, spacing), seed).build();
    net.run_until_converged(Duration::from_secs(2), Duration::from_secs(1800))
        .expect("line converges");
    net
}

#[test]
fn clean_links_deliver_everything() {
    let mut net = converged_line(4, 1);
    let start = net.now() + Duration::from_secs(1);
    net.apply(&workload::periodic(
        0,
        Target::Node(3),
        32,
        start,
        Duration::from_secs(10),
        10,
    ));
    net.run_until(start + Duration::from_secs(160));
    let report = net.report();
    assert_eq!(report.pdr(), Some(1.0), "{report:?}");
    assert_eq!(report.duplicates, 0);
    // 3 hops at SF7: ~240 ms end to end.
    let mean = report.mean_latency().unwrap();
    assert!(
        mean > Duration::from_millis(200) && mean < Duration::from_millis(600),
        "{mean:?}"
    );
}

#[test]
fn bidirectional_traffic_coexists() {
    let mut net = converged_line(3, 2);
    let start = net.now() + Duration::from_secs(1);
    let mut events = workload::periodic(0, Target::Node(2), 16, start, Duration::from_secs(7), 8);
    events.extend(workload::periodic(
        2,
        Target::Node(0),
        16,
        start + Duration::from_secs(3),
        Duration::from_secs(7),
        8,
    ));
    net.apply(&events);
    net.run_until(start + Duration::from_secs(120));
    let report = net.report();
    assert_eq!(report.sent, 16);
    assert!(report.delivered >= 14, "lost too much: {report:?}");
}

#[test]
fn lossy_links_degrade_but_do_not_break() {
    let mut sim = SimConfig::default();
    sim.rf.grey_zone = true;
    let spacing = topology::radio_range_m(&sim.rf) * 0.88;
    let mut net = NetworkBuilder::mesh(topology::line(3, spacing), 3)
        .sim_config(sim)
        .build();
    net.run_until_converged(Duration::from_secs(5), Duration::from_secs(1800))
        .expect("lossy line still converges");
    let start = net.now() + Duration::from_secs(1);
    net.apply(&workload::periodic(
        0,
        Target::Node(2),
        16,
        start,
        Duration::from_secs(10),
        30,
    ));
    net.run_until(start + Duration::from_secs(400));
    let report = net.report();
    let pdr = report.pdr().unwrap();
    assert!(
        pdr > 0.3 && pdr < 1.0,
        "expected partial delivery, got {pdr}"
    );
}

#[test]
fn reliable_transfer_survives_lossy_links() {
    let mut sim = SimConfig::default();
    sim.rf.grey_zone = true;
    let spacing = topology::radio_range_m(&sim.rf) * 0.88;
    let mut net = NetworkBuilder::mesh(topology::line(2, spacing), 4)
        .sim_config(sim)
        .build();
    net.run_until_converged(Duration::from_secs(5), Duration::from_secs(1800))
        .expect("pair converges");
    let at = net.now() + Duration::from_secs(1);
    net.schedule(workload::bulk(0, 1, 2048, at));
    net.run_until(at + Duration::from_secs(900));
    let report = net.report();
    assert_eq!(
        report.reliable_completed, 1,
        "transfer should complete despite losses: {report:?}"
    );
    // Losses almost certainly forced retransmissions.
    let stats = net.mesh_node(0).unwrap().stats();
    assert!(stats.reliable_sent == 1);
}

#[test]
fn reliable_transfer_fails_cleanly_when_peer_dies() {
    let mut net = converged_line(2, 5);
    let at = net.now() + Duration::from_secs(1);
    net.schedule(workload::bulk(0, 1, 4096, at));
    // Kill the receiver mid-transfer.
    let rx = net.id(1);
    net.sim_mut().schedule_kill(at + Duration::from_secs(3), rx);
    net.run_until(at + Duration::from_secs(600));
    let report = net.report();
    assert_eq!(report.reliable_completed, 0);
    assert_eq!(report.reliable_failed, 1, "{report:?}");
    let stats = net.mesh_node(0).unwrap().stats();
    assert_eq!(stats.reliable_aborted, 1);
    assert!(stats.reliable_retransmits > 0);
}

#[test]
fn concurrent_reliable_transfers_to_different_destinations() {
    // Star-ish line where node 1 pushes to both ends.
    let mut net = converged_line(3, 6);
    let at = net.now() + Duration::from_secs(1);
    net.schedule(workload::bulk(1, 0, 1000, at));
    net.schedule(workload::bulk(1, 2, 1000, at + Duration::from_secs(1)));
    net.run_until(at + Duration::from_secs(600));
    let report = net.report();
    assert_eq!(report.reliable_completed, 2, "{report:?}");
}

#[test]
fn queue_overflow_surfaces_as_send_errors() {
    let mut net = converged_line(2, 7);
    let start = net.now() + Duration::from_secs(1);
    // Burst far beyond the queue capacity in one instant.
    let events: Vec<TrafficEvent> = (0..120)
        .map(|_| TrafficEvent {
            at: start,
            from: 0,
            to: Target::Node(1),
            payload_len: 200,
            reliable: false,
        })
        .collect();
    net.apply(&events);
    net.run_until(start + Duration::from_secs(600));
    let report = net.report();
    assert!(report.send_errors > 0, "queue should overflow: {report:?}");
    // Whatever was accepted is eventually delivered.
    assert_eq!(
        report.delivered as u64,
        report.sent as u64 - report.send_errors,
        "{report:?}"
    );
}

#[test]
fn broadcast_reaches_only_direct_neighbours() {
    // Broadcasts are single-hop in LoRaMesher (no rebroadcast).
    let mut net = converged_line(4, 8);
    let at = net.now() + Duration::from_secs(1);
    net.schedule(TrafficEvent {
        at,
        from: 1,
        to: Target::Broadcast,
        payload_len: 16,
        reliable: false,
    });
    net.run_until(at + Duration::from_secs(30));
    let report = net.report();
    // Node 1's broadcast is heard by nodes 0 and 2 but not node 3.
    assert_eq!(report.delivered, 2, "{report:?}");
}

#[test]
fn duty_cycle_throttles_but_never_violates() {
    use loramesher_repro::lora_phy::region::Region;
    let spacing = default_spacing();
    let mut net = NetworkBuilder::mesh(topology::line(2, spacing), 9)
        .protocol(ProtocolChoice::Mesh {
            hello_interval: Duration::from_secs(600),
            route_timeout: Duration::from_secs(3600),
        })
        .region(Region::Eu868)
        .build();
    net.run_until_converged(Duration::from_secs(5), Duration::from_secs(1800))
        .expect("pair converges");
    let start = net.now() + Duration::from_secs(1);
    // Offer ~4x the duty budget.
    net.apply(&workload::periodic(
        0,
        Target::Node(1),
        50,
        start,
        Duration::from_secs(2),
        1500,
    ));
    net.run_until(start + Duration::from_secs(3600));
    // The sender's own airtime within the window must respect 1 %.
    let stats = net.mesh_node(0).unwrap().stats();
    let elapsed = net.now().as_secs_f64();
    assert!(
        stats.airtime.as_secs_f64() <= elapsed * 0.0105,
        "airtime {:.1} s over {elapsed:.0} s violates 1 %",
        stats.airtime.as_secs_f64()
    );
    assert!(stats.duty_cycle_deferrals > 0, "{stats:?}");
}

#[test]
fn forwarding_respects_ttl_limit() {
    // A 12-node line exceeds the default TTL of 10: the farthest node is
    // 11 hops away, so end-to-end datagrams die en route.
    let spacing = default_spacing();
    let mut net = NetworkBuilder::mesh(topology::line(12, spacing), 10).build();
    net.run_until_converged(Duration::from_secs(5), Duration::from_secs(3600))
        .expect("line-12 converges");
    let at = net.now() + Duration::from_secs(1);
    net.apply(&workload::periodic(
        0,
        Target::Node(11),
        16,
        at,
        Duration::from_secs(20),
        3,
    ));
    net.run_until(at + Duration::from_secs(200));
    let report = net.report();
    assert_eq!(report.delivered, 0, "TTL should kill 11-hop datagrams");
    let ttl_drops: u64 = (0..12)
        .map(|i| net.mesh_node(i).unwrap().stats().ttl_expired)
        .sum();
    assert!(ttl_drops >= 3, "drops: {ttl_drops}");
}

#[test]
fn reliable_transfer_respects_duty_cycle() {
    use loramesher_repro::lora_phy::region::Region;
    // A 4 KiB transfer needs 17 full-size fragments (~7.2 s of airtime
    // at SF7) from the sender — well over 36 s/h ÷ ... no: within the
    // budget, but with hellos and ACK traffic the sender's airtime must
    // still respect the 1 % window at all times, and the transfer must
    // complete regardless (deferred, not dropped).
    let spacing = default_spacing();
    let mut net = NetworkBuilder::mesh(topology::line(2, spacing), 21)
        .protocol(ProtocolChoice::Mesh {
            hello_interval: Duration::from_secs(600),
            route_timeout: Duration::from_secs(3600),
        })
        .region(Region::Eu868)
        .build();
    net.run_until_converged(Duration::from_secs(5), Duration::from_secs(1800))
        .expect("pair converges");
    let at = net.now() + Duration::from_secs(1);
    net.schedule(workload::bulk(0, 1, 4096, at));
    net.run_until(at + Duration::from_secs(3600));
    let report = net.report();
    assert_eq!(report.reliable_completed, 1, "{report:?}");
    for i in 0..2 {
        let stats = net.mesh_node(i).unwrap().stats();
        let elapsed = net.now().as_secs_f64();
        assert!(
            stats.airtime.as_secs_f64() <= elapsed * 0.0105,
            "node {i} airtime {:.1} s over {elapsed:.0} s violates 1 %",
            stats.airtime.as_secs_f64()
        );
    }
}

#[test]
fn datagram_after_a_reliable_transfer_is_counted() {
    // Markers are drawn from one counter across both kinds, so the
    // datagram's marker is 1 while it is the first datagram record.
    let mut net = converged_line(2, 22);
    let at = net.now() + Duration::from_secs(1);
    net.schedule(workload::bulk(0, 1, 200, at));
    net.schedule(TrafficEvent {
        at: at + Duration::from_secs(60),
        from: 0,
        to: Target::Node(1),
        payload_len: 16,
        reliable: false,
    });
    net.run_until(at + Duration::from_secs(120));
    let report = net.report();
    assert_eq!(report.reliable_completed, 1, "{report:?}");
    assert_eq!(report.sent, 1, "{report:?}");
    assert_eq!(report.delivered, 1, "{report:?}");
    assert_eq!(report.latencies.len(), 1);
}

#[test]
fn equal_reliable_transfers_are_credited_to_their_own_sends() {
    let mut net = converged_line(2, 23);
    let at = net.now() + Duration::from_secs(1);
    let gap = Duration::from_secs(299);
    net.schedule(workload::bulk(0, 1, 1000, at));
    net.schedule(workload::bulk(0, 1, 1000, at + gap));
    net.run_until(at + gap + Duration::from_secs(120));
    let report = net.report();
    assert_eq!(report.reliable_attempted, 2, "{report:?}");
    assert_eq!(report.reliable_completed, 2, "{report:?}");
    // Each transfer takes seconds; crediting the second to the first
    // send would read the 299 s gap on top.
    for latency in &report.reliable_latencies {
        assert!(*latency < Duration::from_secs(60), "{report:?}");
    }
}
