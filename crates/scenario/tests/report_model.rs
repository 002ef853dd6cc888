//! Model test: `Runner::report`, which keeps a sender's sends as folded
//! runs and computes each send's instant in closed form, equals a
//! reference that keeps every `TrafficEvent` as its own record.
//!
//! Each seed builds a mix of periodic, Poisson, all-to-one, bulk and
//! broadcast traffic, hands it to the runner over several `apply` and
//! `schedule` calls made between runs (some for instants already past),
//! and compares the two reports at several instants, while sends are
//! still due and after. Markers are drawn in call order from 0, so the
//! reference finds a delivery's send as the marker-th event it applied,
//! and reads the deliveries from the nodes' event logs as the report
//! does.

use std::collections::BTreeSet;
use std::time::Duration;

use radio_sim::rng::SimRng;
use radio_sim::topology;
use scenario::adapter::{payload_marker, AppEvent};
use scenario::runner::{NetworkBuilder, ProtocolChoice, Runner, TrafficReport};
use scenario::workload::{self, Target, TrafficEvent};

const NODES: usize = 6;

/// The per-send reference of [`TrafficReport`]'s traffic fields.
#[derive(Debug, PartialEq)]
struct Expected {
    sent: usize,
    delivered: usize,
    duplicates: u64,
    send_errors: u64,
    latencies: Vec<Duration>,
    reliable_attempted: usize,
    reliable_completed: usize,
    reliable_failed: usize,
    reliable_latencies: Vec<Duration>,
}

impl Expected {
    fn of(report: &TrafficReport) -> Self {
        Expected {
            sent: report.sent,
            delivered: report.delivered,
            duplicates: report.duplicates,
            send_errors: report.send_errors,
            latencies: report.latencies.clone(),
            reliable_attempted: report.reliable_attempted,
            reliable_completed: report.reliable_completed,
            reliable_failed: report.reliable_failed,
            reliable_latencies: report.reliable_latencies.clone(),
        }
    }

    /// What `sends`, the events applied in marker order, should report.
    fn reference(net: &Runner, sends: &[TrafficEvent]) -> Self {
        let now = net.now();
        let due = |reliable: bool| {
            let due = sends
                .iter()
                .filter(|e| e.reliable == reliable && e.at <= now);
            due.count()
        };
        let mut expected = Expected {
            sent: due(false),
            delivered: 0,
            duplicates: 0,
            send_errors: 0,
            latencies: Vec::new(),
            reliable_attempted: due(true),
            reliable_completed: 0,
            reliable_failed: 0,
            reliable_latencies: Vec::new(),
        };
        // The send a delivery at node `j` stands for, if `src` made it.
        let send_of = |src, payload: &[u8], j: usize, reliable: bool| {
            let marker = payload_marker(payload)?;
            let e = sends.get(usize::try_from(marker).ok()?)?;
            let reaches = e.to == Target::Broadcast || e.to == Target::Node(j);
            (e.reliable == reliable && Runner::address_of(e.from) == src && reaches)
                .then_some((marker, e.at))
        };
        let mut seen = BTreeSet::new();
        for j in 0..net.len() {
            let fw = net.sim().node(net.id(j));
            expected.send_errors += fw.send_errors;
            for (t, event) in &fw.event_log {
                match event {
                    AppEvent::Received { src, payload, .. } => {
                        let Some((marker, at)) = send_of(*src, payload, j, false) else {
                            continue;
                        };
                        if seen.insert((marker, j)) {
                            expected.latencies.push(t.saturating_sub(at));
                        } else {
                            expected.duplicates += 1;
                        }
                    }
                    AppEvent::ReliableReceived { src, payload } => {
                        if let Some((_, at)) = send_of(*src, payload, j, true) {
                            expected.reliable_completed += 1;
                            expected.reliable_latencies.push(t.saturating_sub(at));
                        }
                    }
                    AppEvent::ReliableFailed { .. } => expected.reliable_failed += 1,
                    AppEvent::ReliableDelivered { .. } => {}
                }
            }
        }
        expected.delivered = seen.len();
        expected
    }
}

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// One batch of traffic from `start` on: a draw of every kind.
fn batch(rng: &mut SimRng, start: Duration) -> Vec<Vec<TrafficEvent>> {
    let node = |rng: &mut SimRng| rng.gen_range_inclusive(0, NODES as u64 - 1) as usize;
    let (a, b) = (node(rng), node(rng));
    let b = if a == b { (b + 1) % NODES } else { b };
    let interval = secs(rng.gen_range_inclusive(5, 40));
    let count = rng.gen_range_inclusive(1, 12) as usize;
    let mut poisson_rng = SimRng::new(rng.next_u64());
    vec![
        workload::periodic(a, Target::Node(b), 16, start, interval, count),
        workload::poisson(
            b,
            Target::Node(a),
            12,
            start,
            secs(20),
            start + secs(200),
            &mut poisson_rng,
        ),
        workload::all_to_one(NODES, node(rng), 16, start + secs(3), secs(60), 3),
        vec![workload::bulk(a, b, 600, start + secs(7))],
        workload::periodic(b, Target::Broadcast, 8, start + secs(11), secs(45), 3),
    ]
}

/// Runs seed `seed`'s traffic mix under `protocol`, comparing as it
/// goes; returns the last report.
fn check(seed: u64, protocol: ProtocolChoice) -> Expected {
    let positions = topology::line(NODES, 90.0);
    let mut net = NetworkBuilder::mesh(positions, seed)
        .protocol(protocol)
        .build();
    let mut rng = SimRng::new(seed);
    let mut sends: Vec<TrafficEvent> = Vec::new();
    let mut reports = 0;
    for round in 0..4u64 {
        let start = net.now() + secs(rng.gen_range_inclusive(0, 30));
        for (k, workload) in batch(&mut rng, start).into_iter().enumerate() {
            // Alternate whole workloads and one-by-one schedules, and
            // hand some over late: their instants have passed.
            if k % 2 == 0 {
                net.apply(&workload);
            } else {
                workload.iter().for_each(|e| net.schedule(*e));
            }
            sends.extend(workload);
        }
        let late = TrafficEvent {
            at: net.now().saturating_sub(secs(5)),
            from: round as usize % NODES,
            to: Target::Node((round as usize + 2) % NODES),
            payload_len: 10,
            reliable: false,
        };
        net.schedule(late);
        sends.push(late);
        for step in [17, 90, 160] {
            net.run_until(start + secs(step));
            let (got, want) = (
                Expected::of(&net.report()),
                Expected::reference(&net, &sends),
            );
            assert_eq!(
                got,
                want,
                "seed {seed}, {protocol:?}, round {round}, at {:?}",
                net.now()
            );
            reports += 1;
        }
    }
    net.run_until(net.now() + secs(600));
    forge_deliveries(&mut net);
    let (got, want) = (
        Expected::of(&net.report()),
        Expected::reference(&net, &sends),
    );
    assert_eq!(got, want, "seed {seed}, {protocol:?}, drained");
    assert!(reports > 0 && got.delivered > 0 && got.duplicates > 0);
    got
}

/// Appends deliveries no network makes to every node's log, copies of
/// the first datagram it received: a second copy, the datagram as if
/// another node had sent it or as if it were a reliable transfer, and
/// the datagram at the next node. The first counts as a duplicate; the
/// others match no send, but a broadcast at the next node.
fn forge_deliveries(net: &mut Runner) {
    let n = net.len();
    let first: Vec<_> = (0..n)
        .map(|j| {
            let log = &net.sim().node(net.id(j)).event_log;
            log.iter().find_map(|(t, event)| match event {
                AppEvent::Received { src, payload, .. } => Some((*t, *src, payload.clone())),
                _ => None,
            })
        })
        .collect();
    for (j, received) in first.into_iter().enumerate() {
        let Some((t, src, payload)) = received else {
            continue;
        };
        let other = Runner::address_of(if src == Runner::address_of(0) { 1 } else { 0 });
        let forged = [
            (j, src, false),
            (j, other, false),
            (j, src, true),
            ((j + 1) % n, src, false),
        ];
        for (at, src, reliable) in forged {
            let payload = payload.clone();
            let event = if reliable {
                AppEvent::ReliableReceived { src, payload }
            } else {
                let broadcast = false;
                AppEvent::Received {
                    src,
                    payload,
                    broadcast,
                }
            };
            let id = net.id(at);
            net.sim_mut()
                .with_node(id, |fw, _| fw.event_log.push((t + secs(1), event)));
        }
    }
}

#[test]
fn report_equals_the_per_send_reference_on_the_mesh() {
    for seed in 1..=3 {
        let report = check(seed, ProtocolChoice::mesh_fast());
        assert!(report.reliable_completed > 0, "seed {seed}");
    }
}

/// Flooding delivers a broadcast at every node and refuses reliable
/// transfers.
#[test]
fn report_equals_the_per_send_reference_under_flooding() {
    for seed in 4..=5 {
        check(seed, ProtocolChoice::Flooding { ttl: 4 });
    }
}
