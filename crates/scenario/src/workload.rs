//! Traffic generators.
//!
//! A workload is a plain list of [`TrafficEvent`]s — *who sends what to
//! whom, when* — that the [`crate::Runner`] schedules into the simulator.
//! Keeping workloads as data makes every experiment's traffic auditable
//! and replayable.

use std::time::Duration;

use radio_sim::rng::SimRng;

/// Where a traffic event is addressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// A specific node (by index in the runner's node list).
    Node(usize),
    /// The broadcast address.
    Broadcast,
}

/// One application send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficEvent {
    /// When the application submits the payload.
    pub at: Duration,
    /// The sending node (index).
    pub from: usize,
    /// The destination.
    pub to: Target,
    /// Payload size in bytes (≥ 4; the runner embeds a 4-byte marker).
    pub payload_len: usize,
    /// Whether to use the reliable large-payload service.
    pub reliable: bool,
}

/// A periodic unicast stream: `count` datagrams from `from` to `to`,
/// every `interval` starting at `start`.
#[must_use]
pub fn periodic(
    from: usize,
    to: Target,
    payload_len: usize,
    start: Duration,
    interval: Duration,
    count: usize,
) -> Vec<TrafficEvent> {
    (0..count)
        .map(|k| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`Duration` multiplies by `u32`; a workload is far shorter than 2^32 packets"
            )]
            let k = k as u32;
            TrafficEvent {
                at: start + interval * k,
                from,
                to,
                payload_len,
                reliable: false,
            }
        })
        .collect()
}

/// Poisson arrivals with the given mean inter-arrival time, from `start`
/// until `until`.
#[must_use]
pub fn poisson(
    from: usize,
    to: Target,
    payload_len: usize,
    start: Duration,
    mean_interval: Duration,
    until: Duration,
    rng: &mut SimRng,
) -> Vec<TrafficEvent> {
    let mut events = Vec::new();
    let mut t = start;
    loop {
        t += Duration::from_secs_f64(rng.gen_exponential(mean_interval.as_secs_f64()));
        if t >= until {
            break;
        }
        events.push(TrafficEvent {
            at: t,
            from,
            to,
            payload_len,
            reliable: false,
        });
    }
    events
}

/// A sensor-field workload: every node except `sink` periodically reports
/// to `sink`, with start times staggered across one interval so reports
/// do not synchronise.
#[must_use]
pub fn all_to_one(
    n_nodes: usize,
    sink: usize,
    payload_len: usize,
    start: Duration,
    interval: Duration,
    count: usize,
) -> Vec<TrafficEvent> {
    let senders = n_nodes - usize::from(sink < n_nodes);
    let mut events = Vec::with_capacity(senders * count);
    for (k, from) in (0..n_nodes).filter(|&i| i != sink).enumerate() {
        let stagger = interval.mul_f64(k as f64 / senders.max(1) as f64);
        events.extend(periodic(
            from,
            Target::Node(sink),
            payload_len,
            start + stagger,
            interval,
            count,
        ));
    }
    // Equal instants come from distinct senders, pushed in ascending
    // `from` (one sender's sends tie only if identical), so this is the
    // order a stable sort by time gives, without its scratch buffer.
    events.sort_unstable_by_key(|e| (e.at, e.from));
    events
}

/// A single reliable bulk transfer.
#[must_use]
pub fn bulk(from: usize, to: usize, payload_len: usize, at: Duration) -> TrafficEvent {
    TrafficEvent {
        at,
        from,
        to: Target::Node(to),
        payload_len,
        reliable: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_spacing() {
        let ev = periodic(
            0,
            Target::Node(1),
            16,
            Duration::from_secs(10),
            Duration::from_secs(5),
            4,
        );
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].at, Duration::from_secs(10));
        assert_eq!(ev[3].at, Duration::from_secs(25));
        assert!(ev.iter().all(|e| e.from == 0 && !e.reliable));
    }

    #[test]
    fn poisson_mean_is_respected() {
        let mut rng = SimRng::new(3);
        let ev = poisson(
            0,
            Target::Broadcast,
            16,
            Duration::ZERO,
            Duration::from_secs(10),
            Duration::from_secs(10_000),
            &mut rng,
        );
        // ~1000 events expected; allow wide tolerance.
        assert!((800..1200).contains(&ev.len()), "got {}", ev.len());
        assert!(ev.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(ev.iter().all(|e| e.at < Duration::from_secs(10_000)));
    }

    #[test]
    fn all_to_one_excludes_sink_and_staggers() {
        let ev = all_to_one(
            4,
            0,
            16,
            Duration::from_secs(100),
            Duration::from_secs(30),
            2,
        );
        assert_eq!(ev.len(), 6); // 3 senders × 2
        assert!(ev.iter().all(|e| e.from != 0));
        assert!(ev.iter().all(|e| e.to == Target::Node(0)));
        // Staggered: not all first sends at the same instant.
        let first_times: Vec<Duration> = ev.iter().map(|e| e.at).take(3).collect();
        assert_ne!(first_times[0], first_times[1]);
        // Sorted by time.
        assert!(ev.windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// Reference construction: every sender's stream appended, then a
    /// stable sort by time.
    fn all_to_one_by_stable_sort(
        n_nodes: usize,
        sink: usize,
        start: Duration,
        interval: Duration,
        count: usize,
    ) -> Vec<TrafficEvent> {
        let mut events = Vec::new();
        let senders: Vec<usize> = (0..n_nodes).filter(|&i| i != sink).collect();
        for (k, &from) in senders.iter().enumerate() {
            let stagger = interval.mul_f64(k as f64 / senders.len().max(1) as f64);
            let first = start + stagger;
            events.extend(periodic(
                from,
                Target::Node(sink),
                16,
                first,
                interval,
                count,
            ));
        }
        events.sort_by_key(|e| e.at);
        events
    }

    #[test]
    fn all_to_one_matches_a_stable_sort_by_time() {
        let intervals = [0, 1, 7, 1_000, 30_000_000_000].map(Duration::from_nanos);
        for n_nodes in [0, 1, 2, 5, 17, 64] {
            for sink in [0, n_nodes / 2, n_nodes] {
                for interval in intervals {
                    for count in [0, 1, 3, 10] {
                        let start = Duration::from_secs(100);
                        assert_eq!(
                            all_to_one(n_nodes, sink, 16, start, interval, count),
                            all_to_one_by_stable_sort(n_nodes, sink, start, interval, count),
                            "{n_nodes} nodes, sink {sink}, every {interval:?}, {count} each"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_is_reliable() {
        let e = bulk(2, 5, 4096, Duration::from_secs(60));
        assert!(e.reliable);
        assert_eq!(e.to, Target::Node(5));
        assert_eq!(e.payload_len, 4096);
    }
}
