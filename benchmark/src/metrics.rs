//! The metric tables: what the benchmark reports, in which unit, and
//! how far an end-to-end median may worsen before it counts as a
//! regression. `BENCHMARK.json` at the repository root repeats these
//! tables for the driver; a unit test holds the two together.

/// An end-to-end metric. All four are better when lower.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the base median by which the metric may worsen. For
    /// `failed_share`, whose base is 0, the bound is absolute.
    pub bound: f64,
    /// Host-time metrics depend on the machine's load; the others
    /// repeat (nearly) exactly.
    pub timed: bool,
}

pub const SETUP_S: EndToEnd = EndToEnd {
    name: "setup_s",
    unit: "s",
    bound: 0.25,
    timed: true,
};
pub const NS_PER_EVENT: EndToEnd = EndToEnd {
    name: "ns_per_event",
    unit: "ns",
    bound: 0.25,
    timed: true,
};
pub const PEAK_RSS_MIB: EndToEnd = EndToEnd {
    name: "peak_rss_mib",
    unit: "MiB",
    bound: 0.05,
    timed: false,
};
pub const FAILED_SHARE: EndToEnd = EndToEnd {
    name: "failed_share",
    unit: "ratio",
    bound: 0.0,
    timed: false,
};

/// The metrics a child's record yields a value for on every repeat.
pub const REPEATED: [&EndToEnd; 3] = [&SETUP_S, &NS_PER_EVENT, &PEAK_RSS_MIB];

/// Every per-layer metric, layer by layer. A traced contract run
/// prints all of them; one that is not on a workload's path reads 0
/// there (kernels are reported under the workload that owns them).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.speed", "ratio"),
    ("sim.events", "count"),
    ("sim.run_s", "s"),
    ("sim.start_s", "s"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.self_share", "ratio"),
    ("sim.allocs_per_event", "count"),
    ("sim.alloc_bytes_per_event", "B"),
    ("sim.commit_batches", "count"),
    ("sim.events_per_batch", "count"),
    ("sim.threads_speedup", "ratio"),
    ("event.schedule_pop_ns", "ns"),
    ("event.timer_reschedule_pop_ns", "ns"),
    ("event.stale_timers_dropped", "count"),
    ("event.stale_share", "ratio"),
    ("link_cache.rebuilds", "count"),
    ("link_cache.rebuilds_per_event", "ratio"),
    ("link_cache.row_fill_ns", "ns"),
    ("link_cache.row_fill_ns.clustered", "ns"),
    ("link_cache.row_hit_ns", "ns"),
    ("grid.rebuild_ns_per_node", "ns"),
    ("grid.candidates_ns", "ns"),
    ("grid.candidates_per_query", "count"),
    ("grid.candidates_per_query.clustered", "count"),
    ("medium.frames_tx", "count"),
    ("medium.rx_attempts", "count"),
    ("medium.rx_delivered_share", "ratio"),
    ("medium.lost_collision", "count"),
    ("medium.cad_scans", "count"),
    ("medium.cad_busy_share", "ratio"),
    ("medium.airtime_s", "sim_s"),
    ("medium.begin_end_tx_ns", "ns"),
    ("medium.judge_ns", "ns"),
    ("medium.channel_busy_ns", "ns"),
    ("phy.time_on_air_ns", "ns"),
    ("phy.dbm_to_mw_ns", "ns"),
    ("phy.link_budget_ns", "ns"),
    ("proto.self_share", "ratio"),
    ("proto.self_ns_per_event", "ns"),
    ("proto.on_frame.calls", "count"),
    ("proto.on_frame.ns_per_call", "ns"),
    ("proto.on_timer.calls", "count"),
    ("proto.on_timer.ns_per_call", "ns"),
    ("proto.on_cad_done.calls", "count"),
    ("proto.on_cad_done.ns_per_call", "ns"),
    ("proto.on_tx_done.calls", "count"),
    ("proto.on_tx_done.ns_per_call", "ns"),
    ("proto.on_app.calls", "count"),
    ("proto.on_app.ns_per_call", "ns"),
    ("proto.drain.calls", "count"),
    ("proto.drain.ns_per_call", "ns"),
    ("proto.next_wake.calls", "count"),
    ("proto.next_wake.ns_per_call", "ns"),
    ("adapter.calls", "count"),
    ("adapter.self_ns_per_call", "ns"),
    ("adapter.self_share", "ratio"),
    ("codec.encode_hello61_ns", "ns"),
    ("codec.decode_hello61_ns", "ns"),
    ("codec.encode_data24_ns", "ns"),
    ("codec.decode_data24_ns", "ns"),
    ("routing.apply_hello61_ns", "ns"),
    ("routing.next_hop_ns", "ns"),
    ("stack.on_frame_hello61_ns", "ns"),
    ("stack.on_frame_forward_ns", "ns"),
    ("flood.on_frame_new_ns", "ns"),
    ("flood.on_frame_dup_ns", "ns"),
    ("flood.dup_share", "ratio"),
    ("runner.topology_s", "s"),
    ("runner.build_s", "s"),
    ("runner.apply_s", "s"),
    ("runner.report_s", "s"),
    ("app.sent", "count"),
    ("app.delivered", "count"),
    ("app.pdr", "ratio"),
    ("app.latency_p95_ms", "sim_ms"),
    ("sweep.runs", "count"),
    ("sweep.jobs_speedup", "ratio"),
    ("sweep.run_wall_p50_ms", "ms"),
    ("sweep.run_wall_max_ms", "ms"),
    ("trace.span_cost_ns", "ns"),
    ("trace.spans_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The unit of a per-layer metric; `None` for a name not in the table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is the driver's copy of the tables in this
    /// package; the two must not drift apart.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let pairs = |key: &str, a: &str, b: &str| -> Vec<(String, String)> {
            let field = |item: &Json, k: &str| match item.get(k).unwrap() {
                Json::Str(s) => s.clone(),
                other => other.to_string(),
            };
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|item| (field(item, a), field(item, b)))
                .collect()
        };
        let owned = |v: Vec<(&str, String)>| -> Vec<(String, String)> {
            v.into_iter().map(|(a, b)| (a.to_string(), b)).collect()
        };

        let gated = WORKLOADS.iter().filter(|w| w.contract);
        assert_eq!(
            pairs("workloads", "name", "why"),
            owned(gated.map(|w| (w.name, w.why.to_string())).collect())
        );
        assert_eq!(
            pairs("per_layer", "name", "unit"),
            owned(PER_LAYER.iter().map(|(n, u)| (*n, u.to_string())).collect())
        );
        // The contract wants metrics that are never 0, so `failed_share`
        // travels as the result line's `failed` and `attempted` instead.
        let mut ours = owned(
            REPEATED
                .iter()
                .map(|m| (m.name, m.bound.to_string()))
                .collect(),
        );
        ours.sort();
        assert_eq!(pairs("end_to_end", "name", "bound"), ours);
        let mut ours = owned(
            REPEATED
                .iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect(),
        );
        ours.sort();
        assert_eq!(pairs("end_to_end", "name", "unit"), ours);
    }
}
