//! Scenario execution for `meshsim`.

use std::time::Duration;

use lora_phy::modulation::{Bandwidth, CodingRate, LoRaModulation};
use lora_phy::region::Region;
use radio_sim::rng::SimRng;
use radio_sim::sim::SimConfig;
use radio_sim::topology;
use scenario::report::{fmt_ms, fmt_pct, fmt_secs, ExpTable};
use scenario::runner::{NetworkBuilder, ProtocolChoice, Runner, TrafficReport};
use scenario::workload::{self, Target};
use scenario::Summary;

use crate::args::{Cli, Protocol, Topology, Traffic};

/// Random placements drawn before `--topology random` gives up.
const RANDOM_DRAWS: usize = 2000;

/// A scenario that parses but cannot be built, such as a random
/// placement that never comes out connected. `main` prints it as
/// `error: …` and exits with status 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunError(pub String);

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RunError {}

/// Builds, runs and renders the scenario described by `cli`. Returns the
/// report text (printed by `main`, asserted by tests).
///
/// With `--seeds 1` (the default) this is a single narrated run. Beyond
/// that the same scenario is replicated across a spread seed set —
/// sharded over `--jobs` worker threads — and the report becomes a table
/// of mean ± sd / min / max / 95 % CI per metric. The aggregate is
/// identical for every `--jobs` value.
///
/// # Errors
///
/// [`RunError`] when a seed's scenario cannot be built (the first such
/// seed in seed order).
pub fn execute(cli: &Cli) -> Result<String, RunError> {
    if cli.seeds <= 1 {
        return Ok(run_scenario(cli, cli.seed)?.0);
    }
    let seeds = scenario::seed_list(cli.seed, cli.seeds);
    let reports = scenario::run_parallel(&seeds, cli.jobs, |&seed| {
        run_scenario(cli, seed).map(|(_, report)| report)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    // The thread count is deliberately absent: output depends only on
    // the scenario, so any --jobs value prints byte-identical text.
    let mut out = format!(
        "{} nodes, {:?} topology, {:?} protocol — {} seeds (base {})\n\n",
        cli.nodes, cli.topology, cli.protocol, cli.seeds, cli.seed
    );
    let mut table = ExpTable::new(
        "aggregate over seeds",
        &["metric", "mean ± sd", "min", "max", "95% CI"],
    );
    let mut push = |name: &str, unit: &str, values: Vec<f64>| {
        let values: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        if values.is_empty() {
            table.push_row(vec![
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            return;
        }
        let s = Summary::of(&values);
        let f = |v: f64| format!("{v:.2}{unit}");
        table.push_row(vec![
            name.to_string(),
            s.fmt_pm(f),
            f(s.min),
            f(s.max),
            format!("± {}", f(s.ci95_half_width())),
        ]);
    };
    push(
        "datagrams sent",
        "",
        reports.iter().map(|r| r.sent as f64).collect(),
    );
    push(
        "datagrams delivered",
        "",
        reports.iter().map(|r| r.delivered as f64).collect(),
    );
    push(
        "PDR",
        " %",
        reports
            .iter()
            .filter_map(|r| r.pdr().map(|p| p * 100.0))
            .collect(),
    );
    push(
        "mean latency",
        " ms",
        reports
            .iter()
            .filter_map(|r| r.mean_latency().map(|d| d.as_secs_f64() * 1e3))
            .collect(),
    );
    push(
        "frames transmitted",
        "",
        reports
            .iter()
            .map(|r| r.frames_transmitted as f64)
            .collect(),
    );
    push(
        "airtime",
        " s",
        reports
            .iter()
            .map(|r| r.total_airtime.as_secs_f64())
            .collect(),
    );
    push(
        "channel utilisation",
        " %",
        reports
            .iter()
            .map(|r| r.channel_utilisation() * 100.0)
            .collect(),
    );
    push(
        "collision losses",
        "",
        reports.iter().map(|r| r.collisions as f64).collect(),
    );
    out.push_str(&table.to_string());
    Ok(out)
}

/// One simulation run: the narrated report text plus the raw traffic
/// report the multi-seed path aggregates.
fn run_scenario(cli: &Cli, seed: u64) -> Result<(String, TrafficReport), RunError> {
    let mut out = String::new();
    let mut sim = SimConfig::default();
    sim.rf.modulation = LoRaModulation::new(cli.sf, Bandwidth::Khz125, CodingRate::Cr4_7);
    sim.rf.grey_zone = cli.grey_zone;
    sim.shards = cli.shards;
    sim.threads = cli.threads;
    sim.rng_streams = cli.rng_streams;
    let range = topology::radio_range_m(&sim.rf);
    let spacing = range * cli.spacing_frac;

    let positions = match cli.topology {
        Topology::Line => topology::line(cli.nodes, spacing),
        Topology::Grid => {
            let side = (cli.nodes as f64).sqrt().ceil() as usize;
            let mut g = topology::grid(side, side, spacing);
            g.truncate(cli.nodes);
            g
        }
        Topology::Ring => {
            let radius = if cli.nodes > 1 {
                spacing / (2.0 * (std::f64::consts::PI / cli.nodes as f64).sin())
            } else {
                0.0
            };
            topology::ring(cli.nodes, radius)
        }
        Topology::Star => topology::star(cli.nodes, spacing),
        Topology::Random => {
            let side = spacing * (cli.nodes as f64).sqrt() * 0.85;
            let mut rng = SimRng::new(seed);
            topology::connected_random(cli.nodes, side, side, spacing, &mut rng, RANDOM_DRAWS)
                .ok_or_else(|| {
                    RunError(format!(
                        "no connected random placement of {} nodes in {RANDOM_DRAWS} draws",
                        cli.nodes
                    ))
                })?
        }
    };

    out.push_str(&format!(
        "{} nodes, {:?} topology, {} (radio range {:.0} m, spacing {:.0} m)\n",
        cli.nodes, cli.topology, sim.rf.modulation, range, spacing
    ));

    let protocol = match cli.protocol {
        Protocol::Mesh => ProtocolChoice::mesh_fast(),
        Protocol::Flooding => ProtocolChoice::Flooding { ttl: 7 },
        Protocol::Star => ProtocolChoice::Star { gateway: 0 },
    };
    let region = if cli.eu868 {
        Region::Eu868
    } else {
        Region::Unlimited
    };
    let mut roles = vec![0u8; cli.nodes];
    for &g in &cli.gateways {
        roles[g] = loramesher::Role::GATEWAY.bits();
    }
    let mut net = NetworkBuilder::mesh(positions, seed)
        .protocol(protocol)
        .region(region)
        .snr_tiebreak(cli.snr_tiebreak)
        .roles(roles)
        .sim_config(sim)
        .build();

    // Fault schedule.
    for &(node, at) in &cli.kills {
        let id = net.id(node);
        net.sim_mut().schedule_kill(at, id);
    }
    for &(node, at) in &cli.revives {
        let id = net.id(node);
        net.sim_mut().schedule_revive(at, id);
    }

    // Mesh warm-up: converge (bounded by half the duration) before traffic.
    let traffic_start = if matches!(cli.protocol, Protocol::Mesh) {
        let deadline = cli.duration / 2;
        match net.run_until_converged(Duration::from_secs(2), deadline) {
            Some(t) => {
                out.push_str(&format!("mesh converged after {}\n", fmt_secs(t)));
                t + Duration::from_secs(1)
            }
            None => {
                out.push_str("mesh did not fully converge before traffic start\n");
                deadline
            }
        }
    } else {
        Duration::from_secs(5)
    };

    // Traffic.
    match cli.traffic {
        Traffic::None => {}
        Traffic::Pair {
            from,
            to,
            interval_secs,
        } => {
            let interval = Duration::from_secs(interval_secs);
            let count = ((cli.duration.saturating_sub(traffic_start)).as_secs()
                / interval_secs.max(1)) as usize;
            net.apply(&workload::periodic(
                from,
                Target::Node(to),
                16,
                traffic_start,
                interval,
                count,
            ));
        }
        Traffic::AllToOne { interval_secs } => {
            let count = ((cli.duration.saturating_sub(traffic_start)).as_secs()
                / interval_secs.max(1)) as usize;
            net.apply(&workload::all_to_one(
                cli.nodes,
                0,
                16,
                traffic_start,
                Duration::from_secs(interval_secs),
                count.max(1),
            ));
        }
        Traffic::Bulk { from, to, bytes } => {
            net.schedule(workload::bulk(from, to, bytes, traffic_start));
        }
    }

    net.run_until(cli.duration);
    let report = net.report();

    out.push_str(&format!("\nsimulated {}\n", fmt_secs(report.elapsed)));
    if report.sent > 0 {
        out.push_str(&format!(
            "datagrams: {} sent, {} delivered (PDR {}), {} duplicates, {} refused\n",
            report.sent,
            report.delivered,
            report.pdr().map_or("-".into(), fmt_pct),
            report.duplicates,
            report.send_errors,
        ));
        if let Some(mean) = report.mean_latency() {
            out.push_str(&format!(
                "latency: mean {}, p95 {}\n",
                fmt_ms(mean),
                report.latency_percentile(0.95).map_or("-".into(), fmt_ms),
            ));
        }
    }
    if report.reliable_attempted > 0 {
        out.push_str(&format!(
            "reliable transfers: {} attempted, {} completed, {} failed",
            report.reliable_attempted, report.reliable_completed, report.reliable_failed
        ));
        if let Some(d) = report.reliable_latencies.first() {
            out.push_str(&format!(" (first completed in {})", fmt_secs(*d)));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "channel: {} frames, {} airtime ({} utilisation), {} collision losses\n",
        report.frames_transmitted,
        fmt_secs(report.total_airtime),
        fmt_pct(report.channel_utilisation()),
        report.collisions,
    ));
    out.push_str(&format!(
        "scheduler: {} stale timers dropped\n",
        net.phy_metrics().stale_timers_dropped,
    ));

    if !cli.gateways.is_empty() {
        use loramesher::RoleQueries;
        out.push_str("\ngateway discovery:\n");
        for i in 0..net.len() {
            if let Some(mesh) = net.mesh_node(i) {
                match mesh.routing_table().closest_gateway() {
                    Some(gw) => {
                        let metric = mesh.routing_table().route(gw).map_or(0, |r| r.metric);
                        out.push_str(&format!("  node {i}: gateway {gw} at {metric} hop(s)\n"));
                    }
                    None if cli.gateways.contains(&i) => {
                        out.push_str(&format!("  node {i}: is a gateway\n"));
                    }
                    None => out.push_str(&format!("  node {i}: no gateway known\n")),
                }
            }
        }
    }

    if cli.per_node {
        out.push_str("\nper-node statistics:\n");
        out.push_str("  node  addr  frames  fwd  routes  hellos_rx  drops(no-route/ttl)\n");
        for i in 0..net.len() {
            if let Some(mesh) = net.mesh_node(i) {
                let s = mesh.stats();
                out.push_str(&format!(
                    "  {:>4}  {}  {:>6}  {:>3}  {:>6}  {:>9}  {:>4}/{}\n",
                    i,
                    mesh.address(),
                    s.frames_sent,
                    s.forwarded,
                    mesh.routing_table().len(),
                    s.hellos_received,
                    s.no_route_drops,
                    s.ttl_expired,
                ));
            } else {
                out.push_str(&format!("  {:>4}  {}\n", i, Runner::address_of(i)));
            }
        }
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn run(args: &[&str]) -> String {
        execute(&Cli::parse(args.iter().copied()).unwrap()).unwrap()
    }

    #[test]
    fn unconnectable_random_placement_is_an_error() {
        // Mean degree ≈ 4.3 at any size: 300 nodes never come out
        // connected, on the single-run path or the multi-seed one.
        for seeds in ["1", "2"] {
            let cli = Cli::parse(
                ["--topology", "random", "--nodes", "300", "--seeds", seeds]
                    .iter()
                    .copied(),
            )
            .unwrap();
            assert_eq!(
                execute(&cli),
                Err(RunError(
                    "no connected random placement of 300 nodes in 2000 draws".into()
                ))
            );
        }
    }

    #[test]
    fn routing_only_run_reports_convergence() {
        let out = run(&["--topology", "line", "--nodes", "3", "--duration", "300"]);
        assert!(out.contains("mesh converged after"), "{out}");
        assert!(out.contains("frames"), "{out}");
    }

    #[test]
    fn pair_traffic_reports_pdr() {
        let out = run(&[
            "--topology",
            "line",
            "--nodes",
            "3",
            "--traffic",
            "pair:0:2:10",
            "--duration",
            "400",
        ]);
        assert!(out.contains("PDR 100.0 %"), "{out}");
        assert!(out.contains("latency"), "{out}");
    }

    #[test]
    fn bulk_traffic_reports_transfer() {
        let out = run(&[
            "--nodes",
            "2",
            "--traffic",
            "bulk:0:1:2048",
            "--duration",
            "400",
        ]);
        assert!(out.contains("1 completed"), "{out}");
    }

    #[test]
    fn flooding_and_star_protocols_run() {
        let out = run(&[
            "--protocol",
            "flooding",
            "--nodes",
            "4",
            "--traffic",
            "pair:0:3:10",
            "--duration",
            "300",
        ]);
        assert!(out.contains("PDR"), "{out}");
        let out = run(&[
            "--protocol",
            "star",
            "--topology",
            "star",
            "--nodes",
            "4",
            "--traffic",
            "all-to-one:20",
            "--duration",
            "300",
        ]);
        assert!(out.contains("PDR"), "{out}");
    }

    #[test]
    fn kill_schedule_affects_delivery() {
        let out = run(&[
            "--topology",
            "line",
            "--nodes",
            "3",
            "--traffic",
            "pair:0:2:10",
            "--duration",
            "500",
            "--kill",
            "1@250",
        ]);
        // The relay dies mid-run: some datagrams are lost.
        assert!(!out.contains("PDR 100.0 %"), "{out}");
    }

    #[test]
    fn gateway_discovery_section_is_printed() {
        let out = run(&[
            "--topology",
            "line",
            "--nodes",
            "3",
            "--gateway",
            "2",
            "--duration",
            "300",
        ]);
        assert!(out.contains("gateway discovery"), "{out}");
        assert!(out.contains("node 0: gateway 0003 at 2 hop(s)"), "{out}");
        assert!(out.contains("node 2: is a gateway"), "{out}");
    }

    #[test]
    fn snr_tiebreak_flag_parses_and_runs() {
        let out = run(&[
            "--nodes",
            "2",
            "--snr-tiebreak",
            "--traffic",
            "pair:0:1:20",
            "--duration",
            "200",
        ]);
        assert!(out.contains("PDR"), "{out}");
    }

    #[test]
    fn per_node_table_is_printed() {
        let out = run(&["--nodes", "2", "--per-node", "--duration", "120"]);
        assert!(out.contains("per-node statistics"), "{out}");
        assert!(out.contains("0001"), "{out}");
    }

    #[test]
    fn multi_seed_run_prints_aggregate_table() {
        let out = run(&[
            "--topology",
            "line",
            "--nodes",
            "3",
            "--traffic",
            "pair:0:2:10",
            "--duration",
            "300",
            "--seeds",
            "3",
        ]);
        assert!(out.contains("3 seeds (base 42)"), "{out}");
        assert!(out.contains("aggregate over seeds"), "{out}");
        assert!(out.contains("PDR"), "{out}");
        assert!(out.contains("±"), "{out}");
    }

    #[test]
    fn multi_seed_output_is_jobs_invariant() {
        let base = [
            "--topology",
            "line",
            "--nodes",
            "3",
            "--traffic",
            "pair:0:2:10",
            "--duration",
            "300",
            "--seeds",
            "4",
        ];
        let with_jobs = |jobs: &str| {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--jobs", jobs]);
            run(&args)
        };
        assert_eq!(with_jobs("1"), with_jobs("4"));
    }

    #[test]
    fn single_seed_output_is_unchanged_by_seeds_flag() {
        // --seeds 1 must reproduce the legacy narrated single run.
        let args = [
            "--nodes",
            "3",
            "--traffic",
            "pair:0:2:10",
            "--duration",
            "300",
        ];
        let mut with_flag: Vec<&str> = args.to_vec();
        with_flag.extend(["--seeds", "1", "--jobs", "4"]);
        assert_eq!(run(&args), run(&with_flag));
    }

    #[test]
    fn grid_ring_random_topologies_build() {
        for topo in ["grid", "ring", "random"] {
            let out = run(&["--topology", topo, "--nodes", "6", "--duration", "300"]);
            assert!(out.contains("6 nodes"), "{topo}: {out}");
        }
    }
}
