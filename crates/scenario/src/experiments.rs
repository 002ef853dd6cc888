//! The reconstructed LoRaMesher evaluation: experiments E1–E13 and the
//! A1–A4 ablations.
//!
//! Each function reproduces one table or figure from DESIGN.md's
//! per-experiment index and returns a printable [`ExpTable`]. The
//! `quick` option shrinks sweeps to seconds of wall-clock for tests;
//! `exp_all` runs the full versions. [`ALL`] names every experiment.
//!
//! All experiments share the urban RF profile (SF7/125 kHz, log-distance
//! path loss) unless the sweep itself varies it; nodes are spaced
//! relative to the computed radio range so the connectivity graph is
//! meaningful regardless of the propagation profile.

use std::num::NonZeroUsize;
use std::time::Duration;

use lora_phy::modulation::{Bandwidth, CodingRate, LoRaModulation, SpreadingFactor};
use lora_phy::propagation::Position;
use lora_phy::region::Region;

use loramesher::addr::Address;
use loramesher::codec;
use loramesher::packet::{Forwarding, Packet, RouteEntry, SYNC_ACK_INDEX};
use radio_sim::rng::SimRng;
use radio_sim::sim::SimConfig;
use radio_sim::topology;

use crate::report::{fmt_pct, fmt_rate, fmt_secs, ExpTable};
use crate::runner::{NetworkBuilder, ProtocolChoice, Runner};
use crate::workload::{self, Target};

/// Sweep-size options shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExpOptions {
    /// Shrink sweeps for fast runs (tests); full sweeps otherwise.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Replications per sweep cell. 1 = single-sample runs; > 1 turns
    /// every stochastic figure into a mean ± deviation distribution.
    pub seeds: NonZeroUsize,
    /// Worker threads for the sweep engine. Runs are deterministic and
    /// independent, so any value yields identical tables.
    pub jobs: NonZeroUsize,
    /// Restrict the protocol-comparison experiments (E5 and the E13
    /// head-to-head) to a single stack; `None` runs every protocol in
    /// the comparison. Mirrors `meshsim --protocol` so one leg of a
    /// comparison can be regenerated offline without re-running the
    /// others. Experiments that inspect LoRaMesher-specific state
    /// (routing tables, hello counters) ignore this and always run the
    /// mesh stack.
    pub protocol: Option<ProtocolChoice>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            quick: false,
            seed: 42,
            seeds: NonZeroUsize::MIN,
            jobs: NonZeroUsize::MIN,
            protocol: None,
        }
    }
}

impl ExpOptions {
    /// Quick options for tests.
    #[must_use]
    pub fn quick() -> Self {
        ExpOptions {
            quick: true,
            ..ExpOptions::default()
        }
    }

    /// The replication seed set: `seeds` seeds spread from the master
    /// seed (the master seed itself first).
    #[must_use]
    pub fn seed_set(&self) -> Vec<u64> {
        crate::sweep::seed_list(self.seed, self.seeds.get())
    }

    /// Like [`ExpOptions::seed_set`], but an experiment that always
    /// replicates (grey-zone losses need a distribution to mean
    /// anything) supplies its own default count, used unless the user
    /// asked for more than one seed explicitly.
    #[must_use]
    pub fn seed_set_or(&self, default_reps: usize) -> Vec<u64> {
        let count = if self.seeds.get() > 1 {
            self.seeds.get()
        } else {
            default_reps
        };
        crate::sweep::seed_list(self.seed, count)
    }
}

/// Formats an optional summary with `f`, `-` when no seed observed it.
fn fmt_opt(s: Option<&crate::summary::Summary>, f: impl Fn(f64) -> String) -> String {
    s.map_or("-".into(), |s| s.fmt_pm(f))
}

/// Whether `choice` is the stack selected by [`ExpOptions::protocol`]
/// (variant match — the experiment's own timers/TTL presets win over
/// the ones carried by the option).
fn protocol_selected(opt: &ExpOptions, choice: &ProtocolChoice) -> bool {
    opt.protocol
        .is_none_or(|only| core::mem::discriminant(&only) == core::mem::discriminant(choice))
}

/// Seconds formatter matching [`fmt_secs`] on raw `f64` seconds.
fn fmt_secs_f(v: f64) -> String {
    format!("{v:.3} s")
}

/// The default node spacing: 80 % of the radio range under the default
/// RF profile, so adjacent nodes link reliably but skipping a hop fails.
#[must_use]
pub fn default_spacing() -> f64 {
    let cfg = SimConfig::default();
    topology::radio_range_m(&cfg.rf) * 0.8
}

/// Random placements drawn before [`random_placement`] gives up.
pub const RANDOM_DRAWS: usize = 2000;

/// `n` nodes on the smallest square grid that holds them, filled row by
/// row from the origin; `meshsim --topology grid` and E1 place this way.
#[must_use]
pub fn square_grid(n: usize, spacing: f64) -> Vec<Position> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the float cast saturates; n is a node count, so its root is small"
    )]
    let side = (n as f64).sqrt().ceil() as usize;
    let mut g = topology::grid(side, side, spacing);
    g.truncate(n);
    g
}

/// A connected random placement of `n` nodes, the one
/// `meshsim --topology random` and the experiments draw. The square's
/// side grows as `0.85 · spacing · √n`, which keeps the average node
/// degree a little above the `log n` connectivity threshold of random
/// geometric graphs, so resampling finds a connected instance quickly
/// at small sizes. `None` when none of [`RANDOM_DRAWS`] draws is
/// connected.
#[must_use]
pub fn random_placement(n: usize, spacing: f64, seed: u64) -> Option<Vec<Position>> {
    let area = spacing * (n as f64).sqrt() * 0.85;
    let mut rng = SimRng::new(seed);
    topology::connected_random(n, area, area, spacing, &mut rng, RANDOM_DRAWS)
}

/// [`random_placement`] at the experiments' sizes, which always connect.
fn random_positions(n: usize, spacing: f64, seed: u64) -> Vec<Position> {
    random_placement(n, spacing, seed).expect("connected placement within attempt budget")
}

/// A connected random placement that stays connected at *hundreds* of
/// nodes: [`random_positions`]' fixed `0.85` factor holds the average
/// node degree constant (~4.3), which sails past the `log n`
/// connectivity threshold of random geometric graphs somewhere around
/// 50 nodes. Here the square is sized for a target degree of
/// `ln n + 3`, so the E13 scale sweep finds connected instances at
/// every size while the density grows only logarithmically.
fn scaled_positions(n: usize, spacing: f64, seed: u64) -> Vec<Position> {
    let degree = (n as f64).ln() + 3.0;
    let area = spacing * (n as f64 * core::f64::consts::PI / degree).sqrt();
    let mut rng = SimRng::new(seed);
    topology::connected_random(n, area, area, spacing, &mut rng, RANDOM_DRAWS)
        .expect("connected placement within attempt budget")
}

// ----------------------------------------------------------------------
// E1 — routing convergence time vs. network size and topology
// ----------------------------------------------------------------------

/// E1 (Figure A): time until every node has a route to every other node,
/// as a function of network size, for line / grid / random topologies.
/// With `--seeds N` each cell is replicated (random placements and hello
/// jitter differ per seed) and reported as mean ± sd.
#[must_use]
pub fn e1_convergence(opt: &ExpOptions) -> ExpTable {
    let sizes: &[usize] = if opt.quick {
        &[2, 4]
    } else {
        &[2, 4, 8, 12, 16, 20, 24]
    };
    let spacing = default_spacing();
    let mut table = ExpTable::new(
        "E1 — routing convergence time vs. network size (hello = 20 s)",
        &[
            "topology",
            "nodes",
            "diameter(hops)",
            "convergence",
            "hellos sent",
        ],
    );
    let cells: Vec<(usize, &str)> = sizes
        .iter()
        .flat_map(|&n| ["line", "grid", "random"].map(|t| (n, t)))
        .collect();
    let seeds = opt.seed_set();
    let stats = crate::sweep::sweep(&cells, &seeds, opt.jobs.get(), |&(n, topo), seed| {
        let positions = match topo {
            "line" => topology::line(n, spacing),
            "grid" => square_grid(n, spacing),
            _ => random_positions(n, spacing, seed ^ n as u64),
        };
        let diameter = graph_diameter(&positions, spacing * 1.05);
        let mut runner = NetworkBuilder::mesh(positions, seed).build();
        let converged =
            runner.run_until_converged(Duration::from_secs(2), Duration::from_secs(3600));
        let hellos: u64 = (0..runner.len())
            .map(|i| runner.mesh_node(i).unwrap().stats().hellos_sent)
            .sum();
        vec![
            ("diameter", Some(diameter as f64)),
            ("convergence", converged.map(|d| d.as_secs_f64())),
            ("hellos", Some(hellos as f64)),
        ]
    });
    for (&(n, topo), cell) in cells.iter().zip(&stats) {
        let convergence = match cell.get("convergence") {
            None => "timeout".to_string(),
            Some(s) if s.n < seeds.len() => {
                format!(
                    "{} [{}/{} converged]",
                    s.fmt_pm(fmt_secs_f),
                    s.n,
                    seeds.len()
                )
            }
            Some(s) => s.fmt_pm(fmt_secs_f),
        };
        table.push_row(vec![
            topo.to_string(),
            n.to_string(),
            fmt_opt(cell.get("diameter"), |v| format!("{v:.0}")),
            convergence,
            fmt_opt(cell.get("hellos"), |v| format!("{v:.0}")),
        ]);
    }
    table
}

/// Hop diameter of the geometric graph (longest shortest path).
fn graph_diameter(positions: &[Position], range: f64) -> usize {
    let n = positions.len();
    let mut best = 0;
    for s in 0..n {
        let mut dist = vec![usize::MAX; n];
        dist[s] = 0;
        let mut frontier = vec![s];
        while let Some(i) = frontier.pop() {
            for j in 0..n {
                if dist[j] == usize::MAX && positions[i].distance(&positions[j]) <= range {
                    dist[j] = dist[i] + 1;
                    frontier.push(j);
                }
            }
        }
        best = best.max(
            dist.iter()
                .copied()
                .filter(|&d| d != usize::MAX)
                .max()
                .unwrap_or(0),
        );
    }
    best
}

// ----------------------------------------------------------------------
// E2 — routing overhead vs. hello interval
// ----------------------------------------------------------------------

/// E2 (Figure B): airtime consumed by routing broadcasts as a function of
/// the hello interval (3×3 grid, no data traffic).
#[must_use]
pub fn e2_overhead(opt: &ExpOptions) -> ExpTable {
    let intervals: &[u64] = if opt.quick {
        &[30, 120]
    } else {
        &[30, 60, 120, 240, 480]
    };
    let horizon = Duration::from_secs(if opt.quick { 600 } else { 3600 });
    let spacing = default_spacing();
    let mut table = ExpTable::new(
        "E2 — routing overhead vs. hello interval (3×3 grid, no data)",
        &[
            "hello interval",
            "frames",
            "airtime",
            "channel util",
            "convergence",
        ],
    );
    for &secs in intervals {
        let mut runner = NetworkBuilder::mesh(topology::grid(3, 3, spacing), opt.seed)
            .protocol(ProtocolChoice::Mesh {
                hello_interval: Duration::from_secs(secs),
                route_timeout: Duration::from_secs(secs * 6),
            })
            .build();
        let converged = runner.run_until_converged(Duration::from_secs(2), horizon);
        runner.run_until(horizon);
        let m = runner.phy_metrics();
        table.push_row(vec![
            format!("{secs} s"),
            m.frames_transmitted.to_string(),
            fmt_secs(m.total_airtime),
            fmt_pct(m.total_airtime.as_secs_f64() / horizon.as_secs_f64()),
            converged.map_or("timeout".into(), fmt_secs),
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// E3 — multi-hop delivery on a line
// ----------------------------------------------------------------------

/// E3 (Table I): packet delivery ratio over 1–7 hops on a line of
/// marginal links (grey-zone reception enabled), replicated across
/// seeds and reported as mean ± standard deviation.
#[must_use]
pub fn e3_pdr_vs_hops(opt: &ExpOptions) -> ExpTable {
    let max_hops = if opt.quick { 2 } else { 7 };
    let packets = if opt.quick { 6 } else { 30 };
    let seeds = opt.seed_set_or(if opt.quick { 2 } else { 5 });
    let mut table = ExpTable::new(
        "E3 — delivery ratio vs. hop count (line, marginal links; mean ± sd over seeds)",
        &["hops", "sent", "PDR", "mean latency"],
    );
    let cells: Vec<usize> = (1..=max_hops).collect();
    let stats = crate::sweep::sweep(&cells, &seeds, opt.jobs.get(), |&hops, seed| {
        let mut sim = SimConfig::default();
        sim.rf.grey_zone = true;
        // ~88 % of range: a few dB of margin — good but lossy links.
        let spacing = topology::radio_range_m(&sim.rf) * 0.88;
        let n = hops + 1;
        let mut runner = NetworkBuilder::mesh(topology::line(n, spacing), seed)
            .sim_config(sim)
            .build();
        runner.run_until_converged(Duration::from_secs(5), Duration::from_secs(1800));
        let start = runner.now() + Duration::from_secs(5);
        runner.apply(&workload::periodic(
            0,
            Target::Node(n - 1),
            16,
            start,
            Duration::from_secs(10),
            packets,
        ));
        runner.run_until(start + Duration::from_secs(10 * packets as u64 + 60));
        let report = runner.report();
        vec![
            ("sent", Some(report.sent as f64)),
            ("pdr", report.pdr()),
            (
                "lat_ms",
                report.mean_latency().map(|d| d.as_secs_f64() * 1000.0),
            ),
        ]
    });
    for (hops, cell) in cells.iter().zip(&stats) {
        table.push_row(vec![
            hops.to_string(),
            format!("{:.0}", cell.total("sent")),
            fmt_opt(cell.get("pdr"), fmt_pct),
            fmt_opt(cell.get("lat_ms"), |v| format!("{v:.0} ms")),
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// E4 — end-to-end latency vs. hops × spreading factor
// ----------------------------------------------------------------------

/// E4 (Figure C): end-to-end latency across 1–5 hops for SF7 / SF9 /
/// SF12 (clean links; latency is driven by time-on-air and CSMA).
#[must_use]
pub fn e4_latency(opt: &ExpOptions) -> ExpTable {
    let sfs: &[SpreadingFactor] = if opt.quick {
        &[SpreadingFactor::Sf7, SpreadingFactor::Sf12]
    } else {
        &[
            SpreadingFactor::Sf7,
            SpreadingFactor::Sf9,
            SpreadingFactor::Sf12,
        ]
    };
    let hop_counts: &[usize] = if opt.quick { &[1, 3] } else { &[1, 2, 3, 4, 5] };
    let packets = if opt.quick { 5 } else { 20 };
    let mut table = ExpTable::new(
        "E4 — end-to-end latency vs. hops × spreading factor (16-byte payload)",
        &["SF", "hops", "PDR", "mean latency", "p95 latency"],
    );
    for &sf in sfs {
        let mut sim = SimConfig::default();
        sim.rf.modulation = LoRaModulation::new(sf, Bandwidth::Khz125, CodingRate::Cr4_7);
        let spacing = topology::radio_range_m(&sim.rf) * 0.8;
        for &hops in hop_counts {
            let n = hops + 1;
            let mut runner = NetworkBuilder::mesh(topology::line(n, spacing), opt.seed)
                .sim_config(sim.clone())
                .build();
            runner
                .run_until_converged(Duration::from_secs(5), Duration::from_secs(3600))
                .expect("clean links must converge");
            let start = runner.now() + Duration::from_secs(5);
            runner.apply(&workload::periodic(
                0,
                Target::Node(n - 1),
                16,
                start,
                Duration::from_secs(20),
                packets,
            ));
            runner.run_until(start + Duration::from_secs(20 * packets as u64 + 120));
            let report = runner.report();
            table.push_row(vec![
                format!("SF{}", sf.value()),
                hops.to_string(),
                report.pdr().map_or("-".into(), fmt_pct),
                report
                    .mean_latency()
                    .map_or("-".into(), crate::report::fmt_ms),
                report
                    .latency_percentile(0.95)
                    .map_or("-".into(), crate::report::fmt_ms),
            ]);
        }
    }
    table
}

// ----------------------------------------------------------------------
// E5 — LoRaMesher vs. flooding vs. star
// ----------------------------------------------------------------------

/// E5 (Figure D): delivery ratio and airtime cost of the three protocols
/// on the same random topologies with the same all-to-one workload.
/// With `--seeds N`, each (size, protocol) cell is replicated on N
/// placements/schedules and reported as mean ± sd — the per-seed runs
/// are sharded across `--jobs` worker threads.
#[must_use]
pub fn e5_protocol_comparison(opt: &ExpOptions) -> ExpTable {
    let sizes: &[usize] = if opt.quick {
        &[4, 8]
    } else {
        &[4, 8, 12, 16, 20]
    };
    let reports = if opt.quick { 3 } else { 5 };
    let spacing = default_spacing();
    let mut table = ExpTable::new(
        "E5 — protocol comparison (all-to-one reports on random topologies)",
        &[
            "nodes", "protocol", "sent", "PDR", "airtime", "frames", "dupes",
        ],
    );
    let protocols: Vec<(&str, ProtocolChoice)> = [
        ("mesh", ProtocolChoice::mesh_fast()),
        ("flooding", ProtocolChoice::Flooding { ttl: 7 }),
        ("star", ProtocolChoice::Star { gateway: 0 }),
    ]
    .into_iter()
    .filter(|(_, p)| protocol_selected(opt, p))
    .collect();
    let cells: Vec<(usize, &str, ProtocolChoice)> = sizes
        .iter()
        .flat_map(|&n| protocols.iter().map(move |(name, p)| (n, *name, *p)))
        .collect();
    let seeds = opt.seed_set();
    let stats = crate::sweep::sweep(&cells, &seeds, opt.jobs.get(), |(n, _, protocol), seed| {
        let n = *n;
        // All protocols of a (size, seed) cell share the placement, so
        // the comparison is paired per replication.
        let positions = random_positions(n, spacing, seed ^ (n as u64) << 8);
        let mut runner = NetworkBuilder::mesh(positions, seed)
            .protocol(*protocol)
            .build();
        // Identical warm-up for all protocols (mesh uses it to
        // converge; the baselines are simply idle).
        let start = Duration::from_secs(300);
        runner.run_until(start);
        runner.apply(&workload::all_to_one(
            n,
            0,
            16,
            start,
            Duration::from_secs(60),
            reports,
        ));
        runner.run_until(start + Duration::from_secs(60 * reports as u64 + 120));
        let report = runner.report();
        vec![
            ("sent", Some(report.sent as f64)),
            ("pdr", report.pdr()),
            ("airtime", Some(report.total_airtime.as_secs_f64())),
            ("frames", Some(report.frames_transmitted as f64)),
            ("dupes", Some(report.duplicates as f64)),
        ]
    });
    for ((n, name, _), cell) in cells.iter().zip(&stats) {
        table.push_row(vec![
            n.to_string(),
            (*name).to_string(),
            fmt_opt(cell.get("sent"), |v| format!("{v:.0}")),
            fmt_opt(cell.get("pdr"), fmt_pct),
            fmt_opt(cell.get("airtime"), fmt_secs_f),
            fmt_opt(cell.get("frames"), |v| format!("{v:.0}")),
            fmt_opt(cell.get("dupes"), |v| format!("{v:.0}")),
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// E6 — reliable large-payload goodput
// ----------------------------------------------------------------------

/// E6 (Table II): completion time and goodput of the reliable transfer
/// service vs. payload size, over 1 and 2 hops.
#[must_use]
pub fn e6_reliable_goodput(opt: &ExpOptions) -> ExpTable {
    let sizes: &[usize] = if opt.quick {
        &[128, 1024]
    } else {
        &[128, 512, 2048, 8192]
    };
    let hop_cases: &[usize] = if opt.quick { &[1] } else { &[1, 2] };
    let spacing = default_spacing();
    let mut table = ExpTable::new(
        "E6 — reliable transfer: goodput vs. payload size",
        &["hops", "payload", "fragments", "completion", "goodput"],
    );
    for &hops in hop_cases {
        for &size in sizes {
            let n = hops + 1;
            let mut runner = NetworkBuilder::mesh(topology::line(n, spacing), opt.seed).build();
            runner
                .run_until_converged(Duration::from_secs(5), Duration::from_secs(1800))
                .expect("clean links converge");
            let at = runner.now() + Duration::from_secs(1);
            runner.schedule(workload::bulk(0, n - 1, size, at));
            runner.run_until(at + Duration::from_secs(1800));
            let report = runner.report();
            let frags = size.div_ceil(codec::MAX_FRAG_PAYLOAD);
            let (completion, goodput) = match report.reliable_latencies.first() {
                Some(d) => (fmt_secs(*d), fmt_rate(size as f64 / d.as_secs_f64())),
                None => ("failed".into(), "-".into()),
            };
            table.push_row(vec![
                hops.to_string(),
                format!("{size} B"),
                frags.to_string(),
                completion,
                goodput,
            ]);
        }
    }
    table
}

// ----------------------------------------------------------------------
// E7 — route repair after node failure
// ----------------------------------------------------------------------

/// E7 (Figure E): time to repair an end-to-end route after the relay it
/// uses dies, as a function of the hello interval (diamond topology with
/// a redundant relay).
#[must_use]
pub fn e7_route_repair(opt: &ExpOptions) -> ExpTable {
    let intervals: &[u64] = if opt.quick { &[10] } else { &[10, 20, 40] };
    let mut table = ExpTable::new(
        "E7 — route repair time after relay failure (diamond topology)",
        &[
            "hello interval",
            "route timeout",
            "repair time",
            "detour metric",
        ],
    );
    let spacing = default_spacing();
    for &secs in intervals {
        // Diamond: 0 -(1|2)- 3, with 1 and 2 both reaching 0 and 3.
        let d = spacing * 0.9;
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(d * 0.85, d * 0.5),
            Position::new(d * 0.85, -d * 0.5),
            Position::new(d * 1.7, 0.0),
        ];
        let route_timeout = Duration::from_secs(secs * 6);
        let mut runner = NetworkBuilder::mesh(positions, opt.seed)
            .protocol(ProtocolChoice::Mesh {
                hello_interval: Duration::from_secs(secs),
                route_timeout,
            })
            .build();
        runner
            .run_until_converged(Duration::from_secs(2), Duration::from_secs(3600))
            .expect("diamond converges");
        let dst = Runner::address_of(3);
        let relay_in_use = runner
            .mesh_node(0)
            .unwrap()
            .routing_table()
            .next_hop(dst)
            .expect("route exists");
        // Kill the relay node 0 currently routes through.
        let victim = usize::from(relay_in_use.value()) - 1;
        let kill_at = runner.now() + Duration::from_secs(1);
        let victim_id = runner.id(victim);
        runner.sim_mut().schedule_kill(kill_at, victim_id);
        // Sample until the route is re-established through the other relay.
        let mut repaired = None;
        let deadline = kill_at + route_timeout * 3;
        while runner.now() < deadline {
            runner.run_for(Duration::from_secs(1));
            let hop = runner.mesh_node(0).unwrap().routing_table().next_hop(dst);
            if let Some(h) = hop {
                if h != relay_in_use {
                    repaired = Some(runner.now() - kill_at);
                    break;
                }
            }
        }
        let metric = runner
            .mesh_node(0)
            .unwrap()
            .routing_table()
            .route(dst)
            .map_or("-".into(), |r| r.metric.to_string());
        table.push_row(vec![
            format!("{secs} s"),
            fmt_secs(route_timeout),
            repaired.map_or("not repaired".into(), fmt_secs),
            metric,
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// E8 — duty-cycle compliance under load
// ----------------------------------------------------------------------

/// E8 (Table III): offered vs. achieved throughput under the EU868 1 %
/// duty cycle (one sender, one receiver, 50-byte payloads).
#[must_use]
pub fn e8_duty_cycle(opt: &ExpOptions) -> ExpTable {
    let intervals: &[f64] = if opt.quick {
        &[30.0, 1.0]
    } else {
        &[60.0, 30.0, 15.0, 10.0, 5.0, 2.0]
    };
    let horizon = Duration::from_secs(if opt.quick { 1200 } else { 7200 });
    let spacing = default_spacing();
    let mut table = ExpTable::new(
        "E8 — EU868 1 % duty cycle: offered vs. achieved (50-byte frames)",
        &[
            "send interval",
            "offered/hr",
            "delivered/hr",
            "deferrals",
            "dropped",
            "utilisation",
        ],
    );
    for &secs in intervals {
        let mut runner = NetworkBuilder::mesh(topology::line(2, spacing), opt.seed)
            .protocol(ProtocolChoice::Mesh {
                // Long hello interval so data dominates the budget.
                hello_interval: Duration::from_secs(600),
                route_timeout: Duration::from_secs(3600),
            })
            .region(Region::Eu868)
            .build();
        runner
            .run_until_converged(Duration::from_secs(5), Duration::from_secs(1800))
            .expect("pair converges");
        let start = runner.now() + Duration::from_secs(5);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the float cast floors a non-negative packet count and saturates"
        )]
        let count = ((horizon.as_secs_f64() - start.as_secs_f64()) / secs) as usize;
        runner.apply(&workload::periodic(
            0,
            Target::Node(1),
            50,
            start,
            Duration::from_secs_f64(secs),
            count,
        ));
        runner.run_until(horizon);
        let report = runner.report();
        let stats = runner.mesh_node(0).unwrap().stats();
        let hours = (horizon - start).as_secs_f64() / 3600.0;
        table.push_row(vec![
            format!("{secs} s"),
            format!("{:.0}", report.sent as f64 / hours),
            format!("{:.0}", report.delivered as f64 / hours),
            stats.duty_cycle_deferrals.to_string(),
            (report.sent - report.delivered).to_string(),
            fmt_pct(report.channel_utilisation()),
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// E9 — routing state scalability
// ----------------------------------------------------------------------

/// E9 (Figure F): routing-table size (entries and Hello bytes) vs.
/// network size.
#[must_use]
pub fn e9_state_size(opt: &ExpOptions) -> ExpTable {
    let sizes: &[usize] = if opt.quick {
        &[4, 8]
    } else {
        &[4, 8, 16, 32, 48]
    };
    let spacing = default_spacing();
    let mut table = ExpTable::new(
        "E9 — routing state vs. network size",
        &["nodes", "entries/node", "hello payload", "hello airtime"],
    );
    for &n in sizes {
        let positions = random_positions(n, spacing, opt.seed ^ (n as u64) << 16);
        let mut runner = NetworkBuilder::mesh(positions, opt.seed).build();
        runner.run_until_converged(Duration::from_secs(5), Duration::from_secs(3600));
        let entries: usize = (0..n)
            .map(|i| runner.mesh_node(i).unwrap().routing_table().len())
            .sum();
        let mean_entries = entries as f64 / n as f64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the float cast saturates; a mean table size is at most the node count"
        )]
        let hello_len =
            codec::COMMON_HEADER_LEN + 1 + mean_entries.round() as usize * codec::ROUTE_ENTRY_LEN;
        let modulation = LoRaModulation::default();
        table.push_row(vec![
            n.to_string(),
            format!("{mean_entries:.1}"),
            format!("{hello_len} B"),
            crate::report::fmt_ms(modulation.time_on_air(hello_len.min(codec::MAX_FRAME_LEN))),
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// E10 — wire-format overhead
// ----------------------------------------------------------------------

/// E10 (Table IV): encoded size of each packet kind (headers only and
/// with a representative payload).
#[must_use]
pub fn e10_wire_format() -> ExpTable {
    let src = Address::new(0x0001);
    let dst = Address::new(0x0002);
    let fwd = Forwarding { via: dst, ttl: 10 };
    let mut table = ExpTable::new(
        "E10 — wire format: per-kind encoded sizes",
        &["kind", "header overhead", "example", "encoded size"],
    );
    let samples: Vec<(&str, usize, &str, Packet)> = vec![
        (
            "HELLO",
            codec::COMMON_HEADER_LEN + 1,
            "4 routes",
            Packet::Hello {
                src,
                id: 0,
                role: 0,
                entries: (0..4)
                    .map(|i| RouteEntry {
                        address: Address::new(10 + i),
                        metric: 1,
                        role: 0,
                    })
                    .collect(),
            },
        ),
        (
            "DATA",
            codec::DATA_OVERHEAD,
            "16-byte payload",
            Packet::Data {
                dst,
                src,
                id: 0,
                fwd,
                payload: vec![0; 16],
            },
        ),
        (
            "SYNC",
            codec::DATA_OVERHEAD + 7,
            "fixed",
            Packet::Sync {
                dst,
                src,
                id: 0,
                fwd,
                seq: 0,
                frag_count: 8,
                total_len: 1936,
            },
        ),
        (
            "FRAG",
            codec::FRAG_OVERHEAD,
            "242-byte fragment",
            Packet::Frag {
                dst,
                src,
                id: 0,
                fwd,
                seq: 0,
                index: 0,
                data: vec![0; codec::MAX_FRAG_PAYLOAD],
            },
        ),
        (
            "ACK",
            codec::DATA_OVERHEAD + 3,
            "fixed",
            Packet::Ack {
                dst,
                src,
                id: 0,
                fwd,
                seq: 0,
                index: SYNC_ACK_INDEX,
            },
        ),
        (
            "LOST",
            codec::DATA_OVERHEAD + 1,
            "3 missing",
            Packet::Lost {
                dst,
                src,
                id: 0,
                fwd,
                seq: 0,
                missing: vec![1, 2, 3],
            },
        ),
    ];
    for (name, overhead, example, packet) in samples {
        let encoded = codec::encode(&packet).expect("valid sample");
        table.push_row(vec![
            name.to_string(),
            format!("{overhead} B"),
            example.to_string(),
            format!("{} B", encoded.len()),
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// E11 — mobility
// ----------------------------------------------------------------------

/// E11 (extension): a mobile node roaming a static mesh, reporting to a
/// fixed sink. Delivery degrades with speed as routes to the mover go
/// stale between hello rounds; the hello interval bounds how fast a
/// mesh can track a moving node.
#[must_use]
pub fn e11_mobility(opt: &ExpOptions) -> ExpTable {
    use radio_sim::mobility::Mobility;
    let speeds: &[f64] = if opt.quick {
        &[0.0, 10.0]
    } else {
        &[0.0, 1.0, 3.0, 10.0, 20.0]
    };
    let reports = if opt.quick { 10 } else { 40 };
    let spacing = default_spacing();
    let mut table = ExpTable::new(
        "E11 — mobile reporter roaming a 3×3 mesh (hello = 10 s)",
        &["speed", "sent", "delivered", "PDR", "mean latency"],
    );
    let seeds = opt.seed_set();
    let stats = crate::sweep::sweep(speeds, &seeds, opt.jobs.get(), |&speed, seed| {
        // Static 3×3 grid plus one mobile node starting at the centre.
        let mut positions = topology::grid(3, 3, spacing);
        let centre = positions[4];
        positions.push(Position::new(
            centre.x + spacing * 0.3,
            centre.y + spacing * 0.3,
        ));
        let mut mobility = vec![Mobility::Static; 9];
        mobility.push(if speed == 0.0 {
            Mobility::Static
        } else {
            Mobility::RandomWaypoint {
                width_m: spacing * 2.0,
                height_m: spacing * 2.0,
                min_speed: speed,
                max_speed: speed,
                pause: Duration::from_secs(2),
            }
        });
        let mut runner = NetworkBuilder::mesh(positions, seed)
            .protocol(ProtocolChoice::Mesh {
                hello_interval: Duration::from_secs(10),
                route_timeout: Duration::from_secs(60),
            })
            .mobility(mobility)
            .build();
        runner.run_until(Duration::from_secs(120));
        let start = Duration::from_secs(125);
        runner.apply(&workload::periodic(
            9,
            Target::Node(0),
            16,
            start,
            Duration::from_secs(15),
            reports,
        ));
        runner.run_until(start + Duration::from_secs(15 * reports as u64 + 60));
        let report = runner.report();
        vec![
            ("sent", Some(report.sent as f64)),
            ("delivered", Some(report.delivered as f64)),
            ("pdr", report.pdr()),
            (
                "lat_ms",
                report.mean_latency().map(|d| d.as_secs_f64() * 1000.0),
            ),
        ]
    });
    for (&speed, cell) in speeds.iter().zip(&stats) {
        table.push_row(vec![
            format!("{speed} m/s"),
            fmt_opt(cell.get("sent"), |v| format!("{v:.0}")),
            fmt_opt(cell.get("delivered"), |v| format!("{v:.0}")),
            fmt_opt(cell.get("pdr"), fmt_pct),
            fmt_opt(cell.get("lat_ms"), |v| format!("{v:.1} ms")),
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// E12 — airtime fairness
// ----------------------------------------------------------------------

/// Jain's fairness index over a set of non-negative loads: 1.0 = all
/// equal, 1/n = one node carries everything.
#[must_use]
pub fn jain_index(loads: &[f64]) -> f64 {
    let n = loads.len() as f64;
    let sum: f64 = loads.iter().sum();
    let sum_sq: f64 = loads.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (n * sum_sq)
    }
}

/// E12 (extension): who pays for the relaying? Under an all-to-one
/// workload the mesh concentrates airtime on the shortest-path tree's
/// inner nodes, while flooding spreads it across everyone. Jain's
/// fairness index over per-node transmit airtime quantifies the
/// difference — relevant for battery budgeting (the busiest node dies
/// first).
#[must_use]
pub fn e12_fairness(opt: &ExpOptions) -> ExpTable {
    let sizes: &[usize] = if opt.quick { &[8] } else { &[8, 12, 16, 20] };
    let reports = if opt.quick { 3 } else { 6 };
    let spacing = default_spacing();
    let mut table = ExpTable::new(
        "E12 — airtime fairness under all-to-one load (Jain's index; 1.0 = equal)",
        &[
            "nodes",
            "protocol",
            "fairness",
            "max/mean airtime",
            "busiest node",
        ],
    );
    let protocols = [
        ("mesh", ProtocolChoice::mesh_fast()),
        ("flooding", ProtocolChoice::Flooding { ttl: 7 }),
    ];
    let cells: Vec<(usize, &str, ProtocolChoice)> = sizes
        .iter()
        .flat_map(|&n| protocols.iter().map(move |(name, p)| (n, *name, *p)))
        .collect();
    let seeds = opt.seed_set();
    let stats = crate::sweep::sweep(&cells, &seeds, opt.jobs.get(), |(n, _, protocol), seed| {
        let n = *n;
        let positions = random_positions(n, spacing, seed ^ (n as u64) << 40);
        let mut runner = NetworkBuilder::mesh(positions, seed)
            .protocol(*protocol)
            .build();
        let start = Duration::from_secs(300);
        runner.run_until(start);
        // Measure only the traffic phase: snapshot airtime at start.
        let baseline: Vec<f64> = (0..n)
            .map(|i| {
                runner
                    .phy_metrics()
                    .node_counters(runner.id(i))
                    .airtime
                    .as_secs_f64()
            })
            .collect();
        runner.apply(&workload::all_to_one(
            n,
            0,
            16,
            start,
            Duration::from_secs(30),
            reports,
        ));
        runner.run_until(start + Duration::from_secs(30 * reports as u64 + 120));
        let loads: Vec<f64> = (0..n)
            .map(|i| {
                let total = runner
                    .phy_metrics()
                    .node_counters(runner.id(i))
                    .airtime
                    .as_secs_f64();
                (total - baseline[i]).max(0.0)
            })
            .collect();
        let mean = loads.iter().sum::<f64>() / n as f64;
        let (busiest, max) = loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, v)| (i, *v))
            .unwrap_or((0, 0.0));
        vec![
            ("fairness", Some(jain_index(&loads))),
            ("peak", Some(if mean > 0.0 { max / mean } else { 0.0 })),
            ("busiest", Some(busiest as f64)),
        ]
    });
    for ((n, name, _), cell) in cells.iter().zip(&stats) {
        // The busiest node is a discrete identity, not an average: name
        // it when the replications agree, otherwise say so.
        let busiest = match cell.get("busiest") {
            Some(s) if s.min == s.max => format!("node {:.0}", s.min),
            Some(_) => "varies".to_string(),
            None => "-".to_string(),
        };
        table.push_row(vec![
            n.to_string(),
            (*name).to_string(),
            fmt_opt(cell.get("fairness"), |v| format!("{v:.2}")),
            fmt_opt(cell.get("peak"), |v| format!("{v:.1}x")),
            busiest,
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// Ablations — the design choices DESIGN.md calls out
// ----------------------------------------------------------------------

/// A1: listen-before-talk vs. pure ALOHA under *audible* contention —
/// a dense single-hop cluster where every node hears every other, so
/// CAD can actually see the channel. (Hidden-terminal contention, which
/// CAD cannot see, is what A2's capture effect addresses.)
#[must_use]
pub fn a1_csma_ablation(opt: &ExpOptions) -> ExpTable {
    let horizon = Duration::from_secs(if opt.quick { 300 } else { 1200 });
    let mut table = ExpTable::new(
        "A1 — CSMA (CAD + backoff) vs. pure ALOHA (single-hop cluster, Poisson load)",
        &["MAC", "sent", "PDR", "collisions", "rx aborted by tx"],
    );
    for (name, csma) in [("CSMA", true), ("ALOHA", false)] {
        // Hub at the centre, 6 reporters on a tight ring: all audible.
        let mut runner = NetworkBuilder::mesh(topology::star(7, 60.0), opt.seed)
            .protocol(ProtocolChoice::Mesh {
                hello_interval: Duration::from_secs(60),
                route_timeout: Duration::from_secs(360),
            })
            .csma(csma)
            .build();
        let start = Duration::from_secs(30);
        runner.run_until(start);
        // Poisson arrivals, ~10 % offered channel load in aggregate.
        let mut rng = SimRng::new(opt.seed ^ 0xA1);
        let mut events = Vec::new();
        for sender in 1..7usize {
            events.extend(workload::poisson(
                sender,
                Target::Node(0),
                32,
                start,
                Duration::from_secs(5),
                horizon,
                &mut rng,
            ));
        }
        events.sort_by_key(|e| e.at);
        runner.apply(&events);
        runner.run_until(horizon + Duration::from_secs(30));
        let report = runner.report();
        let m = runner.phy_metrics();
        table.push_row(vec![
            name.to_string(),
            report.sent.to_string(),
            report.pdr().map_or("-".into(), fmt_pct),
            report.collisions.to_string(),
            m.rx_aborted_by_tx.to_string(),
        ]);
    }
    table
}

/// A2: the capture effect on vs. off. With capture disabled every
/// overlap destroys both frames; with it, the stronger frame survives —
/// the simulator models the 6 dB same-SF capture threshold measured for
/// SX127x receivers.
#[must_use]
pub fn a2_capture_ablation(opt: &ExpOptions) -> ExpTable {
    let reports = if opt.quick { 4 } else { 12 };
    let spacing = default_spacing();
    let mut table = ExpTable::new(
        "A2 — capture effect on vs. off (3×3 grid, synchronised bursts: hidden-terminal contention)",
        &["capture", "sent", "PDR", "collisions"],
    );
    for (name, threshold) in [("6 dB (SX127x)", 6.0), ("disabled", 1.0e9)] {
        let mut sim = SimConfig::default();
        sim.rf.capture_threshold_db = threshold;
        let mut runner = NetworkBuilder::mesh(topology::grid(3, 3, spacing), opt.seed)
            .sim_config(sim)
            .protocol(ProtocolChoice::Mesh {
                hello_interval: Duration::from_secs(20),
                route_timeout: Duration::from_secs(120),
            })
            .build();
        runner.run_until(Duration::from_secs(200));
        let start = Duration::from_secs(200);
        for round in 0..reports {
            for sender in 1..9usize {
                runner.schedule(crate::workload::TrafficEvent {
                    at: start
                        + Duration::from_secs(20 * round as u64)
                        + Duration::from_millis(sender as u64 * 100),
                    from: sender,
                    to: Target::Node(0),
                    payload_len: 16,
                    reliable: false,
                });
            }
        }
        runner.run_until(start + Duration::from_secs(20 * reports as u64 + 120));
        let report = runner.report();
        table.push_row(vec![
            name.to_string(),
            report.sent.to_string(),
            report.pdr().map_or("-".into(), fmt_pct),
            report.collisions.to_string(),
        ]);
    }
    table
}

/// A3: hello jitter on vs. off. Without jitter, co-booted nodes emit
/// their routing broadcasts on the same schedule and keep colliding;
/// convergence suffers. The ±10 % jitter is cheap and load-bearing.
#[must_use]
pub fn a3_jitter_ablation(opt: &ExpOptions) -> ExpTable {
    let mut table = ExpTable::new(
        "A3 — hello jitter on vs. off (3×3 grid, co-booted)",
        &["jitter", "convergence", "collisions", "hello frames"],
    );
    let spacing = default_spacing();
    for (name, jitter) in [("±10 %", true), ("none", false)] {
        let mut runner = NetworkBuilder::mesh(topology::grid(3, 3, spacing), opt.seed)
            .protocol(ProtocolChoice::Mesh {
                hello_interval: Duration::from_secs(20),
                route_timeout: Duration::from_secs(120),
            })
            .hello_jitter(jitter)
            .build();
        let converged =
            runner.run_until_converged(Duration::from_secs(2), Duration::from_secs(1800));
        let m = runner.phy_metrics();
        table.push_row(vec![
            name.to_string(),
            converged.map_or("timeout".into(), fmt_secs),
            m.lost_collision.to_string(),
            m.frames_transmitted.to_string(),
        ]);
    }
    table
}

/// A4: SNR tie-breaking (the LoRaMesher v2 routing extension) on vs.
/// off. A diamond offers two equal-hop-count relays: one with strong
/// links, one sitting at the edge of radio range (grey-zone reception).
/// Hop-count-only routing picks whichever relay's hello arrived first;
/// the SNR tie-break reliably picks the strong one.
#[must_use]
pub fn a4_snr_tiebreak(opt: &ExpOptions) -> ExpTable {
    let seeds = opt.seed_set_or(if opt.quick { 3 } else { 10 });
    let packets = if opt.quick { 10 } else { 20 };
    let mut table = ExpTable::new(
        "A4 — SNR route tie-break on vs. off (diamond with a strong and a marginal relay)",
        &["policy", "runs via strong relay", "sent", "PDR"],
    );
    let mut sim = SimConfig::default();
    sim.rf.grey_zone = true;
    let range = topology::radio_range_m(&sim.rf);
    // Endpoints 1.2 R apart; relay A at the midpoint (0.6 R links,
    // solid), relay B equidistant at 0.95 R links (grey zone).
    let positions = vec![
        Position::new(0.0, 0.0),                    // 0: source
        Position::new(0.6 * range, 0.0),            // 1: strong relay
        Position::new(0.6 * range, 0.7365 * range), // 2: weak relay
        Position::new(1.2 * range, 0.0),            // 3: sink
    ];
    let cells = [("hop count only", false), ("SNR tie-break", true)];
    let stats = crate::sweep::sweep(&cells, &seeds, opt.jobs.get(), |&(_, tiebreak), seed| {
        let mut runner = NetworkBuilder::mesh(positions.clone(), seed)
            .sim_config(sim.clone())
            .protocol(ProtocolChoice::Mesh {
                hello_interval: Duration::from_secs(15),
                route_timeout: Duration::from_secs(90),
            })
            .snr_tiebreak(tiebreak)
            .build();
        runner.run_until(Duration::from_secs(120));
        let start = Duration::from_secs(121);
        runner.apply(&workload::periodic(
            0,
            Target::Node(3),
            16,
            start,
            Duration::from_secs(10),
            packets,
        ));
        runner.run_until(start + Duration::from_secs(10 * packets as u64 + 60));
        let strong = runner
            .mesh_node(0)
            .and_then(|m| m.routing_table().next_hop(Runner::address_of(3)))
            == Some(Runner::address_of(1));
        let report = runner.report();
        vec![
            ("strong", Some(f64::from(u8::from(strong)))),
            ("sent", Some(report.sent as f64)),
            ("delivered", Some(report.delivered as f64)),
        ]
    });
    for ((name, _), cell) in cells.iter().zip(&stats) {
        let sent = cell.total("sent");
        table.push_row(vec![
            (*name).to_string(),
            format!("{:.0}/{}", cell.total("strong"), seeds.len()),
            format!("{sent:.0}"),
            fmt_pct(cell.total("delivered") / sent.max(1.0)),
        ]);
    }
    table
}

// ----------------------------------------------------------------------
// E13 — stack head-to-head at scale: LoRaMesher vs. managed flooding
// ----------------------------------------------------------------------

/// The stacks E13 compares, in table order.
fn e13_stacks() -> [(&'static str, ProtocolChoice); 2] {
    [
        ("loramesher", ProtocolChoice::mesh_fast()),
        ("flooding", ProtocolChoice::Flooding { ttl: 7 }),
    ]
}

/// E13: the two first-class stacks of the protocol abstraction compared
/// on identical placements, workloads and seeds — PDR, mean latency and
/// airtime cost as the network grows from 64 to 1024 nodes, under the
/// Meshtastic *LongFast* and *LongSlow* modem presets (the SF7 default
/// the rest of the evaluation uses would be unfair to flooding, whose
/// natural habitat is the long-range presets).
///
/// The workload samples eight unicast flows between nodes spread across
/// the placement rather than all-to-one, so the *offered* load is
/// constant per size and the curves isolate how each protocol's
/// overhead scales: routing broadcasts for LoRaMesher, redundant
/// rebroadcasts for flooding. Every (preset, size, seed) cell shares
/// its placement and schedule across both protocols, so the comparison
/// is paired per replication.
#[must_use]
pub fn e13_stack_head_to_head(opt: &ExpOptions) -> ExpTable {
    let sizes: &[usize] = if opt.quick {
        &[8, 16]
    } else {
        &[64, 256, 1024]
    };
    let messages = if opt.quick { 3 } else { 5 };
    let presets = [
        ("LongFast", LoRaModulation::long_fast()),
        ("LongSlow", LoRaModulation::long_slow()),
    ];
    let protocols: Vec<(&str, ProtocolChoice)> = e13_stacks()
        .into_iter()
        .filter(|(_, p)| protocol_selected(opt, p))
        .collect();
    let mut table = ExpTable::new(
        "E13 — stack head-to-head (8 sampled unicast flows on random topologies)",
        &[
            "preset",
            "nodes",
            "protocol",
            "sent",
            "PDR",
            "mean latency",
            "airtime",
            "frames",
        ],
    );
    let cells: Vec<(&str, LoRaModulation, usize, &str, ProtocolChoice)> = presets
        .iter()
        .flat_map(|&(pname, m)| {
            let protocols = &protocols;
            sizes.iter().flat_map(move |&n| {
                protocols
                    .iter()
                    .map(move |&(sname, p)| (pname, m, n, sname, p))
            })
        })
        .collect();
    let seeds = opt.seed_set();
    let stats = crate::sweep::sweep(&cells, &seeds, opt.jobs.get(), |cell, seed| {
        let &(_, modulation, n, _, protocol) = cell;
        let mut sim = SimConfig::default();
        sim.rf.modulation = modulation;
        // Density is normalised to the preset's own radio range, so
        // every cell sees a comparable connectivity graph and the sweep
        // varies only scale and protocol.
        let spacing = topology::radio_range_m(&sim.rf) * 0.8;
        let positions = scaled_positions(n, spacing, seed ^ (n as u64) << 8);
        let mut runner = NetworkBuilder::mesh(positions, seed)
            .sim_config(sim)
            .protocol(protocol)
            .build();
        // Identical warm-up for both stacks: LoRaMesher distributes
        // routes, flooding is purely reactive and idles.
        let warmup = Duration::from_secs(if opt.quick { 300 } else { 600 });
        runner.run_until(warmup);
        // Eight staggered flows; the 60 s interval leaves room for
        // LongSlow's multi-second frames.
        let flows = 8.min(n / 2);
        for f in 0..flows {
            let src = f * n / flows;
            let dst = (src + n / 2) % n;
            runner.apply(&workload::periodic(
                src,
                Target::Node(dst),
                16,
                warmup + Duration::from_secs(7 * f as u64),
                Duration::from_secs(60),
                messages,
            ));
        }
        runner.run_until(warmup + Duration::from_secs(60 * messages as u64 + 240));
        let report = runner.report();
        vec![
            ("sent", Some(report.sent as f64)),
            ("pdr", report.pdr()),
            ("latency", report.mean_latency().map(|d| d.as_secs_f64())),
            ("airtime", Some(report.total_airtime.as_secs_f64())),
            ("frames", Some(report.frames_transmitted as f64)),
        ]
    });
    for ((pname, _, n, sname, _), cell) in cells.iter().zip(&stats) {
        table.push_row(vec![
            (*pname).to_string(),
            n.to_string(),
            (*sname).to_string(),
            fmt_opt(cell.get("sent"), |v| format!("{v:.0}")),
            fmt_opt(cell.get("pdr"), fmt_pct),
            fmt_opt(cell.get("latency"), fmt_secs_f),
            fmt_opt(cell.get("airtime"), fmt_secs_f),
            fmt_opt(cell.get("frames"), |v| format!("{v:.0}")),
        ]);
    }
    table
}

/// One experiment: its options in, its table out.
pub type Experiment = fn(&ExpOptions) -> ExpTable;

/// Every experiment in table order, under the id `exp_all` selects it by
/// (the table title's prefix, in lower case).
pub const ALL: [(&str, Experiment); 17] = [
    ("e1", e1_convergence),
    ("e2", e2_overhead),
    ("e3", e3_pdr_vs_hops),
    ("e4", e4_latency),
    ("e5", e5_protocol_comparison),
    ("e6", e6_reliable_goodput),
    ("e7", e7_route_repair),
    ("e8", e8_duty_cycle),
    ("e9", e9_state_size),
    ("e10", |_| e10_wire_format()),
    ("e11", e11_mobility),
    ("e12", e12_fairness),
    ("e13", e13_stack_head_to_head),
    ("a1", a1_csma_ablation),
    ("a2", a2_capture_ablation),
    ("a3", a3_jitter_ablation),
    ("a4", a4_snr_tiebreak),
];

/// Runs every experiment, returning the tables in order.
#[must_use]
pub fn all(opt: &ExpOptions) -> Vec<ExpTable> {
    ALL.iter().map(|(_, run)| run(opt)).collect()
}

/// Why [`ExpOptions::protocol`] would leave experiment `id`'s table
/// empty, or `None` when it would not. Only E13 compares a subset of
/// the stacks the option names: E5 compares all three, and the other
/// experiments ignore the option.
#[must_use]
pub fn protocol_conflict(id: &str, opt: &ExpOptions) -> Option<String> {
    let [(a, pa), (b, pb)] = e13_stacks();
    (id == "e13" && !protocol_selected(opt, &pa) && !protocol_selected(opt, &pb))
        .then(|| format!("e13 compares only {a} and {b}, so --protocol leaves its table empty"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt() -> ExpOptions {
        ExpOptions::quick()
    }

    #[test]
    fn default_options_are_full() {
        let opt = ExpOptions::default();
        assert!(!opt.quick);
        assert_eq!(opt.seed, 42);
        assert_eq!(opt.seeds.get(), 1);
        assert_eq!(opt.jobs.get(), 1);
        assert_eq!(opt.protocol, None);
    }

    #[test]
    fn e1_produces_rows_for_each_size_and_topology() {
        let t = e1_convergence(&opt());
        assert_eq!(t.rows.len(), 2 * 3);
        // Every quick-size network converges.
        assert!(t.rows.iter().all(|r| r[3] != "timeout"), "{t}");
    }

    #[test]
    fn e2_fewer_hellos_with_longer_interval() {
        let t = e2_overhead(&opt());
        assert_eq!(t.rows.len(), 2);
        let frames: Vec<u64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(
            frames[0] > frames[1],
            "30 s interval must send more than 120 s: {t}"
        );
    }

    #[test]
    fn e3_reports_pdr() {
        let t = e3_pdr_vs_hops(&opt());
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0][2].contains('%'), "{t}");
        assert!(
            t.rows[0][2].contains('±'),
            "replicated runs report a deviation: {t}"
        );
    }

    #[test]
    fn e4_latency_grows_with_sf() {
        let t = e4_latency(&opt());
        assert_eq!(t.rows.len(), 4);
        // SF7 1-hop mean latency < SF12 1-hop mean latency.
        let parse_ms = |s: &str| -> f64 { s.trim_end_matches(" ms").parse().unwrap() };
        let sf7 = parse_ms(&t.rows[0][3]);
        let sf12 = parse_ms(&t.rows[2][3]);
        assert!(
            sf12 > sf7 * 5.0,
            "SF12 ({sf12} ms) should dwarf SF7 ({sf7} ms)\n{t}"
        );
    }

    #[test]
    fn e5_star_loses_to_mesh_on_multihop_topologies() {
        let t = e5_protocol_comparison(&opt());
        assert_eq!(t.rows.len(), 2 * 3);
        let pct = |s: &str| -> f64 { s.trim_end_matches(" %").parse().unwrap() };
        // On the 8-node network the mesh should beat the star (some nodes
        // are beyond gateway range).
        let mesh8 = pct(&t.rows[3][3]);
        let star8 = pct(&t.rows[5][3]);
        assert!(mesh8 > star8, "mesh {mesh8}% vs star {star8}%\n{t}");
    }

    #[test]
    fn e5_protocol_restriction_runs_one_stack() {
        let mut o = opt();
        o.protocol = Some(ProtocolChoice::Star { gateway: 0 });
        let t = e5_protocol_comparison(&o);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r[1] == "star"), "{t}");
    }

    #[test]
    fn e13_covers_presets_sizes_and_both_stacks() {
        let t = e13_stack_head_to_head(&opt());
        assert_eq!(t.rows.len(), 2 * 2 * 2);
        let pct = |s: &str| -> f64 { s.trim_end_matches(" %").parse().unwrap() };
        // Flooding needs no routing warm-up: it delivers on every quick
        // cell, on both presets.
        for row in t.rows.iter().filter(|r| r[2] == "flooding") {
            assert!(pct(&row[4]) > 0.0, "{t}");
        }
    }

    #[test]
    fn e13_protocol_restriction_halves_the_grid() {
        let mut o = opt();
        o.protocol = Some(ProtocolChoice::Flooding { ttl: 7 });
        let t = e13_stack_head_to_head(&o);
        assert_eq!(t.rows.len(), 2 * 2);
        assert!(t.rows.iter().all(|r| r[2] == "flooding"), "{t}");
    }

    #[test]
    fn e6_reports_goodput() {
        let t = e6_reliable_goodput(&opt());
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r[3] != "failed"), "{t}");
    }

    #[test]
    fn e7_repairs_route() {
        let t = e7_route_repair(&opt());
        assert_eq!(t.rows.len(), 1);
        assert_ne!(t.rows[0][2], "not repaired", "{t}");
    }

    #[test]
    fn e8_saturates_under_duty_cycle() {
        let t = e8_duty_cycle(&opt());
        assert_eq!(t.rows.len(), 2);
        let rate = |r: &Vec<String>| -> f64 { r[2].parse().unwrap() };
        let offered = |r: &Vec<String>| -> f64 { r[1].parse().unwrap() };
        // At 30 s the duty cycle keeps up; at 5 s it cannot.
        let slow = &t.rows[0];
        let fast = &t.rows[1];
        assert!(rate(slow) >= offered(slow) * 0.9, "{t}");
        assert!(rate(fast) < offered(fast) * 0.8, "{t}");
    }

    #[test]
    fn e9_state_grows_linearly() {
        let t = e9_state_size(&opt());
        assert_eq!(t.rows.len(), 2);
        let entries = |r: &Vec<String>| -> f64 { r[1].parse().unwrap() };
        assert!((entries(&t.rows[0]) - 3.0).abs() < 0.5, "{t}");
        assert!((entries(&t.rows[1]) - 7.0).abs() < 0.5, "{t}");
    }

    #[test]
    fn e11_mobility_static_beats_fast() {
        let t = e11_mobility(&opt());
        assert_eq!(t.rows.len(), 2);
        let pct = |s: &str| -> f64 { s.trim_end_matches(" %").parse().unwrap() };
        let static_pdr = pct(&t.rows[0][3]);
        let fast_pdr = pct(&t.rows[1][3]);
        assert!(static_pdr >= fast_pdr, "{t}");
        assert!(static_pdr > 80.0, "static node should deliver well: {t}");
    }

    #[test]
    fn a1_csma_beats_aloha_under_contention() {
        let t = a1_csma_ablation(&opt());
        assert_eq!(t.rows.len(), 2);
        let pct = |s: &str| -> f64 { s.trim_end_matches(" %").parse().unwrap() };
        let csma = pct(&t.rows[0][2]);
        let aloha = pct(&t.rows[1][2]);
        assert!(csma >= aloha, "CSMA {csma}% vs ALOHA {aloha}%\n{t}");
        let collisions = |r: &Vec<String>| -> u64 { r[3].parse().unwrap() };
        assert!(collisions(&t.rows[1]) >= collisions(&t.rows[0]), "{t}");
    }

    #[test]
    fn a2_capture_reduces_collision_losses() {
        let t = a2_capture_ablation(&opt());
        assert_eq!(t.rows.len(), 2);
        let collisions = |r: &Vec<String>| -> u64 { r[3].parse().unwrap() };
        assert!(
            collisions(&t.rows[0]) <= collisions(&t.rows[1]),
            "capture should not increase collisions\n{t}"
        );
    }

    #[test]
    fn a3_jitter_helps_co_booted_networks() {
        let t = a3_jitter_ablation(&opt());
        assert_eq!(t.rows.len(), 2);
        assert_ne!(t.rows[0][1], "timeout", "jittered grid must converge\n{t}");
    }

    #[test]
    fn jain_index_properties() {
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        let mid = jain_index(&[3.0, 1.0, 1.0]);
        assert!(mid > 1.0 / 3.0 && mid < 1.0);
    }

    #[test]
    fn e12_flooding_is_fairer_than_mesh() {
        let t = e12_fairness(&opt());
        assert_eq!(t.rows.len(), 2);
        let fairness = |r: &Vec<String>| -> f64 { r[2].parse().unwrap() };
        assert!(
            fairness(&t.rows[1]) >= fairness(&t.rows[0]) - 0.05,
            "flooding should spread load at least as evenly\n{t}"
        );
    }

    #[test]
    fn a4_snr_tiebreak_picks_strong_relay() {
        let t = a4_snr_tiebreak(&opt());
        assert_eq!(t.rows.len(), 2);
        // With the tie-break on, every run should route via the strong
        // relay.
        let picked = &t.rows[1][1];
        let (won, total) = picked.split_once('/').unwrap();
        assert_eq!(won, total, "tie-break row: {t}");
    }

    #[test]
    fn e10_matches_codec_constants() {
        let t = e10_wire_format();
        assert_eq!(t.rows.len(), 6);
        // DATA with 16-byte payload: 10 + 16 = 26 B.
        assert_eq!(t.rows[1][3], "26 B", "{t}");
        // FRAG at max size hits the PHY limit.
        assert_eq!(t.rows[3][3], "255 B", "{t}");
    }
}
