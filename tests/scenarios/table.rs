//! The golden table: every pinned run of the simulator and the three
//! stacks, one row each, and where a run left its pin.
//!
//! A row is `(scenario, seed, engines, guards)`. It runs its scenario
//! (`tests/scenarios/mod.rs`) under every engine configuration it lists,
//! in slices ending at [`CHECKPOINTS`] fixed simulated times. At each
//! checkpoint it keeps one FNV-1a digest per [`SECTIONS`] entry: the
//! trace entries of the window since the last checkpoint, the PHY
//! metrics, every node's state and the report. Every engine of a row
//! must reproduce the digests pinned in `tests/goldens.txt`, and every
//! guard must hold, or the pin proves nothing. A mismatch names the row,
//! the engine, the first checkpoint and section that differ, and prints
//! that window's trace.
//!
//! Rows are grouped under the test that checks them, `<suite>::<test>`:
//! each suite (`engine_diff`, `shard_diff`, `stack_refactor_diff`,
//! `protocol_refactor_diff`, `collection_swap_diff`) is named for the
//! change its pins once proved transparent, and declares its tests with
//! [`golden_tests!`]. `tests/goldens.rs` checks that every row has its
//! pins and its test, and holds the one re-pin command.
//!
//! The pins were recorded on the tree where the suites' former
//! hand-written digests — the layered-stack, collection-swap,
//! protocol-refactor, tombstone-timer, link-cache and shard reference
//! goldens — all passed, so they carry those proofs forward.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use radio_sim::time::SimTime;
use radio_sim::trace::TraceEvent;
use radio_sim::{SimConfig, Simulator};
use scenario::{run_parallel, seed_list, ProtocolChoice, Runner};
use testkit::fnv1a;

use super::{grey_config, traced_config, Chatty, Facts, Net, Script};

/// Checkpoints per run, at equal fractions of the scenario's length.
pub const CHECKPOINTS: u32 = 4;

/// What each checkpoint keeps a digest of, in the order they are
/// compared.
const SECTIONS: [&str; 4] = ["trace", "phy", "nodes", "report"];

/// An engine configuration a row must hold under.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    shards: usize,
    threads: usize,
    pub rng_streams: bool,
    /// Worker threads running a sweep row's seeds.
    jobs: usize,
}

const fn engine(shards: usize, threads: usize, rng_streams: bool, jobs: usize) -> Engine {
    Engine {
        shards,
        threads,
        rng_streams,
        jobs,
    }
}

const SEQUENTIAL: &[Engine] = &[engine(1, 1, false, 1)];
/// The fork-chain RNG family is sequential by construction: shards only.
const FORK: &[Engine] = &[engine(1, 1, false, 1), engine(4, 1, false, 1)];
/// The per-node stream family: shards × threads.
const STREAMS: &[Engine] = &[
    engine(1, 1, true, 1),
    engine(1, 2, true, 1),
    engine(4, 1, true, 1),
    engine(4, 2, true, 1),
];
const ONE_STREAM: &[Engine] = &[engine(1, 1, true, 1)];
const SWEEP: &[Engine] = &[engine(1, 1, false, 1), engine(1, 1, false, 3)];
const SWEEP_STREAMS: &[Engine] = &[engine(4, 2, true, 1), engine(4, 2, true, 2)];

type ChattyScript = fn(u64, SimConfig, u64) -> Script<Simulator<Chatty>>;
type NetworkScript = fn(u64, SimConfig) -> Script<Runner>;

/// What a row runs.
#[derive(Clone, Copy)]
pub enum Scenario {
    /// An engine-level scenario and its [`Chatty`] RNG salt.
    Chatty(&'static str, ChattyScript, u64),
    /// A `Runner`-level scenario, on the grey-zone RF profile or not.
    Network(&'static str, NetworkScript, bool),
}

impl Scenario {
    fn name(self) -> String {
        match self {
            Scenario::Chatty(name, _, salt) => format!("{name}-{salt:x}"),
            Scenario::Network(name, ..) => name.to_string(),
        }
    }

    /// Runs the scenario at `seed` under `engine`, in `slices` slices.
    pub fn record(self, seed: u64, engine: Engine, slices: u32) -> Run {
        let config = |base: SimConfig| SimConfig {
            shards: engine.shards,
            threads: engine.threads,
            rng_streams: engine.rng_streams,
            ..base
        };
        match self {
            Scenario::Chatty(_, script, salt) => {
                record(script(seed, config(grey_config()), salt), slices)
            }
            Scenario::Network(_, script, grey) => {
                let base = if grey { grey_config() } else { traced_config() };
                record(script(seed, config(base)), slices)
            }
        }
    }
}

/// What a row's run must show for its pin to mean anything.
#[derive(Clone, Copy, Debug)]
pub enum Guard {
    Transmits,
    Delivers,
    CompletesReliable,
    Forwards,
    NeverScans,
    Defers,
    DropsStale,
}

impl Guard {
    fn holds(self, f: &Facts) -> bool {
        match self {
            Guard::Transmits => f.transmitted > 0,
            Guard::Delivers => f.delivered > 0,
            Guard::CompletesReliable => f.reliable_completed > 0,
            Guard::Forwards => f.forwarded > 0,
            Guard::NeverScans => f.cad_scans == 0,
            Guard::Defers => f.duty_deferrals > 0,
            Guard::DropsStale => f.stale_dropped > 0,
        }
    }
}

#[derive(Clone)]
pub struct Row {
    /// The test that checks the row, `<suite>::<test>`.
    pub test: &'static str,
    pub scenario: Scenario,
    pub seed: u64,
    /// How many seeds of `seed_list(seed, …)` the row runs; more than
    /// one makes it a sweep, run `jobs` at a time.
    pub seeds: usize,
    pub engines: &'static [Engine],
    guards: &'static [Guard],
}

impl Row {
    /// The row's name in `tests/goldens.txt` and in failures.
    pub fn label(&self) -> String {
        let family = if self.engines[0].rng_streams {
            "/streams"
        } else {
            ""
        };
        let sweep = if self.seeds > 1 {
            format!("x{}", self.seeds)
        } else {
            String::new()
        };
        format!("{}{family}:{}{sweep}", self.scenario.name(), self.seed)
    }
}

/// Every row, grouped under the test that checks it.
pub fn rows() -> Vec<Row> {
    use super as s;
    use Guard::*;
    use ProtocolChoice::{Flooding, Star};
    let row = |scenario, seed, engines, guards| Row {
        test: "",
        scenario,
        seed,
        seeds: 1,
        engines,
        guards,
    };
    let sweep = |scenario, seed, engines| Row {
        seeds: 3,
        ..row(scenario, seed, engines, &[Delivers])
    };
    let churn = |salt| Scenario::Chatty("churn", s::churn, salt);
    let walk = |salt| Scenario::Chatty("walk", s::walk, salt);
    let dense = Scenario::Chatty("dense", s::dense, 0x54A8);
    let wide = Scenario::Chatty("wide", s::wide, 0x54A8);
    let network = |name, script: NetworkScript, grey| Scenario::Network(name, script, grey);
    let line_churn = network("line-churn", s::line_churn, false);
    let waypoint = network("waypoint", s::waypoint, false);
    let full_line = network("full-line", s::full_line, false);
    let flooding = network(
        "shared-line-flooding",
        |seed, cfg| s::shared_line(seed, cfg, Flooding { ttl: 3 }, true),
        false,
    );
    let star = network(
        "shared-line-star",
        |seed, cfg| s::shared_line(seed, cfg, Star { gateway: 0 }, true),
        false,
    );
    let mesh_aloha = network(
        "shared-line-mesh-aloha",
        |seed, cfg| s::shared_line(seed, cfg, ProtocolChoice::mesh_fast(), false),
        false,
    );
    let flooding_aloha = network(
        "shared-line-flooding-aloha",
        |seed, cfg| s::shared_line(seed, cfg, Flooding { ttl: 3 }, false),
        false,
    );
    let duty = network("duty", s::duty, false);
    let grid_churn = network("grid-churn", s::grid_churn, true);
    let grid_flood = network("grid-flood", s::grid_flood, true);
    let late_traffic = network("late-traffic", s::late_traffic, true);
    let flood_line = network("flood-line", s::flood_line, true);
    let timers: &[Guard] = &[Transmits, Delivers, DropsStale];
    let mesh_run: &[Guard] = &[Delivers, CompletesReliable, Forwards];
    let at = |scenario, seeds: &[u64], engines, guards| -> Vec<Row> {
        seeds
            .iter()
            .map(|&seed| row(scenario, seed, engines, guards))
            .collect()
    };
    let groups = [
        // Engine level: the tombstone-timer pins, which the link-cache
        // suite pinned too ...
        (
            "engine_diff::static_runs_identical_across_seeds",
            at(churn(0xC4A7), &[1, 2, 3, 999], SEQUENTIAL, timers),
        ),
        (
            "engine_diff::mobile_runs_identical_across_seeds",
            at(walk(0xC4A7), &[5, 6, 7], SEQUENTIAL, timers),
        ),
        // ... and the shard reference pins.
        (
            "shard_diff::reference_runs_match_golden",
            [
                at(churn(0x54A8), &[1, 2, 3, 999], SEQUENTIAL, timers),
                at(walk(0x54A8), &[5, 6, 7], SEQUENTIAL, timers),
                at(dense, &[21, 22], SEQUENTIAL, timers),
                at(wide, &[11], SEQUENTIAL, timers),
                at(wide, &[11], ONE_STREAM, timers),
            ]
            .concat(),
        ),
        // The layered-stack pins.
        (
            "stack_refactor_diff::static_churn_matches_golden",
            at(line_churn, &[11, 12, 13], SEQUENTIAL, mesh_run),
        ),
        (
            "stack_refactor_diff::sweep_aggregates_match_golden",
            vec![sweep(line_churn, 29, SWEEP)],
        ),
        (
            "stack_refactor_diff::mobile_matches_golden",
            at(waypoint, &[11, 12, 13], SEQUENTIAL, &[Transmits]),
        ),
        (
            "stack_refactor_diff::full_mesh_matches_golden",
            at(
                full_line,
                &[11, 12, 13],
                SEQUENTIAL,
                &[Delivers, CompletesReliable],
            ),
        ),
        (
            "stack_refactor_diff::baselines_match_golden",
            [flooding, star]
                .map(|s| row(s, 11, SEQUENTIAL, &[Delivers]))
                .into(),
        ),
        (
            "stack_refactor_diff::aloha_matches_golden",
            [mesh_aloha, flooding_aloha]
                .map(|s| row(s, 11, SEQUENTIAL, &[Delivers, NeverScans]))
                .into(),
        ),
        (
            "stack_refactor_diff::duty_limited_matches_golden",
            vec![row(duty, 11, SEQUENTIAL, &[Delivers, Defers])],
        ),
        // The protocol-refactor pins, across the engine matrix.
        (
            "protocol_refactor_diff::mesh_fork_family_matches_golden",
            at(
                grid_churn,
                &[21, 22, 23],
                FORK,
                &[Delivers, CompletesReliable],
            ),
        ),
        (
            "protocol_refactor_diff::mesh_stream_family_matches_golden",
            at(grid_churn, &[21, 22, 23], STREAMS, &[Delivers]),
        ),
        (
            "protocol_refactor_diff::sweep_aggregates_match_golden",
            vec![sweep(grid_churn, 41, SWEEP_STREAMS)],
        ),
        (
            "protocol_refactor_diff::flood_fork_family_matches_golden",
            at(grid_flood, &[21, 22], FORK, &[Delivers]),
        ),
        (
            "protocol_refactor_diff::flood_stream_family_matches_golden",
            at(grid_flood, &[21, 22], STREAMS, &[Delivers]),
        ),
        // The collection-swap pins.
        (
            "collection_swap_diff::mesh_traces_unchanged_by_collection_swap",
            at(late_traffic, &[11, 31], SEQUENTIAL, &[Delivers]),
        ),
        (
            "collection_swap_diff::flooding_traces_unchanged_by_collection_swap",
            at(flood_line, &[11, 31], SEQUENTIAL, &[Delivers]),
        ),
    ];
    groups
        .into_iter()
        .flat_map(|(test, rows)| rows.into_iter().map(move |r| Row { test, ..r }))
        .collect()
}

/// One checkpoint of a run.
pub struct Checkpoint {
    at: Duration,
    pub digests: [u64; 4],
    /// The trace entries since the previous checkpoint.
    pub window: Vec<(SimTime, TraceEvent)>,
}

/// A recorded run: its checkpoints and what its guards check.
pub struct Run {
    pub checkpoints: Vec<Checkpoint>,
    facts: Facts,
}

/// Runs `script` in `slices` equal slices, keeping a checkpoint at the
/// end of each. Radio-state accounting is closed only before the last.
fn record<N: Net>(mut script: Script<N>, slices: u32) -> Run {
    let mut checkpoints = Vec::new();
    let mut traced = 0;
    for k in 1..=slices {
        let at = script.end * k / slices;
        script.run_to(at);
        if k == slices {
            script.net.finish();
        }
        let net = &script.net;
        let trace = net.trace();
        assert_eq!(trace.dropped(), 0, "the trace must hold the whole run");
        let window: Vec<_> = trace.entries().skip(traced).cloned().collect();
        traced = trace.len();
        // Band queues (threads > 1) settle their heads at their own
        // moments, so a superseded timer may be dropped on either side of
        // a slice's end; only the finished run's count is engine-free.
        let mut phy = net.phy().clone();
        if k < slices {
            phy.stale_timers_dropped = 0;
        }
        let texts = [
            format!("{window:?}"),
            format!("{phy:?}"),
            net.nodes(),
            net.report(),
        ];
        checkpoints.push(Checkpoint {
            at,
            digests: texts.map(|t| fnv1a(t.as_bytes())),
            window,
        });
    }
    Run {
        checkpoints,
        facts: script.net.facts(),
    }
}

/// Runs `row` under `engine`: one run per seed, in seed order.
fn run_row(row: &Row, engine: Engine) -> Vec<(u64, Run)> {
    let seeds = seed_list(row.seed, row.seeds);
    run_parallel(&seeds, engine.jobs, |&seed| {
        (seed, row.scenario.record(seed, engine, CHECKPOINTS))
    })
}

/// `(row label, seed)` → each checkpoint's digests. `tests/goldens.txt`
/// has one line per run: the label, the seed, then the four section
/// digests of every checkpoint in turn; `#` starts a comment.
pub type Pins = BTreeMap<(String, u64), Vec<[u64; 4]>>;

pub fn parse_pins(text: &str) -> Pins {
    let mut pins = Pins::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut fields = line.split_whitespace();
        let (Some(label), Some(seed)) = (fields.next(), fields.next()) else {
            panic!("malformed pin line: {line}");
        };
        let digests: Vec<u64> = fields
            .map(|d| u64::from_str_radix(d, 16).expect("hex digest"))
            .collect();
        let checkpoints = digests.chunks(4).map(|c| c.try_into().unwrap()).collect();
        pins.insert((label.to_string(), seed.parse().unwrap()), checkpoints);
    }
    pins
}

fn pin_line(label: &str, seed: u64, run: &Run, out: &mut String) {
    let _ = write!(out, "{label} {seed}");
    for d in run.checkpoints.iter().flat_map(|c| c.digests) {
        let _ = write!(out, " {d:016x}");
    }
    out.push('\n');
}

/// A checkpoint time as messages write it: `105s`, `131.25s`.
fn secs(d: Duration) -> String {
    format!("{}s", d.as_secs_f64())
}

/// Where `run` first leaves its pin, if it does: the checkpoint and
/// section, then that checkpoint's trace window, one entry a line.
fn divergence(label: &str, seed: u64, run: &Run, pins: &Pins) -> Option<(String, String)> {
    let Some(pin) = pins.get(&(label.to_string(), seed)) else {
        return Some(("no pin".into(), String::new()));
    };
    let mut from = Duration::ZERO;
    for (k, c) in run.checkpoints.iter().enumerate() {
        let pinned = pin.get(k).copied().unwrap_or_default();
        let Some(s) = (0..SECTIONS.len()).find(|&s| pinned[s] != c.digests[s]) else {
            from = c.at;
            continue;
        };
        let at = secs(c.at);
        let head = format!(
            "first divergence at the {at} checkpoint, section `{}` (pinned {:016x}, got {:016x})",
            SECTIONS[s], pinned[s], c.digests[s]
        );
        let mut window = format!(
            "\n  trace window ({}, {at}], {} entries:",
            secs(from),
            c.window.len()
        );
        for (t, event) in &c.window {
            let _ = write!(window, "\n  {t} {event:?}");
        }
        return Some((head, window));
    }
    None
}

/// The digests `tests/goldens.txt` pins.
pub fn pinned() -> Pins {
    parse_pins(include_str!("../goldens.txt"))
}

/// Runs `rows` under every engine each lists. Every engine must
/// reproduce the row's digests in `pins` — or, with `repin`, those of
/// the row's own first engine, after printing where that engine left
/// `pins` — and every guard must hold, or the pin proves nothing.
/// Returns the failures and the first engines' pin lines.
pub fn verify(rows: &[Row], pins: &Pins, repin: bool) -> (Vec<String>, String) {
    let mut failures = Vec::new();
    let mut fresh = String::new();
    for row in rows {
        let label = row.label();
        let first = run_row(row, row.engines[0]);
        let mut row_pins = String::new();
        for (seed, run) in &first {
            pin_line(&label, *seed, run, &mut row_pins);
        }
        fresh.push_str(&row_pins);
        let repinned;
        let expected = if repin {
            let changed = first
                .iter()
                .find_map(|(seed, run)| Some((seed, divergence(&label, *seed, run, pins)?)));
            if let Some((seed, (head, window))) = changed {
                println!("re-pinned {label} (seed {seed}): {head}{window}\n");
            }
            repinned = parse_pins(&row_pins);
            &repinned
        } else {
            pins
        };
        // The first divergence of a row prints its trace window; the
        // row's other engines and seeds only say where they diverge.
        let mut window_shown = false;
        for (k, &engine) in row.engines.iter().enumerate() {
            let runs = (k > 0).then(|| run_row(row, engine));
            for (seed, run) in runs.as_ref().unwrap_or(&first) {
                let at = format!("{label} (seed {seed}) under {engine:?}");
                if let Some((head, window)) = divergence(&label, *seed, run, expected) {
                    let window = if window_shown { "" } else { &window };
                    failures.push(format!("{at}: {head}{window}"));
                    window_shown = true;
                }
                for guard in row.guards.iter().filter(|g| !g.holds(&run.facts)) {
                    failures.push(format!(
                        "{at}: guard {guard:?} does not hold, so the pin proves nothing ({:?})",
                        run.facts
                    ));
                }
            }
        }
    }
    (failures, fresh)
}

/// Checks the rows grouped under `test` against `tests/goldens.txt`.
pub fn check(test: &str) {
    let rows: Vec<Row> = rows().into_iter().filter(|r| r.test == test).collect();
    assert!(!rows.is_empty(), "no golden row is grouped under {test}");
    let (failures, _) = verify(&rows, &pinned(), false);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Declares one test per name, each checking the rows grouped under
/// `<this suite>::<name>`.
macro_rules! golden_tests {
    ($($test:ident),+ $(,)?) => {$(
        #[test]
        fn $test() {
            $crate::scenarios::table::check(concat!(module_path!(), "::", stringify!($test)));
        }
    )+};
}
pub(crate) use golden_tests;
