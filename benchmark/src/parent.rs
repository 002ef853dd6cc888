//! The parent: spawns one fresh child process per (workload, repeat),
//! checks every record, and aggregates.
//!
//! A *run* is a group of untraced children of one workload measured as
//! one value, the median over them. Two front ends share this: the full
//! run (`run.sh [--seed N] [--smoke]`: every workload, k runs of 3
//! children round-robin, then 3 traced children each, a results file) and
//! the contract run (`--workload W --seed N --seconds S --trace T`: one
//! run of one workload, as many children as fit, one JSON line).

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{unit_of, EndToEnd, FAILED_SHARE, PER_LAYER, REPEATED};
use crate::record::{Layers, Record};
use crate::stats::{median_of, Summary};
use crate::workloads::{Workload, WORKLOADS};

/// A child that runs longer than this is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Runs one child to completion and parses its record.
fn spawn_child(w: &Workload, seed: u64, smoke: bool, traced: bool) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let started = Instant::now();
    // A record is a few KiB, well inside the pipe's buffer, so the
    // child never blocks on a parent that reads only after it exits.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("timed out after {} s", CHILD_TIMEOUT.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => return Err(format!("cannot wait for the child: {e}")),
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)
            .map_err(|e| format!("cannot read the child's record: {e}"))?;
    }
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let line = stdout.lines().last().ok_or("child printed no record")?;
    Record::from_json(&Json::parse(line)?)
}

/// Everything measured for one workload, and what went wrong.
pub struct Tally {
    pub workload: &'static Workload,
    /// The untraced children that passed every check, and the run each
    /// belongs to. A run is a group of children measured as one value:
    /// the median over them.
    pub untraced: Vec<Record>,
    run_of: Vec<usize>,
    pub traced: Vec<Record>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn new(workload: &'static Workload) -> Tally {
        Tally {
            workload,
            untraced: Vec::new(),
            run_of: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Runs one child of run number `run` and files its record, or the
    /// reason it counts as a failed operation. Returns how long the
    /// child took.
    pub fn run_child(&mut self, run: usize, seed: u64, smoke: bool, traced: bool) -> Duration {
        let started = Instant::now();
        let outcome = spawn_child(self.workload, seed, smoke, traced);
        self.attempted += 1;
        let kind = if traced { "traced" } else { "untraced" };
        let reference = self.untraced.first().or(self.traced.first());
        match outcome {
            Err(why) => self.failures.push(format!("{kind} child: {why}")),
            // Same workload, same seed: the simulated statistics must
            // repeat bit for bit, traced or not.
            Ok(r)
                if reference.is_some_and(|first| {
                    (first.fingerprint, first.events) != (r.fingerprint, r.events)
                }) =>
            {
                self.failures.push(format!(
                    "{kind} child: fingerprint {:016x} ({} events) differs from the first run's",
                    r.fingerprint, r.events
                ));
            }
            Ok(r) if traced => self.traced.push(r),
            Ok(r) => {
                self.untraced.push(r);
                self.run_of.push(run);
            }
        }
        started.elapsed()
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn fingerprint(&self) -> Option<u64> {
        self.untraced
            .first()
            .or(self.traced.first())
            .map(|r| r.fingerprint)
    }

    /// One end-to-end metric, a value per run: the median over the
    /// run's untraced children; host times at nominal host speed
    /// ([`crate::calib`]).
    pub fn values(&self, metric: &EndToEnd) -> Vec<f64> {
        let of_child = |r: &Record| match metric.name {
            "setup_s" => r.setup_s * r.host_speed,
            "ns_per_event" => r.ns_per_event(),
            "peak_rss_mib" => r.peak_rss_mib,
            other => unreachable!("{other} has no per-child value"),
        };
        let runs = self.run_of.iter().max().map_or(0, |last| last + 1);
        (0..runs)
            .filter_map(|run| {
                let children = self.untraced.iter().zip(&self.run_of);
                let values: Vec<f64> = children
                    .filter(|(_, of)| **of == run)
                    .map(|(r, _)| of_child(r))
                    .collect();
                (!values.is_empty()).then(|| median_of(&values))
            })
            .collect()
    }

    /// Per-layer values: the median over the untraced children where
    /// they have one (phase times of the real runner; exact counts,
    /// which are equal anyway), else the median over the traced ones
    /// (spans, allocations, kernels, speed-ups).
    pub fn per_layer(&self) -> Layers {
        /// Every layer of the first child: the median over all of them.
        fn medians(children: &[Record], out: &mut Layers) {
            for (name, _) in children.first().iter().flat_map(|r| &r.layers.0) {
                if out.get(name).is_none() {
                    let values: Vec<f64> =
                        children.iter().filter_map(|r| r.layers.get(name)).collect();
                    out.put(name, median_of(&values));
                }
            }
        }
        let median = |children: &[Record], f: &dyn Fn(&Record) -> f64| {
            median_of(&children.iter().map(f).collect::<Vec<_>>())
        };
        let mut out = Layers::default();
        if let Some(first) = self.untraced.first() {
            // Raw, so that with `sim.events` the wall-clock is derivable.
            out.put("host.speed", median(&self.untraced, &|r| r.host_speed));
            out.put("sim.events", first.events as f64);
            out.put("sim.run_s", median(&self.untraced, &|r| r.run_s));
        }
        medians(&self.untraced, &mut out);
        medians(&self.traced, &mut out);
        if !self.traced.is_empty() && !self.untraced.is_empty() {
            let traced = median(&self.traced, &Record::ns_per_event);
            let untraced = median(&self.untraced, &Record::ns_per_event);
            out.put("trace.overhead_share", traced / untraced - 1.0);
        }
        // Report in the tables' order, whatever order children emit in.
        out.0
            .sort_by_key(|(name, _)| PER_LAYER.iter().position(|(n, _)| n == name));
        out
    }
}

/// `{"value": …, "unit": …}`, the shape of every reported metric.
fn metric_json(value: f64, unit: &str) -> Json {
    let mut m = Json::obj();
    m.set("value", value).set("unit", unit);
    m
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// ---------------------------------------------------------------------
// The contract run
// ---------------------------------------------------------------------

/// `--workload W --seed N --seconds S --trace T`: measures one workload
/// for about `seconds` and prints the driver's JSON line. Returns the
/// process exit code.
pub fn contract(w: &'static Workload, seed: u64, seconds: u64, trace: bool) -> i32 {
    if w.threaded && nproc() < 2 {
        eprintln!(
            "warning: {} uses 2 threads and this host has 1 core: its times are measured oversubscribed",
            w.name
        );
    }
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut tally = Tally::new(w);
    let mut longest = Duration::ZERO;
    // As many children as fit: the next one starts only if the longest
    // so far would still end inside the budget. A traced run needs the
    // untraced children only as the reference for its overhead, so two
    // are enough; an untraced run reports medians and wants at least 3.
    let (at_least, at_most) = if trace { (2, 2) } else { (3, u64::MAX) };
    while tally.attempted < at_most
        && (tally.attempted < at_least || started.elapsed() + longest <= budget)
    {
        longest = longest.max(tally.run_child(0, seed, false, false));
    }
    if trace {
        tally.run_child(0, seed, false, true);
    }

    let mut metrics = Json::obj();
    let mut complete = true;
    if trace {
        let layers = tally.per_layer();
        complete = !tally.traced.is_empty();
        for (name, unit) in PER_LAYER {
            metrics.set(name, metric_json(layers.get(name).unwrap_or(0.0), unit));
        }
    } else {
        // One run: its value is the median over its children.
        for metric in REPEATED {
            let value = tally.values(metric).first().copied();
            complete &= value.is_some();
            metrics.set(metric.name, metric_json(value.unwrap_or(0.0), metric.unit));
        }
    }
    for why in &tally.failures {
        eprintln!("{}: failed operation: {why}", w.name);
    }
    if !complete {
        eprintln!("{}: no child produced a result", w.name);
        return 1;
    }
    let mut line = Json::obj();
    line.set("correct", tally.failed() == 0)
        .set("attempted", tally.attempted)
        .set("failed", tally.failed())
        .set("metrics", metrics);
    println!("{line}");
    0
}

// ---------------------------------------------------------------------
// The full run
// ---------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and from what the numbers came.
fn provenance(seed: u64, k: usize, children: usize, smoke: bool) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = Json::obj();
    out.set(
        "git_commit",
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
    )
    .set(
        "git_dirty",
        command_line("git", &["status", "--porcelain"])
            .map_or(Json::Null, |s| (!s.is_empty()).into()),
    )
    .set(
        "rustc",
        command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
    )
    .set("nproc", nproc())
    .set("cpu", cpu)
    .set("seed", seed)
    .set("k", k)
    .set("children_per_run", children)
    .set("smoke", smoke);
    out
}

/// A results-file entry of one end-to-end metric; `summary` is `None`
/// for a metric that was not measured.
fn summary_json(metric: &EndToEnd, values: &[f64], summary: Option<&Summary>) -> Json {
    let mut out = Json::obj();
    out.set("unit", metric.unit)
        .set("better", "lower")
        .set("bound", metric.bound);
    match summary {
        Some(s) => {
            out.set("median", s.median)
                .set("q1", s.q1)
                .set("q3", s.q3)
                .set("mad", s.mad)
                .set("n", s.n)
                .set(
                    "runs",
                    values.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
                );
        }
        // Not measured (too few cores, or every child failed): the
        // metric is unresolved, never silently absent.
        None => {
            out.set("median", Json::Null);
        }
    }
    out
}

/// `run.sh [--seed N] [--smoke] [--out FILE]`: every workload, every
/// check, every metric; writes the results file. Returns the process
/// exit code: non-zero when any check failed.
pub fn full(seed: u64, smoke: bool, out_path: &str) -> i32 {
    // k runs per workload, each the median over this many children, and
    // as many traced children, whose values are medians too.
    let (k, children) = if smoke { (2, 1) } else { (7, 3) };
    let mut tallies: Vec<Tally> = WORKLOADS.iter().map(Tally::new).collect();
    // Round-robin child by child, so a slow minute on the host costs
    // every workload one child instead of one workload a whole run.
    for run in 0..k {
        for _ in 0..children {
            for tally in &mut tallies {
                tally.run_child(run, seed, smoke, false);
            }
        }
    }
    for _ in 0..children {
        for tally in &mut tallies {
            tally.run_child(k, seed, smoke, true);
        }
    }

    let mut workloads = Json::obj();
    for tally in &tallies {
        let w = tally.workload;
        // Two threads on one core time the scheduler, not the code.
        let oversubscribed = w.threaded && nproc() < 2;
        let mut end_to_end = Json::obj();
        for metric in REPEATED {
            let values = tally.values(metric);
            let summary = Summary::of(&values).filter(|_| !(metric.timed && oversubscribed));
            match &summary {
                Some(s) => println!(
                    "{} {} {:.6} {}  (q1 {:.6} q3 {:.6} mad {:.6} n {} spread {:.2}%)",
                    w.name,
                    metric.name,
                    s.median,
                    metric.unit,
                    s.q1,
                    s.q3,
                    s.mad,
                    s.n,
                    s.spread() * 100.0
                ),
                None => println!("{} {} unresolved {}", w.name, metric.name, metric.unit),
            }
            end_to_end.set(metric.name, summary_json(metric, &values, summary.as_ref()));
        }
        let failed_share = tally.failed() as f64 / tally.attempted as f64;
        println!(
            "{} {} {failed_share} {}",
            w.name, FAILED_SHARE.name, FAILED_SHARE.unit
        );
        end_to_end.set(
            FAILED_SHARE.name,
            summary_json(
                &FAILED_SHARE,
                &[failed_share],
                Summary::of(&[failed_share]).as_ref(),
            ),
        );
        println!("{} ops_attempted {} count", w.name, tally.attempted);
        println!("{} ops_failed {} count", w.name, tally.failed());
        let fingerprint = tally
            .fingerprint()
            .map_or("none".into(), |f| format!("{f:016x}"));
        println!("{} fingerprint {fingerprint} hash", w.name);

        let mut per_layer = Json::obj();
        for (name, value) in &tally.per_layer().0 {
            // Children emit table names only (`child::run` checks).
            let unit = unit_of(name).unwrap_or("?");
            println!("{} {name} {value} {unit}", w.name);
            per_layer.set(name, metric_json(*value, unit));
        }
        for why in &tally.failures {
            println!("{} FAILED {why}", w.name);
        }

        let mut entry = Json::obj();
        entry
            .set("why", w.why)
            .set("in_benchmark_json", w.contract)
            .set("settings", w.plan(smoke).to_json())
            .set("ops_attempted", tally.attempted)
            .set("ops_failed", tally.failed())
            .set(
                "failures",
                tally
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .set("fingerprint", fingerprint)
            .set("end_to_end", end_to_end)
            .set("per_layer", per_layer);
        workloads.set(w.name, entry);
    }

    let mut doc = Json::obj();
    doc.set("schema", 1u64)
        .set("claim", Json::Null)
        .set("provenance", provenance(seed, k, children, smoke))
        .set("workloads", workloads);
    if let Err(e) = std::fs::write(out_path, doc.pretty()) {
        eprintln!("cannot write {out_path}: {e}");
        return 1;
    }
    println!("results written to {out_path}");
    let failed: u64 = tallies.iter().map(Tally::failed).sum();
    if failed > 0 {
        eprintln!("{failed} operation(s) failed");
        return 1;
    }
    0
}
