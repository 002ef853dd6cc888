//! The six workloads: what each runs, why, and at what size.
//!
//! Node counts and engine settings are fixed; the simulated seconds are
//! sized so one untraced child lasts about two seconds on the
//! reference host (2 cores). `--smoke` shrinks everything so the whole
//! benchmark, checks included, runs in seconds.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    BeaconStatic,
    BeaconMobile,
    ClusterCommit,
    MeshGrid,
    FloodRandom,
    SweepSmall,
}

/// A workload's size, resolved for a full or a smoke run.
#[derive(Clone, Debug)]
pub struct Plan {
    pub nodes: usize,
    pub warmup_s: u64,
    /// Simulated seconds of the measured window; for `sweep_small`,
    /// 60 s per message of each flow.
    pub window_s: u64,
    pub shards: usize,
    pub threads: usize,
    /// `sweep_small` only: sweep workers, network sizes, seeds per cell.
    pub jobs: usize,
    pub sweep_sizes: &'static [usize],
    pub sweep_seeds: usize,
}

impl Plan {
    /// Sequential-engine plan of `nodes` nodes.
    pub const fn of(nodes: usize, warmup_s: u64, window_s: u64) -> Plan {
        Plan {
            nodes,
            warmup_s,
            window_s,
            shards: 1,
            threads: 1,
            jobs: 1,
            sweep_sizes: &[],
            sweep_seeds: 0,
        }
    }

    pub const fn engine(self, shards: usize, threads: usize) -> Plan {
        Plan {
            shards,
            threads,
            ..self
        }
    }

    /// The settings a results file records beside the numbers.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        out.set("nodes", self.nodes)
            .set("warmup_sim_s", self.warmup_s)
            .set("window_sim_s", self.window_s)
            .set("shards", self.shards)
            .set("threads", self.threads)
            .set("rng_streams", self.threads > 1);
        if !self.sweep_sizes.is_empty() {
            out.set("jobs", self.jobs)
                .set(
                    "sweep_sizes",
                    self.sweep_sizes
                        .iter()
                        .map(|&n| Json::from(n))
                        .collect::<Vec<_>>(),
                )
                .set("sweep_seeds", self.sweep_seeds);
        }
        out
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// More than one thread does the work: on a host with fewer than
    /// two cores its times would be measured oversubscribed.
    pub threaded: bool,
    /// Listed in `BENCHMARK.json`, i.e. gated by the driver. Every
    /// workload runs in the full run and by name in the contract mode.
    pub contract: bool,
    full: Plan,
    smoke: Plan,
}

impl Workload {
    pub fn plan(&self, smoke: bool) -> Plan {
        if smoke {
            self.smoke.clone()
        } else {
            self.full.clone()
        }
    }
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "beacon_static",
        why: "Engine only: 64x64 static beacon grid, so the event queue, the medium/radio state machine and link-cache hits do all the work and the protocol share is ~0.",
        kind: Kind::BeaconStatic,
        contract: true,
        threaded: false,
        full: Plan::of(4096, 6, 330).engine(4, 1),
        smoke: Plan::of(1024, 6, 45).engine(4, 1),
    },
    Workload {
        name: "beacon_mobile",
        why: "Same grid with every 3rd node walking: scoped invalidation and link-row/grid rebuilds beside reads, so a read-path gain that costs the write path shows.",
        kind: Kind::BeaconMobile,
        contract: true,
        threaded: false,
        full: Plan::of(4096, 6, 150).engine(4, 1),
        smoke: Plan::of(1024, 6, 30).engine(4, 1),
    },
    Workload {
        name: "cluster_commit",
        why: "8 far-apart clusters of 512 beacons at shards=4 threads=2: the only input where par and sim::commit do the work and where the grid's cell cap bites (peak RSS).",
        kind: Kind::ClusterCommit,
        threaded: true,
        // Threads are spawned per ~10-event batch, so its time per
        // event is the host scheduler's thread start latency: it moved
        // between 17 and 37 us/event on one commit within an hour, which
        // no bound the contract allows can hold.
        contract: false,
        full: Plan::of(4096, 3, 12).engine(4, 2),
        smoke: Plan::of(1024, 3, 3).engine(4, 2),
    },
    Workload {
        name: "mesh_grid",
        why: "Protocol-bound: 16x16 LoRaMesher grid on the sequential engine, 61-entry hellos into 256-entry tables, all-to-one datagrams; the ProtocolNode dispatch layer at full load.",
        kind: Kind::MeshGrid,
        contract: true,
        threaded: false,
        full: Plan::of(256, 240, 7200),
        smoke: Plan::of(64, 60, 900),
    },
    Workload {
        name: "flood_random",
        why: "Second stack, other engine shape: 256 flooding nodes at random (mean degree ~12): overlapping receptions, capture judgements, dedup hits; cheap callbacks, so adapter and engine weigh more.",
        kind: Kind::FloodRandom,
        contract: true,
        threaded: false,
        full: Plan::of(256, 120, 720),
        smoke: Plan::of(64, 120, 240),
    },
    Workload {
        name: "sweep_small",
        why: "Suite-shaped use: 144 tiny runs (3 stacks x 3 sizes x 2 modem presets x 8 seeds) through scenario::sweep at jobs=2, so build, report, aggregation and run_parallel are a large share.",
        kind: Kind::SweepSmall,
        contract: true,
        threaded: true,
        full: Plan {
            jobs: 2,
            sweep_sizes: &[16, 36, 64],
            sweep_seeds: 8,
            ..Plan::of(64, 600, 300)
        },
        smoke: Plan {
            jobs: 2,
            sweep_sizes: &[16, 36],
            sweep_seeds: 2,
            ..Plan::of(36, 300, 180)
        },
    },
];
