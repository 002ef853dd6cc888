//! Argument parsing for `meshsim`.
//!
//! Hand-rolled (the workspace stays dependency-light); every flag is
//! `--name value`. [`Cli::parse`] is pure and unit-tested; errors carry
//! the offending token so the shell can print something actionable.

use core::fmt;
use std::time::Duration;

use lora_phy::modulation::SpreadingFactor;

/// Network shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Evenly spaced straight line.
    Line,
    /// Square-ish grid.
    Grid,
    /// Circle.
    Ring,
    /// Hub and spokes.
    Star,
    /// Connected uniform-random placement.
    Random,
}

/// Protocol selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// LoRaMesher distance-vector mesh (`loramesher`, alias `mesh`).
    Mesh,
    /// Managed flooding — the Meshtastic-style first-class stack.
    Flooding,
    /// Single-gateway star baseline (gateway = node 0).
    Star,
}

/// Traffic pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// No application traffic (routing only).
    None,
    /// `pair:FROM:TO:INTERVAL_SECS` — a periodic unicast stream.
    Pair {
        /// Sender index.
        from: usize,
        /// Receiver index.
        to: usize,
        /// Seconds between datagrams.
        interval_secs: u64,
    },
    /// `all-to-one:INTERVAL_SECS` — every node reports to node 0.
    AllToOne {
        /// Seconds between each node's reports.
        interval_secs: u64,
    },
    /// `bulk:FROM:TO:BYTES` — one reliable transfer.
    Bulk {
        /// Sender index.
        from: usize,
        /// Receiver index.
        to: usize,
        /// Payload size.
        bytes: usize,
    },
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Cli {
    /// Network shape.
    pub topology: Topology,
    /// Number of nodes.
    pub nodes: usize,
    /// Node spacing as a fraction of the radio range.
    pub spacing_frac: f64,
    /// Protocol to run.
    pub protocol: Protocol,
    /// Traffic pattern.
    pub traffic: Traffic,
    /// Simulated duration.
    pub duration: Duration,
    /// Master seed.
    pub seed: u64,
    /// Number of replication seeds (1 = a single narrated run).
    pub seeds: usize,
    /// Worker threads for multi-seed runs.
    pub jobs: usize,
    /// Spatial bands of the world (1 = no partition): scoped link-row
    /// invalidation, and band queues for band workers when `threads`
    /// > 1. Behaviourally transparent either way.
    pub shards: usize,
    /// Worker threads inside the simulator's parallel evaluate regions
    /// (1 = coordinator only; behaviourally transparent either way).
    pub threads: usize,
    /// Per-node RNG stream family (required for `--threads` > 1; picks
    /// a different but equally valid stochastic trajectory).
    pub rng_streams: bool,
    /// Spreading factor.
    pub sf: SpreadingFactor,
    /// Probabilistic reception near the SNR floor.
    pub grey_zone: bool,
    /// Enforce the EU868 1 % duty cycle.
    pub eu868: bool,
    /// Scheduled failures: `(node, at)`.
    pub kills: Vec<(usize, Duration)>,
    /// Scheduled recoveries: `(node, at)`.
    pub revives: Vec<(usize, Duration)>,
    /// Print per-node statistics.
    pub per_node: bool,
    /// SNR tie-breaking in the routing policy.
    pub snr_tiebreak: bool,
    /// Nodes advertising the gateway role.
    pub gateways: Vec<usize>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            topology: Topology::Line,
            nodes: 3,
            spacing_frac: 0.8,
            protocol: Protocol::Mesh,
            traffic: Traffic::None,
            duration: Duration::from_secs(600),
            seed: 42,
            seeds: 1,
            jobs: 1,
            shards: 1,
            threads: 1,
            rng_streams: false,
            sf: SpreadingFactor::Sf7,
            grey_zone: false,
            eu868: false,
            kills: Vec::new(),
            revives: Vec::new(),
            per_node: false,
            snr_tiebreak: false,
            gateways: Vec::new(),
        }
    }
}

/// A parse failure with the offending input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text printed for `--help` and parse errors.
pub const USAGE: &str = "\
meshsim — simulate a LoRa mesh network

USAGE: meshsim [OPTIONS]

OPTIONS:
  --topology line|grid|ring|star|random   network shape        [line]
  --nodes N                               node count           [3]
  --spacing-frac F                        spacing / radio range [0.8]
  --protocol loramesher|flooding|star     protocol  [loramesher]
                                          (mesh = alias of loramesher)
  --traffic none|pair:F:T:SECS|all-to-one:SECS|bulk:F:T:BYTES  [none]
  --duration SECS                         simulated time       [600]
  --seed N                                master seed          [42]
  --seeds N                               replication seeds    [1]
  --jobs N                                worker threads for --seeds [1]
  --shards N                              spatial bands: scope link-row
                                          invalidation on moves; with
                                          --threads > 1 also one event
                                          queue per band           [1]
  --threads N                             simulator worker threads [1]
  --rng-streams                           per-node RNG streams (needed
                                          for --threads > 1)
  --sf 7..12                              spreading factor     [7]
  --grey-zone                             probabilistic reception
  --eu868                                 enforce the 1 % duty cycle
  --kill NODE@SECS                        fail a node (repeatable)
  --revive NODE@SECS                      recover a node (repeatable)
  --snr-tiebreak                          SNR-aware route selection
  --gateway NODE                          give a node the gateway role (repeatable)
  --per-node                              print per-node statistics
  --help                                  this text
";

fn parse_at(value: &str) -> Result<(usize, Duration), ParseError> {
    let (node, at) = value
        .split_once('@')
        .ok_or_else(|| ParseError(format!("expected NODE@SECS, got '{value}'")))?;
    let node = node
        .parse()
        .map_err(|_| ParseError(format!("bad node index '{node}'")))?;
    let secs: u64 = at
        .parse()
        .map_err(|_| ParseError(format!("bad time '{at}'")))?;
    Ok((node, Duration::from_secs(secs)))
}

impl Cli {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first bad token. A lone
    /// `--help` yields the error `"help"` by convention.
    pub fn parse<I, S>(args: I) -> Result<Cli, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        let value_of = |flag: &str, it: &mut dyn Iterator<Item = S>| {
            it.next()
                .map(|v| v.as_ref().to_string())
                .ok_or_else(|| ParseError(format!("{flag} requires a value")))
        };
        while let Some(arg) = it.next() {
            match arg.as_ref() {
                "--help" | "-h" => return Err(ParseError("help".into())),
                "--topology" => {
                    cli.topology = match value_of("--topology", &mut it)?.as_str() {
                        "line" => Topology::Line,
                        "grid" => Topology::Grid,
                        "ring" => Topology::Ring,
                        "star" => Topology::Star,
                        "random" => Topology::Random,
                        other => return Err(ParseError(format!("unknown topology '{other}'"))),
                    };
                }
                "--nodes" => {
                    let v = value_of("--nodes", &mut it)?;
                    cli.nodes = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad node count '{v}'")))?;
                    if cli.nodes == 0 {
                        return Err(ParseError("--nodes must be at least 1".into()));
                    }
                }
                "--spacing-frac" => {
                    let v = value_of("--spacing-frac", &mut it)?;
                    cli.spacing_frac = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad fraction '{v}'")))?;
                    if !(0.01..=2.0).contains(&cli.spacing_frac) {
                        return Err(ParseError("--spacing-frac must be in 0.01..=2.0".into()));
                    }
                }
                "--protocol" => {
                    cli.protocol = match value_of("--protocol", &mut it)?.as_str() {
                        "mesh" | "loramesher" => Protocol::Mesh,
                        "flooding" => Protocol::Flooding,
                        "star" => Protocol::Star,
                        other => {
                            return Err(ParseError(format!(
                                "unknown protocol '{other}' (try loramesher, flooding or star)"
                            )))
                        }
                    };
                }
                "--traffic" => {
                    let v = value_of("--traffic", &mut it)?;
                    cli.traffic = Self::parse_traffic(&v)?;
                }
                "--duration" => {
                    let v = value_of("--duration", &mut it)?;
                    let secs: u64 = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad duration '{v}'")))?;
                    cli.duration = Duration::from_secs(secs);
                }
                "--seed" => {
                    let v = value_of("--seed", &mut it)?;
                    cli.seed = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad seed '{v}'")))?;
                }
                "--seeds" => {
                    let v = value_of("--seeds", &mut it)?;
                    cli.seeds = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad seed count '{v}'")))?;
                    if cli.seeds == 0 {
                        return Err(ParseError("--seeds must be at least 1".into()));
                    }
                }
                "--jobs" => {
                    let v = value_of("--jobs", &mut it)?;
                    cli.jobs = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad job count '{v}'")))?;
                    if cli.jobs == 0 {
                        return Err(ParseError("--jobs must be at least 1".into()));
                    }
                }
                "--shards" => {
                    let v = value_of("--shards", &mut it)?;
                    cli.shards = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad shard count '{v}'")))?;
                    if cli.shards == 0 {
                        return Err(ParseError("--shards must be at least 1".into()));
                    }
                }
                "--threads" => {
                    let v = value_of("--threads", &mut it)?;
                    cli.threads = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad thread count '{v}'")))?;
                    if cli.threads == 0 {
                        return Err(ParseError("--threads must be at least 1".into()));
                    }
                }
                "--sf" => {
                    let v = value_of("--sf", &mut it)?;
                    let n: u8 = v.parse().map_err(|_| ParseError(format!("bad SF '{v}'")))?;
                    cli.sf = SpreadingFactor::from_value(n)
                        .ok_or_else(|| ParseError(format!("SF must be 7..=12, got {n}")))?;
                }
                "--rng-streams" => cli.rng_streams = true,
                "--grey-zone" => cli.grey_zone = true,
                "--eu868" => cli.eu868 = true,
                "--per-node" => cli.per_node = true,
                "--snr-tiebreak" => cli.snr_tiebreak = true,
                "--gateway" => {
                    let v = value_of("--gateway", &mut it)?;
                    let node = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad node index '{v}'")))?;
                    cli.gateways.push(node);
                }
                "--kill" => {
                    let v = value_of("--kill", &mut it)?;
                    cli.kills.push(parse_at(&v)?);
                }
                "--revive" => {
                    let v = value_of("--revive", &mut it)?;
                    cli.revives.push(parse_at(&v)?);
                }
                other => return Err(ParseError(format!("unknown argument '{other}'"))),
            }
        }
        cli.validate()?;
        Ok(cli)
    }

    fn parse_traffic(value: &str) -> Result<Traffic, ParseError> {
        if value == "none" {
            return Ok(Traffic::None);
        }
        let parts: Vec<&str> = value.split(':').collect();
        let int = |s: &str| -> Result<u64, ParseError> {
            s.parse()
                .map_err(|_| ParseError(format!("bad number '{s}' in --traffic")))
        };
        match parts.as_slice() {
            ["pair", from, to, secs] => Ok(Traffic::Pair {
                from: int(from)? as usize,
                to: int(to)? as usize,
                interval_secs: int(secs)?,
            }),
            ["all-to-one", secs] => Ok(Traffic::AllToOne {
                interval_secs: int(secs)?,
            }),
            ["bulk", from, to, bytes] => Ok(Traffic::Bulk {
                from: int(from)? as usize,
                to: int(to)? as usize,
                bytes: int(bytes)? as usize,
            }),
            _ => Err(ParseError(format!(
                "bad --traffic '{value}' (try pair:0:2:10, all-to-one:30, bulk:0:1:4096 or none)"
            ))),
        }
    }

    fn validate(&self) -> Result<(), ParseError> {
        if self.threads > 1 && !self.rng_streams {
            return Err(ParseError(
                "--threads > 1 requires --rng-streams: parallel band workers \
                 mint per-node RNG streams independently"
                    .into(),
            ));
        }
        let check = |i: usize, what: &str| {
            if i >= self.nodes {
                Err(ParseError(format!(
                    "{what} index {i} out of range (nodes = {})",
                    self.nodes
                )))
            } else {
                Ok(())
            }
        };
        // A node has no route to itself: it would refuse every send.
        let distinct = |from: usize, to: usize| {
            if from == to {
                Err(ParseError(format!(
                    "--traffic sender and receiver are both node {from}"
                )))
            } else {
                Ok(())
            }
        };
        match self.traffic {
            Traffic::Pair {
                from,
                to,
                interval_secs,
            } => {
                check(from, "--traffic sender")?;
                check(to, "--traffic receiver")?;
                distinct(from, to)?;
                if interval_secs == 0 {
                    return Err(ParseError("traffic interval must be positive".into()));
                }
            }
            Traffic::Bulk { from, to, bytes } => {
                check(from, "--traffic sender")?;
                check(to, "--traffic receiver")?;
                distinct(from, to)?;
                if bytes == 0 {
                    return Err(ParseError("bulk size must be positive".into()));
                }
            }
            Traffic::AllToOne { interval_secs } => {
                if interval_secs == 0 {
                    return Err(ParseError("traffic interval must be positive".into()));
                }
            }
            Traffic::None => {}
        }
        for (node, _) in self.kills.iter().chain(&self.revives) {
            check(*node, "--kill/--revive")?;
        }
        for node in &self.gateways {
            check(*node, "--gateway")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, ParseError> {
        Cli::parse(args.iter().copied())
    }

    #[test]
    fn defaults_with_no_args() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli, Cli::default());
    }

    #[test]
    fn full_command_line() {
        let cli = parse(&[
            "--topology",
            "grid",
            "--nodes",
            "9",
            "--spacing-frac",
            "0.7",
            "--protocol",
            "flooding",
            "--traffic",
            "pair:0:8:15",
            "--duration",
            "1200",
            "--seed",
            "99",
            "--sf",
            "9",
            "--grey-zone",
            "--eu868",
            "--per-node",
            "--kill",
            "4@300",
            "--revive",
            "4@600",
        ])
        .unwrap();
        assert_eq!(cli.topology, Topology::Grid);
        assert_eq!(cli.nodes, 9);
        assert_eq!(cli.protocol, Protocol::Flooding);
        assert_eq!(
            cli.traffic,
            Traffic::Pair {
                from: 0,
                to: 8,
                interval_secs: 15
            }
        );
        assert_eq!(cli.duration, Duration::from_secs(1200));
        assert_eq!(cli.sf, SpreadingFactor::Sf9);
        assert!(cli.grey_zone && cli.eu868 && cli.per_node);
        assert_eq!(cli.kills, vec![(4, Duration::from_secs(300))]);
        assert_eq!(cli.revives, vec![(4, Duration::from_secs(600))]);
    }

    #[test]
    fn traffic_variants() {
        assert_eq!(
            parse(&["--traffic", "none"]).unwrap().traffic,
            Traffic::None
        );
        assert_eq!(
            parse(&["--nodes", "6", "--traffic", "all-to-one:30"])
                .unwrap()
                .traffic,
            Traffic::AllToOne { interval_secs: 30 }
        );
        assert_eq!(
            parse(&["--nodes", "2", "--traffic", "bulk:0:1:4096"])
                .unwrap()
                .traffic,
            Traffic::Bulk {
                from: 0,
                to: 1,
                bytes: 4096
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--topology", "moebius"]).is_err());
        assert!(parse(&["--nodes", "0"]).is_err());
        assert!(parse(&["--nodes"]).is_err());
        assert!(parse(&["--sf", "6"]).is_err());
        assert!(
            parse(&["--traffic", "pair:0:9:10"]).is_err(),
            "receiver out of range"
        );
        assert!(parse(&["--traffic", "pair:0:1"]).is_err());
        assert!(
            parse(&["--traffic", "pair:2:2:10"]).is_err(),
            "sender is the receiver"
        );
        assert!(
            parse(&["--traffic", "bulk:3:3:4096"]).is_err(),
            "sender is the receiver"
        );
        assert!(parse(&["--kill", "7@10"]).is_err(), "node out of range");
        assert!(parse(&["--kill", "1-10"]).is_err());
        assert!(parse(&["--spacing-frac", "5.0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn protocol_names_and_alias_parse() {
        assert_eq!(parse(&[]).unwrap().protocol, Protocol::Mesh);
        assert_eq!(
            parse(&["--protocol", "loramesher"]).unwrap().protocol,
            Protocol::Mesh
        );
        assert_eq!(
            parse(&["--protocol", "mesh"]).unwrap().protocol,
            Protocol::Mesh,
            "historic alias keeps working"
        );
        assert_eq!(
            parse(&["--protocol", "flooding"]).unwrap().protocol,
            Protocol::Flooding
        );
        assert_eq!(
            parse(&["--protocol", "star"]).unwrap().protocol,
            Protocol::Star
        );
    }

    #[test]
    fn unknown_protocol_error_names_the_choices() {
        let err = parse(&["--protocol", "meshtastic"]).unwrap_err();
        assert!(
            err.0.contains("unknown protocol 'meshtastic'"),
            "unhelpful error: {err}"
        );
        assert!(
            err.0.contains("loramesher") && err.0.contains("flooding"),
            "error should list the valid protocols: {err}"
        );
    }

    #[test]
    fn seeds_and_jobs_parse() {
        let cli = parse(&["--seeds", "16", "--jobs", "4"]).unwrap();
        assert_eq!(cli.seeds, 16);
        assert_eq!(cli.jobs, 4);
        assert_eq!(parse(&[]).unwrap().seeds, 1, "single run by default");
        assert!(parse(&["--seeds", "0"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--seeds", "many"]).is_err());
    }

    #[test]
    fn shards_parse() {
        assert_eq!(parse(&[]).unwrap().shards, 1, "sequential by default");
        assert_eq!(parse(&["--shards", "4"]).unwrap().shards, 4);
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--shards", "lots"]).is_err());
    }

    #[test]
    fn threads_parse() {
        assert_eq!(
            parse(&[]).unwrap().threads,
            1,
            "coordinator only by default"
        );
        assert_eq!(
            parse(&["--threads", "2", "--rng-streams"]).unwrap().threads,
            2
        );
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "lots"]).is_err());
    }

    #[test]
    fn rng_streams_parse_and_threads_guard() {
        assert!(!parse(&[]).unwrap().rng_streams, "fork-chain by default");
        assert!(parse(&["--rng-streams"]).unwrap().rng_streams);
        // Parallel band workers mint per-node streams; the fork-chain
        // family cannot serve them, so the combination is rejected at
        // parse time rather than panicking inside the simulator.
        let err = parse(&["--threads", "2"]).unwrap_err();
        assert!(err.0.contains("--rng-streams"), "unhelpful error: {err}");
        assert!(parse(&["--threads", "2", "--rng-streams"]).is_ok());
    }

    #[test]
    fn help_is_signalled() {
        assert_eq!(parse(&["--help"]), Err(ParseError("help".into())));
    }

    #[test]
    fn traffic_interval_must_be_positive() {
        assert!(parse(&["--nodes", "3", "--traffic", "all-to-one:0"]).is_err());
        assert!(parse(&["--nodes", "3", "--traffic", "bulk:0:1:0"]).is_err());
    }
}
