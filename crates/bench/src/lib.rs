//! Benchmark harness for the LoRaMesher reproduction.
//!
//! Two kinds of targets live here:
//!
//! * **Experiment binaries** (`src/bin/exp_e1.rs` … `exp_e10.rs`, plus
//!   `exp_all`): each regenerates one table/figure of the evaluation by
//!   calling into [`scenario::experiments`] and printing the result
//!   table. Pass `--quick` for a scaled-down run.
//! * **Bench targets** (`cargo bench`): `experiments` re-runs the whole
//!   evaluation suite (set `LORAMESHER_QUICK=1` for the scaled-down
//!   version) and `micro` holds self-contained micro-benchmarks for the
//!   codec, routing table, time-on-air math, PRNG and simulator core
//!   (plain [`std::time::Instant`] timing — no external harness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scaling;

use scenario::experiments::ExpOptions;
use scenario::runner::ProtocolChoice;

/// Parses the common CLI of the experiment binaries: `--quick` shrinks
/// sweeps, `--seed N` overrides the master seed, `--seeds N` replicates
/// every cell across N spread seeds, `--jobs N` spreads the runs over N
/// worker threads, and `--shards N` partitions each simulator's world
/// into spatial bands (the tables are identical for every jobs and
/// shards count).
/// `--protocol NAME` restricts the protocol-comparison experiments to a
/// single stack (`loramesher`, `flooding` or `star`).
#[must_use]
pub fn options_from_args() -> ExpOptions {
    let mut opt = ExpOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let outcome = apply_common_flag(&mut opt, &arg, &mut args);
        match outcome {
            Ok(true) => {}
            Ok(false) | Err(_) => {
                match outcome {
                    Err(msg) => eprintln!("{msg}"),
                    _ => eprintln!("unknown argument: {arg}"),
                }
                eprintln!(
                    "usage: exp_eN [--quick] [--seed N] [--seeds N] [--jobs N] [--shards N] [--protocol NAME]"
                );
                std::process::exit(2);
            }
        }
    }
    opt
}

/// Applies one experiment flag shared by every `exp_*` binary.
///
/// Returns `Ok(true)` when `arg` was recognised and consumed (pulling
/// its value from `rest` if it takes one), `Ok(false)` when it is not a
/// common flag, and `Err` with a message for a recognised flag whose
/// value is missing or malformed.
///
/// # Errors
///
/// Returns the offending flag's usage string when its value is missing
/// or fails to parse.
pub fn apply_common_flag(
    opt: &mut ExpOptions,
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Result<bool, String> {
    let mut int = |flag: &str| {
        rest.next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{flag} requires an integer"))
    };
    match arg {
        "--quick" => opt.quick = true,
        "--seed" => opt.seed = int("--seed")?,
        "--seeds" => {
            opt.seeds = int("--seeds")?.max(1) as usize;
        }
        "--jobs" => {
            opt.jobs = int("--jobs")?.max(1) as usize;
        }
        "--shards" => {
            opt.shards = int("--shards")?.max(1) as usize;
        }
        "--protocol" => {
            let name = rest
                .next()
                .ok_or_else(|| String::from("--protocol requires a name"))?;
            opt.protocol = Some(ProtocolChoice::from_name(&name)?);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: deliberately not options_from_args() — that reads the *test
    // binary's* arguments (libtest flags such as --quiet) and would exit.
    #[test]
    fn default_options_are_full() {
        let opt = ExpOptions::default();
        assert!(!opt.quick);
        assert_eq!(opt.seed, 42);
        assert_eq!(opt.seeds, 1);
        assert_eq!(opt.jobs, 1);
    }

    #[test]
    fn common_flags_apply() {
        let mut opt = ExpOptions::default();
        let mut rest = ["8"].iter().map(ToString::to_string);
        assert_eq!(apply_common_flag(&mut opt, "--seeds", &mut rest), Ok(true));
        assert_eq!(opt.seeds, 8);
        let mut rest = ["4"].iter().map(ToString::to_string);
        assert_eq!(apply_common_flag(&mut opt, "--jobs", &mut rest), Ok(true));
        assert_eq!(opt.jobs, 4);
        let mut rest = ["4"].iter().map(ToString::to_string);
        assert_eq!(apply_common_flag(&mut opt, "--shards", &mut rest), Ok(true));
        assert_eq!(opt.shards, 4);
        let mut rest = ["2"].iter().map(ToString::to_string);
        assert_eq!(
            apply_common_flag(&mut opt, "--threads", &mut rest),
            Ok(false),
            "threads > 1 needs rng_streams, which no exp_* flag selects"
        );
        assert_eq!(opt.threads, 1);
        let mut rest = std::iter::empty::<String>();
        assert_eq!(
            apply_common_flag(&mut opt, "--markdown", &mut rest),
            Ok(false),
            "unknown flags are left to the caller"
        );
        let mut rest = std::iter::empty::<String>();
        assert!(apply_common_flag(&mut opt, "--seeds", &mut rest).is_err());
    }

    #[test]
    fn protocol_flag_applies() {
        let mut opt = ExpOptions::default();
        assert_eq!(opt.protocol, None);
        let mut rest = ["flooding"].iter().map(ToString::to_string);
        assert_eq!(
            apply_common_flag(&mut opt, "--protocol", &mut rest),
            Ok(true)
        );
        assert_eq!(opt.protocol, Some(ProtocolChoice::Flooding { ttl: 7 }));
        let mut rest = ["loramesher"].iter().map(ToString::to_string);
        assert_eq!(
            apply_common_flag(&mut opt, "--protocol", &mut rest),
            Ok(true)
        );
        assert_eq!(opt.protocol, Some(ProtocolChoice::mesh_fast()));
    }

    #[test]
    fn unknown_protocol_is_an_error_naming_the_choices() {
        let mut opt = ExpOptions::default();
        let mut rest = ["meshtastic"].iter().map(ToString::to_string);
        let err = apply_common_flag(&mut opt, "--protocol", &mut rest).unwrap_err();
        assert!(err.contains("unknown protocol 'meshtastic'"), "{err}");
        assert!(
            err.contains("loramesher") && err.contains("flooding"),
            "{err}"
        );
    }
}
