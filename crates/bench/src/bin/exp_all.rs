//! Runs the LoRaMesher evaluation, experiments E1–E13 and the A1–A4
//! ablations, and prints their tables.
//!
//! With no experiment ids it runs them all; `exp_all e5 a2` runs only
//! the named ones (the ids of [`scenario::experiments::ALL`]). Tables
//! print in suite order, whatever the order of the ids.
//!
//! With `--markdown`, emits GitHub-flavoured markdown (used to fill
//! EXPERIMENTS.md); with `--csv`, RFC 4180 CSV blocks for plotting;
//! otherwise aligned plain text. `--quick` shrinks every sweep,
//! `--seed N` overrides the master seed, `--seeds N` replicates the
//! randomised experiments across N seeds (tables gain `mean ± sd`
//! cells), `--jobs N` spreads the runs over N worker threads (the
//! tables are identical for every count) and `--protocol NAME`
//! restricts the protocol comparisons (E5, E13) to one stack.
//!
//! A bad flag or an unknown id prints the reason and the usage line on
//! stderr; a `--protocol` that would leave a selected table empty prints
//! which stacks that experiment compares. Both exit with status 2 before
//! any table is printed.

use scenario::experiments::{protocol_conflict, ExpOptions, ALL};
use scenario::runner::ProtocolChoice;

const USAGE: &str = "usage: exp_all [--quick] [--seed N] [--seeds N] [--jobs N] \
     [--protocol NAME] [--markdown | --csv] [ID ...]";

fn main() {
    let mut markdown = false;
    let mut csv = false;
    let mut ids = Vec::new();
    let mut opt = ExpOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match apply_common_flag(&mut opt, &arg, &mut args) {
            Ok(true) => {}
            Ok(false) => match arg.as_str() {
                "--markdown" => markdown = true,
                "--csv" => csv = true,
                flag if flag.starts_with('-') => fail(&format!("unknown argument: {flag}")),
                id => match ALL.iter().find(|(name, _)| *name == id) {
                    Some((name, _)) => ids.push(*name),
                    None => fail(&format!("unknown experiment: {id} (try e1 … e13, a1 … a4)")),
                },
            },
            Err(msg) => fail(&msg),
        }
    }
    let selected: Vec<_> = ALL
        .iter()
        .filter(|(id, _)| ids.is_empty() || ids.contains(id))
        .collect();
    if let Some(msg) = selected
        .iter()
        .find_map(|(id, _)| protocol_conflict(id, &opt))
    {
        eprintln!("{msg}");
        std::process::exit(2);
    }
    for (_, run) in selected {
        let table = run(&opt);
        if markdown {
            println!("{}", table.to_markdown());
        } else if csv {
            println!("# {}", table.title);
            println!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
    }
}

/// Prints `msg` and the usage line on stderr and exits with status 2.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Applies one of the experiment options `--quick`, `--seed`,
/// `--seeds`, `--jobs` and `--protocol`.
///
/// Returns `Ok(true)` when `arg` was recognised and consumed (pulling
/// its value from `rest` if it takes one), `Ok(false)` when it is not
/// one of them, and `Err` with a message for a recognised flag whose
/// value is missing or malformed.
fn apply_common_flag(
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
        assert_eq!(
            apply_common_flag(&mut opt, "--shards", &mut rest),
            Ok(false),
            "every experiment places static nodes, where shards change nothing"
        );
        assert_eq!(opt.shards, 1);
        let mut rest = ["2"].iter().map(ToString::to_string);
        assert_eq!(
            apply_common_flag(&mut opt, "--threads", &mut rest),
            Ok(false),
            "threads > 1 needs rng_streams, which no exp_all flag selects"
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
