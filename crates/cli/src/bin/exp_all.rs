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
//! restricts the protocol comparisons (E5, E13) to one stack. The last
//! four are parsed by [`SharedFlag::parse`], as `meshsim`'s are.
//!
//! `--help` prints the usage line on stdout. A bad flag or an unknown
//! id prints the reason and the usage line on stderr; a `--protocol`
//! that would leave a selected table empty prints which stacks that
//! experiment compares. Both exit with status 2 before any table is
//! printed.

use meshsim::args::SharedFlag;
use scenario::experiments::{protocol_conflict, ExpOptions, ALL};

const USAGE: &str = "usage: exp_all [--quick] [--seed N] [--seeds N] [--jobs N] \
     [--protocol NAME] [--markdown | --csv] [ID ...]";

fn main() {
    let mut markdown = false;
    let mut csv = false;
    let mut ids = Vec::new();
    let mut opt = ExpOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--quick" => opt.quick = true,
            "--markdown" => markdown = true,
            "--csv" => csv = true,
            flag if flag.starts_with('-') => match SharedFlag::parse(flag, &mut args) {
                Ok(Some(SharedFlag::Seed(seed))) => opt.seed = seed,
                Ok(Some(SharedFlag::Seeds(n))) => opt.seeds = n,
                Ok(Some(SharedFlag::Jobs(n))) => opt.jobs = n,
                Ok(Some(SharedFlag::Protocol(p))) => opt.protocol = Some(p),
                Ok(None) => fail(&format!("unknown argument: {flag}")),
                Err(e) => fail(&e.0),
            },
            id => match ALL.iter().find(|(name, _)| *name == id) {
                Some((name, _)) => ids.push(*name),
                None => fail(&format!("unknown experiment: {id} (try e1 … e13, a1 … a4)")),
            },
        }
    }
    if markdown && csv {
        fail("--markdown and --csv are exclusive");
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
