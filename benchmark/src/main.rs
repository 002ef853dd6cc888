//! The repository's benchmark: six workloads over the LoRa-mesh
//! simulator, end-to-end metrics from fresh child processes, and a
//! per-layer budget traced from outside. See `README.md`.
//!
//! ```text
//! lorabench [--seed N] [--smoke] [--out FILE]       every workload, a results file
//! lorabench --workload W --seed N --seconds S --trace 0|1
//!                                                    one workload, one JSON line
//! lorabench compare A.json B.json                   verdicts between two results files
//! lorabench child --workload W --seed N --trace 0|1 [--smoke]
//!                                                    one measured run (spawned by the above)
//! ```

mod alloc;
mod calib;
mod child;
mod compare;
mod json;
mod kernels;
mod metrics;
mod net;
mod parent;
mod record;
mod span;
mod stats;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: lorabench [--seed N] [--smoke] [--out FILE]
       lorabench --workload NAME --seed N --seconds S --trace 0|1
       lorabench compare A.json B.json";

/// The flags of every mode but `compare`.
struct Flags {
    workload: Option<&'static workloads::Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: String,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 42,
        seconds: 10,
        trace: false,
        smoke: false,
        out: "benchmark/results/latest.json".into(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: '{v}' is not a number"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                flags.workload = Some(
                    workloads::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => flags.seed = number(value()?)?,
            "--seconds" => flags.seconds = number(value()?)?,
            "--trace" => flags.trace = number(value()?)? != 0,
            "--out" => flags.out = value()?.clone(),
            "--smoke" => flags.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(flags)
}

fn run(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare needs two results files".into());
            };
            Ok(i32::from(compare::compare(a, b)?))
        }
        Some("child") => {
            let flags = parse(&args[1..])?;
            let w = flags.workload.ok_or("child needs --workload")?;
            let record = child::run(w, flags.seed, flags.smoke, flags.trace)
                .map_err(|e| format!("{}: {e}", w.name))?;
            println!("{}", record.to_json());
            Ok(0)
        }
        _ => {
            let flags = parse(args)?;
            Ok(match flags.workload {
                Some(w) => parent::contract(w, flags.seed, flags.seconds, flags.trace),
                None => parent::full(flags.seed, flags.smoke, &flags.out),
            })
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
