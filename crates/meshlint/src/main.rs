//! `meshlint` — call-graph robustness and determinism rules for this
//! workspace.
//!
//! ```text
//! meshlint [--root DIR]
//! ```
//!
//! Exit codes: `0` clean, `1` findings (or malformed directives),
//! `2` usage / IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use meshlint::{analyze, Config};

fn parse_args() -> Result<PathBuf, String> {
    let mut root = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(it.next().ok_or("--root needs a directory")?),
            "--help" | "-h" => {
                println!(
                    "meshlint [--root DIR]\n\
                     \n\
                     r1 panic paths in protocol hot files (transitively, through\n\
                     the call graph), p1 shared-state machinery reachable from a\n\
                     worker-evaluated `par::` region, s1 locally fabricated seq\n\
                     passed to a shard event-insertion method, f1 order-sensitive\n\
                     accumulation into captured state inside a worker region,\n\
                     e1 stale escape (an allow directive that suppresses nothing).\n\
                     Suppress a site with `// meshlint::allow(<rule>): <reason>`\n\
                     (e1 itself cannot be allowed; delete the stale directive)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let analysis = match parse_args()
        .and_then(|root| analyze(&Config::workspace(root)).map_err(|e| e.to_string()))
    {
        Ok(a) => a,
        Err(e) => {
            eprintln!("meshlint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &analysis.findings {
        println!("{f}");
    }
    for e in &analysis.directive_errors {
        println!("{e}");
    }
    println!(
        "meshlint: {} file(s), {} finding(s), {} allowed, {} directive error(s)",
        analysis.files_scanned,
        analysis.findings.len(),
        analysis.allowed,
        analysis.directive_errors.len()
    );
    if analysis.findings.is_empty() && analysis.directive_errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
