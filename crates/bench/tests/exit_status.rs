//! The experiment binaries' exit status on flags they do not take: an
//! `unknown argument: …` line on stderr and status 2, never a panic
//! (status 101).

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("experiment binary runs")
}

/// A simulator with more than one worker thread needs the per-node RNG
/// streams, which the experiment binaries cannot select, so they offer
/// no `--threads` at all.
#[test]
fn threads_flag_is_an_unknown_argument() {
    for bin in [env!("CARGO_BIN_EXE_exp_e5"), env!("CARGO_BIN_EXE_exp_all")] {
        let out = run(bin, &["--quick", "--threads", "2"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} stderr: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some("unknown argument: --threads"),
            "{bin}"
        );
        assert!(out.stdout.is_empty(), "{bin}");
    }
}
