//! Exit status of both binaries on input they cannot honour: a message
//! on stderr and status 2 for a command line they refuse, status 1 for
//! a `meshsim` scenario that parses but cannot be built, never a panic
//! (status 101) or a quietly empty table. Also how `exp_all`'s
//! experiment ids select tables.

use std::process::{Command, Output};

/// Runs a command line of one of the package's binaries, such as
/// `"exp_all --quick e5"`.
fn run(command: &str) -> Output {
    let mut words = command.split_whitespace();
    let bin = match words.next() {
        Some("meshsim") => env!("CARGO_BIN_EXE_meshsim"),
        Some("exp_all") => env!("CARGO_BIN_EXE_exp_all"),
        other => panic!("not a binary of this package: {other:?}"),
    };
    Command::new(bin).args(words).output().expect("binary runs")
}

#[test]
fn unconnectable_random_placement_exits_with_an_error() {
    let out = run("meshsim --topology random --nodes 300 --duration 60");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: no connected random placement of 300 nodes in 2000 draws"
    );
    assert!(out.stdout.is_empty());
}

/// Refused command lines, each with the first line it prints on
/// stderr: `meshsim` follows it with its usage text, `exp_all` with its
/// usage line. 18446744073709551615 is `usize::MAX`, which must never
/// reach an allocation.
#[test]
fn refused_command_lines_exit_2_before_any_output() {
    for case in [
        "meshsim --seeds 0 => error: --seeds must be at least 1",
        "meshsim --seeds 18446744073709551615 => error: --seeds must be at most 65536",
        "meshsim --nodes 18446744073709551615 => error: --nodes must be at most 65534",
        // Flags only a LoRaMesher run reads: refused, not ignored.
        "meshsim --protocol flooding --gateway 2 => error: --gateway applies to --protocol loramesher only",
        "meshsim --per-node --protocol star => error: --per-node applies to --protocol loramesher only",
        "meshsim --protocol flooding --snr-tiebreak => error: --snr-tiebreak applies to --protocol loramesher only",
        "exp_all --quick --seeds 0 e10 => --seeds must be at least 1",
        "exp_all --quick --jobs 0 e10 => --jobs must be at least 1",
        "exp_all --quick --seeds 18446744073709551615 e1 => --seeds must be at most 65536",
        "exp_all --quick --markdown --csv e10 => --markdown and --csv are exclusive",
        // More than one simulator thread needs the per-node RNG
        // streams, which `exp_all` cannot select: no `--threads` at all.
        "exp_all --quick --threads 2 => unknown argument: --threads",
        "exp_all --quick e14 => unknown experiment: e14 (try e1 … e13, a1 … a4)",
    ] {
        let (command, first) = case.split_once(" => ").expect("command => first line");
        let out = run(command);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert_eq!(stderr.lines().next(), Some(first), "{command}");
        let (bin, _) = command.split_once(' ').expect("a binary and its flags");
        let usage = format!("usage: {bin}");
        assert!(stderr.to_lowercase().contains(&usage), "{stderr}");
        assert!(out.stdout.is_empty(), "{command}");
    }
}

#[test]
fn exp_all_help_prints_the_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = run(&format!("exp_all {flag}"));
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: exp_all "), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

/// E13 compares LoRaMesher with flooding only: restricting it to the
/// star would print a table with no rows.
#[test]
fn protocol_outside_e13_is_an_error_not_an_empty_table() {
    for args in ["--quick --protocol star e13", "--quick --protocol star"] {
        let out = run(&format!("exp_all {args}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args} stderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args} stderr: {stderr}");
        assert!(
            stderr.contains("e13") && stderr.contains("loramesher") && stderr.contains("flooding"),
            "{args} stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args}");
    }
}

#[test]
fn ids_select_tables_in_suite_order() {
    let out = run("exp_all --quick e10 e5");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 tables");
    let titles: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with(' '))
        .collect();
    assert_eq!(titles.len(), 2, "{stdout}");
    assert!(titles[0].starts_with("E5 "), "{stdout}");
    assert!(titles[1].starts_with("E10 "), "{stdout}");
}
