//! `exp_all`'s exit status on input it cannot honour: a line on stderr
//! and status 2, never a panic (status 101) or a quietly empty table.
//! Also how experiment ids select tables.

use std::process::{Command, Output};

fn exp_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_all"))
        .args(args)
        .output()
        .expect("exp_all runs")
}

/// A simulator with more than one worker thread needs the per-node RNG
/// streams, which `exp_all` cannot select, so it offers no `--threads`
/// at all.
#[test]
fn threads_flag_is_an_unknown_argument() {
    let out = exp_all(&["--quick", "--threads", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr.lines().next(), Some("unknown argument: --threads"));
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_experiment_is_an_error() {
    let out = exp_all(&["--quick", "e14"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("unknown experiment: e14"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty());
}

/// E13 compares LoRaMesher with flooding only: restricting it to the
/// star would print a table with no rows.
#[test]
fn protocol_outside_e13_is_an_error_not_an_empty_table() {
    for args in [
        &["--quick", "--protocol", "star", "e13"][..],
        &["--quick", "--protocol", "star"][..],
    ] {
        let out = exp_all(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?} stderr: {stderr}");
        assert!(
            stderr.contains("e13") && stderr.contains("loramesher") && stderr.contains("flooding"),
            "{args:?} stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn ids_select_tables_in_suite_order() {
    let out = exp_all(&["--quick", "e10", "e5"]);
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
