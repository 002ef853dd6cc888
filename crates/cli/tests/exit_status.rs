//! The `meshsim` binary's exit status on scenarios it cannot build:
//! an `error: …` line on stderr and status 1, never a panic (status
//! 101).

use std::process::Command;

#[test]
fn unconnectable_random_placement_exits_with_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_meshsim"))
        .args(["--topology", "random", "--nodes", "300", "--duration", "60"])
        .output()
        .expect("meshsim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: no connected random placement of 300 nodes in 2000 draws"
    );
    assert!(out.stdout.is_empty());
}
