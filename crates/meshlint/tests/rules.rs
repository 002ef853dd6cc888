//! End-to-end tests over the fixture workspaces in `tests/fixtures/`.
//!
//! `fixtures/ws` is a miniature workspace whose hot file holds one
//! panic site of every `r1` class, one allowed site, and string,
//! comment and test-module decoys that must NOT fire. `fixtures/bad`
//! holds malformed directives; `fixtures/graph` seeds every call-graph
//! rule. The fixture sources are plain text to meshlint — they are
//! never compiled.

use std::path::{Path, PathBuf};
use std::process::Command;

use meshlint::{analyze, Analysis, Config, Finding, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze_fixture(name: &str) -> Analysis {
    analyze(&Config::workspace(fixture(name))).expect("fixture tree readable")
}

fn count(findings: &[Finding], rule: Rule, file: &str) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.file == file)
        .count()
}

#[test]
fn every_panic_class_fires_in_a_hot_file() {
    let a = analyze_fixture("ws");
    assert_eq!(
        count(&a.findings, Rule::R1, "crates/core/src/codec.rs"),
        5,
        "indexing, unwrap, expect, panic!, unreachable!: {:#?}",
        a.findings
    );
    assert_eq!(a.findings.len(), 5, "no unexpected findings");
    assert!(a.directive_errors.is_empty());
}

#[test]
fn decoys_and_test_modules_do_not_fire() {
    let a = analyze_fixture("ws");
    // Comments and string literals (lines 4-6) never match; the
    // `#[cfg(test)]` module repeats every violation below line 22.
    assert!(
        a.findings.iter().all(|f| (9..22).contains(&f.line)),
        "{:#?}",
        a.findings
    );
}

#[test]
fn allow_directives_suppress_with_reason() {
    let a = analyze_fixture("ws");
    assert_eq!(a.allowed, 1, "the allowed `frame[1]`");
    assert!(!a.findings.iter().any(|f| f.line == 17));
}

#[test]
fn malformed_directives_are_errors_and_do_not_suppress() {
    let a = analyze_fixture("bad");
    assert_eq!(
        a.directive_errors.len(),
        3,
        "missing reason + unknown rule + allow(e1): {:#?}",
        a.directive_errors
    );
    // The reasonless allow must NOT suppress the index underneath it.
    assert_eq!(count(&a.findings, Rule::R1, "crates/core/src/packet.rs"), 1);
}

#[test]
fn graph_rules_fire_on_their_seeded_violations() {
    let a = analyze_fixture("graph");
    let transport = "crates/core/src/stack/transport.rs";
    assert_eq!(
        count(&a.findings, Rule::R1, transport),
        2,
        "same-crate + cross-crate panicking helpers: {:#?}",
        a.findings
    );
    let engine = "crates/radio-sim/src/engine.rs";
    assert_eq!(
        count(&a.findings, Rule::P1, engine),
        2,
        "direct Mutex + transitive AtomicBool"
    );
    assert_eq!(count(&a.findings, Rule::F1, engine), 1, "captured `total`");
    let commit = "crates/radio-sim/src/commit.rs";
    assert_eq!(
        count(&a.findings, Rule::P1, commit),
        2,
        "direct alloc_seq mint + transitive Trace write in a \
         commit_bands region: {:#?}",
        a.findings
    );
    let sim = "crates/radio-sim/src/sim.rs";
    assert_eq!(
        count(&a.findings, Rule::S1, sim),
        2,
        "arithmetic seq + literal seq"
    );
    let flood = "crates/core/src/flood/mod.rs";
    assert_eq!(
        count(&a.findings, Rule::S1, flood),
        1,
        "a protocol impl minting its own relay seq: {:#?}",
        a.findings
    );
    let state = "crates/radio-sim/src/state.rs";
    assert_eq!(count(&a.findings, Rule::E1, state), 2, "stale allows");
    assert_eq!(a.findings.len(), 12, "{:#?}", a.findings);
    assert_eq!(a.allowed, 3, "p1 + f1 + s1 escapes");
    assert!(a.directive_errors.is_empty());
}

#[test]
fn graph_findings_carry_witness_details() {
    let a = analyze_fixture("graph");
    let cross = a
        .findings
        .iter()
        .find(|f| f.rule == Rule::R1 && f.snippet.contains("util::widen"))
        .expect("cross-crate r1 finding");
    assert!(
        cross.detail.contains("crates/util/src/lib.rs"),
        "witness names the panic site: {}",
        cross.detail
    );
    let p1t = a
        .findings
        .iter()
        .find(|f| f.rule == Rule::P1 && f.snippet.contains("bump_shared"))
        .expect("transitive p1 finding");
    assert!(p1t.detail.contains("bump_shared"), "{}", p1t.detail);
    let s1 = a
        .findings
        .iter()
        .find(|f| f.rule == Rule::S1)
        .expect("s1 finding");
    assert!(
        s1.detail.contains("not a coordinator-issued seq"),
        "{}",
        s1.detail
    );
}

#[test]
fn graph_decoys_do_not_fire() {
    let a = analyze_fixture("graph");
    // Dep scoping: the `isolated` crate's same-named panicking fn is
    // outside core's dependency closure — no finding references it.
    assert!(
        a.findings
            .iter()
            .all(|f| !f.file.contains("isolated") && !f.detail.contains("isolated")),
        "{:#?}",
        a.findings
    );
    // Helpers are reported at their hot anchors, never in their own files.
    assert!(!a.findings.iter().any(|f| f.file.ends_with("frag.rs")));
    assert!(!a
        .findings
        .iter()
        .any(|f| f.file.starts_with("crates/util/")));
    // The allow(r1) escape and the string decoy leave only the two
    // seeded anchors in the hot file.
    let anchors: Vec<&str> = a
        .findings
        .iter()
        .filter(|f| f.file.ends_with("transport.rs"))
        .map(|f| f.snippet.as_str())
        .collect();
    assert!(anchors
        .iter()
        .all(|s| s.contains("decode_frame") || s.contains("util::widen")));
    // `#[cfg(test)]` regions and macro bodies in engine.rs are excised:
    // every engine finding sits above the macro definition (line 36).
    assert!(a
        .findings
        .iter()
        .filter(|f| f.file.ends_with("engine.rs"))
        .all(|f| f.line < 36));
}

#[test]
fn cli_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_meshlint");
    let run = |args: &[&std::ffi::OsStr]| Command::new(bin).args(args).output().expect("runs");

    // Findings → exit 1, one report line per finding.
    let graph = fixture("graph");
    let out = run(&["--root".as_ref(), graph.as_os_str()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["r1", "p1", "s1", "f1", "e1"] {
        assert!(text.contains(&format!("[{rule}]")), "{text}");
    }
    assert!(text.contains("12 finding(s)"), "{text}");

    // Malformed directives fail the run.
    let bad = fixture("bad");
    let out = run(&["--root".as_ref(), bad.as_os_str()]);
    assert_eq!(out.status.code(), Some(1));

    // `--root` is the only flag: anything else is a usage error.
    for flag in ["--frobnicate", "--json", "--baseline"] {
        let out = run(&[flag.as_ref()]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }
}
