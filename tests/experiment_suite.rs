//! Smoke test for the complete evaluation harness: every experiment
//! (E1–E13 and the ablations) runs end to end in quick mode and produces
//! a well-formed, non-empty table. This is the regression net under
//! `exp_all` — if a protocol change breaks an experiment, it fails
//! here first, in `cargo test`.

use loramesher_repro::scenario::experiments::{self, ExpOptions};

#[test]
fn every_experiment_produces_a_table() {
    let tables = experiments::all(&ExpOptions::quick());
    assert_eq!(tables.len(), 17, "E1–E13 + A1–A4");
    for ((id, _), table) in experiments::ALL.iter().zip(&tables) {
        // Each id names its table: the title starts with it in upper case.
        let prefix = format!("{} ", id.to_uppercase());
        assert!(table.title.starts_with(&prefix), "{id}: {}", table.title);
        assert!(!table.columns.is_empty(), "{}", table.title);
        assert!(!table.rows.is_empty(), "{} produced no rows", table.title);
        for row in &table.rows {
            assert_eq!(row.len(), table.columns.len(), "{}", table.title);
            assert!(row.iter().all(|c| !c.is_empty()), "{}", table.title);
        }
        // Every rendering path works on every table.
        assert!(!table.to_string().is_empty());
        assert!(table.to_markdown().starts_with("### "));
        assert!(table.to_csv().lines().count() == table.rows.len() + 1);
    }
}

/// The ids `exp_all` selects tables by are unique.
#[test]
fn experiment_ids_are_unique() {
    for (i, (id, _)) in experiments::ALL.iter().enumerate() {
        assert!(
            experiments::ALL[..i].iter().all(|(other, _)| other != id),
            "duplicate id {id}"
        );
    }
}

#[test]
fn experiments_are_deterministic_across_invocations() {
    let a = experiments::e1_convergence(&ExpOptions::quick());
    let b = experiments::e1_convergence(&ExpOptions::quick());
    assert_eq!(a, b);
}

#[test]
fn seed_changes_tables() {
    let a = experiments::e3_pdr_vs_hops(&ExpOptions::quick());
    let b = experiments::e3_pdr_vs_hops(&ExpOptions {
        seed: 1234,
        quick: true,
        ..ExpOptions::default()
    });
    // Grey-zone losses depend on the seed, so the PDR column differs.
    assert_ne!(a, b);
}
