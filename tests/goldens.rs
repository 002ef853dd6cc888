//! The golden table (`tests/scenarios/table.rs`) as a whole: every row
//! has its pins in `tests/goldens.txt` and a test of its suite that
//! checks it, and checkpoints only observe a run. To re-pin after an
//! intentional behaviour change:
//!
//! ```text
//! GOLDENS_REPIN=1 cargo test --test goldens -- --nocapture
//! ```
//!
//! It rewrites `tests/goldens.txt` from each row's first engine, still
//! fails on an engine that disagrees or a guard that does not hold, and
//! prints each changed row's first divergence for the change to quote.

#[expect(
    dead_code,
    unused_imports,
    unused_macros,
    reason = "each row's suite declares its tests with `table::golden_tests!`; this file checks the table whole"
)]
mod scenarios;

use std::collections::BTreeSet;

use radio_sim::time::SimTime;
use radio_sim::trace::TraceEvent;
use scenario::seed_list;
use scenarios::table::{parse_pins, pinned, rows, verify, Run, CHECKPOINTS};

/// Every run of every row has a pin and every pin a row, and every row
/// is grouped under a test its suite declares, so no pin goes unchecked
/// or stale. With `GOLDENS_REPIN` set, the whole table is first run and
/// `tests/goldens.txt` rewritten.
#[test]
fn every_row_has_its_pins_and_its_test() {
    let mut pins = pinned();
    if std::env::var_os("GOLDENS_REPIN").is_some() {
        let (failures, fresh) = verify(&rows(), &pins, true);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        let header = "# Golden digests of tests/scenarios/table.rs, one run a line: row, seed,\n\
                      # then the trace-window, phy, nodes and report digests of each checkpoint.\n\
                      # Rewritten by `GOLDENS_REPIN=1 cargo test --test goldens`.\n";
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens.txt");
        std::fs::write(path, format!("{header}{fresh}")).expect("write tests/goldens.txt");
        pins = parse_pins(&fresh);
    }
    let mut unclaimed: BTreeSet<_> = pins.into_keys().collect();
    let mut tests = BTreeSet::new();
    for row in rows() {
        for seed in seed_list(row.seed, row.seeds) {
            let label = row.label();
            assert!(
                unclaimed.remove(&(label.clone(), seed)),
                "{label} (seed {seed}) has no pin in tests/goldens.txt"
            );
        }
        tests.insert(row.test);
    }
    assert!(unclaimed.is_empty(), "pins without a row: {unclaimed:?}");
    for test in tests {
        let (suite, name) = test.split_once("::").expect("<suite>::<test>");
        let path = format!("{}/tests/{suite}.rs", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).unwrap_or_default();
        let mut words = source.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        assert!(
            words.any(|word| word == name),
            "rows are grouped under {test}, which {path} does not declare"
        );
    }
}

/// Checkpoints observe a run without changing it: in slices or straight
/// through, every row ends with the same trace, metrics, node state and
/// report under every engine it lists. Radio-state accounting is closed
/// once, after the last slice, either way.
#[test]
fn checkpoints_do_not_change_the_run() {
    let trace = |run: &Run| -> Vec<(SimTime, TraceEvent)> {
        run.checkpoints
            .iter()
            .flat_map(|c| c.window.iter().cloned())
            .collect()
    };
    let last = |run: &Run| run.checkpoints.last().unwrap().digests[1..].to_vec();
    for row in rows() {
        for &engine in row.engines {
            let sliced = row.scenario.record(row.seed, engine, CHECKPOINTS);
            let whole = row.scenario.record(row.seed, engine, 1);
            let at = format!("{} under {engine:?}", row.label());
            assert!(
                trace(&sliced) == trace(&whole),
                "{at}: slicing changed the trace"
            );
            assert_eq!(
                last(&sliced),
                last(&whole),
                "{at}: slicing changed the final phy, nodes or report"
            );
        }
    }
}
