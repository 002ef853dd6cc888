//! Integration tests for the parallel multi-seed sweep engine: the
//! worker-thread count must never change any aggregated table, and the
//! whole multi-seed evaluation suite must stay cheap enough to run
//! inside `cargo test`.

use std::num::NonZeroUsize;
use std::time::Duration;

use loramesher_repro::scenario::experiments::{self, ExpOptions};
use loramesher_repro::scenario::{run_parallel, seed_list};

fn opts(seeds: usize, jobs: usize) -> ExpOptions {
    ExpOptions {
        seeds: NonZeroUsize::new(seeds).unwrap(),
        jobs: NonZeroUsize::new(jobs).unwrap(),
        ..ExpOptions::quick()
    }
}

/// E5 (the headline protocol comparison) replicated over 4 seeds must
/// render byte-identical tables whether the runs are sharded over 1 or
/// 4 worker threads.
#[test]
fn e5_multi_seed_tables_are_jobs_invariant() {
    let serial = experiments::e5_protocol_comparison(&opts(4, 1));
    let parallel = experiments::e5_protocol_comparison(&opts(4, 4));
    assert_eq!(serial, parallel);
    // With several seeds the cells carry dispersion, proving the seeds
    // actually differ.
    let rendered = serial.to_string();
    assert!(
        rendered.contains('±'),
        "expected mean ± sd cells:\n{rendered}"
    );
}

/// A single replication seed must reproduce the legacy single-run table
/// exactly, no matter how many workers are configured.
#[test]
fn single_seed_table_matches_legacy_output() {
    let legacy = experiments::e5_protocol_comparison(&ExpOptions::quick());
    let pool = experiments::e5_protocol_comparison(&opts(1, 4));
    assert_eq!(legacy, pool);
    assert!(
        !legacy.to_string().contains('±'),
        "single runs have no dispersion"
    );
}

/// The raw pool primitive returns results in work order for any mix of
/// job counts and work sizes.
#[test]
fn run_parallel_matches_serial_for_simulation_sized_work() {
    let seeds = seed_list(7, 9);
    let f = |&s: &u64| {
        // A cheap stand-in with seed-dependent output.
        s.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17)
    };
    for jobs in [1, 2, 3, 8] {
        assert_eq!(
            run_parallel(&seeds, jobs, f),
            run_parallel(&seeds, 1, f),
            "jobs = {jobs}"
        );
    }
}

/// Down-scaled exp_all smoke: the full 17-experiment suite, replicated
/// over 2 seeds and sharded over 2 workers, finishes well inside the
/// tier-1 test budget and yields well-formed tables.
#[test]
fn quick_suite_runs_multi_seed_end_to_end() {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "times the suite itself, not anything the suite computes"
    )]
    let start = std::time::Instant::now();
    let tables = experiments::all(&opts(2, 2));
    let elapsed = start.elapsed();
    assert_eq!(tables.len(), 17, "E1–E13 + A1–A4");
    for table in &tables {
        assert!(!table.rows.is_empty(), "{} produced no rows", table.title);
        for row in &table.rows {
            assert_eq!(row.len(), table.columns.len(), "{}", table.title);
        }
    }
    assert!(elapsed < Duration::from_secs(60), "suite took {elapsed:?}");
}
