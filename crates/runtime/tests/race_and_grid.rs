//! Concurrency-safety integration tests for the pool: property-tested chunk
//! grids (pairwise-disjoint, exact cover), deterministic panic propagation
//! at scope join, and the armed `PACE_RACE` checker catching a seeded dirty
//! write set.

use pace_runtime as pool;
use pace_runtime::flags::FlagMode;
use pace_runtime::race;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `chunk_ranges` grids are pairwise-disjoint and exactly cover
    /// `0..len` for arbitrary lengths and `min_chunk`s — verified through
    /// the same write-set checker the armed pool uses at run time.
    #[test]
    fn chunk_grids_tile_exactly(len in 0usize..20_000, min_chunk in 0usize..5_000) {
        let grid = pool::chunk_ranges(len, min_chunk);
        let spans: Vec<race::TaskSpan> = grid
            .iter()
            .enumerate()
            .map(|(task, &(lo, hi))| race::TaskSpan { task, lo, hi })
            .collect();
        prop_assert!(race::check_write_set("prop::grid", len, &spans).is_ok());
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// A panicking pool task surfaces its own payload at scope join — and when
/// several tasks panic, the lowest-indexed payload wins deterministically,
/// no matter which worker hit its panic first.
#[test]
fn pool_task_panic_surfaces_at_join_with_lowest_index() {
    pool::set_threads(4);
    let result = std::panic::catch_unwind(|| {
        pool::run(64, |i| {
            if i == 9 || i == 33 {
                panic!("task {i} exploded");
            }
        });
    });
    pool::set_threads(0);
    let payload = result.expect_err("panic must propagate to the caller");
    assert_eq!(
        panic_message(payload),
        "task 9 exploded",
        "lowest-indexed panic must win"
    );
}

/// A panic inside `par_map` must reach the caller as the task's own
/// message — not as the misleading `expect("pool task completed")` the
/// empty result slot would otherwise produce.
#[test]
fn par_map_panic_is_not_masked_as_missing_slot() {
    pool::set_threads(3);
    let result = std::panic::catch_unwind(|| {
        pool::par_map(&[0usize; 32], |i, _| {
            if i == 7 {
                panic!("mapper died at {i}");
            }
            i
        })
    });
    pool::set_threads(0);
    let msg = panic_message(result.expect_err("panic must propagate"));
    assert!(msg.contains("mapper died at 7"), "got: {msg:?}");
    assert!(!msg.contains("pool task completed"), "got: {msg:?}");
}

/// Fail-on-old-code witness for the dynamic checker: a hand-rolled grid
/// with a hole leaves part of the output to no task; `PACE_RACE=strict`
/// must turn that write set into a panic naming the gap.
#[test]
fn strict_race_checker_catches_gap_grid() {
    race::RACE.set(FlagMode::Strict);
    let result = std::panic::catch_unwind(|| {
        // Dirty by construction: [3, 5) is received by no task.
        let spans = [
            race::TaskSpan {
                task: 0,
                lo: 0,
                hi: 3,
            },
            race::TaskSpan {
                task: 1,
                lo: 5,
                hi: 10,
            },
        ];
        if let Err(report) = race::check_write_set("gap grid", 10, &spans) {
            race::handle(&report);
        }
    });
    race::RACE.set(FlagMode::Off);
    let msg = panic_message(result.expect_err("strict checker must panic on the gap"));
    assert!(msg.contains("write-set violation"), "got: {msg:?}");
    assert!(msg.contains("gap: [3, 5)"), "got: {msg:?}");
}

/// The armed checker accepts every clean primitive — no false positives on
/// the pool's own grids, at any thread count or adversarial seed.
#[test]
fn armed_checker_is_silent_on_clean_regions() {
    race::RACE.set(FlagMode::Strict);
    for seed in [None, Some(11u64)] {
        race::set_sched(seed);
        for t in [1usize, 4] {
            pool::set_threads(t);
            pool::run(37, |_| {});
            let data: Vec<u64> = pool::par_map(&[0u64; 513], |i, _| i as u64);
            assert!(data.iter().enumerate().all(|(i, &v)| v as usize == i));
            let sums = pool::par_chunks(data.len(), 16, |lo, hi| data[lo..hi].iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), (0..513u64).sum::<u64>());
        }
    }
    race::set_sched(None);
    race::RACE.set(FlagMode::Off);
    pool::set_threads(0);
}
