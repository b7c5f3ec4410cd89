//! A one-worker process labels without ever consulting the cost oracle.
//!
//! Resolving the oracle's constants takes a process-wide lock and, without
//! a `PACE_SCHED_COST` spec, runs `pool::cost::calibrate()`, whose probes
//! spawn hardware-wide threads and briefly raise the pool size. A process
//! pinned to one pool worker has nothing to fan out, so
//! [`Executor::count_batch`] must not pay for any of that. This file is its
//! own test binary, so no other test calibrates in the same process.

use pace_data::{build, DatasetKind, Scale};
use pace_engine::Executor;
use pace_runtime as pool;
use pace_workload::{generate_queries, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn count_batch_at_one_worker_never_calibrates() {
    // Without a pinned spec, resolving the constants has to calibrate.
    pool::cost::SCHED_COST.set(None);
    pool::set_threads(1);
    let ds = build(DatasetKind::Tpch, Scale::tiny(), 5);
    let exec = Executor::new(&ds);
    let queries = generate_queries(
        &ds,
        &WorkloadSpec::default(),
        &mut StdRng::seed_from_u64(6),
        96,
    );
    let one_worker = exec.count_batch(&queries);
    exec.label(queries.clone());
    assert_eq!(
        pool::cost::calibrations(),
        0,
        "count_batch at one worker consulted the cost oracle"
    );
    // Positive control: with two workers the oracle is consulted, so the
    // probe above can see a calibration when one happens. The counts match.
    pool::set_threads(2);
    assert_eq!(exec.count_batch(&queries), one_worker);
    assert_eq!(pool::cost::calibrations(), 1);
    pool::set_threads(0);
}
