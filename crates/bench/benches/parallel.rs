//! Parallel-runtime payoff measurement: batch query labeling through
//! [`pace_engine::Executor::count_batch`], the one library fan-out, timed
//! at `PACE_THREADS = 1` vs 2 workers (the hardware threads of the 2-vCPU
//! host the committed numbers come from). The determinism contract makes
//! the thread count a pure performance knob, so the two timings compute
//! bit-identical results. Run with `CRITERION_JSON=$PWD/BENCH_parallel.json`
//! (an absolute path: cargo runs benches from the package directory) to
//! publish the numbers; speedups are hardware-dependent (single-core
//! runners report ~1×).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pace_data::{build, DatasetKind, Scale};
use pace_engine::Executor;
use pace_tensor::pool;
use pace_workload::{generate_queries, Query, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAR_THREADS: usize = 2;

fn bench_count_batch(c: &mut Criterion) {
    let ds = build(DatasetKind::Tpch, Scale::quick(), 7);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<Query> = generate_queries(&ds, &WorkloadSpec::default(), &mut rng, 128);

    pool::set_threads(1);
    let reference = exec.count_batch(&queries);
    pool::set_threads(PAR_THREADS);
    assert_eq!(
        exec.count_batch(&queries),
        reference,
        "count_batch must be thread-count invariant"
    );

    for (id, threads) in [
        ("parallel/count_batch_t1", 1),
        ("parallel/count_batch_t2", PAR_THREADS),
    ] {
        pool::set_threads(threads);
        c.bench_function(id, |b| {
            b.iter(|| black_box(exec.count_batch(black_box(&queries))))
        });
    }
    pool::set_threads(0);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_count_batch
}
criterion_main!(benches);
