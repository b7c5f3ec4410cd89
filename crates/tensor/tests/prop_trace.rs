//! Property tests for the tracing layer's zero-perturbation contract: a
//! traced run must be **bit-identical** to an untraced run of the same
//! computation, at any thread count. Tracing observes the pipeline — spans,
//! counters, histograms — without touching a single float.

use pace_tensor::{pool, trace, Graph, Matrix};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Tracing (like fault injection) is process-global state; property cases
/// must not interleave with each other or with other trace tests.
fn lock() -> MutexGuard<'static, ()> {
    static TRACE_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match TRACE_LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn scratch_trace_path() -> PathBuf {
    std::env::temp_dir().join(format!("pace-prop-trace-{}.jsonl", std::process::id()))
}

/// Finite value table (tracing determinism is about not perturbing the
/// numerics; NaN propagation is prop_parallel's business).
fn value(code: u8) -> f32 {
    ((code % 23) as f32 - 11.0) * 0.173 + 0.05
}

fn matrix_from(rows: usize, cols: usize, codes: &[u8]) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| value(codes[i % codes.len()].wrapping_add(i as u8)))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A small training-shaped tape: matmul chain, elementwise nonlinearity,
/// scalar loss, gradients back to both leaves. Returns every output bit.
fn run_tape(n: usize, k: usize, m: usize, codes: &[u8]) -> Vec<u32> {
    let _span = trace::span("prop::run_tape");
    let mut g = Graph::new();
    let a = g.leaf(matrix_from(n, k, codes));
    let b = g.leaf(matrix_from(k, m, codes));
    let h = g.matmul(a, b);
    let s = g.sigmoid(h);
    let sq = g.mul(s, s);
    let loss = g.sum_all(sq);
    let grads = g.grad(loss, &[a, b]);
    let mut bits: Vec<u32> = g.value(loss).data().iter().map(|x| x.to_bits()).collect();
    for v in grads {
        bits.extend(g.value(v).data().iter().map(|x| x.to_bits()));
    }
    bits
}

/// A pool-parallel elementwise pass, large enough to cross the fan-out
/// threshold so worker-side counter/histogram updates happen while traced.
fn run_pool(cols: usize, codes: &[u8]) -> Vec<u32> {
    let _span = trace::span("prop::run_pool");
    let a = matrix_from(1, cols, codes);
    a.map(|x| x * 1.0625 - 0.25)
        .data()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arming the tracer changes nothing about the computation: same seeds,
    /// same shapes, same bits — with the pool at 1 and 4 threads.
    #[test]
    fn traced_run_is_bit_identical_to_untraced(
        n in 1usize..48,
        k in 1usize..32,
        m in 1usize..48,
        cols in 60_000usize..70_000,
        codes in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let _guard = lock();
        let path = scratch_trace_path();
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            trace::install(None);
            let tape_ref = run_tape(n, k, m, &codes);
            let pool_ref = run_pool(cols, &codes);

            trace::install(Some(path.clone()));
            let tape_traced = run_tape(n, k, m, &codes);
            let pool_traced = run_pool(cols, &codes);
            trace::flush();
            trace::install(None);

            prop_assert_eq!(&tape_traced, &tape_ref, "tape bits differ at {} threads", threads);
            prop_assert_eq!(&pool_traced, &pool_ref, "pool bits differ at {} threads", threads);

            // The trace itself must be substantive: spans recorded, and the
            // matmul FLOP counter snapshot present in the flushed file.
            let text = std::fs::read_to_string(&path).expect("trace file written");
            prop_assert!(text.lines().any(|l| l.contains("prop::run_tape")));
            prop_assert!(text.lines().any(|l| l.contains("matmul_flops")));
        }
        pool::set_threads(0);
        let _ = std::fs::remove_file(&path);
    }
}

/// A span's time excludes the lines written while it was open, so the
/// children of a parent that does nothing but run them cover it: here ≥ 95%,
/// with 200 children of a few microseconds each, where a line written at
/// each child's close used to count in the parent alone.
#[test]
fn children_doing_real_work_cover_their_parent() {
    let _guard = lock();
    let path = std::env::temp_dir().join(format!("pace-trace-cover-{}.jsonl", std::process::id()));
    trace::install(Some(path.clone()));
    let a = matrix_from(24, 24, &[3, 7, 11]);
    {
        let _parent = trace::span("prop::parent");
        for _ in 0..200 {
            let _child = trace::span("prop::child");
            std::hint::black_box(a.matmul(&a));
        }
    }
    trace::flush();
    trace::install(None);
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let dur = |name: &str| -> u64 {
        text.lines()
            .filter_map(trace::read::parse_line)
            .filter(|m| m.get("name").and_then(|v| v.as_str()) == Some(name))
            .filter_map(|m| m.get("dur_ns").and_then(|v| v.as_u64()))
            .sum()
    };
    let (parent, children) = (dur("prop::parent"), dur("prop::child"));
    assert!(parent > 0, "no parent span in the trace");
    assert!(
        children as f64 >= 0.95 * parent as f64,
        "children cover {children} of {parent} ns"
    );
}
