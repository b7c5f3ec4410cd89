//! Property tests for the deterministic parallel runtime: on random shapes,
//! values (including zeros, NaN, and infinities), and thread counts, the
//! pool-parallel matmul and elementwise kernels must be **bit-identical**
//! to their sequential execution — the contract that makes `PACE_THREADS`
//! a pure performance knob.

use pace_tensor::{pool, Matrix};
use proptest::prelude::*;

/// Deterministic value table mixing magnitudes, exact zeros, and non-finite
/// sentinels, so zero products and NaN propagation (`0 · NaN`, `0 · Inf`)
/// are both exercised.
fn value(code: u8) -> f32 {
    match code % 16 {
        0..=2 => 0.0,
        3 => f32::NAN,
        4 => f32::INFINITY,
        5 => -1.5e20,
        6 => 1e-20,
        n => (n as f32 - 10.0) * 0.37,
    }
}

fn matrix_from(rows: usize, cols: usize, codes: &[u8]) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| value(codes[i % codes.len()].wrapping_add(i as u8)))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Matmul at any thread count reproduces the single-thread bits. Shapes
    /// up to 96×64·64×96 cross the parallel fan-out threshold; small shapes
    /// cover the sequential path of the same kernel.
    #[test]
    fn matmul_parallel_matches_sequential(
        n in 1usize..96,
        k in 1usize..64,
        m in 1usize..96,
        codes in proptest::collection::vec(any::<u8>(), 1..64),
        threads in 1usize..9,
    ) {
        let a = matrix_from(n, k, &codes);
        let b = matrix_from(k, m, &codes);
        pool::set_threads(1);
        let reference = a.matmul(&b);
        pool::set_threads(threads);
        let parallel = a.matmul(&b);
        pool::set_threads(0);
        prop_assert_eq!(bits(&parallel), bits(&reference));
    }

    /// Elementwise map/zip are chunk-invariant: any thread count reproduces
    /// the sequential bits (sizes chosen to cross the elementwise fan-out
    /// threshold of 2^16 elements).
    #[test]
    fn elementwise_parallel_matches_sequential(
        rows in 1usize..3,
        cols in 60_000usize..80_000,
        codes in proptest::collection::vec(any::<u8>(), 1..32),
        threads in 2usize..9,
    ) {
        let a = matrix_from(rows, cols, &codes);
        let b = matrix_from(rows, cols, &codes);
        pool::set_threads(1);
        let map_ref = a.map(|x| x * 1.0625 - 0.25);
        let zip_ref = a.zip(&b, |x, y| x * y + 0.5);
        pool::set_threads(threads);
        let map_par = a.map(|x| x * 1.0625 - 0.25);
        let zip_par = a.zip(&b, |x, y| x * y + 0.5);
        pool::set_threads(0);
        prop_assert_eq!(bits(&map_par), bits(&map_ref));
        prop_assert_eq!(bits(&zip_par), bits(&zip_ref));
    }
}
