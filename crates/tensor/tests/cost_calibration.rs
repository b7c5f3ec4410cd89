//! The cost oracle's calibrated FLOP rate against the kernel it prices.
//!
//! `pool::cost::calibrate` once timed a single serially dependent
//! multiply-add chain, which measures add latency: it reported well under
//! one flop per ns while the matmul panel kernel sustains tens, so the
//! oracle mispriced compute by more than an order of magnitude. This test
//! pins the probe to the rate a real 192×192 matmul reaches on the same
//! host. The bound is a generous quarter because the host may be shared.

use pace_tensor::{pool, Matrix};
use std::time::Instant;

#[test]
fn calibrated_flop_rate_is_plausible_against_matmul() {
    // Single-thread rates on both sides: the matmul must not fan out.
    pool::set_threads(1);
    const N: usize = 192;
    let a = Matrix::from_vec(N, N, (0..N * N).map(|i| (i % 17) as f32 * 0.25).collect());
    let b = Matrix::from_vec(N, N, (0..N * N).map(|i| (i % 13) as f32 * 0.5).collect());
    let flops = (2 * N * N * N) as f64;
    let mut best_ns = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        let c = a.matmul(&b);
        best_ns = best_ns.min(t.elapsed().as_nanos() as f64);
        std::hint::black_box(c);
    }
    let matmul_flops_per_ns = flops / best_ns.max(1.0);
    let calibrated = pool::cost::calibrate();
    assert!(calibrated.plausible(), "{calibrated:?}");
    assert!(
        calibrated.flops_per_ns >= matmul_flops_per_ns / 4.0,
        "calibrated {:.2} flops/ns is below a quarter of the {:.2} flops/ns \
         a 192x192 matmul sustains",
        calibrated.flops_per_ns,
        matmul_flops_per_ns
    );
}
