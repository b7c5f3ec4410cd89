//! Differential property tests of the one-hot first layer that MSCN
//! inference runs: `Dense::infer_onehot(hot, rest)` must equal
//! `Dense::infer` on the materialized rows `e(hot[r]) ⊕ rest[r]`, bit for
//! bit with NaN compared as one class, for inputs and weights that mix in
//! `±0`, subnormals, `±1e30`, NaN and `±Inf`. `Mlp::abs_bound`, the premise
//! under which MSCN skips absent set elements, must bound every output.

use pace_tensor::nn::{Activation, Dense, Mlp};
use pace_tensor::{Matrix, ParamStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ACTS: [Activation; 4] = [
    Activation::None,
    Activation::Relu,
    Activation::Sigmoid,
    Activation::Tanh,
];

/// Values that stress the `±0` argument: signed zeros, subnormals, huge
/// magnitudes and, when `nonfinite`, NaN and `±Inf`.
fn value(nonfinite: bool) -> impl Strategy<Value = f32> {
    (0u8..16, -2.0f32..2.0).prop_map(move |(pick, x)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(1),
        3 => -f32::MIN_POSITIVE / 4.0,
        4 => 1e30,
        5 => -1e30,
        6 if nonfinite => f32::NAN,
        7 if nonfinite => f32::INFINITY,
        8 if nonfinite => f32::NEG_INFINITY,
        _ => x,
    })
}

/// The bits of `m`, with every NaN mapped to one pattern.
fn canonical_bits(m: &Matrix) -> Vec<u32> {
    m.data()
        .iter()
        .map(|&x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// Overwrites every parameter in `ps` with values cycled from `vals`.
fn fill(ps: &mut ParamStore, vals: &[f32]) {
    let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
    let mut k = 0;
    for id in ids {
        for v in ps.get_mut(id).data_mut() {
            *v = vals[k % vals.len()];
            k += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn infer_onehot_matches_infer_on_materialized_rows(
        width in 1usize..6,
        rest_cols in 0usize..4,
        out in 1usize..6,
        act in 0usize..4,
        hot in prop::collection::vec(0usize..64, 0..7),
        rest_vals in prop::collection::vec(value(true), 24),
        nonfinite_weights in any::<bool>(),
        weights in prop::collection::vec(value(true), 13),
        finite_weights in prop::collection::vec(value(false), 13),
    ) {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(&mut ps, &mut rng, "d", width + rest_cols, out, ACTS[act]);
        fill(&mut ps, if nonfinite_weights { &weights } else { &finite_weights });
        let hot: Vec<usize> = hot.iter().map(|h| h % width).collect();
        let n = hot.len();
        let rest = Matrix::from_vec(
            n,
            rest_cols,
            (0..n * rest_cols).map(|k| rest_vals[k % rest_vals.len()]).collect(),
        );
        let mut x = Matrix::zeros(n, width + rest_cols);
        for (r, &h) in hot.iter().enumerate() {
            x.set(r, h, 1.0);
            for c in 0..rest_cols {
                x.set(r, width + c, rest.get(r, c));
            }
        }
        let got = layer.infer_onehot(&ps, &hot, &rest);
        prop_assert_eq!(got.shape(), (n, out));
        prop_assert_eq!(canonical_bits(&got), canonical_bits(&layer.infer(&ps, &x)));
    }

    #[test]
    fn abs_bound_bounds_every_output(
        dims in prop::collection::vec(1usize..6, 2..5),
        act in 0usize..4,
        x_max in (0usize..4).prop_map(|k| [1.0f32, 0.5, 1e10, 1e30][k]),
        nonfinite in any::<bool>(),
        weights in prop::collection::vec(value(true), 17),
        finite_weights in prop::collection::vec(value(false), 17),
        picks in prop::collection::vec(-1.0f32..=1.0, 20),
    ) {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&mut ps, &mut rng, "m", &dims, ACTS[act], ACTS[(act + 1) % 4]);
        fill(&mut ps, if nonfinite { &weights } else { &finite_weights });
        let bound = mlp.abs_bound(&ps, x_max);
        let finite = ps.iter().all(|(_, m)| m.all_finite());
        if !finite {
            prop_assert_eq!(bound, f32::INFINITY);
        }
        let n = 4;
        let x = Matrix::from_vec(
            n,
            dims[0],
            (0..n * dims[0]).map(|k| picks[k % picks.len()] * x_max).collect(),
        );
        if bound <= f32::MAX / 2.0 {
            let y = mlp.infer(&ps, &x);
            prop_assert!(
                y.data().iter().all(|v| v.abs() <= bound),
                "outputs {:?} above the bound {}", y.data(), bound
            );
        }
    }
}
