//! First-order optimizers operating on a [`ParamStore`].
//!
//! A training step takes gradient matrices from the graph with the value-only
//! backward pass ([`crate::Graph::grad_values`], which appends nothing to the
//! tape) and hands them to an optimizer together with the store. Optimizer
//! state (Adam moments) is keyed by parameter order, so one optimizer must
//! stay paired with one store.

use crate::matrix::Matrix;
use crate::param::ParamStore;

/// A stateful gradient-descent rule.
pub trait Optimizer {
    /// Applies one update. `grads[i]` must correspond to the `i`-th parameter
    /// of `params` in allocation order.
    ///
    /// # Panics
    /// Panics when `grads.len() != params.len()` or shapes mismatch.
    fn step(&mut self, params: &mut ParamStore, grads: &[Matrix]);

    /// The base learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the base learning rate (used for "large steps in the case of
    /// small gradients" escapes from local optima — Section 5.3).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent: `θ ← θ − lr·g`.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamStore, grads: &[Matrix]) {
        assert_eq!(grads.len(), params.len(), "gradient count mismatch");
        let ids: Vec<_> = params.iter().map(|(id, _)| id).collect();
        for (i, id) in ids.into_iter().enumerate() {
            let g = &grads[i];
            let p = params.get_mut(id);
            assert_eq!(p.shape(), g.shape(), "gradient shape mismatch at {i}");
            for (pv, gv) in p.data_mut().iter_mut().zip(g.data()) {
                *pv -= self.lr * gv;
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, 2014) with bias correction — the optimizer the paper
/// applies to both CE models and the generator (learning rate `1e-3`).
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates Adam with the paper's defaults (`β₁=0.9, β₂=0.999, ε=1e-8`).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, params: &ParamStore) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|(_, p)| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.v = self.m.clone();
        }
    }

    /// Snapshots the optimizer's full mutable state. Restoring this snapshot
    /// via [`Adam::import_state`] makes subsequent steps bit-identical to the
    /// trajectory from the snapshot point — the contract the
    /// checkpoint/rollback machinery relies on.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a snapshot taken by [`Adam::export_state`].
    pub fn import_state(&mut self, state: AdamState) {
        self.lr = state.lr;
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }
}

/// The mutable state of an [`Adam`] optimizer: learning rate, step count,
/// and the first/second moment estimates (in parameter allocation order).
/// `β`/`ε` are construction-time constants and are not part of the state.
#[derive(Clone, Debug, PartialEq)]
pub struct AdamState {
    /// Current learning rate (rollback recovery halves this).
    pub lr: f32,
    /// Bias-correction step count.
    pub t: u64,
    /// First-moment estimates.
    pub m: Vec<Matrix>,
    /// Second-moment estimates.
    pub v: Vec<Matrix>,
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore, grads: &[Matrix]) {
        assert_eq!(grads.len(), params.len(), "gradient count mismatch");
        self.ensure_state(params);
        assert_eq!(self.m.len(), params.len(), "Adam state / store mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<_> = params.iter().map(|(id, _)| id).collect();
        for (i, id) in ids.into_iter().enumerate() {
            let g = &grads[i];
            let p = params.get_mut(id);
            assert_eq!(p.shape(), g.shape(), "gradient shape mismatch at {i}");
            let (m, v) = (self.m[i].data_mut(), self.v[i].data_mut());
            assert_eq!(m.len(), g.len(), "Adam state shape mismatch at {i}");
            // Zipped slices carry no bounds checks, so the loop vectorizes;
            // every operation is IEEE-exact per lane (no fused multiply-add),
            // so vector and scalar code round alike.
            let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
            for (((pj, mj), vj), &gj) in p.data_mut().iter_mut().zip(m).zip(v).zip(g.data()) {
                *mj = b1 * *mj + (1.0 - b1) * gj;
                *vj = b2 * *vj + (1.0 - b2) * gj * gj;
                let mhat = *mj / bc1;
                let vhat = *vj / bc2;
                *pj -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Rescales `grads` in place so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm (saturating to `f32::INFINITY` only when the
/// true norm exceeds `f32::MAX`).
///
/// Squared magnitudes accumulate in `f64`: any single `f32` gradient entry
/// above `~1.8e19` squares past `f32::MAX`, and an `f32` accumulator would
/// overflow to `inf`, making `scale = max_norm / inf = 0` and silently
/// zeroing every gradient — the exact spikes clipping exists to tame.
pub fn clip_global_norm(grads: &mut [Matrix], max_norm: f32) -> f32 {
    let norm = grads
        .iter()
        .map(|g| {
            g.data()
                .iter()
                .map(|&x| f64::from(x) * f64::from(x))
                .sum::<f64>()
        })
        .sum::<f64>()
        .sqrt();
    if norm > f64::from(max_norm) && norm > 0.0 {
        let scale = f64::from(max_norm) / norm;
        for g in grads.iter_mut() {
            for x in g.data_mut() {
                *x = (f64::from(*x) * scale) as f32;
            }
        }
    }
    norm as f32
}

/// Replaces NaN/Inf gradient entries with zero. The attack's Q-error losses
/// can spike; this keeps a single bad batch from destroying the parameters.
pub fn sanitize(grads: &mut [Matrix]) {
    for g in grads.iter_mut() {
        for x in g.data_mut() {
            if !x.is_finite() {
                *x = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimizes (x-3)^2 and checks convergence.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut ps = ParamStore::new();
        let x = ps.alloc("x", Matrix::scalar(0.0));
        for _ in 0..steps {
            let mut g = Graph::new();
            let bind = ps.bind(&mut g);
            let xv = bind.var(x);
            let diff = g.add_scalar(xv, -3.0);
            let loss = g.mul(diff, diff);
            let grads = g.grad_values(loss, bind.vars());
            opt.step(&mut ps, &grads);
        }
        ps.get(x).as_scalar()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let x = run_quadratic(&mut opt, 100);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let x = run_quadratic(&mut opt, 300);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    /// The vectorized step must round exactly like a scalar per-element
    /// indexed loop, across signed zeros, subnormals, large and negative
    /// values.
    #[test]
    fn adam_step_matches_the_indexed_loop_bit_for_bit() {
        let vals = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 3.0,
            1e-30,
            -2.5,
            0.75,
            3e18,
            -1e30,
            f32::MAX / 4.0,
            1.0,
            -7.125,
        ];
        let n = vals.len();
        let grad =
            |s: usize| Matrix::from_vec(1, n, (0..n).map(|j| vals[(j * 5 + s) % n]).collect());
        let mut ps = ParamStore::new();
        let x = ps.alloc("x", Matrix::from_vec(1, n, vals.to_vec()));
        let mut opt = Adam::new(0.01);
        let (b1, b2, eps) = (0.9_f32, 0.999_f32, 1e-8_f32);
        let (mut p, mut m, mut v) = (vals.to_vec(), vec![0.0_f32; n], vec![0.0_f32; n]);
        for step in 1..=4 {
            let g = grad(step);
            opt.step(&mut ps, std::slice::from_ref(&g));
            let bc1 = 1.0 - b1.powi(step as i32);
            let bc2 = 1.0 - b2.powi(step as i32);
            for j in 0..n {
                let gj = g.data()[j];
                m[j] = b1 * m[j] + (1.0 - b1) * gj;
                v[j] = b2 * v[j] + (1.0 - b2) * gj * gj;
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                p[j] -= 0.01 * mhat / (vhat.sqrt() + eps);
            }
            let got: Vec<u32> = ps.get(x).data().iter().map(|f| f.to_bits()).collect();
            let want: Vec<u32> = p.iter().map(|f| f.to_bits()).collect();
            assert_eq!(got, want, "step {step}");
        }
    }

    #[test]
    fn clip_reduces_norm() {
        let mut grads = vec![Matrix::row(&[3.0, 4.0])];
        let pre = clip_global_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post = grads[0].norm();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_below_threshold() {
        let mut grads = vec![Matrix::row(&[0.3, 0.4])];
        clip_global_norm(&mut grads, 1.0);
        assert_eq!(grads[0].data(), &[0.3, 0.4]);
    }

    /// Regression: with an `f32` accumulator, `(1e20)² = inf`, so the norm
    /// was `inf`, `scale = 1/inf = 0`, and every gradient was silently
    /// zeroed. The `f64` accumulator must instead rescale onto the ball.
    #[test]
    fn clip_survives_f32_overflow() {
        let mut grads = vec![Matrix::row(&[1e20, -1e20, 0.0])];
        let pre = clip_global_norm(&mut grads, 1.0);
        assert!(pre.is_infinite() || pre > 1e20, "pre-clip norm reported");
        let post = grads[0].norm();
        assert!(
            (post - 1.0).abs() < 1e-4,
            "gradients zeroed instead of clipped: {:?}",
            grads[0].data()
        );
        // Direction is preserved.
        assert!(grads[0].data()[0] > 0.0 && grads[0].data()[1] < 0.0);
        assert_eq!(grads[0].data()[2], 0.0);
    }

    #[test]
    fn sanitize_zeroes_nonfinite() {
        let mut grads = vec![Matrix::row(&[f32::NAN, 1.0, f32::INFINITY])];
        sanitize(&mut grads);
        assert_eq!(grads[0].data(), &[0.0, 1.0, 0.0]);
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn learning_rate_is_adjustable_through_trait_objects() {
        let mut opts: Vec<Box<dyn Optimizer>> =
            vec![Box::new(Sgd::new(0.1)), Box::new(Adam::new(0.1))];
        for opt in &mut opts {
            assert_eq!(opt.learning_rate(), 0.1);
            opt.set_learning_rate(0.5);
            assert_eq!(opt.learning_rate(), 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "gradient count mismatch")]
    fn wrong_gradient_count_is_rejected() {
        let mut ps = ParamStore::new();
        ps.alloc("x", Matrix::scalar(0.0));
        let mut opt = Sgd::new(0.1);
        opt.step(&mut ps, &[]);
    }
}
