//! Neural-network building blocks.
//!
//! Every layer stores only [`ParamId`]s; forward passes take a [`Binding`]
//! that maps ids to graph vars. Evaluating a model at parameters that exist
//! only inside a graph (the attack's `θ_k` chain) is therefore just a matter
//! of constructing a different binding.
//!
//! Each layer also has a tape-free `infer` that reads its parameters
//! straight from a [`ParamStore`] and returns values only. It applies the
//! same [`Matrix`] kernels, in the same order and on the same operands, as
//! the graph ops its `forward` records, so the two agree bit for bit.

use crate::graph::{Graph, Var};
use crate::init;
use crate::matrix::Matrix;
use crate::param::{Binding, ParamId, ParamStore};
use rand::Rng;

/// Activation applied after a [`Dense`] layer's affine transform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation as a graph op.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::None => x,
            Activation::Relu => g.relu(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Tanh => g.tanh(x),
        }
    }

    /// Applies the activation to values, with the kernel [`Activation::apply`]
    /// records.
    pub fn infer(self, x: Matrix) -> Matrix {
        match self {
            Activation::None => x,
            Activation::Relu => x.relu(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Tanh => x.tanh(),
        }
    }
}

/// Fully connected layer `act(x·W + b)` over row-major batches (`n×in`).
#[derive(Clone, Debug)]
pub struct Dense {
    w: ParamId,
    b: ParamId,
    act: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Allocates a layer's parameters in `ps` (He init for ReLU, Xavier
    /// otherwise; zero bias).
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        act: Activation,
    ) -> Self {
        let w_init = match act {
            Activation::Relu => init::he_uniform(rng, in_dim, out_dim),
            _ => init::xavier_uniform(rng, in_dim, out_dim),
        };
        let w = ps.alloc(format!("{name}.w"), w_init);
        let b = ps.alloc(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Self {
            w,
            b,
            act,
            in_dim,
            out_dim,
        }
    }

    /// Forward pass for a `n×in_dim` batch, producing `n×out_dim`.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        debug_assert_eq!(g.shape(x).1, self.in_dim, "Dense input width mismatch");
        let wx = g.matmul(x, bind.var(self.w));
        let z = g.add_row(wx, bind.var(self.b));
        self.act.apply(g, z)
    }

    /// Tape-free [`Dense::forward`] at the parameters in `ps`.
    pub fn infer(&self, ps: &ParamStore, x: &Matrix) -> Matrix {
        debug_assert_eq!(x.cols(), self.in_dim, "Dense input width mismatch");
        let z = x.matmul(ps.get(self.w)).add_row(ps.get(self.b));
        self.act.infer(z)
    }

    /// [`Dense::infer`] on rows that are one-hot in their first
    /// `in_dim − rest.cols()` inputs: row `r` is `e(hot[r]) ⊕ rest[r]`.
    ///
    /// The matmul kernel adds a row's products to `+0.0` in ascending input
    /// order, and a zero input times a finite weight adds `±0`, which leaves
    /// an accumulator that is never `−0.0` unchanged. So output `j` of row
    /// `r` is `((+0.0 + W[h][j]) + rest₀·W[b][j]) + rest₁·W[b+1][j] + …`
    /// with `h = hot[r]` and `b` the first `rest` input, which this forms
    /// directly. A non-finite weight in the one-hot block would turn a
    /// skipped `0·w` into NaN, so then the rows are materialized and run
    /// through [`Dense::infer`]. Either way the result is bit-identical to
    /// `infer` on the materialized rows.
    pub fn infer_onehot(&self, ps: &ParamStore, hot: &[usize], rest: &Matrix) -> Matrix {
        debug_assert_eq!(hot.len(), rest.rows(), "one row of rest per hot index");
        let (w, m) = (ps.get(self.w), self.out_dim);
        let width = self.in_dim - rest.cols();
        debug_assert!(
            hot.iter().all(|&h| h < width),
            "hot index past the one-hot block"
        );
        let (block, rest_w) = w.data().split_at(width * m);
        if !block.iter().all(|v| v.is_finite()) {
            let mut x = Matrix::zeros(hot.len(), self.in_dim);
            for (r, &h) in hot.iter().enumerate() {
                let row = &mut x.data_mut()[r * self.in_dim..(r + 1) * self.in_dim];
                row[h] = 1.0;
                row[width..].copy_from_slice(rest.row_slice(r));
            }
            return self.infer(ps, &x);
        }
        let mut z = Matrix::zeros(hot.len(), m);
        for (r, (out, &h)) in z.data_mut().chunks_exact_mut(m).zip(hot).enumerate() {
            for (o, &v) in out.iter_mut().zip(&block[h * m..(h + 1) * m]) {
                *o = 0.0 + v;
            }
            for (&xv, w_row) in rest.row_slice(r).iter().zip(rest_w.chunks_exact(m)) {
                for (o, &v) in out.iter_mut().zip(w_row) {
                    *o += xv * v;
                }
            }
        }
        self.act.infer(z.add_row(ps.get(self.b)))
    }

    /// An upper bound on the magnitude of every output of [`Dense::infer`]
    /// on inputs of magnitude at most `x_max`, or `+Inf` when a parameter
    /// is not finite: `|z_j| ≤ Σ|b| + x_max·Σ|W|`, and no activation maps
    /// a pre-activation `z` above `max(|z|, 1)`.
    fn abs_bound(&self, ps: &ParamStore, x_max: f32) -> f32 {
        let z = abs_sum(ps.get(self.b)) + x_max * abs_sum(ps.get(self.w));
        if z.is_finite() {
            z.max(1.0)
        } else {
            f32::INFINITY
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// The sum of `|v|` over `m`, accumulated in eight lanes so that it
/// vectorizes. A NaN or ±Inf entry makes it NaN or `+Inf`.
fn abs_sum(m: &Matrix) -> f32 {
    let mut lanes = [0f32; 8];
    let chunks = m.data().chunks_exact(8);
    let tail: f32 = chunks.remainder().iter().map(|v| v.abs()).sum();
    for chunk in chunks {
        for (l, v) in lanes.iter_mut().zip(chunk) {
            *l += v.abs();
        }
    }
    lanes.iter().sum::<f32>() + tail
}

/// A stack of [`Dense`] layers.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP through the widths in `dims` (length ≥ 2); every hidden
    /// layer uses `hidden_act`, the final layer uses `out_act`.
    ///
    /// # Panics
    /// Panics when fewer than two widths are supplied.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "Mlp needs at least input and output widths"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == dims.len() {
                    out_act
                } else {
                    hidden_act
                };
                Dense::new(ps, rng, &format!("{name}.{i}"), w[0], w[1], act)
            })
            .collect();
        Self { layers }
    }

    /// Forward pass through every layer.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        self.layers
            .iter()
            .fold(x, |h, layer| layer.forward(g, bind, h))
    }

    /// Tape-free [`Mlp::forward`] at the parameters in `ps`.
    pub fn infer(&self, ps: &ParamStore, x: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("non-empty");
        rest.iter()
            .fold(first.infer(ps, x), |h, layer| layer.infer(ps, &h))
    }

    /// [`Mlp::infer`] with the first layer run by [`Dense::infer_onehot`].
    pub fn infer_onehot(&self, ps: &ParamStore, hot: &[usize], rest: &Matrix) -> Matrix {
        let (first, layers) = self.layers.split_first().expect("non-empty");
        layers
            .iter()
            .fold(first.infer_onehot(ps, hot, rest), |h, layer| {
                layer.infer(ps, &h)
            })
    }

    /// An upper bound on the magnitude of every output of [`Mlp::infer`] on
    /// inputs of magnitude at most `x_max`, or `+Inf` when a parameter is
    /// not finite. It is computed in `f32`, so the bound is itself rounded:
    /// compare it against a threshold with headroom, not against `f32::MAX`.
    pub fn abs_bound(&self, ps: &ParamStore, x_max: f32) -> f32 {
        self.layers
            .iter()
            .fold(x_max, |b, layer| layer.abs_bound(ps, b))
    }

    /// The layers, for introspection.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Input width of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }
}

/// Elman RNN cell: `h' = tanh(x·Wx + h·Wh + b)`.
#[derive(Clone, Debug)]
pub struct RnnCell {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    hidden: usize,
}

impl RnnCell {
    /// Allocates cell parameters.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let wx = ps.alloc(
            format!("{name}.wx"),
            init::xavier_uniform(rng, in_dim, hidden),
        );
        let wh = ps.alloc(
            format!("{name}.wh"),
            init::xavier_uniform(rng, hidden, hidden),
        );
        let b = ps.alloc(format!("{name}.b"), Matrix::zeros(1, hidden));
        Self { wx, wh, b, hidden }
    }

    /// One step: consumes `x` (`n×in`) and `h` (`n×hidden`), returns `h'`.
    pub fn step(&self, g: &mut Graph, bind: &Binding, x: Var, h: Var) -> Var {
        let xw = g.matmul(x, bind.var(self.wx));
        let hw = g.matmul(h, bind.var(self.wh));
        let s = g.add(xw, hw);
        let s = g.add_row(s, bind.var(self.b));
        g.tanh(s)
    }

    /// Tape-free [`RnnCell::step`] at the parameters in `ps`. A zero `h`
    /// is still multiplied by `Wh`, as on the tape, so a non-finite `Wh`
    /// reaches the output on both paths.
    pub fn infer(&self, ps: &ParamStore, x: &Matrix, h: &Matrix) -> Matrix {
        let hw = h.matmul(ps.get(self.wh));
        x.matmul(ps.get(self.wx))
            .add_elems(&hw)
            .add_row(ps.get(self.b))
            .tanh()
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// A zero initial hidden state for a batch of `n` rows.
    pub fn zero_state(&self, g: &mut Graph, n: usize) -> Var {
        g.leaf(Matrix::zeros(n, self.hidden))
    }
}

/// LSTM cell with input/forget/output gates and a candidate cell state.
#[derive(Clone, Debug)]
pub struct LstmCell {
    // One (wx, wh, b) triple per gate: input, forget, output, candidate.
    gates: [(ParamId, ParamId, ParamId); 4],
    hidden: usize,
}

impl LstmCell {
    /// Allocates cell parameters. The forget-gate bias starts at 1.0, the
    /// standard trick to avoid early vanishing of the cell state.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let mut make = |gate: &str, bias: f32| {
            let wx = ps.alloc(
                format!("{name}.{gate}.wx"),
                init::xavier_uniform(rng, in_dim, hidden),
            );
            let wh = ps.alloc(
                format!("{name}.{gate}.wh"),
                init::xavier_uniform(rng, hidden, hidden),
            );
            let b = ps.alloc(format!("{name}.{gate}.b"), Matrix::full(1, hidden, bias));
            (wx, wh, b)
        };
        let gates = [
            make("i", 0.0),
            make("f", 1.0),
            make("o", 0.0),
            make("c", 0.0),
        ];
        Self { gates, hidden }
    }

    fn gate(&self, g: &mut Graph, bind: &Binding, idx: usize, x: Var, h: Var) -> Var {
        let (wx, wh, b) = self.gates[idx];
        let xw = g.matmul(x, bind.var(wx));
        let hw = g.matmul(h, bind.var(wh));
        let s = g.add(xw, hw);
        g.add_row(s, bind.var(b))
    }

    fn gate_infer(&self, ps: &ParamStore, idx: usize, x: &Matrix, h: &Matrix) -> Matrix {
        let (wx, wh, b) = self.gates[idx];
        let hw = h.matmul(ps.get(wh));
        x.matmul(ps.get(wx)).add_elems(&hw).add_row(ps.get(b))
    }

    /// One step: `(h, c) → (h', c')` for an `n×in` input batch.
    pub fn step(&self, g: &mut Graph, bind: &Binding, x: Var, h: Var, c: Var) -> (Var, Var) {
        let i_pre = self.gate(g, bind, 0, x, h);
        let i = g.sigmoid(i_pre);
        let f_pre = self.gate(g, bind, 1, x, h);
        let f = g.sigmoid(f_pre);
        let o_pre = self.gate(g, bind, 2, x, h);
        let o = g.sigmoid(o_pre);
        let cand_pre = self.gate(g, bind, 3, x, h);
        let cand = g.tanh(cand_pre);
        let fc = g.mul(f, c);
        let ic = g.mul(i, cand);
        let c_next = g.add(fc, ic);
        let c_act = g.tanh(c_next);
        let h_next = g.mul(o, c_act);
        (h_next, c_next)
    }

    /// Tape-free [`LstmCell::step`] at the parameters in `ps`: `(h, c) →
    /// (h', c')`, every product the tape forms included.
    pub fn infer(&self, ps: &ParamStore, x: &Matrix, h: &Matrix, c: &Matrix) -> (Matrix, Matrix) {
        let i = self.gate_infer(ps, 0, x, h).sigmoid();
        let f = self.gate_infer(ps, 1, x, h).sigmoid();
        let o = self.gate_infer(ps, 2, x, h).sigmoid();
        let cand = self.gate_infer(ps, 3, x, h).tanh();
        let ic = i.mul_elems(&cand);
        let c_next = f.mul_elems(c).add_elems(&ic);
        let h_next = o.mul_elems(&c_next.tanh());
        (h_next, c_next)
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Zero `(h, c)` state for a batch of `n` rows.
    pub fn zero_state(&self, g: &mut Graph, n: usize) -> (Var, Var) {
        let h = g.leaf(Matrix::zeros(n, self.hidden));
        let c = g.leaf(Matrix::zeros(n, self.hidden));
        (h, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::optim::{Optimizer, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let layer = Dense::new(&mut ps, &mut rng, "d", 3, 5, Activation::Relu);
        let mut g = Graph::new();
        let bind = ps.bind(&mut g);
        let x = g.leaf(Matrix::ones(4, 3));
        let y = layer.forward(&mut g, &bind, x);
        assert_eq!(g.shape(y), (4, 5));
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ps = ParamStore::new();
        let mlp = Mlp::new(
            &mut ps,
            &mut rng,
            "m",
            &[2, 8, 1],
            Activation::Tanh,
            Activation::Sigmoid,
        );
        let xs = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut opt = Sgd::new(1.0);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            let mut g = Graph::new();
            let bind = ps.bind(&mut g);
            let x = g.leaf(xs.clone());
            let t = g.leaf(ys.clone());
            let pred = mlp.forward(&mut g, &bind, x);
            let diff = g.sub(pred, t);
            let sq = g.mul(diff, diff);
            let loss = g.mean_all(sq);
            final_loss = g.value(loss).as_scalar();
            let grads = g.grad_values(loss, bind.vars());
            opt.step(&mut ps, &grads);
        }
        assert!(final_loss < 0.05, "XOR loss did not converge: {final_loss}");
    }

    #[test]
    fn rnn_cell_shapes_and_state() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let cell = RnnCell::new(&mut ps, &mut rng, "r", 4, 6);
        let mut g = Graph::new();
        let bind = ps.bind(&mut g);
        let h0 = cell.zero_state(&mut g, 3);
        let x = g.leaf(Matrix::ones(3, 4));
        let h1 = cell.step(&mut g, &bind, x, h0);
        assert_eq!(g.shape(h1), (3, 6));
        // tanh output bounded.
        assert!(g.value(h1).data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_cell_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let cell = LstmCell::new(&mut ps, &mut rng, "l", 4, 6);
        let mut g = Graph::new();
        let bind = ps.bind(&mut g);
        let (h0, c0) = cell.zero_state(&mut g, 2);
        let x = g.leaf(Matrix::ones(2, 4));
        let (h1, c1) = cell.step(&mut g, &bind, x, h0, c0);
        assert_eq!(g.shape(h1), (2, 6));
        assert_eq!(g.shape(c1), (2, 6));
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A `rows×cols` batch with mixed signs, exact zeros and `−0.0`.
    fn batch(rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => ((i * 37 % 101) as f32 - 50.0) / 17.0,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Every layer's `infer` equals its graph `forward` bit for bit.
    #[test]
    fn infer_matches_forward_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ps = ParamStore::new();
        let mlps: Vec<Mlp> = [Activation::Relu, Activation::Tanh, Activation::None]
            .into_iter()
            .map(|act| Mlp::new(&mut ps, &mut rng, "m", &[5, 7, 3], act, Activation::Sigmoid))
            .collect();
        let rnn = RnnCell::new(&mut ps, &mut rng, "r", 5, 4);
        let lstm = LstmCell::new(&mut ps, &mut rng, "l", 5, 4);
        for n in [1, 3, 8] {
            let xv = batch(n, 5);
            let mut g = Graph::new();
            let bind = ps.bind(&mut g);
            let x = g.leaf(xv.clone());
            for mlp in &mlps {
                let y = mlp.forward(&mut g, &bind, x);
                assert_eq!(bits(&mlp.infer(&ps, &xv)), bits(g.value(y)));
            }
            let (h0, c0) = lstm.zero_state(&mut g, n);
            let (h1, c1) = lstm.step(&mut g, &bind, x, h0, c0);
            let (h2, c2) = lstm.step(&mut g, &bind, x, h1, c1);
            let zero = Matrix::zeros(n, 4);
            let (ih1, ic1) = lstm.infer(&ps, &xv, &zero, &zero);
            let (ih2, ic2) = lstm.infer(&ps, &xv, &ih1, &ic1);
            assert_eq!(bits(&ih2), bits(g.value(h2)));
            assert_eq!(bits(&ic2), bits(g.value(c2)));
            let r0 = rnn.zero_state(&mut g, n);
            let r1 = rnn.step(&mut g, &bind, x, r0);
            let r2 = rnn.step(&mut g, &bind, x, r1);
            let ir1 = rnn.infer(&ps, &xv, &zero);
            assert_eq!(bits(&rnn.infer(&ps, &xv, &ir1)), bits(g.value(r2)));
        }
    }

    /// The matmul kernel starts every sum at `+0.0`, so a `−0.0` weight on
    /// the hot input plus a `−0.0` bias gives `+0.0`, which `tanh` keeps.
    #[test]
    fn infer_onehot_starts_sums_at_positive_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let layer = Dense::new(&mut ps, &mut rng, "d", 3, 2, Activation::Tanh);
        let ids: Vec<ParamId> = ps.iter().map(|(id, _)| id).collect();
        for &id in &ids {
            ps.get_mut(id).data_mut().fill(-0.0);
        }
        let hot = [0, 2, 1];
        let x = Matrix::from_vec(3, 3, vec![1., 0., 0., 0., 0., 1., 0., 1., 0.]);
        let got = layer.infer_onehot(&ps, &hot, &Matrix::zeros(3, 0));
        assert_eq!(bits(&got), bits(&layer.infer(&ps, &x)));
        assert!(
            got.data().iter().all(|v| v.to_bits() == 0),
            "{:?}",
            got.data()
        );
    }

    #[test]
    fn lstm_remembers_longer_than_one_step() {
        // Feed a distinctive first input then zeros; the hidden state after
        // several steps must still depend on the first input.
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamStore::new();
        let cell = LstmCell::new(&mut ps, &mut rng, "l", 2, 4);
        let run = |ps: &ParamStore, first: f32| -> Vec<f32> {
            let mut g = Graph::new();
            let bind = ps.bind(&mut g);
            let (mut h, mut c) = cell.zero_state(&mut g, 1);
            for t in 0..4 {
                let x = g.leaf(Matrix::row(&[if t == 0 { first } else { 0.0 }, 0.0]));
                let (h2, c2) = cell.step(&mut g, &bind, x, h, c);
                h = h2;
                c = c2;
            }
            g.value(h).data().to_vec()
        };
        let a = run(&ps, 1.0);
        let b = run(&ps, -1.0);
        assert_ne!(a, b, "LSTM forgot its first input entirely");
    }
}

#[cfg(test)]
mod activation_tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn activation_none_is_identity() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[-2.0, 3.0]));
        let y = Activation::None.apply(&mut g, x);
        assert_eq!(g.value(y).data(), &[-2.0, 3.0]);
    }

    #[test]
    fn activations_bound_outputs() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[-50.0, 50.0]));
        let s = Activation::Sigmoid.apply(&mut g, x);
        assert!(g.value(s).data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let t = Activation::Tanh.apply(&mut g, x);
        assert!(g.value(t).data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        let r = Activation::Relu.apply(&mut g, x);
        assert_eq!(g.value(r).data(), &[0.0, 50.0]);
    }
}
