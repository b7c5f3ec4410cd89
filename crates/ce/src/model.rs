//! The six query-driven CE models the paper attacks (Section 7.1).
//!
//! All models share one interface: a *differentiable* forward pass from a
//! batch of encoded queries (`n × (T + 2A)`) to normalized log-cardinalities
//! (`n × 1`, final sigmoid), with parameters read through a
//! [`pace_tensor::Binding`]. The binding indirection is what lets the attack
//! evaluate a model at parameters that exist only inside an autograd graph
//! (the unrolled update chain `θ_0 … θ_K`). Estimates never need a
//! gradient, so they take the tape-free [`CeModel::infer`], which returns
//! the same bits as `forward` without recording anything.
//!
//! | Type | Architecture |
//! |------|--------------|
//! | `Linear`  | one dense layer + sigmoid |
//! | `Fcn`     | MLP with ReLU hidden layers |
//! | `FcnPool` | three towers (join bits / lower bounds / upper bounds) mean-pooled into an MLP head |
//! | `Mscn`    | set modules: table set + predicate set through shared MLPs, masked-mean pooled, MLP head |
//! | `Rnn`     | per-query sequence over the pattern's attributes through an Elman cell |
//! | `Lstm`    | same sequence through an LSTM cell |

use crate::config::CeConfig;
use crate::error::TrainError;
use crate::loss::q_error_loss;
use pace_data::Dataset;
use pace_engine::CardEstimator;
use pace_tensor::fault;
use pace_tensor::nn::{Activation, Dense, LstmCell, Mlp, RnnCell};
use pace_tensor::optim::{clip_global_norm, sanitize, Adam, AdamState, Optimizer, Sgd};
use pace_tensor::{Binding, Graph, Matrix, ParamStore, Var};
use pace_workload::{Query, QueryEncoder, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The model families of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CeModelType {
    /// Lightweight fully connected network (Dutt et al.; Kim et al.).
    Fcn,
    /// Three FCNs with a pooling layer (Kim et al.).
    FcnPool,
    /// Multi-set convolutional network (Kipf et al.).
    Mscn,
    /// Recurrent network (Ortiz et al.).
    Rnn,
    /// Long short-term memory network.
    Lstm,
    /// Plain linear regression.
    Linear,
}

impl CeModelType {
    /// All six model types, in the paper's presentation order.
    pub fn all() -> [CeModelType; 6] {
        [
            CeModelType::Fcn,
            CeModelType::FcnPool,
            CeModelType::Mscn,
            CeModelType::Rnn,
            CeModelType::Lstm,
            CeModelType::Linear,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CeModelType::Fcn => "FCN",
            CeModelType::FcnPool => "FCN+Pool",
            CeModelType::Mscn => "MSCN",
            CeModelType::Rnn => "RNN",
            CeModelType::Lstm => "LSTM",
            CeModelType::Linear => "Linear",
        }
    }
}

#[derive(Clone)]
enum Arch {
    Linear {
        out: Dense,
    },
    Fcn {
        mlp: Mlp,
    },
    FcnPool {
        join_tower: Mlp,
        lo_tower: Mlp,
        hi_tower: Mlp,
        head: Mlp,
    },
    Mscn {
        table_mlp: Mlp,
        pred_mlp: Mlp,
        head: Mlp,
    },
    Rnn {
        cell: RnnCell,
        head: Dense,
    },
    Lstm {
        cell: LstmCell,
        head: Dense,
    },
}

/// A trained (or trainable) query-driven cardinality estimator.
#[derive(Clone)]
pub struct CeModel {
    ty: CeModelType,
    config: CeConfig,
    encoder: QueryEncoder,
    ln_max: f32,
    params: ParamStore,
    arch: Arch,
    adam: Adam,
    attrs_by_table: Vec<Vec<usize>>,
}

/// Encoded queries with natural-log cardinalities — the tensor-level training
/// set shared by models and the attack.
#[derive(Clone, Debug, Default)]
pub struct EncodedWorkload {
    /// Encoded query vectors.
    pub enc: Vec<Vec<f32>>,
    /// `ln(cardinality)` per query (cardinalities floored at 1).
    pub ln_card: Vec<f32>,
}

impl EncodedWorkload {
    /// Encodes a labeled workload.
    pub fn from_workload(encoder: &QueryEncoder, w: &Workload) -> Self {
        let enc = w.iter().map(|lq| encoder.encode(&lq.query)).collect();
        let ln_card = w
            .iter()
            .map(|lq| (lq.cardinality.max(1) as f32).ln())
            .collect();
        Self { enc, ln_card }
    }

    /// Builds directly from encodings and raw cardinalities.
    pub fn from_parts(enc: Vec<Vec<f32>>, cards: &[u64]) -> Self {
        assert_eq!(enc.len(), cards.len());
        let ln_card = cards.iter().map(|&c| (c.max(1) as f32).ln()).collect();
        Self { enc, ln_card }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.enc.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.enc.is_empty()
    }

    /// The subset at the given indices.
    pub fn subset(&self, idx: &[usize]) -> Self {
        Self {
            enc: idx.iter().map(|&i| self.enc[i].clone()).collect(),
            ln_card: idx.iter().map(|&i| self.ln_card[i]).collect(),
        }
    }
}

/// A recurrent cell step: `(graph, binding, input, state) → state'`.
type StepFn<'a> = &'a dyn Fn(&mut Graph, &Binding, Var, &[Var]) -> Vec<Var>;

/// Everything [`CeModel::train`] must restore to resume from a known-good
/// point: parameters, Adam state, the RNG mid-stream state, and the
/// best-epoch bookkeeping, pinned to an epoch index.
struct RollbackPoint {
    epoch: usize,
    params: Vec<Matrix>,
    adam: AdamState,
    rng: [u64; 4],
    best_loss: f32,
    best_params: Option<Vec<Matrix>>,
}

impl RollbackPoint {
    fn capture(
        model: &CeModel,
        rng: &StdRng,
        epoch: usize,
        best_loss: f32,
        best_params: &Option<Vec<Matrix>>,
    ) -> Self {
        Self {
            epoch,
            params: model.params.snapshot(),
            adam: model.adam.export_state(),
            rng: rng.state(),
            best_loss,
            best_params: best_params.clone(),
        }
    }

    /// Restores the captured state into `model`/`rng` and returns the epoch
    /// to resume from.
    fn restore(
        &self,
        model: &mut CeModel,
        rng: &mut StdRng,
        best_loss: &mut f32,
        best_params: &mut Option<Vec<Matrix>>,
    ) -> usize {
        model.params.restore(&self.params);
        model.adam.import_state(self.adam.clone());
        *rng = StdRng::from_state(self.rng);
        *best_loss = self.best_loss;
        *best_params = self.best_params.clone();
        self.epoch
    }
}

/// The `t×t` identity: the one-hot ids of MSCN's table-set elements.
fn identity(t: usize) -> Matrix {
    let mut m = Matrix::zeros(t, t);
    for i in 0..t {
        m.set(i, i, 1.0);
    }
    m
}

/// Stacks encoded rows into an `n×dim` matrix.
pub fn rows_to_matrix(rows: &[Vec<f32>]) -> Matrix {
    assert!(!rows.is_empty(), "empty batch");
    let dim = rows[0].len();
    let mut data = Vec::with_capacity(rows.len() * dim);
    for r in rows {
        assert_eq!(r.len(), dim, "ragged encoded batch");
        data.extend_from_slice(r);
    }
    Matrix::from_vec(rows.len(), dim, data)
}

impl CeModel {
    /// Creates an untrained model of the given type over a dataset. The
    /// log-cardinality normalization constant is the largest unfiltered
    /// pattern-join count (see [`pace_engine::ln_max_cardinality`]).
    pub fn new(ty: CeModelType, ds: &Dataset, config: CeConfig, seed: u64) -> Self {
        let encoder = QueryEncoder::new(ds);
        let ln_max = pace_engine::ln_max_cardinality(ds, 4) as f32;
        Self::with_encoder(ty, encoder, ln_max, config, seed)
    }

    /// Creates a model from an explicit encoder and normalization constant
    /// (used by the attack to construct surrogates without dataset access).
    pub fn with_encoder(
        ty: CeModelType,
        encoder: QueryEncoder,
        ln_max: f32,
        config: CeConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let dim = encoder.dim();
        let t = encoder.num_tables();
        let a = encoder.attributes().len();
        let h = config.hidden;
        let hidden_dims = |inp: usize| -> Vec<usize> {
            let mut dims = vec![inp];
            dims.extend(std::iter::repeat_n(h, config.layers.max(1)));
            dims
        };
        let arch = match ty {
            CeModelType::Linear => Arch::Linear {
                out: Dense::new(&mut params, &mut rng, "linear", dim, 1, Activation::Sigmoid),
            },
            CeModelType::Fcn => {
                let mut dims = hidden_dims(dim);
                dims.push(1);
                Arch::Fcn {
                    mlp: Mlp::new(
                        &mut params,
                        &mut rng,
                        "fcn",
                        &dims,
                        Activation::Relu,
                        Activation::Sigmoid,
                    ),
                }
            }
            CeModelType::FcnPool => {
                let tower = |params: &mut ParamStore, rng: &mut StdRng, name: &str, inp: usize| {
                    Mlp::new(
                        params,
                        rng,
                        name,
                        &hidden_dims(inp),
                        Activation::Relu,
                        Activation::Relu,
                    )
                };
                let join_tower = tower(&mut params, &mut rng, "pool.join", t);
                let lo_tower = tower(&mut params, &mut rng, "pool.lo", a.max(1));
                let hi_tower = tower(&mut params, &mut rng, "pool.hi", a.max(1));
                let head = Mlp::new(
                    &mut params,
                    &mut rng,
                    "pool.head",
                    &[h, h, 1],
                    Activation::Relu,
                    Activation::Sigmoid,
                );
                Arch::FcnPool {
                    join_tower,
                    lo_tower,
                    hi_tower,
                    head,
                }
            }
            CeModelType::Mscn => {
                let table_mlp = Mlp::new(
                    &mut params,
                    &mut rng,
                    "mscn.table",
                    &hidden_dims(t),
                    Activation::Relu,
                    Activation::Relu,
                );
                let pred_mlp = Mlp::new(
                    &mut params,
                    &mut rng,
                    "mscn.pred",
                    &hidden_dims(a.max(1) + 2),
                    Activation::Relu,
                    Activation::Relu,
                );
                let head = Mlp::new(
                    &mut params,
                    &mut rng,
                    "mscn.head",
                    &[2 * h, h, 1],
                    Activation::Relu,
                    Activation::Sigmoid,
                );
                Arch::Mscn {
                    table_mlp,
                    pred_mlp,
                    head,
                }
            }
            CeModelType::Rnn => {
                let cell = RnnCell::new(&mut params, &mut rng, "rnn", t + 2, h);
                let head = Dense::new(&mut params, &mut rng, "rnn.head", h, 1, Activation::Sigmoid);
                Arch::Rnn { cell, head }
            }
            CeModelType::Lstm => {
                let cell = LstmCell::new(&mut params, &mut rng, "lstm", t + 2, h);
                let head = Dense::new(
                    &mut params,
                    &mut rng,
                    "lstm.head",
                    h,
                    1,
                    Activation::Sigmoid,
                );
                Arch::Lstm { cell, head }
            }
        };
        let attrs_by_table = {
            let mut v = vec![Vec::new(); t];
            for (i, &(tb, _)) in encoder.attributes().iter().enumerate() {
                v[tb].push(i);
            }
            v
        };
        let adam = Adam::new(config.lr);
        Self {
            ty,
            config,
            encoder,
            ln_max,
            params,
            arch,
            adam,
            attrs_by_table,
        }
    }

    /// The model family.
    pub fn model_type(&self) -> CeModelType {
        self.ty
    }

    /// The hyperparameters the model was built with.
    pub fn config(&self) -> &CeConfig {
        &self.config
    }

    /// The query encoder (shape of the input space).
    pub fn encoder(&self) -> &QueryEncoder {
        &self.encoder
    }

    /// Normalization constant `ln C_max`.
    pub fn ln_max(&self) -> f32 {
        self.ln_max
    }

    /// Parameter store (read access).
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Parameter store (mutable — snapshot/restore around poisoning runs).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    fn lo_col(&self, attr: usize) -> usize {
        self.encoder.num_tables() + 2 * attr
    }

    fn hi_col(&self, attr: usize) -> usize {
        self.encoder.num_tables() + 2 * attr + 1
    }

    /// Differentiable forward pass: `x` is `n×dim`, result is `n×1` in (0,1).
    ///
    /// Every set element and every input column is on the tape, so `x` can
    /// be differentiated through its join bits and bounds: the attack's
    /// unroll does that. Training steps go through
    /// [`CeModel::loss_and_grads`], which gives this tape's bits but lets
    /// MSCN leave out the set elements a batch does not have.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        let (_, dim) = g.shape(x);
        assert_eq!(dim, self.encoder.dim(), "encoded width mismatch");
        match &self.arch {
            Arch::Linear { out } => out.forward(g, bind, x),
            Arch::Fcn { mlp } => mlp.forward(g, bind, x),
            Arch::FcnPool {
                join_tower,
                lo_tower,
                hi_tower,
                head,
            } => {
                let t = self.encoder.num_tables();
                let a = self.encoder.attributes().len();
                let join = g.slice_cols(x, 0, t);
                let (lo, hi) = if a == 0 {
                    let (n, _) = g.shape(x);
                    (g.leaf(Matrix::zeros(n, 1)), g.leaf(Matrix::ones(n, 1)))
                } else {
                    let lo_parts: Vec<Var> = (0..a)
                        .map(|i| g.slice_cols(x, self.lo_col(i), self.lo_col(i) + 1))
                        .collect();
                    let hi_parts: Vec<Var> = (0..a)
                        .map(|i| g.slice_cols(x, self.hi_col(i), self.hi_col(i) + 1))
                        .collect();
                    (g.concat_cols(&lo_parts), g.concat_cols(&hi_parts))
                };
                let hj = join_tower.forward(g, bind, join);
                let hl = lo_tower.forward(g, bind, lo);
                let hh = hi_tower.forward(g, bind, hi);
                let s = g.add(hj, hl);
                let s = g.add(s, hh);
                let pooled = g.mul_scalar(s, 1.0 / 3.0);
                head.forward(g, bind, pooled)
            }
            Arch::Mscn {
                table_mlp,
                pred_mlp,
                head,
            } => self.forward_mscn(g, bind, x, table_mlp, pred_mlp, head),
            Arch::Rnn { cell, head } => self.forward_sequence(
                g,
                bind,
                x,
                &|g, bind, inp, state| {
                    let h = cell.step(g, bind, inp, state[0]);
                    vec![h]
                },
                |g, n| vec![cell.zero_state(g, n)],
                head,
            ),
            Arch::Lstm { cell, head } => self.forward_sequence(
                g,
                bind,
                x,
                &|g, bind, inp, state| {
                    let (h, c) = cell.step(g, bind, inp, state[0], state[1]);
                    vec![h, c]
                },
                |g, n| {
                    let (h, c) = cell.zero_state(g, n);
                    vec![h, c]
                },
                head,
            ),
        }
    }

    fn forward_mscn(
        &self,
        g: &mut Graph,
        bind: &Binding,
        x: Var,
        table_mlp: &Mlp,
        pred_mlp: &Mlp,
        head: &Mlp,
    ) -> Var {
        let t = self.encoder.num_tables();
        let a = self.encoder.attributes().len();
        let (n, _) = g.shape(x);
        // Table set: shared MLP over all T one-hot table vectors (an identity
        // leaf), pooled by the query's normalized join bitmap. Equivalent to
        // the masked mean of per-element MLP outputs, but fully batched.
        let eye = g.leaf(identity(t));
        let table_reprs = table_mlp.forward(g, bind, eye); // T×h
        let join = g.slice_cols(x, 0, t); // n×T
        let counts = g.sum_cols(join); // n×1
        let counts = g.add_scalar(counts, 1e-6);
        let recip = g.pow_scalar(counts, -1.0);
        let tbl = g.matmul(join, table_reprs); // n×h
        let tbl = g.mul_col(tbl, recip);

        // Predicate set: one element per attribute (one-hot attr id ⊕ lo ⊕
        // hi) through a shared MLP, masked-mean pooled over attributes whose
        // table is in the pattern.
        let h = self.config.hidden;
        let pred = if a == 0 {
            g.leaf(Matrix::zeros(n, h))
        } else {
            let mut acc = g.leaf(Matrix::zeros(n, h));
            let mut cnt = g.leaf(Matrix::zeros(n, 1));
            for i in 0..a {
                let (tb, _) = self.encoder.attributes()[i];
                let onehot = {
                    let mut m = Matrix::zeros(1, a);
                    m.set(0, i, 1.0);
                    g.leaf(m)
                };
                let onehot = g.repeat_rows(onehot, n);
                let lo = g.slice_cols(x, self.lo_col(i), self.lo_col(i) + 1);
                let hi = g.slice_cols(x, self.hi_col(i), self.hi_col(i) + 1);
                let elem = g.concat_cols(&[onehot, lo, hi]);
                let repr = pred_mlp.forward(g, bind, elem); // n×h
                let mask = g.slice_cols(x, tb, tb + 1); // n×1
                let masked = g.mul_col(repr, mask);
                acc = g.add(acc, masked);
                cnt = g.add(cnt, mask);
            }
            let cnt = g.add_scalar(cnt, 1e-6);
            let recip = g.pow_scalar(cnt, -1.0);
            g.mul_col(acc, recip)
        };
        let joint = g.concat_cols(&[tbl, pred]);
        head.forward(g, bind, joint)
    }

    /// Shared RNN/LSTM forward: group the batch by join pattern (a constant
    /// permutation), run one sequence per group over the pattern's
    /// attributes, and un-permute the outputs.
    fn forward_sequence(
        &self,
        g: &mut Graph,
        bind: &Binding,
        x: Var,
        step: StepFn<'_>,
        zero_state: impl Fn(&mut Graph, usize) -> Vec<Var>,
        head: &Dense,
    ) -> Var {
        let t = self.encoder.num_tables();
        let (n, _) = g.shape(x);
        // Determine each row's pattern from current values.
        let patterns: Vec<Vec<usize>> = (0..n)
            .map(|r| self.pattern_of(g.value(x).row_slice(r)))
            .collect();
        // Order rows so equal patterns are contiguous.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| patterns[i].cmp(&patterns[j]));
        let perm = {
            let mut m = Matrix::zeros(n, n);
            for (new, &old) in order.iter().enumerate() {
                m.set(new, old, 1.0);
            }
            g.leaf(m)
        };
        let xg = g.matmul(perm, x);
        // Group boundaries.
        let mut outputs: Vec<Var> = Vec::new();
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n && patterns[order[end]] == patterns[order[start]] {
                end += 1;
            }
            let ng = end - start;
            let xs = g.slice_rows(xg, start, end);
            let pat = &patterns[order[start]];
            let mut state = zero_state(g, ng);
            for &tb in pat {
                let onehot = {
                    let mut m = Matrix::zeros(1, t);
                    m.set(0, tb, 1.0);
                    g.leaf(m)
                };
                let onehot = g.repeat_rows(onehot, ng);
                if self.attrs_by_table[tb].is_empty() {
                    let lo = g.leaf(Matrix::zeros(ng, 1));
                    let hi = g.leaf(Matrix::ones(ng, 1));
                    let inp = g.concat_cols(&[onehot, lo, hi]);
                    state = step(g, bind, inp, &state);
                } else {
                    for &i in &self.attrs_by_table[tb] {
                        let lo = g.slice_cols(xs, self.lo_col(i), self.lo_col(i) + 1);
                        let hi = g.slice_cols(xs, self.hi_col(i), self.hi_col(i) + 1);
                        let inp = g.concat_cols(&[onehot, lo, hi]);
                        state = step(g, bind, inp, &state);
                    }
                }
            }
            outputs.push(head.forward(g, bind, state[0]));
            start = end;
        }
        let stacked = if outputs.len() == 1 {
            outputs[0]
        } else {
            g.concat_rows(&outputs)
        };
        // Un-permute: P is a permutation, so P⁻¹ = Pᵀ.
        let pt = g.transpose(perm);
        g.matmul(pt, stacked)
    }

    /// Tape-free [`CeModel::forward`] at the stored parameters: `x` is
    /// `n×dim`, the result `n×1`. It builds no [`Graph`] and clones no
    /// parameter, and batches what training cannot: MSCN runs the predicate
    /// elements of the whole batch through `pred_mlp` in one matrix, and
    /// only those whose table is in the query (training's
    /// [`CeModel::loss_and_grads`] skips the same elements, one attribute
    /// at a time), and RNN/LSTM advance all
    /// rows together, sorted by sequence length, instead of one recurrence
    /// per join pattern.
    ///
    /// Each output row depends only on its own input row, and every value
    /// is formed by the floating-point operations its graph op performs, in
    /// the same order; MSCN drops only additions of `±0` that cannot change
    /// a bit (see `infer_mscn`). So the result is bit-identical to `forward`
    /// whenever `forward`'s outputs are all finite. The one difference:
    /// `forward` routes RNN/LSTM rows through a permutation matmul, which
    /// spreads a non-finite row to every row of the batch; `infer` keeps it
    /// in its own row.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.encoder.dim(), "encoded width mismatch");
        let ps = &self.params;
        match &self.arch {
            Arch::Linear { out } => out.infer(ps, x),
            Arch::Fcn { mlp } => mlp.infer(ps, x),
            Arch::FcnPool {
                join_tower,
                lo_tower,
                hi_tower,
                head,
            } => {
                let t = self.encoder.num_tables();
                let a = self.encoder.attributes().len();
                let n = x.rows();
                let join = x.slice_cols(0, t);
                let (lo, hi) = if a == 0 {
                    (Matrix::zeros(n, 1), Matrix::ones(n, 1))
                } else {
                    let mut lo = Matrix::zeros(n, a);
                    let mut hi = Matrix::zeros(n, a);
                    for r in 0..n {
                        for i in 0..a {
                            lo.set(r, i, x.get(r, self.lo_col(i)));
                            hi.set(r, i, x.get(r, self.hi_col(i)));
                        }
                    }
                    (lo, hi)
                };
                let hl = lo_tower.infer(ps, &lo);
                let hh = hi_tower.infer(ps, &hi);
                let pooled = join_tower
                    .infer(ps, &join)
                    .add_elems(&hl)
                    .add_elems(&hh)
                    .mul_scalar(1.0 / 3.0);
                head.infer(ps, &pooled)
            }
            Arch::Mscn {
                table_mlp,
                pred_mlp,
                head,
            } => self.infer_mscn(x, table_mlp, pred_mlp, head),
            Arch::Rnn { cell, head } => self.infer_sequence(
                x,
                1,
                &|inp, state| vec![cell.infer(ps, inp, &state[0])],
                head,
            ),
            Arch::Lstm { cell, head } => self.infer_sequence(
                x,
                2,
                &|inp, state| {
                    let (h, c) = cell.infer(ps, inp, &state[0], &state[1]);
                    vec![h, c]
                },
                head,
            ),
        }
    }

    /// [`CeModel::forward_mscn`] without a tape, over only the set
    /// elements the batch has. Both set modules run their first layer by
    /// [`Mlp::infer_onehot`]. `table_mlp` runs on the tables whose join bit
    /// is non-zero in some row, and `pred_mlp` once, on the `(attribute,
    /// row)` pairs whose join bit is non-zero, in attribute-major order.
    ///
    /// Each kept term is added where and in the order the tape adds it, so
    /// what differs is only the absent elements' `repr·0` terms. These are
    /// `±0` while `repr` is finite, and adding `±0` to an accumulator that
    /// starts at `+0.0` (and so is never `−0.0`) leaves it unchanged. An
    /// `Inf` repr would make the term NaN instead, so a set skips its
    /// absent elements only under the guard training shares: its MLP
    /// passes [`CeModel::skips_absent`] and, for predicates, every absent
    /// element's bounds lie in `[−1, 1]` ([`CeModel::present_pred_elems`]).
    /// Otherwise every element of that set runs, as on the tape.
    fn infer_mscn(&self, x: &Matrix, table_mlp: &Mlp, pred_mlp: &Mlp, head: &Mlp) -> Matrix {
        let ps = &self.params;
        let t = self.encoder.num_tables();
        let attrs = self.encoder.attributes();
        let a = attrs.len();
        let n = x.rows();

        let recip = x
            .slice_cols(0, t)
            .sum_cols()
            .add_scalar(1e-6)
            .pow_scalar(-1.0);
        let skip_tables = self.skips_absent(table_mlp);
        let tables: Vec<usize> = (0..t)
            .filter(|&tb| !skip_tables || (0..n).any(|r| x.get(r, tb) != 0.0))
            .collect();
        let table_reprs = table_mlp.infer_onehot(ps, &tables, &Matrix::zeros(tables.len(), 0));
        let join: Vec<f32> = (0..n)
            .flat_map(|r| tables.iter().map(move |&tb| x.get(r, tb)))
            .collect();
        let join = Matrix::from_vec(n, tables.len(), join);
        let tbl = join.matmul(&table_reprs).mul_col(&recip);

        let h = self.config.hidden;
        let pred = if a == 0 {
            Matrix::zeros(n, h)
        } else {
            let elems = self
                .present_pred_elems(x, pred_mlp)
                .unwrap_or_else(|| (0..a).flat_map(|i| (0..n).map(move |r| (i, r))).collect());
            let hot: Vec<usize> = elems.iter().map(|&(i, _)| i).collect();
            let mut rest = Matrix::zeros(elems.len(), 2);
            for (e, &(i, r)) in elems.iter().enumerate() {
                rest.set(e, 0, x.get(r, self.lo_col(i)));
                rest.set(e, 1, x.get(r, self.hi_col(i)));
            }
            let reprs = pred_mlp.infer_onehot(ps, &hot, &rest);
            let mut acc = Matrix::zeros(n, h);
            for (e, &(i, r)) in elems.iter().enumerate() {
                let mask = x.get(r, attrs[i].0);
                let row = &mut acc.data_mut()[r * h..(r + 1) * h];
                for (o, &v) in row.iter_mut().zip(reprs.row_slice(e)) {
                    *o += v * mask;
                }
            }
            let mut cnt = Matrix::zeros(n, 1);
            for &(tb, _) in attrs {
                for (r, c) in cnt.data_mut().iter_mut().enumerate() {
                    *c += x.get(r, tb);
                }
            }
            acc.mul_col(&cnt.add_scalar(1e-6).pow_scalar(-1.0))
        };
        head.infer(ps, &Matrix::concat_cols(&[&tbl, &pred]))
    }

    /// True when a set module may skip its absent elements: its MLP's
    /// output bound on inputs of magnitude at most 1 is finite with
    /// headroom, which requires every parameter of the MLP to be finite.
    /// Set elements are one-hot, and skipped predicate elements have bounds
    /// in `[−1, 1]`, so that covers every skipped input. Half of `f32::MAX`
    /// leaves room for the rounding of the bound and of the sums it bounds.
    fn skips_absent(&self, mlp: &Mlp) -> bool {
        mlp.abs_bound(&self.params, 1.0) <= f32::MAX / 2.0
    }

    /// The `(attribute, row)` pairs of MSCN's predicate set whose join bit
    /// in `x` is non-zero, in attribute-major order, when dropping the
    /// others is exact: `pred_mlp` passes [`CeModel::skips_absent`] and
    /// every absent element's bounds lie in `[−1, 1]`, so each absent
    /// representation is finite and its product with the zero join bit is
    /// `±0`. `None` when some absent element must run, as on the tape.
    fn present_pred_elems(&self, x: &Matrix, pred_mlp: &Mlp) -> Option<Vec<(usize, usize)>> {
        if !self.skips_absent(pred_mlp) {
            return None;
        }
        let within = |v: f32| v.abs() <= 1.0;
        let mut present = Vec::new();
        for (i, &(tb, _)) in self.encoder.attributes().iter().enumerate() {
            for r in 0..x.rows() {
                if x.get(r, tb) != 0.0 {
                    present.push((i, r));
                } else if !(within(x.get(r, self.lo_col(i))) && within(x.get(r, self.hi_col(i)))) {
                    return None;
                }
            }
        }
        Some(present)
    }

    /// The join pattern the recurrent models read from an encoded row: the
    /// tables whose bit is above 0.5, or table 0 when there are none.
    fn pattern_of(&self, row: &[f32]) -> Vec<usize> {
        let t = self.encoder.num_tables();
        let p: Vec<usize> = (0..t).filter(|&i| row[i] > 0.5).collect();
        if p.is_empty() {
            vec![0]
        } else {
            p
        }
    }

    /// The recurrent input sequence of one encoded row, as
    /// [`CeModel::forward_sequence`] feeds it: per table of the row's
    /// pattern, one `(table, attribute)` step per attribute, or a single
    /// `(table, None)` step with bounds `[0, 1]` for a table without
    /// attributes.
    fn sequence_of(&self, row: &[f32]) -> Vec<(usize, Option<usize>)> {
        self.pattern_of(row)
            .into_iter()
            .flat_map(|tb| {
                let attrs = &self.attrs_by_table[tb];
                if attrs.is_empty() {
                    vec![(tb, None)]
                } else {
                    attrs.iter().map(|&i| (tb, Some(i))).collect()
                }
            })
            .collect()
    }

    /// [`CeModel::forward_sequence`] without a tape. Rows are sorted by
    /// sequence length, longest first, and step `s` runs the cell on the
    /// prefix of rows whose sequences are longer than `s`. A row's state
    /// sees exactly the inputs it sees on the tape, so grouping by pattern
    /// and the permutation matmuls are not needed.
    fn infer_sequence(
        &self,
        x: &Matrix,
        num_states: usize,
        step: &dyn Fn(&Matrix, &[Matrix]) -> Vec<Matrix>,
        head: &Dense,
    ) -> Matrix {
        let t = self.encoder.num_tables();
        let n = x.rows();
        let hidden = self.config.hidden;
        let seqs: Vec<Vec<(usize, Option<usize>)>> =
            (0..n).map(|r| self.sequence_of(x.row_slice(r))).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&r| std::cmp::Reverse(seqs[r].len()));
        let max_len = order.first().map_or(0, |&r| seqs[r].len());

        // `state` holds the first `active` rows of `order`; the final
        // hidden states of finished rows are parked in `last_h`.
        let mut last_h = Matrix::zeros(n, hidden);
        let mut state = vec![Matrix::zeros(n, hidden); num_states];
        let mut active = n;
        for s in 0..max_len {
            let live = order.iter().take_while(|&&r| seqs[r].len() > s).count();
            if live < active {
                last_h.data_mut()[live * hidden..active * hidden]
                    .copy_from_slice(&state[0].data()[live * hidden..active * hidden]);
                state = state.iter().map(|m| m.slice_rows(0, live)).collect();
                active = live;
            }
            let mut inp = Matrix::zeros(live, t + 2);
            for (p, &r) in order[..live].iter().enumerate() {
                let (tb, attr) = seqs[r][s];
                let (lo, hi) = attr.map_or((0.0, 1.0), |i| {
                    (x.get(r, self.lo_col(i)), x.get(r, self.hi_col(i)))
                });
                inp.set(p, tb, 1.0);
                inp.set(p, t, lo);
                inp.set(p, t + 1, hi);
            }
            state = step(&inp, &state);
        }
        last_h.data_mut()[..active * hidden].copy_from_slice(&state[0].data()[..active * hidden]);

        let sorted = head.infer(&self.params, &last_h);
        let mut out = Matrix::zeros(n, 1);
        for (p, &r) in order.iter().enumerate() {
            out.set(r, 0, sorted.get(p, 0));
        }
        out
    }

    /// Estimated cardinalities for a batch of encoded queries, through the
    /// tape-free [`CeModel::infer`].
    pub fn estimate_encoded_batch(&self, encs: &[Vec<f32>]) -> Vec<f64> {
        if encs.is_empty() {
            return Vec::new();
        }
        self.infer(&rows_to_matrix(encs))
            .data()
            .iter()
            .map(|&o| f64::from(o * self.ln_max).exp())
            .collect()
    }

    /// Estimated cardinality of one query.
    pub fn estimate_query(&self, q: &Query) -> f64 {
        self.estimate_encoded_batch(&[self.encoder.encode(q)])[0]
    }

    /// Per-query Q-errors against the workload's true cardinalities.
    pub fn evaluate(&self, data: &EncodedWorkload) -> Vec<f64> {
        let ests = self.estimate_encoded_batch(&data.enc);
        ests.iter()
            .zip(&data.ln_card)
            .map(|(&e, &lt)| pace_workload::q_error(e, f64::from(lt).exp()))
            .collect()
    }

    /// Trains from scratch with Adam + minibatches, keeping the parameters
    /// of the best epoch (the exponential Q-error loss can spike late in
    /// training; best-epoch restore makes victim quality robust to that).
    /// Returns the best epoch's mean loss.
    ///
    /// Training is self-healing: at the first epoch boundary after every
    /// `config.checkpoint_every` optimizer steps it snapshots params, Adam
    /// state, and the RNG state, and when a step diverges (non-finite loss,
    /// or loss past `config.guard_band`) it rolls the whole triple back to
    /// the last good checkpoint with a halved learning rate instead of
    /// carrying NaN parameters to completion. When no divergence occurs the
    /// trajectory is bit-identical to a build without this machinery —
    /// checkpoints only read state.
    ///
    /// # Errors
    /// [`TrainError::EmptyWorkload`] on an empty workload;
    /// [`TrainError::Diverged`] when `config.max_rollbacks` recoveries were
    /// not enough to finish training with finite parameters.
    pub fn train(&mut self, data: &EncodedWorkload, rng: &mut StdRng) -> Result<f32, TrainError> {
        let _span = pace_tensor::trace::span("ce::train");
        if data.is_empty() {
            return Err(TrainError::EmptyWorkload);
        }
        let mut best_loss = f32::MAX;
        let mut best_params: Option<Vec<Matrix>> = None;
        let mut idx: Vec<usize> = (0..data.len()).collect();
        let mut ckpt = RollbackPoint::capture(self, rng, 0, best_loss, &best_params);
        let mut steps_since_ckpt = 0usize;
        let mut rollbacks = 0u32;
        let mut epoch = 0usize;
        while epoch < self.config.epochs {
            if steps_since_ckpt >= self.config.checkpoint_every && self.params_finite() {
                ckpt = RollbackPoint::capture(self, rng, epoch, best_loss, &best_params);
                steps_since_ckpt = 0;
            }
            idx.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            let mut diverged = false;
            for chunk in idx.chunks(self.config.batch_size) {
                let batch = data.subset(chunk);
                let value = self.step_adam(&batch);
                steps_since_ckpt += 1;
                // The capped loss drops NaN through IEEE min/max, so a
                // poisoned step can report a finite loss — parameter
                // finiteness is the authoritative divergence signal.
                if !value.is_finite() || value > self.config.guard_band || !self.params_finite() {
                    diverged = true;
                    break;
                }
                epoch_loss += value;
                batches += 1;
            }
            if diverged {
                if rollbacks >= self.config.max_rollbacks {
                    return Err(TrainError::Diverged { rollbacks });
                }
                rollbacks += 1;
                pace_tensor::trace::CHECKPOINT_ROLLBACKS.add(1);
                epoch = ckpt.restore(self, rng, &mut best_loss, &mut best_params);
                self.adam.set_learning_rate(self.adam.learning_rate() * 0.5);
                steps_since_ckpt = 0;
                continue;
            }
            let epoch_loss = epoch_loss / batches as f32;
            if epoch_loss < best_loss {
                best_loss = epoch_loss;
                best_params = Some(self.params.snapshot());
            }
            epoch += 1;
        }
        if let Some(best) = best_params {
            self.params.restore(&best);
        }
        if !self.params_finite() {
            return Err(TrainError::Diverged { rollbacks });
        }
        Ok(best_loss)
    }

    /// True when every parameter value is finite — the invariant rollback
    /// recovery maintains and checkpoints require.
    pub fn params_finite(&self) -> bool {
        self.params
            .iter()
            .all(|(_, m)| m.data().iter().all(|x| x.is_finite()))
    }

    /// The value of the scalar loss that `loss` builds on the model's
    /// output for the encoded batch `x`, and its gradient with respect to
    /// every parameter, in store order. This is the one place a training
    /// step — [`CeModel::train`], [`CeModel::update`] and the attack's
    /// surrogate imitation — differentiates the model.
    ///
    /// Every type but MSCN runs [`CeModel::forward`] on one tape and
    /// [`Graph::grad_values`]. MSCN first tries `mscn_present_step`, which
    /// runs the predicate set only over the set elements whose join bit is
    /// non-zero and gives the bits of that tape; when it cannot vouch for
    /// them, the step runs on the full tape.
    pub fn loss_and_grads(
        &self,
        x: &Matrix,
        loss: &dyn Fn(&mut Graph, Var) -> Var,
    ) -> (f32, Vec<Matrix>) {
        if let Arch::Mscn {
            table_mlp,
            pred_mlp,
            head,
        } = &self.arch
        {
            if let Some(step) = self.mscn_present_step(x, loss, table_mlp, pred_mlp, head) {
                return step;
            }
        }
        let mut g = Graph::new();
        let bind = self.params.bind(&mut g);
        let xv = g.leaf(x.clone());
        let out = self.forward(&mut g, &bind, xv);
        let l = loss(&mut g, out);
        (g.value(l).as_scalar(), g.grad_values(l, bind.vars()))
    }

    /// [`CeModel::loss_and_grads`] for MSCN over only the predicate
    /// elements whose join bit is non-zero. `x` is a constant, so the tape
    /// keeps `forward_mscn`'s attribute loop and its order, but builds each
    /// attribute's element matrix as a leaf from the rows
    /// [`CeModel::present_pred_elems`] lists, runs it through `pred_mlp`,
    /// scales it by its join bits and scatters it into the pooled sum
    /// `acc`; the join matrix, the set sizes and their reciprocals are
    /// values from the kernels the tape would run.
    ///
    /// A dropped element contributes `±0` to every sum it reaches — `acc`,
    /// and in the backward pass the `actᵀ·g` weight pieces and `Σ g` bias
    /// pieces of each `pred_mlp` layer — as long as its representation and
    /// the gradient reaching `acc` are finite. Each of those sums starts at
    /// `+0.0`, so it is never `−0.0` and adding `±0` leaves it unchanged,
    /// and the kept pieces arrive in the tape's order. So the result is the
    /// full tape's, bit for bit. `None` when the guard keeps every element,
    /// or when the loss, a tape value, a gradient or the gradient reaching
    /// `acc` is not finite: the full tape would turn a non-finite gradient
    /// on a dropped row into NaN.
    fn mscn_present_step(
        &self,
        x: &Matrix,
        loss: &dyn Fn(&mut Graph, Var) -> Var,
        table_mlp: &Mlp,
        pred_mlp: &Mlp,
        head: &Mlp,
    ) -> Option<(f32, Vec<Matrix>)> {
        let t = self.encoder.num_tables();
        let attrs = self.encoder.attributes();
        let a = attrs.len();
        if a == 0 {
            return None;
        }
        let elems = self.present_pred_elems(x, pred_mlp)?;
        let n = x.rows();
        let mut g = Graph::new();
        let bind = self.params.bind(&mut g);

        let eye = g.leaf(identity(t));
        let table_reprs = table_mlp.forward(&mut g, &bind, eye);
        let join = x.slice_cols(0, t);
        let recip = g.leaf(join.sum_cols().add_scalar(1e-6).pow_scalar(-1.0));
        let join = g.leaf(join);
        let tbl = g.matmul(join, table_reprs);
        let tbl = g.mul_col(tbl, recip);

        let mut acc = g.leaf(Matrix::zeros(n, self.config.hidden));
        let mut cnt = Matrix::zeros(n, 1);
        let mut remaining = elems.as_slice();
        for (i, &(tb, _)) in attrs.iter().enumerate() {
            cnt = cnt.add_elems(&x.slice_cols(tb, tb + 1));
            let k = remaining.iter().take_while(|&&(e, _)| e == i).count();
            let (here, later) = remaining.split_at(k);
            remaining = later;
            if here.is_empty() {
                continue;
            }
            let rows: Vec<usize> = here.iter().map(|&(_, r)| r).collect();
            let mut elem = Matrix::zeros(k, a + 2);
            let mut mask = Matrix::zeros(k, 1);
            for (e, &r) in rows.iter().enumerate() {
                elem.set(e, i, 1.0);
                elem.set(e, a, x.get(r, self.lo_col(i)));
                elem.set(e, a + 1, x.get(r, self.hi_col(i)));
                mask.set(e, 0, x.get(r, tb));
            }
            let elem = g.leaf(elem);
            let repr = pred_mlp.forward(&mut g, &bind, elem);
            let mask = g.leaf(mask);
            let masked = g.mul_col(repr, mask);
            let placed = g.scatter_rows(masked, &rows, n);
            acc = g.add(acc, placed);
        }
        let recip = g.leaf(cnt.add_scalar(1e-6).pow_scalar(-1.0));
        let pred = g.mul_col(acc, recip);
        let joint = g.concat_cols(&[tbl, pred]);
        let out = head.forward(&mut g, &bind, joint);
        let l = loss(&mut g, out);

        let value = g.value(l).as_scalar();
        let mut wrt = bind.vars().to_vec();
        wrt.push(acc);
        let mut grads = g.grad_values(l, &wrt);
        let pooled = grads.pop()?;
        let finite = value.is_finite()
            && g.first_nonfinite().is_none()
            && pooled.all_finite()
            && grads.iter().all(Matrix::all_finite);
        if !finite {
            return None;
        }
        Some((value, grads))
    }

    /// One Adam step on `batch`: the loss and gradients from
    /// [`CeModel::loss_and_grads`], then sanitize, clip and the optimizer.
    /// Returns the loss before the step.
    fn step_adam(&mut self, batch: &EncodedWorkload) -> f32 {
        let _span = pace_tensor::trace::span("ce::step_adam");
        let ln_max = self.ln_max;
        let (value, mut grads) = {
            let _grads = pace_tensor::trace::span("ce::step::grads");
            self.loss_and_grads(&rows_to_matrix(&batch.enc), &|g, out| {
                q_error_loss(g, out, &batch.ln_card, ln_max)
            })
        };
        let _adam = pace_tensor::trace::span("ce::step::adam");
        sanitize(&mut grads);
        clip_global_norm(&mut grads, self.config.clip_norm);
        // Chaos hook, after sanitize/clip so the injected NaN reaches the
        // optimizer and exercises the divergence-rollback path (sanitize
        // would otherwise zero it out).
        fault::poison_grads("ce-train", &mut grads);
        self.adam.step(&mut self.params, &grads);
        value
    }

    /// Saves the model's parameters to a file (see
    /// [`pace_tensor::serialize`] for the format). The architecture itself
    /// is reconstructed by creating the model with the same type, encoder
    /// and config before calling [`CeModel::load_params`].
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save_params(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        pace_tensor::serialize::write_params(&self.params, &mut f)
    }

    /// Loads parameters saved by [`CeModel::save_params`] into this model.
    ///
    /// # Errors
    /// Fails with `InvalidData` when the file does not match this model's
    /// architecture.
    pub fn load_params(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        pace_tensor::serialize::read_params(&mut self.params, &mut f)
    }

    /// Saves a full training checkpoint — parameters, Adam state, and the
    /// caller's RNG state — in the checksummed `PACECKP2` format, so a
    /// killed run can resume bit-identically via
    /// [`CeModel::load_checkpoint`]. The file is written to a sibling
    /// temporary path and renamed into place, so a crash mid-write leaves
    /// either the old checkpoint or the new one, never a torn file.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save_checkpoint(
        &self,
        rng: &StdRng,
        step: u64,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let extras = pace_tensor::serialize::Checkpoint {
            step,
            adam: Some(self.adam.export_state()),
            rng: rng.state(),
        };
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            pace_tensor::serialize::write_checkpoint(&self.params, &extras, &mut f)?;
            use std::io::Write as _;
            f.flush()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Restores a checkpoint saved by [`CeModel::save_checkpoint`] into this
    /// model, returning the RNG (rebuilt mid-stream) and the step count.
    ///
    /// # Errors
    /// Fails with `InvalidData` when the file is corrupt or does not match
    /// this model's architecture.
    pub fn load_checkpoint(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<(StdRng, u64)> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        let extras = pace_tensor::serialize::read_checkpoint(&mut self.params, &mut f)?;
        if let Some(adam) = extras.adam {
            self.adam.import_state(adam);
        }
        Ok((StdRng::from_state(extras.rng), extras.step))
    }

    /// Incremental update on newly arrived queries: `update_iters` full-batch
    /// SGD steps at `update_lr` — exactly the update process the attack
    /// differentiates through (paper Eq. 9). Each step's loss and gradients
    /// come from [`CeModel::loss_and_grads`], with the bits of the tape the
    /// attack unrolls.
    ///
    /// Like [`CeModel::train`], the update is self-healing: the parameters
    /// are snapshotted on entry, and an attempt that ends with non-finite
    /// parameters (or hits a non-finite loss mid-way) is rolled back and
    /// retried at half the step size, up to `config.max_rollbacks` times.
    ///
    /// # Errors
    /// [`TrainError::EmptyWorkload`] on an empty workload;
    /// [`TrainError::Diverged`] when every retry diverged.
    pub fn update(&mut self, data: &EncodedWorkload) -> Result<(), TrainError> {
        let _span = pace_tensor::trace::span("ce::update");
        if data.is_empty() {
            return Err(TrainError::EmptyWorkload);
        }
        let entry = self.params.snapshot();
        let x = rows_to_matrix(&data.enc);
        let ln_max = self.ln_max;
        let loss = |g: &mut Graph, out: Var| q_error_loss(g, out, &data.ln_card, ln_max);
        let mut lr = self.config.update_lr;
        let mut rollbacks = 0u32;
        loop {
            let mut sgd = Sgd::new(lr);
            let mut diverged = false;
            for _ in 0..self.config.update_iters {
                let (value, mut grads) = self.loss_and_grads(&x, &loss);
                if !value.is_finite() {
                    diverged = true;
                    break;
                }
                sanitize(&mut grads);
                clip_global_norm(&mut grads, self.config.update_clip);
                fault::poison_grads("ce-update", &mut grads);
                sgd.step(&mut self.params, &grads);
                if !self.params_finite() {
                    diverged = true;
                    break;
                }
            }
            if !diverged && self.params_finite() {
                return Ok(());
            }
            if rollbacks >= self.config.max_rollbacks {
                self.params.restore(&entry);
                return Err(TrainError::Diverged { rollbacks });
            }
            rollbacks += 1;
            pace_tensor::trace::CHECKPOINT_ROLLBACKS.add(1);
            lr *= 0.5;
            self.params.restore(&entry);
        }
    }
}

impl CardEstimator for CeModel {
    fn estimate(&self, q: &Query) -> f64 {
        self.estimate_query(q)
    }
}
