//! The poisoning-query generator (paper Section 5.2).
//!
//! Three sub-generators transform Gaussian noise into valid SPJ queries:
//!
//! * `G_j` — join predicate generator: noise → sigmoid table-membership
//!   vector. Outputs are validated against the schema's join patterns
//!   (invalid patterns are resampled once, then snapped to the nearest valid
//!   pattern by Hamming distance) and `G_j` is trained toward the chosen
//!   valid pattern with a cross-entropy loss (paper Eq. 8).
//! * `G_l` — lower-bound generator: (noise ⊕ join vector) → sigmoid lower
//!   bounds per attribute.
//! * `G_r` — range-size generator: same input → sigmoid range sizes. The
//!   upper bound is `lo + range·(1 − lo)`, which guarantees `lo ≤ hi ≤ 1`
//!   *by construction* (the paper adds the raw range and relies on
//!   normalization; the rescaled form keeps the same monotone
//!   differentiable structure without clamping).
//!
//! Attributes of tables outside the join pattern are masked to the full
//! range `[0, 1]`, so decoded queries are always well-formed.

use pace_tensor::fault;
use pace_tensor::init::gaussian;
use pace_tensor::nn::{Activation, Mlp};
use pace_tensor::optim::{clip_global_norm, sanitize, Adam, AdamState, Optimizer};
use pace_tensor::{Binding, Graph, Matrix, ParamStore, Var};
use pace_workload::{Query, QueryEncoder};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Hyperparameters of the generator (paper defaults: 4/5/5 layers, Adam at
/// `1e-3`).
#[derive(Clone, Copy, Debug)]
pub struct GeneratorConfig {
    /// Dimension of the Gaussian noise input.
    pub noise_dim: usize,
    /// Hidden width of all three sub-generators.
    pub hidden: usize,
    /// Total layer count of `G_j`.
    pub gj_layers: usize,
    /// Total layer count of `G_l` and `G_r`.
    pub bound_layers: usize,
    /// Adam learning rate (`η₂`).
    pub lr: f32,
    /// Gradient clip threshold.
    pub clip_norm: f32,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            noise_dim: 16,
            hidden: 64,
            gj_layers: 4,
            bound_layers: 5,
            lr: 1e-3,
            clip_norm: 5.0,
        }
    }
}

/// A sampled batch of join patterns: the binarized membership matrix plus the
/// per-row pattern table lists.
pub struct JoinBatch {
    /// Binary `n×T` membership matrix.
    pub j: Matrix,
    /// Raw noise that produced the batch (reused by `G_l`/`G_r`).
    pub noise: Matrix,
    /// Pattern (sorted table list) per row.
    pub patterns: Vec<Vec<usize>>,
}

/// The three-part poisoning-query generator.
pub struct PoisonGenerator {
    params: ParamStore,
    gj: Mlp,
    gl: Mlp,
    gr: Mlp,
    encoder: QueryEncoder,
    valid_patterns: Vec<Vec<usize>>,
    config: GeneratorConfig,
    adam: Adam,
}

fn mlp_dims(input: usize, hidden: usize, total_layers: usize, out: usize) -> Vec<usize> {
    let mut dims = vec![input];
    dims.extend(std::iter::repeat_n(hidden, total_layers.saturating_sub(1)));
    dims.push(out);
    dims
}

impl PoisonGenerator {
    /// Creates a generator for queries over `encoder`'s schema shape.
    /// `valid_patterns` are the connected join patterns legal queries may use
    /// (the attacker derives them from the public schema).
    pub fn new(
        encoder: QueryEncoder,
        valid_patterns: Vec<Vec<usize>>,
        config: GeneratorConfig,
        seed: u64,
    ) -> Self {
        assert!(!valid_patterns.is_empty(), "no valid join patterns");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let t = encoder.num_tables();
        let a = encoder.attributes().len().max(1);
        let gj = Mlp::new(
            &mut params,
            &mut rng,
            "gj",
            &mlp_dims(config.noise_dim, config.hidden, config.gj_layers, t),
            Activation::Relu,
            Activation::Sigmoid,
        );
        let gl = Mlp::new(
            &mut params,
            &mut rng,
            "gl",
            &mlp_dims(config.noise_dim + t, config.hidden, config.bound_layers, a),
            Activation::Relu,
            Activation::Sigmoid,
        );
        let gr = Mlp::new(
            &mut params,
            &mut rng,
            "gr",
            &mlp_dims(config.noise_dim + t, config.hidden, config.bound_layers, a),
            Activation::Relu,
            Activation::Sigmoid,
        );
        let adam = Adam::new(config.lr);
        Self {
            params,
            gj,
            gl,
            gr,
            encoder,
            valid_patterns,
            config,
            adam,
        }
    }

    /// The generator's parameters.
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Mutable parameter access (best-checkpoint restore in attack loops).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    /// The query encoder the generator emits into.
    pub fn encoder(&self) -> &QueryEncoder {
        &self.encoder
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Samples a batch of join patterns: runs `G_j` on fresh noise, resamples
    /// rows whose thresholded output is not a valid connected pattern, and
    /// finally snaps stragglers to the Hamming-nearest valid pattern.
    pub fn sample_joins(&self, rng: &mut StdRng, n: usize) -> JoinBatch {
        let t = self.encoder.num_tables();
        let mut noise = gaussian(rng, n, self.config.noise_dim);
        let mut probs = self.gj_values(&noise);
        // One resampling round for invalid rows (paper: regenerate noise).
        for r in 0..n {
            if self.row_pattern(&probs, r).is_none() {
                let fresh = gaussian(rng, 1, self.config.noise_dim);
                for c in 0..self.config.noise_dim {
                    noise.set(r, c, fresh.get(0, c));
                }
            }
        }
        probs = self.gj_values(&noise);
        let mut j = Matrix::zeros(n, t);
        let mut patterns = Vec::with_capacity(n);
        for r in 0..n {
            let pat = match self.row_pattern(&probs, r) {
                Some(p) => p,
                None => self.nearest_valid_pattern(&probs, r),
            };
            for &tb in &pat {
                j.set(r, tb, 1.0);
            }
            patterns.push(pat);
        }
        JoinBatch { j, noise, patterns }
    }

    fn gj_values(&self, noise: &Matrix) -> Matrix {
        self.gj.infer(&self.params, noise)
    }

    /// The thresholded pattern of one output row, if valid.
    fn row_pattern(&self, probs: &Matrix, r: usize) -> Option<Vec<usize>> {
        let t = self.encoder.num_tables();
        let pat: Vec<usize> = (0..t).filter(|&c| probs.get(r, c) > 0.5).collect();
        self.valid_patterns.contains(&pat).then_some(pat)
    }

    fn nearest_valid_pattern(&self, probs: &Matrix, r: usize) -> Vec<usize> {
        let t = self.encoder.num_tables();
        self.valid_patterns
            .iter()
            .min_by(|a, b| {
                let dist = |pat: &Vec<usize>| -> f64 {
                    (0..t)
                        .map(|c| {
                            let target = if pat.contains(&c) { 1.0 } else { 0.0 };
                            (f64::from(probs.get(r, c)) - target).abs()
                        })
                        .sum()
                };
                dist(a).partial_cmp(&dist(b)).expect("finite distances")
            })
            .expect("non-empty patterns")
            .clone()
    }

    /// One `G_j` training step on the join loss (paper Eq. 8): binary
    /// cross-entropy between `G_j`'s raw outputs and the valid binary
    /// patterns chosen for the batch. Returns the loss value.
    pub fn join_loss_step(&mut self, batch: &JoinBatch) -> f32 {
        let mut g = Graph::new();
        let bind = self.params.bind(&mut g);
        let z = g.leaf(batch.noise.clone());
        let p = self.gj.forward(&mut g, &bind, z);
        let y = g.leaf(batch.j.clone());
        let loss = bce(&mut g, p, y);
        let value = g.value(loss).as_scalar();
        self.apply_step(&g, loss, &bind, "generator::join_loss_step");
        value
    }

    /// Differentiable forward of the bound generators: emits the full
    /// `n×(T+2A)` encoded poisoning batch with the (constant) join matrix
    /// spliced in and absent-table attributes masked to `[0, 1]`.
    pub fn forward_bounds(&self, g: &mut Graph, bind: &Binding, batch: &JoinBatch) -> Var {
        let a = self.encoder.attributes().len();
        let z = g.leaf(batch.noise.clone());
        let j = g.leaf(batch.j.clone());
        let input = g.concat_cols(&[z, j]);
        let lo_raw = self.gl.forward(g, bind, input);
        let range = self.gr.forward(g, bind, input);
        // hi = lo + range·(1 − lo): stays within [lo, 1].
        let one_minus_lo = {
            let neg = g.neg(lo_raw);
            g.add_scalar(neg, 1.0)
        };
        let span = g.mul(range, one_minus_lo);
        let hi_raw = g.add(lo_raw, span);
        // Mask: lo ← lo·m, hi ← hi·m + (1 − m), where m is the membership bit
        // of each attribute's table.
        let mut parts: Vec<Var> = Vec::with_capacity(1 + 2 * a);
        parts.push(j);
        for (i, &(tb, _)) in self.encoder.attributes().iter().enumerate() {
            let m = g.slice_cols(j, tb, tb + 1); // n×1 constant
            let one_minus_m = {
                let neg = g.neg(m);
                g.add_scalar(neg, 1.0)
            };
            let lo_i = g.slice_cols(lo_raw, i, i + 1);
            let hi_i = g.slice_cols(hi_raw, i, i + 1);
            let lo_m = g.mul(lo_i, m);
            let hi_m = {
                let hm = g.mul(hi_i, m);
                g.add(hm, one_minus_m)
            };
            parts.push(lo_m);
            parts.push(hi_m);
        }
        g.concat_cols(&parts)
    }

    /// Applies one Adam step from a scalar loss: the join loss, and in the
    /// attack loops the detector confrontation and the poisoning objective.
    /// For the objective, the gradient is the attack hypergradient through
    /// the full unrolled graph: the inner gradients of the virtual updates
    /// are recorded nodes (`unroll_virtual_updates` uses [`Graph::grad`]),
    /// and this outer pass differentiates through them with the value-only
    /// [`Graph::grad_values`], since nothing differentiates the outer
    /// gradient again. `context` names the attack loop as a fault-injection
    /// site.
    pub fn apply_step(&mut self, g: &Graph, loss: Var, bind: &Binding, context: &str) {
        let mut grads = g.grad_values(loss, bind.vars());
        sanitize(&mut grads);
        clip_global_norm(&mut grads, self.config.clip_norm);
        // Fault hook after sanitize/clip: an injected NaN reaches the
        // optimizer exactly as a genuinely broken gradient would. `context`
        // is the fault site, so specs can target one attack loop.
        fault::poison_grads(context, &mut grads);
        self.adam.step(&mut self.params, &grads);
    }

    /// Exports the optimizer state (attack-loop rollback checkpoints).
    pub fn opt_state(&self) -> AdamState {
        self.adam.export_state()
    }

    /// Restores optimizer state captured by [`Self::opt_state`].
    pub fn set_opt_state(&mut self, state: AdamState) {
        self.adam.import_state(state);
    }

    /// Whether every generator parameter is finite — the authoritative
    /// divergence signal of the attack loops.
    pub fn params_finite(&self) -> bool {
        self.params
            .iter()
            .all(|(_, m)| m.data().iter().all(|v| v.is_finite()))
    }

    /// Generates `n` poisoning queries (deployment path, paper Section 3.4):
    /// values only, decoded through the encoder.
    pub fn generate(&self, rng: &mut StdRng, n: usize) -> (Vec<Query>, Vec<Vec<f32>>) {
        let batch = self.sample_joins(rng, n);
        let mut g = Graph::new();
        let bind = self.params.bind(&mut g);
        let x = self.forward_bounds(&mut g, &bind, &batch);
        let vals = g.value(x);
        let encs: Vec<Vec<f32>> = (0..n).map(|r| vals.row_slice(r).to_vec()).collect();
        let queries = encs.iter().map(|e| self.encoder.decode(e)).collect();
        (queries, encs)
    }

    /// Set the Adam learning rate (the attack escalates step size when
    /// gradients stall — paper Section 5.3, convergence analysis).
    pub fn set_lr(&mut self, lr: f32) {
        self.adam.set_learning_rate(lr);
    }
}

/// Binary cross-entropy with probability clamping.
fn bce(g: &mut Graph, p: Var, y: Var) -> Var {
    let (r, c) = g.shape(p);
    let eps = g.leaf(Matrix::full(r, c, 1e-5));
    let one_minus_eps = g.leaf(Matrix::full(r, c, 1.0 - 1e-5));
    let p = g.maximum(p, eps);
    let p = g.minimum(p, one_minus_eps);
    let ln_p = g.ln(p);
    let term1 = g.mul(y, ln_p);
    let one_minus_y = {
        let neg = g.neg(y);
        g.add_scalar(neg, 1.0)
    };
    let one_minus_p = {
        let neg = g.neg(p);
        g.add_scalar(neg, 1.0)
    };
    let ln_q = g.ln(one_minus_p);
    let term2 = g.mul(one_minus_y, ln_q);
    let sum = g.add(term1, term2);
    let mean = g.mean_all(sum);
    g.neg(mean)
}

/// Samples a fresh Gaussian noise matrix (exposed for attack loops that pin
/// noise across an outer iteration, per Algorithm 1 line 2).
pub fn sample_noise(rng: &mut impl Rng, n: usize, dim: usize) -> Matrix {
    gaussian(rng, n, dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_data::{build, DatasetKind, Scale};

    fn generator(kind: DatasetKind) -> (pace_data::Dataset, PoisonGenerator) {
        let ds = build(kind, Scale::tiny(), 3);
        let enc = QueryEncoder::new(&ds);
        let patterns = ds.schema.connected_patterns(3);
        let generator = PoisonGenerator::new(enc, patterns, GeneratorConfig::default(), 11);
        (ds, generator)
    }

    #[test]
    fn sampled_joins_are_always_valid_patterns() {
        let (ds, gen) = generator(DatasetKind::Imdb);
        let mut rng = StdRng::seed_from_u64(5);
        let batch = gen.sample_joins(&mut rng, 64);
        for pat in &batch.patterns {
            assert!(ds.schema.is_connected(pat), "invalid pattern {pat:?}");
        }
        // Binary matrix matches patterns.
        for (r, pat) in batch.patterns.iter().enumerate() {
            for t in 0..ds.schema.num_tables() {
                let expect = if pat.contains(&t) { 1.0 } else { 0.0 };
                assert_eq!(batch.j.get(r, t), expect);
            }
        }
    }

    #[test]
    fn generated_queries_are_valid() {
        for kind in [DatasetKind::Dmv, DatasetKind::Tpch] {
            let (ds, gen) = generator(kind);
            let mut rng = StdRng::seed_from_u64(7);
            let (queries, encs) = gen.generate(&mut rng, 50);
            assert_eq!(queries.len(), 50);
            assert_eq!(encs.len(), 50);
            for q in &queries {
                assert!(q.is_valid(&ds.schema), "{kind:?}: invalid {q:?}");
            }
        }
    }

    #[test]
    fn bounds_are_ordered_and_masked() {
        let (ds, gen) = generator(DatasetKind::Tpch);
        let mut rng = StdRng::seed_from_u64(9);
        let batch = gen.sample_joins(&mut rng, 32);
        let mut g = Graph::new();
        let bind = gen.params().bind(&mut g);
        let x = gen.forward_bounds(&mut g, &bind, &batch);
        let vals = g.value(x);
        let t = ds.schema.num_tables();
        for r in 0..32 {
            for (i, &(tb, _)) in gen.encoder().attributes().iter().enumerate() {
                let lo = vals.get(r, t + 2 * i);
                let hi = vals.get(r, t + 2 * i + 1);
                assert!(lo <= hi + 1e-6, "row {r} attr {i}: lo {lo} > hi {hi}");
                assert!((0.0..=1.0 + 1e-6).contains(&lo));
                assert!((0.0..=1.0 + 1e-6).contains(&hi));
                if !batch.patterns[r].contains(&tb) {
                    assert_eq!(lo, 0.0, "absent-table lo not masked");
                    assert_eq!(hi, 1.0, "absent-table hi not masked");
                }
            }
        }
    }

    #[test]
    fn join_loss_decreases_with_training() {
        let (_, mut gen) = generator(DatasetKind::Stats);
        let mut rng = StdRng::seed_from_u64(13);
        let first = {
            let batch = gen.sample_joins(&mut rng, 64);
            gen.join_loss_step(&batch)
        };
        let mut last = first;
        for _ in 0..30 {
            let batch = gen.sample_joins(&mut rng, 64);
            last = gen.join_loss_step(&batch);
        }
        assert!(last < first, "join BCE did not improve: {first} -> {last}");
    }

    #[test]
    fn bounds_gradient_reaches_generator_params() {
        let (_, gen) = generator(DatasetKind::Dmv);
        let mut rng = StdRng::seed_from_u64(17);
        let batch = gen.sample_joins(&mut rng, 8);
        let mut g = Graph::new();
        let bind = gen.params().bind(&mut g);
        let x = gen.forward_bounds(&mut g, &bind, &batch);
        let s = g.sum_all(x);
        let grads = g.grad(s, bind.vars());
        let total: f32 = grads.iter().map(|&gv| g.value(gv).norm()).sum();
        assert!(
            total > 0.0,
            "no gradient flow from encoded batch to generator"
        );
    }
}
