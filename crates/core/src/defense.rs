//! Defenses built *from* the attack (paper Section 8, future work (1)):
//! a supervised poison classifier trained on PACE-generated queries, usable
//! by a learned database system to screen its training stream.
//!
//! The workflow the paper sketches: run PACE against your own system in a
//! sandbox, collect the generated poisoning queries as positive examples and
//! the historical workload as negatives, and train a classifier that guards
//! the estimator's incremental updates.

use pace_tensor::nn::{Activation, Mlp};
use pace_tensor::optim::{clip_global_norm, sanitize, Adam, Optimizer};
use pace_tensor::{Graph, Matrix, ParamStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters of the poison classifier.
#[derive(Clone, Copy, Debug)]
pub struct ClassifierConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Decision threshold on the sigmoid output.
    pub threshold: f32,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            epochs: 40,
            batch_size: 64,
            lr: 1e-3,
            threshold: 0.5,
        }
    }
}

/// A binary MLP classifier: poison (1) vs benign (0) query encodings.
pub struct PoisonClassifier {
    params: ParamStore,
    mlp: Mlp,
    config: ClassifierConfig,
}

impl PoisonClassifier {
    /// Creates an untrained classifier over `dim`-wide encodings.
    pub fn new(dim: usize, config: ClassifierConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let mlp = Mlp::new(
            &mut params,
            &mut rng,
            "clf",
            &[dim, config.hidden, config.hidden, 1],
            Activation::Relu,
            Activation::Sigmoid,
        );
        Self {
            params,
            mlp,
            config,
        }
    }

    /// Trains on labeled encodings; returns the final epoch's mean BCE loss.
    ///
    /// # Panics
    /// Panics when either class is empty or widths are inconsistent.
    pub fn train(&mut self, poison: &[Vec<f32>], benign: &[Vec<f32>], rng: &mut StdRng) -> f32 {
        assert!(
            !poison.is_empty() && !benign.is_empty(),
            "need both classes"
        );
        let mut examples: Vec<(&Vec<f32>, f32)> = Vec::with_capacity(poison.len() + benign.len());
        examples.extend(poison.iter().map(|e| (e, 1.0f32)));
        examples.extend(benign.iter().map(|e| (e, 0.0f32)));
        let mut adam = Adam::new(self.config.lr);
        let mut final_loss = f32::MAX;
        for _ in 0..self.config.epochs {
            examples.shuffle(rng);
            let mut sum = 0.0;
            let mut batches = 0;
            for chunk in examples.chunks(self.config.batch_size) {
                let rows: Vec<Vec<f32>> = chunk.iter().map(|(e, _)| (*e).clone()).collect();
                let labels: Vec<f32> = chunk.iter().map(|(_, y)| *y).collect();
                sum += self.step(&rows, &labels, &mut adam);
                batches += 1;
            }
            final_loss = sum / batches as f32;
        }
        final_loss
    }

    fn step(&mut self, rows: &[Vec<f32>], labels: &[f32], adam: &mut Adam) -> f32 {
        let n = rows.len();
        let mut g = Graph::new();
        let bind = self.params.bind(&mut g);
        let x = g.leaf(pace_ce::rows_to_matrix(rows));
        let p = self.mlp.forward(&mut g, &bind, x);
        let y = g.leaf(Matrix::from_vec(n, 1, labels.to_vec()));
        // BCE with clamping.
        let eps = g.leaf(Matrix::full(n, 1, 1e-5));
        let cap = g.leaf(Matrix::full(n, 1, 1.0 - 1e-5));
        let p = g.maximum(p, eps);
        let p = g.minimum(p, cap);
        let lnp = g.ln(p);
        let t1 = g.mul(y, lnp);
        let ny = g.neg(y);
        let one_minus_y = g.add_scalar(ny, 1.0);
        let np = g.neg(p);
        let one_minus_p = g.add_scalar(np, 1.0);
        let lnq = g.ln(one_minus_p);
        let t2 = g.mul(one_minus_y, lnq);
        let s = g.add(t1, t2);
        let m = g.mean_all(s);
        let loss = g.neg(m);
        let value = g.value(loss).as_scalar();
        let mut grads = g.grad_values(loss, bind.vars());
        sanitize(&mut grads);
        clip_global_norm(&mut grads, 5.0);
        adam.step(&mut self.params, &grads);
        value
    }

    /// Poison probability per encoding.
    pub fn scores(&self, rows: &[Vec<f32>]) -> Vec<f32> {
        if rows.is_empty() {
            return Vec::new();
        }
        let x = pace_ce::rows_to_matrix(rows);
        self.mlp.infer(&self.params, &x).data().to_vec()
    }

    /// Whether each encoding is classified as poison.
    pub fn is_poison(&self, rows: &[Vec<f32>]) -> Vec<bool> {
        self.scores(rows)
            .iter()
            .map(|&s| s > self.config.threshold)
            .collect()
    }

    /// (true-positive rate on `poison`, false-positive rate on `benign`).
    pub fn evaluate(&self, poison: &[Vec<f32>], benign: &[Vec<f32>]) -> (f64, f64) {
        let tp = self.is_poison(poison).iter().filter(|&&b| b).count();
        let fp = self.is_poison(benign).iter().filter(|&&b| b).count();
        (
            tp as f64 / poison.len().max(1) as f64,
            fp as f64 / benign.len().max(1) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, PoisonGenerator};
    use pace_data::{build, DatasetKind, Scale};
    use pace_workload::{generate_queries, QueryEncoder, WorkloadSpec};

    #[test]
    fn classifier_separates_generator_output_from_workload() {
        let ds = build(DatasetKind::Tpch, Scale::tiny(), 21);
        let enc = QueryEncoder::new(&ds);
        let mut rng = StdRng::seed_from_u64(22);
        let benign: Vec<Vec<f32>> = generate_queries(&ds, &WorkloadSpec::default(), &mut rng, 300)
            .iter()
            .map(|q| enc.encode(q))
            .collect();
        // An untrained generator's raw output is far from the workload
        // distribution — exactly what a screening classifier must catch.
        let generator = PoisonGenerator::new(
            enc.clone(),
            ds.schema.connected_patterns(3),
            GeneratorConfig::default(),
            23,
        );
        let (_, poison) = generator.generate(&mut rng, 200);

        let mut clf = PoisonClassifier::new(enc.dim(), ClassifierConfig::default(), 24);
        // Hold out 50 of each class.
        clf.train(&poison[..150], &benign[..250], &mut rng);
        let (tpr, fpr) = clf.evaluate(&poison[150..], &benign[250..]);
        assert!(tpr > 0.7, "true-positive rate too low: {tpr}");
        assert!(fpr < 0.3, "false-positive rate too high: {fpr}");
    }

    #[test]
    fn scores_are_probabilities() {
        let clf = PoisonClassifier::new(8, ClassifierConfig::default(), 1);
        let rows = vec![vec![0.1f32; 8], vec![0.9f32; 8]];
        for s in clf.scores(&rows) {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn training_requires_both_classes() {
        let mut clf = PoisonClassifier::new(4, ClassifierConfig::default(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let _ = clf.train(&[], &[vec![0.0; 4]], &mut rng);
    }
}
