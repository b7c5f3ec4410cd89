//! VAE-based anomaly detector (paper Section 6).
//!
//! Trained unsupervised on historical query encodings with a reconstruction
//! (MSE) + KL loss; a query whose reconstruction error exceeds a threshold
//! `δ` is flagged abnormal. During generator training the *deterministic*
//! reconstruction path (`z = μ`) is differentiable, so the reconstruction
//! loss of flagged poisoning queries back-propagates into the generator —
//! the adversarial confrontation that keeps poisoning queries close to the
//! historical distribution.

use pace_tensor::init::gaussian;
use pace_tensor::nn::{Activation, Dense, Mlp};
use pace_tensor::optim::{clip_global_norm, sanitize, Adam, Optimizer};
use pace_tensor::{Binding, Graph, ParamStore, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// VAE hyperparameters (paper: 7 layers total, Adam at `1e-3`, threshold
/// `δ = 0.05` by default).
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Latent dimension.
    pub latent: usize,
    /// KL term weight.
    pub beta: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs over the historical sample.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Reconstruction-error threshold `δ` above which a query is abnormal.
    pub threshold: f32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            latent: 8,
            beta: 1e-3,
            lr: 1e-3,
            epochs: 60,
            batch_size: 64,
            threshold: 0.05,
        }
    }
}

/// The VAE anomaly detector.
pub struct AnomalyDetector {
    params: ParamStore,
    enc: Mlp,
    mu: Dense,
    logvar: Dense,
    dec: Mlp,
    config: DetectorConfig,
    adam: Adam,
    dim: usize,
}

impl AnomalyDetector {
    /// Creates an untrained detector over `dim`-wide query encodings.
    pub fn new(dim: usize, config: DetectorConfig, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let h = config.hidden;
        // 7 layers total: enc (2) + μ (1) + logvar (parallel) + dec (3).
        let enc = Mlp::new(
            &mut params,
            &mut rng,
            "vae.enc",
            &[dim, h, h],
            Activation::Relu,
            Activation::Relu,
        );
        let mu = Dense::new(
            &mut params,
            &mut rng,
            "vae.mu",
            h,
            config.latent,
            Activation::None,
        );
        let logvar = Dense::new(
            &mut params,
            &mut rng,
            "vae.logvar",
            h,
            config.latent,
            Activation::None,
        );
        let dec = Mlp::new(
            &mut params,
            &mut rng,
            "vae.dec",
            &[config.latent, h, h, dim],
            Activation::Relu,
            Activation::Sigmoid,
        );
        let adam = Adam::new(config.lr);
        Self {
            params,
            enc,
            mu,
            logvar,
            dec,
            config,
            adam,
            dim,
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Overrides the abnormality threshold `δ` (paper Figure 13 sweeps it).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.config.threshold = threshold;
    }

    /// Current abnormality threshold.
    pub fn threshold(&self) -> f32 {
        self.config.threshold
    }

    /// The detector's parameters.
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Trains on historical query encodings; returns the final epoch's mean
    /// loss.
    pub fn train(&mut self, historical: &[Vec<f32>], rng: &mut StdRng) -> f32 {
        assert!(!historical.is_empty(), "detector needs historical queries");
        let mut idx: Vec<usize> = (0..historical.len()).collect();
        let mut final_loss = f32::MAX;
        for _ in 0..self.config.epochs {
            idx.shuffle(rng);
            let mut sum = 0.0;
            let mut batches = 0;
            for chunk in idx.chunks(self.config.batch_size) {
                let rows: Vec<Vec<f32>> = chunk.iter().map(|&i| historical[i].clone()).collect();
                sum += self.train_step(&rows, rng);
                batches += 1;
            }
            final_loss = sum / batches as f32;
        }
        final_loss
    }

    fn train_step(&mut self, rows: &[Vec<f32>], rng: &mut StdRng) -> f32 {
        let n = rows.len();
        let mut g = Graph::new();
        let bind = self.params.bind(&mut g);
        let x = g.leaf(pace_ce::rows_to_matrix(rows));
        let h = self.enc.forward(&mut g, &bind, x);
        let mu = self.mu.forward(&mut g, &bind, h);
        let logvar = self.logvar.forward(&mut g, &bind, h);
        // Reparameterization: z = μ + ε·exp(logσ²/2).
        let eps = g.leaf(gaussian(rng, n, self.config.latent));
        let half_logvar = g.mul_scalar(logvar, 0.5);
        let std = g.exp(half_logvar);
        let noise = g.mul(eps, std);
        let z = g.add(mu, noise);
        let recon = self.dec.forward(&mut g, &bind, z);
        // MSE + β·KL.
        let diff = g.sub(recon, x);
        let sq = g.mul(diff, diff);
        let mse = g.mean_all(sq);
        let mu2 = g.mul(mu, mu);
        let exp_lv = g.exp(logvar);
        let kl_inner = {
            let a = g.add_scalar(logvar, 1.0);
            let b = g.sub(a, mu2);
            g.sub(b, exp_lv)
        };
        let kl_mean = g.mean_all(kl_inner);
        let kl = g.mul_scalar(kl_mean, -0.5);
        let kl_term = g.mul_scalar(kl, self.config.beta);
        let loss = g.add(mse, kl_term);
        let value = g.value(loss).as_scalar();
        let mut grads = g.grad_values(loss, bind.vars());
        sanitize(&mut grads);
        clip_global_norm(&mut grads, 5.0);
        self.adam.step(&mut self.params, &grads);
        value
    }

    /// Per-row deterministic reconstruction error (`z = μ`) as a graph node
    /// (`n×1`), differentiable with respect to `x` — the confrontation path.
    pub fn recon_error_graph(&self, g: &mut Graph, bind: &Binding, x: Var) -> Var {
        let (_, d) = g.shape(x);
        assert_eq!(d, self.dim, "encoding width mismatch");
        let h = self.enc.forward(g, bind, x);
        let mu = self.mu.forward(g, bind, h);
        let recon = self.dec.forward(g, bind, mu);
        let diff = g.sub(recon, x);
        let sq = g.mul(diff, diff);
        let sums = g.sum_cols(sq);
        g.mul_scalar(sums, 1.0 / self.dim as f32)
    }

    /// Per-row reconstruction errors of raw encodings.
    pub fn recon_errors(&self, rows: &[Vec<f32>]) -> Vec<f32> {
        if rows.is_empty() {
            return Vec::new();
        }
        // `recon_error_graph` without a tape: the same kernels in order.
        let ps = &self.params;
        let x = pace_ce::rows_to_matrix(rows);
        let h = self.enc.infer(ps, &x);
        let mu = self.mu.infer(ps, &h);
        let diff = self.dec.infer(ps, &mu).sub_elems(&x);
        diff.mul_elems(&diff)
            .sum_cols()
            .mul_scalar(1.0 / self.dim as f32)
            .data()
            .to_vec()
    }

    /// Whether each row is abnormal under the current threshold.
    pub fn flag_abnormal(&self, rows: &[Vec<f32>]) -> Vec<bool> {
        self.recon_errors(rows)
            .iter()
            .map(|&e| e > self.config.threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_data::{build, DatasetKind, Scale};
    use pace_workload::{generate_queries, QueryEncoder, WorkloadSpec};
    use rand::SeedableRng;

    fn historical_encodings(n: usize) -> Vec<Vec<f32>> {
        let ds = build(DatasetKind::Tpch, Scale::tiny(), 4);
        let enc = QueryEncoder::new(&ds);
        let mut rng = StdRng::seed_from_u64(5);
        generate_queries(&ds, &WorkloadSpec::default(), &mut rng, n)
            .iter()
            .map(|q| enc.encode(q))
            .collect()
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let hist = historical_encodings(200);
        let dim = hist[0].len();
        let mut det = AnomalyDetector::new(
            dim,
            DetectorConfig {
                epochs: 40,
                ..DetectorConfig::default()
            },
            7,
        );
        let mut rng = StdRng::seed_from_u64(8);
        let before: f32 = det.recon_errors(&hist).iter().sum::<f32>() / hist.len() as f32;
        det.train(&hist, &mut rng);
        let after: f32 = det.recon_errors(&hist).iter().sum::<f32>() / hist.len() as f32;
        assert!(after < before, "VAE did not learn: {before} -> {after}");
    }

    #[test]
    fn in_distribution_reconstructs_better_than_outliers() {
        let hist = historical_encodings(300);
        let dim = hist[0].len();
        let mut det = AnomalyDetector::new(dim, DetectorConfig::default(), 9);
        let mut rng = StdRng::seed_from_u64(10);
        det.train(&hist, &mut rng);
        let in_dist: f32 = det.recon_errors(&hist).iter().sum::<f32>() / hist.len() as f32;
        // Outliers: adversarially scrambled encodings (invalid bound shapes).
        let outliers: Vec<Vec<f32>> = hist
            .iter()
            .take(50)
            .map(|v| v.iter().map(|&x| 1.0 - x).collect())
            .collect();
        let out: f32 = det.recon_errors(&outliers).iter().sum::<f32>() / outliers.len() as f32;
        assert!(
            out > in_dist * 1.5,
            "outliers not separated: in-dist {in_dist}, outliers {out}"
        );
    }

    #[test]
    fn flag_abnormal_respects_threshold() {
        let hist = historical_encodings(100);
        let dim = hist[0].len();
        let mut det = AnomalyDetector::new(dim, DetectorConfig::default(), 11);
        det.set_threshold(f32::MAX);
        assert!(det.flag_abnormal(&hist).iter().all(|&b| !b));
        det.set_threshold(0.0);
        assert!(det.flag_abnormal(&hist).iter().all(|&b| b));
    }

    /// `recon_errors` is the tape-free twin of `recon_error_graph`: equal
    /// bit for bit, untrained and trained.
    #[test]
    fn recon_errors_match_the_graph_bit_for_bit() {
        let hist = historical_encodings(40);
        let mut det = AnomalyDetector::new(
            hist[0].len(),
            DetectorConfig {
                epochs: 3,
                ..DetectorConfig::default()
            },
            14,
        );
        let tape = |det: &AnomalyDetector| {
            let mut g = Graph::new();
            let bind = det.params().bind(&mut g);
            let x = g.leaf(pace_ce::rows_to_matrix(&hist));
            let err = det.recon_error_graph(&mut g, &bind, x);
            g.value(err)
                .data()
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>()
        };
        let values = |det: &AnomalyDetector| {
            det.recon_errors(&hist)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(values(&det), tape(&det));
        det.train(&hist, &mut StdRng::seed_from_u64(15));
        assert_eq!(values(&det), tape(&det));
    }

    #[test]
    fn recon_error_gradient_flows_to_input() {
        let hist = historical_encodings(20);
        let dim = hist[0].len();
        let det = AnomalyDetector::new(dim, DetectorConfig::default(), 13);
        let mut g = Graph::new();
        let bind = det.params().bind(&mut g);
        let x = g.leaf(pace_ce::rows_to_matrix(&hist));
        let err = det.recon_error_graph(&mut g, &bind, x);
        let total = g.sum_all(err);
        let gx = g.grad(total, &[x])[0];
        assert!(
            g.value(gx).norm() > 0.0,
            "confrontation path has no input gradient"
        );
    }
}
