//! The basic (strawman) generator-training algorithm (paper Figure 5(a)).
//!
//! Each outer round: (1) poison a copy of the surrogate for real with the
//! current generator's queries, starting from the original parameters `θ₀`;
//! (2) run many generator steps, each differentiating through a *full*
//! `K`-step unrolled update chain. The generator and the model only exchange
//! information once per outer round, so most inner updates chase stale
//! counterparts — this is exactly the inefficiency Algorithm 1 removes
//! (complexity `O(n₃(n₁+n₂))` vs `O(n₁+n₂)`; paper Section 5.3, Lemma 5.2).
//!
//! Like the accelerated loop, the oracle closure is fallible and each outer
//! round starts from a rollback checkpoint (generator params + optimizer +
//! RNG state): a divergent round — non-finite objective or parameters —
//! restarts from its own beginning with a halved learning rate.

use super::accelerated::LoopCheckpoint;
use super::{
    poisoning_objective, straight_through, unroll_virtual_updates, AttackArtifacts, AttackConfig,
};
use crate::detector::AnomalyDetector;
use crate::generator::PoisonGenerator;
use crate::knowledge::AttackerKnowledge;
use crate::resilience::{CampaignError, ProbeError};
use pace_ce::{rows_to_matrix, CeModel, EncodedWorkload, TrainError};
use pace_tensor::{Graph, Matrix};
use pace_workload::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Trains a poisoning generator with the basic alternating schedule.
pub fn train_generator_basic(
    surrogate: &mut CeModel,
    count: &mut dyn FnMut(&Query) -> Result<u64, ProbeError>,
    test: &EncodedWorkload,
    historical: &[Vec<f32>],
    k: &AttackerKnowledge,
    cfg: &AttackConfig,
) -> Result<AttackArtifacts, CampaignError> {
    let _span = pace_tensor::trace::span("attack::basic");
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut generator = PoisonGenerator::new(
        k.encoder.clone(),
        k.patterns.clone(),
        cfg.generator,
        cfg.seed ^ 0xba1,
    );
    let detector = if cfg.use_detector && !historical.is_empty() {
        let _detector_span = pace_tensor::trace::span("detector::train");
        let mut d = AnomalyDetector::new(k.encoder.dim(), cfg.detector, cfg.seed ^ 0xba2);
        d.train(historical, &mut rng);
        Some(d)
    } else {
        None
    };

    let theta_origin = surrogate.params().snapshot();
    let test_n = cfg.test_subset.min(test.len()).max(1);
    let test_mat = rows_to_matrix(&test.enc[..test_n]);
    let test_ln = &test.ln_card[..test_n];
    let mut curve = Vec::new();
    let mut best = f32::NEG_INFINITY;
    let mut best_params: Option<Vec<Matrix>> = None;

    let mut rollbacks = 0u32;
    let mut base_lr = cfg.generator.lr;
    let mut outer = 0usize;
    // Checkpoint at outer-round granularity: each round starts from a clean
    // snapshot, so a divergent round is retried from its own beginning.
    let mut checkpoint =
        LoopCheckpoint::capture(0, &generator, surrogate, &rng, best, &best_params, 0, 0);
    while outer < cfg.basic_outer {
        let _round = pace_tensor::trace::span_at("attack::basic::round", outer as u64);
        if generator.params_finite() && surrogate.params_finite() {
            checkpoint = LoopCheckpoint::capture(
                outer,
                &generator,
                surrogate,
                &rng,
                best,
                &best_params,
                0,
                curve.len(),
            );
        }
        let mut diverged = false;
        // Step (2): optimize the generator against the current surrogate,
        // differentiating through the full K-step unroll each time.
        for _inner in 0..cfg.basic_inner {
            let batch = generator.sample_joins(&mut rng, cfg.batch);
            generator.join_loss_step(&batch);

            let mut g = Graph::new();
            let bind = generator.params().bind(&mut g);
            let x = generator.forward_bounds(&mut g, &bind, &batch);
            let queries: Vec<Query> = {
                let vals = g.value(x);
                (0..cfg.batch)
                    .map(|r| generator.encoder().decode(vals.row_slice(r)))
                    .collect()
            };
            let encs: Vec<Vec<f32>> = queries
                .iter()
                .map(|q| generator.encoder().encode(q))
                .collect();
            let mut ln_labels: Vec<f32> = Vec::with_capacity(queries.len());
            for q in &queries {
                ln_labels.push((count(q)?.max(1) as f32).ln());
            }
            let x_q = straight_through(&mut g, x, &encs);
            let theta0 = surrogate.params().bind(&mut g);
            let theta_k = unroll_virtual_updates(
                &mut g,
                surrogate,
                theta0,
                x_q,
                &ln_labels,
                cfg.unroll_steps.max(1),
                cfg.unroll_lr,
            );
            let test_x = g.leaf(test_mat.clone());
            let objective = poisoning_objective(&mut g, surrogate, &theta_k, test_x, test_ln);
            let obj_value = g.value(objective).as_scalar();
            curve.push(obj_value);
            if obj_value > best {
                best = obj_value;
                best_params = Some(generator.params().snapshot());
            }

            if let Some(det) = &detector {
                let dbind = det.params().bind(&mut g);
                let errors = det.recon_error_graph(&mut g, &dbind, x);
                let flagged: Vec<f32> = g
                    .value(errors)
                    .data()
                    .iter()
                    .map(|&e| if e > det.threshold() { 1.0 } else { 0.0 })
                    .collect();
                let n_flagged: f32 = flagged.iter().sum();
                if n_flagged > 0.0 {
                    let mask = g.leaf(Matrix::from_vec(cfg.batch, 1, flagged));
                    let masked = g.mul(errors, mask);
                    let total = g.sum_all(masked);
                    let recon_loss = g.mul_scalar(total, 1.0 / n_flagged);
                    generator.apply_step(&g, recon_loss, &bind, "attack::basic::detector");
                }
            }
            let loss = g.neg(objective);
            generator.apply_step(&g, loss, &bind, "attack::basic::hypergradient");
            // The capped Q-error loss masks NaN through IEEE min/max, so
            // parameter finiteness is the authoritative divergence signal.
            if !obj_value.is_finite() || !generator.params_finite() {
                diverged = true;
                break;
            }
        }

        if !diverged {
            // Step (3): regenerate queries, reset to θ₀, and poison for real.
            let (_, encs) = generator.generate(&mut rng, cfg.batch);
            let mut cards: Vec<u64> = Vec::with_capacity(encs.len());
            for e in &encs {
                cards.push(count(&generator.encoder().decode(e))?.max(1));
            }
            surrogate.params_mut().restore(&theta_origin);
            surrogate.update(&EncodedWorkload::from_parts(encs, &cards))?;
            if !surrogate.params_finite() {
                diverged = true;
            }
        }

        if diverged {
            if rollbacks >= cfg.max_rollbacks {
                return Err(CampaignError::Train(TrainError::Diverged { rollbacks }));
            }
            rollbacks += 1;
            pace_tensor::trace::CHECKPOINT_ROLLBACKS.add(1);
            base_lr *= 0.5;
            let mut stall = 0usize;
            outer = checkpoint.restore(
                &mut generator,
                surrogate,
                &mut rng,
                &mut best,
                &mut best_params,
                &mut stall,
                &mut curve,
            );
            generator.set_lr(base_lr);
            continue;
        }
        outer += 1;
    }

    if let Some(best) = best_params {
        generator.params_mut().restore(&best);
    }
    Ok(AttackArtifacts {
        generator,
        detector,
        objective_curve: curve,
        train_seconds: t0.elapsed().as_secs_f64(),
    })
}
