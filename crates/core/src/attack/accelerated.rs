//! The accelerated generator-training algorithm (paper Algorithm 1,
//! Figure 5(b)).
//!
//! Each iteration: train `G_j` on the join loss, generate a poisoning batch,
//! virtually update the surrogate in-graph (mirroring the victim's K-step
//! incremental update), push the generator up the hypergradient of the
//! test-workload Q-error, and confront the anomaly detector; every
//! `sync_every` iterations the surrogate is *really* updated on the current
//! batch (line 20), so generator and model "interact in time" instead of
//! wasting converged updates against stale counterparts.
//!
//! The loop is resilient: the `COUNT(*)` oracle is fallible (the caller
//! supplies a retrying closure), and every `checkpoint_every` iterations the
//! generator snapshots its parameters, optimizer moments and RNG state; a
//! divergent iteration — non-finite objective or parameters, e.g. from an
//! injected NaN gradient — rolls back to the snapshot with a halved learning
//! rate instead of wrecking hours of attack progress.

use super::{
    poisoning_objective, straight_through, unroll_virtual_updates, AttackArtifacts, AttackConfig,
};
use crate::detector::AnomalyDetector;
use crate::generator::PoisonGenerator;
use crate::knowledge::AttackerKnowledge;
use crate::resilience::{CampaignError, ProbeError};
use pace_ce::{rows_to_matrix, CeModel, EncodedWorkload, TrainError};
use pace_tensor::optim::AdamState;
use pace_tensor::trace::span;
use pace_tensor::{Graph, Matrix};
use pace_workload::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Everything both attack loops need to resume the optimization stream
/// exactly after a divergent iteration: generator params + Adam moments +
/// RNG state, the surrogate's params (the accelerated loop really updates
/// them), and the best-checkpoint bookkeeping.
pub(super) struct LoopCheckpoint {
    pub iter: usize,
    pub gen_params: Vec<Matrix>,
    pub gen_opt: AdamState,
    pub surrogate_params: Vec<Matrix>,
    pub rng: [u64; 4],
    pub best: f32,
    pub best_params: Option<Vec<Matrix>>,
    pub stall: usize,
    pub curve_len: usize,
}

impl LoopCheckpoint {
    /// Captures the loop state. Read-only: capturing must never perturb the
    /// optimization stream, so fault-free runs are bit-identical with any
    /// checkpoint cadence.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        iter: usize,
        generator: &PoisonGenerator,
        surrogate: &CeModel,
        rng: &StdRng,
        best: f32,
        best_params: &Option<Vec<Matrix>>,
        stall: usize,
        curve_len: usize,
    ) -> Self {
        Self {
            iter,
            gen_params: generator.params().snapshot(),
            gen_opt: generator.opt_state(),
            surrogate_params: surrogate.params().snapshot(),
            rng: rng.state(),
            best,
            best_params: best_params.clone(),
            stall,
            curve_len,
        }
    }

    /// Restores everything captured; returns the iteration to resume from.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        &self,
        generator: &mut PoisonGenerator,
        surrogate: &mut CeModel,
        rng: &mut StdRng,
        best: &mut f32,
        best_params: &mut Option<Vec<Matrix>>,
        stall: &mut usize,
        curve: &mut Vec<f32>,
    ) -> usize {
        generator.params_mut().restore(&self.gen_params);
        generator.set_opt_state(self.gen_opt.clone());
        surrogate.params_mut().restore(&self.surrogate_params);
        *rng = StdRng::from_state(self.rng);
        *best = self.best;
        *best_params = self.best_params.clone();
        *stall = self.stall;
        curve.truncate(self.curve_len);
        self.iter
    }
}

/// Trains a poisoning generator with the accelerated schedule.
///
/// * `surrogate` — the white-box stand-in for the victim model; it is
///   progressively poisoned during training (Algorithm 1 line 20).
/// * `count` — the attacker's `COUNT(*)` oracle for labeling generated
///   queries; fallible, typically a [`crate::resilience::ResilientOracle`]
///   closure. An error here means the oracle stayed down past every retry,
///   which aborts generator training with [`CampaignError::Oracle`].
/// * `test` — the target workload whose estimation error is maximized.
/// * `historical` — encodings of historical queries (trains the detector).
pub fn train_generator_accelerated(
    surrogate: &mut CeModel,
    count: &mut dyn FnMut(&Query) -> Result<u64, ProbeError>,
    test: &EncodedWorkload,
    historical: &[Vec<f32>],
    k: &AttackerKnowledge,
    cfg: &AttackConfig,
) -> Result<AttackArtifacts, CampaignError> {
    let _span = span("attack::accelerated");
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut generator = PoisonGenerator::new(
        k.encoder.clone(),
        k.patterns.clone(),
        cfg.generator,
        cfg.seed ^ 0x9e1,
    );
    let detector = if cfg.use_detector && !historical.is_empty() {
        let _detector_span = span("detector::train");
        let mut d = AnomalyDetector::new(k.encoder.dim(), cfg.detector, cfg.seed ^ 0x9e2);
        d.train(historical, &mut rng);
        Some(d)
    } else {
        None
    };

    let test_n = cfg.test_subset.min(test.len()).max(1);
    let test_mat = rows_to_matrix(&test.enc[..test_n]);
    let test_ln = &test.ln_card[..test_n];

    let mut curve = Vec::with_capacity(cfg.iters);
    let mut best = f32::NEG_INFINITY;
    let mut best_params: Option<Vec<Matrix>> = None;
    let mut stall = 0usize;
    let mut base_lr = cfg.generator.lr;

    let mut checkpoint =
        LoopCheckpoint::capture(0, &generator, surrogate, &rng, best, &best_params, stall, 0);
    let mut since_ckpt = 0usize;
    let mut rollbacks = 0u32;
    let mut it = 0usize;
    while it < cfg.iters {
        let _iter = pace_tensor::trace::span_at("attack::accelerated::iter", it as u64);
        if since_ckpt >= cfg.checkpoint_every.max(1)
            && generator.params_finite()
            && surrogate.params_finite()
        {
            checkpoint = LoopCheckpoint::capture(
                it,
                &generator,
                surrogate,
                &rng,
                best,
                &best_params,
                stall,
                curve.len(),
            );
            since_ckpt = 0;
        }
        // (1)–(2) join generation and Eq. 8 training.
        let join_span = span("attack::iter::join");
        let batch = generator.sample_joins(&mut rng, cfg.batch);
        generator.join_loss_step(&batch);
        drop(join_span);

        // (3)–(4) bound generation and masking.
        let decode_span = span("attack::iter::decode");
        let mut g = Graph::new();
        let bind = generator.params().bind(&mut g);
        let x = generator.forward_bounds(&mut g, &bind, &batch);

        // (5) decode to concrete queries and label through the COUNT(*)
        // oracle (constants in the graph). The victim will re-encode the
        // *decoded* queries — bounds snapped to the integer domain — so the
        // unroll consumes the quantized encodings via a straight-through
        // estimator: values are quantized, gradients pass through to the
        // generator unchanged.
        let (queries, encs): (Vec<Query>, Vec<Vec<f32>>) = {
            let vals = g.value(x);
            let raw: Vec<Vec<f32>> = (0..cfg.batch).map(|r| vals.row_slice(r).to_vec()).collect();
            let queries: Vec<Query> = raw.iter().map(|e| generator.encoder().decode(e)).collect();
            let encs = queries
                .iter()
                .map(|q| generator.encoder().encode(q))
                .collect();
            (queries, encs)
        };
        drop(decode_span);
        let label_span = span("attack::iter::label");
        let mut ln_labels: Vec<f32> = Vec::with_capacity(queries.len());
        for q in &queries {
            ln_labels.push((count(q)?.max(1) as f32).ln());
        }
        let x_q = if cfg.ablate_quantization {
            x
        } else {
            straight_through(&mut g, x, &encs)
        };
        drop(label_span);

        // (6) virtual update of the surrogate, mirroring the victim's real
        // K-step incremental update so the hypergradient sees the full
        // deployment effect. (The acceleration over the basic algorithm is
        // the *interleaving* of generator and model updates — Lemma 5.2's
        // O(n₁+n₂) vs O(n₃(n₁+n₂)) — not a shallower lookahead.)
        let unroll_span = span("attack::iter::unroll");
        let theta0 = surrogate.params().bind(&mut g);
        let theta1 = unroll_virtual_updates(
            &mut g,
            surrogate,
            theta0,
            x_q,
            &ln_labels,
            cfg.unroll_steps.max(1),
            cfg.unroll_lr,
        );

        // (7) hypergradient step on the poisoning objective.
        let test_x = g.leaf(test_mat.clone());
        let objective = poisoning_objective(&mut g, surrogate, &theta1, test_x, test_ln);
        let obj_value = g.value(objective).as_scalar();
        curve.push(obj_value);
        drop(unroll_span);

        // (13)–(15) detector confrontation: reconstruction loss of flagged
        // queries back-propagates into the generator.
        if let Some(det) = &detector {
            let _detector_span = span("attack::iter::detector");
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
                generator.apply_step(&g, recon_loss, &bind, "attack::accelerated::detector");
            }
        }

        // (19) generator ascent on the objective (descend its negative),
        // with a large-step escape when progress stalls (Section 5.3). The
        // best-performing generator state is checkpointed so an escape that
        // overshoots cannot cost the attack its progress — and a collapse
        // (objective far below the best seen) restores that checkpoint so
        // the curve re-converges instead of wandering from a wrecked state.
        if obj_value > best {
            best = obj_value;
            if !cfg.ablate_checkpoint {
                best_params = Some(generator.params().snapshot());
            }
            stall = 0;
        } else {
            stall += 1;
        }
        if !cfg.ablate_checkpoint && obj_value < best * 0.25 {
            if let Some(best_p) = &best_params {
                generator.params_mut().restore(best_p);
                generator.set_lr(base_lr);
                stall = 0;
                it += 1;
                since_ckpt += 1;
                continue;
            }
        }
        if stall >= cfg.escape_patience {
            generator.set_lr(base_lr * cfg.escape_boost);
            stall = 0;
        } else {
            generator.set_lr(base_lr);
        }
        {
            let _hypergrad_span = span("attack::iter::hypergrad");
            let loss = g.neg(objective);
            generator.apply_step(&g, loss, &bind, "attack::accelerated::hypergradient");
        }

        // (20) periodic real surrogate update.
        if (it + 1).is_multiple_of(cfg.sync_every.max(1)) {
            let data = EncodedWorkload {
                enc: encs,
                ln_card: ln_labels,
            };
            surrogate.update(&data)?;
        }

        // Divergence recovery: a non-finite objective or non-finite
        // parameters (the capped Q-error masks NaN through IEEE min/max, so
        // parameter finiteness is the authoritative signal) rolls the whole
        // loop state back and halves the learning rate.
        if !obj_value.is_finite() || !generator.params_finite() || !surrogate.params_finite() {
            if rollbacks >= cfg.max_rollbacks {
                return Err(CampaignError::Train(TrainError::Diverged { rollbacks }));
            }
            rollbacks += 1;
            pace_tensor::trace::CHECKPOINT_ROLLBACKS.add(1);
            base_lr *= 0.5;
            it = checkpoint.restore(
                &mut generator,
                surrogate,
                &mut rng,
                &mut best,
                &mut best_params,
                &mut stall,
                &mut curve,
            );
            since_ckpt = 0;
            continue;
        }
        it += 1;
        since_ckpt += 1;
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
