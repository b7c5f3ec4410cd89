//! The four baseline poisoning strategies the paper compares against
//! (Section 7.1, "Baselines").

use super::{AttackArtifacts, AttackConfig};
use crate::generator::PoisonGenerator;
use crate::knowledge::AttackerKnowledge;
use crate::resilience::{CampaignError, ProbeError};
use pace_ce::{q_error_loss, CeModel};
use pace_tensor::Graph;
use pace_workload::{
    generate_queries_schema_only, q_error, schema_only_query_for_pattern, Predicate, Query,
    WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::time::Instant;

/// **Random**: draw poisoning queries from the same distribution as ordinary
/// workload queries.
pub fn random_poison(k: &AttackerKnowledge, rng: &mut StdRng, n: usize) -> Vec<Query> {
    generate_queries_schema_only(&k.encoder, &k.patterns, &k.spec, rng, n)
}

/// **Lb-S (loss-based selection)**: generate a 10× pool of random queries and
/// keep the `n` with the highest inference loss of the *unpoisoned* surrogate.
pub fn loss_based_selection(
    surrogate: &CeModel,
    count: &mut dyn FnMut(&Query) -> Result<u64, ProbeError>,
    k: &AttackerKnowledge,
    rng: &mut StdRng,
    n: usize,
) -> Result<Vec<Query>, CampaignError> {
    let pool = generate_queries_schema_only(&k.encoder, &k.patterns, &k.spec, rng, n * 10);
    let mut scored: Vec<(f64, Query)> = Vec::with_capacity(pool.len());
    for q in pool {
        let truth = count(&q)?.max(1) as f64;
        let score = q_error(surrogate.estimate_query(&q), truth);
        scored.push((score, q));
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    Ok(scored.into_iter().take(n).map(|(_, q)| q).collect())
}

/// **Greedy**: per query, pick a random join pattern, then build predicates
/// attribute by attribute, choosing among 10 random range conditions the one
/// that maximizes the unpoisoned surrogate's inference loss.
pub fn greedy_poison(
    surrogate: &CeModel,
    count: &mut dyn FnMut(&Query) -> Result<u64, ProbeError>,
    k: &AttackerKnowledge,
    rng: &mut StdRng,
    n: usize,
) -> Result<Vec<Query>, CampaignError> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let pattern = k.patterns[rng.random_range(0..k.patterns.len())].clone();
        let attrs: Vec<usize> = k
            .encoder
            .attributes()
            .iter()
            .enumerate()
            .filter(|(_, (t, _))| pattern.contains(t))
            .map(|(i, _)| i)
            .collect();
        let mut query = Query::new(pattern, vec![]);
        let budget = k.spec.max_predicates.min(attrs.len());
        for &attr in attrs.iter().take(budget) {
            let (t, c) = k.encoder.attributes()[attr];
            let stats = k.encoder.attr_stats(attr);
            let mut best: Option<(f64, Predicate)> = None;
            for _ in 0..10 {
                let a: f64 = rng.random_range(0.0..1.0);
                let b: f64 = rng.random_range(0.0..1.0);
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let cand = Predicate {
                    table: t,
                    col: c,
                    lo: stats.denormalize(lo),
                    hi: stats.denormalize(hi),
                };
                let mut trial = query.clone();
                trial.predicates.push(cand);
                let truth = count(&trial)?.max(1) as f64;
                let score = q_error(surrogate.estimate_query(&trial), truth);
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    best = Some((score, cand));
                }
            }
            if let Some((_, p)) = best {
                query.predicates.push(p);
            }
        }
        out.push(query);
    }
    Ok(out)
}

/// **Lb-G (loss-based generation)**: the same three-part generator as PACE,
/// but trained to maximize the inference loss of the *unpoisoned* surrogate
/// on the generated queries themselves — no bivariate lookahead, no detector.
pub fn train_lbg(
    surrogate: &CeModel,
    count: &mut dyn FnMut(&Query) -> Result<u64, ProbeError>,
    k: &AttackerKnowledge,
    cfg: &AttackConfig,
) -> Result<AttackArtifacts, CampaignError> {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1b6);
    let mut generator = PoisonGenerator::new(
        k.encoder.clone(),
        k.patterns.clone(),
        cfg.generator,
        cfg.seed ^ 0x1b7,
    );
    let mut curve = Vec::with_capacity(cfg.iters);
    for _ in 0..cfg.iters {
        let batch = generator.sample_joins(&mut rng, cfg.batch);
        generator.join_loss_step(&batch);
        let mut g = Graph::new();
        let bind = generator.params().bind(&mut g);
        let x = generator.forward_bounds(&mut g, &bind, &batch);
        let ln_labels: Vec<f32> = {
            let vals = g.value(x);
            let queries: Vec<Query> = (0..cfg.batch)
                .map(|r| generator.encoder().decode(vals.row_slice(r)))
                .collect();
            let mut labels = Vec::with_capacity(queries.len());
            for q in &queries {
                labels.push((count(q)?.max(1) as f32).ln());
            }
            labels
        };
        let theta = surrogate.params().bind(&mut g);
        let out = surrogate.forward(&mut g, &theta, x);
        let inference_loss = q_error_loss(&mut g, out, &ln_labels, surrogate.ln_max());
        curve.push(g.value(inference_loss).as_scalar());
        let loss = g.neg(inference_loss);
        generator.apply_step(&g, loss, &bind, "attack::baseline");
    }
    Ok(AttackArtifacts {
        generator,
        detector: None,
        objective_curve: curve,
        train_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Helper shared by experiments: a random query for one fixed pattern.
pub fn random_query_in_pattern(
    k: &AttackerKnowledge,
    rng: &mut StdRng,
    pattern: &[usize],
    spec: &WorkloadSpec,
) -> Query {
    schema_only_query_for_pattern(&k.encoder, spec, rng, pattern)
}
