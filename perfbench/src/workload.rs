//! The three workloads: their inputs, their set-up, and the operations a
//! run measures.
//!
//! Every workload is a trained victim estimator that is both attacked and
//! served. Set-up builds the dataset, generates and labels the query
//! workloads, trains the victim, and retrains the hot-swap candidates. A
//! measured round then runs one PACE campaign (`pace_core::run_campaign`)
//! against a fresh copy of the victim and three served segments
//! (`pace_serve::Server::run`) in front of it. The workloads differ in
//! which of these dominates (see the `why` of each in `BENCHMARK.json`).

use crate::check::{bits, Outputs};
use crate::digest::Fnv;
use crate::schedule::OpKind;
use crate::target::TimedTarget;
use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::{
    craft_poison, run_campaign, AttackConfig, AttackMethod, AttackerKnowledge, BlackBox,
    PipelineConfig, SurrogateConfig, Victim,
};
use pace_data::{build, Dataset, DatasetKind, Scale};
use pace_engine::{Executor, HistogramEstimator};
use pace_serve::{
    pinned_from_encoded, PinnedQuery, ReplyRecord, Request, ServeConfig, ServeError, Server,
    SnapshotStore, Source, SwapEvent,
};
use pace_trace::span;
use pace_workload::{
    generate_from_templates, generate_queries, templates_for, Query, QueryEncoder, Workload,
    WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Virtual seconds of budget every served request gets.
const DEADLINE: f64 = 0.1;
/// Arrival rate of the rated and swap segments (req per virtual s), under
/// the ≈1080 req/s virtual capacity of the default `ServeConfig`.
const RATED_RATE: f64 = 600.0;
/// Arrival rate of the overload segment.
const OVERLOAD_RATE: f64 = 2400.0;
/// Pinned validation probes behind every hot-swap.
const PINNED: usize = 32;
/// A candidate passes the pinned probe when its median q-error is within
/// this factor of the served victim's.
const SWAP_QERR_MARGIN: f64 = 2.0;
/// Labeled queries behind each retrained swap candidate.
const CANDIDATE_QUERIES: usize = 48;

/// One workload's fixed shape.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Dataset.
    pub dataset: DatasetKind,
    /// Victim (and surrogate) model type.
    pub model: CeModelType,
    /// Size of the victim's training workload.
    pub train_queries: usize,
    /// Size of the test workload the attack targets.
    pub test_queries: usize,
    /// Campaign shape.
    pub pipeline: PipelineConfig,
    /// Requests per rated or swap segment (three times as many per
    /// overload segment).
    pub segment_requests: usize,
}

/// Names of every workload, in report order.
pub const NAMES: [&str; 3] = ["pace-tpch-fcn", "pace-imdb-lstm", "serve-stats-mscn"];

fn pipeline(
    model: CeModelType,
    attack: AttackConfig,
    surrogate: SurrogateConfig,
) -> PipelineConfig {
    PipelineConfig {
        // A fixed surrogate type: speculation keys off wall-clock latency
        // and would make the campaign's outcome nondeterministic.
        surrogate_type: Some(model),
        attack,
        surrogate,
        ..PipelineConfig::quick()
    }
}

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "pace-tpch-fcn" => Spec {
            name: "pace-tpch-fcn",
            dataset: DatasetKind::Tpch,
            model: CeModelType::Fcn,
            train_queries: 400,
            test_queries: 80,
            pipeline: pipeline(
                CeModelType::Fcn,
                AttackConfig::quick(),
                SurrogateConfig::quick(),
            ),
            segment_requests: 30000,
        },
        "pace-imdb-lstm" => Spec {
            name: "pace-imdb-lstm",
            dataset: DatasetKind::Imdb,
            model: CeModelType::Lstm,
            train_queries: 400,
            test_queries: 80,
            pipeline: pipeline(
                CeModelType::Lstm,
                AttackConfig {
                    iters: 8,
                    ..AttackConfig::quick()
                },
                SurrogateConfig {
                    train_queries: 300,
                    epochs: 15,
                    ..SurrogateConfig::quick()
                },
            ),
            segment_requests: 6000,
        },
        "serve-stats-mscn" => Spec {
            name: "serve-stats-mscn",
            dataset: DatasetKind::Stats,
            model: CeModelType::Mscn,
            train_queries: 400,
            test_queries: 80,
            pipeline: pipeline(
                CeModelType::Mscn,
                AttackConfig {
                    iters: 4,
                    n_poison: 32,
                    ..AttackConfig::quick()
                },
                SurrogateConfig {
                    train_queries: 200,
                    epochs: 10,
                    ..SurrogateConfig::quick()
                },
            ),
            segment_requests: 10000,
        },
        _ => return None,
    })
}

/// Everything set-up produces; operations only read it.
pub struct Fixture {
    /// The dataset.
    pub ds: Dataset,
    /// The historical workload the victim trained on.
    pub history: Vec<Query>,
    /// The labeled test workload the attack targets.
    pub test: Workload,
    /// The attacker's public knowledge.
    pub knowledge: AttackerKnowledge,
    /// The campaign configuration.
    pub pipeline: PipelineConfig,
    /// The trained victim.
    pub victim: CeModel,
    /// Pinned validation set of every server.
    pub pinned: Vec<PinnedQuery>,
    /// Serving configuration (swap limit fixed from the victim).
    pub serve: ServeConfig,
    /// Hot-swap candidates, versions 2, 3, …
    pub candidates: Vec<CeModel>,
    /// Requests of the rated, overload and swap segments.
    pub requests: [Vec<Request>; 3],
    /// Queries labeled during set-up.
    pub labeled_queries: u64,
}

impl Fixture {
    /// Digest of the trained victim and candidates: identical for every
    /// set-up of one workload.
    pub fn digest(&self) -> String {
        let mut h = Fnv::default();
        for m in std::iter::once(&self.victim).chain(&self.candidates) {
            params_digest(&mut h, m);
        }
        h.u64(self.labeled_queries);
        format!("{:016x}", h.finish())
    }
}

fn params_digest(h: &mut Fnv, m: &CeModel) {
    for p in m.params().snapshot() {
        h.u64(p.rows() as u64).u64(p.cols() as u64);
        for &x in p.data() {
            h.u64(u64::from(x.to_bits()));
        }
    }
}

fn queries_digest(qs: &[Query]) -> String {
    let mut h = Fnv::default();
    for q in qs {
        h.str(&format!("{q:?}"));
    }
    format!("{:016x}", h.finish())
}

/// The fixed seed of each workload's database, victim and campaign. The
/// run's `--seed` draws what a deployment sees change from hour to hour:
/// the served query pool, the arrival streams and the measuring order.
/// Keeping the attacked system fixed keeps the campaign's outcome, and the
/// work behind it, the same for every run of a workload.
const SYSTEM_SEED: u64 = 42;
/// Distinct queries in the served pool.
const POOL_QUERIES: usize = 256;

/// Builds the workload's inputs. Each crate's public call runs under one
/// of the benchmark's spans (`perfbench::<layer>`).
pub fn setup(spec: &Spec, seed: u64) -> Result<Fixture, String> {
    let ds = {
        let _s = span("perfbench::data.build");
        build(spec.dataset, Scale::quick(), SYSTEM_SEED)
    };
    let wspec = WorkloadSpec {
        max_join_tables: 3,
        ..WorkloadSpec::default()
    };
    let (train_q, test_q, cand_q, pool) = {
        let _s = span("perfbench::workload.gen");
        let templates = templates_for(&ds);
        let gen = |rng: &mut StdRng, n: usize| match &templates {
            Some(t) => generate_from_templates(&ds, t, &wspec, rng, n),
            None => generate_queries(&ds, &wspec, rng, n),
        };
        let mut rng = StdRng::seed_from_u64(SYSTEM_SEED ^ 0xc0ff_ee00);
        let train = gen(&mut rng, spec.train_queries);
        let test = gen(&mut rng, spec.test_queries);
        let cand = gen(&mut rng, CANDIDATE_QUERIES);
        let pool = gen(&mut StdRng::seed_from_u64(seed ^ 0x9001), POOL_QUERIES);
        (train, test, cand, pool)
    };
    let exec = Executor::new(&ds);
    let labeled_queries = (train_q.len() + test_q.len() + cand_q.len()) as u64;
    let (train, test, cand) = {
        let _s = span("perfbench::engine.label");
        (
            exec.label_nonzero(train_q),
            exec.label_nonzero(test_q),
            exec.label_nonzero(cand_q),
        )
    };
    if test.is_empty() || train.len() < CANDIDATE_QUERIES || cand.is_empty() {
        return Err(format!(
            "too few non-empty queries (train {}, test {}, candidates {})",
            train.len(),
            test.len(),
            cand.len()
        ));
    }
    let encoder = QueryEncoder::new(&ds);
    let data = EncodedWorkload::from_workload(&encoder, &train);
    let victim = {
        let _s = span("perfbench::ce.victim_train");
        let mut model = CeModel::new(spec.model, &ds, CeConfig::quick(), SYSTEM_SEED ^ 0x51c7);
        let mut rng = StdRng::seed_from_u64(SYSTEM_SEED ^ 0x7ea);
        model
            .train(&data, &mut rng)
            .map_err(|e| format!("victim training failed: {e}"))?;
        model
    };

    // Serving: the pinned probe admits candidates within SWAP_QERR_MARGIN of
    // the victim's own pinned median q-error.
    let pinned = pinned_from_encoded(&data, PINNED);
    let clean_median =
        SnapshotStore::new(pinned.clone(), f64::INFINITY, u32::MAX).shadow_median_qerr(&victim);
    let serve = ServeConfig {
        swap_qerr_limit: clean_median * SWAP_QERR_MARGIN,
        ..ServeConfig::default()
    };
    // Candidates alternate a retrain on the head of the victim's own
    // training workload, which holds the pinned probes (the probe accepts
    // it), and a retrain on fresh queries whose labels are inflated a
    // millionfold (the probe rejects it).
    let candidates = {
        let _s = span("perfbench::ce.candidates");
        let clean = &train[..CANDIDATE_QUERIES];
        (0..4)
            .map(|i| {
                let (part, inflate) = if i % 2 == 0 {
                    (clean, 1)
                } else {
                    (cand.as_slice(), 1_000_000)
                };
                let cards: Vec<u64> = part
                    .iter()
                    .map(|lq| lq.cardinality.saturating_mul(inflate))
                    .collect();
                let enc = part.iter().map(|lq| encoder.encode(&lq.query)).collect();
                let mut m = victim.clone();
                m.update(&EncodedWorkload::from_parts(enc, &cards))
                    .map_err(|e| format!("candidate {} retraining failed: {e}", i + 2))?;
                Ok(m)
            })
            .collect::<Result<Vec<_>, String>>()?
    };

    // Overload requests are mostly shed or answered by the fallback, so
    // the overload segment offers more of them for a comparable wall time.
    let segment = |rate: f64, salt: u64| {
        let requests = spec.segment_requests * if rate > RATED_RATE { 3 } else { 1 };
        let phase = pace_serve::Phase {
            name: "segment",
            duration: requests as f64 / rate,
            rate,
        };
        pace_serve::generate(&[phase], &pool, seed ^ salt, DEADLINE, 0)
    };
    let requests = [
        segment(RATED_RATE, 0x7a7e),
        segment(OVERLOAD_RATE, 0x0be7),
        segment(RATED_RATE, 0x5a1b),
    ];

    Ok(Fixture {
        knowledge: AttackerKnowledge::from_public(&ds, wspec),
        history: train.iter().map(|lq| lq.query.clone()).collect(),
        ds,
        test,
        pipeline: spec.pipeline.clone(),
        victim,
        pinned,
        serve,
        candidates,
        requests,
        labeled_queries,
    })
}

/// What one campaign produced.
pub struct CampaignRun {
    /// Wall seconds inside `run_campaign`.
    pub wall_s: f64,
    /// `AttackOutcome::qerror_multiple`.
    pub qerr_x: f64,
    /// JS divergence of the poison from the history.
    pub js: f64,
    /// Checked outputs.
    pub outputs: Outputs,
}

/// Runs one campaign against a fresh copy of the victim. Only the
/// `run_campaign` call is timed.
pub fn campaign(fx: &Fixture, manifest: &Path) -> Result<CampaignRun, String> {
    let mut victim = Victim::new(fx.victim.clone(), Executor::new(&fx.ds), fx.history.clone());
    let t = Instant::now();
    let outcome = {
        let _s = span("perfbench::core.run_campaign");
        run_campaign(
            &mut victim,
            AttackMethod::Pace,
            &fx.test,
            &fx.knowledge,
            &fx.pipeline,
            manifest,
        )
    }
    .map_err(|e| format!("campaign failed: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let qerr_x = outcome.qerror_multiple();
    let js = outcome.divergence;
    Ok(CampaignRun {
        wall_s,
        qerr_x,
        js,
        outputs: campaign_outputs(&outcome.poison, qerr_x, js, victim.model()),
    })
}

fn campaign_outputs(poison: &[Query], qerr_x: f64, js: f64, poisoned: &CeModel) -> Outputs {
    let mut h = Fnv::default();
    params_digest(&mut h, poisoned);
    Outputs::from([
        ("campaign.attack_qerr_x".to_string(), bits(qerr_x)),
        ("campaign.poison_js".to_string(), bits(js)),
        (
            "campaign.poison_queries".to_string(),
            queries_digest(poison),
        ),
        (
            "campaign.poisoned_victim".to_string(),
            format!("{:016x}", h.finish()),
        ),
    ])
}

/// The attacker's side of a campaign replayed through [`TimedTarget`], so
/// COUNT, EXPLAIN and query injection are timed from outside: the same
/// crafting call (`craft_poison`) and the same wave-by-wave injection as
/// `run_campaign`, whose outputs it must reproduce.
pub fn attacker_replay(fx: &Fixture) -> Result<Outputs, String> {
    let victim = Victim::new(fx.victim.clone(), Executor::new(&fx.ds), fx.history.clone());
    let mut target = TimedTarget::new(victim);
    let clean = target_mean_qerr(&target, &fx.test);
    let (poison, ..) = {
        let _s = span("perfbench::core.craft_poison");
        craft_poison(
            &target,
            AttackMethod::Pace,
            &fx.test,
            &fx.knowledge,
            &fx.pipeline,
        )
    }
    .map_err(|e| format!("attacker replay failed: {e}"))?;
    for wave in poison.chunks(fx.pipeline.wave_size.max(1)) {
        target
            .run_queries(wave)
            .map_err(|e| format!("attacker replay injection failed: {e}"))?;
    }
    let poisoned = target_mean_qerr(&target, &fx.test);
    let qerr_x = poisoned / clean.max(1.0);
    let hist: Vec<Vec<f32>> = fx
        .history
        .iter()
        .map(|q| fx.knowledge.encoder.encode(q))
        .collect();
    let pois: Vec<Vec<f32>> = poison
        .iter()
        .map(|q| fx.knowledge.encoder.encode(q))
        .collect();
    let js = pace_workload::js_divergence(&pois, &hist, 20);
    Ok(campaign_outputs(
        &poison,
        qerr_x,
        js,
        target.victim().model(),
    ))
}

fn target_mean_qerr(t: &TimedTarget<'_>, test: &Workload) -> f64 {
    let q = pace_core::AttackTarget::q_errors(t, test);
    pace_workload::QErrorSummary::from_samples(&q).mean
}

/// What one served segment produced.
pub struct SegmentRun {
    /// Which segment.
    pub kind: OpKind,
    /// Wall seconds inside `Server::run`.
    pub wall_s: f64,
    /// Requests offered.
    pub requests: u64,
    /// Replies that failed: sheds, deadline misses, typed errors.
    pub failed: u64,
    /// Replies served by the learned model.
    pub learned: u64,
    /// Replies served by the fallback estimator.
    pub fallback: u64,
    /// Sheds.
    pub shed: u64,
    /// Deadline misses.
    pub deadline_missed: u64,
    /// Learned batches fired.
    pub batches: u64,
    /// Deepest admission queue.
    pub queue_depth_max: u64,
    /// Virtual latency of every successful reply, ms.
    pub virtual_ms: Vec<f64>,
    /// Swap verdicts `(version, accepted)`.
    pub swaps: Vec<(u64, bool)>,
    /// Checked outputs.
    pub outputs: Outputs,
}

/// Serves one segment through a fresh server holding the victim. Only the
/// `Server::run` call is timed.
pub fn segment(fx: &Fixture, kind: OpKind) -> Result<SegmentRun, String> {
    let idx = match kind {
        OpKind::Rated => 0,
        OpKind::Overload => 1,
        OpKind::Swap => 2,
        OpKind::Campaign => return Err("a campaign is not a served segment".to_string()),
    };
    let mut srv = Server::new(
        fx.serve.clone(),
        fx.ds.schema.clone(),
        fx.pinned.clone(),
        Some(HistogramEstimator::build(&fx.ds, 32)),
    );
    srv.try_swap(1, fx.victim.clone())
        .map_err(|e| format!("the victim fails its own pinned probe: {e}"))?;
    let requests = fx.requests[idx].clone();
    let span_s = requests.last().map_or(0.0, |r| r.arrival);
    let swaps: Vec<SwapEvent> = if kind == OpKind::Swap {
        let n = fx.candidates.len();
        fx.candidates
            .iter()
            .enumerate()
            .map(|(i, m)| SwapEvent {
                at: span_s * (i + 1) as f64 / (n + 1) as f64,
                version: i as u64 + 2,
                model: m.clone(),
            })
            .collect()
    } else {
        Vec::new()
    };
    let n = requests.len() as u64;
    let t = Instant::now();
    let records = {
        let _s = span(match kind {
            OpKind::Rated => "perfbench::serve.run.rated",
            OpKind::Overload => "perfbench::serve.run.overload",
            _ => "perfbench::serve.run.swap",
        });
        srv.run(requests, swaps)
    };
    let wall_s = t.elapsed().as_secs_f64();
    if records.len() as u64 != n {
        return Err(format!("{} replies to {n} requests", records.len()));
    }
    let sum = srv.summary().clone();
    let swaps: Vec<(u64, bool)> = srv
        .swap_log()
        .iter()
        .skip(1) // the initial install of version 1
        .map(|s| (s.version, s.result.is_ok()))
        .collect();
    let mut out = SegmentRun {
        kind,
        wall_s,
        requests: n,
        failed: records.iter().filter(|r| r.outcome.is_err()).count() as u64,
        learned: 0,
        fallback: 0,
        shed: sum.shed,
        deadline_missed: sum.deadline_missed,
        batches: sum.batches,
        queue_depth_max: sum.max_queue_depth as u64,
        virtual_ms: Vec::new(),
        swaps,
        outputs: Outputs::new(),
    };
    for r in &records {
        if let Ok(reply) = &r.outcome {
            match reply.source {
                Source::Learned => out.learned += 1,
                Source::Fallback => out.fallback += 1,
            }
            out.virtual_ms.push((reply.completed_at - r.arrival) * 1e3);
        }
    }
    let name = kind.name();
    out.outputs
        .insert(format!("serve.{name}.replies"), replies_digest(&records));
    if kind == OpKind::Swap {
        let ledger: Vec<String> = srv
            .swap_log()
            .iter()
            .skip(1)
            .map(|s| match &s.result {
                Ok(()) => format!("v{}:accepted", s.version),
                Err(e) => format!("v{}:rejected-{}", s.version, swap_error_class(e)),
            })
            .collect();
        out.outputs
            .insert("serve.swap.ledger".to_string(), ledger.join(","));
    }
    Ok(out)
}

fn swap_error_class(e: &pace_serve::SwapError) -> &'static str {
    use pace_serve::SwapError as E;
    match e {
        E::NonFiniteParams => "nonfinite",
        E::QualityRegression { .. } => "quality",
        E::VersionBanned { .. } => "banned",
        E::BreakerOpen => "breaker",
        E::NoPinnedSet => "nopinned",
    }
}

fn replies_digest(records: &[ReplyRecord]) -> String {
    let mut h = Fnv::default();
    for r in records {
        h.u64(r.id).f64(r.arrival);
        match &r.outcome {
            Ok(reply) => {
                h.u64(0).f64(reply.estimate).f64(reply.completed_at);
                h.u64(matches!(reply.source, Source::Learned) as u64);
            }
            Err(e) => {
                h.u64(1).u64(match e {
                    ServeError::Shed { depth } => 10 + *depth as u64,
                    ServeError::DeadlineExceeded { .. } => 2,
                    ServeError::Unhealthy => 3,
                    ServeError::Malformed => 4,
                });
            }
        }
    }
    format!("{:016x}", h.finish())
}
