//! End-to-end behavior of the serving runtime: healthy batching, typed
//! shedding under overload, deadline propagation, degradation to the
//! classical estimator, and hot-swap under live traffic.

use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_data::{build, Dataset, DatasetKind, Scale};
use pace_engine::{Executor, HistogramEstimator};
use pace_serve::{
    pinned_from_encoded, Phase, PinnedQuery, Reply, Request, ServeConfig, ServeError, ServeState,
    Server, Source, SwapError, SwapEvent,
};
use pace_tensor::fault::{self, FaultSpec};
use pace_workload::{generate_queries, Predicate, Query, QueryEncoder, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// The fault injector is process-global; tests that install specs (and
/// tests that require none) must not interleave.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    match FAULT_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct Setup {
    ds: Dataset,
    model: CeModel,
    pinned: Vec<PinnedQuery>,
    pool: Vec<Query>,
}

fn setup(seed: u64) -> Setup {
    setup_on(DatasetKind::Dmv, WorkloadSpec::single_table(), seed)
}

fn setup_on(kind: DatasetKind, spec: WorkloadSpec, seed: u64) -> Setup {
    let ds = build(kind, Scale::tiny(), seed);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let labeled = exec.label_nonzero(generate_queries(&ds, &spec, &mut rng, 160));
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    let mut model = CeModel::new(CeModelType::Linear, &ds, CeConfig::quick(), seed + 2);
    model.train(&data, &mut rng).expect("training converges");
    let pool: Vec<Query> = labeled.iter().take(24).map(|lq| lq.query.clone()).collect();
    Setup {
        pinned: pinned_from_encoded(&data, 24),
        ds,
        model,
        pool,
    }
}

fn server(s: &Setup, cfg: ServeConfig) -> Server {
    let fallback = HistogramEstimator::build(&s.ds, 32);
    let mut srv = Server::new(cfg, s.ds.schema.clone(), s.pinned.clone(), Some(fallback));
    srv.try_swap(1, s.model.clone()).expect("initial swap");
    srv
}

fn stream(s: &Setup, phases: &[Phase], seed: u64, deadline: f64) -> Vec<Request> {
    pace_serve::generate(phases, &s.pool, seed, deadline, 0)
}

#[test]
fn rated_load_serves_everything_from_the_learned_path() {
    let _g = lock();
    fault::install(None);
    let s = setup(101);
    let mut srv = server(&s, ServeConfig::default());
    let phases = [Phase {
        name: "rated",
        duration: 1.0,
        rate: 400.0,
    }];
    let replies = srv.run(stream(&s, &phases, 11, 0.25), vec![]);
    assert!(!replies.is_empty());
    for r in &replies {
        let reply = r.outcome.as_ref().expect("no rejections at rated load");
        assert!(reply.estimate.is_finite() && reply.estimate >= 0.0);
        assert_eq!(reply.source, Source::Learned);
        assert!(reply.completed_at >= r.arrival);
    }
    let sum = srv.summary();
    assert_eq!(sum.learned_served, replies.len() as u64);
    assert_eq!(sum.shed, 0);
    assert!(sum.batches > 0);
    assert!(
        sum.max_queue_depth <= srv.summary().max_queue_depth.max(64),
        "queue stays bounded"
    );
    assert_eq!(srv.state(), ServeState::Healthy);
}

#[test]
fn overload_sheds_with_typed_errors_and_bounded_queue() {
    let _g = lock();
    fault::install(None);
    let s = setup(103);
    let cfg = ServeConfig {
        queue_cap: 32,
        fallback_burst: 8.0,
        fallback_rate: 40.0,
        ..ServeConfig::default()
    };
    let cap = cfg.queue_cap;
    let mut srv = server(&s, cfg);
    // Far beyond batch-service capacity (~1000 req/s at default costs).
    let phases = [Phase {
        name: "overload",
        duration: 1.0,
        rate: 4000.0,
    }];
    let replies = srv.run(stream(&s, &phases, 13, 0.25), vec![]);
    let sheds = replies
        .iter()
        .filter(|r| matches!(r.outcome, Err(ServeError::Shed { .. })))
        .count();
    assert!(sheds > 0, "2×+ overload must shed");
    for r in &replies {
        match &r.outcome {
            Ok(Reply { estimate, .. }) => {
                assert!(estimate.is_finite() && *estimate >= 0.0);
            }
            Err(ServeError::Shed { depth }) => assert!(*depth <= cap),
            Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(other) => panic!("unexpected rejection under overload: {other:?}"),
        }
    }
    let sum = srv.summary();
    assert!(sum.max_queue_depth <= cap, "queue never exceeds its cap");
    assert!(
        sum.fallback_served > 0,
        "token-bucket degradation precedes shedding"
    );
    assert_eq!(srv.state(), ServeState::Shedding);
}

#[test]
fn deadlines_are_enforced_at_admission_formation_and_completion() {
    let _g = lock();
    fault::install(None);
    let s = setup(105);
    let mut srv = server(&s, ServeConfig::default());
    // A deadline shorter than the batch window + batch cost cannot be met.
    let tight = Request {
        id: 0,
        arrival: 0.0,
        deadline: 0.001,
        query: s.pool[0].clone().into(),
    };
    // A request whose deadline has already passed at admission.
    let expired = Request {
        id: 1,
        arrival: 0.5,
        deadline: 0.4,
        query: s.pool[1].clone().into(),
    };
    let roomy = Request {
        id: 2,
        arrival: 0.6,
        deadline: 0.9,
        query: s.pool[2].clone().into(),
    };
    let replies = srv.run(vec![tight, expired, roomy], vec![]);
    let by_id = |id: u64| {
        replies
            .iter()
            .find(|r| r.id == id)
            .expect("reply present")
            .outcome
            .clone()
    };
    assert!(matches!(by_id(0), Err(ServeError::DeadlineExceeded { .. })));
    assert!(matches!(by_id(1), Err(ServeError::DeadlineExceeded { .. })));
    let ok = by_id(2).expect("roomy deadline is met");
    assert!(ok.completed_at <= 0.9);
    assert_eq!(srv.summary().deadline_missed, 2);
}

/// Every malformed shape is rejected at admission, before any schema
/// lookup can index out of range and before the encoder sees it. An
/// out-of-range singleton once passed validation and panicked in the
/// encoder inside a batch; `[0, 99]` once panicked inside the
/// connectivity check.
#[test]
fn malformed_requests_are_typed_and_do_not_reach_the_model() {
    let _g = lock();
    fault::install(None);
    let s = setup_on(DatasetKind::Tpch, WorkloadSpec::default(), 107);
    let schema = &s.ds.schema;
    let edge = schema.edges[0];
    let pair = vec![edge.left.0, edge.right.0];
    let attrs = schema.attributes();
    let (t, c) = *attrs
        .iter()
        .find(|&&(t, _)| t == pair[0])
        .expect("a joined table has an attribute");
    let (outside, outside_col) = *attrs
        .iter()
        .find(|&&(t, _)| !pair.contains(&t))
        .expect("an attribute outside the pair");
    let pred = |table: usize, col: usize, lo: i64, hi: i64| Predicate { table, col, lo, hi };
    let raw = |tables: Vec<usize>, predicates: Vec<Predicate>| Query { tables, predicates };
    let queries = [
        raw(vec![], vec![]),
        raw(vec![99], vec![]),
        raw(vec![0, 99], vec![]),
        raw(vec![0, 0], vec![]),
        raw(pair.clone(), vec![pred(99, c, 0, 5)]),
        raw(pair.clone(), vec![pred(t, 99, 0, 5)]),
        raw(pair.clone(), vec![pred(t, c, 5, 0)]),
        raw(pair.clone(), vec![pred(outside, outside_col, 0, 5)]),
    ];
    assert!(
        raw(pair.clone(), vec![pred(t, c, 0, 5)]).is_valid(schema),
        "the well-formed base query is admissible"
    );
    let mut srv = server(&s, ServeConfig::default());
    let requests = (0u64..)
        .zip(&queries)
        .map(|(id, q)| Request {
            id,
            arrival: id as f64 * 1e-3,
            deadline: 1.0,
            query: q.clone().into(),
        })
        .collect();
    let replies = srv.run(requests, vec![]);
    assert_eq!(replies.len(), queries.len());
    for r in &replies {
        assert_eq!(
            r.outcome,
            Err(ServeError::Malformed),
            "{:?}",
            queries[r.id as usize]
        );
    }
    assert_eq!(srv.summary().malformed, queries.len() as u64);
    assert_eq!(srv.summary().batches, 0);
}

#[test]
fn nonfinite_model_output_degrades_to_fallback_never_an_error() {
    let _g = lock();
    fault::install(None);
    let s = setup(109);
    // Shadow validation makes a NaN snapshot unreachable through
    // `try_swap`, so the break-glass `force_install` path is the only way
    // to point traffic at one — exactly the scenario the serving side's
    // own non-finite guard exists for.
    let mut garbage = s.model.clone();
    let first = garbage
        .params()
        .iter()
        .next()
        .map(|(id, _)| id)
        .expect("model has params");
    for v in garbage.params_mut().get_mut(first).data_mut() {
        *v = f32::NAN;
    }
    let mut srv = server(&s, ServeConfig::default());
    srv.snapshots().force_install(2, garbage);
    let phases = [Phase {
        name: "rated",
        duration: 0.5,
        rate: 200.0,
    }];
    let replies = srv.run(stream(&s, &phases, 17, 0.25), vec![]);
    for r in &replies {
        let reply = r
            .outcome
            .as_ref()
            .expect("well-formed requests never fail while degraded");
        assert!(
            reply.estimate.is_finite() && reply.estimate >= 0.0,
            "non-finite estimate served: {}",
            reply.estimate
        );
        assert_eq!(reply.source, Source::Fallback);
    }
    let sum = srv.summary();
    assert!(sum.nonfinite_replaced > 0, "the guard actually fired");
    assert!(sum.fallback_served > 0);
    assert_eq!(srv.state(), ServeState::Degraded);
}

#[test]
fn no_model_and_no_fallback_is_a_typed_unhealthy_error() {
    let _g = lock();
    fault::install(None);
    let s = setup(111);
    let mut srv = Server::new(
        ServeConfig::default(),
        s.ds.schema.clone(),
        s.pinned.clone(),
        None,
    );
    let req = Request {
        id: 0,
        arrival: 0.0,
        deadline: 1.0,
        query: s.pool[0].clone().into(),
    };
    let replies = srv.run(vec![req], vec![]);
    assert_eq!(replies[0].outcome, Err(ServeError::Unhealthy));
}

#[test]
fn bad_update_mid_traffic_rolls_back_with_zero_failed_requests() {
    let _g = lock();
    let s = setup(113);
    let mut srv = server(&s, ServeConfig::default());
    let phases = [Phase {
        name: "rated",
        duration: 1.0,
        rate: 400.0,
    }];
    let requests = stream(&s, &phases, 19, 0.25);
    // The candidate is corrupted by the bad_update fault just before
    // shadow validation, in the middle of the stream.
    fault::install(Some(
        FaultSpec::parse("bad_update,site=serve-swap,at=1").expect("valid spec"),
    ));
    let swaps = vec![SwapEvent {
        at: 0.5,
        version: 2,
        model: s.model.clone(),
    }];
    let replies = srv.run(requests, swaps);
    fault::install(None);
    // Entry 0 is the initial healthy swap from the test helper.
    assert_eq!(srv.swap_log().len(), 2);
    assert_eq!(
        srv.swap_log()[1].result,
        Err(SwapError::NonFiniteParams),
        "corrupted candidate must be rejected"
    );
    assert_eq!(
        srv.snapshots().active_version(),
        Some(1),
        "rollback keeps the previous snapshot"
    );
    for r in &replies {
        let reply = r
            .outcome
            .as_ref()
            .expect("zero failed well-formed requests during the swap window");
        assert!(reply.estimate.is_finite() && reply.estimate >= 0.0);
        assert_eq!(reply.source, Source::Learned);
    }
}

#[test]
fn good_swap_mid_traffic_changes_versions_without_failures() {
    let _g = lock();
    fault::install(None);
    let s = setup(115);
    let mut srv = server(&s, ServeConfig::default());
    let phases = [Phase {
        name: "rated",
        duration: 1.0,
        rate: 400.0,
    }];
    let requests = stream(&s, &phases, 23, 0.25);
    let swaps = vec![SwapEvent {
        at: 0.5,
        version: 2,
        model: s.model.clone(),
    }];
    let replies = srv.run(requests, swaps);
    assert_eq!(srv.swap_log()[0].result, Ok(()));
    assert_eq!(srv.snapshots().active_version(), Some(2));
    assert!(replies.iter().all(|r| r.outcome.is_ok()));
}

#[test]
fn slow_consumer_fault_backs_up_the_queue_but_never_hangs() {
    let _g = lock();
    let s = setup(117);
    let cfg = ServeConfig {
        queue_cap: 24,
        fallback_burst: 4.0,
        fallback_rate: 20.0,
        ..ServeConfig::default()
    };
    let cap = cfg.queue_cap;
    let mut srv = server(&s, cfg);
    let phases = [Phase {
        name: "rated",
        duration: 1.0,
        rate: 400.0,
    }];
    let requests = stream(&s, &phases, 29, 0.1);
    // Every batch takes an extra 50 virtual ms: rated load now exceeds
    // service capacity, so the queue backs up.
    fault::install(Some(
        FaultSpec::parse("slow_consumer,site=serve-batch,every=1,lat=0.05").expect("valid spec"),
    ));
    let replies = srv.run(requests, vec![]);
    fault::install(None);
    let sum = srv.summary();
    assert!(sum.max_queue_depth <= cap);
    assert!(
        sum.shed + sum.deadline_missed + sum.fallback_served > 0,
        "a stalled consumer must surface as backpressure, not a hang"
    );
    // Every request got exactly one recorded outcome.
    assert_eq!(sum.requests as usize, replies.len());
}

#[test]
fn reply_sequences_are_reproducible_across_runs() {
    let _g = lock();
    fault::install(None);
    let s = setup(119);
    let phases = [
        Phase {
            name: "rated",
            duration: 0.5,
            rate: 400.0,
        },
        Phase {
            name: "overload",
            duration: 0.5,
            rate: 3000.0,
        },
    ];
    let run = || {
        let mut srv = server(&s, ServeConfig::default());
        srv.run(stream(&s, &phases, 31, 0.1), vec![])
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        match (&x.outcome, &y.outcome) {
            (Ok(rx), Ok(ry)) => {
                assert_eq!(rx.estimate.to_bits(), ry.estimate.to_bits());
                assert_eq!(rx.source, ry.source);
                assert_eq!(rx.completed_at.to_bits(), ry.completed_at.to_bits());
            }
            (ex, ey) => assert_eq!(ex, ey),
        }
    }
}
