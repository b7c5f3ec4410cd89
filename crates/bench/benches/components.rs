//! Criterion micro-benchmarks of the substrate components: autograd
//! (including the attack's double-backward unroll), the exact-count engine
//! (including the attack-shaped decoded queries it labels),
//! the join-order optimizer, CE-model inference and training steps,
//! generator steps, and serve admission's query validation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pace_ce::{q_error_loss, rows_to_matrix, CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::{GeneratorConfig, PoisonGenerator};
use pace_data::{build, DatasetKind, Scale};
use pace_engine::{optimize, Executor, OracleEstimator};
use pace_tensor::nn::{Activation, Mlp};
use pace_tensor::{Graph, Matrix, ParamStore};
use pace_workload::{
    generate_from_templates, generate_queries, templates_for, Query, QueryEncoder, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_autograd(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut ps = ParamStore::new();
    let mlp = Mlp::new(
        &mut ps,
        &mut rng,
        "m",
        &[64, 64, 64, 1],
        Activation::Relu,
        Activation::Sigmoid,
    );
    let x = Matrix::full(96, 64, 0.3);

    c.bench_function("autograd/mlp_forward_96x64", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let bind = ps.bind(&mut g);
            let xv = g.leaf(x.clone());
            let out = mlp.forward(&mut g, &bind, xv);
            black_box(g.value(out).sum())
        })
    });

    c.bench_function("autograd/mlp_backward_96x64", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let bind = ps.bind(&mut g);
            let xv = g.leaf(x.clone());
            let out = mlp.forward(&mut g, &bind, xv);
            let loss = g.mean_all(out);
            let grads = g.grad(loss, bind.vars());
            black_box(g.value(grads[0]).sum())
        })
    });

    c.bench_function("autograd/double_backward_96x64", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let bind = ps.bind(&mut g);
            let xv = g.leaf(x.clone());
            let out = mlp.forward(&mut g, &bind, xv);
            let loss = g.mean_all(out);
            let g1 = g.grad(loss, bind.vars());
            // θ' = θ − 0.01·∇; loss at θ'; grad w.r.t. input — the attack's core.
            let theta1: Vec<_> = bind
                .vars()
                .iter()
                .zip(&g1)
                .map(|(&p, &gr)| {
                    let step = g.mul_scalar(gr, 0.01);
                    g.sub(p, step)
                })
                .collect();
            let bind1 = pace_tensor::Binding::from_vars(theta1);
            let out1 = mlp.forward(&mut g, &bind1, xv);
            let loss1 = g.mean_all(out1);
            let gx = g.grad(loss1, &[xv]);
            black_box(g.value(gx[0]).sum())
        })
    });
}

fn bench_engine(c: &mut Criterion) {
    let ds = build(DatasetKind::Tpch, Scale::quick(), 2);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(3);
    let spec = WorkloadSpec::default();
    let queries = generate_queries(&ds, &spec, &mut rng, 64);
    let single = Query::new(vec![ds.schema.table("lineitem")], vec![]);
    let join4 = Query::new(
        vec![
            ds.schema.table("customer"),
            ds.schema.table("orders"),
            ds.schema.table("lineitem"),
            ds.schema.table("part"),
        ],
        vec![],
    );

    c.bench_function("engine/count_single_table", |b| {
        b.iter(|| black_box(exec.count(&single)))
    });
    c.bench_function("engine/count_4way_join", |b| {
        b.iter(|| black_box(exec.count(&join4)))
    });
    c.bench_function("engine/label_64_queries", |b| {
        b.iter_batched(
            || queries.clone(),
            |qs| black_box(exec.label(qs)),
            BatchSize::SmallInput,
        )
    });
    let oracle = OracleEstimator::new(Executor::new(&ds));
    c.bench_function("engine/optimize_4way_join", |b| {
        b.iter(|| black_box(optimize(&join4, &ds.schema, &oracle)))
    });
}

/// The attack's oracle workload on each multi-table schema: 256 decoded
/// queries per iteration, plus the executor set-up (join-key dictionaries)
/// that every query then reuses.
fn bench_engine_decoded(c: &mut Criterion) {
    for (name, kind) in [
        ("tpch", DatasetKind::Tpch),
        ("imdb", DatasetKind::Imdb),
        ("stats", DatasetKind::Stats),
    ] {
        let ds = build(kind, Scale::quick(), 2);
        let exec = Executor::new(&ds);
        let enc = QueryEncoder::new(&ds);
        let patterns = ds.schema.connected_patterns(4);
        let mut rng = StdRng::seed_from_u64(7);
        let queries: Vec<Query> = (0..256)
            .map(|_| enc.random_decoded(&patterns, &mut rng))
            .collect();
        c.bench_function(&format!("engine/count_decoded_{name}"), |b| {
            b.iter(|| queries.iter().map(|q| exec.count(q)).sum::<u64>())
        });
        c.bench_function(&format!("engine/executor_new_{name}"), |b| {
            b.iter(|| black_box(Executor::new(&ds)).dataset().tables.len())
        });
    }
}

fn bench_models(c: &mut Criterion) {
    let ds = build(DatasetKind::Tpch, Scale::quick(), 4);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(5);
    let spec = WorkloadSpec::default();
    let labeled = exec.label_nonzero(generate_queries(&ds, &spec, &mut rng, 96));
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);

    // The full 96-query workload, plus the batch sizes serving coalesces
    // requests into, where fixed per-kernel cost outweighs arithmetic.
    for ty in [
        CeModelType::Fcn,
        CeModelType::Mscn,
        CeModelType::Rnn,
        CeModelType::Lstm,
    ] {
        let model = CeModel::new(ty, &ds, CeConfig::quick(), 6);
        c.bench_function(&format!("models/{}_estimate_batch", ty.name()), |b| {
            b.iter(|| black_box(model.estimate_encoded_batch(&data.enc)))
        });
        for n in [1, 4, 16] {
            let batch = &data.enc[..n];
            c.bench_function(&format!("models/{}_estimate_batch_{n}", ty.name()), |b| {
                b.iter(|| black_box(model.estimate_encoded_batch(batch)))
            });
        }
    }
    // The pairs perfbench serves, where TPC-H understates the per-batch
    // work: LSTM over IMDB's longer join sequences and MSCN over STATS's
    // predicate sets.
    for (name, kind, ty) in [
        ("imdb", DatasetKind::Imdb, CeModelType::Lstm),
        ("stats", DatasetKind::Stats, CeModelType::Mscn),
    ] {
        let ds = build(kind, Scale::quick(), 4);
        let exec = Executor::new(&ds);
        let labeled = exec.label_nonzero(generate_queries(&ds, &spec, &mut rng, 32));
        let encs = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled).enc;
        let model = CeModel::new(ty, &ds, CeConfig::quick(), 6);
        for n in [1, 4, 16] {
            let batch = &encs[..n];
            let id = format!("models/{}_{name}_estimate_batch_{n}", ty.name());
            c.bench_function(&id, |b| {
                b.iter(|| black_box(model.estimate_encoded_batch(batch)))
            });
        }
    }
    c.bench_function("models/fcn_update_10_steps", |b| {
        b.iter_batched(
            || CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 7),
            |mut m| {
                m.update(&data).expect("update converges");
                black_box(m.params().num_scalars())
            },
            BatchSize::SmallInput,
        )
    });
    // One training step's loss and gradients on a 64-row batch, through
    // `CeModel::loss_and_grads` as training runs it — the per-step cost of
    // victim training — for the two pairs whose training dominates a
    // benchmark set-up: LSTM over IMDB's join templates and MSCN over
    // STATS's.
    for (name, kind, ty) in [
        ("imdb", DatasetKind::Imdb, CeModelType::Lstm),
        ("stats", DatasetKind::Stats, CeModelType::Mscn),
    ] {
        let (model, batch) = train_step_fixture(kind, ty, 64);
        let ln_max = model.ln_max();
        c.bench_function(&format!("models/{}_{name}_train_step", ty.name()), |b| {
            b.iter(|| {
                black_box(model.loss_and_grads(
                    &rows_to_matrix(&batch.enc),
                    &|g, out| q_error_loss(g, out, &batch.ln_card, ln_max),
                    "bench::train_step",
                ))
            })
        });
    }
}

/// An untrained `ty` model over `kind` and the first `rows` encoded queries
/// of a workload generated as the benchmark set-up generates its training
/// workload: from the dataset's join templates where it has them, with up
/// to three tables per query.
fn train_step_fixture(
    kind: DatasetKind,
    ty: CeModelType,
    rows: usize,
) -> (CeModel, EncodedWorkload) {
    let ds = build(kind, Scale::quick(), 42);
    let spec = WorkloadSpec {
        max_join_tables: 3,
        ..WorkloadSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(43);
    let queries = match templates_for(&ds) {
        Some(t) => generate_from_templates(&ds, &t, &spec, &mut rng, 2 * rows),
        None => generate_queries(&ds, &spec, &mut rng, 2 * rows),
    };
    let mut labeled = Executor::new(&ds).label_nonzero(queries);
    assert!(labeled.len() >= rows, "too few non-empty queries");
    labeled.truncate(rows);
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    (CeModel::new(ty, &ds, CeConfig::quick(), 6), data)
}

fn bench_generator(c: &mut Criterion) {
    let ds = build(DatasetKind::Tpch, Scale::quick(), 8);
    let enc = QueryEncoder::new(&ds);
    let patterns = ds.schema.connected_patterns(3);
    let generator = PoisonGenerator::new(enc, patterns, GeneratorConfig::default(), 9);
    let mut rng = StdRng::seed_from_u64(10);

    c.bench_function("attack/sample_joins_48", |b| {
        b.iter(|| black_box(generator.sample_joins(&mut rng, 48).patterns.len()))
    });
    let batch = generator.sample_joins(&mut rng, 48);
    c.bench_function("attack/forward_bounds_48", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let bind = generator.params().bind(&mut g);
            let x = generator.forward_bounds(&mut g, &bind, &batch);
            black_box(g.value(x).sum())
        })
    });
    c.bench_function("attack/generate_48_queries", |b| {
        b.iter(|| black_box(generator.generate(&mut rng, 48).0.len()))
    });
}

/// Serve admission's validation over a 256-query serving pool (the
/// perfbench recipe: join patterns of up to 3 tables, JOB templates on
/// IMDB), as every admitted request runs it.
fn bench_serve(c: &mut Criterion) {
    for (name, kind) in [("tpch", DatasetKind::Tpch), ("imdb", DatasetKind::Imdb)] {
        let ds = build(kind, Scale::quick(), 42);
        let spec = WorkloadSpec {
            max_join_tables: 3,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(0x9001);
        let pool = match templates_for(&ds) {
            Some(t) => generate_from_templates(&ds, &t, &spec, &mut rng, 256),
            None => generate_queries(&ds, &spec, &mut rng, 256),
        };
        c.bench_function(&format!("serve/is_valid_{name}"), |b| {
            b.iter(|| pool.iter().filter(|q| q.is_valid(&ds.schema)).count())
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_autograd, bench_engine, bench_engine_decoded, bench_models, bench_generator,
        bench_serve
}
criterion_main!(benches);
