//! Criterion micro-benchmarks of the substrate components: autograd
//! (including the attack's double-backward unroll), the exact-count engine,
//! the join-order optimizer, CE-model inference, and generator steps.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::{GeneratorConfig, PoisonGenerator};
use pace_data::{build, DatasetKind, Scale};
use pace_engine::{optimize, Executor, OracleEstimator};
use pace_tensor::nn::{Activation, Mlp};
use pace_tensor::{Graph, Matrix, ParamStore};
use pace_workload::{generate_queries, Query, QueryEncoder, WorkloadSpec};
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_autograd, bench_engine, bench_models, bench_generator
}
criterion_main!(benches);
