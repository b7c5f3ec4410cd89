//! Behavioral tests of the six CE model families.

use pace_ce::{q_error_loss, CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_data::{build, DatasetKind, Scale};
use pace_engine::{CardEstimator, Executor};
use pace_tensor::Graph;
use pace_workload::{generate_queries, QErrorSummary, QueryEncoder, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn training_data(kind: DatasetKind, n: usize, seed: u64) -> (pace_data::Dataset, EncodedWorkload) {
    let ds = build(kind, Scale::tiny(), seed);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let spec = if kind == DatasetKind::Dmv {
        WorkloadSpec::single_table()
    } else {
        WorkloadSpec {
            max_join_tables: 3,
            ..WorkloadSpec::default()
        }
    };
    let queries = generate_queries(&ds, &spec, &mut rng, n);
    let labeled = exec.label_nonzero(queries);
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    (ds, data)
}

#[test]
fn all_models_produce_unit_interval_outputs() {
    let (ds, data) = training_data(DatasetKind::Tpch, 32, 1);
    for ty in CeModelType::all() {
        let model = CeModel::new(ty, &ds, CeConfig::quick(), 7);
        let mut g = Graph::new();
        let bind = model.params().bind(&mut g);
        let x = g.leaf(pace_ce::rows_to_matrix(&data.enc));
        let out = model.forward(&mut g, &bind, x);
        assert_eq!(g.shape(out), (data.len(), 1), "{}", ty.name());
        assert!(
            g.value(out)
                .data()
                .iter()
                .all(|&v| (0.0..=1.0).contains(&v)),
            "{} output escaped (0,1)",
            ty.name()
        );
    }
}

#[test]
fn training_reduces_q_error_for_every_model() {
    let (ds, data) = training_data(DatasetKind::Dmv, 300, 2);
    for ty in CeModelType::all() {
        let mut model = CeModel::new(ty, &ds, CeConfig::quick(), 11);
        let before = QErrorSummary::from_samples(&model.evaluate(&data)).mean;
        let mut rng = StdRng::seed_from_u64(13);
        model.train(&data, &mut rng).expect("train");
        let after = QErrorSummary::from_samples(&model.evaluate(&data)).mean;
        assert!(
            after < before,
            "{}: training failed to reduce mean q-error ({before} -> {after})",
            ty.name()
        );
    }
}

#[test]
fn multi_join_models_train_on_tpch() {
    let (ds, data) = training_data(DatasetKind::Tpch, 300, 3);
    for ty in [CeModelType::Fcn, CeModelType::Mscn, CeModelType::Rnn] {
        let mut model = CeModel::new(ty, &ds, CeConfig::quick(), 17);
        let before = QErrorSummary::from_samples(&model.evaluate(&data)).mean;
        let mut rng = StdRng::seed_from_u64(19);
        model.train(&data, &mut rng).expect("train");
        let after = QErrorSummary::from_samples(&model.evaluate(&data)).mean;
        assert!(after < before, "{}: {before} -> {after}", ty.name());
    }
}

#[test]
fn estimate_is_positive_and_bounded() {
    let (ds, data) = training_data(DatasetKind::Stats, 40, 4);
    let model = CeModel::new(CeModelType::FcnPool, &ds, CeConfig::quick(), 23);
    for est in model.estimate_encoded_batch(&data.enc) {
        assert!(est >= 1.0);
        assert!(est <= ds.max_cardinality_bound() * 2.0);
    }
}

#[test]
fn card_estimator_trait_wires_through() {
    let ds = build(DatasetKind::Tpch, Scale::tiny(), 5);
    let model = CeModel::new(CeModelType::Linear, &ds, CeConfig::quick(), 29);
    let mut rng = StdRng::seed_from_u64(31);
    let q = &generate_queries(&ds, &WorkloadSpec::default(), &mut rng, 1)[0];
    let via_trait = CardEstimator::estimate(&model, q);
    let direct = model.estimate_query(q);
    assert_eq!(via_trait, direct);
}

#[test]
fn update_moves_predictions_toward_new_labels() {
    let (ds, data) = training_data(DatasetKind::Dmv, 200, 6);
    let mut model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 37);
    let mut rng = StdRng::seed_from_u64(41);
    model.train(&data, &mut rng).expect("train");

    // Build an adversarial update set: same queries, labels forced to 1.
    let poison = EncodedWorkload {
        enc: data.enc[..50.min(data.len())].to_vec(),
        ln_card: vec![0.0; 50.min(data.len())],
    };
    let before: f64 = model.estimate_encoded_batch(&poison.enc).iter().sum();
    model.update(&poison).expect("update");
    let after: f64 = model.estimate_encoded_batch(&poison.enc).iter().sum();
    assert!(
        after < before,
        "update should pull estimates toward the new tiny labels: {before} -> {after}"
    );
}

#[test]
fn batch_order_never_changes_an_estimate() {
    // Serving's reply digests rely on an estimate not depending on the
    // other rows of its batch, so reversing a batch must reverse its
    // estimates exactly — bit for bit, for every model type.
    let (ds, data) = training_data(DatasetKind::Tpch, 24, 7);
    for ty in CeModelType::all() {
        let model = CeModel::new(ty, &ds, CeConfig::quick(), 43);
        let fwd = model.estimate_encoded_batch(&data.enc);
        let mut reversed = data.enc.clone();
        reversed.reverse();
        let mut bwd = model.estimate_encoded_batch(&reversed);
        bwd.reverse();
        for (i, (a, b)) in fwd.iter().zip(&bwd).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: batch order changed estimate {i}: {a} vs {b}",
                ty.name()
            );
        }
    }
}

#[test]
fn forward_is_differentiable_wrt_input_encoding() {
    // The attack needs ∂output/∂query — check it is non-zero for every type.
    let (ds, data) = training_data(DatasetKind::Tpch, 8, 8);
    for ty in CeModelType::all() {
        let model = CeModel::new(ty, &ds, CeConfig::quick(), 47);
        let mut g = Graph::new();
        let bind = model.params().bind(&mut g);
        let x = g.leaf(pace_ce::rows_to_matrix(&data.enc));
        let out = model.forward(&mut g, &bind, x);
        let s = g.sum_all(out);
        let gx = g.grad(s, &[x])[0];
        let norm = g.value(gx).norm();
        assert!(norm > 0.0, "{}: zero input gradient", ty.name());
        assert!(
            g.value(gx).all_finite(),
            "{}: non-finite input gradient",
            ty.name()
        );
    }
}

#[test]
fn models_distinguish_small_from_large_ranges_after_training() {
    let ds = build(DatasetKind::Dmv, Scale::tiny(), 9);
    let exec = Executor::new(&ds);
    let enc = QueryEncoder::new(&ds);
    let mut rng = StdRng::seed_from_u64(53);
    let queries = generate_queries(&ds, &WorkloadSpec::single_table(), &mut rng, 400);
    let labeled = exec.label_nonzero(queries);
    let data = EncodedWorkload::from_workload(&enc, &labeled);
    let mut model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 59);
    model.train(&data, &mut rng).expect("train");

    // Full-table query must be estimated (much) larger than a tight one.
    let full = pace_workload::Query::new(vec![0], vec![]);
    let stats = ds.col_stats(0, 7); // reg_year
    let tight = pace_workload::Query::new(
        vec![0],
        vec![pace_workload::Predicate {
            table: 0,
            col: 7,
            lo: stats.min,
            hi: stats.min + 1,
        }],
    );
    let e_full = model.estimate_query(&full);
    let e_tight = model.estimate_query(&tight);
    assert!(
        e_full > e_tight,
        "trained model ignores predicate selectivity: full {e_full} <= tight {e_tight}"
    );
}

/// One encoded row per connected pattern of up to three tables, so the
/// batch joins every table, each with an ordered range strictly inside
/// `[0, 1]` on every attribute of its tables.
fn covering_batch(ds: &pace_data::Dataset, seed: u64) -> EncodedWorkload {
    let enc = QueryEncoder::new(ds);
    let t = enc.num_tables();
    let mut rng = StdRng::seed_from_u64(seed);
    let enc_rows: Vec<Vec<f32>> = ds
        .schema
        .connected_patterns(3)
        .iter()
        .map(|pat| {
            let mut v = enc.encode(&pace_workload::Query::new(pat.clone(), vec![]));
            for (i, &(tb, _)) in enc.attributes().iter().enumerate() {
                if pat.contains(&tb) {
                    let lo = rng.random_range(0.05f32..0.45);
                    v[t + 2 * i] = lo;
                    v[t + 2 * i + 1] = lo + rng.random_range(0.1f32..0.5);
                }
            }
            v
        })
        .collect();
    let ln_card = (0..enc_rows.len()).map(|i| (i % 7) as f32 * 1.5).collect();
    EncodedWorkload {
        enc: enc_rows,
        ln_card,
    }
}

/// Gradient flow: on a batch that joins every table and constrains every
/// attribute, the training step's gradient is non-zero somewhere in every
/// parameter of every model type, so no parameter is silently frozen.
#[test]
fn every_parameter_gets_a_gradient() {
    for kind in [DatasetKind::Stats, DatasetKind::Tpch, DatasetKind::Imdb] {
        let ds = build(kind, Scale::tiny(), 41);
        let data = covering_batch(&ds, 42);
        let tables: std::collections::BTreeSet<usize> = data
            .enc
            .iter()
            .flat_map(|r| (0..ds.schema.num_tables()).filter(|&t| r[t] == 1.0))
            .collect();
        assert_eq!(tables.len(), ds.schema.num_tables(), "{kind:?}");
        for ty in CeModelType::all() {
            let model = CeModel::new(ty, &ds, CeConfig::quick(), 43);
            let ln_max = model.ln_max();
            let (loss, grads) = model
                .loss_and_grads(&pace_ce::rows_to_matrix(&data.enc), &|g, out| {
                    q_error_loss(g, out, &data.ln_card, ln_max)
                });
            assert!(loss.is_finite(), "{kind:?} {}: loss {loss}", ty.name());
            for ((id, _), grad) in model.params().iter().zip(&grads) {
                assert!(
                    grad.data().iter().any(|&v| v != 0.0),
                    "{kind:?} {}: {} gets no gradient",
                    ty.name(),
                    model.params().name(id)
                );
            }
        }
    }
}
