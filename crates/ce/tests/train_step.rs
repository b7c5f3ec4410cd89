//! Differential tests of the production training step:
//! `CeModel::loss_and_grads`, which MSCN runs over only the predicate
//! elements a batch has, against a full tape (`forward` + `q_error_loss` +
//! `grad_values`) built here, and `update`/`train` against optimizer loops
//! built here on that tape.

use pace_ce::{q_error_loss, CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_data::{build, Dataset, DatasetKind, Scale};
use pace_tensor::optim::{clip_global_norm, sanitize, Adam, Optimizer, Sgd};
use pace_tensor::{Graph, Matrix};
use pace_workload::{Query, QueryEncoder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const KINDS: [DatasetKind; 3] = [DatasetKind::Stats, DatasetKind::Tpch, DatasetKind::Imdb];

/// Encoder-produced rows over every connected pattern of up to four
/// tables, two per pattern, plus a query over each table without
/// attributes, shuffled.
fn encoded_pool(ds: &Dataset, seed: u64) -> Vec<Vec<f32>> {
    let enc = QueryEncoder::new(ds);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f32>> = ds
        .schema
        .connected_patterns(4)
        .iter()
        .flat_map(|p| {
            let one = std::slice::from_ref(p);
            [
                enc.random_decoded(one, &mut rng),
                enc.random_decoded(one, &mut rng),
            ]
        })
        .map(|q| enc.encode(&q))
        .collect();
    rows.extend(bare_tables(&enc).map(|t| enc.encode(&Query::new(vec![t], vec![]))));
    rows.shuffle(&mut rng);
    rows
}

/// Tables the encoder has no attribute for.
fn bare_tables(enc: &QueryEncoder) -> impl Iterator<Item = usize> + '_ {
    (0..enc.num_tables()).filter(|&t| enc.attributes().iter().all(|&(tb, _)| tb != t))
}

/// Arbitrary log-cardinality labels for `rows`.
fn labeled(rows: &[Vec<f32>]) -> EncodedWorkload {
    EncodedWorkload {
        enc: rows.to_vec(),
        ln_card: (0..rows.len()).map(|i| (i % 7) as f32 * 1.5).collect(),
    }
}

/// Batches of 1, 4, 16 and 64 rows that leave out a table with
/// attributes, so that those attributes have no present row, each also
/// carrying a query over a table without attributes where the schema has
/// one; and a 64-row batch over the whole pool.
fn batches(ds: &Dataset, pool: &[Vec<f32>]) -> Vec<Vec<Vec<f32>>> {
    let enc = QueryEncoder::new(ds);
    let left_out = enc
        .attributes()
        .iter()
        .map(|&(tb, _)| tb)
        .max_by_key(|&tb| pool.iter().filter(|r| r[tb] == 0.0).count())
        .expect("an attribute");
    let rows: Vec<Vec<f32>> = pool
        .iter()
        .filter(|r| r[left_out] == 0.0)
        .cloned()
        .collect();
    let bare = bare_tables(&enc).next();
    let sized = |from: &[Vec<f32>], n: usize| -> Vec<Vec<f32>> {
        let mut b: Vec<Vec<f32>> = from.iter().cycle().take(n).cloned().collect();
        if let (Some(t), true) = (bare, n > 1) {
            b[n - 1] = enc.encode(&Query::new(vec![t], vec![]));
        }
        b
    };
    let mut out: Vec<Vec<Vec<f32>>> = [1, 4, 16, 64].iter().map(|&n| sized(&rows, n)).collect();
    out.push(sized(pool, 64));
    out
}

/// The full tape of one training step.
fn tape_step(model: &CeModel, data: &EncodedWorkload) -> (f32, Vec<Matrix>) {
    let mut g = Graph::new();
    let bind = model.params().bind(&mut g);
    let x = g.leaf(pace_ce::rows_to_matrix(&data.enc));
    let out = model.forward(&mut g, &bind, x);
    let loss = q_error_loss(&mut g, out, &data.ln_card, model.ln_max());
    (g.value(loss).as_scalar(), g.grad_values(loss, bind.vars()))
}

/// The production step on the same batch.
fn production_step(model: &CeModel, data: &EncodedWorkload) -> (f32, Vec<Matrix>) {
    let ln_max = model.ln_max();
    model.loss_and_grads(&pace_ce::rows_to_matrix(&data.enc), &|g, out| {
        q_error_loss(g, out, &data.ln_card, ln_max)
    })
}

/// The bits of a step's loss and gradients, with every NaN mapped to one
/// pattern.
fn step_bits((loss, grads): &(f32, Vec<Matrix>)) -> Vec<Vec<u32>> {
    let canon = |x: f32| {
        if x.is_nan() {
            f32::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    std::iter::once(vec![canon(*loss)])
        .chain(
            grads
                .iter()
                .map(|m| m.data().iter().map(|&x| canon(x)).collect()),
        )
        .collect()
}

fn param_bits(model: &CeModel) -> Vec<Vec<u32>> {
    model
        .params()
        .iter()
        .map(|(_, m)| m.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Untrained, and moved by a few SGD steps toward arbitrary labels.
fn model_states(ty: CeModelType, ds: &Dataset, pool: &[Vec<f32>]) -> [CeModel; 2] {
    let fresh = CeModel::new(ty, ds, CeConfig::quick(), 5);
    let mut trained = fresh.clone();
    trained
        .update(&labeled(&pool[..pool.len().min(48)]))
        .expect("a few SGD steps converge");
    assert_ne!(
        param_bits(&fresh),
        param_bits(&trained),
        "training moved nothing"
    );
    [fresh, trained]
}

/// A copy of `model` with `edit` applied to the parameter named `name`.
fn edit_param(model: &CeModel, name: &str, edit: impl FnOnce(&mut Matrix)) -> CeModel {
    let mut m = model.clone();
    let id = m
        .params()
        .iter()
        .map(|(id, _)| id)
        .find(|&id| m.params().name(id) == name)
        .unwrap_or_else(|| panic!("no parameter {name}"));
    edit(m.params_mut().get_mut(id));
    m
}

/// The first attribute whose table row 0 of `rows` does not join.
fn absent_attr(enc: &QueryEncoder, rows: &[Vec<f32>]) -> usize {
    (0..enc.attributes().len())
        .find(|&i| rows[0][enc.attributes()[i].0] == 0.0)
        .expect("row 0 leaves an attribute out")
}

#[test]
fn mscn_step_matches_the_full_tape_bit_for_bit() {
    for kind in KINDS {
        let ds = build(kind, Scale::quick(), 81);
        let pool = encoded_pool(&ds, 82);
        let batches = batches(&ds, &pool);
        for (state, model) in
            ["untrained", "trained"]
                .into_iter()
                .zip(model_states(CeModelType::Mscn, &ds, &pool))
        {
            for rows in &batches {
                let data = labeled(rows);
                let what = format!("{kind:?} {state} n={}", rows.len());
                let tape = tape_step(&model, &data);
                assert!(tape.0.is_finite(), "{what}: loss {}", tape.0);
                assert_eq!(
                    step_bits(&production_step(&model, &data)),
                    step_bits(&tape),
                    "{what}"
                );
            }
        }
    }
}

/// A NaN or `+Inf` weight planted in the predicate MLP (its one-hot block,
/// a bound row, its second layer) or in the head, an overflowing
/// first-layer row, and absent bounds past `[−1, 1]`: each must leave the
/// production step equal to the full tape, NaN compared as one class.
#[test]
fn nonfinite_and_overflowing_mscn_steps_match_the_full_tape() {
    for kind in [DatasetKind::Stats, DatasetKind::Tpch] {
        let ds = build(kind, Scale::quick(), 91);
        let pool = encoded_pool(&ds, 92);
        let batches = batches(&ds, &pool);
        let enc = QueryEncoder::new(&ds);
        let (t, a) = (enc.num_tables(), enc.attributes().len());
        for model in model_states(CeModelType::Mscn, &ds, &pool) {
            for rows in &batches[..4] {
                let attr = absent_attr(&enc, rows);
                let data = labeled(rows);
                let check = |m: &CeModel, data: &EncodedWorkload, what: &str| {
                    assert_eq!(
                        step_bits(&production_step(m, data)),
                        step_bits(&tape_step(m, data)),
                        "{kind:?} n={}: {what}",
                        rows.len()
                    );
                };
                for value in [f32::NAN, f32::INFINITY] {
                    for (name, row) in [
                        ("mscn.pred.0.w", attr),
                        ("mscn.pred.0.w", a),
                        ("mscn.pred.1.w", 0),
                        ("mscn.head.0.w", 0),
                    ] {
                        let broken = edit_param(&model, name, |w| w.set(row, 0, value));
                        check(&broken, &data, &format!("{name}[{row}][0]={value}"));
                    }
                }
                let ones = edit_param(&model, "mscn.pred.1.w", |w| w.data_mut().fill(1.0));
                let broken = edit_param(&ones, "mscn.pred.0.w", |w| {
                    (0..w.cols()).for_each(|c| w.set(attr, c, f32::MAX))
                });
                check(&broken, &data, "pred.0.w row at f32::MAX");
                for value in [f32::MAX, f32::INFINITY, f32::NAN] {
                    let mut edited = data.clone();
                    edited.enc[0][t + 2 * attr] = value;
                    check(&ones, &edited, &format!("absent lower bound {value}"));
                }
            }
        }
    }
}

/// Every model type: 20 single-step `update` calls, each against one SGD
/// step on the full tape with `sanitize` and `clip_global_norm`, comparing
/// every parameter bit after every step.
#[test]
fn update_steps_match_a_full_tape_sgd_loop() {
    for kind in [DatasetKind::Stats, DatasetKind::Imdb] {
        let ds = build(kind, Scale::quick(), 101);
        let pool = encoded_pool(&ds, 102);
        let data = labeled(&pool[..pool.len().min(40)]);
        for ty in CeModelType::all() {
            let config = CeConfig {
                update_iters: 1,
                ..CeConfig::quick()
            };
            let mut model = CeModel::new(ty, &ds, config, 103);
            let mut reference = model.clone();
            for step in 0..20 {
                model.update(&data).expect("update converges");
                let (_, mut grads) = tape_step(&reference, &data);
                sanitize(&mut grads);
                clip_global_norm(&mut grads, config.update_clip);
                Sgd::new(config.update_lr).step(reference.params_mut(), &grads);
                assert_eq!(
                    param_bits(&model),
                    param_bits(&reference),
                    "{kind:?} {} after update step {step}",
                    ty.name()
                );
            }
        }
    }
}

/// Every model type: two `train` epochs against the same minibatch Adam
/// loop on the full tape, with the shuffle, `sanitize`, `clip_global_norm`
/// and the best-epoch restore, comparing every parameter bit.
#[test]
fn train_epochs_match_a_full_tape_adam_loop() {
    let ds = build(DatasetKind::Stats, Scale::quick(), 111);
    let pool = encoded_pool(&ds, 112);
    let data = labeled(&pool[..pool.len().min(80)]);
    for ty in CeModelType::all() {
        let config = CeConfig {
            epochs: 2,
            ..CeConfig::quick()
        };
        let mut model = CeModel::new(ty, &ds, config, 113);
        let mut reference = model.clone();
        let best = model
            .train(&data, &mut StdRng::seed_from_u64(114))
            .expect("training converges");

        let mut rng = StdRng::seed_from_u64(114);
        let mut adam = Adam::new(config.lr);
        let mut idx: Vec<usize> = (0..data.len()).collect();
        let (mut best_loss, mut best_params) = (f32::MAX, None);
        for _ in 0..config.epochs {
            idx.shuffle(&mut rng);
            let mut total = 0.0;
            let mut batches = 0;
            for chunk in idx.chunks(config.batch_size) {
                let (loss, mut grads) = tape_step(&reference, &data.subset(chunk));
                sanitize(&mut grads);
                clip_global_norm(&mut grads, config.clip_norm);
                adam.step(reference.params_mut(), &grads);
                total += loss;
                batches += 1;
            }
            let mean = total / batches as f32;
            if mean < best_loss {
                best_loss = mean;
                best_params = Some(reference.params().snapshot());
            }
        }
        reference
            .params_mut()
            .restore(&best_params.expect("a best epoch"));
        assert_eq!(
            best.to_bits(),
            best_loss.to_bits(),
            "{}: best loss",
            ty.name()
        );
        assert_eq!(param_bits(&model), param_bits(&reference), "{}", ty.name());
    }
}

/// A gradient that is non-finite only on rows without a present predicate
/// element: with `f32::MAX` in the head weights that read the pooled
/// predicate sum, a batch of queries over tables without attributes has a
/// zero predicate sum (so a finite forward pass) but an infinite gradient
/// reaching it. The full tape multiplies that by zero join bits into NaN
/// predicate-MLP gradients; the production step must fall back to it.
#[test]
fn nonfinite_gradient_on_absent_rows_forces_the_full_tape() {
    let ds = build(DatasetKind::Imdb, Scale::quick(), 131);
    let enc = QueryEncoder::new(&ds);
    let bare: Vec<Vec<f32>> = bare_tables(&enc)
        .map(|t| enc.encode(&Query::new(vec![t], vec![])))
        .collect();
    assert!(!bare.is_empty(), "IMDB has tables without attributes");
    let rows: Vec<Vec<f32>> = bare.iter().cycle().take(4).cloned().collect();
    let data = labeled(&rows);
    let model = CeModel::new(CeModelType::Mscn, &ds, CeConfig::quick(), 132);
    let h = model.config().hidden;
    let broken = edit_param(&model, "mscn.head.0.w", |w| {
        for r in h..2 * h {
            (0..w.cols()).for_each(|c| w.set(r, c, f32::MAX));
        }
    });
    let tape = tape_step(&broken, &data);
    assert!(tape.0.is_finite(), "loss {}", tape.0);
    assert!(
        tape.1.iter().any(|m| !m.all_finite()),
        "the planted weights left every gradient finite"
    );
    assert_eq!(
        step_bits(&production_step(&broken, &data)),
        step_bits(&tape)
    );
}
