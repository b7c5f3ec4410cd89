//! Differential tests of the tape-free estimate path: `CeModel::infer` and
//! `estimate_encoded_batch` against the graph `forward` that training and
//! the attack differentiate.

use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_data::{build, Dataset, DatasetKind, Scale};
use pace_tensor::{Graph, Matrix};
use pace_workload::{Query, QueryEncoder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const KINDS: [DatasetKind; 3] = [DatasetKind::Tpch, DatasetKind::Imdb, DatasetKind::Stats];

/// Batch sizes from a single row up to 33, odd and even.
const SIZES: [usize; 10] = [1, 2, 3, 4, 5, 8, 13, 16, 21, 33];

/// A pool of encoder-produced rows over mixed join patterns: every
/// connected pattern of up to four tables (single tables included) with
/// random ranges, plus, for each table without attributes, a query over
/// that table alone. The pool is shuffled so batches mix patterns.
fn encoded_pool(ds: &Dataset, seed: u64) -> Vec<Vec<f32>> {
    let enc = QueryEncoder::new(ds);
    let mut rng = StdRng::seed_from_u64(seed);
    let patterns = ds.schema.connected_patterns(4);
    assert!(
        patterns.iter().any(|p| p.len() == 1) && patterns.iter().any(|p| p.len() > 1),
        "pool needs single-table and join patterns"
    );
    let mut rows: Vec<Vec<f32>> = patterns
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
    for t in bare_tables(&enc) {
        rows.push(enc.encode(&Query::new(vec![t], vec![])));
    }
    rows.shuffle(&mut rng);
    rows
}

/// Tables the encoder has no attribute for.
fn bare_tables(enc: &QueryEncoder) -> Vec<usize> {
    (0..enc.num_tables())
        .filter(|&t| enc.attributes().iter().all(|&(tb, _)| tb != t))
        .collect()
}

/// The tape forward's output on `rows`.
fn tape_forward(model: &CeModel, rows: &[Vec<f32>]) -> Matrix {
    let mut g = Graph::new();
    let bind = model.params().bind(&mut g);
    let x = g.leaf(pace_ce::rows_to_matrix(rows));
    let out = model.forward(&mut g, &bind, x);
    g.value(out).clone()
}

/// The estimate formula of `estimate_encoded_batch`, applied to tape output.
fn tape_estimates(model: &CeModel, rows: &[Vec<f32>]) -> Vec<f64> {
    tape_forward(model, rows)
        .data()
        .iter()
        .map(|&o| f64::from(o * model.ln_max()).exp())
        .collect()
}

fn bits32(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|e| e.to_bits()).collect()
}

/// Untrained, and moved by a few SGD steps toward arbitrary labels.
fn model_states(ty: CeModelType, ds: &Dataset, pool: &[Vec<f32>]) -> [CeModel; 2] {
    let fresh = CeModel::new(ty, ds, CeConfig::quick(), 5);
    let mut trained = fresh.clone();
    let n = pool.len().min(48);
    let labels = EncodedWorkload {
        enc: pool[..n].to_vec(),
        ln_card: (0..n).map(|i| (i % 7) as f32 * 1.5).collect(),
    };
    trained.update(&labels).expect("a few SGD steps converge");
    assert_ne!(
        bits32(&fresh.infer(&pace_ce::rows_to_matrix(&pool[..4]))),
        bits32(&trained.infer(&pace_ce::rows_to_matrix(&pool[..4]))),
        "{}: training did not move the model",
        ty.name()
    );
    [fresh, trained]
}

#[test]
fn infer_matches_tape_forward_bit_for_bit() {
    for kind in KINDS {
        let ds = build(kind, Scale::quick(), 31);
        let pool = encoded_pool(&ds, 32);
        assert!(pool.len() >= 33, "{kind:?}: pool of {}", pool.len());
        let bare = bare_tables(&QueryEncoder::new(&ds));
        for ty in CeModelType::all() {
            for (state, model) in ["untrained", "trained"]
                .into_iter()
                .zip(model_states(ty, &ds, &pool))
            {
                for (k, &size) in SIZES.iter().enumerate() {
                    let start = (k * 7) % (pool.len() - size + 1);
                    let mut rows = pool[start..start + size].to_vec();
                    // Every multi-row batch carries a bare-table query
                    // where the schema has one.
                    if let (Some(&t), true) = (bare.first(), size > 1) {
                        rows[0] = model.encoder().encode(&Query::new(vec![t], vec![]));
                    }
                    let x = pace_ce::rows_to_matrix(&rows);
                    let what = format!("{kind:?} {} {state} n={size}", ty.name());
                    let tape = tape_forward(&model, &rows);
                    assert!(tape.all_finite(), "{what}: tape output not finite");
                    assert_eq!(bits32(&model.infer(&x)), bits32(&tape), "{what}: infer");
                    assert_eq!(
                        bits64(&model.estimate_encoded_batch(&rows)),
                        bits64(&tape_estimates(&model, &rows)),
                        "{what}: estimates"
                    );
                }
            }
        }
    }
}

/// A copy of `model` with every element of one output-layer parameter set
/// to `value`: `from_end` 1 is the output bias, 2 the output weight (the
/// output `Dense` allocates its parameters last).
fn poison_output_layer(model: &CeModel, from_end: usize, value: f32) -> CeModel {
    let mut m = model.clone();
    let id = m
        .params()
        .iter()
        .map(|(id, _)| id)
        .nth(model.params().len() - from_end)
        .expect("output layer parameter");
    m.params_mut().get_mut(id).data_mut().fill(value);
    m
}

/// Shadow validation and `Server::fire_batch` tell a broken model by its
/// non-finite estimates. A NaN output bias, or an all-`+Inf` output weight
/// (which meets a zero or a sign change in every row and turns it NaN),
/// must make every row non-finite on both paths.
#[test]
fn nonfinite_parameters_give_nonfinite_estimates_on_both_paths() {
    for kind in KINDS {
        let ds = build(kind, Scale::quick(), 41);
        let pool = encoded_pool(&ds, 42);
        let rows = &pool[..17];
        for ty in CeModelType::all() {
            for model in model_states(ty, &ds, &pool) {
                for (from_end, value) in [(1, f32::NAN), (2, f32::INFINITY)] {
                    let broken = poison_output_layer(&model, from_end, value);
                    let what = format!("{kind:?} {} param[-{from_end}]={value}", ty.name());
                    let served = broken.estimate_encoded_batch(rows);
                    assert!(
                        served.iter().all(|e| !e.is_finite()),
                        "{what}: infer served {served:?}"
                    );
                    let tape = tape_estimates(&broken, rows);
                    assert!(
                        tape.iter().all(|e| !e.is_finite()),
                        "{what}: tape gave {tape:?}"
                    );
                }
            }
        }
    }
}

/// The documented difference: a non-finite encoding stays in its own row
/// under `infer`, while the tape's RNN/LSTM permutation matmul spreads it
/// to every row. Under `infer` every row, the broken one included, equals
/// its estimate as a batch of one.
#[test]
fn nonfinite_row_stays_in_its_row() {
    let ds = build(DatasetKind::Tpch, Scale::quick(), 51);
    let enc = QueryEncoder::new(&ds);
    let pool = encoded_pool(&ds, 52);
    let mut rows = pool[..6].to_vec();
    let t = enc.num_tables();
    let attr = (0..enc.attributes().len())
        .find(|&i| rows[2][enc.attributes()[i].0] > 0.5)
        .expect("row 2 has an attribute in its pattern");
    rows[2][t + 2 * attr] = f32::NAN;
    for ty in CeModelType::all() {
        let model = CeModel::new(ty, &ds, CeConfig::quick(), 53);
        let ests = model.estimate_encoded_batch(&rows);
        for (r, e) in ests.iter().enumerate() {
            let alone = model.estimate_encoded_batch(&rows[r..=r])[0];
            assert_eq!(e.to_bits(), alone.to_bits(), "{} row {r}", ty.name());
        }
        if matches!(ty, CeModelType::Rnn | CeModelType::Lstm) {
            assert!(ests[2].is_nan(), "{}: NaN lost", ty.name());
            let tape = tape_estimates(&model, &rows);
            assert!(
                tape.iter().all(|e| e.is_nan()),
                "{}: the tape no longer spreads NaN: {tape:?}",
                ty.name()
            );
        }
    }
}
