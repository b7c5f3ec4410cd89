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

/// The tape forward's output on `rows`, with the op that produced the
/// tape's first non-finite value, if any.
fn tape_run(model: &CeModel, rows: &[Vec<f32>]) -> (Matrix, Option<&'static str>) {
    let mut g = Graph::new();
    let bind = model.params().bind(&mut g);
    let x = g.leaf(pace_ce::rows_to_matrix(rows));
    let out = model.forward(&mut g, &bind, x);
    (g.value(out).clone(), g.first_nonfinite().map(|(_, op)| op))
}

/// The tape forward's output on `rows`.
fn tape_forward(model: &CeModel, rows: &[Vec<f32>]) -> Matrix {
    tape_run(model, rows).0
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

/// The bits of `m`, with every NaN mapped to one pattern.
fn canonical_bits(m: &Matrix) -> Vec<u32> {
    m.data()
        .iter()
        .map(|&x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
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
                    // Every intermediate value finite is the premise under
                    // which MSCN may skip its absent set elements.
                    let (tape, first_nonfinite) = tape_run(&model, &rows);
                    assert_eq!(first_nonfinite, None, "{what}: non-finite tape value");
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

/// MSCN batches of 1, 4 and 16 rows that leave one table out, so that
/// `infer` has table and predicate elements to skip.
fn mscn_batches(kind: DatasetKind, seed: u64) -> (Dataset, Vec<Vec<Vec<f32>>>) {
    let ds = build(kind, Scale::quick(), seed);
    let pool = encoded_pool(&ds, seed + 1);
    let t = QueryEncoder::new(&ds).num_tables();
    let left_out = |tb: usize| {
        pool.iter()
            .filter(|r| r[tb] == 0.0)
            .cloned()
            .collect::<Vec<_>>()
    };
    let rows = (0..t).map(left_out).max_by_key(Vec::len).expect("a table");
    assert!(
        rows.len() >= 16,
        "{kind:?}: {} rows leave a table out",
        rows.len()
    );
    let batches = [1, 4, 16].into_iter().map(|n| rows[..n].to_vec()).collect();
    (ds, batches)
}

/// The first attribute whose table `row` does not join, and the first table
/// that no row of `rows` joins.
fn absent_elements(enc: &QueryEncoder, rows: &[Vec<f32>]) -> (usize, usize) {
    let attr = (0..enc.attributes().len())
        .find(|&i| rows[0][enc.attributes()[i].0] == 0.0)
        .expect("row 0 leaves an attribute out");
    let table = (0..enc.num_tables())
        .find(|&tb| rows.iter().all(|r| r[tb] == 0.0))
        .expect("the batch leaves a table out");
    (attr, table)
}

/// A NaN or `+Inf` weight turns the `0·w` products of skipped set elements
/// into NaN, which a later ReLU maps to 0, so dropping them would change
/// finite estimates. Planted one at a time in the one-hot block of the
/// predicate MLP's first layer, in its second layer, and in the table
/// MLP's first layer, it must leave `infer` equal to the tape, NaN
/// compared as one class.
#[test]
fn nonfinite_mscn_set_weights_keep_infer_equal_to_the_tape() {
    for kind in [DatasetKind::Stats, DatasetKind::Tpch] {
        let (ds, batches) = mscn_batches(kind, 61);
        let pool: Vec<Vec<f32>> = batches.concat();
        for model in model_states(CeModelType::Mscn, &ds, &pool) {
            for rows in &batches {
                let (attr, table) = absent_elements(model.encoder(), rows);
                let x = pace_ce::rows_to_matrix(rows);
                for value in [f32::NAN, f32::INFINITY] {
                    for (name, row) in [
                        ("mscn.pred.0.w", attr),
                        ("mscn.pred.1.w", 0),
                        ("mscn.table.0.w", table),
                    ] {
                        let broken = edit_param(&model, name, |w| w.set(row, 0, value));
                        assert_eq!(
                            canonical_bits(&broken.infer(&x)),
                            canonical_bits(&tape_forward(&broken, rows)),
                            "{kind:?} n={} {name}[{row}][0]={value}",
                            rows.len()
                        );
                    }
                }
            }
        }
    }
}

/// Finite parameters and inputs can still overflow to an `Inf` set-element
/// representation, whose product with a zero join bit is NaN on the tape.
/// With the second layers' weights at 1, an `f32::MAX` first-layer weight
/// row overflows exactly one absent table or attribute, and so does an
/// absent element's lower bound at `f32::MAX` or `+Inf` (NaN is mapped to 0
/// by the first ReLU). `infer` must keep such elements, and equal the tape
/// with NaN compared as one class.
#[test]
fn overflowing_mscn_set_elements_keep_infer_equal_to_the_tape() {
    for kind in [DatasetKind::Stats, DatasetKind::Tpch] {
        let (ds, batches) = mscn_batches(kind, 71);
        let pool: Vec<Vec<f32>> = batches.concat();
        for model in model_states(CeModelType::Mscn, &ds, &pool) {
            let t = model.encoder().num_tables();
            let ones = |name: &str| edit_param(&model, name, |w| w.data_mut().fill(1.0));
            for rows in &batches {
                let what = format!("{kind:?} n={}", rows.len());
                let (attr, table) = absent_elements(model.encoder(), rows);
                for (set, row) in [("pred", attr), ("table", table)] {
                    let name = format!("mscn.{set}.0.w");
                    let base = ones(&format!("mscn.{set}.1.w"));
                    let broken = edit_param(&base, &name, |w| {
                        (0..w.cols()).for_each(|c| w.set(row, c, f32::MAX))
                    });
                    let x = pace_ce::rows_to_matrix(rows);
                    assert_eq!(
                        canonical_bits(&broken.infer(&x)),
                        canonical_bits(&tape_forward(&broken, rows)),
                        "{what}: {name} row {row} at f32::MAX"
                    );
                }
                let broken = ones("mscn.pred.1.w");
                for value in [f32::MAX, f32::INFINITY, f32::NAN] {
                    let mut edited = rows.clone();
                    edited[0][t + 2 * attr] = value;
                    assert_eq!(
                        canonical_bits(&broken.infer(&pace_ce::rows_to_matrix(&edited))),
                        canonical_bits(&tape_forward(&broken, &edited)),
                        "{what}: absent attribute {attr} with lower bound {value}"
                    );
                }
            }
        }
    }
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
