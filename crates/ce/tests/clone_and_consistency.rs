//! Clone semantics and estimate consistency — load-bearing for the attack's
//! white-box diagnostics and budgeted-selection simulations.

use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_data::{build, DatasetKind, Scale};
use pace_engine::Executor;
use pace_workload::{generate_queries, QueryEncoder, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trained_model() -> (pace_data::Dataset, CeModel, EncodedWorkload) {
    let ds = build(DatasetKind::Dmv, Scale::tiny(), 51);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(52);
    let train = exec.label_nonzero(generate_queries(
        &ds,
        &WorkloadSpec::single_table(),
        &mut rng,
        250,
    ));
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &train);
    let mut model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 53);
    model.train(&data, &mut rng).expect("train");
    (ds, model, data)
}

#[test]
fn clone_is_deep_for_parameters() {
    let (_, model, data) = trained_model();
    let before: Vec<f64> = model.estimate_encoded_batch(&data.enc[..10]);
    let mut copy = model.clone();
    copy.update(&EncodedWorkload {
        enc: data.enc[..10].to_vec(),
        ln_card: vec![0.0; 10],
    })
    .expect("update");
    let after_original: Vec<f64> = model.estimate_encoded_batch(&data.enc[..10]);
    let after_copy: Vec<f64> = copy.estimate_encoded_batch(&data.enc[..10]);
    assert_eq!(
        before, after_original,
        "updating a clone mutated the original"
    );
    assert_ne!(after_original, after_copy, "clone update had no effect");
}

#[test]
fn single_and_batch_estimates_agree() {
    let (ds, model, data) = trained_model();
    let encoder = QueryEncoder::new(&ds);
    let batch = model.estimate_encoded_batch(&data.enc[..5]);
    for (i, est) in batch.iter().enumerate() {
        // A row's estimate must not depend on the rest of its batch.
        let alone = model.estimate_encoded_batch(&data.enc[i..=i])[0];
        assert_eq!(
            est.to_bits(),
            alone.to_bits(),
            "batch {est} vs alone {alone}"
        );
        // Decoding snaps bounds, so the decoded query only agrees closely.
        let q = encoder.decode(&data.enc[i]);
        let single = model.estimate_query(&q);
        let rel = (est - single).abs() / est.max(1.0);
        assert!(rel < 1e-4, "batch {est} vs single {single}");
    }
}

#[test]
fn snapshot_restore_roundtrips_estimates() {
    let (_, mut model, data) = trained_model();
    let before = model.estimate_encoded_batch(&data.enc[..5]);
    let snap = model.params().snapshot();
    model
        .update(&EncodedWorkload {
            enc: data.enc[..5].to_vec(),
            ln_card: vec![0.0; 5],
        })
        .expect("update");
    assert_ne!(before, model.estimate_encoded_batch(&data.enc[..5]));
    model.params_mut().restore(&snap);
    assert_eq!(before, model.estimate_encoded_batch(&data.enc[..5]));
}

#[test]
fn save_load_roundtrips_a_trained_model() {
    let (ds, model, data) = trained_model();
    let dir = std::env::temp_dir().join("pace_ce_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("fcn.params");
    model.save_params(&path).expect("save");

    // Same-architecture fresh model, different random init.
    let mut restored = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 999);
    assert_ne!(
        model.estimate_encoded_batch(&data.enc[..5]),
        restored.estimate_encoded_batch(&data.enc[..5])
    );
    restored.load_params(&path).expect("load");
    assert_eq!(
        model.estimate_encoded_batch(&data.enc[..5]),
        restored.estimate_encoded_batch(&data.enc[..5])
    );

    // Architecture mismatch is rejected.
    let mut wrong = CeModel::new(CeModelType::Mscn, &ds, CeConfig::quick(), 1000);
    assert!(wrong.load_params(&path).is_err());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn encoded_workload_subset_selects_rows() {
    let (_, _, data) = trained_model();
    let sub = data.subset(&[0, 2, 4]);
    assert_eq!(sub.len(), 3);
    assert_eq!(sub.enc[1], data.enc[2]);
    assert_eq!(sub.ln_card[2], data.ln_card[4]);
}

#[test]
fn ln_max_is_attainable_by_real_cardinalities() {
    // Every observed cardinality must encode strictly inside (0, 1).
    let (_, model, data) = trained_model();
    for &lc in &data.ln_card {
        let norm = lc / model.ln_max();
        assert!(
            (0.0..1.0).contains(&norm),
            "ln_card {lc} vs ln_max {}",
            model.ln_max()
        );
    }
}
