//! The MSCN training step runs only the predicate elements a batch has:
//! on a batch whose rows join few tables it must multiply fewer matrix
//! FLOPs than the full tape. Alone in its test binary, because it reads the
//! process-global FLOP counter while tracing is armed.

use pace_ce::{q_error_loss, CeConfig, CeModel, CeModelType};
use pace_data::{build, DatasetKind, Scale};
use pace_tensor::{trace, Graph};
use pace_workload::{Query, QueryEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn mscn_step_multiplies_fewer_flops_than_the_full_tape() {
    let ds = build(DatasetKind::Stats, Scale::quick(), 121);
    let enc = QueryEncoder::new(&ds);
    let mut rng = StdRng::seed_from_u64(122);
    let single: Vec<Vec<usize>> = (0..enc.num_tables()).map(|t| vec![t]).collect();
    let rows: Vec<Vec<f32>> = (0..32)
        .map(|i| {
            let p = &single[i % single.len()];
            enc.encode(&enc.random_decoded(std::slice::from_ref(p), &mut rng))
        })
        .chain(std::iter::once(enc.encode(&Query::new(vec![0], vec![]))))
        .collect();
    let ln: Vec<f32> = (0..rows.len()).map(|i| i as f32 * 0.25).collect();
    let model = CeModel::new(CeModelType::Mscn, &ds, CeConfig::quick(), 123);
    let x = pace_ce::rows_to_matrix(&rows);

    let path = std::env::temp_dir().join(format!("pace-step-cost-{}.jsonl", std::process::id()));
    trace::install(Some(path.clone()));
    let flops = |f: &dyn Fn() -> f32| {
        let before = trace::MATMUL_FLOPS.get();
        let loss = f();
        (trace::MATMUL_FLOPS.get() - before, loss)
    };
    let (production, p_loss) = flops(&|| {
        let ln_max = model.ln_max();
        model
            .loss_and_grads(&x, &|g, out| q_error_loss(g, out, &ln, ln_max))
            .0
    });
    let (tape, t_loss) = flops(&|| {
        let mut g = Graph::new();
        let bind = model.params().bind(&mut g);
        let xv = g.leaf(x.clone());
        let out = model.forward(&mut g, &bind, xv);
        let loss = q_error_loss(&mut g, out, &ln, model.ln_max());
        let _ = g.grad_values(loss, bind.vars());
        g.value(loss).as_scalar()
    });
    trace::install(None);
    let _ = std::fs::remove_file(&path);

    assert_eq!(p_loss.to_bits(), t_loss.to_bits());
    assert!(tape > 0, "the FLOP counter is not armed");
    assert!(
        production * 2 < tape,
        "the step multiplied {production} FLOPs, the full tape {tape}"
    );
}
