//! Cross-crate property-based tests (proptest): the exact-count engine versus
//! a brute-force reference, encoder round-trips, generator validity, and
//! optimizer invariants over randomized inputs; the production tapes'
//! demand-driven gradients against the all-leaves reference; and the matmul
//! kernel against naive triple loops.

use pace_ce::{q_error_loss, rows_to_matrix, CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::attack::build_hypergradient_tape;
use pace_data::schema::{table, JoinEdge};
use pace_data::{build, Dataset, DatasetKind, Scale, Schema, Table};
use pace_engine::{naive_count, optimize, CardEstimator, Executor};
use pace_tensor::opt::Arena;
use pace_tensor::{pool, Binding, Graph, Matrix, Var};
use pace_workload::{generate_queries, Predicate, Query, QueryEncoder, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small random chain database `a — b — c` with data driven by proptest.
fn chain_db(a_vals: Vec<i64>, b_fk: Vec<u8>, b_vals: Vec<i64>, c_fk: Vec<u8>) -> Dataset {
    let schema = Schema::new(
        "prop",
        vec![
            table("a", &["id"], &[], &["x"]),
            table("b", &["id"], &["a_id"], &["y"]),
            table("c", &["id"], &["b_id"], &[]),
        ],
        vec![
            JoinEdge {
                left: (0, 0),
                right: (1, 1),
            },
            JoinEdge {
                left: (1, 0),
                right: (2, 1),
            },
        ],
    );
    let na = a_vals.len().max(1) as i64;
    let nb = b_fk.len().max(1) as i64;
    let a = Table::from_columns(vec![(0..a_vals.len() as i64).collect(), a_vals]);
    let b = Table::from_columns(vec![
        (0..b_fk.len() as i64).collect(),
        b_fk.iter().map(|&v| i64::from(v) % na).collect(),
        b_vals,
    ]);
    let c = Table::from_columns(vec![
        (0..c_fk.len() as i64).collect(),
        c_fk.iter().map(|&v| i64::from(v) % nb).collect(),
    ]);
    Dataset::new(schema, vec![a, b, c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn semijoin_count_matches_bruteforce(
        a_vals in prop::collection::vec(0i64..20, 1..8),
        b_fk in prop::collection::vec(any::<u8>(), 1..8),
        b_vals in prop::collection::vec(0i64..20, 8),
        c_fk in prop::collection::vec(any::<u8>(), 1..8),
        lo in 0i64..20,
        width in 0i64..20,
        pattern_pick in 0usize..4,
    ) {
        let b_vals = b_vals[..b_fk.len()].to_vec();
        let ds = chain_db(a_vals, b_fk, b_vals, c_fk);
        let exec = Executor::new(&ds);
        let tables = match pattern_pick {
            0 => vec![0],
            1 => vec![0, 1],
            2 => vec![1, 2],
            _ => vec![0, 1, 2],
        };
        let mut predicates = vec![];
        if tables.contains(&1) {
            predicates.push(Predicate { table: 1, col: 2, lo, hi: lo + width });
        } else if tables.contains(&0) {
            predicates.push(Predicate { table: 0, col: 1, lo, hi: lo + width });
        }
        let q = Query::new(tables, predicates);
        prop_assert_eq!(exec.count(&q), naive_count(&ds, &q));
    }

    #[test]
    fn count_monotone_in_predicate_width(
        a_vals in prop::collection::vec(0i64..30, 2..10),
        lo in 0i64..30,
        w1 in 0i64..15,
        extra in 1i64..15,
    ) {
        let ds = chain_db(a_vals, vec![0], vec![0], vec![0]);
        let exec = Executor::new(&ds);
        let narrow = Query::new(vec![0], vec![Predicate { table: 0, col: 1, lo, hi: lo + w1 }]);
        let wide = Query::new(vec![0], vec![Predicate { table: 0, col: 1, lo, hi: lo + w1 + extra }]);
        prop_assert!(exec.count(&narrow) <= exec.count(&wide));
    }

    #[test]
    fn encoder_decode_encode_is_stable(
        a_vals in prop::collection::vec(0i64..50, 2..10),
        b_vals in prop::collection::vec(0i64..50, 4),
        raw in prop::collection::vec(0f32..1.0, 3 + 2 * 2),
    ) {
        let ds = chain_db(a_vals, vec![0, 1, 2, 3], b_vals, vec![0]);
        let enc = QueryEncoder::new(&ds);
        // Force the join prefix to a valid pattern; bounds stay raw.
        let mut v = raw.clone();
        v[0] = 1.0;
        v[1] = 1.0;
        v[2] = 0.0;
        // Order each bound pair.
        for i in 0..2 {
            let lo = 3 + 2 * i;
            if v[lo] > v[lo + 1] {
                v.swap(lo, lo + 1);
            }
        }
        let q = enc.decode(&v);
        prop_assert!(q.is_valid(&ds.schema));
        let e1 = enc.encode(&q);
        let e2 = enc.encode(&enc.decode(&e1));
        prop_assert_eq!(e1, e2);
    }

    #[test]
    fn optimizer_plans_are_valid_permutations(
        cards in prop::collection::vec(1f64..1e6, 7),
    ) {
        // Random positive cardinalities for every subset of a 3-table chain.
        struct VecEst(Vec<f64>);
        impl CardEstimator for VecEst {
            fn estimate(&self, q: &Query) -> f64 {
                // Index by bitmask of the pattern.
                let mask = q.tables.iter().fold(0usize, |m, &t| m | (1 << t));
                self.0[mask - 1]
            }
        }
        let ds = chain_db(vec![1, 2], vec![0, 1], vec![3, 4], vec![0, 1]);
        let q = Query::new(vec![0, 1, 2], vec![]);
        let plan = optimize(&q, &ds.schema, &VecEst(cards));
        let mut sorted = plan.order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, vec![0, 1, 2]);
        for k in 1..=plan.order.len() {
            prop_assert!(ds.schema.is_connected(&plan.order[..k]));
        }
        prop_assert!(plan.est_cost.is_finite());
        prop_assert!(plan.est_cost > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generator_outputs_valid_queries_under_any_seed(seed in any::<u64>()) {
        use pace_core::{GeneratorConfig, PoisonGenerator};
        use pace_data::{build, DatasetKind, Scale};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ds = build(DatasetKind::Tpch, Scale::tiny(), 3);
        let enc = QueryEncoder::new(&ds);
        let patterns = ds.schema.connected_patterns(3);
        let generator = PoisonGenerator::new(enc, patterns, GeneratorConfig::default(), seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let (queries, encs) = generator.generate(&mut rng, 16);
        for (q, e) in queries.iter().zip(&encs) {
            prop_assert!(q.is_valid(&ds.schema), "invalid query {:?}", q);
            prop_assert!(e.iter().all(|x| x.is_finite()));
        }
    }
}

/// `g.grad(out, wrt)` with every leaf on the tape requested as well, which
/// marks every node as needed: the backward pass builds the VJP toward every
/// operand, as an unpruned reverse mode would. Returns the `wrt` entries.
fn grad_all_leaves(g: &mut Graph, out: Var, wrt: &[Var]) -> Vec<Var> {
    let mut all = g.leaves();
    let skip = all.len();
    all.extend_from_slice(wrt);
    g.grad(out, &all)[skip..].to_vec()
}

/// `build_hypergradient_tape` op for op, except that the inner unrolled
/// gradients and the outer hypergradient all go through [`grad_all_leaves`].
fn reference_hypergradient_tape(
    model: &CeModel,
    data: &EncodedWorkload,
    (poison, test): (std::ops::Range<usize>, std::ops::Range<usize>),
    steps: usize,
    lr: f32,
) -> (Graph, Vec<Var>, Vec<Var>) {
    let mut g = Graph::new();
    let x = g.leaf(rows_to_matrix(&data.enc[poison.clone()]));
    let theta0 = model.params().bind(&mut g);
    let mut inputs = vec![x];
    inputs.extend(theta0.vars().iter().copied());
    let clip = model.config().update_clip;
    let mut theta = theta0;
    for _ in 0..steps {
        let out = model.forward(&mut g, &theta, x);
        let loss = q_error_loss(&mut g, out, &data.ln_card[poison.clone()], model.ln_max());
        let grads = grad_all_leaves(&mut g, loss, theta.vars());
        let mut sq = g.scalar(0.0);
        for &gr in &grads {
            let s = g.mul(gr, gr);
            let ss = g.sum_all(s);
            sq = g.add(sq, ss);
        }
        let sq = g.add_scalar(sq, 1e-12);
        let norm = g.sqrt(sq);
        let clip_node = g.scalar(clip);
        let ratio = g.div(clip_node, norm);
        let one = g.scalar(1.0);
        let scale = g.minimum(ratio, one);
        let next: Vec<Var> = theta
            .vars()
            .iter()
            .zip(grads)
            .map(|(&p, gr)| {
                let (r, c) = g.shape(gr);
                let sc = g.broadcast_scalar(scale, r, c);
                let clipped = g.mul(gr, sc);
                let step = g.mul_scalar(clipped, lr);
                g.sub(p, step)
            })
            .collect();
        theta = Binding::from_vars(next);
    }
    let test_x = g.leaf(rows_to_matrix(&data.enc[test.clone()]));
    let out = model.forward(&mut g, &theta, test_x);
    let objective = q_error_loss(&mut g, out, &data.ln_card[test], model.ln_max());
    let hypergrad = grad_all_leaves(&mut g, objective, &[x])[0];
    (g, vec![objective, hypergrad], inputs)
}

fn value_bits(g: &Graph, vars: &[Var]) -> Vec<Vec<u32>> {
    vars.iter()
        .map(|&v| g.value(v).data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Optimizes a tape, replays the plan, and returns `(nodes_after, output bits)`.
fn plan_bits(g: &Graph, outputs: &[Var], inputs: &[Var], ctx: &str) -> (usize, Vec<Vec<u32>>) {
    let plan = pace_tensor::opt::optimize(g, outputs, inputs, ctx);
    let mut arena = Arena::new();
    plan.replay(&mut arena);
    let bits = (0..plan.num_outputs())
        .map(|k| {
            let m = plan.output_value(&arena, k);
            m.data().iter().map(|x| x.to_bits()).collect()
        })
        .collect();
    (plan.stats().nodes_after, bits)
}

/// The production tapes — one CE train step and the attack's K=1 and K=4
/// hypergradient — differentiate demand-driven. For every CE model type
/// they must give the same bits as the all-leaves reference, on a smaller
/// eager tape, and optimize to a plan of the same size with the same
/// replayed bits.
#[test]
fn production_gradients_match_all_leaves_reference() {
    let ds = build(DatasetKind::Tpch, Scale::quick(), 2);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(11);
    let labeled = exec.label_nonzero(generate_queries(
        &ds,
        &WorkloadSpec::default(),
        &mut rng,
        48,
    ));
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    let half = data.enc.len() / 2;
    let n = half.min(16);
    let (poison, test) = (0..n, half..half + n);

    for ty in CeModelType::all() {
        let model = CeModel::new(ty, &ds, CeConfig::quick(), 6);

        // One CE train step: loss and ∂loss/∂θ.
        let step_tape = |reference: bool| {
            let mut g = Graph::new();
            let bind = model.params().bind(&mut g);
            let x = g.leaf(rows_to_matrix(&data.enc[poison.clone()]));
            let out = model.forward(&mut g, &bind, x);
            let loss = q_error_loss(&mut g, out, &data.ln_card[poison.clone()], model.ln_max());
            let grads = if reference {
                grad_all_leaves(&mut g, loss, bind.vars())
            } else {
                g.grad(loss, bind.vars())
            };
            let mut outputs = vec![loss];
            outputs.extend(grads);
            let inputs = bind.vars().to_vec();
            (g, outputs, inputs)
        };
        let mut cases = vec![(
            "ce train step".to_string(),
            step_tape(false),
            step_tape(true),
        )];
        for k in [1usize, 4] {
            let pruned = build_hypergradient_tape(
                &model,
                &data.enc[poison.clone()],
                &data.ln_card[poison.clone()],
                &data.enc[test.clone()],
                &data.ln_card[test.clone()],
                k,
                1e-2,
            );
            let reference = reference_hypergradient_tape(
                &model,
                &data,
                (poison.clone(), test.clone()),
                k,
                1e-2,
            );
            cases.push((format!("hypergradient K={k}"), pruned, reference));
        }

        for (what, (g, outputs, inputs), (rg, r_outputs, r_inputs)) in &cases {
            let ctx = format!("{} {what}", ty.name());
            assert_eq!(
                value_bits(g, outputs),
                value_bits(rg, r_outputs),
                "{ctx}: demand-driven gradients differ from the all-leaves reference"
            );
            assert!(
                g.len() < rg.len(),
                "{ctx}: eager tape of {} nodes is not smaller than the reference's {}",
                g.len(),
                rg.len()
            );
            let (nodes, bits) = plan_bits(g, outputs, inputs, &ctx);
            let (r_nodes, r_bits) = plan_bits(rg, r_outputs, r_inputs, &ctx);
            assert_eq!(nodes, r_nodes, "{ctx}: optimized plan size changed");
            assert_eq!(bits, r_bits, "{ctx}: optimized replay bits changed");
        }
    }
}

/// One matmul operand value from a random word: signed zeros (common, so
/// whole runs of `a` are zero), subnormals, `±1e20` (whose products
/// overflow to `±Inf`), ordinary floats, and — when `specials` is set —
/// NaN and `±Inf`.
fn kernel_value(r: u64, specials: bool) -> f32 {
    let frac = (r >> 40) as f32 / (1u64 << 24) as f32;
    match r % 64 {
        0..=11 => 0.0,
        12..=15 => -0.0,
        16 if specials => f32::NAN,
        17 if specials => f32::INFINITY,
        18 if specials => f32::NEG_INFINITY,
        19 => 1e20,
        20 => -1e20,
        21 => f32::from_bits(1 + (r >> 41) as u32),
        22 => -f32::from_bits(1 + (r >> 41) as u32),
        _ => (frac - 0.5) * 8.0,
    }
}

fn kernel_matrix(rows: usize, cols: usize, seed: u64, specials: bool) -> Matrix {
    let mut state = seed;
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            kernel_value(state >> 1, specials)
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The bits of `x`, with every NaN mapped to one pattern. IEEE 754 leaves
/// open which operand's payload a NaN-on-NaN add returns, and x86 returns
/// the first operand's, so the sign and payload of a NaN result depend on
/// how the compiler ordered the operands of one loop's add — not on the
/// values summed.
fn nan_class_bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// The definition of `a · b`: for each output element, `+0.0` plus the
/// products in ascending `k`. With `skip_finite_zeros`, terms with
/// `a == 0` whose `b` row is all finite are left out — the semantics of the
/// zero-skipping kernel this one replaced.
fn naive_matmul_bits(a: &Matrix, b: &Matrix, skip_finite_zeros: bool) -> Vec<u32> {
    let ((n, k), m) = (a.shape(), b.cols());
    let row_finite: Vec<bool> = (0..k)
        .map(|r| b.row_slice(r).iter().all(|x| x.is_finite()))
        .collect();
    let mut out = Vec::with_capacity(n * m);
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            for (kk, &finite) in row_finite.iter().enumerate() {
                let av = a.get(i, kk);
                if skip_finite_zeros && av == 0.0 && finite {
                    continue;
                }
                acc += av * b.get(kk, j);
            }
            out.push(nan_class_bits(acc));
        }
    }
    out
}

fn matrix_bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense matmul kernel is bitwise the naive ascending-`k` triple
    /// loop, and bitwise the loop that skips `0 · finite` terms: adding a
    /// `±0` product to an accumulator that starts at `+0.0` never changes
    /// its bits, while `0 · NaN` and `0 · ±Inf` still reach it (NaNs compare
    /// as one class, see [`nan_class_bits`]). Shapes cross the 128-row
    /// panel edge and every `k % 4` tail. The product fanned out over the
    /// pool, under a cost model that makes every sizeable region parallel,
    /// must equal the sequential one bit for bit, NaN payloads included.
    #[test]
    fn matmul_kernel_matches_naive_loops(
        n in 1usize..=20,
        k in 1usize..=140,
        m in 1usize..=40,
        seed in any::<u64>(),
        a_specials in any::<bool>(),
        b_specials in any::<bool>(),
        threads in 2usize..9,
    ) {
        let a = kernel_matrix(n, k, seed, a_specials);
        let b = kernel_matrix(k, m, seed ^ 0x9e37_79b9_7f4a_7c15, b_specials);
        let dense = naive_matmul_bits(&a, &b, false);
        prop_assert_eq!(&naive_matmul_bits(&a, &b, true), &dense);

        pool::set_threads(1);
        let sequential = a.matmul(&b);
        pool::cost::set_constants(Some(pool::cost::CostConstants {
            dispatch_ns: 100.0,
            task_ns: 10.0,
            flops_per_ns: 1.0,
            bytes_per_ns: 1.0,
            effective_parallelism: 8.0,
        }));
        pool::set_threads(threads);
        let fanned_out = a.matmul(&b);
        pool::set_threads(0);
        pool::cost::set_constants(None);
        prop_assert_eq!(matrix_bits(&fanned_out), matrix_bits(&sequential));
        let kernel: Vec<u32> = sequential.data().iter().map(|&x| nan_class_bits(x)).collect();
        prop_assert_eq!(kernel, dense);
    }
}
