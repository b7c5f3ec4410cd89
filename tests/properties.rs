//! Cross-crate property-based tests (proptest): the exact-count engine versus
//! a brute-force reference and the old hashed fold (arbitrary `i64` join
//! keys, empty tables, empty and full-range predicates, decoded attack-shaped
//! queries at quick scale), encoder round-trips, generator validity, and
//! optimizer invariants over randomized inputs; the production tapes'
//! demand-driven gradients against the all-leaves reference; the matmul
//! kernel against naive triple loops; and query validity and connectivity
//! against a BFS reference over every evaluation schema.

use pace_ce::{q_error_loss, rows_to_matrix, CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::attack::build_hypergradient_tape;
use pace_data::schema::{table, JoinEdge};
use pace_data::{build, Dataset, DatasetKind, Scale, Schema, Table};
use pace_engine::{naive_count, optimize, CardEstimator, Executor, COUNT_BATCH_GRAIN};
use pace_tensor::{pool, Binding, Graph, Matrix, Var};
use pace_workload::{generate_queries, Predicate, Query, QueryEncoder, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

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

/// The hashed semi-join fold `Executor::count` used before join-key
/// dictionaries: a branchy per-row filter, then per folded child a
/// `HashMap` of child weight sums probed by every parent row. The reference
/// for the dictionary kernel, which must reproduce its counts bit for bit.
fn hashed_fold_count(ds: &Dataset, q: &Query) -> u64 {
    fn weights(
        ds: &Dataset,
        adj: &[Vec<(usize, usize)>],
        q: &Query,
        table: usize,
        parent: usize,
    ) -> Vec<f64> {
        let t = &ds.tables[table];
        let mut w = vec![1.0f64; t.num_rows()];
        for p in q.predicates_on(table) {
            let col = t.col(p.col);
            for (r, wr) in w.iter_mut().enumerate() {
                if *wr > 0.0 && !(p.lo..=p.hi).contains(&col[r]) {
                    *wr = 0.0;
                }
            }
        }
        for &(child, e) in &adj[table] {
            if child == parent || !q.tables.contains(&child) {
                continue;
            }
            let edge = ds.schema.edges[e];
            let (my_col, child_col) = if edge.left.0 == table {
                (edge.left.1, edge.right.1)
            } else {
                (edge.right.1, edge.left.1)
            };
            let child_w = weights(ds, adj, q, child, table);
            let mut sums: HashMap<i64, f64> = HashMap::new();
            for (&v, &cw) in ds.tables[child].col(child_col).iter().zip(&child_w) {
                if cw > 0.0 {
                    *sums.entry(v).or_insert(0.0) += cw;
                }
            }
            for (&v, wr) in t.col(my_col).iter().zip(w.iter_mut()) {
                if *wr > 0.0 {
                    *wr *= sums.get(&v).copied().unwrap_or(0.0);
                }
            }
        }
        w
    }
    let adj = ds.schema.adjacency();
    let root = weights(ds, &adj, q, q.tables[0], usize::MAX);
    root.iter().sum::<f64>().round() as u64
}

/// Join keys that stress a dictionary: both extremes of `i64`, negatives,
/// sparse large values, and small values that collide often.
const KEY_POOL: [i64; 10] = [
    i64::MIN,
    i64::MIN + 1,
    -7,
    -1,
    0,
    1,
    2,
    1 << 40,
    i64::MAX - 1,
    i64::MAX,
];

/// One column value: mostly drawn from [`KEY_POOL`] (so keys repeat, match
/// across tables, and dangle), else a small value or any `i64`, so the
/// wrapping range compare meets values at both ends of the `i64` range.
fn key_value() -> impl Strategy<Value = i64> {
    (0usize..16, -50i64..50, any::<i64>()).prop_map(|(i, small, raw)| match i {
        0..=9 => KEY_POOL[i],
        10..=13 => small,
        _ => raw,
    })
}

/// A forest schema: `hub` has three children (`c1`, `c2`, `c3`), `c3` has a
/// child `g`, and `p — s` is a second tree. Every table has one attribute
/// column after its key columns; all columns hold arbitrary `i64`s.
fn forest_schema() -> Schema {
    Schema::new(
        "forest",
        vec![
            table("hub", &["id"], &[], &["h"]),
            table("c1", &[], &["hub_id"], &["a"]),
            table("c2", &[], &["hub_id"], &["b"]),
            table("c3", &["id"], &["hub_id"], &["c"]),
            table("g", &[], &["c3_id"], &["d"]),
            table("p", &["id"], &[], &["x"]),
            table("s", &[], &["p_id"], &["y"]),
        ],
        vec![
            JoinEdge {
                left: (0, 0),
                right: (1, 0),
            },
            JoinEdge {
                left: (2, 0),
                right: (0, 0),
            },
            JoinEdge {
                left: (0, 0),
                right: (3, 1),
            },
            JoinEdge {
                left: (4, 0),
                right: (3, 0),
            },
            JoinEdge {
                left: (5, 0),
                right: (6, 0),
            },
        ],
    )
}

/// Columns per table of [`forest_schema`].
const FOREST_WIDTHS: [usize; 7] = [2, 2, 2, 3, 2, 2, 2];

/// A [`forest_schema`] dataset from row-major cells (`rows[t][r][c]`).
fn forest_db(rows: &[Vec<Vec<i64>>]) -> Dataset {
    let tables = rows
        .iter()
        .zip(FOREST_WIDTHS)
        .map(|(rows, width)| {
            Table::from_columns(
                (0..width)
                    .map(|c| rows.iter().map(|row| row[c]).collect())
                    .collect(),
            )
        })
        .collect();
    Dataset::new(forest_schema(), tables)
}

/// A predicate over one of a pattern table's columns, by shape: the full
/// `i64` range, a point (`lo == hi`), an empty range (`lo > hi`), or an
/// ordered range between two values.
fn pick_predicate(table: usize, col: usize, shape: u8, a: i64, b: i64) -> Predicate {
    let (lo, hi) = match shape % 4 {
        0 => (i64::MIN, i64::MAX),
        1 => (a, a),
        2 if a != b => (a.max(b), a.min(b)),
        2 if a == i64::MAX => (a, a - 1),
        2 => (a + 1, a),
        _ => (a.min(b), a.max(b)),
    };
    Predicate { table, col, lo, hi }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dictionary kernel against the brute-force reference and the old
    /// hashed fold on a forest schema with arbitrary `i64` join keys
    /// (negative, sparse, duplicated, dangling, `i64::MIN`/`i64::MAX`),
    /// empty tables, and several predicates per table including empty,
    /// point and full-range ones. Covers `count`, `count_subset` on every
    /// connected sub-pattern, `filtered_size`, and `count_batch` at one and
    /// three workers. The hub of three children folds trivial children
    /// (cached sums) and filtered ones in the same query.
    #[test]
    fn dictionary_count_matches_references_on_arbitrary_keys(
        rows in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(key_value(), 3), 0..5),
            7,
        ),
        pattern_pick in any::<usize>(),
        preds in prop::collection::vec(
            (any::<usize>(), 0usize..3, any::<u8>(), key_value(), key_value()),
            0..7,
        ),
    ) {
        let ds = forest_db(&rows);
        let exec = Executor::new(&ds);
        let patterns = ds.schema.connected_patterns(5);
        let tables = patterns[pattern_pick % patterns.len()].clone();
        let predicates: Vec<Predicate> = preds
            .iter()
            .map(|&(t, col, shape, a, b)| {
                let table = tables[t % tables.len()];
                pick_predicate(table, col % FOREST_WIDTHS[table], shape, a, b)
            })
            .collect();
        let q = Query::new(tables.clone(), predicates);

        let naive = naive_count(&ds, &q);
        prop_assert_eq!(exec.count(&q), naive, "query {:?}", q);
        prop_assert_eq!(hashed_fold_count(&ds, &q), naive);
        for &t in &tables {
            let single = Query::new(vec![t], q.predicates_on(t).copied().collect());
            prop_assert_eq!(exec.filtered_size(&q, t), naive_count(&ds, &single));
        }
        let subsets: Vec<Vec<usize>> = patterns
            .into_iter()
            .filter(|p| p.iter().all(|t| tables.contains(t)))
            .collect();
        let mut batch = vec![q.clone()];
        for subset in &subsets {
            let sub = Query::new(
                subset.clone(),
                q.predicates.iter().copied().filter(|p| subset.contains(&p.table)).collect(),
            );
            let expected = naive_count(&ds, &sub);
            prop_assert_eq!(exec.count_subset(&q, subset), expected, "subset {:?}", subset);
            batch.push(sub);
        }
        if batch.len() < 2 {
            batch.push(q.clone());
        }
        // The batch spans several chunks, so 3 workers really fan it out.
        prop_assert!(pool::chunk_ranges(batch.len(), COUNT_BATCH_GRAIN).len() >= 2);
        let expected: Vec<u64> = batch.iter().map(|q| naive_count(&ds, q)).collect();
        pool::set_threads(1);
        let sequential = exec.count_batch(&batch);
        pool::set_threads(3);
        let fanned_out = exec.count_batch(&batch);
        pool::set_threads(0);
        prop_assert_eq!(sequential, expected.clone());
        prop_assert_eq!(fanned_out, expected);
    }
}

/// Counts above 2⁵³, where the root sum rounds: the dictionary kernel must
/// round exactly where the hashed fold did. Five tables of 4000 rows with
/// two distinct join keys join to ~6·10¹⁶ rows; a predicate per table makes
/// the per-key weights uneven.
#[test]
fn counts_above_2_pow_53_match_the_hashed_fold() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % m) as i64 - 2
    };
    // Key columns come first and hold {-2, -1}; the last column is the
    // attribute, in -2..=2.
    let rows: Vec<Vec<Vec<i64>>> = FOREST_WIDTHS
        .iter()
        .map(|&w| {
            (0..4000)
                .map(|_| {
                    (0..w)
                        .map(|c| next(if c + 1 < w { 2 } else { 5 }))
                        .collect()
                })
                .collect()
        })
        .collect();
    let ds = forest_db(&rows);
    let exec = Executor::new(&ds);
    let star = vec![0, 1, 2, 3, 4];
    let unfiltered = Query::new(star.clone(), vec![]);
    let filtered = Query::new(
        star.clone(),
        star.iter()
            .map(|&t| pick_predicate(t, FOREST_WIDTHS[t] - 1, 3, -2, 1))
            .collect(),
    );
    for q in [unfiltered, filtered] {
        let count = exec.count(&q);
        assert!(count > 1 << 53, "count {count} does not exceed 2^53");
        assert_eq!(count, hashed_fold_count(&ds, &q), "query {q:?}");
    }
}

/// Attack-shaped decoded queries on the quick-scale multi-table datasets:
/// `Executor::count` equals the old hashed fold bit for bit.
#[test]
fn decoded_queries_match_the_hashed_fold_at_quick_scale() {
    for (kind, seed) in [
        (DatasetKind::Tpch, 11),
        (DatasetKind::Imdb, 12),
        (DatasetKind::Stats, 13),
    ] {
        let ds = build(kind, Scale::quick(), seed);
        let exec = Executor::new(&ds);
        let enc = QueryEncoder::new(&ds);
        let patterns = ds.schema.connected_patterns(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nonzero = 0;
        for _ in 0..150 {
            let q = enc.random_decoded(&patterns, &mut rng);
            let count = exec.count(&q);
            assert_eq!(count, hashed_fold_count(&ds, &q), "{kind:?} query {q:?}");
            nonzero += usize::from(count > 0);
        }
        assert!(nonzero > 0, "{kind:?}: every decoded query was empty");
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
) -> (Graph, Vec<Var>) {
    let mut g = Graph::new();
    let x = g.leaf(rows_to_matrix(&data.enc[poison.clone()]));
    let theta0 = model.params().bind(&mut g);
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
    (g, vec![objective, hypergrad])
}

fn value_bits(g: &Graph, vars: &[Var]) -> Vec<Vec<u32>> {
    vars.iter()
        .map(|&v| g.value(v).data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The production tapes — one CE train step and the attack's K=1 and K=4
/// hypergradient — differentiate demand-driven. For every CE model type
/// they must give the same bits as the all-leaves reference, on a smaller
/// eager tape. The value-only pass the optimizer steps run
/// (`Graph::grad_values`) must give the recorded gradients' bits too —
/// for the hypergradient, through the unroll's recorded inner gradients —
/// and append nothing. `CeModel::loss_and_grads`, the step training runs,
/// must give the reference's loss and gradient bits too.
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

        // One CE train step: loss and ∂loss/∂θ, and the vars they are
        // taken with respect to.
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
            (g, outputs, bind.vars().to_vec())
        };
        let (rg, r_outputs, _) = step_tape(true);
        let mut cases = vec![(
            "ce train step".to_string(),
            step_tape(false),
            (rg, r_outputs),
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
            // The poisoning batch `x` is the tape's first leaf.
            let (g, outputs) = pruned;
            let x = g.leaves()[0];
            cases.push((
                format!("hypergradient K={k}"),
                (g, outputs, vec![x]),
                reference,
            ));
        }

        for (what, (g, outputs, wrt), (rg, r_outputs)) in &cases {
            let ctx = format!("{} {what}", ty.name());
            let before = g.len();
            let values: Vec<Vec<u32>> = g
                .grad_values(outputs[0], wrt)
                .iter()
                .map(|m| m.data().iter().map(|x| x.to_bits()).collect())
                .collect();
            assert_eq!(g.len(), before, "{ctx}: the value pass appended nodes");
            assert_eq!(
                values,
                value_bits(g, &outputs[1..]),
                "{ctx}: value-pass gradients differ from the recorded ones"
            );
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
        }

        // The production step, which MSCN runs over only the set elements
        // the batch has, against the same all-leaves reference.
        let ln_max = model.ln_max();
        let (value, grads) = model.loss_and_grads(
            &rows_to_matrix(&data.enc[poison.clone()]),
            &|g, out| q_error_loss(g, out, &data.ln_card[poison.clone()], ln_max),
            "test::production_step",
        );
        let mut got = vec![vec![value.to_bits()]];
        got.extend(
            grads
                .iter()
                .map(|m| m.data().iter().map(|x| x.to_bits()).collect()),
        );
        let (rg, r_outputs) = &cases[0].2;
        assert_eq!(
            got,
            value_bits(rg, r_outputs),
            "{}: loss_and_grads differs from the all-leaves reference",
            ty.name()
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense matmul kernel is bitwise the naive ascending-`k` triple
    /// loop, and bitwise the loop that skips `0 · finite` terms: adding a
    /// `±0` product to an accumulator that starts at `+0.0` never changes
    /// its bits, while `0 · NaN` and `0 · ±Inf` still reach it (NaNs compare
    /// as one class, see [`nan_class_bits`]). Shapes cross the 128-row
    /// panel edge and every `k % 4` tail.
    #[test]
    fn matmul_kernel_matches_naive_loops(
        n in 1usize..=20,
        k in 1usize..=140,
        m in 1usize..=40,
        seed in any::<u64>(),
        a_specials in any::<bool>(),
        b_specials in any::<bool>(),
    ) {
        let a = kernel_matrix(n, k, seed, a_specials);
        let b = kernel_matrix(k, m, seed ^ 0x9e37_79b9_7f4a_7c15, b_specials);
        let dense = naive_matmul_bits(&a, &b, false);
        prop_assert_eq!(&naive_matmul_bits(&a, &b, true), &dense);

        let kernel: Vec<u32> = a.matmul(&b).data().iter().map(|&x| nan_class_bits(x)).collect();
        prop_assert_eq!(kernel, dense);
    }
}

/// Every evaluation schema with its connected patterns of up to 4 tables,
/// built once for the validity properties below.
fn validity_schemas() -> &'static [(Schema, Vec<Vec<usize>>)] {
    static SCHEMAS: std::sync::OnceLock<Vec<(Schema, Vec<Vec<usize>>)>> =
        std::sync::OnceLock::new();
    SCHEMAS.get_or_init(|| {
        [
            DatasetKind::Dmv,
            DatasetKind::Imdb,
            DatasetKind::Tpch,
            DatasetKind::Stats,
        ]
        .into_iter()
        .map(|kind| {
            let schema = build(kind, Scale::tiny(), 1).schema;
            let patterns = schema.connected_patterns(4);
            (schema, patterns)
        })
        .collect()
    })
}

/// Reference connectivity: a BFS over `Schema::adjacency`. Indexing by an
/// out-of-range table would panic, so such lists are disconnected here; a
/// singleton used to be accepted before any range check, which let an
/// out-of-range table through to the encoder.
fn reference_is_connected(schema: &Schema, tables: &[usize]) -> bool {
    if tables.is_empty() || tables.iter().any(|&t| t >= schema.num_tables()) {
        return false;
    }
    let mut in_set = vec![false; schema.num_tables()];
    for &t in tables {
        in_set[t] = true;
    }
    let adj = schema.adjacency();
    let mut seen = vec![false; schema.num_tables()];
    let mut stack = vec![tables[0]];
    seen[tables[0]] = true;
    let mut count = 1;
    while let Some(t) = stack.pop() {
        for &(n, _) in &adj[t] {
            if in_set[n] && !seen[n] {
                seen[n] = true;
                count += 1;
                stack.push(n);
            }
        }
    }
    count == tables.len()
}

/// Reference validity: connectivity above plus `attributes().contains`.
fn reference_is_valid(schema: &Schema, q: &Query) -> bool {
    let attrs = schema.attributes();
    reference_is_connected(schema, &q.tables)
        && q.predicates.iter().all(|p| {
            q.tables.contains(&p.table) && p.lo <= p.hi && attrs.contains(&(p.table, p.col))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `is_valid` and the edge-count `is_connected` agree with the BFS
    /// reference on valid patterns and on empty, unsorted, repeated and
    /// out-of-range table lists, with predicates on bad tables, bad
    /// columns and reversed bounds.
    #[test]
    fn is_valid_matches_the_bfs_reference(
        kind in 0usize..4,
        pick in any::<usize>(),
        shape in 0u8..8,
        extra in any::<usize>(),
        preds in prop::collection::vec(
            (0u8..3, any::<usize>(), 0u8..3, -3i64..4, -3i64..4),
            0..4,
        ),
    ) {
        let (schema, patterns) = &validity_schemas()[kind];
        let n = schema.num_tables();
        let mut tables = patterns[pick % patterns.len()].clone();
        let k = tables.len();
        match shape {
            0 => {}
            1 => tables.reverse(),
            2 => tables.insert(extra % (k + 1), tables[extra % k]),
            3 => tables.push(n + extra % 100),
            4 => tables[extra % k] = n + extra % 3,
            5 => tables.clear(),
            // Arbitrary lists, mostly in range, often disconnected.
            _ => {
                tables = (0..1 + extra % 4)
                    .map(|i| (extra >> (8 * i)) % (n + 1))
                    .collect();
            }
        }
        let predicates = preds
            .iter()
            .map(|&(table_shape, r, col_shape, lo, hi)| {
                let table = match table_shape {
                    0 if !tables.is_empty() => tables[r % tables.len()],
                    0 | 1 => r % n,
                    _ => n + r % 3,
                };
                let cols = schema.tables.get(table).map_or(1, |t| t.columns.len());
                let col = match col_shape {
                    0 => schema
                        .attributes()
                        .into_iter()
                        .filter(|&(t, _)| t == table)
                        .map(|(_, c)| c)
                        .nth(r % cols)
                        .unwrap_or(r % cols),
                    1 => r % (cols + 1),
                    _ => cols + r % 3,
                };
                Predicate { table, col, lo, hi }
            })
            .collect();
        let q = Query { tables, predicates };
        prop_assert_eq!(
            schema.is_connected(&q.tables),
            reference_is_connected(schema, &q.tables),
            "{:?} on {}",
            q.tables,
            schema.name
        );
        prop_assert_eq!(
            q.is_valid(schema),
            reference_is_valid(schema, &q),
            "{:?} on {}",
            q,
            schema.name
        );
    }
}
