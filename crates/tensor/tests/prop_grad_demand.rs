//! Differential property test for demand-driven reverse mode: on random
//! tapes, `grad(out, S)` must be **bitwise** equal to the matching entries of
//! `grad(out, every leaf ++ S)`. Requesting every leaf marks every node of
//! the tape as needed, so the reference call builds the VJP of every operand,
//! exactly as an unpruned backward pass would. The check covers first-order
//! gradients, grad-of-grad through the pruned first-order tape, and
//! matrix-seeded VJPs, and it pins that pruning never appends more nodes
//! than the reference.

use pace_tensor::{Graph, Matrix, Var};
use proptest::prelude::*;

/// Leaves every tape starts from: three `r×c` inputs plus a `c×c` weight,
/// a `1×c` row and an `r×1` column for the broadcast ops.
fn leaves(g: &mut Graph, r: usize, c: usize, vals: &[f32]) -> Vec<Var> {
    let mut k = 0usize;
    let mut mat = |rows: usize, cols: usize| {
        let data = (0..rows * cols)
            .map(|_| {
                k += 1;
                vals[k % vals.len()]
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    };
    let shapes = [(r, c), (r, c), (r, c), (c, c), (1, c), (r, 1)];
    shapes
        .into_iter()
        .map(|(rows, cols)| {
            let m = mat(rows, cols);
            g.leaf(m)
        })
        .collect()
}

/// Applies one randomly selected `r×c → r×c` op to `x`, with `y` an
/// earlier `r×c` node as the second operand of the binary ops.
fn apply_op(g: &mut Graph, x: Var, y: Var, leaves: &[Var], pick: u8) -> Var {
    let (r, c) = g.shape(x);
    let (w, row, col) = (leaves[3], leaves[4], leaves[5]);
    match pick % 22 {
        0 => g.add(x, y),
        1 => g.sub(x, y),
        2 => g.mul(x, y),
        3 => {
            let a = g.abs(y);
            let d = g.add_scalar(a, 1.0);
            g.div(x, d)
        }
        4 => g.sigmoid(x),
        5 => g.tanh(x),
        6 => g.matmul(x, w),
        7 => g.maximum(x, y),
        8 => g.minimum(y, x),
        9 => g.add_row(x, row),
        10 => g.mul_row(x, row),
        11 => g.mul_col(x, col),
        12 => {
            let cat = g.concat_cols(&[x, y]);
            g.slice_cols(cat, 1, c + 1)
        }
        13 => {
            let cat = g.concat_rows(&[y, x]);
            g.slice_rows(cat, 1, r + 1)
        }
        14 => {
            let s = g.add(x, y);
            g.relu(s)
        }
        15 => {
            let a = g.abs(x);
            let s = g.add_scalar(a, 0.5);
            g.ln(s)
        }
        16 => {
            let s = g.mul_scalar(x, 0.3);
            g.exp(s)
        }
        17 => {
            let yt = g.transpose(y);
            let rr = g.matmul(x, yt);
            g.matmul(rr, x)
        }
        18 => {
            let a = g.abs(x);
            let s = g.add_scalar(a, 0.5);
            let p = g.pow_scalar(s, 1.5);
            g.sqrt(p)
        }
        19 => {
            let s = g.mean_rows(x);
            let back = g.repeat_rows(s, r);
            g.sub(back, y)
        }
        20 => {
            let s = g.sum_cols(y);
            let back = g.repeat_cols(s, c);
            g.mul(back, x)
        }
        _ => {
            let s = g.mean_all(x);
            let b = g.broadcast_scalar(s, r, c);
            let n = g.neg(b);
            g.add(n, y)
        }
    }
}

/// A random tape: `(graph, leaves, every r×c node, head)`.
fn random_tape(
    r: usize,
    c: usize,
    vals: &[f32],
    picks: &[(u8, u8)],
) -> (Graph, Vec<Var>, Vec<Var>, Var) {
    let mut g = Graph::new();
    let ls = leaves(&mut g, r, c, vals);
    let mut pool = ls[..3].to_vec();
    let mut head = ls[0];
    for &(pick, other) in picks {
        let y = pool[other as usize % pool.len()];
        head = apply_op(&mut g, head, y, &ls, pick);
        pool.push(head);
    }
    (g, ls, pool, head)
}

/// The subset of `candidates` selected by `mask` (never empty).
fn subset(candidates: &[Var], mask: u32) -> Vec<Var> {
    let s: Vec<Var> = candidates
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> (i % 32) & 1 == 1)
        .map(|(_, &v)| v)
        .collect();
    if s.is_empty() {
        vec![candidates[mask as usize % candidates.len()]]
    } else {
        s
    }
}

fn bits(g: &Graph, vars: &[Var]) -> Vec<Vec<u32>> {
    vars.iter()
        .map(|&v| g.value(v).data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// `grad` with every leaf prepended to `wrt`, returning only the `wrt`
/// entries, plus the number of nodes the call appended.
fn reference_grad(g: &mut Graph, out: Var, wrt: &[Var]) -> (Vec<Var>, usize) {
    let mut all = g.leaves();
    let skip = all.len();
    all.extend_from_slice(wrt);
    let before = g.len();
    let grads = g.grad(out, &all);
    (grads[skip..].to_vec(), g.len() - before)
}

/// `0.5 · Σ_k sum(d_k ⊙ d_k)`: a scalar of the first-order gradients to
/// differentiate again.
fn grad_energy(g: &mut Graph, ds: &[Var]) -> Var {
    let mut acc = g.scalar(0.0);
    for &d in ds {
        let sq = g.mul(d, d);
        let s = g.sum_all(sq);
        acc = g.add(acc, s);
    }
    g.mul_scalar(acc, 0.5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// First order and grad-of-grad: pruned ≡ all-leaves reference, bit for
    /// bit, with no more nodes appended.
    #[test]
    fn pruned_grad_matches_all_leaves_reference(
        r in 1usize..4,
        c in 1usize..4,
        vals in prop::collection::vec(-1.5f32..1.5, 11),
        picks in prop::collection::vec((0u8..=255, 0u8..=255), 1..10),
        mask in 0u32..=u32::MAX,
    ) {
        let (mut pruned, ls, pool, head) = random_tape(r, c, &vals, &picks);
        let (mut full, _, _, _) = random_tape(r, c, &vals, &picks);
        let mut candidates = ls.clone();
        candidates.extend(&pool[3..]);
        let s = subset(&candidates, mask);

        let out = pruned.sum_all(head);
        let full_out = full.sum_all(head);
        let before = pruned.len();
        let d = pruned.grad(out, &s);
        let pruned_added = pruned.len() - before;
        let (d_ref, full_added) = reference_grad(&mut full, full_out, &s);
        prop_assert_eq!(bits(&pruned, &d), bits(&full, &d_ref));
        prop_assert!(
            pruned_added <= full_added,
            "pruned grad appended {} nodes, the reference {}", pruned_added, full_added
        );

        let h = grad_energy(&mut pruned, &d);
        let h_ref = grad_energy(&mut full, &d_ref);
        let before = pruned.len();
        let d2 = pruned.grad(h, &s);
        let pruned_added = pruned.len() - before;
        let (d2_ref, full_added) = reference_grad(&mut full, h_ref, &s);
        prop_assert_eq!(bits(&pruned, &d2), bits(&full, &d2_ref));
        prop_assert!(
            pruned_added <= full_added,
            "pruned grad-of-grad appended {} nodes, the reference {}", pruned_added, full_added
        );
    }

    /// Matrix-valued outputs through `grad_seeded`.
    #[test]
    fn pruned_vjp_matches_all_leaves_reference(
        r in 1usize..4,
        c in 1usize..4,
        vals in prop::collection::vec(-1.5f32..1.5, 11),
        picks in prop::collection::vec((0u8..=255, 0u8..=255), 1..10),
        mask in 0u32..=u32::MAX,
    ) {
        let (mut pruned, ls, pool, head) = random_tape(r, c, &vals, &picks);
        let (mut full, _, _, _) = random_tape(r, c, &vals, &picks);
        let mut candidates = ls.clone();
        candidates.extend(&pool[3..]);
        let s = subset(&candidates, mask.rotate_left(7));

        let seed_vals: Vec<f32> = (0..r * c).map(|i| vals[(i * 3 + 1) % vals.len()]).collect();
        let seed = pruned.leaf(Matrix::from_vec(r, c, seed_vals.clone()));
        let full_seed = full.leaf(Matrix::from_vec(r, c, seed_vals));
        prop_assert_eq!(seed, full_seed);
        let before = pruned.len();
        let d = pruned.grad_seeded(head, seed, &s);
        let pruned_added = pruned.len() - before;

        let mut all = full.leaves();
        let skip = all.len();
        all.extend_from_slice(&s);
        let before = full.len();
        let d_ref = full.grad_seeded(head, full_seed, &all)[skip..].to_vec();
        let full_added = full.len() - before;
        prop_assert_eq!(bits(&pruned, &d), bits(&full, &d_ref));
        prop_assert!(pruned_added <= full_added);
    }
}
