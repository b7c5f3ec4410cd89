//! The static FLOP/byte cost model of the autograd tape.
//!
//! The tape ([`crate::Graph`]) is a pure, append-only SSA program: every node
//! is defined exactly once, operands always precede consumers, and node
//! indices double as topological order. [`node_cost`] estimates one node's
//! FLOPs and bytes moved from its operand shapes alone; [`tape_cost`] sums
//! them over the sub-tape an output set depends on. Neither executes the
//! tape.

use crate::grad::op_inputs;
use crate::graph::{Graph, Op, Var};

// ---- static cost model ------------------------------------------------------

/// Estimated execution cost of one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Floating-point operations (moves count as 1 per element; the four
    /// transcendental families are weighted [`TRANSCENDENTAL_FLOPS`] each).
    pub flops: u64,
    /// Bytes of the node's output value.
    pub out_bytes: usize,
    /// Bytes of every operand the node reads (summed over occurrences). A
    /// bandwidth-bound elementwise step moves `in_bytes + out_bytes`, not
    /// `out_bytes` alone.
    pub in_bytes: usize,
}

/// Per-element weight charged for `exp`/`ln`/`sqrt`/`powf`/`sigmoid`/`tanh`.
pub const TRANSCENDENTAL_FLOPS: u64 = 8;

/// Static cost of computing node `v`, derived from operand shapes alone.
pub fn node_cost(g: &Graph, v: Var) -> Cost {
    let (r, c) = g.shape(v);
    let out = (r * c) as u64;
    let in_len = |x: Var| {
        let (ir, ic) = g.shape(x);
        (ir * ic) as u64
    };
    let flops = match *g.op(v) {
        Op::Leaf => 0,
        Op::Add(..)
        | Op::Sub(..)
        | Op::Mul(..)
        | Op::Div(..)
        | Op::Maximum(..)
        | Op::Minimum(..)
        | Op::Neg(_)
        | Op::AddScalar(_)
        | Op::MulScalar(..)
        | Op::Relu(_)
        | Op::Abs(_)
        | Op::AddRow(..)
        | Op::MulRow(..)
        | Op::MulCol(..) => out,
        Op::Sigmoid(_) | Op::Tanh(_) | Op::Exp(_) | Op::Ln(_) | Op::Sqrt(_) | Op::PowScalar(..) => {
            out * TRANSCENDENTAL_FLOPS
        }
        Op::MatMul(a, b) => {
            let (n, k) = g.shape(a);
            let m = g.shape(b).1;
            2 * (n * k * m) as u64
        }
        Op::Transpose(a) => in_len(a),
        Op::SumAll(a) | Op::MeanAll(a) | Op::SumRows(a) | Op::MeanRows(a) | Op::SumCols(a) => {
            in_len(a)
        }
        Op::RepeatRows(..) | Op::RepeatCols(..) | Op::BroadcastScalar(..) => out,
        Op::ConcatCols(_)
        | Op::ConcatRows(_)
        | Op::SliceCols(..)
        | Op::SliceRows(..)
        | Op::GatherRows(..)
        | Op::ScatterRows(..) => out,
    };
    let in_bytes: usize = op_inputs(g.op(v))
        .iter()
        .map(|&x| {
            let (ir, ic) = g.shape(x);
            ir * ic * size_of::<f32>()
        })
        .sum();
    Cost {
        flops,
        out_bytes: (r * c) * size_of::<f32>(),
        in_bytes,
    }
}

/// Summed [`node_cost`] over the nodes reachable from `outputs`.
pub fn tape_cost(g: &Graph, outputs: &[Var]) -> Cost {
    let mut reachable = vec![false; g.len()];
    let mut stack: Vec<Var> = outputs
        .iter()
        .copied()
        .filter(|v| v.index() < g.len())
        .collect();
    let mut total = Cost::default();
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut reachable[v.index()], true) {
            continue;
        }
        let c = node_cost(g, v);
        total.flops += c.flops;
        total.out_bytes += c.out_bytes;
        total.in_bytes += c.in_bytes;
        stack.extend(op_inputs(g.op(v)).iter().filter(|x| !reachable[x.index()]));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn cost_model_matmul_and_transcendentals() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let w = g.leaf(Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]));
        let h = g.matmul(x, w);
        let sig = g.sigmoid(h);
        let out = g.sum_all(sig);
        assert_eq!(node_cost(&g, h).flops, 2 * 2 * 3 * 2);
        assert_eq!(node_cost(&g, h).out_bytes, 2 * 2 * 4);
        // MatMul reads the (2,3) and (3,2) operands: 12 floats.
        assert_eq!(node_cost(&g, h).in_bytes, (6 + 6) * 4);
        assert_eq!(node_cost(&g, sig).flops, 4 * TRANSCENDENTAL_FLOPS);
        // Sigmoid reads its (2,2) operand and writes (2,2): both sides count.
        assert_eq!(node_cost(&g, sig).in_bytes, 2 * 2 * 4);
        let total = tape_cost(&g, &[out]);
        assert!(total.flops >= 2 * 2 * 3 * 2 + 4 * TRANSCENDENTAL_FLOPS);
        assert!(total.in_bytes >= node_cost(&g, h).in_bytes + node_cost(&g, sig).in_bytes);
    }
}
