//! The autograd graph.
//!
//! Values are computed eagerly: every op appends a node holding its result,
//! and returns a [`Var`] handle. Differentiation ([`Graph::grad`]) *builds new
//! nodes* for the gradients — the vector-Jacobian product of every op is
//! itself expressed through graph ops — so gradients are first-class values
//! that can be differentiated again. This double-backward capability is what
//! lets the PACE attack differentiate through unrolled SGD updates of a
//! surrogate model (a hypergradient). A gradient that is only read — every
//! optimizer step — comes from [`Graph::grad_values`] instead, which returns
//! the same bits as matrices and appends nothing.

use crate::matrix::Matrix;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Var(pub(crate) usize);

/// The primitive operations of the graph.
///
/// Every op's VJP is expressible in terms of other ops in this enum, which is
/// the invariant that makes higher-order differentiation work.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// Input / constant. Gradients do not flow past leaves.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    AddScalar(Var),
    MulScalar(Var, f32),
    PowScalar(Var, f32),
    MatMul(Var, Var),
    Transpose(Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Exp(Var),
    Ln(Var),
    Sqrt(Var),
    Abs(Var),
    Maximum(Var, Var),
    Minimum(Var, Var),
    SumAll(Var),
    MeanAll(Var),
    SumRows(Var),
    MeanRows(Var),
    /// Stacks a `1×d` row into `n×d`.
    RepeatRows(Var),
    /// Broadcasts a `1×1` scalar to an `r×c` shape.
    BroadcastScalar(Var),
    /// `n×d` plus a `1×d` row broadcast over every row (bias add).
    AddRow(Var, Var),
    /// `n×d` times a `1×d` row broadcast over every row.
    MulRow(Var, Var),
    /// `n×d` times an `n×1` column broadcast over every column.
    MulCol(Var, Var),
    /// Row-wise sum: `n×d → n×1`.
    SumCols(Var),
    /// Stacks an `n×1` column into `n×d`.
    RepeatCols(Var),
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    SliceCols(Var, usize, usize),
    SliceRows(Var, usize, usize),
    /// The operand's rows at the listed indices, in list order.
    GatherRows(Var, Box<RowIndex>),
    /// The operand's rows placed at the listed rows of a matrix of zeros —
    /// the inverse of `GatherRows`, and its VJP.
    ScatterRows(Var, Box<RowIndex>),
}

/// Distinct row indices into an `n`-row matrix: the rows `Op::GatherRows`
/// reads from its operand, and those `Op::ScatterRows` writes in its
/// output. Boxed in `Op`, so that the two ops do not widen every node.
#[derive(Clone, Debug)]
pub(crate) struct RowIndex {
    pub(crate) idx: Vec<usize>,
    pub(crate) n: usize,
}

impl Op {
    /// The variant's bare name (without operands), for reports and counters.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "Leaf",
            Op::Add(..) => "Add",
            Op::Sub(..) => "Sub",
            Op::Mul(..) => "Mul",
            Op::Div(..) => "Div",
            Op::Neg(_) => "Neg",
            Op::AddScalar(..) => "AddScalar",
            Op::MulScalar(..) => "MulScalar",
            Op::PowScalar(..) => "PowScalar",
            Op::MatMul(..) => "MatMul",
            Op::Transpose(_) => "Transpose",
            Op::Sigmoid(_) => "Sigmoid",
            Op::Tanh(_) => "Tanh",
            Op::Relu(_) => "Relu",
            Op::Exp(_) => "Exp",
            Op::Ln(_) => "Ln",
            Op::Sqrt(_) => "Sqrt",
            Op::Abs(_) => "Abs",
            Op::Maximum(..) => "Maximum",
            Op::Minimum(..) => "Minimum",
            Op::SumAll(_) => "SumAll",
            Op::MeanAll(_) => "MeanAll",
            Op::SumRows(_) => "SumRows",
            Op::MeanRows(_) => "MeanRows",
            Op::RepeatRows(..) => "RepeatRows",
            Op::BroadcastScalar(..) => "BroadcastScalar",
            Op::AddRow(..) => "AddRow",
            Op::MulRow(..) => "MulRow",
            Op::MulCol(..) => "MulCol",
            Op::SumCols(_) => "SumCols",
            Op::RepeatCols(..) => "RepeatCols",
            Op::ConcatCols(_) => "ConcatCols",
            Op::ConcatRows(_) => "ConcatRows",
            Op::SliceCols(..) => "SliceCols",
            Op::SliceRows(..) => "SliceRows",
            Op::GatherRows(..) => "GatherRows",
            Op::ScatterRows(..) => "ScatterRows",
        }
    }
}

struct Node {
    op: Op,
    value: Matrix,
}

/// An append-only autograd tape.
///
/// A `Graph` is cheap to create; training loops typically build one per step
/// and drop it afterwards. All [`Var`] handles are only meaningful with the
/// graph that created them.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// First node whose value contains a non-finite element, with the op's
    /// name — set once and kept, so the *origin* of a NaN/Inf cascade stays
    /// attributable (see [`Graph::first_nonfinite`]).
    first_nonfinite: Option<(Var, &'static str)>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        // Non-finite values are recorded, not rejected: `Ln`/`Div`/`Sqrt` on
        // degenerate inputs legitimately occur mid-training (and are often
        // masked out downstream), but the *first* producer must stay
        // attributable so a poisoned-loss NaN can be traced to its origin
        // instead of surfacing as a mystery deep inside an attack loop.
        if self.first_nonfinite.is_none() && !value.all_finite() {
            self.first_nonfinite = Some((Var(self.nodes.len()), op.name()));
        }
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Every leaf on the tape — inputs, constants, and the masks, seeds and
    /// zero gradients that differentiation records — in tape order. Asking
    /// [`Graph::grad`] for all of them marks every node as needed, so the
    /// call builds the VJP toward every operand: the reference that tests
    /// hold the demand-driven backward pass against.
    pub fn leaves(&self) -> Vec<Var> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Leaf))
            .map(|(i, _)| Var(i))
            .collect()
    }

    /// The first node whose value contains a NaN or ±Inf, with the producing
    /// op's name — `None` while every value on the tape is finite, so a
    /// non-finite loss can be traced to the op that produced it.
    pub fn first_nonfinite(&self) -> Option<(Var, &'static str)> {
        self.first_nonfinite
    }

    /// Value of a node (eagerly computed at creation time).
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    // ---- leaves -----------------------------------------------------------

    /// Registers a constant/input leaf.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Convenience scalar leaf.
    pub fn scalar(&mut self, value: f32) -> Var {
        self.leaf(Matrix::scalar(value))
    }

    /// A leaf of zeros with the same shape as `like`.
    pub fn zeros_like(&mut self, like: Var) -> Var {
        let (r, c) = self.shape(like);
        self.leaf(Matrix::zeros(r, c))
    }

    // ---- elementwise binary ----------------------------------------------

    /// Elementwise sum of equal-shaped operands.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.add_elems(&self.nodes[b.0].value);
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise difference of equal-shaped operands.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.sub_elems(&self.nodes[b.0].value);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise product of equal-shaped operands.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.mul_elems(&self.nodes[b.0].value);
        self.push(Op::Mul(a, b), v)
    }

    /// Elementwise quotient of equal-shaped operands.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x / y);
        self.push(Op::Div(a, b), v)
    }

    /// Elementwise maximum of equal-shaped operands.
    pub fn maximum(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.zip(&self.nodes[b.0].value, f32::max);
        self.push(Op::Maximum(a, b), v)
    }

    /// Elementwise minimum of equal-shaped operands.
    pub fn minimum(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.zip(&self.nodes[b.0].value, f32::min);
        self.push(Op::Minimum(a, b), v)
    }

    // ---- elementwise unary -------------------------------------------------

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| -x);
        self.push(Op::Neg(a), v)
    }

    /// Adds a scalar constant to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.nodes[a.0].value.add_scalar(c);
        self.push(Op::AddScalar(a), v)
    }

    /// Multiplies every element by a scalar constant.
    pub fn mul_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.nodes[a.0].value.mul_scalar(c);
        self.push(Op::MulScalar(a, c), v)
    }

    /// Raises every element to a constant power.
    pub fn pow_scalar(&mut self, a: Var, p: f32) -> Var {
        let v = self.nodes[a.0].value.pow_scalar(p);
        self.push(Op::PowScalar(a, p), v)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sigmoid();
        self.push(Op::Sigmoid(a), v)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.tanh();
        self.push(Op::Tanh(a), v)
    }

    /// Elementwise rectifier.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.relu();
        self.push(Op::Relu(a), v)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::exp);
        self.push(Op::Exp(a), v)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::ln);
        self.push(Op::Ln(a), v)
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::sqrt);
        self.push(Op::Sqrt(a), v)
    }

    /// Elementwise absolute value. Its VJP uses `sign(x)` with `+1` at 0
    /// (the gradient at 0 routes as if `x > 0`).
    pub fn abs(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::abs);
        self.push(Op::Abs(a), v)
    }

    // ---- linear algebra ----------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(Op::MatMul(a, b), v)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transpose();
        self.push(Op::Transpose(a), v)
    }

    // ---- reductions & broadcasts -------------------------------------------

    /// Sum of all elements, producing a `1×1` scalar node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.nodes[a.0].value.sum());
        self.push(Op::SumAll(a), v)
    }

    /// Mean of all elements, producing a `1×1` scalar node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.nodes[a.0].value.mean());
        self.push(Op::MeanAll(a), v)
    }

    /// Column sums: `n×d → 1×d`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum_rows();
        self.push(Op::SumRows(a), v)
    }

    /// Column means: `n×d → 1×d`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let m = &self.nodes[a.0].value;
        let n = m.rows() as f32;
        let mut v = m.sum_rows();
        for x in v.data_mut() {
            *x /= n;
        }
        self.push(Op::MeanRows(a), v)
    }

    /// Stacks a `1×d` row `n` times into `n×d`.
    pub fn repeat_rows(&mut self, a: Var, n: usize) -> Var {
        let v = self.nodes[a.0].value.repeat_rows(n);
        self.push(Op::RepeatRows(a), v)
    }

    /// Broadcasts a `1×1` scalar node to an `r×c` matrix.
    pub fn broadcast_scalar(&mut self, a: Var, r: usize, c: usize) -> Var {
        let s = self.nodes[a.0].value.as_scalar();
        self.push(Op::BroadcastScalar(a), Matrix::full(r, c, s))
    }

    /// Adds a `1×d` row vector to every row of an `n×d` matrix.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let out = self.nodes[a.0]
            .value
            .clone()
            .add_row(&self.nodes[row.0].value);
        self.push(Op::AddRow(a, row), out)
    }

    /// Multiplies every row of an `n×d` matrix by a `1×d` row vector.
    pub fn mul_row(&mut self, a: Var, row: Var) -> Var {
        let m = &self.nodes[a.0].value;
        let r = &self.nodes[row.0].value;
        assert_eq!(r.rows(), 1, "mul_row rhs must be 1xN");
        assert_eq!(m.cols(), r.cols(), "mul_row dim mismatch");
        let mut out = m.clone();
        for i in 0..out.rows() {
            let base = i * out.cols();
            for j in 0..out.cols() {
                out.data_mut()[base + j] *= r.data()[j];
            }
        }
        self.push(Op::MulRow(a, row), out)
    }

    /// Multiplies every column of an `n×d` matrix by an `n×1` column vector.
    pub fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let out = self.nodes[a.0]
            .value
            .clone()
            .mul_col(&self.nodes[col.0].value);
        self.push(Op::MulCol(a, col), out)
    }

    /// Row sums: `n×d → n×1`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum_cols();
        self.push(Op::SumCols(a), v)
    }

    /// Stacks an `n×1` column `d` times into `n×d`.
    pub fn repeat_cols(&mut self, a: Var, d: usize) -> Var {
        let v = self.nodes[a.0].value.repeat_cols(d);
        self.push(Op::RepeatCols(a), v)
    }

    // ---- structural ----------------------------------------------------------

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let mats: Vec<&Matrix> = parts.iter().map(|p| &self.nodes[p.0].value).collect();
        let v = Matrix::concat_cols(&mats);
        self.push(Op::ConcatCols(parts.to_vec()), v)
    }

    /// Vertical concatenation.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let mats: Vec<&Matrix> = parts.iter().map(|p| &self.nodes[p.0].value).collect();
        let v = Matrix::concat_rows(&mats);
        self.push(Op::ConcatRows(parts.to_vec()), v)
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.nodes[a.0].value.slice_cols(start, end);
        self.push(Op::SliceCols(a, start, end), v)
    }

    /// Copy of rows `[start, end)`.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.nodes[a.0].value.slice_rows(start, end);
        self.push(Op::SliceRows(a, start, end), v)
    }

    /// The rows of `a` at `idx`, in that order. `idx` may be empty.
    ///
    /// # Panics
    /// Panics when an index repeats or is out of range.
    pub fn gather_rows(&mut self, a: Var, idx: &[usize]) -> Var {
        let m = &self.nodes[a.0].value;
        let (v, n) = (m.gather_rows(idx), m.rows());
        let rows = RowIndex {
            idx: idx.to_vec(),
            n,
        };
        self.push(Op::GatherRows(a, Box::new(rows)), v)
    }

    /// An `n`-row matrix of `+0.0` whose row `idx[k]` is row `k` of `a`.
    ///
    /// # Panics
    /// Panics unless `idx` has one distinct in-range index per row of `a`.
    pub fn scatter_rows(&mut self, a: Var, idx: &[usize], n: usize) -> Var {
        let v = self.nodes[a.0].value.scatter_rows(idx, n);
        let rows = RowIndex {
            idx: idx.to_vec(),
            n,
        };
        self.push(Op::ScatterRows(a, Box::new(rows)), v)
    }

    pub(crate) fn op(&self, v: Var) -> &Op {
        &self.nodes[v.0].op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_values() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::row(&[1.0, 2.0]));
        let b = g.leaf(Matrix::row(&[3.0, 4.0]));
        let c = g.add(a, b);
        assert_eq!(g.value(c).data(), &[4.0, 6.0]);
        let d = g.mul(c, c);
        assert_eq!(g.value(d).data(), &[16.0, 36.0]);
        let s = g.sum_all(d);
        assert_eq!(g.value(s).as_scalar(), 52.0);
    }

    #[test]
    fn add_row_broadcasts() {
        let mut g = Graph::new();
        let m = g.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = g.leaf(Matrix::row(&[10., 20.]));
        let out = g.add_row(m, b);
        assert_eq!(g.value(out).data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn mul_row_broadcasts() {
        let mut g = Graph::new();
        let m = g.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = g.leaf(Matrix::row(&[10., 0.]));
        let out = g.mul_row(m, b);
        assert_eq!(g.value(out).data(), &[10., 0., 30., 0.]);
    }

    /// Every node holds an `Op`, and the tapes of the attack's unroll hold
    /// thousands: an op's operands stay inline only while they are small.
    #[test]
    fn ops_stay_four_words() {
        assert!(size_of::<Op>() <= 32, "Op is {} bytes", size_of::<Op>());
    }

    #[test]
    fn broadcast_scalar_fills() {
        let mut g = Graph::new();
        let s = g.scalar(2.5);
        let m = g.broadcast_scalar(s, 2, 3);
        assert_eq!(g.shape(m), (2, 3));
        assert!(g.value(m).data().iter().all(|&x| x == 2.5));
    }
}
