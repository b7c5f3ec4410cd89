//! Reverse-mode differentiation, in two passes over one walk.
//!
//! [`Graph::grad`] walks the tape in reverse topological order and *appends*
//! the gradient computation to the same tape: every vector-Jacobian product
//! is built out of the graph's own primitive ops. The returned gradients are
//! therefore ordinary [`Var`]s and can participate in further computation —
//! including being differentiated again, which is how the PACE bivariate
//! optimization obtains hypergradients through unrolled model updates.
//!
//! [`Graph::grad_values`] is the first-order twin for callers that only read
//! the gradients: the same walk, with each VJP applied directly to values and
//! nothing appended. It is bit-identical to `grad` by construction, up to a
//! NaN's sign and payload — every piece is the same per-element op sequence
//! the recorded nodes would run, added into its accumulator in the same
//! order.
//!
//! Both walks are demand-driven: only nodes on a path from a requested var to
//! the output are visited, and only VJP pieces toward such nodes are built.

use std::collections::HashMap;

use crate::graph::{Graph, Op, Var};
use crate::matrix::Matrix;

/// The operands of an op, read without allocating: unary and binary ops
/// carry theirs inline, concatenations borrow their part list. Derefs to
/// `[Var]` and iterates by value.
pub(crate) enum Operands<'a> {
    Inline([Var; 2], usize),
    Parts(&'a [Var]),
}

impl std::ops::Deref for Operands<'_> {
    type Target = [Var];

    fn deref(&self) -> &[Var] {
        match self {
            Operands::Inline(vars, n) => &vars[..*n],
            Operands::Parts(parts) => parts,
        }
    }
}

impl<'a> IntoIterator for Operands<'a> {
    type Item = Var;
    type IntoIter = OperandIter<'a>;

    fn into_iter(self) -> OperandIter<'a> {
        OperandIter { ops: self, next: 0 }
    }
}

/// By-value iterator over [`Operands`].
pub(crate) struct OperandIter<'a> {
    ops: Operands<'a>,
    next: usize,
}

impl Iterator for OperandIter<'_> {
    type Item = Var;

    fn next(&mut self) -> Option<Var> {
        let v = self.ops.get(self.next).copied();
        self.next += 1;
        v
    }
}

pub(crate) fn op_inputs(op: &Op) -> Operands<'_> {
    match op {
        Op::Leaf => Operands::Inline([Var(0); 2], 0),
        Op::Add(a, b)
        | Op::Sub(a, b)
        | Op::Mul(a, b)
        | Op::Div(a, b)
        | Op::Maximum(a, b)
        | Op::Minimum(a, b)
        | Op::MatMul(a, b)
        | Op::AddRow(a, b)
        | Op::MulRow(a, b)
        | Op::MulCol(a, b) => Operands::Inline([*a, *b], 2),
        Op::Neg(a)
        | Op::AddScalar(a)
        | Op::MulScalar(a, _)
        | Op::PowScalar(a, _)
        | Op::Transpose(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Relu(a)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Sqrt(a)
        | Op::Abs(a)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::SumRows(a)
        | Op::MeanRows(a)
        | Op::RepeatRows(a)
        | Op::SumCols(a)
        | Op::RepeatCols(a)
        | Op::BroadcastScalar(a)
        | Op::SliceCols(a, _, _)
        | Op::SliceRows(a, _, _)
        | Op::GatherRows(a, _)
        | Op::ScatterRows(a, _) => Operands::Inline([*a, *a], 1),
        Op::ConcatCols(parts) | Op::ConcatRows(parts) => Operands::Parts(parts),
    }
}

/// Gradient accumulators of one backward pass, indexed by node.
type Grads = Vec<Option<Var>>;

impl Graph {
    /// Gradients of a scalar `output` with respect to each var in `wrt`.
    ///
    /// The gradients are new graph nodes (double-backward capable). Vars in
    /// `wrt` that `output` does not depend on receive zero gradients of the
    /// appropriate shape.
    ///
    /// # Panics
    /// Panics when `output` is not a `1×1` scalar node; use
    /// [`Graph::grad_seeded`] for matrix-valued outputs.
    pub fn grad(&mut self, output: Var, wrt: &[Var]) -> Vec<Var> {
        assert_eq!(
            self.shape(output),
            (1, 1),
            "grad requires a scalar output; got {:?}. Use grad_seeded.",
            self.shape(output)
        );
        let seed = self.leaf(Matrix::scalar(1.0));
        self.grad_seeded(output, seed, wrt)
    }

    /// Vector-Jacobian product: gradients of `sum(output ⊙ seed)` w.r.t. `wrt`.
    ///
    /// The pass is demand-driven: it only builds gradient pieces toward
    /// nodes that lie on a path from some var in `wrt` to `output`. Pieces
    /// toward every other operand (data batches, labels, masks, constants)
    /// could never reach a requested gradient, so they are not appended.
    /// Every piece that is built comes from the same ops, accumulated in the
    /// same reverse-topological order, as in a pass that differentiates
    /// toward all operands, so the returned values do not depend on `wrt`
    /// beyond which entries are read.
    ///
    /// # Panics
    /// Panics when `seed` and `output` shapes differ.
    pub fn grad_seeded(&mut self, output: Var, seed: Var, wrt: &[Var]) -> Vec<Var> {
        assert_eq!(
            self.shape(output),
            self.shape(seed),
            "grad seed shape {:?} does not match output shape {:?}",
            self.shape(seed),
            self.shape(output)
        );
        let appended_from = self.len();
        let need = self.demand(output, wrt);
        let order = self.reverse_topo(output, &need);
        let mut grads: Grads = vec![None; output.0 + 1];
        grads[output.0] = Some(seed);

        for node in order {
            let Some(g) = grads[node.0] else {
                continue;
            };
            let op = self.op(node).clone();
            self.accumulate_vjp(&op, node, g, &need, &mut grads);
        }

        let out = wrt
            .iter()
            .map(|w| {
                grads
                    .get(w.0)
                    .copied()
                    .flatten()
                    .unwrap_or_else(|| self.zeros_like(*w))
            })
            .collect();
        pace_trace::GRAD_NODES.add((self.len() - appended_from) as u64);
        out
    }

    /// `need[i]` for every node up to `output`: node `i` is in `wrt` or has
    /// an operand that is needed, i.e. a gradient arriving at `i` can flow
    /// on to a requested var. One forward sweep suffices because operands
    /// always precede their consumers on the tape.
    fn demand(&self, output: Var, wrt: &[Var]) -> Vec<bool> {
        let mut need = vec![false; output.0 + 1];
        let mut lo = need.len();
        for w in wrt {
            if let Some(slot) = need.get_mut(w.0) {
                *slot = true;
                lo = lo.min(w.0);
            }
        }
        for i in lo..need.len() {
            if !need[i] {
                need[i] = op_inputs(self.op(Var(i))).iter().any(|inp| need[inp.0]);
            }
        }
        need
    }

    /// Post-order DFS from `output` over needed nodes, reversed: each node
    /// precedes its inputs. Unneeded subgraphs hold no needed node, so
    /// skipping them leaves the relative order of the needed ones exactly
    /// as a walk over the whole graph would produce it.
    fn reverse_topo(&self, output: Var, need: &[bool]) -> Vec<Var> {
        if !need[output.0] {
            return Vec::new();
        }
        let mut visited = vec![false; need.len()];
        let mut post = Vec::new();
        // (node, inputs_expanded) explicit stack to avoid recursion depth limits.
        let mut stack = vec![(output, false)];
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                post.push(v);
                continue;
            }
            if visited[v.0] {
                continue;
            }
            visited[v.0] = true;
            stack.push((v, true));
            for inp in op_inputs(self.op(v)) {
                if need[inp.0] && !visited[inp.0] {
                    stack.push((inp, false));
                }
            }
        }
        post.reverse();
        post
    }

    fn add_grad(&mut self, grads: &mut Grads, target: Var, piece: Var) {
        grads[target.0] = Some(match grads[target.0] {
            Some(existing) => self.add(existing, piece),
            None => piece,
        });
    }

    /// Leaf holding 1.0 where `pred(value)` and 0.0 elsewhere; treated as a
    /// constant by further differentiation (the a.e.-correct sub-gradient).
    fn mask_leaf(&mut self, of: Var, pred: impl Fn(f32) -> bool + Sync) -> Var {
        let m = self.value(of).map(|x| if pred(x) { 1.0 } else { 0.0 });
        self.leaf(m)
    }

    /// Adds `node`'s VJP pieces (`g` is its accumulated gradient) into the
    /// accumulators of its operands, building only the pieces whose target
    /// is needed.
    ///
    /// This and [`Graph::vjp_values`] deny both wildcard lints, so a new
    /// `Op` cannot fall through a `_` arm in either table:
    /// `wildcard_enum_match_arm` alone stays silent when the `_` covers a
    /// single variant, which is what one new `Op` would be.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn accumulate_vjp(&mut self, op: &Op, node: Var, g: Var, need: &[bool], grads: &mut Grads) {
        // Unary ops (and leaves) have nothing to build unless their single
        // operand is needed; multi-operand arms check each side below.
        if !op_inputs(op).iter().any(|inp| need[inp.0]) {
            return;
        }
        match *op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                if need[a.0] {
                    self.add_grad(grads, a, g);
                }
                if need[b.0] {
                    self.add_grad(grads, b, g);
                }
            }
            Op::Sub(a, b) => {
                if need[a.0] {
                    self.add_grad(grads, a, g);
                }
                if need[b.0] {
                    let nb = self.neg(g);
                    self.add_grad(grads, b, nb);
                }
            }
            Op::Mul(a, b) => {
                if need[a.0] {
                    let ga = self.mul(g, b);
                    self.add_grad(grads, a, ga);
                }
                if need[b.0] {
                    let gb = self.mul(g, a);
                    self.add_grad(grads, b, gb);
                }
            }
            Op::Div(a, b) => {
                if need[a.0] {
                    let ga = self.div(g, b);
                    self.add_grad(grads, a, ga);
                }
                if need[b.0] {
                    // d/db (a/b) = -a / b^2
                    let b2 = self.mul(b, b);
                    let num = self.mul(g, a);
                    let frac = self.div(num, b2);
                    let gb = self.neg(frac);
                    self.add_grad(grads, b, gb);
                }
            }
            Op::Neg(a) => {
                let ga = self.neg(g);
                self.add_grad(grads, a, ga);
            }
            Op::AddScalar(a) => self.add_grad(grads, a, g),
            Op::MulScalar(a, c) => {
                let ga = self.mul_scalar(g, c);
                self.add_grad(grads, a, ga);
            }
            Op::PowScalar(a, p) => {
                // d/da a^p = p * a^(p-1)
                let am1 = self.pow_scalar(a, p - 1.0);
                let scaled = self.mul_scalar(am1, p);
                let ga = self.mul(g, scaled);
                self.add_grad(grads, a, ga);
            }
            Op::MatMul(a, b) => {
                if need[a.0] {
                    let bt = self.transpose(b);
                    let ga = self.matmul(g, bt);
                    self.add_grad(grads, a, ga);
                }
                if need[b.0] {
                    let at = self.transpose(a);
                    let gb = self.matmul(at, g);
                    self.add_grad(grads, b, gb);
                }
            }
            Op::Transpose(a) => {
                let ga = self.transpose(g);
                self.add_grad(grads, a, ga);
            }
            Op::Sigmoid(a) => {
                // y' = y (1 - y), expressed via the output node itself.
                let ny = self.neg(node);
                let one_minus = self.add_scalar(ny, 1.0);
                let dy = self.mul(node, one_minus);
                let ga = self.mul(g, dy);
                self.add_grad(grads, a, ga);
            }
            Op::Tanh(a) => {
                let y2 = self.mul(node, node);
                let ny2 = self.neg(y2);
                let dy = self.add_scalar(ny2, 1.0);
                let ga = self.mul(g, dy);
                self.add_grad(grads, a, ga);
            }
            Op::Relu(a) => {
                let mask = self.mask_leaf(a, |x| x > 0.0);
                let ga = self.mul(g, mask);
                self.add_grad(grads, a, ga);
            }
            Op::Exp(a) => {
                let ga = self.mul(g, node);
                self.add_grad(grads, a, ga);
            }
            Op::Ln(a) => {
                let ga = self.div(g, a);
                self.add_grad(grads, a, ga);
            }
            Op::Sqrt(a) => {
                // d sqrt = 1 / (2 sqrt(a)) = 0.5 / y
                let half = self.mul_scalar(g, 0.5);
                let ga = self.div(half, node);
                self.add_grad(grads, a, ga);
            }
            Op::Abs(a) => {
                let sign = {
                    let m = self.value(a).map(|x| if x >= 0.0 { 1.0 } else { -1.0 });
                    self.leaf(m)
                };
                let ga = self.mul(g, sign);
                self.add_grad(grads, a, ga);
            }
            // Ties route the gradient to `a` (consistent with value picking).
            Op::Maximum(a, b) => self.select_vjp(a, b, g, need, grads, |x, y| x >= y),
            Op::Minimum(a, b) => self.select_vjp(a, b, g, need, grads, |x, y| x <= y),
            Op::SumAll(a) => {
                let (r, c) = self.shape(a);
                let ga = self.broadcast_scalar(g, r, c);
                self.add_grad(grads, a, ga);
            }
            Op::MeanAll(a) => {
                let (r, c) = self.shape(a);
                let b = self.broadcast_scalar(g, r, c);
                let ga = self.mul_scalar(b, 1.0 / (r * c) as f32);
                self.add_grad(grads, a, ga);
            }
            Op::SumRows(a) => {
                let n = self.shape(a).0;
                let ga = self.repeat_rows(g, n);
                self.add_grad(grads, a, ga);
            }
            Op::MeanRows(a) => {
                let n = self.shape(a).0;
                let rep = self.repeat_rows(g, n);
                let ga = self.mul_scalar(rep, 1.0 / n as f32);
                self.add_grad(grads, a, ga);
            }
            Op::RepeatRows(a) => {
                let ga = self.sum_rows(g);
                self.add_grad(grads, a, ga);
            }
            Op::BroadcastScalar(a) => {
                let ga = self.sum_all(g);
                self.add_grad(grads, a, ga);
            }
            Op::AddRow(a, row) => {
                if need[a.0] {
                    self.add_grad(grads, a, g);
                }
                if need[row.0] {
                    let gr = self.sum_rows(g);
                    self.add_grad(grads, row, gr);
                }
            }
            Op::MulRow(a, row) => {
                if need[a.0] {
                    let n = self.shape(a).0;
                    let rep = self.repeat_rows(row, n);
                    let ga = self.mul(g, rep);
                    self.add_grad(grads, a, ga);
                }
                if need[row.0] {
                    let prod = self.mul(g, a);
                    let gr = self.sum_rows(prod);
                    self.add_grad(grads, row, gr);
                }
            }
            Op::MulCol(a, col) => {
                if need[a.0] {
                    let d = self.shape(a).1;
                    let rep = self.repeat_cols(col, d);
                    let ga = self.mul(g, rep);
                    self.add_grad(grads, a, ga);
                }
                if need[col.0] {
                    let prod = self.mul(g, a);
                    let gc = self.sum_cols(prod);
                    self.add_grad(grads, col, gc);
                }
            }
            Op::SumCols(a) => {
                let d = self.shape(a).1;
                let ga = self.repeat_cols(g, d);
                self.add_grad(grads, a, ga);
            }
            Op::RepeatCols(a) => {
                let ga = self.sum_cols(g);
                self.add_grad(grads, a, ga);
            }
            Op::ConcatCols(ref parts) => {
                let mut start = 0;
                for &p in parts {
                    let w = self.shape(p).1;
                    if need[p.0] {
                        let gp = self.slice_cols(g, start, start + w);
                        self.add_grad(grads, p, gp);
                    }
                    start += w;
                }
            }
            Op::ConcatRows(ref parts) => {
                let mut start = 0;
                for &p in parts {
                    let h = self.shape(p).0;
                    if need[p.0] {
                        let gp = self.slice_rows(g, start, start + h);
                        self.add_grad(grads, p, gp);
                    }
                    start += h;
                }
            }
            Op::SliceCols(a, start, end) => {
                // Pad the gradient back into the input's column span.
                let (r, c) = self.shape(a);
                let mut parts = Vec::with_capacity(3);
                if start > 0 {
                    parts.push(self.leaf(Matrix::zeros(r, start)));
                }
                parts.push(g);
                if end < c {
                    parts.push(self.leaf(Matrix::zeros(r, c - end)));
                }
                let ga = if parts.len() == 1 {
                    parts[0]
                } else {
                    self.concat_cols(&parts)
                };
                self.add_grad(grads, a, ga);
            }
            Op::SliceRows(a, start, end) => {
                let (r, c) = self.shape(a);
                let mut parts = Vec::with_capacity(3);
                if start > 0 {
                    parts.push(self.leaf(Matrix::zeros(start, c)));
                }
                parts.push(g);
                if end < r {
                    parts.push(self.leaf(Matrix::zeros(r - end, c)));
                }
                let ga = if parts.len() == 1 {
                    parts[0]
                } else {
                    self.concat_rows(&parts)
                };
                self.add_grad(grads, a, ga);
            }
            Op::GatherRows(a, ref rows) => {
                let ga = self.scatter_rows(g, &rows.idx, rows.n);
                self.add_grad(grads, a, ga);
            }
            Op::ScatterRows(a, ref rows) => {
                let ga = self.gather_rows(g, &rows.idx);
                self.add_grad(grads, a, ga);
            }
        }
    }

    /// VJP of an elementwise select (`Maximum`/`Minimum`): the gradient goes
    /// to `a` where `pick_a(a, b)` holds and to `b` elsewhere. The `1 − mask`
    /// complement is only built when `b` is needed.
    fn select_vjp(
        &mut self,
        a: Var,
        b: Var,
        g: Var,
        need: &[bool],
        grads: &mut Grads,
        pick_a: impl Fn(f32, f32) -> bool + Sync,
    ) {
        let mask_a = {
            let va = self.value(a).clone();
            let m = va.zip(self.value(b), |x, y| if pick_a(x, y) { 1.0 } else { 0.0 });
            self.leaf(m)
        };
        if need[a.0] {
            let ga = self.mul(g, mask_a);
            self.add_grad(grads, a, ga);
        }
        if need[b.0] {
            let (r, c) = self.shape(mask_a);
            let ones = self.leaf(Matrix::ones(r, c));
            let mask_b = self.sub(ones, mask_a);
            let gb = self.mul(g, mask_b);
            self.add_grad(grads, b, gb);
        }
    }
}

/// Gradient values of one [`Graph::grad_values`] pass, indexed by node.
type GradValues = Vec<Option<Matrix>>;

/// Adds `piece` into `target`'s accumulator as `acc = acc + piece`, element
/// by element — the operand order and the per-element op of the `Add` node
/// [`Graph::grad`] appends for the same accumulation.
fn accumulate(grads: &mut GradValues, target: Var, piece: Matrix) {
    match &mut grads[target.0] {
        Some(acc) => {
            assert_eq!(acc.shape(), piece.shape(), "gradient shape mismatch");
            for (a, &p) in acc.data_mut().iter_mut().zip(piece.data()) {
                *a += p;
            }
        }
        slot @ None => *slot = Some(piece),
    }
}

/// Transposed operand values of one value pass. An operand several matmul
/// VJPs read — a recurrent weight, once per time step — is transposed once
/// and kept until its last read; a transpose is a position copy, so reuse
/// changes no bit.
struct Transposes {
    /// Matmul VJPs still to read each node's transpose.
    reads: Vec<u32>,
    cache: HashMap<usize, Matrix>,
}

impl Transposes {
    /// Counts, over the nodes the pass will visit, every matmul VJP that
    /// reads an operand's transpose.
    fn plan(g: &Graph, order: &[Var], need: &[bool]) -> Self {
        let mut reads = vec![0u32; need.len()];
        for &node in order {
            if let Op::MatMul(a, b) = *g.op(node) {
                if need[a.0] {
                    reads[b.0] += 1;
                }
                if need[b.0] {
                    reads[a.0] += 1;
                }
            }
        }
        Self {
            reads,
            cache: HashMap::new(),
        }
    }

    /// Calls `f` with `v`'s transposed value.
    fn with<R>(&mut self, g: &Graph, v: Var, f: impl FnOnce(&Matrix) -> R) -> R {
        let left = &mut self.reads[v.0];
        *left = left.saturating_sub(1);
        if *left == 0 {
            match self.cache.remove(&v.0) {
                Some(t) => f(&t),
                None => f(&g.value(v).transpose()),
            }
        } else {
            f(self
                .cache
                .entry(v.0)
                .or_insert_with(|| g.value(v).transpose()))
        }
    }
}

impl Graph {
    /// Values of the gradients of a scalar `output` with respect to each var
    /// in `wrt`, computed without appending a node.
    ///
    /// The pass visits the nodes [`Graph::grad`] would visit, in the same
    /// order, and applies each VJP to values: every piece is the per-element
    /// op sequence of the nodes `grad` would record for it, and pieces are
    /// added into their accumulators in the same order, so each returned
    /// matrix is bit-identical to the value of `grad`'s matching var. The
    /// one exception is a NaN's sign and payload, which Rust leaves
    /// unspecified for arithmetic: with a VJP's op chain in one loop, the
    /// compiler may rewrite `−t + 1` as `1 − t`. A node's gradient is
    /// dropped once its VJP has run, unless the node is in `wrt`. Vars in
    /// `wrt` that `output` does not depend on receive zeros.
    ///
    /// Use it wherever the gradient is only read (optimizer steps); use
    /// `grad` when the gradient is itself differentiated again.
    ///
    /// # Panics
    /// Panics when `output` is not a `1×1` scalar node.
    pub fn grad_values(&self, output: Var, wrt: &[Var]) -> Vec<Matrix> {
        assert_eq!(
            self.shape(output),
            (1, 1),
            "grad_values requires a scalar output; got {:?}",
            self.shape(output)
        );
        let need = self.demand(output, wrt);
        let order = self.reverse_topo(output, &need);
        let mut keep = vec![false; need.len()];
        for w in wrt {
            if let Some(k) = keep.get_mut(w.0) {
                *k = true;
            }
        }
        let mut transposes = Transposes::plan(self, &order, &need);
        let mut grads: GradValues = vec![None; output.0 + 1];
        grads[output.0] = Some(Matrix::scalar(1.0));

        for node in order {
            let op = self.op(node);
            // A needed node without a needed operand is a requested var
            // (leaf or not): its gradient is final and stays for the caller.
            if !op_inputs(op).iter().any(|inp| need[inp.0]) {
                continue;
            }
            let g = if keep[node.0] {
                grads[node.0].clone()
            } else {
                grads[node.0].take()
            };
            if let Some(g) = g {
                self.vjp_values(op, node, g, &need, &mut grads, &mut transposes);
            }
        }

        wrt.iter()
            .enumerate()
            .map(|(i, w)| {
                let slot = grads.get_mut(w.0);
                let value = if wrt[i + 1..].contains(w) {
                    slot.and_then(|s| s.clone())
                } else {
                    slot.and_then(Option::take)
                };
                value.unwrap_or_else(|| {
                    let (r, c) = self.shape(*w);
                    Matrix::zeros(r, c)
                })
            })
            .collect()
    }

    /// [`Graph::accumulate_vjp`] applied to values: adds `node`'s VJP pieces
    /// (`g` is its gradient) into the accumulators of its needed operands.
    /// Each arm forms, per element, the op chain the recorded arm appends —
    /// in the same order, so the bits agree — without the intermediate
    /// nodes, masks and padding leaves.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn vjp_values(
        &self,
        op: &Op,
        node: Var,
        g: Matrix,
        need: &[bool],
        grads: &mut GradValues,
        transposes: &mut Transposes,
    ) {
        let y = self.value(node);
        match *op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                if need[a.0] && need[b.0] {
                    accumulate(grads, a, g.clone());
                    accumulate(grads, b, g);
                } else if need[a.0] {
                    accumulate(grads, a, g);
                } else {
                    accumulate(grads, b, g);
                }
            }
            Op::Sub(a, b) => {
                if need[a.0] {
                    let gb = need[b.0].then(|| g.map(|x| -x));
                    accumulate(grads, a, g);
                    if let Some(gb) = gb {
                        accumulate(grads, b, gb);
                    }
                } else {
                    accumulate(grads, b, g.map(|x| -x));
                }
            }
            Op::Mul(a, b) => {
                if need[a.0] {
                    accumulate(grads, a, g.mul_elems(self.value(b)));
                }
                if need[b.0] {
                    accumulate(grads, b, g.mul_elems(self.value(a)));
                }
            }
            Op::Div(a, b) => {
                if need[a.0] {
                    accumulate(grads, a, g.zip(self.value(b), |g, b| g / b));
                }
                if need[b.0] {
                    // −((g·a) / (b·b)), as the recorded nodes compute it.
                    let num = g.mul_elems(self.value(a));
                    accumulate(grads, b, num.zip(self.value(b), |n, b| -(n / (b * b))));
                }
            }
            Op::Neg(a) => accumulate(grads, a, g.map(|x| -x)),
            Op::AddScalar(a) => accumulate(grads, a, g),
            Op::MulScalar(a, c) => accumulate(grads, a, g.mul_scalar(c)),
            Op::PowScalar(a, p) => {
                let ga = g.zip(self.value(a), |g, x| g * (x.powf(p - 1.0) * p));
                accumulate(grads, a, ga);
            }
            Op::MatMul(a, b) => {
                if need[a.0] {
                    let ga = transposes.with(self, b, |bt| g.matmul(bt));
                    accumulate(grads, a, ga);
                }
                if need[b.0] {
                    let gb = transposes.with(self, a, |at| at.matmul(&g));
                    accumulate(grads, b, gb);
                }
            }
            Op::Transpose(a) => accumulate(grads, a, g.transpose()),
            Op::Sigmoid(a) => accumulate(grads, a, g.zip(y, |g, y| g * (y * (-y + 1.0)))),
            Op::Tanh(a) => accumulate(grads, a, g.zip(y, |g, y| g * (-(y * y) + 1.0))),
            Op::Relu(a) => {
                let ga = g.zip(self.value(a), |g, x| g * if x > 0.0 { 1.0 } else { 0.0 });
                accumulate(grads, a, ga);
            }
            Op::Exp(a) => accumulate(grads, a, g.mul_elems(y)),
            Op::Ln(a) => accumulate(grads, a, g.zip(self.value(a), |g, x| g / x)),
            Op::Sqrt(a) => accumulate(grads, a, g.zip(y, |g, y| (g * 0.5) / y)),
            Op::Abs(a) => {
                let ga = g.zip(self.value(a), |g, x| g * if x >= 0.0 { 1.0 } else { -1.0 });
                accumulate(grads, a, ga);
            }
            Op::Maximum(a, b) => self.select_values(a, b, &g, need, grads, |x, y| x >= y),
            Op::Minimum(a, b) => self.select_values(a, b, &g, need, grads, |x, y| x <= y),
            Op::SumAll(a) => {
                let (r, c) = self.shape(a);
                accumulate(grads, a, Matrix::full(r, c, g.as_scalar()));
            }
            Op::MeanAll(a) => {
                let (r, c) = self.shape(a);
                let scale = 1.0 / (r * c) as f32;
                accumulate(grads, a, Matrix::full(r, c, g.as_scalar() * scale));
            }
            Op::SumRows(a) => accumulate(grads, a, g.repeat_rows(self.shape(a).0)),
            Op::MeanRows(a) => {
                let n = self.shape(a).0;
                accumulate(grads, a, g.mul_scalar(1.0 / n as f32).repeat_rows(n));
            }
            Op::RepeatRows(a) => accumulate(grads, a, g.sum_rows()),
            Op::BroadcastScalar(a) => accumulate(grads, a, Matrix::scalar(g.sum())),
            Op::AddRow(a, row) => {
                if need[row.0] {
                    let gr = g.sum_rows();
                    if need[a.0] {
                        accumulate(grads, a, g);
                    }
                    accumulate(grads, row, gr);
                } else {
                    accumulate(grads, a, g);
                }
            }
            Op::MulRow(a, row) => {
                if need[a.0] {
                    let rep = self.value(row).repeat_rows(self.shape(a).0);
                    accumulate(grads, a, g.mul_elems(&rep));
                }
                if need[row.0] {
                    accumulate(grads, row, g.mul_elems(self.value(a)).sum_rows());
                }
            }
            Op::MulCol(a, col) => {
                let gc = need[col.0].then(|| g.mul_elems(self.value(a)).sum_cols());
                if need[a.0] {
                    accumulate(grads, a, g.mul_col(self.value(col)));
                }
                if let Some(gc) = gc {
                    accumulate(grads, col, gc);
                }
            }
            Op::SumCols(a) => accumulate(grads, a, g.repeat_cols(self.shape(a).1)),
            Op::RepeatCols(a) => accumulate(grads, a, g.sum_cols()),
            Op::ConcatCols(ref parts) => {
                let mut start = 0;
                for &p in parts {
                    let w = self.shape(p).1;
                    if need[p.0] {
                        accumulate(grads, p, g.slice_cols(start, start + w));
                    }
                    start += w;
                }
            }
            Op::ConcatRows(ref parts) => {
                let mut start = 0;
                for &p in parts {
                    let h = self.shape(p).0;
                    if need[p.0] {
                        accumulate(grads, p, g.slice_rows(start, start + h));
                    }
                    start += h;
                }
            }
            // The padding is `+0.0` and is still added: `−0.0 + +0.0` is
            // `+0.0`, so skipping it would change a `−0.0` accumulator.
            Op::SliceCols(a, start, end) => {
                let (r, c) = self.shape(a);
                let ga = if start == 0 && end == c {
                    g
                } else {
                    let (left, right) = (Matrix::zeros(r, start), Matrix::zeros(r, c - end));
                    Matrix::concat_cols(&[&left, &g, &right])
                };
                accumulate(grads, a, ga);
            }
            Op::SliceRows(a, start, end) => {
                let (r, c) = self.shape(a);
                let ga = if start == 0 && end == r {
                    g
                } else {
                    let (top, bottom) = (Matrix::zeros(start, c), Matrix::zeros(r - end, c));
                    Matrix::concat_rows(&[&top, &g, &bottom])
                };
                accumulate(grads, a, ga);
            }
            // Like the slices' padding, the `+0.0` rows are still added.
            Op::GatherRows(a, ref rows) => accumulate(grads, a, g.scatter_rows(&rows.idx, rows.n)),
            Op::ScatterRows(a, ref rows) => accumulate(grads, a, g.gather_rows(&rows.idx)),
        }
    }

    /// [`Graph::select_vjp`] applied to values: `g ⊙ m` toward `a` and
    /// `g ⊙ (1 − m)` toward `b`, where `m` is 1 where `pick_a(a, b)` holds.
    fn select_values(
        &self,
        a: Var,
        b: Var,
        g: &Matrix,
        need: &[bool],
        grads: &mut GradValues,
        pick_a: impl Fn(f32, f32) -> bool + Sync,
    ) {
        let mask_a = self
            .value(a)
            .zip(self.value(b), |x, y| if pick_a(x, y) { 1.0 } else { 0.0 });
        if need[a.0] {
            accumulate(grads, a, g.mul_elems(&mask_a));
        }
        if need[b.0] {
            accumulate(grads, b, g.zip(&mask_a, |g, m| g * (1.0 - m)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ops appended to `g` at or after node `from`.
    fn appended_ops(g: &Graph, from: usize) -> Vec<Op> {
        (from..g.len()).map(|i| g.op(Var(i)).clone()).collect()
    }

    #[test]
    fn matmul_grad_toward_weights_builds_no_data_side_piece() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let w = g.leaf(Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]));
        let y = g.matmul(x, w);
        let loss = g.sum_all(y);
        let before = g.len();
        let gw = g.grad(loss, &[w])[0];
        // Seed, broadcast of the seed, xᵀ, and xᵀ·g — nothing toward `x`.
        assert_eq!(g.len() - before, 4);
        for op in appended_ops(&g, before) {
            assert!(
                !matches!(op, Op::Transpose(t) if t == w),
                "built wᵀ for a gradient toward the data leaf"
            );
            assert!(
                !matches!(op, Op::MatMul(_, b) if matches!(g.op(b), Op::Transpose(_))),
                "built g·wᵀ for a gradient toward the data leaf"
            );
        }
        // d/dw sum(x·w) = xᵀ·1: column sums of x in every column.
        assert_eq!(g.value(gw).data(), &[9.0, 9.0, 12.0, 12.0]);
    }

    #[test]
    fn maximum_grad_toward_one_side_builds_no_complement_mask() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::row(&[1.0, -2.0, 3.0]));
        let c = g.leaf(Matrix::row(&[0.0, 0.0, 0.0]));
        let m = g.maximum(a, c);
        let loss = g.sum_all(m);
        let before = g.len();
        let ga = g.grad(loss, &[a])[0];
        // Seed, broadcast, the `a`-side mask, and g ⊙ mask.
        assert_eq!(g.len() - before, 4);
        assert!(
            appended_ops(&g, before)
                .iter()
                .all(|op| !matches!(op, Op::Sub(..))),
            "built the 1 − mask branch toward the constant side"
        );
        assert_eq!(g.value(ga).data(), &[1.0, 0.0, 1.0]);
    }

    #[test]
    fn both_sides_requested_still_builds_both_pieces() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let w = g.leaf(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let y = g.matmul(x, w);
        let loss = g.sum_all(y);
        let before = g.len();
        let grads = g.grad(loss, &[x, w]);
        // Seed, broadcast, then wᵀ, g·wᵀ, xᵀ, xᵀ·g.
        assert_eq!(g.len() - before, 6);
        assert_eq!(g.value(grads[0]).data(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(g.value(grads[1]).data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn value_pass_appends_nothing_and_zeros_unreachable_vars() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::row(&[1.0, -2.0]));
        let b = g.leaf(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let y = g.sigmoid(a);
        let loss = g.sum_all(y);
        let before = g.len();
        let values = g.grad_values(loss, &[b, a, a]);
        assert_eq!(g.len(), before, "the value pass appended nodes");
        assert_eq!(values[0], Matrix::zeros(2, 1));
        let reference = g.grad(loss, &[a])[0];
        for v in &values[1..] {
            let bits: Vec<u32> = v.data().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = g
                .value(reference)
                .data()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(bits, want);
        }
    }

    #[test]
    fn unreachable_wrt_gets_zeros_and_nothing_else() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::row(&[1.0, 2.0]));
        let b = g.leaf(Matrix::row(&[3.0, 4.0]));
        let y = g.mul(a, a);
        let loss = g.sum_all(y);
        let before = g.len();
        let gb = g.grad(loss, &[b])[0];
        // The seed and the zero gradient: no VJP of the tape is built.
        assert_eq!(g.len() - before, 2);
        assert_eq!(g.value(gb).data(), &[0.0, 0.0]);
    }
}
