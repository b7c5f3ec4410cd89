//! Static analysis of autograd tapes — the *graph auditor*.
//!
//! The whole PACE reproduction leans on one invariant of [`crate::Graph`]:
//! every op's VJP is expressed through the same op set, so gradients — and
//! gradients of gradients, the Eq. 10 hypergradient through `K` unrolled SGD
//! steps — always build. Violations of that invariant, operand-shape
//! inconsistencies, and numerical hazards otherwise surface only as panics or
//! silent NaNs deep inside attack loops. [`audit`] makes them visible *at the
//! graph*, with the offending node named:
//!
//! 1. **Shape inference** ([`inferred_shape`]): recomputes every node's
//!    result shape from its operands per op semantics and reports the first
//!    disagreement with the recorded value, including the op chain that led
//!    there.
//! 2. **Numerical hazards**: `Ln`/`Sqrt` on non-positive inputs, division by
//!    (near-)zero, fractional powers of negative bases, `Exp` overflow —
//!    the places a poisoned loss turns into NaN.
//! 3. **Gradient flow**: parameters in `wrt` the output does not depend on
//!    (they would silently receive zero hypergradient) and the number of
//!    tape nodes detached from the output.
//! 4. **Double-backward closure**: every op kind reachable from the output
//!    is symbolically differentiated twice on a scratch tape, asserting the
//!    grad-of-grad graph still builds.
//!
//! Auditing is opt-in at the workspace's graph-construction choke points
//! (model training steps, surrogate imitation, attack hypergradient
//! assembly): set `PACE_AUDIT=1` or call [`set_audit_enabled`]. A dirty
//! report is printed to stderr; [`AuditReport::assert_clean`] turns it into
//! a panic for tests.

use crate::grad::op_inputs;
use crate::graph::{Graph, Op, Var};
use crate::matrix::Matrix;
use std::collections::HashMap;

/// A node whose recorded shape (or operand shapes) contradict its op.
#[derive(Clone, Debug)]
pub struct ShapeIssue {
    /// Tape index of the offending node.
    pub node: usize,
    /// Name of the offending op.
    pub op: &'static str,
    /// What is inconsistent, with expected-vs-actual detail.
    pub message: String,
    /// The op chain from the offending node back toward its leaves
    /// (first-operand path), rendered as `n<i> <Op> <r>x<c>` entries.
    pub chain: Vec<String>,
}

/// The kinds of numerical hazard the auditor recognizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HazardKind {
    /// `Ln` applied to a value ≤ 0 (−Inf / NaN).
    LnNonPositive,
    /// `Sqrt` applied to a negative value (NaN).
    SqrtNegative,
    /// `Sqrt` applied to an exact zero — the value is fine but its VJP
    /// divides by `sqrt(0)`.
    SqrtZeroGradient,
    /// Division whose denominator contains zeros or near-zeros.
    DivByNearZero,
    /// Fractional power of a negative base (NaN).
    PowFractionalNegativeBase,
    /// Negative power of an exact zero (Inf).
    PowNegativeZeroBase,
    /// `Exp` of a value beyond f32 range (overflow to Inf).
    ExpOverflow,
}

/// A node whose current operand values sit in a numerically dangerous domain.
#[derive(Clone, Debug)]
pub struct Hazard {
    /// Tape index of the hazardous node.
    pub node: usize,
    /// Name of the hazardous op.
    pub op: &'static str,
    /// Hazard classification.
    pub kind: HazardKind,
    /// Human-readable specifics (offending extreme value, element counts).
    pub detail: String,
}

/// A `wrt` parameter the audited output does not depend on.
#[derive(Clone, Debug)]
pub struct NoGradParam {
    /// Position in the `wrt` slice passed to [`audit`].
    pub wrt_index: usize,
    /// Tape index of the parameter node.
    pub node: usize,
    /// Shape of the parameter.
    pub shape: (usize, usize),
}

/// A double-backward closure violation for one op kind.
#[derive(Clone, Debug)]
pub struct ClosureFailure {
    /// The op kind whose grad-of-grad graph failed to build.
    pub op: &'static str,
    /// The panic message (or shape mismatch) captured from the scratch tape.
    pub message: String,
}

/// Everything [`audit`] finds, plus tape-level statistics.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Caller-supplied label of the graph-construction site.
    pub context: String,
    /// Number of nodes on the tape.
    pub nodes: usize,
    /// Approximate tape memory (values + node overhead), in bytes.
    pub tape_bytes: usize,
    /// Node counts by op name, most frequent first.
    pub op_counts: Vec<(&'static str, usize)>,
    /// Shape-inference disagreements (empty on a healthy tape).
    pub shape_issues: Vec<ShapeIssue>,
    /// Numerical hazards found from current node values.
    pub hazards: Vec<Hazard>,
    /// `wrt` parameters with no path to the output.
    pub no_grad_params: Vec<NoGradParam>,
    /// Tape nodes the output does not depend on (informational — gradient
    /// tapes legitimately carry nodes for other outputs).
    pub detached_nodes: usize,
    /// Nodes whose stored value contains NaN/Inf.
    pub nonfinite_nodes: usize,
    /// First non-finite producer recorded by the graph, `(node, op)`.
    pub first_nonfinite: Option<(usize, &'static str)>,
    /// Op kinds whose double-backward scratch build failed.
    pub closure_failures: Vec<ClosureFailure>,
    /// Number of distinct op kinds reachable from the output that the
    /// closure audit exercised.
    pub closure_checked: usize,
}

impl AuditReport {
    /// True when no shape issue, hazard, missing gradient, non-finite value,
    /// or closure failure was found.
    pub fn is_clean(&self) -> bool {
        self.shape_issues.is_empty()
            && self.hazards.is_empty()
            && self.no_grad_params.is_empty()
            && self.closure_failures.is_empty()
            && self.first_nonfinite.is_none()
    }

    /// Panics with the rendered report when the audit is not clean.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "{}", self.render());
    }

    /// Renders the report as a human-readable multi-line string.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== tape audit: {} == {} nodes, ~{:.1} KiB, {} detached",
            self.context,
            self.nodes,
            self.tape_bytes as f64 / 1024.0,
            self.detached_nodes,
        );
        let top: Vec<String> = self
            .op_counts
            .iter()
            .take(10)
            .map(|(name, n)| format!("{name}\u{00d7}{n}"))
            .collect();
        let _ = writeln!(out, "   ops: {}", top.join(" "));
        if let Some((node, op)) = self.first_nonfinite {
            let _ = writeln!(
                out,
                "   FIRST NON-FINITE at n{node} ({op}); {} node(s) hold non-finite values",
                self.nonfinite_nodes
            );
        }
        for issue in &self.shape_issues {
            let _ = writeln!(
                out,
                "   SHAPE n{} {}: {}",
                issue.node, issue.op, issue.message
            );
            if !issue.chain.is_empty() {
                let _ = writeln!(out, "      chain: {}", issue.chain.join(" \u{2190} "));
            }
        }
        for h in &self.hazards {
            let _ = writeln!(
                out,
                "   HAZARD n{} {} ({:?}): {}",
                h.node, h.op, h.kind, h.detail
            );
        }
        for p in &self.no_grad_params {
            let _ = writeln!(
                out,
                "   NO-GRAD param wrt[{}] = n{} ({}x{}): output does not depend on it; \
                 its gradient will be silently zero",
                p.wrt_index, p.node, p.shape.0, p.shape.1
            );
        }
        for c in &self.closure_failures {
            let _ = writeln!(
                out,
                "   CLOSURE {}: double-backward graph failed to build: {}",
                c.op, c.message
            );
        }
        if self.closure_failures.is_empty() {
            let _ = writeln!(
                out,
                "   double-backward closure: OK for {} reachable op kind(s)",
                self.closure_checked
            );
        }
        out
    }
}

// ---- enablement -----------------------------------------------------------

/// Forces auditing on or off for this process, overriding `PACE_AUDIT`.
pub fn set_audit_enabled(enabled: bool) {
    crate::flags::AUDIT.set(if enabled {
        crate::flags::FlagMode::On
    } else {
        crate::flags::FlagMode::Off
    });
}

/// True when tape auditing is enabled (via [`set_audit_enabled`] or the
/// `PACE_AUDIT` environment variable — see [`crate::flags`] for the shared
/// `0/1/strict` grammar).
pub fn audit_enabled() -> bool {
    crate::flags::AUDIT.enabled()
}

/// Runs [`audit`] when auditing is enabled; prints a dirty report to stderr
/// (and panics on one under `PACE_AUDIT=strict`).
///
/// This is the hook the workspace's graph-construction choke points call —
/// free when auditing is off.
pub fn audit_if_enabled(g: &Graph, output: Var, wrt: &[Var], context: &str) -> Option<AuditReport> {
    if !audit_enabled() {
        return None;
    }
    let report = audit(g, output, wrt, context);
    if !report.is_clean() {
        assert!(
            !crate::flags::AUDIT.strict(),
            "PACE_AUDIT=strict: dirty tape audit\n{}",
            report.render()
        );
        eprintln!("{}", report.render());
    } else {
        // Confirm once per context that auditing is live — silence would be
        // indistinguishable from the flag being ignored — without spamming
        // one line per training step.
        static SEEN: std::sync::Mutex<Option<Vec<String>>> = std::sync::Mutex::new(None);
        let mut seen = SEEN
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seen = seen.get_or_insert_with(Vec::new);
        if !seen.iter().any(|c| c == context) {
            seen.push(context.to_string());
            eprintln!(
                "tape audit [{context}]: clean — {} nodes, {} op kind(s) closure-checked \
                 (first of many; further clean audits in this context are silent)",
                report.nodes, report.closure_checked
            );
        }
    }
    Some(report)
}

// ---- shape inference ------------------------------------------------------

/// The shape a node's value *should* have given its operands' recorded
/// shapes, or a description of the operand inconsistency that prevents one.
///
/// Disagreement between this and [`Graph::shape`] means an op implementation
/// (or a hand-seeded tape) broke the tape invariant.
pub fn inferred_shape(g: &Graph, v: Var) -> Result<(usize, usize), String> {
    let sh = |x: Var| g.shape(x);
    let same = |a: Var, b: Var, what: &str| -> Result<(usize, usize), String> {
        let (sa, sb) = (sh(a), sh(b));
        if sa == sb {
            Ok(sa)
        } else {
            Err(format!(
                "{what} operands must share a shape: lhs n{} is {}x{}, rhs n{} is {}x{}",
                a.index(),
                sa.0,
                sa.1,
                b.index(),
                sb.0,
                sb.1
            ))
        }
    };
    match *g.op(v) {
        Op::Leaf => Ok(g.shape(v)),
        Op::Add(a, b) => same(a, b, "Add"),
        Op::Sub(a, b) => same(a, b, "Sub"),
        Op::Mul(a, b) => same(a, b, "Mul"),
        Op::Div(a, b) => same(a, b, "Div"),
        Op::Maximum(a, b) => same(a, b, "Maximum"),
        Op::Minimum(a, b) => same(a, b, "Minimum"),
        Op::Neg(a)
        | Op::AddScalar(a)
        | Op::MulScalar(a, _)
        | Op::PowScalar(a, _)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Relu(a)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Sqrt(a)
        | Op::Abs(a) => Ok(sh(a)),
        Op::MatMul(a, b) => {
            let (sa, sb) = (sh(a), sh(b));
            if sa.1 == sb.0 {
                Ok((sa.0, sb.1))
            } else {
                Err(format!(
                    "MatMul inner dimensions disagree: lhs n{} is {}x{}, rhs n{} is {}x{}",
                    a.index(),
                    sa.0,
                    sa.1,
                    b.index(),
                    sb.0,
                    sb.1
                ))
            }
        }
        Op::Transpose(a) => {
            let (r, c) = sh(a);
            Ok((c, r))
        }
        Op::SumAll(_) | Op::MeanAll(_) => Ok((1, 1)),
        Op::SumRows(a) | Op::MeanRows(a) => Ok((1, sh(a).1)),
        Op::RepeatRows(a, n) => {
            let (r, c) = sh(a);
            if r != 1 {
                Err(format!(
                    "RepeatRows input n{} must be 1xN, got {r}x{c}",
                    a.index()
                ))
            } else {
                Ok((n, c))
            }
        }
        Op::BroadcastScalar(a, r, c) => {
            let s = sh(a);
            if s != (1, 1) {
                Err(format!(
                    "BroadcastScalar input n{} must be 1x1, got {}x{}",
                    a.index(),
                    s.0,
                    s.1
                ))
            } else {
                Ok((r, c))
            }
        }
        Op::AddRow(a, row) | Op::MulRow(a, row) => {
            let (sa, sr) = (sh(a), sh(row));
            if sr.0 != 1 || sr.1 != sa.1 {
                Err(format!(
                    "row operand n{} must be 1x{}, got {}x{}",
                    row.index(),
                    sa.1,
                    sr.0,
                    sr.1
                ))
            } else {
                Ok(sa)
            }
        }
        Op::MulCol(a, col) => {
            let (sa, sc) = (sh(a), sh(col));
            if sc.1 != 1 || sc.0 != sa.0 {
                Err(format!(
                    "column operand n{} must be {}x1, got {}x{}",
                    col.index(),
                    sa.0,
                    sc.0,
                    sc.1
                ))
            } else {
                Ok(sa)
            }
        }
        Op::SumCols(a) => Ok((sh(a).0, 1)),
        Op::RepeatCols(a, d) => {
            let (r, c) = sh(a);
            if c != 1 {
                Err(format!(
                    "RepeatCols input n{} must be Nx1, got {r}x{c}",
                    a.index()
                ))
            } else {
                Ok((r, d))
            }
        }
        Op::ConcatCols(ref parts) => {
            if parts.is_empty() {
                return Err("ConcatCols of zero parts".to_string());
            }
            let r = sh(parts[0]).0;
            let mut cols = 0;
            for &p in parts {
                let s = sh(p);
                if s.0 != r {
                    return Err(format!(
                        "ConcatCols parts disagree on rows: n{} is {}x{}, expected {} rows",
                        p.index(),
                        s.0,
                        s.1,
                        r
                    ));
                }
                cols += s.1;
            }
            Ok((r, cols))
        }
        Op::ConcatRows(ref parts) => {
            if parts.is_empty() {
                return Err("ConcatRows of zero parts".to_string());
            }
            let c = sh(parts[0]).1;
            let mut rows = 0;
            for &p in parts {
                let s = sh(p);
                if s.1 != c {
                    return Err(format!(
                        "ConcatRows parts disagree on cols: n{} is {}x{}, expected {} cols",
                        p.index(),
                        s.0,
                        s.1,
                        c
                    ));
                }
                rows += s.0;
            }
            Ok((rows, c))
        }
        Op::SliceCols(a, start, end) => {
            let (r, c) = sh(a);
            if start >= end || end > c {
                Err(format!(
                    "SliceCols [{start}, {end}) out of bounds for n{} with {c} cols",
                    a.index()
                ))
            } else {
                Ok((r, end - start))
            }
        }
        Op::SliceRows(a, start, end) => {
            let (r, c) = sh(a);
            if start >= end || end > r {
                Err(format!(
                    "SliceRows [{start}, {end}) out of bounds for n{} with {r} rows",
                    a.index()
                ))
            } else {
                Ok((end - start, c))
            }
        }
        Op::GatherRows(a, ref rows) => {
            let (r, c) = sh(a);
            if rows.n != r {
                Err(format!(
                    "GatherRows indexes {} rows, but n{} has {r}",
                    rows.n,
                    a.index()
                ))
            } else if let Some(i) = rows.idx.iter().find(|&&i| i >= r) {
                Err(format!(
                    "GatherRows index {i} out of bounds for n{} with {r} rows",
                    a.index()
                ))
            } else {
                Ok((rows.idx.len(), c))
            }
        }
        Op::ScatterRows(a, ref rows) => {
            let (r, c) = sh(a);
            let n = rows.n;
            if rows.idx.len() != r {
                Err(format!(
                    "ScatterRows has {} indices for n{} with {r} rows",
                    rows.idx.len(),
                    a.index()
                ))
            } else if let Some(i) = rows.idx.iter().find(|&&i| i >= n) {
                Err(format!("ScatterRows index {i} out of bounds for {n} rows"))
            } else {
                Ok((n, c))
            }
        }
    }
}

/// The first-operand chain from `v` back toward the leaves, newest first.
fn op_chain(g: &Graph, v: Var, max_depth: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut cur = v;
    for _ in 0..max_depth {
        let (r, c) = g.shape(cur);
        chain.push(format!("n{} {} {r}x{c}", cur.index(), g.op(cur).name()));
        match op_inputs(g.op(cur)).first() {
            Some(&next) => cur = next,
            None => break,
        }
    }
    chain
}

// ---- hazard scan ----------------------------------------------------------

fn extremes(m: &Matrix) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in m.data() {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

fn count_where(m: &Matrix, pred: impl Fn(f32) -> bool) -> usize {
    m.data().iter().filter(|&&x| pred(x)).count()
}

/// Largest f32 exponent argument that does not overflow (`ln(f32::MAX)`).
const EXP_OVERFLOW_AT: f32 = 88.722_84;
/// Denominator magnitude below which a division is flagged.
const DIV_EPS: f32 = 1e-30;

fn scan_hazards(g: &Graph, node: Var, hazards: &mut Vec<Hazard>) {
    let push = |hazards: &mut Vec<Hazard>, kind, detail| {
        hazards.push(Hazard {
            node: node.index(),
            op: g.op(node).name(),
            kind,
            detail,
        });
    };
    match *g.op(node) {
        Op::Ln(a) => {
            let v = g.value(a);
            let (lo, _) = extremes(v);
            if lo <= 0.0 {
                let n = count_where(v, |x| x <= 0.0);
                push(
                    hazards,
                    HazardKind::LnNonPositive,
                    format!(
                        "input n{} has {n}/{} element(s) \u{2264} 0 (min {lo})",
                        a.index(),
                        v.len()
                    ),
                );
            }
        }
        Op::Sqrt(a) => {
            let v = g.value(a);
            let (lo, _) = extremes(v);
            if lo < 0.0 {
                let n = count_where(v, |x| x < 0.0);
                push(
                    hazards,
                    HazardKind::SqrtNegative,
                    format!(
                        "input n{} has {n}/{} negative element(s) (min {lo})",
                        a.index(),
                        v.len()
                    ),
                );
            } else if count_where(v, |x| x == 0.0) > 0 {
                push(
                    hazards,
                    HazardKind::SqrtZeroGradient,
                    format!(
                        "input n{} contains exact zeros; the VJP divides by sqrt(0)",
                        a.index()
                    ),
                );
            }
        }
        Op::Div(_, b) => {
            let v = g.value(b);
            let n = count_where(v, |x| x.abs() < DIV_EPS);
            if n > 0 {
                push(
                    hazards,
                    HazardKind::DivByNearZero,
                    format!(
                        "denominator n{} has {n}/{} element(s) with |x| < {DIV_EPS}",
                        b.index(),
                        v.len()
                    ),
                );
            }
        }
        Op::PowScalar(a, p) => {
            let v = g.value(a);
            if p.fract() != 0.0 {
                let n = count_where(v, |x| x < 0.0);
                if n > 0 {
                    push(
                        hazards,
                        HazardKind::PowFractionalNegativeBase,
                        format!(
                            "base n{} has {n} negative element(s) raised to {p}",
                            a.index()
                        ),
                    );
                }
            }
            if p < 0.0 {
                let n = count_where(v, |x| x == 0.0);
                if n > 0 {
                    push(
                        hazards,
                        HazardKind::PowNegativeZeroBase,
                        format!("base n{} has {n} zero element(s) raised to {p}", a.index()),
                    );
                }
            }
        }
        Op::Exp(a) => {
            let (_, hi) = extremes(g.value(a));
            if hi > EXP_OVERFLOW_AT {
                push(
                    hazards,
                    HazardKind::ExpOverflow,
                    format!(
                        "input n{} reaches {hi} > ln(f32::MAX) \u{2248} {EXP_OVERFLOW_AT}",
                        a.index()
                    ),
                );
            }
        }
        _ => {}
    }
}

// ---- double-backward closure ----------------------------------------------

/// Builds a representative instance of the op kind on a scratch tape and
/// differentiates it twice. Returns the captured failure, if any.
fn closure_check(kind: &'static str) -> Option<ClosureFailure> {
    let attempt = std::panic::catch_unwind(|| {
        let mut g = Graph::new();
        // Positive, non-degenerate values keep Ln/Sqrt/Div in-domain so the
        // check isolates *closure*, not hazards.
        let a = g.leaf(Matrix::from_vec(2, 3, vec![0.6, 1.1, 0.9, 1.4, 0.7, 1.2]));
        let b = g.leaf(Matrix::from_vec(2, 3, vec![1.3, 0.8, 1.6, 0.9, 1.1, 0.7]));
        let y = match kind {
            "Leaf" => a,
            "Add" => g.add(a, b),
            "Sub" => g.sub(a, b),
            "Mul" => g.mul(a, b),
            "Div" => g.div(a, b),
            "Neg" => g.neg(a),
            "AddScalar" => g.add_scalar(a, 0.7),
            "MulScalar" => g.mul_scalar(a, 1.3),
            "PowScalar" => g.pow_scalar(a, 2.5),
            "MatMul" => {
                let w = g.leaf(Matrix::from_vec(3, 2, vec![0.4, 1.0, 0.8, 0.5, 1.2, 0.6]));
                g.matmul(a, w)
            }
            "Transpose" => g.transpose(a),
            "Sigmoid" => g.sigmoid(a),
            "Tanh" => g.tanh(a),
            "Relu" => g.relu(a),
            "Exp" => g.exp(a),
            "Ln" => g.ln(a),
            "Sqrt" => g.sqrt(a),
            "Abs" => g.abs(a),
            "Maximum" => g.maximum(a, b),
            "Minimum" => g.minimum(a, b),
            "SumAll" => g.sum_all(a),
            "MeanAll" => g.mean_all(a),
            "SumRows" => g.sum_rows(a),
            "MeanRows" => g.mean_rows(a),
            "RepeatRows" => {
                let row = g.slice_rows(a, 0, 1);
                g.repeat_rows(row, 4)
            }
            "BroadcastScalar" => {
                let s = g.sum_all(a);
                g.broadcast_scalar(s, 2, 2)
            }
            "AddRow" => {
                let row = g.slice_rows(b, 0, 1);
                g.add_row(a, row)
            }
            "MulRow" => {
                let row = g.slice_rows(b, 0, 1);
                g.mul_row(a, row)
            }
            "MulCol" => {
                let col = g.slice_cols(b, 0, 1);
                g.mul_col(a, col)
            }
            "SumCols" => g.sum_cols(a),
            "RepeatCols" => {
                let col = g.slice_cols(a, 0, 1);
                g.repeat_cols(col, 3)
            }
            "ConcatCols" => g.concat_cols(&[a, b]),
            "ConcatRows" => g.concat_rows(&[a, b]),
            "SliceCols" => g.slice_cols(a, 1, 3),
            "SliceRows" => g.slice_rows(a, 0, 1),
            "GatherRows" => g.gather_rows(a, &[1, 0]),
            "ScatterRows" => g.scatter_rows(a, &[2, 0], 3),
            other => panic!("closure_check: unknown op kind {other}"),
        };
        let s = g.sum_all(y);
        let first = g.grad(s, &[a, b]);
        let fa = g.sum_all(first[0]);
        let fb = g.sum_all(first[1]);
        let total = g.add(fa, fb);
        let second = g.grad(total, &[a, b]);
        for (grad, leaf) in second.iter().zip([a, b]) {
            assert_eq!(
                g.shape(*grad),
                g.shape(leaf),
                "second-order gradient shape diverged from its leaf"
            );
        }
    });
    match attempt {
        Ok(()) => None,
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            Some(ClosureFailure { op: kind, message })
        }
    }
}

// ---- the audit ------------------------------------------------------------

/// Audits a built tape against `output` and the parameters `wrt` whose
/// gradients the caller is about to request.
///
/// Pure inspection: the graph is not modified, and the double-backward
/// closure pass runs on scratch tapes. See the module docs for the pass
/// list; use [`audit_if_enabled`] at runtime choke points and
/// [`AuditReport::assert_clean`] in tests.
pub fn audit(g: &Graph, output: Var, wrt: &[Var], context: &str) -> AuditReport {
    let mut report = AuditReport {
        context: context.to_string(),
        nodes: g.len(),
        ..Default::default()
    };

    // Statistics, shape inference, and hazards in one pass over the tape.
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for i in 0..g.len() {
        let v = Var::from_index(i);
        let op = g.op(v);
        *counts.entry(op.name()).or_insert(0) += 1;
        report.tape_bytes += g.value(v).len() * size_of::<f32>() + 64;
        if !g.value(v).all_finite() {
            report.nonfinite_nodes += 1;
        }
        if let Some(&bad) = op_inputs(op).iter().find(|inp| inp.index() >= i) {
            report.shape_issues.push(ShapeIssue {
                node: i,
                op: op.name(),
                message: format!(
                    "operand n{} does not precede its consumer on the tape",
                    bad.index()
                ),
                chain: Vec::new(),
            });
            continue;
        }
        match inferred_shape(g, v) {
            Ok(expected) => {
                let actual = g.shape(v);
                if expected != actual {
                    report.shape_issues.push(ShapeIssue {
                        node: i,
                        op: op.name(),
                        message: format!(
                            "recorded value is {}x{} but operands imply {}x{}",
                            actual.0, actual.1, expected.0, expected.1
                        ),
                        chain: op_chain(g, v, 8),
                    });
                }
            }
            Err(message) => {
                report.shape_issues.push(ShapeIssue {
                    node: i,
                    op: op.name(),
                    message,
                    chain: op_chain(g, v, 8),
                });
            }
        }
        scan_hazards(g, v, &mut report.hazards);
    }
    let mut op_counts: Vec<(&'static str, usize)> = counts.into_iter().collect();
    op_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    report.op_counts = op_counts;
    report.first_nonfinite = g.first_nonfinite().map(|(v, op)| (v.index(), op));

    // Gradient flow: ancestors of the output.
    let mut reachable = vec![false; g.len()];
    if output.index() < g.len() {
        let mut stack = vec![output];
        while let Some(v) = stack.pop() {
            if reachable[v.index()] {
                continue;
            }
            reachable[v.index()] = true;
            for inp in op_inputs(g.op(v)) {
                if inp.index() < g.len() && !reachable[inp.index()] {
                    stack.push(inp);
                }
            }
        }
    }
    report.detached_nodes = reachable.iter().filter(|&&r| !r).count();
    for (wrt_index, &p) in wrt.iter().enumerate() {
        if p.index() >= g.len() || !reachable[p.index()] {
            report.no_grad_params.push(NoGradParam {
                wrt_index,
                node: p.index(),
                shape: if p.index() < g.len() {
                    g.shape(p)
                } else {
                    (0, 0)
                },
            });
        }
    }

    // Double-backward closure over reachable op kinds.
    let mut kinds: Vec<&'static str> = Vec::new();
    for (i, &r) in reachable.iter().enumerate() {
        if r {
            let name = g.op(Var::from_index(i)).name();
            if name != "Leaf" && !kinds.contains(&name) {
                kinds.push(name);
            }
        }
    }
    report.closure_checked = kinds.len();
    for kind in kinds {
        if let Some(failure) = closure_check(kind) {
            report.closure_failures.push(failure);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Op;

    fn clean_graph() -> (Graph, Var, Var, Var) {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 3, vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0]));
        let w = g.leaf(Matrix::from_vec(3, 1, vec![0.2, 0.4, 0.6]));
        let h = g.matmul(x, w);
        let s = g.sigmoid(h);
        let out = g.sum_all(s);
        (g, out, x, w)
    }

    #[test]
    fn clean_tape_audits_clean() {
        let (g, out, x, w) = clean_graph();
        let report = audit(&g, out, &[x, w], "test::clean");
        report.assert_clean();
        assert_eq!(report.nodes, g.len());
        assert!(
            report.closure_checked >= 2,
            "MatMul + Sigmoid + SumAll reachable"
        );
        assert!(report.tape_bytes > 0);
        assert!(report.render().contains("test::clean"));
    }

    #[test]
    fn detects_seeded_shape_mismatch() {
        let (mut g, _, x, w) = clean_graph();
        // A 2x3 + 3x1 elementwise add cannot exist through the public API;
        // seed it directly to prove the auditor catches corrupted tapes.
        let bad = g.push_raw(Op::Add(x, w), Matrix::zeros(2, 3));
        let out = g.sum_all(bad);
        let report = audit(&g, out, &[x, w], "test::shape");
        assert!(!report.is_clean());
        let issue = &report.shape_issues[0];
        assert_eq!(
            issue.node,
            bad.index(),
            "report must name the offending node"
        );
        assert_eq!(issue.op, "Add");
        assert!(
            issue.message.contains("share a shape"),
            "got: {}",
            issue.message
        );
        assert!(!issue.chain.is_empty());
        assert!(report.render().contains(&format!("SHAPE n{}", bad.index())));
    }

    #[test]
    fn detects_recorded_result_disagreement() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(2, 2));
        // Neg preserves shape; record a wrong result shape.
        let bad = g.push_raw(Op::Neg(x), Matrix::zeros(4, 1));
        let out = g.sum_all(bad);
        let report = audit(&g, out, &[x], "test::recorded");
        let issue = report
            .shape_issues
            .iter()
            .find(|i| i.node == bad.index())
            .expect("mismatch reported");
        assert!(
            issue.message.contains("operands imply 2x2"),
            "got: {}",
            issue.message
        );
    }

    #[test]
    fn detects_detached_parameter() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[1.0, 2.0]));
        let orphan = g.leaf(Matrix::zeros(4, 4));
        let y = g.mul(x, x);
        let out = g.sum_all(y);
        let report = audit(&g, out, &[x, orphan], "test::detached");
        assert!(!report.is_clean());
        assert_eq!(report.no_grad_params.len(), 1);
        let p = &report.no_grad_params[0];
        assert_eq!(p.wrt_index, 1);
        assert_eq!(p.node, orphan.index(), "report must name the detached node");
        assert_eq!(p.shape, (4, 4));
        assert_eq!(report.detached_nodes, 1);
        assert!(report.render().contains("NO-GRAD param wrt[1]"));
    }

    #[test]
    fn detects_ln_hazard() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::row(&[0.5, -1.0, 2.0]));
        let y = g.ln(x);
        let out = g.sum_all(y);
        let report = audit(&g, out, &[x], "test::hazard");
        assert!(!report.is_clean());
        let hazard = report
            .hazards
            .iter()
            .find(|h| h.kind == HazardKind::LnNonPositive)
            .expect("ln hazard");
        assert_eq!(
            hazard.node,
            y.index(),
            "report must name the hazardous node"
        );
        assert!(hazard.detail.contains("1/3"), "got: {}", hazard.detail);
        // ln(-1) = NaN: the graph's diagnostic slot pins the producer too.
        assert_eq!(report.first_nonfinite, Some((y.index(), "Ln")));
    }

    #[test]
    fn detects_div_exp_pow_hazards() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::row(&[1.0, 2.0]));
        let zero = g.leaf(Matrix::row(&[0.0, 1.0]));
        let _ = g.div(a, zero);
        let big = g.leaf(Matrix::row(&[100.0, 1.0]));
        let e = g.exp(big);
        let neg = g.leaf(Matrix::row(&[-2.0, 1.0]));
        let _ = g.pow_scalar(neg, 0.5);
        let out = g.sum_all(e);
        let report = audit(&g, out, &[], "test::hazards");
        let kinds: Vec<HazardKind> = report.hazards.iter().map(|h| h.kind).collect();
        assert!(kinds.contains(&HazardKind::DivByNearZero), "{kinds:?}");
        assert!(kinds.contains(&HazardKind::ExpOverflow), "{kinds:?}");
        assert!(
            kinds.contains(&HazardKind::PowFractionalNegativeBase),
            "{kinds:?}"
        );
    }

    #[test]
    fn closure_holds_for_every_op_kind() {
        // Exercise the closure audit across the full op vocabulary at once.
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(2, 3, vec![0.6, 1.1, 0.9, 1.4, 0.7, 1.2]));
        let b = g.leaf(Matrix::from_vec(2, 3, vec![1.3, 0.8, 1.6, 0.9, 1.1, 0.7]));
        let mut acc = g.add(a, b);
        acc = g.mul(acc, a);
        acc = g.sub(acc, b);
        acc = g.div(acc, b);
        acc = g.abs(acc);
        acc = g.add_scalar(acc, 1.0);
        acc = g.sqrt(acc);
        acc = g.ln(acc);
        acc = g.exp(acc);
        acc = g.sigmoid(acc);
        acc = g.tanh(acc);
        acc = g.relu(acc);
        acc = g.neg(acc);
        acc = g.mul_scalar(acc, 0.5);
        acc = g.pow_scalar(acc, 2.0);
        let w = g.leaf(Matrix::from_vec(3, 2, vec![0.4, 1.0, 0.8, 0.5, 1.2, 0.6]));
        let mm = g.matmul(acc, w);
        let mt = g.transpose(mm);
        let mx = g.maximum(mt, mt);
        let mn = g.minimum(mx, mt);
        let sr = g.sum_rows(mn);
        let mr = g.mean_rows(mn);
        let rep = g.repeat_rows(sr, 2);
        let ar = g.add_row(rep, mr);
        let mrow = g.mul_row(ar, mr);
        let sc = g.sum_cols(mrow);
        let mcol = g.mul_col(mrow, sc);
        let rc = g.repeat_cols(sc, 2);
        let cc = g.concat_cols(&[mcol, rc]);
        let cr = g.concat_rows(&[cc, cc]);
        let s1 = g.slice_cols(cr, 0, 2);
        let s2 = g.slice_rows(s1, 0, 2);
        let gr = g.gather_rows(s2, &[1]);
        let sr2 = g.scatter_rows(gr, &[0], 2);
        let s2 = g.add(s2, sr2);
        let ma = g.mean_all(s2);
        let bs = g.broadcast_scalar(ma, 2, 2);
        let sa = g.sum_all(bs);
        let report = audit(&g, sa, &[a, b], "test::closure");
        assert!(report.closure_failures.is_empty(), "{}", report.render());
        assert_eq!(
            report.closure_checked,
            36,
            "every non-Leaf op kind is reachable: {}",
            report.render()
        );
    }

    #[test]
    fn audit_toggle_controls_hook() {
        set_audit_enabled(false);
        let (g, out, x, w) = clean_graph();
        assert!(audit_if_enabled(&g, out, &[x, w], "test::off").is_none());
        set_audit_enabled(true);
        let report = audit_if_enabled(&g, out, &[x, w], "test::on").expect("enabled");
        assert!(report.is_clean());
        set_audit_enabled(false);
    }
}
