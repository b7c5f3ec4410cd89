//! Elementwise fusion: collapsing map/zip chains into single super-steps.
//!
//! The optimized tape ([`crate::opt`]) still executes one op per step, so a
//! chain like `relu(add(mul_scalar(x, a), b))` walks memory three times —
//! every intermediate is written to an arena slot and immediately read back
//! by its only consumer. The PACE hypergradient tapes are exactly these
//! memory-bound elementwise chains (the unrolled SGD updates are long runs
//! of `Mul`/`Sub`/`AddScalar` over same-shaped matrices), so the fusion
//! pass rewrites them into **fused super-steps**:
//!
//! * **Legality** comes from the same liveness facts the buffer allocator
//!   uses: a producer step may be inlined into its consumer iff it is a
//!   map/zip-class op (shape-preserving, one output element per input
//!   element), its value has exactly **one** use (that consumer), and it is
//!   not a plan output. Multi-use intermediates are never crossed — their
//!   value must materialize for the other readers. Chains are maximal
//!   producer→consumer paths of such links.
//! * **Arena interaction**: fusion runs *before* buffer assignment, so the
//!   rewritten plan has no slots for the vanished intermediates at all; the
//!   fused node claims one destination slot like any other step, operand
//!   live ranges extend to the fused step that now reads them, and the
//!   existing [`crate::dataflow::check_slot_interference`] proof covers the
//!   plan unchanged.
//! * **Accumulation-order contract**: a fused chain computes, per element,
//!   the *same scalar dataflow* the step-at-a-time interpreter computes —
//!   the same `f32` operations in the same order, only without the
//!   round-trip through memory between links. Elementwise ops carry no
//!   cross-element reduction, so fused replay is **bit-identical** to
//!   [`crate::opt::TapePlan::replay`] at any block size, chunk grid,
//!   thread count, or `PACE_SCHED` seed (`prop_fuse` enforces this).
//!
//! Execution uses a blocked interpreter: elements are processed in
//! [`FUSE_BLOCK`]-wide stack blocks, applying each link's kernel over the
//! whole block before the next link. Each source operand is read once and
//! the destination written once per block — one pass over memory for the
//! whole chain — while the carried block stays L1-resident and every
//! per-link inner loop is a branch-free straight-line sweep the
//! autovectorizer can widen. Fused super-steps also surface to the static
//! scheduler ([`crate::sched`]) as single coarse nodes, giving the
//! profitability oracle stages with enough work per item to fan out.
//!
//! Classifying an op for fusibility is an exhaustive match — `xtask lint`
//! extends its Op-coverage rule to this file so a new op cannot silently
//! land without a fusion verdict.

use crate::dataflow::TRANSCENDENTAL_FLOPS;
use crate::graph::{Op, Var};
use crate::matrix::Matrix;
use crate::opt::{plan_inputs, Arena, PlanKind, PlanNode, TapePlan};
use pace_runtime as pool;

/// Elements per stack block of the fused interpreter. One `f32` block is
/// 512 bytes — resident in L1 across every link of a chain. Blocking
/// changes only the visit order of independent elements, never a value.
pub(crate) const FUSE_BLOCK: usize = 128;

/// A unary map kernel: `carry -> carry`, exactly the closures
/// `TapePlan::eval_into` uses for the corresponding ops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum MapKind {
    /// `-x`
    Neg,
    /// `x + c`
    AddScalar(f32),
    /// `x * c`
    MulScalar(f32),
    /// `x.powf(p)`
    PowScalar(f32),
    /// `1 / (1 + e^(-x))`
    Sigmoid,
    /// `tanh(x)`
    Tanh,
    /// `x.max(0.0)`
    Relu,
    /// `e^x`
    Exp,
    /// `ln(x)`
    Ln,
    /// `sqrt(x)`
    Sqrt,
    /// `|x|`
    Abs,
}

/// A binary zip kernel over same-shaped operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ZipKind {
    /// `l + r`
    Add,
    /// `l - r`
    Sub,
    /// `l * r`
    Mul,
    /// `l / r`
    Div,
    /// `f32::max(l, r)`
    Max,
    /// `f32::min(l, r)`
    Min,
}

/// The elementwise form of a fusible op: which kernel it applies and which
/// operands it reads. `None` for every op that is not map/zip-class
/// (contractions, reductions, broadcasts, movement, leaves).
#[derive(Clone, Copy, Debug)]
pub(crate) enum ElemForm {
    /// Unary map over one operand.
    Map(MapKind, Var),
    /// Binary zip over two same-shaped operands `(left, right)`.
    Zip(ZipKind, Var, Var),
}

/// Classifies one op for fusion. Exhaustive over the op vocabulary
/// (enforced by `xtask lint`): map/zip-class ops fuse; everything else —
/// ops that contract, reduce, broadcast, or move data across positions —
/// must materialize.
pub(crate) fn elem_form(op: &Op) -> Option<ElemForm> {
    match *op {
        Op::Neg(a) => Some(ElemForm::Map(MapKind::Neg, a)),
        Op::AddScalar(a, c) => Some(ElemForm::Map(MapKind::AddScalar(c), a)),
        Op::MulScalar(a, c) => Some(ElemForm::Map(MapKind::MulScalar(c), a)),
        Op::PowScalar(a, p) => Some(ElemForm::Map(MapKind::PowScalar(p), a)),
        Op::Sigmoid(a) => Some(ElemForm::Map(MapKind::Sigmoid, a)),
        Op::Tanh(a) => Some(ElemForm::Map(MapKind::Tanh, a)),
        Op::Relu(a) => Some(ElemForm::Map(MapKind::Relu, a)),
        Op::Exp(a) => Some(ElemForm::Map(MapKind::Exp, a)),
        Op::Ln(a) => Some(ElemForm::Map(MapKind::Ln, a)),
        Op::Sqrt(a) => Some(ElemForm::Map(MapKind::Sqrt, a)),
        Op::Abs(a) => Some(ElemForm::Map(MapKind::Abs, a)),
        Op::Add(a, b) => Some(ElemForm::Zip(ZipKind::Add, a, b)),
        Op::Sub(a, b) => Some(ElemForm::Zip(ZipKind::Sub, a, b)),
        Op::Mul(a, b) => Some(ElemForm::Zip(ZipKind::Mul, a, b)),
        Op::Div(a, b) => Some(ElemForm::Zip(ZipKind::Div, a, b)),
        Op::Maximum(a, b) => Some(ElemForm::Zip(ZipKind::Max, a, b)),
        Op::Minimum(a, b) => Some(ElemForm::Zip(ZipKind::Min, a, b)),
        // Not elementwise in the one-in-one-out sense: contraction,
        // reduction, broadcast, and movement ops must materialize.
        Op::Leaf => None,
        Op::MatMul(..)
        | Op::Transpose(_)
        | Op::SumAll(_)
        | Op::MeanAll(_)
        | Op::SumRows(_)
        | Op::MeanRows(_)
        | Op::SumCols(_)
        | Op::RepeatRows(..)
        | Op::RepeatCols(..)
        | Op::BroadcastScalar(..)
        | Op::AddRow(..)
        | Op::MulRow(..)
        | Op::MulCol(..)
        | Op::ConcatCols(_)
        | Op::ConcatRows(_)
        | Op::SliceCols(..)
        | Op::SliceRows(..) => None,
    }
}

/// One link of a fused chain: how the carried element is transformed.
/// Binary links record which side the carry sits on, so NaN-payload and
/// signed-zero semantics of the original operand order are preserved
/// exactly.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FusedLink {
    /// `carry = map(carry)`
    Map(MapKind),
    /// `carry = zip(carry, src[j])` — carry was the left operand.
    ZipL(ZipKind, Var),
    /// `carry = zip(src[j], carry)` — carry was the right operand.
    ZipR(ZipKind, Var),
}

impl FusedLink {
    fn src(&self) -> Option<Var> {
        match self {
            FusedLink::Map(_) => None,
            FusedLink::ZipL(_, v) | FusedLink::ZipR(_, v) => Some(*v),
        }
    }

    fn flops_per_elem(&self) -> u64 {
        let kind = match self {
            FusedLink::Map(k) => k,
            FusedLink::ZipL(..) | FusedLink::ZipR(..) => return 1,
        };
        match kind {
            MapKind::PowScalar(_)
            | MapKind::Sigmoid
            | MapKind::Tanh
            | MapKind::Exp
            | MapKind::Ln
            | MapKind::Sqrt => TRANSCENDENTAL_FLOPS,
            MapKind::Neg
            | MapKind::AddScalar(_)
            | MapKind::MulScalar(_)
            | MapKind::Relu
            | MapKind::Abs => 1,
        }
    }
}

/// A fused super-step: `links.len()` original steps collapsed into one
/// plan node that computes, per element, `links` applied in order to the
/// value loaded from `lead`.
#[derive(Clone, Debug)]
pub(crate) struct FusedChain {
    /// Plan index whose value seeds the per-element carry.
    pub(crate) lead: Var,
    /// Kernels applied in order; the first is the chain head's own op.
    pub(crate) links: Vec<FusedLink>,
    /// Op names of the collapsed steps, head → tail (for profiles/stats).
    pub(crate) names: Vec<&'static str>,
}

impl FusedChain {
    /// Original steps this super-step replaces.
    pub(crate) fn steps(&self) -> usize {
        self.links.len()
    }

    /// Every plan index the fused step reads: the lead plus each zip
    /// link's side operand.
    pub(crate) fn inputs(&self) -> Vec<Var> {
        let mut out = vec![self.lead];
        out.extend(self.links.iter().filter_map(FusedLink::src));
        out
    }

    /// Modeled FLOPs per output element across every link.
    pub(crate) fn flops_per_elem(&self) -> u64 {
        self.links.iter().map(FusedLink::flops_per_elem).sum()
    }

    /// `f32` reads per output element: the lead plus one per zip link.
    pub(crate) fn reads_per_elem(&self) -> u64 {
        1 + self.links.iter().filter(|l| l.src().is_some()).count() as u64
    }

    /// True when any link is transcendental-weight (compute-bound chains
    /// schedule differently from bandwidth-bound ones).
    pub(crate) fn has_transcendental(&self) -> bool {
        self.links.iter().any(|l| l.flops_per_elem() > 1)
    }

    /// Cost spec of executing this chain over `len` elements, for the
    /// profitability oracle: all reads plus the single write, one memory
    /// pass total.
    pub(crate) fn region(&self, len: usize) -> pool::cost::RegionCost {
        pool::cost::RegionCost {
            items: len,
            flops_per_item: self.flops_per_elem() as f64,
            bytes_per_item: ((self.reads_per_elem() + 1) as usize * size_of::<f32>()) as f64,
        }
    }
}

// ---- the fusion pass --------------------------------------------------------

/// What the fusion pass did to one plan, for [`crate::opt::OptStats`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FuseOutcome {
    /// Fused chains emitted.
    pub(crate) chains: usize,
    /// Original steps absorbed into those chains.
    pub(crate) steps_fused: usize,
    /// Full-buffer memory passes eliminated: one intermediate write plus
    /// one read-back per interior link.
    pub(crate) passes_saved: u64,
}

/// Rewrites maximal single-use map/zip chains in a compacted (pre-buffer)
/// plan into [`PlanKind::Fused`] nodes. Operand `Var`s of the returned
/// nodes are re-indexed into the compacted output; `outputs` is remapped
/// alongside.
pub(crate) fn fuse_plan_nodes(
    nodes: Vec<PlanNode>,
    outputs: &[usize],
) -> (Vec<PlanNode>, Vec<usize>, FuseOutcome) {
    let n = nodes.len();
    let mut uses = vec![0usize; n];
    for node in &nodes {
        for v in plan_inputs(&node.kind) {
            uses[v.index()] += 1;
        }
    }
    let mut is_output = vec![false; n];
    for &o in outputs {
        is_output[o] = true;
    }

    // Link selection: each fusible step absorbs at most one producer — a
    // fusible, single-use, non-output step of the same shape sitting in one
    // of its operand slots. `uses` counts operand *occurrences*, so a step
    // reading the same value twice (e.g. `Mul(p, p)`) can never absorb it:
    // the chain carries one value, and a multi-use intermediate must
    // materialize for its other reader anyway.
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut succ: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        let PlanKind::Step { op, .. } = &nodes[i].kind else {
            continue;
        };
        let Some(form) = elem_form(op) else {
            continue;
        };
        let cands = match form {
            ElemForm::Map(_, a) => [Some(a), None],
            ElemForm::Zip(_, a, b) => [Some(a), Some(b)],
        };
        for cand in cands.into_iter().flatten() {
            let p = cand.index();
            if uses[p] != 1 || is_output[p] || succ[p].is_some() {
                continue;
            }
            let PlanKind::Step { op: pop, .. } = &nodes[p].kind else {
                continue;
            };
            if elem_form(pop).is_none() || nodes[p].shape != nodes[i].shape {
                continue;
            }
            pred[i] = Some(p);
            succ[p] = Some(i);
            break;
        }
    }

    // Materialize chains at their tails (a fusible step that absorbed a
    // producer but is not itself absorbed), walking the pred links back to
    // the head. Interior members are deleted from the plan; their external
    // operands become operands of the fused node, which executes at the
    // tail's position — every operand index precedes it, so plan order
    // stays topological.
    let mut removed = vec![false; n];
    let mut chain_at: Vec<Option<FusedChain>> = (0..n).map(|_| None).collect();
    let mut outcome = FuseOutcome::default();
    for i in 0..n {
        if succ[i].is_some() || pred[i].is_none() {
            continue;
        }
        let mut members = vec![i];
        let mut cur = i;
        while let Some(p) = pred[cur] {
            members.push(p);
            cur = p;
        }
        members.reverse();
        let mut lead = Var::from_index(0);
        let mut links = Vec::with_capacity(members.len());
        let mut names = Vec::with_capacity(members.len());
        for (pos, &m) in members.iter().enumerate() {
            let PlanKind::Step { op, .. } = &nodes[m].kind else {
                unreachable!("chain members are steps");
            };
            names.push(op.name());
            let Some(form) = elem_form(op) else {
                unreachable!("chain members are fusible");
            };
            let carry = if pos == 0 {
                None
            } else {
                Some(members[pos - 1])
            };
            let link = match (form, carry) {
                (ElemForm::Map(k, a), None) => {
                    lead = a;
                    FusedLink::Map(k)
                }
                (ElemForm::Map(k, _), Some(_)) => FusedLink::Map(k),
                (ElemForm::Zip(k, a, b), None) => {
                    lead = a;
                    FusedLink::ZipL(k, b)
                }
                (ElemForm::Zip(k, a, b), Some(c)) => {
                    if a.index() == c {
                        FusedLink::ZipL(k, b)
                    } else {
                        FusedLink::ZipR(k, a)
                    }
                }
            };
            links.push(link);
        }
        for &m in &members[..members.len() - 1] {
            removed[m] = true;
        }
        let chain = FusedChain { lead, links, names };
        outcome.chains += 1;
        outcome.steps_fused += chain.steps();
        outcome.passes_saved += 2 * (chain.steps() as u64 - 1);
        chain_at[i] = Some(chain);
    }
    if outcome.chains == 0 {
        return (nodes, outputs.to_vec(), outcome);
    }

    // Compact, dropping interior members and re-indexing every operand.
    let mut final_of = vec![usize::MAX; n];
    let mut kept = 0usize;
    for j in 0..n {
        if !removed[j] {
            final_of[j] = kept;
            kept += 1;
        }
    }
    let remap = |v: Var| Var::from_index(final_of[v.index()]);
    let mut out_nodes: Vec<PlanNode> = Vec::with_capacity(kept);
    for (j, node) in nodes.into_iter().enumerate() {
        if removed[j] {
            continue;
        }
        let kind = match chain_at[j].take() {
            Some(mut chain) => {
                chain.lead = remap(chain.lead);
                for link in &mut chain.links {
                    match link {
                        FusedLink::Map(_) => {}
                        FusedLink::ZipL(_, v) | FusedLink::ZipR(_, v) => *v = remap(*v),
                    }
                }
                PlanKind::Fused {
                    chain,
                    buffer: usize::MAX,
                }
            }
            None => match node.kind {
                PlanKind::Step { op, buffer } => PlanKind::Step {
                    op: crate::opt::remap_op(&op, &final_of),
                    buffer,
                },
                other => other,
            },
        };
        out_nodes.push(PlanNode {
            kind,
            shape: node.shape,
        });
    }
    let out_outputs: Vec<usize> = outputs.iter().map(|&o| final_of[o]).collect();
    (out_nodes, out_outputs, outcome)
}

// ---- the fused interpreter --------------------------------------------------

#[inline]
fn apply_map(kind: MapKind, acc: &mut [f32]) {
    match kind {
        MapKind::Neg => acc.iter_mut().for_each(|x| *x = -*x),
        MapKind::AddScalar(c) => acc.iter_mut().for_each(|x| *x += c),
        MapKind::MulScalar(c) => acc.iter_mut().for_each(|x| *x *= c),
        MapKind::PowScalar(p) => acc.iter_mut().for_each(|x| *x = x.powf(p)),
        MapKind::Sigmoid => acc.iter_mut().for_each(|x| *x = 1.0 / (1.0 + (-*x).exp())),
        MapKind::Tanh => acc.iter_mut().for_each(|x| *x = x.tanh()),
        MapKind::Relu => acc.iter_mut().for_each(|x| *x = x.max(0.0)),
        MapKind::Exp => acc.iter_mut().for_each(|x| *x = x.exp()),
        MapKind::Ln => acc.iter_mut().for_each(|x| *x = x.ln()),
        MapKind::Sqrt => acc.iter_mut().for_each(|x| *x = x.sqrt()),
        MapKind::Abs => acc.iter_mut().for_each(|x| *x = x.abs()),
    }
}

#[inline]
fn apply_zip(kind: ZipKind, carry_left: bool, acc: &mut [f32], src: &[f32]) {
    // One branch-free sweep per (kind, side); the carried side matters for
    // Sub/Div values and for NaN-payload/signed-zero fidelity everywhere.
    match (kind, carry_left) {
        (ZipKind::Add, true) => bin(acc, src, |x, y| x + y),
        (ZipKind::Add, false) => bin(acc, src, |x, y| y + x),
        (ZipKind::Sub, true) => bin(acc, src, |x, y| x - y),
        (ZipKind::Sub, false) => bin(acc, src, |x, y| y - x),
        (ZipKind::Mul, true) => bin(acc, src, |x, y| x * y),
        (ZipKind::Mul, false) => bin(acc, src, |x, y| y * x),
        (ZipKind::Div, true) => bin(acc, src, |x, y| x / y),
        (ZipKind::Div, false) => bin(acc, src, |x, y| y / x),
        (ZipKind::Max, true) => bin(acc, src, f32::max),
        (ZipKind::Max, false) => bin(acc, src, |x, y| f32::max(y, x)),
        (ZipKind::Min, true) => bin(acc, src, f32::min),
        (ZipKind::Min, false) => bin(acc, src, |x, y| f32::min(y, x)),
    }
}

#[inline]
fn bin(acc: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32) {
    for (x, &y) in acc.iter_mut().zip(src) {
        *x = f(*x, y);
    }
}

/// Executes one fused super-step: one pass over memory for the whole
/// chain, block by block. Fans out over the pool when the oracle deems the
/// region profitable; per-element results are independent of blocking and
/// chunking, so parallel and sequential outputs are bit-identical.
pub(crate) fn eval_chain(
    plan: &TapePlan,
    arena: &Arena,
    chain: &FusedChain,
    shape: (usize, usize),
    dst: &mut Matrix,
) {
    dst.reset_shape(shape.0, shape.1);
    let len = dst.len();
    let lead: &[f32] = plan.node_value(arena, chain.lead.index()).data();
    debug_assert_eq!(
        lead.len(),
        len,
        "fused lead shape mismatch in chain {:?}",
        chain.names
    );
    // Operand slices are resolved per block straight from the links: an
    // arena lookup per (block, zip link) is noise next to the block's own
    // memory traffic, and skipping the up-front resolution buffer keeps
    // the per-chain cost allocation-free — these tapes fuse hundreds of
    // chains over matrices small enough for a malloc to show up.
    let run = |lo: usize, out: &mut [f32]| {
        let mut acc = [0.0f32; FUSE_BLOCK];
        let mut base = lo;
        for block in out.chunks_mut(FUSE_BLOCK) {
            let w = block.len();
            acc[..w].copy_from_slice(&lead[base..base + w]);
            for link in &chain.links {
                match *link {
                    FusedLink::Map(k) => apply_map(k, &mut acc[..w]),
                    FusedLink::ZipL(k, v) => {
                        let s = plan.node_value(arena, v.index()).data();
                        apply_zip(k, true, &mut acc[..w], &s[base..base + w]);
                    }
                    FusedLink::ZipR(k, v) => {
                        let s = plan.node_value(arena, v.index()).data();
                        apply_zip(k, false, &mut acc[..w], &s[base..base + w]);
                    }
                }
            }
            block.copy_from_slice(&acc[..w]);
            base += w;
        }
    };
    let decision = pool::cost::fan_out(chain.region(len));
    if decision.is_parallel() {
        let grain = decision.grain(len);
        let grid = pool::chunk_ranges(len, grain);
        pool::for_each_split(dst.data_mut(), &grid, |lo, chunk| run(lo, chunk));
    } else {
        run(0, dst.data_mut());
    }
}

// ---- the replay-time model --------------------------------------------------

/// Modeled sequential replay time of a plan under a set of calibrated cost
/// constants: per executable node, one step overhead (`task_ns`) plus the
/// larger of its compute time and its memory time (all operand bytes read
/// plus output bytes written). Comparing the model over a fused and an
/// unfused compile of the same tape predicts the fused replay speedup on
/// this hardware — `xtask tape-report` uses it to condition the
/// BENCH_fuse.json speedup gate, so a machine whose calibrated throughput
/// makes the speedup unattainable falls back to a no-regression bound.
pub fn modeled_replay_ns(plan: &TapePlan, consts: &pool::cost::CostConstants) -> f64 {
    let mut total = 0.0f64;
    for i in 0..plan.len() {
        let Some(cost) = plan.node_cost_at(i) else {
            continue;
        };
        let compute = cost.flops as f64 / consts.flops_per_ns.max(1e-9);
        let memory = (cost.in_bytes + cost.out_bytes) as f64 / consts.bytes_per_ns.max(1e-9);
        total += consts.task_ns + compute.max(memory);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::{optimize, optimize_with, OptConfig, VERIFY_TOL};
    use crate::{Graph, Matrix};

    fn fused_chains(plan: &TapePlan) -> Vec<&FusedChain> {
        (0..plan.len())
            .filter_map(|i| match &plan.nodes[i].kind {
                PlanKind::Fused { chain, .. } => Some(chain),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn straight_chain_fuses_into_one_super_step() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 3, vec![0.2, -0.4, 1.1, 0.9, -1.3, 0.5]));
        let a = g.mul_scalar(x, 2.0);
        let b = g.add_scalar(a, -0.5);
        let c = g.relu(b);
        let d = g.sigmoid(c);
        let out = g.sum_all(d);
        let plan = optimize(&g, &[out], &[x], "fuse::chain");
        let chains = fused_chains(&plan);
        assert_eq!(chains.len(), 1, "one maximal chain expected");
        assert_eq!(chains[0].steps(), 4, "{:?}", chains[0].names);
        assert_eq!(plan.stats().fused_chains, 1);
        assert_eq!(plan.stats().fused_steps, 4);
        plan.verify(&g, VERIFY_TOL).expect("fused replay parity");
        // Fused and unfused compiles agree bit-for-bit.
        let unfused = optimize_with(
            &g,
            &[out],
            &[x],
            "fuse::chain_off",
            OptConfig {
                fuse: false,
                ..OptConfig::default()
            },
        );
        let mut fa = Arena::new();
        let mut ua = Arena::new();
        plan.replay(&mut fa);
        unfused.replay(&mut ua);
        assert_eq!(
            plan.output_value(&fa, 0).data()[0].to_bits(),
            unfused.output_value(&ua, 0).data()[0].to_bits()
        );
    }

    /// Fail-on-old-code pin: a chain must never fuse *across* a multi-use
    /// intermediate — its value has a second reader, so it has to
    /// materialize. An eager fuser that only checked op classes would
    /// inline `sigmoid` into both consumers and either duplicate work or
    /// read a never-written buffer.
    #[test]
    fn multi_use_intermediate_is_never_fused_across() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 8, vec![0.3; 8]));
        let s = g.sigmoid(x); // two readers below: must materialize
        let a = g.add_scalar(s, 1.0);
        let b = g.mul_scalar(s, 2.0);
        let joined = g.add(a, b);
        let out = g.sum_all(joined);
        let plan = optimize(&g, &[out], &[x], "fuse::multiuse");
        // Sigmoid survives as its own (unfused) step…
        let sigmoid_steps = (0..plan.len())
            .filter(|&i| {
                matches!(
                    &plan.nodes[i].kind,
                    PlanKind::Step {
                        op: Op::Sigmoid(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(sigmoid_steps, 1, "multi-use sigmoid must materialize");
        // …and no fused chain claims it.
        for chain in fused_chains(&plan) {
            assert!(
                !chain.names.contains(&"Sigmoid"),
                "chain crossed a multi-use intermediate: {:?}",
                chain.names
            );
        }
        plan.verify(&g, VERIFY_TOL).expect("fused replay parity");
    }

    #[test]
    fn plan_outputs_are_never_absorbed() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 4, vec![0.1, 0.7, -0.2, 0.4]));
        let mid = g.tanh(x); // requested output: must stay addressable
        let y = g.mul_scalar(mid, 3.0);
        let out = g.sum_all(y);
        let plan = optimize(&g, &[out, mid], &[x], "fuse::outputs");
        plan.verify(&g, VERIFY_TOL).expect("fused replay parity");
        let mut arena = Arena::new();
        plan.replay(&mut arena);
        assert_eq!(plan.output_value(&arena, 1).shape(), (1, 4));
    }

    #[test]
    fn carry_side_of_noncommutative_zips_is_preserved() {
        // sub(ln(x), y) carries on the left; sub(y, ln(x)) on the right —
        // both must replay to exactly the recorded values.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 6, vec![0.5, 1.5, 2.5, 0.7, 1.1, 3.0]));
        let y = g.leaf(Matrix::from_vec(1, 6, vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.5]));
        let lx = g.ln(x);
        let l = g.sub(lx, y);
        let lx2 = g.exp(x);
        let r = g.sub(y, lx2);
        let j = g.mul(l, r);
        let out = g.sum_all(j);
        let plan = optimize(&g, &[out], &[x, y], "fuse::carry_side");
        assert!(
            !fused_chains(&plan).is_empty(),
            "expected at least one fused chain"
        );
        plan.verify(&g, VERIFY_TOL).expect("fused replay parity");
    }

    #[test]
    fn squaring_via_self_mul_is_not_fused_across() {
        // Mul(p, p): p occurs twice in the operand list, so `uses[p] == 2`
        // and the chain must stop — the carry holds one value per element.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 4, vec![0.2, 0.4, 0.6, 0.8]));
        let t = g.tanh(x);
        let sq = g.mul(t, t);
        let out = g.sum_all(sq);
        let plan = optimize(&g, &[out], &[x], "fuse::self_mul");
        for chain in fused_chains(&plan) {
            assert!(
                !chain.names.contains(&"Tanh"),
                "self-mul absorbed its operand: {:?}",
                chain.names
            );
        }
        plan.verify(&g, VERIFY_TOL).expect("fused replay parity");
    }

    #[test]
    fn fused_region_counts_one_memory_pass() {
        let chain = FusedChain {
            lead: Var::from_index(0),
            links: vec![
                FusedLink::Map(MapKind::Relu),
                FusedLink::ZipL(ZipKind::Add, Var::from_index(1)),
                FusedLink::Map(MapKind::Sigmoid),
            ],
            names: vec!["Relu", "Add", "Sigmoid"],
        };
        assert_eq!(chain.reads_per_elem(), 2, "lead + one zip side");
        assert_eq!(chain.flops_per_elem(), 1 + 1 + TRANSCENDENTAL_FLOPS);
        assert!(chain.has_transcendental());
        let r = chain.region(1000);
        assert_eq!(r.items, 1000);
        assert_eq!(r.bytes_per_item, 12.0, "two reads + one write");
    }
}
