//! Workspace maintenance tasks:
//! `cargo run -p xtask --
//! <lint|trace-report|chaos|determinism|race-report|serve-report|defense-report>`.
//!
//! # Shared parts
//!
//! Every bit-identity check runs through one harness, [`bit_identity`],
//! which prints each surface's digest; the campaign gates share one
//! [`Demo`], the serving gates one [`Fixture`] and [`reply_contract`], and
//! every `BENCH_*.json` is written by [`Json`].
//!
//! # `lint` — source-level checks the compiler cannot express
//!
//! Run in CI next to `cargo clippy`:
//!
//! 1. **`Op` coverage** — every variant of the tape's `Op` enum
//!    (`crates/tensor/src/graph.rs`) must be mentioned in the VJP dispatch
//!    (`grad.rs`), and every variant but `Leaf` must be built by the body
//!    of `second_order_every_op` (`crates/tensor/tests/gradcheck.rs`), which
//!    differentiates each op twice against finite differences — the Eq. 10
//!    hypergradient needs every VJP to close under double backward. A
//!    variant added to the enum but forgotten in either would otherwise
//!    surface as a runtime panic (grad) or an untested second-order rule;
//!    wildcard match arms make the compiler's exhaustiveness check
//!    insufficient.
//! 2. **No `unwrap()` in library code** — panics in the library crates must
//!    carry context (`expect`) or be handled; bare `.unwrap()` is allowed
//!    only under `#[cfg(test)]`, in `tests/`, benches, and this xtask.
//!    `crates/workload` is held to the stricter form — its `#[cfg(test)]`
//!    modules are scanned too, after two bare unwraps shipped there.
//! 3. **No panics on probe/IO results in the campaign runtime** — in
//!    `crates/core` and `crates/ce` library code, oracle probes
//!    (`explain`/`count`/`run_queries`), training results, and
//!    checkpoint/manifest IO must be propagated with `?`, never
//!    `.unwrap()`/`.expect()`-ed: a campaign that panics on a flaky probe
//!    reintroduces the exact abort the resilience layer exists to absorb.
//! 4. **No raw thread primitives outside the pool** — `thread::spawn`/
//!    `thread::scope` are allowed only in `crates/runtime`, the one
//!    sanctioned fan-out site. Everything else must go through
//!    `pace_runtime`, whose size-derived chunking keeps every parallel
//!    result bit-identical at any `PACE_THREADS` setting; an ad-hoc spawn
//!    would silently escape that contract.
//! 5. **No NaN-tolerant float sorts** — sorting float keys with
//!    `partial_cmp(..).unwrap_or(..)` silently scrambles the order the
//!    moment a NaN appears (the bug behind the degraded-estimate median);
//!    library code must filter non-finite values first and `expect` the
//!    comparison instead.
//! 6. **Pool call-site discipline** — every parallel region in library code
//!    must derive its grid from input sizes alone: `min_chunk` arguments to
//!    `chunk_ranges`/`par_chunks` must be compile-time constants or locals
//!    computed without `threads()`/environment reads, and pool call spans
//!    must not read `threads()`/env vars or touch `Mutex`/atomic shared
//!    state — the pool's indexed result slots are the only sanctioned
//!    cross-task channel. A violation reintroduces thread-count-dependent
//!    grids or racy accumulation, the two bug families `PACE_RACE` exists
//!    to catch at run time. Only coarse-grain regions remain to audit
//!    (`count_batch` over queries, seeds, bench grid cells): the matrix
//!    kernels never fan out.
//!
//! # `determinism` — the `PACE_THREADS` bit-identity gate
//!
//! Exercises two surfaces in-process at 1, 2, 4 and 8 threads, under the
//! schedule `PACE_SCHED` selects, and requires bit-identical results: batch
//! exact counting (`Executor::count_batch`, the pool's fan-out) and a
//! briefly trained CE model's full parameter vector. It prints each
//! surface's digest; CI runs it under `PACE_THREADS=1`, `PACE_THREADS=4`
//! and `PACE_SCHED=7` and diffs the process outputs byte for byte.
//!
//! # `chaos` — the fault-injection matrix
//!
//! Runs the demo campaign as a child process (`xtask chaos-campaign
//! <manifest>`, a hidden subcommand that prints a timing-free report ending
//! in the campaign fingerprint) under each `PACE_FAULTS` spec of the matrix
//! and checks the recovery contract: absorbed faults (timeout/error/corrupt
//! retries, crash + resume) must reproduce the fault-free run
//! **bit-identically**; NaN-gradient faults must still complete with finite
//! results; a hard-down oracle must fail with a typed error, not a panic.
//! The child exits 0 on a finished campaign, 2 on a typed failure, 3 on
//! non-finite q-errors after recovery, and
//! [`pace_tensor::fault::CRASH_EXIT_CODE`] when an injected crash killed it
//! (rerun with the same manifest to resume). The serving fault kinds
//! (`overload`, `slow_consumer`, `bad_update`) run in-process against the
//! [`pace_serve`] runtime: each scenario executes twice under the same spec
//! and must be bit-identical, every rejection must be typed, and a
//! corrupted hot-swap must be rejected with live traffic unharmed. A final
//! served-campaign scenario routes a whole poison campaign through the
//! hot-swap gate with a corrupted wave-1 candidate and admission overload
//! bursts armed at once: the corrupted wave must be rejected and rolled
//! back, backpressure must be observed, and the campaign — swap ledger,
//! reply log, and attack measurements — must be bit-identical across two
//! runs. See `pace_tensor::fault` for the spec grammar.
//!
//! # `trace-report` — dynamic observability of a real campaign
//!
//! With no argument: runs the demo campaign (the same recipe as
//! `chaos-campaign`) with `pace_tensor::trace` armed, then
//! renders the captured trace — a span tree with per-phase totals (gated:
//! the top-level phases must sum to within 1% of the demo's root span,
//! which like every span leaves out the time spent writing span lines)
//! and counter and histogram snapshots (with a summary line for
//! `grad_nodes`, the nodes recording backward passes appended to eager
//! tapes; value-only passes append none). A second gate requires the
//! direct children of `attack::accelerated` and of `surrogate::train` to
//! cover at least 95% of each; the child coverage of `serve::run` and
//! `serve::batch` is printed too, not gated (the demo serves nothing).
//! Writes `BENCH_trace.json` at the workspace root and finishes with a
//! disarmed-overhead gate (a disarmed counter increment must cost about
//! one relaxed atomic load). With a path argument: parses and renders an
//! existing trace file, no gates.
//!
//! # `race-report` — the concurrency-safety gate
//!
//! Two layers, both in-process (see `DESIGN.md` § Concurrency safety):
//!
//! 1. **Dynamic** — with `PACE_RACE=strict` armed, a seeded dirty write set
//!    (a grid with a hole) must panic with a typed write-set violation,
//!    while a clean `count_batch` fan-out stays silent.
//! 2. **Schedule fuzzing** — `count_batch` and a reduced demo campaign must
//!    be bit-identical across [`SCHED_SEEDS`] adversarial `PACE_SCHED`
//!    seeds × {1, 4, 8} threads.
//!
//! Finishes with a disarmed-overhead gate (the per-region `PACE_RACE` check
//! must cost about one relaxed load, ≤ 1% of a `count_batch` fan-out) and
//! writes `BENCH_race.json` at the workspace root.
//!
//! # `serve-report` — the serving-runtime SLO gate
//!
//! Drives a seeded open-loop load generator through the [`pace_serve`]
//! runtime across five virtual-time phases — ramp → rated → 2× overload
//! (the armed `overload` fault adds same-instant admission bursts on top
//! of a doubled rate) → a swap window in which a corrupted v2 snapshot is
//! rejected mid-traffic and a clean v3 lands → recovery — and gates on the
//! serving SLOs: the reply sequence must be bit-identical across repeated
//! runs and across `PACE_THREADS` 1 vs 8; every served estimate must be
//! finite and in `[0, f64::MAX]`; rated and recovery traffic must see zero
//! rejections and p99 latency within budget; overload must produce typed
//! sheds with the admission queue bounded by its cap; the bad update must
//! be rejected (`NonFiniteParams`) with zero failed well-formed requests
//! in the swap window. Writes `BENCH_serve.json` (per-phase latency
//! percentiles, shed rates, a latency histogram, and the swap log) at the
//! workspace root. Ends with a break-glass drill: an operator
//! `force_install` must activate its snapshot without shadow validation
//! and bump the `serve_force_installs` counter while the validated
//! `serve_swaps` counter stays put — an override is never mistaken for a
//! validated swap in traces.
//!
//! # `defense-report` — the served-campaign defense gate
//!
//! Runs a poison campaign *through the validated hot-swap serving path*
//! ([`pace_core::ServedVictim`]): every attacker `EXPLAIN` probe is a
//! served request, and each poison wave's retrained candidate is submitted
//! as a versioned hot-swap halfway through a window of seeded background
//! traffic. The swap gate's q-error limit is pinned relative to the clean
//! model's own shadow median ([`DEFENSE_QERR_MARGIN`]), so the report
//! measures the deployment-layer defense the paper's direct-update threat
//! model bypasses: the fraction of poison waves the pinned probe rejects
//! and rolls back. The drill uses the Lb-S waves deliberately — a single
//! full-strength PACE wave already blows the pinned median past any sane
//! margin, so the gate would reject everything and measure nothing; Lb-S
//! degrades cumulatively, and the ledger shows poison landing until the
//! accumulated damage trips the probe. Gates: the campaign must complete with zero
//! un-typed failures (every reply `Ok` or a typed [`ServeError`], every
//! swap verdict a typed [`SwapError`]); at least one wave must be
//! accepted *and* at least one rejected by the probe (the gate is neither
//! vacuous nor absolute); and the whole campaign — swap ledger with
//! virtual timestamps, reply log, and attack measurements — must be
//! bit-identical across two 1-thread runs and across `PACE_THREADS` 1
//! vs 8. Writes `BENCH_defense.json` at the workspace root.

use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::{
    run_campaign, run_served_campaign, AttackMethod, AttackOutcome, AttackerKnowledge,
    PipelineConfig, ServedTraffic, ServedVictim, Victim,
};
use pace_data::{build, Dataset, DatasetKind, Scale};
use pace_engine::{Executor, HistogramEstimator};
use pace_serve::{
    pinned_from_encoded, Phase, PinnedQuery, ReplyRecord, Request, ServeConfig, ServeError,
    ServeSummary, Server, SnapshotStore, Source, SwapError, SwapEvent, SwapOutcome,
};
use pace_tensor::fault::{self, FaultSpec};
use pace_tensor::pool::{self, race};
use pace_tensor::trace;
use pace_workload::{generate_queries, QErrorSummary, Query, QueryEncoder, Workload, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "lint" => run_gate("lint", lint),
        "trace-report" => run_gate("trace-report", trace_report),
        "chaos" => run_gate("chaos", chaos),
        // Hidden: the child process `chaos` runs under each fault spec.
        "chaos-campaign" => chaos_campaign(),
        "determinism" => run_gate("determinism", determinism),
        "race-report" => run_gate("race-report", race_report),
        "serve-report" => run_gate("serve-report", serve_report),
        "defense-report" => run_gate("defense-report", defense_report),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- \
                 <lint|trace-report|chaos|determinism|race-report|serve-report|defense-report>"
            );
            ExitCode::FAILURE
        }
    }
}

/// A gate pushes what it finds wrong to `failures` and returns the line to
/// print when nothing is, or a fatal error that stopped it early.
type Gate = fn(&mut Vec<String>) -> Result<String, String>;

/// Runs `gate`, then prints its OK line, or every failure and their count
/// and exits 1.
fn run_gate(name: &str, gate: Gate) -> ExitCode {
    let mut failures = Vec::new();
    match gate(&mut failures) {
        Ok(ok) if failures.is_empty() => {
            println!("{ok}");
            return ExitCode::SUCCESS;
        }
        Ok(_) => {}
        Err(fatal) => failures.push(fatal),
    }
    for f in &failures {
        eprintln!("xtask {name}: {f}");
    }
    eprintln!("xtask {name}: {} failure(s)", failures.len());
    ExitCode::FAILURE
}

// ---- the bit-identity harness -----------------------------------------------

/// One cell of a bit-identity matrix: the pool width and the adversarial
/// schedule (`None` is the natural one) a surface runs under.
#[derive(Clone, Copy)]
struct Cell {
    sched: Option<u64>,
    threads: usize,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PACE_THREADS={}", self.threads)?;
        match self.sched {
            Some(seed) => write!(f, " PACE_SCHED={seed}"),
            None => Ok(()),
        }
    }
}

/// One cell per entry of `threads`, all under the schedule `sched`.
fn cells(sched: Option<u64>, threads: &[usize]) -> Vec<Cell> {
    threads
        .iter()
        .map(|&threads| Cell { sched, threads })
        .collect()
}

/// The bit-identity harness: runs `image` once per cell under that cell's
/// pool width and schedule, and compares every cell's words with the first
/// cell's, the baseline. A cell that fails or diverges is pushed to
/// `failures` with the first differing word; a failing baseline stops the
/// run. Prints and returns the baseline's FNV digest. `image` gets the
/// cell's index, so runs that write files can keep them apart.
fn bit_identity(
    surface: &str,
    cells: &[Cell],
    failures: &mut Vec<String>,
    mut image: impl FnMut(usize) -> Result<Vec<u64>, String>,
) -> Option<u64> {
    let entry = (race::sched_seed(), pool::threads());
    let mut run = |i: usize| {
        race::set_sched(cells[i].sched);
        pool::set_threads(cells[i].threads);
        image(i)
    };
    let digest = match run(0) {
        Err(e) => {
            failures.push(format!(
                "{surface}: the baseline ({}) failed: {e}",
                cells[0]
            ));
            None
        }
        Ok(base) => {
            for (i, cell) in cells.iter().enumerate().skip(1) {
                match run(i) {
                    Err(e) => failures.push(format!("{surface}: cell {i} ({cell}) failed: {e}")),
                    Ok(words) => {
                        if let Some(at) = first_difference(&base, &words) {
                            failures.push(format!(
                                "{surface}: cell {i} ({cell}) diverges from the baseline ({}) \
                                 at {at}",
                                cells[0]
                            ));
                        }
                    }
                }
            }
            let digest = fnv(&base);
            println!(
                "{surface}: digest {digest:016x} over {} words, {} cells compared",
                base.len(),
                cells.len()
            );
            Some(digest)
        }
    };
    race::set_sched(entry.0);
    pool::set_threads(entry.1);
    digest
}

/// The first word at which `b` differs from `a`, or `None` when equal.
fn first_difference(a: &[u64], b: &[u64]) -> Option<String> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(format!("word {i} ({:#018x} vs {:#018x})", a[i], b[i])),
        None if a.len() != b.len() => Some(format!(
            "word {} (length {} vs {})",
            a.len().min(b.len()),
            a.len(),
            b.len()
        )),
        None => None,
    }
}

/// FNV-1a over the little-endian bytes of `words`: the digest the harness
/// prints, and the campaign fingerprint `chaos-campaign` prints.
fn fnv(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the `Debug` text of a typed error or verdict (whose floats print
/// round-trip exact) as a length word and the text's bytes, eight a word.
fn push_debug(words: &mut Vec<u64>, v: &impl std::fmt::Debug) {
    let text = format!("{v:?}");
    words.push(text.len() as u64);
    words.extend(text.as_bytes().chunks(8).map(|c| {
        let mut b = [0u8; 8];
        b[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(b)
    }));
}

/// The image of a reply sequence: each request's id and arrival, then its
/// estimate, source and completion time, or its typed rejection.
fn reply_words(records: &[ReplyRecord]) -> Vec<u64> {
    let mut words = Vec::new();
    for r in records {
        words.extend([r.id, r.arrival.to_bits()]);
        match &r.outcome {
            Ok(reply) => words.extend([
                0,
                reply.estimate.to_bits(),
                reply.source as u64,
                reply.completed_at.to_bits(),
            ]),
            Err(e) => {
                words.push(1);
                push_debug(&mut words, e);
            }
        }
    }
    words
}

/// The image of a finished campaign: both q-error summaries, the
/// divergence, the poison batch, and the swap ledger of a served campaign.
fn outcome_words(o: &AttackOutcome) -> Vec<u64> {
    let mut words = Vec::new();
    for s in [&o.clean, &o.poisoned] {
        words.extend([s.mean, s.median, s.p90, s.p95, s.p99, s.max].map(f64::to_bits));
    }
    words.push(o.divergence.to_bits());
    for q in &o.poison {
        words.extend(q.tables.iter().map(|&t| t as u64));
        for p in &q.predicates {
            words.extend([p.table as u64, p.col as u64, p.lo as u64, p.hi as u64]);
        }
    }
    for sw in &o.swaps {
        words.extend([sw.wave, sw.version, sw.at.to_bits()]);
        push_debug(&mut words, &sw.result);
    }
    words
}

/// The campaign fingerprint's words: the outcome's image and the poisoned
/// victim's serialized parameters, one byte a word. Two runs with the same
/// image reached the same final state.
fn campaign_image(outcome: &AttackOutcome, victim: &Victim<'_>) -> Result<Vec<u64>, String> {
    let mut words = outcome_words(outcome);
    let mut params = Vec::new();
    pace_tensor::serialize::write_params(victim.model().params(), &mut params)
        .map_err(|e| format!("cannot serialize the poisoned model: {e}"))?;
    words.extend(params.into_iter().map(u64::from));
    Ok(words)
}

// ---- the demo campaign ------------------------------------------------------

/// The demo campaign every campaign gate runs: quick TPC-H, history and
/// test queries of up to three tables from a 142-seeded RNG, an FCN victim
/// seeded 42 and trained with a fresh 242-seeded RNG, and a PACE campaign
/// with a fixed FCN surrogate (speculation keys off wall-clock latency and
/// would make the campaign non-deterministic). Setup, victim training and
/// the campaign are separate steps so trace-report can span each one.
struct Demo {
    ds: Dataset,
    history: Vec<Query>,
    test: Workload,
    data: EncodedWorkload,
    k: AttackerKnowledge,
    cfg: PipelineConfig,
}

impl Demo {
    /// Builds the dataset at `data_seed` and labels both workloads.
    fn setup(data_seed: u64, history: usize, test: usize) -> Self {
        let ds = build(DatasetKind::Tpch, Scale::quick(), data_seed);
        let spec = WorkloadSpec {
            max_join_tables: 3,
            ..WorkloadSpec::default()
        };
        let exec = Executor::new(&ds);
        let mut rng = StdRng::seed_from_u64(142);
        let history = generate_queries(&ds, &spec, &mut rng, history);
        let test = exec.label_nonzero(generate_queries(&ds, &spec, &mut rng, test));
        let labeled = exec.label_nonzero(history.clone());
        let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
        Self {
            k: AttackerKnowledge::from_public(&ds, spec),
            cfg: PipelineConfig {
                surrogate_type: Some(CeModelType::Fcn),
                ..PipelineConfig::quick()
            },
            ds,
            history,
            test,
            data,
        }
    }

    fn train_victim(&self) -> Result<Victim<'_>, String> {
        let mut model = CeModel::new(CeModelType::Fcn, &self.ds, CeConfig::quick(), 42);
        model
            .train(&self.data, &mut StdRng::seed_from_u64(242))
            .map_err(|e| format!("victim training failed: {e}"))?;
        Ok(Victim::new(
            model,
            Executor::new(&self.ds),
            self.history.clone(),
        ))
    }

    /// Runs the resumable campaign, persisting its waves at `manifest`.
    fn run(&self, victim: &mut Victim<'_>, manifest: &Path) -> Result<AttackOutcome, String> {
        run_campaign(
            victim,
            AttackMethod::Pace,
            &self.test,
            &self.k,
            &self.cfg,
            manifest,
        )
        .map_err(|e| format!("campaign failed: {e}"))
    }
}

/// True when every statistic of `s` is finite.
fn finite(s: &QErrorSummary) -> bool {
    [s.mean, s.median, s.p90, s.p95, s.p99, s.max]
        .iter()
        .all(|v| v.is_finite())
}

// ---- BENCH_*.json and disarmed-overhead timing ------------------------------

/// A JSON value for the `BENCH_*.json` reports. A `Lit` is a number,
/// formatted at the precision the report prints, a quoted string or `null`.
enum Json {
    Lit(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn num(v: f64, decimals: usize) -> Self {
        Self::Lit(format!("{v:.decimals$}"))
    }

    fn int(v: impl std::fmt::Display) -> Self {
        Self::Lit(v.to_string())
    }

    fn str(s: &str) -> Self {
        Self::Lit(format!(
            "\"{}\"",
            s.replace('\\', "\\\\").replace('"', "\\\"")
        ))
    }

    fn opt(v: Option<u64>) -> Self {
        v.map_or_else(|| Self::Lit("null".into()), Self::int)
    }

    fn obj<const N: usize>(fields: [(&str, Json); N]) -> Self {
        Self::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
    }

    fn render(&self, out: &mut String, depth: usize) {
        let (open, close, items): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Self::Lit(s) => return out.push_str(s),
            Self::Arr(v) => ('[', ']', v.iter().map(|j| (None, j)).collect()),
            Self::Obj(f) => (
                '{',
                '}',
                f.iter().map(|(k, j)| (Some(k.as_str()), j)).collect(),
            ),
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n{}", "  ".repeat(depth + 1)));
            if let Some(key) = key {
                out.push_str(&format!("\"{key}\": "));
            }
            value.render(out, depth + 1);
        }
        if !items.is_empty() {
            out.push_str(&format!("\n{}", "  ".repeat(depth)));
        }
        out.push(close);
    }

    /// Writes the report at the workspace root and says so.
    fn write(&self, name: &str, failures: &mut Vec<String>) {
        let path = workspace_root().join(name);
        let mut text = String::new();
        self.render(&mut text, 0);
        text.push('\n');
        match std::fs::write(&path, text) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// The `totals` block the serving reports share.
fn totals_json(s: &ServeSummary) -> Json {
    Json::obj([
        ("requests", Json::int(s.requests)),
        ("shed", Json::int(s.shed)),
        ("fallback_served", Json::int(s.fallback_served)),
        ("learned_served", Json::int(s.learned_served)),
        ("deadline_missed", Json::int(s.deadline_missed)),
        ("batches", Json::int(s.batches)),
    ])
}

/// Windows the disarmed-overhead gates time, keeping the fastest: a busy
/// host only slows a window down, so the fastest is the closest to the
/// code's own cost.
const TIMING_WINDOWS: usize = 5;

/// Calls per window when timing a one-load operation.
const LOAD_CALLS: u64 = 4_000_000;

/// Nanoseconds per call of `op`: the fastest of [`TIMING_WINDOWS`] windows
/// of `calls` calls each, after one untimed window.
fn best_ns_per_call(calls: u64, mut op: impl FnMut()) -> f64 {
    let mut window = || {
        let t0 = Instant::now();
        for _ in 0..calls {
            op();
        }
        t0.elapsed().as_secs_f64() * 1e9 / calls as f64
    };
    window();
    (0..TIMING_WINDOWS)
        .map(|_| window())
        .fold(f64::INFINITY, f64::min)
}

/// The cost of one relaxed atomic load, the unit both disarmed-overhead
/// bounds are written in.
fn relaxed_load_ns() -> f64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static BASELINE: AtomicU64 = AtomicU64::new(7);
    best_ns_per_call(LOAD_CALLS, || {
        black_box(BASELINE.load(Ordering::Relaxed));
    })
}

// ---- trace-report -----------------------------------------------------------

/// One span event parsed back out of the trace file, re-linked to the spans
/// it encloses.
struct TraceSpan {
    name: String,
    idx: Option<u64>,
    tid: u64,
    depth: u64,
    start: u64,
    dur: u64,
    children: Vec<usize>,
}

/// Everything the report renders, parsed from one trace file.
struct TraceData {
    spans: Vec<TraceSpan>,
    roots: Vec<usize>,
    counters: Vec<(String, u64)>,
    hists: BTreeMap<String, Vec<(u64, u64)>>,
}

/// Parses a JSONL trace and reconstructs span nesting.
///
/// Spans are emitted at *close*, so children precede parents in the file;
/// the tree is rebuilt by sorting each thread's spans by start time and
/// matching recorded depths.
fn parse_trace(text: &str) -> TraceData {
    use trace::read::Value;
    let mut spans: Vec<TraceSpan> = Vec::new();
    let mut counters = Vec::new();
    let mut hists: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    for line in text.lines() {
        let Some(obj) = trace::read::parse_line(line) else {
            continue;
        };
        let str_of = |k: &str| obj.get(k).and_then(Value::as_str).map(str::to_string);
        let u64_of = |k: &str| obj.get(k).and_then(Value::as_u64);
        match obj.get("ev").and_then(Value::as_str) {
            Some("span") => {
                let (Some(name), Some(tid), Some(depth), Some(start), Some(dur)) = (
                    str_of("name"),
                    u64_of("tid"),
                    u64_of("depth"),
                    u64_of("start_ns"),
                    u64_of("dur_ns"),
                ) else {
                    continue;
                };
                spans.push(TraceSpan {
                    name,
                    idx: u64_of("idx"),
                    tid,
                    depth,
                    start,
                    dur,
                    children: Vec::new(),
                });
            }
            Some("counter") => {
                if let (Some(name), Some(value)) = (str_of("name"), u64_of("value")) {
                    counters.push((name, value));
                }
            }
            Some("hist") => {
                if let (Some(name), Some(lo), Some(count)) =
                    (str_of("name"), u64_of("bucket_lo"), u64_of("count"))
                {
                    hists.entry(name).or_default().push((lo, count));
                }
            }
            _ => {}
        }
    }
    // Nesting: within a thread, a span's parent is the most recent span at
    // `depth - 1` that started before it.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start, spans[i].depth));
    let mut roots = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut cur_tid = None;
    for &i in &order {
        if cur_tid != Some(spans[i].tid) {
            stack.clear();
            cur_tid = Some(spans[i].tid);
        }
        while stack
            .last()
            .is_some_and(|&top| spans[top].depth >= spans[i].depth)
        {
            stack.pop();
        }
        match stack.last().copied() {
            Some(p) if spans[p].depth + 1 == spans[i].depth => spans[p].children.push(i),
            _ => roots.push(i),
        }
        stack.push(i);
    }
    TraceData {
        spans,
        roots,
        counters,
        hists,
    }
}

/// Prints one tree level, aggregating sibling spans that share a name
/// (e.g. hundreds of `oracle::explain` probes become one `×N` line).
fn print_span_group(spans: &[TraceSpan], nodes: &[usize], indent: usize) {
    let mut order: Vec<&str> = Vec::new();
    let mut groups: BTreeMap<&str, (u64, u64, Vec<usize>, usize)> = BTreeMap::new();
    for &i in nodes {
        let s = &spans[i];
        let e = groups.entry(s.name.as_str()).or_insert_with(|| {
            order.push(s.name.as_str());
            (0, 0, Vec::new(), i)
        });
        e.0 += 1;
        e.1 += s.dur;
        e.2.extend_from_slice(&s.children);
    }
    for name in order {
        let (count, total, children, first) = &groups[name];
        let label = if *count > 1 {
            format!("{name} ×{count}")
        } else if let Some(idx) = spans[*first].idx {
            format!("{name} #{idx}")
        } else {
            name.to_string()
        };
        let pad = "  ".repeat(indent);
        let width = 46usize.saturating_sub(pad.len());
        println!("  {pad}{label:<width$} {:>10.2} ms", *total as f64 / 1e6);
        print_span_group(spans, children, indent + 1);
    }
}

/// Spans whose direct children must cover at least
/// [`MIN_CHILD_COVERAGE`] of their time: the attack loop, whose detector
/// training once ran outside any child span, and surrogate training, whose
/// imitation epochs did.
const COVERED_SPANS: [&str; 2] = ["attack::accelerated", "surrogate::train"];
const MIN_CHILD_COVERAGE: f64 = 0.95;
/// Spans whose child coverage is reported but not gated: the serving
/// runtime's, which the demo campaign never enters (perfbench's serve
/// segments do), and whose admission work runs outside any child span.
const REPORTED_SPANS: [&str; 2] = ["serve::run", "serve::batch"];

/// The share of the total time of every span named `name` that their
/// direct children account for; `None` when no such span was recorded.
fn child_coverage(t: &TraceData, name: &str) -> Option<f64> {
    let (mut parent, mut children) = (0u64, 0u64);
    for s in t.spans.iter().filter(|s| s.name == name) {
        parent += s.dur;
        children += s.children.iter().map(|&c| t.spans[c].dur).sum::<u64>();
    }
    (parent > 0).then(|| children as f64 / parent as f64)
}

/// Renders the parsed trace: span tree, counters, histograms, and the
/// child coverage of [`COVERED_SPANS`] and [`REPORTED_SPANS`].
fn print_trace_report(t: &TraceData) {
    println!("spans ({} recorded):", t.spans.len());
    print_span_group(&t.spans, &t.roots, 0);
    if !t.counters.is_empty() {
        println!("\ncounters:");
        for (name, value) in &t.counters {
            println!("  {name:<28} {value}");
        }
    }
    if !t.hists.is_empty() {
        println!("\nhistograms (power-of-two buckets):");
        for (name, buckets) in &t.hists {
            let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
            println!("  {name} ({total} samples)");
            for &(lo, count) in buckets {
                println!("    >= {lo:<12} {count}");
            }
        }
    }
    println!("\nchild coverage:");
    let gated = COVERED_SPANS.map(|n| (n, ""));
    let reported = REPORTED_SPANS.map(|n| (n, "  (reported, not gated)"));
    for (name, note) in gated.into_iter().chain(reported) {
        match child_coverage(t, name) {
            Some(c) => println!("  {name:<24} {:>6.2}%{note}", c * 100.0),
            None => println!("  {name:<24} not recorded{note}"),
        }
    }
}

/// Runs the demo campaign with tracing armed, every stage inside an
/// explicit phase span so the phase totals tile the run. Returns the
/// measured wall time.
fn run_traced_demo(trace_path: &Path, work_dir: &Path) -> Result<f64, String> {
    trace::reset_metrics();
    trace::install(Some(trace_path.to_path_buf()));
    let wall0 = Instant::now();
    let result = (|| -> Result<(), String> {
        let _root = trace::span("trace-report::demo");
        let demo = {
            let _p = trace::span("demo::setup");
            Demo::setup(42, 400, 80)
        };
        let mut victim = {
            let _p = trace::span("demo::train-victim");
            demo.train_victim()?
        };
        let outcome = {
            let _p = trace::span("demo::campaign");
            demo.run(&mut victim, &work_dir.join("demo.campaign"))?
        };
        {
            let _p = trace::span("demo::evaluate");
            if !finite(&outcome.clean) || !finite(&outcome.poisoned) {
                return Err("non-finite q-errors in the demo campaign".to_string());
            }
            println!(
                "demo campaign: clean median q-error {:.4}, poisoned {:.4}, {} poison queries",
                outcome.clean.median,
                outcome.poisoned.median,
                outcome.poison.len()
            );
        }
        Ok(())
    })();
    let wall = wall0.elapsed().as_secs_f64();
    trace::flush();
    trace::install(None);
    result.map(|()| wall)
}

/// The disarmed-overhead gate: with tracing off, a counter increment must
/// cost about one relaxed atomic load. Generous bound (4× + 2 ns) so CI
/// noise cannot flake it; a regression to a mutex or SeqCst fence is orders
/// of magnitude beyond it.
fn check_disarmed_counter(failures: &mut Vec<String>) {
    trace::install(None);
    trace::reset_metrics();
    let disarmed_ns = best_ns_per_call(LOAD_CALLS, || trace::MATMUL_FLOPS.add(black_box(1)));
    let baseline_ns = relaxed_load_ns();
    let counted = trace::MATMUL_FLOPS.get();
    println!(
        "\ndisarmed overhead: Counter::add {disarmed_ns:.2} ns/op, \
         relaxed-load baseline {baseline_ns:.2} ns/op"
    );
    if counted != 0 {
        failures.push(format!("disarmed counter counted {counted} increments"));
    }
    if disarmed_ns > baseline_ns * 4.0 + 2.0 {
        failures.push(format!(
            "disarmed counter increment costs {disarmed_ns:.2} ns — \
             more than one relaxed load's worth ({baseline_ns:.2} ns)"
        ));
    }
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn trace_report(failures: &mut Vec<String>) -> Result<String, String> {
    if let Some(path) = std::env::args().nth(2) {
        // Report-only mode: render an existing trace, no demo, no gates.
        print_trace_report(&parse_trace(&read_text(Path::new(&path))?));
        return Ok(format!("trace-report: rendered {path}"));
    }

    let trace_path = workspace_root().join("pace_trace.jsonl");
    let work_dir = scratch_dir("pace-trace-report")?;
    println!("trace-report: running the traced demo campaign (quick TPC-H, PACE)...");
    let demo = run_traced_demo(&trace_path, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let wall_s = demo?;
    let text = read_text(&trace_path)?;
    let t = parse_trace(&text);
    println!(
        "\ntrace: {} ({} lines)",
        trace_path.display(),
        text.lines().count()
    );
    print_trace_report(&t);

    // Per-phase totals: the demo root's direct children, which tile it.
    let Some(&root_span) = t
        .roots
        .iter()
        .find(|&&i| t.spans[i].name == "trace-report::demo")
    else {
        return Err("demo root span missing from the trace".into());
    };
    let mut phases: Vec<(String, u64, u64)> = Vec::new();
    for &c in &t.spans[root_span].children {
        let s = &t.spans[c];
        match phases.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(p) => {
                p.1 += 1;
                p.2 += s.dur;
            }
            None => phases.push((s.name.clone(), 1, s.dur)),
        }
    }
    let phase_s: f64 = phases.iter().map(|&(_, _, ns)| ns as f64 / 1e9).sum();
    // Span times leave out the time spent writing span lines, and the wall
    // time does not, so the phases are held to the demo's root span, which
    // covers the same work on the same clock.
    let demo_s = t.spans[root_span].dur as f64 / 1e9;
    println!("\nper-phase totals:");
    for (name, _, ns) in &phases {
        let s = *ns as f64 / 1e9;
        println!(
            "  {name:<24} {s:>8.3} s  ({:>5.1}% of the demo span)",
            s / demo_s * 100.0
        );
    }
    println!(
        "  {:<24} {phase_s:>8.3} s  (demo span {demo_s:.3} s, wall {wall_s:.3} s, coverage \
         {:.2}%)",
        "sum",
        phase_s / demo_s * 100.0
    );
    let grad_nodes = t
        .counters
        .iter()
        .find(|(name, _)| name == trace::GRAD_NODES.name())
        .map_or(0, |&(_, n)| n);
    println!(
        "autograd: recording backward passes (Graph::grad) appended {grad_nodes} nodes \
         across the demo"
    );

    Json::obj([
        ("wall_s", Json::num(wall_s, 6)),
        (
            "phases",
            Json::Arr(
                phases
                    .iter()
                    .map(|(name, count, ns)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("count", Json::int(count)),
                            ("seconds", Json::num(*ns as f64 / 1e9, 6)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Obj(
                t.counters
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::int(value)))
                    .collect(),
            ),
        ),
    ])
    .write("BENCH_trace.json", failures);

    if (phase_s - demo_s).abs() / demo_s > 0.01 {
        failures.push(format!(
            "phase totals ({phase_s:.3} s) diverge from the demo span ({demo_s:.3} s) by more \
             than 1% — untraced work inside the demo"
        ));
    }
    for name in COVERED_SPANS {
        match child_coverage(&t, name) {
            Some(c) if c >= MIN_CHILD_COVERAGE => {}
            Some(c) => failures.push(format!(
                "the children of {name} cover {:.2}% of it, below {:.0}% — untraced work \
                 inside it",
                c * 100.0,
                MIN_CHILD_COVERAGE * 100.0
            )),
            None => failures.push(format!("no {name} span in the demo trace")),
        }
    }
    check_disarmed_counter(failures);
    Ok("trace-report: OK".into())
}

// ---- lint -------------------------------------------------------------------

/// The lint rules, numbered as in the module docs.
const LINTS: [fn(&Path, &mut Vec<String>); 6] = [
    check_op_coverage,
    check_no_unwrap,
    check_no_probe_panics,
    check_no_raw_threads,
    check_no_nan_sort,
    check_pool_call_discipline,
];

fn lint(failures: &mut Vec<String>) -> Result<String, String> {
    let root = workspace_root();
    for check in LINTS {
        check(&root, failures);
    }
    Ok("xtask lint: OK".into())
}

/// The workspace root: this binary's manifest lives at `crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace two levels up")
        .to_path_buf()
}

/// A fresh directory `<prefix>-<pid>` under the system temp dir.
fn scratch_dir(prefix: &str) -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("{prefix}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn read(root: &Path, rel: &str) -> String {
    let path = root.join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("xtask lint: cannot read {}: {e}", path.display()))
}

/// The text between the `{` that ends `header` in `src` and its matching
/// `}`.
fn braced_body<'a>(src: &'a str, header: &str, what: &str) -> &'a str {
    let start = src
        .find(header)
        .unwrap_or_else(|| panic!("{what} declares `{header}`"))
        + header.len();
    let mut depth = 1usize;
    for (i, ch) in src[start..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &src[start..start + i];
                }
            }
            _ => {}
        }
    }
    &src[start..]
}

/// Extracts the variant names of `enum Op` from the graph source.
fn op_variants(graph_src: &str) -> Vec<String> {
    let body = braced_body(graph_src, "enum Op {", "crates/tensor/src/graph.rs");
    let mut variants = Vec::new();
    // Variant declarations sit at brace depth 0 within the enum body, at the
    // start of a line (after doc comments), shaped `Name` or `Name(...),`.
    let mut brace = 0i32;
    let mut paren = 0i32;
    for line in body.lines() {
        let trimmed = line.trim();
        if brace == 0
            && paren == 0
            && !trimmed.is_empty()
            && !trimmed.starts_with("//")
            && !trimmed.starts_with('#')
            && trimmed
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
        {
            let name: String = trimmed
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                variants.push(name);
            }
        }
        for ch in trimmed.chars() {
            match ch {
                '{' => brace += 1,
                '}' => brace -= 1,
                '(' => paren += 1,
                ')' => paren -= 1,
                _ => {}
            }
        }
    }
    variants
}

/// The VJP dispatch, which must mention every `Op` variant.
const VJP_FILE: &str = "crates/tensor/src/grad.rs";

/// The test whose body must build every non-`Leaf` `Op` variant.
const SECOND_ORDER_FILE: &str = "crates/tensor/tests/gradcheck.rs";

/// The non-`Leaf` variants whose constructor the body of
/// `second_order_every_op` in `gradcheck_src` never calls. A constructor is
/// the variant's snake_case name (`RepeatCols` → `.repeat_cols(`); names
/// are compared lowercased without underscores, so `MatMul` is `.matmul(`.
fn second_order_gaps(variants: &[String], gradcheck_src: &str) -> Vec<String> {
    let body = braced_body(
        gradcheck_src,
        "fn second_order_every_op() {",
        SECOND_ORDER_FILE,
    );
    let called: std::collections::HashSet<String> = body
        .split('.')
        .skip(1)
        .filter_map(|rest| {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            rest[name.len()..]
                .starts_with('(')
                .then(|| name.replace('_', ""))
        })
        .collect();
    variants
        .iter()
        .filter(|v| *v != "Leaf" && !called.contains(&v.to_ascii_lowercase()))
        .cloned()
        .collect()
}

fn check_op_coverage(root: &Path, failures: &mut Vec<String>) {
    let graph_src = read(root, "crates/tensor/src/graph.rs");
    let variants = op_variants(&graph_src);
    if variants.len() < 30 {
        failures.push(format!(
            "crates/tensor/src/graph.rs: expected to parse the full Op enum, found only \
             {} variant(s) — the lint's parser may be out of date",
            variants.len()
        ));
        return;
    }
    let src = read(root, VJP_FILE);
    for v in &variants {
        let mentioned = src.contains(&format!("Op::{v}(")) // pattern with operands
            || src.contains(&format!("Op::{v} ")) // bare pattern in match arm
            || src.contains(&format!("Op::{v},"))
            || src.contains(&format!("Op::{v} =>"));
        if !mentioned {
            failures.push(format!(
                "{VJP_FILE}: Op::{v} is not handled (no `Op::{v}` mention)"
            ));
        }
    }
    for v in second_order_gaps(&variants, &read(root, SECOND_ORDER_FILE)) {
        failures.push(format!(
            "{SECOND_ORDER_FILE}: second_order_every_op never builds Op::{v}"
        ));
    }
}

/// True for paths whose `.unwrap()` calls are exempt from the lint.
fn unwrap_exempt(rel: &Path) -> bool {
    let s = rel.to_string_lossy();
    s.starts_with("crates/xtask/")
        || s.starts_with("vendor/")
        || s.contains("/tests/")
        || s.contains("/benches/")
        || s.contains("/examples/")
        || s.starts_with("tests/")
        || s.starts_with("target/")
}

fn check_no_unwrap(root: &Path, failures: &mut Vec<String>) {
    for (rel, src) in sources(root, &["crates"], unwrap_exempt) {
        failures.extend(unwrap_violations(&rel, &src));
    }
}

/// Bare-`.unwrap()` violations in one file. Most crates get the rule on
/// library code only (`#[cfg(test)]` items are stripped); the `workload`
/// crate is scanned in full, including its test modules — bare unwraps
/// crept back in through exactly that gap once.
fn unwrap_violations(rel: &Path, src: &str) -> Vec<String> {
    let full_coverage = rel.to_string_lossy().starts_with("crates/workload/");
    let lines: Vec<(usize, &str)> = if full_coverage {
        src.lines().enumerate().map(|(i, l)| (i + 1, l)).collect()
    } else {
        strip_test_modules(src)
    };
    let mut out = Vec::new();
    for (line_no, line) in lines {
        let code = line.split("//").next().unwrap_or(line);
        if code.contains(".unwrap()") {
            out.push(format!(
                "{}:{}: `.unwrap()` in library code — use `expect` with context or \
                 handle the error",
                rel.display(),
                line_no
            ));
        }
    }
    out
}

/// Every `.rs` file under `dirs` that `exempt` does not skip, as its
/// root-relative path and its text.
fn sources(root: &Path, dirs: &[&str], exempt: fn(&Path) -> bool) -> Vec<(PathBuf, String)> {
    let mut paths = Vec::new();
    for dir in dirs {
        collect_rs(&root.join(dir), root, &mut paths);
    }
    paths
        .into_iter()
        .filter(|rel| !exempt(rel))
        .map(|rel| {
            let src = read(root, &rel.to_string_lossy());
            (rel, src)
        })
        .collect()
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// Yields `(line_number, line)` for lines outside `#[cfg(test)]` items.
///
/// Brace-counting heuristic: when a line contains `#[cfg(test)]`, skip until
/// the braces opened by the following item close again. Good enough for this
/// workspace's rustfmt-formatted sources; not a general Rust parser.
fn strip_test_modules(src: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((i, line)) = lines.next() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            let mut depth = 0i32;
            let mut opened = false;
            for (_, l) in lines.by_ref() {
                for ch in l.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
            }
            continue;
        }
        out.push((i + 1, line));
    }
    out
}

/// Tokens marking a fallible probe / training / persistence call whose
/// result must be propagated in the campaign-runtime crates.
const PROBE_TOKENS: [&str; 9] = [
    ".explain(",
    ".explain_timed(",
    ".count(",
    ".run_queries(",
    "read_params(",
    "write_params(",
    "read_checkpoint(",
    "write_checkpoint(",
    "load_manifest(",
];

/// In `crates/core` and `crates/ce` library code, probe/IO results must not
/// be `.unwrap()`/`.expect()`-ed — they carry the typed failure surface the
/// resilience layer recovers from.
fn check_no_probe_panics(root: &Path, failures: &mut Vec<String>) {
    for (rel, src) in sources(root, &["crates/core/src", "crates/ce/src"], |_| false) {
        for (line_no, line) in strip_test_modules(&src) {
            let code = line.split("//").next().unwrap_or(line);
            let panics = code.contains(".unwrap()") || code.contains(".expect(");
            if panics && PROBE_TOKENS.iter().any(|t| code.contains(t)) {
                failures.push(format!(
                    "{}:{}: panicking on a probe/IO result — propagate the error with `?` \
                     so the campaign runtime can retry, degrade, or resume",
                    rel.display(),
                    line_no
                ));
            }
        }
    }
}

/// Raw thread primitives; only `crates/runtime` (the pool's scoped fan-out)
/// may use them.
const THREAD_TOKENS: [&str; 2] = ["thread::spawn(", "thread::scope("];

/// Every fan-out outside the pool crate must go through `pace_runtime`:
/// an ad-hoc `thread::spawn`/`thread::scope` escapes the size-derived
/// chunking and ordered reduction that make results `PACE_THREADS`-invariant.
fn check_no_raw_threads(root: &Path, failures: &mut Vec<String>) {
    // crates/xtask is exempt because this lint's own token table would
    // match itself; it is tooling, not product code.
    let exempt = |rel: &Path| rel.starts_with("crates/runtime") || rel.starts_with("crates/xtask");
    for (rel, src) in sources(root, &["crates"], exempt) {
        for (line_no, line) in src.lines().enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            if THREAD_TOKENS.iter().any(|t| code.contains(t)) {
                failures.push(format!(
                    "{}:{}: raw thread primitive outside crates/runtime — fan out through \
                     `pace_runtime` so results stay thread-count invariant",
                    rel.display(),
                    line_no + 1
                ));
            }
        }
    }
}

/// True when `code` sorts float keys NaN-tolerantly: a `partial_cmp` whose
/// `None` is absorbed by `.unwrap_or(..)` / `.unwrap_or_else(..)` /
/// `.unwrap_or_default()`. One NaN key then scrambles the whole sort order
/// (the comparator stops being a strict weak ordering), which is how the
/// degraded-estimate median came to return garbage instead of failing.
fn is_nan_tolerant_sort(code: &str) -> bool {
    code.contains("partial_cmp") && code.contains(".unwrap_or")
}

/// Library code must filter non-finite values *before* sorting and then
/// `expect` the comparison; swallowing the `None` hides the NaN.
///
/// Checks each line and each pair of adjacent lines (rustfmt likes to split
/// `partial_cmp(b)` and the `.unwrap_or(..)` across lines).
fn check_no_nan_sort(root: &Path, failures: &mut Vec<String>) {
    for (rel, src) in sources(root, &["crates"], unwrap_exempt) {
        let lines = strip_test_modules(&src);
        for w in 0..lines.len() {
            let (line_no, line) = lines[w];
            let code = line.split("//").next().unwrap_or(line).to_string();
            let hit = if is_nan_tolerant_sort(&code) {
                true
            } else if let Some(&(next_no, next)) = lines.get(w + 1) {
                // Only join physically adjacent lines; a gap means the two
                // tokens belong to different expressions.
                next_no == line_no + 1 && {
                    let joined = format!("{code}{}", next.split("//").next().unwrap_or(next));
                    // Report a split pattern once, at its first line.
                    is_nan_tolerant_sort(&joined) && !is_nan_tolerant_sort(next)
                }
            } else {
                false
            };
            if hit {
                failures.push(format!(
                    "{}:{}: `partial_cmp(..).unwrap_or(..)` on a float sort key silently \
                     scrambles the order on NaN — filter non-finite values first and \
                     `expect` the comparison",
                    rel.display(),
                    line_no
                ));
            }
        }
    }
}

// ---- pool call-site discipline ----------------------------------------------

/// Pool entry points whose call spans are audited. `chunk_ranges` and
/// `par_chunks` additionally get their `min_chunk` argument checked.
const POOL_PRIMITIVES: [&str; 5] = [
    "::run(",
    "::par_map(",
    "::par_try_map(",
    "::par_chunks(",
    "::chunk_ranges(",
];

/// Tokens that must not appear anywhere inside a pool call span. The first
/// three make the grid or the task body depend on the thread count or the
/// environment (breaking `PACE_THREADS` bit-identity); the rest are shared
/// mutable state — cross-task communication outside the pool's indexed
/// result slots, i.e. ordering-dependent results at best and a data race at
/// worst.
const REGION_FORBIDDEN: [&str; 8] = [
    "threads()",
    "env::var",
    "available_parallelism",
    "Mutex",
    "RwLock",
    "Atomic",
    "fetch_add(",
    ".store(",
];

/// Tokens that disqualify a local `let` binding from serving as a
/// `min_chunk` argument: the grid must be a pure function of input sizes.
const MIN_CHUNK_FORBIDDEN: [&str; 3] = ["threads()", "env::var", "available_parallelism"];

/// Paths exempt from the pool-discipline lint: the pool itself (its
/// internals *are* the slot primitives), tooling, and test/bench code.
fn pool_discipline_exempt(rel: &Path) -> bool {
    unwrap_exempt(rel) || rel.to_string_lossy().starts_with("crates/runtime/")
}

/// The balanced-paren call span starting at `open` (the index of `(`),
/// exclusive of the outer parens. `None` if the parens never balance.
/// Naive about parens inside string literals — fine for this workspace's
/// call sites, and a false hit fails loudly rather than silently passing.
fn call_span(text: &str, open: usize) -> Option<&str> {
    let mut depth = 0i32;
    for (i, ch) in text[open..].char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[open + 1..open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits a call span at top-level commas, stopping at the first top-level
/// `|` (the trailing closure — its parameter list would otherwise
/// over-split). Everything from the `|` on lands in the final argument.
fn top_level_args(span: &str) -> Vec<&str> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, ch) in span.char_indices() {
        match ch {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                args.push(&span[start..i]);
                start = i + 1;
            }
            '|' if depth == 0 => break,
            _ => {}
        }
    }
    args.push(&span[start..]);
    args
}

/// True when `arg` is an acceptable `min_chunk`: a numeric literal, a
/// `SCREAMING_CASE` constant path, or a local identifier whose `let`
/// initializer (searched in `text`) contains none of
/// [`MIN_CHUNK_FORBIDDEN`]. Anything else — a call, an arithmetic
/// expression, an unknown name — is rejected: hoist it into a named local
/// so the lint (and the reader) can see what the grid depends on.
fn min_chunk_arg_ok(arg: &str, text: &str) -> bool {
    let arg = arg.trim();
    if !arg.is_empty() && arg.chars().all(|c| c.is_ascii_digit() || c == '_') {
        return true; // numeric literal
    }
    if !arg
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return false; // not a bare path — hoist it into a local
    }
    let last = arg.rsplit("::").next().unwrap_or(arg);
    if !last.is_empty() && !last.chars().any(|c| c.is_ascii_lowercase()) {
        return true; // SCREAMING_CASE constant
    }
    // A local: its initializer, up to the statement's `;`, must not read
    // the thread count or the environment.
    for pat in [format!("let {last} ="), format!("let {last}:")] {
        if let Some(pos) = text.find(&pat) {
            let init = text[pos..].split(';').next().unwrap_or("");
            return !MIN_CHUNK_FORBIDDEN.iter().any(|t| init.contains(t));
        }
    }
    false // unknown name (fn parameter, field) — derivation not auditable
}

/// Original line number of byte offset `pos` in the rebuilt text.
fn line_at(line_of_offset: &[(usize, usize)], pos: usize) -> usize {
    match line_of_offset.binary_search_by_key(&pos, |&(off, _)| off) {
        Ok(i) => line_of_offset[i].1,
        Err(0) => 1,
        Err(i) => line_of_offset[i - 1].1,
    }
}

/// Audits every pool call site in library code: constant-derived `min_chunk`
/// arguments only, and no thread-count/env reads or shared-state primitives
/// inside the call span. See module docs, lint rule 6.
fn check_pool_call_discipline(root: &Path, failures: &mut Vec<String>) {
    for (rel, src) in sources(root, &["crates"], pool_discipline_exempt) {
        // Rebuild the non-test text, remembering original line numbers.
        let mut text = String::new();
        let mut line_of_offset: Vec<(usize, usize)> = Vec::new();
        for (no, line) in strip_test_modules(&src) {
            line_of_offset.push((text.len(), no));
            text.push_str(line.split("//").next().unwrap_or(line));
            text.push('\n');
        }
        for prim in POOL_PRIMITIVES {
            let mut from = 0;
            while let Some(pos) = text[from..].find(prim) {
                let start = from + pos;
                from = start + prim.len();
                let line_no = line_at(&line_of_offset, start);
                let open = start + prim.len() - 1;
                let Some(span) = call_span(&text, open) else {
                    failures.push(format!(
                        "{}:{line_no}: unbalanced parens at pool call `{prim}` — \
                         the discipline lint cannot audit this span",
                        rel.display()
                    ));
                    continue;
                };
                for token in REGION_FORBIDDEN {
                    if span.contains(token) {
                        failures.push(format!(
                            "{}:{line_no}: `{token}` inside a pool call span — parallel \
                             regions must not read the thread count/environment or touch \
                             shared state outside the pool's own slot primitives",
                            rel.display()
                        ));
                    }
                }
                if matches!(prim, "::par_chunks(" | "::chunk_ranges(") {
                    let args = top_level_args(span);
                    match args.get(1) {
                        Some(mc) if min_chunk_arg_ok(mc, &text) => {}
                        Some(mc) => failures.push(format!(
                            "{}:{line_no}: `min_chunk` argument `{}` is not a numeric \
                             literal, a constant, or a local derived from input sizes — \
                             the chunk grid must not depend on `threads()` or the \
                             environment",
                            rel.display(),
                            mc.trim()
                        )),
                        None => failures.push(format!(
                            "{}:{line_no}: pool call `{prim}` has no `min_chunk` argument \
                             to audit",
                            rel.display()
                        )),
                    }
                }
            }
        }
    }
}

// ---- determinism ------------------------------------------------------------

fn determinism(failures: &mut Vec<String>) -> Result<String, String> {
    println!("determinism: quick TPC-H dataset + labeled workload...");
    let ds = build(DatasetKind::Tpch, Scale::quick(), 2);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(42);
    let queries = generate_queries(&ds, &WorkloadSpec::default(), &mut rng, 96);
    let cells = cells(race::sched_seed(), &[1, 2, 4, 8]);

    // (1) Batch exact counting over the pool.
    bit_identity(
        "determinism: count_batch over 96 queries",
        &cells,
        failures,
        |_| Ok(exec.count_batch(&queries)),
    );

    // (2) A briefly trained CE model: the full parameter vector must be
    // bit-identical whatever the thread count: training labels its data
    // with the batch above and is a long chain of kernels, so any
    // reduction-order leak compounds here.
    let labeled = exec.label_nonzero(queries);
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    bit_identity("determinism: FCN training", &cells, failures, |_| {
        let mut model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 6);
        model
            .train(&data, &mut StdRng::seed_from_u64(7))
            .map_err(|e| format!("training failed: {e}"))?;
        Ok(model
            .params()
            .snapshot()
            .iter()
            .flat_map(|m| m.data().iter().map(|x| u64::from(x.to_bits())))
            .collect())
    });
    Ok("xtask determinism: bit-identical across thread counts".into())
}

// ---- race-report ------------------------------------------------------------

/// Adversarial `PACE_SCHED` seeds for the schedule-fuzz matrix. Eight
/// arbitrary but fixed seeds; each drives a different chunk-pull
/// permutation and yield pattern in every parallel region.
const SCHED_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0x5eed, 0xfeed_f00d];

/// Thread counts the schedule matrix crosses with [`SCHED_SEEDS`].
const SCHED_THREADS: [usize; 3] = [1, 4, 8];

fn race_report(failures: &mut Vec<String>) -> Result<String, String> {
    use pool::flags::FlagMode;

    // Shared fixtures: a quick TPC-H dataset and a workload to count.
    println!("race-report: building quick TPC-H dataset + workload...");
    let ds = build(DatasetKind::Tpch, Scale::quick(), 2);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(42);
    let queries = generate_queries(&ds, &WorkloadSpec::default(), &mut rng, 96);

    // (1) Fail-on-old-code witness, dynamic: under PACE_RACE=strict a grid
    // with a hole must panic with a typed write-set violation, and a clean
    // count_batch fan-out must stay silent.
    race::RACE.set(FlagMode::Strict);
    {
        let caught = std::panic::catch_unwind(|| {
            let spans = [
                race::TaskSpan {
                    task: 0,
                    lo: 0,
                    hi: 24,
                },
                race::TaskSpan {
                    task: 1,
                    lo: 40,
                    hi: 64,
                },
            ];
            if let Err(report) = race::check_write_set("race-report::dirty", 64, &spans) {
                race::handle(&report);
            }
        });
        match caught {
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                if msg.contains("write-set violation") && msg.contains("gap: [24, 40)") {
                    println!("race-report: seeded dirty region: CAUGHT (gap [24, 40))");
                } else {
                    failures.push(format!(
                        "dirty region panicked with the wrong report: {msg}"
                    ));
                }
            }
            Ok(()) => {
                failures.push("seeded dirty region NOT caught under PACE_RACE=strict".to_string())
            }
        }
    }
    {
        // A clean fan-out under the armed checker: no false positives.
        let clean = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool::set_threads(4);
            let _ = exec.count_batch(&queries);
        }));
        if clean.is_err() {
            failures.push("armed checker false-positived on a clean count_batch".to_string());
        }
    }
    race::RACE.set(FlagMode::Off);

    // (2) Schedule-fuzz matrix: count_batch and a reduced demo campaign,
    // rebuilt from scratch in every cell (labeling and victim training
    // included, so every count_batch fan-out sits under the cell's
    // schedule), must match a natural 1-thread baseline across adversarial
    // seeds × thread counts.
    let work_dir = scratch_dir("pace-race-report")?;
    let mut matrix = cells(None, &[1]);
    for seed in SCHED_SEEDS {
        matrix.extend(cells(Some(seed), &SCHED_THREADS));
    }
    bit_identity("race-report: count_batch", &matrix, failures, |_| {
        Ok(exec.count_batch(&queries))
    });
    let fingerprint = bit_identity("race-report: demo campaign", &matrix, failures, |i| {
        let demo = Demo::setup(2, 200, 40);
        let mut victim = demo.train_victim()?;
        let outcome = demo.run(&mut victim, &work_dir.join(format!("race-{i}.campaign")))?;
        campaign_image(&outcome, &victim)
    });
    let _ = std::fs::remove_dir_all(&work_dir);
    let Some(fingerprint) = fingerprint else {
        return Ok(String::new()); // the harness reported the failed baseline
    };

    // (3) Disarmed overhead: with PACE_RACE off, the per-region check is
    // 1–2 relaxed loads — bounded both absolutely (vs a measured relaxed
    // load) and relatively (≤ 1% of one count_batch fan-out).
    pool::set_threads(4);
    let check_ns = best_ns_per_call(LOAD_CALLS, || {
        black_box(race::armed());
        black_box(race::sched_seed());
    });
    let load_ns = relaxed_load_ns();
    let count_ns = best_ns_per_call(1, || {
        black_box(exec.count_batch(&queries));
    });
    pool::set_threads(0);
    let count_share = check_ns / count_ns;
    println!(
        "\nrace-report: disarmed check {check_ns:.2} ns/region (relaxed load \
         {load_ns:.2} ns), count_batch {:.0} us — share {:.5}%",
        count_ns / 1e3,
        count_share * 100.0
    );
    // The disarmed check is two-to-three relaxed loads plus branches;
    // generous bound so CI noise cannot flake it. The product-level
    // criterion is the ≤ 1% share gate below.
    if check_ns > load_ns * 8.0 + 2.0 {
        failures.push(format!(
            "disarmed PACE_RACE check costs {check_ns:.2} ns — more than a few \
             relaxed loads ({load_ns:.2} ns each)"
        ));
    }
    if count_share > 0.01 {
        failures.push(format!(
            "disarmed PACE_RACE overhead exceeds 1% of a count_batch fan-out: {:.3}%",
            count_share * 100.0
        ));
    }

    let combos = matrix.len() - 1;
    let failed = failures.len();
    Json::obj([
        (
            "schedule_matrix",
            Json::obj([
                ("seeds", Json::Arr(SCHED_SEEDS.map(Json::int).into())),
                ("threads", Json::Arr(SCHED_THREADS.map(Json::int).into())),
                ("combos", Json::int(combos)),
                (
                    "campaign_fingerprint",
                    Json::str(&format!("{fingerprint:016x}")),
                ),
            ]),
        ),
        (
            "disarmed_overhead",
            Json::obj([
                ("check_ns", Json::num(check_ns, 4)),
                ("relaxed_load_ns", Json::num(load_ns, 4)),
                ("count_batch_ns", Json::num(count_ns, 0)),
                ("count_share", Json::num(count_share, 6)),
            ]),
        ),
        ("failures", Json::int(failed)),
    ])
    .write("BENCH_race.json", failures);
    Ok(format!(
        "xtask race-report: OK — seeded dirty region caught, {combos} schedule combos \
         bit-identical"
    ))
}

// ---- chaos ------------------------------------------------------------------

/// `xtask chaos-campaign <manifest>`: the demo campaign as the child
/// process of [`chaos`], with a timing-free report ending in the campaign
/// fingerprint. Exit codes are listed in the module docs.
fn chaos_campaign() -> ExitCode {
    let Some(manifest) = std::env::args().nth(2).map(PathBuf::from) else {
        eprintln!("usage: xtask chaos-campaign <manifest-path>");
        return ExitCode::FAILURE;
    };
    let demo = Demo::setup(42, 400, 80);
    let run = demo.train_victim().and_then(|mut victim| {
        let outcome = demo.run(&mut victim, &manifest)?;
        let image = campaign_image(&outcome, &victim)?;
        Ok((outcome, image))
    });
    let (outcome, image) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos-campaign: {e}");
            return ExitCode::from(2);
        }
    };
    if !finite(&outcome.clean) || !finite(&outcome.poisoned) || !outcome.divergence.is_finite() {
        eprintln!("chaos-campaign: non-finite q-errors after recovery");
        return ExitCode::from(3);
    }
    for (name, s) in [("clean", &outcome.clean), ("poisoned", &outcome.poisoned)] {
        println!(
            "{name:<8} mean {:.6} median {:.6} p95 {:.6} max {:.6}",
            s.mean, s.median, s.p95, s.max
        );
    }
    println!(
        "poison queries: {}  divergence {:.6}",
        outcome.poison.len(),
        outcome.divergence
    );
    println!("fingerprint: {:016x}", fnv(&image));
    ExitCode::SUCCESS
}

/// One `chaos-campaign` process run.
struct ChaosRun {
    code: i32,
    stdout: String,
    stderr: String,
}

/// Runs `chaos-campaign` at `manifest` under `faults`, rerunning it from
/// the same manifest after each injected crash
/// ([`pace_tensor::fault::CRASH_EXIT_CODE`]) up to `max_crashes` times.
/// Returns the last run and how many crashes were absorbed.
fn chaos_campaign_run(manifest: &Path, faults: Option<&str>, max_crashes: u32) -> (ChaosRun, u32) {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| panic!("xtask chaos: cannot locate the xtask binary: {e}"));
    let mut crashes = 0;
    loop {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("chaos-campaign").arg(manifest);
        match faults {
            Some(f) => cmd.env("PACE_FAULTS", f),
            None => cmd.env_remove("PACE_FAULTS"),
        };
        let out = cmd
            .output()
            .unwrap_or_else(|e| panic!("xtask chaos: cannot spawn chaos-campaign: {e}"));
        let run = ChaosRun {
            code: out.status.code().unwrap_or(-1),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        };
        if run.code != fault::CRASH_EXIT_CODE || crashes == max_crashes {
            return (run, crashes);
        }
        crashes += 1;
    }
}

fn chaos(failures: &mut Vec<String>) -> Result<String, String> {
    let dir = scratch_dir("pace-chaos")?;

    // Fault-free baseline, run twice: the campaign itself must be
    // deterministic before fault recovery can promise bit-identity.
    println!("chaos: baseline (faults off), twice...");
    let (base_a, _) = chaos_campaign_run(&dir.join("baseline-a"), None, 0);
    let (base_b, _) = chaos_campaign_run(&dir.join("baseline-b"), None, 0);
    if base_a.code != 0 {
        let stderr = base_a.stderr.trim();
        return Err(format!(
            "fault-free campaign failed (exit {}) — {stderr}",
            base_a.code
        ));
    }
    if base_b.stdout != base_a.stdout {
        failures
            .push("baseline: two fault-free runs disagree — campaign is non-deterministic".into());
    }
    print!("{}", base_a.stdout);

    // The campaign fault matrix. Transient faults (timeout, error, corrupt)
    // are absorbed by retries and validation, and crashes by resuming from
    // the manifest: each must reproduce the baseline bit for bit. NaN
    // gradients roll back with a halved learning rate, which moves the
    // trajectory, so only completion with finite results is required. A
    // hard-down oracle exhausts every retry and degradation path and must
    // fail with a typed campaign error (exit 2), never a panic.
    for (name, spec) in [
        ("timeout", "seed=7;timeout,site=explain,every=9,lat=0.05"),
        ("error", "seed=7;error,site=explain,every=11"),
        ("corrupt", "seed=7;corrupt,site=explain,every=13"),
        (
            "nan",
            "nan,site=ce-update,at=1;nan,site=surrogate-imitate,at=2",
        ),
        ("crash-craft", "crash,site=campaign-craft,at=1"),
        ("crash-wave", "crash,site=campaign-wave,every=2"),
        ("hard-down", "error,site=explain,every=1"),
    ] {
        println!("chaos: {name} ({spec})...");
        // A crashing spec gets nine resumes to finish in.
        let crashing = spec.starts_with("crash");
        let max_crashes = if crashing { 9 } else { 0 };
        let (run, crashes) = chaos_campaign_run(&dir.join(name), Some(spec), max_crashes);
        let want = if name == "hard-down" { 2 } else { 0 };
        if crashing && crashes == 0 {
            failures.push(format!("{name}: expected an injected crash, saw none"));
        }
        if run.code != want {
            failures.push(format!(
                "{name}: expected exit {want}, got exit {} — {}",
                run.code,
                run.stderr.trim()
            ));
        } else if want == 0 && name != "nan" && run.stdout != base_a.stdout {
            failures.push(format!(
                "{name}: the outcome diverged from the baseline after {crashes} crash(es)\n  \
                 baseline: {}\n  faulted : {}",
                last_line(&base_a.stdout),
                last_line(&run.stdout)
            ));
        } else if crashes > 0 {
            println!("chaos: {name}: resumed through {crashes} crash(es), bit-identical");
        }
    }

    // Serving kinds: in-process drills of the `pace-serve` runtime (the
    // campaign process has no serving path). Each scenario runs twice under
    // the same spec and must be bit-identical; every rejection must be
    // typed; a corrupted hot-swap must be rejected with traffic unharmed.
    for (kind, spec) in [
        ("overload", "overload,site=serve-admit,every=25"),
        (
            "slow_consumer",
            "slow_consumer,site=serve-batch,every=4,lat=0.02",
        ),
        ("bad_update", "bad_update,site=serve-swap,at=1"),
    ] {
        println!("chaos: serve {kind} ({spec})...");
        match serve_chaos_scenario(kind, spec) {
            Ok(note) => println!("chaos: serve {kind}: {note}"),
            Err(e) => failures.push(format!("serve {kind}: {e}")),
        }
    }

    // The served campaign: a whole poison campaign through the hot-swap
    // gate with a corrupted wave-1 candidate and admission overload bursts
    // armed at once. The rejected wave must roll back, every reply must
    // stay typed, and two runs must be bit-identical end to end.
    println!("chaos: served campaign (bad_update wave 1 + overload bursts)...");
    match served_campaign_chaos_scenario() {
        Ok(note) => println!("chaos: served campaign: {note}"),
        Err(e) => failures.push(format!("served campaign: {e}")),
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok("xtask chaos: full fault matrix OK".into())
}

fn last_line(s: &str) -> &str {
    s.lines().last().unwrap_or("")
}

// ---------------------------------------------------------------------------
// serve-report — the serving-runtime SLO gate
// ---------------------------------------------------------------------------

/// Deadline budget attached to every generated request (virtual seconds).
const SERVE_DEADLINE: f64 = 0.1;

/// The drill's load shape. The default config's service capacity is about
/// 1080 req/s, so 600 req/s is comfortably rated; the overload phase
/// doubles the rate and additionally arms the `overload` fault, whose
/// same-instant admission bursts push the offered load to roughly 2×
/// capacity. The two swap events (corrupted v2, clean v3) land inside the
/// swap-window phase, after the overload backlog has drained.
fn serve_phases() -> [Phase; 5] {
    [
        phase("ramp", 0.5, 300.0),
        phase("rated", 1.0, 600.0),
        phase("overload", 1.5, 1200.0),
        phase("swap-window", 1.0, 600.0),
        phase("recovery", 1.0, 600.0),
    ]
}

fn phase(name: &'static str, duration: f64, rate: f64) -> Phase {
    Phase {
        name,
        duration,
        rate,
    }
}

/// A trained serving fixture on tiny DMV: the dataset at `seed`, 200
/// single-table history queries and then `test_len` labeled test queries
/// from an RNG seeded `seed + 1`, a Linear model seeded `seed + 2` trained
/// with that RNG, the first `pool_len` labeled history queries as the
/// traffic pool, and 24 pinned validation queries. Model training
/// dominates the set-up, so each gate builds its fixture once per process.
struct Fixture {
    ds: Dataset,
    model: CeModel,
    pinned: Vec<PinnedQuery>,
    pool: Vec<Query>,
    history: Vec<Query>,
    test: Workload,
}

impl Fixture {
    fn build(seed: u64, pool_len: usize, test_len: usize) -> Self {
        let ds = build(DatasetKind::Dmv, Scale::tiny(), seed);
        let exec = Executor::new(&ds);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let spec = WorkloadSpec::single_table();
        let history = generate_queries(&ds, &spec, &mut rng, 200);
        let test = exec.label_nonzero(generate_queries(&ds, &spec, &mut rng, test_len));
        let labeled = exec.label_nonzero(history.clone());
        let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
        let mut model = CeModel::new(CeModelType::Linear, &ds, CeConfig::quick(), seed + 2);
        model
            .train(&data, &mut rng)
            .expect("serving fixture model trains");
        let pool = labeled
            .iter()
            .take(pool_len)
            .map(|lq| lq.query.clone())
            .collect();
        Self {
            pinned: pinned_from_encoded(&data, 24),
            ds,
            model,
            pool,
            history,
            test,
        }
    }

    /// A server over this fixture's schema and pinned set, with the
    /// 32-bucket histogram fallback and no snapshot installed.
    fn server(&self, cfg: ServeConfig) -> Server {
        Server::new(
            cfg,
            self.ds.schema.clone(),
            self.pinned.clone(),
            Some(HistogramEstimator::build(&self.ds, 32)),
        )
    }
}

/// The serving drills' fixture: seeds 601–603, a pool of 32, no test set.
fn serve_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture::build(601, 32, 0))
}

/// The reply contract every served reply must meet: an `Ok` estimate is
/// finite, ≥ 0 and not completed before its request arrived; a shed saw a
/// queue no deeper than `queue_cap`; a missed deadline is typed. Anything
/// else is an un-typed rejection. Returns the violations.
fn reply_contract(records: &[ReplyRecord], queue_cap: usize) -> Vec<String> {
    let mut violations = Vec::new();
    for r in records {
        match &r.outcome {
            Ok(reply) => {
                if !(reply.estimate.is_finite() && reply.estimate >= 0.0) {
                    violations.push(format!(
                        "request {}: served estimate {} is outside [0, f64::MAX]",
                        r.id, reply.estimate
                    ));
                }
                if reply.completed_at < r.arrival {
                    violations.push(format!("request {}: completed before it arrived", r.id));
                }
            }
            Err(ServeError::Shed { depth }) => {
                if *depth > queue_cap {
                    violations.push(format!(
                        "request {}: shed at depth {depth} above the cap {queue_cap}",
                        r.id
                    ));
                }
            }
            Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(e) => violations.push(format!("request {}: un-typed rejection: {e}", r.id)),
        }
    }
    violations
}

/// Everything one serving drill produced.
struct DrillRun {
    requests: usize,
    records: Vec<ReplyRecord>,
    summary: ServeSummary,
    swaps: Vec<SwapOutcome>,
    active: Option<u64>,
}

impl DrillRun {
    /// Breaches of the reply contract, dropped requests, and a queue that
    /// outgrew `queue_cap`.
    fn violations(&self, queue_cap: usize) -> Vec<String> {
        let mut v = reply_contract(&self.records, queue_cap);
        if self.records.len() != self.requests {
            v.push(format!(
                "{} requests in, {} reply records out — a request was silently dropped",
                self.requests,
                self.records.len()
            ));
        }
        if self.summary.max_queue_depth > queue_cap {
            v.push(format!(
                "queue depth reached {} — the {queue_cap} cap did not hold",
                self.summary.max_queue_depth
            ));
        }
        v
    }
}

/// Installs the serving fixture's model as v1 on a fresh server configured
/// by `cfg`, generates `traffic` (which arms its own faults), serves it
/// with the model resubmitted at each `(at, version)` of `swaps`, and
/// disarms every fault.
fn drill(
    cfg: ServeConfig,
    traffic: impl FnOnce(&Fixture) -> Vec<Request>,
    swaps: &[(f64, u64)],
) -> DrillRun {
    let fx = serve_fixture();
    fault::install(None);
    let mut srv = fx.server(cfg);
    srv.try_swap(1, fx.model.clone())
        .expect("initial snapshot validates");
    let requests = traffic(fx);
    let n = requests.len();
    let swaps = swaps.iter().map(|&(at, version)| SwapEvent {
        at,
        version,
        model: fx.model.clone(),
    });
    let records = srv.run(requests, swaps.collect());
    fault::install(None);
    DrillRun {
        requests: n,
        records,
        summary: srv.summary().clone(),
        swaps: srv.swap_log().to_vec(),
        active: srv.snapshots().active_version(),
    }
}

/// Runs the full five-phase drill. Faults are scoped: the admission
/// `overload` bursts are armed only while the overload phase's arrivals are
/// generated, and `bad_update` is armed for the in-flight swaps (it fires
/// once, corrupting v2; v3 passes clean).
fn serve_drill() -> DrillRun {
    let traffic = |fx: &Fixture| {
        let mut requests: Vec<Request> = Vec::new();
        let mut offset = 0.0;
        for (i, ph) in serve_phases().iter().enumerate() {
            let spec = (ph.name == "overload").then(|| {
                FaultSpec::parse("overload,site=serve-admit,every=30").expect("valid overload spec")
            });
            fault::install(spec);
            let mut chunk = pace_serve::generate(
                std::slice::from_ref(ph),
                &fx.pool,
                700 + i as u64,
                SERVE_DEADLINE,
                requests.len() as u64,
            );
            for r in &mut chunk {
                r.arrival += offset;
                r.deadline += offset;
            }
            offset += ph.duration;
            requests.append(&mut chunk);
        }
        fault::install(Some(
            FaultSpec::parse("bad_update,site=serve-swap,at=1").expect("valid bad_update spec"),
        ));
        requests
    };
    drill(ServeConfig::default(), traffic, &[(3.5, 2), (3.8, 3)])
}

/// Per-phase serving statistics, bucketed by request arrival time.
#[derive(Default)]
struct ServePhaseStats {
    name: &'static str,
    requests: usize,
    ok: usize,
    learned: usize,
    fallback: usize,
    shed: usize,
    deadline_missed: usize,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn serve_phase_stats(records: &[ReplyRecord]) -> Vec<ServePhaseStats> {
    let mut out = Vec::new();
    let mut start = 0.0;
    for ph in serve_phases() {
        let end = start + ph.duration;
        let mut s = ServePhaseStats {
            name: ph.name,
            ..ServePhaseStats::default()
        };
        let mut lat: Vec<f64> = Vec::new();
        for r in records
            .iter()
            .filter(|r| r.arrival >= start && r.arrival < end)
        {
            s.requests += 1;
            match &r.outcome {
                Ok(reply) => {
                    s.ok += 1;
                    if reply.source == Source::Learned {
                        s.learned += 1;
                    } else {
                        s.fallback += 1;
                    }
                    lat.push((reply.completed_at - r.arrival) * 1e3);
                }
                Err(ServeError::Shed { .. }) => s.shed += 1,
                Err(ServeError::DeadlineExceeded { .. }) => s.deadline_missed += 1,
                Err(_) => {}
            }
        }
        lat.sort_by(f64::total_cmp);
        s.p50_ms = pctl(&lat, 0.50);
        s.p95_ms = pctl(&lat, 0.95);
        s.p99_ms = pctl(&lat, 0.99);
        out.push(s);
        start = end;
    }
    out
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn pctl(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Upper edges of the served-latency histogram buckets (ms); the last
/// bucket is open-ended.
const SERVE_LAT_BUCKETS_MS: [f64; 7] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0];

fn serve_latency_histogram(records: &[ReplyRecord]) -> [u64; 8] {
    let mut h = [0u64; 8];
    for r in records {
        if let Ok(reply) = &r.outcome {
            let ms = (reply.completed_at - r.arrival) * 1e3;
            let idx = SERVE_LAT_BUCKETS_MS
                .iter()
                .position(|&b| ms <= b)
                .unwrap_or(SERVE_LAT_BUCKETS_MS.len());
            h[idx] += 1;
        }
    }
    h
}

/// The machine-readable `BENCH_serve.json`.
fn serve_json(
    wall_s: f64,
    stats: &[ServePhaseStats],
    hist: &[u64; 8],
    run: &DrillRun,
    queue_cap: usize,
) -> Json {
    let phases = stats.iter().map(|p| {
        let shed_rate = if p.requests == 0 {
            0.0
        } else {
            p.shed as f64 / p.requests as f64
        };
        Json::obj([
            ("name", Json::str(p.name)),
            ("requests", Json::int(p.requests)),
            ("ok", Json::int(p.ok)),
            ("learned", Json::int(p.learned)),
            ("fallback", Json::int(p.fallback)),
            ("shed", Json::int(p.shed)),
            ("shed_rate", Json::num(shed_rate, 4)),
            ("deadline_missed", Json::int(p.deadline_missed)),
            ("p50_ms", Json::num(p.p50_ms, 3)),
            ("p95_ms", Json::num(p.p95_ms, 3)),
            ("p99_ms", Json::num(p.p99_ms, 3)),
        ])
    });
    let last_edge = SERVE_LAT_BUCKETS_MS[SERVE_LAT_BUCKETS_MS.len() - 1];
    let histogram = hist.iter().enumerate().map(|(i, count)| {
        let label = match SERVE_LAT_BUCKETS_MS.get(i) {
            Some(edge) => format!("le_{edge}"),
            None => format!("gt_{last_edge}"),
        };
        (label, Json::int(count))
    });
    let swaps = run.swaps.iter().map(|sw| {
        let outcome = match &sw.result {
            Ok(()) => "installed".to_string(),
            Err(e) => format!("rejected: {e}"),
        };
        Json::obj([
            ("at", Json::num(sw.at, 3)),
            ("version", Json::int(sw.version)),
            ("outcome", Json::str(&outcome)),
        ])
    });
    Json::obj([
        ("wall_s", Json::num(wall_s, 6)),
        (
            "virtual_s",
            Json::num(pace_serve::total_duration(&serve_phases()), 3),
        ),
        ("phases", Json::Arr(phases.collect())),
        ("latency_histogram_ms", Json::Obj(histogram.collect())),
        ("swaps", Json::Arr(swaps.collect())),
        ("active_version", Json::opt(run.active)),
        ("queue_cap", Json::int(queue_cap)),
        ("max_queue_depth", Json::int(run.summary.max_queue_depth)),
        ("totals", totals_json(&run.summary)),
    ])
}

fn serve_report(failures: &mut Vec<String>) -> Result<String, String> {
    let t0 = Instant::now();

    println!(
        "serve-report: five-phase drill (ramp -> rated -> 2x overload -> bad-update swap \
         window -> recovery), ~5 s virtual time, at 1 thread, again, and at 8 threads"
    );
    let mut first = None;
    bit_identity(
        "serve-report: reply sequence",
        &cells(race::sched_seed(), &[1, 1, 8]),
        failures,
        |_| {
            let run = serve_drill();
            let words = reply_words(&run.records);
            first.get_or_insert(run);
            Ok(words)
        },
    );
    let run = first.expect("the baseline drill ran");
    let queue_cap = ServeConfig::default().queue_cap;
    failures.extend(run.violations(queue_cap));

    let stats = serve_phase_stats(&run.records);
    for p in &stats {
        match p.name {
            "rated" | "recovery" => {
                if p.ok != p.requests {
                    failures.push(format!(
                        "{}: {} of {} requests rejected at rated load",
                        p.name,
                        p.requests - p.ok,
                        p.requests
                    ));
                }
                if p.p99_ms > 50.0 {
                    failures.push(format!(
                        "{}: p99 latency {:.1} ms exceeds the 50 ms budget",
                        p.name, p.p99_ms
                    ));
                }
            }
            "overload" => {
                if p.shed == 0 {
                    failures.push("overload: expected typed sheds under 2x load, saw none".into());
                }
                if p.fallback == 0 {
                    failures.push(
                        "overload: expected token-bucket fallback service before shedding".into(),
                    );
                }
            }
            _ => {}
        }
    }

    // Swap log: v1 installed pre-stream, corrupted v2 rejected as
    // non-finite, clean v3 installed and active; zero failed well-formed
    // requests around the swap window.
    let ledger: Vec<_> = run
        .swaps
        .iter()
        .map(|sw| (sw.version, sw.result.clone()))
        .collect();
    let expected = [
        (1, Ok(())),
        (2, Err(SwapError::NonFiniteParams)),
        (3, Ok(())),
    ];
    if ledger != expected || run.active != Some(3) {
        failures.push(format!(
            "swap ledger {ledger:?} leaves {:?} active; expected v1 installed, v2 rejected \
             as NonFiniteParams, and v3 installed and active",
            run.active
        ));
    }
    if let Some(r) = run
        .records
        .iter()
        .find(|r| r.arrival >= 3.3 && r.arrival <= 3.7 && r.outcome.is_err())
    {
        failures.push(format!(
            "swap window: request {} failed ({:?}) while the bad update was being rejected",
            r.id, r.outcome
        ));
    }

    println!("serve-report: phase breakdown (virtual time):");
    println!(
        "  {:<12} {:>8} {:>6} {:>8} {:>9} {:>6} {:>8} {:>8} {:>8} {:>8}",
        "phase",
        "requests",
        "ok",
        "learned",
        "fallback",
        "shed",
        "dl-miss",
        "p50 ms",
        "p95 ms",
        "p99 ms"
    );
    for p in &stats {
        println!(
            "  {:<12} {:>8} {:>6} {:>8} {:>9} {:>6} {:>8} {:>8.2} {:>8.2} {:>8.2}",
            p.name,
            p.requests,
            p.ok,
            p.learned,
            p.fallback,
            p.shed,
            p.deadline_missed,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms
        );
    }
    println!(
        "serve-report: swaps: {}; active {}; max queue depth {} (cap {})",
        run.swaps
            .iter()
            .map(|sw| format!(
                "v{} {}",
                sw.version,
                if sw.result.is_ok() {
                    "installed"
                } else {
                    "rejected"
                }
            ))
            .collect::<Vec<_>>()
            .join(", "),
        run.active
            .map_or_else(|| "none".to_string(), |v| format!("v{v}")),
        run.summary.max_queue_depth,
        queue_cap
    );

    // Break-glass drill: an operator `force_install` must activate its
    // snapshot without shadow validation and be counted apart from
    // validated swaps (counters only move while a trace sink is armed).
    {
        let fx = serve_fixture();
        let trace_path = std::env::temp_dir().join(format!(
            "pace-serve-report-counters-{}.jsonl",
            std::process::id()
        ));
        trace::install(Some(trace_path.clone()));
        let swaps_before = trace::SERVE_SWAPS.get();
        let force_before = trace::SERVE_FORCE_INSTALLS.get();
        let mut srv = fx.server(ServeConfig::default());
        srv.force_install(9, fx.model.clone());
        let swap_delta = trace::SERVE_SWAPS.get() - swaps_before;
        let force_delta = trace::SERVE_FORCE_INSTALLS.get() - force_before;
        trace::install(None);
        let _ = std::fs::remove_file(&trace_path);
        if srv.snapshots().active_version() != Some(9) {
            failures.push("break-glass: force_install did not activate its snapshot".into());
        }
        if force_delta != 1 || swap_delta != 0 {
            failures.push(format!(
                "break-glass: force_install moved the wrong counters (force installs +{}, \
                 validated swaps +{}); an override must count once, apart from swaps",
                force_delta, swap_delta
            ));
        } else {
            println!("serve-report: break-glass force_install counted apart from validated swaps");
        }
    }

    let hist = serve_latency_histogram(&run.records);
    serve_json(t0.elapsed().as_secs_f64(), &stats, &hist, &run, queue_cap)
        .write("BENCH_serve.json", failures);
    Ok(format!(
        "serve-report: all gates OK ({} requests, {} batches, {} sheds, bit-identical at 1 and \
         8 threads)",
        run.summary.requests, run.summary.batches, run.summary.shed
    ))
}

/// One in-process serving chaos run: rated then stressed traffic with a
/// v2 hot-swap attempt mid-stream, under `spec`.
fn serve_chaos_once(spec: &str, stress_rate: f64) -> DrillRun {
    let cfg = ServeConfig {
        queue_cap: 32,
        ..ServeConfig::default()
    };
    let phases = [
        phase("rated", 0.3, 600.0),
        phase("stress", 0.3, stress_rate),
    ];
    let traffic = |fx: &Fixture| {
        fault::install(Some(FaultSpec::parse(spec).expect("valid serving spec")));
        pace_serve::generate(&phases, &fx.pool, 811, 0.08, 0)
    };
    drill(cfg, traffic, &[(0.45, 2)])
}

/// Checks one serving fault kind end to end: two bit-identical runs, typed
/// rejections only, finite estimates, and kind-specific recovery facts.
fn serve_chaos_scenario(kind: &str, spec: &str) -> Result<String, String> {
    // The bad-update scenario stays at rated load so the swap rejection is
    // observed with zero collateral rejections; the others stress at 2.5×.
    let stress_rate = if kind == "bad_update" { 600.0 } else { 1500.0 };
    let mut failures = Vec::new();
    let mut first = None;
    bit_identity(
        &format!("chaos: serve {kind}"),
        &cells(race::sched_seed(), &[pool::threads(); 2]),
        &mut failures,
        |_| {
            let run = serve_chaos_once(spec, stress_rate);
            let words = reply_words(&run.records);
            first.get_or_insert(run);
            Ok(words)
        },
    );
    let a = first.expect("the baseline drill ran");
    failures.extend(a.violations(32));
    if let Some(f) = failures.first() {
        return Err(f.clone());
    }
    match kind {
        "overload" => {
            if a.summary.shed == 0 {
                return Err("expected typed sheds under burst overload, saw none".into());
            }
            if a.active != Some(2) {
                return Err(format!(
                    "clean v2 swap did not land (active {:?})",
                    a.active
                ));
            }
            Ok(format!(
                "{} typed sheds, depth capped at {}, bit-identical",
                a.summary.shed, a.summary.max_queue_depth
            ))
        }
        "slow_consumer" => {
            let pressured = a.summary.shed + a.summary.fallback_served + a.summary.deadline_missed;
            if pressured == 0 {
                return Err("stalled batches produced no backpressure at all".into());
            }
            Ok(format!(
                "absorbed stalls: {} fallback, {} shed, {} deadline misses, no hang",
                a.summary.fallback_served, a.summary.shed, a.summary.deadline_missed
            ))
        }
        "bad_update" => {
            match a.swaps.get(1).map(|sw| &sw.result) {
                Some(Err(SwapError::NonFiniteParams)) => {}
                other => {
                    return Err(format!(
                        "corrupted v2 was not rejected as NonFiniteParams: {other:?}"
                    ))
                }
            }
            if a.active != Some(1) {
                return Err(format!(
                    "rollback failed: active {:?}, expected v1",
                    a.active
                ));
            }
            if a.records.iter().any(|r| r.outcome.is_err()) {
                return Err("a well-formed request failed during the rejected swap".into());
            }
            Ok("v2 rejected, v1 stayed active, zero failed requests".into())
        }
        _ => Err(format!("unknown serving kind {kind}")),
    }
}

/// One served campaign, as the chaos scenario and the defense drill run
/// it: the attack outcome and the serving side's ledgers.
struct ServedRun {
    outcome: AttackOutcome,
    replies: Vec<ReplyRecord>,
    summary: ServeSummary,
    active: Option<u64>,
}

impl ServedRun {
    /// The campaign's image and its reply log's.
    fn image(&self) -> Vec<u64> {
        let mut words = outcome_words(&self.outcome);
        words.extend(reply_words(&self.replies));
        words
    }
}

/// Serves the defense fixture's model through a server configured by
/// `serve_cfg` amid `traffic`, arms `faults` (if any) once the clean
/// install is done, runs a quick `method` campaign with the `surrogate`
/// type through the hot-swap path, and requires the finished campaign to
/// remove its manifest.
fn served_run(
    serve_cfg: ServeConfig,
    traffic: ServedTraffic,
    faults: Option<&str>,
    method: AttackMethod,
    surrogate: Option<CeModelType>,
    manifest: &str,
) -> Result<ServedRun, String> {
    let fx = defense_fixture();
    fault::install(None);
    let mut served = ServedVictim::new(
        fx.server(serve_cfg),
        fx.model.clone(),
        Executor::new(&fx.ds),
        fx.history.clone(),
        traffic,
    )
    .map_err(|e| format!("the clean model failed shadow validation: {e}"))?;
    fault::install(faults.map(|f| FaultSpec::parse(f).expect("valid served-campaign spec")));
    let k = AttackerKnowledge::from_public(&fx.ds, WorkloadSpec::single_table());
    let manifest =
        std::env::temp_dir().join(format!("pace-{manifest}-{}.campaign", std::process::id()));
    let cfg = PipelineConfig {
        surrogate_type: surrogate,
        ..PipelineConfig::quick()
    };
    let out = run_served_campaign(&mut served, method, &fx.test, &k, &cfg, &manifest);
    fault::install(None);
    let outcome = out.map_err(|e| format!("served campaign failed: {e}"))?;
    if manifest.exists() {
        let _ = std::fs::remove_file(&manifest);
        return Err("completed campaign left its manifest behind".into());
    }
    Ok(ServedRun {
        outcome,
        replies: served.replies(),
        summary: served.summary(),
        active: served.active_version(),
    })
}

/// The served-campaign chaos scenario: a quick `Random` poison campaign
/// through the hot-swap serving path with the wave-1 candidate corrupted
/// mid-swap and admission overload bursts armed throughout. Two identical
/// runs must be bit-identical (swap ledger, reply log, and attack
/// measurements), the corrupted wave must be rejected and rolled back while
/// the other waves land, backpressure must actually be observed, and every
/// reply must be typed.
fn served_campaign_chaos_scenario() -> Result<String, String> {
    let mut failures = Vec::new();
    let mut first = None;
    bit_identity(
        "chaos: served campaign",
        &cells(race::sched_seed(), &[pool::threads(); 2]),
        &mut failures,
        |i| {
            // A tight admission queue: the injected same-instant bursts (24
            // arrivals) nearly fill it, so overload pressure is actually
            // observed during the waves. Near-capacity background traffic: the
            // runtime serves ~1080 req/s, so at 900 req/s the bursts overflow
            // the tight queue instead of being absorbed by headroom.
            let serve_cfg = ServeConfig {
                queue_cap: 32,
                ..ServeConfig::default()
            };
            let mut traffic = ServedTraffic::new(defense_fixture().pool.clone(), 907);
            traffic.rate = 900.0;
            // Armed after the clean install, so serve-swap site visits count
            // from the waves: visit 1 is wave 0's swap, visit 2 is wave 1's —
            // which the fault corrupts just before shadow validation. The
            // overload bursts hit every wave's background-traffic admission.
            let faults = "bad_update,site=serve-swap,at=2;overload,site=serve-admit,every=25";
            let random = AttackMethod::Random;
            let run = served_run(
                serve_cfg,
                traffic,
                Some(faults),
                random,
                None,
                &format!("chaos-{i}"),
            )?;
            let words = run.image();
            first.get_or_insert(run);
            Ok(words)
        },
    );
    failures.extend(first.iter().flat_map(|a| reply_contract(&a.replies, 32)));
    if let Some(f) = failures.first() {
        return Err(f.clone());
    }
    let a = first.expect("the baseline campaign ran");
    let swaps = &a.outcome.swaps;
    let waves = swaps.len();
    let rejected: Vec<_> = swaps
        .iter()
        .enumerate()
        .filter(|(_, s)| s.result.is_err())
        .map(|(i, s)| (i, s.result.clone()))
        .collect();
    let last_accepted = swaps
        .iter()
        .filter(|s| s.result.is_ok())
        .map(|s| s.version)
        .max();
    if waves < 3 || rejected != [(1, Err(SwapError::NonFiniteParams))] || a.active != last_accepted
    {
        return Err(format!(
            "expected 3 or more waves, wave 1 alone rejected as NonFiniteParams and rolled \
             back, and the last accepted version active; got {swaps:?} with {:?} active",
            a.active
        ));
    }
    let pressured = a.summary.shed + a.summary.fallback_served + a.summary.deadline_missed;
    if pressured == 0 {
        return Err("overload bursts produced no backpressure at all".into());
    }
    Ok(format!(
        "wave 1 rejected and rolled back, {} of {waves} waves landed, {pressured} pressured \
         replies, bit-identical",
        waves - 1
    ))
}

// ---------------------------------------------------------------------------
// defense-report — the served-campaign defense gate
// ---------------------------------------------------------------------------

/// Acceptance margin the defense drill applies to the clean model's own
/// pinned-set median q-error: a candidate snapshot passes shadow
/// validation only while its median stays within `margin ×` the honest
/// score. Wide enough that the clean v1 install and benign drift pass,
/// tight enough that accumulated poison trips the probe within a quick
/// campaign.
const DEFENSE_QERR_MARGIN: f64 = 2.0;

/// The defense drill's and the served chaos scenario's fixture: seeds
/// 901–903, a pool of 24, 60 test queries.
fn defense_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture::build(901, 24, 60))
}

/// A swap verdict as the defense ledger prints it.
fn verdict(result: &Result<(), SwapError>) -> String {
    result
        .as_ref()
        .map_or_else(ToString::to_string, |()| "installed".into())
}

/// The machine-readable `BENCH_defense.json`.
fn defense_json(
    wall_s: f64,
    honest_median: f64,
    qerr_limit: f64,
    run: &ServedRun,
    accepted: usize,
    rejected_by_probe: usize,
) -> Json {
    let waves = run.outcome.swaps.iter().map(|sw| {
        Json::obj([
            ("wave", Json::int(sw.wave)),
            ("version", Json::int(sw.version)),
            ("at", Json::num(sw.at, 6)),
            ("class", Json::str(sw.class())),
            ("detail", Json::str(&verdict(&sw.result))),
        ])
    });
    let summary = |s: &QErrorSummary| {
        Json::obj([
            ("mean", Json::num(s.mean, 6)),
            ("median", Json::num(s.median, 6)),
            ("p95", Json::num(s.p95, 6)),
        ])
    };
    let wave_count = run.outcome.swaps.len().max(1);
    Json::obj([
        ("wall_s", Json::num(wall_s, 6)),
        ("honest_median_qerr", Json::num(honest_median, 6)),
        ("swap_qerr_limit", Json::num(qerr_limit, 6)),
        ("waves", Json::Arr(waves.collect())),
        ("accepted", Json::int(accepted)),
        ("rejected_by_probe", Json::int(rejected_by_probe)),
        (
            "rejection_fraction",
            Json::num(rejected_by_probe as f64 / wave_count as f64, 4),
        ),
        ("clean", summary(&run.outcome.clean)),
        ("poisoned", summary(&run.outcome.poisoned)),
        ("divergence", Json::num(run.outcome.divergence, 6)),
        ("active_version", Json::opt(run.active)),
        ("totals", totals_json(&run.summary)),
    ])
}

fn defense_report(failures: &mut Vec<String>) -> Result<String, String> {
    let t0 = Instant::now();

    println!(
        "defense-report: Lb-S poison campaign through the validated hot-swap serving path \
         (swap limit = clean median × {DEFENSE_QERR_MARGIN}), at 1 thread, again, and at 8 \
         threads"
    );
    let fx = defense_fixture();
    let honest_median = SnapshotStore::new(fx.pinned.clone(), 1e6, 3).shadow_median_qerr(&fx.model);
    let qerr_limit = honest_median * DEFENSE_QERR_MARGIN;
    // Lb-S, not full PACE: one PACE wave alone pushes the pinned median
    // ~15× past the honest score, so every wave would be rejected and the
    // report would measure nothing. Lb-S degrades cumulatively — poison
    // lands until the accumulated damage trips the probe. The surrogate
    // type is fixed: speculation's behavioral-similarity probes add
    // nothing to the defense measurement.
    let mut first = None;
    bit_identity(
        "defense-report: served campaign",
        &cells(race::sched_seed(), &[1, 1, 8]),
        failures,
        |i| {
            let serve_cfg = ServeConfig {
                swap_qerr_limit: qerr_limit,
                ..ServeConfig::default()
            };
            let traffic = ServedTraffic::new(fx.pool.clone(), 905);
            let (lb_s, linear) = (AttackMethod::LbS, Some(CeModelType::Linear));
            let run = served_run(
                serve_cfg,
                traffic,
                None,
                lb_s,
                linear,
                &format!("defense-{i}"),
            )?;
            let words = run.image();
            first.get_or_insert(run);
            Ok(words)
        },
    );
    let Some(run) = first else {
        return Ok(String::new()); // the harness reported the failed baseline
    };

    // Every wave must have reached a typed swap verdict, in order.
    let swaps = &run.outcome.swaps;
    for (w, sw) in swaps.iter().enumerate() {
        if sw.wave != w as u64 || sw.version != 2 + w as u64 {
            failures.push(format!(
                "wave {w}: ledger entry out of order (wave {}, version {})",
                sw.wave, sw.version
            ));
        }
    }
    let waves = swaps.len();
    let accepted = swaps.iter().filter(|s| s.result.is_ok()).count();
    let rejected_by_probe = swaps
        .iter()
        .filter(|s| s.class() == "rejected-by-probe")
        .count();
    if waves == 0 {
        failures.push("campaign submitted no waves at all".into());
    }
    if rejected_by_probe == 0 {
        failures.push(
            "the pinned q-error probe rejected no poison wave — the swap gate is vacuous \
             at this margin"
                .into(),
        );
    }
    if accepted == 0 {
        failures.push(
            "no poison wave was accepted — the gate rejects everything, so the campaign \
             measures nothing"
                .into(),
        );
    }
    let last_accepted = swaps
        .iter()
        .filter(|s| s.result.is_ok())
        .map(|s| s.version)
        .max();
    if run.active != last_accepted.or(Some(1)) {
        failures.push(format!(
            "active version {:?} is not the last accepted snapshot {:?}",
            run.active, last_accepted
        ));
    }

    // Zero un-typed failures: every reply is Ok or a typed, in-contract
    // rejection.
    failures.extend(reply_contract(
        &run.replies,
        ServeConfig::default().queue_cap,
    ));

    println!("defense-report: clean pinned median {honest_median:.3}, swap limit {qerr_limit:.3}");
    println!("defense-report: wave ledger:");
    for sw in swaps {
        println!(
            "  wave {} v{} at {:.3}s: {} ({})",
            sw.wave,
            sw.version,
            sw.at,
            sw.class(),
            verdict(&sw.result)
        );
    }
    println!(
        "defense-report: {rejected_by_probe}/{waves} poison waves rejected by the pinned \
         probe; test q-error median {:.2} -> {:.2}; active {}",
        run.outcome.clean.median,
        run.outcome.poisoned.median,
        run.active
            .map_or_else(|| "none".to_string(), |v| format!("v{v}"))
    );

    defense_json(
        t0.elapsed().as_secs_f64(),
        honest_median,
        qerr_limit,
        &run,
        accepted,
        rejected_by_probe,
    )
    .write("BENCH_defense.json", failures);
    Ok(format!(
        "defense-report: all gates OK ({} served requests, {accepted} waves landed, \
         {rejected_by_probe} rolled back, bit-identical at 1 and 8 threads)",
        run.summary.requests
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_op_variants_from_real_source() {
        let src = read(&workspace_root(), "crates/tensor/src/graph.rs");
        let variants = op_variants(&src);
        assert!(variants.contains(&"Leaf".to_string()));
        assert!(variants.contains(&"BroadcastScalar".to_string()));
        assert!(variants.contains(&"SliceRows".to_string()));
        assert!(
            variants.len() >= 35,
            "found {}: {variants:?}",
            variants.len()
        );
    }

    #[test]
    fn strip_test_modules_removes_cfg_test_blocks() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let kept: Vec<&str> = strip_test_modules(src)
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        assert_eq!(kept, vec!["fn a() {}", "fn c() {}"]);
    }

    #[test]
    fn workload_unwrap_rule_covers_test_modules() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        // Elsewhere the rule stops at `#[cfg(test)]`…
        assert!(unwrap_violations(Path::new("crates/engine/src/count.rs"), src).is_empty());
        // …but the workload crate is scanned in full.
        let hits = unwrap_violations(Path::new("crates/workload/src/query.rs"), src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].contains("query.rs:4"));
    }

    #[test]
    fn lint_passes_on_current_tree() {
        let mut failures = Vec::new();
        lint(&mut failures).expect("the lint never stops early");
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn bit_identity_names_the_cell_and_word_that_diverge() {
        let cells = [1, 2, 4, 8].map(|threads| Cell {
            sched: Some(7),
            threads,
        });
        let base = vec![1, 2, 3, 4];
        let mut failures = Vec::new();
        let digest = bit_identity("probe", &cells, &mut failures, |i| match i {
            1 => Ok(vec![1, 2, 9, 4]),
            2 => Err("no result".into()),
            _ => Ok(base.clone()),
        });
        assert_eq!(digest, Some(fnv(&base)));
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(
            failures[0].contains("cell 1 (PACE_THREADS=2 PACE_SCHED=7)")
                && failures[0].contains("at word 2 "),
            "{failures:?}"
        );
        assert!(
            failures[1].contains("cell 2 (PACE_THREADS=4 PACE_SCHED=7) failed: no result"),
            "{failures:?}"
        );

        // A failing baseline stops the run.
        let mut calls = 0;
        let mut failures = Vec::new();
        let digest = bit_identity("probe", &cells, &mut failures, |_| {
            calls += 1;
            Err("no data".into())
        });
        assert_eq!((digest, calls), (None, 1));
        assert!(failures[0].contains("baseline"), "{failures:?}");
    }

    #[test]
    fn pool_call_spans_are_extracted_and_split_correctly() {
        let text = "pool::par_chunks(data.len(), MIN, |lo, hi| sum(&data[lo..hi]))";
        let open = text.find('(').expect("call has an open paren");
        let span = call_span(text, open).expect("parens balance");
        assert_eq!(span, "data.len(), MIN, |lo, hi| sum(&data[lo..hi])");
        let args = top_level_args(span);
        assert_eq!(args[0], "data.len()");
        assert_eq!(args[1].trim(), "MIN");
        // The trailing closure's commas must not over-split.
        assert_eq!(args.len(), 3);
        assert!(call_span("pool::run(1, |i| (", 9).is_none());
    }

    #[test]
    fn min_chunk_rule_accepts_constants_and_size_derived_locals() {
        // Literals and SCREAMING_CASE constants.
        assert!(min_chunk_arg_ok("16", ""));
        assert!(min_chunk_arg_ok("1_024", ""));
        assert!(min_chunk_arg_ok("ELEMWISE_PAR_MIN", ""));
        assert!(min_chunk_arg_ok("crate::matrix::MATMUL_PANEL", ""));
        // A local derived from input sizes alone.
        let clean = "let min_rows = (MATMUL_PAR_MIN_FLOPS / k.saturating_mul(m).max(1)).max(1);";
        assert!(min_chunk_arg_ok("min_rows", clean));
        // Thread-count- or env-derived locals are the bug this rule exists
        // to stop: the grid would change shape with PACE_THREADS.
        let dirty = "let min_rows = len / pool::threads();";
        assert!(!min_chunk_arg_ok("min_rows", dirty));
        let env = "let chunk = std::env::var(\"CHUNK\").map_or(8, |v| v.parse().of());";
        assert!(!min_chunk_arg_ok("chunk", env));
        // Inline expressions and unknown names must be hoisted into a local.
        assert!(!min_chunk_arg_ok("len / threads()", ""));
        assert!(!min_chunk_arg_ok("mystery", ""));
    }

    #[test]
    fn pool_discipline_exempts_the_pool_and_tooling_only() {
        assert!(pool_discipline_exempt(Path::new(
            "crates/runtime/src/lib.rs"
        )));
        assert!(pool_discipline_exempt(Path::new(
            "crates/xtask/src/main.rs"
        )));
        assert!(pool_discipline_exempt(Path::new(
            "crates/core/tests/pool_faults.rs"
        )));
        assert!(!pool_discipline_exempt(Path::new(
            "crates/tensor/src/matrix.rs"
        )));
        assert!(!pool_discipline_exempt(Path::new(
            "crates/engine/src/count.rs"
        )));
    }

    #[test]
    fn nan_sort_predicate_catches_the_original_bug() {
        // The exact shape of the pre-fix degraded-estimate median.
        assert!(is_nan_tolerant_sort(
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));"
        ));
        assert!(is_nan_tolerant_sort(
            "xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or_else(|| Ordering::Less));"
        ));
        // The fixed idiom must pass.
        assert!(!is_nan_tolerant_sort(
            "v.sort_by(|a, b| a.partial_cmp(b).expect(\"non-finite filtered\"));"
        ));
        assert!(!is_nan_tolerant_sort("total_cmp-based sort"));
    }

    #[test]
    fn raw_thread_lint_exempts_only_the_pool_crate() {
        // The pool's own scoped fan-out must stay lintable; everything else
        // is scanned.
        let root = workspace_root();
        let mut sources = Vec::new();
        collect_rs(&root.join("crates/runtime"), &root, &mut sources);
        assert!(
            !sources.is_empty(),
            "crates/runtime sources exist for the exemption to cover"
        );
        let pool_src = read(&root, "crates/runtime/src/lib.rs");
        assert!(
            THREAD_TOKENS.iter().any(|t| pool_src.contains(t)),
            "the pool crate is the sanctioned spawn site"
        );
    }

    #[test]
    fn probe_panic_tokens_cover_the_oracle_surface() {
        for t in [".explain(", ".count(", ".run_queries(", "read_params("] {
            assert!(PROBE_TOKENS.contains(&t), "missing probe token {t}");
        }
    }

    #[test]
    fn op_coverage_requires_a_second_order_case_per_op() {
        let variants: Vec<String> = ["Leaf", "MatMul", "RepeatCols", "SumAll"]
            .map(String::from)
            .to_vec();
        let src = "fn second_order_every_op() {\n    let y = g.matmul(x, w);\n    \
                   let s = g.sum_all(y);\n}\nfn later() { g.repeat_cols(x, 3); }\n";
        // `Leaf` is exempt, `MatMul` matches `.matmul(`, and a call outside
        // the test's body does not count.
        assert_eq!(second_order_gaps(&variants, src), ["RepeatCols"]);
    }
}
