//! Workspace maintenance tasks:
//! `cargo run -p xtask --
//! <lint|trace-report|chaos|determinism|race-report|serve-report|defense-report>`.
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
//! Exercises two surfaces in-process at several thread counts and requires
//! byte-identical results: batch exact counting (`Executor::count_batch`,
//! the pool's fan-out) and a briefly trained CE model's full parameter
//! vector. CI runs it under
//! `PACE_THREADS=1` and `PACE_THREADS=4` and additionally diffs the two
//! process outputs.
//!
//! # `chaos` — the fault-injection matrix
//!
//! Runs the `chaos_campaign` binary (a deterministic quick TPC-H PACE
//! campaign) under each `PACE_FAULTS` spec of the matrix and checks the
//! recovery contract: absorbed faults (timeout/error/corrupt retries,
//! crash + resume) must reproduce the fault-free run **bit-identically**;
//! NaN-gradient faults must still complete with finite results; a hard-down
//! oracle must fail with a typed error, not a panic. The serving fault
//! kinds (`overload`, `slow_consumer`, `bad_update`) run in-process
//! against the [`pace_serve`] runtime: each scenario executes twice under
//! the same spec and must be bit-identical, every rejection must be typed,
//! and a corrupted hot-swap must be rejected with live traffic unharmed.
//! A final served-campaign scenario routes a whole poison campaign through
//! the hot-swap gate with a corrupted wave-1 candidate and admission
//! overload bursts armed at once: the corrupted wave must be rejected and
//! rolled back, backpressure must be observed, and the campaign — swap
//! ledger, reply log, and attack measurements — must be bit-identical
//! across two runs. See `pace_tensor::fault` for the spec grammar.
//!
//! # `trace-report` — dynamic observability of a real campaign
//!
//! With no argument: runs the deterministic quick TPC-H demo campaign (the
//! same recipe as `chaos_campaign`) with `pace_tensor::trace` armed, then
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
use pace_tensor::trace;
use pace_tensor::Matrix;
use pace_workload::{generate_queries, QErrorSummary, Query, QueryEncoder, Workload, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "lint" => lint(),
        "trace-report" => trace_report(),
        "chaos" => chaos(),
        "determinism" => determinism(),
        "race-report" => race_report(),
        "serve-report" => serve_report(),
        "defense-report" => defense_report(),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- \
                 <lint|trace-report|chaos|determinism|race-report|serve-report|defense-report>"
            );
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut failures = Vec::new();
    check_op_coverage(&root, &mut failures);
    check_no_unwrap(&root, &mut failures);
    check_no_probe_panics(&root, &mut failures);
    check_no_raw_threads(&root, &mut failures);
    check_no_nan_sort(&root, &mut failures);
    check_pool_call_discipline(&root, &mut failures);
    if failures.is_empty() {
        println!("xtask lint: OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("xtask lint: {f}");
        }
        eprintln!("xtask lint: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
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

/// Runs the deterministic demo campaign (the `chaos_campaign` recipe) with
/// tracing armed, every stage inside an explicit phase span so the phase
/// totals tile the run. Returns the measured wall time.
fn run_traced_demo(trace_path: &Path, work_dir: &Path) -> Result<f64, String> {
    trace::reset_metrics();
    trace::install(Some(trace_path.to_path_buf()));
    let wall0 = Instant::now();
    let result = (|| -> Result<(), String> {
        let _root = trace::span("trace-report::demo");
        let seed = 42u64;
        let (ds, test, history, data, k, cfg) = {
            let _p = trace::span("demo::setup");
            let ds = build(DatasetKind::Tpch, Scale::quick(), seed);
            let exec = Executor::new(&ds);
            let spec = WorkloadSpec {
                max_join_tables: 3,
                ..WorkloadSpec::default()
            };
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let history = generate_queries(&ds, &spec, &mut rng, 400);
            let test = exec.label_nonzero(generate_queries(&ds, &spec, &mut rng, 80));
            let labeled = exec.label_nonzero(history.clone());
            let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
            let k = AttackerKnowledge::from_public(&ds, spec);
            let mut cfg = PipelineConfig::quick();
            // Fixed surrogate type: speculation keys off wall-clock latency
            // and would make the demo non-deterministic.
            cfg.surrogate_type = Some(CeModelType::Fcn);
            (ds, test, history, data, k, cfg)
        };
        let mut victim = {
            let _p = trace::span("demo::train-victim");
            let mut rng = StdRng::seed_from_u64(seed + 200);
            let mut model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), seed);
            model
                .train(&data, &mut rng)
                .map_err(|e| format!("victim training failed: {e}"))?;
            Victim::new(model, Executor::new(&ds), history)
        };
        let outcome = {
            let _p = trace::span("demo::campaign");
            let manifest = work_dir.join("demo.campaign");
            run_campaign(&mut victim, AttackMethod::Pace, &test, &k, &cfg, &manifest)
                .map_err(|e| format!("campaign failed: {e}"))?
        };
        {
            let _p = trace::span("demo::evaluate");
            let finite = |s: &QErrorSummary| {
                [s.mean, s.median, s.p90, s.p95, s.p99, s.max]
                    .iter()
                    .all(|v| v.is_finite())
            };
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
fn disarmed_overhead_ok() -> bool {
    use std::sync::atomic::{AtomicU64, Ordering};
    trace::install(None);
    trace::reset_metrics();
    static BASELINE: AtomicU64 = AtomicU64::new(7);
    const N: u64 = 20_000_000;
    for _ in 0..N / 20 {
        trace::MATMUL_FLOPS.add(std::hint::black_box(1));
    }
    let t0 = Instant::now();
    for _ in 0..N {
        trace::MATMUL_FLOPS.add(std::hint::black_box(1));
    }
    let disarmed_ns = t0.elapsed().as_secs_f64() * 1e9 / N as f64;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..N {
        acc = acc.wrapping_add(std::hint::black_box(BASELINE.load(Ordering::Relaxed)));
    }
    std::hint::black_box(acc);
    let baseline_ns = t0.elapsed().as_secs_f64() * 1e9 / N as f64;
    let counted = trace::MATMUL_FLOPS.get();
    println!(
        "\ndisarmed overhead: Counter::add {disarmed_ns:.2} ns/op, \
         relaxed-load baseline {baseline_ns:.2} ns/op"
    );
    if counted != 0 {
        eprintln!("trace-report: disarmed counter counted {counted} increments");
        return false;
    }
    if disarmed_ns > baseline_ns * 4.0 + 2.0 {
        eprintln!(
            "trace-report: disarmed counter increment costs {disarmed_ns:.2} ns — \
             more than one relaxed load's worth ({baseline_ns:.2} ns)"
        );
        return false;
    }
    true
}

/// Writes the machine-readable `BENCH_trace.json` next to the trace.
fn write_bench_json(
    path: &Path,
    wall_s: f64,
    phases: &[(String, u64, u64)],
    t: &TraceData,
) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"wall_s\": {wall_s:.6},\n"));
    s.push_str("  \"phases\": [");
    for (i, (name, count, total_ns)) in phases.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"name\": \"{name}\", \"count\": {count}, \"seconds\": {:.6}}}",
            *total_ns as f64 / 1e9
        ));
    }
    s.push_str("\n  ],\n  \"counters\": {");
    for (i, (name, value)) in t.counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{name}\": {value}"));
    }
    s.push_str("\n  }\n}\n");
    std::fs::write(path, s)
}

fn trace_report() -> ExitCode {
    let root = workspace_root();
    if let Some(path) = std::env::args().nth(2) {
        // Report-only mode: render an existing trace, no demo, no gates.
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trace-report: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("trace-report: {path}");
        print_trace_report(&parse_trace(&text));
        return ExitCode::SUCCESS;
    }

    let trace_path = root.join("pace_trace.jsonl");
    let work_dir = std::env::temp_dir().join(format!("pace-trace-report-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("trace-report: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    println!("trace-report: running the traced demo campaign (quick TPC-H, PACE)...");
    let demo = run_traced_demo(&trace_path, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let wall_s = match demo {
        Ok(w) => w,
        Err(e) => {
            eprintln!("trace-report: {e}");
            return ExitCode::FAILURE;
        }
    };

    let text = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-report: cannot read {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
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
        eprintln!("trace-report: demo root span missing from the trace");
        return ExitCode::FAILURE;
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

    if let Err(e) = write_bench_json(&root.join("BENCH_trace.json"), wall_s, &phases, &t) {
        eprintln!("trace-report: cannot write BENCH_trace.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {}", root.join("BENCH_trace.json").display());

    let mut ok = true;
    if (phase_s - demo_s).abs() / demo_s > 0.01 {
        eprintln!(
            "trace-report: phase totals ({phase_s:.3} s) diverge from the demo span \
             ({demo_s:.3} s) by more than 1% — untraced work inside the demo"
        );
        ok = false;
    }
    for name in COVERED_SPANS {
        match child_coverage(&t, name) {
            Some(c) if c >= MIN_CHILD_COVERAGE => {}
            Some(c) => {
                eprintln!(
                    "trace-report: the children of {name} cover {:.2}% of it, below {:.0}% \
                     — untraced work inside it",
                    c * 100.0,
                    MIN_CHILD_COVERAGE * 100.0
                );
                ok = false;
            }
            None => {
                eprintln!("trace-report: no {name} span in the demo trace");
                ok = false;
            }
        }
    }
    ok &= disarmed_overhead_ok();
    if ok {
        println!("trace-report: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- lint -------------------------------------------------------------------

/// The workspace root: this binary's manifest lives at `crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace two levels up")
        .to_path_buf()
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
    let mut sources = Vec::new();
    collect_rs(&root.join("crates"), root, &mut sources);
    for rel in sources {
        if unwrap_exempt(&rel) {
            continue;
        }
        let src = read(root, &rel.to_string_lossy());
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
    let mut sources = Vec::new();
    collect_rs(&root.join("crates/core/src"), root, &mut sources);
    collect_rs(&root.join("crates/ce/src"), root, &mut sources);
    for rel in sources {
        let src = read(root, &rel.to_string_lossy());
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
    let mut sources = Vec::new();
    collect_rs(&root.join("crates"), root, &mut sources);
    for rel in sources {
        let s = rel.to_string_lossy().into_owned();
        // crates/xtask is exempt because this lint's own token table would
        // match itself; it is tooling, not product code.
        if s.starts_with("crates/runtime/") || s.starts_with("crates/xtask/") {
            continue;
        }
        let src = read(root, &s);
        for (line_no, line) in src.lines().enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            if THREAD_TOKENS.iter().any(|t| code.contains(t)) {
                failures.push(format!(
                    "{s}:{}: raw thread primitive outside crates/runtime — fan out through \
                     `pace_runtime` so results stay thread-count invariant",
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
    let mut sources = Vec::new();
    collect_rs(&root.join("crates"), root, &mut sources);
    for rel in sources {
        if unwrap_exempt(&rel) {
            continue;
        }
        let src = read(root, &rel.to_string_lossy());
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
    let mut sources = Vec::new();
    collect_rs(&root.join("crates"), root, &mut sources);
    for rel in sources {
        if pool_discipline_exempt(&rel) {
            continue;
        }
        let src = read(root, &rel.to_string_lossy());
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

/// The parameter bytes of `matrices`, flattened in order.
fn matrix_bits(matrices: &[Matrix]) -> Vec<u32> {
    matrices
        .iter()
        .flat_map(|m| m.data().iter().map(|x| x.to_bits()))
        .collect()
}

/// Thread counts the in-process gate compares against the sequential run.
const DETERMINISM_THREADS: [usize; 3] = [2, 4, 8];

fn determinism() -> ExitCode {
    use pace_tensor::pool;
    let mut failures: Vec<String> = Vec::new();
    println!("determinism: quick TPC-H dataset + labeled workload...");
    let ds = build(DatasetKind::Tpch, Scale::quick(), 2);
    let exec = Executor::new(&ds);
    let mut rng = StdRng::seed_from_u64(42);
    let queries = generate_queries(&ds, &WorkloadSpec::default(), &mut rng, 96);

    // (1) Batch exact counting over the pool.
    pool::set_threads(1);
    let counts = exec.count_batch(&queries);
    for threads in DETERMINISM_THREADS {
        pool::set_threads(threads);
        if exec.count_batch(&queries) != counts {
            failures.push(format!("count_batch diverges at {threads} threads"));
        }
    }
    println!(
        "determinism: count_batch over {} queries — checked at {DETERMINISM_THREADS:?} threads",
        queries.len()
    );

    // (2) A briefly trained CE model: the full parameter vector must be
    // byte-equal whatever the thread count: training labels its data with
    // the batch above and is a long chain of kernels, so any
    // reduction-order leak compounds here.
    let labeled = exec.label_nonzero(queries);
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    let train_once = || -> Result<Vec<u32>, String> {
        let mut model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), 6);
        let mut rng = StdRng::seed_from_u64(7);
        model
            .train(&data, &mut rng)
            .map_err(|e| format!("training failed: {e}"))?;
        Ok(matrix_bits(&model.params().snapshot()))
    };
    pool::set_threads(1);
    match train_once() {
        Err(e) => failures.push(e),
        Ok(params) => {
            for threads in DETERMINISM_THREADS {
                pool::set_threads(threads);
                match train_once() {
                    Err(e) => failures.push(format!("{threads} threads: {e}")),
                    Ok(p) if p != params => {
                        failures.push(format!("trained parameters diverge at {threads} threads"))
                    }
                    Ok(_) => {}
                }
            }
            println!(
                "determinism: FCN training ({} parameter scalars) — checked at \
                 {DETERMINISM_THREADS:?} threads",
                params.len()
            );
        }
    }
    pool::set_threads(0);

    if failures.is_empty() {
        println!("xtask determinism: bit-identical across thread counts");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("xtask determinism: {f}");
        }
        eprintln!("xtask determinism: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

// ---- race-report ------------------------------------------------------------

/// Adversarial `PACE_SCHED` seeds for the schedule-fuzz matrix. Eight
/// arbitrary but fixed seeds; each drives a different chunk-pull
/// permutation and yield pattern in every parallel region.
const SCHED_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0x5eed, 0xfeed_f00d];

/// Thread counts the schedule matrix crosses with [`SCHED_SEEDS`].
const SCHED_THREADS: [usize; 3] = [1, 4, 8];

/// FNV-1a over `u64` words — the same fingerprint `chaos_campaign` prints,
/// so digests are comparable across gates.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Runs a reduced demo campaign (the `chaos_campaign` recipe at 200 history
/// / 40 test queries) from scratch — labeling and victim training
/// included, so every `count_batch` fan-out sits under the active
/// schedule — and returns its bit-exact fingerprint.
fn demo_campaign_digest(ds: &Dataset, work: &Path, tag: &str) -> Result<u64, String> {
    let exec = Executor::new(ds);
    let spec = WorkloadSpec {
        max_join_tables: 3,
        ..WorkloadSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(142);
    let history = generate_queries(ds, &spec, &mut rng, 200);
    let test = exec.label_nonzero(generate_queries(ds, &spec, &mut rng, 40));
    let labeled = exec.label_nonzero(history.clone());
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(ds), &labeled);
    let mut model = CeModel::new(CeModelType::Fcn, ds, CeConfig::quick(), 42);
    let mut train_rng = StdRng::seed_from_u64(242);
    model
        .train(&data, &mut train_rng)
        .map_err(|e| format!("victim training failed: {e}"))?;
    let mut victim = Victim::new(model, Executor::new(ds), history);
    let k = AttackerKnowledge::from_public(ds, spec);
    let mut cfg = PipelineConfig::quick();
    // Fixed surrogate type: speculation keys off wall-clock latency and
    // would make the digest non-deterministic.
    cfg.surrogate_type = Some(CeModelType::Fcn);
    let manifest = work.join(format!("race-{tag}.campaign"));
    let outcome = run_campaign(&mut victim, AttackMethod::Pace, &test, &k, &cfg, &manifest)
        .map_err(|e| format!("campaign failed: {e}"))?;

    let mut h = Fnv::new();
    for s in [&outcome.clean, &outcome.poisoned] {
        for v in [s.mean, s.median, s.p90, s.p95, s.p99, s.max] {
            h.write_u64(v.to_bits());
        }
    }
    h.write_u64(outcome.divergence.to_bits());
    for q in &outcome.poison {
        for &t in &q.tables {
            h.write_u64(t as u64);
        }
        for p in &q.predicates {
            h.write_u64(p.table as u64);
            h.write_u64(p.col as u64);
            h.write_u64(p.lo as u64);
            h.write_u64(p.hi as u64);
        }
    }
    let mut params = Vec::new();
    pace_tensor::serialize::write_params(victim.model().params(), &mut params)
        .map_err(|e| format!("cannot serialize the poisoned model: {e}"))?;
    for b in params {
        h.write_u64(u64::from(b));
    }
    Ok(h.finish())
}

fn race_report() -> ExitCode {
    use pace_tensor::pool;
    use pool::flags::FlagMode;
    use pool::race;

    let root = workspace_root();
    let mut failures: Vec<String> = Vec::new();

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

    // (2) Schedule-fuzz matrix: count_batch and a reduced demo campaign must
    // be bit-identical across adversarial seeds × thread counts.
    let work_dir = std::env::temp_dir().join(format!("pace-race-report-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("race-report: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    race::set_sched(None);
    pool::set_threads(1);
    let counts_base = exec.count_batch(&queries);
    println!("race-report: baseline campaign digest (natural schedule, 1 thread)...");
    let digest_base = match demo_campaign_digest(&ds, &work_dir, "base") {
        Ok(d) => d,
        Err(e) => {
            eprintln!("race-report: baseline campaign failed: {e}");
            let _ = std::fs::remove_dir_all(&work_dir);
            return ExitCode::FAILURE;
        }
    };
    println!("race-report: baseline fingerprint {digest_base:016x}");
    let mut combos = 0usize;
    for (si, &seed) in SCHED_SEEDS.iter().enumerate() {
        for &threads in &SCHED_THREADS {
            race::set_sched(Some(seed));
            pool::set_threads(threads);
            combos += 1;
            if exec.count_batch(&queries) != counts_base {
                failures.push(format!(
                    "count_batch diverges under PACE_SCHED={seed} at {threads} threads"
                ));
            }
            match demo_campaign_digest(&ds, &work_dir, &format!("s{si}t{threads}")) {
                Ok(d) if d == digest_base => {}
                Ok(d) => failures.push(format!(
                    "demo campaign diverges under PACE_SCHED={seed} at {threads} threads: \
                     {d:016x} != {digest_base:016x}"
                )),
                Err(e) => failures.push(format!(
                    "demo campaign failed under PACE_SCHED={seed} at {threads} threads: {e}"
                )),
            }
        }
        println!(
            "race-report: seed {seed:#x}: count_batch + campaign bit-identical at \
             {SCHED_THREADS:?} threads"
        );
    }
    race::set_sched(None);
    let _ = std::fs::remove_dir_all(&work_dir);

    // (3) Disarmed overhead: with PACE_RACE off, the per-region check is
    // 1–2 relaxed loads — bounded both absolutely (vs a measured relaxed
    // load) and relatively (≤ 1% of one count_batch fan-out).
    pool::set_threads(4);
    let (check_ns, load_ns) = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static BASELINE: AtomicU64 = AtomicU64::new(7);
        const N: u64 = 20_000_000;
        for _ in 0..N / 20 {
            std::hint::black_box(race::armed());
        }
        let t0 = Instant::now();
        for _ in 0..N {
            std::hint::black_box(race::armed());
            std::hint::black_box(race::sched_seed());
        }
        let check_ns = t0.elapsed().as_secs_f64() * 1e9 / N as f64;
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..N {
            acc = acc.wrapping_add(std::hint::black_box(BASELINE.load(Ordering::Relaxed)));
        }
        std::hint::black_box(acc);
        (check_ns, t0.elapsed().as_secs_f64() * 1e9 / N as f64)
    };
    let bench_ns = |f: &dyn Fn()| {
        f(); // warm
        let reps = 5;
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(reps)
    };
    let count_ns = bench_ns(&|| {
        std::hint::black_box(exec.count_batch(&queries));
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

    // Machine-readable artifact for CI.
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"schedule_matrix\": {{\"seeds\": {SCHED_SEEDS:?}, \
         \"threads\": {SCHED_THREADS:?}, \"combos\": {combos}, \
         \"campaign_fingerprint\": \"{digest_base:016x}\"}},\n"
    ));
    s.push_str(&format!(
        "  \"disarmed_overhead\": {{\"check_ns\": {check_ns:.4}, \
         \"relaxed_load_ns\": {load_ns:.4}, \"count_batch_ns\": {count_ns:.0}, \
         \"count_share\": {count_share:.6}}},\n"
    ));
    s.push_str(&format!("  \"failures\": {}\n}}\n", failures.len()));
    let json_path = root.join("BENCH_race.json");
    if let Err(e) = std::fs::write(&json_path, s) {
        eprintln!("race-report: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    println!("race-report: wrote {}", json_path.display());

    if failures.is_empty() {
        println!(
            "xtask race-report: OK — seeded dirty region caught, {combos} schedule \
             combos bit-identical"
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("xtask race-report: {f}");
        }
        eprintln!("xtask race-report: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

// ---- chaos ------------------------------------------------------------------

/// One `chaos_campaign` process run.
struct ChaosRun {
    code: i32,
    stdout: String,
    stderr: String,
}

fn chaos_campaign_once(manifest: &Path, faults: Option<&str>) -> ChaosRun {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = std::process::Command::new(cargo);
    cmd.args([
        "run",
        "--release",
        "-q",
        "-p",
        "xtask",
        "--bin",
        "chaos_campaign",
        "--",
    ]);
    cmd.arg(manifest);
    match faults {
        Some(f) => {
            cmd.env("PACE_FAULTS", f);
        }
        None => {
            cmd.env_remove("PACE_FAULTS");
        }
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("xtask chaos: cannot spawn chaos_campaign: {e}"));
    ChaosRun {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Runs the campaign to completion through injected crashes: every exit code
/// [`pace_tensor::fault::CRASH_EXIT_CODE`] resumes from the same manifest.
/// Returns the final run and how many crashes were absorbed.
fn chaos_campaign_resuming(manifest: &Path, faults: &str, max_runs: u32) -> (ChaosRun, u32) {
    let mut crashes = 0;
    for _ in 0..max_runs {
        let run = chaos_campaign_once(manifest, Some(faults));
        if run.code == fault::CRASH_EXIT_CODE {
            crashes += 1;
            continue;
        }
        return (run, crashes);
    }
    panic!("xtask chaos: campaign under {faults:?} still crashing after {max_runs} runs");
}

fn chaos() -> ExitCode {
    let dir = std::env::temp_dir().join(format!("pace-chaos-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("xtask chaos: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failures: Vec<String> = Vec::new();

    // Fault-free baseline, run twice: the campaign itself must be
    // deterministic before fault recovery can promise bit-identity.
    println!("chaos: baseline (faults off), twice...");
    let base_a = chaos_campaign_once(&dir.join("baseline-a"), None);
    let base_b = chaos_campaign_once(&dir.join("baseline-b"), None);
    if base_a.code != 0 {
        eprintln!("{}", base_a.stderr);
        eprintln!(
            "xtask chaos: fault-free campaign failed (exit {})",
            base_a.code
        );
        return ExitCode::FAILURE;
    }
    if base_b.stdout != base_a.stdout {
        failures
            .push("baseline: two fault-free runs disagree — campaign is non-deterministic".into());
    }
    print!("{}", base_a.stdout);

    // Transient faults: retries/validation absorb them and the campaign
    // reproduces the baseline exactly.
    for (name, spec) in [
        ("timeout", "seed=7;timeout,site=explain,every=9,lat=0.05"),
        ("error", "seed=7;error,site=explain,every=11"),
        ("corrupt", "seed=7;corrupt,site=explain,every=13"),
    ] {
        println!("chaos: {name} ({spec})...");
        let run = chaos_campaign_once(&dir.join(name), Some(spec));
        if run.code != 0 {
            failures.push(format!("{name}: exit {} — {}", run.code, run.stderr.trim()));
        } else if run.stdout != base_a.stdout {
            failures.push(format!(
                "{name}: absorbed faults changed the outcome\n  baseline: {}\n  faulted : {}",
                last_line(&base_a.stdout),
                last_line(&run.stdout)
            ));
        }
    }

    // NaN gradients: rollback + halved LR changes the trajectory, so only
    // completion with finite results is required.
    {
        let spec = "nan,site=ce-update,at=1;nan,site=surrogate-imitate,at=2";
        println!("chaos: nan ({spec})...");
        let run = chaos_campaign_once(&dir.join("nan"), Some(spec));
        if run.code != 0 {
            failures.push(format!("nan: exit {} — {}", run.code, run.stderr.trim()));
        }
    }

    // Crashes: the process dies at the injected point; resuming from the
    // manifest must reproduce the baseline bit-identically.
    for (name, spec, min_crashes) in [
        ("crash-craft", "crash,site=campaign-craft,at=1", 1),
        ("crash-wave", "crash,site=campaign-wave,every=2", 1),
    ] {
        println!("chaos: {name} ({spec})...");
        let (run, crashes) = chaos_campaign_resuming(&dir.join(name), spec, 10);
        if crashes < min_crashes {
            failures.push(format!("{name}: expected an injected crash, saw none"));
        }
        if run.code != 0 {
            failures.push(format!(
                "{name}: resumed campaign failed (exit {}) — {}",
                run.code,
                run.stderr.trim()
            ));
        } else if run.stdout != base_a.stdout {
            failures.push(format!(
                "{name}: resume after {crashes} crash(es) diverged from the baseline\n  \
                 baseline: {}\n  resumed : {}",
                last_line(&base_a.stdout),
                last_line(&run.stdout)
            ));
        } else {
            println!("chaos: {name}: resumed through {crashes} crash(es), bit-identical");
        }
    }

    // Hard-down oracle: every retry and degradation path exhausts; the
    // campaign must fail with a typed error (exit 2), never a panic.
    {
        let spec = "error,site=explain,every=1";
        println!("chaos: hard-down ({spec})...");
        let run = chaos_campaign_once(&dir.join("hard-down"), Some(spec));
        if run.code != 2 {
            failures.push(format!(
                "hard-down: expected a typed campaign error (exit 2), got exit {} — {}",
                run.code,
                run.stderr.trim()
            ));
        }
    }

    // Serving kinds: in-process drills of the `pace-serve` runtime (the
    // campaign binary has no serving path). Each scenario runs twice under
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
    if failures.is_empty() {
        println!("xtask chaos: full fault matrix OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("xtask chaos: {f}");
        }
        eprintln!("xtask chaos: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
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
        Phase {
            name: "ramp",
            duration: 0.5,
            rate: 300.0,
        },
        Phase {
            name: "rated",
            duration: 1.0,
            rate: 600.0,
        },
        Phase {
            name: "overload",
            duration: 1.5,
            rate: 1200.0,
        },
        Phase {
            name: "swap-window",
            duration: 1.0,
            rate: 600.0,
        },
        Phase {
            name: "recovery",
            duration: 1.0,
            rate: 600.0,
        },
    ]
}

/// Shared dataset/model/workload for the serving drills; model training
/// dominates the setup cost, so it runs once per process.
struct ServeFixture {
    ds: Dataset,
    model: CeModel,
    pinned: Vec<PinnedQuery>,
    pool: Vec<Query>,
}

fn serve_fixture() -> &'static ServeFixture {
    static FIXTURE: OnceLock<ServeFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = build(DatasetKind::Dmv, Scale::tiny(), 601);
        let exec = Executor::new(&ds);
        let mut rng = StdRng::seed_from_u64(602);
        let labeled = exec.label_nonzero(generate_queries(
            &ds,
            &WorkloadSpec::single_table(),
            &mut rng,
            200,
        ));
        let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
        let mut model = CeModel::new(CeModelType::Linear, &ds, CeConfig::quick(), 603);
        model
            .train(&data, &mut rng)
            .expect("serve fixture model trains");
        let pool = labeled.iter().take(32).map(|lq| lq.query.clone()).collect();
        ServeFixture {
            pinned: pinned_from_encoded(&data, 24),
            ds,
            model,
            pool,
        }
    })
}

/// Everything one serving drill produced.
struct DrillRun {
    requests: usize,
    records: Vec<ReplyRecord>,
    summary: ServeSummary,
    swaps: Vec<SwapOutcome>,
    active: Option<u64>,
}

/// Runs the full five-phase drill at `threads` pool threads. Faults are
/// scoped: the admission `overload` bursts are armed only while the
/// overload phase's arrivals are generated, and `bad_update` is armed for
/// the in-flight swaps (it fires once, corrupting v2; v3 passes clean).
fn serve_drill(threads: usize) -> DrillRun {
    use pace_tensor::pool;
    let fx = serve_fixture();
    pool::set_threads(threads);
    fault::install(None);
    let mut srv = Server::new(
        ServeConfig::default(),
        fx.ds.schema.clone(),
        fx.pinned.clone(),
        Some(HistogramEstimator::build(&fx.ds, 32)),
    );
    srv.try_swap(1, fx.model.clone())
        .expect("initial snapshot validates");

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
    let swaps = vec![
        SwapEvent {
            at: 3.5,
            version: 2,
            model: fx.model.clone(),
        },
        SwapEvent {
            at: 3.8,
            version: 3,
            model: fx.model.clone(),
        },
    ];
    let n = requests.len();
    let records = srv.run(requests, swaps);
    fault::install(None);
    DrillRun {
        requests: n,
        records,
        summary: srv.summary().clone(),
        swaps: srv.swap_log().to_vec(),
        active: srv.snapshots().active_version(),
    }
}

/// First divergence between two reply sequences (bit-level on floats), or
/// `None` when identical.
fn records_diverge(a: &[ReplyRecord], b: &[ReplyRecord]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("lengths differ: {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let same = x.id == y.id
            && x.arrival.to_bits() == y.arrival.to_bits()
            && match (&x.outcome, &y.outcome) {
                (Ok(rx), Ok(ry)) => {
                    rx.estimate.to_bits() == ry.estimate.to_bits()
                        && rx.source == ry.source
                        && rx.completed_at.to_bits() == ry.completed_at.to_bits()
                }
                (Err(ex), Err(ey)) => ex == ey,
                _ => false,
            };
        if !same {
            return Some(format!(
                "record {i} (id {}) differs: {:?} vs {:?}",
                x.id, x.outcome, y.outcome
            ));
        }
    }
    None
}

/// Per-phase serving statistics, bucketed by request arrival time.
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
            requests: 0,
            ok: 0,
            learned: 0,
            fallback: 0,
            shed: 0,
            deadline_missed: 0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
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

/// Writes the machine-readable `BENCH_serve.json` at the workspace root.
fn write_serve_json(
    path: &Path,
    wall_s: f64,
    stats: &[ServePhaseStats],
    hist: &[u64; 8],
    run: &DrillRun,
    queue_cap: usize,
) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"wall_s\": {wall_s:.6},\n"));
    s.push_str(&format!(
        "  \"virtual_s\": {:.3},\n",
        pace_serve::total_duration(&serve_phases())
    ));
    s.push_str("  \"phases\": [");
    for (i, p) in stats.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let shed_rate = if p.requests == 0 {
            0.0
        } else {
            p.shed as f64 / p.requests as f64
        };
        s.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"requests\": {}, \"ok\": {}, \"learned\": {}, \
             \"fallback\": {}, \"shed\": {}, \"shed_rate\": {:.4}, \"deadline_missed\": {}, \
             \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}",
            p.name,
            p.requests,
            p.ok,
            p.learned,
            p.fallback,
            p.shed,
            shed_rate,
            p.deadline_missed,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms,
        ));
    }
    s.push_str("\n  ],\n  \"latency_histogram_ms\": {");
    for (i, count) in hist.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let label = match SERVE_LAT_BUCKETS_MS.get(i) {
            Some(edge) => format!("le_{edge}"),
            None => format!(
                "gt_{}",
                SERVE_LAT_BUCKETS_MS[SERVE_LAT_BUCKETS_MS.len() - 1]
            ),
        };
        s.push_str(&format!("\n    \"{label}\": {count}"));
    }
    s.push_str("\n  },\n  \"swaps\": [");
    for (i, sw) in run.swaps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let outcome = match &sw.result {
            Ok(()) => "installed".to_string(),
            Err(e) => format!("rejected: {e}"),
        };
        s.push_str(&format!(
            "\n    {{\"at\": {:.3}, \"version\": {}, \"outcome\": \"{outcome}\"}}",
            sw.at, sw.version
        ));
    }
    s.push_str("\n  ],\n");
    s.push_str(&format!(
        "  \"active_version\": {},\n",
        run.active
            .map_or_else(|| "null".to_string(), |v| v.to_string())
    ));
    s.push_str(&format!("  \"queue_cap\": {queue_cap},\n"));
    s.push_str(&format!(
        "  \"max_queue_depth\": {},\n",
        run.summary.max_queue_depth
    ));
    s.push_str(&format!(
        "  \"totals\": {{\"requests\": {}, \"shed\": {}, \"fallback_served\": {}, \
         \"learned_served\": {}, \"deadline_missed\": {}, \"batches\": {}}}\n",
        run.summary.requests,
        run.summary.shed,
        run.summary.fallback_served,
        run.summary.learned_served,
        run.summary.deadline_missed,
        run.summary.batches,
    ));
    s.push_str("}\n");
    std::fs::write(path, s)
}

fn serve_report() -> ExitCode {
    use pace_tensor::pool;
    let root = workspace_root();
    let t0 = Instant::now();
    let mut failures: Vec<String> = Vec::new();

    println!(
        "serve-report: five-phase drill (ramp -> rated -> 2x overload -> bad-update swap \
         window -> recovery), ~5 s virtual time"
    );
    let run = serve_drill(1);
    println!("serve-report: re-running at 1 thread and at 8 threads for bit-identity...");
    let again = serve_drill(1);
    let wide = serve_drill(8);
    pool::set_threads(0);

    if let Some(d) = records_diverge(&run.records, &again.records) {
        failures.push(format!("determinism: two 1-thread runs diverge — {d}"));
    }
    if let Some(d) = records_diverge(&run.records, &wide.records) {
        failures.push(format!(
            "threads: 1-thread and 8-thread reply sequences diverge — {d}"
        ));
    }
    if run.records.len() != run.requests {
        failures.push(format!(
            "{} requests in, {} reply records out — a request was silently dropped",
            run.requests,
            run.records.len()
        ));
    }

    let queue_cap = ServeConfig::default().queue_cap;
    for r in &run.records {
        match &r.outcome {
            Ok(reply) => {
                if !(reply.estimate.is_finite() && reply.estimate >= 0.0) {
                    failures.push(format!(
                        "request {}: served estimate {} is outside [0, f64::MAX]",
                        r.id, reply.estimate
                    ));
                }
                if reply.completed_at < r.arrival {
                    failures.push(format!("request {}: completed before it arrived", r.id));
                }
            }
            Err(ServeError::Shed { depth }) => {
                if *depth > queue_cap {
                    failures.push(format!(
                        "request {}: shed at depth {depth} above the cap {queue_cap}",
                        r.id
                    ));
                }
            }
            Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(e) => failures.push(format!("request {}: unexpected rejection: {e}", r.id)),
        }
    }
    if run.summary.max_queue_depth > queue_cap {
        failures.push(format!(
            "queue depth reached {} — the {queue_cap} cap did not hold",
            run.summary.max_queue_depth
        ));
    }

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

    // Swap log: v1 installed pre-stream, corrupted v2 rejected, clean v3
    // installed; zero failed well-formed requests around the swap window.
    let expected = [(1u64, true), (2, false), (3, true)];
    if run.swaps.len() != expected.len() {
        failures.push(format!(
            "expected {} swap attempts, saw {}",
            expected.len(),
            run.swaps.len()
        ));
    } else {
        for (&(version, ok), sw) in expected.iter().zip(&run.swaps) {
            if sw.version != version || sw.result.is_ok() != ok {
                failures.push(format!(
                    "swap v{}: expected {}, got {:?}",
                    sw.version,
                    if ok { "install" } else { "rejection" },
                    sw.result
                ));
            }
        }
        if run.swaps[1].result != Err(SwapError::NonFiniteParams) {
            failures.push(format!(
                "corrupted v2 rejected for the wrong reason: {:?}",
                run.swaps[1].result
            ));
        }
    }
    if run.active != Some(3) {
        failures.push(format!(
            "active version after the drill is {:?}, expected v3",
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
        let mut srv = Server::new(
            ServeConfig::default(),
            fx.ds.schema.clone(),
            fx.pinned.clone(),
            Some(HistogramEstimator::build(&fx.ds, 32)),
        );
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
    let path = root.join("BENCH_serve.json");
    match write_serve_json(
        &path,
        t0.elapsed().as_secs_f64(),
        &stats,
        &hist,
        &run,
        queue_cap,
    ) {
        Ok(()) => println!("serve-report: wrote {}", path.display()),
        Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
    }

    if failures.is_empty() {
        println!(
            "serve-report: all gates OK ({} requests, {} batches, {} sheds, bit-identical at \
             1 and 8 threads)",
            run.summary.requests, run.summary.batches, run.summary.shed
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("xtask serve-report: {f}");
        }
        eprintln!("xtask serve-report: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

/// One in-process serving chaos run: rated then stressed traffic with a
/// v2 hot-swap attempt mid-stream, under `spec`.
fn serve_chaos_once(spec: &str, stress_rate: f64) -> DrillRun {
    let fx = serve_fixture();
    fault::install(None);
    let cfg = ServeConfig {
        queue_cap: 32,
        ..ServeConfig::default()
    };
    let mut srv = Server::new(
        cfg,
        fx.ds.schema.clone(),
        fx.pinned.clone(),
        Some(HistogramEstimator::build(&fx.ds, 32)),
    );
    srv.try_swap(1, fx.model.clone())
        .expect("initial snapshot validates");
    fault::install(Some(FaultSpec::parse(spec).expect("valid serving spec")));
    let phases = [
        Phase {
            name: "rated",
            duration: 0.3,
            rate: 600.0,
        },
        Phase {
            name: "stress",
            duration: 0.3,
            rate: stress_rate,
        },
    ];
    let requests = pace_serve::generate(&phases, &fx.pool, 811, 0.08, 0);
    let n = requests.len();
    let records = srv.run(
        requests,
        vec![SwapEvent {
            at: 0.45,
            version: 2,
            model: fx.model.clone(),
        }],
    );
    fault::install(None);
    DrillRun {
        requests: n,
        records,
        summary: srv.summary().clone(),
        swaps: srv.swap_log().to_vec(),
        active: srv.snapshots().active_version(),
    }
}

/// Checks one serving fault kind end to end: two bit-identical runs, typed
/// rejections only, finite estimates, and kind-specific recovery facts.
fn serve_chaos_scenario(kind: &str, spec: &str) -> Result<String, String> {
    // The bad-update scenario stays at rated load so the swap rejection is
    // observed with zero collateral rejections; the others stress at 2.5×.
    let stress_rate = if kind == "bad_update" { 600.0 } else { 1500.0 };
    let a = serve_chaos_once(spec, stress_rate);
    let b = serve_chaos_once(spec, stress_rate);
    if let Some(d) = records_diverge(&a.records, &b.records) {
        return Err(format!("two runs under the same spec diverge — {d}"));
    }
    if a.records.len() != a.requests {
        return Err(format!(
            "{} requests in, {} records out — silent drop",
            a.requests,
            a.records.len()
        ));
    }
    for r in &a.records {
        match &r.outcome {
            Ok(reply) if reply.estimate.is_finite() && reply.estimate >= 0.0 => {}
            Ok(reply) => {
                return Err(format!(
                    "request {}: served estimate {} is outside [0, f64::MAX]",
                    r.id, reply.estimate
                ))
            }
            Err(ServeError::Shed { depth }) if *depth <= 32 => {}
            Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(e) => return Err(format!("request {}: unexpected rejection: {e}", r.id)),
        }
    }
    match kind {
        "overload" => {
            if a.summary.shed == 0 {
                return Err("expected typed sheds under burst overload, saw none".into());
            }
            if a.summary.max_queue_depth > 32 {
                return Err(format!(
                    "queue depth {} exceeded the cap",
                    a.summary.max_queue_depth
                ));
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

/// One in-process served-campaign chaos run: a quick `Random` poison
/// campaign through the hot-swap serving path with the wave-1 candidate
/// corrupted mid-swap and admission overload bursts armed throughout.
/// Returns the attack outcome plus the serving-side ledgers.
fn served_campaign_chaos_once(
    tag: &str,
) -> Result<(AttackOutcome, Vec<ReplyRecord>, ServeSummary, Option<u64>), String> {
    let fx = defense_fixture();
    fault::install(None);
    // A tight admission queue: the injected same-instant bursts (24
    // arrivals) nearly fill it, so overload pressure is actually observed
    // during the waves.
    let server = Server::new(
        ServeConfig {
            queue_cap: 32,
            ..ServeConfig::default()
        },
        fx.ds.schema.clone(),
        fx.pinned.clone(),
        Some(HistogramEstimator::build(&fx.ds, 32)),
    );
    // Near-capacity background traffic: the runtime serves ~1080 req/s, so
    // at 900 req/s the injected bursts overflow the tight queue instead of
    // being absorbed by headroom.
    let mut traffic = ServedTraffic::new(fx.pool.clone(), 907);
    traffic.rate = 900.0;
    let mut served = ServedVictim::new(
        server,
        fx.model.clone(),
        Executor::new(&fx.ds),
        fx.history.clone(),
        traffic,
    )
    .map_err(|e| format!("clean install failed shadow validation: {e}"))?;
    // Armed *after* construction, so serve-swap site visits count from the
    // waves: visit 1 is wave 0's swap, visit 2 is wave 1's — which the
    // fault corrupts just before shadow validation. The overload bursts
    // hit every wave's background-traffic admission.
    fault::install(Some(
        FaultSpec::parse("bad_update,site=serve-swap,at=2;overload,site=serve-admit,every=25")
            .expect("valid chaos spec"),
    ));
    let k = AttackerKnowledge::from_public(&fx.ds, WorkloadSpec::single_table());
    let cfg = PipelineConfig::quick();
    let manifest = std::env::temp_dir().join(format!(
        "pace-chaos-served-{}-{tag}.campaign",
        std::process::id()
    ));
    let out = run_served_campaign(
        &mut served,
        AttackMethod::Random,
        &fx.test,
        &k,
        &cfg,
        &manifest,
    );
    fault::install(None);
    let out = out.map_err(|e| format!("served campaign failed under chaos: {e}"))?;
    if manifest.exists() {
        let _ = std::fs::remove_file(&manifest);
        return Err("completed campaign left its manifest behind".into());
    }
    Ok((
        out,
        served.replies(),
        served.summary(),
        served.active_version(),
    ))
}

/// The served-campaign chaos scenario: two identical runs under the
/// combined bad-update + overload spec must be bit-identical (swap ledger,
/// reply log, and attack measurements), the corrupted wave must be
/// rejected and rolled back while the other waves land, backpressure must
/// actually be observed, and every reply must be typed.
fn served_campaign_chaos_scenario() -> Result<String, String> {
    let (a, replies_a, summary_a, active_a) = served_campaign_chaos_once("a")?;
    let (b, replies_b, _, _) = served_campaign_chaos_once("b")?;
    if a.swaps != b.swaps {
        return Err(format!(
            "two runs under the same spec produce different swap ledgers:\n  a: {:?}\n  b: {:?}",
            a.swaps, b.swaps
        ));
    }
    if let Some(d) = records_diverge(&replies_a, &replies_b) {
        return Err(format!("two runs under the same spec diverge — {d}"));
    }
    if a.poisoned.mean.to_bits() != b.poisoned.mean.to_bits()
        || a.divergence.to_bits() != b.divergence.to_bits()
    {
        return Err("attack measurements differ between two identical runs".into());
    }

    let waves = a.swaps.len();
    if waves < 3 {
        return Err(format!("expected at least 3 waves, saw {waves}"));
    }
    match a.swaps.get(1).map(|s| &s.result) {
        Some(Err(SwapError::NonFiniteParams)) => {}
        other => {
            return Err(format!(
                "corrupted wave-1 candidate was not rejected as NonFiniteParams: {other:?}"
            ))
        }
    }
    let accepted = a.swaps.iter().filter(|s| s.result.is_ok()).count();
    if accepted != waves - 1 {
        return Err(format!(
            "expected every wave but the corrupted one to land, got {accepted} of {waves}: {:?}",
            a.swaps
        ));
    }
    let last_accepted = a
        .swaps
        .iter()
        .filter(|s| s.result.is_ok())
        .map(|s| s.version)
        .max();
    if active_a != last_accepted {
        return Err(format!(
            "active version {active_a:?} is not the last accepted {last_accepted:?} — \
             the rejected wave was not rolled back cleanly"
        ));
    }

    let queue_cap = 32; // must match the scenario's ServeConfig
    for r in &replies_a {
        match &r.outcome {
            Ok(reply) if reply.estimate.is_finite() && reply.estimate >= 0.0 => {}
            Ok(reply) => {
                return Err(format!(
                    "request {}: served estimate {} is outside [0, f64::MAX]",
                    r.id, reply.estimate
                ))
            }
            Err(ServeError::Shed { depth }) if *depth <= queue_cap => {}
            Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(e) => return Err(format!("request {}: un-typed rejection: {e}", r.id)),
        }
    }
    let pressured = summary_a.shed + summary_a.fallback_served + summary_a.deadline_missed;
    if pressured == 0 {
        return Err("overload bursts produced no backpressure at all".into());
    }
    Ok(format!(
        "wave 1 rejected and rolled back, {accepted} of {waves} waves landed, \
         {pressured} pressured replies, bit-identical"
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

/// Shared dataset/model/workloads of the defense drill and the served
/// chaos scenario; model training dominates setup, so it runs once.
struct DefenseFixture {
    ds: Dataset,
    model: CeModel,
    pinned: Vec<PinnedQuery>,
    pool: Vec<Query>,
    history: Vec<Query>,
    test: Workload,
    /// The clean model's own median q-error on the pinned set.
    honest_median: f64,
    /// `honest_median × DEFENSE_QERR_MARGIN` — the drill's swap limit.
    qerr_limit: f64,
}

fn defense_fixture() -> &'static DefenseFixture {
    static FIXTURE: OnceLock<DefenseFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = build(DatasetKind::Dmv, Scale::tiny(), 901);
        let exec = Executor::new(&ds);
        let mut rng = StdRng::seed_from_u64(902);
        let spec = WorkloadSpec::single_table();
        let history = generate_queries(&ds, &spec, &mut rng, 200);
        let test = exec.label_nonzero(generate_queries(&ds, &spec, &mut rng, 60));
        let labeled = exec.label_nonzero(history.clone());
        let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
        let mut model = CeModel::new(CeModelType::Linear, &ds, CeConfig::quick(), 903);
        model
            .train(&data, &mut rng)
            .expect("defense fixture model trains");
        let pinned = pinned_from_encoded(&data, 24);
        let honest_median = SnapshotStore::new(pinned.clone(), 1e6, 3).shadow_median_qerr(&model);
        let pool = labeled.iter().take(24).map(|lq| lq.query.clone()).collect();
        DefenseFixture {
            ds,
            model,
            pinned,
            pool,
            history,
            test,
            honest_median,
            qerr_limit: honest_median * DEFENSE_QERR_MARGIN,
        }
    })
}

/// Everything one defense drill produced.
struct DefenseRun {
    outcome: AttackOutcome,
    replies: Vec<ReplyRecord>,
    summary: ServeSummary,
    active: Option<u64>,
}

/// Runs the full PACE campaign through the serving path at `threads` pool
/// threads, with the swap gate pinned to the fixture's q-error limit.
fn defense_drill(threads: usize, tag: &str) -> Result<DefenseRun, String> {
    use pace_tensor::pool;
    let fx = defense_fixture();
    pool::set_threads(threads);
    fault::install(None);
    let serve_cfg = ServeConfig {
        swap_qerr_limit: fx.qerr_limit,
        ..ServeConfig::default()
    };
    let server = Server::new(
        serve_cfg,
        fx.ds.schema.clone(),
        fx.pinned.clone(),
        Some(HistogramEstimator::build(&fx.ds, 32)),
    );
    let mut served = ServedVictim::new(
        server,
        fx.model.clone(),
        Executor::new(&fx.ds),
        fx.history.clone(),
        ServedTraffic::new(fx.pool.clone(), 905),
    )
    .map_err(|e| format!("clean model failed its own shadow validation: {e}"))?;
    let k = AttackerKnowledge::from_public(&fx.ds, WorkloadSpec::single_table());
    // Lb-S, not full PACE: one PACE wave alone pushes the pinned median
    // ~15× past the honest score, so every wave would be rejected and the
    // report would measure nothing. Lb-S degrades cumulatively — poison
    // lands until the accumulated damage trips the probe. The surrogate
    // type is fixed: speculation's behavioral-similarity probes add
    // nothing to the defense measurement.
    let cfg = PipelineConfig {
        surrogate_type: Some(CeModelType::Linear),
        ..PipelineConfig::quick()
    };
    let manifest = std::env::temp_dir().join(format!(
        "pace-defense-{}-{tag}.campaign",
        std::process::id()
    ));
    let outcome = run_served_campaign(
        &mut served,
        AttackMethod::LbS,
        &fx.test,
        &k,
        &cfg,
        &manifest,
    )
    .map_err(|e| format!("served campaign failed: {e}"))?;
    if manifest.exists() {
        let _ = std::fs::remove_file(&manifest);
        return Err("completed campaign left its manifest behind".into());
    }
    Ok(DefenseRun {
        outcome,
        replies: served.replies(),
        summary: served.summary(),
        active: served.active_version(),
    })
}

/// Writes the machine-readable `BENCH_defense.json` at the workspace root.
fn write_defense_json(
    path: &Path,
    wall_s: f64,
    run: &DefenseRun,
    accepted: usize,
    rejected_by_probe: usize,
) -> std::io::Result<()> {
    let fx = defense_fixture();
    let waves = run.outcome.swaps.len().max(1);
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"wall_s\": {wall_s:.6},\n"));
    s.push_str(&format!(
        "  \"honest_median_qerr\": {:.6},\n",
        fx.honest_median
    ));
    s.push_str(&format!("  \"swap_qerr_limit\": {:.6},\n", fx.qerr_limit));
    s.push_str("  \"waves\": [");
    for (i, sw) in run.outcome.swaps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let detail = match &sw.result {
            Ok(()) => "installed".to_string(),
            Err(e) => format!("{e}"),
        };
        s.push_str(&format!(
            "\n    {{\"wave\": {}, \"version\": {}, \"at\": {:.6}, \"class\": \"{}\", \
             \"detail\": \"{detail}\"}}",
            sw.wave,
            sw.version,
            sw.at,
            sw.class()
        ));
    }
    s.push_str("\n  ],\n");
    s.push_str(&format!("  \"accepted\": {accepted},\n"));
    s.push_str(&format!("  \"rejected_by_probe\": {rejected_by_probe},\n"));
    s.push_str(&format!(
        "  \"rejection_fraction\": {:.4},\n",
        rejected_by_probe as f64 / waves as f64
    ));
    s.push_str(&format!(
        "  \"clean\": {{\"mean\": {:.6}, \"median\": {:.6}, \"p95\": {:.6}}},\n",
        run.outcome.clean.mean, run.outcome.clean.median, run.outcome.clean.p95
    ));
    s.push_str(&format!(
        "  \"poisoned\": {{\"mean\": {:.6}, \"median\": {:.6}, \"p95\": {:.6}}},\n",
        run.outcome.poisoned.mean, run.outcome.poisoned.median, run.outcome.poisoned.p95
    ));
    s.push_str(&format!(
        "  \"divergence\": {:.6},\n",
        run.outcome.divergence
    ));
    s.push_str(&format!(
        "  \"active_version\": {},\n",
        run.active
            .map_or_else(|| "null".to_string(), |v| v.to_string())
    ));
    s.push_str(&format!(
        "  \"totals\": {{\"requests\": {}, \"shed\": {}, \"fallback_served\": {}, \
         \"learned_served\": {}, \"deadline_missed\": {}, \"batches\": {}}}\n",
        run.summary.requests,
        run.summary.shed,
        run.summary.fallback_served,
        run.summary.learned_served,
        run.summary.deadline_missed,
        run.summary.batches,
    ));
    s.push_str("}\n");
    std::fs::write(path, s)
}

fn defense_report() -> ExitCode {
    use pace_tensor::pool;
    let root = workspace_root();
    let t0 = Instant::now();
    let mut failures: Vec<String> = Vec::new();

    println!(
        "defense-report: Lb-S poison campaign through the validated hot-swap serving path \
         (swap limit = clean median × {DEFENSE_QERR_MARGIN})"
    );
    let run = match defense_drill(1, "a") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask defense-report: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("defense-report: re-running at 1 thread and at 8 threads for bit-identity...");
    let again = defense_drill(1, "b");
    let wide = defense_drill(8, "c");
    pool::set_threads(0);

    for (label, other) in [("two 1-thread runs", again), ("1 vs 8 threads", wide)] {
        match other {
            Ok(o) => {
                if o.outcome.swaps != run.outcome.swaps {
                    failures.push(format!(
                        "{label}: swap ledgers diverge:\n  a: {:?}\n  b: {:?}",
                        run.outcome.swaps, o.outcome.swaps
                    ));
                }
                if let Some(d) = records_diverge(&run.replies, &o.replies) {
                    failures.push(format!("{label}: reply sequences diverge — {d}"));
                }
                if run.outcome.poisoned.mean.to_bits() != o.outcome.poisoned.mean.to_bits()
                    || run.outcome.divergence.to_bits() != o.outcome.divergence.to_bits()
                {
                    failures.push(format!("{label}: attack measurements diverge"));
                }
                if run.outcome.poison != o.outcome.poison {
                    failures.push(format!("{label}: crafted poison batches diverge"));
                }
            }
            Err(e) => failures.push(format!("{label}: {e}")),
        }
    }

    // Every wave must have reached a typed swap verdict, in order.
    for (w, sw) in run.outcome.swaps.iter().enumerate() {
        if sw.wave != w as u64 || sw.version != 2 + w as u64 {
            failures.push(format!(
                "wave {w}: ledger entry out of order (wave {}, version {})",
                sw.wave, sw.version
            ));
        }
    }
    let waves = run.outcome.swaps.len();
    let accepted = run
        .outcome
        .swaps
        .iter()
        .filter(|s| s.result.is_ok())
        .count();
    let rejected_by_probe = run
        .outcome
        .swaps
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
    let last_accepted = run
        .outcome
        .swaps
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
    let queue_cap = ServeConfig::default().queue_cap;
    for r in &run.replies {
        match &r.outcome {
            Ok(reply) if reply.estimate.is_finite() && reply.estimate >= 0.0 => {}
            Ok(reply) => failures.push(format!(
                "request {}: served estimate {} is outside [0, f64::MAX]",
                r.id, reply.estimate
            )),
            Err(ServeError::Shed { depth }) if *depth <= queue_cap => {}
            Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(e) => failures.push(format!("request {}: un-typed rejection: {e}", r.id)),
        }
    }

    let fx = defense_fixture();
    println!(
        "defense-report: clean pinned median {:.3}, swap limit {:.3}",
        fx.honest_median, fx.qerr_limit
    );
    println!("defense-report: wave ledger:");
    for sw in &run.outcome.swaps {
        let detail = match &sw.result {
            Ok(()) => "installed".to_string(),
            Err(e) => format!("{e}"),
        };
        println!(
            "  wave {} v{} at {:.3}s: {} ({detail})",
            sw.wave,
            sw.version,
            sw.at,
            sw.class()
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

    let path = root.join("BENCH_defense.json");
    match write_defense_json(
        &path,
        t0.elapsed().as_secs_f64(),
        &run,
        accepted,
        rejected_by_probe,
    ) {
        Ok(()) => println!("defense-report: wrote {}", path.display()),
        Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
    }

    if failures.is_empty() {
        println!(
            "defense-report: all gates OK ({} served requests, {accepted} waves landed, \
             {rejected_by_probe} rolled back, bit-identical at 1 and 8 threads)",
            run.summary.requests
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("xtask defense-report: {f}");
        }
        eprintln!("xtask defense-report: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
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
        let root = workspace_root();
        let mut failures = Vec::new();
        check_op_coverage(&root, &mut failures);
        check_no_unwrap(&root, &mut failures);
        check_no_probe_panics(&root, &mut failures);
        check_no_raw_threads(&root, &mut failures);
        check_no_nan_sort(&root, &mut failures);
        check_pool_call_discipline(&root, &mut failures);
        assert!(failures.is_empty(), "{failures:#?}");
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
