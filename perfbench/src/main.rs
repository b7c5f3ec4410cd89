//! The benchmark's command-line entry point.
//!
//! ```text
//! cargo run --release --frozen --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! `--trace 0` sets the workload up several times, runs one untimed
//! warm-up round, then measured rounds (each a campaign and three served
//! segments, in a seeded interleaved order) until `--seconds` have passed,
//! and reports the end-to-end metrics. `--trace 1` alternates untraced and
//! traced rounds and reports per-layer metrics. `--record` prints the
//! checked outputs of one round as `expected.tsv` lines. The last line of
//! standard output is always the JSON result; the exit code is 0 only when
//! the run completed.

use pace_perfbench::check::{self, Outputs};
use pace_perfbench::env::{self, EnvStamp};
use pace_perfbench::layers::Spans;
use pace_perfbench::report::RunResult;
use pace_perfbench::schedule::{round_order, OpKind};
use pace_perfbench::stats::{median, percentile};
use pace_perfbench::workload::{self, CampaignRun, Fixture, SegmentRun, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Measured rounds per run, at least.
const MIN_ROUNDS: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// One measured operation.
enum Op {
    Campaign(CampaignRun),
    Segment(SegmentRun),
}

impl Op {
    fn outputs(&self) -> &Outputs {
        match self {
            Op::Campaign(c) => &c.outputs,
            Op::Segment(s) => &s.outputs,
        }
    }
}

fn run_op(fx: &Fixture, kind: OpKind, manifest: &Path) -> Result<Op, String> {
    Ok(match kind {
        OpKind::Campaign => Op::Campaign(workload::campaign(fx, manifest)?),
        _ => Op::Segment(workload::segment(fx, kind)?),
    })
}

/// Runs one round and checks every output against `reference` (when
/// given). Returns the operations and the number that failed.
fn round(
    fx: &Fixture,
    order: [OpKind; 4],
    manifest: &Path,
    reference: Option<&Outputs>,
    log: &mut Vec<String>,
) -> (Vec<Op>, u64) {
    let mut ops = Vec::new();
    let mut failed = 0;
    for kind in order {
        match run_op(fx, kind, manifest) {
            Ok(op) => {
                if let Some(want) = reference {
                    let diffs: Vec<String> = op
                        .outputs()
                        .iter()
                        .filter(|(k, v)| want.get(*k) != Some(*v))
                        .map(|(k, v)| format!("{k}: {v} differs from the warm-up pass"))
                        .collect();
                    if !diffs.is_empty() {
                        failed += 1;
                        log.extend(diffs);
                    }
                }
                ops.push(op);
            }
            Err(e) => {
                failed += 1;
                log.push(format!("{}: {e}", kind.name()));
            }
        }
    }
    (ops, failed)
}

/// The seed-independent checks on a pass's operations.
fn sanity(ops: &[Op], log: &mut Vec<String>) {
    for op in ops {
        match op {
            Op::Campaign(c) => {
                if !(c.qerr_x.is_finite() && c.qerr_x > 0.0 && c.js.is_finite() && c.js > 0.0) {
                    log.push(format!(
                        "campaign outcome out of range: qerr_x {}, js {}",
                        c.qerr_x, c.js
                    ));
                }
            }
            Op::Segment(s) if s.kind == OpKind::Swap => {
                let accepted = s.swaps.iter().filter(|(_, ok)| *ok).count();
                if accepted == 0 || accepted == s.swaps.len() {
                    log.push(format!(
                        "swap segment must accept some and reject some candidates: {:?}",
                        s.swaps
                    ));
                }
            }
            Op::Segment(_) => {}
        }
    }
}

struct Bench {
    args: Args,
    spec: Spec,
    work: PathBuf,
    log: Vec<String>,
    /// Warm-up outputs that differ from their records.
    record_mismatches: u64,
}

impl Bench {
    fn manifest(&self) -> PathBuf {
        self.work.join("campaign.manifest")
    }

    fn setup(&mut self) -> Result<(Fixture, f64), String> {
        let t = Instant::now();
        let fx = workload::setup(&self.spec, self.args.seed)?;
        Ok((fx, t.elapsed().as_secs_f64()))
    }

    /// The untimed warm-up round: its outputs are the reference every
    /// later pass must reproduce, and are checked against the records
    /// (except when recording them).
    fn warm_up(&mut self, fx: &Fixture) -> Result<Outputs, String> {
        let (ops, failed) = round(fx, OpKind::ALL, &self.manifest(), None, &mut self.log);
        if failed > 0 {
            return Err(format!("warm-up round failed: {}", self.log.join("; ")));
        }
        sanity(&ops, &mut self.log);
        let mut reference = Outputs::new();
        reference.insert("setup.fixture".to_string(), fx.digest());
        for op in &ops {
            reference.extend(op.outputs().clone());
        }
        if self.args.record {
            return Ok(reference);
        }
        let want = check::recorded(check::RECORDS, self.spec.name, self.args.seed);
        let diffs = check::mismatches(&want, &reference);
        self.record_mismatches = diffs.len() as u64;
        self.log.extend(diffs);
        let unchecked = check::unrecorded(&want, &reference);
        if !unchecked.is_empty() {
            println!(
                "note: no records of {} for {} seed {}; checked against the warm-up pass only",
                unchecked.join(", "),
                self.spec.name,
                self.args.seed
            );
        }
        Ok(reference)
    }
}

fn end_to_end(s: &mut Bench, result: &mut RunResult) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        let (fx, wall) = s.setup()?;
        if fixture
            .as_ref()
            .is_some_and(|p: &Fixture| p.digest() != fx.digest())
        {
            s.log
                .push("repeated set-up trained a different victim".to_string());
        }
        setups.push(wall);
        fixture = Some(fx);
    }
    let fx = fixture.ok_or("no set-up ran")?;
    let reference = s.warm_up(&fx)?;

    let manifest = s.manifest();
    let mut ops = Vec::new();
    let mut failed_ops = 0;
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while rounds < MIN_ROUNDS || t0.elapsed().as_secs_f64() < s.args.seconds {
        let order = round_order(s.args.seed, rounds);
        let (mut r, failed) = round(&fx, order, &manifest, Some(&reference), &mut s.log);
        ops.append(&mut r);
        failed_ops += failed;
        rounds += 1;
    }
    sanity(&ops, &mut s.log);
    println!(
        "measured {rounds} rounds in {:.3} s after {SETUP_REPS} set-ups and one warm-up round",
        t0.elapsed().as_secs_f64()
    );

    let mut campaign_s = Vec::new();
    let (mut qerr_x, mut js) = (0.0, 0.0);
    let mut per_req: [Vec<f64>; 3] = Default::default();
    let (mut requests, mut failed_requests, mut learned, mut rated_virtual) = (0, 0, 0, Vec::new());
    for op in &ops {
        match op {
            Op::Campaign(c) => {
                campaign_s.push(c.wall_s);
                (qerr_x, js) = (c.qerr_x, c.js);
            }
            Op::Segment(seg) => {
                let i = match seg.kind {
                    OpKind::Rated => 0,
                    OpKind::Overload => 1,
                    _ => 2,
                };
                per_req[i].push(seg.wall_s * 1e6 / seg.requests as f64);
                requests += seg.requests;
                failed_requests += seg.failed;
                learned += seg.learned;
                if seg.kind == OpKind::Rated && rated_virtual.is_empty() {
                    rated_virtual = seg.virtual_ms.clone();
                }
            }
        }
    }
    println!(
        "campaign s: {}",
        campaign_s
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (kind, v) in ["rated", "overload", "swap"].iter().zip(&per_req) {
        println!(
            "{kind} segments, us per request: {}",
            v.iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    if campaign_s.is_empty() || per_req.iter().any(Vec::is_empty) {
        return Err("a measured operation kind never completed".to_string());
    }
    // Checked operations: the warm-up round and every measured round. An
    // operation that errors or does not reproduce its record fails.
    let failed_checks = failed_ops + s.record_mismatches;
    result.attempted = (rounds + 1) * 4;
    result.failed = failed_checks;
    result.push("setup_s", median(&setups), "s");
    result.push("campaign_s", median(&campaign_s), "s");
    result.push("peak_rss_mb", env::peak_rss_mb().unwrap_or(0.0), "MiB");
    result.push(
        "fail_share",
        (failed_requests + failed_checks) as f64 / (requests + rounds) as f64,
        "ratio",
    );
    result.push("attack_qerr_x", qerr_x, "x");
    result.push("poison_js", js, "nats");
    result.push("serve_rated_us_per_req", median(&per_req[0]), "us");
    result.push("serve_rated_us_p90", percentile(&per_req[0], 90.0), "us");
    result.push("serve_overload_us_per_req", median(&per_req[1]), "us");
    result.push("serve_overload_us_p90", percentile(&per_req[1], 90.0), "us");
    result.push("serve_swap_us_per_req", median(&per_req[2]), "us");
    result.push(
        "serve_learned_share",
        learned as f64 / requests as f64,
        "ratio",
    );
    if !rated_virtual.is_empty() {
        println!(
            "rated segment virtual latency: p50 {:.3} ms, p99 {:.3} ms over {} replies",
            median(&rated_virtual),
            percentile(&rated_virtual, 99.0),
            rated_virtual.len()
        );
    }
    Ok(())
}

/// Totals of one traced pass.
struct Traced {
    spans: Spans,
    counters: Vec<(&'static str, u64)>,
    wall_s: f64,
}

fn traced<T>(path: &Path, f: impl FnOnce() -> T) -> (T, Traced) {
    pace_trace::reset_metrics();
    pace_trace::install(Some(path.to_path_buf()));
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let counters = pace_trace::counter_snapshot();
    pace_trace::flush();
    pace_trace::install(None);
    let spans = Spans::read(path);
    let _ = std::fs::remove_file(path);
    (
        out,
        Traced {
            spans,
            counters,
            wall_s,
        },
    )
}

fn counter(t: &Traced, name: &str) -> u64 {
    t.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v)
}

fn segs(ops: &[Op]) -> Vec<&SegmentRun> {
    ops.iter()
        .filter_map(|o| match o {
            Op::Segment(s) => Some(s),
            Op::Campaign(_) => None,
        })
        .collect()
}

fn per_layer(s: &mut Bench, result: &mut RunResult) -> Result<(), String> {
    let (_, untraced_setup_s) = s.setup()?;
    let trace_path = s.work.join("trace.jsonl");
    let (fx, setup) = traced(&trace_path, || workload::setup(&s.spec, s.args.seed));
    let fx = fx?;
    let reference = s.warm_up(&fx)?;
    let manifest = s.manifest();

    // Alternate untraced and traced rounds with the same order, so the
    // overhead estimate compares like with like.
    let mut untraced_s = Vec::new();
    let mut rounds: Vec<(Vec<Op>, Traced)> = Vec::new();
    let mut failed_ops = 0;
    let t0 = Instant::now();
    let mut i = 0u64;
    while rounds.is_empty() || t0.elapsed().as_secs_f64() < s.args.seconds {
        let order = round_order(s.args.seed, i);
        let t = Instant::now();
        let (_, failed) = round(&fx, order, &manifest, Some(&reference), &mut s.log);
        untraced_s.push(t.elapsed().as_secs_f64());
        let ((ops, failed_traced), tr) = traced(&trace_path, || {
            round(&fx, order, &manifest, Some(&reference), &mut s.log)
        });
        failed_ops += failed + failed_traced;
        rounds.push((ops, tr));
        i += 1;
    }
    let (replay, attacker) = traced(&trace_path, || workload::attacker_replay(&fx));
    let replay = replay?;
    for (k, v) in &replay {
        if reference.get(k) != Some(v) {
            s.log.push(format!(
                "attacker replay {k}: {v} differs from run_campaign's output"
            ));
        }
    }
    result.attempted = 4 * (2 * i + 1) + 1;
    result.failed = failed_ops + s.record_mismatches;

    // Per-round values are medians over the traced rounds.
    let med = |f: &dyn Fn(&Vec<Op>, &Traced) -> f64| -> f64 {
        median(&rounds.iter().map(|(o, t)| f(o, t)).collect::<Vec<_>>())
    };
    let seg_sum = |ops: &Vec<Op>, f: &dyn Fn(&SegmentRun) -> u64| -> f64 {
        segs(ops).iter().map(|s| f(s)).sum::<u64>() as f64
    };
    let campaign_wall = |ops: &Vec<Op>| -> f64 {
        ops.iter()
            .map(|o| match o {
                Op::Campaign(c) => c.wall_s,
                Op::Segment(_) => 0.0,
            })
            .sum()
    };
    let all_ms = |name: &str| -> Vec<f64> {
        let mut v: Vec<f64> = setup.spans.durations_ms(name);
        for (_, t) in &rounds {
            v.extend(t.spans.durations_ms(name));
        }
        v
    };
    let med_or_zero = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };

    let sp = &setup.spans;
    result.push("data.build_s", sp.total_s("perfbench::data.build"), "s");
    result.push("workload.gen_s", sp.total_s("perfbench::workload.gen"), "s");
    result.push("engine.label_s", sp.total_s("perfbench::engine.label"), "s");
    result.push("engine.label_queries", fx.labeled_queries as f64, "count");
    let at = &attacker.spans;
    result.push(
        "engine.count_calls",
        at.count("perfbench::engine.count") as f64,
        "count",
    );
    result.push("engine.count_s", at.total_s("perfbench::engine.count"), "s");
    result.push(
        "ce.victim_train_s",
        sp.total_s("perfbench::ce.victim_train"),
        "s",
    );
    result.push(
        "ce.train_steps",
        sp.count("ce::step_adam") as f64 + med(&|_, t| t.spans.count("ce::step_adam") as f64),
        "count",
    );
    result.push("ce.step_ms", med_or_zero(all_ms("ce::step_adam")), "ms");
    result.push(
        "ce.explain_calls",
        at.count("perfbench::ce.explain") as f64,
        "count",
    );
    result.push("ce.explain_s", at.total_s("perfbench::ce.explain"), "s");
    result.push(
        "ce.update_calls",
        sp.count("ce::update") as f64 + med(&|_, t| t.spans.count("ce::update") as f64),
        "count",
    );
    result.push(
        "ce.update_s",
        sp.total_s("ce::update") + med(&|_, t| t.spans.total_s("ce::update")),
        "s",
    );
    result.push(
        "core.surrogate_s",
        med(&|_, t| t.spans.total_s("surrogate::train")),
        "s",
    );
    result.push(
        "core.attack_s",
        med(&|_, t| t.spans.total_s("attack::accelerated")),
        "s",
    );
    result.push(
        "core.attack_iters",
        med(&|_, t| t.spans.count("attack::accelerated::iter") as f64),
        "count",
    );
    result.push(
        "core.attack_iter_ms",
        med_or_zero(all_ms("attack::accelerated::iter")),
        "ms",
    );
    result.push(
        "core.attack_self_s",
        med(&|_, t| t.spans.self_s("attack::accelerated::iter")),
        "s",
    );
    result.push(
        "core.inject_s",
        at.total_s("perfbench::victim.run_queries"),
        "s",
    );
    result.push(
        "core.wave_s",
        med(&|_, t| t.spans.total_s("campaign::wave")),
        "s",
    );
    result.push(
        "core.evaluate_s",
        med(&|_, t| t.spans.total_s("campaign::evaluate")),
        "s",
    );
    result.push(
        "tensor.matmul_gflop",
        med(&|_, t| counter(t, "matmul_flops") as f64 * 1e-9),
        "Gflop",
    );
    result.push(
        "tensor.replay_node_visits",
        med(&|_, t| counter(t, "replay_node_visits") as f64),
        "count",
    );
    result.push(
        "runtime.pool_tasks",
        med(&|_, t| counter(t, "pool_tasks") as f64),
        "count",
    );
    for kind in [OpKind::Rated, OpKind::Overload, OpKind::Swap] {
        let wall = |o: &Vec<Op>, _: &Traced| -> f64 {
            segs(o)
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.wall_s)
                .sum()
        };
        result.push(format!("serve.run_s.{}", kind.name()), med(&wall), "s");
    }
    result.push(
        "serve.batches",
        med(&|o, _| seg_sum(o, &|s| s.batches)),
        "count",
    );
    result.push(
        "serve.items_per_batch",
        med(&|o, _| seg_sum(o, &|s| s.learned) / seg_sum(o, &|s| s.batches).max(1.0)),
        "items",
    );
    result.push("serve.batch_ms", med_or_zero(all_ms("serve::batch")), "ms");
    result.push(
        "serve.des_self_s",
        med(&|_, t| t.spans.self_s("serve::run")),
        "s",
    );
    result.push(
        "serve.validate_ms",
        med_or_zero(all_ms("serve::shadow-validate")),
        "ms",
    );
    let swap_count = |ops: &Vec<Op>, accepted: bool| -> f64 {
        segs(ops)
            .iter()
            .flat_map(|s| s.swaps.iter())
            .filter(|(_, ok)| *ok == accepted)
            .count() as f64
    };
    result.push(
        "serve.swaps_accepted",
        med(&|o, _| swap_count(o, true)),
        "count",
    );
    result.push(
        "serve.swaps_rejected",
        med(&|o, _| swap_count(o, false)),
        "count",
    );
    let share = |o: &Vec<Op>, f: &dyn Fn(&SegmentRun) -> u64| -> f64 {
        seg_sum(o, f) / seg_sum(o, &|s| s.requests).max(1.0)
    };
    result.push(
        "serve.fallback_share",
        med(&|o, _| share(o, &|s| s.fallback)),
        "ratio",
    );
    result.push(
        "serve.shed_share",
        med(&|o, _| share(o, &|s| s.shed)),
        "ratio",
    );
    result.push(
        "serve.deadline_miss_share",
        med(&|o, _| share(o, &|s| s.deadline_missed)),
        "ratio",
    );
    result.push(
        "serve.queue_depth_max",
        med(&|o, _| segs(o).iter().map(|s| s.queue_depth_max).max().unwrap_or(0) as f64),
        "count",
    );

    // Overhead and coverage: the traced round against the untraced one;
    // the benchmark's layer spans against the untraced wall.
    let traced_round = med(&|_, t| t.wall_s);
    let untraced_round = median(&untraced_s);
    result.push(
        "trace.overhead_pct",
        100.0 * (traced_round - untraced_round) / untraced_round,
        "%",
    );
    let layer_total = |sp: &Spans| -> f64 {
        sp.totals()
            .iter()
            .filter(|(n, _)| n.starts_with("perfbench::") && !n.ends_with("core.craft_poison"))
            .map(|(_, v)| v)
            .sum::<f64>()
    };
    let covered = layer_total(&setup.spans) + med(&|_, t| layer_total(&t.spans));
    result.push(
        "trace.coverage_pct",
        100.0 * covered / (untraced_setup_s + untraced_round),
        "%",
    );
    result.push(
        "core.attack_share_pct",
        med(&|o, t| 100.0 * t.spans.total_s("attack::accelerated::iter") / campaign_wall(o)),
        "%",
    );
    result.push(
        "ce.step_adam_share_pct",
        100.0
            * (setup.spans.total_s("ce::step_adam")
                + med(&|_, t| t.spans.total_s("ce::step_adam")))
            / (setup.wall_s + traced_round),
        "%",
    );
    result.push(
        "serve.run_share_pct",
        med(&|_, t| 100.0 * t.spans.total_s("serve::run") / t.wall_s),
        "%",
    );
    println!(
        "traced {} rounds; untraced set-up {:.3} s, traced set-up {:.3} s, untraced round {:.3} s, \
         traced round {:.3} s",
        rounds.len(),
        untraced_setup_s,
        setup.wall_s,
        untraced_round,
        traced_round
    );
    Ok(())
}

fn record(s: &mut Bench) -> Result<(), String> {
    let (fx, _) = s.setup()?;
    let reference = s.warm_up(&fx)?;
    print!(
        "{}",
        check::record_lines(s.spec.name, s.args.seed, &reference)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let stamp: EnvStamp = env::resolve();
    let work = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut s = Bench {
        args,
        spec,
        work: work.clone(),
        log: Vec::new(),
        record_mismatches: 0,
    };
    let mut result = RunResult::default();
    let outcome = if s.args.record {
        record(&mut s)
    } else if s.args.trace {
        per_layer(&mut s, &mut result)
    } else {
        end_to_end(&mut s, &mut result)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if s.args.record {
        return if s.log.is_empty() {
            ExitCode::SUCCESS
        } else {
            eprintln!("perfbench: {}", s.log.join("\nperfbench: "));
            ExitCode::FAILURE
        };
    }
    s.log.extend(result.problems());
    for line in &s.log {
        println!("check failed: {line}");
    }
    result.correct = s.log.is_empty();
    if !result.correct && result.failed == 0 {
        result.failed = 1;
    }
    println!("env: {}", stamp.to_json());
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
