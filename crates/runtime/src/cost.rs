//! Dispatch-cost calibration and the parallelism profitability oracle.
//!
//! Every parallel region in the workspace used to guess its own grain
//! (`min_chunk`) with a hand-picked constant. On machines where the pool's
//! scoped fan-out costs more than the region saves, those guesses turn
//! speedups into slowdowns (the `t8 < t1` regression in
//! `BENCH_parallel.json`). This module replaces the guesses with one
//! oracle: a static FLOP/byte cost model joined with per-process dispatch
//! and throughput constants measured once by a seeded micro-benchmark.
//!
//! # The decision rule
//!
//! [`decide`] marks a region [`Decision::Sequential`] unless *all* of:
//!
//! * calibrated [`CostConstants::effective_parallelism`] ≥ 1.5 — the
//!   machine demonstrably runs concurrent work faster than serial work
//!   (a single-core host never qualifies, which is exactly the fix for
//!   the regression above);
//! * predicted region time exceeds a multiple of the scope-spawn cost
//!   ([`CostConstants::dispatch_ns`]) — tiny regions stay inline;
//! * the derived grain leaves at least two chunks — otherwise parallel
//!   dispatch cannot overlap anything.
//!
//! When it does parallelize, the grain is sized so each chunk amortizes
//! per-task overhead ([`CostConstants::task_ns`]) many times over.
//!
//! # Determinism
//!
//! The oracle feeds `min_chunk` values into [`crate::chunk_ranges`], so it
//! is only consulted at *result-grid-independent* sites: disjoint
//! `&mut` writes ([`crate::for_each_split`]) and per-item maps whose
//! outputs are concatenated in chunk order ([`crate::par_chunks`]).
//! Ordered floating-point reductions keep their constant grains — their
//! accumulation order must stay a pure function of input shape. The
//! constants are resolved once per process (override → env → calibrate)
//! and never re-read, so every region in a run sees one coherent model.
//!
//! # Fail-closed
//!
//! A missing, unparsable, or implausible `PACE_SCHED_COST` spec — and any
//! calibration that produces non-finite or out-of-range numbers — resolves
//! to [`CostConstants::fail_closed`], whose `effective_parallelism` of 1.0
//! forces every decision to `Sequential`. Wrong constants can therefore
//! cost speed, never correctness or a surprise fan-out.

use crate::flags::EnvSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `PACE_SCHED_COST` — pins the cost model for CI stability instead of
/// calibrating. Format: five comma-separated numbers,
/// `dispatch_ns,task_ns,flops_per_ns,bytes_per_ns,effective_parallelism`
/// (e.g. `20000,400,4.0,8.0,4.0`). Implausible values fail closed to
/// sequential execution rather than erroring.
pub static SCHED_COST: EnvSpec = EnvSpec::new("PACE_SCHED_COST");

/// Calibrated machine constants consumed by the profitability oracle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostConstants {
    /// Cost of one parallel-region fan-out (scope spawn + join), in ns.
    pub dispatch_ns: f64,
    /// Per-task overhead inside a region (slot locking, pull counter), ns.
    pub task_ns: f64,
    /// Sustained arithmetic throughput, FLOPs per ns (single thread).
    pub flops_per_ns: f64,
    /// Sustained memory bandwidth, bytes per ns (single thread).
    pub bytes_per_ns: f64,
    /// Measured parallel speedup of a saturating workload, clamped to
    /// `[1, hardware threads]`. 1.0 means "this machine gains nothing
    /// from the pool" and forces every decision to `Sequential`.
    pub effective_parallelism: f64,
}

impl CostConstants {
    /// The conservative sentinel used whenever calibration or the env
    /// override cannot be trusted: `effective_parallelism = 1.0` makes
    /// [`decide`] return `Sequential` for every region.
    pub fn fail_closed() -> Self {
        Self {
            dispatch_ns: 100_000.0,
            task_ns: 5_000.0,
            flops_per_ns: 1.0,
            bytes_per_ns: 1.0,
            effective_parallelism: 1.0,
        }
    }

    /// True when every constant is finite and inside the generous ranges
    /// any real machine satisfies. Anything else is stale or corrupt and
    /// must fail closed.
    pub fn plausible(&self) -> bool {
        let in_range = |v: f64, lo: f64, hi: f64| v.is_finite() && v >= lo && v <= hi;
        in_range(self.dispatch_ns, 1.0, 1e9)
            && in_range(self.task_ns, 1.0, 1e8)
            && in_range(self.flops_per_ns, 1e-3, 1e5)
            && in_range(self.bytes_per_ns, 1e-3, 1e5)
            && in_range(self.effective_parallelism, 1.0, 4096.0)
    }

    /// Parses the `PACE_SCHED_COST` spec (five comma-separated numbers).
    /// Returns `None` when the text does not parse or the parsed
    /// constants are implausible — callers fail closed on `None`.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut it = spec.split(',').map(|f| f.trim().parse::<f64>());
        let mut next = || it.next()?.ok();
        let c = Self {
            dispatch_ns: next()?,
            task_ns: next()?,
            flops_per_ns: next()?,
            bytes_per_ns: next()?,
            effective_parallelism: next()?,
        };
        (it.next().is_none() && c.plausible()).then_some(c)
    }

    /// Serializes in the `PACE_SCHED_COST` format accepted by [`parse`].
    pub fn to_spec(&self) -> String {
        format!(
            "{:.1},{:.1},{:.4},{:.4},{:.3}",
            self.dispatch_ns,
            self.task_ns,
            self.flops_per_ns,
            self.bytes_per_ns,
            self.effective_parallelism
        )
    }
}

/// Static cost summary of one candidate parallel region: how many
/// independent items it has and what each item costs.
#[derive(Clone, Copy, Debug)]
pub struct RegionCost {
    /// Number of independent work items (rows, queries, tape steps).
    pub items: usize,
    /// Arithmetic per item, in floating-point operations.
    pub flops_per_item: f64,
    /// Memory traffic per item, in bytes.
    pub bytes_per_item: f64,
}

/// The oracle's verdict for a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Run inline; parallel dispatch would not pay for itself.
    Sequential,
    /// Fan out with the given `min_chunk` grain (items per chunk).
    Parallel {
        /// Minimum items per chunk, sized to amortize per-task overhead.
        min_chunk: usize,
    },
}

impl Decision {
    /// The `min_chunk` to pass to the pool: the parallel grain, or `len`
    /// (collapsing the grid to a single inline chunk) when sequential.
    pub fn grain(&self, len: usize) -> usize {
        match *self {
            Decision::Sequential => len.max(1),
            Decision::Parallel { min_chunk } => min_chunk.max(1),
        }
    }

    /// True for [`Decision::Parallel`].
    pub fn is_parallel(&self) -> bool {
        matches!(self, Decision::Parallel { .. })
    }
}

/// Predicted single-thread nanoseconds for one item of a region under the
/// given constants (the max of the compute and bandwidth bounds, floored
/// away from zero so grain division is always defined).
fn item_ns(c: &CostConstants, r: &RegionCost) -> f64 {
    let compute = r.flops_per_item.max(0.0) / c.flops_per_ns;
    let traffic = r.bytes_per_item.max(0.0) / c.bytes_per_ns;
    compute.max(traffic).max(0.5)
}

/// Predicted sequential nanoseconds for the whole region.
pub fn predicted_seq_ns(r: &RegionCost) -> f64 {
    let c = constants();
    item_ns(&c, r) * r.items as f64
}

/// Predicted speedup of the region if parallelized (Amdahl-free upper
/// bound: effective parallelism discounted by dispatch overhead). Used by
/// reporting; [`decide`] applies the go/no-go thresholds.
pub fn predicted_speedup(r: &RegionCost) -> f64 {
    let c = constants();
    let seq = item_ns(&c, r) * r.items as f64;
    if seq <= 0.0 {
        return 1.0;
    }
    let par = seq / c.effective_parallelism + c.dispatch_ns;
    (seq / par).max(0.0)
}

/// How many dispatch costs a region must be predicted to cover before the
/// oracle will fan it out.
const MIN_DISPATCH_RATIO: f64 = 4.0;
/// How many per-task overheads one chunk must amortize.
const TASK_AMORTIZATION: f64 = 8.0;
/// Minimum calibrated speedup for the machine to count as parallel.
const MIN_EFFECTIVE_PARALLELISM: f64 = 1.5;

/// The profitability oracle: marks a region `Sequential` or
/// `Parallel { min_chunk }` from the resolved [`constants`] (see the
/// module docs for the rule). Pure in the constants and the region — the
/// same process always answers the same, so chunk grids stay deterministic.
pub fn decide(r: RegionCost) -> Decision {
    let c = constants();
    if c.effective_parallelism < MIN_EFFECTIVE_PARALLELISM || r.items <= 1 {
        return Decision::Sequential;
    }
    let per_item = item_ns(&c, &r);
    let total = per_item * r.items as f64;
    if total < MIN_DISPATCH_RATIO * c.dispatch_ns {
        return Decision::Sequential;
    }
    let min_chunk = ((TASK_AMORTIZATION * c.task_ns / per_item).ceil() as usize).max(1);
    if r.items / min_chunk.max(1) < 2 {
        return Decision::Sequential;
    }
    Decision::Parallel { min_chunk }
}

/// [`decide`] for a region about to enter the pool, with the pool-shape
/// shortcut every kernel and batch call site shares: a process with one
/// worker, or a region already running on a worker, stays inline without
/// consulting the oracle. So one-worker runs never take the constants lock
/// and never [`calibrate`], whose probes spawn hardware-wide threads.
pub fn fan_out(r: RegionCost) -> Decision {
    if crate::threads() > 1 && !crate::in_worker() {
        decide(r)
    } else {
        Decision::Sequential
    }
}

/// Resolved constants for this process: a [`set_constants`] override wins,
/// then a plausible `PACE_SCHED_COST` spec, then one [`calibrate`] run.
/// Cached after first resolution.
pub fn constants() -> CostConstants {
    let mut cache = lock(&CACHE);
    if let Some(c) = *cache {
        return c;
    }
    let resolved = match SCHED_COST.get() {
        Some(spec) => CostConstants::parse(&spec).unwrap_or_else(CostConstants::fail_closed),
        None => calibrate(),
    };
    *cache = Some(resolved);
    resolved
}

/// Overrides (or with `None`, clears) the cached constants, taking
/// precedence over both `PACE_SCHED_COST` and calibration. Tests use this
/// to force parallel-friendly or fail-closed models; `xtask` uses it to
/// pin freshly calibrated constants for a report run.
pub fn set_constants(c: Option<CostConstants>) {
    *lock(&CACHE) = c;
}

static CACHE: Mutex<Option<CostConstants>> = Mutex::new(None);

/// How many times [`calibrate`] has run in this process.
static CALIBRATIONS: AtomicUsize = AtomicUsize::new(0);

/// How many times [`calibrate`] has run in this process (resolving the
/// constants calibrates at most once; reports may calibrate again).
pub fn calibrations() -> usize {
    CALIBRATIONS.load(Ordering::Relaxed)
}

fn lock(m: &Mutex<Option<CostConstants>>) -> std::sync::MutexGuard<'_, Option<CostConstants>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Best-of-`reps` wall time of `f`, in nanoseconds.
fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Deterministic (LCG-seeded) pseudo-random f32 buffer for the throughput
/// probes — seeded so calibration inputs are reproducible even though the
/// measured *times* are machine facts.
fn seeded_buffer(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// Independent accumulators of the FLOP-rate probe in [`calibrate`]: enough
/// for the compiler to keep several SIMD registers of sums in flight. With
/// 8 or 16 lanes the loop stayed scalar and read 4–6 flops/ns on a 2-vCPU
/// Xeon whose 192×192 matmul sustains 13–23; with 32 it reads 15–18.
const FLOP_LANES: usize = 32;

/// Runs the seeded micro-benchmark and returns measured constants, failing
/// closed if any probe produces an implausible number. One run takes tens of
/// milliseconds (51–62 ms on a 2-vCPU Xeon); [`constants`] caches the result
/// for the process.
///
/// The probes, in order:
///
/// * **dispatch**: spawn + join an empty [`std::thread::scope`] region
///   with the machine's hardware thread count;
/// * **task**: per-task overhead of [`crate::for_each_owned`] no-ops;
/// * **flops**: multiply-add sweep over a seeded 64 Ki f32 buffer into 32
///   independent accumulators, so it measures arithmetic throughput rather
///   than the latency of one dependent add chain;
/// * **bytes**: streaming sum over a seeded 4 MiB buffer (past L1/L2);
/// * **effective parallelism**: speedup of a saturating compute loop
///   fanned over hardware threads vs. run serially — deliberately
///   measured against *hardware* parallelism, not `PACE_THREADS`, so the
///   answer reflects the machine rather than a test's thread override.
pub fn calibrate() -> CostConstants {
    CALIBRATIONS.fetch_add(1, Ordering::Relaxed);
    let hw = std::thread::available_parallelism().map_or(1, usize::from);

    // Dispatch: empty scoped fan-out, hardware-wide.
    let dispatch_ns = best_ns(16, || {
        std::thread::scope(|s| {
            for _ in 0..hw {
                s.spawn(|| {});
            }
        });
    });

    // Per-task overhead: for_each_owned over no-op units, minus dispatch.
    const TASKS: usize = 256;
    let region_ns = best_ns(8, || {
        crate::for_each_owned(vec![(); TASKS], |_, ()| {});
    });
    let task_ns = ((region_ns - dispatch_ns) / TASKS as f64).max(20.0);

    // Arithmetic throughput: multiply-add sweep, 2 flops per element per
    // pass. One accumulator would serialize every add behind the previous
    // one and time add latency (a ~35x underestimate next to the matmul
    // kernel); independent lanes keep the adders busy the way real kernels
    // do. `mul_add` is avoided because without a target FMA feature it is a
    // libm call per element.
    let buf = seeded_buffer(1 << 16, 0x5eed);
    const PASSES: usize = 8;
    let mut acc = 0.0f32;
    let flop_ns = best_ns(4, || {
        let mut lanes = [0.0f32; FLOP_LANES];
        for _ in 0..PASSES {
            for chunk in buf.chunks_exact(FLOP_LANES) {
                for (a, &x) in lanes.iter_mut().zip(chunk) {
                    *a += x * 1.000_1;
                }
            }
        }
        acc += lanes.iter().sum::<f32>();
    });
    let flops_per_ns = (2 * PASSES * buf.len()) as f64 / flop_ns.max(1.0);

    // Memory bandwidth: streaming sum over a 4 MiB buffer.
    let big = seeded_buffer(1 << 20, 0xfeed);
    let band_ns = best_ns(4, || {
        acc += big.iter().sum::<f32>();
    });
    let bytes_per_ns = (big.len() * 4) as f64 / band_ns.max(1.0);

    // Effective parallelism: saturating per-chunk compute, serial vs.
    // fanned over hardware threads through the pool itself.
    let eff = if hw <= 1 {
        1.0
    } else {
        let work = |lo: usize, hi: usize| -> f32 {
            let mut a = 0.0f32;
            for i in lo..hi {
                let x = buf[i & (buf.len() - 1)];
                for _ in 0..64 {
                    a = x.mul_add(1.000_1, a);
                }
            }
            a
        };
        let n = 1 << 15;
        let grid: Vec<(usize, usize)> = (0..hw).map(|i| (i * n / hw, (i + 1) * n / hw)).collect();
        let seq_ns = best_ns(4, || {
            acc += grid.iter().map(|&(lo, hi)| work(lo, hi)).sum::<f32>();
        });
        let saved = crate::threads();
        crate::set_threads(hw);
        let par_ns = best_ns(4, || {
            acc += crate::par_map(&grid, |_, &(lo, hi)| work(lo, hi))
                .into_iter()
                .sum::<f32>();
        });
        crate::set_threads(saved);
        (seq_ns / par_ns.max(1.0)).clamp(1.0, hw as f64)
    };
    // Keep the probe results observable so the loops cannot be optimized out.
    std::hint::black_box(acc);

    let measured = CostConstants {
        dispatch_ns: dispatch_ns.max(1.0),
        task_ns,
        flops_per_ns,
        bytes_per_ns,
        effective_parallelism: eff,
    };
    if measured.plausible() {
        measured
    } else {
        CostConstants::fail_closed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The constants cache and `SCHED_COST` spec are process-global; tests
    /// that mutate them must not interleave.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        GLOBALS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn parallel_friendly() -> CostConstants {
        CostConstants {
            dispatch_ns: 10_000.0,
            task_ns: 200.0,
            flops_per_ns: 4.0,
            bytes_per_ns: 8.0,
            effective_parallelism: 8.0,
        }
    }

    #[test]
    fn spec_round_trips_through_parse() {
        let c = parallel_friendly();
        let parsed = CostConstants::parse(&c.to_spec()).expect("round trip");
        assert!((parsed.dispatch_ns - c.dispatch_ns).abs() < 1.0);
        assert!((parsed.effective_parallelism - c.effective_parallelism).abs() < 1e-2);
    }

    #[test]
    fn implausible_specs_fail_closed() {
        for bad in [
            "",
            "1,2,3",
            "1,2,3,4,5,6",
            "nan,1,1,1,2",
            "1e12,1,1,1,2",
            "10,10,1,1,0.5",
            "10,10,1,1,inf",
            "banana,1,1,1,2",
        ] {
            assert_eq!(CostConstants::parse(bad), None, "spec {bad:?}");
        }
        assert!(!CostConstants {
            effective_parallelism: f64::NAN,
            ..CostConstants::fail_closed()
        }
        .plausible());
    }

    #[test]
    fn fail_closed_forces_sequential_everywhere() {
        let _g = serialize();
        set_constants(Some(CostConstants::fail_closed()));
        for items in [1usize, 100, 1 << 20] {
            let d = decide(RegionCost {
                items,
                flops_per_item: 1e6,
                bytes_per_item: 1e6,
            });
            assert_eq!(d, Decision::Sequential, "items={items}");
            assert_eq!(d.grain(items), items.max(1));
        }
        set_constants(None);
    }

    #[test]
    fn oracle_parallelizes_big_regions_and_inlines_small_ones() {
        let _g = serialize();
        set_constants(Some(parallel_friendly()));
        let big = decide(RegionCost {
            items: 4096,
            flops_per_item: 100_000.0,
            bytes_per_item: 1024.0,
        });
        assert!(big.is_parallel(), "{big:?}");
        if let Decision::Parallel { min_chunk } = big {
            assert!((1..=4096).contains(&min_chunk));
        }
        let tiny = decide(RegionCost {
            items: 8,
            flops_per_item: 10.0,
            bytes_per_item: 8.0,
        });
        assert_eq!(tiny, Decision::Sequential);
        set_constants(None);
    }

    #[test]
    fn grain_amortizes_task_overhead() {
        let _g = serialize();
        set_constants(Some(parallel_friendly()));
        // Cheap items: the grain must batch many of them per task.
        let d = decide(RegionCost {
            items: 1 << 20,
            flops_per_item: 4.0,
            bytes_per_item: 8.0,
        });
        if let Decision::Parallel { min_chunk } = d {
            assert!(
                min_chunk > 100,
                "cheap items need coarse chunks: {min_chunk}"
            );
        } else {
            panic!("huge region should parallelize: {d:?}");
        }
        // Expensive items: fine grains are fine.
        let d = decide(RegionCost {
            items: 256,
            flops_per_item: 1e7,
            bytes_per_item: 1e4,
        });
        if let Decision::Parallel { min_chunk } = d {
            assert_eq!(min_chunk, 1, "expensive items go one per chunk");
        } else {
            panic!("expensive region should parallelize: {d:?}");
        }
        set_constants(None);
    }

    #[test]
    fn calibration_produces_plausible_constants() {
        let _g = serialize();
        let c = calibrate();
        assert!(c.plausible(), "{c:?}");
        // Fail-closed output is itself plausible, so either branch is fine;
        // what matters is the oracle never sees garbage.
        let _ = decide(RegionCost {
            items: 64,
            flops_per_item: 1e5,
            bytes_per_item: 1e3,
        });
    }

    #[test]
    fn env_spec_override_beats_calibration() {
        let _g = serialize();
        SCHED_COST.set(Some("10000,200,4.0,8.0,8.0".to_string()));
        set_constants(None);
        let c = constants();
        assert!((c.effective_parallelism - 8.0).abs() < 1e-9);
        // Unparsable spec fails closed, not open.
        SCHED_COST.set(Some("garbage".to_string()));
        set_constants(None);
        assert_eq!(constants(), CostConstants::fail_closed());
        SCHED_COST.set(None);
        set_constants(None);
    }
}
