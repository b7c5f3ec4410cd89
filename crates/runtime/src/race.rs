//! The pool's concurrency-safety instrumentation: a shadow write-set
//! checker (`PACE_RACE`) and a seeded adversarial scheduler (`PACE_SCHED`).
//!
//! # `PACE_RACE` — the shadow write-set checker
//!
//! Safe Rust already rules out unsynchronized aliasing, but the pool's
//! determinism contract needs more: each parallel region must hand its
//! tasks ranges that are **pairwise-disjoint** and **exactly cover**
//! `0..len`. A grid with a gap or an overlap does not alias memory, but a
//! task whose range is missing never runs and a task run twice writes its
//! slot twice, so the result depends on the grid, not just the input.
//! `PACE_RACE` catches exactly that class of bug at run time, with the
//! shared `0/1/strict` grammar ([`crate::flags`]):
//!
//! * armed, [`crate::run`] (and through it [`crate::par_map`] /
//!   [`crate::par_try_map`]) records the slot index every task received
//!   and verifies after the scope joins that each slot ran exactly once,
//!   and [`crate::par_chunks`] verifies that its `(lo, hi)` grid tiles
//!   `0..len` before it fans out — a violation is a typed [`RaceReport`]
//!   (region site, overlapping tasks, ranges), printed under `PACE_RACE=1`
//!   and fatal under `PACE_RACE=strict`;
//! * disarmed, the whole apparatus is one relaxed atomic load per region.
//!
//! # `PACE_SCHED=<seed>` — the adversarial scheduler
//!
//! The determinism contract claims results are independent of which worker
//! executes which chunk and in what order. `PACE_SCHED` attacks that claim:
//! a nonzero seed makes [`crate::run`] execute tasks in a seeded
//! pseudo-random permutation of the pull order and inject randomized
//! `yield_now` points between pulls, so worker interleavings that would
//! take weeks to hit by luck happen on demand. Any result that changes
//! under a `PACE_SCHED` seed is an order-dependence bug; the
//! `xtask race-report` gate sweeps seeds × thread counts and requires
//! bit-identical output.

use crate::flags::{EnvFlag, EnvSpec};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// The shadow write-set checker switch (`PACE_RACE`, `0/1/strict`).
pub static RACE: EnvFlag = EnvFlag::new("PACE_RACE");

/// The adversarial-scheduler seed (`PACE_SCHED`; unset/`0` disables,
/// any other `u64` arms the permuted schedule with that seed).
pub static SCHED: EnvSpec = EnvSpec::new("PACE_SCHED");

/// True when the write-set checker is armed. One relaxed atomic load when
/// the answer is "no" — the per-region cost of a disarmed `PACE_RACE`.
#[inline]
pub fn armed() -> bool {
    RACE.enabled()
}

/// True when a write-set violation must panic (`PACE_RACE=strict`).
#[inline]
pub fn strict() -> bool {
    RACE.strict()
}

// `SCHED` is string-valued and mutex-guarded; the pool queries the seed at
// the top of every region, so the parsed value is cached behind atomics:
// one relaxed load per region once resolved.
const SCHED_UNREAD: u8 = 0;
const SCHED_OFF: u8 = 1;
const SCHED_ON: u8 = 2;
static SCHED_STATE: AtomicU8 = AtomicU8::new(SCHED_UNREAD);
static SCHED_SEED: AtomicU64 = AtomicU64::new(0);

/// The adversarial-scheduler seed, or `None` when scheduling is natural.
/// Resolves `PACE_SCHED` once; afterwards one or two relaxed atomic loads.
#[inline]
pub fn sched_seed() -> Option<u64> {
    match SCHED_STATE.load(Ordering::Relaxed) {
        SCHED_OFF => None,
        SCHED_ON => Some(SCHED_SEED.load(Ordering::Relaxed)),
        _ => {
            let seed = SCHED
                .get()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&s| s != 0);
            match seed {
                Some(s) => {
                    SCHED_SEED.store(s, Ordering::Relaxed);
                    SCHED_STATE.store(SCHED_ON, Ordering::Relaxed);
                }
                None => SCHED_STATE.store(SCHED_OFF, Ordering::Relaxed),
            }
            seed
        }
    }
}

/// Overrides the adversarial-scheduler seed for this process (`None` or
/// `Some(0)` restores natural scheduling) — the lever `xtask race-report`
/// sweeps. Results must be unaffected by construction; only interleavings
/// change.
pub fn set_sched(seed: Option<u64>) {
    let seed = seed.filter(|&s| s != 0);
    SCHED.set(seed.map(|s| s.to_string()));
    match seed {
        Some(s) => {
            SCHED_SEED.store(s, Ordering::Relaxed);
            SCHED_STATE.store(SCHED_ON, Ordering::Relaxed);
        }
        None => SCHED_STATE.store(SCHED_OFF, Ordering::Relaxed),
    }
}

// ---- the write-set checker --------------------------------------------------

/// One recorded hand-off: pool task `task` received the half-open range
/// `[lo, hi)` of the region's output (one slot index for [`crate::run`]
/// tasks, a chunk of item offsets for [`crate::par_chunks`] grids).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskSpan {
    /// Pool task index within the region.
    pub task: usize,
    /// Inclusive start of the range the task received.
    pub lo: usize,
    /// Exclusive end of the range the task received.
    pub hi: usize,
}

/// Two tasks whose recorded ranges intersect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overlap {
    /// The earlier-starting task and its range.
    pub a: TaskSpan,
    /// The task whose range intersects `a`.
    pub b: TaskSpan,
}

/// A write-set violation in one parallel region: the typed finding the
/// armed checker produces (printed under `PACE_RACE=1`, fatal under
/// `PACE_RACE=strict`).
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// The region's call site (`file:line:col` of the fan-out).
    pub site: String,
    /// Length of the output the region's ranges must tile (`0..len`).
    pub len: usize,
    /// Pairs of tasks with intersecting ranges (duplicate task execution
    /// shows up here as two spans of the same slot).
    pub overlaps: Vec<Overlap>,
    /// `[lo, hi)` holes no task received (a missed task or a grid gap).
    pub gaps: Vec<(usize, usize)>,
    /// Spans reaching past `len` or inverted (`hi < lo`).
    pub out_of_bounds: Vec<TaskSpan>,
}

impl RaceReport {
    /// True when the region's write set is clean.
    pub fn is_clean(&self) -> bool {
        self.overlaps.is_empty() && self.gaps.is_empty() && self.out_of_bounds.is_empty()
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PACE_RACE: write-set violation in parallel region at {} (len {})",
            self.site, self.len
        )?;
        for o in &self.overlaps {
            write!(
                f,
                "\n  overlap: task {} [{}, {}) intersects task {} [{}, {})",
                o.a.task, o.a.lo, o.a.hi, o.b.task, o.b.lo, o.b.hi
            )?;
        }
        for &(lo, hi) in &self.gaps {
            write!(f, "\n  gap: [{lo}, {hi}) received by no task")?;
        }
        for s in &self.out_of_bounds {
            write!(
                f,
                "\n  out of bounds: task {} [{}, {}) outside 0..{}",
                s.task, s.lo, s.hi, self.len
            )?;
        }
        Ok(())
    }
}

/// Verifies that `spans` are pairwise-disjoint and exactly cover `0..len`.
/// Empty spans (`lo == hi`) are ignored — a zero-length hand-off writes
/// nothing and cannot race.
///
/// # Errors
/// Returns the full [`RaceReport`] (every overlap, gap, and out-of-bounds
/// span, not just the first) when the write set is dirty.
pub fn check_write_set(site: &str, len: usize, spans: &[TaskSpan]) -> Result<(), RaceReport> {
    let mut report = RaceReport {
        site: site.to_string(),
        len,
        ..RaceReport::default()
    };
    let mut sorted: Vec<TaskSpan> = spans.iter().copied().filter(|s| s.lo != s.hi).collect();
    for s in &sorted {
        if s.hi < s.lo || s.hi > len {
            report.out_of_bounds.push(*s);
        }
    }
    sorted.retain(|s| s.lo <= s.hi);
    sorted.sort_by_key(|s| (s.lo, s.hi, s.task));
    let mut covered = 0usize; // everything below this offset is tiled
    let mut prev: Option<TaskSpan> = None;
    for s in &sorted {
        if let Some(p) = prev {
            if s.lo < p.hi {
                report.overlaps.push(Overlap { a: p, b: *s });
            }
        }
        if s.lo > covered {
            report.gaps.push((covered, s.lo));
        }
        covered = covered.max(s.hi);
        prev = Some(*s);
    }
    if covered < len {
        report.gaps.push((covered, len));
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(report)
    }
}

/// Dispatches a dirty write set per the `PACE_RACE` mode: panic when
/// strict, print when merely armed.
///
/// # Panics
/// Panics with the rendered report under `PACE_RACE=strict`.
pub fn handle(report: &RaceReport) {
    assert!(!strict(), "{report}");
    eprintln!("{report}");
}

/// The armed checker's per-region state: tasks record the ranges they
/// receive while the region runs; [`RegionRecorder::finish`] verifies the
/// write set after the scope joins.
pub struct RegionRecorder {
    site: String,
    len: usize,
    spans: Mutex<Vec<TaskSpan>>,
}

impl RegionRecorder {
    /// Opens a recorder for a region writing `0..len`, labeled with its
    /// call site.
    pub fn new(site: String, len: usize) -> Self {
        Self {
            site,
            len,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records that `task` received `[lo, hi)`. Called from worker threads;
    /// the mutex is armed-mode-only cost.
    pub fn record(&self, task: usize, lo: usize, hi: usize) {
        crate::lock_ignore_poison(&self.spans).push(TaskSpan { task, lo, hi });
    }

    /// Verifies the recorded write set after the region joined, dispatching
    /// any violation through [`handle`].
    pub fn finish(self) {
        let spans = self.spans.into_inner().unwrap_or_else(|p| p.into_inner());
        if let Err(report) = check_write_set(&self.site, self.len, &spans) {
            handle(&report);
        }
    }
}

/// Formats a region call site for [`RaceReport::site`].
pub(crate) fn site_label(primitive: &str, loc: &std::panic::Location<'_>) -> String {
    format!(
        "{primitive} @ {}:{}:{}",
        loc.file(),
        loc.line(),
        loc.column()
    )
}

// ---- the adversarial scheduler ----------------------------------------------

/// xorshift64* step — the zero-dependency PRNG behind the schedule fuzzer
/// (scheduling only; never used for anything that affects results).
fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// A seeded permutation of `0..n` (Fisher–Yates over xorshift64*): the
/// adversarial task-execution order for one region. Deterministic in
/// `(n, seed)`, so a failing seed reproduces exactly.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15 ^ (n as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    for i in (1..n).rev() {
        s = xorshift(s);
        let j = (s % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Per-worker yield injector: between chunk pulls it pseudo-randomly
/// yields the thread (sometimes twice) to force interleavings the natural
/// schedule rarely produces. Seeded per `(region seed, worker)`, stepped
/// per task — deterministic, but adversarial.
pub struct SchedJitter {
    state: u64,
}

impl SchedJitter {
    /// A jitter stream for one worker of one region.
    pub fn new(seed: u64, worker: u64) -> Self {
        Self {
            state: xorshift(seed ^ worker.wrapping_mul(0xd6e8_feb8_6659_fd93) | 1),
        }
    }

    /// Maybe yields before the pulled task `i` runs.
    pub fn yield_before(&mut self, i: usize) {
        self.state = xorshift(self.state ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        match self.state % 8 {
            0 | 1 => std::thread::yield_now(),
            2 => {
                std::thread::yield_now();
                std::thread::yield_now();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(task: usize, lo: usize, hi: usize) -> TaskSpan {
        TaskSpan { task, lo, hi }
    }

    #[test]
    fn clean_tiling_passes() {
        let spans = [span(0, 0, 4), span(1, 4, 9), span(2, 9, 10)];
        assert!(check_write_set("t", 10, &spans).is_ok());
        // Order of recording must not matter.
        let shuffled = [span(2, 9, 10), span(0, 0, 4), span(1, 4, 9)];
        assert!(check_write_set("t", 10, &shuffled).is_ok());
        // Empty regions and empty spans are fine.
        assert!(check_write_set("t", 0, &[]).is_ok());
        assert!(check_write_set("t", 4, &[span(0, 0, 4), span(1, 2, 2)]).is_ok());
    }

    #[test]
    fn overlap_gap_and_bounds_are_all_reported() {
        let spans = [span(0, 0, 6), span(1, 4, 8), span(2, 9, 12)];
        let report = check_write_set("matrix.rs:1:1", 11, &spans).expect_err("dirty set");
        assert_eq!(report.overlaps.len(), 1);
        assert_eq!(report.overlaps[0].a.task, 0);
        assert_eq!(report.overlaps[0].b.task, 1);
        assert_eq!(report.gaps, vec![(8, 9)]);
        assert_eq!(report.out_of_bounds, vec![span(2, 9, 12)]);
        let rendered = report.to_string();
        assert!(rendered.contains("overlap: task 0 [0, 6) intersects task 1 [4, 8)"));
        assert!(rendered.contains("gap: [8, 9)"));
        assert!(rendered.contains("out of bounds"));
    }

    #[test]
    fn missing_and_duplicated_tasks_are_caught() {
        // Slot-per-task accounting: task 1 never ran, task 2 ran twice.
        let spans = [span(0, 0, 1), span(2, 2, 3), span(2, 2, 3)];
        let report = check_write_set("run", 3, &spans).expect_err("dirty");
        assert_eq!(report.gaps, vec![(1, 2)]);
        assert_eq!(report.overlaps.len(), 1);
    }

    #[test]
    fn permutation_is_a_permutation_and_seed_sensitive() {
        for n in [0usize, 1, 2, 17, 100] {
            for seed in [1u64, 7, 0xdead_beef] {
                let p = permutation(n, seed);
                let mut sorted = p.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n} seed={seed}");
                assert_eq!(p, permutation(n, seed), "deterministic in (n, seed)");
            }
        }
        assert_ne!(permutation(100, 1), permutation(100, 2));
        assert_ne!(permutation(100, 1), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sched_seed_override_roundtrips() {
        set_sched(Some(41));
        assert_eq!(sched_seed(), Some(41));
        set_sched(Some(0));
        assert_eq!(sched_seed(), None);
        set_sched(Some(7));
        assert_eq!(sched_seed(), Some(7));
        set_sched(None);
        assert_eq!(sched_seed(), None);
    }
}
