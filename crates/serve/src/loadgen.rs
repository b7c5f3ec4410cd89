//! Seeded open-loop load generation for the serving runtime.
//!
//! Open-loop means arrivals are scheduled by the clock, not by replies —
//! an overloaded server keeps receiving traffic, which is exactly the
//! regime where bounded queues and typed shedding matter. The generator
//! is fully deterministic: arrival jitter and query choice come from a
//! seeded RNG, and the `overload` fault kind (site `serve-admit`)
//! deterministically injects burst arrivals so the chaos matrix can
//! reproduce overload scenarios bit-for-bit.

use crate::server::Request;
use pace_tensor::fault;
use pace_workload::Query;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;

/// One load phase: `rate` requests per virtual second for `duration`
/// virtual seconds.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase label (reported in `BENCH_serve.json`).
    pub name: &'static str,
    /// Phase length in virtual seconds.
    pub duration: f64,
    /// Mean arrival rate, requests per virtual second.
    pub rate: f64,
}

/// How many extra same-instant arrivals one `overload` fault firing adds.
pub const OVERLOAD_BURST: usize = 24;

/// Generates the open-loop arrival stream for `phases`, drawing queries
/// round-robin-with-jitter from `pool`. Each pool query is copied once and
/// shared by every request that draws it. Ids are assigned starting at
/// `first_id` in arrival order; every request gets `deadline` virtual
/// seconds of budget. When the `overload` fault (site `serve-admit`)
/// fires at an arrival, [`OVERLOAD_BURST`] extra requests land at the
/// same instant.
pub fn generate(
    phases: &[Phase],
    pool: &[Query],
    seed: u64,
    deadline: f64,
    first_id: u64,
) -> Vec<Request> {
    assert!(!pool.is_empty(), "query pool must be non-empty");
    let pool: Vec<Arc<Query>> = pool.iter().cloned().map(Arc::new).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0_f64;
    let mut id = first_id;
    let push = |out: &mut Vec<Request>, id: &mut u64, at: f64, q: &Arc<Query>| {
        out.push(Request {
            id: *id,
            arrival: at,
            deadline: at + deadline,
            query: Arc::clone(q),
        });
        *id += 1;
    };
    for phase in phases {
        let end = t + phase.duration;
        let mean_gap = 1.0 / phase.rate.max(1e-9);
        while t < end {
            // Jittered inter-arrival in [0.5, 1.5) of the mean gap keeps
            // the rate while avoiding lock-step batching artifacts.
            let jitter: f64 = rng.random_range(0.5..1.5);
            t += mean_gap * jitter;
            if t >= end {
                break;
            }
            let pick = rng.random_range(0..pool.len());
            push(&mut out, &mut id, t, &pool[pick]);
            if fault::overload("serve-admit") {
                for _ in 0..OVERLOAD_BURST {
                    let pick = rng.random_range(0..pool.len());
                    push(&mut out, &mut id, t, &pool[pick]);
                }
            }
        }
        t = end;
    }
    out
}

/// Total virtual duration of `phases`.
pub fn total_duration(phases: &[Phase]) -> f64 {
    phases.iter().map(|p| p.duration).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_workload::Predicate;

    fn pool() -> Vec<Query> {
        (0..4)
            .map(|i| {
                Query::new(
                    vec![0],
                    vec![Predicate {
                        table: 0,
                        col: 1,
                        lo: i,
                        hi: i + 10,
                    }],
                )
            })
            .collect()
    }

    #[test]
    fn stream_is_seed_deterministic_and_rate_shaped() {
        fault::install(None);
        let phases = [
            Phase {
                name: "ramp",
                duration: 1.0,
                rate: 100.0,
            },
            Phase {
                name: "steady",
                duration: 1.0,
                rate: 400.0,
            },
        ];
        let a = generate(&phases, &pool(), 7, 0.05, 0);
        let b = generate(&phases, &pool(), 7, 0.05, 0);
        assert_eq!(a, b, "same seed, same stream");
        let ramp = a.iter().filter(|r| r.arrival < 1.0).count();
        let steady = a.len() - ramp;
        assert!((80..=120).contains(&ramp), "ramp arrivals: {ramp}");
        assert!((320..=480).contains(&steady), "steady arrivals: {steady}");
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.windows(2).all(|w| w[0].id < w[1].id));
        assert!(a.iter().all(|r| r.deadline > r.arrival));

        let c = generate(&phases, &pool(), 8, 0.05, 0);
        assert_ne!(a, c, "different seed, different jitter");
    }
}
