//! The serving runtime: bounded admission, deadline-aware batching,
//! degradation, and shedding — as a deterministic discrete-event machine.
//!
//! All timing is *virtual*: requests carry virtual arrival timestamps,
//! batches fire at computed virtual instants, and execution charges a
//! configured virtual cost (plus any `slow_consumer` fault latency). The
//! actual tensor math runs for real on the deterministic pool, whose
//! results are bit-identical at any `PACE_THREADS` — so the full reply
//! sequence (values, sources, typed errors, ordering) is reproducible
//! across thread counts and runs. That is what lets the chaos matrix
//! assert bit-identity on a *serving* workload, not just on kernels.
//!
//! # State machine
//!
//! * **Healthy** — the learned model serves; requests queue (bounded) and
//!   execute in coalesced tensor batches.
//! * **Degraded** — the model is unhealthy (non-finite output observed, no
//!   validated snapshot) *or* the queue is at cap; requests are answered by
//!   the classical fallback estimator. Queue-overflow fallback is
//!   token-bucket limited so overload cannot silently route the whole
//!   stream around the bounded queue.
//! * **Shedding** — queue at cap *and* the fallback budget is spent;
//!   requests are rejected with [`ServeError::Shed`]. The queue never
//!   grows past its cap and the server never hangs.
//!
//! # Deadline propagation
//!
//! A request's absolute deadline is checked at three points: admission
//! (already expired → rejected, never queued), batch formation (expired
//! while queued → evicted before encoding), and projected completion
//! (deadline earlier than the batch's computed finish time → evicted
//! before kernel execution, and the batch cost is recomputed for the
//! survivors). Fallback-path replies check their completion time the same
//! way. Every miss is the typed [`ServeError::DeadlineExceeded`].

use crate::error::ServeError;
use crate::snapshot::{ModelSnapshot, PinnedQuery, SnapshotStore};
use crate::SwapError;
use pace_data::Schema;
use pace_engine::{CardEstimator, HistogramEstimator};
use pace_tensor::fault;
use pace_workload::Query;
use std::collections::VecDeque;
use std::sync::Arc;

/// Tuning knobs of the serving runtime. All times are virtual seconds.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission-queue cap; depth never exceeds this.
    pub queue_cap: usize,
    /// Largest tensor batch the batcher forms.
    pub max_batch: usize,
    /// How long the oldest queued request waits for co-travellers before
    /// the batch fires anyway.
    pub batch_window: f64,
    /// Fixed virtual cost per batch dispatch.
    pub base_cost: f64,
    /// Additional virtual cost per batched item.
    pub per_item_cost: f64,
    /// Virtual cost of one fallback (classical) estimate.
    pub fallback_cost: f64,
    /// Token-bucket refill rate (tokens per virtual second) for the
    /// queue-overflow fallback path.
    pub fallback_rate: f64,
    /// Token-bucket capacity for the queue-overflow fallback path.
    pub fallback_burst: f64,
    /// Median pinned-set q-error above which a candidate snapshot is
    /// rejected at hot-swap.
    pub swap_qerr_limit: f64,
    /// Consecutive swap rejections that close the update path.
    pub swap_breaker_threshold: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_cap: 64,
            max_batch: 16,
            batch_window: 0.002,
            base_cost: 0.002,
            per_item_cost: 0.0008,
            fallback_cost: 0.0002,
            fallback_rate: 200.0,
            fallback_burst: 20.0,
            swap_qerr_limit: 1e6,
            swap_breaker_threshold: 3,
        }
    }
}

/// One estimate request with admission metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Caller-assigned id, echoed in the reply record.
    pub id: u64,
    /// Virtual arrival time.
    pub arrival: f64,
    /// Absolute virtual deadline; a reply after this instant is a miss.
    pub deadline: f64,
    /// The query to estimate.
    pub query: Query,
}

/// Which estimator produced a served estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The active learned snapshot, via a coalesced tensor batch.
    Learned,
    /// The classical fallback estimator (degraded path, or a per-item
    /// replacement of a non-finite learned output).
    Fallback,
}

/// A successful reply.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The cardinality estimate — always finite and ≥ 0.
    pub estimate: f64,
    /// Which path produced it.
    pub source: Source,
    /// Virtual completion time.
    pub completed_at: f64,
}

/// The full record of one request's fate.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplyRecord {
    /// The request's id.
    pub id: u64,
    /// Its virtual arrival time.
    pub arrival: f64,
    /// Estimate or typed rejection.
    pub outcome: Result<Reply, ServeError>,
}

/// A scheduled hot-swap attempt.
pub struct SwapEvent {
    /// Virtual time at which the candidate arrives.
    pub at: f64,
    /// Operator-assigned version.
    pub version: u64,
    /// The candidate model.
    pub model: pace_ce::CeModel,
}

/// Outcome of one [`SwapEvent`].
#[derive(Clone, Debug, PartialEq)]
pub struct SwapOutcome {
    /// Virtual time of the attempt.
    pub at: f64,
    /// The candidate's version.
    pub version: u64,
    /// Swap result; `Err` means the active snapshot was kept (rollback).
    pub result: Result<(), SwapError>,
}

/// Coarse service state, updated at every admission decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeState {
    /// Learned path serving, queue below cap.
    Healthy,
    /// Fallback estimator serving (model unhealthy or queue at cap).
    Degraded,
    /// Requests being rejected with typed sheds.
    Shedding,
}

/// Aggregate counters for one server lifetime (local to the instance —
/// the process-global `pace-trace` metrics are updated as well).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests admitted (well- or mal-formed).
    pub requests: u64,
    /// Typed sheds.
    pub shed: u64,
    /// Replies served by the fallback estimator.
    pub fallback_served: u64,
    /// Replies served by the learned model.
    pub learned_served: u64,
    /// Deadline misses (admission, formation, or completion).
    pub deadline_missed: u64,
    /// Malformed requests rejected at admission.
    pub malformed: u64,
    /// `Unhealthy` rejections (no model, no fallback).
    pub unhealthy_errors: u64,
    /// Non-finite learned outputs replaced by fallback estimates.
    pub nonfinite_replaced: u64,
    /// Tensor batches executed.
    pub batches: u64,
    /// Highest queue depth observed.
    pub max_queue_depth: usize,
}

struct Pending {
    req: Request,
    enqueued_at: f64,
}

/// The serving runtime. Construct once, then [`run`](Server::run) a
/// request stream (optionally interleaved with hot-swap events) through it.
pub struct Server {
    cfg: ServeConfig,
    store: SnapshotStore,
    fallback: Option<HistogramEstimator>,
    schema: Schema,
    now: f64,
    busy_until: f64,
    queue: VecDeque<Pending>,
    tokens: f64,
    last_refill: f64,
    model_healthy: bool,
    state: ServeState,
    summary: ServeSummary,
    replies: Vec<ReplyRecord>,
    swap_log: Vec<SwapOutcome>,
}

/// Forces a raw fallback estimate into the documented bounds: finite and
/// in `[0, f64::MAX]`. (`HistogramEstimator` can overflow to `inf` on
/// pathological joins, and `inf · 0` selectivities are NaN.)
fn clamp_estimate(est: f64) -> f64 {
    if est.is_finite() {
        est.max(0.0)
    } else if est > 0.0 {
        f64::MAX
    } else {
        0.0
    }
}

impl Server {
    /// A server with an empty snapshot store (degraded until the first
    /// candidate validates — see [`Server::try_swap`]). `fallback` is the
    /// classical estimator used for degradation; without one, degraded
    /// requests get [`ServeError::Unhealthy`].
    pub fn new(
        cfg: ServeConfig,
        schema: Schema,
        pinned: Vec<PinnedQuery>,
        fallback: Option<HistogramEstimator>,
    ) -> Self {
        let store = SnapshotStore::new(pinned, cfg.swap_qerr_limit, cfg.swap_breaker_threshold);
        let tokens = cfg.fallback_burst;
        Self {
            cfg,
            store,
            fallback,
            schema,
            now: 0.0,
            busy_until: 0.0,
            queue: VecDeque::new(),
            tokens,
            last_refill: 0.0,
            model_healthy: false,
            state: ServeState::Degraded,
            summary: ServeSummary::default(),
            replies: Vec::new(),
            swap_log: Vec::new(),
        }
    }

    /// Validates and (on success) atomically installs `model` as the
    /// serving snapshot, outside of any request stream.
    ///
    /// # Errors
    /// Propagates [`SwapError`] from shadow validation; the previous
    /// snapshot (if any) stays active.
    pub fn try_swap(&mut self, version: u64, model: pace_ce::CeModel) -> Result<(), SwapError> {
        let result = self.store.try_swap(version, model);
        if result.is_ok() {
            self.model_healthy = true;
            self.state = ServeState::Healthy;
        }
        self.swap_log.push(SwapOutcome {
            at: self.now,
            version,
            result: result.clone(),
        });
        result
    }

    /// Break-glass install: puts `model` into service **without** shadow
    /// validation and marks the learned path healthy. Exists for operator
    /// override and for campaign *resume*, where a model that already
    /// passed validation before a crash is being restored from a manifest
    /// — re-validating it against the pinned probe would be redundant, but
    /// the install must still be visible in traces
    /// (`SERVE_FORCE_INSTALLS`), so restores are never mistaken for
    /// validated swaps. Not recorded in the swap log: the log holds swap
    /// *attempts*, and a restore replays no attempt.
    pub fn force_install(&mut self, version: u64, model: pace_ce::CeModel) {
        self.store.force_install(version, model);
        self.model_healthy = true;
        self.state = ServeState::Healthy;
    }

    /// The timing state a resumed campaign must persist and restore for
    /// bit-identical replay: `(now, busy_until, fallback tokens,
    /// last token refill)`. The clock alone is not enough — the batcher's
    /// busy horizon shifts the next wave's fire times, and the token
    /// bucket's fill level decides the next shed-versus-fallback call.
    pub fn clock_state(&self) -> (f64, f64, f64, f64) {
        (self.now, self.busy_until, self.tokens, self.last_refill)
    }

    /// Restores [`clock_state`](Server::clock_state) when a campaign
    /// resumes from a manifest, re-entering the exact virtual instant the
    /// manifest was persisted at so the resumed waves' batches, sheds, and
    /// swap events fire identically to an uninterrupted run. `now` and
    /// `busy_until` only move forward; `tokens` is clamped to the
    /// configured burst so a corrupt manifest cannot mint budget.
    pub fn restore_clock(&mut self, now: f64, busy_until: f64, tokens: f64, last_refill: f64) {
        self.now = self.now.max(now);
        self.busy_until = self.busy_until.max(busy_until);
        self.tokens = tokens.clamp(0.0, self.cfg.fallback_burst);
        self.last_refill = last_refill;
    }

    /// Current coarse state.
    pub fn state(&self) -> ServeState {
        self.state
    }

    /// Lifetime counters.
    pub fn summary(&self) -> &ServeSummary {
        &self.summary
    }

    /// Every hot-swap attempt and its outcome, in virtual-time order.
    pub fn swap_log(&self) -> &[SwapOutcome] {
        &self.swap_log
    }

    /// The snapshot store (read access — active version, breaker state).
    pub fn snapshots(&self) -> &SnapshotStore {
        &self.store
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Runs a request stream (and scheduled swap events) to completion and
    /// returns this call's reply records, in completion order. The records
    /// move to the caller; the server keeps none of them. Requests are
    /// sorted by `(arrival, id)`; arrivals earlier than the server's clock
    /// are admitted at the clock. The server can be `run` repeatedly;
    /// virtual time carries over.
    pub fn run(
        &mut self,
        mut requests: Vec<Request>,
        mut swaps: Vec<SwapEvent>,
    ) -> Vec<ReplyRecord> {
        let _span = pace_trace::span("serve::run");
        requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
        swaps.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.version.cmp(&b.version)));
        let mut requests: VecDeque<Request> = requests.into();
        let mut swaps: VecDeque<SwapEvent> = swaps.into();
        loop {
            let t_batch = self.next_fire_time();
            let t_swap = swaps.front().map(|s| s.at.max(self.now));
            let t_arr = requests.front().map(|r| r.arrival.max(self.now));
            // Earliest event wins; ties fire batches first (frees queue
            // slots before the same-instant arrival is admitted), then
            // swaps, then arrivals.
            let best = [t_batch, t_swap, t_arr]
                .iter()
                .flatten()
                .copied()
                .fold(f64::INFINITY, f64::min);
            if best.is_infinite() {
                break;
            }
            if t_batch.is_some_and(|t| t <= best) {
                self.fire_batch();
            } else if t_swap.is_some_and(|t| t <= best) {
                let s = swaps.pop_front().expect("swap event present");
                self.now = self.now.max(s.at);
                let _ = self.try_swap(s.version, s.model);
            } else {
                let r = requests.pop_front().expect("arrival present");
                self.now = self.now.max(r.arrival);
                self.admit(r);
            }
        }
        std::mem::take(&mut self.replies)
    }

    /// When the current queue contents would fire, if ever.
    fn next_fire_time(&self) -> Option<f64> {
        let oldest = self.queue.front()?;
        let trigger = if self.queue.len() >= self.cfg.max_batch {
            // A full batch is ready the moment its last member arrived.
            self.queue[self.cfg.max_batch - 1].enqueued_at
        } else {
            oldest.enqueued_at + self.cfg.batch_window
        };
        Some(trigger.max(self.busy_until).max(self.now))
    }

    fn refill_tokens(&mut self) {
        let dt = (self.now - self.last_refill).max(0.0);
        self.tokens = (self.tokens + dt * self.cfg.fallback_rate).min(self.cfg.fallback_burst);
        self.last_refill = self.now;
    }

    fn reply(&mut self, id: u64, arrival: f64, outcome: Result<Reply, ServeError>) {
        if let Ok(r) = &outcome {
            pace_trace::SERVE_LATENCY_US.record(((r.completed_at - arrival) * 1e6) as u64);
        }
        self.replies.push(ReplyRecord {
            id,
            arrival,
            outcome,
        });
    }

    fn miss_deadline(&mut self, req: &Request, at: f64) {
        self.summary.deadline_missed += 1;
        pace_trace::SERVE_DEADLINE_MISSES.add(1);
        self.reply(
            req.id,
            req.arrival,
            Err(ServeError::DeadlineExceeded {
                deadline: req.deadline,
                at,
            }),
        );
    }

    /// Serves `req` through the classical estimator, completing at
    /// `now + fallback_cost`.
    fn serve_fallback(&mut self, req: Request) {
        let done = self.now + self.cfg.fallback_cost;
        if req.deadline < done {
            self.miss_deadline(&req, done);
            return;
        }
        let est = match &self.fallback {
            Some(f) => clamp_estimate(f.estimate(&req.query)),
            None => {
                self.summary.unhealthy_errors += 1;
                self.reply(req.id, req.arrival, Err(ServeError::Unhealthy));
                return;
            }
        };
        self.summary.fallback_served += 1;
        pace_trace::SERVE_FALLBACK.add(1);
        self.reply(
            req.id,
            req.arrival,
            Ok(Reply {
                estimate: est,
                source: Source::Fallback,
                completed_at: done,
            }),
        );
    }

    /// Admission: the Healthy → Degraded → Shedding decision.
    fn admit(&mut self, req: Request) {
        self.summary.requests += 1;
        pace_trace::SERVE_REQUESTS.add(1);
        self.refill_tokens();
        if !req.query.is_valid(&self.schema) {
            self.summary.malformed += 1;
            self.reply(req.id, req.arrival, Err(ServeError::Malformed));
            return;
        }
        if req.deadline <= self.now {
            self.miss_deadline(&req, self.now);
            return;
        }
        let model_up = self.model_healthy && self.store.current().is_some();
        if model_up && self.queue.len() < self.cfg.queue_cap {
            self.state = ServeState::Healthy;
            self.queue.push_back(Pending {
                enqueued_at: self.now,
                req,
            });
            self.summary.max_queue_depth = self.summary.max_queue_depth.max(self.queue.len());
            pace_trace::SERVE_QUEUE_DEPTH.record(self.queue.len() as u64);
            return;
        }
        if !model_up {
            // Model out of service: unconditional degradation — the
            // fallback is cheap and well-formed requests must not fail.
            self.state = ServeState::Degraded;
            self.serve_fallback(req);
            return;
        }
        // Queue at cap with a healthy model: spend a fallback token, or shed.
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.state = ServeState::Degraded;
            self.serve_fallback(req);
        } else {
            self.state = ServeState::Shedding;
            self.summary.shed += 1;
            pace_trace::SERVE_SHED.add(1);
            let depth = self.queue.len();
            self.reply(req.id, req.arrival, Err(ServeError::Shed { depth }));
        }
    }

    /// Forms and executes one batch at its computed fire time.
    fn fire_batch(&mut self) {
        let fire = match self.next_fire_time() {
            Some(t) => t,
            None => return,
        };
        self.now = self.now.max(fire);
        let n = self.queue.len().min(self.cfg.max_batch);
        let mut batch: Vec<Pending> = self.queue.drain(..n).collect();

        // Deadline propagation, stage 2: evict requests that expired while
        // queued, before spending any encode/kernel work on them.
        let (expired, live): (Vec<_>, Vec<_>) =
            batch.into_iter().partition(|p| p.req.deadline < fire);
        batch = live;
        for p in expired {
            self.miss_deadline(&p.req, fire);
        }

        // Stage 3: projected completion. The batch's virtual cost is known
        // up front; requests that cannot make it are evicted and the cost
        // recomputed for the survivors (their deadlines are ≥ the old
        // completion time, so one recomputation suffices).
        let extra = fault::slow_consumer("serve-batch").unwrap_or(0.0);
        let (base, per_item) = (self.cfg.base_cost, self.cfg.per_item_cost);
        let cost = move |len: usize| base + per_item * len as f64 + extra;
        let mut done = fire + cost(batch.len());
        let (dead, live): (Vec<_>, Vec<_>) = batch.into_iter().partition(|p| p.req.deadline < done);
        batch = live;
        for p in dead {
            self.miss_deadline(&p.req, done);
        }
        done = fire + cost(batch.len());

        if batch.is_empty() {
            self.busy_until = self.busy_until.max(fire);
            return;
        }
        self.summary.batches += 1;
        pace_trace::SERVE_BATCHES.add(1);
        pace_trace::SERVE_BATCH_SIZE.record(batch.len() as u64);

        let snap: Option<Arc<ModelSnapshot>> = self.store.current();
        let ests: Vec<f64> = match &snap {
            Some(s) => {
                let _batch = pace_trace::span("serve::batch");
                let encs: Vec<Vec<f32>> = {
                    let _encode = pace_trace::span("serve::batch::encode");
                    batch
                        .iter()
                        .map(|p| s.model.encoder().encode(&p.req.query))
                        .collect()
                };
                let _infer = pace_trace::span("serve::batch::infer");
                s.model.estimate_encoded_batch(&encs)
            }
            None => vec![f64::NAN; batch.len()],
        };
        self.busy_until = done;
        for (p, est) in batch.into_iter().zip(ests) {
            if est.is_finite() && est >= 0.0 {
                self.summary.learned_served += 1;
                self.reply(
                    p.req.id,
                    p.req.arrival,
                    Ok(Reply {
                        estimate: est,
                        source: Source::Learned,
                        completed_at: done,
                    }),
                );
            } else {
                // A non-finite (or negative) learned output is never
                // served: replace per-request with the fallback estimate
                // and take the model out of service.
                self.summary.nonfinite_replaced += 1;
                pace_trace::SERVE_NONFINITE_REPLACED.add(1);
                self.model_healthy = false;
                self.state = ServeState::Degraded;
                match &self.fallback {
                    Some(f) => {
                        let fb = clamp_estimate(f.estimate(&p.req.query));
                        self.summary.fallback_served += 1;
                        pace_trace::SERVE_FALLBACK.add(1);
                        self.reply(
                            p.req.id,
                            p.req.arrival,
                            Ok(Reply {
                                estimate: fb,
                                source: Source::Fallback,
                                completed_at: done,
                            }),
                        );
                    }
                    None => {
                        self.summary.unhealthy_errors += 1;
                        self.reply(p.req.id, p.req.arrival, Err(ServeError::Unhealthy));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_data::{build, DatasetKind, Scale};
    use pace_workload::{generate_queries, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Regression: `run` once returned a copy of its records and kept the
    /// originals for the server's lifetime, so a long-lived server grew with
    /// every request it had ever answered. Each call must hand over exactly
    /// its own records and leave none behind.
    #[test]
    fn run_hands_over_its_own_records_and_retains_none() {
        let ds = build(DatasetKind::Dmv, Scale::tiny(), 3);
        let mut rng = StdRng::seed_from_u64(4);
        let queries = generate_queries(&ds, &WorkloadSpec::single_table(), &mut rng, 6);
        let fallback = HistogramEstimator::build(&ds, 16);
        let mut srv = Server::new(
            ServeConfig::default(),
            ds.schema.clone(),
            Vec::new(),
            Some(fallback),
        );
        let stream = |first_id: u64, start: f64| -> Vec<Request> {
            (0u64..)
                .zip(&queries)
                .map(|(i, q)| Request {
                    id: first_id + i,
                    arrival: start + i as f64 * 1e-3,
                    deadline: start + 10.0,
                    query: q.clone(),
                })
                .collect()
        };
        let ids = |records: &[ReplyRecord]| {
            let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            ids
        };

        let first = srv.run(stream(0, 0.0), Vec::new());
        assert_eq!(ids(&first), (0..6).collect::<Vec<u64>>());
        assert!(
            srv.replies.is_empty(),
            "server kept the first run's records"
        );

        let second = srv.run(stream(100, 1.0), Vec::new());
        assert_eq!(ids(&second), (100..106).collect::<Vec<u64>>());
        assert!(
            srv.replies.is_empty(),
            "server kept the second run's records"
        );
    }
}
