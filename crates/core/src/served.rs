//! The served victim: an attack target whose model sits *behind* the
//! hot-swap serving runtime (`pace-serve`) instead of being updated in
//! place.
//!
//! The direct [`Victim`](crate::victim::Victim) models the paper's setup
//! literally: injected queries retrain the estimator the attacker probes.
//! A production estimator is deployed differently — incremental retrains
//! produce *candidate snapshots* that must pass shadow validation (finite
//! parameters + a pinned-set q-error probe) before an atomic hot-swap puts
//! them in front of traffic. [`ServedVictim`] routes the campaign through
//! that deployment path:
//!
//! * `EXPLAIN` probes become served requests through the [`Server`]'s
//!   bounded admission queue and virtual-time batcher — the attacker
//!   reads estimates off the *active snapshot* and experiences typed
//!   serving failures ([`ServeError`] mapped onto
//!   [`ProbeError`](crate::resilience::ProbeError)).
//! * Each injected wave accumulates into a *candidate* model and is
//!   submitted as a versioned [`SwapEvent`] mid-wave, while seeded
//!   background traffic flows. The swap either validates and goes live,
//!   or is rejected — and a rejected wave *rolls back*: the poison that
//!   wave carried never reaches the serving model.
//!
//! The per-wave accept/reject log ([`WaveSwap`]) is the measured defense
//! surface: the fraction of poison waves the pinned q-error probe stops is
//! what `xtask defense-report` gates on. Everything runs on the serving
//! runtime's virtual clock, so a seeded campaign (probes, traffic, swap
//! verdicts) is bit-identical across runs and thread counts.

use crate::resilience::ProbeError;
use crate::victim::{injected_failure, AttackTarget, BlackBox};
use pace_ce::{CeModel, EncodedWorkload};
use pace_engine::Executor;
use pace_serve::{Phase, ReplyRecord, Request, ServeError, Server, SwapError, SwapEvent};
use pace_tensor::{serialize, trace};
use pace_workload::{LabeledQuery, Query, QueryEncoder, Workload};
use std::cell::{Cell, RefCell};
use std::io;

/// Version assigned to the clean model installed at construction.
const INITIAL_VERSION: u64 = 1;
/// Version of wave `w`'s candidate snapshot: `FIRST_WAVE_VERSION + w`.
const FIRST_WAVE_VERSION: u64 = 2;
/// Id stride separating one wave's background-traffic requests from the
/// next (a wave never generates this many arrivals, overload bursts
/// included).
const WAVE_ID_STRIDE: u64 = 100_000;
/// First id of the attacker's probe requests — far above any wave-traffic
/// id, so probe and traffic replies never collide in the logs.
const PROBE_ID_BASE: u64 = 2_000_000_000;

/// Background query traffic a served campaign runs concurrently with each
/// poison wave, plus the serving budgets of attacker probes.
#[derive(Clone, Debug)]
pub struct ServedTraffic {
    /// Pool the per-wave open-loop generator draws queries from.
    pub pool: Vec<Query>,
    /// Mean arrival rate during a wave, requests per virtual second.
    pub rate: f64,
    /// Virtual duration of each wave's traffic window; the wave's swap
    /// event fires halfway through it.
    pub window: f64,
    /// Deadline budget (virtual seconds) of each background request.
    pub deadline: f64,
    /// Deadline budget (virtual seconds) of each attacker `EXPLAIN` probe.
    pub probe_deadline: f64,
    /// Base seed of the traffic generator; each wave derives its own
    /// stream from it.
    pub seed: u64,
}

impl ServedTraffic {
    /// Moderate steady traffic: ~`rate × window` requests per wave, ample
    /// deadline budget so a healthy server answers everything.
    pub fn new(pool: Vec<Query>, seed: u64) -> Self {
        Self {
            pool,
            rate: 400.0,
            window: 0.25,
            deadline: 0.05,
            probe_deadline: 0.05,
            seed,
        }
    }
}

/// One poison wave's hot-swap attempt and verdict — the campaign's defense
/// ledger, persisted in the manifest and surfaced in
/// [`AttackOutcome::swaps`](crate::pipeline::AttackOutcome::swaps).
#[derive(Clone, Debug, PartialEq)]
pub struct WaveSwap {
    /// Zero-based wave index.
    pub wave: u64,
    /// Version the wave's candidate snapshot carried.
    pub version: u64,
    /// Virtual time of the swap attempt.
    pub at: f64,
    /// Swap verdict; `Err` means the wave's poison was rolled back.
    pub result: Result<(), SwapError>,
}

impl WaveSwap {
    /// Stable report label of the verdict: `accepted`,
    /// `rejected-by-probe` (shadow validation refused the candidate),
    /// `version-banned`, or `breaker-tripped`.
    pub fn class(&self) -> &'static str {
        match &self.result {
            Ok(()) => "accepted",
            Err(
                SwapError::QualityRegression { .. }
                | SwapError::NonFiniteParams
                | SwapError::NoPinnedSet,
            ) => "rejected-by-probe",
            Err(SwapError::VersionBanned { .. }) => "version-banned",
            Err(SwapError::BreakerOpen) => "breaker-tripped",
        }
    }
}

/// A victim whose estimator is deployed behind the validated hot-swap
/// serving path. Implements [`BlackBox`] (the attacker's probe surface)
/// and [`AttackTarget`] (the evaluation surface), so the whole pipeline —
/// surrogate acquisition, generator training, wave injection — runs
/// unchanged against it.
pub struct ServedVictim<'a> {
    server: RefCell<Server>,
    exec: Executor<'a>,
    encoder: QueryEncoder,
    history: Vec<Query>,
    injected: Vec<LabeledQuery>,
    /// The retrain accumulator: updated by every wave, submitted as that
    /// wave's candidate snapshot. Reset to `active` when a swap is
    /// rejected (the serving side never trained on the rejected wave).
    candidate: CeModel,
    /// Mirror of the active (validated) snapshot — what probes are served
    /// from and what evaluation measures.
    active: CeModel,
    traffic: ServedTraffic,
    wave: u64,
    next_probe_id: Cell<u64>,
    log: RefCell<Vec<ReplyRecord>>,
    swaps: Vec<WaveSwap>,
}

impl<'a> ServedVictim<'a> {
    /// Puts `model` into service (version 1, through full shadow
    /// validation — the clean model must pass its own pinned probe) and
    /// wraps the result as an attack target. `server` must be freshly
    /// constructed with the pinned validation set and fallback estimator;
    /// `history` is the workload the model was trained on.
    ///
    /// # Errors
    /// Propagates [`SwapError`] when the clean model fails validation —
    /// including [`SwapError::NoPinnedSet`] for a server wired up without
    /// pinned probes, which would make every later wave's validation
    /// vacuous.
    pub fn new(
        mut server: Server,
        model: CeModel,
        exec: Executor<'a>,
        history: Vec<Query>,
        traffic: ServedTraffic,
    ) -> Result<Self, SwapError> {
        server.try_swap(INITIAL_VERSION, model.clone())?;
        let encoder = model.encoder().clone();
        Ok(Self {
            server: RefCell::new(server),
            exec,
            encoder,
            history,
            injected: Vec::new(),
            candidate: model.clone(),
            active: model,
            traffic,
            wave: 0,
            next_probe_id: Cell::new(PROBE_ID_BASE),
            log: RefCell::new(Vec::new()),
            swaps: Vec::new(),
        })
    }

    /// Every wave's swap attempt and verdict, in wave order.
    pub fn wave_swaps(&self) -> &[WaveSwap] {
        &self.swaps
    }

    /// All reply records this campaign produced — attacker probes and
    /// background wave traffic — in completion order. Session-local: a
    /// resumed campaign starts an empty log (the swap ledger, not the
    /// reply log, is the resume contract).
    pub fn replies(&self) -> Vec<ReplyRecord> {
        self.log.borrow().clone()
    }

    /// Lifetime counters of the underlying server (session-local, like
    /// [`replies`](ServedVictim::replies)).
    pub fn summary(&self) -> pace_serve::ServeSummary {
        self.server.borrow().summary().clone()
    }

    /// Version of the snapshot currently in service.
    pub fn active_version(&self) -> Option<u64> {
        self.server.borrow().snapshots().active_version()
    }

    /// Queries injected *and accepted* so far (evaluation side; rejected
    /// waves' queries never count — the serving model rolled them back).
    pub fn injected(&self) -> &[LabeledQuery] {
        &self.injected
    }

    /// The serving runtime's timing state (see
    /// [`Server::clock_state`]) — persisted at wave boundaries so a
    /// resumed campaign re-enters the same virtual instant.
    pub(crate) fn clock_state(&self) -> [f64; 4] {
        let (now, busy, tokens, refill) = self.server.borrow().clock_state();
        [now, busy, tokens, refill]
    }

    /// Restores a resumed campaign to its last persisted wave boundary:
    /// model parameters into both the candidate and the active mirror, a
    /// break-glass install of the already-validated snapshot (visible as
    /// `SERVE_FORCE_INSTALLS`, never as a validated swap), the swap
    /// control's ban/breaker state, the virtual clock, and the ledgers.
    /// `accepted` holds the queries of accepted waves only — rejected
    /// waves never reached the serving model, so they are not replayed.
    pub(crate) fn restore_resume_state(
        &mut self,
        params: &[u8],
        accepted: &[Query],
        swaps: Vec<WaveSwap>,
        clock: [f64; 4],
    ) -> io::Result<()> {
        serialize::read_params(self.candidate.params_mut(), &mut io::Cursor::new(params))?;
        self.active = self.candidate.clone();
        let version = swaps
            .iter()
            .filter(|s| s.result.is_ok())
            .map(|s| s.version)
            .max()
            .unwrap_or(INITIAL_VERSION);
        // Validation failures ban their version and count toward the
        // consecutive-failure breaker; breaker/ban rejections do neither.
        let banned: Vec<u64> = swaps
            .iter()
            .filter(|s| {
                matches!(
                    s.result,
                    Err(SwapError::NonFiniteParams | SwapError::QualityRegression { .. })
                )
            })
            .map(|s| s.version)
            .collect();
        let mut consecutive = 0u32;
        for s in swaps.iter().rev() {
            match &s.result {
                Ok(()) => break,
                Err(SwapError::NonFiniteParams | SwapError::QualityRegression { .. }) => {
                    consecutive += 1;
                }
                Err(_) => {}
            }
        }
        let server = self.server.get_mut();
        server.force_install(version, self.active.clone());
        server.snapshots().restore_ctl(&banned, consecutive);
        server.restore_clock(clock[0], clock[1], clock[2], clock[3]);
        self.wave = swaps.len() as u64;
        self.injected = accepted
            .iter()
            .map(|q| LabeledQuery {
                query: q.clone(),
                cardinality: self.exec.count(q).max(1),
            })
            .collect();
        self.swaps = swaps;
        Ok(())
    }
}

impl BlackBox for ServedVictim<'_> {
    fn explain(&self, q: &Query) -> Result<f64, ProbeError> {
        if injected_failure("explain")?.is_some() {
            return Ok(f64::NAN); // corrupted response, caught by validation
        }
        let id = self.next_probe_id.get();
        self.next_probe_id.set(id + 1);
        let mut server = self.server.borrow_mut();
        let arrival = server.now();
        let records = server.run(
            vec![Request {
                id,
                arrival,
                deadline: arrival + self.traffic.probe_deadline,
                query: q.clone().into(),
            }],
            Vec::new(),
        );
        drop(server);
        let record = records.into_iter().next().ok_or(ProbeError::Unavailable)?;
        let outcome = record.outcome.clone();
        self.log.borrow_mut().push(record);
        match outcome {
            Ok(reply) => Ok(reply.estimate),
            Err(ServeError::DeadlineExceeded { .. }) => Err(ProbeError::Timeout {
                seconds: self.traffic.probe_deadline,
            }),
            Err(ServeError::Shed { .. } | ServeError::Unhealthy) => Err(ProbeError::Unavailable),
            Err(ServeError::Malformed) => Err(ProbeError::Corrupted {
                what: "probe rejected at admission as malformed",
            }),
        }
    }

    fn count(&self, q: &Query) -> Result<u64, ProbeError> {
        if injected_failure("count")?.is_some() {
            return Ok(u64::MAX); // corrupted response, caught by validation
        }
        Ok(self.exec.count(q))
    }

    /// One call is one poison wave: the queries retrain the *candidate*
    /// model, which is then submitted as a versioned hot-swap halfway
    /// through a window of seeded background traffic. An accepted swap
    /// promotes the candidate; a rejected one rolls the candidate back to
    /// the active model — either verdict is a successful probe (`Ok`),
    /// because rejection is the defense outcome the campaign measures,
    /// not an oracle failure.
    fn run_queries(&mut self, queries: &[Query]) -> Result<(), ProbeError> {
        if queries.is_empty() {
            return Ok(());
        }
        // Fault points fire before any mutation so a retry is safe.
        if injected_failure("run-queries")?.is_some() {
            return Err(ProbeError::Corrupted {
                what: "batch submission rejected",
            });
        }
        let labeled: Workload = queries
            .iter()
            .map(|q| LabeledQuery {
                query: q.clone(),
                cardinality: self.exec.count(q).max(1),
            })
            .collect();
        let data = EncodedWorkload::from_workload(&self.encoder, &labeled);
        self.candidate.update(&data).map_err(ProbeError::Update)?;

        let wave = self.wave;
        let version = FIRST_WAVE_VERSION + wave;
        let server = self.server.get_mut();
        let t0 = server.now();
        let phases = [Phase {
            name: "wave-traffic",
            duration: self.traffic.window,
            rate: self.traffic.rate,
        }];
        let mut requests = pace_serve::generate(
            &phases,
            &self.traffic.pool,
            self.traffic.seed ^ wave.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            self.traffic.deadline,
            WAVE_ID_STRIDE * (wave + 1),
        );
        // The generator emits arrivals relative to t = 0; shift the wave's
        // window to start at the server's current virtual instant.
        for r in &mut requests {
            r.arrival += t0;
            r.deadline += t0;
        }
        let swap = SwapEvent {
            at: t0 + self.traffic.window * 0.5,
            version,
            model: self.candidate.clone(),
        };
        let mark = server.swap_log().len();
        let records = server.run(requests, vec![swap]);
        let outcome = server.swap_log()[mark..]
            .iter()
            .find(|o| o.version == version)
            .cloned();
        self.log.get_mut().extend(records);
        self.wave += 1;
        let Some(outcome) = outcome else {
            // Unreachable in practice — `run` drains every scheduled swap
            // event — but a missing verdict must surface as a typed
            // failure, not a panic on the probe path.
            return Err(ProbeError::Unavailable);
        };
        match &outcome.result {
            Ok(()) => {
                self.active = self.candidate.clone();
                self.injected.extend(labeled);
                trace::SERVE_POISON_WAVES_ACCEPTED.add(1);
            }
            Err(_) => {
                self.candidate = self.active.clone();
                trace::SERVE_POISON_WAVES_REJECTED.add(1);
            }
        }
        self.swaps.push(WaveSwap {
            wave,
            version,
            at: outcome.at,
            result: outcome.result,
        });
        Ok(())
    }

    fn historical_sample(&self) -> &[Query] {
        &self.history
    }
}

impl AttackTarget for ServedVictim<'_> {
    fn q_errors(&self, test: &Workload) -> Vec<f64> {
        let data = EncodedWorkload::from_workload(&self.encoder, test);
        self.active.evaluate(&data)
    }

    fn effective_model(&self) -> &CeModel {
        &self.active
    }
}
