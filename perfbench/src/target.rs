//! A timing wrapper around the victim, so the attacker-visible oracle calls
//! (COUNT, EXPLAIN, query injection) are timed from outside the program.

use pace_ce::CeModel;
use pace_core::resilience::ProbeError;
use pace_core::{AttackTarget, BlackBox, Victim};
use pace_trace::span;
use pace_workload::{Query, Workload};

/// [`Victim`] behind the benchmark's own spans:
/// `perfbench::engine.count` (COUNT answered by `pace-engine`),
/// `perfbench::ce.explain` (EXPLAIN answered by the `pace-ce` model) and
/// `perfbench::victim.run_queries` (labeling plus the model update).
pub struct TimedTarget<'a> {
    inner: Victim<'a>,
}

impl<'a> TimedTarget<'a> {
    /// Wraps a victim.
    pub fn new(inner: Victim<'a>) -> Self {
        Self { inner }
    }

    /// The wrapped victim.
    pub fn victim(&self) -> &Victim<'a> {
        &self.inner
    }
}

impl BlackBox for TimedTarget<'_> {
    fn explain(&self, q: &Query) -> Result<f64, ProbeError> {
        let _s = span("perfbench::ce.explain");
        self.inner.explain(q)
    }

    fn count(&self, q: &Query) -> Result<u64, ProbeError> {
        let _s = span("perfbench::engine.count");
        self.inner.count(q)
    }

    fn run_queries(&mut self, queries: &[Query]) -> Result<(), ProbeError> {
        let _s = span("perfbench::victim.run_queries");
        self.inner.run_queries(queries)
    }

    fn historical_sample(&self) -> &[Query] {
        self.inner.historical_sample()
    }
}

impl AttackTarget for TimedTarget<'_> {
    fn q_errors(&self, test: &Workload) -> Vec<f64> {
        self.inner.q_errors(test)
    }

    fn effective_model(&self) -> &CeModel {
        self.inner.model()
    }
}
