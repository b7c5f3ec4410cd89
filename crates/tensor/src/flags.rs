//! The tensor crate's switches, sharing the workspace's `PACE_*` env-flag
//! grammar.
//!
//! The parsing machinery ([`EnvFlag`], [`EnvSpec`], [`FlagMode`]) lives in
//! [`pace_runtime::flags`] — the bottom of the crate stack, so the pool's
//! own switches (`PACE_RACE`, `PACE_SCHED`; see `pace_runtime::race`) can
//! use it too — and is re-exported here unchanged. The grammar, shared by
//! every on/off switch:
//!
//! * `0` (or unset, or anything unrecognized) — off;
//! * `1` / `true` / `on` — enabled;
//! * `strict` — enabled, and a switch whose findings can be fatal (the
//!   pool's `PACE_RACE`) panics at its choke point instead of reporting.
//!
//! Each env variable is read once, on first query; tests and embedders can
//! override at any time with [`EnvFlag::set`] / [`EnvSpec::set`].

pub use pace_runtime::flags::{EnvFlag, EnvSpec, FlagMode};

/// The snapshot finiteness gate (`PACE_FINITE`); when enabled,
/// [`crate::serialize`] readers reject payloads containing NaN/Inf values
/// instead of loading them into a model.
pub static FINITE: EnvFlag = EnvFlag::new("PACE_FINITE");

/// The fault-injection spec (`PACE_FAULTS`); see [`crate::fault`].
pub static FAULTS: EnvSpec = EnvSpec::new("PACE_FAULTS");
