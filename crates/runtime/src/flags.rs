//! The shared environment-flag grammar for every `PACE_*` runtime switch.
//!
//! The workspace's on/off switches — the snapshot finiteness gate
//! (`PACE_FINITE`) and the pool's shadow write-set checker (`PACE_RACE`,
//! [`crate::race`]) — parse one grammar:
//!
//! * `0` (or unset, or anything unrecognized) — off;
//! * `1` / `true` / `on` — enabled: findings are *reported* (an
//!   overlapping write set prints to stderr, execution continues);
//! * `strict` — enabled, and findings are *fatal*: the check panics at its
//!   choke point, so CI and experiment runs cannot silently proceed on a
//!   racy region.
//!
//! [`EnvSpec`] is the string-valued companion for switches that carry a
//! *spec* rather than a mode: the `PACE_FAULTS` fault matrix and the
//! `PACE_SCHED` adversarial-scheduler seed ([`crate::race`]).
//!
//! Every variable is read once, on first query; tests and embedders can
//! override at any time with [`EnvFlag::set`] / [`EnvSpec::set`]. The types
//! live in `pace-runtime` (the bottom of the crate stack, below the tensor
//! engine) so the pool's own switches can use them; `pace_tensor::flags`
//! re-exports them unchanged.

use std::sync::atomic::{AtomicU8, Ordering};

/// The three states a `PACE_*` instrumentation flag can be in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlagMode {
    /// Instrumentation disabled (the default).
    Off,
    /// Instrumentation enabled; findings are reported on stderr.
    On,
    /// Instrumentation enabled; findings panic at the choke point.
    Strict,
}

const UNREAD: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;
const STRICT: u8 = 3;

/// A lazily-read, process-global on/off/strict switch backed by an
/// environment variable.
pub struct EnvFlag {
    name: &'static str,
    state: AtomicU8,
}

impl EnvFlag {
    /// Declares a flag backed by the environment variable `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            state: AtomicU8::new(UNREAD),
        }
    }

    /// The environment variable this flag reads.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Parses the shared `0/1/strict` grammar (see the module docs).
    pub fn parse(raw: &str) -> FlagMode {
        match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" => FlagMode::On,
            "strict" => FlagMode::Strict,
            _ => FlagMode::Off,
        }
    }

    /// Current mode, reading the environment variable on first use. After
    /// that first resolution this is one relaxed atomic load — cheap enough
    /// to query at the top of every parallel region.
    #[inline]
    pub fn mode(&self) -> FlagMode {
        match self.state.load(Ordering::Relaxed) {
            UNREAD => {
                let mode = std::env::var(self.name)
                    .map(|v| Self::parse(&v))
                    .unwrap_or(FlagMode::Off);
                self.state.store(encode(mode), Ordering::Relaxed);
                mode
            }
            OFF => FlagMode::Off,
            ON => FlagMode::On,
            _ => FlagMode::Strict,
        }
    }

    /// Forces the flag for this process, overriding the environment.
    pub fn set(&self, mode: FlagMode) {
        self.state.store(encode(mode), Ordering::Relaxed);
    }

    /// True in [`FlagMode::On`] and [`FlagMode::Strict`].
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode() != FlagMode::Off
    }

    /// True only in [`FlagMode::Strict`].
    #[inline]
    pub fn strict(&self) -> bool {
        self.mode() == FlagMode::Strict
    }
}

fn encode(mode: FlagMode) -> u8 {
    match mode {
        FlagMode::Off => OFF,
        FlagMode::On => ON,
        FlagMode::Strict => STRICT,
    }
}

/// A lazily-read, process-global *string-valued* environment switch — the
/// free-form companion of [`EnvFlag`] for instrumentation that needs a spec
/// rather than an on/off/strict mode (the `PACE_FAULTS` fault matrix, the
/// `PACE_SCHED` scheduler seed). Shares the flag conventions: the variable
/// is read once on first query, unset/empty/`0` means "off", and tests or
/// embedders can override the value at any time with [`EnvSpec::set`].
pub struct EnvSpec {
    name: &'static str,
    state: std::sync::Mutex<Option<Option<String>>>,
}

impl EnvSpec {
    /// Declares a spec backed by the environment variable `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            state: std::sync::Mutex::new(None),
        }
    }

    /// The environment variable this spec reads.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current value, reading the environment variable on first use. Unset,
    /// empty, and `0` (the [`EnvFlag`] "off" spelling) all yield `None`.
    pub fn get(&self) -> Option<String> {
        let mut state = match self.state.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        if state.is_none() {
            let raw = std::env::var(self.name).ok();
            let normalized = raw.filter(|v| {
                let t = v.trim();
                !t.is_empty() && t != "0"
            });
            *state = Some(normalized);
        }
        state.as_ref().and_then(Clone::clone)
    }

    /// Forces the value for this process, overriding the environment.
    /// `None` turns the spec off.
    pub fn set(&self, value: Option<String>) {
        let mut state = match self.state.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        *state = Some(value.filter(|v| {
            let t = v.trim();
            !t.is_empty() && t != "0"
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_covers_on_off_strict() {
        assert_eq!(EnvFlag::parse("1"), FlagMode::On);
        assert_eq!(EnvFlag::parse("true"), FlagMode::On);
        assert_eq!(EnvFlag::parse("ON"), FlagMode::On);
        assert_eq!(EnvFlag::parse("strict"), FlagMode::Strict);
        assert_eq!(EnvFlag::parse("STRICT "), FlagMode::Strict);
        assert_eq!(EnvFlag::parse("0"), FlagMode::Off);
        assert_eq!(EnvFlag::parse(""), FlagMode::Off);
        assert_eq!(EnvFlag::parse("yes?"), FlagMode::Off);
    }

    #[test]
    fn set_overrides_and_sticks() {
        static F: EnvFlag = EnvFlag::new("PACE_TEST_FLAG_NEVER_SET");
        assert!(!F.enabled());
        F.set(FlagMode::Strict);
        assert!(F.enabled());
        assert!(F.strict());
        F.set(FlagMode::On);
        assert!(F.enabled());
        assert!(!F.strict());
        F.set(FlagMode::Off);
        assert!(!F.enabled());
    }

    #[test]
    fn spec_normalizes_off_spellings() {
        static S: EnvSpec = EnvSpec::new("PACE_TEST_SPEC_NEVER_SET");
        assert_eq!(S.get(), None);
        S.set(Some("17".to_string()));
        assert_eq!(S.get().as_deref(), Some("17"));
        S.set(Some("0".to_string()));
        assert_eq!(S.get(), None);
        S.set(Some("  ".to_string()));
        assert_eq!(S.get(), None);
        S.set(None);
        assert_eq!(S.get(), None);
    }
}
