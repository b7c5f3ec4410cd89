//! `pace-perfbench` — the repository benchmark.
//!
//! Each run drives one seeded workload through the public entry points of
//! the PACE crates (`pace_core::run_campaign`, `pace_serve::Server::run`)
//! from one process, checks every output against the values recorded for
//! the seed, and prints one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports per-layer metrics read from the
//! benchmark's own spans around each crate's public calls and from the
//! spans and counters `pace-trace` already emits. See `perfbench/README.md`.

pub mod check;
pub mod digest;
pub mod env;
pub mod layers;
pub mod names;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod target;
pub mod workload;
