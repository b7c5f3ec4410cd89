//! `pace-tensor` — a minimal, dependency-light autograd engine.
//!
//! This crate is the deep-learning substrate of the PACE reproduction. It
//! provides:
//!
//! * [`Matrix`] — a dense row-major `f32` matrix;
//! * [`Graph`]/[`Var`] — an eager, append-only autograd tape whose backward
//!   pass *builds graph nodes*, so gradients are differentiable again
//!   (double backward). This property is load-bearing: PACE's bivariate
//!   optimization (paper Eq. 10) needs hypergradients through `K` unrolled
//!   SGD updates of a surrogate cardinality-estimation model;
//! * [`nn`] — dense/MLP/RNN/LSTM building blocks whose forward passes read
//!   parameters through a [`Binding`], allowing evaluation at parameters
//!   that only exist inside a graph;
//! * [`optim`] — SGD and Adam, plus gradient clipping;
//! * [`check`] — finite-difference gradient checkers used by test suites;
//! * [`flags`] — the shared `0/1/strict` environment-flag grammar;
//! * [`fault`] — deterministic, seeded fault injection (`PACE_FAULTS`) for
//!   chaos-testing the campaign runtime's recovery paths;
//! * [`pool`] — the deterministic parallel runtime (`PACE_THREADS`,
//!   re-exported from `pace-runtime`): fixed size-derived chunk grids and
//!   ordered reductions make coarse-grain fan-outs (batch labeling, seeds,
//!   bench grid cells) bit-identical to sequential execution at any thread
//!   count. The matrix kernels never fan out. The pool's
//!   concurrency-safety auditor rides along: `PACE_RACE` verifies every
//!   fan-out's write set (pairwise-disjoint, exact cover), and `PACE_SCHED`
//!   fuzzes chunk-pull order with an adversarial seeded scheduler;
//! * [`trace`] — the structured tracing and metrics layer (`PACE_TRACE`,
//!   re-exported from `pace-trace`): scoped spans and lock-free
//!   counters/histograms, emitted as JSONL and guaranteed not to perturb
//!   results.
//!
//! The eager [`Graph`] is the only executor: every value, and every gradient
//! that is differentiated again, is computed as its node is appended. A
//! gradient that is only read comes from [`Graph::grad_values`], which walks
//! the same tape, returns the same bits as matrices and appends nothing.
//!
//! # Example
//!
//! ```
//! use pace_tensor::{Graph, Matrix};
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Matrix::row(&[2.0]));
//! let y = g.mul(x, x);            // y = x²
//! let y = g.sum_all(y);
//! // First order, as values: nothing is appended to the tape.
//! let len = g.len();
//! assert_eq!(g.grad_values(y, &[x])[0].data(), &[4.0]);
//! assert_eq!(g.len(), len);
//! let dy = g.grad(y, &[x])[0];    // dy/dx = 2x = 4
//! assert_eq!(g.value(dy).data(), &[4.0]);
//! // Double backward: d²y/dx² = 2
//! let dy_sum = g.sum_all(dy);
//! let d2y = g.grad(dy_sum, &[x])[0];
//! assert_eq!(g.value(d2y).data(), &[2.0]);
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod fault;
pub mod flags;
mod grad;
mod graph;
pub mod init;
mod matrix;
pub mod nn;
pub mod optim;
mod param;
pub mod serialize;

pub use graph::{Graph, Var};
pub use matrix::Matrix;
pub use pace_runtime as pool;
pub use pace_trace as trace;
pub use param::{Binding, ParamId, ParamStore};
