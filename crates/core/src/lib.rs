//! `dp-core` — the paper's primary contribution: efficient execution of
//! GEP-class dynamic programming algorithms on a Spark-like engine.
//!
//! For a problem in GEP form ([`gep_kernels::GepSpec`], extended here by
//! [`DpProblem`]) and an `n×n` table decomposed into a `g×g` grid of
//! `b×b` blocks, this crate provides the paper's four implementation
//! variants:
//!
//! | strategy | kernel backend | paper name |
//! |---|---|---|
//! | [`Strategy::InMemory`] | `iterative` | IM, iterative |
//! | [`Strategy::InMemory`] | `recursive` | IM, r-way R-DP |
//! | [`Strategy::CollectBroadcast`] | `iterative` | CB, iterative |
//! | [`Strategy::CollectBroadcast`] | `recursive` | CB, r-way R-DP |
//!
//! The kernel column is a [`backend::BackendRegistry`] of named
//! [`backend::KernelBackend`]s — exactly the table's two, plus whatever
//! a user registers. A [`KernelSpec`] names the backend, an optional
//! fallback chain, and the shape params; a solve resolves it once, on
//! the driver, and `DP_KERNEL_BACKEND` (read where the plan is built)
//! rebinds its primary backend for dense solves.
//!
//! **IM** (Listing 1) keeps everything in RDDs: each iteration runs the
//! A kernel, flat-maps copies of updated blocks to their consumers,
//! `combineByKey`s them together (wide shuffles), and repartitions.
//! **CB** (Listing 2) avoids wide dependencies inside an iteration by
//! collecting updated blocks to the driver and redistributing them via
//! shared-storage broadcast.
//!
//! Kernels run inside executor tasks either iteratively (the baseline)
//! or as parallel `r_shared`-way recursive divide-&-conquer on an
//! OpenMP-style pool whose size plays `OMP_NUM_THREADS`.
//!
//! Executions are **real** (real blocks, real kernels, validated
//! bitwise against the sequential reference) or **virtual**
//! ([`solve_virtual`] / [`simulate_seconds`]: the same dataflow over
//! `Block::Virtual` tiles, whose kernels are recorded for pricing and
//! not run, with declared byte volumes) for paper-scale timing through
//! `cluster-model`.
//!
//! Every run entry point — [`solve`], [`solve_sparse_apsp`],
//! [`solve_alignment`], [`solve_parenthesis`], [`solve_linear_system`],
//! [`adaptive_solve`] — returns its result only. What the run did is
//! `sc.summary()` afterwards (a [`RunSummary`], one fold over the
//! context's event log that covers every cumulative engine counter),
//! and a run under injected faults is the same
//! call inside `let _chaos = sc.install_chaos(policy);`.

#![warn(missing_docs)]

pub mod adaptive;
mod aqe;
pub mod backend;
pub mod beyond;
pub mod block;
pub mod cb;
pub mod config;
pub mod filters;
pub mod im;
pub mod jobs;
pub mod kernels;
pub mod linsys;
pub mod problem;
pub mod solver;
pub mod sssp;
pub mod tuner;

pub use adaptive::{adaptive_solve, AdaptiveOutcome};
pub use backend::{
    register_backend, registry, BackendRegistry, ConfigError, KernelBackend, KernelParams,
    KernelSpec,
};
pub use beyond::{solve_alignment, solve_parenthesis};
pub use block::{Block, ElemCodec};
pub use config::{DpConfig, Strategy};
pub use jobs::{decode_matrix_f64, decode_matrix_i64, decode_vec_f64, DpJobRequest, DpJobRunner};
pub use linsys::solve_linear_system;
pub use problem::DpProblem;
pub use solver::{simulate_seconds, solve, solve_virtual};
pub use sparklet::RunSummary;
pub use sssp::{solve_sparse_apsp, SweepVal};
pub use tuner::{tune, TuneResult};
