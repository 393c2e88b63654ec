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
//! | [`Strategy::InMemory`] | [`Backend::Iterative`] | IM, iterative |
//! | [`Strategy::InMemory`] | [`Backend::Recursive`] | IM, r-way R-DP |
//! | [`Strategy::CollectBroadcast`] | [`Backend::Iterative`] | CB, iterative |
//! | [`Strategy::CollectBroadcast`] | [`Backend::Recursive`] | CB, r-way R-DP |
//!
//! The kernel column is a closed enum, exactly the table's two; a
//! [`KernelSpec`] is that choice plus its shape params.
//!
//! Both strategies run one iteration (the crate-private `iteration`
//! module): kernel A, then B/C, then D, over the same `FilterA/B/C/D`,
//! closed by a union with the untouched blocks whose repartition elides.
//! They differ only in how a wave's updated blocks reach their readers.
//! **IM** (Listing 1) flat-maps copies of them to their readers and
//! `cogroup`s the copies onto the next wave's blocks, which stay in
//! place (the narrow side): two shuffles an iteration. **CB** (Listing
//! 2) collects them to the driver and redistributes them via
//! shared-storage broadcast: no shuffle at all.
//!
//! Kernels run inside executor tasks either iteratively (the baseline)
//! or as parallel `r_shared`-way recursive divide-&-conquer on an
//! OpenMP-style pool whose size plays `OMP_NUM_THREADS`.
//!
//! Executions are **real** (real blocks, real kernels, validated
//! bitwise against the sequential reference) or **virtual**
//! ([`solve_virtual`]: the same dataflow over `Block::Virtual` tiles,
//! whose kernels are recorded for pricing and not run, with declared
//! byte volumes). Paper-scale timing is [`record_virtual`] — one seeded
//! virtual run on a context shaped like the cluster — then [`price`] of
//! its records under each kernel and `executor-cores` through
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
pub mod config;
pub mod filters;
mod iteration;
pub mod jobs;
pub mod kernels;
pub mod linsys;
pub mod problem;
pub mod solver;
pub mod sssp;
pub mod tuner;

pub use adaptive::{adaptive_solve, AdaptiveOutcome};
pub use backend::{registry, Backend, ConfigError, KernelParams, KernelSpec};
pub use beyond::{solve_alignment, solve_parenthesis};
pub use block::{Block, ElemCodec};
pub use config::{DpConfig, Strategy};
pub use jobs::{decode_matrix_f64, decode_matrix_i64, decode_vec_f64, DpJobRequest, DpJobRunner};
pub use linsys::solve_linear_system;
pub use problem::DpProblem;
pub use solver::{price, record_virtual, solve, solve_virtual};
pub use sparklet::RunSummary;
pub use sssp::{solve_sparse_apsp, SweepVal};
pub use tuner::{tune, TuneResult};
