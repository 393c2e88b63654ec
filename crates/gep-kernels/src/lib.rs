//! `gep-kernels` — the algorithmic substrate of the reproduction.
//!
//! This crate implements the **Gaussian Elimination Paradigm (GEP)** of
//! Chowdhury & Ramachandran as used by the paper *Efficient Execution of
//! Dynamic Programming Algorithms on Apache Spark* (CLUSTER 2020):
//! a DP table `c[0..n, 0..n]` updated by
//!
//! ```text
//! for k, i, j:  if (i,j,k) ∈ Σ_G:  c[i,j] = f(c[i,j], c[i,k], c[k,j], c[k,k])
//! ```
//!
//! with three concrete instances:
//!
//! * **FW-APSP** — Floyd–Warshall all-pairs shortest paths over the
//!   tropical semiring `(ℝ, min, +)`;
//! * **GE** — Gaussian elimination without pivoting over `ℝ`
//!   (`Σ_G = {i>k, j>k}`);
//! * **TC** — Warshall transitive closure over the boolean semiring.
//!
//! On top of the specification it provides:
//!
//! * [`iterative`] — the loop-based kernels of Figs. 2 and 5, both as
//!   whole-matrix references (the correctness oracles for everything
//!   else) and as block kernels with the A/B/C/D aliasing variants used
//!   by blocked and distributed executions. Kind D is one
//!   register-blocked loop for every spec (k innermost, bitwise
//!   identical to the generic loop, tested); a hot instance
//!   specialises only the aliasing kinds A/B/C, through the one hook
//!   [`GepSpec::fast_block_kernel`]. The block kernel is compiled
//!   twice, portable and AVX2, and picks the copy the CPU can run;
//!   both return the same bits;
//! * [`recursive`] — the **parametric r-way recursive divide-&-conquer
//!   (r-way R-DP)** kernels of Fig. 4, parallelised on `par-pool`
//!   (the stand-in for the paper's OpenMP offload), with tunable fan-out
//!   `r_shared` and base-case size;
//! * [`staging`] — the Section IV-A *inline and optimize* machinery:
//!   dependency rules over W/R sets and earliest-stage assignment
//!   (reproducing the Fig. 3 refinement and Fig. 7 dependency structure);
//! * [`tilegrid`] — safe disjoint splitting of a mutable matrix into a
//!   grid of tile views, plus the per-phase partition (diagonal / row
//!   panel / column panel / trailing) every GEP algorithm needs;
//! * [`graph`] — synthetic directed graph generators (dense and CSR)
//!   and Dijkstra/Bellman–Ford oracles for validating APSP results;
//! * [`sparse`] — the CSR tile representation and the relaxation-sweep
//!   kernel behind the partitioned multi-source SSSP path for sparse
//!   APSP (Schoeneman & Zola).
//!
//! A note on exactness. For **GE** each `(i,j,k)` update reads operands
//! whose values are independent of the execution order (they are fixed
//! by earlier phases only), so blocked, recursive, and distributed
//! executions are **bitwise identical** to the naive triple loop.
//! For **FW-APSP/TC** the final table is the unique fixed point
//! (shortest distances / reachability), and under *exact arithmetic* —
//! integer-valued weights in `f64`, or booleans — all execution orders
//! again agree bitwise; with arbitrary float weights the distances agree
//! up to FP association order. The test suite asserts bitwise equality
//! on exact inputs and Dijkstra-tolerance checks on float inputs.

#![warn(missing_docs)]

pub mod alignment;
pub mod gep;
pub mod graph;
pub mod iterative;
pub mod linalg;
pub mod matrix;
pub mod padding;
pub mod parenthesis;
pub mod recursive;
pub mod semiring;
pub mod sparse;
pub mod staging;
pub mod tilegrid;

pub use gep::{GaussianElim, GepSpec, Kind, TransitiveClosure, Tropical};
pub use matrix::{Matrix, TileMut, TileRef};
pub use recursive::RecConfig;
pub use sparse::{Csr, CsrError};
