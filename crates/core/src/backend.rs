//! Kernel selection: the paper's two executor kernel types.
//!
//! The *formulation* (a [`crate::problem::DpProblem`]: update `f`, Σ_G,
//! filters) is split from the *kernel* that executes one block. The
//! paper has exactly two kernels — the loop-based baseline and the
//! parallel r-way recursive R-DP kernel on an OpenMP-style pool — so
//! the choice is the closed [`Backend`] enum, and a [`KernelSpec`] is
//! that choice plus its [`KernelParams`]. Both are `Copy`: a solve's
//! plan holds the config's spec, and every task copies it.
//!
//! Virtual (cost-accounting) runs need no kernel of their own: a kernel
//! on a `Block::Virtual` is priced as [`KernelSpec::kernel_type`] and
//! not run. The sparse-APSP relaxation sweep is not a backend: it has
//! one implementation ([`gep_kernels::sparse::sweep_gep`]), so
//! [`crate::kernels::apply_sweep`] calls it directly.

use std::convert::Infallible;
use std::marker::PhantomData;

use cluster_model::KernelType;
use gep_kernels::gep::Kind;
use gep_kernels::iterative::block_kernel;
use gep_kernels::recursive::{rec_kernel, RecConfig};
use gep_kernels::{TileMut, TileRef};

use crate::kernels::omp_pool;
use crate::problem::DpProblem;

/// Numeric kernel parameters. `iterative` ignores all three;
/// `recursive` reads the full set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelParams {
    /// Recursive fan-out inside the executor kernel (`r_shared`).
    pub r_shared: usize,
    /// Base-case tile side of the recursion.
    pub base: usize,
    /// OpenMP-style thread-team size (`OMP_NUM_THREADS`).
    pub threads: usize,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            r_shared: 2,
            base: 64,
            threads: 1,
        }
    }
}

/// Which kernel runs executor tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The loop-based block kernels (the paper's Numba-baseline
    /// analogue).
    Iterative,
    /// The parallel `r_shared`-way recursive divide-&-conquer kernels
    /// (Fig. 4) on the shared pool of `threads` workers.
    Recursive,
}

impl Backend {
    /// Execute one block kernel at `params`. Operands arrive in the
    /// solver's raw convention: `u`/`v` are the column/row panels (kind
    /// D only), `w` is the diagonal block (kinds B, C, D); `None` means
    /// the operand aliases `x`. Deterministic: same inputs, bit-identical
    /// outputs, with no dependence on wall time or ambient randomness.
    pub fn run<S: DpProblem>(
        self,
        kind: Kind,
        params: &KernelParams,
        x: &mut TileMut<'_, S::Elem>,
        u: Option<TileRef<'_, S::Elem>>,
        v: Option<TileRef<'_, S::Elem>>,
        w: Option<TileRef<'_, S::Elem>>,
    ) {
        if self == Backend::Recursive {
            let cfg = RecConfig::new(params.r_shared, params.base);
            // D's k span (A, B and C split on their own sides).
            let nk = u.map_or(0, |u| u.cols());
            if cfg.splits(kind, x.rows(), x.cols(), nk) {
                let pool = omp_pool(params.threads);
                rec_kernel::<S>(&pool, &cfg, kind, x.reborrow(), u, v, w);
                return;
            }
            // A tile the recursion would not split is one base case: it
            // runs below, with no pool lookup (a lock on the pool map).
        }
        // Resolve the solver's raw operands into the iterative kernel's
        // per-kind aliasing pattern.
        let (ku, kv, kw) = match kind {
            Kind::A => (None, None, None),
            Kind::B => (w, None, w),
            Kind::C => (None, w, w),
            Kind::D => (u, v, w),
        };
        block_kernel::<S>(kind, x, ku, kv, kw);
    }
}

/// Config-surface kernel selector: which kernel runs executor tasks,
/// in what parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// The kernel.
    pub backend: Backend,
    /// Its numeric parameters.
    pub params: KernelParams,
}

impl KernelSpec {
    /// The loop-based baseline kernel.
    pub fn iterative() -> Self {
        KernelSpec {
            backend: Backend::Iterative,
            params: KernelParams::default(),
        }
    }

    /// The parallel `r_shared`-way recursive kernel.
    pub fn recursive(r_shared: usize, base: usize, threads: usize) -> Self {
        KernelSpec {
            backend: Backend::Recursive,
            params: KernelParams {
                r_shared,
                base,
                threads,
            },
        }
    }

    /// Both kernels at `params`, iterative first: the candidate list of
    /// a probe over every kernel.
    pub fn both(params: KernelParams) -> [KernelSpec; 2] {
        [Backend::Iterative, Backend::Recursive].map(|backend| KernelSpec { backend, params })
    }

    /// The cost-model descriptor one invocation prices as.
    pub fn kernel_type(&self) -> KernelType {
        match self.backend {
            Backend::Iterative => KernelType::Iterative,
            Backend::Recursive => KernelType::Recursive {
                r_shared: self.params.r_shared,
                threads: self.params.threads,
            },
        }
    }

    /// Short label fragment for [`crate::DpConfig::label`].
    pub fn label(&self) -> String {
        match self.backend {
            Backend::Iterative => "iter".to_string(),
            Backend::Recursive => format!("rec{}x{}t", self.params.r_shared, self.params.threads),
        }
    }
}

/// Typed configuration error — what `DpConfig::validate` reports
/// instead of deep-in-kernel panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `r_shared < 2`: a recursion that never divides.
    DegenerateFanout {
        /// The rejected fan-out.
        r_shared: usize,
    },
    /// `r_shared` exceeds the block side, so the recursion could never
    /// split even once.
    FanoutExceedsBlock {
        /// The rejected fan-out.
        r_shared: usize,
        /// The configured block side.
        block: usize,
    },
    /// A parameter that must be ≥ 1 was 0 (names the parameter).
    ZeroParam(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Prefix kept stable: callers pin on "r_shared must be".
            ConfigError::DegenerateFanout { r_shared } => {
                write!(f, "r_shared must be ≥ 2 (got {r_shared})")
            }
            ConfigError::FanoutExceedsBlock { r_shared, block } => {
                write!(
                    f,
                    "r_shared {r_shared} exceeds the block side {block}: the \
                     recursion could never split"
                )
            }
            ConfigError::ZeroParam(name) => write!(f, "{name} must be ≥ 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Compatibility shim for the one caller of the old backend registry,
/// the benchmark's kernel replay (`crates/perf/src/sut.rs`), which runs
/// its tiles through `registry::<S>().resolve(&spec)?.run(..)`. ROADMAP
/// item 1 step (h) moves that call onto [`Backend::run`] and deletes
/// this, [`Registry`] and [`Resolved`].
pub fn registry<S: DpProblem>() -> Registry<S> {
    Registry(PhantomData)
}

/// See [`registry`].
pub struct Registry<S>(PhantomData<S>);

/// See [`registry`]: a spec's backend bound to the problem type `S`.
pub struct Resolved<S>(Backend, PhantomData<S>);

impl<S: DpProblem> Registry<S> {
    /// The spec's backend. Never fails: both kernels are built in.
    pub fn resolve(&self, spec: &KernelSpec) -> Result<Resolved<S>, Infallible> {
        Ok(Resolved(spec.backend, PhantomData))
    }
}

impl<S: DpProblem> Resolved<S> {
    /// [`Backend::run`] for `S`.
    pub fn run(
        &self,
        kind: Kind,
        params: &KernelParams,
        x: &mut TileMut<'_, S::Elem>,
        u: Option<TileRef<'_, S::Elem>>,
        v: Option<TileRef<'_, S::Elem>>,
        w: Option<TileRef<'_, S::Elem>>,
    ) {
        self.0.run::<S>(kind, params, x, u, v, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_labels_and_constructors() {
        assert_eq!(KernelSpec::iterative().label(), "iter");
        assert_eq!(KernelSpec::recursive(4, 64, 8).label(), "rec4x8t");
        let params = KernelSpec::recursive(4, 16, 2).params;
        let [iterative, recursive] = KernelSpec::both(params);
        assert_eq!(
            (iterative.backend, iterative.params),
            (Backend::Iterative, params)
        );
        assert_eq!(recursive, KernelSpec::recursive(4, 16, 2));
    }

    #[test]
    fn specs_price_as_their_kernel() {
        assert_eq!(KernelSpec::iterative().kernel_type(), KernelType::Iterative);
        assert_eq!(
            KernelSpec::recursive(2, 4, 3).kernel_type(),
            KernelType::Recursive {
                r_shared: 2,
                threads: 3
            }
        );
    }
}
