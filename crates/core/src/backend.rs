//! Pluggable kernel backends: the formulation/backend split.
//!
//! The paper's kernels (iterative `A..D`, recursive r-way R-DP) were
//! historically a hard-coded enum branched inside `apply_kernel`;
//! every new compute path (Strassen-style kernels, sparse sweeps, a
//! GPU offload) had to edit the solve path, the adaptive prober, the
//! AQE planner, and the cost model in lockstep. This module splits the
//! *formulation* (a [`crate::problem::DpProblem`]: update `f`, Σ_G,
//! filters) from the *backend* (how one block kernel is executed) and
//! routes every dispatch through a [`BackendRegistry`]:
//!
//! * [`KernelBackend`] — capability descriptor + execution hook. A
//!   backend names itself, declares which GEP kinds it handles, maps
//!   itself onto a cost-model [`cluster_model::KernelType`], reports
//!   runtime availability, and runs (or cost-accounts) one kernel.
//! * [`BackendRegistry`] — named registration with **deterministic
//!   resolution**: entries keep their registration order, and a
//!   [`KernelSpec`]'s `backend` + fallback chain is walked in the
//!   caller-given order, skipping unregistered/unavailable entries.
//!   Resolution consults no ambient state (no time, no randomness), so
//!   seeded sim/chaos replays stay bit-identical with the registry in
//!   place.
//! * [`KernelSpec`] — the config-surface selector: a backend name,
//!   an ordered fallback chain, and the shared numeric parameters
//!   ([`KernelParams`]). (The pre-registry `KernelChoice` enum and its
//!   deprecation shim are gone; specs are the only selector.)
//!
//! Backends are also **representation-aware**: each declares which
//! [`TileRepr`]s it can execute (`supports_repr`, dense-only by
//! default), and [`BackendRegistry::resolve_for`] walks the spec's
//! chain *per representation*, so a sparse tile can never resolve to a
//! dense-only kernel and vice versa. Dense resolution
//! ([`BackendRegistry::resolve`]) is unchanged byte-for-byte.
//!
//! Built-in backends, registered in this fixed order: `iterative`,
//! `recursive`, `blocked` (cache-blocked micro-tiled), and `sweep`
//! (the CSR relaxation sweep behind the sparse-APSP path). Virtual
//! (cost-accounting) runs need no backend of their own: a kernel on a
//! `Block::Virtual` is priced as the resolved backend and not run.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Arc;

use gep_kernels::blocked::blocked_kernel;
use gep_kernels::gep::Kind;
use gep_kernels::iterative::block_kernel;
use gep_kernels::recursive::{rec_kernel, RecConfig};
use gep_kernels::sparse::{sweep_gep, Csr, TileRepr};
use gep_kernels::{Matrix, TileMut, TileRef};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::kernels::omp_pool;
use crate::problem::DpProblem;

/// Numeric kernel parameters shared by every backend. Backends read
/// what they understand (`iterative`/`blocked` ignore all three;
/// `recursive` reads the full set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Config-surface kernel selector: which backend runs executor kernels,
/// in what parameterization, and what to fall back to when the primary
/// is not registered or reports itself unavailable at runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Primary backend name (a [`BackendRegistry`] registration name).
    pub backend: String,
    /// Ordered fallback chain, tried after `backend` in the given
    /// order. Resolution is deterministic: first registered *and*
    /// available name wins.
    pub fallbacks: Vec<String>,
    /// Shared numeric parameters.
    pub params: KernelParams,
}

impl KernelSpec {
    /// The loop-based baseline backend.
    pub fn iterative() -> Self {
        KernelSpec::named(ITERATIVE)
    }

    /// The parallel `r_shared`-way recursive backend.
    pub fn recursive(r_shared: usize, base: usize, threads: usize) -> Self {
        KernelSpec {
            backend: RECURSIVE.to_string(),
            fallbacks: Vec::new(),
            params: KernelParams {
                r_shared,
                base,
                threads,
            },
        }
    }

    /// A backend by registry name, with default parameters.
    pub fn named(name: &str) -> Self {
        KernelSpec {
            backend: name.to_string(),
            fallbacks: Vec::new(),
            params: KernelParams::default(),
        }
    }

    /// Append a fallback backend name to the resolution chain.
    pub fn with_fallback(mut self, name: &str) -> Self {
        self.fallbacks.push(name.to_string());
        self
    }

    /// Replace the numeric parameters.
    pub fn with_params(mut self, params: KernelParams) -> Self {
        self.params = params;
        self
    }

    /// Short label fragment for [`crate::DpConfig::label`].
    pub fn label(&self) -> String {
        match self.backend.as_str() {
            ITERATIVE => "iter".to_string(),
            RECURSIVE => format!("rec{}x{}t", self.params.r_shared, self.params.threads),
            other => other.to_string(),
        }
    }
}

/// Typed configuration error — what `DpConfig::validate` and registry
/// resolution report instead of deep-in-kernel panics.
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
    /// The spec's backend chain contains no name that is registered
    /// and available.
    NoUsableBackend {
        /// The chain that was walked, primary first.
        requested: Vec<String>,
        /// Registry contents at resolution time, registration order.
        registered: Vec<String>,
    },
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
            ConfigError::NoUsableBackend {
                requested,
                registered,
            } => {
                write!(
                    f,
                    "no usable kernel backend in chain {requested:?}; registered: \
                     {registered:?}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// How a backend uses threads inside one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadModel {
    /// Single-threaded within the task.
    Serial,
    /// Joins an OpenMP-style shared pool of `params.threads` workers.
    PooledTeam,
}

/// One executor-side kernel implementation plus its capability
/// descriptor. Implementations must be deterministic: same inputs →
/// bit-identical outputs, with no dependence on wall time or ambient
/// randomness (the seeded sim/chaos replay contract).
pub trait KernelBackend<S: DpProblem>: Send + Sync {
    /// Registry name (also the `DpConfig::with_backend` selector).
    fn name(&self) -> &'static str;

    /// Does this backend implement the given GEP kind? Resolution does
    /// not consult this per-call (a backend serves whole solves); it
    /// is a capability declaration for tooling and tests.
    fn supports_kind(&self, _kind: Kind) -> bool {
        true
    }

    /// Does `params.r_shared` change this backend's execution (and
    /// pricing)? The AQE r-retune decision only fires for parametric
    /// backends.
    fn fanout_parametric(&self) -> bool {
        false
    }

    /// Runtime availability check (a GPU backend would probe its
    /// device here). Unavailable backends are skipped by resolution.
    fn available(&self) -> bool {
        true
    }

    /// Which tile representations this backend can execute. The
    /// default — dense only — is exactly the pre-sparse contract, so
    /// existing backends need no changes.
    /// [`BackendRegistry::resolve_for`] skips backends that reject the
    /// tile's representation; dense enumeration sites (the adaptive
    /// prober, the tuner, the equivalence oracle) filter on it too.
    fn supports_repr(&self, repr: TileRepr) -> bool {
        repr == TileRepr::Dense
    }

    /// Thread model inside one task.
    fn thread_model(&self) -> ThreadModel {
        ThreadModel::Serial
    }

    /// The cost-model descriptor this backend prices as.
    fn kernel_type(&self, params: &KernelParams) -> cluster_model::KernelType;

    /// Execute one block kernel. Operands arrive in the solver's raw
    /// convention: `u`/`v` are the column/row panels (kind D only),
    /// `w` is the diagonal block (kinds B, C, D); `None` means the
    /// operand aliases `x`.
    fn run(
        &self,
        kind: Kind,
        params: &KernelParams,
        x: &mut TileMut<'_, S::Elem>,
        u: Option<TileRef<'_, S::Elem>>,
        v: Option<TileRef<'_, S::Elem>>,
        w: Option<TileRef<'_, S::Elem>>,
    );

    /// Execute one relaxation sweep over a CSR tile — the sparse
    /// counterpart of [`KernelBackend::run`]: for every source row `s`
    /// of `dist` and stored edge `(u → v, w)` of `edges`, fold
    /// `cand[s][v] = f(cand[s][v], dist[s][u], w, w)` through the
    /// problem's update function. `skip` marks source distances that
    /// cannot relax anything (`+∞` for min-plus). The default panics:
    /// only backends with `supports_repr(SparseCsr)` are ever resolved
    /// for sparse tiles, and they must override this.
    fn sweep(
        &self,
        edges: &Csr<S::Elem>,
        dist: &Matrix<S::Elem>,
        skip: S::Elem,
        cand: &mut Matrix<S::Elem>,
    ) {
        let _ = (edges, dist, skip, cand);
        panic!(
            "backend `{}` does not implement sparse sweeps (supports_repr \
             must gate it out of sparse resolution)",
            self.name()
        );
    }
}

/// Registry name of the loop-based baseline backend.
pub const ITERATIVE: &str = "iterative";
/// Registry name of the r-way recursive backend.
pub const RECURSIVE: &str = "recursive";
/// Registry name of the cache-blocked micro-tiled backend.
pub const BLOCKED: &str = "blocked";
/// Registry name of the CSR relaxation-sweep backend (sparse tiles).
pub const SWEEP: &str = "sweep";

/// The loop-based block kernels (the paper's Numba-baseline analogue).
struct IterativeBackend;

impl<S: DpProblem> KernelBackend<S> for IterativeBackend {
    fn name(&self) -> &'static str {
        ITERATIVE
    }

    fn kernel_type(&self, _params: &KernelParams) -> cluster_model::KernelType {
        cluster_model::KernelType::Iterative
    }

    fn run(
        &self,
        kind: Kind,
        _params: &KernelParams,
        x: &mut TileMut<'_, S::Elem>,
        u: Option<TileRef<'_, S::Elem>>,
        v: Option<TileRef<'_, S::Elem>>,
        w: Option<TileRef<'_, S::Elem>>,
    ) {
        // Resolve the solver's raw operands into the iterative
        // kernel's per-kind aliasing pattern.
        let (ku, kv, kw) = match kind {
            Kind::A => (None, None, None),
            Kind::B => (w, None, w),
            Kind::C => (None, w, w),
            Kind::D => (u, v, w),
        };
        block_kernel::<S>(kind, x, ku, kv, kw);
    }
}

/// The parallel r-way recursive divide-&-conquer kernels (Fig. 4).
struct RecursiveBackend;

impl<S: DpProblem> KernelBackend<S> for RecursiveBackend {
    fn name(&self) -> &'static str {
        RECURSIVE
    }

    fn fanout_parametric(&self) -> bool {
        true
    }

    fn thread_model(&self) -> ThreadModel {
        ThreadModel::PooledTeam
    }

    fn kernel_type(&self, params: &KernelParams) -> cluster_model::KernelType {
        cluster_model::KernelType::Recursive {
            r_shared: params.r_shared,
            threads: params.threads,
        }
    }

    fn run(
        &self,
        kind: Kind,
        params: &KernelParams,
        x: &mut TileMut<'_, S::Elem>,
        u: Option<TileRef<'_, S::Elem>>,
        v: Option<TileRef<'_, S::Elem>>,
        w: Option<TileRef<'_, S::Elem>>,
    ) {
        let pool = omp_pool(params.threads);
        let cfg = RecConfig::new(params.r_shared, params.base);
        rec_kernel::<S>(&pool, &cfg, kind, x.reborrow(), u, v, w);
    }
}

/// The cache-blocked micro-tiled iterative kernel (see
/// [`gep_kernels::blocked`]): D kernels run in cache-sized `i×j` tiles
/// with register-blocked min-plus/max-min inner loops.
struct BlockedBackend;

impl<S: DpProblem> KernelBackend<S> for BlockedBackend {
    fn name(&self) -> &'static str {
        BLOCKED
    }

    fn kernel_type(&self, _params: &KernelParams) -> cluster_model::KernelType {
        // Same loop count and asymptotic cache profile class as the
        // iterative baseline; the cost model's iterative tiers apply.
        cluster_model::KernelType::Iterative
    }

    fn run(
        &self,
        kind: Kind,
        _params: &KernelParams,
        x: &mut TileMut<'_, S::Elem>,
        u: Option<TileRef<'_, S::Elem>>,
        v: Option<TileRef<'_, S::Elem>>,
        w: Option<TileRef<'_, S::Elem>>,
    ) {
        let (ku, kv, kw) = match kind {
            Kind::A => (None, None, None),
            Kind::B => (w, None, w),
            Kind::C => (None, w, w),
            Kind::D => (u, v, w),
        };
        blocked_kernel::<S>(kind, x, ku, kv, kw);
    }
}

/// The CSR relaxation-sweep backend — the first sparse-representation
/// citizen of the registry. It serves `TileRepr::SparseCsr` only:
/// dense resolution never reaches it (`supports_repr` rejects dense),
/// and its `run` hook panics loudly if somehow handed a dense tile.
/// Priced as [`cluster_model::KernelType::SparseSweep`], whose work
/// term is `sources · nnz` — the representation-aware cost the
/// crossover study leans on.
struct SweepBackend;

impl<S: DpProblem> KernelBackend<S> for SweepBackend {
    fn name(&self) -> &'static str {
        SWEEP
    }

    fn supports_repr(&self, repr: TileRepr) -> bool {
        repr == TileRepr::SparseCsr
    }

    fn kernel_type(&self, _params: &KernelParams) -> cluster_model::KernelType {
        cluster_model::KernelType::SparseSweep
    }

    fn run(
        &self,
        _kind: Kind,
        _params: &KernelParams,
        _x: &mut TileMut<'_, S::Elem>,
        _u: Option<TileRef<'_, S::Elem>>,
        _v: Option<TileRef<'_, S::Elem>>,
        _w: Option<TileRef<'_, S::Elem>>,
    ) {
        panic!("the `sweep` backend executes CSR relaxation sweeps, not dense block kernels");
    }

    fn sweep(
        &self,
        edges: &Csr<S::Elem>,
        dist: &Matrix<S::Elem>,
        skip: S::Elem,
        cand: &mut Matrix<S::Elem>,
    ) {
        sweep_gep::<S>(edges, dist, skip, cand);
    }
}

/// Named kernel backends in fixed registration order.
///
/// Order is part of the determinism contract: `names()` reports it,
/// and [`BackendRegistry::resolve`] depends only on it plus the spec's
/// own chain — never on hashing, time, or load.
pub struct BackendRegistry<S: DpProblem> {
    entries: Vec<Arc<dyn KernelBackend<S>>>,
}

impl<S: DpProblem> BackendRegistry<S> {
    /// Empty registry.
    pub fn new() -> Self {
        BackendRegistry {
            entries: Vec::new(),
        }
    }

    /// The built-in backends: `iterative`, `recursive`, `blocked`,
    /// `sweep` — in that fixed order.
    pub fn builtin() -> Self {
        let mut r = BackendRegistry::new();
        r.register(Arc::new(IterativeBackend));
        r.register(Arc::new(RecursiveBackend));
        r.register(Arc::new(BlockedBackend));
        r.register(Arc::new(SweepBackend));
        r
    }

    /// Register a backend. A backend re-registering an existing name
    /// replaces it *in place* (registration order is preserved);
    /// otherwise it appends.
    pub fn register(&mut self, backend: Arc<dyn KernelBackend<S>>) {
        let name = backend.name();
        if let Some(slot) = self.entries.iter_mut().find(|b| b.name() == name) {
            *slot = backend;
        } else {
            self.entries.push(backend);
        }
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|b| b.name()).collect()
    }

    /// Look up a backend by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn KernelBackend<S>>> {
        self.entries.iter().find(|b| b.name() == name).cloned()
    }

    /// All entries, in registration order.
    pub fn backends(&self) -> &[Arc<dyn KernelBackend<S>>] {
        &self.entries
    }

    /// Can `b` run tiles of `repr` on this host?
    fn usable(b: &dyn KernelBackend<S>, repr: TileRepr) -> bool {
        b.available() && b.supports_repr(repr)
    }

    /// One spec per backend that can run dense tiles here (available
    /// and dense-capable), in registration order, each carrying
    /// `params`: the candidate list of every tuner and sweep, so a
    /// newly registered backend joins all of them with no call-site
    /// change.
    pub fn dense_candidates(&self, params: KernelParams) -> Vec<KernelSpec> {
        self.entries
            .iter()
            .filter(|b| Self::usable(b.as_ref(), TileRepr::Dense))
            .map(|b| KernelSpec::named(b.name()).with_params(params))
            .collect()
    }

    /// Resolve a spec to a backend for **dense** tiles — the
    /// historical entry point, byte-identical to its pre-sparse
    /// behavior (every pre-sparse backend supports dense).
    pub fn resolve(&self, spec: &KernelSpec) -> Result<Arc<dyn KernelBackend<S>>, ConfigError> {
        self.resolve_for(spec, TileRepr::Dense)
    }

    /// Resolve a spec to a backend for tiles of the given
    /// representation: walk `[spec.backend] + fallbacks` in order,
    /// skip names that are unregistered, report `available() ==
    /// false`, or reject `repr`, return the first hit. Deterministic
    /// by construction.
    pub fn resolve_for(
        &self,
        spec: &KernelSpec,
        repr: TileRepr,
    ) -> Result<Arc<dyn KernelBackend<S>>, ConfigError> {
        let chain =
            std::iter::once(spec.backend.as_str()).chain(spec.fallbacks.iter().map(String::as_str));
        for name in chain {
            if let Some(b) = self.get(name) {
                if Self::usable(b.as_ref(), repr) {
                    return Ok(b);
                }
            }
        }
        Err(ConfigError::NoUsableBackend {
            requested: std::iter::once(spec.backend.clone())
                .chain(spec.fallbacks.iter().cloned())
                .collect(),
            registered: self.names().iter().map(|s| s.to_string()).collect(),
        })
    }
}

impl<S: DpProblem> Default for BackendRegistry<S> {
    fn default() -> Self {
        BackendRegistry::builtin()
    }
}

/// Process-wide registries, one per problem type (generic statics do
/// not exist, so the map is keyed by `TypeId` and downcast on access).
static REGISTRIES: Mutex<Option<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>> = Mutex::new(None);

/// The process-wide registry for problem type `S`, initialized with
/// the built-in backends on first access.
pub fn registry<S: DpProblem>() -> Arc<BackendRegistry<S>> {
    let mut guard = REGISTRIES.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    let entry = map
        .entry(TypeId::of::<S>())
        .or_insert_with(|| Arc::new(BackendRegistry::<S>::builtin()) as Arc<dyn Any + Send + Sync>);
    Arc::clone(entry)
        .downcast::<BackendRegistry<S>>()
        .expect("registry entry is keyed by its own TypeId")
}

/// Register (or replace) a backend in the process-wide registry for
/// problem type `S`. Replacement is copy-on-write: in-flight solves
/// keep the registry snapshot they resolved against.
pub fn register_backend<S: DpProblem>(backend: Arc<dyn KernelBackend<S>>) {
    let current = registry::<S>();
    let mut next = BackendRegistry::<S>::new();
    for b in current.backends() {
        next.register(Arc::clone(b));
    }
    next.register(backend);
    let mut guard = REGISTRIES.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    map.insert(
        TypeId::of::<S>(),
        Arc::new(next) as Arc<dyn Any + Send + Sync>,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_kernels::Tropical;

    /// A backend that is registered but reports itself unavailable —
    /// the GPU-not-present stand-in for fallback tests.
    struct Unavailable;

    impl<S: DpProblem> KernelBackend<S> for Unavailable {
        fn name(&self) -> &'static str {
            "gpu-test"
        }

        fn available(&self) -> bool {
            false
        }

        fn kernel_type(&self, _params: &KernelParams) -> cluster_model::KernelType {
            cluster_model::KernelType::Iterative
        }

        fn run(
            &self,
            _kind: Kind,
            _params: &KernelParams,
            _x: &mut TileMut<'_, S::Elem>,
            _u: Option<TileRef<'_, S::Elem>>,
            _v: Option<TileRef<'_, S::Elem>>,
            _w: Option<TileRef<'_, S::Elem>>,
        ) {
            unreachable!("never resolved")
        }
    }

    #[test]
    fn builtin_registration_order_is_fixed() {
        let r = BackendRegistry::<Tropical>::builtin();
        assert_eq!(
            r.names(),
            vec![ITERATIVE, RECURSIVE, BLOCKED, SWEEP],
            "registration order is the determinism contract"
        );
    }

    #[test]
    fn resolve_walks_fallback_chain_deterministically() {
        let mut r = BackendRegistry::<Tropical>::builtin();
        r.register(Arc::new(Unavailable));
        // Primary unavailable → first fallback unregistered → second
        // fallback wins. Same input, same answer, every time.
        let spec = KernelSpec::named("gpu-test")
            .with_fallback("no-such-backend")
            .with_fallback(BLOCKED);
        for _ in 0..3 {
            assert_eq!(r.resolve(&spec).unwrap().name(), BLOCKED);
        }
    }

    #[test]
    fn resolve_exhausted_chain_reports_typed_error() {
        let r = BackendRegistry::<Tropical>::builtin();
        let spec = KernelSpec::named("missing").with_fallback("also-missing");
        match r.resolve(&spec) {
            Err(ConfigError::NoUsableBackend {
                requested,
                registered,
            }) => {
                assert_eq!(requested, vec!["missing", "also-missing"]);
                assert_eq!(registered, vec![ITERATIVE, RECURSIVE, BLOCKED, SWEEP]);
            }
            Err(other) => panic!("expected NoUsableBackend, got {other:?}"),
            Ok(b) => panic!("expected NoUsableBackend, resolved {}", b.name()),
        }
    }

    #[test]
    fn reregistration_replaces_in_place() {
        let mut r = BackendRegistry::<Tropical>::builtin();
        r.register(Arc::new(IterativeBackend));
        assert_eq!(r.names(), vec![ITERATIVE, RECURSIVE, BLOCKED, SWEEP]);
    }

    #[test]
    fn sparse_resolution_is_repr_gated_both_ways() {
        let r = BackendRegistry::<Tropical>::builtin();
        // A dense spec never resolves to the sweep backend, even named
        // directly — it falls through to its dense fallback.
        let spec = KernelSpec::named(SWEEP).with_fallback(ITERATIVE);
        assert_eq!(r.resolve(&spec).unwrap().name(), ITERATIVE);
        // Sparse resolution skips every dense backend and lands on
        // sweep, whatever the chain order.
        let chain = KernelSpec::iterative()
            .with_fallback(BLOCKED)
            .with_fallback(SWEEP);
        assert_eq!(
            r.resolve_for(&chain, TileRepr::SparseCsr).unwrap().name(),
            SWEEP
        );
        // A sparse tile with a dense-only chain is a typed error, not
        // a deep-in-kernel panic.
        assert!(matches!(
            r.resolve_for(&KernelSpec::iterative(), TileRepr::SparseCsr),
            Err(ConfigError::NoUsableBackend { .. })
        ));
    }

    #[test]
    fn sweep_backend_relaxes_through_the_problem_update() {
        let r = BackendRegistry::<Tropical>::builtin();
        let b = r.get(SWEEP).unwrap();
        assert!(b.supports_repr(TileRepr::SparseCsr));
        assert!(!b.supports_repr(TileRepr::Dense));
        assert_eq!(
            b.kernel_type(&KernelParams::default()),
            cluster_model::KernelType::SparseSweep
        );
        let inf = f64::INFINITY;
        // 0 →(2) 1, 1 →(3) 2 over 3 vertices, single source at 0.
        let edges = Csr::from_dense(
            &Matrix::from_vec(3, 3, vec![inf, 2.0, inf, inf, inf, 3.0, inf, inf, inf]),
            inf,
        );
        let dist = Matrix::from_vec(1, 3, vec![0.0, 2.0, inf]);
        let mut cand = Matrix::filled(1, 3, inf);
        b.sweep(&edges, &dist, inf, &mut cand);
        assert_eq!(cand.get(0, 1), 2.0);
        assert_eq!(cand.get(0, 2), 5.0);
        assert_eq!(cand.get(0, 0), inf);
    }

    #[test]
    fn global_registry_is_per_problem_and_extendable() {
        let before = registry::<Tropical>().names().len();
        register_backend::<Tropical>(Arc::new(Unavailable));
        let r = registry::<Tropical>();
        assert!(r.names().contains(&"gpu-test"));
        assert!(r.names().len() >= before);
        // Unavailable: spec naming it falls back deterministically.
        let spec = KernelSpec::named("gpu-test").with_fallback(ITERATIVE);
        assert_eq!(r.resolve(&spec).unwrap().name(), ITERATIVE);
    }

    #[test]
    fn spec_labels_and_constructors() {
        assert_eq!(KernelSpec::iterative().label(), "iter");
        assert_eq!(KernelSpec::recursive(4, 64, 8).label(), "rec4x8t");
        assert_eq!(KernelSpec::named(BLOCKED).label(), "blocked");
        let s = KernelSpec::iterative().with_fallback(BLOCKED);
        assert_eq!(s.fallbacks, vec![BLOCKED.to_string()]);
    }
}
