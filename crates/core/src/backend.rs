//! Kernel backends: the formulation/backend split.
//!
//! The paper has two executor kernel types — the loop-based baseline
//! and the parallel r-way recursive R-DP kernel. This module splits the
//! *formulation* (a [`crate::problem::DpProblem`]: update `f`, Σ_G,
//! filters) from the *backend* (how one block kernel is executed) and
//! gives the choice between backends one home:
//!
//! * [`KernelBackend`] — four hooks: a registry `name`, whether
//!   `r_shared` changes its shape (`fanout_parametric`), the cost-model
//!   [`KernelType`] it prices as, and `run`.
//! * [`BackendRegistry`] — named registration with **deterministic
//!   resolution**: entries keep their registration order, and a
//!   [`KernelSpec`]'s `backend` + fallback chain is walked in the
//!   caller-given order, skipping unregistered names. Resolution
//!   consults no ambient state (no time, no randomness), so seeded
//!   sim/chaos replays stay bit-identical with the registry in place.
//! * [`KernelSpec`] — the config-surface selector: a backend name,
//!   an ordered fallback chain, and the shared numeric parameters
//!   ([`KernelParams`]).
//!
//! A solve resolves its spec **once, on the driver**, when its plan is
//! built (a crate-private `ResolvedKernel`: backend, params, priced
//! type); task closures clone that handle and never come back here. An
//! unusable chain is therefore one typed error before any stage runs,
//! and re-registering a backend mid-solve cannot change a plan already
//! in flight.
//!
//! Built-in backends, registered in this fixed order: `iterative` and
//! `recursive`. Virtual (cost-accounting) runs need no backend of their
//! own: a kernel on a `Block::Virtual` is priced as the resolved
//! backend and not run. The sparse-APSP relaxation sweep is not a
//! backend: it has one implementation
//! ([`gep_kernels::sparse::sweep_gep`]), so
//! [`crate::kernels::apply_sweep`] calls it directly.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Arc;

use cluster_model::KernelType;
use gep_kernels::gep::Kind;
use gep_kernels::iterative::block_kernel;
use gep_kernels::recursive::{rec_kernel, RecConfig};
use gep_kernels::{TileMut, TileRef};
use par_pool::Mutex;

use crate::kernels::omp_pool;
use crate::problem::DpProblem;

/// Numeric kernel parameters shared by every backend. Backends read
/// what they understand (`iterative` ignores all three; `recursive`
/// reads the full set).
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

/// Config-surface kernel selector: which backend runs executor kernels,
/// in what parameterization, and what to fall back to when the primary
/// is not registered.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Primary backend name (a [`BackendRegistry`] registration name).
    pub backend: String,
    /// Ordered fallback chain, tried after `backend` in the given
    /// order. Resolution is deterministic: first registered name wins.
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
    /// The spec's backend chain contains no registered name.
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

/// One executor-side kernel implementation plus what the planner needs
/// to know about it. Implementations must be deterministic: same inputs
/// → bit-identical outputs, with no dependence on wall time or ambient
/// randomness (the seeded sim/chaos replay contract).
pub trait KernelBackend<S: DpProblem>: Send + Sync {
    /// Registry name (what a [`KernelSpec`] selects by).
    fn name(&self) -> &'static str;

    /// Does `params.r_shared` change this backend's execution (and
    /// pricing)? The AQE r-retune decision and the tuner's
    /// `r_shared × threads` grid only apply to parametric backends.
    fn fanout_parametric(&self) -> bool {
        false
    }

    /// The cost-model descriptor this backend prices as.
    fn kernel_type(&self, params: &KernelParams) -> KernelType;

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
}

/// Registry name of the loop-based baseline backend.
pub const ITERATIVE: &str = "iterative";
/// Registry name of the r-way recursive backend.
pub const RECURSIVE: &str = "recursive";

/// The loop-based block kernels (the paper's Numba-baseline analogue).
struct IterativeBackend;

impl<S: DpProblem> KernelBackend<S> for IterativeBackend {
    fn name(&self) -> &'static str {
        ITERATIVE
    }

    fn kernel_type(&self, _params: &KernelParams) -> KernelType {
        KernelType::Iterative
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

    fn kernel_type(&self, params: &KernelParams) -> KernelType {
        KernelType::Recursive {
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

    /// The built-in backends — the paper's two kernel types —
    /// `iterative`, `recursive`, in that fixed order.
    pub fn builtin() -> Self {
        let mut r = BackendRegistry::new();
        r.register(Arc::new(IterativeBackend));
        r.register(Arc::new(RecursiveBackend));
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

    /// One spec per registered backend, in registration order, each
    /// carrying `params`: the candidate list of every tuner and sweep,
    /// so a newly registered backend joins all of them with no
    /// call-site change.
    pub fn dense_candidates(&self, params: KernelParams) -> Vec<KernelSpec> {
        self.entries
            .iter()
            .map(|b| KernelSpec::named(b.name()).with_params(params))
            .collect()
    }

    /// Resolve a spec to a backend: walk `[spec.backend] + fallbacks`
    /// in order, skip unregistered names, return the first hit.
    /// Deterministic by construction.
    pub fn resolve(&self, spec: &KernelSpec) -> Result<Arc<dyn KernelBackend<S>>, ConfigError> {
        let chain = || std::iter::once(&spec.backend).chain(&spec.fallbacks);
        chain()
            .find_map(|name| self.get(name))
            .ok_or_else(|| ConfigError::NoUsableBackend {
                requested: chain().cloned().collect(),
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

/// A [`KernelSpec`] resolved once, on the driver, when a plan is
/// built: the backend the chain picked, the params it runs with and the
/// cost-model type those price as. Task closures clone it (an `Arc`
/// bump) instead of walking the process-wide registry per tile, so the
/// registry lock is off the executor path and a plan in flight keeps
/// the backend it started with whatever is registered meanwhile.
pub(crate) struct ResolvedKernel<S: DpProblem> {
    backend: Arc<dyn KernelBackend<S>>,
    params: KernelParams,
    kernel_type: KernelType,
}

impl<S: DpProblem> Clone for ResolvedKernel<S> {
    fn clone(&self) -> Self {
        ResolvedKernel {
            backend: Arc::clone(&self.backend),
            ..*self
        }
    }
}

impl<S: DpProblem> ResolvedKernel<S> {
    /// `backend` at `params`, priced.
    fn bind(backend: Arc<dyn KernelBackend<S>>, params: KernelParams) -> Self {
        ResolvedKernel {
            kernel_type: backend.kernel_type(&params),
            backend,
            params,
        }
    }

    /// Resolve `spec` against the process-wide registry for `S`.
    pub(crate) fn resolve(spec: &KernelSpec) -> Result<Self, ConfigError> {
        Ok(Self::bind(registry::<S>().resolve(spec)?, spec.params))
    }

    /// The same backend at other params (the AQE r-retune), re-priced.
    pub(crate) fn with_params(&self, params: KernelParams) -> Self {
        Self::bind(Arc::clone(&self.backend), params)
    }

    /// The params the backend runs with.
    pub(crate) fn params(&self) -> KernelParams {
        self.params
    }

    /// What one invocation prices as.
    pub(crate) fn kernel_type(&self) -> KernelType {
        self.kernel_type
    }

    /// See [`KernelBackend::fanout_parametric`].
    pub(crate) fn fanout_parametric(&self) -> bool {
        self.backend.fanout_parametric()
    }

    /// See [`KernelBackend::run`].
    pub(crate) fn run(
        &self,
        kind: Kind,
        x: &mut TileMut<'_, S::Elem>,
        u: Option<TileRef<'_, S::Elem>>,
        v: Option<TileRef<'_, S::Elem>>,
        w: Option<TileRef<'_, S::Elem>>,
    ) {
        self.backend.run(kind, &self.params, x, u, v, w);
    }
}

/// The `DP_KERNEL_BACKEND` rule: a non-empty `primary` rebinds the
/// spec's primary backend and nothing else — params and the fallback
/// chain stay the caller's. It is how CI runs the whole acceptance
/// suite once per backend. Only dense plans apply it; the sparse sweep
/// takes no spec.
pub(crate) fn rebind_primary(mut spec: KernelSpec, primary: Option<&str>) -> KernelSpec {
    if let Some(name) = primary.filter(|name| !name.is_empty()) {
        spec.backend = name.to_string();
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_kernels::{TransitiveClosure, Tropical};

    /// A third backend, as a user crate would register one: the
    /// iterative loops under another name.
    struct Extra;

    impl<S: DpProblem> KernelBackend<S> for Extra {
        fn name(&self) -> &'static str {
            "extra-test"
        }

        fn kernel_type(&self, _params: &KernelParams) -> KernelType {
            KernelType::Iterative
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
            KernelBackend::<S>::run(&IterativeBackend, kind, params, x, u, v, w);
        }
    }

    #[test]
    fn builtin_registration_order_is_fixed() {
        let r = BackendRegistry::<Tropical>::builtin();
        assert_eq!(
            r.names(),
            vec![ITERATIVE, RECURSIVE],
            "registration order is the determinism contract"
        );
    }

    #[test]
    fn resolve_walks_fallback_chain_deterministically() {
        let mut r = BackendRegistry::<Tropical>::builtin();
        r.register(Arc::new(Extra));
        // Primary and first fallback unregistered → second fallback
        // wins, ahead of the third. Same input, same answer, every time.
        let spec = KernelSpec::named("gpu-test")
            .with_fallback("no-such-backend")
            .with_fallback("extra-test")
            .with_fallback(ITERATIVE);
        for _ in 0..3 {
            assert_eq!(r.resolve(&spec).unwrap().name(), "extra-test");
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
                assert_eq!(registered, vec![ITERATIVE, RECURSIVE]);
            }
            Err(other) => panic!("expected NoUsableBackend, got {other:?}"),
            Ok(b) => panic!("expected NoUsableBackend, resolved {}", b.name()),
        }
    }

    #[test]
    fn reregistration_replaces_in_place() {
        let mut r = BackendRegistry::<Tropical>::builtin();
        r.register(Arc::new(IterativeBackend));
        assert_eq!(r.names(), vec![ITERATIVE, RECURSIVE]);
    }

    #[test]
    fn global_registry_is_per_problem_and_extendable() {
        // Registered under a problem type no other unit test enumerates
        // candidates for, so their probe lists stay the built-ins.
        register_backend::<TransitiveClosure>(Arc::new(Extra));
        let r = registry::<TransitiveClosure>();
        assert_eq!(r.names(), vec![ITERATIVE, RECURSIVE, "extra-test"]);
        let spec = KernelSpec::named("missing").with_fallback("extra-test");
        assert_eq!(r.resolve(&spec).unwrap().name(), "extra-test");
        assert!(!registry::<Tropical>().names().contains(&"extra-test"));
    }

    #[test]
    fn resolved_kernel_prices_and_retunes_without_the_registry() {
        let k = ResolvedKernel::<Tropical>::resolve(&KernelSpec::recursive(2, 4, 3)).unwrap();
        assert!(k.fanout_parametric());
        assert_eq!(
            k.kernel_type(),
            KernelType::Recursive {
                r_shared: 2,
                threads: 3
            }
        );
        let mut params = k.params();
        params.r_shared = 4;
        assert_eq!(
            k.with_params(params).kernel_type(),
            KernelType::Recursive {
                r_shared: 4,
                threads: 3
            }
        );
        assert!(matches!(
            ResolvedKernel::<Tropical>::resolve(&KernelSpec::named("nope")),
            Err(ConfigError::NoUsableBackend { .. })
        ));
    }

    #[test]
    fn env_override_rebinds_only_the_primary_backend() {
        // The rule over the variable's value, so no test mutates the
        // process environment. The sparse path cannot be touched by
        // it: `apply_sweep` takes no spec.
        let spec = KernelSpec::recursive(4, 16, 2).with_fallback(ITERATIVE);
        let rebound = rebind_primary(spec.clone(), Some(ITERATIVE));
        assert_eq!(rebound.backend, ITERATIVE);
        assert_eq!(rebound.params, spec.params, "params are the caller's");
        assert_eq!(rebound.fallbacks, spec.fallbacks, "so is the chain");
        assert_eq!(
            rebind_primary(spec.clone(), Some("")),
            spec,
            "empty = unset"
        );
        assert_eq!(rebind_primary(spec.clone(), None), spec);
    }

    #[test]
    fn spec_labels_and_constructors() {
        assert_eq!(KernelSpec::iterative().label(), "iter");
        assert_eq!(KernelSpec::recursive(4, 64, 8).label(), "rec4x8t");
        assert_eq!(KernelSpec::named("custom").label(), "custom");
        let s = KernelSpec::iterative().with_fallback(RECURSIVE);
        assert_eq!(s.fallbacks, vec![RECURSIVE.to_string()]);
    }
}
