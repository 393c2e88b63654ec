//! Executor-side kernel execution (the paper's `ARecGE`/`BRecGE`/
//! `CRecGE`/`DRecGE` and their iterative counterparts).
//!
//! Every application records a [`cluster_model::KernelInvocation`] on
//! the task so the cost model can price the compute. Real blocks then
//! run the plan's [`crate::backend::KernelSpec`]; for virtual blocks
//! the recorded invocation is the whole effect.

use std::collections::BTreeMap;
use std::sync::Arc;

use cluster_model::{KernelInvocation, KernelType};
use gep_kernels::gep::Kind;
use gep_kernels::sparse::sweep_gep;
use gep_kernels::Matrix;
use par_pool::{Mutex, Pool};
use sparklet::TaskContext;

use crate::backend::KernelSpec;
use crate::block::Block;
use crate::problem::DpProblem;

/// Cap on distinct pool sizes the shared "OpenMP runtime" keeps alive.
/// Past the cap, requests reuse the nearest-size existing team instead
/// of spawning yet another thread pool.
const MAX_POOLS: usize = 8;

/// Shared "OpenMP runtime": one pool per requested thread count,
/// created lazily and reused across tasks (a task's kernel joins the
/// team sized like its `OMP_NUM_THREADS`). The pool map is bounded by
/// `MAX_POOLS`; once full, the nearest-size pool is reused — tuning
/// sweeps over many thread counts no longer accrete one OS thread team
/// per distinct value for the life of the process.
pub fn omp_pool(threads: usize) -> Arc<Pool> {
    static POOLS: Mutex<Option<BTreeMap<usize, Arc<Pool>>>> = Mutex::new(None);
    let mut guard = POOLS.lock();
    pool_for(guard.get_or_insert_with(BTreeMap::new), threads, MAX_POOLS)
}

/// The capped lookup behind [`omp_pool`], factored over an explicit
/// map so the reuse policy is testable without the global.
fn pool_for(pools: &mut BTreeMap<usize, Arc<Pool>>, threads: usize, cap: usize) -> Arc<Pool> {
    let want = threads.max(1);
    if let Some(p) = pools.get(&want) {
        return Arc::clone(p);
    }
    if pools.len() < cap {
        let p = Arc::new(
            Pool::builder()
                .threads(want)
                .name_prefix(format!("omp-{want}"))
                .build(),
        );
        pools.insert(want, Arc::clone(&p));
        return p;
    }
    // At capacity: reuse the nearest-size team (deterministic
    // tie-break toward the smaller size).
    let (_, p) = pools
        .iter()
        .min_by_key(|&(&size, _)| (size.abs_diff(want), size))
        .expect("cap ≥ 1, so a pool exists");
    Arc::clone(p)
}

/// Run (or account) one block kernel with the plan's kernel.
///
/// * `kernel` — the plan's kernel and its params;
/// * `kind` — which GEP kernel;
/// * `key` — the block's grid coordinate `(bi, bj)`;
/// * `kb` — the phase (diagonal block index);
/// * `x` — the block to update;
/// * `u`/`v` — column-/row-panel operand blocks (kind D only);
/// * `w` — the diagonal block (kinds B, C, D).
// Nine arguments: the kernel's own operands (kind, position, phase and
// the four blocks) plus the kernel and the task they are recorded on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_kernel<S: DpProblem>(
    kernel: &KernelSpec,
    kind: Kind,
    key: (usize, usize),
    kb: usize,
    x: &mut Block<S::Elem>,
    u: Option<&Block<S::Elem>>,
    v: Option<&Block<S::Elem>>,
    w: Option<&Block<S::Elem>>,
    tc: &TaskContext,
) {
    let b = x.rows();
    assert_eq!(x.cols(), b, "blocks are square");
    tc.record_kernel(KernelInvocation {
        updates: S::updates_for(kind, b),
        block_side: b,
        elem_bytes: std::mem::size_of::<S::Elem>(),
        kernel: kernel.kernel_type(),
    });
    if x.is_virtual() {
        debug_assert!(u.is_none_or(Block::is_virtual));
        debug_assert!(w.is_none_or(Block::is_virtual));
        return;
    }
    let (bi, bj) = key;
    let xm = x.expect_real_mut();
    let mut xv = xm.view_mut_at(bi * b, bj * b);
    let uv = u.map(|blk| blk.expect_real().view_at(bi * b, kb * b));
    let vv = v.map(|blk| blk.expect_real().view_at(kb * b, bj * b));
    let wv = w.map(|blk| blk.expect_real().view_at(kb * b, kb * b));
    match kind {
        Kind::A => {
            debug_assert!(u.is_none() && v.is_none() && w.is_none());
        }
        Kind::B | Kind::C => {
            debug_assert!(w.is_some() && u.is_none() && v.is_none());
        }
        Kind::D => {
            debug_assert!(u.is_some() && v.is_some());
            debug_assert!(w.is_some() || !S::USES_W);
        }
    }
    kernel
        .backend
        .run::<S>(kind, &kernel.params, &mut xv, uv, vv, wv);
}

/// Run one relaxation sweep over a CSR edge tile — the sparse
/// counterpart of the dense block kernels. The sweep has one
/// implementation, [`sweep_gep`], so it is called directly.
///
/// * `edges` — the partition's outgoing-edge tile
///   (`owned_vertices × n_target`, CSR);
/// * `dist` — current best distances (`sources × owned_vertices`,
///   dense);
/// * `skip` — the "unreachable" element (`+∞` for min-plus): rows of
///   `dist` holding it generate no candidates;
/// * `cand` — the candidate matrix the sweep folds into
///   (`sources × n_target`).
///
/// The recorded invocation prices by **nnz**: `updates = sources ·
/// nnz`, the representation-aware term [`KernelType::SparseSweep`]
/// expects.
pub fn apply_sweep<S: DpProblem>(
    edges: &Block<S::Elem>,
    dist: &Matrix<S::Elem>,
    skip: S::Elem,
    cand: &mut Matrix<S::Elem>,
    tc: &TaskContext,
) {
    let csr = edges.expect_sparse();
    tc.record_kernel(KernelInvocation {
        updates: (dist.rows() * csr.nnz()) as f64,
        block_side: csr.rows(),
        elem_bytes: std::mem::size_of::<S::Elem>(),
        kernel: KernelType::SparseSweep,
    });
    sweep_gep::<S>(csr, dist, skip, cand);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_kernels::gep::gep_reference;
    use gep_kernels::{GaussianElim, Tropical};

    fn blocks_of(m: &Matrix<f64>, g: usize) -> Vec<((usize, usize), Block<f64>)> {
        let b = m.rows() / g;
        let mut out = Vec::new();
        for i in 0..g {
            for j in 0..g {
                out.push(((i, j), Block::Real(m.copy_block(i * b, j * b, b, b))));
            }
        }
        out
    }

    fn assemble(blocks: &[((usize, usize), Block<f64>)], g: usize, b: usize) -> Matrix<f64> {
        let mut m = Matrix::square(g * b, 0.0);
        for ((i, j), blk) in blocks {
            m.paste_block(i * b, j * b, blk.expect_real());
        }
        m
    }

    /// Drive a full blocked GEP manually through apply_kernel — this is
    /// the sequential skeleton both strategies distribute.
    #[allow(clippy::needless_range_loop)]
    fn run_blocked<S: DpProblem<Elem = f64>>(
        m: &Matrix<f64>,
        g: usize,
        kernel: &KernelSpec,
    ) -> Matrix<f64> {
        use crate::filters;
        let b = m.rows() / g;
        let tc = TaskContext::new(0);
        let mut blocks = blocks_of(m, g);
        for k in 0..g {
            let diag_idx = blocks
                .iter()
                .position(|((i, j), _)| (*i, *j) == (k, k))
                .unwrap();
            {
                let (key, ref mut blk) = blocks[diag_idx];
                apply_kernel::<S>(kernel, Kind::A, key, k, blk, None, None, None, &tc);
            }
            let diag = blocks[diag_idx].1.clone();
            for idx in 0..blocks.len() {
                let key = blocks[idx].0;
                if filters::filter_b::<S>(key, k, b) {
                    apply_kernel::<S>(
                        kernel,
                        Kind::B,
                        key,
                        k,
                        &mut blocks[idx].1,
                        None,
                        None,
                        Some(&diag),
                        &tc,
                    );
                }
            }
            for idx in 0..blocks.len() {
                let key = blocks[idx].0;
                if filters::filter_c::<S>(key, k, b) {
                    apply_kernel::<S>(
                        kernel,
                        Kind::C,
                        key,
                        k,
                        &mut blocks[idx].1,
                        None,
                        None,
                        Some(&diag),
                        &tc,
                    );
                }
            }
            let snapshot: Vec<((usize, usize), Block<f64>)> = blocks.clone();
            for idx in 0..blocks.len() {
                let key = blocks[idx].0;
                if filters::filter_d::<S>(key, k, b) {
                    let (i, j) = key;
                    let u = &snapshot
                        .iter()
                        .find(|((a, c), _)| (*a, *c) == (i, k))
                        .unwrap()
                        .1;
                    let v = &snapshot
                        .iter()
                        .find(|((a, c), _)| (*a, *c) == (k, j))
                        .unwrap()
                        .1;
                    apply_kernel::<S>(
                        kernel,
                        Kind::D,
                        key,
                        k,
                        &mut blocks[idx].1,
                        Some(u),
                        Some(v),
                        Some(&diag),
                        &tc,
                    );
                }
            }
        }
        assemble(&blocks, g, b)
    }

    fn dd_matrix(n: usize) -> Matrix<f64> {
        let mut m = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 6.0 - 1.0);
        for i in 0..n {
            m.set(i, i, n as f64 + 2.0);
        }
        m
    }

    fn dist_matrix(n: usize) -> Matrix<f64> {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if (i * 7 + j * 3) % 4 == 0 {
                ((i + 2 * j) % 9 + 1) as f64
            } else {
                f64::INFINITY
            }
        })
    }

    #[test]
    fn blocked_apply_kernel_iterative_matches_reference() {
        for g in [2usize, 4] {
            let m = dd_matrix(16);
            let out = run_blocked::<GaussianElim>(&m, g, &KernelSpec::iterative());
            let mut reference = m.clone();
            gep_reference::<GaussianElim>(&mut reference);
            assert_eq!(out.first_difference(&reference), None, "g={g}");

            let d = dist_matrix(16);
            let out = run_blocked::<Tropical>(&d, g, &KernelSpec::iterative());
            let mut reference = d.clone();
            gep_reference::<Tropical>(&mut reference);
            assert_eq!(out.first_difference(&reference), None, "fw g={g}");
        }
    }

    #[test]
    fn blocked_apply_kernel_recursive_matches_reference() {
        let kernel = KernelSpec::recursive(2, 2, 3);
        let m = dd_matrix(16);
        let out = run_blocked::<GaussianElim>(&m, 2, &kernel);
        let mut reference = m.clone();
        gep_reference::<GaussianElim>(&mut reference);
        assert_eq!(out.first_difference(&reference), None);

        let d = dist_matrix(16);
        let out = run_blocked::<Tropical>(&d, 4, &kernel);
        let mut reference = d.clone();
        gep_reference::<Tropical>(&mut reference);
        assert_eq!(out.first_difference(&reference), None);
    }

    #[test]
    fn virtual_blocks_record_without_computing() {
        let tc = TaskContext::new(0);
        let mut x: Block<f64> = Block::Virtual { rows: 8, cols: 8 };
        apply_kernel::<Tropical>(
            &KernelSpec::iterative(),
            Kind::A,
            (0, 0),
            0,
            &mut x,
            None,
            None,
            None,
            &tc,
        );
        let rec = tc.snapshot();
        assert_eq!(rec.kernels.len(), 1);
        assert_eq!(rec.kernels[0].updates, 512.0);
        assert_eq!(rec.kernels[0].block_side, 8);
    }

    #[test]
    fn apply_sweep_records_nnz_priced_invocation() {
        use gep_kernels::sparse::Csr;
        let inf = f64::INFINITY;
        let tc = TaskContext::new(0);
        // 4 local vertices, 6 stored edges, 3 sources.
        let dense = Matrix::from_fn(4, 4, |i, j| {
            if (i + j) % 3 == 1 && i != j {
                (i + j) as f64
            } else {
                inf
            }
        });
        let edges = Block::Sparse(Csr::from_dense(&dense, inf));
        let nnz = edges.nnz();
        let dist = Matrix::from_fn(3, 4, |s, u| if s == u { 0.0 } else { inf });
        let mut cand = Matrix::filled(3, 4, inf);
        apply_sweep::<Tropical>(&edges, &dist, inf, &mut cand, &tc);
        let rec = tc.snapshot();
        assert_eq!(rec.kernels.len(), 1);
        assert_eq!(rec.kernels[0].updates, (3 * nnz) as f64);
        assert_eq!(rec.kernels[0].kernel, KernelType::SparseSweep);
        // And the sweep really relaxed: source 0 sits at vertex 0,
        // which has an edge to 1 (0+1 % 3 == 1) of weight 1.
        assert_eq!(cand.get(0, 1), 1.0);
    }

    #[test]
    fn omp_pool_is_shared_per_size() {
        let a = omp_pool(3);
        let b = omp_pool(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.threads(), 3);
        assert_eq!(omp_pool(0).threads(), 1);
    }

    #[test]
    fn omp_pool_map_is_capped_and_reuses_nearest() {
        // Exercise the policy on a local map so the process-global
        // runtime is untouched.
        let mut pools = BTreeMap::new();
        for t in [1usize, 2, 4, 8] {
            let p = pool_for(&mut pools, t, 4);
            assert_eq!(p.threads(), t);
        }
        assert_eq!(pools.len(), 4);
        // At cap: a fresh size allocates nothing and reuses the
        // nearest team (6 → tie between 4 and 8 → smaller wins).
        let p = pool_for(&mut pools, 6, 4);
        assert_eq!(pools.len(), 4, "cap holds: no new pool");
        assert_eq!(p.threads(), 4);
        assert!(Arc::ptr_eq(&p, pools.get(&4).unwrap()));
        // 100 → nearest is 8.
        assert_eq!(pool_for(&mut pools, 100, 4).threads(), 8);
        // Exact sizes still hit their own pool.
        assert_eq!(pool_for(&mut pools, 2, 4).threads(), 2);
        // Repeat lookups are stable (deterministic reuse).
        assert!(Arc::ptr_eq(
            &pool_for(&mut pools, 6, 4),
            &pool_for(&mut pools, 6, 4)
        ));
    }
}
