//! Cache-blocked, micro-tiled iterative kernels — the "blocked" entry
//! in the kernel-backend registry.
//!
//! The plain iterative [`crate::iterative::block_kernel`] streams the
//! whole `b×b` block per `k`, so once `3·b²·8` bytes outgrow the cache
//! every phase re-fetches the block from DRAM (the Fig. 6 sag). This
//! module tiles the **D kernel** — the GEMM-like workhorse that does
//! almost all the flops of a blocked GEP execution — into cache-sized
//! `i×j` panels and register-blocked inner loops, with hand-specialized
//! min-plus (FW-APSP) and max-min (widest path) variants.
//!
//! **Bitwise-determinism contract.** For kind D every operand tile is
//! external and phase-stable, so any loop order that applies the `f`
//! updates of one cell in ascending-`k` order is bitwise identical to
//! the generic triple loop — tiling `i`/`j` and accumulating a row
//! segment in registers only reorders *cells*, never one cell's `k`
//! sequence. Kinds A/B/C alias the target block and therefore delegate
//! to the untiled [`crate::iterative::block_kernel`] unchanged; they
//! touch `O(b²·g)` cells per phase versus D's `O(b²·g²)`, so the cache
//! win lives where the time is spent. The equivalence tests below pin
//! bitwise equality against the generic kernel for every kind.

use crate::gep::{GepSpec, Kind, SemiringPaths, Tropical};
use crate::iterative::block_kernel;
use crate::matrix::{TileMut, TileRef};
use crate::semiring::MaxMin;
use std::any::TypeId;

/// Cache tile height: `I_TILE` rows of the target panel share one pass
/// over the `v` row-panel tile.
const I_TILE: usize = 64;
/// Cache tile width, also the scratch-row capacity: `J_TILE` f64 cells
/// (one target row segment) live in registers/L1 across the `k` loop.
const J_TILE: usize = 128;

/// Apply one phase's updates to a block with the same operand
/// convention as [`block_kernel`] (`None` = operand aliases `x`; kind D
/// takes the column panel `u`, row panel `v`, and diagonal `w`).
///
/// Kind D dispatches to the cache-blocked path; A/B/C delegate to the
/// untiled iterative kernel (their operands alias the target block, so
/// tiling would have to re-prove the in-place Fig. 1 ordering for no
/// measurable gain).
pub fn blocked_kernel<S: GepSpec>(
    kind: Kind,
    x: &mut TileMut<S::Elem>,
    u: Option<TileRef<S::Elem>>,
    v: Option<TileRef<S::Elem>>,
    w: Option<TileRef<S::Elem>>,
) {
    if kind != Kind::D {
        return block_kernel::<S>(kind, x, u, v, w);
    }
    let u = u.expect("D: u external");
    let v = v.expect("D: v external");
    assert!(
        w.is_some() || !S::USES_W,
        "D needs w unless the spec ignores it"
    );
    // Diagonal range: from `w` when present, else from `u`'s columns.
    let (k0, nk) = match &w {
        Some(w) => {
            assert_eq!(w.row0(), w.col0(), "w must be a diagonal block");
            assert_eq!(w.rows(), w.cols());
            (w.row0(), w.rows())
        }
        None => (u.col0(), u.cols()),
    };
    assert_eq!(u.rows(), x.rows(), "u is x-rows × k-range");
    assert_eq!(u.cols(), nk);
    assert_eq!(u.row0(), x.row0());
    assert_eq!(v.rows(), nk, "v is k-range × x-cols");
    assert_eq!(v.cols(), x.cols());
    assert_eq!(v.col0(), x.col0());

    if TypeId::of::<S>() == TypeId::of::<Tropical>() {
        // Proven S == Tropical, hence S::Elem == f64: the tile casts
        // below are identity casts.
        let xf: &mut TileMut<f64> = unsafe { cast_tile_mut(x) };
        d_minplus(xf, unsafe { cast_tile_ref(u) }, unsafe { cast_tile_ref(v) });
    } else if TypeId::of::<S>() == TypeId::of::<SemiringPaths<MaxMin>>() {
        // Proven S::Elem == MaxMin, a repr(transparent) f64 wrapper (a
        // codec contract pinned in `semiring`), so tiles of it are
        // layout-identical to f64 tiles.
        let xf: &mut TileMut<f64> = unsafe { cast_tile_mut(x) };
        d_maxmin(xf, unsafe { cast_tile_ref(u) }, unsafe { cast_tile_ref(v) });
    } else {
        d_generic::<S>(x, u, v, w, k0, nk);
    }
}

/// Reinterpret a mutable tile of `A` as a tile of `B`.
///
/// # Safety
/// `A` and `B` must be the same type or layout-identical
/// `repr(transparent)` wrappers of one another; callers prove this with
/// `TypeId` checks before casting.
unsafe fn cast_tile_mut<'s, 'a, A: crate::matrix::Elem, B: crate::matrix::Elem>(
    t: &'s mut TileMut<'a, A>,
) -> &'s mut TileMut<'a, B> {
    &mut *(t as *mut TileMut<'a, A> as *mut TileMut<'a, B>)
}

/// By-value variant of [`cast_tile_mut`] for shared tiles.
///
/// # Safety
/// Same layout contract as [`cast_tile_mut`].
unsafe fn cast_tile_ref<'a, A: crate::matrix::Elem, B: crate::matrix::Elem>(
    t: TileRef<'a, A>,
) -> TileRef<'a, B> {
    *(&t as *const TileRef<'a, A> as *const TileRef<'a, B>)
}

/// Generic tiled D kernel: `i×j` cache tiles, `k` innermost with the
/// cell accumulated in a register. Per-cell `k` order is ascending —
/// bitwise identical to `block_kernel_generic` (see module docs).
fn d_generic<S: GepSpec>(
    x: &mut TileMut<S::Elem>,
    u: TileRef<S::Elem>,
    v: TileRef<S::Elem>,
    w: Option<TileRef<S::Elem>>,
    k0: usize,
    nk: usize,
) {
    let (rows, cols) = (x.rows(), x.cols());
    let (gi0, gj0) = (x.row0(), x.col0());
    let mut it = 0;
    while it < rows {
        let iend = (it + I_TILE).min(rows);
        let mut jt = 0;
        while jt < cols {
            let jend = (jt + J_TILE).min(cols);
            for i in it..iend {
                for j in jt..jend {
                    let mut acc = x.at(i, j);
                    for k in 0..nk {
                        let gk = k0 + k;
                        if !S::sigma_i(gi0 + i, gk) || !S::sigma_j(gj0 + j, gk) {
                            continue;
                        }
                        let uval = u.at(i, k);
                        let wval = match &w {
                            Some(t) => t.at(k, k),
                            // w-less D: the spec ignores w; feed any
                            // operand to satisfy the call shape.
                            None => uval,
                        };
                        acc = S::f(acc, uval, v.at(k, j), wval);
                    }
                    x.set(i, j, acc);
                }
            }
            jt = jend;
        }
        it = iend;
    }
}

/// Register-blocked min-plus D kernel (FW-APSP): for each target row
/// segment, hoist `u[i][k]` and stream `v[k][j..]` with the segment
/// held in a scratch row. `+∞` source rows skip the whole segment
/// (value-identical: `∞ + v` never improves any cell).
fn d_minplus(x: &mut TileMut<f64>, u: TileRef<f64>, v: TileRef<f64>) {
    let (rows, cols) = (x.rows(), x.cols());
    let nk = u.cols();
    let mut scratch = [0.0f64; J_TILE];
    let mut it = 0;
    while it < rows {
        let iend = (it + I_TILE).min(rows);
        let mut jt = 0;
        while jt < cols {
            let jend = (jt + J_TILE).min(cols);
            let jw = jend - jt;
            for i in it..iend {
                for (s, j) in (jt..jend).enumerate() {
                    scratch[s] = x.at(i, j);
                }
                for k in 0..nk {
                    let dik = u.at(i, k);
                    if dik.is_infinite() {
                        continue;
                    }
                    minplus_row(&mut scratch[..jw], dik, &v, k, jt);
                }
                for (s, j) in (jt..jend).enumerate() {
                    x.set(i, j, scratch[s]);
                }
            }
            jt = jend;
        }
        it = iend;
    }
}

/// `acc[j] = min(acc[j], dik + v[k][jt + j])` over one scratch row —
/// the scalar loop the compiler can keep in registers.
#[inline(always)]
fn minplus_row(acc: &mut [f64], dik: f64, v: &TileRef<f64>, k: usize, jt: usize) {
    for (s, a) in acc.iter_mut().enumerate() {
        let via = dik + v.at(k, jt + s);
        if via < *a {
            *a = via;
        }
    }
}

/// Register-blocked max-min D kernel (widest path over
/// [`SemiringPaths<MaxMin>`]): `acc = max(acc, min(u, v))` via the very
/// same `f64::max`/`f64::min` calls the semiring ops compile to, so the
/// tiled result is bitwise identical to the generic loop. `-∞` source
/// rows (no path) skip the segment: `min(-∞, v) = -∞` never raises a
/// `max`.
fn d_maxmin(x: &mut TileMut<f64>, u: TileRef<f64>, v: TileRef<f64>) {
    let (rows, cols) = (x.rows(), x.cols());
    let nk = u.cols();
    let mut scratch = [0.0f64; J_TILE];
    let mut it = 0;
    while it < rows {
        let iend = (it + I_TILE).min(rows);
        let mut jt = 0;
        while jt < cols {
            let jend = (jt + J_TILE).min(cols);
            let jw = jend - jt;
            for i in it..iend {
                for (s, j) in (jt..jend).enumerate() {
                    scratch[s] = x.at(i, j);
                }
                for k in 0..nk {
                    let uik = u.at(i, k);
                    if uik == f64::NEG_INFINITY {
                        continue;
                    }
                    for (s, a) in scratch[..jw].iter_mut().enumerate() {
                        let via = uik.min(v.at(k, jt + s));
                        *a = a.max(via);
                    }
                }
                for (s, j) in (jt..jend).enumerate() {
                    x.set(i, j, scratch[s]);
                }
            }
            jt = jend;
        }
        it = iend;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::{gep_reference, GaussianElim, TransitiveClosure};
    use crate::iterative::block_kernel_generic;
    use crate::matrix::Matrix;
    use crate::tilegrid::phase_split;

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut next = rng(seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if next() % 5 < 2 {
                1.0 + (next() % 9) as f64
            } else {
                f64::INFINITY
            }
        })
    }

    fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut next = rng(seed);
        let mut m = Matrix::from_fn(n, n, |_, _| (next() % 1000) as f64 / 500.0 - 1.0);
        for i in 0..n {
            m.set(i, i, n as f64 + 1.0);
        }
        m
    }

    fn maxmin_matrix(n: usize, seed: u64) -> Matrix<MaxMin> {
        let mut next = rng(seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                MaxMin(f64::INFINITY)
            } else if next().is_multiple_of(3) {
                MaxMin((next() % 50) as f64)
            } else {
                MaxMin(f64::NEG_INFINITY)
            }
        })
    }

    /// Drive one full blocked GEP through `blocked_kernel` and compare
    /// bitwise against the Fig. 1 reference.
    fn blocked_gep_via<S: GepSpec>(c: &mut Matrix<S::Elem>, r: usize) {
        use crate::gep::block_active;
        let n = c.rows();
        let b = n / r;
        for kb in 0..r {
            let mut grid = c.view_mut().split_grid(r);
            let parts = phase_split(&mut grid, r, kb);
            let diag = parts.diag;
            blocked_kernel::<S>(Kind::A, diag, None, None, None);
            let diag_ref = diag.as_ref();
            let mut rows = Vec::new();
            for (j, t) in parts.row {
                if block_active::<S>(kb, j, kb, b) {
                    blocked_kernel::<S>(Kind::B, t, Some(diag_ref), None, Some(diag_ref));
                }
                rows.push((j, t.as_ref()));
            }
            let mut cols = Vec::new();
            for (i, t) in parts.col {
                if block_active::<S>(i, kb, kb, b) {
                    blocked_kernel::<S>(Kind::C, t, None, Some(diag_ref), Some(diag_ref));
                }
                cols.push((i, t.as_ref()));
            }
            for (i, j, t) in parts.trailing {
                if !block_active::<S>(i, j, kb, b) {
                    continue;
                }
                let u = cols.iter().find(|(ci, _)| *ci == i).unwrap().1;
                let v = rows.iter().find(|(rj, _)| *rj == j).unwrap().1;
                blocked_kernel::<S>(Kind::D, t, Some(u), Some(v), Some(diag_ref));
            }
        }
    }

    #[test]
    fn blocked_fw_bitwise_equals_reference() {
        // Sizes past one cache tile (J_TILE=128) and odd remainders.
        for &(n, r) in &[(24usize, 2usize), (36, 3), (160, 2), (150, 3)] {
            let mut tiled = dist_matrix(n, n as u64);
            let mut reference = tiled.clone();
            blocked_gep_via::<Tropical>(&mut tiled, r);
            gep_reference::<Tropical>(&mut reference);
            assert_eq!(tiled.first_difference(&reference), None, "n={n} r={r}");
        }
    }

    #[test]
    fn blocked_ge_bitwise_equals_reference() {
        for &(n, r) in &[(24usize, 2usize), (36, 3), (160, 2)] {
            let mut tiled = dd_matrix(n, n as u64 + 7);
            let mut reference = tiled.clone();
            blocked_gep_via::<GaussianElim>(&mut tiled, r);
            gep_reference::<GaussianElim>(&mut reference);
            assert_eq!(tiled.first_difference(&reference), None, "n={n} r={r}");
        }
    }

    #[test]
    fn blocked_maxmin_bitwise_equals_reference() {
        for &(n, r) in &[(24usize, 2usize), (150, 3)] {
            let mut tiled = maxmin_matrix(n, n as u64 + 1);
            let mut reference = tiled.clone();
            blocked_gep_via::<SemiringPaths<MaxMin>>(&mut tiled, r);
            gep_reference::<SemiringPaths<MaxMin>>(&mut reference);
            assert_eq!(tiled.first_difference(&reference), None, "n={n} r={r}");
        }
    }

    #[test]
    fn blocked_tc_equals_reference() {
        let mut next = rng(5);
        let mut tiled = Matrix::from_fn(20, 20, |i, j| i == j || next().is_multiple_of(5));
        let mut reference = tiled.clone();
        blocked_gep_via::<TransitiveClosure>(&mut tiled, 4);
        gep_reference::<TransitiveClosure>(&mut reference);
        assert_eq!(tiled.first_difference(&reference), None);
    }

    #[test]
    fn d_kernel_matches_generic_on_non_square_panels() {
        // Exercise the D path directly with a rectangular target whose
        // width straddles the tile boundary.
        for spec_seed in [1u64, 2, 3] {
            let n = 2 * 144; // 2×2 grid of 144-blocks: 144 > J_TILE
            let m = dist_matrix(n, spec_seed);
            let b = n / 2;
            let run = |tiled: bool| {
                let mut c = m.clone();
                let mut grid = c.view_mut().split_grid(2);
                let parts = phase_split(&mut grid, 2, 0);
                let diag = parts.diag.as_ref();
                let u = parts.col[0].1.as_ref();
                let v = parts.row[0].1.as_ref();
                let (_, _, t) = parts.trailing.into_iter().next().unwrap();
                if tiled {
                    blocked_kernel::<Tropical>(Kind::D, t, Some(u), Some(v), Some(diag));
                } else {
                    block_kernel_generic::<Tropical>(
                        Kind::D,
                        t,
                        Some(u),
                        Some(v),
                        Some(diag),
                        0,
                        b,
                    );
                }
                c
            };
            assert_eq!(run(true).first_difference(&run(false)), None);
        }
    }
}
