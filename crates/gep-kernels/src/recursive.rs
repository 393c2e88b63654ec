//! Parametric r-way recursive divide-&-conquer GEP kernels (Fig. 4).
//!
//! The four mutually recursive functions `A`, `B`, `C`, `D` mirror
//! `A_GE/B_GE/C_GE/D_GE` of the paper, generalized over any
//! [`GepSpec`]: the loop bounds of Fig. 4 (e.g. `i ∈ [k+1, r-1]` for GE
//! versus `i ≠ k` for FW-APSP) fall out of the spec's Σ_G
//! range-activity pruning rather than being hard-coded per problem.
//!
//! Parallel structure per phase `k` of a subdivided tile
//! (the fork-join that the paper offloads to OpenMP, here to
//! [`par_pool::Pool`]):
//!
//! ```text
//! A:  A(X_kk) ; par { B(X_kj), C(X_ik) } ; par { D(X_ij) }
//! B:  par { B(X_kj) } ; par { D(X_ij), i≠k }
//! C:  par { C(X_ik) } ; par { D(X_ij), j≠k }
//! D:  par { D(X_ij) }
//! ```
//!
//! Recursion stops at tiles of side ≤ `base` (or whose side the fan-out
//! `r` no longer divides), where the loop-based
//! [`crate::iterative::block_kernel`] runs. Because each phase-k update
//! reads only phase-stable operands, the result is **bitwise identical**
//! to the naive Fig. 1 loop for every `(r, base, thread-count)`.

use par_pool::Pool;

use crate::gep::{GepSpec, Kind};
use crate::iterative::block_kernel;
use crate::matrix::{Matrix, TileMut, TileRef};
use crate::tilegrid::{col_split, phase_split, row_split};

/// Tuning parameters of an r-way R-DP execution: the fan-out
/// `r` (the paper's `r_shared` when run inside an executor) and the
/// base-case tile side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecConfig {
    /// Recursive fan-out (`r_shared`); must be ≥ 2.
    pub r: usize,
    /// Tiles with side ≤ `base` run the iterative kernel.
    pub base: usize,
}

impl RecConfig {
    /// Panics if `r < 2` or `base == 0`.
    pub fn new(r: usize, base: usize) -> Self {
        assert!(r >= 2, "recursive fan-out must be at least 2, got {r}");
        assert!(base >= 1, "base-case size must be positive");
        Self { r, base }
    }
}

impl Default for RecConfig {
    fn default() -> Self {
        Self { r: 2, base: 64 }
    }
}

impl RecConfig {
    #[inline]
    fn recurse(&self, side: usize) -> bool {
        side > self.base && side >= self.r && side.is_multiple_of(self.r)
    }

    /// Does [`rec_kernel`] split a `kind` tile of `rows × cols` whose
    /// phase spans `nk` values of k, or run it as one base case? (The
    /// k span is the tile's own side for A, B and C.) A caller that
    /// gets `false` may run [`block_kernel`] itself, with no pool.
    #[inline]
    pub fn splits(&self, kind: Kind, rows: usize, cols: usize, nk: usize) -> bool {
        let divides = |side: usize| side.is_multiple_of(self.r);
        match kind {
            Kind::A => self.recurse(rows),
            Kind::B => self.recurse(rows) && divides(cols),
            Kind::C => self.recurse(cols) && divides(rows),
            Kind::D => self.recurse(nk) && divides(rows) && divides(cols),
        }
    }
}

/// May any element of the tile spanning global `rows × cols` be updated
/// by a phase whose `k` spans `ks`?
#[inline]
fn tile_active<S: GepSpec>(rows: (usize, usize), cols: (usize, usize), ks: (usize, usize)) -> bool {
    S::range_row_active(rows.0, rows.1, ks.0, ks.1)
        && S::range_col_active(cols.0, cols.1, ks.0, ks.1)
}

#[inline]
fn span_rows<E: crate::matrix::Elem>(t: &TileMut<E>) -> (usize, usize) {
    (t.row0(), t.row0() + t.rows())
}

#[inline]
fn span_cols<E: crate::matrix::Elem>(t: &TileMut<E>) -> (usize, usize) {
    (t.col0(), t.col0() + t.cols())
}

#[inline]
fn kspan<E: crate::matrix::Elem>(t: &TileRef<E>) -> (usize, usize) {
    debug_assert_eq!(t.row0(), t.col0());
    (t.row0(), t.row0() + t.rows())
}

/// Function `A` of Fig. 4: the self-referential diagonal solve.
pub fn rec_a<S: GepSpec>(pool: &Pool, cfg: &RecConfig, mut x: TileMut<S::Elem>) {
    assert_eq!(x.rows(), x.cols(), "A runs on square tiles");
    if !cfg.splits(Kind::A, x.rows(), x.cols(), x.rows()) {
        block_kernel::<S>(Kind::A, &mut x, None, None, None);
        return;
    }
    let r = cfg.r;
    let mut grid = x.split_grid(r);
    for k in 0..r {
        // Stage 1: recursive A on the diagonal sub-tile.
        // Stage 2: B over the row panel ∥ C over the column panel.
        {
            let parts = phase_split(&mut grid, r, k);
            rec_a::<S>(pool, cfg, parts.diag.reborrow());
            let diag = parts.diag.as_ref();
            let ks = kspan(&diag);
            pool.scope(|s| {
                for (_, t) in parts.row {
                    if tile_active::<S>(span_rows(t), span_cols(t), ks) {
                        s.spawn(move |_| rec_b::<S>(pool, cfg, t.reborrow(), diag));
                    }
                }
                for (_, t) in parts.col {
                    if tile_active::<S>(span_rows(t), span_cols(t), ks) {
                        s.spawn(move |_| rec_c::<S>(pool, cfg, t.reborrow(), diag));
                    }
                }
            });
        }
        // Stage 3: D over the trailing tiles, reading the updated panels.
        {
            let parts = phase_split(&mut grid, r, k);
            let diag = parts.diag.as_ref();
            let ks = kspan(&diag);
            let row_refs: Vec<(usize, TileRef<S::Elem>)> =
                parts.row.iter().map(|(j, t)| (*j, t.as_ref())).collect();
            let col_refs: Vec<(usize, TileRef<S::Elem>)> =
                parts.col.iter().map(|(i, t)| (*i, t.as_ref())).collect();
            pool.scope(|s| {
                for (i, j, t) in parts.trailing {
                    if !tile_active::<S>(span_rows(t), span_cols(t), ks) {
                        continue;
                    }
                    let u = col_refs
                        .iter()
                        .find(|(ci, _)| *ci == i)
                        .expect("col panel")
                        .1;
                    let v = row_refs
                        .iter()
                        .find(|(rj, _)| *rj == j)
                        .expect("row panel")
                        .1;
                    s.spawn(move |_| rec_d::<S>(pool, cfg, t.reborrow(), u, v, Some(diag)));
                }
            });
        }
    }
}

/// Function `B` of Fig. 4: updates a tile in the diagonal's block-row;
/// the `c[k,j]` operand aliases the tile itself, `u = w = u_diag`.
pub fn rec_b<S: GepSpec>(
    pool: &Pool,
    cfg: &RecConfig,
    mut x: TileMut<S::Elem>,
    u_diag: TileRef<S::Elem>,
) {
    assert_eq!(x.rows(), u_diag.rows(), "B tile shares the diagonal's rows");
    assert_eq!(x.row0(), u_diag.row0());
    if !cfg.splits(Kind::B, x.rows(), x.cols(), x.rows()) {
        block_kernel::<S>(Kind::B, &mut x, Some(u_diag), None, Some(u_diag));
        return;
    }
    let r = cfg.r;
    let ugrid = u_diag.split_grid(r);
    let mut grid = x.split_grid(r);
    for k in 0..r {
        let ukk = ugrid[k * r + k];
        let ks = kspan(&ukk);
        // Stage 1: B on row k of the sub-grid.
        {
            let (row_k, _) = row_split(&mut grid, r, k);
            pool.scope(|s| {
                for (_, t) in row_k {
                    if tile_active::<S>(span_rows(t), span_cols(t), ks) {
                        s.spawn(move |_| rec_b::<S>(pool, cfg, t.reborrow(), ukk));
                    }
                }
            });
        }
        // Stage 2: D on every other row, reading row k.
        {
            let (row_k, rest) = row_split(&mut grid, r, k);
            let vrefs: Vec<(usize, TileRef<S::Elem>)> =
                row_k.iter().map(|(j, t)| (*j, t.as_ref())).collect();
            pool.scope(|s| {
                for (i, j, t) in rest {
                    if !tile_active::<S>(span_rows(t), span_cols(t), ks) {
                        continue;
                    }
                    let u = ugrid[i * r + k];
                    let v = vrefs.iter().find(|(rj, _)| *rj == j).expect("row k").1;
                    s.spawn(move |_| rec_d::<S>(pool, cfg, t.reborrow(), u, v, Some(ukk)));
                }
            });
        }
    }
}

/// Function `C` of Fig. 4: updates a tile in the diagonal's
/// block-column; the `c[i,k]` operand aliases the tile, `v = w = v_diag`.
pub fn rec_c<S: GepSpec>(
    pool: &Pool,
    cfg: &RecConfig,
    mut x: TileMut<S::Elem>,
    v_diag: TileRef<S::Elem>,
) {
    assert_eq!(
        x.cols(),
        v_diag.cols(),
        "C tile shares the diagonal's columns"
    );
    assert_eq!(x.col0(), v_diag.col0());
    if !cfg.splits(Kind::C, x.rows(), x.cols(), x.cols()) {
        block_kernel::<S>(Kind::C, &mut x, None, Some(v_diag), Some(v_diag));
        return;
    }
    let r = cfg.r;
    let vgrid = v_diag.split_grid(r);
    let mut grid = x.split_grid(r);
    for k in 0..r {
        let vkk = vgrid[k * r + k];
        let ks = kspan(&vkk);
        // Stage 1: C on column k of the sub-grid.
        {
            let (col_k, _) = col_split(&mut grid, r, k);
            pool.scope(|s| {
                for (_, t) in col_k {
                    if tile_active::<S>(span_rows(t), span_cols(t), ks) {
                        s.spawn(move |_| rec_c::<S>(pool, cfg, t.reborrow(), vkk));
                    }
                }
            });
        }
        // Stage 2: D on every other column, reading column k.
        {
            let (col_k, rest) = col_split(&mut grid, r, k);
            let urefs: Vec<(usize, TileRef<S::Elem>)> =
                col_k.iter().map(|(i, t)| (*i, t.as_ref())).collect();
            pool.scope(|s| {
                for (i, j, t) in rest {
                    if !tile_active::<S>(span_rows(t), span_cols(t), ks) {
                        continue;
                    }
                    let u = urefs.iter().find(|(ci, _)| *ci == i).expect("col k").1;
                    let v = vgrid[k * r + j];
                    s.spawn(move |_| rec_d::<S>(pool, cfg, t.reborrow(), u, v, Some(vkk)));
                }
            });
        }
    }
}

/// Function `D` of Fig. 4: fully disjoint update (the semiring-GEMM-like
/// workhorse); all operands come from other tiles, so every phase is a
/// single fully parallel stage.
pub fn rec_d<S: GepSpec>(
    pool: &Pool,
    cfg: &RecConfig,
    mut x: TileMut<S::Elem>,
    u: TileRef<S::Elem>,
    v: TileRef<S::Elem>,
    w: Option<TileRef<S::Elem>>,
) {
    assert_eq!(u.rows(), x.rows());
    assert_eq!(v.cols(), x.cols());
    assert!(
        w.is_some() || !S::USES_W,
        "D needs w unless the spec ignores it"
    );
    if let Some(w) = &w {
        assert_eq!(u.cols(), w.rows());
    }
    if !cfg.splits(Kind::D, x.rows(), x.cols(), u.cols()) {
        block_kernel::<S>(Kind::D, &mut x, Some(u), Some(v), w);
        return;
    }
    let r = cfg.r;
    let ugrid = u.split_grid(r);
    let vgrid = v.split_grid(r);
    let wgrid = w.map(|w| w.split_grid(r));
    let mut grid = x.split_grid(r);
    for k in 0..r {
        let wkk = wgrid.as_ref().map(|g| g[k * r + k]);
        // k-range from w when present, else from u's column window.
        let u_any = ugrid[k]; // block (0, k): columns = the k-range
        let ks = match &wkk {
            Some(t) => kspan(t),
            None => (u_any.col0(), u_any.col0() + u_any.cols()),
        };
        pool.scope(|s| {
            for (idx, t) in grid.iter_mut().enumerate() {
                let (i, j) = (idx / r, idx % r);
                if !tile_active::<S>(span_rows(t), span_cols(t), ks) {
                    continue;
                }
                let u_ik = ugrid[i * r + k];
                let v_kj = vgrid[k * r + j];
                s.spawn(move |_| rec_d::<S>(pool, cfg, t.reborrow(), u_ik, v_kj, wkk));
            }
        });
    }
}

/// Run the whole GEP computation on `c` with the r-way R-DP algorithm.
pub fn rway_gep<S: GepSpec>(pool: &Pool, cfg: &RecConfig, c: &mut Matrix<S::Elem>) {
    rec_a::<S>(pool, cfg, c.view_mut());
}

/// Kind-dispatched entry point used by the distributed executors: runs
/// the recursive kernel of the given [`Kind`] on one distribution block.
///
/// For `B`/`C` the diagonal operand is passed once (it serves both the
/// aliased and the `w` role); for `A` no operands are needed.
pub fn rec_kernel<S: GepSpec>(
    pool: &Pool,
    cfg: &RecConfig,
    kind: Kind,
    x: TileMut<S::Elem>,
    u: Option<TileRef<S::Elem>>,
    v: Option<TileRef<S::Elem>>,
    w: Option<TileRef<S::Elem>>,
) {
    match kind {
        Kind::A => rec_a::<S>(pool, cfg, x),
        Kind::B => rec_b::<S>(pool, cfg, x, w.expect("B needs the diagonal")),
        Kind::C => rec_c::<S>(pool, cfg, x, w.expect("C needs the diagonal")),
        Kind::D => rec_d::<S>(
            pool,
            cfg,
            x,
            u.expect("D needs the column panel"),
            v.expect("D needs the row panel"),
            w,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::{gep_reference, GaussianElim, TransitiveClosure, Tropical};
    use testkit::Rng;

    fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = Rng::new(seed);
        let mut m = Matrix::from_fn(n, n, |_, _| rng.range(-1.0..1.0));
        for i in 0..n {
            m.set(i, i, n as f64 + 1.0 + rng.range(0.0..1.0));
        }
        m
    }

    fn dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = Rng::new(seed);
        // Integer weights ⇒ exact min-plus arithmetic ⇒ bitwise equality
        // across execution orders (see crate docs).
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if rng.range(0.0..1.0) < 0.35 {
                rng.range(1u32..=9) as f64
            } else {
                f64::INFINITY
            }
        })
    }

    #[test]
    fn splits_names_the_tiles_the_recursion_divides() {
        let cfg = RecConfig::new(2, 4);
        let cases = [
            (Kind::A, (8, 8, 8), true),
            (Kind::A, (4, 4, 4), false),
            (Kind::B, (8, 6, 8), true),
            (Kind::B, (8, 5, 8), false),
            (Kind::C, (6, 8, 8), true),
            (Kind::C, (5, 8, 8), false),
            (Kind::D, (6, 6, 8), true),
            (Kind::D, (6, 6, 4), false),
            (Kind::D, (7, 6, 8), false),
        ];
        for (kind, (rows, cols, nk), want) in cases {
            assert_eq!(
                cfg.splits(kind, rows, cols, nk),
                want,
                "{kind:?} {rows}x{cols} nk={nk}"
            );
        }
    }

    #[test]
    fn rway_ge_bitwise_equals_reference_across_configs() {
        let pool = Pool::new(4);
        for &(n, r, base) in &[
            (16, 2, 2),
            (16, 4, 2),
            (16, 4, 4),
            (24, 2, 3),
            (27, 3, 3),
            (32, 4, 1),
            (32, 8, 4),
        ] {
            let mut rec = dd_matrix(n, (n * r + base) as u64);
            let mut reference = rec.clone();
            rway_gep::<GaussianElim>(&pool, &RecConfig::new(r, base), &mut rec);
            gep_reference::<GaussianElim>(&mut reference);
            assert_eq!(
                rec.first_difference(&reference),
                None,
                "n={n} r={r} base={base}"
            );
        }
    }

    #[test]
    fn rway_fw_bitwise_equals_reference_across_configs() {
        let pool = Pool::new(4);
        for &(n, r, base) in &[(16, 2, 2), (16, 4, 4), (24, 2, 3), (32, 8, 4), (32, 16, 2)] {
            let mut rec = dist_matrix(n, (n + r * 31 + base) as u64);
            let mut reference = rec.clone();
            rway_gep::<Tropical>(&pool, &RecConfig::new(r, base), &mut rec);
            gep_reference::<Tropical>(&mut reference);
            assert_eq!(
                rec.first_difference(&reference),
                None,
                "n={n} r={r} base={base}"
            );
        }
    }

    #[test]
    fn rway_tc_equals_reference() {
        let pool = Pool::new(3);
        let mut rng = Rng::new(2024);
        let mut rec = Matrix::from_fn(24, 24, |i, j| i == j || rng.range(0.0..1.0) < 0.15);
        let mut reference = rec.clone();
        rway_gep::<TransitiveClosure>(&pool, &RecConfig::new(2, 3), &mut rec);
        gep_reference::<TransitiveClosure>(&mut reference);
        assert_eq!(rec.first_difference(&reference), None);
    }

    #[test]
    fn single_threaded_pool_gives_identical_bits() {
        let pool1 = Pool::new(1);
        let pool4 = Pool::new(4);
        let cfg = RecConfig::new(4, 2);
        let mut a = dd_matrix(32, 555);
        let mut b = a.clone();
        rway_gep::<GaussianElim>(&pool1, &cfg, &mut a);
        rway_gep::<GaussianElim>(&pool4, &cfg, &mut b);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn rec_kernel_dispatch_matches_blocked_composition() {
        // Run a full blocked phase manually through rec_kernel and
        // compare with the reference — exercises the B/C/D dispatch the
        // distributed executors use.
        let pool = Pool::new(2);
        let cfg = RecConfig::new(2, 2);
        let n = 16;
        let r = 2; // distribution grid
        let mut m = dd_matrix(n, 77);
        let mut reference = m.clone();
        gep_reference::<GaussianElim>(&mut reference);
        for kb in 0..r {
            let mut grid = m.view_mut().split_grid(r);
            let parts = crate::tilegrid::phase_split(&mut grid, r, kb);
            rec_kernel::<GaussianElim>(
                &pool,
                &cfg,
                Kind::A,
                parts.diag.reborrow(),
                None,
                None,
                None,
            );
            let diag = parts.diag.as_ref();
            let mut row_refs = Vec::new();
            for (j, t) in parts.row {
                if crate::gep::block_active::<GaussianElim>(kb, j, kb, n / r) {
                    rec_kernel::<GaussianElim>(
                        &pool,
                        &cfg,
                        Kind::B,
                        t.reborrow(),
                        None,
                        None,
                        Some(diag),
                    );
                }
                row_refs.push((j, t.as_ref()));
            }
            let mut col_refs = Vec::new();
            for (i, t) in parts.col {
                if crate::gep::block_active::<GaussianElim>(i, kb, kb, n / r) {
                    rec_kernel::<GaussianElim>(
                        &pool,
                        &cfg,
                        Kind::C,
                        t.reborrow(),
                        None,
                        None,
                        Some(diag),
                    );
                }
                col_refs.push((i, t.as_ref()));
            }
            for (i, j, t) in parts.trailing {
                if !crate::gep::block_active::<GaussianElim>(i, j, kb, n / r) {
                    continue;
                }
                let u = col_refs.iter().find(|(ci, _)| *ci == i).unwrap().1;
                let v = row_refs.iter().find(|(rj, _)| *rj == j).unwrap().1;
                rec_kernel::<GaussianElim>(
                    &pool,
                    &cfg,
                    Kind::D,
                    t.reborrow(),
                    Some(u),
                    Some(v),
                    Some(diag),
                );
            }
        }
        assert_eq!(m.first_difference(&reference), None);
    }

    #[test]
    fn non_divisible_sizes_fall_back_to_base_kernel() {
        // 20 % 8 != 0: the top call can't split 8-way and must still be
        // correct via the iterative fallback.
        let pool = Pool::new(2);
        let mut rec = dd_matrix(20, 31);
        let mut reference = rec.clone();
        rway_gep::<GaussianElim>(&pool, &RecConfig::new(8, 2), &mut rec);
        gep_reference::<GaussianElim>(&mut reference);
        assert_eq!(rec.first_difference(&reference), None);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn config_rejects_r1() {
        let _ = RecConfig::new(1, 16);
    }
}
