//! Loop-based ("iterative") kernels — the paper's baseline kernel type.
//!
//! [`block_kernel`] applies one phase's worth of GEP updates to a single
//! block with the [`Kind`]-specific aliasing, exactly the role the
//! Numba-JIT kernels play inside the paper's Spark executors.
//! [`blocked_gep`] composes block kernels into a full blocked execution
//! (Venkataraman et al.'s blocked FW generalized to GEP) — the
//! single-machine analogue of the distributed algorithm, used as a
//! mid-level correctness oracle.

use crate::gep::{block_active, GepSpec, Kind};
use crate::matrix::{Matrix, TileMut, TileRef};

/// Apply the phase updates `c[i,j] = f(c[i,j], c[i,k], c[k,j], c[k,k])`
/// for every `k` in the diagonal block's range to the block behind `x`.
///
/// `u`, `v`, `w` are the operand tiles; `None` means the operand aliases
/// `x` (see [`Kind`]). The required pattern per kind:
///
/// | kind | `u`       | `v`       | `w`       |
/// |------|-----------|-----------|-----------|
/// | A    | aliases x | aliases x | aliases x |
/// | B    | diagonal  | aliases x | diagonal  |
/// | C    | aliases x | diagonal  | diagonal  |
/// | D    | col panel | row panel | diagonal  |
///
/// Σ_G is evaluated with **global** indices from the tiles' offsets, so
/// the same kernel serves any block position. Kind D runs one
/// register-blocked loop for every spec; A/B/C take the spec's
/// [`GepSpec::fast_block_kernel`] hook, else the generic loop.
///
/// The body is compiled twice: once for baseline x86-64 and once with
/// AVX2, which runs when the CPU has it. Both copies make the same IEEE
/// operations in the same order on every element (Rust never fuses a
/// multiply and an add), so they return the same bits.
pub fn block_kernel<S: GepSpec>(
    kind: Kind,
    x: &mut TileMut<S::Elem>,
    u: Option<TileRef<S::Elem>>,
    v: Option<TileRef<S::Elem>>,
    w: Option<TileRef<S::Elem>>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU has AVX2, the one feature the copy
        // is compiled for.
        return unsafe { block_kernel_avx2::<S>(kind, x, u, v, w) };
    }
    block_kernel_body::<S>(kind, x, u, v, w);
}

/// [`block_kernel_body`] compiled for AVX2: the body is inlined whole,
/// so its loops vectorise on 4-lane `f64` registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_kernel_avx2<S: GepSpec>(
    kind: Kind,
    x: &mut TileMut<S::Elem>,
    u: Option<TileRef<S::Elem>>,
    v: Option<TileRef<S::Elem>>,
    w: Option<TileRef<S::Elem>>,
) {
    block_kernel_body::<S>(kind, x, u, v, w);
}

/// The one body of [`block_kernel`]; called directly it is the portable
/// copy.
#[inline(always)]
fn block_kernel_body<S: GepSpec>(
    kind: Kind,
    x: &mut TileMut<S::Elem>,
    u: Option<TileRef<S::Elem>>,
    v: Option<TileRef<S::Elem>>,
    w: Option<TileRef<S::Elem>>,
) {
    match kind {
        Kind::A => {
            assert!(u.is_none() && v.is_none() && w.is_none(), "A aliases all");
            assert_eq!(x.rows(), x.cols(), "A runs on square diagonal blocks");
        }
        Kind::B => {
            assert!(u.is_some() && v.is_none() && w.is_some(), "B: u,w external");
        }
        Kind::C => {
            assert!(u.is_none() && v.is_some() && w.is_some(), "C: v,w external");
        }
        Kind::D => {
            assert!(u.is_some() && v.is_some(), "D: u, v external");
            assert!(
                w.is_some() || !S::USES_W,
                "D needs w unless the spec ignores it"
            );
        }
    }
    // k iterates over the diagonal block's global range: taken from `w`
    // when external, from `u`'s columns for a w-less D, otherwise x *is*
    // the diagonal block (kind A).
    let (k0, nk) = match (&w, kind) {
        (Some(w), _) => {
            assert_eq!(w.row0(), w.col0(), "w must be a diagonal block");
            assert_eq!(w.rows(), w.cols());
            (w.row0(), w.rows())
        }
        (None, Kind::D) => {
            let u = u.as_ref().expect("D has u");
            (u.col0(), u.cols())
        }
        (None, _) => (x.row0(), x.rows()),
    };
    if let Some(u) = &u {
        assert_eq!(u.rows(), x.rows(), "u is x-rows × k-range");
        assert_eq!(u.cols(), nk);
        assert_eq!(u.row0(), x.row0());
    }
    if let Some(v) = &v {
        assert_eq!(v.rows(), nk, "v is k-range × x-cols");
        assert_eq!(v.cols(), x.cols());
        assert_eq!(v.col0(), x.col0());
    }
    if let (Kind::D, Some(u), Some(v)) = (kind, u, v) {
        kernel_d::<S>(x, u, v, w, k0, nk);
        return;
    }
    if S::fast_block_kernel(kind, x, u, v, w) {
        return;
    }
    block_kernel_generic::<S>(kind, x, u, v, w, k0, nk);
}

/// Rows × columns of the `x` patch [`kernel_d`] keeps in registers.
const MR: usize = 4;
const NR: usize = 8;

/// Kind D for every spec. No operand aliases `x`, so each element's
/// k-sequence can run innermost: an `MR×NR` patch of `x` stays in
/// locals for the whole k range, and each element sees the same `f`
/// calls in the same order as in [`block_kernel_generic`] — bitwise
/// identical for every spec and every input. Σ_G is tested once per
/// patch: a patch inside it for the whole k range runs `f` with no
/// per-element branch, so its lanes share vectors. Other patches, and
/// the edge rows and columns, test each element.
#[inline(always)]
fn kernel_d<S: GepSpec>(
    x: &mut TileMut<S::Elem>,
    u: TileRef<S::Elem>,
    v: TileRef<S::Elem>,
    w: Option<TileRef<S::Elem>>,
    k0: usize,
    nk: usize,
) {
    let (gi0, gj0) = (x.row0(), x.col0());
    // A w-less D feeds `u` as `w`, as the generic loop does.
    let wkk = |uik: S::Elem, k: usize| w.as_ref().map_or(uik, |w| w.at(k, k));
    // Element (i, j) after phase step k: `f`, or `acc` outside Σ_G.
    let step = |acc: S::Elem, i: usize, j: usize, k: usize| {
        let (gk, uik) = (k0 + k, u.at(i, k));
        if S::sigma_i(gi0 + i, gk) && S::sigma_j(gj0 + j, gk) {
            S::f(acc, uik, v.at(k, j), wkk(uik, k))
        } else {
            acc
        }
    };
    let (rows, cols) = (x.rows(), x.cols());
    let (pr, pc) = (rows - rows % MR, cols - cols % NR);
    for i in (0..pr).step_by(MR) {
        let rows_inside = (k0..k0 + nk).all(|gk| (0..MR).all(|a| S::sigma_i(gi0 + i + a, gk)));
        for j in (0..pc).step_by(NR) {
            let inside =
                rows_inside && (k0..k0 + nk).all(|gk| (0..NR).all(|b| S::sigma_j(gj0 + j + b, gk)));
            let mut acc: [[S::Elem; NR]; MR] =
                std::array::from_fn(|a| std::array::from_fn(|b| x.at(i + a, j + b)));
            if inside {
                for k in 0..nk {
                    let vk: [S::Elem; NR] = std::array::from_fn(|b| v.at(k, j + b));
                    for (a, row) in acc.iter_mut().enumerate() {
                        let uik = u.at(i + a, k);
                        let wk = wkk(uik, k);
                        for (e, &vkj) in row.iter_mut().zip(&vk) {
                            *e = S::f(*e, uik, vkj, wk);
                        }
                    }
                }
            } else {
                for k in 0..nk {
                    for (a, row) in acc.iter_mut().enumerate() {
                        for (b, e) in row.iter_mut().enumerate() {
                            *e = step(*e, i + a, j + b, k);
                        }
                    }
                }
            }
            for (a, row) in acc.iter().enumerate() {
                for (b, &e) in row.iter().enumerate() {
                    x.set(i + a, j + b, e);
                }
            }
        }
    }
    // The columns right of the patches, then every column below them.
    for i in 0..rows {
        for j in if i < pr { pc } else { 0 }..cols {
            let acc = (0..nk).fold(x.at(i, j), |acc, k| step(acc, i, j, k));
            x.set(i, j, acc);
        }
    }
}

/// The generic (non-specialized) triple loop — public so specialized
/// kernels can be cross-checked against it.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn block_kernel_generic<S: GepSpec>(
    kind: Kind,
    x: &mut TileMut<S::Elem>,
    u: Option<TileRef<S::Elem>>,
    v: Option<TileRef<S::Elem>>,
    w: Option<TileRef<S::Elem>>,
    k0: usize,
    nk: usize,
) {
    let (gi0, gj0) = (x.row0(), x.col0());
    for k in 0..nk {
        let gk = k0 + k;
        for i in 0..x.rows() {
            if !S::sigma_i(gi0 + i, gk) {
                continue;
            }
            for j in 0..x.cols() {
                if !S::sigma_j(gj0 + j, gk) {
                    continue;
                }
                // Operand reads stay inside the loop: for kinds where an
                // operand aliases x this preserves the in-place Fig. 1
                // semantics exactly.
                let uval = match &u {
                    Some(t) => t.at(i, k),
                    None => x.at(i, k),
                };
                let vval = match &v {
                    Some(t) => t.at(k, j),
                    None => x.at(k, j),
                };
                let wval = match (&w, kind) {
                    (Some(t), _) => t.at(k, k),
                    // w-less D: the spec ignores w, so feed it any
                    // operand (u) to satisfy the call shape.
                    (None, Kind::D) => uval,
                    (None, _) => x.at(k, k),
                };
                x.set(i, j, S::f(x.at(i, j), uval, vval, wval));
            }
        }
    }
}

/// Blocked GEP over an `n×n` matrix decomposed into `r×r` blocks
/// (`n % r == 0`), running the A/B/C/D block kernels sequentially in
/// dependency order. Bitwise-equal to [`crate::gep::gep_reference`].
pub fn blocked_gep<S: GepSpec>(c: &mut Matrix<S::Elem>, r: usize) {
    let n = c.rows();
    assert_eq!(n, c.cols());
    assert!(r > 0 && n.is_multiple_of(r), "n={n} not divisible by r={r}");
    let b = n / r;
    for kb in 0..r {
        let mut grid = c.view_mut().split_grid(r);
        let parts = crate::tilegrid::phase_split(&mut grid, r, kb);
        let diag = parts.diag;
        block_kernel::<S>(Kind::A, diag, None, None, None);
        let diag_ref = diag.as_ref();
        let mut row_refs: Vec<(usize, TileRef<S::Elem>)> = Vec::new();
        for (j, t) in parts.row {
            if block_active::<S>(kb, j, kb, b) {
                block_kernel::<S>(Kind::B, t, Some(diag_ref), None, Some(diag_ref));
            }
            row_refs.push((j, t.as_ref()));
        }
        let mut col_refs: Vec<(usize, TileRef<S::Elem>)> = Vec::new();
        for (i, t) in parts.col {
            if block_active::<S>(i, kb, kb, b) {
                block_kernel::<S>(Kind::C, t, None, Some(diag_ref), Some(diag_ref));
            }
            col_refs.push((i, t.as_ref()));
        }
        for (i, j, t) in parts.trailing {
            if !block_active::<S>(i, j, kb, b) {
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
            block_kernel::<S>(Kind::D, t, Some(u), Some(v), Some(diag_ref));
        }
    }
}

/// Direct transcription of Fig. 2 (iterative GE without pivoting), kept
/// independent of the GEP machinery as a second oracle.
pub fn gaussian_elim_reference(x: &mut Matrix<f64>) {
    let n = x.rows();
    assert_eq!(n, x.cols());
    let mut x = x.view_mut();
    for k in 0..n {
        for i in (k + 1)..n {
            for j in (k + 1)..n {
                let upd = x.at(i, j) - x.at(i, k) * x.at(k, j) / x.at(k, k);
                x.set(i, j, upd);
            }
        }
    }
}

/// Direct transcription of Fig. 5 (iterative FW-APSP), independent of
/// the GEP machinery.
pub fn floyd_warshall_reference(d: &mut Matrix<f64>) {
    let n = d.rows();
    assert_eq!(n, d.cols());
    let mut d = d.view_mut();
    for k in 0..n {
        for i in 0..n {
            let dik = d.at(i, k);
            for j in 0..n {
                let via = dik + d.at(k, j);
                if via < d.at(i, j) {
                    d.set(i, j, via);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::{gep_reference, GaussianElim, TransitiveClosure, Tropical};
    use testkit::Rng;

    fn random_dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
        // Diagonally dominant ⇒ GE without pivoting is well defined.
        let mut rng = Rng::new(seed);
        let mut m = Matrix::from_fn(n, n, |_, _| rng.range(-1.0..1.0));
        for i in 0..n {
            m.set(i, i, n as f64 + 1.0 + rng.range(0.0..1.0));
        }
        m
    }

    fn random_dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = Rng::new(seed);
        // Integer-valued weights: min-plus relaxations are then exact in
        // f64 regardless of association order, so every execution order
        // gives bitwise-identical distances.
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if rng.range(0.0..1.0) < 0.4 {
                rng.range(1u32..=9) as f64
            } else {
                f64::INFINITY
            }
        })
    }

    #[test]
    fn gep_ge_matches_fig2_reference() {
        let mut a = random_dd_matrix(24, 7);
        let mut b = a.clone();
        gep_reference::<GaussianElim>(&mut a);
        gaussian_elim_reference(&mut b);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn gep_fw_matches_fig5_reference() {
        let mut a = random_dist_matrix(24, 3);
        let mut b = a.clone();
        gep_reference::<Tropical>(&mut a);
        floyd_warshall_reference(&mut b);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn blocked_ge_bitwise_equals_reference() {
        for &(n, r) in &[(12, 2), (12, 3), (16, 4), (20, 5), (24, 24)] {
            let mut blocked = random_dd_matrix(n, n as u64);
            let mut reference = blocked.clone();
            blocked_gep::<GaussianElim>(&mut blocked, r);
            gep_reference::<GaussianElim>(&mut reference);
            assert_eq!(blocked.first_difference(&reference), None, "n={n} r={r}");
        }
    }

    #[test]
    fn blocked_fw_bitwise_equals_reference() {
        for &(n, r) in &[(12, 2), (12, 4), (18, 3), (16, 8)] {
            let mut blocked = random_dist_matrix(n, n as u64 + 100);
            let mut reference = blocked.clone();
            blocked_gep::<Tropical>(&mut blocked, r);
            gep_reference::<Tropical>(&mut reference);
            assert_eq!(blocked.first_difference(&reference), None, "n={n} r={r}");
        }
    }

    #[test]
    fn blocked_tc_equals_reference() {
        let mut rng = Rng::new(99);
        let mut blocked = Matrix::from_fn(16, 16, |i, j| i == j || rng.range(0u32..5) == 0);
        let mut reference = blocked.clone();
        blocked_gep::<TransitiveClosure>(&mut blocked, 4);
        gep_reference::<TransitiveClosure>(&mut reference);
        assert_eq!(blocked.first_difference(&reference), None);
    }

    #[test]
    fn block_kernel_r_equals_one_is_whole_matrix() {
        let mut a = random_dd_matrix(8, 42);
        let mut b = a.clone();
        blocked_gep::<GaussianElim>(&mut a, 1);
        gep_reference::<GaussianElim>(&mut b);
        assert_eq!(a.first_difference(&b), None);
    }

    /// Run `kind` on a copy of `x` placed at global `at` through
    /// [`block_kernel`] (the AVX2 copy on a CPU that has it), through
    /// the portable body directly and through [`block_kernel_generic`],
    /// and compare the tables bit for bit (−0.0 and NaN count).
    #[allow(clippy::too_many_arguments)]
    fn assert_matches_generic<S: GepSpec>(
        kind: Kind,
        x: &Matrix<S::Elem>,
        at: (usize, usize),
        u: Option<TileRef<S::Elem>>,
        v: Option<TileRef<S::Elem>>,
        w: Option<TileRef<S::Elem>>,
        (k0, nk): (usize, usize),
        bits: fn(S::Elem) -> u64,
    ) {
        let (mut fast, mut portable, mut generic) = (x.clone(), x.clone(), x.clone());
        block_kernel::<S>(kind, &mut fast.view_mut_at(at.0, at.1), u, v, w);
        block_kernel_body::<S>(kind, &mut portable.view_mut_at(at.0, at.1), u, v, w);
        let mut g = generic.view_mut_at(at.0, at.1);
        block_kernel_generic::<S>(kind, &mut g, u, v, w, k0, nk);
        let (name, rows, cols, w) = (S::NAME, x.rows(), x.cols(), w.is_some());
        for (body, other) in [("portable", &portable), ("generic", &generic)] {
            let first = (fast.as_slice().iter().zip(other.as_slice()))
                .position(|(a, b)| bits(*a) != bits(*b));
            assert_eq!(
                first, None,
                "{name} {kind:?} {rows}x{cols} nk={nk} at {at:?} w={w} vs {body}"
            );
        }
    }

    /// One spec's row of the kernel oracle: every kind, shapes off the
    /// 4×8 patch plus one full 128³ tile, and `x` placed before, across
    /// and after the k range (so GE's σ boundary falls inside it).
    fn kernel_oracle<S: GepSpec>(draw: fn(&mut Rng) -> S::Elem, bits: fn(S::Elem) -> u64) {
        const K0: usize = 160;
        for (rows, cols, nk) in [(13, 11, 7), (3, 3, 17), (5, 9, 3), (128, 128, 128)] {
            let mut rng = Rng::new((rows * cols * nk) as u64);
            let mut fill = |r, c| Matrix::from_fn(r, c, |_, _| draw(&mut rng));
            let (x, xb, xc, u, v) = (
                fill(rows, cols),
                fill(nk, cols),
                fill(rows, nk),
                fill(rows, nk),
                fill(nk, cols),
            );
            // A diagonal block of an acyclic instance (draws above the
            // diagonal, padding on and below it): the stable phase-k
            // operands the aliasing kinds' hooks may assume.
            let diag = Matrix::from_fn(nk, nk, |i, j| {
                if i < j {
                    draw(&mut rng)
                } else {
                    S::padding_value(i, j)
                }
            });
            let (d, ks) = (Some(diag.view_at(K0, K0)), (K0, nk));
            let across = |len: usize| (K0 + nk / 2).saturating_sub(len / 2);
            let (r_at, c_at) = if nk == 128 {
                (vec![across(rows)], vec![across(cols)])
            } else {
                (
                    vec![K0 - rows, across(rows), K0 + nk],
                    vec![K0 - cols, across(cols), K0 + nk],
                )
            };
            assert_matches_generic::<S>(Kind::A, &diag, (K0, K0), None, None, None, ks, bits);
            for (&r0, &c0) in r_at.iter().zip(&c_at) {
                assert_matches_generic::<S>(Kind::B, &xb, (K0, c0), d, None, d, ks, bits);
                assert_matches_generic::<S>(Kind::C, &xc, (r0, K0), None, d, d, ks, bits);
                let (u, v) = (Some(u.view_at(r0, K0)), Some(v.view_at(K0, c0)));
                assert_matches_generic::<S>(Kind::D, &x, (r0, c0), u, v, d, ks, bits);
                if !S::USES_W {
                    assert_matches_generic::<S>(Kind::D, &x, (r0, c0), u, v, None, ks, bits);
                }
            }
        }
    }

    /// Mostly finite fractions, with ±∞ and ±0.0 mixed in.
    fn draw_f64(rng: &mut Rng) -> f64 {
        match rng.range(0u32..64) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => -0.0,
            3 => 0.0,
            _ => rng.range(-4.0..16.0),
        }
    }

    #[test]
    fn block_kernel_is_bitwise_identical_to_generic() {
        use crate::gep::SemiringPaths;
        use crate::semiring::{MaxMin, MinPlus};
        kernel_oracle::<Tropical>(draw_f64, f64::to_bits);
        kernel_oracle::<GaussianElim>(draw_f64, f64::to_bits);
        kernel_oracle::<TransitiveClosure>(Rng::bool, u64::from);
        kernel_oracle::<SemiringPaths<MinPlus>>(|r| MinPlus(draw_f64(r)), |e| e.0.to_bits());
        kernel_oracle::<SemiringPaths<MaxMin>>(|r| MaxMin(draw_f64(r)), |e| e.0.to_bits());
    }

    /// The min-plus A/B hook as it read row k before it took rows as
    /// slices: element by element through the tile, in place, with
    /// `d[i][k]` read once per row.
    fn live_read_min_plus(x: &mut TileMut<f64>, u: Option<TileRef<f64>>) {
        for k in 0..x.rows() {
            for i in 0..x.rows() {
                let dik = u.map_or_else(|| x.at(i, k), |u| u.at(i, k));
                if dik == f64::INFINITY {
                    continue;
                }
                for j in 0..x.cols() {
                    let (via, old) = (dik + x.at(k, j), x.at(i, j));
                    x.set(i, j, if via < old { via } else { old });
                }
            }
        }
    }

    #[test]
    fn tropical_hook_keeps_live_row_k_reads_on_unstable_phases() {
        // Negative diagonals, −∞ and NaN: row k changes during its own
        // phase, so the order in which rows read it shows in the bits.
        let draw = |rng: &mut Rng| match rng.range(0u32..8) {
            0 => f64::NEG_INFINITY,
            1 => f64::NAN,
            2 => f64::INFINITY,
            _ => rng.range(-8.0..8.0),
        };
        for (n, cols) in [(5, 5), (9, 13), (16, 16)] {
            let mut rng = Rng::new((n * cols) as u64);
            let diag = Matrix::from_fn(n, n, |i, j| if i == j { -1.0 } else { draw(&mut rng) });
            let panel = Matrix::from_fn(n, cols, |_, _| draw(&mut rng));
            let d = Some(diag.view());
            for (kind, x, u) in [(Kind::A, &diag, None), (Kind::B, &panel, d)] {
                let (mut fast, mut portable, mut live) = (x.clone(), x.clone(), x.clone());
                block_kernel::<Tropical>(kind, &mut fast.view_mut(), u, None, u);
                block_kernel_body::<Tropical>(kind, &mut portable.view_mut(), u, None, u);
                live_read_min_plus(&mut live.view_mut(), u);
                for (body, got) in [("block_kernel", &fast), ("portable", &portable)] {
                    let first = (got.as_slice().iter().zip(live.as_slice()))
                        .position(|(a, b)| a.to_bits() != b.to_bits());
                    assert_eq!(first, None, "{kind:?} {n}x{cols} {body}");
                }
            }
        }
    }

    #[test]
    fn tropical_kernel_relaxes_through_minus_infinity() {
        // 0 →(−∞) 1 →(1) 2: the path 0 → 2 costs −∞. A `−∞` operand
        // is not a no-op, so the hook must not skip it like `+∞`.
        let inf = f64::INFINITY;
        let d = vec![0.0, -inf, inf, inf, 0.0, 1.0, inf, inf, 0.0];
        let mut kernel = Matrix::from_vec(3, 3, d);
        let mut reference = kernel.clone();
        block_kernel::<Tropical>(Kind::A, &mut kernel.view_mut(), None, None, None);
        gep_reference::<Tropical>(&mut reference);
        assert_eq!(reference.get(0, 2), -inf);
        assert_eq!(kernel.first_difference(&reference), None);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn blocked_gep_rejects_non_divisible() {
        let mut m = Matrix::square(10, 0.0f64);
        blocked_gep::<Tropical>(&mut m, 3);
    }
}
