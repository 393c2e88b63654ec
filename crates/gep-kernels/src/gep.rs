//! The Gaussian Elimination Paradigm (Fig. 1 of the paper).
//!
//! A GEP computation updates a square table `c` by
//!
//! ```text
//! for k in 0..n: for i in 0..n: for j in 0..n:
//!     if (i,j,k) ∈ Σ_G:
//!         c[i,j] = f(c[i,j], c[i,k], c[k,j], c[k,k])
//! ```
//!
//! [`GepSpec`] captures an instance: the update `f` and the condition
//! set Σ_G, factored as `Σ_G = {(i,j,k) : σᵢ(i,k) ∧ σⱼ(j,k)}` (this
//! factorization holds for every instance the paper considers and is
//! what lets block-level filters be derived mechanically).
//!
//! The [`Kind`] enum names the four aliasing patterns of blocked GEP:
//! given the phase's diagonal block index `kb`, a block `(bi, bj)` is
//! processed by kernel **A** (`bi==kb==bj`, everything aliases),
//! **B** (`bi==kb`, the `c[k,j]` operand aliases the block itself),
//! **C** (`bj==kb`, the `c[i,k]` operand aliases), or **D** (no
//! aliasing).

use crate::matrix::{Elem, Matrix, TileMut, TileRef};

/// One GEP problem instance. See module docs.
pub trait GepSpec: Send + Sync + 'static {
    /// Table element type.
    type Elem: Elem;

    /// Human-readable instance name (used by logs and reports).
    const NAME: &'static str;

    /// Does `f` actually read its `w = c[k,k]` operand? FW-APSP and
    /// transitive closure do not; distributed executions exploit this
    /// to skip replicating the diagonal block to the D kernels (the
    /// paper's FW implementation ships only the two panels).
    const USES_W: bool = true;

    /// The update function `f(x, u, v, w)` where `x = c[i,j]`,
    /// `u = c[i,k]`, `v = c[k,j]`, `w = c[k,k]`.
    fn f(x: Self::Elem, u: Self::Elem, v: Self::Elem, w: Self::Elem) -> Self::Elem;

    /// Row condition σᵢ(i, k) of Σ_G (global indices).
    fn sigma_i(i: usize, k: usize) -> bool;

    /// Column condition σⱼ(j, k) of Σ_G (global indices).
    fn sigma_j(j: usize, k: usize) -> bool;

    /// Full Σ_G membership.
    #[inline(always)]
    fn sigma(i: usize, j: usize, k: usize) -> bool {
        Self::sigma_i(i, k) && Self::sigma_j(j, k)
    }

    /// Pruning hint: may any `(i, k) ∈ [i0,i1) × [k0,k1)` satisfy σᵢ?
    /// Must never return `false` when some pair is active; defaults to
    /// the always-safe `true`.
    fn range_row_active(_i0: usize, _i1: usize, _k0: usize, _k1: usize) -> bool {
        true
    }

    /// Pruning hint for σⱼ; same contract as [`Self::range_row_active`].
    fn range_col_active(_j0: usize, _j1: usize, _k0: usize, _k1: usize) -> bool {
        true
    }

    /// Element used to virtually pad the table to a size divisible by
    /// the decomposition parameter, chosen so padded entries never
    /// change real entries (see `padding` module tests).
    fn padding_value(i: usize, j: usize) -> Self::Elem;

    /// Optional hand-tuned override of the block kernel for the
    /// aliasing kinds A, B and C of a hot instance (kind D never
    /// reaches it: one register-blocked loop serves every spec). Return
    /// `true` when the update was handled; the default falls back to
    /// the generic triple loop. Overrides must be *bitwise identical*
    /// to the generic kernel whenever the phase-k operands are stable
    /// (tested).
    #[inline(always)]
    fn fast_block_kernel(
        _kind: Kind,
        _x: &mut TileMut<Self::Elem>,
        _u: Option<TileRef<Self::Elem>>,
        _v: Option<TileRef<Self::Elem>>,
        _w: Option<TileRef<Self::Elem>>,
    ) -> bool {
        false
    }
}

/// Aliasing pattern of a blocked-GEP kernel application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Diagonal block: `u`, `v`, `w` all alias `x`.
    A,
    /// Same block-row as the diagonal: `v` aliases `x`; `u = w =` diagonal.
    B,
    /// Same block-column: `u` aliases `x`; `v = w =` diagonal.
    C,
    /// Disjoint: `u` from the column panel, `v` from the row panel, `w`
    /// the diagonal.
    D,
}

/// Is block `(bi, bj)` (of `b×b` blocks) touched at all during phase
/// `kb`? Derived from the spec's range-activity hints; used as the
/// block-level `FilterA/B/C/D` predicates of Listings 1–2.
pub fn block_active<S: GepSpec>(bi: usize, bj: usize, kb: usize, b: usize) -> bool {
    let rows = (bi * b, bi * b + b);
    let cols = (bj * b, bj * b + b);
    let ks = (kb * b, kb * b + b);
    S::range_row_active(rows.0, rows.1, ks.0, ks.1)
        && S::range_col_active(cols.0, cols.1, ks.0, ks.1)
}

/// The naive in-place triple loop of Fig. 1 — the correctness oracle
/// for every other execution in this workspace.
pub fn gep_reference<S: GepSpec>(c: &mut Matrix<S::Elem>) {
    let n = c.rows();
    assert_eq!(n, c.cols(), "GEP tables are square");
    let mut c = c.view_mut();
    for k in 0..n {
        for i in 0..n {
            if !S::sigma_i(i, k) {
                continue;
            }
            for j in 0..n {
                if S::sigma_j(j, k) {
                    let x = c.at(i, j);
                    let u = c.at(i, k);
                    let v = c.at(k, j);
                    let w = c.at(k, k);
                    c.set(i, j, S::f(x, u, v, w));
                }
            }
        }
    }
}

/// Floyd–Warshall all-pairs shortest paths over the tropical
/// `(min, +)` semiring; Σ_G is unrestricted. Requires a non-negative-
/// cycle graph (as does the paper's benchmark) so that phase-k operands
/// are stable and all execution orders agree bitwise.
pub struct Tropical;

impl GepSpec for Tropical {
    type Elem = f64;
    const NAME: &'static str = "fw-apsp";
    const USES_W: bool = false;

    #[inline(always)]
    fn f(x: f64, u: f64, v: f64, _w: f64) -> f64 {
        let via = u + v;
        if via < x {
            via
        } else {
            x
        }
    }

    #[inline(always)]
    fn sigma_i(_i: usize, _k: usize) -> bool {
        true
    }

    #[inline(always)]
    fn sigma_j(_j: usize, _k: usize) -> bool {
        true
    }

    fn padding_value(i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else {
            f64::INFINITY
        }
    }

    /// Hoisted min-plus for the aliasing kinds: `d[i][k]` is
    /// loop-invariant in `j`, and each row relaxes against row k as two
    /// disjoint slices with a branch-free store, so the j-loop
    /// vectorises — the optimization the paper's `-Ofast` C kernels get
    /// from the compiler. Rows run in order and row k relaxes in place,
    /// so the rows after it read its new values: on every input, stable
    /// or not, the same reads as relaxing `x` element by element in
    /// place with `d[i][k]` taken once per row (tested).
    #[inline(always)]
    fn fast_block_kernel(
        _kind: Kind,
        x: &mut TileMut<f64>,
        u: Option<TileRef<f64>>,
        v: Option<TileRef<f64>>,
        _w: Option<TileRef<f64>>,
    ) -> bool {
        let nk = match (&u, &v) {
            (Some(u), _) => u.cols(),
            (None, Some(v)) => v.rows(),
            (None, None) => x.rows(),
        };
        for k in 0..nk {
            for i in 0..x.rows() {
                let dik = match &u {
                    Some(t) => t.at(i, k),
                    None => x.at(i, k),
                };
                // `+∞ + v` is `+∞` or NaN, never below `x`; `−∞` relaxes.
                if dik == f64::INFINITY {
                    continue;
                }
                match &v {
                    Some(v) => relax_row(x.row_mut(i), v.row(k), dik),
                    None if i != k => {
                        let (xi, xk) = x.row_pair(i, k);
                        relax_row(xi, xk, dik);
                    }
                    None => {
                        for e in x.row_mut(k) {
                            let via = dik + *e;
                            *e = if via < *e { via } else { *e };
                        }
                    }
                }
            }
        }
        true
    }
}

/// `x[j] = min(dik + v[j], x[j])` over one row, as a select the
/// compiler turns into vector min-plus.
#[inline(always)]
fn relax_row(x: &mut [f64], v: &[f64], dik: f64) {
    let n = x.len().min(v.len());
    let (x, v) = (&mut x[..n], &v[..n]);
    for j in 0..n {
        let (via, old) = (dik + v[j], x[j]);
        x[j] = if via < old { via } else { old };
    }
}

/// Gaussian elimination without pivoting (Fig. 2);
/// `Σ_G = {(i,j,k) : i>k ∧ j>k}`. Intended for diagonally dominant or
/// symmetric positive-definite systems, exactly as in the paper.
pub struct GaussianElim;

impl GepSpec for GaussianElim {
    type Elem = f64;
    const NAME: &'static str = "ge";

    #[inline(always)]
    fn f(x: f64, u: f64, v: f64, w: f64) -> f64 {
        x - u * v / w
    }

    #[inline(always)]
    fn sigma_i(i: usize, k: usize) -> bool {
        i > k
    }

    #[inline(always)]
    fn sigma_j(j: usize, k: usize) -> bool {
        j > k
    }

    fn range_row_active(_i0: usize, i1: usize, k0: usize, _k1: usize) -> bool {
        // ∃ i ∈ [i0,i1), k ∈ [k0,k1) with i > k  ⇔  max i > min k.
        i1 > k0 + 1
    }

    fn range_col_active(_j0: usize, j1: usize, k0: usize, _k1: usize) -> bool {
        j1 > k0 + 1
    }

    fn padding_value(i: usize, j: usize) -> f64 {
        // Identity padding: pivot 1.0 on the diagonal, 0 elsewhere, so
        // padded pivots never divide by zero and padded columns
        // contribute `x - 0·v/w = x`.
        if i == j {
            1.0
        } else {
            0.0
        }
    }
}

/// Warshall transitive closure over the boolean semiring.
pub struct TransitiveClosure;

impl GepSpec for TransitiveClosure {
    type Elem = bool;
    const NAME: &'static str = "tc";
    const USES_W: bool = false;

    #[inline(always)]
    fn f(x: bool, u: bool, v: bool, _w: bool) -> bool {
        x | (u & v)
    }

    #[inline(always)]
    fn sigma_i(_i: usize, _k: usize) -> bool {
        true
    }

    #[inline(always)]
    fn sigma_j(_j: usize, _k: usize) -> bool {
        true
    }

    fn padding_value(i: usize, j: usize) -> bool {
        i == j
    }
}

/// All-pairs path computation over an arbitrary closed semiring
/// (Aho–Hopcroft–Ullman); generalizes [`Tropical`] and
/// [`TransitiveClosure`] and powers the widest-path example.
pub struct SemiringPaths<S>(std::marker::PhantomData<S>);

impl<S: crate::semiring::Semiring> GepSpec for SemiringPaths<S> {
    type Elem = S;
    const NAME: &'static str = "semiring-paths";
    const USES_W: bool = false;

    #[inline(always)]
    fn f(x: S, u: S, v: S, _w: S) -> S {
        x.plus(u.times(v))
    }

    #[inline(always)]
    fn sigma_i(_i: usize, _k: usize) -> bool {
        true
    }

    #[inline(always)]
    fn sigma_j(_j: usize, _k: usize) -> bool {
        true
    }

    fn padding_value(i: usize, j: usize) -> S {
        if i == j {
            S::ONE
        } else {
            S::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ge_block_filters_match_listing() {
        // FilterD of Listing 1: l>k && m>k — blocks strictly inside the
        // trailing submatrix.
        let b = 4;
        assert!(block_active::<GaussianElim>(3, 3, 2, b));
        assert!(!block_active::<GaussianElim>(1, 3, 2, b));
        assert!(!block_active::<GaussianElim>(3, 1, 2, b));
        // Diagonal and panels at kb are active (partial Σ inside).
        assert!(block_active::<GaussianElim>(2, 2, 2, b));
        assert!(block_active::<GaussianElim>(2, 3, 2, b));
        assert!(block_active::<GaussianElim>(3, 2, 2, b));
    }

    #[test]
    fn fw_blocks_always_active() {
        for bi in 0..4 {
            for bj in 0..4 {
                assert!(block_active::<Tropical>(bi, bj, 1, 8));
            }
        }
    }

    #[test]
    fn ge_reference_eliminates_below_diagonal_logically() {
        // A 3x3 diagonally dominant system; after GEP-GE the trailing
        // entries hold the Schur complements. Verify against hand
        // computation.
        let mut m = Matrix::from_vec(3, 3, vec![4.0, 1.0, 2.0, 1.0, 5.0, 1.0, 2.0, 1.0, 6.0]);
        gep_reference::<GaussianElim>(&mut m);
        // k=0: m[1,1] = 5 - 1*1/4 = 4.75 ; m[1,2] = 1 - 1*2/4 = 0.5
        //       m[2,1] = 1 - 2*1/4 = 0.5  ; m[2,2] = 6 - 2*2/4 = 5
        // k=1: m[2,2] = 5 - 0.5*0.5/4.75
        assert_eq!(m.get(1, 1), 4.75);
        assert_eq!(m.get(1, 2), 0.5);
        assert_eq!(m.get(2, 2), 5.0 - 0.25 / 4.75);
        // Σ_G keeps row 0 and column 0 untouched.
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn fw_reference_small_graph() {
        let inf = f64::INFINITY;
        // 0 →(1) 1 →(2) 2, plus direct 0→2 of weight 9.
        let mut d = Matrix::from_vec(3, 3, vec![0.0, 1.0, 9.0, inf, 0.0, 2.0, inf, inf, 0.0]);
        gep_reference::<Tropical>(&mut d);
        assert_eq!(d.get(0, 2), 3.0);
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(1, 0), inf);
    }

    #[test]
    fn tc_reference_reachability() {
        let mut m = Matrix::from_fn(4, 4, |i, j| i == j);
        m.set(0, 1, true);
        m.set(1, 2, true);
        m.set(2, 3, true);
        gep_reference::<TransitiveClosure>(&mut m);
        assert!(m.get(0, 3));
        assert!(!m.get(3, 0));
    }

    #[test]
    fn semiring_paths_matches_tropical() {
        use crate::semiring::MinPlus;
        let inf = f64::INFINITY;
        let weights = vec![0.0, 4.0, inf, 1.0, 0.0, 2.0, inf, 7.0, 0.0];
        let mut direct = Matrix::from_vec(3, 3, weights.clone());
        gep_reference::<Tropical>(&mut direct);
        let mut generic = Matrix::from_vec(3, 3, weights.into_iter().map(MinPlus).collect());
        gep_reference::<SemiringPaths<MinPlus>>(&mut generic);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(direct.get(i, j), generic.get(i, j).0);
            }
        }
    }
}
