//! R-Kleene: divide-&-conquer algebraic-path closure (D'Alberto &
//! Nicolau), the related-work approach the paper cites for reducing
//! FW-APSP to semiring matrix products. Serves as an independent
//! baseline algorithm: completely different recursion, same answers.
//!
//! For a square matrix over a closed semiring split as
//! `[[A₁₁ A₁₂], [A₂₁ A₂₂]]`, the closure is computed by
//!
//! ```text
//! A₁₁ ← star(A₁₁)
//! A₁₂ ← A₁₁⊙A₁₂            A₂₁ ← A₂₁⊙A₁₁
//! A₂₂ ← A₂₂ ⊕ A₂₁⊙A₁₂
//! A₂₂ ← star(A₂₂)
//! A₁₂ ← A₁₂⊙A₂₂            A₂₁ ← A₂₂⊙A₂₁
//! A₁₁ ← A₁₁ ⊕ A₁₂⊙A₂₁
//! ```
//!
//! with the iterative FW loop as the base case. Splits need not be
//! even, so any size works without padding.

use crate::matrix::{Matrix, TileMut};
use crate::semiring::Semiring;

/// A rectangular window of the matrix (row0, col0, rows, cols).
#[derive(Debug, Clone, Copy)]
struct Region {
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
}

impl Region {
    fn split_rows(self, at: usize) -> (Region, Region) {
        (
            Region { rows: at, ..self },
            Region {
                r0: self.r0 + at,
                rows: self.rows - at,
                ..self
            },
        )
    }

    fn split_cols(self, at: usize) -> (Region, Region) {
        (
            Region { cols: at, ..self },
            Region {
                c0: self.c0 + at,
                cols: self.cols - at,
                ..self
            },
        )
    }
}

/// `C ← C ⊕ A⊙B` over windows of the same matrix (windows must be
/// pairwise positioned as in the R-Kleene steps: `C` disjoint from `A`
/// and `B`, which holds for the two accumulate steps).
fn gemm_acc<S: Semiring>(m: &mut TileMut<'_, S>, c: Region, a: Region, b: Region) {
    debug_assert_eq!(a.cols, b.rows);
    debug_assert_eq!(c.rows, a.rows);
    debug_assert_eq!(c.cols, b.cols);
    for i in 0..c.rows {
        for j in 0..c.cols {
            let mut acc = m.at(c.r0 + i, c.c0 + j);
            for k in 0..a.cols {
                acc = acc.plus(m.at(a.r0 + i, a.c0 + k).times(m.at(b.r0 + k, b.c0 + j)));
            }
            m.set(c.r0 + i, c.c0 + j, acc);
        }
    }
}

/// `C ← A⊙C` (left multiply-assign; `A` square, disjoint from `C`).
fn lmul_assign<S: Semiring>(m: &mut TileMut<'_, S>, a: Region, c: Region) {
    debug_assert_eq!(a.cols, c.rows);
    let mut tmp = vec![S::ZERO; c.rows * c.cols];
    for i in 0..c.rows {
        for j in 0..c.cols {
            let mut acc = S::ZERO;
            for k in 0..a.cols {
                acc = acc.plus(m.at(a.r0 + i, a.c0 + k).times(m.at(c.r0 + k, c.c0 + j)));
            }
            tmp[i * c.cols + j] = acc;
        }
    }
    for i in 0..c.rows {
        for j in 0..c.cols {
            m.set(c.r0 + i, c.c0 + j, tmp[i * c.cols + j]);
        }
    }
}

/// `C ← C⊙A` (right multiply-assign; `A` square, disjoint from `C`).
fn rmul_assign<S: Semiring>(m: &mut TileMut<'_, S>, c: Region, a: Region) {
    debug_assert_eq!(c.cols, a.rows);
    let mut tmp = vec![S::ZERO; c.rows * c.cols];
    for i in 0..c.rows {
        for j in 0..c.cols {
            let mut acc = S::ZERO;
            for k in 0..c.cols {
                acc = acc.plus(m.at(c.r0 + i, c.c0 + k).times(m.at(a.r0 + k, a.c0 + j)));
            }
            tmp[i * c.cols + j] = acc;
        }
    }
    for i in 0..c.rows {
        for j in 0..c.cols {
            m.set(c.r0 + i, c.c0 + j, tmp[i * c.cols + j]);
        }
    }
}

/// Iterative FW base case over a square window.
fn star_base<S: Semiring>(m: &mut TileMut<'_, S>, r: Region) {
    debug_assert_eq!(r.rows, r.cols);
    for k in 0..r.rows {
        for i in 0..r.rows {
            for j in 0..r.cols {
                let via = m.at(r.r0 + i, r.c0 + k).times(m.at(r.r0 + k, r.c0 + j));
                let cur = m.at(r.r0 + i, r.c0 + j);
                m.set(r.r0 + i, r.c0 + j, cur.plus(via));
            }
        }
    }
}

fn star<S: Semiring>(m: &mut TileMut<'_, S>, r: Region, base: usize) {
    if r.rows <= base.max(1) {
        star_base(m, r);
        return;
    }
    let half = r.rows / 2;
    let (top, bottom) = r.split_rows(half);
    let (a11, a12) = top.split_cols(half);
    let (a21, a22) = bottom.split_cols(half);
    star(m, a11, base);
    lmul_assign(m, a11, a12); // A12 ← A11⊙A12
    rmul_assign(m, a21, a11); // A21 ← A21⊙A11
    gemm_acc(m, a22, a21, a12); // A22 ⊕= A21⊙A12
    star(m, a22, base);
    rmul_assign(m, a12, a22); // A12 ← A12⊙A22
    lmul_assign(m, a22, a21); // A21 ← A22⊙A21
    gemm_acc(m, a11, a12, a21); // A11 ⊕= A12⊙A21
}

/// In-place closure of a square semiring matrix by R-Kleene. The
/// diagonal is first joined with `1̄` (reflexive closure), as the
/// algorithm requires.
pub fn kleene_closure<S: Semiring>(m: &mut Matrix<S>, base: usize) {
    let n = m.rows();
    assert_eq!(n, m.cols(), "closure needs a square matrix");
    if n == 0 {
        return;
    }
    let mut m = m.view_mut();
    for i in 0..n {
        let d = m.at(i, i).plus(S::ONE);
        m.set(i, i, d);
    }
    star(
        &mut m,
        Region {
            r0: 0,
            c0: 0,
            rows: n,
            cols: n,
        },
        base,
    );
}

/// APSP on an `f64` weight matrix (∞ = no edge, 0 diagonal) via
/// R-Kleene over the tropical semiring — an independent alternative to
/// the FW-based GEP path.
pub fn apsp_rkleene(d: &mut Matrix<f64>, base: usize) {
    use crate::semiring::MinPlus;
    let n = d.rows();
    let mut t = Matrix::from_fn(n, n, |i, j| MinPlus(d.get(i, j)));
    kleene_closure(&mut t, base);
    for (out, closed) in d.as_mut_slice().iter_mut().zip(t.as_slice()) {
        *out = closed.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::{gep_reference, TransitiveClosure, Tropical};
    use crate::semiring::{BoolRing, MaxMin};

    fn dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if next() < 0.4 {
                1.0 + (next() * 9.0).floor()
            } else {
                f64::INFINITY
            }
        })
    }

    #[test]
    fn rkleene_apsp_matches_fw_bitwise_on_integer_weights() {
        for &(n, base) in &[(7usize, 1usize), (16, 2), (24, 4), (33, 8)] {
            let mut a = dist_matrix(n, (n + base) as u64);
            let mut b = a.clone();
            apsp_rkleene(&mut a, base);
            gep_reference::<Tropical>(&mut b);
            assert_eq!(a.first_difference(&b), None, "n={n} base={base}");
        }
    }

    #[test]
    fn rkleene_bool_matches_transitive_closure() {
        let mut state = 9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 21;
        let edges = Matrix::from_fn(n, n, |i, j| i == j || next() % 6 == 0);
        let mut rk = Matrix::from_fn(n, n, |i, j| BoolRing(edges.get(i, j)));
        kleene_closure(&mut rk, 3);
        let mut tc = edges.clone();
        gep_reference::<TransitiveClosure>(&mut tc);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(rk.get(i, j).0, tc.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn rkleene_widest_path_is_sane() {
        // Bottleneck closure over max-min: widest path 0→2 through 1.
        let ninf = f64::NEG_INFINITY;
        let mut m = Matrix::from_vec(
            3,
            3,
            vec![
                MaxMin(ninf),
                MaxMin(5.0),
                MaxMin(2.0),
                MaxMin(ninf),
                MaxMin(ninf),
                MaxMin(4.0),
                MaxMin(ninf),
                MaxMin(ninf),
                MaxMin(ninf),
            ],
        );
        kleene_closure(&mut m, 1);
        // Direct 0→2 width 2; via 1: min(5, 4) = 4 → max = 4.
        assert_eq!(m.get(0, 2).0, 4.0);
        // Diagonal joined with 1̄ = +∞ for max-min.
        assert_eq!(m.get(0, 0).0, f64::INFINITY);
    }

    #[test]
    fn odd_sizes_and_degenerate_bases_work() {
        let mut a = dist_matrix(13, 77);
        let mut b = a.clone();
        apsp_rkleene(&mut a, 100); // base ≥ n: a single FW base case
        gep_reference::<Tropical>(&mut b);
        assert_eq!(a.first_difference(&b), None);
        let mut empty: Matrix<crate::semiring::MinPlus> = Matrix::from_vec(0, 0, vec![]);
        kleene_closure(&mut empty, 4);
    }
}
