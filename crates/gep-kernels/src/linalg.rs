//! Linear algebra on top of GE — the paper's stated uses of the GE
//! benchmark: "to solve systems of linear equations and LU
//! decomposition of symmetric positive-definite or diagonally dominant
//! real matrices".
//!
//! The GEP form of GE (Σ_G = {i>k, j>k}) leaves the table in a state
//! from which both factors are recoverable: the upper triangle
//! (including the diagonal) is `U`, and the frozen sub-diagonal entry
//! `red[i,k]` equals `l_ik · u_kk` (it stopped being updated exactly
//! when phase `k` began), so `L` falls out by a diagonal division.

use crate::gep::{gep_reference, GaussianElim};
use crate::matrix::Matrix;

/// Multiply two dense matrices (naive; used by tests/validation and
/// small driver-side work, not by kernels).
pub fn matmul(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols()).map(|k| a.get(i, k) * b.get(k, j)).sum()
    })
}

/// Extract the unit-lower-triangular `L` and upper-triangular `U`
/// Doolittle factors from a GEP-GE-reduced table.
pub fn lu_factors(reduced: &Matrix<f64>) -> (Matrix<f64>, Matrix<f64>) {
    let n = reduced.rows();
    assert_eq!(n, reduced.cols());
    let l = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else if i > j {
            reduced.get(i, j) / reduced.get(j, j)
        } else {
            0.0
        }
    });
    let u = Matrix::from_fn(n, n, |i, j| if i <= j { reduced.get(i, j) } else { 0.0 });
    (l, u)
}

/// Pack a system `A·x = b` (with `m` unknowns) into the `(m+1)×(m+1)`
/// GEP table the paper describes: row `p` encodes equation `p`, the
/// last column is the right-hand side, and the padding pivot is 1.
#[allow(clippy::needless_range_loop)]
pub fn pack_system(a: &Matrix<f64>, b: &[f64]) -> Matrix<f64> {
    let m = a.rows();
    assert_eq!(m, a.cols());
    assert_eq!(b.len(), m);
    let mut table = Matrix::square(m + 1, 0.0);
    let mut cells = table.view_mut();
    for i in 0..m {
        for j in 0..m {
            cells.set(i, j, a.get(i, j));
        }
        cells.set(i, m, b[i]);
    }
    cells.set(m, m, 1.0);
    table
}

/// Recover `x` from a GE-reduced packed table (back-substitution over
/// the first `m` rows; the eliminated RHS sits in the last column).
#[allow(clippy::needless_range_loop)]
pub fn unpack_solution(reduced: &Matrix<f64>) -> Vec<f64> {
    let m = reduced.rows() - 1;
    let mut x = vec![0.0; m];
    for i in (0..m).rev() {
        let mut s = reduced.get(i, m);
        for j in i + 1..m {
            s -= reduced.get(i, j) * x[j];
        }
        x[i] = s / reduced.get(i, i);
    }
    x
}

/// Solve `A·x = b` sequentially via GEP-GE (for oracles and small
/// driver-side systems; the distributed path is
/// `dp_core::solve_linear_system`). Requires a matrix for which GE
/// without pivoting is stable (diagonally dominant / SPD).
pub fn solve_system(a: &Matrix<f64>, b: &[f64]) -> Vec<f64> {
    let mut table = pack_system(a, b);
    gep_reference::<GaussianElim>(&mut table);
    unpack_solution(&table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::Rng;

    fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = Rng::new(seed);
        let mut m = Matrix::from_fn(n, n, |_, _| rng.range(-1.0..1.0));
        for i in 0..n {
            m.set(i, i, n as f64 + 1.0 + rng.range(0.0..1.0));
        }
        m
    }

    fn max_abs_diff(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
        let mut d = 0.0f64;
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                d = d.max((a.get(i, j) - b.get(i, j)).abs());
            }
        }
        d
    }

    #[test]
    fn lu_factors_reconstruct_the_input() {
        for seed in [3u64, 17, 99] {
            let a = dd_matrix(20, seed);
            let mut reduced = a.clone();
            gep_reference::<GaussianElim>(&mut reduced);
            let (l, u) = lu_factors(&reduced);
            let lu = matmul(&l, &u);
            assert!(max_abs_diff(&lu, &a) < 1e-9, "seed {seed}");
            // Shape checks.
            for i in 0..20 {
                assert_eq!(l.get(i, i), 1.0);
                for j in i + 1..20 {
                    assert_eq!(l.get(i, j), 0.0);
                    assert_eq!(u.get(j, i), 0.0);
                }
            }
        }
    }

    #[test]
    fn solve_system_end_to_end() {
        let a = dd_matrix(24, 8);
        let x_true: Vec<f64> = (0..24).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let b: Vec<f64> = (0..24)
            .map(|i| (0..24).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        let x = solve_system(&a, &b);
        for i in 0..24 {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "x[{i}]");
        }
    }

    #[test]
    fn pack_unpack_roundtrip_shape() {
        let a = dd_matrix(5, 2);
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let t = pack_system(&a, &b);
        assert_eq!(t.rows(), 6);
        assert_eq!(t.get(2, 5), 3.0);
        assert_eq!(t.get(5, 5), 1.0);
        assert_eq!(t.get(5, 0), 0.0);
    }

    #[test]
    fn identity_system_is_trivial() {
        let a = Matrix::from_fn(8, 8, |i, j| if i == j { 1.0 } else { 0.0 });
        let b: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let x = solve_system(&a, &b);
        assert_eq!(x, b);
    }
}
