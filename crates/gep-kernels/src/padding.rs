//! Virtual padding (Section IV of the paper).
//!
//! r-way R-DP assumes the problem size is divisible by the
//! decomposition parameter; when it is not, the table is *virtually
//! padded* to the next multiple. Each [`crate::gep::GepSpec`] supplies
//! a padding element chosen so that padded rows/columns are inert: they
//! never change any real entry (GE pads with an identity block, path
//! problems with isolated vertices).

use crate::gep::GepSpec;
use crate::matrix::Matrix;

/// Smallest multiple of `m` that is ≥ `n` (`m ≥ 1`).
pub fn round_up(n: usize, m: usize) -> usize {
    assert!(m >= 1);
    n.div_ceil(m) * m
}

/// Pad a square GEP table to the next multiple of `multiple`, filling
/// new entries with the spec's padding values. Returns the input
/// unchanged (cloned) when already divisible.
pub fn pad_to_multiple<S: GepSpec>(c: &Matrix<S::Elem>, multiple: usize) -> Matrix<S::Elem> {
    let n = c.rows();
    assert_eq!(n, c.cols(), "GEP tables are square");
    let m = round_up(n, multiple);
    Matrix::from_fn(m, m, |i, j| {
        if i < n && j < n {
            c.get(i, j)
        } else {
            S::padding_value(i, j)
        }
    })
}

/// Extract the top-left `n×n` corner (inverse of [`pad_to_multiple`]).
pub fn unpad<E: crate::matrix::Elem>(c: &Matrix<E>, n: usize) -> Matrix<E> {
    assert!(n <= c.rows() && n <= c.cols());
    c.copy_block(0, 0, n, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::{gep_reference, GaussianElim, TransitiveClosure, Tropical};
    use testkit::Rng;

    #[test]
    fn round_up_basics() {
        assert_eq!(round_up(10, 4), 12);
        assert_eq!(round_up(12, 4), 12);
        assert_eq!(round_up(0, 4), 0);
        assert_eq!(round_up(1, 1), 1);
    }

    fn check_padding_is_inert<S: GepSpec>(mut plain: Matrix<S::Elem>, multiple: usize) {
        let padded = pad_to_multiple::<S>(&plain, multiple);
        assert_eq!(padded.rows() % multiple, 0);
        let mut padded_run = padded;
        gep_reference::<S>(&mut padded_run);
        gep_reference::<S>(&mut plain);
        let unpadded = unpad(&padded_run, plain.rows());
        assert_eq!(unpadded.first_difference(&plain), None);
    }

    #[test]
    fn ge_padding_preserves_results() {
        let mut rng = Rng::new(5);
        let n = 13;
        let mut m = Matrix::from_fn(n, n, |_, _| rng.range(-0.5..0.5));
        for i in 0..n {
            m.set(i, i, n as f64 + 2.0);
        }
        check_padding_is_inert::<GaussianElim>(m, 8);
    }

    #[test]
    fn fw_padding_preserves_results() {
        let n = 11;
        let m = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if (i + 2 * j) % 3 == 0 {
                (i + j) as f64
            } else {
                f64::INFINITY
            }
        });
        check_padding_is_inert::<Tropical>(m, 4);
    }

    #[test]
    fn tc_padding_preserves_results() {
        let n = 9;
        let m = Matrix::from_fn(n, n, |i, j| i == j || (j == i + 1));
        check_padding_is_inert::<TransitiveClosure>(m, 4);
    }

    #[test]
    fn already_divisible_is_identity() {
        let m = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let p = pad_to_multiple::<Tropical>(&m, 4);
        assert_eq!(p.first_difference(&m), None);
    }
}
