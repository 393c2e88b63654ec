//! Distributed linear-system solving — the end-to-end use case behind
//! the paper's GE benchmark: forward-eliminate on the cluster, then
//! back-substitute on the driver.

use gep_kernels::linalg::{pack_system, unpack_solution};
use gep_kernels::{GaussianElim, Matrix};
use sparklet::{JobError, SparkContext};

use crate::config::DpConfig;
use crate::solver::solve;

/// Solve `A·x = b` for an `m×m` diagonally dominant (or SPD) system by
/// distributed GE without pivoting. `template` supplies the execution
/// knobs (block size, strategy, kernel); its `n` is replaced by the
/// packed table size `m+1`.
pub fn solve_linear_system(
    sc: &SparkContext,
    template: &DpConfig,
    a: &Matrix<f64>,
    b: &[f64],
) -> Result<Vec<f64>, JobError> {
    let (rows, cols) = (a.rows(), a.cols());
    if rows != cols {
        return Err(JobError::Driver(format!(
            "coefficient matrix must be square, got {rows}×{cols}"
        )));
    }
    if rows != b.len() {
        return Err(JobError::Driver(format!(
            "rhs length {} must match the {rows}×{rows} system",
            b.len()
        )));
    }
    let table = pack_system(a, b);
    let mut cfg = template.clone();
    cfg.n = table.rows();
    let reduced = solve::<GaussianElim>(sc, &cfg, &table)?;
    Ok(unpack_solution(&reduced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::KernelSpec;
    use crate::config::Strategy;
    use sparklet::SparkConf;
    use testkit::Rng;

    fn dd_system(m: usize, seed: u64) -> (Matrix<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = Rng::new(seed);
        let mut a = Matrix::from_fn(m, m, |_, _| rng.range(-0.5..0.5));
        for i in 0..m {
            a.set(i, i, m as f64 + 1.0);
        }
        let x_true: Vec<f64> = (0..m).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let b: Vec<f64> = (0..m)
            .map(|i| (0..m).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        (a, b, x_true)
    }

    #[test]
    fn distributed_solve_recovers_the_solution() {
        let (a, b, x_true) = dd_system(31, 5);
        let sc = SparkContext::new(SparkConf::default().with_executors(3).with_partitions(9));
        let template = DpConfig::new(1, 8)
            .with_strategy(Strategy::CollectBroadcast)
            .with_kernel(KernelSpec::recursive(2, 2, 2));
        let x = solve_linear_system(&sc, &template, &a, &b).expect("solve");
        for i in 0..31 {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "x[{i}]");
        }
    }

    #[test]
    fn malformed_systems_are_driver_errors_before_any_stage() {
        let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(4));
        let template = DpConfig::new(1, 2);
        let (a, b, _) = dd_system(3, 1);
        let wide = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        for err in [
            solve_linear_system(&sc, &template, &wide, &b).unwrap_err(),
            solve_linear_system(&sc, &template, &a, &b[..2]).unwrap_err(),
        ] {
            assert!(matches!(err, JobError::Driver(_)), "{err}");
        }
        assert_eq!(sc.summary().stages, 0);
    }

    #[test]
    fn matches_sequential_linalg_solver_bitwise() {
        let (a, b, _) = dd_system(23, 9);
        let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(4));
        let template = DpConfig::new(1, 6).with_strategy(Strategy::InMemory);
        let distributed = solve_linear_system(&sc, &template, &a, &b).expect("solve");
        let sequential = gep_kernels::linalg::solve_system(&a, &b);
        // GE is order-exact, and both paths back-substitute the same
        // reduced table → bitwise identical solutions.
        assert_eq!(distributed, sequential);
    }
}
