//! Property-based tests: the invariants of the kernel substrate.

use gep_kernels::gep::{gep_reference, GaussianElim, GepSpec, TransitiveClosure, Tropical};
use gep_kernels::iterative::blocked_gep;
use gep_kernels::padding::{pad_to_multiple, round_up, unpad};
use gep_kernels::recursive::{rway_gep, RecConfig};
use gep_kernels::semiring::{MaxMin, MinPlus, Semiring};
use gep_kernels::staging::{call_sequence, execute_schedule, inline_once, schedule};
use gep_kernels::Matrix;
use par_pool::Pool;
use testkit::check;

fn dd_matrix_from(values: &[f64], n: usize) -> Matrix<f64> {
    let mut m = Matrix::from_fn(n, n, |i, j| values[(i * n + j) % values.len()]);
    for i in 0..n {
        m.set(i, i, n as f64 + 2.0 + values[i % values.len()].abs());
    }
    m
}

fn dist_matrix_from(weights: &[u8], n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else {
            match weights[(i * n + j) % weights.len()] {
                0..=150 => (weights[(i * n + j) % weights.len()] % 9 + 1) as f64,
                _ => f64::INFINITY,
            }
        }
    })
}

#[test]
fn blocked_ge_always_matches_reference() {
    check(32, |rng| {
        let values = rng.vec(16..64, |r| r.range(-1.0..1.0));
        let n = rng.range(1usize..6) * 12; // divisible by 2, 3, 4, 6
        let r = rng.range(1usize..5);
        let mut blocked = dd_matrix_from(&values, n);
        let mut reference = blocked.clone();
        blocked_gep::<GaussianElim>(&mut blocked, r);
        gep_reference::<GaussianElim>(&mut reference);
        assert_eq!(blocked.first_difference(&reference), None);
    });
}

#[test]
fn rway_matches_reference_for_any_config() {
    check(32, |rng| {
        let weights = rng.vec(32..128, |r| r.u64() as u8);
        let n = *rng.pick(&[16, 24, 32]);
        let r = *rng.pick(&[2, 4, 8]);
        let base = rng.range(1usize..8);
        let pool = Pool::new(3);
        let mut rec = dist_matrix_from(&weights, n);
        let mut reference = rec.clone();
        rway_gep::<Tropical>(&pool, &RecConfig::new(r, base), &mut rec);
        gep_reference::<Tropical>(&mut reference);
        assert_eq!(rec.first_difference(&reference), None);
    });
}

#[test]
fn padding_never_changes_results() {
    check(32, |rng| {
        let weights = rng.vec(16..64, |r| r.u64() as u8);
        let n = rng.range(3usize..20);
        let multiple = rng.range(2usize..9);
        let mut plain = dist_matrix_from(&weights, n);
        let padded = pad_to_multiple::<Tropical>(&plain, multiple);
        assert_eq!(padded.rows(), round_up(n, multiple));
        let mut padded_run = padded;
        gep_reference::<Tropical>(&mut padded_run);
        gep_reference::<Tropical>(&mut plain);
        assert_eq!(unpad(&padded_run, n).first_difference(&plain), None);
    });
}

#[test]
fn schedule_executes_correctly_for_any_stage_permutation() {
    check(32, |rng| {
        let seed = rng.u64();
        let g = *rng.pick(&[2, 4]);
        let n = 8 * g;
        let calls = call_sequence::<GaussianElim>(g, n / g);
        let stage = schedule(&calls);
        let mut m = dd_matrix_from(&[0.3, -0.7, 0.9, 0.1], n);
        let mut reference = m.clone();
        execute_schedule::<GaussianElim>(&mut m, &calls, &stage, g, seed);
        gep_reference::<GaussianElim>(&mut reference);
        assert_eq!(m.first_difference(&reference), None);
    });
}

#[test]
fn inlined_schedule_executes_correctly() {
    check(32, |rng| {
        let seed = rng.u64();
        let n = 16;
        let parents = call_sequence::<Tropical>(1, n);
        let inlined = inline_once::<Tropical>(&parents, n / 2);
        let stage = schedule(&inlined);
        let weights: Vec<u8> = (0..64)
            .map(|i| (seed.rotate_left(i as u32) & 0xFF) as u8)
            .collect();
        let mut m = dist_matrix_from(&weights, n);
        let mut reference = m.clone();
        execute_schedule::<Tropical>(&mut m, &inlined, &stage, 2, seed);
        gep_reference::<Tropical>(&mut reference);
        assert_eq!(m.first_difference(&reference), None);
    });
}

#[test]
fn tc_closure_is_idempotent() {
    check(32, |rng| {
        let bits = rng.vec(64..256, |r| r.bool());
        let n = rng.range(4usize..14);
        let mut m = Matrix::from_fn(n, n, |i, j| i == j || bits[(i * n + j) % bits.len()]);
        gep_reference::<TransitiveClosure>(&mut m);
        let mut again = m.clone();
        gep_reference::<TransitiveClosure>(&mut again);
        // A closure is a fixed point.
        assert_eq!(again.first_difference(&m), None);
        // And transitive: a→b ∧ b→c ⇒ a→c.
        for a in 0..n {
            for b_ in 0..n {
                if m.get(a, b_) {
                    for c in 0..n {
                        if m.get(b_, c) {
                            assert!(m.get(a, c), "({a},{b_},{c})");
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn fw_triangle_inequality() {
    check(32, |rng| {
        let weights = rng.vec(64..128, |r| r.u64() as u8);
        let n = rng.range(4usize..12);
        let mut d = dist_matrix_from(&weights, n);
        gep_reference::<Tropical>(&mut d);
        for i in 0..n {
            assert_eq!(d.get(i, i), 0.0);
            for j in 0..n {
                for k in 0..n {
                    assert!(
                        d.get(i, j) <= d.get(i, k) + d.get(k, j) + 1e-9,
                        "triangle violated at ({i},{j},{k})"
                    );
                }
            }
        }
    });
}

#[test]
fn minplus_semiring_laws() {
    check(32, |rng| {
        // Integer-valued elements: ⊙ is f64 addition, which is only
        // associative under exact arithmetic.
        let mut elem = || MinPlus(rng.range(-100i32..100) as f64);
        let (a, b, c) = (elem(), elem(), elem());
        assert_eq!(a.plus(b), b.plus(a));
        assert_eq!(a.plus(b).plus(c), a.plus(b.plus(c)));
        assert_eq!(a.times(b).times(c), a.times(b.times(c)));
        // Distributivity: a ⊙ (b ⊕ c) = (a ⊙ b) ⊕ (a ⊙ c).
        assert_eq!(a.times(b.plus(c)), a.times(b).plus(a.times(c)));
        // Idempotence of min.
        assert_eq!(a.plus(a), a);
    });
}

fn assert_maxmin_laws(a: f64, b: f64, c: f64) {
    let (a, b, c) = (MaxMin(a), MaxMin(b), MaxMin(c));
    assert_eq!(a.plus(b), b.plus(a));
    assert_eq!(a.times(b.plus(c)), a.times(b).plus(a.times(c)));
    assert_eq!(a.plus(MaxMin::ZERO), a);
    assert_eq!(a.times(MaxMin::ONE), a);
}

#[test]
fn maxmin_semiring_laws() {
    check(32, |rng| {
        let mut elem = || rng.range(-100.0..100.0);
        assert_maxmin_laws(elem(), elem(), elem());
    });
}

/// The one failure this property has on record, as a shrinking
/// property-test framework once minimised it (its regressions file
/// pinned these three values).
#[test]
fn maxmin_semiring_laws_at_the_recorded_regression() {
    assert_maxmin_laws(60.34846452123731, -57.39416633502082, -4.209824287734203);
}

#[test]
fn sigma_factorization_consistent() {
    check(32, |rng| {
        let mut index = || rng.range(0usize..64);
        let (i, j, k) = (index(), index(), index());
        assert_eq!(
            GaussianElim::sigma(i, j, k),
            GaussianElim::sigma_i(i, k) && GaussianElim::sigma_j(j, k)
        );
        // Activity hints are sound: a live (i,k) pair implies its
        // covering range is reported active.
        if GaussianElim::sigma_i(i, k) {
            assert!(GaussianElim::range_row_active(i, i + 1, k, k + 1));
        }
    });
}

#[test]
fn parenthesis_recursive_matches_reference() {
    use gep_kernels::parenthesis::{solve_recursive, solve_reference, ParenWeight};
    check(24, |rng| {
        let dims = rng.vec(3..28, |r| r.range(1u64..50));
        let base = rng.range(1usize..6);
        let w = ParenWeight::MatrixChain(dims);
        let pool = Pool::new(2);
        let rec = solve_recursive(&pool, base, &w);
        let reference = solve_reference(&w);
        assert_eq!(rec.first_difference(&reference), None);
    });
}

#[test]
fn lcs_is_symmetric_and_bounded() {
    use gep_kernels::alignment::{align_reference, AlignScore};
    check(8, |rng| {
        let a = rng.vec(0..30, |r| *r.pick(b"ACG"));
        let b = rng.vec(0..30, |r| *r.pick(b"ACG"));
        let ab = align_reference(&a, &b, &AlignScore::Lcs);
        let ba = align_reference(&b, &a, &AlignScore::Lcs);
        let len_ab = ab.get(a.len(), b.len());
        let len_ba = ba.get(b.len(), a.len());
        assert_eq!(len_ab, len_ba);
        assert!(len_ab as usize <= a.len().min(b.len()));
        // Monotone in prefixes.
        if !a.is_empty() {
            let shorter = align_reference(&a[..a.len() - 1], &b, &AlignScore::Lcs);
            assert!(shorter.get(a.len() - 1, b.len()) <= len_ab);
        }
    });
}

#[test]
fn lu_factors_always_reconstruct() {
    use gep_kernels::linalg::{lu_factors, matmul};
    check(24, |rng| {
        let n = rng.range(2usize..24);
        let mut a = Matrix::from_fn(n, n, |_, _| rng.range(-0.5..0.5));
        for i in 0..n {
            a.set(i, i, n as f64 + 1.0 + rng.range(0.0..1.0));
        }
        let mut reduced = a.clone();
        gep_reference::<GaussianElim>(&mut reduced);
        let (l, u) = lu_factors(&reduced);
        let lu = matmul(&l, &u);
        for i in 0..n {
            for j in 0..n {
                assert!((lu.get(i, j) - a.get(i, j)).abs() < 1e-8);
            }
        }
    });
}

#[test]
#[allow(clippy::needless_range_loop)]
fn solve_system_residual_is_tiny() {
    use gep_kernels::linalg::solve_system;
    check(24, |rng| {
        let n = rng.range(2usize..20);
        let mut a = Matrix::from_fn(n, n, |_, _| rng.range(-0.5..0.5));
        for i in 0..n {
            a.set(i, i, n as f64 + 1.0);
        }
        let b: Vec<f64> = (0..n).map(|_| rng.range(-5.0..5.0)).collect();
        let x = solve_system(&a, &b);
        for i in 0..n {
            let ax: f64 = (0..n).map(|j| a.get(i, j) * x[j]).sum();
            assert!((ax - b[i]).abs() < 1e-8);
        }
    });
}
