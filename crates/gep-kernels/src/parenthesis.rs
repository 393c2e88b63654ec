//! The parenthesis problem family — the paper's future work #1
//! ("extend the framework to include other data-intensive DP
//! algorithms (beyond GEP)"), implemented with the same 2-way R-DP
//! methodology (Chowdhury–Ramachandran's *Parenthesis* recursion).
//!
//! Recurrence over an upper-triangular table `C[i][j]`, `0 ≤ i < j ≤ n`:
//!
//! ```text
//! C[i][i+1] = init(i)
//! C[i][j]   = min over i < k < j of  C[i][k] + C[k][j] + w(i, k, j)
//! ```
//!
//! Instances: matrix-chain multiplication, optimal polygon
//! triangulation (both cited by the paper's related work as GPU DP
//! targets), and a plain weighted variant.
//!
//! The divide-&-conquer: split the index range `[a..b]` at `m`.
//! `C_PP` and `C_QQ` (the halves) are independent sub-problems
//! (function `A`, run in parallel); `C_PQ` (function `B`) combines
//! them, recursing into four quadrants with two min-plus-GEMM-style
//! cross updates — the same staged fork-join shape as the GEP kernels,
//! on the same [`par_pool::Pool`].

use par_pool::Pool;

use crate::matrix::{Matrix, TileMut, TileRef};

/// Weight term `w(i, k, j)` of an instance, in a form that can cross
/// executor boundaries (data, not closures).
#[derive(Debug, Clone, PartialEq)]
pub enum ParenWeight {
    /// Matrix-chain multiplication over matrices `A_i` of shape
    /// `dims[i] × dims[i+1]`: `w(i,k,j) = dims[i]·dims[k]·dims[j]`,
    /// `init = 0`.
    MatrixChain(Vec<u64>),
    /// Optimal convex-polygon triangulation with vertex weights:
    /// `w(i,k,j) = v[i]·v[k]·v[j]`, `init = 0` (edges cost nothing).
    Polygon(Vec<f64>),
    /// No weight term (pure min-plus combination).
    Zero,
}

impl ParenWeight {
    /// The table side `n` (number of leaves / chain length).
    pub fn n(&self) -> usize {
        match self {
            ParenWeight::MatrixChain(dims) => dims.len() - 1,
            ParenWeight::Polygon(v) => v.len() - 1,
            ParenWeight::Zero => panic!("Zero weight carries no size"),
        }
    }

    /// Weight term `w(i, k, j)` with global indices.
    #[inline]
    pub fn w(&self, i: usize, k: usize, j: usize) -> f64 {
        // Out-of-range indices come from virtual padding; the padded
        // operands are ∞, so the weight value is irrelevant — return 0
        // instead of panicking.
        match self {
            ParenWeight::MatrixChain(dims) => match (dims.get(i), dims.get(k), dims.get(j)) {
                (Some(a), Some(b), Some(c)) => (a * b * c) as f64,
                _ => 0.0,
            },
            ParenWeight::Polygon(v) => match (v.get(i), v.get(k), v.get(j)) {
                (Some(a), Some(b), Some(c)) => a * b * c,
                _ => 0.0,
            },
            ParenWeight::Zero => 0.0,
        }
    }

    /// Base-band value `C[i][i+1]`.
    #[inline]
    pub fn init(&self, _i: usize) -> f64 {
        match self {
            ParenWeight::MatrixChain(_) | ParenWeight::Polygon(_) | ParenWeight::Zero => 0.0,
        }
    }
}

/// Fresh `(n+1)×(n+1)` table: `C[i][i] = 0`, `C[i][i+1] = init`, rest ∞.
pub fn init_table(weight: &ParenWeight) -> Matrix<f64> {
    let n = weight.n();
    Matrix::from_fn(n + 1, n + 1, |i, j| {
        if j == i {
            0.0
        } else if j == i + 1 {
            weight.init(i)
        } else {
            f64::INFINITY
        }
    })
}

/// Iterative band-order reference (the classic O(n³) loop) — the
/// correctness oracle for the recursive and distributed versions.
pub fn paren_reference(c: &mut Matrix<f64>, weight: &ParenWeight) {
    assert!(
        c.rows() >= 1 && c.rows() == c.cols(),
        "parenthesis tables are square"
    );
    let n = c.rows() - 1;
    let mut c = c.view_mut();
    for len in 2..=n {
        for i in 0..=(n - len) {
            let j = i + len;
            let mut best = c.at(i, j);
            for k in (i + 1)..j {
                let cand = c.at(i, k) + c.at(k, j) + weight.w(i, k, j);
                if cand < best {
                    best = cand;
                }
            }
            c.set(i, j, best);
        }
    }
}

/// Min-plus-GEMM-with-weight over windows:
/// `X[i][j] = min(X[i][j], A[i][k] + B[k][j] + w(gi, gk, gj))` for
/// every `k` in `A`'s column window. Global indices come from the
/// views' offsets.
pub fn paren_gemm(x: &mut TileMut<f64>, a: TileRef<f64>, b: TileRef<f64>, weight: &ParenWeight) {
    assert_eq!(a.rows(), x.rows());
    assert_eq!(b.cols(), x.cols());
    assert_eq!(a.cols(), b.rows());
    assert_eq!(a.row0(), x.row0());
    assert_eq!(b.col0(), x.col0());
    assert_eq!(a.col0(), b.row0());
    for i in 0..x.rows() {
        let gi = x.row0() + i;
        for k in 0..a.cols() {
            let gk = a.col0() + k;
            let aik = a.at(i, k);
            if aik.is_infinite() {
                continue;
            }
            for j in 0..x.cols() {
                let gj = x.col0() + j;
                let cand = aik + b.at(k, j) + weight.w(gi, gk, gj);
                if cand < x.at(i, j) {
                    x.set(i, j, cand);
                }
            }
        }
    }
}

/// Base case of function `A`: the full band recurrence restricted to a
/// square diagonal window.
fn a_base(x: &mut TileMut<f64>, weight: &ParenWeight) {
    let m = x.rows();
    debug_assert_eq!(m, x.cols());
    debug_assert_eq!(x.row0(), x.col0());
    let g0 = x.row0();
    for len in 2..m {
        for i in 0..(m - len) {
            let j = i + len;
            let mut best = x.at(i, j);
            for k in (i + 1)..j {
                let cand = x.at(i, k) + x.at(k, j) + weight.w(g0 + i, g0 + k, g0 + j);
                if cand < best {
                    best = cand;
                }
            }
            x.set(i, j, best);
        }
    }
}

/// Base case of function `B`: finish `X` (rows from `u`'s range,
/// columns from `v`'s range) given completed `U`, `V`, and any external
/// (middle-range) contributions already folded into `X`. Sweeps `i`
/// descending / `j` ascending so in-window operands are ready.
fn b_base(x: &mut TileMut<f64>, u: TileRef<f64>, v: TileRef<f64>, weight: &ParenWeight) {
    debug_assert_eq!(u.rows(), x.rows());
    debug_assert_eq!(v.cols(), x.cols());
    debug_assert_eq!(u.row0(), x.row0());
    debug_assert_eq!(v.col0(), x.col0());
    let (p, q) = (x.rows(), x.cols());
    for i in (0..p).rev() {
        let gi = x.row0() + i;
        for j in 0..q {
            let gj = x.col0() + j;
            let mut best = x.at(i, j);
            // k in the row (U) range, strictly right of i.
            for k in (i + 1)..p {
                let gk = u.col0() + k;
                let cand = u.at(i, k) + x.at(k, j) + weight.w(gi, gk, gj);
                if cand < best {
                    best = cand;
                }
            }
            // k in the column (V) range, strictly left of j.
            for k in 0..j {
                let gk = v.row0() + k;
                let cand = x.at(i, k) + v.at(k, j) + weight.w(gi, gk, gj);
                if cand < best {
                    best = cand;
                }
            }
            x.set(i, j, best);
        }
    }
}

/// Function `B`: complete the off-diagonal window `X` given the two
/// completed diagonal windows `U` (left/top) and `V` (right/bottom).
pub fn rec_b(
    pool: &Pool,
    base: usize,
    mut x: TileMut<f64>,
    u: TileRef<f64>,
    v: TileRef<f64>,
    weight: &ParenWeight,
) {
    let (p, q) = (x.rows(), x.cols());
    if p.min(q) <= base.max(1) || p < 2 || q < 2 {
        b_base(&mut x, u, v, weight);
        return;
    }
    let (pm, qm) = (p / 2, q / 2);
    let (top, bottom) = x.split_rows_at(pm);
    let (mut x11, mut x12) = top.split_cols_at(qm);
    let (mut x21, mut x22) = bottom.split_cols_at(qm);
    let u11 = u.sub(0, 0, pm, pm);
    let u12 = u.sub(0, pm, pm, p - pm);
    let u22 = u.sub(pm, pm, p - pm, p - pm);
    let v11 = v.sub(0, 0, qm, qm);
    let v12 = v.sub(0, qm, qm, q - qm);
    let v22 = v.sub(qm, qm, q - qm, q - qm);
    // 1) X21 depends only on U22, V11.
    rec_b(pool, base, x21.reborrow(), u22, v11, weight);
    // 2) Cross terms into X11 and X22 (parallel, disjoint writes).
    {
        let x21_ref = x21.as_ref();
        pool.scope(|s| {
            let x11_ref = &mut x11;
            s.spawn(move |_| {
                paren_gemm(x11_ref, u12, x21_ref, weight);
            });
            let x22_ref = &mut x22;
            s.spawn(move |_| {
                paren_gemm(x22_ref, x21_ref, v12, weight);
            });
        });
    }
    // 3) Finish X11 and X22 (parallel).
    {
        pool.scope(|s| {
            let (x11m, x22m) = (&mut x11, &mut x22);
            s.spawn(move |_| rec_b(pool, base, x11m.reborrow(), u11, v11, weight));
            s.spawn(move |_| rec_b(pool, base, x22m.reborrow(), u22, v22, weight));
        });
    }
    // 4) Cross terms into X12, then finish it.
    paren_gemm(&mut x12, u12, x22.as_ref(), weight);
    paren_gemm(&mut x12, x11.as_ref(), v12, weight);
    rec_b(pool, base, x12, u11, v22, weight);
}

/// Function `A`: complete a square diagonal window.
pub fn rec_a(pool: &Pool, base: usize, x: TileMut<f64>, weight: &ParenWeight) {
    let m = x.rows();
    debug_assert_eq!(m, x.cols());
    if m <= base.max(2) {
        let mut x = x;
        a_base(&mut x, weight);
        return;
    }
    let half = m / 2;
    let (top, bottom) = x.split_rows_at(half);
    let (x11, x12) = top.split_cols_at(half);
    let (_x21, x22) = bottom.split_cols_at(half);
    // The two halves are independent sub-problems.
    let (mut x11, mut x22) = (x11, x22);
    pool.scope(|s| {
        let x11m = &mut x11;
        s.spawn(move |_| rec_a(pool, base, x11m.reborrow(), weight));
        let x22m = &mut x22;
        s.spawn(move |_| rec_a(pool, base, x22m.reborrow(), weight));
    });
    rec_b(pool, base, x12, x11.as_ref(), x22.as_ref(), weight);
}

/// Solve a parenthesis instance with the 2-way R-DP algorithm; returns
/// the full table (answer at `[0][n]`).
pub fn solve_recursive(pool: &Pool, base: usize, weight: &ParenWeight) -> Matrix<f64> {
    let mut c = init_table(weight);
    rec_a(pool, base, c.view_mut(), weight);
    c
}

/// Solve with the iterative reference; returns the full table.
pub fn solve_reference(weight: &ParenWeight) -> Matrix<f64> {
    let mut c = init_table(weight);
    paren_reference(&mut c, weight);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::Rng;

    /// CLRS-style matrix-chain oracle, written independently of the
    /// table machinery above.
    fn mcm_oracle(dims: &[u64]) -> f64 {
        let n = dims.len() - 1;
        let mut m = vec![vec![0.0f64; n + 1]; n + 1];
        for len in 2..=n {
            for i in 1..=(n - len + 1) {
                let j = i + len - 1;
                m[i][j] = f64::INFINITY;
                for k in i..j {
                    let q = m[i][k] + m[k + 1][j] + (dims[i - 1] * dims[k] * dims[j]) as f64;
                    if q < m[i][j] {
                        m[i][j] = q;
                    }
                }
            }
        }
        m[1][n]
    }

    fn random_dims(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        (0..=n).map(|_| rng.range(1u64..=40)).collect()
    }

    #[test]
    fn reference_matches_clrs_oracle() {
        for seed in [1u64, 5, 9] {
            let dims = random_dims(12, seed);
            let w = ParenWeight::MatrixChain(dims.clone());
            let c = solve_reference(&w);
            assert_eq!(c.get(0, 12), mcm_oracle(&dims), "seed {seed}");
        }
    }

    #[test]
    fn recursive_matches_reference_bitwise() {
        let pool = Pool::new(3);
        for &(n, base, seed) in &[
            (8usize, 2usize, 3u64),
            (13, 2, 7),
            (16, 4, 11),
            (25, 3, 21),
            (32, 8, 5),
        ] {
            let w = ParenWeight::MatrixChain(random_dims(n, seed));
            let rec = solve_recursive(&pool, base, &w);
            let reference = solve_reference(&w);
            assert_eq!(rec.first_difference(&reference), None, "n={n} base={base}");
        }
    }

    #[test]
    fn polygon_triangulation_square_case() {
        // Unit square (4 vertices): one diagonal, two triangles; with
        // all-1 weights each triangle costs 1 → optimum 2.
        let w = ParenWeight::Polygon(vec![1.0, 1.0, 1.0, 1.0]);
        let c = solve_reference(&w);
        assert_eq!(c.get(0, 3), 2.0);
        let pool = Pool::new(2);
        let rec = solve_recursive(&pool, 2, &w);
        assert_eq!(rec.first_difference(&c), None);
    }

    #[test]
    fn known_mcm_instance() {
        // CLRS example: dims ⟨30,35,15,5,10,20,25⟩ → 15125.
        let w = ParenWeight::MatrixChain(vec![30, 35, 15, 5, 10, 20, 25]);
        let c = solve_reference(&w);
        assert_eq!(c.get(0, 6), 15125.0);
        let pool = Pool::new(2);
        let rec = solve_recursive(&pool, 2, &w);
        assert_eq!(rec.get(0, 6), 15125.0);
    }

    #[test]
    fn zero_weight_min_plus_combination() {
        // With w ≡ 0 and init = 0, everything collapses to 0.
        let w = ParenWeight::Polygon(vec![0.0; 9]);
        let c = solve_reference(&w);
        for i in 0..8 {
            for j in (i + 1)..9 {
                assert_eq!(c.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn tiny_instances() {
        let pool = Pool::new(2);
        // n = 1: single matrix, no multiplication.
        let w = ParenWeight::MatrixChain(vec![3, 4]);
        assert_eq!(solve_recursive(&pool, 2, &w).get(0, 1), 0.0);
        // n = 2: one product.
        let w = ParenWeight::MatrixChain(vec![3, 4, 5]);
        assert_eq!(solve_recursive(&pool, 2, &w).get(0, 2), 60.0);
    }
}
