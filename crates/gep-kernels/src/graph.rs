//! Synthetic directed-graph workloads and oracles.
//!
//! The paper's FW-APSP benchmark runs on dense weight matrices; its
//! motivation cites transportation networks among other domains. This
//! module generates both: Erdős–Rényi digraphs (the generic benchmark
//! input) and grid-shaped "road networks" (the transportation example),
//! plus a Dijkstra oracle used to validate APSP results independently
//! of any GEP code path.

use crate::matrix::Matrix;
use crate::sparse::Csr;

/// SplitMix64 (Steele, Lea & Flood 2014): the generators' seeded stream.
/// Seeds name graphs in tests, lineage keys and recorded benchmark
/// inputs, so the stream is pinned by `tests::stream_is_pinned`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`: the top 53 bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// Adjacency matrix of an Erdős–Rényi `G(n, p)` digraph with edge
/// weights uniform in `[w_min, w_max)`; absent edges are `+∞`, the
/// diagonal is `0`.
pub fn erdos_renyi(n: usize, p: f64, w_min: f64, w_max: f64, seed: u64) -> Matrix<f64> {
    assert!((0.0..=1.0).contains(&p));
    assert!(
        w_min >= 0.0 && w_max > w_min,
        "weights must be non-negative"
    );
    let mut rng = SplitMix64(seed);
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else if rng.unit() < p {
            rng.range(w_min, w_max)
        } else {
            f64::INFINITY
        }
    })
}

/// A sparse Erdős–Rényi `G(n, density)` digraph built directly in CSR
/// form: each ordered pair `(u, v)`, `u ≠ v`, carries an edge with
/// probability `density`, weight uniform in `[w_min, w_max)`, absent
/// entries (including the diagonal) are `+∞`. Deterministic from the
/// seed: the same `(n, density, w_min, w_max, seed)` always yields the
/// same tile, byte-for-byte, which the lineage-keyed result cache and
/// the replay tests rely on. Row-major generation yields canonical
/// (strictly increasing) column order for free.
pub fn sparse_erdos_renyi(n: usize, density: f64, w_min: f64, w_max: f64, seed: u64) -> Csr<f64> {
    assert!((0.0..=1.0).contains(&density));
    assert!(
        w_min >= 0.0 && w_max > w_min,
        "weights must be non-negative"
    );
    let mut rng = SplitMix64(seed);
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0u32);
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            if rng.unit() < density {
                col_idx.push(v as u32);
                vals.push(rng.range(w_min, w_max));
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    Csr::try_new(n, n, f64::INFINITY, row_ptr, col_idx, vals)
        .expect("generator emits canonical CSR")
}

/// A `rows × cols` grid "road network": vertices are intersections,
/// each connected to its 4-neighbours by directed edges whose weights
/// model segment travel times (base weight plus congestion noise, both
/// directions sampled independently). Returns the `n×n` adjacency
/// matrix with `n = rows*cols`.
pub fn grid_network(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let n = rows * cols;
    let mut rng = SplitMix64(seed);
    let mut m = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { f64::INFINITY });
    let mut cells = m.view_mut();
    let idx = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            let mut connect = |a: usize, b: usize, rng: &mut SplitMix64| {
                cells.set(a, b, 1.0 + rng.unit() * 4.0);
                cells.set(b, a, 1.0 + rng.unit() * 4.0);
            };
            if c + 1 < cols {
                connect(idx(r, c), idx(r, c + 1), &mut rng);
            }
            if r + 1 < rows {
                connect(idx(r, c), idx(r + 1, c), &mut rng);
            }
        }
    }
    m
}

/// Single-source shortest paths by Dijkstra on the adjacency matrix —
/// the independent APSP oracle (requires non-negative weights).
#[allow(clippy::needless_range_loop)]
pub fn dijkstra(adj: &Matrix<f64>, src: usize) -> Vec<f64> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry(f64, usize);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on distance.
            other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
        }
    }

    let n = adj.rows();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    dist[src] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, src));
    while let Some(Entry(d, u)) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for v in 0..n {
            let w = adj.get(u, v);
            if w.is_finite() && v != u {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Entry(nd, v));
                }
            }
        }
    }
    dist
}

/// Single-source shortest paths by Bellman–Ford — the oracle for
/// graphs with *negative* edge weights (but no negative cycles), where
/// Dijkstra does not apply. Returns `None` if a negative cycle is
/// reachable from `src`.
pub fn bellman_ford(adj: &Matrix<f64>, src: usize) -> Option<Vec<f64>> {
    let n = adj.rows();
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    for _round in 0..n {
        let mut changed = false;
        for u in 0..n {
            if dist[u].is_infinite() {
                continue;
            }
            for v in 0..n {
                if u == v {
                    continue;
                }
                let w = adj.get(u, v);
                if w.is_finite() && dist[u] + w < dist[v] {
                    dist[v] = dist[u] + w;
                    changed = true;
                }
            }
        }
        if !changed {
            return Some(dist);
        }
    }
    // Still relaxing after n rounds ⇒ negative cycle.
    None
}

/// Validate an APSP distance matrix against Dijkstra from every source.
/// Returns the first mismatching `(src, dst)` if any (tolerance for the
/// differing summation orders of path relaxations).
#[allow(clippy::needless_range_loop)]
pub fn check_apsp(adj: &Matrix<f64>, apsp: &Matrix<f64>, tol: f64) -> Option<(usize, usize)> {
    let n = adj.rows();
    for s in 0..n {
        let d = dijkstra(adj, s);
        for t in 0..n {
            let a = apsp.get(s, t);
            let b = d[t];
            let ok = if a.is_infinite() || b.is_infinite() {
                a == b
            } else {
                (a - b).abs() <= tol * (1.0 + b.abs())
            };
            if !ok {
                return Some((s, t));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::{gep_reference, Tropical};
    use testkit::Rng;

    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Recorded from the build every session since PR 11 tested against
    /// (its generator was this SplitMix64): a drift here silently
    /// changes every seeded graph, lineage key and benchmark input.
    #[test]
    fn stream_is_pinned() {
        let mut rng = SplitMix64(42);
        let draws = [rng.unit(), rng.unit(), rng.unit()].map(f64::to_bits);
        assert_eq!(
            draws,
            [0x3fe7bae644c5fd6d, 0x3fc477f199d93378, 0x3fd1d499d5c4c3e6]
        );
        assert_eq!(
            SplitMix64(42).range(1.0, 10.0).to_bits(),
            0x401eb2430d5ebd1b
        );

        let bits = |m: &Matrix<f64>| fnv(m.as_slice().iter().map(|x| x.to_bits()));
        assert_eq!(
            bits(&erdos_renyi(48, 0.3, 1.0, 10.0, 7)),
            0x19bbbd0bf21c4c1d
        );
        assert_eq!(bits(&grid_network(5, 6, 7)), 0x90bbdc1a636297aa);
        let sp = sparse_erdos_renyi(64, 0.1, 1.0, 10.0, 7);
        let words = (sp.row_ptr().iter().chain(sp.col_idx()))
            .map(|&x| u64::from(x))
            .chain(sp.vals().iter().map(|x| x.to_bits()));
        assert_eq!((sp.nnz(), fnv(words)), (394, 0x2d5999788fbe94bb));
    }

    #[test]
    fn sparse_erdos_renyi_is_deterministic_and_canonical() {
        let a = sparse_erdos_renyi(24, 0.1, 1.0, 5.0, 7);
        let b = sparse_erdos_renyi(24, 0.1, 1.0, 5.0, 7);
        assert_eq!(a, b);
        let c = sparse_erdos_renyi(24, 0.1, 1.0, 5.0, 8);
        assert_ne!(a, c);
        // No self-loops, weights in range.
        for u in 0..24 {
            for (v, w) in a.row(u) {
                assert_ne!(u, v);
                assert!((1.0..5.0).contains(&w));
            }
        }
    }

    #[test]
    fn sparse_generator_density_tracks_parameter() {
        let n = 60;
        let g = sparse_erdos_renyi(n, 0.05, 1.0, 2.0, 3);
        let expected = (n * (n - 1)) as f64 * 0.05;
        let got = g.nnz() as f64;
        assert!(
            (got - expected).abs() < expected,
            "nnz {got} wildly off expectation {expected}"
        );
        // Dense view agrees with the CSR accessors.
        let d = g.to_dense();
        for u in 0..n {
            for v in 0..n {
                assert_eq!(d.get(u, v), g.get(u, v));
            }
        }
    }

    #[test]
    fn erdos_renyi_shape_and_diagonal() {
        let g = erdos_renyi(12, 0.3, 1.0, 5.0, 9);
        for i in 0..12 {
            assert_eq!(g.get(i, i), 0.0);
            for j in 0..12 {
                let w = g.get(i, j);
                assert!(w == 0.0 && i == j || w >= 1.0 || w.is_infinite());
            }
        }
    }

    #[test]
    fn erdos_renyi_is_deterministic_per_seed() {
        let a = erdos_renyi(10, 0.5, 0.0, 1.0, 4);
        let b = erdos_renyi(10, 0.5, 0.0, 1.0, 4);
        assert_eq!(a.first_difference(&b), None);
        let c = erdos_renyi(10, 0.5, 0.0, 1.0, 5);
        assert!(a.first_difference(&c).is_some());
    }

    #[test]
    fn grid_network_connects_neighbours_only() {
        let g = grid_network(3, 4, 11);
        // (0,0) ↔ (0,1) connected; (0,0) vs (1,1) not.
        assert!(g.get(0, 1).is_finite());
        assert!(g.get(1, 0).is_finite());
        assert!(g.get(0, 5).is_infinite());
        // Grid graphs are strongly connected → FW gives all-finite.
        let mut d = g.clone();
        gep_reference::<Tropical>(&mut d);
        for i in 0..12 {
            for j in 0..12 {
                assert!(d.get(i, j).is_finite(), "({i},{j}) unreachable");
            }
        }
    }

    #[test]
    fn fw_agrees_with_dijkstra() {
        let g = erdos_renyi(30, 0.2, 1.0, 10.0, 123);
        let mut d = g.clone();
        gep_reference::<Tropical>(&mut d);
        assert_eq!(check_apsp(&g, &d, 1e-9), None);
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let mut g = Matrix::from_fn(3, 3, |i, j| if i == j { 0.0 } else { f64::INFINITY });
        g.set(0, 1, 2.0);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0.0, 2.0, f64::INFINITY]);
    }

    #[test]
    fn check_apsp_catches_wrong_distances() {
        let g = erdos_renyi(10, 0.4, 1.0, 3.0, 77);
        let mut d = g.clone();
        gep_reference::<Tropical>(&mut d);
        let mut wrong = d.clone();
        wrong.set(0, 1, -1.0);
        assert_eq!(check_apsp(&g, &wrong, 1e-9), Some((0, 1)));
    }

    #[test]
    fn bellman_ford_handles_negative_edges() {
        let inf = f64::INFINITY;
        // 0 →(4) 1 →(-2) 2; direct 0→2 of 3 → best is 2 via 1.
        let g = Matrix::from_vec(3, 3, vec![0.0, 4.0, 3.0, inf, 0.0, -2.0, inf, inf, 0.0]);
        let d = bellman_ford(&g, 0).expect("no negative cycle");
        assert_eq!(d, vec![0.0, 4.0, 2.0]);
    }

    #[test]
    fn bellman_ford_detects_negative_cycles() {
        let inf = f64::INFINITY;
        let g = Matrix::from_vec(2, 2, vec![0.0, -1.0, -1.0, 0.0]);
        assert!(bellman_ford(&g, 0).is_none());
        let ok = Matrix::from_vec(2, 2, vec![0.0, -1.0, 5.0, 0.0]);
        assert!(bellman_ford(&ok, 0).is_some());
        let _ = inf;
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn fw_matches_bellman_ford_with_negative_edges() {
        // Integer weights in [-3, 9], no negative cycles (checked by
        // the oracle itself): all GEP execution orders stay exact.
        let mut rng = Rng::new(31);
        let n = 14;
        // Johnson-style potential shift: start from non-negative
        // integer weights w and reweight w' = w + h(u) − h(v). Every
        // cycle keeps its (non-negative) sum, so no negative cycles,
        // yet individual edges go negative.
        let h = |v: usize| ((v * 5) % 11) as f64;
        let g = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if rng.range(0.0..1.0) < 0.35 {
                rng.range(0.0..9.0).floor() + h(i) - h(j)
            } else {
                f64::INFINITY
            }
        });
        assert!(
            (0..n).any(|i| (0..n).any(|j| g.get(i, j).is_finite() && g.get(i, j) < 0.0)),
            "construction must actually produce negative edges"
        );
        let bf0 = bellman_ford(&g, 0).expect("potential shift cannot create negative cycles");
        let mut fw = g.clone();
        gep_reference::<Tropical>(&mut fw);
        for t in 0..n {
            assert_eq!(fw.get(0, t), bf0[t], "dest {t}");
        }
        // Blocked execution stays exact with negative weights too.
        let mut blocked = g.clone();
        crate::iterative::blocked_gep::<Tropical>(&mut blocked, 2);
        assert_eq!(blocked.first_difference(&fw), None);
    }
}
