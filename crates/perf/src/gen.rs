//! Seeded input generation. Everything the program is given comes from
//! here; the same seed gives the same inputs.

use crate::oracle::SparseGraph;

/// splitmix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label so that
    /// the workloads of one seed do not share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A complete directed graph as a row-major distance table: integer
/// weights in `1..=100`, zero diagonal. Integer weights make every path
/// sum exact, so all execution orders agree bit for bit.
pub fn dense_graph(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut d = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let w = (rng.below(100) + 1) as f64;
            d.push(if i == j { 0.0 } else { w });
        }
    }
    d
}

/// A strictly diagonally dominant system matrix, row-major: off-diagonal
/// entries are multiples of 1/512 in `(-1, 1)`, the diagonal is `n + 2`,
/// so elimination without pivoting is stable.
pub fn dominant_matrix(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut x = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let off = (rng.below(1023) as f64 - 511.0) / 512.0;
            x.push(if i == j { n as f64 + 2.0 } else { off });
        }
    }
    x
}

/// A random sequence over a four-letter alphabet.
pub fn sequence(len: usize, rng: &mut Rng) -> Vec<u8> {
    (0..len).map(|_| b"ACGT"[rng.below(4) as usize]).collect()
}

/// A random sparse digraph: each ordered pair `u ≠ v` is an edge with
/// probability `density`, integer weights in `1..=9`.
pub fn sparse_graph(n: usize, density: f64, rng: &mut Rng) -> SparseGraph {
    assert!(density > 0.0 && density < 1.0);
    let mut g = SparseGraph {
        n,
        row_ptr: vec![0],
        col_idx: Vec::new(),
        weights: Vec::new(),
    };
    // Geometric gaps between kept cells: one draw per edge, not per pair.
    let gap = |rng: &mut Rng| ((1.0 - rng.unit()).ln() / (1.0 - density).ln()) as usize;
    for u in 0..n {
        let mut v = gap(rng);
        while v < n {
            if v != u {
                g.col_idx.push(v as u32);
                g.weights.push((rng.below(9) + 1) as f64);
            }
            v += 1 + gap(rng);
        }
        g.row_ptr.push(g.col_idx.len() as u32);
    }
    g
}

/// `count` distinct vertices of `0..n`, in draw order.
pub fn distinct_vertices(count: usize, n: usize, rng: &mut Rng) -> Vec<u32> {
    assert!(count <= n);
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let v = rng.below(n as u64) as u32;
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = dense_graph(8, &mut Rng::new(7, 1));
        assert_eq!(a, dense_graph(8, &mut Rng::new(7, 1)));
        assert_ne!(a, dense_graph(8, &mut Rng::new(8, 1)));
        assert_ne!(a, dense_graph(8, &mut Rng::new(7, 2)));
        assert!(a
            .iter()
            .all(|w| (0.0..=100.0).contains(w) && w.fract() == 0.0));
    }

    #[test]
    fn sparse_graph_is_canonical_csr() {
        let g = sparse_graph(64, 0.1, &mut Rng::new(3, 0));
        assert_eq!(g.row_ptr.len(), 65);
        assert_eq!(*g.row_ptr.last().unwrap() as usize, g.col_idx.len());
        for u in 0..64 {
            let row = &g.col_idx[g.row_ptr[u] as usize..g.row_ptr[u + 1] as usize];
            assert!(row.windows(2).all(|w| w[0] < w[1]));
            assert!(!row.contains(&(u as u32)));
        }
        let picked = distinct_vertices(16, 64, &mut Rng::new(3, 1));
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
    }
}
