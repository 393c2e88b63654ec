//! The benchmark's own references, written against plain `Vec`s and
//! sharing no code with the program under test, plus the 128-bit digest
//! every result is compared by. Each reference performs the same
//! arithmetic per cell as the problem's definition, so on the inputs
//! `gen` makes (integer weights, diagonally dominant systems) a correct
//! result matches bit for bit.

/// 128-bit digest over 64-bit words: two multiply–rotate lanes with
/// different odd constants, finalised with the word count.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    a: u64,
    b: u64,
    words: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            a: 0x243F_6A88_85A3_08D3,
            b: 0x1319_8A2E_0370_7344,
            words: 0,
        }
    }
}

impl Digest {
    /// Absorb one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.a = (self.a ^ w)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
        self.b = (self.b.rotate_left(31) ^ w).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        self.words += 1;
    }

    /// The digest of everything absorbed so far.
    pub fn finish(self) -> u128 {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let hi = mix(self.a ^ self.words);
        let lo = mix(self.b.wrapping_add(hi));
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// Digest of a `rows × cols` table of 64-bit cells: the words `rows`,
/// `cols`, then every cell's bits in row-major order — the same words
/// [`digest_bytes`] reads from the program's result encoding.
pub fn digest_table(rows: usize, cols: usize, cells: impl IntoIterator<Item = u64>) -> u128 {
    let mut d = Digest::default();
    d.word(rows as u64);
    d.word(cols as u64);
    for c in cells {
        d.word(c);
    }
    d.finish()
}

/// [`digest_table`] of an `f64` table.
pub fn digest_f64(rows: usize, cols: usize, cells: &[f64]) -> u128 {
    assert_eq!(cells.len(), rows * cols);
    digest_table(rows, cols, cells.iter().map(|v| v.to_bits()))
}

/// Digest of a byte string as little-endian words, the tail zero-padded
/// and the length absorbed last.
pub fn digest_bytes(bytes: &[u8]) -> u128 {
    let mut d = Digest::default();
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        d.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        d.word(u64::from_le_bytes(last));
        d.word(bytes.len() as u64);
    }
    d.finish()
}

/// All-pairs shortest paths by the min-plus triple loop, in place on a
/// row-major `n × n` distance table (`+∞` = no edge).
pub fn floyd_warshall(n: usize, d: &mut [f64]) {
    assert_eq!(d.len(), n * n);
    for k in 0..n {
        let row_k: Vec<f64> = d[k * n..(k + 1) * n].to_vec();
        for i in 0..n {
            let dik = d[i * n + k];
            let row_i = &mut d[i * n..(i + 1) * n];
            for (x, &dkj) in row_i.iter_mut().zip(&row_k) {
                let via = dik + dkj;
                if via < *x {
                    *x = via;
                }
            }
        }
    }
}

/// Gaussian elimination without pivoting, in place on a row-major
/// `n × n` matrix: for every `k`, every `i > k` and `j > k`,
/// `x[i][j] -= x[i][k] * x[k][j] / x[k][k]`. Cells with `j ≤ k` are left
/// as they were, exactly as the GEP form defines it.
pub fn gaussian_elimination(n: usize, x: &mut [f64]) {
    assert_eq!(x.len(), n * n);
    for k in 0..n {
        let w = x[k * n + k];
        let row_k: Vec<f64> = x[k * n..(k + 1) * n].to_vec();
        for i in k + 1..n {
            let u = x[i * n + k];
            for j in k + 1..n {
                let cell = &mut x[i * n + j];
                *cell -= u * row_k[j] / w;
            }
        }
    }
}

/// Needleman–Wunsch score table, `(a.len()+1) × (b.len()+1)` row-major.
pub fn needleman_wunsch(a: &[u8], b: &[u8], matched: i64, mismatch: i64, gap: i64) -> Vec<i64> {
    let (rows, cols) = (a.len() + 1, b.len() + 1);
    let mut c = vec![0i64; rows * cols];
    for i in 0..rows {
        c[i * cols] = gap * i as i64;
    }
    for (j, cell) in c[..cols].iter_mut().enumerate() {
        *cell = gap * j as i64;
    }
    for i in 1..rows {
        for j in 1..cols {
            let diag = c[(i - 1) * cols + j - 1]
                + if a[i - 1] == b[j - 1] {
                    matched
                } else {
                    mismatch
                };
            let up = c[(i - 1) * cols + j] + gap;
            let left = c[i * cols + j - 1] + gap;
            c[i * cols + j] = diag.max(up).max(left);
        }
    }
    c
}

/// A sparse directed graph in CSR form (columns sorted within a row).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseGraph {
    /// Vertex count.
    pub n: usize,
    /// `n + 1` row offsets into `col_idx` / `weights`.
    pub row_ptr: Vec<u32>,
    /// Edge targets.
    pub col_idx: Vec<u32>,
    /// Edge weights.
    pub weights: Vec<f64>,
}

/// Bellman–Ford from each source: a `sources.len() × n` row-major
/// distance table, `+∞` for unreachable vertices.
pub fn bellman_ford(g: &SparseGraph, sources: &[u32]) -> Vec<f64> {
    let mut out = Vec::with_capacity(sources.len() * g.n);
    for &s in sources {
        let mut dist = vec![f64::INFINITY; g.n];
        dist[s as usize] = 0.0;
        loop {
            let mut changed = false;
            for u in 0..g.n {
                if dist[u].is_infinite() {
                    continue;
                }
                for e in g.row_ptr[u] as usize..g.row_ptr[u + 1] as usize {
                    let via = dist[u] + g.weights[e];
                    let v = g.col_idx[e] as usize;
                    if via < dist[v] {
                        dist[v] = via;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        out.extend_from_slice(&dist);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    #[test]
    fn digest_separates_near_misses_and_agrees_across_entry_points() {
        let cells = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let base = digest_f64(2, 3, &cells);
        assert_ne!(
            base,
            digest_f64(3, 2, &cells),
            "shape is part of the digest"
        );
        let mut bent = cells;
        bent[4] = f64::from_bits(bent[4].to_bits() ^ 1);
        assert_ne!(base, digest_f64(2, 3, &bent), "one flipped bit");
        let mut swapped = cells;
        swapped.swap(0, 1);
        assert_ne!(base, digest_f64(2, 3, &swapped), "order matters");
        // The program encodes a table as rows, cols, then cells, all LE.
        let mut bytes = Vec::new();
        for w in [2u64, 3]
            .into_iter()
            .chain(cells.iter().map(|v| v.to_bits()))
        {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(digest_bytes(&bytes), base);
        assert_ne!(digest_bytes(&bytes[..bytes.len() - 1]), base, "truncation");
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
    }

    #[test]
    fn floyd_warshall_on_a_known_graph() {
        #[rustfmt::skip]
        let mut d = vec![
            0.0, 3.0, INF, 7.0,
            8.0, 0.0, 2.0, INF,
            5.0, INF, 0.0, 1.0,
            2.0, INF, INF, 0.0,
        ];
        floyd_warshall(4, &mut d);
        #[rustfmt::skip]
        assert_eq!(d, vec![
            0.0, 3.0, 5.0, 6.0,
            5.0, 0.0, 2.0, 3.0,
            3.0, 6.0, 0.0, 1.0,
            2.0, 5.0, 7.0, 0.0,
        ]);
    }

    #[test]
    fn gaussian_elimination_leaves_the_upper_triangle_of_lu() {
        #[rustfmt::skip]
        let mut x = vec![
            2.0, 1.0, 1.0,
            4.0, 3.0, 3.0,
            8.0, 7.0, 9.0,
        ];
        gaussian_elimination(3, &mut x);
        // U = [[2,1,1],[0,1,1],[0,0,2]]; cells left of the pivot keep
        // their incoming values.
        assert_eq!(&x[..3], &[2.0, 1.0, 1.0]);
        assert_eq!(&x[4..6], &[1.0, 1.0]);
        assert_eq!(x[8], 2.0);
        assert_eq!((x[3], x[6], x[7]), (4.0, 8.0, 3.0));
    }

    #[test]
    fn needleman_wunsch_scores_a_textbook_pair() {
        let c = needleman_wunsch(b"GATTACA", b"GCATGCU", 1, -1, -1);
        assert_eq!(c[c.len() - 1], 0);
        assert_eq!(c[1], -1);
        assert_eq!(c[8], -1);
        assert_eq!(c[9], 1);
    }

    #[test]
    fn bellman_ford_matches_floyd_warshall_rows() {
        // 0→1 (4), 0→2 (1), 2→1 (2), 1→3 (5); vertex 4 isolated.
        let g = SparseGraph {
            n: 5,
            row_ptr: vec![0, 2, 3, 4, 4, 4],
            col_idx: vec![1, 2, 3, 1],
            weights: vec![4.0, 1.0, 5.0, 2.0],
        };
        let got = bellman_ford(&g, &[0, 2]);
        assert_eq!(&got[..5], &[0.0, 3.0, 1.0, 8.0, INF]);
        assert_eq!(&got[5..], &[INF, 2.0, 0.0, 7.0, INF]);
    }
}
