//! Sparse tile representation (CSR) and the relaxation-sweep kernel.
//!
//! The dense data plane stores every tile as a row-major
//! [`Matrix`]; that is the right shape for blocked Floyd–Warshall on
//! dense weight matrices, but Schoeneman & Zola show that APSP on
//! *large sparse graphs* lives in a different regime: partitioned
//! multi-source SSSP sweeps whose work is `O(sources · nnz)` per
//! round, not `O(n³)` total. This module provides the second tile
//! representation that regime needs:
//!
//! * [`Csr`] — a validated compressed-sparse-row tile over any
//!   [`Elem`], with an explicit *fill* value standing for every absent
//!   entry (`+∞` for min-plus weights). Canonical form — strictly
//!   increasing column indices within each row, no stored fills
//!   required — makes equal tiles byte-equal on the wire, which the
//!   lineage-keyed result cache relies on.
//! * [`sweep_gep`] — one relaxation sweep expressed through
//!   [`GepSpec::f`], the sparse counterpart of the dense A/B/C/D
//!   kernels: for every source row `s` and stored edge `(u → v, w)`,
//!   `cand[s][v] = f(cand[s][v], dist[s][u], w, w)`. For
//!   [`Tropical`](crate::gep::Tropical) this is exactly the
//!   Bellman–Ford relaxation `cand[s][v] = min(cand[s][v],
//!   dist[s][u] + w)`. It is the one implementation of the sweep, so
//!   dp-core's sparse-APSP path calls it directly (as it calls
//!   `align_block` and `parenthesis::rec_a`): a kernel registry would
//!   have nothing to select between.
//!
//! The wire codec for CSR tiles lives with the rest of the `Block`
//! codec in dp-core (this crate stays serialization-free); the
//! structural validation shared by both sides lives here in
//! [`Csr::try_new`].

use crate::gep::GepSpec;
use crate::matrix::{Elem, Matrix};

/// Why a CSR construction or decode was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `row_ptr` must have exactly `rows + 1` entries.
    RowPtrLen {
        /// Entries found.
        got: usize,
        /// Entries required (`rows + 1`).
        want: usize,
    },
    /// `row_ptr` must start at 0, be non-decreasing, and end at `nnz`.
    RowPtrShape(String),
    /// `col_idx` and `vals` must both have `nnz` entries.
    NnzMismatch {
        /// Length of `col_idx`.
        cols: usize,
        /// Length of `vals`.
        vals: usize,
    },
    /// A stored column index is out of range or out of order.
    ColIdx(String),
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::RowPtrLen { got, want } => {
                write!(f, "row_ptr has {got} entries, want {want}")
            }
            CsrError::RowPtrShape(m) => write!(f, "row_ptr: {m}"),
            CsrError::NnzMismatch { cols, vals } => {
                write!(f, "col_idx has {cols} entries but vals has {vals}")
            }
            CsrError::ColIdx(m) => write!(f, "col_idx: {m}"),
        }
    }
}

/// A validated CSR tile: `rows × cols` logical shape, `nnz` stored
/// entries, every absent entry equal to `fill`.
///
/// Invariants (checked by [`Csr::try_new`], preserved by every
/// constructor):
///
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`, non-decreasing,
///   `row_ptr[rows] == nnz`;
/// * `col_idx.len() == vals.len() == nnz`;
/// * within each row, column indices are strictly increasing and
///   `< cols` (canonical form — one byte sequence per logical tile).
///
/// Stored values equal to `fill` are permitted (an update tile may
/// legitimately carry an entry whose value happens to equal the fill);
/// canonicality is about *positions*, not values.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<E> {
    rows: usize,
    cols: usize,
    fill: E,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<E>,
}

impl<E: Elem> Csr<E> {
    /// Build a CSR tile from raw parts, validating every invariant.
    pub fn try_new(
        rows: usize,
        cols: usize,
        fill: E,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        vals: Vec<E>,
    ) -> Result<Self, CsrError> {
        if row_ptr.len() != rows + 1 {
            return Err(CsrError::RowPtrLen {
                got: row_ptr.len(),
                want: rows + 1,
            });
        }
        if row_ptr[0] != 0 {
            return Err(CsrError::RowPtrShape(format!(
                "starts at {}, want 0",
                row_ptr[0]
            )));
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(CsrError::RowPtrShape(format!(
                    "decreases from {} to {}",
                    w[0], w[1]
                )));
            }
        }
        let nnz = row_ptr[rows] as usize;
        if col_idx.len() != nnz || vals.len() != nnz {
            return Err(if col_idx.len() != vals.len() {
                CsrError::NnzMismatch {
                    cols: col_idx.len(),
                    vals: vals.len(),
                }
            } else {
                CsrError::RowPtrShape(format!(
                    "ends at {} but {} entries are stored",
                    nnz,
                    col_idx.len()
                ))
            });
        }
        for r in 0..rows {
            let (lo, hi) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
            let mut prev: Option<u32> = None;
            for &c in &col_idx[lo..hi] {
                if c as usize >= cols {
                    return Err(CsrError::ColIdx(format!(
                        "row {r} stores column {c}, width is {cols}"
                    )));
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(CsrError::ColIdx(format!(
                            "row {r} columns not strictly increasing ({p} then {c})"
                        )));
                    }
                }
                prev = Some(c);
            }
        }
        Ok(Csr {
            rows,
            cols,
            fill,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// An empty (all-fill) tile.
    pub fn filled(rows: usize, cols: usize, fill: E) -> Self {
        Csr {
            rows,
            cols,
            fill,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Compress a dense matrix: every entry `!= fill` is stored.
    /// Row-major traversal yields canonical (sorted) column order.
    pub fn from_dense(m: &Matrix<E>, fill: E) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let m = m.view();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for i in 0..rows {
            for j in 0..cols {
                let v = m.at(i, j);
                if v != fill {
                    col_idx.push(j as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr {
            rows,
            cols,
            fill,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Compress the `cols ∈ [c0, c1)` slab of a dense matrix, re-basing
    /// stored column indices to the slab (used when a sweep stage cuts
    /// its candidate matrix into per-partition update tiles).
    pub fn from_dense_cols(m: &Matrix<E>, c0: usize, c1: usize, fill: E) -> Self {
        assert!(c0 <= c1 && c1 <= m.cols(), "column slab out of range");
        let rows = m.rows();
        let m = m.view();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for i in 0..rows {
            for j in c0..c1 {
                let v = m.at(i, j);
                if v != fill {
                    col_idx.push((j - c0) as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr {
            rows,
            cols: c1 - c0,
            fill,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Extract the `rows ∈ [r0, r1)` slab, keeping all columns (used
    /// when the partitioned sweep path deals each partition its owned
    /// rows of the global edge matrix).
    pub fn row_slab(&self, r0: usize, r1: usize) -> Self {
        assert!(r0 <= r1 && r1 <= self.rows, "row slab out of range");
        let base = self.row_ptr[r0];
        let end = self.row_ptr[r1] as usize;
        let row_ptr: Vec<u32> = self.row_ptr[r0..=r1].iter().map(|&p| p - base).collect();
        Csr {
            rows: r1 - r0,
            cols: self.cols,
            fill: self.fill,
            row_ptr,
            col_idx: self.col_idx[base as usize..end].to_vec(),
            vals: self.vals[base as usize..end].to_vec(),
        }
    }

    /// Expand to a dense matrix (absent entries become `fill`).
    pub fn to_dense(&self) -> Matrix<E> {
        let mut m = Matrix::filled(self.rows, self.cols, self.fill);
        let mut cells = m.view_mut();
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                cells.set(i, j, v);
            }
        }
        m
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Fill value standing for every absent entry.
    pub fn fill(&self) -> E {
        self.fill
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Raw row-pointer array (`rows + 1` entries), for codecs.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Raw column-index array (`nnz` entries), for codecs.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw value array (`nnz` entries), for codecs.
    pub fn vals(&self) -> &[E] {
        &self.vals
    }

    /// Stored entries of row `i` as `(col, value)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, E)> + '_ {
        let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.vals[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Entry at `(i, j)` — `fill` if not stored. Binary search within
    /// the row (canonical order makes that valid).
    pub fn get(&self, i: usize, j: usize) -> E {
        let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        match self.col_idx[lo..hi].binary_search(&(j as u32)) {
            Ok(k) => self.vals[lo + k],
            Err(_) => self.fill,
        }
    }
}

/// One relaxation sweep through the GEP update function: for every
/// source row `s` of `dist` and every stored entry `(u → v, w)` of
/// `edges`, fold
///
/// ```text
/// cand[s][v] = f(cand[s][v], dist[s][u], w, w)
/// ```
///
/// Shapes: `edges` is `local_rows × n_target`, `dist` is
/// `sources × local_rows` (current best distances to the locally
/// owned vertices), `cand` is `sources × n_target` (candidate
/// improvements produced by this sweep). For
/// [`Tropical`](crate::gep::Tropical) (`f(x,u,v,_) = min(x, u+v)`)
/// this is the multi-source Bellman–Ford relaxation of Schoeneman &
/// Zola's SSSP sweeps. `skip` elements of `dist` (the fill value,
/// e.g. `+∞`) are not relaxed — unreachable vertices never generate
/// candidates, keeping the sweep `O(frontier · nnz / rows)` instead
/// of `O(sources · nnz)` once distances stabilize.
pub fn sweep_gep<S: GepSpec>(
    edges: &Csr<S::Elem>,
    dist: &Matrix<S::Elem>,
    skip: S::Elem,
    cand: &mut Matrix<S::Elem>,
) {
    assert_eq!(dist.cols(), edges.rows(), "dist width != local vertices");
    assert_eq!(cand.cols(), edges.cols(), "cand width != target vertices");
    assert_eq!(cand.rows(), dist.rows(), "cand/dist source count mismatch");
    let (dist, mut cand) = (dist.view(), cand.view_mut());
    for s in 0..dist.rows() {
        for u in 0..edges.rows() {
            let d = dist.at(s, u);
            if d == skip {
                continue;
            }
            for (v, w) in edges.row(u) {
                let x = cand.at(s, v);
                cand.set(s, v, S::f(x, d, w, w));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::Tropical;

    const INF: f64 = f64::INFINITY;

    fn small() -> Matrix<f64> {
        Matrix::from_vec(
            3,
            4,
            vec![
                0.0, 2.0, INF, INF, //
                INF, 0.0, 3.0, INF, //
                1.0, INF, 0.0, 7.0,
            ],
        )
    }

    #[test]
    fn dense_roundtrip_preserves_everything() {
        let m = small();
        let c = Csr::from_dense(&m, INF);
        assert_eq!(c.nnz(), 7);
        assert_eq!(c.to_dense().first_difference(&m), None);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(c.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn column_slab_rebases_indices() {
        let m = small();
        let c = Csr::from_dense_cols(&m, 2, 4, INF);
        assert_eq!((c.rows(), c.cols()), (3, 2));
        assert_eq!(c.get(1, 0), 3.0); // global column 2
        assert_eq!(c.get(2, 1), 7.0); // global column 3
        assert_eq!(c.get(0, 0), INF);
    }

    #[test]
    fn row_slab_rebases_pointers() {
        let m = small();
        let c = Csr::from_dense(&m, INF);
        let s = c.row_slab(1, 3);
        assert_eq!((s.rows(), s.cols()), (2, 4));
        assert_eq!(s.row_ptr()[0], 0, "slab pointers re-base to zero");
        assert_eq!(
            s.to_dense().first_difference(&m.copy_block(1, 0, 2, 4)),
            None
        );
        // Degenerate slabs stay canonical.
        assert!(Csr::try_new(
            0,
            4,
            INF,
            c.row_slab(2, 2).row_ptr().to_vec(),
            vec![],
            vec![]
        )
        .is_ok());
    }

    #[test]
    fn try_new_rejects_malformed_parts() {
        // row_ptr wrong length.
        assert!(matches!(
            Csr::<f64>::try_new(2, 2, INF, vec![0, 1], vec![0], vec![1.0]),
            Err(CsrError::RowPtrLen { .. })
        ));
        // row_ptr decreasing.
        assert!(matches!(
            Csr::<f64>::try_new(2, 2, INF, vec![0, 1, 0], vec![0], vec![1.0]),
            Err(CsrError::RowPtrShape(_))
        ));
        // nnz mismatch between col_idx and vals.
        assert!(matches!(
            Csr::<f64>::try_new(1, 2, INF, vec![0, 1], vec![0], vec![]),
            Err(CsrError::NnzMismatch { .. })
        ));
        // terminal row_ptr disagrees with stored length.
        assert!(matches!(
            Csr::<f64>::try_new(1, 2, INF, vec![0, 2], vec![0], vec![1.0]),
            Err(CsrError::RowPtrShape(_))
        ));
        // column out of range.
        assert!(matches!(
            Csr::<f64>::try_new(1, 2, INF, vec![0, 1], vec![5], vec![1.0]),
            Err(CsrError::ColIdx(_))
        ));
        // duplicate / unsorted columns.
        assert!(matches!(
            Csr::<f64>::try_new(1, 3, INF, vec![0, 2], vec![1, 1], vec![1.0, 2.0]),
            Err(CsrError::ColIdx(_))
        ));
        // and a well-formed one passes.
        assert!(Csr::<f64>::try_new(1, 3, INF, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn sweep_matches_direct_relaxation() {
        // edges over 3 local vertices into a 4-vertex target space.
        let edges = Csr::from_dense(&small(), INF);
        // Two sources with known distances to the 3 local vertices.
        let dist = Matrix::from_vec(2, 3, vec![0.0, 2.0, INF, 5.0, INF, 1.0]);
        let mut cand = Matrix::filled(2, 4, INF);
        sweep_gep::<Tropical>(&edges, &dist, INF, &mut cand);
        // Source 0: via u=0 (d=0): 0+0, 0+2; via u=1 (d=2): 2+0=2 at v1, 2+3=5 at v2.
        assert_eq!(cand.get(0, 0), 0.0);
        assert_eq!(cand.get(0, 1), 2.0);
        assert_eq!(cand.get(0, 2), 5.0);
        assert_eq!(cand.get(0, 3), INF);
        // Source 1: via u=0 (d=5): 5, 7; via u=2 (d=1): 1+1=2 at v0, 1+0=1 at v2, 1+7=8 at v3.
        assert_eq!(cand.get(1, 0), 2.0);
        assert_eq!(cand.get(1, 1), 7.0);
        assert_eq!(cand.get(1, 2), 1.0);
        assert_eq!(cand.get(1, 3), 8.0);
    }

    #[test]
    fn sweep_skips_unreachable_sources() {
        let edges = Csr::from_dense(&small(), INF);
        let dist = Matrix::filled(1, 3, INF);
        let mut cand = Matrix::filled(1, 4, INF);
        sweep_gep::<Tropical>(&edges, &dist, INF, &mut cand);
        for j in 0..4 {
            assert_eq!(cand.get(0, j), INF);
        }
    }
}
