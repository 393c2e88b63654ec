//! Sequence-alignment DP — the paper's introductory motivation cites
//! bioinformatics (and its related work covers Smith–Waterman on GPUs
//! and Spark). This module implements the grid-recurrence family:
//! longest common subsequence (LCS) and Needleman–Wunsch global
//! alignment, with a blocked formulation whose block-level wavefront
//! the distributed solver (`dp_core::beyond`) walks.
//!
//! Recurrence over `(n+1)×(m+1)`:
//!
//! ```text
//! LCS:  C[i][j] = C[i-1][j-1] + 1                    if a[i-1] == b[j-1]
//!               = max(C[i-1][j], C[i][j-1])          otherwise
//! NW:   C[i][j] = max(C[i-1][j-1] + s(aᵢ, bⱼ),
//!                     C[i-1][j] + gap, C[i][j-1] + gap)
//! ```
//!
//! Block `(I, J)` depends on `(I-1, J)`, `(I, J-1)`, `(I-1, J-1)` —
//! the classic anti-diagonal wavefront.

use crate::matrix::{Matrix, TileMut};

/// Scoring scheme for the grid recurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum AlignScore {
    /// Longest common subsequence: match +1, no penalties.
    Lcs,
    /// Needleman–Wunsch global alignment.
    NeedlemanWunsch {
        /// Score for `a[i] == b[j]`.
        matched: i64,
        /// Score for a substitution.
        mismatch: i64,
        /// Gap (insertion/deletion) penalty, usually negative.
        gap: i64,
    },
}

impl AlignScore {
    #[inline]
    fn diag(&self, same: bool) -> i64 {
        match self {
            AlignScore::Lcs => {
                if same {
                    1
                } else {
                    i64::MIN / 4 // LCS never takes a mismatching diagonal
                }
            }
            AlignScore::NeedlemanWunsch {
                matched, mismatch, ..
            } => {
                if same {
                    *matched
                } else {
                    *mismatch
                }
            }
        }
    }

    #[inline]
    fn gap(&self) -> i64 {
        match self {
            AlignScore::Lcs => 0,
            AlignScore::NeedlemanWunsch { gap, .. } => *gap,
        }
    }

    /// Boundary value `C[i][0]` / `C[0][j]`.
    #[inline]
    pub fn boundary(&self, steps: usize) -> i64 {
        match self {
            AlignScore::Lcs => 0,
            AlignScore::NeedlemanWunsch { gap, .. } => *gap * steps as i64,
        }
    }
}

/// One cell update given its three predecessors.
#[inline]
fn cell(score: &AlignScore, up_left: i64, up: i64, left: i64, same: bool) -> i64 {
    let d = up_left.saturating_add(score.diag(same));
    let u = up.saturating_add(score.gap());
    let l = left.saturating_add(score.gap());
    d.max(u).max(l)
}

/// An `(n+1)×(m+1)` score table holding only its boundary: row 0 and
/// column 0 from [`AlignScore::boundary`], zeros inside.
pub fn boundary_table(n: usize, m: usize, score: &AlignScore) -> Matrix<i64> {
    Matrix::from_fn(n + 1, m + 1, |i, j| match (i, j) {
        (i, 0) => score.boundary(i),
        (0, j) => score.boundary(j),
        _ => 0,
    })
}

/// Full-table reference: the `(n+1)×(m+1)` score table.
pub fn align_reference(a: &[u8], b: &[u8], score: &AlignScore) -> Matrix<i64> {
    let (n, m) = (a.len(), b.len());
    let mut table = boundary_table(n, m, score);
    let mut c = table.view_mut();
    for i in 1..=n {
        for j in 1..=m {
            let v = cell(
                score,
                c.at(i - 1, j - 1),
                c.at(i - 1, j),
                c.at(i, j - 1),
                a[i - 1] == b[j - 1],
            );
            c.set(i, j, v);
        }
    }
    table
}

/// Compute one interior block of the table given its incoming halo:
/// `top` = row above the block (length `cols+1`, includes the corner),
/// `left` = column left of the block (length `rows`). The block's view
/// offsets locate it in the global table (`row0/col0 ≥ 1`).
pub fn align_block(
    x: &mut TileMut<i64>,
    top: &[i64],
    left: &[i64],
    a: &[u8],
    b: &[u8],
    score: &AlignScore,
) {
    let (rows, cols) = (x.rows(), x.cols());
    assert_eq!(top.len(), cols + 1, "top halo includes the corner");
    assert_eq!(left.len(), rows, "left halo is the block-left column");
    let (gi0, gj0) = (x.row0(), x.col0());
    debug_assert!(gi0 >= 1 && gj0 >= 1, "interior blocks only");
    for i in 0..rows {
        let gi = gi0 + i;
        let same0 = a[gi - 1] == b[gj0 - 1];
        // j = 0 uses the left halo.
        let up_left = if i == 0 { top[0] } else { left[i - 1] };
        let up = if i == 0 { top[1] } else { x.at(i - 1, 0) };
        let v = cell(score, up_left, up, left[i], same0);
        x.set(i, 0, v);
        for j in 1..cols {
            let gj = gj0 + j;
            let same = a[gi - 1] == b[gj - 1];
            let up_left = if i == 0 { top[j] } else { x.at(i - 1, j - 1) };
            let up = if i == 0 { top[j + 1] } else { x.at(i - 1, j) };
            let left_v = x.at(i, j - 1);
            x.set(i, j, cell(score, up_left, up, left_v, same));
        }
    }
}

/// Reconstruct one LCS string from a finished score table.
pub fn traceback_lcs(c: &Matrix<i64>, a: &[u8], b: &[u8]) -> Vec<u8> {
    let (mut i, mut j) = (a.len(), b.len());
    let mut out = Vec::new();
    while i > 0 && j > 0 {
        if a[i - 1] == b[j - 1] && c.get(i, j) == c.get(i - 1, j - 1) + 1 {
            out.push(a[i - 1]);
            i -= 1;
            j -= 1;
        } else if c.get(i - 1, j) >= c.get(i, j - 1) {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcs_of_known_strings() {
        let c = align_reference(b"ABCBDAB", b"BDCABA", &AlignScore::Lcs);
        assert_eq!(c.get(7, 6), 4); // classic CLRS example: BCBA / BDAB
        let lcs = traceback_lcs(&c, b"ABCBDAB", b"BDCABA");
        assert_eq!(lcs.len(), 4);
        // Verify it's a common subsequence.
        for (s, name) in [(b"ABCBDAB".as_slice(), "a"), (b"BDCABA".as_slice(), "b")] {
            let mut pos = 0;
            for &ch in &lcs {
                pos = s[pos..]
                    .iter()
                    .position(|&x| x == ch)
                    .map(|p| pos + p + 1)
                    .unwrap_or_else(|| panic!("not a subsequence of {name}"));
            }
        }
    }

    #[test]
    fn nw_alignment_scores() {
        let score = AlignScore::NeedlemanWunsch {
            matched: 1,
            mismatch: -1,
            gap: -2,
        };
        // Identical strings: n matches.
        let c = align_reference(b"GATTACA", b"GATTACA", &score);
        assert_eq!(c.get(7, 7), 7);
        // One substitution.
        let c = align_reference(b"GATTACA", b"GACTACA", &score);
        assert_eq!(c.get(7, 7), 5); // 6 matches + 1 mismatch
                                    // Pure gaps vs empty.
        let c = align_reference(b"AAAA", b"", &score);
        assert_eq!(c.get(4, 0), -8);
    }

    #[test]
    fn blocked_computation_matches_reference() {
        let a = b"CTGATCGATTACAGGCTAGCTTAGCGA";
        let b = b"GATTACACTGAGCTAGCTAACGATC";
        for score in [
            AlignScore::Lcs,
            AlignScore::NeedlemanWunsch {
                matched: 2,
                mismatch: -1,
                gap: -2,
            },
        ] {
            let reference = align_reference(a, b, &score);
            // Blocked: interior region (1..=n)×(1..=m) in uneven blocks.
            let (n, m) = (a.len(), b.len());
            let mut table = boundary_table(n, m, &score);
            let (bi, bj) = (7usize, 6usize); // uneven block sides
            let row_blocks = n.div_ceil(bi);
            let col_blocks = m.div_ceil(bj);
            for d in 0..(row_blocks + col_blocks - 1) {
                for ii in 0..row_blocks {
                    let jj = match d.checked_sub(ii) {
                        Some(jj) if jj < col_blocks => jj,
                        _ => continue,
                    };
                    let (r0, c0) = (1 + ii * bi, 1 + jj * bj);
                    let rows = bi.min(n + 1 - r0);
                    let cols = bj.min(m + 1 - c0);
                    let top: Vec<i64> = (0..=cols).map(|j| table.get(r0 - 1, c0 - 1 + j)).collect();
                    let left: Vec<i64> = (0..rows).map(|i| table.get(r0 + i, c0 - 1)).collect();
                    let mut block = table.copy_block(r0, c0, rows, cols);
                    align_block(&mut block.view_mut_at(r0, c0), &top, &left, a, b, &score);
                    table.paste_block(r0, c0, &block);
                }
            }
            assert_eq!(table.first_difference(&reference), None, "{score:?}");
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let c = align_reference(b"", b"", &AlignScore::Lcs);
        assert_eq!(c.get(0, 0), 0);
        let c = align_reference(b"A", b"A", &AlignScore::Lcs);
        assert_eq!(c.get(1, 1), 1);
        let c = align_reference(b"A", b"B", &AlignScore::Lcs);
        assert_eq!(c.get(1, 1), 0);
    }
}
