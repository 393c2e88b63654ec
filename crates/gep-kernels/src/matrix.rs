//! Dense row-major matrices and borrowed tile views.
//!
//! A [`Matrix`] shares its cells copy-on-write: cloning one is a
//! refcount bump, and the first mutable access through a handle whose
//! cells another handle still holds copies them once (`Arc::make_mut`).
//! So a cached table hands its tiles to every reader for free, and only
//! a kernel's write pays for a copy. [`TileRef`]/[`TileMut`] are strided
//! views onto a rectangular window of one, carrying the window's
//! **global offsets** (`row0`, `col0`) so GEP kernels can evaluate Σ_G
//! with global indices no matter how deeply a tile has been subdivided.
//! Each `&mut` accessor unshares on every call, so a loop over cells
//! takes one [`Matrix::view_mut`] and writes through it.
//!
//! The only unsafe code is the disjoint split of a `TileMut` into an
//! `r×r` grid of sub-`TileMut`s — sound because the sub-windows
//! partition the parent window, so no element is reachable from two of
//! them.

use std::marker::PhantomData;
use std::sync::Arc;

/// Element bound shared by all kernels in this crate.
pub trait Elem: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {}
impl<T: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static> Elem for T {}

/// A dense row-major `rows × cols` matrix whose cells are shared
/// copy-on-write between clones.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<E> {
    rows: usize,
    cols: usize,
    data: Arc<Vec<E>>,
}

impl<E: Elem> Matrix<E> {
    /// A matrix filled with `fill`.
    pub fn filled(rows: usize, cols: usize, fill: E) -> Self {
        Self {
            rows,
            cols,
            data: Arc::new(vec![fill; rows * cols]),
        }
    }

    /// A square matrix filled with `fill`.
    pub fn square(n: usize, fill: E) -> Self {
        Self::filled(n, n, fill)
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> E) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Reassemble a matrix from owned data (must have `rows*cols` items).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<E>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self {
            rows,
            cols,
            data: Arc::new(data),
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major storage.
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Mutable flat row-major storage (unshares the cells first).
    pub fn as_mut_slice(&mut self) -> &mut [E] {
        self.cells_mut()
    }

    /// The cells, copied first if another clone still holds them: the
    /// one place a write pays for sharing.
    fn cells_mut(&mut self) -> &mut Vec<E> {
        Arc::make_mut(&mut self.data)
    }

    /// Read element `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> E {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Write the one element `(i, j)`. Every call checks whether the
    /// cells are shared (an atomic compare-and-swap), so a loop over
    /// cells takes [`Matrix::view_mut`] once and writes through the
    /// [`TileMut`].
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: E) {
        debug_assert!(i < self.rows && j < self.cols);
        let cols = self.cols;
        self.cells_mut()[i * cols + j] = v;
    }

    /// Immutable view of the whole matrix with global offsets `(0, 0)`.
    pub fn view(&self) -> TileRef<'_, E> {
        self.view_at(0, 0)
    }

    /// Mutable view of the whole matrix with global offsets `(0, 0)`
    /// (unshares the cells first).
    pub fn view_mut(&mut self) -> TileMut<'_, E> {
        self.view_mut_at(0, 0)
    }

    /// Immutable whole-matrix view that *pretends* to sit at global
    /// offsets `(row0, col0)` — used by distributed executors whose
    /// blocks are stored as standalone matrices but logically live at a
    /// grid position (Σ_G needs the global indices).
    pub fn view_at(&self, row0: usize, col0: usize) -> TileRef<'_, E> {
        TileRef {
            ptr: self.data.as_ptr(),
            stride: self.cols,
            rows: self.rows,
            cols: self.cols,
            row0,
            col0,
            _marker: PhantomData,
        }
    }

    /// Mutable counterpart of [`Matrix::view_at`] (unshares the cells
    /// first).
    pub fn view_mut_at(&mut self, row0: usize, col0: usize) -> TileMut<'_, E> {
        TileMut {
            ptr: self.cells_mut().as_mut_ptr(),
            stride: self.cols,
            rows: self.rows,
            cols: self.cols,
            row0,
            col0,
            _marker: PhantomData,
        }
    }

    /// Copy the `rows × cols` window at `(i0, j0)` into a new owned
    /// matrix (used to extract distribution blocks).
    pub fn copy_block(&self, i0: usize, j0: usize, rows: usize, cols: usize) -> Matrix<E> {
        assert!(i0 + rows <= self.rows && j0 + cols <= self.cols);
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            let off = (i0 + i) * self.cols + j0;
            data.extend_from_slice(&self.data[off..off + cols]);
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Write `block` into the window at `(i0, j0)` (unshares the cells
    /// first).
    pub fn paste_block(&mut self, i0: usize, j0: usize, block: &Matrix<E>) {
        assert!(i0 + block.rows <= self.rows && j0 + block.cols <= self.cols);
        let cols = self.cols;
        let dst = self.cells_mut();
        for i in 0..block.rows {
            let src = &block.data[i * block.cols..(i + 1) * block.cols];
            let off = (i0 + i) * cols + j0;
            dst[off..off + block.cols].copy_from_slice(src);
        }
    }

    /// Index of the first element that differs, if any (exact equality).
    pub fn first_difference(&self, other: &Matrix<E>) -> Option<(usize, usize)> {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for i in 0..self.rows {
            for j in 0..self.cols {
                if self.get(i, j) != other.get(i, j) {
                    return Some((i, j));
                }
            }
        }
        None
    }
}

/// Immutable strided view of a matrix window, with global offsets.
#[derive(Clone, Copy)]
pub struct TileRef<'a, E> {
    ptr: *const E,
    stride: usize,
    rows: usize,
    cols: usize,
    row0: usize,
    col0: usize,
    _marker: PhantomData<&'a E>,
}

// SAFETY: a TileRef only reads elements through `&self`, like `&[E]`.
unsafe impl<E: Sync> Send for TileRef<'_, E> {}
unsafe impl<E: Sync> Sync for TileRef<'_, E> {}

impl<'a, E: Elem> TileRef<'a, E> {
    /// Window row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Window column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Global row index of this window's first row.
    pub fn row0(&self) -> usize {
        self.row0
    }

    /// Global column index of this window's first column.
    pub fn col0(&self) -> usize {
        self.col0
    }

    /// Read the element at window-local coordinates.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> E {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: in-bounds by construction of the view + debug assert.
        unsafe { *self.ptr.add(i * self.stride + j) }
    }

    /// Window row `i` as a slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &'a [E] {
        assert!(i < self.rows);
        // SAFETY: row `i` of the window is `cols` in-bounds elements.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Immutable sub-window at local `(i0, j0)`, size `rows × cols`.
    pub fn sub(&self, i0: usize, j0: usize, rows: usize, cols: usize) -> TileRef<'a, E> {
        assert!(i0 + rows <= self.rows && j0 + cols <= self.cols);
        TileRef {
            // SAFETY: stays within the parent window.
            ptr: unsafe { self.ptr.add(i0 * self.stride + j0) },
            stride: self.stride,
            rows,
            cols,
            row0: self.row0 + i0,
            col0: self.col0 + j0,
            _marker: PhantomData,
        }
    }

    /// Split into an `r×r` grid of equal sub-views (requires
    /// divisibility). Row-major order.
    pub fn split_grid(&self, r: usize) -> Vec<TileRef<'a, E>> {
        assert!(
            r > 0 && self.rows.is_multiple_of(r) && self.cols.is_multiple_of(r),
            "tile {}x{} not divisible by r={r}",
            self.rows,
            self.cols
        );
        let (br, bc) = (self.rows / r, self.cols / r);
        let mut out = Vec::with_capacity(r * r);
        for ti in 0..r {
            for tj in 0..r {
                out.push(self.sub(ti * br, tj * bc, br, bc));
            }
        }
        out
    }
}

/// Mutable strided view of a matrix window, with global offsets.
pub struct TileMut<'a, E> {
    ptr: *mut E,
    stride: usize,
    rows: usize,
    cols: usize,
    row0: usize,
    col0: usize,
    _marker: PhantomData<&'a mut E>,
}

// SAFETY: a TileMut is an exclusive window, like `&mut [E]`.
unsafe impl<E: Send> Send for TileMut<'_, E> {}
unsafe impl<E: Sync> Sync for TileMut<'_, E> {}

impl<'a, E: Elem> TileMut<'a, E> {
    /// Window row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Window column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Global row index of the window's first row.
    pub fn row0(&self) -> usize {
        self.row0
    }

    /// Global column index of the window's first column.
    pub fn col0(&self) -> usize {
        self.col0
    }

    /// Read the element at window-local coordinates.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> E {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: in-bounds by construction of the view.
        unsafe { *self.ptr.add(i * self.stride + j) }
    }

    /// Write the element at window-local coordinates.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: E) {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: in-bounds; we hold the exclusive window.
        unsafe { *self.ptr.add(i * self.stride + j) = v }
    }

    /// Window row `i` as a mutable slice.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [E] {
        assert!(i < self.rows);
        // SAFETY: row `i` of the window is `cols` in-bounds elements,
        // and `&mut self` holds the window exclusively.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Window row `i` to write and row `k` to read, at once: two
    /// disjoint slices (`i ≠ k`, and the rows of a window never overlap
    /// because `stride ≥ cols`).
    #[inline(always)]
    pub fn row_pair(&mut self, i: usize, k: usize) -> (&mut [E], &[E]) {
        assert!(i != k && i < self.rows && k < self.rows, "rows {i}, {k}");
        // SAFETY: both rows are in bounds and distinct, so the slices
        // share no element; `&mut self` holds the window exclusively.
        unsafe {
            (
                std::slice::from_raw_parts_mut(self.ptr.add(i * self.stride), self.cols),
                std::slice::from_raw_parts(self.ptr.add(k * self.stride), self.cols),
            )
        }
    }

    /// Downgrade to an immutable view borrowing from `self`.
    pub fn as_ref(&self) -> TileRef<'_, E> {
        TileRef {
            ptr: self.ptr,
            stride: self.stride,
            rows: self.rows,
            cols: self.cols,
            row0: self.row0,
            col0: self.col0,
            _marker: PhantomData,
        }
    }

    /// Reborrow mutably with a shorter lifetime.
    pub fn reborrow(&mut self) -> TileMut<'_, E> {
        TileMut {
            ptr: self.ptr,
            stride: self.stride,
            rows: self.rows,
            cols: self.cols,
            row0: self.row0,
            col0: self.col0,
            _marker: PhantomData,
        }
    }

    /// Consume this view and split it into an `r×r` grid of disjoint
    /// mutable sub-views (row-major order). Requires divisibility.
    pub fn split_grid(self, r: usize) -> Vec<TileMut<'a, E>> {
        assert!(
            r > 0 && self.rows.is_multiple_of(r) && self.cols.is_multiple_of(r),
            "tile {}x{} not divisible by r={r}",
            self.rows,
            self.cols
        );
        let (br, bc) = (self.rows / r, self.cols / r);
        let mut out = Vec::with_capacity(r * r);
        for ti in 0..r {
            for tj in 0..r {
                out.push(TileMut {
                    // SAFETY: the r×r sub-windows are pairwise disjoint
                    // and lie inside the consumed parent window, so
                    // exclusive access is preserved per element.
                    ptr: unsafe { self.ptr.add(ti * br * self.stride + tj * bc) },
                    stride: self.stride,
                    rows: br,
                    cols: bc,
                    row0: self.row0 + ti * br,
                    col0: self.col0 + tj * bc,
                    _marker: PhantomData,
                });
            }
        }
        out
    }

    /// Consume this view and split it into (top `at` rows, remainder).
    pub fn split_rows_at(self, at: usize) -> (TileMut<'a, E>, TileMut<'a, E>) {
        assert!(at <= self.rows);
        let top = TileMut {
            ptr: self.ptr,
            stride: self.stride,
            rows: at,
            cols: self.cols,
            row0: self.row0,
            col0: self.col0,
            _marker: PhantomData,
        };
        let bottom = TileMut {
            // SAFETY: rows [at, rows) are disjoint from the top window
            // and inside the consumed parent.
            ptr: unsafe { self.ptr.add(at * self.stride) },
            stride: self.stride,
            rows: self.rows - at,
            cols: self.cols,
            row0: self.row0 + at,
            col0: self.col0,
            _marker: PhantomData,
        };
        (top, bottom)
    }

    /// Consume this view and split it into (left `at` columns, remainder).
    pub fn split_cols_at(self, at: usize) -> (TileMut<'a, E>, TileMut<'a, E>) {
        assert!(at <= self.cols);
        let left = TileMut {
            ptr: self.ptr,
            stride: self.stride,
            rows: self.rows,
            cols: at,
            row0: self.row0,
            col0: self.col0,
            _marker: PhantomData,
        };
        let right = TileMut {
            // SAFETY: columns [at, cols) are disjoint from the left
            // window and inside the consumed parent.
            ptr: unsafe { self.ptr.add(at) },
            stride: self.stride,
            rows: self.rows,
            cols: self.cols - at,
            row0: self.row0,
            col0: self.col0 + at,
            _marker: PhantomData,
        };
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_indexing() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as i64);
        assert_eq!(m.get(2, 3), 23);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as i64);
        let b = m.copy_block(2, 3, 3, 2);
        assert_eq!(b.get(0, 0), 15);
        let mut m2 = Matrix::square(6, 0i64);
        m2.paste_block(2, 3, &b);
        assert_eq!(m2.get(4, 4), m.get(4, 4));
        assert_eq!(m2.get(0, 0), 0);
    }

    #[test]
    fn views_carry_global_offsets() {
        let mut m = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as i64);
        let view = m.view_mut();
        let grid = view.split_grid(4);
        let t = &grid[2 * 4 + 1]; // tile (2, 1)
        assert_eq!((t.row0(), t.col0()), (4, 2));
        assert_eq!(t.at(0, 0), (4 * 8 + 2) as i64);
        assert_eq!((t.rows(), t.cols()), (2, 2));
    }

    #[test]
    fn split_grid_tiles_are_disjoint_and_writable() {
        let mut m = Matrix::square(6, 0i64);
        let grid = m.view_mut().split_grid(3);
        for (idx, mut t) in grid.into_iter().enumerate() {
            for i in 0..t.rows() {
                for j in 0..t.cols() {
                    t.set(i, j, idx as i64);
                }
            }
        }
        // Tile (ti, tj) covers rows 2ti..2ti+2, cols 2tj..2tj+2.
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(m.get(i, j), ((i / 2) * 3 + (j / 2)) as i64);
            }
        }
    }

    #[test]
    fn nested_split_keeps_offsets() {
        let mut m = Matrix::square(8, 0u32);
        let grid = m.view_mut().split_grid(2);
        let bottom_right = grid.into_iter().nth(3).unwrap();
        let inner = bottom_right.split_grid(2);
        assert_eq!((inner[3].row0(), inner[3].col0()), (6, 6));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn split_requires_divisibility() {
        let mut m = Matrix::square(7, 0u8);
        let _ = m.view_mut().split_grid(2);
    }

    #[test]
    fn row_and_col_splits_are_disjoint() {
        let mut m = Matrix::square(6, 0i32);
        let (top, bottom) = m.view_mut().split_rows_at(2);
        assert_eq!((top.rows(), bottom.rows()), (2, 4));
        assert_eq!(bottom.row0(), 2);
        let (mut bl, mut br) = bottom.split_cols_at(3);
        assert_eq!((bl.cols(), br.cols()), (3, 3));
        assert_eq!(br.col0(), 3);
        bl.set(0, 0, 1);
        br.set(0, 0, 2);
        let _ = top;
        assert_eq!(m.get(2, 0), 1);
        assert_eq!(m.get(2, 3), 2);
    }

    #[test]
    fn row_slices_read_and_write_their_window_row() {
        let mut m = Matrix::from_fn(4, 5, |i, j| (i * 5 + j) as i64);
        assert_eq!(m.view().sub(1, 1, 2, 3).row(1), &[11, 12, 13]);
        let (_, mut t) = m.view_mut().split_cols_at(1);
        let (dst, src) = t.row_pair(3, 1);
        dst.copy_from_slice(src);
        t.row_mut(0)[3] = -1;
        assert_eq!(&m.as_slice()[15..], &[15, 6, 7, 8, 9]);
        assert_eq!(m.get(0, 4), -1);
    }

    #[test]
    #[should_panic(expected = "rows 2, 2")]
    fn row_pair_rejects_one_row_twice() {
        let mut m = Matrix::square(3, 0u8);
        let _ = m.view_mut().row_pair(2, 2);
    }

    #[test]
    fn sub_view_reads() {
        let m = Matrix::from_fn(4, 4, |i, j| (i, j));
        let v = m.view().sub(1, 2, 2, 2);
        assert_eq!(v.at(1, 1), (2, 3));
        assert_eq!((v.row0(), v.col0()), (1, 2));
        assert_eq!(v.at(0, 0), (1, 2));
    }

    /// A named write through one `&mut` accessor.
    type Mutator = (&'static str, fn(&mut Matrix<i64>));

    /// The five `&mut` accessors, each writing `-1` into cell `(0, 0)`.
    fn mutators() -> [Mutator; 5] {
        [
            ("as_mut_slice", |m| m.as_mut_slice()[0] = -1),
            ("set", |m| m.set(0, 0, -1)),
            ("view_mut", |m| m.view_mut().set(0, 0, -1)),
            ("view_mut_at", |m| m.view_mut_at(8, 4).set(0, 0, -1)),
            ("paste_block", |m| {
                m.paste_block(0, 0, &Matrix::filled(1, 1, -1))
            }),
        ]
    }

    #[test]
    fn clone_shares_storage() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as i64);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn each_mutator_unshares_only_the_writer() {
        for (name, write) in mutators() {
            let original = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64);
            let before = original.as_slice().to_vec();
            let mut writer = original.clone();
            write(&mut writer);
            assert_ne!(
                writer.as_slice().as_ptr(),
                original.as_slice().as_ptr(),
                "{name}: the writer keeps its own cells"
            );
            assert_eq!(original.as_slice(), &before[..], "{name}: reader moved");
            assert_eq!(writer.get(0, 0), -1, "{name}");
            assert_eq!(&writer.as_slice()[1..], &before[1..], "{name}");
        }
    }

    #[test]
    fn split_grid_of_a_shared_matrix_writes_only_the_copy() {
        let original = Matrix::square(4, 0i64);
        let mut writer = original.clone();
        for (idx, mut t) in writer.view_mut().split_grid(2).into_iter().enumerate() {
            t.set(0, 0, idx as i64 + 1);
        }
        assert!(original.as_slice().iter().all(|&x| x == 0));
        let corners = [(0, 0), (0, 2), (2, 0), (2, 2)].map(|(i, j)| writer.get(i, j));
        assert_eq!(corners, [1, 2, 3, 4]);
    }

    #[test]
    fn unshared_matrix_writes_in_place() {
        let mut m = Matrix::square(4, 0i64);
        let cells = m.as_slice().as_ptr();
        drop(m.clone()); // a clone that is gone leaves the cells unshared
        for (name, write) in mutators() {
            write(&mut m);
            assert_eq!(m.as_slice().as_ptr(), cells, "{name} reallocated");
        }
        assert_eq!(m.get(0, 0), -1);
    }

    #[test]
    fn first_difference_detects_exact_mismatch() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut b = a.clone();
        assert_eq!(a.first_difference(&b), None);
        b.set(1, 2, 99.0);
        assert_eq!(a.first_difference(&b), Some((1, 2)));
    }
}
