//! Block kernels allocate nothing. At b = 8 a kernel call is a fraction
//! of a microsecond, so one heap allocation per call is a measurable
//! share of it; this counts every allocation made while each kind of
//! every spec runs on small tiles, through `block_kernel` (the AVX2
//! copy on a CPU that has it), and asserts none.
//!
//! The binary holds one test, so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gep_kernels::gep::{GaussianElim, GepSpec, Kind, TransitiveClosure, Tropical};
use gep_kernels::iterative::block_kernel;
use gep_kernels::Matrix;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every allocation.
struct Counter;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the count
// is a side effect that allocates nothing.
unsafe impl GlobalAlloc for Counter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` meets `alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (that is, from `System`) with `layout`, and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from `System` with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counter = Counter;

/// Allocations made by one call of each kind on `b×b` tiles of `S`
/// (the diagonal block at global (0, 0), `x` one block further along).
fn allocs_per_kind<S: GepSpec>(b: usize, fill: fn(usize, usize) -> S::Elem) -> [usize; 4] {
    let (diag, u, v) = (
        Matrix::from_fn(b, b, fill),
        Matrix::from_fn(b, b, fill),
        Matrix::from_fn(b, b, fill),
    );
    let mut x = Matrix::from_fn(b, b, fill);
    let w = Some(diag.view());
    [Kind::A, Kind::B, Kind::C, Kind::D].map(|kind| {
        let mut a = diag.clone();
        let mut tile = match kind {
            Kind::A => a.view_mut(),
            Kind::B => x.view_mut_at(0, b),
            Kind::C => x.view_mut_at(b, 0),
            Kind::D => x.view_mut_at(b, b),
        };
        let start = ALLOCS.load(Ordering::Relaxed);
        match kind {
            Kind::A => block_kernel::<S>(kind, &mut tile, None, None, None),
            Kind::B => block_kernel::<S>(kind, &mut tile, w, None, w),
            Kind::C => block_kernel::<S>(kind, &mut tile, None, w, w),
            Kind::D => block_kernel::<S>(
                kind,
                &mut tile,
                Some(u.view_at(b, 0)),
                Some(v.view_at(0, b)),
                w,
            ),
        }
        ALLOCS.load(Ordering::Relaxed) - start
    })
}

#[test]
fn block_kernels_allocate_nothing() {
    for b in [8, 32] {
        let fw = allocs_per_kind::<Tropical>(b, |i, j| ((i * 7 + j * 3) % 10) as f64);
        let ge = allocs_per_kind::<GaussianElim>(b, |i, j| if i == j { 64.0 } else { 0.5 });
        let tc = allocs_per_kind::<TransitiveClosure>(b, |i, j| (i + j) % 3 == 0);
        assert_eq!((fw, ge, tc), ([0; 4], [0; 4], [0; 4]), "b={b}: FW, GE, TC");
    }
}
