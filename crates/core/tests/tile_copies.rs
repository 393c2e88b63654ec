//! Tile copies of one small Collect-Broadcast solve, counted by the
//! allocator. A cached table hands its tiles to every reader by
//! refcount, so the only tile-sized allocations left are the ones a
//! solve cannot avoid; a read path that starts deep-copying tiles again
//! multiplies the count and fails here.
//!
//! The binary holds one test, so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dp_core::{solve, DpConfig, Strategy};
use gep_kernels::gep::gep_reference;
use gep_kernels::{GaussianElim, Matrix};
use sparklet::{SparkConf, SparkContext};

/// Table side, block side and grid side of the solve.
const N: usize = 64;
const B: usize = 8;
const G: usize = N / B;

/// The size of one `B×B` tile of `f64`s.
const TILE_BYTES: usize = B * B * std::mem::size_of::<f64>();

static TILE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every allocation of exactly one
/// tile's size.
struct TileCounter;

fn count(size: usize) {
    if size == TILE_BYTES {
        TILE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the count
// is a side effect that allocates nothing.
unsafe impl GlobalAlloc for TileCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` meets `alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
static ALLOCATOR: TileCounter = TileCounter;

#[test]
fn collect_broadcast_copies_a_tile_only_to_write_or_decode_it() {
    let input = Matrix::from_fn(N, N, |i, j| {
        if i == j {
            N as f64 + 1.0
        } else {
            ((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.5
        }
    });
    let mut oracle = input.clone();
    gep_reference::<GaussianElim>(&mut oracle);
    // One executor, so each broadcast is decoded exactly once.
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(1)
            .with_executor_cores(2)
            .with_partitions(4)
            .with_sim_seed(7),
    );
    let cfg = DpConfig::new(N, B).with_strategy(Strategy::CollectBroadcast);

    TILE_ALLOCS.store(0, Ordering::Relaxed);
    let out = solve::<GaussianElim>(&sc, &cfg, &input).expect("solve");
    let copies = TILE_ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        out.first_difference(&oracle),
        None,
        "differs from gep_reference"
    );

    // Iteration k runs a kernel on the diagonal, its 2m panel blocks
    // and its m² trailing blocks (m = G−k−1): (G−k)² writes, each the
    // one copy a write to a shared tile makes.
    let writes: usize = (0..G).map(|k| (G - k) * (G - k)).sum();
    // The scatter cuts G² tiles out of the input. Each iteration's two
    // broadcasts (the diagonal, then the 2m panels) decode once on the
    // one node: Σ(1 + 2m) = G² tiles. The final collect moves the
    // computed tiles to the driver without copying them.
    let bound = G * G + writes + G * G;
    println!("tile-sized allocations: {copies} (bound {bound}, of which {writes} kernel writes)");
    assert!(
        copies >= writes,
        "{copies} tile allocations cannot cover {writes} kernel writes: is the counter installed?"
    );
    assert!(
        copies <= bound,
        "{copies} tile-sized allocations, bound {bound}: a read path copies tiles"
    );
}
