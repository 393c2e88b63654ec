//! Dev-only test support: a seeded generator ([`Rng`]) and a property
//! loop ([`check`]) that names the seed of a failing case.
//!
//! Properties are ordinary `#[test]` functions that draw their inputs:
//!
//! ```
//! testkit::check(32, |rng| {
//!     let data = rng.vec(0..50, |r| r.range(0u64..1000));
//!     let parts = rng.range(1usize..=8);
//!     assert!(data.chunks(parts).map(<[u64]>::len).sum::<usize>() == data.len());
//! });
//! ```
//!
//! Generate-only: a failing case is not shrunk. It is replayed instead —
//! the failure names `TESTKIT_SEED=<n>`, and with that variable set
//! `check` runs that one case and nothing else (select the test by name
//! as usual: `TESTKIT_SEED=<n> cargo test -p <crate> <test name>`).

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A seeded SplitMix64 stream: the same seed yields the same draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream named by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 uniform bits (narrow with `as` for smaller integers).
    pub fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// Uniform in `range`: `lo..hi` or `lo..=hi` over the integer types,
    /// `lo..hi` over `f64`. Panics on an empty range.
    pub fn range<R: Draw>(&mut self, range: R) -> R::Item {
        range.draw(self)
    }

    /// A uniformly chosen element of `items` (which must not be empty).
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0..items.len())]
    }

    /// A vector whose length is drawn from `len` and whose elements are
    /// drawn by `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.range(len)).map(|_| item(self)).collect()
    }
}

/// A range [`Rng::range`] can draw from.
pub trait Draw {
    /// The drawn type.
    type Item;
    /// One uniform draw.
    fn draw(self, rng: &mut Rng) -> Self::Item;
}

impl Draw for Range<f64> {
    type Item = f64;
    fn draw(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let unit = (rng.u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! draw_int {
    ($($t:ty),*) => {$(
        impl Draw for RangeInclusive<$t> {
            type Item = $t;
            fn draw(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range");
                (lo + (u128::from(rng.u64()) % (hi - lo + 1) as u128) as i128) as $t
            }
        }
        impl Draw for Range<$t> {
            type Item = $t;
            fn draw(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                (self.start..=self.end - 1).draw(rng)
            }
        }
    )*};
}
draw_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Run `property` on `cases` generated inputs, each from its own seed.
/// A panicking case fails the test with `TESTKIT_SEED=<seed>` in the
/// message; with that environment variable set, only that case runs.
pub fn check(cases: u32, property: impl FnMut(&mut Rng)) {
    let replay = std::env::var("TESTKIT_SEED")
        .ok()
        .map(|s| s.parse().expect("TESTKIT_SEED is a u64"));
    run(cases, replay, property);
}

fn run(cases: u32, replay: Option<u64>, mut property: impl FnMut(&mut Rng)) {
    // Case seeds are themselves a SplitMix64 stream, so neighbouring
    // cases share nothing.
    let mut seeds = Rng::new(0);
    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..cases).map(|_| seeds.u64()).collect(),
    };
    for seed in seeds {
        let case = catch_unwind(AssertUnwindSafe(|| property(&mut Rng::new(seed))));
        if let Err(panic) = case {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("the property panicked");
            panic!("{why}\nreplay this case with TESTKIT_SEED={seed}");
        }
    }
}

#[cfg(test)]
mod tests;
