//! Offline stand-in for `rand` 0.8: `StdRng::seed_from_u64`, `gen::<f64>()`
//! and `gen_range` over half-open ranges, on splitmix64. The stream
//! differs from the real crate's; the benchmark generates its own inputs
//! and never relies on it.
use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// A type `Rng::gen_range` can draw from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, r: Range<f64>) -> f64 {
        r.start + f64::sample(rng) * (r.end - r.start)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, r: Range<$t>) -> $t {
                assert!(r.start < r.end, "empty range");
                let span = (r.end as i128 - r.start as i128) as u128;
                (r.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    /// splitmix64 state.
    #[derive(Debug, Clone)]
    pub struct StdRng(u64);

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(seed)
        }
    }

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}
