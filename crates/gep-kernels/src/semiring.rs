//! Closed semirings for path problems.
//!
//! Aho–Hopcroft–Ullman's closed-semiring framework generalizes
//! Floyd–Warshall and Warshall's transitive closure: a directed graph
//! labelled by elements of `(S, ⊕, ⊙, 0̄, 1̄)` admits an all-pairs path
//! computation by the same triple loop, instantiated here via
//! [`Semiring`].

/// An algebraic semiring `(S, ⊕, ⊙, zero, one)` with ⊕ commutative and
/// idempotence *not* required (laws are property-tested per instance).
pub trait Semiring: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Additive identity `0̄` (annihilator of `⊙`).
    const ZERO: Self;
    /// Multiplicative identity `1̄`.
    const ONE: Self;
    /// `⊕` — combine alternative paths.
    fn plus(self, other: Self) -> Self;
    /// `⊙` — extend a path.
    fn times(self, other: Self) -> Self;
}

/// Tropical (min, +) semiring over `f64`: shortest paths.
///
/// `ZERO = +∞` (no path), `ONE = 0.0` (empty path).
///
/// `repr(transparent)` is a codec contract: dense tiles of `MinPlus`
/// are reinterpreted as `f64` runs for single-copy (de)serialization.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
#[repr(transparent)]
pub struct MinPlus(pub f64);

impl Semiring for MinPlus {
    const ZERO: Self = MinPlus(f64::INFINITY);
    const ONE: Self = MinPlus(0.0);

    #[inline(always)]
    fn plus(self, other: Self) -> Self {
        MinPlus(self.0.min(other.0))
    }

    #[inline(always)]
    fn times(self, other: Self) -> Self {
        MinPlus(self.0 + other.0)
    }
}

/// Max-min ("bottleneck" / widest path) semiring over `f64`.
///
/// `plus = max` chooses the better path, `times = min` limits a path by
/// its narrowest edge. Used by the bandwidth-routing example.
///
/// `repr(transparent)` is a codec contract, as for [`MinPlus`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
#[repr(transparent)]
pub struct MaxMin(pub f64);

impl Semiring for MaxMin {
    const ZERO: Self = MaxMin(f64::NEG_INFINITY);
    const ONE: Self = MaxMin(f64::INFINITY);

    #[inline(always)]
    fn plus(self, other: Self) -> Self {
        MaxMin(self.0.max(other.0))
    }

    #[inline(always)]
    fn times(self, other: Self) -> Self {
        MaxMin(self.0.min(other.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_identities<S: Semiring>(vals: &[S]) {
        for &v in vals {
            assert_eq!(v.plus(S::ZERO), v, "x ⊕ 0̄ = x");
            assert_eq!(S::ZERO.plus(v), v, "0̄ ⊕ x = x");
            assert_eq!(v.times(S::ONE), v, "x ⊙ 1̄ = x");
            assert_eq!(S::ONE.times(v), v, "1̄ ⊙ x = x");
            assert_eq!(v.times(S::ZERO), S::ZERO, "x ⊙ 0̄ = 0̄");
            assert_eq!(S::ZERO.times(v), S::ZERO, "0̄ ⊙ x = 0̄");
        }
    }

    #[test]
    fn min_plus_identities() {
        check_identities(&[MinPlus(0.0), MinPlus(3.5), MinPlus(-2.0), MinPlus::ZERO]);
    }

    #[test]
    fn maxmin_identities() {
        check_identities(&[MaxMin(1.0), MaxMin(-7.0), MaxMin(0.0)]);
    }

    #[test]
    fn min_plus_is_shortest_path_algebra() {
        // min(5, 3 + 1) = 4
        let via = MinPlus(3.0).times(MinPlus(1.0));
        assert_eq!(MinPlus(5.0).plus(via), MinPlus(4.0));
    }
}
