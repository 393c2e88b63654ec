//! Time source abstraction: real wall-clock vs. deterministic virtual
//! time.
//!
//! The engine layers above (`sparklet`) time-stamp everything — retry
//! backoff deadlines, straggler delays, stage wall times —
//! through a [`Clock`] handle instead of `Instant`/`thread::sleep`.
//! In production the [`SystemClock`] forwards to the OS; under the
//! deterministic simulation harness a [`VirtualClock`] advances only
//! by explicit logical ticks, so a scheduled run is a pure function of
//! its seed rather than of host load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic millisecond time source.
///
/// `now_ms` is relative to an arbitrary epoch (clock construction);
/// only differences are meaningful. Implementations must be monotonic:
/// `now_ms` never decreases.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Milliseconds elapsed since this clock's epoch.
    fn now_ms(&self) -> u64;
    /// Blocks (real clock) or advances time (virtual clock) by `ms`.
    fn sleep_ms(&self, ms: u64);
    /// `true` if this clock is a deterministic virtual clock.
    fn is_virtual(&self) -> bool {
        false
    }
}

/// Wall-clock time: `Instant`-backed, `thread::sleep`-blocking.
#[derive(Debug)]
pub struct SystemClock {
    base: Instant,
}

impl SystemClock {
    /// A system clock whose epoch is the moment of construction.
    pub fn new() -> Self {
        SystemClock {
            base: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.base.elapsed().as_millis() as u64
    }

    fn sleep_ms(&self, ms: u64) {
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

/// Deterministic logical time: advances only when told to.
///
/// `sleep_ms` *advances* the clock instead of blocking, which is sound
/// because the simulation harness executes tasks sequentially on the
/// driver thread — a sleeping task is, by construction, the only thing
/// running.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at logical time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances logical time by `ms`.
    pub fn advance_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
    }

    /// Advances logical time to at least `deadline_ms` (no-op if the
    /// clock is already past it — time never moves backwards).
    pub fn advance_to(&self, deadline_ms: u64) {
        self.now.fetch_max(deadline_ms, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep_ms(&self, ms: u64) {
        self.advance_ms(ms);
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn system_clock_advances_and_sleeps() {
        let c = SystemClock::new();
        let t0 = c.now_ms();
        c.sleep_ms(5);
        assert!(c.now_ms() >= t0 + 4, "sleep must advance wall time");
        assert!(!c.is_virtual());
    }

    #[test]
    fn virtual_clock_is_pure_logical_time() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.sleep_ms(250);
        assert_eq!(c.now_ms(), 250, "sleep advances, never blocks");
        c.advance_ms(50);
        assert_eq!(c.now_ms(), 300);
        c.advance_to(200);
        assert_eq!(c.now_ms(), 300, "advance_to never rewinds");
        c.advance_to(1000);
        assert_eq!(c.now_ms(), 1000);
        assert!(c.is_virtual());
    }

    #[test]
    fn clock_is_object_safe_and_shareable() {
        let c: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let c2 = Arc::clone(&c);
        c.sleep_ms(7);
        assert_eq!(c2.now_ms(), 7);
    }
}
