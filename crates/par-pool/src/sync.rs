//! The workspace's lock and condition variable: `std::sync` with the
//! poison rule stated once. A thread that panics while holding a
//! [`Mutex`] leaves it usable — the next `lock` yields the guard — since
//! a panicking task is an event the engine recovers from (the pool
//! hands it to the scope owner, the scheduler retries the attempt), not
//! a reason to wedge every later job. Every critical section in the
//! workspace therefore leaves its data valid at each step.

use std::sync::{self, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

/// A mutual-exclusion lock that ignores poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consume the mutex and return its value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The guard if the lock is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// A condition variable for guards of [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Release `guard`, sleep until notified, and take the lock again.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Condvar::wait`] that also returns once `timeout` has passed.
    pub fn wait_for<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        let (guard, _timed_out) = self
            .0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_lock_held_across_a_panic_stays_usable() {
        let shared = Arc::new(Mutex::new(1));
        let held = Arc::clone(&shared);
        let holder = std::thread::spawn(move || {
            let mut guard = held.lock();
            *guard = 2;
            panic!("the holder dies with the lock taken");
        });
        assert!(holder.join().is_err());
        assert_eq!(*shared.lock(), 2, "lock yields the guard, and the data");
        assert_eq!(*shared.try_lock().expect("nobody holds it"), 2);
        let guard = Condvar::new().wait_for(shared.lock(), Duration::from_millis(1));
        assert_eq!(*guard, 2, "a wait hands the guard back too");
        drop(guard);
        let owned = Arc::try_unwrap(shared).expect("the holder is gone");
        assert_eq!(owned.into_inner(), 2);
    }

    #[test]
    fn try_lock_refuses_while_the_lock_is_held() {
        let m = Mutex::new(());
        let _held = m.lock();
        assert!(m.try_lock().is_none());
    }
}
