//! Offline stand-in for `parking_lot`: the non-poisoning `Mutex` and
//! `Condvar` surface the program uses, over `std::sync`.
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard is live outside a wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard is live outside a wait")
    }
}

#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.0.take().expect("guard is live outside a wait");
        guard.0 = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.0.take().expect("guard is live outside a wait");
        let (g, res) = self
            .0
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(g);
        WaitTimeoutResult(res.timed_out())
    }
}
