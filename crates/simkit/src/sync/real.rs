//! Normal-build implementation: zero-cost re-exports of the plain primitives.

pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
pub use std::thread::park;

/// Plain-data cell used by race-check models.
///
/// In normal builds it is a mutex-protected cell: correct, boring, and only
/// ever touched by model code that is really meant to run under
/// `--features race-check`. See `sync::checked::RaceCell` for the
/// instrumented twin that detects unsynchronized access instead of
/// serializing it.
pub struct RaceCell<T> {
    inner: parking_lot::Mutex<T>,
}

impl<T: Copy> RaceCell<T> {
    pub fn new(value: T) -> Self {
        Self::named("cell", value)
    }

    pub fn named(_label: &'static str, value: T) -> Self {
        Self {
            inner: parking_lot::Mutex::new(value),
        }
    }

    pub fn get(&self) -> T {
        *self.inner.lock()
    }

    pub fn set(&self, value: T) {
        *self.inner.lock() = value;
    }
}
