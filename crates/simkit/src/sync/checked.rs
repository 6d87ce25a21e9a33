//! Race-check-build implementation: instrumented wrappers.
//!
//! Each wrapper owns the plain primitive plus a process-unique object id.
//! Operations first consult thread-local session state (see [`super::model`]):
//! threads registered with an active explorer yield the turn at every
//! operation and log vector-clock updates; everyone else falls through to the
//! plain operation. Lock acquisition inside a session is a `try_lock` loop
//! with a yield per attempt — the turnstile runs exactly one thread at a
//! time, so blocking on the real lock while holding the turn would deadlock.

use super::model;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;

macro_rules! checked_atomic {
    ($name:ident, $inner:path, $value:ty) => {
        pub struct $name {
            inner: $inner,
            id: u64,
        }

        impl $name {
            pub fn new(value: $value) -> Self {
                Self {
                    inner: <$inner>::new(value),
                    id: model::next_object_id(),
                }
            }

            pub fn load(&self, order: Ordering) -> $value {
                model::on_atomic(self.id, order, true, false);
                self.inner.load(order)
            }

            pub fn store(&self, value: $value, order: Ordering) {
                model::on_atomic(self.id, order, false, true);
                self.inner.store(value, order)
            }

            pub fn swap(&self, value: $value, order: Ordering) -> $value {
                model::on_atomic(self.id, order, true, true);
                self.inner.swap(value, order)
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(Default::default())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.inner.fmt(f)
            }
        }
    };
}

checked_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
checked_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
checked_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

macro_rules! checked_fetch_ops {
    ($name:ident, $value:ty) => {
        impl $name {
            pub fn fetch_add(&self, value: $value, order: Ordering) -> $value {
                model::on_atomic(self.id, order, true, true);
                self.inner.fetch_add(value, order)
            }

            pub fn fetch_sub(&self, value: $value, order: Ordering) -> $value {
                model::on_atomic(self.id, order, true, true);
                self.inner.fetch_sub(value, order)
            }

            pub fn fetch_max(&self, value: $value, order: Ordering) -> $value {
                model::on_atomic(self.id, order, true, true);
                self.inner.fetch_max(value, order)
            }
        }
    };
}

checked_fetch_ops!(AtomicU64, u64);
checked_fetch_ops!(AtomicUsize, usize);

pub struct Mutex<T> {
    inner: parking_lot::Mutex<T>,
    id: u64,
}

pub struct MutexGuard<'a, T> {
    inner: parking_lot::MutexGuard<'a, T>,
    id: u64,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Self {
            inner: parking_lot::Mutex::new(value),
            id: model::next_object_id(),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        if model::in_model() {
            loop {
                model::yield_point();
                if let Some(guard) = self.inner.try_lock() {
                    model::on_lock(self.id);
                    return MutexGuard {
                        inner: guard,
                        id: self.id,
                    };
                }
            }
        }
        MutexGuard {
            inner: self.inner.lock(),
            id: self.id,
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        model::yield_point();
        let guard = self.inner.try_lock()?;
        model::on_lock(self.id);
        Some(MutexGuard {
            inner: guard,
            id: self.id,
        })
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        model::on_unlock(self.id);
    }
}

pub struct RwLock<T> {
    inner: parking_lot::RwLock<T>,
    id: u64,
}

pub struct RwLockReadGuard<'a, T> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    id: u64,
}

pub struct RwLockWriteGuard<'a, T> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    id: u64,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        Self {
            inner: parking_lot::RwLock::new(value),
            id: model::next_object_id(),
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if model::in_model() {
            loop {
                model::yield_point();
                if let Some(guard) = self.inner.try_read() {
                    model::on_read_lock(self.id);
                    return RwLockReadGuard {
                        inner: guard,
                        id: self.id,
                    };
                }
            }
        }
        RwLockReadGuard {
            inner: self.inner.read(),
            id: self.id,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if model::in_model() {
            loop {
                model::yield_point();
                if let Some(guard) = self.inner.try_write() {
                    model::on_lock(self.id);
                    return RwLockWriteGuard {
                        inner: guard,
                        id: self.id,
                    };
                }
            }
        }
        RwLockWriteGuard {
            inner: self.inner.write(),
            id: self.id,
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        model::on_read_unlock(self.id);
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        model::on_unlock(self.id);
    }
}

/// `std::thread::park`, except inside a model, where it is one choice
/// point. That is a spurious wake-up, which `park` allows, so callers
/// already re-check their condition in a loop.
pub fn park() {
    if model::in_model() {
        model::yield_point();
    } else {
        std::thread::park();
    }
}

/// Plain-data cell: `get`/`set` carry no synchronization semantics. The
/// embedded mutex is storage only (it keeps the cell physically sound even
/// off-session); logically the accesses are unsynchronized and are checked
/// against the vector clocks — two accesses without a happens-before path
/// between them are reported as a race.
pub struct RaceCell<T> {
    inner: parking_lot::Mutex<T>,
    id: u64,
    label: &'static str,
}

impl<T: Copy> RaceCell<T> {
    pub fn new(value: T) -> Self {
        Self::named("cell", value)
    }

    pub fn named(label: &'static str, value: T) -> Self {
        Self {
            inner: parking_lot::Mutex::new(value),
            id: model::next_object_id(),
            label,
        }
    }

    pub fn get(&self) -> T {
        model::on_cell_read(self.id, self.label);
        *self.inner.lock()
    }

    pub fn set(&self, value: T) {
        model::on_cell_write(self.id, self.label);
        *self.inner.lock() = value;
    }
}
