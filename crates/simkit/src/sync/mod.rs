//! Synchronization primitives with an optional deterministic race-check mode.
//!
//! The workspace's lock-free hot paths (telemetry recorders, memtable byte
//! accounting, block-cache shards, cluster replica counters, measurement
//! slots) construct their atomics and locks through this module instead of
//! using `std::sync::atomic` / `parking_lot` directly.
//!
//! * **Normal builds** — every type here is a zero-cost re-export of the
//!   plain `std` / `parking_lot` primitive. There is no wrapper struct, no
//!   branch, no TLS probe: `sync::AtomicU64` *is* `std::sync::atomic::AtomicU64`.
//! * **Race-check builds** (`--features race-check` or `--cfg race_check`) —
//!   the same names resolve to instrumented wrappers that, when the current
//!   thread is registered with an active [`model::Explorer`] session, log a
//!   vector-clock access history and yield to a seeded turnstile scheduler at
//!   every operation. The explorer then drives bounded interleavings of small
//!   closed models and flags unsynchronized conflicting accesses (loom-lite).
//!   Threads *not* registered with a session (including all ordinary tests)
//!   fall through to the plain operation.
//!
//! [`park`] is `std::thread::park` outside a model and a single choice
//! point inside one (a spurious wake-up, which `park` permits), so a
//! waiter that parks between re-checks never blocks the turnstile.
//!
//! [`RaceCell`] is the one genuinely new type: a plain-data cell whose `get`/
//! `set` carry **no** synchronization semantics. Under race-check it is how a
//! model expresses "this access is only safe if a happens-before edge exists";
//! in normal builds it degrades to a mutex-protected cell and is only used by
//! model code. Happens-before edges come from `Release`-store → `Acquire`-load
//! pairs on the atomics and from lock/unlock on [`Mutex`]/[`RwLock`];
//! `Relaxed` operations order nothing, which is exactly what lets the
//! explorer catch a publish-over-relaxed-flag bug.

#[cfg(not(any(race_check, feature = "race-check")))]
mod real;
#[cfg(not(any(race_check, feature = "race-check")))]
pub use real::*;

#[cfg(any(race_check, feature = "race-check"))]
mod checked;
#[cfg(any(race_check, feature = "race-check"))]
pub use checked::*;

#[cfg(any(race_check, feature = "race-check"))]
pub mod model;

pub use std::sync::atomic::Ordering;
