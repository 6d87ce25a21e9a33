//! Loom-lite: a seeded, bounded schedule explorer with vector-clock race
//! detection. Only compiled under `--features race-check` / `--cfg race_check`.
//!
//! # How it works
//!
//! [`Explorer::explore`] runs a *model* — a small set of closures sharing
//! state built fresh per schedule — many times, each time under a different
//! seeded interleaving:
//!
//! * **Turnstile scheduler.** Model threads are real OS threads, but only the
//!   thread holding the turn runs. Every instrumented operation (each
//!   `sync::Atomic*` op, each lock acquisition attempt, each
//!   [`RaceCell`](super::RaceCell) access) is a *choice point*: the running
//!   thread hands the turn to a uniformly random runnable thread drawn from a
//!   per-schedule [`Stream`]. Given the same seed the schedule is
//!   bit-identical. After `max_choices` random choices the scheduler falls
//!   back to round-robin, which bounds each schedule while guaranteeing
//!   progress (a thread spinning on `try_lock` eventually sees the holder
//!   scheduled and released).
//! * **Vector clocks.** Each model thread carries a clock; each object carries
//!   a release clock. `Release`/`AcqRel`/`SeqCst` stores join the thread clock
//!   into the object; `Acquire`/`AcqRel`/`SeqCst` loads join the object clock
//!   into the thread. `Relaxed` touches no clock — it orders nothing. Mutex
//!   unlock releases into the lock's clock, lock acquires from it; `RwLock`
//!   read-unlock also releases (a deliberate over-approximation that can mask
//!   reader-reader interactions but never invents a false race on writers).
//! * **Race detection.** [`RaceCell`](super::RaceCell) accesses are checked
//!   FastTrack-style against per-thread last-access epochs: a read racing a
//!   write (or write racing read/write) by another thread whose epoch is not
//!   ≤ the observer's clock component for that thread is reported as a
//!   [`Race`]. Atomics cannot themselves data-race; they exist to *create*
//!   (or fail to create) the happens-before edges the cells are checked
//!   against.
//!
//! Threads never registered with a session — ordinary test threads, or
//! free-running helper threads a model happens to spawn (e.g. a storage
//! engine's background maintenance thread) — pass through the
//! instrumented wrappers untouched: their accesses are neither serialized
//! nor logged, so they can neither deadlock the turnstile nor produce
//! false reports (they can, however, hide a race from the detector; keep
//! models closed).

use crate::rng::{derive_seed, Stream};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
use std::sync::Arc;

/// Assign a process-unique id to every instrumented object at construction.
pub(crate) fn next_object_id() -> u64 {
    static NEXT: StdAtomicU64 = StdAtomicU64::new(0);
    // ordering: process-unique id allocation; only uniqueness matters.
    NEXT.fetch_add(1, Ordering::Relaxed) + 1
}

struct Ctx {
    session: Arc<Session>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn with_ctx<R>(f: impl FnOnce(&Arc<Session>, usize) -> R) -> Option<R> {
    CTX.with(|c| {
        let borrow = c.borrow();
        borrow.as_ref().map(|ctx| f(&ctx.session, ctx.tid))
    })
}

/// True when the calling thread belongs to an active explorer session.
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Hand the turn to the scheduler (choice point). No-op off-session.
pub(crate) fn yield_point() {
    with_ctx(|s, tid| s.yield_now(tid));
}

/// Record an atomic operation. `loads`/`stores` describe which side(s) of the
/// operation exist (RMW = both); together with `order` they decide which
/// clock joins happen. Includes the pre-op choice point.
pub(crate) fn on_atomic(id: u64, order: Ordering, loads: bool, stores: bool) {
    with_ctx(|s, tid| {
        s.yield_now(tid);
        s.atomic_op(tid, id, order, loads, stores);
    });
}

/// Record a successful exclusive-lock acquisition (no yield: the caller
/// already yielded in its `try_lock` loop).
pub(crate) fn on_lock(id: u64) {
    with_ctx(|s, tid| s.lock_op(tid, id, true));
}

pub(crate) fn on_unlock(id: u64) {
    with_ctx(|s, tid| s.unlock_op(tid, id));
}

pub(crate) fn on_read_lock(id: u64) {
    with_ctx(|s, tid| s.lock_op(tid, id, false));
}

pub(crate) fn on_read_unlock(id: u64) {
    with_ctx(|s, tid| s.unlock_op(tid, id));
}

pub(crate) fn on_cell_read(id: u64, label: &'static str) {
    with_ctx(|s, tid| {
        s.yield_now(tid);
        s.cell_op(tid, id, label, false);
    });
}

pub(crate) fn on_cell_write(id: u64, label: &'static str) {
    with_ctx(|s, tid| {
        s.yield_now(tid);
        s.cell_op(tid, id, label, true);
    });
}

/// The kind of conflicting access pair behind a [`Race`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaceKind {
    ReadWrite,
    WriteWrite,
}

/// An unsynchronized conflicting access pair found during exploration.
#[derive(Clone, Debug)]
pub struct Race {
    /// Label given to the [`RaceCell`](super::RaceCell) at construction.
    pub label: &'static str,
    /// Process-unique object id (disambiguates same-label cells).
    pub object: u64,
    pub kind: RaceKind,
    /// `(earlier accessor, detecting accessor)` model thread indices.
    pub threads: (usize, usize),
    /// Schedule index (0-based) that exposed the race; replay with the same
    /// explorer seed to reproduce.
    pub schedule: u64,
}

/// Outcome of an [`Explorer::explore`] run.
#[derive(Debug)]
pub struct Report {
    /// Number of schedules executed.
    pub schedules: u64,
    /// Total scheduler choice points across all schedules (a lower bound on
    /// distinct interleaving decisions explored).
    pub choice_points: u64,
    /// Deduplicated races, ordered by first discovery.
    pub races: Vec<Race>,
}

impl Report {
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }
}

/// Builder handed to the model closure: register the model's threads.
pub struct ModelBuilder {
    threads: Vec<Box<dyn FnOnce() + Send>>,
    after: Option<Box<dyn FnOnce()>>,
}

impl ModelBuilder {
    /// Register a model thread. Shared state should be built inside the model
    /// closure (uninstrumented: setup happens-before every thread) and moved
    /// into the registered closures via `Arc`s.
    pub fn thread(&mut self, f: impl FnOnce() + Send + 'static) {
        self.threads.push(Box::new(f));
    }

    /// Register a post-schedule invariant check, run on the explorer thread
    /// (uninstrumented) after every model thread of the schedule has joined —
    /// every thread's work happens-before it. Panic to fail the exploration.
    pub fn after(&mut self, f: impl FnOnce() + 'static) {
        self.after = Some(Box::new(f));
    }
}

/// Seeded bounded schedule explorer.
pub struct Explorer {
    seed: u64,
    schedules: u64,
    max_choices: u64,
}

impl Explorer {
    /// `schedules` seeded interleavings, each bounded at 4096 random choice
    /// points before falling back to round-robin.
    pub fn new(seed: u64, schedules: u64) -> Self {
        Self {
            seed,
            schedules,
            max_choices: 4096,
        }
    }

    /// Override the per-schedule random-choice budget.
    pub fn max_choices(mut self, max_choices: u64) -> Self {
        self.max_choices = max_choices;
        self
    }

    /// Run `build` once per schedule to construct a fresh model, execute its
    /// threads under a seeded turnstile, and aggregate race reports. Panics
    /// from model threads (assertion failures) propagate after every thread
    /// of that schedule has been released.
    pub fn explore<F>(&self, build: F) -> Report
    where
        F: Fn(&mut ModelBuilder),
    {
        let mut races: Vec<Race> = Vec::new();
        let mut seen: HashMap<(u64, RaceKind), ()> = HashMap::new();
        let mut choice_points = 0u64;
        for schedule in 0..self.schedules {
            let mut builder = ModelBuilder {
                threads: Vec::new(),
                after: None,
            };
            build(&mut builder);
            let ModelBuilder { threads, after } = builder;
            let n = threads.len();
            assert!(n >= 2, "a race-check model needs at least two threads");
            let session = Arc::new(Session::new(
                n,
                derive_seed(self.seed, schedule),
                self.max_choices,
                schedule,
            ));
            let handles: Vec<_> = threads
                .into_iter()
                .enumerate()
                .map(|(tid, f)| {
                    let sess = Arc::clone(&session);
                    std::thread::spawn(move || {
                        CTX.with(|c| {
                            *c.borrow_mut() = Some(Ctx {
                                session: Arc::clone(&sess),
                                tid,
                            });
                        });
                        // The guard releases the turn and deregisters the
                        // thread even when `f` panics, so sibling threads
                        // drain instead of deadlocking the turnstile.
                        let _guard = FinishGuard {
                            session: Arc::clone(&sess),
                            tid,
                        };
                        sess.begin(tid);
                        f();
                    })
                })
                .collect();
            let mut panic_payload = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panic_payload = Some(payload);
                }
            }
            if let Some(payload) = panic_payload {
                std::panic::resume_unwind(payload);
            }
            if let Some(check) = after {
                check();
            }
            let state = session.state.lock();
            choice_points += session.sched.lock().choices;
            for race in &state.races {
                if seen.insert((race.object, race.kind), ()).is_none() {
                    races.push(race.clone());
                }
            }
        }
        Report {
            schedules: self.schedules,
            choice_points,
            races,
        }
    }
}

struct FinishGuard {
    session: Arc<Session>,
    tid: usize,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.borrow_mut().take());
        self.session.finish(self.tid);
    }
}

type VectorClock = Vec<u64>;

fn join(into: &mut VectorClock, from: &VectorClock) {
    for (a, b) in into.iter_mut().zip(from.iter()) {
        *a = (*a).max(*b);
    }
}

struct ObjectState {
    label: &'static str,
    /// Join of the clocks of all releasing accesses to this object.
    release: VectorClock,
    /// Per-thread epoch (`clock[tid]` at access time) of the last write/read
    /// to this object *as plain data* (RaceCell only); 0 = never accessed.
    writes: Vec<u64>,
    reads: Vec<u64>,
}

impl ObjectState {
    fn new(label: &'static str, threads: usize) -> Self {
        Self {
            label,
            release: vec![0; threads],
            writes: vec![0; threads],
            reads: vec![0; threads],
        }
    }
}

struct SessionState {
    clocks: Vec<VectorClock>,
    objects: HashMap<u64, ObjectState>,
    races: Vec<Race>,
}

struct SchedState {
    current: usize,
    alive: Vec<bool>,
    started: usize,
    rng: Stream,
    choices: u64,
    max_choices: u64,
}

impl SchedState {
    /// Pick the next thread to run: seeded-uniform among live threads while
    /// the choice budget lasts, then deterministic round-robin (bounded
    /// schedules with guaranteed progress for try-lock spinners).
    fn pick(&mut self) -> usize {
        let live: Vec<usize> = (0..self.alive.len()).filter(|&t| self.alive[t]).collect();
        debug_assert!(!live.is_empty());
        if self.choices < self.max_choices {
            self.choices += 1;
            live[self.rng.next_below(live.len() as u64) as usize]
        } else {
            let n = self.alive.len();
            (1..=n)
                .map(|d| (self.current + d) % n)
                .find(|&t| self.alive[t])
                .unwrap_or(self.current)
        }
    }
}

struct Session {
    sched: Mutex<SchedState>,
    turnstile: Condvar,
    state: Mutex<SessionState>,
    threads: usize,
    schedule: u64,
}

impl Session {
    fn new(threads: usize, seed: u64, max_choices: u64, schedule: u64) -> Self {
        Self {
            sched: Mutex::new(SchedState {
                current: 0,
                alive: vec![false; threads],
                started: 0,
                rng: Stream::new(seed),
                choices: 0,
                max_choices,
            }),
            turnstile: Condvar::new(),
            state: Mutex::new(SessionState {
                clocks: (0..threads).map(|_| vec![0; threads]).collect(),
                objects: HashMap::new(),
                races: Vec::new(),
            }),
            threads,
            schedule,
        }
    }

    /// Rendezvous: wait for every model thread to register, then the last
    /// arrival makes the (seeded) first pick. Keeps schedules independent of
    /// OS spawn order.
    fn begin(&self, tid: usize) {
        let mut sched = self.sched.lock();
        sched.alive[tid] = true;
        sched.started += 1;
        if sched.started == self.threads {
            sched.current = sched.pick();
            self.turnstile.notify_all();
        }
        while !(sched.started == self.threads && sched.current == tid) {
            self.turnstile.wait(&mut sched);
        }
    }

    fn yield_now(&self, tid: usize) {
        let mut sched = self.sched.lock();
        debug_assert_eq!(
            sched.current, tid,
            "yield from a thread not holding the turn"
        );
        sched.current = sched.pick();
        self.turnstile.notify_all();
        while sched.current != tid {
            self.turnstile.wait(&mut sched);
        }
    }

    fn finish(&self, tid: usize) {
        let mut sched = self.sched.lock();
        sched.alive[tid] = false;
        if sched.alive.iter().any(|&a| a) {
            sched.current = sched.pick();
            self.turnstile.notify_all();
        }
    }

    fn atomic_op(&self, tid: usize, id: u64, order: Ordering, loads: bool, stores: bool) {
        // ordering: the matches! below inspect an Ordering *value* to decide
        // which vector-clock edges to draw; no atomic operation happens here.
        let acquire_side = loads
            && matches!(
                order,
                Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
            );
        let release_side = stores
            && matches!(
                order,
                Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
            );
        let mut state = self.state.lock();
        let threads = self.threads;
        let SessionState {
            clocks, objects, ..
        } = &mut *state;
        clocks[tid][tid] += 1;
        let object = objects
            .entry(id)
            .or_insert_with(|| ObjectState::new("atomic", threads));
        if acquire_side {
            join(&mut clocks[tid], &object.release);
        }
        if release_side {
            join(&mut object.release, &clocks[tid]);
        }
    }

    fn lock_op(&self, tid: usize, id: u64, exclusive: bool) {
        let _ = exclusive;
        let mut state = self.state.lock();
        let threads = self.threads;
        let SessionState {
            clocks, objects, ..
        } = &mut *state;
        clocks[tid][tid] += 1;
        let object = objects
            .entry(id)
            .or_insert_with(|| ObjectState::new("lock", threads));
        join(&mut clocks[tid], &object.release);
    }

    fn unlock_op(&self, tid: usize, id: u64) {
        let mut state = self.state.lock();
        let threads = self.threads;
        let SessionState {
            clocks, objects, ..
        } = &mut *state;
        clocks[tid][tid] += 1;
        let object = objects
            .entry(id)
            .or_insert_with(|| ObjectState::new("lock", threads));
        join(&mut object.release, &clocks[tid]);
    }

    fn cell_op(&self, tid: usize, id: u64, label: &'static str, is_write: bool) {
        let schedule = self.schedule;
        let mut state = self.state.lock();
        let threads = self.threads;
        let SessionState {
            clocks,
            objects,
            races,
        } = &mut *state;
        clocks[tid][tid] += 1;
        let object = objects
            .entry(id)
            .or_insert_with(|| ObjectState::new(label, threads));
        let mut report = |kind: RaceKind, other: usize| {
            if !races.iter().any(|r| r.object == id && r.kind == kind) {
                races.push(Race {
                    label: object.label,
                    object: id,
                    kind,
                    threads: (other, tid),
                    schedule,
                });
            }
        };
        // A prior write by another thread races with this access unless its
        // epoch is covered by our clock (i.e. a happens-before path exists).
        // `other` indexes three parallel per-thread arrays, so a plain range
        // loop reads better than a triple zip.
        #[allow(clippy::needless_range_loop)]
        for other in 0..threads {
            if other == tid {
                continue;
            }
            let write_epoch = object.writes[other];
            if write_epoch > 0 && write_epoch > clocks[tid][other] {
                report(
                    if is_write {
                        RaceKind::WriteWrite
                    } else {
                        RaceKind::ReadWrite
                    },
                    other,
                );
            }
            if is_write {
                let read_epoch = object.reads[other];
                if read_epoch > 0 && read_epoch > clocks[tid][other] {
                    report(RaceKind::ReadWrite, other);
                }
            }
        }
        if is_write {
            object.writes[tid] = clocks[tid][tid];
        } else {
            object.reads[tid] = clocks[tid][tid];
        }
    }
}
