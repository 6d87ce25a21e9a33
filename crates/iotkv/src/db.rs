//! The database façade: ties the WAL, memtables, tables, versions, and
//! compaction together behind `put`/`get`/`delete`/`write`/`scan`.
//!
//! # Concurrency model
//!
//! * Writes commit on the **caller's thread** through a LevelDB-style
//!   writer queue. A writer pushes its batch and an empty result slot onto
//!   `pending`, then tries the WAL lock. The holder of that lock (the
//!   leader) drains up to [`MAX_GROUP`] queued batches — its own and those
//!   of the writers parked behind it — appends the group to the WAL,
//!   performs **one** flush/fsync for it (group commit), applies it to the
//!   memtable, publishes the new visible sequence number, then fills and
//!   wakes every slot. On release it wakes the writer at the head of the
//!   queue, which leads the next group. Group commit is what amortises
//!   `fsync` under concurrency — the effect the paper's super-linear
//!   scaling region rides on.
//! * The writer whose group fills the memtable freezes it, still under
//!   the WAL lock. With background maintenance it first waits (the write
//!   stall) until L0 and the frozen-memtable backlog are under their caps;
//!   without it, it flushes and compacts inline (deterministic mode for
//!   tests). `Db::flush` freezes under the same lock.
//! * Reads are lock-light: they load the visible sequence number, snapshot
//!   `Arc`s of the memtables and the current version, and proceed without
//!   blocking writers.
//! * Flush and compaction run on a **background thread**
//!   (`Options::background_compaction`) or inline on the freezing writer.
//!   One maintenance lock serialises each step with `Db::flush` and
//!   `Db::compact`, so no flush or compaction job runs twice.
//! * Scans register a snapshot sequence number; compaction never discards
//!   a version some registered snapshot still needs.

use crate::batch::WriteBatch;
use crate::cache::BlockCache;
use crate::compaction::{merge_to_tables, pick_leveled, pick_tiered, CompactionJob};
use crate::iter::{MergeIterator, Source, VisibleIter};
use crate::memtable::{InternalKey, MemTable};
use crate::sstable::Table;
use crate::version::{
    load_manifest, save_manifest, table_path, wal_path, FileMeta, ManifestState, Version,
};
use crate::wal::{LogReader, LogWriter};
use crate::{CompactionStyle, Error, Options, Result, SeqNo, SyncMode};
use bytes::Bytes;
use parking_lot::Condvar;
use simkit::sync::{park, AtomicBool, AtomicU64, Mutex, MutexGuard, Ordering, RwLock};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

/// Maximum batches merged into one commit group.
const MAX_GROUP: usize = 128;

/// Frozen memtables allowed to wait for their flush. Each one keeps up to
/// `memtable_bytes` of keys and values on the heap until its table is
/// written, so one engine buffers at most `(1 + MAX_FROZEN_MEMTABLES) *
/// memtable_bytes`; with the 8 MiB default and three replicas per
/// process, every extra frozen memtable is up to 24 MiB of resident heap.
/// Freezing one more waits (the write stall) until the backlog drops. On
/// batch-1 ingest (2-vCPU VM) a cap of 2 or 3 raised both peak RSS and the
/// p999 insert latency over this cap, at the same throughput.
const MAX_FROZEN_MEMTABLES: usize = 1;

/// A queued writer: where the group that takes its batch leaves the
/// result, and the thread to wake when it does.
struct Slot {
    result: Mutex<Option<Result<()>>>,
    writer: Thread,
}

/// The WAL and the sequence counter, owned by the holder of the WAL lock.
struct LogState {
    wal: LogWriter,
    wal_id: u64,
    last_seq: SeqNo,
}

struct ImmMem {
    wal_id: u64,
    mem: Arc<MemTable>,
}

struct VersionState {
    version: Arc<Version>,
    /// Open table handles, shared with readers via a cheap `Arc` clone
    /// (gets/scans must not deep-copy the map on every operation);
    /// mutators copy-on-write through `Arc::make_mut`.
    tables: Arc<HashMap<u64, Arc<Table>>>,
    next_file_id: u64,
    log_number: u64,
}

#[derive(Default)]
struct Counters {
    puts: AtomicU64,
    deletes: AtomicU64,
    gets: AtomicU64,
    scans: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    bytes_flushed: AtomicU64,
    bytes_compacted: AtomicU64,
    wal_syncs: AtomicU64,
    commit_groups: AtomicU64,
    commit_batches: AtomicU64,
    stalls: AtomicU64,
}

/// A point-in-time snapshot of engine statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbStats {
    pub puts: u64,
    pub deletes: u64,
    pub gets: u64,
    pub scans: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub bytes_flushed: u64,
    pub bytes_compacted: u64,
    pub wal_syncs: u64,
    pub commit_groups: u64,
    pub commit_batches: u64,
    pub stalls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub table_count: usize,
    pub level_shape: [usize; 8],
}

impl DbStats {
    /// Sums another snapshot into this one (aggregating engines across
    /// cluster nodes for telemetry export).
    pub fn accumulate(&mut self, other: &DbStats) {
        self.puts += other.puts;
        self.deletes += other.deletes;
        self.gets += other.gets;
        self.scans += other.scans;
        self.flushes += other.flushes;
        self.compactions += other.compactions;
        self.bytes_flushed += other.bytes_flushed;
        self.bytes_compacted += other.bytes_compacted;
        self.wal_syncs += other.wal_syncs;
        self.commit_groups += other.commit_groups;
        self.commit_batches += other.commit_batches;
        self.stalls += other.stalls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.table_count += other.table_count;
        for (a, b) in self.level_shape.iter_mut().zip(other.level_shape) {
            *a += b;
        }
    }
}

struct DbInner {
    dir: PathBuf,
    opts: Options,
    cache: Arc<BlockCache>,
    mem: RwLock<Arc<MemTable>>,
    imm: Mutex<VecDeque<ImmMem>>,
    vset: Mutex<VersionState>,
    visible_seq: AtomicU64,
    /// Batches waiting for the holder of `log` to commit them.
    pending: Mutex<VecDeque<(WriteBatch, Arc<Slot>)>>,
    /// The WAL lock: held for a whole commit group and for freezing.
    log: Mutex<LogState>,
    /// Held for one flush or compaction step.
    maint: Mutex<()>,
    /// Active scan snapshots: seq -> refcount.
    snapshots: Mutex<BTreeMap<SeqNo, usize>>,
    counters: Counters,
    closed: AtomicBool,
    bg_mutex: parking_lot::Mutex<()>,
    bg_cv: Condvar,
    bg_error: Mutex<Option<Error>>,
}

impl DbInner {
    fn check_bg_error(&self) -> Result<()> {
        match &*self.bg_error.lock() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Oldest sequence number any reader may still need.
    fn min_snapshot(&self) -> SeqNo {
        let snaps = self.snapshots.lock();
        snaps
            .keys()
            .next()
            .copied()
            // ordering: Acquire — pairs with the committing writer's Release
            // store; a snapshot taken at this seq must see the data it covers.
            .unwrap_or_else(|| self.visible_seq.load(Ordering::Acquire))
    }

    fn register_snapshot(&self, seq: SeqNo) {
        *self.snapshots.lock().entry(seq).or_insert(0) += 1;
    }

    fn release_snapshot(&self, seq: SeqNo) {
        let mut snaps = self.snapshots.lock();
        if let Some(count) = snaps.get_mut(&seq) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&seq);
            }
        }
    }

    fn alloc_file_id(&self) -> u64 {
        let mut vset = self.vset.lock();
        let id = vset.next_file_id;
        vset.next_file_id += 1;
        id
    }

    fn persist(&self, vset: &VersionState) -> Result<()> {
        save_manifest(
            &self.dir,
            &ManifestState {
                next_file_id: vset.next_file_id,
                // ordering: Acquire — pairs with the committing writer's
                // Release store so the manifest never records an unpublished
                // seq.
                last_seq: self.visible_seq.load(Ordering::Acquire),
                log_number: vset.log_number,
                version: (*vset.version).clone(),
            },
        )
    }

    /// Flushes the oldest immutable memtable to an L0 table.
    fn flush_one_imm(&self) -> Result<bool> {
        let _maint = self.maint.lock();
        let front = {
            let imm = self.imm.lock();
            match imm.front() {
                Some(f) => ImmMem {
                    wal_id: f.wal_id,
                    mem: Arc::clone(&f.mem),
                },
                None => return Ok(false),
            }
        };
        let entries = front.mem.all_entries();
        let min_snapshot = self.min_snapshot();
        let outputs = merge_to_tables(
            vec![Source::Vec(entries.into_iter())],
            &self.dir,
            &self.opts,
            false,
            min_snapshot,
            || self.alloc_file_id(),
        )?;

        let mut vset = self.vset.lock();
        let mut added = Vec::new();
        for (id, meta) in &outputs {
            // ordering: Relaxed — statistics counter; published via DbStats
            // reads that tolerate staleness.
            self.counters
                .bytes_flushed
                .fetch_add(meta.file_size, Ordering::Relaxed);
            added.push((
                0usize,
                FileMeta {
                    id: *id,
                    size: meta.file_size,
                    entry_count: meta.entry_count,
                    smallest: meta.smallest.clone(),
                    largest: meta.largest.clone(),
                },
            ));
            let table = Table::open(&table_path(&self.dir, *id), *id, Arc::clone(&self.cache))?;
            Arc::make_mut(&mut vset.tables).insert(*id, Arc::new(table));
        }
        vset.version = Arc::new(vset.version.apply(&[], &added));
        vset.log_number = vset.log_number.max(front.wal_id + 1);
        self.persist(&vset)?;
        let log_number = vset.log_number;
        drop(vset);

        // The data is durable in the table; retire the memtable and its WAL.
        {
            let mut imm = self.imm.lock();
            if imm.front().map(|f| f.wal_id) == Some(front.wal_id) {
                imm.pop_front();
            }
        }
        self.delete_stale_wals(log_number);
        // ordering: Relaxed — statistics counter.
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    fn delete_stale_wals(&self, log_number: u64) {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(stem) = name.strip_suffix(".wal") {
                    if let Ok(id) = stem.parse::<u64>() {
                        if id < log_number {
                            std::fs::remove_file(entry.path()).ok();
                        }
                    }
                }
            }
        }
    }

    /// Runs compactions until the tree satisfies its invariants.
    fn compact_until_quiet(&self) -> Result<()> {
        loop {
            let _maint = self.maint.lock();
            let job = {
                let vset = self.vset.lock();
                match self.opts.compaction {
                    CompactionStyle::Leveled => pick_leveled(&vset.version, &self.opts),
                    CompactionStyle::SizeTiered => pick_tiered(&vset.version, &self.opts),
                }
            };
            let Some(job) = job else { return Ok(()) };
            self.run_compaction(&job)?;
        }
    }

    fn run_compaction(&self, job: &CompactionJob) -> Result<()> {
        let sources: Vec<Source> = {
            let vset = self.vset.lock();
            job.inputs
                .iter()
                .chain(&job.overlaps)
                .map(|f| {
                    // Every file named by a compaction job is pinned in the
                    // version set until the job completes; a missing table is
                    // state corruption worth crashing on.
                    let table = vset
                        .tables
                        .get(&f.id)
                        // lint:allow(unwrap) invariant panic, see above
                        .unwrap_or_else(|| panic!("table {} missing from version state", f.id));
                    Source::Table(table.iter())
                })
                .collect()
        };
        let min_snapshot = self.min_snapshot();
        let outputs = merge_to_tables(
            sources,
            &self.dir,
            &self.opts,
            job.drop_tombstones,
            min_snapshot,
            || self.alloc_file_id(),
        )?;

        let deleted = job.input_ids();
        // ordering: Relaxed — statistics counter.
        self.counters
            .bytes_compacted
            .fetch_add(job.input_bytes(), Ordering::Relaxed);

        let mut vset = self.vset.lock();
        let mut added = Vec::new();
        for (id, meta) in &outputs {
            added.push((
                job.target_level,
                FileMeta {
                    id: *id,
                    size: meta.file_size,
                    entry_count: meta.entry_count,
                    smallest: meta.smallest.clone(),
                    largest: meta.largest.clone(),
                },
            ));
            let table = Table::open(&table_path(&self.dir, *id), *id, Arc::clone(&self.cache))?;
            Arc::make_mut(&mut vset.tables).insert(*id, Arc::new(table));
        }
        vset.version = Arc::new(vset.version.apply(&deleted, &added));
        self.persist(&vset)?;
        for id in &deleted {
            Arc::make_mut(&mut vset.tables).remove(id);
        }
        drop(vset);

        for id in &deleted {
            self.cache.erase_table(*id);
            std::fs::remove_file(table_path(&self.dir, *id)).ok();
        }
        // ordering: Relaxed — statistics counter.
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn maintenance_pending(&self) -> bool {
        if !self.imm.lock().is_empty() {
            return true;
        }
        let vset = self.vset.lock();
        match self.opts.compaction {
            CompactionStyle::Leveled => pick_leveled(&vset.version, &self.opts).is_some(),
            CompactionStyle::SizeTiered => pick_tiered(&vset.version, &self.opts).is_some(),
        }
    }

    /// Commits a batch on the caller's thread. The batch is queued; if the
    /// WAL lock is free this writer leads groups until one has taken it,
    /// otherwise it parks until a leader fills its slot or hands it the
    /// lead.
    fn write(&self, batch: WriteBatch) -> Result<()> {
        self.check_bg_error()?;
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            writer: std::thread::current(),
        });
        self.pending.lock().push_back((batch, Arc::clone(&slot)));
        loop {
            if let Some(result) = slot.result.lock().take() {
                return result;
            }
            match self.log.try_lock() {
                Some(mut log) => {
                    self.commit_group(&mut log);
                    self.release_log(log);
                }
                // The lock holder wakes this writer when it fills the slot
                // or, on release, when this batch heads the queue.
                None => park(),
            }
        }
    }

    /// Releases the WAL lock and wakes the writer at the head of the
    /// queue, which queued while the lock was held and now leads.
    fn release_log(&self, log: MutexGuard<'_, LogState>) {
        drop(log);
        if let Some((_, next)) = self.pending.lock().front() {
            next.writer.unpark();
        }
    }

    /// Commits up to `MAX_GROUP` queued batches as one group, fills their
    /// slots, then freezes the memtable if the group filled it. Errors of
    /// the freeze and of inline maintenance become the background error.
    fn commit_group(&self, log: &mut LogState) {
        let mut group: Vec<_> = {
            let mut pending = self.pending.lock();
            let n = pending.len().min(MAX_GROUP);
            pending.drain(..n).collect()
        };
        // ordering: Relaxed — statistics counters.
        self.counters.commit_groups.fetch_add(1, Ordering::Relaxed);
        self.counters
            .commit_batches
            .fetch_add(group.len() as u64, Ordering::Relaxed);

        let result = self.append_and_apply(log, &mut group);
        for (_, slot) in &group {
            *slot.result.lock() = Some(result.clone());
            slot.writer.unpark();
        }

        if self.mem.read().approximate_bytes() >= self.opts.memtable_bytes {
            let maintained = self.freeze_memtable(log).and_then(|()| {
                if self.opts.background_compaction {
                    return Ok(());
                }
                // Deterministic inline maintenance.
                self.flush_one_imm()?;
                self.compact_until_quiet()
            });
            if let Err(e) = maintained {
                self.bg_error.lock().get_or_insert(e);
            }
        }
    }

    /// Sequence numbers and WAL append for the whole group, one flush/sync,
    /// memtable apply, then the `Release` publish of the visible sequence.
    fn append_and_apply(
        &self,
        log: &mut LogState,
        group: &mut [(WriteBatch, Arc<Slot>)],
    ) -> Result<()> {
        for (batch, _) in group.iter_mut() {
            batch.set_seq(log.last_seq + 1);
            log.last_seq += batch.len() as u64;
            log.wal.append(batch.encoded())?;
        }
        match self.opts.sync {
            SyncMode::None => log.wal.flush()?,
            SyncMode::GroupCommit => {
                // ordering: Relaxed — statistics counter.
                self.counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
                log.wal.sync()?;
            }
            SyncMode::Always => {
                // ordering: Relaxed — statistics counter.
                self.counters
                    .wal_syncs
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
                log.wal.sync()?;
            }
        }

        let mem = Arc::clone(&self.mem.read());
        let applied = group.iter().try_for_each(|(batch, _)| {
            let (_, ops) = WriteBatch::decode(batch.encoded())?;
            for op in ops {
                let op = op?;
                mem.add(&op.key, op.seq, op.kind, &op.value);
            }
            Ok(())
        });
        // ordering: Release — publishes the freshly applied memtable entries;
        // pairs with the Acquire loads readers use to pick their snapshot seq.
        self.visible_seq.store(log.last_seq, Ordering::Release);
        applied
    }

    /// Freezes the active memtable and starts its successor's WAL; the
    /// caller holds the WAL lock. With background maintenance this is where
    /// writes stall, so the frozen backlog never exceeds
    /// `MAX_FROZEN_MEMTABLES`.
    fn freeze_memtable(&self, log: &mut LogState) -> Result<()> {
        if self.opts.background_compaction {
            self.stall_until_maintained()?;
        }
        log.wal.flush()?;
        let new_id = self.alloc_file_id();
        let new_wal = LogWriter::create(&wal_path(&self.dir, new_id))?;
        let old_id = std::mem::replace(&mut log.wal_id, new_id);
        log.wal = new_wal;
        {
            // Holding `imm` across the swap means a reader that already sees
            // the new, empty memtable also sees the frozen one.
            let mut imm = self.imm.lock();
            let mem = std::mem::replace(&mut *self.mem.write(), Arc::new(MemTable::new()));
            imm.push_back(ImmMem {
                wal_id: old_id,
                mem,
            });
        }
        self.bg_cv.notify_all();
        Ok(())
    }

    /// The write stall: waits until L0 is under its stall trigger and
    /// fewer than `MAX_FROZEN_MEMTABLES` memtables wait for their flush.
    /// Returns the background error instead of waiting on a background
    /// thread that has stopped.
    fn stall_until_maintained(&self) -> Result<()> {
        loop {
            let l0 = self.vset.lock().version.levels[0].len();
            let frozen = self.imm.lock().len();
            if l0 < self.opts.l0_stall_trigger && frozen < MAX_FROZEN_MEMTABLES {
                return Ok(());
            }
            self.check_bg_error()?;
            // ordering: Relaxed — statistics counter.
            self.counters.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// An embedded LSM key-value store. See the [crate docs](crate) for the
/// architecture overview and an example.
///
/// Every method takes `&self` and `Db` is `Send + Sync`: share one
/// instance across threads by reference or behind an `Arc`. Writes run on
/// the calling thread; the only thread a `Db` owns is the optional
/// background maintenance thread, which dropping the `Db` stops.
pub struct Db {
    inner: Arc<DbInner>,
    bg_handle: Option<JoinHandle<()>>,
}

impl Db {
    /// Opens (creating if needed) a database in `dir`, recovering any
    /// manifest state and replaying WAL tails from a previous process.
    pub fn open(dir: impl AsRef<Path>, opts: Options) -> Result<Db> {
        opts.validate()?;
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let cache = Arc::new(BlockCache::new(opts.block_cache_bytes));
        let manifest = load_manifest(&dir)?;
        let (version, mut next_file_id, mut last_seq, log_number) = match manifest {
            Some(m) => (m.version, m.next_file_id, m.last_seq, m.log_number),
            None => (Version::new(opts.max_levels), 1, 0, 0),
        };

        // Never reuse a file id present on disk (e.g. manifest lost).
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                for suffix in [".sst", ".wal"] {
                    if let Some(stem) = name.strip_suffix(suffix) {
                        if let Ok(id) = stem.parse::<u64>() {
                            next_file_id = next_file_id.max(id + 1);
                        }
                    }
                }
            }
        }

        let mut tables = HashMap::new();
        for level in &version.levels {
            for f in level {
                let table = Table::open(&table_path(&dir, f.id), f.id, Arc::clone(&cache))?;
                tables.insert(f.id, Arc::new(table));
            }
        }

        // Replay WAL tails (ids >= log_number) in id order.
        let mem = Arc::new(MemTable::new());
        let mut wal_ids: Vec<u64> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(stem) = name.strip_suffix(".wal") {
                    if let Ok(id) = stem.parse::<u64>() {
                        if id >= log_number {
                            wal_ids.push(id);
                        }
                    }
                }
            }
        }
        wal_ids.sort_unstable();
        for id in &wal_ids {
            let mut reader = LogReader::open(&wal_path(&dir, *id))?;
            while let Some(payload) = reader.next_record()? {
                let (_, ops) = WriteBatch::decode(&payload)?;
                for op in ops {
                    let op = op?;
                    mem.add(&op.key, op.seq, op.kind, &op.value);
                    last_seq = last_seq.max(op.seq);
                }
            }
        }

        let wal_id = next_file_id;
        next_file_id += 1;
        let wal = LogWriter::create(&wal_path(&dir, wal_id))?;

        let inner = Arc::new(DbInner {
            dir,
            opts: opts.clone(),
            cache,
            mem: RwLock::new(mem),
            imm: Mutex::new(VecDeque::new()),
            vset: Mutex::new(VersionState {
                version: Arc::new(version),
                tables: Arc::new(tables),
                next_file_id,
                log_number,
            }),
            visible_seq: AtomicU64::new(last_seq),
            pending: Mutex::new(VecDeque::new()),
            log: Mutex::new(LogState {
                wal,
                wal_id,
                last_seq,
            }),
            maint: Mutex::new(()),
            snapshots: Mutex::new(BTreeMap::new()),
            counters: Counters::default(),
            closed: AtomicBool::new(false),
            bg_mutex: parking_lot::Mutex::new(()),
            bg_cv: Condvar::new(),
            bg_error: Mutex::new(None),
        });

        let bg_handle = if opts.background_compaction {
            let bg_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("iotkv-bg".into())
                    .spawn(move || background_loop(bg_inner))?,
            )
        } else {
            None
        };

        Ok(Db { inner, bg_handle })
    }

    /// Inserts or overwrites `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        if key.is_empty() {
            return Err(Error::invalid("key must not be empty"));
        }
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        // ordering: Relaxed — statistics counter.
        self.inner.counters.puts.fetch_add(1, Ordering::Relaxed);
        self.inner.write(batch)
    }

    /// Deletes `key` (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        if key.is_empty() {
            return Err(Error::invalid("key must not be empty"));
        }
        let mut batch = WriteBatch::new();
        batch.delete(key);
        // ordering: Relaxed — statistics counter.
        self.inner.counters.deletes.fetch_add(1, Ordering::Relaxed);
        self.inner.write(batch)
    }

    /// Applies a batch atomically.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // ordering: Relaxed — statistics counter.
        self.inner
            .counters
            .puts
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.inner.write(batch)
    }

    /// Reads the newest visible value of `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        // ordering: Relaxed — statistics counter.
        self.inner.counters.gets.fetch_add(1, Ordering::Relaxed);
        // ordering: Acquire — pairs with the committing writer's Release
        // store; reading seq N implies the memtable already holds N's entries.
        let seq = self.inner.visible_seq.load(Ordering::Acquire);

        // 1. Active memtable.
        let mem = Arc::clone(&self.inner.mem.read());
        if let Some(hit) = mem.get(key, seq) {
            return Ok(hit);
        }
        // 2. Immutable memtables, newest first.
        {
            let imm = self.inner.imm.lock();
            for frozen in imm.iter().rev() {
                if let Some(hit) = frozen.mem.get(key, seq) {
                    return Ok(hit);
                }
            }
        }
        // 3. Tables.
        let (version, tables) = {
            let vset = self.inner.vset.lock();
            (Arc::clone(&vset.version), Arc::clone(&vset.tables))
        };
        // L0 newest flush first (highest file id).
        for f in version.levels[0].iter().rev() {
            if f.overlaps(key, key) {
                if let Some(hit) = tables[&f.id].get(key, seq)? {
                    return Ok(hit);
                }
            }
        }
        for level in version.levels.iter().skip(1) {
            // Non-overlapping: binary search by largest user key.
            let idx = level.partition_point(|f| f.largest.user_key.as_ref() < key);
            if idx < level.len() && level[idx].overlaps(key, key) {
                if let Some(hit) = tables[&level[idx].id].get(key, seq)? {
                    return Ok(hit);
                }
            }
        }
        Ok(None)
    }

    /// Ordered scan of user keys in `[start, end)`, newest visible version
    /// of each, up to `limit` rows.
    pub fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Result<Vec<(Bytes, Bytes)>> {
        if start >= end || limit == 0 {
            return Ok(Vec::new());
        }
        let mut rows = Vec::new();
        let mut it = self.scan_iter(start, end);
        while rows.len() < limit {
            match it.next() {
                Some(Ok(kv)) => rows.push(kv),
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        Ok(rows)
    }

    /// Pull-based streaming scan of `[start, end)`: the newest visible
    /// version of each user key, in order, without materializing the
    /// range. The iterator pins a snapshot for its whole lifetime —
    /// compaction keeps every table the snapshot needs alive — and
    /// releases it on drop. A deferred table I/O error surfaces as one
    /// final `Err` item after which the iterator is fused.
    pub fn scan_iter(&self, start: &[u8], end: &[u8]) -> ScanIter {
        // ordering: Relaxed — statistics counter.
        self.inner.counters.scans.fetch_add(1, Ordering::Relaxed);
        // ordering: Acquire — pairs with the committing writer's Release
        // store; the pinned snapshot must see every entry at or below seq.
        let seq = self.inner.visible_seq.load(Ordering::Acquire);
        self.inner.register_snapshot(seq);

        let mut sources: Vec<Source> = Vec::new();
        if start < end {
            let mem = Arc::clone(&self.inner.mem.read());
            sources.push(Source::Vec(mem.range_entries(start, end).into_iter()));
            {
                let imm = self.inner.imm.lock();
                for frozen in imm.iter() {
                    sources.push(Source::Vec(
                        frozen.mem.range_entries(start, end).into_iter(),
                    ));
                }
            }
            let (version, tables) = {
                let vset = self.inner.vset.lock();
                (Arc::clone(&vset.version), Arc::clone(&vset.tables))
            };
            let seek_key = InternalKey::seek_bound(Bytes::copy_from_slice(start), SeqNo::MAX);
            // `end` is exclusive, but FileMeta::overlaps uses inclusive
            // bounds; the visibility adapter trims any overshoot.
            for level in version.levels.iter() {
                for f in level {
                    if f.overlaps(start, end) {
                        let mut it = tables[&f.id].iter();
                        it.seek(&seek_key);
                        sources.push(Source::Table(it));
                    }
                }
            }
        }

        let visible = VisibleIter::new(
            MergeIterator::new(sources),
            seq,
            Some(Bytes::copy_from_slice(end)),
        );
        ScanIter {
            inner: Arc::clone(&self.inner),
            seq,
            visible,
            done: false,
        }
    }

    /// Forces the active memtable (and all frozen ones) to disk.
    pub fn flush(&self) -> Result<()> {
        let mut log = self.inner.log.lock();
        let frozen = if self.inner.mem.read().is_empty() {
            Ok(())
        } else {
            self.inner.freeze_memtable(&mut log)
        };
        self.inner.release_log(log);
        if let Err(e) = &frozen {
            // As on the write path, a failed freeze stops further writes.
            self.inner.bg_error.lock().get_or_insert_with(|| e.clone());
        }
        frozen?;
        while self.inner.flush_one_imm()? {}
        self.inner.compact_until_quiet()
    }

    /// Runs compactions until the tree is quiescent.
    pub fn compact(&self) -> Result<()> {
        self.inner.compact_until_quiet()
    }

    /// Point-in-time statistics snapshot.
    pub fn stats(&self) -> DbStats {
        let c = &self.inner.counters;
        let vset = self.inner.vset.lock();
        let mut level_shape = [0usize; 8];
        for (i, level) in vset.version.levels.iter().take(8).enumerate() {
            level_shape[i] = level.len();
        }
        // ordering: Relaxed — statistics snapshot; counters are independent
        // and the snapshot is advisory, not a consistency point.
        DbStats {
            puts: c.puts.load(Ordering::Relaxed),
            deletes: c.deletes.load(Ordering::Relaxed),
            gets: c.gets.load(Ordering::Relaxed),
            scans: c.scans.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            bytes_flushed: c.bytes_flushed.load(Ordering::Relaxed),
            bytes_compacted: c.bytes_compacted.load(Ordering::Relaxed),
            wal_syncs: c.wal_syncs.load(Ordering::Relaxed),
            commit_groups: c.commit_groups.load(Ordering::Relaxed),
            commit_batches: c.commit_batches.load(Ordering::Relaxed),
            stalls: c.stalls.load(Ordering::Relaxed),
            cache_hits: self.inner.cache.hit_count(),
            cache_misses: self.inner.cache.miss_count(),
            table_count: vset.version.table_count(),
            level_shape,
        }
    }

    /// The directory this database lives in.
    pub fn path(&self) -> &Path {
        &self.inner.dir
    }

    /// Number of live user keys is not tracked; this returns the count of
    /// versioned entries across all tables plus memtables (an upper bound).
    pub fn approximate_entries(&self) -> u64 {
        let mem_entries = self.inner.mem.read().len() as u64;
        let imm_entries: u64 = self
            .inner
            .imm
            .lock()
            .iter()
            .map(|f| f.mem.len() as u64)
            .sum();
        let table_entries: u64 = {
            let vset = self.inner.vset.lock();
            vset.version
                .levels
                .iter()
                .flatten()
                .map(|f| f.entry_count)
                .sum()
        };
        mem_entries + imm_entries + table_entries
    }
}

/// A streaming range scan over one [`Db`], created by [`Db::scan_iter`].
///
/// Yields `(user_key, value)` pairs in key order. The underlying merge
/// heap pulls from memtable snapshots and seeked table iterators lazily,
/// so a consumer that folds row-by-row never materializes the range.
pub struct ScanIter {
    inner: Arc<DbInner>,
    seq: SeqNo,
    visible: VisibleIter<MergeIterator>,
    done: bool,
}

impl ScanIter {
    /// The snapshot sequence number this scan reads at.
    pub fn snapshot_seq(&self) -> SeqNo {
        self.seq
    }
}

impl Iterator for ScanIter {
    type Item = Result<(Bytes, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.visible.next() {
            Some(kv) => Some(Ok(kv)),
            None => {
                self.done = true;
                self.visible.inner_mut().take_error().map(Err)
            }
        }
    }
}

impl Drop for ScanIter {
    fn drop(&mut self) {
        self.inner.release_snapshot(self.seq);
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        // ordering: Release — publishes the close decision; the background
        // loop's Acquire loads observe it and stand down.
        self.inner.closed.store(true, Ordering::Release);
        self.inner.bg_cv.notify_all();
        if let Some(h) = self.bg_handle.take() {
            let _ = h.join();
        }
    }
}

/// The background maintenance thread: flushes frozen memtables and runs
/// compactions until the database closes.
fn background_loop(inner: Arc<DbInner>) {
    loop {
        {
            let mut guard = inner.bg_mutex.lock();
            if !inner.maintenance_pending() {
                // ordering: Acquire — pairs with `Db::drop`'s Release store.
                if inner.closed.load(Ordering::Acquire) {
                    return;
                }
                inner
                    .bg_cv
                    .wait_for(&mut guard, std::time::Duration::from_millis(20));
            }
        }
        // ordering: Acquire — pairs with `Db::drop`'s Release store.
        if inner.closed.load(Ordering::Acquire) && !inner.maintenance_pending() {
            return;
        }
        let result = inner
            .flush_one_imm()
            .and_then(|_| inner.compact_until_quiet());
        if let Err(e) = result {
            *inner.bg_error.lock() = Some(e);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "iotkv-db-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn put_get_delete() {
        let dir = tmpdir("pgd");
        let db = Db::open(&dir, Options::small()).unwrap();
        db.put(b"k1", b"v1").unwrap();
        db.put(b"k2", b"v2").unwrap();
        assert_eq!(db.get(b"k1").unwrap().unwrap().as_ref(), b"v1");
        db.put(b"k1", b"v1b").unwrap();
        assert_eq!(db.get(b"k1").unwrap().unwrap().as_ref(), b"v1b");
        db.delete(b"k1").unwrap();
        assert_eq!(db.get(b"k1").unwrap(), None);
        assert_eq!(db.get(b"k2").unwrap().unwrap().as_ref(), b"v2");
        assert_eq!(db.get(b"missing").unwrap(), None);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_key_rejected() {
        let dir = tmpdir("ek");
        let db = Db::open(&dir, Options::small()).unwrap();
        assert!(db.put(b"", b"v").is_err());
        assert!(db.delete(b"").is_err());
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batches_are_atomic_and_ordered() {
        let dir = tmpdir("batch");
        let db = Db::open(&dir, Options::small()).unwrap();
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.put(b"b", b"2");
        b.delete(b"a");
        db.write(b).unwrap();
        assert_eq!(
            db.get(b"a").unwrap(),
            None,
            "delete after put in batch wins"
        );
        assert_eq!(db.get(b"b").unwrap().unwrap().as_ref(), b"2");
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn survives_flush_and_compaction() {
        let dir = tmpdir("fc");
        let db = Db::open(&dir, Options::small()).unwrap();
        let n = 3000;
        for i in 0..n {
            db.put(
                format!("key-{i:06}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
        }
        let stats = db.stats();
        assert!(stats.flushes > 0, "small memtable must have flushed");
        for i in (0..n).step_by(97) {
            assert_eq!(
                db.get(format!("key-{i:06}").as_bytes()).unwrap().unwrap(),
                Bytes::from(format!("value-{i}")),
                "key {i}"
            );
        }
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_spans_memtable_and_tables() {
        let dir = tmpdir("scan");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..2000 {
            db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        // Overwrite a few in the (new) memtable.
        db.put(b"key-000100", b"fresh").unwrap();
        db.delete(b"key-000101").unwrap();

        let rows = db.scan(b"key-000099", b"key-000104", usize::MAX).unwrap();
        let keys: Vec<_> = rows
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        assert_eq!(
            keys,
            vec!["key-000099", "key-000100", "key-000102", "key-000103"]
        );
        assert_eq!(rows[1].1.as_ref(), b"fresh");

        // Limit honoured.
        let rows = db.scan(b"key-", b"key-999999", 5).unwrap();
        assert_eq!(rows.len(), 5);

        // Degenerate ranges.
        assert!(db.scan(b"z", b"a", 10).unwrap().is_empty());
        assert!(db.scan(b"a", b"z", 0).unwrap().is_empty());
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_iter_streams_snapshot_and_releases_it() {
        let dir = tmpdir("scaniter");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..2000 {
            db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        db.put(b"key-000100", b"fresh").unwrap();

        let mut it = db.scan_iter(b"key-000099", b"key-000103");
        let first = it.next().unwrap().unwrap();
        assert_eq!(first.0.as_ref(), b"key-000099");
        // A write after the iterator was opened is invisible to it.
        db.put(b"key-000102", b"late").unwrap();
        let rest: Vec<_> = it.map(|r| r.unwrap()).collect();
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[0].1.as_ref(), b"fresh");
        assert_eq!(rest[2].1.as_ref(), b"v", "snapshot shields the scan");
        // The snapshot registration is gone once the iterator drops.
        assert!(db.inner.snapshots.lock().is_empty());

        // Degenerate range: empty stream, still snapshot-clean.
        assert!(db.scan_iter(b"z", b"a").next().is_none());
        assert!(db.inner.snapshots.lock().is_empty());
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_replays_wal() {
        let dir = tmpdir("recover");
        {
            let db = Db::open(&dir, Options::small()).unwrap();
            db.put(b"durable", b"yes").unwrap();
            db.put(b"mutated", b"v1").unwrap();
            db.put(b"mutated", b"v2").unwrap();
            db.delete(b"durable2").unwrap();
            // No flush: data only in WAL + memtable.
        }
        let db = Db::open(&dir, Options::small()).unwrap();
        assert_eq!(db.get(b"durable").unwrap().unwrap().as_ref(), b"yes");
        assert_eq!(db.get(b"mutated").unwrap().unwrap().as_ref(), b"v2");
        assert_eq!(db.get(b"durable2").unwrap(), None);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_after_flush_uses_manifest() {
        let dir = tmpdir("recover2");
        {
            let db = Db::open(&dir, Options::small()).unwrap();
            for i in 0..2000 {
                db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
            }
            db.flush().unwrap();
            db.put(b"post-flush", b"tail").unwrap();
        }
        let db = Db::open(&dir, Options::small()).unwrap();
        assert_eq!(db.get(b"key-000000").unwrap().unwrap().as_ref(), b"v");
        assert_eq!(db.get(b"key-001999").unwrap().unwrap().as_ref(), b"v");
        assert_eq!(db.get(b"post-flush").unwrap().unwrap().as_ref(), b"tail");
        let rows = db.scan(b"key-", b"key-zzz", usize::MAX).unwrap();
        assert_eq!(rows.len(), 2000);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn deletes_survive_compaction() {
        let dir = tmpdir("delcompact");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..1000 {
            db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        for i in (0..1000).step_by(2) {
            db.delete(format!("key-{i:06}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        db.compact().unwrap();
        for i in 0..1000 {
            let got = db.get(format!("key-{i:06}").as_bytes()).unwrap();
            if i % 2 == 0 {
                assert!(got.is_none(), "key {i} should be deleted");
            } else {
                assert!(got.is_some(), "key {i} should exist");
            }
        }
        let rows = db.scan(b"key-", b"key-zzz", usize::MAX).unwrap();
        assert_eq!(rows.len(), 500);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_writers_group_commit() {
        let dir = tmpdir("conc");
        let mut opts = Options::small();
        opts.memtable_bytes = 1 << 20; // avoid rotation noise
        opts.background_compaction = true;
        let db = Arc::new(Db::open(&dir, opts).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        db.put(format!("t{t}-k{i:04}").as_bytes(), b"v").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.puts, 4000);
        assert!(
            stats.commit_groups < stats.commit_batches,
            "some batches were grouped: {} groups for {} batches",
            stats.commit_groups,
            stats.commit_batches
        );
        for t in 0..8 {
            for i in (0..500).step_by(50) {
                assert!(db
                    .get(format!("t{t}-k{i:04}").as_bytes())
                    .unwrap()
                    .is_some());
            }
        }
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn flush_races_writers_without_losing_acked_keys() {
        let dir = tmpdir("flushrace");
        let mut opts = Options::small();
        opts.background_compaction = true;
        let db = Arc::new(Db::open(&dir, opts).unwrap());
        let writers_done = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let db = Arc::clone(&db);
                let writers_done = Arc::clone(&writers_done);
                std::thread::spawn(move || {
                    for i in 0..400 {
                        db.put(format!("t{t}-k{i:04}").as_bytes(), &[t as u8; 64])
                            .unwrap();
                    }
                    // ordering: Relaxed — test-only completion count.
                    writers_done.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let flusher = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut flushes = 0;
                // ordering: Relaxed — test-only completion count.
                while writers_done.load(Ordering::Relaxed) < 4 {
                    db.flush().unwrap();
                    flushes += 1;
                }
                flushes
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        assert!(flusher.join().unwrap() > 0);
        for t in 0..4u8 {
            for i in 0..400 {
                let key = format!("t{t}-k{i:04}");
                let got = db.get(key.as_bytes()).unwrap();
                assert_eq!(got.as_deref(), Some(&[t; 64][..]), "acked key {key} lost");
            }
        }
        let rows = db.scan(b"t", b"u", usize::MAX).unwrap();
        assert_eq!(rows.len(), 1600);
        let stats = db.stats();
        assert_eq!(stats.commit_batches, 1600);
        assert!(stats.commit_groups <= stats.commit_batches);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn frozen_memtables_stay_under_the_cap() {
        let dir = tmpdir("frozencap");
        let mut opts = Options::small();
        opts.background_compaction = true;
        let db = Arc::new(Db::open(&dir, opts).unwrap());
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..1500 {
                        db.put(format!("t{t}-k{i:05}").as_bytes(), &[0u8; 512])
                            .unwrap();
                        let frozen = db.inner.imm.lock().len();
                        assert!(frozen <= MAX_FROZEN_MEMTABLES, "{frozen} frozen memtables");
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert!(db.stats().flushes > 0);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn write_stall_returns_background_error() {
        let dir = tmpdir("stallerr");
        let mut opts = Options::small();
        opts.background_compaction = true;
        opts.l0_stall_trigger = opts.l0_compaction_trigger;
        let db = Arc::new(Db::open(&dir, opts).unwrap());
        for t in 0..3 {
            for i in 0..20 {
                db.put(format!("k{t}-{i:03}").as_bytes(), &[1u8; 64])
                    .unwrap();
            }
            db.flush().unwrap();
        }
        assert_eq!(db.stats().level_shape[0], 3);
        // Corrupt the first data block of one L0 table in place: the next
        // L0 compaction fails and the background thread stops.
        let table = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "sst"))
            .unwrap();
        let mut data = std::fs::read(&table).unwrap();
        for b in &mut data[8..24] {
            *b ^= 0x5A;
        }
        std::fs::write(&table, &data).unwrap();

        // Each write fills the memtable, so the second freeze stalls while
        // the background thread is still flushing the first and has yet to
        // reach the failing compaction.
        let value = vec![2u8; 16 << 10];
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut i = 0u64;
                let err = loop {
                    if let Err(e) = db.put(format!("w-{i:08}").as_bytes(), &value) {
                        break e;
                    }
                    i += 1;
                };
                tx.send(err).unwrap();
            })
        };
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a write stalled behind a failed compaction must fail, not hang");
        assert!(matches!(err, Error::Corruption(_)), "{err}");
        writer.join().unwrap();
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn background_mode_converges() {
        let dir = tmpdir("bg");
        let mut opts = Options::small();
        opts.background_compaction = true;
        let db = Db::open(&dir, opts).unwrap();
        for i in 0..5000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 32])
                .unwrap();
        }
        // Wait for maintenance to settle.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.inner.maintenance_pending() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        for i in (0..5000).step_by(331) {
            assert!(db.get(format!("key-{i:06}").as_bytes()).unwrap().is_some());
        }
        let stats = db.stats();
        assert!(stats.flushes > 0);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn size_tiered_mode_works() {
        let dir = tmpdir("tiered");
        let mut opts = Options::small();
        opts.compaction = CompactionStyle::SizeTiered;
        let db = Db::open(&dir, opts).unwrap();
        for i in 0..4000 {
            db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert!(stats.compactions > 0, "tiered compactions ran");
        for i in (0..4000).step_by(173) {
            assert!(db.get(format!("key-{i:06}").as_bytes()).unwrap().is_some());
        }
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stats_reflect_activity() {
        let dir = tmpdir("stats");
        let db = Db::open(&dir, Options::small()).unwrap();
        db.put(b"a", b"1").unwrap();
        db.get(b"a").unwrap();
        db.get(b"b").unwrap();
        db.scan(b"a", b"z", 10).unwrap();
        db.delete(b"a").unwrap();
        let s = db.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.gets, 2);
        assert_eq!(s.scans, 1);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_is_idempotent() {
        let dir = tmpdir("reopen");
        for round in 0..3 {
            let db = Db::open(&dir, Options::small()).unwrap();
            db.put(format!("round-{round}").as_bytes(), b"x").unwrap();
            for prev in 0..=round {
                assert!(
                    db.get(format!("round-{prev}").as_bytes())
                        .unwrap()
                        .is_some(),
                    "round {prev} data visible at round {round}"
                );
            }
            drop(db);
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
