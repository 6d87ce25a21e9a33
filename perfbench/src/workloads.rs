//! The three workloads, each run as repeated fixed-size units, and the
//! traced variant that yields the per-layer numbers.
//!
//! Every workload uses the same cluster: `ClusterConfig::new` defaults —
//! 3 nodes, replication 3, `iotkv::Options::default()` (8 MiB memtable,
//! 32 MiB block cache per node, `SyncMode::None`, background compaction).
//! The load is a closed loop: at most 2 client threads, each waiting for
//! its reply before sending the next request, with no pacing.

use crate::history::{self, Loaded};
use crate::layers::LayerInputs;
use crate::probes::{self, GenShape, ProbeResult};
use crate::report::{dir_bytes, percentile, Samples};
use crate::trace::{self, TracedBackend};
use simkit::rng::derive_seed;
use simkit::stats::Summary;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcx_iot::backend::GatewayBackend;
use tpcx_iot::driver::{run_driver_with_telemetry, DriverConfig};
use tpcx_iot::pricing::PriceSheet;
use tpcx_iot::runner::{BenchmarkOutcome, GatewaySut, SystemUnderTest};
use tpcx_iot::telemetry::{ClusterCounters, EngineCounters, Phase, RunTelemetry};
use tpcx_iot::{BenchmarkConfig, BenchmarkRunner, NetBackend, Rules, KVP_SIZE};

pub const NODES: usize = 3;
pub const REPLICATION: u64 = 3;
/// Client threads of every workload, sized for a 2-core host.
pub const CLIENTS: usize = 2;
/// kvps per workload execution; a unit runs the protocol's four
/// executions. Fixed across commits: IoTps falls with compaction debt.
pub const SPEC_KVPS: u64 = 50_000;
pub const NET_KVPS: u64 = 65_536;
pub const NET_BATCH: usize = 64;
/// Measured and cache-warming queries per client on `history_query`.
pub const HISTORY_QUERIES: usize = 5_000;
pub const WARM_QUERIES: usize = 500;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SpecIngest,
    NetworkedBatched,
    HistoryQuery,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SpecIngest,
        Workload::NetworkedBatched,
        Workload::HistoryQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecIngest => "spec_ingest",
            Workload::NetworkedBatched => "networked_batched",
            Workload::HistoryQuery => "history_query",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator the workload's first client runs, for the probes.
    fn gen_shape(self, seed: u64) -> GenShape {
        match self {
            Workload::HistoryQuery => GenShape {
                seed: derive_seed(seed, 0x4C_0000),
                epoch_ms: history::EPOCH_MS,
                sweep_ms: history::SWEEP_MS,
                thread: 0,
                threads: 200 / history::SENSORS_PER_LOADER,
            },
            _ => {
                let driver = DriverConfig::new(0, 0);
                GenShape {
                    seed: derive_seed(seed, 0xD0_0000),
                    epoch_ms: driver.epoch_ms,
                    sweep_ms: driver.sweep_ms,
                    thread: 0,
                    threads: CLIENTS,
                }
            }
        }
    }
}

/// Fresh per-unit data directories under one root, each removed when its
/// guard drops.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

pub struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Scratch {
    pub fn new(root: PathBuf) -> Scratch {
        Scratch { root, next: 0 }
    }

    /// A new empty directory. First commits the filesystem journal, so
    /// the deletes of the previous unit's data (hundreds of MB) are not
    /// still in flight while the next unit sets up and measures.
    fn fresh(&mut self) -> Result<DirGuard, String> {
        let dir = self.root.join(format!("u{}", self.next));
        self.next += 1;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::File::open(&self.root)
            .and_then(|root| root.sync_all())
            .map_err(|e| format!("{}: {e}", self.root.display()))?;
        Ok(DirGuard(dir))
    }
}

/// What one unit contributes to a run.
#[derive(Default)]
pub struct Unit {
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Samples behind each insert and query percentile, and the
    /// percentile each `*_tail_us` metric reports.
    pub insert_n: u64,
    pub query_n: u64,
    pub insert_tail: Option<&'static str>,
    pub query_tail: Option<&'static str>,
}

/// Candidate tail percentiles, highest first, with the sample count that
/// leaves at least ten samples beyond each.
const TAIL_PERCENTILES: [(&str, f64, u64); 3] = [
    ("p999", 0.999, 10_000),
    ("p99", 0.99, 1_000),
    ("p95", 0.95, 200),
];

#[derive(Clone, Copy)]
enum Op {
    Insert,
    Query,
}

impl Unit {
    pub fn absorb(&mut self, other: Unit) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.insert_n += other.insert_n;
        self.query_n += other.query_n;
        self.insert_tail = self.insert_tail.or(other.insert_tail);
        self.query_tail = self.query_tail.or(other.query_tail);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records the median and the tail (the highest percentile with at
    /// least ten samples beyond it) of `n` latency samples, in µs.
    /// `at(label, q)` gives the nanoseconds at a percentile.
    fn latency(&mut self, op: Op, n: u64, at: impl Fn(&str, f64) -> u64) {
        if n == 0 {
            return;
        }
        let (p50, tail) = match op {
            Op::Insert => ("insert_p50_us", "insert_tail_us"),
            Op::Query => ("query_p50_us", "query_tail_us"),
        };
        self.samples.add(p50, at("p50", 0.5) as f64 / 1e3);
        let label = TAIL_PERCENTILES
            .iter()
            .find(|(_, _, min)| n >= *min)
            .map(|&(label, q, _)| {
                self.samples.add(tail, at(label, q) as f64 / 1e3);
                label
            });
        match op {
            Op::Insert => {
                self.insert_n += n;
                self.insert_tail = self.insert_tail.or(label);
            }
            Op::Query => {
                self.query_n += n;
                self.query_tail = self.query_tail.or(label);
            }
        }
    }

    /// [`Unit::latency`] from a telemetry histogram summary.
    fn summary_latency(&mut self, op: Op, s: &Summary) {
        self.latency(op, s.count, |label, _| match label {
            "p50" => s.p50,
            "p95" => s.p95,
            "p99" => s.p99,
            _ => s.p999,
        });
    }

    /// [`Unit::latency`] from exact samples.
    fn exact_latency(&mut self, op: Op, mut ns: Vec<u64>) {
        ns.sort_unstable();
        self.latency(op, ns.len() as u64, |_, q| percentile(&ns, q));
    }
}

/// A unit's result plus, when traced, what the per-layer metrics need.
pub struct UnitRun {
    pub unit: Unit,
    /// The workload's throughput: IoTps, or queries/s on `history_query`.
    pub throughput: f64,
    pub layers: Option<LayerInputs>,
}

pub fn run_unit(
    workload: Workload,
    scratch: &mut Scratch,
    seed: u64,
    traced: bool,
) -> Result<UnitRun, String> {
    trace::drain();
    match (workload, traced) {
        (Workload::SpecIngest, _) => spec_unit(scratch, seed, traced),
        (Workload::NetworkedBatched, false) => networked_unit(scratch, seed),
        (Workload::NetworkedBatched, true) => networked_trace_unit(scratch, seed, true),
        (Workload::HistoryQuery, _) => history_unit(scratch, seed, traced),
    }
}

/// The untraced counterpart of a traced unit, for `trace.overhead`.
pub fn run_reference_unit(
    workload: Workload,
    scratch: &mut Scratch,
    seed: u64,
) -> Result<UnitRun, String> {
    match workload {
        Workload::NetworkedBatched => networked_trace_unit(scratch, seed, false),
        _ => run_unit(workload, scratch, seed, false),
    }
}

pub fn probe(workload: Workload, scratch: &mut Scratch, seed: u64) -> Result<ProbeResult, String> {
    let dir = scratch.fresh()?;
    probes::run(&dir.0, workload.gen_shape(seed))
}

fn start_cluster(dir: &Path) -> Result<gateway::Cluster, String> {
    gateway::Cluster::start(gateway::ClusterConfig::new(dir.join("cluster"), NODES))
        .map_err(|e| format!("cluster start: {e}"))
}

/// Cluster starts timed per ingest unit: their set-up is about a
/// millisecond of file creation, too short for one sample to be steady.
const SETUP_STARTS: usize = 10;

/// Times `SETUP_STARTS - 1` throw-away cluster starts, then starts the
/// unit's cluster; returns it with every start's seconds.
fn timed_start(dir: &Path) -> Result<(gateway::Cluster, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUP_STARTS);
    for i in 1..SETUP_STARTS {
        let throwaway = dir.join(format!("setup-{i}"));
        let started = Instant::now();
        let cluster = start_cluster(&throwaway)?;
        seconds.push(started.elapsed().as_secs_f64());
        drop(cluster);
        let _ = std::fs::remove_dir_all(&throwaway);
    }
    let started = Instant::now();
    let cluster = start_cluster(dir)?;
    seconds.push(started.elapsed().as_secs_f64());
    Ok((cluster, seconds))
}

fn runner(seed: u64, kvps: u64, batch: usize) -> BenchmarkRunner {
    let mut config = BenchmarkConfig::new(1, kvps);
    config.threads_per_driver = CLIENTS;
    config.batch_size = batch;
    config.seed = seed;
    // Laptop scale: the 1800 s / 20 kvps/s/sensor / 200 rows floors
    // cannot hold in seconds-long executions. The degraded-run verdict
    // (acked-data loss, starvation, routing) still decides VALID.
    config.rules = Rules {
        min_elapsed_secs: 0.0,
        min_per_sensor_rate: 0.0,
        min_rows_per_query: 0.0,
    };
    BenchmarkRunner::new(config, PriceSheet::sample_cluster(NODES as u32))
}

/// Named counters of the cluster and its engines. Subtracting two
/// snapshots gives the work done in between; `table_count` is a gauge.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub cluster: ClusterTotals,
    pub engine: EngineCounters,
}

#[derive(Clone, Copy, Default)]
pub struct ClusterTotals {
    pub puts: u64,
    pub replica_writes: u64,
    pub batched_puts: u64,
    pub put_batches: u64,
    pub rows_streamed: u64,
    pub hinted_writes: u64,
    pub unavailable_errors: u64,
    pub scan_retries: u64,
}

impl Counters {
    fn of(cluster: &gateway::Cluster) -> Counters {
        let s = cluster.stats();
        let engine = EngineCounters::from(s.engine);
        let c = ClusterCounters::from(&s);
        Counters {
            cluster: ClusterTotals {
                puts: c.puts,
                replica_writes: c.replica_writes,
                batched_puts: c.batched_puts,
                put_batches: c.put_batches,
                rows_streamed: c.rows_streamed,
                hinted_writes: c.hinted_writes,
                unavailable_errors: c.unavailable_errors,
                scan_retries: c.scan_retries,
            },
            engine,
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        let (a, b) = (&self.cluster, &before.cluster);
        let (e, f) = (&self.engine, &before.engine);
        Counters {
            cluster: ClusterTotals {
                puts: a.puts - b.puts,
                replica_writes: a.replica_writes - b.replica_writes,
                batched_puts: a.batched_puts - b.batched_puts,
                put_batches: a.put_batches - b.put_batches,
                rows_streamed: a.rows_streamed - b.rows_streamed,
                hinted_writes: a.hinted_writes - b.hinted_writes,
                unavailable_errors: a.unavailable_errors - b.unavailable_errors,
                scan_retries: a.scan_retries - b.scan_retries,
            },
            engine: EngineCounters {
                wal_syncs: e.wal_syncs - f.wal_syncs,
                flushes: e.flushes - f.flushes,
                compactions: e.compactions - f.compactions,
                bytes_flushed: e.bytes_flushed - f.bytes_flushed,
                bytes_compacted: e.bytes_compacted - f.bytes_compacted,
                cache_hits: e.cache_hits - f.cache_hits,
                cache_misses: e.cache_misses - f.cache_misses,
                commit_groups: e.commit_groups - f.commit_groups,
                commit_batches: e.commit_batches - f.commit_batches,
                stalls: e.stalls - f.stalls,
                table_count: e.table_count,
            },
        }
    }
}

/// The benchmark's `SystemUnderTest` wrapper around `GatewaySut`: hands
/// out the (optionally traced) backend, and samples disk usage and
/// counters just before each cleanup, which it times.
struct BenchSut {
    inner: GatewaySut,
    dir: PathBuf,
    traced: bool,
    /// `(on-disk bytes, counters)` sampled before each cleanup.
    before_cleanup: Vec<(u64, Counters)>,
    cleanup_s: Vec<f64>,
}

impl BenchSut {
    fn new(cluster: gateway::Cluster, dir: &Path, traced: bool) -> BenchSut {
        BenchSut {
            inner: GatewaySut::new(cluster),
            dir: dir.to_path_buf(),
            traced,
            before_cleanup: Vec::new(),
            cleanup_s: Vec::new(),
        }
    }
}

impl SystemUnderTest for BenchSut {
    fn backend(&self) -> Arc<dyn GatewayBackend> {
        let backend = self.inner.backend();
        if self.traced {
            Arc::new(TracedBackend::new(backend, &trace::CLUSTER))
        } else {
            backend
        }
    }

    fn cleanup(&mut self) -> Result<(), String> {
        let counters = Counters::of(&self.inner.shared().read());
        self.before_cleanup.push((dir_bytes(&self.dir), counters));
        let started = Instant::now();
        let result = self.inner.cleanup();
        self.cleanup_s.push(started.elapsed().as_secs_f64());
        result
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn engine_counters(&self) -> Option<EngineCounters> {
        self.inner.engine_counters()
    }

    fn cluster_counters(&self) -> Option<ClusterCounters> {
        self.inner.cluster_counters()
    }
}

fn space_amp(disk_bytes: u64, acked: u64) -> f64 {
    disk_bytes as f64 / (acked as f64 * KVP_SIZE as f64 * REPLICATION as f64)
}

/// Output checks and end-to-end samples of one run of the benchmark
/// protocol. Returns the kvps acknowledged in each iteration.
fn protocol_samples(
    outcome: &BenchmarkOutcome,
    kvps: u64,
    batch: usize,
    unit: &mut Unit,
) -> Vec<u64> {
    unit.check(outcome.registry.verdict == "VALID", || {
        format!(
            "verdict {}: {:?}",
            outcome.registry.verdict, outcome.registry.verdict_reasons
        )
    });
    for c in &outcome.prerequisite_checks {
        unit.check(c.passed, || format!("{}: {}", c.name, c.detail));
    }
    unit.check(outcome.iterations.len() == 2, || {
        format!("{} of 2 iterations completed", outcome.iterations.len())
    });
    match &outcome.metrics {
        Some(m) => unit.samples.add("iotps", m.iotps),
        None => unit.errors.push("no IoTps derived".into()),
    }
    let mut acked = Vec::new();
    for it in &outcome.iterations {
        unit.check(it.data_check.passed, || {
            format!("data check: {}", it.data_check.detail)
        });
        // The spec's 5 queries per 10k readings leave only a few dozen
        // queries per execution, so query latency is taken from all four
        // executions; insert latency from the measured ones.
        for phase in [&it.warmup, &it.measured] {
            let t = &phase.telemetry;
            unit.attempted += t.ingest.count + t.batch.count + t.query.count + t.failed.count;
            unit.failed += t.failed.count;
            unit.check(phase.ingested == kvps && phase.insert_failures == 0, || {
                format!("execution acked {} of {kvps} kvps", phase.ingested)
            });
            unit.summary_latency(Op::Query, &t.query);
        }
        let t = &it.measured.telemetry;
        unit.summary_latency(Op::Insert, if batch > 1 { &t.batch } else { &t.ingest });
        unit.samples.add(
            "queries_per_s",
            it.measured.queries as f64 / it.measured.elapsed_secs,
        );
        acked.push(it.warmup.ingested + it.measured.ingested);
    }
    acked
}

fn spec_unit(scratch: &mut Scratch, seed: u64, traced: bool) -> Result<UnitRun, String> {
    let dir = scratch.fresh()?;
    let (cluster, setup_s) = timed_start(&dir.0)?;
    let mut sut = BenchSut::new(cluster, &dir.0, traced);
    let outcome = runner(seed, SPEC_KVPS, 1).run(&mut sut);
    let mut unit = Unit::default();
    for s in setup_s {
        unit.samples.add("setup_s", s);
    }
    let acked = protocol_samples(&outcome, SPEC_KVPS, 1, &mut unit);
    for (acked, (disk, counters)) in acked.iter().zip(&sut.before_cleanup) {
        unit.check(*acked == counters.cluster.puts, || {
            format!(
                "acked {acked} kvps, cluster counted {} puts",
                counters.cluster.puts
            )
        });
        unit.samples.add("space_amp", space_amp(*disk, *acked));
    }
    let throughput = outcome.metrics.as_ref().map_or(0.0, |m| m.iotps);
    let layers = traced.then(|| {
        let n = outcome.iterations.len().max(1) as f64;
        let mean = |f: fn(&tpcx_iot::runner::IterationOutcome) -> f64| {
            outcome.iterations.iter().map(f).sum::<f64>() / n
        };
        // The second iteration's counters: cleanup resets them, so they
        // cover exactly its warm-up and measured executions.
        let counters = sut
            .before_cleanup
            .last()
            .map(|(_, c)| *c)
            .unwrap_or_default();
        LayerInputs {
            spans: trace::drain(),
            driver_kvps: 4 * SPEC_KVPS,
            insert_retries: outcome
                .iterations
                .iter()
                .map(|it| it.resilience.insert_retries)
                .sum(),
            query_retries: outcome
                .iterations
                .iter()
                .map(|it| it.resilience.query_retries)
                .sum(),
            write: counters,
            read: counters,
            runner: [
                mean(|it| it.warmup.elapsed_secs),
                mean(|it| it.measured.elapsed_secs),
                sut.cleanup_s.iter().sum::<f64>() / n,
            ],
        }
    });
    Ok(UnitRun {
        unit,
        throughput,
        layers,
    })
}

/// Records the on-disk bytes of a cluster's data directory as they stood
/// just before each system cleanup, for a run whose SUT the benchmark
/// cannot wrap (`run_networked` owns it). Each node directory gets a
/// marker file; cleanup deletes the node directories, so a missing
/// marker means a cleanup happened and the last fully marked sample was
/// the pre-cleanup state.
struct CleanupSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<u64>>,
}

const MARKER: &str = "perfbench.mark";

impl CleanupSampler {
    fn start(dir: PathBuf) -> CleanupSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let nodes: Vec<PathBuf> = (0..NODES).map(|i| dir.join(format!("node-{i}"))).collect();
            let marked = || nodes.iter().all(|n| n.join(MARKER).exists());
            let (mut pre_cleanup, mut last) = (Vec::new(), None);
            loop {
                // Ordering: Relaxed — a stop latch; the join publishes the result.
                let stopping = flag.load(Ordering::Relaxed);
                if marked() {
                    let bytes = dir_bytes(&dir);
                    if marked() {
                        last = Some(bytes);
                    }
                } else {
                    if let Some(bytes) = last.take() {
                        pre_cleanup.push(bytes);
                    }
                    let fresh = nodes.iter().all(|n| n.is_dir() && !n.join(MARKER).exists());
                    if fresh {
                        for n in &nodes {
                            let _ = std::fs::write(n.join(MARKER), b"");
                        }
                    }
                }
                if stopping {
                    return pre_cleanup;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        CleanupSampler { stop, handle }
    }

    fn finish(self) -> Vec<u64> {
        // Ordering: Relaxed — see the load in the sampler loop.
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

fn networked_unit(scratch: &mut Scratch, seed: u64) -> Result<UnitRun, String> {
    let dir = scratch.fresh()?;
    let (cluster, setup_s) = timed_start(&dir.0)?;
    let (addr, agent) = tpcx_iot::spawn_local_agent()?;
    let sampler = CleanupSampler::start(dir.0.join("cluster"));
    let fleet = tpcx_iot::FleetConfig::new(vec![addr]);
    let outcome = tpcx_iot::run_networked(&runner(seed, NET_KVPS, NET_BATCH), cluster, &fleet);
    let pre_cleanup = sampler.finish();
    let outcome = outcome?;
    agent
        .join()
        .map_err(|_| "agent panicked".to_string())?
        .map_err(|e| format!("agent: {e}"))?;
    let mut unit = Unit::default();
    for s in setup_s {
        unit.samples.add("setup_s", s);
    }
    let acked = protocol_samples(&outcome, NET_KVPS, NET_BATCH, &mut unit);
    unit.check(pre_cleanup.len() == acked.len(), || {
        format!(
            "sampled {} of {} pre-cleanup states",
            pre_cleanup.len(),
            acked.len()
        )
    });
    for (acked, disk) in acked.iter().zip(&pre_cleanup) {
        // The data check passed ⇒ the cluster counted 2 × NET_KVPS puts.
        unit.check(*acked == 2 * NET_KVPS, || {
            format!("acked {acked} of {} kvps", 2 * NET_KVPS)
        });
        unit.samples.add("space_amp", space_amp(*disk, *acked));
    }
    let throughput = outcome.metrics.as_ref().map_or(0.0, |m| m.iotps);
    Ok(UnitRun {
        unit,
        throughput,
        layers: None,
    })
}

/// The networked traced harness: the agent's backend cannot be decorated,
/// so the benchmark drives `run_driver_with_telemetry` itself, first
/// in-process on the cluster, then (after a cleanup) over a `NetBackend`
/// to a `GatewayServer` on the same cluster — same threads, batch and
/// seed. `traced = false` gives the untraced reference.
fn networked_trace_unit(scratch: &mut Scratch, seed: u64, traced: bool) -> Result<UnitRun, String> {
    let dir = scratch.fresh()?;
    let cluster = start_cluster(&dir.0)?;
    let mut sut = BenchSut::new(cluster, &dir.0, traced);
    let mut unit = Unit::default();
    let drive = |backend: Arc<dyn GatewayBackend>, unit: &mut Unit| {
        let mut config = DriverConfig::new(0, NET_KVPS);
        config.threads = CLIENTS;
        config.batch_size = NET_BATCH;
        config.seed = seed;
        let telemetry = RunTelemetry::new(Phase::Measured, 1_000_000_000);
        let report = run_driver_with_telemetry(
            &config,
            backend,
            Arc::new(ycsb::measurement::Measurements::new()),
            Some(&telemetry),
        );
        let t = telemetry.snapshot();
        unit.attempted += t.batch.count + t.query.count + t.failed.count;
        unit.failed += t.failed.count;
        unit.check(
            report.ingested == NET_KVPS && report.query_failures == 0,
            || format!("driver acked {} of {NET_KVPS} kvps", report.ingested),
        );
        report
    };
    let local = drive(sut.backend(), &mut unit);
    sut.cleanup()?;
    let mut server =
        gateway::GatewayServer::start(sut.inner.shared(), "127.0.0.1:0", Duration::from_secs(30))
            .map_err(|e| format!("gateway server: {e}"))?;
    let net: Arc<dyn GatewayBackend> = Arc::new(NetBackend::connect(
        &server.local_addr().to_string(),
        Duration::from_secs(30),
    )?);
    let backend = if traced {
        Arc::new(TracedBackend::new(net, &trace::NET))
    } else {
        net
    };
    let remote = drive(backend, &mut unit);
    sut.cleanup()?;
    server.stop();
    for (_, c) in &sut.before_cleanup {
        unit.check(c.cluster.puts == NET_KVPS, || {
            format!("cluster counted {} of {NET_KVPS} puts", c.cluster.puts)
        });
    }
    let remote_counters = sut
        .before_cleanup
        .last()
        .map(|(_, c)| *c)
        .unwrap_or_default();
    let throughput = remote.ingested as f64 / remote.elapsed_secs;
    let layers = traced.then(|| LayerInputs {
        spans: trace::drain(),
        driver_kvps: local.ingested + remote.ingested,
        insert_retries: local.insert_retries + remote.insert_retries,
        query_retries: local.query_retries + remote.query_retries,
        write: remote_counters,
        read: remote_counters,
        runner: [0.0; 3],
    });
    Ok(UnitRun {
        unit,
        throughput,
        layers,
    })
}

fn history_unit(scratch: &mut Scratch, seed: u64, traced: bool) -> Result<UnitRun, String> {
    let dir = scratch.fresh()?;
    let started = Instant::now();
    let cluster = Arc::new(start_cluster(&dir.0)?);
    let plain: Arc<dyn GatewayBackend> = Arc::clone(&cluster) as Arc<dyn GatewayBackend>;
    let backend: Arc<dyn GatewayBackend> = if traced {
        Arc::new(TracedBackend::new(plain, &trace::CLUSTER))
    } else {
        plain
    };
    let mut loaded: Loaded = history::preload(&backend, seed, history::LOADERS, traced)?;
    cluster.flush_all().map_err(|e| format!("flush: {e}"))?;
    history::settle(&cluster, &dir.0)?;
    let write = Counters::of(&cluster);
    let disk = dir_bytes(&dir.0);
    let load_spans = trace::drain();
    let warm = history::query_burst(
        &backend,
        &loaded,
        derive_seed(seed, 0x3A_0000),
        CLIENTS,
        WARM_QUERIES,
        traced,
    );
    let setup_s = started.elapsed().as_secs_f64();
    trace::drain();
    let before = Counters::of(&cluster);
    let burst = history::query_burst(&backend, &loaded, seed, CLIENTS, HISTORY_QUERIES, traced);
    let read = Counters::of(&cluster).since(&before);

    let mut unit = Unit::default();
    unit.samples.add("setup_s", setup_s);
    unit.samples
        .add("iotps", loaded.kvps as f64 / loaded.elapsed_s);
    unit.samples.add("space_amp", space_amp(disk, loaded.kvps));
    unit.check(
        loaded.kvps == history::history_kvps(history::LOADERS),
        || format!("loaded {} kvps", loaded.kvps),
    );
    unit.check(write.cluster.puts == loaded.kvps, || {
        format!(
            "loaded {} kvps, cluster counted {} puts",
            loaded.kvps, write.cluster.puts
        )
    });
    unit.attempted += loaded.batch_ns.len() as u64;
    unit.exact_latency(Op::Insert, std::mem::take(&mut loaded.batch_ns));
    let queries_per_s = burst.latency_ns.len() as f64 / burst.elapsed_s;
    unit.samples.add("queries_per_s", queries_per_s);
    for b in [&warm, &burst] {
        unit.attempted += b.latency_ns.len() as u64;
        unit.failed += b.failed;
        unit.errors.extend(b.errors.iter().take(5).cloned());
    }
    unit.exact_latency(Op::Query, burst.latency_ns);
    let layers = traced.then(|| {
        let mut spans = load_spans;
        spans.extend(trace::drain());
        LayerInputs {
            spans,
            driver_kvps: 0,
            insert_retries: 0,
            query_retries: 0,
            write,
            read,
            runner: [0.0; 3],
        }
    });
    Ok(UnitRun {
        unit,
        throughput: queries_per_s,
        layers,
    })
}
