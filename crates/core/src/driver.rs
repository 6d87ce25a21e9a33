//! One TPCx-IoT driver instance — one simulated power substation.
//!
//! The instance spawns `threads` client threads; each owns a disjoint
//! slice of the substation's 200 sensors and ingests its share of the
//! instance's kvp quota at full speed (the benchmark is a throughput
//! test — there is no pacing). Every 10,000/`queries_per_10k` readings a
//! thread executes one randomly instantiated dashboard query against the
//! backend, concurrently with everyone's ingestion, exactly as the kit
//! interleaves reads with writes.

use crate::backend::GatewayBackend;
use crate::datagen::ReadingGenerator;
use crate::query::{execute_with_retry, QuerySpec};
use crate::retry::{with_retry, RetryPolicy};
use crate::sensors::substation_key;
use crate::telemetry::RunTelemetry;
use simkit::rng::{derive_seed, Stream};
use simkit::stats::Moments;
use std::sync::Arc;
use std::time::Instant;
use ycsb::measurement::{Measurements, OpKind};

/// Configuration of one driver instance.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Which substation this instance simulates (0-based).
    pub substation_index: usize,
    /// kvps this instance must ingest (its `KVP(i)` share).
    pub kvps: u64,
    /// Client threads (the kit spawns 10 per instance).
    pub threads: usize,
    /// Root seed (per-thread streams derive from it).
    pub seed: u64,
    /// Virtual acquisition epoch (POSIX ms).
    pub epoch_ms: u64,
    /// Virtual ms between two readings of the same sensor.
    pub sweep_ms: u64,
    /// Queries per 10,000 ingested readings (spec: 5).
    pub queries_per_10k: u64,
    /// Retry policy for inserts and queries (transient backend failures
    /// are retried with backoff; permanent ones fail immediately).
    pub retry: RetryPolicy,
    /// Readings buffered per thread before flushing as one backend batch.
    /// 1 (the default) keeps the classic per-kvp ingest path; larger
    /// values flush on size and at every query boundary, so queries still
    /// see every reading generated before them.
    pub batch_size: usize,
}

impl DriverConfig {
    pub fn new(substation_index: usize, kvps: u64) -> DriverConfig {
        DriverConfig {
            substation_index,
            kvps,
            threads: 10,
            seed: 0x1077,
            epoch_ms: 1_700_000_000_000,
            sweep_ms: 10,
            queries_per_10k: 5,
            retry: RetryPolicy::DEFAULT,
            batch_size: 1,
        }
    }
}

/// What one driver instance reports after running.
#[derive(Clone, Debug)]
pub struct DriverReport {
    pub substation: String,
    pub ingested: u64,
    pub insert_failures: u64,
    /// Insert retries that eventually resolved (or exhausted the policy).
    pub insert_retries: u64,
    pub queries_executed: u64,
    pub query_failures: u64,
    pub query_retries: u64,
    /// Readings aggregated per query.
    pub rows_per_query: Moments,
    pub elapsed_secs: f64,
}

/// Runs one driver instance to completion (blocking).
///
/// Latencies land in `measurements` (`Insert` for ingestion, `Scan` for
/// queries) so many instances can share one sink.
pub fn run_driver(
    config: &DriverConfig,
    backend: Arc<dyn GatewayBackend>,
    measurements: Arc<Measurements>,
) -> DriverReport {
    run_driver_with_telemetry(config, backend, measurements, None)
}

/// [`run_driver`] with an optional telemetry sink. Each thread records
/// into a private [`ThreadRecorder`](crate::telemetry::ThreadRecorder)
/// (no cross-thread contention on the hot path) and folds it into
/// `telemetry` once, when its quota is done.
pub fn run_driver_with_telemetry(
    config: &DriverConfig,
    backend: Arc<dyn GatewayBackend>,
    measurements: Arc<Measurements>,
    telemetry: Option<&RunTelemetry>,
) -> DriverReport {
    // lint:allow(panic-reachability) configuration invariant, not a
    // runtime hazard: the default is 10, the bench bins set it from
    // validated flags, and `execute_phase` rejects a wire spec with
    // zero threads before this call — so the assert only fires on a
    // programming error in a caller, where loud beats silent.
    assert!(config.threads > 0, "driver needs at least one thread");
    let substation = substation_key(config.substation_index);
    let started = Instant::now();

    let threads = config.threads.min(config.kvps.max(1) as usize);
    let per_thread = config.kvps / threads as u64;
    let remainder = config.kvps % threads as u64;
    let query_interval = 10_000u64
        .checked_div(config.queries_per_10k)
        .unwrap_or(u64::MAX);

    struct ThreadOutcome {
        ingested: u64,
        insert_failures: u64,
        insert_retries: u64,
        queries: u64,
        query_failures: u64,
        query_retries: u64,
        rows: Moments,
    }

    let outcomes: Vec<ThreadOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let backend = Arc::clone(&backend);
            let measurements = Arc::clone(&measurements);
            let substation = substation.clone();
            let quota = per_thread + if (t as u64) < remainder { 1 } else { 0 };
            let gen_seed = derive_seed(config.seed, 0xD0_0000 + t as u64);
            let query_seed = derive_seed(config.seed, 0x9E_0000 + t as u64);
            let retry_seed = derive_seed(config.seed, 0xB0_0000 + t as u64);
            handles.push(scope.spawn(move || {
                let mut gen = ReadingGenerator::for_thread(
                    substation.clone(),
                    gen_seed,
                    config.epoch_ms,
                    config.sweep_ms,
                    t,
                    threads,
                );
                let sensor_keys = gen.sensor_keys();
                let mut query_rng = Stream::new(query_seed);
                let mut retry_rng = Stream::new(retry_seed);
                let mut out = ThreadOutcome {
                    ingested: 0,
                    insert_failures: 0,
                    insert_retries: 0,
                    queries: 0,
                    query_failures: 0,
                    query_retries: 0,
                    rows: Moments::new(),
                };
                let mut recorder = telemetry.map(|t| t.recorder());
                let mut since_query = 0u64;
                let batch_size = config.batch_size.max(1);
                let mut buf: Vec<(bytes::Bytes, bytes::Bytes)> = Vec::with_capacity(batch_size);
                // Flushes the write buffer as one backend op: a plain
                // insert at batch size 1, one batch otherwise. The op is
                // the retry and acknowledgement unit: an error means
                // nothing in it was acked, so all of it counts as failed.
                let flush = |buf: &mut Vec<(bytes::Bytes, bytes::Bytes)>,
                             retry_rng: &mut Stream,
                             recorder: &mut Option<crate::telemetry::ThreadRecorder>,
                             out: &mut ThreadOutcome| {
                    if buf.is_empty() {
                        return;
                    }
                    let fill = buf.len() as u64;
                    let op_start = Instant::now();
                    let attempt = with_retry(&config.retry, retry_rng, || {
                        if batch_size == 1 {
                            backend.insert(&buf[0].0, &buf[0].1)
                        } else {
                            backend.insert_batch(buf)
                        }
                    });
                    out.insert_retries += attempt.retries;
                    let latency = op_start.elapsed().as_nanos() as u64;
                    match attempt.result {
                        Ok(()) => {
                            measurements.record_ok(OpKind::Insert, latency);
                            if let (Some(rec), Some(t)) = (recorder.as_mut(), telemetry) {
                                if batch_size == 1 {
                                    rec.record_ingest(t.now_nanos(), latency, attempt.retries);
                                } else {
                                    rec.record_batch(t.now_nanos(), latency, fill, attempt.retries);
                                }
                            }
                            out.ingested += fill;
                        }
                        Err(_) => {
                            measurements.record_failure(OpKind::Insert, latency);
                            if let Some(rec) = recorder.as_mut() {
                                rec.record_failed(latency);
                            }
                            out.insert_failures += fill;
                        }
                    }
                    buf.clear();
                };
                for _ in 0..quota {
                    buf.push(gen.next_kvp());
                    if buf.len() >= batch_size {
                        flush(&mut buf, &mut retry_rng, &mut recorder, &mut out);
                    }
                    since_query += 1;
                    if since_query >= query_interval {
                        since_query = 0;
                        // Queries must see every reading generated so far.
                        flush(&mut buf, &mut retry_rng, &mut recorder, &mut out);
                        let spec = QuerySpec::generate(
                            &mut query_rng,
                            &substation,
                            &sensor_keys,
                            gen.now_ms(),
                        );
                        let q_start = Instant::now();
                        // Per-interval retry: a transient scan fault
                        // re-streams one 5 s window inside the query
                        // instead of re-running both windows.
                        let result = execute_with_retry(
                            backend.as_ref(),
                            &spec,
                            &config.retry,
                            &mut retry_rng,
                        );
                        let latency = q_start.elapsed().as_nanos() as u64;
                        match result {
                            Ok(outcome) => {
                                out.query_retries += outcome.retries;
                                measurements.record_ok(OpKind::Scan, latency);
                                if let (Some(rec), Some(t)) = (recorder.as_mut(), telemetry) {
                                    let now = t.now_nanos();
                                    rec.record_query(now, latency, outcome.retries);
                                    rec.record_scan(now, latency, outcome.rows_read);
                                }
                                out.rows.record(outcome.rows_read as f64);
                                out.queries += 1;
                            }
                            Err(_) => {
                                measurements.record_failure(OpKind::Scan, latency);
                                if let Some(rec) = recorder.as_mut() {
                                    rec.record_failed(latency);
                                }
                                out.query_failures += 1;
                            }
                        }
                    }
                }
                flush(&mut buf, &mut retry_rng, &mut recorder, &mut out);
                if let (Some(rec), Some(t)) = (recorder.as_ref(), telemetry) {
                    t.absorb(rec);
                }
                out
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut report = DriverReport {
        substation,
        ingested: 0,
        insert_failures: 0,
        insert_retries: 0,
        queries_executed: 0,
        query_failures: 0,
        query_retries: 0,
        rows_per_query: Moments::new(),
        elapsed_secs: started.elapsed().as_secs_f64(),
    };
    for o in outcomes {
        report.ingested += o.ingested;
        report.insert_failures += o.insert_failures;
        report.insert_retries += o.insert_retries;
        report.queries_executed += o.queries;
        report.query_failures += o.query_failures;
        report.query_retries += o.query_retries;
        report.rows_per_query = merge_moments(report.rows_per_query, o.rows);
    }
    report
}

/// Merges two Welford accumulators (Chan et al. parallel combination).
fn merge_moments(a: Moments, b: Moments) -> Moments {
    if a.count() == 0 {
        return b;
    }
    if b.count() == 0 {
        return a;
    }
    // Rebuild via sufficient statistics.
    let n = a.count() + b.count();
    let mean = (a.mean() * a.count() as f64 + b.mean() * b.count() as f64) / n as f64;
    let delta = b.mean() - a.mean();
    let m2 = a.variance() * a.count() as f64
        + b.variance() * b.count() as f64
        + delta * delta * (a.count() as f64 * b.count() as f64) / n as f64;
    let mut merged = Moments::new();
    merged.restore(n, mean, m2, a.min().min(b.min()), a.max().max(b.max()));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn driver_ingests_exact_quota_and_queries_at_spec_rate() {
        let backend = Arc::new(MemBackend::new());
        let measurements = Arc::new(Measurements::new());
        let mut config = DriverConfig::new(0, 20_000);
        config.threads = 4;
        let report = run_driver(&config, backend.clone(), measurements.clone());
        assert_eq!(report.ingested, 20_000);
        assert_eq!(report.insert_failures, 0);
        assert_eq!(backend.ingested_count(), 20_000);
        // 5 queries per 10k readings: every 2000 readings per thread;
        // 4 threads × 5000 readings → 2 queries each = 8 total.
        assert_eq!(report.queries_executed, 8);
        assert_eq!(report.query_failures, 0);
        assert_eq!(measurements.ok_count(OpKind::Insert), 20_000);
        assert_eq!(measurements.ok_count(OpKind::Scan), 8);
        assert!(report.rows_per_query.count() == 8);
        // Queries over freshly ingested 5s windows see rows.
        assert!(report.rows_per_query.mean() > 0.0, "queries found data");
    }

    #[test]
    fn batched_driver_ingests_quota_and_flushes_at_query_boundaries() {
        let backend = Arc::new(MemBackend::new());
        let measurements = Arc::new(Measurements::new());
        let mut config = DriverConfig::new(0, 20_000);
        config.threads = 4;
        config.batch_size = 16;
        let report = run_driver(&config, backend.clone(), measurements.clone());
        assert_eq!(report.ingested, 20_000);
        assert_eq!(report.insert_failures, 0);
        assert_eq!(backend.ingested_count(), 20_000, "every kvp acked");
        assert_eq!(report.queries_executed, 8, "query cadence unchanged");
        // Per thread: 312 full batches of 16 plus one final flush of 8
        // (the query boundaries at 2000 and 4000 land on a full batch).
        assert_eq!(measurements.ok_count(OpKind::Insert), 4 * 313);
        assert_eq!(measurements.ok_count(OpKind::Scan), 8);
        // The pre-query flush makes fresh readings visible: the current
        // 5s window is never empty.
        assert!(report.rows_per_query.mean() > 0.0, "queries found data");
    }

    #[test]
    fn tiny_quota_fewer_threads() {
        let backend = Arc::new(MemBackend::new());
        let measurements = Arc::new(Measurements::new());
        let mut config = DriverConfig::new(1, 3);
        config.threads = 10; // clamped to 3
        let report = run_driver(&config, backend, measurements);
        assert_eq!(report.ingested, 3);
        assert_eq!(report.queries_executed, 0);
    }

    #[test]
    fn zero_query_rate_disables_queries() {
        let backend = Arc::new(MemBackend::new());
        let measurements = Arc::new(Measurements::new());
        let mut config = DriverConfig::new(2, 5_000);
        config.queries_per_10k = 0;
        config.threads = 2;
        let report = run_driver(&config, backend, measurements);
        assert_eq!(report.queries_executed, 0);
        assert_eq!(report.ingested, 5_000);
    }

    #[test]
    fn merge_moments_is_exact() {
        let mut a = Moments::new();
        let mut b = Moments::new();
        let mut whole = Moments::new();
        for (i, x) in [1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*x);
            } else {
                b.record(*x);
            }
            whole.record(*x);
        }
        let merged = merge_moments(a, b);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        assert!((merged.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
    }
}
