//! `history_query`: a bulk-loaded 1800 s history read back by closed-loop
//! dashboard queries, every answer checked against a reference computed
//! from the generator's own reading stream.

use crate::report::dir_bytes;
use crate::trace;
use bytes::Bytes;
use simkit::rng::{derive_seed, Stream};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcx_iot::backend::GatewayBackend;
use tpcx_iot::datagen::ReadingGenerator;
use tpcx_iot::keys::encode_reading;
use tpcx_iot::query::{execute, IntervalAggregate, QueryKind, QueryOutcome, QuerySpec, HISTORY_MS};
use tpcx_iot::sensors::substation_key;

/// Virtual epoch of the history (POSIX ms).
pub const EPOCH_MS: u64 = 1_700_000_000_000;
/// The spec's floor of 20 readings/s/sensor.
pub const SWEEP_MS: u64 = 50;
/// Loader threads; each owns `SENSORS_PER_LOADER` sensors.
pub const LOADERS: usize = 2;
pub const SENSORS_PER_LOADER: usize = 1;
/// Readings per batch handed to `Cluster::put_batch`.
pub const LOAD_BATCH: usize = 64;

/// Catalogue slices a loader's generator is cut from: slice `t` of
/// `SLICES` holds `SENSORS_PER_LOADER` sensors.
const SLICES: usize = 200 / SENSORS_PER_LOADER;

/// kvps a history loaded by `loaders` threads holds: 1800 virtual
/// seconds of every loaded sensor.
pub fn history_kvps(loaders: usize) -> u64 {
    (HISTORY_MS / SWEEP_MS) * (loaders * SENSORS_PER_LOADER) as u64
}

/// Every loaded reading, per sensor, in timestamp order.
#[derive(Default)]
pub struct Reference {
    by_sensor: HashMap<String, Vec<(u64, f64)>>,
}

impl Reference {
    /// The aggregate `query::execute` must return for `[from, to)`,
    /// folded in the same (timestamp) order the scan yields rows.
    pub fn aggregate(&self, spec: &QuerySpec, from_ms: u64, to_ms: u64) -> IntervalAggregate {
        let readings = self.by_sensor.get(&spec.sensor).map_or(&[][..], |v| v);
        let lo = readings.partition_point(|(ts, _)| *ts < from_ms);
        let hi = readings.partition_point(|(ts, _)| *ts < to_ms);
        let window = &readings[lo..hi];
        let (mut sum, mut min, mut max) = (0.0f64, f64::INFINITY, f64::NEG_INFINITY);
        for (_, v) in window {
            sum += v;
            min = min.min(*v);
            max = max.max(*v);
        }
        let value = (!window.is_empty()).then(|| match spec.kind {
            QueryKind::MaxReading => max,
            QueryKind::MinReading => min,
            QueryKind::AverageReading => sum / window.len() as f64,
            QueryKind::ReadingCount => window.len() as f64,
        });
        IntervalAggregate {
            rows: window.len() as u64,
            value,
        }
    }

    /// Checks one query answer: 100 readings per window (200 in all, the
    /// spec's validity floor) and both aggregates equal to the reference.
    pub fn check(&self, out: &QueryOutcome) -> Result<(), String> {
        let spec = &out.spec;
        let current = self.aggregate(spec, spec.current_from_ms, spec.current_to_ms);
        let past = self.aggregate(spec, spec.past_from_ms, spec.past_to_ms);
        let per_window = 5_000 / SWEEP_MS;
        if out.rows_read != 2 * per_window || current.rows != per_window || past.rows != per_window
        {
            return Err(format!(
                "query on {} read {} rows, expected {} per window",
                spec.sensor, out.rows_read, per_window
            ));
        }
        if out.current != current || out.past != past {
            return Err(format!(
                "{} on {}: got {:?}/{:?}, reference {:?}/{:?}",
                spec.kind.name(),
                spec.sensor,
                out.current,
                out.past,
                current,
                past
            ));
        }
        Ok(())
    }
}

/// The loaded history.
pub struct Loaded {
    pub reference: Reference,
    pub sensor_keys: Vec<String>,
    /// End of the history: the queries' `now`.
    pub now_ms: u64,
    pub kvps: u64,
    /// Latency of every `insert_batch` call.
    pub batch_ns: Vec<u64>,
    pub elapsed_s: f64,
}

/// Bulk-loads the history through `backend.insert_batch` from `loaders`
/// closed-loop threads, keeping every reading as the reference. With
/// `traced`, each batch is one `history.load` request.
pub fn preload(
    backend: &Arc<dyn GatewayBackend>,
    seed: u64,
    loaders: usize,
    traced: bool,
) -> Result<Loaded, String> {
    let substation = substation_key(0);
    let sweeps = HISTORY_MS / SWEEP_MS;
    let started = Instant::now();
    // Each loader returns its own slice of the history; merged below.
    let results: Vec<Result<Loaded, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..loaders)
            .map(|t| {
                let substation = substation.clone();
                scope.spawn(move || {
                    let mut gen = ReadingGenerator::for_thread(
                        substation,
                        derive_seed(seed, 0x4C_0000 + t as u64),
                        EPOCH_MS,
                        SWEEP_MS,
                        t,
                        SLICES,
                    );
                    let keys = gen.sensor_keys();
                    let total = sweeps * keys.len() as u64;
                    let mut reference = Reference::default();
                    let mut batch_ns = Vec::new();
                    let mut buf: Vec<(Bytes, Bytes)> = Vec::with_capacity(LOAD_BATCH);
                    for i in 0..total {
                        let r = gen.next_reading();
                        let value: f64 = r
                            .value
                            .parse()
                            .map_err(|e| format!("unparsable reading {:?}: {e}", r.value))?;
                        reference
                            .by_sensor
                            .entry(r.sensor.clone())
                            .or_default()
                            .push((r.timestamp_ms, value));
                        buf.push(encode_reading(&r));
                        if buf.len() == LOAD_BATCH || i + 1 == total {
                            let t0 = Instant::now();
                            let result = if traced {
                                trace::in_request("history.load", || backend.insert_batch(&buf))
                            } else {
                                backend.insert_batch(&buf)
                            };
                            batch_ns.push(t0.elapsed().as_nanos() as u64);
                            result.map_err(|e| format!("preload batch: {e}"))?;
                            buf.clear();
                        }
                    }
                    Ok(Loaded {
                        reference,
                        sensor_keys: keys,
                        now_ms: gen.now_ms(),
                        kvps: total,
                        batch_ns,
                        elapsed_s: 0.0,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut loaded = Loaded {
        reference: Reference::default(),
        sensor_keys: Vec::new(),
        now_ms: 0,
        kvps: 0,
        batch_ns: Vec::new(),
        elapsed_s,
    };
    for part in results {
        let part = part?;
        loaded.reference.by_sensor.extend(part.reference.by_sensor);
        loaded.sensor_keys.extend(part.sensor_keys);
        if loaded.now_ms != 0 && loaded.now_ms != part.now_ms {
            return Err("loaders ended at different virtual times".into());
        }
        loaded.now_ms = part.now_ms;
        loaded.kvps += part.kvps;
        loaded.batch_ns.extend(part.batch_ns);
    }
    Ok(loaded)
}

/// Waits until background work is over: flush and compaction counts,
/// table count and on-disk bytes unchanged for 3 polls 200 ms apart (a
/// running compaction keeps writing its output, so the bytes move).
pub fn settle(cluster: &gateway::Cluster, dir: &Path) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let shape = || {
        let e = cluster.stats().engine;
        (e.flushes, e.compactions, e.table_count, dir_bytes(dir))
    };
    let mut last = shape();
    let mut quiet = 0;
    while quiet < 3 {
        if Instant::now() > deadline {
            return Err("compaction did not settle within 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(200));
        let now = shape();
        quiet = if now == last { quiet + 1 } else { 0 };
        last = now;
    }
    Ok(())
}

/// Outcome of a closed-loop query burst.
pub struct Burst {
    pub latency_ns: Vec<u64>,
    pub elapsed_s: f64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// `clients` closed-loop threads, `per_client` queries each, every query
/// generated at `now` = end of history and checked against the reference.
/// With `traced`, each query is one `history.query` request.
pub fn query_burst(
    backend: &Arc<dyn GatewayBackend>,
    loaded: &Loaded,
    seed: u64,
    clients: usize,
    per_client: usize,
    traced: bool,
) -> Burst {
    let substation = substation_key(0);
    let started = Instant::now();
    let per_thread: Vec<(Vec<u64>, u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let substation = &substation;
                scope.spawn(move || {
                    let mut rng = Stream::new(derive_seed(seed, 0x51_0000 + c as u64));
                    let mut latency = Vec::with_capacity(per_client);
                    let (mut failed, mut errors) = (0u64, Vec::new());
                    for _ in 0..per_client {
                        let spec = QuerySpec::generate(
                            &mut rng,
                            substation,
                            &loaded.sensor_keys,
                            loaded.now_ms,
                        );
                        let t0 = Instant::now();
                        let result = if traced {
                            trace::in_request("history.query", || execute(backend.as_ref(), &spec))
                        } else {
                            execute(backend.as_ref(), &spec)
                        };
                        latency.push(t0.elapsed().as_nanos() as u64);
                        match result {
                            Ok(out) => {
                                if let Err(e) = loaded.reference.check(&out) {
                                    errors.push(e);
                                }
                            }
                            Err(e) => {
                                failed += 1;
                                errors.push(format!("query failed: {e}"));
                            }
                        }
                    }
                    (latency, failed, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut burst = Burst {
        latency_ns: Vec::new(),
        elapsed_s,
        failed: 0,
        errors: Vec::new(),
    };
    for (latency, failed, errors) in per_thread {
        burst.latency_ns.extend(latency);
        burst.failed += failed;
        burst.errors.extend(errors);
    }
    burst
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcx_iot::backend::MemBackend;

    /// A one-loader history on the in-memory backend.
    fn loaded_mem() -> (Arc<dyn GatewayBackend>, Loaded) {
        let backend: Arc<dyn GatewayBackend> = Arc::new(MemBackend::new());
        let loaded = preload(&backend, 9, 1, false).expect("preload");
        (backend, loaded)
    }

    #[test]
    fn history_answers_match_the_reference() {
        let (backend, loaded) = loaded_mem();
        assert_eq!(loaded.kvps, history_kvps(1));
        assert_eq!(loaded.now_ms, EPOCH_MS + HISTORY_MS);
        let burst = query_burst(&backend, &loaded, 3, 2, 50, false);
        assert_eq!(burst.latency_ns.len(), 100);
        assert_eq!(burst.failed, 0);
        assert!(burst.errors.is_empty(), "{:?}", burst.errors);
    }

    #[test]
    fn reference_check_rejects_a_tampered_aggregate() {
        let (backend, loaded) = loaded_mem();
        let mut rng = Stream::new(5);
        let mut checked = 0;
        for _ in 0..20 {
            let spec = QuerySpec::generate(
                &mut rng,
                &substation_key(0),
                &loaded.sensor_keys,
                loaded.now_ms,
            );
            let out = execute(backend.as_ref(), &spec).expect("query");
            assert!(loaded.reference.check(&out).is_ok());
            let mut tampered = out.clone();
            let v = tampered.past.value.expect("past window has rows");
            tampered.past.value = Some(v + v.abs().max(1.0) * 1e-9);
            assert!(loaded.reference.check(&tampered).is_err());
            let mut short = out;
            short.current.rows -= 1;
            short.rows_read -= 1;
            assert!(loaded.reference.check(&short).is_err());
            checked += 1;
        }
        assert_eq!(checked, 20);
    }
}
