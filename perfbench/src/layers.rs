//! The per-layer metrics of a traced unit: spans at each layer boundary,
//! the cluster and engine counters, and the single-layer probes.

use crate::probes::ProbeResult;
use crate::report::percentile;
use crate::trace::{self, Span};
use crate::workloads::{Counters, REPLICATION};
use std::collections::HashSet;
use tpcx_iot::KVP_SIZE;

/// What a traced unit hands to the per-layer metrics.
pub struct LayerInputs {
    pub spans: Vec<Span>,
    /// kvps the TPCx-IoT driver ingested (0 where no driver runs).
    pub driver_kvps: u64,
    pub insert_retries: u64,
    pub query_retries: u64,
    /// Counters over the write part and over the read part of the unit.
    pub write: Counters,
    pub read: Counters,
    /// Per-execution warm-up, measured and cleanup seconds of the
    /// benchmark protocol (zeros where the protocol does not run).
    pub runner: [f64; 3],
}

/// Every per-layer metric, by name and unit, in output order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("datagen.ns_per_kvp", "ns"),
    ("driver.self_ns_per_kvp", "ns"),
    ("retry.insert_retries", "count"),
    ("retry.query_retries", "count"),
    ("cluster.put.count", "count"),
    ("cluster.put.busy_s", "s"),
    ("cluster.put.p50_us", "us"),
    ("cluster.put.p999_us", "us"),
    ("cluster.put.slow_s", "s"),
    ("cluster.put_batch.count", "count"),
    ("cluster.put_batch.busy_s", "s"),
    ("cluster.put_batch.p50_us", "us"),
    ("cluster.put_batch.p99_us", "us"),
    ("cluster.put_batch.slow_s", "s"),
    ("cluster.replica_writes_per_kvp", "ratio"),
    ("cluster.batch_fill", "kvps"),
    ("cluster.hinted_writes", "count"),
    ("cluster.unavailable_errors", "count"),
    ("iotkv.write_us_per_kvp.b1", "us"),
    ("iotkv.write_us_per_kvp.b64", "us"),
    ("iotkv.commit_group_size", "batches"),
    ("iotkv.wal_syncs", "count"),
    ("iotkv.stalls", "count"),
    ("iotkv.flushes", "count"),
    ("iotkv.compactions", "count"),
    ("iotkv.write_amp", "ratio"),
    ("cluster.scan_fold.count", "count"),
    ("cluster.scan_fold.busy_s", "s"),
    ("cluster.scan_fold.rows_per_call", "rows"),
    ("cluster.scan_fold.self_ns_per_row", "ns"),
    ("cluster.rows_streamed", "count"),
    ("cluster.scan_retries", "count"),
    ("iotkv.scan_iter_ns_per_row", "ns"),
    ("iotkv.cache_hit_ratio", "ratio"),
    ("iotkv.table_count", "count"),
    ("query.fold_ns_per_row", "ns"),
    ("query.rows_per_query", "rows"),
    ("net.put_batch.p50_us", "us"),
    ("net.put_batch.busy_s", "s"),
    ("net.scan_fold.p50_us", "us"),
    ("net.scan_fold.self_ns_per_row", "ns"),
    ("net.overhead_us_per_batch", "us"),
    ("runner.warmup_s", "s"),
    ("runner.measured_s", "s"),
    ("runner.cleanup_s", "s"),
    ("trace.overhead", "ratio"),
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Calls of one span name: count, busy time, carried items, time in calls
/// slower than 1 ms, and sorted durations.
struct Calls {
    count: u64,
    busy_ns: u64,
    items: u64,
    slow_ns: u64,
    sorted: Vec<u64>,
}

impl Calls {
    fn of(spans: &[Span], name: &str) -> Calls {
        let mut sorted: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        sorted.sort_unstable();
        Calls {
            count: sorted.len() as u64,
            busy_ns: sorted.iter().sum(),
            items: spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.items)
                .sum(),
            slow_ns: sorted.iter().filter(|&&d| d > 1_000_000).sum(),
            sorted,
        }
    }

    fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    fn slow_s(&self) -> f64 {
        self.slow_ns as f64 / 1e9
    }

    fn us(&self, q: f64) -> f64 {
        percentile(&self.sorted, q) as f64 / 1e3
    }
}

/// The per-layer metrics of one traced unit (`trace.overhead` excepted,
/// which compares two units). A layer the workload does not call reads 0.
pub fn layer_metrics(inp: &LayerInputs, probe: &ProbeResult) -> Vec<(&'static str, f64)> {
    let spans = &inp.spans;
    let self_ns = trace::self_times(spans);
    let self_of = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_ns[&s.id] as f64)
            .sum()
    };
    let put = Calls::of(spans, "cluster.put");
    let batch = Calls::of(spans, "cluster.put_batch");
    let scan = Calls::of(spans, "cluster.scan_fold");
    let net_batch = Calls::of(spans, "net.put_batch");
    let net_scan = Calls::of(spans, "net.scan_fold");
    let fold = Calls::of(spans, "query.fold");
    let queries: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "cluster.scan_fold" || s.name == "net.scan_fold")
        .map(|s| s.request)
        .collect();
    let (w, we) = (&inp.write.cluster, &inp.write.engine);
    let (r, re) = (&inp.read.cluster, &inp.read.engine);
    let user_bytes = w.puts as f64 * KVP_SIZE as f64 * REPLICATION as f64;
    let overhead = if net_batch.count > 0 && batch.count > 0 {
        net_batch.us(0.5) - batch.us(0.5)
    } else {
        0.0
    };
    vec![
        ("datagen.ns_per_kvp", probe.datagen_ns_per_kvp),
        (
            "driver.self_ns_per_kvp",
            ratio(self_of("driver.thread"), inp.driver_kvps as f64),
        ),
        ("retry.insert_retries", inp.insert_retries as f64),
        ("retry.query_retries", inp.query_retries as f64),
        ("cluster.put.count", put.count as f64),
        ("cluster.put.busy_s", put.busy_s()),
        ("cluster.put.p50_us", put.us(0.5)),
        ("cluster.put.p999_us", put.us(0.999)),
        ("cluster.put.slow_s", put.slow_s()),
        ("cluster.put_batch.count", batch.count as f64),
        ("cluster.put_batch.busy_s", batch.busy_s()),
        ("cluster.put_batch.p50_us", batch.us(0.5)),
        ("cluster.put_batch.p99_us", batch.us(0.99)),
        ("cluster.put_batch.slow_s", batch.slow_s()),
        (
            "cluster.replica_writes_per_kvp",
            ratio(w.replica_writes as f64, w.puts as f64),
        ),
        (
            "cluster.batch_fill",
            ratio(w.batched_puts as f64, w.put_batches as f64),
        ),
        (
            "cluster.hinted_writes",
            (w.hinted_writes + r.hinted_writes) as f64,
        ),
        (
            "cluster.unavailable_errors",
            (w.unavailable_errors + r.unavailable_errors) as f64,
        ),
        ("iotkv.write_us_per_kvp.b1", probe.write_us_per_kvp_b1),
        ("iotkv.write_us_per_kvp.b64", probe.write_us_per_kvp_b64),
        (
            "iotkv.commit_group_size",
            ratio(we.commit_batches as f64, we.commit_groups as f64),
        ),
        ("iotkv.wal_syncs", we.wal_syncs as f64),
        ("iotkv.stalls", we.stalls as f64),
        ("iotkv.flushes", we.flushes as f64),
        ("iotkv.compactions", we.compactions as f64),
        (
            "iotkv.write_amp",
            ratio((we.bytes_flushed + we.bytes_compacted) as f64, user_bytes),
        ),
        ("cluster.scan_fold.count", scan.count as f64),
        ("cluster.scan_fold.busy_s", scan.busy_s()),
        (
            "cluster.scan_fold.rows_per_call",
            ratio(scan.items as f64, scan.count as f64),
        ),
        (
            "cluster.scan_fold.self_ns_per_row",
            ratio(self_of("cluster.scan_fold"), scan.items as f64),
        ),
        ("cluster.rows_streamed", r.rows_streamed as f64),
        ("cluster.scan_retries", r.scan_retries as f64),
        ("iotkv.scan_iter_ns_per_row", probe.scan_iter_ns_per_row),
        (
            "iotkv.cache_hit_ratio",
            ratio(
                re.cache_hits as f64,
                (re.cache_hits + re.cache_misses) as f64,
            ),
        ),
        ("iotkv.table_count", re.table_count as f64),
        (
            "query.fold_ns_per_row",
            ratio(fold.busy_ns as f64, fold.items as f64),
        ),
        (
            "query.rows_per_query",
            ratio((scan.items + net_scan.items) as f64, queries.len() as f64),
        ),
        ("net.put_batch.p50_us", net_batch.us(0.5)),
        ("net.put_batch.busy_s", net_batch.busy_s()),
        ("net.scan_fold.p50_us", net_scan.us(0.5)),
        (
            "net.scan_fold.self_ns_per_row",
            ratio(self_of("net.scan_fold"), net_scan.items as f64),
        ),
        ("net.overhead_us_per_batch", overhead),
        ("runner.warmup_s", inp.runner[0]),
        ("runner.measured_s", inp.runner[1]),
        ("runner.cleanup_s", inp.runner[2]),
    ]
}
