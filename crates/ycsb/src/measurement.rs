//! Per-operation latency measurement.

use simkit::stats::{Histogram, Summary};
use simkit::sync::Mutex;

/// The YCSB operation kinds TPCx-IoT uses: `Insert` for ingestion and
/// `Scan` for its dashboard range queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Insert,
    Scan,
}

impl OpKind {
    fn index(self) -> usize {
        match self {
            OpKind::Insert => 0,
            OpKind::Scan => 1,
        }
    }
}

struct Slot {
    ok: Histogram,
    /// Failed ops carry their end-to-end latency too: a retry storm shows
    /// up as a fat failed-latency tail long before throughput collapses.
    failed: Histogram,
}

/// Thread-safe measurement sink shared by all client threads.
pub struct Measurements {
    slots: [Mutex<Slot>; 2],
}

impl Default for Measurements {
    fn default() -> Self {
        Self::new()
    }
}

impl Measurements {
    pub fn new() -> Measurements {
        Measurements {
            slots: std::array::from_fn(|_| {
                Mutex::new(Slot {
                    ok: Histogram::new(),
                    failed: Histogram::new(),
                })
            }),
        }
    }

    /// Records a successful operation's latency in nanoseconds.
    pub fn record_ok(&self, kind: OpKind, latency_nanos: u64) {
        self.slots[kind.index()].lock().ok.record(latency_nanos);
    }

    /// Records a failed operation and how long it took to fail (time spent
    /// across all retry attempts, in nanoseconds).
    pub fn record_failure(&self, kind: OpKind, latency_nanos: u64) {
        self.slots[kind.index()].lock().failed.record(latency_nanos);
    }

    /// Latency summary for one operation kind (nanoseconds).
    pub fn summary(&self, kind: OpKind) -> Summary {
        self.slots[kind.index()].lock().ok.summary()
    }

    /// Latency summary of *failed* operations (nanoseconds).
    pub fn failed_summary(&self, kind: OpKind) -> Summary {
        self.slots[kind.index()].lock().failed.summary()
    }

    /// Value at an arbitrary quantile for one operation kind (nanoseconds).
    pub fn quantile(&self, kind: OpKind, q: f64) -> u64 {
        self.slots[kind.index()].lock().ok.value_at_quantile(q)
    }

    pub fn ok_count(&self, kind: OpKind) -> u64 {
        self.slots[kind.index()].lock().ok.count()
    }

    pub fn failure_count(&self, kind: OpKind) -> u64 {
        self.slots[kind.index()].lock().failed.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_kind() {
        let m = Measurements::new();
        m.record_ok(OpKind::Insert, 1000);
        m.record_ok(OpKind::Insert, 3000);
        m.record_ok(OpKind::Scan, 9000);
        m.record_failure(OpKind::Scan, 7000);

        assert_eq!(m.ok_count(OpKind::Insert), 2);
        assert_eq!(m.ok_count(OpKind::Scan), 1);
        assert_eq!(m.failure_count(OpKind::Scan), 1);
        assert_eq!(m.failed_summary(OpKind::Scan).count, 1);
        assert!(m.failed_summary(OpKind::Scan).max >= 7000);
        assert_eq!(m.failed_summary(OpKind::Insert).count, 0);
        assert_eq!(m.summary(OpKind::Insert).mean, 2000.0);
        assert_eq!(m.failure_count(OpKind::Insert), 0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let m = Measurements::new();
        for i in 1..=1000u64 {
            m.record_ok(OpKind::Insert, i * 1000);
        }
        let p50 = m.quantile(OpKind::Insert, 0.5);
        let p95 = m.quantile(OpKind::Insert, 0.95);
        let p99 = m.quantile(OpKind::Insert, 0.99);
        assert!(p50 <= p95 && p95 <= p99);
    }
}
