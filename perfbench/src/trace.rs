//! Outside-in tracing: spans recorded around calls into the product's
//! public functions, kept in per-thread in-memory buffers and drained
//! when a traced run ends.
//!
//! Nothing here reaches inside the program. [`TracedBackend`] decorates
//! the `GatewayBackend` handle a caller receives, so a span covers one
//! call into the layer behind that handle; the benchmark's own loops open
//! further spans (`history.query`) explicitly.

use bytes::Bytes;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tpcx_iot::backend::{BackendResult, GatewayBackend, ResilienceCounters};

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Shared by every span of one insert or one query.
    pub request: u64,
    /// Work carried by the call: kvps for inserts, rows for scans.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread state: the span buffer plus the thread's implicit root span
/// and the request a pair of query scans belongs to.
type SpanBuf = Arc<Mutex<Vec<Span>>>;

struct ThreadState {
    buf: SpanBuf,
    /// Id of this thread's `driver.thread` span, allocated on first use;
    /// its extent is the thread's first to last recorded call.
    thread_span: u64,
    next_local: u64,
    /// Request of a query whose first scan was seen and whose second
    /// (the past window) is still due.
    open_query: Option<u64>,
    /// Request set explicitly by the benchmark's own loop.
    explicit_request: Option<(u64, u64)>,
}

static THREAD_SEQ: AtomicU64 = AtomicU64::new(1);
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(1);

fn registry() -> &'static Mutex<Vec<SpanBuf>> {
    static REGISTRY: OnceLock<Mutex<Vec<SpanBuf>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// Nanoseconds since the tracer epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn with_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> R {
    STATE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(Vec::new()));
            registry().lock().push(Arc::clone(&buf));
            // Ordering: Relaxed — a unique id allocator publishes no data.
            let thread = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
            ThreadState {
                buf,
                thread_span: thread << 40,
                next_local: (thread << 40) + 1,
                open_query: None,
                explicit_request: None,
            }
        });
        f(state)
    })
}

fn next_request() -> u64 {
    // Ordering: Relaxed — a unique id allocator publishes no data.
    REQUEST_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Allocates a span id on this thread.
fn next_span_id() -> u64 {
    with_state(|s| {
        let id = s.next_local;
        s.next_local += 1;
        id
    })
}

fn push(span: Span) {
    with_state(|s| s.buf.lock().push(span));
}

/// Runs `f` as one request of the benchmark's own loop: every span the
/// decorator records inside it carries `request` and hangs under the
/// returned root span `name`.
pub fn in_request<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let request = next_request();
    let id = next_span_id();
    let previous = with_state(|s| s.explicit_request.replace((request, id)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    with_state(|s| s.explicit_request = previous);
    push(Span {
        name,
        start_ns,
        end_ns,
        id,
        parent: 0,
        request,
        items: 0,
    });
    out
}

/// The request and parent a new backend span belongs to. Inserts start a
/// request of their own. A dashboard query is exactly two consecutive
/// scans on one thread (current window, then past window — what
/// `query::execute` issues on fault-free traffic), so a scan that follows
/// an unpaired scan joins its request.
fn attach(is_scan: bool) -> (u64, u64) {
    with_state(|s| {
        if let Some((request, parent)) = s.explicit_request {
            return (request, parent);
        }
        let request = if is_scan {
            match s.open_query.take() {
                Some(request) => request,
                None => {
                    let request = next_request();
                    s.open_query = Some(request);
                    request
                }
            }
        } else {
            s.open_query = None;
            next_request()
        };
        (request, s.thread_span)
    })
}

/// Drains every thread's buffer. Threads that recorded without an
/// explicit request get their implicit `driver.thread` root span,
/// spanning their first to last recorded call.
pub fn drain() -> Vec<Span> {
    let buffers: Vec<SpanBuf> = registry().lock().clone();
    let mut out = Vec::new();
    for buf in buffers {
        let spans = std::mem::take(&mut *buf.lock());
        let Some(first) = spans.first() else { continue };
        let thread_span = first.id & !((1u64 << 40) - 1);
        let children = spans.iter().filter(|s| s.parent == thread_span);
        let (mut lo, mut hi, mut any) = (u64::MAX, 0u64, false);
        for s in children {
            lo = lo.min(s.start_ns);
            hi = hi.max(s.end_ns);
            any = true;
        }
        if any {
            out.push(Span {
                name: "driver.thread",
                start_ns: lo,
                end_ns: hi,
                id: thread_span,
                parent: 0,
                request: 0,
                items: 0,
            });
        }
        out.extend(spans);
    }
    out
}

/// Self time of every span: its duration minus the time its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// A `GatewayBackend` decorator: every data call becomes a span named
/// `<layer>.<call>`. Scans get one child span `query.fold` holding the
/// time spent inside the caller's visitor (decode + aggregate), laid out
/// from the first row for its summed duration.
pub struct TracedBackend {
    inner: Arc<dyn GatewayBackend>,
    layer: &'static Layer,
}

/// The span names of one layer's calls.
pub struct Layer {
    insert: &'static str,
    insert_batch: &'static str,
    scan_fold: &'static str,
}

/// An in-process cluster handle.
pub const CLUSTER: Layer = Layer {
    insert: "cluster.put",
    insert_batch: "cluster.put_batch",
    scan_fold: "cluster.scan_fold",
};

/// A `NetBackend` to a gateway server.
pub const NET: Layer = Layer {
    insert: "net.put",
    insert_batch: "net.put_batch",
    scan_fold: "net.scan_fold",
};

impl TracedBackend {
    pub fn new(inner: Arc<dyn GatewayBackend>, layer: &'static Layer) -> TracedBackend {
        TracedBackend { inner, layer }
    }

    fn timed<R>(&self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let (request, parent) = attach(false);
        let id = next_span_id();
        let start_ns = now_ns();
        let out = f();
        push(Span {
            name,
            start_ns,
            end_ns: now_ns(),
            id,
            parent,
            request,
            items,
        });
        out
    }
}

impl GatewayBackend for TracedBackend {
    fn insert(&self, key: &[u8], value: &[u8]) -> BackendResult<()> {
        self.timed(self.layer.insert, 1, || self.inner.insert(key, value))
    }

    fn insert_batch(&self, items: &[(Bytes, Bytes)]) -> BackendResult<()> {
        self.timed(self.layer.insert_batch, items.len() as u64, || {
            self.inner.insert_batch(items)
        })
    }

    fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> BackendResult<Vec<(Bytes, Bytes)>> {
        self.inner.scan(start, end, limit)
    }

    fn scan_fold(
        &self,
        start: &[u8],
        end: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> BackendResult<u64> {
        let (request, parent) = attach(true);
        let id = next_span_id();
        let fold_id = next_span_id();
        let mut fold_ns = 0u64;
        let mut fold_start = None;
        let start_ns = now_ns();
        let result = self.inner.scan_fold(start, end, &mut |k, v| {
            let t0 = now_ns();
            fold_start.get_or_insert(t0);
            let keep = visit(k, v);
            fold_ns += now_ns() - t0;
            keep
        });
        let end_ns = now_ns();
        let rows = *result.as_ref().unwrap_or(&0);
        push(Span {
            name: self.layer.scan_fold,
            start_ns,
            end_ns,
            id,
            parent,
            request,
            items: rows,
        });
        if let Some(fold_start) = fold_start {
            push(Span {
                name: "query.fold",
                start_ns: fold_start,
                end_ns: fold_start + fold_ns,
                id: fold_id,
                parent: id,
                request,
                items: rows,
            });
        }
        result
    }

    fn replication_factor(&self) -> usize {
        self.inner.replication_factor()
    }

    fn ingested_count(&self) -> u64 {
        self.inner.ingested_count()
    }

    fn resilience(&self) -> ResilienceCounters {
        self.inner.resilience()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcx_iot::backend::MemBackend;
    use tpcx_iot::driver::{run_driver, DriverConfig};
    use tpcx_iot::query::{execute, QuerySpec};
    use ycsb::measurement::Measurements;

    /// The tracer is process-global: tests that drain it run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            id,
            parent,
            request: 1,
            items: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 90),
            span(4, 3, 60, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 40);
        assert_eq!(st[&2], 20);
        // Grandchildren are charged to their own parent only.
        assert_eq!(st[&3], 40 - 10);
        assert_eq!(st[&4], 10);
    }

    #[test]
    fn decorator_is_transparent_to_the_driver() {
        let run = |traced: bool| {
            let mem: Arc<dyn GatewayBackend> = Arc::new(MemBackend::new());
            let backend: Arc<dyn GatewayBackend> = if traced {
                Arc::new(TracedBackend::new(Arc::clone(&mem), &CLUSTER))
            } else {
                Arc::clone(&mem)
            };
            let mut config = DriverConfig::new(0, 12_000);
            config.threads = 2;
            config.seed = 42;
            let report = run_driver(&config, Arc::clone(&backend), Arc::new(Measurements::new()));
            let sensors: Vec<String> =
                tpcx_iot::ReadingGenerator::new("PSS-000000", 1, 0, 10).sensor_keys();
            let mut rng = simkit::rng::Stream::new(7);
            let outcomes: Vec<_> = (0..20)
                .map(|_| {
                    let spec = QuerySpec::generate(
                        &mut rng,
                        &report.substation,
                        &sensors,
                        config.epoch_ms + 5_000,
                    );
                    let o = execute(backend.as_ref(), &spec).expect("query");
                    (o.rows_read, o.current, o.past)
                })
                .collect();
            (
                report.ingested,
                report.insert_failures,
                report.queries_executed,
                report.query_failures,
                report.rows_per_query.count(),
                report.rows_per_query.mean(),
                mem.ingested_count(),
                outcomes,
            )
        };
        let _serial = SERIAL.lock();
        drain();
        let plain = run(false);
        let traced = run(true);
        assert_eq!(plain, traced);
        let spans = drain();
        let inserts = spans.iter().filter(|s| s.name == "cluster.put").count();
        assert_eq!(inserts, 12_000);
    }

    #[test]
    fn query_scans_share_one_request() {
        let _serial = SERIAL.lock();
        let mem: Arc<dyn GatewayBackend> = Arc::new(MemBackend::new());
        let traced = TracedBackend::new(mem, &CLUSTER);
        for i in 0..10u8 {
            traced.insert(&[b'a', i], b"v").expect("insert");
        }
        // Run on a fresh thread so no other test's spans interleave.
        let spans = std::thread::spawn(move || {
            traced.insert(b"b", b"v").expect("insert");
            for _ in 0..2 {
                traced
                    .scan_fold(b"a", b"b", &mut |_, _| true)
                    .expect("scan");
                traced
                    .scan_fold(b"a", b"b", &mut |_, _| true)
                    .expect("scan");
            }
            let tid = with_state(|s| s.thread_span);
            (tid, drain())
        })
        .join()
        .expect("thread");
        let (tid, all) = spans;
        let mine: Vec<&Span> = all
            .iter()
            .filter(|s| s.id & !((1u64 << 40) - 1) == tid)
            .collect();
        let scans: Vec<&&Span> = mine
            .iter()
            .filter(|s| s.name == "cluster.scan_fold")
            .collect();
        assert_eq!(scans.len(), 4);
        assert_eq!(scans[0].request, scans[1].request);
        assert_eq!(scans[2].request, scans[3].request);
        assert_ne!(scans[1].request, scans[2].request);
        let folds: Vec<&&Span> = mine.iter().filter(|s| s.name == "query.fold").collect();
        assert_eq!(folds.len(), 4);
        assert!(folds.iter().all(|f| f.items == 10));
        assert!(mine.iter().any(|s| s.name == "driver.thread"));
    }
}
