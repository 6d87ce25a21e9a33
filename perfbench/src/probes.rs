//! Single-layer probes on a workload's own seeded data: the layer's public
//! function called alone, with nothing above it.

use bytes::Bytes;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tpcx_iot::datagen::ReadingGenerator;
use tpcx_iot::sensors::substation_key;

/// kvps each probe generates, writes and scans.
pub const PROBE_KVPS: usize = 20_000;

/// The generator a workload's first driver thread (or loader) runs.
#[derive(Clone, Copy)]
pub struct GenShape {
    pub seed: u64,
    pub epoch_ms: u64,
    pub sweep_ms: u64,
    pub thread: usize,
    pub threads: usize,
}

impl GenShape {
    fn generator(&self) -> ReadingGenerator {
        ReadingGenerator::for_thread(
            substation_key(0),
            self.seed,
            self.epoch_ms,
            self.sweep_ms,
            self.thread,
            self.threads,
        )
    }
}

pub struct ProbeResult {
    pub datagen_ns_per_kvp: f64,
    pub write_us_per_kvp_b1: f64,
    pub write_us_per_kvp_b64: f64,
    pub scan_iter_ns_per_row: f64,
}

/// `datagen`: `next_kvp` alone. `iotkv`: `Db::write` of the same kvps on
/// a fresh engine with the cluster's options, one kvp per batch and 64
/// per batch, then a full `Db::scan_iter` over what was written.
pub fn run(dir: &Path, shape: GenShape) -> Result<ProbeResult, String> {
    let mut gen = shape.generator();
    let started = Instant::now();
    let mut kvps: Vec<(Bytes, Bytes)> = Vec::with_capacity(PROBE_KVPS);
    for _ in 0..PROBE_KVPS {
        kvps.push(black_box(gen.next_kvp()));
    }
    let datagen_ns_per_kvp = started.elapsed().as_nanos() as f64 / PROBE_KVPS as f64;

    let write = |name: &str, batch: usize| -> Result<(f64, iotkv::Db), String> {
        let db = iotkv::Db::open(dir.join(name), iotkv::Options::default())
            .map_err(|e| format!("probe db: {e}"))?;
        let started = Instant::now();
        for chunk in kvps.chunks(batch) {
            let mut wb = iotkv::WriteBatch::new();
            for (k, v) in chunk {
                wb.put(k, v);
            }
            db.write(wb).map_err(|e| format!("probe write: {e}"))?;
        }
        let us = started.elapsed().as_secs_f64() * 1e6 / kvps.len() as f64;
        Ok((us, db))
    };
    let (write_us_per_kvp_b1, db1) = write("probe-b1", 1)?;
    drop(db1);
    let (write_us_per_kvp_b64, db) = write("probe-b64", 64)?;
    db.flush().map_err(|e| format!("probe flush: {e}"))?;

    let mut per_row = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let mut rows = 0u64;
        for item in db.scan_iter(b"", b"\xff") {
            let (k, v) = item.map_err(|e| format!("probe scan: {e}"))?;
            black_box((&k, &v));
            rows += 1;
        }
        if rows != kvps.len() as u64 {
            return Err(format!("probe scan saw {rows} rows, wrote {}", kvps.len()));
        }
        per_row.push(started.elapsed().as_nanos() as f64 / rows as f64);
    }
    Ok(ProbeResult {
        datagen_ns_per_kvp,
        write_us_per_kvp_b1,
        write_us_per_kvp_b64,
        scan_iter_ns_per_row: crate::report::median(&per_row),
    })
}
