//! `ycsb` — the part of the Yahoo! Cloud Serving Benchmark framework
//! this kit keeps: YCSB's per-operation latency sink.
//!
//! TPCx-IoT is specified as an extension of YCSB (the paper, §III-C: *"The
//! TPCx-IoT workload generator is based on the Yahoo! Cloud Serving
//! Benchmark framework"*). The TPCx-IoT driver in the `tpcx-iot` crate
//! brings its own sensor workload, data generator and threads; of YCSB it
//! uses only [`measurement`], which records ingest (`Insert`) and
//! dashboard-query (`Scan`) latencies, successful and failed, in shared
//! histograms.

pub mod measurement;

pub use measurement::{Measurements, OpKind};
