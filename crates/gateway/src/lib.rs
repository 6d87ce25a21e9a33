//! `gateway` — an in-process distributed IoT gateway cluster, the
//! functional equivalent of the paper's System Under Test (HBase on a
//! Cisco UCS blade cluster).
//!
//! The cluster mirrors HBase's data-plane architecture at laptop scale:
//!
//! * the keyspace is partitioned into **regions** ([`region`]) — sorted,
//!   non-overlapping key ranges, pre-splittable on substation boundaries
//!   and splittable at runtime,
//! * each region is assigned to a primary **region server** and
//!   `replication_factor − 1` replica servers; every server hosts one
//!   [`iotkv::Db`] storage engine (WAL + memstore + HFile-like tables),
//! * writes go **synchronously to all replicas** (TPCx-IoT's prerequisite
//!   check demands 3-way replication of ingested data),
//! * reads and scans are served from the primary; scans spanning several
//!   regions fan out and concatenate in key order,
//! * [`Cluster::purge`] implements the benchmark's *system cleanup* step:
//!   all ingested data is dropped and the storage engines restart.

pub mod cluster;
pub mod fault;
pub mod region;
pub mod server;
pub mod topology;

pub use cluster::{Cluster, ClusterConfig, ClusterStats};
pub use fault::{
    CrashEvent, FaultCounters, FaultPlan, FaultState, FaultVerdict, TopologyAction, TopologyEvent,
};
pub use region::{Region, RegionMap};
pub use server::GatewayServer;

/// Errors surfaced by the cluster.
#[derive(Clone, Debug)]
pub enum GatewayError {
    /// The underlying storage engine failed.
    Storage(iotkv::Error),
    /// A request addressed a node or region that does not exist.
    Routing(String),
    /// The requested configuration is invalid.
    Config(String),
    /// The addressed replicas are temporarily unable to serve the
    /// operation (node down, injected transient fault). Retryable.
    Unavailable(String),
}

impl GatewayError {
    /// Whether retrying the failed operation can succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, GatewayError::Unavailable(_))
    }
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Storage(e) => write!(f, "storage: {e}"),
            GatewayError::Routing(msg) => write!(f, "routing: {msg}"),
            GatewayError::Config(msg) => write!(f, "config: {msg}"),
            GatewayError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<iotkv::Error> for GatewayError {
    fn from(e: iotkv::Error) -> Self {
        GatewayError::Storage(e)
    }
}

pub type Result<T> = std::result::Result<T, GatewayError>;
