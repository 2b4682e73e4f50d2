#![warn(missing_docs)]
//! # tcluster — multi-process cluster runtime for tstorm topologies
//!
//! TencentRec runs its Storm topologies across worker processes on many
//! machines; `tstorm` alone runs everything in one process. This crate
//! closes the gap with a **supervisor** process that
//!
//! * spawns N **worker** OS processes (re-executing the current binary
//!   with `TCLUSTER_ROLE=worker`), each running a *slice* of the topology
//!   through [`tstorm::topology::Topology::launch_slice`];
//! * relays tuples and acker traffic between workers over
//!   length-prefixed TCP (the shared [`wire`] framing, batched end to
//!   end) in a hub-and-spoke layout — workers connect only to the
//!   supervisor;
//! * lets tuple trees span processes: each worker runs the XOR acker for
//!   the trees its own spouts root (roots carry their worker's index, see
//!   [`tstorm::ack::RootTag`]), so an edge lost on the wire (or in a dead
//!   worker) is an edge never acked, the tree times out at its owner,
//!   and the owning spout replays it;
//! * stores each worker's periodic offset commits and hands them back on
//!   respawn, bounding replay after a crash to the uncommitted tail;
//! * restarts dead workers with their original assignment and merges
//!   worker metrics into one cluster-wide scrape ([`obs::ClusterScrape`]).
//!
//! ## Process model
//!
//! Every process — supervisor and workers alike — runs the same app
//! builder, which constructs the **full** [`tstorm`] topology plus any
//! app state (stores, consumers). Placement is component-granular: all
//! tasks of a component live on one worker, so fields groupings keep
//! their key→task contract with no cross-process coordination. The
//! binary's `main` calls [`worker::maybe_run_worker`] first; in a worker
//! process it never returns, in the parent it returns `false` and the
//! caller proceeds to [`supervisor::Cluster::launch`].

pub mod protocol;
pub mod supervisor;
pub mod worker;

pub use supervisor::{Cluster, SupervisorConfig, WorkerSpec};
pub use worker::maybe_run_worker;

use std::sync::Arc;
use tstorm::topology::Topology;

/// Environment variable selecting worker mode (`"worker"`).
pub const ENV_ROLE: &str = "TCLUSTER_ROLE";
/// Environment variable carrying the supervisor's `host:port`.
pub const ENV_SUPERVISOR: &str = "TCLUSTER_SUPERVISOR";
/// Environment variable carrying the worker's index.
pub const ENV_WORKER_ID: &str = "TCLUSTER_WORKER_ID";
/// Environment variable carrying the worker incarnation's generation.
/// The supervisor bumps it before every respawn and fences frames from
/// older generations, so a zombie predecessor (e.g. a SIGSTOPped worker
/// that wakes after its replacement registered) can never double-emit
/// into the data plane. Absent (first manual launch) means generation 1.
pub const ENV_GENERATION: &str = "TCLUSTER_GENERATION";

/// Everything this process knows about its place in the cluster when the
/// app builder runs.
#[derive(Debug, Clone)]
pub struct WorkerContext {
    /// This worker's index into [`SupervisorConfig::workers`], or
    /// [`u32::MAX`] when the supervisor builds the app once for topology
    /// introspection (component names and parallelism only — the
    /// introspection instance is never launched).
    pub worker_id: u32,
    /// The last offset-commit blob a previous incarnation of this worker
    /// shipped (see [`ClusterApp::commit`]); `None` on first launch. A
    /// respawned worker seeks its consumers here so replay covers only
    /// the uncommitted tail instead of the whole topic.
    pub recovered: Option<Vec<u8>>,
}

impl WorkerContext {
    /// True when this is the supervisor's introspection build, which is
    /// only inspected for topology shape and never launched.
    pub fn is_probe(&self) -> bool {
        self.worker_id == u32::MAX
    }
}

/// What the app builder returns: the full topology plus the hooks the
/// cluster runtime drives on the app's behalf.
pub struct ClusterApp {
    /// The complete topology. Workers launch only their assigned slice;
    /// the supervisor's probe instance is inspected and dropped.
    pub topology: Topology,
    /// App-defined progress probe reported in status frames (e.g. source
    /// records durably committed). `None` reports 0.
    pub progress: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
    /// Serializes app state for the supervisor's drain protocol (e.g. the
    /// store contents a convergence test compares). `None` reports empty.
    pub drain: Option<Arc<dyn Fn() -> Vec<u8> + Send + Sync>>,
    /// Serializes the worker's durable resume point (e.g. an
    /// [`tstorm`]-external consumer's committed offsets). Shipped to the
    /// supervisor periodically; the latest blob comes back as
    /// [`WorkerContext::recovered`] after a restart.
    pub commit: Option<Arc<dyn Fn() -> Vec<u8> + Send + Sync>>,
    /// Periodic checkpoint hook, invoked by the worker runtime every
    /// [`ClusterApp::checkpoint_every`] with this slice's running
    /// [`tstorm::TopologyHandle`]. A state-owning worker passes a closure
    /// that drives a `ckpt` coordinator (`with_barrier` capture + durable
    /// publish); on respawn the app restores its store from the newest
    /// snapshot and seeks the spouts to the sealed offset vector instead
    /// of replaying the topic from zero. `None` disables checkpointing.
    #[allow(clippy::type_complexity)]
    pub checkpoint: Option<Arc<dyn Fn(&tstorm::TopologyHandle) + Send + Sync>>,
    /// Cadence of the [`ClusterApp::checkpoint`] hook.
    pub checkpoint_every: std::time::Duration,
    /// App-owned metric registries to export alongside the topology's
    /// own registry in the worker's periodic metrics reports.
    pub registries: Vec<obs::Registry>,
}

impl ClusterApp {
    /// An app with no hooks: just the topology.
    pub fn new(topology: Topology) -> Self {
        ClusterApp {
            topology,
            progress: None,
            drain: None,
            commit: None,
            checkpoint: None,
            checkpoint_every: std::time::Duration::from_millis(500),
            registries: Vec::new(),
        }
    }
}
