//! Data servers: hosts of data-instance replicas.

use crate::engine::MdbEngine;
use crate::error::StoreError;
use crate::route::{InstanceId, ServerId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A data server holding engine replicas for the instances routed to it
/// (as host for some, slave for others).
pub struct DataServer {
    id: ServerId,
    alive: AtomicBool,
    replicas: RwLock<HashMap<InstanceId, Arc<MdbEngine>>>,
}

impl DataServer {
    /// New empty server.
    pub fn new(id: ServerId) -> Self {
        DataServer {
            id,
            alive: AtomicBool::new(true),
            replicas: RwLock::new(HashMap::new()),
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Whether the server answers requests.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Simulates a crash. Replica data is dropped (memory engines lose
    /// state), which is exactly why the paper stores status data with
    /// per-instance backups.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        self.replicas.write().clear();
    }

    /// Restarts the server empty.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// Creates (or keeps) the replica engine for `instance`.
    pub fn ensure_replica(&self, instance: InstanceId) {
        self.replicas
            .write()
            .entry(instance)
            .or_insert_with(|| Arc::new(MdbEngine::new(16)));
    }

    /// The replica engine for `instance`.
    pub fn replica(&self, instance: InstanceId) -> Result<Arc<MdbEngine>, StoreError> {
        if !self.is_alive() {
            return Err(StoreError::ServerDown(self.id));
        }
        self.replicas
            .read()
            .get(&instance)
            .cloned()
            .ok_or(StoreError::UnknownInstance(instance))
    }

    /// Number of replicas this server holds.
    pub fn replica_count(&self) -> usize {
        self.replicas.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StorageEngine;

    #[test]
    fn replicas_created_on_demand() {
        let s = DataServer::new(1);
        s.ensure_replica(3);
        s.ensure_replica(3);
        assert_eq!(s.replica_count(), 1);
        let e = s.replica(3).unwrap();
        e.put(b"k", vec![9]);
        // ensure_replica must not clobber existing data
        s.ensure_replica(3);
        assert_eq!(s.replica(3).unwrap().get(b"k"), Some(vec![9]));
    }

    #[test]
    fn dead_server_refuses_requests_and_loses_data() {
        let s = DataServer::new(0);
        s.ensure_replica(0);
        s.replica(0).unwrap().put(b"k", vec![1]);
        s.kill();
        assert!(matches!(s.replica(0), Err(StoreError::ServerDown(0))));
        s.revive();
        assert!(matches!(s.replica(0), Err(StoreError::UnknownInstance(0))));
    }
}
