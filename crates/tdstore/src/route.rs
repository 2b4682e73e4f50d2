//! Route table and config servers.
//!
//! Keys hash to **data instances**; the route table maps each instance to a
//! host data server and a slave data server. Backup is "in the granularity
//! of data instance [so] a data server may be the host server of some data
//! instances but the backup server of others" — which keeps every server
//! serving traffic. A host + backup config-server pair owns the table.

use crate::error::StoreError;
use parking_lot::RwLock;
use std::sync::Arc;

/// Identifier of a data server.
pub type ServerId = u32;
/// Identifier of a data instance (a shard of the key space).
pub type InstanceId = u32;

/// The key hash routing and [`crate::MdbEngine`] sharding both start
/// from: the key folded eight bytes at a time, then avalanched so the
/// router (`hash % instances`) and the engine (high bits) draw on bits
/// that do not determine each other.
pub(crate) fn key_hash(key: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = key.len() as u64;
    let mut words = key.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    // murmur3's 64-bit finalizer.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Hashes byte-string map keys with [`key_hash`], so the crate has one key
/// hash: the router takes it `% instances`, MDB takes its high bits for
/// the shard, and the shard's map takes it — remixed, because every key of
/// one shard agrees on exactly the bits the other two consumed, and a
/// table indexed by those would fill a sliver of its buckets.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHashBuilder;

/// Hasher of [`KeyHashBuilder`]; for `[u8]`-like keys only (one `write`).
#[derive(Debug, Default)]
pub(crate) struct KeyHasher(u64);

impl std::hash::BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::default()
    }
}

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = key_hash(bytes);
    }

    /// The slice length prefix: `key_hash` already folds the length in.
    fn write_usize(&mut self, _: usize) {}

    fn finish(&self) -> u64 {
        // High product bits depend on every bit below them; folding them
        // down gives the table's low index bits and its top tag bits a
        // full-width source whatever the router and the engine fixed.
        let m = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        m ^ (m >> 32)
    }
}

/// Placement of one data instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceRoute {
    /// Serving replica.
    pub host: ServerId,
    /// Backup replica (absent when replication is disabled).
    pub slave: Option<ServerId>,
    /// Bumped on every placement change (failover, slave reassignment).
    /// Queued replication ops carry the generation they were recorded
    /// under; applying one against a newer route would write stale data
    /// to a freshly re-seeded replica.
    pub generation: u64,
}

/// The full instance → servers mapping.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: Vec<InstanceRoute>,
}

impl RouteTable {
    /// Builds a table for `instances` instances over `servers` servers,
    /// striping hosts round-robin and placing each slave on the next
    /// server (so every server hosts some instances and backs up others).
    pub fn new(instances: u32, servers: u32, replicated: bool) -> Self {
        assert!(servers > 0, "need at least one data server");
        let routes = (0..instances)
            .map(|i| InstanceRoute {
                host: i % servers,
                slave: (replicated && servers > 1).then(|| (i + 1) % servers),
                generation: 0,
            })
            .collect();
        RouteTable { routes }
    }

    /// Route for one instance.
    pub fn get(&self, instance: InstanceId) -> Result<&InstanceRoute, StoreError> {
        self.routes
            .get(instance as usize)
            .ok_or(StoreError::UnknownInstance(instance))
    }

    /// Number of instances.
    pub fn instances(&self) -> u32 {
        self.routes.len() as u32
    }

    /// Instance for a key: key hash mod instance count.
    pub fn instance_for(&self, key: &[u8]) -> InstanceId {
        (key_hash(key) % self.routes.len() as u64) as InstanceId
    }

    fn set(&mut self, instance: InstanceId, route: InstanceRoute) {
        self.routes[instance as usize] = route;
    }

    /// Instances hosted by `server`.
    pub fn hosted_by(&self, server: ServerId) -> Vec<InstanceId> {
        self.routes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.host == server)
            .map(|(i, _)| i as InstanceId)
            .collect()
    }

    /// Instances backed up by `server`.
    pub fn backed_by(&self, server: ServerId) -> Vec<InstanceId> {
        self.routes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.slave == Some(server))
            .map(|(i, _)| i as InstanceId)
            .collect()
    }
}

/// Shared state of the config-server pair (host + backup see the same
/// table, so failover of the config server itself loses nothing).
#[derive(Clone)]
pub struct ConfigServers {
    table: Arc<RwLock<RouteTable>>,
}

impl ConfigServers {
    /// Wraps an initial route table.
    pub fn new(table: RouteTable) -> Self {
        ConfigServers {
            table: Arc::new(RwLock::new(table)),
        }
    }

    /// Snapshot of the route table (what a client caches after "query the
    /// host config server to get the route table").
    pub fn route_table(&self) -> RouteTable {
        self.table.read().clone()
    }

    /// Route for one instance.
    pub fn route(&self, instance: InstanceId) -> Result<InstanceRoute, StoreError> {
        self.table.read().get(instance).cloned()
    }

    /// Instance for a key.
    pub fn instance_for(&self, key: &[u8]) -> InstanceId {
        self.table.read().instance_for(key)
    }

    /// Number of instances.
    pub fn instances(&self) -> u32 {
        self.table.read().instances()
    }

    /// Handles the failure of data server `failed`: every instance hosted
    /// there is failed over to its slave (which becomes the host), and a
    /// new slave is chosen among `alive` servers when possible. Returns
    /// `(instance, new_host, new_slave)` for each affected instance so the
    /// store can re-replicate data.
    pub fn fail_server(
        &self,
        failed: ServerId,
        alive: &[ServerId],
    ) -> Result<Vec<(InstanceId, ServerId, Option<ServerId>)>, StoreError> {
        let mut table = self.table.write();
        let mut changed = Vec::new();
        for instance in table.hosted_by(failed) {
            let route = table.get(instance)?.clone();
            let new_host = route.slave.ok_or(StoreError::InstanceLost(instance))?;
            if !alive.contains(&new_host) {
                return Err(StoreError::InstanceLost(instance));
            }
            let new_slave = alive
                .iter()
                .copied()
                .find(|&s| s != new_host)
                .filter(|_| alive.len() > 1);
            table.set(
                instance,
                InstanceRoute {
                    host: new_host,
                    slave: new_slave,
                    generation: route.generation + 1,
                },
            );
            changed.push((instance, new_host, new_slave));
        }
        // Instances that used `failed` as slave lose their backup until a
        // new slave is assigned.
        for instance in table.backed_by(failed) {
            let route = table.get(instance)?.clone();
            let new_slave = alive.iter().copied().find(|&s| s != route.host);
            table.set(
                instance,
                InstanceRoute {
                    host: route.host,
                    slave: new_slave,
                    generation: route.generation + 1,
                },
            );
            if let Some(ns) = new_slave {
                changed.push((instance, route.host, Some(ns)));
            }
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_placement_uses_every_server() {
        let t = RouteTable::new(8, 4, true);
        for s in 0..4 {
            assert_eq!(t.hosted_by(s).len(), 2);
            assert_eq!(t.backed_by(s).len(), 2);
        }
        // Host and slave always differ.
        for i in 0..8 {
            let r = t.get(i).unwrap();
            assert_ne!(Some(r.host), r.slave);
        }
    }

    #[test]
    fn single_server_has_no_slave() {
        let t = RouteTable::new(4, 1, true);
        assert_eq!(t.get(0).unwrap().slave, None);
    }

    #[test]
    fn key_hash_is_stable_and_in_range() {
        let t = RouteTable::new(16, 4, false);
        let a = t.instance_for(b"user:42");
        let b = t.instance_for(b"user:42");
        assert_eq!(a, b);
        assert!(a < 16);
    }

    #[test]
    fn fail_server_promotes_slaves() {
        let cfg = ConfigServers::new(RouteTable::new(8, 4, true));
        let changed = cfg.fail_server(0, &[1, 2, 3]).unwrap();
        assert!(!changed.is_empty());
        let table = cfg.route_table();
        assert!(table.hosted_by(0).is_empty());
        assert!(table.backed_by(0).is_empty());
        for i in 0..8 {
            let r = table.get(i).unwrap();
            assert_ne!(r.host, 0);
            assert_ne!(r.slave, Some(0));
            assert_ne!(Some(r.host), r.slave);
        }
    }

    #[test]
    fn fail_server_bumps_generation_of_changed_routes() {
        let cfg = ConfigServers::new(RouteTable::new(8, 4, true));
        let before = cfg.route_table();
        cfg.fail_server(0, &[1, 2, 3]).unwrap();
        let after = cfg.route_table();
        for i in 0..8 {
            let (old, new) = (before.get(i).unwrap(), after.get(i).unwrap());
            if old.host == 0 || old.slave == Some(0) {
                assert_eq!(new.generation, old.generation + 1, "instance {i}");
            } else {
                assert_eq!(new.generation, old.generation, "instance {i} untouched");
            }
        }
    }

    #[test]
    fn fail_unreplicated_instance_is_lost() {
        let cfg = ConfigServers::new(RouteTable::new(4, 2, false));
        assert!(matches!(
            cfg.fail_server(0, &[1]),
            Err(StoreError::InstanceLost(_))
        ));
    }

    #[test]
    fn unknown_instance_errors() {
        let t = RouteTable::new(2, 1, false);
        assert!(matches!(t.get(9), Err(StoreError::UnknownInstance(9))));
    }
}
