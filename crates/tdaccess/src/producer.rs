//! Producer: key-hash or round-robin partitioning, direct broker writes.

use crate::error::AccessError;
use crate::master::{PartitionId, TopicMeta};
use crate::{AccessCluster, AppendSignal};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A producer handle for one topic. Clones share the round-robin cursor.
pub struct Producer {
    cluster: AccessCluster,
    meta: TopicMeta,
    signal: Arc<AppendSignal>,
    rr: AtomicU64,
    clock_ms: AtomicU64,
    /// Per-partition `tdaccess_produced_total` counters, indexed by pid.
    produced: Vec<obs::Counter>,
}

impl Producer {
    pub(crate) fn new(cluster: AccessCluster, meta: TopicMeta, signal: Arc<AppendSignal>) -> Self {
        let produced = (0..meta.partitions)
            .map(|pid| {
                let partition = pid.to_string();
                cluster.registry().counter(
                    "tdaccess_produced_total",
                    &[("topic", &meta.name), ("partition", &partition)],
                    "Messages appended per topic partition",
                )
            })
            .collect();
        Producer {
            cluster,
            meta,
            signal,
            rr: AtomicU64::new(0),
            clock_ms: AtomicU64::new(0),
            produced,
        }
    }

    /// FNV-1a over the key, matching partition stickiness to key equality.
    fn partition_for(&self, key: Option<&[u8]>) -> PartitionId {
        match key {
            Some(k) => {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in k {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                (h % self.meta.partitions as u64) as PartitionId
            }
            None => {
                (self.rr.fetch_add(1, Ordering::Relaxed) % self.meta.partitions as u64)
                    as PartitionId
            }
        }
    }

    /// Sends a record; returns `(partition, offset)`. Keyed records always
    /// land in the same partition (preserving per-key order); unkeyed
    /// records round-robin.
    pub fn send(
        &self,
        key: Option<&[u8]>,
        payload: &[u8],
    ) -> Result<(PartitionId, u64), AccessError> {
        let ts = self.clock_ms.fetch_add(1, Ordering::Relaxed);
        self.send_at(key, payload, ts)
    }

    /// Sends a record with an explicit timestamp. Once the record is
    /// readable (the broker lock released), calls the topic's append
    /// listeners on this thread.
    pub fn send_at(
        &self,
        key: Option<&[u8]>,
        payload: &[u8],
        timestamp_ms: u64,
    ) -> Result<(PartitionId, u64), AccessError> {
        let pid = self.partition_for(key);
        let broker_id = self.cluster.route(&self.meta.name, pid)?;
        let broker = self.cluster.broker(broker_id)?;
        let offset = broker.append(
            &self.meta.name,
            pid,
            key.map(Bytes::copy_from_slice),
            Bytes::copy_from_slice(payload),
            timestamp_ms,
        )?;
        if let Some(c) = self.produced.get(pid as usize) {
            c.inc();
        }
        self.signal.fire();
        Ok((pid, offset))
    }

    /// The topic this producer writes to.
    pub fn topic(&self) -> &str {
        &self.meta.name
    }
}

#[cfg(test)]
mod tests {
    use crate::{AccessCluster, ClusterConfig};

    #[test]
    fn keyed_sends_are_sticky() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 8).unwrap();
        let p = cluster.producer("t").unwrap();
        let (pid1, _) = p.send(Some(b"alpha"), b"1").unwrap();
        let (pid2, _) = p.send(Some(b"alpha"), b"2").unwrap();
        assert_eq!(pid1, pid2);
    }

    #[test]
    fn unkeyed_sends_round_robin() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 4).unwrap();
        let p = cluster.producer("t").unwrap();
        let pids: Vec<_> = (0..8).map(|_| p.send(None, b"x").unwrap().0).collect();
        assert_eq!(pids, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn offsets_increase_per_partition() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 1).unwrap();
        let p = cluster.producer("t").unwrap();
        let offsets: Vec<_> = (0..5).map(|_| p.send(None, b"x").unwrap().1).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 4]);
    }
}
