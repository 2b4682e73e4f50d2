//! Data servers: shared-nothing hosts of partition logs.

use crate::error::AccessError;
use crate::master::PartitionId;
use crate::message::Message;
use crate::segment::{Partition, SegmentConfig};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Identifier of a data server.
pub type BrokerId = u32;

/// A data server ("data servers are responsible for data cache and the
/// data's publish and subscribe"). Brokers do not share data; the master
/// owns placement.
pub struct Broker {
    id: BrokerId,
    /// topic → partition → log.
    partitions: Mutex<HashMap<String, HashMap<PartitionId, Partition>>>,
}

impl Broker {
    /// New empty broker.
    pub fn new(id: BrokerId) -> Self {
        Broker {
            id,
            partitions: Mutex::new(HashMap::new()),
        }
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// Hosts a new partition of `topic`.
    pub fn create_partition(&self, topic: &str, pid: PartitionId, config: SegmentConfig) {
        let mut parts = self.partitions.lock();
        parts
            .entry(topic.to_string())
            .or_default()
            .entry(pid)
            .or_insert_with(|| Partition::new(&format!("{topic}-{pid}"), config));
    }

    /// Runs `f` on a hosted partition under the broker lock. The lookup
    /// borrows `topic`: a hit allocates nothing.
    fn with_partition<R>(
        &self,
        topic: &str,
        pid: PartitionId,
        f: impl FnOnce(&mut Partition) -> Result<R, AccessError>,
    ) -> Result<R, AccessError> {
        let mut parts = self.partitions.lock();
        let part = parts
            .get_mut(topic)
            .and_then(|t| t.get_mut(&pid))
            .ok_or_else(|| AccessError::UnknownPartition(topic.to_string(), pid))?;
        f(part)
    }

    /// Appends a record to a hosted partition.
    pub fn append(
        &self,
        topic: &str,
        pid: PartitionId,
        key: Option<Bytes>,
        payload: Bytes,
        timestamp_ms: u64,
    ) -> Result<u64, AccessError> {
        self.with_partition(topic, pid, |p| p.append(key, payload, timestamp_ms))
    }

    /// Reads up to `max` messages from offset `from` of a hosted partition.
    pub fn read(
        &self,
        topic: &str,
        pid: PartitionId,
        from: u64,
        max: usize,
    ) -> Result<Vec<Message>, AccessError> {
        self.with_partition(topic, pid, |p| p.read(from, max))
    }

    /// End offset (= retained message count) of a hosted partition.
    pub fn partition_end_offset(&self, topic: &str, pid: PartitionId) -> Result<u64, AccessError> {
        self.with_partition(topic, pid, |p| Ok(p.end_offset()))
    }

    /// Start offset (oldest retained offset) of a hosted partition.
    pub fn partition_start_offset(
        &self,
        topic: &str,
        pid: PartitionId,
    ) -> Result<u64, AccessError> {
        self.with_partition(topic, pid, |p| Ok(p.start_offset()))
    }

    /// Records that `group` has durably consumed everything below
    /// `offset` in a hosted partition. See [`Partition::commit_group_offset`].
    pub fn commit_group_offset(
        &self,
        topic: &str,
        pid: PartitionId,
        group: &str,
        offset: u64,
    ) -> Result<(), AccessError> {
        self.with_partition(topic, pid, |p| {
            p.commit_group_offset(group, offset);
            Ok(())
        })
    }

    /// Truncates head segments of a hosted partition wholly below `upto`,
    /// clamped to the slowest committed group. Returns segments removed.
    pub fn truncate_before(
        &self,
        topic: &str,
        pid: PartitionId,
        upto: u64,
    ) -> Result<usize, AccessError> {
        self.with_partition(topic, pid, |p| p.truncate_before(upto))
    }

    /// Number of partitions this broker hosts.
    pub fn partition_count(&self) -> usize {
        self.partitions.lock().values().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broker_hosts_partitions() {
        let b = Broker::new(0);
        b.create_partition("t", 0, SegmentConfig::default());
        b.create_partition("t", 1, SegmentConfig::default());
        assert_eq!(b.partition_count(), 2);
        let off = b.append("t", 0, None, Bytes::from_static(b"x"), 0).unwrap();
        assert_eq!(off, 0);
        assert_eq!(b.read("t", 0, 0, 10).unwrap().len(), 1);
        assert_eq!(b.partition_end_offset("t", 0).unwrap(), 1);
        assert_eq!(b.partition_end_offset("t", 1).unwrap(), 0);
    }

    #[test]
    fn unknown_partition_errors() {
        let b = Broker::new(0);
        assert!(matches!(
            b.append("t", 9, None, Bytes::new(), 0),
            Err(AccessError::UnknownPartition(_, 9))
        ));
        assert!(matches!(
            b.read("t", 9, 0, 1),
            Err(AccessError::UnknownPartition(_, 9))
        ));
    }

    #[test]
    fn create_partition_is_idempotent() {
        let b = Broker::new(0);
        b.create_partition("t", 0, SegmentConfig::default());
        b.append("t", 0, None, Bytes::from_static(b"x"), 0).unwrap();
        b.create_partition("t", 0, SegmentConfig::default());
        assert_eq!(b.partition_end_offset("t", 0).unwrap(), 1, "data preserved");
    }
}
