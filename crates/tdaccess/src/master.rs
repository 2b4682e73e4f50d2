//! The master's route table: which broker hosts each partition.
//!
//! Balancing is done "in the granularity of partition" (§3.2): a new
//! topic's partitions are placed round-robin over the brokers, and
//! producers and consumers look a route up here and then talk to the data
//! server directly. Which consumer reads a partition is not the master's
//! business: a consumer's slice is a pure function of its
//! `(worker_index, n_workers)` ([`crate::AccessCluster::consumer_pinned`]),
//! so no member joins, leaves or rebalances and no coordination is kept.

use crate::broker::BrokerId;
use crate::error::AccessError;
use std::collections::HashMap;

/// Identifier of a partition within a topic.
pub type PartitionId = u32;

/// Topic metadata returned to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicMeta {
    /// Topic name.
    pub name: String,
    /// Number of partitions.
    pub partitions: PartitionId,
}

/// Topic → broker per partition, over brokers `0..n_brokers`.
#[derive(Debug)]
pub(crate) struct RouteTable {
    n_brokers: usize,
    routes: HashMap<String, Vec<BrokerId>>,
    /// Round-robin cursor for placing new partitions.
    placement_cursor: usize,
}

impl RouteTable {
    pub(crate) fn new(n_brokers: usize) -> Self {
        RouteTable {
            n_brokers,
            routes: HashMap::new(),
            placement_cursor: 0,
        }
    }

    /// Registers a topic, placing its partitions round-robin over brokers.
    /// Returns the broker of each partition, indexed by partition id.
    pub(crate) fn create_topic(
        &mut self,
        topic: &str,
        partitions: usize,
    ) -> Result<Vec<BrokerId>, AccessError> {
        if partitions == 0 {
            return Err(AccessError::ZeroPartitions(topic.to_string()));
        }
        if self.routes.contains_key(topic) {
            return Err(AccessError::TopicExists(topic.to_string()));
        }
        let routes: Vec<BrokerId> = (0..partitions)
            .map(|pid| ((self.placement_cursor + pid) % self.n_brokers) as BrokerId)
            .collect();
        self.placement_cursor = (self.placement_cursor + partitions) % self.n_brokers;
        self.routes.insert(topic.to_string(), routes.clone());
        Ok(routes)
    }

    fn routes(&self, topic: &str) -> Result<&[BrokerId], AccessError> {
        self.routes
            .get(topic)
            .map(Vec::as_slice)
            .ok_or_else(|| AccessError::UnknownTopic(topic.to_string()))
    }

    /// Metadata for a topic.
    pub(crate) fn topic_meta(&self, topic: &str) -> Result<TopicMeta, AccessError> {
        Ok(TopicMeta {
            name: topic.to_string(),
            partitions: self.routes(topic)?.len() as PartitionId,
        })
    }

    /// Broker hosting `(topic, pid)`.
    pub(crate) fn route(&self, topic: &str, pid: PartitionId) -> Result<BrokerId, AccessError> {
        self.routes(topic)?
            .get(pid as usize)
            .copied()
            .ok_or_else(|| AccessError::UnknownPartition(topic.to_string(), pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_placed_round_robin() {
        let mut m = RouteTable::new(3);
        assert_eq!(m.create_topic("t", 5).unwrap(), vec![0, 1, 2, 0, 1]);
        // Next topic continues the cursor so load spreads across topics.
        assert_eq!(m.create_topic("u", 2).unwrap(), vec![2, 0]);
    }

    #[test]
    fn zero_partitions_rejected() {
        let mut m = RouteTable::new(3);
        assert!(matches!(
            m.create_topic("t", 0),
            Err(AccessError::ZeroPartitions(_))
        ));
    }

    #[test]
    fn route_bounds_checked() {
        let mut m = RouteTable::new(3);
        m.create_topic("t", 2).unwrap();
        assert!(matches!(
            m.route("t", 5),
            Err(AccessError::UnknownPartition(_, 5))
        ));
        assert!(matches!(m.route("u", 0), Err(AccessError::UnknownTopic(_))));
    }
}
