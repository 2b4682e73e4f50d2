//! Master servers: route-table ownership and balancing.
//!
//! Two master servers (active + standby) share replicated state; all
//! balancing decisions are made "in the granularity of partition" (§3.2).
//! Producers and consumers ask the master for routes once and then talk to
//! data servers directly.

use crate::broker::BrokerId;
use crate::error::AccessError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

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

#[derive(Debug, Default)]
struct GroupState {
    /// Live member ids, in join order.
    members: Vec<u64>,
    next_member: u64,
}

#[derive(Debug, Default)]
struct StateInner {
    brokers: Vec<BrokerId>,
    /// topic → broker per partition.
    routes: HashMap<String, Vec<BrokerId>>,
    /// topic → group → members. Nested so a lookup borrows its keys.
    groups: HashMap<String, HashMap<String, GroupState>>,
    /// Round-robin cursor for placing new partitions.
    placement_cursor: usize,
}

/// Replicated master state shared by the active and standby servers.
#[derive(Debug, Clone, Default)]
pub struct MasterState {
    inner: Arc<RwLock<StateInner>>,
}

impl MasterState {
    /// Fresh state knowing the given brokers.
    pub fn new(brokers: Vec<BrokerId>) -> Self {
        MasterState {
            inner: Arc::new(RwLock::new(StateInner {
                brokers,
                ..Default::default()
            })),
        }
    }
}

/// One master server. Only the active server fields requests; the standby
/// holds the same [`MasterState`] and takes over on failover.
pub struct MasterServer {
    state: MasterState,
    active: bool,
    started_standby: bool,
}

impl MasterServer {
    /// The initially active master.
    pub fn new_active(state: MasterState) -> Self {
        MasterServer {
            state,
            active: true,
            started_standby: false,
        }
    }

    /// The initially standby master.
    pub fn new_standby(state: MasterState) -> Self {
        MasterServer {
            state,
            active: false,
            started_standby: true,
        }
    }

    /// Promote to active (failover).
    pub fn promote(&mut self) {
        self.active = true;
    }

    /// Demote to standby.
    pub fn demote(&mut self) {
        self.active = false;
    }

    /// Whether this server is currently active.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether this server began life as the standby.
    pub fn started_as_standby(&self) -> bool {
        self.started_standby
    }

    /// Registers a topic, placing its partitions round-robin over brokers.
    /// Returns `(partition, broker)` pairs.
    pub fn create_topic(
        &mut self,
        topic: &str,
        partitions: usize,
    ) -> Result<Vec<(PartitionId, BrokerId)>, AccessError> {
        if partitions == 0 {
            return Err(AccessError::ZeroPartitions(topic.to_string()));
        }
        let mut st = self.state.inner.write();
        if st.routes.contains_key(topic) {
            return Err(AccessError::TopicExists(topic.to_string()));
        }
        let n_brokers = st.brokers.len();
        let mut placement = Vec::with_capacity(partitions);
        let mut routes = Vec::with_capacity(partitions);
        for pid in 0..partitions {
            let broker = st.brokers[(st.placement_cursor + pid) % n_brokers];
            placement.push((pid as PartitionId, broker));
            routes.push(broker);
        }
        st.placement_cursor = (st.placement_cursor + partitions) % n_brokers;
        st.routes.insert(topic.to_string(), routes);
        Ok(placement)
    }

    /// Metadata for a topic.
    pub fn topic_meta(&self, topic: &str) -> Result<TopicMeta, AccessError> {
        let st = self.state.inner.read();
        let routes = st
            .routes
            .get(topic)
            .ok_or_else(|| AccessError::UnknownTopic(topic.to_string()))?;
        Ok(TopicMeta {
            name: topic.to_string(),
            partitions: routes.len() as PartitionId,
        })
    }

    /// Broker hosting `(topic, pid)`.
    pub fn route(&self, topic: &str, pid: PartitionId) -> Result<BrokerId, AccessError> {
        let st = self.state.inner.read();
        let routes = st
            .routes
            .get(topic)
            .ok_or_else(|| AccessError::UnknownTopic(topic.to_string()))?;
        routes
            .get(pid as usize)
            .copied()
            .ok_or_else(|| AccessError::UnknownPartition(topic.to_string(), pid))
    }

    /// Adds a member to a consumer group, returning its member id.
    pub fn join_group(&mut self, topic: &str, group: &str) -> Result<u64, AccessError> {
        // Validate the topic first.
        self.topic_meta(topic)?;
        let mut st = self.state.inner.write();
        let g = st
            .groups
            .entry(topic.to_string())
            .or_default()
            .entry(group.to_string())
            .or_default();
        let id = g.next_member;
        g.next_member += 1;
        g.members.push(id);
        Ok(id)
    }

    /// Removes a member; remaining members absorb its partitions on the
    /// next `group_assignment` call.
    pub fn leave_group(&mut self, topic: &str, group: &str, member: u64) {
        let mut st = self.state.inner.write();
        if let Some(g) = st.groups.get_mut(topic).and_then(|t| t.get_mut(group)) {
            g.members.retain(|&m| m != member);
        }
    }

    /// Partitions assigned to `member`: partition `p` belongs to the
    /// member at position `p % members.len()` (balanced within ±1).
    /// Consumers ask on every poll, so the lookups borrow their keys.
    pub fn group_assignment(
        &self,
        topic: &str,
        group: &str,
        member: u64,
    ) -> Result<Vec<PartitionId>, AccessError> {
        let st = self.state.inner.read();
        let unknown = || AccessError::UnknownTopic(topic.to_string());
        let partitions = st.routes.get(topic).ok_or_else(unknown)?.len();
        let g = st
            .groups
            .get(topic)
            .and_then(|t| t.get(group))
            .ok_or_else(unknown)?;
        let Some(pos) = g.members.iter().position(|&m| m == member) else {
            return Ok(Vec::new());
        };
        Ok((0..partitions as PartitionId)
            .filter(|p| (*p as usize) % g.members.len() == pos)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn master() -> MasterServer {
        MasterServer::new_active(MasterState::new(vec![0, 1, 2]))
    }

    #[test]
    fn partitions_placed_round_robin() {
        let mut m = master();
        let placement = m.create_topic("t", 5).unwrap();
        let brokers: Vec<BrokerId> = placement.iter().map(|&(_, b)| b).collect();
        assert_eq!(brokers, vec![0, 1, 2, 0, 1]);
        // Next topic continues the cursor so load spreads across topics.
        let placement2 = m.create_topic("u", 2).unwrap();
        assert_eq!(placement2[0].1, 2);
    }

    #[test]
    fn zero_partitions_rejected() {
        let mut m = master();
        assert!(matches!(
            m.create_topic("t", 0),
            Err(AccessError::ZeroPartitions(_))
        ));
    }

    #[test]
    fn group_assignment_balances() {
        let mut m = master();
        m.create_topic("t", 6).unwrap();
        let a = m.join_group("t", "g").unwrap();
        let b = m.join_group("t", "g").unwrap();
        let pa = m.group_assignment("t", "g", a).unwrap();
        let pb = m.group_assignment("t", "g", b).unwrap();
        assert_eq!(pa.len(), 3);
        assert_eq!(pb.len(), 3);
        let mut all: Vec<_> = pa.into_iter().chain(pb).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn leave_rebalances_to_survivors() {
        let mut m = master();
        m.create_topic("t", 4).unwrap();
        let a = m.join_group("t", "g").unwrap();
        let b = m.join_group("t", "g").unwrap();
        m.leave_group("t", "g", a);
        let pb = m.group_assignment("t", "g", b).unwrap();
        assert_eq!(pb, vec![0, 1, 2, 3]);
        assert!(m.group_assignment("t", "g", a).unwrap().is_empty());
    }

    #[test]
    fn standby_sees_active_writes() {
        let state = MasterState::new(vec![0, 1]);
        let mut active = MasterServer::new_active(state.clone());
        let standby = MasterServer::new_standby(state);
        active.create_topic("t", 2).unwrap();
        assert_eq!(standby.topic_meta("t").unwrap().partitions, 2);
        assert_eq!(
            standby.route("t", 1).unwrap(),
            active.route("t", 1).unwrap()
        );
    }

    #[test]
    fn route_bounds_checked() {
        let mut m = master();
        m.create_topic("t", 2).unwrap();
        assert!(matches!(
            m.route("t", 5),
            Err(AccessError::UnknownPartition(_, 5))
        ));
        assert!(matches!(m.route("u", 0), Err(AccessError::UnknownTopic(_))));
    }
}
