#![warn(missing_docs)]
//! # tdaccess — Tencent Data Access
//!
//! Reproduction of the paper's TDAccess component (§3.2): a unified
//! publish/subscribe layer decoupling data sources from the stream
//! processing system.
//!
//! * Topics are split into **partitions** spread over **data servers**
//!   (brokers); producers and consumers work in partition parallelism.
//! * Data servers share nothing; an active/standby **master** pair keeps
//!   the route table and balances partitions over brokers and consumers.
//! * Partitions are **segmented append-only logs**. Unlike a transient
//!   message queue, data is retained (optionally spilled to disk with
//!   sequential reads/writes) so late or offline consumers can replay —
//!   the paper's "unconditional availability".
//! * Consumer groups track per-partition offsets; within a partition,
//!   delivery order equals append order.
//!
//! ```
//! use tdaccess::{AccessCluster, ClusterConfig};
//! let cluster = AccessCluster::new(ClusterConfig { brokers: 3, ..Default::default() });
//! cluster.create_topic("user_actions", 4).unwrap();
//! let producer = cluster.producer("user_actions").unwrap();
//! producer.send(Some(b"user42"), b"clicked item 7").unwrap();
//! let mut consumer = cluster.consumer("user_actions", "recommender").unwrap();
//! let batch = consumer.poll(10).unwrap();
//! assert_eq!(batch.len(), 1);
//! assert_eq!(&batch[0].payload[..], b"clicked item 7");
//! ```

mod broker;
mod consumer;
mod error;
mod master;
mod message;
mod producer;
mod segment;

pub use broker::{Broker, BrokerId};
pub use consumer::Consumer;
pub use error::AccessError;
pub use master::{MasterServer, MasterState, PartitionId, TopicMeta};
pub use message::Message;
pub use producer::Producer;
pub use segment::{Partition, Segment, SegmentConfig};

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A callback fired after every append to a topic, on the producing
/// thread (see [`Consumer::on_append`]).
pub type AppendListener = Arc<dyn Fn() + Send + Sync>;

/// One topic's append signal: the listeners its consumers registered,
/// shared by every producer and consumer handle of the topic.
#[derive(Default)]
pub(crate) struct AppendSignal {
    listeners: RwLock<Vec<(u64, AppendListener)>>,
    next_id: AtomicU64,
}

impl AppendSignal {
    /// Registers `listener`; the id unregisters it.
    pub(crate) fn subscribe(&self, listener: AppendListener) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.listeners.write().push((id, listener));
        id
    }

    pub(crate) fn unsubscribe(&self, id: u64) {
        self.listeners.write().retain(|(i, _)| *i != id);
    }

    /// Calls every listener. With none registered this is one read of an
    /// empty list.
    pub(crate) fn fire(&self) {
        for (_, listener) in self.listeners.read().iter() {
            listener();
        }
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data servers.
    pub brokers: usize,
    /// Segment sizing/spill behaviour for every partition.
    pub segment: SegmentConfig,
    /// Fault-injection plan for chaos testing ([`tchaos::FaultPlan::none`]
    /// by default — zero cost when disabled). Sites: `PollStall` makes a
    /// consumer poll return empty, `TornBatch` truncates a polled batch.
    pub fault_plan: tchaos::FaultPlan,
    /// Metric registry for produce/consume counters and consumer lag.
    /// Share one registry across components to get a single exposition.
    pub metrics: obs::Registry,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            brokers: 2,
            segment: SegmentConfig::default(),
            fault_plan: tchaos::FaultPlan::none(),
            metrics: obs::Registry::new(),
        }
    }
}

/// An in-process TDAccess cluster: brokers plus an active/standby master
/// pair. Cheap to clone (shared state).
#[derive(Clone)]
pub struct AccessCluster {
    inner: Arc<ClusterInner>,
}

struct ClusterInner {
    brokers: Vec<Broker>,
    /// Index 0 = active, 1 = standby; swapped on failover.
    masters: RwLock<[MasterServer; 2]>,
    /// topic → its append signal, created with the topic's first handle.
    signals: RwLock<HashMap<String, Arc<AppendSignal>>>,
    segment: SegmentConfig,
    fault_plan: tchaos::FaultPlan,
    metrics: obs::Registry,
}

impl AccessCluster {
    /// Builds a cluster with `config.brokers` data servers.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.brokers > 0, "need at least one broker");
        let brokers: Vec<Broker> = (0..config.brokers)
            .map(|i| Broker::new(i as BrokerId))
            .collect();
        let broker_ids: Vec<BrokerId> = brokers.iter().map(|b| b.id()).collect();
        let state = MasterState::new(broker_ids);
        let masters = [
            MasterServer::new_active(state.clone()),
            MasterServer::new_standby(state),
        ];
        AccessCluster {
            inner: Arc::new(ClusterInner {
                brokers,
                masters: RwLock::new(masters),
                signals: RwLock::new(HashMap::new()),
                segment: config.segment,
                fault_plan: config.fault_plan,
                metrics: config.metrics,
            }),
        }
    }

    /// Registers a topic with `partitions` partitions, assigning each to a
    /// broker via the active master.
    pub fn create_topic(&self, topic: &str, partitions: usize) -> Result<(), AccessError> {
        let assignment = {
            let mut masters = self.inner.masters.write();
            masters[0].create_topic(topic, partitions)?
        };
        for (pid, broker_id) in assignment {
            self.broker(broker_id)?
                .create_partition(topic, pid, self.inner.segment.clone());
        }
        Ok(())
    }

    /// The append signal of `topic`, which the caller has checked exists.
    fn signal(&self, topic: &str) -> Arc<AppendSignal> {
        let mut signals = self.inner.signals.write();
        Arc::clone(signals.entry(topic.to_string()).or_default())
    }

    /// A producer handle for `topic`.
    pub fn producer(&self, topic: &str) -> Result<Producer, AccessError> {
        let meta = self.topic_meta(topic)?;
        Ok(Producer::new(self.clone(), meta, self.signal(topic)))
    }

    /// A consumer handle for `topic` in consumer `group`. Each handle is a
    /// group *member*; partitions are balanced over the group's members by
    /// the master.
    pub fn consumer(&self, topic: &str, group: &str) -> Result<Consumer, AccessError> {
        let meta = self.topic_meta(topic)?;
        let member = {
            let mut masters = self.inner.masters.write();
            masters[0].join_group(topic, group)?
        };
        Ok(Consumer::new(
            self.clone(),
            meta,
            self.signal(topic),
            group.to_string(),
            member,
            None,
        ))
    }

    /// A consumer pinned to a fixed slice of `topic`'s partitions: worker
    /// `worker_index` of `n_workers` reads exactly the partitions `p` with
    /// `p % n_workers == worker_index`. The slice is a pure function of the
    /// arguments, so a restarted worker resumes its predecessor's
    /// partitions without a group rebalance (no master assignment, no
    /// group join/leave). Replay then only has to rewind this worker's own
    /// offsets.
    ///
    /// # Panics
    ///
    /// Panics when `n_workers` is zero or `worker_index >= n_workers`.
    pub fn consumer_pinned(
        &self,
        topic: &str,
        group: &str,
        worker_index: usize,
        n_workers: usize,
    ) -> Result<Consumer, AccessError> {
        assert!(
            n_workers > 0 && worker_index < n_workers,
            "worker_index {worker_index} out of range for {n_workers} workers"
        );
        let meta = self.topic_meta(topic)?;
        let pinned: Vec<PartitionId> = (0..meta.partitions)
            .filter(|p| *p as usize % n_workers == worker_index)
            .collect();
        Ok(Consumer::new(
            self.clone(),
            meta,
            self.signal(topic),
            group.to_string(),
            worker_index as u64,
            Some(pinned),
        ))
    }

    /// Current metadata for `topic`.
    pub fn topic_meta(&self, topic: &str) -> Result<TopicMeta, AccessError> {
        self.inner.masters.read()[0].topic_meta(topic)
    }

    /// Partition assignment for one member of a consumer group.
    pub(crate) fn group_assignment(
        &self,
        topic: &str,
        group: &str,
        member: u64,
    ) -> Result<Vec<PartitionId>, AccessError> {
        self.inner.masters.read()[0].group_assignment(topic, group, member)
    }

    /// Removes a member from a consumer group (rebalances the rest).
    pub(crate) fn leave_group(&self, topic: &str, group: &str, member: u64) {
        let mut masters = self.inner.masters.write();
        masters[0].leave_group(topic, group, member);
    }

    pub(crate) fn fault_plan(&self) -> &tchaos::FaultPlan {
        &self.inner.fault_plan
    }

    /// The cluster's metric registry (`tdaccess_*` families).
    pub fn registry(&self) -> &obs::Registry {
        &self.inner.metrics
    }

    pub(crate) fn broker(&self, id: BrokerId) -> Result<&Broker, AccessError> {
        self.inner
            .brokers
            .get(id as usize)
            .filter(|b| b.is_alive())
            .ok_or(AccessError::BrokerUnavailable(id))
    }

    /// Broker hosting a given partition, per the active master's routes.
    pub(crate) fn route(&self, topic: &str, pid: PartitionId) -> Result<BrokerId, AccessError> {
        self.inner.masters.read()[0].route(topic, pid)
    }

    /// Kills the active master; the standby takes over with the shared
    /// replicated state ("an active server and a standby server").
    pub fn fail_over_master(&self) {
        let mut masters = self.inner.masters.write();
        masters.swap(0, 1);
        masters[0].promote();
        masters[1].demote();
    }

    /// Whether the currently active master started as the standby.
    pub fn active_master_is_former_standby(&self) -> bool {
        self.inner.masters.read()[0].started_as_standby()
    }

    /// Number of brokers.
    pub fn broker_count(&self) -> usize {
        self.inner.brokers.len()
    }

    /// Records durable replay floors for consumer `group`: for each
    /// `(partition, offset)` pair, the group promises it will never again
    /// need offsets below `offset` of that partition (it has checkpointed
    /// past them). Floors only move forward. Log compaction
    /// ([`AccessCluster::truncate_topic_before`]) is clamped to the
    /// slowest group's floor, so committing is what makes truncation
    /// possible — and not committing is what makes it safe.
    pub fn commit_group_offsets(
        &self,
        topic: &str,
        group: &str,
        offsets: &[(PartitionId, u64)],
    ) -> Result<(), AccessError> {
        for &(pid, offset) in offsets {
            let broker = self.broker(self.route(topic, pid)?)?;
            broker.commit_group_offset(topic, pid, group, offset)?;
        }
        Ok(())
    }

    /// Compacts `topic`: for each `(partition, offset)` pair, drops head
    /// segments wholly below `offset`, clamped per partition to the
    /// minimum committed floor across all consumer groups (a partition
    /// with no committed groups is never truncated). Returns the total
    /// number of segments removed and adds it to the
    /// `tdaccess_truncated_segments` counter per partition.
    pub fn truncate_topic_before(
        &self,
        topic: &str,
        offsets: &[(PartitionId, u64)],
    ) -> Result<usize, AccessError> {
        let mut total = 0usize;
        for &(pid, upto) in offsets {
            let broker = self.broker(self.route(topic, pid)?)?;
            let removed = broker.truncate_before(topic, pid, upto)?;
            if removed > 0 {
                let partition = pid.to_string();
                self.inner
                    .metrics
                    .counter(
                        "tdaccess_truncated_segments",
                        &[("topic", topic), ("partition", &partition)],
                        "Log segments removed by compaction.",
                    )
                    .add(removed as u64);
            }
            total += removed;
        }
        Ok(total)
    }

    /// Oldest retained offset of every partition of `topic` (ascending by
    /// partition id). Reads below these fail with [`AccessError::Compacted`].
    pub fn topic_start_offsets(&self, topic: &str) -> Result<Vec<(PartitionId, u64)>, AccessError> {
        let meta = self.topic_meta(topic)?;
        let mut out = Vec::with_capacity(meta.partitions as usize);
        for pid in 0..meta.partitions {
            let broker = self.broker(self.route(topic, pid)?)?;
            out.push((pid, broker.partition_start_offset(topic, pid)?));
        }
        Ok(out)
    }

    /// Total number of messages retained across all partitions of `topic`.
    pub fn topic_len(&self, topic: &str) -> Result<u64, AccessError> {
        let meta = self.topic_meta(topic)?;
        let mut total = 0;
        for pid in 0..meta.partitions {
            let broker = self.broker(self.route(topic, pid)?)?;
            total += broker.partition_end_offset(topic, pid)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_produce_consume() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 3).unwrap();
        let producer = cluster.producer("t").unwrap();
        for i in 0..100u32 {
            producer
                .send(Some(&i.to_le_bytes()), format!("m{i}").as_bytes())
                .unwrap();
        }
        let mut consumer = cluster.consumer("t", "g").unwrap();
        let mut got = Vec::new();
        loop {
            let batch = consumer.poll(17).unwrap();
            if batch.is_empty() {
                break;
            }
            got.extend(batch);
        }
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn keyed_messages_preserve_order() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 4).unwrap();
        let producer = cluster.producer("t").unwrap();
        for i in 0..50u32 {
            producer.send(Some(b"same-key"), &i.to_le_bytes()).unwrap();
        }
        let mut consumer = cluster.consumer("t", "g").unwrap();
        let mut seen = Vec::new();
        loop {
            let batch = consumer.poll(8).unwrap();
            if batch.is_empty() {
                break;
            }
            for m in batch {
                seen.push(u32::from_le_bytes(m.payload[..4].try_into().unwrap()));
            }
        }
        assert_eq!(seen, (0..50).collect::<Vec<_>>(), "per-key order broken");
    }

    #[test]
    fn independent_groups_see_all_messages() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 2).unwrap();
        let producer = cluster.producer("t").unwrap();
        for i in 0..10u32 {
            producer.send(None, &i.to_le_bytes()).unwrap();
        }
        let mut a = cluster.consumer("t", "ga").unwrap();
        let mut b = cluster.consumer("t", "gb").unwrap();
        assert_eq!(a.poll(100).unwrap().len(), 10);
        assert_eq!(b.poll(100).unwrap().len(), 10);
    }

    #[test]
    fn master_failover_preserves_routes() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 3).unwrap();
        let producer = cluster.producer("t").unwrap();
        producer.send(Some(b"k"), b"before").unwrap();
        cluster.fail_over_master();
        assert!(cluster.active_master_is_former_standby());
        producer.send(Some(b"k"), b"after").unwrap();
        let mut c = cluster.consumer("t", "g").unwrap();
        let mut msgs = Vec::new();
        loop {
            let batch = c.poll(10).unwrap();
            if batch.is_empty() {
                break;
            }
            msgs.extend(batch);
        }
        assert_eq!(msgs.len(), 2);
    }

    #[test]
    fn duplicate_topic_rejected() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 1).unwrap();
        assert!(matches!(
            cluster.create_topic("t", 1),
            Err(AccessError::TopicExists(_))
        ));
    }

    #[test]
    fn registry_tracks_produce_consume_and_lag() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 2).unwrap();
        let producer = cluster.producer("t").unwrap();
        for i in 0..10u32 {
            producer.send(None, &i.to_le_bytes()).unwrap();
        }
        let registry = cluster.registry();
        let produced: u64 = (0..2)
            .map(|pid| {
                let p = pid.to_string();
                registry
                    .counter_value(
                        "tdaccess_produced_total",
                        &[("topic", "t"), ("partition", &p)],
                    )
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(produced, 10);

        let mut consumer = cluster.consumer("t", "g").unwrap();
        consumer.poll(4).unwrap();
        fn labels_for(pid: &str) -> [(&str, &str); 3] {
            [("topic", "t"), ("group", "g"), ("partition", pid)]
        }
        let consumed: u64 = ["0", "1"]
            .iter()
            .map(|p| {
                registry
                    .counter_value("tdaccess_consumed_total", &labels_for(p))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(consumed, 4);
        while !consumer.poll(100).unwrap().is_empty() {}
        let lag: f64 = ["0", "1"]
            .iter()
            .map(|p| {
                registry
                    .gauge_value("tdaccess_consumer_lag", &labels_for(p))
                    .unwrap_or(f64::NAN)
            })
            .sum();
        assert_eq!(lag, 0.0, "fully drained consumer reports zero lag");
        let text = registry.render();
        assert!(text.contains("tdaccess_produced_total"));
        assert!(text.contains("tdaccess_consumer_lag"));
    }

    #[test]
    fn compaction_respects_group_floors_and_counts_segments() {
        let cluster = AccessCluster::new(ClusterConfig {
            segment: SegmentConfig {
                max_messages: 4,
                max_bytes: usize::MAX,
                spill_dir: None,
            },
            ..Default::default()
        });
        cluster.create_topic("t", 1).unwrap();
        let producer = cluster.producer("t").unwrap();
        for i in 0..16u32 {
            producer.send(None, &i.to_le_bytes()).unwrap();
        }
        // No commits yet: truncation must be a no-op.
        assert_eq!(cluster.truncate_topic_before("t", &[(0, 16)]).unwrap(), 0);

        cluster
            .commit_group_offsets("t", "fast", &[(0, 16)])
            .unwrap();
        cluster
            .commit_group_offsets("t", "slow", &[(0, 6)])
            .unwrap();
        let removed = cluster.truncate_topic_before("t", &[(0, 16)]).unwrap();
        assert_eq!(removed, 1, "only [0..4) is below the slow group's floor 6");
        assert_eq!(cluster.topic_start_offsets("t").unwrap(), vec![(0, 4)]);
        assert_eq!(
            cluster.registry().counter_value(
                "tdaccess_truncated_segments",
                &[("topic", "t"), ("partition", "0")],
            ),
            Some(1)
        );

        // Once the slow group catches up, the rest of the head goes too.
        cluster
            .commit_group_offsets("t", "slow", &[(0, 16)])
            .unwrap();
        assert!(cluster.truncate_topic_before("t", &[(0, 16)]).unwrap() >= 2);
        let mut c = cluster.consumer("t", "fresh").unwrap();
        c.seek(0, 0);
        assert!(matches!(c.poll(10), Err(AccessError::Compacted(_, 0, _))));
    }

    #[test]
    fn unknown_topic_rejected() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        assert!(matches!(
            cluster.producer("ghost"),
            Err(AccessError::UnknownTopic(_))
        ));
    }
}
