//! Consumer: polls a fixed partition slice, tracks offsets.

use crate::error::AccessError;
use crate::master::{PartitionId, TopicMeta};
use crate::message::Message;
use crate::{AccessCluster, AppendListener, AppendSignal};
use std::collections::HashMap;
use std::sync::Arc;

/// A reader of a fixed slice of one topic's partitions, chosen at
/// construction ([`AccessCluster::consumer_pinned`]; the whole topic for
/// [`AccessCluster::consumer`]). `poll` reads only that slice, advancing
/// per-partition offsets, so consumers holding the slices `0..n` of `n`
/// deliver each message once between them. The slice never changes: a
/// respawned worker with the same `(index, n)` resumes exactly the
/// partitions its predecessor read.
pub struct Consumer {
    cluster: AccessCluster,
    meta: TopicMeta,
    signal: Arc<AppendSignal>,
    /// Id of the listener registered by [`Consumer::on_append`].
    listener: Option<u64>,
    /// The partitions `poll` reads, ascending.
    slice: Vec<PartitionId>,
    offsets: HashMap<PartitionId, u64>,
    /// Round-robin cursor over the slice for fairness.
    cursor: usize,
    /// Per-partition `tdaccess_consumed_total` counters, indexed by pid.
    consumed: Vec<obs::Counter>,
    /// Per-partition `tdaccess_consumer_lag` gauges, indexed by pid.
    lag_gauges: Vec<obs::Gauge>,
}

impl Consumer {
    pub(crate) fn new(
        cluster: AccessCluster,
        meta: TopicMeta,
        signal: Arc<AppendSignal>,
        group: &str,
        slice: Vec<PartitionId>,
    ) -> Self {
        let mut consumed = Vec::with_capacity(meta.partitions as usize);
        let mut lag_gauges = Vec::with_capacity(meta.partitions as usize);
        for pid in 0..meta.partitions {
            let partition = pid.to_string();
            let labels: &[(&str, &str)] = &[
                ("topic", &meta.name),
                ("group", group),
                ("partition", &partition),
            ];
            consumed.push(cluster.registry().counter(
                "tdaccess_consumed_total",
                labels,
                "Messages delivered per topic partition and consumer group",
            ));
            lag_gauges.push(cluster.registry().gauge(
                "tdaccess_consumer_lag",
                labels,
                "Retained-but-unconsumed messages per partition and group",
            ));
        }
        Consumer {
            cluster,
            meta,
            signal,
            listener: None,
            slice,
            offsets: HashMap::new(),
            cursor: 0,
            consumed,
            lag_gauges,
        }
    }

    /// Calls `listener` after every record appended to this consumer's
    /// topic by a producer of this cluster — any partition — on the
    /// producing thread, once the record is visible to `poll`. Keep it
    /// cheap and non-blocking (it runs inside every send). Replaces the
    /// listener registered before, if any; dropping the consumer
    /// unregisters it.
    pub fn on_append(&mut self, listener: AppendListener) {
        if let Some(id) = self.listener.take() {
            self.signal.unsubscribe(id);
        }
        self.listener = Some(self.signal.subscribe(listener));
    }

    /// The partitions this consumer reads.
    pub fn assignment(&self) -> &[PartitionId] {
        &self.slice
    }

    /// Reads up to `max` messages across the slice's partitions, fairly
    /// round-robining between them. Returns an empty vec when every
    /// partition of the slice is exhausted, and always for an empty slice.
    pub fn poll(&mut self, max: usize) -> Result<Vec<Message>, AccessError> {
        Ok(self
            .poll_records(max)?
            .into_iter()
            .map(|(_, m)| m)
            .collect())
    }

    /// Like [`poll`](Self::poll), but tags every message with the
    /// partition it came from — a replayable spout needs `(partition,
    /// offset)` to anchor each emitted tuple back to its source record.
    pub fn poll_records(&mut self, max: usize) -> Result<Vec<(PartitionId, Message)>, AccessError> {
        // Injected stall: the poll finds nothing, as if the broker were
        // slow. Offsets are untouched, so the data arrives on a later poll.
        if self
            .cluster
            .fault_plan()
            .should_fault(tchaos::FaultSite::PollStall)
        {
            return Ok(Vec::new());
        }
        let n = self.slice.len();
        if n == 0 || max == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for i in 0..n {
            if out.len() >= max {
                break;
            }
            let pid = self.slice[(self.cursor + i) % n];
            let from = *self.offsets.entry(pid).or_insert(0);
            let broker_id = self.cluster.route(&self.meta.name, pid)?;
            let broker = self.cluster.broker(broker_id)?;
            let mut batch = broker.read(&self.meta.name, pid, from, max - out.len())?;
            // Injected torn batch: drop the tail *before* the offset update,
            // so the offset only covers what was delivered and the tail is
            // re-read by the next poll — a short read, never a gap.
            if batch.len() > 1
                && self
                    .cluster
                    .fault_plan()
                    .should_fault(tchaos::FaultSite::TornBatch)
            {
                batch.truncate(batch.len() / 2);
            }
            if let Some(last) = batch.last() {
                self.offsets.insert(pid, last.offset + 1);
            }
            if let Some(c) = self.consumed.get(pid as usize) {
                c.add(batch.len() as u64);
            }
            if let Some(g) = self.lag_gauges.get(pid as usize) {
                let end = broker.partition_end_offset(&self.meta.name, pid)?;
                g.set(end.saturating_sub(self.position(pid)) as f64);
            }
            out.extend(batch.into_iter().map(|m| (pid, m)));
        }
        self.cursor = (self.cursor + 1) % n;
        Ok(out)
    }

    /// Resets this consumer's offset for one partition (replay).
    pub fn seek(&mut self, pid: PartitionId, offset: u64) {
        self.offsets.insert(pid, offset);
    }

    /// Current committed offset for a partition (0 when never polled).
    pub fn position(&self, pid: PartitionId) -> u64 {
        self.offsets.get(&pid).copied().unwrap_or(0)
    }

    /// Messages retained but not yet consumed across the slice (consumer
    /// lag).
    pub fn lag(&self) -> Result<u64, AccessError> {
        let mut total = 0;
        for &pid in &self.slice {
            let broker = self
                .cluster
                .broker(self.cluster.route(&self.meta.name, pid)?)?;
            let end = broker.partition_end_offset(&self.meta.name, pid)?;
            total += end.saturating_sub(self.position(pid));
        }
        Ok(total)
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        if let Some(id) = self.listener {
            self.signal.unsubscribe(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{AccessCluster, ClusterConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn listeners(cluster: &AccessCluster, topic: &str) -> usize {
        cluster.signal(topic).listeners.read().len()
    }

    #[test]
    fn append_listener_sees_every_send_until_its_consumer_drops() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 3).unwrap();
        let p = cluster.producer("t").unwrap();
        p.send(None, b"before").unwrap();
        let mut c = cluster.consumer("t", "g").unwrap();
        // Each call records the topic length it observes: the listener
        // runs after the append is readable and outside the broker lock
        // (reading the length takes it).
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        {
            let (seen, cluster) = (Arc::clone(&seen), cluster.clone());
            c.on_append(Arc::new(move || {
                seen.lock().unwrap().push(cluster.topic_len("t").unwrap());
            }));
        }
        for i in 0..6u32 {
            p.send(Some(&i.to_le_bytes()), b"x").unwrap();
        }
        assert_eq!(*seen.lock().unwrap(), vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(listeners(&cluster, "t"), 1);
        drop(c);
        assert_eq!(listeners(&cluster, "t"), 0);
        p.send(None, b"after").unwrap();
        assert_eq!(
            seen.lock().unwrap().len(),
            6,
            "dropped consumer still notified"
        );
    }

    #[test]
    fn respawned_pinned_consumer_leaves_one_listener() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 2).unwrap();
        let p = cluster.producer("t").unwrap();
        let counter = |n: &Arc<AtomicU64>| {
            let n = Arc::clone(n);
            Arc::new(move || {
                n.fetch_add(1, Ordering::Relaxed);
            })
        };
        let (first, second, third) = (Arc::default(), Arc::default(), Arc::default());
        let mut worker = cluster.consumer_pinned("t", "g", 0, 1).unwrap();
        worker.on_append(counter(&first));
        p.send(None, b"a").unwrap();
        drop(worker);
        // The respawn registers afresh; registering twice replaces.
        let mut worker = cluster.consumer_pinned("t", "g", 0, 1).unwrap();
        worker.on_append(counter(&second));
        worker.on_append(counter(&third));
        assert_eq!(listeners(&cluster, "t"), 1);
        for _ in 0..3 {
            p.send(None, b"b").unwrap();
        }
        let count = |n: &Arc<AtomicU64>| n.load(Ordering::Relaxed);
        assert_eq!((count(&first), count(&second), count(&third)), (1, 0, 3));
    }

    #[test]
    fn seek_replays() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 1).unwrap();
        let p = cluster.producer("t").unwrap();
        for i in 0..5u32 {
            p.send(None, &i.to_le_bytes()).unwrap();
        }
        let mut c = cluster.consumer("t", "g").unwrap();
        assert_eq!(c.poll(100).unwrap().len(), 5);
        assert_eq!(c.position(0), 5);
        c.seek(0, 0);
        assert_eq!(c.poll(100).unwrap().len(), 5);
    }

    #[test]
    fn lag_tracks_unconsumed_messages() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 2).unwrap();
        let p = cluster.producer("t").unwrap();
        for i in 0..10u32 {
            p.send(None, &i.to_le_bytes()).unwrap();
        }
        let mut c = cluster.consumer("t", "g").unwrap();
        assert_eq!(c.lag().unwrap(), 10);
        c.poll(4).unwrap();
        assert_eq!(c.lag().unwrap(), 6);
        while !c.poll(100).unwrap().is_empty() {}
        assert_eq!(c.lag().unwrap(), 0);
    }

    #[test]
    fn pinned_consumers_split_partitions_deterministically() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 4).unwrap();
        let p = cluster.producer("t").unwrap();
        for i in 0..40u32 {
            p.send(Some(&i.to_le_bytes()), &i.to_le_bytes()).unwrap();
        }
        let mut a = cluster.consumer_pinned("t", "g", 0, 2).unwrap();
        let mut b = cluster.consumer_pinned("t", "g", 1, 2).unwrap();
        assert_eq!(a.assignment(), [0, 2]);
        assert_eq!(b.assignment(), [1, 3]);
        let got_a = a.poll_records(100).unwrap();
        let got_b = b.poll_records(100).unwrap();
        assert_eq!(got_a.len() + got_b.len(), 40);
        assert!(got_a.iter().all(|(pid, _)| *pid == 0 || *pid == 2));
        assert!(got_b.iter().all(|(pid, _)| *pid == 1 || *pid == 3));
    }

    #[test]
    fn poll_zero_returns_empty() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 1).unwrap();
        let mut c = cluster.consumer("t", "g").unwrap();
        assert!(c.poll(0).unwrap().is_empty());
    }
}
