//! Replayable spout: anchors every emitted tuple to its TDAccess
//! `(partition, offset)` and re-emits from the log on failure.
//!
//! This is the recovery half of the fault model (§4.1.3's "the data are
//! kept in TDBank until the whole tuple tree is acked"): offsets commit
//! only when the acker reports the tuple tree complete, a failed or
//! timed-out tree seeks the consumer back and re-reads the record, and
//! the per-(source, key) dedup in [`super::state`] turns the resulting
//! at-least-once delivery into exactly-once count effects.

use crate::action::UserAction;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tdaccess::{AccessCluster, AccessError, Consumer, Message, PartitionId, Producer};
use tstorm::prelude::*;

/// Produces `actions` into `producer`'s topic in order, each keyed by its
/// user and encoded by [`UserAction::to_bytes`] — the record format
/// [`ReplayableSpout`] reads. Keying by user puts one user's actions on
/// one partition, so they reach the user-grouped bolts in log order.
pub fn produce_actions(producer: &Producer, actions: &[UserAction]) -> Result<(), AccessError> {
    for action in actions {
        producer.send(Some(&action.user.to_le_bytes()), &action.to_bytes())?;
    }
    Ok(())
}

/// Packs a `(partition, offset)` source anchor into the one `u64` that
/// serves as both the tstorm message id and the dedup source id:
/// 16 bits of partition, 48 bits of offset. Topics beyond 65k partitions
/// or 281 trillion records per partition are out of this system's scope.
pub fn encode_src(pid: PartitionId, offset: u64) -> u64 {
    debug_assert!(pid < 1 << 16, "partition overflows the 16-bit src field");
    debug_assert!(offset < 1 << 48, "offset overflows the 48-bit src field");
    ((pid as u64) << 48) | offset
}

/// Inverse of [`encode_src`].
pub fn decode_src(src: u64) -> (PartitionId, u64) {
    ((src >> 48) as PartitionId, src & ((1 << 48) - 1))
}

/// The spout's default `max_pending` ([`ReplayableSpout::with_max_pending`])
/// and the pipeline's default `dedup_window`: one number, so the default
/// pipeline's replay memory covers exactly what the default spout can
/// redeliver. 256 is the replay horizon the chaos matrix, the checkpoint
/// and cluster tests and the benchmark already run; a cap that high keeps
/// enough actions in flight that the pair bolt merges long runs.
pub const DEFAULT_MAX_PENDING: usize = 256;

/// The replay horizon — the one rule by which every stored replay memory
/// (counter rings, history logs) forgets a source. Applying source
/// `newer` drops a remembered source `kept` exactly when both come from
/// one partition and `kept` lies `window` or more offsets behind `newer`.
///
/// With `window >= max_pending` this forgets nothing that can still come
/// back: the spout emitted `newer` only inside its partition's span
/// ([`ReplayTracker::in_span`]), so every offset `window` or more behind
/// it was already committed, and committed offsets are never redelivered.
/// At window 0 a source is past its own horizon (`past_horizon(s, s, 0)`
/// holds), so a window of 0 remembers nothing.
pub fn past_horizon(kept: u64, newer: u64, window: u64) -> bool {
    let ((kept_pid, kept_off), (pid, off)) = (decode_src(kept), decode_src(newer));
    kept_pid == pid && kept_off.saturating_add(window) <= off
}

/// Shared progress counters for a replayable spout (one `Arc` can be
/// shared across spout tasks; all counters are additive). Tests wait on
/// `committed() == produced` instead of queue idleness, because injected
/// poll stalls make an un-drained topology look momentarily idle.
#[derive(Debug, Default)]
pub struct ReplayProgress {
    emitted: AtomicU64,
    acked: AtomicU64,
    failed: AtomicU64,
    committed: AtomicU64,
    span_stalls: AtomicU64,
}

impl ReplayProgress {
    /// Tuples emitted, counting re-emissions.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::SeqCst)
    }

    /// Tuple trees completed.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::SeqCst)
    }

    /// Tuple trees failed (explicitly or by timeout).
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::SeqCst)
    }

    /// Source records whose offsets are durably committed: every record
    /// below the committed offset of its partition has a fully-acked
    /// tuple tree.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::SeqCst)
    }

    /// Polls refused by the span cap: the next record lay `max_pending`
    /// or more offsets past its partition's committed watermark. A count
    /// that moves says out-of-order completion (one slow or failed tree
    /// holding its partition back), not the number of trees in flight, is
    /// what throttles the spout.
    pub fn span_stalls(&self) -> u64 {
        self.span_stalls.load(Ordering::Relaxed)
    }
}

/// Per-partition offset bookkeeping for at-least-once delivery. Pure
/// state machine — no I/O — so interleavings can be property-tested
/// directly.
///
/// Invariants:
/// - `committed` only advances over a contiguous prefix of acked offsets;
/// - an offset is never eligible for emission while an emission of it is
///   in flight or after it acked (no concurrent duplicates, no
///   double-delivery to the dedup layer);
/// - failing an offset makes exactly that offset (and nothing acked)
///   eligible again.
#[derive(Debug, Default)]
pub struct ReplayTracker {
    parts: HashMap<PartitionId, PartState>,
}

#[derive(Debug, Default)]
struct PartState {
    /// All offsets below this have acked tuple trees.
    committed: u64,
    /// Emitted-but-uncommitted offsets; `true` = acked, awaiting the
    /// contiguous prefix to catch up.
    pending: BTreeMap<u64, bool>,
}

impl ReplayTracker {
    /// Whether a polled record at `(pid, offset)` should be emitted.
    /// `false` means the offset already acked (a re-poll crossed it on
    /// the way to a failed offset) or is still in flight.
    pub fn should_emit(&self, pid: PartitionId, offset: u64) -> bool {
        match self.parts.get(&pid) {
            None => true,
            Some(p) => offset >= p.committed && !p.pending.contains_key(&offset),
        }
    }

    /// Whether `(pid, offset)` lies within `span` offsets of its
    /// partition's committed watermark. The spout emits nothing outside
    /// it, so every offset it can still redeliver (`>= committed`) is
    /// within `span` of every offset the partition has emitted — the
    /// bound [`past_horizon`] trims replay memory by.
    pub fn in_span(&self, pid: PartitionId, offset: u64, span: u64) -> bool {
        match self.parts.get(&pid) {
            None => true,
            Some(p) => offset < p.committed.saturating_add(span),
        }
    }

    /// Records an emission of `(pid, offset)`.
    pub fn emitted(&mut self, pid: PartitionId, offset: u64) {
        self.parts
            .entry(pid)
            .or_default()
            .pending
            .insert(offset, false);
    }

    /// Marks `(pid, offset)` acked and advances the committed watermark
    /// over the contiguous acked prefix. Returns how far the watermark
    /// moved.
    pub fn ack(&mut self, pid: PartitionId, offset: u64) -> u64 {
        let Some(p) = self.parts.get_mut(&pid) else {
            return 0;
        };
        if let Some(acked) = p.pending.get_mut(&offset) {
            *acked = true;
        }
        let before = p.committed;
        while p.pending.get(&p.committed) == Some(&true) {
            p.pending.remove(&p.committed);
            p.committed += 1;
        }
        p.committed - before
    }

    /// Marks `(pid, offset)` failed, making it eligible for re-emission.
    /// Other in-flight offsets keep their entries: their tuple trees are
    /// still alive, and re-emitting them would put two trees with one
    /// message id in the acker. Returns the offset to seek the consumer
    /// to.
    pub fn fail(&mut self, pid: PartitionId, offset: u64) -> u64 {
        if let Some(p) = self.parts.get_mut(&pid) {
            // An acked entry never fails (ack and fail are exclusive per
            // emission); guard anyway so a protocol bug upstream cannot
            // roll back an acked offset.
            if p.pending.get(&offset) == Some(&false) {
                p.pending.remove(&offset);
            }
        }
        offset
    }

    /// Emissions in flight (emitted, neither acked nor failed).
    pub fn outstanding(&self) -> usize {
        self.parts
            .values()
            .map(|p| p.pending.values().filter(|acked| !**acked).count())
            .sum()
    }

    /// The committed watermark of one partition.
    pub fn committed(&self, pid: PartitionId) -> u64 {
        self.parts.get(&pid).map_or(0, |p| p.committed)
    }

    /// Fast-forwards a partition's committed watermark without emitting
    /// anything — cluster recovery: a respawned worker resumes from the
    /// offsets its predecessor durably committed, so only the uncommitted
    /// tail (fewer than `max_pending` offsets per partition) is replayed.
    pub fn resume(&mut self, pid: PartitionId, committed: u64) {
        let p = self.parts.entry(pid).or_default();
        p.committed = p.committed.max(committed);
    }
}

/// Shared per-partition committed watermarks, updated by the spout on
/// every commit advance. A cluster worker serializes this table into its
/// periodic offset-commit frame; on respawn the supervisor hands the last
/// commit back and the new spout seeks to it instead of replaying the
/// topic from zero (which would overflow the downstream dedup windows).
#[derive(Debug, Default)]
pub struct OffsetTable {
    map: Mutex<HashMap<PartitionId, u64>>,
}

impl OffsetTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, pid: PartitionId, committed: u64) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let slot = map.entry(pid).or_insert(0);
        *slot = (*slot).max(committed);
    }

    /// Current watermarks, sorted by partition.
    pub fn snapshot(&self) -> Vec<(PartitionId, u64)> {
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(PartitionId, u64)> = map.iter().map(|(&p, &o)| (p, o)).collect();
        out.sort_unstable();
        out
    }

    /// Serializes the watermarks (`count:u32le` then `(pid:u32le,
    /// offset:u64le)` pairs) for the supervisor's commit store.
    pub fn encode(&self) -> Vec<u8> {
        let snap = self.snapshot();
        let mut out = Vec::with_capacity(4 + snap.len() * 12);
        out.extend_from_slice(&(snap.len() as u32).to_le_bytes());
        for (pid, off) in snap {
            out.extend_from_slice(&pid.to_le_bytes());
            out.extend_from_slice(&off.to_le_bytes());
        }
        out
    }

    /// Folds recovered watermarks into the table, keeping the maximum per
    /// partition — merging a snapshot's offsets with a possibly
    /// newer offset-commit blob takes whichever got further.
    pub fn merge(&self, offsets: &[(PartitionId, u64)]) {
        for &(pid, off) in offsets {
            self.record(pid, off);
        }
    }

    /// Inverse of [`encode`](Self::encode). Returns `None` on a malformed
    /// blob (a torn commit must read as "no recovery data", not garbage
    /// offsets).
    pub fn decode(bytes: &[u8]) -> Option<Vec<(PartitionId, u64)>> {
        let mut r = wire::Reader::new(bytes);
        let out = (0..r.count(12).ok()?)
            .map(|_| Some((r.u32().ok()?, r.u64().ok()?)))
            .collect::<Option<_>>()?;
        r.finish().ok()?;
        Some(out)
    }
}

/// A spout reading user actions from a TDAccess topic with at-least-once
/// replay: offsets commit on acker-complete, fail/timeout seeks back and
/// re-emits. The emitted `src` field (= the message id) anchors each
/// tuple to its source record for downstream dedup.
///
/// Task `i` of a spout component with `n` tasks reads the static
/// partition slice `(i, n)` ([`AccessCluster::consumer_pinned`]): the
/// partitions `p` with `p % n == i`. The tasks of one component thus read
/// every partition exactly once between them, and a task whose slice is
/// empty (more tasks than partitions) idles. A spout driven without
/// [`Spout::open`] — [`connect`](Self::connect) called directly — reads
/// the whole topic, the slice `(0, 1)`.
pub struct ReplayableSpout {
    cluster: AccessCluster,
    topic: String,
    group: String,
    consumer: Option<Consumer>,
    tracker: ReplayTracker,
    buffer: VecDeque<(PartitionId, Message)>,
    max_pending: usize,
    poll_batch: usize,
    progress: Arc<ReplayProgress>,
    /// `(task_index, n_tasks)`: the partition slice this task reads.
    slice: (usize, usize),
    /// Seek here on connect (cluster recovery after a worker restart).
    start_offsets: Vec<(PartitionId, u64)>,
    /// Mirrors committed watermarks for the worker's offset commits.
    offsets: Option<Arc<OffsetTable>>,
}

impl ReplayableSpout {
    /// Spout consuming `topic` for consumer group `group`. The tasks of
    /// one spout component split the topic's partitions by task index and
    /// can share one `progress`.
    pub fn new(
        cluster: AccessCluster,
        topic: &str,
        group: &str,
        progress: Arc<ReplayProgress>,
    ) -> Self {
        ReplayableSpout {
            cluster,
            topic: topic.to_string(),
            group: group.to_string(),
            consumer: None,
            tracker: ReplayTracker::default(),
            buffer: VecDeque::new(),
            max_pending: DEFAULT_MAX_PENDING,
            poll_batch: 32,
            progress,
            slice: (0, 1),
            start_offsets: Vec::new(),
            offsets: None,
        }
    }

    /// Caps in-flight (emitted, not yet acked) tuples, and the *span* of
    /// each partition: no offset is emitted `max_pending` or more past
    /// its partition's committed watermark. The second is what bounds the
    /// replay horizon — a count alone lets one stuck tree be outrun by
    /// any number of offsets — so replay memory trimmed by
    /// [`past_horizon`] at `dedup_window >= max_pending` holds every
    /// source that can still be redelivered. Defaults to
    /// [`DEFAULT_MAX_PENDING`].
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self
    }

    /// Seeks each partition to its committed watermark on connect and
    /// fast-forwards the tracker so nothing below it is re-emitted.
    pub fn with_start_offsets(mut self, offsets: Vec<(PartitionId, u64)>) -> Self {
        self.start_offsets = offsets;
        self
    }

    /// Mirrors every commit advance into `table` (the worker's
    /// offset-commit source).
    pub fn with_offset_table(mut self, table: Arc<OffsetTable>) -> Self {
        self.offsets = Some(table);
        self
    }

    /// The progress counters this spout reports into.
    pub fn progress(&self) -> Arc<ReplayProgress> {
        Arc::clone(&self.progress)
    }

    /// The offset tracker (exposed for property tests).
    pub fn tracker(&self) -> &ReplayTracker {
        &self.tracker
    }

    /// Opens the consumer of this task's slice. Called by
    /// [`Spout::open`]; tests driving the spout manually call it directly
    /// and read the whole topic. On a spout task, every append to the
    /// topic wakes the task ([`SpoutWaker`]), so a record is polled when
    /// it lands instead of when the idle backoff expires. A connect that
    /// fails (the topic does not exist yet) leaves the spout idle, and
    /// every poll tries it again.
    pub fn connect(&mut self) {
        if self.consumer.is_none() {
            let (index, n) = self.slice;
            let Ok(mut consumer) = self
                .cluster
                .consumer_pinned(&self.topic, &self.group, index, n)
            else {
                return;
            };
            if let Some(waker) = SpoutWaker::current() {
                consumer.on_append(Arc::new(move || waker.wake()));
            }
            for &(pid, off) in &self.start_offsets {
                consumer.seek(pid, off);
                self.tracker.resume(pid, off);
                if let Some(t) = &self.offsets {
                    t.record(pid, off);
                }
            }
            self.consumer = Some(consumer);
        }
    }

    /// Pulls the next emittable action, recording it as in flight.
    /// Returns `(src, action)` or `None` when at the pending cap, when the
    /// next record lies outside its partition's span (it stays at the
    /// buffer front until the watermark moves or a failure re-seeks), or
    /// the topic is (momentarily) exhausted.
    pub fn poll_next(&mut self) -> Option<(u64, UserAction)> {
        if self.tracker.outstanding() >= self.max_pending {
            return None;
        }
        if self.buffer.is_empty() {
            self.connect();
            let consumer = self.consumer.as_mut()?;
            match consumer.poll_records(self.poll_batch) {
                Ok(batch) => self.buffer.extend(batch),
                Err(_) => return None,
            }
        }
        while let Some((pid, msg)) = self.buffer.pop_front() {
            if !self.tracker.should_emit(pid, msg.offset) {
                continue;
            }
            if !self
                .tracker
                .in_span(pid, msg.offset, self.max_pending as u64)
            {
                self.buffer.push_front((pid, msg));
                self.progress.span_stalls.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let Some(action) = UserAction::from_bytes(&msg.payload) else {
                // Malformed record: nothing to emit, but the offset must
                // still commit or it would wedge the watermark forever.
                self.tracker.emitted(pid, msg.offset);
                let advanced = self.tracker.ack(pid, msg.offset);
                self.progress
                    .committed
                    .fetch_add(advanced, Ordering::SeqCst);
                if advanced > 0 {
                    if let Some(t) = &self.offsets {
                        t.record(pid, self.tracker.committed(pid));
                    }
                }
                continue;
            };
            self.tracker.emitted(pid, msg.offset);
            self.progress.emitted.fetch_add(1, Ordering::SeqCst);
            return Some((encode_src(pid, msg.offset), action));
        }
        None
    }

    /// Ack handler body (public so tests can drive it without a runtime).
    pub fn on_ack(&mut self, src: u64) {
        let (pid, offset) = decode_src(src);
        let advanced = self.tracker.ack(pid, offset);
        self.progress.acked.fetch_add(1, Ordering::SeqCst);
        self.progress
            .committed
            .fetch_add(advanced, Ordering::SeqCst);
        if advanced > 0 {
            if let Some(t) = &self.offsets {
                t.record(pid, self.tracker.committed(pid));
            }
        }
    }

    /// Fail handler body: seek the consumer back to the failed offset and
    /// drop buffered records the re-poll will cover again.
    pub fn on_fail(&mut self, src: u64) {
        let (pid, offset) = decode_src(src);
        let failed = self.tracker.fail(pid, offset);
        let mut seek_to = failed;
        if let Some(consumer) = self.consumer.as_mut() {
            // Only ever seek *backward*: two trees of one partition can
            // fail out of offset order, and seeking forward to the later
            // one would skip past the earlier failed offset before the
            // re-poll reaches it.
            seek_to = failed.min(consumer.position(pid));
            consumer.seek(pid, seek_to);
        }
        self.buffer
            .retain(|&(p, ref m)| p != pid || m.offset < seek_to);
        self.progress.failed.fetch_add(1, Ordering::SeqCst);
    }
}

impl Spout for ReplayableSpout {
    fn open(&mut self, ctx: &TaskContext) {
        self.slice = (ctx.task_index, ctx.n_tasks);
        self.connect();
    }

    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        match self.poll_next() {
            Some((src, action)) => {
                collector.emit_values(
                    &[
                        Value::U64(action.user),
                        Value::U64(action.item),
                        Value::U64(action.action.code() as u64),
                        Value::U64(action.timestamp),
                        Value::U64(src),
                    ],
                    Some(src),
                );
                true
            }
            None => false,
        }
    }

    fn ack(&mut self, msg_id: u64) {
        self.on_ack(msg_id);
    }

    fn fail(&mut self, msg_id: u64) {
        self.on_fail(msg_id);
    }

    fn close(&mut self) {
        // Dropping the consumer unregisters its append listener.
        self.consumer = None;
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(
            DEFAULT_STREAM,
            ["user", "item", "action", "ts", "src"],
        )]
    }
}

/// The input of this crate's topology unit tests: an in-memory topic of
/// actions and the spouts that read it.
#[cfg(test)]
pub(crate) mod test_feed {
    use super::*;
    use std::time::{Duration, Instant};
    use tdaccess::ClusterConfig;

    /// The topic every test topology reads.
    pub(crate) const TOPIC: &str = "actions";

    /// An in-memory topic of actions, keyed by user, and the progress its
    /// spouts share.
    pub(crate) struct TopicFeed {
        pub(crate) cluster: AccessCluster,
        progress: Arc<ReplayProgress>,
    }

    impl TopicFeed {
        /// A topic of `partitions` partitions holding `actions`.
        pub(crate) fn new(partitions: usize, actions: &[UserAction]) -> Self {
            let cluster = AccessCluster::new(ClusterConfig::default());
            cluster.create_topic(TOPIC, partitions).unwrap();
            let feed = TopicFeed {
                cluster,
                progress: Arc::default(),
            };
            feed.produce(actions);
            feed
        }

        /// Appends `actions` to the topic.
        pub(crate) fn produce(&self, actions: &[UserAction]) {
            produce_actions(&self.cluster.producer(TOPIC).unwrap(), actions).unwrap();
        }

        /// A spout factory: every spout reads for one consumer group, each
        /// task its own partition slice.
        pub(crate) fn spout(&self) -> impl Fn() -> ReplayableSpout + Send + Sync + 'static {
            let (cluster, progress) = (self.cluster.clone(), Arc::clone(&self.progress));
            move || ReplayableSpout::new(cluster.clone(), TOPIC, "test", Arc::clone(&progress))
        }

        /// Waits until every record of the topic is committed — its tuple
        /// tree acked, so every bolt it reached has executed — then shuts
        /// the topology down.
        pub(crate) fn drain(&self, handle: TopologyHandle) -> Vec<MetricsSnapshot> {
            let records = self.cluster.topic_len(TOPIC).unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while self.progress.committed() < records {
                assert!(
                    Instant::now() < deadline,
                    "stalled at {} of {records} records",
                    self.progress.committed()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            handle.shutdown(Duration::from_secs(5))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionType;
    use tdaccess::ClusterConfig;

    fn cluster_with(topic: &str, partitions: usize, n: u64) -> AccessCluster {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic(topic, partitions).unwrap();
        let actions: Vec<UserAction> = (0..n)
            .map(|i| UserAction::new(i, i % 7, ActionType::Click, i))
            .collect();
        produce_actions(&cluster.producer(topic).unwrap(), &actions).unwrap();
        cluster
    }

    #[test]
    fn src_round_trips() {
        for (pid, off) in [(0u32, 0u64), (3, 17), ((1 << 16) - 1, (1 << 48) - 1)] {
            assert_eq!(decode_src(encode_src(pid, off)), (pid, off));
        }
    }

    #[test]
    fn delivers_everything_and_commits_on_ack() {
        let cluster = cluster_with("t", 2, 20);
        let mut spout = ReplayableSpout::new(cluster, "t", "g", Arc::default()).with_max_pending(8);
        spout.connect();
        let mut seen = Vec::new();
        while let Some((src, _)) = spout.poll_next() {
            seen.push(src);
            spout.on_ack(src);
        }
        assert_eq!(seen.len(), 20);
        assert_eq!(spout.progress().committed(), 20);
        assert_eq!(spout.tracker().outstanding(), 0);
    }

    #[test]
    fn spout_started_before_its_topic_reads_once_it_appears() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        let mut spout = ReplayableSpout::new(cluster.clone(), "t", "g", Arc::default());
        spout.connect();
        assert_eq!(spout.poll_next(), None, "no topic yet: idle");
        cluster.create_topic("t", 1).unwrap();
        let action = UserAction::new(1, 2, ActionType::Click, 3);
        let producer = cluster.producer("t").unwrap();
        producer.send(None, &action.to_bytes()).unwrap();
        assert_eq!(spout.poll_next(), Some((encode_src(0, 0), action)));
    }

    #[test]
    fn failed_offset_is_redelivered_acked_are_not() {
        let cluster = cluster_with("t", 1, 5);
        let mut spout = ReplayableSpout::new(cluster, "t", "g", Arc::default());
        spout.connect();
        let mut ids = Vec::new();
        while let Some((src, _)) = spout.poll_next() {
            ids.push(src);
        }
        assert_eq!(ids.len(), 5);
        // Ack all but offset 2, fail offset 2.
        for &src in &ids {
            if decode_src(src).1 != 2 {
                spout.on_ack(src);
            }
        }
        spout.on_fail(encode_src(0, 2));
        // Exactly the failed offset comes back.
        let redelivered: Vec<u64> = std::iter::from_fn(|| spout.poll_next())
            .map(|(src, _)| decode_src(src).1)
            .collect();
        assert_eq!(redelivered, vec![2]);
        spout.on_ack(encode_src(0, 2));
        assert_eq!(spout.tracker().committed(0), 5);
        assert_eq!(spout.progress().committed(), 5);
    }

    #[test]
    fn max_pending_caps_in_flight() {
        let cluster = cluster_with("t", 1, 50);
        let mut spout = ReplayableSpout::new(cluster, "t", "g", Arc::default()).with_max_pending(4);
        spout.connect();
        let mut inflight = Vec::new();
        while let Some((src, _)) = spout.poll_next() {
            inflight.push(src);
        }
        assert_eq!(inflight.len(), 4, "pending cap");
        spout.on_ack(inflight.remove(0));
        assert!(spout.poll_next().is_some(), "slot freed");
    }

    #[test]
    fn span_cap_holds_a_partition_behind_its_stuck_offset() {
        let cluster = cluster_with("t", 1, 50);
        let progress = Arc::new(ReplayProgress::default());
        let mut spout =
            ReplayableSpout::new(cluster, "t", "g", Arc::clone(&progress)).with_max_pending(4);
        spout.connect();
        let inflight: Vec<u64> = std::iter::from_fn(|| spout.poll_next())
            .map(|(src, _)| src)
            .collect();
        assert_eq!(inflight.len(), 4);
        // Offsets 1..=3 complete, 0 stays stuck: three slots are free by
        // count, but offset 4 would lie 4 past the watermark.
        for &src in &inflight[1..] {
            spout.on_ack(src);
        }
        assert_eq!(spout.tracker().outstanding(), 1);
        assert_eq!(progress.span_stalls(), 0);
        assert!(spout.poll_next().is_none(), "emitted past the span");
        assert!(spout.poll_next().is_none());
        assert_eq!(progress.span_stalls(), 2);
        // The watermark moves; the refused record is the next one out.
        spout.on_ack(inflight[0]);
        assert_eq!(spout.tracker().committed(0), 4);
        let (src, _) = spout.poll_next().expect("resumes with the watermark");
        assert_eq!(decode_src(src), (0, 4));
        assert_eq!(progress.span_stalls(), 2);
    }

    #[test]
    fn failing_the_stuck_offset_redelivers_it_through_the_cap() {
        let cluster = cluster_with("t", 1, 50);
        let mut spout = ReplayableSpout::new(cluster, "t", "g", Arc::default()).with_max_pending(4);
        spout.connect();
        let inflight: Vec<u64> = std::iter::from_fn(|| spout.poll_next())
            .map(|(src, _)| src)
            .collect();
        for &src in &inflight[1..] {
            spout.on_ack(src);
        }
        assert!(spout.poll_next().is_none());
        spout.on_fail(inflight[0]);
        let (src, _) = spout.poll_next().expect("the failed offset comes back");
        assert_eq!(decode_src(src), (0, 0));
        assert!(spout.poll_next().is_none(), "still capped behind it");
        spout.on_ack(src);
        let (src, _) = spout.poll_next().expect("cap lifted");
        assert_eq!(decode_src(src), (0, 4));
    }

    #[test]
    fn span_is_measured_from_the_resume_point() {
        // A partition first seen mid-log (a respawned worker): the span
        // counts from where it resumed, not from offset 0 — or the cap
        // would refuse every record of it forever.
        let mut tracker = ReplayTracker::default();
        assert!(tracker.in_span(3, 1_000, 4), "unseen partition");
        tracker.resume(3, 1_000);
        tracker.emitted(3, 1_000);
        assert!(tracker.in_span(3, 1_003, 4));
        assert!(!tracker.in_span(3, 1_004, 4));
        assert_eq!(tracker.ack(3, 1_000), 1);
        assert_eq!(tracker.committed(3), 1_001);
        assert!(tracker.in_span(3, 1_004, 4));
    }

    #[test]
    fn malformed_records_commit_without_emission() {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("t", 1).unwrap();
        let producer = cluster.producer("t").unwrap();
        producer.send(None, b"garbage").unwrap();
        let good = UserAction::new(1, 2, ActionType::Click, 3);
        producer.send(None, &good.to_bytes()).unwrap();
        let mut spout = ReplayableSpout::new(cluster, "t", "g", Arc::default());
        spout.connect();
        let (src, action) = spout.poll_next().expect("good record");
        assert_eq!(decode_src(src).1, 1, "offset 0 was the garbage record");
        assert_eq!(action, good);
        spout.on_ack(src);
        assert_eq!(spout.tracker().committed(0), 2);
    }

    #[test]
    fn offset_table_round_trips_and_rejects_malformed() {
        let empty = OffsetTable::new();
        assert_eq!(empty.encode(), 0u32.to_le_bytes());
        let table = Arc::new(OffsetTable::new());
        let mut spout = ReplayableSpout::new(cluster_with("t", 3, 30), "t", "g", Arc::default())
            .with_offset_table(Arc::clone(&table));
        spout.connect();
        while let Some((src, _)) = spout.poll_next() {
            spout.on_ack(src);
        }
        let snapshot = table.snapshot();
        assert_eq!(snapshot.iter().map(|&(_, o)| o).sum::<u64>(), 30);
        let blob = table.encode();
        assert_eq!(OffsetTable::decode(&blob).unwrap(), snapshot);
        // Truncated and trailing-garbage blobs are rejected, not misread.
        assert!(OffsetTable::decode(&blob[..blob.len() - 1]).is_none());
        let mut padded = blob.clone();
        padded.push(0);
        assert!(OffsetTable::decode(&padded).is_none());
        assert!(OffsetTable::decode(&[1, 2]).is_none());
    }

    #[test]
    fn resumed_spout_skips_committed_prefix() {
        // First incarnation acks the first 8 records, then "crashes"
        // with its committed offsets captured in the table.
        let first = cluster_with("t", 2, 20);
        let table = Arc::new(OffsetTable::new());
        let mut spout = ReplayableSpout::new(first, "t", "g", Arc::default())
            .with_max_pending(4)
            .with_offset_table(Arc::clone(&table));
        spout.connect();
        for _ in 0..8 {
            let (src, _) = spout.poll_next().expect("record");
            spout.on_ack(src);
        }
        let committed = table.snapshot();
        assert_eq!(committed.iter().map(|&(_, o)| o).sum::<u64>(), 8);
        let blob = table.encode();
        drop(spout);

        // The respawn rebuilds the same topic (deterministic producer
        // partitioning) and resumes from the recovered blob: exactly the
        // 12 uncommitted records come out, none of the committed prefix.
        let start = OffsetTable::decode(&blob).expect("valid blob");
        let progress = Arc::new(ReplayProgress::default());
        let mut resumed =
            ReplayableSpout::new(cluster_with("t", 2, 20), "t", "g", Arc::clone(&progress))
                .with_start_offsets(start);
        resumed.connect();
        let mut seen = Vec::new();
        while let Some((src, _)) = resumed.poll_next() {
            seen.push(decode_src(src));
            resumed.on_ack(src);
        }
        assert_eq!(seen.len(), 12, "only the uncommitted tail replays");
        for &(pid, offset) in &seen {
            let floor = committed
                .iter()
                .find(|&&(p, _)| p == pid)
                .map_or(0, |&(_, o)| o);
            assert!(
                offset >= floor,
                "partition {pid} replayed committed offset {offset} (floor {floor})"
            );
        }
        // The progress counter sees only this incarnation's acks; the
        // tracker's watermark covers the recovered prefix too.
        assert_eq!(progress.committed(), 12);
        assert_eq!(
            (0..2).map(|p| resumed.tracker().committed(p)).sum::<u64>(),
            20
        );
        assert_eq!(resumed.tracker().outstanding(), 0);
    }
}
