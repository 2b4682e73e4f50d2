//! Segmented append-only partition logs.
//!
//! A partition is a sequence of segments. The active segment accumulates
//! messages in memory; when it reaches its size bound it is sealed and,
//! if a spill directory is configured, written to disk with one sequential
//! write (the paper: "we utilize sequential operations to accelerate the
//! speed of reads and writes to the largest extent"). Reads address
//! messages by offset and stream them back in order regardless of which
//! segments are hot or spilled.

use crate::error::AccessError;
use crate::message::Message;
use bytes::{Bytes, BytesMut};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Sizing and spill policy for segments.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Seal the active segment after this many messages.
    pub max_messages: usize,
    /// ... or after this many payload bytes, whichever comes first.
    pub max_bytes: usize,
    /// When set, sealed segments are written here and evicted from memory.
    pub spill_dir: Option<PathBuf>,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            max_messages: 4096,
            max_bytes: 4 << 20,
            spill_dir: None,
        }
    }
}

enum SegmentData {
    /// Resident in memory.
    Hot(Vec<Message>),
    /// Sealed and written to disk; holds the message count.
    Spilled { path: PathBuf, count: usize },
}

/// One log segment: a contiguous offset range of a partition.
pub struct Segment {
    base_offset: u64,
    bytes: usize,
    data: SegmentData,
}

impl Segment {
    fn new(base_offset: u64) -> Self {
        Segment {
            base_offset,
            bytes: 0,
            data: SegmentData::Hot(Vec::new()),
        }
    }

    /// First offset in this segment.
    pub fn base_offset(&self) -> u64 {
        self.base_offset
    }

    /// Number of messages in this segment.
    pub fn len(&self) -> usize {
        match &self.data {
            SegmentData::Hot(v) => v.len(),
            SegmentData::Spilled { count, .. } => *count,
        }
    }

    /// True when the segment holds no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the segment has been spilled to disk.
    pub fn is_spilled(&self) -> bool {
        matches!(self.data, SegmentData::Spilled { .. })
    }

    fn append(&mut self, msg: Message) {
        let SegmentData::Hot(v) = &mut self.data else {
            panic!("append to sealed segment");
        };
        self.bytes += msg.size_bytes();
        v.push(msg);
    }

    fn full(&self, config: &SegmentConfig) -> bool {
        self.len() >= config.max_messages || self.bytes >= config.max_bytes
    }

    /// Seals the segment; spills to `path` when provided.
    fn seal(&mut self, path: Option<PathBuf>) -> Result<(), AccessError> {
        let SegmentData::Hot(v) = &mut self.data else {
            return Ok(());
        };
        let Some(path) = path else {
            return Ok(()); // stays hot, just no longer active
        };
        let mut buf = BytesMut::with_capacity(self.bytes + v.len() * 24);
        for m in v.iter() {
            m.encode(&mut buf);
        }
        let count = v.len();
        let mut file = fs::File::create(&path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        self.data = SegmentData::Spilled { path, count };
        Ok(())
    }

    /// Copies messages with offsets in `[from, from+max)` into `out`,
    /// in offset order.
    fn read_into(&self, from: u64, max: usize, out: &mut Vec<Message>) -> Result<(), AccessError> {
        if max == 0 {
            return Ok(());
        }
        match &self.data {
            SegmentData::Hot(v) => {
                let skip = from.saturating_sub(self.base_offset) as usize;
                out.extend(v.iter().skip(skip).take(max).cloned());
            }
            SegmentData::Spilled { path, .. } => {
                let raw = fs::read(path)?;
                let mut bytes = Bytes::from(raw);
                // `max` is this segment's share; `out` may already hold
                // the previous segments' messages.
                let full = out.len() + max;
                while let Some(m) = Message::decode(&mut bytes) {
                    if m.offset >= from {
                        out.push(m);
                        if out.len() >= full {
                            break;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A partition: ordered segments plus the next offset to assign.
pub struct Partition {
    name: String,
    config: SegmentConfig,
    /// Sealed segments, oldest first; every offset below `active`'s.
    sealed: Vec<Segment>,
    /// The segment appends go to. A partition always has one.
    active: Segment,
    next_offset: u64,
    /// Per-consumer-group replay floors: the smallest offset each group
    /// may still need. [`Partition::truncate_before`] never cuts below
    /// the minimum of these, so a lagging group can always resume.
    group_floors: HashMap<String, u64>,
}

impl Partition {
    /// Creates an empty partition. `name` (e.g. `"actions-3"`) prefixes
    /// spill file names.
    pub fn new(name: &str, config: SegmentConfig) -> Self {
        if let Some(dir) = &config.spill_dir {
            let _ = fs::create_dir_all(dir);
        }
        Partition {
            name: name.to_string(),
            config,
            sealed: Vec::new(),
            active: Segment::new(0),
            next_offset: 0,
            group_floors: HashMap::new(),
        }
    }

    /// Reopens a partition from its spill directory: every
    /// `{name}-{base_offset}.seg` file becomes a spilled segment again,
    /// in offset order, and appends resume after the last spilled record.
    ///
    /// Only sealed-and-spilled segments survive a restart — whatever was
    /// still hot in memory when the process died is gone, which is
    /// exactly the recovery contract: the durable log ends at the last
    /// spilled offset, and anything past it was never acknowledged as
    /// durable. Returns an empty partition when the directory has no
    /// segments for `name` (or no spill dir is configured).
    pub fn open(name: &str, config: SegmentConfig) -> Result<Self, AccessError> {
        let Some(dir) = config.spill_dir.clone() else {
            return Ok(Partition::new(name, config));
        };
        let _ = fs::create_dir_all(&dir);
        let prefix = format!("{name}-");
        let mut spilled: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
                continue;
            };
            let Some(base) = file
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".seg"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            spilled.push((base, path));
        }
        spilled.sort_unstable_by_key(|&(base, _)| base);

        let mut next_offset = spilled.first().map_or(0, |&(base, _)| base);
        let mut sealed = Vec::with_capacity(spilled.len());
        for (base, path) in spilled {
            // The durable log must be contiguous after its first segment:
            // log compaction may have truncated the head (so an arbitrary
            // first base is legal), but a later segment whose base skips
            // past the previous end means a gap (a lost or foreign file),
            // and reads across it would silently drop offsets.
            if base != next_offset {
                return Err(AccessError::Io(format!(
                    "segment {} starts at {base}, expected {next_offset}",
                    path.display(),
                )));
            }
            let raw = fs::read(&path)?;
            let mut bytes = Bytes::from(raw);
            let mut count = 0usize;
            let mut seg_bytes = 0usize;
            while let Some(m) = Message::decode(&mut bytes) {
                if m.offset != base + count as u64 {
                    return Err(AccessError::Io(format!(
                        "segment {} has non-contiguous offsets",
                        path.display()
                    )));
                }
                seg_bytes += m.size_bytes();
                count += 1;
            }
            next_offset = base + count as u64;
            sealed.push(Segment {
                base_offset: base,
                bytes: seg_bytes,
                data: SegmentData::Spilled { path, count },
            });
        }
        Ok(Partition {
            name: name.to_string(),
            config,
            sealed,
            active: Segment::new(next_offset),
            next_offset,
            group_floors: HashMap::new(),
        })
    }

    /// Seals (and, with a spill dir, persists) the active segment even if
    /// it is not full, then starts a fresh one. Makes the whole log up to
    /// [`Partition::end_offset`] durable — the flush a broker does before
    /// an orderly shutdown or a checkpoint wants the topic pinned on disk.
    pub fn seal_active(&mut self) -> Result<(), AccessError> {
        if self.active.is_empty() {
            return Ok(());
        }
        self.roll()
    }

    /// Seals the active segment and starts a fresh one. A failed spill
    /// leaves the segment active, so the next append retries it.
    fn roll(&mut self) -> Result<(), AccessError> {
        let spill_path = self.config.spill_dir.as_ref().map(|d| {
            d.join(format!(
                "{}-{:020}.seg",
                self.name,
                self.active.base_offset()
            ))
        });
        self.active.seal(spill_path)?;
        let fresh = Segment::new(self.next_offset);
        self.sealed.push(std::mem::replace(&mut self.active, fresh));
        Ok(())
    }

    /// Appends a record, returning its offset.
    pub fn append(
        &mut self,
        key: Option<Bytes>,
        payload: Bytes,
        timestamp_ms: u64,
    ) -> Result<u64, AccessError> {
        let offset = self.next_offset;
        self.next_offset += 1;
        self.active.append(Message {
            offset,
            timestamp_ms,
            key,
            payload,
        });
        if self.active.full(&self.config) {
            self.roll()?;
        }
        Ok(offset)
    }

    /// Reads up to `max` messages starting at offset `from`.
    ///
    /// Offsets below [`Partition::start_offset`] were removed by log
    /// compaction; reading them is an error rather than a silent skip,
    /// so a replayer can distinguish "caught up" from "data gone".
    pub fn read(&self, from: u64, max: usize) -> Result<Vec<Message>, AccessError> {
        let start = self.start_offset();
        if from < start {
            return Err(AccessError::Compacted(self.name.clone(), from, start));
        }
        let mut out = Vec::new();
        // The first segment that can contain `from`: the last one based
        // at or below it.
        let below = self.sealed.partition_point(|s| s.base_offset() <= from)
            + usize::from(self.active.base_offset() <= from);
        for seg in self.segments().skip(below.saturating_sub(1)) {
            if out.len() >= max {
                break;
            }
            seg.read_into(from, max - out.len(), &mut out)?;
        }
        Ok(out)
    }

    /// Offset that the next appended message will receive.
    pub fn end_offset(&self) -> u64 {
        self.next_offset
    }

    /// Oldest offset still present in the log. Equals 0 until
    /// [`Partition::truncate_before`] removes a head segment, and equals
    /// [`Partition::end_offset`] when compaction emptied the log.
    pub fn start_offset(&self) -> u64 {
        self.sealed.first().unwrap_or(&self.active).base_offset()
    }

    /// Every segment, oldest first: the sealed ones, then the active one.
    fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.sealed.iter().chain(std::iter::once(&self.active))
    }

    /// Records that `group` has durably consumed everything below
    /// `offset`. Floors only move forward; a stale (smaller) commit is
    /// ignored so a late heartbeat cannot reopen already-truncatable log.
    pub fn commit_group_offset(&mut self, group: &str, offset: u64) {
        let floor = self.group_floors.entry(group.to_string()).or_insert(0);
        *floor = (*floor).max(offset);
    }

    /// The committed floor for `group`, or `None` if it never committed.
    pub fn group_floor(&self, group: &str) -> Option<u64> {
        self.group_floors.get(group).copied()
    }

    /// Drops head segments wholly below `upto`, clamped so that no
    /// registered consumer group loses offsets it has not committed
    /// past. Segments are removed only if every message they hold is
    /// below the cut; the active segment is never removed. Spill files
    /// of dropped segments are deleted. Returns the number of segments
    /// removed.
    ///
    /// With no committed groups the cut clamps to 0 and nothing is
    /// removed — absence of commit information is treated as "someone
    /// may still need everything", not as permission to truncate.
    pub fn truncate_before(&mut self, upto: u64) -> Result<usize, AccessError> {
        let floor = self.group_floors.values().copied().min().unwrap_or(0);
        let cut = upto.min(floor);
        let mut removed = 0usize;
        while let Some(seg) = self.sealed.first() {
            if seg.base_offset() + seg.len() as u64 > cut {
                break;
            }
            let seg = self.sealed.remove(0);
            if let SegmentData::Spilled { path, .. } = &seg.data {
                fs::remove_file(path)?;
            }
            removed += 1;
        }
        Ok(removed)
    }

    /// Number of segments (spilled + hot).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Number of spilled segments.
    pub fn spilled_count(&self) -> usize {
        self.segments().filter(|s| s.is_spilled()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SegmentConfig {
        SegmentConfig {
            max_messages: 4,
            max_bytes: usize::MAX,
            spill_dir: None,
        }
    }

    #[test]
    fn append_assigns_sequential_offsets() {
        let mut p = Partition::new("t-0", small_config());
        for i in 0..10 {
            let off = p.append(None, Bytes::from(format!("m{i}")), i).unwrap();
            assert_eq!(off, i);
        }
        assert_eq!(p.end_offset(), 10);
    }

    #[test]
    fn rolls_segments_at_max_messages() {
        let mut p = Partition::new("t-0", small_config());
        for i in 0..9u64 {
            p.append(None, Bytes::from_static(b"x"), i).unwrap();
        }
        assert_eq!(p.segment_count(), 3, "9 messages / 4 per segment");
    }

    #[test]
    fn read_spans_segments() {
        let mut p = Partition::new("t-0", small_config());
        for i in 0..10u64 {
            p.append(None, Bytes::from(vec![i as u8]), i).unwrap();
        }
        let msgs = p.read(2, 6).unwrap();
        assert_eq!(msgs.len(), 6);
        assert_eq!(
            msgs.iter().map(|m| m.offset).collect::<Vec<_>>(),
            vec![2, 3, 4, 5, 6, 7]
        );
    }

    #[test]
    fn read_past_end_is_empty() {
        let mut p = Partition::new("t-0", small_config());
        p.append(None, Bytes::from_static(b"x"), 0).unwrap();
        assert!(p.read(5, 10).unwrap().is_empty());
    }

    #[test]
    fn spills_to_disk_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("tdaccess-test-{}", std::process::id()));
        let config = SegmentConfig {
            max_messages: 4,
            max_bytes: usize::MAX,
            spill_dir: Some(dir.clone()),
        };
        let mut p = Partition::new("spill-0", config);
        for i in 0..10u64 {
            p.append(
                Some(Bytes::from(vec![i as u8])),
                Bytes::from(format!("payload-{i}")),
                i,
            )
            .unwrap();
        }
        assert!(p.spilled_count() >= 2, "two sealed segments should spill");
        let msgs = p.read(0, 100).unwrap();
        assert_eq!(msgs.len(), 10);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.offset, i as u64);
            assert_eq!(m.payload, Bytes::from(format!("payload-{i}")));
        }
        // A bounded read that crosses from one spilled segment into the
        // next two: regression — the budget left for a later segment was
        // compared with the whole batch's length, so each gave one
        // message and the reader skipped the rest of it.
        let offsets: Vec<u64> = p.read(2, 7).unwrap().iter().map(|m| m.offset).collect();
        assert_eq!(offsets, (2..9).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncate_is_clamped_to_the_slowest_group() {
        let mut p = Partition::new("t-0", small_config());
        for i in 0..12u64 {
            p.append(None, Bytes::from_static(b"x"), i).unwrap();
        }
        // Segments: [0..4) [4..8) [8..12) + empty active.
        p.commit_group_offset("fast", 12);
        p.commit_group_offset("slow", 5);
        let removed = p.truncate_before(12).unwrap();
        assert_eq!(removed, 1, "only [0..4) is wholly below the slow floor 5");
        assert_eq!(p.start_offset(), 4);
        // The slow group can still resume exactly where it left off.
        let msgs = p.read(5, 100).unwrap();
        assert_eq!(msgs.first().map(|m| m.offset), Some(5));
        assert_eq!(msgs.len(), 7);
    }

    #[test]
    fn truncate_without_commits_removes_nothing() {
        let mut p = Partition::new("t-0", small_config());
        for i in 0..8u64 {
            p.append(None, Bytes::from_static(b"x"), i).unwrap();
        }
        assert_eq!(p.truncate_before(8).unwrap(), 0);
        assert_eq!(p.start_offset(), 0);
    }

    #[test]
    fn stale_commit_cannot_lower_a_floor() {
        let mut p = Partition::new("t-0", small_config());
        for i in 0..8u64 {
            p.append(None, Bytes::from_static(b"x"), i).unwrap();
        }
        p.commit_group_offset("g", 8);
        p.commit_group_offset("g", 2); // late, out-of-order commit
        assert_eq!(p.group_floor("g"), Some(8));
        assert_eq!(p.truncate_before(8).unwrap(), 2);
    }

    #[test]
    fn reading_below_the_compacted_start_fails_loudly() {
        let mut p = Partition::new("t-0", small_config());
        for i in 0..8u64 {
            p.append(None, Bytes::from_static(b"x"), i).unwrap();
        }
        p.commit_group_offset("g", 8);
        p.truncate_before(8).unwrap();
        assert_eq!(p.start_offset(), 8);
        let err = p.read(3, 10).unwrap_err();
        assert_eq!(err, AccessError::Compacted("t-0".into(), 3, 8));
        // Reading at or past the start still works.
        assert!(p.read(8, 10).unwrap().is_empty());
    }

    #[test]
    fn truncate_deletes_spill_files_and_reopen_resumes_at_the_cut() {
        let dir = std::env::temp_dir().join(format!("tdaccess-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SegmentConfig {
            max_messages: 4,
            max_bytes: usize::MAX,
            spill_dir: Some(dir.clone()),
        };
        let mut p = Partition::new("c-0", config.clone());
        for i in 0..12u64 {
            p.append(None, Bytes::from(format!("m{i}")), i).unwrap();
        }
        p.seal_active().unwrap();
        let spilled_before = p.spilled_count();
        p.commit_group_offset("g", 9);
        let removed = p.truncate_before(12).unwrap();
        assert_eq!(removed, 2, "[0..4) and [4..8) fall below floor 9");
        assert_eq!(p.spilled_count(), spilled_before - 2);
        drop(p);

        // The deleted files must be gone from disk, so a reopen starts
        // at the compacted base and keeps appending from the old end.
        let reopened = Partition::open("c-0", config).unwrap();
        assert_eq!(reopened.start_offset(), 8);
        assert_eq!(reopened.end_offset(), 12);
        let msgs = reopened.read(8, 100).unwrap();
        assert_eq!(
            msgs.iter().map(|m| m.offset).collect::<Vec<_>>(),
            vec![8, 9, 10, 11]
        );
        assert!(matches!(
            reopened.read(0, 1),
            Err(AccessError::Compacted(_, 0, 8))
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rolls_on_byte_budget() {
        let config = SegmentConfig {
            max_messages: usize::MAX,
            max_bytes: 100,
            spill_dir: None,
        };
        let mut p = Partition::new("t-0", config);
        for i in 0..10u64 {
            p.append(None, Bytes::from(vec![0u8; 40]), i).unwrap();
        }
        assert!(p.segment_count() > 1);
    }
}
