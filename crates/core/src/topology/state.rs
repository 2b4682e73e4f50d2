//! Binary encodings for algorithm state held in TDStore.
//!
//! The topology's bolts are state-free (§5.1): everything they need
//! between tuples lives in TDStore so "the topology can conduct fast
//! failure recovery". These helpers define the value formats for user
//! histories, similar-items lists, and session-suffixed windowed counts.

use super::replay::past_horizon;
use crate::types::keys::KeyBuf;
use crate::types::{keys, ItemId, Timestamp};
use tdstore::{StoreError, TdStore};

/// One user-history record: `(item, rating, last action ts)`.
pub type HistoryRecord = (ItemId, f64, Timestamp);

/// One entry in a user history's embedded replay log: the source id of a
/// processed action and the deltas that action contributed, kept so a
/// replayed delivery (at-least-once upstream) re-emits the *original*
/// deltas instead of recomputing against mutated state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayLogEntry {
    /// Source id of the processed tuple (`(partition, offset)` packed by
    /// the replayable spout — stable across redeliveries).
    pub src: u64,
    /// Item-count delta the action produced.
    pub delta_rating: f64,
    /// Pair-count deltas the action produced: `(a, b, delta)`.
    pub pair_deltas: Vec<(ItemId, ItemId, f64)>,
}

/// Encodes a user history together with its replay log — the one format
/// the history bolt stores, whatever its `dedup_window`:
/// `n:u32 | n × 24B records | m:u32 | m × log entries`,
/// record = `item:u64 | rating:f64 | ts:u64`,
/// log entry = `src:u64 | delta:f64 | k:u32 | k × (a:u64, b:u64, d:f64)`.
/// A window of 0 keeps no log entries, so its values end in `m = 0`.
///
/// History and log share one store value on purpose: the store's `modify`
/// mutates them atomically, so "this action was applied" and its effects
/// can never disagree after a crash or an injected write failure.
///
/// The pipeline edits this format where it lies
/// ([`apply_action_in_place`]); this function and [`decode_history`]
/// define it, repair torn values, and are the reference the in-place
/// editor is property-tested against.
pub fn encode_history(entries: &[HistoryRecord], log: &[ReplayLogEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + entries.len() * 24 + log.len() * 24);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for &(item, rating, ts) in entries {
        out.extend_from_slice(&item.to_le_bytes());
        out.extend_from_slice(&rating.to_le_bytes());
        out.extend_from_slice(&ts.to_le_bytes());
    }
    out.extend_from_slice(&(log.len() as u32).to_le_bytes());
    for e in log {
        push_log_entry(&mut out, e.src, e.delta_rating, &e.pair_deltas);
    }
    out
}

/// Appends one replay-log entry in its stored form.
fn push_log_entry(out: &mut Vec<u8>, src: u64, delta: f64, pairs: &[(ItemId, ItemId, f64)]) {
    out.extend_from_slice(&src.to_le_bytes());
    out.extend_from_slice(&delta.to_le_bytes());
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(a, b, d) in pairs {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
    }
}

/// Decodes [`encode_history`]; tolerant of truncation (a torn value
/// yields the longest valid prefix rather than a panic).
pub fn decode_history(raw: &[u8]) -> (Vec<HistoryRecord>, Vec<ReplayLogEntry>) {
    let mut pos = 0usize;
    let read_u32 = |raw: &[u8], pos: &mut usize| -> Option<u32> {
        let v = u32::from_le_bytes(raw.get(*pos..*pos + 4)?.try_into().ok()?);
        *pos += 4;
        Some(v)
    };
    let read_u64 = |raw: &[u8], pos: &mut usize| -> Option<u64> {
        let v = u64::from_le_bytes(raw.get(*pos..*pos + 8)?.try_into().ok()?);
        *pos += 8;
        Some(v)
    };
    let Some(n) = read_u32(raw, &mut pos) else {
        return (Vec::new(), Vec::new());
    };
    let hist_end = pos + (n as usize) * 24;
    let entries = match raw.get(pos..hist_end) {
        Some(slice) => records(slice).collect(),
        None => return (records(&raw[pos..]).collect(), Vec::new()),
    };
    pos = hist_end;
    let mut log = Vec::new();
    if let Some(m) = read_u32(raw, &mut pos) {
        'log: for _ in 0..m {
            let (Some(src), Some(delta_bits), Some(k)) = (
                read_u64(raw, &mut pos),
                read_u64(raw, &mut pos),
                read_u32(raw, &mut pos),
            ) else {
                break;
            };
            // `k` is read from a possibly torn value: never reserve for
            // more deltas than there are bytes left to hold them.
            let room = raw.len().saturating_sub(pos) / HIST_RECORD;
            let mut pair_deltas = Vec::with_capacity(room.min(k as usize));
            for _ in 0..k {
                let (Some(a), Some(b), Some(d_bits)) = (
                    read_u64(raw, &mut pos),
                    read_u64(raw, &mut pos),
                    read_u64(raw, &mut pos),
                ) else {
                    break 'log;
                };
                pair_deltas.push((a, b, f64::from_bits(d_bits)));
            }
            log.push(ReplayLogEntry {
                src,
                delta_rating: f64::from_bits(delta_bits),
                pair_deltas,
            });
        }
    }
    (entries, log)
}

const HIST_RECORD: usize = 24;
/// Fixed part of a log entry: `src:u64 | delta:f64 | k:u32`.
const LOG_ENTRY_HEAD: usize = 20;

/// One action as the history layer applies it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryAction {
    /// The item acted on.
    pub item: ItemId,
    /// Implicit-feedback weight of the action.
    pub weight: f64,
    /// Event time.
    pub ts: Timestamp,
    /// Source id (`(partition, offset)` packed by the replayable spout).
    pub src: u64,
}

/// The bounds a stored history is kept under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryLimits {
    /// Linked time for pair formation.
    pub linked_time_ms: u64,
    /// Records kept per user; past it the stalest record goes.
    pub max_history: usize,
    /// The replay horizon in offsets per partition
    /// ([`past_horizon`]); 0 keeps no log.
    pub dedup_window: usize,
}

/// What one action did to a stored history.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistoryEdit {
    /// Item-count delta the action produced (the original one on a
    /// redelivery).
    pub delta_rating: f64,
    /// Whether any byte of the value changed: `false` exactly when the
    /// action was a redelivery found in a well-formed value's log.
    pub changed: bool,
    /// Replay-log entries retained after the edit minus before it.
    pub log_growth: i64,
}

fn u32_at(buf: &[u8], at: usize) -> Option<usize> {
    let bytes = buf.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")) as usize)
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

fn f64_at(buf: &[u8], at: usize) -> f64 {
    f64::from_bits(u64_at(buf, at))
}

/// Byte length of the log entry starting at `at`, if it is whole.
fn log_entry_len(buf: &[u8], at: usize) -> Option<usize> {
    let k = u32_at(buf, at.checked_add(16)?)?;
    let len = LOG_ENTRY_HEAD.checked_add(k.checked_mul(HIST_RECORD)?)?;
    (at.checked_add(len)? <= buf.len()).then_some(len)
}

/// Shape of a well-formed history value: record count, log entry count, and
/// where the first log entry carrying a given source starts.
struct HistoryShape {
    n: usize,
    m: usize,
    seen_at: Option<usize>,
}

/// Walks a history value looking for `src` in its log. `None` unless the bytes
/// are exactly what [`encode_history`] writes — `n` whole records, `m`
/// whole entries, nothing after them.
fn history_shape(buf: &[u8], src: u64) -> Option<HistoryShape> {
    let n = u32_at(buf, 0)?;
    let m_at = 4usize.checked_add(n.checked_mul(HIST_RECORD)?)?;
    let m = u32_at(buf, m_at)?;
    let (mut at, mut seen_at) = (m_at + 4, None);
    for _ in 0..m {
        let len = log_entry_len(buf, at)?;
        if seen_at.is_none() && u64_at(buf, at) == src {
            seen_at = Some(at);
        }
        at += len;
    }
    (at == buf.len()).then_some(HistoryShape { n, m, seen_at })
}

/// Applies one action to a stored user history where it lies — the whole
/// of the history layer's state change, as one [`TdStore::modify`] body.
///
/// Against the raw 24-byte records it finds the item's rating, raises it
/// to the action's weight, computes the item and pair deltas
/// (`pair_deltas` is cleared and filled: `(a, b, delta)` with `a < b`),
/// moves the item's record to the end with the new timestamp, and past
/// `max_history` drops the stalest record. A source already in the replay
/// log is a redelivery — its *original* deltas are handed back and no
/// byte changes — and a new source is appended with its deltas, after
/// which every entry it puts past the replay horizon ([`past_horizon`])
/// is dropped, the new one included at a window of 0, so that window
/// keeps no log and applies every delivery.
///
/// Bytes are exactly what decoding, editing `Vec`s and re-encoding would
/// store; a torn or malformed value is first rewritten as that decode
/// reads it.
pub fn apply_action_in_place(
    slot: &mut Option<Vec<u8>>,
    action: &HistoryAction,
    limits: &HistoryLimits,
    pair_deltas: &mut Vec<(ItemId, ItemId, f64)>,
) -> HistoryEdit {
    pair_deltas.clear();
    let mut changed = slot.is_none();
    let buf = slot.get_or_insert_with(Vec::new);
    let shape = match history_shape(buf, action.src) {
        Some(shape) => shape,
        None => {
            let (entries, log) = decode_history(buf);
            *buf = encode_history(&entries, &log);
            changed = true;
            history_shape(buf, action.src).expect("a fresh encoding is well-formed")
        }
    };
    if let Some(at) = shape.seen_at {
        let k = u32_at(buf, at + 16).expect("whole entry");
        pair_deltas.extend((0..k).map(|i| {
            let d = at + LOG_ENTRY_HEAD + i * HIST_RECORD;
            (u64_at(buf, d), u64_at(buf, d + 8), f64_at(buf, d + 16))
        }));
        return HistoryEdit {
            delta_rating: f64_at(buf, at + 8),
            changed,
            log_growth: 0,
        };
    }
    let HistoryShape { n, m, .. } = shape;

    let HistoryAction {
        item,
        weight,
        ts,
        src,
    } = *action;
    let record = |buf: &[u8], i: usize| {
        let at = 4 + i * HIST_RECORD;
        (u64_at(buf, at), f64_at(buf, at + 8), u64_at(buf, at + 16))
    };
    let old = (0..n)
        .map(|i| record(buf, i))
        .find(|&(other, _, _)| other == item)
        .map_or(0.0, |(_, rating, _)| rating);
    let new = old.max(weight);
    // The item's record moves to the end: the others close up over it.
    let mut kept = 0;
    for i in 0..n {
        let (other, rating, last_ts) = record(buf, i);
        if other == item {
            continue;
        }
        if ts.saturating_sub(last_ts) <= limits.linked_time_ms {
            let delta = new.min(rating) - old.min(rating);
            if delta != 0.0 {
                pair_deltas.push((item.min(other), item.max(other), delta));
            }
        }
        if kept != i {
            let from = 4 + i * HIST_RECORD;
            buf.copy_within(from..from + HIST_RECORD, 4 + kept * HIST_RECORD);
        }
        kept += 1;
    }
    let records_end = 4 + n * HIST_RECORD;
    let at = 4 + kept * HIST_RECORD;
    if kept == n {
        // A new item: one record's room opens between records and log.
        let len = buf.len();
        buf.reserve_exact(HIST_RECORD);
        buf.resize(len + HIST_RECORD, 0);
        buf.copy_within(records_end..len, records_end + HIST_RECORD);
    } else {
        buf.drain(at + HIST_RECORD..records_end);
    }
    buf[at..at + 8].copy_from_slice(&item.to_le_bytes());
    buf[at + 8..at + 16].copy_from_slice(&new.to_le_bytes());
    buf[at + 16..at + 24].copy_from_slice(&ts.to_le_bytes());
    let mut n = kept + 1;
    if n > limits.max_history {
        // The stalest record (the first of equals) goes; the last takes
        // its place.
        let stalest = (0..n).min_by_key(|&i| record(buf, i).2).expect("non-empty");
        let last = 4 + (n - 1) * HIST_RECORD;
        buf.copy_within(last..last + HIST_RECORD, 4 + stalest * HIST_RECORD);
        buf.drain(last..last + HIST_RECORD);
        n -= 1;
    }
    buf[..4].copy_from_slice(&(n as u32).to_le_bytes());

    let window = limits.dedup_window as u64;
    let log_at = 4 + n * HIST_RECORD + 4;
    // Entries the new source puts past the replay horizon close up.
    let (mut read, mut write, mut live) = (log_at, log_at, 0usize);
    for _ in 0..m {
        let len = log_entry_len(buf, read).expect("well-formed log");
        if !past_horizon(u64_at(buf, read), src, window) {
            if write != read {
                buf.copy_within(read..read + len, write);
            }
            write += len;
            live += 1;
        }
        read += len;
    }
    buf.truncate(write);
    if !past_horizon(src, src, window) {
        buf.reserve_exact(LOG_ENTRY_HEAD + pair_deltas.len() * HIST_RECORD);
        push_log_entry(buf, src, new - old, pair_deltas);
        live += 1;
    }
    buf[log_at - 4..log_at].copy_from_slice(&(live as u32).to_le_bytes());
    HistoryEdit {
        delta_rating: new - old,
        changed: true,
        log_growth: live as i64 - m as i64,
    }
}

/// The records of a stored user history: only the `n × 24` record bytes
/// are read. The replay log behind them is the history bolt's business
/// alone, so a torn or garbage log changes nothing here; a torn record
/// block yields its whole records, as [`decode_history`] does.
pub fn read_history(raw: &[u8]) -> Vec<HistoryRecord> {
    history_records(raw).collect()
}

/// [`read_history`] without the copy: the records are decoded where they
/// lie, so a caller inside [`TdStore::read`] keeps only what it needs.
pub(crate) fn history_records(raw: &[u8]) -> impl ExactSizeIterator<Item = HistoryRecord> + '_ {
    let block = match raw.split_first_chunk::<4>() {
        Some((n, block)) => {
            let wanted = (u32::from_le_bytes(*n) as usize).saturating_mul(HIST_RECORD);
            &block[..block.len().min(wanted)]
        }
        None => &[],
    };
    records(block)
}

/// The whole 24-byte records of a record block.
fn records(block: &[u8]) -> impl ExactSizeIterator<Item = HistoryRecord> + '_ {
    block
        .chunks_exact(HIST_RECORD)
        .map(|c| (u64_at(c, 0), f64_at(c, 8), u64_at(c, 16)))
}

/// One similar-items entry: `(item, similarity)`.
pub type SimRecord = (ItemId, f64);

/// Encodes a similar-items list (already sorted best-first).
pub fn encode_sim_list(entries: &[SimRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 16);
    for &(item, sim) in entries {
        out.extend_from_slice(&item.to_le_bytes());
        out.extend_from_slice(&sim.to_le_bytes());
    }
    out
}

/// Decodes a similar-items list.
pub fn decode_sim_list(raw: &[u8]) -> Vec<SimRecord> {
    sim_records(raw).collect()
}

/// [`decode_sim_list`] without the copy: the entries are decoded where
/// they lie; a torn tail (length not a multiple of 16) is ignored.
pub(crate) fn sim_records(raw: &[u8]) -> impl ExactSizeIterator<Item = SimRecord> + '_ {
    raw.chunks_exact(SIM_RECORD)
        .map(|c| (u64_at(c, 0), f64_at(c, 8)))
}

const SIM_RECORD: usize = 16;

fn sim_item_at(list: &[u8], i: usize) -> ItemId {
    u64_at(list, i * SIM_RECORD)
}

fn sim_score_at(list: &[u8], i: usize) -> f64 {
    f64_at(list, i * SIM_RECORD + 8)
}

/// Inserts/updates `(other, sim)` in an encoded top-`k` list (sorted
/// best-first, as every writer leaves it), editing the 16-byte records in
/// place: `other`'s old record is dropped, and when `sim > 0` the new one
/// goes in after every score `>= sim` and the list is cut back to `k`.
/// Returns whether any byte changed — it does not in the common case of a
/// pair that is not listed and scores below a full list's k-th entry.
pub fn apply_sim_entry(list: &mut Vec<u8>, other: ItemId, sim: f64, k: usize) -> bool {
    // Only whole records count; a torn tail is dropped.
    let n = list.len() / SIM_RECORD;
    let mut changed = list.len() != n * SIM_RECORD;
    list.truncate(n * SIM_RECORD);
    let found = (0..n).find(|&i| sim_item_at(list, i) == other);
    if sim <= 0.0 || sim.is_nan() {
        if let Some(i) = found {
            list.drain(i * SIM_RECORD..(i + 1) * SIM_RECORD);
            changed = true;
        }
        return changed;
    }
    // Index of the new record among the *other* entries.
    let pos = (0..n)
        .filter(|&i| Some(i) != found)
        .take_while(|&i| sim_score_at(list, i) >= sim)
        .count();
    let span = |from: usize, to: usize| from * SIM_RECORD..to * SIM_RECORD;
    match found {
        // Stays where it is: at most the score changes.
        Some(i) if pos == i => changed |= sim_score_at(list, i).to_bits() != sim.to_bits(),
        Some(i) if pos < i => {
            list.copy_within(span(pos, i), (pos + 1) * SIM_RECORD);
            changed = true;
        }
        Some(i) => {
            list.copy_within(span(i + 1, pos + 1), i * SIM_RECORD);
            changed = true;
        }
        // Below the k-th score of a full list: falls off the end.
        None if pos >= k => return finish_sim_list(list, k, changed),
        None => {
            if n < k {
                list.reserve_exact(SIM_RECORD);
                list.extend_from_slice(&[0; SIM_RECORD]);
            }
            let last = list.len() / SIM_RECORD - 1;
            list.copy_within(span(pos, last), (pos + 1) * SIM_RECORD);
            changed = true;
        }
    }
    let at = pos * SIM_RECORD;
    list[at..at + 8].copy_from_slice(&other.to_le_bytes());
    list[at + 8..at + 16].copy_from_slice(&sim.to_le_bytes());
    finish_sim_list(list, k, changed)
}

fn finish_sim_list(list: &mut Vec<u8>, k: usize, changed: bool) -> bool {
    let oversized = list.len() > k * SIM_RECORD;
    list.truncate(k * SIM_RECORD);
    changed || oversized
}

/// The pruning threshold of an encoded list: k-th score when full, else 0.
pub fn sim_list_threshold(raw: &[u8], k: usize) -> f64 {
    let n = raw.len() / SIM_RECORD;
    if n == 0 || n < k {
        0.0
    } else {
        sim_score_at(raw, n - 1)
    }
}

/// Applies `entries` — `(other, sim)` in arrival order — to `item`'s
/// stored similar-items list in one conditional in-place store update, and
/// returns the list's pruning threshold afterwards. A batch that changes
/// no byte (the usual case: unlisted pairs scoring below the k-th entry)
/// is reported unchanged, so the store does not write it.
pub fn update_sim_list(
    store: &TdStore,
    item: ItemId,
    entries: &[SimRecord],
    k: usize,
) -> Result<f64, StoreError> {
    let mut threshold = 0.0;
    store.modify(&keys::similar_items(item), |slot| {
        // A first update stores the list even if it ends up empty.
        let mut changed = slot.is_none();
        let list = slot.get_or_insert_with(Vec::new);
        for &(other, sim) in entries {
            changed |= apply_sim_entry(list, other, sim, k);
        }
        threshold = sim_list_threshold(list, k);
        changed
    })?;
    Ok(threshold)
}

/// Key for a windowed count bucket: `prefix` + raw key + session index.
/// Un-windowed counts use session `u64::MAX` as the single bucket.
pub fn session_key(base: &[u8], session: u64) -> KeyBuf {
    KeyBuf::new(base).with(b"@").with(&session.to_le_bytes())
}

/// The count held in a stored counter value
/// (`count:f64 | n:u32 | n × src:u64`): the first 8 bytes.
pub fn counter_prefix(raw: &[u8]) -> f64 {
    match raw.first_chunk::<8>() {
        Some(bytes) => f64::from_le_bytes(*bytes),
        None => 0.0,
    }
}

/// Reads a counter's count without copying the source ring behind it.
fn stored_count(store: &TdStore, key: &[u8]) -> Result<f64, StoreError> {
    store.read(key, |raw| raw.map_or(0.0, counter_prefix))
}

/// What a batch of deltas did to one counter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterUpdate {
    /// Deltas applied (the rest were duplicate sources, skipped).
    pub applied: usize,
    /// The count after the batch.
    pub count: f64,
    /// Whether any byte of the value changed.
    pub changed: bool,
}

const RING_AT: usize = 12;

/// Applies `(src, delta)` updates to a counter value where it lies.
///
/// Value layout: `count:f64 | n:u32 | n × src:u64`, a ring of the applied
/// source ids still inside the replay horizon ([`past_horizon`]: per
/// partition, the last `window` offsets; none at window 0, where the
/// value is `count | 0`). The ring lives in the *same* store value as the
/// count, so one atomic update both checks and marks: a crash or injected
/// write failure can never apply a delta without recording its src (or
/// vice versa). That idempotence turns the spout's at-least-once
/// redelivery into exactly-once count effects.
///
/// The ring bytes are scanned for each source, and an unseen one bumps the
/// count, closes the ring up over every source it puts past the horizon,
/// and is appended. No decoded ring, no second buffer, and growth is
/// exact, so stored values carry no slack.
/// Deltas apply strictly in order with the ring trimmed at every insert,
/// so the bytes equal one update per delta. A short or torn value is
/// first cut back to its readable prefix, as a decode would read it.
pub fn apply_deltas_in_place(
    slot: &mut Option<Vec<u8>>,
    deltas: &[(u64, f64)],
    window: usize,
) -> CounterUpdate {
    let window = window as u64;
    let mut changed = slot.is_none();
    let buf = slot.get_or_insert_with(Vec::new);
    let mut count = counter_prefix(buf);
    let declared = buf.get(8..RING_AT).map_or(0, |b| {
        u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize
    });
    if buf.len() != RING_AT + 8 * declared {
        // An unreadable count or length reads as 0; sources stop at the
        // first torn one.
        let n = declared.min(buf.len().saturating_sub(RING_AT) / 8);
        if buf.len() < RING_AT {
            buf.truncate(if buf.len() < 8 { 0 } else { 8 });
            buf.resize(RING_AT, 0);
        }
        buf.truncate(RING_AT + 8 * n);
        changed = true;
    }
    let mut applied = 0;
    for &(src, delta) in deltas {
        if buf[RING_AT..]
            .chunks_exact(8)
            .any(|s| s == src.to_le_bytes())
        {
            continue;
        }
        count += delta;
        applied += 1;
        let mut write = RING_AT;
        for read in (RING_AT..buf.len()).step_by(8) {
            if !past_horizon(u64_at(buf, read), src, window) {
                if write != read {
                    buf.copy_within(read..read + 8, write);
                }
                write += 8;
            }
        }
        buf.truncate(write);
        if !past_horizon(src, src, window) {
            buf.reserve_exact(8);
            buf.extend_from_slice(&src.to_le_bytes());
        }
    }
    if applied > 0 || changed {
        let n = (buf.len() - RING_AT) / 8;
        buf[..8].copy_from_slice(&count.to_le_bytes());
        buf[8..RING_AT].copy_from_slice(&(n as u32).to_le_bytes());
        changed = true;
    }
    CounterUpdate {
        applied,
        count,
        changed,
    }
}

/// Applies a batch of `(src, delta)` updates to the counter at `key` in
/// one atomic, in-place store update ([`apply_deltas_in_place`]) and
/// reports what it did — including the new count, so the caller need not
/// read back what it just wrote. A batch of nothing but duplicate sources
/// leaves the value untouched: no write.
pub fn apply_counter_deltas(
    store: &TdStore,
    key: &[u8],
    deltas: &[(u64, f64)],
    window: usize,
) -> Result<CounterUpdate, StoreError> {
    let mut update = CounterUpdate::default();
    store.modify(key, |slot| {
        update = apply_deltas_in_place(slot, deltas, window);
        update.changed
    })?;
    Ok(update)
}

/// Sums the last `window` session buckets of `base` ending at
/// `current_session` (pass `window = 0` for the un-windowed bucket).
pub fn windowed_sum(
    store: &TdStore,
    base: &[u8],
    current_session: u64,
    window: usize,
) -> Result<f64, StoreError> {
    windowed_sum_with(store, base, current_session, window, &[])
}

/// [`windowed_sum`] for a caller that already holds some buckets' counts
/// — `known` is `(session, count)`, e.g. straight from the
/// [`apply_counter_deltas`] that wrote them — and so reads only the rest.
pub fn windowed_sum_with(
    store: &TdStore,
    base: &[u8],
    current_session: u64,
    window: usize,
    known: &[(u64, f64)],
) -> Result<f64, StoreError> {
    let sessions = if window == 0 {
        u64::MAX..=u64::MAX
    } else {
        current_session.saturating_sub(window as u64 - 1)..=current_session
    };
    let mut total = 0.0;
    for session in sessions {
        total += match known.iter().find(|&&(s, _)| s == session) {
            Some(&(_, count)) => count,
            None => stored_count(store, &session_key(base, session))?,
        };
    }
    Ok(total)
}

/// Deletes windowed count buckets whose session is older than
/// `current_session - window + 1` for every key under `prefix`. Returns
/// the number of buckets removed.
///
/// The sliding-window counts write one store key per `(base, session)`;
/// expired sessions stop being *read* immediately (the window sum skips
/// them) but their buckets linger. Production systems run this as a
/// periodic maintenance task to bound store size.
pub fn gc_expired_sessions(
    store: &TdStore,
    prefix: &[u8],
    current_session: u64,
    window: usize,
) -> Result<usize, StoreError> {
    if window == 0 {
        return Ok(0); // unbounded counts: nothing expires
    }
    let oldest_kept = current_session.saturating_sub(window as u64 - 1);
    let mut removed = 0;
    for (key, _) in store.scan_prefix(prefix)? {
        // Keys end with `@<session:8 bytes LE>`.
        if key.len() < 9 || key[key.len() - 9] != b'@' {
            continue;
        }
        let session = u64::from_le_bytes(key[key.len() - 8..].try_into().expect("8 bytes"));
        if session != u64::MAX && session < oldest_kept && store.delete(&key)? {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::replay::encode_src;
    use tdstore::StoreConfig;

    /// One delta from source `src`, as the CF bolts apply it; whether it
    /// applied.
    fn add(store: &TdStore, key: &[u8], delta: f64, src: u64, window: usize) -> bool {
        apply_counter_deltas(store, key, &[(src, delta)], window)
            .unwrap()
            .applied
            == 1
    }

    /// Adds `delta` to the bucket of `base` at `session`, remembering no
    /// source.
    fn bump(store: &TdStore, base: &[u8], session: u64, delta: f64) {
        assert!(add(store, &session_key(base, session), delta, 0, 0));
    }

    #[test]
    fn history_round_trip() {
        let entries = vec![(1u64, 2.5f64, 100u64), (9, 5.0, 200)];
        let raw = encode_history(&entries, &[]);
        let mut want = 2u32.to_le_bytes().to_vec();
        for &(item, rating, ts) in &entries {
            want.extend_from_slice(&item.to_le_bytes());
            want.extend_from_slice(&rating.to_le_bytes());
            want.extend_from_slice(&ts.to_le_bytes());
        }
        want.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(raw, want, "n | records | m = 0");
        assert_eq!(decode_history(&raw), (entries, Vec::new()));
        assert_eq!(decode_history(&[]), (Vec::new(), Vec::new()));
    }

    #[test]
    fn window_zero_history_keeps_no_log_and_reapplies_a_source() {
        let limits = HistoryLimits {
            linked_time_ms: u64::MAX,
            max_history: 8,
            dedup_window: 0,
        };
        let (mut slot, mut pairs) = (None, Vec::new());
        let click = |item, ts| HistoryAction {
            item,
            weight: 1.0,
            ts,
            src: 7,
        };
        let edit = apply_action_in_place(&mut slot, &click(1, 10), &limits, &mut pairs);
        assert_eq!((edit.delta_rating, edit.log_growth), (1.0, 0));
        assert_eq!(
            slot.as_deref(),
            Some(&encode_history(&[(1, 1.0, 10)], &[])[..])
        );
        // The same source again: nothing remembers it, so it applies.
        let edit = apply_action_in_place(&mut slot, &click(2, 11), &limits, &mut pairs);
        assert!(edit.changed);
        assert_eq!(
            (edit.delta_rating, pairs.as_slice()),
            (1.0, &[(1, 2, 1.0)][..])
        );
        let entries = [(1, 1.0, 10), (2, 1.0, 11)];
        assert_eq!(slot.as_deref(), Some(&encode_history(&entries, &[])[..]));
    }

    #[test]
    fn window_zero_counter_is_count_then_zero_and_reapplies_a_source() {
        let store = TdStore::new(StoreConfig::default());
        assert!(add(&store, b"c", 2.0, 10, 0));
        assert!(
            add(&store, b"c", 3.0, 10, 0),
            "a redelivered src applies again"
        );
        let mut want = 5.0f64.to_le_bytes().to_vec();
        want.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(store.get(b"c").unwrap().unwrap(), want, "count | 0");
    }

    #[test]
    fn sim_list_round_trip() {
        let entries = vec![(3u64, 0.9f64), (7, 0.5)];
        assert_eq!(decode_sim_list(&encode_sim_list(&entries)), entries);
    }

    /// One entry applied to a copy of `list`.
    fn with_entry(list: &[u8], other: ItemId, sim: f64, k: usize) -> Vec<u8> {
        let mut list = list.to_vec();
        apply_sim_entry(&mut list, other, sim, k);
        list
    }

    #[test]
    fn sim_entries_keep_order_and_k() {
        let raw = with_entry(&[], 1, 0.5, 2);
        let raw = with_entry(&raw, 2, 0.9, 2);
        let raw = with_entry(&raw, 3, 0.7, 2);
        assert_eq!(decode_sim_list(&raw), vec![(2, 0.9), (3, 0.7)]);
        // Updating an existing entry reorders.
        let raw = with_entry(&raw, 3, 0.95, 2);
        assert_eq!(decode_sim_list(&raw), vec![(3, 0.95), (2, 0.9)]);
        // Dropping to zero removes.
        let raw = with_entry(&raw, 3, 0.0, 2);
        assert_eq!(decode_sim_list(&raw), vec![(2, 0.9)]);
    }

    #[test]
    fn sim_entry_reports_change_only_when_bytes_change() {
        let mut list = encode_sim_list(&[(1, 0.9), (2, 0.5)]);
        let before = list.clone();
        // Unlisted and below the k-th score of a full list: nothing moves.
        assert!(!apply_sim_entry(&mut list, 3, 0.4, 2));
        // A tie with the k-th score goes after it, so off the end too.
        assert!(!apply_sim_entry(&mut list, 3, 0.5, 2));
        // The same score for a listed item, removing an unlisted one.
        assert!(!apply_sim_entry(&mut list, 2, 0.5, 2));
        assert!(!apply_sim_entry(&mut list, 7, 0.0, 2));
        assert_eq!(list, before);
        assert_eq!(list.capacity(), list.len(), "no growth slack");
        assert!(apply_sim_entry(&mut list, 2, 0.6, 2));
        assert!(apply_sim_entry(&mut list, 3, 0.95, 2));
        assert_eq!(decode_sim_list(&list), vec![(3, 0.95), (1, 0.9)]);
    }

    #[test]
    fn threshold_semantics() {
        assert_eq!(sim_list_threshold(&[], 2), 0.0);
        let raw = with_entry(&[], 1, 0.5, 2);
        assert_eq!(sim_list_threshold(&raw, 2), 0.0, "not full");
        let raw = with_entry(&raw, 2, 0.8, 2);
        assert_eq!(sim_list_threshold(&raw, 2), 0.5);
    }

    /// A store, and a reader of how many writes it has taken.
    fn counted_store() -> (TdStore, impl Fn() -> u64) {
        let store = TdStore::new(StoreConfig::default());
        let registry = obs::Registry::new();
        store.register_metrics(&registry);
        let writes = move || {
            registry
                .counter_value("tdstore_ops_total", &[("op", "write")])
                .unwrap_or(0)
        };
        (store, writes)
    }

    #[test]
    fn store_list_update_is_conditional() {
        let (store, writes) = counted_store();
        let t = update_sim_list(&store, 9, &[(1, 0.9), (2, 0.5), (3, 0.7)], 2).unwrap();
        assert_eq!(t, 0.7);
        let key = keys::similar_items(9);
        let stored = store.get(&key).unwrap().unwrap();
        assert_eq!(decode_sim_list(&stored), vec![(1, 0.9), (3, 0.7)]);
        assert_eq!(writes(), 1);
        // Entries that fall off the end leave the value alone, write
        // nothing, and still report the threshold.
        let t = update_sim_list(&store, 9, &[(4, 0.1), (5, 0.7)], 2).unwrap();
        assert_eq!(t, 0.7);
        assert_eq!(writes(), 1);
        assert_eq!(store.get(&key).unwrap().unwrap(), stored);
    }

    #[test]
    fn windowed_counts_in_store() {
        let store = TdStore::new(StoreConfig::default());
        bump(&store, b"ic:7", 10, 2.0);
        bump(&store, b"ic:7", 11, 3.0);
        bump(&store, b"ic:7", 20, 5.0);
        // Window of 3 sessions ending at 12 sees sessions 10..=12.
        assert_eq!(windowed_sum(&store, b"ic:7", 12, 3).unwrap(), 5.0);
        // Window ending at 20 sees only session 20.
        assert_eq!(windowed_sum(&store, b"ic:7", 20, 3).unwrap(), 5.0);
    }

    #[test]
    fn gc_removes_only_expired_buckets() {
        let store = TdStore::new(StoreConfig::default());
        bump(&store, b"ic:1", 5, 1.0);
        bump(&store, b"ic:1", 9, 1.0);
        bump(&store, b"ic:1", 10, 1.0);
        bump(&store, b"ic:2", 2, 1.0);
        // Window of 3 ending at session 10 keeps sessions 8..=10.
        let removed = gc_expired_sessions(&store, b"ic:", 10, 3).unwrap();
        assert_eq!(removed, 2, "sessions 5 and 2 expire");
        assert_eq!(windowed_sum(&store, b"ic:1", 10, 3).unwrap(), 2.0);
        assert_eq!(store.len().unwrap(), 2);
    }

    #[test]
    fn gc_ignores_unwindowed_buckets() {
        let store = TdStore::new(StoreConfig::default());
        bump(&store, b"ic:7", u64::MAX, 3.0);
        assert_eq!(gc_expired_sessions(&store, b"ic:", 1_000, 2).unwrap(), 0);
        assert_eq!(windowed_sum(&store, b"ic:7", 0, 0).unwrap(), 3.0);
    }

    #[test]
    fn gc_noop_for_unbounded_window() {
        let store = TdStore::new(StoreConfig::default());
        bump(&store, b"ic:7", 3, 1.0);
        assert_eq!(gc_expired_sessions(&store, b"ic:", 100, 0).unwrap(), 0);
    }

    #[test]
    fn history_v2_round_trips_with_log() {
        let entries = vec![(1u64, 2.0f64, 100u64), (9, 5.0, 200)];
        let log = vec![
            ReplayLogEntry {
                src: 77,
                delta_rating: 2.0,
                pair_deltas: vec![(1, 9, 2.0), (1, 4, 1.0)],
            },
            ReplayLogEntry {
                src: 78,
                delta_rating: 0.0,
                pair_deltas: Vec::new(),
            },
        ];
        let raw = encode_history(&entries, &log);
        assert_eq!(decode_history(&raw), (entries.clone(), log));
        assert_eq!(read_history(&raw), entries);
        // The query side reads the records only: a torn or garbage log
        // behind them changes nothing.
        let records_end = 4 + entries.len() * 24;
        for cut in records_end..raw.len() {
            assert_eq!(read_history(&raw[..cut]), entries);
        }
        let mut garbage = raw[..records_end].to_vec();
        garbage.extend_from_slice(&[0xFF; 37]);
        assert_eq!(read_history(&garbage), entries);
        // A torn record block yields its whole records, like the full
        // decoder.
        assert_eq!(read_history(&raw[..records_end - 5]), entries[..1]);
        assert_eq!(
            decode_history(&raw[..records_end - 5]).0,
            read_history(&raw[..records_end - 5])
        );
        assert!(read_history(&raw[..3]).is_empty());
        // Truncation degrades, never panics.
        assert_eq!(decode_history(&raw[..raw.len() - 3]).0, entries);
        assert!(decode_history(&[]).0.is_empty());
    }

    #[test]
    fn counter_delta_dedups_by_src() {
        let store = TdStore::new(StoreConfig::default());
        assert!(add(&store, b"c", 2.0, 10, 4));
        assert!(add(&store, b"c", 3.0, 11, 4));
        // Same src again: skipped, count unchanged.
        assert!(!add(&store, b"c", 2.0, 10, 4));
        let raw = store.get(b"c").unwrap().unwrap();
        assert_eq!(counter_prefix(&raw), 5.0);
    }

    #[test]
    fn counter_ring_evicts_beyond_window() {
        let store = TdStore::new(StoreConfig::default());
        for src in 0..5u64 {
            assert!(add(&store, b"c", 1.0, src, 3));
        }
        // src 0 lies the window or more behind src 4, past the horizon: it
        // re-applies (the window bounds how far back dedup reaches —
        // callers size it to the spout's span cap, which never lets an
        // offset that far back come again).
        assert!(add(&store, b"c", 1.0, 0, 3));
        // src 4 is still in the ring.
        assert!(!add(&store, b"c", 1.0, 4, 3));
        assert_eq!(counter_prefix(&store.get(b"c").unwrap().unwrap()), 6.0);
    }

    #[test]
    fn other_partitions_never_push_a_source_out_of_the_ring() {
        // A hot key: one partition-0 source, then many times the window's
        // worth of updates from partition 1, then the partition-0 source
        // redelivered. Only its own partition's offsets move its horizon.
        let window = 8;
        let store = TdStore::new(StoreConfig::default());
        let src = encode_src(0, 5);
        assert!(add(&store, b"c", 1.0, src, window));
        for off in 0..3 * window as u64 {
            assert!(add(&store, b"c", 1.0, encode_src(1, off), window));
        }
        let before = store.get(b"c").unwrap().unwrap();
        assert_eq!(counter_prefix(&before), 25.0);
        assert!(!add(&store, b"c", 1.0, src, window), "a redelivery applied");
        assert_eq!(store.get(b"c").unwrap().unwrap(), before);
        // The ring: the partition-0 source and partition 1's last window.
        assert_eq!(before.len(), RING_AT + 8 * (1 + window));
    }

    #[test]
    fn batched_deltas_match_sequential_application() {
        let a = TdStore::new(StoreConfig::default());
        let b = TdStore::new(StoreConfig::default());
        // Includes an in-batch duplicate (src 2) and enough entries to
        // roll the ring mid-batch.
        let deltas: Vec<(u64, f64)> = vec![(1, 1.0), (2, 2.0), (2, 9.0), (3, 0.5), (4, 1.5)];
        let update = apply_counter_deltas(&a, b"c", &deltas, 3).unwrap();
        assert_eq!((update.applied, update.count), (4, 5.0));
        for &(src, delta) in &deltas {
            add(&b, b"c", delta, src, 3);
        }
        assert_eq!(a.get(b"c").unwrap(), b.get(b"c").unwrap());
        assert_eq!(counter_prefix(&a.get(b"c").unwrap().unwrap()), 5.0);
    }

    #[test]
    fn duplicate_only_batch_leaves_value_alone() {
        let (store, writes) = counted_store();
        apply_counter_deltas(&store, b"c", &[(1, 1.0), (2, 2.0)], 4).unwrap();
        let stored = store.get(b"c").unwrap().unwrap();
        assert_eq!(stored.len(), 12 + 2 * 8);
        assert_eq!(writes(), 1);
        let update = apply_counter_deltas(&store, b"c", &[(2, 2.0), (1, 1.0)], 4).unwrap();
        assert_eq!(
            update,
            CounterUpdate {
                applied: 0,
                count: 3.0,
                changed: false
            }
        );
        assert_eq!(writes(), 1);
        assert_eq!(store.get(b"c").unwrap().unwrap(), stored);
    }

    #[test]
    fn full_ring_rolls_in_place_without_slack() {
        let mut slot = None;
        for src in 0..40u64 {
            apply_deltas_in_place(&mut slot, &[(src, 1.0)], 8);
        }
        let buf = slot.unwrap();
        assert_eq!(buf.len(), 12 + 8 * 8);
        assert!(buf.capacity() <= buf.len() + 8, "ring grew past its window");
        assert_eq!(counter_prefix(&buf), 40.0);
        let newest = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        let oldest = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        assert_eq!((oldest, newest), (32, 39));
    }

    #[test]
    fn windowed_sum_uses_known_buckets() {
        let store = TdStore::new(StoreConfig::default());
        bump(&store, b"pc:x", 10, 2.0);
        bump(&store, b"pc:x", 11, 3.0);
        // Session 11 is taken from the caller, not the store.
        let sum = windowed_sum_with(&store, b"pc:x", 11, 3, &[(11, 30.0)]).unwrap();
        assert_eq!(sum, 32.0);
        let sum = windowed_sum_with(&store, b"pc:y", 0, 0, &[(u64::MAX, 7.0)]).unwrap();
        assert_eq!(sum, 7.0);
    }

    #[test]
    fn windowed_sum_reads_dedup_counters() {
        let store = TdStore::new(StoreConfig::default());
        let key = session_key(b"ic:7", u64::MAX);
        add(&store, &key, 2.5, 1, 8);
        add(&store, &key, 1.5, 2, 8);
        assert_eq!(windowed_sum(&store, b"ic:7", 0, 0).unwrap(), 4.0);
    }

    #[test]
    fn unwindowed_bucket() {
        let store = TdStore::new(StoreConfig::default());
        bump(&store, b"ic:9", u64::MAX, 1.5);
        bump(&store, b"ic:9", u64::MAX, 1.5);
        assert_eq!(windowed_sum(&store, b"ic:9", 0, 0).unwrap(), 3.0);
    }
}
