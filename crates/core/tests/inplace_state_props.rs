//! Property tests for the three values the CF bolts edit where they lie
//! in TDStore: the dedup-tracked counter
//! (`count:f64 | n:u32 | n × src:u64`), the similar-items list (16-byte
//! `(item, sim)` records, best first), and the user history (24-byte
//! records with the replay log behind them). Every window, 0 included,
//! writes these same formats; the window only sets how much replay memory
//! they keep.
//!
//! The references are the decode → `Vec` → encode forms the in-place
//! editors replaced. Every stored byte must come out the same — the chaos
//! matrix compares count tables bit for bit, and a ring that drifted by
//! one source would re-apply or drop a replayed delta — and "unchanged"
//! must mean exactly that, because an unchanged value is not written.

use proptest::prelude::*;
use tencentrec::topology::replay::{decode_src, encode_src};
use tencentrec::topology::state::{
    apply_action_in_place, apply_deltas_in_place, apply_sim_entry, counter_prefix, decode_history,
    decode_sim_list, encode_history, encode_sim_list, HistoryAction, HistoryLimits, ReplayLogEntry,
};
use tencentrec::types::ItemId;

/// The replay horizon, written out again from its definition rather than
/// called: a remembered source goes once a newer source of its own
/// partition lies `window` or more offsets past it.
fn horizon(kept: u64, newer: u64, window: usize) -> bool {
    let ((kept_pid, kept_off), (pid, off)) = (decode_src(kept), decode_src(newer));
    kept_pid == pid && kept_off + window as u64 <= off
}

/// The counter update as decode → edit → encode: decode the whole value,
/// edit a `Vec<u64>` ring trimmed by the replay horizon, encode a new
/// value. Returns the bytes and how many deltas applied.
fn reference_counter(raw: Option<&[u8]>, deltas: &[(u64, f64)], window: usize) -> (Vec<u8>, usize) {
    let (mut count, mut srcs) = match raw {
        None => (0.0, Vec::new()),
        Some(raw) => {
            let n = raw
                .get(8..12)
                .map_or(0, |b| u32::from_le_bytes(b.try_into().unwrap()));
            let srcs: Vec<u64> = (0..n as usize)
                .map_while(|i| {
                    raw.get(12 + i * 8..20 + i * 8)
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                })
                .collect();
            (counter_prefix(raw), srcs)
        }
    };
    let mut applied = 0;
    for &(src, delta) in deltas {
        if !srcs.contains(&src) {
            count += delta;
            srcs.push(src);
            srcs.retain(|&kept| !horizon(kept, src, window));
            applied += 1;
        }
    }
    let mut out = Vec::with_capacity(12 + srcs.len() * 8);
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&(srcs.len() as u32).to_le_bytes());
    for s in &srcs {
        out.extend_from_slice(&s.to_le_bytes());
    }
    (out, applied)
}

/// The list update as it was: decode, edit a `Vec`, encode.
fn reference_sim_list(raw: &[u8], other: ItemId, sim: f64, k: usize) -> Vec<u8> {
    let mut entries = decode_sim_list(raw);
    if let Some(pos) = entries.iter().position(|&(i, _)| i == other) {
        entries.remove(pos);
    }
    if sim > 0.0 {
        let pos = entries.partition_point(|&(_, s)| s >= sim);
        entries.insert(pos, (other, sim));
        entries.truncate(k);
    }
    encode_sim_list(&entries)
}

/// The history update as decode → edit → encode: decode the records and
/// the log, edit `Vec`s, encode — plus the horizon trim on the decoded
/// log, which keeps nothing at window 0. Returns the bytes to store, the
/// item delta and the pair deltas to emit.
fn reference_history(
    raw: Option<&[u8]>,
    action: &HistoryAction,
    limits: &HistoryLimits,
) -> (Vec<u8>, f64, Vec<(ItemId, ItemId, f64)>) {
    let window = limits.dedup_window;
    let (mut entries, mut log) = raw.map(decode_history).unwrap_or_default();
    if let Some(seen) = log.iter().find(|e| e.src == action.src) {
        let (delta, pairs) = (seen.delta_rating, seen.pair_deltas.clone());
        return (encode_history(&entries, &log), delta, pairs);
    }
    let HistoryAction {
        item,
        weight,
        ts,
        src,
    } = *action;
    let old = entries
        .iter()
        .find(|&&(i, _, _)| i == item)
        .map_or(0.0, |&(_, r, _)| r);
    let new = old.max(weight);
    let mut pair_deltas = Vec::new();
    for &(other, rating, last_ts) in &entries {
        if other == item || ts.saturating_sub(last_ts) > limits.linked_time_ms {
            continue;
        }
        let delta = new.min(rating) - old.min(rating);
        if delta != 0.0 {
            pair_deltas.push((item.min(other), item.max(other), delta));
        }
    }
    entries.retain(|&(i, _, _)| i != item);
    entries.push((item, new, ts));
    if entries.len() > limits.max_history {
        let (idx, _) = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(_, _, t))| t)
            .expect("non-empty");
        entries.swap_remove(idx);
    }
    log.push(ReplayLogEntry {
        src,
        delta_rating: new - old,
        pair_deltas: pair_deltas.clone(),
    });
    log.retain(|e| !horizon(e.src, src, window));
    (encode_history(&entries, &log), new - old, pair_deltas)
}

/// One step of a history's life: an action, and optionally damage done
/// to the stored value before it (`cut` bytes kept, then `tail` appended).
#[derive(Debug, Clone)]
struct HistoryStep {
    item: ItemId,
    weight: f64,
    ts: u64,
    pid: u32,
    advance: u64,
    /// Redeliver an earlier step's source instead of a new one.
    replay: Option<usize>,
    damage: Option<(usize, Vec<u8>)>,
}

fn arb_history_step() -> impl Strategy<Value = HistoryStep> {
    (
        (0u64..8, 1u8..5, 0u64..60),
        (0u32..2, 0u64..4),
        // One step in five redelivers; one in twelve finds a damaged value.
        (0u8..5, any::<usize>()),
        (
            0u8..12,
            0usize..200,
            prop::collection::vec(any::<u8>(), 0..30),
        ),
    )
        .prop_map(
            |((item, level, ts), (pid, advance), (replay, pick), (damage, cut, tail))| {
                HistoryStep {
                    item,
                    weight: f64::from(level) * 0.5,
                    ts,
                    pid,
                    advance,
                    replay: (replay == 0).then_some(pick),
                    damage: (damage == 0).then_some((cut, tail)),
                }
            },
        )
}

/// Sources from a small pool over three partitions, so batches repeat
/// sources within themselves and against the stored ring, and the
/// horizon trim meets both its own partition and others.
fn arb_src() -> impl Strategy<Value = u64> {
    (0u32..3, 0u64..12).prop_map(|(pid, off)| encode_src(pid, off))
}

fn arb_deltas() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((arb_src(), -4.0f64..4.0), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_update_in_place_matches_decode_encode(
        batches in prop::collection::vec(arb_deltas(), 1..8),
        window in 0usize..10,
        // The window a value was written under may differ from the one it
        // is updated under (a config change between runs).
        later_window in 0usize..10,
    ) {
        let mut slot: Option<Vec<u8>> = None;
        for (i, deltas) in batches.iter().enumerate() {
            let window = if i < batches.len() / 2 { window } else { later_window };
            let (want, want_applied) = reference_counter(slot.as_deref(), deltas, window);
            let before = slot.clone();
            let update = apply_deltas_in_place(&mut slot, deltas, window);
            let got = slot.as_deref().expect("an update always leaves a value");
            prop_assert_eq!(got, &want[..]);
            prop_assert_eq!(update.applied, want_applied);
            prop_assert_eq!(update.count.to_bits(), counter_prefix(&want).to_bits());
            prop_assert_eq!(update.changed, before.as_deref() != Some(&want[..]));
        }
    }

    #[test]
    fn ring_update_in_place_matches_on_short_and_torn_values(
        deltas in arb_deltas(),
        window in 0usize..10,
        srcs in prop::collection::vec(arb_src(), 0..10),
        declared_off in -3i64..4,
        cut in 0usize..100,
        tail in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        // A well-formed value, then damaged: a length field that
        // disagrees with the bytes present, a cut anywhere (inside the
        // count, the length or a source), or garbage after the ring.
        let declared = (srcs.len() as i64 + declared_off).max(0) as u32;
        let mut raw = 2.5f64.to_le_bytes().to_vec();
        raw.extend_from_slice(&declared.to_le_bytes());
        for s in &srcs {
            raw.extend_from_slice(&s.to_le_bytes());
        }
        raw.extend_from_slice(&tail);
        raw.truncate(cut.min(raw.len()));

        let (want, want_applied) = reference_counter(Some(&raw), &deltas, window);
        let mut slot = Some(raw.clone());
        let update = apply_deltas_in_place(&mut slot, &deltas, window);
        prop_assert_eq!(slot.as_deref(), Some(&want[..]));
        prop_assert_eq!(update.applied, want_applied);
        prop_assert_eq!(update.changed, raw != want);
    }

    #[test]
    fn list_update_in_place_matches_decode_encode(
        // Items from a small pool so entries hit listed items; sims from a
        // few levels (ties, zero and negative included) plus a continuum.
        entries in prop::collection::vec(
            (0u64..12, prop_oneof![
                (0u8..6).prop_map(|level| f64::from(level) * 0.2 - 0.2),
                -0.5f64..1.0,
            ]),
            1..60,
        ),
        k in 1usize..6,
        later_k in 1usize..6,
        torn in 0usize..16,
    ) {
        let mut list: Vec<u8> = Vec::new();
        for (i, &(other, sim)) in entries.iter().enumerate() {
            // `k` may shrink or grow mid-sequence, and one step starts
            // from a value with a torn tail.
            let k = if i < entries.len() / 2 { k } else { later_k };
            if i == entries.len() / 3 {
                list.extend(std::iter::repeat_n(0xAB, torn));
            }
            let want = reference_sim_list(&list, other, sim, k);
            let before = list.clone();
            let changed = apply_sim_entry(&mut list, other, sim, k);
            prop_assert_eq!(&list, &want);
            prop_assert_eq!(changed, before != want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn history_update_in_place_matches_decode_encode(
        steps in prop::collection::vec(arb_history_step(), 1..40),
        max_history in 1usize..6,
        window in prop_oneof![Just(0usize), 1usize..6],
        linked_time_ms in prop_oneof![Just(u64::MAX), 0u64..30],
    ) {
        let limits = HistoryLimits { linked_time_ms, max_history, dedup_window: window };
        let mut slot: Option<Vec<u8>> = None;
        let mut offsets = [0u64; 2];
        let mut sources: Vec<u64> = Vec::new();
        let mut pair_deltas = vec![(9, 9, 9.0)]; // stale scratch must not leak
        for step in &steps {
            if let (Some((cut, tail)), Some(raw)) = (&step.damage, slot.as_mut()) {
                raw.truncate(*cut);
                raw.extend_from_slice(tail);
            }
            let src = match step.replay {
                Some(pick) if !sources.is_empty() => sources[pick % sources.len()],
                _ => {
                    let off = &mut offsets[step.pid as usize];
                    *off += step.advance;
                    encode_src(step.pid, *off)
                }
            };
            sources.push(src);
            let action = HistoryAction { item: step.item, weight: step.weight, ts: step.ts, src };
            let before = slot.clone();
            let (want, want_delta, want_pairs) =
                reference_history(before.as_deref(), &action, &limits);
            let edit = apply_action_in_place(&mut slot, &action, &limits, &mut pair_deltas);
            let got = slot.as_deref().expect("an update always leaves a value");
            prop_assert_eq!(got, &want[..]);
            prop_assert_eq!(edit.delta_rating.to_bits(), want_delta.to_bits());
            prop_assert_eq!(pair_deltas.len(), want_pairs.len());
            for (got, want) in pair_deltas.iter().zip(&want_pairs) {
                prop_assert_eq!((got.0, got.1, got.2.to_bits()), (want.0, want.1, want.2.to_bits()));
            }
            let log_len =
                |raw: Option<&[u8]>| raw.map_or(0, |raw| decode_history(raw).1.len() as i64);
            prop_assert_eq!(edit.log_growth, log_len(Some(got)) - log_len(before.as_deref()));
            if window > 0 {
                prop_assert_eq!(edit.changed, before.as_deref() != Some(&want[..]));
            } else {
                // Nothing remembered, so no redelivery is found: every
                // action rewrites its record, and the log stays empty.
                prop_assert!(edit.changed);
                prop_assert_eq!(log_len(Some(got)), 0);
            }
        }
    }
}
