//! Property tests for the hot-path data structures this crate mutates in
//! place: the user-history codec (records + embedded replay log) and
//! the string-id interner.
//!
//! The codec properties matter because the codec defines the format the
//! history bolt edits in place, repairs the torn values it meets, and is
//! the reference that editor is tested against
//! (`inplace_state_props.rs`). The truncation property covers torn
//! values: `decode_history` must degrade to the longest valid prefix,
//! never panic or invent records.

use proptest::prelude::*;
use tencentrec::interner::Interner;
use tencentrec::topology::state::{decode_history, encode_history, HistoryRecord, ReplayLogEntry};

fn arb_entry() -> impl Strategy<Value = HistoryRecord> {
    (any::<u64>(), -1e6f64..1e6, any::<u64>())
}

fn arb_log_entry() -> impl Strategy<Value = ReplayLogEntry> {
    (
        any::<u64>(),
        -1e6f64..1e6,
        prop::collection::vec((any::<u64>(), any::<u64>(), -1e6f64..1e6), 0..4),
    )
        .prop_map(|(src, delta_rating, pair_deltas)| ReplayLogEntry {
            src,
            delta_rating,
            pair_deltas,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn history_v2_round_trips(
        entries in prop::collection::vec(arb_entry(), 0..20),
        log in prop::collection::vec(arb_log_entry(), 0..8),
    ) {
        let raw = encode_history(&entries, &log);
        let (got_entries, got_log) = decode_history(&raw);
        prop_assert_eq!(got_entries, entries);
        prop_assert_eq!(got_log, log);
    }

    #[test]
    fn history_v2_truncation_yields_longest_valid_prefix(
        entries in prop::collection::vec(arb_entry(), 0..20),
        log in prop::collection::vec(arb_log_entry(), 0..8),
        cut_seed in any::<usize>(),
    ) {
        let raw = encode_history(&entries, &log);
        let cut = cut_seed % (raw.len() + 1); // 0..=len: empty through intact
        let (got_entries, got_log) = decode_history(&raw[..cut]);
        // Whatever decodes is a prefix of what was written — a torn tail
        // may drop records but never fabricates or reorders them.
        prop_assert!(got_entries.len() <= entries.len());
        prop_assert_eq!(&got_entries[..], &entries[..got_entries.len()]);
        prop_assert!(got_log.len() <= log.len());
        prop_assert_eq!(&got_log[..], &log[..got_log.len()]);
        // And the intact buffer loses nothing.
        if cut == raw.len() {
            prop_assert_eq!(got_entries.len(), entries.len());
            prop_assert_eq!(got_log.len(), log.len());
        }
    }

    #[test]
    fn interner_is_idempotent_dense_and_exact(
        keys in prop::collection::vec("[a-z0-9:/_-]{1,24}", 1..60),
    ) {
        let interner = Interner::new();
        let first: Vec<u64> = keys.iter().map(|k| interner.intern(k)).collect();
        // Re-interning (any order) returns the same ids.
        let again: Vec<u64> = keys.iter().rev().map(|k| interner.intern(k)).collect();
        prop_assert_eq!(
            &again,
            &first.iter().rev().copied().collect::<Vec<_>>()
        );
        // Ids are dense over the distinct keys, and resolve inverts intern.
        let distinct: std::collections::HashSet<&String> = keys.iter().collect();
        prop_assert_eq!(interner.len(), distinct.len());
        for (key, id) in keys.iter().zip(&first) {
            prop_assert!((*id as usize) < interner.len());
            prop_assert_eq!(interner.resolve(*id).as_deref(), Some(key.as_str()));
        }
    }

    #[test]
    fn interner_agrees_across_threads(
        keys in prop::collection::vec("[a-z]{1,8}", 1..30),
    ) {
        let interner = Interner::new();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let interner = interner.clone();
                let keys = keys.clone();
                std::thread::spawn(move || {
                    keys.iter().map(|k| interner.intern(k)).collect::<Vec<u64>>()
                })
            })
            .collect();
        let results: Vec<Vec<u64>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &results[1..] {
            prop_assert_eq!(other, &results[0]);
        }
    }
}
