//! One corpus for the one byte reader. Every format the workspace decodes
//! through `wire::Reader` — snapshot full and delta payloads, the
//! checkpoint log they are records of, the spout's `OffsetTable` blob,
//! `tcluster` frames and `tserve` requests and responses — is fed every
//! truncation and every single-bit flip of a valid encoding. A truncation
//! must be rejected (or, for the checkpoint log, reopen to exactly the
//! complete records before the cut); a flip may decode to some other
//! well-formed value or be rejected. Neither may panic.
//! Tuple-batch frames also run through the worker's injector into a live
//! topology slice, which may accept no frame the decoder rejects.
//!
//! The status data in TDStore comes back from a checkpoint at every
//! restore, so every family's value goes through the same corpus. Its
//! decoders read a torn value as its longest valid prefix, so there a
//! truncation is no error: each cut and flip runs through the decoders
//! and the in-place editors, and none may panic. Every truncation of a
//! valid key must parse to nothing.

use bytes::{BufMut, BytesMut};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tcluster::protocol::{self, Msg};
use tdstore::snapshot::StateEntries;
use tdstore::{SnapshotMeta, SnapshotStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::replay::encode_src;
use tencentrec::topology::state::*;
use tencentrec::topology::OffsetTable;
use tencentrec::types::ItemPair;
use tserve::protocol::{decode_request, decode_response, encode_request, encode_response};
use tserve::{Request, Response};
use tstorm::ack::AckRoute;
use tstorm::prelude::*;
use tstorm::remote::{SliceSpec, TupleBatch, WireTuple};
use wire::{split_frame, with_frame, COUNT_TOO_LARGE};

/// Every strict prefix of `valid`.
fn truncations(valid: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..valid.len()).map(|n| &valid[..n])
}

/// `valid` with each of its bits flipped in turn.
fn bit_flips(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..valid.len() * 8).map(|bit| {
        let mut v = valid.to_vec();
        v[bit / 8] ^= 1 << (bit % 8);
        v
    })
}

/// `decodes` accepts `valid`, rejects each of its truncations and
/// survives each of its bit flips.
fn check(valid: &[u8], decodes: impl Fn(&[u8]) -> bool) {
    assert!(decodes(valid), "valid encoding rejected");
    for cut in truncations(valid) {
        assert!(!decodes(cut), "{}-byte truncation decoded", cut.len());
    }
    for flip in bit_flips(valid) {
        decodes(&flip);
    }
}

/// `survives` runs on `valid` and on each of its truncations and bit
/// flips. It may read them any way it likes, but must not panic.
fn survive(valid: &[u8], survives: impl Fn(&[u8])) {
    survives(valid);
    truncations(valid).for_each(&survives);
    bit_flips(valid).for_each(|flip| survives(&flip));
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reader-corpus-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The payload of each record of the checkpoint log at `path`, oldest
/// first: the log is a run of `len:u32 | payload` records.
fn log_payloads(path: &Path) -> Vec<Vec<u8>> {
    let log = std::fs::read(path).unwrap();
    let mut r = wire::Reader::new(&log);
    let mut payloads = Vec::new();
    while r.remaining() > 0 {
        payloads.push(r.bytes().unwrap().to_vec());
    }
    payloads
}

/// A complete record is the checkpoint log's only manifest, so each
/// payload is fed as the one record of a log: it must load exactly when
/// it is whole.
#[test]
fn snapshot_payloads_and_manifest() {
    let dir = scratch("snapshot");
    let path = dir.join("ckpt.log");
    let offsets = OffsetTable::new();
    offsets.merge(&[(0, 17), (3, 5)]);
    let state = [
        (b"ic:1".to_vec(), vec![1; 8]),
        (b"pc:1:2".to_vec(), vec![2]),
    ];
    let store = SnapshotStore::open(&path).unwrap();
    store.publish(7, &offsets.encode(), &state).unwrap();
    let deletes = [b"pc:1:2".to_vec()];
    store
        .publish_delta(8, &offsets.encode(), 1, &state[..1], &deletes)
        .unwrap();
    drop(store);
    let payloads = log_payloads(&path);
    assert_eq!(payloads.len(), 2);
    // A log holding only `payload`, opened as a snapshot store.
    let corpus = dir.join("corpus.log");
    let store_with = |payload: &[u8]| {
        let len = u32::try_from(payload.len()).unwrap().to_le_bytes();
        std::fs::write(&corpus, [&len[..], payload].concat()).unwrap();
        SnapshotStore::open_read_only(&corpus).unwrap()
    };
    check(&payloads[0], |b| store_with(b).load_record(1).is_some());
    check(&payloads[1], |b| store_with(b).load_record(2).is_some());
    let _ = std::fs::remove_dir_all(dir);
}

/// What a reopened checkpoint log shows: its epochs, its newest record,
/// and the offsets and state every epoch resolves to.
type LogView = (
    Vec<u64>,
    Option<SnapshotMeta>,
    Vec<Option<(Vec<u8>, StateEntries)>>,
);

fn view(store: &SnapshotStore) -> LogView {
    let epochs = store.epochs();
    let resolved = epochs
        .iter()
        .map(|&e| store.load(e).map(|snap| (snap.offsets, snap.state)))
        .collect();
    (epochs, store.latest(), resolved)
}

#[test]
fn fdb_log_replay() {
    let dir = scratch("log");
    let path = dir.join("ckpt.log");
    let key = |i: u8| vec![b'k', i];
    let store = SnapshotStore::open(&path).unwrap();
    // The view after each complete record, with the log's length then.
    let mut model = vec![(0, view(&store))];
    let mut published = |meta: SnapshotMeta, store: &SnapshotStore| {
        let end = std::fs::metadata(&path).unwrap().len();
        assert_eq!(end, model.last().unwrap().0 + meta.bytes);
        model.push((end, view(store)));
    };
    let full = [(key(1), vec![1]), (key(2), vec![2])];
    published(store.publish(1, b"off-1", &full).unwrap(), &store);
    let meta = store
        .publish_delta(2, b"off-2", 1, &[(key(3), vec![3])], &[key(1)])
        .unwrap();
    published(meta, &store);
    let meta = store
        .publish_delta(3, b"off-3", 2, &[(key(2), vec![22])], &[])
        .unwrap();
    published(meta, &store);
    published(store.publish(4, b"off-4", &full[1..]).unwrap(), &store);
    let meta = store.publish_delta(5, b"off-5", 4, &[], &[key(2)]).unwrap();
    published(meta, &store);
    drop(store);
    let log = std::fs::read(&path).unwrap();

    let reopen = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        SnapshotStore::open(&path).unwrap()
    };
    let after = [(key(9), vec![9])];
    for cut in truncations(&log) {
        let store = reopen(cut);
        let (_, expect) = model
            .iter()
            .rfind(|(end, _)| *end <= cut.len() as u64)
            .unwrap();
        assert_eq!(
            &view(&store),
            expect,
            "reopen of a {}-byte prefix",
            cut.len()
        );
        // The torn tail is gone: a record published now reopens intact.
        let meta = store.publish(9, b"after", &after).unwrap();
        drop(store);
        let store = SnapshotStore::open(&path).unwrap();
        assert_eq!(store.latest(), Some(meta));
        assert_eq!(store.load(meta.epoch).unwrap().state, after);
    }
    // Each record takes at least its length prefix and a full record's
    // 29-byte header, so a flip cannot make more of them than that.
    for flip in bit_flips(&log) {
        let (epochs, ..) = view(&reopen(&flip));
        assert!(epochs.len() <= log.len() / 33);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn offset_table_blob() {
    let table = OffsetTable::new();
    table.merge(&[(0, 17), (3, 5), (9, u64::MAX)]);
    let blob = table.encode();
    assert_eq!(OffsetTable::decode(&blob), Some(table.snapshot()));
    check(&blob, |b| {
        OffsetTable::decode(b)
            .inspect(|offsets| assert_eq!(offsets.len(), 3))
            .is_some()
    });
}

struct Silent;

impl Spout for Silent {
    fn next_tuple(&mut self, _: &mut SpoutCollector) -> bool {
        false
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(
            DEFAULT_STREAM,
            ["null", "flag", "delta", "count", "ratio", "name"],
        )]
    }
}

/// A worker slice the corpus's tuple batch is valid for: `numbers`
/// declares the six-field default stream, `sum` runs two tasks, and
/// nothing runs locally (injected tuples leave through a dropping
/// egress).
fn corpus_slice() -> TopologyHandle {
    let mut builder = TopologyBuilder::new();
    builder.set_spout("numbers", || Silent, 1);
    builder
        .set_bolt("sum", || |_: &Tuple, _: &mut BoltCollector| Ok(()), 2)
        .shuffle_grouping("numbers");
    builder.build().unwrap().launch_slice(SliceSpec {
        local: Default::default(),
        ack_route: AckRoute::local(std::time::Duration::from_secs(30)),
        egress: Arc::new(|_: &mut Vec<u8>, _: &str, _: usize, _: &[TupleBatch]| {}),
    })
}

#[test]
fn cluster_protocol_frames() {
    let slice = corpus_slice();
    let registry = obs::Registry::new();
    registry.counter("c_total", &[("w", "1")], "c").add(3);
    registry
        .histogram_nanos("lat", &[], "lat")
        .record_nanos(2_000);
    let tuple = WireTuple {
        stream: "default".into(),
        src_component: "numbers".into(),
        src_task: 0,
        values: vec![
            Value::Null,
            Value::Bool(true),
            Value::I64(-5),
            Value::U64(9),
            Value::F64(1.5),
            Value::Str("hi".into()),
        ],
        anchors: vec![(10, 20)],
    };
    let msgs = [
        Msg::Register {
            worker_id: 1,
            generation: 2,
        },
        Msg::Assignment {
            components: vec!["sum".into()],
            n_workers: 3,
            message_timeout_ms: 1500,
            recovered: Some(vec![1, 2, 3]),
        },
        Msg::TupleBatch {
            dest_component: "sum".into(),
            dest_task: 1,
            tuples: vec![tuple],
        },
        Msg::AckerBatch {
            owner: 2,
            xors: vec![(13, 14)],
            fails: vec![17],
        },
        Msg::PendingTrees(3),
        Msg::Status {
            progress: 5,
            inflight: -1,
            spouts_idle: true,
        },
        Msg::DrainReport(vec![9; 5]),
        Msg::MetricsReport(registry.export()),
        Msg::OffsetCommit(vec![7; 3]),
    ];
    for msg in &msgs {
        let mut buf = BytesMut::new();
        protocol::encode(&mut buf, 1, msg);
        let (_, tag, body) = split_frame(&mut buf).unwrap().unwrap();
        // The tag is mutated with the body it selects the layout for.
        let valid = [&[tag][..], &body].concat();
        check(&valid, |bytes| {
            let Some((&tag, body)) = bytes.split_first() else {
                return false;
            };
            let decoded = protocol::decode(tag, body).is_ok();
            if tag == protocol::TAG_TUPLE_BATCH {
                let _ = protocol::peek_tuple_batch_dest(body);
                let _ = protocol::peek_tuple_batch_roots(body);
                let injected = protocol::inject(&slice, body).is_ok();
                assert!(decoded || !injected, "injected a frame decode rejects");
                if bytes == valid {
                    assert!(injected, "valid tuple batch not injected");
                }
            }
            if tag == protocol::TAG_ACKER_BATCH {
                let _ = protocol::peek_acker_batch_dest(body);
            }
            decoded
        });
    }
    slice.kill();
}

/// Frames `payload` (`id tag body`) with its true length, so a truncated
/// or flipped body reaches the body decoder instead of "wait for more".
fn reframe(payload: &[u8]) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    buf
}

#[test]
fn serve_requests_and_responses() {
    let requests = [
        Request::Recommend {
            user: 1,
            n: 5,
            deadline_ms: 50,
        },
        Request::ReportAction {
            action: UserAction::new(1, 2, ActionType::Purchase, 3),
        },
        Request::Health,
        Request::Stats,
    ];
    for request in &requests {
        let mut buf = BytesMut::new();
        encode_request(9, request, &mut buf);
        check(&buf[4..], |p| {
            matches!(decode_request(&mut reframe(p)), Ok(Some(_)))
        });
    }
    let latency = tstorm::metrics::LatencyHistogram::new();
    latency.record_nanos(1_500);
    latency.record_nanos(9_000_000);
    let responses = [
        Response::Recommendations {
            items: vec![(4, 0.5), (7, -1.0)],
        },
        Response::Ack,
        Response::Overloaded,
        Response::Health {
            shards: 2,
            queued: 3,
        },
        Response::Stats(tserve::protocol::StatsReport {
            served: 1,
            shed: 2,
            expired: 3,
            actions: 4,
            latency: latency.snapshot(),
        }),
        Response::Error {
            message: "shard down".into(),
        },
    ];
    for response in &responses {
        let mut buf = BytesMut::new();
        encode_response(9, response, &mut buf);
        check(&buf[4..], |p| {
            matches!(decode_response(&mut reframe(p)), Ok(Some(_)))
        });
    }
}

/// Frames whose one count claims far more entries than the frame holds
/// are rejected by `Reader::count` before anything is sized by the count.
/// A bound of `MAX_FRAME_LEN / entry` would accept all three and reserve
/// 24 MiB, 6.8 MB and 1 MiB first.
#[test]
fn oversized_counts_fail_before_any_entry() {
    let batch = |body: &dyn Fn(&mut Vec<u8>)| {
        let mut buf = BytesMut::new();
        with_frame(&mut buf, 0, protocol::TAG_TUPLE_BATCH, |b| {
            b.put_u32_le(0); // dest component ""
            b.put_u64_le(0); // dest task
            body(b);
        });
        buf
    };
    // One tuple claiming 2^20 values, each at least one tag byte.
    let values = batch(&|b| {
        b.put_u32_le(1);
        b.put_u32_le(0); // stream ""
        b.put_u32_le(0); // source component ""
        b.put_u64_le(0); // source task
        b.put_u32_le(1 << 20);
    });
    // 2^16 tuples of at least 16 bytes each.
    let tuples = batch(&|b| b.put_u32_le(1 << 16));
    assert_eq!((values.len(), tuples.len()), (49, 29));
    for mut buf in [values, tuples] {
        let (_, tag, body) = split_frame(&mut buf).unwrap().unwrap();
        assert_eq!(protocol::decode(tag, &body).err(), Some(COUNT_TOO_LARGE));
        let roots = protocol::peek_tuple_batch_roots(&body);
        assert_eq!(roots, Err(COUNT_TOO_LARGE));
    }
    // 2^16 recommendations of 16 bytes each, none present.
    let mut empty = BytesMut::new();
    encode_response(0, &Response::Recommendations { items: vec![] }, &mut empty);
    let claim = [&empty[4..empty.len() - 4], &(1u32 << 16).to_le_bytes()].concat();
    assert_eq!(decode_response(&mut reframe(&claim)), Err(COUNT_TOO_LARGE));
}

#[test]
fn status_data_families() {
    let pair = ItemPair::new(3, 9);
    let windowed = |base: KeyBuf| session_key(&base, 77);
    let keys = [
        (Family::ItemCount, windowed(item_count(3))),
        (Family::PairCount, windowed(pair_count(pair))),
        (Family::History, user_history(5)),
        (Family::SimList, similar_items(3)),
        (Family::HotList, hot_list(4, 77)),
        (Family::GroupCount, windowed(hot(4, 3))),
        (Family::CbProfile, cb_profile(5)),
        (Family::CbSeen, cb_seen(5)),
        (Family::CtrImps, windowed(ctr_imps(3, 1, 2))),
        (Family::CtrClicks, windowed(ctr_clicks(3, 1, 2))),
        (Family::Ctr, ctr_rate(3, 1, 2)),
        (Family::ArSession, ar_session(5)),
        (Family::ArItem, windowed(ar_item(3))),
        (Family::ArPair, windowed(ar_pair(pair))),
    ];
    for (family, key) in keys {
        assert!(family.parse(&key).is_some(), "{family:?}");
        for cut in truncations(&key) {
            assert_eq!(family.parse(cut), None, "{family:?}: {cut:?}");
        }
        survive(&key, |k| {
            let _ = Family::of(k).map(|f| f.parse(k));
        });
    }

    // `ic:` and `pc:`: a counter with its ring of sources.
    let mut counter = None;
    let ring = [(encode_src(0, 4), 2.0), (encode_src(1, 9), 1.5)];
    apply_deltas_in_place(&mut counter, &ring, 8);
    survive(&counter.unwrap(), |raw| {
        counter_prefix(raw);
        let update = apply_deltas_in_place(&mut Some(raw.to_vec()), &[(encode_src(1, 10), 1.0)], 8);
        assert!(update.changed);
    });

    // `hist:`: records, then the replay log.
    let log = [ReplayLogEntry {
        src: encode_src(0, 3),
        delta_rating: 1.0,
        pair_deltas: vec![(1, 2, 1.0)],
    }];
    let history = encode_history(&[(1, 1.0, 10), (2, 2.0, 20)], &log);
    let limits = HistoryLimits {
        linked_time_ms: 100,
        max_history: 2,
        dedup_window: 8,
    };
    survive(&history, |raw| {
        decode_history(raw);
        read_history(raw);
        for src in [encode_src(0, 3), encode_src(0, 4)] {
            let action = HistoryAction {
                item: 7,
                weight: 2.0,
                ts: 30,
                src,
            };
            apply_action_in_place(&mut Some(raw.to_vec()), &action, &limits, &mut Vec::new());
        }
    });

    // `sim:` and `hot:`: 16-byte `(item, score)` records, best first.
    survive(&encode_sim_list(&[(4, 0.9), (6, 0.5), (8, 0.25)]), |raw| {
        decode_sim_list(raw);
        sim_list_threshold(raw, 3);
        apply_sim_entry(&mut raw.to_vec(), 6, 0.95, 3);
        apply_hot_entry(&mut raw.to_vec(), 8, 2.0, 3);
    });

    // `grp:`, `ci:`, `cc:`, `ctr:`, `ari:` and `arp:`: one `f64`.
    survive(&encode_scalar(2.5), |raw| {
        decode_scalar(raw);
        counter_prefix(raw);
    });
    // `cbp:`, `cbn:` and `arsess:`.
    survive(&encode_profile(40, &[(1, 0.5), (7, 0.25)]), |raw| {
        decode_profile(raw);
    });
    survive(&encode_ids(&[3, 9, 27]), |raw| {
        decode_ids(raw);
    });
    survive(&encode_session(40, &[3, 9]), |raw| {
        decode_session(raw);
    });
}
