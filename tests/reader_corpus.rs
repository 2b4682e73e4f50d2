//! One corpus for the one byte reader. Every format the workspace decodes
//! through `wire::Reader` — snapshot full and delta payloads, the snapshot
//! manifest, an FDB log replayed by `FdbEngine::open`, the spout's
//! `OffsetTable` blob, `tcluster` frames and `tserve` requests and
//! responses — is fed every truncation and every single-bit flip of a
//! valid encoding. A truncation must be rejected (or, for an FDB log,
//! replay exactly the complete records before the cut); a flip may decode
//! to some other well-formed value or be rejected. Neither may panic.
//! Tuple-batch frames also run through the worker's injector into a live
//! topology slice, which may accept no frame the decoder rejects.

use bytes::{BufMut, BytesMut};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use tcluster::protocol::{self, Msg, NotifyKind};
use tdstore::{FdbEngine, SnapshotStore, StorageEngine};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::OffsetTable;
use tserve::protocol::{decode_request, decode_response, encode_request, encode_response};
use tserve::{Request, Response};
use tstorm::ack::{AckerMsg, InitEntry};
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reader-corpus-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn snapshot_payloads_and_manifest() {
    let dir = scratch("snapshot");
    let path = dir.join("log.fdb");
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
    let records = FdbEngine::open(path.clone()).unwrap();
    let full_key = [&b"snap:"[..], &1u64.to_le_bytes()].concat();
    let delta_key = [&b"delta:"[..], &2u64.to_le_bytes()].concat();
    // A log holding only `bytes` under `key`, opened as a snapshot store.
    let store_with = |key: &[u8], bytes: &[u8]| {
        let _ = std::fs::remove_file(dir.join("corpus.fdb"));
        FdbEngine::open(dir.join("corpus.fdb"))
            .unwrap()
            .put(key, bytes.to_vec());
        SnapshotStore::open_read_only(dir.join("corpus.fdb")).unwrap()
    };
    check(&records.get(&full_key).unwrap(), |b| {
        store_with(&full_key, b).load_record(1).is_some()
    });
    check(&records.get(&delta_key).unwrap(), |b| {
        store_with(&delta_key, b).load_record(2).is_some()
    });
    check(&records.get(b"manifest").unwrap(), |b| {
        store_with(b"manifest", b).latest().is_some()
    });
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fdb_log_replay() {
    let dir = scratch("fdb");
    let path = dir.join("log.fdb");
    let ops: [(&[u8], Option<&[u8]>); 5] = [
        (b"a", Some(b"one")),
        (b"bb", Some(b"")),
        (b"a", None),
        (b"ccc", Some(b"three")),
        (b"bb", Some(b"two")),
    ];
    // The model after each complete record: (end offset, live keys).
    let mut model = vec![(0, BTreeMap::new())];
    let engine = FdbEngine::open(path.clone()).unwrap();
    for (key, value) in ops {
        let (end, mut live) = model.last().unwrap().clone();
        match value {
            Some(v) => {
                engine.put(key, v.to_vec());
                live.insert(key.to_vec(), v.to_vec());
            }
            None => {
                engine.delete(key);
                live.remove(key);
            }
        }
        model.push((end + 8 + key.len() + value.map_or(0, <[u8]>::len), live));
    }
    drop(engine);
    let log = std::fs::read(&path).unwrap();
    assert_eq!(log.len(), model.last().unwrap().0);

    let replay = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        let engine = FdbEngine::open(path.clone()).unwrap();
        let live: BTreeMap<_, _> = engine.scan_prefix(b"").into_iter().collect();
        (engine, live)
    };
    for cut in truncations(&log) {
        let (engine, live) = replay(cut);
        let (_, expect) = model.iter().rfind(|(end, _)| *end <= cut.len()).unwrap();
        assert_eq!(&live, expect, "replay of a {}-byte prefix", cut.len());
        // The torn tail is gone: a record appended now replays intact.
        engine.put(b"z", b"after".to_vec());
        drop(engine);
        let engine = FdbEngine::open(path.clone()).unwrap();
        assert_eq!(engine.get(b"z"), Some(b"after".to_vec()));
        assert_eq!(engine.len(), expect.len() + 1);
    }
    // Without a record checksum a flipped key byte reads as another key,
    // so a flip is held only to a panic-free replay of records that each
    // took at least their 8 header bytes.
    for flip in bit_flips(&log) {
        assert!(replay(&flip).1.len() <= log.len() / 8);
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
    let (acker, _) = crossbeam::channel::unbounded();
    builder.build().unwrap().launch_slice(SliceSpec {
        local: Default::default(),
        slot_map: Vec::new(),
        acker,
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
    let init = InitEntry {
        root: 6,
        xor: 7,
        slot: 8,
        msg_id: 9,
        emit_ms: 10,
    };
    let msgs = [
        Msg::Register {
            worker_id: 1,
            generation: 2,
        },
        Msg::Assignment {
            components: vec!["sum".into()],
            slot_map: vec![4],
            recovered: Some(vec![1, 2, 3]),
        },
        Msg::TupleBatch {
            dest_component: "sum".into(),
            dest_task: 1,
            tuples: vec![tuple],
        },
        Msg::AckerBatch(vec![
            AckerMsg::InitBatch(vec![init]),
            AckerMsg::XorBatch(vec![(13, 14)]),
            AckerMsg::Fail { root: 17 },
        ]),
        Msg::SpoutNotify {
            global_slot: 0,
            kind: NotifyKind::Fail,
            ids: vec![1, 2],
        },
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
