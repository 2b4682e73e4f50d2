//! Property test: TDStore behaves like a `HashMap` under arbitrary
//! operation sequences. The two primitives everything else is built on —
//! the borrowing `read` and the conditional in-place `modify` — are driven
//! directly: an unchanged `modify` must leave the value where it was and
//! count no write, and a `modify` that empties the slot is a delete. Keys are 2, 29, 30, 31 or 64 bytes long —
//! both sides of the 30 bytes MDB keeps inline — and share their prefixes,
//! so a prefix scan has to tell them apart.

use proptest::prelude::*;
use std::collections::HashMap;
use tdstore::{StoreConfig, TdStore};

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    Incr(u8, i8),
    /// `read` the key and compare with the model.
    Read(u8),
    /// `modify`: append a byte in place (inserting if absent).
    Append(u8, u8),
    /// `modify` that looks and reports "unchanged".
    Inspect(u8),
    /// `modify` that empties the slot.
    Clear(u8),
    /// `scan_prefix` with the first `PREFIX_LENGTHS[.0]` bytes of a key.
    Scan(u8, u8),
}

const KEY_LENGTHS: [usize; 5] = [2, 29, 30, 31, 64];
const PREFIX_LENGTHS: [usize; 8] = [1, 2, 28, 29, 30, 31, 63, 64];

/// Key `k` of family `tag`: `tag`, then dots, then `k`, at one of
/// [`KEY_LENGTHS`] picked by `k`. Keys of one length differ only in their
/// last byte; every key's dots prefix every longer key.
fn key(tag: u8, k: u8) -> Vec<u8> {
    let len = KEY_LENGTHS[k as usize % KEY_LENGTHS.len()];
    let mut key = vec![b'.'; len];
    key[0] = tag;
    key[len - 1] = k;
    key
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), any::<i8>()).prop_map(|(k, d)| Op::Incr(k, d)),
        any::<u8>().prop_map(Op::Read),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Append(k, v)),
        any::<u8>().prop_map(Op::Inspect),
        any::<u8>().prop_map(Op::Clear),
        (0..PREFIX_LENGTHS.len() as u8, any::<u8>()).prop_map(|(p, k)| Op::Scan(p, k)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn store_matches_hashmap_model(ops in prop::collection::vec(arb_op(), 1..80)) {
        let store = TdStore::new(StoreConfig {
            instances: 8,
            ..Default::default()
        });
        let registry = obs::Registry::new();
        store.register_metrics(&registry);
        let writes = || registry.counter_value("tdstore_ops_total", &[("op", "write")]);
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let mut float_model: HashMap<Vec<u8>, f64> = HashMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    let key = key(b'p', *k);
                    store.put(&key, vec![*v]).unwrap();
                    model.insert(key, vec![*v]);
                }
                Op::Delete(k) => {
                    let key = key(b'p', *k);
                    let existed = store.delete(&key).unwrap();
                    prop_assert_eq!(existed, model.remove(&key).is_some());
                }
                Op::Incr(k, d) => {
                    let key = key(b'f', *k);
                    let new = store.incr_f64(&key, *d as f64).unwrap();
                    let entry = float_model.entry(key).or_insert(0.0);
                    *entry += *d as f64;
                    prop_assert!((new - *entry).abs() < 1e-9);
                }
                Op::Read(k) => {
                    let key = key(b'p', *k);
                    let got = store.read(&key, |raw| raw.map(<[u8]>::to_vec)).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&key));
                }
                Op::Append(k, v) => {
                    let key = key(b'p', *k);
                    let changed = store
                        .modify(&key, |slot| {
                            slot.get_or_insert_with(Vec::new).push(*v);
                            true
                        })
                        .unwrap();
                    prop_assert!(changed);
                    model.entry(key).or_default().push(*v);
                }
                Op::Inspect(k) => {
                    let key = key(b'p', *k);
                    let written = writes();
                    let mut seen = None;
                    let changed = store
                        .modify(&key, |slot| {
                            seen = slot.clone();
                            false
                        })
                        .unwrap();
                    prop_assert!(!changed);
                    prop_assert_eq!(seen.as_ref(), model.get(&key));
                    prop_assert_eq!(writes(), written);
                }
                Op::Clear(k) => {
                    let key = key(b'p', *k);
                    let changed = store.modify(&key, |slot| slot.take().is_some()).unwrap();
                    prop_assert_eq!(changed, model.remove(&key).is_some());
                    prop_assert!(store.get(&key).unwrap().is_none());
                }
                Op::Scan(p, k) => {
                    let full = key(b'p', *k);
                    let prefix = &full[..PREFIX_LENGTHS[*p as usize].min(full.len())];
                    let mut got = store.scan_prefix(prefix).unwrap();
                    got.sort();
                    let mut want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .iter()
                        .filter(|(k, _)| k.starts_with(prefix))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
            }
        }
        // Final state equivalence.
        for (k, v) in &model {
            let got = store.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        for (k, v) in &float_model {
            let got = store.get_f64(k).unwrap().unwrap_or(0.0);
            prop_assert!((got - v).abs() < 1e-9, "incr key mismatch");
        }
        prop_assert_eq!(store.len().unwrap(), model.len() + float_model.len());
    }
}
