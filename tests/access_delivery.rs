//! Property tests on TDAccess delivery semantics: every published message
//! is delivered exactly once per consumer group, whether one consumer
//! reads the whole topic or static partition slices split it, and
//! per-key order is preserved.

use proptest::prelude::*;
use std::collections::HashMap;
use tdaccess::{AccessCluster, ClusterConfig, SegmentConfig};

/// Every record the consumer reads: `(partition, key, payload)`.
fn drain(consumer: &mut tdaccess::Consumer) -> Vec<(u32, Option<Vec<u8>>, Vec<u8>)> {
    let mut out = Vec::new();
    loop {
        let batch = consumer.poll_records(13).unwrap();
        if batch.is_empty() {
            return out;
        }
        for (pid, m) in batch {
            out.push((pid, m.key.as_ref().map(|k| k.to_vec()), m.payload.to_vec()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exactly_once_per_group_and_per_key_order(
        messages in prop::collection::vec((0u8..6, any::<u16>()), 1..200),
        partitions in 1u32..6,
        brokers in 1usize..4,
        small_segments in any::<bool>(),
    ) {
        let cluster = AccessCluster::new(ClusterConfig {
            brokers,
            segment: if small_segments {
                SegmentConfig { max_messages: 4, max_bytes: usize::MAX, spill_dir: None }
            } else {
                SegmentConfig::default()
            },
            ..Default::default()
        });
        cluster.create_topic("t", partitions as usize).unwrap();
        let producer = cluster.producer("t").unwrap();
        for (key, payload) in &messages {
            producer.send(Some(&[*key]), &payload.to_le_bytes()).unwrap();
        }

        // Group A: single member sees everything, in per-key order.
        let mut a = cluster.consumer("t", "a").unwrap();
        let got = drain(&mut a);
        prop_assert_eq!(got.len(), messages.len(), "exactly-once delivery");
        let mut per_key: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
        for (_, key, payload) in &got {
            per_key.entry(key.clone().unwrap()).or_default().push(payload.clone());
        }
        for (key, payload) in &messages {
            let expected: Vec<Vec<u8>> = messages
                .iter()
                .filter(|(k, _)| k == key)
                .map(|(_, p)| p.to_le_bytes().to_vec())
                .collect();
            prop_assert_eq!(
                per_key.get(&vec![*key]).cloned().unwrap_or_default(),
                expected,
                "per-key order for key {} (payload {})",
                key,
                payload
            );
        }

        // Group B with two static slices, (0, 2) and (1, 2): each reads
        // only its own partitions (none for slice 1 of a 1-partition
        // topic), and together they read exactly the topic.
        let mut b = [
            cluster.consumer_pinned("t", "b", 0, 2).unwrap(),
            cluster.consumer_pinned("t", "b", 1, 2).unwrap(),
        ];
        let mut union = Vec::new();
        for (index, consumer) in b.iter_mut().enumerate() {
            let slice: Vec<u32> = (0..partitions).filter(|p| *p as usize % 2 == index).collect();
            prop_assert_eq!(consumer.assignment(), &slice[..]);
            for record in drain(consumer) {
                prop_assert!(slice.contains(&record.0), "slice {} read partition {}", index, record.0);
                union.push(record);
            }
        }
        let mut all = got;
        all.sort();
        union.sort();
        prop_assert_eq!(union, all, "the slices' union is the topic");
    }
}
