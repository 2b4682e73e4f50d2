//! Spout tasks of one topology own disjoint partition slices: `n`
//! `ReplayableSpout` tasks in one consumer group over `p` partitions emit
//! and commit every record exactly once, round after round. With more
//! tasks than partitions some slice is empty, and that task idles.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{produce_actions, ReplayProgress, ReplayableSpout};
use tstorm::prelude::*;

const TOPIC: &str = "actions";
const RECORDS: u64 = 200;
const ROUNDS: usize = 10;

/// One round: `RECORDS` distinct actions on `partitions` partitions, read
/// by `tasks` spout tasks into a sink that counts each source id. Returns
/// `(emitted, committed, sink counts)` once the topology is shut down.
fn round(tasks: usize, partitions: usize) -> (u64, u64, HashMap<u64, u32>) {
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic(TOPIC, partitions).unwrap();
    let actions: Vec<UserAction> = (0..RECORDS)
        .map(|u| UserAction::new(u, 7, ActionType::Click, u))
        .collect();
    produce_actions(&access.producer(TOPIC).unwrap(), &actions).unwrap();

    let progress = Arc::new(ReplayProgress::default());
    let seen: Arc<Mutex<HashMap<u64, u32>>> = Arc::default();
    let mut b = TopologyBuilder::new();
    {
        let (access, progress) = (access.clone(), Arc::clone(&progress));
        b.set_spout(
            "spout",
            move || ReplayableSpout::new(access.clone(), TOPIC, "g", Arc::clone(&progress)),
            tasks,
        );
    }
    {
        let seen = Arc::clone(&seen);
        b.set_bolt(
            "sink",
            move || {
                let seen = Arc::clone(&seen);
                move |t: &Tuple, _c: &mut BoltCollector| {
                    *seen.lock().unwrap().entry(t.u64("src")).or_default() += 1;
                    Ok(())
                }
            },
            1,
        )
        .shuffle_grouping("spout");
    }
    let handle = b.build().expect("valid topology").launch();
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.committed() < RECORDS {
        assert!(
            Instant::now() < deadline,
            "({tasks}, {partitions}): stalled at {} of {RECORDS} committed",
            progress.committed()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // A second owner of a partition would still be re-reading it here.
    std::thread::sleep(Duration::from_millis(20));
    handle.shutdown(Duration::from_secs(5));
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    (progress.emitted(), progress.committed(), seen)
}

fn every_round_exactly_once(tasks: usize, partitions: usize) {
    for r in 0..ROUNDS {
        let (emitted, committed, seen) = round(tasks, partitions);
        assert_eq!(
            (emitted, committed),
            (RECORDS, RECORDS),
            "({tasks}, {partitions}) round {r}: (emitted, committed)"
        );
        assert_eq!(seen.len() as u64, RECORDS, "round {r}: distinct sources");
        assert!(
            seen.values().all(|&n| n == 1),
            "round {r}: a source reached the sink twice"
        );
    }
}

#[test]
fn two_tasks_over_four_partitions_commit_each_record_once() {
    every_round_exactly_once(2, 4);
}

#[test]
fn three_tasks_over_two_partitions_commit_each_record_once() {
    every_round_exactly_once(3, 2);
}
