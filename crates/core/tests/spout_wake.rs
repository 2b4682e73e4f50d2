//! The replay spout on a live topology: an append to its topic wakes the
//! idle task at once, and a wake never lets a deactivated spout emit —
//! a checkpoint barrier holds while producers keep appending.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig, Producer};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{ReplayProgress, ReplayableSpout};
use tstorm::prelude::*;

const TOPIC: &str = "actions";

fn launch(access: &AccessCluster, progress: &Arc<ReplayProgress>) -> TopologyHandle {
    let mut b = TopologyBuilder::new();
    {
        let (access, progress) = (access.clone(), Arc::clone(progress));
        b.set_spout(
            "spout",
            move || ReplayableSpout::new(access.clone(), TOPIC, "g", Arc::clone(&progress)),
            1,
        );
    }
    b.set_bolt("sink", || |_t: &Tuple, _c: &mut BoltCollector| Ok(()), 1)
        .shuffle_grouping("spout");
    b.build().expect("valid topology").launch()
}

fn cluster() -> AccessCluster {
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic(TOPIC, 4).unwrap();
    access
}

fn send(producer: &Producer, i: u64) {
    let a = UserAction::new(i, i % 13, ActionType::Click, i);
    producer
        .send(Some(&i.to_le_bytes()), &a.to_bytes())
        .unwrap();
}

fn wait_until(timeout: Duration, done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    true
}

#[test]
fn an_append_wakes_the_idle_replay_spout() {
    let access = cluster();
    let progress = Arc::new(ReplayProgress::default());
    let handle = launch(&access, &progress);
    let producer = access.producer(TOPIC).unwrap();
    let mut delays = Vec::new();
    for i in 0..10 {
        // Long enough for the idle backoff to reach its 20 ms ceiling.
        std::thread::sleep(Duration::from_millis(60));
        let before = progress.emitted();
        let t0 = Instant::now();
        send(&producer, i);
        assert!(wait_until(Duration::from_secs(5), || progress.emitted() > before));
        delays.push(t0.elapsed());
    }
    handle.shutdown(Duration::from_secs(5));
    delays.sort_unstable();
    // Left to the backoff, a record landing in a 20 ms wait waits for
    // the rest of it: 3 of 4 such records would take over 5 ms.
    assert!(
        delays[8] < Duration::from_millis(5),
        "append-to-emit delays after an idle spell: {delays:?}"
    );
}

#[test]
fn a_wake_never_lets_a_deactivated_spout_emit() {
    let access = cluster();
    let progress = Arc::new(ReplayProgress::default());
    let handle = launch(&access, &progress);
    let stop = Arc::new(AtomicBool::new(false));
    let appender = {
        let (producer, stop) = (access.producer(TOPIC).unwrap(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut sent = 0;
            while !stop.load(Ordering::Relaxed) {
                send(&producer, sent);
                sent += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            sent
        })
    };
    assert!(wait_until(Duration::from_secs(5), || progress.emitted() > 20));
    let topic_len = || access.topic_len(TOPIC).unwrap();
    let (emitted, appended) = handle
        .with_barrier(Duration::from_secs(10), || {
            let before = (progress.emitted(), topic_len());
            std::thread::sleep(Duration::from_millis(30));
            let after = (progress.emitted(), topic_len());
            ((before.0, after.0), (before.1, after.1))
        })
        .expect("the pipeline drains inside the barrier");
    stop.store(true, Ordering::Relaxed);
    let sent = appender.join().unwrap();
    assert!(
        appended.1 > appended.0,
        "nothing was appended during the barrier: {appended:?}"
    );
    assert_eq!(emitted.0, emitted.1, "the spout emitted while deactivated");
    assert!(
        wait_until(Duration::from_secs(10), || progress.committed() == sent),
        "{} of {sent} records committed after the barrier",
        progress.committed()
    );
    handle.shutdown(Duration::from_secs(5));
}
