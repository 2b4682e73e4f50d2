//! A spout fed from another thread is woken by its data, not by its idle
//! backoff, and no wakeup is lost to the race between a poll that finds
//! nothing and the wait that follows it.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tstorm::prelude::*;

/// Long enough for the idle backoff to reach its 20 ms ceiling.
const IDLE: Duration = Duration::from_millis(60);
/// Records appended into an idle task after [`IDLE`] each.
const COLD: usize = 10;
/// Pairs of records ~1 ms apart; the second of each pair races a poll.
const PAIRS: usize = 95;
const TIMEOUT: Duration = Duration::from_secs(10);

struct Record {
    pushed: Instant,
    /// Hand the `race_at`-th empty poll after this record to the feeder.
    race_at: Option<usize>,
}

/// Emits whatever the feeder appended, reporting each record's delay
/// from append to emit. A record with `race_at = Some(k)` makes the
/// spout block in its k-th empty poll after it until the feeder has
/// appended and woken again: the append lands after the poll looked and
/// before the task can sleep — exactly where a wakeup can be lost.
struct FedSpout {
    queue: Arc<Mutex<VecDeque<Record>>>,
    waker_tx: Sender<SpoutWaker>,
    delays: Sender<Duration>,
    polled_empty: Sender<()>,
    appended: Receiver<()>,
    race: Option<usize>,
}

impl Spout for FedSpout {
    fn open(&mut self, _ctx: &TaskContext) {
        let waker = SpoutWaker::current().expect("the runtime installs a waker before open");
        self.waker_tx.send(waker).expect("test is listening");
    }

    fn next_tuple(&mut self, c: &mut SpoutCollector) -> bool {
        let record = self.queue.lock().unwrap().pop_front();
        if let Some(r) = record {
            self.delays
                .send(r.pushed.elapsed())
                .expect("test is listening");
            self.race = r.race_at;
            c.emit(vec![Value::U64(0)], None);
            return true;
        }
        match self.race {
            Some(1) => {
                self.race = None;
                self.polled_empty.send(()).expect("test is listening");
                self.appended
                    .recv_timeout(TIMEOUT)
                    .expect("feeder appends during the poll");
            }
            Some(k) => self.race = Some(k - 1),
            None => {}
        }
        false
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["v"])]
    }
}

#[test]
fn woken_spout_emits_without_waiting_for_its_backoff() {
    let queue = Arc::new(Mutex::new(VecDeque::new()));
    let (waker_tx, waker_rx) = unbounded();
    let (delays_tx, delays) = unbounded();
    let (polled_tx, polled_empty) = unbounded();
    let (appended, appended_rx) = unbounded();
    let mut b = TopologyBuilder::new();
    {
        let queue = Arc::clone(&queue);
        b.set_spout(
            "fed",
            move || FedSpout {
                queue: Arc::clone(&queue),
                waker_tx: waker_tx.clone(),
                delays: delays_tx.clone(),
                polled_empty: polled_tx.clone(),
                appended: appended_rx.clone(),
                race: None,
            },
            1,
        );
    }
    b.set_bolt("sink", || |_t: &Tuple, _c: &mut BoltCollector| Ok(()), 1)
        .shuffle_grouping("fed");
    let handle = b.build().unwrap().launch();
    let waker = waker_rx.recv_timeout(TIMEOUT).expect("spout opened");
    let push = |race_at| {
        queue.lock().unwrap().push_back(Record {
            pushed: Instant::now(),
            race_at,
        });
        waker.wake();
    };
    let delay = || delays.recv_timeout(TIMEOUT).expect("record emitted");

    let mut all = Vec::new();
    for _ in 0..COLD {
        std::thread::sleep(IDLE);
        push(None);
        all.push(delay());
    }
    // Race the k-th empty poll after the first record, k = 1, 2, 3: the
    // end of the emitting burst, the next burst, and the one after it.
    let mut raced = Vec::new();
    for pair in 0..PAIRS {
        push(Some(pair % 3 + 1));
        all.push(delay());
        polled_empty
            .recv_timeout(TIMEOUT)
            .expect("spout polls empty");
        push(None);
        appended.send(()).unwrap();
        raced.push(delay());
        all.push(*raced.last().unwrap());
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown(Duration::from_secs(5));

    all.sort_unstable();
    let p99 = all[all.len() * 99 / 100 - 1];
    assert!(
        p99 < Duration::from_millis(5),
        "p99 append-to-emit delay {p99:?} over {} records: the idle backoff, not the waker, timed the polls",
        all.len()
    );
    // A lost wakeup leaves the record to the backoff timer, whose wait
    // is at least 1 ms; a delivered one is a thread wake-up.
    let slow = raced
        .iter()
        .filter(|d| **d >= Duration::from_millis(1))
        .count();
    assert!(
        slow * 10 < raced.len(),
        "{slow} of {} records appended during an empty poll waited >= 1 ms: wakeups were lost",
        raced.len()
    );
}
