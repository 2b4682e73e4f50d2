//! Worker-process runtime: registers with the supervisor, launches the
//! assigned topology slice, and pumps the four flows a slice needs —
//! tuple ingress (inject), tuple egress (TCP frames), acker forwarding,
//! and spout notifications — plus periodic status, metrics, and offset
//! commits.
//!
//! Tuple frames never pass through an owned message: egress encodes each
//! frame straight from the runtime's batches into its pump's reused
//! buffer ([`protocol::encode_tuple_batch`]), and ingress reads each body
//! straight into the destination task's batch arenas
//! ([`protocol::inject`]). A body that cannot be injected is handled
//! like any undecodable frame.
//!
//! Transport robustness (tguard): the supervisor connection is dialed
//! with bounded exponential backoff ([`wire::Backoff`]) instead of a
//! single fatal attempt; every frame is stamped with this incarnation's
//! generation so the supervisor can fence zombies; a failed or timed-out
//! write condemns the stream (a partial frame makes it unframeable) and
//! the read loop re-dials and re-registers, all counted in the worker's
//! runtime metrics (`tcluster_send_errors`, `tcluster_reconnects`).

use crate::protocol::{self, Msg, NotifyKind};
use crate::{ClusterApp, WorkerContext, ENV_GENERATION, ENV_ROLE, ENV_SUPERVISOR, ENV_WORKER_ID};
use bytes::BytesMut;
use crossbeam::channel::unbounded;
use obs::{Counter, Registry};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use tstorm::ack::{AckerMsg, SpoutMsg};
use tstorm::remote::{EgressFn, SliceSpec, TupleBatch};
use tstorm::TopologyHandle;
use wire::{split_frame, Backoff};

/// How often the worker reports status (and consults the commit hook).
const STATUS_EVERY: Duration = Duration::from_millis(50);
/// How often the worker exports metric samples.
const METRICS_EVERY: Duration = Duration::from_millis(200);
/// Largest acker-forward batch per frame.
const ACKER_BATCH: usize = 256;
/// Supervisor dial backoff: first retry delay and cap.
const CONNECT_BASE: Duration = Duration::from_millis(10);
const CONNECT_CAP: Duration = Duration::from_millis(500);
/// Dial attempts at first launch. The supervisor spawns workers right
/// after binding, so the hub is almost always up by attempt one or two;
/// the budget covers a heavily loaded machine.
const CONNECT_ATTEMPTS: u32 = 40;
/// Dial attempts when replacing a broken stream mid-run. Exhaustion
/// means the supervisor is gone for good and the worker exits.
const RECONNECT_ATTEMPTS: u32 = 20;
/// Bound on every worker→supervisor write, mirroring the supervisor's
/// mailbox timeout: a frozen hub must surface as a condemned stream, not
/// a wedged pump thread. (SO_SNDTIMEO is per-socket, shared with the
/// dup'd read half; reads take no timeout, so this only bounds writes.)
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Runs this process as a cluster worker if the supervisor spawned it as
/// one (`TCLUSTER_ROLE=worker`), never returning in that case — the
/// worker exits the process when the supervisor says so or disappears.
/// Returns `false` in a normal (non-worker) process.
///
/// Call this at the top of `main` (or of each multi-process test) in any
/// binary that launches a [`crate::supervisor::Cluster`]; the supervisor
/// re-executes the current binary, and this is the hook that turns the
/// re-execution into a worker instead of a second supervisor.
pub fn maybe_run_worker(build: impl Fn(&WorkerContext) -> ClusterApp) -> bool {
    if std::env::var(ENV_ROLE).as_deref() != Ok("worker") {
        return false;
    }
    let code = worker_main(build);
    std::process::exit(code);
}

/// The worker's supervisor connection plus the identity stamped on every
/// frame it sends.
struct WorkerConn {
    /// Current stream; the reconnect path swaps in a fresh one under the
    /// lock after the old stream is condemned.
    stream: Mutex<TcpStream>,
    /// This incarnation's generation (from [`ENV_GENERATION`]), echoed
    /// as the wire id of every frame so the supervisor's fence can tell
    /// this incarnation from a zombie predecessor.
    generation: u64,
    /// Worker→supervisor writes that failed and condemned the stream.
    send_errors: Counter,
}

/// Encodes and writes one frame under the connection lock, stamped with
/// the sender's generation. A failed (or timed-out) `write_all` may have
/// left a partial frame on the wire, after which nothing further can be
/// framed on this stream — so the error is counted and the stream shut
/// down; the read loop sees EOF and re-dials for a clean one. The acker
/// replays whatever the lost frame carried.
fn send(conn: &WorkerConn, msg: &Msg) {
    let mut buf = BytesMut::new();
    protocol::encode(&mut buf, conn.generation, msg);
    write_frame(conn, &buf);
}

/// Writes encoded frame bytes under the connection lock; see [`send`].
fn write_frame(conn: &WorkerConn, frame: &[u8]) {
    let mut stream = conn.stream.lock().unwrap_or_else(|e| e.into_inner());
    if stream.write_all(frame).is_err() {
        conn.send_errors.inc();
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Dials the supervisor under a bounded [`Backoff`], configuring the
/// socket on success. `None` when every attempt failed.
fn dial(addr: &str, mut backoff: Backoff) -> Option<TcpStream> {
    loop {
        if let Ok(stream) = TcpStream::connect(addr) {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            return Some(stream);
        }
        if !backoff.sleep_next() {
            return None;
        }
    }
}

/// Replaces a condemned supervisor stream: re-dial with bounded backoff,
/// write the `Register` frame on the fresh stream *before* swapping it
/// into the shared connection — otherwise a pump thread's data frame
/// could reach the supervisor ahead of the registration and kill the new
/// connection — then return the new read half. `None` means the
/// supervisor stayed unreachable and the worker should exit.
fn reconnect_supervisor(
    addr: &str,
    conn: &WorkerConn,
    worker_id: u32,
    reconnects: &Counter,
) -> Option<TcpStream> {
    let backoff = Backoff::new(CONNECT_BASE, CONNECT_CAP)
        .with_seed(worker_id as u64 ^ conn.generation)
        .with_max_attempts(RECONNECT_ATTEMPTS);
    let mut stream = dial(addr, backoff)?;
    let mut buf = BytesMut::new();
    protocol::encode(
        &mut buf,
        conn.generation,
        &Msg::Register {
            worker_id,
            generation: conn.generation,
        },
    );
    if stream.write_all(&buf).is_err() {
        return None;
    }
    let read_half = stream.try_clone().ok()?;
    *conn.stream.lock().unwrap_or_else(|e| e.into_inner()) = stream;
    reconnects.inc();
    Some(read_half)
}

struct Slice {
    handle: Arc<TopologyHandle>,
    drain: Option<Arc<dyn Fn() -> Vec<u8> + Send + Sync>>,
}

/// Builds the app, launches the assigned slice, and starts the pump
/// threads. Returns the running slice state the frame loop dispatches to.
fn launch(
    build: &impl Fn(&WorkerContext) -> ClusterApp,
    worker_id: u32,
    components: Vec<String>,
    slot_map: Vec<usize>,
    recovered: Option<Vec<u8>>,
    conn: &Arc<WorkerConn>,
    runtime: &Registry,
) -> Slice {
    let ctx = WorkerContext {
        worker_id,
        recovered,
    };
    let ClusterApp {
        topology,
        progress,
        drain,
        commit,
        checkpoint,
        checkpoint_every,
        registries,
    } = build(&ctx);

    let (acker_tx, acker_rx) = unbounded::<AckerMsg>();
    let egress_conn = Arc::clone(conn);
    let egress: EgressFn = Arc::new(
        move |frame: &mut Vec<u8>, dest: &str, task: usize, batches: &[TupleBatch]| {
            protocol::encode_tuple_batch(frame, egress_conn.generation, dest, task, batches);
            write_frame(&egress_conn, frame);
        },
    );
    let spec = SliceSpec {
        local: components.into_iter().collect(),
        slot_map,
        acker: acker_tx,
        egress,
    };
    let handle = Arc::new(topology.launch_slice(spec));

    // Acker forwarder: drain the slice's acker channel into batched
    // frames. `AckerMsg::Shutdown` is the local end-of-stream marker (the
    // executor sends it when the slice shuts down) — everything before it
    // is forwarded, the marker itself never crosses the wire.
    let fconn = Arc::clone(conn);
    thread::Builder::new()
        .name("tcluster-acker-fwd".into())
        .spawn(move || loop {
            let first = match acker_rx.recv() {
                Ok(m) => m,
                Err(_) => return,
            };
            let mut stop = false;
            let mut msgs = Vec::new();
            match first {
                AckerMsg::Shutdown => stop = true,
                m => msgs.push(m),
            }
            while !stop && msgs.len() < ACKER_BATCH {
                match acker_rx.try_recv() {
                    Ok(AckerMsg::Shutdown) => stop = true,
                    Ok(m) => msgs.push(m),
                    Err(_) => break,
                }
            }
            if !msgs.is_empty() {
                send(&fconn, &Msg::AckerBatch(msgs));
            }
            if stop {
                return;
            }
        })
        .expect("spawn acker forwarder");

    // Status + offset commits. Commits only ship when the blob changes,
    // so an idle worker is one status frame per tick, not two.
    let sconn = Arc::clone(conn);
    let shandle = Arc::clone(&handle);
    thread::Builder::new()
        .name("tcluster-status".into())
        .spawn(move || {
            let mut last_commit: Option<Vec<u8>> = None;
            loop {
                send(
                    &sconn,
                    &Msg::Status {
                        progress: progress.as_ref().map_or(0, |f| f()),
                        inflight: shandle.inflight(),
                        spouts_idle: shandle.spouts_idle(),
                    },
                );
                if let Some(f) = &commit {
                    let blob = f();
                    if last_commit.as_ref() != Some(&blob) {
                        send(&sconn, &Msg::OffsetCommit(blob.clone()));
                        last_commit = Some(blob);
                    }
                }
                thread::sleep(STATUS_EVERY);
            }
        })
        .expect("spawn status thread");

    // Checkpoint driver: periodically runs the app's checkpoint hook
    // against the live handle. The hook owns the whole protocol (barrier,
    // capture, durable publish); a slow checkpoint simply delays the next
    // one — cadence is "at most this often", not a hard period.
    if let Some(ckpt) = checkpoint {
        let chandle = Arc::clone(&handle);
        thread::Builder::new()
            .name("tcluster-checkpoint".into())
            .spawn(move || loop {
                thread::sleep(checkpoint_every);
                ckpt(&chandle);
            })
            .expect("spawn checkpoint thread");
    }

    let mconn = Arc::clone(conn);
    let mhandle = Arc::clone(&handle);
    let runtime = runtime.clone();
    thread::Builder::new()
        .name("tcluster-metrics".into())
        .spawn(move || loop {
            let mut samples = mhandle.registry().export();
            for reg in &registries {
                samples.extend(reg.export());
            }
            // The worker runtime's own transport counters ride along.
            samples.extend(runtime.export());
            send(&mconn, &Msg::MetricsReport(samples));
            thread::sleep(METRICS_EVERY);
        })
        .expect("spawn metrics thread");

    Slice { handle, drain }
}

fn worker_main(build: impl Fn(&WorkerContext) -> ClusterApp) -> i32 {
    let addr = std::env::var(ENV_SUPERVISOR).expect("TCLUSTER_SUPERVISOR not set");
    let worker_id: u32 = std::env::var(ENV_WORKER_ID)
        .expect("TCLUSTER_WORKER_ID not set")
        .parse()
        .expect("TCLUSTER_WORKER_ID not a u32");
    let generation: u64 = std::env::var(ENV_GENERATION)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let runtime = Registry::new();
    let send_errors = runtime.counter(
        "tcluster_send_errors",
        &[],
        "worker-to-supervisor writes that failed and condemned the stream",
    );
    let reconnects = runtime.counter(
        "tcluster_reconnects",
        &[],
        "successful supervisor re-dials after a condemned stream",
    );
    let Some(stream) = dial(
        &addr,
        Backoff::new(CONNECT_BASE, CONNECT_CAP)
            .with_seed(worker_id as u64)
            .with_max_attempts(CONNECT_ATTEMPTS),
    ) else {
        eprintln!("tcluster worker {worker_id}: supervisor {addr} unreachable, giving up");
        return 2;
    };
    let mut read_half = stream.try_clone().expect("clone supervisor stream");
    let conn = Arc::new(WorkerConn {
        stream: Mutex::new(stream),
        generation,
        send_errors,
    });
    send(
        &conn,
        &Msg::Register {
            worker_id,
            generation,
        },
    );

    let mut buf = BytesMut::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    type PendingAssignment = (Vec<String>, Vec<usize>, Option<Vec<u8>>);
    let mut assignment: Option<PendingAssignment> = None;
    let mut slice: Option<Slice> = None;
    // Tuple frames relayed by the supervisor can race this worker's own
    // Start frame (another worker may start a hair earlier); their bodies
    // are buffered and injected right after launch instead of dropped.
    let mut pre_start: Vec<BytesMut> = Vec::new();

    loop {
        let mut broken = false;
        loop {
            let (_, tag, body) = match split_frame(&mut buf) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                // A framing error means the stream is desynced (e.g. the
                // supervisor condemned its half mid-frame); recover by
                // re-dialing rather than dying — the respawn this would
                // otherwise force replays strictly more work.
                Err(_) => {
                    broken = true;
                    break;
                }
            };
            if tag == protocol::TAG_TUPLE_BATCH {
                match &slice {
                    Some(s) => {
                        if protocol::inject(&s.handle, &body).is_err() {
                            broken = true;
                            break;
                        }
                    }
                    None => pre_start.push(body),
                }
                continue;
            }
            let msg = match protocol::decode(tag, &body) {
                Ok(m) => m,
                Err(_) => {
                    broken = true;
                    break;
                }
            };
            match msg {
                Msg::Assignment {
                    components,
                    slot_map,
                    recovered,
                } if slice.is_none() => {
                    assignment = Some((components, slot_map, recovered));
                }
                Msg::Start if slice.is_none() => {
                    let (components, slot_map, recovered) =
                        assignment.take().expect("Start before Assignment");
                    let s = launch(
                        &build, worker_id, components, slot_map, recovered, &conn, &runtime,
                    );
                    let injected = pre_start
                        .drain(..)
                        .all(|body| protocol::inject(&s.handle, &body).is_ok());
                    slice = Some(s);
                    if !injected {
                        broken = true;
                        break;
                    }
                }
                Msg::SpoutNotify {
                    global_slot,
                    kind,
                    ids,
                } => {
                    if let Some(s) = &slice {
                        match kind {
                            NotifyKind::Ack => {
                                s.handle.spout_notify(global_slot, SpoutMsg::AckBatch(ids));
                            }
                            NotifyKind::Fail => {
                                for id in ids {
                                    s.handle.spout_notify(global_slot, SpoutMsg::Fail(id));
                                }
                            }
                        }
                    }
                }
                Msg::DrainRequest => {
                    let bytes = slice
                        .as_ref()
                        .and_then(|s| s.drain.as_ref())
                        .map_or_else(Vec::new, |f| f());
                    send(&conn, &Msg::DrainReport(bytes));
                }
                Msg::Shutdown => return 0,
                // Worker-bound traffic only; anything else is a peer-role
                // frame echoed by mistake and is ignored.
                _ => {}
            }
        }
        if !broken {
            match read_half.read(&mut chunk) {
                Ok(0) | Err(_) => broken = true,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
        if broken {
            // Partial frames from the dead stream can never complete.
            buf.clear();
            match reconnect_supervisor(&addr, &conn, worker_id, &reconnects) {
                Some(rh) => read_half = rh,
                // Supervisor gone for good: nothing useful left to do.
                // (A fenced zombie also lands here — the supervisor
                // answers its re-register with Shutdown or a close.)
                None => return 0,
            }
        }
    }
}
