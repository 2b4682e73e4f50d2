//! Supervisor process: places components on worker processes, relays
//! tuples and acker traffic between them, and restarts workers that die
//! or stall. It tracks no tuple tree: every worker runs the acker for the
//! trees its own spouts root.
//!
//! Topology: hub-and-spoke. Workers connect only to the supervisor; a
//! tuple or an acker batch crossing worker boundaries makes exactly one
//! relay hop. The supervisor never decodes relayed payloads — it peeks
//! the destination off the frame head and re-frames the body verbatim
//! ([`crate::protocol::peek_tuple_batch_dest`],
//! [`crate::protocol::peek_acker_batch_dest`]).
//!
//! Fail-over sequence when a worker dies (or is chaos-killed):
//! 1. the monitor thread reaps the child and respawns it with the *same*
//!    assignment (sticky placement — fields groupings keep their key→task
//!    contract);
//! 2. the respawned worker's [`crate::protocol::Msg::Assignment`] carries
//!    the last offset-commit blob the dead incarnation shipped, so its
//!    spouts resume from the committed frontier instead of offset 0;
//! 3. every tuple tree with an edge lost in the dead worker is never
//!    fully acked, times out at its owner's acker, and is replayed by the
//!    owning spout — downstream dedup absorbs the re-delivered prefix.
//!    Trees the dead worker itself rooted die with its acker; its
//!    respawned spouts replay from the committed frontier.
//!
//! # tguard: gray failures, leases, and generation fencing
//!
//! Process death is the *easy* failure — `try_wait` reports it. The hard
//! one is a worker that is alive but useless: SIGSTOPped, livelocked,
//! paging. Its socket stays open (so nothing errors), it stops
//! heartbeating (so nothing progresses), and without intervention the
//! topology wedges forever. The monitor therefore also runs a **lease**
//! over the worker's periodic status frames: a registered, started
//! worker whose last status is older than
//! [`SupervisorConfig::lease_timeout`] is treated exactly like a dead
//! one — SIGCONT (so a stopped process can die), SIGKILL, reap, respawn
//! with offset-commit recovery.
//!
//! Because a stalled worker is killed while *alive*, there is a window
//! where the old incarnation can wake and race its replacement. Every
//! incarnation therefore carries a monotonically increasing
//! **generation** (stamped into its environment at spawn, echoed as the
//! wire id of every worker→supervisor frame): the supervisor bumps the
//! slot's generation *before* touching the process, and drops any frame
//! or registration whose generation is stale. Dropping is safe — the
//! acker replays whatever the zombie was mid-delivering.
//!
//! While a worker's lease is expired, tuple batches routed to it are
//! **failed fast** — a `Fail` for each root goes to the acker of the
//! worker that owns it — instead of buffered toward a frozen socket: the
//! owning spouts replay them once the respawned incarnation registers.
//! Acker batches for a down worker are dropped; its acker's trees died
//! with it. All of it is observable: `tcluster_lease_expired`,
//! `tcluster_worker_generation`, `tcluster_fenced_frames`, and
//! `tcluster_relay_failed_fast` in [`Cluster::render_metrics`].

use crate::protocol::{self, Msg, TAG_ACKER_BATCH, TAG_TUPLE_BATCH};
use crate::{ClusterApp, WorkerContext, ENV_GENERATION, ENV_ROLE, ENV_SUPERVISOR, ENV_WORKER_ID};
use bytes::BytesMut;
use obs::{ClusterScrape, Counter, Gauge, Registry};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use tchaos::{FaultPlan, FaultSite};
use tstorm::ack::RootTag;
use wire::{frame_into, split_frame};

/// One worker process: which components it runs and whether chaos may
/// kill it.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Components whose tasks run in this worker. Placement is
    /// component-granular; each component must appear in exactly one
    /// worker's list.
    pub components: Vec<String>,
    /// Whether [`tchaos::FaultSite::WorkerKill`] may target this worker.
    /// Protect workers owning in-process state that a kill would erase
    /// (stores live in worker memory, not a shared service).
    pub kill_eligible: bool,
}

impl WorkerSpec {
    /// A kill-eligible worker running `components`.
    pub fn new<I, S>(components: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        WorkerSpec {
            components: components.into_iter().map(Into::into).collect(),
            kill_eligible: true,
        }
    }

    /// A worker chaos must not kill.
    pub fn protected<I, S>(components: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        WorkerSpec {
            kill_eligible: false,
            ..Self::new(components)
        }
    }
}

/// Cluster-wide launch parameters.
#[derive(Clone)]
pub struct SupervisorConfig {
    /// The worker processes to spawn, indexed by worker id.
    pub workers: Vec<WorkerSpec>,
    /// Fault plan driving [`tchaos::FaultSite::WorkerKill`] (drawn per
    /// status frame from kill-eligible workers) and
    /// [`tchaos::FaultSite::LinkPartition`] (drawn per relayed tuple
    /// batch).
    pub fault_plan: FaultPlan,
    /// Tree timeout at every worker's acker; trees pending longer than
    /// this are failed back to their spout for replay.
    pub message_timeout: Duration,
    /// Extra argv passed to re-executions of the current binary. Test
    /// harnesses pass `["--exact", "<test_fn>", "--nocapture"]` so the
    /// respawned test binary reaches the same test body.
    pub spawn_args: Vec<String>,
    /// Address the hub socket binds to. Defaults to `127.0.0.1:0`
    /// (loopback, ephemeral port). Bind `0.0.0.0:<port>` to accept
    /// workers from other machines; an unspecified IP is advertised to
    /// locally spawned workers as loopback, since `0.0.0.0` itself is not
    /// connectable.
    pub bind_addr: SocketAddr,
    /// Worker lease: a started worker whose last status frame is older
    /// than this is declared failed even though its process is alive
    /// (SIGSTOP, livelock), and is killed + respawned like a dead one.
    /// Must be a comfortable multiple of the worker's ~50 ms status
    /// cadence so scheduler hiccups and sporadic
    /// [`tchaos::FaultSite::HeartbeatDrop`] losses don't expire healthy
    /// workers. A spurious expiry is a wasted respawn, not data loss.
    pub lease_timeout: Duration,
}

impl SupervisorConfig {
    /// Defaults: no faults, 5 s tree timeout, no extra argv, loopback
    /// ephemeral bind, 2 s worker lease.
    pub fn new(workers: Vec<WorkerSpec>) -> Self {
        SupervisorConfig {
            workers,
            fault_plan: FaultPlan::none(),
            message_timeout: Duration::from_secs(5),
            spawn_args: Vec::new(),
            bind_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            lease_timeout: Duration::from_secs(2),
        }
    }
}

/// Write timeout on every supervisor→worker mailbox. A SIGSTOPped worker
/// stops draining its socket; once the kernel buffer fills, an unbounded
/// `write_all` would wedge the relay threads behind the one frozen peer
/// for as long as the stall lasts. A timed-out write may leave a partial
/// frame on the wire, so the stream is condemned (shutdown + mailbox
/// cleared) — the worker re-dials for a clean one.
const MAILBOX_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Latest health report from one worker.
#[derive(Debug, Default, Clone)]
struct WorkerState {
    progress: u64,
    inflight: i64,
    spouts_idle: bool,
    /// Trees pending at the worker's acker.
    pending: i64,
    last_status: Option<Instant>,
    drain: Option<Vec<u8>>,
}

struct Shared {
    mailboxes: Vec<Mutex<Option<TcpStream>>>,
    state: Mutex<Vec<WorkerState>>,
    commits: Mutex<Vec<Option<Vec<u8>>>>,
    scrape: Mutex<ClusterScrape>,
    children: Mutex<Vec<Option<Child>>>,
    registered: Mutex<Vec<bool>>,
    shutting_down: AtomicBool,
    started: AtomicBool,
    relayed: AtomicU64,
    dropped: AtomicU64,
    restarts: AtomicU64,
    /// Components per worker.
    assignments: Vec<Vec<String>>,
    comp_to_worker: HashMap<String, usize>,
    kill_eligible: Vec<bool>,
    /// Reads a root's owner (any worker's tag reads the same).
    tag: RootTag,
    message_timeout: Duration,
    plan: FaultPlan,
    /// Latest spawned generation per worker slot. Bumped *before* the old
    /// incarnation is touched, so its frames are stale the moment the
    /// respawn decision is made. Frames and registrations carrying any
    /// other generation are fenced.
    generations: Vec<AtomicU64>,
    /// True from lease expiry until the replacement incarnation
    /// registers; tuple batches routed to a down worker are failed fast
    /// at their owners' ackers instead of buffered.
    lease_down: Vec<AtomicBool>,
    lease_timeout: Duration,
    /// Supervisor-side tguard metrics, appended to the cluster scrape.
    registry: Registry,
    lease_expired: Vec<Counter>,
    gen_gauges: Vec<Gauge>,
    fenced: Counter,
    failed_fast: Counter,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

/// Writes `buf` into `mailbox`, condemning the stream on failure: a
/// failed (or timed-out) `write_all` may have left a partial frame on
/// the wire, after which nothing further can be framed on it. Shutdown
/// wakes the worker's read loop (EOF) so it re-dials cleanly; replay
/// re-delivers whatever the lost frames carried.
fn write_or_condemn(mailbox: &mut Option<TcpStream>, buf: &[u8]) {
    if let Some(stream) = mailbox.as_mut() {
        if stream.write_all(buf).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            *mailbox = None;
        }
    }
}

/// Encodes and writes one frame to worker `w`'s current connection.
/// Errors condemn the mailbox (see [`write_or_condemn`]); the replay
/// machinery, not the transport, owns recovery of the lost frame.
fn send_to(shared: &Shared, w: usize, msg: &Msg) {
    let mut buf = BytesMut::new();
    protocol::encode(&mut buf, 0, msg);
    write_or_condemn(&mut lock(&shared.mailboxes[w]), &buf);
}

/// Re-frames `body` verbatim into worker `dest`'s mailbox.
fn relay(shared: &Shared, dest: usize, id: u64, tag: u8, body: &[u8]) {
    let mut out = Vec::with_capacity(4 + wire::HEADER_LEN + body.len());
    frame_into(&mut out, id, tag, |b| b.extend_from_slice(body));
    write_or_condemn(&mut lock(&shared.mailboxes[dest]), &out);
}

/// Sends a `Fail` for each of `roots` to the acker of the worker that
/// owns it, one frame per owner. A down owner gets none: its trees died
/// with it.
fn fail_at_owners(shared: &Shared, roots: &[u64]) {
    let mut by_owner = vec![Vec::new(); shared.mailboxes.len()];
    for &root in roots {
        if let Some(fails) = by_owner.get_mut(shared.tag.owner(root)) {
            fails.push(root);
        }
    }
    for (w, fails) in by_owner.into_iter().enumerate() {
        if !fails.is_empty() && !shared.lease_down[w].load(Ordering::SeqCst) {
            let (owner, xors) = (w as u32, Vec::new());
            send_to(shared, w, &Msg::AckerBatch { owner, xors, fails });
        }
    }
}

fn spawn_worker(
    addr: &SocketAddr,
    w: usize,
    generation: u64,
    spawn_args: &[String],
) -> io::Result<Child> {
    let exe = std::env::current_exe()?;
    Command::new(exe)
        .args(spawn_args)
        .env(ENV_ROLE, "worker")
        .env(ENV_SUPERVISOR, addr.to_string())
        .env(ENV_WORKER_ID, w.to_string())
        .env(ENV_GENERATION, generation.to_string())
        .spawn()
}

fn kill_child(shared: &Shared, w: usize) {
    if let Some(child) = lock(&shared.children)[w].as_mut() {
        let _ = child.kill();
    }
}

/// Sends `signal` ("STOP", "CONT", ...) to worker `w`'s process via the
/// system `kill` utility — the workspace vendors no libc bindings, and a
/// shelled-out signal is plenty at chaos/monitor cadence. The pid is
/// copied out first so no lock is held across the subprocess.
fn signal_child(shared: &Shared, w: usize, signal: &str) {
    let pid = lock(&shared.children)[w].as_ref().map(|c| c.id());
    if let Some(pid) = pid {
        let _ = Command::new("kill")
            .arg(format!("-{signal}"))
            .arg(pid.to_string())
            .status();
    }
}

/// Handles one decoded-or-relayed frame from registered worker `w`.
fn handle_frame(shared: &Shared, w: usize, id: u64, tag: u8, body: &[u8]) {
    // Generation fence: every worker→supervisor frame echoes its
    // incarnation's generation as the wire id. A stale generation means
    // a zombie predecessor racing its replacement (e.g. a SIGSTOPped
    // worker waking after the lease respawned it); its frames are
    // dropped whole. Safe by the acker-replay contract: any tree the
    // zombie was mid-delivering never completes and is replayed through
    // the live incarnation.
    if id != shared.generations[w].load(Ordering::SeqCst) {
        shared.fenced.inc();
        return;
    }
    if tag == TAG_ACKER_BATCH {
        // Relayed unread to the worker whose acker owns the roots. A down
        // owner's socket is a black hole, and its trees died with it.
        if let Ok(owner) = protocol::peek_acker_batch_dest(body) {
            if owner < shared.mailboxes.len() && !shared.lease_down[owner].load(Ordering::SeqCst) {
                relay(shared, owner, id, tag, body);
            }
        }
        return;
    }
    if tag == TAG_TUPLE_BATCH {
        let Ok(dest) = protocol::peek_tuple_batch_dest(body) else {
            return;
        };
        let Some(&dest_worker) = shared.comp_to_worker.get(dest) else {
            return;
        };
        shared.relayed.fetch_add(1, Ordering::Relaxed);
        if shared.plan.should_fault(FaultSite::LinkPartition) {
            // Dropped on the (simulated) wire: every tree in the batch
            // times out at its owner's acker and replays from its spout.
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if shared.lease_down[dest_worker].load(Ordering::SeqCst) {
            // Graceful degradation: the destination's lease is expired,
            // so its socket is a black hole. Fail every tree in the
            // batch *now* — the spouts replay them once the respawned
            // worker registers — instead of buffering unboundedly (or
            // waiting out the full tree timeout) toward a frozen peer.
            shared.failed_fast.inc();
            if let Ok(roots) = protocol::peek_tuple_batch_roots(body) {
                fail_at_owners(shared, &roots);
            }
            return;
        }
        relay(shared, dest_worker, id, tag, body);
        return;
    }
    let Ok(msg) = protocol::decode(tag, body) else {
        return;
    };
    match msg {
        Msg::Status {
            progress,
            inflight,
            spouts_idle,
        } => {
            if shared.plan.should_fault(FaultSite::HeartbeatDrop) {
                // Heartbeat lost on the (simulated) wire: the lease
                // clock keeps running against the previous status.
                return;
            }
            {
                let mut st = lock(&shared.state);
                st[w].progress = progress;
                st[w].inflight = inflight;
                st[w].spouts_idle = spouts_idle;
                st[w].last_status = Some(Instant::now());
            }
            if shared.kill_eligible[w]
                && shared.started.load(Ordering::SeqCst)
                && !shared.shutting_down.load(Ordering::SeqCst)
            {
                if shared.plan.should_fault(FaultSite::WorkerKill) {
                    kill_child(shared, w);
                } else if shared.plan.should_fault(FaultSite::WorkerStall) {
                    // Real SIGSTOP: the gray failure WorkerKill can't
                    // produce. Only the lease detector can recover it.
                    signal_child(shared, w, "STOP");
                }
            }
        }
        Msg::PendingTrees(n) => lock(&shared.state)[w].pending = n,
        Msg::DrainReport(bytes) => lock(&shared.state)[w].drain = Some(bytes),
        Msg::MetricsReport(samples) => lock(&shared.scrape).ingest(&format!("w{w}"), samples),
        Msg::OffsetCommit(bytes) => lock(&shared.commits)[w] = Some(bytes),
        // Supervisor-bound traffic only.
        _ => {}
    }
}

/// Per-connection reader: waits for `Register`, installs the mailbox,
/// ships the assignment (plus any recovered commit blob), then pumps
/// frames until the socket closes.
fn serve_conn(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // The write half of this stream becomes the worker's mailbox; bound
    // every write so a frozen peer can't wedge the relay threads.
    let _ = stream.set_write_timeout(Some(MAILBOX_WRITE_TIMEOUT));
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let n = shared.mailboxes.len();
    let mut buf = BytesMut::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut worker: Option<usize> = None;
    loop {
        loop {
            let (id, tag, body) = match split_frame(&mut buf) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => return,
            };
            match worker {
                Some(w) => handle_frame(&shared, w, id, tag, &body),
                None => {
                    let Ok(Msg::Register {
                        worker_id,
                        generation,
                    }) = protocol::decode(tag, &body)
                    else {
                        return;
                    };
                    let w = worker_id as usize;
                    if w >= n {
                        return;
                    }
                    // Registration fence: only the latest spawned
                    // incarnation may claim the slot. A same-generation
                    // re-register is a legal reconnect (the worker
                    // re-dialed after a condemned stream); a stale one is
                    // a zombie predecessor and is told to exit.
                    if generation != shared.generations[w].load(Ordering::SeqCst) {
                        shared.fenced.inc();
                        let mut out = BytesMut::new();
                        protocol::encode(&mut out, 0, &Msg::Shutdown);
                        let _ = (&stream).write_all(&out);
                        return;
                    }
                    worker = Some(w);
                    *lock(&shared.mailboxes[w]) = stream.try_clone().ok();
                    // The replacement incarnation is reachable again:
                    // stop failing fast toward this slot.
                    shared.lease_down[w].store(false, Ordering::SeqCst);
                    // A re-registering (respawned) worker starts from a
                    // blank health record so wait_idle never trusts the
                    // dead incarnation's last report.
                    lock(&shared.state)[w] = WorkerState::default();
                    let recovered = lock(&shared.commits)[w].clone();
                    send_to(
                        &shared,
                        w,
                        &Msg::Assignment {
                            components: shared.assignments[w].clone(),
                            n_workers: n as u32,
                            message_timeout_ms: shared.message_timeout.as_millis() as u64,
                            recovered,
                        },
                    );
                    let all = {
                        let mut reg = lock(&shared.registered);
                        reg[w] = true;
                        reg.iter().all(|r| *r)
                    };
                    if shared.started.load(Ordering::SeqCst) {
                        send_to(&shared, w, &Msg::Start);
                    } else if all && !shared.started.swap(true, Ordering::SeqCst) {
                        // First time everyone is connected: every mailbox
                        // is installed, so no worker can emit toward a
                        // peer the supervisor cannot reach yet.
                        for i in 0..n {
                            send_to(&shared, i, &Msg::Start);
                        }
                    }
                }
            }
        }
        match read_half.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(nread) => buf.extend_from_slice(&chunk[..nread]),
        }
    }
}

/// Reaps dead workers, expires the leases of stalled ones, and respawns
/// either kind with its original assignment (sticky placement + offset
/// commit recovery).
///
/// The lease arms only once a worker has heartbeated at least once while
/// the topology is started, and only while its lease is not already
/// expired — so a slow process launch can't be declared stalled, and one
/// expiry produces one respawn.
fn monitor_loop(shared: Arc<Shared>, addr: SocketAddr, spawn_args: Vec<String>) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        for w in 0..shared.mailboxes.len() {
            let dead = match &mut lock(&shared.children)[w] {
                Some(c) => matches!(c.try_wait(), Ok(Some(_))),
                None => false,
            };
            let lease_expired = !dead
                && !shared.lease_down[w].load(Ordering::SeqCst)
                && shared.started.load(Ordering::SeqCst)
                && lock(&shared.state)[w]
                    .last_status
                    .is_some_and(|t| t.elapsed() > shared.lease_timeout);
            if (!dead && !lease_expired) || shared.shutting_down.load(Ordering::SeqCst) {
                continue;
            }
            // Bump the generation *before* touching the process: from
            // this instant every frame of the old incarnation is stale,
            // even if a SIGSTOPped zombie wakes mid-kill and flushes.
            let gen = shared.generations[w].fetch_add(1, Ordering::SeqCst) + 1;
            shared.gen_gauges[w].set(gen as f64);
            if lease_expired {
                shared.lease_expired[w].inc();
                shared.lease_down[w].store(true, Ordering::SeqCst);
                // A stopped process queues SIGTERM-class signals until it
                // resumes; SIGCONT first deliberately opens the zombie
                // window the generation fence must close. (SIGKILL alone
                // would work on a stopped process — the CONT keeps the
                // race honest.)
                signal_child(&shared, w, "CONT");
            }
            {
                let mut children = lock(&shared.children);
                if let Some(c) = children[w].as_mut() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                lock(&shared.state)[w] = WorkerState::default();
                children[w] = spawn_worker(&addr, w, gen, &spawn_args).ok();
                if children[w].is_some() {
                    shared.restarts.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        thread::sleep(Duration::from_millis(50));
    }
}

/// A running cluster: the supervisor-side handle over N worker
/// processes. Dropping without [`Cluster::shutdown`] leaves children
/// running; always shut down.
pub struct Cluster {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: JoinHandle<()>,
    monitor: JoinHandle<()>,
    n: usize,
}

impl Cluster {
    /// Validates placement, binds the hub socket, and spawns one worker
    /// process per [`WorkerSpec`] by re-executing the current binary.
    ///
    /// `build` is invoked once here with a probe context
    /// ([`WorkerContext::is_probe`]) purely to learn the topology's
    /// component names; the probe app is dropped unlaunched. Worker
    /// processes call the same builder through [`crate::maybe_run_worker`].
    pub fn launch(
        config: SupervisorConfig,
        build: impl Fn(&WorkerContext) -> ClusterApp,
    ) -> io::Result<Cluster> {
        let n = config.workers.len();
        if n == 0 {
            return Err(invalid("cluster needs at least one worker"));
        }
        // Every worker's spouts write its index into their roots: more
        // workers than a root tag can name are refused here, before
        // anything binds or spawns.
        let tag = RootTag::new(0, n).map_err(invalid)?;
        let probe = build(&WorkerContext {
            worker_id: u32::MAX,
            recovered: None,
        });
        let infos = probe.topology.components();
        drop(probe);

        let mut comp_to_worker = HashMap::new();
        for (w, spec) in config.workers.iter().enumerate() {
            for c in &spec.components {
                if comp_to_worker.insert(c.clone(), w).is_some() {
                    return Err(invalid(format!("component {c:?} assigned to two workers")));
                }
            }
        }
        let known: HashSet<&str> = infos.iter().map(|i| i.name.as_str()).collect();
        for spec in &config.workers {
            for c in &spec.components {
                if !known.contains(c.as_str()) {
                    return Err(invalid(format!("unknown component {c:?} in worker spec")));
                }
            }
        }
        for info in &infos {
            if !comp_to_worker.contains_key(&info.name) {
                return Err(invalid(format!("component {:?} not placed", info.name)));
            }
        }

        let listener = TcpListener::bind(config.bind_addr)?;
        let mut addr = listener.local_addr()?;
        // A wildcard bind (0.0.0.0 / ::) accepts from any interface but is
        // not itself connectable; advertise loopback with the bound port
        // to the workers this supervisor spawns locally.
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let registry = Registry::new();
        let fenced = registry.counter(
            "tcluster_fenced_frames",
            &[],
            "frames and registrations rejected for carrying a stale worker generation",
        );
        let failed_fast = registry.counter(
            "tcluster_relay_failed_fast",
            &[],
            "tuple batches failed at their roots' ackers because the destination worker's lease was down",
        );
        let mut lease_expired = Vec::with_capacity(n);
        let mut gen_gauges = Vec::with_capacity(n);
        for w in 0..n {
            let label = format!("w{w}");
            lease_expired.push(registry.counter(
                "tcluster_lease_expired",
                &[("worker", &label)],
                "lease expiries: the worker was alive but stopped heartbeating",
            ));
            let g = registry.gauge(
                "tcluster_worker_generation",
                &[("worker", &label)],
                "current incarnation generation of the worker slot",
            );
            g.set(1.0);
            gen_gauges.push(g);
        }
        let shared = Arc::new(Shared {
            mailboxes: (0..n).map(|_| Mutex::new(None)).collect(),
            state: Mutex::new(vec![WorkerState::default(); n]),
            commits: Mutex::new(vec![None; n]),
            scrape: Mutex::new(ClusterScrape::new()),
            children: Mutex::new((0..n).map(|_| None).collect()),
            registered: Mutex::new(vec![false; n]),
            shutting_down: AtomicBool::new(false),
            started: AtomicBool::new(false),
            relayed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            assignments: config
                .workers
                .iter()
                .map(|s| s.components.clone())
                .collect(),
            comp_to_worker,
            kill_eligible: config.workers.iter().map(|s| s.kill_eligible).collect(),
            tag,
            message_timeout: config.message_timeout,
            plan: config.fault_plan.clone(),
            generations: (0..n).map(|_| AtomicU64::new(1)).collect(),
            lease_down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            lease_timeout: config.lease_timeout,
            registry,
            lease_expired,
            gen_gauges,
            fenced,
            failed_fast,
        });

        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("tcluster-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.shutting_down.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    let sh = Arc::clone(&accept_shared);
                    let _ = thread::Builder::new()
                        .name("tcluster-conn".into())
                        .spawn(move || serve_conn(sh, stream));
                }
            })?;

        for w in 0..n {
            match spawn_worker(&addr, w, 1, &config.spawn_args) {
                Ok(child) => lock(&shared.children)[w] = Some(child),
                Err(e) => {
                    shared.shutting_down.store(true, Ordering::SeqCst);
                    for c in lock(&shared.children).iter_mut().flatten() {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    let _ = TcpStream::connect(addr);
                    let _ = accept.join();
                    return Err(e);
                }
            }
        }

        let monitor_shared = Arc::clone(&shared);
        let spawn_args = config.spawn_args.clone();
        let monitor = thread::Builder::new()
            .name("tcluster-monitor".into())
            .spawn(move || monitor_loop(monitor_shared, addr, spawn_args))?;

        Ok(Cluster {
            shared,
            addr,
            accept,
            monitor,
            n,
        })
    }

    /// The address advertised to workers (the bound address, with a
    /// wildcard IP rewritten to loopback).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Latest progress value reported by worker `w`'s status frames.
    pub fn progress(&self, w: usize) -> u64 {
        lock(&self.shared.state)[w].progress
    }

    /// How many worker respawns the monitor has performed.
    pub fn restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::SeqCst)
    }

    /// Tuple-batch frames relayed between workers (including dropped).
    pub fn relayed_batches(&self) -> u64 {
        self.shared.relayed.load(Ordering::Relaxed)
    }

    /// Tuple-batch frames dropped by [`tchaos::FaultSite::LinkPartition`].
    pub fn dropped_batches(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Tuple trees pending across the workers' ackers, as their latest
    /// status reports read.
    pub fn pending_trees(&self) -> i64 {
        lock(&self.shared.state).iter().map(|s| s.pending).sum()
    }

    /// The fault plan this cluster is running under (for `fired` counts).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.shared.plan
    }

    /// Kills worker `w`'s process (SIGKILL — no drop handlers run). The
    /// monitor respawns it with the same assignment; pair with
    /// [`Cluster::wait_idle`] to observe recovery.
    pub fn kill_worker(&self, w: usize) {
        kill_child(&self.shared, w);
    }

    /// SIGSTOPs worker `w`: a gray failure. The process stays alive (so
    /// reaping never fires) but stops heartbeating; only the lease
    /// detector recovers it.
    pub fn stall_worker(&self, w: usize) {
        signal_child(&self.shared, w, "STOP");
    }

    /// SIGCONTs worker `w`, undoing [`Cluster::stall_worker`] if the
    /// lease has not already expired it.
    pub fn resume_worker(&self, w: usize) {
        signal_child(&self.shared, w, "CONT");
    }

    /// Total lease expiries across all workers (stalled-but-alive
    /// detections; process deaths don't count here).
    pub fn lease_expiries(&self) -> u64 {
        self.shared.lease_expired.iter().map(|c| c.get()).sum()
    }

    /// Frames and registrations rejected by the generation fence.
    pub fn fenced_frames(&self) -> u64 {
        self.shared.fenced.get()
    }

    /// Tuple batches failed fast at their owners' ackers because their
    /// destination worker's lease was down.
    pub fn failed_fast_batches(&self) -> u64 {
        self.shared.failed_fast.get()
    }

    /// Current incarnation generation of worker slot `w` (starts at 1,
    /// bumped on every respawn).
    pub fn generation(&self, w: usize) -> u64 {
        self.shared.generations[w].load(Ordering::SeqCst)
    }

    /// Waits until worker `w` reports progress ≥ `target`.
    pub fn wait_progress(&self, w: usize, target: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.progress(w) >= target {
                return true;
            }
            thread::sleep(Duration::from_millis(10));
        }
        false
    }

    fn idle_now(&self) -> bool {
        lock(&self.shared.state).iter().all(|s| {
            s.spouts_idle
                && s.inflight <= 0
                && s.pending == 0
                && s.last_status
                    .is_some_and(|t| t.elapsed() < Duration::from_millis(500))
        })
    }

    /// Waits until the whole cluster is quiescent: every worker's *fresh*
    /// status reports idle spouts, no inflight tuples and no tree pending
    /// at its acker — stable across three consecutive polls, so a single
    /// between-batches lull doesn't count.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stable = 0;
        while Instant::now() < deadline {
            if self.idle_now() {
                stable += 1;
                if stable >= 3 {
                    return true;
                }
            } else {
                stable = 0;
            }
            thread::sleep(Duration::from_millis(25));
        }
        false
    }

    /// Asks worker `w` to serialize its app state ([`ClusterApp::drain`])
    /// and returns the bytes, or `None` on timeout.
    pub fn drain(&self, w: usize, timeout: Duration) -> Option<Vec<u8>> {
        lock(&self.shared.state)[w].drain = None;
        send_to(&self.shared, w, &Msg::DrainRequest);
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Some(bytes) = lock(&self.shared.state)[w].drain.clone() {
                return Some(bytes);
            }
            thread::sleep(Duration::from_millis(10));
        }
        None
    }

    /// Renders the merged cluster scrape: every metric family with
    /// per-worker labelled series plus cluster-wide aggregates, followed
    /// by the supervisor's own tguard metrics (leases, generations,
    /// fencing, fail-fast).
    pub fn render_metrics(&self) -> String {
        let mut out = lock(&self.shared.scrape).render();
        out.push_str(&self.shared.registry.render());
        out
    }

    /// Stops the cluster: asks every worker to exit, waits up to
    /// `timeout` before killing stragglers, then tears down the accept
    /// and monitor threads.
    pub fn shutdown(self, timeout: Duration) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        for w in 0..self.n {
            send_to(&self.shared, w, &Msg::Shutdown);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let mut all_done = true;
            {
                let mut children = lock(&self.shared.children);
                for child in children.iter_mut() {
                    if let Some(c) = child {
                        match c.try_wait() {
                            Ok(Some(_)) => *child = None,
                            _ => all_done = false,
                        }
                    }
                }
                if !all_done && Instant::now() >= deadline {
                    for child in children.iter_mut() {
                        if let Some(c) = child {
                            let _ = c.kill();
                            let _ = c.wait();
                        }
                        *child = None;
                    }
                    all_done = true;
                }
            }
            if all_done {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        // The accept thread is parked in accept(); a throwaway connection
        // wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        let _ = self.monitor.join();
    }
}
