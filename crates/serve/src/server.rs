//! The TCP server: accept loop, per-connection reader/writer threads,
//! and dispatch into the shard pool.
//!
//! Threading model: one accept thread, and per connection one reader
//! (decode + dispatch) and one writer (serialize replies from shard
//! workers). Replies reach the writer through an unbounded channel —
//! boundedness lives in the *shard* queues, where admission control can
//! refuse work; by the time a reply exists the expensive part is done.

use crate::protocol::{
    decode_request, encode_response, Request, Response, StatsReport, CONNECTION_ERROR_ID,
};
use crate::shard::{EngineFactory, ReplySlot, ShardPool};
use bytes::BytesMut;
use crossbeam::channel::unbounded;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine shards (worker threads). Queries and actions for one user
    /// always hit the same shard.
    pub shards: usize,
    /// Bounded per-shard queue depth; beyond it, admission sheds.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry one.
    pub default_deadline: Duration,
    /// Hard cap on requested page size (oversized `n` is clamped, not
    /// refused — a misbehaving client should not allocate at will).
    pub max_page: usize,
    /// Fault-injection plan for chaos testing ([`tchaos::FaultPlan::none`]
    /// by default — zero cost when disabled). Site: `ConnReset` hangs up
    /// a connection right before dispatching a decoded request.
    pub fault_plan: tchaos::FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            queue_capacity: 256,
            default_deadline: Duration::from_millis(500),
            max_page: 200,
            fault_plan: tchaos::FaultPlan::none(),
        }
    }
}

/// A running server; dropping the handle shuts it down.
pub struct Server {
    local_addr: SocketAddr,
    handle: Option<ServerHandle>,
}

/// Owns the server's threads; `shutdown()` (or drop) stops them.
pub struct ServerHandle {
    running: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    pool: Arc<ShardPool>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving with one
    /// engine per shard built by `factory`.
    pub fn bind(
        addr: &str,
        config: ServerConfig,
        factory: EngineFactory,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let pool = Arc::new(ShardPool::new(
            config.shards,
            config.queue_capacity,
            factory,
        ));
        let running = Arc::new(AtomicBool::new(true));
        let accept_thread = {
            let running = Arc::clone(&running);
            let pool = Arc::clone(&pool);
            let config = config.clone();
            std::thread::Builder::new()
                .name("tserve-accept".into())
                .spawn(move || accept_loop(listener, running, pool, config))?
        };
        Ok(Server {
            local_addr,
            handle: Some(ServerHandle {
                running,
                accept_thread: Some(accept_thread),
                pool,
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current statistics (same data as the wire `Stats` frame).
    pub fn stats(&self) -> StatsReport {
        self.handle
            .as_ref()
            .map(|h| stats_report(&h.pool))
            .unwrap_or_default()
    }

    /// Stops accepting, drains shard queues, and joins all threads.
    pub fn shutdown(mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}

impl ServerHandle {
    fn stop(mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Dropping the pool closes shard inboxes and joins workers.
    }
}

fn stats_report(pool: &ShardPool) -> StatsReport {
    let counters = pool.counters();
    StatsReport {
        served: counters.served.get(),
        shed: counters.shed.get(),
        expired: counters.expired.get(),
        actions: counters.actions.get(),
        latency: pool.latency_snapshot(),
    }
}

fn accept_loop(
    listener: TcpListener,
    running: Arc<AtomicBool>,
    pool: Arc<ShardPool>,
    config: ServerConfig,
) {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    while running.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let running = Arc::clone(&running);
                let pool = Arc::clone(&pool);
                let config = config.clone();
                let spawned = std::thread::Builder::new()
                    .name("tserve-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, running, pool, config);
                    });
                // A thread the OS refuses closes the connection: the
                // stream drops with the closure that would have served it.
                if let Ok(t) = spawned {
                    conn_threads.push(t);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
        // Reap finished connection threads so long-lived servers do not
        // accumulate handles.
        conn_threads.retain(|t| !t.is_finished());
    }
    for t in conn_threads {
        let _ = t.join();
    }
}

fn serve_connection(
    stream: TcpStream,
    running: Arc<AtomicBool>,
    pool: Arc<ShardPool>,
    config: ServerConfig,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    // Bounded read timeout so the reader can notice shutdown.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let write_stream = stream.try_clone()?;
    let (reply_tx, reply_rx) = unbounded::<(u64, Response)>();

    let writer = std::thread::Builder::new()
        .name("tserve-writer".into())
        .spawn(move || {
            let mut stream = write_stream;
            let mut out = BytesMut::new();
            // Exits when every reply sender (reader + shard jobs holding
            // ReplySlots) is gone.
            while let Ok((id, response)) = reply_rx.recv() {
                out.clear();
                encode_response(id, &response, &mut out);
                // Batch whatever else is already queued into one write.
                for (id, response) in reply_rx.try_iter() {
                    encode_response(id, &response, &mut out);
                }
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
        })?;

    let mut stream = stream;
    let mut inbox = BytesMut::new();
    let mut chunk = [0u8; 16 * 1024];
    'conn: while running.load(Ordering::SeqCst) {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(read) => {
                inbox.extend_from_slice(&chunk[..read]);
                loop {
                    match decode_request(&mut inbox) {
                        Ok(Some(frame)) => {
                            // Injected connection reset: hang up before
                            // dispatch, so the request was received but
                            // never answered — the ambiguous failure a
                            // client's retry logic has to cope with.
                            if config.fault_plan.should_fault(tchaos::FaultSite::ConnReset) {
                                break 'conn;
                            }
                            dispatch(frame.id, frame.msg, &reply_tx, &pool, &config)
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Protocol damage is unrecoverable on a byte
                            // stream: report under the reserved
                            // connection-level id and hang up.
                            let _ = reply_tx.send((
                                CONNECTION_ERROR_ID,
                                Response::Error {
                                    message: e.to_string(),
                                },
                            ));
                            break 'conn;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => break,
        }
    }
    drop(reply_tx);
    let _ = writer.join();
    Ok(())
}

fn dispatch(
    id: u64,
    request: Request,
    reply_tx: &crossbeam::channel::Sender<(u64, Response)>,
    pool: &Arc<ShardPool>,
    config: &ServerConfig,
) {
    match request {
        Request::Recommend {
            user,
            n,
            deadline_ms,
        } => {
            let budget = if deadline_ms == 0 {
                config.default_deadline
            } else {
                Duration::from_millis(deadline_ms as u64)
            };
            let deadline = Instant::now() + budget;
            let n = (n as usize).min(config.max_page);
            let reply = ReplySlot {
                id,
                tx: reply_tx.clone(),
            };
            // submit_query answers Overloaded itself when shedding.
            let _ = pool.submit_query(user, n, deadline, reply);
        }
        Request::ReportAction { action } => {
            let response = if pool.submit_action(action) {
                Response::Ack
            } else {
                Response::Overloaded
            };
            let _ = reply_tx.send((id, response));
        }
        Request::Health => {
            let _ = reply_tx.send((
                id,
                Response::Health {
                    shards: pool.shards() as u32,
                    queued: pool.queued() as u32,
                },
            ));
        }
        Request::Stats => {
            let _ = reply_tx.send((id, Response::Stats(stats_report(pool))));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tencentrec::engine::default_cf_engine;

    #[test]
    fn bind_and_shutdown() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|_| default_cf_engine()),
        )
        .expect("bind");
        assert_ne!(server.local_addr().port(), 0);
        let stats = server.stats();
        assert_eq!(stats.served, 0);
        server.shutdown();
    }
}
