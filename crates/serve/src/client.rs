//! Client library: pooled connections with request pipelining.
//!
//! Each pooled connection owns one TCP stream plus a reader thread that
//! routes responses back to callers by correlation id, so many requests
//! can be in flight on one connection at once (pipelining). The pool
//! pins a user's requests to one connection and hands `Health`/`Stats`
//! out round-robin; a connection that dies is lazily re-dialed on next
//! use.

use crate::protocol::{
    decode_response, encode_request, ProtocolError, Request, Response, StatsReport,
};
use bytes::BytesMut;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tencentrec::action::UserAction;
use tencentrec::types::{ItemId, UserId};

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Number of pooled TCP connections.
    pub connections: usize,
    /// How long `call` waits for a response before giving up.
    pub request_timeout: Duration,
    /// Extra attempts `call` makes after a retriable failure of an
    /// idempotent request (0 disables retries). Non-idempotent requests
    /// (`ReportAction`) are never retried.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt, with
    /// jitter, capped at ~1s.
    pub retry_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connections: 2,
            request_timeout: Duration::from_secs(5),
            retries: 2,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Dial or socket I/O failed.
    Io(std::io::Error),
    /// The server's bytes did not parse.
    Protocol(ProtocolError),
    /// No response within `request_timeout`.
    Timeout,
    /// The connection closed with the request still in flight.
    ConnectionClosed,
    /// The server refused the request at admission control.
    Overloaded,
    /// The server reported an error.
    Server(String),
    /// The server answered with a frame that does not match the request.
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::ConnectionClosed => write!(f, "connection closed"),
            ClientError::Overloaded => write!(f, "server overloaded"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected response: {what}")
            }
        }
    }
}

impl ClientError {
    /// Whether the failure is transient, so retrying the same request (if
    /// idempotent) may succeed. Server-reported errors and protocol
    /// violations are deterministic and not worth repeating.
    pub fn is_retriable(&self) -> bool {
        match self {
            ClientError::Io(_)
            | ClientError::Timeout
            | ClientError::ConnectionClosed
            | ClientError::Overloaded => true,
            ClientError::Protocol(_)
            | ClientError::Server(_)
            | ClientError::UnexpectedResponse(_) => false,
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// An in-flight request; resolves to the response.
pub struct Pending {
    rx: mpsc::Receiver<Response>,
    timeout: Duration,
}

impl Pending {
    /// Blocks until the response arrives (or timeout / disconnect).
    pub fn wait(self) -> Result<Response, ClientError> {
        match self.rx.recv_timeout(self.timeout) {
            Ok(response) => Ok(response),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ClientError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ClientError::ConnectionClosed),
        }
    }
}

type PendingMap = Arc<Mutex<HashMap<u64, mpsc::Sender<Response>>>>;

struct Connection {
    stream: TcpStream,
    pending: PendingMap,
    alive: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
}

impl Connection {
    fn dial(addr: &str) -> Result<Connection, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let read_stream = stream.try_clone()?;
        let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
        let alive = Arc::new(AtomicBool::new(true));
        let reader = {
            let pending = Arc::clone(&pending);
            let alive = Arc::clone(&alive);
            std::thread::Builder::new()
                .name("tserve-client-reader".into())
                .spawn(move || reader_loop(read_stream, pending, alive))?
        };
        Ok(Connection {
            stream,
            pending,
            alive,
            reader: Some(reader),
        })
    }

    fn submit(
        &mut self,
        id: u64,
        request: &Request,
        timeout: Duration,
    ) -> Result<Pending, ClientError> {
        let (tx, rx) = mpsc::channel();
        self.pending.lock().insert(id, tx);
        let mut buf = BytesMut::new();
        encode_request(id, request, &mut buf);
        if let Err(e) = self.stream.write_all(&buf) {
            self.pending.lock().remove(&id);
            self.alive.store(false, Ordering::SeqCst);
            return Err(ClientError::Io(e));
        }
        Ok(Pending { rx, timeout })
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::SeqCst);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn reader_loop(mut stream: TcpStream, pending: PendingMap, alive: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut inbox = BytesMut::new();
    let mut chunk = [0u8; 16 * 1024];
    'conn: loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(read) => {
                inbox.extend_from_slice(&chunk[..read]);
                loop {
                    match decode_response(&mut inbox) {
                        Ok(Some(frame)) => {
                            if let Some(tx) = pending.lock().remove(&frame.id) {
                                // Caller may have timed out and gone away.
                                let _ = tx.send(frame.msg);
                            }
                        }
                        Ok(None) => break,
                        Err(_) => break 'conn,
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if !alive.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    alive.store(false, Ordering::SeqCst);
    // Dropping the pending map's senders wakes blocked `wait`ers with
    // ConnectionClosed.
    pending.lock().clear();
}

/// A pooled, pipelining client for one tserve server.
///
/// Per-user order: `Recommend` and `ReportAction` for user `u` always go
/// out on connection `u % connections`, and the server queues one
/// connection's requests for one user on one shard in arrival order. So
/// requests for one user submitted from one thread are answered in
/// submission order: a `Recommend` pipelined behind that user's
/// `ReportAction` sees the action. Requests for different users, and
/// requests for one user submitted from several threads, carry no order.
pub struct Client {
    addr: String,
    config: ClientConfig,
    connections: Vec<Mutex<Option<Connection>>>,
    next_id: AtomicU64,
    next_conn: AtomicU64,
    /// Sequence hashed into backoff jitter so concurrent retriers spread
    /// out instead of thundering in lockstep.
    jitter_seq: AtomicU64,
}

impl Client {
    /// Connects `config.connections` sockets to `addr`.
    pub fn connect(addr: &str, config: ClientConfig) -> Result<Client, ClientError> {
        assert!(config.connections > 0, "at least one connection");
        let mut connections = Vec::with_capacity(config.connections);
        for _ in 0..config.connections {
            connections.push(Mutex::new(Some(Connection::dial(addr)?)));
        }
        Ok(Client {
            addr: addr.to_string(),
            config,
            connections,
            // Ids start at 1: 0 is the protocol's reserved
            // connection-level error id and must never match a request.
            next_id: AtomicU64::new(1),
            next_conn: AtomicU64::new(0),
            jitter_seq: AtomicU64::new(0),
        })
    }

    /// Connects with default configuration.
    pub fn connect_default(addr: &str) -> Result<Client, ClientError> {
        Client::connect(addr, ClientConfig::default())
    }

    /// Sends `request` without waiting; resolve with [`Pending::wait`].
    /// Multiple submissions pipeline on the same connection; a user's
    /// requests keep their order (see [`Client`]).
    pub fn submit(&self, request: &Request) -> Result<Pending, ClientError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = match request {
            Request::Recommend { user, .. } => *user,
            Request::ReportAction { action } => action.user,
            Request::Health | Request::Stats => self.next_conn.fetch_add(1, Ordering::Relaxed),
        };
        let slot_index = (key % self.connections.len() as u64) as usize;
        let mut slot = self.connections[slot_index].lock();
        // Lazily re-dial a connection that died.
        let conn = match slot.take() {
            Some(conn) if conn.is_alive() => conn,
            _ => Connection::dial(&self.addr)?,
        };
        slot.insert(conn)
            .submit(id, request, self.config.request_timeout)
    }

    /// Blocking request/response. Idempotent requests are retried up to
    /// `config.retries` times on retriable failures (dropped connections
    /// re-dial lazily on the next attempt), with exponential backoff and
    /// jitter. `ReportAction` is sent exactly once: an ambiguous failure
    /// must surface to the caller, not turn into a duplicate action.
    pub fn call(&self, request: &Request) -> Result<Response, ClientError> {
        let attempts = if request.is_idempotent() {
            1 + self.config.retries
        } else {
            1
        };
        let mut attempt = 0;
        loop {
            match self.call_once(request) {
                Ok(response) => return Ok(response),
                Err(e) if e.is_retriable() && attempt + 1 < attempts => {}
                Err(e) => return Err(e),
            }
            attempt += 1;
            self.backoff(attempt);
        }
    }

    fn call_once(&self, request: &Request) -> Result<Response, ClientError> {
        let response = self.submit(request)?.wait()?;
        match response {
            Response::Overloaded => Err(ClientError::Overloaded),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Ok(other),
        }
    }

    /// Exponential backoff with deterministic jitter, delegated to the
    /// shared [`wire::Backoff`] policy (the same curve the cluster
    /// transport retries under): `base * 2^(attempt-1)` plus up to 50%
    /// jitter, capped at one second. The shared counter seeds the jitter
    /// so concurrent retries across threads spread out.
    fn backoff(&self, attempt: u32) {
        let seq = self.jitter_seq.fetch_add(1, Ordering::Relaxed);
        let delay = wire::Backoff::new(self.config.retry_backoff, Duration::from_secs(1))
            .with_seed(seq)
            .delay(attempt);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Top-`n` recommendations for `user`. `deadline_ms == 0` uses the
    /// server default.
    pub fn recommend(
        &self,
        user: UserId,
        n: u32,
        deadline_ms: u32,
    ) -> Result<Vec<(ItemId, f64)>, ClientError> {
        match self.call(&Request::Recommend {
            user,
            n,
            deadline_ms,
        })? {
            Response::Recommendations { items } => Ok(items),
            _ => Err(ClientError::UnexpectedResponse("want Recommendations")),
        }
    }

    /// Reports one action; `Ok` means the server admitted it.
    pub fn report_action(&self, action: UserAction) -> Result<(), ClientError> {
        match self.call(&Request::ReportAction { action })? {
            Response::Ack => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("want Ack")),
        }
    }

    /// Liveness probe; returns (shards, queued).
    pub fn health(&self) -> Result<(u32, u32), ClientError> {
        match self.call(&Request::Health)? {
            Response::Health { shards, queued } => Ok((shards, queued)),
            _ => Err(ClientError::UnexpectedResponse("want Health")),
        }
    }

    /// Server-side statistics.
    pub fn stats(&self) -> Result<StatsReport, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            _ => Err(ClientError::UnexpectedResponse("want Stats")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tencentrec::action::{ActionType, UserAction};

    #[test]
    fn error_retriability_classification() {
        let io = ClientError::Io(std::io::Error::new(ErrorKind::BrokenPipe, "x"));
        assert!(io.is_retriable());
        assert!(ClientError::Timeout.is_retriable());
        assert!(ClientError::ConnectionClosed.is_retriable());
        assert!(ClientError::Overloaded.is_retriable());
        assert!(!ClientError::Server("boom".into()).is_retriable());
        assert!(!ClientError::UnexpectedResponse("want Ack").is_retriable());
    }

    #[test]
    fn idempotency_classification() {
        assert!(Request::Health.is_idempotent());
        assert!(Request::Stats.is_idempotent());
        assert!(Request::Recommend {
            user: 1,
            n: 10,
            deadline_ms: 0
        }
        .is_idempotent());
        assert!(!Request::ReportAction {
            action: UserAction::new(1, 2, ActionType::Click, 0)
        }
        .is_idempotent());
    }
}
