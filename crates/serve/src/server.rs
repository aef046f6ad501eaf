//! The serving front end: readiness-driven I/O over `std::net` sockets,
//! sharded across a small fixed set of threads that sleep in `epoll_wait`
//! until there is work.
//!
//! The acceptor thread blocks in epoll on the listener and a shutdown
//! waker (an `eventfd`). It deals accepted sockets round-robin to
//! `poll_shards` shard threads over channels, waking the receiving shard
//! through its own waker. Each shard owns its connections outright — no
//! lock is shared between shards — and one epoll instance:
//!
//! * sockets are registered edge-triggered for `EPOLLIN|EPOLLRDHUP`, and a
//!   wake-up steps only the connections epoll reports ready, plus those
//!   whose extraction the batcher has answered (marked on the shard's
//!   waker) — an idle socket costs nothing per wake;
//! * bytes are fed to a per-connection incremental [`RequestParser`], so a
//!   slow client costs a buffer, not a blocked thread;
//! * complete requests dispatch through the router; extraction requests
//!   come back as [`PendingExtract`]s, and the batcher wakes the shard
//!   once it has answered them, so the loop never blocks on scoring;
//! * responses are written in request order (keep-alive pipelining); a
//!   write the socket refuses arms `EPOLLOUT` until the rest is flushed;
//! * a connection that dribbles one request past `read_timeout` is
//!   answered 408 and closed; one idle past `IDLE_TIMEOUT` (30 s) is closed
//!   silently. The `epoll_wait` timeout is the earliest such deadline of
//!   the shard's connections; with none pending it blocks indefinitely.
//!
//! There is no thread per socket and no polling interval anywhere: every
//! thread blocks until a socket, a scored batch, a deadline, or shutdown
//! has something for it.
//!
//! The shutdown sequence loses no accepted work: the acceptor closes
//! first, shards finish every request already parsed or in flight (new
//! submits are refused 503 by the batcher), and the batcher drains
//! everything it accepted before its dispatchers exit.

use crate::batcher::Batcher;
use crate::epoll::{Epoll, Events, Wake, Waker, EPOLLET, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::http::{RequestParser, Response};
use crate::router::{self, PendingExtract, Routed};
use crate::state::ServeState;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long an idle keep-alive connection may sit between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Readiness events taken per `epoll_wait`.
const EVENT_BATCH: usize = 256;

/// A shard's token for its own waker; connection tokens are slab indices.
const WAKER_TOKEN: u64 = u64::MAX;

/// A connection's interest set: always readable (edge-triggered, with the
/// peer's half-close), writable only while output is stuck.
fn interest(writable: bool) -> u32 {
    EPOLLIN | EPOLLRDHUP | EPOLLET | if writable { EPOLLOUT } else { 0 }
}

/// A bound, not-yet-running server. [`run`](Server::run) blocks until a
/// graceful shutdown completes (via `POST /admin/shutdown` or
/// [`ServeState::begin_shutdown`] from another thread).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:8080`; port 0 picks an ephemeral
    /// port) over the given state.
    pub fn bind(addr: impl ToSocketAddrs, state: Arc<ServeState>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server { listener, state, addr })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for triggering shutdown or reloads in-process.
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Serves until shutdown is requested, then drains and returns.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shard_count = self.state.config.poll_shards.max(1);
        let accept_poll = Epoll::new()?;
        let shutdown = Arc::new(Waker::new()?);
        // The listener is edge-triggered: each wake accepts until the
        // backlog is empty. The shutdown waker is never cleared — once it
        // fires, the accept loop ends.
        accept_poll.add(self.listener.as_raw_fd(), EPOLLIN | EPOLLET, 0)?;
        accept_poll.add(shutdown.fd(), EPOLLIN, 1)?;
        let shards = (0..shard_count).map(|_| Shard::new()).collect::<std::io::Result<Vec<_>>>()?;
        let batcher = Batcher::start(Arc::clone(&self.state));
        ner_obs::info(format!(
            "serving on http://{} ({} poll shards, {} replicas)",
            self.addr,
            shard_count,
            self.state.replica_count()
        ));
        self.state.wake_on_shutdown(Arc::clone(&shutdown));

        let accepted = std::thread::scope(|scope| {
            // One channel per shard; dropping the senders after the accept
            // loop, then waking each shard, is its signal to drain and exit.
            let mut links = Vec::with_capacity(shard_count);
            for (index, shard) in shards.into_iter().enumerate() {
                let (tx, rx) = mpsc::channel::<TcpStream>();
                links.push((tx, Arc::clone(&shard.waker)));
                let state = &*self.state;
                let batcher = &batcher;
                std::thread::Builder::new()
                    .name(format!("ner-serve-poll-{index}"))
                    .spawn_scoped(scope, move || shard.run(rx, state, batcher))
                    .expect("spawn poll shard");
            }
            let accepted = self.accept_loop(&accept_poll, &links);
            if accepted.is_err() {
                // The acceptor cannot go on; drain what the shards hold.
                self.state.begin_shutdown();
            }
            for (tx, waker) in links {
                drop(tx);
                waker.wake();
            }
            accepted
        });
        self.state.forget_shutdown_waker(&shutdown);
        // Shards are done: every accepted request has been answered. Drain
        // whatever the batcher still holds (nothing, unless a caller used
        // it directly) and join its dispatchers.
        batcher.shutdown();
        ner_obs::info("drained; server stopped");
        accepted
    }

    /// Blocks in epoll until a connection arrives or shutdown begins, and
    /// deals each accepted socket to the next shard, waking it.
    fn accept_loop(
        &self,
        poll: &Epoll,
        shards: &[(mpsc::Sender<TcpStream>, Arc<Waker>)],
    ) -> std::io::Result<()> {
        let mut events = Events::with_capacity(2);
        let mut next_shard = 0usize;
        while !self.state.is_shutting_down() {
            poll.wait(&mut events, None)?;
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let (tx, waker) = &shards[next_shard % shards.len()];
                        // The send fails only if the shard stopped on an
                        // epoll error; the socket is then dropped (closed).
                        let _ = tx.send(stream);
                        waker.wake();
                        next_shard = next_shard.wrapping_add(1);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                        ) => {}
                    Err(e) => {
                        // E.g. out of descriptors. The queued connections
                        // wait for the next arrival's edge rather than
                        // spinning on the same error.
                        ner_obs::warn(format!("accept error: {e}"));
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

/// One poll shard's epoll instance and the waker other threads reach it
/// through. Created before the shard thread starts so the acceptor holds
/// the waker from the first accepted socket on.
struct Shard {
    epoll: Epoll,
    waker: Arc<Waker>,
}

impl Shard {
    fn new() -> std::io::Result<Shard> {
        let epoll = Epoll::new()?;
        let waker = Arc::new(Waker::new()?);
        epoll.add(waker.fd(), EPOLLIN, WAKER_TOKEN)?;
        Ok(Shard { epoll, waker })
    }

    /// Adopts connections from `incoming` and steps those with news until
    /// the acceptor hangs up and every connection has drained.
    fn run(self, incoming: mpsc::Receiver<TcpStream>, state: &ServeState, batcher: &Batcher) {
        let mut conns = Conns::default();
        let mut events = Events::with_capacity(EVENT_BATCH);
        let mut ready: Vec<u64> = Vec::new();
        let mut accepting = true;
        while accepting || conns.live > 0 {
            let timeout =
                conns.next_deadline().map(|at| at.saturating_duration_since(Instant::now()));
            if let Err(e) = self.epoll.wait(&mut events, timeout) {
                ner_obs::warn(format!("poll shard stopped: epoll_wait failed: {e}"));
                return;
            }
            ready.clear();
            for token in events.tokens() {
                if token != WAKER_TOKEN {
                    ready.push(token);
                    continue;
                }
                self.waker.take(&mut ready);
                loop {
                    match incoming.try_recv() {
                        Ok(stream) => match conns.adopt(stream, &self.epoll, &self.waker) {
                            Ok(token) => ready.push(token),
                            Err(e) => ner_obs::warn(format!("could not adopt connection: {e}")),
                        },
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            if accepting {
                                // Draining: every connection between
                                // requests must be stepped once to close.
                                accepting = false;
                                ready.extend(conns.tokens());
                            }
                            break;
                        }
                    }
                }
            }
            conns.take_expired(Instant::now(), &mut ready);
            ready.sort_unstable();
            ready.dedup();
            for &token in &ready {
                conns.step(token, &self.epoll, state, batcher);
            }
        }
    }
}

/// A shard's live connections, indexed by epoll token, plus a min-heap of
/// their deadlines.
#[derive(Default)]
struct Conns {
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    /// `(deadline, token)`. Only the entry equal to a connection's
    /// [`Conn::armed`] is live; others are stale and skipped when popped.
    timers: BinaryHeap<Reverse<(Instant, usize)>>,
}

impl Conns {
    fn adopt(
        &mut self,
        stream: TcpStream,
        epoll: &Epoll,
        waker: &Arc<Waker>,
    ) -> std::io::Result<u64> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let index = self.free.last().copied().unwrap_or(self.slab.len());
        let token = index as u64;
        epoll.add(stream.as_raw_fd(), interest(false), token)?;
        let conn = Some(Conn::new(stream, Wake { waker: Arc::clone(waker), token }));
        if self.free.pop().is_some() {
            self.slab[index] = conn;
        } else {
            self.slab.push(conn);
        }
        self.live += 1;
        Ok(token)
    }

    fn tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.slab.iter().enumerate().filter(|(_, c)| c.is_some()).map(|(i, _)| i as u64)
    }

    /// The earliest armed deadline — possibly a stale one, which only
    /// wakes the shard early.
    fn next_deadline(&self) -> Option<Instant> {
        self.timers.peek().map(|Reverse((at, _))| *at)
    }

    /// Moves the tokens whose armed deadline has passed into `ready`,
    /// disarming them (stepping re-arms).
    fn take_expired(&mut self, now: Instant, ready: &mut Vec<u64>) {
        while let Some(&Reverse((at, index))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            if let Some(Some(conn)) = self.slab.get_mut(index) {
                if conn.armed == Some(at) {
                    conn.armed = None;
                    ready.push(index as u64);
                }
            }
        }
    }

    /// Steps one connection, then closes it or updates its `EPOLLOUT`
    /// interest and deadline. Stale tokens (a closed connection's late
    /// event) are ignored; a reused slot just takes a harmless extra step.
    fn step(&mut self, token: u64, epoll: &Epoll, state: &ServeState, batcher: &Batcher) {
        let index = token as usize;
        let Some(Some(conn)) = self.slab.get_mut(index) else { return };
        if conn.step(state, batcher) {
            // Dropping the stream closes it, which also removes it from
            // the epoll set.
            self.slab[index] = None;
            self.free.push(index);
            self.live -= 1;
            return;
        }
        let writable = !conn.out.is_empty();
        if writable != conn.write_armed {
            match epoll.modify(conn.stream.as_raw_fd(), interest(writable), token) {
                Ok(()) => conn.write_armed = writable,
                Err(e) => ner_obs::warn(format!("could not update socket interest: {e}")),
            }
        }
        if let Some(at) = conn.deadline(state.config.read_timeout) {
            if conn.armed.is_none_or(|armed| at < armed) {
                conn.armed = Some(at);
                self.timers.push(Reverse((at, index)));
                // Superseded entries linger until popped; rebuild from the
                // live ones before they outnumber the connections.
                if self.timers.len() > 2 * self.live + 64 {
                    self.timers = self
                        .slab
                        .iter()
                        .enumerate()
                        .filter_map(|(i, c)| Some(Reverse((c.as_ref()?.armed?, i))))
                        .collect();
                }
            }
        }
    }
}

/// One response slot, kept in request order for pipelining. A `Waiting`
/// slot blocks everything behind it from being written — responses go out
/// in the order their requests arrived — but later slots still poll, so a
/// batch that scores out of order loses no time once the head resolves.
enum Slot {
    /// Serialized and ready to write.
    Ready { bytes: Vec<u8>, close: bool },
    /// An extraction the batcher has not answered yet.
    Waiting { pending: PendingExtract, close: bool },
}

/// One live connection owned by a poll shard.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Responses (ready or pending) in request order.
    slots: VecDeque<Slot>,
    /// Bytes waiting for the socket to accept them.
    out: Vec<u8>,
    /// When the currently-in-progress request's first byte arrived; the
    /// per-request read deadline (slowloris/dribble bound) counts from
    /// here. `None` whenever the parser is idle.
    request_started: Option<Instant>,
    idle_since: Instant,
    /// No further reads or parses: the peer hit EOF, erred, asked to
    /// close, or sent something unparseable.
    stop_reading: bool,
    /// A `Connection: close` response has been queued; once `out` drains
    /// the connection is done.
    closing: bool,
    /// This connection's return address for the batcher.
    wake: Wake,
    /// `EPOLLOUT` is in the interest set.
    write_armed: bool,
    /// The deadline this connection has live in the shard's timer heap.
    armed: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, wake: Wake) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            slots: VecDeque::new(),
            out: Vec::new(),
            request_started: None,
            idle_since: Instant::now(),
            stop_reading: false,
            closing: false,
            wake,
            write_armed: false,
            armed: None,
        }
    }

    /// Queues a response, stopping the read side when it will close the
    /// connection (no later pipelined request could be answered).
    fn enqueue(&mut self, slot: Slot) {
        if matches!(slot, Slot::Ready { close: true, .. } | Slot::Waiting { close: true, .. }) {
            self.stop_reading = true;
        }
        self.slots.push_back(slot);
    }

    /// The earliest instant at which [`step`](Conn::step) acts on its own
    /// clocks: the read deadline, the idle expiry, or an in-flight
    /// extraction's give-up time.
    fn deadline(&self, read_timeout: Duration) -> Option<Instant> {
        let read = self.request_started.map(|t0| t0 + read_timeout);
        let idle = (self.parser.is_idle() && self.out.is_empty() && self.slots.is_empty())
            .then(|| self.idle_since + IDLE_TIMEOUT);
        let scoring = self
            .slots
            .iter()
            .filter_map(|slot| match slot {
                Slot::Waiting { pending, .. } => Some(pending.expires_at()),
                Slot::Ready { .. } => None,
            })
            .min();
        read.into_iter().chain(idle).chain(scoring).min()
    }

    /// One nonblocking step: read, parse + dispatch, poll in-flight
    /// extractions, write, then judge timeouts and lifetime. Returns true
    /// once the connection is done. Reads and writes run until the socket
    /// would block, as edge-triggered readiness requires.
    fn step(&mut self, state: &ServeState, batcher: &Batcher) -> bool {
        // Read whatever the socket has.
        if !self.stop_reading {
            let mut chunk = [0u8; 4096];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.stop_reading = true;
                        // EOF mid-request can never complete; EOF between
                        // requests is the normal end of keep-alive.
                        if !self.parser.is_idle() {
                            self.enqueue(Slot::Ready {
                                bytes: Response::text(400, "truncated request").to_bytes(true),
                                close: true,
                            });
                        }
                        break;
                    }
                    Ok(n) => {
                        self.parser.feed(&chunk[..n]);
                        self.request_started.get_or_insert_with(Instant::now);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return true,
                }
            }
        }

        // Parse and dispatch every complete request that arrived.
        while !self.stop_reading {
            match self.parser.poll() {
                Ok(Some(req)) => {
                    // The trace clock starts the moment the request is
                    // fully read, so queue wait, batch formation, scoring,
                    // and the response tail share one monotonic origin.
                    let trace = ner_obs::trace::TraceCtx::new(req.route_path());
                    let routed = router::dispatch(&req, state, batcher, &trace, Some(&self.wake));
                    // Evaluated after dispatch, so the response to
                    // `POST /admin/shutdown` itself says close.
                    let close = req.wants_close() || state.is_shutting_down();
                    match routed {
                        Routed::Done(resp) => {
                            self.enqueue(Slot::Ready { bytes: resp.to_bytes(close), close });
                        }
                        Routed::Pending(pending) => {
                            self.enqueue(Slot::Waiting { pending, close });
                        }
                    }
                    self.request_started =
                        if self.parser.is_idle() { None } else { Some(Instant::now()) };
                }
                Ok(None) => break,
                Err(resp) => {
                    self.enqueue(Slot::Ready { bytes: resp.to_bytes(true), close: true });
                    break;
                }
            }
        }

        // The per-request read deadline: a head or body still dribbling in
        // past `read_timeout` is answered 408 and the connection closed —
        // this bounds slowloris without dropping merely-slow clients,
        // which the old fixed 250 ms read poll used to kill mid-body.
        if let Some(t0) = self.request_started {
            if t0.elapsed() > state.config.read_timeout {
                self.request_started = None;
                self.enqueue(Slot::Ready {
                    bytes: Response::text(408, "request read deadline expired").to_bytes(true),
                    close: true,
                });
            }
        }

        // Poll every in-flight extraction (not just the head, so the head
        // resolving releases already-finished followers the same step).
        for slot in self.slots.iter_mut() {
            let Slot::Waiting { pending, close } = slot else { continue };
            let close = *close;
            if let Some(resp) = pending.poll() {
                *slot = Slot::Ready { bytes: resp.to_bytes(close), close };
            }
        }

        // Move ready head-of-line responses into the write buffer.
        while let Some(Slot::Ready { .. }) = self.slots.front() {
            let Some(Slot::Ready { bytes, close }) = self.slots.pop_front() else {
                unreachable!("front checked")
            };
            self.out.extend_from_slice(&bytes);
            self.idle_since = Instant::now();
            if close {
                self.closing = true;
                // Anything pipelined behind a close is dropped; its reply
                // receivers drop with it and the dispatcher's sends fail
                // harmlessly.
                self.slots.clear();
                break;
            }
        }

        // Write as much as the socket accepts; the rest waits for
        // `EPOLLOUT`.
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return true,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    ner_obs::counter("serve.write_stalls", 1.0);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }

        let flushed = self.out.is_empty() && self.slots.is_empty();
        (self.closing && self.out.is_empty())
            // Peer finished sending and everything owed is written.
            || (self.stop_reading && flushed)
            // Server draining and this connection is between requests.
            || (state.is_shutting_down() && self.parser.is_idle() && flushed)
            // Idle keep-alive expiry.
            || (self.parser.is_idle() && flushed && self.idle_since.elapsed() >= IDLE_TIMEOUT)
    }
}

/// A minimal blocking HTTP client — just enough for the integration tests
/// and the `exp_serving` load generator to drive a real socket without an
/// external dependency.
pub mod client {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// A keep-alive connection to the server.
    pub struct Conn {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    /// A response as the client sees it.
    #[derive(Debug)]
    pub struct ClientResponse {
        /// HTTP status code.
        pub status: u16,
        /// Lowercased headers.
        pub headers: Vec<(String, String)>,
        /// Body bytes as a string (all served bodies are UTF-8).
        pub body: String,
    }

    impl ClientResponse {
        /// First value of a header, by case-insensitive name.
        pub fn header(&self, name: &str) -> Option<&str> {
            let name = name.to_ascii_lowercase();
            self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
        }
    }

    impl Conn {
        /// Connects with a generous I/O timeout.
        pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_nodelay(true)?;
            let writer = stream.try_clone()?;
            Ok(Conn { reader: BufReader::new(stream), writer })
        }

        /// Sends `GET path`.
        pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
            self.request("GET", path, None)
        }

        /// Sends `POST path` with a JSON body.
        pub fn post(&mut self, path: &str, json: &str) -> std::io::Result<ClientResponse> {
            self.request("POST", path, Some(json))
        }

        fn request(
            &mut self,
            method: &str,
            path: &str,
            body: Option<&str>,
        ) -> std::io::Result<ClientResponse> {
            let body = body.unwrap_or("");
            let head = format!(
                "{method} {path} HTTP/1.1\r\nhost: ner-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                body.len()
            );
            self.writer.write_all(head.as_bytes())?;
            self.writer.write_all(body.as_bytes())?;
            self.writer.flush()?;
            self.read_response()
        }

        fn read_response(&mut self) -> std::io::Result<ClientResponse> {
            let bad =
                |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
            let mut status_line = String::new();
            if self.reader.read_line(&mut status_line)? == 0 {
                return Err(bad("connection closed before status line"));
            }
            let status: u16 = status_line
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("malformed status line"))?;
            let mut headers = Vec::new();
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                if self.reader.read_line(&mut line)? == 0 {
                    return Err(bad("connection closed mid-headers"));
                }
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    let name = name.trim().to_ascii_lowercase();
                    let value = value.trim().to_string();
                    if name == "content-length" {
                        content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                    }
                    headers.push((name, value));
                }
            }
            let mut body = vec![0u8; content_length];
            self.reader.read_exact(&mut body)?;
            let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
            Ok(ClientResponse { status, headers, body })
        }
    }

    /// One-shot POST on a fresh connection.
    pub fn post(addr: SocketAddr, path: &str, json: &str) -> std::io::Result<ClientResponse> {
        Conn::connect(addr)?.post(path, json)
    }

    /// One-shot GET on a fresh connection.
    pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<ClientResponse> {
        Conn::connect(addr)?.get(path)
    }
}
