//! The serving workloads: a real `ner-serve` server in this process, driven
//! over loopback HTTP by at most two generator threads on two keep-alive
//! connections, with requests pipelined so that a slow reply never holds
//! back the next send.

use crate::inputs::{self, Arrival, Labeled};
use crate::model;
use crate::probe;
use crate::report::{Outcome, Row};
use crate::stats::{self, Clock, Hist, Took};
use crate::trace::Tracer;
use crate::Args;
use ner_core::prelude::*;
use ner_serve::http::{RequestParser, Response};
use ner_serve::{client, ServeConfig, ServeState, Server};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connections, and generator threads (one drives each connection).
const CONNS: usize = 2;
/// `serve-saturate`: requests kept in flight per connection.
const SATURATE_DEPTH: usize = 16;
/// A `serve-open` run whose generator ran later than this at p99 did not
/// offer the load it claims; its report says so.
pub const OPEN_LATE_LIMIT_MS: f64 = 20.0;
/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// One request and its reply, as the client saw them.
pub struct Exchange {
    pub input: usize,
    /// When the request should have gone out: its schedule slot on the open
    /// loop, the moment its in-flight slot freed on the closed loop.
    pub due: Instant,
    pub sent: Instant,
    pub recv: Instant,
    pub status: u16,
    pub body: Arc<str>,
}

pub fn request_bytes(text: &str) -> Vec<u8> {
    let body = format!("{{\"text\": {}}}", stats::json_str(text));
    let mut out = format!(
        "POST /v1/extract HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Takes one complete response off the front of `buf`, if it holds one.
fn take_response(buf: &mut Vec<u8>) -> io::Result<Option<(u16, String)>> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut len = 0usize;
    for l in lines {
        if let Some((k, v)) = l.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let end = head_len + 4 + len;
    if buf.len() < end {
        return Ok(None);
    }
    let body =
        String::from_utf8(buf[head_len + 4..end].to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    buf.drain(..end);
    Ok(Some((status, body)))
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// How long a connection waits for a reply before the run fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One keep-alive connection, written and read by a single thread: it
/// writes each request when it is due and reads replies while it waits,
/// so a slow reply never holds back the next send.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Sent and not yet answered, in request order: input, due, sent.
    inflight: VecDeque<(usize, Instant, Instant)>,
    done: Vec<Exchange>,
    /// Replies to the same input share one allocation when their bytes are
    /// equal, so the client's memory does not grow with throughput.
    seen: HashMap<usize, Arc<str>>,
    tracer: Option<Tracer>,
}

impl Conn {
    fn open(addr: SocketAddr, tracer: Option<Tracer>) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            inflight: VecDeque::new(),
            done: Vec::new(),
            seen: HashMap::new(),
            tracer,
        })
    }

    fn send(&mut self, input: usize, due: Instant, bytes: &[u8]) -> io::Result<()> {
        if let Some(t) = self.tracer.as_mut() {
            t.enter("gen.write");
        }
        self.stream.write_all(bytes)?;
        let sent = Instant::now();
        if let Some(t) = self.tracer.as_mut() {
            t.exit();
        }
        self.inflight.push_back((input, due, sent));
        Ok(())
    }

    /// Waits for replies until `deadline` (with none, until one arrives)
    /// and files every complete one; returns how many it filed.
    fn read_until(&mut self, deadline: Option<Instant>) -> io::Result<usize> {
        let wait = deadline.map_or(REPLY_TIMEOUT, |d| {
            d.saturating_duration_since(Instant::now()).max(Duration::from_micros(20))
        });
        self.stream.set_read_timeout(Some(wait))?;
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err(bad("connection closed with requests in flight")),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return match deadline {
                    Some(_) => Ok(0),
                    None => Err(bad("no reply within the reply timeout")),
                };
            }
            Err(e) => return Err(e),
        }
        let recv = Instant::now();
        let mut filed = 0;
        while let Some((status, body)) = take_response(&mut self.buf)? {
            let (input, due, sent) =
                self.inflight.pop_front().ok_or_else(|| bad("a reply nobody asked for"))?;
            let body = match self.seen.get(&input) {
                Some(b) if **b == *body => Arc::clone(b),
                _ => {
                    let b: Arc<str> = body.into();
                    self.seen.entry(input).or_insert_with(|| Arc::clone(&b));
                    b
                }
            };
            self.done.push(Exchange { input, due, sent, recv, status, body });
            filed += 1;
        }
        Ok(filed)
    }

    fn finish(self) -> (Vec<Exchange>, Option<Tracer>) {
        (self.done, self.tracer)
    }
}

type Side = io::Result<(Vec<Exchange>, Option<Tracer>)>;

/// Runs `drive` on one thread per connection and gathers the exchanges,
/// ordered by when they were due.
fn on_connections(
    addr: SocketAddr,
    tracer: Option<&mut Tracer>,
    drive: impl Fn(usize, &mut Conn) -> io::Result<()> + Sync,
) -> io::Result<Vec<Exchange>> {
    let results: Vec<Side> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let t = tracer.as_deref().map(Tracer::fork);
                let drive = &drive;
                s.spawn(move || -> Side {
                    let mut conn = Conn::open(addr, t)?;
                    drive(c, &mut conn)?;
                    Ok(conn.finish())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut all = Vec::new();
    let mut traces = Vec::new();
    for r in results {
        let (ex, t) = r?;
        all.extend(ex);
        traces.extend(t);
    }
    if let Some(main) = tracer {
        for t in traces {
            main.adopt(t);
        }
    }
    all.sort_by_key(|e| e.due);
    Ok(all)
}

/// Open loop: each arrival is written when it is due (`start` plus its
/// offset), whatever is still outstanding. Connection `c` takes arrivals
/// `c, c+CONNS, …`.
pub fn drive_open(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    schedule: &[Arrival],
    start: Instant,
    tracer: Option<&mut Tracer>,
) -> io::Result<Vec<Exchange>> {
    on_connections(addr, tracer, |c, conn| {
        let mine: Vec<Arrival> = schedule.iter().skip(c).step_by(CONNS).copied().collect();
        let mut next = 0;
        while next < mine.len() || !conn.inflight.is_empty() {
            let due = mine.get(next).map(|a| start + a.due);
            match due {
                Some(d) if d <= Instant::now() => {
                    conn.send(mine[next].input, d, &requests[mine[next].input])?;
                    next += 1;
                }
                Some(d) if conn.inflight.is_empty() => sleep_until(d),
                _ => {
                    conn.read_until(due)?;
                }
            }
        }
        Ok(())
    })
}

/// Closed loop: each connection keeps `depth` requests in flight, sending
/// the next as soon as a reply frees a slot, until `until` or until `max`
/// requests went out on it. Connection `c` sends inputs `c, c+CONNS, …`
/// cyclically.
pub fn drive_closed(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    depth: usize,
    until: Instant,
    max: usize,
    tracer: Option<&mut Tracer>,
) -> io::Result<Vec<Exchange>> {
    on_connections(addr, tracer, |c, conn| {
        let mut k = 0usize;
        let mut send = |conn: &mut Conn, freed: Instant| -> io::Result<()> {
            if k < max && Instant::now() < until {
                let input = (c + k * CONNS) % requests.len();
                conn.send(input, freed, &requests[input])?;
                k += 1;
            }
            Ok(())
        };
        let start = Instant::now();
        for _ in 0..depth {
            send(conn, start)?;
        }
        while !conn.inflight.is_empty() {
            let filed = conn.read_until(None)?;
            let done = conn.done.len();
            for j in done - filed..done {
                let freed = conn.done[j].recv;
                send(conn, freed)?;
            }
        }
        Ok(())
    })
}

/// A running server.
pub struct Booted {
    pub addr: SocketAddr,
    pub state: Arc<ServeState>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Booted {
    /// `POST /admin/shutdown`, then waits for the server to drain and exit.
    pub fn shutdown(self) -> Result<(), String> {
        let resp =
            client::post(self.addr, "/admin/shutdown", "").map_err(|e| format!("shutdown: {e}"))?;
        if resp.status != 200 {
            return Err(format!("shutdown answered {}", resp.status));
        }
        self.thread.join().expect("server thread").map_err(|e| format!("server: {e}"))
    }
}

/// Set-up as a user pays it: `Checkpoint::load` + `ServeState::new` + bind,
/// until the first `/v1/extract` answers 200. Returns the server, the
/// set-up time and the load time.
pub fn boot(
    ckpt: &Path,
    cfg: &ServeConfig,
    first_text: &str,
) -> Result<(Booted, Took, Took), String> {
    let clock = Clock::start();
    let (pipeline, load) = model::load(ckpt)?;
    let state = ServeState::new(pipeline, Some(ckpt.to_path_buf()), cfg.clone());
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&state)).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    let body = format!("{{\"text\": {}}}", stats::json_str(first_text));
    let resp =
        client::post(addr, "/v1/extract", &body).map_err(|e| format!("first request: {e}"))?;
    let setup = clock.took();
    let booted = Booted { addr, state, thread };
    if resp.status != 200 {
        let _ = booted.shutdown();
        return Err(format!("first request answered {}", resp.status));
    }
    Ok((booted, setup, load))
}

/// Boots [`SETUPS`] times, keeping the last server. Returns it with the
/// median set-up CPU seconds and median load wall seconds.
pub fn boot_median(
    ckpt: &Path,
    cfg: &ServeConfig,
    first_text: &str,
) -> Result<(Booted, f64, f64), String> {
    let (mut setups, mut loads) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..SETUPS {
        let (b, setup, load) = boot(ckpt, cfg, first_text)?;
        setups.push(setup.cpu);
        loads.push(load.wall);
        if i + 1 < SETUPS {
            b.shutdown()?;
        } else {
            last = Some(b);
        }
    }
    Ok((last.expect("at least one boot"), stats::median(&setups), stats::median(&loads)))
}

/// Server-side histograms and counters read around a measured window.
struct ServerView {
    hists: Vec<Hist>,
    hits: f64,
    misses: f64,
}

const HISTS: [&str; 7] = [
    "serve.request_us",
    "serve.queue_wait_us",
    "serve.batch_size",
    "infer.featurize_us",
    "infer.embed_us",
    "infer.encode_us",
    "infer.decode_us",
];

impl ServerView {
    fn read() -> ServerView {
        ServerView {
            hists: HISTS.iter().map(|n| Hist::read(n)).collect(),
            hits: ner_obs::counter_value("infer.cache.hits").unwrap_or(0.0),
            misses: ner_obs::counter_value("infer.cache.misses").unwrap_or(0.0),
        }
    }

    fn since(&self, earlier: &ServerView) -> ServerView {
        ServerView {
            hists: self.hists.iter().zip(&earlier.hists).map(|(a, b)| a.since(b)).collect(),
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }

    fn h(&self, name: &str) -> &Hist {
        &self.hists[HISTS.iter().position(|n| *n == name).expect("known histogram")]
    }
}

/// What a measured window showed the client, checked against the offline
/// reference.
pub struct Window {
    pub exchanges: Vec<Exchange>,
    /// Answered correctly: latency from due in ms, tokens.
    pub ok: Vec<(f64, u64)>,
    /// Pool inputs answered correctly at least once.
    pub answered: Vec<bool>,
    pub late_ms: Vec<f64>,
    pub shed: u64,
    /// From the window's start until its last reply.
    pub took: Took,
}

impl Window {
    fn latencies(&self) -> Vec<f64> {
        self.ok.iter().map(|o| o.0).collect()
    }

    fn tokens(&self) -> u64 {
        self.ok.iter().map(|o| o.1).sum()
    }

    fn tokens_per_cpu_s(&self) -> f64 {
        self.tokens() as f64 / self.took.cpu
    }
}

/// Tallies a window and checks every 200 body byte for byte against the
/// offline payload. Runs after the window, outside the timed region.
fn tally(
    exchanges: Vec<Exchange>,
    pool: &[Labeled],
    expected: &[(String, Vec<EntitySpan>)],
    took: Took,
    out: &mut Outcome,
) -> Window {
    let mut w = Window {
        exchanges: Vec::new(),
        ok: Vec::new(),
        late_ms: Vec::new(),
        shed: 0,
        took,
        answered: vec![false; pool.len()],
    };
    let mut divergent = 0;
    for e in &exchanges {
        out.attempted += 1;
        w.late_ms.push(e.sent.saturating_duration_since(e.due).as_secs_f64() * 1e3);
        match e.status {
            200 if *e.body == *expected[e.input].0 => {
                let lat = e.recv.saturating_duration_since(e.due).as_secs_f64() * 1e3;
                w.ok.push((lat, pool[e.input].tokens as u64));
                w.answered[e.input] = true;
            }
            200 => {
                out.failed += 1;
                divergent += 1;
                if divergent <= 3 {
                    out.problem(format!(
                        "served body differs from offline extract for {:?}: {}",
                        pool[e.input].text, e.body
                    ));
                }
            }
            429 => {
                out.failed += 1;
                w.shed += 1;
            }
            s => {
                out.failed += 1;
                out.problem(format!("status {s} for {:?}: {}", pool[e.input].text, e.body.trim()));
            }
        }
    }
    if divergent > 3 {
        out.problem(format!("{divergent} served bodies differ from offline extract in all"));
    }
    w.exchanges = exchanges;
    w
}

/// The end-to-end metrics of an untraced window, and the client's
/// wall-clock view of it. Every correct body equals the offline payload,
/// so F1 is taken once per distinct input answered, which does not depend
/// on how often the run happened to send each.
fn window_e2e(
    w: &Window,
    pool: &[Labeled],
    expected: &[(String, Vec<EntitySpan>)],
    out: &mut Outcome,
) {
    let lat = w.latencies();
    out.set_e2e("tokens_per_cpu_s", w.tokens_per_cpu_s());
    out.set_e2e("ok_frac", w.ok.len() as f64 / w.exchanges.len().max(1) as f64);
    let inputs = (0..pool.len()).filter(|&i| w.answered[i]);
    let golds: Vec<Vec<EntitySpan>> = inputs.clone().map(|i| pool[i].gold.clone()).collect();
    let preds: Vec<Vec<EntitySpan>> = inputs.map(|i| expected[i].1.clone()).collect();
    out.set_e2e("dev_f1", evaluate(&golds, &preds).micro.f1);
    out.set_layer("client.latency_p50_ms", stats::median(&lat));
    out.set_layer("client.latency_p99_ms", stats::quantile(&lat, 0.99));
    out.set_layer("client.tokens_per_s", w.tokens() as f64 / w.took.wall);
    out.set_layer("client.requests_per_s", w.ok.len() as f64 / w.took.wall);
    out.notes.push(format!(
        "{} answered requests, {} tokens in {:.2} s wall, {:.2} s CPU",
        lat.len(),
        w.tokens(),
        w.took.wall,
        w.took.cpu
    ));
    if lat.len() < 1000 {
        out.notes.push(format!("only {} latency samples: fewer than 10 beyond p99", lat.len()));
    }
}

/// Runs one measured window of `secs`, `offset` seconds into the open
/// schedule, until its last reply; returns the exchanges and what the
/// window took.
#[allow(clippy::too_many_arguments)]
fn measure(
    open: bool,
    secs: f64,
    offset: f64,
    addr: SocketAddr,
    requests: &[Vec<u8>],
    schedule: &[Arrival],
    tracer: Option<&mut Tracer>,
) -> Result<(Vec<Exchange>, Took), String> {
    let clock = Clock::start();
    // The open loop starts a little ahead so its first arrival is not late
    // by the time the connections take to open.
    let start = Instant::now() + Duration::from_millis(if open { 20 } else { 0 });
    let r = if open {
        let part: Vec<Arrival> = schedule
            .iter()
            .filter(|a| (offset..offset + secs).contains(&a.due.as_secs_f64()))
            .map(|a| Arrival { due: a.due - Duration::from_secs_f64(offset), input: a.input })
            .collect();
        drive_open(addr, requests, &part, start, tracer)
    } else {
        let until = start + Duration::from_secs_f64(secs);
        drive_closed(addr, requests, SATURATE_DEPTH, until, usize::MAX, tracer)
    };
    let took = clock.took();
    r.map(|ex| (ex, took)).map_err(|e| format!("load generator: {e}"))
}

/// `serve-open` and `serve-saturate`.
pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let open = args.workload == "serve-open";
    let pool = if open { inputs::open_pool(args.seed) } else { inputs::saturate_pool(args.seed) };
    let schedule =
        if open { inputs::open_schedule(args.seed, args.seconds, pool.len()) } else { Vec::new() };
    let requests: Vec<Vec<u8>> = pool.iter().map(|l| request_bytes(&l.text)).collect();

    let ckpt = model::prepare_checkpoint(args.seed, scratch)?;
    let (reference, _) = model::load(&ckpt)?;
    let expected: Vec<(String, Vec<EntitySpan>)> =
        pool.iter().map(|l| model::extract_body(&reference, &l.text)).collect();
    drop(reference);

    let cfg = ServeConfig::default();
    let mut out = Outcome { serve_config: Some(format!("{cfg:?}")), ..Outcome::default() };
    let (server, setup_s, load_s) = boot_median(&ckpt, &cfg, &pool[0].text)?;
    out.set_e2e("setup_s", setup_s);
    out.set_layer("persist.load_s", load_s);

    // Warm the token cache and the admission cost model: every pool input
    // once, closed loop, unmeasured.
    let warm = drive_closed(
        server.addr,
        &requests,
        4,
        Instant::now() + Duration::from_secs(30),
        pool.len().div_ceil(CONNS),
        None,
    )
    .map_err(|e| format!("warm-up: {e}"))?;
    if let Some(bad) = warm.iter().find(|e| e.status != 200) {
        return Err(format!("warm-up request answered {}", bad.status));
    }

    // Traced runs measure an untraced first half, which gives the
    // end-to-end metrics, and a traced second half; the difference is the
    // tracing overhead.
    let secs = if args.trace { args.seconds as f64 / 2.0 } else { args.seconds as f64 };
    let (ex, took) = measure(open, secs, 0.0, server.addr, &requests, &schedule, None)?;
    let w = tally(ex, &pool, &expected, took, &mut out);
    window_e2e(&w, &pool, &expected, &mut out);
    out.set_e2e("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    let late_p99 = stats::quantile(&w.late_ms, 0.99);
    if open && late_p99 > OPEN_LATE_LIMIT_MS {
        out.notes.push(format!(
            "VOID: the generator ran {late_p99:.2} ms late at p99 (limit {OPEN_LATE_LIMIT_MS} ms), so the offered load was not the schedule"
        ));
    }

    if args.trace {
        let mut tracer = Tracer::new();
        let before = ServerView::read();
        let (ex, took) =
            measure(open, secs, secs, server.addr, &requests, &schedule, Some(&mut tracer))?;
        let view = ServerView::read().since(&before);
        let t = tally(ex, &pool, &expected, took, &mut out);
        out.set_overhead(w.tokens_per_cpu_s(), t.tokens_per_cpu_s());
        let http = serve_layers(&mut out, &t, &view, &requests);
        let rows_per_bucket = inference_layers(&mut out, &t, &view, &pool, http);
        let replica = server.state.pipeline();
        probe::model_layers(&mut out, &replica, &pool, rows_per_bucket, args.seed)?;
        if let Err(e) = tracer.write(&crate::trace_path(args), 200_000) {
            out.notes.push(format!("trace spans not written: {e}"));
        }
    }
    server.shutdown()?;
    Ok(out)
}

/// HTTP and batcher metrics of a serving window: replays of the HTTP
/// calls on the window's own bytes, the server's `serve.*` histogram
/// deltas, and the client's view. Returns the mean parse and respond
/// microseconds.
fn serve_layers(
    out: &mut Outcome,
    w: &Window,
    view: &ServerView,
    requests: &[Vec<u8>],
) -> (f64, f64) {
    let ok: Vec<&Exchange> = w.exchanges.iter().filter(|e| e.status == 200).take(4000).collect();
    let m = ok.len().max(1) as f64;
    let mut parse = 0.0;
    for e in &ok {
        let t = Instant::now();
        let mut p = RequestParser::new();
        p.feed(&requests[e.input]);
        let req = p.poll();
        parse += t.elapsed().as_secs_f64();
        assert!(matches!(req, Ok(Some(_))), "replayed request parses");
    }
    let mut respond = 0.0;
    for e in &ok {
        let resp =
            Response::json(200, e.body.to_string()).with_header("x-trace-id", "00000000deadbeef");
        let t = Instant::now();
        let bytes = resp.to_bytes(false);
        respond += t.elapsed().as_secs_f64();
        std::hint::black_box(bytes);
    }
    let (parse_us, respond_us) = (parse * 1e6 / m, respond * 1e6 / m);
    out.set_layer("serve.http.parse_us", parse_us);
    out.set_layer("serve.http.respond_us", respond_us);
    let client: Vec<f64> =
        ok.iter().map(|e| e.recv.duration_since(e.sent).as_secs_f64() * 1e6).collect();
    let request = view.h("serve.request_us");
    out.set_layer("serve.outside_us", stats::quantile(&client, 0.5) - request.quantile(0.5));
    let queue = view.h("serve.queue_wait_us");
    out.set_layer("serve.batcher.queue_wait_p50_us", queue.quantile(0.5));
    out.set_layer("serve.batcher.queue_wait_p99_us", queue.quantile(0.99));
    out.set_layer("serve.batcher.rows_per_batch", view.h("serve.batch_size").mean());
    out.set_layer("serve.batcher.shed_frac", w.shed as f64 / w.exchanges.len().max(1) as f64);
    out.set_layer("gen.late_p99_ms", stats::quantile(&w.late_ms, 0.99));
    (parse_us, respond_us)
}

/// Inference metrics of a serving window from the server's `infer.*`
/// histograms (busy time per token) plus a replay of `tokenize`, and the
/// layer table in microseconds per request as the client waits for it.
/// Returns rows per bucket.
fn inference_layers(
    out: &mut Outcome,
    w: &Window,
    view: &ServerView,
    pool: &[Labeled],
    http: (f64, f64),
) -> f64 {
    let ok: Vec<&Exchange> = w.exchanges.iter().filter(|e| e.status == 200).collect();
    let n = ok.len().max(1) as f64;
    let (mut tokenize, mut sample_tokens, mut sampled) = (0.0, 0usize, 0usize);
    for e in ok.iter().take(4000) {
        let t = Instant::now();
        let toks = ner_text::tokenize::tokenize(&pool[e.input].text);
        tokenize += t.elapsed().as_secs_f64();
        sample_tokens += toks.len();
        sampled += 1;
    }
    let tokenize_us = tokenize * 1e6 / sampled.max(1) as f64;
    out.set_layer("text.tokenize_us_per_token", tokenize * 1e6 / sample_tokens.max(1) as f64);
    let tokens = w.tokens().max(1) as f64;
    let busy = |name: &str| view.h(name).sum;
    out.set_layer("repr.featurize_us_per_token", busy("infer.featurize_us") / tokens);
    out.set_layer("repr.embed_us_per_token", busy("infer.embed_us") / tokens);
    out.set_layer("encoder.encode_us_per_token", busy("infer.encode_us") / tokens);
    out.set_layer("decoder.decode_us_per_token", busy("infer.decode_us") / tokens);
    out.set_layer("repr.token_cache_hit_ratio", view.hits / (view.hits + view.misses).max(1.0));
    let rows_per_bucket =
        view.h("serve.batch_size").sum / view.h("infer.embed_us").count.max(1) as f64;
    out.set_layer("plan.rows_per_bucket", rows_per_bucket);

    // Scoring (dequeue to reply) is the server's `serve.request_us` minus
    // queue wait, split over the stages in proportion to their busy time;
    // what the client saw beyond the server's own span is the poll loop,
    // sockets and in-order replies.
    let client_mean =
        ok.iter().map(|e| e.recv.duration_since(e.sent).as_secs_f64() * 1e6).sum::<f64>() / n;
    let queue = view.h("serve.queue_wait_us").mean();
    let scoring = view.h("serve.request_us").mean() - queue;
    let stages = [
        ("text.tokenize", tokenize_us * n, "replay of tokenize::tokenize"),
        ("repr.featurize", busy("infer.featurize_us"), "infer.featurize_us delta"),
        ("repr.embed", busy("infer.embed_us"), "infer.embed_us delta"),
        ("encoder.encode", busy("infer.encode_us"), "infer.encode_us delta"),
        ("decoder.decode", busy("infer.decode_us"), "infer.decode_us delta"),
    ];
    let busy_total: f64 = stages.iter().map(|s| s.1).sum();
    let mut rows = vec![
        ("serve.http.parse", http.0, "replay of RequestParser feed+poll"),
        ("serve.batcher.queue_wait", queue, "serve.queue_wait_us delta"),
    ];
    rows.extend(stages.iter().map(|&(l, b, src)| (l, scoring * b / busy_total, src)));
    rows.push(("serve.http.respond", http.1, "replay of Response::to_bytes"));
    let named: f64 = rows.iter().map(|r| r.1).sum();
    let rest = client_mean - named;
    rows.push((
        "outside (poll loop, sockets, in-order replies)",
        rest,
        "client mean minus the rows above",
    ));
    out.table = rows
        .into_iter()
        .map(|(layer, us, source)| Row { layer, value: us, share: us / client_mean, source })
        .collect();
    out.table_basis = format!(
        "us per request as the client waits; client mean {client_mean:.1} us from send to reply, {} requests; scoring split by stage busy time",
        ok.len()
    );
    out.set_layer("trace.residual_frac", rest / client_mean);
    rows_per_bucket
}

/// The HTTP and batcher layers for a workload whose own loop does not
/// serve: boots the server on `ckpt`, answers `texts` closed loop (4 in
/// flight per connection) for `secs`, and checks every body.
pub fn serving_probe(
    out: &mut Outcome,
    ckpt: &Path,
    texts: &[Labeled],
    secs: f64,
) -> Result<(), String> {
    let pool: Vec<Labeled> = texts.iter().take(256).cloned().collect();
    let requests: Vec<Vec<u8>> = pool.iter().map(|l| request_bytes(&l.text)).collect();
    let (reference, _) = model::load(ckpt)?;
    let expected: Vec<(String, Vec<EntitySpan>)> =
        pool.iter().map(|l| model::extract_body(&reference, &l.text)).collect();
    drop(reference);
    let (server, _, _) = boot(ckpt, &ServeConfig::default(), &pool[0].text)?;
    let before = ServerView::read();
    let clock = Clock::start();
    let ex = drive_closed(
        server.addr,
        &requests,
        4,
        Instant::now() + Duration::from_secs_f64(secs),
        usize::MAX,
        None,
    )
    .map_err(|e| format!("serving probe: {e}"))?;
    let took = clock.took();
    let view = ServerView::read().since(&before);
    let mut probe_out = Outcome::default();
    let w = tally(ex, &pool, &expected, took, &mut probe_out);
    out.problems.extend(probe_out.problems);
    serve_layers(out, &w, &view, &requests);
    server.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_taken_whole_and_in_order_from_partial_reads() {
        let one = Response::json(200, "{\"a\": 1}".to_string()).to_bytes(false);
        let two = Response::json(429, "{}".to_string()).to_bytes(false);
        let mut wire = one.clone();
        wire.extend_from_slice(&two);
        let mut buf = Vec::new();
        let mut got = Vec::new();
        // One byte at a time: a reply is taken only once it is complete.
        for &b in &wire {
            buf.push(b);
            while let Some(r) = take_response(&mut buf).expect("well-formed replies") {
                got.push((r, buf.len()));
            }
        }
        assert_eq!(got, vec![((200, "{\"a\": 1}".to_string()), 0), ((429, "{}".to_string()), 0)]);
        assert!(take_response(&mut b"HTTP/1.1 x\r\n\r\n".to_vec()).is_err());
    }
}
