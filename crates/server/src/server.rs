//! The debug server: accept loop, routing, and the endpoint handlers.
//!
//! Each connection is one job on the worker pool: parse request → route →
//! render the view document through `graft::views::json` (the same code
//! path as `graft-cli --format json`, so responses are byte-identical to
//! CLI output) → write, looping while keep-alive holds. Every endpoint
//! records a request counter and a latency histogram in the shared
//! [`Obs`] registry; `/metrics` re-exports the whole registry as
//! Prometheus text, server and engine metrics side by side.

use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft_dfs::FileSystem;
use graft_obs::{to_prometheus, LiveSnapshot, Obs, Scope};

use crate::http::{self, HttpError, Request, Response};
use crate::index::{IndexError, TraceIndex};
use crate::live;
use crate::pool::ThreadPool;

/// How often a long-polling live route re-checks for a newer snapshot.
const LONG_POLL_INTERVAL: Duration = Duration::from_millis(15);

/// Tuning knobs for [`serve`].
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: SocketAddr,
    /// Worker threads (one connection each at a time).
    pub workers: usize,
    /// Parsed sessions the trace index keeps (LRU beyond that).
    pub index_capacity: usize,
    /// Requests served per connection before the server closes it.
    pub keep_alive_requests: usize,
    /// Per-read socket timeout; a stalled client frees its worker after
    /// this long.
    pub read_timeout: Duration,
    /// Cap on the request head.
    pub max_head_bytes: usize,
    /// Cap on a request body.
    pub max_body_bytes: usize,
    /// Follow mode: serve the `/jobs/{id}/live*` monitoring endpoints and
    /// render the standard views of in-flight jobs from their
    /// watermark-covered superstep prefix. Completed jobs are served
    /// through the exact non-follow path, so their responses stay
    /// byte-identical.
    pub follow: bool,
    /// How long a `?after_seq=` long-poll waits for the next snapshot
    /// before answering with the current one (the client just re-polls).
    pub long_poll_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            workers: 8,
            index_capacity: 64,
            keep_alive_requests: 1000,
            read_timeout: Duration::from_secs(10),
            max_head_bytes: http::MAX_HEAD_BYTES,
            max_body_bytes: http::MAX_BODY_BYTES,
            follow: false,
            long_poll_timeout: Duration::from_secs(5),
        }
    }
}

/// A running server; dropping it (or calling [`ServerHandle::shutdown`])
/// stops the accept loop and joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    connections: Arc<Connections>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains queued connections, joins all threads.
    /// Requests already sent are still answered; a connection waiting for
    /// its next request reads end-of-stream at once, not after
    /// `read_timeout`.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in accept(); a throwaway self-connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        self.connections.close_reads();
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the server over the jobs below `root` on `fs`. Returns once the
/// listener is bound; requests are served on background threads.
pub fn serve(
    fs: Arc<dyn FileSystem>,
    root: &str,
    obs: Arc<Obs>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let connections = Arc::new(Connections::default());
    let index = Arc::new(TraceIndex::new(fs, root, config.index_capacity, Arc::clone(&obs)));
    let shared = Arc::new(Shared {
        index,
        obs,
        keep_alive_requests: config.keep_alive_requests.max(1),
        read_timeout: config.read_timeout,
        max_head_bytes: config.max_head_bytes,
        max_body_bytes: config.max_body_bytes,
        follow: config.follow,
        long_poll_timeout: config.long_poll_timeout,
        connections: Arc::clone(&connections),
    });

    let accept_stop = Arc::clone(&stop);
    let workers = config.workers;
    let accept_thread =
        std::thread::Builder::new().name("graft-server-accept".to_string()).spawn(move || {
            let mut pool = ThreadPool::new(workers);
            for connection in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = connection else { continue };
                let shared = Arc::clone(&shared);
                pool.execute(move || shared.handle_connection(stream));
            }
            pool.shutdown();
        })?;

    Ok(ServerHandle { addr, stop, connections, accept_thread: Some(accept_thread) })
}

struct Shared {
    index: Arc<TraceIndex>,
    obs: Arc<Obs>,
    keep_alive_requests: usize,
    read_timeout: Duration,
    max_head_bytes: usize,
    max_body_bytes: usize,
    follow: bool,
    long_poll_timeout: Duration,
    connections: Arc<Connections>,
}

/// The connections being served, each by a clone of its socket, so that
/// shutdown can end the reads of idle kept-alive connections: a worker
/// blocked in `read` would otherwise hold the pool's join for
/// `read_timeout`.
#[derive(Default)]
struct Connections {
    state: Mutex<ConnectionsState>,
}

#[derive(Default)]
struct ConnectionsState {
    closing: bool,
    next: u64,
    open: HashMap<u64, TcpStream>,
}

impl Connections {
    fn state(&self) -> std::sync::MutexGuard<'_, ConnectionsState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `stream` until the returned guard drops. After shutdown
    /// began, the read side is closed at once instead.
    fn open(&self, stream: &TcpStream) -> OpenConnection<'_> {
        let mut state = self.state();
        if state.closing {
            let _ = stream.shutdown(Shutdown::Read);
            return OpenConnection { connections: self, id: None };
        }
        let Ok(clone) = stream.try_clone() else {
            return OpenConnection { connections: self, id: None };
        };
        let id = state.next;
        state.next += 1;
        state.open.insert(id, clone);
        OpenConnection { connections: self, id: Some(id) }
    }

    /// Closes the read side of every open connection and of any opened
    /// later: a worker waiting for a request reads end-of-stream, while
    /// bytes already received are still read and answered.
    fn close_reads(&self) {
        let mut state = self.state();
        state.closing = true;
        for stream in state.open.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// Removes its connection from [`Connections`] when it drops, also when
/// the handler panics, so no socket clone outlives its connection.
struct OpenConnection<'a> {
    connections: &'a Connections,
    id: Option<u64>,
}

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.connections.state().open.remove(&id);
        }
    }
}

/// `(label, server_requests_<label>, server_latency_<label>_nanos)` for
/// every endpoint label [`Shared::dispatch`] returns, spelled out once so
/// that recording a request formats no name.
macro_rules! endpoint_metrics {
    ($($label:literal),* $(,)?) => {
        &[$(($label, concat!("server_requests_", $label), concat!("server_latency_", $label, "_nanos"))),*]
    };
}

const ENDPOINT_METRICS: &[(&str, &str, &str)] = endpoint_metrics![
    "reject",
    "root",
    "metrics",
    "jobs",
    "job",
    "live",
    "live_metrics",
    "live_timeline",
    "supersteps",
    "violations",
    "node_link",
    "tabular",
    "repro",
];

/// `server_responses_<class>xx` of each status class, by `status / 100`:
/// every response the server writes has a status below 600.
const STATUS_CLASSES: [&str; 6] = [
    "server_responses_0xx",
    "server_responses_1xx",
    "server_responses_2xx",
    "server_responses_3xx",
    "server_responses_4xx",
    "server_responses_5xx",
];

impl Shared {
    fn handle_connection(&self, stream: TcpStream) {
        let _open = self.connections.open(&stream);
        let _ = stream.set_read_timeout(Some(self.read_timeout));
        let _ = stream.set_nodelay(true);
        // One buffer for the connection's life: a pipelined request read
        // along with the one before it waits here, not in the socket.
        let mut reader = BufReader::new(stream);
        for served in 0..self.keep_alive_requests {
            let request =
                match http::read_request(&mut reader, self.max_head_bytes, self.max_body_bytes) {
                    Ok(Some(request)) => request,
                    Ok(None) => return, // client closed a kept-alive connection
                    Err(HttpError::TooLarge(why)) => {
                        self.record("reject", 413, 0);
                        let mut stream = reader.into_inner();
                        let _ =
                            http::write_response(&mut stream, &Response::error(413, &why), false);
                        lingering_close(stream);
                        return;
                    }
                    Err(HttpError::Malformed(why)) => {
                        self.record("reject", 400, 0);
                        let mut stream = reader.into_inner();
                        let _ =
                            http::write_response(&mut stream, &Response::error(400, &why), false);
                        lingering_close(stream);
                        return;
                    }
                    Err(HttpError::Io(_)) => return, // timeout / reset: drop quietly
                };

            let timer = self.obs.timer();
            let (endpoint, response) = self.dispatch(&request);
            self.record(endpoint, response.status, timer.stop());
            // Error responses close the connection: the client may be in a
            // state we no longer understand.
            let keep_alive = request.keep_alive()
                && served + 1 < self.keep_alive_requests
                && response.status < 400;
            if http::write_response(reader.get_mut(), &response, keep_alive).is_err() || !keep_alive
            {
                return;
            }
        }
    }

    /// Per-endpoint counters and latency histograms, plus a status-class
    /// counter — all in the same registry `/metrics` exports.
    fn record(&self, endpoint: &str, status: u16, nanos: u64) {
        let registry = self.obs.registry();
        let (_, requests, latency) = ENDPOINT_METRICS
            .iter()
            .find(|(label, ..)| *label == endpoint)
            .expect("every endpoint label has its metric names");
        registry.inc(requests, Scope::GLOBAL, 1);
        registry.inc(STATUS_CLASSES[usize::from(status / 100)], Scope::GLOBAL, 1);
        registry.observe_time(latency, Scope::GLOBAL, nanos);
    }

    fn dispatch(&self, request: &Request) -> (&'static str, Response) {
        if request.method != "GET" {
            return ("reject", Response::error(405, "only GET is supported"));
        }
        let segments = request.segments();
        match segments.as_slice() {
            [] => ("root", endpoint_listing(self.follow)),
            ["metrics"] => ("metrics", self.metrics()),
            ["jobs"] => ("jobs", self.jobs()),
            ["jobs", id] => self.with_job("job", id, |job, s| {
                Response::json(200, vj::to_line(&vj::job_json(job, s)))
            }),
            ["jobs", id, "live"] => self.live_route("live", id, &request.query, |job, snap| {
                Response::json(200, live::live_doc(job, snap))
            }),
            ["jobs", id, "live", "metrics"] => {
                self.live_route("live_metrics", id, &request.query, |_, snap| {
                    Response::text(200, live::live_metrics(snap))
                })
            }
            ["jobs", id, "live", "timeline"] => self.live_timeline(id, &request.query),
            ["jobs", id, "supersteps"] => self.with_job("supersteps", id, |_, s| {
                Response::json(200, vj::to_line(&vj::supersteps_json(s)))
            }),
            ["jobs", id, "violations"] => self.with_job("violations", id, |_, s| {
                Response::json(200, vj::to_line(&vj::violations_json(s, None)))
            }),
            ["jobs", id, "ss", ss, view] => {
                let Ok(superstep) = ss.parse::<u64>() else {
                    return ("reject", Response::error(400, "superstep must be an integer"));
                };
                match *view {
                    "node-link" => self.with_superstep("node_link", id, superstep, |s| {
                        Response::json(200, vj::to_line(&vj::node_link_json(s, superstep)))
                    }),
                    "tabular" => {
                        let query = request.query.get("q").map(String::as_str);
                        let page = parse_param(&request.query, "page", 1);
                        let per_page = parse_param(&request.query, "per_page", 50);
                        self.with_superstep("tabular", id, superstep, |s| {
                            Response::json(
                                200,
                                vj::to_line(&vj::tabular_json(s, superstep, query, page, per_page)),
                            )
                        })
                    }
                    "violations" => self.with_superstep("violations", id, superstep, |s| {
                        Response::json(200, vj::to_line(&vj::violations_json(s, Some(superstep))))
                    }),
                    _ => ("reject", Response::error(404, "unknown view")),
                }
            }
            ["jobs", id, "repro", vertex, ss] => {
                let Ok(superstep) = ss.parse::<u64>() else {
                    return ("reject", Response::error(400, "superstep must be an integer"));
                };
                self.with_job("repro", id, |_, s| match vj::repro_source(s, vertex, superstep) {
                    Some(source) => Response::text(200, source),
                    None => Response::error(
                        404,
                        &format!("no capture for vertex {vertex} in superstep {superstep}"),
                    ),
                })
            }
            _ => ("reject", Response::error(404, "unknown route")),
        }
    }

    fn jobs(&self) -> Response {
        match self.index.jobs() {
            Ok(ids) => {
                let mut jobs = Vec::new();
                for id in ids {
                    // The listing takes the cheap path: cached sessions
                    // answer for free, cold jobs are summarized off-cache,
                    // so a large trace root cannot churn the session LRU.
                    match self.index.job_listing(&id) {
                        Ok(job) => jobs.push(job),
                        Err(_) => continue, // undecodable/vanished job: skip
                    }
                }
                Response::json(200, vj::to_line(&jobs))
            }
            Err(e) => Response::error(500, &e.to_string()),
        }
    }

    fn metrics(&self) -> Response {
        Response::text(200, to_prometheus(&self.obs.metrics()))
    }

    fn with_job(
        &self,
        endpoint: &'static str,
        id: &str,
        render: impl FnOnce(&str, &UntypedSession) -> Response,
    ) -> (&'static str, Response) {
        // Follow mode routes through the live-aware path: in-flight jobs
        // get a partial session over their committed supersteps, finished
        // jobs fall through to the same cached full parse as below.
        let session =
            if self.follow { self.index.follow_session(id) } else { self.index.session(id) };
        match session {
            Ok(session) => (endpoint, render(id, &session)),
            Err(e) => ("reject", index_error(&e)),
        }
    }

    /// Shared scaffolding of the snapshot-rendering live routes: gate on
    /// follow mode, resolve the snapshot (long-polling when `after_seq`
    /// is given), then render.
    fn live_route(
        &self,
        endpoint: &'static str,
        id: &str,
        query: &BTreeMap<String, String>,
        render: impl FnOnce(&str, &LiveSnapshot) -> Response,
    ) -> (&'static str, Response) {
        if !self.follow {
            return ("reject", follow_required());
        }
        match self.wait_for_snapshot(id, query) {
            Ok(Some(snapshot)) => (endpoint, render(id, &snapshot)),
            Ok(None) => (
                "reject",
                Response::error(
                    404,
                    &format!("job {id:?} has no live snapshots (run with live flushing enabled)"),
                ),
            ),
            Err(e) => ("reject", index_error(&e)),
        }
    }

    fn live_timeline(
        &self,
        id: &str,
        query: &BTreeMap<String, String>,
    ) -> (&'static str, Response) {
        if !self.follow {
            return ("reject", follow_required());
        }
        // `after_seq=` long-polls the timeline too: wait for the next
        // flush (which appends the events) before folding the log.
        if query.contains_key("after_seq") {
            if let Err(e) = self.wait_for_snapshot(id, query) {
                return ("reject", index_error(&e));
            }
        }
        match self.index.live_events(id) {
            Ok(events) => match live::timeline_json(&events) {
                Ok(json) => ("live_timeline", Response::json(200, json)),
                Err(why) => ("reject", Response::error(404, &why)),
            },
            Err(e) => ("reject", index_error(&e)),
        }
    }

    /// Resolves the snapshot a live route renders: the newest committed
    /// one, or — with `?after_seq=N` — the first with a higher sequence
    /// number, sleeping in short intervals until the flush happens or
    /// the long-poll timeout elapses (then the current snapshot answers
    /// and the client re-polls).
    fn wait_for_snapshot(
        &self,
        id: &str,
        query: &BTreeMap<String, String>,
    ) -> Result<Option<LiveSnapshot>, IndexError> {
        let after_seq = query.get("after_seq").and_then(|v| v.parse::<u64>().ok());
        let deadline = Instant::now() + self.long_poll_timeout;
        loop {
            let snapshot = self.index.live_snapshot(id)?;
            let Some(after) = after_seq else { return Ok(snapshot) };
            if snapshot.as_ref().is_some_and(|s| s.seq > after) || Instant::now() >= deadline {
                return Ok(snapshot);
            }
            std::thread::sleep(LONG_POLL_INTERVAL);
        }
    }

    fn with_superstep(
        &self,
        endpoint: &'static str,
        id: &str,
        superstep: u64,
        render: impl FnOnce(&UntypedSession) -> Response,
    ) -> (&'static str, Response) {
        self.with_job(endpoint, id, |_, session| {
            if session.count_at(superstep) == 0 {
                Response::error(404, &format!("superstep {superstep} captured nothing"))
            } else {
                render(session)
            }
        })
    }
}

fn index_error(e: &IndexError) -> Response {
    match e {
        IndexError::BadJobId(_) => Response::error(400, &e.to_string()),
        IndexError::NoSuchJob(_) => Response::error(404, &e.to_string()),
        IndexError::Session(_) => Response::error(500, &e.to_string()),
    }
}

fn follow_required() -> Response {
    Response::error(404, "live endpoints need a follow-mode server (serve --follow)")
}

fn parse_param(
    query: &std::collections::BTreeMap<String, String>,
    key: &str,
    default: usize,
) -> usize {
    query.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Drains whatever the client already sent before dropping the socket, so
/// an error response reaches the client as a clean close — closing with
/// unread bytes in the receive buffer sends an RST that can discard the
/// response (the classic lingering-close problem).
fn lingering_close(mut stream: TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut scratch = [0u8; 4096];
    for _ in 0..64 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// `GET /` — a self-describing endpoint list. Follow mode appends the
/// live-monitoring routes; without it the bytes match the pre-follow
/// listing exactly.
fn endpoint_listing(follow: bool) -> Response {
    let mut endpoints = vec![
        "/jobs",
        "/jobs/{id}",
        "/jobs/{id}/supersteps",
        "/jobs/{id}/violations",
        "/jobs/{id}/ss/{n}/node-link",
        "/jobs/{id}/ss/{n}/tabular?q=&page=&per_page=",
        "/jobs/{id}/ss/{n}/violations",
        "/jobs/{id}/repro/{vertex}/{ss}",
    ];
    if follow {
        endpoints.extend([
            "/jobs/{id}/live?after_seq=",
            "/jobs/{id}/live/metrics",
            "/jobs/{id}/live/timeline",
        ]);
    }
    endpoints.push("/metrics");
    let list = endpoints.iter().map(|e| format!("\"{e}\"")).collect::<Vec<_>>().join(",");
    Response::json(200, format!("{{\"endpoints\":[{list}]}}\n"))
}
