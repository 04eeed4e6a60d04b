//! End-to-end tests over a live server: every endpoint byte-identical to
//! the direct `graft::views::json` renderers, the HTTP error contract,
//! keep-alive, graceful shutdown, and the concurrent load acceptance run
//! (16 connections x 500 requests against a warm index, zero errors).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft_dfs::{FileSystem, InMemoryFs};
use graft_obs::Obs;
use graft_server::client::HttpClient;
use graft_server::server::{serve, ServerConfig, ServerHandle};
use graft_server::synth::write_synthetic_trace;

fn server_over(jobs: &[&str], vertices: u64) -> (Arc<dyn FileSystem>, ServerHandle) {
    // 16 workers so the 16-connection load test runs fully concurrent.
    server_with(jobs, vertices, ServerConfig { workers: 16, ..ServerConfig::default() })
}

fn server_with(
    jobs: &[&str],
    vertices: u64,
    config: ServerConfig,
) -> (Arc<dyn FileSystem>, ServerHandle) {
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    for job in jobs {
        write_synthetic_trace(fs.as_ref(), &format!("/traces/{job}"), vertices, 3).unwrap();
    }
    let handle = serve(Arc::clone(&fs), "/traces", Obs::wall(), config).unwrap();
    (fs, handle)
}

/// Reads one response off a raw connection: its head and its body.
fn read_raw_response(reader: &mut impl BufRead) -> (String, String) {
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        assert_ne!(reader.read_line(&mut head).unwrap(), 0, "server closed early");
    }
    let length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(String::from))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    (head, String::from_utf8(body).unwrap())
}

#[test]
fn every_endpoint_matches_the_direct_renderer_byte_for_byte() {
    let (fs, handle) = server_over(&["job-a"], 20);
    let session = UntypedSession::open(Arc::clone(&fs), "/traces/job-a").unwrap();
    let mut client = HttpClient::new(handle.addr());

    let cases: Vec<(String, String)> = vec![
        ("/jobs/job-a".into(), vj::to_line(&vj::job_json("job-a", &session))),
        ("/jobs/job-a/supersteps".into(), vj::to_line(&vj::supersteps_json(&session))),
        ("/jobs/job-a/violations".into(), vj::to_line(&vj::violations_json(&session, None))),
        ("/jobs/job-a/ss/1/node-link".into(), vj::to_line(&vj::node_link_json(&session, 1))),
        (
            "/jobs/job-a/ss/1/tabular?page=2&per_page=7".into(),
            vj::to_line(&vj::tabular_json(&session, 1, None, 2, 7)),
        ),
        (
            "/jobs/job-a/ss/1/tabular?q=11".into(),
            vj::to_line(&vj::tabular_json(&session, 1, Some("11"), 1, 50)),
        ),
        (
            "/jobs/job-a/ss/2/violations".into(),
            vj::to_line(&vj::violations_json(&session, Some(2))),
        ),
        (
            "/jobs/job-a/repro/2/2".into(),
            vj::repro_source(&session, "2", 2).expect("vertex 2 is captured"),
        ),
    ];
    for (path, want) in cases {
        let response = client.get(&path).unwrap();
        assert_eq!(response.status, 200, "{path}");
        assert_eq!(response.text(), want, "{path} must match the renderer byte-for-byte");
    }

    // /jobs is the job_json documents of every job, as one array.
    let jobs = client.get("/jobs").unwrap();
    assert_eq!(jobs.text(), vj::to_line(&vec![vj::job_json("job-a", &session)]));
}

#[test]
fn error_contract_covers_400_404_405_and_413() {
    let (_fs, handle) = server_over(&["job-a"], 6);
    let mut client = HttpClient::new(handle.addr());

    for (path, status) in [
        ("/jobs/ghost", 404),
        ("/jobs/job-a/ss/99/node-link", 404), // superstep captured nothing
        ("/jobs/job-a/ss/1/unknown-view", 404),
        ("/nope", 404),
        ("/jobs/job-a/repro/999/1", 404), // vertex not captured
        ("/jobs/%2e%2e/supersteps", 400), // traversal via percent-encoding
        ("/jobs/job-a/ss/NaN/tabular", 400),
    ] {
        let response = client.get(path).unwrap();
        assert_eq!(response.status, status, "{path}");
        assert!(
            serde_json::from_slice::<serde_json::Value>(&response.body).is_ok(),
            "{path}: error bodies are JSON"
        );
    }

    // Non-GET methods are rejected wholesale.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 405"), "got: {reply}");

    // An oversized request head draws 413 before any routing.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let huge = format!("GET /jobs HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(20 * 1024));
    stream.write_all(huge.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 413"), "got: {reply}");
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (_fs, handle) = server_over(&["job-a"], 6);
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Two requests in sequence on the same socket; the second must still
    // be answered, proving the connection survived the first.
    for _ in 0..2 {
        (&stream).write_all(b"GET /jobs/job-a/supersteps HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (head, _) = read_raw_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 200"));
    }
}

#[test]
fn pipelined_requests_in_one_write_are_answered_in_order() {
    let (fs, handle) = server_over(&["job-a"], 20);
    let session = UntypedSession::open(Arc::clone(&fs), "/traces/job-a").unwrap();
    let want = [
        (
            "/jobs/job-a/ss/1/tabular?page=2&per_page=7",
            vj::to_line(&vj::tabular_json(&session, 1, None, 2, 7)),
        ),
        ("/jobs/job-a/supersteps", vj::to_line(&vj::supersteps_json(&session))),
    ];

    // Both heads in one segment: the server's first read takes them both.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let pair: String =
        want.iter().map(|(path, _)| format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n")).collect();
    (&stream).write_all(pair.as_bytes()).unwrap();
    let mut reader = BufReader::new(&stream);
    for (path, body) in &want {
        let (head, got) = read_raw_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
        assert_eq!(&got, body, "{path} must match the renderer byte-for-byte");
    }

    // The client's pipelined form, on its own connection.
    let mut client = HttpClient::new(handle.addr());
    let responses = client.get_pipelined(&[want[0].0, want[1].0]).unwrap();
    let bodies: Vec<&str> = responses.iter().map(|r| r.text()).collect();
    assert_eq!(bodies, [want[0].1.as_str(), want[1].1.as_str()]);
}

#[test]
fn shutdown_joins_and_stops_accepting() {
    // A kept-alive connection that stays idle must not hold shutdown for
    // the read timeout.
    let config = ServerConfig { read_timeout: Duration::from_secs(60), ..ServerConfig::default() };
    let (_fs, mut handle) = server_with(&["job-a"], 6, config);
    let addr = handle.addr();
    let mut client = HttpClient::new(addr);
    assert_eq!(client.get("/jobs").unwrap().status, 200);
    let started = Instant::now();
    handle.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5), "shutdown took {took:?} with an idle client");
    // After shutdown either the connect fails or the request dies; a
    // fresh request must not succeed.
    let mut fresh = HttpClient::new(addr);
    assert!(fresh.get("/jobs").is_err(), "server must stop serving after shutdown");
    // Idempotent.
    handle.shutdown();
}

#[test]
fn a_response_head_that_never_ends_fails_the_client_at_its_cap() {
    // A peer that sends 96 KiB of head without a blank line, then holds
    // the connection open: the client must give up at its 64 KiB cap,
    // not wait out its 10 s read timeout. It retries once, so two
    // connections are answered.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done, wait) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let held: Vec<TcpStream> = listener
            .incoming()
            .take(2)
            .map(|stream| {
                let mut stream = stream.unwrap();
                let head = format!("HTTP/1.1 200 OK\r\nX-Pad: {}", "a".repeat(96 * 1024));
                let _ = stream.write_all(head.as_bytes());
                stream
            })
            .collect();
        let _ = wait.recv();
        drop(held);
    });
    let started = Instant::now();
    let error = HttpClient::new(addr).get("/").unwrap_err();
    assert_eq!(error.kind(), ErrorKind::InvalidData, "{error}");
    assert!(error.to_string().contains("65536"), "{error}");
    assert!(started.elapsed() < Duration::from_secs(5));
    done.send(()).unwrap();
    peer.join().unwrap();
}

/// Acceptance: 16 connections x 500 requests against a warm TraceIndex —
/// zero errors, every response byte-identical to the direct renderer.
#[test]
fn concurrent_load_sixteen_connections_zero_errors() {
    let jobs = ["load-a", "load-b", "load-c", "load-d"];
    let (fs, handle) = server_over(&jobs, 30);
    let addr = handle.addr();

    // Expected bodies per job, straight from the renderers.
    let mut expected: Vec<(String, String)> = Vec::new();
    for job in jobs {
        let session = UntypedSession::open(Arc::clone(&fs), &format!("/traces/{job}")).unwrap();
        expected.push((
            format!("/jobs/{job}/ss/1/node-link"),
            vj::to_line(&vj::node_link_json(&session, 1)),
        ));
        expected.push((
            format!("/jobs/{job}/ss/1/tabular?page=1&per_page=10"),
            vj::to_line(&vj::tabular_json(&session, 1, None, 1, 10)),
        ));
        expected.push((
            format!("/jobs/{job}/ss/2/violations"),
            vj::to_line(&vj::violations_json(&session, Some(2))),
        ));
    }
    let expected = Arc::new(expected);

    // Warm the index so the run measures steady-state serving.
    let mut warmup = HttpClient::new(addr);
    for job in jobs {
        assert_eq!(warmup.get(&format!("/jobs/{job}")).unwrap().status, 200);
    }

    let threads: Vec<_> = (0..16)
        .map(|c| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr);
                let mut errors = 0usize;
                for r in 0..500 {
                    let (path, want) = &expected[(c + r) % expected.len()];
                    match client.get(path) {
                        Ok(response) if response.status == 200 && response.text() == want => {}
                        _ => errors += 1,
                    }
                }
                errors
            })
        })
        .collect();
    let errors: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(errors, 0, "16x500 warm requests must all succeed byte-identically");
}

#[test]
fn metrics_exposes_per_endpoint_counters_and_latencies() {
    let (_fs, handle) = server_over(&["job-a"], 6);
    let mut client = HttpClient::new(handle.addr());
    client.get("/jobs/job-a/ss/1/node-link").unwrap();
    client.get("/jobs/job-a/ss/1/tabular").unwrap();
    client.get("/jobs/ghost").unwrap();

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    for needle in [
        "graft_server_requests_node_link",
        "graft_server_requests_tabular",
        "graft_server_responses_2xx",
        "graft_server_responses_4xx",
        "graft_server_latency_node_link_nanos",
        "graft_server_index_misses",
    ] {
        assert!(text.contains(needle), "metrics missing {needle}:\n{text}");
    }
}
