//! CI smoke checker for the debug server: hits every endpoint for every
//! job under a trace root and exits nonzero on any non-2xx response, any
//! unparsable JSON body, or any divergence from the direct
//! `graft::views::json` renderers (the byte-compatibility contract).
//! One pair of requests goes out in a single write, so the server's
//! per-connection read buffer is checked across a process boundary.
//!
//! Usage: `server_smoke --trace-root <dir> [--addr host:port]`
//!
//! Without `--addr` an in-process server is started over the root; with
//! it, an already-running `graft-cli serve` is targeted instead (the CI
//! job uses this form).

use std::sync::Arc;

use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft_dfs::{FileSystem, LocalFs};
use graft_obs::Obs;
use graft_server::client::{ClientResponse, HttpClient};
use graft_server::index::TraceIndex;
use graft_server::server::{serve, ServerConfig};

fn main() {
    let mut trace_root: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--trace-root" => trace_root = argv.next(),
            "--addr" => addr = argv.next(),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let Some(trace_root) = trace_root else {
        die("usage: server_smoke --trace-root <dir> [--addr host:port]");
    };

    let fs: Arc<dyn FileSystem> =
        Arc::new(LocalFs::new(&trace_root).unwrap_or_else(|e| die(&format!("trace root: {e}"))));
    // LocalFs roots paths at the directory itself, so inside the fs the
    // trace root is "/".
    let index = TraceIndex::new(Arc::clone(&fs), "/", 64, Obs::wall());
    let jobs = index.jobs().unwrap_or_else(|e| die(&format!("listing jobs: {e}")));
    if jobs.is_empty() {
        die(&format!("no jobs under {trace_root}"));
    }

    let (mut client, _handle) = match addr {
        Some(addr) => {
            let addr = addr.parse().unwrap_or_else(|e| die(&format!("bad --addr: {e}")));
            (HttpClient::new(addr), None)
        }
        None => {
            let handle = serve(Arc::clone(&fs), "/", Obs::wall(), ServerConfig::default())
                .unwrap_or_else(|e| die(&format!("starting server: {e}")));
            (HttpClient::new(handle.addr()), Some(handle))
        }
    };

    let mut checks = 0usize;
    let mut check = |label: String, response: ClientResponse, want: Option<&str>| {
        if response.status / 100 != 2 {
            die(&format!("{label}: status {} ({})", response.status, response.text().trim()));
        }
        if response.content_type.starts_with("application/json")
            && serde_json::from_slice::<serde_json::Value>(&response.body).is_err()
        {
            die(&format!("{label}: body is not valid JSON"));
        }
        if let Some(want) = want {
            if response.text() != want {
                die(&format!("{label}: body differs from the direct renderer"));
            }
        }
        checks += 1;
    };

    check("/".to_string(), client.get("/").unwrap_or_else(|e| die(&e.to_string())), None);
    check("/jobs".to_string(), client.get("/jobs").unwrap_or_else(|e| die(&e.to_string())), None);

    for id in &jobs {
        let session = UntypedSession::open(Arc::clone(&fs), &format!("/{id}"))
            .unwrap_or_else(|e| die(&format!("opening {id} directly: {e}")));
        let mut get = |path: String, want: Option<String>| {
            let response = client.get(&path).unwrap_or_else(|e| die(&e.to_string()));
            check(path, response, want.as_deref());
        };

        get(format!("/jobs/{id}"), Some(vj::to_line(&vj::job_json(id, &session))));
        get(format!("/jobs/{id}/supersteps"), Some(vj::to_line(&vj::supersteps_json(&session))));
        get(
            format!("/jobs/{id}/violations"),
            Some(vj::to_line(&vj::violations_json(&session, None))),
        );
        for ss in session.supersteps() {
            get(
                format!("/jobs/{id}/ss/{ss}/node-link"),
                Some(vj::to_line(&vj::node_link_json(&session, ss))),
            );
            get(
                format!("/jobs/{id}/ss/{ss}/tabular?page=1&per_page=10"),
                Some(vj::to_line(&vj::tabular_json(&session, ss, None, 1, 10))),
            );
            get(
                format!("/jobs/{id}/ss/{ss}/violations"),
                Some(vj::to_line(&vj::violations_json(&session, Some(ss)))),
            );
            // One reproducer per superstep, for the first captured vertex.
            if let Some(trace) = session.traces_at(ss).next() {
                let vertex = trace.vertex();
                get(
                    format!("/jobs/{id}/repro/{vertex}/{ss}"),
                    vj::repro_source(&session, &vertex, ss),
                );
            }
        }
    }

    // Two requests in one write: the server must answer both, in order,
    // from one connection's read buffer.
    let id = &jobs[0];
    let session = UntypedSession::open(Arc::clone(&fs), &format!("/{id}"))
        .unwrap_or_else(|e| die(&format!("opening {id} directly: {e}")));
    let pair = [format!("/jobs/{id}/supersteps"), format!("/jobs/{id}")];
    let want =
        [vj::to_line(&vj::supersteps_json(&session)), vj::to_line(&vj::job_json(id, &session))];
    let responses = client
        .get_pipelined(&[pair[0].as_str(), pair[1].as_str()])
        .unwrap_or_else(|e| die(&format!("pipelined pair: {e}")));
    for ((path, want), response) in pair.into_iter().zip(&want).zip(responses) {
        check(format!("{path} (pipelined)"), response, Some(want));
    }

    let metrics = client.get("/metrics").unwrap_or_else(|e| die(&e.to_string()));
    if metrics.status != 200 || !metrics.text().contains("server_requests_") {
        die("/metrics: missing server request counters");
    }
    checks += 1;

    println!("server_smoke: {} checks passed across {} jobs", checks, jobs.len());
}

fn die(message: &str) -> ! {
    eprintln!("server_smoke: {message}");
    std::process::exit(1);
}
