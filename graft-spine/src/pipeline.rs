//! The pipeline every workload runs, stage by stage, and the per-layer
//! replays of the traced run.
//!
//! S0 generate + build graph → S1 plain job → S2 debug job → S3 session
//! open → S4 cold first view over HTTP → S5 warm view mix → S6 node-link
//! → S7 repro. S0 runs a few times up front; then S1/S2 run as alternating
//! pairs for a share of `--seconds`, and S3–S7 run in rounds over the last
//! pair's trace for the rest. Each layer is timed from outside, around
//! calls into public functions.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use graft::trace::{
    self, IndexRecord, MasterTrace, WireVertexTrace, FRAME_INDEX, FRAME_MASTER, FRAME_VERTEX,
};
use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft_codec::frame::{write_value_frame, FrameScanner};
use graft_dfs::{DfsObserver, FileSystem};
use graft_obs::{Obs, Scope};
use graft_pregel::JobStats;
use graft_server::client::HttpClient;
use graft_server::index::TraceIndex;
use graft_server::server::{serve, ServerConfig, ServerHandle};

use crate::gen::SplitMix64;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{median, minimum, percentile};
use crate::workloads::{DebugRun, PlainRun, Prepared, Size, Store, Workload, TRACE_ROOT, WORKERS};

/// Set-ups before the first job: at least the first number, then more
/// until a second has gone into them or the second number is reached, so
/// that a millisecond set-up is not judged on three samples. Every block
/// ends with one more, so `setup_s` too is sampled across the whole run.
const SETUP_REPS: (usize, usize) = (3, 200);
/// Untimed warm-up before the first round (one pair in the smoke tier).
const WARMUP_SECONDS: f64 = 1.5;
/// Blocks the measured time is cut into. Each block is a slice of job
/// pairs followed by a slice of S3–S7 rounds, both of the same length,
/// so every metric is sampled across the whole run: the host's slow
/// spells last seconds, and reach a share of every metric's samples
/// instead of all the samples of one. Every slice runs at least one pair
/// or round even when the clock says stop.
const BLOCKS: u32 = 5;
/// Debug jobs with `Obs` attached in the traced run.
const OBS_REPS: usize = 2;
/// Warm `TraceIndex::session` lookups in the traced run.
const INDEX_HIT_REPS: usize = 1000;

/// What one invocation is asked to do.
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch space for `LocalFs` stores; removed when the run ends.
    pub work_dir: PathBuf,
}

/// Output checks, counted as operations.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Everything a run measured.
pub struct RunResult {
    /// Metric name → reported value.
    pub values: BTreeMap<&'static str, f64>,
    /// Metric name → the samples behind a median or percentile.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub ops: Ops,
    /// S1/S2 pairs measured.
    pub pairs: u32,
    /// Rounds of S3–S7 measured.
    pub rounds: u32,
    pub checksum: u64,
    pub recorder: Recorder,
    pub wall_ns: u64,
}

/// The request paths of one trace and the bytes each must return.
struct Views {
    first: String,
    mix: Vec<String>,
    nodelink: String,
    repro: Vec<String>,
    expected: BTreeMap<String, Vec<u8>>,
}

struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// Sum of the files a debug session reads: worker and master channels,
/// `meta.json`, `result.json`.
fn trace_bytes(fs: &dyn FileSystem, root: &str) -> u64 {
    let mut paths: Vec<String> = (0..WORKERS).map(|w| trace::worker_trace_path(root, w)).collect();
    paths.push(trace::master_trace_path(root));
    paths.push(trace::meta_path(root));
    paths.push(trace::result_path(root));
    paths.iter().filter_map(|p| fs.status(p).ok()).map(|s| s.len).sum()
}

/// Direct renders of every view the round will request, timed as the
/// `core` read-side layer. These are also the bytes HTTP must return.
fn render_views(
    workload: &Workload,
    session: &UntypedSession,
    order: &mut SplitMix64,
    rec: &mut Recorder,
    samples: &mut Samples,
) -> Views {
    let id = workload.name;
    let focus = *session.supersteps().last().expect("every workload captures something");
    let probe = session.rows_window(focus, 0, 1).pop().expect("focus has a row").vertex();
    let mut expected = BTreeMap::new();
    // Scaled time of every direct render, in call order.
    let mut direct = Vec::new();
    let mut render = |rec: &mut Recorder,
                      samples: &mut Samples,
                      metric: &'static str,
                      scale: f64,
                      path: String,
                      body: &mut dyn FnMut() -> String| {
        let (text, secs) = rec.time(metric, body);
        samples.push(metric, secs * scale);
        direct.push(secs * scale);
        expected.insert(path.clone(), text.into_bytes());
        path
    };

    let tabular = |page: usize| format!("/jobs/{id}/ss/{focus}/tabular?page={page}&per_page=50");
    // The seven warm views; the request order is a seeded permutation.
    let mut mix = Vec::new();
    mix.push(render(
        rec,
        samples,
        "core.supersteps_json_us",
        1e6,
        format!("/jobs/{id}/supersteps"),
        &mut || vj::to_line(&vj::supersteps_json(session)),
    ));
    for page in 1..=3 {
        mix.push(render(rec, samples, "core.tabular_page_us", 1e6, tabular(page), &mut || {
            vj::to_line(&vj::tabular_json(session, focus, None, page, 50))
        }));
    }
    mix.push(render(
        rec,
        samples,
        "core.tabular_search_us",
        1e6,
        format!("/jobs/{id}/ss/{focus}/tabular?q={probe}"),
        &mut || vj::to_line(&vj::tabular_json(session, focus, Some(&probe), 1, 50)),
    ));
    mix.push(render(
        rec,
        samples,
        "core.violations_us",
        1e6,
        format!("/jobs/{id}/ss/{focus}/violations"),
        &mut || vj::to_line(&vj::violations_json(session, Some(focus))),
    ));
    mix.push(render(
        rec,
        samples,
        "core.violations_us",
        1e6,
        format!("/jobs/{id}/violations"),
        &mut || vj::to_line(&vj::violations_json(session, None)),
    ));
    order.shuffle(&mut mix);

    let nodelink = render(
        rec,
        samples,
        "core.node_link_ms",
        1e3,
        format!("/jobs/{id}/ss/{focus}/node-link"),
        &mut || vj::to_line(&vj::node_link_json(session, focus)),
    );

    // Distinct (vertex, superstep) captures, evenly spaced over all the
    // captured rows in trace order. A reproducer's cost grows with its
    // row's position in the superstep and with the record's size, so a
    // random draw would make the median follow the draw (±15% on
    // `gc_dcfull`) instead of the code; the seed decides the order only.
    let supersteps = session.supersteps();
    let counts: Vec<usize> = supersteps.iter().map(|&ss| session.count_at(ss)).collect();
    let total: usize = counts.iter().sum();
    let take = workload.repro_reps.min(total);
    let mut targets: Vec<(String, u64)> = Vec::with_capacity(take);
    let (mut index, mut before) = (0, 0);
    for i in 0..take {
        let position = (2 * i + 1) * total / (2 * take);
        while position >= before + counts[index] {
            before += counts[index];
            index += 1;
        }
        let row = session.rows_window(supersteps[index], position - before, 1);
        targets.extend(row.first().map(|trace| (trace.vertex(), supersteps[index])));
    }
    order.shuffle(&mut targets);
    let repro = targets
        .into_iter()
        .map(|(vertex, ss)| {
            render(
                rec,
                samples,
                "core.repro_us",
                1e6,
                format!("/jobs/{id}/repro/{vertex}/{ss}"),
                &mut || vj::repro_source(session, &vertex, ss).unwrap_or_default(),
            )
        })
        .collect();
    // What the mix costs without HTTP: the first renders were its views.
    samples.push("server.mix_direct_us", median(&direct[..mix.len()]));

    Views { first: tabular(1), mix, nodelink, repro, expected }
}

/// Counters of the HTTP side of a run.
#[derive(Default)]
struct HttpTotals {
    bytes_out: u64,
    non200: u64,
}

/// A running server and the one client connection to it. The client is
/// declared first so it drops first: the server's shutdown joins its
/// workers, and a worker stays in `read` until its connection closes.
struct Served {
    client: HttpClient,
    _handle: ServerHandle,
}

fn start_server(fs: &Arc<dyn FileSystem>) -> Served {
    let config = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
    let handle = serve(Arc::clone(fs), TRACE_ROOT, Obs::wall(), config).expect("loopback bind");
    Served { client: HttpClient::new(handle.addr()), _handle: handle }
}

/// The pregel-engine layer, from the `JobStats` S1 returns.
fn engine_samples(stats: &JobStats, wall_s: f64, samples: &mut Samples) {
    let compute: f64 = stats.supersteps.iter().map(|s| s.compute_time.as_secs_f64()).sum();
    let delivery: f64 = stats.supersteps.iter().map(|s| s.delivery_time.as_secs_f64()).sum();
    samples.push("pregel.compute_s", compute);
    samples.push("pregel.delivery_s", delivery);
    samples.push("pregel.sync_s", stats.total_wall_time.as_secs_f64() - compute - delivery);
    samples.push("pregel.superstep_p50_us", stats.p50_superstep_wall().as_secs_f64() * 1e6);
    samples.push("pregel.superstep_max_us", stats.max_superstep_wall().as_secs_f64() * 1e6);
    samples.push("pregel.ns_per_message", wall_s * 1e9 / stats.total_messages().max(1) as f64);
    samples.push(
        "pregel.ns_per_compute_call",
        wall_s * 1e9 / stats.total_compute_calls().max(1) as f64,
    );
}

/// State shared by the rounds of one run.
struct Pipeline<'a> {
    args: &'a RunArgs,
    prepared: &'a Prepared,
    golden: Option<u64>,
    rec: Recorder,
    samples: Samples,
    ops: Ops,
    http: HttpTotals,
    exact: BTreeMap<&'static str, u64>,
    checksum: u64,
    stores: u32,
}

impl Pipeline<'_> {
    fn store(&mut self) -> Store {
        self.stores += 1;
        Store::open(self.args.workload.store, &self.args.work_dir, &format!("s{}", self.stores))
    }

    /// An exact count must repeat in every round.
    fn exact(&mut self, name: &'static str, value: u64) {
        let first = *self.exact.entry(name).or_insert(value);
        self.ops
            .check(first == value, || format!("{name} changed between rounds: {first} vs {value}"));
    }

    fn plain_job(&mut self) -> PlainRun {
        let open = self.rec.enter("S1.plain_job");
        let plain = (self.prepared.plain)(&mut self.rec);
        self.rec.exit(open);
        plain
    }

    fn debug_job(&mut self, obs: Option<Arc<Obs>>) -> DebugRun {
        let store = self.store();
        let open = self.rec.enter("S2.debug_job");
        let debug = (self.prepared.debug)(store, obs, &mut self.rec);
        self.rec.exit(open);
        debug
    }

    /// One timed GET, checked against the direct render of the same view.
    fn get(&mut self, client: &mut HttpClient, path: &str, views: &Views) -> f64 {
        let (response, secs) = self.rec.time("server.GET", || client.get(path));
        match response {
            Ok(response) => {
                self.http.bytes_out += response.body.len() as u64;
                if response.status != 200 {
                    self.http.non200 += 1;
                }
                self.ops.check(response.status == 200, || {
                    format!("GET {path}: status {}", response.status)
                });
                self.ops.check(views.expected.get(path) == Some(&response.body), || {
                    format!("GET {path}: body differs from the direct render")
                });
                if path.contains("/repro/") {
                    self.ops.check(!response.body.is_empty(), || {
                        format!("GET {path}: empty reproducer")
                    });
                }
            }
            Err(error) => {
                self.http.non200 += 1;
                self.ops.check(false, || format!("GET {path}: {error}"));
            }
        }
        secs
    }

    /// One S1/S2 pair; `pair` decides which of the two goes first. Returns
    /// the debug run, whose trace the read stages may use.
    fn pair(&mut self, pair: u32) -> DebugRun {
        let (plain, debug) = if pair % 2 == 1 {
            let plain = self.plain_job();
            (plain, self.debug_job(None))
        } else {
            let debug = self.debug_job(None);
            (self.plain_job(), debug)
        };
        self.samples.push("plain_job_s", plain.wall_s);
        self.samples.push("debug_job_s", debug.wall_s);
        self.samples.push("core.capture_added_s", debug.wall_s - plain.wall_s);
        engine_samples(&plain.stats, plain.wall_s, &mut self.samples);

        self.checksum = plain.checksum;
        self.ops.check(plain.checksum == debug.checksum, || {
            format!("checksum: plain {:016x} vs debug {:016x}", plain.checksum, debug.checksum)
        });
        if let Some(golden) = self.golden {
            self.ops.check(plain.checksum == golden, || {
                format!("checksum {:016x} differs from golden {golden:016x}", plain.checksum)
            });
        }
        self.exact("trace_bytes", trace_bytes(debug.store.fs.as_ref(), &debug.root));
        self.exact("pregel.supersteps", plain.stats.superstep_count());
        self.exact("pregel.compute_calls", plain.stats.total_compute_calls());
        self.exact("pregel.messages_sent", plain.stats.total_messages());
        self.exact("core.captures", debug.captures);
        self.exact("core.violations", debug.violations);
        debug
    }

    /// S3–S7 once over a finished trace.
    fn read_round(&mut self, round: u32, debug: &DebugRun) {
        let workload = self.args.workload;
        let fs = Arc::clone(&debug.store.fs);

        // S3
        let open = self.rec.enter("S3.open");
        let mut session = None;
        let mut opens = Vec::with_capacity(workload.open_reps);
        for _ in 0..workload.open_reps {
            let (opened, secs) = self.rec.time("core.UntypedSession::open", || {
                UntypedSession::open(Arc::clone(&fs), &debug.root)
            });
            opens.push(secs * 1e3);
            session = Some(opened.expect("finished trace opens"));
        }
        self.samples.push("open_ms", median(&opens));
        self.rec.exit(open);
        let session = session.expect("open_reps >= 1");

        let open = self.rec.enter("render_expected");
        let mut order = SplitMix64::new(self.args.seed ^ u64::from(round));
        let views = render_views(workload, &session, &mut order, &mut self.rec, &mut self.samples);
        self.rec.exit(open);
        drop(session);

        // S4: each cold view gets a server with an empty index.
        let open = self.rec.enter("S4.first_view");
        let mut warm = None;
        let mut firsts = Vec::with_capacity(workload.first_view_reps);
        for _ in 0..workload.first_view_reps {
            drop(warm.take());
            let mut served = start_server(&fs);
            firsts.push(self.get(&mut served.client, &views.first, &views) * 1e3);
            warm = Some(served);
        }
        self.samples.push("first_view_ms", median(&firsts));
        self.rec.exit(open);
        let mut served = warm.expect("first_view_reps >= 1");

        // S5–S7: closed loop, one keep-alive connection.
        for (stage, metric, paths, requests) in [
            ("S5.view_mix", "view_ms", &views.mix, workload.mix_requests),
            ("S6.nodelink", "nodelink_ms", &vec![views.nodelink.clone()], workload.nodelink_reps),
            ("S7.repro", "repro_ms", &views.repro, workload.repro_reps),
        ] {
            let open = self.rec.enter(stage);
            let mut latencies = Vec::with_capacity(requests);
            for i in 0..requests {
                let path = &paths[i % paths.len()];
                latencies.push(self.get(&mut served.client, path, &views) * 1e3);
            }
            if metric == "view_ms" {
                self.samples.push("view_p50_ms", percentile(&latencies, 50.0));
                self.samples.push("view_p99_ms", percentile(&latencies, 99.0));
            } else {
                self.samples.push(metric, median(&latencies));
            }
            self.rec.exit(open);
        }

        let open = self.rec.enter("teardown");
        drop(served);
        self.rec.exit(open);
    }

    /// The traced run's extra work: obs-on jobs, then codec, DFS and
    /// index replays over the workload's own trace.
    fn layer_replays(&mut self) {
        // obs: the same debug job with an `Obs` attached.
        let open = self.rec.enter("L.obs_jobs");
        let mut last = None;
        for _ in 0..OBS_REPS {
            drop(last.take());
            let obs = Obs::wall();
            let debug = self.debug_job(Some(Arc::clone(&obs)));
            self.samples.push("obs.debug_job_s", debug.wall_s);
            last = Some((debug, obs));
        }
        self.rec.exit(open);
        let (debug, obs) = last.expect("OBS_REPS >= 1");
        let registry = obs.registry();
        let counter = |name: &str| registry.counter_value(name, Scope::GLOBAL) as f64;
        self.samples.push("pregel.recoveries", debug.stats.recoveries as f64);
        self.samples.push("pregel.checkpoint_bytes", counter("checkpoint_bytes_total"));
        self.samples.push("pregel.msglog_bytes", counter("pregel_msglog_bytes_total"));
        self.samples.push("pregel.spill_bytes", counter("ooc_spill_bytes_total"));
        self.samples.push("pregel.load_bytes", counter("ooc_load_bytes_total"));
        self.samples.push("pregel.budget_overruns", counter("ooc_budget_overruns_total"));

        let fs = Arc::clone(&debug.store.fs);
        let mut channels: Vec<(String, Vec<u8>)> = Vec::new();
        for path in (0..WORKERS)
            .map(|w| trace::worker_trace_path(&debug.root, w))
            .chain([trace::master_trace_path(&debug.root)])
        {
            // A job without a master leaves an empty master channel.
            match fs.read_all(&path) {
                Ok(bytes) if !bytes.is_empty() => channels.push((path, bytes)),
                _ => {}
            }
        }
        let master = trace::master_trace_path(&debug.root);
        let worker_bytes: u64 = channels
            .iter()
            .filter(|(path, _)| *path != master)
            .map(|(_, bytes)| bytes.len() as u64)
            .sum();
        self.samples.push("core.worker_channel_bytes", worker_bytes as f64);

        let open = self.rec.enter("L.codec_replay");
        self.codec_replay(&channels);
        self.rec.exit(open);

        let open = self.rec.enter("L.dfs_replay");
        self.dfs_replay(&channels);
        self.rec.exit(open);

        let open = self.rec.enter("L.index_replay");
        let index = TraceIndex::new(Arc::clone(&fs), TRACE_ROOT, 64, Obs::wall());
        let id = self.args.workload.name;
        let (cold, secs) = self.rec.time("server.TraceIndex::session", || index.session(id));
        self.ops.check(cold.is_ok(), || "TraceIndex cold lookup failed".to_string());
        self.samples.push("server.index_miss_ms", secs * 1e3);
        for _ in 0..INDEX_HIT_REPS {
            let started = Instant::now();
            let hit = index.session(id);
            self.samples.push("server.index_hit_us", started.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(&hit);
        }
        self.rec.exit(open);
    }

    /// Scans every frame header, decodes every frame, re-encodes it into
    /// a reused buffer and compares the bytes with the original frame.
    fn codec_replay(&mut self, channels: &[(String, Vec<u8>)]) {
        let (mut frames, mut mismatches) = (0u64, 0u64);
        let (mut scan_s, mut decode_s, mut encode_s) = (0.0f64, 0.0f64, 0.0f64);
        let total_bytes: usize = channels.iter().map(|(_, bytes)| bytes.len()).sum();
        let mut buf: Vec<u8> = Vec::new();
        for (_, bytes) in channels {
            let (headers, secs) = self.rec.time("codec.FrameScanner", || {
                let mut scanner = FrameScanner::new(bytes);
                let mut headers = 0u64;
                while let Ok(Some(frame)) = scanner.next_frame() {
                    std::hint::black_box(frame.kind);
                    headers += 1;
                }
                (headers, scanner.offset())
            });
            scan_s += secs;
            frames += headers.0;
            if headers.1 != bytes.len() {
                mismatches += 1; // a torn or corrupt tail
            }

            let open = self.rec.enter("codec.decode+encode");
            let mut scanner = FrameScanner::new(bytes);
            while let Ok(Some(frame)) = scanner.next_frame() {
                buf.clear();
                // Decode and re-encode are timed per frame and summed;
                // holding every decoded record at once would not fit.
                macro_rules! roundtrip {
                    ($record:ty) => {{
                        let t0 = Instant::now();
                        let decoded = graft_codec::from_slice::<$record>(frame.payload);
                        let t1 = Instant::now();
                        let encoded = decoded.as_ref().map_err(|e| e.to_string()).and_then(|r| {
                            write_value_frame(&mut buf, frame.kind, r).map_err(|e| e.to_string())
                        });
                        let t2 = Instant::now();
                        decode_s += (t1 - t0).as_secs_f64();
                        encode_s += (t2 - t1).as_secs_f64();
                        encoded.is_ok()
                    }};
                }
                let ok = match frame.kind {
                    FRAME_VERTEX => roundtrip!(WireVertexTrace),
                    FRAME_MASTER => roundtrip!(MasterTrace),
                    FRAME_INDEX => roundtrip!(IndexRecord),
                    _ => false,
                };
                if !ok || buf != bytes[frame.start..frame.end] {
                    mismatches += 1;
                }
            }
            self.rec.exit(open);
        }
        self.ops.check(mismatches == 0, || format!("{mismatches} codec round-trip mismatches"));
        let mb = total_bytes as f64 / 1e6;
        self.samples.push("codec.frames", frames as f64);
        self.samples.push("codec.scan_s", scan_s);
        self.samples.push("codec.decode_s", decode_s);
        self.samples.push("codec.encode_s", encode_s);
        self.samples.push("codec.encode_mb_per_s", mb / encode_s.max(1e-9));
        self.samples.push("codec.decode_mb_per_s", mb / decode_s.max(1e-9));
        self.samples.push("codec.roundtrip_mismatches", mismatches as f64);
    }

    /// Re-appends every channel to a fresh file system of the workload's
    /// kind in the chunks the sink flushed (one per worker per
    /// superstep: an index frame opens each), then reads it back.
    fn dfs_replay(&mut self, channels: &[(String, Vec<u8>)]) {
        let store = self.store();
        let retries = Arc::new(RetryCounter::default());
        if let Some(cluster) = store.cluster() {
            cluster.add_observer(Arc::clone(&retries) as Arc<dyn DfsObserver>);
        }
        let (mut appends, mut written, mut read) = (0u64, 0u64, 0u64);
        let (mut append_s, mut read_s) = (0.0f64, 0.0f64);
        for (path, bytes) in channels {
            let mut cuts: Vec<usize> = Vec::new();
            let mut scanner = FrameScanner::new(bytes);
            while let Ok(Some(frame)) = scanner.next_frame() {
                // Master channels have no index frames: one chunk per record.
                if frame.kind != FRAME_VERTEX {
                    cuts.push(frame.start);
                }
            }
            cuts.push(bytes.len());
            for window in cuts.windows(2) {
                let chunk = &bytes[window[0]..window[1]];
                let (result, secs) = self.rec.time("dfs.append", || {
                    let mut writer = store.fs.append(path)?;
                    writer.write_all(chunk).map_err(graft_dfs::FsError::from)?;
                    writer.sync()
                });
                self.ops.check(result.is_ok(), || format!("append to {path} failed"));
                append_s += secs;
                appends += 1;
                written += chunk.len() as u64;
            }
        }
        for (path, bytes) in channels {
            let (back, secs) = self.rec.time("dfs.read_all", || store.fs.read_all(path));
            read_s += secs;
            read += back.as_ref().map_or(0, |b| b.len() as u64);
            self.ops.check(back.as_deref().ok() == Some(bytes.as_slice()), || {
                format!("{path} read back differently from what was appended")
            });
        }
        self.samples.push("dfs.append_s", append_s);
        self.samples.push("dfs.appends", appends as f64);
        self.samples.push("dfs.read_s", read_s);
        self.samples.push("dfs.bytes_written", written as f64);
        self.samples.push("dfs.bytes_read", read as f64);
        self.samples.push("dfs.retries", retries.0.load(Ordering::Relaxed) as f64);
    }
}

/// Counts replica failovers of `ClusterFs` reads.
#[derive(Default)]
struct RetryCounter(AtomicU64);

impl DfsObserver for RetryCounter {
    fn block_read(&self, _bytes: u64, failovers: u64) {
        self.0.fetch_add(failovers, Ordering::Relaxed);
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// S0 once, timed as `setup_s` and the two `datasets` layer times.
fn set_up(args: &RunArgs, size: Size, rec: &mut Recorder, samples: &mut Samples) -> Prepared {
    let open = rec.enter("S0.setup");
    let built = args.workload.prepare(size, args.seed, rec);
    samples.push("setup_s", rec.exit(open));
    samples.push("datasets.generate_s", built.generate_s);
    samples.push("datasets.to_graph_s", built.to_graph_s);
    built
}

/// Runs one workload end to end and returns what it measured.
pub fn run(args: &RunArgs, golden: Option<u64>) -> RunResult {
    let workload = args.workload;
    let size: Size = if args.smoke { workload.smoke } else { workload.full };
    let mut rec = Recorder::new();
    rec.set_enabled(args.trace);
    let mut samples = Samples(BTreeMap::new());

    // S0, several times.
    let mut prepared = None;
    let setting_up = Instant::now();
    for rep in 0..SETUP_REPS.1 {
        if rep >= SETUP_REPS.0 && setting_up.elapsed().as_secs_f64() >= 1.0 {
            break;
        }
        drop(prepared.take());
        prepared = Some(set_up(args, size, &mut rec, &mut samples));
    }
    let prepared = prepared.expect("at least one set-up");

    let mut pipeline = Pipeline {
        args,
        prepared: &prepared,
        golden,
        rec,
        samples,
        ops: Ops::default(),
        http: HttpTotals::default(),
        exact: BTreeMap::new(),
        checksum: 0,
        stores: 0,
    };

    // Untimed pairs until the machine has settled: the first second or
    // so of jobs runs up to 30% slower than the rest (cold caches, first-
    // touch page faults, clock ramp-up).
    let open = pipeline.rec.enter("warmup");
    let warmup = if args.smoke { 0.0 } else { WARMUP_SECONDS };
    let warming = Instant::now();
    loop {
        drop(pipeline.plain_job());
        drop(pipeline.debug_job(None));
        if warming.elapsed().as_secs_f64() >= warmup {
            break;
        }
    }
    pipeline.rec.exit(open);

    // The traced run spends part of its time on the layer replays.
    let budget = if args.trace { args.seconds * 0.6 } else { args.seconds };
    let slice = budget / f64::from(2 * BLOCKS);

    let measuring = Instant::now();
    let (mut pairs, mut rounds) = (0u32, 0u32);
    let mut job_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut peak_rss = 0.0;
    let mut last = None;
    for block in 0..BLOCKS {
        // Job slice: alternating pairs, back to back.
        let until = slice * f64::from(2 * block + 1);
        loop {
            pairs += 1;
            drop(last.take());
            // In a traced run every other pair records no inner spans:
            // the difference between the two kinds is the tracing overhead.
            let traced = args.trace && pairs % 2 == 1;
            let started = pipeline.rec.now_ns();
            pipeline.rec.set_enabled(traced);
            pipeline.rec.set_rep(pairs);
            let debug = pipeline.pair(pairs);
            let job = |name| *pipeline.samples.get(name).last().expect("pair pushed a sample");
            job_s[usize::from(traced)].push(job("plain_job_s") + job("debug_job_s"));
            if args.trace && !traced {
                pipeline.rec.set_enabled(true);
                pipeline.rec.record("pair.untraced", started);
            }
            last = Some(debug);
            if measuring.elapsed().as_secs_f64() >= until {
                break;
            }
        }
        pipeline.rec.set_enabled(args.trace);

        // Read slice: rounds of S3–S7 over the last pair's trace.
        let debug = last.as_ref().expect("the slice ran a pair");
        let until = slice * f64::from(2 * block + 2);
        loop {
            rounds += 1;
            pipeline.rec.set_rep(rounds);
            pipeline.read_round(rounds, debug);
            // Read after the first round: by then every stage has run once
            // on every run, whereas the high-water mark at exit also
            // depends on how much the clock allowed.
            if rounds == 1 {
                peak_rss = peak_rss_mb();
            }
            if measuring.elapsed().as_secs_f64() >= until {
                break;
            }
        }
        drop(set_up(args, size, &mut pipeline.rec, &mut pipeline.samples));
    }
    let debug = last.expect("BLOCKS >= 1");
    let open = pipeline.rec.enter("teardown");
    drop(debug);
    pipeline.rec.exit(open);
    pipeline.rec.set_rep(0);
    if args.trace {
        pipeline.layer_replays();
    }

    let Pipeline { rec, samples, ops, http, exact, checksum, .. } = pipeline;
    let wall_ns = rec.now_ns();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Every metric that has samples of its own name is their median; every
    // exact count is itself. The rest are derived below.
    for name in END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)) {
        if let Some(own) = samples.0.get(name) {
            values.insert(name, median(own));
        } else if let Some(count) = exact.get(name) {
            values.insert(name, *count as f64);
        }
    }
    // The host's interference comes in spells and only ever adds time, so
    // the smallest of a timing's pairs or rounds is what the code costs.
    let per_round = END_TO_END.iter().filter(|m| m.per_round).map(|m| m.name);
    for name in per_round.chain(PER_LAYER.iter().filter(|m| m.per_round).map(|m| m.name)) {
        if let Some(own) = samples.0.get(name) {
            values.insert(name, minimum(own));
        }
    }
    values.insert("peak_rss_mb", peak_rss);

    if args.trace {
        let debug_s = values["debug_job_s"];
        let captures = values["core.captures"];
        values.insert("datasets.edges", prepared.edges as f64);
        values.insert("core.session_open_ms", values["open_ms"]);
        values.insert("core.overhead_ratio", debug_s / values["plain_job_s"]);
        let added = values["core.capture_added_s"];
        values.insert("core.us_per_capture", added * 1e6 / captures.max(1.0));
        values.insert(
            "core.bytes_per_capture",
            samples.median("core.worker_channel_bytes") / captures.max(1.0),
        );
        values.insert(
            "core.instrument_residual_s",
            added - (values["codec.encode_s"] + values["dfs.append_s"]) / WORKERS as f64,
        );
        values.insert(
            "server.http_overhead_us",
            values["view_p50_ms"] * 1e3 - minimum(samples.get("server.mix_direct_us")),
        );
        values.insert("server.bytes_out", http.bytes_out as f64);
        values.insert("server.responses_non200", http.non200 as f64);
        let obs_added = samples.median("obs.debug_job_s") - debug_s;
        values.insert("obs.on_added_s", obs_added);
        values.insert("obs.on_added_pct", 100.0 * obs_added / debug_s);
        let untraced = median(&job_s[0]);
        values
            .insert("bench.trace_overhead_pct", 100.0 * (median(&job_s[1]) - untraced) / untraced);
        values.insert(
            "bench.span_coverage_pct",
            crate::spans::top_level_coverage_pct(rec.spans(), wall_ns),
        );
    }

    RunResult { values, samples: samples.0, ops, pairs, rounds, checksum, recorder: rec, wall_ns }
}
