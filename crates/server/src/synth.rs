//! Synthetic trace generation for tests: writes a deterministic,
//! fully-valid job trace directory (`meta.json`, `worker_*.trace`,
//! `result.json`) through any [`FileSystem`], without running the Pregel
//! engine — so the server crate can exercise jobs of any size cheaply.
//! The worker channels are written as capture writes them, through a
//! [`ChannelWriter`].

use std::collections::BTreeMap;

use graft::trace::{
    meta_path, result_path, worker_trace_path, ChannelWriter, ExceptionInfo, JobMeta,
    JobResultRecord, TraceFormat, VertexTrace, ViolationKind, ViolationRecord,
};
use graft::CaptureReason;
use graft_dfs::{FileSystem, FsResult};
use graft_obs::{
    to_jsonl, Event, LiveSnapshot, EDGE_END, EDGE_POINT, EVENTS_FILE, LIVE_DIR, SNAPSHOT_PREFIX,
    SNAPSHOT_SUFFIX, STATUS_RUNNING, WATERMARK_EVENT,
};
use graft_pregel::GlobalData;

/// The synthetic trace: `vertices` ring vertices over 3 supersteps,
/// sharded across `workers` files. Vertex 1 violates the message
/// constraint in superstep 1 and vertex 2 raises an exception in
/// superstep 2, so every view (including violations) has content.
pub fn write_synthetic_trace(
    fs: &dyn FileSystem,
    root: &str,
    vertices: u64,
    workers: usize,
) -> FsResult<()> {
    let workers = workers.max(1);
    let supersteps = 3u64;
    write_meta(fs, root, workers)?;
    let (channels, captures, violations, exceptions) =
        synth_rows(vertices, workers, 0..supersteps, supersteps);
    for (worker, (_, bytes)) in channels.iter().enumerate() {
        fs.write_all(&worker_trace_path(root, worker), bytes)?;
    }

    let result = JobResultRecord {
        supersteps_executed: supersteps,
        error: None,
        captures,
        violations,
        exceptions,
        capture_limit_hit: false,
    };
    fs.write_all(&result_path(root), serde_json::to_string(&result).expect("result").as_bytes())
}

fn write_meta(fs: &dyn FileSystem, root: &str, workers: usize) -> FsResult<()> {
    let meta = JobMeta {
        computation: "SynthComputation".to_string(),
        computation_type: "graft_server::synth::SynthComputation".to_string(),
        master: None,
        value_types: ("u64".to_string(), "i64".to_string(), "()".to_string(), "i64".to_string()),
        num_workers: workers,
        trace_format: Some(TraceFormat::NATIVE),
        config: vec!["capture_all_active".to_string()],
        facts: None,
    };
    fs.mkdirs(root)?;
    fs.write_all(&meta_path(root), serde_json::to_string(&meta).expect("meta").as_bytes())
}

type SynthTrace = VertexTrace<u64, i64, (), i64>;

/// The synthetic row of `vertex` in `superstep` of a `total`-superstep
/// job over `vertices` ring vertices.
fn synth_row(vertices: u64, vertex: u64, superstep: u64, total: u64) -> SynthTrace {
    let value = (vertex as i64) * 10 + superstep as i64;
    let next = (vertex + 1) % vertices;
    let violating = superstep == 1 && vertex == 1;
    let excepting = superstep == 2 && vertex == 2;
    VertexTrace {
        superstep,
        vertex,
        value_before: value,
        value_after: value + 1,
        edges: vec![(next, ())],
        incoming: if superstep == 0 { vec![] } else { vec![value - 10] },
        outgoing: if excepting { vec![] } else { vec![(next, value + 1)] },
        aggregators: vec![],
        global: GlobalData { superstep, num_vertices: vertices, num_edges: vertices },
        halted_after: superstep + 1 == total && !excepting,
        reasons: vec![if excepting { CaptureReason::Exception } else { CaptureReason::AllActive }],
        violations: violating
            .then(|| ViolationRecord {
                kind: ViolationKind::Message,
                detail: format!("{}", value + 1),
                target: Some(next.to_string()),
            })
            .into_iter()
            .collect(),
        exception: excepting.then(|| ExceptionInfo {
            message: "synthetic overflow".to_string(),
            backtrace: Some("synth::compute\nsynth::superstep".to_string()),
        }),
    }
}

/// Encodes the synthetic rows for the given superstep range, sharded
/// across `workers` channels, each with the writer that wrote it. `total`
/// is the job's full superstep count (it decides halting), so an
/// in-flight prefix encodes the same bytes the finished job would.
fn synth_rows(
    vertices: u64,
    workers: usize,
    range: std::ops::Range<u64>,
    total: u64,
) -> (Vec<(ChannelWriter, Vec<u8>)>, u64, u64, u64) {
    let mut channels: Vec<(ChannelWriter, Vec<u8>)> =
        (0..workers).map(|_| (ChannelWriter::default(), Vec::new())).collect();
    let (mut captures, mut violations, mut exceptions) = (0, 0, 0);
    for superstep in range {
        for vertex in 0..vertices {
            let trace = synth_row(vertices, vertex, superstep, total);
            captures += 1;
            violations += trace.violations.len() as u64;
            exceptions += u64::from(trace.exception.is_some());
            let (writer, bytes) = &mut channels[(vertex as usize) % workers];
            writer.append_vertex(&trace, bytes).expect("a synthetic row encodes");
        }
    }
    (channels, captures, violations, exceptions)
}

/// A synthetic *in-flight* job: the first `complete` supersteps of the
/// standard 3-superstep synthetic trace, with no `result.json`, a torn
/// trailing row on worker 0 (its frame caught mid-append, cut inside the
/// payload), and a live obs directory — `events.jsonl` carrying superstep
/// spans and watermark records, plus one committed
/// `live/snapshot_<seq>.json` per completed superstep (and a stray `.tmp`
/// staging file readers must ignore).
pub fn write_synthetic_live_trace(
    fs: &dyn FileSystem,
    root: &str,
    vertices: u64,
    workers: usize,
    complete: u64,
) -> FsResult<()> {
    let workers = workers.max(1);
    let complete = complete.min(2); // superstep 3 would finish the job
    write_meta(fs, root, workers)?;
    let (mut channels, _, _, _) = synth_rows(vertices, workers, 0..complete, 3);
    // The in-flight superstep's first row, torn mid-append: its index
    // frame whole, its vertex frame three bytes short of the payload's
    // end.
    let (writer, bytes) = &mut channels[0];
    writer.append_vertex(&synth_row(vertices, 0, complete, 3), bytes).expect("a row encodes");
    bytes.truncate(bytes.len() - 3);
    for (worker, (_, bytes)) in channels.iter().enumerate() {
        fs.write_all(&worker_trace_path(root, worker), bytes)?;
    }

    let obs_dir = format!("{root}/obs");
    let mut events = Vec::new();
    for superstep in 0..complete {
        events.push(Event {
            ts: superstep * 100,
            kind: "superstep".to_string(),
            edge: EDGE_END.to_string(),
            superstep: Some(superstep),
            worker: None,
            dur: Some(100),
            attrs: BTreeMap::from([("messages_sent".to_string(), vertices.to_string())]),
        });
        events.push(Event {
            ts: superstep * 100,
            kind: WATERMARK_EVENT.to_string(),
            edge: EDGE_POINT.to_string(),
            superstep: Some(superstep),
            worker: None,
            dur: None,
            attrs: BTreeMap::from([("frontier".to_string(), superstep.to_string())]),
        });
    }
    fs.write_all(&format!("{obs_dir}/{EVENTS_FILE}"), to_jsonl(&events).as_bytes())?;
    for seq in 1..=complete {
        commit_synthetic_snapshot(fs, root, seq, seq - 1)?;
    }
    fs.write_all(
        &format!("{obs_dir}/{LIVE_DIR}/{SNAPSHOT_PREFIX}99{SNAPSHOT_SUFFIX}.tmp"),
        b"{torn staging write",
    )
}

/// Commits one more live snapshot for an in-flight synthetic job — the
/// knob benches and tests turn to make the frontier advance without
/// running an engine. `seq` must exceed previously committed sequences.
pub fn commit_synthetic_snapshot(
    fs: &dyn FileSystem,
    root: &str,
    seq: u64,
    watermark: u64,
) -> FsResult<()> {
    let snapshot = LiveSnapshot {
        seq,
        status: STATUS_RUNNING.to_string(),
        superstep: Some(watermark + 1),
        watermark: Some(watermark),
        ..LiveSnapshot::default()
    };
    let live_dir = format!("{root}/obs/{LIVE_DIR}");
    fs.mkdirs(&live_dir)?;
    let tmp = format!("{live_dir}/{SNAPSHOT_PREFIX}{seq}{SNAPSHOT_SUFFIX}.tmp");
    let mut body = serde_json::to_string(&snapshot).expect("snapshot").into_bytes();
    body.push(b'\n');
    fs.write_all(&tmp, &body)?;
    fs.rename(&tmp, &format!("{live_dir}/{SNAPSHOT_PREFIX}{seq}{SNAPSHOT_SUFFIX}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft::untyped::UntypedSession;
    use graft_dfs::InMemoryFs;
    use std::sync::Arc;

    #[test]
    fn live_traces_open_partial_with_snapshots_committed() {
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        write_synthetic_live_trace(fs.as_ref(), "/t/inflight", 12, 3, 2).unwrap();
        // The torn trailing frame makes a strict read fail...
        assert!(UntypedSession::open(Arc::clone(&fs), "/t/inflight").is_err());
        // ...while the watermark-bounded partial parse serves the prefix.
        let session = UntypedSession::open_partial(Arc::clone(&fs), "/t/inflight", 1).unwrap();
        assert_eq!(session.supersteps(), vec![0, 1]);
        assert_eq!(session.count_at(0), 12);
        assert!(session.result().is_none(), "in-flight jobs have no result.json");
        let snap = graft_obs::latest_snapshot(fs.as_ref(), "/t/inflight/obs").unwrap().unwrap();
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.watermark, Some(1));
        commit_synthetic_snapshot(fs.as_ref(), "/t/inflight", 3, 1).unwrap();
        let snap = graft_obs::latest_snapshot(fs.as_ref(), "/t/inflight/obs").unwrap().unwrap();
        assert_eq!(snap.seq, 3);
    }

    #[test]
    fn synthetic_traces_open_untyped_with_all_views_populated() {
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        write_synthetic_trace(fs.as_ref(), "/t/synth", 12, 3).unwrap();
        let session = UntypedSession::open(fs, "/t/synth").unwrap();
        assert_eq!(session.supersteps(), vec![0, 1, 2]);
        assert_eq!(session.count_at(0), 12);
        assert_eq!(session.total_captures(), 36);
        assert!(session.indicators(1).message_violation);
        assert!(session.indicators(2).exception);
        assert_eq!(session.result().unwrap().captures, 36);
    }
}
