//! A model of the channel writer: its bytes are a pure function of the
//! records, whatever its caches, versions, marks and resumes.
//!
//! Each seeded case drives one worker-channel [`ChannelWriter`], and one
//! for the master channel, through a random run of operations: vertex
//! records of ids from a small pool, whose edges, context and values are
//! each equal to or changed from the last ones, under a version kept,
//! bumped or absent; master records; marks; truncations to an earlier
//! mark, each resumed from the bytes left (a failed write, a rewind); and
//! resumes from the bytes so far. Values are structs whose
//! fields arrive out of key order; messages go as broadcasts and pairs;
//! floats include `-0.0`, `0.0` and NaN. The model is the list of records
//! the channels hold. After each case:
//!
//! * the channels decode to the model, compared as JSON text so that
//!   `-0.0` and `0.0` stay apart;
//! * the worker bytes equal a twin run's that gives every version as
//!   `None` and vouches for no broadcast: the version and broadcast fast
//!   paths write what the byte rule writes;
//! * the run that resumes equals one that only truncates, and every
//!   resumed writer stands where the writer it replaced stood;
//! * the bytes equal a fresh writer's fed the model with every version
//!   `None`, and the model's JSON lines taken through `native_channel`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;

/// A vertex value whose fields are declared out of key order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Val {
    zeta: f64,
    alpha: String,
    mid: Vec<i8>,
}

/// A message: a bare float, or a struct whose fields arrive out of order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum Msg {
    Num(f64),
    Pair { zeta: f64, alpha: String },
}

type Trace = VertexTrace<u64, Val, f64, Msg>;

/// The floats every position draws from.
const FLOATS: [f64; 6] = [0.0, -0.0, f64::NAN, 1.5, -2.25, 1e300];

/// A vertex record and the versions the capture path hands over with it.
#[derive(Clone, Debug)]
struct Append {
    record: Trace,
    edges_version: Option<u64>,
    value_versions: Option<(u64, u64)>,
    context_version: Option<u64>,
    /// Whether the sends are clones of one message along every edge, at
    /// least one.
    broadcast: bool,
}

impl Append {
    /// The record as the capture path hands it over, its versions given
    /// only `with_versions`.
    fn capture(
        &self,
        with_versions: bool,
    ) -> VertexCapture<
        '_,
        u64,
        Val,
        Msg,
        impl ExactSizeIterator<Item = (&u64, &f64)> + Clone,
        impl ExactSizeIterator<Item = (&str, &AggValue)> + Clone,
    > {
        let keep = |version: Option<u64>| version.filter(|_| with_versions);
        VertexCapture {
            edges_version: keep(self.edges_version),
            value_versions: self.value_versions.filter(|_| with_versions),
            context_version: keep(self.context_version),
            outgoing_broadcast: self.broadcast && with_versions,
            ..self.record.borrowed()
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Vertex(Box<Append>),
    Master(MasterTrace),
    Mark,
    /// Falls back to mark `to`, resuming from the bytes that are left.
    Truncate(usize),
    Resume,
}

/// Per vertex, what its last record held, and under which versions.
#[derive(Clone)]
struct Vertex {
    edges: Vec<(u64, f64)>,
    edges_version: Option<u64>,
    value: Val,
    value_version: Option<u64>,
}

/// The shared context: superstep, aggregators and its version.
struct Context {
    superstep: u64,
    aggregators: Vec<(String, AggValue)>,
    vertices: u64,
    version: Option<u64>,
}

struct Gen {
    rng: StdRng,
    next_version: u64,
    vertices: FxHashMap<u64, Vertex>,
    context: Context,
}

impl Gen {
    fn float(&mut self) -> f64 {
        FLOATS[self.rng.gen_range(0..FLOATS.len())]
    }

    fn text(&mut self) -> String {
        const TEXTS: [&str; 5] = ["", "a", "zz", "alpha", "\u{e9}t\u{e9}"];
        TEXTS[self.rng.gen_range(0..TEXTS.len())].to_string()
    }

    fn value(&mut self) -> Val {
        let mid = (0..self.rng.gen_range(0..3)).map(|i| i as i8 - 1).collect();
        Val { zeta: self.float(), alpha: self.text(), mid }
    }

    fn message(&mut self) -> Msg {
        match self.rng.gen_bool(0.5) {
            true => Msg::Num(self.float()),
            false => Msg::Pair { zeta: self.float(), alpha: self.text() },
        }
    }

    fn fresh(&mut self) -> u64 {
        self.next_version += 1;
        self.next_version
    }

    /// A version for content that is `equal` to the content `kept` was
    /// given for: kept, bumped or none; content that changed gets a fresh
    /// one or none.
    fn version(&mut self, equal: bool, kept: Option<u64>) -> Option<u64> {
        match self.rng.gen_range(0..3) {
            0 if equal => kept,
            0 | 1 => Some(self.fresh()),
            _ => None,
        }
    }

    fn edges(&mut self) -> Vec<(u64, f64)> {
        let degree = self.rng.gen_range(0..4);
        (0..degree).map(|_| (self.rng.gen_range(0..8), self.float())).collect()
    }

    fn vertex(&mut self) -> Vertex {
        let edges = self.edges();
        Vertex { edges, edges_version: None, value: self.value(), value_version: None }
    }

    /// The next context: most often the same one.
    fn advance_context(&mut self) {
        let changed = match self.rng.gen_range(0..10) {
            0 | 1 => {
                self.context.superstep += 1;
                self.context.vertices = self.rng.gen_range(8..10);
                true
            }
            2 => {
                // An aggregator is typed: its JSON line holds no NaN.
                let x = self.float();
                let value = AggValue::Double(if x.is_nan() { 0.5 } else { x });
                self.context.aggregators = match self.rng.gen_bool(0.3) {
                    true => vec![],
                    false => {
                        vec![("phase".into(), AggValue::Text(self.text())), ("x".into(), value)]
                    }
                };
                true
            }
            // A superstep that recurs after another one.
            3 if self.context.superstep > 0 => {
                self.context.superstep -= 1;
                true
            }
            _ => false,
        };
        let kept = self.context.version;
        self.context.version = self.version(!changed, kept);
    }

    fn append(&mut self) -> Append {
        self.advance_context();
        let id = self.rng.gen_range(0..5);
        let mut vertex = match self.vertices.get(&id) {
            Some(vertex) => vertex.clone(),
            None => self.vertex(),
        };
        let same_edges = self.rng.gen_bool(0.6);
        if !same_edges {
            vertex.edges = self.edges();
        }
        vertex.edges_version = self.version(same_edges, vertex.edges_version);
        let same_before = self.rng.gen_bool(0.7);
        let value_before = match same_before {
            true => vertex.value.clone(),
            false => self.value(),
        };
        let before_version = self.version(same_before, vertex.value_version);
        let same_after = self.rng.gen_bool(0.5);
        let value_after = match same_after {
            true => value_before.clone(),
            false => self.value(),
        };
        let after_version = self.version(same_after, before_version);
        vertex.value = value_after.clone();
        vertex.value_version = after_version;
        let (outgoing, broadcast) = match self.rng.gen_range(0..3) {
            // Along every edge, one message: a broadcast unless NaN, -0.0
            // and 0.0 break the bytes, vouched for where every send is a
            // clone of the first.
            0 | 1 => {
                let message = self.message();
                let (second, clones) = match self.rng.gen_bool(0.2) {
                    true => (self.message(), vertex.edges.len() < 2),
                    false => (message.clone(), true),
                };
                let sends = vertex.edges.iter().enumerate();
                let pick = |(at, _): (usize, _)| if at == 1 { &second } else { &message };
                let sends = sends.map(|send| (send.1 .0, pick(send).clone())).collect();
                (sends, clones && !vertex.edges.is_empty())
            }
            _ => ((0..self.rng.gen_range(0..3)).map(|i| (i, self.message())).collect(), false),
        };
        let incoming = (0..self.rng.gen_range(0..3)).map(|_| self.message()).collect();
        let superstep = self.context.superstep;
        let record = VertexTrace {
            superstep,
            vertex: id,
            value_before,
            value_after,
            edges: vertex.edges.clone(),
            incoming,
            outgoing,
            aggregators: self.context.aggregators.clone(),
            global: GlobalData { superstep, num_vertices: self.context.vertices, num_edges: 12 },
            halted_after: self.rng.gen_bool(0.3),
            reasons: vec![CaptureReason::AllActive],
            violations: vec![],
            exception: None,
        };
        let edges_version = vertex.edges_version;
        self.vertices.insert(id, vertex);
        let value_versions = before_version.zip(after_version);
        let context_version = self.context.version;
        Append { record, edges_version, value_versions, context_version, broadcast }
    }

    fn master(&mut self) -> MasterTrace {
        let superstep = self.context.superstep;
        MasterTrace {
            superstep,
            global: GlobalData { superstep, num_vertices: 8, num_edges: 12 },
            aggregators: self.context.aggregators.clone(),
            halted: self.rng.gen_bool(0.1),
        }
    }

    fn case(seed: u64) -> Vec<Op> {
        let mut gen = Gen {
            rng: StdRng::seed_from_u64(seed),
            next_version: 0,
            vertices: FxHashMap::default(),
            context: Context { superstep: 0, aggregators: vec![], vertices: 8, version: None },
        };
        let (mut ops, mut marks) = (Vec::new(), 0usize);
        for _ in 0..gen.rng.gen_range(8..48) {
            let op = match gen.rng.gen_range(0..20) {
                0..=11 => Op::Vertex(Box::new(gen.append())),
                12 | 13 => Op::Master(gen.master()),
                14..=16 => {
                    marks += 1;
                    Op::Mark
                }
                17 | 18 if marks > 0 => {
                    let to = gen.rng.gen_range(0..marks);
                    marks = to + 1;
                    Op::Truncate(to)
                }
                _ => Op::Resume,
            };
            ops.push(op);
        }
        ops
    }
}

/// What a run of a case left: the two channels and the records they hold.
#[derive(Default)]
struct Run {
    worker: Vec<u8>,
    master: Vec<u8>,
    records: Vec<Trace>,
    masters: Vec<MasterTrace>,
}

/// Runs `ops`, resuming where a [`Op::Resume`] says so only if `resumes`
/// (a truncation always resumes), and handing over versions only
/// `with_versions`.
fn run(ops: &[Op], resumes: bool, with_versions: bool) -> Run {
    let mut out = Run::default();
    let (mut worker, mut master) = (ChannelWriter::default(), ChannelWriter::default());
    let mut marks: Vec<(ChannelMark, ChannelMark, usize, usize)> = Vec::new();
    let resume = |writer: &mut ChannelWriter, bytes: &[u8]| {
        let resumed = ChannelWriter::resume(bytes);
        assert_eq!(resumed.mark(), writer.mark(), "a resumed writer stands where the writer did");
        *writer = resumed;
    };
    for op in ops {
        match op {
            Op::Vertex(append) => {
                worker.append_vertex(&append.capture(with_versions), &mut out.worker).unwrap();
                out.records.push(append.record.clone());
            }
            Op::Master(record) => {
                master.append_master(record, &mut out.master).unwrap();
                out.masters.push(record.clone());
            }
            Op::Mark => {
                marks.push((worker.mark(), master.mark(), out.records.len(), out.masters.len()));
            }
            Op::Truncate(to) => {
                marks.truncate(to + 1);
                let (worker_mark, master_mark, records, masters) = marks[*to].clone();
                out.worker.truncate(worker_mark.written as usize);
                out.master.truncate(master_mark.written as usize);
                worker = ChannelWriter::resume(&out.worker);
                master = ChannelWriter::resume(&out.master);
                assert_eq!((worker.mark(), master.mark()), (worker_mark, master_mark));
                out.records.truncate(records);
                out.masters.truncate(masters);
            }
            Op::Resume if resumes => {
                resume(&mut worker, &out.worker);
                resume(&mut master, &out.master);
            }
            Op::Resume => {}
        }
    }
    out
}

/// `value` as JSON text by way of a JSON tree: keys sorted, NaN null, and
/// `-0.0` apart from `0.0`.
fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_value(value).unwrap().to_string()
}

fn json_lines<T: Serialize>(records: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    for record in records {
        serde_json::to_vec_into(record, &mut out).unwrap();
        out.push(b'\n');
    }
    out
}

fn check(seed: u64) {
    let ops = Gen::case(seed);
    let at = |what: &str| format!("seed {seed}: {what}\n{ops:#?}");
    let main = run(&ops, true, true);

    let mut decoded = Vec::new();
    let channel = VertexChannel::new(&main.worker);
    let read = for_each_vertex_record(channel, None, |record| {
        decoded.push(json(&record));
        Ok(())
    });
    if let Err(e) = read {
        panic!("{}", at(&format!("the worker channel does not read: {e}")));
    }
    let expected: Vec<String> = main.records.iter().map(json).collect();
    assert_eq!(decoded, expected, "{}", at("the worker channel decodes to the model"));
    let masters = decode_master_records(&main.master, None).unwrap();
    let expected: Vec<String> = main.masters.iter().map(json).collect();
    assert_eq!(masters.iter().map(json).collect::<Vec<_>>(), expected, "{}", at("masters"));

    let twin = run(&ops, true, false);
    assert!(twin.worker == main.worker, "{}", at("the versions change no byte"));
    let uninterrupted = run(&ops, false, true);
    assert!(uninterrupted.worker == main.worker, "{}", at("a resume changes no byte"));
    assert!(uninterrupted.master == main.master, "{}", at("a master resume"));
    let mut fresh = (ChannelWriter::default(), Vec::new());
    for record in &main.records {
        fresh.0.append_vertex(record, &mut fresh.1).unwrap();
    }
    assert!(fresh.1 == main.worker, "{}", at("a fresh writer fed the model"));
    let lines = json_lines(&main.records);
    let door = native_channel(TraceFormat::JsonLines, ChannelKind::Worker, lines, false);
    assert!(door.unwrap() == main.worker, "{}", at("the model as JSON lines"));
    let lines = json_lines(&main.masters);
    let door = native_channel(TraceFormat::JsonLines, ChannelKind::Master, lines, false);
    assert!(door.unwrap() == main.master, "{}", at("the master model as JSON lines"));
}

#[test]
fn the_channel_writer_is_a_pure_function_of_its_records() {
    for seed in 0..600 {
        check(seed);
    }
}
