//! The Context Reproducer (paper Section 3.3): given a captured trace,
//! either (a) replay the exact `compute()` call in-process through the
//! single-vertex harness, or (b) generate Rust test source the user can
//! paste into their own test suite — the analogue of the JUnit + Mockito
//! files in the paper's Figure 6.

use std::collections::BTreeMap;

use graft_codec::TaggedBytes;
use graft_pregel::harness::{HarnessResult, VertexTestHarness};
use graft_pregel::{AggValue, Computation, GlobalData};

use crate::codegen::{agg_value_literal, clean_type_name, debug_literal, json_literal, Template};
use crate::trace::{JobMeta, MasterTrace, VertexTraceOf};
use crate::untyped::UntypedTrace;

/// How faithfully an in-process replay reproduced the recorded behaviour.
///
/// For deterministic `compute()` functions (which is what the paper's
/// replay approach assumes — Section 7 discusses the external-data
/// caveat), every field should match.
#[derive(Debug)]
pub struct FidelityReport {
    /// Replayed value-after equals the recorded one.
    pub value_matches: bool,
    /// Replayed outgoing messages equal the recorded ones (order included).
    pub outgoing_matches: bool,
    /// Replayed halt vote equals the recorded one.
    pub halt_matches: bool,
    /// Replay panicked iff the original panicked.
    pub exception_matches: bool,
    /// Human-readable differences.
    pub diffs: Vec<String>,
}

impl FidelityReport {
    /// True when the replay reproduced the recorded behaviour exactly.
    pub fn is_faithful(&self) -> bool {
        self.value_matches && self.outgoing_matches && self.halt_matches && self.exception_matches
    }
}

/// A captured vertex context ready to be replayed or exported.
pub struct ReproducedContext<C: Computation> {
    trace: VertexTraceOf<C>,
    meta: JobMeta,
}

impl<C: Computation> ReproducedContext<C> {
    pub(crate) fn new(trace: VertexTraceOf<C>, meta: JobMeta) -> Self {
        Self { trace, meta }
    }

    /// The underlying trace record.
    pub fn trace(&self) -> &VertexTraceOf<C> {
        &self.trace
    }

    /// Builds the harness that replicates this context, leaving the
    /// caller room to tweak it before running.
    pub fn harness(&self, computation: C) -> VertexTestHarness<C> {
        let mut harness = VertexTestHarness::new(computation)
            .global(self.trace.global)
            .vertex(self.trace.vertex, self.trace.value_before.clone(), self.trace.edges.clone())
            .incoming(self.trace.incoming.clone());
        for (name, value) in &self.trace.aggregators {
            harness = harness.aggregator(name, value.clone());
        }
        harness
    }

    /// Replays the captured `compute()` call in-process. This is the
    /// moral equivalent of stepping through the generated JUnit test in
    /// an IDE — combine it with `graft::steptrace` for line-level events.
    pub fn replay(&self, computation: C) -> HarnessResult<C> {
        self.harness(computation).run()
    }

    /// Replays and diffs against the recorded behaviour.
    pub fn verify_fidelity(&self, computation: C) -> FidelityReport {
        let result = self.replay(computation);
        let mut diffs = Vec::new();

        let value_matches = result.value_after == self.trace.value_after;
        if !value_matches {
            diffs.push(format!(
                "value after: recorded {:?}, replayed {:?}",
                self.trace.value_after, result.value_after
            ));
        }
        let outgoing_matches = result.outgoing == self.trace.outgoing;
        if !outgoing_matches {
            diffs.push(format!(
                "outgoing: recorded {} message(s), replayed {}",
                self.trace.outgoing.len(),
                result.outgoing.len()
            ));
        }
        let halt_matches = result.voted_halt == self.trace.halted_after;
        if !halt_matches {
            diffs.push(format!(
                "halt vote: recorded {}, replayed {}",
                self.trace.halted_after, result.voted_halt
            ));
        }
        let exception_matches = result.panic.is_some() == self.trace.exception.is_some();
        if !exception_matches {
            diffs.push(format!(
                "exception: recorded {:?}, replayed {:?}",
                self.trace.exception.as_ref().map(|e| &e.message),
                result.panic
            ));
        }
        FidelityReport { value_matches, outgoing_matches, halt_matches, exception_matches, diffs }
    }

    /// Generates Rust test source reproducing this context — the Figure 6
    /// equivalent. The generated function is generic over the computation
    /// value so the user supplies their own constructor.
    pub fn generate_test_source(&self) -> String {
        let t = &self.trace;
        let edges = t
            .edges
            .iter()
            .map(|(target, value)| format!("({}, {})", debug_literal(target), debug_literal(value)))
            .collect::<Vec<_>>()
            .join(", ");
        let incoming = t.incoming.iter().map(debug_literal).collect::<Vec<_>>().join(", ");
        let outgoing = t
            .outgoing
            .iter()
            .map(|(target, message)| {
                format!("({}, {})", debug_literal(target), debug_literal(message))
            })
            .collect::<Vec<_>>()
            .join(", ");
        let mut vars = vertex_vars(&self.meta, t.superstep, t.global, &t.aggregators);
        vars.extend([
            ("fn_name", format!("reproduce_vertex_{}_superstep_{}", t.vertex, t.superstep)),
            ("vertex_id", debug_literal(&t.vertex)),
            ("value_before", debug_literal(&t.value_before)),
            ("value_after", debug_literal(&t.value_after)),
            ("edges", edges),
            ("incoming", incoming),
            ("outgoing", outgoing),
            ("halted", t.halted_after.to_string()),
        ]);
        VERTEX_TEST_TEMPLATE.render(&vars).expect("vertex test template variables are bound")
    }
}

/// The variables of the vertex test template that both reproducers
/// render alike: the job's names and types, the superstep, the graph
/// totals and the aggregator lines.
fn vertex_vars(
    meta: &JobMeta,
    superstep: u64,
    global: GlobalData,
    aggregators: &[(String, AggValue)],
) -> BTreeMap<&'static str, String> {
    let aggregator_lines = aggregators
        .iter()
        .map(|(name, value)| {
            format!("        .aggregator({name:?}, {})\n", agg_value_literal(value))
        })
        .collect::<String>();
    BTreeMap::from([
        ("computation", meta.computation.clone()),
        ("superstep", superstep.to_string()),
        ("num_vertices", global.num_vertices.to_string()),
        ("num_edges", global.num_edges.to_string()),
        ("aggregator_lines", aggregator_lines),
        ("id_ty", clean_type_name(&meta.value_types.0)),
        ("value_ty", clean_type_name(&meta.value_types.1)),
        ("edge_ty", clean_type_name(&meta.value_types.2)),
        ("message_ty", clean_type_name(&meta.value_types.3)),
    ])
}

static VERTEX_TEST_TEMPLATE: Template = Template::new(
    r#"// Generated by Graft: reproduces the exact context under which
// `${computation}::compute()` ran for vertex ${vertex_id} in superstep ${superstep}.
//
// Call from a #[test] in your crate, passing your computation instance:
//
//     #[test]
//     fn replay_captured_context() {
//         let result = ${fn_name}(${computation}::new(/* your args */));
//         // Step through compute() with your debugger from here, or keep
//         // the assertions below as a regression test.
//     }

#[allow(dead_code)]
pub fn ${fn_name}<C>(computation: C) -> graft_pregel::harness::HarnessResult<C>
where
    C: graft_pregel::Computation<
        Id = ${id_ty},
        VValue = ${value_ty},
        EValue = ${edge_ty},
        Message = ${message_ty},
    >,
{
    use graft_pregel::harness::VertexTestHarness;
    #[allow(unused_imports)]
    use graft_pregel::AggValue;

    let result = VertexTestHarness::new(computation)
        // Default global data the vertex observed (mock GraphState).
        .superstep(${superstep})
        .graph_totals(${num_vertices}, ${num_edges})
        // Aggregators the vertex observed (mock WorkerAggregatorUsage).
${aggregator_lines}        // The vertex's value and outgoing edges at compute() entry.
        .vertex(${vertex_id}, ${value_before}, vec![${edges}])
        // The vertex's incoming messages.
        .incoming(vec![${incoming}])
        .run();

    // Recorded in the original run:
    //   value after compute : ${value_after}
    //   outgoing messages   : [${outgoing}]
    //   voted to halt       : ${halted}
    assert_eq!(result.value_after, ${value_after});
    assert_eq!(result.outgoing, vec![${outgoing}]);
    assert_eq!(result.voted_halt, ${halted});
    result
}
"#,
);

/// Generates vertex test source from a type-erased trace — the same
/// Figure 6 template [`ReproducedContext::generate_test_source`] renders,
/// reachable without the computation's Rust types. This is what the debug
/// server's `/jobs/{id}/repro/{vertex}/{ss}` download serves: values are
/// rendered with [`crate::codegen::json_literal`], so primitives are
/// exact and composite values come out as their JSON text for the user to
/// adapt.
pub fn untyped_test_source(trace: &UntypedTrace, meta: &JobMeta) -> String {
    let t = trace.record();
    let pairs = |list: &[(TaggedBytes, TaggedBytes)]| {
        let pair = |(a, b): &(TaggedBytes, TaggedBytes)| {
            format!("({}, {})", json_literal(a), json_literal(b))
        };
        list.iter().map(pair).collect::<Vec<_>>().join(", ")
    };
    let superstep = t.global.superstep;
    // Vertex ids become part of the function name; anything that is not
    // identifier-safe is folded to '_'.
    let vertex_ident: String =
        trace.vertex().chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();

    let mut vars = vertex_vars(meta, superstep, t.global, &t.aggregators);
    vars.extend([
        ("fn_name", format!("reproduce_vertex_{vertex_ident}_superstep_{superstep}")),
        ("vertex_id", json_literal(&t.vertex)),
        ("value_before", json_literal(&t.value_before)),
        ("value_after", json_literal(&t.value_after)),
        ("edges", pairs(&t.edges)),
        ("incoming", t.incoming.iter().map(json_literal).collect::<Vec<_>>().join(", ")),
        ("outgoing", pairs(&t.outgoing)),
        ("halted", t.halted_after.to_string()),
    ]);
    VERTEX_TEST_TEMPLATE.render(&vars).expect("vertex test template variables are bound")
}

/// A captured master context ready to be replayed or exported.
pub struct ReproducedMaster {
    trace: MasterTrace,
    meta: JobMeta,
}

impl ReproducedMaster {
    pub(crate) fn new(trace: MasterTrace, meta: JobMeta) -> Self {
        Self { trace, meta }
    }

    /// The underlying master trace.
    pub fn trace(&self) -> &MasterTrace {
        &self.trace
    }

    /// Replays `master.compute()` under the captured aggregator values
    /// and returns `(aggregators after, halted)`.
    pub fn replay<C, M>(&self, master: &M) -> (Vec<(String, graft_pregel::AggValue)>, bool)
    where
        C: Computation,
        M: graft_pregel::MasterComputation<C>,
    {
        let mut registry = graft_pregel::AggregatorRegistry::new();
        master.register_aggregators(&mut registry);
        for (name, value) in &self.trace.aggregators {
            if !registry.contains(name) {
                registry.register_persistent(name, graft_pregel::AggOp::Overwrite, value.clone());
            }
            registry.set(name, value.clone());
        }
        let mut ctx = graft_pregel::MasterContext::new_for_replay(self.trace.global, &mut registry);
        master.compute(&mut ctx);
        let halted = ctx.is_halted();
        (registry.snapshot(), halted)
    }

    /// Generates Rust test source reproducing this master context.
    pub fn generate_test_source(&self) -> String {
        let aggregator_lines = self
            .trace
            .aggregators
            .iter()
            .map(|(name, value)| format!("    //   {name} = {value}\n"))
            .collect::<String>();
        let master_name = self.meta.master.clone().unwrap_or_else(|| "YourMaster".to_string());
        let mut vars: BTreeMap<&str, String> = BTreeMap::new();
        vars.insert("master", master_name);
        vars.insert("superstep", self.trace.superstep.to_string());
        vars.insert("num_vertices", self.trace.global.num_vertices.to_string());
        vars.insert("num_edges", self.trace.global.num_edges.to_string());
        vars.insert("aggregator_lines", aggregator_lines);
        vars.insert("halted", self.trace.halted.to_string());
        vars.insert(
            "aggregator_setup",
            self.trace
                .aggregators
                .iter()
                .map(|(name, value)| {
                    format!(
                        "    registry.register_persistent({name:?}, AggOp::Overwrite, {});\n",
                        agg_value_literal(value)
                    )
                })
                .collect::<String>(),
        );
        MASTER_TEST_TEMPLATE.render(&vars).expect("master test template variables are bound")
    }
}

static MASTER_TEST_TEMPLATE: Template = Template::new(
    r#"// Generated by Graft: reproduces the context of `${master}.compute()`
// at the beginning of superstep ${superstep}.
//
// Aggregator values the master observed:
${aggregator_lines}//
// The master ${halted} halted the job here.

#[allow(dead_code)]
pub fn reproduce_master_superstep_${superstep}<C, M>(master: &M) -> bool
where
    C: graft_pregel::Computation,
    M: graft_pregel::MasterComputation<C>,
{
    use graft_pregel::{AggOp, AggValue, AggregatorRegistry, GlobalData, MasterContext};

    let mut registry = AggregatorRegistry::new();
    master.register_aggregators(&mut registry);
${aggregator_setup}
    let global = GlobalData {
        superstep: ${superstep},
        num_vertices: ${num_vertices},
        num_edges: ${num_edges},
    };
    let mut ctx = MasterContext::new_for_replay(global, &mut registry);
    master.compute(&mut ctx);
    ctx.is_halted()
}
"#,
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ChannelWriter, TraceFormat, VertexChannel, VertexTrace};
    use graft_pregel::{ContextOf, VertexHandleOf};

    struct Probe;

    impl Computation for Probe {
        type Id = u64;
        type VValue = f64;
        type EValue = ();
        type Message = f64;

        fn compute(
            &self,
            _vertex: &mut VertexHandleOf<'_, Self>,
            _messages: &[f64],
            _ctx: &mut ContextOf<'_, Self>,
        ) {
        }
    }

    /// A non-finite aggregator is a typed value, so both reproducers write
    /// the same line for it, and a line that compiles.
    #[test]
    fn non_finite_aggregators_render_alike_in_both_reproducers() {
        let trace = VertexTrace {
            superstep: 2,
            vertex: 7,
            value_before: 1.0,
            value_after: 2.5,
            edges: vec![(8, ())],
            incoming: vec![0.5],
            outgoing: vec![(8, 2.5)],
            aggregators: vec![
                ("nan".to_string(), AggValue::Double(f64::NAN)),
                ("inf".to_string(), AggValue::Double(f64::INFINITY)),
                ("ninf".to_string(), AggValue::Double(f64::NEG_INFINITY)),
                ("pair".to_string(), AggValue::Pair(3, f64::NAN)),
            ],
            global: GlobalData { superstep: 2, num_vertices: 9, num_edges: 9 },
            halted_after: false,
            reasons: vec![],
            violations: vec![],
            exception: None,
        };
        let meta = JobMeta {
            computation: "Probe".into(),
            computation_type: "probe::Probe".into(),
            master: None,
            value_types: ("u64".into(), "f64".into(), "()".into(), "f64".into()),
            num_workers: 1,
            trace_format: Some(TraceFormat::NATIVE),
            config: vec![],
            facts: None,
        };
        let mut channel = Vec::new();
        ChannelWriter::default().append_vertex(&trace, &mut channel).unwrap();
        let mut frames = graft_codec::frame::FrameScanner::new(&channel);
        let index = frames.next_frame().unwrap().unwrap();
        let group = graft_codec::from_slice(index.payload).unwrap();
        let frame = frames.next_frame().unwrap().unwrap();
        let record = VertexChannel::new(&channel).record(frame.payload, Some(&group), None);
        let record = record.unwrap();
        let lines = |source: String| -> Vec<String> {
            source.lines().filter(|line| line.contains(".aggregator(")).map(String::from).collect()
        };
        let typed =
            lines(ReproducedContext::<Probe>::new(trace, meta.clone()).generate_test_source());
        let untyped = lines(untyped_test_source(&UntypedTrace::from(record), &meta));
        assert_eq!(
            typed,
            [
                r#"        .aggregator("nan", AggValue::Double(f64::NAN))"#,
                r#"        .aggregator("inf", AggValue::Double(f64::INFINITY))"#,
                r#"        .aggregator("ninf", AggValue::Double(f64::NEG_INFINITY))"#,
                r#"        .aggregator("pair", AggValue::Pair(3, f64::NAN))"#,
            ]
        );
        assert_eq!(untyped, typed);
    }
}
