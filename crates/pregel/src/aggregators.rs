//! Aggregators: global objects visible to all vertices, merged at
//! superstep boundaries.
//!
//! Following Giraph, aggregators are *named* and *typed*. A vertex calls
//! `ctx.aggregate(name, value)` any number of times during a superstep;
//! the system folds the updates with the aggregator's merge operator and
//! the merged value becomes visible to every vertex (and to
//! `master.compute()`) in the next superstep. *Regular* aggregators reset
//! to their identity each superstep; *persistent* ones keep accumulating.

use serde::{Deserialize, Serialize};

use crate::hash::FxHashMap;

/// A dynamically-typed aggregator value.
///
/// Giraph aggregators are generic over a `Writable`; Graft's traces must
/// serialize them uniformly, so this enum covers the value shapes that
/// Giraph's bundled aggregators use (longs, doubles, booleans, text, and
/// a pair used for argmax-style aggregation).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum AggValue {
    /// 64-bit signed integer.
    Long(i64),
    /// 64-bit float.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Text (e.g. a computation phase name).
    Text(String),
    /// A `(key, value)` pair, e.g. for argmax/argmin aggregation.
    Pair(i64, f64),
}

impl AggValue {
    /// The `i64` payload, if this is a `Long`.
    pub fn as_long(&self) -> Option<i64> {
        match self {
            AggValue::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// The `f64` payload, if this is a `Double`.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            AggValue::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// The `bool` payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AggValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The text payload, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AggValue::Text(v) => Some(v),
            _ => None,
        }
    }

    /// Variant name, for error messages and the GUI.
    pub fn type_name(&self) -> &'static str {
        match self {
            AggValue::Long(_) => "long",
            AggValue::Double(_) => "double",
            AggValue::Bool(_) => "bool",
            AggValue::Text(_) => "text",
            AggValue::Pair(_, _) => "pair",
        }
    }
}

impl std::fmt::Display for AggValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggValue::Long(v) => write!(f, "{v}"),
            AggValue::Double(v) => write!(f, "{v}"),
            AggValue::Bool(v) => write!(f, "{v}"),
            AggValue::Text(v) => write!(f, "{v:?}"),
            AggValue::Pair(k, v) => write!(f, "({k}, {v})"),
        }
    }
}

/// Merge operators for aggregators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum AggOp {
    /// Numeric sum (`Long`/`Double`).
    Sum,
    /// Numeric minimum (`Long`/`Double`, or `Pair` by value).
    Min,
    /// Numeric maximum (`Long`/`Double`, or `Pair` by value).
    Max,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Last write wins (in worker-merge order; used for master-set values
    /// such as computation phases, which vertices do not update).
    Overwrite,
}

impl AggOp {
    /// Merges `b` into `a`.
    ///
    /// # Panics
    /// Panics when the operand variants do not match the operator — that
    /// is a programming error in the algorithm (Giraph likewise throws).
    pub fn merge(self, a: &AggValue, b: &AggValue) -> AggValue {
        use AggValue::*;
        match (self, a, b) {
            (AggOp::Sum, Long(x), Long(y)) => Long(x.wrapping_add(*y)),
            (AggOp::Sum, Double(x), Double(y)) => Double(x + y),
            (AggOp::Min, Long(x), Long(y)) => Long(*x.min(y)),
            (AggOp::Min, Double(x), Double(y)) => Double(x.min(*y)),
            (AggOp::Min, Pair(xk, xv), Pair(yk, yv)) => {
                if yv < xv {
                    Pair(*yk, *yv)
                } else {
                    Pair(*xk, *xv)
                }
            }
            (AggOp::Max, Long(x), Long(y)) => Long(*x.max(y)),
            (AggOp::Max, Double(x), Double(y)) => Double(x.max(*y)),
            (AggOp::Max, Pair(xk, xv), Pair(yk, yv)) => {
                if yv > xv {
                    Pair(*yk, *yv)
                } else {
                    Pair(*xk, *xv)
                }
            }
            (AggOp::And, Bool(x), Bool(y)) => Bool(*x && *y),
            (AggOp::Or, Bool(x), Bool(y)) => Bool(*x || *y),
            (AggOp::Overwrite, _, y) => y.clone(),
            (op, a, b) => panic!(
                "aggregator type mismatch: cannot {op:?}-merge {} with {}",
                a.type_name(),
                b.type_name()
            ),
        }
    }

    /// Whether `merge(a, b) == merge(b, a)` for all well-typed operands.
    /// `Overwrite` is the one built-in that is not: its result is whatever
    /// worker partial arrives last, so vertex-side updates through it are
    /// order-dependent (the analyzer's GA0005).
    pub fn is_commutative(self) -> bool {
        !matches!(self, AggOp::Overwrite)
    }

    /// Whether `merge(merge(a, b), c) == merge(a, merge(b, c))`. All
    /// built-in operators are associative by construction (`Sum` over
    /// `Double` only up to floating-point rounding).
    pub fn is_associative(self) -> bool {
        true
    }

    /// Whether `merge(a, a) == a`. `Min`/`Max`/`And`/`Or`/`Overwrite` are;
    /// `Sum` is not (duplicated delivery would double-count).
    pub fn is_idempotent(self) -> bool {
        !matches!(self, AggOp::Sum)
    }

    /// Whether the merged result is independent of the order workers'
    /// partials are folded in — the safety condition the Pregel model
    /// assumes. Equivalent to commutative *and* associative.
    pub fn is_order_insensitive(self) -> bool {
        self.is_commutative() && self.is_associative()
    }

    /// The identity element a regular aggregator resets to, given a
    /// prototype value for its type.
    pub fn identity_like(self, prototype: &AggValue) -> AggValue {
        use AggValue::*;
        match (self, prototype) {
            (AggOp::Sum, Long(_)) => Long(0),
            (AggOp::Sum, Double(_)) => Double(0.0),
            (AggOp::Min, Long(_)) => Long(i64::MAX),
            (AggOp::Min, Double(_)) => Double(f64::INFINITY),
            (AggOp::Min, Pair(_, _)) => Pair(i64::MIN, f64::INFINITY),
            (AggOp::Max, Long(_)) => Long(i64::MIN),
            (AggOp::Max, Double(_)) => Double(f64::NEG_INFINITY),
            (AggOp::Max, Pair(_, _)) => Pair(i64::MIN, f64::NEG_INFINITY),
            (AggOp::And, _) => Bool(true),
            (AggOp::Or, _) => Bool(false),
            (AggOp::Overwrite, other) => other.clone(),
            (op, proto) => {
                panic!("aggregator op {op:?} has no identity for type {}", proto.type_name())
            }
        }
    }
}

#[derive(Clone, Debug)]
struct Registered {
    op: AggOp,
    /// Value merged during the previous superstep, visible this superstep.
    current: AggValue,
    /// Identity the accumulator resets to (regular aggregators).
    identity: AggValue,
    persistent: bool,
}

/// The master-side table of registered aggregators.
#[derive(Clone, Debug, Default)]
pub struct AggregatorRegistry {
    entries: FxHashMap<String, Registered>,
    /// Insertion order, for deterministic snapshots.
    order: Vec<String>,
}

impl AggregatorRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a *regular* aggregator that resets to the identity of
    /// `op` (derived from `initial`'s type) at every superstep boundary.
    pub fn register(&mut self, name: &str, op: AggOp, initial: AggValue) {
        let identity = op.identity_like(&initial);
        self.insert(name, Registered { op, current: initial, identity, persistent: false });
    }

    /// Registers a *persistent* aggregator that keeps its merged value
    /// across supersteps instead of resetting.
    pub fn register_persistent(&mut self, name: &str, op: AggOp, initial: AggValue) {
        let identity = op.identity_like(&initial);
        self.insert(name, Registered { op, current: initial, identity, persistent: true });
    }

    fn insert(&mut self, name: &str, entry: Registered) {
        if self.entries.insert(name.to_string(), entry).is_none() {
            self.order.push(name.to_string());
        }
    }

    /// The value visible to vertices in the current superstep.
    pub fn get(&self, name: &str) -> Option<&AggValue> {
        self.entries.get(name).map(|e| &e.current)
    }

    /// Overwrites an aggregator's value (master-only operation).
    ///
    /// # Panics
    /// Panics if `name` was never registered.
    pub fn set(&mut self, name: &str, value: AggValue) {
        let entry = self
            .entries
            .get_mut(name)
            .unwrap_or_else(|| panic!("aggregator {name:?} not registered"));
        entry.current = value;
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Names in registration order.
    pub fn names(&self) -> &[String] {
        &self.order
    }

    /// The `(name, value)` pairs visible this superstep, borrowed, in
    /// registration order.
    pub fn visible(&self) -> impl ExactSizeIterator<Item = (&str, &AggValue)> + Clone {
        self.order.iter().map(|name| (name.as_str(), &self.entries[name].current))
    }

    /// Deterministic `(name, value)` snapshot of the values visible this
    /// superstep — what Graft stores in vertex and master traces.
    pub fn snapshot(&self) -> Vec<(String, AggValue)> {
        self.visible().map(|(name, value)| (name.to_string(), value.clone())).collect()
    }

    /// Merge operator of a registered aggregator.
    pub fn op(&self, name: &str) -> Option<AggOp> {
        self.entries.get(name).map(|e| e.op)
    }

    /// Folds worker partials gathered during superstep `s` into the values
    /// that will be visible in superstep `s + 1`.
    ///
    /// Regular aggregators restart from their identity; persistent ones
    /// continue from their current value.
    pub fn merge_superstep(&mut self, partials: Vec<WorkerAggregators>) {
        for name in &self.order {
            let entry = self.entries.get_mut(name).expect("ordered names are registered");
            let mut acc =
                if entry.persistent { entry.current.clone() } else { entry.identity.clone() };
            let mut saw_update = entry.persistent;
            for worker in &partials {
                if let Some(update) = worker.partials.get(name.as_str()) {
                    acc = entry.op.merge(&acc, update);
                    saw_update = true;
                }
            }
            if saw_update {
                entry.current = acc;
            } else if !entry.persistent {
                // No vertex touched a regular aggregator: it reads as its
                // identity next superstep (Giraph behaviour).
                entry.current = entry.identity.clone();
            }
        }
    }
}

/// Worker-local aggregator partials accumulated during one superstep.
#[derive(Clone, Debug, Default)]
pub struct WorkerAggregators {
    partials: FxHashMap<String, AggValue>,
    ops: FxHashMap<String, AggOp>,
}

impl WorkerAggregators {
    /// Creates an empty partial table that validates names/ops against
    /// `registry`.
    pub fn for_registry(registry: &AggregatorRegistry) -> Self {
        let ops =
            registry.order.iter().map(|name| (name.clone(), registry.entries[name].op)).collect();
        Self { partials: FxHashMap::default(), ops }
    }

    /// Folds `value` into the worker-local partial for `name`.
    ///
    /// # Panics
    /// Panics if `name` was never registered — same contract as Giraph's
    /// `aggregate()`.
    pub fn aggregate(&mut self, name: &str, value: AggValue) {
        let op =
            *self.ops.get(name).unwrap_or_else(|| panic!("aggregator {name:?} not registered"));
        match self.partials.get_mut(name) {
            Some(acc) => *acc = op.merge(acc, &value),
            None => {
                self.partials.insert(name.to_string(), value);
            }
        }
    }

    /// Whether any aggregation happened this superstep.
    pub fn is_empty(&self) -> bool {
        self.partials.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_ops() {
        use AggValue::*;
        assert_eq!(AggOp::Sum.merge(&Long(2), &Long(3)), Long(5));
        assert_eq!(AggOp::Sum.merge(&Double(0.5), &Double(0.25)), Double(0.75));
        assert_eq!(AggOp::Min.merge(&Long(2), &Long(3)), Long(2));
        assert_eq!(AggOp::Max.merge(&Double(2.0), &Double(3.0)), Double(3.0));
        assert_eq!(AggOp::And.merge(&Bool(true), &Bool(false)), Bool(false));
        assert_eq!(AggOp::Or.merge(&Bool(false), &Bool(true)), Bool(true));
        assert_eq!(AggOp::Overwrite.merge(&Text("a".into()), &Text("b".into())), Text("b".into()));
        assert_eq!(AggOp::Max.merge(&Pair(1, 0.5), &Pair(2, 0.9)), Pair(2, 0.9));
        assert_eq!(AggOp::Min.merge(&Pair(1, 0.5), &Pair(2, 0.9)), Pair(1, 0.5));
    }

    #[test]
    fn algebraic_classification() {
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::And, AggOp::Or] {
            assert!(op.is_commutative(), "{op:?}");
            assert!(op.is_order_insensitive(), "{op:?}");
        }
        assert!(!AggOp::Overwrite.is_commutative());
        assert!(!AggOp::Overwrite.is_order_insensitive());
        assert!(AggOp::Overwrite.is_associative());
        assert!(!AggOp::Sum.is_idempotent());
        for op in [AggOp::Min, AggOp::Max, AggOp::And, AggOp::Or, AggOp::Overwrite] {
            assert!(op.is_idempotent(), "{op:?}");
        }
        // Spot-check the claims against merge() itself.
        use AggValue::*;
        for (a, b) in [(Long(3), Long(9)), (Long(-2), Long(7))] {
            assert_eq!(AggOp::Min.merge(&a, &b), AggOp::Min.merge(&b, &a));
            assert_eq!(AggOp::Sum.merge(&a, &b), AggOp::Sum.merge(&b, &a));
        }
        assert_ne!(
            AggOp::Overwrite.merge(&Long(1), &Long(2)),
            AggOp::Overwrite.merge(&Long(2), &Long(1))
        );
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn mismatched_merge_panics() {
        AggOp::Sum.merge(&AggValue::Long(1), &AggValue::Double(1.0));
    }

    #[test]
    fn regular_aggregator_resets_each_superstep() {
        let mut reg = AggregatorRegistry::new();
        reg.register("count", AggOp::Sum, AggValue::Long(0));

        let mut w = WorkerAggregators::for_registry(&reg);
        w.aggregate("count", AggValue::Long(5));
        w.aggregate("count", AggValue::Long(7));
        reg.merge_superstep(vec![w]);
        assert_eq!(reg.get("count"), Some(&AggValue::Long(12)));

        // Next superstep nobody aggregates: the value resets to identity.
        reg.merge_superstep(vec![WorkerAggregators::for_registry(&reg)]);
        assert_eq!(reg.get("count"), Some(&AggValue::Long(0)));
    }

    #[test]
    fn persistent_aggregator_accumulates() {
        let mut reg = AggregatorRegistry::new();
        reg.register_persistent("total", AggOp::Sum, AggValue::Long(0));
        for _ in 0..3 {
            let mut w = WorkerAggregators::for_registry(&reg);
            w.aggregate("total", AggValue::Long(10));
            reg.merge_superstep(vec![w]);
        }
        assert_eq!(reg.get("total"), Some(&AggValue::Long(30)));
    }

    #[test]
    fn multi_worker_merge_is_order_insensitive_for_sum() {
        let mut reg = AggregatorRegistry::new();
        reg.register("s", AggOp::Sum, AggValue::Long(0));
        let mut a = WorkerAggregators::for_registry(&reg);
        let mut b = WorkerAggregators::for_registry(&reg);
        a.aggregate("s", AggValue::Long(1));
        b.aggregate("s", AggValue::Long(2));
        reg.merge_superstep(vec![a, b]);
        assert_eq!(reg.get("s"), Some(&AggValue::Long(3)));
    }

    #[test]
    fn master_set_value_survives_until_overwritten() {
        let mut reg = AggregatorRegistry::new();
        reg.register_persistent("phase", AggOp::Overwrite, AggValue::Text("INIT".into()));
        reg.set("phase", AggValue::Text("MIS".into()));
        reg.merge_superstep(vec![WorkerAggregators::for_registry(&reg)]);
        assert_eq!(reg.get("phase").unwrap().as_text(), Some("MIS"));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn aggregate_unregistered_panics() {
        let reg = AggregatorRegistry::new();
        let mut w = WorkerAggregators::for_registry(&reg);
        w.aggregate("missing", AggValue::Long(1));
    }

    #[test]
    fn snapshot_is_in_registration_order() {
        let mut reg = AggregatorRegistry::new();
        reg.register("z", AggOp::Sum, AggValue::Long(0));
        reg.register("a", AggOp::Sum, AggValue::Long(0));
        let names: Vec<String> = reg.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["z", "a"]);
    }
}
