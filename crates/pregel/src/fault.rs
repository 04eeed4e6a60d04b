//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a list of faults, each pinned to a superstep, that
//! the engine (and the Graft runner, for datanode faults) triggers at
//! most once per job. Because the schedule is data, not randomness, a
//! chaos run is exactly reproducible: the same plan against the same
//! graph always fails at the same point, which is what lets the
//! fault-tolerance tests demand byte-identical recovery.
//!
//! A "crashed" worker reports the fault through its per-phase result
//! slot; the pool thread itself survives and parks at the barrier, so
//! the same thread serves the recovery replay.
//!
//! Plans can be written in a compact spec syntax for the CLI:
//!
//! ```text
//! kill-worker:<w>@<s>     worker w crashes at the start of superstep s
//! panic@<s>               a compute() call panics in superstep s
//! panic:<w>@<s>           …confined to worker w
//! kill-datanode:<d>@<s>   datanode d dies before superstep s runs
//! ```
//!
//! Multiple faults are separated with `;` or `,`:
//! `kill-worker:1@3;kill-datanode:0@2`.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// One scheduled fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Worker `worker` crashes at the start of superstep `superstep`,
    /// before computing any of its vertices — the moral equivalent of a
    /// Giraph worker JVM dying mid-job.
    KillWorker {
        /// Worker (== partition) index.
        worker: usize,
        /// Superstep at which the crash fires.
        superstep: u64,
    },
    /// A `compute()` call panics in superstep `superstep`. When `worker`
    /// is `Some`, only that worker's first compute call panics; otherwise
    /// the first compute call of any worker does.
    ComputePanic {
        /// Restrict the panic to one worker, or any worker when `None`.
        worker: Option<usize>,
        /// Superstep at which the panic fires.
        superstep: u64,
    },
    /// Datanode `node` is killed before superstep `superstep` executes.
    /// The engine itself has no datanode notion; the Graft runner maps
    /// this onto its `ClusterFs`.
    KillDatanode {
        /// Datanode index in the cluster.
        node: usize,
        /// Superstep before which the kill fires.
        superstep: u64,
    },
}

impl Fault {
    /// The superstep this fault is scheduled for.
    pub fn superstep(&self) -> u64 {
        match *self {
            Fault::KillWorker { superstep, .. }
            | Fault::ComputePanic { superstep, .. }
            | Fault::KillDatanode { superstep, .. } => superstep,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::KillWorker { worker, superstep } => {
                write!(f, "kill-worker:{worker}@{superstep}")
            }
            Fault::ComputePanic { worker: Some(w), superstep } => {
                write!(f, "panic:{w}@{superstep}")
            }
            Fault::ComputePanic { worker: None, superstep } => write!(f, "panic@{superstep}"),
            Fault::KillDatanode { node, superstep } => {
                write!(f, "kill-datanode:{node}@{superstep}")
            }
        }
    }
}

/// A parse error for the fault-plan spec syntax.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlanParseError {
    /// The offending spec fragment.
    pub fragment: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec {:?}: {}", self.fragment, self.reason)
    }
}

impl std::error::Error for FaultPlanParseError {}

/// An ordered collection of scheduled faults.
///
/// The plan itself is inert data (`Clone`, `PartialEq`); the engine arms
/// it at job start into per-run fire-once state, so a fault consumed
/// before a recovery does not re-fire during the replay.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault to the plan.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Parses the CLI spec syntax (see the module docs).
    pub fn parse(spec: &str) -> Result<Self, FaultPlanParseError> {
        let mut plan = FaultPlan::new();
        for raw in spec.split([';', ',']) {
            let frag = raw.trim();
            if frag.is_empty() {
                continue;
            }
            plan.faults.push(parse_fault(frag)?);
        }
        Ok(plan)
    }

    /// The scheduled faults, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The `(node, superstep)` pairs of every datanode kill in the plan.
    pub fn datanode_kills(&self) -> Vec<(usize, u64)> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::KillDatanode { node, superstep } => Some((node, superstep)),
                _ => None,
            })
            .collect()
    }

    /// Whether the plan contains any worker-level fault (crash or panic)
    /// the engine itself must inject.
    pub fn has_worker_faults(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::KillWorker { .. } | Fault::ComputePanic { .. }))
    }
}

impl FromStr for FaultPlan {
    type Err = FaultPlanParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultPlan::parse(s)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

fn parse_fault(frag: &str) -> Result<Fault, FaultPlanParseError> {
    let err = |reason: &str| FaultPlanParseError {
        fragment: frag.to_string(),
        reason: reason.to_string(),
    };
    let (head, superstep) = frag.rsplit_once('@').ok_or_else(|| err("missing '@<superstep>'"))?;
    let superstep: u64 = superstep.trim().parse().map_err(|_| err("superstep is not a number"))?;
    let (kind, arg) = match head.split_once(':') {
        Some((k, a)) => (k.trim(), Some(a.trim())),
        None => (head.trim(), None),
    };
    match kind {
        "kill-worker" => {
            let worker = arg
                .ok_or_else(|| err("kill-worker needs ':<worker>'"))?
                .parse()
                .map_err(|_| err("worker is not a number"))?;
            Ok(Fault::KillWorker { worker, superstep })
        }
        "panic" => {
            let worker = match arg {
                Some(a) => Some(a.parse().map_err(|_| err("worker is not a number"))?),
                None => None,
            };
            Ok(Fault::ComputePanic { worker, superstep })
        }
        "kill-datanode" => {
            let node = arg
                .ok_or_else(|| err("kill-datanode needs ':<node>'"))?
                .parse()
                .map_err(|_| err("datanode is not a number"))?;
            Ok(Fault::KillDatanode { node, superstep })
        }
        other => Err(err(&format!(
            "unknown fault kind {other:?} (expected kill-worker, panic, or kill-datanode)"
        ))),
    }
}

/// A fault plan armed for one job run: each fault carries a fire-once
/// flag so a fault consumed before a recovery does not re-fire when the
/// engine replays the same supersteps.
pub(crate) struct ArmedFaults {
    faults: Vec<Fault>,
    fired: Vec<AtomicBool>,
}

impl ArmedFaults {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let faults = plan.faults.clone();
        let fired = faults.iter().map(|_| AtomicBool::new(false)).collect();
        Self { faults, fired }
    }

    /// Consumes a pending worker-crash fault for `(worker, superstep)`.
    pub(crate) fn take_worker_crash(&self, worker: usize, superstep: u64) -> bool {
        self.take(|f| matches!(*f, Fault::KillWorker { worker: w, superstep: s } if w == worker && s == superstep))
    }

    /// Consumes a pending compute-panic fault for `(worker, superstep)`.
    pub(crate) fn take_compute_panic(&self, worker: usize, superstep: u64) -> bool {
        self.take(|f| {
            matches!(*f, Fault::ComputePanic { worker: w, superstep: s }
                if s == superstep && w.is_none_or(|w| w == worker))
        })
    }

    fn take(&self, matches: impl Fn(&Fault) -> bool) -> bool {
        for (fault, fired) in self.faults.iter().zip(&self.fired) {
            if matches(fault)
                && fired.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_fault_kinds() {
        let plan =
            FaultPlan::parse("kill-worker:1@3; panic@2, panic:0@5;kill-datanode:2@4").unwrap();
        assert_eq!(
            plan.faults(),
            &[
                Fault::KillWorker { worker: 1, superstep: 3 },
                Fault::ComputePanic { worker: None, superstep: 2 },
                Fault::ComputePanic { worker: Some(0), superstep: 5 },
                Fault::KillDatanode { node: 2, superstep: 4 },
            ]
        );
        assert_eq!(plan.datanode_kills(), vec![(2, 4)]);
        assert!(plan.has_worker_faults());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let spec = "kill-worker:1@3;panic@2;panic:0@5;kill-datanode:2@4";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_string(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("  ").unwrap();
        assert!(plan.is_empty());
        assert!(!plan.has_worker_faults());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in ["kill-worker:1", "panic@x", "kill-worker@3", "frobnicate:1@2", "@3"] {
            assert!(FaultPlan::parse(bad).is_err(), "spec {bad:?} should not parse");
        }
    }

    #[test]
    fn armed_faults_fire_once() {
        let plan = FaultPlan::new().with(Fault::KillWorker { worker: 1, superstep: 3 });
        let armed = ArmedFaults::new(&plan);
        assert!(!armed.take_worker_crash(1, 2));
        assert!(!armed.take_worker_crash(0, 3));
        assert!(armed.take_worker_crash(1, 3));
        // Recovery replays superstep 3; the fault must not re-fire.
        assert!(!armed.take_worker_crash(1, 3));
    }

    #[test]
    fn unconfined_panic_fires_for_any_worker_once() {
        let plan = FaultPlan::new().with(Fault::ComputePanic { worker: None, superstep: 1 });
        let armed = ArmedFaults::new(&plan);
        assert!(!armed.take_compute_panic(0, 0));
        assert!(armed.take_compute_panic(2, 1));
        assert!(!armed.take_compute_panic(0, 1));
    }
}
