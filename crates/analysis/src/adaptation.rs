//! "Is this adaptation safe?" — static checking of structural changes
//! *before* they touch a live middleware.
//!
//! The paper's central promise is that applications may adapt the
//! internal positioning process at runtime. Each individual graph call
//! is validated, but a multi-step adaptation can pass every per-edge
//! check and still leave the process unsound in between or at the end
//! (a dangling merge input, a dead subgraph, a feature requirement lost
//! with a detach). [`check_adaptation`] replays a whole
//! [`AdaptationPlan`] on a stand-in graph built from the reflective
//! structure and runs the full whole-graph analysis on the result, so
//! callers can reject unsound adaptations without mutating anything.
//!
//! The replay has no op rules of its own: [`simulate`] calls the
//! [`ProcessingGraph`] ops `Middleware` calls, so a plan step fails
//! (P007) exactly when the same call on the middleware would. A
//! `Connect` the live graph rejects (kind mismatch, missing required
//! feature, cycle) is therefore a P007 at its step and never becomes an
//! edge; the whole-graph lints P001, P003 and P005 judge the structure
//! the plan leaves behind, not the wires it failed to make.

use perpos_core::component::ComponentRole;
use perpos_core::feature::{ComponentFeature, FeatureDescriptor};
use perpos_core::graph::{NodeId, NodeInfo, ProcessingGraph};
use perpos_core::supervision::HealthStatus;
use perpos_core::Middleware;

use crate::dataflow::FlowGraph;
use crate::diagnostic::{Code, Diagnostic, Report, Severity};
use crate::domains::{infer_facts, GraphFacts};

/// One structural change in an adaptation plan.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationOp {
    /// Wire `from`'s output to input `port` of `to`.
    Connect {
        /// Producing node.
        from: NodeId,
        /// Consuming node.
        to: NodeId,
        /// Input port on the consumer.
        port: usize,
    },
    /// Remove the wire into input `port` of `to`.
    Disconnect {
        /// Consuming node.
        to: NodeId,
        /// Input port on the consumer.
        port: usize,
    },
    /// Remove a component and all its wires.
    Remove {
        /// The node to remove.
        node: NodeId,
    },
    /// Attach a Component Feature (described by its descriptor).
    AttachFeature {
        /// Host node.
        node: NodeId,
        /// The feature's declaration.
        descriptor: FeatureDescriptor,
    },
    /// Detach a Component Feature by name.
    DetachFeature {
        /// Host node.
        node: NodeId,
        /// Name of the feature to detach.
        feature: String,
    },
}

/// An ordered sequence of structural changes to check as a unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptationPlan {
    /// The changes, applied in order.
    pub ops: Vec<AdaptationOp>,
}

impl AdaptationPlan {
    /// An empty plan.
    pub fn new() -> Self {
        AdaptationPlan::default()
    }

    /// Appends an operation (builder style).
    pub fn then(mut self, op: AdaptationOp) -> Self {
        self.ops.push(op);
        self
    }
}

/// Checks a plan against a live middleware without touching it: the
/// plan is replayed on a stand-in of `mw.structure()` (see
/// [`simulate`]) and the resulting structure is lowered once and fully
/// analyzed — structural lints plus the semantic dataflow passes, with
/// *semantic deltas* (how accuracy, rate and taint observed at the sinks
/// change) reported at Info severity. The plan is safe when the returned
/// report [has no errors](Report::has_errors).
pub fn check_adaptation(mw: &Middleware, plan: &AdaptationPlan) -> Report {
    check_adaptation_with_facts(mw, plan).report
}

/// The full result of checking an adaptation plan: the diagnostic
/// report plus the solved dataflow facts of the current and the
/// hypothetical structure, for callers that want to compare predicted
/// semantics themselves (e.g. an adaptation engine choosing between
/// candidate plans).
#[derive(Debug, Clone)]
pub struct AdaptationOutcome {
    /// Op-application errors, whole-graph findings on the resulting
    /// structure, quarantine warnings and semantic-delta infos.
    pub report: Report,
    /// Analysis representation of the *current* structure.
    pub before_graph: FlowGraph,
    /// Solved facts of the current structure.
    pub before_facts: GraphFacts,
    /// Analysis representation of the structure the plan produces.
    pub after_graph: FlowGraph,
    /// Solved facts of that hypothetical structure.
    pub after_facts: GraphFacts,
}

/// [`check_adaptation`], returning the underlying dataflow facts as
/// well as the report.
pub fn check_adaptation_with_facts(mw: &Middleware, plan: &AdaptationPlan) -> AdaptationOutcome {
    let current = mw.structure();
    let before_graph = FlowGraph::from_structure(&current);
    let before_facts = infer_facts(&before_graph);

    let (result, mut report) = simulate(current.clone(), plan);
    for d in check_quarantined_targets(mw, &current, plan) {
        report.push(d);
    }
    let after_graph = crate::live::lower(&result, &mut report);
    crate::lint::structural(&after_graph, &mut report);
    let after_facts = crate::lint::semantic(&after_graph, &mut report);
    for d in semantic_deltas(&before_graph, &before_facts, &after_graph, &after_facts) {
        report.push(d);
    }
    AdaptationOutcome {
        report,
        before_graph,
        before_facts,
        after_graph,
        after_facts,
    }
}

/// Warns (P007) for every plan op that targets a node the middleware
/// currently holds in quarantine: the adaptation will apply, but the
/// node is not processing data, so the plan's effect cannot be observed
/// until the quarantine lifts — usually a sign the plan was computed
/// from stale health information.
fn check_quarantined_targets(
    mw: &Middleware,
    current: &[NodeInfo],
    plan: &AdaptationPlan,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (step, op) in plan.ops.iter().enumerate() {
        let targets: Vec<NodeId> = match op {
            AdaptationOp::Connect { from, to, .. } => vec![*from, *to],
            AdaptationOp::Disconnect { to, .. } => vec![*to],
            AdaptationOp::Remove { node }
            | AdaptationOp::AttachFeature { node, .. }
            | AdaptationOp::DetachFeature { node, .. } => vec![*node],
        };
        for id in targets {
            if !current.iter().any(|n| n.id == id) {
                continue; // unknown node; simulate() reports the error
            }
            if mw.node_health(id).status == HealthStatus::Quarantined {
                out.push(
                    Diagnostic::new(
                        Code::P007,
                        Severity::Warning,
                        format!("plan step {step} adapts quarantined node {id}"),
                        vec![format!("plan step {step}")],
                    )
                    .with_hint(
                        "the node is not processing data while quarantined; verify the \
                         plan was computed from current health state",
                    ),
                );
            }
        }
    }
    out
}

fn format_interval(fact: Option<(f64, f64)>, unit: &str) -> String {
    match fact {
        None => "unknown".to_string(),
        Some((lo, hi)) if hi.is_infinite() => format!("[{lo} {unit}, unbounded)"),
        Some((lo, hi)) => format!("[{lo} {unit}, {hi} {unit}]"),
    }
}

/// Info-severity diagnostics describing how the facts observed at each
/// sink change under the plan — the predicted semantic effect of the
/// adaptation (accuracy: P011, taint: P012, rate: P013/P014).
fn semantic_deltas(
    before_graph: &FlowGraph,
    before: &GraphFacts,
    after_graph: &FlowGraph,
    after: &GraphFacts,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (ai, an) in after_graph.nodes.iter().enumerate() {
        if an.role != ComponentRole::Sink {
            continue;
        }
        let Some(bi) = before_graph.nodes.iter().position(|n| n.label == an.label) else {
            continue;
        };
        if before.accuracy[bi] != after.accuracy[ai] {
            out.push(Diagnostic::new(
                Code::P011,
                Severity::Info,
                format!(
                    "plan changes achievable accuracy at {} from {} to {}",
                    an.label,
                    format_interval(before.accuracy[bi], "m"),
                    format_interval(after.accuracy[ai], "m"),
                ),
                vec![an.label.clone()],
            ));
        }
        if before.rate[bi] != after.rate[ai] {
            out.push(Diagnostic::new(
                Code::P013,
                Severity::Info,
                format!(
                    "plan changes sustained item rate at {} from {} to {}",
                    an.label,
                    format_interval(before.rate[bi], "items/s"),
                    format_interval(after.rate[ai], "items/s"),
                ),
                vec![an.label.clone()],
            ));
        }
        if before.taint[bi] != after.taint[ai] {
            let describe = |set: &std::collections::BTreeSet<(String, String)>| {
                if set.is_empty() {
                    "none".to_string()
                } else {
                    set.iter()
                        .map(|(kind, origin)| format!("{kind} from {origin}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                }
            };
            out.push(Diagnostic::new(
                Code::P012,
                Severity::Info,
                format!(
                    "plan changes identifiable data reaching {} from {{{}}} to {{{}}}",
                    an.label,
                    describe(&before.taint[bi]),
                    describe(&after.taint[ai]),
                ),
                vec![an.label.clone()],
            ));
        }
    }
    out
}

/// The feature an `AttachFeature` step attaches to the replay: inert,
/// carrying only the plan's descriptor, like the stand-ins
/// [`ProcessingGraph::from_structure`] builds.
struct PlannedFeature(FeatureDescriptor);

impl ComponentFeature for PlannedFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        self.0.clone()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Replays a plan on a graph built from `nodes` with
/// [`ProcessingGraph::from_structure`], one op at a time through the
/// graph's own `connect`/`disconnect`/`remove`/`attach_feature`/
/// `detach_feature`. Returns the resulting structure and a report with
/// one P007 error per refused step (a refused op changes nothing);
/// analysis of the result is the caller's job (see
/// [`check_adaptation`]).
pub fn simulate(nodes: Vec<NodeInfo>, plan: &AdaptationPlan) -> (Vec<NodeInfo>, Report) {
    let mut graph = ProcessingGraph::from_structure(&nodes);
    let mut report = Report::new();
    for (step, op) in plan.ops.iter().enumerate() {
        let applied = match op {
            AdaptationOp::Connect { from, to, port } => graph.connect(*from, *to, *port),
            AdaptationOp::Disconnect { to, port } => graph.disconnect(*to, *port).map(drop),
            AdaptationOp::Remove { node } => graph.remove(*node).map(drop),
            AdaptationOp::AttachFeature { node, descriptor } => {
                graph.attach_feature(*node, Box::new(PlannedFeature(descriptor.clone())))
            }
            AdaptationOp::DetachFeature { node, feature } => {
                graph.detach_feature(*node, feature).map(drop)
            }
        };
        if let Err(e) = applied {
            report.push(
                Diagnostic::new(
                    Code::P007,
                    Severity::Error,
                    e.to_string(),
                    vec![format!("plan step {step}")],
                )
                .with_hint(
                    "the live graph rejects this op; fix it against Middleware::structure()",
                ),
            );
        }
    }
    let result = graph
        .node_ids()
        .filter_map(|id| graph.info(id).ok())
        .collect();
    (result, report)
}
