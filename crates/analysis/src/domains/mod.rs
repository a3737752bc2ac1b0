//! Concrete abstract domains for the dataflow framework, and the
//! diagnostics (P010–P014) computed from their fixpoints.
//!
//! Each submodule is one lattice with its transfer function:
//!
//! - [`frame`] — coordinate-frame inference (P010): which reference
//!   frame(s) a channel's position data lives in.
//! - [`accuracy`] — achievable-accuracy intervals in metres (P011).
//! - [`taint`] — provenance of raw identifiable sensor data (P012).
//! - [`rate`] — sustained item-rate bounds in items/second (P013) and
//!   predicted channel-buffer overruns (P014).
//!
//! [`infer_facts`] solves all four over one [`FlowGraph`];
//! [`dataflow_diagnostics`] turns the solved facts into a [`Report`];
//! [`facts_json`] renders them as the versioned machine-readable
//! document behind `perpos-lint --facts json`.

pub mod accuracy;
pub mod frame;
pub mod rate;
pub mod taint;

use std::collections::BTreeSet;

use serde::Serialize;

use crate::dataflow::{solve, FlowGraph};
use crate::diagnostic::{canonical_sort, Report, JSON_SCHEMA_VERSION};

/// The solved facts of all four domains over one graph, indexed like
/// [`FlowGraph::nodes`]. Each entry describes the component's *output*
/// (for sinks: what the sink observes).
#[derive(Debug, Clone)]
pub struct GraphFacts {
    /// Coordinate frames the output may carry.
    pub frames: Vec<BTreeSet<String>>,
    /// Achievable accuracy interval `(best, worst)` in metres; `None`
    /// when nothing upstream declares accuracy.
    pub accuracy: Vec<Option<(f64, f64)>>,
    /// Identifiable-data taint: `(kind, origin label)` pairs.
    pub taint: Vec<BTreeSet<(String, String)>>,
    /// Sustained item-rate interval `(lo, hi)` in items/second; `None`
    /// when nothing upstream declares an emit rate.
    pub rate: Vec<Option<(f64, f64)>>,
    /// Whether every solver run reached its fixpoint.
    pub converged: bool,
}

/// Solves all four domains over `graph`.
pub fn infer_facts(graph: &FlowGraph) -> GraphFacts {
    let frames = solve(graph, &frame::FrameDomain);
    let accuracy = solve(graph, &accuracy::AccuracyDomain);
    let taint = solve(graph, &taint::TaintDomain);
    let rate = solve(graph, &rate::RateDomain);
    GraphFacts {
        converged: frames.converged && accuracy.converged && taint.converged && rate.converged,
        frames: frames.facts,
        accuracy: accuracy.facts,
        taint: taint.facts,
        rate: rate.facts,
    }
}

/// Runs the P010–P014 checks over already-solved facts.
pub fn dataflow_diagnostics(graph: &FlowGraph, facts: &GraphFacts) -> Report {
    let mut report = Report::new();
    frame::diagnostics(graph, &facts.frames, &mut report);
    accuracy::diagnostics(graph, &facts.accuracy, &mut report);
    taint::diagnostics(graph, &facts.taint, &mut report);
    rate::diagnostics(graph, &facts.rate, &mut report);
    report
}

/// Convenience: build facts and diagnostics in one call.
pub fn analyze_dataflow(graph: &FlowGraph) -> (GraphFacts, Report) {
    let facts = infer_facts(graph);
    let report = dataflow_diagnostics(graph, &facts);
    (facts, report)
}

/// A finite or right-unbounded interval in the JSON facts document;
/// `hi: null` means unbounded/unknown upper end.
#[derive(Serialize)]
struct JsonInterval {
    lo: f64,
    hi: Option<f64>,
}

impl JsonInterval {
    fn from_pair(pair: (f64, f64)) -> JsonInterval {
        JsonInterval {
            lo: pair.0,
            hi: pair.1.is_finite().then_some(pair.1),
        }
    }
}

#[derive(Serialize)]
struct JsonTaint {
    kind: String,
    origin: String,
}

#[derive(Serialize)]
struct JsonNodeFacts {
    label: String,
    role: String,
    frames: Vec<String>,
    accuracy_m: Option<JsonInterval>,
    taint: Vec<JsonTaint>,
    rate_hz: Option<JsonInterval>,
    /// Predicted seconds until the channel layer's bounded level buffer
    /// first evicts at this node (P014); `null` when no overrun is
    /// predicted.
    overflow_s: Option<f64>,
}

#[derive(Serialize)]
struct JsonEdgeFacts {
    from: String,
    to: String,
    port: u64,
    kinds: Vec<String>,
    frames: Vec<String>,
    taint: Vec<JsonTaint>,
}

#[derive(Serialize)]
struct JsonFleetFacts {
    instances: u64,
    shards: u64,
    checkpoint_every: u64,
    /// Resolved fleet scheduler name (`"serial"`, `"work_stealing"`,
    /// `"permuted"`).
    scheduler: String,
    /// The *requested* worker cap — `0` means machine-sized under
    /// `work_stealing`, `1` for the serial-execution schedulers. The
    /// machine-resolved count is deliberately not recorded: the facts
    /// document must be byte-reproducible across hosts.
    workers: u64,
}

/// One node's declared effects, with the `Option` defaults resolved
/// (absent = pure/deterministic/snapshot-safe). Only nodes declaring
/// *some* effect appear in the document.
#[derive(Serialize)]
struct JsonNodeEffects {
    label: String,
    reads: Vec<String>,
    writes: Vec<String>,
    wall_clock: bool,
    io: bool,
    unseeded: bool,
    stateful: bool,
    snapshot_capable: bool,
}

/// The `effects` block: declared per-node effects, the material of
/// P018–P020.
#[derive(Serialize)]
struct JsonEffectsFacts {
    nodes: Vec<JsonNodeEffects>,
}

#[derive(Serialize)]
struct JsonFactsDoc {
    schema_version: u64,
    converged: bool,
    /// The channel layer's per-level pending-buffer bound the
    /// `overflow_s` node predictions are computed against.
    level_buffer_cap: u64,
    /// The resolved fleet deployment when the configuration declares
    /// one (`null` = a single unsupervised instance).
    fleet: Option<JsonFleetFacts>,
    effects: JsonEffectsFacts,
    nodes: Vec<JsonNodeFacts>,
    edges: Vec<JsonEdgeFacts>,
}

/// Renders the solved facts as the versioned JSON document served by
/// `perpos-lint --facts json`: per-node output facts plus per-edge views
/// (the producer's facts filtered by what the edge can carry), the
/// fleet deployment and the declared effects.
///
/// Arrays are emitted in canonical order — nodes by label, edges by
/// `(from, to, port)` — so the document is byte-reproducible across
/// runs regardless of declaration order.
pub fn facts_json(graph: &FlowGraph, facts: &GraphFacts) -> String {
    let mut nodes: Vec<JsonNodeFacts> = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| JsonNodeFacts {
            label: n.label.clone(),
            role: n.role.to_string(),
            frames: facts.frames[i].iter().cloned().collect(),
            accuracy_m: facts.accuracy[i].map(JsonInterval::from_pair),
            taint: facts.taint[i]
                .iter()
                .map(|(kind, origin)| JsonTaint {
                    kind: kind.clone(),
                    origin: origin.clone(),
                })
                .collect(),
            rate_hz: facts.rate[i].map(JsonInterval::from_pair),
            overflow_s: rate::node_overflow_s(graph, &facts.rate, i),
        })
        .collect();
    canonical_sort(&mut nodes, |n| n.label.clone());
    let mut edges: Vec<JsonEdgeFacts> = graph
        .edges
        .iter()
        .enumerate()
        .map(|(e, edge)| {
            let kinds = graph.edge_kinds(e);
            JsonEdgeFacts {
                from: graph.nodes[edge.from].label.clone(),
                to: graph.nodes[edge.to].label.clone(),
                port: edge.port as u64,
                frames: facts.frames[edge.from].iter().cloned().collect(),
                taint: facts.taint[edge.from]
                    .iter()
                    .filter(|(kind, _)| kinds.contains(kind))
                    .map(|(kind, origin)| JsonTaint {
                        kind: kind.clone(),
                        origin: origin.clone(),
                    })
                    .collect(),
                kinds,
            }
        })
        .collect();
    canonical_sort(&mut edges, |e| (e.from.clone(), e.to.clone(), e.port));
    let mut effect_nodes: Vec<JsonNodeEffects> = graph
        .nodes
        .iter()
        .filter(|n| !n.effects.is_empty())
        .map(|n| JsonNodeEffects {
            label: n.label.clone(),
            reads: n.effects.reads.clone().unwrap_or_default(),
            writes: n.effects.writes.clone().unwrap_or_default(),
            wall_clock: n.effects.wall_clock.unwrap_or(false),
            io: n.effects.io.unwrap_or(false),
            unseeded: n.effects.unseeded.unwrap_or(false),
            stateful: n.effects.stateful.unwrap_or(false),
            snapshot_capable: n.effects.snapshot_capable.unwrap_or(false),
        })
        .collect();
    canonical_sort(&mut effect_nodes, |n| n.label.clone());
    let doc = JsonFactsDoc {
        schema_version: u64::from(JSON_SCHEMA_VERSION),
        converged: facts.converged,
        level_buffer_cap: perpos_core::channel::LEVEL_BUFFER_CAP as u64,
        fleet: graph.fleet.as_ref().map(|spec| {
            let resolved = spec.to_fleet_config();
            JsonFleetFacts {
                instances: resolved.instances as u64,
                shards: resolved.shards as u64,
                checkpoint_every: resolved.checkpoint_every,
                scheduler: resolved.scheduler.as_str().to_string(),
                workers: resolved.scheduler.requested_workers() as u64,
            }
        }),
        effects: JsonEffectsFacts {
            nodes: effect_nodes,
        },
        nodes,
        edges,
    };
    serde_json::to_string_pretty(&doc).expect("facts document is plain data and always serializes")
}
