//! The structural lints P001–P006, written once over the [`FlowGraph`]
//! IR.
//!
//! Configurations, live structures and simulated adaptation plans all
//! lower to a [`FlowGraph`] whose edges passed the one sound-edge rule,
//! and are judged here by the same rules: type flow under the effective
//! provides (P001), dangling inputs (P002), feature requirements against
//! the producer's attached features (P003), dead components (P004),
//! cycles (P005, one per strongly connected component) and feature
//! conflicts (P006). A configuration node carries no features, so a
//! feature requirement on a configured edge is always unsatisfied —
//! factories build bare components — with no caller-specific branch.
//!
//! Untyped nodes (configuration instances of an unknown kind) declare no
//! ports and are never reported themselves, but their wires still count
//! for driven ports, reachability and cycles.

use std::collections::{BTreeMap, BTreeSet};

use perpos_core::component::ComponentRole;

use crate::dataflow::FlowGraph;
use crate::diagnostic::{Code, Diagnostic, Report, Severity};
use crate::domains::{analyze_dataflow, GraphFacts};

/// Runs P001–P006 over `graph`.
pub(crate) fn structural(graph: &FlowGraph, report: &mut Report) {
    type_flow(graph, report);
    dangling_inputs(graph, report);
    feature_requirements(graph, report);
    dead_components(graph, report);
    cycles(graph, report);
    feature_conflicts(graph, report);
}

/// Runs the dataflow domains (P010–P014) and the effect checks
/// (P018–P020) over a fully typed `graph`, returning the solved facts.
pub(crate) fn semantic(graph: &FlowGraph, report: &mut Report) -> GraphFacts {
    let (facts, dataflow) = analyze_dataflow(graph);
    report.merge(dataflow);
    crate::effects::effect_diagnostics(graph, report);
    facts
}

/// The path of a wire: producer, then the consuming port.
fn wire_path(graph: &FlowGraph, e: usize) -> Vec<String> {
    let edge = &graph.edges[e];
    vec![
        graph.nodes[edge.from].label.clone(),
        format!("{}(port {})", graph.nodes[edge.to].label, edge.port),
    ]
}

/// P001: the producer's effective provides (declared output plus
/// feature-added kinds) must intersect the consuming port's accepted
/// kinds (empty accepts = any). Detaching a feature can remove the kind
/// an edge relied on after connect-time validation passed.
fn type_flow(graph: &FlowGraph, report: &mut Report) {
    for (e, edge) in graph.edges.iter().enumerate() {
        let (from, to) = (&graph.nodes[edge.from], &graph.nodes[edge.to]);
        let Some(port) = to.inputs.get(edge.port) else {
            continue;
        };
        // An untyped producer's kinds are unknown, not empty.
        if !from.typed
            || port.accepts.is_empty()
            || from.provides.iter().any(|k| port.accepts_kind(k))
        {
            continue;
        }
        report.push(
            Diagnostic::new(
                Code::P001,
                Severity::Error,
                format!(
                    "{:?} provides [{}] but port {:?} of {:?} accepts [{}]",
                    from.label,
                    from.provides.join(", "),
                    port.name,
                    to.label,
                    port.accepts.join(", ")
                ),
                wire_path(graph, e),
            )
            .with_hint(
                "insert a converting component between the two, connect a producer of \
                 a compatible kind, or attach a feature that adds one",
            ),
        );
    }
}

/// P002: declared input ports that no wire drives. Every port of a
/// processor or merge is required (error); a sink's many any-kind ports
/// are optional, but a sink with *no* input at all is suspicious
/// (warning).
fn dangling_inputs(graph: &FlowGraph, report: &mut Report) {
    let driven: BTreeSet<(usize, usize)> = graph.edges.iter().map(|e| (e.to, e.port)).collect();
    for (i, n) in graph.nodes.iter().enumerate() {
        if n.role == ComponentRole::Sink {
            if !(0..n.inputs.len()).any(|p| driven.contains(&(i, p))) {
                report.push(
                    Diagnostic::new(
                        Code::P002,
                        Severity::Warning,
                        format!("sink {:?} has no connected input", n.label),
                        vec![n.label.clone()],
                    )
                    .with_hint("connect the end of the positioning process to this sink"),
                );
            }
            continue;
        }
        for (p, port) in n.inputs.iter().enumerate() {
            if driven.contains(&(i, p)) {
                continue;
            }
            report.push(
                Diagnostic::new(
                    Code::P002,
                    Severity::Error,
                    format!(
                        "input port {:?} (index {p}) of {:?} is never connected",
                        port.name, n.label
                    ),
                    vec![format!("{}(port {p})", n.label)],
                )
                .with_hint(if port.accepts.is_empty() {
                    "connect any producer to this port".to_string()
                } else {
                    format!("connect a producer of [{}]", port.accepts.join(", "))
                }),
            );
        }
    }
}

/// P003: every feature a port requires must be attached to the wired
/// producer. Configured producers carry none, so on a configuration the
/// requirement is always unmet: attaching features is a runtime
/// adaptation.
fn feature_requirements(graph: &FlowGraph, report: &mut Report) {
    for (e, edge) in graph.edges.iter().enumerate() {
        let (from, to) = (&graph.nodes[edge.from], &graph.nodes[edge.to]);
        let Some(port) = to.inputs.get(edge.port) else {
            continue;
        };
        for feature in &port.required_features {
            if from.features.iter().any(|f| &f.name == feature) {
                continue;
            }
            report.push(
                Diagnostic::new(
                    Code::P003,
                    Severity::Error,
                    format!(
                        "port {:?} of {:?} requires feature {feature:?}, which is not \
                         attached to producer {:?}",
                        port.name, to.label, from.label
                    ),
                    wire_path(graph, e),
                )
                .with_hint(format!(
                    "attach {feature:?} to {:?} (configurations instantiate bare \
                     components, so build such an edge through the graph API after \
                     attaching), or drop the requirement",
                    from.label
                )),
            );
        }
    }
}

/// P004: typed nodes with no directed path to any sink produce data
/// nobody consumes (orphan sources, dead subgraphs).
fn dead_components(graph: &FlowGraph, report: &mut Report) {
    let mut alive: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| n.role == ComponentRole::Sink)
        .collect();
    let mut frontier: Vec<usize> = (0..alive.len()).filter(|&i| alive[i]).collect();
    while let Some(i) = frontier.pop() {
        for &e in graph.preds(i) {
            let producer = graph.edges[e].from;
            if !alive[producer] {
                alive[producer] = true;
                frontier.push(producer);
            }
        }
    }
    for (n, _) in graph.nodes.iter().zip(alive).filter(|(n, a)| n.typed && !a) {
        report.push(
            Diagnostic::new(
                Code::P004,
                Severity::Warning,
                format!(
                    "{:?} has no path to any sink; its output is never consumed",
                    n.label
                ),
                vec![n.label.clone()],
            )
            .with_hint("connect it (transitively) to a sink, or remove it"),
        );
    }
}

/// P005: every strongly connected component with more than one member,
/// or a self-loop, is one cycle finding with its members sorted. A live
/// graph is acyclic by construction, so on live input this fires only
/// for simulated plans, predicting the `CycleDetected` the real graph
/// would raise.
fn cycles(graph: &FlowGraph, report: &mut Report) {
    let succ: Vec<Vec<usize>> = (0..graph.nodes.len())
        .map(|i| graph.succs(i).iter().map(|&e| graph.edges[e].to).collect())
        .collect();
    for scc in strongly_connected(&succ) {
        if scc.len() == 1 && !succ[scc[0]].contains(&scc[0]) {
            continue;
        }
        let mut members: Vec<String> = scc.iter().map(|&i| graph.nodes[i].label.clone()).collect();
        members.sort_unstable();
        report.push(
            Diagnostic::new(
                Code::P005,
                Severity::Error,
                format!("the graph has a cycle through {}", members.join(" -> ")),
                members,
            )
            .with_hint("positioning processes are DAGs; remove one edge of the cycle"),
        );
    }
}

/// Iterative Tarjan SCC over an adjacency list.
fn strongly_connected(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succ.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut sccs = Vec::new();
    let mut next = 0usize;

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // Explicit DFS frame: (node, next child position).
        let mut frames = vec![(start, 0usize)];
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(*child) {
                *child += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
                frames.pop();
                if let Some(&mut (u, _)) = frames.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    sccs
}

/// P006: conflicting features on one node — two features adding the
/// same data kind (consumers cannot tell which produced an item) or
/// exposing the same reflective method name (dispatch is first-match,
/// silently shadowing the later feature).
fn feature_conflicts(graph: &FlowGraph, report: &mut Report) {
    for n in &graph.nodes {
        let mut kind_owner = BTreeMap::new();
        let mut method_owner = BTreeMap::new();
        for f in &n.features {
            for k in &f.adds_kinds {
                if let Some(first) = kind_owner.insert(k.as_str(), f.name.as_str()) {
                    report.push(
                        Diagnostic::new(
                            Code::P006,
                            Severity::Warning,
                            format!(
                                "features {first:?} and {:?} on {:?} both add kind {:?}",
                                f.name,
                                n.label,
                                k.as_str()
                            ),
                            vec![n.label.clone()],
                        )
                        .with_hint("detach one of the features or change what it adds"),
                    );
                }
            }
            for m in &f.methods {
                if let Some(first) = method_owner.insert(m.name.as_str(), f.name.as_str()) {
                    report.push(
                        Diagnostic::new(
                            Code::P006,
                            Severity::Warning,
                            format!(
                                "features {first:?} and {:?} on {:?} both expose method {:?}; \
                                 reflective dispatch will always pick {first:?}",
                                f.name, n.label, m.name
                            ),
                            vec![n.label.clone()],
                        )
                        .with_hint("rename one method or invoke the feature explicitly by name"),
                    );
                }
            }
        }
    }
}
