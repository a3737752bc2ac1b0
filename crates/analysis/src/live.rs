//! Analysis of an instantiated processing graph via its reflective
//! structure ([`NodeInfo`] list).
//!
//! The live graph validates every *edge* as it is built, but whole-graph
//! properties — nothing dangling, everything reaching a sink, features
//! not conflicting — hold only if someone checks them. This module
//! lowers the output of `Middleware::structure()`, or a simulated
//! structure produced by [`crate::adaptation`], to the shared
//! [`FlowGraph`] IR — attached features and all — and runs the same
//! lints a configuration gets: P001–P006, the dataflow domains and the
//! effect checks. Wires the IR cannot hold (an unknown producer, a sink
//! as producer, a port the descriptor does not declare) are P007s.

use std::collections::BTreeMap;

use perpos_core::graph::NodeInfo;

use crate::dataflow::{FlowGraph, FlowNode, FlowPort};
use crate::diagnostic::Report;

/// Analyzes a live (or simulated) process structure. A reflected
/// [`NodeInfo`] list records no fleet deployment, so the effect checks
/// (P018–P020) find nothing to flag.
pub fn analyze_structure(nodes: &[NodeInfo]) -> Report {
    let mut report = Report::new();
    let graph = lower(nodes, &mut report);
    crate::lint::structural(&graph, &mut report);
    crate::lint::semantic(&graph, &mut report);
    report
}

impl FlowGraph {
    /// Builds the analysis representation of a live (or simulated)
    /// structure, as returned by `Middleware::structure()`. Wires failing
    /// the sound-edge rule are skipped.
    pub fn from_structure(structure: &[NodeInfo]) -> FlowGraph {
        lower(structure, &mut Report::new())
    }
}

/// Lowers a structure to the [`FlowGraph`] IR, reporting every wire the
/// sound-edge rule rejects (P007).
pub(crate) fn lower(structure: &[NodeInfo], report: &mut Report) -> FlowGraph {
    let index: BTreeMap<_, _> = structure
        .iter()
        .enumerate()
        .map(|(i, n)| (n.id, i))
        .collect();
    let nodes: Vec<FlowNode> = structure
        .iter()
        .map(|n| {
            let mut provides: Vec<String> = n
                .descriptor
                .output
                .iter()
                .flat_map(|o| o.provides.iter().map(|k| k.as_str().to_string()))
                .collect();
            for k in n.features.iter().flat_map(|f| &f.adds_kinds) {
                if !provides.iter().any(|p| p == k.as_str()) {
                    provides.push(k.as_str().to_string());
                }
            }
            FlowNode {
                label: format!("{} ({})", n.descriptor.name, n.id),
                role: n.descriptor.role,
                inputs: n.descriptor.inputs.iter().map(FlowPort::from).collect(),
                provides,
                transfer: n.descriptor.transfer.clone(),
                anonymizes: n.descriptor.transfer.anonymizes == Some(true)
                    || n.features.iter().any(|f| f.anonymizes),
                effects: n.descriptor.effects.clone(),
                features: n.features.clone(),
                typed: true,
            }
        })
        .collect();
    let mut edges = Vec::new();
    for (to, n) in structure.iter().enumerate() {
        for (port, producer) in n.inputs.iter().enumerate() {
            let Some(id) = producer else { continue };
            let from = index.get(id).copied();
            let label = from.map_or_else(|| id.to_string(), |i| nodes[i].label.clone());
            let consumer = (nodes[to].label.as_str(), Some(to));
            edges.extend(FlowGraph::sound_edge(
                &nodes,
                (&label, from),
                consumer,
                port,
                report,
            ));
        }
    }
    FlowGraph::finish(nodes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Code;
    use perpos_core::prelude::*;

    #[test]
    fn wire_into_an_undeclared_port_is_p007_not_a_panic() {
        let mut mw = Middleware::new();
        let gps = mw.add_component(FnSource::new("gps", kinds::RAW_STRING, |_| None));
        let parser = mw.add_component(FnProcessor::new(
            "parser",
            vec![kinds::RAW_STRING],
            kinds::NMEA_SENTENCE,
            |i| Some(i.payload.clone()),
        ));
        let app = mw.application_sink();
        mw.connect(gps, parser, 0).unwrap();
        mw.connect(parser, app, 0).unwrap();
        // The parser declares one input port; wire a second one.
        let mut nodes = mw.structure();
        for n in nodes.iter_mut() {
            if n.id == parser {
                n.inputs.push(Some(gps));
            } else if n.id == gps {
                n.outputs.push((parser, 1));
            }
        }
        let report = analyze_structure(&nodes);
        let hits = report.with_code(Code::P007);
        assert_eq!(hits.len(), 1, "{}", report.render_human());
        assert_eq!(hits[0].path[1], format!("parser ({parser})(port 1)"));
    }
}
