//! Pre-instantiation analysis of declarative [`GraphConfig`]s.
//!
//! A configuration is lowered to the shared [`FlowGraph`] IR before any
//! component is built, and judged by the same structural lints
//! (P001–P006), dataflow domains and effect checks as a live structure.
//! What stays here is what only a configuration can get wrong: broken
//! references (P007 — duplicate names, unknown kinds, and wires failing
//! the shared sound-edge rule or doubly driving a port), missing source
//! fault policies (P009) and under-provisioned fleet containment (P016).
//! All passes run even when earlier ones report errors, so one lint
//! invocation surfaces everything at once; instances of an unknown kind
//! stay in the graph untyped, so paths and cycles through them are still
//! seen, while the dataflow domains run on the well-typed remainder.

use std::collections::BTreeMap;

use perpos_core::assembly::GraphConfig;
use perpos_core::component::ComponentRole;

use crate::catalog::TypeCatalog;
use crate::dataflow::{FlowGraph, FlowNode};
use crate::diagnostic::{Code, Diagnostic, Report, Severity};

/// Analyzes a configuration against a catalog of component types,
/// producing every applicable P001–P007, P009–P014, P016 and P018–P020
/// finding.
pub fn analyze_config(config: &GraphConfig, catalog: &TypeCatalog) -> Report {
    let mut report = Report::new();
    let graph = lower(config, catalog, &mut report);
    let role = |name: &str| {
        let node = graph.nodes.iter().find(|n| n.typed && n.label == name);
        node.map(|n| n.role)
    };

    // P009: source components left on the default Propagate policy —
    // the engine aborts the whole run on their first fault.
    for c in &config.components {
        if role(&c.name) == Some(ComponentRole::Source) && c.fault_policy.is_none() {
            report.push(
                Diagnostic::new(
                    Code::P009,
                    Severity::Warning,
                    format!("source {:?} has no explicit fault policy", c.name),
                    vec![c.name.clone()],
                )
                .with_hint(
                    "sensors fail in the field; set fault_policy to \"drop_item\", \
                     \"restart\" or \"quarantine\" (the default \"propagate\" aborts \
                     the run on the first fault)",
                ),
            );
        }
    }

    // P016: a fleet deployment with components still on the default
    // Propagate policy — every routine fault skips in-instance
    // containment and is paid for as a fleet checkpoint restart.
    if let Some(spec) = &config.fleet {
        for c in &config.components {
            if role(&c.name) == Some(ComponentRole::Sink) || c.fault_policy.is_some() {
                continue;
            }
            report.push(
                Diagnostic::new(
                    Code::P016,
                    Severity::Warning,
                    format!(
                        "fleet of {} instances restarts from checkpoints on every \
                         fault of {:?} (no containment policy)",
                        spec.instances, c.name
                    ),
                    vec![c.name.clone()],
                )
                .with_hint(
                    "under a fleet block, give each component an explicit \
                     fault_policy (\"drop_item\", \"restart\" or \"quarantine\") so \
                     routine faults are absorbed inside the instance instead of \
                     costing a checkpoint restore",
                ),
            );
        }
    }

    crate::lint::structural(&graph, &mut report);
    crate::lint::semantic(&graph.typed(), &mut report);
    report
}

impl FlowGraph {
    /// Builds the analysis representation of a declarative configuration.
    ///
    /// Components whose type the catalog does not know, and connections
    /// failing the sound-edge rule (unknown instance, sink as producer,
    /// out-of-range port), are skipped — the reference lints (P007)
    /// report those; dataflow analysis runs on the well-formed remainder.
    pub fn from_config(config: &GraphConfig, catalog: &TypeCatalog) -> FlowGraph {
        lower(config, catalog, &mut Report::new()).typed()
    }
}

/// Lowers `config` to the full [`FlowGraph`], instances of unknown kinds
/// included as untyped nodes, reporting every broken reference (P007).
fn lower(config: &GraphConfig, catalog: &TypeCatalog, report: &mut Report) -> FlowGraph {
    let mut nodes = Vec::new();
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    for c in &config.components {
        if index.contains_key(c.name.as_str()) {
            report.push(
                Diagnostic::new(
                    Code::P007,
                    Severity::Error,
                    format!("duplicate instance name {:?}", c.name),
                    vec![c.name.clone()],
                )
                .with_hint("rename one of the instances; names must be unique"),
            );
            continue;
        }
        index.insert(c.name.as_str(), nodes.len());
        let Some(spec) = catalog.get(&c.kind) else {
            report.push(
                Diagnostic::new(
                    Code::P007,
                    Severity::Error,
                    format!("unknown component type {:?}", c.kind),
                    vec![c.name.clone()],
                )
                .with_hint(format!(
                    "register a factory for {:?} or fix the kind; known types: {}",
                    c.kind,
                    known_kinds(catalog)
                )),
            );
            nodes.push(FlowNode {
                label: c.name.clone(),
                role: ComponentRole::Processor,
                inputs: Vec::new(),
                provides: Vec::new(),
                transfer: Default::default(),
                anonymizes: false,
                effects: Default::default(),
                features: Vec::new(),
                typed: false,
            });
            continue;
        };
        let role = match spec.role.as_str() {
            "source" => ComponentRole::Source,
            "merge" => ComponentRole::Merge,
            "sink" => ComponentRole::Sink,
            _ => ComponentRole::Processor,
        };
        let base = spec.transfer.unwrap_or_default();
        let transfer = match &c.transfer {
            Some(over) => base.overlay(over),
            None => base,
        };
        let effects_base = spec.effects.unwrap_or_default();
        let effects = match &c.effects {
            Some(over) => effects_base.overlay(over),
            None => effects_base,
        };
        nodes.push(FlowNode {
            label: c.name.clone(),
            role,
            inputs: spec.inputs,
            provides: spec.provides,
            anonymizes: transfer.anonymizes == Some(true),
            transfer,
            effects,
            features: Vec::new(),
            typed: true,
        });
    }

    let mut edges = Vec::new();
    let mut driven: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    let end = |name: &str| index.get(name).copied();
    for conn in &config.connections {
        let from = (conn.from.as_str(), end(&conn.from));
        let to = (conn.to.as_str(), end(&conn.to));
        if let Some(edge) = FlowGraph::sound_edge(&nodes, from, to, conn.port, report) {
            *driven.entry((conn.to.as_str(), conn.port)).or_insert(0) += 1;
            edges.push(edge);
        }
    }
    for ((to, port), count) in driven {
        if count > 1 {
            report.push(
                Diagnostic::new(
                    Code::P007,
                    Severity::Error,
                    format!("input port {port} of {to:?} is driven by {count} connections"),
                    vec![format!("{to}(port {port})")],
                )
                .with_hint("each input port takes exactly one producer; drop the extras"),
            );
        }
    }
    let mut graph = FlowGraph::finish(nodes, edges);
    graph.fleet = config.fleet.clone();
    graph
}

fn known_kinds(catalog: &TypeCatalog) -> String {
    let mut kinds: Vec<&str> = catalog.types.iter().map(|t| t.kind.as_str()).collect();
    kinds.push(crate::catalog::APPLICATION_KIND);
    kinds.sort_unstable();
    kinds.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ComponentTypeSpec, PortSpec};
    use perpos_core::assembly::{ComponentConfig, ConnectionConfig};

    fn catalog() -> TypeCatalog {
        let mut c = TypeCatalog::new();
        c.insert(ComponentTypeSpec {
            kind: "gps".into(),
            role: "source".into(),
            inputs: vec![],
            provides: vec!["raw.string".into()],
            transfer: None,
            effects: None,
        });
        c.insert(ComponentTypeSpec {
            kind: "parser".into(),
            role: "processor".into(),
            inputs: vec![PortSpec {
                name: "in".into(),
                accepts: vec!["raw.string".into()],
                required_features: vec![],
            }],
            provides: vec!["nmea.sentence".into()],
            transfer: None,
            effects: None,
        });
        c
    }

    fn comp(name: &str, kind: &str) -> ComponentConfig {
        ComponentConfig {
            name: name.into(),
            kind: kind.into(),
            fault_policy: None,
            transfer: None,
            effects: None,
        }
    }

    fn supervised_comp(name: &str, kind: &str) -> ComponentConfig {
        ComponentConfig {
            name: name.into(),
            kind: kind.into(),
            fault_policy: Some("drop_item".into()),
            transfer: None,
            effects: None,
        }
    }

    fn edge(from: &str, to: &str, port: usize) -> ConnectionConfig {
        ConnectionConfig {
            from: from.into(),
            to: to.into(),
            port,
        }
    }

    #[test]
    fn clean_pipeline_lints_clean() {
        let config = GraphConfig {
            components: vec![
                supervised_comp("gps0", "gps"),
                comp("p0", "parser"),
                comp("app", "application"),
            ],
            connections: vec![edge("gps0", "p0", 0), edge("p0", "app", 0)],
            fleet: None,
        };
        let report = analyze_config(&config, &catalog());
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let config = GraphConfig {
            components: vec![comp("p0", "parser")],
            connections: vec![edge("p0", "p0", 0)],
            fleet: None,
        };
        let report = analyze_config(&config, &catalog());
        assert_eq!(
            report.with_code(Code::P005).len(),
            1,
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn every_pass_still_runs_with_broken_references() {
        // An unknown kind must not suppress the dangling-input finding on
        // the healthy parser instance.
        let config = GraphConfig {
            components: vec![
                comp("x", "nope"),
                comp("p0", "parser"),
                comp("app", "application"),
            ],
            connections: vec![edge("p0", "app", 0)],
            fleet: None,
        };
        let report = analyze_config(&config, &catalog());
        assert_eq!(report.with_code(Code::P007).len(), 1);
        assert_eq!(report.with_code(Code::P002).len(), 1);
    }

    #[test]
    fn unknown_type_instances_still_carry_paths_and_cycles() {
        // `s0 → u0`, `u0 → app`, `u0 ⇄ v0`, with u0 and v0 of a kind the
        // catalog lacks: each is one P007, the u0/v0 loop is still a
        // cycle, and s0 still reaches the sink through u0 (no P004).
        let config = GraphConfig {
            components: vec![
                supervised_comp("s0", "gps"),
                comp("u0", "nope"),
                comp("v0", "nope"),
                comp("app", "application"),
            ],
            connections: vec![
                edge("s0", "u0", 0),
                edge("u0", "app", 0),
                edge("u0", "v0", 0),
                edge("v0", "u0", 1),
            ],
            fleet: None,
        };
        let report = analyze_config(&config, &catalog());
        let text = report.render_human();
        assert_eq!(report.diagnostics.len(), 3, "{text}");
        assert_eq!(report.with_code(Code::P007).len(), 2, "{text}");
        let cycles = report.with_code(Code::P005);
        assert_eq!(cycles.len(), 1, "{text}");
        assert_eq!(cycles[0].path, vec!["u0".to_string(), "v0".to_string()]);
        assert!(cycles[0].message.contains("u0 -> v0"), "{text}");
    }
}
