//! Pre-instantiation analysis of declarative [`GraphConfig`]s.
//!
//! Runs the whole-graph lint passes a configuration can be checked
//! against *before* any component is built: reference validity (P007),
//! cycles (P005), type flow (P001), dangling inputs (P002), feature
//! requirements (P003), dead components (P004), missing source fault
//! policies (P009) and under-provisioned fleet containment (P016). All
//! passes run even
//! when earlier ones report errors, so one lint invocation surfaces
//! everything at once; connections with broken references are simply
//! skipped by the downstream passes.

use std::collections::{BTreeMap, BTreeSet};

use perpos_core::assembly::{ConnectionConfig, GraphConfig};

use crate::catalog::{ComponentTypeSpec, TypeCatalog};
use crate::diagnostic::{Code, Diagnostic, Report, Severity};

/// Analyzes a configuration against a catalog of component types,
/// producing every applicable P001–P005/P007/P009/P016 finding.
pub fn analyze_config(config: &GraphConfig, catalog: &TypeCatalog) -> Report {
    let mut report = Report::new();

    // Instance name -> resolved type (None when the kind is unknown).
    let mut instances: BTreeMap<&str, Option<ComponentTypeSpec>> = BTreeMap::new();
    let mut seen = BTreeSet::new();
    for c in &config.components {
        if !seen.insert(c.name.as_str()) {
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
        let spec = catalog.get(&c.kind);
        if spec.is_none() {
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
        }
        instances.insert(c.name.as_str(), spec);
    }

    // P009: source components left on the default Propagate policy —
    // the engine aborts the whole run on their first fault.
    for c in &config.components {
        let is_source = instances
            .get(c.name.as_str())
            .and_then(|s| s.as_ref())
            .map(|s| s.role == "source")
            .unwrap_or(false);
        if is_source && c.fault_policy.is_none() {
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
            let is_app = instances
                .get(c.name.as_str())
                .and_then(|s| s.as_ref())
                .map(|s| s.role == "sink")
                .unwrap_or(c.kind == "application");
            if is_app || c.fault_policy.is_some() {
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

    // Validate each connection's references; collect the sound ones.
    let mut edges: Vec<&ConnectionConfig> = Vec::new();
    let mut driven: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    for conn in &config.connections {
        let path = || {
            vec![
                conn.from.clone(),
                format!("{}(port {})", conn.to, conn.port),
            ]
        };
        let mut sound = true;
        for end in [&conn.from, &conn.to] {
            if !instances.contains_key(end.as_str()) {
                report.push(
                    Diagnostic::new(
                        Code::P007,
                        Severity::Error,
                        format!("connection references unknown instance {end:?}"),
                        path(),
                    )
                    .with_hint("declare the instance in `components` or fix the name"),
                );
                sound = false;
            }
        }
        if let Some(Some(from_spec)) = instances.get(conn.from.as_str()) {
            if !from_spec.has_output() {
                report.push(
                    Diagnostic::new(
                        Code::P007,
                        Severity::Error,
                        format!("producer {:?} is a sink and has no output port", conn.from),
                        path(),
                    )
                    .with_hint("sinks only consume; reverse the connection or pick a producer"),
                );
                sound = false;
            }
        }
        if let Some(Some(to_spec)) = instances.get(conn.to.as_str()) {
            if conn.port >= to_spec.inputs.len() {
                report.push(
                    Diagnostic::new(
                        Code::P007,
                        Severity::Error,
                        format!(
                            "port {} is out of range; {:?} declares {} input port(s)",
                            conn.port,
                            conn.to,
                            to_spec.inputs.len()
                        ),
                        path(),
                    )
                    .with_hint(format!("use a port index below {}", to_spec.inputs.len())),
                );
                sound = false;
            }
        }
        if sound {
            *driven.entry((conn.to.as_str(), conn.port)).or_insert(0) += 1;
            edges.push(conn);
        }
    }
    for ((to, port), count) in &driven {
        if *count > 1 {
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

    check_cycles(&instances, &edges, &mut report);
    check_type_flow(&instances, &edges, &mut report);
    check_dangling_inputs(config, &instances, &edges, &mut report);
    check_feature_requirements(&instances, &edges, &mut report);
    check_dead_components(config, &instances, &edges, &mut report);

    // Semantic dataflow analyses (P010-P014) over the well-referenced
    // part of the configuration.
    let flow = crate::dataflow::FlowGraph::from_config(config, catalog);
    let (_, dataflow_report) = crate::domains::analyze_dataflow(&flow);
    report.merge(dataflow_report);

    // Effect & determinism checks (P018-P020) against the fleet
    // deployment the configuration declares.
    crate::effects::effect_diagnostics(&flow, &mut report);

    report
}

fn known_kinds(catalog: &TypeCatalog) -> String {
    let mut kinds: Vec<&str> = catalog.types.iter().map(|t| t.kind.as_str()).collect();
    kinds.push(crate::catalog::APPLICATION_KIND);
    kinds.sort_unstable();
    kinds.join(", ")
}

/// P005: strongly connected components of the instance graph; every SCC
/// with more than one member — or a self-loop — is one cycle finding.
fn check_cycles(
    instances: &BTreeMap<&str, Option<ComponentTypeSpec>>,
    edges: &[&ConnectionConfig],
    report: &mut Report,
) {
    let names: Vec<&str> = instances.keys().copied().collect();
    let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for e in edges {
        if let (Some(&f), Some(&t)) = (index.get(e.from.as_str()), index.get(e.to.as_str())) {
            succ[f].push(t);
        }
    }
    for scc in strongly_connected(&succ) {
        let cyclic = scc.len() > 1 || succ[scc[0]].contains(&scc[0]);
        if cyclic {
            let mut members: Vec<String> = scc.iter().map(|&i| names[i].to_string()).collect();
            members.sort_unstable();
            report.push(
                Diagnostic::new(
                    Code::P005,
                    Severity::Error,
                    format!("connections form a cycle through {}", members.join(" -> ")),
                    members.clone(),
                )
                .with_hint("positioning processes are DAGs; remove one edge of the cycle"),
            );
        }
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
                    scc.sort_unstable();
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

/// P001: the producer's provided kinds must intersect the consuming
/// port's accepted kinds (empty accepts = any).
fn check_type_flow(
    instances: &BTreeMap<&str, Option<ComponentTypeSpec>>,
    edges: &[&ConnectionConfig],
    report: &mut Report,
) {
    for e in edges {
        let (Some(Some(from)), Some(Some(to))) =
            (instances.get(e.from.as_str()), instances.get(e.to.as_str()))
        else {
            continue;
        };
        let Some(port) = to.inputs.get(e.port) else {
            continue;
        };
        if port.accepts.is_empty() {
            continue;
        }
        if !from.provides.iter().any(|k| port.accepts.contains(k)) {
            report.push(
                Diagnostic::new(
                    Code::P001,
                    Severity::Error,
                    format!(
                        "{:?} provides [{}] but port {:?} of {:?} accepts [{}]",
                        e.from,
                        from.provides.join(", "),
                        port.name,
                        e.to,
                        port.accepts.join(", ")
                    ),
                    vec![e.from.clone(), format!("{}(port {})", e.to, e.port)],
                )
                .with_hint(
                    "insert a converting component between the two, or connect a \
                     producer of a compatible kind",
                ),
            );
        }
    }
}

/// P002: declared input ports that no connection drives. Every port of a
/// processor or merge is required (error); the application sink's 16
/// any-kind ports are optional, but a sink with *no* input at all is
/// suspicious (warning).
fn check_dangling_inputs(
    config: &GraphConfig,
    instances: &BTreeMap<&str, Option<ComponentTypeSpec>>,
    edges: &[&ConnectionConfig],
    report: &mut Report,
) {
    let driven: BTreeSet<(&str, usize)> = edges.iter().map(|e| (e.to.as_str(), e.port)).collect();
    for c in &config.components {
        let Some(Some(spec)) = instances.get(c.name.as_str()) else {
            continue;
        };
        if spec.is_sink() {
            let any = (0..spec.inputs.len()).any(|p| driven.contains(&(c.name.as_str(), p)));
            if !any {
                report.push(
                    Diagnostic::new(
                        Code::P002,
                        Severity::Warning,
                        format!("sink {:?} has no connected input", c.name),
                        vec![c.name.clone()],
                    )
                    .with_hint("connect the end of the positioning process to this sink"),
                );
            }
            continue;
        }
        for (i, port) in spec.inputs.iter().enumerate() {
            if !driven.contains(&(c.name.as_str(), i)) {
                report.push(
                    Diagnostic::new(
                        Code::P002,
                        Severity::Error,
                        format!(
                            "input port {:?} (index {i}) of {:?} is never connected",
                            port.name, c.name
                        ),
                        vec![format!("{}(port {i})", c.name)],
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
}

/// P003: a port with `required_features` can never be satisfied by plain
/// configuration instantiation — factories build bare components, and
/// `connect` validates feature requirements at wiring time, before any
/// feature could be attached.
fn check_feature_requirements(
    instances: &BTreeMap<&str, Option<ComponentTypeSpec>>,
    edges: &[&ConnectionConfig],
    report: &mut Report,
) {
    for e in edges {
        let Some(Some(to)) = instances.get(e.to.as_str()) else {
            continue;
        };
        let Some(port) = to.inputs.get(e.port) else {
            continue;
        };
        for feature in &port.required_features {
            report.push(
                Diagnostic::new(
                    Code::P003,
                    Severity::Error,
                    format!(
                        "port {:?} of {:?} requires feature {:?} on the producer, but \
                         configurations instantiate bare components",
                        port.name, e.to, feature
                    ),
                    vec![e.from.clone(), format!("{}(port {})", e.to, e.port)],
                )
                .with_hint(format!(
                    "build this edge through the graph API after attaching {feature:?} \
                     to {:?}, or drop the requirement",
                    e.from
                )),
            );
        }
    }
}

/// P004: instances with no directed path to any sink produce data nobody
/// consumes (orphan sources, dead subgraphs).
fn check_dead_components(
    config: &GraphConfig,
    instances: &BTreeMap<&str, Option<ComponentTypeSpec>>,
    edges: &[&ConnectionConfig],
    report: &mut Report,
) {
    // Walk backwards from every sink over reversed edges.
    let mut alive: BTreeSet<&str> = instances
        .iter()
        .filter(|(_, s)| s.as_ref().is_some_and(|s| s.is_sink()))
        .map(|(n, _)| *n)
        .collect();
    let mut frontier: Vec<&str> = alive.iter().copied().collect();
    while let Some(n) = frontier.pop() {
        for e in edges {
            if e.to == n && alive.insert(e.from.as_str()) {
                frontier.push(e.from.as_str());
            }
        }
    }
    for c in &config.components {
        let Some(Some(_)) = instances.get(c.name.as_str()) else {
            continue;
        };
        if !alive.contains(c.name.as_str()) {
            report.push(
                Diagnostic::new(
                    Code::P004,
                    Severity::Warning,
                    format!(
                        "{:?} has no path to any sink; its output is never consumed",
                        c.name
                    ),
                    vec![c.name.clone()],
                )
                .with_hint("connect it (transitively) to a sink, or remove it"),
            );
        }
    }
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
}
