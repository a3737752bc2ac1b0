//! Effect & determinism analysis (P018–P020).
//!
//! The fleet runtime leans on properties no earlier pass verified:
//! checkpoint-restart assumes a snapshot captures *all* component state
//! and that replaying a trace reproduces the run byte-for-byte, and
//! parallel shard stepping assumes instances share nothing. Components
//! declare the effects that could break those assumptions in
//! [`EffectSpec`] metadata; this module checks the declarations against
//! the deployment the graph requests:
//!
//! - **P018** (error) — a component declared stateful but not
//!   snapshot-capable runs inside a fleet deployment; checkpoint-restart
//!   silently resets its state.
//! - **P019** (warning) — exogenous inputs (wall clock, live I/O) or
//!   unseeded randomness in a graph whose deployment (fleet replay) or
//!   origin (the synthesis gate) assumes deterministic re-execution.
//! - **P020** (warning) — the fleet block requests parallel shard
//!   stepping while a template component declares shared-resource
//!   writes: the component's replicas in concurrently stepped shards
//!   race on the named resource.

use perpos_core::component::EffectSpec;

use crate::dataflow::FlowGraph;
use crate::diagnostic::{Code, Diagnostic, Report, Severity};

fn resources(list: Option<&Vec<String>>) -> &[String] {
    list.map(Vec::as_slice).unwrap_or(&[])
}

fn writes(e: &EffectSpec) -> &[String] {
    resources(e.writes.as_ref())
}

/// The exogenous/unseeded effect names a node declares, for P019
/// messages and the facts document. Empty when the node is
/// deterministic.
pub fn nondeterministic_effects(e: &EffectSpec) -> Vec<&'static str> {
    let mut names = Vec::new();
    if e.wall_clock == Some(true) {
        names.push("wall-clock");
    }
    if e.io == Some(true) {
        names.push("exogenous-io");
    }
    if e.unseeded == Some(true) {
        names.push("unseeded-randomness");
    }
    names
}

/// Runs the effect checks that the graph's *declared deployment* makes
/// relevant: P018, P019 and P020 when a fleet block is present
/// (checkpoint-restart assumes snapshot completeness and deterministic
/// replay; parallel shard stepping assumes instances share nothing).
pub fn effect_diagnostics(graph: &FlowGraph, report: &mut Report) {
    if graph.fleet.is_some() {
        for n in &graph.nodes {
            if n.effects.stateful == Some(true) && n.effects.snapshot_capable != Some(true) {
                report.push(
                    Diagnostic::new(
                        Code::P018,
                        Severity::Error,
                        format!(
                            "stateful component {:?} declares no snapshot capability; fleet \
                             checkpoint-restart will silently reset its state on every recovery",
                            n.label
                        ),
                        vec![n.label.clone()],
                    )
                    .with_hint(
                        "implement snapshot_state/restore_state and declare snapshot_capable, \
                         make the component stateless, or drop the fleet block",
                    ),
                );
            }
        }
        fleet_parallel_diagnostics(graph, report);
        determinism_diagnostics(graph, report);
    }
}

/// **P020** (warning) — the fleet block requests parallel shard
/// stepping (`workers` other than 1) while a template component
/// declares `writes` on a named shared resource. Every fleet instance
/// replicates the template, so the writing component exists once *per
/// instance*; with shards stepped concurrently, replicas in different
/// shards hit the same named resource with nothing to serialize them.
/// It does not even need two components: a single writer races with
/// its own replicas. The fleet's byte-equality contract (serial ≡
/// work-stealing) only covers state the instances actually own.
pub fn fleet_parallel_diagnostics(graph: &FlowGraph, report: &mut Report) {
    let Some(spec) = &graph.fleet else {
        return;
    };
    let workers = match spec.resolved_scheduler() {
        perpos_core::fleet::FleetScheduler::WorkStealing { workers } => workers,
        _ => return,
    };
    let workers_txt = if workers == 0 {
        "machine-sized".to_string()
    } else {
        workers.to_string()
    };
    for n in &graph.nodes {
        let written = writes(&n.effects);
        if written.is_empty() {
            continue;
        }
        let resources = written
            .iter()
            .map(|r| format!("{r:?}"))
            .collect::<Vec<_>>()
            .join(", ");
        report.push(
            Diagnostic::new(
                Code::P020,
                Severity::Warning,
                format!(
                    "component {:?} declares writes on shared resource(s) {} while the \
                     fleet block requests {}-worker parallel stepping; its replicas in \
                     concurrently stepped shards race on the shared resource",
                    n.label, resources, workers_txt
                ),
                vec![n.label.clone()],
            )
            .with_hint(
                "set fleet.workers to 1, move the shared state into per-instance component \
                 state, or drop the shared-resource write declaration if each replica \
                 really owns a private copy",
            ),
        );
    }
}

/// Runs P019 unconditionally — for contexts that assume deterministic
/// re-execution regardless of a declared fleet block. The synthesis
/// acceptance gate uses this so synthesized pipelines are reproducible
/// by construction; [`effect_diagnostics`] calls it when a fleet block
/// makes replay determinism a deployed assumption.
pub fn determinism_diagnostics(graph: &FlowGraph, report: &mut Report) {
    for n in &graph.nodes {
        let names = nondeterministic_effects(&n.effects);
        if !names.is_empty() {
            report.push(
                Diagnostic::new(
                    Code::P019,
                    Severity::Warning,
                    format!(
                        "component {:?} declares nondeterministic effects ({}) in a graph \
                         assumed to replay deterministically",
                        n.label,
                        names.join(", ")
                    ),
                    vec![n.label.clone()],
                )
                .with_hint(
                    "route the exogenous input through the engine clock or a recorded trace, \
                     seed the randomness from configuration, or drop the determinism \
                     assumption (fleet block / synthesis)",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::FlowNode;
    use perpos_core::assembly::FleetSpec;
    use perpos_core::component::{ComponentRole, TransferSpec};

    fn node(label: &str, effects: EffectSpec) -> FlowNode {
        FlowNode {
            label: label.to_string(),
            role: ComponentRole::Source,
            inputs: Vec::new(),
            provides: vec!["position".into()],
            transfer: TransferSpec::default(),
            anonymizes: false,
            effects,
            features: Vec::new(),
            typed: true,
        }
    }

    fn graph_of(nodes: Vec<FlowNode>) -> FlowGraph {
        FlowGraph::finish(nodes, Vec::new())
    }

    fn fleet_spec(instances: usize) -> FleetSpec {
        FleetSpec {
            instances,
            shards: None,
            checkpoint_every: None,
            workers: None,
        }
    }

    #[test]
    fn p018_and_p019_require_a_fleet_block() {
        let nodes = vec![
            node("filter", EffectSpec::new().stateful(false)),
            node("clocked", EffectSpec::new().with_wall_clock()),
        ];
        let plain = graph_of(nodes.clone());
        let mut report = Report::new();
        effect_diagnostics(&plain, &mut report);
        assert!(report.is_clean());

        let mut fleet = graph_of(nodes);
        fleet.fleet = Some(fleet_spec(8));
        let mut report = Report::new();
        effect_diagnostics(&fleet, &mut report);
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::P018, Code::P019]);
    }

    #[test]
    fn snapshot_capable_stateful_component_is_fine_in_a_fleet() {
        let mut g = graph_of(vec![node("filter", EffectSpec::new().stateful(true))]);
        g.fleet = Some(fleet_spec(8));
        let mut report = Report::new();
        effect_diagnostics(&g, &mut report);
        assert!(report.is_clean());
    }

    #[test]
    fn p020_fires_only_for_parallel_fleets_with_shared_writes() {
        let nodes = vec![node("calib", EffectSpec::new().writing("bias-table"))];

        // No fleet block: nothing to step in parallel.
        let plain = graph_of(nodes.clone());
        let mut report = Report::new();
        fleet_parallel_diagnostics(&plain, &mut report);
        assert!(report.is_clean());

        // Serial fleet: replicas never step concurrently.
        let mut serial = graph_of(nodes.clone());
        serial.fleet = Some(fleet_spec(512));
        let mut report = Report::new();
        fleet_parallel_diagnostics(&serial, &mut report);
        assert!(report.is_clean());

        // Parallel fleet via explicit workers: the writer's replicas race.
        let mut parallel = graph_of(nodes.clone());
        parallel.fleet = Some(FleetSpec {
            workers: Some(4),
            ..fleet_spec(512)
        });
        let mut report = Report::new();
        effect_diagnostics(&parallel, &mut report);
        let p020: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::P020)
            .collect();
        assert_eq!(p020.len(), 1);
        assert_eq!(p020[0].severity, Severity::Warning);
        assert!(p020[0].message.contains("\"bias-table\""));
        assert!(p020[0].message.contains("4-worker"));

        // Machine-sized work stealing (workers 0) counts as parallel.
        let mut machine = graph_of(nodes.clone());
        machine.fleet = Some(FleetSpec {
            workers: Some(0),
            ..fleet_spec(512)
        });
        let mut report = Report::new();
        fleet_parallel_diagnostics(&machine, &mut report);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.diagnostics[0].message.contains("machine-sized"));

        // Explicit workers: 1 pins the fleet serial — clean again.
        let mut one = graph_of(nodes);
        one.fleet = Some(FleetSpec {
            workers: Some(1),
            ..fleet_spec(512)
        });
        let mut report = Report::new();
        fleet_parallel_diagnostics(&one, &mut report);
        assert!(report.is_clean());

        // Pure readers don't trip it: only declared writes race.
        let mut readers = graph_of(vec![node("lookup", EffectSpec::new().reading("map"))]);
        readers.fleet = Some(FleetSpec {
            workers: Some(8),
            ..fleet_spec(512)
        });
        let mut report = Report::new();
        fleet_parallel_diagnostics(&readers, &mut report);
        assert!(report.is_clean());
    }

    #[test]
    fn determinism_diagnostics_fire_without_fleet_context() {
        let g = graph_of(vec![node("rng", EffectSpec::new().with_unseeded())]);
        let mut report = Report::new();
        determinism_diagnostics(&g, &mut report);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, Code::P019);
        assert!(report.diagnostics[0]
            .message
            .contains("unseeded-randomness"));
    }
}
