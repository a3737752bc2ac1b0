//! Widening coverage: the four real domains on a *cyclic* graph.
//!
//! Cyclic structures are configuration errors (P005), but the solver
//! must still terminate on them and produce sound over-approximations —
//! the analysis runs before the structural checks reject anything. Each
//! test solves one domain over the same two-node feedback loop
//! (`src → m ⇄ r → app`) and asserts (a) the worklist reached its
//! fixpoint within the step cap and (b) the facts over-approximate every
//! concrete behaviour.

use perpos_analysis::domains::{accuracy, frame, rate, taint};
use perpos_analysis::{solve, ComponentTypeSpec, FlowGraph, PortSpec, TypeCatalog};
use perpos_core::assembly::{ComponentConfig, ConnectionConfig, GraphConfig};
use perpos_core::component::TransferSpec;

fn spec(kind: &str, role: &str, inputs: usize, provides: &[&str]) -> ComponentTypeSpec {
    ComponentTypeSpec {
        kind: kind.into(),
        role: role.into(),
        inputs: (0..inputs)
            .map(|i| PortSpec {
                name: format!("in{i}"),
                accepts: Vec::new(),
                required_features: Vec::new(),
            })
            .collect(),
        provides: provides.iter().map(|s| s.to_string()).collect(),
        transfer: None,
        effects: None,
    }
}

fn instance(name: &str, kind: &str) -> ComponentConfig {
    ComponentConfig {
        name: name.into(),
        kind: kind.into(),
        fault_policy: None,
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

/// `src → m`, `m ⇄ r` (feedback), `r → app`: the merge and the relay
/// form a cycle that keeps re-feeding each other.
fn cyclic_graph(src_transfer: TransferSpec, relay_transfer: TransferSpec) -> FlowGraph {
    let mut catalog = TypeCatalog::new();
    let mut src = spec("src", "source", 0, &["raw.string"]);
    src.transfer = Some(src_transfer);
    catalog.insert(src);
    catalog.insert(spec("m", "merge", 2, &["raw.string"]));
    let mut relay = spec("relay", "processor", 1, &["raw.string"]);
    relay.transfer = Some(relay_transfer);
    catalog.insert(relay);
    let config = GraphConfig {
        components: vec![
            instance("src", "src"),
            instance("m", "m"),
            instance("r", "relay"),
            instance("app", "application"),
        ],
        connections: vec![
            edge("src", "m", 0),
            edge("r", "m", 1),
            edge("m", "r", 0),
            edge("r", "app", 0),
        ],
        fleet: None,
    };
    let graph = FlowGraph::from_config(&config, &catalog);
    assert!(
        graph.topological_order().is_none(),
        "the fixture must actually be cyclic"
    );
    graph
}

fn node(graph: &FlowGraph, label: &str) -> usize {
    graph
        .nodes
        .iter()
        .position(|n| n.label == label)
        .unwrap_or_else(|| panic!("node {label} present"))
}

#[test]
fn frame_domain_converges_on_cycles_and_keeps_the_source_frame() {
    let graph = cyclic_graph(
        TransferSpec::default().with_frame("wgs84"),
        TransferSpec::default(),
    );
    let solution = solve(&graph, &frame::FrameDomain);
    assert!(solution.converged, "finite lattice must reach its fixpoint");
    // Sound: the only concrete frame flowing through the loop is the
    // source's, and every node in the loop must report at least it.
    for label in ["m", "r", "app"] {
        let frames = &solution.facts[node(&graph, label)];
        assert!(
            frames.contains("wgs84"),
            "{label} lost the source frame: {frames:?}"
        );
    }
}

#[test]
fn taint_domain_converges_on_cycles_and_keeps_the_origin() {
    // raw.string is identifiable; the relay re-provides it, so the taint
    // must survive arbitrarily many loop iterations and reach the sink.
    let graph = cyclic_graph(TransferSpec::default(), TransferSpec::default());
    let solution = solve(&graph, &taint::TaintDomain);
    assert!(solution.converged, "finite lattice must reach its fixpoint");
    let sink = &solution.facts[node(&graph, "app")];
    assert!(
        sink.iter()
            .any(|(kind, origin)| kind == "raw.string" && origin == "src"),
        "sink must observe the identifiable source through the cycle: {sink:?}"
    );
}

#[test]
fn accuracy_domain_widens_shrinking_intervals_to_a_sound_bound() {
    // The relay halves the interval on every loop iteration, so without
    // widening the chain (1, 15), (0.5, 7.5), ... would descend forever.
    let halver = TransferSpec {
        accuracy_scale: Some(0.5),
        ..TransferSpec::default()
    };
    let graph = cyclic_graph(TransferSpec::default().with_accuracy_m(2.0, 30.0), halver);
    let solution = solve(&graph, &accuracy::AccuracyDomain);
    assert!(solution.converged, "widening must force the fixpoint");
    let (best, worst) = solution.facts[node(&graph, "r")].expect("accuracy inferred in the loop");
    // Sound over-approximation: one concrete pass through the loop can
    // already deliver 2 * 0.5 = 1 m best and 15 m worst, and further
    // passes only stretch the range — the widened interval must cover
    // every iterate.
    assert!(best <= 1.0, "best bound {best} excludes a concrete run");
    assert!(worst >= 15.0, "worst bound {worst} excludes a concrete run");
    assert!(
        best == 0.0 && worst.is_infinite(),
        "descending chains widen to the full interval, got ({best}, {worst})"
    );
}

#[test]
fn rate_domain_widens_summing_loops_to_a_sound_bound() {
    // The merge sums its inflows, one of which is the loop itself: the
    // guaranteed rate grows without bound until widening caps the chain.
    let graph = cyclic_graph(
        TransferSpec::default().with_emit_rate_hz(1.0),
        TransferSpec::default(),
    );
    let solution = solve(&graph, &rate::RateDomain);
    assert!(solution.converged, "widening must force the fixpoint");
    let (lo, hi) = solution.facts[node(&graph, "app")].expect("rate inferred through the loop");
    // Sound: the widened interval must contain every concrete rate the
    // feedback loop can exhibit (any value >= the source's 1 Hz).
    assert!(lo <= 1.0, "guaranteed bound {lo} excludes the source rate");
    assert!(hi.is_infinite(), "a summing loop has no finite upper rate");
}
