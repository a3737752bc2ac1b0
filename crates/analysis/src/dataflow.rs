//! Generic forward-dataflow / abstract-interpretation framework over
//! processing graphs.
//!
//! Whole-graph semantic properties — which coordinate frame a channel
//! carries, what accuracy is achievable, whether identifiable data can
//! reach the application, how many items per second flow — are *dataflow
//! facts*: elements of a lattice attached to every component output and
//! computed as a fixpoint of per-component *transfer functions*. This
//! module provides the machinery; the concrete lattices live in
//! [`crate::domains`].
//!
//! Two halves:
//!
//! - [`FlowGraph`] — a common intermediate representation built either
//!   [from a declarative configuration](FlowGraph::from_config) (types
//!   resolved against a [`TypeCatalog`], per-instance
//!   [`TransferSpec`] overrides applied) or
//!   [from the live structure](FlowGraph::from_structure)
//!   (`Middleware::structure()` output, feature-added kinds included).
//!   Running the same analyses over both is what makes config-level and
//!   live-level findings comparable (parity-tested in the suite).
//! - [`solve`] — a fixpoint solver for any [`Domain`]. Positioning
//!   processes are DAGs, so the common case is a single pass in
//!   topological order; structures that already violate the DAG
//!   invariant (flagged P005 elsewhere) fall back to a worklist with
//!   [widening](Domain::widen) and a step cap, so the solver terminates
//!   on *any* input.

use std::collections::{BTreeMap, VecDeque};

use perpos_core::assembly::{FleetSpec, GraphConfig};
use perpos_core::component::{ComponentRole, EffectSpec, TransferSpec};
use perpos_core::graph::NodeInfo;

use crate::catalog::TypeCatalog;

/// One input port of a [`FlowNode`]: the kinds it accepts (empty = any).
#[derive(Debug, Clone, Default)]
pub struct FlowPort {
    /// Accepted data kinds; empty means the port accepts anything.
    pub accepts: Vec<String>,
}

impl FlowPort {
    /// Whether the port lets items of `kind` through.
    pub fn accepts_kind(&self, kind: &str) -> bool {
        self.accepts.is_empty() || self.accepts.iter().any(|k| k == kind)
    }
}

/// One component instance in the analysis representation.
#[derive(Debug, Clone)]
pub struct FlowNode {
    /// Display label used in diagnostics (instance name for configs,
    /// `name (node#N)` for live structures).
    pub label: String,
    /// Structural role.
    pub role: ComponentRole,
    /// Input ports in port-index order.
    pub inputs: Vec<FlowPort>,
    /// Effective output kinds: declared provides plus, for live nodes,
    /// everything attached features add.
    pub provides: Vec<String>,
    /// Effective transfer function metadata (type-level spec overlaid
    /// with any per-instance override).
    pub transfer: TransferSpec,
    /// Whether the node anonymizes identifiable data: declared on the
    /// transfer spec, or (live) contributed by an attached feature.
    pub anonymizes: bool,
    /// Effective effect metadata (type-level spec overlaid with any
    /// per-instance override).
    pub effects: EffectSpec,
}

/// One wire: output of `from` into input `port` of `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEdge {
    /// Producing node index.
    pub from: usize,
    /// Consuming node index.
    pub to: usize,
    /// Input port on the consumer.
    pub port: usize,
}

/// The unified graph representation dataflow analyses run on.
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    /// Component instances.
    pub nodes: Vec<FlowNode>,
    /// Wires between them.
    pub edges: Vec<FlowEdge>,
    /// Fleet deployment the configuration requests (`None` = a single
    /// unsupervised instance; live structures do not record one).
    pub fleet: Option<FleetSpec>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl FlowGraph {
    pub(crate) fn finish(nodes: Vec<FlowNode>, edges: Vec<FlowEdge>) -> FlowGraph {
        let mut preds = vec![Vec::new(); nodes.len()];
        let mut succs = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            preds[e.to].push(i);
            succs[e.from].push(i);
        }
        FlowGraph {
            nodes,
            edges,
            fleet: None,
            preds,
            succs,
        }
    }

    /// Builds the analysis representation of a declarative configuration.
    ///
    /// Components whose type the catalog does not know, and connections
    /// referencing unknown instances or out-of-range ports, are skipped —
    /// the reference lints (P007) report those; dataflow analysis runs on
    /// the well-formed remainder.
    pub fn from_config(config: &GraphConfig, catalog: &TypeCatalog) -> FlowGraph {
        let mut nodes = Vec::new();
        let mut index: BTreeMap<&str, usize> = BTreeMap::new();
        for c in &config.components {
            let Some(spec) = catalog.get(&c.kind) else {
                continue;
            };
            if index.contains_key(c.name.as_str()) {
                continue; // duplicate instance name; P007 reports it
            }
            let role = match spec.role.as_str() {
                "source" => ComponentRole::Source,
                "merge" => ComponentRole::Merge,
                "sink" => ComponentRole::Sink,
                _ => ComponentRole::Processor,
            };
            let base = spec.transfer.clone().unwrap_or_default();
            let transfer = match &c.transfer {
                Some(over) => base.overlay(over),
                None => base,
            };
            let effects_base = spec.effects.clone().unwrap_or_default();
            let effects = match &c.effects {
                Some(over) => effects_base.overlay(over),
                None => effects_base,
            };
            let anonymizes = transfer.anonymizes == Some(true);
            index.insert(c.name.as_str(), nodes.len());
            nodes.push(FlowNode {
                label: c.name.clone(),
                role,
                inputs: spec
                    .inputs
                    .iter()
                    .map(|p| FlowPort {
                        accepts: p.accepts.clone(),
                    })
                    .collect(),
                provides: spec.provides.clone(),
                transfer,
                anonymizes,
                effects,
            });
        }
        let mut edges = Vec::new();
        for conn in &config.connections {
            let (Some(&from), Some(&to)) =
                (index.get(conn.from.as_str()), index.get(conn.to.as_str()))
            else {
                continue;
            };
            if conn.port >= nodes[to].inputs.len() {
                continue;
            }
            edges.push(FlowEdge {
                from,
                to,
                port: conn.port,
            });
        }
        let mut graph = FlowGraph::finish(nodes, edges);
        graph.fleet = config.fleet.clone();
        graph
    }

    /// Builds the analysis representation of a live (or simulated)
    /// structure, as returned by `Middleware::structure()`.
    pub fn from_structure(structure: &[NodeInfo]) -> FlowGraph {
        let index: BTreeMap<_, _> = structure
            .iter()
            .enumerate()
            .map(|(i, n)| (n.id, i))
            .collect();
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for (i, n) in structure.iter().enumerate() {
            let mut provides: Vec<String> = n
                .descriptor
                .output
                .as_ref()
                .map(|o| o.provides.iter().map(|k| k.as_str().to_string()).collect())
                .unwrap_or_default();
            for f in &n.features {
                for k in &f.adds_kinds {
                    let s = k.as_str().to_string();
                    if !provides.contains(&s) {
                        provides.push(s);
                    }
                }
            }
            let anonymizes = n.descriptor.transfer.anonymizes == Some(true)
                || n.features.iter().any(|f| f.anonymizes);
            nodes.push(FlowNode {
                label: format!("{} ({})", n.descriptor.name, n.id),
                role: n.descriptor.role,
                inputs: n
                    .descriptor
                    .inputs
                    .iter()
                    .map(|p| FlowPort {
                        accepts: p.accepts.iter().map(|k| k.as_str().to_string()).collect(),
                    })
                    .collect(),
                provides,
                transfer: n.descriptor.transfer.clone(),
                anonymizes,
                effects: n.descriptor.effects.clone(),
            });
            for (port, producer) in n.inputs.iter().enumerate() {
                let Some(pid) = producer else { continue };
                let Some(&from) = index.get(pid) else {
                    continue;
                };
                edges.push(FlowEdge { from, to: i, port });
            }
        }
        FlowGraph::finish(nodes, edges)
    }

    /// Edge indices entering `node` (wires driving its input ports).
    pub fn preds(&self, node: usize) -> &[usize] {
        &self.preds[node]
    }

    /// Edge indices leaving `node`.
    pub fn succs(&self, node: usize) -> &[usize] {
        &self.succs[node]
    }

    /// The data kinds that can actually flow over edge `e`: the
    /// producer's effective provides filtered by what the consuming port
    /// accepts. The engine enforces exactly this at delivery time, so
    /// analyses that propagate per-kind facts filter with it too.
    pub fn edge_kinds(&self, e: usize) -> Vec<String> {
        let edge = &self.edges[e];
        let port = &self.nodes[edge.to].inputs[edge.port];
        self.nodes[edge.from]
            .provides
            .iter()
            .filter(|k| port.accepts_kind(k))
            .cloned()
            .collect()
    }

    /// A topological order of the nodes, or `None` if the graph has a
    /// cycle (possible only for hypothetical/declarative structures; the
    /// live graph is acyclic by construction).
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indegree: Vec<usize> = (0..self.nodes.len()).map(|i| self.preds[i].len()).collect();
        let mut queue: VecDeque<usize> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &e in &self.succs[i] {
                let t = self.edges[e].to;
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        (order.len() == self.nodes.len()).then_some(order)
    }
}

/// An abstract domain: the lattice of facts one analysis computes, with
/// its per-node transfer function.
///
/// Facts live on node *outputs* (for sinks, the fact describes what the
/// sink observes). [`Domain::transfer`] receives the facts of all wired
/// producers, one entry per incoming edge, and combines/filters them as
/// the domain requires — joins happen inside `transfer`, which keeps
/// per-edge filtering (by the kinds the edge can carry) domain-specific.
pub trait Domain {
    /// The lattice element.
    type Fact: Clone + PartialEq;

    /// The least element: "nothing known yet".
    fn bottom(&self) -> Self::Fact;

    /// Computes the node's output fact from its inputs. `inputs` holds
    /// `(edge_index, producer_fact)` for every wired incoming edge, in
    /// edge order; use [`FlowGraph::edge_kinds`] for per-edge filtering.
    fn transfer(
        &self,
        graph: &FlowGraph,
        node: usize,
        inputs: &[(usize, &Self::Fact)],
    ) -> Self::Fact;

    /// Accelerates convergence on cyclic inputs: called instead of plain
    /// replacement once a node has been revisited [`WIDEN_AFTER`] times.
    /// Must return an upper bound of both arguments; the default keeps
    /// the new fact, which suffices for finite lattices.
    fn widen(&self, previous: &Self::Fact, next: &Self::Fact) -> Self::Fact {
        let _ = previous;
        next.clone()
    }
}

/// Revisit count after which the solver starts widening a node's fact.
pub const WIDEN_AFTER: usize = 4;

/// The solved facts of one domain over one graph.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Output fact per node, indexed like [`FlowGraph::nodes`].
    pub facts: Vec<F>,
    /// Whether a fixpoint was reached. A single topological pass over a
    /// DAG always converges; the worklist fallback converges unless the
    /// step cap is hit (pathological non-widening domains only).
    pub converged: bool,
    /// Transfer-function evaluations performed.
    pub steps: usize,
}

/// Runs `domain` to a fixpoint over `graph`.
///
/// DAGs (every real positioning process) are solved in one pass over a
/// topological order. Cyclic graphs — already structural errors, but the
/// solver must not hang on them — use a worklist: each node's fact is
/// recomputed until stable, with [`Domain::widen`] applied after
/// [`WIDEN_AFTER`] revisits and a hard step cap as the final backstop.
pub fn solve<D: Domain>(graph: &FlowGraph, domain: &D) -> Solution<D::Fact> {
    let n = graph.nodes.len();
    let mut facts: Vec<D::Fact> = (0..n).map(|_| domain.bottom()).collect();

    let gather = |facts: &Vec<D::Fact>, node: usize| -> Vec<(usize, D::Fact)> {
        graph
            .preds(node)
            .iter()
            .map(|&e| (e, facts[graph.edges[e].from].clone()))
            .collect()
    };
    let run = |domain: &D, facts: &Vec<D::Fact>, node: usize| -> D::Fact {
        let inputs = gather(facts, node);
        let refs: Vec<(usize, &D::Fact)> = inputs.iter().map(|(e, f)| (*e, f)).collect();
        domain.transfer(graph, node, &refs)
    };

    if let Some(order) = graph.topological_order() {
        for &i in &order {
            facts[i] = run(domain, &facts, i);
        }
        return Solution {
            facts,
            converged: true,
            steps: n,
        };
    }

    // Cyclic (already-invalid) structure: worklist with widening.
    let cap = 64 * n.max(1) + 64;
    let mut steps = 0;
    let mut visits = vec![0usize; n];
    let mut queued = vec![true; n];
    let mut work: VecDeque<usize> = (0..n).collect();
    let mut converged = true;
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        if steps >= cap {
            converged = false;
            break;
        }
        steps += 1;
        let mut next = run(domain, &facts, i);
        visits[i] += 1;
        if visits[i] > WIDEN_AFTER {
            next = domain.widen(&facts[i], &next);
        }
        if next != facts[i] {
            facts[i] = next;
            for &e in graph.succs(i) {
                let t = graph.edges[e].to;
                if !queued[t] {
                    queued[t] = true;
                    work.push_back(t);
                }
            }
        }
    }
    Solution {
        facts,
        converged,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ComponentTypeSpec, PortSpec};
    use perpos_core::assembly::{ComponentConfig, ConnectionConfig};

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

    /// Counts the longest producer chain above each node — a simple
    /// domain whose fixpoint on a DAG is node depth, and which diverges
    /// on cycles unless widened.
    struct Depth;
    impl Domain for Depth {
        type Fact = u64;
        fn bottom(&self) -> u64 {
            0
        }
        fn transfer(&self, _g: &FlowGraph, _n: usize, inputs: &[(usize, &u64)]) -> u64 {
            inputs
                .iter()
                .map(|(_, f)| (**f).saturating_add(1))
                .max()
                .unwrap_or(0)
        }
        fn widen(&self, _previous: &u64, _next: &u64) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn dag_is_solved_in_topological_order() {
        let mut catalog = TypeCatalog::new();
        catalog.insert(spec("src", "source", 0, &["raw.string"]));
        catalog.insert(spec("proc", "processor", 1, &["raw.string"]));
        catalog.insert(spec("join", "merge", 2, &["raw.string"]));
        let config = GraphConfig {
            components: vec![
                instance("a", "src"),
                instance("b", "proc"),
                instance("c", "join"),
                instance("app", "application"),
            ],
            connections: vec![
                edge("a", "b", 0),
                edge("a", "c", 0),
                edge("b", "c", 1),
                edge("c", "app", 0),
            ],
            fleet: None,
        };
        let g = FlowGraph::from_config(&config, &catalog);
        assert_eq!(g.nodes.len(), 4);
        assert_eq!(g.edges.len(), 4);
        let solution = solve(&g, &Depth);
        assert!(solution.converged);
        // a=0, b=1, c=max(a,b)+1=2, app=3.
        assert_eq!(solution.facts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cyclic_graph_terminates_via_widening() {
        let mut catalog = TypeCatalog::new();
        catalog.insert(spec("proc", "processor", 1, &["raw.string"]));
        let config = GraphConfig {
            components: vec![instance("x", "proc"), instance("y", "proc")],
            connections: vec![edge("x", "y", 0), edge("y", "x", 0)],
            fleet: None,
        };
        let g = FlowGraph::from_config(&config, &catalog);
        assert!(g.topological_order().is_none());
        let solution = solve(&g, &Depth);
        assert!(solution.converged, "widening must reach the fixpoint");
        assert_eq!(solution.facts, vec![u64::MAX, u64::MAX]);
    }

    #[test]
    fn unknown_references_are_skipped_not_fatal() {
        let mut catalog = TypeCatalog::new();
        catalog.insert(spec("src", "source", 0, &["raw.string"]));
        let config = GraphConfig {
            components: vec![instance("a", "src"), instance("ghost", "unknown-type")],
            connections: vec![edge("a", "nobody", 0), edge("ghost", "a", 7)],
            fleet: None,
        };
        let g = FlowGraph::from_config(&config, &catalog);
        assert_eq!(g.nodes.len(), 1);
        assert!(g.edges.is_empty());
        assert!(solve(&g, &Depth).converged);
    }

    #[test]
    fn edge_kinds_filter_by_port_accepts() {
        let mut catalog = TypeCatalog::new();
        catalog.insert(spec("src", "source", 0, &["raw.string", "nmea.sentence"]));
        let mut narrow = spec("narrow", "processor", 1, &["position.wgs84"]);
        narrow.inputs[0].accepts = vec!["nmea.sentence".into()];
        catalog.insert(narrow);
        let config = GraphConfig {
            components: vec![instance("s", "src"), instance("n", "narrow")],
            connections: vec![edge("s", "n", 0)],
            fleet: None,
        };
        let g = FlowGraph::from_config(&config, &catalog);
        assert_eq!(g.edge_kinds(0), vec!["nmea.sentence".to_string()]);
    }
}
