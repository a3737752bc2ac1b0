//! The Process Structure Layer: the positioning process reified as a
//! graph of Processing Components (paper §2.1).
//!
//! The [`ProcessingGraph`] is the most detailed of the three PerPos views.
//! It supports the manipulation API the paper names — *insert*, *delete*
//! and *connect* — validates every connection against declared port
//! requirements and capabilities (including Component Feature
//! dependencies), keeps the process acyclic, and exposes full reflective
//! inspection of components and their attached features.

use std::fmt;

use crate::component::{Component, ComponentCtx, ComponentDescriptor, ComponentRole, MethodSpec};
use crate::data::DataItem;
use crate::data::{DataKind, Value};
use crate::feature::{ComponentFeature, FeatureDescriptor, FeatureHost};
use crate::CoreError;

/// Identifier of a node in the processing graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

impl NodeId {
    /// Dense small-integer view of the id (ids are allocated
    /// sequentially), used for O(1) side tables like the channel layer's
    /// membership index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

pub(crate) struct FeatureSlot {
    pub descriptor: FeatureDescriptor,
    pub feature: Box<dyn ComponentFeature>,
}

pub(crate) struct Node {
    pub component: Box<dyn Component>,
    pub descriptor: ComponentDescriptor,
    pub features: Vec<FeatureSlot>,
    /// Producer wired to each input port.
    pub inputs: Vec<Option<NodeId>>,
    /// Consumers of the output port as `(node, port)`.
    pub outputs: Vec<(NodeId, usize)>,
}

impl Node {
    fn new(component: Box<dyn Component>) -> Self {
        let descriptor = component.descriptor();
        let inputs = vec![None; descriptor.inputs.len()];
        Node {
            component,
            descriptor,
            features: Vec::new(),
            inputs,
            outputs: Vec::new(),
        }
    }

    /// The kinds this node can produce: declared output capabilities,
    /// then everything its attached features may add (paper §2.1: "When
    /// adding data the capabilities of the output port is changed"),
    /// borrowed in place. A kind may appear more than once.
    fn provided_kinds(&self) -> impl Iterator<Item = &DataKind> {
        let declared = self.descriptor.output.iter().flat_map(|o| &o.provides);
        let added = self.features.iter().flat_map(|s| &s.descriptor.adds_kinds);
        declared.chain(added)
    }

    /// [`Node::provided_kinds`] as an owned list without duplicates,
    /// declared kinds first.
    fn effective_provides(&self) -> Vec<DataKind> {
        let mut kinds: Vec<DataKind> = Vec::new();
        for k in self.provided_kinds() {
            if !kinds.contains(k) {
                kinds.push(k.clone());
            }
        }
        kinds
    }

    fn feature_names(&self) -> Vec<String> {
        self.features
            .iter()
            .map(|s| s.descriptor.name.clone())
            .collect()
    }
}

/// The inert component of [`ProcessingGraph::from_structure`]: it
/// declares what the live component declared and never runs.
struct StandIn(ComponentDescriptor);

impl Component for StandIn {
    fn descriptor(&self) -> ComponentDescriptor {
        self.0.clone()
    }

    fn on_input(
        &mut self,
        _port: usize,
        _item: DataItem,
        _ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }
}

/// The inert feature of [`ProcessingGraph::from_structure`]: it declares
/// what the live feature declared and intercepts nothing.
struct StandInFeature(FeatureDescriptor);

impl ComponentFeature for StandInFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        self.0.clone()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Read-only summary of a node, returned by the inspection API.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// The node id.
    pub id: NodeId,
    /// The component's declaration.
    pub descriptor: ComponentDescriptor,
    /// Descriptors of attached features, in attachment order.
    pub features: Vec<FeatureDescriptor>,
    /// Producer connected to each input port.
    pub inputs: Vec<Option<NodeId>>,
    /// Consumers of the output port as `(node, port)` pairs.
    pub outputs: Vec<(NodeId, usize)>,
}

/// Dense node storage: a vector slotted by [`NodeId::index`]. Node ids
/// are allocated sequentially and never reused, so the id doubles as the
/// slot index — the engine's per-item node lookups are two array reads
/// instead of a `BTreeMap` descent. The API mirrors the `BTreeMap` the
/// graph used before (iteration stays ordered by id: slot order *is* id
/// order); removed nodes leave a `None` slot behind.
#[derive(Default)]
struct NodeStore {
    slots: Vec<Option<(NodeId, Node)>>,
    len: usize,
}

impl NodeStore {
    fn insert(&mut self, id: NodeId, node: Node) {
        let idx = id.index();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].replace((id, node)).is_none() {
            self.len += 1;
        }
    }

    fn remove(&mut self, id: &NodeId) -> Option<Node> {
        let taken = self.slots.get_mut(id.index())?.take()?;
        self.len -= 1;
        Some(taken.1)
    }

    fn get(&self, id: &NodeId) -> Option<&Node> {
        self.slots.get(id.index())?.as_ref().map(|(_, n)| n)
    }

    fn get_mut(&mut self, id: &NodeId) -> Option<&mut Node> {
        self.slots.get_mut(id.index())?.as_mut().map(|(_, n)| n)
    }

    fn contains_key(&self, id: &NodeId) -> bool {
        self.get(id).is_some()
    }

    fn keys(&self) -> impl Iterator<Item = &NodeId> {
        self.slots.iter().flatten().map(|(id, _)| id)
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.slots.iter_mut().flatten().map(|(_, n)| n)
    }

    fn iter(&self) -> impl Iterator<Item = (&NodeId, &Node)> {
        self.slots.iter().flatten().map(|(id, n)| (id, n))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Index<&NodeId> for NodeStore {
    type Output = Node;
    fn index(&self, id: &NodeId) -> &Node {
        self.get(id).expect("indexed node exists")
    }
}

impl<'a> IntoIterator for &'a NodeStore {
    type Item = (&'a NodeId, &'a Node);
    type IntoIter = Box<dyn Iterator<Item = (&'a NodeId, &'a Node)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// The reified positioning process: a DAG of Processing Components with
/// data flowing from source leaves towards application sinks.
///
/// ```
/// use perpos_core::prelude::*;
///
/// let mut g = ProcessingGraph::new();
/// let gps = g.add(Box::new(FnSource::new("gps", kinds::RAW_STRING, |_| {
///     Some(Value::from("$GPGGA,..."))
/// })));
/// let parser = g.add(Box::new(FnProcessor::new(
///     "parser",
///     vec![kinds::RAW_STRING],
///     kinds::NMEA_SENTENCE,
///     |item| Some(item.payload.clone()),
/// )));
/// g.connect(gps, parser, 0)?;
/// assert_eq!(g.downstream(gps), vec![(parser, 0)]);
/// # Ok::<(), perpos_core::CoreError>(())
/// ```
#[derive(Default)]
pub struct ProcessingGraph {
    nodes: NodeStore,
    next_id: u64,
}

impl fmt::Debug for ProcessingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessingGraph")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl ProcessingGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        ProcessingGraph::default()
    }

    /// A graph with the ids, wiring and feature descriptors of
    /// `structure` (as [`crate::Middleware::structure`] returns it),
    /// whose components and features are inert stand-ins carrying only
    /// their descriptors. Its structural ops are the live graph's own,
    /// so a change can be replayed here before it is applied there.
    /// Wiring is copied as given, not validated; wires into ports the
    /// descriptor does not declare are dropped.
    pub fn from_structure(structure: &[NodeInfo]) -> Self {
        let mut graph = ProcessingGraph::new();
        for info in structure {
            let mut node = Node::new(Box::new(StandIn(info.descriptor.clone())));
            for (slot, producer) in node.inputs.iter_mut().zip(&info.inputs) {
                *slot = *producer;
            }
            node.outputs = info.outputs.clone();
            node.features = info
                .features
                .iter()
                .map(|d| FeatureSlot {
                    descriptor: d.clone(),
                    feature: Box::new(StandInFeature(d.clone())),
                })
                .collect();
            graph.nodes.insert(info.id, node);
            graph.next_id = graph.next_id.max(info.id.0);
        }
        graph
    }

    /// Adds a component as a new, unconnected node.
    pub fn add(&mut self, component: Box<dyn Component>) -> NodeId {
        self.next_id += 1;
        let id = NodeId(self.next_id);
        self.nodes.insert(id, Node::new(component));
        id
    }

    /// Removes a node, disconnecting all its edges, and returns the
    /// component.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] when the node does not exist.
    pub fn remove(&mut self, id: NodeId) -> Result<Box<dyn Component>, CoreError> {
        let node = self.nodes.remove(&id).ok_or(CoreError::UnknownNode(id))?;
        for other in self.nodes.values_mut() {
            other.outputs.retain(|(t, _)| *t != id);
            for slot in other.inputs.iter_mut() {
                if *slot == Some(id) {
                    *slot = None;
                }
            }
        }
        Ok(node.component)
    }

    /// Connects `from`'s output port to input port `port` of `to`.
    ///
    /// Validates, in order: node existence, port existence and vacancy,
    /// producer output existence, kind compatibility (the port must accept
    /// at least one kind the producer — including its features — can
    /// provide), Component Feature dependencies declared by the port, and
    /// acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`CoreError`] variant for each violated
    /// check.
    pub fn connect(&mut self, from: NodeId, to: NodeId, port: usize) -> Result<(), CoreError> {
        let from_node = self.nodes.get(&from).ok_or(CoreError::UnknownNode(from))?;
        let to_node = self.nodes.get(&to).ok_or(CoreError::UnknownNode(to))?;
        let spec = to_node
            .descriptor
            .inputs
            .get(port)
            .ok_or(CoreError::UnknownPort { node: to, port })?;
        if to_node.inputs[port].is_some() {
            return Err(CoreError::PortOccupied { node: to, port });
        }
        if from_node.descriptor.output.is_none() {
            return Err(CoreError::NoOutput(from));
        }
        // An accepts-any port takes any producer, even one that declares
        // no kinds; otherwise one provided kind must be accepted.
        if !spec.accepts.is_empty() && !from_node.provided_kinds().any(|k| spec.accepts_kind(k)) {
            return Err(CoreError::IncompatibleConnection {
                from,
                to,
                accepts: spec.accepts.clone(),
                provides: from_node.effective_provides(),
            });
        }
        for required in &spec.required_features {
            if !from_node
                .features
                .iter()
                .any(|s| &s.descriptor.name == required)
            {
                return Err(CoreError::MissingFeature {
                    node: to,
                    feature: required.clone(),
                });
            }
        }
        if from == to || self.reaches(to, from) {
            return Err(CoreError::CycleDetected { from, to });
        }
        self.nodes
            .get_mut(&from)
            .ok_or(CoreError::UnknownNode(from))?
            .outputs
            .push((to, port));
        self.nodes
            .get_mut(&to)
            .ok_or(CoreError::UnknownNode(to))?
            .inputs[port] = Some(from);
        Ok(())
    }

    /// Disconnects input port `port` of `to`, returning the producer that
    /// was connected.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] / [`CoreError::UnknownPort`] for
    /// bad coordinates; disconnecting an unconnected port is a no-op
    /// returning `None`.
    pub fn disconnect(&mut self, to: NodeId, port: usize) -> Result<Option<NodeId>, CoreError> {
        let to_node = self.nodes.get_mut(&to).ok_or(CoreError::UnknownNode(to))?;
        if port >= to_node.inputs.len() {
            return Err(CoreError::UnknownPort { node: to, port });
        }
        let producer = to_node.inputs[port].take();
        if let Some(p) = producer {
            if let Some(pn) = self.nodes.get_mut(&p) {
                pn.outputs.retain(|(t, pt)| !(*t == to && *pt == port));
            }
        }
        Ok(producer)
    }

    /// Inserts `new` between `from` and `(to, port)`: the existing edge is
    /// replaced by `from -> new(0)` and `new -> to(port)`.
    ///
    /// This is the primitive behind the paper's §3.1 example, where a
    /// satellite-count filter is inserted after the Parser component.
    ///
    /// # Errors
    ///
    /// Fails (leaving the graph unchanged) when the edge does not exist
    /// or either new connection would be invalid; on a mid-way failure the
    /// original edge is restored.
    pub fn insert_between(
        &mut self,
        new: NodeId,
        from: NodeId,
        to: NodeId,
        port: usize,
    ) -> Result<(), CoreError> {
        let producer = self
            .nodes
            .get(&to)
            .ok_or(CoreError::UnknownNode(to))?
            .inputs
            .get(port)
            .copied()
            .flatten();
        if producer != Some(from) {
            return Err(CoreError::IncompatibleConnection {
                from,
                to,
                accepts: vec![],
                provides: vec![],
            });
        }
        self.disconnect(to, port)?;
        // Rollbacks re-create the edge that was just removed; they can
        // only fail if graph invariants are already broken, in which case
        // the error propagates instead of panicking.
        if let Err(e) = self.connect(from, new, 0) {
            self.connect(from, to, port)?;
            return Err(e);
        }
        if let Err(e) = self.connect(new, to, port) {
            self.disconnect(new, 0)?;
            self.connect(from, to, port)?;
            return Err(e);
        }
        Ok(())
    }

    /// Attaches a Component Feature to a node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] when the node does not exist
    /// and [`CoreError::DuplicateFeature`] when a feature of the same
    /// name is already attached (lookups by name would find only the
    /// first).
    pub fn attach_feature(
        &mut self,
        id: NodeId,
        feature: Box<dyn ComponentFeature>,
    ) -> Result<(), CoreError> {
        let node = self.nodes.get_mut(&id).ok_or(CoreError::UnknownNode(id))?;
        let descriptor = feature.descriptor();
        if node
            .features
            .iter()
            .any(|s| s.descriptor.name == descriptor.name)
        {
            return Err(CoreError::DuplicateFeature {
                node: id,
                feature: descriptor.name,
            });
        }
        node.features.push(FeatureSlot {
            descriptor,
            feature,
        });
        Ok(())
    }

    /// Detaches a feature by name, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeatureName`] when no such feature is
    /// attached.
    pub fn detach_feature(
        &mut self,
        id: NodeId,
        name: &str,
    ) -> Result<Box<dyn ComponentFeature>, CoreError> {
        let node = self.nodes.get_mut(&id).ok_or(CoreError::UnknownNode(id))?;
        let idx = node
            .features
            .iter()
            .position(|s| s.descriptor.name == name)
            .ok_or_else(|| CoreError::UnknownFeatureName {
                target: node.descriptor.name.clone(),
                feature: name.to_string(),
            })?;
        let feature = node.features.remove(idx).feature;
        Ok(feature)
    }

    /// Whether `target` declares an input at `port` that accepts
    /// `kind` ([`crate::component::InputSpec::accepts_kind`]) — the
    /// routing rule the engine applies per edge.
    pub(crate) fn accepts(&self, target: NodeId, port: usize, kind: &DataKind) -> bool {
        self.nodes
            .get(&target)
            .and_then(|n| n.descriptor.inputs.get(port))
            .is_some_and(|spec| spec.accepts_kind(kind))
    }

    /// All node ids in insertion order, without allocating.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Number of nodes in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the node exists.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Full inspection record for a node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] when the node does not exist.
    pub fn info(&self, id: NodeId) -> Result<NodeInfo, CoreError> {
        let node = self.nodes.get(&id).ok_or(CoreError::UnknownNode(id))?;
        Ok(NodeInfo {
            id,
            descriptor: node.descriptor.clone(),
            features: node.features.iter().map(|s| s.descriptor.clone()).collect(),
            inputs: node.inputs.clone(),
            outputs: node.outputs.clone(),
        })
    }

    /// The `(consumer, port)` edges leaving a node's output. Borrowed —
    /// the step loop consults this per routed item, so no allocation.
    pub fn downstream(&self, id: NodeId) -> &[(NodeId, usize)] {
        self.nodes
            .get(&id)
            .map(|n| n.outputs.as_slice())
            .unwrap_or(&[])
    }

    /// The producers wired to each input port of a node. Borrowed; an
    /// unknown node yields the empty slice.
    pub fn upstream(&self, id: NodeId) -> &[Option<NodeId>] {
        self.nodes
            .get(&id)
            .map(|n| n.inputs.as_slice())
            .unwrap_or(&[])
    }

    /// Ids of all source nodes (role [`ComponentRole::Source`]).
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.descriptor.role == ComponentRole::Source)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Ids of all sink nodes (role [`ComponentRole::Sink`]).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.descriptor.role == ComponentRole::Sink)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Reflectively invokes a method on a node. The call is dispatched to
    /// the component first; if it does not know the method, the attached
    /// features are tried in attachment order — so "the component will to
    /// its surroundings appear to implement the functionality provided by
    /// the feature" (paper §2.1).
    ///
    /// Returns the method result plus any data the features emitted while
    /// handling the call (data a feature adds "as if produced by the
    /// component" — the caller is responsible for routing it, which
    /// [`crate::Middleware`] does automatically).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchMethod`] when neither the component nor
    /// any feature handles the method.
    pub fn invoke(
        &mut self,
        id: NodeId,
        method: &str,
        args: &[Value],
        now: crate::SimTime,
    ) -> Result<(Value, Vec<DataItem>), CoreError> {
        let node = self.nodes.get_mut(&id).ok_or(CoreError::UnknownNode(id))?;
        match node.component.invoke(method, args) {
            Err(CoreError::NoSuchMethod { .. }) => {}
            other => return other.map(|v| (v, Vec::new())),
        }
        let target = node.descriptor.name.clone();
        let component = &mut node.component;
        let features = &mut node.features;
        let mut emitted = Vec::new();
        for slot in features.iter_mut() {
            let mut host = FeatureHost::new(component.as_mut(), now);
            let result = slot.feature.invoke(method, args, &mut host);
            emitted.extend(host.take_emitted());
            match result {
                Err(CoreError::NoSuchMethod { .. }) => continue,
                other => return other.map(|v| (v, emitted)),
            }
        }
        Err(CoreError::NoSuchMethod {
            target,
            method: method.to_string(),
        })
    }

    /// Reflectively invokes a method on a specific attached feature,
    /// returning the result plus any data the feature emitted.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeatureName`] when the feature is not
    /// attached, or the feature's own error.
    pub fn invoke_feature(
        &mut self,
        id: NodeId,
        feature: &str,
        method: &str,
        args: &[Value],
        now: crate::SimTime,
    ) -> Result<(Value, Vec<DataItem>), CoreError> {
        let node = self.nodes.get_mut(&id).ok_or(CoreError::UnknownNode(id))?;
        let target = node.descriptor.name.clone();
        let component = &mut node.component;
        let features = &mut node.features;
        let slot = features
            .iter_mut()
            .find(|s| s.descriptor.name == feature)
            .ok_or_else(|| CoreError::UnknownFeatureName {
                target,
                feature: feature.to_string(),
            })?;
        let mut host = FeatureHost::new(component.as_mut(), now);
        let result = slot.feature.invoke(method, args, &mut host);
        let emitted = host.take_emitted();
        result.map(|v| (v, emitted))
    }

    /// All methods a node appears to implement: the component's own plus
    /// every attached feature's.
    pub fn methods(&self, id: NodeId) -> Result<Vec<MethodSpec>, CoreError> {
        let node = self.nodes.get(&id).ok_or(CoreError::UnknownNode(id))?;
        let mut out = node.component.methods();
        for slot in &node.features {
            out.extend(slot.descriptor.methods.iter().cloned());
        }
        Ok(out)
    }

    /// Typed access to an attached feature (mirrors the paper's Java
    /// `component.getFeature(HDOP.class)` idiom).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeatureName`] when no feature named
    /// `name` of type `T` is attached.
    pub fn with_feature_mut<T: 'static, R>(
        &mut self,
        id: NodeId,
        name: &str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, CoreError> {
        let node = self.nodes.get_mut(&id).ok_or(CoreError::UnknownNode(id))?;
        let target = node.descriptor.name.clone();
        let slot = node
            .features
            .iter_mut()
            .find(|s| s.descriptor.name == name)
            .ok_or_else(|| CoreError::UnknownFeatureName {
                target: target.clone(),
                feature: name.to_string(),
            })?;
        let typed =
            slot.feature
                .as_any_mut()
                .downcast_mut::<T>()
                .ok_or(CoreError::UnknownFeatureName {
                    target,
                    feature: name.to_string(),
                })?;
        Ok(f(typed))
    }

    /// The kinds a node can currently provide (declared plus
    /// feature-added), computed on each call; an unknown node yields
    /// none.
    pub fn effective_provides(&self, id: NodeId) -> Vec<DataKind> {
        self.nodes
            .get(&id)
            .map(Node::effective_provides)
            .unwrap_or_default()
    }

    /// Whether `to` is reachable from `from` following output edges.
    fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        let mut stack = vec![from];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(node) = self.nodes.get(&n) {
                    stack.extend(node.outputs.iter().map(|(t, _)| *t));
                }
            }
        }
        false
    }

    pub(crate) fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(&id)
    }

    /// Renders the graph as an indented ASCII tree rooted at the sinks —
    /// the developer-facing "seamful" visualization of the process.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for sink in self.sinks() {
            self.render_node(sink, 0, &mut out);
        }
        out
    }

    /// Renders the graph in Graphviz DOT format — the machine-readable
    /// counterpart of [`ProcessingGraph::render_tree`] for authoring
    /// tools (paper intro ref. \[2\]).
    pub fn render_dot(&self) -> String {
        let mut out = String::from("digraph perpos {\n  rankdir=LR;\n");
        for (id, node) in &self.nodes {
            let shape = match node.descriptor.role {
                ComponentRole::Source => "ellipse",
                ComponentRole::Processor => "box",
                ComponentRole::Merge => "diamond",
                ComponentRole::Sink => "doubleoctagon",
            };
            let features = if node.features.is_empty() {
                String::new()
            } else {
                format!("\\n+{}", node.feature_names().join(", "))
            };
            out.push_str(&format!(
                "  n{id} [label=\"{}{features}\", shape={shape}];\n",
                node.descriptor.name,
                id = id.0,
            ));
        }
        for (id, node) in &self.nodes {
            for (target, port) in &node.outputs {
                out.push_str(&format!(
                    "  n{} -> n{} [label=\"p{port}\"];\n",
                    id.0, target.0
                ));
            }
        }
        out.push_str("}\n");
        out
    }

    fn render_node(&self, id: NodeId, depth: usize, out: &mut String) {
        let Some(node) = self.nodes.get(&id) else {
            return;
        };
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} [{}] ({})",
            node.descriptor.name, node.descriptor.role, id
        ));
        if !node.features.is_empty() {
            out.push_str(&format!(" +features {:?}", node.feature_names()));
        }
        out.push('\n');
        for producer in node.inputs.iter().flatten() {
            self.render_node(*producer, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentCtx, FnProcessor, FnSource, InputSpec, MethodSpec};
    use crate::data::{kinds, DataItem};
    use crate::feature::{FeatureAction, FeatureHost, TagFeature};
    use std::any::Any;

    fn source(g: &mut ProcessingGraph, name: &str, kind: DataKind) -> NodeId {
        g.add(Box::new(FnSource::new(name, kind, |_| None)))
    }

    fn processor(
        g: &mut ProcessingGraph,
        name: &str,
        accepts: DataKind,
        provides: DataKind,
    ) -> NodeId {
        g.add(Box::new(FnProcessor::new(
            name,
            vec![accepts],
            provides,
            |_| None,
        )))
    }

    struct Sink;
    impl crate::component::Component for Sink {
        fn descriptor(&self) -> ComponentDescriptor {
            ComponentDescriptor::sink("app", InputSpec::new("in", vec![]))
        }
        fn on_input(
            &mut self,
            _p: usize,
            _i: DataItem,
            _c: &mut ComponentCtx<'_>,
        ) -> Result<(), CoreError> {
            Ok(())
        }
    }

    #[test]
    fn connect_validates_kinds() {
        let mut g = ProcessingGraph::new();
        let gps = source(&mut g, "gps", kinds::RAW_STRING);
        let parser = processor(&mut g, "parser", kinds::RAW_STRING, kinds::NMEA_SENTENCE);
        let interp = processor(
            &mut g,
            "interp",
            kinds::NMEA_SENTENCE,
            kinds::POSITION_WGS84,
        );
        g.connect(gps, parser, 0).unwrap();
        // gps provides raw.string, interp accepts nmea.sentence only.
        assert!(matches!(
            g.connect(gps, interp, 0),
            Err(CoreError::IncompatibleConnection { .. })
        ));
        g.connect(parser, interp, 0).unwrap();
    }

    #[test]
    fn port_occupancy_and_bounds() {
        let mut g = ProcessingGraph::new();
        let a = source(&mut g, "a", kinds::RAW_STRING);
        let b = source(&mut g, "b", kinds::RAW_STRING);
        let p = processor(&mut g, "p", kinds::RAW_STRING, kinds::NMEA_SENTENCE);
        g.connect(a, p, 0).unwrap();
        assert!(matches!(
            g.connect(b, p, 0),
            Err(CoreError::PortOccupied { .. })
        ));
        assert!(matches!(
            g.connect(b, p, 1),
            Err(CoreError::UnknownPort { .. })
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut g = ProcessingGraph::new();
        let p1 = processor(&mut g, "p1", kinds::RAW_STRING, kinds::RAW_STRING);
        let p2 = processor(&mut g, "p2", kinds::RAW_STRING, kinds::RAW_STRING);
        g.connect(p1, p2, 0).unwrap();
        assert!(matches!(
            g.connect(p2, p1, 0),
            Err(CoreError::CycleDetected { .. })
        ));
        assert!(matches!(
            g.connect(p1, p1, 0),
            Err(CoreError::PortOccupied { .. }) | Err(CoreError::CycleDetected { .. })
        ));
    }

    #[test]
    fn remove_disconnects_edges() {
        let mut g = ProcessingGraph::new();
        let a = source(&mut g, "a", kinds::RAW_STRING);
        let p = processor(&mut g, "p", kinds::RAW_STRING, kinds::NMEA_SENTENCE);
        g.connect(a, p, 0).unwrap();
        g.remove(a).unwrap();
        assert_eq!(g.upstream(p), vec![None]);
        assert!(matches!(g.remove(a), Err(CoreError::UnknownNode(_))));
    }

    #[test]
    fn insert_between_rewires() {
        let mut g = ProcessingGraph::new();
        let a = source(&mut g, "a", kinds::RAW_STRING);
        let b = processor(&mut g, "b", kinds::RAW_STRING, kinds::NMEA_SENTENCE);
        g.connect(a, b, 0).unwrap();
        let filter = processor(&mut g, "filter", kinds::RAW_STRING, kinds::RAW_STRING);
        g.insert_between(filter, a, b, 0).unwrap();
        assert_eq!(g.downstream(a), vec![(filter, 0)]);
        assert_eq!(g.downstream(filter), vec![(b, 0)]);
        assert_eq!(g.upstream(b), vec![Some(filter)]);
    }

    #[test]
    fn insert_between_restores_on_failure() {
        let mut g = ProcessingGraph::new();
        let a = source(&mut g, "a", kinds::RAW_STRING);
        let b = processor(&mut g, "b", kinds::RAW_STRING, kinds::NMEA_SENTENCE);
        g.connect(a, b, 0).unwrap();
        // Incompatible intermediate: accepts positions only.
        let bad = processor(&mut g, "bad", kinds::POSITION_WGS84, kinds::POSITION_WGS84);
        assert!(g.insert_between(bad, a, b, 0).is_err());
        // Original edge restored.
        assert_eq!(g.downstream(a), vec![(b, 0)]);
    }

    #[test]
    fn feature_dependency_enforced() {
        let mut g = ProcessingGraph::new();
        let parser = source(&mut g, "parser", kinds::NMEA_SENTENCE);
        let filter = g.add(Box::new(FnProcessor::new(
            "satfilter",
            vec![kinds::NMEA_SENTENCE],
            kinds::NMEA_SENTENCE,
            |_| None,
        )));
        // Manually craft a consumer requiring the feature.
        struct Needy;
        impl crate::component::Component for Needy {
            fn descriptor(&self) -> ComponentDescriptor {
                ComponentDescriptor::processor(
                    "needy",
                    InputSpec::new("in", vec![kinds::NMEA_SENTENCE])
                        .requiring_feature("NumberOfSatellites"),
                    vec![kinds::POSITION_WGS84],
                )
            }
            fn on_input(
                &mut self,
                _p: usize,
                _i: DataItem,
                _c: &mut ComponentCtx<'_>,
            ) -> Result<(), CoreError> {
                Ok(())
            }
        }
        let needy = g.add(Box::new(Needy));
        assert!(matches!(
            g.connect(parser, needy, 0),
            Err(CoreError::MissingFeature { .. })
        ));
        g.attach_feature(
            parser,
            Box::new(TagFeature::new(
                "NumberOfSatellites",
                "satellites",
                Value::Int(9),
            )),
        )
        .unwrap();
        g.connect(parser, needy, 0).unwrap();
        let _ = filter;
    }

    #[test]
    fn feature_added_kinds_extend_capabilities() {
        struct Adder;
        impl crate::feature::ComponentFeature for Adder {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("Adder").adds(kinds::POSITION_ROOM)
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut g = ProcessingGraph::new();
        let src = source(&mut g, "src", kinds::RAW_STRING);
        let consumer = processor(&mut g, "c", kinds::POSITION_ROOM, kinds::POSITION_ROOM);
        assert!(g.connect(src, consumer, 0).is_err());
        g.attach_feature(src, Box::new(Adder)).unwrap();
        assert!(g.effective_provides(src).contains(&kinds::POSITION_ROOM));
        g.connect(src, consumer, 0).unwrap();
    }

    #[test]
    fn invoke_falls_back_to_features() {
        struct Counting {
            calls: i64,
        }
        impl crate::feature::ComponentFeature for Counting {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("Counting").method(MethodSpec::new("calls", "() -> int"))
            }
            fn on_produce(
                &mut self,
                item: DataItem,
                _h: &mut FeatureHost<'_>,
            ) -> Result<FeatureAction, CoreError> {
                Ok(FeatureAction::Continue(item))
            }
            fn invoke(
                &mut self,
                method: &str,
                _args: &[Value],
                _host: &mut FeatureHost<'_>,
            ) -> Result<Value, CoreError> {
                if method == "calls" {
                    self.calls += 1;
                    Ok(Value::Int(self.calls))
                } else {
                    Err(CoreError::NoSuchMethod {
                        target: "Counting".into(),
                        method: method.into(),
                    })
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut g = ProcessingGraph::new();
        let src = source(&mut g, "src", kinds::RAW_STRING);
        g.attach_feature(src, Box::new(Counting { calls: 0 }))
            .unwrap();
        // The component does not know "calls"; the feature answers.
        let t0 = crate::SimTime::ZERO;
        assert_eq!(g.invoke(src, "calls", &[], t0).unwrap().0, Value::Int(1));
        assert_eq!(
            g.invoke_feature(src, "Counting", "calls", &[], t0)
                .unwrap()
                .0,
            Value::Int(2)
        );
        assert!(g.invoke(src, "nope", &[], t0).is_err());
        assert_eq!(g.methods(src).unwrap().len(), 1);
        // Typed access.
        let calls = g
            .with_feature_mut::<Counting, i64>(src, "Counting", |f| f.calls)
            .unwrap();
        assert_eq!(calls, 2);
    }

    #[test]
    fn detach_feature_removes_it() {
        let mut g = ProcessingGraph::new();
        let src = source(&mut g, "src", kinds::RAW_STRING);
        g.attach_feature(src, Box::new(TagFeature::new("T", "k", Value::Null)))
            .unwrap();
        assert_eq!(g.info(src).unwrap().features.len(), 1);
        g.detach_feature(src, "T").unwrap();
        assert!(g.info(src).unwrap().features.is_empty());
        assert!(matches!(
            g.detach_feature(src, "T"),
            Err(CoreError::UnknownFeatureName { .. })
        ));
    }

    #[test]
    fn feature_names_are_unique_per_node() {
        let mut g = ProcessingGraph::new();
        let src = source(&mut g, "src", kinds::RAW_STRING);
        let other = source(&mut g, "other", kinds::RAW_STRING);
        let tag = || Box::new(TagFeature::new("T", "k", Value::Null));
        g.attach_feature(src, tag()).unwrap();
        assert_eq!(
            g.attach_feature(src, tag()),
            Err(CoreError::DuplicateFeature {
                node: src,
                feature: "T".into()
            })
        );
        assert_eq!(g.info(src).unwrap().features.len(), 1);
        // The same name on another node is a different feature.
        g.attach_feature(other, tag()).unwrap();
    }

    #[test]
    fn from_structure_keeps_ids_wiring_and_feature_descriptors() {
        let mut g = ProcessingGraph::new();
        let gone = source(&mut g, "gone", kinds::RAW_STRING);
        let src = source(&mut g, "src", kinds::RAW_STRING);
        let p = processor(&mut g, "p", kinds::RAW_STRING, kinds::NMEA_SENTENCE);
        g.connect(src, p, 0).unwrap();
        g.attach_feature(
            src,
            Box::new(StandInFeature(
                FeatureDescriptor::new("Geo").adds(kinds::POSITION_WGS84),
            )),
        )
        .unwrap();
        g.remove(gone).unwrap();
        let structure: Vec<NodeInfo> = g.node_ids().map(|id| g.info(id).unwrap()).collect();
        let mut stand_in = ProcessingGraph::from_structure(&structure);
        let replayed: Vec<NodeInfo> = stand_in
            .node_ids()
            .map(|id| stand_in.info(id).unwrap())
            .collect();
        assert_eq!(replayed, structure);
        assert_eq!(stand_in.effective_provides(src), g.effective_provides(src));
        // Its ops are the graph's own: the occupied port and a fresh
        // add both behave as on the original.
        assert_eq!(
            stand_in.connect(src, p, 0),
            Err(CoreError::PortOccupied { node: p, port: 0 })
        );
        let fresh = source(&mut stand_in, "fresh", kinds::RAW_STRING);
        assert_eq!(fresh, source(&mut g, "fresh", kinds::RAW_STRING));
    }

    #[test]
    fn sources_and_sinks_listed() {
        let mut g = ProcessingGraph::new();
        let s = source(&mut g, "s", kinds::RAW_STRING);
        let sink = g.add(Box::new(Sink));
        g.connect(s, sink, 0).unwrap();
        assert_eq!(g.sources(), vec![s]);
        assert_eq!(g.sinks(), vec![sink]);
        let tree = g.render_tree();
        assert!(tree.contains("app"));
        assert!(tree.contains("s [source]"));
        let dot = g.render_dot();
        assert!(dot.starts_with("digraph perpos {"));
        assert!(dot.contains("shape=ellipse"), "{dot}");
        assert!(dot.contains("->"), "{dot}");
    }
}
