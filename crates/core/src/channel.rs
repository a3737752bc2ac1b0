//! The Process Channel Layer: source-to-merge pipelines abstracted as
//! Channels, with logical-time data trees and Channel Features
//! (paper §2.2, Fig. 4).
//!
//! A *Channel* is the maximal linear run of Processing Components from a
//! data source (or merge component) towards the next merge component or
//! application sink. For every data element a channel delivers, the layer
//! groups *all intermediate data elements that logically contributed to
//! it* into a [`DataTree`], using per-level logical time exactly as the
//! paper's Fig. 4 describes: each level carries a monotonically increasing
//! counter, and each produced element records the contiguous range of the
//! previous level's counters it consumed.
//!
//! [`ChannelFeature`]s receive each tree through
//! [`ChannelFeature::apply`] — the `apply(dataTree)` method of the paper —
//! and may expose derived state (e.g. a likelihood estimate from HDOP
//! values, Fig. 5) through reflective methods or typed handles.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::component::ComponentRole;
use crate::data::{DataItem, DataKind, Value};
use crate::feature::FeatureDescriptor;
use crate::graph::{NodeId, ProcessingGraph};
use crate::supervision::HealthRegistry;
use crate::{CoreError, SimTime};

/// Identifier of a channel. Channels are identified by their head node
/// (the source or merge component they start at), so the id is stable
/// across graph mutations that do not remove the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub(crate) NodeId);

impl ChannelId {
    /// The id of the channel headed at `node`. Useful when constructing
    /// [`DataTree`]s manually in tests and tools.
    pub fn of_head(node: NodeId) -> Self {
        ChannelId(node)
    }

    /// The head node this channel starts at.
    pub fn head(&self) -> NodeId {
        self.0
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel@{}", self.0)
    }
}

/// Read-only description of a channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelInfo {
    /// The channel id (head node).
    pub id: ChannelId,
    /// Member nodes from head to last in-channel component.
    pub members: Vec<NodeId>,
    /// Component names of the members, head first.
    pub member_names: Vec<String>,
    /// Where the channel delivers: the consuming merge/sink node and its
    /// input port, when connected.
    pub endpoint: Option<(NodeId, usize)>,
    /// Names of attached Channel Features.
    pub features: Vec<String>,
    /// Worst member health, read from the middleware's supervisor.
    pub health: crate::supervision::HealthStatus,
}

/// One node of a [`DataTree`]: a data item plus the logical-time
/// bookkeeping that located it in the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DataNode {
    /// The graph node that produced the item.
    pub component: NodeId,
    /// Name of that component (for diagnostics / rendering). Shared with
    /// the channel runtime, so cloning a node — and building a tree —
    /// never copies name strings.
    pub component_name: Arc<str>,
    /// The produced item.
    pub item: DataItem,
    /// The item's logical time at its level (1-based, per level).
    pub logical: u64,
    /// The contiguous range of previous-level logical times consumed to
    /// produce this item; `None` at the leaf level.
    pub range: Option<(u64, u64)>,
    /// The contributing items from the previous level.
    pub children: Vec<DataNode>,
}

impl DataNode {
    fn render(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        match self.range {
            Some((lo, hi)) => out.push_str(&format!(
                "{}: {} (logical {}, consumed {}-{})\n",
                self.component_name, self.item, self.logical, lo, hi
            )),
            None => out.push_str(&format!(
                "{}: {} (logical {})\n",
                self.component_name, self.item, self.logical
            )),
        }
        for c in &self.children {
            c.render(depth + 1, out);
        }
    }
}

/// The hierarchical grouping of all intermediate data that contributed to
/// one channel output (paper Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct DataTree {
    /// The channel that produced the output.
    pub channel: ChannelId,
    /// The output element and, transitively, its contributors.
    pub root: DataNode,
}

impl DataTree {
    /// Depth-first iteration over all nodes (root first).
    pub fn iter(&self) -> impl Iterator<Item = &DataNode> {
        // A tree is small; collect into a Vec for a simple iterator type.
        let mut stack = vec![&self.root];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(n.children.iter());
        }
        out.into_iter()
    }

    /// All nodes whose item has the given kind. This is the paper's
    /// `dataTree.getData(NMEASentence.class)` (Fig. 5): a Channel Feature
    /// does not know how many layers or elements of each kind exist, so it
    /// queries by kind.
    pub fn items_of_kind(&self, kind: &DataKind) -> Vec<&DataNode> {
        self.iter().filter(|n| &n.item.kind == kind).collect()
    }

    /// Total number of data elements in the tree.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the tree consists of the root only.
    pub fn is_empty(&self) -> bool {
        self.root.children.is_empty()
    }

    /// Number of levels in the tree (1 = root only).
    pub fn depth(&self) -> usize {
        fn go(n: &DataNode) -> usize {
            1 + n.children.iter().map(go).max().unwrap_or(0)
        }
        go(&self.root)
    }

    /// Renders the tree as indented text (the Fig. 4 visualization).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render(0, &mut out);
        out
    }
}

/// The view a running Channel Feature has of its channel.
///
/// Grants reflective access to the channel's member components and their
/// Component Features — the paper's `component.getFeature(HDOP.class)`
/// idiom (Fig. 5) — without exposing the whole graph.
pub struct ChannelHost<'a> {
    graph: &'a mut ProcessingGraph,
    members: &'a [NodeId],
    now: SimTime,
    emitted: Vec<(NodeId, DataItem)>,
}

impl<'a> ChannelHost<'a> {
    /// Builds a host over an explicit member list — for unit tests of
    /// Channel Features outside an engine. Time is fixed at zero.
    pub fn for_test(graph: &'a mut ProcessingGraph, members: &'a [NodeId]) -> Self {
        ChannelHost {
            graph,
            members,
            now: SimTime::ZERO,
            emitted: Vec::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The channel's member nodes, head first.
    pub fn members(&self) -> &[NodeId] {
        self.members
    }

    /// Reflectively invokes a method on *any* node of the processing
    /// graph — the paper's "combining the ability to traverse the nodes
    /// of the processing tree with … state manipulation features"
    /// (§2.1). The EnTracked Channel Feature uses this to control the GPS
    /// power strategy from the motion channel (§3.3).
    ///
    /// # Errors
    ///
    /// Propagates reflective errors.
    pub fn invoke_node(
        &mut self,
        node: NodeId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, CoreError> {
        let (value, emitted) = self.graph.invoke(node, method, args, self.now)?;
        self.emitted.extend(emitted.into_iter().map(|i| (node, i)));
        Ok(value)
    }

    /// Reflectively invokes a method on a named Component Feature of any
    /// node (see [`ChannelHost::invoke_node`]).
    ///
    /// # Errors
    ///
    /// Propagates reflective errors.
    pub fn invoke_node_feature(
        &mut self,
        node: NodeId,
        feature: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, CoreError> {
        let (value, emitted) = self
            .graph
            .invoke_feature(node, feature, method, args, self.now)?;
        self.emitted.extend(emitted.into_iter().map(|i| (node, i)));
        Ok(value)
    }
}

impl fmt::Debug for ChannelHost<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelHost")
            .field("members", &self.members)
            .finish()
    }
}

/// A Channel Feature (paper §2.2, Fig. 3b): functionality that depends on
/// data produced at several stages of the positioning process.
///
/// The middleware calls [`ChannelFeature::apply`] every time the channel
/// delivers a data element, passing the data tree that produced it.
pub trait ChannelFeature: Send {
    /// The feature's static declaration (see
    /// [`FeatureDescriptor::requiring`] for dependency declarations).
    fn descriptor(&self) -> FeatureDescriptor;

    /// Processes the data tree behind one channel output and updates the
    /// feature's internal state.
    ///
    /// # Errors
    ///
    /// Implementations report failures as [`CoreError::ComponentFailure`];
    /// the engine aborts the running step.
    fn apply(&mut self, tree: &DataTree, host: &mut ChannelHost<'_>) -> Result<(), CoreError>;

    /// Reflectively invokes one of the feature's methods — how
    /// applications at the Positioning Layer interact with middleware
    /// adaptations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchMethod`] for unknown methods.
    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        let _ = args;
        Err(CoreError::NoSuchMethod {
            target: self.descriptor().name,
            method: method.to_string(),
        })
    }

    /// Typed escape hatch (the paper's `inputChannel.getFeature(...)`).
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Serializes the feature's internal state for a
    /// [`crate::Middleware::snapshot`] checkpoint; see
    /// [`crate::component::Component::snapshot_state`]. Default: `None`
    /// (stateless).
    fn snapshot_state(&self) -> Option<Value> {
        None
    }

    /// Applies state previously captured by
    /// [`ChannelFeature::snapshot_state`]. Default: no-op.
    fn restore_state(&mut self, state: &Value) {
        let _ = state;
    }
}

/// Cap on unclaimed buffered entries per channel level; prevents unbounded
/// growth when a downstream component consumes nothing for a long time.
/// Evictions are counted per channel (see [`ChannelStats::dropped`]).
/// Public so static analysis (perpos-lint P014) can predict from declared
/// rates when a configuration will overrun it.
pub const LEVEL_BUFFER_CAP: usize = 4096;

/// Per-channel buffer and materialization counters, read through
/// [`crate::Middleware::channel_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Channel outputs recorded (emissions of the last member).
    pub outputs: u64,
    /// Outputs for which a [`DataTree`] was materialized.
    pub materialized: u64,
    /// Outputs whose tree was skipped because nothing demanded it.
    /// `materialized + skipped == outputs` always holds.
    pub skipped: u64,
    /// Pending entries evicted by [`LEVEL_BUFFER_CAP`] — data loss that
    /// used to be silent: evicted entries are missing from later trees.
    pub dropped: u64,
    /// Entries currently buffered across all levels awaiting a claim.
    pub buffered: u64,
}

#[derive(Debug, Default, Clone)]
struct LevelState {
    counter: u64,
    /// Highest logical time of this level already claimed by the next.
    claimed_upto: u64,
    /// Ring of unclaimed entries, logical times strictly increasing.
    /// Claims always consume a prefix (logical ≤ hi), so draining is
    /// `pop_front` — no memmove — and range lookups are binary searches.
    pending: VecDeque<PendingEntry>,
    /// Entries evicted by [`LEVEL_BUFFER_CAP`] at this level.
    dropped: u64,
}

#[derive(Debug, Clone)]
struct PendingEntry {
    item: DataItem,
    logical: u64,
    /// Claimed previous-level range, packed: `lo > hi` encodes "no
    /// contributors" (8 bytes smaller than `Option<(u64, u64)>`, and
    /// the claim math produces the sentinel for free — an empty claim
    /// window is exactly `lo = hi + 1`).
    lo: u64,
    hi: u64,
}

impl PendingEntry {
    /// The claimed range in `Option` form (the public tree surface).
    fn range(&self) -> Option<(u64, u64)> {
        (self.lo <= self.hi).then_some((self.lo, self.hi))
    }
}

/// Bounded ring of the most recent materialized trees — the second
/// demand source besides attached features.
#[derive(Debug, Clone)]
struct TreeHistory {
    capacity: usize,
    trees: VecDeque<DataTree>,
}

struct ChannelRuntime {
    id: ChannelId,
    members: Vec<NodeId>,
    member_names: Vec<Arc<str>>,
    endpoint: Option<(NodeId, usize)>,
    levels: Vec<LevelState>,
    features: Vec<FeatureEntry>,
    history: Option<TreeHistory>,
    outputs: u64,
    materialized: u64,
    skipped: u64,
}

struct FeatureEntry {
    descriptor: FeatureDescriptor,
    feature: Box<dyn ChannelFeature>,
}

/// Captured state of one [`ChannelRuntime`].
#[derive(Debug, Clone)]
struct ChannelSnapshot {
    id: ChannelId,
    levels: Vec<LevelState>,
    /// History ring when subscribed.
    history: Option<TreeHistory>,
    /// Attached channel-feature names, for restore-time validation.
    feature_names: Vec<String>,
    /// Per-feature opaque state, aligned with `feature_names`.
    feature_state: Vec<Option<Value>>,
    outputs: u64,
    materialized: u64,
    skipped: u64,
}

/// The channel layer's contribution to a [`crate::Middleware::snapshot`]
/// checkpoint: every channel's logical-time state, buffers, counters and
/// channel-feature state. Opaque outside the crate.
#[derive(Debug, Clone)]
pub(crate) struct ChannelLayerSnapshot {
    channels: Vec<ChannelSnapshot>,
}

/// The channel layer runtime: derives channels from the graph, performs
/// logical-time bookkeeping and hosts Channel Features.
///
/// Layout is tuned for [`ChannelLayer::record`], which runs once per
/// component emission: runtimes live in a dense `Vec` (ascending id) and
/// membership is a node-id-indexed side table, so the hot path costs two
/// array reads instead of tree lookups.
#[derive(Default)]
pub(crate) struct ChannelLayer {
    /// Channel runtimes, ascending by id.
    runtimes: Vec<ChannelRuntime>,
    /// [`NodeId::index`] -> (runtime index, level) for channel members.
    /// A channel's head is its level-0 member, so the head's entry also
    /// resolves the channel's id.
    node_index: Vec<Option<(u32, u32)>>,
}

impl fmt::Debug for ChannelLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelLayer")
            .field("channels", &self.runtimes.len())
            .finish()
    }
}

impl ChannelLayer {
    /// Re-derives channels after a graph change, preserving the features,
    /// observers, counters and buffers of channels whose head survived.
    pub(crate) fn recompute(&mut self, graph: &ProcessingGraph) {
        let old = std::mem::take(&mut self.runtimes);
        let old_index = std::mem::take(&mut self.node_index);
        let mut old: Vec<Option<ChannelRuntime>> = old.into_iter().map(Some).collect();
        // `channel_heads` follows graph id order, so runtimes stay
        // ascending by id without sorting.
        for head in channel_heads(graph) {
            let (members, endpoint) = walk_channel(graph, head);
            let id = ChannelId(head);
            let slot = self.runtimes.len();
            for (level, m) in members.iter().enumerate() {
                let i = m.index();
                if self.node_index.len() <= i {
                    self.node_index.resize(i + 1, None);
                }
                self.node_index[i] = Some((slot as u32, level as u32));
            }
            let member_names = members
                .iter()
                .map(|m| Arc::from(graph.node(*m).map_or("", |n| n.descriptor.name.as_str())))
                .collect();
            let mut runtime = ChannelRuntime {
                id,
                member_names,
                endpoint,
                levels: members.iter().map(|_| LevelState::default()).collect(),
                members,
                features: Vec::new(),
                history: None,
                outputs: 0,
                materialized: 0,
                skipped: 0,
            };
            if let Some(mut prior) = head_slot(&old_index, id).and_then(|i| old[i].take()) {
                runtime.features = std::mem::take(&mut prior.features);
                runtime.history = prior.history.take();
                runtime.outputs = prior.outputs;
                runtime.materialized = prior.materialized;
                runtime.skipped = prior.skipped;
                if prior.members == runtime.members {
                    // Unchanged shape: keep logical time and buffers.
                    runtime.levels = prior.levels;
                }
            }
            self.runtimes.push(runtime);
        }
    }

    /// The runtime behind `id`, or [`CoreError::UnknownChannel`].
    fn runtime(&self, id: ChannelId) -> Result<&ChannelRuntime, CoreError> {
        let idx = head_slot(&self.node_index, id).ok_or(CoreError::UnknownChannel(id))?;
        Ok(&self.runtimes[idx])
    }

    /// Mutable access to the runtime behind `id`.
    fn runtime_mut(&mut self, id: ChannelId) -> Result<&mut ChannelRuntime, CoreError> {
        let idx = head_slot(&self.node_index, id).ok_or(CoreError::UnknownChannel(id))?;
        Ok(&mut self.runtimes[idx])
    }

    /// Captures the layer's full runtime state — per-level logical-time
    /// counters, pending rings, eviction counts, output counters,
    /// history rings and channel-feature state — for a
    /// [`crate::Middleware::snapshot`] checkpoint.
    pub(crate) fn snapshot(&self) -> ChannelLayerSnapshot {
        ChannelLayerSnapshot {
            channels: self
                .runtimes
                .iter()
                .map(|r| ChannelSnapshot {
                    id: r.id,
                    levels: r.levels.clone(),
                    history: r.history.clone(),
                    feature_names: r
                        .features
                        .iter()
                        .map(|f| f.descriptor.name.clone())
                        .collect(),
                    feature_state: r
                        .features
                        .iter()
                        .map(|f| f.feature.snapshot_state())
                        .collect(),
                    outputs: r.outputs,
                    materialized: r.materialized,
                    skipped: r.skipped,
                })
                .collect(),
        }
    }

    /// Applies a state previously captured by
    /// [`ChannelLayer::snapshot`]. The layer must already have the same
    /// channel topology (same channel ids, level counts and attached
    /// channel-feature names) — the caller validates graph structure
    /// before calling this.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ComponentFailure`] when the topology differs
    /// from the snapshot's; the layer is left unchanged in that case.
    pub(crate) fn restore(&mut self, snap: &ChannelLayerSnapshot) -> Result<(), CoreError> {
        let mismatch = |reason: String| CoreError::ComponentFailure {
            component: "channel-layer".into(),
            reason,
        };
        if snap.channels.len() != self.runtimes.len() {
            return Err(mismatch(format!(
                "snapshot has {} channels, layer has {}",
                snap.channels.len(),
                self.runtimes.len()
            )));
        }
        for (s, r) in snap.channels.iter().zip(&self.runtimes) {
            if s.id != r.id || s.levels.len() != r.levels.len() {
                return Err(mismatch(format!(
                    "channel {} shape differs from the snapshot",
                    r.id
                )));
            }
            let names: Vec<String> = r
                .features
                .iter()
                .map(|f| f.descriptor.name.clone())
                .collect();
            if names != s.feature_names {
                return Err(mismatch(format!(
                    "channel {} features {:?} differ from snapshot {:?}",
                    r.id, names, s.feature_names
                )));
            }
        }
        for (s, r) in snap.channels.iter().zip(self.runtimes.iter_mut()) {
            r.levels.clone_from(&s.levels);
            r.history.clone_from(&s.history);
            for (entry, state) in r.features.iter_mut().zip(&s.feature_state) {
                if let Some(state) = state {
                    entry.feature.restore_state(state);
                }
            }
            r.outputs = s.outputs;
            r.materialized = s.materialized;
            r.skipped = s.skipped;
        }
        Ok(())
    }

    /// Records an emission from `node`. Returns the completed data tree
    /// when the node is the channel's last member (a channel output) and
    /// the tree is demanded (a feature is attached, a history
    /// subscription is active).
    ///
    /// The logical-time bookkeeping — counters, claimed ranges, pending
    /// buffers, pruning — is identical whether or not a tree is built,
    /// so demand can flip at any step without perturbing later trees.
    pub(crate) fn record(&mut self, node: NodeId, item: &DataItem) -> Option<DataTree> {
        let (slot, level) = (*self.node_index.get(node.index())?)?;
        let rt = &mut self.runtimes[slot as usize];
        let (cid, level) = (rt.id, level as usize);
        let is_last = level + 1 == rt.levels.len();

        // The claimed window in packed form: `lo > hi` is the natural
        // encoding of "the producer emitted without fresh upstream data"
        // (a timer-driven component) — and of level 0, which claims
        // nothing by definition.
        let (lo, hi) = if level == 0 {
            (1, 0)
        } else {
            let prev = &mut rt.levels[level - 1];
            let lo = prev.claimed_upto + 1;
            let hi = prev.counter;
            prev.claimed_upto = hi.max(prev.claimed_upto);
            (lo, hi)
        };

        let state = &mut rt.levels[level];
        state.counter += 1;
        let logical = state.counter;

        if is_last {
            rt.outputs += 1;
            let tree = if !rt.features.is_empty() || rt.history.is_some() {
                rt.materialized += 1;
                let entry = PendingEntry {
                    item: item.clone(),
                    logical,
                    lo,
                    hi,
                };
                let root = build_node(&rt.levels, &rt.members, &rt.member_names, level, &entry);
                Some(DataTree { channel: cid, root })
            } else {
                rt.skipped += 1;
                None
            };
            prune_claimed(&mut rt.levels, level, lo, hi);
            if let (Some(t), Some(h)) = (&tree, rt.history.as_mut()) {
                if h.trees.len() == h.capacity {
                    h.trees.pop_front();
                }
                h.trees.push_back(t.clone());
            }
            tree
        } else {
            state.pending.push_back(PendingEntry {
                item: item.clone(),
                logical,
                lo,
                hi,
            });
            if state.pending.len() > LEVEL_BUFFER_CAP {
                state.pending.pop_front();
                state.dropped += 1;
            }
            None
        }
    }

    /// Runs every attached Channel Feature on a completed tree.
    pub(crate) fn apply_features(
        &mut self,
        graph: &mut ProcessingGraph,
        tree: &DataTree,
        now: SimTime,
    ) -> Result<Vec<(NodeId, DataItem)>, CoreError> {
        let Ok(rt) = self.runtime_mut(tree.channel) else {
            return Ok(Vec::new());
        };
        let mut host = ChannelHost {
            graph,
            members: &rt.members,
            now,
            emitted: Vec::new(),
        };
        for entry in &mut rt.features {
            entry.feature.apply(tree, &mut host)?;
        }
        Ok(host.emitted)
    }

    /// Attaches a Channel Feature, validating its declared dependencies
    /// against member component names, attached Component Features and
    /// already attached Channel Features.
    pub(crate) fn attach_feature(
        &mut self,
        graph: &ProcessingGraph,
        id: ChannelId,
        feature: Box<dyn ChannelFeature>,
    ) -> Result<(), CoreError> {
        let rt = self.runtime_mut(id)?;
        let descriptor = feature.descriptor();
        for dep in &descriptor.requires {
            let found = rt.member_names.iter().any(|n| n.as_ref() == dep.as_str())
                || rt.features.iter().any(|f| &f.descriptor.name == dep)
                || rt
                    .members
                    .iter()
                    .filter_map(|m| graph.node(*m))
                    .any(|n| n.features.iter().any(|s| &s.descriptor.name == dep));
            if !found {
                return Err(CoreError::MissingFeature {
                    node: id.0,
                    feature: dep.clone(),
                });
            }
        }
        rt.features.push(FeatureEntry {
            descriptor,
            feature,
        });
        Ok(())
    }

    /// Detaches a Channel Feature by name.
    pub(crate) fn detach_feature(
        &mut self,
        id: ChannelId,
        name: &str,
    ) -> Result<Box<dyn ChannelFeature>, CoreError> {
        let rt = self.runtime_mut(id)?;
        let idx = rt
            .features
            .iter()
            .position(|f| f.descriptor.name == name)
            .ok_or_else(|| CoreError::UnknownFeatureName {
                target: id.to_string(),
                feature: name.to_string(),
            })?;
        Ok(rt.features.remove(idx).feature)
    }

    /// Reflectively invokes a method on an attached Channel Feature.
    pub(crate) fn invoke_feature(
        &mut self,
        id: ChannelId,
        name: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, CoreError> {
        let rt = self.runtime_mut(id)?;
        let entry = rt
            .features
            .iter_mut()
            .find(|f| f.descriptor.name == name)
            .ok_or_else(|| CoreError::UnknownFeatureName {
                target: id.to_string(),
                feature: name.to_string(),
            })?;
        entry.feature.invoke(method, args)
    }

    /// Typed access to an attached Channel Feature.
    pub(crate) fn with_feature_mut<T: 'static, R>(
        &mut self,
        id: ChannelId,
        name: &str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, CoreError> {
        let rt = self.runtime_mut(id)?;
        let entry = rt
            .features
            .iter_mut()
            .find(|e| e.descriptor.name == name)
            .ok_or_else(|| CoreError::UnknownFeatureName {
                target: id.to_string(),
                feature: name.to_string(),
            })?;
        let typed = entry
            .feature
            .as_any_mut()
            .downcast_mut::<T>()
            .ok_or_else(|| CoreError::UnknownFeatureName {
                target: id.to_string(),
                feature: name.to_string(),
            })?;
        Ok(f(typed))
    }

    /// Starts (or resizes) a history subscription: the channel keeps its
    /// last `capacity` materialized trees, and the subscription itself
    /// creates demand.
    pub(crate) fn subscribe_history(
        &mut self,
        id: ChannelId,
        capacity: usize,
    ) -> Result<(), CoreError> {
        let rt = self.runtime_mut(id)?;
        let capacity = capacity.max(1);
        match rt.history.as_mut() {
            Some(h) => {
                h.capacity = capacity;
                while h.trees.len() > capacity {
                    h.trees.pop_front();
                }
            }
            None => {
                rt.history = Some(TreeHistory {
                    capacity,
                    trees: VecDeque::new(),
                });
            }
        }
        Ok(())
    }

    /// Ends a history subscription, dropping retained trees (and, absent
    /// features, the channel's demand).
    pub(crate) fn unsubscribe_history(&mut self, id: ChannelId) -> Result<(), CoreError> {
        self.runtime_mut(id)?.history = None;
        Ok(())
    }

    /// The retained trees of a history subscription, oldest first.
    pub(crate) fn history(&self, id: ChannelId) -> Result<Vec<DataTree>, CoreError> {
        let rt = self.runtime(id)?;
        Ok(rt
            .history
            .as_ref()
            .map(|h| h.trees.iter().cloned().collect())
            .unwrap_or_default())
    }

    /// Buffer/materialization counters of one channel.
    pub(crate) fn stats(&self, id: ChannelId) -> Result<ChannelStats, CoreError> {
        let rt = self.runtime(id)?;
        Ok(ChannelStats {
            outputs: rt.outputs,
            materialized: rt.materialized,
            skipped: rt.skipped,
            dropped: rt.levels.iter().map(|l| l.dropped).sum(),
            buffered: rt.levels.iter().map(|l| l.pending.len() as u64).sum(),
        })
    }

    /// Read-only channel descriptions, every channel reported healthy.
    pub(crate) fn infos(&self) -> Vec<ChannelInfo> {
        self.runtimes
            .iter()
            .map(|rt| ChannelInfo {
                id: rt.id,
                members: rt.members.clone(),
                member_names: rt.member_names.iter().map(|n| n.to_string()).collect(),
                endpoint: rt.endpoint,
                features: rt
                    .features
                    .iter()
                    .map(|f| f.descriptor.name.clone())
                    .collect(),
                health: crate::supervision::HealthStatus::Healthy,
            })
            .collect()
    }

    /// [`ChannelLayer::infos`] with each channel's worst member health
    /// from `health` — what [`crate::Middleware::channels`] reports and
    /// what failover providers resolve against.
    pub(crate) fn infos_with_health(&self, health: &HealthRegistry) -> Vec<ChannelInfo> {
        let mut infos = self.infos();
        for info in &mut infos {
            info.health = info
                .members
                .iter()
                .map(|m| health.status(*m))
                .max()
                .unwrap_or_default();
        }
        infos
    }

    /// The channel that delivers into `(node, port)`, if any.
    pub(crate) fn channel_into(&self, node: NodeId, port: usize) -> Option<ChannelId> {
        self.runtimes
            .iter()
            .find(|rt| rt.endpoint == Some((node, port)))
            .map(|rt| rt.id)
    }
}

/// A channel head is a source or a merge component (paper §2.2: nodes of
/// the PCL are data sources or merging components).
fn channel_heads(graph: &ProcessingGraph) -> impl Iterator<Item = NodeId> + '_ {
    graph.node_ids().filter(|id| {
        graph.node(*id).is_some_and(|n| {
            matches!(
                n.descriptor.role,
                ComponentRole::Source | ComponentRole::Merge
            )
        })
    })
}

/// The runtime slot of the channel `id` in a layer's node index: the
/// slot its head node holds at level 0. Any other node heads no channel.
fn head_slot(node_index: &[Option<(u32, u32)>], id: ChannelId) -> Option<usize> {
    match node_index.get(id.0.index()) {
        Some(&Some((slot, 0))) => Some(slot as usize),
        _ => None,
    }
}

/// Walks the linear run from `head` to the next merge, sink or fan-out.
fn walk_channel(graph: &ProcessingGraph, head: NodeId) -> (Vec<NodeId>, Option<(NodeId, usize)>) {
    let mut members = vec![head];
    let mut cur = head;
    loop {
        let outs = graph.downstream(cur);
        if outs.len() != 1 {
            return (members, None);
        }
        let (next, port) = outs[0];
        let Some(node) = graph.node(next) else {
            return (members, None);
        };
        match node.descriptor.role {
            ComponentRole::Merge | ComponentRole::Sink => {
                return (members, Some((next, port)));
            }
            ComponentRole::Processor => {
                members.push(next);
                cur = next;
            }
            ComponentRole::Source => {
                // A source cannot consume; the graph prevents this, but
                // terminate defensively.
                return (members, None);
            }
        }
    }
}

fn build_node(
    levels: &[LevelState],
    members: &[NodeId],
    names: &[Arc<str>],
    level: usize,
    entry: &PendingEntry,
) -> DataNode {
    let children = match (level, entry.range()) {
        (0, _) | (_, None) => Vec::new(),
        (_, Some((lo, hi))) => {
            // Logical times are strictly increasing along the ring, so
            // the claimed [lo, hi] span is a contiguous run: locate it
            // with two binary searches instead of scanning every entry.
            let prev = &levels[level - 1].pending;
            let start = prev.partition_point(|e| e.logical < lo);
            let end = prev.partition_point(|e| e.logical <= hi);
            prev.range(start..end)
                .map(|e| build_node(levels, members, names, level - 1, e))
                .collect()
        }
    };
    DataNode {
        component: members[level],
        component_name: names.get(level).cloned().unwrap_or_else(|| Arc::from("")),
        item: entry.item.clone(),
        logical: entry.logical,
        range: entry.range(),
        children,
    }
}

/// Removes every buffered entry that the completed output claimed. Claims
/// always cover a prefix of each ring (everything with logical ≤ hi), so
/// draining is pure `pop_front` — the front of the ring never memmoves
/// the way `Vec::retain`/`drain(..n)` did.
fn prune_claimed(levels: &mut [LevelState], out_level: usize, out_lo: u64, out_hi: u64) {
    let (mut lo, mut hi) = (out_lo, out_hi);
    for level in (0..out_level).rev() {
        if lo > hi {
            break;
        }
        let state = &mut levels[level];
        // Fold the deepest range claimed transitively while popping.
        // No-contributor entries (packed sentinel `lo > hi`) stay out of
        // the fold: their `hi` reflects claims made by *siblings*, which
        // may have been evicted, not claims of their own.
        let (mut next_lo, mut next_hi) = (u64::MAX, 0);
        while let Some(front) = state.pending.front() {
            if front.logical > hi {
                break;
            }
            if front.lo <= front.hi {
                next_lo = next_lo.min(front.lo);
                next_hi = next_hi.max(front.hi);
            }
            state.pending.pop_front();
        }
        (lo, hi) = (next_lo, next_hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::kinds;

    fn item(kind: DataKind, v: i64) -> DataItem {
        DataItem::new(kind, SimTime::ZERO, Value::Int(v))
    }

    /// Builds the Fig. 1 GPS pipeline graph: gps -> parser -> interpreter
    /// -> app, and returns (graph, layer, gps, parser, interpreter).
    fn gps_pipeline() -> (
        ProcessingGraph,
        ChannelLayer,
        NodeId,
        NodeId,
        NodeId,
        NodeId,
    ) {
        use crate::component::{
            ComponentCtx, ComponentDescriptor, FnProcessor, FnSource, InputSpec,
        };

        struct App;
        impl crate::component::Component for App {
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

        let mut g = ProcessingGraph::new();
        let gps = g.add(Box::new(FnSource::new("GPS", kinds::RAW_STRING, |_| None)));
        let parser = g.add(Box::new(FnProcessor::new(
            "Parser",
            vec![kinds::RAW_STRING],
            kinds::NMEA_SENTENCE,
            |_| None,
        )));
        let interp = g.add(Box::new(FnProcessor::new(
            "Interpreter",
            vec![kinds::NMEA_SENTENCE],
            kinds::POSITION_WGS84,
            |_| None,
        )));
        let app = g.add(Box::new(App));
        g.connect(gps, parser, 0).unwrap();
        g.connect(parser, interp, 0).unwrap();
        g.connect(interp, app, 0).unwrap();
        let mut layer = ChannelLayer::default();
        layer.recompute(&g);
        // Most tests below observe trees directly, without attaching a
        // feature; a history subscription demands them.
        layer.subscribe_history(ChannelId(gps), 1).unwrap();
        (g, layer, gps, parser, interp, app)
    }

    #[test]
    fn derives_single_channel() {
        let (_g, layer, gps, parser, interp, app) = gps_pipeline();
        let infos = layer.infos();
        assert_eq!(infos.len(), 1);
        let info = &infos[0];
        assert_eq!(info.members, vec![gps, parser, interp]);
        assert_eq!(info.endpoint, Some((app, 0)));
        assert_eq!(info.member_names, vec!["GPS", "Parser", "Interpreter"]);
        assert_eq!(layer.channel_into(app, 0), Some(info.id));
    }

    /// Reproduces the exact data tree of the paper's Fig. 4:
    /// five GPS strings, two NMEA sentences (consuming strings 1-2 and
    /// 3-5), one WGS-84 position consuming NMEA 1-2.
    #[test]
    fn figure_4_data_tree() {
        let (_g, mut layer, gps, parser, interp, _app) = gps_pipeline();

        // Strings 1-2 -> NMEA1.
        assert!(layer.record(gps, &item(kinds::RAW_STRING, 1)).is_none());
        assert!(layer.record(gps, &item(kinds::RAW_STRING, 2)).is_none());
        assert!(layer
            .record(parser, &item(kinds::NMEA_SENTENCE, 1))
            .is_none());
        // Strings 3-5 -> NMEA2.
        for v in 3..=5 {
            assert!(layer.record(gps, &item(kinds::RAW_STRING, v)).is_none());
        }
        assert!(layer
            .record(parser, &item(kinds::NMEA_SENTENCE, 2))
            .is_none());
        // Interpreter consumes NMEA 1-2 -> WGS84_1 (channel output).
        let tree = layer
            .record(interp, &item(kinds::POSITION_WGS84, 1))
            .expect("channel output completes the tree");

        assert_eq!(tree.root.logical, 1);
        assert_eq!(tree.root.range, Some((1, 2)));
        assert_eq!(tree.root.children.len(), 2);
        let nmea1 = &tree.root.children[0];
        let nmea2 = &tree.root.children[1];
        assert_eq!(nmea1.range, Some((1, 2)));
        assert_eq!(nmea2.range, Some((3, 5)));
        assert_eq!(nmea1.children.len(), 2);
        assert_eq!(nmea2.children.len(), 3);
        assert_eq!(tree.len(), 1 + 2 + 5);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.items_of_kind(&kinds::NMEA_SENTENCE).len(), 2);
        assert_eq!(tree.items_of_kind(&kinds::RAW_STRING).len(), 5);
        let rendered = tree.render();
        assert!(rendered.contains("consumed 3-5"), "{rendered}");
    }

    #[test]
    fn buffers_pruned_after_output() {
        let (_g, mut layer, gps, parser, interp, _app) = gps_pipeline();
        layer.record(gps, &item(kinds::RAW_STRING, 1));
        layer.record(parser, &item(kinds::NMEA_SENTENCE, 1));
        let t1 = layer
            .record(interp, &item(kinds::POSITION_WGS84, 1))
            .unwrap();
        assert_eq!(t1.len(), 3);
        // Next round starts fresh: new string + sentence only.
        layer.record(gps, &item(kinds::RAW_STRING, 2));
        layer.record(parser, &item(kinds::NMEA_SENTENCE, 2));
        let t2 = layer
            .record(interp, &item(kinds::POSITION_WGS84, 2))
            .unwrap();
        assert_eq!(t2.len(), 3, "old entries must not leak into new trees");
        assert_eq!(t2.root.range, Some((2, 2)));
    }

    #[test]
    fn output_without_fresh_input_has_no_children() {
        let (_g, mut layer, _gps, _parser, interp, _app) = gps_pipeline();
        let tree = layer
            .record(interp, &item(kinds::POSITION_WGS84, 1))
            .unwrap();
        assert_eq!(tree.root.range, None);
        assert!(tree.is_empty());
    }

    #[test]
    fn recompute_preserves_features_by_head() {
        struct Probe {
            applied: usize,
        }
        impl ChannelFeature for Probe {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("Probe")
            }
            fn apply(&mut self, _t: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
                self.applied += 1;
                Ok(())
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let (g, mut layer, gps, _parser, _interp, _app) = gps_pipeline();
        let id = ChannelId(gps);
        layer
            .attach_feature(&g, id, Box::new(Probe { applied: 0 }))
            .unwrap();
        layer.recompute(&g);
        assert_eq!(layer.infos()[0].features, vec!["Probe".to_string()]);
        let n = layer
            .with_feature_mut::<Probe, usize>(id, "Probe", |p| p.applied)
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn attach_validates_dependencies() {
        struct Dependent;
        impl ChannelFeature for Dependent {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("Dependent").requiring("HDOP")
            }
            fn apply(&mut self, _t: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
                Ok(())
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let (mut g, mut layer, gps, parser, _interp, _app) = gps_pipeline();
        let id = ChannelId(gps);
        assert!(matches!(
            layer.attach_feature(&g, id, Box::new(Dependent)),
            Err(CoreError::MissingFeature { .. })
        ));
        // Attach the required Component Feature to a member, then retry.
        g.attach_feature(
            parser,
            Box::new(crate::feature::TagFeature::new(
                "HDOP",
                "hdop",
                Value::Float(1.0),
            )),
        )
        .unwrap();
        layer.attach_feature(&g, id, Box::new(Dependent)).unwrap();
        // Dependency on a member component name also works.
        struct OnParser;
        impl ChannelFeature for OnParser {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("OnParser").requiring("Parser")
            }
            fn apply(&mut self, _t: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
                Ok(())
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        layer.attach_feature(&g, id, Box::new(OnParser)).unwrap();
        // And on a previously attached channel feature.
        struct OnDependent;
        impl ChannelFeature for OnDependent {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("OnDependent").requiring("Dependent")
            }
            fn apply(&mut self, _t: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
                Ok(())
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        layer.attach_feature(&g, id, Box::new(OnDependent)).unwrap();
        assert_eq!(layer.infos()[0].features.len(), 3);
        // Detach works and unknown names error.
        layer.detach_feature(id, "OnDependent").unwrap();
        assert!(layer.detach_feature(id, "OnDependent").is_err());
    }

    #[test]
    fn features_applied_on_output() {
        struct Collect {
            kinds_seen: Vec<String>,
        }
        impl ChannelFeature for Collect {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("Collect")
            }
            fn apply(
                &mut self,
                tree: &DataTree,
                _h: &mut ChannelHost<'_>,
            ) -> Result<(), CoreError> {
                for n in tree.iter() {
                    self.kinds_seen.push(n.item.kind.to_string());
                }
                Ok(())
            }
            fn invoke(&mut self, method: &str, _args: &[Value]) -> Result<Value, CoreError> {
                if method == "count" {
                    Ok(Value::Int(self.kinds_seen.len() as i64))
                } else {
                    Err(CoreError::NoSuchMethod {
                        target: "Collect".into(),
                        method: method.into(),
                    })
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let (mut g, mut layer, gps, parser, interp, _app) = gps_pipeline();
        let id = ChannelId(gps);
        layer
            .attach_feature(&g, id, Box::new(Collect { kinds_seen: vec![] }))
            .unwrap();
        layer.record(gps, &item(kinds::RAW_STRING, 1));
        layer.record(parser, &item(kinds::NMEA_SENTENCE, 1));
        let tree = layer
            .record(interp, &item(kinds::POSITION_WGS84, 1))
            .unwrap();
        layer.apply_features(&mut g, &tree, SimTime::ZERO).unwrap();
        assert_eq!(
            layer.invoke_feature(id, "Collect", "count", &[]).unwrap(),
            Value::Int(3)
        );
        assert!(layer.invoke_feature(id, "Collect", "nope", &[]).is_err());
        assert!(layer.invoke_feature(id, "Nope", "count", &[]).is_err());
    }

    #[test]
    fn level_buffer_cap_bounds_memory_and_counts_drops() {
        let (_g, mut layer, gps, _parser, _interp, _app) = gps_pipeline();
        for v in 0..(LEVEL_BUFFER_CAP as i64 + 100) {
            layer.record(gps, &item(kinds::RAW_STRING, v));
        }
        let rt = layer.runtimes.first().unwrap();
        assert_eq!(rt.levels[0].pending.len(), LEVEL_BUFFER_CAP);
        let stats = layer.stats(layer.infos()[0].id).unwrap();
        assert_eq!(stats.dropped, 100);
        assert_eq!(stats.buffered, LEVEL_BUFFER_CAP as u64);
    }

    #[test]
    fn lazy_skips_materialization_until_demand() {
        let (g, mut layer, gps, parser, interp, _app) = gps_pipeline();
        let id = ChannelId(gps);
        layer.unsubscribe_history(id).unwrap();

        // No feature, no history: outputs complete without a tree, but
        // all bookkeeping still runs.
        layer.record(gps, &item(kinds::RAW_STRING, 1));
        layer.record(parser, &item(kinds::NMEA_SENTENCE, 1));
        assert!(layer
            .record(interp, &item(kinds::POSITION_WGS84, 1))
            .is_none());
        let stats = layer.stats(id).unwrap();
        assert_eq!(
            (stats.outputs, stats.materialized, stats.skipped),
            (1, 0, 1)
        );
        assert_eq!(stats.buffered, 0, "claimed entries are still pruned");

        // Attaching a feature creates demand; logical time carries on
        // exactly where the skipped outputs left it.
        struct Probe;
        impl ChannelFeature for Probe {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("Probe")
            }
            fn apply(&mut self, _t: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
                Ok(())
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        layer.attach_feature(&g, id, Box::new(Probe)).unwrap();
        layer.record(gps, &item(kinds::RAW_STRING, 2));
        layer.record(parser, &item(kinds::NMEA_SENTENCE, 2));
        let tree = layer
            .record(interp, &item(kinds::POSITION_WGS84, 2))
            .expect("demand materializes the tree");
        assert_eq!(tree.root.logical, 2, "logical time continued while lazy");
        assert_eq!(tree.root.range, Some((2, 2)));
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn history_subscription_demands_and_retains_trees() {
        let (_g, mut layer, gps, parser, interp, _app) = gps_pipeline();
        let id = ChannelId(gps);
        layer.unsubscribe_history(id).unwrap();
        layer.subscribe_history(id, 2).unwrap();
        for v in 1..=3 {
            layer.record(gps, &item(kinds::RAW_STRING, v));
            layer.record(parser, &item(kinds::NMEA_SENTENCE, v));
            assert!(layer
                .record(interp, &item(kinds::POSITION_WGS84, v))
                .is_some());
        }
        let history = layer.history(id).unwrap();
        assert_eq!(history.len(), 2, "ring keeps the last `capacity` trees");
        assert_eq!(history[0].root.logical, 2);
        assert_eq!(history[1].root.logical, 3);
        layer.unsubscribe_history(id).unwrap();
        assert!(layer.history(id).unwrap().is_empty());
        layer.record(interp, &item(kinds::POSITION_WGS84, 9));
        assert_eq!(layer.stats(id).unwrap().skipped, 1);
    }
}
