//! The [`Middleware`] facade: one object owning the processing graph, the
//! channel layer, the positioning layer and the simulation clock, and the
//! execution engine that moves data from sensors to applications.
//!
//! Execution model: the engine is deterministic and synchronous. Each
//! [`Middleware::step`] ticks every source component; emitted items run
//! through the producing node's Component Features (produce direction),
//! are recorded by the channel layer (completing a channel output fires
//! the attached Channel Features), and are then delivered to downstream
//! ports whose declared kinds accept them, where the consuming node's
//! features (consume direction) and the component itself process them.
//! Graph manipulation between steps keeps the channel views causally
//! connected — they are recomputed from the live graph on every change
//! (paper §2: "maintaining a causal connection between the positioning
//! system and the tree").

use std::fmt;
use std::sync::Arc;

use crate::channel::{
    ChannelFeature, ChannelId, ChannelInfo, ChannelLayer, ChannelStats, DataTree,
};
use crate::component::{Component, MethodSpec};
use crate::data::{ArenaStats, DataItem, DataKind, PayloadArena, Value};
use crate::distribution::Deployment;
use crate::engine::{EngineCtx, Sources};
use crate::feature::ComponentFeature;
use crate::fleet::snapshot::{structure_signature, Snapshot, SNAPSHOT_VERSION};
use crate::graph::{NodeId, NodeInfo, ProcessingGraph};
use crate::positioning::{
    ApplicationSink, Criteria, FailoverProvider, FailoverShared, LocationProvider, SinkShared,
};
use crate::supervision::{FaultPolicy, HealthRegistry, NodeHealth};
use crate::{CoreError, SimClock, SimDuration, SimTime};

/// A named tracked target: an application end-point of its own, to which
/// several sensor pipelines may be connected (paper §2.3: "definition of
/// tracked targets, which may have several sensors attached to them").
#[derive(Clone)]
pub struct Target {
    name: String,
    node: NodeId,
    shared: Arc<SinkShared>,
}

impl Target {
    /// The target's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sink node representing this target in the graph.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A location provider filtered by `criteria` over this target's data.
    pub fn provider(&self, criteria: Criteria) -> LocationProvider {
        LocationProvider::new(Arc::clone(&self.shared), criteria)
    }
}

impl fmt::Debug for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Target")
            .field("name", &self.name)
            .field("node", &self.node)
            .finish()
    }
}

/// The PerPos middleware instance.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Middleware {
    graph: ProcessingGraph,
    channels: ChannelLayer,
    clock: SimClock,
    app_sink: NodeId,
    app_shared: Arc<SinkShared>,
    targets: Vec<Target>,
    steps_run: u64,
    /// Items emitted by features during out-of-band reflective calls,
    /// routed at the start of the next step.
    pending: Vec<(NodeId, DataItem)>,
    deployment: Option<Deployment>,
    /// Per-node fault policies and health (supervision subsystem).
    health: HealthRegistry,
    /// Failover providers, re-resolved against pipeline health by the
    /// engine loop after every completed step.
    failovers: Vec<Arc<FailoverShared>>,
    /// Per-shard recycler of payload slots: the engine loop interns
    /// owned-value emissions and ingested lines here.
    arena: PayloadArena,
}

impl fmt::Debug for Middleware {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Middleware")
            .field("graph", &self.graph)
            .field("steps_run", &self.steps_run)
            .finish()
    }
}

impl Default for Middleware {
    fn default() -> Self {
        Middleware::new()
    }
}

impl Middleware {
    /// Creates a middleware instance with one application sink.
    pub fn new() -> Self {
        let mut graph = ProcessingGraph::new();
        let (sink, shared) = ApplicationSink::new("application");
        let app_sink = graph.add(Box::new(sink));
        let mut channels = ChannelLayer::default();
        channels.recompute(&graph);
        Middleware {
            graph,
            channels,
            clock: SimClock::new(),
            app_sink,
            app_shared: shared,
            targets: Vec::new(),
            steps_run: 0,
            pending: Vec::new(),
            deployment: None,
            health: HealthRegistry::default(),
            failovers: Vec::new(),
            arena: PayloadArena::new(),
        }
    }

    // ------------------------------------------------------------------
    // Clock
    // ------------------------------------------------------------------

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Number of engine steps executed so far.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Advances the simulation clock by `d` without running a step —
    /// for experiment loops that interleave stepping with measurements.
    pub fn advance_clock(&mut self, d: SimDuration) -> SimTime {
        self.clock.advance(d)
    }

    // ------------------------------------------------------------------
    // Process Structure Layer (PSL) — paper §2.1
    // ------------------------------------------------------------------

    /// Adds a component to the processing graph.
    pub fn add_component(&mut self, component: impl Component + 'static) -> NodeId {
        let id = self.graph.add(Box::new(component));
        self.channels.recompute(&self.graph);
        id
    }

    /// Adds an already boxed component.
    pub fn add_boxed_component(&mut self, component: Box<dyn Component>) -> NodeId {
        let id = self.graph.add(component);
        self.channels.recompute(&self.graph);
        id
    }

    /// Removes a component, returning it. Removing a target's sink node
    /// also drops the target from [`Middleware::targets`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] for unknown nodes.
    pub fn remove_component(&mut self, id: NodeId) -> Result<Box<dyn Component>, CoreError> {
        let c = self.graph.remove(id)?;
        self.health.forget(id);
        self.targets.retain(|t| t.node != id);
        self.channels.recompute(&self.graph);
        Ok(c)
    }

    /// Connects `from`'s output to `(to, port)` with full validation (see
    /// [`ProcessingGraph::connect`]).
    ///
    /// # Errors
    ///
    /// Propagates the graph's validation errors.
    pub fn connect(&mut self, from: NodeId, to: NodeId, port: usize) -> Result<(), CoreError> {
        self.graph.connect(from, to, port)?;
        self.channels.recompute(&self.graph);
        Ok(())
    }

    /// Disconnects input `port` of `to`.
    ///
    /// # Errors
    ///
    /// Propagates the graph's validation errors.
    pub fn disconnect(&mut self, to: NodeId, port: usize) -> Result<Option<NodeId>, CoreError> {
        let r = self.graph.disconnect(to, port)?;
        self.channels.recompute(&self.graph);
        Ok(r)
    }

    /// Connects `from` to the first free input port of `sink` (an
    /// application sink or target node). Returns the chosen port.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PortOccupied`] when every port is taken, or
    /// the usual connection validation errors.
    pub fn connect_to_sink(&mut self, from: NodeId, sink: NodeId) -> Result<usize, CoreError> {
        let info = self.graph.info(sink)?;
        let port = info
            .inputs
            .iter()
            .position(|p| p.is_none())
            .ok_or(CoreError::PortOccupied {
                node: sink,
                port: info.inputs.len(),
            })?;
        self.connect(from, sink, port)?;
        Ok(port)
    }

    /// Inserts `new` into the existing edge `from -> (to, port)` (the
    /// §3.1 "insert a filter after the Parser" operation).
    ///
    /// # Errors
    ///
    /// Propagates the graph's validation errors.
    pub fn insert_between(
        &mut self,
        new: NodeId,
        from: NodeId,
        to: NodeId,
        port: usize,
    ) -> Result<(), CoreError> {
        self.graph.insert_between(new, from, to, port)?;
        self.channels.recompute(&self.graph);
        Ok(())
    }

    /// Attaches a Component Feature to a node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] for unknown nodes and
    /// [`CoreError::DuplicateFeature`] when a feature of that name is
    /// already attached.
    pub fn attach_feature(
        &mut self,
        id: NodeId,
        feature: impl ComponentFeature + 'static,
    ) -> Result<(), CoreError> {
        self.graph.attach_feature(id, Box::new(feature))?;
        self.channels.recompute(&self.graph);
        Ok(())
    }

    /// Detaches a Component Feature by name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeatureName`] when absent.
    pub fn detach_feature(
        &mut self,
        id: NodeId,
        name: &str,
    ) -> Result<Box<dyn ComponentFeature>, CoreError> {
        let f = self.graph.detach_feature(id, name)?;
        self.channels.recompute(&self.graph);
        Ok(f)
    }

    /// Inspection of the full process structure (PSL view).
    pub fn structure(&self) -> Vec<NodeInfo> {
        self.graph
            .node_ids()
            .filter_map(|id| self.graph.info(id).ok())
            .collect()
    }

    /// Inspection record for one node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] for unknown nodes.
    pub fn node_info(&self, id: NodeId) -> Result<NodeInfo, CoreError> {
        self.graph.info(id)
    }

    /// Renders the process tree as indented text.
    pub fn render_process_tree(&self) -> String {
        self.graph.render_tree()
    }

    /// Reflectively invokes a method on a node (component first, then its
    /// features) — the same dispatch a Channel Feature reaches through
    /// [`crate::channel::ChannelHost::invoke_node`]. Items the call emits
    /// are routed at the start of the next step. Runtime state is read
    /// through the typed getters instead: [`Middleware::node_health`],
    /// [`Middleware::channels`], [`Middleware::channel_stats`] and
    /// [`Deployment::dist_stats`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] for unknown nodes and
    /// [`CoreError::NoSuchMethod`] when nothing handles the method.
    pub fn invoke(&mut self, id: NodeId, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        let now = self.clock.now();
        let (value, emitted) = self.graph.invoke(id, method, args, now)?;
        self.pending.extend(emitted.into_iter().map(|i| (id, i)));
        Ok(value)
    }

    /// Reflectively invokes a method on a named Component Feature.
    ///
    /// # Errors
    ///
    /// Propagates reflective errors.
    pub fn invoke_feature(
        &mut self,
        id: NodeId,
        feature: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, CoreError> {
        let now = self.clock.now();
        let (value, emitted) = self.graph.invoke_feature(id, feature, method, args, now)?;
        self.pending.extend(emitted.into_iter().map(|i| (id, i)));
        Ok(value)
    }

    /// All methods a node appears to implement.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] for unknown nodes.
    pub fn methods(&self, id: NodeId) -> Result<Vec<MethodSpec>, CoreError> {
        self.graph.methods(id)
    }

    /// Typed access to an attached Component Feature.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeatureName`] when absent or of another
    /// type.
    pub fn with_feature_mut<T: 'static, R>(
        &mut self,
        id: NodeId,
        name: &str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, CoreError> {
        self.graph.with_feature_mut(id, name, f)
    }

    /// Direct access to the graph for read-only traversals.
    pub fn graph(&self) -> &ProcessingGraph {
        &self.graph
    }

    // ------------------------------------------------------------------
    // Supervision (fault policies & health)
    // ------------------------------------------------------------------

    /// Sets the fault policy applied when `id` (or one of its features)
    /// fails or panics. The default is [`FaultPolicy::Propagate`], which
    /// keeps the original abort-on-first-error engine contract; every
    /// other policy contains the fault and keeps the step running.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] for unknown nodes.
    pub fn set_fault_policy(&mut self, id: NodeId, policy: FaultPolicy) -> Result<(), CoreError> {
        if !self.graph.contains(id) {
            return Err(CoreError::UnknownNode(id));
        }
        self.health.set_policy(id, policy);
        Ok(())
    }

    /// The fault policy of `id` ([`FaultPolicy::Propagate`] unless set).
    pub fn fault_policy(&self, id: NodeId) -> FaultPolicy {
        self.health.policy(id)
    }

    /// The supervisor's health record for `id`.
    pub fn node_health(&self, id: NodeId) -> NodeHealth {
        self.health.health(id)
    }

    // ------------------------------------------------------------------
    // Process Channel Layer (PCL) — paper §2.2
    // ------------------------------------------------------------------

    /// The current channels (PCL view), each annotated with the worst
    /// health status among its member components so Channel Features and
    /// the Positioning Layer can reason over pipeline health.
    pub fn channels(&self) -> Vec<ChannelInfo> {
        self.channels.infos_with_health(&self.health)
    }

    /// The channel delivering into `(node, port)`, if any.
    pub fn channel_into(&self, node: NodeId, port: usize) -> Option<ChannelId> {
        self.channels.channel_into(node, port)
    }

    /// Attaches a Channel Feature, validating its declared dependencies.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownChannel`] or
    /// [`CoreError::MissingFeature`] for unsatisfied dependencies.
    pub fn attach_channel_feature(
        &mut self,
        id: ChannelId,
        feature: impl ChannelFeature + 'static,
    ) -> Result<(), CoreError> {
        self.channels
            .attach_feature(&self.graph, id, Box::new(feature))
    }

    /// Detaches a Channel Feature by name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeatureName`] when absent.
    pub fn detach_channel_feature(
        &mut self,
        id: ChannelId,
        name: &str,
    ) -> Result<Box<dyn ChannelFeature>, CoreError> {
        self.channels.detach_feature(id, name)
    }

    /// Reflectively invokes a method on an attached Channel Feature — how
    /// Positioning Layer code reaches middleware adaptations.
    ///
    /// # Errors
    ///
    /// Propagates reflective errors.
    pub fn invoke_channel_feature(
        &mut self,
        id: ChannelId,
        feature: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, CoreError> {
        self.channels.invoke_feature(id, feature, method, args)
    }

    /// Typed access to an attached Channel Feature (the paper's
    /// `inputChannel.getFeature(Likelihood.class)`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeatureName`] when absent or of another
    /// type.
    pub fn with_channel_feature_mut<T: 'static, R>(
        &mut self,
        id: ChannelId,
        name: &str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, CoreError> {
        self.channels.with_feature_mut(id, name, f)
    }

    /// Subscribes to a channel's tree history: the channel retains its
    /// last `capacity` trees (oldest evicted first), and the subscription
    /// itself creates materialization demand.
    /// Resubscribing resizes the retained window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownChannel`] for unknown channels.
    pub fn subscribe_channel_history(
        &mut self,
        id: ChannelId,
        capacity: usize,
    ) -> Result<(), CoreError> {
        self.channels.subscribe_history(id, capacity)
    }

    /// Ends a channel history subscription, dropping retained trees.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownChannel`] for unknown channels.
    pub fn unsubscribe_channel_history(&mut self, id: ChannelId) -> Result<(), CoreError> {
        self.channels.unsubscribe_history(id)
    }

    /// The retained trees of a channel history subscription, oldest
    /// first (empty without a subscription).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownChannel`] for unknown channels.
    pub fn channel_history(&self, id: ChannelId) -> Result<Vec<DataTree>, CoreError> {
        self.channels.history(id)
    }

    /// Buffer, drop and materialization counters of one channel.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownChannel`] for unknown channels.
    pub fn channel_stats(&self, id: ChannelId) -> Result<ChannelStats, CoreError> {
        self.channels.stats(id)
    }

    // ------------------------------------------------------------------
    // Positioning Layer — paper §2.3
    // ------------------------------------------------------------------

    /// The default application sink node (root of the process tree).
    pub fn application_sink(&self) -> NodeId {
        self.app_sink
    }

    /// Requests a location provider matching `criteria` over the default
    /// application sink.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoMatchingProvider`] when the criteria names
    /// kinds that no component in the graph can provide.
    pub fn location_provider(&self, criteria: Criteria) -> Result<LocationProvider, CoreError> {
        if !criteria.kinds().is_empty() {
            let available = self
                .graph
                .node_ids()
                .flat_map(|id| self.graph.effective_provides(id))
                .collect::<Vec<_>>();
            if !criteria.kinds().iter().any(|k| available.contains(&k)) {
                return Err(CoreError::NoMatchingProvider(criteria.to_string()));
            }
        }
        Ok(LocationProvider::new(
            Arc::clone(&self.app_shared),
            criteria,
        ))
    }

    /// Requests a provider with failover: an ordered list of criteria
    /// preferences over the default application sink, of which the
    /// highest-ranked one still fed by healthy (non-quarantined)
    /// pipelines is active. The engine loop re-resolves it after every
    /// completed step, at that step's time, whichever entry point ran the
    /// step; transitions surface as [`crate::positioning::ProviderEvent`]s.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadArguments`] when `preferences` is empty.
    pub fn failover_provider(
        &mut self,
        preferences: Vec<Criteria>,
    ) -> Result<FailoverProvider, CoreError> {
        if preferences.is_empty() {
            return Err(CoreError::BadArguments {
                method: "failover_provider".into(),
                reason: "at least one criteria preference required".into(),
            });
        }
        let shared = Arc::new(FailoverShared::new(preferences, &self.channels()));
        self.failovers.push(Arc::clone(&shared));
        Ok(FailoverProvider::new(Arc::clone(&self.app_shared), shared))
    }

    /// Creates a named tracked target with its own sink node; connect
    /// sensor pipelines to `target.node()`.
    pub fn add_target(&mut self, name: impl Into<String>) -> Target {
        let name = name.into();
        let (sink, shared) = ApplicationSink::new(name.clone());
        let node = self.graph.add(Box::new(sink));
        self.channels.recompute(&self.graph);
        let target = Target { name, node, shared };
        self.targets.push(target.clone());
        target
    }

    /// The registered targets.
    pub fn targets(&self) -> &[Target] {
        &self.targets
    }

    /// The k nearest targets to a reference position, by each target's
    /// most recent reported position — the "k-nearest targets" query the
    /// Positioning Layer offers (paper §2). Targets that have not
    /// reported a position yet are skipped.
    pub fn k_nearest_targets(
        &self,
        from: &perpos_geo::Wgs84,
        k: usize,
    ) -> Vec<(String, crate::data::Position, f64)> {
        let mut out: Vec<(String, crate::data::Position, f64)> = self
            .targets
            .iter()
            .filter_map(|t| {
                let pos = t.provider(Criteria::new()).last_position()?;
                let d = pos.coord().distance_m(from);
                Some((t.name().to_string(), pos, d))
            })
            .collect();
        out.sort_by(|a, b| a.2.total_cmp(&b.2));
        out.truncate(k);
        out
    }

    // ------------------------------------------------------------------
    // Distribution (simulated D-OSGi, paper §3.3)
    // ------------------------------------------------------------------

    /// Distributes the graph over hosts: items crossing host boundaries
    /// travel through the deployment's link model (latency/loss) instead
    /// of being delivered synchronously.
    pub fn set_deployment(&mut self, deployment: Deployment) {
        self.deployment = Some(deployment);
    }

    /// The active deployment, if the graph is distributed.
    pub fn deployment(&self) -> Option<&Deployment> {
        self.deployment.as_ref()
    }

    /// Removes the deployment; the graph becomes co-located again.
    /// In-flight messages are dropped.
    pub fn clear_deployment(&mut self) -> Option<Deployment> {
        self.deployment.take()
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (fleet runtime)
    // ------------------------------------------------------------------

    /// Captures a versioned checkpoint of this instance's dynamic state:
    /// logical time, per-channel ring state and history, supervision
    /// records, pending reflective emissions, the deployment's link state
    /// and whatever opaque state components and features expose through
    /// [`Component::snapshot_state`]. See [`crate::fleet::snapshot`] for
    /// the format and its version rules.
    pub fn snapshot(&self) -> Snapshot {
        let mut component_state = Vec::new();
        let mut feature_state = Vec::new();
        for id in self.graph.node_ids() {
            if let Some(node) = self.graph.node(id) {
                if let Some(state) = node.component.snapshot_state() {
                    component_state.push((id, state));
                }
                for (fi, slot) in node.features.iter().enumerate() {
                    if let Some(state) = slot.feature.snapshot_state() {
                        feature_state.push(((id, fi), state));
                    }
                }
            }
        }
        Snapshot {
            version: SNAPSHOT_VERSION,
            structure: structure_signature(&self.graph),
            now: self.clock.now(),
            steps_run: self.steps_run,
            channels: self.channels.snapshot(),
            health: self.health.clone(),
            pending: self.pending.clone(),
            deployment: self.deployment.clone(),
            component_state,
            feature_state,
        }
    }

    /// Restores a checkpoint taken with [`Middleware::snapshot`] into
    /// this instance, which must be structurally identical to the one
    /// the snapshot was taken from — same nodes, wiring and feature
    /// stacks, typically because both were built by the same factory.
    ///
    /// After a successful restore, stepping this instance produces
    /// byte-identical trees, history and health to the original stepped
    /// without interruption (the contract `tests/fleet_recovery.rs`
    /// pins down).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ComponentFailure`] without touching the
    /// instance when the snapshot version or the graph structure does
    /// not match.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), CoreError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(CoreError::ComponentFailure {
                component: "snapshot".into(),
                reason: format!(
                    "snapshot version {} does not match build version {SNAPSHOT_VERSION}",
                    snap.version
                ),
            });
        }
        if snap.structure != structure_signature(&self.graph) {
            return Err(CoreError::ComponentFailure {
                component: "snapshot".into(),
                reason: "snapshot structure does not match this graph".into(),
            });
        }
        self.channels.restore(&snap.channels)?;
        self.clock = SimClock::new();
        self.clock.advance(snap.now.since(SimTime::ZERO));
        self.steps_run = snap.steps_run;
        self.pending = snap.pending.clone();
        self.health = snap.health.clone();
        self.deployment = snap.deployment.clone();
        for (id, state) in &snap.component_state {
            if let Some(node) = self.graph.node_mut(*id) {
                node.component.restore_state(state);
            }
        }
        for ((id, fi), state) in &snap.feature_state {
            if let Some(slot) = self
                .graph
                .node_mut(*id)
                .and_then(|n| n.features.get_mut(*fi))
            {
                slot.feature.restore_state(state);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Engine
    // ------------------------------------------------------------------

    /// Runs one engine step at the current simulated time: ticks all
    /// sources and propagates emissions through the graph to quiescence.
    ///
    /// Every per-node unit of work (a source tick, or one item's feature
    /// dispatch + delivery) runs under the node's [`FaultPolicy`], with
    /// panics contained as faults. Quarantined nodes are skipped until
    /// their backoff elapses, then probed once and reinstated on success.
    ///
    /// # Errors
    ///
    /// Aborts on the first failure of a node whose policy is
    /// [`FaultPolicy::Propagate`] (the default) and surfaces it; faults
    /// of nodes under any other policy are contained.
    pub fn step(&mut self) -> Result<(), CoreError> {
        self.run_engine(Sources::Tick, 1, SimDuration::ZERO)
    }

    /// Runs `steps` engine steps back to back, advancing the clock by
    /// `tick` after every completed step — equivalent to a
    /// [`Middleware::step`]/[`Middleware::advance_clock`] loop, but the
    /// whole batch runs as one engine loop, hoisting per-step setup
    /// (source list, queue, routing scratch) out of the inner loop.
    ///
    /// # Errors
    ///
    /// Propagates the first step error; steps up to and including the
    /// failing one are reflected in [`Middleware::steps_run`] and the
    /// clock, exactly as the equivalent loop would leave them.
    pub fn step_batch(&mut self, steps: u64, tick: SimDuration) -> Result<(), CoreError> {
        self.run_engine(Sources::Tick, steps, tick)
    }

    /// Ingests a pre-lexed block of trace lines through `source`: each
    /// line runs as one engine step in which the source emits the line
    /// as a [`Value::Text`] item of `kind` instead of being ticked. The
    /// engine machinery is exactly [`Middleware::step_batch`]'s — produce
    /// features, routing, channel bookkeeping, supervision, failover
    /// re-resolution after every line — with the line text interned
    /// straight into the payload arena, so the per-line path allocates
    /// nothing in steady state. One block therefore fires the same
    /// failover events, at the same times, as the same lines ingested
    /// one per call. Returns the number of lines ingested (= steps run).
    ///
    /// Pair with a block lexer (e.g. `perpos-sensors`' `scan_block`)
    /// that validates raw chunks and strips malformed lines first.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownNode`] when `source` is not in the graph;
    /// otherwise the same fault semantics as [`Middleware::step_batch`].
    pub fn ingest_batch(
        &mut self,
        source: NodeId,
        kind: DataKind,
        lines: &[&str],
        tick: SimDuration,
    ) -> Result<u64, CoreError> {
        let sources = Sources::Ingest {
            source,
            kind: &kind,
            lines,
        };
        self.run_engine(sources, lines.len() as u64, tick)
            .map(|()| lines.len() as u64)
    }

    /// The one place the engine loop is entered: builds the
    /// [`EngineCtx`], runs up to `steps` steps, then books the steps
    /// that ran — the completed ones and a failing one — and the time
    /// that elapsed.
    fn run_engine(
        &mut self,
        sources: Sources<'_>,
        steps: u64,
        tick: SimDuration,
    ) -> Result<(), CoreError> {
        let start = self.clock.now();
        let mut ctx = EngineCtx::new(
            &mut self.graph,
            &mut self.channels,
            &mut self.health,
            self.deployment.as_mut(),
            &self.failovers,
            start,
            &mut self.arena,
        );
        let (completed, result) = ctx.run(&mut self.pending, sources, steps, tick);
        let elapsed = ctx.now.since(start);
        self.steps_run += completed + u64::from(result.is_err());
        self.clock.advance(elapsed);
        result
    }

    /// Slot-traffic counters of the payload arena (interned, recycled,
    /// escaped, held) — the observability surface the reclamation tests
    /// assert against.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Advances simulated time by `tick` after each step until `total`
    /// has elapsed. Runs as one [`Middleware::step_batch`] call.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadArguments`] when `tick` is zero, without
    /// stepping; otherwise propagates the first step error.
    pub fn run_for(&mut self, total: SimDuration, tick: SimDuration) -> Result<(), CoreError> {
        if tick.is_zero() {
            return Err(CoreError::BadArguments {
                method: "run_for".into(),
                reason: "tick duration must be non-zero".into(),
            });
        }
        let steps = total.as_micros().div_ceil(tick.as_micros());
        self.step_batch(steps, tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentCtx, FnProcessor, FnSource};
    use crate::data::{kinds, Position};
    use crate::feature::{FeatureAction, FeatureDescriptor, FeatureHost, TagFeature};
    use perpos_geo::Wgs84;
    use std::any::Any;

    fn wgs(lat: f64, lon: f64) -> Wgs84 {
        Wgs84::new(lat, lon, 0.0).unwrap()
    }

    fn position_source(mw: &mut Middleware, name: &str, lat: f64, lon: f64) -> NodeId {
        mw.add_component(FnSource::new(name, kinds::POSITION_WGS84, move |_| {
            Some(Value::from(Position::new(wgs(lat, lon), Some(5.0))))
        }))
    }

    #[test]
    fn pipeline_delivers_to_provider() {
        let mut mw = Middleware::new();
        let src = position_source(&mut mw, "gps", 56.0, 10.0);
        let app = mw.application_sink();
        mw.connect(src, app, 0).unwrap();
        mw.run_for(SimDuration::from_secs(1), SimDuration::from_millis(100))
            .unwrap();
        let provider = mw
            .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
            .unwrap();
        assert!(provider.last_position().is_some());
        assert_eq!(provider.delivered_count(), 10);
        assert_eq!(mw.steps_run(), 10);
    }

    #[test]
    fn run_for_rejects_a_zero_tick_without_stepping() {
        let mut mw = Middleware::new();
        let src = position_source(&mut mw, "gps", 56.0, 10.0);
        mw.connect(src, mw.application_sink(), 0).unwrap();
        assert!(matches!(
            mw.run_for(SimDuration::from_secs(1), SimDuration::ZERO),
            Err(CoreError::BadArguments { .. })
        ));
        assert_eq!(mw.steps_run(), 0);
        assert_eq!(mw.now(), SimTime::ZERO);
    }

    #[test]
    fn provider_requires_available_kind() {
        let mw = Middleware::new();
        assert!(matches!(
            mw.location_provider(Criteria::new().kind(kinds::POSITION_WGS84)),
            Err(CoreError::NoMatchingProvider(_))
        ));
        // Criteria with no kinds always succeeds.
        assert!(mw.location_provider(Criteria::new()).is_ok());
    }

    #[test]
    fn produce_features_transform_data() {
        let mut mw = Middleware::new();
        let src = position_source(&mut mw, "gps", 56.0, 10.0);
        mw.attach_feature(
            src,
            TagFeature::new("SourceTag", "source", Value::from("gps")),
        )
        .unwrap();
        let app = mw.application_sink();
        mw.connect(src, app, 0).unwrap();
        mw.run_for(SimDuration::from_millis(100), SimDuration::from_millis(100))
            .unwrap();
        let provider = mw.location_provider(Criteria::new().source("gps")).unwrap();
        assert!(provider.last_item().is_some());
    }

    #[test]
    fn consume_features_can_drop() {
        struct DropAll;
        impl ComponentFeature for DropAll {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("DropAll")
            }
            fn on_consume(
                &mut self,
                _item: DataItem,
                _host: &mut FeatureHost<'_>,
            ) -> Result<FeatureAction, CoreError> {
                Ok(FeatureAction::Drop)
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut mw = Middleware::new();
        let src = position_source(&mut mw, "gps", 56.0, 10.0);
        let app = mw.application_sink();
        mw.attach_feature(app, DropAll).unwrap();
        mw.connect(src, app, 0).unwrap();
        mw.run_for(SimDuration::from_secs(1), SimDuration::from_millis(100))
            .unwrap();
        let provider = mw.location_provider(Criteria::new()).unwrap();
        assert_eq!(provider.delivered_count(), 0);
    }

    #[test]
    fn feature_cannot_change_kind() {
        struct KindChanger;
        impl ComponentFeature for KindChanger {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("KindChanger")
            }
            fn on_produce(
                &mut self,
                mut item: DataItem,
                _host: &mut FeatureHost<'_>,
            ) -> Result<FeatureAction, CoreError> {
                item.kind = kinds::RAW_STRING;
                Ok(FeatureAction::Continue(item))
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut mw = Middleware::new();
        let src = position_source(&mut mw, "gps", 56.0, 10.0);
        mw.attach_feature(src, KindChanger).unwrap();
        let app = mw.application_sink();
        mw.connect(src, app, 0).unwrap();
        assert!(matches!(mw.step(), Err(CoreError::ComponentFailure { .. })));
    }

    #[test]
    fn feature_added_data_reaches_accepting_ports() {
        // A feature on the source adds room-id items; the sink accepts
        // anything, so both kinds arrive.
        struct RoomAdder;
        impl ComponentFeature for RoomAdder {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("RoomAdder").adds(kinds::POSITION_ROOM)
            }
            fn on_produce(
                &mut self,
                item: DataItem,
                host: &mut FeatureHost<'_>,
            ) -> Result<FeatureAction, CoreError> {
                host.emit_value(kinds::POSITION_ROOM, Value::from("R1"));
                Ok(FeatureAction::Continue(item))
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut mw = Middleware::new();
        let src = position_source(&mut mw, "gps", 56.0, 10.0);
        mw.attach_feature(src, RoomAdder).unwrap();
        let app = mw.application_sink();
        mw.connect(src, app, 0).unwrap();
        mw.step().unwrap();
        let rooms = mw
            .location_provider(Criteria::new().kind(kinds::POSITION_ROOM))
            .unwrap();
        assert_eq!(rooms.last_item().unwrap().payload.as_text(), Some("R1"));
    }

    #[test]
    fn multi_stage_pipeline_and_channels() {
        let mut mw = Middleware::new();
        let src = mw.add_component(FnSource::new("gps", kinds::RAW_STRING, |_| {
            Some(Value::from("$GPGGA"))
        }));
        let parser = mw.add_component(FnProcessor::new(
            "parser",
            vec![kinds::RAW_STRING],
            kinds::NMEA_SENTENCE,
            |i| Some(i.payload.clone()),
        ));
        let app = mw.application_sink();
        mw.connect(src, parser, 0).unwrap();
        mw.connect(parser, app, 0).unwrap();
        let chans = mw.channels();
        assert_eq!(chans.len(), 1);
        assert_eq!(chans[0].member_names, vec!["gps", "parser"]);
        assert_eq!(chans[0].endpoint, Some((app, 0)));
        mw.step().unwrap();
        let p = mw.location_provider(Criteria::new()).unwrap();
        assert_eq!(p.last_item().unwrap().kind, kinds::NMEA_SENTENCE);
    }

    #[test]
    fn channel_feature_sees_trees() {
        struct TreeCounter {
            trees: usize,
            elements: usize,
        }
        impl ChannelFeature for TreeCounter {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("TreeCounter")
            }
            fn apply(
                &mut self,
                tree: &crate::channel::DataTree,
                _host: &mut crate::channel::ChannelHost<'_>,
            ) -> Result<(), CoreError> {
                self.trees += 1;
                self.elements += tree.len();
                Ok(())
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut mw = Middleware::new();
        let src = mw.add_component(FnSource::new("gps", kinds::RAW_STRING, |_| {
            Some(Value::from("raw"))
        }));
        let parser = mw.add_component(FnProcessor::new(
            "parser",
            vec![kinds::RAW_STRING],
            kinds::NMEA_SENTENCE,
            |i| Some(i.payload.clone()),
        ));
        let app = mw.application_sink();
        mw.connect(src, parser, 0).unwrap();
        mw.connect(parser, app, 0).unwrap();
        let channel = mw.channel_into(app, 0).unwrap();
        mw.attach_channel_feature(
            channel,
            TreeCounter {
                trees: 0,
                elements: 0,
            },
        )
        .unwrap();
        mw.run_for(SimDuration::from_millis(300), SimDuration::from_millis(100))
            .unwrap();
        let (trees, elements) = mw
            .with_channel_feature_mut::<TreeCounter, (usize, usize)>(channel, "TreeCounter", |f| {
                (f.trees, f.elements)
            })
            .unwrap();
        assert_eq!(trees, 3);
        assert_eq!(elements, 6); // each tree: 1 nmea + 1 raw string
    }

    #[test]
    fn mid_run_channel_feature_attachment_preserves_logical_time() {
        struct Ranges(Vec<u64>);
        impl ChannelFeature for Ranges {
            fn descriptor(&self) -> crate::feature::FeatureDescriptor {
                crate::feature::FeatureDescriptor::new("Ranges")
            }
            fn apply(
                &mut self,
                tree: &crate::channel::DataTree,
                _h: &mut crate::channel::ChannelHost<'_>,
            ) -> Result<(), CoreError> {
                self.0.push(tree.root.logical);
                Ok(())
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut mw = Middleware::new();
        let src = mw.add_component(FnSource::new("src", kinds::RAW_STRING, |_| {
            Some(Value::Int(1))
        }));
        let stage = mw.add_component(FnProcessor::new(
            "stage",
            vec![kinds::RAW_STRING],
            kinds::RAW_STRING,
            |i| Some(i.payload.clone()),
        ));
        let app = mw.application_sink();
        mw.connect(src, stage, 0).unwrap();
        mw.connect(stage, app, 0).unwrap();
        // Run 3 steps before attaching: logical time advances unseen.
        for _ in 0..3 {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(10));
        }
        let channel = mw.channel_into(app, 0).unwrap();
        mw.attach_channel_feature(channel, Ranges(Vec::new()))
            .unwrap();
        for _ in 0..2 {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(10));
        }
        let logicals = mw
            .with_channel_feature_mut::<Ranges, Vec<u64>>(channel, "Ranges", |r| r.0.clone())
            .unwrap();
        // Attaching a feature does not reset the channel's logical clock:
        // the first observed outputs are #4 and #5.
        assert_eq!(logicals, vec![4, 5]);
    }

    #[test]
    fn runtime_insertion_takes_effect() {
        let mut mw = Middleware::new();
        let mut counter = 0;
        let src = mw.add_component(FnSource::new("s", kinds::RAW_STRING, move |_| {
            counter += 1;
            Some(Value::Int(counter))
        }));
        let app = mw.application_sink();
        mw.connect(src, app, 0).unwrap();
        mw.step().unwrap();

        // Insert a filter dropping odd numbers mid-flight.
        let filter = mw.add_component(FnProcessor::new(
            "even-only",
            vec![kinds::RAW_STRING],
            kinds::RAW_STRING,
            |i| match i.payload.as_i64() {
                Some(v) if v % 2 == 0 => Some(i.payload.clone()),
                _ => None,
            },
        ));
        mw.insert_between(filter, src, app, 0).unwrap();
        for _ in 0..4 {
            mw.clock.advance(SimDuration::from_millis(100));
            mw.step().unwrap();
        }
        let p = mw.location_provider(Criteria::new()).unwrap();
        let values: Vec<i64> = p
            .history()
            .iter()
            .filter_map(|i| i.payload.as_i64())
            .collect();
        assert_eq!(values, vec![1, 2, 4], "1 pre-insertion, then evens only");
    }

    #[test]
    fn targets_have_independent_sinks() {
        let mut mw = Middleware::new();
        let t1 = mw.add_target("alice");
        let t2 = mw.add_target("bob");
        let s1 = position_source(&mut mw, "gps-alice", 10.0, 10.0);
        let s2 = position_source(&mut mw, "gps-bob", 20.0, 20.0);
        mw.connect(s1, t1.node(), 0).unwrap();
        mw.connect(s2, t2.node(), 0).unwrap();
        mw.step().unwrap();
        let p1 = t1.provider(Criteria::new());
        let p2 = t2.provider(Criteria::new());
        assert_eq!(p1.last_position().unwrap().coord().lat_deg(), 10.0);
        assert_eq!(p2.last_position().unwrap().coord().lat_deg(), 20.0);
        assert_eq!(mw.targets().len(), 2);
    }

    #[test]
    fn removing_a_target_node_drops_the_target() {
        let mut mw = Middleware::new();
        let alice = mw.add_target("alice");
        let bob = mw.add_target("bob");
        let s1 = position_source(&mut mw, "gps-alice", 10.0, 10.0);
        let s2 = position_source(&mut mw, "gps-bob", 20.0, 20.0);
        mw.connect(s1, alice.node(), 0).unwrap();
        mw.connect(s2, bob.node(), 0).unwrap();
        mw.step().unwrap();
        mw.remove_component(alice.node()).unwrap();
        assert!(mw.structure().iter().all(|n| n.id != alice.node()));
        let names: Vec<&str> = mw.targets().iter().map(Target::name).collect();
        assert_eq!(names, ["bob"]);
        let nearest = mw.k_nearest_targets(&wgs(10.0, 10.0), 5);
        assert_eq!(nearest.len(), 1);
        assert_eq!(nearest[0].0, "bob");
    }

    #[test]
    fn merge_component_heads_its_own_channel() {
        // Two sources into a merge, merge into the app: the PCL must
        // derive three channels — one per source ending at the merge, and
        // one headed at the merge ending at the app (paper Fig. 2).
        struct Merge;
        impl Component for Merge {
            fn descriptor(&self) -> crate::component::ComponentDescriptor {
                crate::component::ComponentDescriptor::merge(
                    "fusion",
                    vec![
                        crate::component::InputSpec::new("a", vec![]),
                        crate::component::InputSpec::new("b", vec![]),
                    ],
                    vec![kinds::POSITION_WGS84],
                )
            }
            fn on_input(
                &mut self,
                _p: usize,
                item: DataItem,
                ctx: &mut ComponentCtx<'_>,
            ) -> Result<(), CoreError> {
                ctx.emit(DataItem::new(
                    kinds::POSITION_WGS84,
                    ctx.now(),
                    item.payload,
                ));
                Ok(())
            }
        }
        let mut mw = Middleware::new();
        let s1 = position_source(&mut mw, "gps", 10.0, 10.0);
        let s2 = position_source(&mut mw, "wifi", 11.0, 11.0);
        let merge = mw.add_component(Merge);
        let app = mw.application_sink();
        mw.connect(s1, merge, 0).unwrap();
        mw.connect(s2, merge, 1).unwrap();
        mw.connect(merge, app, 0).unwrap();

        let channels = mw.channels();
        assert_eq!(channels.len(), 3);
        let by_head: std::collections::BTreeMap<String, &crate::channel::ChannelInfo> = channels
            .iter()
            .map(|c| (c.member_names[0].clone(), c))
            .collect();
        assert_eq!(by_head["gps"].endpoint, Some((merge, 0)));
        assert_eq!(by_head["wifi"].endpoint, Some((merge, 1)));
        assert_eq!(by_head["fusion"].endpoint, Some((app, 0)));

        // Trees flow on all three channels.
        struct Count(usize);
        impl ChannelFeature for Count {
            fn descriptor(&self) -> crate::feature::FeatureDescriptor {
                crate::feature::FeatureDescriptor::new("Count")
            }
            fn apply(
                &mut self,
                _t: &crate::channel::DataTree,
                _h: &mut crate::channel::ChannelHost<'_>,
            ) -> Result<(), CoreError> {
                self.0 += 1;
                Ok(())
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let merge_channel = mw.channel_into(app, 0).unwrap();
        assert_eq!(merge_channel.head(), merge);
        mw.attach_channel_feature(merge_channel, Count(0)).unwrap();
        mw.step().unwrap();
        let n = mw
            .with_channel_feature_mut::<Count, usize>(merge_channel, "Count", |c| c.0)
            .unwrap();
        // Each source delivers one item; the merge emits per input.
        assert_eq!(n, 2);
        // The merge channel's trees are rooted at the merge output.
        let p = mw.location_provider(Criteria::new()).unwrap();
        assert_eq!(p.delivered_count(), 2);
    }

    #[test]
    fn k_nearest_targets_orders_by_distance() {
        let mut mw = Middleware::new();
        let near = mw.add_target("near");
        let far = mw.add_target("far");
        let silent = mw.add_target("silent");
        let s1 = position_source(&mut mw, "gps-near", 10.0, 10.0);
        let s2 = position_source(&mut mw, "gps-far", 20.0, 20.0);
        mw.connect(s1, near.node(), 0).unwrap();
        mw.connect(s2, far.node(), 0).unwrap();
        mw.step().unwrap();
        let from = wgs(10.0, 10.0);
        let nearest = mw.k_nearest_targets(&from, 5);
        // "silent" never reported and is skipped.
        assert_eq!(nearest.len(), 2);
        assert_eq!(nearest[0].0, "near");
        assert_eq!(nearest[1].0, "far");
        assert!(nearest[0].2 < nearest[1].2);
        // k truncates.
        assert_eq!(mw.k_nearest_targets(&from, 1).len(), 1);
        let _ = silent;
    }

    /// A source failing on ticks where `fail(counter)` is true, emitting
    /// a raw string otherwise; `on_reset` clears the counter.
    struct Flaky<F: Fn(u64) -> bool + Send> {
        counter: u64,
        resets: u64,
        fail: F,
    }
    impl<F: Fn(u64) -> bool + Send> Flaky<F> {
        fn new(fail: F) -> Self {
            Flaky {
                counter: 0,
                resets: 0,
                fail,
            }
        }
    }
    impl<F: Fn(u64) -> bool + Send> Component for Flaky<F> {
        fn descriptor(&self) -> crate::component::ComponentDescriptor {
            crate::component::ComponentDescriptor::source("flaky", vec![kinds::RAW_STRING])
        }
        fn on_input(
            &mut self,
            _p: usize,
            _i: DataItem,
            _c: &mut ComponentCtx<'_>,
        ) -> Result<(), CoreError> {
            Ok(())
        }
        fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
            self.counter += 1;
            if (self.fail)(self.counter) {
                return Err(CoreError::ComponentFailure {
                    component: "flaky".into(),
                    reason: "simulated fault".into(),
                });
            }
            ctx.emit_value(kinds::RAW_STRING, Value::from("ok"));
            Ok(())
        }
        fn invoke(&mut self, method: &str, _args: &[Value]) -> Result<Value, CoreError> {
            match method {
                "resets" => Ok(Value::Int(self.resets as i64)),
                m => Err(CoreError::NoSuchMethod {
                    target: "flaky".into(),
                    method: m.into(),
                }),
            }
        }
        fn on_reset(&mut self) {
            self.counter = 0;
            self.resets += 1;
        }
    }

    fn run_steps(mw: &mut Middleware, n: usize) {
        for _ in 0..n {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_secs(1));
        }
    }

    #[test]
    fn drop_item_policy_contains_errors() {
        let mut mw = Middleware::new();
        let flaky = mw.add_component(Flaky::new(|c| c % 2 == 0));
        let app = mw.application_sink();
        mw.connect(flaky, app, 0).unwrap();
        mw.set_fault_policy(flaky, FaultPolicy::DropItem).unwrap();
        run_steps(&mut mw, 10);
        let p = mw.location_provider(Criteria::new()).unwrap();
        assert_eq!(p.delivered_count(), 5, "odd ticks still deliver");
        let h = mw.node_health(flaky);
        assert_eq!(h.faults, 5);
        assert_eq!(h.status, crate::supervision::HealthStatus::Degraded);
        assert!(h.last_error.as_deref().unwrap().contains("simulated fault"));
    }

    #[test]
    fn restart_policy_resets_the_component() {
        let mut mw = Middleware::new();
        // Fails every third call; a reset restarts the count, so under
        // the Restart policy the component keeps coming back.
        let flaky = mw.add_component(Flaky::new(|c| c == 3));
        let app = mw.application_sink();
        mw.connect(flaky, app, 0).unwrap();
        mw.set_fault_policy(flaky, FaultPolicy::Restart).unwrap();
        run_steps(&mut mw, 9);
        assert_eq!(mw.invoke(flaky, "resets", &[]).unwrap(), Value::Int(3));
        let h = mw.node_health(flaky);
        assert_eq!(h.faults, 3);
        assert_eq!(h.restarts, 3);
        let p = mw.location_provider(Criteria::new()).unwrap();
        assert_eq!(p.delivered_count(), 6);
    }

    #[test]
    fn panic_is_contained_as_fault() {
        struct Panics;
        impl Component for Panics {
            fn descriptor(&self) -> crate::component::ComponentDescriptor {
                crate::component::ComponentDescriptor::source("panicky", vec![kinds::RAW_STRING])
            }
            fn on_input(
                &mut self,
                _p: usize,
                _i: DataItem,
                _c: &mut ComponentCtx<'_>,
            ) -> Result<(), CoreError> {
                Ok(())
            }
            fn on_tick(&mut self, _ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
                panic!("boom in on_tick");
            }
        }
        let mut mw = Middleware::new();
        let p = mw.add_component(Panics);
        mw.set_fault_policy(p, FaultPolicy::DropItem).unwrap();
        mw.step().unwrap();
        let h = mw.node_health(p);
        assert_eq!(h.faults, 1);
        assert!(h.last_error.as_deref().unwrap().contains("boom in on_tick"));
        // Without a policy the panic surfaces as an error.
        mw.set_fault_policy(p, FaultPolicy::Propagate).unwrap();
        let err = mw.step().unwrap_err();
        assert!(matches!(err, CoreError::ComponentFailure { .. }));
        assert!(err.to_string().contains("panic"));
    }

    #[test]
    fn quarantine_probe_and_reinstate() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let down = Arc::new(AtomicBool::new(true));
        let mut mw = Middleware::new();
        let src = mw.add_component(TechSource {
            name: "gps".into(),
            lat: 1.0,
            failing: Arc::clone(&down),
        });
        let app = mw.application_sink();
        mw.connect(src, app, 0).unwrap();
        mw.set_fault_policy(
            src,
            FaultPolicy::Quarantine {
                max_faults: 2,
                window: SimDuration::from_secs(10),
                backoff: SimDuration::from_secs(3),
            },
        )
        .unwrap();
        // t=0 fault 1, t=1 fault 2 -> breaker opens until t=4.
        run_steps(&mut mw, 2);
        assert_eq!(
            mw.node_health(src).status,
            crate::supervision::HealthStatus::Quarantined
        );
        // t=2, t=3: skipped — the open breaker stops all calls.
        run_steps(&mut mw, 2);
        assert_eq!(mw.node_health(src).faults, 2);
        // t=4: probe while still down -> breaker reopens, backoff
        // doubled to 6 s (until t=10).
        run_steps(&mut mw, 1);
        let h = mw.node_health(src);
        assert_eq!(h.status, crate::supervision::HealthStatus::Quarantined);
        assert_eq!(h.quarantines, 2);
        assert_eq!(h.faults, 3);
        // t=5..=9: skipped. The sensor comes back before the next probe.
        run_steps(&mut mw, 5);
        down.store(false, Ordering::Relaxed);
        // t=10: probe succeeds -> reinstated, flow resumes.
        run_steps(&mut mw, 1);
        assert_eq!(
            mw.node_health(src).status,
            crate::supervision::HealthStatus::Healthy
        );
        let p = mw.location_provider(Criteria::new()).unwrap();
        assert_eq!(p.delivered_count(), 1, "probe output was delivered");
        run_steps(&mut mw, 3);
        assert_eq!(p.delivered_count(), 4, "flow fully restored");
    }

    #[test]
    fn invoke_dispatches_like_a_channel_feature_sees_it() {
        // A component with its own `health` method: the facade answers
        // it exactly as `ChannelHost::invoke_node` does — no name is
        // shadowed by supervisor state.
        struct OwnHealth;
        impl Component for OwnHealth {
            fn descriptor(&self) -> crate::component::ComponentDescriptor {
                crate::component::ComponentDescriptor::source("own", vec![kinds::RAW_STRING])
            }
            fn on_input(
                &mut self,
                _p: usize,
                _i: DataItem,
                _c: &mut ComponentCtx<'_>,
            ) -> Result<(), CoreError> {
                Ok(())
            }
            fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
                ctx.emit_value(kinds::RAW_STRING, Value::from("x"));
                Ok(())
            }
            fn invoke(&mut self, method: &str, _args: &[Value]) -> Result<Value, CoreError> {
                match method {
                    "health" => Ok(Value::from("own health")),
                    m => Err(CoreError::NoSuchMethod {
                        target: "own".into(),
                        method: m.into(),
                    }),
                }
            }
        }
        struct Asker(NodeId, Option<Value>);
        impl ChannelFeature for Asker {
            fn descriptor(&self) -> FeatureDescriptor {
                FeatureDescriptor::new("Asker")
            }
            fn apply(
                &mut self,
                _tree: &crate::channel::DataTree,
                host: &mut crate::channel::ChannelHost<'_>,
            ) -> Result<(), CoreError> {
                self.1 = Some(host.invoke_node(self.0, "health", &[])?);
                Ok(())
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut mw = Middleware::new();
        let own = mw.add_component(OwnHealth);
        let app = mw.application_sink();
        mw.connect(own, app, 0).unwrap();
        let channel = mw.channel_into(app, 0).unwrap();
        mw.attach_channel_feature(channel, Asker(own, None))
            .unwrap();
        mw.step().unwrap();
        let seen = mw
            .with_channel_feature_mut::<Asker, _>(channel, "Asker", |a| a.1.clone())
            .unwrap();
        let answered = mw.invoke(own, "health", &[]).unwrap();
        assert_eq!(answered, Value::from("own health"));
        assert_eq!(seen, Some(answered));
        // Unknown nodes still error.
        mw.remove_component(own).unwrap();
        assert!(matches!(
            mw.invoke(own, "health", &[]),
            Err(CoreError::UnknownNode(_))
        ));
    }

    #[test]
    fn channel_health_reflects_worst_member() {
        let mut mw = Middleware::new();
        let flaky = mw.add_component(Flaky::new(|_| true));
        let app = mw.application_sink();
        mw.connect(flaky, app, 0).unwrap();
        mw.set_fault_policy(
            flaky,
            FaultPolicy::Quarantine {
                max_faults: 1,
                window: SimDuration::from_secs(10),
                backoff: SimDuration::from_secs(60),
            },
        )
        .unwrap();
        assert_eq!(
            mw.channels()[0].health,
            crate::supervision::HealthStatus::Healthy
        );
        mw.step().unwrap();
        assert_eq!(
            mw.channels()[0].health,
            crate::supervision::HealthStatus::Quarantined
        );
    }

    /// A position source for one technology: emits items tagged with a
    /// `source` attribute, and fails while its shared flag is raised.
    struct TechSource {
        name: String,
        lat: f64,
        failing: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }
    impl Component for TechSource {
        fn descriptor(&self) -> crate::component::ComponentDescriptor {
            crate::component::ComponentDescriptor::source(
                self.name.clone(),
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
        fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
            if self.failing.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(CoreError::ComponentFailure {
                    component: self.name.clone(),
                    reason: "sensor offline".into(),
                });
            }
            let item = DataItem::new(
                kinds::POSITION_WGS84,
                ctx.now(),
                Value::from(Position::new(wgs(self.lat, 10.0), Some(5.0))),
            )
            .with_attr("source", Value::from(self.name.as_str()));
            ctx.emit(item);
            Ok(())
        }
    }

    #[test]
    fn failover_provider_degrades_and_recovers() {
        use crate::positioning::ProviderEvent;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let gps_down = Arc::new(AtomicBool::new(false));
        let mut mw = Middleware::new();
        let gps = mw.add_component(TechSource {
            name: "gps".into(),
            lat: 1.0,
            failing: Arc::clone(&gps_down),
        });
        let wifi = mw.add_component(TechSource {
            name: "wifi".into(),
            lat: 2.0,
            failing: Arc::new(AtomicBool::new(false)),
        });
        let app = mw.application_sink();
        mw.connect(gps, app, 0).unwrap();
        mw.connect(wifi, app, 1).unwrap();
        mw.set_fault_policy(
            gps,
            FaultPolicy::Quarantine {
                max_faults: 1,
                window: SimDuration::from_secs(10),
                backoff: SimDuration::from_secs(5),
            },
        )
        .unwrap();
        let fp = mw
            .failover_provider(vec![
                Criteria::new().source("gps"),
                Criteria::new().source("wifi"),
            ])
            .unwrap();
        let events = fp.events();
        assert_eq!(fp.active(), Some(0));
        assert!(!fp.is_degraded());

        run_steps(&mut mw, 2);
        assert_eq!(fp.last_position().unwrap().coord().lat_deg(), 1.0);

        // GPS dies: the quarantine opens on the next step and the
        // provider fails over to WiFi.
        gps_down.store(true, Ordering::Relaxed);
        run_steps(&mut mw, 1);
        assert_eq!(fp.active(), Some(1));
        assert!(fp.is_degraded());
        assert_eq!(fp.last_position().unwrap().coord().lat_deg(), 2.0);
        assert!(matches!(
            events.try_recv().unwrap(),
            ProviderEvent::Degraded {
                from: 0,
                to: Some(1),
                ..
            }
        ));

        // Ride out the backoff quarantined, then the sensor comes back:
        // the probe succeeds and the provider recovers to GPS.
        run_steps(&mut mw, 4);
        assert_eq!(fp.active(), Some(1), "still on wifi during backoff");
        gps_down.store(false, Ordering::Relaxed);
        run_steps(&mut mw, 2);
        assert_eq!(fp.active(), Some(0));
        assert!(!fp.is_degraded());
        assert!(matches!(
            events.try_recv().unwrap(),
            ProviderEvent::Recovered {
                from: Some(1),
                to: 0,
                ..
            }
        ));
        assert_eq!(fp.last_position().unwrap().coord().lat_deg(), 1.0);
        // Failover never lost the surface: a position was available from
        // the surviving pipeline the whole time.
        assert_eq!(fp.availability(), vec![true, true]);
    }

    #[test]
    fn failover_provider_rejects_empty_preferences() {
        let mut mw = Middleware::new();
        assert!(matches!(
            mw.failover_provider(vec![]),
            Err(CoreError::BadArguments { .. })
        ));
    }

    #[test]
    fn error_in_component_aborts_step() {
        struct Failing;
        impl Component for Failing {
            fn descriptor(&self) -> crate::component::ComponentDescriptor {
                crate::component::ComponentDescriptor::source("failing", vec![kinds::RAW_STRING])
            }
            fn on_input(
                &mut self,
                _p: usize,
                _i: DataItem,
                _c: &mut ComponentCtx<'_>,
            ) -> Result<(), CoreError> {
                Ok(())
            }
            fn on_tick(&mut self, _ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
                Err(CoreError::ComponentFailure {
                    component: "failing".into(),
                    reason: "simulated fault".into(),
                })
            }
        }
        let mut mw = Middleware::new();
        mw.add_component(Failing);
        assert!(matches!(mw.step(), Err(CoreError::ComponentFailure { .. })));
    }
}
