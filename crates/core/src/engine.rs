//! The engine loop: how [`Middleware`](crate::Middleware) moves data
//! from sensors to applications.
//!
//! Every entry point — [`Middleware::step`](crate::Middleware::step),
//! `step_batch`, `ingest_batch` and `run_for` — runs
//! [`EngineCtx::run`]. One step is:
//!
//! 1. the prelude: deliver due remote messages and route out-of-band
//!    reflective emissions;
//! 2. the source phase: tick every live source in id order, or — for
//!    block ingest — emit the step's line at the ingest source;
//! 3. one strictly FIFO drain of the run queue, one node at a time,
//!    under a single panic fence;
//! 4. mark the step complete, re-resolve every failover provider
//!    against pipeline health at the step's time, and advance `now` by
//!    the tick.
//!
//! Per-node processing order and routing order are therefore fixed by
//! the trace alone. A process graph is small (the paper's largest has
//! about ten nodes, each doing microseconds of work), so parallelism
//! lives one level up, across instances in the fleet scheduler
//! ([`crate::fleet::FleetScheduler`]), never inside one step.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::channel::ChannelLayer;
use crate::component::ComponentCtx;
use crate::data::{DataItem, DataKind, PayloadArena, Value};
use crate::distribution::Deployment;
use crate::feature::{FeatureAction, FeatureHost};
use crate::graph::{Node, NodeId, ProcessingGraph};
use crate::positioning::FailoverShared;
use crate::supervision::{FaultAction, HealthRegistry};
use crate::{CoreError, SimDuration, SimTime};

/// Everything one engine step may touch, borrowed from the
/// [`Middleware`](crate::Middleware) for the duration of one
/// [`EngineCtx::run`] call.
pub(crate) struct EngineCtx<'a> {
    graph: &'a mut ProcessingGraph,
    channels: &'a mut ChannelLayer,
    health: &'a mut HealthRegistry,
    deployment: Option<&'a mut Deployment>,
    /// Failover providers, re-resolved after every completed step.
    failovers: &'a [Arc<FailoverShared>],
    /// The current step's time; advanced by the tick after every
    /// completed step.
    pub(crate) now: SimTime,
    /// The shard's payload recycler, which owned-value emissions and
    /// ingested lines are interned into.
    arena: &'a mut PayloadArena,
}

/// A queue entry: deliver `item` to input `port` of node.
type Entry = (NodeId, usize, DataItem);

/// FIFO entry queue with an inline head slot. In a linear pipeline the
/// queue never holds more than one in-flight entry, so the common case
/// stays out of the ring buffer entirely: no growth check, no index
/// arithmetic, no heap allocation — one `Option` on the stack. Order is
/// exactly FIFO: the slot is filled only when it is free *and* the ring
/// is empty (so everything in `rest` is younger than `head`), and pops
/// always drain the slot first.
#[derive(Default)]
struct RunQueue {
    head: Option<Entry>,
    rest: VecDeque<Entry>,
}

impl RunQueue {
    #[inline]
    fn push_back(&mut self, entry: Entry) {
        if self.head.is_none() && self.rest.is_empty() {
            self.head = Some(entry);
        } else {
            self.rest.push_back(entry);
        }
    }

    #[inline]
    fn pop_front(&mut self) -> Option<Entry> {
        match self.head.take() {
            Some(e) => Some(e),
            None => self.rest.pop_front(),
        }
    }
}

// ---------------------------------------------------------------------
// Per-node units of work
// ---------------------------------------------------------------------

/// Runs the consume-direction features of a node over an incoming item.
/// Returns the (possibly replaced) item and any data the features added.
fn consume_features(
    node: &mut Node,
    item: DataItem,
    now: SimTime,
) -> Result<(Option<DataItem>, Vec<DataItem>), CoreError> {
    let component = &mut node.component;
    let features = &mut node.features;
    let mut extras = Vec::new();
    let mut current = Some(item);
    for slot in features.iter_mut() {
        let mut host = FeatureHost::new(component.as_mut(), now);
        if let Some(it) = current.take() {
            let kind_before = it.kind.clone();
            match slot.feature.on_consume(it, &mut host)? {
                FeatureAction::Continue(out) => {
                    if out.kind != kind_before {
                        return Err(CoreError::ComponentFailure {
                            component: slot.descriptor.name.clone(),
                            reason: format!(
                                "feature changed item kind {kind_before} -> {}; features cannot change the data type (paper §2.1)",
                                out.kind
                            ),
                        });
                    }
                    current = Some(out);
                }
                FeatureAction::Drop => current = None,
            }
        }
        extras.extend(host.take_emitted());
    }
    Ok((current, extras))
}

/// Runs the produce-direction features over an item the node emitted,
/// pushing the surviving item (first) plus feature-added data onto
/// `out`, in routing order. Featureless nodes — the common case — pass
/// the item straight through with no intermediate collection.
fn produce_features(
    node: &mut Node,
    item: DataItem,
    now: SimTime,
    out: &mut Vec<DataItem>,
) -> Result<(), CoreError> {
    if node.features.is_empty() {
        out.push(item);
        return Ok(());
    }
    let component = &mut node.component;
    let features = &mut node.features;
    let insert_at = out.len();
    let mut current = Some(item);
    for slot in features.iter_mut() {
        let mut host = FeatureHost::new(component.as_mut(), now);
        if let Some(it) = current.take() {
            let kind_before = it.kind.clone();
            match slot.feature.on_produce(it, &mut host)? {
                FeatureAction::Continue(next) => {
                    if next.kind != kind_before {
                        return Err(CoreError::ComponentFailure {
                            component: slot.descriptor.name.clone(),
                            reason: format!(
                                "feature changed item kind {kind_before} -> {}; features cannot change the data type (paper §2.1)",
                                next.kind
                            ),
                        });
                    }
                    current = Some(next);
                }
                FeatureAction::Drop => current = None,
            }
        }
        out.extend(host.take_emitted());
    }
    if let Some(it) = current {
        // The survivor routes before the feature-added extras.
        out.insert(insert_at, it);
    }
    Ok(())
}

/// The node-local part of a source tick: `on_tick`, then the produce
/// features over every emission. Items ready for routing are pushed to
/// `out` incrementally, so on a mid-way fault `out` holds exactly what
/// the unit finished before the fault hit.
fn tick_unit(
    node: &mut Node,
    now: SimTime,
    out: &mut Vec<DataItem>,
    emit: &mut Vec<DataItem>,
    arena: &mut PayloadArena,
) -> Result<(), CoreError> {
    // Featureless nodes — the common case — emit straight into the
    // routing buffer: no per-emission feature pass, no second move.
    if node.features.is_empty() {
        let mut ctx = ComponentCtx::with_buffer(now, std::mem::take(out), arena);
        let r = node.component.on_tick(&mut ctx);
        let mut buf = ctx.take_emitted();
        if r.is_err() {
            // A failing tick routes nothing, same as the feature path
            // where `emitted` dies with the context.
            buf.clear();
        }
        *out = buf;
        return r;
    }
    let mut ctx = ComponentCtx::with_buffer(now, std::mem::take(emit), arena);
    node.component.on_tick(&mut ctx)?;
    let mut emitted = ctx.take_emitted();
    for item in emitted.drain(..) {
        produce_features(node, item, now, out)?;
    }
    *emit = emitted;
    Ok(())
}

/// The node-local part of one item delivery: consume features,
/// `on_input`, produce features over every emission. Push order into
/// `out` (extras first, then per-emission outputs) is the routing
/// order.
fn input_unit(
    node: &mut Node,
    port: usize,
    item: DataItem,
    now: SimTime,
    out: &mut Vec<DataItem>,
    emit: &mut Vec<DataItem>,
    arena: &mut PayloadArena,
) -> Result<(), CoreError> {
    // Featureless fast path, mirroring `tick_unit`: deliver and emit
    // straight into the routing buffer.
    if node.features.is_empty() {
        let mut ctx = ComponentCtx::with_buffer(now, std::mem::take(out), arena);
        let r = node.component.on_input(port, item, &mut ctx);
        let mut buf = ctx.take_emitted();
        if r.is_err() {
            // A failing delivery routes nothing, matching the feature
            // path where `emitted` dies with the context.
            buf.clear();
        }
        *out = buf;
        return r;
    }
    let (passed, extras) = consume_features(node, item, now)?;
    out.extend(extras);
    let Some(item) = passed else { return Ok(()) };
    let mut ctx = ComponentCtx::with_buffer(now, std::mem::take(emit), arena);
    node.component.on_input(port, item, &mut ctx)?;
    let mut emitted = ctx.take_emitted();
    for item in emitted.drain(..) {
        produce_features(node, item, now, out)?;
    }
    *emit = emitted;
    Ok(())
}

/// Reusable buffers for the unit path. `out` collects a unit's routed
/// outputs; `emit` is loaned to [`ComponentCtx`] so component emissions
/// reuse one allocation across every unit of every step of a run.
#[derive(Default)]
struct Scratch {
    out: Vec<DataItem>,
    emit: Vec<DataItem>,
}

// ---------------------------------------------------------------------
// EngineCtx — the loop, routing and supervision bookkeeping
// ---------------------------------------------------------------------

impl EngineCtx<'_> {
    pub(crate) fn new<'a>(
        graph: &'a mut ProcessingGraph,
        channels: &'a mut ChannelLayer,
        health: &'a mut HealthRegistry,
        deployment: Option<&'a mut Deployment>,
        failovers: &'a [Arc<FailoverShared>],
        now: SimTime,
        arena: &'a mut PayloadArena,
    ) -> EngineCtx<'a> {
        EngineCtx {
            graph,
            channels,
            health,
            deployment,
            failovers,
            now,
            arena,
        }
    }

    /// Best-effort display name of a node.
    fn node_name(&self, id: NodeId) -> String {
        self.graph
            .node(id)
            .map(|n| n.descriptor.name.clone())
            .unwrap_or_else(|| format!("{id:?}"))
    }

    /// Channel bookkeeping plus downstream fan-out for one finished item.
    fn route_item(
        &mut self,
        id: NodeId,
        item: DataItem,
        queue: &mut RunQueue,
    ) -> Result<(), CoreError> {
        let now = self.now;
        if let Some(tree) = self.channels.record(id, &item) {
            // Channel Features are the only user code on the routing
            // path; the panic fence sits exactly here so the pure
            // bookkeeping around it stays fence-free.
            let EngineCtx {
                graph, channels, ..
            } = self;
            let caught = catch_unwind(AssertUnwindSafe(|| {
                channels.apply_features(graph, &tree, now)
            }));
            let emitted = match caught {
                Ok(r) => r?,
                Err(payload) => return Err(self.panic_fault(id, payload.as_ref())),
            };
            for (node, extra) in emitted {
                self.route_item(node, extra, queue)?;
            }
        }
        // Split the borrows so the downstream slice resolves once per
        // item while the deployment stays mutably reachable.
        let EngineCtx {
            graph, deployment, ..
        } = self;
        let downstream = graph.downstream(id);
        // Single-edge fast path — the overwhelmingly common shape in a
        // linear pipeline: one acceptance check, item moved. Without it,
        // a depth-4 block-ingest pipeline measured about 6 % slower per
        // item through the fan-out path below (2-core host, best of 16
        // passes, six alternating runs).
        if let [(target, port)] = *downstream {
            if graph.accepts(target, port, &item.kind) {
                match deployment.as_deref_mut() {
                    Some(d) if d.crosses_hosts(id, target) => {
                        d.send(now, id, target, port, item);
                    }
                    _ => queue.push_back((target, port, item)),
                }
            }
            return Ok(());
        }
        // Every accepting edge but the last gets a clone (cheap: payload
        // and attrs are Arc-shared); the last takes the item by move.
        let Some(last) = downstream
            .iter()
            .rposition(|&(t, p)| graph.accepts(t, p, &item.kind))
        else {
            return Ok(());
        };
        let mut send = |target: NodeId, port: usize, routed: DataItem| {
            // Cross-host edges go through the deployment's link model.
            match deployment.as_deref_mut() {
                Some(d) if d.crosses_hosts(id, target) => d.send(now, id, target, port, routed),
                _ => queue.push_back((target, port, routed)),
            }
        };
        for &(target, port) in &downstream[..last] {
            if graph.accepts(target, port, &item.kind) {
                send(target, port, item.clone());
            }
        }
        let (target, port) = downstream[last];
        send(target, port, item);
        Ok(())
    }

    /// Delivers due remote messages and routes out-of-band reflective
    /// emissions — the common step prelude.
    fn drain_prelude(
        &mut self,
        pending: Vec<(NodeId, DataItem)>,
        queue: &mut RunQueue,
    ) -> Result<(), CoreError> {
        let now = self.now;
        if let Some(dep) = self.deployment.as_deref_mut() {
            for (target, port, item) in dep.take_due(now) {
                if self.graph.contains(target) {
                    queue.push_back((target, port, item));
                }
            }
        }
        for (node, item) in pending {
            if self.graph.contains(node) {
                self.route_item(node, item, queue)?;
            }
        }
        Ok(())
    }

    /// Applies a contained fault to the node per its policy.
    fn resolve_fault(&mut self, id: NodeId, err: CoreError) -> Result<(), CoreError> {
        match self.health.on_fault(id, self.now, &err.to_string()) {
            FaultAction::Propagate => Err(err),
            FaultAction::Drop => Ok(()),
            FaultAction::Restart | FaultAction::Quarantine => {
                if let Some(node) = self.graph.node_mut(id) {
                    node.component.on_reset();
                }
                Ok(())
            }
        }
    }

    /// Routes what a unit produced and settles its supervision outcome.
    ///
    /// Routing happens even when the unit faulted mid-way: `out` holds
    /// exactly the items the unit finished before the fault hit. Routing errors — including Channel Feature panics,
    /// fenced inside [`route_item`](Self::route_item) — are attributed
    /// to the node like any other fault. `out` is drained, not consumed,
    /// so callers can reuse one buffer across units.
    fn finish_unit(
        &mut self,
        id: NodeId,
        unit: Result<(), CoreError>,
        out: &mut Vec<DataItem>,
        queue: &mut RunQueue,
    ) -> Result<(), CoreError> {
        let mut route = Ok(());
        for item in out.drain(..) {
            route = self.route_item(id, item, queue);
            if route.is_err() {
                // The drain guard discards what's left unrouted.
                break;
            }
        }
        let err = match (route, unit) {
            (Err(e), _) => Some(e),
            (Ok(()), Err(e)) => Some(e),
            (Ok(()), Ok(())) => None,
        };
        match err {
            Some(e) => self.resolve_fault(id, e),
            None => {
                self.health.record_success(id, self.now);
                Ok(())
            }
        }
    }

    /// A contained panic of `id`'s unit, as the fault it is recorded
    /// as. Panics carry a `&str` or `String` message in practice.
    fn panic_fault(&self, id: NodeId, payload: &(dyn std::any::Any + Send)) -> CoreError {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            s
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.as_str()
        } else {
            "opaque panic payload"
        };
        CoreError::ComponentFailure {
            component: self.node_name(id),
            reason: format!("panic: {message}"),
        }
    }

    /// The engine loop: runs up to `steps` steps back to back. After
    /// every completed step it re-resolves the failover providers at
    /// that step's time, then advances `now` by `tick`. `pending` is
    /// delivered on the first step only and left untouched when `steps`
    /// is 0.
    ///
    /// Returns how many steps completed, and the error that stopped the
    /// loop, if any. A failed step leaves `now` at its own time.
    /// [`Sources::Ingest`] with a source not in the graph fails before
    /// the first step with [`CoreError::UnknownNode`].
    pub(crate) fn run(
        &mut self,
        pending: &mut Vec<(NodeId, DataItem)>,
        sources: Sources<'_>,
        steps: u64,
        tick: SimDuration,
    ) -> (u64, Result<(), CoreError>) {
        // Hoisted across the whole run: the source list (structure cannot
        // change mid-run), the FIFO queue and the per-unit scratch. The
        // inner loop then allocates nothing of its own.
        let tick_sources = match sources {
            Sources::Tick => self.graph.sources(),
            Sources::Ingest { source, .. } if !self.graph.contains(source) => {
                return (0, Err(CoreError::UnknownNode(source)));
            }
            Sources::Ingest { .. } => Vec::new(),
        };
        let mut queue = RunQueue::default();
        let mut scratch = Scratch::default();
        for i in 0..steps {
            let step = self
                .drain_prelude(std::mem::take(pending), &mut queue)
                .and_then(|()| match sources {
                    Sources::Tick => self.tick_sources(&tick_sources, &mut queue, &mut scratch),
                    Sources::Ingest {
                        source,
                        kind,
                        lines,
                    } => self.inject(source, kind, lines[i as usize], &mut queue, &mut scratch),
                })
                .and_then(|()| self.drain(&mut queue, &mut scratch));
            if let Err(e) = step {
                return (i, Err(e));
            }
            if !self.failovers.is_empty() {
                let channels = self.channels.infos_with_health(self.health);
                for failover in self.failovers {
                    failover.resolve(&channels, self.now);
                }
            }
            self.now += tick;
        }
        (steps, Ok(()))
    }

    /// Ticks every source that is not quarantined, in id order, each
    /// under its own panic fence.
    fn tick_sources(
        &mut self,
        sources: &[NodeId],
        queue: &mut RunQueue,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        for &id in sources {
            if self.health.is_quarantined(id, self.now) {
                continue;
            }
            let unit = match self.graph.node_mut(id) {
                None => Err(CoreError::UnknownNode(id)),
                Some(node) => {
                    let now = self.now;
                    let arena = &mut *self.arena;
                    let Scratch { out, emit } = scratch;
                    let caught =
                        catch_unwind(AssertUnwindSafe(|| tick_unit(node, now, out, emit, arena)));
                    caught.unwrap_or_else(|payload| Err(self.panic_fault(id, payload.as_ref())))
                }
            };
            self.finish_unit(id, unit, &mut scratch.out, queue)?;
        }
        Ok(())
    }

    /// Block ingest's source phase: `source` emits `line` as a
    /// [`Value::Text`] item of `kind`, interned straight into the arena,
    /// instead of being ticked. A line offered while the source is
    /// quarantined is consumed and dropped, exactly as a quarantined
    /// source's tick is skipped.
    fn inject(
        &mut self,
        source: NodeId,
        kind: &DataKind,
        line: &str,
        queue: &mut RunQueue,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        if self.health.is_quarantined(source, self.now) {
            return Ok(());
        }
        // Build the item as if `source` emitted it this tick.
        let payload = self.arena.intern_with(|slot| match slot {
            // Reuse the recycled slot's String capacity.
            Value::Text(s) => {
                s.clear();
                s.push_str(line);
            }
            other => *other = Value::Text(line.to_string()),
        });
        let item = DataItem::new(kind.clone(), self.now, payload);
        // The unit for an injected emission is the produce-feature pass
        // alone (there is no on_tick); panics are contained and
        // attributed to the source like any tick fault. A featureless
        // source runs no user code here, so the panic fence is skipped.
        let unit = match self.graph.node_mut(source) {
            None => Err(CoreError::UnknownNode(source)),
            Some(node) if node.features.is_empty() => {
                scratch.out.push(item);
                Ok(())
            }
            Some(node) => {
                let now = self.now;
                let out = &mut scratch.out;
                let caught =
                    catch_unwind(AssertUnwindSafe(|| produce_features(node, item, now, out)));
                caught.unwrap_or_else(|payload| Err(self.panic_fault(source, payload.as_ref())))
            }
        };
        self.finish_unit(source, unit, &mut scratch.out, queue)
    }

    /// Drains the run queue to quiescence, strictly FIFO, one node at a
    /// time. Items addressed to a quarantined node are dropped: the
    /// breaker is open, nothing may excite the component.
    ///
    /// One panic fence covers the whole drain instead of one per unit:
    /// `current` names the node whose unit is in flight, so a caught
    /// unwind is attributed and settled exactly as a per-unit fence
    /// would settle it — the unit's partial emissions still route, the
    /// fault policy still applies, and the drain resumes.
    fn drain(&mut self, queue: &mut RunQueue, scratch: &mut Scratch) -> Result<(), CoreError> {
        let mut current = None;
        loop {
            let caught = catch_unwind(AssertUnwindSafe(|| -> Result<(), CoreError> {
                while let Some((node, port, item)) = queue.pop_front() {
                    if self.health.is_quarantined(node, self.now) {
                        continue;
                    }
                    current = Some(node);
                    let unit = match self.graph.node_mut(node) {
                        None => Err(CoreError::UnknownNode(node)),
                        Some(n) => input_unit(
                            n,
                            port,
                            item,
                            self.now,
                            &mut scratch.out,
                            &mut scratch.emit,
                            &mut *self.arena,
                        ),
                    };
                    self.finish_unit(node, unit, &mut scratch.out, queue)?;
                }
                Ok(())
            }));
            match caught {
                Ok(r) => return r,
                Err(payload) => {
                    let id = current.expect("only a unit in flight can unwind");
                    let err = self.panic_fault(id, payload.as_ref());
                    self.finish_unit(id, Err(err), &mut scratch.out, queue)?;
                }
            }
        }
    }
}

/// What the source phase of each step does.
#[derive(Clone, Copy)]
pub(crate) enum Sources<'l> {
    /// Tick every source that is not quarantined, in id order.
    Tick,
    /// Step `i` emits `lines[i]` at `source` as a [`Value::Text`] item
    /// of `kind`; nothing is ticked. Run with `steps == lines.len()`.
    Ingest {
        source: NodeId,
        kind: &'l DataKind,
        lines: &'l [&'l str],
    },
}
