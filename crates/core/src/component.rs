//! Processing Components — the nodes of the positioning process graph.
//!
//! A [`Component`] consumes data on input ports and produces data on its
//! single output port (paper §2.1). It declares its ports, the data kinds
//! they accept/provide, and any Component Features its inputs depend on in
//! a [`ComponentDescriptor`]; the graph validates connections against
//! those declarations.
//!
//! Components additionally expose a *designed reflection* surface: the
//! [`Component::invoke`] method dispatches named methods with dynamic
//! [`Value`] arguments, and [`Component::methods`] lists them. Component
//! Features use this to read, expose and manipulate component state
//! (paper §2.1 "Changing Component State").

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::data::{DataItem, DataKind, Payload, PayloadArena, Value};
use crate::{CoreError, SimTime};

/// The role a component plays in the process tree; determines how the PCL
/// abstracts it (paper §2.2: "data sources, components that merge data
/// sources, or the root node representing the application").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentRole {
    /// A leaf producing data (an actual sensor or an emulator).
    Source,
    /// An internal single-input processing step.
    Processor,
    /// A component merging several data sources (e.g. sensor fusion).
    Merge,
    /// The application end-point (root of the process tree).
    Sink,
}

impl fmt::Display for ComponentRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComponentRole::Source => "source",
            ComponentRole::Processor => "processor",
            ComponentRole::Merge => "merge",
            ComponentRole::Sink => "sink",
        };
        f.write_str(s)
    }
}

/// Declaration of one input port.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InputSpec {
    /// Port name for diagnostics.
    pub name: String,
    /// Data kinds this port accepts; empty means *any*.
    pub accepts: Vec<DataKind>,
    /// Names of Component Features that must be attached to the producer
    /// connected to this port (paper §2.1).
    pub required_features: Vec<String>,
}

impl InputSpec {
    /// Creates a port accepting the given kinds (empty = any).
    pub fn new(name: impl Into<String>, accepts: Vec<DataKind>) -> Self {
        InputSpec {
            name: name.into(),
            accepts,
            required_features: Vec::new(),
        }
    }

    /// Declares a Component Feature dependency (builder style).
    pub fn requiring_feature(mut self, feature: impl Into<String>) -> Self {
        self.required_features.push(feature.into());
        self
    }

    /// Whether this port accepts items of `kind`.
    pub fn accepts_kind(&self, kind: &DataKind) -> bool {
        self.accepts.is_empty() || self.accepts.contains(kind)
    }
}

/// Declaration of the output port.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutputSpec {
    /// Data kinds the component can produce. Component Features that add
    /// data extend this set dynamically (paper §2.1 "Adding Data").
    pub provides: Vec<DataKind>,
}

impl OutputSpec {
    /// Creates an output spec for the given kinds.
    pub fn new(provides: Vec<DataKind>) -> Self {
        OutputSpec { provides }
    }
}

/// Abstract-interpretation metadata for a component type: the *transfer
/// function* whole-graph dataflow analysis applies when facts cross this
/// component (frame inference, accuracy propagation, privacy taint and
/// rate bounds — `perpos-analysis` codes P010–P013).
///
/// Every field is optional; an empty spec means "no declared semantics"
/// and analyses fall back to conservative defaults (kind-implied frames,
/// unknown accuracy/rate, taint propagation by provided kind). The spec
/// is declared on [`ComponentDescriptor`]s (live graphs), mirrored into
/// `perpos-analysis`'s `TypeCatalog` by its factory probe, and may be
/// overridden per instance in a `GraphConfig`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TransferSpec {
    /// Coordinate frame of produced positions: `"wgs84"`, `"room"` or a
    /// local frame such as `"local:test-rig"`. Absent means the frame is
    /// implied by the produced kinds (`position.wgs84` → `wgs84`,
    /// `position.room` → `room`) or inherited from upstream.
    pub frame: Option<String>,
    /// Whether the component *converts* between coordinate frames: it
    /// accepts positions in any input frame and re-expresses them in
    /// [`TransferSpec::frame`] (or the kind-implied frame).
    pub frame_transform: Option<bool>,
    /// Best (lowest) achievable horizontal accuracy of position data
    /// derivable from this component's output, in metres. Declared on
    /// sources and on components that synthesize position information.
    pub accuracy_best_m: Option<f64>,
    /// Worst (highest) accuracy bound in metres; see
    /// [`TransferSpec::accuracy_best_m`].
    pub accuracy_worst_m: Option<f64>,
    /// Multiplicative factor the component applies to upstream accuracy
    /// bounds (`< 1.0` improves, e.g. a fusion filter). Default `1.0`.
    pub accuracy_scale: Option<f64>,
    /// Additive accuracy degradation in metres applied to upstream
    /// bounds (e.g. an interpolator). Default `0.0`.
    pub accuracy_add_m: Option<f64>,
    /// Accuracy (metres) this component *promises* to deliver, e.g. to
    /// satisfy a provider's `Criteria::max_accuracy_m`. Analysis flags
    /// the promise as statically unreachable (P011) when the inferred
    /// achievable bound is worse.
    pub claims_accuracy_m: Option<f64>,
    /// Sustained emit rate of a source, in items per second.
    pub emit_rate_hz: Option<f64>,
    /// Output items per input item (fan-out `> 1.0`, e.g. a sentence
    /// splitter; downsampling `< 1.0`). Default `1.0`.
    pub rate_factor: Option<f64>,
    /// Maximum sustained processing rate, in items per second. Analysis
    /// warns (P013) when the inferred inbound rate exceeds it — the
    /// input queue then grows without bound.
    pub max_rate_hz: Option<f64>,
    /// Whether the component anonymizes/aggregates identifiable sensor
    /// data: privacy taint (P012) is cleared at its output.
    pub anonymizes: Option<bool>,
    /// Additional data kinds to treat as raw identifiable sensor data
    /// for privacy-taint purposes, beyond the built-in set.
    pub taints: Option<Vec<String>>,
    /// Average power draw of the component while active, in milliwatts.
    /// Used by the pipeline synthesizer to honour a power budget; absent
    /// means the component is treated as free.
    pub power_mw: Option<f64>,
}

impl TransferSpec {
    /// An empty spec: no declared transfer semantics.
    pub fn new() -> Self {
        TransferSpec::default()
    }

    /// Whether no field is declared.
    pub fn is_empty(&self) -> bool {
        *self == TransferSpec::default()
    }

    /// Field-wise overlay: every field `over` declares replaces the
    /// corresponding field of `self` (per-instance configuration
    /// overrides beat per-type declarations).
    pub fn overlay(&self, over: &TransferSpec) -> TransferSpec {
        macro_rules! pick {
            ($field:ident) => {
                over.$field.clone().or_else(|| self.$field.clone())
            };
        }
        TransferSpec {
            frame: pick!(frame),
            frame_transform: pick!(frame_transform),
            accuracy_best_m: pick!(accuracy_best_m),
            accuracy_worst_m: pick!(accuracy_worst_m),
            accuracy_scale: pick!(accuracy_scale),
            accuracy_add_m: pick!(accuracy_add_m),
            claims_accuracy_m: pick!(claims_accuracy_m),
            emit_rate_hz: pick!(emit_rate_hz),
            rate_factor: pick!(rate_factor),
            max_rate_hz: pick!(max_rate_hz),
            anonymizes: pick!(anonymizes),
            taints: pick!(taints),
            power_mw: pick!(power_mw),
        }
    }

    /// Declares the output coordinate frame (builder style).
    pub fn with_frame(mut self, frame: impl Into<String>) -> Self {
        self.frame = Some(frame.into());
        self
    }

    /// Marks the component as a frame transform (builder style).
    pub fn transforms_frames(mut self) -> Self {
        self.frame_transform = Some(true);
        self
    }

    /// Declares the achievable accuracy interval in metres (builder
    /// style).
    pub fn with_accuracy_m(mut self, best: f64, worst: f64) -> Self {
        self.accuracy_best_m = Some(best);
        self.accuracy_worst_m = Some(worst);
        self
    }

    /// Declares the sustained source emit rate (builder style).
    pub fn with_emit_rate_hz(mut self, hz: f64) -> Self {
        self.emit_rate_hz = Some(hz);
        self
    }

    /// Declares the maximum sustained processing rate (builder style).
    pub fn with_max_rate_hz(mut self, hz: f64) -> Self {
        self.max_rate_hz = Some(hz);
        self
    }

    /// Marks the component as anonymizing (builder style).
    pub fn anonymizing(mut self) -> Self {
        self.anonymizes = Some(true);
        self
    }

    /// Declares the average active power draw (builder style).
    pub fn with_power_mw(mut self, mw: f64) -> Self {
        self.power_mw = Some(mw);
        self
    }
}

/// Effect-and-determinism metadata for a component type: which shared
/// resources it touches, which exogenous inputs it samples, and whether
/// its accumulated state survives a checkpoint. `perpos-analysis` uses
/// this to prove execution-level assembly properties *before* running:
/// shared-resource writers replicated across a parallel fleet (P020),
/// silent checkpoint-restart divergence in fleets (P018) and hidden
/// nondeterminism in pipelines treated as deterministic (P019).
///
/// Every field is optional; an empty spec means "no declared effects"
/// and the analyses treat the component as pure, snapshot-safe and
/// deterministic — the behaviour all in-tree components actually have.
/// Like [`TransferSpec`], the spec is declared on
/// [`ComponentDescriptor`]s, mirrored into the analysis `TypeCatalog` by
/// its factory probe, and may be overridden per instance in a
/// `GraphConfig`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EffectSpec {
    /// Named shared resources the component reads (e.g. a shared map
    /// cache, a fingerprint database). Reported in the analysis facts
    /// document; reads alone never race.
    pub reads: Option<Vec<String>>,
    /// Named shared resources the component writes. A writer replicated
    /// across a parallel fleet races with its own replicas (P020).
    pub writes: Option<Vec<String>>,
    /// Whether the component samples the host wall clock (as opposed to
    /// the engine's simulated clock) — an exogenous input that makes
    /// replays diverge.
    pub wall_clock: Option<bool>,
    /// Whether the component performs live I/O (network, device files)
    /// during ticks/inputs — exogenous input outside the trace.
    pub io: Option<bool>,
    /// Whether the component draws randomness that is *not* seeded
    /// through its configuration, so two runs of the same trace can
    /// differ.
    pub unseeded: Option<bool>,
    /// Whether the component accumulates internal state across items
    /// (counters, filters, RNG positions). Stateful components must
    /// implement `snapshot_state`/`restore_state` to survive fleet
    /// checkpoint-restart.
    pub stateful: Option<bool>,
    /// Whether the component implements
    /// [`Component::snapshot_state`]/[`Component::restore_state`] so a
    /// restored instance replays byte-identically. Only meaningful
    /// together with [`EffectSpec::stateful`]; a stateful component
    /// without it trips P018 inside a fleet deployment.
    pub snapshot_capable: Option<bool>,
}

impl EffectSpec {
    /// An empty spec: no declared effects.
    pub fn new() -> Self {
        EffectSpec::default()
    }

    /// Whether no field is declared.
    pub fn is_empty(&self) -> bool {
        *self == EffectSpec::default()
    }

    /// Field-wise overlay: every field `over` declares replaces the
    /// corresponding field of `self` (per-instance configuration
    /// overrides beat per-type declarations).
    pub fn overlay(&self, over: &EffectSpec) -> EffectSpec {
        macro_rules! pick {
            ($field:ident) => {
                over.$field.clone().or_else(|| self.$field.clone())
            };
        }
        EffectSpec {
            reads: pick!(reads),
            writes: pick!(writes),
            wall_clock: pick!(wall_clock),
            io: pick!(io),
            unseeded: pick!(unseeded),
            stateful: pick!(stateful),
            snapshot_capable: pick!(snapshot_capable),
        }
    }

    /// Declares a shared resource read (builder style).
    pub fn reading(mut self, resource: impl Into<String>) -> Self {
        self.reads
            .get_or_insert_with(Vec::new)
            .push(resource.into());
        self
    }

    /// Declares a shared resource write (builder style).
    pub fn writing(mut self, resource: impl Into<String>) -> Self {
        self.writes
            .get_or_insert_with(Vec::new)
            .push(resource.into());
        self
    }

    /// Marks the component as sampling the host wall clock (builder
    /// style).
    pub fn with_wall_clock(mut self) -> Self {
        self.wall_clock = Some(true);
        self
    }

    /// Marks the component as performing live I/O (builder style).
    pub fn with_io(mut self) -> Self {
        self.io = Some(true);
        self
    }

    /// Marks the component as drawing unseeded randomness (builder
    /// style).
    pub fn with_unseeded(mut self) -> Self {
        self.unseeded = Some(true);
        self
    }

    /// Marks the component as stateful; `snapshot_capable` says whether
    /// its state participates in checkpoints (builder style).
    pub fn stateful(mut self, snapshot_capable: bool) -> Self {
        self.stateful = Some(true);
        self.snapshot_capable = Some(snapshot_capable);
        self
    }
}

/// A reflective method exposed by a component or feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSpec {
    /// Method name, e.g. `"setThreshold"`.
    pub name: String,
    /// Human-readable signature documentation, e.g. `"(meters: float) -> null"`.
    pub signature: String,
}

impl MethodSpec {
    /// Creates a method description.
    pub fn new(name: impl Into<String>, signature: impl Into<String>) -> Self {
        MethodSpec {
            name: name.into(),
            signature: signature.into(),
        }
    }
}

/// Static description of a Processing Component: name, role and ports.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDescriptor {
    /// Component name (diagnostics; need not be unique).
    pub name: String,
    /// Structural role.
    pub role: ComponentRole,
    /// Input ports, in port-index order. Sources have none.
    pub inputs: Vec<InputSpec>,
    /// Output port; sinks have none.
    pub output: Option<OutputSpec>,
    /// Dataflow transfer metadata for whole-graph analysis (frames,
    /// accuracy, privacy, rates). Empty by default.
    pub transfer: TransferSpec,
    /// Effect metadata for determinism analysis (shared resources,
    /// exogenous inputs, snapshot capability). Empty by default.
    pub effects: EffectSpec,
}

impl ComponentDescriptor {
    /// Creates a descriptor for a source component producing `provides`.
    pub fn source(name: impl Into<String>, provides: Vec<DataKind>) -> Self {
        ComponentDescriptor {
            name: name.into(),
            role: ComponentRole::Source,
            inputs: Vec::new(),
            output: Some(OutputSpec::new(provides)),
            transfer: TransferSpec::default(),
            effects: EffectSpec::default(),
        }
    }

    /// Creates a descriptor for a single-input processor.
    pub fn processor(name: impl Into<String>, input: InputSpec, provides: Vec<DataKind>) -> Self {
        ComponentDescriptor {
            name: name.into(),
            role: ComponentRole::Processor,
            inputs: vec![input],
            output: Some(OutputSpec::new(provides)),
            transfer: TransferSpec::default(),
            effects: EffectSpec::default(),
        }
    }

    /// Creates a descriptor for a merge component with several inputs.
    pub fn merge(name: impl Into<String>, inputs: Vec<InputSpec>, provides: Vec<DataKind>) -> Self {
        ComponentDescriptor {
            name: name.into(),
            role: ComponentRole::Merge,
            inputs,
            output: Some(OutputSpec::new(provides)),
            transfer: TransferSpec::default(),
            effects: EffectSpec::default(),
        }
    }

    /// Creates a descriptor for an application sink.
    pub fn sink(name: impl Into<String>, input: InputSpec) -> Self {
        ComponentDescriptor {
            name: name.into(),
            role: ComponentRole::Sink,
            inputs: vec![input],
            output: None,
            transfer: TransferSpec::default(),
            effects: EffectSpec::default(),
        }
    }

    /// Attaches dataflow transfer metadata (builder style).
    pub fn with_transfer(mut self, transfer: TransferSpec) -> Self {
        self.transfer = transfer;
        self
    }

    /// Attaches effect metadata (builder style).
    pub fn with_effects(mut self, effects: EffectSpec) -> Self {
        self.effects = effects;
        self
    }
}

/// Execution context handed to a component while it runs.
///
/// Components produce data by calling [`ComponentCtx::emit`]; the engine
/// then routes the emissions through attached features, channel
/// bookkeeping and downstream ports.
///
/// Inside the engine the context additionally carries the shard's
/// [`PayloadArena`], so owned-value emissions
/// ([`ComponentCtx::emit_owned`], [`ComponentCtx::emit_with`]) land in
/// recycled slots instead of fresh allocations. Components never see the
/// difference: an interned and a plain payload holding the same value
/// are observationally identical.
pub struct ComponentCtx<'a> {
    now: SimTime,
    emitted: Vec<DataItem>,
    arena: Option<&'a mut PayloadArena>,
}

impl fmt::Debug for ComponentCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentCtx")
            .field("now", &self.now)
            .field("emitted", &self.emitted)
            .field("arena", &self.arena.is_some())
            .finish()
    }
}

impl<'a> ComponentCtx<'a> {
    /// Creates a context at `now`. Primarily useful when unit-testing
    /// custom components outside an engine.
    pub fn new(now: SimTime) -> Self {
        ComponentCtx {
            now,
            emitted: Vec::new(),
            arena: None,
        }
    }

    /// Creates a context at `now` reusing `emitted`'s allocation — the
    /// engine loans one buffer across units so the per-item hot path
    /// allocates nothing. The buffer is cleared before use.
    pub(crate) fn with_buffer(
        now: SimTime,
        mut emitted: Vec<DataItem>,
        arena: &'a mut PayloadArena,
    ) -> Self {
        emitted.clear();
        ComponentCtx {
            now,
            emitted,
            arena: Some(arena),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Emits a data item on the component's output port.
    pub fn emit(&mut self, item: DataItem) {
        self.emitted.push(item);
    }

    /// Convenience: emits `payload` as a fresh item of `kind` stamped with
    /// the current time.
    pub fn emit_value(&mut self, kind: DataKind, payload: impl Into<Payload>) {
        let item = DataItem::new(kind, self.now, payload);
        self.emit(item);
    }

    /// Emits an owned value as a fresh item of `kind`, interning it into
    /// the engine's payload arena when one is attached (recycling a slot
    /// instead of allocating). Equivalent to [`ComponentCtx::emit_value`]
    /// in every observable way.
    pub fn emit_owned(&mut self, kind: DataKind, value: Value) {
        self.emit_with(kind, |slot| *slot = value);
    }

    /// Emits by writing the payload value in place — the zero-allocation
    /// emission path. With an arena attached, `write` receives a recycled
    /// slot whose previous heap capacity (e.g. a retained `Value::Text`
    /// buffer) can be reused; without one it receives a fresh
    /// [`Value::Null`]. The closure must fully overwrite the slot: the
    /// previous *contents* are arbitrary, only the capacity is useful.
    pub fn emit_with(&mut self, kind: DataKind, write: impl FnOnce(&mut Value)) {
        let payload = match self.arena.as_deref_mut() {
            Some(arena) => arena.intern_with(write),
            None => {
                let mut value = Value::Null;
                write(&mut value);
                Payload::new(value)
            }
        };
        self.emitted.push(DataItem::new(kind, self.now, payload));
    }

    /// Drains everything emitted so far. The engine calls this after
    /// each hook; tests may call it to inspect component output.
    pub fn take_emitted(&mut self) -> Vec<DataItem> {
        std::mem::take(&mut self.emitted)
    }
}

/// A Processing Component: a node in the positioning process graph.
///
/// Implementations must be `Send` so graphs can be driven from worker
/// threads. All hooks are infallible by default where the paper's model
/// makes them optional.
pub trait Component: Send {
    /// The component's static declaration.
    fn descriptor(&self) -> ComponentDescriptor;

    /// Handles one item arriving on input port `port`.
    ///
    /// # Errors
    ///
    /// Implementations report internal failures as
    /// [`CoreError::ComponentFailure`]; the engine aborts the running step
    /// and surfaces the error.
    fn on_input(
        &mut self,
        port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError>;

    /// Called once per engine step; sources override this to sample and
    /// emit. Default: no-op.
    ///
    /// # Errors
    ///
    /// Same contract as [`Component::on_input`].
    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        let _ = ctx;
        Ok(())
    }

    /// Reflectively invokes a named method (designed reflection surface).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchMethod`] for unknown methods; the
    /// default implementation knows none.
    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        let _ = args;
        Err(CoreError::NoSuchMethod {
            target: self.descriptor().name,
            method: method.to_string(),
        })
    }

    /// Lists the methods available through [`Component::invoke`].
    fn methods(&self) -> Vec<MethodSpec> {
        Vec::new()
    }

    /// Resets the component to a clean internal state. The supervisor
    /// calls this under [`crate::supervision::FaultPolicy::Restart`] and
    /// on quarantine entry; components with internal buffers or
    /// accumulated state should clear them here. Default: no-op.
    fn on_reset(&mut self) {}

    /// Serializes the component's internal state for a
    /// [`crate::Middleware::snapshot`] checkpoint. Components whose
    /// behaviour depends on accumulated state (counters, RNG positions,
    /// filters) return it as a [`Value`] here so a restored instance
    /// replays byte-identically; stateless components keep the default
    /// `None` and are skipped by the checkpointer.
    fn snapshot_state(&self) -> Option<Value> {
        None
    }

    /// Applies state previously captured by
    /// [`Component::snapshot_state`]. Implementations must accept any
    /// value their own `snapshot_state` can produce; the default ignores
    /// the state (matching the default `None` capture).
    fn restore_state(&mut self, state: &Value) {
        let _ = state;
    }
}

/// A source component driven by a closure: each tick the closure may
/// return a payload which is emitted with the configured kind.
///
/// Useful in tests, benchmarks and examples.
///
/// ```
/// use perpos_core::prelude::*;
///
/// let mut ticks = 0;
/// let mut src = FnSource::new("counter", kinds::RAW_STRING, move |_now| {
///     ticks += 1;
///     Some(Value::Int(ticks))
/// });
/// let mut ctx_probe = ComponentCtxProbe::run_tick(&mut src)?;
/// assert_eq!(ctx_probe.len(), 1);
/// # Ok::<(), perpos_core::CoreError>(())
/// ```
pub struct FnSource<F> {
    name: String,
    kind: DataKind,
    f: F,
}

impl<F> FnSource<F>
where
    F: FnMut(SimTime) -> Option<Value> + Send,
{
    /// Creates a closure-driven source emitting items of `kind`.
    pub fn new(name: impl Into<String>, kind: DataKind, f: F) -> Self {
        FnSource {
            name: name.into(),
            kind,
            f,
        }
    }
}

impl<F> Component for FnSource<F>
where
    F: FnMut(SimTime) -> Option<Value> + Send,
{
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::source(self.name.clone(), vec![self.kind.clone()])
    }

    fn on_input(
        &mut self,
        port: usize,
        _item: DataItem,
        _ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Err(CoreError::ComponentFailure {
            component: self.name.clone(),
            reason: format!("source received unexpected input on port {port}"),
        })
    }

    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        if let Some(v) = (self.f)(ctx.now()) {
            // Owned-value emission: lands in the engine's payload arena.
            ctx.emit_owned(self.kind.clone(), v);
        }
        Ok(())
    }
}

impl<F> fmt::Debug for FnSource<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnSource")
            .field("name", &self.name)
            .finish()
    }
}

/// A single-input processor driven by a closure mapping each input item to
/// zero or one output payloads.
pub struct FnProcessor<F> {
    name: String,
    accepts: Vec<DataKind>,
    provides: DataKind,
    f: F,
}

impl<F> FnProcessor<F>
where
    F: FnMut(&DataItem) -> Option<crate::data::Payload> + Send,
{
    /// Creates a closure-driven processor.
    pub fn new(name: impl Into<String>, accepts: Vec<DataKind>, provides: DataKind, f: F) -> Self {
        FnProcessor {
            name: name.into(),
            accepts,
            provides,
            f,
        }
    }
}

impl<F> Component for FnProcessor<F>
where
    F: FnMut(&DataItem) -> Option<crate::data::Payload> + Send,
{
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::processor(
            self.name.clone(),
            InputSpec::new("in", self.accepts.clone()),
            vec![self.provides.clone()],
        )
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        if let Some(v) = (self.f)(&item) {
            ctx.emit_value(self.provides.clone(), v);
        }
        Ok(())
    }
}

impl<F> fmt::Debug for FnProcessor<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnProcessor")
            .field("name", &self.name)
            .finish()
    }
}

/// A pure pass-through stage: re-emits every input item's payload under
/// its own output kind, stamped with the current time.
///
/// The payload is *moved* from input to output rather than cloned, so a
/// relay hop adds no reference-count traffic — the shared value travels
/// through the graph by handle. This is the cheapest faithful model of a
/// forwarding stage (a protocol bridge, a kind re-labeller, a channel
/// member that hands sentences down a pipeline).
pub struct FnRelay {
    name: String,
    accepts: Vec<DataKind>,
    provides: DataKind,
}

impl FnRelay {
    /// Creates a relay stage accepting `accepts` and re-emitting as
    /// `provides`.
    pub fn new(name: impl Into<String>, accepts: Vec<DataKind>, provides: DataKind) -> Self {
        FnRelay {
            name: name.into(),
            accepts,
            provides,
        }
    }
}

impl Component for FnRelay {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::processor(
            self.name.clone(),
            InputSpec::new("in", self.accepts.clone()),
            vec![self.provides.clone()],
        )
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        // Move the payload handle through; attrs and timestamp are
        // re-derived (fresh item at the relay's own emission time).
        ctx.emit_value(self.provides.clone(), item.payload);
        Ok(())
    }
}

impl fmt::Debug for FnRelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnRelay").field("name", &self.name).finish()
    }
}

/// Test helper that drives a single component tick outside an engine.
///
/// Primarily useful in doctests and unit tests of custom components.
#[derive(Debug)]
pub struct ComponentCtxProbe;

impl ComponentCtxProbe {
    /// Runs `on_tick` at time zero and returns what the component emitted.
    ///
    /// # Errors
    ///
    /// Propagates the component's error.
    pub fn run_tick(c: &mut dyn Component) -> Result<Vec<DataItem>, CoreError> {
        let mut ctx = ComponentCtx::new(SimTime::ZERO);
        c.on_tick(&mut ctx)?;
        Ok(ctx.take_emitted())
    }

    /// Delivers one item to port 0 at the item's timestamp and returns the
    /// emissions.
    ///
    /// # Errors
    ///
    /// Propagates the component's error.
    pub fn run_input(c: &mut dyn Component, item: DataItem) -> Result<Vec<DataItem>, CoreError> {
        let mut ctx = ComponentCtx::new(item.timestamp);
        c.on_input(0, item, &mut ctx)?;
        Ok(ctx.take_emitted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::kinds;

    #[test]
    fn input_spec_accepts() {
        let any = InputSpec::new("in", vec![]);
        assert!(any.accepts_kind(&kinds::RAW_STRING));
        let only_pos = InputSpec::new("in", vec![kinds::POSITION_WGS84]);
        assert!(only_pos.accepts_kind(&kinds::POSITION_WGS84));
        assert!(!only_pos.accepts_kind(&kinds::RAW_STRING));
    }

    #[test]
    fn descriptor_constructors() {
        let s = ComponentDescriptor::source("gps", vec![kinds::RAW_STRING]);
        assert_eq!(s.role, ComponentRole::Source);
        assert!(s.inputs.is_empty());
        assert!(s.output.is_some());

        let p = ComponentDescriptor::processor(
            "parser",
            InputSpec::new("in", vec![kinds::RAW_STRING]),
            vec![kinds::NMEA_SENTENCE],
        );
        assert_eq!(p.role, ComponentRole::Processor);
        assert_eq!(p.inputs.len(), 1);

        let m = ComponentDescriptor::merge(
            "fusion",
            vec![InputSpec::default(), InputSpec::default()],
            vec![kinds::POSITION_WGS84],
        );
        assert_eq!(m.role, ComponentRole::Merge);

        let k = ComponentDescriptor::sink("app", InputSpec::default());
        assert_eq!(k.role, ComponentRole::Sink);
        assert!(k.output.is_none());
    }

    #[test]
    fn fn_source_emits() {
        let mut n = 0;
        let mut src = FnSource::new("s", kinds::RAW_STRING, move |_| {
            n += 1;
            (n <= 2).then_some(Value::Int(n))
        });
        assert_eq!(ComponentCtxProbe::run_tick(&mut src).unwrap().len(), 1);
        assert_eq!(ComponentCtxProbe::run_tick(&mut src).unwrap().len(), 1);
        assert_eq!(ComponentCtxProbe::run_tick(&mut src).unwrap().len(), 0);
    }

    #[test]
    fn fn_source_rejects_input() {
        let mut src = FnSource::new("s", kinds::RAW_STRING, |_| None);
        let item = DataItem::new(kinds::RAW_STRING, SimTime::ZERO, Value::Null);
        assert!(matches!(
            ComponentCtxProbe::run_input(&mut src, item),
            Err(CoreError::ComponentFailure { .. })
        ));
    }

    #[test]
    fn fn_processor_maps() {
        let mut p = FnProcessor::new(
            "double",
            vec![kinds::RAW_STRING],
            kinds::NMEA_SENTENCE,
            |item| item.payload.as_i64().map(|i| Value::Int(i * 2).into()),
        );
        let out = ComponentCtxProbe::run_input(
            &mut p,
            DataItem::new(kinds::RAW_STRING, SimTime::ZERO, Value::Int(21)),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, Value::Int(42));
        assert_eq!(out[0].kind, kinds::NMEA_SENTENCE);
    }

    #[test]
    fn default_invoke_is_no_such_method() {
        let mut src = FnSource::new("s", kinds::RAW_STRING, |_| None);
        assert!(matches!(
            src.invoke("anything", &[]),
            Err(CoreError::NoSuchMethod { .. })
        ));
        assert!(src.methods().is_empty());
    }

    #[test]
    fn role_display() {
        assert_eq!(ComponentRole::Merge.to_string(), "merge");
    }
}
