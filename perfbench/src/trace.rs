//! The traced mode: a span recorder over preallocated memory, the
//! self-time analysis, and delegating wrappers that put spans around the
//! components and features the benchmark installs.
//!
//! A span records its name, start, end, parent span and request id. The
//! slots are allocated once when tracing is first switched on and read
//! back when a session ends. Spans on the thread that opened a
//! [`root`] span nest under it; spans opened on worker threads (the
//! fleet scheduler's) attach to the root that is open at the time. With
//! tracing off, [`span`] is one relaxed atomic load.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

use perpos_core::channel::{ChannelFeature, ChannelHost, DataTree};
use perpos_core::component::{Component, ComponentCtx, ComponentDescriptor, MethodSpec};
use perpos_core::feature::{ComponentFeature, FeatureAction, FeatureDescriptor, FeatureHost};
use perpos_core::prelude::{CoreError, DataItem, Value};

/// Span slots; a session that fills them stops early (see [`remaining`]).
pub const CAPACITY: usize = 1 << 21;

/// Marks "no span".
pub const NONE: u32 = u32::MAX;

macro_rules! names {
    ($($variant:ident => $label:literal,)*) => {
        /// What a span measures; the label names the layer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u16)]
        pub enum Name { $($variant,)* }

        impl Name {
            /// Every span name, in declaration order.
            pub const ALL: &'static [Name] = &[$(Name::$variant,)*];

            /// The span's label, `layer.operation`.
            pub fn label(self) -> &'static str {
                match self { $(Name::$variant => $label,)* }
            }
        }
    };
}

names! {
    Request => "bench.request",
    Check => "bench.check",
    Tap => "bench.tap",
    ScanBlock => "codec.scan_block",
    IngestBatch => "engine.ingest_batch",
    StepBatch => "engine.step_batch",
    Drain => "positioning.drain",
    ProviderRead => "positioning.read",
    GpsTick => "sensors.gps_tick",
    WifiTick => "sensors.wifi_tick",
    Parser => "pipeline.parser",
    Interpreter => "pipeline.interpreter",
    WifiPositioning => "pipeline.wifi_positioning",
    Hdop => "feature.hdop",
    NumSats => "feature.numsats",
    Likelihood => "channel.likelihood_apply",
    Particle => "fusion.particle",
    AttachFeature => "adapt.attach_feature",
    DetachFeature => "adapt.detach_feature",
    InsertBetween => "adapt.insert_between",
    RemoveComponent => "adapt.remove_component",
    SubscribeHistory => "adapt.subscribe_history",
    Invoke => "adapt.invoke",
    Snapshot => "adapt.snapshot",
    FleetRun => "fleet.run",
    FleetFactory => "fleet.factory",
    FleetSnapshot => "fleet.snapshot",
    FleetRestore => "fleet.restore",
}

impl Name {
    /// Number of span names.
    pub const COUNT: usize = Name::ALL.len();

    fn from_index(i: u64) -> Name {
        Name::ALL[i as usize]
    }
}

struct Slot {
    start: AtomicU64,
    end: AtomicU64,
    /// `name << 32 | parent`.
    tag: AtomicU64,
    request: AtomicU64,
}

struct Recorder {
    epoch: Instant,
    slots: Box<[Slot]>,
    next: AtomicUsize,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static AMBIENT: AtomicU32 = AtomicU32::new(NONE);
static REQUEST: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(NONE) };
}

/// An open span; it is recorded when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    id: u32,
    parent: u32,
    prev: u32,
    root: bool,
    name: Name,
    start: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(rec) = RECORDER.get() else { return };
        let end = rec.now();
        let slot = &rec.slots[self.id as usize];
        slot.start.store(self.start, Relaxed);
        slot.end.store(end, Relaxed);
        slot.tag
            .store((self.name as u64) << 32 | u64::from(self.parent), Relaxed);
        slot.request.store(REQUEST.load(Relaxed), Relaxed);
        CURRENT.with(|c| c.set(self.prev));
        if self.root {
            AMBIENT.store(NONE, Relaxed);
        }
    }
}

fn open(name: Name, root: bool) -> Option<Span> {
    if !ENABLED.load(Relaxed) {
        return None;
    }
    let rec = RECORDER.get()?;
    let id = rec.next.fetch_add(1, Relaxed);
    if id >= CAPACITY {
        return None;
    }
    let id = id as u32;
    let prev = CURRENT.with(|c| c.replace(id));
    let parent = if prev != NONE || root {
        prev
    } else {
        AMBIENT.load(Relaxed)
    };
    if root {
        AMBIENT.store(id, Relaxed);
    }
    Some(Span {
        id,
        parent,
        prev,
        root,
        name,
        start: rec.now(),
    })
}

/// Opens a span under the current one (or under the open root when this
/// thread has none). `None` while tracing is off.
pub fn span(name: Name) -> Option<Span> {
    open(name, false)
}

/// Opens a top-level span on the driving thread; spans that worker
/// threads open while it is open become its children.
pub fn root(name: Name) -> Option<Span> {
    open(name, true)
}

/// Tags subsequently closed spans with request id `id`.
pub fn set_request(id: u64) {
    REQUEST.store(id, Relaxed);
}

/// Starts a recording session, allocating the slots on first use.
pub fn start() {
    let rec = RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        slots: (0..CAPACITY)
            .map(|_| Slot {
                start: AtomicU64::new(0),
                end: AtomicU64::new(0),
                tag: AtomicU64::new(0),
                request: AtomicU64::new(0),
            })
            .collect(),
        next: AtomicUsize::new(0),
    });
    rec.next.store(0, Relaxed);
    AMBIENT.store(NONE, Relaxed);
    REQUEST.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Free span slots left in the running session.
pub fn remaining() -> usize {
    RECORDER
        .get()
        .map_or(0, |r| CAPACITY.saturating_sub(r.next.load(Relaxed)))
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// What it measured.
    pub name: Name,
    /// Index of the parent span in the session, or [`NONE`].
    pub parent: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Request id current when the span closed.
    pub request: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Ends the session: stops recording and reads the spans back, in the
/// order they were opened. `Err` carries the spans when the session ran
/// out of slots.
pub fn finish() -> Result<Vec<SpanRec>, Vec<SpanRec>> {
    ENABLED.store(false, Relaxed);
    let Some(rec) = RECORDER.get() else {
        return Ok(Vec::new());
    };
    let opened = rec.next.load(Relaxed);
    let spans = rec.slots[..opened.min(CAPACITY)]
        .iter()
        .map(|s| {
            let tag = s.tag.load(Relaxed);
            SpanRec {
                name: Name::from_index(tag >> 32),
                parent: tag as u32,
                start: s.start.load(Relaxed),
                end: s.end.load(Relaxed),
                request: s.request.load(Relaxed),
            }
        })
        .collect();
    if opened > CAPACITY {
        Err(spans)
    } else {
        Ok(spans)
    }
}

/// Per-name totals of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Spans per name.
    pub count: [u64; Name::COUNT],
    /// Summed duration per name, nanoseconds.
    pub total_ns: [u64; Name::COUNT],
    /// Summed self time per name: each span's duration minus the part of
    /// it that its children's intervals cover.
    pub self_ns: [u64; Name::COUNT],
    /// Spans whose interval is not inside their parent's.
    pub misnested: usize,
}

impl Profile {
    /// Self time of all spans, nanoseconds.
    pub fn self_sum_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Spans named `name`.
    pub fn count(&self, name: Name) -> u64 {
        self.count[name as usize]
    }

    /// Self time of `name`, nanoseconds.
    pub fn self_ns(&self, name: Name) -> u64 {
        self.self_ns[name as usize]
    }

    /// Summed duration of `name`, nanoseconds.
    pub fn total_ns(&self, name: Name) -> u64 {
        self.total_ns[name as usize]
    }

    /// Mean duration of one `name` span, nanoseconds (0 without spans).
    pub fn mean_ns(&self, name: Name) -> f64 {
        per(self.total_ns(name) as f64, self.count(name))
    }

    /// Mean self time of one `name` span, nanoseconds (0 without spans).
    pub fn mean_self_ns(&self, name: Name) -> f64 {
        per(self.self_ns(name) as f64, self.count(name))
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Computes self times. Children of one parent may overlap when they ran
/// on different threads, so coverage is the union of their intervals,
/// clipped to the parent's.
pub fn profile(spans: &[SpanRec]) -> Profile {
    let mut p = Profile {
        count: [0; Name::COUNT],
        total_ns: [0; Name::COUNT],
        self_ns: [0; Name::COUNT],
        misnested: 0,
    };
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| (s.parent as usize) < spans.len())
        .map(|s| (s.parent, s.start, s.end))
        .collect();
    kids.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut i = 0;
    while i < kids.len() {
        let parent_id = kids[i].0;
        let parent = spans[parent_id as usize];
        let mut run: Option<(u64, u64)> = None;
        let mut total = 0u64;
        while i < kids.len() && kids[i].0 == parent_id {
            let (_, s, e) = kids[i];
            if s < parent.start || e > parent.end {
                p.misnested += 1;
            }
            let (s, e) = (s.max(parent.start), e.min(parent.end));
            if s < e {
                run = match run {
                    Some((rs, re)) if s <= re => Some((rs, re.max(e))),
                    Some((rs, re)) => {
                        total += re - rs;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            i += 1;
        }
        if let Some((rs, re)) = run {
            total += re - rs;
        }
        covered[parent_id as usize] = total;
    }
    for (s, cover) in spans.iter().zip(&covered) {
        let n = s.name as usize;
        p.count[n] += 1;
        p.total_ns[n] += s.duration();
        p.self_ns[n] += s.duration() - cover;
    }
    p
}

/// A delegating [`Component`] that records a span around every tick and
/// input of the component it wraps.
pub struct Traced<C> {
    inner: C,
    name: Name,
}

impl<C> Traced<C> {
    /// Wraps `inner`, naming its spans `name`.
    pub fn new(inner: C, name: Name) -> Self {
        Traced { inner, name }
    }
}

impl<C: Component> Component for Traced<C> {
    fn descriptor(&self) -> ComponentDescriptor {
        self.inner.descriptor()
    }

    fn on_input(
        &mut self,
        port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let _span = span(self.name);
        self.inner.on_input(port, item, ctx)
    }

    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        let _span = span(self.name);
        self.inner.on_tick(ctx)
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        self.inner.invoke(method, args)
    }

    fn methods(&self) -> Vec<MethodSpec> {
        self.inner.methods()
    }

    fn on_reset(&mut self) {
        self.inner.on_reset();
    }

    fn snapshot_state(&self) -> Option<Value> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &Value) {
        self.inner.restore_state(state);
    }
}

/// A delegating [`ComponentFeature`]: a span around every produced item,
/// and typed access still reaches the wrapped feature. The features the
/// benchmark installs only act on produced items; the engine's call of
/// their pass-through consume hook stays in the engine's self time.
pub struct TracedFeature<F> {
    inner: F,
    name: Name,
}

impl<F> TracedFeature<F> {
    /// Wraps `inner`, naming its spans `name`.
    pub fn new(inner: F, name: Name) -> Self {
        TracedFeature { inner, name }
    }
}

impl<F: ComponentFeature + 'static> ComponentFeature for TracedFeature<F> {
    fn descriptor(&self) -> FeatureDescriptor {
        self.inner.descriptor()
    }

    fn on_consume(
        &mut self,
        item: DataItem,
        host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        self.inner.on_consume(item, host)
    }

    fn on_produce(
        &mut self,
        item: DataItem,
        host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        let _span = span(self.name);
        self.inner.on_produce(item, host)
    }

    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        host: &mut FeatureHost<'_>,
    ) -> Result<Value, CoreError> {
        self.inner.invoke(method, args, host)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn snapshot_state(&self) -> Option<Value> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &Value) {
        self.inner.restore_state(state);
    }
}

/// A delegating [`ChannelFeature`] with a span around every `apply`.
pub struct TracedChannelFeature<F> {
    inner: F,
    name: Name,
}

impl<F> TracedChannelFeature<F> {
    /// Wraps `inner`, naming its spans `name`.
    pub fn new(inner: F, name: Name) -> Self {
        TracedChannelFeature { inner, name }
    }
}

impl<F: ChannelFeature + 'static> ChannelFeature for TracedChannelFeature<F> {
    fn descriptor(&self) -> FeatureDescriptor {
        self.inner.descriptor()
    }

    fn apply(&mut self, tree: &DataTree, host: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        let _span = span(self.name);
        self.inner.apply(tree, host)
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        self.inner.invoke(method, args)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn snapshot_state(&self) -> Option<Value> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &Value) {
        self.inner.restore_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: Name, parent: u32, start: u64, end: u64) -> SpanRec {
        SpanRec {
            name,
            parent,
            start,
            end,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec(Name::FleetRun, NONE, 0, 100),
            // Two worker-thread children overlapping on 20..30.
            rec(Name::Parser, 0, 10, 30),
            rec(Name::Interpreter, 0, 20, 40),
            rec(Name::Hdop, 1, 12, 14),
        ];
        let p = profile(&spans);
        assert_eq!(p.self_ns(Name::FleetRun), 70);
        assert_eq!(p.self_ns(Name::Parser), 18);
        assert_eq!(p.self_ns(Name::Interpreter), 20);
        assert_eq!(p.self_ns(Name::Hdop), 2);
        assert_eq!(p.misnested, 0);
    }

    #[test]
    fn a_child_outside_its_parent_is_misnested() {
        let spans = [rec(Name::Request, NONE, 10, 20), rec(Name::Drain, 0, 5, 15)];
        let p = profile(&spans);
        assert_eq!(p.misnested, 1);
        assert_eq!(p.self_ns(Name::Request), 5);
    }
}
