//! Trace recording and replay — the paper's emulator (§3.2): "an
//! emulator component that reads sensor data from a file and presents
//! itself as a sensor. The emulator was plugged into the processing
//! graph, taking the place of the sensors."

use std::any::Any;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use perpos_core::component::{Component, ComponentCtx, ComponentDescriptor, MethodSpec};
use perpos_core::feature::{ComponentFeature, FeatureAction, FeatureDescriptor, FeatureHost};
use perpos_core::prelude::*;
use serde::{Deserialize, Serialize};

/// An error loading or saving a [`Trace`].
///
/// Distinguishes transport problems (the file could not be read or
/// written) from content problems (the bytes are not a valid trace —
/// truncated recordings, corrupt JSON, or a well-formed document of the
/// wrong shape). Callers that retry on `Io` should treat `Parse` as
/// permanent.
#[derive(Debug)]
pub enum TraceError {
    /// Reading or writing the underlying stream failed.
    Io(std::io::Error),
    /// The bytes were read but do not decode as a trace.
    Parse(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse(msg) => write!(f, "trace parse error: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A recorded sequence of data items, ordered by timestamp.
///
/// ```
/// use perpos_core::prelude::*;
/// use perpos_sensors::{EmulatorSource, Trace};
///
/// let trace = Trace::new(vec![DataItem::new(
///     kinds::RAW_STRING,
///     SimTime::ZERO,
///     Value::from("$GPGGA,..."),
/// )]);
/// let mut buf = Vec::new();
/// trace.save(&mut buf)?;
/// let reloaded = Trace::load(&buf[..])?;
/// let emulator = EmulatorSource::new("replay", reloaded);
/// assert_eq!(emulator.remaining(), 1);
/// # Ok::<(), perpos_sensors::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    /// The recorded items.
    pub items: Vec<DataItem>,
}

impl Trace {
    /// Creates a trace from items (sorted by timestamp).
    pub fn new(mut items: Vec<DataItem>) -> Self {
        items.sort_by_key(|i| i.timestamp);
        Trace { items }
    }

    /// Number of recorded items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Serializes the trace as JSON to a writer.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the writer fails; [`TraceError::Parse`] if
    /// the trace cannot be encoded.
    pub fn save(&self, mut w: impl Write) -> Result<(), TraceError> {
        let json =
            serde_json::to_string_pretty(self).map_err(|e| TraceError::Parse(e.to_string()))?;
        w.write_all(json.as_bytes())?;
        Ok(())
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// See [`Trace::save`].
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let f = std::fs::File::create(path)?;
        self.save(f)
    }

    /// Reads a trace from a reader.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the reader fails; [`TraceError::Parse`] if
    /// the bytes are truncated, corrupt, or not a trace document.
    pub fn load(mut r: impl Read) -> Result<Self, TraceError> {
        let mut buf = String::new();
        r.read_to_string(&mut buf)?;
        serde_json::from_str(&buf).map_err(|e| TraceError::Parse(e.to_string()))
    }

    /// Reads a trace from a file.
    ///
    /// # Errors
    ///
    /// See [`Trace::load`].
    pub fn load_from_file(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let f = std::fs::File::open(path)?;
        Trace::load(f)
    }
}

/// A Component Feature that records every item its host produces.
///
/// Attach to a sensor node, run the scenario, then call
/// [`TraceRecorderFeature::trace`] (via the shared handle) to obtain the
/// recording for later replay.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorderFeature {
    items: Arc<Mutex<Vec<DataItem>>>,
}

impl TraceRecorderFeature {
    /// The feature name.
    pub const NAME: &'static str = "TraceRecorder";

    /// Creates a recorder.
    pub fn new() -> Self {
        TraceRecorderFeature::default()
    }

    /// A handle sharing this recorder's buffer; survives attachment.
    pub fn handle(&self) -> TraceRecorderFeature {
        self.clone()
    }

    /// The recording so far.
    pub fn trace(&self) -> Trace {
        Trace::new(self.items.lock().clone())
    }

    /// Number of recorded items.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
}

impl ComponentFeature for TraceRecorderFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME).method(MethodSpec::new("recordedCount", "() -> int"))
    }

    fn on_produce(
        &mut self,
        item: DataItem,
        _host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        self.items.lock().push(item.clone());
        Ok(FeatureAction::Continue(item))
    }

    fn invoke(
        &mut self,
        method: &str,
        _args: &[Value],
        _host: &mut FeatureHost<'_>,
    ) -> Result<Value, CoreError> {
        match method {
            "recordedCount" => Ok(Value::Int(self.items.lock().len() as i64)),
            other => Err(CoreError::NoSuchMethod {
                target: Self::NAME.into(),
                method: other.into(),
            }),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The emulator Source component: replays a [`Trace`] against the
/// simulation clock, presenting itself as a sensor.
///
/// Each engine tick, every not-yet-replayed item whose recorded timestamp
/// is due is re-emitted (with its original payload, attributes and
/// timestamp preserved). Reflective method: `remainingCount() -> int`.
#[derive(Debug)]
pub struct EmulatorSource {
    name: String,
    trace: Trace,
    provides: Vec<DataKind>,
    cursor: usize,
}

impl EmulatorSource {
    /// Creates an emulator replaying `trace`.
    pub fn new(name: impl Into<String>, trace: Trace) -> Self {
        let mut provides: Vec<DataKind> = Vec::new();
        for item in &trace.items {
            if !provides.contains(&item.kind) {
                provides.push(item.kind.clone());
            }
        }
        EmulatorSource {
            name: name.into(),
            trace,
            provides,
            cursor: 0,
        }
    }

    /// Loads a trace file and creates an emulator for it.
    ///
    /// # Errors
    ///
    /// See [`Trace::load`].
    pub fn from_file(name: impl Into<String>, path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Ok(EmulatorSource::new(name, Trace::load_from_file(path)?))
    }

    /// Items not yet replayed.
    pub fn remaining(&self) -> usize {
        self.trace.items.len() - self.cursor
    }
}

impl Component for EmulatorSource {
    fn descriptor(&self) -> ComponentDescriptor {
        // The replay cursor is state with no snapshot hooks: restored
        // instances restart the trace from the top (P018 under a fleet).
        ComponentDescriptor::source(self.name.clone(), self.provides.clone())
            .with_effects(EffectSpec::new().stateful(false))
    }

    fn on_input(
        &mut self,
        port: usize,
        _item: DataItem,
        _ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Err(CoreError::ComponentFailure {
            component: self.name.clone(),
            reason: format!("emulator source has no input port {port}"),
        })
    }

    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        while self.cursor < self.trace.items.len()
            && self.trace.items[self.cursor].timestamp <= ctx.now()
        {
            let item = self.trace.items[self.cursor].clone();
            self.cursor += 1;
            ctx.emit(item);
        }
        Ok(())
    }

    fn invoke(&mut self, method: &str, _args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "remainingCount" => Ok(Value::Int(self.remaining() as i64)),
            other => Err(CoreError::NoSuchMethod {
                target: self.name.clone(),
                method: other.to_string(),
            }),
        }
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![MethodSpec::new("remainingCount", "() -> int")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::component::ComponentCtxProbe;

    fn item(t: f64, v: i64) -> DataItem {
        DataItem::new(kinds::RAW_STRING, SimTime::from_secs_f64(t), Value::Int(v))
    }

    #[test]
    fn trace_orders_items() {
        let t = Trace::new(vec![item(2.0, 2), item(0.0, 0), item(1.0, 1)]);
        let values: Vec<i64> = t.items.iter().filter_map(|i| i.payload.as_i64()).collect();
        assert_eq!(values, vec![0, 1, 2]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn trace_save_load_round_trip() {
        let t = Trace::new(vec![
            item(0.0, 1).with_attr("hdop", Value::Float(1.5)),
            item(1.0, 2),
        ]);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let back = Trace::load(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn trace_file_round_trip() {
        let t = Trace::new(vec![item(0.0, 7)]);
        let dir = std::env::temp_dir().join("perpos-emulator-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.save_to_file(&path).unwrap();
        let emu = EmulatorSource::from_file("emu", &path).unwrap();
        assert_eq!(emu.remaining(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_trace_is_a_parse_error() {
        // A valid trace chopped mid-document must not round-trip.
        let t = Trace::new(vec![item(0.0, 1), item(1.0, 2)]);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let cut = &buf[..buf.len() / 2];
        match Trace::load(cut) {
            Err(TraceError::Parse(msg)) => assert!(!msg.is_empty()),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_shape_is_a_parse_error() {
        // Well-formed JSON that is not a trace document.
        let err = Trace::load(&b"[1, 2, 3]"[..]).unwrap_err();
        assert!(matches!(err, TraceError::Parse(_)), "got {err:?}");
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Trace::load_from_file("/nonexistent/perpos-trace.json").unwrap_err();
        assert!(matches!(err, TraceError::Io(_)), "got {err:?}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn emulator_replays_by_timestamp() {
        let trace = Trace::new(vec![item(0.0, 0), item(1.0, 1), item(5.0, 2)]);
        let mut emu = EmulatorSource::new("emu", trace);
        // t = 0: only the first item.
        let out = ComponentCtxProbe::run_tick(&mut emu).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.as_i64(), Some(0));
        // t = 2: the second.
        let mut ctx = perpos_core::component::ComponentCtx::new(SimTime::from_secs_f64(2.0));
        emu.on_tick(&mut ctx).unwrap();
        let out = ctx.take_emitted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.as_i64(), Some(1));
        assert_eq!(emu.invoke("remainingCount", &[]).unwrap(), Value::Int(1));
        // Far future: drains the rest.
        let mut ctx = perpos_core::component::ComponentCtx::new(SimTime::from_secs_f64(100.0));
        emu.on_tick(&mut ctx).unwrap();
        assert_eq!(ctx.take_emitted().len(), 1);
        assert_eq!(emu.remaining(), 0);
    }

    #[test]
    fn emulator_declares_trace_kinds() {
        let trace = Trace::new(vec![
            item(0.0, 1),
            DataItem::new(kinds::WIFI_SCAN, SimTime::ZERO, Value::Null),
        ]);
        let emu = EmulatorSource::new("emu", trace);
        let d = emu.descriptor();
        let provides = &d.output.unwrap().provides;
        assert!(provides.contains(&kinds::RAW_STRING));
        assert!(provides.contains(&kinds::WIFI_SCAN));
    }

    #[test]
    fn recorder_feature_records() {
        let recorder = TraceRecorderFeature::new();
        let handle = recorder.handle();
        let mut mw = Middleware::new();
        let mut n = 0;
        let src = mw.add_component(perpos_core::component::FnSource::new(
            "s",
            kinds::RAW_STRING,
            move |_| {
                n += 1;
                Some(Value::Int(n))
            },
        ));
        mw.attach_feature(src, recorder).unwrap();
        let app = mw.application_sink();
        mw.connect(src, app, 0).unwrap();
        mw.run_for(SimDuration::from_millis(300), SimDuration::from_millis(100))
            .unwrap();
        assert_eq!(handle.len(), 3);
        let trace = handle.trace();
        assert_eq!(trace.len(), 3);
        // Replay the recording through a fresh middleware: same values.
        let mut mw2 = Middleware::new();
        let emu = mw2.add_component(EmulatorSource::new("emu", trace));
        let app2 = mw2.application_sink();
        mw2.connect(emu, app2, 0).unwrap();
        let p = mw2
            .location_provider(perpos_core::positioning::Criteria::new())
            .unwrap();
        mw2.run_for(SimDuration::from_millis(300), SimDuration::from_millis(100))
            .unwrap();
        let values: Vec<i64> = p
            .history()
            .iter()
            .filter_map(|i| i.payload.as_i64())
            .collect();
        assert_eq!(values, vec![1, 2, 3]);
    }
}
