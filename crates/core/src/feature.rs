//! Component Features — small code modules that hook into a Processing
//! Component and augment it (paper §2.1, Fig. 3a).
//!
//! A [`ComponentFeature`] can augment its host component in the three ways
//! the paper enumerates:
//!
//! 1. **Changing produced data** — [`ComponentFeature::on_consume`] and
//!    [`ComponentFeature::on_produce`] intercept items flowing into and
//!    out of the component and may alter or drop them (the data *kind*
//!    cannot change, which the engine enforces).
//! 2. **Adding data** — a feature may call [`FeatureHost::emit`], which
//!    propagates the new item through the tree "as if it were produced by
//!    the component itself"; downstream ports must declare that they
//!    accept the added kind. Features may also *attach* attributes to a
//!    passing item (the common idiom for seam data like HDOP).
//! 3. **Changing component state** — [`ComponentFeature::invoke`] exposes
//!    new reflective methods, and the feature itself may call back into
//!    its host component through [`FeatureHost::invoke_component`].

use std::any::Any;
use std::borrow::Cow;
use std::fmt;

use crate::component::{Component, MethodSpec};
use crate::data::{DataItem, DataKind, Value};
use crate::{CoreError, SimTime};

/// Static description of a feature: its name, the data kinds it may add
/// to its host's output, and its reflective methods.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureDescriptor {
    /// Feature name; unique per host component (e.g. `"NumberOfSatellites"`).
    pub name: String,
    /// Data kinds the feature may emit through [`FeatureHost::emit`].
    /// These extend the host's output capabilities (paper §2.1).
    pub adds_kinds: Vec<DataKind>,
    /// Reflective methods the feature provides.
    pub methods: Vec<MethodSpec>,
    /// Names of components or features this feature depends on. For
    /// Channel Features the channel must contain a member component,
    /// attached Component Feature, or prior Channel Feature with each
    /// listed name (paper §2.2: "Input requirements may include Component
    /// Features, Channel Features, and Processing Components").
    pub requires: Vec<String>,
    /// Whether this feature anonymizes or aggregates identifiable sensor
    /// data passing through its host. Whole-graph privacy-taint analysis
    /// (`perpos-analysis` code P012) treats the host's output as clean
    /// when an anonymizing feature is attached.
    pub anonymizes: bool,
}

impl FeatureDescriptor {
    /// Creates a descriptor with no added kinds or methods.
    pub fn new(name: impl Into<String>) -> Self {
        FeatureDescriptor {
            name: name.into(),
            adds_kinds: Vec::new(),
            methods: Vec::new(),
            requires: Vec::new(),
            anonymizes: false,
        }
    }

    /// Marks the feature as anonymizing identifiable sensor data
    /// (builder style); see [`FeatureDescriptor::anonymizes`].
    pub fn anonymizing(mut self) -> Self {
        self.anonymizes = true;
        self
    }

    /// Declares an added data kind (builder style).
    pub fn adds(mut self, kind: DataKind) -> Self {
        self.adds_kinds.push(kind);
        self
    }

    /// Declares a dependency on a component or feature name (builder
    /// style).
    pub fn requiring(mut self, name: impl Into<String>) -> Self {
        self.requires.push(name.into());
        self
    }

    /// Declares a reflective method (builder style).
    pub fn method(mut self, spec: MethodSpec) -> Self {
        self.methods.push(spec);
        self
    }
}

/// Outcome of a feature intercepting an item.
#[derive(Debug)]
pub enum FeatureAction {
    /// Deliver the (possibly modified) item onward.
    Continue(DataItem),
    /// Swallow the item; it is not delivered further.
    Drop,
}

/// The view a running feature has of its host component.
///
/// Grants the three augmentation capabilities: emitting additional data as
/// the component, reflectively calling the component, and reading the
/// clock.
pub struct FeatureHost<'a> {
    component: &'a mut dyn Component,
    now: SimTime,
    emitted: Vec<DataItem>,
}

impl<'a> FeatureHost<'a> {
    /// Creates a host view over `component` at `now`. The engine builds
    /// these internally; tests may build one to unit-test a feature.
    pub fn new(component: &'a mut dyn Component, now: SimTime) -> Self {
        FeatureHost {
            component,
            now,
            emitted: Vec::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Emits `item` as if the host component had produced it
    /// (paper §2.1 "Adding Data"). The engine only forwards it to
    /// downstream ports that declare they accept the item's kind.
    pub fn emit(&mut self, item: DataItem) {
        self.emitted.push(item);
    }

    /// Convenience for [`FeatureHost::emit`] with a fresh item.
    pub fn emit_value(&mut self, kind: DataKind, payload: impl Into<crate::data::Payload>) {
        let item = DataItem::new(kind, self.now, payload);
        self.emit(item);
    }

    /// Reflectively invokes a method on the host component
    /// (paper §2.1 "Changing Component State").
    ///
    /// # Errors
    ///
    /// Propagates the component's [`CoreError::NoSuchMethod`] or other
    /// failure.
    pub fn invoke_component(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        self.component.invoke(method, args)
    }

    pub(crate) fn take_emitted(&mut self) -> Vec<DataItem> {
        std::mem::take(&mut self.emitted)
    }
}

impl fmt::Debug for FeatureHost<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeatureHost")
            .field("now", &self.now)
            .field("pending_emissions", &self.emitted.len())
            .finish()
    }
}

/// A Component Feature (paper §2.1, Fig. 3a).
///
/// Features are attached to graph nodes with
/// [`crate::graph::ProcessingGraph::attach_feature`] and run in attachment
/// order: `on_consume` before the host sees an input, `on_produce` after
/// the host emits an output.
pub trait ComponentFeature: Send {
    /// The feature's static declaration.
    fn descriptor(&self) -> FeatureDescriptor;

    /// Intercepts an item about to be consumed by the host component.
    ///
    /// The default passes the item through unchanged.
    ///
    /// # Errors
    ///
    /// Implementations report failures as [`CoreError::ComponentFailure`].
    fn on_consume(
        &mut self,
        item: DataItem,
        host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        let _ = host;
        Ok(FeatureAction::Continue(item))
    }

    /// Intercepts an item the host component just produced.
    ///
    /// The default passes the item through unchanged.
    ///
    /// # Errors
    ///
    /// Implementations report failures as [`CoreError::ComponentFailure`].
    fn on_produce(
        &mut self,
        item: DataItem,
        host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        let _ = host;
        Ok(FeatureAction::Continue(item))
    }

    /// Reflectively invokes one of the feature's methods. The host view
    /// lets state-manipulation features act on their component — e.g. the
    /// EnTracked Power Strategy toggles the GPS from `setPowerMode`
    /// (paper §3.3).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchMethod`] for unknown methods.
    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        host: &mut FeatureHost<'_>,
    ) -> Result<Value, CoreError> {
        let _ = (args, host);
        Err(CoreError::NoSuchMethod {
            target: self.descriptor().name,
            method: method.to_string(),
        })
    }

    /// Typed escape hatch for same-process callers that hold the concrete
    /// feature type (mirrors the paper's Java `getFeature(HDOP.class)`).
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Serializes the feature's internal state for a
    /// [`crate::Middleware::snapshot`] checkpoint; see
    /// [`crate::component::Component::snapshot_state`]. Default: `None`
    /// (stateless).
    fn snapshot_state(&self) -> Option<Value> {
        None
    }

    /// Applies state previously captured by
    /// [`ComponentFeature::snapshot_state`]. Default: no-op.
    fn restore_state(&mut self, state: &Value) {
        let _ = state;
    }
}

/// A feature that attaches a fixed attribute to every item produced by
/// its host. Useful for tagging provenance (e.g. `source = "gps"`).
#[derive(Debug, Clone)]
pub struct TagFeature {
    name: String,
    key: Cow<'static, str>,
    value: Value,
}

impl TagFeature {
    /// Creates a tagging feature named `name` that sets `key` to `value`
    /// on every produced item.
    pub fn new(name: impl Into<String>, key: impl Into<Cow<'static, str>>, value: Value) -> Self {
        TagFeature {
            name: name.into(),
            key: key.into(),
            value,
        }
    }
}

impl ComponentFeature for TagFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(self.name.clone())
    }

    fn on_produce(
        &mut self,
        mut item: DataItem,
        _host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        item.attrs.insert(self.key.clone(), self.value.clone());
        Ok(FeatureAction::Continue(item))
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentCtx, ComponentDescriptor, FnSource};
    use crate::data::kinds;

    struct DropEven {
        seen: i64,
    }

    impl ComponentFeature for DropEven {
        fn descriptor(&self) -> FeatureDescriptor {
            FeatureDescriptor::new("DropEven")
        }

        fn on_produce(
            &mut self,
            item: DataItem,
            _host: &mut FeatureHost<'_>,
        ) -> Result<FeatureAction, CoreError> {
            self.seen += 1;
            if self.seen % 2 == 0 {
                Ok(FeatureAction::Drop)
            } else {
                Ok(FeatureAction::Continue(item))
            }
        }

        fn invoke(
            &mut self,
            method: &str,
            _args: &[Value],
            _host: &mut FeatureHost<'_>,
        ) -> Result<Value, CoreError> {
            match method {
                "seen" => Ok(Value::Int(self.seen)),
                other => Err(CoreError::NoSuchMethod {
                    target: "DropEven".into(),
                    method: other.into(),
                }),
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn host_component() -> impl Component {
        FnSource::new("host", kinds::RAW_STRING, |_| None)
    }

    #[test]
    fn descriptor_builder() {
        let d = FeatureDescriptor::new("HDOP")
            .adds(kinds::NMEA_SENTENCE)
            .method(MethodSpec::new("getHDOP", "() -> float"));
        assert_eq!(d.name, "HDOP");
        assert_eq!(d.adds_kinds, vec![kinds::NMEA_SENTENCE]);
        assert_eq!(d.methods.len(), 1);
    }

    #[test]
    fn feature_can_drop_and_reflect() {
        let mut host = host_component();
        let mut hostref = FeatureHost::new(&mut host, SimTime::ZERO);
        let mut f = DropEven { seen: 0 };
        let item = DataItem::new(kinds::RAW_STRING, SimTime::ZERO, Value::Int(1));
        assert!(matches!(
            f.on_produce(item.clone(), &mut hostref).unwrap(),
            FeatureAction::Continue(_)
        ));
        assert!(matches!(
            f.on_produce(item, &mut hostref).unwrap(),
            FeatureAction::Drop
        ));
        assert_eq!(f.invoke("seen", &[], &mut hostref).unwrap(), Value::Int(2));
        assert!(f.invoke("nope", &[], &mut hostref).is_err());
    }

    #[test]
    fn host_emissions_are_collected() {
        let mut host = host_component();
        let mut hostref = FeatureHost::new(&mut host, SimTime::from_micros(7));
        hostref.emit_value(kinds::POSITION_ROOM, Value::from("R1"));
        let out = hostref.take_emitted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].timestamp, SimTime::from_micros(7));
        assert!(hostref.take_emitted().is_empty());
    }

    #[test]
    fn host_invoke_reaches_component() {
        struct Settable {
            v: i64,
        }
        impl Component for Settable {
            fn descriptor(&self) -> ComponentDescriptor {
                ComponentDescriptor::source("settable", vec![])
            }
            fn on_input(
                &mut self,
                _p: usize,
                _i: DataItem,
                _c: &mut ComponentCtx<'_>,
            ) -> Result<(), CoreError> {
                Ok(())
            }
            fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
                match method {
                    "set" => {
                        self.v = args[0].as_i64().unwrap_or(0);
                        Ok(Value::Null)
                    }
                    "get" => Ok(Value::Int(self.v)),
                    other => Err(CoreError::NoSuchMethod {
                        target: "settable".into(),
                        method: other.into(),
                    }),
                }
            }
        }
        let mut comp = Settable { v: 0 };
        let mut host = FeatureHost::new(&mut comp, SimTime::ZERO);
        host.invoke_component("set", &[Value::Int(5)]).unwrap();
        assert_eq!(host.invoke_component("get", &[]).unwrap(), Value::Int(5));
    }

    #[test]
    fn tag_feature_attaches_attribute() {
        let mut host = host_component();
        let mut hostref = FeatureHost::new(&mut host, SimTime::ZERO);
        let mut tag = TagFeature::new("SourceTag", "source", Value::from("gps"));
        let item = DataItem::new(kinds::POSITION_WGS84, SimTime::ZERO, Value::Null);
        let FeatureAction::Continue(out) = tag.on_produce(item, &mut hostref).unwrap() else {
            panic!("tag must not drop");
        };
        assert_eq!(out.attr("source").and_then(Value::as_text), Some("gps"));
    }

    #[test]
    fn as_any_mut_downcasts() {
        let mut f = DropEven { seen: 3 };
        let any = f.as_any_mut();
        assert_eq!(any.downcast_mut::<DropEven>().unwrap().seen, 3);
    }
}
