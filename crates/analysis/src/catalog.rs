//! The type catalog: what the analyzer knows about component *types*.
//!
//! A [`GraphConfig`](perpos_core::assembly::GraphConfig) references component types by name and says
//! nothing about their ports, so config-level analysis needs a side
//! channel describing each type. A [`TypeCatalog`] provides it, either
//! [probed](TypeCatalog::probe) from the same factories the configuration
//! will be instantiated with (always in sync) or loaded from JSON (for
//! offline linting with `perpos-lint --catalog`).

use std::collections::BTreeMap;

use perpos_core::assembly::ComponentFactory;
use perpos_core::component::{EffectSpec, TransferSpec};
use serde::{Deserialize, Serialize};

/// The reserved configuration kind for the middleware's application sink.
pub const APPLICATION_KIND: &str = "application";

/// Number of any-kind input ports the application sink exposes (mirrors
/// the core's `SINK_PORTS`).
const APPLICATION_PORTS: usize = 16;

/// Declaration of one input port of a component type.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PortSpec {
    /// Port name, for diagnostics.
    pub name: String,
    /// Data kinds the port accepts; empty means *any*.
    pub accepts: Vec<String>,
    /// Component Features the connected producer must carry.
    pub required_features: Vec<String>,
}

impl PortSpec {
    /// Whether the port lets items of `kind` through.
    pub fn accepts_kind(&self, kind: &str) -> bool {
        self.accepts.is_empty() || self.accepts.iter().any(|k| k == kind)
    }
}

/// Static description of one component type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentTypeSpec {
    /// Type name, as referenced by `ComponentConfig::kind`.
    pub kind: String,
    /// Role: `"source"`, `"processor"`, `"merge"` or `"sink"`.
    pub role: String,
    /// Input ports in port-index order.
    pub inputs: Vec<PortSpec>,
    /// Data kinds the output port provides; empty for sinks.
    pub provides: Vec<String>,
    /// Dataflow transfer metadata declared by the component type
    /// (mirrored from its descriptor by [`TypeCatalog::probe`]); absent
    /// means no declared semantics.
    pub transfer: Option<TransferSpec>,
    /// Effect metadata declared by the component type (mirrored from
    /// its descriptor by [`TypeCatalog::probe`]); absent means no
    /// declared effects (pure, snapshot-safe, deterministic).
    pub effects: Option<EffectSpec>,
}

impl ComponentTypeSpec {
    /// Whether instances of this type consume data (sink role).
    pub fn is_sink(&self) -> bool {
        self.role == "sink"
    }

    /// Whether instances of this type have an output port.
    pub fn has_output(&self) -> bool {
        !self.is_sink()
    }
}

/// A collection of component type descriptions keyed by type name.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TypeCatalog {
    /// The known types.
    pub types: Vec<ComponentTypeSpec>,
}

impl TypeCatalog {
    /// An empty catalog (knows only the built-in `"application"` type).
    pub fn new() -> Self {
        TypeCatalog::default()
    }

    /// Builds a catalog by instantiating each factory once and reading the
    /// produced component's declared descriptor. This is the translucency
    /// principle applied to tooling: the same declarations the graph
    /// validates at connect time feed the ahead-of-time analysis.
    pub fn probe(factories: &BTreeMap<String, ComponentFactory>) -> Self {
        let mut types = Vec::new();
        for (kind, factory) in factories {
            let component = factory();
            let d = component.descriptor();
            types.push(ComponentTypeSpec {
                kind: kind.clone(),
                role: d.role.to_string(),
                inputs: d
                    .inputs
                    .iter()
                    .map(|i| PortSpec {
                        name: i.name.clone(),
                        accepts: i.accepts.iter().map(|k| k.as_str().to_string()).collect(),
                        required_features: i.required_features.clone(),
                    })
                    .collect(),
                provides: d
                    .output
                    .as_ref()
                    .map(|o| o.provides.iter().map(|k| k.as_str().to_string()).collect())
                    .unwrap_or_default(),
                transfer: if d.transfer.is_empty() {
                    None
                } else {
                    Some(d.transfer.clone())
                },
                effects: if d.effects.is_empty() {
                    None
                } else {
                    Some(d.effects.clone())
                },
            });
        }
        TypeCatalog { types }
    }

    /// Adds (or replaces) a type description.
    pub fn insert(&mut self, spec: ComponentTypeSpec) {
        self.types.retain(|t| t.kind != spec.kind);
        self.types.push(spec);
    }

    /// Looks up a type by name. The reserved `"application"` kind is
    /// always known and resolves to the middleware's 16-port any-kind
    /// application sink.
    pub fn get(&self, kind: &str) -> Option<ComponentTypeSpec> {
        if let Some(t) = self.types.iter().find(|t| t.kind == kind) {
            return Some(t.clone());
        }
        if kind == APPLICATION_KIND {
            return Some(application_spec());
        }
        None
    }
}

/// The built-in description of the application sink.
pub fn application_spec() -> ComponentTypeSpec {
    ComponentTypeSpec {
        kind: APPLICATION_KIND.to_string(),
        role: "sink".to_string(),
        inputs: (0..APPLICATION_PORTS)
            .map(|i| PortSpec {
                name: format!("in{i}"),
                accepts: Vec::new(),
                required_features: Vec::new(),
            })
            .collect(),
        provides: Vec::new(),
        transfer: None,
        effects: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::prelude::*;

    fn factories() -> BTreeMap<String, ComponentFactory> {
        let mut f: BTreeMap<String, ComponentFactory> = BTreeMap::new();
        f.insert(
            "gps".into(),
            Box::new(|| {
                Box::new(FnSource::new("gps", kinds::RAW_STRING, |_| {
                    Some(Value::from("$GPGGA"))
                }))
            }),
        );
        f.insert(
            "parser".into(),
            Box::new(|| {
                Box::new(FnProcessor::new(
                    "parser",
                    vec![kinds::RAW_STRING],
                    kinds::NMEA_SENTENCE,
                    |i| Some(i.payload.clone()),
                ))
            }),
        );
        f
    }

    #[test]
    fn probe_reads_declared_descriptors() {
        let catalog = TypeCatalog::probe(&factories());
        let gps = catalog.get("gps").expect("gps probed");
        assert_eq!(gps.role, "source");
        assert!(gps.inputs.is_empty());
        assert_eq!(gps.provides, vec!["raw.string".to_string()]);
        let parser = catalog.get("parser").expect("parser probed");
        assert_eq!(parser.role, "processor");
        assert_eq!(parser.inputs.len(), 1);
        assert_eq!(parser.inputs[0].accepts, vec!["raw.string".to_string()]);
    }

    #[test]
    fn application_is_always_known() {
        let catalog = TypeCatalog::new();
        let app = catalog.get("application").expect("built-in");
        assert!(app.is_sink());
        assert!(!app.has_output());
        assert_eq!(app.inputs.len(), 16);
        assert!(app.inputs.iter().all(|p| p.accepts.is_empty()));
    }

    #[test]
    fn catalog_round_trips_through_json() {
        let catalog = TypeCatalog::probe(&factories());
        let json = serde_json::to_string_pretty(&catalog).expect("serializes");
        let back: TypeCatalog = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, catalog);
    }
}
