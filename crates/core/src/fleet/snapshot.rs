//! Versioned instance checkpoints: everything a [`Middleware`] needs to
//! resume byte-identically after a crash.
//!
//! A [`Snapshot`] captures the *dynamic* state of one middleware
//! instance — logical time, per-channel ring state, supervision records,
//! pending reflective emissions and the opaque per-component /
//! per-feature state exposed through
//! [`Component::snapshot_state`](crate::component::Component::snapshot_state) —
//! together with a signature of the graph *structure* it was taken from.
//! Restoring applies that state into a structurally identical instance
//! (typically rebuilt by the same factory that built the original), so
//! component code and wiring come from the factory while every counter,
//! buffer and RNG position comes from the checkpoint. The contract,
//! proven by `tests/fleet_recovery.rs`: a restored instance stepped `k`
//! times produces byte-identical trees, history and health to the
//! original stepped `k` times without interruption.
//!
//! [`Middleware`]: crate::Middleware

use crate::channel::ChannelLayerSnapshot;
use crate::data::{DataItem, Value};
use crate::distribution::Deployment;
use crate::executor::ExecMode;
use crate::graph::{NodeId, ProcessingGraph};
use crate::supervision::HealthRegistry;
use crate::SimTime;

/// Version tag written into every [`Snapshot`].
///
/// Version rules: the number is bumped whenever the captured state's
/// shape changes incompatibly (a field added to the channel ring state,
/// a different health-registry layout, …).
/// [`Middleware::restore`](crate::Middleware::restore) rejects
/// snapshots whose version differs from the build's — a fleet never
/// silently resumes from a checkpoint it may misinterpret.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Structural identity of one node, used to verify that a snapshot is
/// restored into the graph it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeSignature {
    pub id: NodeId,
    pub name: String,
    pub inputs: Vec<Option<NodeId>>,
    pub features: Vec<String>,
}

/// The structure signature of a whole graph: node ids are allocated
/// sequentially and never reused, so a factory rebuilding the same
/// pipeline reproduces identical ids and the signatures compare equal.
///
/// Reads the nodes in place and copies only the fields the signature
/// keeps — not the full descriptors a [`ProcessingGraph::info`] record
/// would clone.
pub(crate) fn structure_signature(graph: &ProcessingGraph) -> Vec<NodeSignature> {
    graph
        .node_ids()
        .filter_map(|id| graph.node(id).map(|node| (id, node)))
        .map(|(id, node)| NodeSignature {
            id,
            name: node.descriptor.name.clone(),
            inputs: node.inputs.clone(),
            features: node
                .features
                .iter()
                .map(|slot| slot.descriptor.name.clone())
                .collect(),
        })
        .collect()
}

/// A checkpoint of one middleware instance; see the module docs.
///
/// Snapshots are in-memory values (cheap: payloads stay behind shared
/// `Arc`s) created by [`Middleware::snapshot`](crate::Middleware::snapshot)
/// and consumed by [`Middleware::restore`](crate::Middleware::restore).
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) version: u32,
    pub(crate) structure: Vec<NodeSignature>,
    pub(crate) now: SimTime,
    pub(crate) steps_run: u64,
    pub(crate) exec_mode: ExecMode,
    pub(crate) channels: ChannelLayerSnapshot,
    pub(crate) health: HealthRegistry,
    pub(crate) pending: Vec<(NodeId, DataItem)>,
    pub(crate) deployment: Option<Deployment>,
    /// Opaque per-component state, only for components that returned
    /// `Some` from `snapshot_state`.
    pub(crate) component_state: Vec<(NodeId, Value)>,
    /// Opaque per-feature state, keyed by `(node, feature index)`.
    pub(crate) feature_state: Vec<((NodeId, usize), Value)>,
}

impl Snapshot {
    /// The format version the snapshot was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Simulated time at capture.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine steps the instance had run at capture.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Number of nodes in the captured structure.
    pub fn node_count(&self) -> usize {
        self.structure.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{ComponentFactory, GraphConfig};
    use crate::component::{
        Component, ComponentCtx, ComponentDescriptor, EffectSpec, InputSpec, TransferSpec,
    };
    use crate::data::{kinds, DataKind};
    use crate::feature::TagFeature;
    use crate::{CoreError, Middleware};
    use std::collections::BTreeMap;

    /// The builder the lean signature replaced, kept as the reference:
    /// it goes through the full [`ProcessingGraph::info`] record.
    fn reference_signature(graph: &ProcessingGraph) -> Vec<NodeSignature> {
        graph
            .node_ids()
            .filter_map(|id| graph.info(id).ok())
            .map(|info| NodeSignature {
                id: info.id,
                name: info.descriptor.name,
                inputs: info.inputs,
                features: info.features.into_iter().map(|f| f.name).collect(),
            })
            .collect()
    }

    fn assert_lean_matches_reference(mw: &Middleware, when: &str) {
        let lean = structure_signature(mw.graph());
        assert_eq!(lean.len(), mw.graph().len(), "{when}");
        assert_eq!(lean, reference_signature(mw.graph()), "{when}");
    }

    /// A component that only declares ports and rich metadata: the
    /// signature reads descriptors, never behaviour.
    struct Stub(ComponentDescriptor);

    impl Component for Stub {
        fn descriptor(&self) -> ComponentDescriptor {
            self.0.clone()
        }

        fn on_input(
            &mut self,
            _port: usize,
            _item: crate::data::DataItem,
            _ctx: &mut ComponentCtx<'_>,
        ) -> Result<(), CoreError> {
            Ok(())
        }
    }

    fn stub(descriptor: ComponentDescriptor) -> Box<dyn Component> {
        let descriptor = descriptor
            .with_transfer(TransferSpec::new().with_frame("wgs84"))
            .with_effects(EffectSpec {
                stateful: Some(true),
                ..EffectSpec::new()
            });
        Box::new(Stub(descriptor))
    }

    fn processor(name: &'static str, accepts: DataKind, provides: DataKind) -> ComponentFactory {
        Box::new(move || {
            stub(ComponentDescriptor::processor(
                name,
                InputSpec::new("in", vec![accepts.clone()]),
                vec![provides.clone()],
            ))
        })
    }

    fn source(name: &'static str, provides: DataKind) -> ComponentFactory {
        Box::new(move || stub(ComponentDescriptor::source(name, vec![provides.clone()])))
    }

    /// Stub factories for every component type the example
    /// configurations reference.
    fn factories() -> BTreeMap<String, ComponentFactory> {
        let mut f: BTreeMap<String, ComponentFactory> = BTreeMap::new();
        f.insert("gps".into(), source("GPS", kinds::RAW_STRING));
        f.insert("wifi".into(), source("WiFi", kinds::WIFI_SCAN));
        f.insert(
            "parser".into(),
            processor("Parser", kinds::RAW_STRING, kinds::NMEA_SENTENCE),
        );
        f.insert(
            "geodecoder".into(),
            processor("Interpreter", kinds::NMEA_SENTENCE, kinds::POSITION_WGS84),
        );
        f.insert(
            "wifipositioning".into(),
            processor("WiFiPositioning", kinds::WIFI_SCAN, kinds::POSITION_WGS84),
        );
        f.insert(
            "fusion".into(),
            Box::new(|| {
                stub(ComponentDescriptor::merge(
                    "Fusion",
                    vec![
                        InputSpec::new("gps", vec![kinds::POSITION_WGS84]),
                        InputSpec::new("wifi", vec![kinds::POSITION_WGS84]),
                    ],
                    vec![kinds::POSITION_WGS84],
                ))
            }),
        );
        f
    }

    const EXAMPLE_CONFIGS: [(&str, &str); 3] = [
        (
            "gps_pipeline",
            include_str!("../../../../examples/configs/gps_pipeline.json"),
        ),
        (
            "fused_positioning",
            include_str!("../../../../examples/configs/fused_positioning.json"),
        ),
        (
            "fleet_gps",
            include_str!("../../../../examples/configs/fleet_gps.json"),
        ),
    ];

    fn instantiate(json: &str) -> (Middleware, BTreeMap<String, NodeId>) {
        let config: GraphConfig = serde_json::from_str(json).unwrap();
        let mut mw = Middleware::new();
        let nodes = config.instantiate(&mut mw, &factories()).unwrap();
        (mw, nodes)
    }

    #[test]
    fn lean_signature_matches_reference_on_example_configs() {
        for (name, json) in EXAMPLE_CONFIGS {
            let (mut mw, nodes) = instantiate(json);
            assert_lean_matches_reference(&mw, name);
            mw.attach_feature(nodes["parse0"], TagFeature::new("Tag", "k", 1i64.into()))
                .unwrap();
            assert_lean_matches_reference(&mw, &format!("{name} + feature"));
        }
    }

    #[test]
    fn lean_signature_matches_reference_through_the_adaptation_cycle() {
        let (mut mw, nodes) = instantiate(EXAMPLE_CONFIGS[1].1);
        let (parser, interpreter) = (nodes["parse0"], nodes["decode0"]);
        assert_lean_matches_reference(&mw, "built");

        mw.attach_feature(parser, TagFeature::new("NumSats", "n", 1i64.into()))
            .unwrap();
        assert_lean_matches_reference(&mw, "attach feature");

        let filter = mw.add_boxed_component(processor(
            "SatelliteFilter",
            kinds::NMEA_SENTENCE,
            kinds::NMEA_SENTENCE,
        )());
        assert_lean_matches_reference(&mw, "add filter");
        mw.insert_between(filter, parser, interpreter, 0).unwrap();
        assert_lean_matches_reference(&mw, "insert_between");

        mw.remove_component(filter).unwrap();
        assert_lean_matches_reference(&mw, "remove filter");
        mw.connect(parser, interpreter, 0).unwrap();
        assert_lean_matches_reference(&mw, "reconnect");

        mw.detach_feature(parser, "NumSats").unwrap();
        assert_lean_matches_reference(&mw, "detach feature");
    }

    #[test]
    fn restore_rejects_renamed_extra_feature_and_rewired_graphs() {
        let json = EXAMPLE_CONFIGS[0].1;
        let (original, _) = instantiate(json);
        let snap = original.snapshot();
        let mismatch = CoreError::ComponentFailure {
            component: "snapshot".into(),
            reason: "snapshot structure does not match this graph".into(),
        };

        // The same factory output restores.
        let (mut same, _) = instantiate(json);
        assert_eq!(same.restore(&snap), Ok(()));

        // A renamed component.
        let renamed_json = json.replace("\"geodecoder\"", "\"renamed\"");
        let config: GraphConfig = serde_json::from_str(&renamed_json).unwrap();
        let mut f = factories();
        f.insert(
            "renamed".into(),
            processor("Decoder", kinds::NMEA_SENTENCE, kinds::POSITION_WGS84),
        );
        let mut renamed = Middleware::new();
        config.instantiate(&mut renamed, &f).unwrap();
        assert_eq!(renamed.restore(&snap), Err(mismatch.clone()));

        // An extra feature.
        let (mut featured, nodes) = instantiate(json);
        featured
            .attach_feature(nodes["gps0"], TagFeature::new("Tag", "k", 1i64.into()))
            .unwrap();
        assert_eq!(featured.restore(&snap), Err(mismatch.clone()));

        // Different wiring: the decoder feeds nothing.
        let mut config: GraphConfig = serde_json::from_str(json).unwrap();
        config.connections.retain(|c| c.to != "app");
        let mut rewired = Middleware::new();
        config.instantiate(&mut rewired, &factories()).unwrap();
        assert_eq!(rewired.restore(&snap), Err(mismatch));
    }
}
