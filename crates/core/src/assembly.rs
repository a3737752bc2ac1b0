//! Declarative and dynamic assembly of processing graphs.
//!
//! The paper realizes PerPos on OSGi: Processing Components are service
//! components, and "the dynamic composition mechanisms of OSGi is used for
//! connecting the components" (§3). Custom components declare
//! requirements and capabilities; "as custom components are added to the
//! PerPos middleware the dependencies are resolved and when satisfied the
//! components are added to the processing graph appropriately" (§2.1).
//!
//! [`Assembler`] reproduces that mechanism without a separate service
//! registry: component *factories* are registered with the data kinds
//! they provide and require, and [`Assembler::sync`] resolves them by
//! matching required kinds to provided ones, builds each resolved factory
//! into a [`Middleware`]'s graph and connects each requirement to the node
//! built for its provider. Because resolution happens at sync, a factory
//! that could resolve only between two syncs (say, a consumer whose
//! provider is registered and unregistered in that window) is never
//! built.
//! [`GraphConfig`] is the explicit, declarative path: a stored list of
//! instances and connections.
//!
//! # Examples
//!
//! ```
//! use perpos_core::assembly::Assembler;
//! use perpos_core::prelude::*;
//!
//! let mut mw = Middleware::new();
//! let mut asm = Assembler::new();
//! // Register a consumer before its producer: nothing happens yet.
//! asm.register_factory(
//!     "parser",
//!     &[kinds::NMEA_SENTENCE],
//!     &[kinds::RAW_STRING],
//!     || {
//!         Box::new(FnProcessor::new(
//!             "parser",
//!             vec![kinds::RAW_STRING],
//!             kinds::NMEA_SENTENCE,
//!             |i| Some(i.payload.clone()),
//!         ))
//!     },
//! );
//! asm.register_factory("gps", &[kinds::RAW_STRING], &[], || {
//!     Box::new(FnSource::new("gps", kinds::RAW_STRING, |_| Some(Value::from("$GP"))))
//! });
//! // Both resolve once the producer exists; the graph now has the edge.
//! let added = asm.sync(&mut mw)?;
//! assert_eq!(added, 2);
//! # Ok::<(), perpos_core::CoreError>(())
//! ```

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::component::Component;
use crate::data::DataKind;
use crate::graph::NodeId;
use crate::{CoreError, Middleware};

/// A boxed constructor for one component type; graph configurations and
/// the assembler instantiate components exclusively through these, so
/// tooling (e.g. `perpos-analysis`'s catalog probe) can introspect the
/// descriptors a configuration will produce.
pub type ComponentFactory = Box<dyn Fn() -> Box<dyn Component> + Send + Sync>;

type Factory = ComponentFactory;

/// One component instance in a declarative graph configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentConfig {
    /// Instance name, unique within the configuration.
    pub name: String,
    /// Factory type to instantiate, or the reserved `"application"` for
    /// the middleware's application sink.
    pub kind: String,
    /// Declarative fault policy for the instance: `"propagate"`,
    /// `"drop_item"`, `"restart"` or `"quarantine"` (breaker defaults,
    /// see [`crate::supervision::FaultPolicy::quarantine_default`]).
    /// Absent means [`crate::supervision::FaultPolicy::Propagate`].
    pub fault_policy: Option<String>,
    /// Per-instance override of the component type's dataflow transfer
    /// metadata ([`crate::component::TransferSpec`]); fields declared
    /// here replace the corresponding type-level fields during
    /// whole-graph analysis. Absent means "use the type's spec".
    pub transfer: Option<crate::component::TransferSpec>,
    /// Per-instance override of the component type's effect metadata
    /// ([`crate::component::EffectSpec`]); fields declared here replace
    /// the corresponding type-level fields during whole-graph analysis.
    /// Absent means "use the type's spec".
    pub effects: Option<crate::component::EffectSpec>,
}

/// One edge in a declarative graph configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionConfig {
    /// Producing instance name.
    pub from: String,
    /// Consuming instance name.
    pub to: String,
    /// Input port on the consumer.
    pub port: usize,
}

/// Declarative fleet deployment for a configuration: how many replicas
/// of the described process a [`crate::fleet::FleetPool`] should run and
/// how its supervision ladder is provisioned. The spec is deployment
/// advice — [`GraphConfig::instantiate`] ignores it (it always builds
/// one instance); [`GraphConfig::fleet_pool`] and fleet-aware tooling
/// (`perpos-lint`'s P016 pass) consume it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Total middleware instances the pool replicates the process into.
    pub instances: usize,
    /// Shards to spread the instances over; absent lets the pool derive
    /// a shard count from the instance count.
    pub shards: Option<usize>,
    /// Checkpoint cadence in shard rounds; absent uses the
    /// [`crate::fleet::FleetConfig`] default.
    pub checkpoint_every: Option<u64>,
    /// Worker threads stepping the shards: absent or `1` steps them
    /// serially on the calling thread, `0` runs a machine-sized
    /// work-stealing pool, and any other `n` runs `n` work-stealing
    /// workers. See [`crate::fleet::FleetScheduler`].
    pub workers: Option<usize>,
}

impl FleetSpec {
    /// Resolves the spec into a concrete [`crate::fleet::FleetConfig`],
    /// filling unspecified knobs from the fleet defaults (one shard per
    /// ~320 instances, default watchdog thresholds and seed).
    pub fn to_fleet_config(&self) -> crate::fleet::FleetConfig {
        let defaults = crate::fleet::FleetConfig::default();
        crate::fleet::FleetConfig {
            shards: self.shards.unwrap_or_else(|| (self.instances / 320).max(1)),
            instances: self.instances,
            checkpoint_every: self.checkpoint_every.unwrap_or(defaults.checkpoint_every),
            scheduler: self.resolved_scheduler(),
            ..defaults
        }
    }

    /// The [`crate::fleet::FleetScheduler`] this spec requests:
    /// [`FleetSpec::workers`] other than 1 means work stealing with that
    /// many workers, and everything else is serial.
    pub fn resolved_scheduler(&self) -> crate::fleet::FleetScheduler {
        use crate::fleet::FleetScheduler;
        match self.workers {
            Some(workers) if workers != 1 => FleetScheduler::WorkStealing { workers },
            _ => FleetScheduler::Serial,
        }
    }
}

/// A declarative, serializable description of a positioning process —
/// the paper's third composition path: "connections are established
/// either by direct calls to the graph manipulation API, based on
/// **explicitly defined system level configurations** or through dynamic
/// resolution of dependencies" (§2.1).
///
/// The configuration references component *types* by name; the caller
/// supplies a factory per type, so configurations can be stored as data
/// (JSON via serde) and applied to any middleware instance.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Component instances to create.
    pub components: Vec<ComponentConfig>,
    /// Edges between them.
    pub connections: Vec<ConnectionConfig>,
    /// Fleet deployment for the process; absent means a single
    /// unsupervised instance. See [`FleetSpec`].
    pub fleet: Option<FleetSpec>,
}

impl GraphConfig {
    /// Instantiates the configuration into `mw`, using `factories` to
    /// build each component type. Returns the instance-name → node map.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ComponentFailure`] for unknown types or
    /// instance names, and propagates connection validation errors (the
    /// same checks as the direct manipulation API).
    pub fn instantiate(
        &self,
        mw: &mut Middleware,
        factories: &BTreeMap<String, Factory>,
    ) -> Result<BTreeMap<String, NodeId>, CoreError> {
        let mut nodes = BTreeMap::new();
        for c in &self.components {
            let node = if c.kind == "application" {
                mw.application_sink()
            } else {
                let factory =
                    factories
                        .get(&c.kind)
                        .ok_or_else(|| CoreError::ComponentFailure {
                            component: c.name.clone(),
                            reason: format!("no factory registered for type {:?}", c.kind),
                        })?;
                mw.add_boxed_component(factory())
            };
            if let Some(policy_name) = &c.fault_policy {
                let policy =
                    crate::supervision::FaultPolicy::from_name(policy_name).ok_or_else(|| {
                        CoreError::ComponentFailure {
                            component: c.name.clone(),
                            reason: format!("unknown fault policy {policy_name:?}"),
                        }
                    })?;
                mw.set_fault_policy(node, policy)?;
            }
            if nodes.insert(c.name.clone(), node).is_some() {
                return Err(CoreError::ComponentFailure {
                    component: c.name.clone(),
                    reason: "duplicate instance name in configuration".into(),
                });
            }
        }
        for edge in &self.connections {
            let from = *nodes
                .get(&edge.from)
                .ok_or_else(|| CoreError::ComponentFailure {
                    component: edge.from.clone(),
                    reason: "connection references unknown instance".into(),
                })?;
            let to = *nodes
                .get(&edge.to)
                .ok_or_else(|| CoreError::ComponentFailure {
                    component: edge.to.clone(),
                    reason: "connection references unknown instance".into(),
                })?;
            mw.connect(from, to, edge.port)?;
        }
        Ok(nodes)
    }

    /// Stands the configuration up as a supervised
    /// [`crate::fleet::FleetPool`], replicating the process per its
    /// [`FleetSpec`] (one single-instance pool when the `fleet` block is
    /// absent). The configuration is validated by instantiating it once
    /// up front, so the pool's per-instance factory — also used by the
    /// checkpoint-restart path — cannot fail later.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`GraphConfig::instantiate`], before
    /// any pool is built.
    pub fn fleet_pool(
        &self,
        factories: BTreeMap<String, Factory>,
    ) -> Result<crate::fleet::FleetPool, CoreError> {
        let spec = self.fleet.clone().unwrap_or(FleetSpec {
            instances: 1,
            shards: Some(1),
            checkpoint_every: None,
            workers: None,
        });
        let mut probe = Middleware::new();
        self.instantiate(&mut probe, &factories)?;
        let template = self.clone();
        Ok(crate::fleet::FleetPool::new(
            spec.to_fleet_config(),
            move |_index| {
                let mut mw = Middleware::new();
                template
                    .instantiate(&mut mw, &factories)
                    .expect("template validated at pool construction");
                mw
            },
        ))
    }
}

/// Identifier of a factory registered with an [`Assembler`]. Ids are
/// assigned in registration order and never reused; a lower id wins when
/// several resolved factories provide a required kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactoryId(u64);

/// A registered factory: the data kinds it declares, and the node it was
/// built as once resolved, with the provider chosen for each requirement.
struct Registration {
    name: String,
    provides: Vec<DataKind>,
    requires: Vec<DataKind>,
    factory: Factory,
    /// The built node and, per requirement, the provider wired to it.
    built: Option<(NodeId, Vec<FactoryId>)>,
}

/// Builds component factories into a [`Middleware`]'s graph as their
/// declared dependencies resolve, wiring each requirement to the node
/// built for its provider.
///
/// Resolution happens in [`Assembler::sync`], over the factories
/// registered at that moment:
///
/// * a factory resolves once every kind it requires is provided by
///   another factory that is already resolved (never by itself), so
///   chains resolve source-first;
/// * the provider with the lowest [`FactoryId`] is chosen;
/// * a resolved factory keeps its providers until one is unregistered or
///   unresolves; then its node is removed, and it re-resolves, onto an
///   alternative if one exists, as a fresh node;
/// * passes run in ascending id order until nothing changes.
#[derive(Default)]
pub struct Assembler {
    next_id: u64,
    factories: BTreeMap<FactoryId, Registration>,
}

impl std::fmt::Debug for Assembler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(
                self.factories
                    .iter()
                    .map(|(id, r)| (id, (&r.name, r.built.as_ref().map(|b| b.0)))),
            )
            .finish()
    }
}

impl Assembler {
    /// Creates an assembler with no factories.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Registers a component factory declaring the data kinds it provides
    /// and requires. Nothing is built until the next [`Assembler::sync`].
    ///
    /// Each required kind becomes one input port wire: the i-th
    /// requirement connects the provider's node to input port i of the
    /// instantiated component.
    pub fn register_factory(
        &mut self,
        name: &str,
        provides: &[DataKind],
        requires: &[DataKind],
        factory: impl Fn() -> Box<dyn Component> + Send + Sync + 'static,
    ) -> FactoryId {
        self.next_id += 1;
        let id = FactoryId(self.next_id);
        self.factories.insert(
            id,
            Registration {
                name: name.to_string(),
                provides: provides.to_vec(),
                requires: requires.to_vec(),
                factory: Box::new(factory),
                built: None,
            },
        );
        id
    }

    /// Unregisters a factory and removes its built component at once; the
    /// next [`Assembler::sync`] removes its dependents' nodes. Unknown
    /// ids are ignored.
    ///
    /// # Errors
    ///
    /// Propagates graph errors.
    pub fn unregister_factory(
        &mut self,
        id: FactoryId,
        mw: &mut Middleware,
    ) -> Result<(), CoreError> {
        if let Some((node, _)) = self.factories.remove(&id).and_then(|r| r.built) {
            mw.remove_component(node)?;
        }
        Ok(())
    }

    /// The node a resolved factory was built as, if any.
    pub fn node_for(&self, id: FactoryId) -> Option<NodeId> {
        self.factories.get(&id)?.built.as_ref().map(|b| b.0)
    }

    /// Resolves the registered factories and applies the net change to
    /// `mw`: removes the nodes of factories that lost a provider, then
    /// builds and wires every factory that resolves. Returns the number
    /// of components built.
    ///
    /// # Errors
    ///
    /// Propagates graph errors (e.g. incompatible wires).
    pub fn sync(&mut self, mw: &mut Middleware) -> Result<usize, CoreError> {
        // Unresolve, to a fixed point, every factory wired to a provider
        // that is gone or itself unresolved.
        while let Some(id) = self.factories.iter().find_map(|(id, r)| {
            let (_, providers) = r.built.as_ref()?;
            let broken = providers.iter().any(|p| self.node_for(*p).is_none());
            broken.then_some(*id)
        }) {
            if let Some((node, _)) = self.factories.get_mut(&id).and_then(|r| r.built.take()) {
                mw.remove_component(node)?;
            }
        }

        let mut added = 0;
        loop {
            let mut progressed = false;
            let ids: Vec<FactoryId> = self.factories.keys().copied().collect();
            for id in ids {
                let r = &self.factories[&id];
                if r.built.is_some() {
                    continue;
                }
                // The lowest-id resolved provider of each required kind.
                let provider = |kind: &DataKind| {
                    self.factories.iter().find_map(|(pid, p)| {
                        let (node, _) = p.built.as_ref()?;
                        (*pid != id && p.provides.contains(kind)).then_some((*pid, *node))
                    })
                };
                let Some(wires) = r.requires.iter().map(provider).collect::<Option<Vec<_>>>()
                else {
                    continue;
                };
                let node = mw.add_boxed_component((r.factory)());
                if let Some(r) = self.factories.get_mut(&id) {
                    r.built = Some((node, wires.iter().map(|w| w.0).collect()));
                }
                added += 1;
                progressed = true;
                for (port, (_, provider_node)) in wires.into_iter().enumerate() {
                    mw.connect(provider_node, node, port)?;
                }
            }
            if !progressed {
                break;
            }
        }
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{FnProcessor, FnSource};
    use crate::data::{kinds, Value};
    use crate::positioning::Criteria;
    use crate::SimDuration;

    fn gps_factory() -> Box<dyn Component> {
        Box::new(FnSource::new("gps", kinds::RAW_STRING, |_| {
            Some(Value::from("$GPGGA"))
        }))
    }

    fn parser_factory() -> Box<dyn Component> {
        Box::new(FnProcessor::new(
            "parser",
            vec![kinds::RAW_STRING],
            kinds::NMEA_SENTENCE,
            |i| Some(i.payload.clone()),
        ))
    }

    #[test]
    fn graph_config_instantiates_a_pipeline() {
        let mut factories: BTreeMap<String, Factory> = BTreeMap::new();
        factories.insert("gps".into(), Box::new(gps_factory));
        factories.insert("parser".into(), Box::new(parser_factory));
        let config = GraphConfig {
            components: vec![
                ComponentConfig {
                    name: "gps0".into(),
                    kind: "gps".into(),
                    fault_policy: None,
                    transfer: None,
                    effects: None,
                },
                ComponentConfig {
                    name: "parse0".into(),
                    kind: "parser".into(),
                    fault_policy: None,
                    transfer: None,
                    effects: None,
                },
                ComponentConfig {
                    name: "app".into(),
                    kind: "application".into(),
                    fault_policy: None,
                    transfer: None,
                    effects: None,
                },
            ],
            connections: vec![
                ConnectionConfig {
                    from: "gps0".into(),
                    to: "parse0".into(),
                    port: 0,
                },
                ConnectionConfig {
                    from: "parse0".into(),
                    to: "app".into(),
                    port: 0,
                },
            ],
            fleet: None,
        };
        let mut mw = Middleware::new();
        let nodes = config.instantiate(&mut mw, &factories).unwrap();
        assert_eq!(nodes.len(), 3);
        mw.run_for(SimDuration::from_millis(100), SimDuration::from_millis(100))
            .unwrap();
        let p = mw.location_provider(Criteria::new()).unwrap();
        assert_eq!(p.last_item().unwrap().kind, kinds::NMEA_SENTENCE);
    }

    #[test]
    fn graph_config_stands_up_a_fleet_pool() {
        let mut factories: BTreeMap<String, Factory> = BTreeMap::new();
        factories.insert("gps".into(), Box::new(gps_factory));
        factories.insert("parser".into(), Box::new(parser_factory));
        let config = GraphConfig {
            components: vec![
                ComponentConfig {
                    name: "gps0".into(),
                    kind: "gps".into(),
                    fault_policy: Some("drop_item".into()),
                    transfer: None,
                    effects: None,
                },
                ComponentConfig {
                    name: "parse0".into(),
                    kind: "parser".into(),
                    fault_policy: None,
                    transfer: None,
                    effects: None,
                },
                ComponentConfig {
                    name: "app".into(),
                    kind: "application".into(),
                    fault_policy: None,
                    transfer: None,
                    effects: None,
                },
            ],
            connections: vec![
                ConnectionConfig {
                    from: "gps0".into(),
                    to: "parse0".into(),
                    port: 0,
                },
                ConnectionConfig {
                    from: "parse0".into(),
                    to: "app".into(),
                    port: 0,
                },
            ],
            fleet: Some(FleetSpec {
                instances: 12,
                shards: Some(3),
                checkpoint_every: Some(4),
                workers: Some(2),
            }),
        };
        let mut pool = config.fleet_pool(factories).unwrap();
        assert_eq!(pool.instances(), 12);
        assert_eq!(pool.shards().len(), 3);
        pool.run(8, SimDuration::from_millis(100));
        assert_eq!(pool.totals().live_steps, 12 * 8);
        assert!((pool.availability() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn fleet_spec_resolves_defaults() {
        let spec = FleetSpec {
            instances: 1000,
            shards: None,
            checkpoint_every: None,
            workers: None,
        };
        let resolved = spec.to_fleet_config();
        assert_eq!(resolved.instances, 1000);
        assert_eq!(resolved.shards, 3);
        assert_eq!(
            resolved.checkpoint_every,
            crate::fleet::FleetConfig::default().checkpoint_every
        );
    }

    #[test]
    fn fleet_pool_rejects_invalid_templates_up_front() {
        let factories: BTreeMap<String, Factory> = BTreeMap::new();
        let config = GraphConfig {
            components: vec![ComponentConfig {
                name: "x".into(),
                kind: "nope".into(),
                fault_policy: None,
                transfer: None,
                effects: None,
            }],
            connections: vec![],
            fleet: Some(FleetSpec {
                instances: 4,
                shards: None,
                checkpoint_every: None,
                workers: None,
            }),
        };
        assert!(config.fleet_pool(factories).is_err());
    }

    #[test]
    fn graph_config_rejects_bad_references() {
        let factories: BTreeMap<String, Factory> = BTreeMap::new();
        let mut mw = Middleware::new();
        // Unknown type.
        let bad_type = GraphConfig {
            components: vec![ComponentConfig {
                name: "x".into(),
                kind: "nope".into(),
                fault_policy: None,
                transfer: None,
                effects: None,
            }],
            connections: vec![],
            fleet: None,
        };
        assert!(bad_type.instantiate(&mut mw, &factories).is_err());
        // Unknown instance in a connection.
        let bad_edge = GraphConfig {
            components: vec![ComponentConfig {
                name: "app".into(),
                kind: "application".into(),
                fault_policy: None,
                transfer: None,
                effects: None,
            }],
            connections: vec![ConnectionConfig {
                from: "ghost".into(),
                to: "app".into(),
                port: 0,
            }],
            fleet: None,
        };
        assert!(bad_edge.instantiate(&mut mw, &factories).is_err());
        // Duplicate instance names.
        let dup = GraphConfig {
            components: vec![
                ComponentConfig {
                    name: "app".into(),
                    kind: "application".into(),
                    fault_policy: None,
                    transfer: None,
                    effects: None,
                },
                ComponentConfig {
                    name: "app".into(),
                    kind: "application".into(),
                    fault_policy: None,
                    transfer: None,
                    effects: None,
                },
            ],
            connections: vec![],
            fleet: None,
        };
        assert!(dup.instantiate(&mut mw, &factories).is_err());
    }

    #[test]
    fn stored_configs_with_an_executor_key_still_load() {
        // Configs written before the engine became a single loop carry
        // an `"executor"` field; unknown keys are ignored on load.
        let json = r#"{"components": [], "connections": [], "executor": "level-parallel",
            "fleet": null}"#;
        let config: GraphConfig = serde_json::from_str(json).unwrap();
        assert_eq!(config, GraphConfig::default());
    }

    #[test]
    fn stored_fleet_blocks_with_a_scheduler_key_still_load() {
        // Fleet blocks written before `workers` alone chose the scheduler
        // carry a `"scheduler"` name; it is ignored on load, an unknown
        // name included, and `workers` decides.
        use crate::fleet::FleetScheduler;
        for (name, workers, expected) in [
            (
                "work_stealing",
                "4",
                FleetScheduler::WorkStealing { workers: 4 },
            ),
            ("serial", "4", FleetScheduler::WorkStealing { workers: 4 }),
            ("threads", "0", FleetScheduler::WorkStealing { workers: 0 }),
            ("work_stealing", "null", FleetScheduler::Serial),
            ("permuted", "null", FleetScheduler::Serial),
        ] {
            let json = format!(
                r#"{{"components": [], "connections": [],
                "fleet": {{"instances": 8, "scheduler": "{name}", "workers": {workers}}}}}"#
            );
            let config: GraphConfig = serde_json::from_str(&json).unwrap();
            let spec = config.fleet.clone().unwrap();
            assert_eq!(spec.workers, workers.parse().ok(), "{name} {workers}");
            assert_eq!(spec.resolved_scheduler(), expected, "{name} {workers}");
            assert_eq!(spec.to_fleet_config().scheduler, expected);
            let pool = config.fleet_pool(BTreeMap::new()).unwrap();
            assert_eq!(pool.scheduler(), expected, "{name} {workers}");
        }
    }

    #[test]
    fn stored_configs_with_a_tree_policy_key_still_load() {
        // Configs written before trees were built purely on demand carry
        // a `"tree_policy"` field; unknown keys are ignored on load.
        for policy in ["null", r#""eager""#, r#""lazy""#] {
            let json = format!(
                r#"{{"components": [], "connections": [], "tree_policy": {policy},
                "fleet": null}}"#
            );
            let config: GraphConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(config, GraphConfig::default());
        }
    }

    #[test]
    fn components_assemble_when_dependencies_resolve() {
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let parser_id = asm.register_factory(
            "parser",
            &[kinds::NMEA_SENTENCE],
            &[kinds::RAW_STRING],
            parser_factory,
        );
        assert_eq!(
            asm.sync(&mut mw).unwrap(),
            0,
            "unresolved: no instantiation"
        );
        let gps_id = asm.register_factory("gps", &[kinds::RAW_STRING], &[], gps_factory);
        assert_eq!(asm.sync(&mut mw).unwrap(), 2);
        let gps_node = asm.node_for(gps_id).unwrap();
        let parser_node = asm.node_for(parser_id).unwrap();
        assert_eq!(mw.graph().downstream(gps_node), vec![(parser_node, 0)]);
    }

    #[test]
    fn assembled_pipeline_flows_data() {
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let parser_id = asm.register_factory(
            "parser",
            &[kinds::NMEA_SENTENCE],
            &[kinds::RAW_STRING],
            parser_factory,
        );
        asm.register_factory("gps", &[kinds::RAW_STRING], &[], gps_factory);
        asm.sync(&mut mw).unwrap();
        let parser_node = asm.node_for(parser_id).unwrap();
        let app = mw.application_sink();
        mw.connect(parser_node, app, 0).unwrap();
        mw.run_for(SimDuration::from_millis(100), SimDuration::from_millis(100))
            .unwrap();
        let p = mw.location_provider(Criteria::new()).unwrap();
        assert_eq!(p.last_item().unwrap().kind, kinds::NMEA_SENTENCE);
    }

    #[test]
    fn unregister_removes_node_and_dependents_unwire() {
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let parser_id = asm.register_factory(
            "parser",
            &[kinds::NMEA_SENTENCE],
            &[kinds::RAW_STRING],
            parser_factory,
        );
        let gps_id = asm.register_factory("gps", &[kinds::RAW_STRING], &[], gps_factory);
        asm.sync(&mut mw).unwrap();
        let parser_node = asm.node_for(parser_id).unwrap();
        asm.unregister_factory(gps_id, &mut mw).unwrap();
        asm.sync(&mut mw).unwrap();
        // Parser lost resolution and is removed from the graph too.
        assert!(!mw.graph().contains(parser_node));
        assert_eq!(asm.node_for(parser_id), None);
    }

    #[test]
    fn alternative_provider_rewires_after_unregister() {
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let parser_id = asm.register_factory(
            "parser",
            &[kinds::NMEA_SENTENCE],
            &[kinds::RAW_STRING],
            parser_factory,
        );
        let gps1 = asm.register_factory("gps1", &[kinds::RAW_STRING], &[], gps_factory);
        let _gps2 = asm.register_factory("gps2", &[kinds::RAW_STRING], &[], gps_factory);
        asm.sync(&mut mw).unwrap();
        asm.unregister_factory(gps1, &mut mw).unwrap();
        // The next sync re-resolves parser onto gps2 as a fresh node.
        asm.sync(&mut mw).unwrap();
        let parser_node = asm.node_for(parser_id).expect("parser re-instantiated");
        let producers = mw.graph().upstream(parser_node);
        assert!(producers[0].is_some(), "parser rewired to gps2");
    }

    /// A test stage with one input port per required kind; a source when
    /// it requires nothing.
    struct Stage {
        name: &'static str,
        requires: Vec<DataKind>,
        provides: DataKind,
    }

    impl Component for Stage {
        fn descriptor(&self) -> crate::component::ComponentDescriptor {
            use crate::component::{ComponentDescriptor, InputSpec};
            let provides = vec![self.provides.clone()];
            let port = |k: &DataKind| InputSpec::new(k.as_str(), vec![k.clone()]);
            match self.requires.as_slice() {
                [] => ComponentDescriptor::source(self.name, provides),
                [one] => ComponentDescriptor::processor(self.name, port(one), provides),
                many => {
                    ComponentDescriptor::merge(self.name, many.iter().map(port).collect(), provides)
                }
            }
        }

        fn on_input(
            &mut self,
            _port: usize,
            _item: crate::data::DataItem,
            _ctx: &mut crate::component::ComponentCtx<'_>,
        ) -> Result<(), CoreError> {
            Ok(())
        }
    }

    /// Registers a [`Stage`] whose declared kinds match its ports.
    fn stage(
        asm: &mut Assembler,
        name: &'static str,
        provides: DataKind,
        requires: &[DataKind],
    ) -> FactoryId {
        let (inputs, output) = (requires.to_vec(), provides.clone());
        asm.register_factory(name, &[provides], requires, move || {
            Box::new(Stage {
                name,
                requires: inputs.clone(),
                provides: output.clone(),
            })
        })
    }

    fn upstream(asm: &Assembler, mw: &Middleware, id: FactoryId) -> Vec<Option<NodeId>> {
        mw.graph().upstream(asm.node_for(id).unwrap()).to_vec()
    }

    #[test]
    fn a_factory_never_provides_for_itself() {
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let id = stage(&mut asm, "echo", kinds::RAW_STRING, &[kinds::RAW_STRING]);
        assert_eq!(asm.sync(&mut mw).unwrap(), 0);
        assert_eq!(asm.sync(&mut mw).unwrap(), 0);
        assert_eq!(asm.node_for(id), None);
    }

    #[test]
    fn a_three_deep_chain_resolves_transitively() {
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let app = stage(
            &mut asm,
            "app",
            kinds::POSITION_ROOM,
            &[kinds::POSITION_WGS84],
        );
        let interp = stage(
            &mut asm,
            "interp",
            kinds::POSITION_WGS84,
            &[kinds::NMEA_SENTENCE],
        );
        let parser = stage(
            &mut asm,
            "parser",
            kinds::NMEA_SENTENCE,
            &[kinds::RAW_STRING],
        );
        assert_eq!(asm.sync(&mut mw).unwrap(), 0);
        let gps = stage(&mut asm, "gps", kinds::RAW_STRING, &[]);
        assert_eq!(asm.sync(&mut mw).unwrap(), 4);
        for (consumer, provider) in [(app, interp), (interp, parser), (parser, gps)] {
            assert_eq!(upstream(&asm, &mw, consumer), vec![asm.node_for(provider)]);
        }
    }

    #[test]
    fn a_diamond_builds_one_node_per_factory_and_unbuilds_with_its_root() {
        // d requires b and c; b and c both require a.
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let d = stage(
            &mut asm,
            "d",
            kinds::POSITION_WGS84,
            &[kinds::NMEA_SENTENCE, kinds::WIFI_SCAN],
        );
        let b = stage(&mut asm, "b", kinds::NMEA_SENTENCE, &[kinds::RAW_STRING]);
        let c = stage(&mut asm, "c", kinds::WIFI_SCAN, &[kinds::RAW_STRING]);
        let a = stage(&mut asm, "a", kinds::RAW_STRING, &[]);
        assert_eq!(asm.sync(&mut mw).unwrap(), 4);
        let a_node = asm.node_for(a).unwrap();
        assert_eq!(upstream(&asm, &mw, b), vec![Some(a_node)]);
        assert_eq!(upstream(&asm, &mw, c), vec![Some(a_node)]);
        assert_eq!(
            upstream(&asm, &mw, d),
            vec![asm.node_for(b), asm.node_for(c)]
        );
        let dependents: Vec<NodeId> = [b, c, d].map(|id| asm.node_for(id).unwrap()).into();
        asm.unregister_factory(a, &mut mw).unwrap();
        assert_eq!(asm.sync(&mut mw).unwrap(), 0);
        for (id, node) in [b, c, d].into_iter().zip(dependents) {
            assert_eq!(asm.node_for(id), None);
            assert!(!mw.graph().contains(node));
        }
    }

    #[test]
    fn a_factory_waits_for_every_required_kind() {
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let fusion = stage(
            &mut asm,
            "fusion",
            kinds::POSITION_WGS84,
            &[kinds::RAW_STRING, kinds::WIFI_SCAN],
        );
        stage(&mut asm, "gps", kinds::RAW_STRING, &[]);
        assert_eq!(asm.sync(&mut mw).unwrap(), 1, "one of two kinds provided");
        assert_eq!(asm.node_for(fusion), None);
        stage(&mut asm, "wifi", kinds::WIFI_SCAN, &[]);
        assert_eq!(asm.sync(&mut mw).unwrap(), 2);
        assert!(upstream(&asm, &mw, fusion).iter().all(Option::is_some));
    }

    #[test]
    fn the_lowest_id_provider_wins_and_is_kept_when_a_lower_one_resolves_later() {
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let consumer = stage(
            &mut asm,
            "consumer",
            kinds::NMEA_SENTENCE,
            &[kinds::RAW_STRING],
        );
        let blocked = stage(
            &mut asm,
            "blocked",
            kinds::RAW_STRING,
            &[kinds::MOTION_SAMPLE],
        );
        let ready = stage(&mut asm, "ready", kinds::RAW_STRING, &[]);
        asm.sync(&mut mw).unwrap();
        let consumer_node = asm.node_for(consumer);
        assert_eq!(upstream(&asm, &mw, consumer), vec![asm.node_for(ready)]);

        stage(&mut asm, "motion", kinds::MOTION_SAMPLE, &[]);
        assert_eq!(asm.sync(&mut mw).unwrap(), 2, "motion and blocked build");
        assert_eq!(asm.node_for(consumer), consumer_node);
        assert_eq!(upstream(&asm, &mw, consumer), vec![asm.node_for(ready)]);

        // A consumer resolving now picks the lowest resolved id.
        let late = stage(&mut asm, "late", kinds::NMEA_SENTENCE, &[kinds::RAW_STRING]);
        asm.sync(&mut mw).unwrap();
        assert_eq!(upstream(&asm, &mw, late), vec![asm.node_for(blocked)]);
    }

    #[test]
    fn every_registration_order_assembles_the_same_fig1_chain() {
        let specs: [(&'static str, DataKind, &[DataKind]); 3] = [
            ("GPS", kinds::RAW_STRING, &[]),
            ("Parser", kinds::NMEA_SENTENCE, &[kinds::RAW_STRING]),
            (
                "Interpreter",
                kinds::POSITION_WGS84,
                &[kinds::NMEA_SENTENCE],
            ),
        ];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut mw = Middleware::new();
            let mut asm = Assembler::new();
            let mut ids = [None; 3];
            for i in order {
                let (name, provides, requires) = specs[i].clone();
                ids[i] = Some(stage(&mut asm, name, provides, requires));
            }
            let [gps, parser, interp] = ids.map(Option::unwrap);
            assert_eq!(asm.sync(&mut mw).unwrap(), 3, "order {order:?}");
            assert_eq!(upstream(&asm, &mw, parser), vec![asm.node_for(gps)]);
            assert_eq!(upstream(&asm, &mw, interp), vec![asm.node_for(parser)]);
            let app = mw.application_sink();
            mw.connect(asm.node_for(interp).unwrap(), app, 0).unwrap();
            let channels = mw.channels();
            assert_eq!(channels.len(), 1, "order {order:?}");
            assert_eq!(channels[0].member_names, ["GPS", "Parser", "Interpreter"]);
        }
    }

    #[test]
    fn nothing_that_resolves_only_between_two_syncs_is_built() {
        // The parser can resolve only while gps is registered, and gps
        // is unregistered before the sync: neither is ever built.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut mw = Middleware::new();
        let mut asm = Assembler::new();
        let built = std::sync::Arc::new(AtomicUsize::new(0));
        let count = std::sync::Arc::clone(&built);
        let parser = asm.register_factory(
            "parser",
            &[kinds::NMEA_SENTENCE],
            &[kinds::RAW_STRING],
            move || {
                count.fetch_add(1, Ordering::Relaxed);
                parser_factory()
            },
        );
        let gps = asm.register_factory("gps", &[kinds::RAW_STRING], &[], gps_factory);
        asm.unregister_factory(gps, &mut mw).unwrap();
        assert_eq!(asm.sync(&mut mw).unwrap(), 0);
        assert_eq!(built.load(Ordering::Relaxed), 0);
        assert_eq!(asm.node_for(parser), None);
    }
}
