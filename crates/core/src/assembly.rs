//! Dynamic, registry-driven assembly of processing graphs.
//!
//! The paper realizes PerPos on OSGi: Processing Components are service
//! components, and "the dynamic composition mechanisms of OSGi is used for
//! connecting the components" (§3). Custom components declare
//! requirements and capabilities; "as custom components are added to the
//! PerPos middleware the dependencies are resolved and when satisfied the
//! components are added to the processing graph appropriately" (§2.1).
//!
//! [`Assembler`] reproduces that mechanism on top of
//! [`perpos_registry::Registry`]: component *factories* are registered
//! with a service descriptor whose capability/requirement namespaces are
//! data kinds; when the registry resolves a factory, the assembler
//! instantiates the component, adds it to a [`Middleware`]'s graph and
//! connects each requirement wire to the node instantiated for its
//! provider.
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

use perpos_registry::{
    Capability, Registry, Requirement, ServiceDescriptor, ServiceEvent, ServiceId,
};

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
    /// Fleet scheduler name (`"serial"` or `"work_stealing"`); absent
    /// defaults to serial unless [`FleetSpec::workers`] asks for more
    /// than one worker, which implies work stealing.
    /// [`GraphConfig::fleet_pool`] rejects unknown names; the total
    /// [`FleetSpec::resolved_scheduler`] reads them as serial. See
    /// [`crate::fleet::FleetScheduler`].
    pub scheduler: Option<String>,
    /// Worker-thread cap for the work-stealing scheduler; `0` (or
    /// absent under `"work_stealing"`) means machine-sized. Ignored by
    /// the serial scheduler.
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

    /// The [`crate::fleet::FleetScheduler`] this spec requests. An
    /// explicit `scheduler` name wins; with no name, `workers` other
    /// than 1 implies work stealing (that is what asking for workers
    /// means), and everything else — an unknown name included — is
    /// serial.
    pub fn resolved_scheduler(&self) -> crate::fleet::FleetScheduler {
        use crate::fleet::FleetScheduler;
        match self.scheduler.as_deref() {
            Some(name) => match FleetScheduler::from_name(name) {
                Some(FleetScheduler::WorkStealing { .. }) => FleetScheduler::WorkStealing {
                    workers: self.workers.unwrap_or(0),
                },
                Some(FleetScheduler::Serial) | None => FleetScheduler::Serial,
            },
            None => match self.workers {
                Some(workers) if workers != 1 => FleetScheduler::WorkStealing { workers },
                _ => FleetScheduler::Serial,
            },
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

    /// Like [`GraphConfig::instantiate`], but runs `check` over the
    /// configuration first and instantiates nothing unless it passes —
    /// the opt-in static-analysis gate (`perpos-analysis` provides a
    /// ready-made check via its `gate` module).
    ///
    /// # Errors
    ///
    /// Propagates `check`'s error without touching `mw`, then behaves
    /// like [`GraphConfig::instantiate`].
    pub fn instantiate_checked(
        &self,
        mw: &mut Middleware,
        factories: &BTreeMap<String, Factory>,
        check: &dyn Fn(&GraphConfig) -> Result<(), CoreError>,
    ) -> Result<BTreeMap<String, NodeId>, CoreError> {
        check(self)?;
        self.instantiate(mw, factories)
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
    /// Returns [`CoreError::ComponentFailure`] for an unknown
    /// [`FleetSpec::scheduler`] name and the same errors as
    /// [`GraphConfig::instantiate`], before any pool is built.
    pub fn fleet_pool(
        &self,
        factories: BTreeMap<String, Factory>,
    ) -> Result<crate::fleet::FleetPool, CoreError> {
        let spec = self.fleet.clone().unwrap_or(FleetSpec {
            instances: 1,
            shards: Some(1),
            checkpoint_every: None,
            scheduler: None,
            workers: None,
        });
        if let Some(name) = &spec.scheduler {
            if crate::fleet::FleetScheduler::from_name(name).is_none() {
                return Err(CoreError::ComponentFailure {
                    component: "fleet".into(),
                    reason: format!("unknown fleet scheduler {name:?}"),
                });
            }
        }
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

/// A [`GraphConfig`] produced by a pipeline synthesizer (e.g.
/// `perpos-analysis`'s `synth` module) rather than written by hand,
/// together with the goal it was synthesized for.
///
/// Stand one up with `synthesized.config.instantiate_checked(..)`
/// ([`GraphConfig::instantiate_checked`]), which re-runs the caller's
/// acceptance gate before touching the graph — a synthesizer bug (or a
/// stale serialized artifact) can therefore never instantiate a pipeline
/// that no longer passes analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesizedConfig {
    /// The synthesized processing graph.
    pub config: GraphConfig,
    /// Human-readable summary of the goal the pipeline satisfies, e.g.
    /// `"accuracy<=5m, no-identifiable-at-sink"`.
    pub goal: String,
    /// Rank among the synthesizer's candidates (0 = best).
    pub rank: u64,
}

/// Connects a [`perpos_registry::Registry`] of component factories to a
/// [`Middleware`] instance, instantiating and wiring components as their
/// declared dependencies resolve.
pub struct Assembler {
    registry: Registry<Factory>,
    events: crossbeam_channel::Receiver<ServiceEvent>,
    instantiated: BTreeMap<ServiceId, NodeId>,
}

impl Default for Assembler {
    fn default() -> Self {
        Assembler::new()
    }
}

impl std::fmt::Debug for Assembler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Assembler")
            .field("instantiated", &self.instantiated.len())
            .finish()
    }
}

impl Assembler {
    /// Creates an assembler with an empty factory registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let events = registry.subscribe();
        Assembler {
            registry,
            events,
            instantiated: BTreeMap::new(),
        }
    }

    /// Registers a component factory declaring the data kinds it provides
    /// and requires. Returns the underlying service id.
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
    ) -> ServiceId {
        let mut descriptor = ServiceDescriptor::new(name);
        for p in provides {
            descriptor = descriptor.provides(Capability::new(p.as_str()));
        }
        for r in requires {
            descriptor = descriptor.requires(Requirement::new(r.as_str()));
        }
        self.registry.register(descriptor, Box::new(factory))
    }

    /// Unregisters a factory and removes its instantiated component (and,
    /// transitively via unresolution events processed by the next
    /// [`Assembler::sync`], its dependents' wires).
    ///
    /// # Errors
    ///
    /// Propagates registry and graph errors.
    pub fn unregister_factory(
        &mut self,
        id: ServiceId,
        mw: &mut Middleware,
    ) -> Result<(), CoreError> {
        let _ = self.registry.unregister(id);
        if let Some(node) = self.instantiated.remove(&id) {
            mw.remove_component(node)?;
        }
        Ok(())
    }

    /// The node a resolved service was instantiated as, if any.
    pub fn node_for(&self, id: ServiceId) -> Option<NodeId> {
        self.instantiated.get(&id).copied()
    }

    /// Processes pending registry events, instantiating newly resolved
    /// components into `mw` and wiring their dependencies. Returns the
    /// number of components instantiated.
    ///
    /// # Errors
    ///
    /// Propagates graph errors (e.g. incompatible wires).
    pub fn sync(&mut self, mw: &mut Middleware) -> Result<usize, CoreError> {
        let mut added = 0;
        let events: Vec<ServiceEvent> = self.events.try_iter().collect();
        for event in events {
            match event {
                ServiceEvent::Resolved(sid) => {
                    if self.instantiated.contains_key(&sid) {
                        continue;
                    }
                    let Some(component) = self.registry.with_payload(sid, |f| f()) else {
                        continue;
                    };
                    let node = mw.add_boxed_component(component);
                    self.instantiated.insert(sid, node);
                    added += 1;
                    // Wire each requirement to its provider's node.
                    for (port, wire) in self.registry.wires(sid).iter().enumerate() {
                        if let Some(&provider_node) = self.instantiated.get(&wire.provider) {
                            mw.connect(provider_node, node, port)?;
                        }
                    }
                    // Wire dependents that resolved before this provider
                    // was instantiated (possible when events interleave).
                    let dependents: Vec<(ServiceId, usize)> = self
                        .registry
                        .service_ids()
                        .into_iter()
                        .flat_map(|other| {
                            self.registry
                                .wires(other)
                                .into_iter()
                                .enumerate()
                                .filter(move |(_, w)| w.provider == sid)
                                .map(move |(port, _)| (other, port))
                        })
                        .collect();
                    for (dependent, port) in dependents {
                        if let Some(&dep_node) = self.instantiated.get(&dependent) {
                            if mw.node_info(dep_node)?.inputs[port].is_none() {
                                mw.connect(node, dep_node, port)?;
                            }
                        }
                    }
                }
                ServiceEvent::Unresolved(sid) | ServiceEvent::Unregistered(sid) => {
                    if let Some(node) = self.instantiated.remove(&sid) {
                        mw.remove_component(node)?;
                    }
                }
                ServiceEvent::Registered(_) => {}
            }
        }
        Ok(added)
    }

    /// Like [`Assembler::sync`], but runs `check` over the resulting
    /// process structure afterwards — the opt-in analysis gate for the
    /// dynamic-resolution composition path.
    ///
    /// The structural changes have already been applied when `check`
    /// runs (dynamic assembly is incremental and has no transaction to
    /// roll back); a failed check therefore reports the unsound state
    /// rather than preventing it. Callers that need an untouched
    /// middleware on failure should sync into a scratch instance first.
    ///
    /// # Errors
    ///
    /// Propagates [`Assembler::sync`] errors, then `check`'s error.
    pub fn sync_checked(
        &mut self,
        mw: &mut Middleware,
        check: &dyn Fn(&[crate::graph::NodeInfo]) -> Result<(), CoreError>,
    ) -> Result<usize, CoreError> {
        let added = self.sync(mw)?;
        check(&mw.structure())?;
        Ok(added)
    }

    /// The underlying registry (for inspection or direct manipulation).
    pub fn registry(&self) -> &Registry<Factory> {
        &self.registry
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
                scheduler: Some("work_stealing".into()),
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
            scheduler: None,
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
                scheduler: None,
                workers: None,
            }),
        };
        assert!(config.fleet_pool(factories).is_err());
    }

    #[test]
    fn fleet_pool_rejects_unknown_scheduler_names() {
        for name in ["permuted", "work_stealign"] {
            let config = GraphConfig {
                components: vec![ComponentConfig {
                    name: "app".into(),
                    kind: "application".into(),
                    fault_policy: None,
                    transfer: None,
                    effects: None,
                }],
                connections: vec![],
                fleet: Some(FleetSpec {
                    instances: 2,
                    shards: None,
                    checkpoint_every: None,
                    scheduler: Some(name.into()),
                    workers: None,
                }),
            };
            let Err(CoreError::ComponentFailure { reason, .. }) =
                config.fleet_pool(BTreeMap::new())
            else {
                panic!("scheduler {name:?} must be rejected");
            };
            assert!(reason.contains(name), "{reason}");
            // The resolver stays total: analysis reads the name as serial.
            assert_eq!(
                config.fleet.unwrap().resolved_scheduler(),
                crate::fleet::FleetScheduler::Serial
            );
        }
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
        // Registry re-resolves parser onto gps2; sync re-instantiates it.
        asm.sync(&mut mw).unwrap();
        let parser_node = asm.node_for(parser_id).expect("parser re-instantiated");
        let producers = mw.graph().upstream(parser_node);
        assert!(producers[0].is_some(), "parser rewired to gps2");
    }
}
