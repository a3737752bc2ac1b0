//! # perpos-analysis — whole-graph static analysis for PerPos
//!
//! The PerPos middleware is *translucent*: the positioning process is
//! reified as a graph of Processing Components whose ports declare the
//! data kinds they accept and provide, and applications may adapt that
//! graph at runtime. Per-edge validation at connect time cannot see
//! whole-graph problems — a merge input nobody drives, a subgraph whose
//! output nothing consumes, a feature requirement lost by a later
//! detach. This crate closes that gap with a lint pass over the same
//! declarations the graph already validates locally.
//!
//! Three surfaces:
//!
//! - **Config analysis** ([`analyze_config`]): lints a declarative
//!   [`GraphConfig`](perpos_core::assembly::GraphConfig) against a
//!   [`TypeCatalog`] *before* instantiation. The `perpos-lint` binary
//!   exposes this on the command line.
//! - **Live analysis** ([`analyze_structure`]): lints an instantiated
//!   graph via `Middleware::structure()`, and — through
//!   [`check_adaptation`] — a *hypothetical* structure produced by
//!   replaying an [`AdaptationPlan`] through the graph's own ops on
//!   inert stand-ins, answering "is this adaptation safe?" without
//!   touching the live process. A plan step fails (P007) exactly when
//!   `Middleware` would refuse it, so a rejected connect never becomes
//!   an edge for P001, P003 or P005 to judge.
//! - **Runtime probing** ([`MonotonicityProbe`]): a Channel Feature
//!   asserting logical-time monotonicity on every delivery (P008).
//!
//! Configurations, live structures and plans all lower to one graph IR,
//! [`FlowGraph`], through one sound-edge rule, and the structural lints
//! P001–P006 are written once over it, so a process is judged the same
//! way whether it is declared or reflected.
//!
//! Beyond the structural lints, a forward-dataflow framework
//! ([`dataflow`], [`domains`]) infers whole-graph *semantic* facts —
//! coordinate frames, achievable accuracy, privacy taint and item rates
//! — as lattice fixpoints of per-component transfer functions, and
//! reports frame conflicts (P010), unreachable accuracy claims (P011),
//! identifiable data leaking to the application (P012) and statically
//! overloaded components (P013, with P014 predicting when the overload
//! will hit the channel ring cap) over the same IR.
//!
//! An effect layer ([`effects`]) checks declared
//! [`EffectSpec`](perpos_core::component::EffectSpec) metadata against
//! the deployment the graph requests: stateful-but-unsnapshotable
//! components inside fleet deployments (P018), exogenous/unseeded
//! effects where deterministic replay is assumed (P019) and
//! shared-resource writers replicated across a parallel fleet (P020).
//!
//! Every finding is a [`Diagnostic`] with a stable code (P001–P020), a
//! severity, the offending node/edge path and, where possible, a fix-it
//! hint; a [`Report`] renders human-readable or JSON. The core
//! carries no analysis hooks: a caller that wants composition gated
//! runs [`analyze_config`] (or [`analyze_structure`]) and calls
//! `GraphConfig::instantiate` (or `Assembler::sync`) only when the
//! report has no errors.
//!
//! ```
//! use perpos_analysis::{analyze_config, Code, ComponentTypeSpec, PortSpec, TypeCatalog};
//! use perpos_core::assembly::{ComponentConfig, ConnectionConfig, GraphConfig};
//!
//! let mut catalog = TypeCatalog::new();
//! catalog.insert(ComponentTypeSpec {
//!     kind: "smooth".into(),
//!     role: "processor".into(),
//!     inputs: vec![PortSpec { name: "in".into(), accepts: vec![], required_features: vec![] }],
//!     provides: vec!["position.wgs84".into()],
//!     transfer: None,
//!     effects: None,
//! });
//! // A config wiring an instance to itself: cycle, caught before any
//! // component is built.
//! let config = GraphConfig {
//!     components: vec![ComponentConfig {
//!         name: "p".into(),
//!         kind: "smooth".into(),
//!         fault_policy: None,
//!         transfer: None,
//!         effects: None,
//!     }],
//!     connections: vec![ConnectionConfig { from: "p".into(), to: "p".into(), port: 0 }],
//!     fleet: None,
//! };
//! let report = analyze_config(&config, &catalog);
//! assert_eq!(report.with_code(Code::P005).len(), 1);
//! ```

pub mod adaptation;
pub mod catalog;
pub mod config;
pub mod dataflow;
pub mod diagnostic;
pub mod domains;
pub mod effects;
mod lint;
pub mod live;
pub mod probe;
pub mod synth;

pub use adaptation::{
    check_adaptation, check_adaptation_with_facts, AdaptationOp, AdaptationOutcome, AdaptationPlan,
};
pub use catalog::{ComponentTypeSpec, PortSpec, TypeCatalog};
pub use config::analyze_config;
pub use dataflow::{solve, Domain, FlowGraph, Solution};
pub use diagnostic::{Code, Diagnostic, Report, Severity, JSON_SCHEMA_VERSION};
pub use domains::{analyze_dataflow, dataflow_diagnostics, facts_json, infer_facts, GraphFacts};
pub use effects::{determinism_diagnostics, effect_diagnostics};
pub use live::analyze_structure;
pub use probe::MonotonicityProbe;
pub use synth::{synthesize, Infeasibility, RankedPipeline, Synthesis, SynthesisGoal};
