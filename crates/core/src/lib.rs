//! # PerPos — a translucent positioning middleware
//!
//! This crate is a Rust reproduction of the middleware presented in
//! *"PerPos: A Translucent Positioning Middleware Supporting Adaptation of
//! Internal Positioning Processes"* (Langdal, Schougaard, Kjærgaard,
//! Toftkjær — Middleware 2010).
//!
//! PerPos represents the positioning process explicitly as a graph of
//! *Processing Components* through which sensor data flows towards the
//! application, and exposes that graph at three levels of abstraction:
//!
//! 1. **Process Structure Layer** ([`graph::ProcessingGraph`]) — every
//!    processing step, with insert/remove/connect manipulation, declared
//!    port requirements/capabilities, and [`feature::ComponentFeature`]s
//!    that intercept, extend and reflect on individual components.
//! 2. **Process Channel Layer** ([`channel`]) — the process abstracted to
//!    data sources, merge components and the [`channel::ChannelInfo`]s between
//!    them; every channel output carries a [`channel::DataTree`] of the
//!    intermediate data that produced it, grouped by logical time
//!    (paper Fig. 4), and [`channel::ChannelFeature`]s reason over those
//!    trees (paper Fig. 5).
//! 3. **Positioning Layer** ([`positioning`]) — a traditional JSR-179-like
//!    API: location providers matched by [`positioning::Criteria`],
//!    push/pull position access and proximity notifications, with the
//!    adaptations made below still reachable.
//!
//! The [`Middleware`] facade ties the layers together over a deterministic
//! simulation clock ([`SimClock`]).
//!
//! # Examples
//!
//! Build a one-sensor pipeline and read a position through the high-level
//! API (the transparent, "seamless" use of the middleware):
//!
//! ```
//! use perpos_core::prelude::*;
//!
//! let mut mw = Middleware::new();
//! // A trivial source that emits one WGS-84 position per tick.
//! let source = mw.add_component(FnSource::new("demo-gps", kinds::POSITION_WGS84, |_now| {
//!     let coord = perpos_geo::Wgs84::new(56.17, 10.19, 0.0).expect("valid");
//!     Some(Value::from(Position::new(coord, Some(5.0))))
//! }));
//! let app = mw.application_sink();
//! mw.connect(source, app, 0)?;
//! mw.run_for(SimDuration::from_secs(1), SimDuration::from_millis(200))?;
//! let provider = mw.location_provider(Criteria::new().kind(kinds::POSITION_WGS84))?;
//! let pos = provider.last_position().expect("position produced");
//! assert!((pos.coord().lat_deg() - 56.17).abs() < 1e-9);
//! # Ok::<(), perpos_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembly;
pub mod channel;
pub mod component;
pub mod data;
pub mod distribution;
mod engine;
mod error;
pub mod feature;
pub mod fleet;
pub mod graph;
pub mod middleware;
pub mod positioning;
pub mod supervision;
mod time;

pub use error::CoreError;
pub use middleware::Middleware;
pub use time::{SimClock, SimDuration, SimTime};

/// Convenient glob import for applications built on PerPos.
pub mod prelude {
    pub use crate::assembly::{
        Assembler, ComponentConfig, ComponentFactory, ConnectionConfig, GraphConfig,
        SynthesizedConfig,
    };
    pub use crate::channel::{ChannelFeature, ChannelId, ChannelStats, DataNode, DataTree};
    pub use crate::component::{
        Component, ComponentCtx, ComponentCtxProbe, ComponentDescriptor, ComponentRole, EffectSpec,
        FnProcessor, FnRelay, FnSource, InputSpec, MethodSpec, OutputSpec, TransferSpec,
    };
    pub use crate::data::{
        kinds, ArenaStats, Attrs, DataItem, DataKind, InternedKey, Payload, PayloadArena, Position,
        Value,
    };
    pub use crate::feature::{ComponentFeature, FeatureAction, FeatureDescriptor, FeatureHost};
    pub use crate::fleet::{
        machine_parallelism, FleetConfig, FleetPool, FleetScheduler, FleetStats, FleetTotals,
        ShardState, ShardStats, Snapshot, SNAPSHOT_VERSION,
    };
    pub use crate::graph::{NodeId, ProcessingGraph};
    pub use crate::middleware::Middleware;
    pub use crate::positioning::{
        Criteria, FailoverProvider, LocationProvider, ProviderEvent, ProximityEvent,
    };
    pub use crate::supervision::{FaultPolicy, HealthStatus, NodeHealth};
    pub use crate::{CoreError, SimClock, SimDuration, SimTime};
}
