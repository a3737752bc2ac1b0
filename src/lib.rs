//! # PerPos — a translucent positioning middleware (facade crate)
//!
//! This crate re-exports the whole PerPos workspace — a Rust
//! reproduction of *"PerPos: A Translucent Positioning Middleware
//! Supporting Adaptation of Internal Positioning Processes"*
//! (Langdal, Schougaard, Kjærgaard, Toftkjær — Middleware 2010) — under
//! one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `perpos-core` | the middleware: processing graph (PSL), channels & data trees (PCL), positioning layer, features, engine, declarative and dynamic assembly |
//! | [`geo`] | `perpos-geo` | WGS-84 / ECEF / ENU coordinates and planar geometry |
//! | [`nmea`] | `perpos-nmea` | NMEA-0183 parsing and generation |
//! | [`model`] | `perpos-model` | buildings, rooms, walls, room graphs (the location model service) |
//! | [`sensors`] | `perpos-sensors` | GPS/WiFi/motion simulators, Fig. 1 pipeline components, trace emulator |
//! | [`fusion`] | `perpos-fusion` | particle filter, Likelihood channel feature, Kalman baseline |
//! | [`energy`] | `perpos-energy` | power models and the EnTracked strategy |
//! | [`baselines`] | `perpos-baselines` | Location-Stack- and PoSIM-style comparison middlewares |
//! | [`analysis`] | `perpos-analysis` | whole-graph static analysis (P001–P020), adaptation safety, `perpos-lint` |
//!
//! See `examples/` for runnable scenarios (start with
//! `cargo run --example quickstart`) and `DESIGN.md` / `EXPERIMENTS.md`
//! for the paper-reproduction map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use perpos_analysis as analysis;
pub use perpos_baselines as baselines;
pub use perpos_core as core;
pub use perpos_energy as energy;
pub use perpos_fusion as fusion;
pub use perpos_geo as geo;
pub use perpos_model as model;
pub use perpos_nmea as nmea;
pub use perpos_sensors as sensors;

/// Everything an application built on PerPos usually needs.
pub mod prelude {
    pub use perpos_core::prelude::*;
    pub use perpos_geo::{LocalFrame, Point2, Wgs84};
    pub use perpos_model::{demo_building, Building, BuildingBuilder, RoomId};
    pub use perpos_sensors::{
        EmulatorSource, FaultInjector, GpsEnvironment, GpsSimulator, HdopFeature, Interpreter,
        MotionSensor, NumberOfSatellitesFeature, Parser, Resolver, SatelliteFilter, SensorWrapper,
        Trace, TraceError, Trajectory, WifiEnvironment, WifiPositioning, WifiScanner,
    };
}
