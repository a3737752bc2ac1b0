//! Building and location model substrate for the PerPos middleware.
//!
//! The paper's Room Number Application (Fig. 1) resolves positions to room
//! identifiers through a *location model service*, and the particle filter
//! of §3.2 uses "location models to impose restrictions on possible
//! movements in the environment" (walls, Fig. 6). This crate provides that
//! substrate:
//!
//! * [`Polygon`] — planar polygons with point-containment and centroid,
//! * [`Room`], [`Floor`], [`Building`] — a floor-plan model with walls and
//!   doors, anchored to the globe through a [`perpos_geo::LocalFrame`],
//! * [`Building::room_at`] / [`Building::resolve_wgs84`] — the location
//!   model service (symbolic positions from coordinates),
//! * [`Building::path_blocked`] — wall-crossing tests used as particle
//!   filter movement constraints, and [`WallIndex`], a uniform grid over a
//!   floor's walls answering the same queries without scanning every wall,
//! * [`RoomGraph`] — room adjacency (via doors) with shortest-path queries.
//!
//! # Examples
//!
//! ```
//! use perpos_geo::Point2;
//! use perpos_model::demo_building;
//!
//! let building = demo_building();
//! let room = building.room_at(Point2::new(2.0, 2.0), 0).expect("inside a room");
//! assert_eq!(room.id().as_str(), "R0");
//! // Moving through the outer wall is blocked…
//! assert!(building.path_blocked(Point2::new(2.0, 2.0), Point2::new(-5.0, 2.0), 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod building;
mod graph;
mod polygon;
mod wall_index;

pub use building::{demo_building, Building, BuildingBuilder, Door, Floor, Room, RoomId};
pub use graph::RoomGraph;
pub use polygon::Polygon;
pub use wall_index::WallIndex;
