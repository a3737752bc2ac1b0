use perpos_geo::{LocalFrame, Point2, Segment2, Wgs84};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::Polygon;

/// Symbolic identifier of a room — the "RoomID" position format of the
/// paper's Room Number Application (Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RoomId(String);

impl RoomId {
    /// Creates a room identifier.
    pub fn new(id: impl Into<String>) -> Self {
        RoomId(id.into())
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RoomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for RoomId {
    fn from(s: &str) -> Self {
        RoomId::new(s)
    }
}

/// A room on a floor: a named polygon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Room {
    id: RoomId,
    name: String,
    outline: Polygon,
}

impl Room {
    /// Creates a room from an identifier, a human-readable name and its
    /// floor-plan outline.
    pub fn new(id: impl Into<RoomId>, name: impl Into<String>, outline: Polygon) -> Self {
        Room {
            id: id.into(),
            name: name.into(),
            outline,
        }
    }

    /// The room identifier.
    pub fn id(&self) -> &RoomId {
        &self.id
    }

    /// The human-readable room name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The floor-plan outline.
    pub fn outline(&self) -> &Polygon {
        &self.outline
    }

    /// Whether the planar point is inside the room.
    pub fn contains(&self, p: &Point2) -> bool {
        self.outline.contains(p)
    }
}

/// A door: an opening in a wall connecting two rooms (or a room and the
/// outside). Motion through a door is not blocked.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Door {
    /// The opening segment in floor-plan coordinates.
    pub span: Segment2,
    /// Rooms this door connects; `None` means the outside.
    pub connects: (Option<RoomId>, Option<RoomId>),
}

/// One storey of a building: rooms, walls and doors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floor {
    level: i32,
    rooms: Vec<Room>,
    walls: Vec<Segment2>,
    doors: Vec<Door>,
}

impl Floor {
    /// Creates a floor at the given level.
    pub fn new(level: i32) -> Self {
        Floor {
            level,
            rooms: Vec::new(),
            walls: Vec::new(),
            doors: Vec::new(),
        }
    }

    /// The floor level (0 = ground).
    pub fn level(&self) -> i32 {
        self.level
    }

    /// Rooms on this floor.
    pub fn rooms(&self) -> &[Room] {
        &self.rooms
    }

    /// Wall segments of this floor.
    pub fn walls(&self) -> &[Segment2] {
        &self.walls
    }

    /// Doors on this floor.
    pub fn doors(&self) -> &[Door] {
        &self.doors
    }

    /// Adds a room.
    pub fn add_room(&mut self, room: Room) -> &mut Self {
        self.rooms.push(room);
        self
    }

    /// Adds a wall segment.
    pub fn add_wall(&mut self, wall: Segment2) -> &mut Self {
        self.walls.push(wall);
        self
    }

    /// Adds a door.
    pub fn add_door(&mut self, door: Door) -> &mut Self {
        self.doors.push(door);
        self
    }

    /// The first room containing `p`, scanning in insertion order.
    pub fn room_at(&self, p: Point2) -> Option<&Room> {
        self.rooms.iter().find(|r| r.contains(&p))
    }

    /// Whether straight-line motion from `from` to `to` crosses any wall,
    /// testing every wall; [`WallIndex`](crate::WallIndex) answers the
    /// same question without the scan.
    pub fn path_blocked(&self, from: Point2, to: Point2) -> bool {
        let motion = Segment2::new(from, to);
        self.walls.iter().any(|w| w.intersects(&motion))
    }
}

/// A building: floors plus the tangent-plane frame anchoring the floor
/// plan to global coordinates.
///
/// Acts as the paper's location model service: it resolves WGS-84
/// positions to symbolic room identifiers and answers wall-crossing
/// queries for movement constraints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Building {
    name: String,
    frame: LocalFrame,
    floors: Vec<Floor>,
}

impl Building {
    /// Creates an empty building anchored at `origin`.
    pub fn new(name: impl Into<String>, origin: Wgs84) -> Self {
        Building {
            name: name.into(),
            frame: LocalFrame::new(origin),
            floors: Vec::new(),
        }
    }

    /// The building name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The local tangent-plane frame of the floor plan.
    pub fn frame(&self) -> &LocalFrame {
        &self.frame
    }

    /// The floors of the building.
    pub fn floors(&self) -> &[Floor] {
        &self.floors
    }

    /// Adds a floor. Floors can be added in any order.
    pub fn add_floor(&mut self, floor: Floor) -> &mut Self {
        self.floors.push(floor);
        self
    }

    /// The floor at `level`, if present.
    pub fn floor(&self, level: i32) -> Option<&Floor> {
        self.floors.iter().find(|f| f.level() == level)
    }

    /// The room containing the planar point on the given floor level.
    pub fn room_at(&self, p: Point2, level: i32) -> Option<&Room> {
        self.floor(level)?.room_at(p)
    }

    /// Resolves a global position to a room on the given floor.
    ///
    /// This is the Resolver step of the Room Number Application pipeline
    /// (Fig. 1): WGS-84 in, RoomID out.
    pub fn resolve_wgs84(&self, p: &Wgs84, level: i32) -> Option<&Room> {
        self.room_at(self.frame.to_local(p), level)
    }

    /// Whether straight-line motion between two floor-plan points crosses
    /// a wall on the given floor: the particle filter's movement
    /// constraint (paper §3.2, Fig. 6), which asks it through a
    /// [`WallIndex`](crate::WallIndex) built once per floor.
    pub fn path_blocked(&self, from: Point2, to: Point2, level: i32) -> bool {
        self.floor(level).is_some_and(|f| f.path_blocked(from, to))
    }

    /// Whether the planar point is anywhere inside the building outline
    /// on the given floor (inside any room).
    pub fn inside(&self, p: Point2, level: i32) -> bool {
        self.room_at(p, level).is_some()
    }
}

/// Builder producing rectangular office floors: a central corridor with
/// rooms on both sides, door gaps into the corridor — the floor-plan shape
/// visible in the paper's Fig. 6.
///
/// ```
/// use perpos_geo::Wgs84;
/// use perpos_model::BuildingBuilder;
///
/// let building = BuildingBuilder::new("Hopper Building", Wgs84::new(56.17, 10.19, 0.0)?)
///     .corridor_floor(0, 4, 5.0, 4.0, 2.5)
///     .build();
/// assert_eq!(building.floors().len(), 1);
/// assert_eq!(building.floor(0).unwrap().rooms().len(), 9); // 8 rooms + corridor
/// # Ok::<(), perpos_geo::GeoError>(())
/// ```
#[derive(Debug)]
pub struct BuildingBuilder {
    building: Building,
}

impl BuildingBuilder {
    /// Starts a builder for a building anchored at `origin`.
    pub fn new(name: impl Into<String>, origin: Wgs84) -> Self {
        BuildingBuilder {
            building: Building::new(name, origin),
        }
    }

    /// Adds a pre-constructed floor.
    pub fn floor(mut self, floor: Floor) -> Self {
        self.building.add_floor(floor);
        self
    }

    /// Adds a classic office floor at `level`:
    ///
    /// * `rooms_per_side` rooms of `room_w × room_d` metres on each side of
    ///   a central corridor of width `corridor_w`,
    /// * outer walls all around, dividing walls between rooms,
    /// * a 1 m door gap from every room into the corridor.
    ///
    /// The floor spans `x ∈ [0, rooms_per_side * room_w]` and
    /// `y ∈ [0, 2 * room_d + corridor_w]`, with the corridor horizontal in
    /// the middle. Room ids are `R<k>` counted row-major from the south
    /// row; the corridor id is `CORRIDOR<level>`.
    pub fn corridor_floor(
        mut self,
        level: i32,
        rooms_per_side: usize,
        room_w: f64,
        room_d: f64,
        corridor_w: f64,
    ) -> Self {
        assert!(rooms_per_side > 0, "need at least one room per side");
        assert!(
            room_w > 1.5 && room_d > 0.5 && corridor_w > 0.5,
            "rooms must fit a 1 m door and people"
        );
        let mut floor = Floor::new(level);
        let width = rooms_per_side as f64 * room_w;
        let south_y = room_d;
        let north_y = room_d + corridor_w;
        let total_h = 2.0 * room_d + corridor_w;
        let door_half = 0.5;

        // Corridor room.
        floor.add_room(Room {
            id: RoomId::new(format!("CORRIDOR{level}")),
            name: format!("Corridor {level}"),
            outline: Polygon::rectangle(0.0, south_y, width, north_y),
        });

        // Outer walls.
        let sw = Point2::new(0.0, 0.0);
        let se = Point2::new(width, 0.0);
        let ne = Point2::new(width, total_h);
        let nw = Point2::new(0.0, total_h);
        floor.add_wall(Segment2::new(sw, se));
        floor.add_wall(Segment2::new(se, ne));
        floor.add_wall(Segment2::new(ne, nw));
        floor.add_wall(Segment2::new(nw, sw));

        let mut room_index = 0usize;
        for (row, (y0, y1, wall_y)) in [
            (0.0, south_y, south_y),     // south row, corridor wall at y = room_d
            (north_y, total_h, north_y), // north row, corridor wall at y = room_d + corridor_w
        ]
        .into_iter()
        .enumerate()
        {
            for i in 0..rooms_per_side {
                let x0 = i as f64 * room_w;
                let x1 = x0 + room_w;
                let id = RoomId::new(format!("R{room_index}"));
                floor.add_room(Room {
                    id: id.clone(),
                    name: format!("Room {room_index} (row {row})"),
                    outline: Polygon::rectangle(x0, y0, x1, y1),
                });
                room_index += 1;

                // Corridor-facing wall with a centred 1 m door gap.
                let door_centre = (x0 + x1) / 2.0;
                let gap0 = door_centre - door_half;
                let gap1 = door_centre + door_half;
                floor.add_wall(Segment2::new(
                    Point2::new(x0, wall_y),
                    Point2::new(gap0, wall_y),
                ));
                floor.add_wall(Segment2::new(
                    Point2::new(gap1, wall_y),
                    Point2::new(x1, wall_y),
                ));
                floor.add_door(Door {
                    span: Segment2::new(Point2::new(gap0, wall_y), Point2::new(gap1, wall_y)),
                    connects: (Some(id), Some(RoomId::new(format!("CORRIDOR{level}")))),
                });

                // Dividing wall to the next room in the row.
                if i + 1 < rooms_per_side {
                    floor.add_wall(Segment2::new(Point2::new(x1, y0), Point2::new(x1, y1)));
                }
            }
        }

        self.building.add_floor(floor);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Building {
        self.building
    }
}

/// A small two-sided office floor used throughout tests, examples and the
/// Fig. 6 experiment: four rooms per side (`R0`–`R7`), a central corridor,
/// anchored near Aarhus.
pub fn demo_building() -> Building {
    let origin = Wgs84::new(56.17, 10.19, 0.0).expect("demo origin is valid");
    BuildingBuilder::new("Demo Office", origin)
        .corridor_floor(0, 4, 5.0, 4.0, 2.5)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_building_room_layout() {
        let b = demo_building();
        let f = b.floor(0).unwrap();
        assert_eq!(f.rooms().len(), 9);
        assert_eq!(f.doors().len(), 8);
        // South row room 0 spans x 0..5, y 0..4.
        assert_eq!(
            b.room_at(Point2::new(2.5, 2.0), 0).unwrap().id().as_str(),
            "R0"
        );
        // North row first room is R4 at y 6.5..10.5.
        assert_eq!(
            b.room_at(Point2::new(2.5, 8.0), 0).unwrap().id().as_str(),
            "R4"
        );
        // Corridor in the middle.
        assert_eq!(
            b.room_at(Point2::new(10.0, 5.0), 0).unwrap().id().as_str(),
            "CORRIDOR0"
        );
        // Outside.
        assert!(b.room_at(Point2::new(-1.0, 5.0), 0).is_none());
        assert!(b.room_at(Point2::new(10.0, 5.0), 1).is_none());
    }

    #[test]
    fn walls_block_motion_but_doors_do_not() {
        let b = demo_building();
        // R0 centre to corridor through the door (door at x=2.5, y=4).
        assert!(!b.path_blocked(Point2::new(2.5, 2.0), Point2::new(2.5, 5.0), 0));
        // R0 centre to corridor through the wall (x=1, no door there).
        assert!(b.path_blocked(Point2::new(1.0, 2.0), Point2::new(1.0, 5.0), 0));
        // R0 to R1 through dividing wall at x=5.
        assert!(b.path_blocked(Point2::new(2.5, 2.0), Point2::new(7.5, 2.0), 0));
        // Within one room nothing blocks.
        assert!(!b.path_blocked(Point2::new(1.0, 1.0), Point2::new(4.0, 3.0), 0));
        // Through the outer wall.
        assert!(b.path_blocked(Point2::new(2.0, 2.0), Point2::new(2.0, -3.0), 0));
    }

    #[test]
    fn resolve_wgs84_round_trip() {
        let b = demo_building();
        let inside_r0 = b.frame().from_local(&Point2::new(2.5, 2.0));
        assert_eq!(b.resolve_wgs84(&inside_r0, 0).unwrap().id().as_str(), "R0");
        let outside = b.frame().from_local(&Point2::new(-50.0, -50.0));
        assert!(b.resolve_wgs84(&outside, 0).is_none());
    }

    #[test]
    fn missing_floor_behaves_benignly() {
        let b = demo_building();
        assert!(b.floor(3).is_none());
        assert!(!b.path_blocked(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0), 3));
        assert!(!b.inside(Point2::new(2.0, 2.0), 3));
    }

    #[test]
    fn door_spans_recorded() {
        let b = demo_building();
        let f = b.floor(0).unwrap();
        for d in f.doors() {
            assert!((d.span.length() - 1.0).abs() < 1e-9);
            assert!(d
                .connects
                .1
                .as_ref()
                .unwrap()
                .as_str()
                .starts_with("CORRIDOR"));
        }
    }

    #[test]
    #[should_panic(expected = "at least one room")]
    fn builder_rejects_zero_rooms() {
        let origin = Wgs84::new(0.0, 0.0, 0.0).unwrap();
        let _ = BuildingBuilder::new("x", origin).corridor_floor(0, 0, 5.0, 4.0, 2.0);
    }

    #[test]
    fn building_serde_round_trip() {
        // Location models are data: they must persist and reload intact.
        let b = demo_building();
        let json = serde_json::to_string(&b).unwrap();
        let back: Building = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
        assert_eq!(
            back.room_at(Point2::new(2.5, 2.0), 0)
                .unwrap()
                .id()
                .as_str(),
            "R0"
        );
    }

    #[test]
    fn multi_floor_lookup() {
        let origin = Wgs84::new(56.17, 10.19, 0.0).unwrap();
        let b = BuildingBuilder::new("Tower", origin)
            .corridor_floor(0, 2, 5.0, 4.0, 2.0)
            .corridor_floor(1, 3, 5.0, 4.0, 2.0)
            .build();
        assert_eq!(b.floor(0).unwrap().rooms().len(), 5);
        assert_eq!(b.floor(1).unwrap().rooms().len(), 7);
    }
}
