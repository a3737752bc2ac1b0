//! A uniform-grid index over the walls of one floor.
//!
//! [`Floor::path_blocked`] tests a move against every wall. The particle
//! filter asks that question for every particle on every update and the
//! WiFi radio model counts crossed walls for every access point of every
//! scan, so both use a [`WallIndex`] instead: walls are bucketed into
//! square cells once, and a query tests only the walls whose bounding box
//! (with [`SLACK_M`] of slack) overlaps the move's bounding box. Short
//! moves (a particle's step) find those walls through the cells they
//! touch; longer ones (an access point's signal path) check each wall's
//! box, which is cheaper than visiting many cells.
//!
//! The answers are the linear scan's answers, bit for bit. A wall can
//! only report an intersection with a move whose box overlaps its own:
//!
//! * the touching branch of [`Segment2::intersects`] requires an endpoint
//!   of one segment within 1e-12 m of the other segment's box;
//! * the proper-crossing branch, for an axis-aligned wall, requires the
//!   move to cross the wall's line strictly (the wall-side cross products
//!   are a subtraction times the wall's length, so their signs are
//!   exact), and rounding in the move-side cross products can misplace
//!   the crossing along the wall by at most a few ulps of the largest
//!   coordinate: below 1e-9 m while every coordinate is within
//!   [`MAX_COORD_M`].
//!
//! So the index keeps only finite, axis-aligned walls within
//! [`MAX_COORD_M`] in its grid. Any other wall is tested on every query,
//! and a move with a coordinate beyond [`MAX_COORD_M`] (or NaN, or
//! infinite) is tested against every wall, exactly as the scan does.

use perpos_geo::{Point2, Segment2};

use crate::Floor;

/// Edge length of a grid cell in metres: a particle's one-second move
/// touches one to four cells.
const CELL_M: f64 = 2.0;

/// The most cells a move may span and still be answered from the grid:
/// 2 × 2, what a move shorter than a cell can touch. Longer moves (a WiFi
/// signal path across the floor) check every indexed wall's box instead.
const GRID_MAX_CELLS: usize = 4;

/// Slack around every indexed wall's bounding box, in metres; covers the
/// 1e-12 m touching tolerance and the sub-nanometre rounding bound above
/// with a wide margin.
const SLACK_M: f64 = 1e-6;

/// Largest coordinate magnitude, in metres, the grid answers for.
const MAX_COORD_M: f64 = 1e6;

#[derive(Debug, Clone)]
struct Entry {
    wall: Segment2,
    /// Bounding box grown by [`SLACK_M`].
    lo: Point2,
    hi: Point2,
    /// The cell holding `lo`, where the wall's cell range starts.
    first_cell: (usize, usize),
}

/// Walls of one floor bucketed into a uniform grid, answering the same
/// wall-crossing queries as [`Floor::path_blocked`] without scanning
/// every wall.
///
/// ```
/// use perpos_geo::Point2;
/// use perpos_model::{demo_building, WallIndex};
///
/// let floor = demo_building().floor(0).cloned().expect("ground floor");
/// let index = WallIndex::new(&floor);
/// let (a, b) = (Point2::new(1.0, 2.0), Point2::new(1.0, 5.0));
/// assert!(index.path_blocked(a, b));
/// assert_eq!(index.path_blocked(a, b), floor.path_blocked(a, b));
/// // Through the door gap of R0 instead.
/// assert_eq!(index.crossings(Point2::new(2.5, 2.0), Point2::new(2.5, 5.0)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct WallIndex {
    entries: Vec<Entry>,
    /// Walls the grid cannot answer for exactly; tested on every query.
    unindexed: Vec<Segment2>,
    origin: Point2,
    nx: usize,
    ny: usize,
    /// Cell `c` holds `cell_entries[cell_start[c]..cell_start[c + 1]]`.
    cell_start: Vec<usize>,
    cell_entries: Vec<usize>,
}

/// One more than the index of the cell at `offset` metres from the grid
/// origin: at least 1, monotone in `offset`. Negative and NaN offsets
/// land in the first cell, and `as` saturates huge ones.
fn cells_to(offset: f64) -> usize {
    ((offset / CELL_M).max(0.0) as usize).saturating_add(1)
}

fn within_grid_range(p: Point2) -> bool {
    p.x.abs() <= MAX_COORD_M && p.y.abs() <= MAX_COORD_M
}

impl WallIndex {
    /// Indexes the walls of `floor`.
    pub fn new(floor: &Floor) -> Self {
        let mut entries = Vec::new();
        let mut unindexed = Vec::new();
        for &wall in floor.walls() {
            let axis_aligned = wall.a.x == wall.b.x || wall.a.y == wall.b.y;
            if axis_aligned && within_grid_range(wall.a) && within_grid_range(wall.b) {
                entries.push(Entry {
                    wall,
                    lo: Point2::new(
                        wall.a.x.min(wall.b.x) - SLACK_M,
                        wall.a.y.min(wall.b.y) - SLACK_M,
                    ),
                    hi: Point2::new(
                        wall.a.x.max(wall.b.x) + SLACK_M,
                        wall.a.y.max(wall.b.y) + SLACK_M,
                    ),
                    first_cell: (0, 0),
                });
            } else {
                unindexed.push(wall);
            }
        }

        let mut origin = Point2::new(0.0, 0.0);
        let mut far = Point2::new(0.0, 0.0);
        if let Some(first) = entries.first() {
            origin = first.lo;
            far = first.hi;
            for e in &entries {
                origin = Point2::new(origin.x.min(e.lo.x), origin.y.min(e.lo.y));
                far = Point2::new(far.x.max(e.hi.x), far.y.max(e.hi.y));
            }
        }
        let mut index = WallIndex {
            entries,
            unindexed,
            origin,
            nx: cells_to(far.x - origin.x),
            ny: cells_to(far.y - origin.y),
            cell_start: vec![0],
            cell_entries: Vec::new(),
        };
        let mut cells = vec![Vec::new(); index.nx * index.ny];
        for i in 0..index.entries.len() {
            let (x0, y0) = index.cell(index.entries[i].lo);
            let (x1, y1) = index.cell(index.entries[i].hi);
            index.entries[i].first_cell = (x0, y0);
            for cy in y0..=y1 {
                for cx in x0..=x1 {
                    cells[cy * index.nx + cx].push(i);
                }
            }
        }
        for cell in cells {
            index.cell_entries.extend(cell);
            index.cell_start.push(index.cell_entries.len());
        }
        index
    }

    /// Whether straight-line motion from `from` to `to` crosses any wall;
    /// always equal to [`Floor::path_blocked`] on the indexed floor.
    pub fn path_blocked(&self, from: Point2, to: Point2) -> bool {
        let motion = Segment2::new(from, to);
        self.any_candidate(from, to, |wall| wall.intersects(&motion))
    }

    /// How many walls the straight line from `from` to `to` crosses,
    /// counting each wall once; always equal to the number of the floor's
    /// walls `w` with `w.intersects(&Segment2::new(from, to))`.
    pub fn crossings(&self, from: Point2, to: Point2) -> usize {
        let path = Segment2::new(from, to);
        let mut crossed = 0;
        self.any_candidate(from, to, |wall| {
            crossed += usize::from(wall.intersects(&path));
            false
        });
        crossed
    }

    /// The grid cell holding `p`, clamped to the grid. Monotone in each
    /// coordinate, so boxes that overlap share a cell.
    fn cell(&self, p: Point2) -> (usize, usize) {
        (
            cells_to(p.x - self.origin.x).min(self.nx) - 1,
            cells_to(p.y - self.origin.y).min(self.ny) - 1,
        )
    }

    /// Calls `hit` on every wall that may meet the move from `from` to
    /// `to`, each at most once, until it returns `true`.
    fn any_candidate(
        &self,
        from: Point2,
        to: Point2,
        mut hit: impl FnMut(&Segment2) -> bool,
    ) -> bool {
        if self.unindexed.iter().any(&mut hit) {
            return true;
        }
        if !(within_grid_range(from) && within_grid_range(to)) {
            return self.entries.iter().any(|e| hit(&e.wall));
        }
        let lo = Point2::new(from.x.min(to.x), from.y.min(to.y));
        let hi = Point2::new(from.x.max(to.x), from.y.max(to.y));
        let overlaps =
            |e: &Entry| e.lo.x <= hi.x && lo.x <= e.hi.x && e.lo.y <= hi.y && lo.y <= e.hi.y;
        let (x0, y0) = self.cell(lo);
        let (x1, y1) = self.cell(hi);
        if (x1 - x0 + 1) * (y1 - y0 + 1) > GRID_MAX_CELLS {
            return self.entries.iter().any(|e| overlaps(e) && hit(&e.wall));
        }
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                let c = cy * self.nx + cx;
                for &i in &self.cell_entries[self.cell_start[c]..self.cell_start[c + 1]] {
                    let e = &self.entries[i];
                    // A wall spanning several cells is visited in the
                    // first cell it shares with the move's range only.
                    let first = (e.first_cell.0.max(x0), e.first_cell.1.max(y0));
                    if first == (cx, cy) && overlaps(e) && hit(&e.wall) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{demo_building, BuildingBuilder, Door, Room};
    use perpos_geo::Wgs84;
    use proptest::prelude::*;
    use proptest::SampleRng;

    fn demo_floor() -> Floor {
        demo_building()
            .floor(0)
            .cloned()
            .expect("demo ground floor")
    }

    /// A corridor floor of another shape: seven narrow rooms per side.
    fn long_floor() -> Floor {
        let origin = Wgs84::new(56.17, 10.19, 0.0).expect("valid origin");
        BuildingBuilder::new("Long", origin)
            .corridor_floor(2, 7, 3.5, 6.0, 1.8)
            .build()
            .floor(2)
            .cloned()
            .expect("floor 2")
    }

    /// A hand-built floor with diagonal walls and a wall beyond the grid's
    /// range, which stay out of the grid, and a zero-length wall, which
    /// goes in.
    fn odd_floor() -> Floor {
        let mut f = Floor::new(0);
        f.add_room(Room::new(
            "A",
            "A",
            crate::Polygon::rectangle(0.0, 0.0, 6.0, 6.0),
        ));
        for (a, b) in [
            ((0.0, 0.0), (6.0, 0.0)),
            ((6.0, 0.0), (6.0, 6.0)),
            ((0.0, 6.0), (6.0, 6.0)),
            ((0.0, 0.0), (0.0, 2.5)),
            ((0.0, 3.5), (0.0, 6.0)),
            ((1.0, 1.0), (4.0, 2.3)),
            ((5.5, 0.5), (2.1, 5.9)),
            ((3.0, 3.0), (3.0, 3.0)),
            ((2e6, 1.0), (2e6, 5.0)),
        ] {
            f.add_wall(Segment2::new(Point2::new(a.0, a.1), Point2::new(b.0, b.1)));
        }
        f.add_door(Door {
            span: Segment2::new(Point2::new(0.0, 2.5), Point2::new(0.0, 3.5)),
            connects: (None, None),
        });
        f
    }

    fn floors() -> [Floor; 3] {
        [demo_floor(), long_floor(), odd_floor()]
    }

    /// A move on one of [`floors`], drawn from a mix of shapes chosen to
    /// hit the index's edge cases.
    #[derive(Debug, Clone, Copy)]
    struct AnyMove;

    fn point(rng: &mut SampleRng, span: f64) -> Point2 {
        Point2::new(
            (-span..span + 30.0).sample(rng),
            (-span..span + 15.0).sample(rng),
        )
    }

    fn on_segment(rng: &mut SampleRng, s: &Segment2, overshoot: f64) -> Point2 {
        s.lerp((-overshoot..1.0 + overshoot).sample(rng))
    }

    fn huge(rng: &mut SampleRng) -> f64 {
        let magnitude = [1e6, 1e6 + 1.0, 3e7, 1e15, 1e154, 1e300, f64::MAX][rng.below(7)];
        if rng.below(2) == 0 {
            magnitude
        } else {
            -magnitude
        }
    }

    impl Strategy for AnyMove {
        type Value = (usize, Point2, Point2);

        fn sample(&self, rng: &mut SampleRng) -> Self::Value {
            let which = rng.below(3);
            let floor = &floors()[which];
            let wall = floor.walls()[rng.below(floor.walls().len())];
            let from = point(rng, 5.0);
            let (from, to) = match rng.below(11) {
                // Anywhere around the floor.
                0 => (from, point(rng, 5.0)),
                // A particle-sized step.
                1 => {
                    let d = perpos_geo::Vec2::new((-1.6..1.6).sample(rng), (-1.6..1.6).sample(rng));
                    (from, from + d)
                }
                // Zero length, sometimes on a wall.
                2 => {
                    let p = if rng.below(2) == 0 {
                        from
                    } else {
                        on_segment(rng, &wall, 0.2)
                    };
                    (p, p)
                }
                // Collinear with a wall, overlapping or beyond its ends.
                3 => (on_segment(rng, &wall, 1.0), on_segment(rng, &wall, 1.0)),
                // Ending on a wall (or on one of its endpoints).
                4 => {
                    let end = match rng.below(3) {
                        0 => wall.a,
                        1 => wall.b,
                        _ => on_segment(rng, &wall, 0.0),
                    };
                    (from, end)
                }
                // Through (or grazing) a door gap.
                5 => match floor.doors().get(rng.below(floor.doors().len().max(1))) {
                    Some(door) => {
                        let gap = on_segment(rng, &door.span, 0.1);
                        let d =
                            perpos_geo::Vec2::new((-2.0..2.0).sample(rng), (-2.0..2.0).sample(rng));
                        (gap - d, gap + d)
                    }
                    None => (from, point(rng, 5.0)),
                },
                // Outside the grid's extent, near or far.
                6 => (point(rng, 1e3), point(rng, 1e3)),
                // Huge coordinates.
                7 => {
                    let mut to = point(rng, 5.0);
                    match rng.below(3) {
                        0 => to.x = huge(rng),
                        1 => to.y = huge(rng),
                        _ => to = Point2::new(huge(rng), huge(rng)),
                    }
                    (from, to)
                }
                // Non-finite coordinates.
                8 => {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
                    let mut to = point(rng, 5.0);
                    if rng.below(2) == 0 {
                        to.x = bad;
                    } else {
                        to.y = bad;
                    }
                    (from, to)
                }
                // Along a cell boundary of the demo grid.
                9 => {
                    let x = -SLACK_M + CELL_M * rng.below(12) as f64;
                    (
                        Point2::new(x, from.y),
                        Point2::new(x, (-5.0..20.0).sample(rng)),
                    )
                }
                // Between two wall endpoints.
                _ => {
                    let other = floor.walls()[rng.below(floor.walls().len())];
                    (wall.b, other.a)
                }
            };
            if rng.below(2) == 0 {
                (which, from, to)
            } else {
                (which, to, from)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The index answers exactly as the all-walls scan.
        #[test]
        fn index_agrees_with_the_linear_scan((which, from, to) in AnyMove) {
            let floor = &floors()[which];
            let index = WallIndex::new(floor);
            prop_assert_eq!(index.path_blocked(from, to), floor.path_blocked(from, to));
            let motion = Segment2::new(from, to);
            let scanned = floor.walls().iter().filter(|w| w.intersects(&motion)).count();
            prop_assert_eq!(index.crossings(from, to), scanned);
        }
    }

    #[test]
    fn grid_shape_and_unindexed_walls() {
        let demo = WallIndex::new(&demo_floor());
        assert_eq!(demo.entries.len(), demo_floor().walls().len());
        assert!(demo.unindexed.is_empty(), "the demo floor is axis-aligned");
        assert_eq!((demo.nx, demo.ny), (11, 6));
        let odd = WallIndex::new(&odd_floor());
        assert_eq!(odd.unindexed.len(), 3, "two diagonals and the far wall");
        assert_eq!(
            odd.entries.len() + odd.unindexed.len(),
            odd_floor().walls().len()
        );
    }

    /// A NaN coordinate poisons every cross product it enters, so a move
    /// with one is blocked only where its finite endpoint touches a wall;
    /// these finite endpoints touch none.
    #[test]
    fn nan_moves_are_not_blocked() {
        for floor in floors() {
            let index = WallIndex::new(&floor);
            for (from, to) in [
                (Point2::new(f64::NAN, 1.5), Point2::new(1.5, 1.5)),
                (Point2::new(1.5, 1.5), Point2::new(1.5, f64::NAN)),
                (
                    Point2::new(f64::NAN, f64::NAN),
                    Point2::new(f64::NAN, f64::NAN),
                ),
            ] {
                assert!(!index.path_blocked(from, to));
                assert!(!floor.path_blocked(from, to));
                assert_eq!(index.crossings(from, to), 0);
            }
        }
    }

    #[test]
    fn crossings_count_each_wall_once() {
        let floor = demo_floor();
        let index = WallIndex::new(&floor);
        // Along the south outer wall from end to end: collinear with it,
        // and touching the west and east walls and the three dividing
        // walls of the south row, which all end at y = 0.
        let (a, b) = (Point2::new(0.0, 0.0), Point2::new(20.0, 0.0));
        let motion = Segment2::new(a, b);
        let expected = floor
            .walls()
            .iter()
            .filter(|w| w.intersects(&motion))
            .count();
        assert_eq!(expected, 6);
        assert_eq!(index.crossings(a, b), expected);
        // Diagonal across the whole floor.
        let (a, b) = (Point2::new(0.5, 0.5), Point2::new(19.5, 10.0));
        let motion = Segment2::new(a, b);
        let expected = floor
            .walls()
            .iter()
            .filter(|w| w.intersects(&motion))
            .count();
        assert_eq!(index.crossings(a, b), expected);
    }

    #[test]
    fn empty_floor_blocks_nothing() {
        let index = WallIndex::new(&Floor::new(0));
        assert!(index.entries.is_empty() && index.unindexed.is_empty());
        assert!(!index.path_blocked(Point2::new(0.0, 0.0), Point2::new(5.0, 5.0)));
        assert_eq!(
            index.crossings(Point2::new(-1e9, 0.0), Point2::new(1e9, 0.0)),
            0
        );
    }
}
