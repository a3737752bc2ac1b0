//! A uniform-grid index over the walls of one floor.
//!
//! [`Floor::path_blocked`] tests a move against every wall. The particle
//! filter asks that question for every particle on every update and the
//! WiFi radio model counts crossed walls for every access point of every
//! scan, so both use a [`WallIndex`] instead: walls are bucketed into
//! square cells once, and a query tests only the walls whose bounding box
//! (with [`SLACK_M`] of slack) overlaps the move's bounding box. Short
//! moves find those walls through the cells they touch; longer ones (an
//! access point's signal path) check each wall's box, which is cheaper
//! than visiting many cells.
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
//!
//! # Particle-sized moves
//!
//! A particle's step is shorter than [`REACH_M`] in both coordinates, and
//! most steps start far from any wall. A second, fine table answers those
//! moves from their start cell alone. Over the indexed walls' extent it
//! lays cells of [`FINE_M`], and for each cell it keeps:
//!
//! * its *clearance*: the smallest Chebyshev distance from the cell to
//!   any indexed wall's *reach box* (the slack box grown by another
//!   [`SLACK_M`]), capped at [`REACH_M`];
//! * its *near list*: every indexed wall whose reach box lies within
//!   Chebyshev distance [`REACH_M`] of the cell (a superset is harmless).
//!
//! A move whose larger coordinate delta `d` is below its start cell's
//! clearance meets no indexed wall; one with `d` below [`REACH_M`] can
//! only meet the walls of the start cell's near list. Everything else
//! (longer moves, starts outside the table, NaN or infinite deltas, and
//! floors too large for [`FINE_MAX_CELLS`]) takes the grid path above.
//!
//! Both answers keep the scan's bits. The move's box lies within
//! Chebyshev distance `d` of its start point. The start point lies in
//! the cell its coordinates round to, up to rounding below 1e-9 m, and
//! the cell bounds and gaps of the table carry rounding of the same
//! size. A wall the move meets has a slack box overlapping the move's
//! box, by the argument above. Its reach box is [`SLACK_M`] wider than
//! the slack box, and [`SLACK_M`] is a thousand times every one of those
//! rounding terms. So that wall's reach box is within `d` of the start
//! cell even as computed: the cell's clearance is at most `d`, and the
//! near list, built from every cell within [`REACH_M`] of the reach box,
//! holds the wall.

use perpos_geo::{Point2, Segment2};

use crate::Floor;

/// Edge length of a grid cell in metres.
const CELL_M: f64 = 2.0;

/// The most cells a move may span and still be answered from the grid:
/// 2 × 2, what a move shorter than a cell can touch. Longer moves (a WiFi
/// signal path across the floor) check every indexed wall's box instead.
const GRID_MAX_CELLS: usize = 4;

/// Edge length of a fine cell in metres.
const FINE_M: f64 = 0.5;

/// Chebyshev reach of a fine cell's near list in metres: the particle
/// filter's one-second step at up to 1.5 m/s stays within it.
const REACH_M: f64 = 1.5;

/// The most fine cells a floor's table may have (a 256 m × 256 m floor);
/// a larger floor answers every move from the grid.
const FINE_MAX_CELLS: usize = 1 << 18;

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

impl Entry {
    /// Whether the slack box overlaps the box from `lo` to `hi`; `&`, not
    /// `&&`, so the test is one branch instead of four.
    fn overlaps(&self, lo: Point2, hi: Point2) -> bool {
        (self.lo.x <= hi.x) & (lo.x <= self.hi.x) & (self.lo.y <= hi.y) & (lo.y <= self.hi.y)
    }
}

/// The bounding box of the move from `from` to `to`.
fn move_box(from: Point2, to: Point2) -> (Point2, Point2) {
    (
        Point2::new(from.x.min(to.x), from.y.min(to.y)),
        Point2::new(from.x.max(to.x), from.y.max(to.y)),
    )
}

/// Half-open column and row ranges of the cells an entry is listed in.
type Span = ((usize, usize), (usize, usize));

/// The cell index at `offset` metres from a grid's origin with cells of
/// `size` metres. Monotone in `offset`; negative and NaN offsets land in
/// the first cell, and `as` saturates huge ones.
fn cell_at(offset: f64, size: f64) -> usize {
    (offset / size).max(0.0) as usize
}

/// [`cell_at`] clamped to a grid of `n` cells.
fn clamped_cell(offset: f64, size: f64, n: usize) -> usize {
    cell_at(offset, size).min(n - 1)
}

/// How many cells of `size` metres a grid needs to cover `extent` metres.
fn cells_over(extent: f64, size: f64) -> usize {
    cell_at(extent, size).saturating_add(1)
}

/// Entry indices listed per grid cell: cell `c` lists
/// `items[start[c]..start[c + 1]]`, in entry order.
#[derive(Debug, Clone, Default)]
struct Buckets {
    start: Vec<usize>,
    items: Vec<u32>,
}

impl Buckets {
    /// Lists entry `i` in every cell of `spans[i]`, on a row-major grid
    /// `nx` cells wide with `cells` cells.
    fn new(nx: usize, cells: usize, spans: &[Span]) -> Self {
        let rows =
            |&((x0, x1), (y0, y1)): &Span| (y0..y1).map(move |cy| cy * nx + x0..cy * nx + x1);
        // Count into `start[c]`, turn the counts into list ends, then
        // fill back to front: each `start[c]` moves from the end of its
        // list to its start.
        let mut start = vec![0; cells + 1];
        for span in spans {
            for row in rows(span) {
                for n in &mut start[row] {
                    *n += 1;
                }
            }
        }
        let mut end = 0;
        for s in &mut start[..cells] {
            end += *s;
            *s = end;
        }
        start[cells] = end;
        let mut items = vec![0; end];
        for (i, span) in spans.iter().enumerate().rev() {
            for row in rows(span) {
                for end in &mut start[row] {
                    *end -= 1;
                    // A floor never has 2³² walls.
                    items[*end] = i as u32;
                }
            }
        }
        Buckets { start, items }
    }

    fn cell(&self, c: usize) -> &[u32] {
        &self.items[self.start[c]..self.start[c + 1]]
    }
}

/// The fine table of the module docs, over the indexed walls' extent.
/// Empty (zero cells) when there is no indexed wall or the extent needs
/// more than [`FINE_MAX_CELLS`].
#[derive(Debug, Clone, Default)]
struct Fine {
    origin: Point2,
    nx: usize,
    ny: usize,
    /// Row-major per cell: a lower bound on the Chebyshev distance to
    /// every indexed wall's reach box, at most [`REACH_M`].
    clearance: Vec<f64>,
    near: Buckets,
}

impl Fine {
    fn new(entries: &[Entry], origin: Point2, far: Point2) -> Self {
        let nx = cells_over(far.x - origin.x, FINE_M);
        let ny = cells_over(far.y - origin.y, FINE_M);
        let cells = nx.saturating_mul(ny);
        if entries.is_empty() || cells > FINE_MAX_CELLS {
            return Fine::default();
        }
        // Each entry's reach box relative to `origin`, and the cells
        // within `REACH_M` of it (and perhaps a few more).
        let boxes: Vec<(Point2, Point2)> = entries
            .iter()
            .map(|e| {
                (
                    Point2::new(e.lo.x - SLACK_M - origin.x, e.lo.y - SLACK_M - origin.y),
                    Point2::new(e.hi.x + SLACK_M - origin.x, e.hi.y + SLACK_M - origin.y),
                )
            })
            .collect();
        let span = |lo: f64, hi: f64, n: usize| {
            (
                clamped_cell(lo - REACH_M, FINE_M, n),
                clamped_cell(hi + REACH_M, FINE_M, n) + 1,
            )
        };
        let spans: Vec<Span> = boxes
            .iter()
            .map(|(lo, hi)| (span(lo.x, hi.x, nx), span(lo.y, hi.y, ny)))
            .collect();
        let gap = |lo: f64, hi: f64, cell: usize| {
            let low = cell as f64 * FINE_M;
            (lo - (low + FINE_M)).max(low - hi).max(0.0)
        };
        let mut clearance = vec![REACH_M; cells];
        let mut gaps_x = Vec::new();
        for (&(lo, hi), &((x0, x1), (y0, y1))) in boxes.iter().zip(&spans) {
            gaps_x.clear();
            gaps_x.extend((x0..x1).map(|cx| gap(lo.x, hi.x, cx)));
            for cy in y0..y1 {
                let gap_y = gap(lo.y, hi.y, cy);
                let row = &mut clearance[cy * nx + x0..cy * nx + x1];
                for (clear, &gap_x) in row.iter_mut().zip(&gaps_x) {
                    let gap = if gap_x > gap_y { gap_x } else { gap_y };
                    if gap < *clear {
                        *clear = gap;
                    }
                }
            }
        }
        Fine {
            origin,
            nx,
            ny,
            clearance,
            near: Buckets::new(nx, cells, &spans),
        }
    }

    /// The indexed walls a move from `from` to `to` may meet: none when
    /// it stays within its start cell's clearance, the cell's near list
    /// when it is shorter than [`REACH_M`], and `None` (ask the grid)
    /// otherwise. NaN fails every comparison, so it asks the grid.
    fn candidates(&self, from: Point2, to: Point2) -> Option<&[u32]> {
        let (dx, dy) = ((to.x - from.x).abs(), (to.y - from.y).abs());
        let fx = (from.x - self.origin.x) / FINE_M;
        let fy = (from.y - self.origin.y) / FINE_M;
        // `&`, not `&&`: one branch instead of six.
        let short = (dx < REACH_M) & (dy < REACH_M);
        let inside = (fx >= 0.0) & (fy >= 0.0) & (fx < self.nx as f64) & (fy < self.ny as f64);
        if !(short & inside) {
            return None;
        }
        let c = fy as usize * self.nx + fx as usize;
        let clear = self.clearance[c];
        if (dx < clear) & (dy < clear) {
            return Some(&[]);
        }
        Some(self.near.cell(c))
    }
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
    grid: Buckets,
    fine: Fine,
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
            nx: cells_over(far.x - origin.x, CELL_M),
            ny: cells_over(far.y - origin.y, CELL_M),
            grid: Buckets::default(),
            fine: Fine::default(),
        };
        let mut spans = Vec::with_capacity(index.entries.len());
        for i in 0..index.entries.len() {
            let (x0, y0) = index.cell(index.entries[i].lo);
            let (x1, y1) = index.cell(index.entries[i].hi);
            index.entries[i].first_cell = (x0, y0);
            spans.push(((x0, x1 + 1), (y0, y1 + 1)));
        }
        index.grid = Buckets::new(index.nx, index.nx * index.ny, &spans);
        index.fine = Fine::new(&index.entries, origin, far);
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
            clamped_cell(p.x - self.origin.x, CELL_M, self.nx),
            clamped_cell(p.y - self.origin.y, CELL_M, self.ny),
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
        if let Some(near) = self.fine.candidates(from, to) {
            if near.is_empty() {
                return false;
            }
            let (lo, hi) = move_box(from, to);
            return near.iter().any(|&i| {
                let e = &self.entries[i as usize];
                e.overlaps(lo, hi) && hit(&e.wall)
            });
        }
        self.any_in_grid(from, to, hit)
    }

    /// [`WallIndex::any_candidate`] for the moves the fine table does
    /// not answer; kept out of line so the fine path stays small.
    #[inline(never)]
    fn any_in_grid(
        &self,
        from: Point2,
        to: Point2,
        mut hit: impl FnMut(&Segment2) -> bool,
    ) -> bool {
        if !(within_grid_range(from) && within_grid_range(to)) {
            return self.entries.iter().any(|e| hit(&e.wall));
        }
        let (lo, hi) = move_box(from, to);
        let (x0, y0) = self.cell(lo);
        let (x1, y1) = self.cell(hi);
        if (x1 - x0 + 1) * (y1 - y0 + 1) > GRID_MAX_CELLS {
            return self
                .entries
                .iter()
                .any(|e| e.overlaps(lo, hi) && hit(&e.wall));
        }
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                for &i in self.grid.cell(cy * self.nx + cx) {
                    let e = &self.entries[i as usize];
                    // A wall spanning several cells is visited in the
                    // first cell it shares with the move's range only.
                    let first = (e.first_cell.0.max(x0), e.first_cell.1.max(y0));
                    if first == (cx, cy) && e.overlaps(lo, hi) && hit(&e.wall) {
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

    /// A particle's move: from next to an indexed wall (sometimes on a
    /// corner of its fine cell), from an edge cell of the fine table or
    /// from just outside it, with a larger coordinate delta just below, at
    /// or just above the start cell's clearance, [`REACH_M`] or the
    /// Chebyshev distance to that wall; a move from next to a wall
    /// sometimes heads straight for it.
    fn particle_move(rng: &mut SampleRng, floor: &Floor) -> (Point2, Point2) {
        let index = WallIndex::new(floor);
        let fine = &index.fine;
        let (o, nx, ny) = (fine.origin, fine.nx, fine.ny);
        let within = |rng: &mut SampleRng, cells: usize| (0.0..cells as f64 * FINE_M).sample(rng);
        let mut target = None;
        let from = match rng.below(3) {
            0 => {
                let e = &index.entries[rng.below(index.entries.len())];
                let near = 2.0 * FINE_M;
                let p = Point2::new(
                    (e.lo.x - near..e.hi.x + near).sample(rng),
                    (e.lo.y - near..e.hi.y + near).sample(rng),
                );
                let snap = |rng: &mut SampleRng, v: f64, o: f64| {
                    let low = o + ((v - o) / FINE_M).floor() * FINE_M;
                    match rng.below(3) {
                        0 => low,
                        1 => (low + FINE_M).next_down(),
                        _ => v,
                    }
                };
                let from = Point2::new(snap(rng, p.x, o.x), snap(rng, p.y, o.y));
                let (a, b) = (e.wall.a, e.wall.b);
                target = Some(Point2::new(
                    from.x.clamp(a.x.min(b.x), a.x.max(b.x)),
                    from.y.clamp(a.y.min(b.y), a.y.max(b.y)),
                ));
                from
            }
            1 => {
                let (cx, cy) = match rng.below(4) {
                    0 => (0, rng.below(ny)),
                    1 => (nx - 1, rng.below(ny)),
                    2 => (rng.below(nx), 0),
                    _ => (rng.below(nx), ny - 1),
                };
                let corner = rng.below(3) == 0;
                let offset = |rng: &mut SampleRng| if corner { 0.0 } else { within(rng, 1) };
                Point2::new(
                    o.x + cx as f64 * FINE_M + offset(rng),
                    o.y + cy as f64 * FINE_M + offset(rng),
                )
            }
            _ => {
                let out = (0.0..FINE_M).sample(rng);
                let (x, y) = (o.x + within(rng, nx), o.y + within(rng, ny));
                match rng.below(4) {
                    0 => Point2::new(o.x - out, y),
                    1 => Point2::new(o.x + nx as f64 * FINE_M + out, y),
                    2 => Point2::new(x, o.y - out),
                    _ => Point2::new(x, o.y + ny as f64 * FINE_M + out),
                }
            }
        };
        let (fx, fy) = ((from.x - o.x) / FINE_M, (from.y - o.y) / FINE_M);
        let inside = fx >= 0.0 && fy >= 0.0 && fx < nx as f64 && fy < ny as f64;
        let clearance = if inside {
            fine.clearance[fy as usize * nx + fx as usize]
        } else {
            REACH_M
        };
        let to_target = target.map(|t| t - from);
        let bound = match (rng.below(3), to_target) {
            (0, _) => clearance,
            (1, Some(v)) => v.x.abs().max(v.y.abs()),
            _ => REACH_M,
        };
        let d = match rng.below(5) {
            0 => bound.next_down(),
            1 => bound,
            2 => bound.next_up(),
            3 => bound - 3e-6,
            _ => bound + 3e-6,
        }
        .max(0.0);
        if let Some(v) = to_target.filter(|v| v.x != 0.0 || v.y != 0.0) {
            if rng.below(2) == 0 {
                return (from, from + v * (d / v.x.abs().max(v.y.abs())));
            }
        }
        let sign = |rng: &mut SampleRng| if rng.below(2) == 0 { 1.0 } else { -1.0 };
        let along = sign(rng) * d;
        let across = match rng.below(3) {
            0 => sign(rng) * d,
            _ if d > 0.0 => (-d..d).sample(rng),
            _ => 0.0,
        };
        let delta = if rng.below(2) == 0 {
            perpos_geo::Vec2::new(along, across)
        } else {
            perpos_geo::Vec2::new(across, along)
        };
        (from, from + delta)
    }

    impl Strategy for AnyMove {
        type Value = (usize, Point2, Point2);

        fn sample(&self, rng: &mut SampleRng) -> Self::Value {
            let which = rng.below(3);
            let floor = &floors()[which];
            let wall = floor.walls()[rng.below(floor.walls().len())];
            let from = point(rng, 5.0);
            let (from, to) = match rng.below(12) {
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
                // A particle's move from near a wall, an edge cell of the
                // fine table or just outside it.
                10 => particle_move(rng, floor),
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
