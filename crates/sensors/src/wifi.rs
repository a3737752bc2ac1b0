//! WiFi signal-strength positioning: a log-distance path-loss radio
//! model, an offline fingerprint radio map and online k-NN positioning.
//!
//! Substitutes the paper's "server containing an indoor WiFi positioning
//! system" (§1): the same interface — scans in, positions out — with
//! realistic metre-scale indoor error.

use std::collections::BTreeMap;
use std::sync::Arc;

use perpos_core::component::{Component, ComponentCtx, ComponentDescriptor, InputSpec, MethodSpec};
use perpos_core::prelude::*;
use perpos_geo::Point2;
use perpos_model::{Building, Floor, WallIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trajectory::Trajectory;

/// A WiFi access point: an id, a floor-plan position and a transmit
/// power.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPoint {
    /// Identifier (e.g. a BSSID-like string).
    pub id: String,
    /// Position in building-local coordinates.
    pub position: Point2,
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
}

impl AccessPoint {
    /// Creates an access point with a typical 20 dBm transmit power.
    pub fn new(id: impl Into<String>, position: Point2) -> Self {
        AccessPoint {
            id: id.into(),
            position,
            tx_power_dbm: 20.0,
        }
    }
}

/// The indoor radio environment: access points in a building, with a
/// log-distance path-loss model, per-wall attenuation and log-normal
/// shadowing.
pub struct WifiEnvironment {
    aps: Vec<AccessPoint>,
    building: Arc<Building>,
    floor: i32,
    walls: Option<WallIndex>,
    /// Path-loss exponent; ~2 in free space, 2.5–4 indoors.
    pub path_loss_exponent: f64,
    /// Attenuation per crossed wall in dB.
    pub wall_attenuation_db: f64,
    /// Standard deviation of shadowing noise in dB.
    pub shadowing_sigma_db: f64,
    /// Receiver sensitivity: weaker APs are absent from scans.
    pub detection_threshold_dbm: f64,
}

impl std::fmt::Debug for WifiEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WifiEnvironment")
            .field("aps", &self.aps.len())
            .field("building", &self.building.name())
            .finish()
    }
}

impl WifiEnvironment {
    /// Creates an environment with typical indoor parameters.
    pub fn new(building: Arc<Building>, floor: i32, aps: Vec<AccessPoint>) -> Self {
        WifiEnvironment {
            aps,
            walls: building.floor(floor).map(WallIndex::new),
            building,
            floor,
            path_loss_exponent: 2.8,
            wall_attenuation_db: 3.5,
            shadowing_sigma_db: 3.0,
            detection_threshold_dbm: -95.0,
        }
    }

    /// Places one access point in the centre of every room of the floor —
    /// a simple realistic deployment for experiments.
    pub fn with_ap_per_room(building: Arc<Building>, floor: i32) -> Self {
        let aps = building
            .floor(floor)
            .map(|f| {
                f.rooms()
                    .iter()
                    .enumerate()
                    .map(|(i, room)| {
                        AccessPoint::new(format!("AP{i:02}"), room.outline().centroid())
                    })
                    .collect()
            })
            .unwrap_or_default();
        WifiEnvironment::new(building, floor, aps)
    }

    /// The deployed access points.
    pub fn access_points(&self) -> &[AccessPoint] {
        &self.aps
    }

    /// The building the environment is embedded in.
    pub fn building(&self) -> &Arc<Building> {
        &self.building
    }

    /// Deterministic mean RSSI of `ap` at `p` (no shadowing), in dBm.
    pub fn mean_rssi_dbm(&self, ap: &AccessPoint, p: Point2) -> f64 {
        let d = ap.position.distance(&p).max(0.5);
        let walls = self.walls_crossed(ap.position, p);
        // Reference loss of 40 dB at 1 m (2.4 GHz-ish).
        ap.tx_power_dbm
            - 40.0
            - 10.0 * self.path_loss_exponent * d.log10()
            - self.wall_attenuation_db * walls as f64
    }

    fn walls_crossed(&self, a: Point2, b: Point2) -> usize {
        self.walls.as_ref().map_or(0, |w| w.crossings(a, b))
    }

    /// A noisy scan at `p`: AP id to RSSI, shadowed and thresholded.
    pub fn scan(&self, p: Point2, rng: &mut StdRng) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for ap in &self.aps {
            let noise = {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            };
            let rssi = self.mean_rssi_dbm(ap, p) + noise * self.shadowing_sigma_db;
            if rssi >= self.detection_threshold_dbm {
                out.insert(ap.id.clone(), rssi);
            }
        }
        out
    }
}

/// An offline fingerprint database: mean signal vectors on a grid over
/// the building floor.
///
/// Fingerprints are stored densely: a sorted table of the environment's
/// AP ids and one row of mean RSSIs per surveyed point, in that id order,
/// with NaN where the point does not hear the AP.
///
/// ```
/// use std::sync::Arc;
/// use perpos_geo::Point2;
/// use perpos_model::demo_building;
/// use perpos_sensors::{RadioMap, WifiEnvironment};
///
/// let env = WifiEnvironment::with_ap_per_room(Arc::new(demo_building()), 0);
/// let map = RadioMap::build(&env, 1.0);
/// // Estimate a position from the noiseless fingerprint at a known spot.
/// let mut rng = rand::SeedableRng::seed_from_u64(7);
/// let scan = env.scan(Point2::new(7.5, 2.0), &mut rng);
/// let (estimate, _confidence) = map.estimate(&scan, 3).expect("coverage");
/// assert!(estimate.distance(&Point2::new(7.5, 2.0)) < 6.0);
/// ```
#[derive(Debug, Clone)]
pub struct RadioMap {
    /// The environment's distinct AP ids, sorted.
    ap_ids: Vec<String>,
    /// Surveyed points, one per fingerprint row.
    points: Vec<Point2>,
    /// Row-major mean RSSI in dBm, `ap_ids.len()` per row; NaN where the
    /// point does not hear the AP.
    rssi: Vec<f64>,
    missing_penalty_dbm: f64,
}

/// Grid points `grid_step` apart over the rooms' bounding box that fall
/// inside a room, row by row from the south-west.
fn survey_points(floor: &Floor, grid_step: f64) -> Vec<Point2> {
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for room in floor.rooms() {
        let (lo, hi) = room.outline().bounding_box();
        min_x = min_x.min(lo.x);
        min_y = min_y.min(lo.y);
        max_x = max_x.max(hi.x);
        max_y = max_y.max(hi.y);
    }
    let mut points = Vec::new();
    let mut y = min_y + grid_step / 2.0;
    while y < max_y {
        let mut x = min_x + grid_step / 2.0;
        while x < max_x {
            let p = Point2::new(x, y);
            if floor.room_at(p).is_some() {
                points.push(p);
            }
            x += grid_step;
        }
        y += grid_step;
    }
    points
}

impl RadioMap {
    /// Surveys the floor on a `grid_step`-metre grid (only points inside
    /// a room are kept).
    pub fn build(env: &WifiEnvironment, grid_step: f64) -> Self {
        assert!(grid_step > 0.1, "grid step too fine: {grid_step}");
        let mut ap_ids: Vec<String> = env.aps.iter().map(|ap| ap.id.clone()).collect();
        ap_ids.sort_unstable();
        ap_ids.dedup();
        let columns: Vec<usize> = env
            .aps
            .iter()
            .map(|ap| {
                ap_ids
                    .binary_search(&ap.id)
                    .expect("every AP id is in the table")
            })
            .collect();
        let points = env
            .building
            .floor(env.floor)
            .map(|floor| survey_points(floor, grid_step))
            .unwrap_or_default();
        let width = ap_ids.len();
        let mut rssi = vec![f64::NAN; points.len() * width];
        for (i, p) in points.iter().enumerate() {
            let row = &mut rssi[i * width..(i + 1) * width];
            // APs sharing an id share a column; as in a scan, the last
            // one heard wins.
            for (ap, &col) in env.aps.iter().zip(&columns) {
                let mean = env.mean_rssi_dbm(ap, *p);
                if mean >= env.detection_threshold_dbm {
                    row[col] = mean;
                }
            }
        }
        RadioMap {
            ap_ids,
            points,
            rssi,
            missing_penalty_dbm: env.detection_threshold_dbm,
        }
    }

    /// Number of surveyed grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// k-NN position estimate for a scan: the weighted centroid of the
    /// `k` closest fingerprints in signal space, plus a rough accuracy
    /// estimate (spread of the neighbours).
    pub fn estimate(&self, scan: &BTreeMap<String, f64>, k: usize) -> Option<(Point2, f64)> {
        self.estimate_sorted(scan.iter().map(|(id, rssi)| (id.as_str(), *rssi)), k)
    }

    /// [`estimate`](Self::estimate) for a scan given as `(AP id, RSSI)`
    /// pairs in ascending id order without repeats, as a `BTreeMap`
    /// yields them.
    ///
    /// The signal distance to a fingerprint is the RMS difference over
    /// the scan's APs (in scan order; an AP the fingerprint does not hear
    /// counts at the detection threshold) and then over the APs only the
    /// fingerprint hears (in id order, against the threshold). Neighbours
    /// are the `k` smallest `(distance, fingerprint index)` pairs.
    fn estimate_sorted<'a>(
        &self,
        scan: impl IntoIterator<Item = (&'a str, f64)>,
        k: usize,
    ) -> Option<(Point2, f64)> {
        let width = self.ap_ids.len();
        let mut in_scan = vec![false; width];
        let scan: Vec<(f64, Option<usize>)> = scan
            .into_iter()
            .map(|(id, rssi)| {
                let col = self.ap_ids.binary_search_by(|a| a.as_str().cmp(id)).ok();
                if let Some(c) = col {
                    in_scan[c] = true;
                }
                (rssi, col)
            })
            .collect();
        if self.points.is_empty() || scan.is_empty() || k == 0 {
            return None;
        }
        let absent: Vec<usize> = (0..width).filter(|&c| !in_scan[c]).collect();
        let penalty = self.missing_penalty_dbm;
        let distance = |row: &[f64]| {
            let mut sum = 0.0;
            let mut n = scan.len();
            for &(va, col) in &scan {
                let vb = col.map(|c| row[c]).filter(|v| !v.is_nan());
                let vb = vb.unwrap_or(penalty);
                sum += (va - vb).powi(2);
            }
            for &c in &absent {
                let vb = row[c];
                if !vb.is_nan() {
                    sum += (vb - penalty).powi(2);
                    n += 1;
                }
            }
            (sum / n as f64).sqrt()
        };
        let mut scored: Vec<(f64, usize)> = (0..self.points.len())
            .map(|i| (distance(&self.rssi[i * width..(i + 1) * width]), i))
            .collect();
        // Ordering by (distance, index) is total, so the k smallest in
        // that order are a stable sort's first k.
        let by_key = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let k = k.min(scored.len());
        if k < scored.len() {
            scored.select_nth_unstable_by(k - 1, by_key);
        }
        let neighbours = &mut scored[..k];
        neighbours.sort_unstable_by(by_key);
        let mut wx = 0.0;
        let mut wy = 0.0;
        let mut wsum = 0.0;
        for &(d, i) in neighbours.iter() {
            let p = self.points[i];
            let w = 1.0 / (d + 0.1);
            wx += p.x * w;
            wy += p.y * w;
            wsum += w;
        }
        let est = Point2::new(wx / wsum, wy / wsum);
        let spread = neighbours
            .iter()
            .map(|&(_, i)| self.points[i].distance(&est))
            .fold(0.0, f64::max)
            .max(1.0);
        Some((est, spread))
    }
}

/// A WiFi scanning Source component: emits `wifi.scan` items for a target
/// on a [`Trajectory`].
///
/// Reflective methods: `setEnabled(bool)`, `isEnabled() -> bool`.
pub struct WifiScanner {
    name: String,
    env: Arc<WifiEnvironment>,
    trajectory: Trajectory,
    interval: SimDuration,
    next_at: SimTime,
    rng: StdRng,
    enabled: bool,
}

impl WifiScanner {
    /// Creates a scanner sampling once per second.
    pub fn new(name: impl Into<String>, env: Arc<WifiEnvironment>, trajectory: Trajectory) -> Self {
        WifiScanner {
            name: name.into(),
            env,
            trajectory,
            interval: SimDuration::from_secs(1),
            next_at: SimTime::ZERO,
            rng: StdRng::seed_from_u64(0x71f1),
            enabled: true,
        }
    }

    /// Sets the scan interval (builder style).
    pub fn with_interval(mut self, d: SimDuration) -> Self {
        self.interval = d;
        self
    }

    /// Seeds the shadowing noise (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl std::fmt::Debug for WifiScanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WifiScanner")
            .field("name", &self.name)
            .finish()
    }
}

impl Component for WifiScanner {
    fn descriptor(&self) -> ComponentDescriptor {
        let secs = self.interval.as_secs_f64();
        let mut transfer = TransferSpec::new();
        if secs > 0.0 {
            transfer = transfer.with_emit_rate_hz(1.0 / secs);
        }
        ComponentDescriptor::source(self.name.clone(), vec![kinds::WIFI_SCAN])
            .with_transfer(transfer)
    }

    fn on_input(
        &mut self,
        port: usize,
        _item: DataItem,
        _ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Err(CoreError::ComponentFailure {
            component: self.name.clone(),
            reason: format!("WiFi source has no input port {port}"),
        })
    }

    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        if !self.enabled || ctx.now() < self.next_at {
            return Ok(());
        }
        self.next_at = ctx.now() + self.interval;
        let p = self.trajectory.position_at(ctx.now());
        let scan = self.env.scan(p, &mut self.rng);
        if scan.is_empty() {
            return Ok(());
        }
        let map: BTreeMap<String, Value> = scan
            .into_iter()
            .map(|(id, rssi)| (id, Value::Float(rssi)))
            .collect();
        let item = DataItem::new(kinds::WIFI_SCAN, ctx.now(), Value::Map(map))
            .with_attr("source", Value::from("wifi"));
        ctx.emit(item);
        Ok(())
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "setEnabled" => {
                let on = args.first().and_then(Value::as_bool).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: "expected one bool".into(),
                    }
                })?;
                self.enabled = on;
                Ok(Value::Null)
            }
            "isEnabled" => Ok(Value::Bool(self.enabled)),
            other => Err(CoreError::NoSuchMethod {
                target: self.name.clone(),
                method: other.to_string(),
            }),
        }
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::new("setEnabled", "(on: bool) -> null"),
            MethodSpec::new("isEnabled", "() -> bool"),
        ]
    }
}

/// The indoor positioning Processor: `wifi.scan` items in, WGS-84
/// positions (k-NN over a [`RadioMap`]) out.
///
/// Reflective methods: `setK(k: int)`, `getK() -> int`.
pub struct WifiPositioning {
    map: Arc<RadioMap>,
    building: Arc<Building>,
    k: usize,
}

impl WifiPositioning {
    /// Creates the positioning component with `k = 3`.
    pub fn new(map: Arc<RadioMap>, building: Arc<Building>) -> Self {
        WifiPositioning {
            map,
            building,
            k: 3,
        }
    }
}

impl std::fmt::Debug for WifiPositioning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WifiPositioning")
            .field("k", &self.k)
            .finish()
    }
}

impl Component for WifiPositioning {
    fn descriptor(&self) -> ComponentDescriptor {
        // Fingerprinting resolution is bounded by the radio-map grid; the
        // k-NN estimate cannot beat roughly a metre and degrades to room
        // scale under sparse scans.
        ComponentDescriptor::processor(
            "WifiPositioning",
            InputSpec::new("scan", vec![kinds::WIFI_SCAN]),
            vec![kinds::POSITION_WGS84],
        )
        .with_transfer(
            TransferSpec::new()
                .with_frame("wgs84")
                .with_accuracy_m(1.0, 8.0),
        )
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let Some(map) = item.payload.as_map() else {
            return Ok(());
        };
        let scan = map
            .iter()
            .filter_map(|(id, v)| v.as_f64().map(|rssi| (id.as_str(), rssi)));
        if let Some((p, acc)) = self.map.estimate_sorted(scan, self.k) {
            let coord = self.building.frame().from_local(&p);
            let out = DataItem::new(
                kinds::POSITION_WGS84,
                ctx.now(),
                Value::from(Position::new(coord, Some(acc))),
            )
            .with_attr("source", Value::from("wifi"));
            ctx.emit(out);
        }
        Ok(())
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "setK" => {
                let k = args.first().and_then(Value::as_i64).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: "expected one int".into(),
                    }
                })?;
                if k < 1 {
                    return Err(CoreError::BadArguments {
                        method: method.to_string(),
                        reason: format!("k must be >= 1, got {k}"),
                    });
                }
                self.k = k as usize;
                Ok(Value::Null)
            }
            "getK" => Ok(Value::Int(self.k as i64)),
            other => Err(CoreError::NoSuchMethod {
                target: "WifiPositioning".into(),
                method: other.to_string(),
            }),
        }
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::new("setK", "(k: int) -> null"),
            MethodSpec::new("getK", "() -> int"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::component::ComponentCtxProbe;
    use perpos_model::demo_building;

    fn env() -> Arc<WifiEnvironment> {
        Arc::new(WifiEnvironment::with_ap_per_room(
            Arc::new(demo_building()),
            0,
        ))
    }

    #[test]
    fn rssi_decays_with_distance_and_walls() {
        let e = env();
        let ap = &e.access_points()[1]; // a room AP
        let near = e.mean_rssi_dbm(ap, ap.position + perpos_geo::Vec2::new(1.0, 0.0));
        let far = e.mean_rssi_dbm(ap, ap.position + perpos_geo::Vec2::new(3.0, 0.0));
        assert!(near > far);
        // A point in another room is attenuated by walls beyond distance.
        // (ap.position is R0's centre (2.5, 2.0); the path to (0.5, 7.0)
        // misses the door gap and crosses two walls.)
        let other_room = Point2::new(ap.position.x - 2.0, ap.position.y + 5.0);
        let d = ap.position.distance(&other_room);
        let through_walls = e.mean_rssi_dbm(ap, other_room);
        let open = ap.tx_power_dbm - 40.0 - 10.0 * e.path_loss_exponent * d.log10();
        assert!(
            through_walls <= open - 2.0 * e.wall_attenuation_db + 1e-9,
            "through {through_walls} vs open {open}"
        );
    }

    #[test]
    fn radio_map_covers_floor() {
        let e = env();
        let map = RadioMap::build(&e, 1.0);
        assert!(!map.is_empty());
        // Floor is 20 x 10.5 m; at 1 m grid expect on the order of 200 pts.
        assert!(map.len() > 150, "{}", map.len());
    }

    #[test]
    fn knn_estimates_are_metre_scale() {
        let e = env();
        let map = RadioMap::build(&e, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut errors = Vec::new();
        for (x, y) in [(2.5, 2.0), (7.5, 8.5), (12.0, 5.0), (17.0, 2.0)] {
            let truth = Point2::new(x, y);
            for _ in 0..5 {
                let scan = e.scan(truth, &mut rng);
                let (est, _acc) = map.estimate(&scan, 3).expect("estimate");
                errors.push(est.distance(&truth));
            }
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 4.0, "mean WiFi error {mean} m too large");
    }

    #[test]
    fn estimate_edge_cases() {
        let e = env();
        let map = RadioMap::build(&e, 1.0);
        assert!(map.estimate(&BTreeMap::new(), 3).is_none());
        let mut rng = StdRng::seed_from_u64(1);
        let scan = e.scan(Point2::new(2.0, 2.0), &mut rng);
        assert!(map.estimate(&scan, 0).is_none());
        // k larger than the map still works.
        assert!(map.estimate(&scan, 10_000).is_some());
    }

    #[test]
    fn scanner_emits_scans() {
        let e = env();
        let traj = Trajectory::stationary(Point2::new(2.5, 2.0));
        let mut scanner = WifiScanner::new("wifi", e, traj).with_seed(9);
        let out = ComponentCtxProbe::run_tick(&mut scanner).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, kinds::WIFI_SCAN);
        assert!(out[0].payload.as_map().unwrap().len() >= 2);
        scanner.invoke("setEnabled", &[Value::Bool(false)]).unwrap();
        // Disabled: silent even when the interval elapses.
        let mut ctx = perpos_core::component::ComponentCtx::new(SimTime::from_secs_f64(10.0));
        scanner.on_tick(&mut ctx).unwrap();
        assert!(ctx.take_emitted().is_empty());
    }

    #[test]
    fn positioning_component_end_to_end() {
        let building = Arc::new(demo_building());
        let e = Arc::new(WifiEnvironment::with_ap_per_room(building.clone(), 0));
        let map = Arc::new(RadioMap::build(&e, 1.0));
        let truth = Point2::new(7.5, 2.0); // inside R1
        let mut rng = StdRng::seed_from_u64(5);
        let scan = e.scan(truth, &mut rng);
        let payload: BTreeMap<String, Value> = scan
            .into_iter()
            .map(|(k, v)| (k, Value::Float(v)))
            .collect();
        let item = DataItem::new(kinds::WIFI_SCAN, SimTime::ZERO, Value::Map(payload));
        let mut pos = WifiPositioning::new(map, building.clone());
        let out = ComponentCtxProbe::run_input(&mut pos, item).unwrap();
        assert_eq!(out.len(), 1);
        let est = out[0].position().unwrap();
        let local = building.frame().to_local(est.coord());
        assert!(
            local.distance(&truth) < 5.0,
            "error {}",
            local.distance(&truth)
        );
        assert_eq!(out[0].attr("source").and_then(Value::as_text), Some("wifi"));
    }

    #[test]
    fn scans_are_deterministic_per_seed() {
        let e = env();
        let traj = Trajectory::stationary(Point2::new(2.5, 2.0));
        let run = |seed| {
            let mut s = WifiScanner::new("wifi", e.clone(), traj.clone()).with_seed(seed);
            ComponentCtxProbe::run_tick(&mut s).unwrap()
        };
        assert_eq!(run(1), run(1), "same seed, same scan");
        assert_ne!(run(1), run(2), "different seed, different shadowing");
    }

    proptest::proptest! {
        /// k-NN estimates stay inside (or within slack of) the floor.
        #[test]
        fn estimates_stay_on_the_floor(x in 0.5f64..19.5, y in 0.5f64..10.0, seed in 0u64..50) {
            let e = env();
            let map = RadioMap::build(&e, 1.5);
            let mut rng = StdRng::seed_from_u64(seed);
            let scan = e.scan(Point2::new(x, y), &mut rng);
            if let Some((est, acc)) = map.estimate(&scan, 3) {
                proptest::prop_assert!((-1.0..21.0).contains(&est.x), "x {}", est.x);
                proptest::prop_assert!((-1.0..11.5).contains(&est.y), "y {}", est.y);
                proptest::prop_assert!(acc >= 1.0);
            }
        }
    }

    #[test]
    fn positioning_invoke() {
        let building = Arc::new(demo_building());
        let e = Arc::new(WifiEnvironment::with_ap_per_room(building.clone(), 0));
        let map = Arc::new(RadioMap::build(&e, 2.0));
        let mut pos = WifiPositioning::new(map, building);
        pos.invoke("setK", &[Value::Int(5)]).unwrap();
        assert_eq!(pos.invoke("getK", &[]).unwrap(), Value::Int(5));
        assert!(pos.invoke("setK", &[Value::Int(0)]).is_err());
    }

    /// The string-keyed radio map the dense one replaced: one
    /// `BTreeMap` per fingerprint and a stable sort of every distance.
    /// Kept as the reference the dense map must match bit for bit.
    struct ReferenceMap {
        fingerprints: Vec<(Point2, BTreeMap<String, f64>)>,
        missing_penalty_dbm: f64,
    }

    impl ReferenceMap {
        fn build(env: &WifiEnvironment, grid_step: f64) -> Self {
            let points = env
                .building
                .floor(env.floor)
                .map(|f| survey_points(f, grid_step))
                .unwrap_or_default();
            let fingerprints = points
                .into_iter()
                .map(|p| {
                    let mut fp = BTreeMap::new();
                    for ap in &env.aps {
                        let rssi = env.mean_rssi_dbm(ap, p);
                        if rssi >= env.detection_threshold_dbm {
                            fp.insert(ap.id.clone(), rssi);
                        }
                    }
                    (p, fp)
                })
                .collect();
            ReferenceMap {
                fingerprints,
                missing_penalty_dbm: env.detection_threshold_dbm,
            }
        }

        fn signal_distance(&self, a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for (id, va) in a {
                let vb = b.get(id).copied().unwrap_or(self.missing_penalty_dbm);
                sum += (va - vb).powi(2);
                n += 1;
            }
            for (id, vb) in b {
                if !a.contains_key(id) {
                    sum += (vb - self.missing_penalty_dbm).powi(2);
                    n += 1;
                }
            }
            if n == 0 {
                f64::INFINITY
            } else {
                (sum / n as f64).sqrt()
            }
        }

        fn estimate(&self, scan: &BTreeMap<String, f64>, k: usize) -> Option<(Point2, f64)> {
            if self.fingerprints.is_empty() || scan.is_empty() || k == 0 {
                return None;
            }
            let mut scored: Vec<(f64, Point2)> = self
                .fingerprints
                .iter()
                .map(|(p, fp)| (self.signal_distance(scan, fp), *p))
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let neighbours = &scored[..k.min(scored.len())];
            let mut wx = 0.0;
            let mut wy = 0.0;
            let mut wsum = 0.0;
            for (d, p) in neighbours {
                let w = 1.0 / (d + 0.1);
                wx += p.x * w;
                wy += p.y * w;
                wsum += w;
            }
            let est = Point2::new(wx / wsum, wy / wsum);
            let spread = neighbours
                .iter()
                .map(|(_, p)| p.distance(&est))
                .fold(0.0, f64::max)
                .max(1.0);
            Some((est, spread))
        }
    }

    fn bits(estimate: Option<(Point2, f64)>) -> Option<[u64; 3]> {
        estimate.map(|(p, spread)| [p.x.to_bits(), p.y.to_bits(), spread.to_bits()])
    }

    /// Demo floor; APs with repeated ids (`AP01` twice, `AP05` three
    /// times, at different places) and a high threshold, so the copies
    /// of an id are heard at some points and not at others.
    fn duplicate_id_env() -> WifiEnvironment {
        let mut aps = WifiEnvironment::with_ap_per_room(Arc::new(demo_building()), 0)
            .access_points()
            .to_vec();
        aps.push(AccessPoint::new("AP01", Point2::new(18.0, 9.0)));
        aps.insert(0, AccessPoint::new("AP05", Point2::new(1.0, 1.0)));
        aps.push(AccessPoint::new("AP05", Point2::new(18.0, 1.0)));
        let mut env = WifiEnvironment::new(Arc::new(demo_building()), 0, aps);
        env.detection_threshold_dbm = -52.0;
        env
    }

    /// One 4 m square room with a single AP in its centre: the 1 m survey
    /// grid is symmetric about the AP, so fingerprints tie exactly.
    fn symmetric_env() -> WifiEnvironment {
        let mut floor = Floor::new(0);
        floor.add_room(perpos_model::Room::new(
            "A",
            "A",
            perpos_model::Polygon::rectangle(0.0, 0.0, 4.0, 4.0),
        ));
        let origin = perpos_geo::Wgs84::new(56.17, 10.19, 0.0).unwrap();
        let building = perpos_model::BuildingBuilder::new("Square", origin)
            .floor(floor)
            .build();
        WifiEnvironment::new(
            Arc::new(building),
            0,
            vec![AccessPoint::new("C", Point2::new(2.0, 2.0))],
        )
    }

    type Case = (WifiEnvironment, RadioMap, ReferenceMap);

    fn cases() -> &'static [Case] {
        static CASES: std::sync::OnceLock<Vec<Case>> = std::sync::OnceLock::new();
        CASES.get_or_init(|| {
            let envs = [
                (
                    WifiEnvironment::with_ap_per_room(Arc::new(demo_building()), 0),
                    1.0,
                ),
                (
                    WifiEnvironment::with_ap_per_room(Arc::new(demo_building()), 0),
                    1.5,
                ),
                (duplicate_id_env(), 1.0),
                (symmetric_env(), 1.0),
            ];
            envs.into_iter()
                .map(|(env, step)| {
                    let map = RadioMap::build(&env, step);
                    let reference = ReferenceMap::build(&env, step);
                    (env, map, reference)
                })
                .collect()
        })
    }

    #[test]
    fn dense_rows_hold_the_reference_fingerprints() {
        for (_, map, reference) in cases() {
            assert_eq!(map.len(), reference.fingerprints.len());
            let width = map.ap_ids.len();
            for (i, (p, fp)) in reference.fingerprints.iter().enumerate() {
                assert_eq!(map.points[i], *p);
                let row = &map.rssi[i * width..(i + 1) * width];
                let dense: BTreeMap<String, u64> = map
                    .ap_ids
                    .iter()
                    .zip(row)
                    .filter(|(_, v)| !v.is_nan())
                    .map(|(id, v)| (id.clone(), v.to_bits()))
                    .collect();
                let expected: BTreeMap<String, u64> =
                    fp.iter().map(|(id, v)| (id.clone(), v.to_bits())).collect();
                assert_eq!(dense, expected, "fingerprint {i} at {p}");
            }
        }
        // In the duplicate-id environment, different copies of `AP05`
        // are the last one heard at different survey points.
        let (env, map, _) = &cases()[2];
        assert_eq!(map.ap_ids.len(), 9);
        let copies: Vec<&AccessPoint> = env
            .access_points()
            .iter()
            .filter(|ap| ap.id == "AP05")
            .collect();
        assert_eq!(copies.len(), 3);
        let winners: std::collections::BTreeSet<usize> = map
            .points
            .iter()
            .filter_map(|&p| {
                (0..copies.len())
                    .rev()
                    .find(|&c| env.mean_rssi_dbm(copies[c], p) >= env.detection_threshold_dbm)
            })
            .collect();
        assert!(winners.len() >= 2, "winning copies {winners:?}");
    }

    #[test]
    fn exact_ties_keep_survey_order() {
        let (env, map, reference) = &cases()[3];
        // A noiseless scan taken at a corner survey point: all four
        // corners tie at distance zero.
        let corner = Point2::new(0.5, 0.5);
        let scan: BTreeMap<String, f64> = BTreeMap::from([(
            "C".to_string(),
            env.mean_rssi_dbm(&env.access_points()[0], corner),
        )]);
        for k in 1..=map.len() + 2 {
            assert_eq!(
                bits(map.estimate(&scan, k)),
                bits(reference.estimate(&scan, k)),
                "k {k}"
            );
        }
        // k = 1 takes the first of the tied corners in survey order.
        let (est, _) = map.estimate(&scan, 1).unwrap();
        assert_eq!(est, corner);
    }

    #[test]
    fn degenerate_scans_and_k() {
        for (env, map, reference) in cases() {
            let mut rng = StdRng::seed_from_u64(3);
            let scan = env.scan(Point2::new(2.0, 2.0), &mut rng);
            let unknown = BTreeMap::from([("ZZ".to_string(), -50.0), (String::new(), -80.0)]);
            for (scan, k) in [
                (BTreeMap::new(), 3),
                (scan.clone(), 0),
                (scan.clone(), map.len()),
                (scan.clone(), map.len() + 1),
                (scan, usize::MAX),
                (unknown, 2),
            ] {
                assert_eq!(
                    bits(map.estimate(&scan, k)),
                    bits(reference.estimate(&scan, k))
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(600))]

        /// Dense k-NN ≡ the BTreeMap k-NN, bit for bit, on noisy scans
        /// with unknown APs added, heard APs dropped, or both.
        #[test]
        fn dense_knn_matches_the_btreemap_reference(
            which in 0usize..4,
            x in -1.0f64..21.0,
            y in -1.0f64..11.5,
            seed in 0u64..10_000,
            k in 0usize..240,
            edit in 0usize..4,
        ) {
            let (env, map, reference) = &cases()[which];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scan = env.scan(Point2::new(x, y), &mut rng);
            if edit & 1 == 1 {
                scan.insert("AP99".into(), rng.gen_range(-95.0..-30.0));
                scan.insert("A".into(), rng.gen_range(-95.0..-30.0));
            }
            if edit & 2 == 2 {
                scan.retain(|_, _| rng.gen_range(0.0..1.0) < 0.6);
            }
            proptest::prop_assert_eq!(bits(map.estimate(&scan, k)), bits(reference.estimate(&scan, k)));
        }
    }
}
