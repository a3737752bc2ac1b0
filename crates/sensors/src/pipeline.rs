//! The standard positioning pipeline components of the paper's Fig. 1 —
//! Parser, Interpreter, Resolver, Sensor Wrapper — and the Component
//! Features of the §3.1/§3.2 examples.

use std::any::Any;
use std::sync::Arc;

use perpos_core::component::{Component, ComponentCtx, ComponentDescriptor, InputSpec, MethodSpec};
use perpos_core::feature::{ComponentFeature, FeatureAction, FeatureDescriptor, FeatureHost};
use perpos_core::prelude::*;
use perpos_model::Building;
use perpos_nmea::is_valid_sentence;

use crate::codec;

/// The Parser component: raw NMEA strings in, validated sentences out
/// (Fig. 1/4).
///
/// A line is accepted when [`is_valid_sentence`] holds, which accepts
/// exactly what `perpos_nmea::parse_sentence` does without decoding the
/// fields. A sentence item's payload is the accepted line itself (see
/// [`codec`]); consumers decode it on demand.
///
/// Malformed sentences are counted and dropped — reproducing the Fig. 4
/// behaviour where several strings may be needed per sentence.
/// Reflective methods: `parsedCount() -> int`, `errorCount() -> int`.
#[derive(Debug, Default)]
pub struct Parser {
    parsed: i64,
    errors: i64,
}

impl Parser {
    /// Creates a parser.
    pub fn new() -> Self {
        Parser::default()
    }
}

impl Component for Parser {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::processor(
            "Parser",
            InputSpec::new("raw", vec![kinds::RAW_STRING]),
            vec![kinds::NMEA_SENTENCE],
        )
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let valid = item.payload.as_text().is_some_and(is_valid_sentence);
        if valid {
            self.parsed += 1;
            // The validated line is the sentence payload: forwarding the
            // input's `Arc` copies nothing and keeps its arena slot.
            ctx.emit_value(kinds::NMEA_SENTENCE, item.payload);
        } else {
            self.errors += 1;
        }
        Ok(())
    }

    fn invoke(&mut self, method: &str, _args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "parsedCount" => Ok(Value::Int(self.parsed)),
            "errorCount" => Ok(Value::Int(self.errors)),
            other => Err(CoreError::NoSuchMethod {
                target: "Parser".into(),
                method: other.into(),
            }),
        }
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::new("parsedCount", "() -> int"),
            MethodSpec::new("errorCount", "() -> int"),
        ]
    }
}

/// Estimated user-equivalent range error multiplier turning HDOP into a
/// 1-sigma horizontal accuracy in metres.
const UERE_M: f64 = 5.0;

/// The Interpreter component: NMEA sentences in, WGS-84 positions out.
///
/// As in the paper (§2.2), it "only returns a value when a valid position
/// is produced" — invalid sentences are absorbed, which is what makes the
/// Fig. 4 data trees interesting. Produced positions carry a `source =
/// "gps"` attribute and an accuracy estimate derived from HDOP.
/// Reflective method: `positionsProduced() -> int`.
#[derive(Debug, Default)]
pub struct Interpreter {
    produced: i64,
}

impl Interpreter {
    /// Creates an interpreter.
    pub fn new() -> Self {
        Interpreter::default()
    }
}

impl Component for Interpreter {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::processor(
            "Interpreter",
            InputSpec::new("nmea", vec![kinds::NMEA_SENTENCE]),
            vec![kinds::POSITION_WGS84],
        )
        .with_transfer(TransferSpec::new().with_frame("wgs84"))
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let Some(gga) = codec::gga_of(&item) else {
            return Ok(());
        };
        let (Some(lat), Some(lon)) = (gga.lat_deg, gga.lon_deg) else {
            return Ok(());
        };
        if !gga.quality.has_fix() {
            return Ok(());
        }
        let Ok(coord) = perpos_geo::Wgs84::new(lat, lon, gga.altitude_m) else {
            return Ok(());
        };
        self.produced += 1;
        let position = Position::new(coord, Some(gga.hdop * UERE_M));
        let out = DataItem::new(kinds::POSITION_WGS84, ctx.now(), Value::from(position))
            .with_attr("source", Value::from("gps"));
        ctx.emit(out);
        Ok(())
    }

    fn invoke(&mut self, method: &str, _args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "positionsProduced" => Ok(Value::Int(self.produced)),
            other => Err(CoreError::NoSuchMethod {
                target: "Interpreter".into(),
                method: other.into(),
            }),
        }
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![MethodSpec::new("positionsProduced", "() -> int")]
    }
}

/// The Resolver component: WGS-84 positions in, symbolic room positions
/// out — the location model service of the Room Number Application
/// (Fig. 1).
///
/// Positions outside the building produce nothing. Reflective methods:
/// `setFloor(level: int)`, `getFloor() -> int`.
pub struct Resolver {
    building: Arc<Building>,
    floor: i32,
}

impl Resolver {
    /// Creates a resolver against a building model, resolving on floor 0.
    pub fn new(building: Arc<Building>) -> Self {
        Resolver { building, floor: 0 }
    }
}

impl std::fmt::Debug for Resolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resolver")
            .field("building", &self.building.name())
            .field("floor", &self.floor)
            .finish()
    }
}

impl Component for Resolver {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::processor(
            "Resolver",
            InputSpec::new("position", vec![kinds::POSITION_WGS84]),
            vec![kinds::POSITION_ROOM],
        )
        .with_transfer(TransferSpec::new().transforms_frames().with_frame("room"))
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let position = item.position()?;
        if let Some(room) = self.building.resolve_wgs84(position.coord(), self.floor) {
            let out = DataItem::new(
                kinds::POSITION_ROOM,
                ctx.now(),
                Value::from(room.id().as_str()),
            )
            .with_attr("wgs84", item.payload.to_value())
            .with_attr("floor", Value::Int(i64::from(self.floor)));
            ctx.emit(out);
        }
        Ok(())
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "setFloor" => {
                let level = args.first().and_then(Value::as_i64);
                self.floor = level.and_then(|l| i32::try_from(l).ok()).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: format!("expected one int in the i32 range, got {args:?}"),
                    }
                })?;
                Ok(Value::Null)
            }
            "getFloor" => Ok(Value::Int(i64::from(self.floor))),
            other => Err(CoreError::NoSuchMethod {
                target: "Resolver".into(),
                method: other.into(),
            }),
        }
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::new("setFloor", "(level: int) -> null"),
            MethodSpec::new("getFloor", "() -> int"),
        ]
    }
}

/// A pass-through Sensor Wrapper (Fig. 7): tags items with the host they
/// were sensed on, can be suspended, and rate-limits forwarding.
///
/// In the paper's EnTracked reimplementation the wrapper "is running on
/// the mobile device"; the Power Strategy Component Feature attaches here
/// or directly to the sensor. Reflective methods: `setActive(bool)`,
/// `isActive() -> bool`, `setMinInterval(seconds: float)`,
/// `forwardedCount() -> int`, `droppedCount() -> int`.
#[derive(Debug)]
pub struct SensorWrapper {
    name: String,
    host: String,
    active: bool,
    min_interval: SimDuration,
    last_forward: Option<SimTime>,
    forwarded: i64,
    dropped: i64,
}

impl SensorWrapper {
    /// Creates a wrapper named `name`, tagging items with `host`.
    pub fn new(name: impl Into<String>, host: impl Into<String>) -> Self {
        SensorWrapper {
            name: name.into(),
            host: host.into(),
            active: true,
            min_interval: SimDuration::ZERO,
            last_forward: None,
            forwarded: 0,
            dropped: 0,
        }
    }
}

impl Component for SensorWrapper {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::processor(
            self.name.clone(),
            InputSpec::new("in", vec![]),
            vec![
                kinds::RAW_STRING,
                kinds::NMEA_SENTENCE,
                kinds::POSITION_WGS84,
                kinds::WIFI_SCAN,
                kinds::MOTION_SAMPLE,
            ],
        )
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        if !self.active {
            self.dropped += 1;
            return Ok(());
        }
        if let Some(last) = self.last_forward {
            if ctx.now().since(last) < self.min_interval {
                self.dropped += 1;
                return Ok(());
            }
        }
        self.last_forward = Some(ctx.now());
        self.forwarded += 1;
        ctx.emit(item.with_attr("host", Value::from(self.host.clone())));
        Ok(())
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "setActive" => {
                let on = args.first().and_then(Value::as_bool).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: "expected one bool".into(),
                    }
                })?;
                self.active = on;
                Ok(Value::Null)
            }
            "isActive" => Ok(Value::Bool(self.active)),
            "setMinInterval" => {
                let secs = args.first().and_then(Value::as_f64).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: "expected one float".into(),
                    }
                })?;
                if !(secs.is_finite() && secs >= 0.0) {
                    return Err(CoreError::BadArguments {
                        method: method.to_string(),
                        reason: format!("interval must be >= 0, got {secs}"),
                    });
                }
                self.min_interval = SimDuration::from_secs_f64(secs);
                Ok(Value::Null)
            }
            "forwardedCount" => Ok(Value::Int(self.forwarded)),
            "droppedCount" => Ok(Value::Int(self.dropped)),
            other => Err(CoreError::NoSuchMethod {
                target: self.name.clone(),
                method: other.to_string(),
            }),
        }
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::new("setActive", "(on: bool) -> null"),
            MethodSpec::new("isActive", "() -> bool"),
            MethodSpec::new("setMinInterval", "(seconds: float) -> null"),
            MethodSpec::new("forwardedCount", "() -> int"),
            MethodSpec::new("droppedCount", "() -> int"),
        ]
    }
}

/// The HDOP Component Feature of the paper's Fig. 5 (artifact 3): attaches
/// the horizontal dilution of precision of each GGA sentence to the
/// sentence item and remembers the latest value.
///
/// Attach to the Parser node. Reflective method: `getHDOP() -> float`.
#[derive(Debug, Default)]
pub struct HdopFeature {
    last_hdop: Option<f64>,
}

impl HdopFeature {
    /// The feature name used for lookups and dependencies.
    pub const NAME: &'static str = "HDOP";

    /// Creates the feature.
    pub fn new() -> Self {
        HdopFeature::default()
    }
}

impl ComponentFeature for HdopFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME).method(MethodSpec::new("getHDOP", "() -> float"))
    }

    fn on_produce(
        &mut self,
        mut item: DataItem,
        _host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        if let Some(gga) = codec::gga_of(&item) {
            if gga.quality.has_fix() {
                self.last_hdop = Some(gga.hdop);
                item.attrs.insert("hdop", Value::Float(gga.hdop));
            }
        }
        Ok(FeatureAction::Continue(item))
    }

    fn invoke(
        &mut self,
        method: &str,
        _args: &[Value],
        _host: &mut FeatureHost<'_>,
    ) -> Result<Value, CoreError> {
        match method {
            "getHDOP" => Ok(self.last_hdop.map(Value::Float).unwrap_or(Value::Null)),
            other => Err(CoreError::NoSuchMethod {
                target: Self::NAME.into(),
                method: other.into(),
            }),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The `NumberOfSatellites` Component Feature of §3.1: "provides access
/// to the concrete number of satellites available in each measurement" by
/// adding a `satellites` attribute to GGA sentence items.
///
/// Attach to the Parser node. Reflective method:
/// `getNumberOfSatellites() -> int`.
#[derive(Debug, Default)]
pub struct NumberOfSatellitesFeature {
    last: Option<i64>,
}

impl NumberOfSatellitesFeature {
    /// The feature name used for lookups and dependencies.
    pub const NAME: &'static str = "NumberOfSatellites";

    /// Creates the feature.
    pub fn new() -> Self {
        NumberOfSatellitesFeature::default()
    }
}

impl ComponentFeature for NumberOfSatellitesFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME)
            .method(MethodSpec::new("getNumberOfSatellites", "() -> int"))
    }

    fn on_produce(
        &mut self,
        mut item: DataItem,
        _host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        if let Some(gga) = codec::gga_of(&item) {
            let n = i64::from(gga.num_satellites);
            self.last = Some(n);
            item.attrs.insert("satellites", Value::Int(n));
        }
        Ok(FeatureAction::Continue(item))
    }

    fn invoke(
        &mut self,
        method: &str,
        _args: &[Value],
        _host: &mut FeatureHost<'_>,
    ) -> Result<Value, CoreError> {
        match method {
            "getNumberOfSatellites" => Ok(self.last.map(Value::Int).unwrap_or(Value::Null)),
            other => Err(CoreError::NoSuchMethod {
                target: Self::NAME.into(),
                method: other.into(),
            }),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The filtering Processing Component of §3.1: inserted after the Parser,
/// it "extracts the number of satellites and forwards only measurements
/// based on a satisfactory number".
///
/// Its input port declares the dependency on the `NumberOfSatellites`
/// Component Feature, so connecting it to a Parser without that feature
/// fails validation. Reflective methods: `setThreshold(min: int)`,
/// `getThreshold() -> int`, `filteredCount() -> int`.
#[derive(Debug)]
pub struct SatelliteFilter {
    threshold: i64,
    filtered: i64,
}

impl SatelliteFilter {
    /// Creates a filter requiring at least `threshold` satellites.
    pub fn new(threshold: i64) -> Self {
        SatelliteFilter {
            threshold,
            filtered: 0,
        }
    }
}

impl Component for SatelliteFilter {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::processor(
            "SatelliteFilter",
            InputSpec::new("nmea", vec![kinds::NMEA_SENTENCE])
                .requiring_feature(NumberOfSatellitesFeature::NAME),
            vec![kinds::NMEA_SENTENCE],
        )
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        match item.attr("satellites").and_then(Value::as_i64) {
            Some(n) if n < self.threshold => {
                self.filtered += 1;
            }
            _ => ctx.emit(item),
        }
        Ok(())
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "setThreshold" => {
                let t = args.first().and_then(Value::as_i64).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: "expected one int".into(),
                    }
                })?;
                self.threshold = t;
                Ok(Value::Null)
            }
            "getThreshold" => Ok(Value::Int(self.threshold)),
            "filteredCount" => Ok(Value::Int(self.filtered)),
            other => Err(CoreError::NoSuchMethod {
                target: "SatelliteFilter".into(),
                method: other.into(),
            }),
        }
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::new("setThreshold", "(min: int) -> null"),
            MethodSpec::new("getThreshold", "() -> int"),
            MethodSpec::new("filteredCount", "() -> int"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::component::ComponentCtxProbe;
    use perpos_model::demo_building;
    use perpos_nmea::checksum;

    fn raw_item(line: &str) -> DataItem {
        DataItem::new(kinds::RAW_STRING, SimTime::ZERO, Value::from(line))
    }

    const GGA: &str = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47";

    #[test]
    fn parser_parses_and_counts_errors() {
        let mut p = Parser::new();
        let out = ComponentCtxProbe::run_input(&mut p, raw_item(GGA)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, kinds::NMEA_SENTENCE);
        let out = ComponentCtxProbe::run_input(&mut p, raw_item("$GARBAGE")).unwrap();
        assert!(out.is_empty());
        assert_eq!(p.invoke("parsedCount", &[]).unwrap(), Value::Int(1));
        assert_eq!(p.invoke("errorCount", &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn parser_rejects_non_text_payload() {
        let mut p = Parser::new();
        let item = DataItem::new(kinds::RAW_STRING, SimTime::ZERO, Value::Int(5));
        let out = ComponentCtxProbe::run_input(&mut p, item).unwrap();
        assert!(out.is_empty());
        assert_eq!(p.invoke("errorCount", &[]).unwrap(), Value::Int(1));
    }

    /// What the Parser emits for a valid `line`.
    fn parsed(line: &str) -> DataItem {
        let mut p = Parser::new();
        let mut out = ComponentCtxProbe::run_input(&mut p, raw_item(line)).unwrap();
        assert_eq!(out.len(), 1, "{line}");
        out.remove(0)
    }

    #[test]
    fn interpreter_emits_positions_with_accuracy() {
        let mut i = Interpreter::new();
        let out = ComponentCtxProbe::run_input(&mut i, parsed(GGA)).unwrap();
        assert_eq!(out.len(), 1);
        let pos = out[0].position().unwrap();
        assert!((pos.coord().lat_deg() - 48.1173).abs() < 1e-3);
        assert!((pos.accuracy_m().unwrap() - 0.9 * UERE_M).abs() < 1e-9);
        assert_eq!(out[0].attr("source").and_then(Value::as_text), Some("gps"));
        assert_eq!(i.invoke("positionsProduced", &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn interpreter_absorbs_invalid_sentences() {
        let body = "GPGGA,123519,,,,,0,00,,,M,,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        let mut i = Interpreter::new();
        let out = ComponentCtxProbe::run_input(&mut i, parsed(&line)).unwrap();
        assert!(out.is_empty());
        // RMC sentences are also ignored (only GGA carries fixes here).
        let rmc = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A";
        let out = ComponentCtxProbe::run_input(&mut i, parsed(rmc)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn resolver_maps_positions_to_rooms() {
        let building = Arc::new(demo_building());
        // A point inside room R0 (2.5, 2.0).
        let coord = building
            .frame()
            .from_local(&perpos_geo::Point2::new(2.5, 2.0));
        let item = DataItem::new(
            kinds::POSITION_WGS84,
            SimTime::ZERO,
            Value::from(Position::new(coord, Some(3.0))),
        );
        let mut r = Resolver::new(building.clone());
        let out = ComponentCtxProbe::run_input(&mut r, item).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.as_text(), Some("R0"));
        assert!(out[0].attr("wgs84").is_some());

        // Outside the building: silent.
        let outside = building
            .frame()
            .from_local(&perpos_geo::Point2::new(-50.0, 0.0));
        let item = DataItem::new(
            kinds::POSITION_WGS84,
            SimTime::ZERO,
            Value::from(Position::new(outside, None)),
        );
        assert!(ComponentCtxProbe::run_input(&mut r, item)
            .unwrap()
            .is_empty());

        // Wrong floor: silent.
        r.invoke("setFloor", &[Value::Int(5)]).unwrap();
        let inside = building
            .frame()
            .from_local(&perpos_geo::Point2::new(2.5, 2.0));
        let item = DataItem::new(
            kinds::POSITION_WGS84,
            SimTime::ZERO,
            Value::from(Position::new(inside, None)),
        );
        assert!(ComponentCtxProbe::run_input(&mut r, item)
            .unwrap()
            .is_empty());
        assert_eq!(r.invoke("getFloor", &[]).unwrap(), Value::Int(5));
    }

    #[test]
    fn set_floor_rejects_levels_outside_i32_and_keeps_the_floor() {
        let mut r = Resolver::new(Arc::new(demo_building()));
        r.invoke("setFloor", &[Value::Int(2)]).unwrap();
        for level in [
            1_i64 << 32,
            i64::from(i32::MAX) + 1,
            i64::from(i32::MIN) - 1,
        ] {
            let err = r.invoke("setFloor", &[Value::Int(level)]).unwrap_err();
            assert!(matches!(err, CoreError::BadArguments { .. }), "{err}");
            assert_eq!(r.invoke("getFloor", &[]).unwrap(), Value::Int(2));
        }
    }

    #[test]
    fn wrapper_gates_and_tags() {
        let mut w = SensorWrapper::new("wrapper", "mobile");
        let out = ComponentCtxProbe::run_input(&mut w, raw_item("x")).unwrap();
        assert_eq!(out[0].attr("host").and_then(Value::as_text), Some("mobile"));
        w.invoke("setActive", &[Value::Bool(false)]).unwrap();
        assert!(ComponentCtxProbe::run_input(&mut w, raw_item("y"))
            .unwrap()
            .is_empty());
        assert_eq!(w.invoke("forwardedCount", &[]).unwrap(), Value::Int(1));
        assert_eq!(w.invoke("droppedCount", &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn wrapper_rate_limits() {
        let mut w = SensorWrapper::new("wrapper", "mobile");
        w.invoke("setMinInterval", &[Value::Float(1.0)]).unwrap();
        let at = |t: f64, v: &str| {
            DataItem::new(kinds::RAW_STRING, SimTime::from_secs_f64(t), Value::from(v))
        };
        let mut forwarded = 0;
        for (t, v) in [(0.0, "a"), (0.5, "b"), (1.0, "c"), (1.2, "d"), (2.5, "e")] {
            forwarded += ComponentCtxProbe::run_input(&mut w, at(t, v))
                .unwrap()
                .len();
        }
        assert_eq!(forwarded, 3); // a, c, e
    }

    #[test]
    fn hdop_feature_attaches_and_remembers() {
        let mut host_comp = Parser::new();
        let mut host = FeatureHost::new(&mut host_comp, SimTime::ZERO);
        let mut f = HdopFeature::new();
        assert_eq!(f.invoke("getHDOP", &[], &mut host).unwrap(), Value::Null);
        let FeatureAction::Continue(out) = f.on_produce(parsed(GGA), &mut host).unwrap() else {
            panic!("must continue");
        };
        assert_eq!(out.attr("hdop").and_then(Value::as_f64), Some(0.9));
        assert_eq!(
            f.invoke("getHDOP", &[], &mut host).unwrap(),
            Value::Float(0.9)
        );
    }

    #[test]
    fn satellites_feature_attaches() {
        let mut host_comp = Parser::new();
        let mut host = FeatureHost::new(&mut host_comp, SimTime::ZERO);
        let mut f = NumberOfSatellitesFeature::new();
        let FeatureAction::Continue(out) = f.on_produce(parsed(GGA), &mut host).unwrap() else {
            panic!("must continue");
        };
        assert_eq!(out.attr("satellites").and_then(Value::as_i64), Some(8));
        assert_eq!(
            f.invoke("getNumberOfSatellites", &[], &mut host).unwrap(),
            Value::Int(8)
        );
    }

    #[test]
    fn satellite_filter_drops_low_counts() {
        let mut f = SatelliteFilter::new(4);
        let mut item = parsed(GGA);
        item.attrs.insert("satellites", Value::Int(3));
        assert!(ComponentCtxProbe::run_input(&mut f, item.clone())
            .unwrap()
            .is_empty());
        item.attrs.insert("satellites", Value::Int(7));
        assert_eq!(ComponentCtxProbe::run_input(&mut f, item).unwrap().len(), 1);
        // Items without the attribute pass (conservative default).
        assert_eq!(
            ComponentCtxProbe::run_input(&mut f, parsed(GGA))
                .unwrap()
                .len(),
            1
        );
        assert_eq!(f.invoke("filteredCount", &[]).unwrap(), Value::Int(1));
        f.invoke("setThreshold", &[Value::Int(9)]).unwrap();
        assert_eq!(f.invoke("getThreshold", &[]).unwrap(), Value::Int(9));
    }

    #[test]
    fn filter_requires_feature_at_connect_time() {
        let mut mw = Middleware::new();
        let parser = mw.add_component(Parser::new());
        let filter = mw.add_component(SatelliteFilter::new(4));
        assert!(matches!(
            mw.connect(parser, filter, 0),
            Err(CoreError::MissingFeature { .. })
        ));
        mw.attach_feature(parser, NumberOfSatellitesFeature::new())
            .unwrap();
        mw.connect(parser, filter, 0).unwrap();
    }
}
