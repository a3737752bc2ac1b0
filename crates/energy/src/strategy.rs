//! The EnTracked power strategy rebuilt from PerPos graph abstractions
//! (paper §3.3, Fig. 7).

use std::any::Any;

use perpos_core::channel::{ChannelFeature, ChannelHost, DataTree};
use perpos_core::component::MethodSpec;
use perpos_core::feature::{ComponentFeature, FeatureDescriptor, FeatureHost};
use perpos_core::graph::NodeId;
use perpos_core::prelude::*;

/// The Power Strategy Component Feature (Fig. 7): attached to the
/// device-side sensor (our GPS simulator node), it "provides methods for
/// controlling the operation mode of the updating scheme".
///
/// Modes: `"continuous"` (GPS powered) and `"suspended"` (GPS off).
/// Setting the mode reflectively drives the host component's
/// `setEnabled` method. Reflective methods: `setPowerMode(mode: text)`,
/// `getPowerMode() -> text`, `modeChanges() -> int`.
#[derive(Debug, Default)]
pub struct PowerStrategyFeature {
    suspended: bool,
    mode_changes: i64,
}

impl PowerStrategyFeature {
    /// The feature name.
    pub const NAME: &'static str = "PowerStrategy";

    /// Creates the strategy in continuous mode.
    pub fn new() -> Self {
        PowerStrategyFeature::default()
    }
}

impl ComponentFeature for PowerStrategyFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME)
            .method(MethodSpec::new("setPowerMode", "(mode: text) -> null"))
            .method(MethodSpec::new("getPowerMode", "() -> text"))
            .method(MethodSpec::new("modeChanges", "() -> int"))
    }

    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        host: &mut FeatureHost<'_>,
    ) -> Result<Value, CoreError> {
        match method {
            "setPowerMode" => {
                let mode = args.first().and_then(Value::as_text).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: "expected one text argument".into(),
                    }
                })?;
                let suspend = match mode {
                    "continuous" => false,
                    "suspended" => true,
                    other => {
                        return Err(CoreError::BadArguments {
                            method: method.to_string(),
                            reason: format!(
                                "unknown mode {other:?}; use \"continuous\" or \"suspended\""
                            ),
                        })
                    }
                };
                if suspend != self.suspended {
                    self.suspended = suspend;
                    self.mode_changes += 1;
                    host.invoke_component("setEnabled", &[Value::Bool(!suspend)])?;
                }
                Ok(Value::Null)
            }
            "getPowerMode" => Ok(Value::from(if self.suspended {
                "suspended"
            } else {
                "continuous"
            })),
            "modeChanges" => Ok(Value::Int(self.mode_changes)),
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

/// The EnTracked Channel Feature (Fig. 7): the server-side controller.
///
/// Attach to the **motion channel** (the accelerometer keeps flowing even
/// when the GPS sleeps). On every motion sample it:
///
/// * suspends the GPS (via the [`PowerStrategyFeature`] on the GPS node)
///   while the target is stationary — a stationary target's last
///   reported position stays within any error threshold;
/// * while moving, duty-cycles the GPS so a fresh position arrives about
///   every `threshold_m / max_speed_mps` seconds — the paper's
///   "threshold levels for the maximum distance between two consecutive
///   position updates";
/// * watches the Interpreter's `positionsProduced` counter to know when a
///   fix was delivered and the GPS may sleep again.
///
/// Reflective methods: `setThreshold(meters: float)`,
/// `getThreshold() -> float`, `suspensions() -> int`.
#[derive(Debug)]
pub struct EnTrackedFeature {
    gps_node: NodeId,
    interpreter_node: NodeId,
    threshold_m: f64,
    max_speed_mps: f64,
    last_fix_count: i64,
    last_fix_at: Option<SimTime>,
    gps_running: bool,
    woke_at: Option<SimTime>,
    suspensions: i64,
}

impl EnTrackedFeature {
    /// The feature name.
    pub const NAME: &'static str = "EnTracked";

    /// Creates the controller for a GPS node (with an attached
    /// [`PowerStrategyFeature`]) and the Interpreter node producing the
    /// positions.
    pub fn new(gps_node: NodeId, interpreter_node: NodeId, threshold_m: f64) -> Self {
        EnTrackedFeature {
            gps_node,
            interpreter_node,
            threshold_m,
            max_speed_mps: 2.0,
            last_fix_count: 0,
            last_fix_at: None,
            gps_running: true,
            woke_at: None,
            suspensions: 0,
        }
    }

    /// Sets the assumed maximum target speed (builder style).
    pub fn with_max_speed(mut self, mps: f64) -> Self {
        assert!(mps > 0.0, "speed must be positive");
        self.max_speed_mps = mps;
        self
    }

    fn set_gps(&mut self, host: &mut ChannelHost<'_>, on: bool) -> Result<(), CoreError> {
        if on == self.gps_running {
            return Ok(());
        }
        self.gps_running = on;
        if on {
            self.woke_at = Some(host.now());
        } else {
            self.suspensions += 1;
        }
        let mode = if on { "continuous" } else { "suspended" };
        host.invoke_node_feature(
            self.gps_node,
            PowerStrategyFeature::NAME,
            "setPowerMode",
            &[Value::from(mode)],
        )?;
        Ok(())
    }
}

impl ChannelFeature for EnTrackedFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME)
            .method(MethodSpec::new("setThreshold", "(meters: float) -> null"))
            .method(MethodSpec::new("getThreshold", "() -> float"))
            .method(MethodSpec::new("suspensions", "() -> int"))
    }

    fn apply(&mut self, tree: &DataTree, host: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        // The tree root is a motion sample (we sit on the motion channel).
        let moving = tree
            .root
            .item
            .payload
            .as_map()
            .and_then(|m| m.get("moving"))
            .and_then(Value::as_bool)
            .unwrap_or(true);
        let now = host.now();

        // Did the interpreter deliver a new fix since we last looked?
        let fixes = host
            .invoke_node(self.interpreter_node, "positionsProduced", &[])?
            .as_i64()
            .unwrap_or(0);
        if fixes > self.last_fix_count {
            self.last_fix_count = fixes;
            self.last_fix_at = Some(now);
        }

        if !moving {
            // Stationary: the last reported position cannot drift beyond
            // the threshold — sleep (but get at least one fix first).
            if self.last_fix_at.is_some() {
                self.set_gps(host, false)?;
            }
            return Ok(());
        }

        // Moving: a fresh fix is due when the target may have travelled
        // the threshold since the last one.
        let due = match self.last_fix_at {
            None => true,
            Some(t) => now.since(t).as_secs_f64() >= self.threshold_m / self.max_speed_mps,
        };
        if due {
            // Wake the receiver and keep it on until a fix arrives (the
            // warm-start acquisition shows up as extra on-time — the real
            // cost EnTracked trades against the threshold).
            self.set_gps(host, true)?;
        } else if self
            .last_fix_at
            .is_some_and(|t| self.woke_at.is_none_or(|w| t >= w))
        {
            // Fix obtained for this cycle: sleep until the next one is due.
            self.set_gps(host, false)?;
        }
        Ok(())
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "setThreshold" => {
                let m = args.first().and_then(Value::as_f64).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: "expected one float".into(),
                    }
                })?;
                if !(m.is_finite() && m > 0.0) {
                    return Err(CoreError::BadArguments {
                        method: method.to_string(),
                        reason: format!("threshold must be positive, got {m}"),
                    });
                }
                self.threshold_m = m;
                Ok(Value::Null)
            }
            "getThreshold" => Ok(Value::Float(self.threshold_m)),
            "suspensions" => Ok(Value::Int(self.suspensions)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::positioning::Criteria;
    use perpos_geo::{LocalFrame, Point2, Wgs84};
    use perpos_sensors::{
        GpsEnvironment, GpsSimulator, Interpreter, MotionSensor, Parser, Trajectory,
    };

    fn frame() -> LocalFrame {
        LocalFrame::new(Wgs84::new(56.17, 10.19, 0.0).unwrap())
    }

    /// Builds the Fig. 7 graph: GPS -> Parser -> Interpreter -> app and a
    /// motion sensor -> app, with PowerStrategy on the GPS and EnTracked
    /// on the motion channel. Returns (mw, gps_node).
    fn entracked_setup(
        trajectory: Trajectory,
        threshold_m: f64,
    ) -> (Middleware, perpos_core::graph::NodeId) {
        let f = frame();
        let mut mw = Middleware::new();
        let gps = mw.add_component(
            GpsSimulator::new("GPS", f, trajectory.clone())
                .with_seed(21)
                .with_environment(GpsEnvironment {
                    dropout_prob: 0.0,
                    ..GpsEnvironment::open_sky()
                })
                .with_acquisition_delay(SimDuration::from_secs(2)),
        );
        let parser = mw.add_component(Parser::new());
        let interpreter = mw.add_component(Interpreter::new());
        let motion = mw.add_component(MotionSensor::new("Motion", trajectory).with_flip_prob(0.0));
        let app = mw.application_sink();
        mw.connect(gps, parser, 0).unwrap();
        mw.connect(parser, interpreter, 0).unwrap();
        mw.connect(interpreter, app, 0).unwrap();
        let target = mw.add_target("device");
        let target_node = target.node();
        mw.connect(motion, target_node, 0).unwrap();
        mw.attach_feature(gps, PowerStrategyFeature::new()).unwrap();
        let motion_channel = mw.channel_into(target_node, 0).unwrap();
        mw.attach_channel_feature(
            motion_channel,
            EnTrackedFeature::new(gps, interpreter, threshold_m),
        )
        .unwrap();
        (mw, gps)
    }

    #[test]
    fn power_strategy_toggles_host() {
        let f = frame();
        let mut mw = Middleware::new();
        let gps = mw.add_component(GpsSimulator::new(
            "GPS",
            f,
            Trajectory::stationary(Point2::new(0.0, 0.0)),
        ));
        mw.attach_feature(gps, PowerStrategyFeature::new()).unwrap();
        assert_eq!(mw.invoke(gps, "isEnabled", &[]).unwrap(), Value::Bool(true));
        // Method dispatch falls through the component to the feature.
        mw.invoke(gps, "setPowerMode", &[Value::from("suspended")])
            .unwrap();
        assert_eq!(
            mw.invoke(gps, "isEnabled", &[]).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            mw.invoke_feature(gps, PowerStrategyFeature::NAME, "getPowerMode", &[])
                .unwrap(),
            Value::from("suspended")
        );
        mw.invoke(gps, "setPowerMode", &[Value::from("continuous")])
            .unwrap();
        assert_eq!(mw.invoke(gps, "isEnabled", &[]).unwrap(), Value::Bool(true));
        assert_eq!(
            mw.invoke_feature(gps, PowerStrategyFeature::NAME, "modeChanges", &[])
                .unwrap(),
            Value::Int(2)
        );
        assert!(mw
            .invoke(gps, "setPowerMode", &[Value::from("warp")])
            .is_err());
    }

    #[test]
    fn stationary_target_suspends_gps() {
        let (mut mw, gps) = entracked_setup(Trajectory::stationary(Point2::new(5.0, 5.0)), 50.0);
        mw.run_for(SimDuration::from_secs(60), SimDuration::from_secs(1))
            .unwrap();
        // After the first fix the GPS must be off.
        assert_eq!(
            mw.invoke(gps, "isEnabled", &[]).unwrap(),
            Value::Bool(false),
            "stationary target must not keep the GPS powered"
        );
        let p = mw
            .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
            .unwrap();
        assert!(p.last_position().is_some(), "one fix was reported first");
    }

    #[test]
    fn moving_target_duty_cycles() {
        let walk = Trajectory::new(vec![Point2::new(0.0, 0.0), Point2::new(400.0, 0.0)], 1.4);
        let (mut mw, gps) = entracked_setup(walk, 50.0);
        let p = mw
            .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
            .unwrap();
        let mut on_samples = 0u32;
        let mut total = 0u32;
        for _ in 0..240 {
            mw.step().unwrap();
            if mw.invoke(gps, "isEnabled", &[]).unwrap() == Value::Bool(true) {
                on_samples += 1;
            }
            total += 1;
            mw.advance_clock(SimDuration::from_secs(1));
        }
        // The GPS must be duty-cycled: on some of the time, but well
        // below always-on.
        assert!(on_samples > 0, "GPS must wake up while moving");
        assert!(
            on_samples < total * 3 / 4,
            "GPS on {on_samples}/{total} samples — no duty cycling happened"
        );
        // Positions keep flowing at a bounded interval.
        assert!(p.history().len() >= 3, "periodic reports expected");
    }

    #[test]
    fn suspension_counter_tracks_sleep_cycles() {
        let (mut mw, _gps) = entracked_setup(Trajectory::stationary(Point2::new(1.0, 1.0)), 50.0);
        mw.run_for(SimDuration::from_secs(90), SimDuration::from_secs(1))
            .unwrap();
        let channels = mw.channels();
        let motion_channel = channels
            .iter()
            .find(|c| c.features.contains(&EnTrackedFeature::NAME.to_string()))
            .unwrap()
            .id;
        let suspensions = mw
            .invoke_channel_feature(motion_channel, EnTrackedFeature::NAME, "suspensions", &[])
            .unwrap()
            .as_i64()
            .unwrap();
        assert!(suspensions >= 1, "stationary target suspends at least once");
    }

    #[test]
    fn higher_max_speed_wakes_more_often() {
        // With a larger assumed max speed the same threshold forces more
        // frequent fixes: threshold/speed shrinks.
        let walk = Trajectory::new(vec![Point2::new(0.0, 0.0), Point2::new(600.0, 0.0)], 1.4);
        let count_on = |max_speed: f64| {
            let f = frame();
            let mut mw = Middleware::new();
            let gps = mw.add_component(
                GpsSimulator::new("GPS", f, walk.clone())
                    .with_seed(77)
                    .with_environment(GpsEnvironment {
                        dropout_prob: 0.0,
                        ..GpsEnvironment::open_sky()
                    })
                    .with_acquisition_delay(SimDuration::from_secs(1)),
            );
            let parser = mw.add_component(Parser::new());
            let interp = mw.add_component(Interpreter::new());
            let motion =
                mw.add_component(MotionSensor::new("Motion", walk.clone()).with_flip_prob(0.0));
            let app = mw.application_sink();
            mw.connect(gps, parser, 0).unwrap();
            mw.connect(parser, interp, 0).unwrap();
            mw.connect(interp, app, 0).unwrap();
            let target = mw.add_target("d");
            mw.connect(motion, target.node(), 0).unwrap();
            mw.attach_feature(gps, PowerStrategyFeature::new()).unwrap();
            let ch = mw.channel_into(target.node(), 0).unwrap();
            mw.attach_channel_feature(
                ch,
                EnTrackedFeature::new(gps, interp, 60.0).with_max_speed(max_speed),
            )
            .unwrap();
            let mut on = 0u32;
            for _ in 0..240 {
                mw.step().unwrap();
                if mw.invoke(gps, "isEnabled", &[]).unwrap() == Value::Bool(true) {
                    on += 1;
                }
                mw.advance_clock(SimDuration::from_secs(1));
            }
            on
        };
        let slow = count_on(1.0);
        let fast = count_on(6.0);
        assert!(
            fast > slow,
            "assuming a faster target ({fast} on-samples) must wake the GPS more than a slow one ({slow})"
        );
    }

    #[test]
    fn power_strategy_counts_changes_only() {
        let f = frame();
        let mut mw = Middleware::new();
        let gps = mw.add_component(GpsSimulator::new(
            "GPS",
            f,
            Trajectory::stationary(Point2::new(0.0, 0.0)),
        ));
        mw.attach_feature(gps, PowerStrategyFeature::new()).unwrap();
        // Setting the current mode repeatedly does not count as a change.
        for _ in 0..3 {
            mw.invoke(gps, "setPowerMode", &[Value::from("continuous")])
                .unwrap();
        }
        assert_eq!(
            mw.invoke_feature(gps, PowerStrategyFeature::NAME, "modeChanges", &[])
                .unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn entracked_invoke_surface() {
        let (mut mw, _gps) = entracked_setup(Trajectory::stationary(Point2::new(0.0, 0.0)), 25.0);
        let channels = mw.channels();
        let motion_channel = channels
            .iter()
            .find(|c| c.features.contains(&EnTrackedFeature::NAME.to_string()))
            .unwrap()
            .id;
        assert_eq!(
            mw.invoke_channel_feature(motion_channel, EnTrackedFeature::NAME, "getThreshold", &[])
                .unwrap(),
            Value::Float(25.0)
        );
        mw.invoke_channel_feature(
            motion_channel,
            EnTrackedFeature::NAME,
            "setThreshold",
            &[Value::Float(100.0)],
        )
        .unwrap();
        assert_eq!(
            mw.invoke_channel_feature(motion_channel, EnTrackedFeature::NAME, "getThreshold", &[])
                .unwrap(),
            Value::Float(100.0)
        );
        assert!(mw
            .invoke_channel_feature(
                motion_channel,
                EnTrackedFeature::NAME,
                "setThreshold",
                &[Value::Float(-5.0)]
            )
            .is_err());
    }
}
