//! Failure-injection tests: the middleware must degrade gracefully under
//! sensor dropouts, garbage data, runtime component removal, and features
//! that swallow everything.

#![allow(clippy::unwrap_used)]
use std::any::Any;

use perpos::core::component::{Component, ComponentCtx, ComponentDescriptor};
use perpos::core::feature::{ComponentFeature, FeatureAction, FeatureDescriptor, FeatureHost};
use perpos::prelude::*;

/// A source that emits garbage interleaved with valid NMEA.
struct GarbageGps {
    inner: GpsSimulator,
    counter: u64,
}

impl Component for GarbageGps {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::source("GarbageGPS", vec![kinds::RAW_STRING])
    }

    fn on_input(
        &mut self,
        _p: usize,
        _i: DataItem,
        _c: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }

    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        self.counter += 1;
        match self.counter % 4 {
            0 => ctx.emit_value(kinds::RAW_STRING, Value::from("$GARBAGE*ZZ")),
            1 => ctx.emit_value(kinds::RAW_STRING, Value::from("!!noise!!")),
            2 => ctx.emit_value(kinds::RAW_STRING, Value::Int(42)), // not even text
            _ => {}
        }
        self.inner.on_tick(ctx)
    }
}

fn frame() -> LocalFrame {
    LocalFrame::new(Wgs84::new(56.17, 10.19, 0.0).unwrap())
}

#[test]
fn garbage_bursts_do_not_stop_the_pipeline() {
    let walk = Trajectory::stationary(Point2::new(0.0, 0.0));
    let mut mw = Middleware::new();
    let gps = mw.add_component(GarbageGps {
        inner: GpsSimulator::new("GPS", frame(), walk).with_seed(3),
        counter: 0,
    });
    let parser = mw.add_component(Parser::new());
    let interpreter = mw.add_component(Interpreter::new());
    let app = mw.application_sink();
    mw.connect(gps, parser, 0).unwrap();
    mw.connect(parser, interpreter, 0).unwrap();
    mw.connect(interpreter, app, 0).unwrap();
    let provider = mw
        .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
        .unwrap();
    mw.run_for(SimDuration::from_secs(60), SimDuration::from_secs(1))
        .unwrap();
    assert!(
        provider.last_position().is_some(),
        "positions still flow despite garbage"
    );
    let errors = mw.invoke(parser, "errorCount", &[]).unwrap();
    assert!(matches!(errors, Value::Int(n) if n > 20), "{errors:?}");
}

#[test]
fn dropout_heavy_sensor_keeps_engine_running() {
    let walk = Trajectory::stationary(Point2::new(0.0, 0.0));
    let mut mw = Middleware::new();
    let gps = mw.add_component(
        GpsSimulator::new("GPS", frame(), walk)
            .with_seed(7)
            .with_environment(GpsEnvironment {
                dropout_prob: 0.95,
                ..GpsEnvironment::open_sky()
            }),
    );
    let app = mw.application_sink();
    mw.connect(gps, app, 0).unwrap();
    mw.run_for(SimDuration::from_secs(120), SimDuration::from_secs(1))
        .unwrap();
    // No panic, and the engine stepped every tick.
    assert_eq!(mw.steps_run(), 120);
}

#[test]
fn removing_a_running_component_stops_its_branch_only() {
    let walk = Trajectory::stationary(Point2::new(0.0, 0.0));
    let mut mw = Middleware::new();
    let gps1 = mw.add_component(GpsSimulator::new("GPS-1", frame(), walk.clone()).with_seed(1));
    let gps2 = mw.add_component(GpsSimulator::new("GPS-2", frame(), walk).with_seed(2));
    let p1 = mw.add_component(Parser::new());
    let p2 = mw.add_component(Parser::new());
    let app = mw.application_sink();
    mw.connect(gps1, p1, 0).unwrap();
    mw.connect(gps2, p2, 0).unwrap();
    mw.connect_to_sink(p1, app).unwrap();
    mw.connect_to_sink(p2, app).unwrap();
    let provider = mw.location_provider(Criteria::new()).unwrap();
    mw.run_for(SimDuration::from_secs(5), SimDuration::from_secs(1))
        .unwrap();
    let before = provider.delivered_count();
    assert!(before > 0);

    // Remove the first pipeline's source mid-run.
    mw.remove_component(gps1).unwrap();
    mw.run_for(SimDuration::from_secs(5), SimDuration::from_secs(1))
        .unwrap();
    let after = provider.delivered_count();
    assert!(after > before, "second branch still delivers");
    // Only one channel remains rooted at a source.
    assert_eq!(
        mw.channels()
            .iter()
            .filter(|c| c.member_names.iter().any(|n| n.starts_with("GPS")))
            .count(),
        1
    );
}

/// A feature that swallows every item.
struct BlackHole;

impl ComponentFeature for BlackHole {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new("BlackHole")
    }
    fn on_produce(
        &mut self,
        _item: DataItem,
        _host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        Ok(FeatureAction::Drop)
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn black_hole_feature_is_detachable() {
    let walk = Trajectory::stationary(Point2::new(0.0, 0.0));
    let mut mw = Middleware::new();
    let gps = mw.add_component(GpsSimulator::new("GPS", frame(), walk).with_seed(5));
    let app = mw.application_sink();
    mw.connect(gps, app, 0).unwrap();
    mw.attach_feature(gps, BlackHole).unwrap();
    let provider = mw.location_provider(Criteria::new()).unwrap();
    mw.run_for(SimDuration::from_secs(10), SimDuration::from_secs(1))
        .unwrap();
    assert_eq!(provider.delivered_count(), 0, "everything swallowed");
    // Detach and recover.
    mw.detach_feature(gps, "BlackHole").unwrap();
    mw.run_for(SimDuration::from_secs(10), SimDuration::from_secs(1))
        .unwrap();
    assert!(provider.delivered_count() > 0, "flow restored");
}

#[test]
fn failing_component_surfaces_error_once() {
    struct FailsAfter {
        remaining: u32,
    }
    impl Component for FailsAfter {
        fn descriptor(&self) -> ComponentDescriptor {
            ComponentDescriptor::source("flaky", vec![kinds::RAW_STRING])
        }
        fn on_input(
            &mut self,
            _p: usize,
            _i: DataItem,
            _c: &mut ComponentCtx<'_>,
        ) -> Result<(), CoreError> {
            Ok(())
        }
        fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
            if self.remaining == 0 {
                return Err(CoreError::ComponentFailure {
                    component: "flaky".into(),
                    reason: "hardware fault".into(),
                });
            }
            self.remaining -= 1;
            ctx.emit_value(kinds::RAW_STRING, Value::from("ok"));
            Ok(())
        }
    }
    let mut mw = Middleware::new();
    let flaky = mw.add_component(FailsAfter { remaining: 3 });
    let app = mw.application_sink();
    mw.connect(flaky, app, 0).unwrap();
    for _ in 0..3 {
        mw.step().unwrap();
        mw.advance_clock(SimDuration::from_secs(1));
    }
    let err = mw.step().unwrap_err();
    assert!(matches!(err, CoreError::ComponentFailure { .. }));
    // The application can remove the faulty component and continue.
    mw.remove_component(flaky).unwrap();
    mw.step().unwrap();
}

// ---------------------------------------------------------------------------
// Supervision: fault policies, quarantine lifecycle, panic containment and
// provider failover, all driven by the seeded FaultInjector feature.
// ---------------------------------------------------------------------------

/// A sensor stand-in emitting one tagged WGS84 position per tick.
struct TaggedSource {
    name: &'static str,
    lat: f64,
}

impl Component for TaggedSource {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::source(self.name, vec![kinds::POSITION_WGS84])
    }
    fn on_input(
        &mut self,
        _p: usize,
        _i: DataItem,
        _c: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }
    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        let coord = Wgs84::new(self.lat, 10.0, 0.0).unwrap();
        ctx.emit(
            DataItem::new(
                kinds::POSITION_WGS84,
                ctx.now(),
                Value::from(Position::new(coord, Some(5.0))),
            )
            .with_attr("source", Value::from(self.name)),
        );
        Ok(())
    }
}

#[test]
fn supervised_faulty_source_never_aborts_run_for() {
    // Without a policy this run aborts on the first injected fault (the
    // contract failing_component_surfaces_error_once pins). With DropItem
    // the same 120 s scenario completes, errors AND panics contained.
    std::panic::set_hook(Box::new(|_| {})); // keep injected panics quiet
    let mut mw = Middleware::new();
    let gps = mw.add_component(TaggedSource {
        name: "gps",
        lat: 1.0,
    });
    mw.attach_feature(
        gps,
        FaultInjector::with_seed(9)
            .with_error_rate(0.2)
            .with_panic_rate(0.1),
    )
    .unwrap();
    mw.set_fault_policy(gps, FaultPolicy::DropItem).unwrap();
    let app = mw.application_sink();
    mw.connect(gps, app, 0).unwrap();
    let provider = mw.location_provider(Criteria::new()).unwrap();
    mw.run_for(SimDuration::from_secs(120), SimDuration::from_secs(1))
        .unwrap();
    let _ = std::panic::take_hook();
    assert_eq!(mw.steps_run(), 120);
    let h = mw.node_health(gps);
    assert!(h.faults > 20, "faults = {}", h.faults);
    assert_eq!(provider.delivered_count() + h.faults, 120);
}

#[test]
fn quarantine_lifecycle_backoff_and_reinstate() {
    // Every item faults until the injector is detached (the "repair"),
    // after which the next probe reinstates the source.
    let mut mw = Middleware::new();
    let gps = mw.add_component(TaggedSource {
        name: "gps",
        lat: 1.0,
    });
    mw.attach_feature(gps, FaultInjector::with_seed(1).with_error_rate(1.0))
        .unwrap();
    mw.set_fault_policy(
        gps,
        FaultPolicy::Quarantine {
            max_faults: 2,
            window: SimDuration::from_secs(30),
            backoff: SimDuration::from_secs(4),
        },
    )
    .unwrap();
    let app = mw.application_sink();
    mw.connect(gps, app, 0).unwrap();
    let provider = mw.location_provider(Criteria::new()).unwrap();

    let step = |mw: &mut Middleware, n: u32| {
        for _ in 0..n {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_secs(1));
        }
    };
    // t=0,1: two faults open the breaker until t=5 (4 s backoff).
    step(&mut mw, 2);
    assert_eq!(mw.node_health(gps).status, HealthStatus::Quarantined);
    // t=2..=4 skipped; t=5 probe still faults: backoff doubles to 8 s.
    step(&mut mw, 4);
    let h = mw.node_health(gps);
    assert_eq!(h.status, HealthStatus::Quarantined);
    assert_eq!(h.quarantines, 2);
    assert_eq!(h.faults, 3, "quarantined ticks must not call the source");
    // Repair the sensor while the breaker is open (t=6..=12 skipped).
    mw.detach_feature(gps, FaultInjector::NAME).unwrap();
    step(&mut mw, 7);
    assert_eq!(provider.delivered_count(), 0);
    // t=13: probe succeeds — reinstated, flow resumes.
    step(&mut mw, 1);
    assert_eq!(mw.node_health(gps).status, HealthStatus::Healthy);
    assert_eq!(provider.delivered_count(), 1);
    step(&mut mw, 5);
    assert_eq!(provider.delivered_count(), 6);
}

#[test]
fn injected_panics_are_contained_and_reported() {
    std::panic::set_hook(Box::new(|_| {}));
    let mut mw = Middleware::new();
    let gps = mw.add_component(TaggedSource {
        name: "gps",
        lat: 1.0,
    });
    mw.attach_feature(gps, FaultInjector::with_seed(2).with_panic_rate(1.0))
        .unwrap();
    mw.set_fault_policy(gps, FaultPolicy::DropItem).unwrap();
    let app = mw.application_sink();
    mw.connect(gps, app, 0).unwrap();
    mw.run_for(SimDuration::from_secs(10), SimDuration::from_secs(1))
        .unwrap();
    let _ = std::panic::take_hook();
    let h = mw.node_health(gps);
    assert_eq!(h.faults, 10);
    assert!(
        h.last_error.as_deref().unwrap_or("").contains("panic"),
        "{:?}",
        h.last_error
    );
    // The health model is reachable reflectively, like any other method.
    let v = mw.invoke(gps, "health", &[]).unwrap();
    assert!(matches!(v, Value::Map(_)));
}

#[test]
fn provider_failover_survives_a_quarantined_pipeline() {
    let mut mw = Middleware::new();
    let gps = mw.add_component(TaggedSource {
        name: "gps",
        lat: 1.0,
    });
    let wifi = mw.add_component(TaggedSource {
        name: "wifi",
        lat: 2.0,
    });
    mw.attach_feature(gps, FaultInjector::with_seed(4).with_error_rate(1.0))
        .unwrap();
    mw.set_fault_policy(
        gps,
        FaultPolicy::Quarantine {
            max_faults: 2,
            window: SimDuration::from_secs(30),
            backoff: SimDuration::from_secs(60),
        },
    )
    .unwrap();
    let app = mw.application_sink();
    mw.connect(gps, app, 0).unwrap();
    mw.connect(wifi, app, 1).unwrap();
    let failover = mw
        .failover_provider(vec![
            Criteria::new().source("gps"),
            Criteria::new().source("wifi"),
        ])
        .unwrap();
    let events = failover.events();
    assert_eq!(failover.active(), Some(0));

    for _ in 0..5 {
        mw.step().unwrap();
        mw.advance_clock(SimDuration::from_secs(1));
    }
    // GPS is quarantined; the provider fell over to the WiFi pipeline
    // and still answers position queries.
    assert_eq!(mw.node_health(gps).status, HealthStatus::Quarantined);
    assert!(failover.is_degraded());
    assert_eq!(failover.active(), Some(1));
    let pos = failover
        .last_position()
        .expect("wifi keeps positions alive");
    assert!((pos.coord().lat_deg() - 2.0).abs() < 1e-9);
    assert!(matches!(
        events.try_recv(),
        Ok(ProviderEvent::Degraded { from: 0, .. })
    ));
}

#[test]
fn healthy_branches_survive_a_quarantined_one() {
    // Three independent branches into the application sink: one clean,
    // one dropping faulty items, one whose panics quarantine it. The
    // clean branch must keep deriving a tree every step, and the
    // dropping branch every step it does not fault.
    std::panic::set_hook(Box::new(|_| {}));
    let counter = |name: &str, stride: i64| {
        let mut i = 0i64;
        FnSource::new(name.to_string(), kinds::RAW_STRING, move |_| {
            i += stride;
            Some(Value::Int(i))
        })
    };
    let relay = |name: &str| {
        FnProcessor::new(name, vec![kinds::RAW_STRING], kinds::RAW_STRING, |i| {
            Some(i.payload.clone())
        })
    };
    let mut mw = Middleware::new();
    let app = mw.application_sink();
    let mut branches = Vec::new();
    for (i, name) in ["clean", "dropping", "quarantined"].into_iter().enumerate() {
        let src = mw.add_component(counter(name, 10i64.pow(i as u32)));
        let stage = mw.add_component(relay(name));
        mw.connect(src, stage, 0).unwrap();
        let port = mw.connect_to_sink(stage, app).unwrap();
        let channel = mw.channel_into(app, port).unwrap();
        mw.subscribe_channel_history(channel, 128).unwrap();
        branches.push((stage, channel));
    }
    let (dropping, quarantined) = (branches[1].0, branches[2].0);
    mw.attach_feature(
        dropping,
        FaultInjector::with_seed(42)
            .with_panic_rate(0.15)
            .with_error_rate(0.15),
    )
    .unwrap();
    mw.set_fault_policy(dropping, FaultPolicy::DropItem)
        .unwrap();
    mw.attach_feature(
        quarantined,
        FaultInjector::with_seed(7).with_panic_rate(0.3),
    )
    .unwrap();
    mw.set_fault_policy(quarantined, FaultPolicy::quarantine_default())
        .unwrap();

    mw.run_for(SimDuration::from_secs(10), SimDuration::from_millis(100))
        .unwrap();
    let _ = std::panic::take_hook();

    assert_eq!(mw.steps_run(), 100);
    assert!(mw.node_health(quarantined).quarantines > 0);
    let trees = |b: usize| mw.channel_history(branches[b].1).unwrap().len() as u64;
    assert_eq!(trees(0), 100, "the clean branch derives a tree every step");
    let faults = mw.node_health(dropping).faults;
    assert!(faults > 0);
    assert_eq!(trees(1) + faults, 100, "only faulted items are dropped");
}
