//! `fusion_adapt`: the paper's Fig. 2/5/6 pipeline, adapted while it
//! runs. `GpsSimulator` (urban) → `Parser` (+HDOP) → `Interpreter` and
//! `WifiScanner` → `WifiPositioning` both feed a 2-input `ParticleFilter`
//! with building walls, whose GPS input channel carries the `Likelihood`
//! Channel Feature; the filter feeds the application. One request is one
//! `step_batch(1, 1 s)` plus a provider read. After every
//! [`ADAPT_EVERY`]-th step the next adaptation of a fixed cycle runs:
//! the §3.1 satellite filter goes in and out, a channel history is
//! subscribed and dropped, components are reconfigured reflectively and
//! the instance is checkpointed.

use std::any::Any;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use perpos_core::feature::{ComponentFeature, FeatureAction, FeatureDescriptor, FeatureHost};
use perpos_core::prelude::*;
use perpos_fusion::{LikelihoodFeature, ParticleFilter};
use perpos_geo::{LocalFrame, Wgs84};
use perpos_model::demo_building;
use perpos_sensors::{
    GpsEnvironment, GpsSimulator, HdopFeature, Interpreter, NumberOfSatellitesFeature, Parser,
    RadioMap, SatelliteFilter, Trajectory, WifiEnvironment, WifiPositioning, WifiScanner,
};

use crate::rng::Rng;
use crate::stats::{self, Requests};
use crate::trace::{self, Name, TracedChannelFeature};
use crate::{add, attach, gen, reconcile, Config, Outcome, Size};

/// Simulated time per request.
fn tick() -> SimDuration {
    SimDuration::from_secs(1)
}

/// Steps between two adaptations.
pub const ADAPT_EVERY: u64 = 5;

/// Fused and raw errors are compared after the filter has converged.
const SETTLE_STEPS: u64 = 30;

/// Span slots kept free so a traced request is never cut short.
const SPAN_MARGIN: usize = 4_096;

/// Radio-map survey grid, metres.
const GRID_M: f64 = 1.0;

/// The adaptation cycle, in order.
const CYCLE: [Adaptation; 9] = [
    Adaptation::AttachNumSats,
    Adaptation::InsertFilter,
    Adaptation::SubscribeHistory,
    Adaptation::SetSampleInterval,
    Adaptation::SetK,
    Adaptation::Snapshot,
    Adaptation::UnsubscribeHistory,
    Adaptation::RemoveFilter,
    Adaptation::DetachNumSats,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Adaptation {
    AttachNumSats,
    InsertFilter,
    SubscribeHistory,
    SetSampleInterval,
    SetK,
    Snapshot,
    UnsubscribeHistory,
    RemoveFilter,
    DetachNumSats,
}

impl Adaptation {
    fn span(self) -> Name {
        match self {
            Adaptation::AttachNumSats => Name::AttachFeature,
            Adaptation::DetachNumSats => Name::DetachFeature,
            Adaptation::InsertFilter => Name::InsertBetween,
            Adaptation::RemoveFilter => Name::RemoveComponent,
            Adaptation::SubscribeHistory | Adaptation::UnsubscribeHistory => Name::SubscribeHistory,
            Adaptation::SetSampleInterval | Adaptation::SetK => Name::Invoke,
            Adaptation::Snapshot => Name::Snapshot,
        }
    }
}

struct Shape {
    rooms: usize,
    particles: usize,
    warm_up_steps: u64,
    /// Graph builds timed at the start of every window of the measured
    /// loop.
    setups_per_window: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            rooms: 24,
            particles: 500,
            warm_up_steps: 90,
            setups_per_window: 3,
        },
        Size::Small => Shape {
            rooms: 3,
            particles: 100,
            warm_up_steps: 45,
            setups_per_window: 1,
        },
    }
}

/// The generated inputs: the walk and the seeds of every noise source.
struct Inputs {
    walk: Trajectory,
    gps_seed: u64,
    wifi_seed: u64,
    filter_seed: u64,
    particles: usize,
}

/// Raw GPS fixes as the Interpreter produced them.
type RawFixes = Arc<Mutex<Vec<(SimTime, Wgs84)>>>;

/// A benchmark-owned feature on the Interpreter that copies each raw GPS
/// fix aside, for the raw-versus-fused error comparison.
struct RawTap {
    fixes: RawFixes,
}

impl ComponentFeature for RawTap {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new("RawTap")
    }

    fn on_produce(
        &mut self,
        item: DataItem,
        _host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        let _span = trace::span(Name::Tap);
        if let Some(pos) = item.payload.as_position() {
            self.fixes
                .lock()
                .expect("the tap's lock is never held across a panic")
                .push((item.timestamp, *pos.coord()));
        }
        Ok(FeatureAction::Continue(item))
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Rig {
    mw: Middleware,
    frame: LocalFrame,
    gps: NodeId,
    parser: NodeId,
    interpreter: NodeId,
    wifi_positioning: NodeId,
    gps_channel: ChannelId,
    fused: LocationProvider,
    raw: RawFixes,
    filter: Option<NodeId>,
    traced: bool,
    k: i64,
}

fn build(inputs: &Inputs, traced: bool) -> Rig {
    let span = |name| traced.then_some(name);
    let building = Arc::new(demo_building());
    let frame = *building.frame();
    let wifi_env = Arc::new(WifiEnvironment::with_ap_per_room(Arc::clone(&building), 0));
    let map = Arc::new(RadioMap::build(&wifi_env, GRID_M));
    let likelihood = LikelihoodFeature::new();
    let filter = ParticleFilter::new("PF", frame, 2)
        .with_seed(inputs.filter_seed)
        .with_particles(inputs.particles)
        .with_building(Arc::clone(&building), 0)
        .with_likelihood(likelihood.handle());

    let mut mw = Middleware::new();
    let gps = add(
        &mut mw,
        GpsSimulator::new("GPS", frame, inputs.walk.clone())
            .with_seed(inputs.gps_seed)
            .with_environment(GpsEnvironment::urban()),
        span(Name::GpsTick),
    );
    let parser = add(&mut mw, Parser::new(), span(Name::Parser));
    let interpreter = add(&mut mw, Interpreter::new(), span(Name::Interpreter));
    let wifi = add(
        &mut mw,
        WifiScanner::new("WiFi", wifi_env, inputs.walk.clone()).with_seed(inputs.wifi_seed),
        span(Name::WifiTick),
    );
    let wifi_positioning = add(
        &mut mw,
        WifiPositioning::new(map, building),
        span(Name::WifiPositioning),
    );
    let pf = add(&mut mw, filter, span(Name::Particle));
    let app = mw.application_sink();
    mw.connect(gps, parser, 0).expect("gps -> parser");
    mw.connect(parser, interpreter, 0)
        .expect("parser -> interpreter");
    mw.connect(interpreter, pf, 0)
        .expect("interpreter -> filter");
    mw.connect(wifi, wifi_positioning, 0)
        .expect("wifi -> positioning");
    mw.connect(wifi_positioning, pf, 1)
        .expect("positioning -> filter");
    mw.connect_to_sink(pf, app).expect("filter -> app");
    attach(&mut mw, parser, HdopFeature::new(), span(Name::Hdop)).expect("HDOP on the parser");
    let raw = RawFixes::default();
    mw.attach_feature(
        interpreter,
        RawTap {
            fixes: Arc::clone(&raw),
        },
    )
    .expect("tap on the interpreter");
    let gps_channel = mw
        .channel_into(pf, 0)
        .expect("the GPS channel feeds the filter");
    if traced {
        mw.attach_channel_feature(
            gps_channel,
            TracedChannelFeature::new(likelihood, Name::Likelihood),
        )
    } else {
        mw.attach_channel_feature(gps_channel, likelihood)
    }
    .expect("Likelihood on the GPS channel");
    let fused = mw
        .location_provider(Criteria::new().source("fusion"))
        .expect("the filter provides positions");
    Rig {
        mw,
        frame,
        gps,
        parser,
        interpreter,
        wifi_positioning,
        gps_channel,
        fused,
        raw,
        filter: None,
        traced,
        k: 3,
    }
}

fn adapt(rig: &mut Rig, what: Adaptation) -> Result<(), CoreError> {
    let mw = &mut rig.mw;
    match what {
        Adaptation::AttachNumSats => attach(
            mw,
            rig.parser,
            NumberOfSatellitesFeature::new(),
            rig.traced.then_some(Name::NumSats),
        ),
        Adaptation::InsertFilter => {
            let filter = mw.add_component(SatelliteFilter::new(4));
            rig.filter = Some(filter);
            mw.insert_between(filter, rig.parser, rig.interpreter, 0)
        }
        Adaptation::SubscribeHistory => mw.subscribe_channel_history(rig.gps_channel, 8),
        Adaptation::SetSampleInterval => mw
            .invoke(rig.gps, "setSampleInterval", &[Value::Float(1.0)])
            .map(drop),
        Adaptation::SetK => {
            rig.k = 7 - rig.k;
            mw.invoke(rig.wifi_positioning, "setK", &[Value::Int(rig.k)])
                .map(drop)
        }
        Adaptation::Snapshot => {
            let snapshot = mw.snapshot();
            if snapshot.node_count() == 0 {
                return Err(CoreError::BadArguments {
                    method: "snapshot".into(),
                    reason: "empty checkpoint".into(),
                });
            }
            Ok(())
        }
        Adaptation::UnsubscribeHistory => mw.unsubscribe_channel_history(rig.gps_channel),
        Adaptation::RemoveFilter => {
            let filter = rig.filter.take().ok_or(CoreError::BadArguments {
                method: "remove_component".into(),
                reason: "no satellite filter inserted".into(),
            })?;
            mw.remove_component(filter)?;
            mw.connect(rig.parser, rig.interpreter, 0)
        }
        Adaptation::DetachNumSats => mw
            .detach_feature(rig.parser, NumberOfSatellitesFeature::NAME)
            .map(drop),
    }
}

/// Errors and counts of a stretch of requests.
#[derive(Debug, Default)]
struct Tally {
    steps: u64,
    fresh: u64,
    adaptations: u64,
    fused_err: Vec<f64>,
}

/// The loop both modes share: `steps` requests (or until `deadline` or
/// the span slots run low), each followed by its adaptation when due.
fn drive(
    rig: &mut Rig,
    walk: &Trajectory,
    out: &mut Outcome,
    tally: &mut Tally,
    limit: Limit,
    mut latencies: Option<(&mut Requests, &mut Requests)>,
) {
    loop {
        match limit {
            Limit::Steps(n) if tally.steps >= n => break,
            Limit::Traced(deadline)
                if Instant::now() >= deadline || trace::remaining() <= SPAN_MARGIN =>
            {
                break
            }
            _ => {}
        }
        trace::set_request(tally.steps);
        let root = trace::root(Name::Request);
        let at = rig.mw.now();
        let t0 = Instant::now();
        let stepped = {
            let _span = trace::span(Name::StepBatch);
            rig.mw.step_batch(1, tick())
        };
        let item = {
            let _span = trace::span(Name::ProviderRead);
            rig.fused.last_item()
        };
        let took = t0.elapsed();
        {
            let _span = trace::span(Name::Check);
            tally.steps += 1;
            out.op("step_batch", stepped);
            if let Some(item) = item.filter(|i| i.timestamp == at) {
                tally.fresh += 1;
                if tally.steps > SETTLE_STEPS {
                    if let Some(pos) = item.payload.as_position() {
                        let truth = walk.position_at(at);
                        tally
                            .fused_err
                            .push(rig.frame.to_local(pos.coord()).distance(&truth));
                    }
                }
            }
            if let Some((lat, _)) = latencies.as_mut() {
                lat.push(took, 1);
            }
        }
        drop(root);
        if tally.steps.is_multiple_of(ADAPT_EVERY) {
            let what = CYCLE[(tally.adaptations % CYCLE.len() as u64) as usize];
            tally.adaptations += 1;
            let root = trace::root(what.span());
            let t0 = Instant::now();
            let result = adapt(rig, what);
            let took = t0.elapsed();
            drop(root);
            out.op(&format!("{what:?}"), result);
            if let Some((_, adapt_lat)) = latencies.as_mut() {
                adapt_lat.push(took, 1);
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Limit {
    Steps(u64),
    Traced(Instant),
}

/// Median of raw GPS fix errors after the filter settled.
fn raw_median(rig: &Rig, walk: &Trajectory) -> f64 {
    let settle = SimTime::from_secs_f64(SETTLE_STEPS as f64);
    let raw = rig
        .raw
        .lock()
        .expect("the tap's lock is never held across a panic");
    let err: Vec<f64> = raw
        .iter()
        .filter(|(t, _)| *t > settle)
        .map(|(t, c)| rig.frame.to_local(c).distance(&walk.position_at(*t)))
        .collect();
    stats::median(err)
}

/// Fig. 6's shape: the fused track beats raw GPS.
fn check_fusion(rig: &Rig, walk: &Trajectory, tally: &mut Tally, out: &mut Outcome) -> (f64, f64) {
    let fused = stats::median(std::mem::take(&mut tally.fused_err));
    let raw = raw_median(rig, walk);
    out.check(fused > 0.0 && fused < raw, || {
        format!("fused median error {fused:.2} m is not below raw GPS {raw:.2} m")
    });
    (fused, raw)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let shape = shape(cfg.size);
    let mut rng = Rng::derived(cfg.seed, 0x4655_5345, 0);
    let inputs = Inputs {
        walk: gen::office_walk(cfg.seed, shape.rooms),
        gps_seed: rng.next_u64(),
        wifi_seed: rng.next_u64(),
        filter_seed: rng.next_u64(),
        particles: shape.particles,
    };
    let mut out = Outcome::default();
    out.note(format!(
        "walk: {} waypoints, {:.0} m loop at {:.2} m/s; {} particles; adaptation every {} steps",
        inputs.walk.waypoints().len(),
        inputs.walk.length_m(),
        inputs.walk.speed_mps(),
        inputs.particles,
        ADAPT_EVERY
    ));
    if cfg.trace {
        run_traced(cfg, &shape, &inputs, &mut out);
    } else {
        run_untraced(cfg, &shape, &inputs, &mut out);
    }
    out
}

fn run_untraced(cfg: &Config, shape: &Shape, inputs: &Inputs, out: &mut Outcome) {
    let mut rig = build(inputs, false);
    let mut tally = Tally::default();
    drive(
        &mut rig,
        &inputs.walk,
        out,
        &mut tally,
        Limit::Steps(shape.warm_up_steps),
        None,
    );
    let peak_rss = stats::peak_rss_mb();

    let mut steps = Requests::with_capacity(1 << 19);
    let mut adaptations = Requests::with_capacity(1 << 17);
    let warm = tally.steps;
    let fresh0 = tally.fresh;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while Instant::now() < deadline {
        steps.time_setups(stats::WINDOW, shape.setups_per_window, || {
            build(inputs, false)
        });
        let next = tally.steps + 1;
        drive(
            &mut rig,
            &inputs.walk,
            out,
            &mut tally,
            Limit::Steps(next),
            Some((&mut steps, &mut adaptations)),
        );
    }
    let (fused, raw) = check_fusion(&rig, &inputs.walk, &mut tally, out);

    let s = steps.fastest(stats::WINDOW, stats::FAST_SHARE);
    let a = adaptations.pooled();
    let measured = tally.steps - warm;
    out.metric("items_per_s", s.items_per_s, "1/s");
    out.metric("latency_p50_us", s.p50_us, "us");
    out.metric("latency_p99_us", s.p99_us, "us");
    out.metric(
        "availability",
        trace::per((tally.fresh - fresh0) as f64, measured),
        "ratio",
    );
    out.metric("setup_s", s.setup_s, "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("adapt_p50_us", a.p50_us, "us");
    out.metric("adapt_p99_us", a.p99_us, "us");
    out.metric("pos_err_p50_m", fused, "m");
    out.metric("raw_gps_err_p50_m", raw, "m");
    out.note(format!(
        "{measured} steps and {} adaptations measured; figures from the fastest {} of {} \
         windows, with {} graph builds timed per window",
        adaptations.len(),
        s.windows,
        s.of_windows,
        shape.setups_per_window
    ));
}

fn run_traced(cfg: &Config, shape: &Shape, inputs: &Inputs, out: &mut Outcome) {
    let mut rig = build(inputs, true);
    let mut tally = Tally::default();
    drive(
        &mut rig,
        &inputs.walk,
        out,
        &mut tally,
        Limit::Steps(shape.warm_up_steps),
        None,
    );
    let arena0 = rig.mw.arena_stats();
    let chan0 = rig.mw.channel_stats(rig.gps_channel).expect("GPS channel");
    let delivered0 = rig.fused.delivered_count();
    let (warm, adapt0) = (tally.steps, tally.adaptations);

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 2.0);
    trace::start();
    let t0 = Instant::now();
    drive(
        &mut rig,
        &inputs.walk,
        out,
        &mut tally,
        Limit::Traced(deadline),
        None,
    );
    let traced_wall = t0.elapsed();
    let spans = trace::finish();
    out.check(spans.is_ok(), || "span slots overflowed".into());
    let profile = trace::profile(&spans.unwrap_or_else(|s| s));
    check_fusion(&rig, &inputs.walk, &mut tally, out);
    let steps = tally.steps - warm;

    let arena = rig.mw.arena_stats();
    let chan = rig.mw.channel_stats(rig.gps_channel).expect("GPS channel");
    let dropped: u64 = rig
        .mw
        .channels()
        .iter()
        .filter_map(|c| rig.mw.channel_stats(c.id).ok())
        .map(|s| s.dropped)
        .sum();
    let delivered = rig.fused.delivered_count() - delivered0;

    // The same steps and adaptations without spans or wrappers.
    let mut plain = build(inputs, false);
    let mut plain_tally = Tally::default();
    drive(
        &mut plain,
        &inputs.walk,
        out,
        &mut plain_tally,
        Limit::Steps(warm),
        None,
    );
    let t0 = Instant::now();
    drive(
        &mut plain,
        &inputs.walk,
        out,
        &mut plain_tally,
        Limit::Steps(tally.steps),
        None,
    );
    let plain_wall = t0.elapsed();

    let p = &profile;
    let per_step = |name| trace::per(p.self_ns(name) as f64, steps);
    let call_us = |name| p.mean_ns(name) / 1e3;
    out.metric(
        "sensors.gps_tick_ns",
        p.mean_self_ns(Name::GpsTick),
        "ns/tick",
    );
    out.metric(
        "sensors.wifi_tick_ns",
        p.mean_self_ns(Name::WifiTick),
        "ns/tick",
    );
    out.metric(
        "pipeline.parser_ns_per_item",
        p.mean_self_ns(Name::Parser),
        "ns/item",
    );
    out.metric(
        "pipeline.interpreter_ns_per_item",
        p.mean_self_ns(Name::Interpreter),
        "ns/item",
    );
    out.metric(
        "pipeline.wifi_positioning_ns_per_item",
        p.mean_self_ns(Name::WifiPositioning),
        "ns/item",
    );
    out.metric(
        "feature.hdop_ns_per_item",
        p.mean_self_ns(Name::Hdop),
        "ns/item",
    );
    out.metric(
        "feature.numsats_ns_per_item",
        p.mean_self_ns(Name::NumSats),
        "ns/item",
    );
    out.metric(
        "channel.likelihood_apply_ns_per_tree",
        p.mean_self_ns(Name::Likelihood),
        "ns/tree",
    );
    out.metric(
        "channel.materialized_ratio",
        trace::per(
            (chan.materialized - chan0.materialized) as f64,
            chan.outputs - chan0.outputs,
        ),
        "ratio",
    );
    out.metric("channel.dropped", dropped as f64, "count");
    out.metric(
        "fusion.particle_ns_per_step",
        per_step(Name::Particle),
        "ns/step",
    );
    out.metric(
        "engine.step_self_ns_per_step",
        per_step(Name::StepBatch),
        "ns/step",
    );
    out.metric(
        "arena.recycle_ratio",
        trace::per(
            (arena.recycled - arena0.recycled) as f64,
            arena.interned - arena0.interned,
        ),
        "ratio",
    );
    out.metric(
        "arena.escaped",
        (arena.escaped - arena0.escaped) as f64,
        "count",
    );
    out.metric("positioning.delivered", delivered as f64, "count");
    out.metric(
        "positioning.drain_ns_per_item",
        p.mean_self_ns(Name::ProviderRead),
        "ns/item",
    );
    out.metric(
        "adapt.attach_feature_us",
        call_us(Name::AttachFeature),
        "us/call",
    );
    out.metric(
        "adapt.detach_feature_us",
        call_us(Name::DetachFeature),
        "us/call",
    );
    out.metric(
        "adapt.insert_between_us",
        call_us(Name::InsertBetween),
        "us/call",
    );
    out.metric(
        "adapt.remove_component_us",
        call_us(Name::RemoveComponent),
        "us/call",
    );
    out.metric(
        "adapt.subscribe_history_us",
        call_us(Name::SubscribeHistory),
        "us/call",
    );
    out.metric("adapt.invoke_us", call_us(Name::Invoke), "us/call");
    out.metric("adapt.snapshot_us", call_us(Name::Snapshot), "us/call");
    out.metric(
        "trace.overhead_ratio",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        "ratio",
    );
    reconcile(out, p, traced_wall.as_nanos() as u64);
    out.note(format!(
        "traced {steps} steps and {} adaptations in {:.3} s; untraced replay {:.3} s",
        tally.adaptations - adapt0,
        traced_wall.as_secs_f64(),
        plain_wall.as_secs_f64()
    ));
}
