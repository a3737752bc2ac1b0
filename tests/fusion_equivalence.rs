//! Fused-track goldens for the Fig. 2/5/6 particle-filter fusion.
//!
//! The filter's wall test, its Likelihood read and the WiFi k-NN behind
//! its second input are performance-sensitive code with a bit-identity
//! contract: a faster implementation must produce exactly the fused
//! positions and sigmas the straightforward one produced. Each golden runs
//! a seeded 2-input `ParticleFilter` over hundreds of updates, hashes
//! every fused position and sigma as raw bits and compares the hash with
//! one recorded from the linear-scan, string-keyed implementation.
//!
//! A third test restores a Fig. 2 graph from a mid-run checkpoint and
//! requires the uninterrupted graph's fused track, bit for bit.
//!
//! The wall index and the dense radio map also have generated-input
//! equivalence properties next to their code (`perpos-model`'s
//! `wall_index` and `perpos-sensors`' `wifi` test modules).

#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::sync::Arc;

use perpos::core::component::{Component, ComponentCtx, ComponentDescriptor};
use perpos::fusion::{LikelihoodFeature, ParticleFilter};
use perpos::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fused(&mut self, item: &DataItem) {
        let p = item.position().unwrap();
        self.word(item.timestamp.as_micros());
        self.word(p.coord().lat_deg().to_bits());
        self.word(p.coord().lon_deg().to_bits());
        self.word(p.coord().alt_m().to_bits());
        self.word(p.accuracy_m().unwrap().to_bits());
    }
}

/// A closed walk through five offices of the demo floor, always through
/// the door gaps, so the wall constraint decides many particle moves.
fn office_walk() -> Trajectory {
    let corridor = 5.25;
    Trajectory::new(
        vec![
            Point2::new(2.5, 2.0),
            Point2::new(2.5, corridor),
            Point2::new(7.5, corridor),
            Point2::new(7.5, 8.5),
            Point2::new(7.5, corridor),
            Point2::new(12.5, corridor),
            Point2::new(12.5, 2.0),
            Point2::new(12.5, corridor),
            Point2::new(17.5, corridor),
            Point2::new(17.5, 8.5),
            Point2::new(17.5, corridor),
            Point2::new(2.5, corridor),
            Point2::new(2.5, 2.0),
        ],
        0.9,
    )
    .looping()
}

/// The Fig. 2 sensors: urban GPS and a WiFi scanner on the office walk.
fn fig2_sensors(building: &Arc<Building>) -> (GpsSimulator, WifiScanner) {
    let walk = office_walk();
    let env = Arc::new(WifiEnvironment::with_ap_per_room(Arc::clone(building), 0));
    (
        GpsSimulator::new("GPS", *building.frame(), walk.clone())
            .with_seed(13)
            .with_environment(GpsEnvironment::urban()),
        WifiScanner::new("WiFi", env, walk).with_seed(17),
    )
}

/// Fig. 2 wiring around `gps` and `wifi`: GPS → Parser (+HDOP) →
/// Interpreter and WiFi → WiFi positioning into a 2-input filter with
/// walls, the Likelihood Channel Feature on the GPS channel. Returns the
/// graph and a provider of the fused track, requested before any step.
fn fig2(
    building: &Arc<Building>,
    gps: Box<dyn Component>,
    wifi: Box<dyn Component>,
) -> (Middleware, LocationProvider) {
    let frame = *building.frame();
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(gps);
    let parser = mw.add_component(Parser::new());
    let interpreter = mw.add_component(Interpreter::new());
    mw.connect(gps, parser, 0).unwrap();
    mw.connect(parser, interpreter, 0).unwrap();
    mw.attach_feature(parser, HdopFeature::new()).unwrap();

    let env = Arc::new(WifiEnvironment::with_ap_per_room(Arc::clone(building), 0));
    let map = Arc::new(perpos::sensors::RadioMap::build(&env, 1.0));
    let wifi = mw.add_boxed_component(wifi);
    let wifi_pos = mw.add_component(WifiPositioning::new(map, Arc::clone(building)));
    mw.connect(wifi, wifi_pos, 0).unwrap();

    let likelihood = LikelihoodFeature::new();
    let pf = mw.add_component(
        ParticleFilter::new("PF", frame, 2)
            .with_seed(19)
            .with_particles(500)
            .with_building(Arc::clone(building), 0)
            .with_likelihood(likelihood.handle()),
    );
    let app = mw.application_sink();
    mw.connect(interpreter, pf, 0).unwrap();
    mw.connect(wifi_pos, pf, 1).unwrap();
    mw.connect(pf, app, 0).unwrap();
    let gps_channel = mw.channel_into(pf, 0).unwrap();
    mw.attach_channel_feature(gps_channel, likelihood).unwrap();
    let fused = mw
        .location_provider(Criteria::new().source("fusion"))
        .unwrap();
    (mw, fused)
}

fn run(mw: &mut Middleware, steps: u32) {
    for _ in 0..steps {
        mw.step().unwrap();
        mw.advance_clock(SimDuration::from_secs(1));
    }
}

/// Steps the Fig. 2 graph for `steps` simulated seconds and hashes every
/// fused output.
fn fig2_track_hash(steps: u32) -> (usize, u64) {
    let building = Arc::new(demo_building());
    let (gps, wifi) = fig2_sensors(&building);
    let (mut mw, fused) = fig2(&building, Box::new(gps), Box::new(wifi));
    run(&mut mw, steps);
    let history = fused.history();
    let mut h = Fnv::new();
    for item in &history {
        h.fused(item);
    }
    (history.len(), h.0)
}

#[test]
fn fig2_fused_track_matches_the_linear_scan_golden() {
    let (updates, hash) = fig2_track_hash(320);
    assert!(updates >= 300, "only {updates} fused positions");
    assert_eq!(
        (updates, hash),
        (619, 0xe0af_d1b7_efcf_8982),
        "fused track changed: got ({updates}, {hash:#018x})"
    );
}

/// The filter without a Likelihood handle weights by each measurement's
/// own accuracy. Drives both input ports directly with seeded noisy
/// measurements around the office walk.
#[test]
fn accuracy_weighted_track_matches_the_linear_scan_golden() {
    let building = Arc::new(demo_building());
    let frame = *building.frame();
    let walk = office_walk();
    let mut pf = ParticleFilter::new("PF", frame, 2)
        .with_seed(23)
        .with_particles(400)
        .with_building(building, 0);
    let mut rng = StdRng::seed_from_u64(29);
    let mut h = Fnv::new();
    let mut updates = 0usize;
    for step in 0..200u64 {
        for port in 0..2 {
            let t = SimTime::from_secs_f64(step as f64 + 0.5 * port as f64);
            let truth = walk.position_at(t);
            let (noise, accuracy) = if port == 0 { (6.0, 8.0) } else { (2.5, 3.0) };
            let measured = Point2::new(
                truth.x + rng.gen_range(-noise..noise),
                truth.y + rng.gen_range(-noise..noise),
            );
            let item = DataItem::new(
                kinds::POSITION_WGS84,
                t,
                Value::from(Position::new(frame.from_local(&measured), Some(accuracy))),
            );
            let mut ctx = ComponentCtx::new(t);
            pf.on_input(port, item, &mut ctx).unwrap();
            for out in ctx.take_emitted() {
                h.fused(&out);
                updates += 1;
            }
        }
    }
    assert_eq!(
        (updates, h.0),
        (400, 0x925f_0e06_c3d2_1663),
        "fused track changed: got ({updates}, {:#018x})",
        h.0
    );
}

/// What a sensor emitted at each simulated second of a run of its own.
type Recording = Arc<BTreeMap<SimTime, Vec<DataItem>>>;

fn record(sensor: &mut dyn Component, steps: u32) -> Recording {
    let mut at = BTreeMap::new();
    for step in 0..steps {
        let now = SimTime::from_secs_f64(f64::from(step));
        let mut ctx = ComponentCtx::new(now);
        sensor.on_tick(&mut ctx).unwrap();
        at.insert(now, ctx.take_emitted());
    }
    Arc::new(at)
}

/// A source that emits, at each step, what a recorded sensor emitted at
/// that simulated time. It keeps no state, so a restored graph resumes
/// the sensor's output at its restored clock (the simulators restart
/// their noise from the seed instead), and the restore test below checks
/// the processing chain's state only.
#[derive(Clone)]
struct Replay {
    descriptor: ComponentDescriptor,
    at: Recording,
}

impl Replay {
    fn of(mut sensor: impl Component, steps: u32) -> Self {
        let descriptor = sensor.descriptor();
        let provides = descriptor.output.map(|o| o.provides).unwrap_or_default();
        Replay {
            descriptor: ComponentDescriptor::source(descriptor.name, provides),
            at: record(&mut sensor, steps),
        }
    }
}

impl Component for Replay {
    fn descriptor(&self) -> ComponentDescriptor {
        self.descriptor.clone()
    }

    fn on_input(
        &mut self,
        _port: usize,
        _item: DataItem,
        _ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }

    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        for item in self.at.get(&ctx.now()).into_iter().flatten() {
            ctx.emit(item.clone());
        }
        Ok(())
    }
}

/// The fused outputs at or after `from`, as raw bits.
fn fused_bits(fused: &LocationProvider, from: SimTime) -> Vec<[u64; 5]> {
    fused
        .history()
        .iter()
        .filter(|item| item.timestamp >= from)
        .map(|item| {
            let p = item.position().unwrap();
            [
                item.timestamp.as_micros(),
                p.coord().lat_deg().to_bits(),
                p.coord().lon_deg().to_bits(),
                p.coord().alt_m().to_bits(),
                p.accuracy_m().unwrap().to_bits(),
            ]
        })
        .collect()
}

/// Restore-then-step ≡ uninterrupted for the Fig. 2 graph: a graph
/// restored from a checkpoint taken after 60 steps, then stepped 90 more,
/// fuses exactly the track an uninterrupted graph fuses over those 90
/// steps. The particles, the filter's random generator and the
/// Likelihood window all travel in the checkpoint.
#[test]
fn restored_fig2_filter_continues_the_uninterrupted_track() {
    const CUT: u32 = 60;
    const STEPS: u32 = 150;
    let building = Arc::new(demo_building());
    let (gps, wifi) = fig2_sensors(&building);
    let (gps, wifi) = (Replay::of(gps, STEPS), Replay::of(wifi, STEPS));
    let build = || fig2(&building, Box::new(gps.clone()), Box::new(wifi.clone()));

    let (mut uninterrupted, track) = build();
    run(&mut uninterrupted, STEPS);
    let (mut original, _) = build();
    run(&mut original, CUT);
    let checkpoint = original.snapshot();
    let (mut restored, restored_track) = build();
    restored.restore(&checkpoint).unwrap();
    run(&mut restored, STEPS - CUT);

    let cut = SimTime::from_secs_f64(f64::from(CUT));
    let expected = fused_bits(&track, cut);
    assert!(
        expected.len() >= 150,
        "only {} fused outputs",
        expected.len()
    );
    let got = fused_bits(&restored_track, cut);
    let diverged = got.iter().zip(&expected).position(|(a, b)| a != b);
    assert!(
        got == expected,
        "restored track diverges at output {diverged:?}: {} outputs against {}",
        got.len(),
        expected.len()
    );
}
