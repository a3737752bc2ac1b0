//! Fused-track goldens for the Fig. 2/5/6 particle-filter fusion.
//!
//! The filter's wall test, its Likelihood read and the WiFi k-NN behind
//! its second input are performance-sensitive code with a bit-identity
//! contract: a faster implementation must produce exactly the fused
//! positions and sigmas the straightforward one produced. Each test runs
//! a seeded 2-input `ParticleFilter` over hundreds of updates, hashes
//! every fused position and sigma as raw bits and compares the hash with
//! one recorded from the linear-scan, string-keyed implementation.
//!
//! The wall index and the dense radio map also have generated-input
//! equivalence properties next to their code (`perpos-model`'s
//! `wall_index` and `perpos-sensors`' `wifi` test modules).

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use perpos::core::component::{Component, ComponentCtx};
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

/// Fig. 2 wiring: GPS → Parser (+HDOP) → Interpreter and WiFi scanner →
/// WiFi positioning into a 2-input filter with walls, the Likelihood
/// Channel Feature on the GPS channel. Steps the graph for `steps`
/// simulated seconds and hashes every fused output.
fn fig2_track_hash(steps: u32) -> (usize, u64) {
    let building = Arc::new(demo_building());
    let frame = *building.frame();
    let walk = office_walk();
    let mut mw = Middleware::new();
    let gps = mw.add_component(
        GpsSimulator::new("GPS", frame, walk.clone())
            .with_seed(13)
            .with_environment(GpsEnvironment::urban()),
    );
    let parser = mw.add_component(Parser::new());
    let interpreter = mw.add_component(Interpreter::new());
    mw.connect(gps, parser, 0).unwrap();
    mw.connect(parser, interpreter, 0).unwrap();
    mw.attach_feature(parser, HdopFeature::new()).unwrap();

    let env = Arc::new(WifiEnvironment::with_ap_per_room(Arc::clone(&building), 0));
    let map = Arc::new(perpos::sensors::RadioMap::build(&env, 1.0));
    let wifi = mw.add_component(WifiScanner::new("WiFi", env, walk).with_seed(17));
    let wifi_pos = mw.add_component(WifiPositioning::new(map, Arc::clone(&building)));
    mw.connect(wifi, wifi_pos, 0).unwrap();

    let likelihood = LikelihoodFeature::new();
    let pf = mw.add_component(
        ParticleFilter::new("PF", frame, 2)
            .with_seed(19)
            .with_particles(500)
            .with_building(Arc::clone(&building), 0)
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

    for _ in 0..steps {
        mw.step().unwrap();
        mw.advance_clock(SimDuration::from_secs(1));
    }
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
