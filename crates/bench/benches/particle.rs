//! Criterion bench: particle-filter update cost vs particle count (the
//! knob the paper's probabilistic tracking example exposes), and the
//! wall index behind the filter's motion constraint: its build on the
//! demo floor (paid by every graph that constrains a filter) and one
//! wall test per particle-sized move.

#![allow(clippy::unwrap_used)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpos_core::component::ComponentCtxProbe;
use perpos_core::prelude::*;
use perpos_fusion::ParticleFilter;
use perpos_geo::{LocalFrame, Point2, Vec2, Wgs84};
use perpos_model::WallIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn frame() -> LocalFrame {
    LocalFrame::new(Wgs84::new(56.17, 10.19, 0.0).unwrap())
}

fn measurement(f: &LocalFrame, p: Point2, t: f64) -> DataItem {
    DataItem::new(
        kinds::POSITION_WGS84,
        SimTime::from_secs_f64(t),
        Value::from(Position::new(f.from_local(&p), Some(8.0))),
    )
}

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("pf_update_by_particles");
    for n in [100usize, 500, 1000, 5000, 10000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let f = frame();
            let mut pf = ParticleFilter::new("pf", f, 1)
                .with_seed(1)
                .with_particles(n);
            // Initialize.
            ComponentCtxProbe::run_input(&mut pf, measurement(&f, Point2::new(0.0, 0.0), 0.0))
                .unwrap();
            let mut t = 1.0;
            b.iter(|| {
                let item = measurement(&f, Point2::new(t, 0.0), t);
                t += 1.0;
                ComponentCtxProbe::run_input(&mut pf, item).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_constrained_update(c: &mut Criterion) {
    let building = std::sync::Arc::new(perpos_model::demo_building());
    let mut group = c.benchmark_group("pf_update_constrained");
    for n in [500usize, 2000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let f = frame();
            let mut pf = ParticleFilter::new("pf", f, 1)
                .with_seed(1)
                .with_particles(n)
                .with_building(std::sync::Arc::clone(&building), 0);
            ComponentCtxProbe::run_input(&mut pf, measurement(&f, Point2::new(10.0, 5.0), 0.0))
                .unwrap();
            let mut t = 1.0;
            b.iter(|| {
                let item = measurement(&f, Point2::new(10.0 + (t % 5.0), 5.0), t);
                t += 1.0;
                ComponentCtxProbe::run_input(&mut pf, item).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_wall_index(c: &mut Criterion) {
    let floor = perpos_model::demo_building()
        .floor(0)
        .cloned()
        .expect("demo ground floor");
    let mut group = c.benchmark_group("wall_index");
    group.bench_function("new/demo_floor", |b| {
        b.iter(|| WallIndex::new(criterion::black_box(&floor)))
    });
    // Moves as the filter proposes them: anywhere on the 20 m × 10.5 m
    // floor, up to 1.5 m in a random direction.
    let index = WallIndex::new(&floor);
    let mut rng = StdRng::seed_from_u64(11);
    let moves: Vec<(Point2, Point2)> = (0..4096)
        .map(|_| {
            let from = Point2::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..10.5));
            let step = rng.gen_range(0.0..1.5);
            let heading = rng.gen_range(0.0..360.0);
            (from, from + Vec2::from_heading_deg(heading) * step)
        })
        .collect();
    let mut i = 0;
    group.bench_function("path_blocked/particle_moves", |b| {
        b.iter(|| {
            let (from, to) = moves[i % moves.len()];
            i += 1;
            index.path_blocked(from, to)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_update,
    bench_constrained_update,
    bench_wall_index
);
criterion_main!(benches);
