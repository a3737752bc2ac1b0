//! Criterion bench: per-item cost of attached Component Features
//! (interception overhead, the price of the paper's extension model).

#![allow(clippy::unwrap_used)]
use std::any::Any;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpos_core::feature::{ComponentFeature, FeatureAction, FeatureDescriptor, FeatureHost};
use perpos_core::prelude::*;

struct Noop(usize);
impl ComponentFeature for Noop {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(format!("Noop{}", self.0))
    }
    fn on_produce(
        &mut self,
        item: DataItem,
        _h: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        Ok(FeatureAction::Continue(item))
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Tagging(usize);
impl ComponentFeature for Tagging {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(format!("Tagging{}", self.0))
    }
    fn on_produce(
        &mut self,
        mut item: DataItem,
        _h: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        item.attrs.insert("tag", Value::Int(1));
        Ok(FeatureAction::Continue(item))
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn setup(features: usize, tagging: bool) -> Middleware {
    let mut mw = Middleware::new();
    let mut i = 0i64;
    let src = mw.add_component(FnSource::new("src", kinds::RAW_STRING, move |_| {
        i += 1;
        Some(Value::Int(i))
    }));
    // Each stacked copy gets its own name: a node holds at most one
    // feature of a name.
    for i in 0..features {
        if tagging {
            mw.attach_feature(src, Tagging(i)).unwrap();
        } else {
            mw.attach_feature(src, Noop(i)).unwrap();
        }
    }
    let app = mw.application_sink();
    mw.connect(src, app, 0).unwrap();
    mw
}

fn bench_noop_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("noop_features_per_item");
    for n in [0usize, 1, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut mw = setup(n, false);
            b.iter(|| {
                mw.step().unwrap();
                mw.advance_clock(SimDuration::from_micros(1));
            });
        });
    }
    group.finish();
}

fn bench_tagging_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("tagging_features_per_item");
    for n in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut mw = setup(n, true);
            b.iter(|| {
                mw.step().unwrap();
                mw.advance_clock(SimDuration::from_micros(1));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_noop_features, bench_tagging_features);
criterion_main!(benches);
