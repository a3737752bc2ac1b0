//! Criterion bench: channel layer costs — logical-time bookkeeping and
//! data-tree assembly (the Fig. 4 machinery) at varying pipeline depth.

#![allow(clippy::unwrap_used)]
use std::any::Any;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpos_core::channel::{ChannelFeature, ChannelHost, ChannelId, DataTree};
use perpos_core::feature::FeatureDescriptor;
use perpos_core::prelude::*;

struct Consume(&'static str);
impl ChannelFeature for Consume {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(self.0)
    }
    fn apply(&mut self, tree: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        std::hint::black_box(tree.len());
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const FEATURE_NAMES: [&str; 4] = ["Consume0", "Consume1", "Consume2", "Consume3"];

/// The cheapest observer: demands every tree and ignores it.
struct Observer;
impl ChannelFeature for Observer {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new("Observer")
    }
    fn apply(&mut self, _tree: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn setup(depth: usize, features: usize) -> Middleware {
    let mut mw = Middleware::new();
    let mut i = 0i64;
    let src = mw.add_component(FnSource::new("src", kinds::RAW_STRING, move |_| {
        i += 1;
        Some(Value::Int(i))
    }));
    let mut prev = src;
    for d in 0..depth {
        let node = mw.add_component(FnProcessor::new(
            format!("stage{d}"),
            vec![kinds::RAW_STRING],
            kinds::RAW_STRING,
            |item| Some(item.payload.clone()),
        ));
        mw.connect(prev, node, 0).unwrap();
        prev = node;
    }
    let app = mw.application_sink();
    mw.connect(prev, app, 0).unwrap();
    let channel = mw.channel_into(app, 0).unwrap();
    for name in FEATURE_NAMES.iter().take(features) {
        mw.attach_channel_feature(channel, Consume(name)).unwrap();
    }
    mw
}

fn bench_tree_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_tree_by_depth");
    for depth in [1usize, 3, 6, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &d| {
            let mut mw = setup(d, 1);
            b.iter(|| {
                mw.step().unwrap();
                mw.advance_clock(SimDuration::from_micros(1));
            });
        });
    }
    group.finish();
}

/// Per-step cost at a fixed depth as the number of attached observing
/// features grows — 0 features exercises the undemanded fast path
/// (bookkeeping only), 1 measures tree assembly + one dispatch, 4 the
/// dispatch scaling. Paired with `channel_features_demanded`, which pins
/// the same sweep with an [`Observer`] demanding every channel from step
/// 0, so 0 features still assembles every tree.
fn bench_feature_counts(c: &mut Criterion) {
    for demanded in [false, true] {
        let name = if demanded { "demanded" } else { "undemanded" };
        let mut group = c.benchmark_group(format!("channel_features_{name}"));
        for features in [0usize, 1, 4] {
            group.bench_with_input(BenchmarkId::from_parameter(features), &features, |b, &f| {
                let mut mw = setup(8, f);
                if demanded {
                    let channels: Vec<ChannelId> = mw.channels().iter().map(|c| c.id).collect();
                    for channel in channels {
                        mw.attach_channel_feature(channel, Observer).unwrap();
                    }
                }
                b.iter(|| {
                    mw.step().unwrap();
                    mw.advance_clock(SimDuration::from_micros(1));
                });
            });
        }
        group.finish();
    }
}

fn bench_recompute(c: &mut Criterion) {
    // Channel derivation cost after a structural change.
    let mut group = c.benchmark_group("channel_recompute");
    for depth in [4usize, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &d| {
            b.iter_with_setup(
                || setup(d, 0),
                |mut mw| {
                    // attach_feature triggers a recompute.
                    let src = mw.graph().sources()[0];
                    mw.attach_feature(
                        src,
                        perpos_core::feature::TagFeature::new("T", "k", Value::Null),
                    )
                    .unwrap();
                    mw
                },
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tree_assembly,
    bench_feature_counts,
    bench_recompute
);
criterion_main!(benches);
