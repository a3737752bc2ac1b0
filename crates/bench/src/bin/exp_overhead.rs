//! Experiment "overhead" — the cost of translucency. The paper defers
//! performance to future work ("we plan to research how traditional
//! software qualities can be supported", §6); this experiment measures
//! what the reflective machinery costs per data item so the deferral can
//! be quantified: a direct function-call pipeline vs the processing graph
//! vs the graph with attached features vs full channel (data-tree)
//! bookkeeping.
//!
//! Run with: `cargo run -p perpos-bench --bin exp_overhead --release`

#![allow(clippy::unwrap_used)]
use std::any::Any;
use std::time::Instant;

use perpos_core::channel::{ChannelFeature, ChannelHost, DataTree};
use perpos_core::feature::{ComponentFeature, FeatureAction, FeatureDescriptor, FeatureHost};
use perpos_core::prelude::*;

const ITEMS: u64 = 200_000;

/// The workload: parse-ish transform of an integer payload, 3 stages.
fn direct_pipeline(n: u64) -> i64 {
    let mut acc = 0i64;
    for i in 0..n {
        // stage 1: "parse" (black_box defeats closed-form optimization)
        let v = std::hint::black_box(i as i64);
        // stage 2: "interpret"
        let v = std::hint::black_box(v * 2 + 1);
        // stage 3: "deliver"
        acc = acc.wrapping_add(std::hint::black_box(v));
    }
    acc
}

/// A pass-through feature; the index gives each stacked copy its own
/// name, since a node holds at most one feature of a name.
struct NoopFeature(usize);
impl ComponentFeature for NoopFeature {
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

struct NoopChannelFeature;
impl ChannelFeature for NoopChannelFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new("NoopChannel")
    }
    fn apply(&mut self, _t: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn graph_pipeline(n: u64, features_per_node: usize, channel_features: usize) -> f64 {
    let mut mw = Middleware::new();
    let mut i = 0i64;
    let src = mw.add_component(FnSource::new("src", kinds::RAW_STRING, move |_| {
        i += 1;
        Some(Value::Int(i))
    }));
    let parse = mw.add_component(FnProcessor::new(
        "parse",
        vec![kinds::RAW_STRING],
        kinds::NMEA_SENTENCE,
        |item| Some(item.payload.clone()),
    ));
    let interp = mw.add_component(FnProcessor::new(
        "interp",
        vec![kinds::NMEA_SENTENCE],
        kinds::POSITION_WGS84,
        |item| item.payload.as_i64().map(|v| Value::Int(v * 2 + 1).into()),
    ));
    let app = mw.application_sink();
    mw.connect(src, parse, 0).unwrap();
    mw.connect(parse, interp, 0).unwrap();
    mw.connect(interp, app, 0).unwrap();
    for node in [src, parse, interp] {
        for i in 0..features_per_node {
            mw.attach_feature(node, NoopFeature(i)).unwrap();
        }
    }
    if channel_features > 0 {
        let channel = mw.channel_into(app, 0).unwrap();
        for _ in 0..channel_features {
            mw.attach_channel_feature(channel, NoopChannelFeature)
                .unwrap();
        }
    }
    let start = Instant::now();
    for _ in 0..n {
        mw.step().unwrap();
        mw.advance_clock(SimDuration::from_micros(1));
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn main() {
    println!("=== translucency overhead: ns per item through a 3-stage pipeline ===\n");

    // Warm up and measure the direct version.
    let start = Instant::now();
    let sink = direct_pipeline(ITEMS * 10);
    let direct_ns = start.elapsed().as_nanos() as f64 / (ITEMS * 10) as f64;
    std::hint::black_box(sink);

    println!("{:<44} {:>10}", "configuration", "ns/item");
    println!("{}", "-".repeat(56));
    println!(
        "{:<44} {:>10.1}",
        "direct function calls (no middleware)", direct_ns
    );
    let base = graph_pipeline(ITEMS / 10, 0, 0);
    println!(
        "{:<44} {:>10.1}",
        "processing graph (reified, inspectable)", base
    );
    for nf in [1, 2, 4, 8] {
        let ns = graph_pipeline(ITEMS / 10, nf, 0);
        println!(
            "{:<44} {:>10.1}",
            format!("graph + {nf} component feature(s) per node"),
            ns
        );
    }
    let chan = graph_pipeline(ITEMS / 10, 0, 1);
    println!(
        "{:<44} {:>10.1}",
        "graph + channel data-tree bookkeeping", chan
    );
    let full = graph_pipeline(ITEMS / 10, 2, 1);
    println!(
        "{:<44} {:>10.1}",
        "graph + 2 features/node + channel trees", full
    );
    println!(
        "\n(the graph costs microseconds per item — orders of magnitude above raw calls but\n far below sensor rates: a 1 Hz GPS needs ~10 items/s, leaving 5+ orders of headroom)"
    );
}
