//! Experiment "channel" — undemanded vs demanded data-tree
//! materialization.
//!
//! The channel layer's Fig. 4 machinery historically built a [`DataTree`]
//! for every channel output whether or not anything observed it. A
//! channel now only materializes trees while a Channel Feature is
//! attached or a history subscription is active; the logical-time
//! bookkeeping always runs, so demand can flip mid-run without perturbing
//! later trees. This sweep measures what skipping undemanded trees saves:
//! items per second through one pipeline of depth D with F attached
//! features, with every channel either left undemanded (beyond its
//! features) or demanded from step 0 by a no-op observing feature,
//! driven through the batched stepping entry (`Middleware::step_batch`).
//!
//! Run with: `cargo run -p perpos-bench --bin exp_channel --release`
//! (pass `--smoke` for the reduced CI sweep, which fails if the
//! featureless undemanded path costs more than 0.8x demanded at a depth
//! of 16 or more, or if the demanded path regressed more than 20 %
//! against the committed `BENCH_channel.json` baseline — both compared
//! as calibrated cost, i.e. step time divided by the time of a fixed
//! integer kernel measured in the same process, so the guard tolerates
//! machine-speed drift).
//!
//! The full sweep (re)writes `BENCH_channel.json`; the smoke sweep only
//! reads it.

#![allow(clippy::unwrap_used)]
use std::any::Any;
use std::time::Instant;

use perpos_core::channel::{ChannelFeature, ChannelHost, ChannelId, DataTree};
use perpos_core::feature::FeatureDescriptor;
use perpos_core::prelude::*;
use perpos_sensors::codec::scan_block;

/// How items enter the pipeline: `item` ticks the source once per step
/// (`Middleware::step_batch`); `block` lexes pre-captured NMEA blocks
/// through `scan_block` and injects every line in one
/// `Middleware::ingest_batch` call, one logical step per line.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ingest {
    Item,
    Block,
}

impl Ingest {
    fn as_str(self) -> &'static str {
        match self {
            Ingest::Item => "item",
            Ingest::Block => "block",
        }
    }
}

/// Lines per ingest block: sized like a sentence-burst read from a
/// serial GPS, and dividing both sweep step counts evenly.
const BLOCK_LINES: usize = 250;

/// Calibrated step cost (us_per_step / calib_us) of the seed data
/// plane at depth 4, features 0, undemanded, item ingest — the committed
/// `BENCH_channel.json` before the arena/block-ingest refactor
/// (0.8041 µs at calib 2061.142 µs, i.e. 1.24 M items/s). The smoke
/// guard pins block ingest at >= 2x this throughput forever, in
/// calibrated units so the check survives machine-speed drift.
const SEED_DEPTH4_COST: f64 = 0.8041 / 2061.142;

/// A minimal observing feature: creates demand and touches every tree.
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

/// Whether every channel is demanded from step 0, beyond whatever
/// features are attached.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Demand {
    Undemanded,
    Demanded,
}

impl Demand {
    fn as_str(self) -> &'static str {
        match self {
            Demand::Undemanded => "undemanded",
            Demand::Demanded => "demanded",
        }
    }
}

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

/// Demands every channel through the public API by attaching an
/// [`Observer`] to it.
fn demand_every_channel(mw: &mut Middleware) {
    let channels: Vec<ChannelId> = mw.channels().iter().map(|c| c.id).collect();
    for channel in channels {
        mw.attach_channel_feature(channel, Observer).unwrap();
    }
}

/// One pipeline of `depth` pass-through processors delivering to the
/// application sink, with `features` observing Channel Features attached
/// to the delivering channel. Processors are trivial on purpose: the
/// experiment times the channel layer, not component work.
fn build(depth: usize, features: usize) -> (Middleware, NodeId) {
    let mut mw = Middleware::new();
    let mut i = 0i64;
    let src = mw.add_component(FnSource::new("src", kinds::RAW_STRING, move |_| {
        i += 1;
        // A realistic raw payload: channel members hand sentence-sized
        // strings down the pipeline, as a GPS source would.
        Some(Value::Text(format!(
            "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,{i:04}"
        )))
    }));
    let mut prev = src;
    for d in 0..depth {
        // A relay moves the payload handle through without cloning it:
        // the hop cost measured here is the channel layer's, not an
        // artificial per-stage refcount round-trip.
        let node = mw.add_component(FnRelay::new(
            format!("stage{d}"),
            vec![kinds::RAW_STRING],
            kinds::RAW_STRING,
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
    (mw, src)
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Sample {
    depth: u64,
    features: u64,
    demand: String,
    ingest: String,
    us_per_step: f64,
    items_per_sec: f64,
    materialized: u64,
    skipped: u64,
    dropped: u64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Doc {
    experiment: String,
    cores: u64,
    steps: u64,
    /// Microseconds of the fixed calibration kernel on this machine;
    /// guard comparisons divide step times by this to cancel CPU drift.
    calib_us: f64,
    results: Vec<Sample>,
}

/// Fixed deterministic integer kernel used to normalize step times
/// across machines of different speed.
fn calibrate_once() -> f64 {
    let start = Instant::now();
    let mut v = 0x9e3779b97f4a7c15u64;
    for _ in 0..2_000_000 {
        v = std::hint::black_box(v.wrapping_mul(6_364_136_223_846_793_005).rotate_left(17));
    }
    std::hint::black_box(v);
    start.elapsed().as_nanos() as f64 / 1e3
}

fn calibrate() -> f64 {
    (0..3).fold(f64::INFINITY, |best, _| best.min(calibrate_once()))
}

/// Calibrated cost (step µs over kernel µs) of the depth-4 featureless
/// undemanded block-ingest guard cell, measured against *bracketing* kernel
/// passes: each ingest pass is framed by calibration kernels, its ratio
/// uses the faster of the two frames, and the smallest ratio across
/// passes wins. The faster frame keeps a transiently slowed kernel from
/// overstating the speedup (the frames vote, the quiet one decides);
/// the min across passes discards passes where the transient hit the
/// ingest half instead. Only a load spike spanning both frames but
/// sparing the pass between them — nothing a real regression produces —
/// can still flatter the estimate.
fn guard_block_cost() -> f64 {
    let steps = 100_000;
    let (mut mw, src) = build(4, 0);
    let tick = SimDuration::from_micros(1);
    let warmup = render_blocks(steps / 10);
    let blocks = render_blocks(steps);
    ingest_blocks(&mut mw, src, &warmup, tick);
    let mut best = f64::INFINITY;
    let mut frame = calibrate_once();
    for _ in 0..5 {
        let us = ingest_blocks(&mut mw, src, &blocks, tick);
        let next = calibrate_once();
        best = best.min(us / frame.min(next));
        frame = next;
    }
    best
}

/// Pre-renders `steps` NMEA sentences chunked into newline-joined
/// blocks of [`BLOCK_LINES`], modeling sentence bursts arriving from a
/// capture file or serial reader. Generation happens outside the timed
/// region; the timed region is lex + ingest only.
fn render_blocks(steps: u64) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut block = String::new();
    for i in 0..steps {
        block.push_str("$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,");
        block.push_str(&format!("{:04}\n", i + 1));
        if (i + 1) % BLOCK_LINES as u64 == 0 {
            blocks.push(std::mem::take(&mut block));
        }
    }
    if !block.is_empty() {
        blocks.push(block);
    }
    blocks
}

/// Runs `steps` items through the pipeline via block ingest and
/// returns the elapsed microseconds per item.
fn ingest_blocks(mw: &mut Middleware, src: NodeId, blocks: &[String], tick: SimDuration) -> f64 {
    let mut buf: Vec<&str> = Vec::with_capacity(BLOCK_LINES);
    let mut total = 0u64;
    let start = Instant::now();
    for block in blocks {
        let report = scan_block(block, &mut buf);
        assert_eq!(report.skipped, 0, "bench blocks are clean by construction");
        total += mw
            .ingest_batch(src, kinds::RAW_STRING, &buf, tick)
            .unwrap();
    }
    start.elapsed().as_micros() as f64 / total as f64
}

fn measure(depth: usize, features: usize, demand: Demand, steps: u64, ingest: Ingest) -> Sample {
    let (mut mw, src) = build(depth, features);
    if demand == Demand::Demanded {
        demand_every_channel(&mut mw);
    }
    let tick = SimDuration::from_micros(1);
    // Best-of-3: interference from other processes only ever adds time,
    // so the minimum is the faithful estimate on a noisy machine.
    let mut best = f64::INFINITY;
    match ingest {
        Ingest::Item => {
            mw.step_batch(steps / 10, tick).unwrap();
            for _ in 0..3 {
                let start = Instant::now();
                mw.step_batch(steps, tick).unwrap();
                let us = start.elapsed().as_micros() as f64 / steps as f64;
                best = best.min(us);
            }
        }
        Ingest::Block => {
            let warmup = render_blocks(steps / 10);
            let blocks = render_blocks(steps);
            ingest_blocks(&mut mw, src, &warmup, tick);
            for _ in 0..3 {
                best = best.min(ingest_blocks(&mut mw, src, &blocks, tick));
            }
        }
    }
    let us = best;
    if std::env::var_os("EXP_CHANNEL_QUICK").is_some() {
        eprintln!("    arena: {:?}", mw.arena_stats());
    }
    let app = mw.application_sink();
    let channel = mw.channel_into(app, 0).unwrap();
    let stats = mw.channel_stats(channel).unwrap();
    Sample {
        depth: depth as u64,
        features: features as u64,
        demand: demand.as_str().to_string(),
        ingest: ingest.as_str().to_string(),
        us_per_step: us,
        // One item enters the pipeline per step.
        items_per_sec: 1e6 / us,
        materialized: stats.materialized,
        skipped: stats.skipped,
        dropped: stats.dropped,
    }
}

fn find<'a>(
    samples: &'a [Sample],
    depth: u64,
    features: u64,
    demand: &str,
    ingest: &str,
) -> Option<&'a Sample> {
    samples.iter().find(|s| {
        s.depth == depth && s.features == features && s.demand == demand && s.ingest == ingest
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Dev aid: EXP_CHANNEL_QUICK=1 measures only the depth-4
    // featureless row pair, skipping guards and the baseline write.
    let quick = std::env::var_os("EXP_CHANNEL_QUICK").is_some();
    let steps: u64 = if smoke { 20_000 } else { 100_000 };
    let depths: &[usize] = if quick {
        &[4]
    } else if smoke {
        &[4, 16]
    } else {
        &[4, 16, 32]
    };
    let feature_counts: &[usize] = if smoke || quick { &[0] } else { &[0, 1, 4] };
    let calib_us = calibrate();

    println!("=== channel: undemanded vs demanded tree materialization ({cores} core(s)) ===\n");
    println!(
        "{:>6} {:>9} {:>10} {:>7} {:>12} {:>14} {:>13} {:>9}",
        "depth", "features", "demand", "ingest", "step µs", "items/s", "materialized", "skipped"
    );
    println!("{}", "-".repeat(87));

    let mut samples = Vec::new();
    for &depth in depths {
        for &features in feature_counts {
            for demand in [Demand::Undemanded, Demand::Demanded] {
                for ingest in [Ingest::Item, Ingest::Block] {
                    let s = measure(depth, features, demand, steps, ingest);
                    println!(
                        "{:>6} {:>9} {:>10} {:>7} {:>12.2} {:>14.0} {:>13} {:>9}",
                        s.depth,
                        s.features,
                        s.demand,
                        s.ingest,
                        s.us_per_step,
                        s.items_per_sec,
                        s.materialized,
                        s.skipped
                    );
                    samples.push(s);
                }
            }
        }
    }

    if quick {
        return;
    }

    // Guard 1: at depth >= 16 with no features the undemanded path must
    // be clearly cheaper than demanded — at most 0.8x the step cost.
    let guard_depth = *depths.iter().max().unwrap() as u64;
    let undemanded = find(&samples, guard_depth, 0, "undemanded", "item").unwrap();
    let demanded = find(&samples, guard_depth, 0, "demanded", "item").unwrap();
    let ratio = undemanded.us_per_step / demanded.us_per_step;
    println!(
        "\nfeatureless depth-{guard_depth}: undemanded/demanded step cost = {ratio:.3} \
         (limit 0.80), undemanded speed-up = {:.2}x items/s",
        demanded.us_per_step / undemanded.us_per_step
    );

    // Guard 3 input: block ingest at depth 4 against the pinned seed
    // baseline (pre-arena data plane), in calibrated units. The sweep's
    // samples share one up-front calibration, which is too noisy to
    // gate on — the guard cell is re-measured with paired calibration.
    let block_speedup = SEED_DEPTH4_COST / guard_block_cost();
    println!(
        "depth-4 featureless undemanded block ingest = {block_speedup:.2}x the seed item baseline \
         (target >= 2.00x)"
    );

    if smoke {
        if ratio > 0.80 {
            eprintln!("FAIL: skipping undemanded trees no longer pays for itself");
            std::process::exit(1);
        }
        // Guard 2: the demanded path must not regress more than 20 %
        // against the committed baseline, comparing calibrated cost so
        // the check survives slower or faster CI machines.
        match std::fs::read_to_string("BENCH_channel.json") {
            Ok(text) => {
                let baseline: Doc = serde_json::from_str(&text).unwrap();
                let base = find(&baseline.results, guard_depth, 0, "demanded", "item")
                    .expect("baseline misses the guard configuration");
                let base_cost = base.us_per_step / baseline.calib_us;
                let now_cost = demanded.us_per_step / calib_us;
                let drift = now_cost / base_cost;
                println!("demanded calibrated cost vs baseline = {drift:.3} (limit 1.20)");
                if drift > 1.20 {
                    eprintln!("FAIL: demanded tree assembly regressed against BENCH_channel.json");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("FAIL: no committed BENCH_channel.json baseline to compare ({e})");
                std::process::exit(1);
            }
        }
        // Guard 3: block ingest must hold >= 2x the seed data plane's
        // depth-4 throughput (the refactor's acceptance bar), pinned
        // against SEED_DEPTH4_COST rather than the rolling baseline so
        // later baseline refreshes cannot relax it.
        if block_speedup < 2.0 {
            eprintln!("FAIL: block ingest below 2x the seed depth-4 baseline");
            std::process::exit(1);
        }
        return;
    }

    let doc = Doc {
        experiment: "channel".to_string(),
        cores: cores as u64,
        steps,
        calib_us,
        results: samples,
    };
    std::fs::write(
        "BENCH_channel.json",
        serde_json::to_string_pretty(&doc).unwrap() + "\n",
    )
    .unwrap();
    println!("wrote BENCH_channel.json");
}
