//! Channel-layer equivalence suite: a channel builds a tree only while
//! something demands it (a Channel Feature or a history subscription),
//! and that must be a pure performance matter. Because an undemanded
//! channel still runs every piece of logical-time bookkeeping (it only
//! skips tree assembly and history pushes), attaching a Channel Feature
//! or a history subscription *mid-run* must yield byte-identical trees
//! to a process whose channels were demanded from step 0 — with and
//! without injected faults in flight. Both runs must also match golden
//! hashes of the plain-`Arc` data plane, so the payload recycler stays
//! invisible. The suite also pins the companion contracts of this layer:
//! batched stepping equals the manual step loop and drop counters
//! surface through reflection.

#![allow(clippy::unwrap_used)]
use std::any::Any;

use perpos::core::channel::{ChannelFeature, ChannelHost, ChannelId, DataTree, LEVEL_BUFFER_CAP};
use perpos::prelude::*;

/// Records the rendered form of every tree it observes — the byte-level
/// observable the laziness contract is stated over.
#[derive(Default)]
struct TreeLog {
    rendered: Vec<String>,
}

impl TreeLog {
    const NAME: &'static str = "TreeLog";
}

impl ChannelFeature for TreeLog {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME)
    }
    fn apply(&mut self, tree: &DataTree, _host: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        self.rendered.push(tree.render());
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn source(name: &str, stride: i64) -> impl Component {
    let mut i = 0i64;
    FnSource::new(name.to_string(), kinds::RAW_STRING, move |_| {
        i += stride;
        Some(Value::Int(i))
    })
}

fn stage(name: &str, mut f: impl FnMut(i64) -> i64 + Send + 'static) -> impl Component {
    FnProcessor::new(
        name.to_string(),
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
        move |item| item.payload.as_i64().map(|v| Value::Int(f(v)).into()),
    )
}

/// Everything the laziness contract quantifies over. Materialization
/// counters are deliberately absent: undemanded and demanded runs *must*
/// differ there (that difference is the point); outputs, drops, trees,
/// history and health must not.
#[derive(Debug, PartialEq)]
struct Observed {
    trees: Vec<Vec<String>>,
    history: Vec<String>,
    outputs: u64,
    dropped: u64,
    health: Vec<String>,
    steps: u64,
}

/// Runs the shared two-branch scenario in two phases: 100 steps, then a
/// mid-run [`TreeLog`] attach plus a history subscription, then 100
/// more steps. Without `demanded_from_start` phase one skips
/// materialization entirely; everything observed in phase two must be
/// byte-identical to a run whose every channel was demanded from step 0.
fn run_scenario(demanded_from_start: bool, faulty: bool) -> Observed {
    let tick = SimDuration::from_millis(100);
    let mut mw = Middleware::new();
    let src_a = mw.add_component(source("src-a", 1));
    let pa1 = mw.add_component(stage("pa1", |v| v * 2));
    let pa2 = mw.add_component(stage("pa2", |v| v + 3));
    let src_b = mw.add_component(source("src-b", 10));
    let pb1 = mw.add_component(stage("pb1", |v| v - 1));
    let app = mw.application_sink();
    mw.connect(src_a, pa1, 0).unwrap();
    mw.connect(pa1, pa2, 0).unwrap();
    mw.connect_to_sink(pa2, app).unwrap();
    mw.connect(src_b, pb1, 0).unwrap();
    mw.connect_to_sink(pb1, app).unwrap();

    if faulty {
        mw.attach_feature(
            pa1,
            FaultInjector::with_seed(42)
                .with_panic_rate(0.15)
                .with_error_rate(0.15),
        )
        .unwrap();
        mw.set_fault_policy(pa1, FaultPolicy::DropItem).unwrap();
        mw.attach_feature(pb1, FaultInjector::with_seed(7).with_panic_rate(0.3))
            .unwrap();
        mw.set_fault_policy(pb1, FaultPolicy::quarantine_default())
            .unwrap();
    }

    let channels: Vec<ChannelId> = mw.channels().iter().map(|c| c.id).collect();
    if demanded_from_start {
        for &ch in &channels {
            mw.subscribe_channel_history(ch, 16).unwrap();
        }
    }
    // Phase 1: unless demanded from the start, no features and no
    // subscriptions — nothing demands trees.
    mw.step_batch(100, tick).unwrap();

    // Phase 2: demand flips mid-run.
    for &ch in &channels {
        mw.attach_channel_feature(ch, TreeLog::default()).unwrap();
    }
    mw.subscribe_channel_history(channels[0], 16).unwrap();
    mw.step_batch(100, tick).unwrap();

    let trees = channels
        .iter()
        .map(|&ch| {
            mw.with_channel_feature_mut(ch, TreeLog::NAME, |log: &mut TreeLog| log.rendered.clone())
                .unwrap()
        })
        .collect();
    let history = mw
        .channel_history(channels[0])
        .unwrap()
        .iter()
        .map(DataTree::render)
        .collect();
    let (mut outputs, mut dropped) = (0, 0);
    for &ch in &channels {
        let stats = mw.channel_stats(ch).unwrap();
        outputs += stats.outputs;
        dropped += stats.dropped;
    }
    let health = mw
        .structure()
        .iter()
        .map(|n| format!("{}: {:?}", n.descriptor.name, mw.node_health(n.id)))
        .collect();
    Observed {
        trees,
        history,
        outputs,
        dropped,
        health,
        steps: mw.steps_run(),
    }
}

#[test]
fn mid_run_attach_yields_identical_trees_lazy_vs_eager() {
    let eager = run_scenario(true, false);
    let lazy = run_scenario(false, false);
    assert!(
        eager.trees.iter().all(|t| !t.is_empty()),
        "every channel must derive phase-two trees: {eager:?}"
    );
    assert!(!eager.history.is_empty());
    assert_eq!(eager, lazy);
}

#[test]
fn mid_run_attach_equivalence_holds_under_injected_faults() {
    let eager = run_scenario(true, true);
    let lazy = run_scenario(false, true);
    let faults = eager.health.iter().filter(|h| !h.contains("faults: 0"));
    assert!(
        faults.count() >= 2,
        "both injectors must have fired: {:?}",
        eager.health
    );
    assert_eq!(eager, lazy);
}

/// FNV-1a over a string: a hash that is stable across toolchains.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn arena_interning_is_observationally_invisible() {
    // The payload recycler is a pure allocation strategy: every
    // observable — trees, history, stats, health — must hash exactly as
    // the plain-`Arc` data plane did (every emission allocated fresh),
    // whether or not the channels were demanded from the start, and with
    // faults in flight. The goldens were recorded from that plain
    // representation before the recycler replaced it.
    for (faulty, golden) in [
        (false, 0x05ec_f509_07a8_d763),
        (true, 0xc37e_9956_b873_0785),
    ] {
        for demanded_from_start in [true, false] {
            let observed = run_scenario(demanded_from_start, faulty);
            assert_eq!(
                fnv(&format!("{observed:?}")),
                golden,
                "divergence from the plain-Arc golden at \
                 demanded_from_start={demanded_from_start} faulty={faulty}"
            );
        }
    }
}

#[test]
fn step_batch_equals_manual_step_loop() {
    let observe = |batched: bool| {
        let tick = SimDuration::from_millis(100);
        let mut mw = Middleware::new();
        let src = mw.add_component(source("src", 1));
        let p = mw.add_component(stage("p", |v| v * 3));
        let app = mw.application_sink();
        mw.connect(src, p, 0).unwrap();
        mw.connect_to_sink(p, app).unwrap();
        let ch = mw.channel_into(app, 0).unwrap();
        mw.attach_channel_feature(ch, TreeLog::default()).unwrap();
        if batched {
            mw.step_batch(50, tick).unwrap();
        } else {
            for _ in 0..50 {
                mw.step().unwrap();
                mw.advance_clock(tick);
            }
        }
        let trees = mw
            .with_channel_feature_mut(ch, TreeLog::NAME, |log: &mut TreeLog| log.rendered.clone())
            .unwrap();
        (trees, mw.steps_run(), mw.now())
    };
    let batched = observe(true);
    let looped = observe(false);
    assert_eq!(batched.0.len(), 50);
    assert_eq!(batched, looped);
}

#[test]
fn dropped_entries_surface_through_member_reflection() {
    // A stage that swallows everything: the channel endpoint never
    // produces, so upstream levels buffer unclaimed entries until the
    // ring cap bounds them and the overflow is counted as dropped.
    let mut mw = Middleware::new();
    let src = mw.add_component(source("src", 1));
    let filt = mw.add_component(FnProcessor::new(
        "swallow",
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
        |_| None,
    ));
    let app = mw.application_sink();
    mw.connect(src, filt, 0).unwrap();
    mw.connect_to_sink(filt, app).unwrap();
    let steps = LEVEL_BUFFER_CAP as u64 + 500;
    mw.step_batch(steps, SimDuration::from_micros(1)).unwrap();

    // The member's channel, found through the typed channel view.
    let ch = mw
        .channels()
        .into_iter()
        .find(|c| c.members.contains(&src))
        .unwrap()
        .id;
    assert_eq!(mw.channel_into(app, 0), Some(ch));
    let stats = mw.channel_stats(ch).unwrap();
    assert_eq!(stats.dropped, 500);
    assert_eq!(stats.buffered, LEVEL_BUFFER_CAP as u64);
}

#[test]
fn history_subscription_creates_demand_under_lazy() {
    let mut mw = Middleware::new();
    let src = mw.add_component(source("src", 1));
    let p = mw.add_component(stage("p", |v| v + 1));
    let app = mw.application_sink();
    mw.connect(src, p, 0).unwrap();
    mw.connect_to_sink(p, app).unwrap();
    let ch = mw.channel_into(app, 0).unwrap();
    let tick = SimDuration::from_millis(10);

    // Undemanded: outputs complete but nothing materializes.
    mw.step_batch(20, tick).unwrap();
    let stats = mw.channel_stats(ch).unwrap();
    assert_eq!(stats.materialized, 0);
    assert!(stats.skipped > 0);

    // A history subscription alone is demand.
    mw.subscribe_channel_history(ch, 8).unwrap();
    mw.step_batch(20, tick).unwrap();
    let stats = mw.channel_stats(ch).unwrap();
    assert!(stats.materialized > 0);
    let history = mw.channel_history(ch).unwrap();
    assert_eq!(history.len(), 8, "capacity bounds the retained window");

    // Unsubscribing removes the demand again.
    mw.unsubscribe_channel_history(ch).unwrap();
    let materialized_before = mw.channel_stats(ch).unwrap().materialized;
    mw.step_batch(20, tick).unwrap();
    let stats = mw.channel_stats(ch).unwrap();
    assert_eq!(stats.materialized, materialized_before);
    assert!(mw.channel_history(ch).unwrap().is_empty());
}
