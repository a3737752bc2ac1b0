//! Block-ingest equivalence: [`Middleware::ingest_batch`] must be a
//! *transport*, not a semantic: feeding N pre-lexed lines through it is
//! observationally byte-identical to an N-step run whose source emits
//! the same lines from `on_tick` — trees, history, channel counters,
//! health, clocks — including with seeded panics and quarantines firing
//! mid-drain (the batch path hoists its panic fence around the whole
//! per-line drain; attribution and fault policy must come out exactly
//! as the per-unit fence produces them).

#![allow(clippy::unwrap_used)]
use std::any::Any;
use std::sync::Arc;

use perpos::core::channel::{ChannelFeature, ChannelHost, ChannelId, DataTree};
use perpos::prelude::*;

/// Records the rendered form of every tree it observes.
#[derive(Default)]
struct TreeLog(Vec<String>);

impl TreeLog {
    const NAME: &'static str = "TreeLog";
}

impl ChannelFeature for TreeLog {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME)
    }
    fn apply(&mut self, tree: &DataTree, _host: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        self.0.push(tree.render());
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn trace_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,{i:05}"))
        .collect()
}

/// src -> upper -> tail -> app, optionally with a panic injector
/// (dropped per item) on `upper` and an error injector (quarantining)
/// on `tail`.
fn build(lines: Arc<Vec<String>>, scripted: bool, faulty: bool) -> (Middleware, NodeId, ChannelId) {
    let mut mw = Middleware::new();
    let mut i = 0usize;
    let src = mw.add_component(FnSource::new("trace", kinds::RAW_STRING, move |_| {
        if !scripted {
            return None;
        }
        let line = lines.get(i)?;
        i += 1;
        Some(Value::Text(line.clone()))
    }));
    let upper = mw.add_component(FnProcessor::new(
        "upper",
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
        |item| {
            item.payload
                .as_text()
                .map(|t| Value::Text(t.to_ascii_uppercase()).into())
        },
    ));
    let tail = mw.add_component(FnRelay::new(
        "tail",
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
    ));
    let app = mw.application_sink();
    mw.connect(src, upper, 0).unwrap();
    mw.connect(upper, tail, 0).unwrap();
    let port = mw.connect_to_sink(tail, app).unwrap();
    let channel = mw.channel_into(app, port).unwrap();
    mw.attach_channel_feature(channel, TreeLog::default())
        .unwrap();
    mw.subscribe_channel_history(channel, 32).unwrap();
    if faulty {
        mw.attach_feature(
            upper,
            FaultInjector::with_seed(42)
                .with_panic_rate(0.2)
                .with_error_rate(0.1),
        )
        .unwrap();
        mw.set_fault_policy(upper, FaultPolicy::DropItem).unwrap();
        mw.attach_feature(tail, FaultInjector::with_seed(7).with_panic_rate(0.25))
            .unwrap();
        mw.set_fault_policy(tail, FaultPolicy::quarantine_default())
            .unwrap();
    }
    (mw, src, channel)
}

fn observe(
    mw: &mut Middleware,
    channel: ChannelId,
) -> (Vec<String>, Vec<String>, Value, Vec<String>, u64, SimTime) {
    let trees = mw
        .with_channel_feature_mut(channel, TreeLog::NAME, |log: &mut TreeLog| log.0.clone())
        .unwrap();
    let history = mw
        .channel_history(channel)
        .unwrap()
        .iter()
        .map(DataTree::render)
        .collect();
    let stats = mw.channel_stats(channel).unwrap();
    let health = mw
        .structure()
        .iter()
        .map(|n| format!("{}: {:?}", n.descriptor.name, mw.node_health(n.id)))
        .collect();
    (
        trees,
        history,
        Value::from(format!("{stats:?}")),
        health,
        mw.steps_run(),
        mw.now(),
    )
}

/// FNV-1a over a string: a hash that is stable across toolchains.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hashes of [`observe`] for the fault-free and faulty scenarios,
/// recorded from the plain-`Arc` data plane (every emission allocated
/// fresh) before the payload recycler replaced it.
const PLAIN_ARC_GOLDEN: [u64; 2] = [0xf415_31b5_bc77_467a, 0x28e4_08c9_30e9_49e8];

/// Runs the trace through the scripted tick loop and through block
/// ingest, asserts both observe the same, and returns that observation's
/// hash.
fn assert_ingest_equals_tick(faulty: bool) -> u64 {
    let lines = Arc::new(trace_lines(150));
    let tick = SimDuration::from_micros(50);

    let (mut ticked, _, tick_chan) = build(Arc::clone(&lines), true, faulty);
    ticked.step_batch(lines.len() as u64, tick).unwrap();

    let (mut batched, src, batch_chan) = build(Arc::clone(&lines), false, faulty);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let ingested = batched
        .ingest_batch(src, kinds::RAW_STRING, &refs, tick)
        .unwrap();
    assert_eq!(ingested, lines.len() as u64);

    let tick_view = observe(&mut ticked, tick_chan);
    let batch_view = observe(&mut batched, batch_chan);
    assert!(!tick_view.0.is_empty(), "the pipeline produced trees");
    assert_eq!(
        tick_view, batch_view,
        "ingest_batch diverged from the tick loop (faulty={faulty})"
    );
    fnv(&format!("{tick_view:?}"))
}

#[test]
fn block_ingest_equals_scripted_tick_loop() {
    assert_ingest_equals_tick(false);
}

#[test]
fn block_ingest_matches_the_plain_arc_golden() {
    for (faulty, golden) in [false, true].into_iter().zip(PLAIN_ARC_GOLDEN) {
        assert_eq!(
            assert_ingest_equals_tick(faulty),
            golden,
            "recycled payloads changed what the pipeline observes (faulty={faulty})"
        );
    }
}

#[test]
fn block_ingest_equivalence_holds_under_injected_faults() {
    assert_ingest_equals_tick(true);
}

#[test]
fn faulty_ingest_actually_exercised_the_fault_paths() {
    // Keep the equivalence above honest: the seeded injectors must have
    // fired during the batched run — at least one dropped panic on
    // `upper` and at least one quarantine on `tail`.
    let lines = Arc::new(trace_lines(150));
    let (mut mw, src, _) = build(Arc::clone(&lines), false, true);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    mw.ingest_batch(src, kinds::RAW_STRING, &refs, SimDuration::from_micros(50))
        .unwrap();
    let faults: u64 = mw
        .structure()
        .iter()
        .map(|n| mw.node_health(n.id).faults)
        .sum();
    assert!(faults >= 2, "injectors never fired (faults={faults})");
}

/// A relay that fails its `at`-th delivery (0-based). Under the default
/// `Propagate` policy that aborts the step.
struct Tripwire {
    seen: usize,
    at: usize,
}

impl Component for Tripwire {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::processor(
            "tripwire",
            InputSpec::new("in", vec![kinds::RAW_STRING]),
            vec![kinds::RAW_STRING],
        )
    }
    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        self.seen += 1;
        if self.seen - 1 == self.at {
            return Err(CoreError::ComponentFailure {
                component: "tripwire".into(),
                reason: format!("tripped at delivery {}", self.at),
            });
        }
        ctx.emit(item);
        Ok(())
    }
}

/// src -> tripwire -> app, failing on line `at`.
fn build_tripwired(
    lines: Arc<Vec<String>>,
    scripted: bool,
    at: usize,
) -> (Middleware, NodeId, ChannelId) {
    let mut mw = Middleware::new();
    let mut i = 0usize;
    let src = mw.add_component(FnSource::new("trace", kinds::RAW_STRING, move |_| {
        if !scripted {
            return None;
        }
        let line = lines.get(i)?;
        i += 1;
        Some(Value::Text(line.clone()))
    }));
    let wire = mw.add_boxed_component(Box::new(Tripwire { seen: 0, at }));
    let app = mw.application_sink();
    mw.connect(src, wire, 0).unwrap();
    let port = mw.connect_to_sink(wire, app).unwrap();
    let channel = mw.channel_into(app, port).unwrap();
    mw.attach_channel_feature(channel, TreeLog::default())
        .unwrap();
    mw.subscribe_channel_history(channel, 256).unwrap();
    (mw, src, channel)
}

#[test]
fn propagated_fault_mid_batch_books_steps_like_the_step_loop() {
    const AT: usize = 57;
    let lines = Arc::new(trace_lines(150));
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    for tick in [SimDuration::ZERO, SimDuration::from_micros(50)] {
        // Reference: the step()/advance_clock loop, stopped at the error,
        // then resumed for the remaining lines.
        let (mut reference, _, ref_chan) = build_tripwired(Arc::clone(&lines), true, AT);
        let mut ref_err = None;
        for _ in 0..lines.len() {
            if let Err(e) = reference.step() {
                ref_err = Some(e);
                break;
            }
            reference.advance_clock(tick);
        }
        let ref_err = ref_err.expect("the tripwire fires");
        assert_eq!(reference.steps_run(), AT as u64 + 1);
        let ref_at_error = observe(&mut reference, ref_chan);
        for _ in AT + 1..lines.len() {
            reference.step().unwrap();
            reference.advance_clock(tick);
        }
        let ref_end = observe(&mut reference, ref_chan);

        // step_batch over the scripted source.
        let (mut batched, _, chan) = build_tripwired(Arc::clone(&lines), true, AT);
        assert_eq!(
            batched.step_batch(lines.len() as u64, tick),
            Err(ref_err.clone())
        );
        assert_eq!(
            observe(&mut batched, chan),
            ref_at_error,
            "step_batch, tick {tick:?}"
        );
        batched
            .step_batch((lines.len() - AT - 1) as u64, tick)
            .unwrap();
        assert_eq!(
            observe(&mut batched, chan),
            ref_end,
            "step_batch, tick {tick:?}"
        );

        // ingest_batch of the same lines.
        let (mut ingested, src, chan) = build_tripwired(Arc::clone(&lines), false, AT);
        assert_eq!(
            ingested.ingest_batch(src, kinds::RAW_STRING, &refs, tick),
            Err(ref_err)
        );
        assert_eq!(
            observe(&mut ingested, chan),
            ref_at_error,
            "ingest_batch, tick {tick:?}"
        );
        let rest = ingested
            .ingest_batch(src, kinds::RAW_STRING, &refs[AT + 1..], tick)
            .unwrap();
        assert_eq!(rest, (lines.len() - AT - 1) as u64);
        assert_eq!(
            observe(&mut ingested, chan),
            ref_end,
            "ingest_batch, tick {tick:?}"
        );
    }
}
