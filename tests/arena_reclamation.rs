//! Arena reclamation under channel backpressure: the payload recycler
//! must keep arena-held memory bounded over an arbitrarily long run — including the adversarial case where a level
//! ring sits permanently full because a downstream stage swallows every
//! item — while leaving every channel-layer counter exactly as the
//! pre-arena data plane reported it.

#![allow(clippy::unwrap_used)]
use perpos::core::channel::LEVEL_BUFFER_CAP;
use perpos::prelude::*;

fn text_source(name: &str) -> impl Component {
    let mut i = 0i64;
    FnSource::new(name.to_string(), kinds::RAW_STRING, move |_| {
        i += 1;
        Some(Value::Text(format!("$GPGGA,fix,{i:06}")))
    })
}

/// Soak length: long enough that an unbounded leak (growth proportional
/// to steps) dwarfs every legitimate pool.
const SOAK_STEPS: u64 = 100_003;

#[test]
fn swallowed_pipeline_soak_holds_leak_bound_and_drop_counters() {
    // src -> swallow -> app: the swallow stage never produces, so the
    // channel endpoint never completes and level 0's ring buffers until
    // the cap bounds it. Every buffered entry pins its payload's arena
    // slot — the worst case for reclamation.
    let mut mw = Middleware::new();
    let src = mw.add_component(text_source("src"));
    let swallow = mw.add_component(FnProcessor::new(
        "swallow",
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
        |_| None,
    ));
    let app = mw.application_sink();
    mw.connect(src, swallow, 0).unwrap();
    mw.connect_to_sink(swallow, app).unwrap();

    mw.step_batch(SOAK_STEPS, SimDuration::from_micros(1)).unwrap();

    // Channel counters are byte-for-byte the pre-arena semantics: the
    // ring holds exactly its cap, the overflow is counted as dropped.
    let ch = mw.channel_into(app, 0).unwrap();
    let stats = mw.channel_stats(ch).unwrap();
    assert_eq!(stats.buffered, LEVEL_BUFFER_CAP as u64);
    assert_eq!(stats.dropped, SOAK_STEPS - LEVEL_BUFFER_CAP as u64);

    // One interned payload per step, and the arena's working set is
    // bounded — ring-pinned slots recycle as the ring evicts them, so
    // memory held via the arena is O(ring), not O(steps). (`escaped`
    // slots left the arena's books entirely; their memory dies with the
    // holder, so they cannot leak either.)
    let arena = mw.arena_stats();
    assert_eq!(arena.interned, SOAK_STEPS);
    assert!(
        arena.held <= 4 * LEVEL_BUFFER_CAP,
        "arena working set grew with the soak: {arena:?}"
    );
    // Reclamation must actually run — the soak recycles slots at a rate
    // comparable to interning, it does not just allocate fresh forever.
    assert!(
        arena.recycled >= arena.interned / 2,
        "recycling stalled: {arena:?}"
    );
    eprintln!("swallow soak arena stats: {arena:?}");
}

#[test]
fn healthy_pipeline_soak_recycles_nearly_everything() {
    // src -> relay -> app: items flow to the sink and only its history
    // ring pins slots, so reclamation keeps pace exactly.
    let mut mw = Middleware::new();
    let src = mw.add_component(text_source("src"));
    let relay = mw.add_component(FnRelay::new(
        "relay",
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
    ));
    let app = mw.application_sink();
    mw.connect(src, relay, 0).unwrap();
    mw.connect_to_sink(relay, app).unwrap();

    mw.step_batch(SOAK_STEPS, SimDuration::from_micros(1)).unwrap();

    let arena = mw.arena_stats();
    assert_eq!(arena.interned, SOAK_STEPS);
    assert!(
        arena.held <= 4 * LEVEL_BUFFER_CAP,
        "arena working set grew with the soak: {arena:?}"
    );
    assert!(
        arena.recycled >= arena.interned * 9 / 10,
        "a healthy pipeline must recycle nearly every slot: {arena:?}"
    );
    eprintln!("healthy soak arena stats: {arena:?}");
}
