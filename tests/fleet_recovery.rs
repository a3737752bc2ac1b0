//! Checkpoint/restore determinism suite: a [`Middleware`] restored from
//! a mid-run [`Snapshot`] and stepped to the end must be byte-identical
//! — trees, channel history, health, clocks — to the same instance
//! stepped without interruption. Pinned for a channel demanded from the
//! start and for one whose demand arrives after the restore point, with
//! seeded panics in flight and with a Channel Feature attached mid-run
//! after the restore point. This is the
//! contract the fleet runtime's restart path relies on.

#![allow(clippy::unwrap_used)]
use std::any::Any;

use perpos::core::channel::{ChannelFeature, ChannelHost, ChannelId, DataTree};
use perpos::core::component::{ComponentCtx, ComponentDescriptor};
use perpos::prelude::*;

/// A counting source whose counter participates in checkpoints.
struct CountingSource(i64);

impl Component for CountingSource {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::source("counter", vec![kinds::RAW_STRING])
    }
    fn on_input(
        &mut self,
        _p: usize,
        _i: DataItem,
        _c: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }
    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        self.0 += 1;
        // Interned, so snapshots hold payloads that live in the arena.
        ctx.emit_owned(kinds::RAW_STRING, Value::Int(self.0));
        Ok(())
    }
    fn snapshot_state(&self) -> Option<Value> {
        Some(Value::Int(self.0))
    }
    fn restore_state(&mut self, state: &Value) {
        if let Some(v) = state.as_i64() {
            self.0 = v;
        }
    }
}

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

fn tick() -> SimDuration {
    SimDuration::from_millis(100)
}

/// The factory every scenario (and the fleet restart path) uses: a
/// counting source with a seeded panic-injecting feature, a pass-through
/// processor, and a history subscription on the application channel.
fn build() -> (Middleware, NodeId, ChannelId) {
    let mut mw = Middleware::new();
    let src = mw.add_boxed_component(Box::new(CountingSource(0)));
    mw.attach_feature(src, FaultInjector::with_seed(0xcafe).with_panic_rate(0.15))
        .unwrap();
    mw.set_fault_policy(src, FaultPolicy::DropItem).unwrap();
    let stage = mw.add_component(FnProcessor::new(
        "stage",
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
        |i| Some(i.payload.clone()),
    ));
    let app = mw.application_sink();
    mw.connect(src, stage, 0).unwrap();
    let port = mw.connect_to_sink(stage, app).unwrap();
    let channel = mw.channel_into(app, port).unwrap();
    mw.subscribe_channel_history(channel, 64).unwrap();
    (mw, src, channel)
}

fn run(mw: &mut Middleware, steps: u64) {
    mw.step_batch(steps, tick()).unwrap();
}

/// Everything the contract is stated over: rendered history trees, the
/// source's health record, logical clocks and step counters.
fn observe(mw: &Middleware, src: NodeId, channel: ChannelId) -> (Vec<String>, Value, u64, SimTime) {
    let trees = mw
        .channel_history(channel)
        .unwrap()
        .iter()
        .map(|t| t.render())
        .collect();
    (
        trees,
        mw.node_health(src).to_value(),
        mw.steps_run(),
        mw.now(),
    )
}

/// Snapshots at step 17 and restores; both runs end at step 40. Unless
/// `demanded_from_start`, the history subscription is dropped at build
/// and only comes back at step 30, so the channel skips tree assembly
/// across the restore point.
fn assert_restore_equivalence(demanded_from_start: bool) {
    let instance = || {
        let (mut mw, src, chan) = build();
        if !demanded_from_start {
            mw.unsubscribe_channel_history(chan).unwrap();
        }
        (mw, src, chan)
    };
    // Resubscribing at an unchanged capacity changes nothing.
    let finish = |mw: &mut Middleware, chan, from: u64| {
        run(mw, 30 - from);
        mw.subscribe_channel_history(chan, 64).unwrap();
        run(mw, 10);
    };
    let (mut reference, ref_src, ref_chan) = instance();
    finish(&mut reference, ref_chan, 0);

    let (mut original, _, _) = instance();
    run(&mut original, 17);
    let snap = original.snapshot();
    assert_eq!(snap.steps_run(), 17);

    let (mut restored, src, chan) = instance();
    restored.restore(&snap).unwrap();
    assert_eq!(restored.steps_run(), 17);
    finish(&mut restored, chan, 17);

    let skipped = restored.channel_stats(chan).unwrap().skipped;
    assert_eq!(skipped > 0, !demanded_from_start, "{skipped} skipped trees");
    assert_eq!(
        observe(&reference, ref_src, ref_chan),
        observe(&restored, src, chan),
        "restore-then-step must equal the uninterrupted run \
         (demanded_from_start={demanded_from_start})"
    );
}

#[test]
fn restore_equivalence_sequential_lazy() {
    assert_restore_equivalence(false);
}

#[test]
fn restore_equivalence_sequential_demanded_from_start() {
    assert_restore_equivalence(true);
}

#[test]
fn restored_instance_accepts_mid_run_feature_attach() {
    // Attach a Channel Feature *after* the restore point, at the same
    // logical step in both runs: the trees it observes must match.
    let (mut reference, _, ref_chan) = build();
    run(&mut reference, 20);
    reference
        .attach_channel_feature(ref_chan, TreeLog::default())
        .unwrap();
    run(&mut reference, 20);

    let (mut original, _, _) = build();
    run(&mut original, 20);
    let snap = original.snapshot();
    let (mut restored, _, chan) = build();
    restored.restore(&snap).unwrap();
    restored
        .attach_channel_feature(chan, TreeLog::default())
        .unwrap();
    run(&mut restored, 20);

    let logs = |mw: &mut Middleware, chan| {
        mw.with_channel_feature_mut::<TreeLog, Vec<String>>(chan, TreeLog::NAME, |f| f.0.clone())
            .unwrap()
    };
    let a = logs(&mut reference, ref_chan);
    let b = logs(&mut restored, chan);
    assert!(!a.is_empty());
    assert_eq!(a, b, "mid-run attached feature sees identical trees");
}

#[test]
fn channel_stats_survive_snapshot_restore() {
    // The channel counters (outputs / materialized / skipped) are part
    // of the checkpoint contract: a restored instance reports exactly
    // the counters the original had at snapshot time, and continuing it
    // reproduces the uninterrupted run's counters.
    let (mut original, _, chan) = build();
    run(&mut original, 17);
    let at_snapshot = original.channel_stats(chan).unwrap();
    assert!(at_snapshot.outputs > 0, "the pipeline produced outputs");
    assert_eq!(
        at_snapshot.materialized + at_snapshot.skipped,
        at_snapshot.outputs
    );
    let snap = original.snapshot();

    let (mut restored, _, rchan) = build();
    restored.restore(&snap).unwrap();
    assert_eq!(
        restored.channel_stats(rchan).unwrap(),
        at_snapshot,
        "restore carries the channel counters, not just the buffers"
    );

    let (mut reference, _, ref_chan) = build();
    run(&mut reference, 40);
    run(&mut restored, 23);
    assert_eq!(
        restored.channel_stats(rchan).unwrap(),
        reference.channel_stats(ref_chan).unwrap()
    );
}

#[test]
fn shard_stats_are_runtime_state_not_snapshot_state() {
    // ShardStats counts supervision activity of the shard *runtime*; no
    // instance Snapshot carries it (instances keep their channel and
    // component counters instead — see above). A rebuilt fleet therefore
    // starts its supervision counters from the build-time baseline:
    // instances owned, one construction checkpoint each, nothing else.
    let factory = |_: usize| build().0;
    let config = FleetConfig {
        shards: 2,
        instances: 6,
        checkpoint_every: 4,
        ..FleetConfig::default()
    };
    let mut pool = FleetPool::new(config, factory);
    pool.run(12, tick());
    let stats = pool.stats();
    assert!(stats.live_steps() > 0, "the fleet actually ran");
    assert!(stats.shards.iter().all(|s| s.steps == 12));
    assert!(
        stats.shards.iter().all(|s| s.checkpoints > s.instances),
        "the cadence refreshed checkpoints beyond the construction ones"
    );

    let rebuilt = FleetPool::new(config, factory);
    for (old, fresh) in stats.shards.iter().zip(&rebuilt.stats().shards) {
        assert_eq!(
            *fresh,
            ShardStats {
                instances: old.instances,
                checkpoints: old.instances,
                ..ShardStats::default()
            },
            "rebuilt shards start from the baseline, not the history"
        );
    }
}

#[test]
fn snapshots_cross_the_arena_boundary_intact() {
    // A snapshot shares payloads with the donor's arena (the pending
    // rings and history hold interned slots). The arena rewrites a slot
    // only while it holds the sole reference, so the donor running on —
    // recycling its other slots — cannot retroactively corrupt the
    // snapshot, and restoring into an instance whose own arena is
    // mid-flight continues byte-identical to the uninterrupted reference.
    let (mut reference, ref_src, ref_chan) = build();
    run(&mut reference, 40);

    let (mut donor, _, _) = build();
    run(&mut donor, 17);
    let snap = donor.snapshot();
    // Donor keeps running, recycling its arena slots. If the arena
    // rewrote a slot the snapshot still holds, this would scramble its
    // payload bytes.
    run(&mut donor, 200);

    // Restore into an instance with its own arena traffic in flight.
    let (mut restored, src, chan) = build();
    run(&mut restored, 31);
    restored.restore(&snap).unwrap();
    assert_eq!(restored.steps_run(), 17);
    run(&mut restored, 23);
    assert_eq!(
        observe(&reference, ref_src, ref_chan),
        observe(&restored, src, chan),
        "restore across a dirty arena must equal the uninterrupted run"
    );
}

#[test]
fn restore_rejects_structural_mismatch() {
    let (original, _, _) = build();
    let snap = original.snapshot();
    assert_eq!(snap.version(), SNAPSHOT_VERSION);
    assert_eq!(snap.node_count(), 3);

    // A different pipeline must refuse the snapshot, untouched.
    let mut other = Middleware::new();
    let src = other.add_boxed_component(Box::new(CountingSource(0)));
    let app = other.application_sink();
    other.connect_to_sink(src, app).unwrap();
    let before = other.steps_run();
    let err = other.restore(&snap).unwrap_err();
    assert!(matches!(err, CoreError::ComponentFailure { .. }));
    assert_eq!(other.steps_run(), before);

    // And so must the same pipeline with an extra feature attached.
    let (mut drifted, dsrc, _) = build();
    drifted
        .attach_feature(dsrc, perpos::sensors::HdopFeature::new())
        .unwrap();
    assert!(drifted.restore(&snap).is_err());
}
