//! One shard of the fleet: a slice of middleware instances stepped
//! together, with checkpoint-based instance restart and a watchdog
//! escalating clustered failures to shard quarantine.

use crate::fleet::snapshot::Snapshot;
use crate::fleet::watchdog::Watchdog;
use crate::{Middleware, SimDuration};

/// Builds the middleware instance with the given fleet-wide index.
/// Called once per instance at fleet construction and again on every
/// restart; it must rebuild the same structure each time (the restart
/// path restores the instance's checkpoint into the rebuilt graph).
///
/// The factory is the *only* thing shards share, and the work-stealing
/// scheduler calls it from several worker threads at once — hence
/// `Send + Sync`. For the fleet's byte-equality contract (`Serial` ≡
/// `WorkStealing` at any worker count and shard visitation order, see
/// [`FleetScheduler`](crate::fleet::FleetScheduler)) the factory must
/// also be *order-free*: what it builds may depend on the instance
/// index and on how often that index was rebuilt, but not on how many
/// times *other* indices were built in between. A shared global
/// counter consulted on every call breaks the contract; a per-index
/// incarnation counter keeps it.
pub type InstanceFactory = Box<dyn Fn(usize) -> Middleware + Send + Sync>;

/// Whether a shard is currently stepping or riding out a quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The shard steps its instances normally.
    Running,
    /// The watchdog tripped; the shard skips rounds until its backoff
    /// elapses.
    Quarantined,
}

/// Counters for one shard's supervision activity.
///
/// These counters are *runtime* state of the shard, not instance state:
/// they are never captured by a [`Snapshot`](crate::fleet::Snapshot),
/// so an instance restarted from its checkpoint keeps its channel and
/// component counters while the supervision history stays with the
/// shard, and a rebuilt shard starts from the build-time baseline
/// (`instances` owned, one construction checkpoint each, everything
/// else zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Instances owned by the shard.
    pub instances: u64,
    /// Shard step rounds attempted (including quarantined ones).
    pub steps: u64,
    /// Instance-steps that completed successfully.
    pub live_steps: u64,
    /// Instance-steps lost to faults or shard quarantine.
    pub missed_steps: u64,
    /// Instance step failures that escaped in-instance containment.
    pub instance_faults: u64,
    /// Restarts that recovered from a checkpoint.
    pub restarts: u64,
    /// Restarts that had to start cold (checkpoint rejected).
    pub cold_restarts: u64,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Times the watchdog quarantined the whole shard.
    pub quarantines: u64,
    /// Total steps-to-healthy summed over recoveries (mean recovery
    /// latency is `recovery_steps / (restarts + cold_restarts)`).
    pub recovery_steps: u64,
}

struct Instance {
    /// Fleet-wide index, passed back to the factory on restart.
    index: usize,
    mw: Middleware,
    checkpoint: Snapshot,
    /// Shard step at which the instance last faulted, until its next
    /// clean batch marks it healthy again.
    down_since: Option<u64>,
}

/// A slice of the fleet: owns its instances, checkpoints them on a
/// fixed cadence, restarts faulted instances from their checkpoints and
/// escalates clustered failures to a shard-wide quarantine through its
/// [`Watchdog`]. See the [module docs](crate::fleet) for the ladder.
pub struct Shard {
    id: usize,
    instances: Vec<Instance>,
    watchdog: Watchdog,
    stats: ShardStats,
    checkpoint_every: u64,
    steps_run: u64,
    /// Wall-clock nanoseconds spent inside [`Shard::run`], accumulated
    /// across calls. Deliberately *not* part of [`ShardStats`]: stats
    /// are scheduler-invariant by contract, wall time is not.
    wall_ns: u64,
}

impl Shard {
    /// Creates a shard owning the instances with fleet-wide indices
    /// `indices`, built through `factory`, checkpointing every
    /// `checkpoint_every` rounds.
    pub fn new(
        id: usize,
        indices: impl IntoIterator<Item = usize>,
        factory: &InstanceFactory,
        checkpoint_every: u64,
        watchdog: Watchdog,
    ) -> Self {
        let instances: Vec<Instance> = indices
            .into_iter()
            .map(|index| {
                let mw = factory(index);
                let checkpoint = mw.snapshot();
                Instance {
                    index,
                    mw,
                    checkpoint,
                    down_since: None,
                }
            })
            .collect();
        let stats = ShardStats {
            instances: instances.len() as u64,
            checkpoints: instances.len() as u64,
            ..ShardStats::default()
        };
        Shard {
            id,
            instances,
            watchdog,
            stats,
            checkpoint_every: checkpoint_every.max(1),
            steps_run: 0,
            wall_ns: 0,
        }
    }

    /// The shard's id within the pool.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Shard step rounds executed (or skipped while quarantined).
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Running or quarantined, as of the current shard step.
    pub fn state(&self) -> ShardState {
        if self.watchdog.quarantined_until(self.steps_run).is_some() {
            ShardState::Quarantined
        } else {
            ShardState::Running
        }
    }

    /// The shard's supervision counters.
    pub fn stats(&self) -> ShardStats {
        let mut s = self.stats;
        s.steps = self.steps_run;
        s.quarantines = self.watchdog.quarantines();
        s
    }

    /// Wall-clock nanoseconds spent stepping this shard so far,
    /// accumulated across [`Shard::run`] calls. Divide by
    /// [`Shard::steps_run`] for the per-round cost. Kept outside
    /// [`ShardStats`] on purpose: the stats are byte-equal across
    /// schedulers, the wall clock is machine- and schedule-dependent.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Read access to an owned instance by shard-local position.
    pub fn instance(&self, i: usize) -> Option<&Middleware> {
        self.instances.get(i).map(|inst| &inst.mw)
    }

    /// The last checkpoint captured for the instance at shard-local
    /// position `i` — what a restart would restore. Exposed read-only
    /// so equivalence suites can compare checkpoint contents across
    /// schedulers.
    pub fn checkpoint(&self, i: usize) -> Option<&crate::fleet::Snapshot> {
        self.instances.get(i).map(|inst| &inst.checkpoint)
    }

    /// Mutable access to an owned instance by shard-local position —
    /// the fleet's door to per-instance reflection (`invoke`, feature
    /// attachment, policy changes).
    pub fn instance_mut(&mut self, i: usize) -> Option<&mut Middleware> {
        self.instances.get_mut(i).map(|inst| &mut inst.mw)
    }

    /// Number of instances owned.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the shard owns no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Steps every instance `rounds` times, advancing each instance's
    /// clock by `tick` per step, applying the full escalation ladder:
    /// instance faults restart from checkpoints, clustered faults
    /// quarantine the shard for a seeded backoff.
    pub fn run(&mut self, factory: &InstanceFactory, rounds: u64, tick: SimDuration) {
        let started = std::time::Instant::now();
        let mut done = 0u64;
        while done < rounds {
            if let Some(until) = self.watchdog.quarantined_until(self.steps_run) {
                let skip = (until - self.steps_run).min(rounds - done);
                self.stats.missed_steps += skip * self.instances.len() as u64;
                self.steps_run += skip;
                done += skip;
                continue;
            }
            let to_boundary = self.checkpoint_every - (self.steps_run % self.checkpoint_every);
            let chunk = to_boundary.min(rounds - done);
            let mut round_faults = 0u64;
            for i in 0..self.instances.len() {
                round_faults += self.step_instance(factory, i, chunk, tick);
            }
            self.steps_run += chunk;
            done += chunk;
            if round_faults == 0 {
                self.watchdog.record_clean_round();
            }
            if self.steps_run.is_multiple_of(self.checkpoint_every) {
                for inst in &mut self.instances {
                    inst.checkpoint = inst.mw.snapshot();
                }
                self.stats.checkpoints += self.instances.len() as u64;
            }
        }
        self.wall_ns += started.elapsed().as_nanos() as u64;
    }

    /// Steps one instance for `chunk` rounds; returns the number of
    /// faults charged to the watchdog (0 or 1).
    fn step_instance(
        &mut self,
        factory: &InstanceFactory,
        i: usize,
        chunk: u64,
        tick: SimDuration,
    ) -> u64 {
        let shard_step = self.steps_run;
        let inst = &mut self.instances[i];
        let before = inst.mw.steps_run();
        match inst.mw.step_batch(chunk, tick) {
            Ok(()) => {
                self.stats.live_steps += chunk;
                if let Some(since) = inst.down_since.take() {
                    self.stats.recovery_steps += (shard_step + chunk).saturating_sub(since);
                }
                0
            }
            Err(_) => {
                // steps_run includes the failing step; everything before
                // it completed.
                let attempted = inst.mw.steps_run().saturating_sub(before);
                let succeeded = attempted.saturating_sub(1);
                self.stats.live_steps += succeeded;
                self.stats.missed_steps += chunk - succeeded;
                self.stats.instance_faults += 1;
                let fault_step = shard_step + succeeded;
                if inst.down_since.is_none() {
                    inst.down_since = Some(fault_step);
                }
                let mut fresh = factory(inst.index);
                match fresh.restore(&inst.checkpoint) {
                    Ok(()) => {
                        inst.mw = fresh;
                        self.stats.restarts += 1;
                    }
                    Err(_) => {
                        // The checkpoint no longer matches what the
                        // factory builds (e.g. it predates a mid-run
                        // structural change applied outside the factory):
                        // restart cold from a fresh instance.
                        inst.mw = factory(inst.index);
                        inst.checkpoint = inst.mw.snapshot();
                        self.stats.cold_restarts += 1;
                    }
                }
                self.watchdog.record_fault(fault_step);
                1
            }
        }
    }
}
