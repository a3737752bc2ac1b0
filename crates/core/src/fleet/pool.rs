//! The fleet pool: builds the shards, drives them, and aggregates their
//! supervision counters.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::fleet::scheduler::FleetScheduler;
use crate::fleet::shard::{InstanceFactory, Shard, ShardStats};
use crate::fleet::watchdog::Watchdog;
use crate::{Middleware, SimDuration};

/// Sizing and supervision knobs of a [`FleetPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of shards the instances are partitioned into.
    pub shards: usize,
    /// Total middleware instances across all shards.
    pub instances: usize,
    /// Checkpoint cadence in shard rounds: every instance refreshes its
    /// [`Snapshot`](crate::fleet::Snapshot) at this interval, bounding
    /// how far a restart can rewind.
    pub checkpoint_every: u64,
    /// Instance faults within [`FleetConfig::shard_fault_window`] rounds
    /// that quarantine the whole shard.
    pub shard_fault_threshold: u32,
    /// Window, in shard rounds, over which faults count towards the
    /// threshold.
    pub shard_fault_window: u64,
    /// Seed feeding each shard watchdog's backoff jitter.
    pub seed: u64,
    /// How [`FleetPool::run`] distributes shards over cores. Every
    /// scheduler produces byte-identical [`ShardStats`], checkpoints
    /// and instance histories; only wall-clock differs.
    pub scheduler: FleetScheduler,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            instances: 64,
            checkpoint_every: 8,
            shard_fault_threshold: 16,
            shard_fault_window: 16,
            seed: 0xf1ee7,
            scheduler: FleetScheduler::Serial,
        }
    }
}

/// Per-shard supervision counters of a whole fleet; [`FleetStats::totals`]
/// sums them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Per-shard counters, in shard order.
    pub shards: Vec<ShardStats>,
}

impl FleetStats {
    /// The fleet-wide sum of the per-shard counters.
    pub fn totals(&self) -> FleetTotals {
        let mut totals = FleetTotals::default();
        for s in &self.shards {
            totals.absorb(s);
        }
        totals
    }
}

/// Flat fleet-wide counter totals, summed from the shards on demand by
/// [`FleetPool::totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetTotals {
    /// Instances across all shards.
    pub instances: u64,
    /// Instance-steps completed.
    pub live_steps: u64,
    /// Instance-steps lost to faults or quarantine.
    pub missed_steps: u64,
    /// Faults that escaped in-instance containment.
    pub instance_faults: u64,
    /// Checkpoint-recovered restarts.
    pub restarts: u64,
    /// Cold restarts (checkpoint rejected).
    pub cold_restarts: u64,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Shard quarantines.
    pub quarantines: u64,
    /// Steps-to-healthy summed over recoveries.
    pub recovery_steps: u64,
}

impl FleetTotals {
    /// Sums one shard's counters into the totals.
    fn absorb(&mut self, s: &ShardStats) {
        self.instances += s.instances;
        self.live_steps += s.live_steps;
        self.missed_steps += s.missed_steps;
        self.instance_faults += s.instance_faults;
        self.restarts += s.restarts;
        self.cold_restarts += s.cold_restarts;
        self.checkpoints += s.checkpoints;
        self.quarantines += s.quarantines;
        self.recovery_steps += s.recovery_steps;
    }

    /// Restarts of either kind (warm plus cold).
    pub fn total_restarts(&self) -> u64 {
        self.restarts + self.cold_restarts
    }

    /// Fraction of attempted instance-steps that completed (`1.0` for
    /// an idle fleet).
    pub fn availability(&self) -> f64 {
        let attempted = self.live_steps + self.missed_steps;
        if attempted == 0 {
            1.0
        } else {
            self.live_steps as f64 / attempted as f64
        }
    }

    /// Mean steps-to-healthy over all recoveries (`0.0` without any).
    pub fn mean_recovery_steps(&self) -> f64 {
        let restarts = self.total_restarts();
        if restarts == 0 {
            0.0
        } else {
            self.recovery_steps as f64 / restarts as f64
        }
    }
}

/// A supervised multi-instance engine: owns [`FleetConfig::shards`]
/// shards of factory-built [`Middleware`] instances
/// and steps them under the escalation ladder described in the
/// [module docs](crate::fleet).
pub struct FleetPool {
    config: FleetConfig,
    factory: InstanceFactory,
    shards: Vec<Shard>,
}

impl FleetPool {
    /// Builds the fleet: `config.instances` instances partitioned
    /// contiguously over `config.shards` shards, each instance built by
    /// `factory` from its fleet-wide index and checkpointed immediately.
    pub fn new(
        config: FleetConfig,
        factory: impl Fn(usize) -> Middleware + Send + Sync + 'static,
    ) -> Self {
        let factory: InstanceFactory = Box::new(factory);
        let shard_count = config.shards.max(1);
        let per = config.instances / shard_count;
        let extra = config.instances % shard_count;
        let mut shards = Vec::with_capacity(shard_count);
        let mut next = 0usize;
        for s in 0..shard_count {
            let count = per + usize::from(s < extra);
            let watchdog = Watchdog::new(
                config.shard_fault_threshold,
                config.shard_fault_window,
                config.seed.wrapping_add(s as u64),
            );
            shards.push(Shard::new(
                s,
                next..next + count,
                &factory,
                config.checkpoint_every,
                watchdog,
            ));
            next += count;
        }
        FleetPool {
            config,
            factory,
            shards,
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shards, in order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Mutable access to one shard (instance reflection, soak drivers).
    pub fn shard_mut(&mut self, s: usize) -> Option<&mut Shard> {
        self.shards.get_mut(s)
    }

    /// Total live instances.
    pub fn instances(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// The scheduler [`FleetPool::run`] currently uses.
    pub fn scheduler(&self) -> FleetScheduler {
        self.config.scheduler
    }

    /// Switches the scheduler for subsequent [`FleetPool::run`] calls.
    /// Safe at any round boundary: schedulers are observationally
    /// interchangeable, so a mid-soak switch changes wall-clock only.
    pub fn set_scheduler(&mut self, scheduler: FleetScheduler) {
        self.config.scheduler = scheduler;
    }

    /// Steps every shard `rounds` times with `tick` clock advance per
    /// step. Whatever the scheduler, each shard runs the call as one
    /// `Shard::run(rounds)`, exactly as the serial loop does, so the
    /// per-shard observables ([`ShardStats`], checkpoints, watchdog
    /// schedules, instance histories) are byte-identical across
    /// schedulers and worker counts. With more than one resolved
    /// worker, scoped threads pull shard indices off one shared atomic
    /// cursor, so a worker stuck on a heavy shard cannot idle the
    /// others. `run` returns once every shard has completed `rounds`.
    pub fn run(&mut self, rounds: u64, tick: SimDuration) {
        let workers = self
            .config
            .scheduler
            .resolved_workers()
            .min(self.shards.len());
        let factory = &self.factory;
        if workers <= 1 {
            for shard in &mut self.shards {
                shard.run(factory, rounds, tick);
            }
        } else {
            // Each cell is locked exactly once (the cursor hands every
            // index to exactly one worker), so the mutexes are
            // uncontended — they exist to prove disjoint access to the
            // borrow checker, not to serialize work.
            let cells: Vec<Mutex<&mut Shard>> = self.shards.iter_mut().map(Mutex::new).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while let Some(cell) = cells.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            cell.lock()
                                .expect("each shard cell is locked exactly once")
                                .run(factory, rounds, tick);
                        }
                    });
                }
            });
        }
    }

    /// Aggregated supervision counters with per-shard breakdown.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            shards: self.shards.iter().map(|s| s.stats()).collect(),
        }
    }

    /// The fleet-wide totals, summed over the shards' current counters.
    pub fn totals(&self) -> FleetTotals {
        self.stats().totals()
    }

    /// Fleet-wide availability so far.
    pub fn availability(&self) -> f64 {
        self.totals().availability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentCtx, FnSource};
    use crate::data::{kinds, DataItem, Value};
    use crate::prelude::{Component, Criteria};
    use crate::supervision::FaultPolicy;
    use crate::CoreError;

    /// Fails (uncontained) whenever `tick % period == phase`.
    struct PeriodicFault {
        counter: u64,
        period: u64,
        phase: u64,
    }
    impl Component for PeriodicFault {
        fn descriptor(&self) -> crate::component::ComponentDescriptor {
            crate::component::ComponentDescriptor::source("flaky", vec![kinds::RAW_STRING])
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
            self.counter += 1;
            if self.period > 0 && self.counter % self.period == self.phase {
                return Err(CoreError::ComponentFailure {
                    component: "flaky".into(),
                    reason: "periodic fault".into(),
                });
            }
            ctx.emit_value(kinds::RAW_STRING, Value::Int(self.counter as i64));
            Ok(())
        }
        fn snapshot_state(&self) -> Option<Value> {
            Some(Value::Int(self.counter as i64))
        }
        fn restore_state(&mut self, state: &Value) {
            if let Some(v) = state.as_i64() {
                self.counter = v as u64;
            }
        }
    }

    /// Faults randomly at `rate` per tick. The RNG is *environmental*:
    /// it is not part of the snapshot, and every incarnation gets a
    /// fresh seed, so a restored instance does not replay the crash —
    /// the shape real chaos has.
    struct RandomFault {
        counter: u64,
        rng: rand::rngs::StdRng,
        rate: f64,
    }
    impl Component for RandomFault {
        fn descriptor(&self) -> crate::component::ComponentDescriptor {
            crate::component::ComponentDescriptor::source("chaotic", vec![kinds::RAW_STRING])
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
            use rand::Rng;
            self.counter += 1;
            if self.rng.gen::<f64>() < self.rate {
                return Err(CoreError::ComponentFailure {
                    component: "chaotic".into(),
                    reason: "random fault".into(),
                });
            }
            ctx.emit_value(kinds::RAW_STRING, Value::Int(self.counter as i64));
            Ok(())
        }
        fn snapshot_state(&self) -> Option<Value> {
            Some(Value::Int(self.counter as i64))
        }
        fn restore_state(&mut self, state: &Value) {
            if let Some(v) = state.as_i64() {
                self.counter = v as u64;
            }
        }
    }

    /// Chaos factory with *per-index* incarnation counters: the RNG
    /// reseed of incarnation `n` of instance `index` is a pure function
    /// of `(seed, index, n)`, so the fault schedule is invariant to the
    /// order in which other instances restart — the order-freedom the
    /// [`InstanceFactory`] contract demands of parallel schedulers. (A
    /// single shared counter would make reseeds depend on global
    /// interleaving and diverge under work stealing.)
    fn flaky_factory(rate: f64, seed: u64, capacity: usize) -> impl Fn(usize) -> Middleware {
        use rand::SeedableRng;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let incarnations: Arc<Vec<AtomicU64>> =
            Arc::new((0..capacity).map(|_| AtomicU64::new(0)).collect());
        move |index| {
            let n = incarnations[index].fetch_add(1, Ordering::Relaxed);
            let mut mw = Middleware::new();
            let src = mw.add_boxed_component(Box::new(RandomFault {
                counter: 0,
                rng: rand::rngs::StdRng::seed_from_u64(
                    seed ^ (index as u64).wrapping_mul(0x9E37) ^ n.wrapping_mul(0xC0FFEE),
                ),
                rate,
            }));
            let app = mw.application_sink();
            mw.connect(src, app, 0).unwrap();
            mw
        }
    }

    fn healthy_factory() -> impl Fn(usize) -> Middleware {
        |_| {
            let mut mw = Middleware::new();
            let src = mw.add_component(FnSource::new("src", kinds::RAW_STRING, |_| {
                Some(Value::Int(1))
            }));
            let app = mw.application_sink();
            mw.connect(src, app, 0).unwrap();
            mw
        }
    }

    #[test]
    fn healthy_fleet_has_full_availability() {
        let mut pool = FleetPool::new(
            FleetConfig {
                shards: 2,
                instances: 10,
                ..FleetConfig::default()
            },
            healthy_factory(),
        );
        pool.run(20, SimDuration::from_millis(10));
        let totals = pool.totals();
        assert_eq!(pool.instances(), 10);
        assert_eq!(totals.live_steps, 200);
        assert_eq!(totals.missed_steps, 0);
        assert_eq!(totals.availability(), 1.0);
        assert_eq!(totals.instance_faults, 0);
        // Every instance actually delivered every step.
        let p = pool.shards()[0]
            .instance(0)
            .unwrap()
            .location_provider(Criteria::new())
            .unwrap();
        assert_eq!(p.delivered_count(), 20);
    }

    #[test]
    fn faulted_instances_restart_from_checkpoints() {
        let mut pool = FleetPool::new(
            FleetConfig {
                shards: 1,
                instances: 4,
                checkpoint_every: 4,
                shard_fault_threshold: 100, // never quarantine here
                ..FleetConfig::default()
            },
            flaky_factory(0.05, 21, 4),
        );
        pool.run(40, SimDuration::from_millis(10));
        let totals = pool.totals();
        assert!(totals.instance_faults > 0, "faults were injected");
        assert_eq!(
            totals.total_restarts(),
            totals.instance_faults,
            "every fault recovered by a restart"
        );
        assert_eq!(totals.cold_restarts, 0, "checkpoints all valid");
        assert!(totals.availability() > 0.7, "most steps still completed");
        assert!(totals.availability() < 1.0, "but faults cost steps");
        assert!(totals.mean_recovery_steps() >= 1.0);
    }

    #[test]
    fn storming_shard_gets_quarantined_and_recovers() {
        // Every instance faults every 4th tick with the same phase: a
        // coordinated storm that must trip the shard watchdog.
        let mut pool = FleetPool::new(
            FleetConfig {
                shards: 1,
                instances: 8,
                checkpoint_every: 2,
                shard_fault_threshold: 8,
                shard_fault_window: 4,
                seed: 11,
                scheduler: FleetScheduler::Serial,
            },
            move |_| {
                let mut mw = Middleware::new();
                let src = mw.add_boxed_component(Box::new(PeriodicFault {
                    counter: 0,
                    period: 4,
                    phase: 0,
                }));
                let app = mw.application_sink();
                mw.connect(src, app, 0).unwrap();
                mw
            },
        );
        pool.run(64, SimDuration::from_millis(10));
        let totals = pool.totals();
        assert!(totals.quarantines > 0, "storm tripped the watchdog");
        assert!(
            totals.missed_steps > totals.instance_faults,
            "quarantine skipped whole rounds beyond the faults themselves"
        );
        // The shard is running again at the end (backoffs are finite).
        assert!(totals.live_steps > 0);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let build = || {
            FleetPool::new(
                FleetConfig {
                    shards: 3,
                    instances: 12,
                    checkpoint_every: 4,
                    shard_fault_threshold: 4,
                    shard_fault_window: 8,
                    seed: 99,
                    scheduler: FleetScheduler::Serial,
                },
                flaky_factory(0.1, 7, 12),
            )
        };
        let mut a = build();
        let mut b = build();
        a.run(50, SimDuration::from_millis(10));
        b.run(50, SimDuration::from_millis(10));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn fault_policies_contain_faults_below_the_fleet() {
        // The same flaky component under a DropItem policy never faults
        // the instance, so the fleet sees full availability.
        let mut pool = FleetPool::new(
            FleetConfig {
                shards: 1,
                instances: 4,
                ..FleetConfig::default()
            },
            move |index| {
                let mut mw = Middleware::new();
                let src = mw.add_boxed_component(Box::new(PeriodicFault {
                    counter: 0,
                    period: 5,
                    phase: (index as u64) % 5,
                }));
                let app = mw.application_sink();
                mw.connect(src, app, 0).unwrap();
                mw.set_fault_policy(src, FaultPolicy::DropItem).unwrap();
                mw
            },
        );
        pool.run(30, SimDuration::from_millis(10));
        let totals = pool.totals();
        assert_eq!(totals.instance_faults, 0);
        assert_eq!(totals.availability(), 1.0);
    }

    fn chaotic_config(scheduler: FleetScheduler) -> FleetConfig {
        FleetConfig {
            shards: 5,
            instances: 20,
            checkpoint_every: 4,
            shard_fault_threshold: 3,
            shard_fault_window: 8,
            seed: 77,
            scheduler,
        }
    }

    #[test]
    fn schedulers_are_observationally_identical() {
        // The same chaotic fleet under every scheduler: per-shard stats
        // must match to the last counter (the full byte-equality suite
        // lives in tests/fleet_parallel_determinism.rs; this is the
        // in-crate smoke).
        let run = |scheduler| {
            let mut pool = FleetPool::new(chaotic_config(scheduler), flaky_factory(0.08, 13, 20));
            pool.run(50, SimDuration::from_millis(10));
            pool.stats()
        };
        let serial = run(FleetScheduler::Serial);
        assert!(
            serial.totals().instance_faults > 0,
            "chaos must actually fire for the comparison to mean anything"
        );
        for scheduler in [
            FleetScheduler::WorkStealing { workers: 2 },
            FleetScheduler::WorkStealing { workers: 8 },
        ] {
            assert_eq!(serial, run(scheduler), "{scheduler:?} diverged from serial");
        }
    }

    #[test]
    fn scheduler_switches_between_runs() {
        let mut pool = FleetPool::new(
            FleetConfig {
                shards: 2,
                instances: 4,
                ..FleetConfig::default()
            },
            healthy_factory(),
        );
        assert_eq!(pool.scheduler(), FleetScheduler::Serial);
        assert_eq!(pool.scheduler().resolved_workers(), 1);
        pool.set_scheduler(FleetScheduler::WorkStealing { workers: 2 });
        assert_eq!(
            pool.scheduler(),
            FleetScheduler::WorkStealing { workers: 2 }
        );
        assert_eq!(pool.scheduler().resolved_workers(), 2);
        // A mid-soak switch is safe and changes nothing observable.
        pool.run(7, SimDuration::from_millis(10));
        assert_eq!(pool.availability(), 1.0);
        assert_eq!(pool.totals().live_steps, 4 * 7);
    }
}
