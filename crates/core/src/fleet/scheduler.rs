//! How a [`FleetPool`](crate::fleet::FleetPool) distributes its shards
//! over cores each round.
//!
//! Shards are share-nothing by construction: each owns its instances,
//! their checkpoints, its watchdog (with a shard-local RNG seed) and its
//! counters, and the only thing shards share is the immutable instance
//! factory. Every scheduler hands each shard the same single
//! `Shard::run(rounds)` call per [`FleetPool::run`](crate::fleet::FleetPool::run)
//! that the serial loop makes, so fault accounting, clean-round watchdog
//! records and checkpoint capture land on the same shard steps under
//! every scheduler and worker count; only the thread a shard runs on
//! differs. `tests/fleet_parallel_determinism.rs` pins the equivalence
//! to the byte.

/// Strategy for visiting the pool's shards during
/// [`FleetPool::run`](crate::fleet::FleetPool::run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetScheduler {
    /// Step the shards one after another, in shard order, on the
    /// calling thread — the default, and the reference behavior work
    /// stealing must reproduce byte-for-byte.
    #[default]
    Serial,
    /// A pool of scoped worker threads pulls shard indices from a
    /// shared atomic cursor and runs each drawn shard for the whole
    /// call: a worker that drew a quarantined (nearly free) shard
    /// immediately steals the next index, so stragglers cannot leave
    /// cores idle, without any migration of shard state.
    WorkStealing {
        /// Worker-thread cap; `0` resolves to the machine's effective
        /// core count (cgroup-aware) at `run` time.
        workers: usize,
    },
}

impl FleetScheduler {
    /// The scheduler's name in reports and analysis facts: `"serial"`
    /// or `"work_stealing"`. Configurations do not name a scheduler;
    /// [`FleetSpec::workers`](crate::assembly::FleetSpec::workers)
    /// selects it.
    pub fn as_str(&self) -> &'static str {
        match self {
            FleetScheduler::Serial => "serial",
            FleetScheduler::WorkStealing { .. } => "work_stealing",
        }
    }

    /// The worker count this scheduler *requests*: the declared cap for
    /// [`FleetScheduler::WorkStealing`] (`0` = machine-sized), `1` for
    /// [`FleetScheduler::Serial`]. Machine-independent, so it is safe to
    /// embed in analysis facts and benchmark metadata.
    pub fn requested_workers(&self) -> usize {
        match self {
            FleetScheduler::Serial => 1,
            FleetScheduler::WorkStealing { workers } => *workers,
        }
    }

    /// The worker count `run` will actually use on this machine:
    /// [`FleetScheduler::requested_workers`] with `0` resolved through
    /// [`machine_parallelism`].
    pub fn resolved_workers(&self) -> usize {
        match self.requested_workers() {
            0 => machine_parallelism(),
            n => n,
        }
    }
}

/// The machine's effective core count: `available_parallelism`, which
/// honours cgroup CPU quotas and affinity masks, falling back to 1 when
/// the probe fails. Probing is *not* free on Linux (it re-reads the
/// cgroup quota files), so callers must resolve once — never on a
/// per-round path. Used by [`FleetScheduler::resolved_workers`] and
/// benchmark metadata.
pub fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_names_ignore_the_worker_count() {
        assert_eq!(FleetScheduler::Serial.as_str(), "serial");
        for workers in [0, 2, 8] {
            assert_eq!(
                FleetScheduler::WorkStealing { workers }.as_str(),
                "work_stealing"
            );
        }
    }

    #[test]
    fn requested_workers_is_machine_independent() {
        assert_eq!(FleetScheduler::Serial.requested_workers(), 1);
        assert_eq!(
            FleetScheduler::WorkStealing { workers: 4 }.requested_workers(),
            4
        );
        assert_eq!(
            FleetScheduler::WorkStealing { workers: 0 }.requested_workers(),
            0
        );
        assert!(FleetScheduler::WorkStealing { workers: 0 }.resolved_workers() >= 1);
    }
}
