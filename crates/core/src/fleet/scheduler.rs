//! How a [`FleetPool`](crate::fleet::FleetPool) distributes its shards
//! over cores each round.
//!
//! Shards are share-nothing by construction: each owns its instances,
//! their checkpoints, its watchdog (with a shard-local RNG seed) and its
//! counters, and the only thing shards share is the immutable instance
//! factory. Stepping shards concurrently is therefore *observationally
//! identical* to stepping them in order — provided every shard sees the
//! same sequence of `Shard::run` chunk boundaries it would have seen
//! serially. [`chunk_plan`] guarantees exactly that: scheduler chunks
//! end only on checkpoint boundaries (where the serial path also cuts
//! its internal chunks) or at the call's end, so fault accounting,
//! clean-round watchdog records and checkpoint capture land on the same
//! shard steps under every scheduler and worker count.
//! `tests/fleet_parallel_determinism.rs` pins the equivalence to the
//! byte.

/// Strategy for visiting the pool's shards during
/// [`FleetPool::run`](crate::fleet::FleetPool::run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetScheduler {
    /// Step the shards one after another, in shard order, on the
    /// calling thread — the default, and the reference behavior the
    /// other schedulers must reproduce byte-for-byte.
    #[default]
    Serial,
    /// A pool of scoped worker threads pulls shard indices from a
    /// shared atomic cursor, one checkpoint-aligned round-chunk at a
    /// time with a barrier between chunks: a worker that drew a
    /// quarantined (nearly free) shard immediately steals the next
    /// index, so stragglers cannot leave cores idle, and rebalancing
    /// happens every chunk without any migration of shard state.
    WorkStealing {
        /// Worker-thread cap; `0` resolves to the machine's effective
        /// core count (cgroup-aware) at `run` time.
        workers: usize,
    },
    /// Step the shards serially but in a seeded, per-chunk permuted
    /// order — the loom-free interleaving sanitizer: any schedule
    /// sensitivity shows up as a deterministic divergence from
    /// [`FleetScheduler::Serial`] rather than a thread-timing flake.
    Permuted {
        /// Seed driving the per-chunk Fisher–Yates shuffle; equal seeds
        /// replay the same visitation orders.
        seed: u64,
    },
}

impl FleetScheduler {
    /// The scheduler's canonical name: `"serial"`, `"work_stealing"` or
    /// `"permuted"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            FleetScheduler::Serial => "serial",
            FleetScheduler::WorkStealing { .. } => "work_stealing",
            FleetScheduler::Permuted { .. } => "permuted",
        }
    }

    /// Parses a scheduler name (the inverse of [`FleetScheduler::as_str`],
    /// with `"work-stealing"` accepted as an alias). `work_stealing`
    /// starts machine-sized (`workers: 0`) and `permuted` with seed 0;
    /// use the struct syntax or [`FleetSpec`](crate::assembly::FleetSpec)
    /// fields to pick explicit values.
    pub fn from_name(name: &str) -> Option<FleetScheduler> {
        match name {
            "serial" => Some(FleetScheduler::Serial),
            "work_stealing" | "work-stealing" => Some(FleetScheduler::WorkStealing { workers: 0 }),
            "permuted" => Some(FleetScheduler::Permuted { seed: 0 }),
            _ => None,
        }
    }

    /// The worker count this scheduler *requests*: the declared cap for
    /// [`FleetScheduler::WorkStealing`] (`0` = machine-sized), `1` for
    /// the serial-execution schedulers. Machine-independent, so it is
    /// safe to embed in analysis facts and benchmark metadata.
    pub fn requested_workers(&self) -> usize {
        match self {
            FleetScheduler::Serial | FleetScheduler::Permuted { .. } => 1,
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

/// Splits `rounds` (starting at global shard step `start`) into chunks
/// that end only on `checkpoint_every` boundaries or at the final
/// round. Every shard advances `steps_run` in lockstep with the pool
/// (quarantine skips advance it too), so inside each planned chunk
/// `Shard::run` computes exactly the internal chunk sequence — and thus
/// the same fault accounting, clean-round records and checkpoint
/// captures — that one serial `run(rounds)` call would have produced.
pub(crate) fn chunk_plan(start: u64, rounds: u64, checkpoint_every: u64) -> Vec<u64> {
    let every = checkpoint_every.max(1);
    let mut plan = Vec::new();
    let mut done = 0u64;
    while done < rounds {
        let to_boundary = every - (start + done) % every;
        let chunk = to_boundary.min(rounds - done);
        plan.push(chunk);
        done += chunk;
    }
    plan
}

/// splitmix64 — tiny, seedable, and plenty for shuffling shard
/// visitation orders.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates permutation of `0..len`, advancing `state` so
/// consecutive chunks visit the shards in different orders.
pub(crate) fn shuffled_indices(state: &mut u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for sched in [
            FleetScheduler::Serial,
            FleetScheduler::WorkStealing { workers: 0 },
            FleetScheduler::Permuted { seed: 0 },
        ] {
            assert_eq!(FleetScheduler::from_name(sched.as_str()), Some(sched));
        }
        assert_eq!(
            FleetScheduler::from_name("work-stealing"),
            Some(FleetScheduler::WorkStealing { workers: 0 })
        );
        assert_eq!(FleetScheduler::from_name("threads"), None);
    }

    #[test]
    fn requested_workers_is_machine_independent() {
        assert_eq!(FleetScheduler::Serial.requested_workers(), 1);
        assert_eq!(FleetScheduler::Permuted { seed: 9 }.requested_workers(), 1);
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

    #[test]
    fn chunk_plan_cuts_only_on_boundaries() {
        // Aligned start: full intervals plus a remainder.
        assert_eq!(chunk_plan(0, 20, 8), vec![8, 8, 4]);
        // Unaligned start: first chunk tops up to the boundary.
        assert_eq!(chunk_plan(6, 10, 8), vec![2, 8]);
        // Degenerate cadence never loops forever.
        assert_eq!(chunk_plan(0, 3, 0), vec![1, 1, 1]);
        // Plans always sum to the requested rounds.
        for start in 0..10u64 {
            for rounds in 0..30u64 {
                let plan = chunk_plan(start, rounds, 8);
                assert_eq!(plan.iter().sum::<u64>(), rounds);
                let mut pos = start;
                for (i, &chunk) in plan.iter().enumerate() {
                    pos += chunk;
                    let last = i + 1 == plan.len();
                    assert!(last || pos % 8 == 0, "interior cut off-boundary");
                }
            }
        }
    }

    #[test]
    fn shuffles_are_seed_deterministic_permutations() {
        let mut a = 42u64;
        let mut b = 42u64;
        let oa = shuffled_indices(&mut a, 16);
        let ob = shuffled_indices(&mut b, 16);
        assert_eq!(oa, ob);
        let mut sorted = oa.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        // The advanced state yields a different order next chunk.
        assert_ne!(shuffled_indices(&mut a, 16), ob);
    }
}
