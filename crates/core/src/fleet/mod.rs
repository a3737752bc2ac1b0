//! Supervised fleet runtime: many middleware instances, sharded, with
//! checkpoint/restore recovery and escalating supervision.
//!
//! The paper's middleware hosts *one* positioning process; deployments
//! host thousands (one per tracked device). This module scales the
//! engine to that shape without giving up determinism: a [`FleetPool`]
//! owns N [`Shard`]s, each shard owns a slice of [`Middleware`]
//! instances built by a shared factory and stepped through the
//! [`Middleware::step_batch`] fast path.
//!
//! Supervision escalates through three rungs:
//!
//! 1. **Inside an instance** — per-node [`FaultPolicy`] containment
//!    (drop / restart / quarantine), exactly as in a standalone
//!    middleware.
//! 2. **Instance restart** — a fault that escapes containment (a
//!    `Propagate` node failing, or a contained policy exhausted) fails
//!    the instance's step; the shard rebuilds the instance from the
//!    factory and restores its last [`Snapshot`] checkpoint, so the
//!    instance resumes from the checkpoint byte-identically to an
//!    uninterrupted run.
//! 3. **Shard quarantine** — repeated instance failures within a step
//!    window trip the shard's [`Watchdog`]: the whole shard stops
//!    stepping for a seeded exponential backoff (with jitter), then
//!    resumes; a clean round closes the breaker.
//!
//! Everything is seeded and stepped on simulated time, so a chaos soak
//! (`exp_fleet` in `perpos-bench`) replays bit-for-bit.
//!
//! Shards are **share-nothing**: instances, checkpoints, watchdog (and
//! its shard-local RNG) and counters all live inside one shard, and the
//! only shared object is the immutable instance factory. That is what
//! lets [`FleetPool::run`] distribute shards over cores through a
//! pluggable [`FleetScheduler`] — serial, work-stealing parallel, or
//! seed-permuted — with *byte-identical* observables under every
//! scheduler and worker count (`tests/fleet_parallel_determinism.rs`
//! proves it under faults, checkpoints and restores).
//!
//! [`FaultPolicy`]: crate::supervision::FaultPolicy
//! [`Middleware`]: crate::Middleware
//! [`Middleware::step_batch`]: crate::Middleware::step_batch

pub mod pool;
pub mod scheduler;
pub mod shard;
pub mod snapshot;
pub mod watchdog;

pub use pool::{FleetConfig, FleetPool, FleetStats, FleetTotals};
pub use scheduler::{machine_parallelism, FleetScheduler};
pub use shard::{Shard, ShardState, ShardStats};
pub use snapshot::{Snapshot, SNAPSHOT_VERSION};
pub use watchdog::Watchdog;
