//! Shard-level circuit breaker: escalates repeated instance failures to
//! a whole-shard quarantine with seeded exponential backoff.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Cap on the watchdog's backoff doubling; the per-node supervisor caps
/// its own ladder the same way.
pub const MAX_SHARD_BACKOFF_LEVEL: u32 = 10;

/// Base quarantine pause in shard rounds; consecutive trips double it.
pub const SHARD_BACKOFF: u64 = 4;

/// Watches one shard's fault stream and opens a quarantine window when
/// instance failures cluster: `threshold` faults within the last
/// `window` shard steps trip the breaker for `SHARD_BACKOFF * 2^level`
/// steps plus a seeded jitter of up to half that. Each consecutive trip
/// doubles the pause (capped); a clean round resets the ladder.
#[derive(Debug, Clone)]
pub struct Watchdog {
    threshold: u32,
    window: u64,
    rng: StdRng,
    level: u32,
    recent: VecDeque<u64>,
    until: Option<u64>,
    quarantines: u64,
}

impl Watchdog {
    /// Creates a watchdog tripping after `threshold` faults within
    /// `window` steps, pausing [`SHARD_BACKOFF`] steps at first.
    ///
    /// The `seed` is **shard-local** by contract: the pool derives it
    /// as `FleetConfig::seed + shard_id` at construction, each watchdog
    /// owns its own RNG, and jitter draws are a pure function of this
    /// seed and the shard's own fault history. No draw ever depends on
    /// another shard's activity or on shard visitation order — which is
    /// exactly why backoff schedules stay byte-identical when the
    /// work-stealing [`FleetScheduler`](crate::fleet::FleetScheduler)
    /// steps the shards concurrently and in any order.
    pub fn new(threshold: u32, window: u64, seed: u64) -> Self {
        Watchdog {
            threshold: threshold.max(1),
            window: window.max(1),
            rng: StdRng::seed_from_u64(seed),
            level: 0,
            recent: VecDeque::new(),
            until: None,
            quarantines: 0,
        }
    }

    /// Records one instance fault at shard step `step`; returns `true`
    /// when this fault trips the breaker.
    pub fn record_fault(&mut self, step: u64) -> bool {
        self.recent.push_back(step);
        while let Some(&front) = self.recent.front() {
            if front + self.window <= step {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        if self.recent.len() >= self.threshold as usize {
            let base = SHARD_BACKOFF.saturating_mul(1 << self.level.min(MAX_SHARD_BACKOFF_LEVEL));
            let jitter = (base as f64 * 0.5 * self.rng.gen::<f64>()) as u64;
            self.until = Some(step + base + jitter);
            self.level = (self.level + 1).min(MAX_SHARD_BACKOFF_LEVEL);
            self.quarantines += 1;
            self.recent.clear();
            return true;
        }
        false
    }

    /// Records a shard round that completed without any instance fault;
    /// closes the ladder so the next trip starts from the base backoff.
    pub fn record_clean_round(&mut self) {
        self.level = 0;
    }

    /// When quarantined at `step`, the step at which the shard may run
    /// again; `None` while the breaker is closed.
    pub fn quarantined_until(&self, step: u64) -> Option<u64> {
        self.until.filter(|&u| u > step)
    }

    /// Number of times the breaker has tripped.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_only_when_faults_cluster() {
        let mut w = Watchdog::new(3, 10, 1);
        assert!(!w.record_fault(0));
        assert!(!w.record_fault(1));
        assert!(w.record_fault(2), "third fault within the window trips");
        assert_eq!(w.quarantines(), 1);
        let until = w.quarantined_until(2).unwrap();
        assert!(
            (6..=8).contains(&until),
            "base 4 + jitter <= 2 from step 2, got {until}"
        );
        assert!(w.quarantined_until(until).is_none(), "closes at the bound");
    }

    #[test]
    fn old_faults_age_out_of_the_window() {
        let mut w = Watchdog::new(3, 5, 1);
        assert!(!w.record_fault(0));
        assert!(!w.record_fault(1));
        // Step 6: the fault at step 0 (and 1) aged out; no trip.
        assert!(!w.record_fault(6));
        assert!(!w.record_fault(7));
        assert!(w.record_fault(8));
    }

    #[test]
    fn backoff_doubles_until_clean_round_resets() {
        let mut w = Watchdog::new(1, 4, 2);
        assert!(w.record_fault(0));
        let first = w.quarantined_until(0).unwrap();
        assert!((4..=6).contains(&first), "base 4 + jitter, got {first}");
        assert!(w.record_fault(first));
        let second = w.quarantined_until(first).unwrap() - first;
        assert!(
            (8..=12).contains(&second),
            "doubled to 8 + jitter, got {second}"
        );
        w.record_clean_round();
        assert!(w.record_fault(100));
        let after_reset = w.quarantined_until(100).unwrap() - 100;
        assert!(
            (4..=6).contains(&after_reset),
            "ladder reset to base, got {after_reset}"
        );
    }

    #[test]
    fn seeded_watchdogs_replay_identically() {
        let mut a = Watchdog::new(1, 4, 7);
        let mut b = Watchdog::new(1, 4, 7);
        for step in [0u64, 20, 50, 90] {
            a.record_fault(step);
            b.record_fault(step);
            assert_eq!(a.quarantined_until(step), b.quarantined_until(step));
        }
    }
}
