//! Supervision: per-node fault policies, health tracking and a circuit
//! breaker — component failure as a managed, inspectable condition.
//!
//! The paper leaves "reliability, scalability and performance" as future
//! work (§6); this module supplies the reliability half in the PerPos
//! spirit — fault handling is *translucent*. Policies are set per node
//! through the same facade that manipulates the process structure, health
//! is read through the typed [`crate::Middleware::node_health`], and the
//! Process Channel Layer aggregates member health per channel so Channel
//! Features and the Positioning Layer can reason over it (see
//! [`crate::channel::ChannelInfo::health`] and provider failover in
//! [`crate::positioning`]).
//!
//! The default policy is [`FaultPolicy::Propagate`], which preserves the
//! original engine contract: the first component error aborts the step.
//! Everything else is opt-in.

use std::collections::BTreeMap;

use crate::graph::NodeId;
use crate::{SimDuration, SimTime};

/// Cap on the exponential backoff doubling, so repeated probe failures
/// saturate instead of overflowing (2^20 ≈ 10⁶× the base backoff).
const MAX_BACKOFF_LEVEL: u32 = 20;

/// Upper bound, in seconds of simulated time, on a single quarantine
/// pause regardless of the backoff level. Without the cap the doubled
/// pause grows to ~10⁶× the base backoff, which in practice means a node
/// that failed a handful of probes is never looked at again; with it, a
/// long-quarantined node is guaranteed another probe within this bound.
pub const MAX_PROBE_PAUSE_SECS: u64 = 600;

/// What the engine does when a component (or one of its features) fails.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Abort the step and surface the error — the original engine
    /// behaviour, and the default.
    #[default]
    Propagate,
    /// Drop the offending work item (or tick output) and continue the
    /// step; the fault is counted and the node marked degraded.
    DropItem,
    /// Reset the component via [`crate::component::Component::on_reset`]
    /// and continue; the item that triggered the fault is lost.
    Restart,
    /// Circuit breaker: after `max_faults` faults within a sliding
    /// `window` of simulated time, the node is quarantined (skipped by
    /// the engine) for `backoff`, doubling on every failed probe; once
    /// the backoff elapses a single probe run is allowed, and a
    /// successful probe reinstates the node.
    Quarantine {
        /// Faults tolerated within `window` before the breaker opens.
        max_faults: u32,
        /// Sliding window over which faults are counted.
        window: SimDuration,
        /// Initial quarantine duration; doubles per failed probe.
        backoff: SimDuration,
    },
}

impl FaultPolicy {
    /// A quarantine policy with moderate defaults: 3 faults within 10 s
    /// opens the breaker for 5 s.
    pub fn quarantine_default() -> Self {
        FaultPolicy::Quarantine {
            max_faults: 3,
            window: SimDuration::from_secs(10),
            backoff: SimDuration::from_secs(5),
        }
    }

    /// Parses a policy from its configuration name (see
    /// [`crate::assembly::ComponentConfig::fault_policy`]). Returns
    /// `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "propagate" => Some(FaultPolicy::Propagate),
            "drop_item" => Some(FaultPolicy::DropItem),
            "restart" => Some(FaultPolicy::Restart),
            "quarantine" => Some(FaultPolicy::quarantine_default()),
            _ => None,
        }
    }
}

/// The health of one node, as tracked by the [`HealthRegistry`].
///
/// Ordered by badness (`Healthy < Degraded < Quarantined`) so the worst
/// member of a set is its `max()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthStatus {
    /// No recent faults.
    #[default]
    Healthy,
    /// Recent handled faults, or a quarantined node currently being
    /// probed (the breaker's half-open state).
    Degraded,
    /// The circuit breaker is open: the engine skips this node.
    Quarantined,
}

/// Per-node health record: status, counters and the last error seen.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeHealth {
    /// Current status.
    pub status: HealthStatus,
    /// Total faults observed (including propagated ones).
    pub faults: u64,
    /// Times the component was reset via `on_reset`.
    pub restarts: u64,
    /// Times the breaker opened.
    pub quarantines: u64,
    /// Rendered form of the most recent error.
    pub last_error: Option<String>,
    /// When the current quarantine expires, if open.
    pub quarantined_until: Option<SimTime>,
}

/// The action the engine must take for a handled fault, decided by
/// [`HealthRegistry::on_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Surface the error (abort the step).
    Propagate,
    /// Swallow the fault and continue.
    Drop,
    /// Reset the component, then continue.
    Restart,
    /// The breaker just opened: reset the component and skip it until
    /// the backoff elapses.
    Quarantine,
}

/// Everything the registry knows about one node that has faulted: its
/// public health record and its private circuit-breaker state.
#[derive(Debug, Clone, Default)]
struct NodeRecord {
    health: NodeHealth,
    /// Sliding-window fault timestamps (quarantine policy).
    window: Vec<SimTime>,
    /// Exponential backoff level (doubles per failed probe).
    backoff_level: u32,
    /// In the breaker's half-open state: one probe run allowed.
    probing: bool,
}

impl NodeRecord {
    /// Closes the breaker: healthy, no quarantine, no breaker state. The
    /// fault counters and last error stay.
    fn reset_breaker(&mut self) {
        self.health.status = HealthStatus::Healthy;
        self.health.quarantined_until = None;
        self.window.clear();
        self.backoff_level = 0;
        self.probing = false;
    }
}

/// Tracks fault policies and health for every node of one middleware
/// instance, implementing the quarantine circuit breaker over simulated
/// time.
#[derive(Debug, Clone, Default)]
pub struct HealthRegistry {
    policies: BTreeMap<NodeId, FaultPolicy>,
    /// One record per node that has faulted; a node that never faulted
    /// has none, so a healthy instance keeps this map empty.
    records: BTreeMap<NodeId, NodeRecord>,
}

impl HealthRegistry {
    /// Sets the fault policy for `id`, resetting its breaker state.
    pub fn set_policy(&mut self, id: NodeId, policy: FaultPolicy) {
        if let Some(r) = self.records.get_mut(&id) {
            r.reset_breaker();
        }
        self.policies.insert(id, policy);
    }

    /// The policy for `id` (default [`FaultPolicy::Propagate`]).
    pub fn policy(&self, id: NodeId) -> FaultPolicy {
        self.policies.get(&id).cloned().unwrap_or_default()
    }

    /// The health record for `id` (default healthy).
    pub fn health(&self, id: NodeId) -> NodeHealth {
        self.records
            .get(&id)
            .map(|r| r.health.clone())
            .unwrap_or_default()
    }

    /// The current status of `id`.
    pub fn status(&self, id: NodeId) -> HealthStatus {
        self.records
            .get(&id)
            .map(|r| r.health.status)
            .unwrap_or_default()
    }

    /// Forgets everything about `id` (component removed).
    pub fn forget(&mut self, id: NodeId) {
        self.policies.remove(&id);
        self.records.remove(&id);
    }

    /// Whether the engine must skip `id` this step. Expired quarantines
    /// transition to the half-open (probing) state, which allows one run.
    pub(crate) fn is_quarantined(&mut self, id: NodeId, now: SimTime) -> bool {
        // Records only exist for nodes that have faulted; a healthy
        // fleet answers every per-step probe from this one branch
        // instead of a tree lookup per node per step.
        if self.records.is_empty() {
            return false;
        }
        let Some(r) = self.records.get_mut(&id) else {
            return false;
        };
        if r.health.status != HealthStatus::Quarantined {
            return false;
        }
        match r.health.quarantined_until {
            Some(until) if now >= until => {
                // Half-open: let one probe run through.
                r.health.status = HealthStatus::Degraded;
                r.health.quarantined_until = None;
                r.probing = true;
                false
            }
            _ => true,
        }
    }

    /// Records a successful run of `id`. A successful probe reinstates a
    /// quarantined node; otherwise a degraded node recovers once its
    /// fault window has drained.
    pub(crate) fn record_success(&mut self, id: NodeId, now: SimTime) {
        // Same healthy-fleet fast path as `is_quarantined`: a half-open
        // probe belongs to a faulted node, so with no records there is
        // nothing to reinstate or recover.
        if self.records.is_empty() {
            return;
        }
        let Some(r) = self.records.get_mut(&id) else {
            return;
        };
        if r.probing {
            r.reset_breaker();
            return;
        }
        if r.health.status == HealthStatus::Degraded {
            let drained = match self.policies.get(&id) {
                Some(FaultPolicy::Quarantine { window, .. }) => {
                    r.window.retain(|t| now.since(*t) <= *window);
                    r.window.is_empty()
                }
                _ => true,
            };
            if drained {
                r.health.status = HealthStatus::Healthy;
            }
        }
    }

    /// Records a fault of `id` at `now` and decides the engine's action
    /// per the node's policy.
    pub(crate) fn on_fault(&mut self, id: NodeId, now: SimTime, reason: &str) -> FaultAction {
        let policy = self.policy(id);
        let r = self.records.entry(id).or_default();
        r.health.faults += 1;
        r.health.last_error = Some(reason.to_string());
        match policy {
            FaultPolicy::Propagate => FaultAction::Propagate,
            FaultPolicy::DropItem => {
                r.health.status = r.health.status.max(HealthStatus::Degraded);
                FaultAction::Drop
            }
            FaultPolicy::Restart => {
                r.health.status = r.health.status.max(HealthStatus::Degraded);
                r.health.restarts += 1;
                FaultAction::Restart
            }
            FaultPolicy::Quarantine {
                max_faults,
                window,
                backoff,
            } => {
                if std::mem::take(&mut r.probing) {
                    // Failed probe: re-open the breaker, doubled backoff.
                    r.backoff_level = (r.backoff_level + 1).min(MAX_BACKOFF_LEVEL);
                    r.health.status = HealthStatus::Quarantined;
                    r.health.quarantines += 1;
                    r.health.quarantined_until = Some(now + backoff_at(backoff, r.backoff_level));
                    return FaultAction::Quarantine;
                }
                r.window.push(now);
                r.window.retain(|t| now.since(*t) <= window);
                if r.window.len() as u64 >= u64::from(max_faults.max(1)) {
                    r.window.clear();
                    r.health.status = HealthStatus::Quarantined;
                    r.health.quarantines += 1;
                    r.health.quarantined_until = Some(now + backoff_at(backoff, r.backoff_level));
                    FaultAction::Quarantine
                } else {
                    r.health.status = HealthStatus::Degraded;
                    FaultAction::Drop
                }
            }
        }
    }
}

/// `backoff * 2^level`, saturating, capped at
/// [`MAX_PROBE_PAUSE_SECS`] so every quarantined node is re-probed
/// within a bounded pause.
fn backoff_at(backoff: SimDuration, level: u32) -> SimDuration {
    let factor = 1u64 << level.min(MAX_BACKOFF_LEVEL);
    let pause = backoff.as_micros().saturating_mul(factor);
    SimDuration::from_micros(pause.min(MAX_PROBE_PAUSE_SECS * 1_000_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(reg: &mut HealthRegistry) -> NodeId {
        // NodeId is opaque; fabricate one through a real graph.
        let mut g = crate::graph::ProcessingGraph::new();
        let id = g.add(Box::new(crate::component::FnSource::new(
            "s",
            crate::data::kinds::RAW_STRING,
            |_| None,
        )));
        let _ = reg;
        id
    }

    #[test]
    fn default_policy_propagates() {
        let mut reg = HealthRegistry::default();
        let id = nid(&mut reg);
        assert_eq!(reg.policy(id), FaultPolicy::Propagate);
        assert_eq!(
            reg.on_fault(id, SimTime::ZERO, "boom"),
            FaultAction::Propagate
        );
        let h = reg.health(id);
        assert_eq!(h.faults, 1);
        assert_eq!(h.last_error.as_deref(), Some("boom"));
        // Propagate leaves the status untouched.
        assert_eq!(h.status, HealthStatus::Healthy);
    }

    #[test]
    fn drop_and_restart_mark_degraded() {
        let mut reg = HealthRegistry::default();
        let id = nid(&mut reg);
        reg.set_policy(id, FaultPolicy::DropItem);
        assert_eq!(reg.on_fault(id, SimTime::ZERO, "e1"), FaultAction::Drop);
        assert_eq!(reg.status(id), HealthStatus::Degraded);
        reg.set_policy(id, FaultPolicy::Restart);
        assert_eq!(reg.on_fault(id, SimTime::ZERO, "e2"), FaultAction::Restart);
        assert_eq!(reg.health(id).restarts, 1);
    }

    #[test]
    fn quarantine_opens_after_max_faults_in_window() {
        let mut reg = HealthRegistry::default();
        let id = nid(&mut reg);
        reg.set_policy(
            id,
            FaultPolicy::Quarantine {
                max_faults: 3,
                window: SimDuration::from_secs(10),
                backoff: SimDuration::from_secs(5),
            },
        );
        let t = SimTime::from_secs_f64(1.0);
        assert_eq!(reg.on_fault(id, t, "e"), FaultAction::Drop);
        assert_eq!(reg.on_fault(id, t, "e"), FaultAction::Drop);
        assert_eq!(reg.on_fault(id, t, "e"), FaultAction::Quarantine);
        assert_eq!(reg.status(id), HealthStatus::Quarantined);
        assert!(reg.is_quarantined(id, t));
        // Not yet expired.
        assert!(reg.is_quarantined(id, t + SimDuration::from_secs(4)));
        // Expired: half-open, one probe allowed.
        let probe_t = t + SimDuration::from_secs(5);
        assert!(!reg.is_quarantined(id, probe_t));
        assert_eq!(reg.status(id), HealthStatus::Degraded);
        // Probe succeeds: reinstated.
        reg.record_success(id, probe_t);
        assert_eq!(reg.status(id), HealthStatus::Healthy);
        assert_eq!(reg.health(id).quarantines, 1);
    }

    #[test]
    fn failed_probe_doubles_backoff() {
        let mut reg = HealthRegistry::default();
        let id = nid(&mut reg);
        reg.set_policy(
            id,
            FaultPolicy::Quarantine {
                max_faults: 1,
                window: SimDuration::from_secs(10),
                backoff: SimDuration::from_secs(2),
            },
        );
        let t0 = SimTime::ZERO;
        assert_eq!(reg.on_fault(id, t0, "e"), FaultAction::Quarantine);
        assert_eq!(
            reg.health(id).quarantined_until,
            Some(t0 + SimDuration::from_secs(2))
        );
        // Probe at expiry fails: backoff doubles to 4 s.
        let t1 = t0 + SimDuration::from_secs(2);
        assert!(!reg.is_quarantined(id, t1));
        assert_eq!(reg.on_fault(id, t1, "e"), FaultAction::Quarantine);
        assert_eq!(
            reg.health(id).quarantined_until,
            Some(t1 + SimDuration::from_secs(4))
        );
        // Next failed probe: 8 s.
        let t2 = t1 + SimDuration::from_secs(4);
        assert!(!reg.is_quarantined(id, t2));
        assert_eq!(reg.on_fault(id, t2, "e"), FaultAction::Quarantine);
        assert_eq!(
            reg.health(id).quarantined_until,
            Some(t2 + SimDuration::from_secs(8))
        );
        // Successful probe resets the level.
        let t3 = t2 + SimDuration::from_secs(8);
        assert!(!reg.is_quarantined(id, t3));
        reg.record_success(id, t3);
        assert_eq!(reg.status(id), HealthStatus::Healthy);
        assert_eq!(reg.on_fault(id, t3, "e"), FaultAction::Quarantine);
        assert_eq!(
            reg.health(id).quarantined_until,
            Some(t3 + SimDuration::from_secs(2))
        );
    }

    #[test]
    fn probe_pause_is_capped_for_long_quarantined_nodes() {
        let mut reg = HealthRegistry::default();
        let id = nid(&mut reg);
        let backoff = SimDuration::from_secs(2);
        reg.set_policy(
            id,
            FaultPolicy::Quarantine {
                max_faults: 1,
                window: SimDuration::from_secs(10),
                backoff,
            },
        );
        let cap = SimDuration::from_secs(MAX_PROBE_PAUSE_SECS);
        let mut now = SimTime::ZERO;
        assert_eq!(reg.on_fault(id, now, "e"), FaultAction::Quarantine);
        let mut saturated = false;
        // Fail every probe for far more rounds than it takes the doubled
        // pause to pass the cap (2 s * 2^9 > 600 s).
        for _ in 0..40 {
            let until = reg.health(id).quarantined_until.expect("breaker open");
            let pause = until.since(now);
            assert!(
                pause <= cap,
                "pause {}s exceeds the {}s cap",
                pause.as_secs_f64(),
                cap.as_secs_f64()
            );
            saturated |= pause == cap;
            // The node is re-probed no later than one cap after the
            // quarantine opened: half-open by then, so not skipped.
            assert!(!reg.is_quarantined(id, now + cap));
            now += cap;
            assert_eq!(reg.on_fault(id, now, "e"), FaultAction::Quarantine);
        }
        assert!(saturated, "backoff never reached the cap");
        // A successful probe still resets the level to the base backoff.
        let until = reg.health(id).quarantined_until.expect("breaker open");
        now = until;
        assert!(!reg.is_quarantined(id, now));
        reg.record_success(id, now);
        assert_eq!(reg.on_fault(id, now, "e"), FaultAction::Quarantine);
        assert_eq!(reg.health(id).quarantined_until, Some(now + backoff));
    }

    #[test]
    fn registry_clones_preserve_breaker_state() {
        let mut reg = HealthRegistry::default();
        let id = nid(&mut reg);
        reg.set_policy(
            id,
            FaultPolicy::Quarantine {
                max_faults: 1,
                window: SimDuration::from_secs(10),
                backoff: SimDuration::from_secs(2),
            },
        );
        reg.on_fault(id, SimTime::ZERO, "e");
        let mut a = reg.clone();
        let mut b = reg;
        // Clone and original evolve identically from the cloned state.
        let t = SimTime::from_secs_f64(2.0);
        assert_eq!(a.is_quarantined(id, t), b.is_quarantined(id, t));
        assert_eq!(a.on_fault(id, t, "e"), b.on_fault(id, t, "e"));
        assert_eq!(a.health(id), b.health(id));
    }

    #[test]
    fn window_expiry_forgets_old_faults() {
        let mut reg = HealthRegistry::default();
        let id = nid(&mut reg);
        reg.set_policy(
            id,
            FaultPolicy::Quarantine {
                max_faults: 2,
                window: SimDuration::from_secs(1),
                backoff: SimDuration::from_secs(5),
            },
        );
        assert_eq!(reg.on_fault(id, SimTime::ZERO, "e"), FaultAction::Drop);
        // 2 s later the first fault has aged out: still only one in window.
        let later = SimTime::from_secs_f64(2.0);
        assert_eq!(reg.on_fault(id, later, "e"), FaultAction::Drop);
        assert_eq!(reg.status(id), HealthStatus::Degraded);
        // A quiet success with an empty window restores health.
        reg.record_success(id, SimTime::from_secs_f64(4.0));
        assert_eq!(reg.status(id), HealthStatus::Healthy);
    }

    #[test]
    fn policy_names_round_trip() {
        assert_eq!(
            FaultPolicy::from_name("propagate"),
            Some(FaultPolicy::Propagate)
        );
        assert_eq!(
            FaultPolicy::from_name("drop_item"),
            Some(FaultPolicy::DropItem)
        );
        assert_eq!(
            FaultPolicy::from_name("restart"),
            Some(FaultPolicy::Restart)
        );
        assert_eq!(
            FaultPolicy::from_name("quarantine"),
            Some(FaultPolicy::quarantine_default())
        );
        assert_eq!(FaultPolicy::from_name("nope"), None);
    }

    #[test]
    fn forget_clears_all_state() {
        let mut reg = HealthRegistry::default();
        let id = nid(&mut reg);
        reg.set_policy(id, FaultPolicy::quarantine_default());
        reg.on_fault(id, SimTime::ZERO, "e");
        reg.forget(id);
        assert_eq!(reg.policy(id), FaultPolicy::Propagate);
        assert_eq!(reg.health(id), NodeHealth::default());
    }
}
