//! Simulated distribution of the processing graph across hosts.
//!
//! The paper deploys PerPos on OSGi and notes that "because OSGi supports
//! transparent distribution of services through the D-OSGi specification
//! the processing graph can span several hosts with little added
//! configuration overhead" (§3.3) — in the EnTracked reimplementation the
//! Sensor Wrapper runs on the mobile device while Parser and Interpreter
//! run on a server (Fig. 7).
//!
//! This module reproduces that capability over the simulation: nodes are
//! assigned to named [`Host`]s through a [`Deployment`]; items crossing a
//! host boundary travel over a [`LinkModel`] with latency and loss, and
//! the engine delivers them when due. Link traffic is counted so
//! energy/cost models can observe it: per host pair through
//! [`Deployment::stats`], summed through [`Deployment::dist_stats`], both
//! reached through [`crate::Middleware::deployment`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::data::DataItem;
use crate::graph::NodeId;
use crate::{SimDuration, SimTime};

/// A named host in the deployment (e.g. `"mobile"`, `"server"`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Host(String);

impl Host {
    /// Creates a host name.
    pub fn new(name: impl Into<String>) -> Self {
        Host(name.into())
    }

    /// The host name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Host {
    fn from(s: &str) -> Self {
        Host::new(s)
    }
}

/// Exponent cap for the retransmission backoff: beyond this attempt the
/// wait (and its jitter) stops doubling, so very large `max_retries`
/// budgets cannot shift past the `u64` width or balloon the schedule.
/// Exiting through these capped iterations still abandons the message
/// through the single give-up path.
const BACKOFF_SHIFT_CAP: u64 = 20;

/// Network characteristics of the link between two hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way delivery latency.
    pub latency: SimDuration,
    /// Probability that a message is lost.
    pub loss_prob: f64,
    /// Ack/retransmit attempts after a loss before the message is given
    /// up on. The sender backs off exponentially between attempts: the
    /// wait before retransmission `n` is `latency * 2^(n-1)` plus a
    /// seeded jitter of up to half that, so a message delivered on
    /// attempt `n` arrives after roughly `latency * 2^n` (exactly
    /// `latency` for a first-attempt delivery). `0` reproduces the
    /// plain lossy link.
    pub max_retries: u32,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            latency: SimDuration::from_millis(40),
            loss_prob: 0.0,
            max_retries: 0,
        }
    }
}

/// Traffic counters for one host pair, in deployment order, or summed
/// over every pair by [`Deployment::dist_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Messages handed to the link.
    pub sent: u64,
    /// Messages delivered to the remote node.
    pub delivered: u64,
    /// Individual transmissions lost to the link, whether or not a
    /// later retransmission recovered the message.
    pub lost: u64,
    /// Retransmission attempts after losses (recovered or not).
    pub retransmitted: u64,
    /// Messages abandoned for good after exhausting `max_retries`
    /// (previously folded into `lost`).
    pub gave_up: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    due: SimTime,
    pair: (Host, Host),
    target: NodeId,
    port: usize,
    item: DataItem,
}

/// Assignment of graph nodes to hosts plus the link model — the
/// "configuration overhead" of distributing the graph, kept deliberately
/// small as the paper promises.
///
/// ```
/// use perpos_core::distribution::{Deployment, LinkModel};
/// use perpos_core::prelude::*;
///
/// let mut mw = Middleware::new();
/// let gps = mw.add_component(FnSource::new("gps", kinds::RAW_STRING, |_| {
///     Some(Value::from("$GP"))
/// }));
/// let app = mw.application_sink();
/// mw.connect(gps, app, 0)?;
/// mw.set_deployment(
///     Deployment::new("server")
///         .assign(gps, "mobile")
///         .default_link(LinkModel {
///             latency: SimDuration::from_millis(80),
///             loss_prob: 0.0,
///             max_retries: 0,
///         }),
/// );
/// mw.step()?; // the item is now in flight, not delivered
/// assert_eq!(mw.deployment().unwrap().in_flight(), 1);
/// # Ok::<(), perpos_core::CoreError>(())
/// ```
#[derive(Clone)]
pub struct Deployment {
    assignments: BTreeMap<NodeId, Host>,
    default_host: Host,
    links: BTreeMap<(Host, Host), LinkModel>,
    default_link: LinkModel,
    stats: BTreeMap<(Host, Host), LinkStats>,
    in_flight: Vec<InFlight>,
    rng: StdRng,
}

impl fmt::Debug for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("assignments", &self.assignments.len())
            .field("in_flight", &self.in_flight.len())
            .finish()
    }
}

impl Deployment {
    /// Creates a deployment where unassigned nodes live on `default_host`.
    pub fn new(default_host: impl Into<Host>) -> Self {
        Deployment {
            assignments: BTreeMap::new(),
            default_host: default_host.into(),
            links: BTreeMap::new(),
            default_link: LinkModel::default(),
            stats: BTreeMap::new(),
            in_flight: Vec::new(),
            rng: StdRng::seed_from_u64(0xd057),
        }
    }

    /// Assigns a node to a host (builder style).
    pub fn assign(mut self, node: NodeId, host: impl Into<Host>) -> Self {
        self.assignments.insert(node, host.into());
        self
    }

    /// Configures the link between two hosts, in both directions
    /// (builder style).
    pub fn link(mut self, a: impl Into<Host>, b: impl Into<Host>, model: LinkModel) -> Self {
        let (a, b) = (a.into(), b.into());
        self.links.insert((a.clone(), b.clone()), model);
        self.links.insert((b, a), model);
        self
    }

    /// Sets the link model used for host pairs without an explicit link
    /// (builder style).
    pub fn default_link(mut self, model: LinkModel) -> Self {
        self.default_link = model;
        self
    }

    /// Seeds the loss randomness (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// The host a node runs on.
    pub fn host_of(&self, node: NodeId) -> &Host {
        self.assignments.get(&node).unwrap_or(&self.default_host)
    }

    /// Traffic counters per (from, to) host pair.
    pub fn stats(&self) -> &BTreeMap<(Host, Host), LinkStats> {
        &self.stats
    }

    /// Traffic counters summed over every host pair.
    pub fn dist_stats(&self) -> LinkStats {
        self.stats
            .values()
            .fold(LinkStats::default(), |acc, s| LinkStats {
                sent: acc.sent + s.sent,
                delivered: acc.delivered + s.delivered,
                lost: acc.lost + s.lost,
                retransmitted: acc.retransmitted + s.retransmitted,
                gave_up: acc.gave_up + s.gave_up,
            })
    }

    /// Total messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the edge `from -> to` crosses hosts.
    pub(crate) fn crosses_hosts(&self, from: NodeId, to: NodeId) -> bool {
        self.host_of(from) != self.host_of(to)
    }

    /// Hands an item to the link; it will surface from
    /// [`Deployment::take_due`] when delivered (or never, when lost).
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        target: NodeId,
        port: usize,
        item: DataItem,
    ) {
        let key = (self.host_of(from).clone(), self.host_of(target).clone());
        let model = self.links.get(&key).copied().unwrap_or(self.default_link);
        // Roll the loss dice once per attempt. After losing attempt n the
        // sender waits a seeded exponential backoff of latency * 2^n plus
        // jitter of up to half that before retransmitting, so a message
        // delivered on the first attempt still arrives after exactly one
        // latency while retransmissions spread out instead of hammering
        // the link on a fixed ack timeout.
        let mut attempt: u64 = 0;
        let mut lost_transmissions: u64 = 0;
        let mut backoff_us: u64 = 0;
        // The loop has exactly two exits — delivery, or abandonment at
        // the retry budget — so the `gave_up` increment below runs at
        // most once per message whatever path (including the capped
        // backoff iterations past [`BACKOFF_SHIFT_CAP`]) led here. The
        // per-pair identity `lost == retransmitted + gave_up` follows
        // and is pinned by tests.
        let delivered = loop {
            let lost = model.loss_prob > 0.0 && self.rng.gen::<f64>() < model.loss_prob;
            if !lost {
                break true;
            }
            lost_transmissions += 1;
            if attempt >= u64::from(model.max_retries) {
                break false;
            }
            let base = model
                .latency
                .as_micros()
                .saturating_mul(1 << attempt.min(BACKOFF_SHIFT_CAP));
            let jitter = (base as f64 * 0.5 * self.rng.gen::<f64>()) as u64;
            backoff_us = backoff_us.saturating_add(base.saturating_add(jitter));
            attempt += 1;
        };
        let entry = self.stats.entry(key.clone()).or_default();
        entry.sent += 1;
        entry.retransmitted += attempt;
        entry.lost += lost_transmissions;
        if delivered {
            self.in_flight.push(InFlight {
                due: now + SimDuration::from_micros(backoff_us + model.latency.as_micros()),
                pair: key,
                target,
                port,
                item,
            });
        } else {
            entry.gave_up += 1;
        }
    }

    /// Removes and returns every in-flight item due at or before `now`.
    pub(crate) fn take_due(&mut self, now: SimTime) -> Vec<(NodeId, usize, DataItem)> {
        let mut due = Vec::new();
        let mut remaining = Vec::with_capacity(self.in_flight.len());
        for msg in self.in_flight.drain(..) {
            if msg.due <= now {
                self.stats.entry(msg.pair).or_default().delivered += 1;
                due.push((msg.target, msg.port, msg.item));
            } else {
                remaining.push(msg);
            }
        }
        self.in_flight = remaining;
        // Deterministic delivery order.
        due.sort_by_key(|(n, p, _)| (*n, *p));
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{kinds, Value};

    fn item() -> DataItem {
        DataItem::new(kinds::RAW_STRING, SimTime::ZERO, Value::Int(1))
    }

    #[test]
    fn host_defaults_and_assignment() {
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let d = Deployment::new("server").assign(a, "mobile");
        assert_eq!(d.host_of(a).as_str(), "mobile");
        let b = g.add(Box::new(crate::component::FnSource::new(
            "b",
            kinds::RAW_STRING,
            |_| None,
        )));
        assert_eq!(d.host_of(b).as_str(), "server");
        assert!(d.crosses_hosts(a, b));
        assert!(!d.crosses_hosts(b, b));
    }

    #[test]
    fn latency_delays_delivery() {
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let mut d = Deployment::new("server")
            .assign(a, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_millis(100),
                loss_prob: 0.0,
                max_retries: 0,
            });
        d.send(SimTime::ZERO, a, a, 0, item());
        assert_eq!(d.in_flight(), 1);
        assert!(d.take_due(SimTime::from_secs_f64(0.05)).is_empty());
        let due = d.take_due(SimTime::from_secs_f64(0.2));
        assert_eq!(due.len(), 1);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn loss_drops_messages() {
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let mut d = Deployment::new("server")
            .assign(a, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_millis(1),
                loss_prob: 1.0,
                max_retries: 0,
            })
            .with_seed(1);
        for _ in 0..10 {
            d.send(SimTime::ZERO, a, a, 0, item());
        }
        assert_eq!(d.in_flight(), 0);
        let stats = d.stats().values().next().unwrap();
        assert_eq!(stats.sent, 10);
        assert_eq!(stats.lost, 10);
        assert_eq!(stats.gave_up, 10, "every message abandoned for good");
    }

    #[test]
    fn retransmit_recovers_lost_messages() {
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let mut d = Deployment::new("server")
            .assign(a, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_millis(10),
                loss_prob: 0.5,
                max_retries: 8,
            })
            .with_seed(42);
        for _ in 0..100 {
            d.send(SimTime::ZERO, a, a, 0, item());
        }
        let stats = *d.stats().values().next().unwrap();
        assert_eq!(stats.sent, 100);
        // With 8 retries at 50% loss, effectively everything survives:
        // transmissions are lost (and counted) but no message gives up.
        assert_eq!(stats.gave_up, 0);
        assert!(stats.lost > 0, "individual transmissions were lost");
        assert_eq!(
            stats.lost, stats.retransmitted,
            "with no give-ups every lost transmission was retried"
        );
        assert_eq!(d.in_flight(), 100);
        assert!(
            stats.retransmitted > 50,
            "≈1 retransmission per message expected, got {}",
            stats.retransmitted
        );
        // Retransmitted messages arrive late: some due times are beyond
        // one latency.
        assert!(d.take_due(SimTime::from_secs_f64(0.010)).len() < 100);
        let mut total = d.take_due(SimTime::from_secs_f64(10.0)).len();
        total += 100 - d.in_flight() - total; // everything eventually due
        assert_eq!(total, 100);
        assert_eq!(d.dist_stats().delivered, 100);
    }

    #[test]
    fn zero_retries_keeps_plain_lossy_behaviour() {
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let mut d = Deployment::new("server")
            .assign(a, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_millis(1),
                loss_prob: 0.5,
                max_retries: 0,
            })
            .with_seed(7);
        for _ in 0..50 {
            d.send(SimTime::ZERO, a, a, 0, item());
        }
        let stats = *d.stats().values().next().unwrap();
        assert_eq!(stats.retransmitted, 0);
        assert_eq!(stats.sent, 50);
        assert_eq!(stats.lost + d.in_flight() as u64, 50);
        assert!(stats.lost > 0, "some messages lost without retries");
        assert_eq!(
            stats.gave_up, stats.lost,
            "without retries every lost transmission is a give-up"
        );
    }

    #[test]
    fn retransmit_backoff_is_exponential_and_seeded() {
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let build = || {
            Deployment::new("server")
                .assign(a, "mobile")
                .default_link(LinkModel {
                    latency: SimDuration::from_millis(10),
                    loss_prob: 0.5,
                    max_retries: 8,
                })
                .with_seed(9)
        };
        let mut d = build();
        for _ in 0..100 {
            d.send(SimTime::ZERO, a, a, 0, item());
        }
        // First-attempt deliveries arrive after exactly one latency; any
        // retransmitted message waits at least one full backoff (>= one
        // extra latency) first.
        let first_try = d.take_due(SimTime::from_secs_f64(0.010)).len();
        assert!(first_try > 0, "some messages survive the first roll");
        assert!(
            d.take_due(SimTime::from_secs_f64(0.019)).is_empty(),
            "no retransmission can arrive before latency * 2"
        );
        // Attempt-1 deliveries (backoff in [10, 15] ms plus latency) land
        // within 25 ms; later attempts spread further out.
        let second_wave = d.take_due(SimTime::from_secs_f64(0.025)).len();
        assert!(second_wave > 0, "attempt-1 deliveries arrive after backoff");
        let stats = *d.stats().values().next().unwrap();
        assert_eq!(
            first_try as u64 + second_wave as u64 + d.in_flight() as u64 + stats.gave_up,
            100
        );
        // Same seed, same schedule: the backoff jitter is deterministic.
        let mut e = build();
        for _ in 0..100 {
            e.send(SimTime::ZERO, a, a, 0, item());
        }
        assert_eq!(e.take_due(SimTime::from_secs_f64(0.010)).len(), first_try);
        assert!(e.take_due(SimTime::from_secs_f64(0.019)).is_empty());
        assert_eq!(e.take_due(SimTime::from_secs_f64(0.025)).len(), second_wave);
        assert_eq!(*e.stats().values().next().unwrap(), stats);
    }

    #[test]
    fn give_up_at_the_retry_boundary_counts_once() {
        // Certain loss exhausts the budget on every message, so each one
        // walks the loop exactly `max_retries + 1` times and exits at
        // the `attempt == max_retries` boundary. Abandonment must be
        // counted once per message, never per loop iteration.
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let mut d = Deployment::new("server")
            .assign(a, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_millis(10),
                loss_prob: 1.0,
                max_retries: 3,
            })
            .with_seed(3);
        for _ in 0..25 {
            d.send(SimTime::ZERO, a, a, 0, item());
        }
        let stats = *d.stats().values().next().unwrap();
        assert_eq!(stats.sent, 25);
        assert_eq!(stats.gave_up, 25, "exactly one give-up per message");
        assert_eq!(stats.retransmitted, 25 * 3, "max_retries retries each");
        assert_eq!(stats.lost, 25 * 4, "initial transmission plus retries");
        assert_eq!(
            stats.lost,
            stats.retransmitted + stats.gave_up,
            "every lost transmission is either retried or the final give-up"
        );
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn backoff_cap_exit_still_gives_up_exactly_once() {
        // A retry budget far past BACKOFF_SHIFT_CAP drives the loop
        // through the capped-backoff iterations (the shift stops growing
        // at 2^20); exiting through that path must neither overflow the
        // schedule arithmetic nor miscount the single give-up.
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let retries = BACKOFF_SHIFT_CAP as u32 + 44;
        let mut d = Deployment::new("server")
            .assign(a, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_secs(1),
                loss_prob: 1.0,
                max_retries: retries,
            })
            .with_seed(11);
        for _ in 0..5 {
            d.send(SimTime::ZERO, a, a, 0, item());
        }
        let stats = *d.stats().values().next().unwrap();
        assert_eq!(stats.sent, 5);
        assert_eq!(stats.gave_up, 5, "exactly one give-up per message");
        assert_eq!(stats.retransmitted, 5 * u64::from(retries));
        assert_eq!(stats.lost, stats.retransmitted + stats.gave_up);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn dist_stats_aggregates_pairs() {
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let b = g.add(Box::new(crate::component::FnSource::new(
            "b",
            kinds::RAW_STRING,
            |_| None,
        )));
        let mut d = Deployment::new("server")
            .assign(a, "mobile")
            .assign(b, "edge");
        d.send(SimTime::ZERO, a, b, 0, item());
        d.send(SimTime::ZERO, b, a, 0, item());
        let _ = d.take_due(SimTime::from_secs_f64(1.0));
        let agg = d.dist_stats();
        assert_eq!(agg.sent, 2);
        assert_eq!(agg.delivered, 2);
        assert_eq!(agg.lost, 0);
        assert_eq!(d.stats().len(), 2, "two host pairs tracked");
    }

    #[test]
    fn per_pair_link_overrides_default() {
        let mut g = crate::graph::ProcessingGraph::new();
        let a = g.add(Box::new(crate::component::FnSource::new(
            "a",
            kinds::RAW_STRING,
            |_| None,
        )));
        let b = g.add(Box::new(crate::component::FnSource::new(
            "b",
            kinds::RAW_STRING,
            |_| None,
        )));
        let mut d = Deployment::new("server")
            .assign(a, "mobile")
            .assign(b, "server")
            .link(
                "mobile",
                "server",
                LinkModel {
                    latency: SimDuration::from_secs(5),
                    loss_prob: 0.0,
                    max_retries: 0,
                },
            );
        d.send(SimTime::ZERO, a, b, 0, item());
        assert!(d.take_due(SimTime::from_secs_f64(4.0)).is_empty());
        assert_eq!(d.take_due(SimTime::from_secs_f64(5.0)).len(), 1);
    }
}
