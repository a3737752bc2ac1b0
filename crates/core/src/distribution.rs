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
//! host boundary travel over one [`LinkModel`] with latency and loss, and
//! the engine delivers them when due. A lost message is gone: the link
//! does not retransmit, so each send rolls the loss dice once. Link
//! traffic is counted so
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

/// Network characteristics of the link between hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way delivery latency.
    pub latency: SimDuration,
    /// Probability that a message is lost.
    pub loss_prob: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            latency: SimDuration::from_millis(40),
            loss_prob: 0.0,
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
    /// Messages lost to the link.
    pub lost: u64,
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
    link: LinkModel,
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
            link: LinkModel::default(),
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

    /// Sets the link model every host pair uses (builder style).
    pub fn default_link(mut self, model: LinkModel) -> Self {
        self.link = model;
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
        let lost = self.link.loss_prob > 0.0 && self.rng.gen::<f64>() < self.link.loss_prob;
        let entry = self.stats.entry(key.clone()).or_default();
        entry.sent += 1;
        if lost {
            entry.lost += 1;
        } else {
            self.in_flight.push(InFlight {
                due: now + self.link.latency,
                pair: key,
                target,
                port,
                item,
            });
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
            })
            .with_seed(1);
        for _ in 0..10 {
            d.send(SimTime::ZERO, a, a, 0, item());
        }
        assert_eq!(d.in_flight(), 0);
        let stats = d.stats().values().next().unwrap();
        assert_eq!(stats.sent, 10);
        assert_eq!(stats.lost, 10);
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
            })
            .with_seed(7);
        for _ in 0..50 {
            d.send(SimTime::ZERO, a, a, 0, item());
        }
        let stats = *d.stats().values().next().unwrap();
        assert_eq!(stats.sent, 50);
        assert_eq!(stats.lost + d.in_flight() as u64, 50);
        assert!(stats.lost > 0, "some messages lost without retries");
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
}
