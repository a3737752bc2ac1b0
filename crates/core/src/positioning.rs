//! The Positioning Layer: the traditional, JSR-179-like top API of PerPos
//! (paper §2.3).
//!
//! Applications request a [`LocationProvider`] matching a set of
//! [`Criteria`]; position data is then available technology-independently
//! with both **pull** ([`LocationProvider::last_position`]) and **push**
//! ([`LocationProvider::subscribe`]) semantics, plus location-related
//! notifications ([`LocationProvider::proximity_alert`]). Tracked targets
//! with several attached sensors are modelled as named application sinks
//! (see [`crate::Middleware::add_target`]).

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use perpos_geo::Wgs84;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::channel::ChannelInfo;
use crate::component::{Component, ComponentCtx, ComponentDescriptor, InputSpec};
use crate::data::{DataItem, DataKind, Position, Value};
use crate::supervision::HealthStatus;
use crate::{CoreError, SimDuration, SimTime};

/// How many delivered items a sink retains for pull-style access.
pub(crate) const SINK_HISTORY_CAP: usize = 1024;

/// Selection criteria for a location provider (paper §2: "applications
/// can request a location provider which matches a set of criteria").
///
/// ```
/// use perpos_core::prelude::*;
///
/// let precise_gps = Criteria::new()
///     .kind(kinds::POSITION_WGS84)
///     .source("gps")
///     .max_accuracy_m(10.0);
/// let mw = Middleware::new();
/// // No GPS in the graph yet: the request is rejected, not silently empty.
/// assert!(mw.location_provider(precise_gps).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Criteria {
    kinds: Vec<DataKind>,
    max_accuracy_m: Option<f64>,
    source: Option<String>,
    required_attrs: Vec<String>,
}

impl Criteria {
    /// Creates criteria matching any position-bearing item.
    pub fn new() -> Self {
        Criteria::default()
    }

    /// Restricts to items of the given kind (may be called repeatedly; an
    /// item matching any listed kind passes).
    pub fn kind(mut self, kind: DataKind) -> Self {
        self.kinds.push(kind);
        self
    }

    /// Requires a horizontal accuracy of at most `meters`. Items without
    /// an accuracy estimate are excluded.
    pub fn max_accuracy_m(mut self, meters: f64) -> Self {
        self.max_accuracy_m = Some(meters);
        self
    }

    /// Requires the item's `source` attribute to equal `source` — the
    /// technology selector (e.g. `"gps"`, `"wifi"`).
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Requires the presence of an attribute, whatever its value.
    pub fn with_attr(mut self, attr: impl Into<String>) -> Self {
        self.required_attrs.push(attr.into());
        self
    }

    /// The kinds this criteria selects (empty = any).
    pub fn kinds(&self) -> &[DataKind] {
        &self.kinds
    }

    /// The required source technology, if any (see [`Criteria::source`]).
    pub fn source_name(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Whether `item` satisfies the criteria.
    pub fn matches(&self, item: &DataItem) -> bool {
        if !self.kinds.is_empty() && !self.kinds.contains(&item.kind) {
            return false;
        }
        if let Some(max) = self.max_accuracy_m {
            match item.payload.as_position().and_then(|p| p.accuracy_m()) {
                Some(acc) if acc <= max => {}
                _ => return false,
            }
        }
        if let Some(src) = &self.source {
            if item.attr("source").and_then(Value::as_text) != Some(src.as_str()) {
                return false;
            }
        }
        self.required_attrs.iter().all(|a| item.attr(a).is_some())
    }
}

impl fmt::Display for Criteria {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kinds={:?} max_acc={:?} source={:?}",
            self.kinds
                .iter()
                .map(|k| k.as_str().to_string())
                .collect::<Vec<_>>(),
            self.max_accuracy_m,
            self.source
        )
    }
}

/// A proximity notification (paper §2: "location related notifications,
/// e.g., based on proximity to a point").
#[derive(Debug, Clone, PartialEq)]
pub struct ProximityEvent {
    /// Whether the target entered (`true`) or left (`false`) the zone.
    pub entered: bool,
    /// The position that triggered the transition.
    pub position: Position,
    /// Distance from the zone centre in metres.
    pub distance_m: f64,
    /// Simulated time of the triggering item.
    pub at: SimTime,
}

struct ProximityWatch {
    center: Wgs84,
    radius_m: f64,
    inside: bool,
    criteria: Criteria,
    tx: Sender<ProximityEvent>,
}

struct Subscription {
    criteria: Criteria,
    tx: Sender<DataItem>,
}

#[derive(Default)]
struct SinkInner {
    history: VecDeque<DataItem>,
    subscriptions: Vec<Subscription>,
    proximity: Vec<ProximityWatch>,
    delivered: u64,
}

/// State shared between an application sink node in the graph and the
/// [`LocationProvider`] handles created from it.
#[derive(Default)]
pub(crate) struct SinkShared {
    inner: Mutex<SinkInner>,
}

impl SinkShared {
    pub(crate) fn deliver(&self, item: &DataItem) {
        let mut inner = self.inner.lock();
        inner.delivered += 1;
        inner
            .subscriptions
            .retain(|s| !s.criteria.matches(item) || s.tx.send(item.clone()).is_ok());
        if let Some(pos) = item.payload.as_position().copied() {
            for w in inner.proximity.iter_mut() {
                if !w.criteria.matches(item) {
                    continue;
                }
                let d = pos.coord().distance_m(&w.center);
                let now_inside = d <= w.radius_m;
                if now_inside != w.inside {
                    w.inside = now_inside;
                    let _ = w.tx.send(ProximityEvent {
                        entered: now_inside,
                        position: pos,
                        distance_m: d,
                        at: item.timestamp,
                    });
                }
            }
        }
        inner.history.push_back(item.clone());
        if inner.history.len() > SINK_HISTORY_CAP {
            inner.history.pop_front();
        }
    }
}

/// The application end-point component: the root of the process tree.
///
/// Instances are created by [`crate::Middleware`]; they record every item
/// they receive and fan it out to providers, subscribers and proximity
/// watches.
pub(crate) struct ApplicationSink {
    name: String,
    shared: Arc<SinkShared>,
}

impl ApplicationSink {
    pub(crate) fn new(name: impl Into<String>) -> (Self, Arc<SinkShared>) {
        let shared = Arc::new(SinkShared::default());
        (
            ApplicationSink {
                name: name.into(),
                shared: Arc::clone(&shared),
            },
            shared,
        )
    }
}

/// Number of input ports an application sink offers; each connected
/// pipeline occupies one (the process-tree root has one branch per
/// channel, paper Fig. 2).
pub(crate) const SINK_PORTS: usize = 16;

impl Component for ApplicationSink {
    fn descriptor(&self) -> ComponentDescriptor {
        let mut d = ComponentDescriptor::sink(self.name.clone(), InputSpec::new("in0", vec![]));
        for i in 1..SINK_PORTS {
            d.inputs.push(InputSpec::new(format!("in{i}"), vec![]));
        }
        d
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        _ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        self.shared.deliver(&item);
        Ok(())
    }
}

/// A handle for retrieving position data that matches fixed criteria —
/// the technology-transparent access point of the Positioning Layer.
///
/// Cheap to clone; all clones observe the same sink.
#[derive(Clone)]
pub struct LocationProvider {
    shared: Arc<SinkShared>,
    criteria: Criteria,
}

impl fmt::Debug for LocationProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocationProvider")
            .field("criteria", &self.criteria)
            .finish()
    }
}

impl LocationProvider {
    pub(crate) fn new(shared: Arc<SinkShared>, criteria: Criteria) -> Self {
        LocationProvider { shared, criteria }
    }

    /// The criteria this provider filters by.
    pub fn criteria(&self) -> &Criteria {
        &self.criteria
    }

    /// Pull semantics: the most recent matching item, if any.
    pub fn last_item(&self) -> Option<DataItem> {
        let inner = self.shared.inner.lock();
        inner
            .history
            .iter()
            .rev()
            .find(|i| self.criteria.matches(i))
            .cloned()
    }

    /// Pull semantics: the most recent matching *position*.
    pub fn last_position(&self) -> Option<Position> {
        let inner = self.shared.inner.lock();
        inner
            .history
            .iter()
            .rev()
            .filter(|i| self.criteria.matches(i))
            .find_map(|i| i.payload.as_position().copied())
    }

    /// All currently retained matching items, oldest first.
    pub fn history(&self) -> Vec<DataItem> {
        let inner = self.shared.inner.lock();
        inner
            .history
            .iter()
            .filter(|i| self.criteria.matches(i))
            .cloned()
            .collect()
    }

    /// Push semantics: a channel receiving every future matching item.
    pub fn subscribe(&self) -> Receiver<DataItem> {
        let (tx, rx) = unbounded();
        self.shared.inner.lock().subscriptions.push(Subscription {
            criteria: self.criteria.clone(),
            tx,
        });
        rx
    }

    /// Registers a proximity alert around `center`: an event fires each
    /// time a matching position crosses the `radius_m` boundary.
    pub fn proximity_alert(&self, center: Wgs84, radius_m: f64) -> Receiver<ProximityEvent> {
        let (tx, rx) = unbounded();
        self.shared.inner.lock().proximity.push(ProximityWatch {
            center,
            radius_m,
            inside: false,
            criteria: self.criteria.clone(),
            tx,
        });
        rx
    }

    /// Pull semantics with a freshness bound: the most recent matching
    /// position no older than `max_age` relative to `now` (JSR-179-style
    /// freshness criteria).
    pub fn last_position_within(&self, max_age: SimDuration, now: SimTime) -> Option<Position> {
        let inner = self.shared.inner.lock();
        inner
            .history
            .iter()
            .rev()
            .filter(|i| self.criteria.matches(i) && now.since(i.timestamp) <= max_age)
            .find_map(|i| i.payload.as_position().copied())
    }

    /// Total number of items the underlying sink has delivered (matching
    /// or not) — a cheap liveness probe.
    pub fn delivered_count(&self) -> u64 {
        self.shared.inner.lock().delivered
    }
}

// ---------------------------------------------------------------------
// Provider failover (supervision at the Positioning Layer)
// ---------------------------------------------------------------------

/// A failover notification from a [`FailoverProvider`]: the set of
/// healthy pipelines changed and the provider re-resolved its criteria.
///
/// Preferences are identified by their index in the preference list the
/// provider was created with (0 = most preferred).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProviderEvent {
    /// The active preference lost its last healthy pipeline; the
    /// provider fell back to `to` (`None` = no healthy pipeline at all).
    Degraded {
        /// Index of the preference that became unavailable.
        from: usize,
        /// Index of the fallback now active, if any.
        to: Option<usize>,
        /// Simulated time of the transition.
        at: SimTime,
    },
    /// A higher-ranked preference became available again and the
    /// provider switched (back) to it.
    Recovered {
        /// Index previously active, if any.
        from: Option<usize>,
        /// Index of the preference now active.
        to: usize,
        /// Simulated time of the transition.
        at: SimTime,
    },
}

struct FailoverInner {
    active: Option<usize>,
    available: Vec<bool>,
    events: Vec<Sender<ProviderEvent>>,
}

/// State shared between the engine loop (which re-resolves after every
/// completed step) and the [`FailoverProvider`] handles observing it.
pub(crate) struct FailoverShared {
    prefs: Vec<Criteria>,
    inner: Mutex<FailoverInner>,
}

/// A location provider with criteria re-resolution over pipeline health:
/// an ordered list of [`Criteria`] preferences, of which the highest
/// ranked one whose feeding channels are not quarantined is *active*.
///
/// Reads ([`FailoverProvider::last_item`] and friends) filter by the
/// active criteria, so when the engine quarantines every component of
/// the preferred pipeline the provider transparently answers from the
/// next-best healthy one — the JSR-179-style surface degrades gracefully
/// instead of erroring (paper §6 reliability direction). Transitions are
/// observable through [`FailoverProvider::events`].
///
/// Created by [`crate::Middleware::failover_provider`]; cheap to clone.
#[derive(Clone)]
pub struct FailoverProvider {
    sink: Arc<SinkShared>,
    shared: Arc<FailoverShared>,
}

impl fmt::Debug for FailoverProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FailoverProvider")
            .field("prefs", &self.shared.prefs.len())
            .field("active", &self.active())
            .finish()
    }
}

impl FailoverProvider {
    pub(crate) fn new(sink: Arc<SinkShared>, shared: Arc<FailoverShared>) -> Self {
        FailoverProvider { sink, shared }
    }

    /// The ordered preference list (0 = most preferred).
    pub fn preferences(&self) -> &[Criteria] {
        &self.shared.prefs
    }

    /// Index of the currently active preference, if any is available.
    pub fn active(&self) -> Option<usize> {
        self.shared.inner.lock().active
    }

    /// The criteria currently answering reads, if any.
    pub fn active_criteria(&self) -> Option<Criteria> {
        let idx = self.shared.inner.lock().active?;
        self.shared.prefs.get(idx).cloned()
    }

    /// Whether the provider is running on anything but its first
    /// preference (including running on nothing).
    pub fn is_degraded(&self) -> bool {
        self.active() != Some(0)
    }

    /// Per-preference availability, index-aligned with
    /// [`FailoverProvider::preferences`].
    pub fn availability(&self) -> Vec<bool> {
        self.shared.inner.lock().available.clone()
    }

    /// Push semantics for failover transitions: a channel receiving
    /// every future [`ProviderEvent`].
    pub fn events(&self) -> Receiver<ProviderEvent> {
        let (tx, rx) = unbounded();
        self.shared.inner.lock().events.push(tx);
        rx
    }

    /// The most recent item matching the active criteria, if any.
    pub fn last_item(&self) -> Option<DataItem> {
        let criteria = self.active_criteria()?;
        LocationProvider::new(Arc::clone(&self.sink), criteria).last_item()
    }

    /// The most recent position matching the active criteria, if any.
    pub fn last_position(&self) -> Option<Position> {
        let criteria = self.active_criteria()?;
        LocationProvider::new(Arc::clone(&self.sink), criteria).last_position()
    }

    /// Freshness-bounded pull through the active criteria (see
    /// [`LocationProvider::last_position_within`]).
    pub fn last_position_within(&self, max_age: SimDuration, now: SimTime) -> Option<Position> {
        let criteria = self.active_criteria()?;
        LocationProvider::new(Arc::clone(&self.sink), criteria).last_position_within(max_age, now)
    }
}

impl FailoverShared {
    /// Failover state over `prefs`, resolved against `channels` without
    /// firing an event.
    pub(crate) fn new(prefs: Vec<Criteria>, channels: &[ChannelInfo]) -> Self {
        let available = availability(&prefs, channels);
        FailoverShared {
            prefs,
            inner: Mutex::new(FailoverInner {
                active: available.iter().position(|a| *a),
                available,
                events: Vec::new(),
            }),
        }
    }

    /// Re-resolves the preferences against `channels`, updating the
    /// active preference and notifying subscribers of a transition
    /// stamped `now`.
    pub(crate) fn resolve(&self, channels: &[ChannelInfo], now: SimTime) {
        let available = availability(&self.prefs, channels);
        let mut inner = self.inner.lock();
        let new_active = available.iter().position(|a| *a);
        let old_active = inner.active;
        inner.available = available;
        if new_active == old_active {
            return;
        }
        inner.active = new_active;
        let event = match (old_active, new_active) {
            (Some(from), None) => ProviderEvent::Degraded {
                from,
                to: None,
                at: now,
            },
            (Some(from), Some(to)) if to > from => ProviderEvent::Degraded {
                from,
                to: Some(to),
                at: now,
            },
            (from, Some(to)) => ProviderEvent::Recovered { from, to, at: now },
            (None, None) => return,
        };
        inner.events.retain(|tx| tx.send(event.clone()).is_ok());
    }
}

/// Which preferences have a healthy pipeline among `channels` (each
/// annotated with its worst member health): a preference naming a source
/// technology is available while some channel has a member whose name
/// starts with that technology name (case-insensitively) and no
/// quarantined member; a preference without a source is available while
/// any channel has no quarantined member.
fn availability(prefs: &[Criteria], channels: &[ChannelInfo]) -> Vec<bool> {
    prefs
        .iter()
        .map(|pref| {
            channels.iter().any(|c| {
                c.health != HealthStatus::Quarantined
                    && pref.source_name().is_none_or(|src| {
                        let src = src.to_lowercase();
                        c.member_names
                            .iter()
                            .any(|n| n.to_lowercase().starts_with(&src))
                    })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::kinds;

    fn wgs(lat: f64, lon: f64) -> Wgs84 {
        Wgs84::new(lat, lon, 0.0).unwrap()
    }

    fn pos_item(lat: f64, lon: f64, acc: Option<f64>, t: u64) -> DataItem {
        DataItem::new(
            kinds::POSITION_WGS84,
            SimTime::from_micros(t),
            Value::from(Position::new(wgs(lat, lon), acc)),
        )
    }

    #[test]
    fn criteria_matching() {
        let item = pos_item(56.0, 10.0, Some(8.0), 0).with_attr("source", Value::from("gps"));
        assert!(Criteria::new().matches(&item));
        assert!(Criteria::new().kind(kinds::POSITION_WGS84).matches(&item));
        assert!(!Criteria::new().kind(kinds::POSITION_ROOM).matches(&item));
        assert!(Criteria::new().max_accuracy_m(10.0).matches(&item));
        assert!(!Criteria::new().max_accuracy_m(5.0).matches(&item));
        assert!(Criteria::new().source("gps").matches(&item));
        assert!(!Criteria::new().source("wifi").matches(&item));
        assert!(Criteria::new().with_attr("source").matches(&item));
        assert!(!Criteria::new().with_attr("hdop").matches(&item));
        // No accuracy estimate fails accuracy-bounded criteria.
        let bare = pos_item(56.0, 10.0, None, 0);
        assert!(!Criteria::new().max_accuracy_m(100.0).matches(&bare));
    }

    #[test]
    fn pull_returns_most_recent_match() {
        let shared = Arc::new(SinkShared::default());
        shared.deliver(&pos_item(1.0, 1.0, Some(5.0), 1));
        shared.deliver(&pos_item(2.0, 2.0, Some(50.0), 2));
        let any = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        assert_eq!(any.last_position().unwrap().coord().lat_deg(), 2.0);
        let precise =
            LocationProvider::new(Arc::clone(&shared), Criteria::new().max_accuracy_m(10.0));
        assert_eq!(precise.last_position().unwrap().coord().lat_deg(), 1.0);
        assert_eq!(any.history().len(), 2);
        assert_eq!(precise.history().len(), 1);
        assert_eq!(any.delivered_count(), 2);
    }

    #[test]
    fn push_delivers_only_matches() {
        let shared = Arc::new(SinkShared::default());
        let provider = LocationProvider::new(
            Arc::clone(&shared),
            Criteria::new().kind(kinds::POSITION_WGS84),
        );
        let rx = provider.subscribe();
        shared.deliver(&pos_item(1.0, 1.0, None, 1));
        shared.deliver(&DataItem::new(
            kinds::RAW_STRING,
            SimTime::ZERO,
            Value::from("noise"),
        ));
        let got: Vec<DataItem> = rx.try_iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, kinds::POSITION_WGS84);
    }

    #[test]
    fn dropped_subscriber_is_pruned() {
        let shared = Arc::new(SinkShared::default());
        let provider = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        let rx = provider.subscribe();
        drop(rx);
        shared.deliver(&pos_item(1.0, 1.0, None, 1));
        assert_eq!(shared.inner.lock().subscriptions.len(), 0);
    }

    #[test]
    fn proximity_fires_on_boundary_crossings() {
        let shared = Arc::new(SinkShared::default());
        let provider = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        let center = wgs(56.0, 10.0);
        let rx = provider.proximity_alert(center, 200.0);

        // Far away: no event.
        shared.deliver(&pos_item(56.1, 10.0, None, 1));
        assert!(rx.try_recv().is_err());
        // Enter the zone.
        shared.deliver(&pos_item(56.0005, 10.0, None, 2));
        let e = rx.try_recv().unwrap();
        assert!(e.entered);
        assert!(e.distance_m < 200.0);
        // Still inside: no duplicate event.
        shared.deliver(&pos_item(56.0002, 10.0, None, 3));
        assert!(rx.try_recv().is_err());
        // Leave.
        shared.deliver(&pos_item(56.2, 10.0, None, 4));
        let e = rx.try_recv().unwrap();
        assert!(!e.entered);
    }

    #[test]
    fn freshness_bound_filters_stale_positions() {
        let shared = Arc::new(SinkShared::default());
        shared.deliver(&pos_item(1.0, 1.0, None, 1_000_000)); // t = 1 s
        let p = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        let now = SimTime::from_secs_f64(10.0);
        assert!(p
            .last_position_within(SimDuration::from_secs(5), now)
            .is_none());
        assert!(p
            .last_position_within(SimDuration::from_secs(20), now)
            .is_some());
    }

    #[test]
    fn history_is_bounded() {
        let shared = Arc::new(SinkShared::default());
        for i in 0..(SINK_HISTORY_CAP as u64 + 10) {
            shared.deliver(&pos_item(1.0, 1.0, None, i));
        }
        assert_eq!(shared.inner.lock().history.len(), SINK_HISTORY_CAP);
    }

    #[test]
    fn application_sink_records() {
        let (mut sink, shared) = ApplicationSink::new("app");
        let mut ctx = ComponentCtx::new(SimTime::ZERO);
        sink.on_input(0, pos_item(1.0, 2.0, None, 5), &mut ctx)
            .unwrap();
        let provider = LocationProvider::new(shared, Criteria::new());
        assert!(provider.last_position().is_some());
    }
}
