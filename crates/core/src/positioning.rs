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
use std::sync::{atomic::AtomicUsize, atomic::Ordering, Arc};

use crate::channel::ChannelInfo;
use crate::component::{Component, ComponentCtx, ComponentDescriptor, InputSpec};
use crate::data::{DataItem, DataKind, Position, Value};
use crate::supervision::HealthStatus;
use crate::{CoreError, SimDuration, SimTime};

/// How many delivered items a sink retains while a history reader lives.
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

/// How many items a sink retains with no history reader: the last-known
/// item and, when that is not a position, the last-known position.
const LAST_KNOWN: usize = 2;

#[derive(Default)]
struct SinkInner {
    history: VecDeque<DataItem>,
    subscriptions: Vec<Subscription>,
    proximity: Vec<ProximityWatch>,
    delivered: u64,
}

/// State shared between an application sink node in the graph and the
/// [`LocationProvider`] handles created from it.
///
/// History is retained by demand: while a reader lives (see
/// [`HistoryReader`]) the sink keeps its last [`SINK_HISTORY_CAP`]
/// deliveries; with none it keeps at most [`LAST_KNOWN`]: the last item
/// and, when that is not a position, the last position before it.
/// Subscriptions and proximity watches are push paths and do not read
/// the history.
#[derive(Default)]
pub(crate) struct SinkShared {
    inner: Mutex<SinkInner>,
    /// Live [`HistoryReader`]s. It only sizes the history, so relaxed
    /// ordering suffices: the lock orders the deliveries themselves.
    readers: AtomicUsize,
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
        let history = &mut inner.history;
        if self.readers.load(Ordering::Relaxed) > 0 {
            if history.len() == SINK_HISTORY_CAP {
                history.pop_front();
            }
        } else {
            // No reader: keep only the last-known position, and only when
            // the new item is not itself a position.
            let before = history.len();
            let last_position = match item.payload.as_position() {
                Some(_) => None,
                None => history
                    .iter()
                    .rposition(|i| i.payload.as_position().is_some()),
            };
            match last_position {
                Some(k) => {
                    history.truncate(k + 1);
                    history.drain(..k);
                }
                None => history.clear(),
            }
            if before > LAST_KNOWN {
                // The last reader went away: give back the ring's buffer too.
                history.shrink_to_fit();
            }
        }
        history.push_back(item.clone());
    }

    /// The newest retained item for which `pick` yields a value.
    fn newest<T>(&self, pick: impl FnMut(&DataItem) -> Option<T>) -> Option<T> {
        self.inner.lock().history.iter().rev().find_map(pick)
    }

    fn last_item(&self, criteria: &Criteria) -> Option<DataItem> {
        self.newest(|i| criteria.matches(i).then(|| i.clone()))
    }

    /// The newest matching position whose item passes `fresh`.
    fn last_position(
        &self,
        criteria: &Criteria,
        fresh: impl Fn(&DataItem) -> bool,
    ) -> Option<Position> {
        self.newest(|i| {
            if criteria.matches(i) && fresh(i) {
                i.payload.as_position().copied()
            } else {
                None
            }
        })
    }
}

/// A counted handle on a sink: while one lives, the sink retains up to
/// [`SINK_HISTORY_CAP`] items for it to read. Every [`LocationProvider`]
/// and [`FailoverProvider`] (clones included) holds one.
struct HistoryReader(Arc<SinkShared>);

impl HistoryReader {
    fn new(shared: Arc<SinkShared>) -> Self {
        shared.readers.fetch_add(1, Ordering::Relaxed);
        HistoryReader(shared)
    }
}

impl Clone for HistoryReader {
    fn clone(&self) -> Self {
        HistoryReader::new(Arc::clone(&self.0))
    }
}

impl Drop for HistoryReader {
    fn drop(&mut self) {
        self.0.readers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl std::ops::Deref for HistoryReader {
    type Target = SinkShared;

    fn deref(&self) -> &SinkShared {
        &self.0
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
/// Cheap to clone; all clones observe the same sink. While any provider
/// on a sink lives (or a [`FailoverProvider`] on it), the sink retains
/// its last 1,024 deliveries for pull reads; with none, it keeps only
/// the last-known item and, when that is not a position, the
/// last-known position. A provider created while no other lived
/// therefore sees at most those two of the items delivered before it.
/// Subscriptions and proximity alerts receive every future item either
/// way.
#[derive(Clone)]
pub struct LocationProvider {
    shared: HistoryReader,
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
        LocationProvider {
            shared: HistoryReader::new(shared),
            criteria,
        }
    }

    /// The criteria this provider filters by.
    pub fn criteria(&self) -> &Criteria {
        &self.criteria
    }

    /// Pull semantics: the most recent matching retained item, if any.
    ///
    /// Of the items delivered while no provider on the sink lived, only
    /// the last-known item and position are retained: if neither
    /// matches, a provider created afterwards answers `None` until a
    /// matching item arrives.
    pub fn last_item(&self) -> Option<DataItem> {
        self.shared.last_item(&self.criteria)
    }

    /// Pull semantics: the most recent matching retained *position*
    /// (retention as for [`LocationProvider::last_item`]).
    pub fn last_position(&self) -> Option<Position> {
        self.shared.last_position(&self.criteria, |_| true)
    }

    /// All currently retained matching items, oldest first: at most the
    /// last 1,024 deliveries, and of those made while no provider lived
    /// only the last-known item and position (see [`LocationProvider`]).
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
        self.shared
            .last_position(&self.criteria, |i| now.since(i.timestamp) <= max_age)
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
/// Like a [`LocationProvider`], it keeps the sink's history retained
/// while it lives.
#[derive(Clone)]
pub struct FailoverProvider {
    sink: HistoryReader,
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
        FailoverProvider {
            sink: HistoryReader::new(sink),
            shared,
        }
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
        self.sink.last_item(&self.active_criteria()?)
    }

    /// The most recent position matching the active criteria, if any.
    pub fn last_position(&self) -> Option<Position> {
        self.sink.last_position(&self.active_criteria()?, |_| true)
    }

    /// Freshness-bounded pull through the active criteria (see
    /// [`LocationProvider::last_position_within`]).
    pub fn last_position_within(&self, max_age: SimDuration, now: SimTime) -> Option<Position> {
        self.sink.last_position(&self.active_criteria()?, |i| {
            now.since(i.timestamp) <= max_age
        })
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
        let any = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        shared.deliver(&pos_item(1.0, 1.0, Some(5.0), 1));
        shared.deliver(&pos_item(2.0, 2.0, Some(50.0), 2));
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
        let reader = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        for i in 0..(SINK_HISTORY_CAP as u64 + 10) {
            shared.deliver(&pos_item(1.0, 1.0, None, i));
        }
        assert_eq!(shared.inner.lock().history.len(), SINK_HISTORY_CAP);
        // A reader alive before delivery sees the newest capped history.
        assert_eq!(reader.history()[0].timestamp, SimTime::from_micros(10));
    }

    /// Items the sink currently retains.
    fn retained(shared: &SinkShared) -> usize {
        shared.inner.lock().history.len()
    }

    fn deliver_n(shared: &SinkShared, n: u64) {
        for t in 0..n {
            shared.deliver(&pos_item(1.0 + (t % 80) as f64, 1.0, None, t));
        }
    }

    #[test]
    fn without_a_reader_a_late_provider_sees_only_the_last_item() {
        let shared = Arc::new(SinkShared::default());
        deliver_n(&shared, 10);
        assert_eq!(retained(&shared), 1);
        let late = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        let history = late.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].timestamp, SimTime::from_micros(9));
        assert_eq!(late.last_item().unwrap().timestamp, SimTime::from_micros(9));
        assert_eq!(late.last_position().unwrap().coord().lat_deg(), 10.0);
        assert_eq!(late.delivered_count(), 10);
        // The late provider is a reader from now on.
        shared.deliver(&pos_item(20.0, 1.0, None, 10));
        assert_eq!(late.history().len(), 2);
    }

    fn text_item(t: u64) -> DataItem {
        DataItem::new(
            kinds::NMEA_SENTENCE,
            SimTime::from_micros(t),
            Value::from("$GPZDA"),
        )
    }

    #[test]
    fn without_a_reader_the_last_position_outlives_other_kinds() {
        let shared = Arc::new(SinkShared::default());
        deliver_n(&shared, 10);
        for t in 10..15 {
            shared.deliver(&text_item(t));
        }
        assert_eq!(retained(&shared), 2, "the last position and the last item");
        let late = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        let stamps: Vec<u64> = late
            .history()
            .iter()
            .map(|i| i.timestamp.as_micros())
            .collect();
        assert_eq!(stamps, [9, 14]);
        assert_eq!(late.last_item().unwrap().kind, kinds::NMEA_SENTENCE);
        assert_eq!(late.last_position().unwrap().coord().lat_deg(), 10.0);
        let positions = LocationProvider::new(
            Arc::clone(&shared),
            Criteria::new().kind(kinds::POSITION_WGS84),
        );
        assert_eq!(positions.last_item().unwrap().timestamp.as_micros(), 9);
        drop((late, positions));
        // A new position replaces both.
        shared.deliver(&pos_item(30.0, 1.0, None, 15));
        assert_eq!(retained(&shared), 1);
    }

    #[test]
    fn k_nearest_targets_finds_a_target_whose_last_item_is_not_a_position() {
        use crate::component::FnSource;
        let mut mw = crate::Middleware::new();
        let carol = mw.add_target("carol");
        let mut fixes = 0;
        let gps = mw.add_component(FnSource::new(
            "gps-carol",
            kinds::POSITION_WGS84,
            move |_| {
                fixes += 1;
                (fixes == 1).then(|| Value::from(Position::new(wgs(10.0, 10.0), Some(5.0))))
            },
        ));
        let nmea = mw.add_component(FnSource::new("nmea-carol", kinds::NMEA_SENTENCE, |_| {
            Some(Value::from("$GPZDA"))
        }));
        mw.connect(gps, carol.node(), 0).unwrap();
        mw.connect(nmea, carol.node(), 1).unwrap();
        for _ in 0..5 {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(100));
        }
        let p = carol.provider(Criteria::new());
        assert_eq!(p.last_item().unwrap().kind, kinds::NMEA_SENTENCE);
        let nearest = mw.k_nearest_targets(&wgs(10.0, 10.0), 1);
        assert_eq!(nearest.len(), 1);
        assert_eq!(nearest[0].0, "carol");
    }

    #[test]
    fn k_nearest_targets_answers_without_a_reader() {
        use crate::component::FnSource;
        let mut mw = crate::Middleware::new();
        let alice = mw.add_target("alice");
        let src = mw.add_component(FnSource::new("gps-alice", kinds::POSITION_WGS84, |_| {
            Some(Value::from(Position::new(wgs(10.0, 10.0), Some(5.0))))
        }));
        mw.connect(src, alice.node(), 0).unwrap();
        for _ in 0..5 {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(100));
        }
        let nearest = mw.k_nearest_targets(&wgs(10.0, 10.0), 1);
        assert_eq!(nearest.len(), 1);
        assert_eq!(nearest[0].0, "alice");
        assert_eq!(alice.provider(Criteria::new()).history().len(), 1);
    }

    #[test]
    fn clones_targets_and_failover_providers_read_subscriptions_do_not() {
        // A subscription (and a proximity watch) outliving its provider.
        let shared = Arc::new(SinkShared::default());
        let provider = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        let rx = provider.subscribe();
        let zone = provider.proximity_alert(wgs(1.0, 1.0), 10.0);
        drop(provider);
        deliver_n(&shared, 3);
        assert_eq!(rx.try_iter().count(), 3);
        assert_eq!(zone.try_iter().count(), 2, "entered, then left");
        assert_eq!(retained(&shared), 1);

        // A clone outliving the provider it was cloned from.
        let shared = Arc::new(SinkShared::default());
        let clone = LocationProvider::new(Arc::clone(&shared), Criteria::new()).clone();
        deliver_n(&shared, 3);
        assert_eq!(clone.history().len(), 3);

        // A failover provider.
        let shared = Arc::new(SinkShared::default());
        let prefs = vec![Criteria::new()];
        let failover = FailoverProvider::new(
            Arc::clone(&shared),
            Arc::new(FailoverShared::new(prefs, &[])),
        );
        deliver_n(&shared, 3);
        assert_eq!(retained(&shared), 3);
        drop(failover);

        // A target's provider.
        let mut mw = crate::Middleware::new();
        let bob = mw.add_target("bob");
        let p = bob.provider(Criteria::new());
        let mut n = 0;
        let src = mw.add_component(crate::component::FnSource::new(
            "s",
            kinds::RAW_STRING,
            move |_| {
                n += 1;
                Some(Value::Int(n))
            },
        ));
        mw.connect(src, bob.node(), 0).unwrap();
        for _ in 0..3 {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(100));
        }
        assert_eq!(p.history().len(), 3);
    }

    #[test]
    fn the_delivery_after_the_last_reader_drops_frees_the_history() {
        let shared = Arc::new(SinkShared::default());
        let reader = LocationProvider::new(Arc::clone(&shared), Criteria::new());
        let first = pos_item(0.0, 1.0, None, 0);
        shared.deliver(&first);
        deliver_n(&shared, 4);
        assert_eq!(first.payload.holders(), 2, "the test's and the history's");
        drop(reader);
        assert_eq!(
            retained(&shared),
            5,
            "dropping the reader alone frees nothing"
        );
        shared.deliver(&pos_item(2.0, 2.0, None, 5));
        assert_eq!(first.payload.holders(), 1);
        let inner = shared.inner.lock();
        assert_eq!(inner.history.len(), 1);
        assert!(inner.history.capacity() < 8, "the ring's buffer shrank too");
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
