//! The dynamic data model flowing through the processing graph.
//!
//! The paper's middleware moves heterogeneous data — raw byte strings,
//! NMEA sentences, WGS-84 positions, room identifiers — through one graph,
//! and lets Component Features attach arbitrary extra data (HDOP values,
//! satellite counts) to items in flight. A strict type system cannot fix
//! those types at compile time without closing the system, so PerPos uses
//! a designed dynamic representation:
//!
//! * [`Value`] — a self-describing value (JSON-like, plus positions),
//! * [`DataKind`] — a namespaced tag describing what an item *is*
//!   (`"position.wgs84"`, `"nmea.sentence"`, …); ports declare the kinds
//!   they accept and provide,
//! * [`DataItem`] — a kind + timestamp + payload + feature-attached
//!   attributes, the unit that travels along graph edges.
//!
//! # The v3 data plane: arena-interned payloads and flattened attrs
//!
//! Steady-state throughput is bounded by representation, not scheduling:
//! a naive `Arc<Value>` payload plus `Arc<BTreeMap>` attrs pays one
//! allocation per produced item and pointer-chasing on every read. Two
//! structures remove that cost while keeping observable behavior
//! byte-identical:
//!
//! * [`PayloadArena`] — a per-shard recycler of `Value` slots: one
//!   bounded FIFO that rewrites its oldest slot in place once nothing
//!   else holds it ([`PayloadArena::intern`] /
//!   [`PayloadArena::intern_with`]). Decisions rest on the slot's own
//!   reference count, so an interned [`Payload`] is an ordinary shared
//!   `Arc` everywhere else — across distribution links, in snapshots and
//!   in history — and needs no conversion at any seam.
//! * [`Attrs`] — flattened from a string-keyed B-tree into a small sorted
//!   vec of ([`InternedKey`], [`Value`]) pairs behind one optional `Arc`.
//!   Attribute names are a tiny closed set at runtime (feature names), so
//!   a process-wide key interner turns every key into a copyable token;
//!   the empty map — the common case on the hot path — allocates nothing.

use perpos_geo::Wgs84;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::{CoreError, SimTime};

/// A namespaced tag classifying the data carried by a [`DataItem`].
///
/// Kinds are cheap to clone and compare. By convention they are
/// dot-namespaced lowercase, e.g. `"position.wgs84"`. The well-known kinds
/// used across the PerPos crates live in [`kinds`]. Edge routing does not
/// compare kind strings on the hot path: the graph interns every kind that
/// can appear on an edge into a dense `u16` id table at build time (see
/// `ProcessingGraph`), and `as_str()` stays for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DataKind(Cow<'static, str>);

impl DataKind {
    /// Creates a kind from a static string (zero allocation).
    pub const fn from_static(s: &'static str) -> Self {
        DataKind(Cow::Borrowed(s))
    }

    /// Creates a kind from a runtime string.
    pub fn new(s: impl Into<String>) -> Self {
        DataKind(Cow::Owned(s.into()))
    }

    /// The kind name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The kind name when it is a static borrow (the `kinds::*`
    /// constants and `from_static` kinds). Statics are never freed, so
    /// callers may use the returned reference's address as an identity
    /// key — equal address and length imply equal strings forever.
    pub fn as_static(&self) -> Option<&'static str> {
        match self.0 {
            Cow::Borrowed(s) => Some(s),
            Cow::Owned(_) => None,
        }
    }
}

impl fmt::Display for DataKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&'static str> for DataKind {
    fn from(s: &'static str) -> Self {
        DataKind(Cow::Borrowed(s))
    }
}

/// Well-known data kinds shared by the PerPos crates.
pub mod kinds {
    use super::DataKind;

    /// Raw sensor bytes rendered as text (e.g. NMEA lines off the wire).
    pub const RAW_STRING: DataKind = DataKind::from_static("raw.string");
    /// A parsed NMEA sentence (payload is the sentence encoded as a map).
    pub const NMEA_SENTENCE: DataKind = DataKind::from_static("nmea.sentence");
    /// A WGS-84 position ([`super::Value::Position`] payload).
    pub const POSITION_WGS84: DataKind = DataKind::from_static("position.wgs84");
    /// A symbolic room position (payload is the room id text).
    pub const POSITION_ROOM: DataKind = DataKind::from_static("position.room");
    /// A WiFi signal-strength scan (payload maps AP id to RSSI dBm).
    pub const WIFI_SCAN: DataKind = DataKind::from_static("wifi.scan");
    /// An accelerometer/motion sample (payload is a map).
    pub const MOTION_SAMPLE: DataKind = DataKind::from_static("motion.sample");
}

/// A self-describing dynamic value.
///
/// This is the payload representation of [`DataItem`]s and the argument /
/// return representation of the reflective `invoke` surfaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A floating point number.
    Float(f64),
    /// A text string.
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// An ordered list of values.
    List(Vec<Value>),
    /// A string-keyed map of values.
    Map(BTreeMap<String, Value>),
    /// A position (the primary domain value of a positioning middleware).
    Position(Position),
}

impl Value {
    /// The variant name, used in diagnostics.
    pub fn variant_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
            Value::Map(_) => "map",
            Value::Position(_) => "position",
        }
    }

    /// Numeric view: `Int` and `Float` read as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Position view.
    pub fn as_position(&self) -> Option<&Position> {
        match self {
            Value::Position(p) => Some(p),
            _ => None,
        }
    }

    /// Map view.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// List view.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Position view as an error-producing accessor for `?`-style code.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PayloadMismatch`] when the value is not a
    /// position.
    pub fn expect_position(&self) -> Result<&Position, CoreError> {
        self.as_position().ok_or(CoreError::PayloadMismatch {
            expected: "position",
            found: self.variant_name(),
        })
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<Position> for Value {
    fn from(v: Position) -> Self {
        Value::Position(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}
impl From<BTreeMap<String, Value>> for Value {
    fn from(v: BTreeMap<String, Value>) -> Self {
        Value::Map(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(l) => write!(f, "[{} items]", l.len()),
            Value::Map(m) => write!(f, "{{{} entries}}", m.len()),
            Value::Position(p) => write!(f, "{p}"),
        }
    }
}

/// A technology-independent position estimate: WGS-84 coordinates plus an
/// optional horizontal accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Position {
    coord: Wgs84,
    accuracy_m: Option<f64>,
}

impl Position {
    /// Creates a position with an optional 1-sigma horizontal accuracy in
    /// metres.
    pub fn new(coord: Wgs84, accuracy_m: Option<f64>) -> Self {
        Position { coord, accuracy_m }
    }

    /// The WGS-84 coordinates.
    pub fn coord(&self) -> &Wgs84 {
        &self.coord
    }

    /// The estimated horizontal accuracy in metres, if known.
    pub fn accuracy_m(&self) -> Option<f64> {
        self.accuracy_m
    }

    /// Distance in metres to another position.
    pub fn distance_m(&self, other: &Position) -> f64 {
        self.coord.distance_m(&other.coord)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.accuracy_m {
            Some(a) => write!(f, "{} ±{a:.1}m", self.coord),
            None => write!(f, "{}", self.coord),
        }
    }
}

// ---------------------------------------------------------------------
// Payload arena
// ---------------------------------------------------------------------

/// Counters describing a [`PayloadArena`]'s slot traffic; see
/// [`PayloadArena::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Values interned since creation.
    pub interned: u64,
    /// Interns that reused a slot instead of allocating one.
    pub recycled: u64,
    /// Slots dropped from the queue at its cap while still held
    /// elsewhere (their memory is freed by the holder's final drop —
    /// abandoned, not leaked).
    pub escaped: u64,
    /// Slots currently in the queue.
    pub held: usize,
}

/// Cap on the recycler's queue. It must exceed the deepest same-shard
/// holders of interned payloads — one full channel level ring plus the
/// application sink's history ring — so the slots they pin cycle back
/// instead of escaping.
const ARENA_CAP: usize = 8192;

const _: () =
    assert!(ARENA_CAP > crate::channel::LEVEL_BUFFER_CAP + crate::positioning::SINK_HISTORY_CAP);

/// A per-shard recycler of payload slots: one bounded FIFO of
/// `Arc<Value>` slots, oldest first.
///
/// Every intern looks at the oldest slot only. If the recycler holds the
/// sole reference to it, the slot is rewritten in place (keeping its
/// `String`/`Vec` capacity); otherwise a fresh slot is allocated. Either
/// way the slot joins the back of the queue. Holders release payloads in
/// roughly FIFO order (level rings and the sink history are FIFO), so the
/// oldest slot is the one most likely to be free. At the cap the oldest
/// slot is dropped and counted as escaped.
///
/// A slot is only ever rewritten while the recycler holds the sole
/// reference, so stashing an interned payload anywhere (history,
/// snapshots, application code) is always safe: the slot simply stays
/// shared instead of recycling. The recycler changes where bytes live,
/// never what they are.
#[derive(Debug, Default)]
pub struct PayloadArena {
    /// Interned slots, oldest first.
    slots: VecDeque<Arc<Value>>,
    interned: u64,
    recycled: u64,
    escaped: u64,
}

impl PayloadArena {
    /// Creates an empty recycler.
    pub fn new() -> Self {
        PayloadArena::default()
    }

    /// Interns `value` into a recycled slot (or a fresh one when the
    /// oldest slot is still held elsewhere).
    pub fn intern(&mut self, value: Value) -> Payload {
        self.intern_with(|slot| *slot = value)
    }

    /// Interns by writing into the slot in place. The closure receives
    /// the slot's previous `Value` (arbitrary, typically the variant it
    /// held last time round) so callers can reuse its heap capacity —
    /// e.g. `write!` into a retained `Value::Text` buffer instead of
    /// formatting into a fresh `String`.
    pub fn intern_with(&mut self, write: impl FnOnce(&mut Value)) -> Payload {
        let reusable = self.slots.front_mut().and_then(Arc::get_mut).is_some();
        let mut slot = if reusable {
            self.recycled += 1;
            self.slots.pop_front().expect("checked front")
        } else {
            if self.slots.len() >= ARENA_CAP {
                self.slots.pop_front();
                self.escaped += 1;
            }
            Arc::new(Value::Null)
        };
        write(Arc::get_mut(&mut slot).expect("a recycled or fresh slot is uniquely held"));
        self.slots.push_back(Arc::clone(&slot));
        self.interned += 1;
        Payload { value: slot }
    }

    /// Slot-traffic counters and the queue depth.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            interned: self.interned,
            recycled: self.recycled,
            escaped: self.escaped,
            held: self.slots.len(),
        }
    }
}

/// A [`DataItem`] payload: a [`Value`] behind an [`Arc`], so fanning an
/// item out to many downstream edges shares one allocation instead of
/// deep-cloning the value per edge.
///
/// `Payload` dereferences to [`Value`], so all read accessors
/// (`as_text`, `as_position`, …) work unchanged. It is immutable by
/// sharing; the rare mutation site goes through [`Payload::make_mut`]
/// (copy-on-write). A payload interned by a [`PayloadArena`] is an
/// ordinary shared value; the arena only reuses its slot once every
/// other holder has dropped it.
#[derive(Debug, Clone, Default)]
pub struct Payload {
    value: Arc<Value>,
}

impl Payload {
    /// Wraps a value (one allocation; every subsequent clone is an
    /// `Arc` reference-count bump).
    pub fn new(value: Value) -> Self {
        Payload {
            value: Arc::new(value),
        }
    }

    /// Borrow of the wrapped value (also available via `Deref`).
    pub fn as_value(&self) -> &Value {
        &self.value
    }

    /// An owned deep copy of the wrapped value, for APIs that need a
    /// bare [`Value`].
    pub fn to_value(&self) -> Value {
        (*self.value).clone()
    }

    /// Copy-on-write mutable access: clones the inner value only when
    /// the payload is currently shared with another item (or an arena
    /// slot).
    pub fn make_mut(&mut self) -> &mut Value {
        Arc::make_mut(&mut self.value)
    }

    /// Whether two payloads share the same allocation (zero-copy
    /// fan-out diagnostic; implies equality).
    pub fn shares_with(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.value, &other.value)
    }
}

impl std::ops::Deref for Payload {
    type Target = Value;
    fn deref(&self) -> &Value {
        &self.value
    }
}

impl<'a> From<&'a Payload> for Payload {
    fn from(p: &'a Payload) -> Self {
        p.clone()
    }
}

impl From<Value> for Payload {
    fn from(v: Value) -> Self {
        Payload::new(v)
    }
}

macro_rules! payload_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Payload {
            fn from(v: $t) -> Self {
                Payload::new(Value::from(v))
            }
        }
    )*};
}
payload_from!(
    bool,
    i64,
    f64,
    &str,
    String,
    Position,
    Vec<Value>,
    BTreeMap<String, Value>
);

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.value, &other.value) || *self.value == *other.value
    }
}

impl PartialEq<Value> for Payload {
    fn eq(&self, other: &Value) -> bool {
        *self.value == *other
    }
}

impl PartialEq<Payload> for Value {
    fn eq(&self, other: &Payload) -> bool {
        *self == *other.value
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.value, f)
    }
}

impl Serialize for Payload {
    fn to_content(&self) -> serde::Content {
        self.value.to_content()
    }
}

impl Deserialize for Payload {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        Value::from_content(c).map(Payload::new)
    }
}

// ---------------------------------------------------------------------
// Interned attribute keys and flattened attrs
// ---------------------------------------------------------------------

/// A process-wide interned attribute key: a copyable token holding a
/// `&'static str`. Attribute names form a tiny closed set at runtime
/// (feature names like `"hdop"`, `"satellites"`, `"source"`), so the
/// interner leaks each distinct name once and every later use is a
/// pointer copy. Ordering and display follow the name string, so
/// iteration order over [`Attrs`] is identical to the old
/// `BTreeMap<String, _>` representation.
#[derive(Debug, Clone, Copy, Eq)]
pub struct InternedKey {
    id: u32,
    name: &'static str,
}

fn key_interner() -> &'static Mutex<BTreeMap<&'static str, InternedKey>> {
    static KEYS: OnceLock<Mutex<BTreeMap<&'static str, InternedKey>>> = OnceLock::new();
    KEYS.get_or_init(Mutex::default)
}

impl InternedKey {
    /// Interns `name`, returning the process-wide token for it. The
    /// first intern of a distinct name allocates (and intentionally
    /// leaks) one copy; every subsequent intern is a lookup.
    pub fn intern(name: &str) -> Self {
        let mut keys = key_interner().lock().expect("key interner poisoned");
        if let Some(k) = keys.get(name) {
            return *k;
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let key = InternedKey {
            id: keys.len() as u32,
            name: leaked,
        };
        keys.insert(leaked, key);
        key
    }

    /// The key name.
    pub fn as_str(self) -> &'static str {
        self.name
    }

    /// The dense process-wide id (assigned in first-intern order).
    pub fn id(self) -> u32 {
        self.id
    }
}

impl PartialEq for InternedKey {
    fn eq(&self, other: &Self) -> bool {
        // Ids are unique per name within the process-wide interner.
        self.id == other.id
    }
}

impl PartialOrd for InternedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InternedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Order by name, not id, so Attrs iterate in the same order the
        // BTreeMap representation did.
        self.name.cmp(other.name)
    }
}

impl std::hash::Hash for InternedKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for InternedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// Feature-attached attributes of a [`DataItem`]: a flat vec of
/// ([`InternedKey`], [`Value`]) pairs sorted by key name, behind one
/// optional shared `Arc`.
///
/// The representation is tuned for the two real access patterns: the
/// empty map (every freshly produced item — `None`, zero allocation,
/// copied by `Clone` without touching a refcount) and a handful of
/// feature-attached entries (one small allocation, binary-searched).
/// Copy-on-write semantics and the observable iteration order of the
/// previous `Arc<BTreeMap<String, Value>>` representation are preserved;
/// serialization still renders a string-keyed map.
#[derive(Debug, Clone, Default)]
pub struct Attrs(Option<Arc<Vec<(InternedKey, Value)>>>);

impl Attrs {
    /// An empty attribute map (no allocation).
    pub fn new() -> Self {
        Attrs(None)
    }

    /// Sets an attribute (copy-on-write when shared). Returns the
    /// previous value, if any.
    pub fn insert(&mut self, key: impl AsRef<str>, value: Value) -> Option<Value> {
        let key = InternedKey::intern(key.as_ref());
        match &mut self.0 {
            None => {
                self.0 = Some(Arc::new(vec![(key, value)]));
                None
            }
            Some(entries) => {
                let entries = Arc::make_mut(entries);
                match entries.binary_search_by(|(k, _)| k.as_str().cmp(key.as_str())) {
                    Ok(i) => Some(std::mem::replace(&mut entries[i].1, value)),
                    Err(i) => {
                        entries.insert(i, (key, value));
                        None
                    }
                }
            }
        }
    }

    /// Removes an attribute (copy-on-write when shared).
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let entries = self.0.as_mut()?;
        let i = entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()?;
        let entries = Arc::make_mut(entries);
        let (_, v) = entries.remove(i);
        if entries.is_empty() {
            self.0 = None;
        }
        Some(v)
    }

    /// Reads an attribute by name.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let entries = self.0.as_ref()?;
        let i = entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()?;
        Some(&entries[i].1)
    }

    /// Whether an attribute with this name is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |e| e.len())
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Iterates attribute names in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> AttrsIter<'_> {
        AttrsIter {
            entries: self.0.as_deref().map_or(&[], |e| e.as_slice()),
            next: 0,
        }
    }

    /// An owned `BTreeMap` copy, for callers that need the map form
    /// (e.g. embedding attrs in a [`Value::Map`]).
    pub fn to_map(&self) -> BTreeMap<String, Value> {
        self.iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Whether two attribute maps share the same allocation (both-empty
    /// counts as shared).
    pub fn shares_with(&self, other: &Attrs) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Iterator over [`Attrs`] entries in sorted name order.
#[derive(Debug, Clone)]
pub struct AttrsIter<'a> {
    entries: &'a [(InternedKey, Value)],
    next: usize,
}

impl<'a> Iterator for AttrsIter<'a> {
    type Item = (&'a str, &'a Value);
    fn next(&mut self) -> Option<Self::Item> {
        let (k, v) = self.entries.get(self.next)?;
        self.next += 1;
        Some((k.as_str(), v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.entries.len() - self.next;
        (rem, Some(rem))
    }
}

impl From<BTreeMap<String, Value>> for Attrs {
    fn from(m: BTreeMap<String, Value>) -> Self {
        if m.is_empty() {
            return Attrs(None);
        }
        // BTreeMap iterates sorted by name, matching the vec invariant.
        Attrs(Some(Arc::new(
            m.into_iter()
                .map(|(k, v)| (InternedKey::intern(&k), v))
                .collect(),
        )))
    }
}

impl<'a> IntoIterator for &'a Attrs {
    type Item = (&'a str, &'a Value);
    type IntoIter = AttrsIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Attrs {
    fn eq(&self, other: &Self) -> bool {
        self.shares_with(other)
            || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl Serialize for Attrs {
    fn to_content(&self) -> serde::Content {
        // Render the same string-keyed map the BTreeMap representation
        // produced (entries are already name-sorted).
        serde::Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_content()))
                .collect(),
        )
    }
}

impl Deserialize for Attrs {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        BTreeMap::from_content(c).map(Attrs::from)
    }
}

/// The unit of data travelling along processing-graph edges.
///
/// Cloning a `DataItem` is cheap: the payload lives behind a shared
/// [`Arc`] (possibly arena-interned) and the attrs behind an optional
/// one, so fan-out to N consumers bumps reference counts instead of
/// deep-copying the data N times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataItem {
    /// What the payload is.
    pub kind: DataKind,
    /// Simulated time at which the item was produced.
    pub timestamp: SimTime,
    /// The payload itself, shared zero-copy between edges.
    pub payload: Payload,
    /// Extra data associated with the item by Component Features
    /// (paper §2.1 "Adding Data"), keyed by attribute name.
    pub attrs: Attrs,
}

impl DataItem {
    /// Creates an item with no attributes. Accepts anything convertible
    /// into a [`Payload`] — a bare [`Value`], primitives, or an existing
    /// (shared) payload.
    pub fn new(kind: DataKind, timestamp: SimTime, payload: impl Into<Payload>) -> Self {
        DataItem {
            kind,
            timestamp,
            payload: payload.into(),
            attrs: Attrs::new(),
        }
    }

    /// Builder-style attribute attachment.
    pub fn with_attr(mut self, key: impl AsRef<str>, value: Value) -> Self {
        self.attrs.insert(key, value);
        self
    }

    /// Reads an attribute.
    pub fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs.get(key)
    }

    /// The payload as a position.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PayloadMismatch`] when the payload is not a
    /// position.
    pub fn position(&self) -> Result<&Position, CoreError> {
        self.payload.expect_position()
    }
}

impl fmt::Display for DataItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} @{}] {}", self.kind, self.timestamp, self.payload)?;
        if !self.attrs.is_empty() {
            write!(f, " +{:?}", self.attrs.keys().collect::<Vec<_>>())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wgs(lat: f64, lon: f64) -> Wgs84 {
        Wgs84::new(lat, lon, 0.0).unwrap()
    }

    #[test]
    fn kind_equality_and_display() {
        assert_eq!(kinds::POSITION_WGS84, DataKind::new("position.wgs84"));
        assert_ne!(kinds::POSITION_WGS84, kinds::POSITION_ROOM);
        assert_eq!(kinds::RAW_STRING.to_string(), "raw.string");
    }

    #[test]
    fn value_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("hi").as_text(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_f64(), None);
        let p = Position::new(wgs(1.0, 2.0), Some(3.0));
        assert_eq!(Value::from(p).as_position(), Some(&p));
    }

    #[test]
    fn expect_position_reports_mismatch() {
        let err = Value::Int(1).expect_position().unwrap_err();
        assert_eq!(
            err,
            CoreError::PayloadMismatch {
                expected: "position",
                found: "int"
            }
        );
    }

    #[test]
    fn item_attributes() {
        let item = DataItem::new(kinds::NMEA_SENTENCE, SimTime::ZERO, Value::from("x"))
            .with_attr("hdop", Value::Float(1.5));
        assert_eq!(item.attr("hdop").and_then(Value::as_f64), Some(1.5));
        assert_eq!(item.attr("nope"), None);
        assert!(format!("{item}").contains("hdop"));
    }

    #[test]
    fn interned_keys_dedupe_and_order_by_name() {
        let a = InternedKey::intern("zeta");
        let b = InternedKey::intern("alpha");
        let a2 = InternedKey::intern("zeta");
        assert_eq!(a, a2);
        assert_eq!(a.as_str(), "zeta");
        assert!(b < a, "keys order by name, not intern order");
    }

    #[test]
    fn attrs_preserve_sorted_iteration_and_cow() {
        let mut attrs = Attrs::new();
        assert!(attrs.is_empty());
        attrs.insert("zeta", Value::Int(1));
        attrs.insert("alpha", Value::Int(2));
        attrs.insert("mid", Value::Int(3));
        let names: Vec<&str> = attrs.keys().collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        assert_eq!(attrs.get("mid"), Some(&Value::Int(3)));
        assert_eq!(attrs.insert("mid", Value::Int(4)), Some(Value::Int(3)));

        // Copy-on-write: a clone is untouched by later inserts.
        let shared = attrs.clone();
        assert!(shared.shares_with(&attrs));
        attrs.insert("new", Value::Bool(true));
        assert!(!shared.shares_with(&attrs));
        assert_eq!(shared.len(), 3);
        assert_eq!(attrs.len(), 4);

        assert_eq!(attrs.remove("alpha"), Some(Value::Int(2)));
        assert_eq!(attrs.remove("alpha"), None);
    }

    #[test]
    fn attrs_match_btreemap_serialization() {
        let mut map = BTreeMap::new();
        map.insert("b".to_string(), Value::Int(2));
        map.insert("a".to_string(), Value::from("x"));
        let attrs = Attrs::from(map.clone());
        assert_eq!(attrs.to_content(), map.to_content());
        assert_eq!(attrs.to_map(), map);
        let back = Attrs::from_content(&attrs.to_content()).unwrap();
        assert_eq!(back, attrs);
    }

    #[test]
    fn arena_recycles_the_oldest_slot_once_it_is_free() {
        let mut arena = PayloadArena::new();
        let p = arena.intern(Value::Text("hello".into()));
        assert_eq!(p.as_text(), Some("hello"));
        drop(p);
        // The next intern reuses the slot; the closure sees the retained
        // buffer.
        let p2 = arena.intern_with(|v| {
            assert_eq!(v.as_text(), Some("hello"));
            if let Value::Text(s) = v {
                s.clear();
                s.push_str("world");
            }
        });
        assert_eq!(p2.as_text(), Some("world"));
        let s = arena.stats();
        assert_eq!((s.interned, s.recycled, s.held), (2, 1, 1));
    }

    #[test]
    fn a_held_payload_keeps_its_value_while_the_ring_wraps() {
        let mut arena = PayloadArena::new();
        for i in 0..16 {
            arena.intern(Value::Int(i));
        }
        let kept = arena.intern(Value::from("kept"));
        for i in 0..(4 * ARENA_CAP as i64) {
            arena.intern_with(|v| *v = Value::Int(i));
        }
        assert_eq!(kept.as_text(), Some("kept"));
        let s = arena.stats();
        assert_eq!((s.held, s.escaped), (ARENA_CAP, 1), "{s:?}");
        assert!(s.recycled > 2 * ARENA_CAP as u64, "the ring wrapped: {s:?}");
    }

    #[test]
    fn a_pinned_head_fills_the_queue_to_the_cap_and_escapes() {
        let mut arena = PayloadArena::new();
        let pinned = arena.intern(Value::Int(-1));
        // Every later payload stays held too, so nothing can recycle
        // until the cap forces the head out.
        let mut held = Vec::new();
        for i in 0..ARENA_CAP as i64 {
            held.push(arena.intern(Value::Int(i)));
        }
        let s = arena.stats();
        assert_eq!((s.held, s.escaped, s.recycled), (ARENA_CAP, 1, 0));
        assert_eq!(pinned.as_i64(), Some(-1));
        drop(held);
        arena.intern(Value::Null);
        let s = arena.stats();
        assert_eq!((s.held, s.escaped, s.recycled), (ARENA_CAP, 1, 1));
    }

    #[test]
    fn interned_and_plain_payloads_serialize_identically() {
        let mut arena = PayloadArena::new();
        let interned = arena.intern(Value::from("nmea"));
        let plain = Payload::new(Value::from("nmea"));
        assert_eq!(interned.to_content(), plain.to_content());
        assert_eq!(interned, plain);
    }

    #[test]
    fn position_distance() {
        let a = Position::new(wgs(0.0, 0.0), None);
        let b = Position::new(wgs(0.0, 1.0), Some(10.0));
        assert!(a.distance_m(&b) > 100_000.0);
        assert!(format!("{b}").contains("±10.0m"));
    }

    #[test]
    fn serde_round_trip_items() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::default();
        let strategy = (
            proptest::option::of(-90.0f64..90.0),
            any::<i64>(),
            ".{0,20}",
            0u64..u64::MAX / 2,
        );
        runner
            .run(&strategy, |(lat, int_v, text, ts)| {
                let payload = match lat {
                    Some(lat) => Value::from(Position::new(
                        Wgs84::new(lat, 10.0, 0.0).unwrap(),
                        Some(5.0),
                    )),
                    None => Value::List(vec![Value::Int(int_v), Value::from(text.clone())]),
                };
                let item = DataItem::new(kinds::POSITION_WGS84, SimTime::from_micros(ts), payload)
                    .with_attr("k", Value::Bool(true));
                let json = serde_json::to_string(&item).unwrap();
                let back: DataItem = serde_json::from_str(&json).unwrap();
                prop_assert_eq!(item, back);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn variant_names_cover_all() {
        for (v, name) in [
            (Value::Null, "null"),
            (Value::Bool(true), "bool"),
            (Value::Int(1), "int"),
            (Value::Float(1.0), "float"),
            (Value::from("s"), "text"),
            (Value::Bytes(vec![1]), "bytes"),
            (Value::List(vec![]), "list"),
            (Value::Map(BTreeMap::new()), "map"),
        ] {
            assert_eq!(v.variant_name(), name);
            assert!(!format!("{v}").is_empty());
        }
    }
}
