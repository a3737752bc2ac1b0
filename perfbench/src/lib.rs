//! End-to-end benchmark of the PerPos middleware: raw sensor bytes in,
//! positions out at the Positioning Layer, on three workloads taken from
//! the paper (see `README.md` in this directory).
//!
//! Every workload runs the library defaults — `Sequential` executor,
//! `TreePolicy::Lazy`, payload arena on — and drives the public API
//! closed-loop from one process. The untraced mode reports the
//! end-to-end metrics; the traced mode installs delegating wrappers
//! ([`trace`]) and reports where the time went, layer by layer.

#![forbid(unsafe_code)]

pub mod fleet_soak;
pub mod fusion_adapt;
pub mod gen;
pub mod nmea_ingest;
pub mod rng;
pub mod stats;
pub mod trace;

use perpos_core::component::Component;
use perpos_core::feature::ComponentFeature;
use perpos_core::prelude::{CoreError, Middleware, NodeId};

use trace::{Name, Traced, TracedFeature};

/// The end-to-end metrics of the result object of every untraced run,
/// with their units. The report also prints `latency_p99_us` for every
/// workload; its run-to-run spread on a shared host is too wide for it to
/// be a gated metric (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("availability", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("codec.scan_ns_per_line", "ns/line"),
    ("codec.skipped_lines", "count"),
    ("pipeline.parser_ns_per_item", "ns/item"),
    ("pipeline.interpreter_ns_per_item", "ns/item"),
    ("pipeline.wifi_positioning_ns_per_item", "ns/item"),
    ("sensors.gps_tick_ns", "ns/tick"),
    ("sensors.wifi_tick_ns", "ns/tick"),
    ("feature.hdop_ns_per_item", "ns/item"),
    ("feature.numsats_ns_per_item", "ns/item"),
    ("channel.materialized_ratio", "ratio"),
    ("channel.dropped", "count"),
    ("channel.likelihood_apply_ns_per_tree", "ns/tree"),
    ("fusion.particle_ns_per_step", "ns/step"),
    ("engine.ingest_self_ns_per_line", "ns/line"),
    ("engine.step_self_ns_per_step", "ns/step"),
    ("arena.recycle_ratio", "ratio"),
    ("arena.escaped", "count"),
    ("positioning.delivered", "count"),
    ("positioning.drain_ns_per_item", "ns/item"),
    ("adapt.attach_feature_us", "us/call"),
    ("adapt.detach_feature_us", "us/call"),
    ("adapt.insert_between_us", "us/call"),
    ("adapt.remove_component_us", "us/call"),
    ("adapt.subscribe_history_us", "us/call"),
    ("adapt.invoke_us", "us/call"),
    ("adapt.snapshot_us", "us/call"),
    ("fleet.shard_busy_s", "s"),
    ("fleet.shard_skew", "ratio"),
    ("fleet.sched_idle_s", "s"),
    ("fleet.speedup_vs_serial", "ratio"),
    ("fleet.snapshot_us", "us/call"),
    ("fleet.restore_us", "us/call"),
    ("fleet.checkpoints", "count"),
    ("fleet.restarts", "count"),
    ("fleet.cold_restarts", "count"),
    ("fleet.quarantines", "count"),
    ("fleet.instance_faults", "count"),
    ("fleet.factory_us_per_instance", "us/instance"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.reconcile_ratio", "ratio"),
];

/// Largest allowed gap between the layers' summed self time and the
/// traced wall time, as a share of the wall time.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Raw NMEA capture blocks through block ingest (the read path).
    NmeaIngest,
    /// The Fig. 2/5/6 fusion pipeline, ticked, with run-time adaptations.
    FusionAdapt,
    /// A supervised fleet of Fig. 1 pipelines under environmental faults.
    FleetSoak,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::NmeaIngest,
        Workload::FusionAdapt,
        Workload::FleetSoak,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NmeaIngest => "nmea_ingest",
            Workload::FusionAdapt => "fusion_adapt",
            Workload::FleetSoak => "fleet_soak",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a workload's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A few seconds' worth, for the benchmark's own tests.
    Small,
}

/// One benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured loop, seconds.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// A measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted: requests plus adaptation calls.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Everything measured, in the order measured.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sizes, sample counts, the layer table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one failed operation when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Counts an operation's result.
    pub fn op<T>(&mut self, what: &str, r: Result<T, CoreError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The value of metric `name`, if measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs one benchmark configuration.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::NmeaIngest => nmea_ingest::run(cfg),
        Workload::FusionAdapt => fusion_adapt::run(cfg),
        Workload::FleetSoak => fleet_soak::run(cfg),
    }
}

/// Reports a traced session: the per-layer table, the layers' summed
/// self time over the traced wall time (`trace.reconcile_ratio`), and the
/// checks that every span nests inside its parent and that the self
/// times account for the wall time within [`RECONCILE_TOLERANCE`].
pub fn reconcile(out: &mut Outcome, profile: &trace::Profile, wall_ns: u64) {
    let ratio = trace::per(profile.self_sum_ns() as f64, wall_ns);
    out.metric("trace.reconcile_ratio", ratio, "ratio");
    out.check(profile.misnested == 0, || {
        format!("{} spans lie outside their parent", profile.misnested)
    });
    out.check((ratio - 1.0).abs() <= RECONCILE_TOLERANCE, || {
        format!("layers' self time is {ratio:.3} x the traced wall time")
    });
    out.note(format!(
        "{:<28} {:>10} {:>12} {:>10} {:>7}",
        "span", "count", "self_ms", "self_ns/op", "share"
    ));
    for &name in Name::ALL {
        let count = profile.count(name);
        if count == 0 {
            continue;
        }
        let self_ns = profile.self_ns(name) as f64;
        out.note(format!(
            "{:<28} {:>10} {:>12.3} {:>10.0} {:>6.1}%",
            name.label(),
            count,
            self_ns / 1e6,
            self_ns / count as f64,
            100.0 * trace::per(self_ns, wall_ns),
        ));
    }
    out.note(format!(
        "traced wall {:.3} ms, layers' self time sums to {:.1}% of it",
        wall_ns as f64 / 1e6,
        100.0 * ratio
    ));
}

/// Adds `component` to `mw`, inside a [`Traced`] wrapper when `span` is
/// given.
pub fn add<C: Component + 'static>(
    mw: &mut Middleware,
    component: C,
    span: Option<Name>,
) -> NodeId {
    match span {
        Some(name) => mw.add_boxed_component(Box::new(Traced::new(component, name))),
        None => mw.add_component(component),
    }
}

/// Attaches `feature` to `node`, inside a [`TracedFeature`] wrapper when
/// `span` is given.
///
/// # Errors
///
/// Propagates [`Middleware::attach_feature`]'s errors.
pub fn attach<F: ComponentFeature + 'static>(
    mw: &mut Middleware,
    node: NodeId,
    feature: F,
    span: Option<Name>,
) -> Result<(), CoreError> {
    match span {
        Some(name) => mw.attach_feature(node, TracedFeature::new(feature, name)),
        None => mw.attach_feature(node, feature),
    }
}
