//! `fleet_soak`: a supervised `FleetPool` of Fig. 1 GPS pipelines
//! (`GpsSimulator` → `Parser` → `Interpreter` → sink), a tenth of them
//! carrying an environmental fault source, stepped by
//! `WorkStealing { workers: 2 }` with checkpoints every 8 rounds. One
//! request is one `FleetPool::run(8, 1 s)` call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use perpos_core::component::{Component, ComponentCtx, ComponentDescriptor};
use perpos_core::prelude::*;
use perpos_geo::{LocalFrame, Wgs84};
use perpos_sensors::{GpsSimulator, Interpreter, Parser};

use crate::gen::{self, FleetInstance};
use crate::rng::Rng;
use crate::stats::{self, Requests};
use crate::trace::{self, Name};
use crate::{add, reconcile, Config, Outcome, Size};

/// Simulated time per round.
fn tick() -> SimDuration {
    SimDuration::from_secs(1)
}

/// Rounds per request.
pub const ROUNDS_PER_CALL: u64 = 8;

/// Share of instances in bad weather.
pub const FAULTY_SHARE: f64 = 0.10;

/// Per-step failure probability of a faulty instance's weather source.
pub const STEP_FAIL_PROB: f64 = 0.01;

/// Lowest acceptable availability under [`FAULTY_SHARE`] faults.
pub const AVAILABILITY_FLOOR: f64 = 0.99;

/// Instances per shard.
const INSTANCES_PER_SHARD: usize = 320;

/// In the traced mode, every this-many-th instance gets wrapped
/// components, which keeps the span volume bounded.
const TRACE_SAMPLE: usize = 32;

/// Instances whose checkpoint and restore are timed in the traced mode.
const SNAPSHOT_SAMPLES: usize = 256;

/// The scheduler every measured fleet runs.
pub const SCHEDULER: FleetScheduler = FleetScheduler::WorkStealing { workers: 2 };

struct Shape {
    instances: usize,
    setup_reps: usize,
    warm_up_calls: u64,
    traced_calls: u64,
    check_instances: usize,
    check_calls: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            instances: 10_240,
            setup_reps: 3,
            warm_up_calls: 4,
            traced_calls: 6,
            check_instances: 640,
            check_calls: 4,
        },
        Size::Small => Shape {
            instances: 640,
            setup_reps: 1,
            warm_up_calls: 1,
            traced_calls: 2,
            check_instances: 320,
            check_calls: 2,
        },
    }
}

/// The environmental fault source: fails a step with
/// [`STEP_FAIL_PROB`]. Its generator is not checkpointed and is reseeded
/// per incarnation, so a restarted instance meets fresh weather rather
/// than replaying the crash its checkpoint led up to.
struct Weather {
    rng: Rng,
}

impl Component for Weather {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::source("weather", vec![kinds::RAW_STRING])
    }

    fn on_input(
        &mut self,
        _port: usize,
        _item: DataItem,
        _ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }

    fn on_tick(&mut self, _ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        if self.rng.chance(STEP_FAIL_PROB) {
            return Err(CoreError::ComponentFailure {
                component: "weather".into(),
                reason: "environmental fault".into(),
            });
        }
        Ok(())
    }
}

/// An instance factory over the generated inputs. The `n`-th incarnation
/// of instance `i` draws its weather from `(fault_seed, i, n)`: one
/// counter per index, so the schedule never depends on the order a
/// parallel scheduler rebuilds instances in.
fn factory(
    inputs: &Arc<Vec<FleetInstance>>,
    fault_seed: u64,
    traced: bool,
) -> impl Fn(usize) -> Middleware + Send + Sync + 'static {
    let inputs = Arc::clone(inputs);
    let incarnations: Vec<AtomicU64> = (0..inputs.len()).map(|_| AtomicU64::new(0)).collect();
    let frame = LocalFrame::new(Wgs84::new(56.17, 10.19, 0.0).expect("valid anchor"));
    move |index| {
        let _span = trace::span(Name::FleetFactory);
        let input = &inputs[index];
        let span = |name| (traced && index.is_multiple_of(TRACE_SAMPLE)).then_some(name);
        let mut mw = Middleware::new();
        let gps = add(
            &mut mw,
            GpsSimulator::new("GPS", frame, input.trajectory.clone()).with_seed(input.gps_seed),
            span(Name::GpsTick),
        );
        let parser = add(&mut mw, Parser::new(), span(Name::Parser));
        let interpreter = add(&mut mw, Interpreter::new(), span(Name::Interpreter));
        let app = mw.application_sink();
        mw.connect(gps, parser, 0).expect("gps -> parser");
        mw.connect(parser, interpreter, 0)
            .expect("parser -> interpreter");
        mw.connect_to_sink(interpreter, app)
            .expect("interpreter -> app");
        if input.faulty {
            let n = incarnations[index].fetch_add(1, Ordering::Relaxed);
            mw.add_component(Weather {
                rng: Rng::derived(fault_seed, index as u64, n),
            });
        }
        mw
    }
}

fn build(
    inputs: &Arc<Vec<FleetInstance>>,
    fault_seed: u64,
    traced: bool,
    scheduler: FleetScheduler,
) -> FleetPool {
    let config = FleetConfig {
        shards: (inputs.len() / INSTANCES_PER_SHARD).max(1),
        instances: inputs.len(),
        checkpoint_every: 8,
        scheduler,
        ..FleetConfig::default()
    };
    FleetPool::new(config, factory(inputs, fault_seed, traced))
}

/// Runs `calls` requests, recording each with its live instance-steps.
fn drive(pool: &mut FleetPool, calls: u64, requests: &mut Requests) {
    for i in 0..calls {
        trace::set_request(i);
        let _root = trace::root(Name::FleetRun);
        let live = pool.totals().live_steps;
        let t0 = Instant::now();
        pool.run(ROUNDS_PER_CALL, tick());
        requests.push(t0.elapsed(), pool.totals().live_steps - live);
    }
}

/// The scheduler's contract, checked on a small fleet: two work-stealing
/// fleets from the same seed and a serial one end with identical
/// counters.
fn check_determinism(
    all: &Arc<Vec<FleetInstance>>,
    fault_seed: u64,
    shape: &Shape,
    out: &mut Outcome,
) {
    let inputs = Arc::new(all[..shape.check_instances.min(all.len())].to_vec());
    let stats = |scheduler| {
        let mut pool = build(&inputs, fault_seed, false, scheduler);
        for _ in 0..shape.check_calls {
            pool.run(ROUNDS_PER_CALL, tick());
        }
        pool.stats()
    };
    let (a, b, serial) = (
        stats(SCHEDULER),
        stats(SCHEDULER),
        stats(FleetScheduler::Serial),
    );
    out.check(a == b, || {
        "two same-seed work-stealing fleets diverged".into()
    });
    out.check(a == serial, || {
        "work-stealing counters differ from a serial pass".into()
    });
}

/// Counters accumulated between two totals.
fn delta(a: FleetTotals, b: FleetTotals) -> FleetTotals {
    FleetTotals {
        instances: b.instances,
        live_steps: b.live_steps - a.live_steps,
        missed_steps: b.missed_steps - a.missed_steps,
        instance_faults: b.instance_faults - a.instance_faults,
        restarts: b.restarts - a.restarts,
        cold_restarts: b.cold_restarts - a.cold_restarts,
        checkpoints: b.checkpoints - a.checkpoints,
        quarantines: b.quarantines - a.quarantines,
        recovery_steps: b.recovery_steps - a.recovery_steps,
    }
}

fn check_availability(d: &FleetTotals, out: &mut Outcome) {
    let availability = d.availability();
    out.check(availability >= AVAILABILITY_FLOOR, || {
        format!("availability {availability:.4} below {AVAILABILITY_FLOOR}")
    });
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let shape = shape(cfg.size);
    let (inputs, fault_seed) = gen::fleet(cfg.seed, shape.instances, FAULTY_SHARE);
    let inputs = Arc::new(inputs);
    let mut out = Outcome::default();
    out.note(format!(
        "fleet: {} instances in {} shards, {} faulty, scheduler {} x{}, {} rounds per call, {} cores",
        shape.instances,
        (shape.instances / INSTANCES_PER_SHARD).max(1),
        inputs.iter().filter(|i| i.faulty).count(),
        SCHEDULER.as_str(),
        SCHEDULER.resolved_workers(),
        ROUNDS_PER_CALL,
        machine_parallelism()
    ));
    if cfg.trace {
        run_traced(&shape, &inputs, fault_seed, &mut out);
    } else {
        run_untraced(cfg, &shape, &inputs, fault_seed, &mut out);
    }
    out
}

fn run_untraced(
    cfg: &Config,
    shape: &Shape,
    inputs: &Arc<Vec<FleetInstance>>,
    fault_seed: u64,
    out: &mut Outcome,
) {
    check_determinism(inputs, fault_seed, shape, out);
    let mut setup = Vec::with_capacity(shape.setup_reps);
    let mut pool = None;
    for _ in 0..shape.setup_reps {
        drop(pool.take());
        let t0 = Instant::now();
        pool = Some(build(inputs, fault_seed, false, SCHEDULER));
        setup.push(t0.elapsed());
    }
    let mut pool = pool.expect("at least one setup repetition");
    drive(
        &mut pool,
        shape.warm_up_calls,
        &mut Requests::with_capacity(0),
    );
    let peak_rss = stats::peak_rss_mb();

    let before = pool.totals();
    let mut lat = Requests::with_capacity(1 << 12);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while Instant::now() < deadline {
        drive(&mut pool, 1, &mut lat);
    }
    out.attempted += lat.len() as u64;
    let d = delta(before, pool.totals());
    check_availability(&d, out);

    let s = lat.fastest(stats::WINDOW, stats::FAST_SHARE);
    out.metric("items_per_s", s.items_per_s, "1/s");
    out.metric("latency_p50_us", s.p50_us, "us");
    out.metric("latency_p99_us", s.p99_us, "us");
    out.metric("availability", d.availability(), "ratio");
    out.metric(
        "setup_s",
        stats::median(setup.iter().map(Duration::as_secs_f64).collect()),
        "s",
    );
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.note(format!(
        "{} calls measured ({} live, {} missed instance-steps, {} faults, {} restarts); \
         figures from the fastest {} of {} windows; setup median of {} builds",
        lat.len(),
        d.live_steps,
        d.missed_steps,
        d.instance_faults,
        d.total_restarts(),
        s.windows,
        s.of_windows,
        shape.setup_reps
    ));
}

/// Busy nanoseconds of every shard so far.
fn shard_busy(pool: &FleetPool) -> Vec<u64> {
    pool.shards().iter().map(|s| s.wall_ns()).collect()
}

fn run_traced(shape: &Shape, inputs: &Arc<Vec<FleetInstance>>, fault_seed: u64, out: &mut Outcome) {
    trace::start();
    let mut pool = build(inputs, fault_seed, true, SCHEDULER);
    let factory_spans = trace::finish().unwrap_or_else(|s| s);
    let factory = trace::profile(&factory_spans);
    drive(
        &mut pool,
        shape.warm_up_calls,
        &mut Requests::with_capacity(0),
    );

    let busy0 = shard_busy(&pool);
    let before = pool.totals();
    trace::start();
    let t0 = Instant::now();
    drive(
        &mut pool,
        shape.traced_calls,
        &mut Requests::with_capacity(0),
    );
    let traced_wall = t0.elapsed();
    let spans = trace::finish();
    out.attempted += shape.traced_calls;
    out.check(spans.is_ok(), || "span slots overflowed".into());
    let profile = trace::profile(&spans.unwrap_or_else(|s| s));
    let d = delta(before, pool.totals());
    check_availability(&d, out);
    let traced_stats = pool.stats();
    let busy: Vec<u64> = shard_busy(&pool)
        .iter()
        .zip(&busy0)
        .map(|(after, before)| after - before)
        .collect();

    // Checkpoint and restore sampled instances through the public API.
    trace::start();
    let shards = pool.shards().len();
    for i in 0..SNAPSHOT_SAMPLES {
        let shard = pool.shard_mut(i % shards).expect("shard index in range");
        let Some(mw) = shard.instance_mut(i / shards) else {
            continue;
        };
        let snapshot = {
            let _span = trace::span(Name::FleetSnapshot);
            mw.snapshot()
        };
        let _span = trace::span(Name::FleetRestore);
        let restored = mw.restore(&snapshot);
        out.op("restore", restored);
    }
    let sampled = trace::profile(&trace::finish().unwrap_or_else(|s| s));
    drop(pool);

    // The same calls on untraced fleets: work stealing for the tracing
    // overhead, serial for the speed-up and the counter equality.
    let plain_pass = |scheduler| {
        let mut pool = build(inputs, fault_seed, false, scheduler);
        drive(
            &mut pool,
            shape.warm_up_calls,
            &mut Requests::with_capacity(0),
        );
        let t0 = Instant::now();
        drive(
            &mut pool,
            shape.traced_calls,
            &mut Requests::with_capacity(0),
        );
        (t0.elapsed(), pool.stats())
    };
    let (plain_wall, plain_stats) = plain_pass(SCHEDULER);
    let (serial_wall, serial_stats) = plain_pass(FleetScheduler::Serial);
    out.check(plain_stats == traced_stats, || {
        "traced and untraced fleets diverged".into()
    });
    out.check(serial_stats == traced_stats, || {
        "work-stealing counters differ from a serial pass".into()
    });

    let workers = SCHEDULER.resolved_workers().clamp(1, busy.len().max(1)) as f64;
    let busy_sum: u64 = busy.iter().sum();
    let busy_max = busy.iter().copied().max().unwrap_or(0);
    let p = &profile;
    out.metric(
        "sensors.gps_tick_ns",
        p.mean_self_ns(Name::GpsTick),
        "ns/tick",
    );
    out.metric(
        "pipeline.parser_ns_per_item",
        p.mean_self_ns(Name::Parser),
        "ns/item",
    );
    out.metric(
        "pipeline.interpreter_ns_per_item",
        p.mean_self_ns(Name::Interpreter),
        "ns/item",
    );
    out.metric("fleet.shard_busy_s", busy_sum as f64 / 1e9, "s");
    out.metric(
        "fleet.shard_skew",
        trace::per(busy_max as f64 * busy.len() as f64, busy_sum),
        "ratio",
    );
    out.metric(
        "fleet.sched_idle_s",
        workers * traced_wall.as_secs_f64() - busy_sum as f64 / 1e9,
        "s",
    );
    out.metric(
        "fleet.speedup_vs_serial",
        serial_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        "ratio",
    );
    out.metric(
        "fleet.snapshot_us",
        sampled.mean_ns(Name::FleetSnapshot) / 1e3,
        "us/call",
    );
    out.metric(
        "fleet.restore_us",
        sampled.mean_ns(Name::FleetRestore) / 1e3,
        "us/call",
    );
    out.metric("fleet.checkpoints", d.checkpoints as f64, "count");
    out.metric("fleet.restarts", d.restarts as f64, "count");
    out.metric("fleet.cold_restarts", d.cold_restarts as f64, "count");
    out.metric("fleet.quarantines", d.quarantines as f64, "count");
    out.metric("fleet.instance_faults", d.instance_faults as f64, "count");
    out.metric(
        "fleet.factory_us_per_instance",
        factory.mean_ns(Name::FleetFactory) / 1e3,
        "us/instance",
    );
    out.metric(
        "trace.overhead_ratio",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        "ratio",
    );
    reconcile(out, p, traced_wall.as_nanos() as u64);
    out.note(format!(
        "traced {} calls in {:.3} s (components of every {TRACE_SAMPLE}th instance wrapped); \
         untraced {:.3} s, serial {:.3} s; {} workers",
        shape.traced_calls,
        traced_wall.as_secs_f64(),
        plain_wall.as_secs_f64(),
        serial_wall.as_secs_f64(),
        workers
    ));
}
