//! Experiment "fleet" — supervised fleet soak under deterministic chaos,
//! plus the parallel-stepping scaling sweep.
//!
//! A [`FleetPool`] shards thousands of middleware instances and walks the
//! escalation ladder when they fault: in-instance containment first,
//! checkpoint-restart second, shard quarantine third. This soak injects
//! an *environmental* fault schedule — a fraction `fault_rate` of the
//! instances carry a source that fails a step with a small seeded
//! probability, reseeded per incarnation so restarts do not replay the
//! crash out of the restored checkpoint — and measures what supervision
//! buys: fleet availability (live instance-steps over attempted),
//! recovery latency in steps-to-healthy, and sustained items/s, against
//! an unsupervised baseline where the first escaped fault kills the
//! instance for the rest of the run. Swept over instances x pipeline
//! depth x fault-rate.
//!
//! The `scaling` section steps a 102,400-instance fleet under the
//! serial and work-stealing schedulers at several worker counts; the
//! sweep *asserts* the supervision counters are identical across
//! schedulers (the byte-equality contract of
//! `perpos_core::fleet::scheduler`) and records the wall-clock scaling
//! that determinism buys. All counters are deterministic (seeded shim
//! RNG, per-index incarnation counters so restart reseeding is a pure
//! function of the instance, never of scheduler interleaving); only the
//! wall-clock columns vary by machine.
//!
//! Run with: `cargo run -p perpos-bench --bin exp_fleet --release`
//! (pass `--smoke` for the reduced CI check, which re-runs the smoke
//! configuration under the serial *and* work-stealing schedulers,
//! fails unless supervised availability stays >= 0.99 under the 10 %
//! fault rate while beating the unsupervised baseline, fails unless
//! the work-stealing counters match the serial ones, cross-checks the
//! deterministic counters against the committed `BENCH_fleet.json` so
//! the baseline provably regenerates, and — on hosts with >= 2 cores —
//! fails unless 2-worker work stealing beats serial stepping by a
//! calibrated margin).
//!
//! The full sweep (re)writes `BENCH_fleet.json`; the smoke sweep only
//! reads it.

#![allow(clippy::unwrap_used)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use perpos_core::component::{ComponentCtx, ComponentDescriptor};
use perpos_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-step failure probability of a faulty instance's source. Chosen so
/// a 10 % faulty fleet stays above the 0.99 availability floor *with*
/// checkpoint-restart but falls well below it without.
const STEP_FAIL_PROB: f64 = 0.015;

/// Rounds each availability configuration runs for.
const ROUNDS: u64 = 96;

/// Rounds each scaling configuration runs for, in one `run` call —
/// enough work that the per-call scheduler overhead (spawning the
/// scoped workers, one cursor draw per shard) is amortized the way a
/// long soak would amortize it.
const SCALING_ROUNDS: u64 = 48;

/// Instance count of the scaling sweep. Large enough that a shard is a
/// meaningful unit of work and the fleet dwarfs every cache level.
const SCALING_INSTANCES: usize = 102_400;

/// A counting source whose counter rides through checkpoints while its
/// fault schedule stays environmental: the RNG is *not* snapshotted and
/// is reseeded per incarnation, so a restored instance faces fresh
/// weather instead of deterministically replaying its own crash.
struct FlakySource {
    counter: i64,
    rng: Option<StdRng>,
}

impl Component for FlakySource {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::source("flaky", vec![kinds::RAW_STRING])
    }
    fn on_input(
        &mut self,
        _p: usize,
        _i: DataItem,
        _c: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }
    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        if let Some(rng) = self.rng.as_mut() {
            if rng.gen::<f64>() < STEP_FAIL_PROB {
                return Err(CoreError::ComponentFailure {
                    component: "flaky".to_string(),
                    reason: "injected fault".to_string(),
                });
            }
        }
        self.counter += 1;
        ctx.emit_value(kinds::RAW_STRING, Value::Int(self.counter));
        Ok(())
    }
    fn snapshot_state(&self) -> Option<Value> {
        Some(Value::Int(self.counter))
    }
    fn restore_state(&mut self, state: &Value) {
        if let Some(v) = state.as_i64() {
            self.counter = v;
        }
    }
}

/// Instance factory: every `1/fault_rate`-th instance gets a faulty
/// source, the rest run clean. Restart reseeding uses one incarnation
/// counter *per instance index* — never a factory-global counter — so
/// the seed of incarnation `n` of instance `i` is a pure function of
/// `(i, n)` and the counters stay byte-identical whatever order a
/// parallel scheduler rebuilds crashed instances in.
fn factory(
    depth: usize,
    fault_rate: f64,
    seed: u64,
    capacity: usize,
) -> impl Fn(usize) -> Middleware {
    let incarnations: Arc<Vec<AtomicU64>> =
        Arc::new((0..capacity).map(|_| AtomicU64::new(0)).collect());
    move |index| {
        let stripe = (fault_rate * 100.0).round() as usize;
        let faulty = stripe > 0 && index % 100 < stripe;
        let rng = faulty.then(|| {
            let n = incarnations[index].fetch_add(1, Ordering::Relaxed);
            StdRng::seed_from_u64(
                seed ^ (index as u64).wrapping_mul(0x9E37_79B9) ^ n.wrapping_mul(0xC0FF_EE11),
            )
        });
        let mut mw = Middleware::new();
        let src = mw.add_boxed_component(Box::new(FlakySource { counter: 0, rng }));
        let mut prev = src;
        for d in 0..depth {
            let node = mw.add_component(FnProcessor::new(
                format!("stage{d}"),
                vec![kinds::RAW_STRING],
                kinds::RAW_STRING,
                |item| Some(item.payload.clone()),
            ));
            mw.connect(prev, node, 0).unwrap();
            prev = node;
        }
        let app = mw.application_sink();
        mw.connect_to_sink(prev, app).unwrap();
        mw
    }
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Supervised {
    availability: f64,
    live_steps: u64,
    missed_steps: u64,
    instance_faults: u64,
    restarts: u64,
    cold_restarts: u64,
    quarantines: u64,
    checkpoints: u64,
    mean_recovery_steps: f64,
    wall_s: f64,
    items_per_sec: f64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Unsupervised {
    availability: f64,
    live_steps: u64,
    missed_steps: u64,
    dead_instances: u64,
    wall_s: f64,
    items_per_sec: f64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Sample {
    instances: u64,
    depth: u64,
    fault_rate: f64,
    /// Scheduler the supervised column ran under (availability rows are
    /// all serial; the threads axis lives in the `scaling` section).
    scheduler: String,
    /// Requested worker cap (`1` for serial execution).
    workers: u64,
    supervised: Supervised,
    unsupervised: Unsupervised,
}

/// One row of the threads-axis sweep: the same fleet, the same rounds,
/// a different scheduler. The deterministic counters are asserted equal
/// to the serial row's before the document is written — a scaling row
/// that diverged would be a determinism bug, not a measurement.
#[derive(serde::Serialize, serde::Deserialize)]
struct ScalingSample {
    instances: u64,
    depth: u64,
    fault_rate: f64,
    rounds: u64,
    scheduler: String,
    /// Requested worker cap (`0` = machine-sized).
    workers: u64,
    /// What the cap resolved to on the machine that wrote the document.
    resolved_workers: u64,
    live_steps: u64,
    missed_steps: u64,
    instance_faults: u64,
    restarts: u64,
    cold_restarts: u64,
    quarantines: u64,
    wall_s: f64,
    items_per_sec: f64,
    /// Serial wall time over this row's wall time (1.0 for the serial
    /// row itself).
    speedup_vs_serial: f64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Doc {
    experiment: String,
    cores: u64,
    rounds: u64,
    step_fail_prob: f64,
    results: Vec<Sample>,
    scaling: Vec<ScalingSample>,
}

fn fleet_config(instances: usize, scheduler: FleetScheduler) -> FleetConfig {
    FleetConfig {
        shards: (instances / 320).max(1),
        instances,
        checkpoint_every: 8,
        shard_fault_threshold: 16,
        shard_fault_window: 16,
        seed: 0xf1ee7,
        scheduler,
    }
}

fn run_supervised(
    instances: usize,
    depth: usize,
    fault_rate: f64,
    scheduler: FleetScheduler,
    rounds: u64,
) -> Supervised {
    let mut pool = FleetPool::new(
        fleet_config(instances, scheduler),
        factory(depth, fault_rate, 0xbad5eed, instances),
    );
    let tick = SimDuration::from_millis(100);
    let start = Instant::now();
    pool.run(rounds, tick);
    let secs = start.elapsed().as_secs_f64();
    let t = pool.totals();
    Supervised {
        availability: t.availability(),
        live_steps: t.live_steps,
        missed_steps: t.missed_steps,
        instance_faults: t.instance_faults,
        restarts: t.restarts,
        cold_restarts: t.cold_restarts,
        quarantines: t.quarantines,
        checkpoints: t.checkpoints,
        mean_recovery_steps: t.mean_recovery_steps(),
        wall_s: secs,
        items_per_sec: t.live_steps as f64 / secs,
    }
}

/// The baseline the supervision tax is judged against: the same fleet
/// stepped with no checkpoints, no restarts and no watchdog — the first
/// fault that escapes containment leaves the instance down for the rest
/// of the soak.
fn run_unsupervised(instances: usize, depth: usize, fault_rate: f64) -> Unsupervised {
    let build = factory(depth, fault_rate, 0xbad5eed, instances);
    let mut fleet: Vec<Option<Middleware>> = (0..instances).map(|i| Some(build(i))).collect();
    let tick = SimDuration::from_millis(100);
    let mut live = 0u64;
    let mut missed = 0u64;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for slot in &mut fleet {
            match slot {
                Some(mw) => {
                    let before = mw.steps_run();
                    match mw.step_batch(1, tick) {
                        Ok(()) => live += 1,
                        Err(_) => {
                            live += mw.steps_run().saturating_sub(before);
                            missed += 1;
                            *slot = None;
                        }
                    }
                }
                None => missed += 1,
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let dead = fleet.iter().filter(|s| s.is_none()).count() as u64;
    Unsupervised {
        availability: live as f64 / (live + missed) as f64,
        live_steps: live,
        missed_steps: missed,
        dead_instances: dead,
        wall_s: secs,
        items_per_sec: live as f64 / secs,
    }
}

fn measure(instances: usize, depth: usize, fault_rate: f64) -> Sample {
    let scheduler = FleetScheduler::Serial;
    let supervised = run_supervised(instances, depth, fault_rate, scheduler, ROUNDS);
    let unsupervised = run_unsupervised(instances, depth, fault_rate);
    Sample {
        instances: instances as u64,
        depth: depth as u64,
        fault_rate,
        scheduler: scheduler.as_str().to_string(),
        workers: scheduler.requested_workers() as u64,
        supervised,
        unsupervised,
    }
}

fn print_sample(s: &Sample) {
    println!(
        "{:>9} {:>6} {:>6.2} {:>12.4} {:>12.4} {:>7} {:>9} {:>11} {:>9.1} {:>12.0}",
        s.instances,
        s.depth,
        s.fault_rate,
        s.supervised.availability,
        s.unsupervised.availability,
        s.supervised.instance_faults,
        s.supervised.restarts,
        s.supervised.quarantines,
        s.supervised.mean_recovery_steps,
        s.supervised.items_per_sec,
    );
}

/// Runs the threads-axis sweep at [`SCALING_INSTANCES`]: serial first,
/// then work stealing at several worker caps, asserting every parallel
/// row reproduces the serial counters to the last fault before its
/// timing is accepted as a measurement.
fn run_scaling() -> Vec<ScalingSample> {
    let mut rows = Vec::new();
    for &rate in &[0.0f64, 0.10] {
        let schedulers = [
            FleetScheduler::Serial,
            FleetScheduler::WorkStealing { workers: 1 },
            FleetScheduler::WorkStealing { workers: 2 },
            FleetScheduler::WorkStealing { workers: 4 },
            FleetScheduler::WorkStealing { workers: 8 },
        ];
        let counters = |s: &Supervised| {
            (
                s.live_steps,
                s.missed_steps,
                s.instance_faults,
                s.restarts,
                s.cold_restarts,
                s.quarantines,
                s.checkpoints,
            )
        };
        let mut serial: Option<Supervised> = None;
        for scheduler in schedulers {
            // Best-of-3 on the wall clock (the counters must agree
            // across repeats — they are deterministic); a shared or
            // frequency-scaled host makes single passes unusable.
            let mut s = run_supervised(SCALING_INSTANCES, 1, rate, scheduler, SCALING_ROUNDS);
            for _ in 0..2 {
                let again = run_supervised(SCALING_INSTANCES, 1, rate, scheduler, SCALING_ROUNDS);
                assert_eq!(counters(&s), counters(&again), "repeat diverged");
                if again.wall_s < s.wall_s {
                    s = again;
                }
            }
            let speedup = match &serial {
                None => 1.0,
                Some(base) => {
                    assert_eq!(
                        counters(base),
                        counters(&s),
                        "work-stealing counters diverged from serial at rate {rate}"
                    );
                    base.wall_s / s.wall_s
                }
            };
            let row = ScalingSample {
                instances: SCALING_INSTANCES as u64,
                depth: 1,
                fault_rate: rate,
                rounds: SCALING_ROUNDS,
                scheduler: scheduler.as_str().to_string(),
                workers: scheduler.requested_workers() as u64,
                resolved_workers: scheduler.resolved_workers() as u64,
                live_steps: s.live_steps,
                missed_steps: s.missed_steps,
                instance_faults: s.instance_faults,
                restarts: s.restarts,
                cold_restarts: s.cold_restarts,
                quarantines: s.quarantines,
                wall_s: s.wall_s,
                items_per_sec: s.items_per_sec,
                speedup_vs_serial: speedup,
            };
            println!(
                "{:>9} {:>6.2} {:>14} {:>7} {:>9.2}s {:>12.0} {:>8.2}x",
                row.instances,
                row.fault_rate,
                row.scheduler,
                row.workers,
                row.wall_s,
                row.items_per_sec,
                row.speedup_vs_serial,
            );
            if serial.is_none() {
                serial = Some(s);
            }
            rows.push(row);
        }
    }
    rows
}

/// Fixed deterministic integer kernel used to normalize step times
/// across machines of different speed (same kernel as `exp_channel`).
fn calibrate_once() -> f64 {
    let start = Instant::now();
    let mut v = 0x9e3779b97f4a7c15u64;
    for _ in 0..2_000_000 {
        v = std::hint::black_box(v.wrapping_mul(6_364_136_223_846_793_005).rotate_left(17));
    }
    std::hint::black_box(v);
    start.elapsed().as_nanos() as f64 / 1e3
}

/// Calibrated cost (µs per soak pass over kernel µs) of stepping a
/// modest clean fleet under `scheduler`, measured against *bracketing*
/// kernel passes: each timed pass is framed by calibration kernels, its
/// ratio uses the faster of the two frames, and the smallest ratio
/// across passes wins — the same guard idiom as `exp_channel`, so a
/// transient load spike on the CI host cannot fake (or mask) a scaling
/// regression.
fn scheduler_cost(scheduler: FleetScheduler) -> f64 {
    let instances = 8192;
    let mut pool = FleetPool::new(
        fleet_config(instances, scheduler),
        factory(2, 0.0, 0xbad5eed, instances),
    );
    let tick = SimDuration::from_millis(100);
    pool.run(8, tick); // warmup: populate caches, spawn nothing yet
    let mut best = f64::INFINITY;
    let mut frame = calibrate_once();
    for _ in 0..5 {
        let start = Instant::now();
        pool.run(8, tick);
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        let next = calibrate_once();
        best = best.min(us / frame.min(next));
        frame = next;
    }
    best
}

/// The configuration the CI smoke re-runs and cross-checks.
const SMOKE: (usize, usize, f64) = (2048, 1, 0.10);

/// Minimum calibrated serial/work-stealing cost ratio the smoke demands
/// on a host with >= 2 cores. Two honest workers on a share-nothing
/// fleet should approach 2.0; 1.3 leaves room for thread spawns and
/// a noisy CI neighbour while still catching a scheduler that
/// serializes (ratio ~1.0) or regresses outright.
const SMOKE_MIN_SPEEDUP: f64 = 1.3;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = machine_parallelism();

    println!("=== fleet: supervised soak vs unsupervised baseline ({cores} core(s)) ===\n");
    println!(
        "{:>9} {:>6} {:>6} {:>12} {:>12} {:>7} {:>9} {:>11} {:>9} {:>12}",
        "instances",
        "depth",
        "rate",
        "avail(sup)",
        "avail(raw)",
        "faults",
        "restarts",
        "quarantines",
        "rec steps",
        "items/s"
    );
    println!("{}", "-".repeat(102));

    if smoke {
        let (instances, depth, rate) = SMOKE;
        let s = measure(instances, depth, rate);
        print_sample(&s);
        let mut failed = false;
        if s.supervised.availability < 0.99 {
            eprintln!(
                "FAIL: supervised availability {:.4} under {rate} fault rate (floor 0.99)",
                s.supervised.availability
            );
            failed = true;
        }
        if s.supervised.availability <= s.unsupervised.availability {
            eprintln!("FAIL: supervision does not beat the unsupervised baseline");
            failed = true;
        }
        // Parallel determinism: the same configuration stepped by two
        // stealing workers must land on the exact serial counters.
        let ws = run_supervised(
            instances,
            depth,
            rate,
            FleetScheduler::WorkStealing { workers: 2 },
            ROUNDS,
        );
        let serial_counters = (
            s.supervised.live_steps,
            s.supervised.missed_steps,
            s.supervised.instance_faults,
            s.supervised.restarts,
            s.supervised.cold_restarts,
            s.supervised.quarantines,
            s.supervised.checkpoints,
        );
        let ws_counters = (
            ws.live_steps,
            ws.missed_steps,
            ws.instance_faults,
            ws.restarts,
            ws.cold_restarts,
            ws.quarantines,
            ws.checkpoints,
        );
        if serial_counters != ws_counters {
            eprintln!(
                "FAIL: work-stealing counters diverge from serial: {serial_counters:?} vs {ws_counters:?}"
            );
            failed = true;
        }
        // Scaling guard: on a multi-core host, two stealing workers
        // must actually be faster than the serial scheduler. Calibrated
        // and bracketed so host speed and transient load cancel.
        if cores >= 2 {
            let serial_cost = scheduler_cost(FleetScheduler::Serial);
            let ws_cost = scheduler_cost(FleetScheduler::WorkStealing { workers: 2 });
            let speedup = serial_cost / ws_cost;
            println!(
                "\nscaling guard: serial cost {serial_cost:.2}, 2-worker cost {ws_cost:.2}, speedup {speedup:.2}x"
            );
            if speedup < SMOKE_MIN_SPEEDUP {
                eprintln!(
                    "FAIL: 2-worker work stealing speedup {speedup:.2}x below the {SMOKE_MIN_SPEEDUP}x floor"
                );
                failed = true;
            }
        } else {
            println!("\nscaling guard skipped: single-core host cannot demonstrate a speedup");
        }
        // Regeneration check: the committed baseline must contain this
        // exact configuration with the exact deterministic counters the
        // re-run just produced (timing columns excluded by design).
        match std::fs::read_to_string("BENCH_fleet.json") {
            Ok(text) => {
                let baseline: Doc = serde_json::from_str(&text).unwrap();
                match baseline.results.iter().find(|r| {
                    r.instances == instances as u64
                        && r.depth == depth as u64
                        && (r.fault_rate - rate).abs() < 1e-9
                }) {
                    Some(base) => {
                        let same = base.supervised.live_steps == s.supervised.live_steps
                            && base.supervised.missed_steps == s.supervised.missed_steps
                            && base.supervised.instance_faults == s.supervised.instance_faults
                            && base.supervised.restarts == s.supervised.restarts
                            && base.supervised.cold_restarts == s.supervised.cold_restarts
                            && base.supervised.quarantines == s.supervised.quarantines
                            && base.unsupervised.live_steps == s.unsupervised.live_steps
                            && base.unsupervised.dead_instances == s.unsupervised.dead_instances;
                        if !same {
                            eprintln!(
                                "FAIL: BENCH_fleet.json counters diverge from a fresh run — \
                                 regenerate with `cargo run -p perpos-bench --bin exp_fleet --release`"
                            );
                            failed = true;
                        }
                    }
                    None => {
                        eprintln!("FAIL: BENCH_fleet.json misses the smoke configuration");
                        failed = true;
                    }
                }
                // The flagship row the paper-scale claim rests on.
                let flagship = baseline
                    .results
                    .iter()
                    .find(|r| r.instances >= 10_000 && (r.fault_rate - 0.10).abs() < 1e-9);
                match flagship {
                    Some(f) if f.supervised.availability >= 0.99 => {}
                    Some(f) => {
                        eprintln!(
                            "FAIL: committed flagship availability {:.4} below 0.99",
                            f.supervised.availability
                        );
                        failed = true;
                    }
                    None => {
                        eprintln!("FAIL: BENCH_fleet.json misses a >=10k-instance 10% row");
                        failed = true;
                    }
                }
                // The committed scaling section must carry the threads
                // axis at paper scale, and its parallel rows must have
                // recorded the same deterministic counters as serial.
                let scale_rows: Vec<&ScalingSample> = baseline
                    .scaling
                    .iter()
                    .filter(|r| r.instances >= SCALING_INSTANCES as u64)
                    .collect();
                if !scale_rows.iter().any(|r| r.scheduler == "serial")
                    || !scale_rows
                        .iter()
                        .any(|r| r.scheduler == "work_stealing" && r.workers == 4)
                {
                    eprintln!(
                        "FAIL: BENCH_fleet.json scaling section misses the serial or \
                         4-worker row at >= {SCALING_INSTANCES} instances"
                    );
                    failed = true;
                }
                for row in &scale_rows {
                    let serial = scale_rows.iter().find(|r| {
                        r.scheduler == "serial" && (r.fault_rate - row.fault_rate).abs() < 1e-9
                    });
                    let counters = |r: &ScalingSample| {
                        (
                            r.live_steps,
                            r.missed_steps,
                            r.instance_faults,
                            r.restarts,
                            r.cold_restarts,
                            r.quarantines,
                        )
                    };
                    if let Some(serial) = serial {
                        if counters(row) != counters(serial) {
                            eprintln!(
                                "FAIL: committed scaling row ({} workers {}) diverges from serial",
                                row.scheduler, row.workers
                            );
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("FAIL: no committed BENCH_fleet.json baseline to compare ({e})");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("\nsmoke OK: floor held, schedulers agree, baseline regenerates");
        return;
    }

    let mut results = Vec::new();
    for &instances in &[2048usize, 10_240] {
        for &depth in &[1usize, 4] {
            for &rate in &[0.0f64, 0.05, 0.10] {
                let s = measure(instances, depth, rate);
                print_sample(&s);
                results.push(s);
            }
        }
    }

    println!("\n=== fleet: threads axis at {SCALING_INSTANCES} instances ===\n");
    println!(
        "{:>9} {:>6} {:>14} {:>7} {:>10} {:>12} {:>9}",
        "instances", "rate", "scheduler", "workers", "wall", "items/s", "speedup"
    );
    println!("{}", "-".repeat(74));
    let scaling = run_scaling();

    let doc = Doc {
        experiment: "fleet".to_string(),
        cores: cores as u64,
        rounds: ROUNDS,
        step_fail_prob: STEP_FAIL_PROB,
        results,
        scaling,
    };
    std::fs::write(
        "BENCH_fleet.json",
        serde_json::to_string_pretty(&doc).unwrap() + "\n",
    )
    .unwrap();
    println!("\nwrote BENCH_fleet.json");
}
