//! Experiment FR — fault containment and recovery. Measures positioning
//! availability (fraction of ticks on which the application can obtain a
//! fresh position) under a sweep of injected fault rates, comparing the
//! unsupervised engine (the paper's abort-on-error contract) with the
//! supervision policies and with provider failover across a redundant
//! GPS + WiFi topology.
//!
//! Faults come from [`perpos_sensors::FaultInjector`] with a fixed seed,
//! so every arm of a row sees the identical fault schedule.
//!
//! Run with: `cargo run -p perpos-bench --bin exp_fault_recovery --release`

#![allow(clippy::unwrap_used)]
use perpos_core::prelude::*;
use perpos_core::supervision::FaultPolicy;
use perpos_geo::Wgs84;
use perpos_sensors::FaultInjector;

const TICKS: u64 = 600; // 10 minutes at 1 Hz
const SEED: u64 = 1347;
/// A position counts as "live" while younger than 2.5 ticks.
const FRESH_MS: u64 = 2500;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Arm {
    /// Default `Propagate` policy: the first fault aborts the run, as a
    /// `run_for` driver would experience it.
    Unsupervised,
    /// Faulty items are contained and dropped; flow continues.
    DropItem,
    /// Circuit breaker around the source (3 faults / 10 s, 5 s backoff).
    Quarantine,
    /// Quarantine plus a redundant WiFi pipeline behind a
    /// `FailoverProvider`.
    QuarantineFailover,
}

/// A sensor stand-in emitting one tagged WGS84 position per tick.
struct PosSource {
    name: String,
    lat: f64,
}

impl Component for PosSource {
    fn descriptor(&self) -> perpos_core::component::ComponentDescriptor {
        perpos_core::component::ComponentDescriptor::source(
            self.name.clone(),
            vec![kinds::POSITION_WGS84],
        )
    }

    fn on_input(
        &mut self,
        _port: usize,
        _item: DataItem,
        _ctx: &mut perpos_core::component::ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }

    fn on_tick(
        &mut self,
        ctx: &mut perpos_core::component::ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let coord = Wgs84::new(self.lat, 10.0, 0.0).unwrap();
        let item = DataItem::new(
            kinds::POSITION_WGS84,
            ctx.now(),
            Value::from(Position::new(coord, Some(5.0))),
        )
        .with_attr("source", Value::from(self.name.as_str()));
        ctx.emit(item);
        Ok(())
    }
}

fn quarantine_policy() -> FaultPolicy {
    FaultPolicy::Quarantine {
        max_faults: 3,
        window: SimDuration::from_secs(10),
        backoff: SimDuration::from_secs(5),
    }
}

/// Runs one arm at one fault rate; returns availability in [0, 1].
fn run(arm: Arm, fault_rate: f64) -> f64 {
    let mut mw = Middleware::new();
    let gps = mw.add_component(PosSource {
        name: "gps".into(),
        lat: 1.0,
    });
    let app = mw.application_sink();
    mw.connect(gps, app, 0).unwrap();

    // 70% of injected faults are errors, 30% are panics — both must be
    // contained identically by the supervisor.
    let injector = FaultInjector::with_seed(SEED)
        .with_error_rate(fault_rate * 0.7)
        .with_panic_rate(fault_rate * 0.3);
    mw.attach_feature(gps, injector).unwrap();

    match arm {
        Arm::Unsupervised => {}
        Arm::DropItem => mw.set_fault_policy(gps, FaultPolicy::DropItem).unwrap(),
        Arm::Quarantine | Arm::QuarantineFailover => {
            mw.set_fault_policy(gps, quarantine_policy()).unwrap()
        }
    }

    let failover = if arm == Arm::QuarantineFailover {
        let wifi = mw.add_component(PosSource {
            name: "wifi".into(),
            lat: 2.0,
        });
        mw.connect(wifi, app, 1).unwrap();
        Some(
            mw.failover_provider(vec![
                Criteria::new().source("gps"),
                Criteria::new().source("wifi"),
            ])
            .unwrap(),
        )
    } else {
        None
    };
    let provider = mw
        .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
        .unwrap();

    let fresh = SimDuration::from_millis(FRESH_MS);
    let mut live = 0u64;
    let mut dead = false;
    for _ in 0..TICKS {
        if !dead {
            match mw.step() {
                Ok(()) => {}
                Err(_) if arm == Arm::Unsupervised => {
                    // The abort-on-error contract: the driver stops; no
                    // further positions arrive for the rest of the run.
                    dead = true;
                }
                Err(e) => panic!("supervised arm must contain faults: {e}"),
            }
        }
        let now = mw.now();
        let have = match &failover {
            Some(f) => f.last_position_within(fresh, now).is_some(),
            None => provider.last_position_within(fresh, now).is_some(),
        };
        if have {
            live += 1;
        }
        mw.advance_clock(SimDuration::from_secs(1));
    }
    live as f64 / TICKS as f64
}

fn main() {
    // Injected panics are part of the experiment; keep stderr readable.
    std::panic::set_hook(Box::new(|_| {}));

    println!("=== Fault containment & recovery: availability under injected faults ===\n");
    println!(
        "(availability = fraction of {TICKS} 1 Hz ticks with a position younger than {FRESH_MS} ms; \
seed {SEED})\n"
    );
    println!(
        "{:<12} {:>14} {:>11} {:>12} {:>20}",
        "fault rate", "unsupervised", "drop_item", "quarantine", "quarantine+failover"
    );
    println!("{}", "-".repeat(74));
    for rate in [0.0, 0.05, 0.10, 0.20, 0.30] {
        let cols = [
            run(Arm::Unsupervised, rate),
            run(Arm::DropItem, rate),
            run(Arm::Quarantine, rate),
            run(Arm::QuarantineFailover, rate),
        ];
        println!(
            "{:<12} {:>14.3} {:>11.3} {:>12.3} {:>20.3}",
            format!("{:.0}%", rate * 100.0),
            cols[0],
            cols[1],
            cols[2],
            cols[3]
        );
    }
    let _ = std::panic::take_hook();
    println!(
        "\n(expected shape — unsupervised availability collapses once the first fault kills the\n\
 run; drop_item stays near 1.0 because a fresh position survives isolated drops;\n\
 quarantine trades some availability for isolation when the breaker opens on fault\n\
 bursts; the redundant WiFi pipeline behind the failover provider restores\n\
 availability to ~1.0 regardless of the GPS fault rate)"
    );
}
