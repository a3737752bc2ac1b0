//! Criteria-driven pipeline synthesis, end to end (paper §2.3: the
//! application states criteria, the middleware adapts the positioning
//! process).
//!
//! Instead of hand-wiring a pipeline, this example:
//! 1. probes a [`TypeCatalog`] from the component factories — the same
//!    declarations the graph validates at connect time feed the search,
//! 2. asks the synthesizer for a pipeline meeting *criteria* (accuracy
//!    ≤ 5 m, no identifiable sensor data at the application),
//! 3. instantiates the top-ranked candidate through the re-checked
//!    `instantiate_checked` gate, and
//! 4. runs it for 100 logical ticks and reads positions.
//!
//! It also shows the other half of the contract: an impossible goal is
//! answered with the *binding constraint*, not an empty list.
//!
//! Run with: `cargo run --example synthesized_pipeline`

use std::collections::BTreeMap;
use std::sync::Arc;

use perpos::analysis::{gate, synthesize, SynthesisGoal, TypeCatalog};
use perpos::core::assembly::ComponentFactory;
use perpos::prelude::*;
use perpos::sensors::RadioMap;

fn factories() -> BTreeMap<String, ComponentFactory> {
    let building = Arc::new(demo_building());
    let frame = *building.frame();
    let walk = Trajectory::stationary(Point2::new(10.0, 5.25));
    let env = Arc::new(WifiEnvironment::with_ap_per_room(Arc::clone(&building), 0));
    let map = Arc::new(RadioMap::build(&env, 1.0));

    let mut f: BTreeMap<String, ComponentFactory> = BTreeMap::new();
    {
        let walk = walk.clone();
        f.insert(
            "gps".into(),
            Box::new(move || Box::new(GpsSimulator::new("GPS", frame, walk.clone()).with_seed(11))),
        );
    }
    f.insert("parser".into(), Box::new(|| Box::new(Parser::new())));
    f.insert(
        "interpreter".into(),
        Box::new(|| Box::new(Interpreter::new())),
    );
    {
        let env = Arc::clone(&env);
        let walk = walk.clone();
        f.insert(
            "wifi".into(),
            Box::new(move || {
                Box::new(WifiScanner::new("WiFi", Arc::clone(&env), walk.clone()).with_seed(5))
            }),
        );
    }
    f.insert(
        "wifipositioning".into(),
        Box::new(move || {
            Box::new(WifiPositioning::new(
                Arc::clone(&map),
                Arc::clone(&building),
            ))
        }),
    );
    f
}

fn main() -> Result<(), CoreError> {
    let factories = factories();
    // Translucency applied to synthesis: the catalog is probed from the
    // very factories the pipeline will be built from.
    let catalog = TypeCatalog::probe(&factories);

    let goal = SynthesisGoal {
        accuracy_m: Some(5.0),
        no_identifiable_at_sink: true,
        ..SynthesisGoal::default()
    };
    println!("goal: {}", goal.summary());

    let result = synthesize(&goal, &catalog);
    for c in &result.candidates {
        let chain: Vec<&str> = c
            .config
            .components
            .iter()
            .map(|comp| comp.name.as_str())
            .collect();
        let fmt = |v: Option<f64>| v.map_or("?".to_string(), |x| x.to_string());
        println!(
            "  candidate #{}: {}  (accuracy {}..{} m)",
            c.rank,
            chain.join(" -> "),
            fmt(c.accuracy_best_m),
            fmt(c.accuracy_worst_m)
        );
    }
    let best = result
        .candidates
        .first()
        .expect("the probed catalog satisfies the goal");
    let synthesized = best.clone().into_synthesized(&goal);

    // Instantiate through the gate: the middleware re-runs the full lint
    // pass on the synthesized configuration before building anything.
    let mut mw = Middleware::new();
    let check = gate::config_gate(catalog);
    let nodes = synthesized
        .config
        .instantiate_checked(&mut mw, &factories, &check)?;
    println!(
        "instantiated {} nodes from rank-{} pipeline (goal: {})",
        nodes.len(),
        synthesized.rank,
        synthesized.goal
    );

    let provider = mw.location_provider(Criteria::new().kind(kinds::POSITION_WGS84))?;
    mw.step_batch(100, SimDuration::from_millis(500))?;
    println!("steps run       : {}", mw.steps_run());
    match provider.last_position() {
        Some(p) => println!("latest position : {p}"),
        None => println!("latest position : (none yet)"),
    }

    // The impossible version of the same request: the answer names the
    // binding constraint instead of silently returning nothing.
    let impossible = SynthesisGoal {
        accuracy_m: Some(0.1),
        ..SynthesisGoal::default()
    };
    let infeasible = synthesize(&impossible, &TypeCatalog::probe(&factories));
    if let Some(inf) = &infeasible.infeasibility {
        println!("\ninfeasible goal : {}", impossible.summary());
        println!("binding         : {} ({})", inf.constraint, inf.detail);
    }
    Ok(())
}
