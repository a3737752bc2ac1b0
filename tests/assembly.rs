//! End-to-end test of dynamic assembly: the full Fig. 1 GPS pipeline
//! wired automatically by the data kinds its factories declare to
//! provide and require, which `Assembler::sync` resolves, like the
//! paper's OSGi-based composition.

#![allow(clippy::unwrap_used)]
use perpos::core::assembly::Assembler;
use perpos::prelude::*;

#[test]
fn full_pipeline_assembles_from_factories() {
    let frame = LocalFrame::new(Wgs84::new(56.17, 10.19, 0.0).unwrap());
    let walk = Trajectory::stationary(Point2::new(0.0, 0.0));

    let mut mw = Middleware::new();
    let mut asm = Assembler::new();

    // Register top-down — resolution order must not matter.
    let interp_id = asm.register_factory(
        "interpreter",
        &[kinds::POSITION_WGS84],
        &[kinds::NMEA_SENTENCE],
        || Box::new(Interpreter::new()),
    );
    let parser_id = asm.register_factory(
        "parser",
        &[kinds::NMEA_SENTENCE],
        &[kinds::RAW_STRING],
        || Box::new(Parser::new()),
    );
    assert_eq!(asm.sync(&mut mw).unwrap(), 0, "nothing resolves yet");

    let gps_id = {
        let walk = walk.clone();
        asm.register_factory("gps", &[kinds::RAW_STRING], &[], move || {
            Box::new(GpsSimulator::new("GPS", frame, walk.clone()).with_seed(3))
        })
    };
    let added = asm.sync(&mut mw).unwrap();
    assert_eq!(added, 3, "whole chain instantiates at once");

    // Wire the assembled interpreter to the application and run.
    let interp_node = asm.node_for(interp_id).unwrap();
    let app = mw.application_sink();
    mw.connect_to_sink(interp_node, app).unwrap();
    let provider = mw
        .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
        .unwrap();
    mw.run_for(SimDuration::from_secs(20), SimDuration::from_secs(1))
        .unwrap();
    assert!(provider.last_position().is_some());

    // Channel view reflects the assembled pipeline.
    let channels = mw.channels();
    assert_eq!(channels.len(), 1);
    assert_eq!(
        channels[0].member_names,
        vec!["GPS", "Parser", "Interpreter"]
    );

    // Tearing the sensor down unresolves and removes the whole chain.
    asm.unregister_factory(gps_id, &mut mw).unwrap();
    asm.sync(&mut mw).unwrap();
    assert!(asm.node_for(parser_id).is_none());
    assert!(asm.node_for(interp_id).is_none());
    // Engine still steps with just the sink left.
    mw.step().unwrap();
}
