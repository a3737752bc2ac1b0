//! Config-vs-live parity of the dataflow analyses (P010-P013), and the
//! semantic side of adaptation checking: predicted accuracy/rate/taint
//! deltas, quarantined plan targets and privacy regressions caused by
//! feature detachment.
//!
//! Each parity test builds a live middleware graph (or a structure
//! simulated from one, for shapes the live graph refuses to build) that
//! mirrors one of the JSON fixtures and asserts that
//! [`analyze_structure`] and [`analyze_config`] report the same
//! (code, severity) multiset: the translucent promise is that declared
//! configurations and reflected structures are judged by one analysis,
//! not two.

#![allow(clippy::unwrap_used)]

use perpos_analysis::adaptation::{
    check_adaptation, check_adaptation_with_facts, simulate, AdaptationOp, AdaptationPlan,
};
use perpos_analysis::{analyze_config, analyze_structure, Code, Report, Severity, TypeCatalog};
use perpos_core::assembly::GraphConfig;
use perpos_core::graph::NodeInfo;
use perpos_core::prelude::*;

// ---------------------------------------------------------------------
// A descriptor-only component: static analysis never runs the graph.
// ---------------------------------------------------------------------

struct Stub {
    desc: ComponentDescriptor,
}

impl Component for Stub {
    fn descriptor(&self) -> ComponentDescriptor {
        self.desc.clone()
    }

    fn on_input(
        &mut self,
        _port: usize,
        _item: DataItem,
        _ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }
}

fn stub(desc: ComponentDescriptor) -> Box<dyn Component> {
    Box::new(Stub { desc })
}

// Live descriptors mirroring the transfer metadata declared for the
// same kinds in tests/fixtures/catalog.json.

fn gps_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::source(name, vec![kinds::RAW_STRING]).with_transfer(
        TransferSpec::new()
            .with_frame("wgs84")
            .with_accuracy_m(2.0, 30.0)
            .with_emit_rate_hz(1.0),
    )
}

fn beacon_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::source(name, vec![kinds::POSITION_WGS84]).with_transfer(
        TransferSpec::new()
            .with_frame("local")
            .with_accuracy_m(0.5, 3.0)
            .with_emit_rate_hz(5.0),
    )
}

fn parser_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::processor(
        name,
        InputSpec::new("in", vec![kinds::RAW_STRING]),
        vec![kinds::NMEA_SENTENCE],
    )
}

fn decoder_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::processor(
        name,
        InputSpec::new("in", vec![kinds::NMEA_SENTENCE]),
        vec![kinds::POSITION_WGS84],
    )
}

fn fusion_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::merge(
        name,
        vec![
            InputSpec::new("a", vec![kinds::POSITION_WGS84]),
            InputSpec::new("b", vec![kinds::POSITION_WGS84]),
        ],
        vec![kinds::POSITION_WGS84],
    )
}

fn predictor_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::processor(
        name,
        InputSpec::new("in", vec![kinds::POSITION_WGS84]),
        vec![kinds::POSITION_WGS84],
    )
    .with_transfer(TransferSpec {
        claims_accuracy_m: Some(0.5),
        ..TransferSpec::new()
    })
}

fn throttle_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::processor(
        name,
        InputSpec::new("in", vec![kinds::NMEA_SENTENCE]),
        vec![kinds::NMEA_SENTENCE],
    )
    .with_transfer(TransferSpec::new().with_max_rate_hz(0.5))
}

// ---------------------------------------------------------------------
// Parity harness
// ---------------------------------------------------------------------

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn catalog() -> TypeCatalog {
    serde_json::from_str(&fixture("catalog.json")).unwrap()
}

fn fixture_config(name: &str) -> GraphConfig {
    serde_json::from_str(&fixture(name)).unwrap()
}

fn findings(report: &Report) -> Vec<(&'static str, Severity)> {
    let mut v: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.code.as_str(), d.severity))
        .collect();
    v.sort_unstable();
    v
}

/// Asserts the structure and the configuration report the same
/// (code, severity) multiset, and that `expected` is among them.
fn assert_parity(structure: &[NodeInfo], config: &GraphConfig, expected: Code) {
    let live = analyze_structure(structure);
    let config = analyze_config(config, &catalog());
    assert_eq!(
        findings(&live),
        findings(&config),
        "live:\n{}\nconfig:\n{}",
        live.render_human(),
        config.render_human()
    );
    assert!(
        !live.with_code(expected).is_empty(),
        "{}",
        live.render_human()
    );
}

/// Applies `plan` to the middleware's structure; the plan itself must
/// apply cleanly (the shape it builds is what the parity test checks).
fn simulated(mw: &Middleware, plan: AdaptationPlan) -> Vec<NodeInfo> {
    let (nodes, ops) = simulate(mw.structure(), &plan);
    assert!(ops.is_clean(), "{}", ops.render_human());
    nodes
}

fn connect(from: NodeId, to: NodeId, port: usize) -> AdaptationPlan {
    AdaptationPlan::new().then(AdaptationOp::Connect { from, to, port })
}

#[test]
fn p010_frame_conflict_config_and_live_agree() {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(stub(gps_desc("gps0")));
    let parse = mw.add_boxed_component(stub(parser_desc("parse0")));
    let decode = mw.add_boxed_component(stub(decoder_desc("decode0")));
    let beacon = mw.add_boxed_component(stub(beacon_desc("beacon0")));
    let fuse = mw.add_boxed_component(stub(fusion_desc("fuse0")));
    let app = mw.application_sink();
    mw.connect(gps, parse, 0).unwrap();
    mw.connect(parse, decode, 0).unwrap();
    mw.connect(decode, fuse, 0).unwrap();
    mw.connect(beacon, fuse, 1).unwrap();
    mw.connect(fuse, app, 0).unwrap();
    assert_parity(
        &mw.structure(),
        &fixture_config("p010_frame_conflict.json"),
        Code::P010,
    );
}

#[test]
fn p011_unreachable_accuracy_config_and_live_agree() {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(stub(gps_desc("gps0")));
    let parse = mw.add_boxed_component(stub(parser_desc("parse0")));
    let decode = mw.add_boxed_component(stub(decoder_desc("decode0")));
    let predict = mw.add_boxed_component(stub(predictor_desc("predict0")));
    let app = mw.application_sink();
    mw.connect(gps, parse, 0).unwrap();
    mw.connect(parse, decode, 0).unwrap();
    mw.connect(decode, predict, 0).unwrap();
    mw.connect(predict, app, 0).unwrap();
    assert_parity(
        &mw.structure(),
        &fixture_config("p011_unreachable_accuracy.json"),
        Code::P011,
    );
}

#[test]
fn p012_raw_to_sink_config_and_live_agree() {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(stub(gps_desc("gps0")));
    let app = mw.application_sink();
    mw.connect(gps, app, 0).unwrap();
    assert_parity(
        &mw.structure(),
        &fixture_config("p012_raw_to_sink.json"),
        Code::P012,
    );
}

#[test]
fn p013_rate_overrun_config_and_live_agree() {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(stub(gps_desc("gps0")));
    let parse = mw.add_boxed_component(stub(parser_desc("parse0")));
    let slow = mw.add_boxed_component(stub(throttle_desc("slow0")));
    let decode = mw.add_boxed_component(stub(decoder_desc("decode0")));
    let app = mw.application_sink();
    mw.connect(gps, parse, 0).unwrap();
    mw.connect(parse, slow, 0).unwrap();
    mw.connect(slow, decode, 0).unwrap();
    mw.connect(decode, app, 0).unwrap();
    assert_parity(
        &mw.structure(),
        &fixture_config("p013_rate_overrun.json"),
        Code::P013,
    );
}

fn projector_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::processor(
        name,
        InputSpec::new("in", vec![kinds::POSITION_WGS84]),
        vec![kinds::POSITION_WGS84],
    )
    .with_transfer(TransferSpec::new().transforms_frames())
}

fn confidence_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::processor(
        name,
        InputSpec::new("in", vec![kinds::POSITION_WGS84]).requiring_feature("Hdop"),
        vec![kinds::POSITION_WGS84],
    )
}

fn echo_desc(name: &str) -> ComponentDescriptor {
    ComponentDescriptor::processor(
        name,
        InputSpec::new("in", vec![]),
        vec![kinds::NMEA_SENTENCE],
    )
}

// Structural findings (P001-P005): the live graph refuses to build
// mismatched, feature-less or cyclic wires, so those shapes come from
// simulating the one offending connect.

#[test]
fn p001_kind_mismatch_config_and_live_agree() {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(stub(gps_desc("gps0")));
    let decode = mw.add_boxed_component(stub(decoder_desc("decode0")));
    let app = mw.application_sink();
    mw.connect(decode, app, 0).unwrap();
    let structure = simulated(&mw, connect(gps, decode, 0));
    assert_parity(
        &structure,
        &fixture_config("p001_kind_mismatch.json"),
        Code::P001,
    );
}

#[test]
fn p002_dangling_input_config_and_live_agree() {
    let mut mw = Middleware::new();
    let parse = mw.add_boxed_component(stub(parser_desc("parse0")));
    let app = mw.application_sink();
    mw.connect(parse, app, 0).unwrap();
    assert_parity(
        &mw.structure(),
        &fixture_config("p002_dangling_input.json"),
        Code::P002,
    );
}

#[test]
fn p003_missing_feature_config_and_live_agree() {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(stub(gps_desc("gps0")));
    let parse = mw.add_boxed_component(stub(parser_desc("parse0")));
    let decode = mw.add_boxed_component(stub(decoder_desc("decode0")));
    let conf = mw.add_boxed_component(stub(confidence_desc("conf0")));
    let app = mw.application_sink();
    mw.connect(gps, parse, 0).unwrap();
    mw.connect(parse, decode, 0).unwrap();
    mw.connect(conf, app, 0).unwrap();
    let structure = simulated(&mw, connect(decode, conf, 0));
    assert_parity(
        &structure,
        &fixture_config("p003_missing_feature.json"),
        Code::P003,
    );
}

#[test]
fn p004_dead_component_config_and_live_agree() {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(stub(gps_desc("gps0")));
    let parse = mw.add_boxed_component(stub(parser_desc("parse0")));
    mw.add_boxed_component(stub(gps_desc("gps_spare")));
    let app = mw.application_sink();
    mw.connect(gps, parse, 0).unwrap();
    mw.connect(parse, app, 0).unwrap();
    assert_parity(
        &mw.structure(),
        &fixture_config("p004_dead_component.json"),
        Code::P004,
    );
}

#[test]
fn p005_cycle_config_and_live_agree() {
    let mut mw = Middleware::new();
    let echo1 = mw.add_boxed_component(stub(echo_desc("echo1")));
    let echo2 = mw.add_boxed_component(stub(echo_desc("echo2")));
    let app = mw.application_sink();
    mw.connect(echo1, echo2, 0).unwrap();
    mw.connect(echo2, app, 0).unwrap();
    let structure = simulated(&mw, connect(echo2, echo1, 0));
    assert_parity(&structure, &fixture_config("p005_cycle.json"), Code::P005);
}

#[test]
fn two_cycles_through_one_merge_are_one_p005_on_both_sides() {
    // m0 ⇄ b0 and m0 ⇄ c0: two cycles, one strongly connected component
    // {b0, c0, m0}, so one finding whichever surface declares it.
    let config: GraphConfig = serde_json::from_str(
        r#"{
            "components": [
                {"name": "m0", "kind": "fusion"},
                {"name": "b0", "kind": "projector"},
                {"name": "c0", "kind": "projector"},
                {"name": "app", "kind": "application"}
            ],
            "connections": [
                {"from": "m0", "to": "b0", "port": 0},
                {"from": "m0", "to": "c0", "port": 0},
                {"from": "m0", "to": "app", "port": 0},
                {"from": "b0", "to": "m0", "port": 0},
                {"from": "c0", "to": "m0", "port": 1}
            ]
        }"#,
    )
    .unwrap();
    let mut mw = Middleware::new();
    let m0 = mw.add_boxed_component(stub(fusion_desc("m0")));
    let b0 = mw.add_boxed_component(stub(projector_desc("b0")));
    let c0 = mw.add_boxed_component(stub(projector_desc("c0")));
    let app = mw.application_sink();
    mw.connect(m0, b0, 0).unwrap();
    mw.connect(m0, c0, 0).unwrap();
    mw.connect(m0, app, 0).unwrap();
    let plan = connect(b0, m0, 0).then(AdaptationOp::Connect {
        from: c0,
        to: m0,
        port: 1,
    });
    let structure = simulated(&mw, plan);
    assert_parity(&structure, &config, Code::P005);
    let live = analyze_structure(&structure);
    assert_eq!(
        live.with_code(Code::P005).len(),
        1,
        "{}",
        live.render_human()
    );
}

// ---------------------------------------------------------------------
// Semantic deltas of adaptation plans
// ---------------------------------------------------------------------

fn refiner_desc(name: &str) -> ComponentDescriptor {
    // A position refiner: improves accuracy to 1-5 m and halves the
    // item rate.
    ComponentDescriptor::processor(
        name,
        InputSpec::new("in", vec![kinds::NMEA_SENTENCE]),
        vec![kinds::POSITION_WGS84],
    )
    .with_transfer(TransferSpec {
        rate_factor: Some(0.5),
        ..TransferSpec::new().with_accuracy_m(1.0, 5.0)
    })
}

#[test]
fn adaptation_reports_accuracy_rate_and_taint_deltas() {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(stub(gps_desc("gps0")));
    let parse = mw.add_boxed_component(stub(parser_desc("parse0")));
    let refine = mw.add_boxed_component(stub(refiner_desc("refine0")));
    let app = mw.application_sink();
    mw.connect(gps, parse, 0).unwrap();
    mw.connect(parse, refine, 0).unwrap();
    mw.connect(refine, app, 0).unwrap();

    // Bypass the whole processing chain: wire the raw GPS straight into
    // the application.
    let plan = AdaptationPlan::new()
        .then(AdaptationOp::Disconnect { to: app, port: 0 })
        .then(AdaptationOp::Remove { node: refine })
        .then(AdaptationOp::Connect {
            from: gps,
            to: app,
            port: 0,
        });
    let outcome = check_adaptation_with_facts(&mw, &plan);
    let report = &outcome.report;

    let delta = |code: Code| -> Vec<&perpos_analysis::Diagnostic> {
        report
            .with_code(code)
            .into_iter()
            .filter(|d| d.severity == Severity::Info)
            .collect()
    };
    // Accuracy: [1 m, 5 m] at the sink degrades to the raw [2 m, 30 m].
    let acc = delta(Code::P011);
    assert_eq!(acc.len(), 1, "{}", report.render_human());
    assert!(acc[0].message.contains("accuracy"), "{}", acc[0].message);
    // Rate: the 0.5 items/s refined stream becomes the full 1 Hz feed.
    let rate = delta(Code::P013);
    assert_eq!(rate.len(), 1, "{}", report.render_human());
    // Taint: raw identifiable NMEA strings now reach the application —
    // also a hard P012 error on the resulting structure.
    let taint = delta(Code::P012);
    assert_eq!(taint.len(), 1, "{}", report.render_human());
    assert!(
        taint[0].message.contains("raw.string"),
        "{}",
        taint[0].message
    );
    assert!(report.has_errors(), "{}", report.render_human());

    // The outcome exposes the facts both ways for plan comparison.
    assert!(outcome.before_facts.converged && outcome.after_facts.converged);
    assert_ne!(
        outcome.before_graph.nodes.len(),
        outcome.after_graph.nodes.len()
    );
}

#[test]
fn adapting_a_quarantined_node_warns() {
    struct Failing {
        name: String,
    }
    impl Component for Failing {
        fn descriptor(&self) -> ComponentDescriptor {
            ComponentDescriptor::source(self.name.clone(), vec![kinds::RAW_STRING])
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
            Err(CoreError::ComponentFailure {
                component: self.name.clone(),
                reason: "sensor down".into(),
            })
        }
    }

    let mut mw = Middleware::new();
    let gps = mw.add_component(Failing { name: "gps".into() });
    let parse = mw.add_boxed_component(stub(parser_desc("parse0")));
    let app = mw.application_sink();
    mw.connect(gps, parse, 0).unwrap();
    mw.connect(parse, app, 0).unwrap();
    mw.set_fault_policy(
        gps,
        FaultPolicy::Quarantine {
            max_faults: 1,
            window: SimDuration::from_secs(10),
            backoff: SimDuration::from_secs(60),
        },
    )
    .unwrap();
    for _ in 0..2 {
        let _ = mw.step();
    }
    assert_eq!(mw.node_health(gps).status, HealthStatus::Quarantined);

    let plan = AdaptationPlan::new().then(AdaptationOp::AttachFeature {
        node: gps,
        descriptor: FeatureDescriptor::new("NumberOfSatellites"),
    });
    let report = check_adaptation(&mw, &plan);
    let hits = report.with_code(Code::P007);
    assert_eq!(hits.len(), 1, "{}", report.render_human());
    assert_eq!(hits[0].severity, Severity::Warning);
    assert!(
        hits[0].message.contains("quarantined"),
        "{}",
        hits[0].message
    );
    // The plan still applies — a warning, not an error.
    assert!(!report.has_errors(), "{}", report.render_human());
}

#[test]
fn detaching_the_only_anonymizing_feature_surfaces_p012() {
    // A pass-through feature that declares it anonymizes the host's
    // output; the analysis only reads the descriptor.
    struct Anonymizer;
    impl ComponentFeature for Anonymizer {
        fn descriptor(&self) -> FeatureDescriptor {
            FeatureDescriptor::new("Anonymize").anonymizing()
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(stub(gps_desc("gps0")));
    let app = mw.application_sink();
    mw.connect(gps, app, 0).unwrap();
    mw.attach_feature(gps, Anonymizer).unwrap();

    // With the feature attached the raw feed is scrubbed: clean.
    let before = analyze_structure(&mw.structure());
    assert!(
        before.with_code(Code::P012).is_empty(),
        "{}",
        before.render_human()
    );

    // Detaching it would let identifiable data through to the sink.
    let plan = AdaptationPlan::new().then(AdaptationOp::DetachFeature {
        node: gps,
        feature: "Anonymize".into(),
    });
    let report = check_adaptation(&mw, &plan);
    let errors: Vec<_> = report
        .with_code(Code::P012)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{}", report.render_human());
    assert!(report.has_errors());
    // And the semantic delta names the newly-arriving taint.
    let infos: Vec<_> = report
        .with_code(Code::P012)
        .into_iter()
        .filter(|d| d.severity == Severity::Info)
        .collect();
    assert_eq!(infos.len(), 1, "{}", report.render_human());
    assert!(
        infos[0].message.contains("raw.string"),
        "{}",
        infos[0].message
    );
}
