//! Live-graph analysis, adaptation safety, validation gates and the
//! runtime monotonicity probe, exercised against real middleware
//! instances.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;

use perpos_analysis::adaptation::{check_adaptation, simulate, AdaptationOp, AdaptationPlan};
use perpos_analysis::gate::{config_gate, structure_gate};
use perpos_analysis::probe::{MonotonicityProbe, PROBE_NAME};
use perpos_analysis::{analyze_structure, Code, Report, TypeCatalog};
use perpos_core::assembly::{
    Assembler, ComponentConfig, ComponentFactory, ConnectionConfig, GraphConfig,
};
use perpos_core::channel::{ChannelFeature, ChannelHost, ChannelId, DataNode, DataTree};
use perpos_core::graph::NodeId;
use perpos_core::prelude::*;
use proptest::prelude::*;

fn gps_factory() -> Box<dyn Component> {
    Box::new(FnSource::new("gps", kinds::RAW_STRING, |_| {
        Some(Value::from("$GPGGA"))
    }))
}

fn parser_factory() -> Box<dyn Component> {
    Box::new(FnProcessor::new(
        "parser",
        vec![kinds::RAW_STRING],
        kinds::NMEA_SENTENCE,
        |i| Some(i.payload.clone()),
    ))
}

/// gps -> parser -> app, returning (mw, gps, parser, app).
fn pipeline() -> (Middleware, NodeId, NodeId, NodeId) {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(gps_factory());
    let parser = mw.add_boxed_component(parser_factory());
    let app = mw.application_sink();
    mw.connect(gps, parser, 0).unwrap();
    mw.connect(parser, app, 0).unwrap();
    (mw, gps, parser, app)
}

// ---------------------------------------------------------------------
// Live structure analysis
// ---------------------------------------------------------------------

#[test]
fn healthy_pipeline_analyzes_clean() {
    let (mw, ..) = pipeline();
    let report = analyze_structure(&mw.structure());
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn dangling_processor_input_is_p002_error() {
    let mut mw = Middleware::new();
    let parser = mw.add_boxed_component(parser_factory());
    mw.connect(parser, mw.application_sink(), 0).unwrap();
    let report = analyze_structure(&mw.structure());
    assert_eq!(
        report.with_code(Code::P002).len(),
        1,
        "{}",
        report.render_human()
    );
    assert!(report.has_errors());
}

#[test]
fn unconsumed_source_is_p004_warning() {
    let (mut mw, ..) = pipeline();
    mw.add_boxed_component(gps_factory());
    let report = analyze_structure(&mw.structure());
    let dead = report.with_code(Code::P004);
    assert_eq!(dead.len(), 1, "{}", report.render_human());
    assert!(!report.has_errors(), "dead components warn, not error");
}

#[test]
fn lost_feature_requirement_is_p003_error() {
    // The live graph validates feature requirements at connect time; a
    // structure where the requirement got lost afterwards must be caught.
    let (mw, ..) = pipeline();
    let mut nodes = mw.structure();
    let parser = nodes
        .iter_mut()
        .find(|n| n.descriptor.name == "parser")
        .unwrap();
    parser.descriptor.inputs[0]
        .required_features
        .push("Hdop".into());
    let report = analyze_structure(&nodes);
    let hits = report.with_code(Code::P003);
    assert_eq!(hits.len(), 1, "{}", report.render_human());
    assert!(hits[0].message.contains("Hdop"));
}

#[test]
fn conflicting_features_are_p006_warnings() {
    let (mw, ..) = pipeline();
    let mut nodes = mw.structure();
    let gps = nodes
        .iter_mut()
        .find(|n| n.descriptor.name == "gps")
        .unwrap();
    gps.features.push(
        FeatureDescriptor::new("SatA")
            .adds(kinds::POSITION_WGS84)
            .method(MethodSpec::new("count", "() -> int")),
    );
    gps.features.push(
        FeatureDescriptor::new("SatB")
            .adds(kinds::POSITION_WGS84)
            .method(MethodSpec::new("count", "() -> int")),
    );
    let report = analyze_structure(&nodes);
    let hits = report.with_code(Code::P006);
    assert_eq!(
        hits.len(),
        2,
        "one kind conflict + one method conflict:\n{}",
        report.render_human()
    );
    assert!(!report.has_errors());
}

#[test]
fn feature_added_kind_satisfies_type_flow() {
    // P001 must honour effective provides: a feature-added kind makes an
    // otherwise-mismatched edge valid.
    let (mw, ..) = pipeline();
    let mut nodes = mw.structure();
    let parser_id = nodes
        .iter()
        .find(|n| n.descriptor.name == "parser")
        .unwrap()
        .id;
    // Narrow the app port to expect positions only: the edge from parser
    // (nmea.sentence) now mismatches...
    let app = nodes
        .iter_mut()
        .find(|n| n.descriptor.role == ComponentRole::Sink)
        .unwrap();
    app.descriptor.inputs[0].accepts = vec![kinds::POSITION_WGS84];
    let report = analyze_structure(&nodes);
    assert_eq!(
        report.with_code(Code::P001).len(),
        1,
        "{}",
        report.render_human()
    );
    // ...until a feature on the parser adds the position kind.
    let parser = nodes.iter_mut().find(|n| n.id == parser_id).unwrap();
    parser
        .features
        .push(FeatureDescriptor::new("Geodecode").adds(kinds::POSITION_WGS84));
    let report = analyze_structure(&nodes);
    assert!(
        report.with_code(Code::P001).is_empty(),
        "{}",
        report.render_human()
    );
}

// ---------------------------------------------------------------------
// Adaptation safety
// ---------------------------------------------------------------------

#[test]
fn disconnecting_a_required_input_is_unsafe() {
    let (mw, _, parser, _) = pipeline();
    let plan = AdaptationPlan::new().then(AdaptationOp::Disconnect {
        to: parser,
        port: 0,
    });
    let report = check_adaptation(&mw, &plan);
    assert!(report.has_errors(), "{}", report.render_human());
    assert_eq!(report.with_code(Code::P002).len(), 1);
    // The live middleware was not touched.
    assert!(analyze_structure(&mw.structure()).is_clean());
}

#[test]
fn self_wiring_plan_fails_at_its_step() {
    let (mw, gps, parser, _) = pipeline();
    // Free the port and drop the source, then wire the parser to
    // itself: the graph refuses that connect, so the replay reports the
    // step (P007) and the cyclic edge never exists.
    let plan = AdaptationPlan::new()
        .then(AdaptationOp::Disconnect {
            to: parser,
            port: 0,
        })
        .then(AdaptationOp::Remove { node: gps })
        .then(AdaptationOp::Connect {
            from: parser,
            to: parser,
            port: 0,
        });
    let report = check_adaptation(&mw, &plan);
    assert_eq!(failed_steps(&report), vec![2], "{}", report.render_human());
    assert!(
        report.with_code(Code::P005).is_empty(),
        "{}",
        report.render_human()
    );
}

#[test]
fn connecting_an_occupied_port_fails_the_plan() {
    let (mw, _, parser, _) = pipeline();
    let plan = AdaptationPlan::new().then(AdaptationOp::Connect {
        from: parser,
        to: parser,
        port: 0,
    });
    // Port 0 of parser is occupied: the op itself fails (P007).
    let report = check_adaptation(&mw, &plan);
    assert_eq!(
        report.with_code(Code::P007).len(),
        1,
        "{}",
        report.render_human()
    );
}

#[test]
fn detaching_a_feature_an_edge_relies_on_is_unsafe() {
    let (mw, gps, parser, _) = pipeline();
    let mut nodes = mw.structure();
    // Model: gps carries feature "Hdop"; parser's port requires it.
    let g = nodes.iter_mut().find(|n| n.id == gps).unwrap();
    g.features.push(FeatureDescriptor::new("Hdop"));
    let p = nodes.iter_mut().find(|n| n.id == parser).unwrap();
    p.descriptor.inputs[0].required_features.push("Hdop".into());
    let plan = AdaptationPlan::new().then(AdaptationOp::DetachFeature {
        node: gps,
        feature: "Hdop".into(),
    });
    let (result, op_report) = simulate(nodes, &plan);
    assert!(op_report.is_clean(), "{}", op_report.render_human());
    let report = analyze_structure(&result);
    assert_eq!(
        report.with_code(Code::P003).len(),
        1,
        "{}",
        report.render_human()
    );
}

#[test]
fn attach_feature_plan_is_safe_and_validated() {
    let (mw, gps, ..) = pipeline();
    let plan = AdaptationPlan::new().then(AdaptationOp::AttachFeature {
        node: gps,
        descriptor: FeatureDescriptor::new("NumberOfSatellites"),
    });
    let report = check_adaptation(&mw, &plan);
    assert!(!report.has_errors(), "{}", report.render_human());
    // Attaching the same feature twice is rejected, as the live graph
    // rejects it.
    let twice = AdaptationPlan {
        ops: vec![plan.ops[0].clone(), plan.ops[0].clone()],
    };
    let report = check_adaptation(&mw, &twice);
    assert_eq!(
        report.with_code(Code::P007).len(),
        1,
        "{}",
        report.render_human()
    );
}

// ---------------------------------------------------------------------
// Plan replay against the live middleware
// ---------------------------------------------------------------------

/// The steps a report marks as failed: P007 errors at `plan step k`.
fn failed_steps(report: &Report) -> Vec<usize> {
    report
        .errors()
        .filter(|d| d.code == Code::P007)
        .filter_map(|d| d.path.first()?.strip_prefix("plan step ")?.parse().ok())
        .collect()
}

/// A two-input position merge whose second port requires `Hdop` on its
/// producer.
struct Merge;

impl Component for Merge {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::merge(
            "merge",
            vec![
                InputSpec::new("a", vec![kinds::POSITION_WGS84]),
                InputSpec::new("b", vec![kinds::POSITION_WGS84]).requiring_feature("Hdop"),
            ],
            vec![kinds::POSITION_WGS84],
        )
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

/// The Fig. 1 pipeline gps -> parser -> interpreter feeding port 0 of a
/// merge that feeds the application, a spare unwired `gps2`, and the id
/// of a removed node. Returns the middleware and its node pool
/// `[gps, gps2, parser, interpreter, merge, app, removed]`.
fn fig1_with_merge() -> (Middleware, [NodeId; 7]) {
    let mut mw = Middleware::new();
    let gps = mw.add_boxed_component(gps_factory());
    let gps2 = mw.add_boxed_component(gps_factory());
    let parser = mw.add_boxed_component(parser_factory());
    let interpreter = mw.add_component(FnProcessor::new(
        "interpreter",
        vec![kinds::NMEA_SENTENCE],
        kinds::POSITION_WGS84,
        |i| Some(i.payload.clone()),
    ));
    let merge = mw.add_component(Merge);
    let app = mw.application_sink();
    let removed = mw.add_boxed_component(gps_factory());
    mw.remove_component(removed).unwrap();
    mw.connect(gps, parser, 0).unwrap();
    mw.connect(parser, interpreter, 0).unwrap();
    mw.connect(interpreter, merge, 0).unwrap();
    mw.connect(merge, app, 0).unwrap();
    (mw, [gps, gps2, parser, interpreter, merge, app, removed])
}

/// The two feature names plans draw from; `NumberOfSatellites` also
/// widens its host's output to NMEA sentences.
fn feature(i: usize) -> FeatureDescriptor {
    if i == 0 {
        FeatureDescriptor::new("Hdop")
    } else {
        FeatureDescriptor::new("NumberOfSatellites").adds(kinds::NMEA_SENTENCE)
    }
}

/// A feature that only declares a plan's descriptor, so a plan's
/// `AttachFeature` can be applied to the middleware as written.
struct DescriptorFeature(FeatureDescriptor);

impl ComponentFeature for DescriptorFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        self.0.clone()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Applies each op through the middleware's own calls, returning the
/// steps whose call failed.
fn apply_one_by_one(mw: &mut Middleware, plan: &AdaptationPlan) -> Vec<usize> {
    let mut failed = Vec::new();
    for (step, op) in plan.ops.iter().enumerate() {
        let result = match op {
            AdaptationOp::Connect { from, to, port } => mw.connect(*from, *to, *port),
            AdaptationOp::Disconnect { to, port } => mw.disconnect(*to, *port).map(drop),
            AdaptationOp::Remove { node } => mw.remove_component(*node).map(drop),
            AdaptationOp::AttachFeature { node, descriptor } => {
                mw.attach_feature(*node, DescriptorFeature(descriptor.clone()))
            }
            AdaptationOp::DetachFeature { node, feature } => {
                mw.detach_feature(*node, feature).map(drop)
            }
        };
        if result.is_err() {
            failed.push(step);
        }
    }
    failed
}

/// The checker and the middleware agree on `plan`: the steps reported as
/// P007 errors are the steps whose middleware call fails, and the
/// replayed structure is the middleware's structure after the ops.
fn assert_replay_matches_middleware(plan: &AdaptationPlan) -> Result<(), TestCaseError> {
    let (checked, _) = fig1_with_merge();
    let report = check_adaptation(&checked, plan);
    let (predicted, _) = simulate(checked.structure(), plan);
    let (mut live, _) = fig1_with_merge();
    let failed = apply_one_by_one(&mut live, plan);
    prop_assert_eq!(failed_steps(&report), failed, "{}", report.render_human());
    prop_assert_eq!(predicted, live.structure());
    Ok(())
}

#[test]
fn unchecked_self_connect_between_disconnects_is_refused_like_middleware() {
    let (_, [gps, gps2, parser, ..]) = fig1_with_merge();
    let plan = AdaptationPlan::new()
        .then(AdaptationOp::Disconnect {
            to: parser,
            port: 0,
        })
        .then(AdaptationOp::Connect {
            from: parser,
            to: parser,
            port: 0,
        })
        .then(AdaptationOp::Disconnect {
            to: parser,
            port: 0,
        })
        .then(AdaptationOp::Connect {
            from: gps2,
            to: parser,
            port: 0,
        })
        .then(AdaptationOp::Remove { node: gps });
    assert_replay_matches_middleware(&plan).unwrap();
}

#[test]
fn attaching_a_feature_name_twice_is_refused_like_middleware() {
    let (_, [gps, ..]) = fig1_with_merge();
    let attach = AdaptationOp::AttachFeature {
        node: gps,
        descriptor: feature(1),
    };
    let plan = AdaptationPlan::new().then(attach.clone()).then(attach);
    assert_replay_matches_middleware(&plan).unwrap();
}

/// Cases of the replay property; the release-mode run (CI's
/// "Config/live lint parity" step) uses the full count.
const REPLAY_CASES: u32 = if cfg!(debug_assertions) { 500 } else { 20_000 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(REPLAY_CASES))]
    fn replayed_plans_match_middleware_op_by_op(
        raw in proptest::collection::vec((0u8..5, 0usize..7, 0usize..7, 0usize..3, 0usize..2), 1..9)
    ) {
        let (_, pool) = fig1_with_merge();
        let ops = raw.into_iter().map(|(kind, a, b, port, f)| match kind {
            0 => AdaptationOp::Connect { from: pool[a], to: pool[b], port },
            1 => AdaptationOp::Disconnect { to: pool[b], port },
            2 => AdaptationOp::Remove { node: pool[a] },
            3 => AdaptationOp::AttachFeature { node: pool[a], descriptor: feature(f) },
            _ => AdaptationOp::DetachFeature { node: pool[a], feature: feature(f).name },
        });
        assert_replay_matches_middleware(&AdaptationPlan { ops: ops.collect() })?;
    }
}

// ---------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------

fn factories() -> BTreeMap<String, ComponentFactory> {
    let mut f: BTreeMap<String, ComponentFactory> = BTreeMap::new();
    f.insert("gps".into(), Box::new(gps_factory));
    f.insert("parser".into(), Box::new(parser_factory));
    f
}

#[test]
fn instantiate_checked_blocks_bad_config_without_touching_middleware() {
    let factories = factories();
    let gate = config_gate(TypeCatalog::probe(&factories));
    // parser's input is never driven: P002 error at config level.
    let bad = GraphConfig {
        components: vec![
            ComponentConfig {
                name: "p0".into(),
                kind: "parser".into(),
                fault_policy: None,
                transfer: None,
                effects: None,
            },
            ComponentConfig {
                name: "app".into(),
                kind: "application".into(),
                fault_policy: None,
                transfer: None,
                effects: None,
            },
        ],
        connections: vec![ConnectionConfig {
            from: "p0".into(),
            to: "app".into(),
            port: 0,
        }],
        fleet: None,
    };
    let mut mw = Middleware::new();
    let before = mw.structure().len();
    let err = bad
        .instantiate_checked(&mut mw, &factories, &gate)
        .unwrap_err();
    assert!(err.to_string().contains("P002"), "{err}");
    assert_eq!(mw.structure().len(), before, "nothing was instantiated");

    // The same gate passes a sound configuration.
    let good = GraphConfig {
        components: vec![
            ComponentConfig {
                name: "gps0".into(),
                kind: "gps".into(),
                fault_policy: Some("drop_item".into()),
                transfer: None,
                effects: None,
            },
            ComponentConfig {
                name: "p0".into(),
                kind: "parser".into(),
                fault_policy: None,
                transfer: None,
                effects: None,
            },
            ComponentConfig {
                name: "app".into(),
                kind: "application".into(),
                fault_policy: None,
                transfer: None,
                effects: None,
            },
        ],
        connections: vec![
            ConnectionConfig {
                from: "gps0".into(),
                to: "p0".into(),
                port: 0,
            },
            ConnectionConfig {
                from: "p0".into(),
                to: "app".into(),
                port: 0,
            },
        ],
        fleet: None,
    };
    let nodes = good
        .instantiate_checked(&mut mw, &factories, &gate)
        .unwrap();
    assert_eq!(nodes.len(), 3);
}

#[test]
fn sync_checked_flags_unsound_assembled_structure() {
    let mut mw = Middleware::new();
    let mut asm = Assembler::new();
    // A parser that declares an input port but no registry requirement:
    // it resolves immediately and assembles with a dangling input.
    asm.register_factory("parser", &[kinds::NMEA_SENTENCE], &[], parser_factory);
    let err = asm.sync_checked(&mut mw, &structure_gate()).unwrap_err();
    assert!(err.to_string().contains("P002"), "{err}");

    // A sound assembly passes the same gate (the unconnected app sink and
    // the parser not reaching it are warnings, not errors).
    let mut mw = Middleware::new();
    let mut asm = Assembler::new();
    asm.register_factory(
        "parser",
        &[kinds::NMEA_SENTENCE],
        &[kinds::RAW_STRING],
        parser_factory,
    );
    asm.register_factory("gps", &[kinds::RAW_STRING], &[], gps_factory);
    assert_eq!(asm.sync_checked(&mut mw, &structure_gate()).unwrap(), 2);
}

// ---------------------------------------------------------------------
// Runtime monotonicity probe (P008)
// ---------------------------------------------------------------------

#[test]
fn probe_is_silent_on_a_healthy_channel() {
    let (mut mw, _, _, app) = pipeline();
    let channel = mw.channel_into(app, 0).expect("channel into the sink");
    mw.attach_channel_feature(channel, MonotonicityProbe::new())
        .unwrap();
    mw.run_for(SimDuration::from_millis(500), SimDuration::from_millis(100))
        .unwrap();
    let (deliveries, violations) = mw
        .with_channel_feature_mut(channel, PROBE_NAME, |p: &mut MonotonicityProbe| {
            (p.deliveries(), p.report())
        })
        .unwrap();
    assert!(deliveries > 0, "probe saw deliveries");
    assert!(violations.is_clean(), "{}", violations.render_human());
    // Reflective access reports the same.
    let count = mw
        .invoke_channel_feature(channel, PROBE_NAME, "violationCount", &[])
        .unwrap();
    assert_eq!(count, Value::Int(0));
}

#[test]
fn probe_reports_p008_on_non_monotonic_logical_time() {
    let mut graph = ProcessingGraph::new();
    let node = graph.add(Box::new(FnSource::new("src", kinds::RAW_STRING, |_| None)));
    let members = [node];

    let tree_at = |logical: u64| DataTree {
        channel: ChannelId::of_head(node),
        root: DataNode {
            component: node,
            component_name: "src".into(),
            item: DataItem::new(kinds::RAW_STRING, SimTime::ZERO, Value::Null),
            logical,
            range: None,
            children: Vec::new(),
        },
    };

    let mut probe = MonotonicityProbe::new();
    {
        let mut host = ChannelHost::for_test(&mut graph, &members);
        probe.apply(&tree_at(1), &mut host).unwrap();
        probe.apply(&tree_at(2), &mut host).unwrap();
        // Logical time repeats: violation.
        probe.apply(&tree_at(2), &mut host).unwrap();
    }
    let report = probe.report();
    let hits = report.with_code(Code::P008);
    assert_eq!(hits.len(), 1, "{}", report.render_human());
    assert!(report.has_errors());
    assert_eq!(probe.invoke("violationCount", &[]).unwrap(), Value::Int(1));
    probe.invoke("reset", &[]).unwrap();
    assert_eq!(probe.invoke("violationCount", &[]).unwrap(), Value::Int(0));
}

#[test]
fn probe_checks_consumed_ranges() {
    let mut graph = ProcessingGraph::new();
    let src = graph.add(Box::new(FnSource::new("src", kinds::RAW_STRING, |_| None)));
    let members = [src];
    let item = || DataItem::new(kinds::RAW_STRING, SimTime::ZERO, Value::Null);

    // Root claims it consumed logical times 1-2 but a child reports 5.
    let tree = DataTree {
        channel: ChannelId::of_head(src),
        root: DataNode {
            component: src,
            component_name: "agg".into(),
            item: item(),
            logical: 1,
            range: Some((1, 2)),
            children: vec![DataNode {
                component: src,
                component_name: "src".into(),
                item: item(),
                logical: 5,
                range: None,
                children: Vec::new(),
            }],
        },
    };
    let mut probe = MonotonicityProbe::new();
    {
        let mut host = ChannelHost::for_test(&mut graph, &members);
        probe.apply(&tree, &mut host).unwrap();
    }
    assert_eq!(probe.report().with_code(Code::P008).len(), 1);
}
