//! Golden-file tests: each known-bad GraphConfig fixture fires exactly
//! its diagnostic code, and the known-good configurations lint clean.

#![allow(clippy::unwrap_used)]

use perpos_analysis::{analyze_config, Code, Report, Severity, TypeCatalog};
use perpos_core::assembly::GraphConfig;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn catalog() -> TypeCatalog {
    serde_json::from_str(&fixture("catalog.json")).unwrap()
}

fn lint(name: &str) -> Report {
    let config: GraphConfig = serde_json::from_str(&fixture(name)).unwrap();
    analyze_config(&config, &catalog())
}

/// Asserts `code` fires exactly once, carries the expected severity and a
/// fix-it hint, and that no *other* code fires at all.
fn assert_only(report: &Report, code: Code, severity: Severity) {
    let hits = report.with_code(code);
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {code}, got:\n{}",
        report.render_human()
    );
    assert_eq!(hits[0].severity, severity);
    assert!(hits[0].hint.is_some(), "{code} should carry a fix-it hint");
    assert!(!hits[0].path.is_empty(), "{code} should carry a path");
    assert_eq!(
        report.diagnostics.len(),
        1,
        "fixture should trigger only {code}, got:\n{}",
        report.render_human()
    );
}

#[test]
fn p001_kind_mismatch_fires_exactly_once() {
    let report = lint("p001_kind_mismatch.json");
    assert_only(&report, Code::P001, Severity::Error);
    let d = report.with_code(Code::P001)[0];
    assert!(d.message.contains("raw.string"), "{}", d.message);
    assert!(d.message.contains("nmea.sentence"), "{}", d.message);
}

#[test]
fn p002_dangling_input_fires_exactly_once() {
    let report = lint("p002_dangling_input.json");
    assert_only(&report, Code::P002, Severity::Error);
    assert!(report.with_code(Code::P002)[0].path[0].contains("parse0"));
}

#[test]
fn p003_missing_feature_fires_exactly_once() {
    let report = lint("p003_missing_feature.json");
    assert_only(&report, Code::P003, Severity::Error);
    assert!(report.with_code(Code::P003)[0].message.contains("Hdop"));
}

#[test]
fn p004_dead_component_fires_exactly_once() {
    let report = lint("p004_dead_component.json");
    assert_only(&report, Code::P004, Severity::Warning);
    assert_eq!(
        report.with_code(Code::P004)[0].path,
        vec!["gps_spare".to_string()]
    );
    // Warnings alone do not fail a gate.
    assert!(!report.has_errors());
}

#[test]
fn p005_cycle_fires_exactly_once() {
    let report = lint("p005_cycle.json");
    assert_only(&report, Code::P005, Severity::Error);
    let d = report.with_code(Code::P005)[0];
    assert!(d.path.contains(&"echo1".to_string()) && d.path.contains(&"echo2".to_string()));
}

#[test]
fn p007_bad_reference_fires_exactly_once() {
    let report = lint("p007_bad_reference.json");
    assert_only(&report, Code::P007, Severity::Error);
    assert!(report.with_code(Code::P007)[0].message.contains("ghost"));
}

#[test]
fn p009_no_fault_policy_fires_exactly_once() {
    // Identical to pipeline_ok.json except the source declares no
    // fault_policy: the only finding is the P009 warning.
    let report = lint("p009_no_fault_policy.json");
    assert_only(&report, Code::P009, Severity::Warning);
    let d = report.with_code(Code::P009)[0];
    assert_eq!(d.path, vec!["gps0".to_string()]);
    assert!(d.hint.as_deref().unwrap_or("").contains("drop_item"));
    // A warning alone does not fail a gate.
    assert!(!report.has_errors());
}

#[test]
fn p018_stateful_without_snapshot_fires_exactly_once() {
    // pipeline_ok plus a fleet block, full containment coverage, and a
    // decoder declared stateful with no snapshot capability: the only
    // finding is the P018 error.
    let report = lint("p018_fleet_unsnapshotable.json");
    assert_only(&report, Code::P018, Severity::Error);
    let d = report.with_code(Code::P018)[0];
    assert_eq!(d.path, vec!["decode0".to_string()]);
    assert!(d.message.contains("snapshot"), "{}", d.message);
    assert!(
        d.hint.as_deref().unwrap_or("").contains("snapshot_state"),
        "{:?}",
        d.hint
    );
}

#[test]
fn p018_is_silent_without_a_fleet_block() {
    // Standalone, nothing checkpoints, nothing can silently reset.
    let mut config: GraphConfig =
        serde_json::from_str(&fixture("p018_fleet_unsnapshotable.json")).unwrap();
    config.fleet = None;
    let report = analyze_config(&config, &catalog());
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn p019_nondeterministic_effects_fire_exactly_once() {
    // A wall-clock-reading decoder inside a fleet deployment: replay
    // determinism is assumed but not deliverable, warned as P019.
    let report = lint("p019_nondeterministic_fleet.json");
    assert_only(&report, Code::P019, Severity::Warning);
    let d = report.with_code(Code::P019)[0];
    assert_eq!(d.path, vec!["decode0".to_string()]);
    assert!(d.message.contains("wall-clock"), "{}", d.message);
    // A warning alone does not fail a gate.
    assert!(!report.has_errors());
}

#[test]
fn p016_fleet_without_containment_fires_exactly_once() {
    // pipeline_ok.json plus a fleet block, with every component except
    // the parser carrying an explicit policy: the only finding is the
    // P016 warning naming the uncovered component.
    let report = lint("p016_fleet_no_containment.json");
    assert_only(&report, Code::P016, Severity::Warning);
    let d = report.with_code(Code::P016)[0];
    assert_eq!(d.path, vec!["parse0".to_string()]);
    assert!(d.message.contains("10240"), "{}", d.message);
    assert!(d.hint.as_deref().unwrap_or("").contains("fault_policy"));
    assert!(!report.has_errors());
}

#[test]
fn p010_frame_conflict_fires_exactly_once() {
    // A local-frame beacon fused with WGS-84 positions without a
    // transform in between.
    let report = lint("p010_frame_conflict.json");
    assert_only(&report, Code::P010, Severity::Error);
    let d = report.with_code(Code::P010)[0];
    assert!(
        d.message.contains("wgs84") && d.message.contains("local"),
        "{}",
        d.message
    );
    assert_eq!(d.path, vec!["fuse0".to_string()]);
}

#[test]
fn p011_unreachable_accuracy_fires_exactly_once() {
    // predictor claims 0.5 m but the best upstream source bound is 2 m.
    let report = lint("p011_unreachable_accuracy.json");
    assert_only(&report, Code::P011, Severity::Error);
    let d = report.with_code(Code::P011)[0];
    assert_eq!(d.path, vec!["predict0".to_string()]);
}

#[test]
fn p012_raw_to_sink_fires_exactly_once() {
    // Raw NMEA strings (identifiable sensor data) wired straight into
    // the application.
    let report = lint("p012_raw_to_sink.json");
    assert_only(&report, Code::P012, Severity::Error);
    let d = report.with_code(Code::P012)[0];
    assert!(d.message.contains("raw.string"), "{}", d.message);
    assert!(d.message.contains("gps0"), "{}", d.message);
}

#[test]
fn p013_rate_overrun_fires_with_buffer_prediction() {
    // 1 Hz inflow into a throttle declaring 0.5 items/s capacity: the
    // rate overload (P013) and its channel-buffer consequence (P014) are
    // the only findings.
    let report = lint("p013_rate_overrun.json");
    let p013 = report.with_code(Code::P013);
    assert_eq!(p013.len(), 1, "{}", report.render_human());
    assert_eq!(p013[0].severity, Severity::Warning);
    assert!(p013[0].hint.is_some());
    assert_eq!(p013[0].path, vec!["slow0".to_string()]);
    let p014 = report.with_code(Code::P014);
    assert_eq!(p014.len(), 1, "{}", report.render_human());
    assert_eq!(p014[0].severity, Severity::Warning);
    assert_eq!(p014[0].path, vec!["slow0".to_string()]);
    // 0.5 items/s surplus into a 4096-entry buffer: ~8192 s to eviction.
    assert!(p014[0].message.contains("8192"), "{}", p014[0].message);
    assert!(
        p014[0].hint.as_deref().unwrap_or("").contains("P013"),
        "{:?}",
        p014[0].hint
    );
    assert_eq!(report.diagnostics.len(), 2, "{}", report.render_human());
    // Warnings alone do not fail a gate.
    assert!(!report.has_errors());
}

#[test]
fn facts_and_diagnostics_share_one_canonical_order() {
    // Regression for the shared `canonical_sort` helper: both call
    // sites — the diagnostics renderer and the facts serializer — must
    // be insensitive to declaration order, so the same graph with its
    // components and connections reversed renders byte-identically.
    use perpos_analysis::{facts_json, infer_facts, FlowGraph};
    let catalog = catalog();

    let config: GraphConfig = serde_json::from_str(&fixture("dataflow_ok.json")).unwrap();
    let mut reversed = config.clone();
    reversed.components.reverse();
    reversed.connections.reverse();
    let flow = FlowGraph::from_config(&config, &catalog);
    let rflow = FlowGraph::from_config(&reversed, &catalog);
    assert_eq!(
        facts_json(&flow, &infer_facts(&flow)),
        facts_json(&rflow, &infer_facts(&rflow)),
        "facts serialization must not depend on declaration order"
    );

    // A fixture with two findings: the canonical order survives the
    // pass emitting them in a different sequence.
    let noisy: GraphConfig = serde_json::from_str(&fixture("p013_rate_overrun.json")).unwrap();
    let mut noisy_reversed = noisy.clone();
    noisy_reversed.components.reverse();
    noisy_reversed.connections.reverse();
    let a = analyze_config(&noisy, &catalog);
    let b = analyze_config(&noisy_reversed, &catalog);
    assert_eq!(a.diagnostics.len(), 2);
    assert_eq!(
        a.render_json(),
        b.render_json(),
        "diagnostic rendering must not depend on declaration order"
    );
}

#[test]
fn dataflow_heavy_pipeline_lints_clean() {
    // Exercises every dataflow domain without tripping it: a frame
    // transform before the merge (P010), a reachable accuracy claim
    // (P011), an anonymizer in front of the sink (P012) and a throttle
    // with enough declared capacity (P013) — all via instance-level
    // TransferSpec overrides of the catalog defaults.
    let report = lint("dataflow_ok.json");
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn known_good_pipeline_lints_clean() {
    let report = lint("pipeline_ok.json");
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn repo_example_configs_lint_clean() {
    // Every shipped example configuration must stay clean under the full
    // pass list, including the dataflow analyses — CI runs perpos-lint
    // over the same set.
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let catalog: TypeCatalog = serde_json::from_str(
        &std::fs::read_to_string(format!("{root}/examples/configs/catalog.json")).unwrap(),
    )
    .unwrap();
    let mut checked = 0;
    for entry in std::fs::read_dir(format!("{root}/examples/configs")).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().is_some_and(|n| n == "catalog.json")
            || path.extension().is_none_or(|e| e != "json")
        {
            continue;
        }
        let config: GraphConfig =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let report = analyze_config(&config, &catalog);
        assert!(
            report.is_clean(),
            "{}:\n{}",
            path.display(),
            report.render_human()
        );
        checked += 1;
    }
    assert!(checked >= 2, "expected at least two example configs");
}
