//! Exit-status and output-format semantics of the `perpos-lint` binary.

#![allow(clippy::unwrap_used)]

use std::process::{Command, Output};

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perpos-lint"))
        .args(args)
        .output()
        .expect("perpos-lint runs")
}

#[test]
fn clean_config_exits_zero() {
    let out = lint(&[
        &fixture("pipeline_ok.json"),
        "--catalog",
        &fixture("catalog.json"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn config_with_errors_exits_one() {
    let out = lint(&[
        &fixture("p001_kind_mismatch.json"),
        "--catalog",
        &fixture("catalog.json"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error [P001]"), "{stdout}");
    assert!(stdout.contains("hint:"), "{stdout}");
}

#[test]
fn config_with_warnings_only_exits_zero() {
    let out = lint(&[
        &fixture("p004_dead_component.json"),
        "--catalog",
        &fixture("catalog.json"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("warning [P004]"), "{stdout}");
}

#[test]
fn json_format_is_machine_readable() {
    let out = lint(&[
        &fixture("p005_cycle.json"),
        "--catalog",
        &fixture("catalog.json"),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let value = serde_json::parse_value_str(&stdout).expect("valid JSON");
    let map = value.as_map().unwrap();
    let errors = map.iter().find(|(k, _)| k == "errors").unwrap();
    assert_eq!(errors.1, serde::Content::I64(1), "{stdout}");
    let diags = map
        .iter()
        .find(|(k, _)| k == "diagnostics")
        .and_then(|(_, v)| v.as_list())
        .unwrap();
    assert_eq!(diags.len(), 1);
}

#[test]
fn json_report_carries_schema_version() {
    let out = lint(&[
        &fixture("pipeline_ok.json"),
        "--catalog",
        &fixture("catalog.json"),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let value = serde_json::parse_value_str(&stdout).expect("valid JSON");
    let map = value.as_map().unwrap();
    let version = map.iter().find(|(k, _)| k == "schema_version").unwrap();
    assert_eq!(
        version.1,
        serde::Content::I64(i64::from(perpos_analysis::JSON_SCHEMA_VERSION)),
        "{stdout}"
    );
}

#[test]
fn facts_json_reports_inferred_dataflow() {
    let out = lint(&[
        &fixture("dataflow_ok.json"),
        "--catalog",
        &fixture("catalog.json"),
        "--facts",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let value = serde_json::parse_value_str(&stdout).expect("valid JSON");
    let map = value.as_map().unwrap();
    let version = map.iter().find(|(k, _)| k == "schema_version").unwrap();
    assert_eq!(
        version.1,
        serde::Content::I64(i64::from(perpos_analysis::JSON_SCHEMA_VERSION)),
        "{stdout}"
    );
    let nodes = map
        .iter()
        .find(|(k, _)| k == "nodes")
        .and_then(|(_, v)| v.as_list())
        .unwrap();
    assert_eq!(nodes.len(), 10, "{stdout}");
    // The inferred frame and rate of the GPS source survive the trip
    // through the solver and the JSON encoder.
    assert!(stdout.contains("wgs84"), "{stdout}");
    let edges = map
        .iter()
        .find(|(k, _)| k == "edges")
        .and_then(|(_, v)| v.as_list())
        .unwrap();
    assert_eq!(edges.len(), 10, "{stdout}");
    // Schema v8 carries no execution-schedule metadata: there is one
    // engine loop, so there is no executor and no level structure.
    for gone in ["executor", "levels"] {
        assert!(map.iter().all(|(k, _)| k != gone), "{gone}: {stdout}");
    }
}

#[test]
fn facts_json_exit_status_still_reflects_errors() {
    let out = lint(&[
        &fixture("p012_raw_to_sink.json"),
        "--catalog",
        &fixture("catalog.json"),
        "--facts",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The taint fact itself is visible in the output.
    assert!(stdout.contains("raw.string"), "{stdout}");
}

#[test]
fn explain_prints_description_example_and_fix() {
    let out = lint(&["--explain", "P012"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("P012:"), "{stdout}");
    assert!(stdout.contains("example:"), "{stdout}");
    assert!(stdout.contains("fix:"), "{stdout}");
}

#[test]
fn explain_all_covers_every_code() {
    let out = lint(&["--explain", "all"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for code in perpos_analysis::Code::ALL {
        assert!(
            stdout.contains(&format!("{code}:")),
            "--explain all is missing {code}"
        );
    }
}

#[test]
fn lint_output_is_byte_deterministic() {
    // Satellite of the synthesis work: both renderers emit canonically
    // sorted arrays, so two runs over the same input are byte-identical.
    for extra in [&["--format", "json"][..], &["--facts", "json"][..]] {
        let mut args = vec![
            fixture("p004_dead_component.json"),
            "--catalog".to_string(),
            fixture("catalog.json"),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let first = lint(&args);
        let second = lint(&args);
        assert_eq!(
            first.stdout, second.stdout,
            "{extra:?} output must be reproducible"
        );
        assert_eq!(first.status.code(), second.status.code());
    }
}

#[test]
fn synth_feasible_goal_emits_config_that_lints_clean() {
    let catalog = format!(
        "{}/../../examples/configs/catalog.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = lint(&[
        "synth",
        "--catalog",
        &catalog,
        "--accuracy-m",
        "5",
        "--no-identifiable-at-sink",
        "--emit",
        "config",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The emitted GraphConfig must survive the full lint pass it was
    // synthesized under.
    let dir = std::env::temp_dir().join("perpos_synth_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("synthesized.json");
    std::fs::write(&path, &stdout).unwrap();
    let relint = lint(&[path.to_str().unwrap(), "--catalog", &catalog]);
    assert_eq!(relint.status.code(), Some(0), "{relint:?}");
}

#[test]
fn synth_output_is_byte_deterministic() {
    let catalog = format!(
        "{}/../../examples/configs/catalog.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let args = ["synth", "--catalog", &catalog, "--accuracy-m", "40"];
    let first = lint(&args);
    let second = lint(&args);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    assert_eq!(first.stdout, second.stdout, "ranking must be reproducible");
}

#[test]
fn synth_doc_carries_schema_version_and_goal() {
    let catalog = format!(
        "{}/../../examples/configs/catalog.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = lint(&["synth", "--catalog", &catalog, "--accuracy-m", "5"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let value = serde_json::parse_value_str(&stdout).expect("valid JSON");
    let map = value.as_map().unwrap();
    let version = map.iter().find(|(k, _)| k == "schema_version").unwrap();
    assert_eq!(
        version.1,
        serde::Content::I64(i64::from(perpos_analysis::JSON_SCHEMA_VERSION)),
        "{stdout}"
    );
    assert!(map.iter().any(|(k, _)| k == "synthesis"), "{stdout}");
}

#[test]
fn synth_infeasible_goal_names_binding_constraint_and_exits_one() {
    // The coarse fixture catalog bottoms out at 3 m; an 0.5 m goal must
    // fail with the accuracy constraint named, not an empty list.
    let out = lint(&[
        "synth",
        "--catalog",
        &fixture("synth_coarse_catalog.json"),
        "--accuracy-m",
        "0.5",
        "--format",
        "human",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("[P015]"), "{stdout}");
    assert!(stdout.contains("accuracy bound is binding"), "{stdout}");
    assert!(stdout.contains("requested 0.5"), "{stdout}");
    assert!(stdout.contains("achieves 3"), "{stdout}");
}

#[test]
fn synth_without_catalog_exits_two() {
    let out = lint(&["synth", "--accuracy-m", "5"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("synth needs --catalog"));
}

#[test]
fn explain_unknown_code_exits_two() {
    let out = lint(&["--explain", "P099"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown diagnostic code"));
}

#[test]
fn missing_file_exits_two() {
    let out = lint(&["/nonexistent/config.json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("cannot read"));
}

#[test]
fn bad_usage_exits_two_and_help_exits_zero() {
    let out = lint(&["--format", "xml", "x.json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage:"));

    let out = lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8(out.stdout).unwrap().contains("usage:"));
}

#[test]
fn without_catalog_unknown_types_are_reported() {
    let out = lint(&[&fixture("pipeline_ok.json")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("unknown component type"), "{stdout}");
}
