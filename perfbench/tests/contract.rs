//! The benchmark's own checks: every workload passes its output checks
//! at a small size, the binary prints exactly the metrics
//! `BENCHMARK.json` declares, and traced self times reconcile.

use std::process::Command;
use std::sync::Mutex;

use perfbench::{Config, Size, Workload, END_TO_END, PER_LAYER, RECONCILE_TOLERANCE};

/// Traced runs share the process-wide span recorder.
static RECORDER: Mutex<()> = Mutex::new(());

fn small(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        size: Size::Small,
    }
}

/// `(name, unit)` of every entry in the `section` array of
/// `BENCHMARK.json` (an empty unit where the entry has none).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is an array")];
    let field = |entry: &str, key: &str| {
        let from = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = entry[from..].find('"')?;
        Some(entry[from..from + len].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("an entry has a name"),
                field(entry, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Metric names of the binary's last output line, in order.
fn printed_metrics(workload: Workload, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "small"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload:?} trace={trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let metrics = &last[last.find("\"metrics\": {").expect("a metrics object") + 12..];
    let chunks: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    // Every chunk but the last ends in `"name`.
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk[chunk.rfind('"').expect("a quoted name") + 1..].to_string())
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(owned(END_TO_END), declared("end_to_end"));
    assert_eq!(owned(PER_LAYER), declared("per_layer"));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn small_runs_pass_their_output_checks() {
    let _guard = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
    for workload in Workload::ALL {
        let out = perfbench::run(&small(workload, false));
        assert!(out.correct(), "{workload:?}: {:?}", out.failures);
        for (name, _) in END_TO_END {
            let v = out
                .value(name)
                .unwrap_or_else(|| panic!("{workload:?} lacks {name}"));
            assert!(v.is_finite() && v > 0.0, "{workload:?} {name} = {v}");
        }
    }
}

#[test]
fn traced_self_times_reconcile() {
    let _guard = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
    for workload in Workload::ALL {
        let out = perfbench::run(&small(workload, true));
        assert!(out.correct(), "{workload:?}: {:?}", out.failures);
        let ratio = out.value("trace.reconcile_ratio").expect("reconciled");
        assert!(
            (ratio - 1.0).abs() <= RECONCILE_TOLERANCE,
            "{workload:?}: {ratio}"
        );
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{workload:?} {}: {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn the_binary_prints_the_declared_names() {
    let e2e: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
    let layers: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
    for workload in Workload::ALL {
        assert_eq!(
            printed_metrics(workload, false),
            e2e,
            "{workload:?} untraced"
        );
        assert_eq!(
            printed_metrics(workload, true),
            layers,
            "{workload:?} traced"
        );
    }
}

#[test]
fn a_bad_invocation_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
