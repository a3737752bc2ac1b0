//! Pipeline synthesis: goal-directed search over the example catalog,
//! lint-gated acceptance, deterministic ranking, and machine-readable
//! infeasibility explanations naming the binding constraint.

use perpos_analysis::{analyze_config, synthesize, Code, SynthesisGoal, TypeCatalog};

fn example_catalog() -> TypeCatalog {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/configs/catalog.json"
    ))
    .expect("example catalog readable");
    serde_json::from_str(&json).expect("example catalog parses")
}

#[test]
fn accuracy_goal_selects_wifi_positioning_chain() {
    let goal = SynthesisGoal {
        accuracy_m: Some(5.0),
        no_identifiable_at_sink: true,
        ..SynthesisGoal::default()
    };
    let result = synthesize(&goal, &example_catalog());
    assert!(result.feasible, "accuracy<=5m is satisfiable: {result:?}");
    assert!(result.infeasibility.is_none());
    let best = &result.candidates[0];
    assert_eq!(best.rank, 0);
    // wifipositioning declares (1, 8) m — strictly better than the GPS
    // chain's (2, 30) — so the wifi chain must rank first.
    assert_eq!(best.accuracy_best_m, Some(1.0));
    assert_eq!(best.accuracy_worst_m, Some(8.0));
    assert_eq!(best.frames, vec!["wgs84".to_string()]);
    let kinds: Vec<&str> = best
        .config
        .components
        .iter()
        .map(|c| c.kind.as_str())
        .collect();
    assert_eq!(kinds, vec!["wifi", "wifipositioning", "application"]);
}

#[test]
fn every_candidate_passes_the_full_lint_pass() {
    let catalog = example_catalog();
    let goal = SynthesisGoal {
        accuracy_m: Some(40.0),
        candidates: Some(10),
        ..SynthesisGoal::default()
    };
    let result = synthesize(&goal, &catalog);
    assert!(result.feasible);
    assert!(result.candidates.len() > 1, "catalog offers several chains");
    for candidate in &result.candidates {
        let report = analyze_config(&candidate.config, &catalog);
        assert!(
            report.is_clean(),
            "synthesized candidate rank {} must lint clean, got: {}",
            candidate.rank,
            report.render_human()
        );
    }
}

#[test]
fn synthesis_output_is_byte_deterministic() {
    let catalog = example_catalog();
    let goal = SynthesisGoal {
        accuracy_m: Some(40.0),
        candidates: Some(10),
        ..SynthesisGoal::default()
    };
    let a = synthesize(&goal, &catalog).doc_json();
    let b = synthesize(&goal, &catalog).doc_json();
    assert_eq!(a, b, "same goal + catalog must produce identical bytes");
}

#[test]
fn infeasible_accuracy_names_the_binding_constraint() {
    let goal = SynthesisGoal {
        accuracy_m: Some(0.5),
        ..SynthesisGoal::default()
    };
    let result = synthesize(&goal, &example_catalog());
    assert!(!result.feasible);
    assert!(result.candidates.is_empty());
    let inf = result.infeasibility.as_ref().expect("explanation present");
    assert_eq!(inf.constraint, "accuracy");
    assert_eq!(inf.domain, "accuracy");
    assert_eq!(inf.requested, Some(0.5));
    // The catalog's best achievable accuracy is wifipositioning's 1 m.
    assert_eq!(inf.achievable, Some(1.0));
    let report = result.report();
    assert_eq!(report.with_code(Code::P015).len(), 1);
    assert!(report.has_errors());
}

#[test]
fn power_budget_is_reported_when_binding() {
    // The cheapest position.wgs84 chain is wifi (80) + wifipositioning
    // (10) = 90 mW; a 50 mW budget is unsatisfiable.
    let goal = SynthesisGoal {
        power_budget_mw: Some(50.0),
        ..SynthesisGoal::default()
    };
    let result = synthesize(&goal, &example_catalog());
    assert!(!result.feasible);
    let inf = result.infeasibility.as_ref().expect("explanation present");
    assert_eq!(inf.constraint, "power");
    assert_eq!(inf.domain, "power");
    assert_eq!(inf.requested, Some(50.0));
    assert_eq!(inf.achievable, Some(90.0));
}

#[test]
fn unknown_output_kind_is_a_structural_infeasibility() {
    let goal = SynthesisGoal {
        output_kind: Some("position.galactic".into()),
        ..SynthesisGoal::default()
    };
    let result = synthesize(&goal, &example_catalog());
    assert!(!result.feasible);
    let inf = result.infeasibility.as_ref().expect("explanation present");
    assert_eq!(inf.constraint, "provider");
    assert_eq!(inf.domain, "structure");
    assert!(inf.detail.contains("position.galactic"));
}

#[test]
fn privacy_goal_routes_identifiable_data_through_the_anonymizer() {
    // Asking for raw wifi.scan at the sink: the direct wifi→app wiring
    // is a P012 error (identifiable data at the application), so the
    // gate forces the anonymizer into the chain.
    let goal = SynthesisGoal {
        output_kind: Some("wifi.scan".into()),
        no_identifiable_at_sink: true,
        ..SynthesisGoal::default()
    };
    let result = synthesize(&goal, &example_catalog());
    assert!(result.feasible, "anonymized wifi.scan is deliverable");
    let kinds: Vec<&str> = result.candidates[0]
        .config
        .components
        .iter()
        .map(|c| c.kind.as_str())
        .collect();
    assert_eq!(kinds, vec!["wifi", "anonymizer", "application"]);
}

#[test]
fn goal_summary_and_top_candidate_round_trip() {
    let goal = SynthesisGoal {
        accuracy_m: Some(5.0),
        no_identifiable_at_sink: true,
        ..SynthesisGoal::default()
    };
    assert_eq!(
        goal.summary(),
        "kind=position.wgs84, accuracy<=5m, no-identifiable-at-sink"
    );
    let result = synthesize(&goal, &example_catalog());
    let best = &result.candidates[0];
    assert_eq!(best.rank, 0);
    assert_eq!(result.goal.summary(), goal.summary());
    assert_eq!(best.config.components.len(), 3);
}
