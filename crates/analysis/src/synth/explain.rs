//! Infeasibility diagnosis: when no pipeline satisfies a goal, name the
//! *binding constraint* instead of returning a bare empty list.
//!
//! The diagnosis is search-based: `diagnose` re-runs the enumeration
//! with one criterion relaxed at a time, in a fixed order. If dropping a
//! single criterion makes the goal satisfiable, that criterion is the
//! binding constraint and the relaxed candidates show the *achievable*
//! bound (e.g. "requested 0.5 m, catalog achieves 1 m"). If no single
//! relaxation helps, criteria are dropped cumulatively; if even the
//! unconstrained goal has no clean pipeline, the problem is structural —
//! no provider chain in the catalog delivers the output kind at all.

use serde::Serialize;

use super::search;
use super::SynthesisGoal;
use crate::catalog::TypeCatalog;

/// Machine-readable explanation of an unsatisfiable [`SynthesisGoal`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Infeasibility {
    /// The binding constraint: `"accuracy"`, `"rate"`, `"power"`,
    /// `"frame"`, `"privacy"`, a `+`-joined combination when only
    /// cumulative relaxation helps, or `"provider"` when the catalog
    /// cannot produce the output kind at all.
    pub constraint: String,
    /// The abstract domain that enforces the constraint (`"accuracy"`,
    /// `"rate"`, `"frame"`, `"taint"`, `"power"`, `"structure"`).
    pub domain: String,
    /// The requested numeric bound, when the constraint is numeric.
    pub requested: Option<f64>,
    /// The best value the catalog can actually achieve, measured on the
    /// relaxed search's candidates; absent when not numeric or when even
    /// the relaxed search found nothing.
    pub achievable: Option<f64>,
    /// Human-readable one-line explanation.
    pub detail: String,
}

impl Infeasibility {
    /// Fix-it hint for the P015 diagnostic.
    pub fn hint(&self) -> String {
        match (self.requested, self.achievable) {
            (Some(req), Some(ach)) => format!(
                "relax the {} bound from {req} to at least {ach}, or extend the catalog",
                self.constraint
            ),
            _ => format!(
                "relax the {} constraint or extend the catalog with suitable component types",
                self.constraint
            ),
        }
    }
}

/// The relaxable criteria, in the order they are probed. The order is
/// part of the contract: when several constraints are independently
/// binding, the first in this list is reported.
const RELAX_ORDER: [&str; 5] = ["accuracy", "rate", "power", "frame", "privacy"];

/// Whether `goal` actually states the named criterion.
fn goal_has(goal: &SynthesisGoal, constraint: &str) -> bool {
    match constraint {
        "accuracy" => goal.accuracy_m.is_some(),
        "rate" => goal.max_rate_hz.is_some(),
        "power" => goal.power_budget_mw.is_some(),
        "frame" => goal.frame.is_some(),
        "privacy" => goal.no_identifiable_at_sink,
        _ => false,
    }
}

/// `goal` with the named criterion removed.
fn relax(goal: &SynthesisGoal, constraint: &str) -> SynthesisGoal {
    let mut relaxed = goal.clone();
    match constraint {
        "accuracy" => relaxed.accuracy_m = None,
        "rate" => relaxed.max_rate_hz = None,
        "power" => relaxed.power_budget_mw = None,
        "frame" => relaxed.frame = None,
        "privacy" => relaxed.no_identifiable_at_sink = false,
        _ => {}
    }
    relaxed
}

/// The abstract domain enforcing the named criterion.
fn domain_of(constraint: &str) -> &'static str {
    match constraint {
        "accuracy" => "accuracy",
        "rate" => "rate",
        "power" => "power",
        "frame" => "frame",
        "privacy" => "taint",
        _ => "structure",
    }
}

/// The requested numeric bound for the named criterion, if numeric.
fn requested_of(goal: &SynthesisGoal, constraint: &str) -> Option<f64> {
    match constraint {
        "accuracy" => goal.accuracy_m,
        "rate" => goal.max_rate_hz,
        "power" => goal.power_budget_mw,
        _ => None,
    }
}

/// The best value the relaxed candidates achieve for the named
/// criterion — the bound the caller would have to accept.
fn achievable_of(candidates: &[search::Candidate], constraint: &str) -> Option<f64> {
    let mut best: Option<f64> = None;
    for c in candidates {
        let v = match constraint {
            "accuracy" => c.accuracy.map(|(b, _)| b),
            "rate" => c.rate.and_then(|(_, hi)| hi.is_finite().then_some(hi)),
            "power" => Some(c.power.unwrap_or(0.0)),
            _ => None,
        };
        if let Some(v) = v {
            best = Some(best.map_or(v, |prev: f64| prev.min(v)));
        }
    }
    best
}

/// Diagnoses why `goal` has no satisfying pipeline. Call only after the
/// full search came back empty.
pub(crate) fn diagnose(goal: &SynthesisGoal, catalog: &TypeCatalog) -> Infeasibility {
    let stated: Vec<&str> = RELAX_ORDER
        .iter()
        .copied()
        .filter(|c| goal_has(goal, c))
        .collect();

    // Single-criterion relaxation: the first one whose removal makes the
    // goal satisfiable is the binding constraint.
    for &constraint in &stated {
        let found = search::enumerate(&relax(goal, constraint), catalog);
        if !found.is_empty() {
            let requested = requested_of(goal, constraint);
            let achievable = achievable_of(&found, constraint);
            let detail = match (requested, achievable) {
                (Some(req), Some(ach)) => format!(
                    "goal is unsatisfiable: the {constraint} bound is binding \
                     (requested {req}, catalog achieves {ach})"
                ),
                _ => format!(
                    "goal is unsatisfiable: the {constraint} constraint is binding \
                     (dropping it yields {} candidate(s))",
                    found.len()
                ),
            };
            return Infeasibility {
                constraint: constraint.to_string(),
                domain: domain_of(constraint).to_string(),
                requested,
                achievable,
                detail,
            };
        }
    }

    // Cumulative relaxation: drop criteria one after another until the
    // goal becomes satisfiable; the dropped set is jointly binding.
    let mut relaxed = goal.clone();
    let mut dropped: Vec<&str> = Vec::new();
    for &constraint in &stated {
        relaxed = relax(&relaxed, constraint);
        dropped.push(constraint);
        if dropped.len() < 2 {
            continue; // single relaxations were already probed above
        }
        if !search::enumerate(&relaxed, catalog).is_empty() {
            let constraint = dropped.join("+");
            return Infeasibility {
                detail: format!(
                    "goal is unsatisfiable: the {constraint} constraints are \
                     jointly binding (no single relaxation suffices)"
                ),
                constraint,
                domain: "combined".to_string(),
                requested: None,
                achievable: None,
            };
        }
    }

    // Even the unconstrained goal is empty: structural infeasibility.
    let kind = goal.effective_output_kind();
    Infeasibility {
        constraint: "provider".to_string(),
        domain: "structure".to_string(),
        requested: None,
        achievable: None,
        detail: format!(
            "goal is unsatisfiable: no clean provider chain in the catalog \
             delivers kind {kind:?} within {} components",
            goal.effective_max_components()
        ),
    }
}
