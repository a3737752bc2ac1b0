//! Criteria-driven pipeline synthesis (paper §2.3: applications state
//! JSR-179-style criteria; the middleware adapts the positioning
//! process).
//!
//! [`synthesize`] takes a [`SynthesisGoal`] — target accuracy, maximum
//! rate, power budget, coordinate frame, privacy constraint, output
//! kind — plus a [`TypeCatalog`], and searches the catalog's
//! requirements/capabilities space for [`GraphConfig`]s satisfying every
//! criterion. The search (`search` module) is static-analysis-directed:
//! partial pipelines are scored and pruned by the same abstract domains
//! `perpos-lint` checks with (frames P010, accuracy P011, taint P012,
//! rates P013/P014), and a candidate is only emitted when the *full*
//! config pass comes back completely clean — the lint is the acceptance
//! gate, not a post-hoc check.
//!
//! When the goal is unsatisfiable the result carries a machine-readable
//! [`Infeasibility`] naming the binding constraint (found by re-running
//! the search with one criterion relaxed at a time) instead of a bare
//! empty list, and [`Synthesis::report`] renders it as diagnostic P015.
//!
//! Surfaces: this library API and the `perpos-lint synth` subcommand.
//! To stand a candidate up, re-run [`crate::analyze_config`] on its
//! `config` against the catalog it will be built from, then call
//! `GraphConfig::instantiate` when the report has no errors: a stale
//! serialized candidate then never builds a pipeline that no longer
//! passes analysis.

pub mod explain;
mod search;

pub use explain::Infeasibility;

use perpos_core::assembly::GraphConfig;
use serde::{Deserialize, Serialize};

use crate::catalog::TypeCatalog;
use crate::diagnostic::{Code, Diagnostic, Report, Severity, JSON_SCHEMA_VERSION};

/// Output kind assumed when the goal does not name one.
pub const DEFAULT_OUTPUT_KIND: &str = "position.wgs84";

/// Default bound on pipeline components (excluding the sink).
pub const DEFAULT_MAX_COMPONENTS: u64 = 8;

/// Default number of ranked candidates returned.
pub const DEFAULT_CANDIDATES: u64 = 3;

/// The criteria a synthesized pipeline must satisfy. Every field is
/// optional; an empty goal asks for *any* clean pipeline delivering
/// [`DEFAULT_OUTPUT_KIND`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SynthesisGoal {
    /// Data kind the pipeline must deliver to the application sink;
    /// absent means [`DEFAULT_OUTPUT_KIND`].
    pub output_kind: Option<String>,
    /// Required achievable accuracy at the sink, metres: the inferred
    /// best bound (accuracy domain, P011 semantics) must be ≤ this.
    pub accuracy_m: Option<f64>,
    /// Maximum sustained delivery rate at the sink, items/second: the
    /// inferred upper rate bound must be finite and ≤ this.
    pub max_rate_hz: Option<f64>,
    /// Total power budget over all components, milliwatts (sum of
    /// declared `power_mw`; undeclared components count as free).
    pub power_budget_mw: Option<f64>,
    /// Required coordinate frame at the sink (frame domain): the sink
    /// must observe exactly this frame.
    pub frame: Option<String>,
    /// Whether identifiable sensor data must not reach the sink (taint
    /// domain). The full-pass gate already rejects P012 violations; the
    /// flag records the requirement explicitly in the goal.
    pub no_identifiable_at_sink: bool,
    /// Bound on pipeline components excluding the sink; absent means
    /// [`DEFAULT_MAX_COMPONENTS`].
    pub max_components: Option<u64>,
    /// Ranked candidates to return; absent means [`DEFAULT_CANDIDATES`].
    pub candidates: Option<u64>,
}

impl SynthesisGoal {
    /// A goal with every criterion open.
    pub fn new() -> Self {
        SynthesisGoal::default()
    }

    /// The output kind, defaulted.
    pub fn effective_output_kind(&self) -> &str {
        self.output_kind.as_deref().unwrap_or(DEFAULT_OUTPUT_KIND)
    }

    /// The component bound, defaulted and clamped to at least 1.
    pub fn effective_max_components(&self) -> usize {
        self.max_components.unwrap_or(DEFAULT_MAX_COMPONENTS).max(1) as usize
    }

    /// The candidate count, defaulted and clamped to at least 1.
    pub fn effective_candidates(&self) -> usize {
        self.candidates.unwrap_or(DEFAULT_CANDIDATES).max(1) as usize
    }

    /// One-line human summary, e.g.
    /// `"kind=position.wgs84, accuracy<=5m, no-identifiable-at-sink"`.
    pub fn summary(&self) -> String {
        let mut parts = vec![format!("kind={}", self.effective_output_kind())];
        if let Some(a) = self.accuracy_m {
            parts.push(format!("accuracy<={a}m"));
        }
        if let Some(r) = self.max_rate_hz {
            parts.push(format!("rate<={r}Hz"));
        }
        if let Some(p) = self.power_budget_mw {
            parts.push(format!("power<={p}mW"));
        }
        if let Some(f) = &self.frame {
            parts.push(format!("frame={f}"));
        }
        if self.no_identifiable_at_sink {
            parts.push("no-identifiable-at-sink".into());
        }
        parts.join(", ")
    }
}

/// One synthesized pipeline, ranked against its siblings.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RankedPipeline {
    /// Rank among the returned candidates (0 = best).
    pub rank: u64,
    /// Component instances in the configuration, sink included.
    pub components: u64,
    /// Inferred best achievable accuracy at the sink, metres.
    pub accuracy_best_m: Option<f64>,
    /// Inferred worst accuracy bound at the sink, metres.
    pub accuracy_worst_m: Option<f64>,
    /// Inferred sustained delivery rate upper bound at the sink, Hz
    /// (absent when unknown or unbounded).
    pub rate_hz: Option<f64>,
    /// Sum of declared component power draws, milliwatts.
    pub power_mw: Option<f64>,
    /// Coordinate frames observed at the sink.
    pub frames: Vec<String>,
    /// The pipeline itself, ready for `GraphConfig::instantiate`.
    pub config: GraphConfig,
}

/// The result of a synthesis run: ranked candidates, or a
/// machine-readable explanation of why there are none.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Synthesis {
    /// The goal as interpreted (caller's fields, not defaulted).
    pub goal: SynthesisGoal,
    /// Whether at least one candidate satisfies every criterion.
    pub feasible: bool,
    /// Ranked candidates, best first; empty when infeasible.
    pub candidates: Vec<RankedPipeline>,
    /// Present exactly when infeasible: the binding constraint.
    pub infeasibility: Option<Infeasibility>,
}

impl Synthesis {
    /// The findings of the run as a standard [`Report`]: empty when
    /// feasible, one P015 error naming the binding constraint otherwise.
    pub fn report(&self) -> Report {
        let mut report = Report::new();
        if let Some(inf) = &self.infeasibility {
            report.push(
                Diagnostic::new(Code::P015, Severity::Error, inf.detail.clone(), Vec::new())
                    .with_hint(inf.hint()),
            );
        }
        report
    }

    /// The versioned machine-readable document served by
    /// `perpos-lint synth --format json`: the synthesis block under the
    /// facts-document schema version.
    pub fn doc_json(&self) -> String {
        #[derive(Serialize)]
        struct Doc {
            schema_version: u64,
            synthesis: Synthesis,
        }
        serde_json::to_string_pretty(&Doc {
            schema_version: u64::from(JSON_SCHEMA_VERSION),
            synthesis: self.clone(),
        })
        .expect("synthesis document is plain data and always serializes")
    }
}

/// Searches `catalog` for pipelines satisfying `goal`.
///
/// Every returned candidate passes the full `perpos-lint` pass (P001–
/// P014) with zero findings *and* the goal checks against the solved
/// sink facts; ranking is deterministic (accuracy, then power, then
/// size, then canonical JSON). When no candidate exists the result
/// carries an [`Infeasibility`] naming the binding constraint.
pub fn synthesize(goal: &SynthesisGoal, catalog: &TypeCatalog) -> Synthesis {
    let found = search::enumerate(goal, catalog);
    if found.is_empty() {
        return Synthesis {
            goal: goal.clone(),
            feasible: false,
            candidates: Vec::new(),
            infeasibility: Some(explain::diagnose(goal, catalog)),
        };
    }
    let candidates = found
        .into_iter()
        .take(goal.effective_candidates())
        .enumerate()
        .map(|(rank, c)| RankedPipeline {
            rank: rank as u64,
            components: c.config.components.len() as u64,
            accuracy_best_m: c.accuracy.map(|(best, _)| best),
            accuracy_worst_m: c.accuracy.map(|(_, worst)| worst),
            rate_hz: c.rate.and_then(|(_, hi)| hi.is_finite().then_some(hi)),
            power_mw: c.power,
            frames: c.frames,
            config: c.config,
        })
        .collect();
    Synthesis {
        goal: goal.clone(),
        feasible: true,
        candidates,
        infeasibility: None,
    }
}
