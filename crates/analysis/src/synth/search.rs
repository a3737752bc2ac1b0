//! The synthesis search: goal-directed enumeration of pipelines over a
//! [`TypeCatalog`], pruned by the dataflow domains.
//!
//! The enumerator works *backwards* from the goal's output kind: for
//! every catalog type providing the kind it recursively synthesizes a
//! producer subtree per input port, with a strictly decreasing component
//! budget (termination) and a beam cap per `(kind, budget)` memo entry
//! (bounded growth). Each partial pipeline is materialized to a
//! [`GraphConfig`] and scored by the *existing* abstract domains —
//! frame unification kills ill-typed subtrees, accuracy propagation
//! bounds what any completion can still achieve, rate inference bounds
//! the inflow any completion must absorb, and the power sum is monotone
//! in the component set — so infeasible prefixes die before they are
//! ever completed. Complete candidates must pass the full
//! [`analyze_config`] pass with **zero findings** (the `perpos-lint`
//! gate) plus the goal checks at the sink.

use std::collections::{BTreeMap, BTreeSet};

use perpos_core::assembly::{ComponentConfig, ConnectionConfig, GraphConfig};

use crate::catalog::{ComponentTypeSpec, TypeCatalog, APPLICATION_KIND};
use crate::config::analyze_config;
use crate::dataflow::FlowGraph;
use crate::domains::infer_facts;

use super::SynthesisGoal;

/// Maximum plans kept per `(kind, budget)` memo entry. Ranked by tip
/// accuracy then size, so the beam keeps the completions most likely to
/// satisfy an accuracy goal with the fewest components.
const BEAM: usize = 12;

/// Hard cap on port-combination products examined per type, a backstop
/// against pathological catalogs (wide merges over rich kind sets).
const MAX_COMBOS: usize = 1024;

/// One complete, gate-accepted pipeline with its solved sink facts.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    /// The full configuration, application sink included.
    pub config: GraphConfig,
    /// Accuracy interval observed at the sink, metres.
    pub accuracy: Option<(f64, f64)>,
    /// Sustained rate interval observed at the sink, items/second.
    pub rate: Option<(f64, f64)>,
    /// Sum of declared component power draws, milliwatts; `None` when no
    /// instantiated type declares power.
    pub power: Option<f64>,
    /// Pipeline components, excluding the application sink.
    pub size: usize,
    /// Coordinate frames observed at the sink.
    pub frames: Vec<String>,
}

/// A synthesis plan: a tree of catalog type indices, one child subtree
/// per input port of the root type.
#[derive(Debug, Clone)]
struct Plan {
    ty: usize,
    children: Vec<Plan>,
}

impl Plan {
    fn size(&self) -> usize {
        1 + self.children.iter().map(Plan::size).sum::<usize>()
    }
}

/// Search context: the catalog pre-indexed for provider lookup, plus the
/// catalog-wide optima the admissible-bound prunes are computed against.
struct Ctx<'a> {
    catalog: &'a TypeCatalog,
    /// Catalog types in kind order (deterministic enumeration).
    types: Vec<ComponentTypeSpec>,
    /// Kind → indices into `types` of the types providing it.
    providers: BTreeMap<String, Vec<usize>>,
    /// Every kind some type provides, sorted (any-kind port expansion).
    all_kinds: Vec<String>,
    /// Smallest accuracy improvement factor any type can apply (≤ 1).
    min_scale: f64,
    /// Smallest rate factor any type can apply (≤ 1).
    min_factor: f64,
    /// Best accuracy any type declares outright, metres.
    min_declared_best: Option<f64>,
    goal: &'a SynthesisGoal,
    max_components: usize,
}

impl<'a> Ctx<'a> {
    fn new(goal: &'a SynthesisGoal, catalog: &'a TypeCatalog) -> Ctx<'a> {
        let mut types: Vec<ComponentTypeSpec> = catalog
            .types
            .iter()
            .filter(|t| t.kind != APPLICATION_KIND)
            .cloned()
            .collect();
        types.sort_by(|a, b| a.kind.cmp(&b.kind));
        let mut providers: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut min_scale = 1.0f64;
        let mut min_factor = 1.0f64;
        let mut min_declared_best: Option<f64> = None;
        for (i, t) in types.iter().enumerate() {
            for kind in &t.provides {
                providers.entry(kind.clone()).or_default().push(i);
            }
            if let Some(spec) = &t.transfer {
                if let Some(s) = spec.accuracy_scale {
                    if s > 0.0 {
                        min_scale = min_scale.min(s);
                    }
                }
                if let Some(f) = spec.rate_factor {
                    if f > 0.0 {
                        min_factor = min_factor.min(f);
                    }
                }
                if let Some(b) = spec.accuracy_best_m {
                    min_declared_best = Some(min_declared_best.map_or(b, |prev: f64| prev.min(b)));
                }
            }
        }
        let all_kinds: Vec<String> = providers.keys().cloned().collect();
        Ctx {
            catalog,
            types,
            providers,
            all_kinds,
            min_scale,
            min_factor,
            min_declared_best,
            goal,
            max_components: goal.effective_max_components(),
        }
    }

    fn power_of(&self, plan: &Plan) -> Option<f64> {
        let own = self.types[plan.ty]
            .transfer
            .as_ref()
            .and_then(|t| t.power_mw);
        let mut total: Option<f64> = own;
        for child in &plan.children {
            if let Some(p) = self.power_of(child) {
                total = Some(total.unwrap_or(0.0) + p);
            }
        }
        total
    }
}

/// Renders a plan as a canonical signature string, for per-port dedup.
fn signature(ctx: &Ctx<'_>, plan: &Plan) -> String {
    let mut s = ctx.types[plan.ty].kind.clone();
    if !plan.children.is_empty() {
        s.push('(');
        for (i, c) in plan.children.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&signature(ctx, c));
        }
        s.push(')');
    }
    s
}

/// Materializes a plan into a [`GraphConfig`]: components in post-order
/// (root last), instance names `"{kind}{n}"` with a per-kind counter,
/// sources given the `drop_item` fault policy (P009 hygiene), and — when
/// `with_app` — an `"app"` application sink fed by the root.
fn materialize(ctx: &Ctx<'_>, plan: &Plan, with_app: bool) -> GraphConfig {
    fn build(
        ctx: &Ctx<'_>,
        plan: &Plan,
        counters: &mut BTreeMap<String, usize>,
        components: &mut Vec<ComponentConfig>,
        connections: &mut Vec<ConnectionConfig>,
    ) -> String {
        let child_names: Vec<String> = plan
            .children
            .iter()
            .map(|c| build(ctx, c, counters, components, connections))
            .collect();
        let t = &ctx.types[plan.ty];
        let n = counters.entry(t.kind.clone()).or_insert(0);
        let name = format!("{}{}", t.kind, n);
        *n += 1;
        components.push(ComponentConfig {
            name: name.clone(),
            kind: t.kind.clone(),
            fault_policy: (t.role == "source").then(|| "drop_item".to_string()),
            transfer: None,
            effects: None,
        });
        for (port, child) in child_names.into_iter().enumerate() {
            connections.push(ConnectionConfig {
                from: child,
                to: name.clone(),
                port,
            });
        }
        name
    }

    let mut counters = BTreeMap::new();
    let mut components = Vec::new();
    let mut connections = Vec::new();
    let root = build(ctx, plan, &mut counters, &mut components, &mut connections);
    if with_app {
        components.push(ComponentConfig {
            name: "app".into(),
            kind: APPLICATION_KIND.into(),
            fault_policy: None,
            transfer: None,
            effects: None,
        });
        connections.push(ConnectionConfig {
            from: root,
            to: "app".into(),
            port: 0,
        });
    }
    GraphConfig {
        components,
        connections,
        fleet: None,
    }
}

/// Domain-driven admissibility of a *partial* pipeline: runs the four
/// abstract domains over the subtree and rejects it when no completion
/// within the remaining budget can possibly meet the goal.
///
/// Returns the subtree's tip accuracy (for beam ranking) on success.
fn admissible(ctx: &Ctx<'_>, plan: &Plan) -> Option<Option<(f64, f64)>> {
    let size = plan.size();
    let config = materialize(ctx, plan, false);
    let flow = FlowGraph::from_config(&config, ctx.catalog);
    let facts = infer_facts(&flow);
    // Frame unification (P010), unreachable accuracy claims (P011) and
    // internal privacy violations (P012) are errors on the subtree
    // already — no extension can remove an upstream conflict.
    if crate::domains::dataflow_diagnostics(&flow, &facts).has_errors() {
        return None;
    }
    let root = flow.nodes.len().checked_sub(1)?;
    let remaining = ctx.max_components.saturating_sub(size) as i32;
    // Accuracy admissible bound: downstream components can only improve
    // the tip interval by the catalog's best scale factor per added
    // component, or replace it with a declared accuracy.
    if let Some(goal_acc) = ctx.goal.accuracy_m {
        if let Some((best, _)) = facts.accuracy[root] {
            let reachable = best * ctx.min_scale.powi(remaining);
            let replaceable = ctx.min_declared_best.is_some_and(|d| d <= goal_acc);
            if reachable > goal_acc && !replaceable {
                return None;
            }
        }
    }
    // Rate admissible bound: the guaranteed inflow can only shrink by
    // the catalog's smallest rate factor per added component.
    if let Some(goal_rate) = ctx.goal.max_rate_hz {
        if let Some((lo, _)) = facts.rate[root] {
            if lo * ctx.min_factor.powi(remaining) > goal_rate {
                return None;
            }
        }
    }
    // Power is a monotone sum: over budget stays over budget.
    if let Some(budget) = ctx.goal.power_budget_mw {
        if ctx.power_of(plan).is_some_and(|p| p > budget) {
            return None;
        }
    }
    Some(facts.accuracy[root])
}

/// A plan that survived [`admissible`], with its beam-ranking key:
/// tip accuracy interval, size and canonical signature.
type RankedPlan = (Option<(f64, f64)>, usize, String, Plan);

/// All plans whose root provides `kind` within `budget` components,
/// pruned by [`admissible`] and beam-capped. Memoized per
/// `(kind, budget)`; the budget strictly decreases on recursion, so the
/// search terminates on any catalog, cyclic provider chains included.
fn plans_for(
    ctx: &Ctx<'_>,
    kind: &str,
    budget: usize,
    memo: &mut BTreeMap<(String, usize), Vec<Plan>>,
) -> Vec<Plan> {
    if budget == 0 {
        return Vec::new();
    }
    let key = (kind.to_string(), budget);
    if let Some(cached) = memo.get(&key) {
        return cached.clone();
    }
    // Occurs-check placeholder: a recursive provider chain hitting the
    // same (kind, budget) while it is being computed gets the empty set.
    memo.insert(key.clone(), Vec::new());

    let mut accepted: Vec<RankedPlan> = Vec::new();
    let provider_indices = ctx.providers.get(kind).cloned().unwrap_or_default();
    for ti in provider_indices {
        let t = &ctx.types[ti];
        let mut candidate_plans = Vec::new();
        if t.inputs.is_empty() {
            candidate_plans.push(Plan {
                ty: ti,
                children: Vec::new(),
            });
        } else {
            // Synthesize producer options per input port.
            let mut per_port: Vec<Vec<Plan>> = Vec::with_capacity(t.inputs.len());
            let mut satisfiable = true;
            for port in &t.inputs {
                let port_kinds: Vec<String> = if port.accepts.is_empty() {
                    ctx.all_kinds.clone()
                } else {
                    port.accepts.clone()
                };
                let mut seen = BTreeSet::new();
                let mut options = Vec::new();
                for k in &port_kinds {
                    for p in plans_for(ctx, k, budget - 1, memo) {
                        if seen.insert(signature(ctx, &p)) {
                            options.push(p);
                        }
                    }
                }
                if options.is_empty() {
                    satisfiable = false;
                    break;
                }
                per_port.push(options);
            }
            if satisfiable {
                // Odometer over the per-port option lists.
                let mut idx = vec![0usize; per_port.len()];
                let mut combos = 0usize;
                'product: loop {
                    combos += 1;
                    if combos > MAX_COMBOS {
                        break;
                    }
                    let children: Vec<Plan> = idx
                        .iter()
                        .zip(&per_port)
                        .map(|(&i, opts)| opts[i].clone())
                        .collect();
                    candidate_plans.push(Plan { ty: ti, children });
                    // Advance the odometer.
                    for pos in (0..idx.len()).rev() {
                        idx[pos] += 1;
                        if idx[pos] < per_port[pos].len() {
                            continue 'product;
                        }
                        idx[pos] = 0;
                    }
                    break;
                }
            }
        }
        for plan in candidate_plans {
            if plan.size() > budget {
                continue;
            }
            if let Some(tip_accuracy) = admissible(ctx, &plan) {
                let sig = signature(ctx, &plan);
                accepted.push((tip_accuracy, plan.size(), sig, plan));
            }
        }
    }
    // Beam: best tip accuracy first (unknown last), then smallest, then
    // canonical signature for full determinism.
    accepted.sort_by(|a, b| {
        let key = |e: &RankedPlan| (e.0.map_or(f64::INFINITY, |(best, _)| best), e.1);
        let (aa, asize) = key(a);
        let (ba, bsize) = key(b);
        aa.total_cmp(&ba)
            .then(asize.cmp(&bsize))
            .then(a.2.cmp(&b.2))
    });
    accepted.truncate(BEAM);
    let plans: Vec<Plan> = accepted.into_iter().map(|(_, _, _, p)| p).collect();
    memo.insert(key, plans.clone());
    plans
}

/// Enumerates every gate-accepted pipeline for `goal` over `catalog`,
/// deduplicated and ranked (best accuracy, then tightest worst bound,
/// then lowest power, then fewest components, then canonical JSON).
///
/// The acceptance gate is [`analyze_config`] requiring a *completely
/// clean* report — zero errors and zero warnings — followed by the
/// goal checks against the solved sink facts.
pub(crate) fn enumerate(goal: &SynthesisGoal, catalog: &TypeCatalog) -> Vec<Candidate> {
    let ctx = Ctx::new(goal, catalog);
    let mut memo = BTreeMap::new();
    let plans = plans_for(
        &ctx,
        goal.effective_output_kind(),
        ctx.max_components,
        &mut memo,
    );

    let mut seen = BTreeSet::new();
    let mut out: Vec<Candidate> = Vec::new();
    for plan in plans {
        let config = materialize(&ctx, &plan, true);
        // The acceptance gate: the synthesizer never emits a pipeline
        // perpos-lint would flag.
        if !analyze_config(&config, catalog).is_clean() {
            continue;
        }
        let flow = FlowGraph::from_config(&config, catalog);
        // Synthesized pipelines must replay deterministically (candidate
        // ranking and re-linting both assume it), so exogenous/unseeded
        // effects (P019) reject a candidate even without a fleet block.
        let mut determinism = crate::diagnostic::Report::new();
        crate::effects::determinism_diagnostics(&flow, &mut determinism);
        if !determinism.is_clean() {
            continue;
        }
        let facts = infer_facts(&flow);
        let Some(sink) = flow.nodes.iter().position(|n| n.label == "app") else {
            continue;
        };
        let accuracy = facts.accuracy[sink];
        let rate = facts.rate[sink];
        let frames: Vec<String> = facts.frames[sink].iter().cloned().collect();
        let tainted = !facts.taint[sink].is_empty();
        let power = ctx.power_of(&plan);
        if let Some(goal_acc) = goal.accuracy_m {
            match accuracy {
                Some((best, _)) if best <= goal_acc => {}
                _ => continue,
            }
        }
        if let Some(goal_rate) = goal.max_rate_hz {
            match rate {
                Some((_, hi)) if hi.is_finite() && hi <= goal_rate => {}
                _ => continue,
            }
        }
        if let Some(goal_frame) = &goal.frame {
            if frames.len() != 1 || frames[0] != *goal_frame {
                continue;
            }
        }
        if goal.no_identifiable_at_sink && tainted {
            continue;
        }
        if let Some(budget) = goal.power_budget_mw {
            if power.unwrap_or(0.0) > budget {
                continue;
            }
        }
        let canonical =
            serde_json::to_string(&config).expect("GraphConfig is plain data and serializes");
        if !seen.insert(canonical) {
            continue;
        }
        out.push(Candidate {
            config,
            accuracy,
            rate,
            power,
            size: plan.size(),
            frames,
        });
    }
    out.sort_by(|a, b| {
        let key = |c: &Candidate| {
            (
                c.accuracy.map_or(f64::INFINITY, |(best, _)| best),
                c.accuracy.map_or(f64::INFINITY, |(_, worst)| worst),
                c.power.unwrap_or(0.0),
                c.size,
            )
        };
        let (aa, aw, ap, asize) = key(a);
        let (ba, bw, bp, bsize) = key(b);
        aa.total_cmp(&ba)
            .then(aw.total_cmp(&bw))
            .then(ap.total_cmp(&bp))
            .then(asize.cmp(&bsize))
            .then_with(|| {
                let aj = serde_json::to_string(&a.config).unwrap_or_default();
                let bj = serde_json::to_string(&b.config).unwrap_or_default();
                aj.cmp(&bj)
            })
    });
    out
}
