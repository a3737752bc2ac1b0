//! Rate/cost propagation (P013, P014).
//!
//! The fact on a node's output is an interval bounding the sustained
//! item rate it produces, in items/second: `Some((lo, hi))`, or `None`
//! when nothing upstream declares a rate. Sources declare
//! [`TransferSpec::emit_rate_hz`]; downstream, a node's inflow is the
//! *sum* over its input edges (fan-in accumulates queue pressure), an
//! edge from an undeclared producer contributes `[0, ∞)`, and the node's
//! own [`TransferSpec::rate_factor`] (fan-out > 1, downsampling < 1)
//! scales the inflow into the outflow.
//!
//! [`diagnostics`] reports P013 when a node's *guaranteed* inflow (the
//! lower bound) exceeds its declared [`TransferSpec::max_rate_hz`]: the
//! input queue then grows without bound no matter how the runtime
//! behaves — the static form of unbounded queue growth. The same excess
//! also predicts when the channel layer's bounded per-level buffer
//! ([`LEVEL_BUFFER_CAP`]) will start evicting entries (P014), turning
//! the unbounded-queue abstraction into concrete silent data loss.

use crate::dataflow::{Domain, FlowGraph};
use crate::diagnostic::{Code, Diagnostic, Report, Severity};

use perpos_core::channel::LEVEL_BUFFER_CAP;
#[allow(unused_imports)] // doc links
use perpos_core::component::TransferSpec;

/// Sums the rate intervals arriving over a node's wired input edges;
/// `None` when no input carries any rate information.
fn inflow(inputs: &[(usize, &Option<(f64, f64)>)]) -> Option<(f64, f64)> {
    if inputs.is_empty() {
        return None;
    }
    let mut lo = 0.0;
    let mut hi = 0.0;
    let mut known = false;
    for (_, fact) in inputs {
        match fact {
            Some((l, h)) => {
                lo += l;
                hi += h;
                known = true;
            }
            None => hi = f64::INFINITY,
        }
    }
    known.then_some((lo, hi))
}

/// The item-rate domain; facts are optional `(lo, hi)` items/second
/// intervals.
pub struct RateDomain;

impl Domain for RateDomain {
    type Fact = Option<(f64, f64)>;

    fn bottom(&self) -> Self::Fact {
        None
    }

    fn transfer(
        &self,
        graph: &FlowGraph,
        node: usize,
        inputs: &[(usize, &Self::Fact)],
    ) -> Self::Fact {
        let t = &graph.nodes[node].transfer;
        if let Some(rate) = t.emit_rate_hz {
            return Some((rate, rate));
        }
        inflow(inputs).map(|(lo, hi)| {
            let factor = t.rate_factor.unwrap_or(1.0);
            (lo * factor, hi * factor)
        })
    }

    fn widen(&self, _previous: &Self::Fact, next: &Self::Fact) -> Self::Fact {
        next.map(|_| (0.0, f64::INFINITY))
    }
}

/// Seconds of sustained run time until the channel layer's per-level
/// buffer first evicts, given a guaranteed inflow `lo` against a
/// declared `capacity`; `None` while the buffer drains at least as fast
/// as it fills.
pub(crate) fn overflow_seconds(lo: f64, capacity: f64) -> Option<f64> {
    (lo > capacity).then(|| LEVEL_BUFFER_CAP as f64 / (lo - capacity))
}

/// The predicted time-to-eviction for one node over solved rate facts
/// (see [`overflow_seconds`]); surfaced in the `--facts json` document.
pub(crate) fn node_overflow_s(
    graph: &FlowGraph,
    facts: &[Option<(f64, f64)>],
    node: usize,
) -> Option<f64> {
    let capacity = graph.nodes[node].transfer.max_rate_hz?;
    let inputs: Vec<(usize, &Option<(f64, f64)>)> = graph
        .preds(node)
        .iter()
        .map(|&e| (e, &facts[graph.edges[e].from]))
        .collect();
    let (lo, _) = inflow(&inputs)?;
    overflow_seconds(lo, capacity)
}

/// P013/P014 checks over the solved rate facts.
pub fn diagnostics(graph: &FlowGraph, facts: &[Option<(f64, f64)>], report: &mut Report) {
    for (i, n) in graph.nodes.iter().enumerate() {
        let Some(capacity) = n.transfer.max_rate_hz else {
            continue;
        };
        let inputs: Vec<(usize, &Option<(f64, f64)>)> = graph
            .preds(i)
            .iter()
            .map(|&e| (e, &facts[graph.edges[e].from]))
            .collect();
        let Some((lo, _)) = inflow(&inputs) else {
            continue;
        };
        if lo > capacity {
            report.push(
                Diagnostic::new(
                    Code::P013,
                    Severity::Warning,
                    format!(
                        "{} receives at least {lo} items/s but sustains only \
                         {capacity} items/s; its input queue grows without bound",
                        n.label
                    ),
                    vec![n.label.clone()],
                )
                .with_hint(
                    "downsample upstream (rate_factor < 1), reduce source emit rates, \
                     or raise the component's capacity",
                ),
            );
            if let Some(secs) = overflow_seconds(lo, capacity) {
                report.push(
                    Diagnostic::new(
                        Code::P014,
                        Severity::Warning,
                        format!(
                            "{} backlog grows {:.3} items/s; the channel layer's \
                             {LEVEL_BUFFER_CAP}-entry level buffer starts evicting \
                             after ~{secs:.0} s, silently dropping tree contributors",
                            n.label,
                            lo - capacity,
                        ),
                        vec![n.label.clone()],
                    )
                    .with_hint(
                        "resolve the P013 rate overload so the buffer drains as fast \
                         as it fills; runtime evictions are counted in \
                         Middleware::channel_stats(..).dropped",
                    ),
                );
            }
        }
    }
}
