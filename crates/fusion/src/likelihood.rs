//! The Likelihood Channel Feature of the paper's Fig. 5.
//!
//! The feature's `apply(dataTree)` walks every NMEA sentence in the data
//! tree behind each channel output, collects the HDOP values the
//! [`HdopFeature`](perpos_sensors::HdopFeature) attached, and maintains a
//! sliding window. `getLikelihood(particle)` — here
//! [`LikelihoodHandle::likelihood`] — turns a particle-to-measurement
//! distance into a probability using a Gaussian whose deviation follows
//! the recent HDOP level.

use parking_lot::RwLock;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use perpos_core::channel::{ChannelFeature, ChannelHost, DataTree};
use perpos_core::component::MethodSpec;
use perpos_core::feature::FeatureDescriptor;
use perpos_core::prelude::*;

/// Metres of 1-sigma error per unit of HDOP (user-equivalent range
/// error).
const UERE_M: f64 = 5.0;

/// How many HDOP observations the window keeps.
const WINDOW: usize = 10;

#[derive(Debug, Default)]
struct State {
    hdops: VecDeque<f64>,
    applies: u64,
}

impl State {
    fn sigma_m(&self) -> f64 {
        if self.hdops.is_empty() {
            return 15.0; // conservative prior before any observation
        }
        let mean = self.hdops.iter().sum::<f64>() / self.hdops.len() as f64;
        (mean * UERE_M).clamp(2.0, 60.0)
    }
}

/// The unnormalized Gaussian likelihood of a particle at `distance_m`
/// from the measurement, floored at 1e-12 so no particle's weight
/// collapses to zero.
pub(crate) fn gaussian_likelihood(distance_m: f64, sigma_m: f64) -> f64 {
    (-0.5 * (distance_m / sigma_m).powi(2)).exp().max(1e-12)
}

/// A cloneable handle to the likelihood state, handed to the particle
/// filter — the Rust equivalent of the paper's
/// `inputChannel.getFeature(position, Likelihood.class)`.
#[derive(Debug, Clone, Default)]
pub struct LikelihoodHandle {
    state: Arc<RwLock<State>>,
}

impl LikelihoodHandle {
    /// The current 1-sigma measurement deviation in metres, derived from
    /// the HDOP window.
    pub fn sigma_m(&self) -> f64 {
        self.state.read().sigma_m()
    }

    /// The likelihood of a particle at `distance_m` from the measured
    /// position (unnormalized Gaussian).
    pub fn likelihood(&self, distance_m: f64) -> f64 {
        gaussian_likelihood(distance_m, self.sigma_m())
    }

    /// Number of `apply` calls observed (diagnostics).
    pub fn applies(&self) -> u64 {
        self.state.read().applies
    }
}

/// The Likelihood Channel Feature (Fig. 5, artifact 2).
///
/// Declares a dependency on the `HDOP` Component Feature, exactly as the
/// paper's version "specifies that it depends on a Processing Component
/// that provides the Component Feature which can access \[HDOP\]
/// information". Reflective methods: `getSigma() -> float`,
/// `getLikelihood(distance: float) -> float`.
#[derive(Debug, Clone, Default)]
pub struct LikelihoodFeature {
    state: Arc<RwLock<State>>,
}

impl LikelihoodFeature {
    /// The feature name.
    pub const NAME: &'static str = "Likelihood";

    /// Creates the feature.
    pub fn new() -> Self {
        LikelihoodFeature::default()
    }

    /// A handle sharing this feature's state; give it to the particle
    /// filter before attaching the feature to the channel.
    pub fn handle(&self) -> LikelihoodHandle {
        LikelihoodHandle {
            state: Arc::clone(&self.state),
        }
    }
}

impl ChannelFeature for LikelihoodFeature {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME)
            .requiring("HDOP")
            .method(MethodSpec::new("getSigma", "() -> float"))
            .method(MethodSpec::new(
                "getLikelihood",
                "(distance_m: float) -> float",
            ))
    }

    fn apply(&mut self, tree: &DataTree, _host: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        let mut state = self.state.write();
        state.applies += 1;
        // "The method implementation collects the HDOP values from the
        // data tree" (Fig. 5): the HDOP Component Feature attached them
        // to the NMEA sentence items.
        for node in tree.items_of_kind(&kinds::NMEA_SENTENCE) {
            if let Some(h) = node.item.attr("hdop").and_then(Value::as_f64) {
                state.hdops.push_back(h);
                if state.hdops.len() > WINDOW {
                    state.hdops.pop_front();
                }
            }
        }
        Ok(())
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "getSigma" => Ok(Value::Float(self.state.read().sigma_m())),
            "getLikelihood" => {
                let d = args.first().and_then(Value::as_f64).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: "expected one float (distance in metres)".into(),
                    }
                })?;
                Ok(Value::Float(self.handle().likelihood(d)))
            }
            other => Err(CoreError::NoSuchMethod {
                target: Self::NAME.into(),
                method: other.into(),
            }),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    /// Captures the HDOP window and the apply count, so a restored
    /// filter weighs with the sigma the uninterrupted one would.
    fn snapshot_state(&self) -> Option<Value> {
        let state = self.state.read();
        Some(Value::List(vec![
            Value::List(state.hdops.iter().map(|&h| Value::Float(h)).collect()),
            Value::Int(state.applies as i64),
        ]))
    }

    /// Applies a state from [`LikelihoodFeature::snapshot_state`]; one it
    /// cannot decode (another shape, a non-float HDOP, a window longer
    /// than the feature keeps) changes nothing.
    fn restore_state(&mut self, state: &Value) {
        let Value::List(parts) = state else {
            return;
        };
        let [Value::List(hdops), Value::Int(applies)] = parts.as_slice() else {
            return;
        };
        let window: Option<VecDeque<f64>> = hdops
            .iter()
            .map(|h| match h {
                Value::Float(h) => Some(*h),
                _ => None,
            })
            .collect();
        if let Some(hdops) = window.filter(|w| w.len() <= WINDOW) {
            *self.state.write() = State {
                hdops,
                applies: *applies as u64,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::channel::{ChannelId, DataNode};
    use perpos_core::graph::ProcessingGraph;

    fn tree_with_hdops(hdops: &[f64]) -> (DataTree, ProcessingGraph) {
        let mut graph = ProcessingGraph::new();
        let node = graph.add(Box::new(perpos_core::component::FnSource::new(
            "gps",
            kinds::RAW_STRING,
            |_| None,
        )));
        let children: Vec<DataNode> = hdops
            .iter()
            .enumerate()
            .map(|(i, h)| DataNode {
                component: node,
                component_name: "Parser".into(),
                item: DataItem::new(kinds::NMEA_SENTENCE, SimTime::ZERO, Value::Null)
                    .with_attr("hdop", Value::Float(*h)),
                logical: i as u64 + 1,
                range: None,
                children: vec![],
            })
            .collect();
        let root = DataNode {
            component: node,
            component_name: "Interpreter".into(),
            item: DataItem::new(kinds::POSITION_WGS84, SimTime::ZERO, Value::Null),
            logical: 1,
            range: Some((1, hdops.len() as u64)),
            children,
        };
        (
            DataTree {
                channel: ChannelId::of_head(node),
                root,
            },
            graph,
        )
    }

    #[test]
    fn collects_hdops_from_tree() {
        let (tree, mut graph) = tree_with_hdops(&[1.0, 2.0, 3.0]);
        let mut f = LikelihoodFeature::new();
        let handle = f.handle();
        let members = [];
        let mut host = ChannelHost::for_test(&mut graph, &members);
        f.apply(&tree, &mut host).unwrap();
        // Mean HDOP 2.0 -> sigma 10.0 m.
        assert!((handle.sigma_m() - 10.0).abs() < 1e-9);
        assert_eq!(handle.applies(), 1);
    }

    #[test]
    fn window_is_bounded() {
        let mut f = LikelihoodFeature::new();
        let handle = f.handle();
        for _ in 0..5 {
            let (tree, mut graph) = tree_with_hdops(&[4.0, 4.0, 4.0]);
            let members = [];
            let mut host = ChannelHost::for_test(&mut graph, &members);
            f.apply(&tree, &mut host).unwrap();
        }
        assert_eq!(f.state.read().hdops.len(), WINDOW);
        assert!((handle.sigma_m() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn window_survives_snapshot_and_restore() {
        let (tree, mut graph) = tree_with_hdops(&[1.0, 2.5, 4.0]);
        let mut f = LikelihoodFeature::new();
        let members = [];
        f.apply(&tree, &mut ChannelHost::for_test(&mut graph, &members))
            .unwrap();
        let state = f.snapshot_state().unwrap();
        let mut restored = LikelihoodFeature::new();
        let handle = restored.handle();
        restored.restore_state(&state);
        assert_eq!(handle.sigma_m(), f.handle().sigma_m());
        assert_eq!(handle.applies(), 1);
        // Undecodable states change nothing.
        let long = Value::List(vec![
            Value::List(vec![Value::Float(1.0); WINDOW + 1]),
            Value::Int(0),
        ]);
        for bad in [Value::Null, Value::List(vec![Value::Int(1)]), long] {
            restored.restore_state(&bad);
            assert_eq!(handle.sigma_m(), f.handle().sigma_m());
        }
    }

    #[test]
    fn likelihood_decreases_with_distance() {
        let handle = LikelihoodFeature::new().handle();
        let near = handle.likelihood(1.0);
        let far = handle.likelihood(100.0);
        assert!(near > far);
        assert!(near <= 1.0);
        assert!(far >= 1e-12);
    }

    #[test]
    fn prior_sigma_without_observations() {
        let handle = LikelihoodFeature::new().handle();
        assert_eq!(handle.sigma_m(), 15.0);
    }

    #[test]
    fn reflective_surface() {
        let mut f = LikelihoodFeature::new();
        assert!(matches!(
            f.invoke("getSigma", &[]).unwrap(),
            Value::Float(_)
        ));
        let l = f
            .invoke("getLikelihood", &[Value::Float(0.0)])
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((l - 1.0).abs() < 1e-9);
        assert!(f.invoke("getLikelihood", &[]).is_err());
        assert!(f.invoke("nope", &[]).is_err());
        assert_eq!(f.descriptor().requires, vec!["HDOP".to_string()]);
    }
}
