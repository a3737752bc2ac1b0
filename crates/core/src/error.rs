use std::error::Error;
use std::fmt;

use crate::channel::ChannelId;
use crate::data::DataKind;
use crate::graph::NodeId;

/// Error type for all fallible PerPos middleware operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The node id does not exist in the processing graph.
    UnknownNode(NodeId),
    /// The channel id does not exist (channels are recomputed when the
    /// graph changes; stale ids become invalid).
    UnknownChannel(ChannelId),
    /// The input port index is out of range for the component.
    UnknownPort {
        /// Target node.
        node: NodeId,
        /// Offending port index.
        port: usize,
    },
    /// The input port is already connected.
    PortOccupied {
        /// Target node.
        node: NodeId,
        /// Occupied port index.
        port: usize,
    },
    /// The producing component has no output port.
    NoOutput(NodeId),
    /// A connection would violate declared port capabilities.
    IncompatibleConnection {
        /// Producing node.
        from: NodeId,
        /// Consuming node.
        to: NodeId,
        /// What the consumer's port accepts.
        accepts: Vec<DataKind>,
        /// What the producer provides.
        provides: Vec<DataKind>,
    },
    /// A required Component Feature is not attached to the upstream
    /// component (paper §2.1: input requirements include feature
    /// dependencies).
    MissingFeature {
        /// Node whose port declares the dependency.
        node: NodeId,
        /// The feature name required.
        feature: String,
    },
    /// Connecting these nodes would create a cycle; the positioning
    /// process must stay a DAG.
    CycleDetected {
        /// Producing node.
        from: NodeId,
        /// Consuming node.
        to: NodeId,
    },
    /// The reflective method does not exist on the target.
    NoSuchMethod {
        /// Target description (component/feature name).
        target: String,
        /// Requested method.
        method: String,
    },
    /// A reflective method was called with unusable arguments.
    BadArguments {
        /// Requested method.
        method: String,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A Component Feature with this name is already attached to the
    /// node; feature names are unique per host.
    DuplicateFeature {
        /// Host node.
        node: NodeId,
        /// The feature name already taken.
        feature: String,
    },
    /// No feature with this name is attached to the target.
    UnknownFeatureName {
        /// Target description.
        target: String,
        /// The feature looked up.
        feature: String,
    },
    /// No location provider satisfies the criteria.
    NoMatchingProvider(String),
    /// A component implementation reported a failure.
    ComponentFailure {
        /// Component name.
        component: String,
        /// Failure description.
        reason: String,
    },
    /// A payload did not have the expected shape.
    PayloadMismatch {
        /// What was expected, e.g. `"position"`.
        expected: &'static str,
        /// What was found (value variant name).
        found: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownNode(id) => write!(f, "unknown node {id}"),
            CoreError::UnknownChannel(id) => write!(f, "unknown channel {id}"),
            CoreError::UnknownPort { node, port } => {
                write!(f, "node {node} has no input port {port}")
            }
            CoreError::PortOccupied { node, port } => {
                write!(f, "input port {port} of node {node} is already connected")
            }
            CoreError::NoOutput(id) => write!(f, "node {id} has no output port"),
            CoreError::IncompatibleConnection {
                from,
                to,
                accepts,
                provides,
            } => write!(
                f,
                "cannot connect {from} -> {to}: port accepts {accepts:?} but producer provides {provides:?}"
            ),
            CoreError::MissingFeature { node, feature } => write!(
                f,
                "node {node} requires component feature {feature:?} on its producer"
            ),
            CoreError::CycleDetected { from, to } => {
                write!(f, "connecting {from} -> {to} would create a cycle")
            }
            CoreError::NoSuchMethod { target, method } => {
                write!(f, "{target} has no method {method:?}")
            }
            CoreError::BadArguments { method, reason } => {
                write!(f, "bad arguments for {method:?}: {reason}")
            }
            CoreError::DuplicateFeature { node, feature } => {
                write!(f, "feature {feature:?} is already attached to node {node}")
            }
            CoreError::UnknownFeatureName { target, feature } => {
                write!(f, "{target} has no feature {feature:?}")
            }
            CoreError::NoMatchingProvider(c) => {
                write!(f, "no location provider matches criteria {c}")
            }
            CoreError::ComponentFailure { component, reason } => {
                write!(f, "component {component} failed: {reason}")
            }
            CoreError::PayloadMismatch { expected, found } => {
                write!(f, "expected a {expected} payload, found {found}")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::kinds;
    use crate::graph::ProcessingGraph;

    #[test]
    fn every_variant_displays_nonempty() {
        let mut g = ProcessingGraph::new();
        let n = g.add(Box::new(crate::component::FnSource::new(
            "x",
            kinds::RAW_STRING,
            |_| None,
        )));
        let variants: Vec<CoreError> = vec![
            CoreError::UnknownNode(n),
            CoreError::UnknownChannel(crate::channel::ChannelId::of_head(n)),
            CoreError::UnknownPort { node: n, port: 3 },
            CoreError::PortOccupied { node: n, port: 0 },
            CoreError::NoOutput(n),
            CoreError::IncompatibleConnection {
                from: n,
                to: n,
                accepts: vec![kinds::NMEA_SENTENCE],
                provides: vec![kinds::RAW_STRING],
            },
            CoreError::MissingFeature {
                node: n,
                feature: "HDOP".into(),
            },
            CoreError::CycleDetected { from: n, to: n },
            CoreError::NoSuchMethod {
                target: "Parser".into(),
                method: "warp".into(),
            },
            CoreError::BadArguments {
                method: "set".into(),
                reason: "expected float".into(),
            },
            CoreError::DuplicateFeature {
                node: n,
                feature: "HDOP".into(),
            },
            CoreError::UnknownFeatureName {
                target: "Parser".into(),
                feature: "Nope".into(),
            },
            CoreError::NoMatchingProvider("kinds=[]".into()),
            CoreError::ComponentFailure {
                component: "GPS".into(),
                reason: "fault".into(),
            },
            CoreError::PayloadMismatch {
                expected: "position",
                found: "int",
            },
        ];
        for v in variants {
            let text = v.to_string();
            assert!(!text.is_empty(), "{v:?}");
            // Errors behave as std errors.
            let _: &dyn std::error::Error = &v;
        }
    }
}
