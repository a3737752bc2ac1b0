//! End-to-end tests of the simulated D-OSGi distribution (§3.3 / Fig. 7):
//! the processing graph spanning a mobile device and a server.

#![allow(clippy::unwrap_used)]
use perpos::core::distribution::{Deployment, LinkModel};
use perpos::prelude::*;

fn fig7_graph() -> (
    Middleware,
    perpos::core::graph::NodeId, // gps
    perpos::core::graph::NodeId, // wrapper
    perpos::core::graph::NodeId, // parser
) {
    let frame = LocalFrame::new(Wgs84::new(56.17, 10.19, 0.0).unwrap());
    let walk = Trajectory::stationary(Point2::new(0.0, 0.0));
    let mut mw = Middleware::new();
    let gps = mw.add_component(
        GpsSimulator::new("GPS", frame, walk)
            .with_seed(3)
            .with_environment(GpsEnvironment {
                dropout_prob: 0.0,
                ..GpsEnvironment::open_sky()
            }),
    );
    let wrapper = mw.add_component(SensorWrapper::new("SensorWrapper", "mobile"));
    let parser = mw.add_component(Parser::new());
    let interpreter = mw.add_component(Interpreter::new());
    let app = mw.application_sink();
    mw.connect(gps, wrapper, 0).unwrap();
    mw.connect(wrapper, parser, 0).unwrap();
    mw.connect(parser, interpreter, 0).unwrap();
    mw.connect(interpreter, app, 0).unwrap();
    (mw, gps, wrapper, parser)
}

#[test]
fn cross_host_edges_travel_the_link() {
    let (mut mw, gps, wrapper, _parser) = fig7_graph();
    // GPS + wrapper on the device; parser onward on the server.
    mw.set_deployment(
        Deployment::new("server")
            .assign(gps, "mobile")
            .assign(wrapper, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_millis(500),
                loss_prob: 0.0,
            }),
    );
    let provider = mw
        .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
        .unwrap();

    // First step: sentences are sent but still in flight.
    mw.step().unwrap();
    assert_eq!(provider.delivered_count(), 0, "nothing arrives instantly");
    let dep = mw.deployment().unwrap();
    assert!(dep.in_flight() > 0);
    let sent: u64 = dep.stats().values().map(|s| s.sent).sum();
    assert!(sent > 0);

    // After the latency has elapsed, the server side processes them.
    mw.advance_clock(SimDuration::from_millis(600));
    mw.step().unwrap();
    assert!(provider.delivered_count() > 0, "delivered after latency");
    let delivered: u64 = mw
        .deployment()
        .unwrap()
        .stats()
        .values()
        .map(|s| s.delivered)
        .sum();
    assert!(delivered > 0);
}

#[test]
fn same_host_edges_are_synchronous() {
    let (mut mw, gps, wrapper, parser) = fig7_graph();
    // Everything on one host: distribution changes nothing.
    mw.set_deployment(
        Deployment::new("server")
            .assign(gps, "server")
            .assign(wrapper, "server")
            .assign(parser, "server"),
    );
    let provider = mw
        .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
        .unwrap();
    mw.step().unwrap();
    assert!(
        provider.delivered_count() > 0,
        "co-located graph is synchronous"
    );
    assert_eq!(mw.deployment().unwrap().in_flight(), 0);
}

#[test]
fn lossy_link_degrades_but_does_not_stop_delivery() {
    let (mut mw, gps, wrapper, _parser) = fig7_graph();
    mw.set_deployment(
        Deployment::new("server")
            .assign(gps, "mobile")
            .assign(wrapper, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_millis(10),
                loss_prob: 0.5,
            })
            .with_seed(7),
    );
    let provider = mw
        .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
        .unwrap();
    mw.run_for(SimDuration::from_secs(60), SimDuration::from_secs(1))
        .unwrap();
    let deployment = mw.deployment().unwrap();
    let stats: Vec<_> = deployment.stats().values().copied().collect();
    let sent: u64 = stats.iter().map(|s| s.sent).sum();
    let delivered: u64 = stats.iter().map(|s| s.delivered).sum();
    let lost: u64 = stats.iter().map(|s| s.lost).sum();
    assert!(lost > 0, "a 50% link must lose messages");
    assert!(lost < sent, "and deliver some");
    assert_eq!(
        sent,
        delivered + lost + deployment.in_flight() as u64,
        "every message is delivered, lost once, or still in flight"
    );
    assert!(provider.delivered_count() > 0);
}

#[test]
fn data_trees_stay_correct_across_hosts() {
    use perpos::core::channel::{ChannelFeature, ChannelHost, DataTree};
    use perpos::core::feature::FeatureDescriptor;
    use std::any::Any;

    struct Shapes(Vec<(usize, usize)>);
    impl ChannelFeature for Shapes {
        fn descriptor(&self) -> FeatureDescriptor {
            FeatureDescriptor::new("Shapes")
        }
        fn apply(&mut self, tree: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
            self.0.push((tree.len(), tree.depth()));
            Ok(())
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let (mut mw, gps, wrapper, _parser) = fig7_graph();
    mw.set_deployment(
        Deployment::new("server")
            .assign(gps, "mobile")
            .assign(wrapper, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_millis(250),
                loss_prob: 0.0,
            }),
    );
    let app = mw.application_sink();
    let channel = mw.channel_into(app, 0).unwrap();
    mw.attach_channel_feature(channel, Shapes(Vec::new()))
        .unwrap();
    for _ in 0..20 {
        mw.step().unwrap();
        mw.advance_clock(SimDuration::from_millis(500));
    }
    let shapes = mw
        .with_channel_feature_mut::<Shapes, Vec<(usize, usize)>>(channel, "Shapes", |s| s.0.clone())
        .unwrap();
    assert!(!shapes.is_empty(), "trees complete despite link latency");
    for (len, depth) in &shapes {
        // GPS -> wrapper -> parser -> interpreter: four levels.
        assert_eq!(*depth, 4, "tree depth must be the full channel: {shapes:?}");
        assert!(*len >= 4);
    }
}

#[test]
fn clearing_deployment_restores_synchrony() {
    let (mut mw, gps, wrapper, _parser) = fig7_graph();
    mw.set_deployment(
        Deployment::new("server")
            .assign(gps, "mobile")
            .assign(wrapper, "mobile")
            .default_link(LinkModel {
                latency: SimDuration::from_secs(3600),
                loss_prob: 0.0,
            }),
    );
    let provider = mw.location_provider(Criteria::new()).unwrap();
    mw.step().unwrap();
    assert_eq!(provider.delivered_count(), 0);
    mw.clear_deployment();
    mw.advance_clock(SimDuration::from_secs(1));
    mw.step().unwrap();
    assert!(provider.delivered_count() > 0);
}
