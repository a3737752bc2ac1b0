//! Property tests of engine-level invariants: item conservation through
//! pass-through pipelines, data-tree partitioning of intermediate items,
//! graph-edge consistency under random manipulation sequences, and
//! fan-out routing by the kinds each port declares.

#![allow(clippy::unwrap_used)]
use std::any::Any;
use std::sync::{Arc, Mutex};

use perpos_core::channel::{ChannelFeature, ChannelHost, DataTree};
use perpos_core::feature::FeatureDescriptor;
use perpos_core::prelude::*;
use proptest::prelude::*;

/// Builds a pass-through pipeline of the given depth and runs `steps`
/// engine steps with one item emitted per step.
fn run_pipeline(depth: usize, steps: usize) -> (Middleware, LocationProvider) {
    let mut mw = Middleware::new();
    let mut i = 0i64;
    let src = mw.add_component(FnSource::new("src", kinds::RAW_STRING, move |_| {
        i += 1;
        Some(Value::Int(i))
    }));
    let mut prev = src;
    for d in 0..depth {
        let node = mw.add_component(FnProcessor::new(
            format!("stage{d}"),
            vec![kinds::RAW_STRING],
            kinds::RAW_STRING,
            |item| Some(item.payload.clone()),
        ));
        mw.connect(prev, node, 0).unwrap();
        prev = node;
    }
    let app = mw.application_sink();
    mw.connect(prev, app, 0).unwrap();
    let provider = mw.location_provider(Criteria::new()).unwrap();
    for _ in 0..steps {
        mw.step().unwrap();
        mw.advance_clock(SimDuration::from_millis(10));
    }
    (mw, provider)
}

struct TreeAccounting {
    trees: usize,
    elements: usize,
    roots_in_order: Vec<i64>,
}

impl ChannelFeature for TreeAccounting {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new("TreeAccounting")
    }
    fn apply(&mut self, tree: &DataTree, _h: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        self.trees += 1;
        self.elements += tree.len();
        if let Some(v) = tree.root.item.payload.as_i64() {
            self.roots_in_order.push(v);
        }
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The kinds a routing case draws from; bit `i` of a port's mask
/// accepts `KIND_POOL[i]`.
const KIND_POOL: [DataKind; 4] = [
    kinds::RAW_STRING,
    kinds::NMEA_SENTENCE,
    kinds::POSITION_WGS84,
    kinds::WIFI_SCAN,
];

/// `KIND_POOL[i]`, either the static constant or the same name built at
/// runtime.
fn pool_kind(i: usize, runtime: bool) -> DataKind {
    if runtime {
        DataKind::new(KIND_POOL[i].as_str())
    } else {
        KIND_POOL[i].clone()
    }
}

/// A source that emits one scripted item per step: item `n` has kind
/// `script[n]` and payload `n`.
struct Scripted {
    script: Vec<DataKind>,
    next: usize,
}

impl Component for Scripted {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::source("scripted", KIND_POOL.to_vec())
    }
    fn on_input(
        &mut self,
        _p: usize,
        _i: DataItem,
        _c: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }
    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        if let Some(kind) = self.script.get(self.next) {
            ctx.emit_value(kind.clone(), Value::Int(self.next as i64));
            self.next += 1;
        }
        Ok(())
    }
}

/// A sink that logs `(its index, item payload)` for every item it gets.
struct Logging {
    index: usize,
    accepts: Vec<DataKind>,
    log: Arc<Mutex<Vec<(usize, i64)>>>,
}

impl Component for Logging {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::sink(
            format!("log{}", self.index),
            InputSpec::new("in", self.accepts.clone()),
        )
    }
    fn on_input(
        &mut self,
        _p: usize,
        item: DataItem,
        _c: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let n = item.payload.as_i64().unwrap();
        self.log.lock().unwrap().push((self.index, n));
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A fan-out delivers each item to exactly the edges whose port
    /// accepts its kind (`InputSpec::accepts_kind`), in `downstream`
    /// order, whether the port's kinds and the item's kind are the
    /// static constants or equal names built at runtime. A mask of 0
    /// declares no kinds, so that port accepts any.
    #[test]
    fn fan_out_routes_by_declared_kinds(
        ports in proptest::collection::vec((0u8..16, any::<bool>()), 1..6),
        items in proptest::collection::vec((0usize..4, any::<bool>()), 1..24),
    ) {
        let mut mw = Middleware::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let script: Vec<DataKind> = items.iter().map(|&(k, rt)| pool_kind(k, rt)).collect();
        let src = mw.add_component(Scripted { script: script.clone(), next: 0 });
        let mut sinks = Vec::new();
        for (index, &(mask, runtime)) in ports.iter().enumerate() {
            let accepts = (0..KIND_POOL.len())
                .filter(|bit| mask & (1 << bit) != 0)
                .map(|bit| pool_kind(bit, runtime))
                .collect();
            let sink = mw.add_component(Logging { index, accepts, log: Arc::clone(&log) });
            mw.connect(src, sink, 0).unwrap();
            sinks.push(sink);
        }
        for _ in &items {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(10));
        }

        let g = mw.graph();
        let mut expected = Vec::new();
        for (n, kind) in script.iter().enumerate() {
            for &(target, port) in g.downstream(src) {
                let info = g.info(target).unwrap();
                if info.descriptor.inputs[port].accepts_kind(kind) {
                    let index = sinks.iter().position(|&s| s == target).unwrap();
                    expected.push((index, n as i64));
                }
            }
        }
        // The declared masks agree with `accepts_kind`: names compare as
        // strings, however each side was built.
        let by_mask: Vec<(usize, i64)> = items
            .iter()
            .enumerate()
            .flat_map(|(n, &(k, _))| {
                ports
                    .iter()
                    .enumerate()
                    .filter(move |(_, &(mask, _))| mask == 0 || mask & (1 << k) != 0)
                    .map(move |(index, _)| (index, n as i64))
            })
            .collect();
        prop_assert_eq!(&expected, &by_mask);
        prop_assert_eq!(&*log.lock().unwrap(), &expected);
    }

    /// Every item the source emits arrives at the application exactly
    /// once, in order, regardless of pipeline depth.
    #[test]
    fn item_conservation(depth in 0usize..8, steps in 1usize..50) {
        let (_mw, provider) = run_pipeline(depth, steps);
        let values: Vec<i64> = provider
            .history()
            .iter()
            .filter_map(|i| i.payload.as_i64())
            .collect();
        prop_assert_eq!(values.len(), steps);
        let expected: Vec<i64> = (1..=steps as i64).collect();
        prop_assert_eq!(values, expected);
    }

    /// Channel data trees partition the pipeline's emissions: with one
    /// item per step, each tree contains exactly depth+1 elements
    /// (one per pipeline level) and trees appear once per output,
    /// in output order.
    #[test]
    fn trees_partition_emissions(depth in 0usize..8, steps in 1usize..30) {
        let mut mw = Middleware::new();
        let mut i = 0i64;
        let src = mw.add_component(FnSource::new("src", kinds::RAW_STRING, move |_| {
            i += 1;
            Some(Value::Int(i))
        }));
        let mut prev = src;
        for d in 0..depth {
            let node = mw.add_component(FnProcessor::new(
                format!("stage{d}"),
                vec![kinds::RAW_STRING],
                kinds::RAW_STRING,
                |item| Some(item.payload.clone()),
            ));
            mw.connect(prev, node, 0).unwrap();
            prev = node;
        }
        let app = mw.application_sink();
        mw.connect(prev, app, 0).unwrap();
        let channel = mw.channel_into(app, 0).unwrap();
        mw.attach_channel_feature(
            channel,
            TreeAccounting { trees: 0, elements: 0, roots_in_order: vec![] },
        )
        .unwrap();
        for _ in 0..steps {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(10));
        }
        let (trees, elements, roots) = mw
            .with_channel_feature_mut::<TreeAccounting, _>(channel, "TreeAccounting", |f| {
                (f.trees, f.elements, f.roots_in_order.clone())
            })
            .unwrap();
        prop_assert_eq!(trees, steps);
        prop_assert_eq!(elements, steps * (depth + 1));
        let expected: Vec<i64> = (1..=steps as i64).collect();
        prop_assert_eq!(roots, expected);
    }

    /// Random add/connect/disconnect/remove sequences keep the edge
    /// bookkeeping consistent: downstream and upstream views mirror each
    /// other and never reference missing nodes.
    #[test]
    fn graph_edges_stay_consistent(ops in proptest::collection::vec(0u8..4, 1..60)) {
        let mut mw = Middleware::new();
        let mut nodes: Vec<perpos_core::graph::NodeId> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op % 4 {
                0 => {
                    let id = mw.add_component(FnProcessor::new(
                        format!("n{step}"),
                        vec![kinds::RAW_STRING],
                        kinds::RAW_STRING,
                        |item| Some(item.payload.clone()),
                    ));
                    nodes.push(id);
                }
                1 if nodes.len() >= 2 => {
                    let from = nodes[step % nodes.len()];
                    let to = nodes[(step / 2) % nodes.len()];
                    let _ = mw.connect(from, to, 0); // failures are fine
                }
                2 if !nodes.is_empty() => {
                    let n = nodes[step % nodes.len()];
                    let _ = mw.disconnect(n, 0);
                }
                3 if !nodes.is_empty() => {
                    let idx = step % nodes.len();
                    let n = nodes.swap_remove(idx);
                    let _ = mw.remove_component(n);
                }
                _ => {}
            }
            // Invariant check after every operation.
            let g = mw.graph();
            for id in g.node_ids() {
                for &(target, port) in g.downstream(id) {
                    prop_assert!(g.contains(target), "edge to missing node");
                    let ups = g.upstream(target);
                    prop_assert_eq!(ups.get(port).copied().flatten(), Some(id),
                        "downstream edge has no mirroring upstream slot");
                }
                for (port, producer) in g.upstream(id).iter().enumerate() {
                    if let Some(p) = producer {
                        prop_assert!(g.contains(*p), "upstream from missing node");
                        prop_assert!(
                            g.downstream(*p).contains(&(id, port)),
                            "upstream slot has no mirroring downstream edge"
                        );
                    }
                }
            }
            // The engine keeps stepping whatever the shape.
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(1));
        }
    }

    /// Feature-added attributes survive arbitrary pipeline depth.
    #[test]
    fn attributes_propagate(depth in 0usize..6) {
        let mut mw = Middleware::new();
        let src = mw.add_component(FnSource::new("src", kinds::RAW_STRING, |_| {
            Some(Value::Int(7))
        }));
        mw.attach_feature(
            src,
            perpos_core::feature::TagFeature::new("Tag", "origin", Value::from("src")),
        )
        .unwrap();
        let mut prev = src;
        for d in 0..depth {
            // Pass-through components that preserve the whole item.
            struct Pass;
            impl perpos_core::component::Component for Pass {
                fn descriptor(&self) -> perpos_core::component::ComponentDescriptor {
                    perpos_core::component::ComponentDescriptor::processor(
                        "pass",
                        perpos_core::component::InputSpec::new("in", vec![]),
                        vec![kinds::RAW_STRING],
                    )
                }
                fn on_input(
                    &mut self,
                    _p: usize,
                    item: DataItem,
                    ctx: &mut perpos_core::component::ComponentCtx<'_>,
                ) -> Result<(), CoreError> {
                    ctx.emit(item);
                    Ok(())
                }
            }
            let node = mw.add_component(Pass);
            mw.connect(prev, node, 0).unwrap();
            prev = node;
            let _ = d;
        }
        let app = mw.application_sink();
        mw.connect(prev, app, 0).unwrap();
        let provider = mw.location_provider(Criteria::new()).unwrap();
        mw.step().unwrap();
        let item = provider.last_item().unwrap();
        prop_assert_eq!(item.attr("origin").and_then(Value::as_text), Some("src"));
    }
}
