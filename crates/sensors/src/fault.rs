//! Deterministic fault injection for supervision experiments.
//!
//! The paper argues that a translucent middleware must keep the
//! positioning process observable and controllable even when individual
//! components misbehave. [`FaultInjector`] is a Component Feature that
//! manufactures that misbehaviour on demand: attached to any producing
//! node, it perturbs the host's output stream with a seeded RNG so that
//! every run of an experiment sees the identical fault schedule.
//!
//! Two fault classes are supported, each with an independent rate:
//!
//! * **errors** — the item is replaced by a `ComponentFailure`, which the
//!   engine routes through the host node's fault policy,
//! * **panics** — the feature panics; under supervision the engine
//!   contains the unwind and treats it as a fault.
//!
//! Rates are cumulative slices of a single uniform roll per item, so the
//! draw sequence (and therefore the schedule) is independent of which
//! classes are enabled.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;
use perpos_core::component::MethodSpec;
use perpos_core::feature::{ComponentFeature, FeatureAction, FeatureDescriptor, FeatureHost};
use perpos_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts of what the injector has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Items replaced by a component error.
    pub errors: u64,
    /// Panics raised.
    pub panics: u64,
    /// Items passed through untouched.
    pub passed: u64,
}

impl FaultCounts {
    /// Total faults injected (everything except `passed`).
    pub fn injected(&self) -> u64 {
        self.errors + self.panics
    }
}

/// A Component Feature that injects deterministic, seeded faults into
/// its host's output stream.
///
/// ```
/// use perpos_sensors::FaultInjector;
///
/// let injector = FaultInjector::with_seed(7)
///     .with_error_rate(0.10)
///     .with_panic_rate(0.05);
/// let handle = injector.handle();
/// // ... attach to a source, run the scenario ...
/// assert_eq!(handle.counts().injected(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Arc<Mutex<StdRng>>,
    counts: Arc<Mutex<FaultCounts>>,
    error_rate: f64,
    panic_rate: f64,
}

impl FaultInjector {
    /// The feature name.
    pub const NAME: &'static str = "FaultInjector";

    /// Creates an injector with the default seed and all rates zero.
    pub fn new() -> Self {
        FaultInjector::with_seed(0xfa17)
    }

    /// Creates an injector seeded with `seed`; all rates start at zero.
    pub fn with_seed(seed: u64) -> Self {
        FaultInjector {
            rng: Arc::new(Mutex::new(StdRng::seed_from_u64(seed))),
            counts: Arc::new(Mutex::new(FaultCounts::default())),
            error_rate: 0.0,
            panic_rate: 0.0,
        }
    }

    /// Fraction of items replaced by a component error.
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fraction of items on which the feature panics.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// A handle sharing this injector's counters; survives attachment.
    pub fn handle(&self) -> FaultInjector {
        self.clone()
    }

    /// The counts so far.
    pub fn counts(&self) -> FaultCounts {
        *self.counts.lock()
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::new()
    }
}

impl ComponentFeature for FaultInjector {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME)
            .method(MethodSpec::new("injectedCount", "() -> int"))
            .method(MethodSpec::new("passedCount", "() -> int"))
    }

    fn on_produce(
        &mut self,
        item: DataItem,
        _host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        // One roll per item; the rates carve up [0, 1) in a fixed order
        // so enabling a class never shifts the others' schedule.
        let roll: f64 = self.rng.lock().gen();
        if roll < self.panic_rate {
            self.counts.lock().panics += 1;
            panic!("injected panic ({})", Self::NAME);
        }
        if roll < self.panic_rate + self.error_rate {
            self.counts.lock().errors += 1;
            return Err(CoreError::ComponentFailure {
                component: Self::NAME.into(),
                reason: "injected fault".into(),
            });
        }
        self.counts.lock().passed += 1;
        Ok(FeatureAction::Continue(item))
    }

    fn invoke(
        &mut self,
        method: &str,
        _args: &[Value],
        _host: &mut FeatureHost<'_>,
    ) -> Result<Value, CoreError> {
        match method {
            "injectedCount" => Ok(Value::Int(self.counts().injected() as i64)),
            "passedCount" => Ok(Value::Int(self.counts().passed as i64)),
            other => Err(CoreError::NoSuchMethod {
                target: Self::NAME.into(),
                method: other.into(),
            }),
        }
    }

    fn snapshot_state(&self) -> Option<Value> {
        let mut map = std::collections::BTreeMap::new();
        map.insert(
            "rng".to_string(),
            Value::List(
                self.rng
                    .lock()
                    .state()
                    .iter()
                    .map(|w| Value::Int(*w as i64))
                    .collect(),
            ),
        );
        let c = self.counts();
        map.insert(
            "counts".to_string(),
            Value::List(
                [c.errors, c.panics, c.passed]
                    .iter()
                    .map(|n| Value::Int(*n as i64))
                    .collect(),
            ),
        );
        Some(Value::Map(map))
    }

    fn restore_state(&mut self, state: &Value) {
        let Value::Map(map) = state else { return };
        if let Some(Value::List(words)) = map.get("rng") {
            if words.len() == 4 {
                let mut s = [0u64; 4];
                for (i, w) in words.iter().enumerate() {
                    s[i] = w.as_i64().unwrap_or(0) as u64;
                }
                *self.rng.lock() = StdRng::from_state(s);
            }
        }
        if let Some(Value::List(c)) = map.get("counts") {
            let n = |i: usize| c.get(i).and_then(|v| v.as_i64()).unwrap_or(0) as u64;
            *self.counts.lock() = FaultCounts {
                errors: n(0),
                panics: n(1),
                passed: n(2),
            };
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::component::FnSource;

    fn run(injector: FaultInjector, steps: u32) -> (Middleware, NodeId, LocationProvider) {
        let mut mw = Middleware::new();
        let mut n = 0;
        let src = mw.add_component(FnSource::new("s", kinds::RAW_STRING, move |_| {
            n += 1;
            Some(Value::Int(n))
        }));
        mw.attach_feature(src, injector).unwrap();
        mw.set_fault_policy(src, FaultPolicy::DropItem).unwrap();
        let app = mw.application_sink();
        mw.connect(src, app, 0).unwrap();
        let p = mw.location_provider(Criteria::new()).unwrap();
        for _ in 0..steps {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(100));
        }
        (mw, src, p)
    }

    #[test]
    fn zero_rates_pass_everything() {
        let injector = FaultInjector::with_seed(1);
        let handle = injector.handle();
        let (_mw, _src, p) = run(injector, 50);
        assert_eq!(p.delivered_count(), 50);
        assert_eq!(handle.counts().injected(), 0);
        assert_eq!(handle.counts().passed, 50);
    }

    #[test]
    fn error_rate_drops_items_under_supervision() {
        let injector = FaultInjector::with_seed(42).with_error_rate(0.3);
        let handle = injector.handle();
        let (mw, src, p) = run(injector, 100);
        let c = handle.counts();
        assert!(c.errors > 10 && c.errors < 60, "errors = {}", c.errors);
        assert_eq!(p.delivered_count(), c.passed);
        // The host's health reflects every injected error as a fault.
        assert_eq!(mw.node_health(src).faults, c.errors);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = FaultInjector::with_seed(7).with_error_rate(0.2);
        let ha = a.handle();
        let b = FaultInjector::with_seed(7).with_error_rate(0.2);
        let hb = b.handle();
        run(a, 80);
        run(b, 80);
        assert_eq!(ha.counts(), hb.counts());
        let c = FaultInjector::with_seed(8).with_error_rate(0.2);
        let hc = c.handle();
        run(c, 80);
        assert_ne!(ha.counts(), hc.counts());
    }

    #[test]
    fn panic_rate_is_contained_by_supervision() {
        let injector = FaultInjector::with_seed(11).with_panic_rate(0.2);
        let handle = injector.handle();
        let (mw, src, _p) = run(injector, 60);
        let c = handle.counts();
        assert!(c.panics > 3, "panics = {}", c.panics);
        let h = mw.node_health(src);
        assert_eq!(h.faults, c.panics);
        assert!(h.last_error.as_deref().unwrap_or("").contains("panic"));
    }

    /// A counting source whose counter participates in checkpoints —
    /// unlike `FnSource`, whose closure state is opaque to snapshots.
    struct CountingSource(i64);
    impl perpos_core::component::Component for CountingSource {
        fn descriptor(&self) -> perpos_core::component::ComponentDescriptor {
            perpos_core::component::ComponentDescriptor::source("counter", vec![kinds::RAW_STRING])
        }
        fn on_input(
            &mut self,
            _p: usize,
            _i: DataItem,
            _c: &mut perpos_core::component::ComponentCtx<'_>,
        ) -> Result<(), CoreError> {
            Ok(())
        }
        fn on_tick(
            &mut self,
            ctx: &mut perpos_core::component::ComponentCtx<'_>,
        ) -> Result<(), CoreError> {
            self.0 += 1;
            ctx.emit_value(kinds::RAW_STRING, Value::Int(self.0));
            Ok(())
        }
        fn snapshot_state(&self) -> Option<Value> {
            Some(Value::Int(self.0))
        }
        fn restore_state(&mut self, state: &Value) {
            if let Some(v) = state.as_i64() {
                self.0 = v;
            }
        }
    }

    #[test]
    fn injector_state_survives_snapshot_restore() {
        // Two identical pipelines with seeded injectors; snapshot one
        // mid-run, restore into a freshly built copy, and both must
        // produce the identical remaining schedule.
        let build = || {
            let injector = FaultInjector::with_seed(29)
                .with_error_rate(0.2)
                .with_panic_rate(0.2);
            let handle = injector.handle();
            let mut mw = Middleware::new();
            let src = mw.add_boxed_component(Box::new(CountingSource(0)));
            mw.attach_feature(src, injector).unwrap();
            mw.set_fault_policy(src, FaultPolicy::DropItem).unwrap();
            let app = mw.application_sink();
            mw.connect(src, app, 0).unwrap();
            (mw, handle)
        };
        let step = |mw: &mut Middleware, n: u32| {
            for _ in 0..n {
                mw.step().unwrap();
                mw.advance_clock(SimDuration::from_millis(100));
            }
        };
        let (mut reference, ref_handle) = build();
        let ap = reference.location_provider(Criteria::new()).unwrap();
        step(&mut reference, 60);

        let (mut original, _) = build();
        step(&mut original, 25);
        let snap = original.snapshot();
        let (mut restored, restored_handle) = build();
        restored.restore(&snap).unwrap();
        let bp = restored.location_provider(Criteria::new()).unwrap();
        step(&mut restored, 35);

        assert_eq!(ref_handle.counts(), restored_handle.counts());
        // The positioning layer is an application-side observer and is
        // not checkpointed: the restored sink only saw the post-restore
        // deliveries, which must match the uninterrupted run's tail.
        let ah = ap.history();
        let bh = bp.history();
        assert!(bh.len() > 1, "post-restore steps delivered");
        assert_eq!(ah[ah.len() - bh.len()..], bh[..], "streams byte-identical");
    }

    #[test]
    fn counters_are_reflective() {
        let injector = FaultInjector::with_seed(5).with_error_rate(0.5);
        let mut mw = Middleware::new();
        let mut n = 0;
        let src = mw.add_component(FnSource::new("s", kinds::RAW_STRING, move |_| {
            n += 1;
            Some(Value::Int(n))
        }));
        mw.attach_feature(src, injector).unwrap();
        mw.set_fault_policy(src, FaultPolicy::DropItem).unwrap();
        let app = mw.application_sink();
        mw.connect(src, app, 0).unwrap();
        for _ in 0..40 {
            mw.step().unwrap();
            mw.advance_clock(SimDuration::from_millis(100));
        }
        let injected = mw
            .invoke_feature(src, FaultInjector::NAME, "injectedCount", &[])
            .unwrap();
        let passed = mw
            .invoke_feature(src, FaultInjector::NAME, "passedCount", &[])
            .unwrap();
        match (injected, passed) {
            (Value::Int(i), Value::Int(p)) => assert_eq!(i + p, 40),
            other => panic!("unexpected reflection result {other:?}"),
        }
    }
}
