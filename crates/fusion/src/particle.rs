//! The SIR particle filter of the paper's §3.2 / Fig. 6, implemented as a
//! merge Processing Component.

use std::sync::Arc;

use perpos_core::component::{Component, ComponentCtx, ComponentDescriptor, InputSpec, MethodSpec};
use perpos_core::prelude::*;
use perpos_geo::{LocalFrame, Point2, Vec2};
use perpos_model::{Building, WallIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::likelihood::{gaussian_likelihood, LikelihoodHandle};

#[derive(Debug, Clone, Copy)]
struct Particle {
    pos: Point2,
    heading_deg: f64,
    weight: f64,
}

/// The most particles `setParticleCount` accepts. The next update
/// allocates the whole set, and resampling a second one, at 32 bytes a
/// particle; this cap keeps both under 7 MB, so a hostile count fails
/// the call instead of aborting the process on allocation. It is 62
/// times the largest count the Fig. 6 sweep uses (1,600).
const MAX_PARTICLES: usize = 100_000;

/// An SIR (sample–importance–resample) particle filter merging position
/// estimates from several sensors into a refined track.
///
/// Mirrors the paper's integration (Fig. 5):
///
/// * measurement weights come from the Likelihood Channel Feature via a
///   [`LikelihoodHandle`] (`consume` artifact 1: "the Channel Feature
///   called Likelihood is retrieved from the current input port and
///   applied to each particle"), falling back to the measurement's own
///   accuracy estimate when no handle is set;
/// * an optional [`Building`] model constrains particle motion — moves
///   through walls are heavily penalized (§1: "location models to impose
///   restrictions on possible movements in the environment").
///
/// Reflective methods: `particleCount() -> int`,
/// `setParticleCount(n: int)` (10 to 100,000),
/// `effectiveSampleSize() -> float`,
/// `getParticles() -> list[[x, y, weight]]`.
pub struct ParticleFilter {
    name: String,
    frame: LocalFrame,
    walls: Option<WallIndex>,
    likelihood: Option<LikelihoodHandle>,
    particles: Vec<Particle>,
    n_particles: usize,
    motion_speed_mps: f64,
    heading_jitter_deg: f64,
    rng: StdRng,
    last_update: Option<SimTime>,
    initialized: bool,
    inputs: usize,
    updates: u64,
}

impl ParticleFilter {
    /// Creates a filter with `inputs` position input ports and 500
    /// particles, working in `frame`.
    pub fn new(name: impl Into<String>, frame: LocalFrame, inputs: usize) -> Self {
        assert!(inputs >= 1, "a filter needs at least one input");
        ParticleFilter {
            name: name.into(),
            frame,
            walls: None,
            likelihood: None,
            particles: Vec::new(),
            n_particles: 500,
            motion_speed_mps: 1.5,
            heading_jitter_deg: 25.0,
            rng: StdRng::seed_from_u64(0x9f17),
            last_update: None,
            initialized: false,
            inputs,
            updates: 0,
        }
    }

    /// Constrains motion with the walls of one floor of a building model
    /// (builder style). A floor the building lacks constrains nothing.
    pub fn with_building(mut self, building: Arc<Building>, floor: i32) -> Self {
        self.walls = building.floor(floor).map(WallIndex::new);
        self
    }

    /// Uses a Likelihood Channel Feature handle for weighting (builder
    /// style).
    pub fn with_likelihood(mut self, handle: LikelihoodHandle) -> Self {
        self.likelihood = Some(handle);
        self
    }

    /// Sets the particle count (builder style).
    pub fn with_particles(mut self, n: usize) -> Self {
        assert!(n >= 10, "too few particles: {n}");
        self.n_particles = n;
        self
    }

    /// Sets the assumed maximum target speed (builder style).
    pub fn with_motion_speed(mut self, mps: f64) -> Self {
        self.motion_speed_mps = mps;
        self
    }

    /// Seeds the random generator (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    fn normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    fn initialize(&mut self, around: Point2, sigma: f64) {
        self.particles = (0..self.n_particles)
            .map(|_| {
                let dx = self.normal() * sigma;
                let dy = self.normal() * sigma;
                let heading = self.rng.gen_range(0.0..360.0);
                Particle {
                    pos: Point2::new(around.x + dx, around.y + dy),
                    heading_deg: heading,
                    weight: 1.0 / self.n_particles as f64,
                }
            })
            .collect();
        self.initialized = true;
    }

    fn predict(&mut self, dt_s: f64) {
        let dt = dt_s.clamp(0.0, 10.0);
        if dt == 0.0 {
            return;
        }
        for i in 0..self.particles.len() {
            let jitter = self.heading_jitter_deg;
            let (heading, step) = {
                let p = &self.particles[i];
                let heading = p.heading_deg + self.normal() * jitter;
                let speed = self.rng.gen_range(0.0..self.motion_speed_mps);
                (heading, speed * dt)
            };
            let dir = Vec2::from_heading_deg(heading);
            let p = self.particles[i];
            let proposed = p.pos + dir * step;
            let blocked = self
                .walls
                .as_ref()
                .is_some_and(|w| w.path_blocked(p.pos, proposed));
            if blocked {
                // Reject the move: the particle bounces off the wall and
                // picks a new heading. No weight penalty — the particle
                // did not actually cross; impossible hypotheses die out
                // because they cannot follow the target through doors.
                let bounce = self.rng.gen_range(0.0..360.0);
                self.particles[i].heading_deg = bounce;
            } else {
                let particle = &mut self.particles[i];
                particle.heading_deg = heading;
                particle.pos = proposed;
            }
        }
    }

    fn weight_against(&mut self, measurement: Point2, fallback_sigma: f64) {
        // One read of the Likelihood feature per update, so every
        // particle of the update is weighed with the same sigma.
        let sigma = match &self.likelihood {
            Some(h) => h.sigma_m(),
            None => fallback_sigma.max(2.0),
        };
        for p in &mut self.particles {
            p.weight *= gaussian_likelihood(p.pos.distance(&measurement), sigma);
        }
        self.normalize();
    }

    fn normalize(&mut self) {
        let sum: f64 = self.particles.iter().map(|p| p.weight).sum();
        if sum <= 0.0 || !sum.is_finite() {
            let w = 1.0 / self.particles.len() as f64;
            for p in &mut self.particles {
                p.weight = w;
            }
        } else {
            for p in &mut self.particles {
                p.weight /= sum;
            }
        }
    }

    /// Effective sample size (1 / sum of squared weights).
    pub fn effective_sample_size(&self) -> f64 {
        let sq: f64 = self.particles.iter().map(|p| p.weight * p.weight).sum();
        if sq <= 0.0 {
            0.0
        } else {
            1.0 / sq
        }
    }

    fn maybe_resample(&mut self) {
        if self.particles.is_empty() {
            return;
        }
        if self.effective_sample_size() > self.particles.len() as f64 / 2.0 {
            return;
        }
        // Systematic resampling.
        let n = self.particles.len();
        let step = 1.0 / n as f64;
        let mut u: f64 = self.rng.gen_range(0.0..step);
        let mut cumulative = self.particles[0].weight;
        let mut i = 0usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            while u > cumulative && i + 1 < n {
                i += 1;
                cumulative += self.particles[i].weight;
            }
            let mut p = self.particles[i];
            p.weight = step;
            out.push(p);
            u += step;
        }
        self.particles = out;
    }

    /// Weighted-mean estimate and weighted standard deviation, in local
    /// coordinates.
    fn estimate(&self) -> (Point2, f64) {
        let mut x = 0.0;
        let mut y = 0.0;
        for p in &self.particles {
            x += p.pos.x * p.weight;
            y += p.pos.y * p.weight;
        }
        let mean = Point2::new(x, y);
        let var: f64 = self
            .particles
            .iter()
            .map(|p| p.weight * mean.distance(&p.pos).powi(2))
            .sum();
        (mean, var.sqrt().max(0.5))
    }

    /// Current particle positions and weights (for visualization — the
    /// red dots of Fig. 6).
    pub fn particles(&self) -> Vec<(Point2, f64)> {
        self.particles.iter().map(|p| (p.pos, p.weight)).collect()
    }
}

impl std::fmt::Debug for ParticleFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParticleFilter")
            .field("name", &self.name)
            .field("particles", &self.particles.len())
            .finish()
    }
}

impl Component for ParticleFilter {
    fn descriptor(&self) -> ComponentDescriptor {
        let inputs = (0..self.inputs)
            .map(|i| InputSpec::new(format!("in{i}"), vec![kinds::POSITION_WGS84]))
            .collect();
        // The particle population is state with no snapshot hooks yet:
        // a checkpoint restart silently re-initializes the filter, which
        // P018 surfaces for fleet deployments.
        ComponentDescriptor::merge(self.name.clone(), inputs, vec![kinds::POSITION_WGS84])
            .with_effects(EffectSpec::new().stateful(false))
    }

    fn on_input(
        &mut self,
        _port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let position = item.position()?;
        let measurement = self.frame.to_local(position.coord());
        let accuracy = position.accuracy_m().unwrap_or(15.0);

        if !self.initialized {
            self.initialize(measurement, accuracy.max(5.0));
            self.last_update = Some(ctx.now());
        } else {
            let dt = ctx
                .now()
                .since(self.last_update.unwrap_or(ctx.now()))
                .as_secs_f64();
            self.last_update = Some(ctx.now());
            self.predict(dt);
            self.weight_against(measurement, accuracy);
            self.maybe_resample();
        }
        self.updates += 1;

        let (est, sigma) = self.estimate();
        let coord = self.frame.from_local(&est);
        let out = DataItem::new(
            kinds::POSITION_WGS84,
            ctx.now(),
            Value::from(Position::new(coord, Some(sigma))),
        )
        .with_attr("source", Value::from("fusion"));
        ctx.emit(out);
        Ok(())
    }

    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "particleCount" => Ok(Value::Int(self.n_particles as i64)),
            "setParticleCount" => {
                let n = args.first().and_then(Value::as_i64).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.to_string(),
                        reason: "expected one int".into(),
                    }
                })?;
                if !(10..=MAX_PARTICLES as i64).contains(&n) {
                    return Err(CoreError::BadArguments {
                        method: method.to_string(),
                        reason: format!("need 10 to {MAX_PARTICLES} particles, got {n}"),
                    });
                }
                self.n_particles = n as usize;
                self.initialized = false; // reinitialize on next update
                Ok(Value::Null)
            }
            "effectiveSampleSize" => Ok(Value::Float(self.effective_sample_size())),
            "updateCount" => Ok(Value::Int(self.updates as i64)),
            "getParticles" => Ok(Value::List(
                self.particles
                    .iter()
                    .map(|p| {
                        Value::List(vec![
                            Value::Float(p.pos.x),
                            Value::Float(p.pos.y),
                            Value::Float(p.weight),
                        ])
                    })
                    .collect(),
            )),
            other => Err(CoreError::NoSuchMethod {
                target: self.name.clone(),
                method: other.to_string(),
            }),
        }
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::new("particleCount", "() -> int"),
            MethodSpec::new("setParticleCount", "(n: int) -> null"),
            MethodSpec::new("effectiveSampleSize", "() -> float"),
            MethodSpec::new("updateCount", "() -> int"),
            MethodSpec::new("getParticles", "() -> list[[x, y, weight]]"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::component::ComponentCtxProbe;
    use perpos_geo::Wgs84;
    use perpos_model::demo_building;

    fn frame() -> LocalFrame {
        LocalFrame::new(Wgs84::new(56.17, 10.19, 0.0).unwrap())
    }

    fn measurement(frame: &LocalFrame, p: Point2, acc: f64, t: f64) -> DataItem {
        DataItem::new(
            kinds::POSITION_WGS84,
            SimTime::from_secs_f64(t),
            Value::from(Position::new(frame.from_local(&p), Some(acc))),
        )
    }

    #[test]
    fn converges_to_stationary_target() {
        let f = frame();
        let mut pf = ParticleFilter::new("pf", f, 1)
            .with_seed(42)
            .with_particles(300);
        let truth = Point2::new(10.0, 5.0);
        let mut last_est = None;
        for t in 0..20 {
            let item = measurement(&f, truth, 8.0, t as f64);
            let out = ComponentCtxProbe::run_input(&mut pf, item).unwrap();
            assert_eq!(out.len(), 1);
            last_est = Some(f.to_local(out[0].position().unwrap().coord()));
        }
        let err = last_est.unwrap().distance(&truth);
        assert!(err < 3.0, "converged estimate {err} m off");
    }

    #[test]
    fn estimate_beats_raw_noise_on_average() {
        let f = frame();
        let mut pf = ParticleFilter::new("pf", f, 1)
            .with_seed(7)
            .with_particles(400);
        let mut rng = StdRng::seed_from_u64(99);
        let truth = Point2::new(0.0, 0.0);
        let mut raw_err = 0.0;
        let mut pf_err = 0.0;
        let mut n = 0.0;
        for t in 0..40 {
            let noisy = Point2::new(
                truth.x + rng.gen_range(-10.0..10.0),
                truth.y + rng.gen_range(-10.0..10.0),
            );
            let item = measurement(&f, noisy, 6.0, t as f64);
            let out = ComponentCtxProbe::run_input(&mut pf, item).unwrap();
            let est = f.to_local(out[0].position().unwrap().coord());
            if t >= 5 {
                raw_err += noisy.distance(&truth);
                pf_err += est.distance(&truth);
                n += 1.0;
            }
        }
        assert!(
            pf_err / n < raw_err / n,
            "filter ({:.2} m) should beat raw ({:.2} m)",
            pf_err / n,
            raw_err / n
        );
    }

    #[test]
    fn building_constraint_resists_wall_jumps() {
        let f = frame();
        let building = Arc::new(demo_building());
        let mut pf = ParticleFilter::new("pf", f, 1)
            .with_seed(3)
            .with_particles(400)
            .with_building(building, 0);
        // Settle in room R0 (centre 2.5, 2.0).
        for t in 0..10 {
            let item = measurement(&f, Point2::new(2.5, 2.0), 3.0, t as f64);
            ComponentCtxProbe::run_input(&mut pf, item).unwrap();
        }
        // One wild outlier claims we teleported into R3 (17.5, 2.0).
        let item = measurement(&f, Point2::new(17.5, 2.0), 3.0, 10.0);
        let out = ComponentCtxProbe::run_input(&mut pf, item).unwrap();
        let est = f.to_local(out[0].position().unwrap().coord());
        // The constrained filter cannot have moved its mass through four
        // walls in one second.
        assert!(
            est.distance(&Point2::new(2.5, 2.0)) < 8.0,
            "estimate jumped to {est}"
        );
    }

    #[test]
    fn ess_drops_then_resamples() {
        let f = frame();
        let mut pf = ParticleFilter::new("pf", f, 1)
            .with_seed(5)
            .with_particles(200);
        let item = measurement(&f, Point2::new(0.0, 0.0), 10.0, 0.0);
        ComponentCtxProbe::run_input(&mut pf, item).unwrap();
        let full = pf.effective_sample_size();
        assert!((full - 200.0).abs() < 1.0, "uniform init: ESS = N");
        // A tight measurement far away skews weights, triggering
        // resampling which restores ESS.
        let item = measurement(&f, Point2::new(30.0, 0.0), 2.0, 1.0);
        ComponentCtxProbe::run_input(&mut pf, item).unwrap();
        assert!(pf.effective_sample_size() > 50.0, "resampled");
    }

    #[test]
    fn set_particle_count_rejects_counts_above_the_cap() {
        // Never stepped: a rejected count must not reach an allocation.
        let mut pf = ParticleFilter::new("pf", frame(), 1);
        pf.invoke("setParticleCount", &[Value::Int(100)]).unwrap();
        for n in [MAX_PARTICLES as i64 + 1, i64::MAX] {
            let err = pf.invoke("setParticleCount", &[Value::Int(n)]).unwrap_err();
            assert!(matches!(err, CoreError::BadArguments { .. }), "{err}");
            assert_eq!(pf.invoke("particleCount", &[]).unwrap(), Value::Int(100));
        }
        let max = MAX_PARTICLES as i64;
        pf.invoke("setParticleCount", &[Value::Int(max)]).unwrap();
        assert_eq!(pf.invoke("particleCount", &[]).unwrap(), Value::Int(max));
    }

    #[test]
    fn reflective_methods() {
        let f = frame();
        let mut pf = ParticleFilter::new("pf", f, 2);
        assert_eq!(pf.descriptor().inputs.len(), 2);
        assert_eq!(pf.invoke("particleCount", &[]).unwrap(), Value::Int(500));
        pf.invoke("setParticleCount", &[Value::Int(100)]).unwrap();
        assert_eq!(pf.invoke("particleCount", &[]).unwrap(), Value::Int(100));
        assert!(pf.invoke("setParticleCount", &[Value::Int(1)]).is_err());
        let item = measurement(&f, Point2::new(0.0, 0.0), 5.0, 0.0);
        ComponentCtxProbe::run_input(&mut pf, item).unwrap();
        let particles = pf.invoke("getParticles", &[]).unwrap();
        assert_eq!(particles.as_list().unwrap().len(), 100);
        assert_eq!(pf.invoke("updateCount", &[]).unwrap(), Value::Int(1));
        assert_eq!(pf.methods().len(), 5);
    }

    #[test]
    fn non_position_payload_errors() {
        let f = frame();
        let mut pf = ParticleFilter::new("pf", f, 1);
        let item = DataItem::new(kinds::POSITION_WGS84, SimTime::ZERO, Value::Int(1));
        assert!(matches!(
            ComponentCtxProbe::run_input(&mut pf, item),
            Err(CoreError::PayloadMismatch { .. })
        ));
    }
}
