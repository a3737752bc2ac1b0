//! The SIR particle filter of the paper's §3.2 / Fig. 6, implemented as a
//! merge Processing Component.

use std::collections::BTreeMap;
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

/// Bytes per particle in a state snapshot: position x and y, heading and
/// weight, each an `f64` in little-endian order.
const PARTICLE_BYTES: usize = 32;

impl Particle {
    fn to_bytes(self) -> [u8; PARTICLE_BYTES] {
        let mut out = [0; PARTICLE_BYTES];
        let fields = [self.pos.x, self.pos.y, self.heading_deg, self.weight];
        for (chunk, field) in out.chunks_exact_mut(8).zip(fields) {
            chunk.copy_from_slice(&field.to_le_bytes());
        }
        out
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        let field = |i: usize| {
            let mut word = [0; 8];
            word.copy_from_slice(&bytes[8 * i..8 * i + 8]);
            f64::from_le_bytes(word)
        };
        Particle {
            pos: Point2::new(field(0), field(1)),
            heading_deg: field(2),
            weight: field(3),
        }
    }
}

/// Sums over the normalized weights, each accumulated in particle order.
#[derive(Debug, Clone, Copy)]
struct Moments {
    /// Σ w².
    squares: f64,
    /// Σ x·w and Σ y·w: the weighted mean.
    x: f64,
    y: f64,
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
/// The filter is snapshot-capable: [`Component::snapshot_state`] captures
/// the particles, the random generator's position, the last update time
/// and the counters, so a restored filter continues the same track.
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
    /// The previous particle set, kept as the next resample's buffer.
    spare: Vec<Particle>,
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
            spare: Vec::new(),
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

    /// Weighs every particle against `measurement` and normalizes.
    fn weight_against(&mut self, measurement: Point2, fallback_sigma: f64) -> Moments {
        // One read of the Likelihood feature per update, so every
        // particle of the update is weighed with the same sigma.
        let sigma = match &self.likelihood {
            Some(h) => h.sigma_m(),
            None => fallback_sigma.max(2.0),
        };
        let mut sum = 0.0;
        for p in &mut self.particles {
            p.weight *= gaussian_likelihood(p.pos.distance(&measurement), sigma);
            sum += p.weight;
        }
        self.normalize(sum)
    }

    /// Divides every weight by `sum`, their total (or, when that is not
    /// positive and finite, makes the weights uniform), and returns the
    /// sums the ESS and the estimate need, from the same pass.
    fn normalize(&mut self, sum: f64) -> Moments {
        let uniform = !(sum > 0.0 && sum.is_finite());
        let w = 1.0 / self.particles.len() as f64;
        let mut m = Moments {
            squares: 0.0,
            x: 0.0,
            y: 0.0,
        };
        for p in &mut self.particles {
            if uniform {
                p.weight = w;
            } else {
                p.weight /= sum;
            }
            m.squares += p.weight * p.weight;
            m.x += p.pos.x * p.weight;
            m.y += p.pos.y * p.weight;
        }
        m
    }

    /// Effective sample size (1 / sum of squared weights).
    pub fn effective_sample_size(&self) -> f64 {
        ess(self.particles.iter().map(|p| p.weight * p.weight).sum())
    }

    /// Resamples when the effective sample size, from the normalized
    /// weights' `squares`, is at most half the particle count; returns
    /// whether it did.
    fn maybe_resample(&mut self, squares: f64) -> bool {
        if self.particles.is_empty() || ess(squares) > self.particles.len() as f64 / 2.0 {
            return false;
        }
        // Systematic resampling.
        let n = self.particles.len();
        let step = 1.0 / n as f64;
        let mut u: f64 = self.rng.gen_range(0.0..step);
        let mut cumulative = self.particles[0].weight;
        let mut i = 0usize;
        let mut out = std::mem::take(&mut self.spare);
        out.clear();
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
        self.spare = std::mem::replace(&mut self.particles, out);
        true
    }

    /// Weighted-mean estimate and weighted standard deviation, in local
    /// coordinates. `moments` are the current weights' sums when the
    /// caller has them.
    fn estimate(&self, moments: Option<Moments>) -> (Point2, f64) {
        let (x, y) = match moments {
            Some(m) => (m.x, m.y),
            None => self.particles.iter().fold((0.0, 0.0), |(x, y), p| {
                (x + p.pos.x * p.weight, y + p.pos.y * p.weight)
            }),
        };
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

/// The effective sample size of weights whose squares sum to `squares`.
fn ess(squares: f64) -> f64 {
    if squares <= 0.0 {
        0.0
    } else {
        1.0 / squares
    }
}

/// A decoded [`ParticleFilter::snapshot_state`] value.
struct Restored {
    particles: Vec<Particle>,
    rng: [u64; 4],
    last_update: Option<SimTime>,
    initialized: bool,
    n_particles: usize,
    updates: u64,
}

impl Restored {
    fn decode(state: &Value) -> Option<Self> {
        let Value::Map(map) = state else {
            return None;
        };
        let int = |key: &str| match map.get(key) {
            Some(Value::Int(n)) => Some(*n as u64),
            _ => None,
        };
        let Some(Value::Bytes(bytes)) = map.get("particles") else {
            return None;
        };
        let Some(Value::Bool(initialized)) = map.get("initialized") else {
            return None;
        };
        let Some(Value::List(words)) = map.get("rng") else {
            return None;
        };
        let mut rng = [0; 4];
        if words.len() != rng.len() {
            return None;
        }
        for (word, value) in rng.iter_mut().zip(words) {
            let Value::Int(w) = value else {
                return None;
            };
            *word = *w as u64;
        }
        let last_update = match map.get("last_update_us") {
            Some(Value::Null) => None,
            Some(Value::Int(us)) => Some(SimTime::from_micros(*us as u64)),
            _ => return None,
        };
        let n_particles = usize::try_from(int("n_particles")?).ok()?;
        let count = bytes.len() / PARTICLE_BYTES;
        if bytes.len() % PARTICLE_BYTES != 0
            || !(10..=MAX_PARTICLES).contains(&n_particles)
            || count > MAX_PARTICLES
            || (*initialized && count != n_particles)
        {
            return None;
        }
        Some(Restored {
            particles: bytes
                .chunks_exact(PARTICLE_BYTES)
                .map(Particle::from_bytes)
                .collect(),
            rng,
            last_update,
            initialized: *initialized,
            n_particles,
            updates: int("updates")?,
        })
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
        ComponentDescriptor::merge(self.name.clone(), inputs, vec![kinds::POSITION_WGS84])
            .with_effects(EffectSpec::new().stateful(true))
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

        let moments = if !self.initialized {
            self.initialize(measurement, accuracy.max(5.0));
            self.last_update = Some(ctx.now());
            None
        } else {
            let dt = ctx
                .now()
                .since(self.last_update.unwrap_or(ctx.now()))
                .as_secs_f64();
            self.last_update = Some(ctx.now());
            self.predict(dt);
            let moments = self.weight_against(measurement, accuracy);
            (!self.maybe_resample(moments.squares)).then_some(moments)
        };
        self.updates += 1;

        let (est, sigma) = self.estimate(moments);
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

    /// Captures the particles (positions, headings and weights as one
    /// `Value::Bytes` of 32 bytes a particle), the random generator's
    /// state words, the last update time, whether the filter is
    /// initialized, the configured particle count and the update count.
    fn snapshot_state(&self) -> Option<Value> {
        let mut particles = Vec::with_capacity(self.particles.len() * PARTICLE_BYTES);
        for p in &self.particles {
            particles.extend_from_slice(&p.to_bytes());
        }
        let int = |n: u64| Value::Int(n as i64);
        let mut map = BTreeMap::new();
        map.insert("particles".to_string(), Value::Bytes(particles));
        map.insert(
            "rng".to_string(),
            Value::List(self.rng.state().iter().map(|&w| int(w)).collect()),
        );
        map.insert(
            "last_update_us".to_string(),
            self.last_update.map_or(Value::Null, |t| int(t.as_micros())),
        );
        map.insert("initialized".to_string(), Value::Bool(self.initialized));
        map.insert("n_particles".to_string(), int(self.n_particles as u64));
        map.insert("updates".to_string(), int(self.updates));
        Some(Value::Map(map))
    }

    /// Applies a state from [`ParticleFilter::snapshot_state`] as a whole.
    /// A state it cannot decode (not a map, a missing or mistyped field,
    /// particle bytes not a multiple of 32, a particle count outside 10 to
    /// 100,000, or an initialized population whose size is not that
    /// count) applies nothing but leaves the filter uninitialized: the
    /// next measurement re-initializes it, as it would in a filter
    /// restarted without a checkpoint. It never panics.
    fn restore_state(&mut self, state: &Value) {
        match Restored::decode(state) {
            Some(r) => {
                self.particles = r.particles;
                self.rng = StdRng::from_state(r.rng);
                self.last_update = r.last_update;
                self.initialized = r.initialized;
                self.n_particles = r.n_particles;
                self.updates = r.updates;
            }
            None => {
                self.particles.clear();
                self.initialized = false;
                self.last_update = None;
            }
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

    /// Steps `pf` over the measurements at the seconds in `steps`
    /// on the demo floor; returns its fused outputs.
    fn stepped(pf: &mut ParticleFilter, f: &LocalFrame, steps: std::ops::Range<u32>) -> Vec<Value> {
        steps
            .map(|t| {
                let p = Point2::new(2.0 + 0.4 * f64::from(t), 5.0 + (f64::from(t) * 0.7).sin());
                let out = ComponentCtxProbe::run_input(pf, measurement(f, p, 4.0, f64::from(t)));
                (*out.unwrap()[0].payload).clone()
            })
            .collect()
    }

    fn walled(f: LocalFrame) -> ParticleFilter {
        ParticleFilter::new("pf", f, 1)
            .with_seed(31)
            .with_particles(200)
            .with_building(Arc::new(demo_building()), 0)
    }

    #[test]
    fn restored_state_continues_the_same_track() {
        let f = frame();
        let mut reference = walled(f);
        stepped(&mut reference, &f, 0..10);
        let state = reference.snapshot_state().unwrap();
        let expected = stepped(&mut reference, &f, 10..30);

        let mut restored = walled(f).with_seed(99);
        restored.restore_state(&state);
        assert_eq!(restored.invoke("updateCount", &[]).unwrap(), Value::Int(10));
        assert_eq!(stepped(&mut restored, &f, 10..30), expected);
        assert!(restored.descriptor().effects.stateful == Some(true));
        assert!(restored.descriptor().effects.snapshot_capable == Some(true));
    }

    #[test]
    fn undecodable_state_leaves_the_filter_uninitialized() {
        let f = frame();
        let mut pf = walled(f);
        stepped(&mut pf, &f, 0..5);
        let Some(Value::Map(good)) = pf.snapshot_state() else {
            panic!("a map state");
        };
        let with = |key: &str, value: Value| {
            let mut map = good.clone();
            map.insert(key.to_string(), value);
            Value::Map(map)
        };
        let Some(Value::Bytes(bytes)) = good.get("particles") else {
            panic!("particle bytes");
        };
        let without_rng = {
            let mut map = good.clone();
            map.remove("rng");
            Value::Map(map)
        };
        for bad in [
            Value::Null,
            Value::Int(3),
            without_rng,
            with("particles", Value::Bytes(bytes[..bytes.len() - 1].to_vec())),
            with(
                "particles",
                Value::Bytes(bytes[..PARTICLE_BYTES * 7].to_vec()),
            ),
            with("particles", Value::List(Vec::new())),
            with("rng", Value::List(vec![Value::Int(1); 3])),
            with("n_particles", Value::Int(5)),
            with("n_particles", Value::Int(-1)),
            with("last_update_us", Value::Float(1.0)),
            with("initialized", Value::Int(1)),
        ] {
            let mut target = walled(f);
            stepped(&mut target, &f, 0..3);
            target.restore_state(&bad);
            assert!(
                !target.initialized && target.particles.is_empty(),
                "{bad:?}"
            );
            // The next measurement re-initializes it.
            stepped(&mut target, &f, 3..5);
            assert_eq!(pf.particles.len(), target.particles.len());
        }
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
