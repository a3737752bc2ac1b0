//! Sensor fusion for PerPos: the probabilistic position tracking of the
//! paper's §3.2 plus baselines.
//!
//! * [`LikelihoodFeature`] — the Channel Feature of Fig. 5: it collects
//!   HDOP values from the GPS channel's data trees and serves likelihood
//!   estimates to the particle filter,
//! * [`ParticleFilter`] — an SIR (sample–importance–resample) filter
//!   implemented as a *merge* Processing Component, optionally
//!   constrained by a building model ("location models to impose
//!   restrictions on possible movements", §1) — the Fig. 6 system,
//! * [`KalmanFilter`] — a constant-velocity Kalman smoother baseline,
//! * [`transport`] — the segmentation → decision tree → HMM
//!   transportation-mode pipeline the paper's introduction motivates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kalman;
mod likelihood;
mod particle;
pub mod transport;

pub use kalman::KalmanFilter;
pub use likelihood::{LikelihoodFeature, LikelihoodHandle};
pub use particle::ParticleFilter;
