//! In-situ MBBE anomaly detection from syndrome statistics.
//!
//! Section IV of the paper detects cosmic-ray bursts *without touching the
//! qubits*: the anomaly-detection unit keeps, for every syndrome position, a
//! sliding-window count of active detection events.  Under normal operation
//! the count is approximately normal with mean `c_win·µ` and variance
//! `c_win·σ²` (central limit theorem over the window), so a per-position
//! threshold
//!
//! ```text
//! V_th = c_win·µ + sqrt(2·c_win·σ²) · erf⁻¹(1 − α)          (Eq. 3)
//! ```
//!
//! bounds the false-positive probability by `α`.  An MBBE is declared when
//! more than `n_th` positions exceed `V_th` simultaneously; its position is
//! estimated as the median of the offending positions and its onset as the
//! start of the detection window.
//!
//! This crate provides:
//!
//! * [`CalibrationStats`] — the per-node mean/variance `µ, σ²` of the
//!   active-node indicator, either measured or derived from the
//!   phenomenological noise model,
//! * [`DetectorConfig`] / [`AnomalyDetector`] — the streaming detection unit
//!   (the *active node counter* of Fig. 1),
//! * [`DetectedAnomaly`] — a detection report with estimated onset cycle and
//!   region centre,
//! * [`stats`] — the small numerics toolbox (inverse error function, normal
//!   quantiles) needed for the thresholds.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod calibration;
mod detector;
pub mod stats;

pub use calibration::CalibrationStats;
pub use detector::{AnomalyDetector, DetectedAnomaly, DetectorConfig};
