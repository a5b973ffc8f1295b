//! Noise models for the Q3DE reproduction.
//!
//! The paper evaluates the architecture under a *phenomenological* stochastic
//! Pauli noise model (Sec. VII-A):
//!
//! * at the beginning of every code cycle each data **and** ancilla qubit
//!   suffers a Pauli `X`, `Y` or `Z` error, each with probability `p/2`
//!   (normal qubits) or `p_ano/2` (anomalous qubits);
//! * cosmic-ray strikes create *anomalous regions* — square patches of
//!   qubits whose error rate is temporarily raised to `p_ano` for
//!   `τ_ano ≈ 25 ms`;
//! * strikes arrive as a Poisson process with frequency `f_ano`
//!   (≈ 0.1–1 Hz for a logical-qubit-sized patch, McEwen et al.).
//!
//! This crate provides:
//!
//! * [`PhysicalParams`] / [`McEwenParams`] — the experimentally observed
//!   constants the paper adopts,
//! * [`AnomalousRegion`] — a spatially and temporally bounded high-error
//!   region,
//! * [`NoiseModel`] — per-qubit, per-cycle error-rate lookup and Pauli
//!   sampling,
//! * [`CosmicRayProcess`] — the stochastic arrival process generating
//!   anomalous regions on a qubit plane,
//! * [`ChipStrike`] / [`ChipCosmicRayProcess`] — strikes placed in *chip*
//!   coordinates that fan out into per-patch [`AnomalousRegion`]s (including
//!   bursts straddling patch boundaries).
//!
//! # Example
//!
//! ```
//! use q3de_noise::{AnomalousRegion, NoiseModel};
//! use q3de_lattice::Coord;
//!
//! let mut model = NoiseModel::uniform(1e-3);
//! model.add_anomaly(AnomalousRegion::new(Coord::new(4, 4), 2, 10, 100, 0.5));
//! // Inside the anomalous window and region the rate is p_ano.
//! assert_eq!(model.rate_at(Coord::new(5, 5), 50), 0.5);
//! // Outside the window the rate falls back to the base rate.
//! assert_eq!(model.rate_at(Coord::new(5, 5), 200), 1e-3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod chip;
mod cosmic_ray;
mod model;
mod params;
mod region;

pub use chip::{ChipCosmicRayProcess, ChipStrike, ChipStrikeEvent};
pub use cosmic_ray::{CosmicRayEvent, CosmicRayProcess};
pub use model::NoiseModel;
pub use params::{McEwenParams, PhysicalParams};
pub use region::AnomalousRegion;
