//! Monte-Carlo quantum-memory simulation with MBBE injection.
//!
//! This crate reproduces the numerical methodology of Sec. VII-A of the
//! paper:
//!
//! * stochastic Pauli noise is injected at the beginning of every code cycle
//!   on data **and** ancilla qubits (`X`, `Y`, `Z` each with probability
//!   `p/2`, or `p_ano/2` inside an anomalous region),
//! * logical error rates are measured as the logical Pauli-`X` failure
//!   probability of a `d`-cycle idling (memory) experiment followed by a
//!   perfect readout round,
//! * the decoder treats the `X` and `Z` sectors independently,
//! * estimates are Monte-Carlo averages over many shots.
//!
//! The three curves of Figs. 3 and 8 correspond to the three
//! [`DecodingStrategy`] variants: `MbbeFree` (no anomaly injected),
//! `Blind` (anomaly injected, decoder unaware — "without rollback") and
//! `AnomalyAware` (anomaly injected and known to the decoder — "with
//! rollback").
//!
//! [`ChipMemoryExperiment`] lifts the memory experiment to a chip of `N`
//! patches: strikes are placed in chip coordinates (they may straddle patch
//! boundaries), each patch runs on its own reproducible RNG stream, and a
//! chip shot fails when any patch fails — the system failure criterion
//! behind the `fig_system` sweep.
//!
//! # Example
//!
//! ```
//! use q3de_sim::{MemoryExperiment, MemoryExperimentConfig, DecodingStrategy};
//! use rand::SeedableRng;
//!
//! let config = MemoryExperimentConfig::new(3, 1e-2);
//! let experiment = MemoryExperiment::new(config)?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let estimate = experiment.estimate(200, DecodingStrategy::MbbeFree, &mut rng);
//! assert!(estimate.logical_error_rate() < 0.5);
//! # Ok::<(), q3de_lattice::LatticeError>(())
//! ```

#![deny(missing_docs)]

pub mod engine;

mod chip;
mod detection_experiment;
mod memory;
mod packed;
mod stream;

pub use chip::{
    chip_patch_seed, ChipMemoryExperiment, ChipMemoryExperimentConfig, ChipStrikePolicy,
};
pub use detection_experiment::{DetectionExperiment, DetectionExperimentConfig, DetectionTrial};
pub use engine::{
    write_atomic, EngineError, PackedShotKernel, PointReport, ShotKernel, SweepConfig, SweepPoint,
    SweepReport, SweepRunner,
};
pub use memory::{
    shot_stream_seed, AnomalyInjection, DecodingStrategy, EstimateResult, MemoryExperiment,
    MemoryExperimentConfig, ShotOutcome,
};
pub use packed::PackedShotBatch;
pub use stream::{StreamWindow, WindowSource};
