//! # Q3DE — an MBBE-tolerant fault-tolerant quantum computing architecture
//!
//! This crate is the public facade of a full reproduction of
//! *"Q3DE: A fault-tolerant quantum computer architecture for multi-bit
//! burst errors by cosmic rays"* (Suzuki et al., MICRO 2022).  Q3DE extends
//! a standard surface-code FTQC architecture with three cooperating
//! mechanisms that mitigate the Multi-Bit Burst Errors (MBBEs) cosmic rays
//! induce on superconducting qubit chips:
//!
//! 1. **in-situ anomaly DEtection** — MBBEs are localised in space and time
//!    purely from the statistics of active syndrome nodes
//!    ([`anomaly::AnomalyDetector`]),
//! 2. **dynamic code DEformation** — the affected logical qubit is
//!    temporarily re-encoded at a larger code distance via the `op_expand`
//!    instruction ([`lattice::deformation`], [`control`]),
//! 3. **optimized error DEcoding** — the decoding pipeline is rolled back to
//!    the estimated MBBE onset and re-executed with anomaly-aware edge
//!    weights ([`decoder::ReExecutingDecoder`]).
//!
//! The substrate crates are re-exported as modules so a single dependency on
//! `q3de` gives access to the whole stack:
//!
//! | module | contents |
//! |---|---|
//! | [`lattice`] | planar surface-code geometry, matching graphs, code deformation |
//! | [`noise`] | stochastic Pauli noise, anomalous regions, cosmic-ray process |
//! | [`matching`] | exact (alternating-tree), greedy and union-find matching backends |
//! | [`decoder`] | space-time decoders, anomaly-aware weights, re-execution |
//! | [`anomaly`] | the statistical anomaly-detection unit |
//! | [`sim`] | Monte-Carlo memory and detection experiments |
//! | [`control`] | ISA, qubit plane, scheduler, Pauli frame, queues |
//! | [`scaling`] | Fig. 9 / Table III / Table IV analytic models |
//!
//! [`Q3dePipeline`] wires the pieces together for a single logical qubit:
//! it watches the syndrome stream, detects bursts, requests code expansion
//! and re-executes the decoder, mirroring the operational flow of Fig. 4 of
//! the paper.  [`SystemPipeline`] scales that to a chip: one pipeline per
//! patch of a [`lattice::ChipLayout`], with strikes placed in chip
//! coordinates (they may straddle patches) and every `op_expand` arbitrated
//! against a shared spare-qubit pool
//! ([`control::ExpansionArbiter`]).
//! [`service::DecodeServer`] turns the decoding stack into a long-running
//! shard: many chips (tenants) multiplexed over a fixed worker set with
//! bounded queues, round-robin fairness, a shared warm
//! [`decoder::ContextPool`] and per-tenant p50/p99/p999 latency reporting.
//!
//! ## Quickstart
//!
//! ```
//! use q3de::pipeline::{PipelineConfig, Q3dePipeline};
//! use q3de::sim::{AnomalyInjection, DecodingStrategy, MemoryExperiment, MemoryExperimentConfig};
//! use rand::SeedableRng;
//!
//! // Estimate the logical error rate of a distance-5 memory under a burst,
//! // with and without the Q3DE response.
//! let config = MemoryExperimentConfig::new(5, 5e-3)
//!     .with_anomaly(AnomalyInjection::centered(2, 0.5));
//! let experiment = MemoryExperiment::new(config)?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let blind = experiment.estimate(50, DecodingStrategy::Blind, &mut rng);
//! let aware = experiment.estimate(50, DecodingStrategy::AnomalyAware, &mut rng);
//! assert!(aware.logical_error_rate() <= blind.logical_error_rate() + 0.2);
//!
//! // The pipeline exposes the full detect → expand → re-decode flow.
//! let pipeline = Q3dePipeline::new(PipelineConfig::new(5, 5e-3))?;
//! assert_eq!(pipeline.config().distance, 5);
//! # Ok::<(), q3de::lattice::LatticeError>(())
//! ```

#![deny(missing_docs)]

pub mod pipeline;
pub mod service;
pub mod system;

pub use pipeline::{EpisodeReport, PipelineConfig, Q3dePipeline};
pub use service::{
    DecodeRequest, DecodeServer, LatencyHistogram, ServiceConfig, ServiceReport, SubmitError,
    TenantId, TenantReport, WindowTicket,
};
pub use system::{ExpansionOutcome, SystemConfig, SystemPipeline, SystemReport};

/// The statistical anomaly-detection unit.
pub use q3de_anomaly as anomaly;
/// The FTQC control unit: ISA, qubit plane, scheduler, queues, Pauli frame.
pub use q3de_control as control;
/// Space-time decoders with anomaly-aware weighting and re-execution.
pub use q3de_decoder as decoder;
/// Planar surface-code geometry, matching graphs and code deformation.
pub use q3de_lattice as lattice;
/// Matching backends (exact alternating-tree, greedy, union-find).
pub use q3de_matching as matching;
/// Stochastic Pauli noise, anomalous regions and the cosmic-ray process.
pub use q3de_noise as noise;
/// Scalability, memory-overhead and decoder-hardware models.
pub use q3de_scaling as scaling;
/// Monte-Carlo memory and detection experiments.
pub use q3de_sim as sim;
