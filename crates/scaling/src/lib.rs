//! Scalability and overhead models (Sec. VIII of the paper).
//!
//! * [`qubit_density`] — the Fig. 9 model: the chip area and qubit density
//!   (relative to Sycamore) needed to reach a target logical error rate,
//!   with and without Q3DE, as anomaly size / frequency / duration vary.
//! * [`memory_overhead`] — the Table III formulas for the extra buffer
//!   memory Q3DE adds to the decoding pipeline.
//! * [`decoder_hw`] — the Table IV resource/throughput model of the
//!   greedy-matching decoder unit (our substitution for the paper's Vitis
//!   HLS synthesis; see DESIGN.md).
//! * [`effective`] — the Eq. (1) effective logical error rate and the
//!   Eq. (4) effective code-distance reduction.
//! * [`stats`] — Wilson-score confidence-interval helpers used by the
//!   adaptive Monte-Carlo experiment engine.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod decoder_hw;
pub mod effective;
pub mod memory_overhead;
pub mod qubit_density;
pub mod stats;

pub use decoder_hw::{DecoderHardwareModel, DecoderResources, DecoderVariant};
pub use effective::{effective_distance_reduction, effective_logical_error_rate};
pub use memory_overhead::MemoryOverheadModel;
pub use qubit_density::{ScalabilityConfig, ScalabilityModel, ScalabilityPoint};
pub use stats::{relative_half_width, wilson_center, wilson_half_width, wilson_interval, Z_95};
