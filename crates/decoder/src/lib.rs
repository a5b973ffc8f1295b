//! Space-time surface-code decoders with anomaly-aware weighting and
//! decoder re-execution.
//!
//! The decoding pipeline mirrors Sec. II-A and Sec. VI of the paper:
//!
//! 1. each code cycle produces one layer of syndrome values
//!    ([`SyndromeHistory`]),
//! 2. consecutive layers are XORed into *detection events*
//!    ([`DetectionEvent`]) that live on a 3D space-time lattice,
//! 3. the decoder pairs every detection event with another event or with a
//!    lattice boundary at minimum total weight, where the weight of an edge
//!    is the negative log-likelihood of the corresponding physical error
//!    ([`WeightModel`]),
//! 4. the parity of corrections crossing the homological cut, combined with
//!    the parity of actual errors on the cut, decides whether a logical
//!    error survived ([`DecodeOutcome`]).
//!
//! The *optimized error DEcoding* of Q3DE enters through
//! [`WeightModel::AnomalyAware`]: when the anomaly-detection unit has
//! localised an MBBE, the decoder is re-executed on the rolled-back syndrome
//! window with the edges inside the anomalous region re-weighted to
//! `−log(p_ano / (1 − p_ano))` (≈ 0 for `p_ano = 0.5`), which recovers the
//! `d − d_ano` effective distance of the paper's Case 3 analysis.
//! [`DecoderContext::decode_with_rollback`] runs the two-pass flow.
//!
//! # Persistent decoder state
//!
//! Decoding must keep up with the syndrome stream even while a burst
//! inflates the defect density, so the hot path never rebuilds what it can
//! reuse.  All decoding runs through a [`DecoderContext`], which caches the
//! space-time graph keyed by *(error kind, layer-graph shape, window
//! depth)* and treats the [`WeightModel`] as a weight epoch:
//!
//! * same window shape, same model → the cached graph is reused untouched;
//! * model changed (anomaly re-weighting, the rollback's second pass) →
//!   the cached graph is re-weighted **in place**, touching only the edges
//!   whose error rate actually changed;
//! * window depth or graph structure changed (code expansion/shrink) →
//!   the graph is rebuilt, which is the only time the cache allocates.
//!
//! The matching backends live inside the context and keep their scratch
//! (Dijkstra buffers, union-find forest, visited/parity arrays) across
//! calls — the [`q3de_matching::DecoderBackend`] trait takes `&mut self`
//! for exactly this reason.  Reuse is *bit-identical* to fresh-per-call
//! decoding (pinned by the root `tests/decoder_reuse.rs`); debug builds
//! additionally cross-check every cached edge weight against the active
//! model so stale-cache bugs trip assertions instead of skewing results.
//! Long-lived callers (a logical qubit's pipeline, a service worker) own
//! one context each; Monte-Carlo kernels that decode from `&self` closures
//! share contexts through a [`ContextPool`] (one warm context per
//! concurrently decoding worker).
//!
//! # Example
//!
//! ```
//! use q3de_lattice::{ErrorKind, SurfaceCode};
//! use q3de_decoder::{DecoderConfig, DecoderContext, SyndromeHistory, WeightModel};
//!
//! let code = SurfaceCode::new(3)?;
//! let graph = code.matching_graph(ErrorKind::X);
//! // A trivial (error-free) history: three noisy rounds plus the final
//! // perfect readout, all syndromes quiet.
//! let mut history = SyndromeHistory::new(graph.num_nodes());
//! for _ in 0..4 {
//!     history.push_layer(&vec![false; graph.num_nodes()]);
//! }
//! let mut decoder = DecoderContext::new(DecoderConfig::default());
//! let outcome = decoder.decode(&graph, &history, &WeightModel::uniform(1e-3));
//! assert!(!outcome.correction_crosses_cut());
//! # Ok::<(), q3de_lattice::LatticeError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod context;
mod decode;
mod spacetime;
mod syndrome;
mod weights;

pub use context::{graph_key, ContextPool, DecoderContext, GraphKey};
pub use decode::{DecodeOutcome, DecoderConfig, MatchedPair, ReExecutionOutcome};
pub use spacetime::{BoundarySide, SpaceTimeCosts, SpaceTimeGraph};
pub use syndrome::{DetectionEvent, SyndromeBatch, SyndromeHistory};
pub use weights::WeightModel;

// The backend-selection surface is part of this crate's decoding API:
// re-export it so downstream crates can configure decoders without a direct
// `q3de_matching` dependency.
pub use q3de_matching::{DecoderBackend, MatcherKind};
