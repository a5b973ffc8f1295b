//! Surface-code lattice geometry for the Q3DE reproduction.
//!
//! This crate models the *planar* surface code used throughout the paper:
//! data qubits live on the edges of a `d × d` square lattice (equivalently on
//! one of the two sublattices of a `(2d−1) × (2d−1)` site grid), `Z`
//! stabilizers measure star parities and `X` stabilizers measure plaquette
//! parities.  The crate exposes
//!
//! * [`SurfaceCode`] — the static geometry: which sites are data qubits,
//!   which are ancillas, which data qubits each stabilizer monitors,
//! * [`MatchingGraph`] — the 2D decoding ("layer") graph for one error type,
//!   whose edges correspond to single data-qubit errors and whose boundary
//!   edges correspond to errors adjacent to a lattice boundary,
//! * [`deformation`] — the geometric bookkeeping of the `op_expand`
//!   instruction (Fig. 5 of the paper): which qubits are initialised, which
//!   stabilizers are added, and how the code is shrunk back,
//! * [`ChipLayout`] — the chip-level geometry: a grid of patches on one
//!   global site plane (chip ↔ patch-local coordinate conversion, strike
//!   fan-out sets) and the shared spare-qubit budget expansions draw from,
//! * [`Pauli`] / [`PauliString`] — minimal Pauli algebra shared by the noise
//!   model, the decoders and the control unit.
//!
//! # Example
//!
//! ```
//! use q3de_lattice::{SurfaceCode, ErrorKind};
//!
//! let code = SurfaceCode::new(5).unwrap();
//! assert_eq!(code.distance(), 5);
//! // A distance-5 planar code has 5² + 4² = 41 data qubits.
//! assert_eq!(code.num_data_qubits(), 41);
//! let graph = code.matching_graph(ErrorKind::X);
//! // Every Z stabilizer becomes a node of the X-error matching graph.
//! assert_eq!(graph.num_nodes(), code.z_stabilizers().len());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod chip;
mod coord;
mod error;
mod graph;
mod pauli;
mod surface_code;

pub mod deformation;

pub use chip::{ChipLayout, PatchIndex};
pub use coord::Coord;
pub use error::LatticeError;
pub use graph::{EdgeIndex, GraphEdge, MatchingGraph, NodeIndex};
pub use pauli::{Pauli, PauliString};
pub use surface_code::{ErrorKind, QubitRole, Stabilizer, StabilizerKind, SurfaceCode};
