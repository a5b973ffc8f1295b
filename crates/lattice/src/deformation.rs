//! Code deformation: the geometry behind the `op_expand` instruction.
//!
//! Section V of the paper temporarily expands the code distance of a logical
//! qubit affected by an MBBE from `d` to `d_exp ≥ d + 2·d_ano` (in practice a
//! 2×2 block, i.e. roughly doubling the distance) and shrinks it back once
//! the anomalous region has relaxed.  Figure 5 breaks the expansion into
//! three steps:
//!
//! 1. initialise the previously-unused data qubits in `|0⟩` / `|+⟩`,
//! 2. switch the stabilizer map to the expanded set of stabilizers,
//! 3. (on shrink) measure the extra data qubits out in the `Z` / `X` basis
//!    and restore the original stabilizer map.
//!
//! [`ExpansionPlan`] captures exactly that bookkeeping: which qubits are
//! initialised in which basis, which stabilizers are added or change support,
//! and which measurements undo the expansion.

use crate::{Coord, LatticeError, Pauli, Stabilizer, SurfaceCode};
use std::collections::HashMap;

/// The single-qubit basis a data qubit is initialised in (step 1) or measured
/// out in (step 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreparationBasis {
    /// Computational basis, `|0⟩` preparation / `M_Z` measurement.
    Z,
    /// Hadamard basis, `|+⟩` preparation / `M_X` measurement.
    X,
}

impl PreparationBasis {
    /// The Pauli operator stabilizing the prepared state.
    pub fn stabilizing_pauli(self) -> Pauli {
        match self {
            PreparationBasis::Z => Pauli::Z,
            PreparationBasis::X => Pauli::X,
        }
    }
}

/// A plan for expanding a distance-`d` patch (anchored at the grid origin) to
/// a distance-`d_exp` patch, and for shrinking it back.
#[derive(Debug, Clone)]
pub struct ExpansionPlan {
    original: SurfaceCode,
    expanded: SurfaceCode,
    new_data_qubits: Vec<(Coord, PreparationBasis)>,
    added_stabilizers: Vec<Stabilizer>,
    modified_stabilizers: Vec<ModifiedStabilizer>,
}

/// A stabilizer whose support grows during the expansion (it existed in the
/// original code but gains data qubits from the new region).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModifiedStabilizer {
    /// The stabilizer as measured before the expansion.
    pub before: Stabilizer,
    /// The stabilizer as measured after the expansion.
    pub after: Stabilizer,
}

impl ExpansionPlan {
    /// Plans the expansion of a distance-`original_distance` patch to
    /// distance `expanded_distance`, both anchored at the grid origin.
    ///
    /// # Errors
    ///
    /// Returns an error when either distance is invalid or when
    /// `expanded_distance <= original_distance`.
    ///
    /// ```
    /// use q3de_lattice::deformation::ExpansionPlan;
    /// let plan = ExpansionPlan::new(5, 10)?;
    /// assert_eq!(plan.original().distance(), 5);
    /// assert_eq!(plan.expanded().distance(), 10);
    /// # Ok::<(), q3de_lattice::LatticeError>(())
    /// ```
    pub fn new(original_distance: usize, expanded_distance: usize) -> Result<Self, LatticeError> {
        if expanded_distance <= original_distance {
            return Err(LatticeError::InvalidDeformation {
                reason: format!(
                    "expanded distance {expanded_distance} must exceed the original distance {original_distance}"
                ),
            });
        }
        let original = SurfaceCode::new(original_distance)?;
        let expanded = SurfaceCode::new(expanded_distance)?;

        let original_data: std::collections::HashSet<Coord> =
            original.data_qubits().iter().copied().collect();
        let new_data_qubits: Vec<(Coord, PreparationBasis)> = expanded
            .data_qubits()
            .iter()
            .copied()
            .filter(|q| !original_data.contains(q))
            .map(|q| {
                // Data qubits on the (even, even) sublattice extend the rough
                // (left/right) boundaries, so they are prepared in |0⟩; the
                // (odd, odd) sublattice extends the smooth boundaries and is
                // prepared in |+⟩ (Fig. 5, step 1).
                let basis = if q.row % 2 == 0 {
                    PreparationBasis::Z
                } else {
                    PreparationBasis::X
                };
                (q, basis)
            })
            .collect();

        let original_by_ancilla: HashMap<Coord, &Stabilizer> = original
            .z_stabilizers()
            .iter()
            .chain(original.x_stabilizers())
            .map(|s| (s.ancilla, s))
            .collect();

        let mut added_stabilizers = Vec::new();
        let mut modified_stabilizers = Vec::new();
        for stab in expanded
            .z_stabilizers()
            .iter()
            .chain(expanded.x_stabilizers())
        {
            match original_by_ancilla.get(&stab.ancilla) {
                None => added_stabilizers.push(stab.clone()),
                Some(before) if before.support != stab.support => {
                    modified_stabilizers.push(ModifiedStabilizer {
                        before: (*before).clone(),
                        after: stab.clone(),
                    });
                }
                Some(_) => {}
            }
        }

        Ok(Self {
            original,
            expanded,
            new_data_qubits,
            added_stabilizers,
            modified_stabilizers,
        })
    }

    /// Convenience constructor for the paper's default policy: double the
    /// code distance (a 2×2 block of surface-code patches).
    pub fn doubled(original_distance: usize) -> Result<Self, LatticeError> {
        Self::new(original_distance, 2 * original_distance)
    }

    /// The code before the expansion.
    pub fn original(&self) -> &SurfaceCode {
        &self.original
    }

    /// The code after the expansion.
    pub fn expanded(&self) -> &SurfaceCode {
        &self.expanded
    }

    /// Step 1: the data qubits to initialise, with their preparation basis.
    pub fn new_data_qubits(&self) -> &[(Coord, PreparationBasis)] {
        &self.new_data_qubits
    }

    /// Step 2: stabilizers that exist only in the expanded code.
    pub fn added_stabilizers(&self) -> &[Stabilizer] {
        &self.added_stabilizers
    }

    /// Step 2: stabilizers whose support grows when the patch expands
    /// (weight-2 boundary stabilizers becoming weight-3/4 bulk stabilizers).
    pub fn modified_stabilizers(&self) -> &[ModifiedStabilizer] {
        &self.modified_stabilizers
    }

    /// Step 3: the measurements that shrink the patch back — every expansion
    /// qubit measured in its preparation basis.
    pub fn shrink_measurements(&self) -> impl Iterator<Item = (Coord, PreparationBasis)> + '_ {
        self.new_data_qubits.iter().copied()
    }

    /// Number of additional physical qubits consumed by the expansion.
    pub fn additional_physical_qubits(&self) -> usize {
        self.expanded.num_physical_qubits() - self.original.num_physical_qubits()
    }

    /// Latency (in code cycles) to complete the expansion fault-tolerantly:
    /// the expanded patch must be stabilised for of order `d_exp` rounds
    /// before the new distance is effective.
    pub fn expansion_latency_cycles(&self) -> usize {
        self.expanded.distance()
    }

    /// Latency (in code cycles) of the shrink step: a single round of
    /// single-qubit measurements plus one round of stabilizer measurements.
    pub fn shrink_latency_cycles(&self) -> usize {
        2
    }

    /// Whether the expanded distance satisfies the paper's sufficiency
    /// condition `d_exp ≥ d + 2·d_ano` for an anomaly of size `anomaly_size`
    /// (Sec. V-B).
    pub fn covers_anomaly(&self, anomaly_size: usize) -> bool {
        self.expanded.distance() >= self.original.distance() + 2 * anomaly_size
    }
}

/// The deformation state of a logical qubit tracked by the control unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeformationState {
    /// The logical qubit is encoded at its default code distance.
    #[default]
    Normal,
    /// The logical qubit is temporarily expanded.
    Expanded {
        /// Code cycle at which the expansion completed.
        since_cycle: u64,
        /// Code cycle at which the patch is scheduled to shrink back.
        until_cycle: u64,
    },
}

impl DeformationState {
    /// Returns `true` when the qubit is currently expanded.
    pub fn is_expanded(&self) -> bool {
        matches!(self, DeformationState::Expanded { .. })
    }

    /// Extends the expansion deadline (the paper extends the keep time when a
    /// second `op_expand` targets an already-expanded region).
    pub fn extend_until(&mut self, new_until: u64) {
        if let DeformationState::Expanded { until_cycle, .. } = self {
            *until_cycle = (*until_cycle).max(new_until);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_requires_larger_distance() {
        assert!(ExpansionPlan::new(5, 5).is_err());
        assert!(ExpansionPlan::new(5, 4).is_err());
        assert!(ExpansionPlan::new(5, 6).is_ok());
    }

    #[test]
    fn qubit_accounting_is_consistent() {
        let plan = ExpansionPlan::new(3, 6).unwrap();
        let extra_data = plan.expanded().num_data_qubits() - plan.original().num_data_qubits();
        assert_eq!(plan.new_data_qubits().len(), extra_data);
        assert_eq!(
            plan.additional_physical_qubits(),
            plan.expanded().num_physical_qubits() - plan.original().num_physical_qubits()
        );
    }

    #[test]
    fn doubled_plan_doubles_distance() {
        let plan = ExpansionPlan::doubled(7).unwrap();
        assert_eq!(plan.expanded().distance(), 14);
        assert!(plan.covers_anomaly(3));
        assert!(!plan.covers_anomaly(4));
    }

    #[test]
    fn added_plus_original_stabilizers_equal_expanded() {
        let plan = ExpansionPlan::new(3, 5).unwrap();
        let original_count =
            plan.original().z_stabilizers().len() + plan.original().x_stabilizers().len();
        let expanded_count =
            plan.expanded().z_stabilizers().len() + plan.expanded().x_stabilizers().len();
        assert_eq!(
            original_count + plan.added_stabilizers().len(),
            expanded_count
        );
    }

    #[test]
    fn modified_stabilizers_grow_their_support() {
        let plan = ExpansionPlan::new(3, 6).unwrap();
        assert!(!plan.modified_stabilizers().is_empty());
        for m in plan.modified_stabilizers() {
            assert_eq!(m.before.ancilla, m.after.ancilla);
            assert!(m.after.support.len() > m.before.support.len());
            // every original qubit remains in the support
            for q in &m.before.support {
                assert!(m.after.support.contains(q));
            }
        }
    }

    #[test]
    fn new_qubits_lie_outside_the_original_patch() {
        let plan = ExpansionPlan::new(4, 8).unwrap();
        let size = plan.original().grid_size();
        for (q, _) in plan.new_data_qubits() {
            assert!(
                q.row >= size || q.col >= size,
                "new data qubit {q} lies inside the original patch"
            );
        }
    }

    #[test]
    fn shrink_measurements_match_initialisations() {
        let plan = ExpansionPlan::new(3, 5).unwrap();
        let init: Vec<_> = plan.new_data_qubits().to_vec();
        let shrink: Vec<_> = plan.shrink_measurements().collect();
        assert_eq!(init, shrink);
    }

    #[test]
    fn preparation_basis_depends_on_sublattice() {
        let plan = ExpansionPlan::new(3, 5).unwrap();
        for &(q, basis) in plan.new_data_qubits() {
            if q.row % 2 == 0 {
                assert_eq!(basis, PreparationBasis::Z);
            } else {
                assert_eq!(basis, PreparationBasis::X);
            }
        }
        assert_eq!(PreparationBasis::Z.stabilizing_pauli(), Pauli::Z);
        assert_eq!(PreparationBasis::X.stabilizing_pauli(), Pauli::X);
    }

    #[test]
    fn latencies_are_positive_and_scale_with_distance() {
        let plan = ExpansionPlan::new(5, 10).unwrap();
        assert_eq!(plan.expansion_latency_cycles(), 10);
        assert!(plan.shrink_latency_cycles() >= 1);
    }

    #[test]
    fn deformation_state_transitions() {
        let mut s = DeformationState::default();
        assert!(!s.is_expanded());
        s = DeformationState::Expanded {
            since_cycle: 10,
            until_cycle: 100,
        };
        assert!(s.is_expanded());
        s.extend_until(50);
        assert_eq!(
            s,
            DeformationState::Expanded {
                since_cycle: 10,
                until_cycle: 100
            }
        );
        s.extend_until(200);
        assert_eq!(
            s,
            DeformationState::Expanded {
                since_cycle: 10,
                until_cycle: 200
            }
        );
    }
}
