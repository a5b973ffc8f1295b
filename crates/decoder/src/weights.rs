//! Edge-weight models for the space-time decoding graph.

use q3de_lattice::Coord;
use q3de_noise::AnomalousRegion;

/// How the decoder weighs physical error mechanisms.
///
/// Edge weights follow the standard log-likelihood prescription: an error
/// mechanism of probability `q` gets weight `−log(q / (1 − q))` (Sec. VI-B).
///
/// `PartialEq` compares models structurally (rates, regions, window
/// anchor); the decoder's context cache uses it as the *weight epoch*: a
/// cached space-time graph stays valid while the model compares equal and
/// is re-weighted in place when it does not.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightModel {
    /// All qubits share the same error rate; this is what a decoder that is
    /// unaware of MBBEs uses.
    Uniform {
        /// The physical error rate `p` per code cycle.
        error_rate: f64,
    },
    /// The decoder knows about one or more anomalous regions (the Q3DE
    /// re-execution path).  Edges whose qubit lies in an active region at the
    /// corresponding cycle are weighted with the anomalous rate.
    AnomalyAware {
        /// The base physical error rate `p`.
        base_rate: f64,
        /// The detected anomalous regions.
        regions: Vec<AnomalousRegion>,
        /// Absolute code cycle of event layer 0, so that region activity
        /// windows can be evaluated per layer.
        window_start_cycle: u64,
    },
}

impl WeightModel {
    /// Minimum probability used when converting rates to weights, so that
    /// `p = 0` does not produce infinite weights.
    pub const MIN_RATE: f64 = 1e-12;

    /// A uniform weight model at rate `error_rate`.
    pub fn uniform(error_rate: f64) -> Self {
        WeightModel::Uniform { error_rate }
    }

    /// An anomaly-aware weight model whose event layer 0 corresponds to
    /// absolute cycle `window_start_cycle`.
    pub fn anomaly_aware(
        base_rate: f64,
        regions: Vec<AnomalousRegion>,
        window_start_cycle: u64,
    ) -> Self {
        WeightModel::AnomalyAware {
            base_rate,
            regions,
            window_start_cycle,
        }
    }

    /// The base error rate of the model.
    pub fn base_rate(&self) -> f64 {
        match self {
            WeightModel::Uniform { error_rate } => *error_rate,
            WeightModel::AnomalyAware { base_rate, .. } => *base_rate,
        }
    }

    /// Whether the model carries anomaly information.
    pub fn is_anomaly_aware(&self) -> bool {
        matches!(self, WeightModel::AnomalyAware { .. })
    }

    /// The error rate assigned to the qubit at `coord` during event layer
    /// `layer`.
    pub fn rate_at(&self, coord: Coord, layer: usize) -> f64 {
        match self {
            WeightModel::Uniform { error_rate } => *error_rate,
            WeightModel::AnomalyAware {
                base_rate,
                regions,
                window_start_cycle,
            } => {
                let cycle = window_start_cycle + layer as u64;
                let mut rate = *base_rate;
                for r in regions {
                    if r.affects(coord, cycle) {
                        rate = rate.max(r.anomalous_rate());
                    }
                }
                rate
            }
        }
    }

    /// Converts an error probability into a matching weight,
    /// `−log(q / (1 − q))`, clamped away from zero probability.
    pub fn weight_of_rate(rate: f64) -> f64 {
        let q = rate.clamp(Self::MIN_RATE, 0.5);
        -(q / (1.0 - q)).ln()
    }

    /// The weight of the edge whose qubit sits at `coord` during layer
    /// `layer`.
    pub fn weight_at(&self, coord: Coord, layer: usize) -> f64 {
        Self::weight_of_rate(self.rate_at(coord, layer))
    }

    /// The weight every edge takes under the base rate (the uniform-case
    /// fast path).
    pub fn base_weight(&self) -> f64 {
        Self::weight_of_rate(self.base_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_are_constant() {
        let m = WeightModel::uniform(1e-3);
        let w = m.weight_at(Coord::new(0, 0), 0);
        assert_eq!(w, m.weight_at(Coord::new(10, 10), 99));
        assert!((w - (999.0f64).ln()).abs() < 1e-9);
        assert!(!m.is_anomaly_aware());
        assert_eq!(m.base_rate(), 1e-3);
    }

    #[test]
    fn anomalous_edges_are_nearly_free_at_half_rate() {
        let region = AnomalousRegion::new(Coord::new(0, 0), 4, 10, 100, 0.5);
        let m = WeightModel::anomaly_aware(1e-3, vec![region], 0);
        // inside the region and window (layer 20 → cycle 20)
        let inside = m.weight_at(Coord::new(1, 1), 20);
        assert!(
            inside.abs() < 1e-12,
            "p_ano = 0.5 gives zero weight, got {inside}"
        );
        // outside the active window the weight reverts to the base weight
        let before = m.weight_at(Coord::new(1, 1), 5);
        assert!((before - m.base_weight()).abs() < 1e-12);
        // outside the region it is the base weight too
        let outside = m.weight_at(Coord::new(50, 50), 20);
        assert!((outside - m.base_weight()).abs() < 1e-12);
        assert!(m.is_anomaly_aware());
    }

    #[test]
    fn window_start_cycle_shifts_layer_mapping() {
        let region = AnomalousRegion::new(Coord::new(0, 0), 2, 100, 10, 0.3);
        let m = WeightModel::anomaly_aware(1e-3, vec![region], 95);
        // layer 5 → cycle 100: active
        assert_eq!(m.rate_at(Coord::new(0, 0), 5), 0.3);
        // layer 0 → cycle 95: not yet active
        assert_eq!(m.rate_at(Coord::new(0, 0), 0), 1e-3);
    }

    #[test]
    fn zero_rate_is_clamped() {
        let w = WeightModel::weight_of_rate(0.0);
        assert!(w.is_finite());
        assert!(w > 0.0);
        // monotonically decreasing in the rate
        assert!(WeightModel::weight_of_rate(1e-3) > WeightModel::weight_of_rate(1e-2));
        assert_eq!(WeightModel::weight_of_rate(0.5), 0.0);
    }
}
