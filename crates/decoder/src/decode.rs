//! Decoder configuration and the results of decoding a window: detection
//! events → matching → correction parity.

use crate::spacetime::BoundarySide;
use crate::DetectionEvent;
use q3de_matching::{AltTreeBackend, DecoderBackend, GreedyBackend, MatcherKind, UnionFindDecoder};

/// Configuration of a [`crate::DecoderContext`]: which matching backend
/// decodes the syndrome windows.  The default is the exact alternating-tree
/// matcher ([`MatcherKind::Tree`]).
///
/// Performance note: the greedy backend extracts pairwise defect costs with
/// Dijkstra on the sparse graph even under uniform weights (where a
/// closed-form Manhattan metric — still available via
/// [`crate::SpaceTimeCosts`] — would be cheaper).  The tree and union-find
/// backends skip dense cost extraction entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecoderConfig {
    /// Which matching backend decodes the syndrome windows.
    pub matcher: MatcherKind,
}

impl DecoderConfig {
    /// Selects the matching backend, builder style.
    pub fn with_matcher(mut self, matcher: MatcherKind) -> Self {
        self.matcher = matcher;
        self
    }

    /// Instantiates the configured [`DecoderBackend`].
    ///
    /// Backends carry their own scratch buffers (`decode_defects` takes
    /// `&mut self`), so the instance should be kept and reused — that is
    /// what [`crate::DecoderContext`] does.
    pub fn backend(&self) -> Box<dyn DecoderBackend + Send> {
        match self.matcher {
            MatcherKind::Tree => Box::new(AltTreeBackend::new()),
            MatcherKind::Greedy => Box::new(GreedyBackend::default()),
            MatcherKind::UnionFind => Box::new(UnionFindDecoder::default()),
        }
    }
}

/// A matched pair of detection events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedPair {
    /// First event of the pair.
    pub a: DetectionEvent,
    /// Second event of the pair.
    pub b: DetectionEvent,
    /// The path cost of the pairing.
    pub cost: f64,
}

/// The result of decoding one syndrome window.
///
/// `PartialEq` compares outcomes field for field (costs included, exactly)
/// — reused-context decoding is *bit-identical* to fresh decoding, and the
/// reuse tests assert it through this impl.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodeOutcome {
    /// All detection events of the window.
    pub events: Vec<DetectionEvent>,
    /// Event–event matches.
    pub pairs: Vec<MatchedPair>,
    /// Event–boundary matches with the chosen boundary side and cost.
    pub boundary_matches: Vec<(DetectionEvent, BoundarySide, f64)>,
    /// Total matching weight (sum of all pair and boundary costs).
    pub total_weight: f64,
    /// Number of independent clusters the matching decomposed into.
    pub num_clusters: usize,
}

impl DecodeOutcome {
    /// Number of detection events in the decoded window.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Whether the implied correction crosses the homological cut an odd
    /// number of times — true exactly when an odd number of events were
    /// matched to the low (cut-adjacent) boundary.
    pub fn correction_crosses_cut(&self) -> bool {
        self.boundary_matches
            .iter()
            .filter(|(_, side, _)| *side == BoundarySide::Low)
            .count()
            % 2
            == 1
    }

    /// Whether the decoded correction leaves a logical error, given the
    /// parity of *actual* error flips on the cut edges accumulated over the
    /// window.
    pub fn is_logical_failure(&self, error_cut_parity: bool) -> bool {
        self.correction_crosses_cut() != error_cut_parity
    }
}

/// The result of the two-pass rollback flow
/// ([`crate::DecoderContext::decode_with_rollback`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReExecutionOutcome {
    /// The first, anomaly-blind decoding pass.
    pub first_pass: DecodeOutcome,
    /// The second pass with anomaly-aware weights, present only when an
    /// anomaly was reported and the window was rolled back.
    pub second_pass: Option<DecodeOutcome>,
}

impl ReExecutionOutcome {
    /// The outcome that is ultimately committed to the Pauli frame: the
    /// re-executed pass when it exists, the first pass otherwise.
    pub fn final_outcome(&self) -> &DecodeOutcome {
        self.second_pass.as_ref().unwrap_or(&self.first_pass)
    }

    /// Whether the window was rolled back and re-decoded.
    pub fn was_rolled_back(&self) -> bool {
        self.second_pass.is_some()
    }

    /// Whether re-execution changed the logical-correction parity — the
    /// situations in which the rollback actually mattered.
    pub fn reexecution_changed_parity(&self) -> bool {
        match &self.second_pass {
            Some(second) => {
                second.correction_crosses_cut() != self.first_pass.correction_crosses_cut()
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecoderContext, SyndromeHistory, WeightModel};
    use q3de_lattice::{Coord, ErrorKind, Pauli, PauliString, StabilizerKind, SurfaceCode};

    /// Builds a syndrome history for a *static* data-qubit error pattern
    /// measured perfectly over `rounds` rounds (no measurement noise): the
    /// same syndrome repeats every layer.
    fn static_history(code: &SurfaceCode, error: &PauliString, rounds: usize) -> SyndromeHistory {
        let graph = code.matching_graph(ErrorKind::X);
        let syndrome = code.syndrome(StabilizerKind::Z, error);
        let mut h = SyndromeHistory::new(graph.num_nodes());
        for _ in 0..rounds {
            h.push_layer(&syndrome);
        }
        h
    }

    /// Parity of actual X-error flips on the cut (left-boundary data qubits).
    fn error_cut_parity(code: &SurfaceCode, error: &PauliString) -> bool {
        code.logical_z_support()
            .iter()
            .filter(|&&q| error.get(q).has_x_component())
            .count()
            % 2
            == 1
    }

    fn decode_static(code: &SurfaceCode, error: &PauliString) -> bool {
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = DecoderContext::new(DecoderConfig::default());
        let history = static_history(code, error, 3);
        let outcome = decoder.decode(&graph, &history, &WeightModel::uniform(1e-3));
        outcome.is_logical_failure(error_cut_parity(code, error))
    }

    #[test]
    fn empty_syndrome_decodes_trivially() {
        let code = SurfaceCode::new(3).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = DecoderContext::new(DecoderConfig::default());
        let mut h = SyndromeHistory::new(graph.num_nodes());
        for _ in 0..4 {
            h.push_layer(&vec![false; graph.num_nodes()]);
        }
        let outcome = decoder.decode(&graph, &h, &WeightModel::uniform(1e-3));
        assert_eq!(outcome.num_events(), 0);
        assert!(!outcome.correction_crosses_cut());
        assert!(!outcome.is_logical_failure(false));
        assert_eq!(outcome.total_weight, 0.0);
    }

    #[test]
    fn single_data_error_is_corrected() {
        let code = SurfaceCode::new(5).unwrap();
        for &q in code.data_qubits() {
            let error: PauliString = [(q, Pauli::X)].into_iter().collect();
            assert!(
                !decode_static(&code, &error),
                "single X on {q} was not corrected"
            );
        }
    }

    #[test]
    fn small_error_chains_are_corrected() {
        let code = SurfaceCode::new(5).unwrap();
        // any horizontal chain of ⌊(d−1)/2⌋ = 2 errors is correctable
        let error: PauliString = [(Coord::new(0, 0), Pauli::X), (Coord::new(0, 2), Pauli::X)]
            .into_iter()
            .collect();
        assert!(!decode_static(&code, &error));
        let error2: PauliString = [(Coord::new(4, 4), Pauli::X), (Coord::new(4, 6), Pauli::X)]
            .into_iter()
            .collect();
        assert!(!decode_static(&code, &error2));
    }

    #[test]
    fn logical_operator_is_a_failure() {
        // A full logical X chain has trivial syndrome; the decoder does
        // nothing and the residual is a logical error.
        let code = SurfaceCode::new(5).unwrap();
        let error: PauliString = code
            .logical_x_support()
            .into_iter()
            .map(|q| (q, Pauli::X))
            .collect();
        assert!(decode_static(&code, &error));
    }

    #[test]
    fn majority_chain_causes_failure_minority_does_not() {
        // d = 5: a chain of 3 along the logical direction is mis-corrected
        // (matched the short way), a chain of 2 is fine.
        let code = SurfaceCode::new(5).unwrap();
        let chain3: PauliString = [
            (Coord::new(0, 0), Pauli::X),
            (Coord::new(0, 2), Pauli::X),
            (Coord::new(0, 4), Pauli::X),
        ]
        .into_iter()
        .collect();
        assert!(
            decode_static(&code, &chain3),
            "weight-3 chain on d=5 should fail"
        );
        let chain2: PauliString = [(Coord::new(0, 0), Pauli::X), (Coord::new(0, 2), Pauli::X)]
            .into_iter()
            .collect();
        assert!(!decode_static(&code, &chain2));
    }

    #[test]
    fn measurement_blip_is_matched_in_time() {
        // A lone measurement error produces two vertically adjacent events
        // that should be matched together (not to the boundary).
        let code = SurfaceCode::new(5).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = DecoderContext::new(DecoderConfig::default());
        let n = graph.num_nodes();
        let mut h = SyndromeHistory::new(n);
        let mut blip = vec![false; n];
        let central = graph.node_index(Coord::new(4, 5)).unwrap();
        blip[central] = true;
        h.push_layer(&vec![false; n]);
        h.push_layer(&blip);
        h.push_layer(&vec![false; n]);
        h.push_layer(&vec![false; n]);
        let outcome = decoder.decode(&graph, &h, &WeightModel::uniform(1e-3));
        assert_eq!(outcome.num_events(), 2);
        assert_eq!(outcome.pairs.len(), 1);
        assert!(outcome.boundary_matches.is_empty());
        assert!(!outcome.is_logical_failure(false));
    }

    #[test]
    fn boundary_matches_pick_the_nearest_side() {
        let code = SurfaceCode::new(5).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = DecoderContext::new(DecoderConfig::default());
        // single X error on the leftmost data qubit of row 0 → one event next
        // to the low boundary
        let error: PauliString = [(Coord::new(0, 0), Pauli::X)].into_iter().collect();
        let history = static_history(&code, &error, 2);
        let outcome = decoder.decode(&graph, &history, &WeightModel::uniform(1e-3));
        assert_eq!(outcome.boundary_matches.len(), 1);
        assert_eq!(outcome.boundary_matches[0].1, BoundarySide::Low);
        assert!(outcome.correction_crosses_cut());
        // ... which exactly cancels the actual error's cut parity
        assert!(!outcome.is_logical_failure(error_cut_parity(&code, &error)));
    }

    #[test]
    fn anomaly_aware_weights_fix_a_burst_misdecoding() {
        // Construct the Fig. 6(a) situation: a burst of errors crossing an
        // anomalous band.  Decoded blindly, the chain of 3 (out of 5 columns)
        // is matched the short way and causes a logical error; decoded with
        // the anomalous region weighted in, the decoder correctly pairs the
        // events across the (cheap) region.
        let code = SurfaceCode::new(5).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = DecoderContext::new(DecoderConfig::default());
        // anomalous band: columns 2..6 of every row (size 2 region at col 2)
        let region = q3de_noise::AnomalousRegion::new(Coord::new(0, 2), 4, 0, 100, 0.5);
        // actual error: X on the three data qubits of row 0 inside the band
        let error: PauliString = [
            (Coord::new(0, 2), Pauli::X),
            (Coord::new(0, 4), Pauli::X),
            (Coord::new(0, 6), Pauli::X),
        ]
        .into_iter()
        .collect();
        let history = static_history(&code, &error, 3);
        let parity = error_cut_parity(&code, &error);

        let blind = decoder.decode(&graph, &history, &WeightModel::uniform(1e-3));
        let aware = decoder.decode(
            &graph,
            &history,
            &WeightModel::anomaly_aware(1e-3, vec![region], 0),
        );
        assert!(
            blind.is_logical_failure(parity),
            "blind decoding should mis-correct"
        );
        assert!(
            !aware.is_logical_failure(parity),
            "anomaly-aware decoding should succeed"
        );
    }

    #[test]
    fn clusters_are_reported() {
        let code = SurfaceCode::new(7).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = DecoderContext::new(DecoderConfig::default());
        // two well-separated single errors → two independent clusters
        let error: PauliString = [(Coord::new(0, 0), Pauli::X), (Coord::new(12, 12), Pauli::X)]
            .into_iter()
            .collect();
        let history = static_history(&code, &error, 2);
        let outcome = decoder.decode(&graph, &history, &WeightModel::uniform(1e-3));
        assert!(outcome.num_clusters >= 2);
        assert!(!outcome.is_logical_failure(error_cut_parity(&code, &error)));
    }

    #[test]
    fn every_backend_corrects_single_errors() {
        let code = SurfaceCode::new(5).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        for kind in q3de_matching::MatcherKind::ALL {
            let mut decoder = DecoderContext::new(DecoderConfig::default().with_matcher(kind));
            for &q in code.data_qubits() {
                let error: PauliString = [(q, Pauli::X)].into_iter().collect();
                let history = static_history(&code, &error, 3);
                let outcome = decoder.decode(&graph, &history, &WeightModel::uniform(1e-3));
                assert!(
                    !outcome.is_logical_failure(error_cut_parity(&code, &error)),
                    "{kind:?}: single X on {q} was not corrected"
                );
            }
        }
    }

    #[test]
    fn every_backend_fixes_the_burst_with_anomaly_aware_weights() {
        // The Fig. 6(a) situation of `anomaly_aware_weights_fix_a_burst_misdecoding`,
        // replayed through each backend: re-weighting must reach union-find
        // (as integer growth rates) exactly as it reaches the dense matchers.
        let code = SurfaceCode::new(5).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let region = q3de_noise::AnomalousRegion::new(Coord::new(0, 2), 4, 0, 100, 0.5);
        let error: PauliString = [
            (Coord::new(0, 2), Pauli::X),
            (Coord::new(0, 4), Pauli::X),
            (Coord::new(0, 6), Pauli::X),
        ]
        .into_iter()
        .collect();
        let history = static_history(&code, &error, 3);
        let parity = error_cut_parity(&code, &error);
        for kind in q3de_matching::MatcherKind::ALL {
            let mut decoder = DecoderContext::new(DecoderConfig::default().with_matcher(kind));
            let aware = decoder.decode(
                &graph,
                &history,
                &WeightModel::anomaly_aware(1e-3, vec![region], 0),
            );
            assert!(
                !aware.is_logical_failure(parity),
                "{kind:?}: anomaly-aware decoding should succeed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the node count")]
    fn mismatched_history_is_rejected() {
        let code = SurfaceCode::new(3).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = DecoderContext::new(DecoderConfig::default());
        let mut h = SyndromeHistory::new(graph.num_nodes() + 1);
        h.push_layer(&vec![false; graph.num_nodes() + 1]);
        let _ = decoder.decode(&graph, &h, &WeightModel::uniform(1e-3));
    }
}
