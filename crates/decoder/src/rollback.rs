//! Decoder re-execution (rollback) — the "optimized error DEcoding" of Q3DE.
//!
//! The rollback flow is *backend-generic*: both passes run through whichever
//! [`q3de_matching::DecoderBackend`] the [`DecoderConfig`] selects, and the
//! anomaly-aware re-weighting is applied when the space-time graph is built,
//! before any backend sees it.  The union-find backend consumes the
//! re-weighted costs as integer growth rates, the dense backends as
//! shortest-path edge weights.

use crate::{DecodeOutcome, DecoderConfig, DecoderContext, MatcherKind, SyndromeHistory};
use q3de_lattice::MatchingGraph;
use q3de_noise::AnomalousRegion;

/// The result of a (possibly re-executed) decoding pass.
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

/// A decoder wrapper implementing the two-pass rollback flow of Sec. VI-C:
///
/// 1. the window is decoded with uniform (anomaly-blind) weights, exactly as
///    a conventional architecture would;
/// 2. when the anomaly-detection unit reports MBBE regions, the state of the
///    syndrome queue and decoding unit is rolled back and the same window is
///    re-decoded with [`crate::WeightModel::AnomalyAware`] weights.
///
/// The queue bookkeeping that makes the rollback cheap in hardware (enlarged
/// syndrome queue, matching queue batches, instruction history buffer) is
/// modelled in the `q3de-control` crate; this type captures the decoding
/// semantics.
///
/// The decoder owns a persistent [`DecoderContext`], so both passes of
/// every window share one cached space-time graph: the blind pass reuses it
/// untouched and the re-executed pass only re-weights the edges inside the
/// detected regions.  Decoding therefore takes `&mut self`; a long-lived
/// `ReExecutingDecoder` is the intended usage (one per logical qubit in the
/// pipeline, rebuilt only when the patch itself changes shape).
#[derive(Debug)]
pub struct ReExecutingDecoder<'g> {
    graph: &'g MatchingGraph,
    context: DecoderContext,
    base_rate: f64,
}

impl<'g> ReExecutingDecoder<'g> {
    /// Creates a re-executing decoder over `graph` with base physical error
    /// rate `base_rate`.
    ///
    /// Uses [`DecoderConfig::default`], the exact tree matcher.
    pub fn new(graph: &'g MatchingGraph, base_rate: f64) -> Self {
        Self::with_config(graph, base_rate, DecoderConfig::default())
    }

    /// Creates a re-executing decoder with an explicit decoder configuration.
    pub fn with_config(graph: &'g MatchingGraph, base_rate: f64, config: DecoderConfig) -> Self {
        Self {
            graph,
            context: DecoderContext::new(config),
            base_rate,
        }
    }

    /// Creates a re-executing decoder using the given matching backend with
    /// otherwise default configuration.
    pub fn with_matcher(graph: &'g MatchingGraph, base_rate: f64, matcher: MatcherKind) -> Self {
        Self::with_config(
            graph,
            base_rate,
            DecoderConfig::default().with_matcher(matcher),
        )
    }

    /// The layer graph both passes decode over.
    pub fn graph(&self) -> &MatchingGraph {
        self.graph
    }

    /// The decoder configuration.
    pub fn config(&self) -> DecoderConfig {
        self.context.config()
    }

    /// The persistent decoding state shared by both passes.
    pub fn context(&self) -> &DecoderContext {
        &self.context
    }

    /// The base physical error rate used for the blind pass.
    pub fn base_rate(&self) -> f64 {
        self.base_rate
    }

    /// Decodes `history`.  `detected_regions` are the anomalous regions
    /// reported by the anomaly-detection unit (empty slice or `None` means
    /// no MBBE was detected, so no rollback happens);
    /// `window_start_cycle` maps event layer 0 to an absolute code cycle so
    /// the regions' activity windows line up.
    pub fn decode(
        &mut self,
        history: &SyndromeHistory,
        detected_regions: Option<&[AnomalousRegion]>,
        window_start_cycle: u64,
    ) -> ReExecutionOutcome {
        self.context.decode_with_rollback(
            self.graph,
            self.base_rate,
            history,
            detected_regions,
            window_start_cycle,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q3de_lattice::{Coord, ErrorKind, Pauli, PauliString, StabilizerKind, SurfaceCode};

    fn burst_setup() -> (SurfaceCode, PauliString, AnomalousRegion) {
        let code = SurfaceCode::new(5).unwrap();
        let region = AnomalousRegion::new(Coord::new(0, 2), 4, 0, 100, 0.5);
        let error: PauliString = [
            (Coord::new(0, 2), Pauli::X),
            (Coord::new(0, 4), Pauli::X),
            (Coord::new(0, 6), Pauli::X),
        ]
        .into_iter()
        .collect();
        (code, error, region)
    }

    fn history_of(code: &SurfaceCode, error: &PauliString, rounds: usize) -> SyndromeHistory {
        let graph = code.matching_graph(ErrorKind::X);
        let syndrome = code.syndrome(StabilizerKind::Z, error);
        let mut h = SyndromeHistory::new(graph.num_nodes());
        for _ in 0..rounds {
            h.push_layer(&syndrome);
        }
        h
    }

    #[test]
    fn no_detection_means_no_rollback() {
        let (code, error, _) = burst_setup();
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = ReExecutingDecoder::new(&graph, 1e-3);
        let history = history_of(&code, &error, 3);
        let outcome = decoder.decode(&history, None, 0);
        assert!(!outcome.was_rolled_back());
        assert!(outcome.second_pass.is_none());
        assert!(!outcome.reexecution_changed_parity());
        let outcome2 = decoder.decode(&history, Some(&[]), 0);
        assert!(!outcome2.was_rolled_back());
    }

    #[test]
    fn rollback_reexecutes_and_fixes_the_burst() {
        let (code, error, region) = burst_setup();
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = ReExecutingDecoder::new(&graph, 1e-3);
        let history = history_of(&code, &error, 3);
        let error_parity = code
            .logical_z_support()
            .iter()
            .filter(|&&q| error.get(q).has_x_component())
            .count()
            % 2
            == 1;

        let outcome = decoder.decode(&history, Some(&[region]), 0);
        assert!(outcome.was_rolled_back());
        assert!(outcome.first_pass.is_logical_failure(error_parity));
        assert!(!outcome.final_outcome().is_logical_failure(error_parity));
        assert!(outcome.reexecution_changed_parity());
    }

    #[test]
    fn rollback_is_backend_generic() {
        // Every matching backend must support the two-pass rollback flow and
        // fix the burst after re-weighting.
        let (code, error, region) = burst_setup();
        let graph = code.matching_graph(ErrorKind::X);
        let history = history_of(&code, &error, 3);
        let error_parity = code
            .logical_z_support()
            .iter()
            .filter(|&&q| error.get(q).has_x_component())
            .count()
            % 2
            == 1;
        for kind in MatcherKind::ALL {
            let mut decoder = ReExecutingDecoder::with_matcher(&graph, 1e-3, kind);
            let outcome = decoder.decode(&history, Some(&[region]), 0);
            assert!(outcome.was_rolled_back(), "{kind:?}");
            assert!(
                !outcome.final_outcome().is_logical_failure(error_parity),
                "{kind:?}: re-executed pass must fix the burst"
            );
        }
    }

    #[test]
    fn final_outcome_prefers_second_pass() {
        let (code, error, region) = burst_setup();
        let graph = code.matching_graph(ErrorKind::X);
        let mut decoder = ReExecutingDecoder::new(&graph, 1e-3);
        let history = history_of(&code, &error, 3);
        let outcome = decoder.decode(&history, Some(&[region]), 0);
        let second = outcome.second_pass.as_ref().unwrap();
        assert_eq!(
            outcome.final_outcome().correction_crosses_cut(),
            second.correction_crosses_cut()
        );
        assert_eq!(decoder.base_rate(), 1e-3);
    }
}
