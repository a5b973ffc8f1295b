//! The end-to-end Q3DE pipeline for a single logical qubit.

use q3de_anomaly::{AnomalyDetector, CalibrationStats, DetectedAnomaly, DetectorConfig};
use q3de_control::queues::ExpansionRequest;
use q3de_control::{ExpansionQueue, Instruction, LogicalQubitId};
use q3de_decoder::{
    DecoderConfig, DecoderContext, MatcherKind, ReExecutionOutcome, SyndromeHistory,
};
use q3de_lattice::{
    deformation::ExpansionPlan, ErrorKind, LatticeError, MatchingGraph, SurfaceCode,
};
use q3de_noise::AnomalousRegion;

/// Configuration of the [`Q3dePipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Default code distance of the protected logical qubit.
    pub distance: usize,
    /// Physical error rate `p` of normal qubits per code cycle.
    pub physical_error_rate: f64,
    /// Anomaly-detection window `c_win`.
    pub detection_window: usize,
    /// Trigger count `n_th`.
    pub count_threshold: usize,
    /// Assumed anomalous error rate `p_ano` used when re-weighting the
    /// decoder after a detection.
    pub assumed_anomalous_rate: f64,
    /// Assumed anomaly size `d_ano` (sets the size of the re-weighted region
    /// and the expansion policy `d_exp ≥ d + 2·d_ano`).
    pub assumed_anomaly_size: usize,
    /// How long (in code cycles) an expansion is kept — the typical MBBE
    /// lifetime.
    pub expansion_keep_cycles: u64,
    /// The matching backend both decoding passes run through (see
    /// [`MatcherKind`] for the complexity/accuracy trade-off).
    pub matcher: MatcherKind,
    /// The logical qubit this pipeline protects.  Single-patch setups keep
    /// the default `LogicalQubitId(0)`; a [`crate::SystemPipeline`] assigns
    /// each patch its own id so `op_expand` requests name the right patch in
    /// the chip-level expansion queue.
    pub logical_id: LogicalQubitId,
}

impl PipelineConfig {
    /// A configuration with the paper's evaluation defaults.
    pub fn new(distance: usize, physical_error_rate: f64) -> Self {
        Self {
            distance,
            physical_error_rate,
            detection_window: 150,
            count_threshold: 20,
            assumed_anomalous_rate: 0.5,
            assumed_anomaly_size: 4,
            expansion_keep_cycles: 25_000,
            matcher: MatcherKind::default(),
            logical_id: LogicalQubitId(0),
        }
    }

    /// Selects the matching backend, builder style.
    pub fn with_matcher(mut self, matcher: MatcherKind) -> Self {
        self.matcher = matcher;
        self
    }

    /// Overrides the anomaly-detection window `c_win`, builder style.
    pub fn with_detection_window(mut self, window: usize) -> Self {
        self.detection_window = window;
        self
    }

    /// Overrides the trigger count `n_th`, builder style.
    pub fn with_count_threshold(mut self, threshold: usize) -> Self {
        self.count_threshold = threshold;
        self
    }

    /// Overrides the assumed anomaly size `d_ano`, builder style.
    pub fn with_assumed_anomaly_size(mut self, size: usize) -> Self {
        self.assumed_anomaly_size = size;
        self
    }

    /// Overrides the assumed anomalous error rate `p_ano`, builder style.
    pub fn with_assumed_anomalous_rate(mut self, rate: f64) -> Self {
        self.assumed_anomalous_rate = rate;
        self
    }

    /// Overrides how long an expansion is kept, builder style.
    pub fn with_expansion_keep_cycles(mut self, cycles: u64) -> Self {
        self.expansion_keep_cycles = cycles;
        self
    }

    /// Assigns the logical qubit id the pipeline emits in its `op_expand`
    /// requests, builder style.
    pub fn with_logical_id(mut self, id: LogicalQubitId) -> Self {
        self.logical_id = id;
        self
    }

    /// The expansion target distance of the Sec. V-B policy:
    /// `d_exp ≥ d + 2·d_ano`, rounded up to the doubled-distance rule.
    pub fn expansion_distance(&self) -> usize {
        (self.distance + 2 * self.assumed_anomaly_size).max(2 * self.distance)
    }
}

/// What happened while processing one decoding window.
#[derive(Debug, Clone)]
pub struct EpisodeReport {
    /// The anomaly detection that fired, if any.
    pub detection: Option<DetectedAnomaly>,
    /// The `op_expand` instruction emitted in response, if any.
    pub expansion_instruction: Option<Instruction>,
    /// The region handed to the decoder for re-execution, if any.
    pub assumed_region: Option<AnomalousRegion>,
    /// The decoding outcome (first pass, and second pass when rolled back).
    pub decoding: ReExecutionOutcome,
}

impl EpisodeReport {
    /// Whether the pipeline reacted to an MBBE in this window.
    pub fn reacted(&self) -> bool {
        self.detection.is_some()
    }

    /// Whether the final correction crosses the homological cut.
    pub fn correction_crosses_cut(&self) -> bool {
        self.decoding.final_outcome().correction_crosses_cut()
    }
}

/// The Q3DE pipeline for one logical qubit: anomaly detection over the
/// syndrome stream, code-expansion requests and decoder re-execution
/// (Fig. 4 of the paper).
#[derive(Debug)]
pub struct Q3dePipeline {
    config: PipelineConfig,
    code: SurfaceCode,
    graph: MatchingGraph,
    detector: AnomalyDetector,
    expansion_queue: ExpansionQueue,
    /// The persistent decoding state of this logical qubit: both rollback
    /// passes of every window share its cached space-time graph and backend
    /// scratch.  It would only need rebuilding if the patch changed shape
    /// (expansion/shrink) — and even then the context's structural cache
    /// key rebuilds it on its own.
    decoder: DecoderContext,
    processed_cycles: u64,
}

impl Q3dePipeline {
    /// Builds the pipeline (code geometry, detector, queues).
    ///
    /// # Errors
    ///
    /// Returns an error if the code distance is invalid.
    pub fn new(config: PipelineConfig) -> Result<Self, LatticeError> {
        let code = SurfaceCode::new(config.distance)?;
        let graph = code.matching_graph(ErrorKind::X);
        let calibration = CalibrationStats::bulk_surface_code(config.physical_error_rate);
        let detector_config = DetectorConfig {
            window: config.detection_window,
            confidence: 0.99,
            count_threshold: config.count_threshold,
            anomaly_lifetime_cycles: config.expansion_keep_cycles,
            suppression_radius: 2 * config.assumed_anomaly_size as u32 + 2,
            calibration,
        };
        let detector = AnomalyDetector::new(detector_config, graph.nodes().to_vec());
        let decoder = DecoderContext::new(DecoderConfig::default().with_matcher(config.matcher));
        Ok(Self {
            config,
            code,
            graph,
            detector,
            expansion_queue: ExpansionQueue::new(),
            decoder,
            processed_cycles: 0,
        })
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The surface code protected by this pipeline.
    pub fn code(&self) -> &SurfaceCode {
        &self.code
    }

    /// The matching graph used by the decoder.
    pub fn graph(&self) -> &MatchingGraph {
        &self.graph
    }

    /// The anomaly detector (for inspection).
    pub fn detector(&self) -> &AnomalyDetector {
        &self.detector
    }

    /// The expansion plan implied by the configuration: the code distance is
    /// raised to at least `d + 2·d_ano`, rounded up to the doubled distance
    /// policy of Sec. V-B.
    pub fn expansion_plan(&self) -> Result<ExpansionPlan, LatticeError> {
        ExpansionPlan::new(self.config.distance, self.config.expansion_distance())
    }

    /// Number of pending `op_expand` requests not yet consumed by a
    /// scheduler.
    pub fn pending_expansions(&self) -> usize {
        self.expansion_queue.len()
    }

    /// Pops the oldest pending expansion request (what the instruction
    /// decoder/scheduler would do each cycle).
    pub fn pop_expansion_request(&mut self) -> Option<ExpansionRequest> {
        self.expansion_queue.pop()
    }

    /// Processes one decoding window: feeds its detection-event layers to
    /// the anomaly detector, emits an `op_expand` on detection, and decodes
    /// the window (re-executing with anomaly-aware weights when a burst was
    /// found).
    ///
    /// `history` must contain the raw syndrome layers of the window;
    /// `window_start_cycle` is the absolute code cycle of its first layer.
    pub fn process_window(
        &mut self,
        history: &SyndromeHistory,
        window_start_cycle: u64,
    ) -> EpisodeReport {
        // 1. Anomaly detection on the active-node stream of this window.
        let mut detection = None;
        let mut active = vec![false; history.num_nodes()];
        for layer in 0..history.num_layers() {
            for (node, slot) in active.iter_mut().enumerate() {
                *slot = history.is_active(layer, node);
            }
            if let Some(found) = self.detector.observe_layer(&active) {
                detection = Some(found);
            }
        }
        self.processed_cycles = window_start_cycle + history.num_layers() as u64;

        // 2. React: queue an op_expand and construct the assumed region.
        let (expansion_instruction, assumed_region) = match &detection {
            Some(found) => {
                let request = ExpansionRequest {
                    target: self.config.logical_id,
                    requested_cycle: found.detection_cycle,
                    keep_cycles: self.config.expansion_keep_cycles,
                };
                self.expansion_queue.request(request);
                let instruction = Instruction::OpExpand {
                    target: self.config.logical_id,
                    keep_cycles: self.config.expansion_keep_cycles,
                };
                let size = self.config.assumed_anomaly_size;
                let origin = found
                    .estimated_center
                    .offset(-(size as i32) + 1, -(size as i32) + 1);
                let region = AnomalousRegion::new(
                    origin,
                    size,
                    found.estimated_onset_cycle,
                    self.config.expansion_keep_cycles,
                    self.config.assumed_anomalous_rate,
                );
                (Some(instruction), Some(region))
            }
            None => (None, None),
        };

        // 3. Decode on the persistent context, re-executing when a region
        // was reported.
        let regions: Vec<AnomalousRegion> = assumed_region.into_iter().collect();
        let decoding = self.decoder.decode_with_rollback(
            &self.graph,
            self.config.physical_error_rate,
            history,
            if regions.is_empty() {
                None
            } else {
                Some(&regions)
            },
            window_start_cycle,
        );

        EpisodeReport {
            detection,
            expansion_instruction,
            assumed_region,
            decoding,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q3de_lattice::Coord;
    use q3de_noise::NoiseModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Builds a syndrome history for the pipeline's graph by sampling the
    /// given noise model (data errors persist, ancilla errors flip single
    /// measurements).
    fn sampled_history(
        pipeline: &Q3dePipeline,
        noise: &NoiseModel,
        rounds: usize,
        rng: &mut ChaCha8Rng,
    ) -> SyndromeHistory {
        let graph = pipeline.graph();
        let mut flipped = vec![false; graph.num_edges()];
        let mut history = SyndromeHistory::new(graph.num_nodes());
        for t in 0..rounds {
            for (ei, edge) in graph.edges().iter().enumerate() {
                if noise
                    .sample_pauli(edge.qubit, t as u64, rng)
                    .has_x_component()
                {
                    flipped[ei] = !flipped[ei];
                }
            }
            let layer: Vec<bool> = (0..graph.num_nodes())
                .map(|n| {
                    let mut parity = graph
                        .incident_edges(n)
                        .iter()
                        .filter(|&&e| flipped[e])
                        .count()
                        % 2
                        == 1;
                    if noise
                        .sample_pauli(graph.node(n), t as u64, rng)
                        .has_x_component()
                    {
                        parity = !parity;
                    }
                    parity
                })
                .collect();
            history.push_layer(&layer);
        }
        history
    }

    #[test]
    fn quiet_stream_produces_no_reaction() {
        let mut pipeline = Q3dePipeline::new(PipelineConfig::new(5, 1e-3)).unwrap();
        let noise = NoiseModel::uniform(1e-3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let history = sampled_history(&pipeline, &noise, 50, &mut rng);
        let report = pipeline.process_window(&history, 0);
        assert!(!report.reacted());
        assert!(report.expansion_instruction.is_none());
        assert!(!report.decoding.was_rolled_back());
        assert_eq!(pipeline.pending_expansions(), 0);
    }

    #[test]
    fn burst_triggers_detection_expansion_and_reexecution() {
        let config = PipelineConfig::new(7, 1e-3)
            .with_detection_window(60)
            .with_count_threshold(8)
            .with_assumed_anomaly_size(2);
        let mut pipeline = Q3dePipeline::new(config).unwrap();
        // burst covering the centre of the patch from cycle 100 onwards
        let region = AnomalousRegion::new(Coord::new(4, 4), 2, 100, 100_000, 0.5);
        let noise = NoiseModel::uniform(1e-3).with_anomaly(region);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let history = sampled_history(&pipeline, &noise, 400, &mut rng);
        let report = pipeline.process_window(&history, 0);
        assert!(report.reacted(), "the burst must be detected");
        let detection = report.detection.as_ref().unwrap();
        assert!(detection.detection_cycle >= 100);
        assert!(detection.estimated_center.chebyshev(region.center()) <= 6);
        assert!(matches!(
            report.expansion_instruction,
            Some(Instruction::OpExpand {
                target: LogicalQubitId(0),
                ..
            })
        ));
        assert!(report.decoding.was_rolled_back());
        assert_eq!(pipeline.pending_expansions(), 1);
        let request = pipeline.pop_expansion_request().unwrap();
        assert_eq!(request.target, LogicalQubitId(0));
        assert!(pipeline.pop_expansion_request().is_none());
    }

    #[test]
    fn union_find_backend_detects_and_rolls_back_bursts_too() {
        let config = PipelineConfig::new(7, 1e-3)
            .with_matcher(MatcherKind::UnionFind)
            .with_detection_window(60)
            .with_count_threshold(8)
            .with_assumed_anomaly_size(2);
        assert_eq!(config.matcher, MatcherKind::UnionFind);
        let mut pipeline = Q3dePipeline::new(config).unwrap();
        let region = AnomalousRegion::new(Coord::new(4, 4), 2, 100, 100_000, 0.5);
        let noise = NoiseModel::uniform(1e-3).with_anomaly(region);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let history = sampled_history(&pipeline, &noise, 400, &mut rng);
        let report = pipeline.process_window(&history, 0);
        assert!(report.reacted(), "the burst must be detected");
        assert!(report.decoding.was_rolled_back());
        assert_eq!(pipeline.pending_expansions(), 1);
    }

    #[test]
    fn expansion_plan_covers_the_assumed_anomaly() {
        let pipeline = Q3dePipeline::new(PipelineConfig::new(9, 1e-3)).unwrap();
        let plan = pipeline.expansion_plan().unwrap();
        assert!(plan.covers_anomaly(pipeline.config().assumed_anomaly_size));
        assert!(plan.expanded().distance() >= 2 * 9);
        assert_eq!(pipeline.code().distance(), 9);
    }

    #[test]
    fn invalid_distance_is_rejected() {
        assert!(Q3dePipeline::new(PipelineConfig::new(1, 1e-3)).is_err());
    }

    #[test]
    fn builder_setters_cover_every_knob() {
        let config = PipelineConfig::new(5, 1e-3)
            .with_detection_window(77)
            .with_count_threshold(11)
            .with_assumed_anomaly_size(3)
            .with_assumed_anomalous_rate(0.4)
            .with_expansion_keep_cycles(12_345)
            .with_matcher(MatcherKind::Greedy)
            .with_logical_id(LogicalQubitId(9));
        assert_eq!(config.detection_window, 77);
        assert_eq!(config.count_threshold, 11);
        assert_eq!(config.assumed_anomaly_size, 3);
        assert_eq!(config.assumed_anomalous_rate, 0.4);
        assert_eq!(config.expansion_keep_cycles, 12_345);
        assert_eq!(config.matcher, MatcherKind::Greedy);
        assert_eq!(config.logical_id, LogicalQubitId(9));
        // d_exp ≥ d + 2·d_ano, rounded up to the doubling policy.
        assert_eq!(config.expansion_distance(), 11);
        assert_eq!(
            PipelineConfig::new(5, 1e-3)
                .with_assumed_anomaly_size(4)
                .expansion_distance(),
            13
        );
    }
}
