//! End-to-end pipeline test: a cosmic-ray strike sampled from the
//! `CosmicRayProcess` is injected into the syndrome stream, the
//! `Q3dePipeline` must detect it, request `op_expand` code deformation, and
//! rollback re-decoding must beat the non-Q3DE (blind) baseline on the same
//! syndrome stream.

use q3de::control::Instruction;
use q3de::decoder::{DecoderConfig, DecoderContext, MatcherKind, SyndromeHistory};
use q3de::lattice::{Coord, ErrorKind, Pauli, PauliString, StabilizerKind, SurfaceCode};
use q3de::noise::{AnomalousRegion, CosmicRayProcess, NoiseModel, PhysicalParams};
use q3de::pipeline::{PipelineConfig, Q3dePipeline};
use q3de::sim::{AnomalyInjection, DecodingStrategy, MemoryExperiment, MemoryExperimentConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Physical parameters that make strikes frequent (so the test samples an
/// event quickly) with a burst that fits on a distance-7 patch.
fn strike_params() -> PhysicalParams {
    PhysicalParams {
        anomaly_size: 2,
        anomalous_error_rate: 0.5,
        anomaly_frequency_hz: 1e5,
        code_cycle_s: 1e-6,      // p_strike = 0.1 per cycle
        anomaly_duration_s: 0.1, // 100_000 cycles
        ..PhysicalParams::default()
    }
}

/// Draws the first cosmic-ray strike the Poisson process produces.
fn first_strike(rng: &mut ChaCha8Rng) -> q3de::noise::CosmicRayEvent {
    // Grid of a distance-7 planar code: (2·7 − 1) × (2·7 − 1) sites.
    let mut process = CosmicRayProcess::new(strike_params(), 13, 13);
    for _ in 0..10_000 {
        if let Some(event) = process.advance(rng) {
            return event;
        }
    }
    panic!("the cosmic-ray process produced no strike in 10k cycles at p = 0.1/cycle");
}

/// Draws strikes under `params` until one lands in the bulk of the patch
/// (the regime the paper evaluates: edge strikes barely perturb the logical
/// qubit).
fn first_bulk_strike(params: PhysicalParams, rng: &mut ChaCha8Rng) -> q3de::noise::CosmicRayEvent {
    let patch_center = q3de::lattice::Coord::new(6, 6);
    let mut process = CosmicRayProcess::new(params, 13, 13);
    for _ in 0..100_000 {
        if let Some(event) = process.advance(rng) {
            if event.region.center().chebyshev(patch_center) <= 2 {
                return event;
            }
        }
    }
    panic!("no bulk strike in 100k cycles at p = 0.1/cycle");
}

/// Samples a syndrome history for the pipeline's graph under `noise`.
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
fn strike_is_detected_and_triggers_op_expand_and_rollback() {
    let mut rng = ChaCha8Rng::seed_from_u64(2022);
    let event = first_strike(&mut rng);
    let size = event.region.size();
    assert_eq!(
        size, 2,
        "the sampled strike should carry the configured burst size"
    );

    // Re-anchor the sampled strike at cycle 100 of a 400-cycle window so the
    // detector sees both quiet and anomalous statistics.
    let top_left = event
        .region
        .center()
        .offset(-(size as i32) + 1, -(size as i32) + 1);
    let burst = AnomalousRegion::new(top_left, size, 100, 100_000, event.region.anomalous_rate());

    let config = PipelineConfig::new(7, 1e-3)
        .with_detection_window(60)
        .with_count_threshold(8)
        .with_assumed_anomaly_size(size);
    let mut pipeline = Q3dePipeline::new(config).expect("valid configuration");

    let noise = NoiseModel::uniform(1e-3).with_anomaly(burst);
    let history = sampled_history(&pipeline, &noise, 400, &mut rng);
    let report = pipeline.process_window(&history, 0);

    // 1. In-situ anomaly DEtection.
    assert!(report.reacted(), "the pipeline must detect the burst");
    let detection = report.detection.as_ref().expect("detection present");
    assert!(
        detection.detection_cycle >= 100,
        "detection cannot precede the onset"
    );
    assert!(
        detection.estimated_center.chebyshev(burst.center()) <= 6,
        "the estimated centre {:?} should be near the true centre {:?}",
        detection.estimated_center,
        burst.center()
    );

    // 2. Dynamic code DEformation: an op_expand instruction is emitted and
    //    queued, and the implied plan covers the assumed anomaly.
    assert!(
        matches!(
            report.expansion_instruction,
            Some(Instruction::OpExpand { .. })
        ),
        "a detection must emit op_expand, got {:?}",
        report.expansion_instruction
    );
    assert_eq!(pipeline.pending_expansions(), 1);
    let plan = pipeline.expansion_plan().expect("valid expansion plan");
    assert!(
        plan.covers_anomaly(size),
        "the expanded code must cover the burst"
    );
    assert!(
        plan.expanded().distance() >= 7 + 2 * size,
        "d_exp >= d + 2*d_ano"
    );
    let request = pipeline.pop_expansion_request().expect("queued request");
    assert_eq!(request.keep_cycles, pipeline.config().expansion_keep_cycles);

    // 3. Optimized error DEcoding: the decoder rolled back and re-executed
    //    with anomaly-aware weights.
    assert!(
        report.decoding.was_rolled_back(),
        "decoding must re-execute after a detection"
    );
}

#[test]
fn back_to_back_strikes_are_redecoded_together() {
    // Two overlapping strikes within one `expansion_keep_cycles` window:
    // region A (onset cycle 0) is still active when region B lands at cycle
    // 20, and the decoded window at cycle 25 sees both.  Rollback
    // re-decoding must consume *both* regions' re-weighted costs at once,
    // for every matching backend.
    let code = SurfaceCode::new(7).expect("valid distance");
    let graph = code.matching_graph(ErrorKind::X);
    let keep_cycles = 100u64; // one expansion keep window
    let region_a = AnomalousRegion::new(Coord::new(0, 2), 4, 0, keep_cycles, 0.5);
    let region_b = AnomalousRegion::new(Coord::new(8, 2), 2, 20, keep_cycles, 0.5);
    let window_start = 25u64;
    assert!(
        region_a.affects(Coord::new(0, 2), window_start)
            && region_b.affects(Coord::new(8, 2), window_start),
        "both strikes must be active in the decoded window"
    );

    // Burst damage: a wide chain inside region A (weight 4 >= d/2, so blind
    // decoding mis-matches it to the boundaries) plus a short chain inside
    // region B (weight 2, harmless on its own but re-weighted by rollback).
    let error: PauliString = [
        (Coord::new(0, 2), Pauli::X),
        (Coord::new(0, 4), Pauli::X),
        (Coord::new(0, 6), Pauli::X),
        (Coord::new(0, 8), Pauli::X),
        (Coord::new(8, 2), Pauli::X),
        (Coord::new(8, 4), Pauli::X),
    ]
    .into_iter()
    .collect();
    let syndrome = code.syndrome(StabilizerKind::Z, &error);
    let mut history = SyndromeHistory::new(graph.num_nodes());
    for _ in 0..3 {
        history.push_layer(&syndrome);
    }
    let parity = code
        .logical_z_support()
        .iter()
        .filter(|&&q| error.get(q).has_x_component())
        .count()
        % 2
        == 1;

    let regions = [region_a, region_b];
    for kind in MatcherKind::ALL {
        let mut decoder = DecoderContext::new(DecoderConfig::default().with_matcher(kind));
        let outcome =
            decoder.decode_with_rollback(&graph, 1e-3, &history, Some(&regions), window_start);
        assert!(outcome.was_rolled_back(), "{kind:?}");
        assert!(
            outcome.first_pass.is_logical_failure(parity),
            "{kind:?}: the blind pass should mis-correct the wide burst chain"
        );
        assert!(
            !outcome.final_outcome().is_logical_failure(parity),
            "{kind:?}: re-decoding with both overlapping regions must fix the stream"
        );
        assert!(outcome.reexecution_changed_parity(), "{kind:?}");
    }
}

#[test]
fn rollback_redecoding_beats_the_blind_baseline_on_the_same_stream() {
    // A size-3 burst: a size-2 one leaves exact MWPM failing on only ~4%
    // of blind shots, too few to compare the two decoders on.
    let params = PhysicalParams {
        anomaly_size: 3,
        ..strike_params()
    };
    let mut seed_rng = ChaCha8Rng::seed_from_u64(7);
    let event = first_bulk_strike(params, &mut seed_rng);
    let size = event.region.size();
    let top_left = event
        .region
        .center()
        .offset(-(size as i32) + 1, -(size as i32) + 1);

    // Distance 7: its 13x13 grid is the plane the strike was sampled on, so
    // the burst is guaranteed to land on the patch.
    let config = MemoryExperimentConfig::new(7, 6e-3).with_anomaly(AnomalyInjection {
        size,
        rate: event.region.anomalous_rate(),
        origin: Some(top_left),
    });
    let experiment = MemoryExperiment::new(config).expect("valid distance");

    // Re-seeding per shot gives both strategies the *same* physical error
    // stream; only the decoding differs.  (Blind and AnomalyAware share the
    // same noise model, so shot i draws identical samples under both.)
    let shots = 1000usize;
    let failures = |strategy: DecodingStrategy| {
        (0..shots)
            .filter(|&shot| {
                let mut rng = ChaCha8Rng::seed_from_u64(0xE2E + shot as u64);
                experiment.run_shot(strategy, &mut rng).logical_failure
            })
            .count()
    };

    let blind = failures(DecodingStrategy::Blind);
    let aware = failures(DecodingStrategy::AnomalyAware);
    assert!(
        2 * aware <= blind,
        "rollback re-decoding ({aware}/{shots} failures) must at least halve the \
         blind baseline's failures ({blind}/{shots}) on the same syndrome stream"
    );
    // The burst must actually be doing damage, or the comparison is vacuous.
    assert!(
        blind * 10 >= shots,
        "the blind baseline should fail on >= 10% of burst shots, got {blind}/{shots}"
    );
}
