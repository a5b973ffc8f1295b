//! Differential suite: the bit-packed batch path vs the scalar oracle.
//!
//! The packed kernel (`PackedShotBatch`) samples 64 shots per machine word
//! and decodes only eventful lanes; the scalar path is the reference.  For
//! every configuration the suite replays the *identical* packed-sampled
//! noise realization of each lane through the scalar parity/decode
//! machinery (`PackedShotBatch::replay_lane_scalar`) and requires the
//! failure verdicts — and therefore the failure counts — to match
//! bit-for-bit.  Covered axes, per the issue: d ∈ {3, 5, 7}, uniform and
//! burst noise, all three decoding strategies, and shot counts that are
//! not multiples of 64 (tail-group lane masking).

use q3de::sim::{
    AnomalyInjection, DecodingStrategy, EstimateResult, MemoryExperiment, MemoryExperimentConfig,
    PackedShotBatch, SweepConfig, SweepPoint, SweepRunner,
};
use rand_chacha::ChaCha8Rng;

const STRATEGIES: [DecodingStrategy; 3] = [
    DecodingStrategy::MbbeFree,
    DecodingStrategy::Blind,
    DecodingStrategy::AnomalyAware,
];

/// Packed-vs-scalar comparison for one configuration: every lane's packed
/// failure bit must equal the scalar replay of the same noise realization,
/// and the aggregate estimates (the sequential batch estimate and a
/// multi-threaded sweep of the same batch) must count exactly those
/// failures.
fn assert_packed_matches_scalar_replay(
    config: MemoryExperimentConfig,
    strategy: DecodingStrategy,
    base_seed: u64,
    shots: usize,
) {
    let experiment = MemoryExperiment::new(config).expect("valid distance");
    let packed: PackedShotBatch<ChaCha8Rng> = experiment.packed(strategy, base_seed);

    let mut scalar_failures = 0usize;
    for group in 0..shots.div_ceil(64) as u64 {
        let mask = packed.run_group(group);
        let lanes_in_group = (shots - group as usize * 64).min(64);
        for lane in 0..lanes_in_group {
            let stream = group * 64 + lane as u64;
            let packed_failed = (mask >> lane) & 1 == 1;
            let scalar_failed = packed.replay_lane_scalar(stream);
            assert_eq!(
                packed_failed, scalar_failed,
                "d={} strategy={strategy:?} seed={base_seed} stream={stream}: \
                 packed and scalar verdicts diverge",
                config.distance
            );
            scalar_failures += usize::from(scalar_failed);
        }
    }

    let sequential = packed.estimate(shots);
    assert_eq!(
        sequential.failures, scalar_failures,
        "d={} strategy={strategy:?}: estimate must count the per-lane verdicts",
        config.distance
    );
    assert_eq!(sequential.shots, shots);
    let report = SweepRunner::new(SweepConfig::fixed(shots).with_threads(3))
        .run(vec![SweepPoint::new_packed("packed", packed)])
        .expect("in-memory sweep");
    let swept = report.point("packed").expect("point ran");
    assert_eq!(
        (swept.shots, swept.failures),
        (sequential.shots, sequential.failures),
        "d={} strategy={strategy:?}: sequential and swept estimates diverge",
        config.distance
    );
}

#[test]
fn packed_matches_scalar_under_uniform_noise() {
    // lane counts deliberately not divisible by 64
    for (distance, shots) in [(3, 130), (5, 70), (7, 65)] {
        let config = MemoryExperimentConfig::new(distance, 2e-2);
        assert_packed_matches_scalar_replay(
            config,
            DecodingStrategy::MbbeFree,
            0xD1FF ^ distance as u64,
            shots,
        );
    }
}

#[test]
fn packed_matches_scalar_under_burst_noise_all_strategies() {
    for distance in [3usize, 5, 7] {
        let config = MemoryExperimentConfig::new(distance, 5e-3)
            .with_anomaly(AnomalyInjection::centered(2, 0.5));
        for (i, strategy) in STRATEGIES.into_iter().enumerate() {
            assert_packed_matches_scalar_replay(
                config,
                strategy,
                0xB0B0 + distance as u64,
                67 + i, // straddles one group, never a multiple of 64
            );
        }
    }
}

#[test]
fn packed_failure_rates_track_the_scalar_path_statistically() {
    // The packed path uses its own RNG discipline, so counts are not
    // shot-for-shot equal to the scalar stream set — but over enough shots
    // the two estimators must agree within a few standard errors.
    let config = MemoryExperimentConfig::new(3, 2e-2);
    let experiment = MemoryExperiment::new(config).unwrap();
    let shots = 8000;
    let packed = experiment
        .packed::<ChaCha8Rng>(DecodingStrategy::MbbeFree, 7)
        .estimate(shots);
    // The scalar side is streams 0..shots at base seed 7 on the sweep engine.
    let report = SweepRunner::new(SweepConfig::fixed(shots))
        .run(vec![SweepPoint::from_memory::<ChaCha8Rng>(
            "scalar",
            config,
            DecodingStrategy::MbbeFree,
            7,
        )
        .expect("valid distance")])
        .expect("in-memory sweep");
    let point = report.point("scalar").expect("point ran");
    let scalar = EstimateResult {
        shots: point.shots,
        failures: point.failures,
        rounds: config.effective_rounds(),
    };
    let sigma = (packed.standard_error().powi(2) + scalar.standard_error().powi(2)).sqrt();
    let delta = (packed.logical_error_rate() - scalar.logical_error_rate()).abs();
    assert!(
        delta < 5.0 * sigma.max(1e-3),
        "packed rate {} vs scalar rate {} (delta {delta}, sigma {sigma})",
        packed.logical_error_rate(),
        scalar.logical_error_rate()
    );
}
