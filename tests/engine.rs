//! Acceptance tests of the sweep engine (ISSUE 4): checkpoint/resume
//! bit-identity, adaptive-mode statistical agreement with fixed-shot runs,
//! and machine-independence of the scheduler.

use std::path::PathBuf;

use q3de::sim::engine::{EngineError, ShardPlan, SweepConfig, SweepPoint, SweepRunner};
use q3de::sim::{
    AnomalyInjection, ChipMemoryExperimentConfig, ChipStrikePolicy, DecodingStrategy,
    MemoryExperiment, MemoryExperimentConfig,
};
use rand_chacha::ChaCha8Rng;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("q3de-engine-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn memory_points() -> Vec<SweepPoint> {
    // Two memory points and one chip point — the three kernel families the
    // figure binaries sweep.
    let quiet = MemoryExperimentConfig::new(3, 2e-2);
    let burst =
        MemoryExperimentConfig::new(5, 8e-3).with_anomaly(AnomalyInjection::centered(2, 0.5));
    let chip = ChipMemoryExperimentConfig::new(2, 2, MemoryExperimentConfig::new(3, 8e-3))
        .with_strike(ChipStrikePolicy::Random {
            probability: 0.5,
            size: 2,
            rate: 0.5,
        });
    vec![
        SweepPoint::from_memory::<ChaCha8Rng>("quiet", quiet, DecodingStrategy::MbbeFree, 0xA)
            .unwrap(),
        SweepPoint::from_memory::<ChaCha8Rng>("burst", burst, DecodingStrategy::Blind, 0xB)
            .unwrap(),
        SweepPoint::from_chip::<ChaCha8Rng>("chip", chip, DecodingStrategy::Blind, 0xC).unwrap(),
    ]
}

#[test]
fn resumed_sweep_is_bit_identical_to_an_uninterrupted_one() {
    let path = temp_path("resume.json");
    let _ = std::fs::remove_file(&path);

    // Uninterrupted reference: 256 shots per point.
    let reference = SweepRunner::new(SweepConfig::fixed(256))
        .run(memory_points())
        .unwrap();

    // "Killed" run: the same schedule truncated at its first block boundary
    // (64 shots) leaves exactly the checkpoint a killed 256-shot sweep
    // would have written after its first blocks.
    SweepRunner::new(SweepConfig::fixed(64).with_checkpoint(&path))
        .run(memory_points())
        .unwrap();
    let partial = ShardPlan::load(&path).unwrap();
    assert!(partial.points.iter().all(|p| p.base_shots == 64));

    // Resume with the full budget: statistics must match bit for bit.
    let resumed = SweepRunner::new(
        SweepConfig::fixed(256)
            .with_checkpoint(&path)
            .with_resume(true),
    )
    .run(memory_points())
    .unwrap();
    for (r, f) in resumed.points.iter().zip(&reference.points) {
        assert_eq!(r.id, f.id);
        assert_eq!(
            (r.shots, r.failures),
            (f.shots, f.failures),
            "point {} diverged after resume",
            r.id
        );
    }
    // The final checkpoint reflects the completed sweep and can be resumed
    // again as a no-op.
    let finished = ShardPlan::load(&path).unwrap();
    assert!(finished.points.iter().all(|p| p.base_shots == 256));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn adaptive_estimate_falls_inside_the_fixed_runs_wilson_interval() {
    // A rate around 36 % (size-3 strike); ceiling 2048, floor 64.  Blocks
    // end at 64, 128, ..., 1024 and 2048 shots; at rse 0.10 any rate in
    // about (27 %, 43 %) converges at the 1024 block, half the fixed run.
    let burst =
        MemoryExperimentConfig::new(5, 8e-3).with_anomaly(AnomalyInjection::centered(3, 0.5));
    let point =
        || SweepPoint::from_memory::<ChaCha8Rng>("p", burst, DecodingStrategy::Blind, 77).unwrap();

    let fixed = SweepRunner::new(SweepConfig::fixed(2048))
        .run(vec![point()])
        .unwrap();
    let adaptive = SweepRunner::new(SweepConfig::adaptive(64, 2048, 0.10))
        .run(vec![point()])
        .unwrap();

    let f = fixed.point("p").unwrap();
    let a = adaptive.point("p").unwrap();
    assert!(a.converged, "a ~36% point must converge at rse 0.10");
    assert!(
        2 * a.shots <= f.shots,
        "adaptive mode must stop by half the fixed run ({} vs {})",
        a.shots,
        f.shots
    );
    let (low, high) = f.wilson();
    let estimate = a.failure_rate();
    assert!(
        low <= estimate && estimate <= high,
        "adaptive estimate {estimate} outside the fixed run's interval [{low}, {high}]"
    );
    // And symmetrically, the fixed estimate lies in the adaptive interval.
    let (a_low, a_high) = a.wilson();
    assert!(
        a_low <= f.failure_rate() && f.failure_rate() <= a_high,
        "fixed estimate {} outside adaptive interval [{a_low}, {a_high}]",
        f.failure_rate()
    );
    // Because the adaptive tally is a prefix of the fixed stream set, it
    // must agree with a direct replay of those streams.
    let experiment = MemoryExperiment::new(burst).unwrap();
    let replay = (0..a.shots as u64)
        .filter(|&s| {
            experiment
                .run_stream::<ChaCha8Rng>(DecodingStrategy::Blind, 77, s)
                .logical_failure
        })
        .count();
    assert_eq!(a.failures, replay);
}

#[test]
fn sweep_statistics_are_independent_of_the_worker_count() {
    let run = |threads: usize| {
        let report = SweepRunner::new(SweepConfig::adaptive(32, 256, 0.2).with_threads(threads))
            .run(memory_points())
            .unwrap();
        report
            .points
            .iter()
            .map(|p| (p.id.clone(), p.shots, p.failures, p.converged))
            .collect::<Vec<_>>()
    };
    let reference = run(1);
    assert_eq!(run(2), reference);
    assert_eq!(run(7), reference);
}

#[test]
fn foreign_checkpoints_are_rejected_not_silently_merged() {
    let path = temp_path("foreign.json");
    let _ = std::fs::remove_file(&path);
    // Checkpoint a sweep over different points...
    SweepRunner::new(SweepConfig::fixed(64).with_checkpoint(&path))
        .run(vec![SweepPoint::new("other", |s: u64| s.is_multiple_of(5))])
        .unwrap();
    // ...then try to resume this sweep from it.
    let err = SweepRunner::new(
        SweepConfig::fixed(64)
            .with_checkpoint(&path)
            .with_resume(true),
    )
    .run(memory_points())
    .unwrap_err();
    assert!(
        matches!(err, EngineError::CheckpointMismatch { .. }),
        "expected a mismatch error, got: {err}"
    );
    std::fs::remove_file(&path).unwrap();
}
