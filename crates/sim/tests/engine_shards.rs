//! Integration tests of the shard protocol: the merge layer's algebraic
//! properties (associativity, commutativity, duplicate idempotence) and
//! the bit-identity of a 3-shard merged sweep with a single-process run,
//! over every kernel family (per-shot, packed, chip).

use q3de_sim::engine::{
    Coordinator, DeltaSink, EngineError, EpochGate, ShardPlan, ShardWorker, SweepConfig,
    SweepPoint, TallyDelta,
};
use q3de_sim::{ChipMemoryExperimentConfig, DecodingStrategy, MemoryExperimentConfig};
use rand_chacha::ChaCha8Rng;

/// A sink that collects deltas without gating (the file-transport shape).
#[derive(Default)]
struct Collect(Vec<TallyDelta>);

impl DeltaSink for Collect {
    fn submit(&mut self, delta: TallyDelta) -> Result<(), EngineError> {
        self.0.push(delta);
        Ok(())
    }

    fn gate(&mut self, _point: usize, _epoch: usize) -> Result<EpochGate, EngineError> {
        Ok(EpochGate::Run)
    }
}

/// Runs every shard of `plan` against `points` and returns all deltas.
fn run_all_shards(plan: &ShardPlan, points: &[SweepPoint]) -> Vec<TallyDelta> {
    let mut deltas = Vec::new();
    for shard in 0..plan.num_shards {
        let mut sink = Collect::default();
        ShardWorker::new(plan, shard)
            .run(points, &[], &mut sink)
            .unwrap();
        deltas.extend(sink.0);
    }
    deltas
}

/// The merged tallies of a delta set, as `(shots, failures)` per point.
fn merged_tallies(plan: &ShardPlan, deltas: &[&TallyDelta]) -> Vec<(usize, usize)> {
    let mut coordinator = Coordinator::new(plan.clone());
    for delta in deltas {
        coordinator.submit(delta).unwrap();
    }
    assert!(coordinator.all_finished(), "fold left the sweep incomplete");
    coordinator
        .progress()
        .into_iter()
        .map(|(shots, failures, _, _)| (shots, failures))
        .collect()
}

/// A deterministic xorshift shuffle (tests must not depend on OS entropy).
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

fn toy_points() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new("p7", |s: u64| s.is_multiple_of(7)),
        SweepPoint::new("p3", |s: u64| s.is_multiple_of(3)),
        SweepPoint::new("p11", |s: u64| s % 11 == 5),
    ]
}

#[test]
fn merge_is_commutative_and_order_independent() {
    let config = SweepConfig {
        shot_floor: 32,
        ..SweepConfig::fixed(300)
    };
    let points = toy_points();
    let plan = ShardPlan::new(&config, &points, None, 4);
    let deltas = run_all_shards(&plan, &points);

    let mut ordered: Vec<&TallyDelta> = deltas.iter().collect();
    let reference = merged_tallies(&plan, &ordered);
    // Any permutation of the fold — reversed, rotated, shuffled — commits
    // the same tallies.
    ordered.reverse();
    assert_eq!(merged_tallies(&plan, &ordered), reference);
    ordered.rotate_left(deltas.len() / 3);
    assert_eq!(merged_tallies(&plan, &ordered), reference);
    for seed in 1..=5u64 {
        shuffle(&mut ordered, seed);
        assert_eq!(merged_tallies(&plan, &ordered), reference, "shuffle {seed}");
    }
}

#[test]
fn merge_is_associative_across_groupings() {
    let config = SweepConfig {
        shot_floor: 32,
        ..SweepConfig::fixed(300)
    };
    let points = toy_points();
    let plan = ShardPlan::new(&config, &points, None, 3);
    let deltas = run_all_shards(&plan, &points);
    let reference = merged_tallies(&plan, &deltas.iter().collect::<Vec<_>>());

    // Fold in arbitrary group splits: (A ∪ B) ∪ C == A ∪ (B ∪ C) == all.
    for split in [1, deltas.len() / 2, deltas.len() - 1] {
        let (left, right) = deltas.split_at(split);
        let mut coordinator = Coordinator::new(plan.clone());
        coordinator.submit_all(left).unwrap();
        coordinator.submit_all(right).unwrap();
        let grouped: Vec<(usize, usize)> = coordinator
            .progress()
            .into_iter()
            .map(|(shots, failures, _, _)| (shots, failures))
            .collect();
        assert_eq!(grouped, reference, "split at {split}");
    }
}

#[test]
fn merge_counts_duplicate_deltas_once() {
    let config = SweepConfig {
        shot_floor: 32,
        ..SweepConfig::fixed(200)
    };
    let points = toy_points();
    let plan = ShardPlan::new(&config, &points, None, 2);
    let deltas = run_all_shards(&plan, &points);
    let reference = merged_tallies(&plan, &deltas.iter().collect::<Vec<_>>());

    // A restarted worker re-submits its committed deltas: every delta
    // twice still commits every tally once.
    let doubled: Vec<&TallyDelta> = deltas.iter().chain(deltas.iter()).collect();
    assert_eq!(merged_tallies(&plan, &doubled), reference);

    // A *conflicting* duplicate (same block, different tally) is refused.
    let mut conflicting = deltas[0].clone();
    conflicting.failures = conflicting.shots;
    conflicting.shots += 0; // same block coordinates, different count
    let mut coordinator = Coordinator::new(plan.clone());
    coordinator.submit(&deltas[0]).unwrap();
    if conflicting.failures != deltas[0].failures {
        assert!(coordinator.submit(&conflicting).is_err());
    }
}

#[test]
fn stale_plan_deltas_are_refused() {
    let config = SweepConfig {
        shot_floor: 32,
        ..SweepConfig::fixed(200)
    };
    let points = toy_points();
    let plan = ShardPlan::new(&config, &points, None, 2);
    let stale_plan = ShardPlan::new(&config, &points, None, 3);
    let stale = run_all_shards(&stale_plan, &points);

    // The coordinator refuses deltas fingerprinted by another plan...
    let mut coordinator = Coordinator::new(plan.clone());
    let refusal = coordinator.submit(&stale[0]).unwrap_err();
    assert!(matches!(refusal, EngineError::CheckpointMismatch { .. }));

    // ...and a worker refuses to resume from another plan's checkpoint.
    let worker = ShardWorker::new(&plan, 0);
    let resumed = worker.run(&points, &stale[..1], &mut Collect::default());
    assert!(matches!(
        resumed,
        Err(EngineError::CheckpointMismatch { .. })
    ));
}

#[test]
fn killed_shard_resumes_from_its_deltas_without_rerunning() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let shots_run = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&shots_run);
    let points = vec![SweepPoint::new("counted", move |s: u64| {
        counter.fetch_add(1, Ordering::Relaxed);
        s.is_multiple_of(5)
    })];
    // A fine batch grid so both shards own non-empty slices of the small
    // early blocks (cuts snap to the batch grid).
    let config = SweepConfig {
        shot_floor: 32,
        ..SweepConfig::fixed(256).with_batch_size(8)
    };
    let plan = ShardPlan::new(&config, &points, None, 2);

    /// A sink whose transport "dies" after two committed blocks.
    struct Dying {
        committed: Vec<TallyDelta>,
    }
    impl DeltaSink for Dying {
        fn submit(&mut self, delta: TallyDelta) -> Result<(), EngineError> {
            if self.committed.len() >= 2 {
                return Err(EngineError::CheckpointMismatch {
                    reason: "transport died".into(),
                });
            }
            self.committed.push(delta);
            Ok(())
        }
        fn gate(&mut self, _: usize, _: usize) -> Result<EpochGate, EngineError> {
            Ok(EpochGate::Run)
        }
    }

    let mut dying = Dying {
        committed: Vec::new(),
    };
    assert!(ShardWorker::new(&plan, 0)
        .run(&points, &[], &mut dying)
        .is_err());
    let after_crash = shots_run.load(Ordering::Relaxed);
    let committed_shots: usize = dying.committed.iter().map(|d| d.shots).sum();
    assert!(
        committed_shots > 0,
        "the worker committed blocks before dying"
    );

    // The restarted worker replays the committed deltas instead of
    // re-running their kernels, so it only runs the remaining blocks.
    let mut sink = Collect::default();
    ShardWorker::new(&plan, 0)
        .run(&points, &dying.committed, &mut sink)
        .unwrap();
    let rerun = shots_run.load(Ordering::Relaxed) - after_crash;
    let shard_total: usize = sink.0.iter().map(|d| d.shots).sum();
    assert_eq!(
        rerun,
        shard_total - committed_shots,
        "committed blocks must not run again"
    );

    // Together with shard 1, the resumed run merges to the full sweep.
    let mut coordinator = Coordinator::new(plan.clone());
    coordinator.submit_all(&sink.0).unwrap();
    let mut other = Collect::default();
    ShardWorker::new(&plan, 1)
        .run(&points, &[], &mut other)
        .unwrap();
    coordinator.submit_all(&other.0).unwrap();
    assert!(coordinator.all_finished());
    let (shots, failures, _, _) = coordinator.progress()[0];
    assert_eq!(shots, 256);
    assert_eq!(failures, (0..256u64).filter(|s| s % 5 == 0).count());
}

/// The real acceptance property: a 3-shard merge is bit-identical to a
/// single-process run, for every kernel family the engine schedules.
#[test]
fn three_shard_merge_is_bit_identical_to_single_process_per_kernel_family() {
    let memory = MemoryExperimentConfig::new(3, 0.02);
    let chip = ChipMemoryExperimentConfig::new(1, 2, MemoryExperimentConfig::new(3, 0.015));
    let points = || -> Vec<SweepPoint> {
        vec![
            SweepPoint::from_memory::<ChaCha8Rng>(
                "memory/per-shot",
                memory,
                DecodingStrategy::MbbeFree,
                11,
            )
            .unwrap(),
            SweepPoint::from_memory_packed::<ChaCha8Rng>(
                "memory/packed",
                memory,
                DecodingStrategy::MbbeFree,
                12,
            )
            .unwrap(),
            SweepPoint::from_chip::<ChaCha8Rng>("chip", chip, DecodingStrategy::MbbeFree, 13)
                .unwrap(),
        ]
    };
    let config = SweepConfig {
        shot_floor: 64,
        ..SweepConfig::fixed(192)
    };

    // Single-process reference (the engine is itself shard-based, so run
    // it single-threaded for a 1-shard plan).
    let single = q3de_sim::engine::SweepRunner::new(config.clone().with_threads(1))
        .run(points())
        .unwrap();

    // 3 independent shards, merged through a fresh coordinator.
    let plan = ShardPlan::new(&config, &points(), None, 3);
    let mut coordinator = Coordinator::new(plan.clone());
    let deltas = run_all_shards(&plan, &points());
    coordinator.submit_all(&deltas).unwrap();
    let merged = coordinator.report(0.0, 3).unwrap();

    assert_eq!(single.points.len(), merged.points.len());
    for (a, b) in single.points.iter().zip(&merged.points) {
        assert_eq!(a.id, b.id);
        assert_eq!((a.shots, a.failures), (b.shots, b.failures), "{}", a.id);
        assert_eq!(a.converged, b.converged, "{}", a.id);
        assert_eq!(a.resumed_shots, b.resumed_shots, "{}", a.id);
    }
}

/// Same bit-identity under adaptive early stopping: the coordinator stops
/// each point at the same doubling boundary a single-process run does.
#[test]
fn adaptive_three_shard_merge_matches_single_process() {
    let points = || {
        vec![
            SweepPoint::new("often", |s: u64| s.is_multiple_of(2)),
            SweepPoint::new("rare", |s: u64| s.is_multiple_of(97)),
        ]
    };
    let config = SweepConfig {
        shot_floor: 32,
        ..SweepConfig::adaptive(32, 2048, 0.2)
    };
    let single = q3de_sim::engine::SweepRunner::new(config.clone().with_threads(1))
        .run(points())
        .unwrap();

    // Gate-free shards run the whole schedule (the file transport); the
    // merge discards blocks past each point's stop boundary.
    let plan = ShardPlan::new(&config, &points(), None, 3);
    let mut coordinator = Coordinator::new(plan.clone());
    coordinator
        .submit_all(&run_all_shards(&plan, &points()))
        .unwrap();
    let merged = coordinator.report(0.0, 3).unwrap();

    for (a, b) in single.points.iter().zip(&merged.points) {
        assert_eq!((a.shots, a.failures), (b.shots, b.failures), "{}", a.id);
        assert_eq!(a.converged, b.converged, "{}", a.id);
    }
}
