//! Differential test: persistent decoder contexts vs fresh-per-call
//! decoding.
//!
//! The zero-rebuild decode path caches the space-time graph inside a
//! [`DecoderContext`] and re-weights it in place across windows and shots.
//! That reuse must be *bit-identical* — corrections, costs, failure flags
//! and re-execution outcomes all exactly equal to what a decoder built from
//! scratch for every call produces — for all three matching backends, with
//! the weight model flipping between uniform and anomaly-aware mid-stream,
//! and across overlapping-strike rollback sequences.  Debug builds
//! additionally run the decoder crate's stale-weight assertions, so this
//! test doubles as the stale-cache tripwire in the CI debug matrix.

use q3de::decoder::{DecoderConfig, DecoderContext, MatcherKind, WeightModel};
use q3de::lattice::{Coord, ErrorKind};
use q3de::noise::AnomalousRegion;
use q3de::sim::{AnomalyInjection, DecodingStrategy, MemoryExperiment, MemoryExperimentConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const STREAMS: usize = 100;

/// One reused context per (backend, distance), decoding 100 seeded streams
/// with the weight model alternating every stream — each decode is checked
/// against a cold context built just for that call.
#[test]
fn reused_context_is_bit_identical_to_fresh_decoding() {
    for kind in MatcherKind::ALL {
        for d in [3usize, 5, 7] {
            let config = MemoryExperimentConfig::new(d, 1e-2)
                .with_matcher(kind)
                .with_anomaly(AnomalyInjection::centered(2, 0.5));
            let experiment = MemoryExperiment::new(config).expect("valid distance");
            let graph = experiment.code().matching_graph(ErrorKind::X);
            let aware = experiment.weight_model(DecodingStrategy::AnomalyAware);
            let uniform = WeightModel::uniform(1e-2);
            let mut reused = DecoderContext::new(DecoderConfig::default().with_matcher(kind));
            for stream in 0..STREAMS {
                let mut rng =
                    ChaCha8Rng::seed_from_u64(0x5EED ^ (d as u64 * 1_000_003 + stream as u64));
                let (history, parity) =
                    experiment.sample_history(DecodingStrategy::AnomalyAware, &mut rng);
                // Alternate models so the in-place re-weight path (uniform →
                // aware → uniform …) is exercised on every second stream.
                let model = if stream % 2 == 0 { &aware } else { &uniform };
                let reused_out = reused.decode(&graph, &history, model);
                let fresh_out = DecoderContext::new(DecoderConfig::default().with_matcher(kind))
                    .decode(&graph, &history, model);
                assert_eq!(
                    reused_out, fresh_out,
                    "{kind:?} d={d} stream {stream}: reused context diverged"
                );
                assert_eq!(
                    reused_out.is_logical_failure(parity),
                    fresh_out.is_logical_failure(parity)
                );
            }
            // The window shape never changed, so the reused context must
            // have built its graph exactly once (quiet streams decode
            // without touching the cache at all).
            assert!(
                reused.graph_builds() <= 1,
                "{kind:?} d={d}: cache was rebuilt {} times",
                reused.graph_builds()
            );
        }
    }
}

/// The rollback hot path: one long-lived `DecoderContext` per backend
/// replaying a sequence of windows whose detected regions appear, overlap,
/// swap and vanish — against a fresh decoder per call.
#[test]
fn reused_rollback_matches_fresh_across_overlapping_strike_sequences() {
    let p = 8e-3;
    for kind in MatcherKind::ALL {
        for d in [5usize, 7] {
            let config = MemoryExperimentConfig::new(d, p).with_matcher(kind);
            let experiment = MemoryExperiment::new(config).expect("valid distance");
            let graph = experiment.code().matching_graph(ErrorKind::X);
            // Two strikes whose footprints overlap on the patch interior,
            // plus a later-onset variant so window_start_cycle matters.
            let strike_a = AnomalousRegion::new(Coord::new(0, 2), 2, 0, 100, 0.5);
            let strike_b = AnomalousRegion::new(Coord::new(2, 2), 2, 0, 100, 0.5);
            let late_b = AnomalousRegion::new(Coord::new(2, 2), 2, 3, 100, 0.5);
            let sequence: Vec<(Option<Vec<AnomalousRegion>>, u64)> = vec![
                (None, 0),
                (Some(vec![strike_a]), 0),
                (Some(vec![strike_a, strike_b]), 0),
                (Some(vec![strike_b]), 0),
                (None, 0),
                (Some(vec![strike_a, late_b]), 2),
                (Some(vec![strike_a, strike_b]), 0),
            ];
            let decoder_config = DecoderConfig::default().with_matcher(kind);
            let mut reused = DecoderContext::new(decoder_config);
            for round in 0..3u64 {
                for (step, (regions, window_start)) in sequence.iter().enumerate() {
                    let mut rng = ChaCha8Rng::seed_from_u64(
                        0xCA11 ^ (d as u64) << 32 ^ round << 8 ^ step as u64,
                    );
                    let (history, parity) =
                        experiment.sample_history(DecodingStrategy::MbbeFree, &mut rng);
                    let regions = regions.as_deref();
                    let reused_out =
                        reused.decode_with_rollback(&graph, p, &history, regions, *window_start);
                    let fresh_out = DecoderContext::new(decoder_config).decode_with_rollback(
                        &graph,
                        p,
                        &history,
                        regions,
                        *window_start,
                    );
                    assert_eq!(
                        reused_out, fresh_out,
                        "{kind:?} d={d} round {round} step {step}: rollback diverged"
                    );
                    assert_eq!(
                        reused_out.final_outcome().is_logical_failure(parity),
                        fresh_out.final_outcome().is_logical_failure(parity)
                    );
                    assert_eq!(
                        reused_out.was_rolled_back(),
                        regions.is_some_and(|r| !r.is_empty())
                    );
                }
            }
            assert!(
                reused.graph_builds() <= 1,
                "{kind:?} d={d}: rollback sequence rebuilt the graph {} times",
                reused.graph_builds()
            );
        }
    }
}

/// One context dragged through distance and window-depth changes — every
/// structural change invalidates the cache, and decoding still matches a
/// cold context exactly.
#[test]
fn context_survives_structural_churn() {
    for kind in MatcherKind::ALL {
        let mut reused = DecoderContext::new(DecoderConfig::default().with_matcher(kind));
        for (d, rounds, seed) in [(3usize, 3usize, 1u64), (7, 7, 2), (3, 3, 3), (5, 9, 4)] {
            let config = MemoryExperimentConfig::new(d, 2e-2)
                .with_matcher(kind)
                .with_rounds(rounds);
            let experiment = MemoryExperiment::new(config).expect("valid distance");
            let graph = experiment.code().matching_graph(ErrorKind::X);
            let model = WeightModel::uniform(2e-2);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (history, _) = experiment.sample_history(DecodingStrategy::MbbeFree, &mut rng);
            let reused_out = reused.decode(&graph, &history, &model);
            let fresh_out = DecoderContext::new(DecoderConfig::default().with_matcher(kind))
                .decode(&graph, &history, &model);
            assert_eq!(reused_out, fresh_out, "{kind:?} d={d} rounds={rounds}");
        }
    }
}
