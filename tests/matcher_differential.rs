//! Differential test: the default decoder (the exact alternating-tree
//! backend) vs the bitmask-DP oracle, and the approximate union-find
//! backend vs the tree, on seeded random syndrome streams.
//!
//! The tree backend is exact, so it is pinned by *total matching weight*:
//! on every window whose independent clusters all fit the oracle's DP
//! (`ExactBackend::try_decode` returns `Some`), its weight must equal the
//! oracle's.  On the remaining windows it must never be heavier than the
//! greedy backend, whose valid perfect matching bounds the optimum from
//! above.
//!
//! The union-find decoder must return a *valid perfect matching* of the
//! detection events (each event in exactly one pair or boundary match),
//! and its logical failures over 3000 streams must number at most twice
//! the tree's on the very same streams: uniform noise at d = 3, 5, 7 and
//! burst re-weighting at d = 5 in tier-1.  Under burst re-weighting at
//! d = 7 union-find fails 2.2x as often as the tree, so that case is an
//! ignored test that fails until the gap closes.
//!
//! Streams are sampled through `MemoryExperiment::sample_history` — the same
//! kernel every Monte-Carlo shot decodes — so the differential suite
//! exercises exactly the distribution the simulator sees.  A separate
//! tie-heavy random-graph loop (30k instances release-mode in CI's
//! `matcher-smoke` job, a 2k slice in tier-1) hammers the degenerate-optimum
//! regime where dual ties force blossom formation.

use q3de::decoder::{
    DecodeOutcome, DecoderConfig, MatcherKind, SpaceTimeGraph, SurfaceDecoder, SyndromeHistory,
    WeightModel,
};
use q3de::lattice::{ErrorKind, MatchingGraph};
use q3de::matching::{AltTreeBackend, DecoderBackend, ExactBackend, SyndromeGraph};
use q3de::sim::{AnomalyInjection, DecodingStrategy, MemoryExperiment, MemoryExperimentConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Streams per configuration for the weight pins (the oracle's DP is the
/// slow part).
const STREAMS: usize = 200;

/// Streams per configuration for union-find's logical-failure bound: the
/// exact tree fails on only a handful of 200 streams, too few for a count
/// ratio to mean anything.
const LER_STREAMS: usize = 3000;

/// Stream `stream` of configuration `d` under `salt`.
fn stream_rng(salt: u64, d: usize, stream: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(salt ^ (d as u64 * 1_000_003 + stream as u64))
}

/// Whether two matching weights agree to the suite's relative tolerance.
fn same_weight(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + b.abs())
}

/// The bitmask-DP oracle's matching weight for the window `outcome`
/// decoded, over the same space-time graph, or `None` when some
/// independent cluster is too large for the DP.
fn oracle_weight(
    oracle: &mut ExactBackend,
    graph: &MatchingGraph,
    history: &SyndromeHistory,
    model: &WeightModel,
    outcome: &DecodeOutcome,
) -> Option<f64> {
    let spacetime = SpaceTimeGraph::build(graph, history.num_layers(), model);
    let defects: Vec<usize> = outcome
        .events
        .iter()
        .map(|&event| spacetime.vertex_of(event))
        .collect();
    oracle
        .try_decode(spacetime.graph(), &defects)
        .map(|matching| matching.total_cost())
}

/// Asserts that the decode outcome is a valid perfect matching: every
/// detection event covered exactly once, never paired with itself.
fn assert_valid_matching(outcome: &DecodeOutcome, who: &str) {
    let mut coverage: HashMap<_, usize> = HashMap::new();
    for pair in &outcome.pairs {
        assert_ne!(pair.a, pair.b, "{who}: event paired with itself");
        *coverage.entry(pair.a).or_insert(0) += 1;
        *coverage.entry(pair.b).or_insert(0) += 1;
    }
    for &(event, _, _) in &outcome.boundary_matches {
        *coverage.entry(event).or_insert(0) += 1;
    }
    assert_eq!(
        coverage.len(),
        outcome.num_events(),
        "{who}: every event must be covered"
    );
    for &event in &outcome.events {
        assert_eq!(
            coverage.get(&event),
            Some(&1),
            "{who}: event {event} covered {} times",
            coverage.get(&event).copied().unwrap_or(0)
        );
    }
}

/// Pins the default decoder against the DP oracle on `STREAMS` streams of
/// one experiment configuration and returns the number of streams that hit
/// the weight *equality* pin (every cluster small enough for the DP).
fn differential(config: MemoryExperimentConfig, strategy: DecodingStrategy, salt: u64) -> usize {
    let experiment = MemoryExperiment::new(config).expect("valid distance");
    let graph = experiment.code().matching_graph(ErrorKind::X);
    let model = experiment.weight_model(strategy);
    let mut tree = SurfaceDecoder::with_config(&graph, DecoderConfig::default());
    let mut greedy = SurfaceDecoder::with_config(
        &graph,
        DecoderConfig::default().with_matcher(MatcherKind::Greedy),
    );
    let mut oracle = ExactBackend::default();
    let d = config.distance;
    let mut pinned = 0usize;
    for stream in 0..STREAMS {
        let (history, _) = experiment.sample_history(strategy, &mut stream_rng(salt, d, stream));
        let tree_out = tree.decode(&history, &model);
        assert_valid_matching(&tree_out, "tree");
        let tw = tree_out.total_weight;
        match oracle_weight(&mut oracle, &graph, &history, &model, &tree_out) {
            Some(ow) => {
                assert!(
                    same_weight(tw, ow),
                    "d={d} stream {stream}: tree weight {tw} != exact weight {ow} \
                     on an exactly-solvable window ({} events)",
                    tree_out.num_events()
                );
                pinned += 1;
            }
            None => {
                // Too large for the oracle: greedy's perfect matching still
                // bounds the optimum from above.
                let gw = greedy.decode(&history, &model).total_weight;
                assert!(
                    tw <= gw + 1e-6 * (1.0 + gw.abs()),
                    "d={d} stream {stream}: tree weight {tw} heavier than greedy's \
                     {gw} on a {}-event window",
                    tree_out.num_events()
                );
            }
        }
    }
    pinned
}

/// Decodes `LER_STREAMS` streams of one configuration with the tree and
/// union-find backends and asserts that union-find's valid matchings fail
/// at most twice as often as the tree's.
fn assert_union_find_within_twice_tree(
    config: MemoryExperimentConfig,
    strategy: DecodingStrategy,
    salt: u64,
) {
    let experiment = MemoryExperiment::new(config).expect("valid distance");
    let graph = experiment.code().matching_graph(ErrorKind::X);
    let model = experiment.weight_model(strategy);
    let decoder =
        |kind| SurfaceDecoder::with_config(&graph, DecoderConfig::default().with_matcher(kind));
    let mut tree = decoder(MatcherKind::Tree);
    let mut union_find = decoder(MatcherKind::UnionFind);
    let d = config.distance;
    let (mut tree_failures, mut uf_failures) = (0usize, 0usize);
    for stream in 0..LER_STREAMS {
        let (history, parity) =
            experiment.sample_history(strategy, &mut stream_rng(salt, d, stream));
        let uf_out = union_find.decode(&history, &model);
        assert_valid_matching(&uf_out, "union-find");
        tree_failures += usize::from(tree.decode(&history, &model).is_logical_failure(parity));
        uf_failures += usize::from(uf_out.is_logical_failure(parity));
    }
    assert!(
        tree_failures > 0,
        "d={d}: exact MWPM should fail on some of {LER_STREAMS} streams"
    );
    assert!(
        uf_failures <= 2 * tree_failures,
        "d={d}: union-find failed {uf_failures}/{LER_STREAMS} vs tree \
         {tree_failures}/{LER_STREAMS} — outside the 2x differential bound"
    );
}

#[test]
fn union_find_tracks_exact_mwpm_on_uniform_streams() {
    // p = 2e-2 sits just below threshold: high enough that exact MWPM fails
    // on a measurable fraction of streams, so the 2x bound is not vacuous.
    let p = 2e-2;
    for d in [3usize, 5, 7] {
        let config = MemoryExperimentConfig::new(d, p);
        let pinned = differential(config, DecodingStrategy::MbbeFree, 0xD1FF);
        // Windows with a cluster beyond the oracle's DP only get the
        // greedy upper bound; the rest hit the equality pin.
        assert!(
            pinned * 20 >= STREAMS,
            "d={d}: only {pinned}/{STREAMS} streams hit the tree equality pin"
        );
        assert_union_find_within_twice_tree(config, DecodingStrategy::MbbeFree, 0xD1FF);
    }
}

/// The rollback hot path: a centred MBBE with anomaly-aware re-weighted
/// costs at `p = 8e-3`.
fn burst_config(d: usize) -> MemoryExperimentConfig {
    MemoryExperimentConfig::new(d, 8e-3).with_anomaly(AnomalyInjection::centered(2, 0.5))
}

#[test]
fn union_find_tracks_exact_mwpm_under_burst_reweighting() {
    let mut total_pinned = 0usize;
    for d in [5usize, 7] {
        total_pinned += differential(burst_config(d), DecodingStrategy::AnomalyAware, 0xB065);
    }
    // A full-rate burst floods d = 7 windows past the oracle's DP ceiling
    // (the greedy bound still binds on every one of them); d = 5 keeps
    // enough small clusters that the equality pin sees re-weighted graphs.
    assert!(
        total_pinned > 0,
        "no burst stream hit the tree equality pin"
    );
    assert_union_find_within_twice_tree(burst_config(5), DecodingStrategy::AnomalyAware, 0xB065);
}

#[test]
#[ignore = "open: union-find fails 2.2x as often as the tree here (55 vs 25 of 3000)"]
fn union_find_tracks_exact_mwpm_under_burst_reweighting_at_d7() {
    assert_union_find_within_twice_tree(burst_config(7), DecodingStrategy::AnomalyAware, 0xB065);
}

/// Samples one tie-heavy random instance: a connected sparse graph whose
/// weights are almost all drawn from {1, 2} (with a sprinkling of exact
/// zeros to exercise the tree backend's free pre-pairing), boundary edges
/// on a random vertex subset, and a defect set small enough that the
/// bitmask-DP oracle is provably exact.
fn tie_heavy_instance(rng: &mut ChaCha8Rng) -> (SyndromeGraph, Vec<usize>) {
    let n = rng.gen_range(6..=24);
    let mut graph = SyndromeGraph::new(n);
    let tie_weight = |rng: &mut ChaCha8Rng| -> f64 {
        if rng.gen_range(0..20) == 0 {
            0.0
        } else {
            rng.gen_range(1..=2) as f64
        }
    };
    // random spanning tree keeps every instance connected ...
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        let w = tie_weight(rng);
        graph.add_edge(parent, v, w);
    }
    // ... plus chords, so tight-edge cycles (and therefore blossoms) form
    for _ in 0..n / 2 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            graph.add_edge(u, v, tie_weight(rng));
        }
    }
    // at least one boundary attachment makes every defect set feasible
    let boundary_sites = rng.gen_range(1..=3);
    for _ in 0..boundary_sites {
        let v = rng.gen_range(0..n);
        graph.add_boundary_edge(v, tie_weight(rng).max(1.0));
    }
    let k = rng.gen_range(0..=n.min(12));
    let mut defects: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        defects.swap(i, j);
    }
    defects.truncate(k);
    defects.sort_unstable();
    (graph, defects)
}

/// The tie-heavy random-problem loop: `instances` random graphs whose
/// near-degenerate integer weights force the alternating-tree backend
/// through its blossom/expand/zero-pre-pair paths, each pinned
/// weight-equal to the exact bitmask-DP oracle.
fn tie_heavy_differential(instances: usize, salt: u64) {
    let mut tree = AltTreeBackend::new();
    let mut oracle = ExactBackend::default();
    for instance in 0..instances {
        let mut rng = ChaCha8Rng::seed_from_u64(salt ^ (instance as u64).wrapping_mul(0x9E37));
        let (graph, defects) = tie_heavy_instance(&mut rng);
        let tree_match = tree.decode_defects(&graph, &defects);
        let oracle_match = oracle.decode_defects(&graph, &defects);
        assert!(
            tree_match.is_perfect(defects.len()),
            "instance {instance}: tree matching not perfect"
        );
        let (tw, ow) = (tree_match.total_cost(), oracle_match.total_cost());
        assert!(
            (tw - ow).abs() <= 1e-6 * (1.0 + ow.abs()),
            "instance {instance}: tree weight {tw} != oracle weight {ow} \
             ({} defects)",
            defects.len()
        );
    }
}

#[test]
fn tree_weight_equals_exact_on_tie_heavy_random_problems() {
    // Tier-1 slice of the 30k loop below: fast enough for debug builds while
    // still driving thousands of degenerate optima through the tree backend.
    tie_heavy_differential(2_000, 0x7E31);
}

#[test]
#[ignore = "30k-instance release-mode loop; run by CI's matcher-smoke job"]
fn tree_weight_equals_exact_on_tie_heavy_random_problems_full() {
    tie_heavy_differential(30_000, 0x7E31);
}

#[test]
fn tree_weight_equals_exact_on_mild_anomaly_streams() {
    // A mild centred anomaly re-weights the graph without flooding it with
    // detection events, so most windows stay within the oracle's exact
    // range: the tree-vs-oracle weight-equality pin covers anomaly
    // re-weighted graphs at every swept distance.
    let p = 4e-3;
    for d in [3usize, 5, 7] {
        let config =
            MemoryExperimentConfig::new(d, p).with_anomaly(AnomalyInjection::centered(1, 0.2));
        let pinned = differential(config, DecodingStrategy::AnomalyAware, 0xA0A1);
        assert!(
            pinned * 2 >= STREAMS,
            "d={d}: only {pinned}/{STREAMS} mild-anomaly streams hit the \
             tree equality pin"
        );
    }
}

#[test]
fn default_decoder_is_mwpm_on_blind_burst_streams() {
    // A centred full-rate burst decoded blind (uniform weights) grows
    // clusters of 17-22 events: the regime where a heuristic fallback in
    // the default decoder would return heavier matchings than MWPM.
    let config =
        MemoryExperimentConfig::new(5, 8e-3).with_anomaly(AnomalyInjection::centered(2, 0.5));
    let pinned = differential(config, DecodingStrategy::Blind, 0xDEFA);
    assert!(
        pinned * 4 >= STREAMS,
        "only {pinned}/{STREAMS} blind burst streams hit the equality pin"
    );
}
