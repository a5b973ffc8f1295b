//! Cross-matcher property tests over random matching problems.
//!
//! Each random problem is a complete `SyndromeGraph` over its defects (one
//! edge per pair, one boundary edge per defect).  For small problems the
//! exact bitmask-DP oracle (`ExactBackend`) is the ground truth: the greedy
//! backend may never beat it, the tree must equal it, and every backend
//! must return a *perfect* matching — each defect either paired with
//! exactly one other defect or matched to the boundary.

use q3de::decoder::{DecoderConfig, DecoderContext, MatcherKind, SyndromeHistory, WeightModel};
use q3de::lattice::{Coord, ErrorKind, Pauli, PauliString, StabilizerKind, SurfaceCode};
use q3de::matching::{AltTreeBackend, DecoderBackend, ExactBackend, GreedyBackend, SyndromeGraph};
use q3de::noise::AnomalousRegion;
use q3de::sim::{AnomalyInjection, DecodingStrategy, MemoryExperiment, MemoryExperimentConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

const CASES: usize = 150;

/// A random complete graph with positive pair and boundary weights, and
/// its defect list (every vertex).
fn random_problem(rng: &mut ChaCha8Rng, max_nodes: usize) -> (SyndromeGraph, Vec<usize>) {
    let n = rng.gen_range(0..=max_nodes);
    let pair: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.05..20.0)).collect();
    let boundary: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..20.0)).collect();
    let mut graph = SyndromeGraph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            graph.add_edge(i, j, pair[i * n + j].min(pair[j * n + i]));
        }
        graph.add_boundary_edge(i, boundary[i]);
    }
    (graph, (0..n).collect())
}

/// The cost of the raw radius-sweep greedy (no repair pass) on the
/// shortest-path metric of `graph`, every vertex a defect: candidates by
/// increasing cost, pairs before boundary matches at equal cost, then
/// index order.
fn raw_greedy_cost(graph: &SyndromeGraph) -> f64 {
    // Floyd–Warshall with the boundary as vertex `n`, never passed through.
    let n = graph.num_vertices();
    let m = n + 1;
    let mut d = vec![f64::INFINITY; m * m];
    for (id, edge) in graph.edges().iter().enumerate() {
        let v = edge.other(edge.u).unwrap_or(n);
        let w = graph.quantized_weight(id);
        (d[edge.u * m + v], d[v * m + edge.u]) = (w, w);
    }
    for k in 0..n {
        d[k * m + k] = 0.0;
        for i in 0..m {
            for j in 0..m {
                d[i * m + j] = d[i * m + j].min(d[i * m + k] + d[k * m + j]);
            }
        }
    }
    let mut candidates: Vec<(f64, bool, usize, usize)> = Vec::new();
    for i in 0..n {
        candidates.push((d[i * m + n], true, i, i));
        candidates.extend(((i + 1)..n).map(|j| (d[i * m + j], false, i, j)));
    }
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("costs are never NaN"));
    let mut taken = vec![false; n];
    let mut cost = 0.0;
    for (c, is_boundary, i, j) in candidates {
        if !taken[i] && (is_boundary || !taken[j]) {
            (taken[i], taken[j]) = (true, true);
            cost += c;
        }
    }
    cost
}

#[test]
fn greedy_is_perfect_and_never_beats_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    let (mut exact, mut greedy) = (ExactBackend::default(), GreedyBackend::default());
    for case in 0..CASES {
        let (graph, defects) = random_problem(&mut rng, 10);
        let n = defects.len();
        let exact = exact.decode_defects(&graph, &defects);
        let greedy = greedy.decode_defects(&graph, &defects);

        assert!(exact.is_perfect(n), "case {case}: exact {exact:?}");
        assert!(greedy.is_perfect(n), "case {case}: greedy {greedy:?}");

        let exact_cost = exact.total_cost();
        let greedy_cost = greedy.total_cost();
        assert!(
            greedy_cost >= exact_cost,
            "case {case}: greedy ({greedy_cost}) beat the exact optimum ({exact_cost}) \
             on a {n}-defect problem"
        );
    }
}

#[test]
fn refined_greedy_is_bracketed_between_exact_and_greedy() {
    // The greedy backend runs the radius sweep and then its 2-opt repair
    // pass: the result lies between the exact optimum and the raw sweep.
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0B);
    let (mut exact, mut greedy) = (ExactBackend::default(), GreedyBackend::default());
    for case in 0..CASES {
        let (graph, defects) = random_problem(&mut rng, 9);
        let exact_cost = exact.decode_defects(&graph, &defects).total_cost();
        let greedy_cost = raw_greedy_cost(&graph);
        let refined = greedy.decode_defects(&graph, &defects);
        assert!(
            refined.is_perfect(defects.len()),
            "case {case}: {refined:?}"
        );
        let refined_cost = refined.total_cost();
        assert!(
            refined_cost >= exact_cost,
            "case {case}: refined ({refined_cost}) beat exact ({exact_cost})"
        );
        assert!(
            refined_cost <= greedy_cost,
            "case {case}: refinement made greedy worse ({refined_cost} > {greedy_cost})"
        );
    }
}

#[test]
fn alt_tree_backend_equals_exact_on_random_sparse_problems() {
    // The tree is exact, so unlike the greedy family it is pinned by cost
    // *equality* against the bitmask-DP oracle: embed each random dense
    // problem as a complete SyndromeGraph (one edge per pair, one boundary
    // edge per defect) and compare the alternating-tree backend's weight.  One persistent
    // backend across all cases also exercises the scratch-reuse contract.
    let mut rng = ChaCha8Rng::seed_from_u64(0x7EE5);
    let mut tree = AltTreeBackend::new();
    let mut oracle = ExactBackend::default();
    for case in 0..CASES {
        let (graph, defects) = random_problem(&mut rng, 10);
        let n = defects.len();
        let tree_match = tree.decode_defects(&graph, &defects);
        assert!(
            tree_match.is_perfect(n),
            "case {case}: tree matching not perfect on {n} defects"
        );
        let (tc, ec) = (
            tree_match.total_cost(),
            oracle.decode_defects(&graph, &defects).total_cost(),
        );
        assert!(
            tc == ec,
            "case {case}: tree ({tc}) != exact optimum ({ec}) on a \
             {n}-defect sparse problem"
        );
    }
}

#[test]
fn matchers_agree_on_trivial_problems() {
    // Zero defects: the empty matching, cost 0, for every engine.
    let empty = SyndromeGraph::new(0);
    let backends: [Box<dyn DecoderBackend>; 2] = [
        Box::new(ExactBackend::default()),
        Box::new(GreedyBackend::default()),
    ];
    for mut backend in backends {
        let name = backend.name();
        let matching = backend.decode_defects(&empty, &[]);
        assert!(
            matching.is_perfect(0),
            "{name} must handle the empty problem"
        );
        assert_eq!(matching.total_cost(), 0.0, "{name} empty cost");

        // One defect: boundary matching is the only perfect option.
        let mut single = SyndromeGraph::new(1);
        single.add_boundary_edge(0, 2.5);
        let matching = backend.decode_defects(&single, &[0]);
        assert!(
            matching.pairs.is_empty() && matching.boundary.len() == 1,
            "{name} single defect"
        );
        assert_eq!(matching.total_cost(), 2.5, "{name} single-defect cost");
    }
}

// ---------------------------------------------------------------------------
// Backend-level properties: every DecoderBackend (tree, greedy, union-find)
// must correct all guaranteed-correctable errors, with uniform weights and
// under post-anomaly re-weighted graphs alike.
// ---------------------------------------------------------------------------

const BACKEND_DISTANCES: [usize; 5] = [3, 5, 7, 9, 11];

/// A noiseless static syndrome stream of the given data-error pattern.
fn static_history(code: &SurfaceCode, error: &PauliString, rounds: usize) -> SyndromeHistory {
    let graph = code.matching_graph(ErrorKind::X);
    let syndrome = code.syndrome(StabilizerKind::Z, error);
    let mut h = SyndromeHistory::new(graph.num_nodes());
    for _ in 0..rounds {
        h.push_layer(&syndrome);
    }
    h
}

fn error_cut_parity(code: &SurfaceCode, error: &PauliString) -> bool {
    code.logical_z_support()
        .iter()
        .filter(|&&q| error.get(q).has_x_component())
        .count()
        % 2
        == 1
}

/// Whether decoding `error` under `model` with the given backend leaves a
/// logical error.
fn decode_fails(
    code: &SurfaceCode,
    error: &PauliString,
    model: &WeightModel,
    kind: MatcherKind,
) -> bool {
    let graph = code.matching_graph(ErrorKind::X);
    let mut decoder = DecoderContext::new(DecoderConfig::default().with_matcher(kind));
    let history = static_history(code, error, 3);
    let outcome = decoder.decode(&graph, &history, model);
    outcome.is_logical_failure(error_cut_parity(code, error))
}

/// All horizontal X-error chains of `weight` data qubits whose support
/// satisfies `keep`, starting anywhere on the patch.
fn horizontal_chains(
    code: &SurfaceCode,
    weight: usize,
    keep: impl Fn(Coord) -> bool,
) -> Vec<PauliString> {
    let data: HashSet<Coord> = code.data_qubits().iter().copied().collect();
    let mut chains = Vec::new();
    for &start in code.data_qubits() {
        let support: Vec<Coord> = (0..weight).map(|i| start.offset(0, 2 * i as i32)).collect();
        if support.iter().all(|&q| data.contains(&q) && keep(q)) {
            chains.push(support.into_iter().map(|q| (q, Pauli::X)).collect());
        }
    }
    chains
}

/// The centred anomalous region used by the re-weighted-graph properties:
/// interior to the patch (never touching a boundary column/row) and active
/// over the whole decoded window.
///
/// `p_ano = 0.3` re-weights the region's edges to ~12% of the base weight
/// without making them exactly free: at `p_ano = 0.5` a small patch can tie
/// the two boundary costs of an edge-adjacent event *exactly* (the region
/// contributes zero cost), and no matcher can break a zero-cost tie towards
/// the true error.  The `p_ano = 0.5` regime is exercised separately by the
/// in-region chain property below via the decode-level burst tests.
fn centered_region(d: usize) -> AnomalousRegion {
    let size = if d == 3 { 1 } else { 2 };
    let mid = (d - 1) as i32;
    AnomalousRegion::new(
        Coord::new(mid - size as i32, mid - size as i32),
        size,
        0,
        100,
        0.3,
    )
}

#[test]
fn every_backend_corrects_all_single_qubit_errors() {
    for d in BACKEND_DISTANCES {
        let code = SurfaceCode::new(d).expect("valid distance");
        let model = WeightModel::uniform(1e-3);
        for kind in MatcherKind::ALL {
            for &q in code.data_qubits() {
                let error: PauliString = [(q, Pauli::X)].into_iter().collect();
                assert!(
                    !decode_fails(&code, &error, &model, kind),
                    "{kind:?} d={d}: single X on {q} was not corrected"
                );
            }
        }
    }
}

#[test]
fn every_backend_corrects_all_subthreshold_chains() {
    // Every horizontal error chain of weight < d/2 is guaranteed
    // correctable; all backends must get every one of them right.
    for d in BACKEND_DISTANCES {
        let code = SurfaceCode::new(d).expect("valid distance");
        let model = WeightModel::uniform(1e-3);
        for weight in 1..=(d - 1) / 2 {
            for error in horizontal_chains(&code, weight, |_| true) {
                for kind in MatcherKind::ALL {
                    assert!(
                        !decode_fails(&code, &error, &model, kind),
                        "{kind:?} d={d}: weight-{weight} chain was not corrected"
                    );
                }
            }
        }
    }
}

#[test]
fn every_backend_corrects_single_qubit_errors_under_reweighting() {
    // Post-anomaly re-weighted graph: a centred p_ano = 0.5 region makes its
    // edges free, yet isolated single-qubit errors anywhere on the patch
    // must still decode correctly with every backend.
    for d in BACKEND_DISTANCES {
        let code = SurfaceCode::new(d).expect("valid distance");
        let region = centered_region(d);
        let model = WeightModel::anomaly_aware(1e-3, vec![region], 0);
        for kind in MatcherKind::ALL {
            for &q in code.data_qubits() {
                let error: PauliString = [(q, Pauli::X)].into_iter().collect();
                assert!(
                    !decode_fails(&code, &error, &model, kind),
                    "{kind:?} d={d}: single X on {q} mis-decoded on the re-weighted graph"
                );
            }
        }
    }
}

#[test]
fn every_backend_corrects_in_region_chains_under_reweighting() {
    // The Q3DE rollback guarantee: burst-induced chains *inside* the
    // re-weighted region are matched through it (at ~zero cost) instead of
    // being mis-matched to the boundary, for every backend.
    for d in BACKEND_DISTANCES {
        let code = SurfaceCode::new(d).expect("valid distance");
        let region = centered_region(d);
        let model = WeightModel::anomaly_aware(1e-3, vec![region], 0);
        let in_region = |q: Coord| region.contains(q);
        let mut tested = 0usize;
        for weight in 1..=(d - 1) / 2 {
            for error in horizontal_chains(&code, weight, in_region) {
                tested += 1;
                for kind in MatcherKind::ALL {
                    assert!(
                        !decode_fails(&code, &error, &model, kind),
                        "{kind:?} d={d}: in-region weight-{weight} chain mis-decoded"
                    );
                }
            }
        }
        assert!(
            tested > 0,
            "d={d}: the region must contain at least one chain"
        );
    }
}

#[test]
fn every_backend_decodes_sampled_burst_windows_beyond_d11() {
    // One sampled burst window per distance above BACKEND_DISTANCES, decoded
    // on its anomaly-aware graph: every backend matches every event, and
    // none finds a lighter matching than the exact tree.  All backends
    // price paths in the same 2^-21 weight units, so the bound is exact.
    for d in [13usize, 15] {
        let config =
            MemoryExperimentConfig::new(d, 1e-2).with_anomaly(AnomalyInjection::centered(2, 0.5));
        let experiment = MemoryExperiment::new(config).expect("valid distance");
        let graph = experiment.code().matching_graph(ErrorKind::X);
        let mut rng = ChaCha8Rng::seed_from_u64(0x03DE);
        let (history, _) = experiment.sample_history(DecodingStrategy::AnomalyAware, &mut rng);
        let model = experiment.weight_model(DecodingStrategy::AnomalyAware);
        let weights = MatcherKind::ALL.map(|kind| {
            let mut decoder = DecoderContext::new(DecoderConfig::default().with_matcher(kind));
            let outcome = decoder.decode(&graph, &history, &model);
            assert!(
                outcome.num_events() > 0,
                "d={d}: the window must have events"
            );
            assert_eq!(
                2 * outcome.pairs.len() + outcome.boundary_matches.len(),
                outcome.num_events(),
                "{kind:?} d={d}: every event must be matched exactly once"
            );
            (kind, outcome.total_weight)
        });
        let (_, tree) = weights
            .into_iter()
            .find(|&(kind, _)| kind == MatcherKind::Tree)
            .expect("the tree is a backend");
        for (kind, weight) in weights {
            assert!(
                tree <= weight,
                "{kind:?} d={d}: weight {weight} is below the exact tree's {tree}"
            );
        }
    }
}

#[test]
fn greedy_matches_exact_when_pairing_is_forced() {
    // Two defects with a pair cost far below either boundary cost: both
    // engines must pair them, and the costs coincide exactly.
    let mut rng = ChaCha8Rng::seed_from_u64(0xF0FCED);
    let (mut exact, mut greedy) = (ExactBackend::default(), GreedyBackend::default());
    for _ in 0..CASES {
        let pair_cost = rng.gen_range(0.01..0.5);
        let b0 = rng.gen_range(5.0..10.0);
        let b1 = rng.gen_range(5.0..10.0);
        let mut graph = SyndromeGraph::new(2);
        graph.add_edge(0, 1, pair_cost);
        graph.add_boundary_edge(0, b0);
        graph.add_boundary_edge(1, b1);
        let exact = exact.decode_defects(&graph, &[0, 1]);
        let greedy = greedy.decode_defects(&graph, &[0, 1]);
        assert_eq!((exact.pairs.len(), exact.boundary.len()), (1, 0));
        assert_eq!((greedy.pairs.len(), greedy.boundary.len()), (1, 0));
        assert_eq!(exact.total_cost(), greedy.total_cost());
    }
}

#[test]
fn greedy_output_is_pinned_on_sampled_d5_burst_windows() {
    // Greedy's exact output on 100 sampled d = 5 burst windows, each
    // decoded blind (uniform weights, tie-heavy) and anomaly-aware.  The
    // literals pin the candidate order, the tie-breaking and the repair
    // moves: a change to any of them that alters a matching moves them.
    let config =
        MemoryExperimentConfig::new(5, 1e-2).with_anomaly(AnomalyInjection::centered(2, 0.5));
    let experiment = MemoryExperiment::new(config).expect("valid distance");
    let graph = experiment.code().matching_graph(ErrorKind::X);
    let models = [DecodingStrategy::Blind, DecodingStrategy::AnomalyAware]
        .map(|strategy| experiment.weight_model(strategy));
    let mut decoder =
        DecoderContext::new(DecoderConfig::default().with_matcher(MatcherKind::Greedy));
    let mut rng = ChaCha8Rng::seed_from_u64(0x9EED);
    let (mut total_weight, mut pairs, mut boundary) = (0.0, 0usize, 0usize);
    for _ in 0..100 {
        let (history, _) = experiment.sample_history(DecodingStrategy::AnomalyAware, &mut rng);
        for model in &models {
            let outcome = decoder.decode(&graph, &history, model);
            total_weight += outcome.total_weight;
            pairs += outcome.pairs.len();
            boundary += outcome.boundary_matches.len();
        }
    }
    assert!(
        total_weight == 8032.268844604492,
        "summed greedy weight {total_weight:?} moved"
    );
    assert_eq!((pairs, boundary), (2296, 252));
}
