//! Cross-matcher property tests over random matching problems.
//!
//! For small random `MatchingProblem`s the exact dynamic-programming matcher
//! is the ground truth: the greedy matcher may never beat it, and every
//! matcher must return a *perfect* matching — each defect either paired with
//! exactly one other defect (symmetrically) or matched to the boundary.

use q3de::decoder::{DecoderConfig, MatcherKind, SurfaceDecoder, SyndromeHistory, WeightModel};
use q3de::lattice::{Coord, ErrorKind, Pauli, PauliString, StabilizerKind, SurfaceCode};
use q3de::matching::{
    AltTreeBackend, DecoderBackend, ExactBackend, ExactMatcher, GreedyMatcher, MatchTarget,
    Matcher, MatchingProblem, RefinedGreedyMatcher, SyndromeGraph,
};
use q3de::noise::AnomalousRegion;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

const CASES: usize = 150;

/// A random symmetric problem with positive pair and boundary costs.
fn random_problem(rng: &mut ChaCha8Rng, max_nodes: usize) -> MatchingProblem {
    let n = rng.gen_range(0..=max_nodes);
    let pair: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.05..20.0)).collect();
    let boundary: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..20.0)).collect();
    MatchingProblem::from_fn(
        n,
        |i, j| pair[i * n + j].min(pair[j * n + i]),
        |i| boundary[i],
    )
}

/// Asserts that `matching` is a perfect matching of `problem`: complete, and
/// an involution (i matched to j implies j matched to i, and never i to i).
fn assert_perfect(matching: &q3de::matching::Matching, problem: &MatchingProblem, who: &str) {
    assert!(
        matching.is_complete(),
        "{who}: matching must cover every defect"
    );
    assert_eq!(
        matching.len(),
        problem.num_nodes(),
        "{who}: one target per defect"
    );
    for (i, target) in matching.iter() {
        match target {
            MatchTarget::Boundary => {}
            MatchTarget::Node(j) => {
                assert_ne!(i, j, "{who}: defect {i} cannot be matched to itself");
                assert_eq!(
                    matching.target(j),
                    MatchTarget::Node(i),
                    "{who}: pairing must be symmetric ({i} -> {j})"
                );
            }
        }
    }
}

#[test]
fn greedy_is_perfect_and_never_beats_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let problem = random_problem(&mut rng, 10);
        let exact = ExactMatcher.solve(&problem);
        let greedy = GreedyMatcher::new().solve(&problem);

        assert_perfect(&exact, &problem, "exact");
        assert_perfect(&greedy, &problem, "greedy");

        let exact_cost = exact.total_cost(&problem);
        let greedy_cost = greedy.total_cost(&problem);
        assert!(
            greedy_cost >= exact_cost - 1e-9,
            "case {case}: greedy ({greedy_cost}) beat the exact optimum ({exact_cost}) \
             on a {}-defect problem",
            problem.num_nodes()
        );
    }
}

#[test]
fn refined_greedy_is_bracketed_between_exact_and_greedy() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let problem = random_problem(&mut rng, 9);
        let exact_cost = ExactMatcher.solve(&problem).total_cost(&problem);
        let greedy_cost = GreedyMatcher::new().solve(&problem).total_cost(&problem);
        let refined = RefinedGreedyMatcher.solve(&problem);
        assert_perfect(&refined, &problem, "refined");
        let refined_cost = refined.total_cost(&problem);
        assert!(
            refined_cost >= exact_cost - 1e-9,
            "case {case}: refined ({refined_cost}) beat exact ({exact_cost})"
        );
        assert!(
            refined_cost <= greedy_cost + 1e-9,
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
        let problem = random_problem(&mut rng, 10);
        let n = problem.num_nodes();
        let mut graph = SyndromeGraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                graph.add_edge(i, j, problem.pair_cost(i, j));
            }
            graph.add_boundary_edge(i, problem.boundary_cost(i));
        }
        let defects: Vec<usize> = (0..n).collect();
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
            (tc - ec).abs() <= 1e-6 * (1.0 + ec.abs()),
            "case {case}: tree ({tc}) != exact optimum ({ec}) on a \
             {n}-defect sparse problem"
        );
    }
}

#[test]
fn matchers_agree_on_trivial_problems() {
    // Zero defects: the empty matching, cost 0, for every engine.
    let empty = MatchingProblem::new(0);
    for (name, matching) in [
        ("exact", ExactMatcher.solve(&empty)),
        ("greedy", GreedyMatcher::new().solve(&empty)),
        ("refined", RefinedGreedyMatcher.solve(&empty)),
    ] {
        assert!(
            matching.is_complete(),
            "{name} must handle the empty problem"
        );
        assert_eq!(matching.total_cost(&empty), 0.0, "{name} empty cost");
    }

    // One defect: boundary matching is the only perfect option.
    let single = MatchingProblem::from_fn(1, |_, _| 1.0, |_| 2.5);
    for (name, matching) in [
        ("exact", ExactMatcher.solve(&single)),
        ("greedy", GreedyMatcher::new().solve(&single)),
        ("refined", RefinedGreedyMatcher.solve(&single)),
    ] {
        assert_eq!(
            matching.target(0),
            MatchTarget::Boundary,
            "{name} single defect"
        );
        assert_eq!(
            matching.total_cost(&single),
            2.5,
            "{name} single-defect cost"
        );
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
    let mut decoder =
        SurfaceDecoder::with_config(&graph, DecoderConfig::default().with_matcher(kind));
    let history = static_history(code, error, 3);
    let outcome = decoder.decode(&history, model);
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
fn greedy_matches_exact_when_pairing_is_forced() {
    // Two defects with a pair cost far below either boundary cost: both
    // engines must pair them, and the costs coincide exactly.
    let mut rng = ChaCha8Rng::seed_from_u64(0xF0FCED);
    for _ in 0..CASES {
        let pair_cost = rng.gen_range(0.01..0.5);
        let b0 = rng.gen_range(5.0..10.0);
        let b1 = rng.gen_range(5.0..10.0);
        let problem =
            MatchingProblem::from_fn(2, |_, _| pair_cost, |i| if i == 0 { b0 } else { b1 });
        let exact = ExactMatcher.solve(&problem);
        let greedy = GreedyMatcher::new().solve(&problem);
        assert_eq!(exact.target(0), MatchTarget::Node(1));
        assert_eq!(greedy.target(0), MatchTarget::Node(1));
        assert!((exact.total_cost(&problem) - greedy.total_cost(&problem)).abs() < 1e-12);
    }
}
