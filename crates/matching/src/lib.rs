//! Matching engines for surface-code decoding.
//!
//! Surface-code error decoding reduces to *minimum-weight matching with a
//! boundary*: every active detector node must be paired either with another
//! active node or with the lattice boundary so that the total cost (negative
//! log-likelihood of the implied physical error chains) is minimised.
//!
//! The paper estimates recovery operations with Kolmogorov's Blossom V for
//! its Monte-Carlo experiments (Figs. 3 and 8) and with the QECOOL-style
//! greedy matcher for its hardware decoder (Table IV).  Blossom V is not
//! redistributable, so this crate provides three decoding backends
//! ([`DecoderBackend`], selected by [`MatcherKind`]) and one test oracle:
//!
//! * [`AltTreeBackend`] — exact minimum-weight perfect matching grown
//!   directly on the sparse space-time graph (simultaneous alternating
//!   trees with lazy blossoms, after Sparse Blossom).  It is the one exact
//!   decoder and the default, and plays the role of Blossom V,
//! * [`GreedyBackend`] — the radius-sweep greedy strategy of the paper's
//!   hardware decoder (Sec. VI-B, [`GreedyMatcher`]) with a bounded 2-opt
//!   repair pass ([`RefinedGreedyMatcher`]),
//! * [`UnionFindDecoder`] — the almost-linear union-find decoder, the fast
//!   approximate baseline,
//! * [`ExactBackend`] — the test oracle: exact matching by bitmask dynamic
//!   programming ([`ExactMatcher`]) on each independent cluster of up to
//!   [`ExactMatcher::MAX_NODES`] defects, with no heuristic
//!   fallback beyond that.
//!
//! The dense matchers implement the [`Matcher`] trait and operate on a
//! [`MatchingProblem`], which is independent of lattice geometry: the dense
//! backends convert syndrome data into pairwise path costs.
//!
//! # Example
//!
//! ```
//! use q3de_matching::{Matcher, MatchingProblem, ExactMatcher, MatchTarget};
//!
//! // Two active nodes close to each other and far from the boundary.
//! let mut problem = MatchingProblem::new(2);
//! problem.set_pair_cost(0, 1, 1.0);
//! problem.set_boundary_cost(0, 10.0);
//! problem.set_boundary_cost(1, 10.0);
//! let matching = ExactMatcher.solve(&problem);
//! assert_eq!(matching.target(0), MatchTarget::Node(1));
//! assert!((matching.total_cost(&problem) - 1.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

mod alt_tree;
mod backend;
mod exact;
mod greedy;
mod problem;
mod refine;
mod sparse;
mod union_find;

pub use alt_tree::{AltTreeBackend, AltTreeCounters};
pub use backend::{ExactBackend, GreedyBackend};
pub use exact::ExactMatcher;
pub use greedy::GreedyMatcher;
pub use problem::{MatchTarget, Matching, MatchingProblem};
pub use refine::RefinedGreedyMatcher;
pub use sparse::{
    DefectBoundaryMatch, DefectMatching, DefectPair, SparseEdge, SparseEdgeId, SyndromeGraph,
};
pub use union_find::UnionFindDecoder;

/// A strategy for solving a [`MatchingProblem`].
pub trait Matcher {
    /// Produces a complete matching: every node is paired with another node
    /// or with the boundary.
    fn solve(&self, problem: &MatchingProblem) -> Matching;

    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

/// A full decoding backend: given the sparse (space-time) [`SyndromeGraph`]
/// and the list of defect vertices, produce a perfect matching of the
/// defects among themselves and the boundary.
///
/// This is the seam the decoding pipeline is built around.  The
/// [`AltTreeBackend`] grows exact matchings directly on the sparse graph;
/// the dense backends ([`GreedyBackend`], and the [`ExactBackend`] oracle)
/// extract pairwise defect costs with Dijkstra and hand a
/// [`MatchingProblem`] to a [`Matcher`]; the [`UnionFindDecoder`] runs
/// almost-linear cluster growth + peeling.  All of them consume the same
/// re-weighted edge costs, so Q3DE's anomaly-aware rollback re-decoding
/// works identically across backends.
///
/// # The `&mut` scratch contract
///
/// `decode_defects` takes `&mut self` so a backend can keep its working
/// memory — Dijkstra distance/heap buffers, the union-find forest, the
/// alternating-tree regions and event queue — alive between calls instead
/// of reallocating on every syndrome window.  Implementations must be *stateless up to
/// scratch*: the returned matching depends only on `(graph, defects)` and
/// the backend's configuration, never on what earlier calls decoded, so a
/// reused backend is bit-identical to a freshly constructed one (the root
/// test `tests/decoder_reuse.rs` pins this for all shipped backends).
pub trait DecoderBackend {
    /// Decodes `defects` (vertex ids of the active syndrome nodes) over
    /// `graph`, returning a perfect [`DefectMatching`].
    ///
    /// # Panics
    ///
    /// Implementations panic when the instance is infeasible — some defect
    /// can reach neither another defect nor a boundary — or when a defect
    /// vertex is out of range.
    fn decode_defects(&mut self, graph: &SyndromeGraph, defects: &[usize]) -> DefectMatching;

    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

/// Selects which [`DecoderBackend`] the decoding pipeline uses.
///
/// | kind | backend | complexity | when to use |
/// |---|---|---|---|
/// | `Tree` | [`AltTreeBackend`] | near-linear in explored graph per window | exact MWPM; the default everywhere |
/// | `Greedy` | [`GreedyBackend`] | `O(k·E log V + k² log k)` | the paper's hardware decoder model |
/// | `UnionFind` | [`UnionFindDecoder`] | `~O(E α(E))` | fast approximate baseline |
///
/// (`k` = defects, `V`/`E` = space-time graph size.)  The bitmask-DP
/// [`ExactBackend`] is not selectable: it is the test oracle the exact
/// backend is pinned against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatcherKind {
    /// The simultaneous alternating-tree backend: exact MWPM grown directly
    /// on the sparse graph — per-defect regions with dual variables, a
    /// global next-tight event queue, and lazy blossoms.  The default.
    #[default]
    Tree,
    /// The QECOOL-style greedy radius sweep of the paper's hardware decoder.
    Greedy,
    /// The almost-linear union-find decoder.
    UnionFind,
}

impl MatcherKind {
    /// All selectable kinds, in documentation order.
    pub const ALL: [MatcherKind; 3] = [
        MatcherKind::Tree,
        MatcherKind::Greedy,
        MatcherKind::UnionFind,
    ];

    /// The backend's CLI / report name (`tree`, `greedy`, `union-find`).
    ///
    /// The backends themselves are constructed by the decoder crate's
    /// `DecoderConfig::backend()` — this enum only names the choice.
    pub fn name(self) -> &'static str {
        match self {
            MatcherKind::Tree => "tree",
            MatcherKind::Greedy => "greedy",
            MatcherKind::UnionFind => "union-find",
        }
    }

    /// Parses a CLI name as produced by [`MatcherKind::name`] (also accepts
    /// `alt-tree` for the alternating-tree backend, and `uf` and
    /// `union_find` for the union-find backend).
    pub fn parse(s: &str) -> Option<MatcherKind> {
        match s {
            "tree" | "alt-tree" | "alt_tree" => Some(MatcherKind::Tree),
            "greedy" => Some(MatcherKind::Greedy),
            "union-find" | "union_find" | "uf" => Some(MatcherKind::UnionFind),
            _ => None,
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn matchers_are_object_safe() {
        let matchers: Vec<Box<dyn Matcher>> = vec![
            Box::new(ExactMatcher),
            Box::new(GreedyMatcher::default()),
            Box::new(RefinedGreedyMatcher),
        ];
        let mut problem = MatchingProblem::new(2);
        problem.set_pair_cost(0, 1, 1.0);
        problem.set_boundary_cost(0, 3.0);
        problem.set_boundary_cost(1, 3.0);
        for m in &matchers {
            let sol = m.solve(&problem);
            assert!(sol.is_complete());
            assert!(!m.name().is_empty());
        }
    }

    #[test]
    fn every_backend_solves_through_the_trait_and_kinds_round_trip() {
        let graph = SyndromeGraph::line(&[1.0, 1.0, 1.0], 5.0);
        let backends: [Box<dyn DecoderBackend>; 3] = [
            Box::new(AltTreeBackend::default()),
            Box::new(GreedyBackend::default()),
            Box::new(UnionFindDecoder::default()),
        ];
        for (kind, mut backend) in MatcherKind::ALL.into_iter().zip(backends) {
            let matching = backend.decode_defects(&graph, &[1, 2]);
            assert!(matching.is_perfect(2), "{}", backend.name());
            assert_eq!(backend.name(), kind.name());
            assert_eq!(MatcherKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(MatcherKind::parse("uf"), Some(MatcherKind::UnionFind));
        assert_eq!(MatcherKind::parse("alt-tree"), Some(MatcherKind::Tree));
        assert_eq!(MatcherKind::parse("exact"), None);
        assert_eq!(MatcherKind::parse("blossom"), None);
        assert_eq!(MatcherKind::default(), MatcherKind::Tree);
    }
}
