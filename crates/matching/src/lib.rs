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
//! redistributable, so this crate provides (see DESIGN.md §2):
//!
//! * [`ExactMatcher`] — exact minimum-weight matching by bitmask dynamic
//!   programming, usable up to ~20 active nodes; it serves both as the
//!   decoder for small instances and as the test oracle,
//! * [`GreedyMatcher`] — the radius-sweep greedy strategy of the paper's
//!   hardware decoder (Sec. VI-B), generalised to arbitrary edge costs,
//! * [`RefinedGreedyMatcher`] — greedy initialisation followed by 2-opt
//!   local improvement; this is the workhorse used for large instances and
//!   plays the role of Blossom V in the reproduction,
//! * [`AutoMatcher`] — picks [`ExactMatcher`] when the instance is small
//!   enough and [`RefinedGreedyMatcher`] otherwise.
//!
//! All matchers implement the [`Matcher`] trait and operate on a
//! [`MatchingProblem`], which is independent of lattice geometry: the decoder
//! crate converts syndrome data into pairwise path costs.
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
//! let matching = ExactMatcher::default().solve(&problem);
//! assert_eq!(matching.target(0), MatchTarget::Node(1));
//! assert!((matching.total_cost(&problem) - 1.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

/// Crate-internal diagnostic log: the matching backends sit deep inside the
/// decode hot path and must not panic on recoverable anomalies, but silent
/// fallbacks mask bugs in future refactors — `log!` routes a one-line
/// warning to stderr instead (the workspace carries no logging dependency).
macro_rules! log {
    ($($arg:tt)*) => {
        eprintln!("[q3de_matching] {}", format_args!($($arg)*))
    };
}
pub(crate) use log;

mod alt_tree;
mod backend;
mod blossom;
mod exact;
mod greedy;
mod problem;
mod refine;
mod sparse;
mod union_find;

pub use alt_tree::{AltTreeBackend, AltTreeCounters};
pub use backend::{ExactBackend, GreedyBackend};
pub use blossom::{BlossomBackend, BlossomMatcher};
pub use exact::ExactMatcher;
pub use greedy::GreedyMatcher;
pub use problem::{MatchTarget, Matching, MatchingProblem};
pub use refine::{AutoMatcher, RefinedGreedyMatcher};
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
/// This is the seam the decoding pipeline is built around.  The dense
/// backends ([`ExactBackend`], [`GreedyBackend`]) extract pairwise defect
/// costs with Dijkstra and hand a [`MatchingProblem`] to a [`Matcher`]; the
/// [`UnionFindDecoder`] skips the dense construction entirely and runs
/// almost-linear cluster growth + peeling on the sparse graph.  All three
/// consume the same re-weighted edge costs, so Q3DE's anomaly-aware
/// rollback re-decoding works identically across backends.
///
/// # The `&mut` scratch contract
///
/// `decode_defects` takes `&mut self` so a backend can keep its working
/// memory — Dijkstra distance/heap buffers, the union-find forest, visited
/// and parity arrays — alive between calls instead of reallocating on
/// every syndrome window.  Implementations must be *stateless up to
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
/// | `Exact` | [`ExactBackend`] | `O(k·E log V + 2ᶜ)` per window | accuracy baseline, test oracle |
/// | `Greedy` | [`GreedyBackend`] | `O(k·E log V + k² log k)` | the paper's hardware decoder model |
/// | `UnionFind` | [`UnionFindDecoder`] | `~O(E α(E))` | large distances / high-throughput sweeps |
/// | `Blossom` | [`BlossomBackend`] | `O(k·B log B + c³)` per window | exact decoding at large d / threshold studies |
/// | `Tree` | [`AltTreeBackend`] | near-linear in explored graph per window | exact decoding everywhere; fastest exact backend |
///
/// (`k` = defects, `V`/`E` = space-time graph size, `c` = largest cluster,
/// `B` = truncated-ball size ≪ `E`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatcherKind {
    /// Exact minimum-weight matching per cluster (refined-greedy fallback
    /// above the cluster-size threshold).  The default; [`Tree`](Self::Tree)
    /// is equally exact and much faster at large distances.
    #[default]
    Exact,
    /// The QECOOL-style greedy radius sweep of the paper's hardware decoder.
    Greedy,
    /// The almost-linear union-find decoder.
    UnionFind,
    /// The sparse blossom backend: exact MWPM without a dense cost matrix
    /// (truncated Dijkstra balls + per-cluster `O(c³)` primal–dual blossom).
    Blossom,
    /// The simultaneous alternating-tree backend: exact MWPM grown directly
    /// on the sparse graph — per-defect regions with dual variables, a
    /// global next-tight event queue, and lazy blossoms; no per-cluster
    /// dense solves at all.
    Tree,
}

impl MatcherKind {
    /// All selectable kinds, in documentation order.
    pub const ALL: [MatcherKind; 5] = [
        MatcherKind::Exact,
        MatcherKind::Greedy,
        MatcherKind::UnionFind,
        MatcherKind::Blossom,
        MatcherKind::Tree,
    ];

    /// The backend's CLI / report name (`exact`, `greedy`, `union-find`,
    /// `blossom`, `tree`).
    ///
    /// The backends themselves are constructed by the decoder crate's
    /// `DecoderConfig::backend()`, which threads its tuning knobs into them
    /// — this enum only names the choice.
    pub fn name(self) -> &'static str {
        match self {
            MatcherKind::Exact => "exact",
            MatcherKind::Greedy => "greedy",
            MatcherKind::UnionFind => "union-find",
            MatcherKind::Blossom => "blossom",
            MatcherKind::Tree => "tree",
        }
    }

    /// Parses a CLI name as produced by [`MatcherKind::name`] (also accepts
    /// `uf` and `union_find` for the union-find backend, and `alt-tree` for
    /// the alternating-tree backend).
    pub fn parse(s: &str) -> Option<MatcherKind> {
        match s {
            "exact" => Some(MatcherKind::Exact),
            "greedy" => Some(MatcherKind::Greedy),
            "union-find" | "union_find" | "uf" => Some(MatcherKind::UnionFind),
            "blossom" => Some(MatcherKind::Blossom),
            "tree" | "alt-tree" | "alt_tree" => Some(MatcherKind::Tree),
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
            Box::new(ExactMatcher::default()),
            Box::new(GreedyMatcher::default()),
            Box::new(RefinedGreedyMatcher::default()),
            Box::new(AutoMatcher::default()),
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
        let backends: [Box<dyn DecoderBackend>; 5] = [
            Box::new(ExactBackend::default()),
            Box::new(GreedyBackend::default()),
            Box::new(UnionFindDecoder::default()),
            Box::new(BlossomBackend::default()),
            Box::new(AltTreeBackend::default()),
        ];
        for (kind, mut backend) in MatcherKind::ALL.into_iter().zip(backends) {
            let matching = backend.decode_defects(&graph, &[1, 2]);
            assert!(matching.is_perfect(2), "{}", backend.name());
            assert_eq!(backend.name(), kind.name());
            assert_eq!(MatcherKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(MatcherKind::parse("uf"), Some(MatcherKind::UnionFind));
        assert_eq!(MatcherKind::parse("blossom"), Some(MatcherKind::Blossom));
        assert_eq!(MatcherKind::parse("alt-tree"), Some(MatcherKind::Tree));
        assert_eq!(MatcherKind::default(), MatcherKind::Exact);
    }
}
