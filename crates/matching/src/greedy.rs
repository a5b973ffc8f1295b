//! The greedy matcher used by the paper's hardware decoder.

use crate::{MatchTarget, Matcher, Matching, MatchingProblem};

/// Greedy minimum-weight matcher.
///
/// The paper's online decoder (borrowed from QECOOL, Sec. VI-B) matches
/// active nodes in a radius sweep: with increasing radius `i = 1 … d`, any
/// two unmatched active nodes closer than `i` are paired.  For arbitrary
/// real-valued costs this is equivalent to scanning all candidate pairs in
/// order of increasing cost and matching both endpoints when they are still
/// free — which is exactly what this implementation does, with
/// node-to-boundary candidates participating in the same sweep.
///
/// The greedy matching is not optimal in general (see the `refine` module
/// for a locally improved variant) but is fast, streaming-friendly and is
/// the algorithm evaluated in hardware in Table IV.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyMatcher {
    /// Optional cap on the cost of candidate pairs considered; candidates
    /// above the cap are skipped and the involved nodes fall back to their
    /// boundary match.  `None` considers every finite candidate.
    pub max_cost: Option<f64>,
}

impl GreedyMatcher {
    /// Creates a greedy matcher that considers all finite-cost candidates.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a greedy matcher that ignores candidate pairs costlier than
    /// `max_cost` (the radius cap `d` of the paper's radius sweep).
    pub fn with_max_cost(max_cost: f64) -> Self {
        Self {
            max_cost: Some(max_cost),
        }
    }
}

impl Matcher for GreedyMatcher {
    /// Produces a greedy matching.
    ///
    /// # Panics
    ///
    /// Panics if some node ends up with neither a finite-cost partner nor a
    /// finite boundary cost.
    fn solve(&self, problem: &MatchingProblem) -> Matching {
        let n = problem.num_nodes();
        // Candidate list: all node–node pairs and node–boundary options.
        #[derive(Debug)]
        enum Candidate {
            Pair(usize, usize),
            Boundary(usize),
        }
        let mut candidates: Vec<(f64, Candidate)> = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            let bc = problem.boundary_cost(i);
            if bc.is_finite() {
                candidates.push((bc, Candidate::Boundary(i)));
            }
            for j in (i + 1)..n {
                let pc = problem.pair_cost(i, j);
                if pc.is_finite() && self.max_cost.is_none_or(|cap| pc <= cap) {
                    candidates.push((pc, Candidate::Pair(i, j)));
                }
            }
        }
        // Sort by cost, pairs before boundary options on ties: a pair covers
        // two nodes for the same price a boundary match covers one, so at
        // equal cost the pair can never be worse.
        candidates.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("costs are never NaN")
                .then_with(|| {
                    let rank = |c: &Candidate| matches!(c, Candidate::Boundary(_)) as u8;
                    rank(&a.1).cmp(&rank(&b.1))
                })
        });

        let mut assignment: Vec<Option<MatchTarget>> = vec![None; n];
        for (_, cand) in candidates {
            match cand {
                Candidate::Pair(i, j) => {
                    if assignment[i].is_none() && assignment[j].is_none() {
                        assignment[i] = Some(MatchTarget::Node(j));
                        assignment[j] = Some(MatchTarget::Node(i));
                    }
                }
                Candidate::Boundary(i) => {
                    if assignment[i].is_none() {
                        assignment[i] = Some(MatchTarget::Boundary);
                    }
                }
            }
        }

        let assignment: Vec<MatchTarget> = assignment
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                t.unwrap_or_else(|| {
                    assert!(
                        problem.boundary_cost(i).is_finite(),
                        "node {i} has no finite-cost partner or boundary option"
                    );
                    MatchTarget::Boundary
                })
            })
            .collect();
        Matching::new(assignment)
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactMatcher;

    #[test]
    fn matches_obvious_pairs() {
        let mut p = MatchingProblem::new(4);
        p.set_pair_cost(0, 1, 1.0);
        p.set_pair_cost(2, 3, 1.0);
        p.set_pair_cost(0, 2, 9.0);
        p.set_pair_cost(0, 3, 9.0);
        p.set_pair_cost(1, 2, 9.0);
        p.set_pair_cost(1, 3, 9.0);
        for i in 0..4 {
            p.set_boundary_cost(i, 5.0);
        }
        let m = GreedyMatcher::new().solve(&p);
        assert_eq!(m.target(0), MatchTarget::Node(1));
        assert_eq!(m.target(2), MatchTarget::Node(3));
        assert_eq!(m.total_cost(&p), 2.0);
    }

    #[test]
    fn greedy_is_suboptimal_on_the_trap_instance() {
        // Demonstrates (and pins down) the known greedy failure mode that the
        // refined matcher repairs.
        let mut p = MatchingProblem::new(4);
        p.set_pair_cost(1, 2, 1.0);
        p.set_pair_cost(0, 1, 2.0);
        p.set_pair_cost(2, 3, 2.0);
        p.set_pair_cost(0, 3, 50.0);
        p.set_pair_cost(0, 2, 50.0);
        p.set_pair_cost(1, 3, 50.0);
        for i in 0..4 {
            p.set_boundary_cost(i, 10.0);
        }
        let greedy = GreedyMatcher::new().solve(&p);
        let exact = ExactMatcher.solve(&p);
        assert!(greedy.total_cost(&p) > exact.total_cost(&p));
        assert_eq!(greedy.total_cost(&p), 21.0); // 1–2 pair + two boundary matches
    }

    #[test]
    fn boundary_wins_when_cheaper() {
        let mut p = MatchingProblem::new(2);
        p.set_pair_cost(0, 1, 3.0);
        p.set_boundary_cost(0, 1.0);
        p.set_boundary_cost(1, 1.0);
        let m = GreedyMatcher::new().solve(&p);
        assert_eq!(m.target(0), MatchTarget::Boundary);
        assert_eq!(m.target(1), MatchTarget::Boundary);
    }

    #[test]
    fn max_cost_cap_forces_boundary_matches() {
        let mut p = MatchingProblem::new(2);
        p.set_pair_cost(0, 1, 8.0);
        p.set_boundary_cost(0, 6.0);
        p.set_boundary_cost(1, 6.0);
        // Without the cap, greedy matches the pair? No: boundary (6) < pair (8),
        // so set boundary dearer to make the cap meaningful.
        let mut p2 = MatchingProblem::new(2);
        p2.set_pair_cost(0, 1, 8.0);
        p2.set_boundary_cost(0, 20.0);
        p2.set_boundary_cost(1, 20.0);
        let uncapped = GreedyMatcher::new().solve(&p2);
        assert_eq!(uncapped.target(0), MatchTarget::Node(1));
        let capped = GreedyMatcher::with_max_cost(5.0).solve(&p2);
        assert_eq!(capped.target(0), MatchTarget::Boundary);
        assert_eq!(capped.target(1), MatchTarget::Boundary);
        let _ = p;
    }

    #[test]
    fn empty_problem() {
        let p = MatchingProblem::new(0);
        let m = GreedyMatcher::new().solve(&p);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "no finite-cost partner")]
    fn infeasible_node_panics() {
        let p = MatchingProblem::new(1);
        let _ = GreedyMatcher::new().solve(&p);
    }

    #[test]
    fn greedy_equals_exact_on_chains_of_adjacent_pairs() {
        // A chain 0-1-2-3 with two well separated tight pairs and a remote
        // boundary: greedy pairs (0,1) and (2,3), which is also optimal.
        let positions = [0.0f64, 1.0, 5.0, 6.0];
        let p = MatchingProblem::from_fn(4, |i, j| (positions[i] - positions[j]).abs(), |_| 10.0);
        let g = GreedyMatcher::new().solve(&p);
        let e = ExactMatcher.solve(&p);
        assert_eq!(
            g.pairs().collect::<Vec<_>>(),
            vec![(0, 1), (2, 3)],
            "greedy pairs the two tight clusters"
        );
        assert!((g.total_cost(&p) - e.total_cost(&p)).abs() < 1e-12);
    }
}
