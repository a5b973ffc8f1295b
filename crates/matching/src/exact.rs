//! Exact minimum-weight matching by bitmask dynamic programming.

use crate::{MatchTarget, Matcher, Matching, MatchingProblem};

/// Exact minimum-weight matcher.
///
/// The matcher enumerates assignments with a bitmask dynamic program over
/// subsets of nodes: `dp[mask]` is the minimum cost of matching the nodes in
/// `mask` among themselves and the boundary.  Complexity is `O(2ⁿ · n)`,
/// practical up to `n ≈ 22`.  It is the oracle the other matchers are
/// tested against: weight equality for the exact tree backend, a one-sided
/// bound for the greedy family.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMatcher;

impl ExactMatcher {
    /// Node-count limit beyond which [`ExactMatcher::solve`] panics.
    pub const MAX_NODES: usize = 22;

    /// Returns the optimal cost without materialising the matching.
    pub fn optimal_cost(&self, problem: &MatchingProblem) -> f64 {
        let (cost, _) = self.dp(problem);
        cost
    }

    fn dp(&self, problem: &MatchingProblem) -> (f64, Vec<MatchTarget>) {
        let n = problem.num_nodes();
        assert!(
            n <= Self::MAX_NODES,
            "exact matcher limited to {} nodes, got {n}",
            Self::MAX_NODES
        );
        if n == 0 {
            return (0.0, Vec::new());
        }
        let full: usize = (1usize << n) - 1;
        // dp[mask] = min cost to match all nodes present in `mask`.
        let mut dp = vec![f64::INFINITY; full + 1];
        // choice[mask] = the partner chosen for the lowest set bit of `mask`.
        let mut choice: Vec<Option<MatchTarget>> = vec![None; full + 1];
        dp[0] = 0.0;
        for mask in 1..=full {
            let i = mask.trailing_zeros() as usize;
            let rest = mask & !(1 << i);
            // Option 1: match node i to the boundary.
            let boundary_cost = problem.boundary_cost(i);
            if boundary_cost.is_finite() && dp[rest].is_finite() {
                let c = dp[rest] + boundary_cost;
                if c < dp[mask] {
                    dp[mask] = c;
                    choice[mask] = Some(MatchTarget::Boundary);
                }
            }
            // Option 2: match node i with another node j in the mask.
            let mut remaining = rest;
            while remaining != 0 {
                let j = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let pair_cost = problem.pair_cost(i, j);
                let sub = rest & !(1 << j);
                if pair_cost.is_finite() && dp[sub].is_finite() {
                    let c = dp[sub] + pair_cost;
                    if c < dp[mask] {
                        dp[mask] = c;
                        choice[mask] = Some(MatchTarget::Node(j));
                    }
                }
            }
        }
        assert!(
            dp[full].is_finite(),
            "matching problem is infeasible: some node has no finite-cost partner"
        );

        // Reconstruct the assignment.
        let mut assignment = vec![MatchTarget::Boundary; n];
        let mut mask = full;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            match choice[mask].expect("finite dp entry must have a recorded choice") {
                MatchTarget::Boundary => {
                    assignment[i] = MatchTarget::Boundary;
                    mask &= !(1 << i);
                }
                MatchTarget::Node(j) => {
                    assignment[i] = MatchTarget::Node(j);
                    assignment[j] = MatchTarget::Node(i);
                    mask &= !(1 << i);
                    mask &= !(1 << j);
                }
            }
        }
        (dp[full], assignment)
    }
}

impl Matcher for ExactMatcher {
    /// Solves the problem exactly.
    ///
    /// # Panics
    ///
    /// Panics if the problem has more than [`ExactMatcher::MAX_NODES`] nodes
    /// or if no finite-cost complete matching exists.
    fn solve(&self, problem: &MatchingProblem) -> Matching {
        let (_, assignment) = self.dp(problem);
        Matching::new(assignment)
    }

    fn name(&self) -> &'static str {
        "exact-dp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_problem(n: usize, boundary: f64) -> MatchingProblem {
        MatchingProblem::from_fn(n, |i, j| (i.abs_diff(j)) as f64, |_| boundary)
    }

    #[test]
    fn empty_problem_has_empty_matching() {
        let p = MatchingProblem::new(0);
        let m = ExactMatcher.solve(&p);
        assert!(m.is_empty());
        assert_eq!(m.total_cost(&p), 0.0);
    }

    #[test]
    fn single_node_goes_to_boundary() {
        let mut p = MatchingProblem::new(1);
        p.set_boundary_cost(0, 2.0);
        let m = ExactMatcher.solve(&p);
        assert_eq!(m.target(0), MatchTarget::Boundary);
        assert_eq!(m.total_cost(&p), 2.0);
    }

    #[test]
    fn prefers_cheap_pairing_over_boundary() {
        let mut p = MatchingProblem::new(2);
        p.set_pair_cost(0, 1, 1.0);
        p.set_boundary_cost(0, 10.0);
        p.set_boundary_cost(1, 10.0);
        let m = ExactMatcher.solve(&p);
        assert_eq!(m.target(0), MatchTarget::Node(1));
        assert_eq!(m.total_cost(&p), 1.0);
    }

    #[test]
    fn prefers_boundary_when_pairing_is_expensive() {
        let mut p = MatchingProblem::new(2);
        p.set_pair_cost(0, 1, 10.0);
        p.set_boundary_cost(0, 1.0);
        p.set_boundary_cost(1, 1.0);
        let m = ExactMatcher.solve(&p);
        assert_eq!(m.target(0), MatchTarget::Boundary);
        assert_eq!(m.target(1), MatchTarget::Boundary);
        assert_eq!(m.total_cost(&p), 2.0);
    }

    #[test]
    fn mixed_assignment_three_nodes() {
        // nodes 0,1 close together; node 2 near the boundary
        let mut p = MatchingProblem::new(3);
        p.set_pair_cost(0, 1, 1.0);
        p.set_pair_cost(0, 2, 5.0);
        p.set_pair_cost(1, 2, 5.0);
        p.set_boundary_cost(0, 4.0);
        p.set_boundary_cost(1, 4.0);
        p.set_boundary_cost(2, 1.5);
        let m = ExactMatcher.solve(&p);
        assert_eq!(m.target(0), MatchTarget::Node(1));
        assert_eq!(m.target(2), MatchTarget::Boundary);
        assert!((m.total_cost(&p) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn greedy_trap_is_solved_optimally() {
        // Greedy would match 1–2 (cost 1) and pay 10 + 10 for the rest;
        // optimal is 0–1 and 2–3 for 2 + 2 = 4.
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
        let m = ExactMatcher.solve(&p);
        assert_eq!(m.target(0), MatchTarget::Node(1));
        assert_eq!(m.target(2), MatchTarget::Node(3));
        assert!((m.total_cost(&p) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn odd_number_of_nodes_uses_boundary_at_least_once() {
        let p = uniform_problem(5, 0.7);
        let m = ExactMatcher.solve(&p);
        assert!(m.is_complete());
        assert!(m.boundary_nodes().count() % 2 == 1);
    }

    #[test]
    fn cost_matches_optimal_cost_helper() {
        let p = uniform_problem(8, 1.3);
        let matcher = ExactMatcher;
        let m = matcher.solve(&p);
        assert!((m.total_cost(&p) - matcher.optimal_cost(&p)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_problem_panics() {
        // single node with no boundary option
        let p = MatchingProblem::new(1);
        let _ = ExactMatcher.solve(&p);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn too_many_nodes_panics() {
        let p = MatchingProblem::new(ExactMatcher::MAX_NODES + 1);
        let _ = ExactMatcher.solve(&p);
    }
}
