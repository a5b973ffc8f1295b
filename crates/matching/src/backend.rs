//! Dense decoder backends: shortest-path cost extraction followed by exact
//! or greedy matching on the resulting [`MatchingProblem`].
//!
//! These backends reproduce the classic MWPM decoding flow: run Dijkstra
//! from every defect over the sparse [`SyndromeGraph`], decompose the
//! defects into independent clusters, and solve each cluster with a dense
//! matcher.  The cost is `O(k · E log V)` for the searches plus the dense
//! solve — the bottleneck the sparse backends ([`crate::AltTreeBackend`],
//! [`crate::UnionFindDecoder`]) avoid.
//!
//! Both backends honour the [`crate::DecoderBackend`] scratch contract:
//! the Dijkstra distance array, its validity stamps and the search heap
//! live in the backend and are reused across `decode_defects` calls, so a
//! long-lived backend allocates only for the (small) per-cluster dense
//! problems.

use crate::sparse::{
    units_to_weight, DefectBoundaryMatch, DefectMatching, DefectPair, SparseEdgeId, SyndromeGraph,
    BOUNDARY_END,
};
use crate::{
    DecoderBackend, ExactMatcher, MatchTarget, Matcher, MatchingProblem, RefinedGreedyMatcher,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-defect shortest-path summary, in weight units: distances to every
/// other defect and the cheapest boundary attachment.
struct DefectCosts {
    /// `to_defect[j]` = minimum path cost to defect `j` (`u64::MAX` when
    /// unreachable).
    to_defect: Vec<u64>,
    /// Cheapest `(cost, boundary edge)` attachment, if any boundary is
    /// reachable.
    boundary: Option<(u64, SparseEdgeId)>,
}

/// A path cost in units as a weight, or infinity when unreachable.
fn weight_of(units: u64) -> f64 {
    if units == u64::MAX {
        f64::INFINITY
    } else {
        units_to_weight(units)
    }
}

/// Reusable Dijkstra working memory: the distance array is validated per
/// search through an epoch stamp, so "resetting" it costs nothing — stale
/// entries from earlier searches (or earlier decode calls) simply read as
/// unreached.
#[derive(Debug, Clone, Default)]
struct DijkstraScratch {
    dist: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl DijkstraScratch {
    /// Prepares the scratch for one search over `n` vertices.
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, u64::MAX);
            self.stamp.resize(n, 0);
        }
        self.heap.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The stamp space wrapped: old stamps could alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn get(&self, v: usize) -> u64 {
        if self.stamp[v] == self.epoch {
            self.dist[v]
        } else {
            u64::MAX
        }
    }

    #[inline]
    fn set(&mut self, v: usize, d: u64) {
        self.stamp[v] = self.epoch;
        self.dist[v] = d;
    }
}

/// Dijkstra over the graph's integer weight units from `defects[source]`,
/// reporting distances to all defects and the cheapest boundary edge.  Ties
/// on the boundary are broken towards the smallest edge id so results are
/// deterministic.
fn dijkstra(
    graph: &SyndromeGraph,
    defects: &[usize],
    source: usize,
    scratch: &mut DijkstraScratch,
) -> DefectCosts {
    scratch.begin(graph.num_vertices());
    let mut boundary: Option<(u64, SparseEdgeId)> = None;
    let start = defects[source];
    scratch.set(start, 0);
    scratch.heap.push(Reverse((0, start as u32)));
    while let Some(Reverse((cost, vertex))) = scratch.heap.pop() {
        if cost > scratch.get(vertex as usize) {
            continue;
        }
        for half in graph.halves(vertex as usize) {
            let eid = half.edge as usize;
            let next_cost = cost + u64::from(graph.units(eid));
            if half.to == BOUNDARY_END {
                let better = match boundary {
                    None => true,
                    Some((c, e)) => next_cost < c || (next_cost == c && eid < e),
                };
                if better {
                    boundary = Some((next_cost, eid));
                }
            } else if next_cost < scratch.get(half.to as usize) {
                scratch.set(half.to as usize, next_cost);
                scratch.heap.push(Reverse((next_cost, half.to)));
            }
        }
    }
    DefectCosts {
        to_defect: defects.iter().map(|&v| scratch.get(v)).collect(),
        boundary,
    }
}

/// Shared dense decoding driver: all-pairs defect costs via Dijkstra,
/// cluster decomposition, then `solve` on each cluster's dense problem.
///
/// # Errors
///
/// Returns the size of the first cluster with more than `max_cluster`
/// defects, before solving any cluster.
fn decode_dense(
    graph: &SyndromeGraph,
    defects: &[usize],
    scratch: &mut DijkstraScratch,
    max_cluster: usize,
    solve: impl Fn(&MatchingProblem) -> crate::Matching,
) -> Result<DefectMatching, usize> {
    let k = defects.len();
    if k == 0 {
        return Ok(DefectMatching::default());
    }
    let costs: Vec<DefectCosts> = (0..k)
        .map(|i| dijkstra(graph, defects, i, scratch))
        .collect();

    // Integer path costs are exactly symmetric, and a sum of units is
    // exact in `f64`, so the dense matchers see exact weights.
    let mut pair_cost = vec![f64::INFINITY; k * k];
    for i in 0..k {
        for j in (i + 1)..k {
            let c = weight_of(costs[i].to_defect[j]);
            pair_cost[i * k + j] = c;
            pair_cost[j * k + i] = c;
        }
    }
    let boundary_cost = |i: usize| weight_of(costs[i].boundary.map_or(u64::MAX, |(c, _)| c));

    // Cluster decomposition via union-find: link i and j when pairing them
    // could ever beat sending both to the boundary.
    let mut parent: Vec<usize> = (0..k).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..k {
        for j in (i + 1)..k {
            if pair_cost[i * k + j] < boundary_cost(i) + boundary_cost(j) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    // BTreeMap, not HashMap: cluster iteration order decides the order of
    // emitted pairs and float summation order downstream, so it must be
    // deterministic for seeded runs to be reproducible.
    let mut clusters: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for i in 0..k {
        let root = find(&mut parent, i);
        clusters.entry(root).or_default().push(i);
    }
    if let Some(members) = clusters.values().find(|m| m.len() > max_cluster) {
        return Err(members.len());
    }

    let mut out = DefectMatching {
        num_clusters: clusters.len(),
        ..DefectMatching::default()
    };
    for members in clusters.values() {
        let m = members.len();
        let problem = MatchingProblem::from_fn(
            m,
            |a, b| pair_cost[members[a] * k + members[b]],
            |a| boundary_cost(members[a]),
        );
        let matching = solve(&problem);
        for (local, target) in matching.iter() {
            let global = members[local];
            match target {
                MatchTarget::Node(other_local) => {
                    let other = members[other_local];
                    if global < other {
                        out.pairs.push(DefectPair {
                            a: global,
                            b: other,
                            cost: pair_cost[global * k + other],
                        });
                    }
                }
                MatchTarget::Boundary => {
                    let (cost, edge) = costs[global]
                        .boundary
                        .expect("boundary match requires a reachable boundary");
                    out.boundary.push(DefectBoundaryMatch {
                        defect: global,
                        edge,
                        cost: units_to_weight(cost),
                    });
                }
            }
        }
    }
    Ok(out)
}

/// The exact MWPM test oracle: per-cluster bitmask dynamic programming
/// ([`ExactMatcher`]) on clusters of up to
/// [`ExactMatcher::MAX_NODES`] defects.
///
/// It is not a selectable decoder: the exponential DP cannot serve large
/// clusters, and it never substitutes a heuristic for them.  Use
/// [`ExactBackend::try_decode`] to skip instances whose clusters are too
/// large; [`DecoderBackend::decode_defects`] panics on them instead.
#[derive(Debug, Clone, Default)]
pub struct ExactBackend {
    scratch: DijkstraScratch,
}

impl ExactBackend {
    /// Decodes `defects` exactly, or returns `None` when some independent
    /// cluster has more than [`ExactMatcher::MAX_NODES`] defects.
    ///
    /// # Panics
    ///
    /// Panics when the instance is infeasible, like
    /// [`DecoderBackend::decode_defects`].
    pub fn try_decode(
        &mut self,
        graph: &SyndromeGraph,
        defects: &[usize],
    ) -> Option<DefectMatching> {
        self.decode(graph, defects).ok()
    }

    /// Decodes exactly, or returns the size of the first oversize cluster.
    fn decode(
        &mut self,
        graph: &SyndromeGraph,
        defects: &[usize],
    ) -> Result<DefectMatching, usize> {
        decode_dense(
            graph,
            defects,
            &mut self.scratch,
            ExactMatcher::MAX_NODES,
            |problem| ExactMatcher.solve(problem),
        )
    }
}

impl DecoderBackend for ExactBackend {
    /// # Panics
    ///
    /// Also panics when a cluster exceeds the DP's node limit.
    fn decode_defects(&mut self, graph: &SyndromeGraph, defects: &[usize]) -> DefectMatching {
        self.decode(graph, defects).unwrap_or_else(|size| {
            panic!(
                "exact oracle limited to clusters of {} defects, got a cluster of {size}",
                ExactMatcher::MAX_NODES
            )
        })
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// The greedy backend: per-cluster radius-sweep greedy matching
/// ([`GreedyMatcher`](crate::GreedyMatcher)) followed by a 2-opt repair
/// pass ([`RefinedGreedyMatcher`], at most 64 sweeps), the decoding-grade version of the paper's hardware decoder
/// strategy (Sec. VI-B).  The repair pass is what lets the backend correct
/// every sub-`d/2` error chain — the raw sweep strands a chain's far event
/// on the boundary whenever the near event sits closer to a boundary than
/// to its partner.  Select it with [`crate::MatcherKind::Greedy`].
#[derive(Debug, Clone, Default)]
pub struct GreedyBackend {
    scratch: DijkstraScratch,
}

impl DecoderBackend for GreedyBackend {
    fn decode_defects(&mut self, graph: &SyndromeGraph, defects: &[usize]) -> DefectMatching {
        decode_dense(graph, defects, &mut self.scratch, usize::MAX, |problem| {
            RefinedGreedyMatcher.solve(problem)
        })
        .expect("the greedy backend accepts clusters of any size")
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two defects one cheap edge apart, boundary far away: they pair.
    #[test]
    fn adjacent_defects_pair_up() {
        let g = SyndromeGraph::line(&[1.0, 1.0, 1.0], 10.0);
        let backends: [Box<dyn DecoderBackend>; 2] = [
            Box::new(ExactBackend::default()),
            Box::new(GreedyBackend::default()),
        ];
        for mut backend in backends {
            let m = backend.decode_defects(&g, &[1, 2]);
            assert!(m.is_perfect(2), "{}", backend.name());
            assert_eq!(m.pairs.len(), 1);
            assert!((m.pairs[0].cost - 1.0).abs() < 1e-12);
            assert!(m.boundary.is_empty());
        }
    }

    /// A defect adjacent to the boundary goes to the boundary.
    #[test]
    fn near_boundary_defect_matches_boundary() {
        let g = SyndromeGraph::line(&[1.0, 1.0, 1.0, 1.0], 0.5);
        let m = ExactBackend::default().decode_defects(&g, &[0]);
        assert!(m.is_perfect(1));
        assert_eq!(m.boundary.len(), 1);
        // boundary edge 4 is at vertex 0 (line adds the low stub first)
        let be = m.boundary[0].edge;
        assert!(g.edge(be).is_boundary());
        assert_eq!(g.edge(be).u, 0);
        assert!((m.boundary[0].cost - 0.5).abs() < 1e-12);
    }

    /// The greedy trap: exact repairs it, greedy does not.
    #[test]
    fn exact_beats_greedy_on_the_trap() {
        // defects at 0, 2, 3, 5 on a line with cheap middle edges
        let g = SyndromeGraph::line(&[2.0, 0.5, 0.5, 0.5, 2.0], 4.0);
        let defects = [0usize, 2, 3, 5];
        let exact = ExactBackend::default().decode_defects(&g, &defects);
        let greedy = GreedyBackend::default().decode_defects(&g, &defects);
        assert!(exact.is_perfect(4));
        assert!(greedy.is_perfect(4));
        assert!(exact.total_cost() <= greedy.total_cost() + 1e-12);
    }

    /// A cluster beyond the DP's node limit is refused, never approximated.
    #[test]
    fn oversize_cluster_yields_none_and_decode_panics() {
        let g = SyndromeGraph::line(&[0.1; 40], 100.0);
        let fits: Vec<usize> = (0..ExactMatcher::MAX_NODES).collect();
        let too_big: Vec<usize> = (0..=ExactMatcher::MAX_NODES + 1).collect();
        let mut oracle = ExactBackend::default();
        let m = oracle.try_decode(&g, &fits).expect("fits the DP");
        assert!(m.is_perfect(fits.len()));
        assert_eq!(m.num_clusters, 1);
        assert!(oracle.try_decode(&g, &too_big).is_none());
        let panic = std::panic::catch_unwind(move || oracle.decode_defects(&g, &too_big))
            .expect_err("oversize cluster must panic");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("got a cluster of 24"), "{message}");
    }

    #[test]
    fn empty_defect_list_yields_empty_matching() {
        let g = SyndromeGraph::line(&[1.0], 1.0);
        let m = GreedyBackend::default().decode_defects(&g, &[]);
        assert!(m.pairs.is_empty() && m.boundary.is_empty());
        assert_eq!(m.num_clusters, 0);
    }

    #[test]
    fn well_separated_defects_form_two_clusters() {
        let g = SyndromeGraph::line(&[1.0; 12], 1.0);
        // defects near opposite ends: both go to their boundary
        let m = ExactBackend::default().decode_defects(&g, &[1, 11]);
        assert_eq!(m.num_clusters, 2);
        assert_eq!(m.boundary.len(), 2);
    }

    #[test]
    fn zero_weight_edges_are_traversed_for_free() {
        let g = SyndromeGraph::line(&[1.0, 0.0, 0.0, 0.0, 1.0], 10.0);
        let m = ExactBackend::default().decode_defects(&g, &[0, 5]);
        assert_eq!(m.pairs.len(), 1);
        assert!((m.pairs[0].cost - 2.0).abs() < 1e-12);
    }

    /// A reused backend must reproduce a fresh backend's matching exactly,
    /// even across graphs of different sizes (the scratch arrays only ever
    /// grow).
    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_backends() {
        let big = SyndromeGraph::line(&[1.0; 30], 2.0);
        let small = SyndromeGraph::line(&[0.5, 2.0, 0.5], 1.0);
        let mut reused_exact = ExactBackend::default();
        let mut reused_greedy = GreedyBackend::default();
        for (graph, defects) in [
            (&big, vec![3usize, 4, 20, 27]),
            (&small, vec![0usize, 3]),
            (&big, vec![0usize, 1, 2, 3, 4, 5]),
            (&small, vec![2usize]),
        ] {
            let fe = ExactBackend::default().decode_defects(graph, &defects);
            let fg = GreedyBackend::default().decode_defects(graph, &defects);
            assert_eq!(reused_exact.decode_defects(graph, &defects), fe);
            assert_eq!(reused_greedy.decode_defects(graph, &defects), fg);
        }
    }
}
