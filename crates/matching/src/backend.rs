//! Dense decoder backends: shortest-path costs between defects, cluster
//! decomposition, then exact or greedy matching on each cluster's dense
//! cost matrix.
//!
//! These backends reproduce the classic MWPM decoding flow: run Dijkstra
//! from every defect over the sparse [`SyndromeGraph`], decompose the
//! defects into independent clusters, and solve each cluster with a dense
//! matcher.  The cost is `O(k · E log V)` for the searches plus the dense
//! solve — the bottleneck the sparse backends ([`crate::AltTreeBackend`],
//! [`crate::UnionFindDecoder`]) avoid.
//!
//! Every cost is a sum of the graph's integer weight units in a `u64`;
//! [`UNREACHABLE`] marks a missing path, and sums saturate so it stays
//! unreachable.  Comparisons are therefore exact: no tie depends on float
//! rounding, and the reported costs (`units · 2^-21`) compare with `==`
//! against every other backend's.
//!
//! Both backends honour the [`crate::DecoderBackend`] scratch contract:
//! the Dijkstra distance array, its validity stamps and the search heap
//! live in the backend and are reused across `decode_defects` calls, so a
//! long-lived backend allocates only for the (small) dense cost matrices.

use crate::sparse::{
    units_to_weight, DefectBoundaryMatch, DefectMatching, DefectPair, SparseEdgeId, SyndromeGraph,
    BOUNDARY_END,
};
use crate::DecoderBackend;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Add;

/// The path cost of an unreachable target, in weight units.
const UNREACHABLE: u64 = u64::MAX;

/// The largest cluster the exact oracle's bitmask DP accepts: `O(2ⁿ · n)`
/// time and `2ⁿ` table entries.
const MAX_CLUSTER: usize = 22;

/// The greedy backend's bound on 2-opt repair sweeps.
const MAX_ROUNDS: usize = 64;

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
            self.dist.resize(n, UNREACHABLE);
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
            UNREACHABLE
        }
    }

    #[inline]
    fn set(&mut self, v: usize, d: u64) {
        self.stamp[v] = self.epoch;
        self.dist[v] = d;
    }
}

/// Dijkstra over the graph's integer weight units from `defects[source]`:
/// writes the distance to every defect into `row` and returns the cheapest
/// `(cost, boundary edge)` attachment, if a boundary is reachable.  Ties on
/// the boundary are broken towards the smallest edge id so results are
/// deterministic.
fn dijkstra(
    graph: &SyndromeGraph,
    defects: &[usize],
    source: usize,
    scratch: &mut DijkstraScratch,
    row: &mut [u64],
) -> Option<(u64, SparseEdgeId)> {
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
                if boundary.is_none_or(|(c, e)| (next_cost, eid) < (c, e)) {
                    boundary = Some((next_cost, eid));
                }
            } else if next_cost < scratch.get(half.to as usize) {
                scratch.set(half.to as usize, next_cost);
                scratch.heap.push(Reverse((next_cost, half.to)));
            }
        }
    }
    for (d, &v) in row.iter_mut().zip(defects) {
        *d = scratch.get(v);
    }
    boundary
}

/// One cluster's costs in weight units, indexed by each defect's position
/// in the cluster.  Unreachable is [`UNREACHABLE`].
struct ClusterCosts {
    n: usize,
    /// Row-major `n × n`, symmetric; the diagonal is unused.
    pair: Vec<u64>,
    boundary: Vec<u64>,
}

impl ClusterCosts {
    /// Evaluates `pair` once per unordered pair and `boundary` per node.
    fn from_fn(
        n: usize,
        pair: impl Fn(usize, usize) -> u64,
        boundary: impl Fn(usize) -> u64,
    ) -> Self {
        let mut costs = Self {
            n,
            pair: vec![UNREACHABLE; n * n],
            boundary: (0..n).map(boundary).collect(),
        };
        for i in 0..n {
            for j in (i + 1)..n {
                let c = pair(i, j);
                (costs.pair[i * n + j], costs.pair[j * n + i]) = (c, c);
            }
        }
        costs
    }

    /// The cost of pairing nodes `a` and `b`.
    fn pair(&self, a: usize, b: usize) -> u64 {
        self.pair[a * self.n + b]
    }

    /// The cost of matching node `a` to the boundary.
    fn boundary(&self, a: usize) -> u64 {
        self.boundary[a]
    }
}

/// A cluster solution: each node's partner, `None` for the boundary.
type Partners = Vec<Option<usize>>;

/// Shared dense decoding driver: all-pairs defect costs via Dijkstra,
/// cluster decomposition, then `solve` on each cluster.
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
    solve: impl Fn(&ClusterCosts) -> Partners,
) -> Result<DefectMatching, usize> {
    let k = defects.len();
    if k == 0 {
        return Ok(DefectMatching::default());
    }
    // Integer path costs are exactly symmetric, so row `i` of the matrix
    // is Dijkstra from defect `i`.
    let mut pair = vec![UNREACHABLE; k * k];
    let attachments: Vec<Option<(u64, SparseEdgeId)>> = pair
        .chunks_mut(k)
        .enumerate()
        .map(|(i, row)| dijkstra(graph, defects, i, scratch, row))
        .collect();
    let boundary: Vec<u64> = attachments
        .iter()
        .map(|b| b.map_or(UNREACHABLE, |(c, _)| c))
        .collect();

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
            if pair[i * k + j] < boundary[i].saturating_add(boundary[j]) {
                let root = find(&mut parent, i);
                parent[root] = find(&mut parent, j);
            }
        }
    }
    // BTreeMap, not HashMap: cluster iteration order decides the order of
    // emitted pairs and float summation order downstream, so it must be
    // deterministic for seeded runs to be reproducible.
    let mut clusters: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
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
        let costs = ClusterCosts::from_fn(
            members.len(),
            |a, b| pair[members[a] * k + members[b]],
            |a| boundary[members[a]],
        );
        for (local, partner) in solve(&costs).into_iter().enumerate() {
            let global = members[local];
            match partner {
                Some(other_local) => {
                    let other = members[other_local];
                    if global < other {
                        out.pairs.push(DefectPair {
                            a: global,
                            b: other,
                            cost: units_to_weight(pair[global * k + other]),
                        });
                    }
                }
                None => {
                    let (cost, edge) =
                        attachments[global].expect("boundary match requires a reachable boundary");
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

/// Exact minimum-weight matching of `n` nodes with a boundary by bitmask
/// dynamic programming: `dp[mask]` is the cheapest way to match the nodes
/// of `mask` among themselves and the boundary, `O(2ⁿ · n)` in all.
/// `pair` and `boundary` return `None` for an unreachable partner.  Returns
/// the optimum and each node's partner; on ties the first option found
/// wins (the boundary, then partners in index order).
///
/// The cost type is generic so that tests can also solve on raw `f64`
/// weights.
///
/// # Panics
///
/// Panics if `n` exceeds [`MAX_CLUSTER`] or no complete matching exists.
pub(crate) fn min_weight_matching<C>(
    n: usize,
    pair: impl Fn(usize, usize) -> Option<C>,
    boundary: impl Fn(usize) -> Option<C>,
) -> (C, Partners)
where
    C: Copy + PartialOrd + Add<Output = C> + Default,
{
    assert!(
        n <= MAX_CLUSTER,
        "exact matcher limited to {MAX_CLUSTER} nodes, got {n}"
    );
    let full = (1usize << n) - 1;
    let mut dp: Vec<Option<C>> = vec![None; full + 1];
    // choice[mask]: the partner of the lowest node of `mask` (`None`: the
    // boundary), valid where `dp[mask]` is.
    let mut choice: Vec<Option<u8>> = vec![None; full + 1];
    dp[0] = Some(C::default());
    for mask in 1..=full {
        let i = mask.trailing_zeros() as usize;
        let rest = mask & !(1 << i);
        let mut best = dp[rest].zip(boundary(i)).map(|(d, c)| d + c);
        let mut remaining = rest;
        while remaining != 0 {
            let j = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            if let (Some(d), Some(c)) = (dp[rest & !(1 << j)], pair(i, j)) {
                if best.is_none_or(|b| d + c < b) {
                    best = Some(d + c);
                    choice[mask] = Some(j as u8);
                }
            }
        }
        dp[mask] = best;
    }
    let total = dp[full]
        .expect("matching problem is infeasible: some node has no reachable partner or boundary");

    let mut partners = vec![None; n];
    let mut mask = full;
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        let pick = choice[mask];
        mask &= !(1 << i);
        if let Some(j) = pick.map(usize::from) {
            (partners[i], partners[j]) = (Some(j), Some(i));
            mask &= !(1 << j);
        }
    }
    (total, partners)
}

/// The exact solve of one cluster on its integer costs.
fn exact(costs: &ClusterCosts) -> Partners {
    let finite = |units: u64| (units != UNREACHABLE).then_some(units);
    min_weight_matching(
        costs.n,
        |a, b| finite(costs.pair(a, b)),
        |a| finite(costs.boundary(a)),
    )
    .1
}

/// The radius sweep of the paper's hardware decoder (QECOOL, Sec. VI-B):
/// with increasing radius, pair any two free nodes that close, or a free
/// node with the boundary.  With the costs known that is taking every
/// reachable candidate in order of increasing cost.  At equal cost pairs
/// go first (a pair covers two nodes for the price a boundary match pays
/// for one), then candidates in index order.
///
/// # Panics
///
/// Panics if a node is left with neither a free partner nor a reachable
/// boundary.
fn greedy(costs: &ClusterCosts) -> Partners {
    let n = costs.n;
    let mut candidates: Vec<(u64, bool, usize, usize)> = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..n {
        candidates.push((costs.boundary(i), true, i, i));
        candidates.extend(((i + 1)..n).map(|j| (costs.pair(i, j), false, i, j)));
    }
    candidates.retain(|&(cost, ..)| cost != UNREACHABLE);
    candidates.sort_unstable();

    let mut taken = vec![false; n];
    let mut partners = vec![None; n];
    for (_, is_boundary, i, j) in candidates {
        if is_boundary {
            taken[i] = true;
        } else if !taken[i] && !taken[j] {
            (taken[i], taken[j]) = (true, true);
            (partners[i], partners[j]) = (Some(j), Some(i));
        }
    }
    if let Some(i) = taken.iter().position(|&t| !t) {
        panic!("node {i} has no reachable partner or boundary");
    }
    partners
}

/// Up to `max_rounds` sweeps of 2-opt repair moves on a complete matching,
/// each applied when it strictly lowers the cost:
///
/// * **pair/pair swap** — for pairs `(a,b)` and `(c,d)`, rewire to
///   `(a,c),(b,d)` or `(a,d),(b,c)`;
/// * **pair/boundary swap** — for a pair `(a,b)` and a boundary node `c`,
///   rewire to `(a,c)` with `b` on the boundary (and the symmetric
///   variants);
/// * **pair break** — split a pair into two boundary matches;
/// * **boundary merge** — join two boundary nodes into a pair;
/// * **pair absorption** — rewire a pair `(a,b)` and two boundary nodes
///   into two pairs, the move that repairs the classic greedy trap where
///   one cheap pair strands its neighbours on the boundary.
///
/// This recovers the optimum on most small decoding instances but is not
/// exact in general: it is the greedy backend's repair pass, never a
/// stand-in for exact matching.
fn repair(costs: &ClusterCosts, partners: &mut [Option<usize>], max_rounds: usize) {
    for _ in 0..max_rounds {
        if !improve_once(costs, partners) {
            break;
        }
    }
}

/// One repair sweep.  Returns `true` if the matching changed.
fn improve_once(costs: &ClusterCosts, partners: &mut [Option<usize>]) -> bool {
    let n = partners.len();
    let pair = |a: usize, b: usize| costs.pair(a, b);
    let boundary = |a: usize| costs.boundary(a);
    let sum = |x: u64, y: u64| x.saturating_add(y);
    let mut improved = false;

    for a in 0..n {
        for b in (a + 1)..n {
            match (partners[a], partners[b]) {
                // boundary merge
                (None, None) if pair(a, b) < sum(boundary(a), boundary(b)) => {
                    (partners[a], partners[b]) = (Some(b), Some(a));
                    improved = true;
                }
                (Some(pa), None) if pa != b => {
                    improved |= swap_with_boundary(costs, partners, a, pa, b);
                }
                (None, Some(pb)) if pb != a => {
                    improved |= swap_with_boundary(costs, partners, b, pb, a);
                }
                (Some(pa), Some(pb)) if pa != b && pb != a && a < pa && b < pb => {
                    // pair/pair swap between (a, pa) and (b, pb)
                    let current = sum(pair(a, pa), pair(b, pb));
                    let swap1 = sum(pair(a, b), pair(pa, pb));
                    let swap2 = sum(pair(a, pb), pair(pa, b));
                    if swap1 < current && swap1 <= swap2 {
                        (partners[a], partners[b]) = (Some(b), Some(a));
                        (partners[pa], partners[pb]) = (Some(pb), Some(pa));
                        improved = true;
                    } else if swap2 < current {
                        (partners[a], partners[pb]) = (Some(pb), Some(a));
                        (partners[pa], partners[b]) = (Some(b), Some(pa));
                        improved = true;
                    }
                }
                _ => {}
            }
        }
        // pair break: (a, pa) → two boundary matches
        if let Some(pa) = partners[a] {
            if sum(boundary(a), boundary(pa)) < pair(a, pa) {
                (partners[a], partners[pa]) = (None, None);
                improved = true;
            }
        }
    }

    // pair absorption: (a, pa) + boundary nodes b, c → two pairs.
    let boundary_nodes: Vec<usize> = (0..n).filter(|&i| partners[i].is_none()).collect();
    for a in 0..n {
        let pa = match partners[a] {
            Some(pa) if a < pa => pa,
            _ => continue,
        };
        let current_pair = pair(a, pa);
        // best: (cost, a's new partner, pa's new partner)
        let mut best: Option<(u64, usize, usize)> = None;
        for (bi, &b) in boundary_nodes.iter().enumerate() {
            if partners[b].is_some() {
                continue;
            }
            for &c in &boundary_nodes[bi + 1..] {
                if partners[c].is_some() {
                    continue;
                }
                let current = sum(sum(current_pair, boundary(b)), boundary(c));
                let opt1 = sum(pair(a, b), pair(pa, c));
                let opt2 = sum(pair(a, c), pair(pa, b));
                let cand = if opt1 <= opt2 {
                    (opt1, b, c)
                } else {
                    (opt2, c, b)
                };
                if cand.0 < current && best.is_none_or(|(bc, ..)| cand.0 < bc) {
                    best = Some(cand);
                }
            }
        }
        if let Some((_, first, second)) = best {
            (partners[a], partners[first]) = (Some(first), Some(a));
            (partners[pa], partners[second]) = (Some(second), Some(pa));
            improved = true;
        }
    }
    improved
}

/// The pair/boundary swap for a pair `(x, px)` and a boundary node `y`:
/// rewire to `(y, px)` with `x` on the boundary, or to `(x, y)` with `px`
/// on the boundary, whichever is cheaper, if it beats the current cost.
/// Returns `true` if the matching changed.
fn swap_with_boundary(
    costs: &ClusterCosts,
    partners: &mut [Option<usize>],
    x: usize,
    px: usize,
    y: usize,
) -> bool {
    let sum = |p: u64, q: u64| p.saturating_add(q);
    let current = sum(costs.pair(x, px), costs.boundary(y));
    let swap1 = sum(costs.pair(y, px), costs.boundary(x));
    let swap2 = sum(costs.pair(x, y), costs.boundary(px));
    if swap1 < current && swap1 <= swap2 {
        (partners[y], partners[px], partners[x]) = (Some(px), Some(y), None);
    } else if swap2 < current {
        (partners[x], partners[y], partners[px]) = (Some(y), Some(x), None);
    } else {
        return false;
    }
    true
}

/// The exact MWPM test oracle: per-cluster bitmask dynamic programming on
/// clusters of up to 22 defects.
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
    /// cluster has more than 22 defects.
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
        decode_dense(graph, defects, &mut self.scratch, MAX_CLUSTER, exact).ok()
    }
}

impl DecoderBackend for ExactBackend {
    /// # Panics
    ///
    /// Also panics when a cluster exceeds the DP's node limit.
    fn decode_defects(&mut self, graph: &SyndromeGraph, defects: &[usize]) -> DefectMatching {
        decode_dense(graph, defects, &mut self.scratch, MAX_CLUSTER, exact).unwrap_or_else(
            |size| {
                panic!(
                    "exact oracle limited to clusters of {MAX_CLUSTER} defects, got a cluster of {size}"
                )
            },
        )
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// The greedy backend: per-cluster radius-sweep greedy matching followed
/// by at most 64 sweeps of 2-opt repair, the decoding-grade version of the
/// paper's hardware decoder strategy (Sec. VI-B).  The repair pass is what
/// lets the backend correct every sub-`d/2` error chain — the raw sweep
/// strands a chain's far event on the boundary whenever the near event
/// sits closer to a boundary than to its partner.  Select it with
/// [`crate::MatcherKind::Greedy`].
#[derive(Debug, Clone, Default)]
pub struct GreedyBackend {
    scratch: DijkstraScratch,
}

impl DecoderBackend for GreedyBackend {
    fn decode_defects(&mut self, graph: &SyndromeGraph, defects: &[usize]) -> DefectMatching {
        decode_dense(graph, defects, &mut self.scratch, usize::MAX, |costs| {
            let mut partners = greedy(costs);
            repair(costs, &mut partners, MAX_ROUNDS);
            partners
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The cost of `partners`, each pair counted once.
    fn cost(c: &ClusterCosts, partners: &[Option<usize>]) -> u64 {
        let pairs = (0..c.n).filter_map(|i| partners[i].filter(|&j| i < j).map(|j| c.pair(i, j)));
        let boundary = (0..c.n)
            .filter(|&i| partners[i].is_none())
            .map(|i| c.boundary(i));
        pairs.chain(boundary).sum()
    }

    /// Greedy followed by at most `max_rounds` repair sweeps.
    fn refined(c: &ClusterCosts, max_rounds: usize) -> Partners {
        let mut partners = greedy(c);
        repair(c, &mut partners, max_rounds);
        partners
    }

    /// Whether `partners` is a complete matching: an involution without
    /// self-pairs.
    fn is_complete(partners: &[Option<usize>]) -> bool {
        partners.iter().enumerate().all(|(i, &p)| match p {
            None => true,
            Some(j) => j != i && partners.get(j) == Some(&Some(i)),
        })
    }

    /// A cluster with unit-spaced pair costs `scale · |i − j|`.
    fn uniform(n: usize, scale: u64, boundary: u64) -> ClusterCosts {
        ClusterCosts::from_fn(n, |i, j| scale * i.abs_diff(j) as u64, |_| boundary)
    }

    /// One node with no reachable partner or boundary.
    fn stranded() -> ClusterCosts {
        ClusterCosts::from_fn(1, |_, _| UNREACHABLE, |_| UNREACHABLE)
    }

    /// Two nodes with pair cost `pair` and boundary costs `boundary`.
    fn two(pair: u64, boundary: u64) -> ClusterCosts {
        ClusterCosts::from_fn(2, |_, _| pair, |_| boundary)
    }

    /// The greedy trap: the cheap middle pair strands both ends.
    fn trap() -> ClusterCosts {
        ClusterCosts::from_fn(
            4,
            |i, j| match (i, j) {
                (1, 2) => 1,
                (0, 1) | (2, 3) => 2,
                _ => 50,
            },
            |_| 10,
        )
    }

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
        assert!(exact.total_cost() <= greedy.total_cost());
    }

    /// A cluster beyond the DP's node limit is refused, never approximated.
    #[test]
    fn oversize_cluster_yields_none_and_decode_panics() {
        let g = SyndromeGraph::line(&[0.1; 40], 100.0);
        let fits: Vec<usize> = (0..MAX_CLUSTER).collect();
        let too_big: Vec<usize> = (0..=MAX_CLUSTER + 1).collect();
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

    // The bitmask DP.

    #[test]
    fn empty_problem_has_empty_matching() {
        let c = uniform(0, 1, 1);
        let m = exact(&c);
        assert!(m.is_empty());
        assert_eq!(cost(&c, &m), 0);
    }

    #[test]
    fn single_node_goes_to_boundary() {
        let c = uniform(1, 1, 2);
        let m = exact(&c);
        assert_eq!(m, [None]);
        assert_eq!(cost(&c, &m), 2);
    }

    #[test]
    fn prefers_cheap_pairing_over_boundary() {
        let c = two(1, 10);
        let m = exact(&c);
        assert_eq!(m, [Some(1), Some(0)]);
        assert_eq!(cost(&c, &m), 1);
    }

    #[test]
    fn prefers_boundary_when_pairing_is_expensive() {
        let c = two(10, 1);
        let m = exact(&c);
        assert_eq!(m, [None, None]);
        assert_eq!(cost(&c, &m), 2);
    }

    #[test]
    fn mixed_assignment_three_nodes() {
        // nodes 0,1 close together; node 2 near the boundary
        let c = ClusterCosts::from_fn(
            3,
            |i, j| if (i, j) == (0, 1) { 2 } else { 10 },
            |i| [8, 8, 3][i],
        );
        let m = exact(&c);
        assert_eq!(m, [Some(1), Some(0), None]);
        assert_eq!(cost(&c, &m), 5);
    }

    #[test]
    fn greedy_trap_is_solved_optimally() {
        // Greedy would match 1–2 (cost 1) and pay 10 + 10 for the rest;
        // optimal is 0–1 and 2–3 for 2 + 2 = 4.
        let c = trap();
        let m = exact(&c);
        assert_eq!(m, [Some(1), Some(0), Some(3), Some(2)]);
        assert_eq!(cost(&c, &m), 4);
    }

    #[test]
    fn odd_number_of_nodes_uses_boundary_at_least_once() {
        let m = exact(&uniform(5, 10, 7));
        assert!(is_complete(&m));
        assert!(m.iter().filter(|p| p.is_none()).count() % 2 == 1);
    }

    #[test]
    fn cost_matches_optimal_cost_helper() {
        let c = uniform(8, 10, 13);
        let (optimum, m) =
            min_weight_matching(8, |a, b| Some(c.pair(a, b)), |a| Some(c.boundary(a)));
        assert_eq!(cost(&c, &m), optimum);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_problem_panics() {
        let _ = exact(&stranded());
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn too_many_nodes_panics() {
        let _ = exact(&uniform(MAX_CLUSTER + 1, 1, 1));
    }

    // The greedy sweep.

    #[test]
    fn matches_obvious_pairs() {
        let c = ClusterCosts::from_fn(4, |i, j| if j == i + 1 && i != 1 { 1 } else { 9 }, |_| 5);
        let m = greedy(&c);
        assert_eq!(m, [Some(1), Some(0), Some(3), Some(2)]);
        assert_eq!(cost(&c, &m), 2);
    }

    #[test]
    fn greedy_is_suboptimal_on_the_trap_instance() {
        // Demonstrates (and pins down) the known greedy failure mode that
        // the repair pass fixes.
        let c = trap();
        let greedy = greedy(&c);
        assert!(cost(&c, &greedy) > cost(&c, &exact(&c)));
        assert_eq!(cost(&c, &greedy), 21); // 1–2 pair + two boundary matches
    }

    #[test]
    fn boundary_wins_when_cheaper() {
        assert_eq!(greedy(&two(3, 1)), [None, None]);
    }

    #[test]
    fn empty_problem() {
        assert!(greedy(&uniform(0, 1, 1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "no reachable partner")]
    fn infeasible_node_panics() {
        let _ = greedy(&stranded());
    }

    #[test]
    fn greedy_equals_exact_on_chains_of_adjacent_pairs() {
        // A chain 0-1-2-3 with two well separated tight pairs and a remote
        // boundary: greedy pairs (0,1) and (2,3), which is also optimal.
        let positions = [0u64, 1, 5, 6];
        let c = ClusterCosts::from_fn(4, |i, j| positions[i].abs_diff(positions[j]), |_| 10);
        let g = greedy(&c);
        assert_eq!(g, [Some(1), Some(0), Some(3), Some(2)]);
        assert_eq!(cost(&c, &g), cost(&c, &exact(&c)));
    }

    // The 2-opt repair pass.

    #[test]
    fn refined_repairs_the_greedy_trap() {
        let c = trap();
        assert_eq!(cost(&c, &refined(&c, MAX_ROUNDS)), cost(&c, &exact(&c)));
    }

    #[test]
    fn refined_never_worse_than_greedy() {
        let c = ClusterCosts::from_fn(
            9,
            |i, j| ((i * 7 + j * 13) % 11) as u64 + 1,
            |i| ((i * 5) % 7) as u64 + 1,
        );
        assert!(cost(&c, &refined(&c, MAX_ROUNDS)) <= cost(&c, &greedy(&c)));
    }

    #[test]
    fn zero_round_refinement_equals_greedy() {
        let c = ClusterCosts::from_fn(7, |i, j| ((i * j) % 5) as u64 + 1, |_| 2);
        assert_eq!(refined(&c, 0), greedy(&c));
    }

    /// Nodes on a line in `0..span`, boundary at both ends.
    fn line_instance(positions: &[u64], span: u64) -> ClusterCosts {
        ClusterCosts::from_fn(
            positions.len(),
            |i, j| positions[i].abs_diff(positions[j]),
            |i| positions[i].min(span - positions[i]),
        )
    }

    // Seeded-RNG property tests (128 random cases each).
    const PROPERTY_CASES: usize = 128;

    /// Random integer positions in `0..span`, so ties are common.
    fn random_positions(rng: &mut ChaCha8Rng, len: std::ops::Range<usize>, span: u64) -> Vec<u64> {
        let len = rng.gen_range(len);
        (0..len).map(|_| rng.gen_range(0..span)).collect()
    }

    /// The refined greedy matcher attains the exact optimum on random
    /// geometric (line) instances of up to 4 nodes and is otherwise
    /// bracketed between the exact optimum and the plain greedy cost.
    #[test]
    fn refined_is_bracketed_on_line_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x51);
        for _ in 0..PROPERTY_CASES {
            let positions = random_positions(&mut rng, 1..10, 100);
            let c = line_instance(&positions, 100);
            let exact = cost(&c, &exact(&c));
            let refined = cost(&c, &refined(&c, MAX_ROUNDS));
            assert!(refined >= exact, "refined {refined} below exact {exact}");
            assert!(
                refined <= cost(&c, &greedy(&c)),
                "refined {refined} above greedy"
            );
            if positions.len() <= 4 {
                assert_eq!(refined, exact, "on {positions:?}");
            }
        }
    }

    /// On arbitrary random cost matrices the refined matcher is always
    /// feasible, never better than the exact optimum (sanity) and never
    /// worse than the greedy initialisation.
    #[test]
    fn refined_is_feasible_and_bracketed_on_random_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x52);
        for _ in 0..PROPERTY_CASES {
            let n = 6;
            let seed_costs: Vec<u64> = (0..n * n).map(|_| rng.gen_range(1..100)).collect();
            let boundary: Vec<u64> = (0..n).map(|_| rng.gen_range(1..100)).collect();
            let c = ClusterCosts::from_fn(
                n,
                |i, j| seed_costs[i * n + j].min(seed_costs[j * n + i]),
                |i| boundary[i],
            );
            let refined = refined(&c, MAX_ROUNDS);
            assert!(is_complete(&refined));
            assert!(cost(&c, &refined) >= cost(&c, &exact(&c)));
            assert!(cost(&c, &refined) <= cost(&c, &greedy(&c)));
        }
    }

    /// The greedy matcher is always feasible and never better than exact.
    #[test]
    fn greedy_is_feasible_and_bounded_below_by_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x54);
        for _ in 0..PROPERTY_CASES {
            let c = line_instance(&random_positions(&mut rng, 1..12, 50), 50);
            let greedy = greedy(&c);
            assert!(is_complete(&greedy));
            assert!(cost(&c, &greedy) >= cost(&c, &exact(&c)));
        }
    }
}
