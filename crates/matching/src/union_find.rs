//! The union-find decoder (Delfosse–Nickerson style).
//!
//! Instead of materialising all-pairs shortest-path costs and solving a
//! dense minimum-weight matching — cubic-ish in the number of defects — the
//! union-find decoder works directly on the sparse [`SyndromeGraph`] in two
//! almost-linear stages:
//!
//! 1. **cluster growth** — every odd (defect-carrying) cluster grows a
//!    half-edge frontier outwards in integer growth units; clusters merge in
//!    a weighted-union/path-compression forest when a fully-grown edge joins
//!    them, and a cluster *freezes* once it has even defect parity or has
//!    absorbed a boundary edge;
//! 2. **peeling** — within each frozen cluster a spanning forest of
//!    fully-grown edges is peeled from the leaves inward, moving defect
//!    tokens towards the root; colliding tokens annihilate into
//!    defect–defect pairs and a token left at the root of a
//!    boundary-connected cluster exits through the boundary edge.
//!
//! Edge weights are consumed as *integer growth rates*: the decoder
//! quantises the (possibly anomaly-re-weighted) `f64` edge costs so that the
//! cheapest positive weight maps to at least one growth unit and `0`-weight
//! edges (a `p = 0.5` anomalous region) are grown instantly.  This is how
//! the re-weighting of Q3DE's rollback path reaches the union-find backend:
//! re-weighted edges simply grow faster.
//!
//! Per the [`crate::DecoderBackend`] scratch contract the forest, growth
//! counters, frontier lists and peeling buffers all live in the decoder and
//! are re-initialised in place on every call, so a long-lived
//! `UnionFindDecoder` decodes window after window without reallocating.

use crate::sparse::{
    units_to_weight, DefectBoundaryMatch, DefectMatching, DefectPair, SyndromeGraph,
};
use crate::DecoderBackend;

/// Quantisation resolution: the largest edge weight maps to at most this
/// many integer growth units.  Larger values would track the re-weighted
/// costs more faithfully at the price of more growth rounds.
const MAX_GROWTH: u32 = 16;

/// The union-find decoder backend.  Select it with
/// [`crate::MatcherKind::UnionFind`].
#[derive(Debug, Clone, Default)]
pub struct UnionFindDecoder {
    scratch: Scratch,
}

/// The weighted-union/path-compression cluster forest, re-initialised in
/// place by [`Forest::reset`] between decode calls.
#[derive(Debug, Clone, Default)]
struct Forest {
    parent: Vec<usize>,
    size: Vec<usize>,
    /// Root-indexed: whether the cluster holds an odd number of defects.
    odd: Vec<bool>,
    /// Root-indexed: the first fully-grown boundary edge, if any.
    boundary: Vec<Option<usize>>,
    /// Root-indexed: candidate frontier edges (lazily filtered).
    frontier: Vec<Vec<usize>>,
}

impl Forest {
    /// Re-initialises the forest for `graph`: every vertex a singleton whose
    /// frontier is its incident edge list.  Reuses all allocations.
    fn reset(&mut self, graph: &SyndromeGraph) {
        let n = graph.num_vertices();
        self.parent.clear();
        self.parent.extend(0..n);
        self.size.clear();
        self.size.resize(n, 1);
        self.odd.clear();
        self.odd.resize(n, false);
        self.boundary.clear();
        self.boundary.resize(n, None);
        if self.frontier.len() < n {
            self.frontier.resize_with(n, Vec::new);
        }
        for (v, frontier) in self.frontier.iter_mut().enumerate().take(n) {
            frontier.clear();
            frontier.extend(graph.incident(v));
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// Unions the clusters of `a` and `b` (weighted by size) and returns the
    /// surviving root.  No-op if they already share a root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        self.odd[big] ^= self.odd[small];
        if self.boundary[big].is_none() {
            self.boundary[big] = self.boundary[small];
        }
        let moved = std::mem::take(&mut self.frontier[small]);
        self.frontier[big].extend(moved);
        big
    }

    /// Whether the cluster rooted at `r` still needs to grow.
    fn is_active(&self, r: usize) -> bool {
        self.odd[r] && self.boundary[r].is_none()
    }

    /// Collects the sorted, deduplicated roots of the still-active defect
    /// clusters into `out`.
    fn active_roots_into(&mut self, defects: &[usize], out: &mut Vec<usize>) {
        out.clear();
        for &v in defects {
            let r = self.find(v);
            if self.is_active(r) {
                out.push(r);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// All reusable working memory of the decoder: growth state, the cluster
/// forest, and the peeling buffers.
#[derive(Debug, Clone, Default)]
struct Scratch {
    forest: Forest,
    capacity: Vec<u32>,
    growth: Vec<u32>,
    grown: Vec<bool>,
    /// `seen[e] == round` marks edges already collected in growth round
    /// `round`; the round counter is monotonic *across* decode calls so the
    /// array never needs clearing.
    seen: Vec<u32>,
    round: u32,
    active: Vec<usize>,
    round_edges: Vec<usize>,
    // Peeling buffers.
    adj: Vec<Vec<(usize, usize)>>,
    token: Vec<Option<(usize, u64)>>,
    visited: Vec<bool>,
    order: Vec<usize>,
    tree_parent: Vec<(usize, usize)>,
    cluster_roots: Vec<usize>,
}

impl UnionFindDecoder {
    /// Quantises the graph's `f64` edge weights into integer growth
    /// capacities.  Each edge gets capacity `2 · round(w / unit)` — growth
    /// proceeds in half-edge units so two clusters approaching one another
    /// meet in the middle — where `unit` maps the cheapest positive weight
    /// to one growth unit, capped so the dearest edge costs at most
    /// [`MAX_GROWTH`] units.
    fn capacities(graph: &SyndromeGraph, out: &mut Vec<u32>) {
        out.clear();
        let mut min_pos = f64::INFINITY;
        let mut max_w = 0.0f64;
        for e in graph.edges() {
            if e.weight > 0.0 {
                min_pos = min_pos.min(e.weight);
            }
            max_w = max_w.max(e.weight);
        }
        if !min_pos.is_finite() {
            // all edges are free
            out.resize(graph.num_edges(), 0);
            return;
        }
        let unit = min_pos.max(max_w / f64::from(MAX_GROWTH));
        out.extend(graph.edges().iter().map(|e| {
            let units = (e.weight / unit).round() as u32;
            // a positive weight never quantises to a free edge
            let units = if e.weight > 0.0 { units.max(1) } else { 0 };
            2 * units
        }));
    }

    /// Stage 1: grows odd clusters until every cluster is even or
    /// boundary-connected.  Leaves the forest and the grown-edge flags in
    /// the scratch.
    fn grow(scratch: &mut Scratch, graph: &SyndromeGraph, defects: &[usize]) {
        let Scratch {
            forest,
            capacity,
            growth,
            grown,
            seen,
            round,
            active,
            round_edges,
            ..
        } = scratch;
        forest.reset(graph);
        for &v in defects {
            assert!(v < graph.num_vertices(), "defect vertex {v} out of range");
            assert!(!forest.odd[v], "duplicate defect vertex {v}");
            forest.odd[v] = true;
        }
        growth.clear();
        growth.resize(graph.num_edges(), 0);
        grown.clear();
        grown.resize(graph.num_edges(), false);
        if seen.len() < graph.num_edges() {
            seen.resize(graph.num_edges(), 0);
        }

        // Edges with zero capacity (p = 0.5 regions) are grown from the
        // start: merge their endpoints before the first round.
        for (eid, &cap) in capacity.iter().enumerate() {
            if cap == 0 {
                grown[eid] = true;
                let edge = graph.edge(eid);
                match edge.v {
                    Some(v) => {
                        forest.union(edge.u, v);
                    }
                    None => {
                        let r = forest.find(edge.u);
                        if forest.boundary[r].is_none() {
                            forest.boundary[r] = Some(eid);
                        }
                    }
                }
            }
        }

        forest.active_roots_into(defects, active);

        while !active.is_empty() {
            if *round == u32::MAX {
                // The monotonic round counter wrapped: stale `seen` marks
                // could alias, so clear them once and restart the counter.
                seen.fill(0);
                *round = 0;
            }
            *round += 1;
            // Phase a: collect this round's candidate frontier edges from
            // every active cluster, pruning edges that are already grown.
            round_edges.clear();
            for &seed_root in active.iter() {
                let root = forest.find(seed_root);
                if !forest.is_active(root) {
                    continue; // merged or frozen earlier this round
                }
                let frontier = &mut forest.frontier[root];
                frontier.retain(|&eid| {
                    if grown[eid] {
                        return false; // interior edge, drop from the frontier
                    }
                    if seen[eid] != *round {
                        seen[eid] = *round;
                        round_edges.push(eid);
                    }
                    true
                });
                assert!(
                    !frontier.is_empty(),
                    "union-find growth stalled: an odd cluster exhausted its frontier \
                     without touching a boundary (infeasible decoding graph)"
                );
            }
            // Phase b: grow each candidate by one unit per *currently
            // active* endpoint cluster — two approaching clusters meet in
            // the middle — and merge across edges that reach full capacity.
            let mut progressed = false;
            for &eid in round_edges.iter() {
                if grown[eid] {
                    continue;
                }
                let edge = graph.edge(eid);
                let ru = forest.find(edge.u);
                let mut increment = u32::from(forest.is_active(ru));
                if let Some(v) = edge.v {
                    let rv = forest.find(v);
                    if rv != ru && forest.is_active(rv) {
                        increment += 1;
                    }
                }
                if increment == 0 {
                    continue;
                }
                growth[eid] += increment;
                progressed = true;
                if growth[eid] < capacity[eid] {
                    continue;
                }
                grown[eid] = true;
                match edge.v {
                    Some(v) => {
                        forest.union(edge.u, v);
                    }
                    None => {
                        let r = forest.find(edge.u);
                        if forest.boundary[r].is_none() {
                            forest.boundary[r] = Some(eid);
                        }
                    }
                }
            }
            // Re-derive the active roots; merged clusters collapse here.
            forest.active_roots_into(defects, active);
            assert!(
                progressed || active.is_empty(),
                "union-find growth stalled: some defect cluster has an empty frontier \
                 and no boundary (infeasible decoding graph)"
            );
        }
    }

    /// Stage 2: peels the spanning forest of each defect-carrying cluster,
    /// pairing defect tokens as they collide on their way to the root.
    fn peel(scratch: &mut Scratch, graph: &SyndromeGraph, defects: &[usize]) -> DefectMatching {
        let Scratch {
            forest,
            grown,
            adj,
            token,
            visited,
            order,
            tree_parent,
            cluster_roots,
            ..
        } = scratch;
        let n = graph.num_vertices();

        // Adjacency over fully-grown non-boundary edges, in edge-id order
        // (deterministic).
        if adj.len() < n {
            adj.resize_with(n, Vec::new);
        }
        for list in adj.iter_mut().take(n) {
            list.clear();
        }
        for (eid, &g) in grown.iter().enumerate() {
            if !g {
                continue;
            }
            let edge = graph.edge(eid);
            if let Some(v) = edge.v {
                adj[edge.u].push((v, eid));
                adj[v].push((edge.u, eid));
            }
        }

        // Defect tokens: (defect-list index, accumulated path cost in
        // the graph's weight units).
        token.clear();
        token.resize(n, None);
        for (idx, &v) in defects.iter().enumerate() {
            token[v] = Some((idx, 0));
        }

        let mut out = DefectMatching::default();
        visited.clear();
        visited.resize(n, false);
        cluster_roots.clear();
        for &v in defects {
            let r = forest.find(v);
            if !cluster_roots.contains(&r) {
                cluster_roots.push(r);
            }
        }
        out.num_clusters = cluster_roots.len();

        for &cluster in cluster_roots.iter() {
            // Root the spanning tree at the boundary attachment when the
            // cluster touches a boundary, else at the cluster's smallest
            // defect vertex (any vertex works; this one is deterministic).
            let boundary_edge = forest.boundary[cluster];
            let root = match boundary_edge {
                Some(be) => graph.edge(be).u,
                None => *defects
                    .iter()
                    .filter(|&&v| forest.find(v) == cluster)
                    .min()
                    .expect("cluster contains a defect"),
            };

            // BFS spanning tree over grown edges.
            order.clear();
            order.push(root);
            tree_parent.clear();
            tree_parent.push((usize::MAX, usize::MAX));
            visited[root] = true;
            let mut head = 0;
            while head < order.len() {
                let u = order[head];
                for &(v, eid) in &adj[u] {
                    if !visited[v] {
                        visited[v] = true;
                        order.push(v);
                        tree_parent.push((u, eid));
                    }
                }
                head += 1;
            }

            // Peel leaves-first: tokens ride towards the root, annihilating
            // in pairs when they collide.
            for i in (1..order.len()).rev() {
                let v = order[i];
                let (p, eid) = tree_parent[i];
                if let Some((idx, cost)) = token[v].take() {
                    let cost = cost + u64::from(graph.units(eid));
                    match token[p].take() {
                        Some((other, other_cost)) => out.pairs.push(DefectPair {
                            a: other,
                            b: idx,
                            cost: units_to_weight(other_cost + cost),
                        }),
                        None => token[p] = Some((idx, cost)),
                    }
                }
            }
            if let Some((idx, cost)) = token[root].take() {
                let be = boundary_edge.expect(
                    "odd cluster finished growth without touching a boundary (decoder bug)",
                );
                out.boundary.push(DefectBoundaryMatch {
                    defect: idx,
                    edge: be,
                    cost: units_to_weight(cost + u64::from(graph.units(be))),
                });
            }
        }
        out
    }
}

impl DecoderBackend for UnionFindDecoder {
    /// Decodes `defects` on `graph` in two almost-linear passes (growth and
    /// peeling), reusing the forest and all working buffers from earlier
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics if a defect vertex is out of range or duplicated, or if some
    /// defect can reach neither another defect nor a boundary.
    fn decode_defects(&mut self, graph: &SyndromeGraph, defects: &[usize]) -> DefectMatching {
        if defects.is_empty() {
            return DefectMatching::default();
        }
        Self::capacities(graph, &mut self.scratch.capacity);
        Self::grow(&mut self.scratch, graph, defects);
        Self::peel(&mut self.scratch, graph, defects)
    }

    fn name(&self) -> &'static str {
        "union-find"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactBackend;

    fn uf() -> UnionFindDecoder {
        UnionFindDecoder::default()
    }

    #[test]
    fn empty_defects_decode_trivially() {
        let g = SyndromeGraph::line(&[1.0, 1.0], 1.0);
        let m = uf().decode_defects(&g, &[]);
        assert!(m.pairs.is_empty() && m.boundary.is_empty());
        assert_eq!(m.num_clusters, 0);
    }

    #[test]
    fn adjacent_pair_is_matched() {
        let g = SyndromeGraph::line(&[1.0; 6], 10.0);
        let m = uf().decode_defects(&g, &[2, 3]);
        assert!(m.is_perfect(2));
        assert_eq!(m.pairs.len(), 1);
        assert!((m.pairs[0].cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lone_defect_reaches_the_nearest_boundary() {
        let g = SyndromeGraph::line(&[1.0; 6], 1.0);
        let m = uf().decode_defects(&g, &[1]);
        assert!(m.is_perfect(1));
        assert_eq!(m.boundary.len(), 1);
        // nearest boundary stub sits at vertex 0
        assert_eq!(g.edge(m.boundary[0].edge).u, 0);
        assert!((m.boundary[0].cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn far_apart_defects_each_take_their_boundary() {
        let g = SyndromeGraph::line(&[1.0; 10], 1.0);
        let m = uf().decode_defects(&g, &[1, 9]);
        assert!(m.is_perfect(2));
        assert_eq!(m.boundary.len(), 2);
        assert_eq!(m.num_clusters, 2);
    }

    #[test]
    fn three_defects_pair_two_and_boundary_one() {
        // defects at 1, 2 (adjacent) and 9 (near the high boundary)
        let g = SyndromeGraph::line(&[1.0; 10], 1.0);
        let m = uf().decode_defects(&g, &[1, 2, 9]);
        assert!(m.is_perfect(3));
        assert_eq!(m.pairs.len(), 1);
        assert_eq!(m.boundary.len(), 1);
        let pair = &m.pairs[0];
        let paired: [usize; 2] = [pair.a.min(pair.b), pair.a.max(pair.b)];
        assert_eq!(paired, [0, 1], "defects 1 and 2 must pair up");
        assert_eq!(m.boundary[0].defect, 2);
    }

    #[test]
    fn zero_weight_region_is_absorbed_instantly() {
        // free middle section: the two defects pair across it at the cost of
        // the two flanking unit edges
        let g = SyndromeGraph::line(&[1.0, 0.0, 0.0, 0.0, 1.0], 10.0);
        let m = uf().decode_defects(&g, &[0, 5]);
        assert!(m.is_perfect(2));
        assert_eq!(m.pairs.len(), 1);
        assert!((m.pairs[0].cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_growth_prefers_the_cheap_side() {
        // defect at 2: boundary at 0 costs 1 + 1 + 1 = 3 hops of weight 1,
        // boundary at 5 costs edges of weight 5 each — the cheap side wins.
        let mut g = SyndromeGraph::new(6);
        for i in 0..2 {
            g.add_edge(i, i + 1, 1.0);
        }
        for i in 2..5 {
            g.add_edge(i, i + 1, 5.0);
        }
        let low = g.add_boundary_edge(0, 1.0);
        g.add_boundary_edge(5, 5.0);
        let m = uf().decode_defects(&g, &[2]);
        assert_eq!(m.boundary.len(), 1);
        assert_eq!(m.boundary[0].edge, low);
    }

    #[test]
    fn agrees_with_exact_on_line_instances() {
        // Seeded pseudo-random defect subsets on a unit line: union-find
        // matches the exact backend's pairing cost within 2x (it is not
        // optimal, but on 1D instances it is usually exact).
        let g = SyndromeGraph::line(&[1.0; 20], 2.0);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut reused = uf();
        for _ in 0..50 {
            let mut defects = Vec::new();
            for v in 0..21usize {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (state >> 33).is_multiple_of(4) {
                    defects.push(v);
                }
            }
            let exact = ExactBackend::default().decode_defects(&g, &defects);
            let ufm = reused.decode_defects(&g, &defects);
            assert!(ufm.is_perfect(defects.len()), "defects {defects:?}");
            assert!(exact.is_perfect(defects.len()));
            assert!(
                ufm.total_cost() <= 2.0 * exact.total_cost() + 1e-9,
                "uf {} vs exact {} on {defects:?}",
                ufm.total_cost(),
                exact.total_cost()
            );
            // The reused decoder must match a fresh one bit for bit.
            assert_eq!(uf().decode_defects(&g, &defects), ufm);
        }
    }

    #[test]
    fn grid_cluster_peels_into_a_perfect_matching() {
        // 4x4 grid, boundary stubs on the left/right columns, defects in a
        // 2x2 block: all four pair up internally.
        let n = 16usize;
        let mut g = SyndromeGraph::new(n);
        let at = |r: usize, c: usize| r * 4 + c;
        for r in 0..4 {
            for c in 0..4 {
                if c + 1 < 4 {
                    g.add_edge(at(r, c), at(r, c + 1), 1.0);
                }
                if r + 1 < 4 {
                    g.add_edge(at(r, c), at(r + 1, c), 1.0);
                }
            }
        }
        for r in 0..4 {
            g.add_boundary_edge(at(r, 0), 1.0);
            g.add_boundary_edge(at(r, 3), 1.0);
        }
        let defects = [at(1, 1), at(1, 2), at(2, 1), at(2, 2)];
        let m = uf().decode_defects(&g, &defects);
        assert!(m.is_perfect(4));
        assert_eq!(m.pairs.len(), 2, "interior block pairs internally: {m:?}");
    }

    #[test]
    #[should_panic(expected = "duplicate defect")]
    fn duplicate_defects_are_rejected() {
        let g = SyndromeGraph::line(&[1.0], 1.0);
        let _ = uf().decode_defects(&g, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn infeasible_graph_panics() {
        // a lone defect with no edges at all
        let g = SyndromeGraph::new(1);
        let _ = uf().decode_defects(&g, &[0]);
    }
}
