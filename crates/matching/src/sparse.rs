//! The sparse syndrome graph that [`crate::DecoderBackend`]s decode.
//!
//! The decoder crate stacks the 2D layer graph of the surface code into a 3D
//! space-time graph: one vertex per (stabilizer, event-layer) pair, space
//! edges for data-qubit errors, time edges for measurement errors, and
//! *boundary* edges for chains that terminate on a lattice boundary.  This
//! module holds the geometry-agnostic representation of that graph — plain
//! vertices, weighted edges and boundary stubs — so that matching backends
//! (exact, greedy, union-find) can be implemented without depending on the
//! lattice or decoder crates.
//!
//! # One integer weight scale
//!
//! Every edge weight is quantized once, where it enters the graph
//! ([`SyndromeGraph::add_edge`], [`SyndromeGraph::add_boundary_edge`],
//! [`SyndromeGraph::set_weight`]), onto one global power-of-two quantum:
//! the edge stores `units = 2 · round(w · 2^20)` next to its `f64` weight,
//! where one unit is [`WEIGHT_UNIT`] = 2^-21 nats.  The exact matcher and
//! the shortest-path oracle run on these integers, and every reported cost
//! is `units · 2^-21`, so matching weights from different backends compare
//! with `==`.
//!
//! * **Even units.**  Every edge costs an even number of units, so the
//!   exact matcher's event times stay integers: an edge between two growing
//!   regions goes tight after half its slack.
//! * **Range.**  A weight whose units would overflow `u32` (above
//!   [`MAX_EDGE_WEIGHT`], about 2048 nats) is rejected like a negative or
//!   non-finite one.  Log-likelihood weights of rates down to `1e-12` stay
//!   below 28 nats.
//! * **Zero rule.**  A weight at or below `1e-12` is a free edge (0 units);
//!   any larger weight costs at least 2 units, so a positive weight never
//!   quantizes to a free edge.
//! * **Rounding bound.**  A weight of at least 2^-21 nats moves by at most
//!   2^-21 nats (half a step); a weight in `(1e-12, 2^-21)` is raised to
//!   2^-20.  A power-of-two quantum makes `units · 2^-21` and sums of such
//!   values exact in `f64`.  So the optimal matching weight on the
//!   quantized graph differs from the optimum on the raw weights by at most
//!   2^-21 nats times the number of edges on the paths of the two optimal
//!   matchings; on graphs whose weights are multiples of 2^-20 the two are
//!   equal bit for bit.

use std::sync::OnceLock;

/// Identifier of an edge in a [`SyndromeGraph`].
pub type SparseEdgeId = usize;

/// Edges at or below this weight are free (0 units): the zero-weight
/// pre-pairing contracts them.
const ZERO_EPS: f64 = 1e-12;

/// One weight unit: 2^-21 nats.  Edge weights are stored as an even number
/// of units (see the module docs).
pub const WEIGHT_UNIT: f64 = 1.0 / (1u64 << 21) as f64;

/// The largest edge weight a [`SyndromeGraph`] accepts, in nats: the
/// weight whose units are the largest even `u32`.
pub const MAX_EDGE_WEIGHT: f64 = (u32::MAX / 2) as f64 * 2.0 * WEIGHT_UNIT;

/// The far end of a [`Half`] that leads to the lattice boundary.
pub(crate) const BOUNDARY_END: u32 = u32::MAX;

/// A weight in units converted back to nats (exact below 2^53 units).
#[inline]
pub(crate) fn units_to_weight(units: u64) -> f64 {
    units as f64 * WEIGHT_UNIT
}

/// Quantizes a weight onto the graph's integer scale (see the module docs).
///
/// # Panics
///
/// Panics if `weight` is negative, not finite, or above
/// [`MAX_EDGE_WEIGHT`].
fn quantize(weight: f64) -> u32 {
    assert!(
        weight >= 0.0 && weight.is_finite(),
        "edge weight must be finite and non-negative, got {weight}"
    );
    assert!(
        weight <= MAX_EDGE_WEIGHT,
        "edge weight {weight} exceeds the representable maximum of {MAX_EDGE_WEIGHT} nats"
    );
    if weight <= ZERO_EPS {
        return 0;
    }
    2 * ((weight / (2.0 * WEIGHT_UNIT)).round() as u32).max(1)
}

/// One edge of a [`SyndromeGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct SparseEdge {
    /// First endpoint.
    pub u: usize,
    /// Second endpoint, or `None` for a boundary edge.
    pub v: Option<usize>,
    /// Non-negative matching weight (negative log-likelihood of the
    /// underlying error mechanism; `0.0` models an edge inside a `p = 0.5`
    /// anomalous region).  Backends decode its quantized form (see the
    /// module docs).
    pub weight: f64,
}

impl SparseEdge {
    /// Whether the edge terminates on a lattice boundary.
    pub fn is_boundary(&self) -> bool {
        self.v.is_none()
    }

    /// Given one endpoint, the other endpoint (`None` for the boundary).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this edge.
    pub fn other(&self, from: usize) -> Option<usize> {
        if self.u == from {
            self.v
        } else {
            assert_eq!(self.v, Some(from), "vertex {from} is not an endpoint");
            Some(self.u)
        }
    }
}

/// One incident edge as seen from a vertex: the far endpoint
/// ([`BOUNDARY_END`] for a boundary edge) and the edge id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Half {
    pub(crate) to: u32,
    pub(crate) edge: u32,
}

/// Compressed-sparse-row adjacency: vertex `u`'s incident edges, in edge id
/// order, are `halves[offsets[u]..offsets[u + 1]]`.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    offsets: Vec<u32>,
    halves: Vec<Half>,
}

impl Adjacency {
    /// Counting sort of the edge ends by vertex; ids ascend within a vertex.
    fn build(num_vertices: usize, edges: &[SparseEdge]) -> Self {
        let mut offsets = vec![0u32; num_vertices + 1];
        for e in edges {
            offsets[e.u + 1] += 1;
            if let Some(v) = e.v {
                offsets[v + 1] += 1;
            }
        }
        for u in 0..num_vertices {
            offsets[u + 1] += offsets[u];
        }
        let ends = offsets[num_vertices] as usize;
        let mut halves = vec![Half { to: 0, edge: 0 }; ends];
        let mut next = offsets.clone();
        let mut place = |from: usize, to: u32, id: usize| {
            let at = next[from] as usize;
            next[from] += 1;
            halves[at] = Half {
                to,
                edge: id as u32,
            };
        };
        for (id, e) in edges.iter().enumerate() {
            match e.v {
                Some(v) => {
                    place(e.u, v as u32, id);
                    place(v, e.u as u32, id);
                }
                None => place(e.u, BOUNDARY_END, id),
            }
        }
        Self { offsets, halves }
    }

    #[inline]
    fn range(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }
}

/// A sparse, undirected, non-negatively weighted decoding graph with
/// boundary edges.
///
/// A `SyndromeGraph` stores the underlying physical graph, not *dense*
/// pairwise costs between active defects.  The dense backends
/// ([`crate::GreedyBackend`], [`crate::ExactBackend`]) derive those costs
/// with shortest-path searches; the sparse backends never materialise them
/// at all, which is where their near-linear runtime comes from.
///
/// Each edge keeps its weight quantized to integer units (see the module
/// docs).  The adjacency is one compressed-sparse-row table, built on the
/// first read after the last edge was added; re-weighting keeps it.
#[derive(Debug, Clone, Default)]
pub struct SyndromeGraph {
    num_vertices: usize,
    edges: Vec<SparseEdge>,
    /// `units[id]`: edge `id`'s weight on the integer scale.
    units: Vec<u32>,
    /// Interior (non-boundary) edges of 0 units.
    free_interior: usize,
    adjacency: OnceLock<Adjacency>,
}

impl SyndromeGraph {
    /// Creates an empty graph over `num_vertices` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices` does not fit a `u32` id.
    pub fn new(num_vertices: usize) -> Self {
        assert!(
            num_vertices < BOUNDARY_END as usize,
            "vertex count {num_vertices} exceeds the u32 id space"
        );
        Self {
            num_vertices,
            ..Self::default()
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges (boundary edges included).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Appends an edge, quantizing its weight and dropping the adjacency
    /// table, which the next read rebuilds.
    fn push_edge(&mut self, edge: SparseEdge) -> SparseEdgeId {
        let units = quantize(edge.weight);
        let id = self.edges.len();
        // Both ends of every edge must fit the u32 adjacency offsets.
        assert!(
            id < (u32::MAX / 2) as usize,
            "edge count exceeds the u32 adjacency space"
        );
        if units == 0 && !edge.is_boundary() {
            self.free_interior += 1;
        }
        self.edges.push(edge);
        self.units.push(units);
        self.adjacency.take();
        id
    }

    /// Adds an undirected edge between `u` and `v` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `u == v`, or `weight` is
    /// negative, not finite, or above [`MAX_EDGE_WEIGHT`].
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> SparseEdgeId {
        assert!(
            u < self.num_vertices && v < self.num_vertices,
            "endpoint out of range"
        );
        assert_ne!(u, v, "self-loops are not allowed");
        self.push_edge(SparseEdge {
            u,
            v: Some(v),
            weight,
        })
    }

    /// Adds a boundary edge at `u` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `weight` is negative, not finite,
    /// or above [`MAX_EDGE_WEIGHT`].
    pub fn add_boundary_edge(&mut self, u: usize, weight: f64) -> SparseEdgeId {
        assert!(u < self.num_vertices, "endpoint out of range");
        self.push_edge(SparseEdge { u, v: None, weight })
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: SparseEdgeId) -> &SparseEdge {
        &self.edges[id]
    }

    /// The weight of edge `id` on the integer scale: an even number of
    /// [`WEIGHT_UNIT`]s (see the module docs).
    #[inline]
    pub(crate) fn units(&self, id: SparseEdgeId) -> u32 {
        self.units[id]
    }

    /// The weight backends decode for edge `id`, in nats: its units times
    /// [`WEIGHT_UNIT`] (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn quantized_weight(&self, id: SparseEdgeId) -> f64 {
        units_to_weight(self.units[id].into())
    }

    /// Overwrites the weight of an existing edge — the primitive behind
    /// in-place re-weighting of a cached decoding graph (the decoder
    /// crate's `DecoderContext` rewrites only the edges an anomaly model
    /// actually changes instead of rebuilding the graph).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `weight` is negative, not finite,
    /// or above [`MAX_EDGE_WEIGHT`].
    pub fn set_weight(&mut self, id: SparseEdgeId, weight: f64) {
        let units = quantize(weight);
        let edge = &mut self.edges[id];
        if !edge.is_boundary() {
            let was_free = self.units[id] == 0;
            if was_free != (units == 0) {
                if was_free {
                    self.free_interior -= 1;
                } else {
                    self.free_interior += 1;
                }
            }
        }
        edge.weight = weight;
        self.units[id] = units;
    }

    /// All edges in id order.
    pub fn edges(&self) -> &[SparseEdge] {
        &self.edges
    }

    /// Whether some interior edge is free (0 units) — the only case in
    /// which the zero-weight pre-pairing contracts anything.
    pub(crate) fn has_free_interior_edges(&self) -> bool {
        self.free_interior > 0
    }

    #[inline]
    fn adjacency(&self) -> &Adjacency {
        self.adjacency
            .get_or_init(|| Adjacency::build(self.num_vertices, &self.edges))
    }

    /// Ids of the edges incident to vertex `u` (boundary edges included),
    /// ascending.
    pub fn incident(&self, u: usize) -> impl ExactSizeIterator<Item = SparseEdgeId> + '_ {
        self.halves(u).iter().map(|half| half.edge as usize)
    }

    /// The edges incident to vertex `u` as `(far end, edge id)` pairs, in
    /// the order of [`Self::incident`].
    #[inline]
    pub(crate) fn halves(&self, u: usize) -> &[Half] {
        let adjacency = self.adjacency();
        &adjacency.halves[adjacency.range(u)]
    }

    /// Builds a path graph over `weights.len() + 1` vertices with the given
    /// edge weights and boundary edges of weight `boundary` at both ends —
    /// a convenient one-dimensional test fixture.
    pub fn line(weights: &[f64], boundary: f64) -> Self {
        let n = weights.len() + 1;
        let mut g = Self::new(n);
        for (i, &w) in weights.iter().enumerate() {
            g.add_edge(i, i + 1, w);
        }
        g.add_boundary_edge(0, boundary);
        g.add_boundary_edge(n - 1, boundary);
        g
    }
}

/// A defect–defect pairing produced by a [`crate::DecoderBackend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectPair {
    /// Index of the first defect in the backend's defect list.
    pub a: usize,
    /// Index of the second defect.
    pub b: usize,
    /// Cost of the correction chain joining them.
    pub cost: f64,
}

/// A defect–boundary match produced by a [`crate::DecoderBackend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectBoundaryMatch {
    /// Index of the defect in the backend's defect list.
    pub defect: usize,
    /// The boundary edge the correction chain terminates on.  Callers that
    /// distinguish boundary *sides* (the decoder's homological-cut parity)
    /// map this id back to a side.
    pub edge: SparseEdgeId,
    /// Cost of the correction chain.
    pub cost: f64,
}

/// The complete output of a backend run: every defect appears in exactly one
/// pair or one boundary match.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DefectMatching {
    /// Defect–defect pairings (each defect at most once, `a < b` not
    /// guaranteed).
    pub pairs: Vec<DefectPair>,
    /// Defect–boundary matches.
    pub boundary: Vec<DefectBoundaryMatch>,
    /// Number of independent clusters the instance decomposed into.
    pub num_clusters: usize,
}

impl DefectMatching {
    /// Whether the matching is *perfect* over `num_defects` defects: every
    /// defect covered exactly once and no defect paired with itself.
    pub fn is_perfect(&self, num_defects: usize) -> bool {
        let mut seen = vec![0usize; num_defects];
        for p in &self.pairs {
            if p.a == p.b || p.a >= num_defects || p.b >= num_defects {
                return false;
            }
            seen[p.a] += 1;
            seen[p.b] += 1;
        }
        for b in &self.boundary {
            if b.defect >= num_defects {
                return false;
            }
            seen[b.defect] += 1;
        }
        seen.iter().all(|&c| c == 1)
    }

    /// Total cost of all pairings and boundary matches.
    pub fn total_cost(&self) -> f64 {
        self.pairs.iter().map(|p| p.cost).sum::<f64>()
            + self.boundary.iter().map(|b| b.cost).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_graph_shape() {
        let g = SyndromeGraph::line(&[1.0, 2.0, 3.0], 5.0);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.incident(0).len(), 2); // interior edge + boundary stub
        assert_eq!(g.incident(1).len(), 2);
        assert!(g.edge(3).is_boundary());
        assert!(g.edge(4).is_boundary());
        assert_eq!(g.edge(0).other(0), Some(1));
        assert_eq!(g.edge(0).other(1), Some(0));
        assert_eq!(g.edge(3).other(0), None);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_is_rejected() {
        let mut g = SyndromeGraph::new(2);
        g.add_edge(1, 1, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_is_rejected() {
        let mut g = SyndromeGraph::new(2);
        g.add_edge(0, 1, -0.5);
    }

    #[test]
    fn set_weight_overwrites_in_place() {
        let mut g = SyndromeGraph::line(&[1.0, 2.0], 3.0);
        g.set_weight(1, 0.25);
        assert_eq!(g.edge(1).weight, 0.25);
        assert_eq!(g.edge(0).weight, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn set_weight_rejects_negative() {
        let mut g = SyndromeGraph::line(&[1.0], 1.0);
        g.set_weight(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "representable maximum")]
    fn weight_above_the_representable_maximum_is_rejected() {
        let mut g = SyndromeGraph::new(2);
        g.add_edge(0, 1, MAX_EDGE_WEIGHT + 2.0 * WEIGHT_UNIT);
    }

    #[test]
    #[should_panic(expected = "representable maximum")]
    fn set_weight_rejects_a_weight_above_the_maximum() {
        let mut g = SyndromeGraph::line(&[1.0], 1.0);
        g.set_weight(2, 4096.0);
    }

    #[test]
    fn the_largest_weight_takes_the_largest_even_u32() {
        let mut g = SyndromeGraph::new(2);
        g.add_boundary_edge(0, MAX_EDGE_WEIGHT);
        assert_eq!(g.units(0), u32::MAX - 1);
        assert_eq!(g.quantized_weight(0), MAX_EDGE_WEIGHT);
    }

    /// Units are even, round to the nearest even unit (error at most one
    /// unit), and a weight above `ZERO_EPS` never becomes a free edge.
    #[test]
    fn weights_quantize_to_the_nearest_even_unit_and_never_to_free() {
        let tiny = [1.000_001e-12, 1e-11, 1e-9, WEIGHT_UNIT / 3.0, WEIGHT_UNIT];
        let mut g = SyndromeGraph::new(2);
        for (i, &w) in tiny.iter().enumerate() {
            g.add_edge(0, 1, w);
            assert_eq!(g.units(i), 2, "weight {w}");
        }
        assert!(!g.has_free_interior_edges());
        for w in [0.0, 5e-13, ZERO_EPS] {
            assert_eq!(quantize(w), 0, "weight {w}");
        }
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let w = (x >> 11) as f64 / (1u64 << 53) as f64 * 30.0 + WEIGHT_UNIT;
            let units = quantize(w);
            assert_eq!(units % 2, 0, "weight {w}");
            assert!(
                (units_to_weight(units.into()) - w).abs() <= WEIGHT_UNIT,
                "weight {w}"
            );
        }
        // Multiples of two units are lossless.
        assert_eq!(quantize(1.5), 3 << 20);
        assert_eq!(quantize(12_345.0 * 2.0 * WEIGHT_UNIT), 24_690);
    }

    /// Interior free edges are counted through re-weights; a free boundary
    /// edge does not count.
    #[test]
    fn free_interior_edges_are_tracked_through_set_weight() {
        let mut g = SyndromeGraph::line(&[1.0, 0.0, 1.0], 0.0);
        assert!(g.has_free_interior_edges());
        g.set_weight(1, 1e-3);
        assert!(!g.has_free_interior_edges());
        g.set_weight(0, 0.0);
        g.set_weight(0, 0.0);
        assert!(g.has_free_interior_edges());
        g.set_weight(0, 2.0);
        assert!(!g.has_free_interior_edges());
        assert_eq!(g.units(4), 0, "free boundary stub");
    }

    /// The compressed adjacency lists each vertex's edges in id order, is
    /// rebuilt after an edge is added, and survives re-weighting.
    #[test]
    fn adjacency_lists_incident_edges_in_id_order() {
        let mut g = SyndromeGraph::new(4);
        g.add_edge(2, 0, 1.0);
        g.add_boundary_edge(0, 1.0);
        g.add_edge(0, 3, 1.0);
        let incident = |g: &SyndromeGraph, u| g.incident(u).collect::<Vec<_>>();
        assert_eq!(incident(&g, 0), [0, 1, 2]);
        assert_eq!(incident(&g, 1), [] as [usize; 0]);
        g.add_edge(1, 0, 1.0);
        g.set_weight(0, 2.0);
        assert_eq!(incident(&g, 0), [0, 1, 2, 3]);
        assert_eq!(incident(&g, 1), [3]);
        for u in 0..4 {
            for half in g.halves(u) {
                let far = g.edge(half.edge as usize).other(u);
                assert_eq!(half.to, far.map_or(BOUNDARY_END, |v| v as u32));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_rejects_non_endpoint() {
        let g = SyndromeGraph::line(&[1.0], 1.0);
        let _ = g.edge(0).other(7);
    }

    #[test]
    fn perfect_matching_detection() {
        let mut m = DefectMatching::default();
        m.pairs.push(DefectPair {
            a: 0,
            b: 1,
            cost: 1.0,
        });
        m.boundary.push(DefectBoundaryMatch {
            defect: 2,
            edge: 0,
            cost: 2.0,
        });
        assert!(m.is_perfect(3));
        assert!(!m.is_perfect(4)); // defect 3 uncovered
        assert!((m.total_cost() - 3.0).abs() < 1e-12);

        // duplicated coverage is rejected
        m.boundary.push(DefectBoundaryMatch {
            defect: 0,
            edge: 0,
            cost: 0.0,
        });
        assert!(!m.is_perfect(3));
    }

    #[test]
    fn self_pair_is_not_perfect() {
        let m = DefectMatching {
            pairs: vec![DefectPair {
                a: 0,
                b: 0,
                cost: 0.0,
            }],
            boundary: Vec::new(),
            num_clusters: 1,
        };
        assert!(!m.is_perfect(1));
    }
}
