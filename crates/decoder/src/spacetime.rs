//! Shortest-path costs on the space-time decoding graph, and the sparse
//! space-time graph handed to [`q3de_matching::DecoderBackend`]s.

use crate::{DetectionEvent, WeightModel};
use q3de_lattice::{ErrorKind, GraphEdge, MatchingGraph};
use q3de_matching::{SparseEdgeId, SyndromeGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which lattice boundary a chain terminates on.
///
/// `Low` is the boundary adjacent to the homological cut (left for `X`-error
/// graphs, top for `Z`-error graphs); a chain ending there crosses the cut an
/// odd number of times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundarySide {
    /// The cut-adjacent boundary.
    Low,
    /// The opposite boundary.
    High,
}

/// The boundary side a boundary edge of a `kind` layer graph terminates on.
///
/// This is the single source of truth for the side convention: the dense
/// cost oracle ([`SpaceTimeCosts::boundary_side`]) and the sparse
/// [`SpaceTimeGraph`] both classify through it, so the homological-cut
/// parity cannot diverge between the two decoding paths.
fn boundary_side_of(kind: ErrorKind, edge: &GraphEdge) -> BoundarySide {
    debug_assert!(edge.is_boundary());
    let low = match kind {
        ErrorKind::X => edge.qubit.col == 0,
        ErrorKind::Z => edge.qubit.row == 0,
    };
    if low {
        BoundarySide::Low
    } else {
        BoundarySide::High
    }
}

/// The sparse 3D space-time decoding graph in the geometry-agnostic
/// [`SyndromeGraph`] representation consumed by
/// [`q3de_matching::DecoderBackend`]s.
///
/// One vertex per `(event layer, stabilizer node)` state.  Space edges
/// within a layer carry data-qubit error weights, time edges between
/// consecutive layers carry measurement (ancilla) error weights, and
/// boundary edges record which [`BoundarySide`] they terminate on so the
/// decoder can recover the homological-cut parity from a backend's
/// boundary matches.  Anomaly-aware [`WeightModel`]s re-weight edges per
/// layer exactly as in [`SpaceTimeCosts`], which is how Q3DE's rollback
/// re-weighting reaches every backend.
#[derive(Debug, Clone)]
pub struct SpaceTimeGraph {
    graph: SyndromeGraph,
    sides: Vec<Option<BoundarySide>>,
    num_nodes: usize,
    num_layers: usize,
}

impl SpaceTimeGraph {
    /// Builds the space-time graph for `num_layers` event layers over the
    /// 2D `layer_graph`, weighted by `model`.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn build(layer_graph: &MatchingGraph, num_layers: usize, model: &WeightModel) -> Self {
        assert!(num_layers > 0, "at least one event layer is required");
        let n = layer_graph.num_nodes();
        let mut graph = SyndromeGraph::new(n * num_layers);
        let mut sides: Vec<Option<BoundarySide>> = Vec::new();
        for layer in 0..num_layers {
            let base = layer * n;
            // Space edges: data-qubit errors at this layer's cycle.
            for edge in layer_graph.edges() {
                let w = model.weight_at(edge.qubit, layer);
                match edge.b {
                    Some(b) => {
                        graph.add_edge(base + edge.a, base + b, w);
                        sides.push(None);
                    }
                    None => {
                        graph.add_boundary_edge(base + edge.a, w);
                        sides.push(Some(boundary_side_of(layer_graph.kind(), edge)));
                    }
                }
            }
            // Time edges: measurement errors on each node's ancilla.
            if layer + 1 < num_layers {
                for node in 0..n {
                    let w = model.weight_at(layer_graph.node(node), layer);
                    graph.add_edge(base + node, base + n + node, w);
                    sides.push(None);
                }
            }
        }
        Self {
            graph,
            sides,
            num_nodes: n,
            num_layers,
        }
    }

    /// Re-weights the graph's edges in place for a new [`WeightModel`],
    /// leaving the topology (vertices, adjacency, boundary sides) untouched.
    ///
    /// With `previous` — the model whose weights are currently installed —
    /// only the edges whose error rate actually changed between the two
    /// models are rewritten: switching a uniform graph to an anomaly-aware
    /// one (or back, or between two region sets) costs one rate comparison
    /// per edge plus one log-likelihood evaluation per *affected* edge.
    /// With `previous = None` every weight is recomputed from scratch.
    ///
    /// This is the primitive behind the decoder's persistent
    /// [`crate::DecoderContext`]: rollback re-execution re-derives only the
    /// edge costs inside the detected anomalous regions instead of
    /// rebuilding the space-time graph per pass.
    ///
    /// # Panics
    ///
    /// Panics if `layer_graph` is not the graph this space-time graph was
    /// built from (node or edge count mismatch).  Debug builds additionally
    /// verify every installed weight against `model`, so a stale cache
    /// (wrong `previous`) fails loudly under `debug_assertions`.
    pub fn reweight(
        &mut self,
        layer_graph: &MatchingGraph,
        previous: Option<&WeightModel>,
        model: &WeightModel,
    ) {
        assert_eq!(
            layer_graph.num_nodes(),
            self.num_nodes,
            "layer graph does not match the cached space-time graph"
        );
        let n = self.num_nodes;
        let mut eid = 0usize;
        let mut reweight_edge = |graph: &mut SyndromeGraph, coord, layer: usize| {
            let changed = match previous {
                Some(prev) => prev.rate_at(coord, layer) != model.rate_at(coord, layer),
                None => true,
            };
            if changed {
                graph.set_weight(eid, model.weight_at(coord, layer));
            }
            eid += 1;
        };
        for layer in 0..self.num_layers {
            for edge in layer_graph.edges() {
                reweight_edge(&mut self.graph, edge.qubit, layer);
            }
            if layer + 1 < self.num_layers {
                for node in 0..n {
                    reweight_edge(&mut self.graph, layer_graph.node(node), layer);
                }
            }
        }
        assert_eq!(
            eid,
            self.graph.num_edges(),
            "layer graph does not match the cached space-time graph"
        );
        #[cfg(debug_assertions)]
        self.debug_assert_weights(layer_graph, model);
    }

    /// Verifies that every installed edge weight matches `model` — the
    /// stale-cache tripwire behind [`SpaceTimeGraph::reweight`]'s selective
    /// update (debug builds only).
    #[cfg(debug_assertions)]
    fn debug_assert_weights(&self, layer_graph: &MatchingGraph, model: &WeightModel) {
        let n = self.num_nodes;
        let mut eid = 0usize;
        let mut check = |coord, layer: usize| {
            let expected = model.weight_at(coord, layer);
            let actual = self.graph.edge(eid).weight;
            debug_assert!(
                actual == expected,
                "stale cached weight on edge {eid} (qubit {coord}, layer {layer}): \
                 installed {actual}, model says {expected}"
            );
            eid += 1;
        };
        for layer in 0..self.num_layers {
            for edge in layer_graph.edges() {
                check(edge.qubit, layer);
            }
            if layer + 1 < self.num_layers {
                for node in 0..n {
                    check(layer_graph.node(node), layer);
                }
            }
        }
    }

    /// The sparse graph representation.
    pub fn graph(&self) -> &SyndromeGraph {
        &self.graph
    }

    /// Number of event layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// The sparse-graph vertex of a detection event.
    ///
    /// # Panics
    ///
    /// Panics if the event lies outside the graph.
    pub fn vertex_of(&self, event: DetectionEvent) -> usize {
        assert!(
            event.layer < self.num_layers && event.node < self.num_nodes,
            "detection event {event} outside the {} x {} space-time graph",
            self.num_layers,
            self.num_nodes
        );
        event.layer * self.num_nodes + event.node
    }

    /// The boundary side a sparse edge terminates on (`None` for interior
    /// edges).
    pub fn side_of(&self, edge: SparseEdgeId) -> Option<BoundarySide> {
        self.sides[edge]
    }
}

/// Computes minimum path costs between detection events (and to the two
/// boundaries) on the 3D space-time lattice.
///
/// * Space edges within an event layer correspond to data-qubit errors at
///   that cycle and are weighted by [`WeightModel::weight_at`] of the data
///   qubit.
/// * Time edges between consecutive layers correspond to measurement errors
///   on the stabilizer's ancilla and are weighted by the ancilla's rate.
///
/// Uniform models use the closed-form Manhattan metric; anomaly-aware models
/// run Dijkstra from each queried source.
#[derive(Debug, Clone)]
pub struct SpaceTimeCosts<'g> {
    graph: &'g MatchingGraph,
    num_layers: usize,
    model: WeightModel,
}

impl<'g> SpaceTimeCosts<'g> {
    /// Creates the cost oracle for `num_layers` event layers over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new(graph: &'g MatchingGraph, num_layers: usize, model: WeightModel) -> Self {
        assert!(num_layers > 0, "at least one event layer is required");
        Self {
            graph,
            num_layers,
            model,
        }
    }

    /// The layer graph this oracle operates on.
    pub fn graph(&self) -> &MatchingGraph {
        self.graph
    }

    /// Number of event layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// The weight model in use.
    pub fn model(&self) -> &WeightModel {
        &self.model
    }

    /// The boundary side a boundary edge terminates on.
    pub fn boundary_side(&self, edge: &GraphEdge) -> BoundarySide {
        boundary_side_of(self.graph.kind(), edge)
    }

    /// Minimum path cost between two detection events.
    pub fn cost_between(&self, a: DetectionEvent, b: DetectionEvent) -> f64 {
        match &self.model {
            WeightModel::Uniform { .. } => {
                let w = self.model.base_weight();
                let space = self.graph.space_distance(a.node, b.node) as f64;
                let time = a.layer.abs_diff(b.layer) as f64;
                w * (space + time)
            }
            WeightModel::AnomalyAware { .. } => {
                let (costs, _) = self.costs_from(a, &[b]);
                costs[0]
            }
        }
    }

    /// Minimum path costs from a detection event to the `(low, high)`
    /// boundaries.
    pub fn boundary_costs(&self, a: DetectionEvent) -> (f64, f64) {
        match &self.model {
            WeightModel::Uniform { .. } => {
                let w = self.model.base_weight();
                let (low, high) = self.graph.boundary_distances(a.node);
                (w * low as f64, w * high as f64)
            }
            WeightModel::AnomalyAware { .. } => {
                let (_, boundary) = self.costs_from(a, &[]);
                boundary
            }
        }
    }

    /// Minimum path costs from `source` to each of `targets`, plus the costs
    /// to the `(low, high)` boundaries, in a single traversal.
    pub fn costs_from(
        &self,
        source: DetectionEvent,
        targets: &[DetectionEvent],
    ) -> (Vec<f64>, (f64, f64)) {
        match &self.model {
            WeightModel::Uniform { .. } => {
                let costs = targets
                    .iter()
                    .map(|&t| self.cost_between(source, t))
                    .collect();
                (costs, self.boundary_costs(source))
            }
            WeightModel::AnomalyAware { .. } => self.dijkstra(source, targets),
        }
    }

    fn state_index(&self, node: usize, layer: usize) -> usize {
        layer * self.graph.num_nodes() + node
    }

    fn dijkstra(
        &self,
        source: DetectionEvent,
        targets: &[DetectionEvent],
    ) -> (Vec<f64>, (f64, f64)) {
        #[derive(PartialEq)]
        struct HeapEntry {
            cost: f64,
            state: usize,
        }
        impl Eq for HeapEntry {}
        impl Ord for HeapEntry {
            fn cmp(&self, other: &Self) -> Ordering {
                // reversed: BinaryHeap is a max-heap
                other
                    .cost
                    .partial_cmp(&self.cost)
                    .unwrap_or(Ordering::Equal)
            }
        }
        impl PartialOrd for HeapEntry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let num_nodes = self.graph.num_nodes();
        let num_states = num_nodes * self.num_layers;
        let mut dist = vec![f64::INFINITY; num_states];
        let mut best_low = f64::INFINITY;
        let mut best_high = f64::INFINITY;

        let start = self.state_index(source.node, source.layer);
        dist[start] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            cost: 0.0,
            state: start,
        });

        while let Some(HeapEntry { cost, state }) = heap.pop() {
            if cost > dist[state] {
                continue;
            }
            let layer = state / num_nodes;
            let node = state % num_nodes;

            // Space edges (data-qubit errors at this layer's cycle).
            for &edge_index in self.graph.incident_edges(node) {
                let edge = self.graph.edge(edge_index);
                let w = self.model.weight_at(edge.qubit, layer);
                match edge.other(node) {
                    Some(neighbor) => {
                        let next = self.state_index(neighbor, layer);
                        if cost + w < dist[next] {
                            dist[next] = cost + w;
                            heap.push(HeapEntry {
                                cost: cost + w,
                                state: next,
                            });
                        }
                    }
                    None => match self.boundary_side(edge) {
                        BoundarySide::Low => best_low = best_low.min(cost + w),
                        BoundarySide::High => best_high = best_high.min(cost + w),
                    },
                }
            }

            // Time edges (measurement errors on this node's ancilla).
            let ancilla = self.graph.node(node);
            if layer + 1 < self.num_layers {
                let w = self.model.weight_at(ancilla, layer);
                let next = self.state_index(node, layer + 1);
                if cost + w < dist[next] {
                    dist[next] = cost + w;
                    heap.push(HeapEntry {
                        cost: cost + w,
                        state: next,
                    });
                }
            }
            if layer > 0 {
                let w = self.model.weight_at(ancilla, layer - 1);
                let next = self.state_index(node, layer - 1);
                if cost + w < dist[next] {
                    dist[next] = cost + w;
                    heap.push(HeapEntry {
                        cost: cost + w,
                        state: next,
                    });
                }
            }
        }

        let costs = targets
            .iter()
            .map(|t| dist[self.state_index(t.node, t.layer)])
            .collect();
        (costs, (best_low, best_high))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q3de_lattice::{Coord, SurfaceCode};
    use q3de_noise::AnomalousRegion;

    fn graph(d: usize) -> MatchingGraph {
        SurfaceCode::new(d).unwrap().matching_graph(ErrorKind::X)
    }

    #[test]
    fn uniform_and_dijkstra_agree_without_anomalies() {
        let g = graph(5);
        let layers = 6;
        let p = 1e-2;
        let uniform = SpaceTimeCosts::new(&g, layers, WeightModel::uniform(p));
        let dijkstra =
            SpaceTimeCosts::new(&g, layers, WeightModel::anomaly_aware(p, Vec::new(), 0));
        let events: Vec<DetectionEvent> = vec![
            DetectionEvent { layer: 0, node: 0 },
            DetectionEvent { layer: 2, node: 7 },
            DetectionEvent {
                layer: 5,
                node: g.num_nodes() - 1,
            },
            DetectionEvent { layer: 3, node: 11 },
        ];
        for &a in &events {
            for &b in &events {
                let cu = uniform.cost_between(a, b);
                let cd = dijkstra.cost_between(a, b);
                assert!(
                    (cu - cd).abs() < 1e-9,
                    "{a} → {b}: uniform {cu} vs dijkstra {cd}"
                );
            }
            let (ul, uh) = uniform.boundary_costs(a);
            let (dl, dh) = dijkstra.boundary_costs(a);
            assert!((ul - dl).abs() < 1e-9, "{a} low boundary: {ul} vs {dl}");
            assert!((uh - dh).abs() < 1e-9, "{a} high boundary: {uh} vs {dh}");
        }
    }

    #[test]
    fn costs_scale_with_distance() {
        let g = graph(5);
        let costs = SpaceTimeCosts::new(&g, 5, WeightModel::uniform(1e-3));
        let a = DetectionEvent { layer: 0, node: 0 };
        let near = DetectionEvent { layer: 0, node: 1 };
        let far = DetectionEvent {
            layer: 4,
            node: g.num_nodes() - 1,
        };
        assert!(costs.cost_between(a, near) < costs.cost_between(a, far));
        assert_eq!(costs.cost_between(a, a), 0.0);
    }

    #[test]
    fn anomalous_region_creates_cheap_paths() {
        let g = graph(5);
        // Anomaly with p_ano = 0.5 covering the whole patch during layers 0..10:
        // every space edge becomes free, so any same-layer pair costs ~0.
        let region = AnomalousRegion::new(Coord::new(0, 0), 5, 0, 10, 0.5);
        let aware = SpaceTimeCosts::new(&g, 5, WeightModel::anomaly_aware(1e-3, vec![region], 0));
        let blind = SpaceTimeCosts::new(&g, 5, WeightModel::uniform(1e-3));
        let a = DetectionEvent { layer: 0, node: 0 };
        let b = DetectionEvent {
            layer: 0,
            node: g.num_nodes() - 1,
        };
        assert!(aware.cost_between(a, b) < 1e-9);
        assert!(blind.cost_between(a, b) > 1.0);
        // boundary costs also collapse
        let (low, high) = aware.boundary_costs(a);
        assert!(low < 1e-9 && high < 1e-9);
    }

    #[test]
    fn partial_anomaly_reroutes_paths_through_the_region() {
        let g = graph(5);
        // Anomaly covering only the middle rows: a path that detours through
        // the free region beats the straight expensive path.
        let region = AnomalousRegion::new(Coord::new(2, 0), 5, 0, 10, 0.5);
        let aware = SpaceTimeCosts::new(&g, 3, WeightModel::anomaly_aware(1e-3, vec![region], 0));
        // two nodes in the top row (row 0), far apart horizontally
        let left = g.node_index(Coord::new(0, 1)).unwrap();
        let right = g.node_index(Coord::new(0, 7)).unwrap();
        let a = DetectionEvent {
            layer: 0,
            node: left,
        };
        let b = DetectionEvent {
            layer: 0,
            node: right,
        };
        let straight = 3.0 * WeightModel::weight_of_rate(1e-3);
        let cost = aware.cost_between(a, b);
        // detour: down into the anomaly (row 2 is inside), across for free,
        // back up — 2 normal edges in total instead of 3.
        assert!(cost < straight - 1e-9, "cost {cost} vs straight {straight}");
        assert!(cost > 0.0);
    }

    #[test]
    fn boundary_sides_are_classified_correctly() {
        let g = graph(3);
        let costs = SpaceTimeCosts::new(&g, 2, WeightModel::uniform(1e-3));
        for e in g.edges() {
            if e.is_boundary() {
                let side = costs.boundary_side(e);
                if e.qubit.col == 0 {
                    assert_eq!(side, BoundarySide::Low);
                } else {
                    assert_eq!(side, BoundarySide::High);
                }
            }
        }
    }

    #[test]
    fn time_and_space_edges_both_contribute() {
        let g = graph(3);
        let costs = SpaceTimeCosts::new(&g, 4, WeightModel::uniform(1e-2));
        let w = WeightModel::weight_of_rate(1e-2);
        let a = DetectionEvent { layer: 0, node: 0 };
        let b = DetectionEvent { layer: 3, node: 0 };
        assert!((costs.cost_between(a, b) - 3.0 * w).abs() < 1e-9);
        let c = DetectionEvent { layer: 1, node: 1 };
        let expected = (g.space_distance(0, 1) as f64 + 1.0) * w;
        assert!((costs.cost_between(a, c) - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one event layer")]
    fn zero_layers_is_rejected() {
        let g = graph(3);
        let _ = SpaceTimeCosts::new(&g, 0, WeightModel::uniform(1e-3));
    }

    #[test]
    fn sparse_graph_has_the_expected_shape() {
        let g = graph(5);
        let layers = 4;
        let st = SpaceTimeGraph::build(&g, layers, &WeightModel::uniform(1e-3));
        assert_eq!(st.num_layers(), layers);
        assert_eq!(st.graph().num_vertices(), g.num_nodes() * layers);
        // per layer: every layer-graph edge, plus time edges except after
        // the last layer
        let expected_edges = layers * g.num_edges() + (layers - 1) * g.num_nodes();
        assert_eq!(st.graph().num_edges(), expected_edges);
        // boundary sides are recorded exactly for boundary edges
        let boundary_edges = (0..st.graph().num_edges())
            .filter(|&e| st.graph().edge(e).is_boundary())
            .count();
        let sided = (0..st.graph().num_edges())
            .filter(|&e| st.side_of(e).is_some())
            .count();
        assert_eq!(boundary_edges, sided);
        assert_eq!(boundary_edges, layers * g.boundary_edges().count());
    }

    #[test]
    fn in_place_reweight_matches_a_fresh_build_bit_for_bit() {
        let g = graph(5);
        let layers = 4;
        let uniform = WeightModel::uniform(1e-3);
        let region = AnomalousRegion::new(Coord::new(2, 0), 5, 0, 10, 0.5);
        let aware = WeightModel::anomaly_aware(1e-3, vec![region], 0);
        let mut st = SpaceTimeGraph::build(&g, layers, &uniform);
        // uniform → anomaly-aware: only region edges are rewritten
        st.reweight(&g, Some(&uniform), &aware);
        let fresh = SpaceTimeGraph::build(&g, layers, &aware);
        for e in 0..st.graph().num_edges() {
            assert_eq!(st.graph().edge(e).weight, fresh.graph().edge(e).weight);
        }
        // ... and back again
        st.reweight(&g, Some(&aware), &uniform);
        let back = SpaceTimeGraph::build(&g, layers, &uniform);
        for e in 0..st.graph().num_edges() {
            assert_eq!(st.graph().edge(e).weight, back.graph().edge(e).weight);
        }
        // a full recompute (no previous model) agrees too
        st.reweight(&g, None, &aware);
        for e in 0..st.graph().num_edges() {
            assert_eq!(st.graph().edge(e).weight, fresh.graph().edge(e).weight);
        }
    }

    #[test]
    #[should_panic(expected = "does not match the cached space-time graph")]
    fn reweight_rejects_a_different_layer_graph() {
        let g = graph(5);
        let other = graph(3);
        let mut st = SpaceTimeGraph::build(&g, 2, &WeightModel::uniform(1e-3));
        st.reweight(&other, None, &WeightModel::uniform(1e-3));
    }

    #[test]
    fn sparse_vertices_follow_the_state_indexing() {
        let g = graph(3);
        let st = SpaceTimeGraph::build(&g, 3, &WeightModel::uniform(1e-3));
        let e = DetectionEvent { layer: 2, node: 1 };
        assert_eq!(st.vertex_of(e), 2 * g.num_nodes() + 1);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn sparse_vertex_rejects_out_of_range_events() {
        let g = graph(3);
        let st = SpaceTimeGraph::build(&g, 2, &WeightModel::uniform(1e-3));
        let _ = st.vertex_of(DetectionEvent { layer: 2, node: 0 });
    }

    /// Float Dijkstra over `graph` from `source` with per-edge `cost`:
    /// `(cost, edges)` of a cheapest path to every vertex, and to the
    /// boundary.
    fn float_paths(
        graph: &SyndromeGraph,
        source: usize,
        cost: &dyn Fn(SparseEdgeId) -> f64,
    ) -> (Vec<(f64, usize)>, (f64, usize)) {
        let n = graph.num_vertices();
        let mut best = vec![(f64::INFINITY, 0usize); n];
        let mut done = vec![false; n];
        let mut boundary = (f64::INFINITY, 0usize);
        best[source] = (0.0, 0);
        while let Some(u) = (0..n)
            .filter(|&v| !done[v] && best[v].0.is_finite())
            .min_by(|&a, &b| best[a].0.total_cmp(&best[b].0))
        {
            done[u] = true;
            let (du, hops) = best[u];
            for id in graph.incident(u) {
                let next = (du + cost(id), hops + 1);
                match graph.edge(id).other(u) {
                    Some(v) if next.0 < best[v].0 => best[v] = next,
                    None if next.0 < boundary.0 => boundary = next,
                    _ => {}
                }
            }
        }
        (best, boundary)
    }

    #[test]
    fn sparse_graph_weights_match_the_cost_oracle() {
        // Shortest paths over the sparse graph's raw weights must agree
        // with the dense SpaceTimeCosts oracle, uniform and anomaly-aware
        // alike; the exact backend, which decodes the quantized weights,
        // must stay within the quantizer's rounding bound of them.
        use q3de_matching::{DecoderBackend, ExactBackend, WEIGHT_UNIT};
        let g = graph(5);
        let layers = 3;
        let region = AnomalousRegion::new(Coord::new(2, 0), 5, 0, 10, 0.5);
        for model in [
            WeightModel::uniform(1e-2),
            WeightModel::anomaly_aware(1e-2, vec![region], 0),
        ] {
            let st = SpaceTimeGraph::build(&g, layers, &model);
            let oracle = SpaceTimeCosts::new(&g, layers, model.clone());
            let a = DetectionEvent { layer: 0, node: 0 };
            let b = DetectionEvent {
                layer: 2,
                node: g.num_nodes() - 1,
            };
            let (va, vb) = (st.vertex_of(a), st.vertex_of(b));
            let sparse = st.graph();
            let raw = |id: SparseEdgeId| sparse.edge(id).weight;
            let (from_a, boundary_a) = float_paths(sparse, va, &raw);
            let (_, boundary_b) = float_paths(sparse, vb, &raw);
            let pair = oracle.cost_between(a, b);
            let (al, ah) = oracle.boundary_costs(a);
            let (bl, bh) = oracle.boundary_costs(b);
            for (got, want) in [
                (from_a[vb].0, pair),
                (boundary_a.0, al.min(ah)),
                (boundary_b.0, bl.min(bh)),
            ] {
                assert!((got - want).abs() < 1e-9, "sparse {got} vs oracle {want}");
            }

            // The optimum and its edge count on raw and on quantized
            // weights: each edge's rounding moves it by at most one unit.
            let optimum = |cost: &dyn Fn(SparseEdgeId) -> f64| {
                let (from_a, boundary_a) = float_paths(sparse, va, cost);
                let (_, boundary_b) = float_paths(sparse, vb, cost);
                let split = (boundary_a.0 + boundary_b.0, boundary_a.1 + boundary_b.1);
                if from_a[vb].0 <= split.0 {
                    from_a[vb]
                } else {
                    split
                }
            };
            let (raw_cost, raw_edges) = optimum(&raw);
            let (_, quantized_edges) = optimum(&|id| sparse.quantized_weight(id));
            let m = ExactBackend::default().decode_defects(sparse, &[va, vb]);
            let bound = (raw_edges + quantized_edges) as f64 * WEIGHT_UNIT;
            assert!(
                (m.total_cost() - raw_cost).abs() <= bound,
                "backend {} vs raw optimum {raw_cost} (bound {bound})",
                m.total_cost()
            );
        }
    }
}
