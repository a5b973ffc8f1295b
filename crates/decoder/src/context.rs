//! Long-lived decoder state: the persistent [`DecoderContext`] and the
//! thread-safe [`ContextPool`] the simulation kernels draw from.
//!
//! Building the space-time decoding graph is the most allocation-heavy step
//! of a decode call — one vertex per `(stabilizer, layer)` state, adjacency
//! lists, boundary-side tags — yet its *topology* depends only on the layer
//! graph and the window depth, and its *weights* only on the
//! [`WeightModel`].  A `DecoderContext` therefore caches the built
//! [`SpaceTimeGraph`] keyed by `(error kind, node count, edge count,
//! window layers)` and treats the weight model as an epoch: decoding with
//! the same model reuses the graph untouched, decoding with a different
//! model re-weights it in place (only the edges whose rate actually
//! changed), and only a *structural* change — code expansion/shrink, a
//! different window depth — rebuilds the graph.  The matching backend
//! lives in the context too, so its scratch (Dijkstra buffers, union-find
//! forest) persists across windows and shots.

use crate::{
    DecodeOutcome, DecoderConfig, DetectionEvent, MatchedPair, ReExecutionOutcome, SpaceTimeGraph,
    SyndromeHistory, WeightModel,
};
use q3de_lattice::{ErrorKind, MatchingGraph};
use q3de_matching::DecoderBackend;
use q3de_noise::AnomalousRegion;
use std::fmt;
use std::sync::Mutex;

/// The structural identity of a cached space-time graph: error kind, layer
/// graph shape (node and edge counts), and window depth.  A decode call
/// whose key differs from the cache's rebuilds the graph (this is what
/// happens on code expansion/shrink or a change in window depth).
///
/// Exposed so multi-tenant schedulers can route work to a context whose
/// cache already holds the right structure (see
/// [`ContextPool::checkout`]); build one with [`graph_key`].
pub type GraphKey = (ErrorKind, usize, usize, usize);

/// The [`GraphKey`] a decode of `num_layers` layers over `graph` caches
/// under — the affinity key for [`ContextPool::checkout`].
pub fn graph_key(graph: &MatchingGraph, num_layers: usize) -> GraphKey {
    (
        graph.kind(),
        graph.num_nodes(),
        graph.num_edges(),
        num_layers.max(1),
    )
}

struct GraphCache {
    key: GraphKey,
    spacetime: SpaceTimeGraph,
    /// The model whose weights are currently installed in `spacetime` —
    /// the cache's *weight epoch*.
    model: WeightModel,
}

/// Reusable decoding state for one worker: the configured matching backend
/// (with its scratch buffers) plus the cached, re-weightable space-time
/// graph of the last-seen window shape.
///
/// A context is *not* tied to one layer graph: every [`DecoderContext::decode`]
/// call passes the graph explicitly, and the cache invalidates itself
/// whenever the graph's structure or the window depth changes.  Reused
/// contexts are bit-identical to fresh ones (pinned by
/// `tests/decoder_reuse.rs`); the only observable difference is speed.
///
/// # Invalidation rules
///
/// | change | action |
/// |---|---|
/// | same graph, same layers, same weight model | full reuse, zero rebuild |
/// | weight model changed (anomaly re-weighting, rollback pass) | in-place re-weight of the affected edges |
/// | window depth changed | rebuild |
/// | graph structure changed (expansion/shrink, other error kind) | rebuild |
pub struct DecoderContext {
    config: DecoderConfig,
    backend: Box<dyn DecoderBackend + Send>,
    cache: Option<GraphCache>,
    defects: Vec<usize>,
    graph_builds: u64,
    reweights: u64,
}

impl fmt::Debug for DecoderContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecoderContext")
            .field("config", &self.config)
            .field("backend", &self.backend.name())
            .field("warm", &self.cache.is_some())
            .field("graph_builds", &self.graph_builds)
            .field("reweights", &self.reweights)
            .finish()
    }
}

impl DecoderContext {
    /// Creates a cold context for the given decoder configuration.
    pub fn new(config: DecoderConfig) -> Self {
        Self {
            backend: config.backend(),
            config,
            cache: None,
            defects: Vec::new(),
            graph_builds: 0,
            reweights: 0,
        }
    }

    /// The decoder configuration the context was built with.
    pub fn config(&self) -> DecoderConfig {
        self.config
    }

    /// The structural key of the cached space-time graph, if any — what a
    /// decode must match to reuse the cache without a rebuild.  The pool
    /// compares it against [`graph_key`] of the next window to route work
    /// onto an already-warm context (see [`ContextPool::checkout`]).
    fn cached_structure(&self) -> Option<GraphKey> {
        self.cache.as_ref().map(|cache| cache.key)
    }

    /// How many times the context has built a space-time graph from
    /// scratch — the number a cold per-call decoder would multiply by its
    /// decode count.  Exposed so reuse tests can assert the cache worked.
    pub fn graph_builds(&self) -> u64 {
        self.graph_builds
    }

    /// How many times the cached graph was re-weighted in place (the weight
    /// epoch advanced without a rebuild).
    pub fn reweights(&self) -> u64 {
        self.reweights
    }

    /// Decodes a syndrome window under the given weight model, reusing the
    /// cached space-time graph when the window shape matches (see the
    /// invalidation rules above).  The result is bit-identical to a fresh
    /// context's.
    ///
    /// # Panics
    ///
    /// Panics if the history's node count does not match the layer graph.
    pub fn decode(
        &mut self,
        graph: &MatchingGraph,
        history: &SyndromeHistory,
        model: &WeightModel,
    ) -> DecodeOutcome {
        assert_eq!(
            history.num_nodes(),
            graph.num_nodes(),
            "syndrome history and matching graph disagree on the node count"
        );
        self.decode_events(
            graph,
            history.num_layers(),
            history.detection_events(),
            model,
        )
    }

    /// Decodes an explicit detection-event list over a `num_layers`-deep
    /// window — the entry point for callers that extract events themselves,
    /// such as the packed batch kernel, which never materialises a scalar
    /// [`SyndromeHistory`] per lane.  [`DecoderContext::decode`] is exactly
    /// this applied to `history.detection_events()`.
    ///
    /// Events must be sorted in `(layer, node)` order with every layer below
    /// `num_layers.max(1)` and every node in the layer graph.  An empty list
    /// decodes to the default (no-correction) outcome.
    pub fn decode_events(
        &mut self,
        graph: &MatchingGraph,
        num_layers: usize,
        events: Vec<DetectionEvent>,
        model: &WeightModel,
    ) -> DecodeOutcome {
        if events.is_empty() {
            return DecodeOutcome::default();
        }
        self.install(graph, num_layers, model);
        let spacetime = &self
            .cache
            .as_ref()
            .expect("cache installed above")
            .spacetime;
        self.defects.clear();
        self.defects
            .extend(events.iter().map(|&e| spacetime.vertex_of(e)));
        self.match_defects(events)
    }

    /// Makes the cached space-time graph the one of `num_layers` layers
    /// over `graph` weighted by `model`: reused as is, re-weighted in place,
    /// or built (see the invalidation rules above).
    fn install(&mut self, graph: &MatchingGraph, num_layers: usize, model: &WeightModel) {
        let key: GraphKey = graph_key(graph, num_layers);
        match &mut self.cache {
            Some(cache) if cache.key == key => {
                if cache.model != *model {
                    cache.spacetime.reweight(graph, Some(&cache.model), model);
                    cache.model = model.clone();
                    self.reweights += 1;
                }
            }
            _ => {
                self.cache = Some(GraphCache {
                    key,
                    spacetime: SpaceTimeGraph::build(graph, num_layers.max(1), model),
                    model: model.clone(),
                });
                self.graph_builds += 1;
            }
        }
    }

    /// Matches `self.defects`, the cached graph's vertices of `events`, and
    /// maps the matching back onto the events.
    fn match_defects(&mut self, events: Vec<DetectionEvent>) -> DecodeOutcome {
        let Self {
            backend,
            cache,
            defects,
            ..
        } = self;
        let spacetime = &cache.as_ref().expect("cache installed above").spacetime;
        let matching = backend.decode_defects(spacetime.graph(), defects);
        debug_assert!(
            matching.is_perfect(defects.len()),
            "backend {} returned an imperfect matching",
            backend.name()
        );

        let mut outcome = DecodeOutcome {
            num_clusters: matching.num_clusters,
            ..DecodeOutcome::default()
        };
        for pair in &matching.pairs {
            let (a, b) = if defects[pair.a] <= defects[pair.b] {
                (pair.a, pair.b)
            } else {
                (pair.b, pair.a)
            };
            outcome.pairs.push(MatchedPair {
                a: events[a],
                b: events[b],
                cost: pair.cost,
            });
            outcome.total_weight += pair.cost;
        }
        for bm in &matching.boundary {
            let side = spacetime
                .side_of(bm.edge)
                .expect("boundary match must reference a boundary edge");
            outcome
                .boundary_matches
                .push((events[bm.defect], side, bm.cost));
            outcome.total_weight += bm.cost;
        }
        outcome.events = events;
        outcome
    }

    /// The two-pass rollback flow of Sec. VI-C — the "optimized error
    /// DEcoding" of Q3DE:
    ///
    /// 1. the window is decoded with uniform (anomaly-blind) weights,
    ///    `WeightModel::uniform(base_rate)`, exactly as a conventional
    ///    architecture would;
    /// 2. when the anomaly-detection unit reports MBBE regions
    ///    (`detected_regions` is `Some` and non-empty), the state of the
    ///    syndrome queue and decoding unit is rolled back and the same
    ///    window is re-decoded with [`WeightModel::AnomalyAware`] weights;
    ///    `window_start_cycle` maps event layer 0 to an absolute code cycle
    ///    so the regions' activity windows line up.
    ///
    /// The queue bookkeeping that makes the rollback cheap in hardware
    /// (enlarged syndrome queue, matching queue batches, instruction history
    /// buffer) is modelled in the `q3de-control` crate; this method captures
    /// the decoding semantics.  Both passes run through the configured
    /// backend and share the cached graph: the blind pass reuses it
    /// untouched and the re-executed pass only re-weights the edges inside
    /// the detected regions.  The window's detection events are extracted
    /// once, and the re-executed pass matches the blind pass's defect list.
    ///
    /// # Panics
    ///
    /// Panics if the history's node count does not match the layer graph.
    pub fn decode_with_rollback(
        &mut self,
        graph: &MatchingGraph,
        base_rate: f64,
        history: &SyndromeHistory,
        detected_regions: Option<&[AnomalousRegion]>,
        window_start_cycle: u64,
    ) -> ReExecutionOutcome {
        let first_pass = self.decode(graph, history, &WeightModel::uniform(base_rate));
        let second_pass = match detected_regions {
            Some(regions) if !regions.is_empty() => {
                let model =
                    WeightModel::anomaly_aware(base_rate, regions.to_vec(), window_start_cycle);
                if first_pass.events.is_empty() {
                    Some(DecodeOutcome::default())
                } else {
                    // Same structure, so `self.defects` still maps the
                    // blind pass's events; only the weights change.
                    self.install(graph, history.num_layers(), &model);
                    Some(self.match_defects(first_pass.events.clone()))
                }
            }
            _ => None,
        };
        ReExecutionOutcome {
            first_pass,
            second_pass,
        }
    }
}

/// A thread-safe pool of [`DecoderContext`]s sharing one configuration.
///
/// The Monte-Carlo kernels run shots from many worker threads through
/// `&self` closures, so they cannot hold a `&mut DecoderContext` each.  The
/// pool bridges that: [`ContextPool::with`] checks out a context warm for
/// the window's structure (creating one only when none is idle), runs the
/// closure, and returns it warm.  Steady state is one context per
/// concurrently decoding worker and window structure — decoders are
/// constructed once per worker, not once per shot.
pub struct ContextPool {
    config: DecoderConfig,
    pool: Mutex<Vec<DecoderContext>>,
}

impl ContextPool {
    /// Creates an empty pool handing out contexts of the given
    /// configuration.
    pub fn new(config: DecoderConfig) -> Self {
        Self {
            config,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The configuration of every context the pool hands out.
    pub fn config(&self) -> DecoderConfig {
        self.config
    }

    /// Number of idle (checked-in) contexts currently pooled.
    pub fn idle_contexts(&self) -> usize {
        self.pool.lock().expect("context pool poisoned").len()
    }

    /// Checks a context out of the pool, preferring one whose cached
    /// space-time graph already matches `key` (see [`graph_key`]), then a
    /// context with no cached graph at all, and only then a cold new one.
    /// A warm context cached for a *different* structure is never
    /// repurposed — evicting it would ping-pong rebuilds whenever fewer
    /// workers than window structures share the pool.  This is what keeps
    /// a heterogeneous multi-tenant shard rebuild-free: each distinct
    /// structure gravitates onto its own warm context, and the pool grows
    /// to at most one idle context per distinct structure plus one per
    /// concurrent checkout.
    ///
    /// Pair with [`ContextPool::checkin`]; the closure-style
    /// [`ContextPool::with`] does that automatically and should be
    /// preferred unless the checkout must outlive a closure (e.g. a
    /// long-running service worker holding a context across a blocking
    /// decode).
    pub fn checkout(&self, key: GraphKey) -> DecoderContext {
        let mut pool = self.pool.lock().expect("context pool poisoned");
        if let Some(index) = pool
            .iter()
            .position(|context| context.cached_structure() == Some(key))
        {
            return pool.swap_remove(index);
        }
        if let Some(index) = pool
            .iter()
            .position(|context| context.cached_structure().is_none())
        {
            return pool.swap_remove(index);
        }
        DecoderContext::new(self.config)
    }

    /// Returns a context to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the context's configuration differs from the pool's — a
    /// foreign context would silently decode later checkouts with the
    /// wrong backend.
    pub fn checkin(&self, context: DecoderContext) {
        assert_eq!(
            context.config(),
            self.config,
            "checked-in context does not match the pool configuration"
        );
        self.pool
            .lock()
            .expect("context pool poisoned")
            .push(context);
    }

    /// Runs `f` with a pooled context that prefers the structure `key`
    /// (see [`ContextPool::checkout`]), checking it back in afterwards.  If
    /// `f` panics the context is dropped, never returned to the pool.
    pub fn with<T>(&self, key: GraphKey, f: impl FnOnce(&mut DecoderContext) -> T) -> T {
        let mut context = self.checkout(key);
        let result = f(&mut context);
        self.checkin(context);
        result
    }
}

impl Clone for ContextPool {
    /// Cloning yields an *empty* pool with the same configuration — warm
    /// caches stay with the original.
    fn clone(&self) -> Self {
        Self::new(self.config)
    }
}

impl fmt::Debug for ContextPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContextPool")
            .field("config", &self.config)
            .field("idle_contexts", &self.idle_contexts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatcherKind;
    use q3de_lattice::{Coord, Pauli, PauliString, StabilizerKind, SurfaceCode};

    fn static_history(code: &SurfaceCode, error: &PauliString, rounds: usize) -> SyndromeHistory {
        let graph = code.matching_graph(ErrorKind::X);
        let syndrome = code.syndrome(StabilizerKind::Z, error);
        let mut h = SyndromeHistory::new(graph.num_nodes());
        for _ in 0..rounds {
            h.push_layer(&syndrome);
        }
        h
    }

    #[test]
    fn context_reuses_the_graph_across_identical_windows() {
        let code = SurfaceCode::new(5).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let error: PauliString = [(Coord::new(0, 0), Pauli::X)].into_iter().collect();
        let history = static_history(&code, &error, 3);
        let model = WeightModel::uniform(1e-3);
        let mut context = DecoderContext::new(DecoderConfig::default());
        let first = context.decode(&graph, &history, &model);
        for _ in 0..5 {
            assert_eq!(context.decode(&graph, &history, &model), first);
        }
        assert_eq!(context.graph_builds(), 1, "one build, five reuses");
        assert_eq!(context.reweights(), 0);
    }

    #[test]
    fn model_changes_reweight_instead_of_rebuilding() {
        let code = SurfaceCode::new(5).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let error: PauliString = [(Coord::new(0, 2), Pauli::X), (Coord::new(0, 4), Pauli::X)]
            .into_iter()
            .collect();
        let history = static_history(&code, &error, 3);
        let region = AnomalousRegion::new(Coord::new(0, 2), 4, 0, 100, 0.5);
        let uniform = WeightModel::uniform(1e-3);
        let aware = WeightModel::anomaly_aware(1e-3, vec![region], 0);
        let mut context = DecoderContext::new(DecoderConfig::default());
        let blind = context.decode(&graph, &history, &uniform);
        let rolled = context.decode(&graph, &history, &aware);
        let blind_again = context.decode(&graph, &history, &uniform);
        assert_eq!(context.graph_builds(), 1, "re-weighting must not rebuild");
        assert_eq!(context.reweights(), 2);
        assert_eq!(blind, blind_again);
        // fresh-per-call reference
        let mut fresh = DecoderContext::new(DecoderConfig::default());
        assert_eq!(fresh.decode(&graph, &history, &aware), rolled);
    }

    #[test]
    fn structural_changes_rebuild_the_cache() {
        let small = SurfaceCode::new(3).unwrap();
        let large = SurfaceCode::new(5).unwrap();
        let gs = small.matching_graph(ErrorKind::X);
        let gl = large.matching_graph(ErrorKind::X);
        let error: PauliString = [(Coord::new(0, 0), Pauli::X)].into_iter().collect();
        let model = WeightModel::uniform(1e-3);
        let mut context = DecoderContext::new(DecoderConfig::default());
        let hs = static_history(&small, &error, 3);
        let hl = static_history(&large, &error, 3);
        context.decode(&gs, &hs, &model);
        context.decode(&gl, &hl, &model); // expansion: different graph
        context.decode(&gl, &static_history(&large, &error, 5), &model); // deeper window
        assert_eq!(context.graph_builds(), 3);
        // results still match fresh decoding after all that churn
        let mut fresh = DecoderContext::new(DecoderConfig::default());
        assert_eq!(
            context.decode(&gs, &hs, &model),
            fresh.decode(&gs, &hs, &model)
        );
    }

    fn burst_setup() -> (SurfaceCode, PauliString, AnomalousRegion) {
        let code = SurfaceCode::new(5).unwrap();
        let region = AnomalousRegion::new(Coord::new(0, 2), 4, 0, 100, 0.5);
        let error: PauliString = [
            (Coord::new(0, 2), Pauli::X),
            (Coord::new(0, 4), Pauli::X),
            (Coord::new(0, 6), Pauli::X),
        ]
        .into_iter()
        .collect();
        (code, error, region)
    }

    fn error_cut_parity(code: &SurfaceCode, error: &PauliString) -> bool {
        code.logical_z_support()
            .iter()
            .filter(|&&q| error.get(q).has_x_component())
            .count()
            % 2
            == 1
    }

    #[test]
    fn rollback_equals_a_blind_then_an_aware_decode() {
        const START: u64 = 7;
        let (code, error, _) = burst_setup();
        // The region switches on at cycle START, so only a second pass
        // anchored at START (not at cycle 0) sees it.
        let region = AnomalousRegion::new(Coord::new(0, 2), 4, START, 100, 0.5);
        let graph = code.matching_graph(ErrorKind::X);
        let history = static_history(&code, &error, 3);
        let mut context = DecoderContext::new(DecoderConfig::default());
        let outcome = context.decode_with_rollback(&graph, 1e-3, &history, Some(&[region]), START);
        assert!(outcome.was_rolled_back());
        let blind = DecoderContext::new(DecoderConfig::default()).decode(
            &graph,
            &history,
            &WeightModel::uniform(1e-3),
        );
        let aware = DecoderContext::new(DecoderConfig::default()).decode(
            &graph,
            &history,
            &WeightModel::anomaly_aware(1e-3, vec![region], START),
        );
        assert_ne!(aware, blind, "the region must change the decode");
        let second = outcome.second_pass.as_ref().expect("rolled back");
        // The second pass decodes the first pass's events, extracted once.
        assert_eq!(second.events, outcome.first_pass.events);
        assert_eq!(outcome.first_pass, blind);
        assert_eq!(outcome.second_pass, Some(aware));
        // no detection → no second pass, still cached
        let quiet = context.decode_with_rollback(&graph, 1e-3, &history, None, START);
        assert!(!quiet.was_rolled_back());
        assert_eq!(context.graph_builds(), 1);
    }

    #[test]
    fn no_detection_means_no_rollback() {
        let (code, error, _) = burst_setup();
        let graph = code.matching_graph(ErrorKind::X);
        let mut context = DecoderContext::new(DecoderConfig::default());
        let history = static_history(&code, &error, 3);
        let outcome = context.decode_with_rollback(&graph, 1e-3, &history, None, 0);
        assert!(!outcome.was_rolled_back());
        assert!(outcome.second_pass.is_none());
        assert!(!outcome.reexecution_changed_parity());
        let outcome2 = context.decode_with_rollback(&graph, 1e-3, &history, Some(&[]), 0);
        assert!(!outcome2.was_rolled_back());
    }

    #[test]
    fn rollback_reexecutes_and_fixes_the_burst() {
        let (code, error, region) = burst_setup();
        let graph = code.matching_graph(ErrorKind::X);
        let mut context = DecoderContext::new(DecoderConfig::default());
        let history = static_history(&code, &error, 3);
        let error_parity = error_cut_parity(&code, &error);

        let outcome = context.decode_with_rollback(&graph, 1e-3, &history, Some(&[region]), 0);
        assert!(outcome.was_rolled_back());
        assert!(outcome.first_pass.is_logical_failure(error_parity));
        assert!(!outcome.final_outcome().is_logical_failure(error_parity));
        assert!(outcome.reexecution_changed_parity());
    }

    #[test]
    fn rollback_is_backend_generic() {
        // Every matching backend must support the two-pass rollback flow and
        // fix the burst after re-weighting.
        let (code, error, region) = burst_setup();
        let graph = code.matching_graph(ErrorKind::X);
        let history = static_history(&code, &error, 3);
        let error_parity = error_cut_parity(&code, &error);
        for kind in MatcherKind::ALL {
            let mut context = DecoderContext::new(DecoderConfig::default().with_matcher(kind));
            let outcome = context.decode_with_rollback(&graph, 1e-3, &history, Some(&[region]), 0);
            assert!(outcome.was_rolled_back(), "{kind:?}");
            assert!(
                !outcome.final_outcome().is_logical_failure(error_parity),
                "{kind:?}: re-executed pass must fix the burst"
            );
        }
    }

    #[test]
    fn final_outcome_prefers_second_pass() {
        let (code, error, region) = burst_setup();
        let graph = code.matching_graph(ErrorKind::X);
        let mut context = DecoderContext::new(DecoderConfig::default());
        let history = static_history(&code, &error, 3);
        let outcome = context.decode_with_rollback(&graph, 1e-3, &history, Some(&[region]), 0);
        let second = outcome.second_pass.as_ref().unwrap();
        assert_eq!(
            outcome.final_outcome().correction_crosses_cut(),
            second.correction_crosses_cut()
        );
    }

    #[test]
    fn pool_hands_out_warm_contexts() {
        let pool = ContextPool::new(DecoderConfig::default().with_matcher(MatcherKind::UnionFind));
        assert_eq!(pool.idle_contexts(), 0);
        let code = SurfaceCode::new(3).unwrap();
        let graph = code.matching_graph(ErrorKind::X);
        let error: PauliString = [(Coord::new(0, 0), Pauli::X)].into_iter().collect();
        let history = static_history(&code, &error, 2);
        let model = WeightModel::uniform(1e-3);
        let key = graph_key(&graph, history.num_layers());
        let first = pool.with(key, |context| context.decode(&graph, &history, &model));
        assert_eq!(pool.idle_contexts(), 1);
        let (second, builds) = pool.with(key, |context| {
            (
                context.decode(&graph, &history, &model),
                context.graph_builds(),
            )
        });
        assert_eq!(first, second);
        assert_eq!(builds, 1, "the second call got the warm context back");
        assert_eq!(pool.config().matcher, MatcherKind::UnionFind);
        // a clone starts cold
        assert_eq!(pool.clone().idle_contexts(), 0);
    }

    #[test]
    fn affinity_checkout_routes_structures_to_their_warm_contexts() {
        let pool = ContextPool::new(DecoderConfig::default());
        let small = SurfaceCode::new(3).unwrap();
        let large = SurfaceCode::new(5).unwrap();
        let gs = small.matching_graph(ErrorKind::X);
        let gl = large.matching_graph(ErrorKind::X);
        let error: PauliString = [(Coord::new(0, 0), Pauli::X)].into_iter().collect();
        let hs = static_history(&small, &error, 3);
        let hl = static_history(&large, &error, 3);
        let model = WeightModel::uniform(1e-3);
        let ks = graph_key(&gs, hs.num_layers());
        let kl = graph_key(&gl, hl.num_layers());
        assert_ne!(ks, kl);

        // Warm one context per structure (checked out simultaneously so
        // the pool is forced to create two).
        let mut a = pool.checkout(ks);
        let mut b = pool.checkout(kl);
        a.decode(&gs, &hs, &model);
        b.decode(&gl, &hl, &model);
        assert_eq!(a.cached_structure(), Some(ks));
        assert_eq!(b.cached_structure(), Some(kl));
        pool.checkin(a);
        pool.checkin(b);
        assert_eq!(pool.idle_contexts(), 2);

        // Interleaved heterogeneous decodes: affinity must find the
        // matching warm context every time, so no structure ever rebuilds.
        for _ in 0..4 {
            pool.with(ks, |context| {
                context.decode(&gs, &hs, &model);
                assert_eq!(context.graph_builds(), 1, "small context stays warm");
            });
            pool.with(kl, |context| {
                context.decode(&gl, &hl, &model);
                assert_eq!(context.graph_builds(), 1, "large context stays warm");
            });
        }
        let total_builds: u64 = {
            let a = pool.checkout(ks);
            let b = pool.checkout(kl);
            let builds = a.graph_builds() + b.graph_builds();
            pool.checkin(a);
            pool.checkin(b);
            builds
        };
        assert_eq!(total_builds, 2, "one build per structure, ever");
    }

    #[test]
    #[should_panic(expected = "does not match the pool configuration")]
    fn foreign_contexts_are_rejected_at_checkin() {
        let pool = ContextPool::new(DecoderConfig::default().with_matcher(MatcherKind::UnionFind));
        pool.checkin(DecoderContext::new(DecoderConfig::default()));
    }
}
