//! The bit-packed 64-shot batch sampling spine.
//!
//! One `u64` lane = 64 independent shots of the same sweep point.  The
//! packed path restates the scalar kernel
//! ([`MemoryExperiment::sample_history_with`]) as bitwise operations over
//! flat `u64` buffers:
//!
//! * per-qubit flip probabilities are resolved **once** from the
//!   [`q3de_noise::NoiseModel`] into a [`PackedBernoulli`] table (uniform
//!   vs anomalous partition, per round), instead of re-walking the region
//!   geometry per shot;
//! * X-component flips are sampled 64 shots at a time
//!   ([`PackedBernoulli::sample_u64`] consumes ~`popcount(threshold)`
//!   words per 64 lanes instead of 64 `f64` draws);
//! * parity checks and the final readout layer are XOR folds over the
//!   incident-edge flip words, accumulated into a [`SyndromeBatch`];
//! * only lanes whose window has a nonzero syndrome are decoded.  A silent
//!   window decodes to no correction, so a quiet lane fails iff its
//!   accumulated cut parity is odd — one AND-NOT over the cut-parity word
//!   handles all quiet lanes at once without touching the decoder.
//!
//! Eventful lanes additionally share a *verdict memo*: the decoded
//! correction's cut parity is a pure function of the lane's detection-event
//! pattern (the weight model is fixed per batch), so the batch caches
//! `detector bits → crosses_cut` and most eventful lanes at memory-regime
//! rates hit the cache instead of the matcher.
//!
//! # Seed schedule
//!
//! The packed path deliberately does **not** reproduce the scalar per-shot
//! RNG streams — doing so would spend more time seeding and drawing than
//! the scalar path itself.  Instead each 64-lane group `g` draws from one
//! RNG seeded with [`shot_stream_seed`]`(base_seed, g | 1 << 63)` (the high
//! bit keeps group streams disjoint from scalar shot streams).  Estimates
//! are therefore deterministic and machine-independent for a given
//! `(base_seed, shots)`, and statistically equivalent to — but not
//! shot-for-shot identical with — the scalar estimate.  The differential
//! suite pins correctness the stronger way: [`PackedShotBatch::replay_lane_scalar`]
//! replays the *identical* packed-sampled noise realization of any lane
//! through the scalar decode machinery, and the failure verdicts must
//! match bit-for-bit.

use crate::memory::{DecodingStrategy, EstimateResult, MemoryExperiment};
use crate::shot_stream_seed;
use q3de_decoder::{graph_key, ContextPool, DetectionEvent, SyndromeBatch, WeightModel};
use q3de_noise::NoiseModel;
use rand::{PackedBernoulli, Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::sync::RwLock;

/// Verdict-memo size cap: at d ≤ 7 the live detector-pattern space is far
/// smaller, and a runaway workload (deep windows at high rates) must not
/// grow the map without bound.  Beyond the cap the batch still decodes
/// correctly — it just stops inserting.
const VERDICT_MEMO_CAP: usize = 1 << 20;

/// Multiply-mix hasher for the verdict memo.  Signature keys are one or
/// two `u64` words and the memo hit is on the per-eventful-lane hot path,
/// where the default SipHash costs more than the rest of the lookup.  Not
/// collision-resistant against adversarial keys, which is fine for an
/// in-process bounded cache of locally sampled syndromes.
#[derive(Default)]
struct MemoHasher(u64);

impl MemoHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MemoHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }
}

type VerdictMemo = HashMap<Box<[u64]>, bool, BuildHasherDefault<MemoHasher>>;

/// A bit-packed Monte-Carlo kernel simulating 64 shots of one memory-sweep
/// point per `u64` word.
///
/// Construction resolves everything per-shot work used to recompute: the
/// per-qubit flip probability of every `(round, qubit)` pair becomes a
/// [`PackedBernoulli`], and the decoder weight model is fixed for the
/// batch.  [`PackedShotBatch::run_group`] then produces the 64-lane
/// failure mask of group `g`; [`PackedShotBatch::estimate`] folds masks
/// over `0..ceil(shots / 64)` groups, masking off the lanes past `shots` in
/// the tail group (the tail group always *samples* all 64 lanes, so a
/// lane's outcome never depends on the requested shot count).  Sweeps run
/// the batch on the engine through
/// [`SweepPoint::from_memory_packed`](crate::engine::SweepPoint::from_memory_packed).
pub struct PackedShotBatch<R> {
    experiment: MemoryExperiment,
    base_seed: u64,
    rounds: usize,
    /// `rounds × num_edges` flip samplers for the data qubits, round-major
    /// in the edge order of the matching graph.
    edge_samplers: Vec<PackedBernoulli>,
    /// `rounds × num_nodes` flip samplers for the ancilla qubits,
    /// round-major in node order.
    node_samplers: Vec<PackedBernoulli>,
    weights: WeightModel,
    decoders: ContextPool,
    verdicts: RwLock<VerdictMemo>,
    _rng: PhantomData<fn() -> R>,
}

impl<R> PackedShotBatch<R>
where
    R: Rng + SeedableRng,
{
    /// Builds the packed kernel for `experiment` under the given strategy:
    /// the noise model is flattened into per-`(round, qubit)` flip
    /// samplers and the strategy's weight model is installed for every
    /// decode of the batch.
    pub fn new(experiment: MemoryExperiment, strategy: DecodingStrategy, base_seed: u64) -> Self {
        let noise = experiment.noise_model(strategy);
        let weights = experiment.weight_model(strategy);
        let graph = experiment.graph();
        let rounds = experiment.config().effective_rounds();
        let flip = |coord, cycle| {
            PackedBernoulli::new(NoiseModel::flip_probability(noise.rate_at(coord, cycle)))
        };
        let mut edge_samplers = Vec::with_capacity(rounds * graph.num_edges());
        let mut node_samplers = Vec::with_capacity(rounds * graph.num_nodes());
        for t in 0..rounds as u64 {
            edge_samplers.extend(graph.edges().iter().map(|e| flip(e.qubit, t)));
            node_samplers.extend(graph.nodes().iter().map(|&n| flip(n, t)));
        }
        let decoders = ContextPool::new(experiment.config().decoder);
        Self {
            experiment,
            base_seed,
            rounds,
            edge_samplers,
            node_samplers,
            weights,
            decoders,
            verdicts: RwLock::new(VerdictMemo::default()),
            _rng: PhantomData,
        }
    }

    /// The sweep-level base seed the group streams derive from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Number of noisy rounds per shot.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The RNG seed of 64-lane group `group` — [`shot_stream_seed`] with
    /// the high stream bit set, keeping packed group streams disjoint from
    /// the scalar per-shot streams of the same `base_seed`.
    pub fn group_seed(&self, group: u64) -> u64 {
        shot_stream_seed(self.base_seed, group | 1 << 63)
    }

    /// Samples the noise realization of group `group` and returns the
    /// packed syndrome stream plus the accumulated cut-parity word (bit
    /// `lane` = the lane's actual error crosses the homological cut).
    ///
    /// The per-group sampling schedule mirrors the scalar kernel: per
    /// round, data qubits in edge order, then one ancilla sample per node;
    /// then the final perfect readout layer.
    pub fn sample_group(&self, group: u64) -> (SyndromeBatch, u64) {
        let graph = self.experiment.graph();
        let num_edges = graph.num_edges();
        let num_nodes = graph.num_nodes();
        let mut rng = R::seed_from_u64(self.group_seed(group));

        let mut flipped = vec![0u64; num_edges];
        let mut batch = SyndromeBatch::new(num_nodes);
        for t in 0..self.rounds {
            for (word, sampler) in flipped
                .iter_mut()
                .zip(&self.edge_samplers[t * num_edges..(t + 1) * num_edges])
            {
                *word ^= sampler.sample_u64(&mut rng);
            }
            let layer = batch.push_blank_layer();
            for (node, slot) in layer.iter_mut().enumerate() {
                let mut parity = 0u64;
                for &e in graph.incident_edges(node) {
                    parity ^= flipped[e];
                }
                parity ^= self.node_samplers[t * num_nodes + node].sample_u64(&mut rng);
                *slot = parity;
            }
        }
        let final_layer = batch.push_blank_layer();
        for (node, slot) in final_layer.iter_mut().enumerate() {
            let mut parity = 0u64;
            for &e in graph.incident_edges(node) {
                parity ^= flipped[e];
            }
            *slot = parity;
        }

        let mut cut = 0u64;
        for &e in graph.cut_edges() {
            cut ^= flipped[e];
        }
        (batch, cut)
    }

    /// Runs 64-lane group `group` and returns its failure mask: bit `lane`
    /// is set iff shot `group · 64 + lane` ends in a logical failure.
    ///
    /// Quiet lanes (no detection event in the window) skip the decoder —
    /// no correction is applied, so the failure bit is the lane's cut
    /// parity.  Eventful lanes decode through the shared verdict memo.
    pub fn run_group(&self, group: u64) -> u64 {
        let (batch, cut) = self.sample_group(group);
        // Every detector word is computed exactly once into a flat buffer;
        // the active mask and each eventful lane's signature/events are bit
        // extractions over it instead of per-lane XOR re-derivations.
        let mut detectors = Vec::new();
        batch.detector_words(&mut detectors);
        let active = detectors.iter().fold(0u64, |mask, &word| mask | word);
        // quiet-lane fast path: failure ⟺ the uncorrected error crosses the cut
        let mut failures = cut & !active;

        let mut signature = Vec::new();
        let mut events = Vec::new();
        let mut lanes = active;
        while lanes != 0 {
            let lane = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let crosses =
                self.lane_crosses_cut(&batch, &detectors, lane, &mut signature, &mut events);
            if crosses != ((cut >> lane) & 1 == 1) {
                failures |= 1 << lane;
            }
        }
        failures
    }

    /// The decoded correction's cut parity for one eventful lane, through
    /// the verdict memo.  Exact, not approximate: the decode outcome is a
    /// pure function of the detection-event pattern once the graph and
    /// weight model are fixed, and both are fixed for the batch's lifetime.
    ///
    /// `detectors` is the group's flat detector-word buffer
    /// ([`SyndromeBatch::detector_words`]); the lane's memo signature and
    /// detection events are extracted from it in the same `(layer, node)`
    /// scan order as [`SyndromeBatch::lane_signature`] and
    /// [`SyndromeBatch::lane_events`].
    fn lane_crosses_cut(
        &self,
        batch: &SyndromeBatch,
        detectors: &[u64],
        lane: usize,
        signature: &mut Vec<u64>,
        events: &mut Vec<DetectionEvent>,
    ) -> bool {
        signature.clear();
        signature.resize(detectors.len().div_ceil(64), 0);
        for (bit, word) in detectors.iter().enumerate() {
            signature[bit / 64] |= ((word >> lane) & 1) << (bit % 64);
        }
        if let Some(&verdict) = self
            .verdicts
            .read()
            .expect("verdict memo poisoned")
            .get(signature.as_slice())
        {
            return verdict;
        }
        events.clear();
        let num_nodes = batch.num_nodes();
        for (bit, word) in detectors.iter().enumerate() {
            if (word >> lane) & 1 == 1 {
                events.push(DetectionEvent {
                    layer: bit / num_nodes,
                    node: bit % num_nodes,
                });
            }
        }
        let graph = self.experiment.graph();
        let key = graph_key(graph, batch.num_layers());
        let outcome = self.decoders.with(key, |context| {
            context.decode_events(
                graph,
                batch.num_layers(),
                std::mem::take(events),
                &self.weights,
            )
        });
        let crosses = outcome.correction_crosses_cut();
        let mut memo = self.verdicts.write().expect("verdict memo poisoned");
        if memo.len() < VERDICT_MEMO_CAP {
            memo.insert(signature.clone().into_boxed_slice(), crosses);
        }
        crosses
    }

    /// The valid-lane mask of group `group` under a total of `shots` shots:
    /// all ones except in the tail group, where lanes past `shots` are
    /// masked off.
    fn valid_mask(shots: usize, group: u64) -> u64 {
        let first = group as usize * 64;
        let live = shots.saturating_sub(first).min(64);
        if live == 64 {
            u64::MAX
        } else {
            (1u64 << live) - 1
        }
    }

    /// Sequential Monte-Carlo estimate over `shots` shots (groups
    /// `0..ceil(shots / 64)`, tail lanes masked).
    pub fn estimate(&self, shots: usize) -> EstimateResult {
        let groups = shots.div_ceil(64) as u64;
        let mut failures = 0usize;
        for group in 0..groups {
            failures +=
                (self.run_group(group) & Self::valid_mask(shots, group)).count_ones() as usize;
        }
        EstimateResult {
            shots,
            failures,
            rounds: self.rounds,
        }
    }

    /// Replays packed shot `stream` (lane `stream % 64` of group
    /// `stream / 64`) through the **scalar** decode machinery: the lane's
    /// packed-sampled syndrome stream is unpacked into a
    /// [`q3de_decoder::SyndromeHistory`] and decoded exactly as
    /// [`MemoryExperiment::run_shot`] would decode it.
    ///
    /// This is the differential oracle: for every stream,
    /// `replay_lane_scalar(stream)` must equal bit `stream % 64` of
    /// `run_group(stream / 64)` — same noise realization, two independent
    /// parity/decode paths.
    pub fn replay_lane_scalar(&self, stream: u64) -> bool {
        let (batch, cut) = self.sample_group(stream / 64);
        let lane = (stream % 64) as usize;
        let history = batch.lane_history(lane);
        let error_cut_parity = (cut >> lane) & 1 == 1;
        let graph = self.experiment.graph();
        let key = graph_key(graph, history.num_layers());
        let outcome = self.decoders.with(key, |context| {
            context.decode(graph, &history, &self.weights)
        });
        outcome.is_logical_failure(error_cut_parity)
    }
}

impl<R> crate::engine::PackedShotKernel for PackedShotBatch<R>
where
    R: Rng + SeedableRng,
{
    fn run_group(&self, group: u64) -> u64 {
        PackedShotBatch::run_group(self, group)
    }
}

impl<R> std::fmt::Debug for PackedShotBatch<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedShotBatch")
            .field("config", self.experiment.config())
            .field("base_seed", &self.base_seed)
            .field("rounds", &self.rounds)
            .field(
                "memoized_verdicts",
                &self.verdicts.read().expect("verdict memo poisoned").len(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{AnomalyInjection, MemoryExperimentConfig};
    use rand_chacha::ChaCha8Rng;

    fn batch(
        config: MemoryExperimentConfig,
        strategy: DecodingStrategy,
        seed: u64,
    ) -> PackedShotBatch<ChaCha8Rng> {
        MemoryExperiment::new(config)
            .unwrap()
            .packed::<ChaCha8Rng>(strategy, seed)
    }

    #[test]
    fn zero_noise_never_fails() {
        let b = batch(
            MemoryExperimentConfig::new(3, 0.0),
            DecodingStrategy::MbbeFree,
            1,
        );
        let est = b.estimate(300);
        assert_eq!(est.failures, 0);
        assert_eq!(est.shots, 300);
    }

    #[test]
    fn estimates_are_deterministic_and_thread_independent() {
        use crate::engine::{SweepConfig, SweepPoint, SweepRunner};
        let config = MemoryExperimentConfig::new(3, 2e-2);
        let a = batch(config, DecodingStrategy::MbbeFree, 7).estimate(200);
        assert_eq!(
            a,
            batch(config, DecodingStrategy::MbbeFree, 7).estimate(200)
        );
        for threads in [1, 3] {
            let report = SweepRunner::new(SweepConfig::fixed(200).with_threads(threads))
                .run(vec![SweepPoint::new_packed(
                    "p",
                    batch(config, DecodingStrategy::MbbeFree, 7),
                )])
                .unwrap();
            let point = report.point("p").unwrap();
            assert_eq!(
                (point.shots, point.failures),
                (a.shots, a.failures),
                "sequential and {threads}-thread sweep must agree"
            );
        }
        let c = batch(config, DecodingStrategy::MbbeFree, 8).estimate(200);
        assert_eq!(c.shots, 200);
    }

    #[test]
    fn tail_lanes_do_not_change_earlier_outcomes() {
        // shot counts that straddle a group boundary: the first 64 shots'
        // failure bits must be identical whether or not a tail follows.
        let config = MemoryExperimentConfig::new(3, 2e-2);
        let b = batch(config, DecodingStrategy::MbbeFree, 3);
        let exact = b.estimate(64).failures;
        let with_tail = b.estimate(130).failures;
        let tail_only: usize = (64..130)
            .filter(|&s| b.replay_lane_scalar(s as u64))
            .count();
        assert_eq!(with_tail, exact + tail_only);
    }

    #[test]
    fn packed_failure_rate_is_statistically_sane() {
        // d = 3 at p = 2e-2 has a per-shot logical failure rate around a
        // few percent — the packed estimate must land in that ballpark.
        let config = MemoryExperimentConfig::new(3, 2e-2);
        let est = batch(config, DecodingStrategy::MbbeFree, 11).estimate(6400);
        let rate = est.logical_error_rate();
        assert!(
            rate > 0.001 && rate < 0.2,
            "implausible packed failure rate {rate}"
        );
    }

    #[test]
    fn quiet_group_at_tiny_rate_mostly_skips_the_decoder() {
        let config = MemoryExperimentConfig::new(3, 1e-4);
        let b = batch(config, DecodingStrategy::MbbeFree, 5);
        let (sb, _) = b.sample_group(0);
        assert!(
            sb.active_mask().count_ones() < 32,
            "at p = 1e-4 most lanes must be quiet"
        );
    }

    #[test]
    fn burst_strategies_share_noise_but_not_weights() {
        let config =
            MemoryExperimentConfig::new(5, 5e-3).with_anomaly(AnomalyInjection::centered(2, 0.5));
        let blind = batch(config, DecodingStrategy::Blind, 9);
        let aware = batch(config, DecodingStrategy::AnomalyAware, 9);
        // identical noise realization (same samplers, same group seed) …
        assert_eq!(blind.sample_group(0), aware.sample_group(0));
        // … and the burst raises the failure rate over MBBE-free
        let free = batch(config, DecodingStrategy::MbbeFree, 9).estimate(1280);
        let burst = blind.estimate(1280);
        assert!(
            burst.failures > free.failures,
            "burst {} must exceed MBBE-free {}",
            burst.failures,
            free.failures
        );
    }

    #[test]
    fn valid_mask_covers_partial_tails() {
        type B = PackedShotBatch<ChaCha8Rng>;
        assert_eq!(B::valid_mask(130, 0), u64::MAX);
        assert_eq!(B::valid_mask(130, 1), u64::MAX);
        assert_eq!(B::valid_mask(130, 2), 0b11);
        assert_eq!(B::valid_mask(64, 0), u64::MAX);
        assert_eq!(B::valid_mask(1, 0), 1);
    }
}
