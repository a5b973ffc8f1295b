//! The d-cycle idling (memory) experiment.

use q3de_decoder::{
    graph_key, ContextPool, DecoderConfig, MatcherKind, SyndromeHistory, WeightModel,
};
use q3de_lattice::{Coord, ErrorKind, LatticeError, MatchingGraph, SurfaceCode};
use q3de_noise::{AnomalousRegion, NoiseModel};
use rand::{Rng, SeedableRng};

/// How the decoder is driven in a memory shot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodingStrategy {
    /// No anomalous region is injected at all (the solid "MBBE free" curves).
    MbbeFree,
    /// The anomalous region is injected but the decoder keeps uniform
    /// weights — the paper's "without rollback" curves.
    Blind,
    /// The anomalous region is injected and the decoder re-executes with
    /// anomaly-aware weights — the paper's "with rollback" curves.
    AnomalyAware,
}

/// Description of the anomalous region injected into a memory shot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyInjection {
    /// Anomaly size `d_ano` in data-qubit units.
    pub size: usize,
    /// Physical error rate `p_ano` inside the region.
    pub rate: f64,
    /// Top-left grid site of the region; `None` centres it on the patch.
    pub origin: Option<Coord>,
}

impl AnomalyInjection {
    /// The paper's default burst: `d_ano = 4`, `p_ano = 0.5`, centred.
    pub fn mcewen_default() -> Self {
        Self {
            size: 4,
            rate: 0.5,
            origin: None,
        }
    }

    /// A centred burst of the given size and rate.
    pub fn centered(size: usize, rate: f64) -> Self {
        Self {
            size,
            rate,
            origin: None,
        }
    }
}

/// Configuration of a memory experiment.
#[derive(Debug, Clone, Copy)]
pub struct MemoryExperimentConfig {
    /// Code distance `d`.
    pub distance: usize,
    /// Number of noisy syndrome-extraction rounds (the paper idles for `d`
    /// cycles; `None` uses `distance`).
    pub rounds: Option<usize>,
    /// Physical error rate `p` of normal qubits per code cycle.
    pub physical_error_rate: f64,
    /// The anomalous region to inject, if any.
    pub anomaly: Option<AnomalyInjection>,
    /// Decoder configuration.
    pub decoder: DecoderConfig,
}

impl MemoryExperimentConfig {
    /// A configuration with `rounds = d`, no anomaly, default decoder.
    pub fn new(distance: usize, physical_error_rate: f64) -> Self {
        Self {
            distance,
            rounds: None,
            physical_error_rate,
            anomaly: None,
            decoder: DecoderConfig::default(),
        }
    }

    /// Adds an anomaly injection, builder style.
    pub fn with_anomaly(mut self, anomaly: AnomalyInjection) -> Self {
        self.anomaly = Some(anomaly);
        self
    }

    /// Overrides the number of noisy rounds, builder style.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = Some(rounds);
        self
    }

    /// Selects the matching backend the decoder uses, builder style.
    pub fn with_matcher(mut self, matcher: MatcherKind) -> Self {
        self.decoder.matcher = matcher;
        self
    }

    /// The effective number of noisy rounds.
    pub fn effective_rounds(&self) -> usize {
        self.rounds.unwrap_or(self.distance)
    }
}

/// Result of a single memory shot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotOutcome {
    /// Whether the shot ended in a logical `X` error.
    pub logical_failure: bool,
    /// Number of detection events that had to be matched.
    pub num_detection_events: usize,
}

/// Aggregated Monte-Carlo estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateResult {
    /// Number of shots simulated.
    pub shots: usize,
    /// Number of shots that failed logically.
    pub failures: usize,
    /// Number of noisy rounds per shot.
    pub rounds: usize,
}

impl EstimateResult {
    /// Logical error rate per shot (per `rounds` code cycles).
    pub fn logical_error_rate(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.failures as f64 / self.shots as f64
    }

    /// Logical error rate per code cycle,
    /// `1 − (1 − p_shot)^(1/rounds)` ≈ `p_shot / rounds`.
    pub fn logical_error_rate_per_cycle(&self) -> f64 {
        let per_shot = self.logical_error_rate().min(1.0 - 1e-15);
        1.0 - (1.0 - per_shot).powf(1.0 / self.rounds as f64)
    }

    /// Standard error of the per-shot estimate (binomial).
    pub fn standard_error(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let p = self.logical_error_rate();
        (p * (1.0 - p) / self.shots as f64).sqrt()
    }
}

/// Derives the RNG seed of global shot stream `stream` from a sweep-level
/// `base_seed` (golden-ratio mixing).
///
/// This is *the* seed schedule of the whole stack:
/// [`MemoryExperiment::run_stream`], the chip experiment's per-patch
/// streams, the packed batch's group streams and therefore every sweep
/// point, checkpoint and shard plan derive per-shot RNGs through it, so a
/// `(base_seed, stream)` pair identifies the same shot everywhere.
pub fn shot_stream_seed(base_seed: u64, stream: u64) -> u64 {
    base_seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A reusable memory-experiment simulator for one parameter point.
///
/// The experiment owns a [`ContextPool`]: every shot checks a warm
/// [`q3de_decoder::DecoderContext`] out (the cached space-time graph and
/// backend scratch survive across all shots of a sweep point), so decoder
/// state is constructed once per concurrently decoding worker, not once
/// per shot.  Cloning the experiment starts a fresh, cold pool.
#[derive(Debug, Clone)]
pub struct MemoryExperiment {
    config: MemoryExperimentConfig,
    code: SurfaceCode,
    graph: MatchingGraph,
    region: Option<AnomalousRegion>,
    decoders: ContextPool,
}

impl MemoryExperiment {
    /// Builds the simulator (code geometry, matching graph and anomalous
    /// region) for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the code distance is invalid.
    pub fn new(config: MemoryExperimentConfig) -> Result<Self, LatticeError> {
        let code = SurfaceCode::new(config.distance)?;
        let graph = code.matching_graph(ErrorKind::X);
        let rounds = config.effective_rounds();
        let region = config.anomaly.map(|a| {
            let origin = a.origin.unwrap_or_else(|| {
                // centre the 2·size × 2·size region on the patch
                let mid = code.grid_size() / 2;
                let half = a.size as i32;
                Coord::new((mid - half).max(0), (mid - half).max(0))
            });
            // the burst lasts for the whole experiment window
            AnomalousRegion::new(origin, a.size, 0, rounds as u64 + 1, a.rate)
        });
        Ok(Self {
            config,
            code,
            graph,
            region,
            decoders: ContextPool::new(config.decoder),
        })
    }

    /// The experiment configuration.
    pub fn config(&self) -> &MemoryExperimentConfig {
        &self.config
    }

    /// The surface code being simulated.
    pub fn code(&self) -> &SurfaceCode {
        &self.code
    }

    /// The injected anomalous region, if any.
    pub fn region(&self) -> Option<&AnomalousRegion> {
        self.region.as_ref()
    }

    /// The X-sector matching graph the experiment samples and decodes over.
    pub(crate) fn graph(&self) -> &MatchingGraph {
        &self.graph
    }

    /// The noise model a shot with the given strategy experiences.
    pub fn noise_model(&self, strategy: DecodingStrategy) -> NoiseModel {
        self.noise_model_with(self.region.as_slice(), strategy)
    }

    /// The weight model the decoder uses under the given strategy.
    pub fn weight_model(&self, strategy: DecodingStrategy) -> WeightModel {
        self.weight_model_with(self.region.as_slice(), strategy)
    }

    /// The noise model of a shot with explicit anomalous `regions`:
    /// `MbbeFree` ignores them, the other strategies inject them.
    fn noise_model_with(
        &self,
        regions: &[AnomalousRegion],
        strategy: DecodingStrategy,
    ) -> NoiseModel {
        let mut model = NoiseModel::uniform(self.config.physical_error_rate);
        if strategy != DecodingStrategy::MbbeFree {
            for &region in regions {
                model.add_anomaly(region);
            }
        }
        model
    }

    /// The weight model of a shot with explicit anomalous `regions`: only
    /// `AnomalyAware` with at least one region re-weights the decoder.
    fn weight_model_with(
        &self,
        regions: &[AnomalousRegion],
        strategy: DecodingStrategy,
    ) -> WeightModel {
        match strategy {
            DecodingStrategy::AnomalyAware if !regions.is_empty() => {
                WeightModel::anomaly_aware(self.config.physical_error_rate, regions.to_vec(), 0)
            }
            _ => WeightModel::uniform(self.config.physical_error_rate),
        }
    }

    /// Samples one shot's syndrome stream — `rounds` noisy
    /// syndrome-extraction layers followed by a final perfect readout layer
    /// — and the actual logical cut parity of the accumulated error, without
    /// decoding.
    ///
    /// This is *the* syndrome-sampling kernel: [`MemoryExperiment::run_shot`]
    /// decodes exactly what it returns, and the differential tests, the
    /// `perf_smoke` decode kernels and the decode-service window streams
    /// sample through it too, so the RNG call order (data qubits in edge
    /// order, then one ancilla draw per node, per round) can never silently
    /// diverge between simulator, tests and timing harnesses.
    pub fn sample_history<R: Rng + ?Sized>(
        &self,
        strategy: DecodingStrategy,
        rng: &mut R,
    ) -> (SyndromeHistory, bool) {
        self.sample_history_with(&self.noise_model(strategy), rng)
    }

    /// Samples one shot's syndrome stream under an explicit noise model —
    /// the kernel behind [`MemoryExperiment::sample_history`], exposed so
    /// chip-level experiments can inject per-shot anomalous regions (e.g. a
    /// randomly placed strike fan-out) without rebuilding the experiment.
    ///
    /// The RNG call order is identical to [`MemoryExperiment::sample_history`]
    /// for *every* noise model — each qubit consumes exactly one uniform
    /// draw per cycle regardless of its rate — so per-patch streams stay
    /// reproducible across the single-patch and chip paths.
    pub fn sample_history_with<R: Rng + ?Sized>(
        &self,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> (SyndromeHistory, bool) {
        let rounds = self.config.effective_rounds();
        let n = self.graph.num_nodes();

        // cumulative X-component flips per data qubit (edge of the X graph)
        let mut flipped = vec![false; self.graph.num_edges()];
        let mut history = SyndromeHistory::new(n);

        for t in 0..rounds {
            // data-qubit errors at the beginning of the cycle
            for (edge_index, edge) in self.graph.edges().iter().enumerate() {
                let pauli = noise.sample_pauli(edge.qubit, t as u64, rng);
                if pauli.has_x_component() {
                    flipped[edge_index] = !flipped[edge_index];
                }
            }
            // syndrome extraction with ancilla (measurement) errors,
            // written straight into the history's flat layer storage
            let layer = history.push_blank_layer();
            for (node, slot) in layer.iter_mut().enumerate() {
                let mut parity = false;
                for &e in self.graph.incident_edges(node) {
                    if flipped[e] {
                        parity = !parity;
                    }
                }
                let ancilla_error = noise.sample_pauli(self.graph.node(node), t as u64, rng);
                if ancilla_error.has_x_component() {
                    parity = !parity;
                }
                *slot = parity;
            }
        }

        // final perfect readout layer
        let final_layer = history.push_blank_layer();
        for (node, slot) in final_layer.iter_mut().enumerate() {
            let mut parity = false;
            for &e in self.graph.incident_edges(node) {
                if flipped[e] {
                    parity = !parity;
                }
            }
            *slot = parity;
        }

        // actual logical parity of the accumulated error
        let error_cut_parity = self
            .graph
            .cut_edges()
            .iter()
            .filter(|&&e| flipped[e])
            .count()
            % 2
            == 1;
        (history, error_cut_parity)
    }

    /// Runs a single memory shot: [`MemoryExperiment::run_shot_with`] on
    /// the configured region.
    pub fn run_shot<R: Rng + ?Sized>(
        &self,
        strategy: DecodingStrategy,
        rng: &mut R,
    ) -> ShotOutcome {
        self.run_shot_with(self.region.as_slice(), strategy, rng)
    }

    /// Runs a single memory shot with explicit anomalous regions instead of
    /// the configured [`AnomalyInjection`] — the chip-level entry point: a
    /// cosmic-ray strike fanned out in chip coordinates hands each patch the
    /// regions that overlap it (possibly none, possibly hanging off the
    /// patch edge).
    ///
    /// Strategy semantics mirror [`MemoryExperiment::run_shot`]:
    /// `MbbeFree` ignores `regions` entirely, `Blind` injects them into the
    /// noise but decodes with uniform weights, `AnomalyAware` injects them
    /// and re-weights the decoder.
    pub fn run_shot_with<R: Rng + ?Sized>(
        &self,
        regions: &[AnomalousRegion],
        strategy: DecodingStrategy,
        rng: &mut R,
    ) -> ShotOutcome {
        let noise = self.noise_model_with(regions, strategy);
        let weights = self.weight_model_with(regions, strategy);
        let (history, error_cut_parity) = self.sample_history_with(&noise, rng);
        let key = graph_key(&self.graph, history.num_layers());
        let outcome = self.decoders.with(key, |context| {
            context.decode(&self.graph, &history, &weights)
        });
        ShotOutcome {
            logical_failure: outcome.is_logical_failure(error_cut_parity),
            num_detection_events: outcome.num_events(),
        }
    }

    /// Monte-Carlo estimate of the logical error rate over `shots` shots.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        shots: usize,
        strategy: DecodingStrategy,
        rng: &mut R,
    ) -> EstimateResult {
        let failures = (0..shots)
            .filter(|_| self.run_shot(strategy, rng).logical_failure)
            .count();
        EstimateResult {
            shots,
            failures,
            rounds: self.config.effective_rounds(),
        }
    }

    /// Runs the shot of global stream index `stream`: a fresh RNG of type
    /// `R` is seeded from [`shot_stream_seed`]`(base_seed, stream)` and
    /// handed to [`MemoryExperiment::run_shot`].
    ///
    /// This is the kernel behind the sweep engine's
    /// [`SweepPoint::from_memory`](crate::engine::SweepPoint::from_memory):
    /// the stream set `0..shots` defines the estimate, so a sequential
    /// replay of it and any sweep run — on any thread count, shard plan or
    /// adaptive batch schedule — reproduce the same failure count.
    pub fn run_stream<R>(
        &self,
        strategy: DecodingStrategy,
        base_seed: u64,
        stream: u64,
    ) -> ShotOutcome
    where
        R: Rng + SeedableRng,
    {
        let mut rng = R::seed_from_u64(shot_stream_seed(base_seed, stream));
        self.run_shot(strategy, &mut rng)
    }

    /// Builds the bit-packed batch kernel for this experiment: 64 shots per
    /// machine word, sampled with its own group-level RNG discipline (see
    /// [`crate::PackedShotBatch`]).  The batch owns a clone of the
    /// experiment, so the scalar path and its warm decoder pool are
    /// untouched.
    pub fn packed<R>(&self, strategy: DecodingStrategy, base_seed: u64) -> crate::PackedShotBatch<R>
    where
        R: Rng + SeedableRng,
    {
        crate::PackedShotBatch::new(self.clone(), strategy, base_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn zero_noise_never_fails() {
        let exp = MemoryExperiment::new(MemoryExperimentConfig::new(3, 0.0)).unwrap();
        let mut r = rng(1);
        let est = exp.estimate(50, DecodingStrategy::MbbeFree, &mut r);
        assert_eq!(est.failures, 0);
        assert_eq!(est.logical_error_rate(), 0.0);
        assert_eq!(est.logical_error_rate_per_cycle(), 0.0);
    }

    #[test]
    fn shot_reports_detection_events() {
        let exp = MemoryExperiment::new(MemoryExperimentConfig::new(3, 0.05)).unwrap();
        let mut r = rng(2);
        let mut total_events = 0;
        for _ in 0..20 {
            total_events += exp
                .run_shot(DecodingStrategy::MbbeFree, &mut r)
                .num_detection_events;
        }
        assert!(total_events > 0, "5 % noise must produce detection events");
    }

    #[test]
    fn larger_distance_reduces_logical_error_rate_below_threshold() {
        // p = 0.8 % is far below the ~3 % threshold, so d = 5 must beat d = 3.
        let shots = 400;
        let p = 8e-3;
        let small = MemoryExperiment::new(MemoryExperimentConfig::new(3, p)).unwrap();
        let large = MemoryExperiment::new(MemoryExperimentConfig::new(5, p)).unwrap();
        let e_small = small.estimate(shots, DecodingStrategy::MbbeFree, &mut rng(3));
        let e_large = large.estimate(shots, DecodingStrategy::MbbeFree, &mut rng(4));
        assert!(
            e_large.logical_error_rate() <= e_small.logical_error_rate(),
            "d=5 ({}) should not be worse than d=3 ({})",
            e_large.logical_error_rate(),
            e_small.logical_error_rate()
        );
    }

    #[test]
    fn mbbe_increases_the_logical_error_rate() {
        let shots = 300;
        let p = 5e-3;
        let config =
            MemoryExperimentConfig::new(5, p).with_anomaly(AnomalyInjection::centered(2, 0.5));
        let exp = MemoryExperiment::new(config).unwrap();
        let free = exp.estimate(shots, DecodingStrategy::MbbeFree, &mut rng(5));
        let burst = exp.estimate(shots, DecodingStrategy::Blind, &mut rng(6));
        assert!(
            burst.logical_error_rate() > free.logical_error_rate(),
            "burst {} must exceed MBBE-free {}",
            burst.logical_error_rate(),
            free.logical_error_rate()
        );
    }

    #[test]
    fn anomaly_aware_decoding_not_worse_than_blind() {
        let shots = 300;
        let p = 5e-3;
        let config =
            MemoryExperimentConfig::new(5, p).with_anomaly(AnomalyInjection::centered(2, 0.5));
        let exp = MemoryExperiment::new(config).unwrap();
        let blind = exp.estimate(shots, DecodingStrategy::Blind, &mut rng(7));
        let aware = exp.estimate(shots, DecodingStrategy::AnomalyAware, &mut rng(7));
        assert!(
            aware.logical_error_rate() <= blind.logical_error_rate() + 0.05,
            "aware {} should not be much worse than blind {}",
            aware.logical_error_rate(),
            blind.logical_error_rate()
        );
    }

    #[test]
    fn estimate_rates_and_standard_error() {
        let est = EstimateResult {
            shots: 400,
            failures: 30,
            rounds: 5,
        };
        assert!((est.logical_error_rate() - 0.075).abs() < 1e-12);
        // sqrt(0.075 · 0.925 / 400)
        assert!((est.standard_error() - 0.013_169_57).abs() < 1e-7);
        assert!(est.standard_error() > 0.0 && est.standard_error() < 0.05);
        // 1 − 0.925^(1/5), the per-cycle rate Eq. (1) reads
        assert!((est.logical_error_rate_per_cycle() - 0.015_471_38).abs() < 1e-7);
        assert!(est.logical_error_rate_per_cycle() < est.logical_error_rate());
        let empty = EstimateResult {
            shots: 0,
            failures: 0,
            rounds: 5,
        };
        assert_eq!(empty.logical_error_rate(), 0.0);
        assert_eq!(empty.standard_error(), 0.0);
    }

    #[test]
    fn zero_base_rate_replays_identically_with_an_active_anomaly() {
        // Regression test for the rate-dependent draw-order bug: a
        // zero-rate qubit must still consume its per-cycle draw, so the
        // anomalous qubits land on the same stream positions whether the
        // base rate is 0 or (negligibly) positive.
        let anomaly = AnomalyInjection::centered(2, 0.5);
        let zero = MemoryExperiment::new(MemoryExperimentConfig::new(5, 0.0).with_anomaly(anomaly))
            .unwrap();
        let tiny =
            MemoryExperiment::new(MemoryExperimentConfig::new(5, 1e-12).with_anomaly(anomaly))
                .unwrap();
        for seed in 0..20u64 {
            let (hz, pz) = zero.sample_history(DecodingStrategy::Blind, &mut rng(seed));
            let (ht, pt) = tiny.sample_history(DecodingStrategy::Blind, &mut rng(seed));
            assert_eq!(hz, ht, "seed {seed}: histories must stay stream-aligned");
            assert_eq!(pz, pt, "seed {seed}");
            // the chip-path replay decodes the same shot bit-identically
            let a = zero.run_shot(DecodingStrategy::Blind, &mut rng(seed));
            let b = zero.run_shot_with(
                &[*zero.region().unwrap()],
                DecodingStrategy::Blind,
                &mut rng(seed),
            );
            assert_eq!(a, b, "seed {seed}");
        }
        // the burst is the only noise source, and it must actually fire
        let events: usize = (0..20u64)
            .map(|seed| {
                zero.sample_history(DecodingStrategy::Blind, &mut rng(seed))
                    .0
                    .num_detection_events()
            })
            .sum();
        assert!(
            events > 0,
            "a p_ano = 0.5 burst at p = 0 must produce events"
        );
    }

    #[test]
    fn region_is_centered_by_default() {
        let config =
            MemoryExperimentConfig::new(9, 1e-3).with_anomaly(AnomalyInjection::mcewen_default());
        let exp = MemoryExperiment::new(config).unwrap();
        let region = exp.region().unwrap();
        let grid = exp.code().grid_size();
        let center = region.center();
        assert!((center.row - grid / 2).abs() <= 1);
        assert!((center.col - grid / 2).abs() <= 1);
        assert_eq!(region.size(), 4);
        assert_eq!(region.anomalous_rate(), 0.5);
    }

    #[test]
    fn invalid_distance_is_rejected() {
        assert!(MemoryExperiment::new(MemoryExperimentConfig::new(1, 1e-3)).is_err());
    }

    #[test]
    fn matcher_backend_can_be_selected() {
        let config = MemoryExperimentConfig::new(3, 1e-2).with_matcher(MatcherKind::UnionFind);
        assert_eq!(config.decoder.matcher, MatcherKind::UnionFind);
        let exp = MemoryExperiment::new(config).unwrap();
        let est = exp.estimate(30, DecodingStrategy::MbbeFree, &mut rng(11));
        assert_eq!(est.shots, 30);
        assert!(est.logical_error_rate() <= 1.0);
    }

    #[test]
    fn stream_seed_schedule_is_pinned() {
        // Every checkpoint, shard plan and stored benchmark reference names
        // shots by (base_seed, stream) through this formula: changing it
        // silently changes every published number.
        assert_eq!(shot_stream_seed(0, 0), 0);
        assert_eq!(shot_stream_seed(0, 1), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(shot_stream_seed(0xC0DE, 2), 0x3C6E_F372_FE94_38F4);
        assert_eq!(shot_stream_seed(7, 1 << 63), 0x8000_0000_0000_0007);
        assert_eq!(shot_stream_seed(u64::MAX, 1), 0x61C8_8646_80B5_83EA);

        // run_stream(s) is run_shot on a ChaCha8 stream seeded by it.
        let exp = MemoryExperiment::new(MemoryExperimentConfig::new(3, 2e-2)).unwrap();
        let base_seed = 0xC0DEu64;
        let mut failures = 0;
        for stream in 0..80u64 {
            let mut rng =
                ChaCha8Rng::seed_from_u64(base_seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let expected = exp.run_shot(DecodingStrategy::MbbeFree, &mut rng);
            let outcome =
                exp.run_stream::<ChaCha8Rng>(DecodingStrategy::MbbeFree, base_seed, stream);
            assert_eq!(outcome, expected, "stream {stream}");
            failures += usize::from(outcome.logical_failure);
        }
        assert!(failures > 0, "the replay must cover a failing stream");
    }

    #[test]
    fn run_shot_with_matches_run_shot_on_the_configured_region() {
        let config =
            MemoryExperimentConfig::new(5, 5e-3).with_anomaly(AnomalyInjection::centered(2, 0.5));
        let exp = MemoryExperiment::new(config).unwrap();
        let regions = [*exp.region().unwrap()];
        for strategy in [
            DecodingStrategy::MbbeFree,
            DecodingStrategy::Blind,
            DecodingStrategy::AnomalyAware,
        ] {
            for seed in 0..10u64 {
                let a = exp.run_shot(strategy, &mut rng(seed));
                let b = exp.run_shot_with(&regions, strategy, &mut rng(seed));
                assert_eq!(a, b, "{strategy:?} seed {seed}");
            }
        }
        // With no regions every strategy reduces to the MBBE-free shot.
        for seed in 0..10u64 {
            let free = exp.run_shot(DecodingStrategy::MbbeFree, &mut rng(seed));
            let empty = exp.run_shot_with(&[], DecodingStrategy::AnomalyAware, &mut rng(seed));
            assert_eq!(free, empty, "seed {seed}");
        }
    }

    #[test]
    fn weight_model_matches_strategy() {
        let config =
            MemoryExperimentConfig::new(5, 1e-3).with_anomaly(AnomalyInjection::centered(2, 0.5));
        let exp = MemoryExperiment::new(config).unwrap();
        assert!(!exp.weight_model(DecodingStrategy::Blind).is_anomaly_aware());
        assert!(exp
            .weight_model(DecodingStrategy::AnomalyAware)
            .is_anomaly_aware());
        assert!(!exp
            .weight_model(DecodingStrategy::MbbeFree)
            .is_anomaly_aware());
        // noise models: MBBE-free has no regions, the others have one
        assert!(exp
            .noise_model(DecodingStrategy::MbbeFree)
            .anomalies()
            .is_empty());
        assert_eq!(
            exp.noise_model(DecodingStrategy::Blind).anomalies().len(),
            1
        );
    }
}
