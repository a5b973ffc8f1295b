//! The chip-level memory experiment: N patches idling together under
//! chip-coordinate cosmic-ray strikes.
//!
//! A *chip shot* runs one memory shot per patch (the
//! [`MemoryExperiment`] kernel, one independent RNG stream per patch) and
//! fails when **any** patch suffers a logical error — the system failure
//! criterion of the paper's Secs. V/VII evaluation.  Strikes are placed in
//! chip coordinates and fanned out into per-patch regions via
//! [`ChipStrike::fan_out`], so a single burst straddling a patch boundary
//! degrades several patches of the same shot.  Sweeps run chip shots on the
//! engine through [`SweepPoint::from_chip`](crate::engine::SweepPoint::from_chip);
//! [`ChipMemoryExperiment::run_chip_shot`] also reports per-patch failures
//! and whether the shot was struck, for callers that tally those.
//!
//! Each per-patch [`MemoryExperiment`] owns a pool of persistent decoder
//! contexts (see [`q3de_decoder::ContextPool`]): a chip sweep constructs
//! decoder state once per worker thread per patch, not once per shot, and
//! the [`chip_patch_seed`] stream schedule keeps per-patch results exactly
//! reproducible regardless of which warm context decodes a given shot.

use crate::memory::{DecodingStrategy, MemoryExperiment, MemoryExperimentConfig};
use q3de_lattice::{ChipLayout, LatticeError, PatchIndex};
use q3de_noise::{AnomalousRegion, ChipStrike};
use rand::{Rng, SeedableRng};

/// How strikes are injected into the chip shots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChipStrikePolicy {
    /// No strike: every patch idles at the base error rate.
    None,
    /// The same fixed strike (chip coordinates) in every shot — the
    /// deterministic setting used by seeded regression tests.
    Fixed(ChipStrike),
    /// Each shot independently suffers a strike with the given probability,
    /// uniformly placed on the chip plane — the Monte-Carlo setting behind
    /// the `fig_system` sweep.  The placement draws from a dedicated RNG
    /// stream, so patch noise streams are identical with and without
    /// strikes.
    Random {
        /// Probability that a shot contains a strike (≈ `N·f_ano·τ_cyc·rounds`
        /// for short windows).
        probability: f64,
        /// Anomaly size `d_ano` of a sampled strike.
        size: usize,
        /// Error rate `p_ano` inside a sampled strike.
        rate: f64,
    },
}

/// Configuration of a [`ChipMemoryExperiment`].
#[derive(Debug, Clone, Copy)]
pub struct ChipMemoryExperimentConfig {
    /// Patch rows on the chip.
    pub patch_rows: usize,
    /// Patch columns on the chip.
    pub patch_cols: usize,
    /// The per-patch memory experiment (distance, rate, rounds, decoder).
    /// Its own `anomaly` field must stay `None`: chip-level strikes come in
    /// through the [`ChipStrikePolicy`].
    pub patch: MemoryExperimentConfig,
    /// The strike injection policy.
    pub strike: ChipStrikePolicy,
}

impl ChipMemoryExperimentConfig {
    /// A strike-free chip of `patch_rows × patch_cols` patches.
    pub fn new(patch_rows: usize, patch_cols: usize, patch: MemoryExperimentConfig) -> Self {
        Self {
            patch_rows,
            patch_cols,
            patch,
            strike: ChipStrikePolicy::None,
        }
    }

    /// Sets the strike policy, builder style.
    pub fn with_strike(mut self, strike: ChipStrikePolicy) -> Self {
        self.strike = strike;
        self
    }
}

/// The RNG seed of one patch's stream within one chip shot.
///
/// Exposed so N independent single-patch runs can reproduce a chip run
/// patch for patch: seeding [`MemoryExperiment::run_shot`] with
/// `chip_patch_seed(base, stream, patch)` replays exactly the stream the
/// chip experiment hands that patch in shot `stream`.
pub fn chip_patch_seed(base_seed: u64, stream: u64, patch_linear: usize) -> u64 {
    crate::shot_stream_seed(base_seed, stream)
        ^ (patch_linear as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The RNG seed of a shot's strike-placement stream (disjoint from every
/// patch stream by construction).
fn strike_seed(base_seed: u64, stream: u64) -> u64 {
    crate::shot_stream_seed(base_seed, stream) ^ 0xA076_1D64_78BD_642F
}

/// A reusable chip-level memory experiment for one parameter point.
#[derive(Debug, Clone)]
pub struct ChipMemoryExperiment {
    config: ChipMemoryExperimentConfig,
    layout: ChipLayout,
    patches: Vec<MemoryExperiment>,
    /// Per-patch fixed regions (row-major), pre-fanned-out for
    /// [`ChipStrikePolicy::Fixed`].
    fixed_regions: Vec<Vec<AnomalousRegion>>,
}

impl ChipMemoryExperiment {
    /// Builds the chip: layout plus one strike-free [`MemoryExperiment`]
    /// per patch (fixed strikes are fanned out once, up front).
    ///
    /// # Errors
    ///
    /// Returns an error if the patch grid is empty, the distance is
    /// invalid, or the patch configuration carries its own anomaly.
    pub fn new(config: ChipMemoryExperimentConfig) -> Result<Self, LatticeError> {
        if config.patch.anomaly.is_some() {
            return Err(LatticeError::InvalidChipLayout {
                reason: "chip experiments inject strikes via ChipStrikePolicy, \
                         not per-patch AnomalyInjection"
                    .into(),
            });
        }
        let layout = ChipLayout::new(
            config.patch_rows,
            config.patch_cols,
            config.patch.distance,
            0,
        )?;
        let patches: Vec<MemoryExperiment> = (0..layout.num_patches())
            .map(|_| MemoryExperiment::new(config.patch))
            .collect::<Result<_, _>>()?;
        let mut fixed_regions = vec![Vec::new(); layout.num_patches()];
        if let ChipStrikePolicy::Fixed(strike) = config.strike {
            for (patch, region) in strike.fan_out(&layout) {
                fixed_regions[layout.linear_index(patch)].push(region);
            }
        }
        Ok(Self {
            config,
            layout,
            patches,
            fixed_regions,
        })
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ChipMemoryExperimentConfig {
        &self.config
    }

    /// The chip geometry.
    pub fn layout(&self) -> &ChipLayout {
        &self.layout
    }

    /// Number of patches on the chip.
    pub fn num_patches(&self) -> usize {
        self.patches.len()
    }

    /// The per-patch experiment at a row-major linear index.
    pub fn patch(&self, linear: usize) -> &MemoryExperiment {
        &self.patches[linear]
    }

    /// The patches a fixed strike degrades (empty under other policies).
    pub fn struck_patches(&self) -> Vec<PatchIndex> {
        self.fixed_regions
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, _)| self.layout.patch_at(i))
            .collect()
    }

    /// The per-shot strike fan-out under the configured policy: `None`
    /// draws nothing, `Fixed` returns the precomputed fan-out, `Random`
    /// consumes `strike_rng` to decide and place this shot's strike.
    /// Returns one region list per patch (row-major) plus whether a strike
    /// was active.
    fn shot_regions<R: Rng + ?Sized>(
        &self,
        strike_rng: &mut R,
    ) -> (Vec<Vec<AnomalousRegion>>, bool) {
        match self.config.strike {
            ChipStrikePolicy::None => (vec![Vec::new(); self.num_patches()], false),
            ChipStrikePolicy::Fixed(_) => {
                let struck = self.fixed_regions.iter().any(|r| !r.is_empty());
                (self.fixed_regions.clone(), struck)
            }
            ChipStrikePolicy::Random {
                probability,
                size,
                rate,
            } => {
                if strike_rng.gen::<f64>() >= probability {
                    return (vec![Vec::new(); self.num_patches()], false);
                }
                // Like the single-patch AnomalyInjection, the burst covers
                // the whole shot window.
                let rounds = self.config.patch.effective_rounds() as u64;
                let strike =
                    ChipStrike::sample_uniform(&self.layout, size, 0, rounds + 1, rate, strike_rng);
                let mut regions = vec![Vec::new(); self.num_patches()];
                for (patch, region) in strike.fan_out(&self.layout) {
                    regions[self.layout.linear_index(patch)].push(region);
                }
                (regions, true)
            }
        }
    }

    /// Runs one chip shot for stream index `stream`: one memory shot per
    /// patch, each on its own [`chip_patch_seed`] RNG stream.  Returns the
    /// per-patch logical failures (row-major) and whether the shot was
    /// struck.
    pub fn run_chip_shot<R>(
        &self,
        strategy: DecodingStrategy,
        base_seed: u64,
        stream: u64,
    ) -> (Vec<bool>, bool)
    where
        R: Rng + SeedableRng,
    {
        let mut strike_rng = R::seed_from_u64(strike_seed(base_seed, stream));
        let (regions, struck) = self.shot_regions(&mut strike_rng);
        let failures = self
            .patches
            .iter()
            .enumerate()
            .map(|(i, patch)| {
                let mut rng = R::seed_from_u64(chip_patch_seed(base_seed, stream, i));
                patch
                    .run_shot_with(&regions[i], strategy, &mut rng)
                    .logical_failure
            })
            .collect();
        (failures, struck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q3de_lattice::Coord;
    use rand_chacha::ChaCha8Rng;

    /// Counts of a sequential replay of chip streams `0..shots`.
    #[derive(Debug, PartialEq, Eq)]
    struct Tally {
        chip_failures: usize,
        per_patch_failures: Vec<usize>,
        struck_shots: usize,
    }

    fn tally(
        chip: &ChipMemoryExperiment,
        shots: usize,
        strategy: DecodingStrategy,
        base_seed: u64,
    ) -> Tally {
        let mut tally = Tally {
            chip_failures: 0,
            per_patch_failures: vec![0; chip.num_patches()],
            struck_shots: 0,
        };
        for stream in 0..shots as u64 {
            let (failures, struck) = chip.run_chip_shot::<ChaCha8Rng>(strategy, base_seed, stream);
            tally.chip_failures += usize::from(failures.iter().any(|&f| f));
            for (slot, &failed) in tally.per_patch_failures.iter_mut().zip(&failures) {
                *slot += usize::from(failed);
            }
            tally.struck_shots += usize::from(struck);
        }
        tally
    }

    #[test]
    fn quiet_chip_matches_independent_single_patch_runs_exactly() {
        let patch = MemoryExperimentConfig::new(3, 2e-2);
        let chip = ChipMemoryExperiment::new(ChipMemoryExperimentConfig::new(2, 2, patch)).unwrap();
        let shots = 40usize;
        let base_seed = 0xC41Fu64;
        let estimate = tally(&chip, shots, DecodingStrategy::MbbeFree, base_seed);
        assert_eq!(estimate.struck_shots, 0);

        // Replay every patch as an independent single-patch experiment on
        // the same per-patch streams: counts must match exactly.
        let single = MemoryExperiment::new(patch).unwrap();
        for patch_i in 0..4 {
            let failures = (0..shots as u64)
                .filter(|&stream| {
                    let mut rng =
                        ChaCha8Rng::seed_from_u64(chip_patch_seed(base_seed, stream, patch_i));
                    single
                        .run_shot(DecodingStrategy::MbbeFree, &mut rng)
                        .logical_failure
                })
                .count();
            assert_eq!(
                estimate.per_patch_failures[patch_i], failures,
                "patch {patch_i}"
            );
        }
        // The chip fails whenever any patch fails, so the chip count bounds
        // every per-patch count.
        let worst_patch = estimate.per_patch_failures.iter().copied().max().unwrap();
        assert!(estimate.chip_failures >= worst_patch);
    }

    #[test]
    fn fixed_straddling_strike_degrades_both_patches() {
        let patch = MemoryExperimentConfig::new(7, 4e-3).with_rounds(14);
        // pitch 14: a size-4 burst over chip columns 7..15 covers patch 0
        // columns 7..12 and hangs into patch 1 at local columns 0.. .
        let strike = ChipStrike::new(Coord::new(3, 7), 4, 0, 100, 0.5);
        let config = ChipMemoryExperimentConfig::new(1, 2, patch)
            .with_strike(ChipStrikePolicy::Fixed(strike));
        let chip = ChipMemoryExperiment::new(config).unwrap();
        assert_eq!(
            chip.struck_patches(),
            vec![PatchIndex::new(0, 0), PatchIndex::new(0, 1)]
        );
        let shots = 60;
        let blind = tally(&chip, shots, DecodingStrategy::Blind, 3);
        let free = tally(&chip, shots, DecodingStrategy::MbbeFree, 3);
        assert_eq!(blind.struck_shots, shots);
        // struck_shots reports the policy, not the strategy: MbbeFree shots
        // are struck too, they just decode as if the regions were absent.
        assert_eq!(free.struck_shots, shots);
        assert!(
            blind.chip_failures > free.chip_failures,
            "a straddling burst must raise the chip failure count \
             (blind {} vs free {} of {shots})",
            blind.chip_failures,
            free.chip_failures
        );
        // Both struck patches individually degrade relative to their
        // strike-free selves.
        for i in 0..2 {
            assert!(
                blind.per_patch_failures[i] >= free.per_patch_failures[i],
                "patch {i}: blind {} < free {}",
                blind.per_patch_failures[i],
                free.per_patch_failures[i]
            );
        }
    }

    #[test]
    fn random_strikes_hit_roughly_the_configured_fraction_of_shots() {
        let patch = MemoryExperimentConfig::new(3, 1e-3);
        let config =
            ChipMemoryExperimentConfig::new(2, 2, patch).with_strike(ChipStrikePolicy::Random {
                probability: 0.5,
                size: 2,
                rate: 0.5,
            });
        let chip = ChipMemoryExperiment::new(config).unwrap();
        let estimate = tally(&chip, 200, DecodingStrategy::Blind, 11);
        // Binomial(200, 0.5): 3σ ≈ 21.
        assert!(
            (estimate.struck_shots as i64 - 100).abs() < 25,
            "struck {} of 200 shots",
            estimate.struck_shots
        );
        // Determinism: same seed, same tally.
        assert_eq!(estimate, tally(&chip, 200, DecodingStrategy::Blind, 11));
    }

    #[test]
    fn per_patch_anomaly_config_is_rejected() {
        use crate::memory::AnomalyInjection;
        let patch =
            MemoryExperimentConfig::new(3, 1e-3).with_anomaly(AnomalyInjection::centered(1, 0.5));
        assert!(ChipMemoryExperiment::new(ChipMemoryExperimentConfig::new(1, 1, patch)).is_err());
    }
}
