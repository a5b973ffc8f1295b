//! Named sweep registry: rebuildable point sets for the distributed fabric.
//!
//! A `q3de-sweepd` worker holds only a plan file — pure data (point ids and
//! schedule parameters), no kernels.  To run its shard it must rebuild the
//! *identical* kernels the planner used; this registry maps a sweep name
//! plus the engine arguments (seed, matcher) to that point list,
//! deterministically.  The figure binaries build their grids through the
//! same functions, so each figure's point set has exactly one definition —
//! a `fig3` sweep sharded over three machines and the `fig3` binary on a
//! laptop run the same streams.

use q3de::sim::engine::SweepPoint;
use q3de::sim::{AnomalyInjection, DecodingStrategy, MemoryExperimentConfig};
use rand_chacha::ChaCha8Rng;

use crate::EngineArgs;

/// The sweep names [`build`] understands.
pub const NAMES: &[&str] = &["fig3", "fig8"];

/// Builds the named sweep's full point list from the engine arguments.
/// Returns `None` for a name not in [`NAMES`].
pub fn build(name: &str, args: &EngineArgs) -> Option<Vec<SweepPoint>> {
    match name {
        "fig3" => Some(fig3_cells().iter().map(|c| fig3_point(c, args)).collect()),
        "fig8" => Some(fig8_points(args)),
        _ => None,
    }
}

/// The distances of the fig3 grid.
pub const FIG3_DISTANCES: [usize; 3] = [5, 9, 13];
/// The physical error rates of the fig3 grid.
pub const FIG3_ERROR_RATES: [f64; 6] = [4e-3, 8e-3, 1.6e-2, 2.4e-2, 3.2e-2, 4e-2];

/// One cell of the fig3 grid: a (distance, curve, error-rate) combination.
#[derive(Debug, Clone)]
pub struct Fig3Cell {
    /// Code distance.
    pub d: usize,
    /// Whether the cell injects an MBBE (`d_ano = 4`, `p_ano = 0.5`).
    pub mbbe: bool,
    /// Physical error rate.
    pub p: f64,
    /// Stream-seed salt (matches the pre-engine layout, so fixed-seed
    /// statistics are stable across refactors).
    pub salt: u64,
    /// The sweep point id.
    pub id: String,
}

/// The fig3 grid, in sweep order.
pub fn fig3_cells() -> Vec<Fig3Cell> {
    let mut cells = Vec::new();
    for &d in &FIG3_DISTANCES {
        for mbbe in [false, true] {
            for (pi, &p) in FIG3_ERROR_RATES.iter().enumerate() {
                cells.push(Fig3Cell {
                    d,
                    mbbe,
                    p,
                    salt: (d * 100 + pi) as u64,
                    id: format!("fig3/d={d}/mbbe={mbbe}/p={p:e}"),
                });
            }
        }
    }
    cells
}

/// The sweep point of one fig3 cell.
pub fn fig3_point(cell: &Fig3Cell, args: &EngineArgs) -> SweepPoint {
    let mut config = MemoryExperimentConfig::new(cell.d, cell.p).with_matcher(args.matcher);
    let strategy = if cell.mbbe {
        config = config.with_anomaly(AnomalyInjection::centered(4, 0.5));
        DecodingStrategy::Blind
    } else {
        DecodingStrategy::MbbeFree
    };
    SweepPoint::from_memory::<ChaCha8Rng>(&cell.id, config, strategy, args.stream_seed(cell.salt))
        .expect("valid distance")
}

/// The distances of the fig8 grid.
pub const FIG8_DISTANCES: [usize; 3] = [5, 7, 9];
/// The physical error rates of the fig8 grid.
pub const FIG8_ERROR_RATES: [f64; 4] = [4e-3, 1e-2, 2e-2, 4e-2];
/// The injected anomaly sizes of the fig8 grid.
pub const FIG8_ANOMALY_SIZES: [usize; 2] = [2, 4];

/// Id of a fig8 curve cell.
pub fn fig8_curve_id(dano: usize, d: usize, p: f64, strategy: DecodingStrategy) -> String {
    format!(
        "fig8/dano={dano}/d={d}/p={p:e}/{}",
        fig8_strategy_name(strategy)
    )
}

/// Id of a fig8 Eq. (4) input cell.
pub fn fig8_eq4_id(dano: usize, d: usize, strategy: DecodingStrategy) -> String {
    format!(
        "fig8/eq4/dano={dano}/d={d}/{}",
        fig8_strategy_name(strategy)
    )
}

/// Short name of a decoding strategy within fig8 ids.
pub fn fig8_strategy_name(strategy: DecodingStrategy) -> &'static str {
    match strategy {
        DecodingStrategy::MbbeFree => "free",
        DecodingStrategy::Blind => "blind",
        DecodingStrategy::AnomalyAware => "rollback",
    }
}

/// The fig8 grid: three curves per (d_ano, d, p) cell plus the Eq. (4)
/// inputs, in sweep order.
pub fn fig8_points(args: &EngineArgs) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    let memory_point = |id: &str, d: usize, p: f64, dano: usize, strategy, salt: u64| {
        let mut config = MemoryExperimentConfig::new(d, p).with_matcher(args.matcher);
        if strategy != DecodingStrategy::MbbeFree {
            config = config.with_anomaly(AnomalyInjection::centered(dano, 0.5));
        }
        SweepPoint::from_memory::<ChaCha8Rng>(id, config, strategy, args.stream_seed(salt))
            .expect("valid distance")
    };
    for &dano in &FIG8_ANOMALY_SIZES {
        for &d in &FIG8_DISTANCES {
            for (pi, &p) in FIG8_ERROR_RATES.iter().enumerate() {
                // stride-4 salts: stream_seed is additive in the salt, so a
                // unit stride would alias one strategy's streams with its
                // neighbour data point's
                let salt = 4 * (dano * 1000 + d * 10 + pi) as u64;
                for (k, strategy) in [
                    DecodingStrategy::MbbeFree,
                    DecodingStrategy::Blind,
                    DecodingStrategy::AnomalyAware,
                ]
                .into_iter()
                .enumerate()
                {
                    // The MBBE-free curve carries no anomaly, so it is the
                    // same point for both dano values — but it keeps its own
                    // streams (as before the engine migration) for identical
                    // fixed-seed statistics.
                    points.push(memory_point(
                        &fig8_curve_id(dano, d, p, strategy),
                        d,
                        p,
                        dano,
                        strategy,
                        salt + k as u64,
                    ));
                }
            }
        }
        // Eq. (4) inputs at the lowest error rate: disjoint stride-4 salt
        // block, offset past the row salts and folded over dano so no two
        // estimates share a stream.
        let p = FIG8_ERROR_RATES[0];
        let eq4_salt = |dist: usize, k: u64| 4 * (50_000 + dano as u64 * 1_000 + dist as u64) + k;
        for &d in &FIG8_DISTANCES[1..] {
            points.push(memory_point(
                &fig8_eq4_id(dano, d, DecodingStrategy::MbbeFree),
                d,
                p,
                dano,
                DecodingStrategy::MbbeFree,
                eq4_salt(d, 0),
            ));
            let id_dm2 = format!("fig8/eq4/dano={dano}/d={}/free-ref", d - 2);
            points.push(memory_point(
                &id_dm2,
                d - 2,
                p,
                dano,
                DecodingStrategy::MbbeFree,
                eq4_salt(d - 2, 1),
            ));
            points.push(memory_point(
                &fig8_eq4_id(dano, d, DecodingStrategy::Blind),
                d,
                p,
                dano,
                DecodingStrategy::Blind,
                eq4_salt(d, 2),
            ));
            points.push(memory_point(
                &fig8_eq4_id(dano, d, DecodingStrategy::AnomalyAware),
                d,
                p,
                dano,
                DecodingStrategy::AnomalyAware,
                eq4_salt(d, 3),
            ));
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use q3de::matching::MatcherKind;

    fn args() -> EngineArgs {
        EngineArgs {
            samples: 100,
            seed: 1,
            json: false,
            matcher: MatcherKind::default(),
            threads: None,
            target_rse: None,
            checkpoint: None,
            resume: false,
            report: None,
        }
    }

    #[test]
    fn every_registered_name_builds_a_nonempty_grid() {
        for &name in NAMES {
            let points = build(name, &args()).expect("registered");
            assert!(!points.is_empty(), "{name} built no points");
            let mut ids: Vec<&str> = points.iter().map(|p| p.id()).collect();
            let total = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), total, "{name} has duplicate point ids");
        }
        assert!(build("not-a-sweep", &args()).is_none());
    }

    #[test]
    fn fig3_cells_match_their_points() {
        let cells = fig3_cells();
        let points = build("fig3", &args()).unwrap();
        assert_eq!(cells.len(), points.len());
        for (cell, point) in cells.iter().zip(&points) {
            assert_eq!(cell.id, point.id());
        }
        assert_eq!(
            cells.len(),
            FIG3_DISTANCES.len() * 2 * FIG3_ERROR_RATES.len()
        );
    }
}
