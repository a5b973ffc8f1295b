//! Threshold study: logical error rate vs MBBE burst rate for
//! d ∈ {3..21}, decoded without expansion (burst-blind) and with Q3DE
//! expansion (anomaly-aware rollback) — the paper's headline claim as a
//! crossing-point estimate per policy.
//!
//! For each decoding policy the binary sweeps every distance over a grid of
//! burst rates at a fixed sub-threshold background error rate.  Below the
//! policy's threshold a larger distance gives a lower logical error rate;
//! the burst rate at which adjacent-distance curves cross is the threshold
//! estimate.  Without expansion the burst defeats the larger codes early;
//! with Q3DE expansion the distance ordering should persist to much higher
//! burst rates (the paper's recovery claim).
//!
//! The sweep runs on the shared adaptive engine, so `--target-rse`,
//! `--checkpoint`/`--resume` and `--report` all work; distances d > 13 are
//! tractable because the default alternating-tree backend decodes exactly
//! on the sparse graph, with no dense per-cluster solves.
//! After the sweep the binary re-parses the engine's own JSON report and
//! validates it (every cell present, Wilson bounds ordered and bracketing
//! the point estimate), exiting 3 on any violation — CI runs this
//! self-validation on the pinned-seed smoke sweep.
//!
//! Run with `--help` for the full flag set (`--distances 3,5,...` narrows
//! the distance sweep for smoke runs).

use q3de::sim::engine::json::{check_schema_version, JsonValue};
use q3de::sim::engine::{SweepPoint, SweepReport, REPORT_SCHEMA_VERSION};
use q3de::sim::{AnomalyInjection, DecodingStrategy, MemoryExperimentConfig};
use q3de_bench::{sci, Cli, ExtraValues};
use rand_chacha::ChaCha8Rng;

/// Background physical error rate: comfortably below the bulk threshold, so
/// distance helps whenever the decoder copes with the burst.
const PHYSICAL_ERROR_RATE: f64 = 8e-3;
/// Spatio-temporal extent of the injected MBBE — the paper's `d_ano = 4`,
/// clamped below the code distance so d = 3 smoke sweeps stay valid.
const BURST_SIZE: usize = 4;
/// The swept burst rates (`p_ano` inside the anomalous region).
const BURST_RATES: &[f64] = &[0.05, 0.1, 0.2, 0.35, 0.5];
/// Full distance sweep; override with `--distances 3,5` for smoke runs.
const DEFAULT_DISTANCES: &[usize] = &[3, 5, 7, 9, 11, 13, 15, 17, 19, 21];

/// The two decoding policies: burst-blind (no expansion) vs Q3DE
/// anomaly-aware re-execution.
const POLICIES: &[(&str, DecodingStrategy)] = &[
    ("none", DecodingStrategy::Blind),
    ("q3de", DecodingStrategy::AnomalyAware),
];

struct Cell {
    d: usize,
    rate: f64,
    policy: &'static str,
    id: String,
}

fn main() {
    let (args, extras) = Cli::new(
        "fig_threshold",
        "logical error rate vs MBBE burst rate, with crossing-point threshold estimates",
        200,
    )
    .flag(
        "--distances",
        "LIST",
        "comma-separated code distances to sweep (default 3,5,...,21)",
    )
    .parse();
    let distances = parse_distances(&extras).unwrap_or_else(|| DEFAULT_DISTANCES.to_vec());

    let mut points = Vec::new();
    let mut cells = Vec::new();
    for &d in &distances {
        for (pi, &(policy, strategy)) in POLICIES.iter().enumerate() {
            for (ri, &rate) in BURST_RATES.iter().enumerate() {
                let config = MemoryExperimentConfig::new(d, PHYSICAL_ERROR_RATE)
                    .with_matcher(args.matcher)
                    .with_anomaly(AnomalyInjection::centered(BURST_SIZE.min(d - 1), rate));
                let id = format!("threshold/d={d}/policy={policy}/rate={rate}");
                points.push(
                    SweepPoint::from_memory::<ChaCha8Rng>(
                        &id,
                        config,
                        strategy,
                        args.stream_seed((d * 1000 + ri * 10 + pi) as u64),
                    )
                    .expect("valid distance"),
                );
                cells.push(Cell {
                    d,
                    rate,
                    policy,
                    id,
                });
            }
        }
    }

    args.human(format!(
        "Threshold study: logical error rate vs burst rate (p = {PHYSICAL_ERROR_RATE:.0e}, \
         d_ano = min({BURST_SIZE}, d-1)), {} shots/point{}, {} matcher",
        args.samples,
        args.target_rse
            .map_or(String::new(), |rse| format!(" (ceiling, target rse {rse})")),
        args.matcher.name()
    ));
    let report = args.run_sweep(points);
    if let Err(error) = validate_engine_json(&report, &cells) {
        eprintln!("engine JSON self-validation FAILED: {error}");
        std::process::exit(3);
    }
    args.human("engine JSON self-validation: ok");

    args.human_row(
        "configuration",
        &BURST_RATES
            .iter()
            .map(|r| format!("rate={r:<7}"))
            .collect::<Vec<_>>(),
    );
    for &(policy, _) in POLICIES {
        for &d in &distances {
            let row: Vec<String> = cells
                .iter()
                .filter(|c| c.d == d && c.policy == policy)
                .map(|c| sci(report.point(&c.id).expect("point ran").failure_rate()))
                .collect();
            args.human_row(&format!("d={d} policy={policy}"), &row);
        }
    }

    if args.json {
        for cell in &cells {
            let point = report.point(&cell.id).expect("point ran");
            let (low, high) = point.wilson();
            println!(
                "{{\"figure\":\"threshold\",\"d\":{},\"p\":{PHYSICAL_ERROR_RATE},\
                 \"burst_rate\":{},\"policy\":\"{}\",\"rate\":{},\"shots\":{},\
                 \"failures\":{},\"wilson_low\":{low},\"wilson_high\":{high}}}",
                cell.d,
                cell.rate,
                cell.policy,
                point.failure_rate(),
                point.shots,
                point.failures,
            );
        }
    }

    // Crossing-point (threshold) estimate per policy: where the logical
    // error rate of adjacent-distance curves crosses, increasing distance
    // has stopped helping — the median crossing is the threshold estimate.
    args.human("");
    for &(policy, _) in POLICIES {
        let mut crossings = Vec::new();
        for pair in distances.windows(2) {
            let [d1, d2] = [pair[0], pair[1]];
            let curve = |d: usize| -> Vec<f64> {
                cells
                    .iter()
                    .filter(|c| c.d == d && c.policy == policy)
                    .map(|c| {
                        let p = report.point(&c.id).expect("point ran");
                        // A zero-failure tally has an undefined log rate;
                        // half a failure keeps the interpolation finite.
                        if p.failures == 0 {
                            0.5 / p.shots.max(1) as f64
                        } else {
                            p.failure_rate()
                        }
                    })
                    .collect()
            };
            let (c1, c2) = (curve(d1), curve(d2));
            for ri in 0..BURST_RATES.len() - 1 {
                // The larger code is better below its threshold: the gap
                // ln(LER_d2) - ln(LER_d1) moves from negative to positive
                // through the crossing.
                let f0 = (c2[ri] / c1[ri]).ln();
                let f1 = (c2[ri + 1] / c1[ri + 1]).ln();
                if f0 < 0.0 && f1 >= 0.0 {
                    let t = f0 / (f0 - f1);
                    crossings.push(BURST_RATES[ri] + t * (BURST_RATES[ri + 1] - BURST_RATES[ri]));
                }
            }
        }
        crossings.sort_by(f64::total_cmp);
        let estimate = if crossings.is_empty() {
            None
        } else {
            Some(crossings[crossings.len() / 2])
        };
        match estimate {
            Some(rate) => args.human(format!(
                "threshold estimate ({policy}): burst rate ~{rate:.3} \
                 ({} adjacent-distance crossings)",
                crossings.len()
            )),
            None => args.human(format!(
                "threshold estimate ({policy}): no crossing in the swept range — \
                 distance ordering preserved up to burst rate {}",
                BURST_RATES.last().unwrap()
            )),
        }
        if args.json {
            println!(
                "{{\"figure\":\"threshold\",\"policy\":\"{policy}\",\"crossing_rate\":{},\
                 \"crossings\":{}}}",
                estimate.map_or("null".into(), |r| format!("{r}")),
                crossings.len()
            );
        }
    }
    args.human("");
    args.human("Expected shape: without expansion the burst defeats larger codes at low burst");
    args.human("rates (early crossings); Q3DE expansion pushes the crossing out or removes it.");
}

/// Parses `--distances 3,5,7` into a sorted distance list.
fn parse_distances(extras: &ExtraValues) -> Option<Vec<usize>> {
    let spec = extras.get("--distances")?;
    let mut distances: Vec<usize> = spec
        .split(',')
        .filter_map(|tok| tok.trim().parse().ok())
        .collect();
    distances.sort_unstable();
    distances.dedup();
    if distances.is_empty() {
        eprintln!("--distances '{spec}' parsed to nothing; using the default sweep");
        return None;
    }
    Some(distances)
}

/// Re-parses the engine's own JSON report and checks it is self-consistent:
/// the schema version this build writes, every swept cell present with at
/// least one shot, failures within shots, and ordered Wilson bounds
/// bracketing the point estimate.
fn validate_engine_json(report: &SweepReport, cells: &[Cell]) -> Result<(), String> {
    let doc = JsonValue::parse(&report.to_json().to_string())
        .map_err(|e| format!("report does not parse: {e}"))?;
    check_schema_version(&doc, REPORT_SCHEMA_VERSION, "sweep report")?;
    let points = doc
        .get("points")
        .and_then(JsonValue::as_array)
        .ok_or("report has no points array")?;
    for cell in cells {
        let point = points
            .iter()
            .find(|p| p.get("id").and_then(JsonValue::as_str) == Some(&cell.id))
            .ok_or_else(|| format!("cell {} missing from the report", cell.id))?;
        let num = |key: &str| {
            point
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("cell {}: missing numeric field {key}", cell.id))
        };
        let (shots, failures) = (num("shots")?, num("failures")?);
        let (rate, low, high) = (
            num("failure_rate")?,
            num("wilson_low")?,
            num("wilson_high")?,
        );
        if shots < 1.0 {
            return Err(format!("cell {}: ran no shots", cell.id));
        }
        if failures > shots {
            return Err(format!("cell {}: more failures than shots", cell.id));
        }
        if !(0.0..=1.0).contains(&low) || !(0.0..=1.0).contains(&high) || low > high {
            return Err(format!(
                "cell {}: malformed Wilson interval [{low}, {high}]",
                cell.id
            ));
        }
        if rate < low - 1e-12 || rate > high + 1e-12 {
            return Err(format!(
                "cell {}: rate {rate} outside its Wilson interval [{low}, {high}]",
                cell.id
            ));
        }
    }
    Ok(())
}
