//! CI performance smoke: a small pinned-seed sweep over representative
//! kernels of every layer (single-patch memory, burst decoding with and
//! without rollback, chip-level strikes), timed by the sweep engine and
//! written out as `bench_report.json`.
//!
//! The report is the artifact the CI `perf` job uploads on every run; with
//! `--baseline PATH` the binary additionally compares each point's
//! shots/sec against the checked-in `BENCH_baseline.json` and exits
//! non-zero when any point regresses by more than `--max-regression`
//! (default 2.0×) — the regression gate of the BENCH trajectory.
//!
//! Run with `--help` for the flag set (`--baseline` and `--max-regression`
//! arm the regression gate).

use q3de::decoder::{graph_key, ContextPool, DecoderConfig, MatcherKind, SyndromeHistory};
use q3de::lattice::ErrorKind;
use q3de::sim::engine::json::{check_schema_version, JsonValue};
use q3de::sim::engine::SweepPoint;
use q3de::sim::{
    AnomalyInjection, ChipMemoryExperimentConfig, ChipStrikePolicy, DecodingStrategy,
    MemoryExperiment, MemoryExperimentConfig,
};
use q3de_bench::{format_row, Cli};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pure-decode hot-path kernel: a distance-`d` decoder with the given matching
/// backend replaying pre-sampled burst windows through the two-pass rollback
/// flow (blind uniform pass + anomaly-re-weighted re-execution).  Sampling
/// happens once up front and does not depend on the matcher, so every
/// backend's point decodes the *same* windows and the measured shots/sec is
/// pure decode throughput — which also makes same-process backend ratios
/// (the tree/uf gate below) machine-speed independent.
fn decode_window_point(
    base_seed: u64,
    d: usize,
    matcher: MatcherKind,
    id: &'static str,
) -> SweepPoint {
    const WINDOWS: u64 = 16;
    let config = MemoryExperimentConfig::new(d, 5e-3)
        .with_matcher(matcher)
        .with_anomaly(AnomalyInjection::centered(4, 0.5));
    let experiment = MemoryExperiment::new(config).expect("valid config");
    let graph = experiment.code().matching_graph(ErrorKind::X);
    let region = *experiment.region().expect("anomaly configured");
    let windows: Vec<(SyndromeHistory, bool)> = (0..WINDOWS)
        .map(|w| {
            let mut rng =
                ChaCha8Rng::seed_from_u64(base_seed ^ (0xDEC0DE ^ w.wrapping_mul(0x9E37)));
            experiment.sample_history(DecodingStrategy::AnomalyAware, &mut rng)
        })
        .collect();
    let pool = ContextPool::new(DecoderConfig::default().with_matcher(matcher));
    SweepPoint::new(id, move |stream: u64| {
        let (history, parity) = &windows[(stream % WINDOWS) as usize];
        pool.with(graph_key(&graph, history.num_layers()), |context| {
            context
                .decode_with_rollback(&graph, 5e-3, history, Some(&[region]), 0)
                .final_outcome()
                .is_logical_failure(*parity)
        })
    })
}

/// The `shots_per_sec` entries of a report document, in document order.
fn throughputs(doc: &JsonValue) -> Vec<(String, f64)> {
    doc.get("points")
        .and_then(JsonValue::as_array)
        .map(|points| {
            points
                .iter()
                .filter_map(|p| {
                    let id = p.get("id")?.as_str()?.to_string();
                    let sps = p.get("shots_per_sec")?.as_f64()?;
                    Some((id, sps))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Ratio gates, `(label, numerator id, denominator id, floor)`: both points
/// of a ratio run in the same process on the same host, so the ratio is
/// robust to machine speed in a way the absolute baselines are not.
///
/// * packed/scalar d3: the headline number of the 64-shot batch spine.
/// * tree/uf d11: the exact tree matcher against the union-find baseline
///   on identical pre-sampled burst windows.  Measured 0.53-0.61 over
///   six runs on a 2-vCPU host; the floor sits 2x or more below that
///   for machine variance.
const RATIO_GATES: [(&str, &str, &str, f64); 2] = [
    (
        "packed/scalar d3",
        "perf/mem_packed/d3/uniform",
        "perf/mem/d3/uniform",
        5.0,
    ),
    (
        "tree/uf d11",
        "perf/decode_window/d11/tree/rollback",
        "perf/decode_window/d11/uf/rollback",
        0.2,
    ),
];

/// Prints one verdict line per [`RATIO_GATES`] entry and returns whether
/// every gate passed.  `shots_per_sec` looks a point up by id; a gate
/// whose numerator or denominator is missing fails, like a missing
/// baseline point, so renaming a kernel id cannot drop its gate unnoticed.
/// An untimed point (NaN shots/sec: every shot resumed from a checkpoint)
/// fails the same way.
fn ratio_gates_pass(shots_per_sec: impl Fn(&str) -> Option<f64>) -> bool {
    let mut passed = true;
    for (label, numerator, denominator, floor) in RATIO_GATES {
        let (Some(num), Some(den)) = (shots_per_sec(numerator), shots_per_sec(denominator)) else {
            eprintln!("  {label} ratio: MISSING {numerator} or {denominator} from this run");
            passed = false;
            continue;
        };
        let ratio = num / den;
        let verdict = if ratio >= floor {
            "ok"
        } else {
            passed = false;
            "FAIL"
        };
        eprintln!("  {label} ratio: {ratio:.2}x (floor {floor:.1}x) {verdict}");
    }
    passed
}

fn main() {
    let (args, extras) = Cli::new(
        "perf_smoke",
        "pinned-seed perf sweep over every hot path, with a CI regression gate",
        200,
    )
    .flag(
        "--baseline",
        "PATH",
        "compare shots/sec against this BENCH_baseline.json and gate on regressions",
    )
    .flag(
        "--max-regression",
        "X",
        "fail when any point drops below baseline/X (default 2.0)",
    )
    .parse();
    let baseline_path = extras.get("--baseline").map(String::from);
    // A typo must not silently loosen the CI gate.
    let max_regression = extras
        .require("--max-regression", "a number >= 1.0", |x: &f64| *x >= 1.0)
        .unwrap_or(2.0);
    let report_path = args
        .report
        .clone()
        .unwrap_or_else(|| "bench_report.json".into());
    let mut args = args;
    args.report = Some(report_path.clone());

    // Representative kernels, one per hot path.  Ids are the contract with
    // BENCH_baseline.json — renaming one invalidates its baseline entry.
    //
    // The two d3 memory kernels (scalar and packed) run in a *separate*
    // sweep at `samples × FAST_MULTIPLIER` shots: they are orders of
    // magnitude faster than the burst/chip/decode points, and the packed
    // kernel only reaches its steady state once its verdict memo is
    // populated — hundreds of 64-lane groups in.  Measuring both at high
    // shot counts makes the packed/scalar ratio a steady-state number
    // instead of a cold-start artifact, at negligible wall-clock cost.
    const FAST_MULTIPLIER: usize = 3200;
    let mem = |id: &str, config: MemoryExperimentConfig, strategy, salt: u64| {
        SweepPoint::from_memory::<ChaCha8Rng>(id, config, strategy, args.stream_seed(salt))
            .expect("valid config")
    };
    let burst = MemoryExperimentConfig::new(5, 8e-3)
        .with_matcher(args.matcher)
        .with_anomaly(AnomalyInjection::centered(2, 0.5));
    let chip = ChipMemoryExperimentConfig::new(
        2,
        2,
        MemoryExperimentConfig::new(3, 8e-3).with_matcher(args.matcher),
    )
    .with_strike(ChipStrikePolicy::Random {
        probability: 0.5,
        size: 2,
        rate: 0.5,
    });
    let fast_points = vec![
        mem(
            "perf/mem/d3/uniform",
            MemoryExperimentConfig::new(3, 2e-2).with_matcher(args.matcher),
            DecodingStrategy::MbbeFree,
            0,
        ),
        // the same workload through the bit-packed 64-shot batch kernel —
        // the packed/scalar throughput ratio is the headline number of the
        // batch spine and the CI gate keeps it from silently regressing
        SweepPoint::from_memory_packed::<ChaCha8Rng>(
            "perf/mem_packed/d3/uniform",
            MemoryExperimentConfig::new(3, 2e-2).with_matcher(args.matcher),
            DecodingStrategy::MbbeFree,
            args.stream_seed(0),
        )
        .expect("valid config"),
    ];
    let slow_points = vec![
        mem("perf/mem/d5/burst/blind", burst, DecodingStrategy::Blind, 1),
        mem(
            "perf/mem/d5/burst/rollback",
            burst,
            DecodingStrategy::AnomalyAware,
            2,
        ),
        SweepPoint::from_chip::<ChaCha8Rng>(
            "perf/chip/2x2/d3/strike",
            chip,
            DecodingStrategy::Blind,
            args.stream_seed(3),
        )
        .expect("valid chip"),
        decode_window_point(
            args.stream_seed(4),
            11,
            MatcherKind::UnionFind,
            "perf/decode_window/d11/uf/rollback",
        ),
        // the same windows (same seed) through the exact alternating-tree
        // backend: the tree/uf ratio gates what exactness costs over the
        // fast approximate baseline
        decode_window_point(
            args.stream_seed(4),
            11,
            MatcherKind::Tree,
            "perf/decode_window/d11/tree/rollback",
        ),
        // the same pair at d = 15, reported but not gated (no baseline entry)
        decode_window_point(
            args.stream_seed(4),
            15,
            MatcherKind::UnionFind,
            "perf/decode_window/d15/uf/rollback",
        ),
        decode_window_point(
            args.stream_seed(4),
            15,
            MatcherKind::Tree,
            "perf/decode_window/d15/tree/rollback",
        ),
    ];

    let fast_samples = args.samples.saturating_mul(FAST_MULTIPLIER);
    eprintln!(
        "perf smoke: {} shots/point ({} for the d3 memory points), seed {}, \
         {} matcher -> {report_path}",
        args.samples,
        fast_samples,
        args.seed,
        args.matcher.name()
    );
    // Neither sub-sweep writes the report artifact — the merged document
    // below is the single source of truth the gate and CI consume.
    let mut fast_args = args.clone();
    fast_args.samples = fast_samples;
    fast_args.report = None;
    fast_args.checkpoint = None;
    let mut slow_args = args.clone();
    slow_args.report = None;
    let mut report = fast_args.run_sweep(fast_points);
    let slow_report = slow_args.run_sweep(slow_points);
    report.points.extend(slow_report.points);
    report.wall_clock_secs += slow_report.wall_clock_secs;
    report.meta = vec![
        ("seed".into(), args.seed.to_string()),
        ("samples".into(), args.samples.to_string()),
        ("fast_samples".into(), fast_samples.to_string()),
        ("matcher".into(), args.matcher.name().to_string()),
    ];
    if let Err(error) = report.write_json(std::path::Path::new(&report_path)) {
        eprintln!("cannot write report: {error}");
        std::process::exit(2);
    }
    for point in &report.points {
        eprintln!(
            "{}",
            format_row(
                &point.id,
                &[
                    format!("{:>8} shots", point.shots),
                    format!("{:>10.1} shots/sec", point.shots_per_sec()),
                    format!("{:>8.3} busy secs", point.busy_secs),
                ],
            )
        );
    }
    eprintln!(
        "total: {} shots in {:.3} s wall clock on {} threads",
        report.total_shots(),
        report.wall_clock_secs,
        report.threads
    );

    let Some(baseline_path) = baseline_path else {
        return;
    };
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read baseline {baseline_path}: {error}");
            std::process::exit(2);
        }
    };
    let baseline = match JsonValue::parse(&text) {
        Ok(doc) => doc,
        Err(error) => {
            eprintln!("cannot parse baseline {baseline_path}: {error}");
            std::process::exit(2);
        }
    };
    // The baseline is its own versioned artifact; refusing unknown majors
    // keeps the gate from silently comparing against a reshaped file.
    const BASELINE_SCHEMA_VERSION: u64 = 1;
    if let Err(error) = check_schema_version(&baseline, BASELINE_SCHEMA_VERSION, "perf baseline") {
        eprintln!("cannot use baseline {baseline_path}: {error}");
        std::process::exit(2);
    }

    let mut failed = false;
    eprintln!("\nregression gate (fail below baseline/{max_regression}):");
    for (id, reference) in throughputs(&baseline) {
        let Some(point) = report.point(&id) else {
            eprintln!("  {id}: MISSING from this run (baseline stale?)");
            failed = true;
            continue;
        };
        let current = point.shots_per_sec();
        let floor = reference / max_regression;
        // NaN (no shot of the point ran in this process) fails too.
        let verdict = if current >= floor {
            "ok"
        } else {
            failed = true;
            "FAIL"
        };
        eprintln!(
            "  {id}: {current:.1} vs baseline {reference:.1} shots/sec \
             (floor {floor:.1}) {verdict}"
        );
    }
    if !ratio_gates_pass(|id| report.point(id).map(|p| p.shots_per_sec())) {
        failed = true;
    }
    // The tree/uf ratio at d = 15 is tracked next to d = 11, not gated.
    if let (Some(tree), Some(uf)) = (
        report.point("perf/decode_window/d15/tree/rollback"),
        report.point("perf/decode_window/d15/uf/rollback"),
    ) {
        let ratio = tree.shots_per_sec() / uf.shots_per_sec();
        eprintln!("  tree/uf d15 ratio: {ratio:.2}x (report only)");
    }
    if failed {
        eprintln!(
            "perf smoke FAILED: throughput regressed >{max_regression}x against {baseline_path}"
        );
        std::process::exit(1);
    }
    eprintln!("perf smoke passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Throughputs of every gated point, each numerator at `scale` times
    /// its gate's floor over a denominator of 1 shot/sec.
    fn gated_points(scale: f64) -> Vec<(&'static str, f64)> {
        RATIO_GATES
            .iter()
            .flat_map(|&(_, numerator, denominator, floor)| {
                [(numerator, scale * floor), (denominator, 1.0)]
            })
            .collect()
    }

    fn lookup(points: &[(&str, f64)], id: &str) -> Option<f64> {
        points.iter().find(|(p, _)| *p == id).map(|&(_, sps)| sps)
    }

    #[test]
    fn ratio_gates_fail_on_a_missing_untimed_or_slow_point() {
        let healthy = gated_points(2.0);
        assert!(ratio_gates_pass(|id| lookup(&healthy, id)));
        for (label, numerator, denominator, _) in RATIO_GATES {
            for missing in [numerator, denominator] {
                let partial: Vec<_> = healthy
                    .iter()
                    .filter(|(id, _)| *id != missing)
                    .copied()
                    .collect();
                assert!(
                    !ratio_gates_pass(|id| lookup(&partial, id)),
                    "{label}: a report without {missing} must fail"
                );
            }
        }
        let slow = gated_points(0.5);
        assert!(!ratio_gates_pass(|id| lookup(&slow, id)));
        let untimed = gated_points(f64::NAN);
        assert!(!ratio_gates_pass(|id| lookup(&untimed, id)));
    }
}
