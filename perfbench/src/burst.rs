//! `burst_rollback_d11`: a closed loop of d=11 windows on one thread, 60 %
//! of them struck, each sampled with `WindowSource::window` and decoded by
//! `DecoderContext::decode_with_rollback` on one warm context with the
//! ground-truth regions.

use crate::report::{
    another_pass, derive_seed, mean, peak_rss_mb, FastestPass, Report, SetupTimes,
};
use crate::stages::{
    decode_window, rollback_is_perfect, rollback_weight, StageTotals, StagedDecoder,
};
use crate::{reference, tree_decoder, Args};
use q3de::decoder::{DecoderContext, ReExecutionOutcome};
use q3de::sim::{AnomalyInjection, MemoryExperimentConfig, StreamWindow, WindowSource};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

const DISTANCE: usize = 11;
const RATE: f64 = 5e-3;
/// Above one half, so the median window is a struck one and
/// `latency_p50_us` cannot flip between the quiet and the struck mode from
/// one seed to the next.  (Quiet windows decode in ~1 % of a struck
/// window's time; `matching.pass1_us_quiet` tracks them.)
const STRIKE_RATE: f64 = 0.6;
/// Windows per pass of the measured phase, which decodes the same windows
/// pass after pass: the p99 has 15 windows beyond it.
const WINDOWS_PER_PASS: u64 = 1500;
/// Set-ups timed after each pass.
const SETUPS_PER_PASS: usize = 8;
/// Untraced and traced phases alternate every this many windows, so machine
/// drift hits both sides of the tracing-overhead comparison alike.
const TRACE_CHUNK: u64 = 20;

fn config() -> MemoryExperimentConfig {
    let mut config = MemoryExperimentConfig::new(DISTANCE, RATE)
        .with_anomaly(AnomalyInjection::centered(4, 0.5));
    config.decoder = tree_decoder();
    config
}

fn source(strike_rate: f64, seed: u64) -> WindowSource {
    WindowSource::new(config(), strike_rate, seed).expect("d = 11 is a valid distance")
}

/// Checks one decoded window; returns whether it ended in a logical failure.
fn check_window(report: &mut Report, window: &StreamWindow, outcome: &ReExecutionOutcome) -> bool {
    report.attempted += 1;
    let valid = rollback_is_perfect(outcome) && outcome.was_rolled_back() == window.struck();
    if !valid {
        report.failed += 1;
        report.check(
            false,
            format_args!("window {} decoded invalidly", window.stream),
        );
    }
    outcome
        .final_outcome()
        .is_logical_failure(window.error_cut_parity)
}

/// Runs the workload and records its metrics and checks.
pub fn run(args: Args, report: &mut Report) {
    let seed = derive_seed(args.seed, 0xB0);
    // A struck window warms the graph build and the re-weight path.  It is
    // the same window for every seed, so set-up does the same work, and it
    // is input, so it is sampled outside the timed set-up.
    let warm = source(1.0, reference::CHECK_SEED).window::<ChaCha8Rng>(0);
    let setup = || {
        let source = source(STRIKE_RATE, seed);
        let mut context = DecoderContext::new(tree_decoder());
        black_box(decode_window(RATE, &mut context, &source, &warm));
        (source, context)
    };
    let (source, mut context) = setup();
    if args.trace {
        trace(report, &source, &mut context, &warm);
    } else {
        measure(args, report, &source, &mut context, setup);
    }
    report.check_weight(check_set_weight(), reference::BURST_CHECK_WEIGHT);
}

fn measure(
    args: Args,
    report: &mut Report,
    source: &WindowSource,
    context: &mut DecoderContext,
    setup: impl Fn() -> (WindowSource, DecoderContext),
) {
    let mut setups = SetupTimes::default();
    let start = Instant::now();
    let mut busy = FastestPass::new(WINDOWS_PER_PASS as usize);
    let mut latency = FastestPass::new(WINDOWS_PER_PASS as usize);
    let mut weights = Vec::with_capacity(WINDOWS_PER_PASS as usize);
    let mut failures = 0u64;
    let mut pass = 0;
    while another_pass(start, pass, args.seconds) {
        for stream in 0..WINDOWS_PER_PASS {
            let i = stream as usize;
            let t0 = Instant::now();
            let window = source.window::<ChaCha8Rng>(stream);
            let t1 = Instant::now();
            let outcome = decode_window(RATE, context, source, &window);
            let t2 = Instant::now();
            busy.offer(i, (t2 - t0).as_secs_f64());
            latency.offer(i, (t2 - t1).as_secs_f64());
            let failed = check_window(report, &window, &outcome);
            let weight = rollback_weight(&outcome);
            if pass == 0 {
                failures += u64::from(failed);
                weights.push(weight);
            } else if weight != weights[i] {
                report.failed += 1;
                report.check(
                    false,
                    format_args!("pass {pass} decoded window {stream} to another weight"),
                );
            }
        }
        pass += 1;
        for _ in 0..SETUPS_PER_PASS {
            setups.time(&setup);
        }
    }
    report.check_failures(failures, WINDOWS_PER_PASS, reference::BURST_FAILURES);
    report.metric("setup_s", setups.seconds());
    report.metric("windows_per_s", WINDOWS_PER_PASS as f64 / busy.seconds());
    report.metric("latency_p50_us", latency.quantile_us(0.50));
    report.metric("latency_p99_us", latency.quantile_us(0.99));
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
}

/// One pass of the untraced run's windows, decoded twice in alternating
/// chunks: untraced, then stage by stage.
fn trace(
    report: &mut Report,
    source: &WindowSource,
    context: &mut DecoderContext,
    warm: &StreamWindow,
) {
    let windows = WINDOWS_PER_PASS;
    let mut staged = StagedDecoder::new(source.graph(), source.window_layers(), RATE);
    staged.decode(warm, report);

    let (mut untraced, mut sample) = (0.0, 0.0);
    let mut totals = StageTotals::default();
    let mut weights = Vec::new();
    for chunk in (0..windows).step_by(TRACE_CHUNK as usize) {
        let streams = chunk..(chunk + TRACE_CHUNK).min(windows);
        weights.clear();
        for stream in streams.clone() {
            let t0 = Instant::now();
            let window = source.window::<ChaCha8Rng>(stream);
            let outcome = decode_window(RATE, context, source, &window);
            untraced += t0.elapsed().as_secs_f64();
            check_window(report, &window, &outcome);
            weights.push(rollback_weight(&outcome));
        }
        for (stream, &expected) in streams.zip(&weights) {
            let t0 = Instant::now();
            let window = source.window::<ChaCha8Rng>(stream);
            sample += t0.elapsed().as_secs_f64();
            let stages = staged.decode(&window, report);
            totals.add(&window, &stages, expected, report);
        }
    }
    report.metric(
        "sim.memory.sample_us_per_window",
        mean(sample, windows as usize) * 1e6,
    );
    totals.record(report);
    report.metric("decoder.graph_builds", context.graph_builds() as f64);
    report.metric("decoder.reweights", context.reweights() as f64);
    report.tracing_overhead(sample + totals.seconds(), untraced);
}

/// The fixed check set: its summed matching weight must equal the stored
/// reference whatever the seed.
fn check_set_weight() -> f64 {
    let source = source(STRIKE_RATE, reference::CHECK_SEED);
    let mut context = DecoderContext::new(tree_decoder());
    (0..reference::BURST_CHECK_WINDOWS)
        .map(|stream| {
            let window = source.window::<ChaCha8Rng>(stream);
            rollback_weight(&decode_window(RATE, &mut context, &source, &window))
        })
        .sum()
}

/// Prints this workload's stored references.
pub fn calibrate() {
    println!(
        "pub const BURST_CHECK_WEIGHT: f64 = {:?};",
        check_set_weight()
    );
    let source = source(STRIKE_RATE, reference::CALIBRATION_SEED);
    let mut context = DecoderContext::new(tree_decoder());
    let mut failures = 0u64;
    for stream in 0..reference::BURST_CALIBRATION_WINDOWS {
        let window = source.window::<ChaCha8Rng>(stream);
        let outcome = decode_window(RATE, &mut context, &source, &window);
        failures += u64::from(
            outcome
                .final_outcome()
                .is_logical_failure(window.error_cut_parity),
        );
    }
    println!(
        "pub const BURST_FAILURES: (u64, u64) = ({failures}, {});",
        reference::BURST_CALIBRATION_WINDOWS
    );
}
