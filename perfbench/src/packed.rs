//! `packed_d3`: the fig3 batch path.  Each repetition builds a cold
//! `PackedShotBatch` (d=3, p=2e-2, MBBE-free) of the run's seed and runs a
//! fixed number of 64-lane groups through `run_group` on one thread, so
//! every repetition does the same work.

use crate::report::{
    another_pass, derive_seed, mean, peak_rss_mb, FastestPass, Report, SetupTimes,
};
use crate::stages::outcome_is_perfect;
use crate::{reference, tree_decoder, Args};
use q3de::decoder::DecoderContext;
use q3de::lattice::ErrorKind;
use q3de::sim::{DecodingStrategy, MemoryExperiment, MemoryExperimentConfig, PackedShotBatch};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::time::Instant;

const DISTANCE: usize = 3;
const RATE: f64 = 2e-2;
/// Groups per repetition: 3.2 M shots from a cold verdict memo.
const GROUPS_PER_REP: u64 = 50_000;
/// Lanes per repetition replayed through the scalar decode path.
const REPLAY_LANES: u64 = 32;
/// Set-ups timed after each repetition.
const SETUPS_PER_REP: usize = 3;
/// Untraced and traced phases alternate every this many groups.
const TRACE_CHUNK: u64 = 500;

fn experiment() -> MemoryExperiment {
    let mut config = MemoryExperimentConfig::new(DISTANCE, RATE);
    config.decoder = tree_decoder();
    MemoryExperiment::new(config).expect("d = 3 is a valid distance")
}

fn batch(seed: u64) -> PackedShotBatch<ChaCha8Rng> {
    experiment().packed(DecodingStrategy::MbbeFree, seed)
}

/// Runs the workload and records its metrics and checks.
pub fn run(args: Args, report: &mut Report) {
    let seed = derive_seed(args.seed, 0xA0);
    if args.trace {
        trace(report, seed);
    } else {
        measure(args, report, seed);
    }
    let sum = check_set_weight(report);
    report.check_weight(sum, reference::PACKED_CHECK_WEIGHT);
}

fn measure(args: Args, report: &mut Report, seed: u64) {
    let start = Instant::now();
    let mut fastest = FastestPass::new(GROUPS_PER_REP as usize);
    let mut first = Vec::new();
    let mut masks = vec![0u64; GROUPS_PER_REP as usize];
    let mut setups = SetupTimes::default();
    let mut rep = 0u64;
    while another_pass(start, rep, args.seconds) {
        rep += 1;
        let cold = batch(seed);
        for (group, mask) in masks.iter_mut().enumerate() {
            let t0 = Instant::now();
            *mask = cold.run_group(group as u64);
            fastest.offer(group, t0.elapsed().as_secs_f64());
        }
        report.attempted += 64 * GROUPS_PER_REP;
        if first.is_empty() {
            first = masks.clone();
        } else if masks != first {
            report.failed += 64 * GROUPS_PER_REP;
            report.check(
                false,
                format_args!("repetition {rep}'s failure masks differ from the first's"),
            );
        }
        for k in 0..REPLAY_LANES {
            let stream = derive_seed(seed, (rep << 32) | k) % (64 * GROUPS_PER_REP);
            let packed = (masks[(stream / 64) as usize] >> (stream % 64)) & 1 == 1;
            if cold.replay_lane_scalar(stream) != packed {
                report.failed += 1;
                report.check(
                    false,
                    format_args!("lane {stream} disagrees with its scalar replay"),
                );
            }
        }
        // Set-up ends with the first group's failure mask, which includes
        // the first graph build.  It runs the check seed's batch, so set-up
        // does the same work for every seed.
        for _ in 0..SETUPS_PER_REP {
            setups.time(|| {
                let batch = batch(reference::CHECK_SEED);
                std::hint::black_box(batch.run_group(0));
                batch
            });
        }
    }
    let failures = first.iter().map(|m| u64::from(m.count_ones())).sum::<u64>();
    report.check_failures(failures, 64 * GROUPS_PER_REP, reference::PACKED_FAILURES);
    report.metric("setup_s", setups.seconds());
    report.metric(
        "windows_per_s",
        (64 * GROUPS_PER_REP) as f64 / fastest.seconds(),
    );
    report.metric("latency_p50_us", fastest.quantile_us(0.50));
    report.metric("latency_p99_us", fastest.quantile_us(0.99));
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
}

/// The untraced run's repetition run twice from cold, alternating chunks:
/// untraced `run_group`, then `sample_group`, `detector_words` and
/// `run_group` timed one by one on a second batch of the same seed.
fn trace(report: &mut Report, seed: u64) {
    let (untraced_batch, traced_batch) = (batch(seed), batch(seed));
    let mut untraced = 0.0;
    let (mut sample, mut words, mut settle) = (0.0, 0.0, 0.0);
    let (mut eventful, mut events) = (0u64, 0u64);
    let mut signatures = HashSet::new();
    let (mut detectors, mut signature) = (Vec::new(), Vec::new());
    let mut masks = Vec::new();
    for chunk in (0..GROUPS_PER_REP).step_by(TRACE_CHUNK as usize) {
        let groups = chunk..(chunk + TRACE_CHUNK).min(GROUPS_PER_REP);
        let t0 = Instant::now();
        masks.clear();
        masks.extend(groups.clone().map(|g| untraced_batch.run_group(g)));
        untraced += t0.elapsed().as_secs_f64();
        for (group, &expected) in groups.zip(&masks) {
            let t0 = Instant::now();
            let (syndromes, _) = traced_batch.sample_group(group);
            let t1 = Instant::now();
            syndromes.detector_words(&mut detectors);
            let t2 = Instant::now();
            let mask = traced_batch.run_group(group);
            let t3 = Instant::now();
            sample += (t1 - t0).as_secs_f64();
            words += (t2 - t1).as_secs_f64();
            settle += (t3 - t2).as_secs_f64() - (t1 - t0).as_secs_f64();

            report.attempted += 128;
            if mask != expected {
                report.failed += 64;
                report.check(
                    false,
                    format_args!("group {group}: traced and untraced masks differ"),
                );
            }
            let active = detectors.iter().fold(0u64, |acc, &w| acc | w);
            report.check(
                active == syndromes.active_mask(),
                format_args!("group {group}: active mask disagrees with the detector words"),
            );
            eventful += u64::from(active.count_ones());
            events += detectors
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>();
            let mut lanes = active;
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                syndromes.lane_signature(lane, &mut signature);
                if !signatures.contains(&signature) {
                    signatures.insert(signature.clone());
                }
            }
        }
    }
    let groups = GROUPS_PER_REP as usize;
    let shots = 64.0 * GROUPS_PER_REP as f64;
    report.metric("sim.packed.sample_us_per_group", mean(sample, groups) * 1e6);
    report.metric(
        "decoder.syndrome.detector_words_us_per_group",
        mean(words, groups) * 1e6,
    );
    report.metric("sim.packed.settle_us_per_group", mean(settle, groups) * 1e6);
    report.metric("sim.packed.eventful_lane_frac", eventful as f64 / shots);
    report.metric("decoder.events_per_shot", events as f64 / shots);
    report.metric(
        "sim.packed.memo_hit_frac",
        1.0 - signatures.len() as f64 / eventful.max(1) as f64,
    );
    report.tracing_overhead(sample + settle, untraced);
}

/// The fixed check set: every eventful lane of its groups decoded on a
/// fresh context; the summed matching weight must equal the stored
/// reference whatever the seed.
fn check_set_weight(report: &mut Report) -> f64 {
    let experiment = experiment();
    let graph = experiment.code().matching_graph(ErrorKind::X);
    let weights = experiment.weight_model(DecodingStrategy::MbbeFree);
    let batch = batch(reference::CHECK_SEED);
    let mut context = DecoderContext::new(tree_decoder());
    let mut events = Vec::new();
    let mut sum = 0.0;
    for group in 0..reference::PACKED_CHECK_GROUPS {
        let (syndromes, _) = batch.sample_group(group);
        let mut lanes = syndromes.active_mask();
        while lanes != 0 {
            let lane = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            events.clear();
            syndromes.lane_events(lane, &mut events);
            let outcome =
                context.decode_events(&graph, syndromes.num_layers(), events.clone(), &weights);
            report.check(
                outcome_is_perfect(&outcome),
                format_args!("check group {group} lane {lane} is not a perfect matching"),
            );
            sum += outcome.total_weight;
        }
    }
    sum
}

/// Prints this workload's stored references.
pub fn calibrate() {
    let mut scratch = Report::new(false);
    println!(
        "pub const PACKED_CHECK_WEIGHT: f64 = {:?};",
        check_set_weight(&mut scratch)
    );
    let shots = (64 * reference::PACKED_CALIBRATION_GROUPS) as usize;
    let estimate = batch(reference::CALIBRATION_SEED).estimate(shots);
    println!(
        "pub const PACKED_FAILURES: (u64, u64) = ({}, {shots});",
        estimate.failures
    );
}
