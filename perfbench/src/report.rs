//! Metric names, output checks and the result line.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("windows_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.  A workload that does
/// not run a layer reports 0 for it (`packed_d3` never re-weights, only
/// `service_mixed` queues).
const PER_LAYER: [(&str, &str); 25] = [
    ("sim.packed.sample_us_per_group", "us"),
    ("decoder.syndrome.detector_words_us_per_group", "us"),
    ("sim.packed.settle_us_per_group", "us"),
    ("sim.packed.eventful_lane_frac", "fraction"),
    ("sim.packed.memo_hit_frac", "fraction"),
    ("decoder.events_per_shot", "count"),
    ("sim.memory.sample_us_per_window", "us"),
    ("decoder.extract_us_per_window", "us"),
    ("decoder.spacetime.reweight_us_per_window", "us"),
    ("matching.pass1_us_quiet", "us"),
    ("matching.pass1_us_struck", "us"),
    ("matching.pass2_us_struck", "us"),
    ("decoder.defects_per_window", "count"),
    ("decoder.rollback_frac", "fraction"),
    ("decoder.graph_builds", "count"),
    ("decoder.reweights", "count"),
    ("service.submit_us_p99", "us"),
    ("service.decode_us_p50", "us"),
    ("service.decode_us_p99", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.gen_late_us_p99", "us"),
    ("service.max_depth", "count"),
    ("service.graph_builds", "count"),
    ("service.rollback_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Collects one run's metrics and check results and prints the result
/// line.
pub struct Report {
    trace: bool,
    metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (shots, windows or submissions).
    pub attempted: u64,
    /// Operations shed, invalid or failing a check.
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    /// An empty report for an untraced (`trace = false`) or traced run.
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records a metric by its declared name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared metric of this run's kind.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let declared = if self.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        assert!(
            declared.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.errors.push(what.to_string());
        }
    }

    /// Checks an observed failure count against the stored reference
    /// `(failures, trials)`: the two Wilson score intervals at `z = 4` must
    /// overlap.  Both counts are random, so the run's interval is widened by
    /// its own sampling error as well as the reference's.
    pub fn check_failures(&mut self, failures: u64, trials: u64, reference: (u64, u64)) {
        use q3de::scaling::wilson_interval;
        const Z: f64 = 4.0;
        let (lo, hi) = wilson_interval(failures as usize, trials as usize, Z);
        let (ref_lo, ref_hi) = wilson_interval(reference.0 as usize, reference.1 as usize, Z);
        self.check(
            lo <= ref_hi && ref_lo <= hi,
            format_args!(
                "{failures} logical failures in {trials} trials is outside the reference {reference:?}"
            ),
        );
    }

    /// Checks a check set's summed minimum matching weight against the
    /// stored reference.  The relative tolerance is 1e-6: exact matchers
    /// agree on the minimum weight up to float summation order (~1e-12),
    /// while an inexact matcher loses far more than this over a check set.
    pub fn check_weight(&mut self, sum: f64, reference: f64) {
        self.check(
            (sum - reference).abs() <= 1e-6 * reference.abs().max(1.0),
            format_args!("check-set matching weight {sum} differs from the reference {reference}"),
        );
    }

    /// Records `trace.overhead_frac`, the relative difference between the
    /// summed stage times of the traced calls and the untraced time of the
    /// same work, and checks it is within 10 %.
    pub fn tracing_overhead(&mut self, staged_s: f64, untraced_s: f64) {
        let overhead = staged_s / untraced_s - 1.0;
        self.metric("trace.overhead_frac", overhead);
        self.check(
            overhead.abs() <= 0.10,
            format_args!("stage times sum to {staged_s} s against {untraced_s} s untraced"),
        );
    }

    /// Prints every metric by name and unit, then the JSON result line,
    /// and returns the exit code: non-zero when any check failed.
    pub fn finish(mut self) -> ExitCode {
        let declared: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut entries = Vec::new();
        for &(name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if self.trace => 0.0,
                None => {
                    self.errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if !value.is_finite() {
                self.errors.push(format!("metric {name} is not finite"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name:<46} {value:>16.4} {unit}");
            entries.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.attempted == 0 {
            self.errors.push("no operation was attempted".into());
        }
        let correct = self.errors.is_empty() && self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            entries.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Nearest-rank `q`-quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The fastest time of each operation of a fixed piece of work that is run
/// again and again, identically, within one run.  Other tenants of a shared
/// machine only ever slow an operation down, and they rarely slow every
/// pass over the same operation, so the per-operation minimum is the code's
/// own time; a change to the code slows every pass alike and still shows
/// in full.
#[derive(Debug)]
pub struct FastestPass(Vec<f64>);

impl FastestPass {
    /// No pass seen yet over `operations` operations.
    pub fn new(operations: usize) -> Self {
        Self(vec![f64::INFINITY; operations])
    }

    /// Records one pass's time of operation `index`.
    pub fn offer(&mut self, index: usize, seconds: f64) {
        self.0[index] = self.0[index].min(seconds);
    }

    /// Seconds of one pass made of every operation's fastest time.
    pub fn seconds(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile over operations of their fastest times, in us.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut us: Vec<f64> = self.0.iter().map(|s| s * 1e6).collect();
        quantile(&mut us, q)
    }
}

/// Whether a run of `seconds` that began at `start` and has made `passes`
/// passes has time for another, judged by its mean pass so far, so that a
/// run ends within its time.  The first pass always runs.
pub fn another_pass(start: Instant, passes: u64, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    passes == 0 || elapsed + elapsed / passes as f64 <= seconds
}

/// Mean of `total` over `count` items; 0 when there are none.
pub fn mean(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// The process's peak resident set size in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Timed set-ups of one run.  Set-up takes well under a millisecond to a
/// few milliseconds, so workloads time it many times, spread over the
/// measured phase, and report the lowest tenth of the samples: other
/// tenants of a shared machine only ever slow a set-up down, and a
/// process's set-ups run fast or slow in streaks of tens of milliseconds.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times one set-up; the value built is dropped outside the timing.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) {
        let start = Instant::now();
        let value = setup();
        self.0.push(start.elapsed().as_secs_f64());
        drop(value);
    }

    /// The `setup_s` figure of the samples so far.
    pub fn seconds(&mut self) -> f64 {
        quantile(&mut self.0, 0.10)
    }
}

/// A seed for stream `tag` of workload seed `seed` (SplitMix64), so the
/// workloads' RNG streams are independent of each other and of the stored
/// reference's check seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
