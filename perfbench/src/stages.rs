//! One window decoded layer by layer through public calls, and the
//! perfect-matching check on decode outcomes.
//!
//! [`StagedDecoder::decode`] makes, one at a time and timed, the calls
//! `DecoderContext::decode_with_rollback` makes internally: detection-event
//! extraction and vertex mapping, matcher pass 1 on uniform weights, and for
//! a struck window the selective re-weight, matcher pass 2 and the re-weight
//! back to uniform (which the context does lazily at the next window).

use crate::report::{mean, Report};
use q3de::decoder::{
    DecodeOutcome, DecoderBackend, DecoderContext, DetectionEvent, ReExecutionOutcome,
    SpaceTimeGraph, WeightModel,
};
use q3de::lattice::MatchingGraph;
use q3de::sim::{StreamWindow, WindowSource};
use std::time::Instant;

/// Decodes `window` of `source` with `decode_with_rollback` at base rate
/// `rate`, handing the ground-truth regions of a struck window to pass 2.
pub fn decode_window(
    rate: f64,
    context: &mut DecoderContext,
    source: &WindowSource,
    window: &StreamWindow,
) -> ReExecutionOutcome {
    let regions = window.struck().then_some(window.regions.as_slice());
    context.decode_with_rollback(
        source.graph(),
        rate,
        &window.history,
        regions,
        window.window_start_cycle,
    )
}

/// Whether every detection event of `outcome` is matched exactly once, to
/// another event or to the boundary.
pub fn outcome_is_perfect(outcome: &DecodeOutcome) -> bool {
    let mut covered: Vec<DetectionEvent> = outcome
        .pairs
        .iter()
        .flat_map(|pair| [pair.a, pair.b])
        .chain(outcome.boundary_matches.iter().map(|m| m.0))
        .collect();
    covered.sort_unstable();
    let mut events = outcome.events.clone();
    events.sort_unstable();
    covered == events
}

/// Both passes of a rollback decode are perfect matchings.
pub fn rollback_is_perfect(outcome: &ReExecutionOutcome) -> bool {
    outcome_is_perfect(&outcome.first_pass)
        && outcome.second_pass.as_ref().is_none_or(outcome_is_perfect)
}

/// The summed minimum matching weight of both passes.
pub fn rollback_weight(outcome: &ReExecutionOutcome) -> f64 {
    outcome.first_pass.total_weight + outcome.second_pass.as_ref().map_or(0.0, |p| p.total_weight)
}

/// Per-stage seconds and counts of one staged decode.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    /// `detection_events` plus `SpaceTimeGraph::vertex_of` per event.
    pub extract: f64,
    /// Both selective re-weights (to anomaly-aware and back).
    pub reweight: f64,
    /// Matcher pass 1 (uniform weights).
    pub pass1: f64,
    /// Matcher pass 2 (anomaly-aware weights), struck windows only.
    pub pass2: f64,
    /// Defects (detection events) in the window.
    pub defects: usize,
    /// Whether pass 2 ran.
    pub rolled_back: bool,
    /// Summed matching weight of both passes.
    pub weight: f64,
}

/// Stage times summed over the windows of a traced run.
#[derive(Debug, Default)]
pub struct StageTotals {
    windows: usize,
    quiet: usize,
    struck: usize,
    rolled_back: usize,
    defects: usize,
    extract: f64,
    reweight: f64,
    pass1_quiet: f64,
    pass1_struck: f64,
    pass2: f64,
}

impl StageTotals {
    /// Adds one staged decode of `window`, checking its matching weight
    /// equals `expected`, the weight `decode_with_rollback` found for it.
    pub fn add(
        &mut self,
        window: &StreamWindow,
        stages: &StageTimes,
        expected: f64,
        report: &mut Report,
    ) {
        self.windows += 1;
        self.rolled_back += usize::from(stages.rolled_back);
        self.defects += stages.defects;
        self.extract += stages.extract;
        self.reweight += stages.reweight;
        self.pass2 += stages.pass2;
        if window.struck() {
            self.struck += 1;
            self.pass1_struck += stages.pass1;
        } else {
            self.quiet += 1;
            self.pass1_quiet += stages.pass1;
        }
        report.attempted += 1;
        if (stages.weight - expected).abs() > 1e-9 * expected.abs().max(1.0) {
            report.failed += 1;
            report.check(
                false,
                format_args!(
                    "staged weight of window {} differs from the context's",
                    window.stream
                ),
            );
        }
    }

    /// Seconds spent in all stages.
    pub fn seconds(&self) -> f64 {
        self.extract + self.reweight + self.pass1_quiet + self.pass1_struck + self.pass2
    }

    /// Records the decoder and matcher per-layer metrics.
    pub fn record(&self, report: &mut Report) {
        let n = self.windows;
        report.metric("decoder.extract_us_per_window", mean(self.extract, n) * 1e6);
        report.metric(
            "decoder.spacetime.reweight_us_per_window",
            mean(self.reweight, n) * 1e6,
        );
        report.metric(
            "matching.pass1_us_quiet",
            mean(self.pass1_quiet, self.quiet) * 1e6,
        );
        report.metric(
            "matching.pass1_us_struck",
            mean(self.pass1_struck, self.struck) * 1e6,
        );
        report.metric(
            "matching.pass2_us_struck",
            mean(self.pass2, self.struck) * 1e6,
        );
        report.metric("decoder.defects_per_window", mean(self.defects as f64, n));
        report.metric("decoder.rollback_frac", mean(self.rolled_back as f64, n));
    }
}

/// A space-time graph and a matcher of one window shape, driven stage by
/// stage.
pub struct StagedDecoder {
    graph: MatchingGraph,
    base_rate: f64,
    uniform: WeightModel,
    spacetime: SpaceTimeGraph,
    backend: Box<dyn DecoderBackend + Send>,
    defects: Vec<usize>,
}

impl StagedDecoder {
    /// A decoder for `layers`-deep windows over `graph` at `base_rate`.
    pub fn new(graph: &MatchingGraph, layers: usize, base_rate: f64) -> Self {
        let uniform = WeightModel::uniform(base_rate);
        Self {
            spacetime: SpaceTimeGraph::build(graph, layers, &uniform),
            graph: graph.clone(),
            base_rate,
            uniform,
            backend: crate::tree_decoder().backend(),
            defects: Vec::new(),
        }
    }

    /// Decodes `window` stage by stage, checking every matching is perfect.
    pub fn decode(&mut self, window: &StreamWindow, report: &mut Report) -> StageTimes {
        let mut times = StageTimes::default();
        let t0 = Instant::now();
        let events = window.history.detection_events();
        self.defects.clear();
        self.defects
            .extend(events.iter().map(|&e| self.spacetime.vertex_of(e)));
        let t1 = Instant::now();
        times.extract = (t1 - t0).as_secs_f64();
        times.defects = events.len();
        // The context returns before touching the graph for a silent window.
        if events.is_empty() {
            return times;
        }
        let first = self
            .backend
            .decode_defects(self.spacetime.graph(), &self.defects);
        times.pass1 = t1.elapsed().as_secs_f64();
        report.check(
            first.is_perfect(self.defects.len()),
            format_args!(
                "pass 1 of window {} is not a perfect matching",
                window.stream
            ),
        );
        times.weight = first.total_cost();
        if window.regions.is_empty() {
            return times;
        }
        times.rolled_back = true;
        let t2 = Instant::now();
        let aware = WeightModel::anomaly_aware(
            self.base_rate,
            window.regions.clone(),
            window.window_start_cycle,
        );
        self.spacetime
            .reweight(&self.graph, Some(&self.uniform), &aware);
        let t3 = Instant::now();
        let second = self
            .backend
            .decode_defects(self.spacetime.graph(), &self.defects);
        let t4 = Instant::now();
        self.spacetime
            .reweight(&self.graph, Some(&aware), &self.uniform);
        let t5 = Instant::now();
        times.reweight = ((t3 - t2) + (t5 - t4)).as_secs_f64();
        times.pass2 = (t4 - t3).as_secs_f64();
        report.check(
            second.is_perfect(self.defects.len()),
            format_args!(
                "pass 2 of window {} is not a perfect matching",
                window.stream
            ),
        );
        times.weight += second.total_cost();
        times
    }
}
