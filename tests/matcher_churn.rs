//! Event-queue churn pin for the alternating-tree matcher.
//!
//! The matcher keeps at most one live event per source and re-schedules
//! only the nodes whose growth rate changed, so most events it pops are
//! still due when they come off the queue.  This test decodes both passes
//! of seeded d = 11 struck windows (the blind pass on uniform weights, the
//! rollback pass on anomaly-aware weights) and pins the ratio of popped to
//! acted-on events, read from the backend's cumulative counters: about
//! 2.4x here.  A queue that fills with superseded entries again — one
//! pushed copy per re-schedule — pops over 10x as many as it acts on.

use q3de::decoder::{SpaceTimeGraph, WeightModel};
use q3de::matching::{AltTreeBackend, DecoderBackend};
use q3de::sim::{AnomalyInjection, MemoryExperimentConfig, WindowSource};
use rand_chacha::ChaCha8Rng;

const RATE: f64 = 5e-3;

/// Decodes one window's passes on `backend` and checks each matching is
/// perfect.
fn decode_passes(backend: &mut AltTreeBackend, source: &WindowSource, stream: u64) {
    let window = source.window::<ChaCha8Rng>(stream);
    assert!(window.struck(), "strike rate 1 strikes every window");
    let events = window.history.detection_events();
    let layers = window.history.num_layers();
    for model in [
        WeightModel::uniform(RATE),
        WeightModel::anomaly_aware(RATE, window.regions.clone(), window.window_start_cycle),
    ] {
        let graph = SpaceTimeGraph::build(source.graph(), layers, &model);
        let defects: Vec<usize> = events.iter().map(|&e| graph.vertex_of(e)).collect();
        let matching = backend.decode_defects(graph.graph(), &defects);
        assert!(matching.is_perfect(defects.len()), "window {stream}");
    }
}

#[test]
fn struck_d11_windows_pop_few_stale_events() {
    let config =
        MemoryExperimentConfig::new(11, RATE).with_anomaly(AnomalyInjection::centered(4, 0.5));
    let source = WindowSource::new(config, 1.0, 0x03DE).expect("d = 11 is a valid distance");
    let mut backend = AltTreeBackend::new();
    for stream in 0..4 {
        decode_passes(&mut backend, &source, stream);
    }
    let c = backend.counters();
    assert!(c.events_acted > 0 && c.blossoms_formed > 0, "{c:?}");
    assert!(
        c.events_popped <= 3 * c.events_acted,
        "popped {} events for {} acted ({:.2}x)",
        c.events_popped,
        c.events_acted,
        c.events_popped as f64 / c.events_acted as f64
    );
}
