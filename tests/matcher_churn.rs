//! Event-queue churn and wake pins for the alternating-tree matcher.
//!
//! The matcher keeps at most one live event per source and re-schedules
//! only the nodes whose growth rate rose, so most events it pops are still
//! due when they come off the queue, and a structural change wakes few
//! nodes.  This test decodes both passes of seeded d = 11 struck windows
//! (the blind pass on uniform weights, then a second pass on the weights
//! `WeightModel::anomaly_aware` gives the window's regions) and pins two
//! ratios read from the backend's cumulative counters:
//!
//! * popped to acted-on events: about 2.2x here.  A queue that fills with
//!   superseded entries again — one pushed copy per re-schedule — pops
//!   over 10x as many as it acts on.
//! * nodes woken to acted-on events: about 0.9x here.  Waking every node
//!   whose rate *changed*, falls included, gives about 2.0x.
//!
//! Only window 0 is decoded on anomaly-aware weights in its second pass.
//! `WindowSource` gives every struck window its region at absolute onset
//! 0, while window `w` starts at cycle `12 w`, so for `w >= 1` the region
//! lies before the window and the second pass repeats the blind one (see
//! `struck_windows_after_the_first_reweight_some_edges`, ignored until
//! that is fixed).

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
    let per_acted = |n: u64| n as f64 / c.events_acted as f64;
    assert!(
        c.events_popped <= 3 * c.events_acted,
        "popped {} events for {} acted ({:.2}x)",
        c.events_popped,
        c.events_acted,
        per_acted(c.events_popped)
    );
    assert!(
        5 * c.nodes_woken <= 6 * c.events_acted,
        "woke {} nodes for {} acted events ({:.2}x)",
        c.nodes_woken,
        c.events_acted,
        per_acted(c.nodes_woken)
    );
}
