//! Criterion bench comparing the three decoding backends (the exact
//! alternating-tree matcher, greedy and union-find) on identical syndrome
//! rounds across code distances 3–15.
//!
//! The benched kernel is the post-anomaly *re-execution* decode — a full
//! syndrome window with a centred MBBE and anomaly-aware re-weighted edge
//! costs — which is the hottest path of the Q3DE pipeline and the regime in
//! which the decoder-hardware scaling analysis (Sec. VII) assumes
//! near-linear decoding.  In normal mode the bench also prints the measured
//! per-round times of the exact tree matcher vs union-find and greedy at
//! d = 11; `-- --test` runs a one-iteration smoke pass.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use q3de::decoder::{DecoderConfig, MatcherKind, SurfaceDecoder, SyndromeHistory, WeightModel};
use q3de::lattice::{ErrorKind, MatchingGraph};
use q3de::sim::{AnomalyInjection, DecodingStrategy, MemoryExperiment, MemoryExperimentConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const PHYSICAL_ERROR_RATE: f64 = 1e-2;

/// One benchmark fixture: the layer graph, a sampled syndrome window with an
/// injected burst, and the anomaly-aware weight model of the rollback pass.
struct Fixture {
    graph: MatchingGraph,
    history: SyndromeHistory,
    model: WeightModel,
}

/// Samples a `d`-round memory window under uniform noise plus a centred
/// burst, through the same `MemoryExperiment::sample_history` kernel the
/// Monte-Carlo shots decode.
fn fixture(d: usize, seed: u64) -> Fixture {
    let config = MemoryExperimentConfig::new(d, PHYSICAL_ERROR_RATE)
        .with_anomaly(AnomalyInjection::centered(2, 0.5));
    let experiment = MemoryExperiment::new(config).expect("valid distance");
    let graph = experiment.code().matching_graph(ErrorKind::X);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (history, _) = experiment.sample_history(DecodingStrategy::AnomalyAware, &mut rng);
    let model = experiment.weight_model(DecodingStrategy::AnomalyAware);
    Fixture {
        graph,
        history,
        model,
    }
}

fn bench_matcher_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher_throughput");
    group.sample_size(10);
    for d in [3usize, 5, 7, 9, 11, 13, 15] {
        let fix = fixture(d, 0x03DE);
        for kind in MatcherKind::ALL {
            group.bench_function(format!("d{d}/{}", kind.name()), |b| {
                // One decoder per bench: iterations decode on a warm context,
                // which is exactly how the Monte-Carlo kernels run it.
                let mut decoder = SurfaceDecoder::with_config(
                    &fix.graph,
                    DecoderConfig::default().with_matcher(kind),
                );
                b.iter(|| black_box(decoder.decode(&fix.history, &fix.model)));
            });
        }
    }
    group.finish();

    // Measured speedup artifact (skipped in `-- --test` smoke mode).
    if !std::env::args().any(|a| a == "--test") {
        report_speedup(11);
    }
}

/// Times the exact tree matcher vs the union-find and greedy backends on
/// the same d-distance window and prints the per-round decode times and
/// the approximate backends' speedups over the tree.
fn report_speedup(d: usize) {
    let fix = fixture(d, 7);
    let time = |kind: MatcherKind, iters: u32| {
        let mut decoder =
            SurfaceDecoder::with_config(&fix.graph, DecoderConfig::default().with_matcher(kind));
        // warm-up
        black_box(decoder.decode(&fix.history, &fix.model));
        let start = Instant::now();
        for _ in 0..iters {
            black_box(decoder.decode(&fix.history, &fix.model));
        }
        start.elapsed().as_secs_f64() / iters as f64
    };
    let tree = time(MatcherKind::Tree, 50);
    let union_find = time(MatcherKind::UnionFind, 50);
    let greedy = time(MatcherKind::Greedy, 10);
    let per_round = |t: f64| t / d as f64 * 1e6;
    println!(
        "speedup: d={d} tree {:.1} us/round, union-find {:.1} us/round ({:.2}x), \
         greedy {:.1} us/round ({:.2}x)",
        per_round(tree),
        per_round(union_find),
        tree / union_find,
        per_round(greedy),
        tree / greedy
    );
}

criterion_group!(benches, bench_matcher_throughput);
criterion_main!(benches);
