//! Chip-level integration tests (the system acceptance criteria):
//!
//! (a) with no strike, an N-patch chip's per-patch logical error rates
//!     match N independent single-patch runs on the same seeds *exactly*,
//! (b) a seeded strike straddling two patches triggers both patches'
//!     anomaly detectors, and under a spare budget sufficient for only one
//!     expansion the expansion queue grants exactly one
//!     `d_exp ≥ d + 2·d_ano` expansion and queues the other — all
//!     deterministic under fixed seeds.

use q3de::control::queues::ExpansionDecision;
use q3de::decoder::{MatcherKind, SyndromeHistory};
use q3de::lattice::{ChipLayout, Coord, MatchingGraph, PatchIndex};
use q3de::noise::{ChipStrike, NoiseModel};
use q3de::pipeline::PipelineConfig;
use q3de::sim::{
    chip_patch_seed, ChipMemoryExperiment, ChipMemoryExperimentConfig, DecodingStrategy,
    MemoryExperiment, MemoryExperimentConfig,
};
use q3de::system::{SystemConfig, SystemPipeline};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Samples `rounds` noisy syndrome layers for a patch graph under `noise`
/// (data errors persist, ancilla errors flip single measurements) — the
/// same kernel the single-patch end-to-end test uses.
fn sampled_patch_history(
    graph: &MatchingGraph,
    noise: &NoiseModel,
    rounds: usize,
    rng: &mut ChaCha8Rng,
) -> SyndromeHistory {
    let mut flipped = vec![false; graph.num_edges()];
    let mut history = SyndromeHistory::new(graph.num_nodes());
    for t in 0..rounds {
        for (ei, edge) in graph.edges().iter().enumerate() {
            if noise
                .sample_pauli(edge.qubit, t as u64, rng)
                .has_x_component()
            {
                flipped[ei] = !flipped[ei];
            }
        }
        let layer: Vec<bool> = (0..graph.num_nodes())
            .map(|n| {
                let mut parity = graph
                    .incident_edges(n)
                    .iter()
                    .filter(|&&e| flipped[e])
                    .count()
                    % 2
                    == 1;
                if noise
                    .sample_pauli(graph.node(n), t as u64, rng)
                    .has_x_component()
                {
                    parity = !parity;
                }
                parity
            })
            .collect();
        history.push_layer(&layer);
    }
    history
}

#[test]
fn quiet_chip_per_patch_rates_match_independent_single_patch_runs() {
    let patch = MemoryExperimentConfig::new(3, 2e-2);
    let chip = ChipMemoryExperiment::new(ChipMemoryExperimentConfig::new(2, 2, patch))
        .expect("valid chip");
    let shots = 50usize;
    let base_seed = 0x51D5u64;
    // Tally per-patch failures and struck shots over streams 0..shots.
    let mut per_patch_failures = vec![0usize; chip.num_patches()];
    let mut struck_shots = 0usize;
    for stream in 0..shots as u64 {
        let (failures, struck) =
            chip.run_chip_shot::<ChaCha8Rng>(DecodingStrategy::MbbeFree, base_seed, stream);
        for (slot, &failed) in per_patch_failures.iter_mut().zip(&failures) {
            *slot += usize::from(failed);
        }
        struck_shots += usize::from(struck);
    }
    assert_eq!(struck_shots, 0);

    // Exact condition: each patch of the chip run is byte-for-byte the same
    // Monte-Carlo experiment as an independent single-patch run replaying
    // the same seeds, so the failure counts must agree exactly — not just
    // statistically.
    let single = MemoryExperiment::new(patch).expect("valid patch");
    let mut any_failures = 0usize;
    for (patch_i, &chip_run_failures) in per_patch_failures.iter().enumerate() {
        let failures = (0..shots as u64)
            .filter(|&stream| {
                let mut rng =
                    ChaCha8Rng::seed_from_u64(chip_patch_seed(base_seed, stream, patch_i));
                single
                    .run_shot(DecodingStrategy::MbbeFree, &mut rng)
                    .logical_failure
            })
            .count();
        assert_eq!(
            chip_run_failures, failures,
            "patch {patch_i}: chip-run failures diverge from the independent run"
        );
        any_failures += failures;
    }
    // d = 3 at p = 2e-2 fails often enough that the equality above is not
    // vacuously comparing zeros.
    assert!(
        any_failures > 0,
        "the comparison must cover at least one failing stream"
    );
    // Patch streams must be distinct experiments, not one stream copied
    // four times: with 50 shots at this rate, identical per-patch counts on
    // all four patches would be a seeding bug (shared streams), which the
    // seed function rules out.
    for i in 0..chip.num_patches() {
        for j in (i + 1)..chip.num_patches() {
            assert_ne!(
                chip_patch_seed(base_seed, 0, i),
                chip_patch_seed(base_seed, 0, j)
            );
        }
    }
}

/// The straddling-strike arbitration scenario: geometry shared by the two
/// tests below.
struct StraddleScenario {
    system: SystemPipeline,
    histories: Vec<SyndromeHistory>,
}

fn straddle_scenario(spare_budget: usize) -> StraddleScenario {
    // Two distance-7 patches side by side: 13-site footprints, pitch 14.
    // Union-find decoding keeps the 400-layer windows fast; the arbitration
    // flow under test is backend-independent.
    let patch = PipelineConfig::new(7, 1e-3)
        .with_matcher(MatcherKind::UnionFind)
        .with_detection_window(60)
        .with_count_threshold(8)
        .with_assumed_anomaly_size(4)
        // keep = 400: any grant from window 1 (cycles 0..400) survives that
        // window's end-of-window expiry sweep but lapses during window 2
        // (cycles 400..800), as does any still-queued request.
        .with_expansion_keep_cycles(400);
    let system =
        SystemPipeline::new(SystemConfig::new(1, 2, patch, spare_budget)).expect("valid system");

    // A size-4 burst over chip columns 10..18 straddles the boundary: patch
    // (0,0) sees local columns 10..12, patch (0,1) local columns 0..3.  It
    // relaxes at cycle 300, 100 cycles before the window ends, so the
    // detectors' sliding windows drain before the quiet follow-up window.
    let strike = ChipStrike::new(Coord::new(2, 10), 4, 100, 200, 0.5);
    let fan_out = strike.fan_out(system.layout());
    assert_eq!(fan_out.len(), 2, "the strike must straddle both patches");
    assert_eq!(fan_out[0].0, PatchIndex::new(0, 0));
    assert_eq!(fan_out[1].0, PatchIndex::new(0, 1));
    assert_eq!(fan_out[1].1.origin(), Coord::new(2, -4));

    // Sample each patch's 400-cycle window under its fanned-out region,
    // with fixed per-patch seeds.
    let histories: Vec<SyndromeHistory> = fan_out
        .iter()
        .enumerate()
        .map(|(i, (_, region))| {
            let noise = NoiseModel::uniform(1e-3).with_anomaly(*region);
            let mut rng = ChaCha8Rng::seed_from_u64(1_000 * (i as u64 + 1));
            sampled_patch_history(system.patch(i).graph(), &noise, 400, &mut rng)
        })
        .collect();
    StraddleScenario { system, histories }
}

#[test]
fn straddling_strike_grants_one_expansion_and_queues_the_other() {
    // Spare budget for exactly one d = 7 → d_exp = 15 expansion.
    let patch_distance = 7usize;
    let d_ano = 4usize;
    let d_exp = (patch_distance + 2 * d_ano).max(2 * patch_distance);
    let one_expansion = ChipLayout::expansion_cost(patch_distance, d_exp);
    let mut scenario = straddle_scenario(one_expansion);

    let report = scenario.system.process_window(&scenario.histories, 0);

    // (1) Both patches' anomaly detectors fire on the shared burst.
    assert_eq!(
        report.detecting_patches(),
        vec![0, 1],
        "the straddling strike must trigger both patch detectors"
    );
    for patch_report in &report.patch_reports {
        let detection = patch_report.detection.as_ref().expect("detection fired");
        assert!(
            detection.detection_cycle >= 100,
            "no detection before onset"
        );
        assert!(patch_report.decoding.was_rolled_back());
    }

    // (2) Exactly one d_exp ≥ d + 2·d_ano expansion is granted; the other
    // request waits in the expansion queue.
    assert_eq!(report.expansions.len(), 2);
    let granted: Vec<_> = report
        .expansions
        .iter()
        .filter_map(|o| match o.decision {
            ExpansionDecision::Granted(g) => Some((o.patch, g)),
            _ => None,
        })
        .collect();
    let queued: Vec<_> = report
        .expansions
        .iter()
        .filter(|o| matches!(o.decision, ExpansionDecision::Queued { .. }))
        .collect();
    assert_eq!(granted.len(), 1, "the budget covers exactly one expansion");
    assert_eq!(queued.len(), 1, "the other request must queue");
    let (granted_patch, grant) = granted[0];
    assert_eq!(granted_patch, PatchIndex::new(0, 0), "FIFO: patch 0 first");
    assert_eq!(queued[0].patch, PatchIndex::new(0, 1));
    assert!(
        grant.bid.to_distance >= patch_distance + 2 * d_ano,
        "granted d_exp {} violates d + 2·d_ano",
        grant.bid.to_distance
    );
    assert_eq!(grant.bid.cost_qubits, one_expansion);

    let arbiter = scenario.system.arbiter();
    assert_eq!(arbiter.in_use(), one_expansion);
    assert_eq!(arbiter.available(), 0);
    assert_eq!(arbiter.num_pending(), 1);

    // (3) Deterministic under fixed seeds: an identical scenario reproduces
    // the same decisions and detection cycles.
    let mut replay = straddle_scenario(one_expansion);
    let report2 = replay.system.process_window(&replay.histories, 0);
    assert_eq!(report2.detecting_patches(), report.detecting_patches());
    assert_eq!(report2.expansions.len(), report.expansions.len());
    for (a, b) in report.expansions.iter().zip(&report2.expansions) {
        assert_eq!(a.patch, b.patch);
        assert_eq!(a.decision, b.decision);
    }
    for (a, b) in report.patch_reports.iter().zip(&report2.patch_reports) {
        assert_eq!(
            a.detection.as_ref().map(|d| d.detection_cycle),
            b.detection.as_ref().map(|d| d.detection_cycle)
        );
    }

    // (4) Once the granted expansion expires, its qubits return to the
    // pool.  Patch 1's queued request was made at nearly the same cycle
    // with the same keep window, so by now its burst has relaxed too: the
    // arbiter drops the stale request instead of issuing a born-expired
    // grant that would hold the spares for nothing.
    // Noiseless histories: window 2 only advances time past the grant's
    // keep window (background noise can, with small probability, trip the
    // detector again and would re-arm the queued request).
    let quiet: Vec<SyndromeHistory> = (0..scenario.system.num_patches())
        .map(|i| {
            let noise = NoiseModel::uniform(0.0);
            let mut rng = ChaCha8Rng::seed_from_u64(7_000 + i as u64);
            sampled_patch_history(scenario.system.patch(i).graph(), &noise, 400, &mut rng)
        })
        .collect();
    let follow_up = scenario.system.process_window(&quiet, 400);
    assert_eq!(
        follow_up.reclaimed.len(),
        1,
        "the grant expires in window 2"
    );
    assert_eq!(follow_up.reclaimed[0].target, grant.target);
    assert!(
        follow_up.unblocked.is_empty(),
        "the queued request is stale by now and must be dropped, not granted"
    );
    let arbiter = scenario.system.arbiter();
    assert_eq!(arbiter.num_pending(), 0, "the stale request left the queue");
    assert_eq!(arbiter.in_use(), 0, "the whole pool is available again");
}

#[test]
fn doubled_budget_grants_both_straddled_patches() {
    // Complementary check: with spares for two expansions, neither patch
    // waits.
    let (d, d_ano) = (7usize, 4usize);
    let d_exp = (d + 2 * d_ano).max(2 * d);
    let two_expansions = 2 * ChipLayout::expansion_cost(d, d_exp);
    let mut scenario = straddle_scenario(two_expansions);
    let report = scenario.system.process_window(&scenario.histories, 0);
    assert_eq!(report.detecting_patches(), vec![0, 1]);
    assert_eq!(report.num_granted(), 2);
    assert_eq!(report.num_queued(), 0);
    assert_eq!(scenario.system.arbiter().num_pending(), 0);
    assert_eq!(scenario.system.arbiter().available(), 0);
}
