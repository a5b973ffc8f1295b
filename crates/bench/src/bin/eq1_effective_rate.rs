//! Section III-A / Eq. (1): the effective logical error rate increase caused
//! by cosmic-ray MBBEs under the McEwen et al. parameters.
//!
//! The MBBE-free and the during-MBBE (blind) rates run as two points on the
//! shared sweep engine, so `--matcher`, `--threads`, `--target-rse`,
//! `--checkpoint`/`--resume` and `--report` apply as in every figure binary.
//! `--json` prints one line with both per-cycle rates, their Wilson bounds,
//! the effective rate and the increase ratio.  Run with `--help` for the
//! shared engine flag set.

use q3de::noise::PhysicalParams;
use q3de::sim::engine::SweepPoint;
use q3de::sim::{AnomalyInjection, DecodingStrategy, EstimateResult, MemoryExperimentConfig};
use q3de_bench::Cli;
use rand_chacha::ChaCha8Rng;

/// [`EstimateResult::logical_error_rate_per_cycle`] of a per-shot rate, for
/// the Wilson bounds (the map is monotone, so bounds stay bounds).
fn per_cycle(per_shot: f64, rounds: usize) -> f64 {
    1.0 - (1.0 - per_shot.min(1.0 - 1e-15)).powf(1.0 / rounds as f64)
}

fn main() {
    let (args, _) = Cli::new(
        "eq1_effective_rate",
        "effective logical error rate increase under cosmic-ray MBBEs (Eq. 1)",
        500,
    )
    .parse();
    let params = PhysicalParams::mcewen();
    let (d, p) = (7, 8e-3);
    let config = MemoryExperimentConfig::new(d, p)
        .with_anomaly(AnomalyInjection::centered(4, 0.5))
        .with_matcher(args.matcher);
    let point = |id: &str, strategy, salt| {
        SweepPoint::from_memory::<ChaCha8Rng>(id, config, strategy, args.stream_seed(salt))
            .expect("valid distance")
    };
    let report = args.run_sweep(vec![
        point("eq1/free", DecodingStrategy::MbbeFree, 0),
        point("eq1/blind", DecodingStrategy::Blind, 1),
    ]);

    // Per-cycle [rate, Wilson low, Wilson high] and the shot count of a point.
    let rates = |id: &str| {
        let point = report.point(id).expect("point ran");
        let (shots, failures) = (point.shots, point.failures);
        let rate = EstimateResult {
            shots,
            failures,
            rounds: d,
        }
        .logical_error_rate_per_cycle();
        let (low, high) = point.wilson();
        ([rate, per_cycle(low, d), per_cycle(high, d)], shots)
    };
    let (free, free_shots) = rates("eq1/free");
    let (blind, blind_shots) = rates("eq1/blind");
    let (p_l, p_l_ano) = (free[0].max(1e-9), blind[0].max(1e-9));
    let effective = params.effective_logical_error_rate(p_l, p_l_ano);
    let ratio = effective / p_l;

    args.human(format!(
        "Eq. (1) effective logical error rate (d={d}, p={p}, {free_shots}/{blind_shots} shots)\n  \
         p_L (MBBE free)       = {p_l:.3e}  [{:.3e}, {:.3e}]\n  \
         p_L,ano (during MBBE) = {p_l_ano:.3e}  [{:.3e}, {:.3e}]\n  \
         duty cycle f*tau      = {:.3}\n  \
         effective rate        = {effective:.3e}\n  \
         increase ratio        = {ratio:.1}x\n\
         (the paper quotes an increase of about 100x on average for long-lived logical qubits)",
        free[1],
        free[2],
        blind[1],
        blind[2],
        params.anomaly_duty_cycle()
    ));
    if args.json {
        println!(
            "{{\"figure\":\"eq1\",\"d\":{d},\"p\":{p},\"free_shots\":{free_shots},\
             \"blind_shots\":{blind_shots},\"p_l\":{},\"p_l_wilson\":[{},{}],\
             \"p_l_ano\":{},\"p_l_ano_wilson\":[{},{}],\"effective\":{effective},\"ratio\":{ratio}}}",
            free[0], free[1], free[2], blind[0], blind[1], blind[2]
        );
    }
}
