//! Decode-service capacity sweep: how many tenants can one decoder shard
//! carry before the tail-latency SLO breaks?
//!
//! Each cell of the sweep runs a fresh [`DecodeServer`] shard with a fixed
//! worker count and ramps the load along two axes: the number of tenants
//! multiplexed onto the shard, and the per-window cosmic-ray strike rate
//! (struck windows take the expensive two-pass rollback path).  Tenants
//! run in lock-step rounds — every tenant submits one window, then all
//! wait — so the measured latency is contention latency at a fixed
//! offered load, not queue-buildup latency.  A cell *breaks* the SLO when
//! its worst tenant's p99 exceeds `--slo-us`; for each strike rate the
//! first breaking tenant count is the shard's capacity knee.
//!
//! The per-cell service reports are also serialized through
//! [`ServiceReport::to_json`] and re-parsed with the engine's JSON parser
//! as a self-check (schema version, one entry per tenant, finite p999,
//! completed counts) — the CI smoke job relies on the binary exiting
//! non-zero when that validation fails.
//!
//! Run with `--help` for the flag set (`--samples` is windows per tenant;
//! `--workers` and `--slo-us` shape the shard under test).

use q3de::decoder::DecoderConfig;
use q3de::service::{DecodeServer, ServiceConfig, ServiceReport, SERVICE_SCHEMA_VERSION};
use q3de::sim::engine::json::{check_schema_version, JsonValue};
use q3de::sim::{AnomalyInjection, MemoryExperimentConfig, WindowSource};
use q3de_bench::{format_row, Cli};
use rand_chacha::ChaCha8Rng;

/// One sweep cell: a fresh shard at (`tenants`, `strike_rate`), driven for
/// `windows` lock-step rounds.  Returns the final service report.
fn run_cell(
    workers: usize,
    decoder: DecoderConfig,
    tenants: usize,
    strike_rate: f64,
    windows: u64,
    base_seed: u64,
) -> ServiceReport {
    let distance = 3;
    let rate = 5e-3;
    let sources: Vec<WindowSource> = (0..tenants)
        .map(|tenant| {
            let mut config = MemoryExperimentConfig::new(distance, rate);
            if strike_rate > 0.0 {
                config = config.with_anomaly(AnomalyInjection::centered(1, 0.5));
            }
            WindowSource::new(config, strike_rate, base_seed.wrapping_add(tenant as u64))
                .expect("valid service config")
        })
        .collect();
    let server = DecodeServer::new(ServiceConfig::new(workers).with_decoder(decoder));
    let handles: Vec<_> = sources
        .iter()
        .map(|source| server.register(source.graph().clone(), rate, tenants.max(4)))
        .collect();
    for round in 0..windows {
        let tickets: Vec<_> = handles
            .iter()
            .zip(&sources)
            .map(|(&tenant, source)| {
                server
                    .submit(tenant, source.window::<ChaCha8Rng>(round))
                    .expect("lock-step load never outruns the queue")
            })
            .collect();
        for ticket in tickets {
            server.wait(ticket);
        }
    }
    server.finish()
}

/// Validates a cell report through the engine JSON parser: the schema
/// version, one entry per each of the cell's `tenants`, and per tenant a
/// finite p999 and all `windows` completed.  `main` exits non-zero on an
/// error so CI catches schema rot.
fn validate(report: &ServiceReport, tenants: usize, windows: u64) -> Result<(), String> {
    let doc =
        JsonValue::parse(&report.to_json()).map_err(|error| format!("not valid JSON: {error}"))?;
    check_schema_version(&doc, SERVICE_SCHEMA_VERSION, "service report")?;
    let entries = doc
        .get("service")
        .and_then(|s| s.get("tenants"))
        .and_then(JsonValue::as_array)
        .ok_or("no tenants array")?;
    if entries.len() != tenants {
        return Err(format!(
            "{} tenant entries, expected {tenants}",
            entries.len()
        ));
    }
    for tenant in entries {
        let p999 = tenant.get("p999_ns").and_then(JsonValue::as_f64);
        let completed = tenant.get("completed").and_then(JsonValue::as_usize);
        if !p999.is_some_and(f64::is_finite) || completed != Some(windows as usize) {
            return Err(format!(
                "p999={p999:?} completed={completed:?} (expected {windows} windows)"
            ));
        }
    }
    Ok(())
}

fn main() {
    let (args, extras) = Cli::new(
        "fig_service",
        "decode-service capacity sweep: tenants per shard before the tail-latency SLO breaks",
        48,
    )
    .flag(
        "--workers",
        "N",
        "decode worker threads per shard (default 2)",
    )
    .flag(
        "--slo-us",
        "X",
        "p99 latency SLO in microseconds (default 2000)",
    )
    .parse();
    let workers = extras
        .require("--workers", "an integer >= 1", |n: &usize| *n >= 1)
        .unwrap_or(2);
    let slo_us = extras
        .require("--slo-us", "a number > 0", |x: &f64| *x > 0.0)
        .unwrap_or(2_000.0);

    let tenant_counts = [1usize, 2, 4, 8];
    let strike_rates = [0.0f64, 0.5];
    let windows = args.samples as u64;
    let decoder = DecoderConfig::default().with_matcher(args.matcher);

    args.human(format!(
        "Service sweep: {workers}-worker shard, {windows} windows/tenant, \
         p99 SLO {slo_us} us, {} matcher, seed {}",
        args.matcher.name(),
        args.seed
    ));
    args.human(format_row(
        "tenants x strike",
        &[
            format!("{:>10}", "p50 us"),
            format!("{:>10}", "p99 us"),
            format!("{:>10}", "p999 us"),
            format!("{:>8}", "shed"),
            format!("{:>8}", "builds"),
            format!("{:>8}", "verdict"),
        ],
    ));

    let mut knees: Vec<(f64, Option<usize>)> = Vec::new();
    for (si, &strike_rate) in strike_rates.iter().enumerate() {
        let mut knee = None;
        for &tenants in &tenant_counts {
            let base_seed = args.stream_seed((si * 1000 + tenants) as u64);
            let report = run_cell(workers, decoder, tenants, strike_rate, windows, base_seed);
            if let Err(error) = validate(&report, tenants, windows) {
                eprintln!("service report failed validation: {error}");
                std::process::exit(1);
            }
            let worst_p99 = report.tenants.iter().map(|t| t.p99_ns).max().unwrap_or(0);
            let worst_p999 = report.tenants.iter().map(|t| t.p999_ns).max().unwrap_or(0);
            let median_p50 = report.tenants.iter().map(|t| t.p50_ns).max().unwrap_or(0);
            let shed: u64 = report.tenants.iter().map(|t| t.shed).sum();
            let builds: u64 = report.tenants.iter().map(|t| t.graph_builds).sum();
            let slo_met = worst_p99 as f64 / 1000.0 <= slo_us;
            if !slo_met && knee.is_none() {
                knee = Some(tenants);
            }
            args.human(format_row(
                &format!("{tenants} x p_strike={strike_rate}"),
                &[
                    format!("{:>10.1}", median_p50 as f64 / 1000.0),
                    format!("{:>10.1}", worst_p99 as f64 / 1000.0),
                    format!("{:>10.1}", worst_p999 as f64 / 1000.0),
                    format!("{shed:>8}"),
                    format!("{builds:>8}"),
                    format!("{:>8}", if slo_met { "ok" } else { "BREAK" }),
                ],
            ));
            if args.json {
                println!(
                    "{{\"figure\":\"service\",\"workers\":{workers},\"tenants\":{tenants},\
                     \"strike_rate\":{strike_rate},\"windows\":{windows},\
                     \"worst_p50_us\":{},\"worst_p99_us\":{},\"worst_p999_us\":{},\
                     \"shed\":{shed},\"graph_builds\":{builds},\
                     \"slo_us\":{slo_us},\"slo_met\":{slo_met}}}",
                    median_p50 as f64 / 1000.0,
                    worst_p99 as f64 / 1000.0,
                    worst_p999 as f64 / 1000.0,
                );
            }
        }
        knees.push((strike_rate, knee));
    }

    args.human(String::new());
    for (strike_rate, knee) in &knees {
        match knee {
            Some(tenants) => args.human(format!(
                "knee @ p_strike={strike_rate}: p99 SLO breaks at {tenants} tenants \
                 on {workers} workers"
            )),
            None => args.human(format!(
                "knee @ p_strike={strike_rate}: SLO holds through {} tenants",
                tenant_counts.last().unwrap()
            )),
        }
        if args.json {
            println!(
                "{{\"figure\":\"service_knee\",\"workers\":{workers},\
                 \"strike_rate\":{strike_rate},\"knee_tenants\":{}}}",
                knee.map_or("null".into(), |t| t.to_string())
            );
        }
    }
    args.human(
        "\nExpected shape: latency grows with tenants/worker and with the strike rate \
         (rollback windows cost two passes); graph builds stay flat in the window count \
         because the shard's context pool keeps one warm graph per structure.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_requires_one_healthy_entry_per_tenant() {
        let windows = 4;
        let mut report = run_cell(1, DecoderConfig::default(), 2, 0.5, windows, 7);
        assert_eq!(validate(&report, 2, windows), Ok(()));
        assert!(validate(&report, 2, windows + 1).is_err());
        report.tenants.pop();
        assert!(validate(&report, 2, windows).is_err());
        report.tenants.clear();
        assert!(validate(&report, 2, windows).is_err());
    }
}
