//! The Q3DE repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload burst_rollback_d11 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three workloads, each single-process with at most two busy threads and
//! every exact decode on the alternating-tree matcher:
//!
//! * `packed_d3` — the fig3 batch path: cold [`PackedShotBatch`]es run
//!   64-lane groups on one thread.  Sampling and the verdict memo do most of
//!   the work; the matcher does little.  A shot is one d=3 window, so
//!   `windows_per_s` is shots per second here and the latencies are those
//!   of one 64-shot `run_group` call.
//! * `burst_rollback_d11` — a closed loop of d=11 windows, 60 % of them
//!   struck, through `DecoderContext::decode_with_rollback` on one warm
//!   context.  The matcher dominates (both passes) and the in-place
//!   re-weight runs; quiet windows skip pass 2 and the re-weight.
//! * `service_mixed` — an open loop at a seeded Poisson schedule into one
//!   `DecodeServer` (1 worker, 4 tenants of two shapes).  The only workload
//!   that touches the scheduler lock, queueing, head-of-line blocking and
//!   structure-affine context reuse.  Besides the generator and the worker,
//!   four waiter threads sit blocked in `DecodeServer::wait` to time
//!   completions.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the same
//! public calls one by one, timing each layer, and prints the per-layer
//! metrics; their counts repeat exactly for a seed, except the service's
//! queue depth, which depends on timing.  Every run checks its outputs
//! (perfect matchings, the stored matching-weight and failure-rate
//! references, packed-vs-scalar replay, traced stage times within 10 % of
//! the untraced time) and exits non-zero when a check fails.  Shed,
//! invalid and check-failing operations count in `failed`.  The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Each workload runs the same work pass after pass for `--seconds` (the
//! seed's cold batch, the seed's first 1500 windows, the seed's 5 s
//! schedule) and reports each operation's fastest pass (see
//! [`report::FastestPass`]): other tenants of a shared machine only ever
//! slow an operation, while a change to the code slows every pass.
//!
//! `--calibrate` recomputes the stored references of `reference.rs`.
//!
//! [`PackedShotBatch`]: q3de::sim::PackedShotBatch

mod burst;
mod packed;
mod reference;
mod report;
mod service;
mod stages;

use q3de::decoder::{DecoderConfig, MatcherKind};
use report::Report;
use std::process::ExitCode;

/// The one decoder configuration every exact decode of the benchmark uses.
pub fn tree_decoder() -> DecoderConfig {
    DecoderConfig::default().with_matcher(MatcherKind::Tree)
}

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["packed_d3", "burst_rollback_d11", "service_mixed"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1> [--calibrate]",
        WORKLOADS.join("|")
    )
}

fn parse() -> Result<(String, Args, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut calibrate = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--calibrate" {
            calibrate = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let args = Args {
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    };
    Ok((workload, args, calibrate))
}

fn main() -> ExitCode {
    let (workload, args, calibrate) = match parse() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if calibrate {
        match workload.as_str() {
            "packed_d3" => packed::calibrate(),
            "burst_rollback_d11" => burst::calibrate(),
            _ => service::calibrate(),
        }
        return ExitCode::SUCCESS;
    }
    let mut report = Report::new(args.trace);
    match workload.as_str() {
        "packed_d3" => packed::run(args, &mut report),
        "burst_rollback_d11" => burst::run(args, &mut report),
        _ => service::run(args, &mut report),
    }
    report.finish()
}
