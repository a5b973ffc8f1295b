//! `service_mixed`: one `DecodeServer` with 1 worker and 4 tenants — two
//! quiet d=7 tenants, one d=7 and one d=9 tenant struck at 0.3 — fed by an
//! open loop.  The main thread is the generator: it submits round-robin on a
//! seeded Poisson schedule at 2000 windows/s.  Each window is timed from its
//! due time to its completion.  The untraced run plays the same 5 s
//! schedule pass after pass, on the same warm server, and reports each
//! window's fastest pass.

use crate::report::{
    another_pass, derive_seed, mean, peak_rss_mb, quantile, FastestPass, Report, SetupTimes,
};
use crate::stages::{
    decode_window, rollback_is_perfect, rollback_weight, StageTotals, StagedDecoder,
};
use crate::{reference, tree_decoder, Args};
use q3de::decoder::DecoderContext;
use q3de::sim::{AnomalyInjection, MemoryExperimentConfig, StreamWindow, WindowSource};
use q3de::{DecodeRequest, DecodeServer, ServiceConfig, ServiceReport, TenantId, WindowTicket};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const RATE: f64 = 5e-3;
const ARRIVALS_PER_SECOND: f64 = 2000.0;
const QUEUE_CAPACITY: usize = 64;
/// `(distance, strike rate)` per tenant.
const TENANTS: [(usize, f64); 4] = [(7, 0.0), (7, 0.0), (7, 0.3), (9, 0.3)];
/// Seconds of due times in the schedule, which the untraced run plays pass
/// after pass: 10000 windows, so the p99 has 100 windows beyond it.
const PASS_S: f64 = 5.0;
/// Set-ups timed after each pass, while the measured server is idle: a
/// server cannot be started next to a working one without taking its
/// worker's core.
const SETUPS_PER_PASS: usize = 12;
/// The generator spins (yielding) for the last this many seconds before a
/// due time and sleeps before that.
const SPIN_S: f64 = 100e-6;
/// Standalone untraced and staged decodes alternate every this many windows.
const TRACE_CHUNK: usize = 200;

fn source(tenant: usize, seed: u64) -> WindowSource {
    let (distance, strike_rate) = TENANTS[tenant];
    let mut config = MemoryExperimentConfig::new(distance, RATE)
        .with_anomaly(AnomalyInjection::centered(2, 0.5));
    config.decoder = tree_decoder();
    WindowSource::new(config, strike_rate, derive_seed(seed, tenant as u64))
        .expect("d = 7 and d = 9 are valid distances")
}

fn sources(seed: u64) -> Vec<WindowSource> {
    (0..TENANTS.len()).map(|t| source(t, seed)).collect()
}

/// A decoder context per window shape: d=7 (three tenants) and d=9.
fn contexts() -> Vec<DecoderContext> {
    (0..2)
        .map(|_| DecoderContext::new(tree_decoder()))
        .collect()
}

fn shape(tenant: usize) -> usize {
    usize::from(TENANTS[tenant].0 != TENANTS[0].0)
}

fn start_server(sources: &[WindowSource], warm: &[StreamWindow]) -> (DecodeServer, Vec<TenantId>) {
    let server = DecodeServer::new(ServiceConfig::new(1).with_decoder(tree_decoder()));
    let tenants: Vec<TenantId> = sources
        .iter()
        .map(|source| server.register(source.graph().clone(), RATE, QUEUE_CAPACITY))
        .collect();
    // One window per tenant builds each shape's graph before measuring.
    let mut tickets = Vec::new();
    for (&tenant, window) in tenants.iter().zip(warm) {
        tickets.push(
            server
                .submit(tenant, window.clone())
                .expect("an empty queue accepts a window"),
        );
    }
    for ticket in tickets {
        server.wait(ticket);
    }
    (server, tenants)
}

/// What the open loop observed, per submitted window in submission order.
struct OpenLoop {
    /// Seconds from due time to completion; `None` for shed windows.
    latency: Vec<Option<f64>>,
    /// Seconds the generator started each submission after its due time.
    late: Vec<f64>,
    /// Seconds each `submit` call took.
    submit: Vec<f64>,
    /// Seconds from the first due time to the last completion.
    span: f64,
}

/// Sleeps, then spins, until `start + due`.  A sleep alone overshoots by
/// the timer slack (~50 us), which would show up as generator lateness.
fn pace(start: Instant, due: f64) {
    loop {
        let ahead = due - start.elapsed().as_secs_f64();
        if ahead <= 0.0 {
            return;
        }
        if ahead > SPIN_S {
            std::thread::sleep(Duration::from_secs_f64(ahead - SPIN_S));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Submits every request at its due time.  One waiter thread per tenant
/// blocks in `DecodeServer::wait` on that tenant's tickets in order (each
/// tenant's windows complete in FIFO order) and stamps each completion.
fn open_loop(
    server: &DecodeServer,
    tenants: &[TenantId],
    requests: Vec<DecodeRequest>,
    due: &[f64],
) -> OpenLoop {
    let n = requests.len();
    let mut late = Vec::with_capacity(n);
    let mut submit = Vec::with_capacity(n);
    let mut finished_at = vec![None; n];
    let start = Instant::now();
    std::thread::scope(|scope| {
        let (senders, waiters): (Vec<_>, Vec<_>) = tenants
            .iter()
            .map(|_| {
                let (tickets, inbox) = mpsc::channel::<(usize, WindowTicket)>();
                let waiter = scope.spawn(move || {
                    inbox
                        .into_iter()
                        .map(|(index, ticket)| {
                            server.wait(ticket);
                            (index, Instant::now())
                        })
                        .collect::<Vec<_>>()
                });
                (tickets, waiter)
            })
            .unzip();
        for (index, request) in requests.into_iter().enumerate() {
            pace(start, due[index]);
            let now = start.elapsed().as_secs_f64();
            let tenant = index % tenants.len();
            let t0 = Instant::now();
            let result = server.submit(tenants[tenant], request);
            submit.push(t0.elapsed().as_secs_f64());
            late.push(now - due[index]);
            if let Ok(ticket) = result {
                senders[tenant]
                    .send((index, ticket))
                    .expect("waiter threads outlive the generator");
            }
        }
        drop(senders);
        for waiter in waiters {
            for (index, at) in waiter.join().expect("waiter thread panicked") {
                finished_at[index] = Some((at - start).as_secs_f64());
            }
        }
    });
    let last = finished_at.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
    OpenLoop {
        latency: finished_at
            .iter()
            .zip(due)
            .map(|(f, &d)| f.map(|f| f - d))
            .collect(),
        late,
        submit,
        span: last - due.first().copied().unwrap_or(0.0),
    }
}

/// Tenant counters accrued between two reports.
struct Delta {
    completed: u64,
    shed: u64,
    rolled_back: u64,
    parity_checked: u64,
    failures: u64,
}

fn delta(before: &ServiceReport, after: &ServiceReport) -> Delta {
    let sum = |f: fn(&q3de::TenantReport) -> u64| {
        after.tenants.iter().map(f).sum::<u64>() - before.tenants.iter().map(f).sum::<u64>()
    };
    Delta {
        completed: sum(|t| t.completed),
        shed: sum(|t| t.shed),
        rolled_back: sum(|t| t.rolled_back),
        parity_checked: sum(|t| t.parity_checked),
        failures: sum(|t| t.failures),
    }
}

/// Runs the workload and records its metrics and checks.
pub fn run(args: Args, report: &mut Report) {
    let seed = derive_seed(args.seed, 0xC0);
    let sources = sources(seed);
    let n = (PASS_S * ARRIVALS_PER_SECOND) as usize;

    // Inputs, sampled before set-up: windows round-robin over the tenants
    // and Poisson due times.
    let mut schedule = ChaCha8Rng::seed_from_u64(derive_seed(seed, 0xD0E));
    let mut due = Vec::with_capacity(n);
    let mut t = 1e-3;
    for _ in 0..n {
        t += -(1.0 - schedule.gen::<f64>()).ln() / ARRIVALS_PER_SECOND;
        due.push(t);
    }
    let mut sample = 0.0;
    let windows: Vec<StreamWindow> = (0..n)
        .map(|i| {
            let t0 = Instant::now();
            let window =
                sources[i % TENANTS.len()].window::<ChaCha8Rng>((i / TENANTS.len()) as u64);
            sample += t0.elapsed().as_secs_f64();
            window
        })
        .collect();
    // The same warm-up windows for every seed, so set-up does the same work.
    let warm: Vec<StreamWindow> = self::sources(reference::CHECK_SEED)
        .iter()
        .map(|s| s.window::<ChaCha8Rng>(u64::MAX))
        .collect();

    let mut setups = SetupTimes::default();
    let (server, tenants) = start_server(&sources, &warm);
    // The untraced run plays the schedule pass after pass; the traced run
    // plays it once and then decodes the windows again outside the server.
    let start = Instant::now();
    let mut latency = FastestPass::new(n);
    let mut span = f64::INFINITY;
    let mut first = None;
    let mut pass = 0;
    while pass == 0 || (!args.trace && another_pass(start, pass, args.seconds)) {
        pass += 1;
        let requests: Vec<DecodeRequest> = windows.iter().cloned().map(Into::into).collect();
        let before = server.report();
        let run = open_loop(&server, &tenants, requests, &due);
        let counts = delta(&before, &server.report());

        report.attempted += n as u64;
        report.failed += counts.shed;
        let accepted = run.latency.iter().flatten().count() as u64;
        report.check(
            counts.completed == accepted && counts.shed == n as u64 - accepted,
            format_args!(
                "pass {pass}: {} completed and {} shed of {n} submitted, {accepted} accepted",
                counts.completed, counts.shed
            ),
        );
        report.check(
            counts.parity_checked == counts.completed,
            "every completed window carries its ground-truth parity",
        );
        for (i, l) in run.latency.iter().enumerate() {
            if let Some(l) = *l {
                latency.offer(i, l);
            }
        }
        span = span.min(run.span);
        match &first {
            None => first = Some((run, counts)),
            Some((_, once)) => report.check(
                counts.failures == once.failures,
                format_args!("pass {pass} ended in another number of logical failures"),
            ),
        }
        if !args.trace {
            for _ in 0..SETUPS_PER_PASS {
                setups.time(|| start_server(&sources, &warm));
            }
        }
    }
    let after = server.finish();
    let (run, counts) = first.expect("the schedule is played at least once");
    report.check_failures(
        counts.failures,
        counts.parity_checked,
        reference::SERVICE_FAILURES,
    );

    if args.trace {
        let mut submit: Vec<f64> = run.submit.iter().map(|s| s * 1e6).collect();
        let mut late: Vec<f64> = run.late.iter().map(|s| s * 1e6).collect();
        report.metric("service.submit_us_p99", quantile(&mut submit, 0.99));
        report.metric("service.gen_late_us_p99", quantile(&mut late, 0.99));
        report.metric(
            "service.max_depth",
            after.tenants.iter().map(|t| t.max_depth).max().unwrap_or(0) as f64,
        );
        report.metric(
            "service.graph_builds",
            after.tenants.iter().map(|t| t.graph_builds).sum::<u64>() as f64,
        );
        report.metric(
            "service.rollback_frac",
            mean(counts.rolled_back as f64, counts.completed as usize),
        );
        report.metric("sim.memory.sample_us_per_window", mean(sample, n) * 1e6);
        trace_standalone(report, &sources, &windows, &warm, &run.latency);
    } else {
        report.metric("setup_s", setups.seconds());
        report.metric("windows_per_s", counts.completed as f64 / span);
        report.metric("latency_p50_us", latency.quantile_us(0.50));
        report.metric("latency_p99_us", latency.quantile_us(0.99));
        report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    }
    let sum = check_set_weight(report);
    report.check_weight(sum, reference::SERVICE_CHECK_WEIGHT);
}

/// Decodes every window of the run again outside the server, alternating
/// chunks: untraced `decode_with_rollback` on a warm context per shape, and
/// the staged calls.  The untraced times give each window's decode time,
/// and its latency minus that is its queue wait.
fn trace_standalone(
    report: &mut Report,
    sources: &[WindowSource],
    windows: &[StreamWindow],
    warm: &[StreamWindow],
    latency: &[Option<f64>],
) {
    let mut contexts = contexts();
    let mut staged: Vec<StagedDecoder> = sources
        .iter()
        .map(|s| StagedDecoder::new(s.graph(), s.window_layers(), RATE))
        .collect();
    for (t, window) in warm.iter().enumerate() {
        decode_window(RATE, &mut contexts[shape(t)], &sources[t], window);
        staged[t].decode(window, report);
    }
    let mut decode_us = Vec::with_capacity(windows.len());
    let mut queue_wait_us = Vec::with_capacity(windows.len());
    let mut untraced = 0.0;
    let mut totals = StageTotals::default();
    let mut weights = Vec::new();
    for chunk in (0..windows.len()).step_by(TRACE_CHUNK) {
        let indices = chunk..(chunk + TRACE_CHUNK).min(windows.len());
        weights.clear();
        for i in indices.clone() {
            let t = i % TENANTS.len();
            let t0 = Instant::now();
            let outcome = decode_window(RATE, &mut contexts[shape(t)], &sources[t], &windows[i]);
            let seconds = t0.elapsed().as_secs_f64();
            untraced += seconds;
            decode_us.push(seconds * 1e6);
            if let Some(l) = latency[i] {
                queue_wait_us.push((l - seconds) * 1e6);
            }
            report.check(
                rollback_is_perfect(&outcome),
                format_args!("window {i} is not a perfect matching"),
            );
            weights.push(rollback_weight(&outcome));
        }
        for (i, &expected) in indices.zip(&weights) {
            let stages = staged[i % TENANTS.len()].decode(&windows[i], report);
            totals.add(&windows[i], &stages, expected, report);
        }
    }
    report.metric("service.decode_us_p50", quantile(&mut decode_us, 0.50));
    report.metric("service.decode_us_p99", quantile(&mut decode_us, 0.99));
    report.metric(
        "service.queue_wait_us_p99",
        quantile(&mut queue_wait_us, 0.99),
    );
    totals.record(report);
    report.metric(
        "decoder.graph_builds",
        contexts.iter().map(|c| c.graph_builds()).sum::<u64>() as f64,
    );
    report.metric(
        "decoder.reweights",
        contexts.iter().map(|c| c.reweights()).sum::<u64>() as f64,
    );
    report.tracing_overhead(totals.seconds(), untraced);
}

/// The fixed check set, decoded outside the server: its summed matching
/// weight must equal the stored reference whatever the seed.
fn check_set_weight(report: &mut Report) -> f64 {
    let sources = sources(reference::CHECK_SEED);
    let mut contexts = contexts();
    let mut sum = 0.0;
    for stream in 0..reference::SERVICE_CHECK_WINDOWS {
        for (t, source) in sources.iter().enumerate() {
            let window = source.window::<ChaCha8Rng>(stream);
            let outcome = decode_window(RATE, &mut contexts[shape(t)], source, &window);
            report.check(
                rollback_is_perfect(&outcome),
                format_args!("check window {stream} of tenant {t} is not a perfect matching"),
            );
            sum += rollback_weight(&outcome);
        }
    }
    sum
}

/// Prints this workload's stored references.
pub fn calibrate() {
    let mut scratch = Report::new(false);
    println!(
        "pub const SERVICE_CHECK_WEIGHT: f64 = {:?};",
        check_set_weight(&mut scratch)
    );
    let sources = sources(reference::CALIBRATION_SEED);
    let mut contexts = contexts();
    let (mut failures, mut windows) = (0u64, 0u64);
    for stream in 0..reference::SERVICE_CALIBRATION_WINDOWS {
        for (t, source) in sources.iter().enumerate() {
            let window = source.window::<ChaCha8Rng>(stream);
            let outcome = decode_window(RATE, &mut contexts[shape(t)], source, &window);
            failures += u64::from(
                outcome
                    .final_outcome()
                    .is_logical_failure(window.error_cut_parity),
            );
            windows += 1;
        }
    }
    println!("pub const SERVICE_FAILURES: (u64, u64) = ({failures}, {windows});");
}
