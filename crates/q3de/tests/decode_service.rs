//! Service-level tests of the decode shard: cross-tenant fairness under a
//! backlogged (cosmic-ray-struck) neighbour, bounded queues under
//! overload, and submit-time rejection of windows shaped for another
//! tenant.
//!
//! The fairness claim is pinned two ways: a *deterministic* one — with a
//! single worker and two backlogged tenants the round-robin scheduler must
//! interleave their completions exactly — and a *measured* one, per the
//! issue's "measure it, don't assume it": a quiet tenant's p99 latency in
//! contention with a struck tenant stays within a fixed factor of its solo
//! p99 (with an absolute floor absorbing scheduler wall-clock noise on
//! loaded CI machines).

use q3de::service::{DecodeServer, ServiceConfig, SubmitError};
use q3de::sim::{AnomalyInjection, MemoryExperimentConfig, WindowSource};
use rand_chacha::ChaCha8Rng;

const BASE_RATE: f64 = 5e-3;

fn quiet_source(seed: u64) -> WindowSource {
    WindowSource::new(MemoryExperimentConfig::new(3, BASE_RATE), 0.0, seed).unwrap()
}

fn struck_source(seed: u64) -> WindowSource {
    let config =
        MemoryExperimentConfig::new(3, BASE_RATE).with_anomaly(AnomalyInjection::centered(1, 0.5));
    WindowSource::new(config, 1.0, seed).unwrap()
}

#[test]
fn round_robin_interleaves_backlogged_tenants_deterministically() {
    const WINDOWS: u64 = 6;
    // One worker, paused: both tenants build a full backlog before any
    // window is served, so the completion order is a pure function of the
    // scheduler.
    let server = DecodeServer::new(ServiceConfig::new(1).paused().recording_completion_order());
    let struck = struck_source(0xA);
    let quiet = quiet_source(0xB);
    let noisy_tenant = server.register(struck.graph().clone(), BASE_RATE, 64);
    let quiet_tenant = server.register(quiet.graph().clone(), BASE_RATE, 64);
    let mut last_tickets = Vec::new();
    for stream in 0..WINDOWS {
        let noisy = server
            .submit(noisy_tenant, struck.window::<ChaCha8Rng>(stream))
            .unwrap();
        let quiet = server
            .submit(quiet_tenant, quiet.window::<ChaCha8Rng>(stream))
            .unwrap();
        if stream == WINDOWS - 1 {
            last_tickets = vec![noisy, quiet];
        }
    }
    server.resume();
    for ticket in last_tickets {
        server.wait(ticket);
    }
    // Despite the noisy tenant's expensive rollback windows, service slots
    // must alternate strictly: noisy, quiet, noisy, quiet, ...
    let order = server
        .completion_order()
        .expect("completion-order recording was enabled");
    assert_eq!(order.len() as u64, 2 * WINDOWS);
    for (position, tenant) in order.iter().enumerate() {
        let expected = if position % 2 == 0 {
            noisy_tenant
        } else {
            quiet_tenant
        };
        assert_eq!(
            *tenant, expected,
            "completion {position} went to {tenant}, breaking round-robin"
        );
    }
    let report = server.finish();
    assert_eq!(report.tenants[0].completed, WINDOWS);
    assert_eq!(report.tenants[1].completed, WINDOWS);
}

#[test]
fn backpressure_sheds_at_capacity_and_depth_never_grows() {
    const CAPACITY: usize = 4;
    // Zero workers: nothing drains, so the queue-bound claim is exact.
    let server = DecodeServer::new(ServiceConfig::new(0));
    let source = quiet_source(0xC);
    let tenant = server.register(source.graph().clone(), BASE_RATE, CAPACITY);
    for stream in 0..CAPACITY as u64 {
        server
            .submit(tenant, source.window::<ChaCha8Rng>(stream))
            .expect("queue below capacity must accept");
    }
    for stream in 0..3u64 {
        let error = server
            .submit(tenant, source.window::<ChaCha8Rng>(100 + stream))
            .expect_err("full queue must shed");
        assert_eq!(
            error,
            SubmitError::Backpressure {
                tenant,
                depth: CAPACITY
            }
        );
        assert_eq!(server.queue_depth(tenant), CAPACITY, "depth must not grow");
    }
    let stats = server.stats(tenant);
    assert_eq!(stats.accepted, CAPACITY as u64);
    assert_eq!(stats.shed, 3);
    assert_eq!(stats.max_depth, CAPACITY);
    // finish() with no workers drops the queued windows instead of hanging.
    let report = server.finish();
    assert_eq!(report.tenants[0].completed, 0);
}

#[test]
fn quiet_tenant_p99_is_bounded_under_a_struck_neighbour() {
    const WINDOWS: u64 = 40;
    const BACKLOG: u64 = 60;
    // A generous factor with an absolute floor: the assertion must survive
    // noisy CI wall clocks, while still failing hard for an unfair
    // scheduler that lets the struck backlog starve the quiet tenant
    // (which would multiply its p99 by the whole backlog length).
    const FACTOR: u64 = 25;
    const FLOOR_NS: u64 = 5_000_000;

    // Solo baseline: the quiet tenant alone on a one-worker shard,
    // closed-loop (submit, wait) so latency is service time, not backlog.
    let quiet = quiet_source(0xD);
    let solo_server = DecodeServer::new(ServiceConfig::new(1));
    let solo_tenant = solo_server.register(quiet.graph().clone(), BASE_RATE, 8);
    for stream in 0..WINDOWS {
        let ticket = solo_server
            .submit(solo_tenant, quiet.window::<ChaCha8Rng>(stream))
            .unwrap();
        solo_server.wait(ticket);
    }
    let solo_p99 = solo_server.finish().tenants[0].p99_ns;

    // Contended run: same quiet closed loop, but a struck tenant keeps a
    // deep backlog of expensive rollback windows on the same worker.
    let struck = struck_source(0xE);
    let server = DecodeServer::new(ServiceConfig::new(1).paused());
    let noisy_tenant = server.register(struck.graph().clone(), BASE_RATE, BACKLOG as usize);
    let quiet_tenant = server.register(quiet.graph().clone(), BASE_RATE, 8);
    for stream in 0..BACKLOG {
        server
            .submit(noisy_tenant, struck.window::<ChaCha8Rng>(stream))
            .unwrap();
    }
    server.resume();
    for stream in 0..WINDOWS {
        let ticket = server
            .submit(quiet_tenant, quiet.window::<ChaCha8Rng>(stream))
            .unwrap();
        server.wait(ticket);
    }
    let report = server.finish();
    let contended = &report.tenants[quiet_tenant.index()];
    assert_eq!(contended.completed, WINDOWS);
    assert_eq!(contended.shed, 0);
    let bound = (FACTOR * solo_p99).max(FLOOR_NS);
    assert!(
        contended.p99_ns <= bound,
        "quiet tenant p99 {} ns exceeds {} ns (solo p99 {} ns): \
         the struck neighbour's backlog leaked into the quiet tenant",
        contended.p99_ns,
        bound,
        solo_p99
    );
    // The struck backlog itself must have drained during finish().
    assert_eq!(report.tenants[noisy_tenant.index()].completed, BACKLOG);
}

#[test]
fn shared_shard_builds_each_structure_once() {
    // Two tenants at different distances on one worker: the pool's
    // structure-affine checkout must build exactly one graph per distinct
    // window shape, independent of window count.
    let small = quiet_source(0xF);
    let large = WindowSource::new(MemoryExperimentConfig::new(5, BASE_RATE), 0.0, 0x10).unwrap();
    let server = DecodeServer::new(ServiceConfig::new(1));
    let small_tenant = server.register(small.graph().clone(), BASE_RATE, 32);
    let large_tenant = server.register(large.graph().clone(), BASE_RATE, 32);
    for stream in 0..12u64 {
        server
            .submit(small_tenant, small.window::<ChaCha8Rng>(stream))
            .unwrap();
        server
            .submit(large_tenant, large.window::<ChaCha8Rng>(stream))
            .unwrap();
    }
    let report = server.finish();
    let total_builds: u64 = report.tenants.iter().map(|t| t.graph_builds).sum();
    assert_eq!(
        total_builds, 2,
        "one worker serving two structures must build exactly two graphs"
    );
    assert!(report.tenants.iter().all(|t| t.completed == 12));
}

#[test]
fn malformed_window_is_rejected_at_submit_and_the_shard_keeps_serving() {
    // One worker shared by a d = 3 and a d = 5 tenant.  A d = 5 window
    // submitted to the d = 3 tenant must be refused before it is queued:
    // decoding it would panic the only worker with the tenant marked busy
    // and its context checked out, wedging every other tenant.
    let small = quiet_source(0x11);
    let large = WindowSource::new(MemoryExperimentConfig::new(5, BASE_RATE), 0.0, 0x12).unwrap();
    let server = DecodeServer::new(ServiceConfig::new(1));
    let small_tenant = server.register(small.graph().clone(), BASE_RATE, 8);
    let large_tenant = server.register(large.graph().clone(), BASE_RATE, 8);
    let error = server
        .submit(small_tenant, large.window::<ChaCha8Rng>(0))
        .expect_err("a window shaped for another graph must be rejected");
    assert_eq!(
        error,
        SubmitError::ShapeMismatch {
            tenant: small_tenant,
            expected: small.graph().num_nodes(),
            got: large.graph().num_nodes(),
        }
    );
    assert_eq!(server.queue_depth(small_tenant), 0);
    let ticket = server
        .submit(large_tenant, large.window::<ChaCha8Rng>(1))
        .expect("a well-shaped window is accepted");
    server.wait(ticket);
    let report = server.finish();
    assert_eq!(report.tenants[large_tenant.index()].completed, 1);
    let bad = &report.tenants[small_tenant.index()];
    assert_eq!((bad.accepted, bad.shed, bad.completed), (0, 0, 0));
}
