//! Decode-as-a-service: one decoder shard serving many logical chips.
//!
//! A fault-tolerant machine room does not give every logical qubit its own
//! decoder box — a *shard* of decoder workers is multiplexed across many
//! chips (tenants), and the architectural questions move from "can one
//! window be decoded in time" to service-level ones:
//!
//! * **latency** — the time from a syndrome window entering the shard to
//!   its correction being available, measured per tenant as p50/p99/p999
//!   over a log-bucketed [`LatencyHistogram`] (queue wait *included*: a
//!   window that sat behind a backlog is late no matter how fast the
//!   matcher ran),
//! * **backpressure** — every tenant owns a *bounded* queue; a window
//!   arriving at a full queue is shed and counted, never buffered without
//!   limit, so a misbehaving tenant cannot grow server memory,
//! * **fairness** — workers pick tenants round-robin with at most one
//!   in-flight window per tenant, so a tenant with a deep backlog (say,
//!   one hit by a cosmic ray whose windows all take the expensive rollback
//!   path) gets at most its share of service slots while quiet tenants
//!   keep their latency.  Per-tenant FIFO order is preserved by the same
//!   one-in-flight rule.
//!
//! The shard shares one [`ContextPool`]: workers check contexts out with
//! *structure affinity* ([`ContextPool::checkout`]), so a window is
//! decoded on a context whose cached space-time graph already matches its
//! shape whenever one is warm — steady-state operation builds **zero**
//! graphs, and [`TenantReport::graph_builds`] proves it per tenant.
//!
//! [`DecodeServer::finish`] drains the queues and returns a
//! [`ServiceReport`]; dropping the server instead aborts queued work.  The
//! `fig_service` bench ramps tenant count × strike rate over this server
//! until the p99 SLO breaks and prints the knee.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use q3de_decoder::{graph_key, ContextPool, DecoderConfig, SyndromeHistory};
use q3de_lattice::MatchingGraph;
use q3de_noise::AnomalousRegion;
use q3de_sim::StreamWindow;

const SUB_BUCKET_BITS: u32 = 4;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
/// Bucket count for the full u64 nanosecond range at 16 sub-buckets per
/// octave: octaves 4..=63 plus the 16 exact low buckets.
const NUM_BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS as usize + 16;

/// A log-bucketed latency histogram (16 sub-buckets per power of two,
/// ≤ ~6 % relative bucket width) covering 1 ns to the full `u64`
/// nanosecond range in a fixed ~1 KiB footprint, with O(1) record and
/// O(buckets) quantile extraction.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    total_ns: u128,
    max_ns: u64,
}

fn bucket_index(ns: u64) -> usize {
    let ns = ns.max(1);
    let msb = 63 - u64::from(ns.leading_zeros());
    if msb < u64::from(SUB_BUCKET_BITS) {
        return ns as usize;
    }
    let octave = msb - u64::from(SUB_BUCKET_BITS) + 1;
    let sub = (ns >> (msb - u64::from(SUB_BUCKET_BITS))) & (SUB_BUCKETS - 1);
    (octave * SUB_BUCKETS + sub) as usize
}

fn bucket_floor(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let octave = index / SUB_BUCKETS;
    let sub = index % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << (octave - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.total_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.total_ns / u128::from(self.count)) as u64
        }
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile in nanoseconds: an upper bound of the bucket
    /// holding the `⌈q·count⌉`-th smallest sample, clamped to the recorded
    /// maximum.  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_floor(index + 1).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency in nanoseconds.
    pub fn p999_ns(&self) -> u64 {
        self.quantile(0.999)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Handle of a registered tenant (one chip's decode stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's registration index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Shard-level configuration of a [`DecodeServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of decode worker threads in the shard.  `0` is allowed and
    /// leaves every submitted window queued — useful for backpressure
    /// tests and for inspecting queue state without a racing consumer.
    pub workers: usize,
    /// Decoder configuration every context in the shared pool uses.
    pub decoder: DecoderConfig,
    /// Start with the workers paused; submissions queue until
    /// [`DecodeServer::resume`].
    pub start_paused: bool,
    /// Record the order in which windows complete (tenant id per window)
    /// for fairness analysis — see [`DecodeServer::completion_order`].
    pub record_completion_order: bool,
}

impl ServiceConfig {
    /// A configuration with the given worker count and default decoder.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            decoder: DecoderConfig::default(),
            start_paused: false,
            record_completion_order: false,
        }
    }

    /// Overrides the decoder configuration, builder style.
    pub fn with_decoder(mut self, decoder: DecoderConfig) -> Self {
        self.decoder = decoder;
        self
    }

    /// Starts the shard paused, builder style.
    pub fn paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Enables the completion-order log, builder style.
    pub fn recording_completion_order(mut self) -> Self {
        self.record_completion_order = true;
        self
    }
}

/// One syndrome window submitted for decoding.
#[derive(Debug, Clone)]
pub struct DecodeRequest {
    /// The syndrome layers of the window.
    pub history: SyndromeHistory,
    /// Anomalous regions the detection unit reported for the window; a
    /// non-empty list routes the window through the two-pass rollback
    /// flow.
    pub regions: Vec<AnomalousRegion>,
    /// Absolute code cycle of the window's first layer (anchors the
    /// regions' time intervals).
    pub window_start_cycle: u64,
    /// Ground-truth logical cut parity when known (simulation), letting
    /// the server tally logical failures; `None` in production use.
    pub error_cut_parity: Option<bool>,
}

impl From<StreamWindow> for DecodeRequest {
    fn from(window: StreamWindow) -> Self {
        Self {
            history: window.history,
            regions: window.regions,
            window_start_cycle: window.window_start_cycle,
            error_cut_parity: Some(window.error_cut_parity),
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's bounded queue is full; the window was shed.
    Backpressure {
        /// The tenant whose queue was full.
        tenant: TenantId,
        /// The queue depth at rejection time (== the tenant's capacity).
        depth: usize,
    },
    /// No tenant with this id is registered.
    UnknownTenant(TenantId),
    /// The window's node count differs from the tenant's matching graph;
    /// the window was never queued.
    ShapeMismatch {
        /// The tenant the window was submitted to.
        tenant: TenantId,
        /// The node count of the tenant's matching graph.
        expected: usize,
        /// The node count of the submitted window.
        got: usize,
    },
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Backpressure { tenant, depth } => {
                write!(f, "{tenant} queue full at depth {depth}; window shed")
            }
            SubmitError::UnknownTenant(tenant) => write!(f, "{tenant} is not registered"),
            SubmitError::ShapeMismatch {
                tenant,
                expected,
                got,
            } => write!(
                f,
                "window has {got} nodes but {tenant}'s graph has {expected}; window rejected"
            ),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Receipt for an accepted window; pass to [`DecodeServer::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowTicket {
    tenant: TenantId,
    seq: u64,
}

impl WindowTicket {
    /// The tenant the window belongs to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The window's per-tenant sequence number (0-based over accepted
    /// windows).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Point-in-time statistics of one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// The tenant's registration index.
    pub tenant: usize,
    /// Windows accepted into the queue.
    pub accepted: u64,
    /// Windows rejected because the queue was full.
    pub shed: u64,
    /// Windows decoded to completion.
    pub completed: u64,
    /// Windows currently queued.
    pub queue_depth: usize,
    /// Deepest the queue ever got.
    pub max_depth: usize,
    /// Completed windows that took the rollback re-execution path.
    pub rolled_back: u64,
    /// Completed windows that carried a ground-truth parity.
    pub parity_checked: u64,
    /// Parity-checked windows that ended in a logical failure.
    pub failures: u64,
    /// Space-time graphs built from scratch while serving this tenant —
    /// stays at 0 once the shard's contexts are warm for the tenant's
    /// window shape.
    pub graph_builds: u64,
    /// Mean submit-to-completion latency in nanoseconds.
    pub mean_ns: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: u64,
    /// Worst observed latency in nanoseconds.
    pub max_ns: u64,
}

impl TenantReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"tenant\":{},\"accepted\":{},\"shed\":{},\"completed\":{},\
             \"queue_depth\":{},\"max_depth\":{},\"rolled_back\":{},\
             \"parity_checked\":{},\"failures\":{},\"graph_builds\":{},\
             \"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\
             \"max_ns\":{}}}",
            self.tenant,
            self.accepted,
            self.shed,
            self.completed,
            self.queue_depth,
            self.max_depth,
            self.rolled_back,
            self.parity_checked,
            self.failures,
            self.graph_builds,
            self.mean_ns,
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
            self.max_ns,
        )
    }
}

/// The schema version written to [`ServiceReport::to_json`] documents;
/// consumers reject other versions via
/// [`q3de_sim::engine::json::check_schema_version`].
pub const SERVICE_SCHEMA_VERSION: u64 = 1;

/// Snapshot of the whole shard, one entry per tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReport {
    /// Worker threads in the shard.
    pub workers: usize,
    /// Per-tenant statistics, in registration order.
    pub tenants: Vec<TenantReport>,
}

impl ServiceReport {
    /// The report as a single JSON document,
    /// `{"schema_version":V,"service":{"workers":N,"tenants":[...]}}` —
    /// parseable by [`q3de_sim::engine::json::JsonValue`].
    pub fn to_json(&self) -> String {
        let tenants: Vec<String> = self.tenants.iter().map(TenantReport::to_json).collect();
        format!(
            "{{\"schema_version\":{SERVICE_SCHEMA_VERSION},\
             \"service\":{{\"workers\":{},\"tenants\":[{}]}}}}",
            self.workers,
            tenants.join(",")
        )
    }
}

struct Queued {
    request: DecodeRequest,
    enqueued_at: Instant,
}

struct TenantState {
    graph: Arc<MatchingGraph>,
    base_rate: f64,
    capacity: usize,
    queue: VecDeque<Queued>,
    busy: bool,
    accepted: u64,
    shed: u64,
    completed: u64,
    max_depth: usize,
    rolled_back: u64,
    parity_checked: u64,
    failures: u64,
    graph_builds: u64,
    latency: LatencyHistogram,
}

impl TenantState {
    fn report(&self, index: usize) -> TenantReport {
        TenantReport {
            tenant: index,
            accepted: self.accepted,
            shed: self.shed,
            completed: self.completed,
            queue_depth: self.queue.len(),
            max_depth: self.max_depth,
            rolled_back: self.rolled_back,
            parity_checked: self.parity_checked,
            failures: self.failures,
            graph_builds: self.graph_builds,
            mean_ns: self.latency.mean_ns(),
            p50_ns: self.latency.p50_ns(),
            p99_ns: self.latency.p99_ns(),
            p999_ns: self.latency.p999_ns(),
            max_ns: self.latency.max_ns(),
        }
    }
}

struct State {
    tenants: Vec<TenantState>,
    cursor: usize,
    paused: bool,
    draining: bool,
    aborting: bool,
    completion_order: Option<Vec<TenantId>>,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
    contexts: ContextPool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("decode server state poisoned")
    }
}

/// A long-running decode shard multiplexing many tenants — see the
/// [module docs](self).
pub struct DecodeServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    config: ServiceConfig,
}

impl DecodeServer {
    /// Starts the shard: spawns `config.workers` decode threads over one
    /// shared warm [`ContextPool`].
    pub fn new(config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                tenants: Vec::new(),
                cursor: 0,
                paused: config.start_paused,
                draining: false,
                aborting: false,
                completion_order: config.record_completion_order.then(Vec::new),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            contexts: ContextPool::new(config.decoder),
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("decode-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn decode worker")
            })
            .collect();
        Self {
            shared,
            workers,
            config,
        }
    }

    /// The shard configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Registers a tenant: its matching graph, base physical error rate
    /// and bounded queue capacity.  Returns the handle submissions use.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is 0 — a tenant that can never accept a
    /// window is a configuration error.
    pub fn register(
        &self,
        graph: MatchingGraph,
        base_rate: f64,
        queue_capacity: usize,
    ) -> TenantId {
        assert!(queue_capacity > 0, "tenant queue capacity must be >= 1");
        let mut state = self.shared.lock();
        state.tenants.push(TenantState {
            graph: Arc::new(graph),
            base_rate,
            capacity: queue_capacity,
            queue: VecDeque::new(),
            busy: false,
            accepted: 0,
            shed: 0,
            completed: 0,
            max_depth: 0,
            rolled_back: 0,
            parity_checked: 0,
            failures: 0,
            graph_builds: 0,
            latency: LatencyHistogram::new(),
        });
        TenantId(state.tenants.len() - 1)
    }

    /// Submits a window for decoding.  Accepted windows decode in FIFO
    /// order per tenant; a window arriving at a full queue is shed
    /// ([`SubmitError::Backpressure`]) and counted against the tenant —
    /// queue memory never grows past the registered capacity.  A window
    /// whose node count differs from the tenant's graph is rejected with
    /// [`SubmitError::ShapeMismatch`] before it is queued.
    pub fn submit(
        &self,
        tenant: TenantId,
        request: impl Into<DecodeRequest>,
    ) -> Result<WindowTicket, SubmitError> {
        let request = request.into();
        let mut state = self.shared.lock();
        if state.draining || state.aborting {
            return Err(SubmitError::ShuttingDown);
        }
        let slot = state
            .tenants
            .get_mut(tenant.0)
            .ok_or(SubmitError::UnknownTenant(tenant))?;
        let (expected, got) = (slot.graph.num_nodes(), request.history.num_nodes());
        if expected != got {
            return Err(SubmitError::ShapeMismatch {
                tenant,
                expected,
                got,
            });
        }
        let depth = slot.queue.len();
        if depth >= slot.capacity {
            slot.shed += 1;
            return Err(SubmitError::Backpressure { tenant, depth });
        }
        let seq = slot.accepted;
        slot.accepted += 1;
        slot.queue.push_back(Queued {
            request,
            enqueued_at: Instant::now(),
        });
        slot.max_depth = slot.max_depth.max(slot.queue.len());
        drop(state);
        self.shared.work.notify_one();
        Ok(WindowTicket { tenant, seq })
    }

    /// Current queue depth of a tenant.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not registered.
    pub fn queue_depth(&self, tenant: TenantId) -> usize {
        self.shared.lock().tenants[tenant.0].queue.len()
    }

    /// Pauses the workers after their in-flight windows finish.
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Resumes paused workers.
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.work.notify_all();
    }

    /// Blocks until the ticketed window has been decoded.
    ///
    /// # Panics
    ///
    /// Panics if the shard has no workers (the wait could never return) or
    /// if the workers are currently paused with the window still queued.
    pub fn wait(&self, ticket: WindowTicket) {
        assert!(
            self.config.workers > 0,
            "waiting on a shard with no workers would block forever"
        );
        let mut state = self.shared.lock();
        while state.tenants[ticket.tenant.0].completed <= ticket.seq {
            assert!(
                !state.paused,
                "waiting on a paused shard would block forever"
            );
            state = self
                .shared
                .done
                .wait(state)
                .expect("decode server state poisoned");
        }
    }

    /// Point-in-time statistics of one tenant.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not registered.
    pub fn stats(&self, tenant: TenantId) -> TenantReport {
        self.shared.lock().tenants[tenant.0].report(tenant.0)
    }

    /// Point-in-time snapshot of the whole shard.
    pub fn report(&self) -> ServiceReport {
        let state = self.shared.lock();
        ServiceReport {
            workers: self.config.workers,
            tenants: state
                .tenants
                .iter()
                .enumerate()
                .map(|(index, tenant)| tenant.report(index))
                .collect(),
        }
    }

    /// The completion-order log (tenant id per completed window, oldest
    /// first), if [`ServiceConfig::record_completion_order`] was set.
    pub fn completion_order(&self) -> Option<Vec<TenantId>> {
        self.shared.lock().completion_order.clone()
    }

    /// Stops accepting work, drains every queue, joins the workers and
    /// returns the final report.  With zero workers there is nothing to
    /// drain with: queued windows are dropped and the report shows them
    /// still queued.
    pub fn finish(mut self) -> ServiceReport {
        {
            let mut state = self.shared.lock();
            state.draining = true;
            // A paused shard still drains: finish overrides pause.
            state.paused = false;
        }
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("decode worker panicked");
        }
        self.report()
    }
}

impl Drop for DecodeServer {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.aborting = true;
            state.paused = false;
        }
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("decode worker panicked");
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        if state.aborting {
            return;
        }
        if state.paused {
            state = shared
                .work
                .wait(state)
                .expect("decode server state poisoned");
            continue;
        }
        // Round-robin over tenants that have work and no window in flight:
        // the one-in-flight rule keeps per-tenant FIFO order and stops a
        // backlogged tenant from occupying more than one worker.
        let num_tenants = state.tenants.len();
        let picked = (0..num_tenants)
            .map(|offset| (state.cursor + offset) % num_tenants)
            .find(|&index| {
                let tenant = &state.tenants[index];
                !tenant.busy && !tenant.queue.is_empty()
            });
        let Some(index) = picked else {
            if state.draining && state.tenants.iter().all(|tenant| tenant.queue.is_empty()) {
                return;
            }
            state = shared
                .work
                .wait(state)
                .expect("decode server state poisoned");
            continue;
        };
        state.cursor = (index + 1) % num_tenants;
        let tenant = &mut state.tenants[index];
        tenant.busy = true;
        let job = tenant.queue.pop_front().expect("picked tenant has work");
        let graph = Arc::clone(&tenant.graph);
        let base_rate = tenant.base_rate;
        drop(state);

        // Decode outside the scheduler lock on a structure-affine warm
        // context; other workers keep scheduling meanwhile.
        let key = graph_key(&graph, job.request.history.num_layers());
        let mut context = shared.contexts.checkout(key);
        let builds_before = context.graph_builds();
        let regions = (!job.request.regions.is_empty()).then_some(job.request.regions.as_slice());
        let outcome = context.decode_with_rollback(
            &graph,
            base_rate,
            &job.request.history,
            regions,
            job.request.window_start_cycle,
        );
        let graph_builds = context.graph_builds() - builds_before;
        let latency = job.enqueued_at.elapsed();
        let rolled_back = outcome.was_rolled_back();
        let failure = job
            .request
            .error_cut_parity
            .map(|parity| outcome.final_outcome().is_logical_failure(parity));
        shared.contexts.checkin(context);

        state = shared.lock();
        let tenant = &mut state.tenants[index];
        tenant.busy = false;
        tenant.completed += 1;
        tenant.graph_builds += graph_builds;
        if rolled_back {
            tenant.rolled_back += 1;
        }
        if let Some(failed) = failure {
            tenant.parity_checked += 1;
            if failed {
                tenant.failures += 1;
            }
        }
        tenant.latency.record(latency);
        if let Some(order) = state.completion_order.as_mut() {
            order.push(TenantId(index));
        }
        shared.done.notify_all();
        // The completed tenant may have more queued work that was blocked
        // only by its busy flag — wake a waiting worker for it.
        shared.work.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q3de_sim::{AnomalyInjection, MemoryExperimentConfig, WindowSource};
    use rand_chacha::ChaCha8Rng;

    fn quiet_source(seed: u64) -> WindowSource {
        WindowSource::new(MemoryExperimentConfig::new(3, 8e-3), 0.0, seed).unwrap()
    }

    #[test]
    fn histogram_buckets_partition_the_range() {
        // Every bucket's floor must be the previous ceiling: contiguous,
        // monotone, and each value lands in a bucket containing it.
        let mut previous = 0;
        for index in 1..NUM_BUCKETS {
            let floor = bucket_floor(index);
            assert!(floor > previous, "bucket {index} not monotone");
            previous = floor;
        }
        for ns in [1u64, 2, 15, 16, 17, 31, 32, 1_000, 123_456_789, u64::MAX] {
            let index = bucket_index(ns);
            assert!(bucket_floor(index) <= ns, "ns {ns} below its bucket");
            if index + 1 < NUM_BUCKETS {
                assert!(ns < bucket_floor(index + 1), "ns {ns} above its bucket");
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut histogram = LatencyHistogram::new();
        assert_eq!(histogram.quantile(0.99), 0);
        for micros in 1..=1000u64 {
            histogram.record(Duration::from_micros(micros));
        }
        let (p50, p99, p999) = (histogram.p50_ns(), histogram.p99_ns(), histogram.p999_ns());
        assert!(p50 <= p99 && p99 <= p999 && p999 <= histogram.max_ns());
        // p50 of a uniform 1..=1000 µs set sits near 500 µs (≤6 % bucket
        // width plus the upper-bound convention).
        assert!((450_000..=600_000).contains(&p50), "p50 {p50} ns");
        assert!(p99 >= 900_000, "p99 {p99} ns");
        assert_eq!(histogram.count(), 1000);
        assert!(histogram.mean_ns() > 400_000);
    }

    #[test]
    fn windows_decode_and_the_cache_stays_warm() {
        let source = quiet_source(41);
        let server = DecodeServer::new(ServiceConfig::new(2));
        let tenant = server.register(source.graph().clone(), 8e-3, 64);
        let tickets: Vec<WindowTicket> = (0..24u64)
            .map(|stream| {
                server
                    .submit(tenant, source.window::<ChaCha8Rng>(stream))
                    .expect("queue has room")
            })
            .collect();
        assert_eq!(tickets[0].tenant(), tenant);
        assert_eq!(tickets[5].seq(), 5);
        for ticket in tickets {
            server.wait(ticket);
        }
        let report = server.finish();
        let stats = &report.tenants[0];
        assert_eq!(stats.completed, 24);
        assert_eq!(stats.accepted, 24);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.parity_checked, 24);
        assert!(stats.p50_ns > 0 && stats.p50_ns <= stats.p99_ns);
        assert!(stats.p999_ns <= stats.max_ns);
        // Every window has the same structure: at most one cold build per
        // worker, never one per window.
        assert!(
            stats.graph_builds <= 2,
            "warm shard rebuilt {} graphs over 24 same-shape windows",
            stats.graph_builds
        );
    }

    #[test]
    fn unknown_tenants_are_rejected() {
        let source = quiet_source(42);
        let server = DecodeServer::new(ServiceConfig::new(1));
        let error = server
            .submit(TenantId(7), source.window::<ChaCha8Rng>(0))
            .unwrap_err();
        assert_eq!(error, SubmitError::UnknownTenant(TenantId(7)));
        assert!(error.to_string().contains("tenant7"));
    }

    #[test]
    fn report_json_round_trips_through_the_engine_parser() {
        let source = quiet_source(43);
        let server = DecodeServer::new(ServiceConfig::new(1));
        let tenant = server.register(source.graph().clone(), 8e-3, 16);
        for stream in 0..8u64 {
            server
                .submit(tenant, source.window::<ChaCha8Rng>(stream))
                .unwrap();
        }
        let report = server.finish();
        let doc = q3de_sim::engine::json::JsonValue::parse(&report.to_json())
            .expect("service report must be valid JSON");
        q3de_sim::engine::json::check_schema_version(
            &doc,
            SERVICE_SCHEMA_VERSION,
            "service report",
        )
        .expect("report carries the schema version this build writes");
        let service = doc.get("service").expect("service key");
        assert_eq!(service.get("workers").and_then(|w| w.as_usize()), Some(1));
        let tenants = service
            .get("tenants")
            .and_then(|t| t.as_array())
            .expect("tenants array");
        assert_eq!(tenants.len(), 1);
        let p999 = tenants[0]
            .get("p999_ns")
            .and_then(|v| v.as_f64())
            .expect("p999_ns");
        assert!(p999.is_finite() && p999 >= 0.0);
        assert_eq!(
            tenants[0].get("completed").and_then(|v| v.as_usize()),
            Some(8)
        );
    }

    #[test]
    fn finish_drains_queued_work_without_waits() {
        let source = quiet_source(44);
        let server = DecodeServer::new(ServiceConfig::new(2));
        let tenant = server.register(source.graph().clone(), 8e-3, 32);
        for stream in 0..16u64 {
            server
                .submit(tenant, source.window::<ChaCha8Rng>(stream))
                .unwrap();
        }
        let report = server.finish();
        assert_eq!(report.tenants[0].completed, 16);
        assert_eq!(report.tenants[0].queue_depth, 0);
    }

    #[test]
    fn drop_aborts_without_hanging() {
        let source = quiet_source(45);
        let server = DecodeServer::new(ServiceConfig::new(1).paused());
        let tenant = server.register(source.graph().clone(), 8e-3, 8);
        for stream in 0..8u64 {
            server
                .submit(tenant, source.window::<ChaCha8Rng>(stream))
                .unwrap();
        }
        drop(server); // queued windows are abandoned, workers join
    }

    #[test]
    #[should_panic(expected = "no workers")]
    fn waiting_without_workers_is_rejected() {
        let source = quiet_source(46);
        let server = DecodeServer::new(ServiceConfig::new(0));
        let tenant = server.register(source.graph().clone(), 8e-3, 4);
        let ticket = server
            .submit(tenant, source.window::<ChaCha8Rng>(0))
            .unwrap();
        server.wait(ticket);
    }

    #[test]
    fn struck_windows_take_the_rollback_path() {
        let config =
            MemoryExperimentConfig::new(3, 5e-3).with_anomaly(AnomalyInjection::centered(1, 0.5));
        let source = WindowSource::new(config, 1.0, 47).unwrap();
        let server = DecodeServer::new(ServiceConfig::new(1));
        let tenant = server.register(source.graph().clone(), 5e-3, 16);
        for stream in 0..8u64 {
            server
                .submit(tenant, source.window::<ChaCha8Rng>(stream))
                .unwrap();
        }
        let report = server.finish();
        assert_eq!(report.tenants[0].completed, 8);
        assert_eq!(
            report.tenants[0].rolled_back, 8,
            "every struck window must re-execute"
        );
    }
}
